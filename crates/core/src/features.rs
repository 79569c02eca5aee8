//! Thread feature extraction for the TOP classifier (paper §4.1).
//!
//! "For each thread it extracts: the number of replies; the number of links
//! to cloud storage and image sharing sites, and number of links to other
//! threads in the forum; the length of the first post; and a set of
//! features extracted from the text using natural language processing …
//! Additionally, the feature set … includes the number of special keywords
//! and characters in the thread headings, such as question marks, keywords
//! related to selling/buying … and keywords related to tutorials and
//! mentoring."
//!
//! The statistical block occupies fixed feature indices `[0, STAT_DIM)`;
//! TF-IDF terms follow at `STAT_DIM + term_id`.

use crimebb::{Corpus, ThreadId};
use linsvm::SparseVec;
use synthrand::Day;
use textkit::dtm::{DocTermMatrix, TfIdf, Vocabulary};
use textkit::lexicon::Lexicon;
use textkit::tokenize::{count_char, tokenize_with_stopwords};
use textkit::url::extract_urls;
use websim::SiteCatalog;

/// Number of statistical features preceding the TF-IDF block.
pub const STAT_DIM: usize = 9;

/// Raw (unnormalised) statistical features of one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThreadStats {
    /// Replies (posts beyond the first).
    pub replies: f64,
    /// Links to known cloud-storage services in the first post.
    pub cloud_links: f64,
    /// Links to known image-sharing sites in the first post.
    pub image_links: f64,
    /// Links to other threads of the forum (internal references).
    pub thread_links: f64,
    /// Length of the first post in characters.
    pub first_post_len: f64,
    /// Question marks in the heading.
    pub question_marks: f64,
    /// Buying/requesting keywords in the heading (Table 2 row 3).
    pub request_kw: f64,
    /// Tutorial keywords in the heading (Table 2 row 4).
    pub tutorial_kw: f64,
    /// TOP keywords in the heading (Table 2 row 2).
    pub top_kw: f64,
}

/// The cutoff that hides nothing: every `_at` form called with it sees
/// the whole thread, so it equals its plain form.
pub const OPEN_CUTOFF: Day = Day(u32::MAX);

/// Extracts the statistical block for one thread.
pub fn thread_stats(corpus: &Corpus, catalog: &SiteCatalog, thread: ThreadId) -> ThreadStats {
    thread_stats_at(corpus, catalog, thread, OPEN_CUTOFF)
}

impl ThreadStats {
    /// Compresses counts into a bounded sparse block (log scaling keeps the
    /// SVM's feature magnitudes comparable with the unit-norm TF-IDF rows).
    pub fn to_sparse(&self) -> SparseVec {
        let vals = [
            self.replies.ln_1p(),
            self.cloud_links.min(8.0),
            self.image_links.min(16.0) * 0.5,
            self.thread_links.min(8.0) * 0.5,
            (self.first_post_len / 200.0).min(4.0),
            self.question_marks.min(4.0),
            self.request_kw.min(4.0),
            self.tutorial_kw.min(4.0),
            self.top_kw.min(6.0),
        ];
        SparseVec::from_pairs(
            vals.iter()
                .enumerate()
                .filter(|&(_, &v)| v != 0.0)
                .map(|(i, &v)| (i, v))
                .collect(),
        )
    }
}

/// [`thread_stats`] as of the end of day `cutoff`: replies and
/// first-post fields only count posts dated on or before the cutoff.
/// Posts are chronological within a thread, so the visible prefix is a
/// `partition_point` — and because a thread's earlier posts never change,
/// the result is identical whether computed on the corpus as of `cutoff`
/// or on any later corpus. That is what lets a first-sight classification
/// made at epoch `j` be replayed bit-exactly from a later corpus.
pub fn thread_stats_at(
    corpus: &Corpus,
    catalog: &SiteCatalog,
    thread: ThreadId,
    cutoff: Day,
) -> ThreadStats {
    let t = corpus.thread(thread);
    let posts = corpus.posts_in_thread(thread);
    let visible = posts.partition_point(|&p| corpus.post(p).date <= cutoff);
    let body = if visible > 0 {
        corpus.post(posts[0]).body.as_str()
    } else {
        ""
    };

    let mut cloud = 0.0;
    let mut image = 0.0;
    let mut other = 0.0;
    for url in extract_urls(body) {
        match catalog.lookup(&url.domain()) {
            Some(site) if site.kind == websim::SiteKind::CloudStorage => cloud += 1.0,
            Some(_) => image += 1.0,
            None => other += 1.0,
        }
    }

    ThreadStats {
        replies: visible.saturating_sub(1) as f64,
        cloud_links: cloud,
        image_links: image,
        thread_links: other,
        first_post_len: body.len() as f64,
        question_marks: count_char(&t.heading, '?') as f64,
        request_kw: Lexicon::request().count_matches(&t.heading) as f64,
        tutorial_kw: Lexicon::tutorial().count_matches(&t.heading) as f64,
        top_kw: Lexicon::top().count_matches(&t.heading) as f64,
    }
}

/// The tokenised text of a thread: heading plus first-post body (the
/// classifier "parses thread headings and posts").
pub fn thread_tokens(corpus: &Corpus, thread: ThreadId) -> Vec<String> {
    thread_tokens_at(corpus, thread, OPEN_CUTOFF)
}

/// [`thread_tokens`] as of the end of day `cutoff`: the first-post body
/// only contributes if the first post exists by then.
pub fn thread_tokens_at(corpus: &Corpus, thread: ThreadId, cutoff: Day) -> Vec<String> {
    let t = corpus.thread(thread);
    let mut tokens = tokenize_with_stopwords(&t.heading);
    if let Some(p) = corpus.first_post(thread) {
        if p.date <= cutoff {
            tokens.extend(tokenize_with_stopwords(&p.body));
        }
    }
    tokens
}

/// The classifier inputs of a list of threads as of one cutoff: each
/// thread's statistical block and its tokens, in list order. A
/// classification round derives them once and every consumer — the
/// annotation draw, the bootstrap's train/test rows, the held-out
/// heuristic, the decisions and the text index — reads them from here.
#[derive(Debug)]
pub struct ThreadInputs {
    /// [`thread_stats_at`] per thread.
    pub stats: Vec<ThreadStats>,
    /// [`thread_tokens_at`] per thread.
    pub tokens: Vec<Vec<String>>,
}

impl ThreadInputs {
    /// Derives the inputs of `threads` as of the end of day `cutoff`
    /// across `workers` threads (0 = all cores). Both halves are pure in
    /// `(thread, cutoff)`, so the result is worker-independent.
    pub fn at(
        corpus: &Corpus,
        catalog: &SiteCatalog,
        threads: &[ThreadId],
        cutoff: Day,
        workers: usize,
    ) -> ThreadInputs {
        let (stats, tokens) = crate::par::par_map(threads, workers, |&t| {
            (
                thread_stats_at(corpus, catalog, t, cutoff),
                thread_tokens_at(corpus, t, cutoff),
            )
        })
        .into_iter()
        .unzip();
        ThreadInputs { stats, tokens }
    }

    /// Number of threads.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// True when there are no threads.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }
}

/// A fitted feature extractor: vocabulary + IDF weights over the training
/// threads, reused unchanged at inference time. Serialisable so the epoch
/// pipeline can freeze the bootstrap-trained extractor in its carry.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FeatureExtractor {
    vocab: Vocabulary,
    tfidf: TfIdf,
}

impl FeatureExtractor {
    /// Fits vocabulary and IDF on the training threads. Tokenisation, the
    /// document-term matrix, and the IDF fit all run across `workers`
    /// threads (0 = all cores) with output identical to a serial fit.
    pub fn fit(corpus: &Corpus, train: &[ThreadId], workers: usize) -> FeatureExtractor {
        Self::fit_at(corpus, train, OPEN_CUTOFF, workers)
    }

    /// [`FeatureExtractor::fit`] as of the end of day `cutoff`: the
    /// vocabulary and IDF only see post text dated on or before the
    /// cutoff. It tokenises the training threads and fits what
    /// [`FeatureExtractor::fit_tokens`] fits, which is how the epoch
    /// pipeline's bootstrap fits from tokens it already holds. Past the
    /// last post it equals a plain [`fit`], and on any later corpus it
    /// replays an earlier fit bit-exactly (the `_at` inputs are
    /// prefix-stable).
    ///
    /// [`fit`]: FeatureExtractor::fit
    pub fn fit_at(
        corpus: &Corpus,
        train: &[ThreadId],
        cutoff: Day,
        workers: usize,
    ) -> FeatureExtractor {
        let docs: Vec<Vec<String>> =
            crate::par::par_map(train, workers, |&t| thread_tokens_at(corpus, t, cutoff));
        let docs: Vec<&[String]> = docs.iter().map(Vec::as_slice).collect();
        Self::fit_tokens(&docs, workers)
    }

    /// Fits vocabulary and IDF on already tokenised training documents:
    /// the body of [`FeatureExtractor::fit_at`] for callers that hold
    /// the tokens.
    pub(crate) fn fit_tokens(docs: &[&[String]], workers: usize) -> FeatureExtractor {
        let vocab = Vocabulary::build(docs.iter().map(|d| d.iter()), 2);
        let dtm = DocTermMatrix {
            rows: crate::par::par_map(docs, workers, |d| vocab.count(d)),
            n_terms: vocab.len(),
        };
        let tfidf = TfIdf::fit_par(&dtm, workers);
        FeatureExtractor { vocab, tfidf }
    }

    /// Full feature vector of one thread: statistical block + TF-IDF block.
    pub fn features(&self, corpus: &Corpus, catalog: &SiteCatalog, thread: ThreadId) -> SparseVec {
        self.features_at(corpus, catalog, thread, OPEN_CUTOFF)
    }

    /// [`FeatureExtractor::features`] as of the end of day `cutoff` —
    /// the first-sight feature vector the epoch pipeline classifies new
    /// threads with. Pure in `(thread's visible prefix, cutoff)`, so a
    /// later corpus replays it bit-exactly.
    pub fn features_at(
        &self,
        corpus: &Corpus,
        catalog: &SiteCatalog,
        thread: ThreadId,
        cutoff: Day,
    ) -> SparseVec {
        self.row(
            &thread_stats_at(corpus, catalog, thread, cutoff),
            &thread_tokens_at(corpus, thread, cutoff),
        )
    }

    /// The feature vector of a thread from its statistical block and its
    /// tokens, for callers that also need those inputs on their own.
    pub(crate) fn row(&self, stats: &ThreadStats, tokens: &[String]) -> SparseVec {
        let counts = self.vocab.count(tokens);
        let text = SparseVec::from_sorted(self.tfidf.transform_row(&counts));
        stats.to_sparse().concat(&text, STAT_DIM)
    }

    /// Feature vectors for many threads across `workers` threads
    /// (0 = all cores), in input order.
    pub fn features_many(
        &self,
        corpus: &Corpus,
        catalog: &SiteCatalog,
        threads: &[ThreadId],
        workers: usize,
    ) -> Vec<SparseVec> {
        crate::par::par_map(threads, workers, |&t| self.features(corpus, catalog, t))
    }

    /// Vocabulary size (diagnostics).
    pub fn vocab_len(&self) -> usize {
        self.vocab.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crimebb::{BoardCategory, CorpusBuilder};
    use synthrand::Day;

    fn corpus() -> Corpus {
        let mut b = CorpusBuilder::new();
        let f = b.add_forum("HF");
        let board = b.add_board(f, "eWhoring", BoardCategory::EWhoring);
        let a = b.add_actor(f, "a", Day::from_ymd(2012, 1, 1));
        let d = Day::from_ymd(2014, 1, 1);

        let top = b.add_thread(board, a, "[FREE] unsaturated pack - 100 pics", d);
        let p = b.add_post(
            top,
            a,
            d,
            "enjoy\nDownload: https://mediafire.com/f/abc\nPreview: https://imgur.com/x1\nPreview: https://imgur.com/x2",
            None,
        );
        b.add_post(top, a, d, "thanks!", Some(p));
        b.add_post(top, a, d, "great pack", Some(p));

        let req = b.add_thread(board, a, "Looking for a pack??", d);
        b.add_post(req, a, d, "need advice please, help with packs", None);
        b.build()
    }

    #[test]
    fn stats_count_link_kinds_and_replies() {
        let c = corpus();
        let catalog = SiteCatalog::new();
        let top = c.threads()[0].id;
        let s = thread_stats(&c, &catalog, top);
        assert_eq!(s.replies, 2.0);
        assert_eq!(s.cloud_links, 1.0);
        assert_eq!(s.image_links, 2.0);
        assert!(s.top_kw >= 2.0, "pack + pics: {}", s.top_kw);
        assert_eq!(s.question_marks, 0.0);
    }

    #[test]
    fn request_thread_has_question_and_request_signals() {
        let c = corpus();
        let catalog = SiteCatalog::new();
        let req = c.threads()[1].id;
        let s = thread_stats(&c, &catalog, req);
        assert_eq!(s.question_marks, 2.0);
        assert!(s.request_kw >= 1.0, "looking for: {}", s.request_kw);
        assert_eq!(s.cloud_links, 0.0);
    }

    #[test]
    fn sparse_encoding_respects_stat_dim() {
        let c = corpus();
        let catalog = SiteCatalog::new();
        let s = thread_stats(&c, &catalog, c.threads()[0].id).to_sparse();
        assert!(s.dim_hint() <= STAT_DIM);
        assert!(s.nnz() > 0);
    }

    #[test]
    fn extractor_separates_blocks() {
        let c = corpus();
        let catalog = SiteCatalog::new();
        let all: Vec<ThreadId> = c.threads().iter().map(|t| t.id).collect();
        let ex = FeatureExtractor::fit(&c, &all, 1);
        let fv = ex.features(&c, &catalog, all[0]);
        // Statistical entries live below STAT_DIM; text entries above.
        assert!(fv.entries().iter().any(|&(i, _)| i < STAT_DIM));
        assert!(fv.entries().iter().any(|&(i, _)| i >= STAT_DIM));
    }

    /// Cutoff semantics: before the first post only the heading
    /// contributes. (Past the last post the `_at` forms equal the plain
    /// ones: `tests/cutoff_forms.rs`.)
    #[test]
    fn cutoff_variants_window_the_thread() {
        let c = corpus();
        let catalog = SiteCatalog::new();
        let top = c.threads()[0].id;
        let early = Day::from_ymd(2013, 12, 31);
        let s = thread_stats_at(&c, &catalog, top, early);
        assert_eq!(s.replies, 0.0, "no posts visible before creation");
        assert_eq!(s.cloud_links, 0.0);
        assert_eq!(s.first_post_len, 0.0);
        assert!(s.top_kw >= 2.0, "heading features survive the cutoff");
        assert_eq!(
            thread_tokens_at(&c, top, early),
            tokenize_with_stopwords(&c.thread(top).heading)
        );
    }

    #[test]
    fn unseen_terms_are_ignored_at_inference() {
        let c = corpus();
        let catalog = SiteCatalog::new();
        // Fit on the request thread only; TOP thread's vocabulary is OOV.
        let ex = FeatureExtractor::fit(&c, &[c.threads()[1].id], 1);
        let fv = ex.features(&c, &catalog, c.threads()[0].id);
        // Still has statistical features even if no text features survive.
        assert!(fv.entries().iter().any(|&(i, _)| i < STAT_DIM));
    }
}
