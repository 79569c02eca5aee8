//! Stage 1: extracting eWhoring-related conversations (paper §3).
//!
//! "We searched for two specific keywords (i.e., 'ewhor' and 'e-whor') in
//! the headings of all the threads contained in CrimeBB … We also include
//! all the threads from the specific board dedicated to eWhoring in
//! Hackforums."

use crimebb::{BoardCategory, Corpus, ForumId, ThreadId};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use textkit::lexicon::heading_is_ewhoring;

/// The extracted eWhoring conversations, per forum and overall.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EwhoringSet {
    /// Thread ids per forum, in corpus order.
    pub per_forum: Vec<(ForumId, Vec<ThreadId>)>,
}

impl EwhoringSet {
    /// All extracted threads, across forums.
    pub fn all_threads(&self) -> Vec<ThreadId> {
        self.per_forum
            .iter()
            .flat_map(|(_, ts)| ts.iter().copied())
            .collect()
    }

    /// Threads of one forum (empty if the forum had none).
    pub fn forum_threads(&self, forum: ForumId) -> &[ThreadId] {
        self.per_forum
            .iter()
            .find(|(f, _)| *f == forum)
            .map_or(&[], |(_, ts)| ts.as_slice())
    }

    /// Total thread count.
    pub fn len(&self) -> usize {
        self.per_forum.iter().map(|(_, ts)| ts.len()).sum()
    }

    /// True when nothing was extracted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// `threads` as a dense membership mask indexed by [`ThreadId::index`].
pub fn thread_mask(corpus: &Corpus, threads: &[ThreadId]) -> Vec<bool> {
    let mut mask = vec![false; corpus.threads().len()];
    for &t in threads {
        mask[t.index()] = true;
    }
    mask
}

/// Runs the §3 extraction over the corpus.
pub fn extract_ewhoring_threads(corpus: &Corpus) -> EwhoringSet {
    extract_ewhoring_threads_in(corpus, 0..corpus.forums().len())
}

/// Runs the §3 extraction for one contiguous span of forums (by corpus
/// index) — the shard-worker seam. Extraction is per-forum independent:
/// a thread's `seen` entry can only be produced by its own forum's
/// boards, so restricting both loops to `forums` yields exactly the
/// `per_forum` rows the full extraction produces for those forums, in
/// the same order. The returned set's `per_forum` covers only the span.
pub fn extract_ewhoring_threads_in(corpus: &Corpus, forums: std::ops::Range<usize>) -> EwhoringSet {
    let span = &corpus.forums()[forums.clone()];
    let mut per_forum: Vec<(ForumId, Vec<ThreadId>)> =
        span.iter().map(|f| (f.id, Vec::new())).collect();

    // Dedicated-board threads (Hackforums' eWhoring section).
    let mut seen: HashSet<ThreadId> = HashSet::new();
    for (slot, forum) in span.iter().enumerate() {
        for board in corpus.boards_in_category(forum.id, BoardCategory::EWhoring) {
            for &t in corpus.threads_in_board(board.id) {
                if seen.insert(t) {
                    per_forum[slot].1.push(t);
                }
            }
        }
    }

    // Keyword-matching headings anywhere ("comparison was done in
    // lowercase" — heading_is_ewhoring lower-cases internally).
    for thread in corpus.threads() {
        if seen.contains(&thread.id) {
            continue;
        }
        if heading_is_ewhoring(&thread.heading) {
            let forum = corpus.board(thread.board).forum;
            if forums.contains(&forum.index()) {
                seen.insert(thread.id);
                per_forum[forum.index() - forums.start].1.push(thread.id);
            }
        }
    }

    EwhoringSet { per_forum }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crimebb::CorpusBuilder;
    use synthrand::Day;

    fn corpus() -> Corpus {
        let mut b = CorpusBuilder::new();
        let hf = b.add_forum("HF");
        let ew = b.add_board(hf, "eWhoring", BoardCategory::EWhoring);
        let gm = b.add_board(hf, "Gaming", BoardCategory::Gaming);
        let other = b.add_forum("Other");
        let gen = b.add_board(other, "General", BoardCategory::Common);
        let a = b.add_actor(hf, "a", Day::from_ymd(2012, 1, 1));
        let c = b.add_actor(other, "c", Day::from_ymd(2012, 1, 1));
        let d = Day::from_ymd(2014, 1, 1);

        // In the dedicated board, no keyword needed.
        let t1 = b.add_thread(ew, a, "fresh pack giveaway", d);
        b.add_post(t1, a, d, "x", None);
        // Keyword match in another board of HF.
        let t2 = b.add_thread(gm, a, "quit gaming for eWhoring", d);
        b.add_post(t2, a, d, "x", None);
        // Keyword match on the other forum.
        let t3 = b.add_thread(gen, c, "E-WHORING guide", d);
        b.add_post(t3, c, d, "x", None);
        // Non-matching thread outside the board.
        let t4 = b.add_thread(gm, a, "minecraft server", d);
        b.add_post(t4, a, d, "x", None);
        b.build()
    }

    #[test]
    fn board_membership_and_keywords_both_extract() {
        let c = corpus();
        let set = extract_ewhoring_threads(&c);
        assert_eq!(set.len(), 3);
        let hf = c.forums()[0].id;
        let other = c.forums()[1].id;
        assert_eq!(set.forum_threads(hf).len(), 2);
        assert_eq!(set.forum_threads(other).len(), 1);
    }

    #[test]
    fn non_matching_threads_excluded() {
        let c = corpus();
        let set = extract_ewhoring_threads(&c);
        let all = set.all_threads();
        let excluded = c
            .threads()
            .iter()
            .find(|t| t.heading == "minecraft server")
            .unwrap()
            .id;
        assert!(!all.contains(&excluded));
    }

    #[test]
    fn no_duplicates_when_board_thread_has_keyword() {
        let mut b = CorpusBuilder::new();
        let hf = b.add_forum("HF");
        let ew = b.add_board(hf, "eWhoring", BoardCategory::EWhoring);
        let a = b.add_actor(hf, "a", Day::from_ymd(2012, 1, 1));
        let d = Day::from_ymd(2014, 1, 1);
        let t = b.add_thread(ew, a, "my eWhoring pack", d);
        b.add_post(t, a, d, "x", None);
        let set = extract_ewhoring_threads(&b.build());
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn empty_corpus_extracts_nothing() {
        let set = extract_ewhoring_threads(&Corpus::default());
        assert!(set.is_empty());
    }

    /// The shard seam: per-forum spans concatenate to the full set.
    #[test]
    fn forum_spans_concatenate_to_full_extraction() {
        let c = corpus();
        let full = extract_ewhoring_threads(&c);
        for split in 1..=c.forums().len() {
            let a = extract_ewhoring_threads_in(&c, 0..split);
            let b = extract_ewhoring_threads_in(&c, split..c.forums().len());
            let stitched: Vec<_> = a
                .per_forum
                .iter()
                .chain(b.per_forum.iter())
                .cloned()
                .collect();
            assert_eq!(
                serde_json::to_string(&stitched).unwrap(),
                serde_json::to_string(&full.per_forum).unwrap(),
                "split at {split}"
            );
        }
    }
}
