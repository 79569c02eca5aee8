//! Document-term matrix and TF-IDF weighting (paper §4.1).
//!
//! The TOP classifier's NLP features are word counts over thread headings
//! and posts, TF-IDF transformed. [`Vocabulary`] is built on the training
//! corpus; unseen test-time terms are ignored (standard information-
//! retrieval practice and what a frozen document-term matrix implies).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A term index assigning dense ids to vocabulary words.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Vocabulary {
    index: HashMap<String, usize>,
    terms: Vec<String>,
}

impl Vocabulary {
    /// Builds a vocabulary from tokenised documents, keeping terms that
    /// appear in at least `min_df` documents (use 1 to keep everything).
    pub fn build<'a, I, D>(docs: I, min_df: usize) -> Vocabulary
    where
        I: IntoIterator<Item = D>,
        D: IntoIterator<Item = &'a String>,
    {
        let mut df: HashMap<String, usize> = HashMap::new();
        for doc in docs {
            let mut seen: Vec<&String> = doc.into_iter().collect();
            seen.sort_unstable();
            seen.dedup();
            for t in seen {
                *df.entry(t.clone()).or_insert(0) += 1;
            }
        }
        let mut kept: Vec<String> = df
            .into_iter()
            .filter(|&(_, c)| c >= min_df.max(1))
            .map(|(t, _)| t)
            .collect();
        kept.sort_unstable(); // deterministic term ids
        let index = kept
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), i))
            .collect();
        Vocabulary { index, terms: kept }
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Dense id of `term`, if in vocabulary.
    pub fn id(&self, term: &str) -> Option<usize> {
        self.index.get(term).copied()
    }

    /// Term for a dense id.
    pub fn term(&self, id: usize) -> &str {
        &self.terms[id]
    }

    /// Sparse term counts of one tokenised document, sorted by term id.
    pub fn count(&self, tokens: &[String]) -> Vec<(usize, f64)> {
        let mut counts: HashMap<usize, f64> = HashMap::new();
        for t in tokens {
            if let Some(id) = self.id(t) {
                *counts.entry(id).or_insert(0.0) += 1.0;
            }
        }
        let mut v: Vec<(usize, f64)> = counts.into_iter().collect();
        v.sort_unstable_by_key(|&(id, _)| id);
        v
    }
}

/// A sparse document-term matrix: per document, sorted `(term_id, count)`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DocTermMatrix {
    /// Row-major sparse rows.
    pub rows: Vec<Vec<(usize, f64)>>,
    /// Number of columns (vocabulary size).
    pub n_terms: usize,
}

impl DocTermMatrix {
    /// Counts every document through `vocab`.
    pub fn from_docs(vocab: &Vocabulary, docs: &[Vec<String>]) -> DocTermMatrix {
        Self::from_docs_par(vocab, docs, 1)
    }

    /// [`Self::from_docs`] across `workers` threads (0 = all cores). Rows
    /// come back in document order, so the matrix is identical to the
    /// serial build for any worker count.
    pub fn from_docs_par(
        vocab: &Vocabulary,
        docs: &[Vec<String>],
        workers: usize,
    ) -> DocTermMatrix {
        DocTermMatrix {
            rows: parkit::par_map(docs, workers, |d| vocab.count(d)),
            n_terms: vocab.len(),
        }
    }

    /// Number of documents.
    pub fn n_docs(&self) -> usize {
        self.rows.len()
    }
}

/// TF-IDF weights fitted on a training matrix.
///
/// Uses the smoothed IDF `ln((1 + N) / (1 + df)) + 1` and L2-normalises each
/// transformed row, matching the scikit-learn convention the paper's
/// released pipeline relies on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TfIdf {
    idf: Vec<f64>,
}

impl TfIdf {
    /// Fits IDF weights from a document-term matrix.
    pub fn fit(dtm: &DocTermMatrix) -> TfIdf {
        Self::fit_par(dtm, 1)
    }

    /// [`Self::fit`] across `workers` threads (0 = all cores). Each worker
    /// accumulates document frequencies over a chunk of rows; the partial
    /// counts are summed element-wise, so the result is identical to the
    /// serial fit for any worker count (integer addition commutes).
    pub fn fit_par(dtm: &DocTermMatrix, workers: usize) -> TfIdf {
        let n = dtm.n_docs() as f64;
        let partials = parkit::par_map_chunks(&dtm.rows, workers, |rows| {
            let mut df = vec![0usize; dtm.n_terms];
            for row in rows {
                for &(id, _) in row {
                    df[id] += 1;
                }
            }
            df
        });
        let mut df = vec![0usize; dtm.n_terms];
        for partial in partials {
            for (total, d) in df.iter_mut().zip(partial) {
                *total += d;
            }
        }
        let idf = df
            .into_iter()
            .map(|d| ((1.0 + n) / (1.0 + d as f64)).ln() + 1.0)
            .collect();
        TfIdf { idf }
    }

    /// Number of terms this transformer covers.
    pub fn n_terms(&self) -> usize {
        self.idf.len()
    }

    /// Transforms one sparse count row into an L2-normalised TF-IDF row.
    pub fn transform_row(&self, row: &[(usize, f64)]) -> Vec<(usize, f64)> {
        let mut out: Vec<(usize, f64)> = row
            .iter()
            .map(|&(id, tf)| (id, tf * self.idf[id]))
            .collect();
        let norm: f64 = out.iter().map(|&(_, v)| v * v).sum::<f64>().sqrt();
        if norm > 0.0 {
            for (_, v) in &mut out {
                *v /= norm;
            }
        }
        out
    }

    /// Transforms a whole matrix.
    pub fn transform(&self, dtm: &DocTermMatrix) -> Vec<Vec<(usize, f64)>> {
        self.transform_par(dtm, 1)
    }

    /// [`Self::transform`] across `workers` threads (0 = all cores), rows
    /// in document order.
    pub fn transform_par(&self, dtm: &DocTermMatrix, workers: usize) -> Vec<Vec<(usize, f64)>> {
        parkit::par_map(&dtm.rows, workers, |r| self.transform_row(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::tokenize_with_stopwords;

    fn docs() -> Vec<Vec<String>> {
        vec![
            tokenize_with_stopwords("selling unsaturated pack pics pics"),
            tokenize_with_stopwords("looking for a pack please"),
            tokenize_with_stopwords("tutorial how to start ewhoring"),
        ]
    }

    #[test]
    fn vocabulary_assigns_stable_sorted_ids() {
        let d = docs();
        let v = Vocabulary::build(d.iter().map(|x| x.iter()), 1);
        let mut terms: Vec<&str> = (0..v.len()).map(|i| v.term(i)).collect();
        let mut sorted = terms.clone();
        sorted.sort_unstable();
        assert_eq!(terms, sorted);
        assert!(v.id("pack").is_some());
        terms.dedup();
        assert_eq!(terms.len(), v.len());
    }

    #[test]
    fn min_df_filters_rare_terms() {
        let d = docs();
        let v = Vocabulary::build(d.iter().map(|x| x.iter()), 2);
        assert!(v.id("pack").is_some(), "'pack' appears in 2 docs");
        assert!(v.id("tutorial").is_none(), "'tutorial' appears once");
    }

    #[test]
    fn counting_handles_repeats_and_oov() {
        let d = docs();
        let v = Vocabulary::build(d.iter().map(|x| x.iter()), 1);
        let row = v.count(&tokenize_with_stopwords("pics pics pics zzzznovel"));
        assert_eq!(row.len(), 1);
        assert_eq!(row[0], (v.id("pics").unwrap(), 3.0));
    }

    #[test]
    fn tfidf_downweights_common_terms() {
        let d = docs();
        let v = Vocabulary::build(d.iter().map(|x| x.iter()), 1);
        let dtm = DocTermMatrix::from_docs(&v, &d);
        let tfidf = TfIdf::fit(&dtm);
        // 'pack' (df=2) must get a smaller IDF than 'tutorial' (df=1).
        let pack = v.id("pack").unwrap();
        let tut = v.id("tutorial").unwrap();
        assert!(tfidf.idf[pack] < tfidf.idf[tut]);
    }

    #[test]
    fn transformed_rows_are_unit_norm() {
        let d = docs();
        let v = Vocabulary::build(d.iter().map(|x| x.iter()), 1);
        let dtm = DocTermMatrix::from_docs(&v, &d);
        let tfidf = TfIdf::fit(&dtm);
        for row in tfidf.transform(&dtm) {
            let norm: f64 = row.iter().map(|&(_, x)| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-9, "norm {norm}");
        }
    }

    /// The worker-count invariance contract: build, fit, and transform
    /// must produce identical output for any worker count, on a corpus
    /// large enough to engage the parallel path.
    #[test]
    fn parallel_build_fit_transform_match_serial() {
        let d: Vec<Vec<String>> = (0..300)
            .map(|i| {
                let kind = if i % 2 == 0 { "selling" } else { "tutorial" };
                tokenize_with_stopwords(&format!("pack pics doc{} {kind}", i % 17))
            })
            .collect();
        let v = Vocabulary::build(d.iter().map(|x| x.iter()), 1);
        let dtm = DocTermMatrix::from_docs(&v, &d);
        let tfidf = TfIdf::fit(&dtm);
        let rows = tfidf.transform(&dtm);
        for workers in [2, 3, 7] {
            let dtm_p = DocTermMatrix::from_docs_par(&v, &d, workers);
            assert_eq!(dtm.rows, dtm_p.rows, "workers={workers}");
            let fit_p = TfIdf::fit_par(&dtm_p, workers);
            assert_eq!(tfidf.idf, fit_p.idf, "workers={workers}");
            assert_eq!(rows, tfidf.transform_par(&dtm_p, workers));
        }
    }

    #[test]
    fn empty_row_transforms_to_empty() {
        let d = docs();
        let v = Vocabulary::build(d.iter().map(|x| x.iter()), 1);
        let dtm = DocTermMatrix::from_docs(&v, &d);
        let tfidf = TfIdf::fit(&dtm);
        assert!(tfidf.transform_row(&[]).is_empty());
    }
}
