//! Stage 2: the hybrid TOP classifier (paper §4.1).
//!
//! A Linear-SVM over statistical + TF-IDF features is trained on a
//! 1 000-thread annotated sample (800 train / 200 test) and OR-combined
//! with a keyword heuristic: "If either method classifies a thread as
//! offering packs, this is included in our pipeline to extract links."
//!
//! The annotated sample stands in for the paper's human annotator: thread
//! *selection* uses only public signals (lexicon matches — the annotator
//! skimmed promising threads), while *labels* come from ground truth (the
//! annotator reads the thread and is assumed accurate).

use crate::features::{thread_stats_at, FeatureExtractor, ThreadInputs, ThreadStats, OPEN_CUTOFF};
use crimebb::{Corpus, ThreadId};
use linsvm::{confusion, BinaryMetrics, LinearSvm, SparseVec, SvmConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use synthrand::Day;
use websim::SiteCatalog;
use worldgen::GroundTruth;

/// Size of the annotated sample (paper: 1 000 threads).
pub const ANNOTATION_SAMPLE: usize = 1_000;
/// Training portion (paper: 800/200).
pub const TRAIN_SIZE: usize = 800;

/// The §4.1 keyword heuristic.
///
/// A thread is heuristically a TOP when its heading carries at least two
/// TOP keywords ("images", "video", "unsaturated", …) and shows no
/// asking-for signals (question marks, buying/request keywords) — "we also
/// account for both the number of question marks and the presence of
/// keywords related to buying to discard threads asking for packs".
pub fn heuristic_is_top(corpus: &Corpus, catalog: &SiteCatalog, thread: ThreadId) -> bool {
    heuristic_is_top_at(corpus, catalog, thread, OPEN_CUTOFF)
}

/// [`heuristic_is_top`] as of the end of day `cutoff` — the heuristic's
/// signals are all heading-derived, so the decision only depends on the
/// thread existing by the cutoff; the `_at` stats make that explicit.
pub fn heuristic_is_top_at(
    corpus: &Corpus,
    catalog: &SiteCatalog,
    thread: ThreadId,
    cutoff: Day,
) -> bool {
    heuristic_says_top(&thread_stats_at(corpus, catalog, thread, cutoff))
}

/// The heuristic's rule over a thread's statistical block.
fn heuristic_says_top(s: &ThreadStats) -> bool {
    s.top_kw >= 2.0 && s.question_marks == 0.0 && s.request_kw == 0.0
}

/// Evaluation and application results of the hybrid classifier. The
/// default is the artifact of a run with nothing to classify yet: no
/// detections, zero counts and default metrics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TopClassification {
    /// Held-out metrics of the hybrid classifier (paper: P 92 / R 93 / F1 92).
    pub hybrid_metrics: BinaryMetrics,
    /// Held-out metrics of the SVM alone.
    pub ml_metrics: BinaryMetrics,
    /// Held-out metrics of the heuristic alone.
    pub heuristic_metrics: BinaryMetrics,
    /// TOPs found in the annotated sample (paper: 175 of 1 000).
    pub sample_positives: usize,
    /// Detected TOPs over the full extracted set.
    pub detected: Vec<ThreadId>,
    /// How many the ML side flagged (paper: 3 456).
    pub ml_count: usize,
    /// How many the heuristic side flagged (paper: 2 676).
    pub heuristic_count: usize,
    /// Flagged by both (paper: 1 995).
    pub both_count: usize,
}

/// Selects the annotation sample: a mix of lexicon-promising threads and a
/// uniform residue, so positives are enriched the way a human annotator's
/// skim would enrich them.
pub fn annotation_sample(
    rng: &mut StdRng,
    corpus: &Corpus,
    catalog: &SiteCatalog,
    threads: &[ThreadId],
    size: usize,
) -> Vec<ThreadId> {
    annotation_sample_at(rng, corpus, catalog, threads, size, OPEN_CUTOFF)
}

/// [`annotation_sample`] as of the end of day `cutoff`: the promising
/// rule sees only posts dated on or before the cutoff, so the sample a
/// later corpus selects is identical to the one the epoch-1 corpus
/// selected (given the same RNG state and candidate list).
pub fn annotation_sample_at(
    rng: &mut StdRng,
    corpus: &Corpus,
    catalog: &SiteCatalog,
    threads: &[ThreadId],
    size: usize,
    cutoff: Day,
) -> Vec<ThreadId> {
    let stats: Vec<ThreadStats> = threads
        .iter()
        .map(|&t| thread_stats_at(corpus, catalog, t, cutoff))
        .collect();
    annotation_draw(rng, &stats, size)
        .into_iter()
        .map(|i| threads[i])
        .collect()
}

/// The annotation draw over a list's statistical blocks, as indices into
/// the list: shuffle the lexicon-promising threads and the rest, then
/// take up to two fifths of `size` from the former and fill from the
/// latter. A draw that would come back empty — no threads, or one or
/// two threads that are all promising — returns before shuffling and
/// leaves `rng` untouched.
fn annotation_draw(rng: &mut StdRng, stats: &[ThreadStats], size: usize) -> Vec<usize> {
    let size = size.min(stats.len());
    let (mut promising, mut rest): (Vec<usize>, Vec<usize>) =
        (0..stats.len()).partition(|&i| stats[i].top_kw >= 1.0 && stats[i].question_marks == 0.0);
    let n_promising = (size * 2 / 5).min(promising.len());
    let n_rest = rest.len().min(size - n_promising);
    if n_promising + n_rest == 0 {
        return Vec::new();
    }
    promising.shuffle(rng);
    rest.shuffle(rng);
    let mut sample: Vec<usize> = promising.into_iter().take(n_promising).collect();
    sample.extend(rest.into_iter().take(n_rest));
    sample
}

/// The bootstrap-frozen hybrid classifier: model and held-out metrics
/// trained once at the first slice boundary with an annotation sample,
/// then applied unchanged to every later slice's new threads.
/// Serialisable so the epoch carry can freeze it across advances.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BootstrapModel {
    /// The frozen feature extractor (vocabulary + IDF at the boundary).
    pub extractor: FeatureExtractor,
    /// The frozen SVM.
    pub svm: LinearSvm,
    /// Held-out hybrid metrics, evaluated at the boundary.
    pub hybrid_metrics: BinaryMetrics,
    /// Held-out SVM-only metrics.
    pub ml_metrics: BinaryMetrics,
    /// Held-out heuristic-only metrics.
    pub heuristic_metrics: BinaryMetrics,
    /// TOPs in the annotated sample.
    pub sample_positives: usize,
}

/// Trains the bootstrap model on the annotated sample: annotate, split
/// 800/200, fit features on the training side, train the SVM, and
/// evaluate ML, heuristic, and hybrid on the held-out side. `threads`
/// are the threads existing by the first slice's boundary, in
/// extraction order, and `inputs` their [`ThreadInputs`] as of that
/// boundary; every signal is read from there. Only the annotation
/// sampling draws from `rng`. Pure in `(inputs, rng state)`, so a later
/// corpus replays the training bit-exactly.
///
/// Returns `None`, without drawing from `rng`, when the annotation
/// sample is empty: there is nothing to train on yet.
pub fn bootstrap_at(
    rng: &mut StdRng,
    truth: &GroundTruth,
    threads: &[ThreadId],
    inputs: &ThreadInputs,
    workers: usize,
) -> Option<BootstrapModel> {
    debug_assert_eq!(threads.len(), inputs.len(), "one input per thread");
    let sample = annotation_draw(rng, &inputs.stats, ANNOTATION_SAMPLE);
    if sample.is_empty() {
        return None;
    }
    let labels: Vec<bool> = sample.iter().map(|&i| truth.is_top(threads[i])).collect();
    let sample_positives = labels.iter().filter(|&&l| l).count();

    let n_train = (sample.len() * TRAIN_SIZE / ANNOTATION_SAMPLE).max(1);
    let (train_idx, test_idx) = linsvm::train_test_split(sample.len(), n_train, 0x5711);
    let train_docs: Vec<&[String]> = train_idx
        .iter()
        .map(|&i| inputs.tokens[sample[i]].as_slice())
        .collect();
    let extractor = FeatureExtractor::fit_tokens(&train_docs, workers);

    let rows = |idx: &[usize]| -> Vec<SparseVec> {
        crate::par::par_map(idx, workers, |&i| {
            let t = sample[i];
            extractor.row(&inputs.stats[t], &inputs.tokens[t])
        })
    };
    let mut train_x = rows(&train_idx);
    let mut train_y: Vec<bool> = train_idx.iter().map(|&i| labels[i]).collect();
    let positives: Vec<SparseVec> = train_x
        .iter()
        .zip(&train_y)
        .filter(|&(_, &y)| y)
        .map(|(x, _)| x.clone())
        .collect();
    for p in positives.into_iter().step_by(2) {
        train_x.push(p);
        train_y.push(true);
    }
    let test_x = rows(&test_idx);
    let test_y: Vec<bool> = test_idx.iter().map(|&i| labels[i]).collect();

    let svm = LinearSvm::train(&train_x, &train_y, SvmConfig::default());

    let ml_pred: Vec<bool> = test_x.iter().map(|x| svm.predict(x)).collect();
    let heur_pred: Vec<bool> = test_idx
        .iter()
        .map(|&i| heuristic_says_top(&inputs.stats[sample[i]]))
        .collect();
    let hybrid_pred: Vec<bool> = ml_pred
        .iter()
        .zip(&heur_pred)
        .map(|(&m, &h)| m || h)
        .collect();

    Some(BootstrapModel {
        hybrid_metrics: confusion(&hybrid_pred, &test_y).metrics(),
        ml_metrics: confusion(&ml_pred, &test_y).metrics(),
        heuristic_metrics: confusion(&heur_pred, &test_y).metrics(),
        sample_positives,
        extractor,
        svm,
    })
}

/// First-sight decisions `(ml, heuristic)`, one per thread of `inputs`
/// in order, across `workers` threads. Without a model — no thread could
/// be annotated yet — the ML side says no and the heuristic decides
/// alone.
pub fn decide(
    model: Option<&BootstrapModel>,
    inputs: &ThreadInputs,
    workers: usize,
) -> Vec<(bool, bool)> {
    crate::par::par_map_range(inputs.len(), workers, |i| {
        let stats = &inputs.stats[i];
        let ml = model.is_some_and(|m| m.svm.predict(&m.extractor.row(stats, &inputs.tokens[i])));
        (ml, heuristic_says_top(stats))
    })
}

/// Tallies `(ml, heuristic)` decisions, one per thread of `threads` in
/// order, into the §4.1 artifact: a thread is a detected TOP when either
/// side flags it. The held-out metrics come from `model`, and stay
/// default without one.
pub fn tally(
    model: Option<&BootstrapModel>,
    threads: &[ThreadId],
    decisions: impl IntoIterator<Item = (bool, bool)>,
) -> TopClassification {
    let mut out = TopClassification::default();
    if let Some(m) = model {
        out.hybrid_metrics = m.hybrid_metrics;
        out.ml_metrics = m.ml_metrics;
        out.heuristic_metrics = m.heuristic_metrics;
        out.sample_positives = m.sample_positives;
    }
    for (&t, (ml, heur)) in threads.iter().zip(decisions) {
        out.ml_count += usize::from(ml);
        out.heuristic_count += usize::from(heur);
        out.both_count += usize::from(ml && heur);
        if ml || heur {
            out.detected.push(t);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_ewhoring_threads;
    use synthrand::rng_from_seed;
    use worldgen::{World, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig::test_scale(0x70C5))
    }

    /// Trains on the whole corpus as one slice and classifies every
    /// thread, the way the stage does on a generated world.
    fn classify(rng: &mut StdRng, w: &World, threads: &[ThreadId]) -> TopClassification {
        let inputs = ThreadInputs::at(&w.corpus, &w.catalog, threads, OPEN_CUTOFF, 2);
        let model = bootstrap_at(rng, &w.truth, threads, &inputs, 2);
        tally(model.as_ref(), threads, decide(model.as_ref(), &inputs, 2))
    }

    #[test]
    fn hybrid_classifier_reaches_low_nineties() {
        // Held-out metrics need a reasonably sized test split; use a 5%
        // world (the 2% worlds leave ~30 positives in the whole sample).
        let w = World::generate(worldgen::WorldConfig {
            scale: 0.05,
            ..WorldConfig::test_scale(0x70C5)
        });
        let set = extract_ewhoring_threads(&w.corpus);
        let threads = set.all_threads();
        let mut rng = rng_from_seed(1);
        let result = classify(&mut rng, &w, &threads);
        // Paper: precision 92%, recall 93%, F1 92%.
        assert!(
            result.hybrid_metrics.recall > 0.80,
            "recall {:?}",
            result.hybrid_metrics
        );
        assert!(
            result.hybrid_metrics.precision > 0.75,
            "precision {:?}",
            result.hybrid_metrics
        );
    }

    #[test]
    fn union_beats_both_sides() {
        let w = world();
        let set = extract_ewhoring_threads(&w.corpus);
        let threads = set.all_threads();
        let mut rng = rng_from_seed(2);
        let r = classify(&mut rng, &w, &threads);
        assert!(r.detected.len() >= r.ml_count.max(r.heuristic_count));
        assert_eq!(
            r.detected.len(),
            r.ml_count + r.heuristic_count - r.both_count
        );
        assert!(r.both_count > 0, "the two sides overlap");
        assert!(
            r.both_count < r.detected.len(),
            "each side contributes unique detections"
        );
    }

    #[test]
    fn detection_count_tracks_planted_tops() {
        let w = world();
        let set = extract_ewhoring_threads(&w.corpus);
        let threads = set.all_threads();
        let mut rng = rng_from_seed(3);
        let r = classify(&mut rng, &w, &threads);
        let planted = w.truth.top_count() as f64;
        let detected = r.detected.len() as f64;
        assert!(
            (detected / planted) > 0.75 && (detected / planted) < 1.45,
            "detected {detected} vs planted {planted}"
        );
    }

    /// One or two threads that are all lexicon-promising leave the
    /// annotation draw empty: no model, and no rng draw either, so a
    /// later bucket trains on the same rng state in warm and fresh runs.
    #[test]
    fn unannotatable_bucket_trains_nothing_and_draws_nothing() {
        let w = world();
        let promising = ThreadStats {
            top_kw: 2.0,
            ..ThreadStats::default()
        };
        for n in [0, 1, 2] {
            let threads: Vec<ThreadId> = (0..n).map(ThreadId).collect();
            let inputs = ThreadInputs {
                stats: vec![promising; n as usize],
                tokens: vec![Vec::new(); n as usize],
            };
            let mut rng = rng_from_seed(5);
            assert!(bootstrap_at(&mut rng, &w.truth, &threads, &inputs, 1).is_none());
            assert_eq!(
                rand::Rng::gen::<u64>(&mut rng),
                rand::Rng::gen::<u64>(&mut rng_from_seed(5)),
                "{n} thread(s): the rng was drawn from"
            );
            let decisions = decide(None, &inputs, 1);
            assert_eq!(decisions, vec![(false, true); n as usize]);
            let t = tally(None, &threads, decisions);
            assert_eq!(t.detected, threads);
            assert_eq!(t.hybrid_metrics, BinaryMetrics::default());
        }
    }

    #[test]
    fn sample_is_enriched_but_not_all_positive() {
        let w = world();
        let set = extract_ewhoring_threads(&w.corpus);
        let threads = set.all_threads();
        let mut rng = rng_from_seed(4);
        // Use half the extracted set so enrichment has room to act (at
        // paper scale the sample is far smaller than the 44k threads).
        let size = threads.len() / 2;
        let sample = annotation_sample(&mut rng, &w.corpus, &w.catalog, &threads, size);
        assert_eq!(sample.len(), size);
        let pos = sample.iter().filter(|&&t| w.truth.is_top(t)).count() as f64;
        let rate = pos / sample.len() as f64;
        let base = w.truth.top_count() as f64 / threads.len() as f64;
        assert!(rate > base, "sample rate {rate} vs base {base}");
        assert!(rate < 0.6, "sample rate {rate} suspiciously high");
    }
}
