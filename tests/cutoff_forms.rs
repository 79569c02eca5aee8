//! The plain feature and classifier entry points are their `_at` forms
//! with an open cutoff. On a generated world every post is dated on or
//! before `dataset_end`, so a cutoff there hides nothing: each plain
//! form must agree with its `_at` form at that cutoff.

use ewhoring_core::extract::extract_ewhoring_threads;
use ewhoring_core::features::{
    thread_stats, thread_stats_at, thread_tokens, thread_tokens_at, FeatureExtractor, ThreadInputs,
};
use ewhoring_core::topcls::{
    annotation_sample, annotation_sample_at, bootstrap_at, decide, heuristic_is_top,
    heuristic_is_top_at, ANNOTATION_SAMPLE,
};
use worldgen::{World, WorldConfig};

#[test]
fn plain_forms_match_their_cutoff_forms_past_the_last_post() {
    let w = World::generate(WorldConfig::test_scale(0xC07));
    let cutoff = w.config.dataset_end();
    let (_, last) = w.corpus.date_span().expect("the world has posts");
    assert!(last <= cutoff, "every post precedes the cutoff");

    let threads = extract_ewhoring_threads(&w.corpus).all_threads();
    assert!(!threads.is_empty());
    for &t in &threads {
        assert_eq!(
            thread_stats(&w.corpus, &w.catalog, t),
            thread_stats_at(&w.corpus, &w.catalog, t, cutoff),
            "thread_stats {t}"
        );
        assert_eq!(
            thread_tokens(&w.corpus, t),
            thread_tokens_at(&w.corpus, t, cutoff),
            "thread_tokens {t}"
        );
        assert_eq!(
            heuristic_is_top(&w.corpus, &w.catalog, t),
            heuristic_is_top_at(&w.corpus, &w.catalog, t, cutoff),
            "heuristic_is_top {t}"
        );
    }

    let sample = annotation_sample(
        &mut synthrand::rng_from_seed(5),
        &w.corpus,
        &w.catalog,
        &threads,
        ANNOTATION_SAMPLE,
    );
    let sample_at = annotation_sample_at(
        &mut synthrand::rng_from_seed(5),
        &w.corpus,
        &w.catalog,
        &threads,
        ANNOTATION_SAMPLE,
        cutoff,
    );
    assert!(!sample.is_empty());
    assert_eq!(sample, sample_at, "annotation_sample");

    let fitted = FeatureExtractor::fit(&w.corpus, &sample, 2);
    let fitted_at = FeatureExtractor::fit_at(&w.corpus, &sample, cutoff, 2);
    assert_eq!(fitted.vocab_len(), fitted_at.vocab_len(), "fit vocabulary");
    for &t in &threads {
        let plain = fitted.features(&w.corpus, &w.catalog, t);
        assert_eq!(
            plain.entries(),
            fitted_at.features(&w.corpus, &w.catalog, t).entries(),
            "fit {t}"
        );
        assert_eq!(
            plain.entries(),
            fitted
                .features_at(&w.corpus, &w.catalog, t, cutoff)
                .entries(),
            "features {t}"
        );
    }
}

/// A classification round derives each thread's stats and tokens once
/// and reads every decision from them. At a mid-window cutoff and at the
/// last one, those decisions must equal the per-thread forms: the frozen
/// extractor's `features_at` row through the SVM, and
/// `heuristic_is_top_at`.
#[test]
fn round_inputs_decide_like_the_per_thread_forms() {
    let w = World::generate(WorldConfig::test_scale(0xC07));
    let all = extract_ewhoring_threads(&w.corpus).all_threads();
    let (first, last) = w.corpus.date_span().expect("the world has posts");
    let mid = first.plus_days(last.days_since(first) / 2);
    for cutoff in [mid, w.config.dataset_end()] {
        let threads: Vec<_> = all
            .iter()
            .copied()
            .filter(|&t| w.corpus.thread(t).created <= cutoff)
            .collect();
        assert!(threads.len() > 10, "{cutoff:?}: too few threads");
        let inputs = ThreadInputs::at(&w.corpus, &w.catalog, &threads, cutoff, 2);
        let model = bootstrap_at(
            &mut synthrand::rng_from_seed(9),
            &w.truth,
            &threads,
            &inputs,
            2,
        )
        .expect("threads to annotate");
        let decisions = decide(Some(&model), &inputs, 2);
        assert_eq!(decisions.len(), threads.len());
        for (&t, &(ml, heuristic)) in threads.iter().zip(&decisions) {
            let row = model
                .extractor
                .features_at(&w.corpus, &w.catalog, t, cutoff);
            assert_eq!(ml, model.svm.predict(&row), "ml {t} at {cutoff:?}");
            assert_eq!(
                heuristic,
                heuristic_is_top_at(&w.corpus, &w.catalog, t, cutoff),
                "heuristic {t} at {cutoff:?}"
            );
        }
        assert!(decisions.iter().any(|&(ml, _)| ml), "the SVM flags some");
        assert!(
            decisions.iter().any(|&(_, h)| h),
            "the heuristic flags some"
        );
    }
}
