//! The plain feature and classifier entry points are their `_at` forms
//! with an open cutoff. On a generated world every post is dated on or
//! before `dataset_end`, so a cutoff there hides nothing: each plain
//! form must agree with its `_at` form at that cutoff.

use ewhoring_core::extract::extract_ewhoring_threads;
use ewhoring_core::features::{
    thread_stats, thread_stats_at, thread_tokens, thread_tokens_at, FeatureExtractor,
};
use ewhoring_core::topcls::{
    annotation_sample, annotation_sample_at, heuristic_is_top, heuristic_is_top_at,
    ANNOTATION_SAMPLE,
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
