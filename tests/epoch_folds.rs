//! The flat-advance carry folds reproduce the batch artifacts exactly.
//!
//! `EpochEngine::advance` assembles the earnings analysis, the cohort
//! table, and the Currency Exchange marginals from carried counters
//! (`EarningsAgg`, and the `actors` carry's `ActorFold` and CE-thread
//! ledger) folded over only each epoch's delta slice. These tests pin
//! the other end of that contract: the folded artifacts must serialize
//! byte-for-byte equal to a direct batch recomputation over the final
//! streamed world, across worker counts and epoch counts — including
//! epochs=1, where the "fold" is a single slice covering the whole
//! timeline.

use ewhoring_core::actors::{actor_metrics, cohort_table};
use ewhoring_core::extract::extract_ewhoring_threads;
use ewhoring_core::finance::{analyse_currency_exchange, analyse_earnings};
use ewhoring_core::pipeline::{
    snapshot_json, stream_world, EpochEngine, PipelineOptions, RunSpec, StageStatus, StreamSpec,
};
use worldgen::{World, WorldConfig};

const SEED: u64 = 0xF01D;

/// Serializes an artifact for byte-level comparison. A macro rather
/// than a generic helper: the suite crate depends on `serde_json` but
/// not on `serde` itself, so the `Serialize` bound isn't nameable here.
macro_rules! json {
    ($artifact:expr) => {
        serde_json::to_string($artifact).expect("artifact serializes")
    };
}

#[test]
fn folded_artifacts_match_batch_recomputation_across_matrix() {
    for epochs in [1u32, 3, 6] {
        // Batch reference: re-derive the final streamed world directly
        // (the feed re-assigns chronological ids, so the raw generated
        // world would be id-shifted) and recompute each artifact the
        // non-stream way. Worker-independent, so computed once per
        // epoch count.
        let final_world = stream_world(
            World::generate(WorldConfig::test_scale(SEED)),
            StreamSpec {
                epochs,
                upto: epochs,
            },
        );
        let threads = extract_ewhoring_threads(&final_world.corpus).all_threads();
        let batch_cohorts = json!(&cohort_table(
            &actor_metrics(&final_world.corpus, &threads,)
        ));
        let batch_currency = json!(&analyse_currency_exchange(
            &final_world.corpus,
            final_world.hackforums,
            &threads,
        ));

        for workers in [1usize, 2, 7] {
            let options = PipelineOptions {
                workers,
                ..PipelineOptions::default()
            };
            let world = World::generate(WorldConfig::test_scale(SEED));
            let mut engine = EpochEngine::new(world, epochs, options);
            let report = engine
                .advance_to(epochs)
                .expect("advance")
                .expect("final epoch yields a report");
            let ctx = format!("workers={workers} epochs={epochs}");

            // Folded EarningsAgg vs one-shot analysis over the same
            // harvested proof list.
            assert!(report.earnings.actors > 0, "{ctx}: no earners");
            assert_eq!(
                json!(&report.earnings),
                json!(&analyse_earnings(&report.harvest)),
                "{ctx}: folded earnings diverged from analyse_earnings"
            );

            // Carried ActorFold counters vs batch actor_metrics.
            assert!(!report.cohorts.is_empty(), "{ctx}: empty cohort table");
            assert_eq!(
                json!(&report.cohorts),
                batch_cohorts,
                "{ctx}: folded cohorts diverged from batch actor_metrics"
            );

            // CE-thread ledger + per-actor tallies vs the batch Table 7
            // scan.
            assert_eq!(
                json!(&report.currency),
                batch_currency,
                "{ctx}: folded CE marginals diverged from batch scan"
            );
        }
    }
}

/// A world whose first epoch holds a single, lexicon-promising eWhoring
/// thread: the annotation draw over it is empty, so the classifier
/// cannot be trained at the first boundary. The stream must not panic:
/// the model trains at the first epoch with an annotation sample, the
/// threads before it are decided by the heuristic alone, and every warm
/// advance still equals the fresh recompute byte for byte.
#[test]
fn stream_without_an_annotatable_first_epoch_trains_later() {
    let spec = RunSpec {
        scale: 0.05,
        seed: 1446698121926109755,
        workers: 2,
        epochs: 20,
        ..RunSpec::default()
    };
    let world = World::generate(spec.world_config());
    let mut engine = EpochEngine::new(world, spec.epochs, spec.options());
    for upto in [1u32, 2, 20] {
        let warm = engine
            .advance_to(upto)
            .expect("advance")
            .expect("advances to a later epoch");
        let fresh = engine.fresh_report().expect("fresh recompute");
        assert_eq!(
            snapshot_json(&warm).unwrap(),
            snapshot_json(&fresh).unwrap(),
            "upto {upto}: warm advance diverged from the fresh recompute"
        );
        let untrained = warm
            .health
            .iter()
            .filter(|h| h.stage == "top_classifier" && h.status == StageStatus::Degraded)
            .count();
        let trained = engine.carry().topcls.model.is_some();
        if upto == 1 {
            assert!(!trained, "nothing to annotate at epoch 1");
            assert_eq!(untrained, 1, "epoch 1 reports the untrained classifier");
            assert_eq!(warm.topcls.hybrid_metrics, Default::default());
        } else {
            assert!(trained, "upto {upto}: the classifier is trained");
            assert_eq!(untrained, 0, "upto {upto}: a trained run is clean");
        }
    }
}
