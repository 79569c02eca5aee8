//! Reproducibility: the entire measurement — world generation plus all
//! eight pipeline stages — must be a pure function of the seed.

/// Serializes a report with the scheduling-dependent fields (wall-clock
/// stage timings, shard supervision counters) stripped — the canonical
/// snapshot form.
fn report_snapshot(report: &ewhoring_core::PipelineReport) -> String {
    let json = serde_json::to_string(report).expect("json");
    let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
    v.as_object_mut().unwrap().remove("timings");
    v.as_object_mut().unwrap().remove("supervision");
    v.to_string()
}

#[test]
fn same_seed_same_report_json() {
    let run = || {
        let world = ewhoring_suite::demo_world(0xD37);
        let report = ewhoring_suite::demo_pipeline(&world);
        report_snapshot(&report)
    };
    assert_eq!(run(), run());
}

/// Byte-level snapshot determinism: two runs over the same seed must
/// produce *byte-identical* serialized reports (not just equal field
/// values), so a snapshot taken before a refactor can be compared
/// byte-for-byte against one taken after.
#[test]
fn serialized_report_snapshot_is_byte_identical() {
    let world = ewhoring_suite::demo_world(0xD37);
    let a = report_snapshot(&ewhoring_suite::demo_pipeline(&world));
    let b = report_snapshot(&ewhoring_suite::demo_pipeline(&world));
    assert_eq!(a.as_bytes(), b.as_bytes());
    // The snapshot covers every per-section artefact the paper reports.
    for key in [
        "\"forums\"",
        "\"funnel\"",
        "\"safety\"",
        "\"provenance\"",
        "\"earnings\"",
        "\"key_actors\"",
    ] {
        assert!(a.contains(key), "snapshot misses section {key}");
    }
}

/// The worker-matrix contract behind `core::par`: the pipeline report is
/// a pure function of the seed, *not* of the worker count. Every
/// data-parallel stage reassembles its results in input order (and the
/// centrality gather is bit-identical to the serial sweep), so the
/// stripped-timings snapshot must match byte-for-byte across worker
/// counts — including one that divides nothing evenly.
#[test]
fn report_is_byte_identical_across_worker_counts() {
    use ewhoring_core::pipeline::{Pipeline, PipelineOptions};

    let world = ewhoring_suite::demo_world(0xD37);
    let run = |workers: usize| {
        let report = Pipeline::new(PipelineOptions {
            k_key_actors: 12,
            workers,
            ..PipelineOptions::default()
        })
        .run(&world);
        report_snapshot(&report)
    };
    let reference = run(1);
    for workers in [2, 7] {
        assert_eq!(
            run(workers).as_bytes(),
            reference.as_bytes(),
            "workers={workers} diverged from the serial report"
        );
    }
}

/// The merge-coordinator contract behind `core::pipeline::shard`: a
/// supervised sharded run must produce a report byte-identical to the
/// unsharded driver at *every* shard count — including `1` (pure
/// supervision overhead), counts that divide the forum list unevenly,
/// and counts exceeding it — and at every worker count inside each
/// shard, with and without fault and corruption plans. Extraction and
/// its corruption filter are per-forum independent, and the partial
/// `actors` carries merge order-insensitively into the sorted,
/// integer-weighted graph and counters the unsharded fold builds, so
/// nothing may move.
#[test]
fn sharded_run_is_byte_identical_to_the_unsharded_driver() {
    use ewhoring_core::pipeline::{Pipeline, PipelineOptions};

    let world = ewhoring_suite::demo_world(0xD37);
    for severity in [0.0, 1.0] {
        let run = |shards: usize, workers: usize| {
            let report = Pipeline::new(PipelineOptions {
                k_key_actors: 12,
                workers,
                shards,
                fault_severity: severity,
                corruption_severity: severity,
                ..PipelineOptions::default()
            })
            .run(&world);
            report_snapshot(&report)
        };
        let reference = run(0, 1);
        assert_eq!(
            reference.contains("\"thread/"),
            severity > 0.0,
            "the corruption plan quarantines extracted rows exactly when enabled"
        );
        for shards in [1, 2, 5] {
            for workers in [1, 2, 7] {
                assert_eq!(
                    run(shards, workers).as_bytes(),
                    reference.as_bytes(),
                    "severity={severity} shards={shards} workers={workers} \
                     diverged from the unsharded report"
                );
            }
        }
    }
}

/// A run driven one stage at a time through the public surface
/// (`StageCtx::new` + `Stage::run`, no retry or timing driver) must
/// produce the snapshot `Pipeline::run` produces, byte for byte: both
/// fold the world as generated into the fresh carry `StageCtx::new`
/// creates.
#[test]
fn stage_by_stage_run_is_byte_identical_to_pipeline_run() {
    use ewhoring_core::pipeline::{snapshot_json, Pipeline, PipelineOptions, StageCtx};

    let world = ewhoring_suite::demo_world(0xD37);
    let options = PipelineOptions {
        k_key_actors: 12,
        workers: 2,
        ..PipelineOptions::default()
    };
    let mut ctx = StageCtx::new(&world, options);
    for stage in Pipeline::stages() {
        stage
            .run(&mut ctx)
            .unwrap_or_else(|e| panic!("stage {}: {e}", stage.name()));
    }
    let staged = snapshot_json(&ctx.into_report().expect("every artifact")).expect("renders");
    let driven = snapshot_json(&Pipeline::new(options).run(&world)).expect("renders");
    assert_eq!(staged.as_bytes(), driven.as_bytes());
}

#[test]
fn different_seeds_differ() {
    let w1 = ewhoring_suite::demo_world(1);
    let w2 = ewhoring_suite::demo_world(2);
    assert_ne!(w1.corpus.posts().len(), w2.corpus.posts().len());
    assert_ne!(w1.index.len(), w2.index.len());
}

#[test]
fn world_regeneration_is_stable_across_calls() {
    let a = ewhoring_suite::demo_world(99);
    let b = ewhoring_suite::demo_world(99);
    assert_eq!(a.corpus.posts().len(), b.corpus.posts().len());
    assert_eq!(a.web.len(), b.web.len());
    assert_eq!(a.truth.proof_info.len(), b.truth.proof_info.len());
    // Spot-check deep content equality.
    assert_eq!(
        a.corpus.threads()[17].heading,
        b.corpus.threads()[17].heading
    );
    let url_a: std::collections::BTreeSet<String> = a.web.urls().map(|u| u.to_https()).collect();
    let url_b: std::collections::BTreeSet<String> = b.web.urls().map(|u| u.to_https()).collect();
    assert_eq!(url_a, url_b);
}

/// The epoch-equivalence gate behind `core::pipeline::epoch`: after each
/// warm advance (delta-only topcls decisions, memoised measures, graph
/// append + warm-started centrality, finance fold), the report must be
/// byte-identical to a full recompute at that epoch — the same stream
/// code path run with a fresh carry over the same world — at every
/// epoch boundary and across worker counts.
#[test]
fn epoch_advance_is_byte_identical_to_full_recompute() {
    use ewhoring_core::pipeline::{EpochEngine, Pipeline, PipelineOptions};
    use worldgen::{World, WorldConfig};

    for workers in [1, 7] {
        let options = PipelineOptions {
            k_key_actors: 12,
            workers,
            ..PipelineOptions::default()
        };
        let world = World::generate(WorldConfig::test_scale(0xE70C));
        let mut engine = EpochEngine::new(world, 3, options);
        while engine.epoch() < engine.epochs() {
            let warm = engine.advance().expect("advance");
            let fresh = engine.fresh_report().expect("fresh recompute");
            assert_eq!(
                report_snapshot(&warm).as_bytes(),
                report_snapshot(&fresh).as_bytes(),
                "epoch {} diverged at workers={workers}",
                engine.epoch()
            );
            if engine.epoch() == engine.epochs() {
                // The final epoch's fresh-carry recompute is itself what
                // `Pipeline::run` produces for the same stream options.
                let batch = Pipeline::new(ewhoring_core::pipeline::PipelineOptions {
                    stream: Some(ewhoring_core::pipeline::StreamSpec {
                        epochs: engine.epochs(),
                        upto: engine.epoch(),
                    }),
                    ..options
                })
                .run(engine.world());
                assert_eq!(
                    report_snapshot(&warm).as_bytes(),
                    report_snapshot(&batch).as_bytes(),
                    "plain run() with stream options diverged at workers={workers}"
                );
            }
        }
    }
}
