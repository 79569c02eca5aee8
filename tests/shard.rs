//! Supervised shard execution observed through the public pipeline
//! surface: restart recovery must be invisible in the report, and a
//! shard that exhausts its restart budget must degrade into the
//! quarantine ledger and pipeline-health section — deterministically —
//! instead of failing the run.

use ewhoring_core::pipeline::{
    snapshot_json, Pipeline, PipelineOptions, RecordErrorKind, ShardPoison, StageStatus,
};

fn snapshot(report: &ewhoring_core::PipelineReport) -> String {
    snapshot_json(report).expect("snapshot renders")
}

fn options(shards: usize, workers: usize, poison: Option<ShardPoison>) -> PipelineOptions {
    PipelineOptions {
        k_key_actors: 12,
        workers,
        shards,
        poison,
        ..PipelineOptions::default()
    }
}

/// A shard that panics within its restart budget is restarted and the
/// run's artifacts are byte-identical to the unsharded driver — the
/// only trace is the supervision counters, which the snapshot strips.
#[test]
fn restarted_shard_leaves_no_trace_in_the_report() {
    let world = ewhoring_suite::demo_world(0x5AD);
    let clean = Pipeline::new(options(0, 1, None)).run(&world);
    // Two panics, budget of two restarts: attempt 2 succeeds.
    let poison = ShardPoison {
        shard: 1,
        panics: 2,
        severity: 0.0,
    };
    let recovered = Pipeline::new(options(3, 1, Some(poison))).run(&world);
    assert_eq!(
        snapshot(&recovered).as_bytes(),
        snapshot(&clean).as_bytes(),
        "a recovered shard must not change the report"
    );
    let s = recovered.supervision;
    assert_eq!(
        s.shards_run, 3,
        "3 shards through 1 supervised survey round"
    );
    assert_eq!(s.shards_restarted, 1, "only the poisoned shard restarted");
    assert_eq!(s.shards_quarantined, 0);
    assert!(
        recovered
            .quarantine
            .entries()
            .iter()
            .all(|e| e.stage != "shard"),
        "recovery must not reach the quarantine ledger"
    );
}

/// A shard whose every attempt fails (severity >= 1.0) exhausts the
/// restart budget and is quarantined: the run still completes, the
/// lost partition is named in the quarantine ledger, the health
/// section records a `Degraded` event, and the whole degraded report
/// is byte-identical across worker counts.
#[test]
fn budget_exhausted_shard_degrades_deterministically() {
    let world = ewhoring_suite::demo_world(0x5AD);
    let poison = ShardPoison {
        shard: 1,
        panics: 0,
        severity: 1.0,
    };
    let run = |workers: usize| Pipeline::new(options(4, workers, Some(poison))).run(&world);
    let degraded = run(1);

    // The run completed and the ledger names the lost partition.
    let entry = degraded
        .quarantine
        .entries()
        .iter()
        .find(|e| e.stage == "shard")
        .expect("quarantine ledger carries the lost shard");
    assert_eq!(entry.record, "shard/1");
    assert_eq!(entry.kind, RecordErrorKind::ShardFailure);

    // The pipeline-health section records the degradation, including
    // the consumed attempt budget (max_restarts 2 => 3 attempts).
    let health = degraded
        .health
        .iter()
        .find(|h| h.stage == "shard")
        .expect("health section carries the shard event");
    assert_eq!(health.status, StageStatus::Degraded);
    assert!(
        health.detail.contains("after 3 attempts"),
        "detail names the spent budget: {}",
        health.detail
    );

    let s = degraded.supervision;
    assert_eq!(s.shards_quarantined, 1);
    assert_eq!(
        s.shards_run, 4,
        "4 shards through 1 supervised survey round"
    );

    // Degradation is real: the lost partition's forums are missing, so
    // the report differs from a clean run…
    let clean = Pipeline::new(options(0, 1, None)).run(&world);
    assert_ne!(
        snapshot(&degraded),
        snapshot(&clean),
        "a quarantined shard must actually drop its partition"
    );
    // …but deterministically so: the degraded report is byte-identical
    // across worker counts.
    assert_eq!(
        snapshot(&degraded).as_bytes(),
        snapshot(&run(7)).as_bytes(),
        "degraded report diverged across worker counts"
    );
}
