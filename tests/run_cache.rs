//! Journal-as-cache semantics of `core::pipeline::cache::RunCache`:
//! sequential reuse through the on-disk stage journal, single-flight
//! deduplication of concurrent identical requests, and run-key
//! isolation between different specs.

use ewhoring_core::pipeline::{
    snapshot_json, stream_world, EpochEngine, Pipeline, RunCache, RunSpec, TimingSource,
};
use std::path::PathBuf;
use std::sync::Arc;
use worldgen::World;

fn tiny(seed: u64) -> RunSpec {
    RunSpec {
        scale: 0.01,
        seed,
        workers: 1,
        faults: 0.0,
        corruption: 0.0,
        epochs: 0,
        upto: 0,
        shards: 0,
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ewhoring-runcache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The spec's report computed directly, without any cache or journal —
/// the ground truth a cached run must match byte-for-byte. A streamed
/// spec runs over its feed-normalized world.
fn direct_snapshot(spec: &RunSpec) -> String {
    let options = spec.options();
    let mut world = World::generate(spec.world_config());
    if let Some(stream) = options.stream {
        world = stream_world(world, stream);
    }
    let report = Pipeline::new(options).run(&world);
    snapshot_json(&report).expect("snapshot renders")
}

/// Batch, sharded and streamed specs alike: every run form journals
/// through the same stage loop, so each is served from the journal on
/// its second request.
#[test]
fn second_identical_run_is_served_entirely_from_the_journal() {
    let batch = tiny(0x5E0);
    let specs = [
        ("batch", batch),
        ("sharded", RunSpec { shards: 2, ..batch }),
        ("streamed", RunSpec { epochs: 3, ..batch }),
    ];
    for (tag, spec) in specs {
        let dir = tmp_dir(&format!("sequential-{tag}"));

        // First run: a fresh cache over an empty journal computes every
        // stage.
        let first = RunCache::with_journal(&dir)
            .get_or_compute(&spec)
            .expect("first run");
        assert!(first.fresh);
        assert!(
            first
                .report
                .timings
                .iter()
                .filter(|t| t.stage != "journal")
                .all(|t| t.source == TimingSource::Computed),
            "{tag}: a fresh journal computes every stage"
        );

        // Second run through a *new* cache (a restarted server, a later
        // batch invocation): every stage loads from the journal — 100%
        // `TimingSource::Journal` — and the snapshot is byte-identical,
        // to the computed run and to a direct journal-free run.
        let second = RunCache::with_journal(&dir)
            .get_or_compute(&spec)
            .expect("second run");
        assert!(
            second
                .report
                .timings
                .iter()
                .all(|t| t.source == TimingSource::Journal),
            "{tag}: expected every stage journal-loaded, got {:?}",
            second.report.timings
        );
        let served = snapshot_json(&second.report).expect("snapshot");
        assert_eq!(
            snapshot_json(&first.report).expect("snapshot"),
            served,
            "{tag}: journal-served report must match the computed one"
        );
        assert_eq!(served, direct_snapshot(&spec), "{tag}");

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn concurrent_identical_requests_compute_exactly_once() {
    let cache = Arc::new(RunCache::in_memory());
    let spec = tiny(0xC0C0);

    let runs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                scope.spawn(move || cache.get_or_compute(&spec).expect("run succeeds"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Single-flight: four racers, one pipeline execution.
    assert_eq!(cache.computed_runs(), 1);
    assert_eq!(runs.iter().filter(|r| r.fresh).count(), 1);
    // Everyone got the same shared report.
    for run in &runs[1..] {
        assert!(Arc::ptr_eq(&runs[0].report, &run.report));
    }
}

#[test]
fn different_seeds_get_distinct_keys_and_never_cross_contaminate() {
    let dir = tmp_dir("isolation");
    let a = tiny(0xAAAA);
    let b = tiny(0xBBBB);
    assert_ne!(a.run_key().unwrap(), b.run_key().unwrap());

    let cache = RunCache::with_journal(&dir);
    let run_a = cache.get_or_compute(&a).expect("run a");
    let run_b = cache.get_or_compute(&b).expect("run b");
    assert_eq!(cache.computed_runs(), 2, "distinct keys both compute");

    // Each cached report matches its own direct computation — serving
    // seed B never bled into seed A's artifacts (and vice versa).
    assert_eq!(
        snapshot_json(&run_a.report).expect("snapshot"),
        direct_snapshot(&a)
    );
    assert_eq!(
        snapshot_json(&run_b.report).expect("snapshot"),
        direct_snapshot(&b)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// An engine journals epoch `e` under the run key of the streamed spec
/// `{epochs, upto: e}`, so the engine and one-shot runs share records
/// both ways: a `run` of `{3, 2}` after an engine reached epoch 2 loads
/// every stage, and an engine over a `run`'s records resumes at epoch 2.
#[test]
fn engine_and_run_share_epoch_records() {
    let spec = RunSpec {
        epochs: 3,
        upto: 2,
        ..tiny(0x5A4E)
    };
    let engine_options = RunSpec { upto: 0, ..spec }.options();
    let engine = |dir: &PathBuf| {
        EpochEngine::with_journal(World::generate(spec.world_config()), 3, engine_options, dir)
            .expect("open journal")
            .0
    };

    let dir = tmp_dir("shared-engine-first");
    engine(&dir).advance_to(2).expect("advance to epoch 2");
    let served = RunCache::with_journal(&dir)
        .get_or_compute(&spec)
        .expect("run after the engine");
    assert!(
        served
            .report
            .timings
            .iter()
            .all(|t| t.source == TimingSource::Journal),
        "every stage of the run loads the engine's records, got {:?}",
        served.report.timings
    );
    assert_eq!(
        snapshot_json(&served.report).expect("snapshot"),
        direct_snapshot(&spec)
    );
    let _ = std::fs::remove_dir_all(&dir);

    let dir = tmp_dir("shared-run-first");
    RunCache::with_journal(&dir)
        .get_or_compute(&spec)
        .expect("run before the engine");
    let mut resumed = engine(&dir);
    assert_eq!(resumed.epoch(), 2, "the engine resumes at the run's epoch");
    let last = resumed.advance().expect("advance to the final epoch");
    assert_eq!(
        snapshot_json(&last).expect("snapshot"),
        direct_snapshot(&RunSpec { upto: 3, ..spec })
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A one-shot run of a later epoch shares the stream's records, but an
/// engine asked for an earlier epoch never resumes past it: after a
/// `run` of `{3, 3}`, an engine heading for epoch 2 starts at epoch 0
/// and advances; a second one resumes at epoch 2 and hands back that
/// epoch's report from the journal.
#[test]
fn engine_never_resumes_past_the_epoch_it_is_asked_for() {
    let spec = RunSpec {
        epochs: 3,
        upto: 2,
        ..tiny(0x5A4F)
    };
    let engine = |dir: &PathBuf| {
        EpochEngine::with_journal(World::generate(spec.world_config()), 3, spec.options(), dir)
            .expect("open journal")
    };
    let expected = direct_snapshot(&spec);

    let dir = tmp_dir("later-epoch-first");
    RunCache::with_journal(&dir)
        .get_or_compute(&RunSpec { upto: 3, ..spec })
        .expect("run of the final epoch");
    let (mut fresh, resumed) = engine(&dir);
    assert_eq!(fresh.epoch(), 0, "epoch 3's records are past the ceiling");
    assert!(resumed.is_none());
    let report = fresh
        .advance_to(2)
        .expect("advance to epoch 2")
        .expect("two epochs to run");
    assert_eq!(snapshot_json(&report).expect("snapshot"), expected);

    let (again, resumed) = engine(&dir);
    assert_eq!(again.epoch(), 2, "resumes at the requested epoch");
    let resumed = resumed.expect("the resumed epoch's report");
    assert!(
        resumed
            .timings
            .iter()
            .all(|t| t.source == TimingSource::Journal),
        "the resumed report loads every stage, got {:?}",
        resumed.timings
    );
    assert_eq!(snapshot_json(&resumed).expect("snapshot"), expected);
    let _ = std::fs::remove_dir_all(&dir);
}
