//! Journal-as-cache semantics of `core::pipeline::cache::RunCache`:
//! sequential reuse through the on-disk stage journal, single-flight
//! deduplication of concurrent identical requests, and run-key
//! isolation between different specs.

use ewhoring_core::pipeline::{
    snapshot_json, stream_world, Pipeline, RunCache, RunSpec, TimingSource,
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
