//! Kill-and-resume matrix for the checkpoint journal.
//!
//! For every stage boundary: run a prefix of the pipeline with a
//! journal, throw the process state away (only the journal files
//! survive, exactly like a crash at that boundary), resume from the
//! journal, and assert the final report is byte-identical to an
//! uninterrupted run — with fault injection *and* corruption injection
//! active, at both a serial and an awkward worker count. The serial
//! matrix also runs sharded, poisoned-shard and streamed specs: every
//! run form goes through the same journaled stage loop.

use ewhoring_core::pipeline::journal::run_key;
use ewhoring_core::pipeline::{
    stream_world, EpochCarry, EpochEngine, Journal, Pipeline, PipelineOptions, ShardPoison,
    StageCtx, StreamSpec, TimingSource,
};
use std::fs;
use std::path::{Path, PathBuf};
use worldgen::{World, WorldConfig};

/// The canonical snapshot: serialized report minus wall-clock timings
/// and the supervision counters (a resumed sharded run loads its survey
/// from the journal instead of dispatching shards; restarts are
/// scheduling events, not measurements).
fn snapshot(report: &ewhoring_core::PipelineReport) -> String {
    let json = serde_json::to_string(report).expect("json");
    let mut v: serde_json::Value = serde_json::from_str(&json).expect("parse");
    let obj = v.as_object_mut().expect("object");
    obj.remove("timings");
    obj.remove("supervision");
    v.to_string()
}

/// A fresh per-test temp dir (removed first, so reruns start clean).
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ewhoring-resume-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The single `run-<key>` subdir a journaled run creates under `base`.
fn run_subdir(base: &Path) -> PathBuf {
    fs::read_dir(base)
        .expect("read journal dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.is_dir())
        .expect("journal run dir exists")
}

/// Copies the first `k` stage records (filenames are `NN-stage.json`)
/// from a complete journal into a fresh journal dir — the on-disk state
/// a run killed after `k` stages leaves behind.
fn copy_prefix(full: &Path, dst_base: &Path, k: usize) {
    let src = run_subdir(full);
    let dst = dst_base.join(src.file_name().expect("run dir name"));
    fs::create_dir_all(&dst).expect("create run dir copy");
    for entry in fs::read_dir(&src)
        .expect("read run dir")
        .filter_map(Result::ok)
    {
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        let index: usize = match name.get(..2).and_then(|p| p.parse().ok()) {
            Some(i) => i,
            None => continue,
        };
        if index < k {
            fs::copy(entry.path(), dst.join(&name)).expect("copy stage record");
        }
    }
}

fn options(workers: usize) -> PipelineOptions {
    PipelineOptions {
        k_key_actors: 8,
        workers,
        fault_severity: 1.0,
        corruption_severity: 0.75,
        ..PipelineOptions::default()
    }
}

/// Journal-loaded stage rows in a report's timings (the bookkeeping
/// `journal` row excluded).
fn loaded_stages(report: &ewhoring_core::PipelineReport) -> usize {
    report
        .timings
        .iter()
        .filter(|t| t.stage != "journal" && t.source == TimingSource::Journal)
        .count()
}

/// The kill matrix's world: the world as generated, or the
/// feed-normalized world of a streamed spec (what every run of that
/// spec folds).
fn world_for(options: &PipelineOptions) -> World {
    let world = World::generate(WorldConfig::test_scale(0x4E5));
    match options.stream {
        Some(stream) => stream_world(world, stream),
        None => world,
    }
}

/// The `actors` carry a run ends with, serialized: the fold state behind
/// Tables 7–10, including counters no artifact shows.
fn actors_carry(ctx: &StageCtx<'_>) -> String {
    let carry = ctx.carry.as_ref().expect("stages keep the carry");
    serde_json::to_string(&carry.actors).expect("carry serializes")
}

fn kill_matrix(options: PipelineOptions, tag: &str) {
    let workers = options.workers;
    let world = world_for(&options);
    let pipe = Pipeline::new(options);
    let n_stages = Pipeline::stages().len();

    // Uninterrupted, journal-free run: the reference every resumed run
    // must reproduce byte-for-byte.
    let ctx = pipe
        .run_prefix(&world, usize::MAX)
        .expect("uninterrupted run");
    let reference_carry = actors_carry(&ctx);
    let uninterrupted = ctx.into_report().expect("uninterrupted report");
    assert_eq!(
        uninterrupted.supervision.shards_quarantined,
        usize::from(options.poison.is_some()),
        "a poisoned spec degrades by exactly its one shard ({tag})"
    );
    let reference = snapshot(&uninterrupted);

    // A full journaled run both checks the journaling path itself and
    // produces the complete journal the kill matrix slices prefixes of.
    let full_dir = temp_dir(&format!("{tag}-full"));
    let full = pipe
        .run_resumable(&world, &full_dir)
        .expect("journaled run");
    assert_eq!(
        snapshot(&full).as_bytes(),
        reference.as_bytes(),
        "journaling a run must not change its report"
    );
    assert_eq!(loaded_stages(&full), 0, "first run computes every stage");

    for k in 0..=n_stages {
        let dir = temp_dir(&format!("{tag}-k{k}"));
        copy_prefix(&full_dir, &dir, k);
        let ctx = pipe
            .run_prefix_resumable(&world, usize::MAX, &dir)
            .expect("resume from prefix");
        // Where `actors` recomputes, it must fold exactly the carry the
        // uninterrupted run folds. An actor posts only in its own
        // forum, so a lost shard's refolded posts would move only
        // counters of actors without eWhoring posts, which no artifact
        // reports: the carry is the place they show.
        if k < n_stages {
            assert_eq!(
                actors_carry(&ctx),
                reference_carry,
                "resume after {k} journaled stage(s) folded another `actors` carry ({tag})"
            );
        }
        let resumed = ctx.into_report().expect("resumed report");
        assert_eq!(
            snapshot(&resumed).as_bytes(),
            reference.as_bytes(),
            "resume after {k} journaled stage(s) diverged ({tag}, workers={workers})"
        );
        assert_eq!(
            loaded_stages(&resumed),
            k,
            "exactly the journaled prefix must load, the rest recompute"
        );
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&full_dir);
}

/// Batch, sharded, poisoned-shard and streamed specs. The poisoned
/// spec loses shard 1's forums to quarantine, so its journaled
/// `extract` record must carry the survey's pre-folded `actors` carry:
/// a resume that refolded the whole corpus would fold the lost forums'
/// posts back in.
#[test]
fn kill_and_resume_at_every_boundary_serial() {
    kill_matrix(options(1), "w1");
    kill_matrix(
        PipelineOptions {
            shards: 2,
            ..options(1)
        },
        "w1-shards2",
    );
    kill_matrix(
        PipelineOptions {
            shards: 3,
            poison: Some(ShardPoison {
                shard: 1,
                panics: 0,
                severity: 1.0,
            }),
            ..options(1)
        },
        "w1-poisoned",
    );
    kill_matrix(
        PipelineOptions {
            stream: Some(StreamSpec { epochs: 3, upto: 3 }),
            ..options(1)
        },
        "w1-epochs3",
    );
}

#[test]
fn kill_and_resume_at_every_boundary_awkward_workers() {
    kill_matrix(options(7), "w7");
}

/// A tampered journal record must be rejected — and rejection means
/// recomputation, so the final report is still byte-identical.
#[test]
fn tampered_journal_recomputes_instead_of_trusting() {
    let world = World::generate(WorldConfig::test_scale(0x4E5));
    let pipe = Pipeline::new(options(1));

    let dir = temp_dir("tamper");
    let clean = pipe.run_resumable(&world, &dir).expect("journaled run");
    let reference = snapshot(&clean);

    // Flip bytes inside the third stage's payload.
    let run_dir = run_subdir(&dir);
    let victim = fs::read_dir(&run_dir)
        .expect("read run dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .map(|n| n.to_string_lossy().starts_with("02-"))
                .unwrap_or(false)
        })
        .expect("third stage record exists");
    let tampered = fs::read_to_string(&victim)
        .expect("read record")
        .replace(['3', '7'], "1");
    fs::write(&victim, tampered).expect("write tampered record");

    let resumed = pipe.run_resumable(&world, &dir).expect("resume");
    assert_eq!(
        snapshot(&resumed).as_bytes(),
        reference.as_bytes(),
        "a rejected record must fall back to recomputation, not corrupt the report"
    );
    // Only the intact prefix (stages 0 and 1) may be trusted.
    assert_eq!(loaded_stages(&resumed), 2);
    let _ = fs::remove_dir_all(&dir);
}

/// Timing provenance: a fully-journaled resume marks every stage row
/// `journal` (plus the overhead row); a plain run is all `computed`
/// with no journal row at all.
#[test]
fn timing_sources_separate_journal_loads_from_compute() {
    let world = World::generate(WorldConfig::test_scale(0x4E5));
    let pipe = Pipeline::new(options(1));
    let n_stages = Pipeline::stages().len();

    let plain = pipe.run(&world);
    assert!(plain
        .timings
        .iter()
        .all(|t| t.source == TimingSource::Computed));
    assert!(plain.timings.iter().all(|t| t.stage != "journal"));

    let dir = temp_dir("sources");
    let first = pipe.run_resumable(&world, &dir).expect("journaled run");
    assert_eq!(loaded_stages(&first), 0);
    let resumed = pipe.run_resumable(&world, &dir).expect("warm resume");
    assert_eq!(loaded_stages(&resumed), n_stages);
    assert!(
        resumed.timings.iter().any(|t| t.stage == "journal"),
        "journal overhead gets its own timing row"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Every carry field survives its stage record: a run whose nine
/// stages all load from the journal ends with the carry the journaling
/// run computed — whole in its serialized form (hashed collections
/// render sorted), and by value field by field, so a field the
/// serialized form left out would show too. The run injects faults and
/// heavy corruption, so every field this checks is non-empty.
#[test]
fn carry_round_trips_through_stage_records() {
    let world = World::generate(WorldConfig::test_scale(0x4E5));
    let options = PipelineOptions {
        corruption_severity: 3.0,
        ..options(1)
    };
    let dir = temp_dir("carry");
    let journal = Journal::open(&dir, &world.config, &options).expect("open journal");
    let run = |what| {
        Pipeline::new(options)
            .run_with_carry(&world, EpochCarry::default(), Some(&journal))
            .expect(what)
    };
    let (computed, was) = run("journaling run");
    assert_eq!(loaded_stages(&computed), 0);
    let (loaded, carry) = run("loading run");
    assert_eq!(loaded_stages(&loaded), Pipeline::stages().len());
    assert_eq!(
        serde_json::to_string(&carry).expect("carry serializes"),
        serde_json::to_string(&was).expect("carry serializes")
    );

    assert!(was.topcls.epoch > 0 && !was.topcls.decisions.is_empty());
    assert_eq!(carry.topcls.epoch, was.topcls.epoch);
    assert_eq!(carry.topcls.decisions, was.topcls.decisions);
    assert!(carry.topcls.model.is_some());
    assert!(!was.measure.memo.is_empty());
    assert_eq!(carry.measure.memo.len(), was.measure.memo.len());
    assert!(carry.nsfv.is_some());
    let (finance, f) = (&carry.finance, &was.finance);
    assert!(f.cursor > 0 && f.thread_cursor > 0 && f.agg_cursor > 0);
    assert_eq!(
        (finance.cursor, finance.thread_cursor, finance.agg_cursor),
        (f.cursor, f.thread_cursor, f.agg_cursor)
    );
    assert!(!f.whiteset.is_empty() && !f.seen_urls.is_empty());
    assert_eq!(finance.whiteset, f.whiteset);
    assert_eq!(finance.seen_urls, f.seen_urls);
    assert!(!f.quarantined.is_empty() && !f.harvest.proofs.is_empty());
    assert_eq!(finance.quarantined, f.quarantined);
    assert_eq!(finance.harvest.proofs.len(), f.harvest.proofs.len());
    assert_eq!(finance.agg.per_actor, f.agg.per_actor);
    assert_eq!(finance.agg.monthly, f.agg.monthly);
    assert!(!was.provenance.memo.is_empty());
    assert_eq!(carry.provenance.memo.len(), was.provenance.memo.len());
    let (actors, a) = (&carry.actors, &was.actors);
    assert!(a.epoch > 0 && a.cursor > 0 && a.graph.edge_count() > 0);
    assert!(!a.ce_threads.is_empty());
    assert_eq!((actors.epoch, actors.cursor), (a.epoch, a.cursor));
    assert_eq!(actors.graph.edge_count(), a.graph.edge_count());
    assert_eq!(actors.influence, a.influence);
    assert_eq!(actors.fold.ew_posts, a.fold.ew_posts);
    assert_eq!(actors.fold.first_ew, a.fold.first_ew);
    assert_eq!(actors.fold.last_post, a.fold.last_post);
    assert_eq!(
        (actors.ce_cursor, &actors.ce_threads),
        (a.ce_cursor, &a.ce_threads)
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Kill-and-resume at an epoch boundary: advance a journaled epoch
/// engine partway, drop it (only the checkpoint files survive, exactly
/// like a crash between epochs), rebuild from the same journal dir, and
/// finish. The resumed engine must pick up at the journaled epoch —
/// not epoch 0 — and the final report must be byte-identical to an
/// uninterrupted engine's, which in turn equals the full recompute.
#[test]
fn epoch_engine_resumes_from_journaled_boundary() {
    let dir = temp_dir("epoch");
    let options = PipelineOptions {
        k_key_actors: 12,
        ..PipelineOptions::default()
    };
    let epochs = 3;
    let world = || World::generate(WorldConfig::test_scale(0x3E50));

    // Uninterrupted reference.
    let mut straight = EpochEngine::new(world(), epochs, options);
    let reference = snapshot(
        &straight
            .advance_to(epochs)
            .expect("straight run")
            .expect("at least one epoch"),
    );

    // Crash after epoch 2: the engine is dropped mid-stream.
    {
        let (mut engine, resumed) =
            EpochEngine::with_journal(world(), epochs, options, &dir).expect("open journal");
        assert_eq!(engine.epoch(), 0, "fresh journal starts at epoch 0");
        assert!(resumed.is_none(), "nothing to resume");
        engine.advance_to(2).expect("advance to epoch 2");
    }

    // Resume: the journal alone restores epoch 2's world and carry.
    let (mut resumed, _) =
        EpochEngine::with_journal(world(), epochs, options, &dir).expect("reopen journal");
    assert_eq!(resumed.epoch(), 2, "resumes at the journaled epoch");
    let report = resumed
        .advance_to(epochs)
        .expect("finish resumed run")
        .expect("one epoch left");
    assert_eq!(
        snapshot(&report).as_bytes(),
        reference.as_bytes(),
        "resumed final report diverged from the uninterrupted run"
    );

    let _ = fs::remove_dir_all(&dir);
}

/// The same boundary-kill drill with fault and corruption injection
/// active: every epoch checkpoint must persist the epoch's quarantine
/// ledger and stage-health section (not journal empty placeholders), so
/// a resumed engine tells the same data-quality story as an unkilled
/// one — and the final report is still byte-identical.
#[test]
fn epoch_engine_resume_preserves_quarantine_across_kill() {
    let dir = temp_dir("epoch-corrupt");
    let opts = options(2); // fault_severity 1.0, corruption_severity 0.75
    let epochs = 3;
    let world = || World::generate(WorldConfig::test_scale(0x3E50));

    // Uninterrupted reference — and proof the corruption plan actually
    // quarantined records, or the persistence claim goes untested.
    let mut straight = EpochEngine::new(world(), epochs, opts);
    let reference_report = straight
        .advance_to(epochs)
        .expect("straight run")
        .expect("at least one epoch");
    assert!(
        !reference_report.quarantine.entries().is_empty(),
        "corruption severity 0.75 must quarantine records at this scale"
    );
    let reference = snapshot(&reference_report);

    // Crash after epoch 2, mid-corruption: only the checkpoints survive.
    {
        let (mut engine, _) =
            EpochEngine::with_journal(world(), epochs, opts, &dir).expect("open journal");
        engine.advance_to(2).expect("advance to epoch 2");
    }

    // Epoch 2's stage records — under the run key of the streamed spec
    // `{3, 2}` — carry the ledger and the health rows between them, not
    // `quarantined: []` placeholders.
    let epoch2 = PipelineOptions {
        stream: Some(StreamSpec { epochs, upto: 2 }),
        ..opts
    };
    let key = run_key(&WorldConfig::test_scale(0x3E50), &epoch2).expect("run key");
    let records: Vec<serde_json::Value> = fs::read_dir(dir.join(format!("run-{key}")))
        .expect("epoch-2 run dir exists")
        .filter_map(Result::ok)
        .map(|e| {
            // The on-disk file is a checksummed envelope; the stage
            // record is its embedded `payload` string.
            let envelope: serde_json::Value =
                serde_json::from_str(&fs::read_to_string(e.path()).expect("read record"))
                    .expect("checkpoint envelope parses");
            let payload = envelope
                .as_object()
                .and_then(|o| o.get("payload"))
                .and_then(|p| p.as_str())
                .expect("envelope embeds the record payload");
            serde_json::from_str(payload).expect("stage record parses")
        })
        .collect();
    assert_eq!(
        records.len(),
        Pipeline::stages().len(),
        "one record per stage"
    );
    let field = |record: &serde_json::Value, name: &str| {
        record
            .as_object()
            .and_then(|o| o.get(name))
            .and_then(|v| v.as_array())
            .map(Vec::len)
    };
    let quarantined: usize = records
        .iter()
        .map(|r| field(r, "quarantined").expect("every record has a ledger slice"))
        .sum();
    assert!(
        quarantined > 0,
        "epoch 2's stage records must persist the epoch's quarantine ledger"
    );
    assert!(
        records.iter().all(|r| field(r, "health").is_some()),
        "every stage record must carry its stage-health events"
    );

    // Resume and finish: byte-identical report, quarantine included
    // (the snapshot serializes the ledger and health sections).
    let (mut resumed, _) =
        EpochEngine::with_journal(world(), epochs, opts, &dir).expect("reopen journal");
    assert_eq!(resumed.epoch(), 2, "resumes at the journaled epoch");
    let report = resumed
        .advance_to(epochs)
        .expect("finish resumed run")
        .expect("one epoch left");
    assert_eq!(
        snapshot(&report).as_bytes(),
        reference.as_bytes(),
        "resumed report (quarantine and health included) diverged from the unkilled run"
    );

    let _ = fs::remove_dir_all(&dir);
}

/// Kill mid-epoch: a one-shot run of the streamed spec `{3, 2}` stops
/// after `k` stages, for every `k` short of the whole graph. An engine
/// over the same journal then advances through epoch 2 — the run key it
/// journals epoch 2 under is that spec's, so it loads exactly those `k`
/// stages and computes the rest on its warm carry — and its final report
/// is byte-identical to an uninterrupted engine's.
#[test]
fn epoch_engine_resumes_a_run_killed_mid_epoch() {
    let options = options(1);
    let epochs = 3;
    let at2 = StreamSpec { epochs, upto: 2 };
    let world = World::generate(WorldConfig::test_scale(0x3E51));
    let reference = snapshot(
        &EpochEngine::new(world.clone(), epochs, options)
            .advance_to(epochs)
            .expect("straight run")
            .expect("at least one epoch"),
    );
    let world_at2 = stream_world(world.clone(), at2);
    let killed = Pipeline::new(PipelineOptions {
        stream: Some(at2),
        ..options
    });
    for k in 1..Pipeline::stages().len() {
        let dir = temp_dir(&format!("mid-epoch-k{k}"));
        killed
            .run_prefix_resumable(&world_at2, k, &dir)
            .expect("killed run");
        let (mut engine, _) =
            EpochEngine::with_journal(world.clone(), epochs, options, &dir).expect("open journal");
        assert_eq!(engine.epoch(), 0, "no epoch ran to its end");
        engine.advance().expect("epoch 1");
        let epoch2 = engine.advance().expect("epoch 2");
        assert_eq!(
            loaded_stages(&epoch2),
            k,
            "epoch 2 loads the killed run's {k} stage(s)"
        );
        let report = engine
            .advance_to(epochs)
            .expect("epoch 3")
            .expect("one epoch left");
        assert_eq!(
            snapshot(&report).as_bytes(),
            reference.as_bytes(),
            "stream killed after {k} stage(s) of epoch 2 diverged"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
