//! The batch `report` and `bench` subcommands (the binary's original
//! job): generate a world, run the pipeline once, print the paper
//! report, and optionally write JSON artifacts.

use crate::cli::{BenchArgs, ReportArgs};
use ewhoring_core::pipeline::{
    snapshot_json, stream_world, EpochEngine, Journal, Pipeline, PipelineOptions, PipelineReport,
    RunSpec, StageCtx, StageTiming, TimingSource,
};
use ewhoring_core::report::full_report;
use std::time::Instant;
use worldgen::World;

/// One full run through the fallible stage loop, its error rendered.
fn run_all(pipe: &Pipeline, world: &World) -> Result<PipelineReport, String> {
    pipe.run_prefix(world, usize::MAX)
        .and_then(StageCtx::into_report)
        .map_err(|e| format!("pipeline run: {e}"))
}

fn generate_world(spec: &RunSpec) -> World {
    let config = spec.world_config();
    eprintln!(
        "generating world: scale {}, seed {:#x} …",
        spec.scale, spec.seed
    );
    let t = Instant::now();
    let world = World::generate(config);
    eprintln!(
        "world ready in {:.1?}: {} posts, {} threads, {} actors, {} hosted objects, {} indexed images",
        t.elapsed(),
        world.corpus.posts().len(),
        world.corpus.threads().len(),
        world.corpus.actors().len(),
        world.web.len(),
        world.index.len(),
    );
    world
}

/// Runs one batch report invocation. Every runtime failure is a
/// rendered error string for the dispatcher to print and exit on.
pub fn main(args: &ReportArgs) -> Result<(), String> {
    let spec = args.spec;
    let t = Instant::now();
    let world = generate_world(&spec);
    let generate_us = t.elapsed().as_micros();
    let options = PipelineOptions {
        poison: args.poison,
        ..spec.options()
    };
    // Outside the epoch engine a streamed spec runs over the
    // feed-normalized world — the ids and order the engine sees, so its
    // output is byte-comparable with `--incremental` and serve `advance`
    // snapshots.
    let world = match options.stream {
        Some(stream) if !args.incremental => stream_world(world, stream),
        _ => world,
    };
    let t = Instant::now();
    // `--incremental` advances the epoch engine; every other run —
    // batch, sharded or streamed — goes through the one stage loop once.
    // With `--journal-dir` both stage-journal, and epoch `e` of the
    // engine shares its records with a one-shot `--upto e` run.
    let mut engine: Option<EpochEngine> = None;
    let mut world = Some(world);
    let report = if args.incremental {
        let held = world.take().expect("world generated above");
        // An engine resumed from the journal hands back the report of
        // the epoch it resumed at (never past `upto`).
        let (built, resumed) = match &args.journal_dir {
            Some(dir) => {
                EpochEngine::with_journal(held, spec.epochs, options, std::path::Path::new(dir))
                    .map_err(|e| format!("open epoch journal: {e}"))?
            }
            None => (EpochEngine::new(held, spec.epochs, options), None),
        };
        let engine = engine.insert(built);
        let upto = spec.effective_upto();
        if engine.epoch() > 0 {
            eprintln!(
                "resumed epoch engine at epoch {}/{}",
                engine.epoch(),
                engine.epochs()
            );
        }
        let mut last = resumed;
        while engine.epoch() < upto {
            let t = Instant::now();
            let report = engine
                .advance()
                .map_err(|e| format!("advance to epoch {}: {e}", engine.epoch() + 1))?;
            eprintln!(
                "epoch {}/{} advanced in {:.1?}",
                engine.epoch(),
                engine.epochs(),
                t.elapsed()
            );
            last = Some(report);
        }
        last.expect("a streamed spec reports at epoch 1 or later")
    } else {
        let world = world.as_ref().expect("world generated above");
        let pipe = Pipeline::new(options);
        match &args.journal_dir {
            None => run_all(&pipe, world)?,
            Some(dir) => {
                let dir = std::path::Path::new(dir);
                if !args.resume {
                    // A fresh (non-resume) run must never trust leftover
                    // checkpoints for this run key.
                    let journal = Journal::open(dir, &world.config, &options)
                        .map_err(|e| format!("open checkpoint journal: {e}"))?;
                    journal
                        .clear()
                        .map_err(|e| format!("clear checkpoint journal: {e}"))?;
                }
                if let Some(n) = args.stop_after {
                    // Simulated crash: run (and checkpoint) the first N
                    // stages, then exit at the stage boundary without a
                    // report.
                    let ctx = pipe
                        .run_prefix_resumable(world, n, dir)
                        .map_err(|e| format!("prefix run: {e}"))?;
                    eprintln!(
                        "stopped after {} stage(s); journal under {}",
                        ctx.timings()
                            .iter()
                            .filter(|t| t.stage != "journal")
                            .count(),
                        dir.display()
                    );
                    for t in ctx.timings() {
                        eprintln!(
                            "  {:<16} {:>9.1} ms  {:>8} items  [{}]",
                            t.stage,
                            t.wall_us as f64 / 1_000.0,
                            t.items,
                            t.source.as_str()
                        );
                    }
                    return Ok(());
                }
                pipe.run_resumable(world, dir)
                    .map_err(|e| format!("resumable run: {e}"))?
            }
        }
    };
    // The incremental path moved the world into the engine; every later
    // use borrows it back from whichever place owns it.
    let world: &World = match (&engine, &world) {
        (Some(engine), _) => engine.world(),
        (None, Some(world)) => world,
        (None, None) => unreachable!("world is only taken by the engine path"),
    };
    eprintln!("pipeline finished in {:.1?}", t.elapsed());
    for t in &report.timings {
        eprintln!(
            "  {:<16} {:>9.1} ms  {:>8} items  {:>12.0} items/s  [{}]",
            t.stage,
            t.wall_us as f64 / 1_000.0,
            t.items,
            items_per_sec(t),
            t.source.as_str()
        );
    }
    if spec.shards > 0 {
        let s = report.supervision;
        eprintln!(
            "  supervision: {} shard run(s), {} restarted, {} quarantined",
            s.shards_run, s.shards_restarted, s.shards_quarantined
        );
    }
    if !report.quarantine.is_empty() || !report.health.is_empty() {
        eprintln!(
            "  quarantine: {} record(s) quarantined, {} stage intervention(s) — see the pipeline-health section",
            report.quarantine.len(),
            report.health.len()
        );
    }
    let cs = &report.crawl_stats;
    eprintln!(
        "  crawl health: {} attempts, {} retries, {} breaker trips, {} unreachable, {:.1} s simulated wait",
        cs.attempts.total(),
        cs.retries.total(),
        cs.breaker_trips,
        report.crawl.unreachable_links,
        cs.wait_us.total() as f64 / 1_000_000.0
    );

    println!(
        "=== Measuring eWhoring — reproduction report (scale {}, seed {:#x}) ===\n",
        spec.scale, spec.seed
    );
    println!("{}", full_report(&report));

    if args.intervention {
        println!("{}", intervention_section(&report, spec.workers));
    }

    if let Some(path) = &args.json {
        let json =
            serde_json::to_string_pretty(&report).map_err(|e| format!("serialise report: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("write JSON report `{path}`: {e}"))?;
        eprintln!("raw report written to {path}");
    }

    if let Some(path) = &args.snapshot_json {
        // The determinism snapshot: the full report minus wall-clock
        // timings, so two runs (resumed vs uninterrupted, batch vs
        // wire, any worker count) can be compared byte-for-byte.
        let json = snapshot_json(&report).map_err(|e| format!("render snapshot: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("write snapshot JSON `{path}`: {e}"))?;
        eprintln!("determinism snapshot written to {path}");
    }

    if let Some(path) = &args.bench_json {
        eprintln!("bench baseline: rerunning pipeline at workers=1 …");
        let t = Instant::now();
        let serial = run_all(
            &Pipeline::new(PipelineOptions {
                workers: 1,
                ..options
            }),
            world,
        )?;
        eprintln!("serial run finished in {:.1?}", t.elapsed());
        let json = bench_baseline_json(
            spec.scale,
            spec.seed,
            spec.workers,
            generate_us,
            &serial.timings,
            &report.timings,
            report.quarantine.len(),
        );
        std::fs::write(path, json).map_err(|e| format!("write bench baseline `{path}`: {e}"))?;
        eprintln!("bench baseline written to {path}");
    }
    Ok(())
}

/// The `bench` subcommand: one parallel run, one workers=1 rerun, and
/// the machine-readable baseline — without the report printing the
/// batch path does.
pub fn bench_main(args: &BenchArgs) -> Result<(), String> {
    if args.epoch {
        return bench_epoch_main(args);
    }
    if args.shard {
        return bench_shard_main(args);
    }
    let spec = RunSpec {
        scale: args.scale,
        seed: args.seed,
        workers: args.workers,
        faults: 0.0,
        corruption: 0.0,
        epochs: 0,
        upto: 0,
        shards: 0,
    };
    let t = Instant::now();
    let world = generate_world(&spec);
    let generate_us = t.elapsed().as_micros();
    let t = Instant::now();
    let parallel = run_all(&Pipeline::new(spec.options()), &world)?;
    eprintln!(
        "parallel run (workers={}) finished in {:.1?}",
        args.workers,
        t.elapsed()
    );
    let t = Instant::now();
    let serial = run_all(
        &Pipeline::new(PipelineOptions {
            workers: 1,
            ..spec.options()
        }),
        &world,
    )?;
    eprintln!("serial run finished in {:.1?}", t.elapsed());
    let json = bench_baseline_json(
        spec.scale,
        spec.seed,
        spec.workers,
        generate_us,
        &serial.timings,
        &parallel.timings,
        parallel.quarantine.len(),
    );
    std::fs::write(&args.out, json).map_err(|e| format!("write `{}`: {e}", args.out))?;
    eprintln!("bench baseline written to {}", args.out);
    if let Some(floor) = args.gate_floor {
        gate_measure_rate(&serial.timings, floor)?;
    }
    Ok(())
}

/// The `bench epoch` mode: advance the epoch engine through every
/// epoch, timing each warm advance against a fresh full recompute of
/// the same prefix, and write `BENCH_epoch.json`. The two reports are
/// byte-identical by the epoch-equivalence guarantee (CI-enforced in
/// `tests/determinism.rs`), so the comparison is strictly
/// like-for-like; the asserts here are a cheap re-check.
fn bench_epoch_main(args: &BenchArgs) -> Result<(), String> {
    use std::fmt::Write as _;

    let spec = RunSpec {
        scale: args.scale,
        seed: args.seed,
        workers: args.workers,
        faults: 0.0,
        corruption: 0.0,
        epochs: args.epochs,
        upto: 0,
        shards: 0,
    };
    let world = generate_world(&spec);
    let mut engine = EpochEngine::new(world, spec.epochs, spec.options());
    let mut rows = String::new();
    let mut final_speedup = 0.0;
    let mut advance_history: Vec<u128> = Vec::new();
    let mut threads_history: Vec<usize> = Vec::new();
    for e in 1..=spec.epochs {
        let t = Instant::now();
        let warm = engine
            .advance()
            .map_err(|err| format!("advance to epoch {e}: {err}"))?;
        let advance_us = t.elapsed().as_micros();
        advance_history.push(advance_us);
        let t = Instant::now();
        let fresh = engine
            .fresh_report()
            .map_err(|err| format!("full recompute at epoch {e}: {err}"))?;
        let full_us = t.elapsed().as_micros();
        let warm_snap = snapshot_json(&warm).map_err(|err| format!("render snapshot: {err}"))?;
        let fresh_snap = snapshot_json(&fresh).map_err(|err| format!("render snapshot: {err}"))?;
        if warm_snap != fresh_snap {
            return Err(format!(
                "epoch {e}: warm advance diverged from full recompute — equivalence violated"
            ));
        }
        let speedup = if advance_us > 0 {
            full_us as f64 / advance_us as f64
        } else {
            0.0
        };
        final_speedup = speedup;
        // The epoch's content delta, measured in eWhoring threads seen
        // to date (the extract stage's item count) — a deterministic
        // seeded quantity, so it normalizes wall clocks without adding
        // measurement noise of its own.
        let threads_seen = warm
            .timings
            .iter()
            .find(|t| t.stage == "extract")
            .map_or(0, |t| t.items);
        let new_threads = threads_seen.saturating_sub(threads_history.last().copied().unwrap_or(0));
        threads_history.push(threads_seen);
        // Per-stage wall clocks from the warm advance, so a regression
        // in any one stage's delta-fold is attributable from the JSON
        // alone.
        let mut stage_us = String::new();
        for (i, timing) in warm.timings.iter().enumerate() {
            let _ = write!(
                stage_us,
                "{}\"{}\": {}",
                if i > 0 { ", " } else { "" },
                timing.stage,
                timing.wall_us
            );
        }
        // Serialized carry footprint after this advance — the price of
        // flat-cost warm advances is state that grows with the corpus.
        // Reported, not gated (see BENCH_floor.txt note).
        let carry_bytes = serde_json::to_string(engine.carry())
            .map(|s| s.len())
            .map_err(|err| format!("serialize carry after epoch {e}: {err}"))?;
        eprintln!(
            "epoch {e}/{}: advance {:.1} ms, full recompute {:.1} ms, delta speedup {speedup:.2}x, carry {:.1} KiB",
            spec.epochs,
            advance_us as f64 / 1_000.0,
            full_us as f64 / 1_000.0,
            carry_bytes as f64 / 1024.0,
        );
        let _ = writeln!(
            rows,
            "    {{ \"epoch\": {e}, \"advance_us\": {advance_us}, \"full_us\": {full_us}, \"speedup\": {speedup:.2}, \"new_threads\": {new_threads}, \"carry_bytes\": {carry_bytes}, \"stage_us\": {{ {stage_us} }} }}{}",
            if e < spec.epochs { "," } else { "" }
        );
    }
    // Flatness: a warm advance's cost should track the epoch's content
    // delta, not the corpus. Raw wall-clock ratios between epochs are
    // meaningless here — the generated decade's activity ramps ~5x
    // from the first to the last slice — so each advance is normalized
    // by its epoch's new-thread count (a deterministic seeded quantity)
    // and the final epoch's per-thread cost is compared against the
    // median per-thread cost of the earlier warm advances. Both sides
    // of the ratio are wall clocks from the same run, so a loaded host
    // cancels out; only per-thread cost *growth* — the signature of a
    // fold regressing to an O(corpus) rescan — moves it. Epoch 1 is
    // excluded (cold build plus the pre-window backlog).
    let flatness = advance_flatness(&advance_history, &threads_history);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let note = if cores == 1 {
        "\n  \"note\": \"available_parallelism is 1; parallel stages ran effectively serial\","
    } else {
        ""
    };
    let flatness_json = flatness.map_or_else(|| "null".to_string(), |f| format!("{f:.2}"));
    let json = format!(
        "{{\n  \"scale\": {},\n  \"seed\": {},\n  \"workers\": {},\n  \"epochs\": {},\n  \"available_parallelism\": {cores},{note}\n  \"per_epoch\": [\n{rows}  ],\n  \"final_epoch_speedup\": {final_speedup:.2},\n  \"advance_flatness\": {flatness_json}\n}}\n",
        spec.scale, spec.seed, spec.workers, spec.epochs,
    );
    std::fs::write(&args.out, json).map_err(|e| format!("write `{}`: {e}", args.out))?;
    eprintln!("epoch bench written to {}", args.out);
    if let Some(floor) = args.gate_floor {
        if final_speedup < floor {
            return Err(format!(
                "bench gate FAILED: final-epoch delta ran {final_speedup:.2}x a full recompute, floor is {floor:.2}x"
            ));
        }
        eprintln!(
            "bench gate passed: final-epoch delta {final_speedup:.2}x a full recompute (floor {floor:.2}x)"
        );
    }
    if let Some(ceiling) = args.flat_ceiling {
        match flatness {
            None => eprintln!(
                "flatness gate skipped: needs at least 3 epochs with nonzero thread deltas, ran {}",
                advance_history.len()
            ),
            Some(flat) if flat > ceiling => {
                return Err(format!(
                    "flatness gate FAILED: the final advance cost {flat:.2}x the median per-new-thread cost of the earlier warm advances, ceiling is {ceiling:.2}x — a fold has regressed to corpus-bound work"
                ));
            }
            Some(flat) => eprintln!(
                "flatness gate passed: final advance per-new-thread cost {flat:.2}x the warm median (ceiling {ceiling:.2}x)"
            ),
        }
    }
    Ok(())
}

/// The `bench shard` mode: one unsharded run, one supervised sharded
/// run over the same world, a hard gate on snapshot equality (the merge
/// coordinator's byte-identity contract, also CI-enforced in
/// `tests/determinism.rs`), and `BENCH_shard.json` recording the
/// wall-clock ratio plus the supervision counters.
fn bench_shard_main(args: &BenchArgs) -> Result<(), String> {
    use std::fmt::Write as _;

    let spec = RunSpec {
        scale: args.scale,
        seed: args.seed,
        workers: args.workers,
        faults: 0.0,
        corruption: 0.0,
        epochs: 0,
        upto: 0,
        shards: 0,
    };
    let world = generate_world(&spec);
    let t = Instant::now();
    let unsharded = run_all(&Pipeline::new(spec.options()), &world)?;
    let unsharded_us = t.elapsed().as_micros();
    eprintln!(
        "unsharded run finished in {:.1} ms",
        unsharded_us as f64 / 1_000.0
    );
    let t = Instant::now();
    let sharded = run_all(
        &Pipeline::new(PipelineOptions {
            shards: args.shards,
            ..spec.options()
        }),
        &world,
    )?;
    let sharded_us = t.elapsed().as_micros();
    eprintln!(
        "sharded run (shards={}) finished in {:.1} ms",
        args.shards,
        sharded_us as f64 / 1_000.0
    );
    let unsharded_snap = snapshot_json(&unsharded).map_err(|e| format!("render snapshot: {e}"))?;
    let sharded_snap = snapshot_json(&sharded).map_err(|e| format!("render snapshot: {e}"))?;
    if unsharded_snap != sharded_snap {
        return Err(format!(
            "sharded run (shards={}) diverged from the unsharded driver — merge determinism violated",
            args.shards
        ));
    }
    eprintln!("snapshots identical: sharded merge matches the unsharded driver byte-for-byte");
    // The gate ratio: sharded throughput relative to unsharded
    // (unsharded wall / sharded wall). 1.0 = free sharding; the floor
    // bounds the supervision overhead from below.
    let ratio = if sharded_us > 0 {
        unsharded_us as f64 / sharded_us as f64
    } else {
        0.0
    };
    let s = sharded.supervision;
    eprintln!(
        "supervision: {} shard run(s), {} restarted, {} quarantined",
        s.shards_run, s.shards_restarted, s.shards_quarantined
    );
    let stage_map = |timings: &[StageTiming]| {
        let mut out = String::new();
        for (i, t) in timings.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {}",
                if i > 0 { ", " } else { "" },
                t.stage,
                t.wall_us
            );
        }
        out
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let note = if cores == 1 {
        "\n  \"note\": \"available_parallelism is 1; shard workers ran effectively serial, so the ratio measures supervision overhead, not scaling\","
    } else {
        ""
    };
    let json = format!(
        "{{\n  \"scale\": {},\n  \"seed\": {},\n  \"workers\": {},\n  \"shards\": {},\n  \"available_parallelism\": {cores},{note}\n  \"unsharded_us\": {unsharded_us},\n  \"sharded_us\": {sharded_us},\n  \"sharded_over_unsharded_ratio\": {ratio:.2},\n  \"snapshot_identical\": true,\n  \"supervision\": {{ \"shards_run\": {}, \"shards_restarted\": {}, \"shards_quarantined\": {} }},\n  \"unsharded_stage_us\": {{ {} }},\n  \"sharded_stage_us\": {{ {} }}\n}}\n",
        spec.scale,
        spec.seed,
        spec.workers,
        args.shards,
        s.shards_run,
        s.shards_restarted,
        s.shards_quarantined,
        stage_map(&unsharded.timings),
        stage_map(&sharded.timings),
    );
    std::fs::write(&args.out, json).map_err(|e| format!("write `{}`: {e}", args.out))?;
    eprintln!("shard bench written to {}", args.out);
    if let Some(floor) = args.gate_floor {
        if ratio < floor {
            return Err(format!(
                "bench gate FAILED: sharded run reached {ratio:.2}x the unsharded throughput, floor is {floor:.2}x"
            ));
        }
        eprintln!(
            "bench gate passed: sharded run at {ratio:.2}x the unsharded throughput (floor {floor:.2}x)"
        );
    }
    Ok(())
}

/// The per-content flatness ratio `bench epoch` gates on: the final
/// epoch's advance cost per new eWhoring thread, divided by the median
/// per-thread cost over the earlier warm epochs (2..final). Returns
/// `None` when fewer than two warm epochs have a nonzero thread delta
/// (nothing to compare). Thread deltas come from the seeded world, so
/// the denominator carries no timing noise, and both wall clocks are
/// from the same run, so background load cancels in the ratio.
fn advance_flatness(advance_us: &[u128], threads_seen: &[usize]) -> Option<f64> {
    let per_thread: Vec<f64> = (1..advance_us.len())
        .filter_map(|i| {
            let delta = threads_seen[i].checked_sub(threads_seen[i - 1])?;
            (delta > 0).then(|| advance_us[i] as f64 / delta as f64)
        })
        .collect();
    let (&last, earlier) = per_thread.split_last()?;
    if earlier.is_empty() {
        return None;
    }
    let mut sorted = earlier.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("per-thread costs are finite"));
    let median = if sorted.len() % 2 == 1 {
        sorted[sorted.len() / 2]
    } else {
        (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2.0
    };
    (median > 0.0).then(|| last / median)
}

/// The `--gate-floor` check: the serial `measure_images` rate must reach
/// `floor` items/sec, or the bench exits nonzero. Guards the fused
/// kernel's speedup against regression in CI (`make bench-gate`).
fn gate_measure_rate(serial_timings: &[StageTiming], floor: f64) -> Result<(), String> {
    let rate = serial_timings
        .iter()
        .find(|t| t.stage == "measure_images" && t.source == TimingSource::Computed)
        .map(items_per_sec)
        .ok_or_else(|| {
            "bench gate: serial run has no computed measure_images timing".to_string()
        })?;
    if rate < floor {
        return Err(format!(
            "bench gate FAILED: measure_images ran {rate:.1} items/s at workers=1, floor is {floor:.1}"
        ));
    }
    eprintln!(
        "bench gate passed: measure_images {rate:.1} items/s at workers=1 (floor {floor:.1})"
    );
    Ok(())
}

/// Stages whose per-item loops run on the `core::par` layer; the
/// aggregate speedup is computed over these.
const PARALLEL_STAGES: [&str; 4] = ["top_classifier", "measure_images", "nsfv", "actors"];

/// Items-per-second for one timing entry.
fn items_per_sec(t: &StageTiming) -> f64 {
    if t.wall_us > 0 {
        t.items as f64 / (t.wall_us as f64 / 1_000_000.0)
    } else {
        0.0
    }
}

/// Aggregate items/sec over the parallel stages of one run. Only
/// computed stages count — a journal-loaded stage's wall clock measures
/// deserialization, not stage work, and would corrupt the speedup.
fn aggregate_items_per_sec(timings: &[StageTiming]) -> f64 {
    let (items, wall_us) = timings
        .iter()
        .filter(|t| {
            PARALLEL_STAGES.contains(&t.stage.as_str()) && t.source == TimingSource::Computed
        })
        .fold((0usize, 0u128), |(i, w), t| (i + t.items, w + t.wall_us));
    if wall_us > 0 {
        items as f64 / (wall_us as f64 / 1_000_000.0)
    } else {
        0.0
    }
}

/// Renders the machine-readable `BENCH_pipeline.json` baseline: per-stage
/// `wall_us`, `items`, `items_per_sec`, and `source` (computed vs
/// journal-loaded — a loaded stage's wall clock is I/O, not stage work,
/// and must never be read as a compute baseline) at workers=1 vs
/// workers=N, plus the aggregate speedup over [`PARALLEL_STAGES`], the
/// run's quarantined-record count and the world-generation wall time
/// (`generate_us`, which precedes both runs). Hand-assembled so the
/// schema is explicit in one place.
fn bench_baseline_json(
    scale: f64,
    seed: u64,
    workers: usize,
    generate_us: u128,
    serial: &[StageTiming],
    parallel: &[StageTiming],
    quarantined_records: usize,
) -> String {
    use std::fmt::Write as _;

    let run_json = |workers: usize, timings: &[StageTiming]| {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "    {{\n      \"workers\": {workers},\n      \"stages\": ["
        );
        for (i, t) in timings.iter().enumerate() {
            let _ = writeln!(
                out,
                "        {{ \"stage\": \"{}\", \"wall_us\": {}, \"items\": {}, \"items_per_sec\": {:.1}, \"source\": \"{}\" }}{}",
                t.stage,
                t.wall_us,
                t.items,
                items_per_sec(t),
                t.source.as_str(),
                if i + 1 < timings.len() { "," } else { "" }
            );
        }
        let _ = write!(
            out,
            "      ],\n      \"parallel_items_per_sec\": {:.1}\n    }}",
            aggregate_items_per_sec(timings)
        );
        out
    };

    let serial_agg = aggregate_items_per_sec(serial);
    let parallel_agg = aggregate_items_per_sec(parallel);
    let speedup = if serial_agg > 0.0 {
        parallel_agg / serial_agg
    } else {
        0.0
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // A one-core box cannot show worker scaling — annotate the baseline
    // so a reader doesn't mistake the flat speedup for a regression.
    let note = if cores == 1 {
        "\n  \"note\": \"available_parallelism is 1; workers are clamped and the speedup is expected to be ~1x\","
    } else {
        ""
    };
    format!(
        "{{\n  \"scale\": {scale},\n  \"seed\": {seed},\n  \"available_parallelism\": {cores},{note}\n  \"generate_us\": {generate_us},\n  \"quarantined_records\": {quarantined_records},\n  \"parallel_stages\": [{}],\n  \"runs\": [\n{},\n{}\n  ],\n  \"aggregate_speedup\": {speedup:.2}\n}}\n",
        PARALLEL_STAGES
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", "),
        run_json(1, serial),
        run_json(workers, parallel),
    )
}

/// Runs the §8 countermeasure simulations against the already-crawled
/// material and renders them as a report section.
fn intervention_section(report: &PipelineReport, workers: usize) -> String {
    use ewhoring_core::intervention::{deployment_sweep, screen_payment_accounts};
    use ewhoring_core::nsfv::ImageMeasures;
    use ewhoring_core::pipeline::measure_batch;
    use std::fmt::Write as _;

    let mut out = String::from(
        "Extension (§8): intervention simulations
",
    );

    // Shared hash-blacklist over the crawled packs, measured on the same
    // parallel layer as the pipeline's measure stage.
    let owned: Vec<(&ewhoring_core::crawl::PackDownload, Vec<ImageMeasures>)> = report
        .crawl
        .packs
        .iter()
        .map(|p| {
            let sample = &p.images[..p.images.len().min(30)];
            (p, measure_batch(sample, workers))
        })
        .collect();
    let packs: Vec<(&ewhoring_core::crawl::PackDownload, &[ImageMeasures])> =
        owned.iter().map(|(p, m)| (*p, m.as_slice())).collect();
    if !packs.is_empty() {
        let mut dates: Vec<synthrand::Day> = packs.iter().map(|(p, _)| p.link.posted).collect();
        dates.sort_unstable();
        let sweep_dates: Vec<synthrand::Day> =
            (1..=4).map(|i| dates[dates.len() * i / 5]).collect();
        for (date, block, disrupt) in deployment_sweep(&packs, &sweep_dates) {
            let _ = writeln!(
                out,
                "  blacklist deployed {date}: blocks {:.1}% of later images, disrupts {:.1}% of later packs",
                100.0 * block,
                100.0 * disrupt
            );
        }
    }

    // Payment screening over the harvested proofs.
    for min_tx in [5u32, 10, 20] {
        let s = screen_payment_accounts(&report.harvest.proofs, min_tx);
        let _ = writeln!(
            out,
            "  payment screening (≥{min_tx} tx/proof): {}/{} actors flagged, {:.0}% of revenue covered",
            s.flagged_actors,
            s.flagged_actors + s.unflagged_actors,
            100.0 * s.usd_coverage()
        );
    }
    let _ = writeln!(out, "  (see examples/intervention.rs and DESIGN.md §7)");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(wall_us: u128, items: usize, source: TimingSource) -> StageTiming {
        StageTiming {
            stage: "measure_images".to_string(),
            wall_us,
            items,
            source,
        }
    }

    #[test]
    fn bench_gate_compares_serial_measure_rate_to_the_floor() {
        // 5000 items over 1s = 5000 items/s.
        let t = vec![timing(1_000_000, 5000, TimingSource::Computed)];
        assert!(gate_measure_rate(&t, 4_000.0).is_ok());
        let e = gate_measure_rate(&t, 6_000.0).unwrap_err();
        assert!(e.contains("FAILED"), "{e}");
        assert!(e.contains("5000.0"), "{e}");
    }

    #[test]
    fn bench_gate_rejects_journal_loaded_timings() {
        // A journal-loaded row times deserialization, not stage work —
        // it must not satisfy the gate no matter how fast it looks.
        let t = vec![timing(1, 5000, TimingSource::Journal)];
        let e = gate_measure_rate(&t, 1.0).unwrap_err();
        assert!(e.contains("no computed measure_images"), "{e}");
    }

    /// A perfectly delta-bound engine holds per-thread cost constant
    /// even when the per-epoch content ramps; an O(corpus) regression
    /// inflates the final epoch's per-thread cost.
    #[test]
    fn advance_flatness_is_per_thread_not_wall_clock() {
        // 100us per new thread at every epoch, content ramping 5x:
        // wall clocks grow but the ratio stays 1.0.
        let adv = [5_000, 10_000, 20_000, 50_000];
        let seen = [50, 150, 350, 850];
        let flat = advance_flatness(&adv, &seen).expect("enough epochs");
        assert!((flat - 1.0).abs() < 1e-9, "flat engine measures {flat}");

        // The final advance rescans the corpus: per-thread cost jumps
        // 4x and the ratio reports it.
        let adv = [5_000, 10_000, 20_000, 200_000];
        let flat = advance_flatness(&adv, &seen).expect("enough epochs");
        assert!(flat > 3.9, "corpus-bound regression measures {flat}");

        // Too little history to compare: no ratio, gate skips.
        assert!(advance_flatness(&[5_000, 10_000, 20_000], &[50, 150, 350]).is_some());
        assert!(advance_flatness(&[5_000, 10_000], &[50, 150]).is_none());
        // A zero-delta epoch is dropped rather than dividing by zero.
        assert!(advance_flatness(&[5_000, 9_000], &[50, 50]).is_none());
    }
}
