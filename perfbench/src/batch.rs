//! The `batch` and `sharded` workloads: closed loop, one caller, each
//! job `World::generate` + `Pipeline::run` + `snapshot_json`.

use crate::stats::{mean_of_medians, median, Tally};
use crate::trace::Recorder;
use crate::{fingerprint, peak_rss_mb, replay, snapshot, timed, Args, Outcome, Outputs};
use ewhoring_core::pipeline::{Pipeline, PipelineOptions, PipelineReport, RunSpec, StageCtx};
use std::time::Instant;
use worldgen::{World, WorldConfig};

/// Which driver a job runs through.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Unsharded stage graph, workers 2, scale 0.1.
    Batch,
    /// Supervised shard driver, shards 2, workers 1, scale 0.05.
    Sharded,
}

/// Worlds a run cycles its jobs over. Job costs differ by 10–15%
/// between worlds; the mean over eight keeps that from setting the
/// spread between seeds. Every world gets at least one job.
const WORLDS: usize = 8;
/// World generations in set-up; `setup_s` is their median.
const SETUPS: usize = 3;
/// Sharded/unsharded pipeline pairs behind `shard.overhead_ms`.
const OVERHEAD_PAIRS: usize = 3;

fn spec(mode: Mode, seed: u64) -> RunSpec {
    let (scale, workers, shards) = match mode {
        Mode::Batch => (0.1, 2, 0),
        Mode::Sharded => (0.05, 1, 2),
    };
    RunSpec {
        scale,
        seed,
        workers,
        faults: 0.0,
        corruption: 0.0,
        epochs: 0,
        upto: 0,
        shards,
    }
}

/// The stage graph driven one stage at a time through the public
/// `Stage::run`, the way `Pipeline::run` drives it on clean inputs.
fn stage_by_stage(world: &World, options: PipelineOptions) -> Result<PipelineReport, String> {
    let mut ctx = StageCtx::new(world, options);
    for stage in Pipeline::stages() {
        stage
            .run(&mut ctx)
            .map_err(|e| format!("stage {}: {e}", stage.name()))?;
    }
    ctx.into_report().map_err(|e| e.to_string())
}

/// One untraced job; returns the report and its snapshot.
fn job(config: WorldConfig, options: PipelineOptions) -> Result<(PipelineReport, String), String> {
    let world = World::generate(config);
    let report = Pipeline::new(options).run(&world);
    let snap = snapshot(&report)?;
    Ok((report, snap))
}

pub fn run(args: &Args, mode: Mode) -> Result<Outcome, String> {
    let specs: Vec<RunSpec> = (0..WORLDS as u64)
        .map(|i| spec(mode, args.world_seed(i)))
        .collect();
    let mut out = Outcome::default();
    out.stamp_specs(&specs);

    // Set-up is what every job begins with, world generation; these
    // worlds are dropped, since each job generates its own.
    let setups: Vec<f64> = specs[..SETUPS]
        .iter()
        .map(|spec| timed(|| World::generate(spec.world_config())).1)
        .collect();

    let mut tally = Tally::default();
    let mut outputs = Outputs::new(WORLDS);
    let mut traced_outputs = Outputs::new(WORLDS);
    // Untraced job seconds, per world.
    let mut untraced: Vec<Vec<f64>> = vec![Vec::new(); WORLDS];
    // The traced run takes item counts (and, for `sharded`, the shard
    // driver's own stage timings) from a report of the first world, the
    // world its other per-layer numbers describe.
    let mut first_report = None;
    let mut rec = Recorder::new(Instant::now(), 0);
    let start = Instant::now();
    let mut i = 0;
    while i < WORLDS || start.elapsed() < args.window() {
        let (w, spec) = (i % WORLDS, specs[i % WORLDS]);
        i += 1;
        let (config, options) = (spec.world_config(), spec.options());
        let (result, s) = timed(|| job(config, options));
        match result {
            Ok((report, snap)) => {
                untraced[w].push(s);
                outputs.push(w, &snap);
                if args.trace && w == 0 {
                    first_report = Some(report);
                }
            }
            Err(e) => {
                eprintln!("perfbench: job on world {w}: {e}");
                tally.record(false);
            }
        }
        if args.trace {
            // Traced jobs alternate with untraced ones on the same
            // world, so the tracing overhead is not host drift.
            rec.set_job(i as u64);
            match rec.span("job", |r| traced_job(r, config, options, mode)) {
                Ok((report, snap)) => {
                    traced_outputs.push(w, &snap);
                    if let (0, Some(report)) = (w, report) {
                        first_report = Some(report);
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: traced job on world {w}: {e}");
                    tally.record(false);
                }
            }
        }
    }
    let rss = peak_rss_mb(None)?;

    // Checks, after the window. `batch`: each job's snapshot must equal
    // the stage-by-stage run's of its world (the traced jobs are that
    // run). `sharded`: it must equal the unsharded run's. The untraced
    // run computes its reference for the first world only and checks the
    // others' jobs for determinism; the traced run checks every world.
    let checked = if args.trace { WORLDS } else { 1 };
    let references: Vec<Option<u64>> = match (mode, args.trace) {
        (Mode::Batch, true) => traced_outputs.firsts(),
        _ => (0..WORLDS)
            .map(|w| {
                (w < checked)
                    .then(|| reference(mode, specs[w]).map(|snap| fingerprint(&snap)))
                    .transpose()
            })
            .collect::<Result<_, _>>()?,
    };
    outputs.check(&references, &mut tally);
    let traced_references = match mode {
        Mode::Batch => outputs.firsts(),
        Mode::Sharded => references.clone(),
    };
    traced_outputs.check(&traced_references, &mut tally);

    let all: Vec<f64> = untraced.concat();
    out.raw("job_s", &all);
    if !args.trace {
        out.timing("setup_s", median(&setups), setups.len());
        out.metric("peak_rss_mb", rss);
        out.timing("job_s_p50", mean_of_medians(&untraced), all.len());
        out.timing(
            "req_per_s",
            all.len() as f64 / all.iter().sum::<f64>(),
            all.len(),
        );
        out.tally = tally;
        return Ok(out);
    }

    let first_report = first_report.ok_or("no job on the first world succeeded")?;
    let world = World::generate(specs[0].world_config());
    out.metric("worldgen.posts", world.corpus.posts().len() as f64);
    let generate = rec.durations_ms("worldgen.generate");
    out.timing("worldgen.generate_ms", median(&generate), generate.len());
    let render = rec.durations_ms("snapshot.render");
    out.timing("snapshot.render_ms", median(&render), render.len());
    out.metric("snapshot.bytes", snapshot(&first_report)?.len() as f64);
    let traced_ms = rec.durations_ms("job");
    out.timing(
        "trace.overhead_ms",
        median(&traced_ms) - median(&all) * 1e3,
        traced_ms.len(),
    );
    let shares: Vec<f64> = rec
        .child_shares("job")
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    out.metric("trace.accounted_ratio", median(&shares));
    for t in &first_report.timings {
        out.metric(format!("stage.{}.items", t.stage), t.items as f64);
    }
    let options = specs[0].options();
    match mode {
        Mode::Batch => {
            for stage in Pipeline::stages() {
                let name = format!("stage.{}", stage.name());
                let ms = rec.durations_ms(&name);
                out.timing(format!("{name}.ms"), median(&ms), ms.len());
            }
            rec.set_job(0);
            let snap = replay::pass(&mut rec, &world, options, &mut out)?;
            tally.record(Some(fingerprint(&snap)) == outputs.firsts()[0]);
        }
        Mode::Sharded => {
            // The shard driver times its own stages; these are the
            // program's numbers, from a first-world job's report.
            for t in &first_report.timings {
                out.metric(format!("stage.{}.ms", t.stage), t.wall_us as f64 / 1e3);
            }
            let s = &first_report.supervision;
            out.metric("shard.shards_run", s.shards_run as f64);
            out.metric("shard.restarted", s.shards_restarted as f64);
            out.metric("shard.quarantined", s.shards_quarantined as f64);
            shard_overhead(&mut rec, &world, options, &mut out);
        }
    }
    crate::write_trace(args, &rec)?;
    out.tally = tally;
    Ok(out)
}

/// The snapshot a job on `spec`'s world must produce, computed another
/// way: `batch` drives the stages one at a time, `sharded` runs the
/// unsharded pipeline.
fn reference(mode: Mode, spec: RunSpec) -> Result<String, String> {
    let world = World::generate(spec.world_config());
    let options = spec.options();
    match mode {
        Mode::Batch => snapshot(&stage_by_stage(&world, options)?),
        Mode::Sharded => snapshot(
            &Pipeline::new(PipelineOptions {
                shards: 0,
                ..options
            })
            .run(&world),
        ),
    }
}

/// One traced job. `batch` drives the stages one at a time with a span
/// each; `sharded` spans the whole shard driver and returns its report
/// (whose own stage timings are all a caller can see inside it).
fn traced_job(
    rec: &mut Recorder,
    config: WorldConfig,
    options: PipelineOptions,
    mode: Mode,
) -> Result<(Option<PipelineReport>, String), String> {
    let world = rec.span("worldgen.generate", |_| World::generate(config));
    match mode {
        Mode::Batch => {
            let mut ctx = StageCtx::new(&world, options);
            for stage in Pipeline::stages() {
                rec.span(&format!("stage.{}", stage.name()), |_| stage.run(&mut ctx))
                    .map_err(|e| format!("stage {}: {e}", stage.name()))?;
            }
            let snap = rec.span("snapshot.render", |_| {
                ctx.into_report()
                    .map_err(|e| e.to_string())
                    .and_then(|r| snapshot(&r))
            })?;
            Ok((None, snap))
        }
        Mode::Sharded => {
            let report = rec.span("shard.pipeline", |_| Pipeline::new(options).run(&world));
            let snap = rec.span("snapshot.render", |_| snapshot(&report))?;
            Ok((Some(report), snap))
        }
    }
}

/// `shard.overhead_ms`: sharded minus unsharded pipeline time on the
/// same world and worker count, alternating the two, median of each.
fn shard_overhead(rec: &mut Recorder, world: &World, options: PipelineOptions, out: &mut Outcome) {
    let unsharded = PipelineOptions {
        shards: 0,
        ..options
    };
    let (mut sharded_ms, mut unsharded_ms) = (Vec::new(), Vec::new());
    for i in 0..OVERHEAD_PAIRS {
        rec.set_job(1000 + i as u64);
        let (_, s) = timed(|| {
            rec.span("shard.overhead.sharded", |_| {
                Pipeline::new(options).run(world)
            })
        });
        sharded_ms.push(s * 1e3);
        let (_, s) = timed(|| {
            rec.span("shard.overhead.unsharded", |_| {
                Pipeline::new(unsharded).run(world)
            })
        });
        unsharded_ms.push(s * 1e3);
    }
    out.timing(
        "shard.overhead_ms",
        median(&sharded_ms) - median(&unsharded_ms),
        sharded_ms.len(),
    );
}
