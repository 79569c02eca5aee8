//! The `epoch_stream` workload: an `EpochEngine` advanced from epoch 1
//! to 20, stream after stream, each on a freshly set-up engine.

use crate::stats::{mean_of_medians, median, Tally};
use crate::trace::Recorder;
use crate::{fingerprint, peak_rss_mb, snapshot, timed, Args, Outcome, Outputs};
use crimebb::ThreadId;
use ewhoring_core::pipeline::{
    stream_world, EpochCarry, EpochEngine, Pipeline, PipelineOptions, PipelineReport, RunSpec,
    StageCtx, StreamSpec,
};
use ewhoring_core::topcls::{annotation_sample_at, ANNOTATION_SAMPLE};
use std::time::Instant;
use worldgen::{epoch_bound, Feed, World};

const EPOCHS: u32 = 20;
/// Worlds a run cycles its streams over: advance costs vary by world,
/// and the mean over eight keeps that from setting the spread between
/// seeds. Every world gets at least one stream.
const WORLDS: usize = 8;

fn spec(seed: u64) -> RunSpec {
    RunSpec {
        scale: 0.05,
        seed,
        workers: 2,
        faults: 0.0,
        corruption: 0.0,
        epochs: EPOCHS,
        upto: 0,
        shards: 0,
    }
}

/// Whether the engine can stream `spec`'s world. The first advance
/// trains the stream classifier on an annotation sample of the threads
/// extracted by the epoch-1 boundary; that sample is empty when there
/// are none, or only one or two that all look promising, and the engine
/// then panics. Such worlds are skipped. The sample's size does not
/// depend on the rng, so any rng gives the same answer.
fn streamable(spec: RunSpec) -> Result<bool, String> {
    let first = StreamSpec {
        epochs: EPOCHS,
        upto: 1,
    };
    let world = stream_world(World::generate(spec.world_config()), first);
    let options = PipelineOptions {
        stream: Some(first),
        ..spec.options()
    };
    let ctx = Pipeline::new(options)
        .run_prefix(&world, 1)
        .map_err(|e| e.to_string())?;
    let bound = epoch_bound(&world.config, EPOCHS, 1);
    let fresh: Vec<ThreadId> = ctx
        .all_threads()
        .map_err(|e| e.to_string())?
        .iter()
        .copied()
        .filter(|&t| world.corpus.thread(t).created <= bound)
        .collect();
    let sample = annotation_sample_at(
        &mut synthrand::rng_from_seed(0),
        &world.corpus,
        &world.catalog,
        &fresh,
        ANNOTATION_SAMPLE,
        bound,
    );
    Ok(!sample.is_empty())
}

/// One engine stream: set-up (world generation + `EpochEngine::new`)
/// and the 20 advances, timed apart.
struct Stream {
    setup_s: f64,
    advance_s: Vec<f64>,
    engine: EpochEngine,
    /// The final advance's report; `None` when an advance failed.
    last: Option<PipelineReport>,
}

/// Runs one stream. Every advance is an operation in `tally`: one that
/// errors fails and ends the stream, and the advances it leaves unsent
/// fail too. The final advance is recorded by the caller, once its
/// report has been checked.
fn stream(spec: RunSpec, tally: &mut Tally) -> Stream {
    let (mut engine, setup_s) =
        timed(|| EpochEngine::new(World::generate(spec.world_config()), EPOCHS, spec.options()));
    let mut advance_s = Vec::with_capacity(EPOCHS as usize);
    let mut last = None;
    for e in 1..=EPOCHS {
        let (report, s) = timed(|| engine.advance());
        match report {
            Ok(report) if e == EPOCHS => last = Some(report),
            Ok(_) => tally.record(true),
            Err(err) => {
                eprintln!("perfbench: advance to epoch {e}: {err}");
                tally.record(false);
                tally.unsent((EPOCHS - e) as usize);
                break;
            }
        }
        advance_s.push(s);
    }
    Stream {
        setup_s,
        advance_s,
        engine,
        last,
    }
}

/// The final-epoch snapshot of `spec`'s world as `fresh_report()` (a
/// full recompute) gives it, on an engine of its own.
fn reference(spec: RunSpec) -> Result<String, String> {
    let mut engine = EpochEngine::new(World::generate(spec.world_config()), EPOCHS, spec.options());
    engine.advance_to(EPOCHS).map_err(|e| e.to_string())?;
    snapshot(&engine.fresh_report().map_err(|e| e.to_string())?)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut specs = Vec::with_capacity(WORLDS);
    for i in 0.. {
        let candidate = spec(args.world_seed(i));
        if streamable(candidate)? {
            specs.push(candidate);
        }
        if specs.len() == WORLDS {
            break;
        }
    }
    let mut out = Outcome::default();
    out.stamp_specs(&specs);

    let mut tally = Tally::default();
    let mut outputs = Outputs::new(WORLDS);
    let mut traced_outputs = Outputs::new(WORLDS);
    let (mut setup_s, mut advance_s, mut warm_s) = (Vec::new(), Vec::new(), Vec::new());
    // Seconds of each complete stream's 20 advances, per world.
    let mut stream_s: Vec<Vec<f64>> = vec![Vec::new(); WORLDS];
    let mut rec = Recorder::new(Instant::now(), 0);
    let mut new_threads = Vec::new();
    let (mut carry_bytes, mut last_report) = (0, None);
    let start = Instant::now();
    let mut i = 0;
    while i < WORLDS || start.elapsed() < args.window() {
        let (spec, w) = (specs[i % WORLDS], i % WORLDS);
        i += 1;
        let s = stream(spec, &mut tally);
        setup_s.push(s.setup_s);
        advance_s.extend(&s.advance_s);
        if args.trace {
            carry_bytes = serde_json::to_string(s.engine.carry())
                .map_err(|e| format!("carry does not serialize: {e}"))?
                .len();
        }
        // The engine is dropped before the snapshot is rendered, so the
        // check does not add to the streaming's memory.
        drop(s.engine);
        if let Some(last) = s.last {
            warm_s.extend(&s.advance_s[1..]);
            stream_s[w].push(s.advance_s.iter().sum::<f64>());
            outputs.push(w, &snapshot(&last)?);
            last_report = Some(last);
        }
        if args.trace {
            // A traced replay of the same stream alternates with each
            // engine stream, so the tracing overhead is not host drift.
            let world = World::generate(spec.world_config());
            match traced_stream(&mut rec, i as u64, world, spec.options(), &mut new_threads) {
                Ok(snap) => traced_outputs.push(w, &snap),
                Err(e) => {
                    eprintln!("perfbench: traced stream on world {w}: {e}");
                    tally.record(false);
                }
            }
        }
    }
    let rss = peak_rss_mb(None)?;

    // Checks, after the window: each stream's final advance must equal
    // `fresh_report()` at the final epoch. The untraced run computes that
    // reference for the first world only and checks the other worlds'
    // streams for determinism; the traced run checks every world.
    let checked = if args.trace { WORLDS } else { 1 };
    let references: Vec<Option<u64>> = (0..WORLDS)
        .map(|w| {
            (w < checked)
                .then(|| reference(specs[w]).map(|snap| fingerprint(&snap)))
                .transpose()
        })
        .collect::<Result<_, _>>()?;
    outputs.check(&references, &mut tally);
    traced_outputs.check(&references, &mut tally);

    let complete: usize = stream_s.iter().map(Vec::len).sum();
    out.raw("stream_s", &stream_s.concat());
    if !args.trace {
        let n = advance_s.len();
        out.timing("setup_s", median(&setup_s), setup_s.len());
        out.metric("peak_rss_mb", rss);
        out.timing("job_s_p50", mean_of_medians(&stream_s), complete);
        out.timing("req_per_s", n as f64 / advance_s.iter().sum::<f64>(), n);
        out.tally = tally;
        return Ok(out);
    }

    out.metric("epoch.carry_bytes", carry_bytes as f64);
    out.metric(
        "epoch.new_threads",
        new_threads.iter().sum::<usize>() as f64 / new_threads.len().max(1) as f64,
    );
    out.timing("epoch.advance_ms_p50", median(&warm_s) * 1e3, warm_s.len());
    // Warm advances only (epochs 2..=20): job ids are stream * 100 + epoch.
    let warm = |name: &str| -> Vec<f64> {
        rec.spans()
            .iter()
            .filter(|s| s.name == name && s.job % 100 > 1)
            .map(|s| s.ms())
            .collect()
    };
    let apply = warm("worldgen.feed_apply");
    out.timing("worldgen.feed_apply_ms", median(&apply), apply.len());
    for stage in Pipeline::stages() {
        let ms = warm(&format!("stage.{}", stage.name()));
        out.timing(format!("stage.{}.ms", stage.name()), median(&ms), ms.len());
    }
    if let Some(report) = &last_report {
        for t in &report.timings {
            out.metric(format!("stage.{}.items", t.stage), t.items as f64);
        }
    }
    let traced = warm("advance");
    out.timing(
        "trace.overhead_ms",
        median(&traced) - median(&warm_s) * 1e3,
        traced.len(),
    );
    let shares: Vec<f64> = rec
        .child_shares("advance")
        .into_iter()
        .filter(|(job, _)| job % 100 > 1)
        .map(|(_, r)| r)
        .collect();
    out.metric("trace.accounted_ratio", median(&shares));
    crate::write_trace(args, &rec)?;
    out.tally = tally;
    Ok(out)
}

/// Replays one `EpochEngine` stream advance by advance — the feed
/// slice applied with `Feed::apply_epoch`, the stages run one at a time
/// on a `StageCtx` holding the warm carry — with a span around each
/// piece. Job ids are `stream * 100 + epoch`. Returns the final
/// snapshot.
fn traced_stream(
    rec: &mut Recorder,
    stream: u64,
    world: World,
    options: PipelineOptions,
    new_threads: &mut Vec<usize>,
) -> Result<String, String> {
    let feed = Feed::new(world, EPOCHS);
    let mut world = feed.base_world();
    let mut carry = EpochCarry::default();
    let mut snap = String::new();
    for e in 1..=EPOCHS {
        rec.set_job(stream * 100 + u64::from(e));
        let options = PipelineOptions {
            stream: Some(StreamSpec {
                epochs: EPOCHS,
                upto: e,
            }),
            ..options
        };
        let before = world.corpus.threads().len();
        let report = rec.span("advance", |r| -> Result<PipelineReport, String> {
            r.span("worldgen.feed_apply", |_| feed.apply_epoch(&mut world, e));
            let mut ctx = StageCtx::new(&world, options);
            ctx.carry = Some(std::mem::take(&mut carry));
            for stage in Pipeline::stages() {
                r.span(&format!("stage.{}", stage.name()), |_| stage.run(&mut ctx))
                    .map_err(|err| format!("epoch {e} stage {}: {err}", stage.name()))?;
            }
            r.span("epoch.assemble", |_| {
                carry = ctx.carry.take().expect("stages keep the carry in place");
                ctx.into_report().map_err(|err| err.to_string())
            })
        })?;
        if e > 1 {
            new_threads.push(world.corpus.threads().len() - before);
        }
        if e == EPOCHS {
            snap = snapshot(&report)?;
        }
    }
    Ok(snap)
}
