//! The benchmark binary behind `perfbench/run.py`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --report-bin PATH --git-rev REV --out-dir DIR
//! ```
//!
//! Each workload times the system from outside, around calls to its
//! public functions (and, for `serve_hot`, over the TCP wire of a
//! `report serve` process), checks every output outside the timed
//! region, and prints one JSON line of raw measurements last on stdout.
//! `run.py` turns that line into the result format BENCHMARK.json
//! describes. With `--trace 1` the run records spans instead of the
//! end-to-end metrics and writes them to `--out-dir` as Chrome
//! trace-event JSON plus a flat self-time summary.
//!
//! Workloads (the seed only picks the generated world; the program
//! sees nothing but the generated inputs):
//!
//! * `batch` — one caller, closed loop: `World::generate` + unsharded
//!   `Pipeline::run` (workers 2) + `snapshot_json`, scale 0.1. Every
//!   stage does full-corpus work; provenance's index scan grows about
//!   quadratically with scale, so 0.1 lets an index change show.
//! * `sharded` — the same job through the supervised shard driver
//!   (shards 2, workers 1), scale 0.05: the only workload that runs
//!   `core::pipeline::shard` and `worldgen::partition`.
//! * `epoch_stream` — an `EpochEngine` over 20 epochs, scale 0.05,
//!   workers 2: memoized, folded deltas instead of a full corpus, so a
//!   batch-only speed-up should leave it unchanged.
//! * `serve_hot` — a `report serve` process (pool 2, journal) warmed
//!   with 3 keys, then 2 persistent connections in a closed loop over a
//!   seeded verb mix: no pipeline compute, only proto, cache,
//!   serialization and wire.
//!
//! Every workload reports the same end-to-end metrics:
//!
//! * `setup_s` — median set-up: world generation (`batch`, `sharded`),
//!   world generation + `EpochEngine::new` (`epoch_stream`), server
//!   start + warming its keys (`serve_hot`);
//! * `peak_rss_mb` — peak RSS of the process running the system: this
//!   one, or the server for `serve_hot`;
//! * `job_s_p50` — time to one complete, current report: a job
//!   (`batch`, `sharded`), a stream of 20 advances (`epoch_stream`), a
//!   `report` round trip (`serve_hot`). Each world's (key's) median,
//!   averaged over the run's worlds;
//! * `req_per_s` — jobs or advances per second of their own time;
//!   requests per second of the loop's wall time (`serve_hot`).
//!
//! A run's jobs cycle over eight worlds because costs vary by world.
//! Every job (advance, request) is an operation: one that errors or
//! whose output is wrong is `failed` of `attempted`. Outputs are checked
//! after the window, once the peak RSS has been read.

mod batch;
mod epoch;
mod replay;
mod serve;
mod stats;
mod trace;

use ewhoring_core::pipeline::{snapshot_json, PipelineReport, RunSpec};
use serde::{Map, Value};
use stats::Tally;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub report_bin: PathBuf,
    pub git_rev: String,
    pub out_dir: PathBuf,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            report_bin: PathBuf::new(),
            git_rev: "unknown".to_string(),
            out_dir: PathBuf::from(".perfbench"),
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
            let bad = |what: &str| format!("`{flag}` needs {what}, got `{value}`");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|_| bad("a number"))?;
                    if !args.seconds.is_finite() || args.seconds <= 0.0 {
                        return Err(bad("a positive number"));
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                "--report-bin" => args.report_bin = PathBuf::from(value),
                "--git-rev" => args.git_rev = value.clone(),
                "--out-dir" => args.out_dir = PathBuf::from(value),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".to_string());
        }
        Ok(args)
    }

    /// The measured window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// The seed of this run's `i`-th world: the benchmark seed mixed,
    /// so neighbouring benchmark seeds give unrelated worlds.
    pub fn world_seed(&self, i: u64) -> u64 {
        mix64(mix64(self.seed) ^ i)
    }
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    /// `(name, value)` measurements, in emission order.
    pub metrics: Vec<(String, f64)>,
    /// `(timing name, sample count)` for every timing reported.
    pub samples: Vec<(String, usize)>,
    /// `(key, value)` configuration stamp of the workload.
    pub config: Vec<(String, String)>,
    /// `(name, samples)`: raw timings, kept in the stamped result only.
    pub raw: Vec<(String, Vec<f64>)>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// A timing metric together with the number of samples behind it.
    pub fn timing(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        let name = name.into();
        self.samples.push((name.clone(), samples));
        self.metrics.push((name, value));
    }

    pub fn config(&mut self, key: &str, value: impl ToString) {
        self.config.push((key.to_string(), value.to_string()));
    }

    /// Stamps the run's scale, workers, shards and epochs (shared by its
    /// specs) and every world seed it used.
    pub fn stamp_specs(&mut self, specs: &[RunSpec]) {
        let s = specs[0];
        self.config("scale", s.scale);
        self.config("workers", s.workers);
        self.config("shards", s.shards);
        self.config("epochs", s.epochs);
        let seeds: Vec<String> = specs.iter().map(|s| s.seed.to_string()).collect();
        self.config("world_seeds", seeds.join(","));
    }

    pub fn raw(&mut self, name: &str, samples: &[f64]) {
        self.raw.push((name.to_string(), samples.to_vec()));
    }
}

/// The determinism snapshot of `report`.
pub fn snapshot(report: &PipelineReport) -> Result<String, String> {
    snapshot_json(report).map_err(|e| e.to_string())
}

/// A fingerprint of a snapshot, so a run can keep one per output for
/// checks after its window without holding every snapshot in memory.
pub fn fingerprint(snapshot: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    snapshot.hash(&mut h);
    h.finish()
}

/// Output fingerprints of a run's operations, per world. They are
/// checked once the window has closed, against references computed then,
/// so the checks run neither in the timed region nor before the run's
/// peak RSS is read.
pub struct Outputs(Vec<Vec<u64>>);

impl Outputs {
    pub fn new(worlds: usize) -> Outputs {
        Outputs(vec![Vec::new(); worlds])
    }

    pub fn push(&mut self, world: usize, snapshot: &str) {
        self.0[world].push(fingerprint(snapshot));
    }

    /// Each world's first output, where it has one.
    pub fn firsts(&self) -> Vec<Option<u64>> {
        self.0.iter().map(|o| o.first().copied()).collect()
    }

    /// Records every output in `tally`: an output of world `w` is correct
    /// when it equals `references[w]`. A world without a reference is
    /// checked for determinism instead: each output must equal the
    /// world's first.
    pub fn check(&self, references: &[Option<u64>], tally: &mut Tally) {
        for (outputs, reference) in self.0.iter().zip(references) {
            let Some(&first) = outputs.first() else {
                continue;
            };
            let reference = reference.unwrap_or(first);
            for &fp in outputs {
                tally.record(fp == reference);
            }
        }
    }
}

/// splitmix64: a stateless mixer for seeds and schedules.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Runs `f` and returns its result with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Peak resident set size of process `pid` (this process for `None`),
/// in MB, from the kernel's `VmHWM`.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

fn render(args: &Args, outcome: &Outcome, wall_s: f64) -> String {
    let object = |pairs: Vec<(String, Value)>| {
        let mut map = Map::new();
        for (k, v) in pairs {
            map.insert(k, v);
        }
        Value::Object(map)
    };
    let str = |s: &str| Value::Str(s.to_string());
    let count = |n: usize| Value::UInt(n as u128);
    let metrics = outcome
        .metrics
        .iter()
        .map(|(k, v)| (k.clone(), Value::Float(*v)))
        .collect();
    let samples = outcome
        .samples
        .iter()
        .map(|(k, n)| (k.clone(), count(*n)))
        .collect();
    let raw = outcome
        .raw
        .iter()
        .map(|(k, values)| {
            let values = values.iter().map(|&v| Value::Float(v)).collect();
            (k.clone(), Value::Array(values))
        })
        .collect();
    let mut stamp = vec![
        ("workload".to_string(), str(&args.workload)),
        ("seed".to_string(), Value::UInt(u128::from(args.seed))),
        ("seconds".to_string(), Value::Float(args.seconds)),
        ("trace".to_string(), Value::Bool(args.trace)),
        ("git_rev".to_string(), str(&args.git_rev)),
        (
            "nproc".to_string(),
            count(std::thread::available_parallelism().map_or(0, |n| n.get())),
        ),
        ("wall_s".to_string(), Value::Float(wall_s)),
    ];
    stamp.extend(outcome.config.iter().map(|(k, v)| (k.clone(), str(v))));
    let tally = outcome.tally;
    serde::render(&object(vec![
        (
            "correct".to_string(),
            Value::Bool(tally.failed == 0 && tally.attempted > 0),
        ),
        ("attempted".to_string(), count(tally.attempted)),
        ("failed".to_string(), count(tally.failed)),
        ("error_ratio".to_string(), Value::Float(tally.error_ratio())),
        ("metrics".to_string(), object(metrics)),
        ("samples".to_string(), object(samples)),
        ("raw".to_string(), object(raw)),
        ("stamp".to_string(), object(stamp)),
    ]))
}

/// Writes the traced run's spans under `--out-dir`.
pub fn write_trace(args: &Args, rec: &trace::Recorder) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    for (file, text) in [
        (format!("trace-{stem}.json"), rec.chrome_json()),
        (format!("spans-{stem}.tsv"), rec.summary_tsv()),
    ] {
        let path = args.out_dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("perfbench: wrote {}", path.display());
    }
    Ok(())
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "batch" => batch::run(args, batch::Mode::Batch),
        "sharded" => batch::run(args, batch::Mode::Sharded),
        "epoch_stream" => epoch::run(args),
        "serve_hot" => serve::run(args),
        other => Err(format!(
            "unknown workload `{other}` (expected batch, sharded, epoch_stream or serve_hot)"
        )),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let t = Instant::now();
    match run(&args) {
        Ok(outcome) => println!("{}", render(&args, &outcome, t.elapsed().as_secs_f64())),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_are_checked_against_references_or_their_first() {
        let mut outputs = Outputs::new(3);
        outputs.push(0, "a");
        outputs.push(0, "b");
        outputs.push(1, "x");
        outputs.push(1, "x");
        outputs.push(1, "y");
        // World 0 has a reference: its "b" output fails. World 1 has
        // none: its outputs must repeat its first, and "y" does not.
        // World 2 produced nothing and records nothing.
        let mut tally = Tally::default();
        outputs.check(&[Some(fingerprint("a")), None, Some(0)], &mut tally);
        assert_eq!(
            tally,
            Tally {
                attempted: 5,
                failed: 2
            }
        );
        assert_eq!(
            outputs.firsts(),
            vec![Some(fingerprint("a")), Some(fingerprint("x")), None]
        );
    }
}
