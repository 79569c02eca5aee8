//! Subcommand parser for the `report` binary.
//!
//! The binary grew from a one-shot batch tool into a pipeline service,
//! and the CLI grew with it: a [`Command`] enum with `report` / `serve`
//! / `loadgen` / `bench` variants (shape modeled on elodin's
//! `Build/Run/Plan/Bench` clap enum, hand-implemented over
//! `std::env::args` because the offline stub workspace carries no
//! clap). `report.rs` itself is a thin dispatcher over the parsed
//! [`Command`].
//!
//! Unlike the old hand-rolled flag loop, parsing is *strict*: an
//! unknown flag (`--workes`), a malformed numeric value, a flag missing
//! its argument, or a surplus positional is a [`CliError`] that the
//! dispatcher renders with the usage text and a nonzero exit code —
//! nothing is silently swallowed.
//!
//! Invocations whose first argument is not a subcommand name parse as
//! the legacy batch form (`report -- 0.3 0xSEED --flags…`), so every
//! pre-service script keeps working.

use ewhoring_core::pipeline::{RunSpec, ShardPoison};
use std::fmt;

/// A rejected command line: what was wrong, in one line. The dispatcher
/// prints it with [`usage`] and exits nonzero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error: {}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// The usage text printed on `help` and on every [`CliError`].
pub fn usage() -> &'static str {
    "usage: report [SUBCOMMAND] [OPTIONS]

subcommands:
  report   (default)  one pipeline run (batch, sharded or streamed), report to stdout
           [scale] [seed] [--workers N] [--faults S] [--corruption S]
           [--epochs K] [--upto E] [--incremental]
           [--shards N] [--poison-shard K] [--poison-panics M] [--poison-severity S]
           [--json PATH] [--snapshot-json PATH] [--bench-json PATH]
           [--journal-dir PATH] [--resume] [--stop-after N] [--intervention]
           scale > 0, severities >= 0; --journal-dir checkpoints every stage
           (every epoch with --incremental; --stop-after needs the stage loop)
  serve    long-running pipeline service (line-delimited JSON over TCP)
           [--addr HOST:PORT] [--pool N] [--journal-dir PATH] [--port-file PATH]
  loadgen  fire a seeded hot/cold request mix at a running server
           --addr HOST:PORT [--clients K] [--requests N] [--hot-ratio R]
           [--scale S] [--seed SEED] [--cold-keys N] [--workers N]
           [--out PATH] [--snapshot-out PATH] [--shutdown]
  bench    workers=1 vs workers=N baseline, written as BENCH_pipeline.json
           [--scale S] [--seed SEED] [--workers N] [--out PATH]
           [--gate-floor ITEMS_PER_SEC]
  bench epoch
           epoch-advance delta vs full recompute, written as BENCH_epoch.json
           [--scale S] [--seed SEED] [--workers N] [--epochs K] [--out PATH]
           [--gate-floor FINAL_EPOCH_SPEEDUP] [--flat-ceiling RATIO]
  bench shard
           supervised sharded run vs the unsharded driver, written as
           BENCH_shard.json; fails hard if their snapshots differ
           [--scale S] [--seed SEED] [--workers N] [--shards N] [--out PATH]
           [--gate-floor SHARDED_OVER_UNSHARDED_RATIO]
  help     this text"
}

/// Batch-run arguments (the legacy surface of the binary).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReportArgs {
    /// The run itself: scale/seed/workers/faults/corruption.
    pub spec: RunSpec,
    /// `--json`: dump the raw `PipelineReport`.
    pub json: Option<String>,
    /// `--bench-json`: also rerun at workers=1 and write the baseline.
    pub bench_json: Option<String>,
    /// `--snapshot-json`: write the determinism snapshot.
    pub snapshot_json: Option<String>,
    /// `--journal-dir`: checkpoint every stage under this directory.
    pub journal_dir: Option<String>,
    /// `--resume`: trust the journaled prefix instead of clearing it.
    pub resume: bool,
    /// `--stop-after N`: exit after N stages (simulated crash).
    pub stop_after: Option<usize>,
    /// `--intervention`: append the §8 countermeasure simulations.
    pub intervention: bool,
    /// `--incremental`: drive a streamed spec (`--epochs K`) through the
    /// epoch engine, one warm advance per epoch, instead of one full
    /// stream-mode recompute.
    pub incremental: bool,
    /// `--poison-shard K` (+ `--poison-panics` / `--poison-severity`):
    /// inject a calibrated fault into shard `K` of a sharded run, to
    /// exercise the restart and quarantine paths from the CLI.
    pub poison: Option<ShardPoison>,
}

/// `serve` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Bind address; port `0` asks the OS for an ephemeral port.
    pub addr: String,
    /// Worker-thread pool size (concurrent connections served).
    pub pool: usize,
    /// Journal root backing the result cache (`None` = memory only).
    pub journal_dir: Option<String>,
    /// File to write the actually-bound `host:port` to (for scripts
    /// that asked for an ephemeral port).
    pub port_file: Option<String>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            addr: "127.0.0.1:4119".to_string(),
            pool: 4,
            journal_dir: None,
            port_file: None,
        }
    }
}

/// `loadgen` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadGenArgs {
    /// Server to fire at.
    pub addr: String,
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests per client.
    pub requests: usize,
    /// Fraction of requests aimed at the single hot (cache-hit) spec.
    pub hot_ratio: f64,
    /// Scale of every generated spec.
    pub scale: f64,
    /// Base seed: the hot spec uses it verbatim, cold specs derive from
    /// it; also seeds the hot/cold mix shuffle.
    pub seed: u64,
    /// Distinct cold (cache-miss) seeds to rotate through.
    pub cold_keys: usize,
    /// Workers requested per run.
    pub workers: usize,
    /// Where to write the latency/throughput summary
    /// (`BENCH_serve.json`).
    pub out: Option<String>,
    /// Fetch the hot spec's report over the wire and write its snapshot
    /// here (the smoke test `cmp`s it against a batch run).
    pub snapshot_out: Option<String>,
    /// Send `shutdown` after the run.
    pub shutdown: bool,
}

impl Default for LoadGenArgs {
    fn default() -> Self {
        LoadGenArgs {
            addr: String::new(),
            clients: 4,
            requests: 25,
            hot_ratio: 0.8,
            scale: 0.02,
            seed: 0xE400_2019,
            cold_keys: 3,
            workers: 1,
            out: None,
            snapshot_out: None,
            shutdown: false,
        }
    }
}

/// `bench` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Scale of the benched world.
    pub scale: f64,
    /// World seed.
    pub seed: u64,
    /// The parallel worker count compared against workers=1.
    pub workers: usize,
    /// Output path for the baseline JSON.
    pub out: String,
    /// Performance gate. In the worker-scaling mode: fail unless the
    /// serial (workers=1) `measure_images` rate reaches this many
    /// items/sec. In `bench epoch` mode: fail unless the final-epoch
    /// warm advance is at least this many times faster than the full
    /// recompute. The committed floors live in `BENCH_floor.txt`.
    pub gate_floor: Option<f64>,
    /// `--flat-ceiling R` (epoch mode): fail unless the final warm
    /// advance's cost per new eWhoring thread is at most `R` times the
    /// median per-thread cost of the earlier warm advances. Guards the
    /// O(epoch delta) property itself: a fold that silently regresses
    /// to re-scanning the corpus inflates the final epoch's per-thread
    /// cost by the corpus/delta factor and trips this even while the
    /// speedup floor still passes. Committed ceiling: `epoch-flat` in
    /// `BENCH_floor.txt`.
    pub flat_ceiling: Option<f64>,
    /// `bench epoch`: measure warm epoch advances against fresh full
    /// recomputes instead of the worker-scaling baseline.
    pub epoch: bool,
    /// `--epochs K` (epoch mode): how many slices to advance through.
    pub epochs: u32,
    /// `bench shard`: measure the supervised sharded driver against
    /// the unsharded run (and hard-gate on snapshot equality).
    pub shard: bool,
    /// `--shards N` (shard mode): shard count for the sharded leg.
    pub shards: usize,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            scale: 0.05,
            seed: 0xE400_2019,
            workers: 4,
            out: "BENCH_pipeline.json".to_string(),
            gate_floor: None,
            flat_ceiling: None,
            epoch: false,
            epochs: 6,
            shard: false,
            shards: 5,
        }
    }
}

/// One parsed invocation of the binary.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Batch run (the default when no subcommand is named).
    Report(ReportArgs),
    /// Long-running service.
    Serve(ServeArgs),
    /// Load-generator client.
    LoadGen(LoadGenArgs),
    /// Worker-scaling baseline.
    Bench(BenchArgs),
    /// Print usage and exit 0.
    Help,
}

impl Command {
    /// Parses a full argument list (without the program name). Every
    /// malformed input is a [`CliError`]; nothing is ignored.
    pub fn parse(args: &[String]) -> Result<Command, CliError> {
        match args.first().map(String::as_str) {
            Some("report") => Ok(Command::Report(parse_report(&args[1..])?)),
            Some("serve") => Ok(Command::Serve(parse_serve(&args[1..])?)),
            Some("loadgen") => Ok(Command::LoadGen(parse_loadgen(&args[1..])?)),
            Some("bench") => Ok(Command::Bench(parse_bench(&args[1..])?)),
            Some("help" | "--help" | "-h") => Ok(Command::Help),
            // Legacy batch form: `report -- 0.3 0xSEED --flags…`.
            _ => Ok(Command::Report(parse_report(args)?)),
        }
    }
}

/// Pulls the value after `flag`, or errors naming the flag.
fn take_value<'a>(
    flag: &str,
    it: &mut std::slice::Iter<'a, String>,
) -> Result<&'a String, CliError> {
    match it.next() {
        Some(v) => Ok(v),
        None => err(format!("`{flag}` requires a value")),
    }
}

/// Parses `raw` as `T` for `flag`, or errors with both.
fn parse_num<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, CliError> {
    raw.parse()
        .map_err(|_| CliError(format!("`{flag}` got malformed value `{raw}`")))
}

/// Seeds accept decimal or `0x`-prefixed hex.
fn parse_seed(flag: &str, raw: &str) -> Result<u64, CliError> {
    if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
            .map_err(|_| CliError(format!("`{flag}` got malformed hex seed `{raw}`")))
    } else {
        parse_num(flag, raw)
    }
}

fn parse_report(args: &[String]) -> Result<ReportArgs, CliError> {
    let mut out = ReportArgs::default();
    let mut positional = 0;
    let mut poison_shard: Option<u32> = None;
    let mut poison_panics: u32 = 1;
    let mut poison_severity: f64 = 0.0;
    let mut poison_tuning = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => out.json = Some(take_value(arg, &mut it)?.clone()),
            "--bench-json" => out.bench_json = Some(take_value(arg, &mut it)?.clone()),
            "--snapshot-json" => out.snapshot_json = Some(take_value(arg, &mut it)?.clone()),
            "--journal-dir" => out.journal_dir = Some(take_value(arg, &mut it)?.clone()),
            "--resume" => out.resume = true,
            "--stop-after" => out.stop_after = Some(parse_num(arg, take_value(arg, &mut it)?)?),
            "--workers" => out.spec.workers = parse_num(arg, take_value(arg, &mut it)?)?,
            "--intervention" => out.intervention = true,
            "--faults" => out.spec.faults = parse_num(arg, take_value(arg, &mut it)?)?,
            "--corruption" => out.spec.corruption = parse_num(arg, take_value(arg, &mut it)?)?,
            "--epochs" => out.spec.epochs = parse_num(arg, take_value(arg, &mut it)?)?,
            "--upto" => out.spec.upto = parse_num(arg, take_value(arg, &mut it)?)?,
            "--incremental" => out.incremental = true,
            "--shards" => out.spec.shards = parse_num(arg, take_value(arg, &mut it)?)?,
            "--poison-shard" => poison_shard = Some(parse_num(arg, take_value(arg, &mut it)?)?),
            "--poison-panics" => {
                poison_panics = parse_num(arg, take_value(arg, &mut it)?)?;
                poison_tuning = true;
            }
            "--poison-severity" => {
                poison_severity = parse_num(arg, take_value(arg, &mut it)?)?;
                poison_tuning = true;
            }
            flag if flag.starts_with('-') => return err(format!("unknown flag `{flag}`")),
            _ => {
                match positional {
                    0 => out.spec.scale = parse_num("scale", arg)?,
                    1 => out.spec.seed = parse_seed("seed", arg)?,
                    _ => return err(format!("unexpected extra positional `{arg}`")),
                }
                positional += 1;
            }
        }
    }
    if out.incremental && out.spec.epochs == 0 {
        return err("`--incremental` requires `--epochs K`");
    }
    if out.incremental && out.stop_after.is_some() {
        return err("`--stop-after` stops the stage loop; `--incremental` advances epochs instead");
    }
    if out.journal_dir.is_none() {
        if out.stop_after.is_some() {
            return err(
                "`--stop-after` requires `--journal-dir PATH` (it checkpoints the stages it ran)",
            );
        }
        if out.resume {
            return err("`--resume` requires `--journal-dir PATH` (it resumes from the journal)");
        }
    }
    out.spec.validate().map_err(CliError)?;
    match poison_shard {
        Some(shard) => {
            if out.spec.shards == 0 {
                return err("`--poison-shard` requires `--shards N`");
            }
            if shard as usize >= out.spec.shards {
                return err(format!(
                    "`--poison-shard {shard}` is out of range for `--shards {}`",
                    out.spec.shards
                ));
            }
            out.poison = Some(ShardPoison {
                shard,
                panics: poison_panics,
                severity: poison_severity,
            });
        }
        None if poison_tuning => {
            return err("`--poison-panics`/`--poison-severity` require `--poison-shard K`");
        }
        None => {}
    }
    Ok(out)
}

fn parse_serve(args: &[String]) -> Result<ServeArgs, CliError> {
    let mut out = ServeArgs::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => out.addr = take_value(arg, &mut it)?.clone(),
            "--pool" => {
                out.pool = parse_num(arg, take_value(arg, &mut it)?)?;
                if out.pool == 0 {
                    return err("`--pool` must be at least 1");
                }
            }
            "--journal-dir" => out.journal_dir = Some(take_value(arg, &mut it)?.clone()),
            "--port-file" => out.port_file = Some(take_value(arg, &mut it)?.clone()),
            other => return err(format!("unknown serve argument `{other}`")),
        }
    }
    Ok(out)
}

fn parse_loadgen(args: &[String]) -> Result<LoadGenArgs, CliError> {
    let mut out = LoadGenArgs::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => out.addr = take_value(arg, &mut it)?.clone(),
            "--clients" => out.clients = parse_num(arg, take_value(arg, &mut it)?)?,
            "--requests" => out.requests = parse_num(arg, take_value(arg, &mut it)?)?,
            "--hot-ratio" => {
                out.hot_ratio = parse_num(arg, take_value(arg, &mut it)?)?;
                if !(0.0..=1.0).contains(&out.hot_ratio) {
                    return err("`--hot-ratio` must be within [0, 1]");
                }
            }
            "--scale" => out.scale = parse_num(arg, take_value(arg, &mut it)?)?,
            "--seed" => out.seed = parse_seed(arg, take_value(arg, &mut it)?)?,
            "--cold-keys" => {
                out.cold_keys = parse_num(arg, take_value(arg, &mut it)?)?;
                if out.cold_keys == 0 {
                    return err("`--cold-keys` must be at least 1");
                }
            }
            "--workers" => out.workers = parse_num(arg, take_value(arg, &mut it)?)?,
            "--out" => out.out = Some(take_value(arg, &mut it)?.clone()),
            "--snapshot-out" => out.snapshot_out = Some(take_value(arg, &mut it)?.clone()),
            "--shutdown" => out.shutdown = true,
            other => return err(format!("unknown loadgen argument `{other}`")),
        }
    }
    if out.addr.is_empty() {
        return err("loadgen requires `--addr HOST:PORT`");
    }
    if out.clients == 0 {
        return err("`--clients` must be at least 1");
    }
    Ok(out)
}

fn parse_bench(args: &[String]) -> Result<BenchArgs, CliError> {
    let mut out = BenchArgs::default();
    // `bench epoch` switches modes (and the default output path) before
    // the flag loop so `--out` can still override it.
    let mut args = args;
    if args.first().map(String::as_str) == Some("epoch") {
        out.epoch = true;
        out.out = "BENCH_epoch.json".to_string();
        args = &args[1..];
    } else if args.first().map(String::as_str) == Some("shard") {
        out.shard = true;
        out.out = "BENCH_shard.json".to_string();
        args = &args[1..];
    }
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => out.scale = parse_num(arg, take_value(arg, &mut it)?)?,
            "--seed" => out.seed = parse_seed(arg, take_value(arg, &mut it)?)?,
            "--workers" => out.workers = parse_num(arg, take_value(arg, &mut it)?)?,
            "--out" => out.out = take_value(arg, &mut it)?.clone(),
            "--gate-floor" => out.gate_floor = Some(parse_num(arg, take_value(arg, &mut it)?)?),
            "--flat-ceiling" if out.epoch => {
                out.flat_ceiling = Some(parse_num(arg, take_value(arg, &mut it)?)?);
            }
            "--epochs" if out.epoch => {
                out.epochs = parse_num(arg, take_value(arg, &mut it)?)?;
                if out.epochs == 0 {
                    return err("`--epochs` must be at least 1");
                }
            }
            "--shards" if out.shard => {
                out.shards = parse_num(arg, take_value(arg, &mut it)?)?;
                if out.shards == 0 {
                    return err("`--shards` must be at least 1");
                }
            }
            other => return err(format!("unknown bench argument `{other}`")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn legacy_batch_form_still_parses() {
        let cmd = Command::parse(&args(&[
            "0.02",
            "0xDEADBEEF",
            "--workers",
            "2",
            "--snapshot-json",
            "snap.json",
        ]))
        .expect("legacy form parses");
        let Command::Report(report) = cmd else {
            panic!("expected Report, got {cmd:?}");
        };
        assert_eq!(report.spec.scale, 0.02);
        assert_eq!(report.spec.seed, 0xDEAD_BEEF);
        assert_eq!(report.spec.workers, 2);
        assert_eq!(report.snapshot_json.as_deref(), Some("snap.json"));
    }

    /// The regression the refactor exists for: the old loop treated a
    /// typo'd flag as a positional and silently mis-parsed the line.
    #[test]
    fn misspelled_flag_is_a_usage_error() {
        let e = Command::parse(&args(&["--workes", "4"])).unwrap_err();
        assert!(e.0.contains("unknown flag `--workes`"), "{e}");
    }

    #[test]
    fn malformed_faults_value_is_a_usage_error() {
        let e = Command::parse(&args(&["--faults", "calibrated"])).unwrap_err();
        assert!(
            e.0.contains("--faults") && e.0.contains("calibrated"),
            "{e}"
        );
    }

    #[test]
    fn flag_missing_its_value_is_a_usage_error() {
        let e = Command::parse(&args(&["--workers"])).unwrap_err();
        assert!(e.0.contains("requires a value"), "{e}");
    }

    #[test]
    fn surplus_positionals_are_rejected() {
        let e = Command::parse(&args(&["0.3", "7", "9"])).unwrap_err();
        assert!(e.0.contains("extra positional"), "{e}");
    }

    #[test]
    fn serve_and_loadgen_forms_parse() {
        let cmd = Command::parse(&args(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--pool",
            "8",
            "--journal-dir",
            ".journals/svc",
        ]))
        .expect("serve parses");
        assert_eq!(
            cmd,
            Command::Serve(ServeArgs {
                addr: "127.0.0.1:0".into(),
                pool: 8,
                journal_dir: Some(".journals/svc".into()),
                port_file: None,
            })
        );

        let cmd = Command::parse(&args(&[
            "loadgen",
            "--addr",
            "127.0.0.1:4119",
            "--clients",
            "2",
            "--requests",
            "10",
            "--hot-ratio",
            "0.5",
            "--shutdown",
        ]))
        .expect("loadgen parses");
        let Command::LoadGen(lg) = cmd else {
            panic!("expected LoadGen");
        };
        assert_eq!((lg.clients, lg.requests), (2, 10));
        assert!(lg.shutdown);
    }

    #[test]
    fn loadgen_without_addr_is_rejected() {
        let e = Command::parse(&args(&["loadgen", "--clients", "2"])).unwrap_err();
        assert!(e.0.contains("--addr"), "{e}");
    }

    #[test]
    fn bench_subcommand_parses_with_defaults() {
        let cmd = Command::parse(&args(&["bench", "--scale", "0.05"])).expect("bench parses");
        let Command::Bench(b) = cmd else {
            panic!("expected Bench");
        };
        assert_eq!(b.scale, 0.05);
        assert_eq!(b.out, "BENCH_pipeline.json");
    }

    #[test]
    fn epoch_flags_parse_and_are_validated() {
        let cmd = Command::parse(&args(&[
            "0.02",
            "7",
            "--epochs",
            "4",
            "--upto",
            "2",
            "--incremental",
        ]))
        .expect("streamed report form parses");
        let Command::Report(report) = cmd else {
            panic!("expected Report");
        };
        assert_eq!((report.spec.epochs, report.spec.upto), (4, 2));
        assert!(report.incremental);

        let e = Command::parse(&args(&["--incremental"])).unwrap_err();
        assert!(e.0.contains("--epochs"), "{e}");
        let e = Command::parse(&args(&["--upto", "2"])).unwrap_err();
        assert!(e.0.contains("--epochs"), "{e}");
    }

    #[test]
    fn bench_epoch_mode_parses() {
        let cmd = Command::parse(&args(&[
            "bench",
            "epoch",
            "--scale",
            "0.05",
            "--epochs",
            "3",
            "--gate-floor",
            "3.0",
            "--flat-ceiling",
            "1.5",
        ]))
        .expect("bench epoch parses");
        let Command::Bench(b) = cmd else {
            panic!("expected Bench");
        };
        assert!(b.epoch);
        assert_eq!(b.epochs, 3);
        assert_eq!(b.out, "BENCH_epoch.json", "epoch mode default output");
        assert_eq!(b.gate_floor, Some(3.0));
        assert_eq!(b.flat_ceiling, Some(1.5));

        // `--epochs` and `--flat-ceiling` belong to epoch mode only.
        let e = Command::parse(&args(&["bench", "--epochs", "3"])).unwrap_err();
        assert!(e.0.contains("unknown bench argument"), "{e}");
        let e = Command::parse(&args(&["bench", "--flat-ceiling", "1.5"])).unwrap_err();
        assert!(e.0.contains("unknown bench argument"), "{e}");
    }

    #[test]
    fn shard_flags_parse_and_are_validated() {
        let cmd = Command::parse(&args(&[
            "0.02",
            "7",
            "--shards",
            "5",
            "--poison-shard",
            "2",
            "--poison-panics",
            "3",
            "--poison-severity",
            "1.0",
        ]))
        .expect("sharded report form parses");
        let Command::Report(report) = cmd else {
            panic!("expected Report");
        };
        assert_eq!(report.spec.shards, 5);
        let poison = report.poison.expect("poison parsed");
        assert_eq!((poison.shard, poison.panics), (2, 3));
        assert_eq!(poison.severity, 1.0);

        let e = Command::parse(&args(&["--poison-shard", "0"])).unwrap_err();
        assert!(e.0.contains("--shards"), "{e}");
        let e = Command::parse(&args(&["--poison-panics", "2"])).unwrap_err();
        assert!(e.0.contains("--poison-shard"), "{e}");
        let e = Command::parse(&args(&["--shards", "2", "--poison-shard", "2"])).unwrap_err();
        assert!(e.0.contains("out of range"), "{e}");
        let e = Command::parse(&args(&["--shards", "2", "--epochs", "3"])).unwrap_err();
        assert!(e.0.contains("batch-only"), "{e}");
        // A sharded run journals and resumes like any other run.
        let cmd = Command::parse(&args(&["--shards", "2", "--journal-dir", ".j"]))
            .expect("sharded journaled form parses");
        let Command::Report(report) = cmd else {
            panic!("expected Report");
        };
        assert_eq!(report.spec.shards, 2);
        assert_eq!(report.journal_dir.as_deref(), Some(".j"));
    }

    #[test]
    fn specs_the_pipeline_cannot_run_are_usage_errors() {
        for (argv, field) in [
            (&["0"][..], "scale"),
            (&["0.0"][..], "scale"),
            (&["NaN"][..], "scale"),
            (&["inf"][..], "scale"),
            (&["0.02", "--faults", "-1"][..], "faults"),
            (&["0.02", "--faults", "NaN"][..], "faults"),
            (&["0.02", "--corruption", "-0.1"][..], "corruption"),
            (&["0.02", "--corruption", "inf"][..], "corruption"),
        ] {
            let e = Command::parse(&args(argv)).unwrap_err();
            assert!(e.0.contains(&format!("`{field}`")), "{argv:?}: {e}");
        }
        let e = Command::parse(&args(&[
            "--epochs",
            "3",
            "--incremental",
            "--journal-dir",
            ".j",
            "--stop-after",
            "2",
        ]))
        .unwrap_err();
        assert!(e.0.contains("--stop-after"), "{e}");
        // Both journal flags mean nothing without a journal: refused,
        // not silently ignored by a full run.
        for flag in [&["--stop-after", "2"][..], &["--resume"][..]] {
            let argv: Vec<&str> = ["0.02", "1"].iter().chain(flag).copied().collect();
            let e = Command::parse(&args(&argv)).unwrap_err();
            assert!(
                e.0.contains(flag[0]) && e.0.contains("--journal-dir"),
                "{e}"
            );
        }
    }

    #[test]
    fn bench_shard_mode_parses() {
        let cmd = Command::parse(&args(&[
            "bench",
            "shard",
            "--scale",
            "0.05",
            "--shards",
            "3",
            "--gate-floor",
            "0.25",
        ]))
        .expect("bench shard parses");
        let Command::Bench(b) = cmd else {
            panic!("expected Bench");
        };
        assert!(b.shard);
        assert_eq!(b.shards, 3);
        assert_eq!(b.out, "BENCH_shard.json", "shard mode default output");
        assert_eq!(b.gate_floor, Some(0.25));

        // `--shards` belongs to shard mode only.
        let e = Command::parse(&args(&["bench", "--shards", "3"])).unwrap_err();
        assert!(e.0.contains("unknown bench argument"), "{e}");
    }

    #[test]
    fn help_is_not_an_error() {
        assert_eq!(Command::parse(&args(&["help"])), Ok(Command::Help));
        assert_eq!(Command::parse(&args(&["--help"])), Ok(Command::Help));
    }
}
