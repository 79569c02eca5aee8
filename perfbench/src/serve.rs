//! The `serve_hot` workload: a `report serve` process warmed with
//! [`KEYS`] runs, then a closed loop over [`CONNECTIONS`] persistent
//! connections sending a seeded verb mix. After set-up there is no
//! pipeline compute left, so the loop measures proto, cache,
//! serialization and the wire.
//!
//! Each request line goes out in a single write (line and `\n`
//! together). A client that writes the line and the newline separately
//! adds its own Nagle/delayed-ACK stall to every round trip; with one
//! write, what remains beyond the server's in-process work
//! (`wire.residual_ms_p50.<verb>`) is the server side's.

use crate::mix64;
use crate::stats::{mean_of_medians, median, tail_percentile, Tally};
use crate::trace::Recorder;
use crate::{peak_rss_mb, snapshot, timed, Args, Outcome};
use ewhoring_bench::proto::{Request, Response};
use ewhoring_core::pipeline::{snapshot_json, RunCache, RunSpec};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SCALE: f64 = 0.05;
/// Warm run keys (distinct world seeds).
pub const KEYS: usize = 3;
const CONNECTIONS: usize = 2;
const POOL: usize = 2;
/// Server start-ups in set-up; `setup_s` is their median and the last
/// server is the one measured.
const SETUPS: usize = 3;
/// Repetitions of each in-process measurement in the traced run.
const REPS: usize = 20;

/// A wire verb of the verb mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Run,
    Report,
    Status,
    Health,
}

impl Verb {
    pub const ALL: [Verb; 4] = [Verb::Run, Verb::Report, Verb::Status, Verb::Health];

    pub fn name(self) -> &'static str {
        match self {
            Verb::Run => "run",
            Verb::Report => "report",
            Verb::Status => "status",
            Verb::Health => "health",
        }
    }
}

/// Verb and key index of request `slot` on connection `conn`: about half
/// `run` hits, a third `report`, the rest split between `status` and
/// `health`, over [`KEYS`] keys. A pure function of its arguments, so a
/// seed replays the same schedule.
pub fn schedule(seed: u64, conn: usize, slot: usize) -> (Verb, usize) {
    let draw = mix64(seed ^ ((conn as u64) << 40) ^ slot as u64);
    let uniform = (draw >> 11) as f64 / (1u64 << 53) as f64;
    let verb = if uniform < 6.0 / 12.0 {
        Verb::Run
    } else if uniform < 10.0 / 12.0 {
        Verb::Report
    } else if uniform < 11.0 / 12.0 {
        Verb::Status
    } else {
        Verb::Health
    };
    (verb, (mix64(draw) % KEYS as u64) as usize)
}

fn key_spec(seed: u64) -> RunSpec {
    RunSpec {
        scale: SCALE,
        seed,
        workers: 2,
        faults: 0.0,
        corruption: 0.0,
        epochs: 0,
        upto: 0,
        shards: 0,
    }
}

/// A persistent wire connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends `line` plus its newline in one write and reads one response
    /// line; returns it with the round trip in ms.
    fn call(&mut self, line: &str) -> Result<(String, f64), String> {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        let t = Instant::now();
        self.writer
            .write_all(buf.as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
        let mut response = String::new();
        self.reader
            .read_line(&mut response)
            .map_err(|e| format!("recv failed: {e}"))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if response.is_empty() {
            return Err("server closed the connection".to_string());
        }
        Ok((response, ms))
    }
}

/// A running `report serve` child. Dropping it kills the child, waits
/// for it and removes its directory, so no error path leaves a server
/// (or its journal) behind.
struct Server {
    child: Child,
    addr: String,
    dir: PathBuf,
    journal: PathBuf,
}

impl Server {
    fn start(report_bin: &Path, dir: &Path) -> Result<Server, String> {
        let _ = std::fs::remove_dir_all(dir);
        let journal = dir.join("journal");
        std::fs::create_dir_all(&journal)
            .map_err(|e| format!("cannot create {}: {e}", journal.display()))?;
        let port_file = dir.join("port");
        let child = Command::new(report_bin)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--pool", &POOL.to_string()])
            .arg("--journal-dir")
            .arg(&journal)
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", report_bin.display()))?;
        let mut server = Server {
            child,
            addr: String::new(),
            dir: dir.to_path_buf(),
            journal,
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if text.trim().parse::<std::net::SocketAddr>().is_ok() {
                    server.addr = text.trim().to_string();
                    return Ok(server);
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("server did not announce its port within 60 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to shut down and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let mut conn = Conn::connect(&self.addr)?;
        conn.call(&Request::Shutdown.encode())?;
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("server did not exit after shutdown".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A set-up server: warm keys' run keys, two open connections, and how
/// many warm-up runs the server computed.
struct Warm {
    server: Server,
    conns: Vec<Conn>,
    keys: Vec<String>,
    computed: usize,
}

/// Starts a server and warms every key: connection 0 runs keys 0 and 2,
/// connection 1 runs key 1 alongside.
fn setup(args: &Args, specs: &[RunSpec], n: usize) -> Result<Warm, String> {
    let dir = args.out_dir.join(format!("serve-seed{}-{n}", args.seed));
    let server = Server::start(&args.report_bin, &dir)?;
    let mut conns = Vec::new();
    for _ in 0..CONNECTIONS {
        conns.push(Conn::connect(&server.addr)?);
    }
    // Per connection: `(key index, run key, answered from cache)`.
    type Warmed = Result<Vec<(usize, String, bool)>, String>;
    let warmed: Vec<Warmed> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    (c..KEYS)
                        .step_by(CONNECTIONS)
                        .map(|k| {
                            let (line, _) = conn.call(&Request::Run(specs[k]).encode())?;
                            let r = Response::parse(line.trim_end())?;
                            match (r.is_ok(), r.str_field("run_key"), r.bool_field("cached")) {
                                (true, Some(key), Some(cached)) => Ok((k, key.to_string(), cached)),
                                _ => Err(format!(
                                    "warm-up run of key {k} failed: {}",
                                    line.trim_end()
                                )),
                            }
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("warm-up thread panicked".to_string()))
            })
            .collect()
    });
    let mut keys = vec![String::new(); KEYS];
    let mut computed = 0;
    for (k, key, cached) in warmed
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .flatten()
    {
        keys[k] = key;
        computed += usize::from(!cached);
    }
    Ok(Warm {
        server,
        conns,
        keys,
        computed,
    })
}

/// What one connection's loop saw.
struct ClientLog {
    /// `(verb, key index, round trip ms)` per answered request.
    latencies: Vec<(Verb, usize, f64)>,
    parse_ms: Vec<f64>,
    tally: Tally,
    rec: Recorder,
    end: Instant,
}

/// Whether `r` is the right answer to `verb` on key `k`.
fn check(verb: Verb, r: &Response, key: &str, reference: &str) -> bool {
    r.is_ok()
        && match verb {
            Verb::Run => {
                r.bool_field("cached") == Some(true) && r.str_field("run_key") == Some(key)
            }
            Verb::Report => r.str_field("snapshot") == Some(reference),
            Verb::Status => r.str_field("status") == Some("ready"),
            Verb::Health => r.field("health").is_some(),
        }
}

fn request(verb: Verb, spec: RunSpec, key: &str) -> Request {
    match verb {
        Verb::Run => Request::Run(spec),
        Verb::Report => Request::Report(key.to_string()),
        Verb::Status => Request::Status(key.to_string()),
        Verb::Health => Request::Health(key.to_string()),
    }
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    seed: u64,
    c: usize,
    mut conn: Conn,
    deadline: Instant,
    specs: &[RunSpec],
    keys: &[String],
    refs: &[String],
    origin: Instant,
) -> ClientLog {
    let mut log = ClientLog {
        latencies: Vec::new(),
        parse_ms: Vec::new(),
        tally: Tally::default(),
        rec: Recorder::new(origin, c as u64 + 1),
        end: Instant::now(),
    };
    let mut slot = 0;
    while Instant::now() < deadline {
        let (verb, k) = schedule(seed, c, slot);
        log.rec.set_job(((c as u64) << 32) | slot as u64);
        slot += 1;
        let line = request(verb, specs[k], &keys[k]).encode();
        let ok = log.rec.span(&format!("wire.{}", verb.name()), |r| {
            let (response, ms) = match r.span("wire.round_trip", |_| conn.call(&line)) {
                Ok(answer) => answer,
                Err(_) => return None,
            };
            log.latencies.push((verb, k, ms));
            let (parsed, s) =
                timed(|| r.span("proto.parse", |_| Response::parse(response.trim_end())));
            if verb == Verb::Report {
                log.parse_ms.push(s * 1e3);
            }
            Some(parsed.is_ok_and(|p| check(verb, &p, &keys[k], &refs[k])))
        });
        match ok {
            Some(ok) => log.tally.record(ok),
            None => {
                // The connection is gone: this request failed and the
                // client stops.
                log.tally.record(false);
                break;
            }
        }
    }
    log.end = Instant::now();
    log
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let specs: Vec<RunSpec> = (0..KEYS as u64)
        .map(|k| key_spec(args.world_seed(k)))
        .collect();
    let mut out = Outcome::default();
    out.stamp_specs(&specs);
    out.config("connections", CONNECTIONS);
    out.config("pool", POOL);

    let mut setups = Vec::with_capacity(SETUPS);
    let mut warm = None;
    for n in 0..SETUPS {
        if let Some(previous) = warm.take() {
            let Warm { server, conns, .. } = previous;
            drop(conns);
            server.stop()?;
        }
        let (w, s) = timed(|| setup(args, &specs, n));
        setups.push(s);
        warm = Some(w?);
    }
    let Warm {
        server,
        conns,
        keys,
        computed,
    } = warm.expect("set-up ran");

    // In-process references for the wire's `report` bytes (outside the
    // timed region; the server is idle meanwhile).
    let cache = RunCache::in_memory();
    let mut refs = Vec::with_capacity(KEYS);
    for (k, spec) in specs.iter().enumerate() {
        let run = cache.get_or_compute(spec).map_err(|e| e.to_string())?;
        if run.run_key != keys[k] {
            return Err(format!(
                "key {k}: wire run key differs from the in-process one"
            ));
        }
        refs.push(snapshot(&run.report)?);
    }

    let origin = Instant::now();
    let start = Instant::now();
    let deadline = start + args.window();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, conn)| {
                let (specs, keys, refs) = (&specs, &keys, &refs);
                scope.spawn(move || {
                    client_loop(args.seed, c, conn, deadline, specs, keys, refs, origin)
                })
            })
            .collect();
        handles.into_iter().filter_map(|h| h.join().ok()).collect()
    });
    let mut tally = Tally::default();
    // A client thread that panicked lost its whole loop: one failure.
    tally.unsent(CONNECTIONS - logs.len());
    let end = logs.iter().map(|l| l.end).max().unwrap_or(start);
    let mut rec = Recorder::new(origin, 0);
    let mut all = Vec::new();
    let mut by_verb: Vec<(Verb, Vec<f64>)> = Verb::ALL.iter().map(|&v| (v, Vec::new())).collect();
    // `report` round trips per key: snapshot sizes differ by world.
    let mut report_ms: Vec<Vec<f64>> = vec![Vec::new(); KEYS];
    let mut parse_ms = Vec::new();
    for log in logs {
        tally.absorb(log.tally);
        for (verb, k, ms) in log.latencies {
            all.push(ms);
            by_verb
                .iter_mut()
                .find(|(v, _)| *v == verb)
                .expect("every verb has a row")
                .1
                .push(ms);
            if verb == Verb::Report {
                report_ms[k].push(ms);
            }
        }
        parse_ms.extend(log.parse_ms);
        rec.absorb(log.rec);
    }
    let rss = peak_rss_mb(Some(server.pid()))?;

    out.raw("latency_ms", &all);
    out.timing("wire.latency_ms_p50", median(&all), all.len());
    for (verb, ms) in &by_verb {
        out.timing(
            format!("wire.latency_ms_p50.{}", verb.name()),
            median(ms),
            ms.len(),
        );
    }
    if !args.trace {
        server.stop()?;
        out.timing("setup_s", median(&setups), setups.len());
        out.metric("peak_rss_mb", rss);
        out.timing(
            "job_s_p50",
            mean_of_medians(&report_ms) / 1e3,
            report_ms.iter().map(Vec::len).sum(),
        );
        out.timing(
            "req_per_s",
            all.len() as f64 / (end - start).as_secs_f64(),
            all.len(),
        );
        out.tally = tally;
        return Ok(out);
    }

    if let Some(p95) = tail_percentile(&all, 95.0) {
        out.timing("wire.latency_ms_p95", p95, all.len());
    }
    out.timing("proto.parse_ms", median(&parse_ms), parse_ms.len());
    out.metric("cache.computed_runs", computed as f64);
    out.metric("snapshot.bytes", refs[0].len() as f64);
    rec.set_job(0);
    in_process(&mut rec, &cache, &specs, &keys, &by_verb, &mut out)?;
    // A fresh journal-backed cache over the server's (idle) journal: what
    // a restarted server pays per key before it can serve it.
    let reload: Vec<f64> = specs
        .iter()
        .map(|spec| {
            let (run, s) = timed(|| {
                rec.span("journal.reload", |_| {
                    RunCache::with_journal(&server.journal).get_or_compute(spec)
                })
            });
            run.map(|_| s * 1e3).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    out.timing("journal.reload_ms", median(&reload), reload.len());
    server.stop()?;
    crate::write_trace(args, &rec)?;
    out.tally = tally;
    Ok(out)
}

/// The server's in-process work per verb, rebuilt from the same public
/// pieces the server calls (request decode, cache, snapshot, response
/// encode) on an in-process cache holding the same keys, and the wire
/// residual: round trip p50 minus that work's p50. The `health`
/// payload builder is private to the server, so its work here is the
/// decode, cache look-up and an encode without that payload.
fn in_process(
    rec: &mut Recorder,
    cache: &RunCache,
    specs: &[RunSpec],
    keys: &[String],
    by_verb: &[(Verb, Vec<f64>)],
    out: &mut Outcome,
) -> Result<(), String> {
    let s = |text: &str| Value::Str(text.to_string());
    let hits: Vec<f64> = (0..REPS * KEYS)
        .map(|i| {
            let (run, secs) = timed(|| cache.get_or_compute(&specs[i % KEYS]));
            std::hint::black_box(run.map_err(|e| e.to_string())).map(|_| secs * 1e6)
        })
        .collect::<Result<_, _>>()?;
    out.timing("cache.hit_us", median(&hits), hits.len());
    let report = cache
        .get(&keys[0])
        .ok_or("warm key missing from the in-process cache")?;
    let render: Vec<f64> = (0..REPS)
        .map(|_| timed(|| rec.span("snapshot.render", |_| snapshot_json(&report))).1 * 1e3)
        .collect();
    out.timing("snapshot.render_ms", median(&render), render.len());

    for (verb, wire_ms) in by_verb {
        let work: Vec<f64> = (0..REPS)
            .map(|i| {
                let k = i % KEYS;
                let line = request(*verb, specs[k], &keys[k]).encode();
                let (response, secs) = timed(|| {
                    rec.span(
                        &format!("server.{}", verb.name()),
                        |_| -> Result<String, String> {
                            let request = Request::decode(&line)?;
                            Ok(match request {
                                Request::Run(spec) => {
                                    let run =
                                        cache.get_or_compute(&spec).map_err(|e| e.to_string())?;
                                    Response::ok(vec![
                                        ("cmd", s("run")),
                                        ("run_key", s(&run.run_key)),
                                        ("cached", Value::Bool(!run.fresh)),
                                        ("wall_us", Value::UInt(0)),
                                    ])
                                }
                                Request::Report(key) => {
                                    let report = cache.get(&key).ok_or("key not cached")?;
                                    Response::ok(vec![
                                        ("cmd", s("report")),
                                        ("run_key", s(&key)),
                                        ("snapshot", Value::Str(snapshot(&report)?)),
                                    ])
                                }
                                Request::Status(key) => Response::ok(vec![
                                    ("cmd", s("status")),
                                    ("run_key", s(&key)),
                                    ("status", s(cache.status(&key).as_str())),
                                ]),
                                Request::Health(key) => {
                                    cache.get(&key).ok_or("key not cached")?;
                                    Response::ok(vec![("cmd", s("health")), ("run_key", s(&key))])
                                }
                                other => return Err(format!("unexpected request {other:?}")),
                            })
                        },
                    )
                });
                std::hint::black_box(response).map(|_| secs * 1e3)
            })
            .collect::<Result<_, _>>()?;
        out.timing(
            format!("wire.residual_ms_p50.{}", verb.name()),
            median(wire_ms) - median(&work),
            wire_ms.len(),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verb_schedule_is_deterministic_under_a_seed() {
        for seed in [0u64, 1, 0xDEAD_BEEF] {
            let a: Vec<_> = (0..500).map(|slot| schedule(seed, 1, slot)).collect();
            let b: Vec<_> = (0..500).map(|slot| schedule(seed, 1, slot)).collect();
            assert_eq!(a, b);
        }
        let one: Vec<_> = (0..200).map(|slot| schedule(1, 0, slot)).collect();
        let two: Vec<_> = (0..200).map(|slot| schedule(2, 0, slot)).collect();
        assert_ne!(one, two, "another seed gives another schedule");
        let conn1: Vec<_> = (0..200).map(|slot| schedule(1, 1, slot)).collect();
        assert_ne!(one, conn1, "connections do not replay each other");
    }

    #[test]
    fn verb_mix_is_about_half_runs_and_a_third_reports() {
        let n = 12_000;
        let mut counts = [0usize; 4];
        let mut key_counts = [0usize; KEYS];
        for slot in 0..n {
            let (verb, key) = schedule(42, slot % 2, slot);
            counts[Verb::ALL.iter().position(|&v| v == verb).unwrap()] += 1;
            key_counts[key] += 1;
        }
        let share = |i: usize| counts[i] as f64 / n as f64;
        assert!((share(0) - 0.5).abs() < 0.02, "run {counts:?}");
        assert!((share(1) - 1.0 / 3.0).abs() < 0.02, "report {counts:?}");
        assert!((share(2) - 1.0 / 12.0).abs() < 0.02, "status {counts:?}");
        assert!((share(3) - 1.0 / 12.0).abs() < 0.02, "health {counts:?}");
        assert!(
            key_counts.iter().all(|&c| c > n / KEYS - n / 20),
            "{key_counts:?}"
        );
    }
}
