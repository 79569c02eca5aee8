//! The long-running pipeline service (`report serve`).
//!
//! A [`Server`] binds a `TcpListener` and serves the [`crate::proto`]
//! protocol from a bounded worker-thread pool: the acceptor pushes
//! connections into a bounded channel, `pool` workers drain it, and
//! each worker speaks request/response lines over its connection until
//! the client hangs up. The pool bound is the backpressure story — at
//! most `pool` pipelines execute concurrently, and a full backlog
//! blocks the acceptor instead of queueing unbounded work.
//!
//! All result state lives in one shared [`RunCache`]: identical `run`
//! requests collapse into a single pipeline execution (single-flight),
//! repeat requests are served from memory, and — when `--journal-dir`
//! is given — from the on-disk stage journal across server restarts,
//! shared with batch runs pointed at the same directory.
//!
//! Each response line goes out with its `\n` in one write: a separate
//! one-byte `\n` write waits under Nagle for the client's delayed ACK
//! (~40 ms per request on Linux). Request lines are read through a
//! [`MAX_REQUEST_LINE`] bound, so a client that never sends `\n`
//! cannot grow server memory without limit.
//!
//! `shutdown` finishes the requesting connection, stops the acceptor,
//! lets in-flight connections drain, and returns from [`Server::run`].

use crate::cli::ServeArgs;
use crate::proto::{Request, Response};
use ewhoring_core::pipeline::{
    snapshot_json, EpochEngine, PipelineReport, RunCache, RunSpec, RunStatus,
};
use serde::Value;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use worldgen::World;

/// The longest request line the server reads, in bytes (`\n`
/// excluded). Requests are a few hundred bytes; a longer line gets an
/// error response and the connection is closed.
pub const MAX_REQUEST_LINE: u64 = 64 * 1024;

/// A bound pipeline service, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    cache: Arc<RunCache>,
    /// Live epoch engines for `advance` requests, keyed by the
    /// upto-normalized run key (so every `upto` of one streamed run
    /// shares one engine). The map lock is held across an advance,
    /// which serializes engine work — the engines *are* mutable shared
    /// state, and an interleaved advance on one engine would be a bug,
    /// not a throughput win.
    engines: Mutex<HashMap<String, EpochEngine>>,
    /// Encoded `report` response lines (`\n` included) by run key. A
    /// ready key's report is a settled slot of the cache and never
    /// changes, so its line is encoded on the first `report` and shared
    /// after that. Only success lines are stored.
    reports: Mutex<HashMap<String, Arc<str>>>,
    /// Mirrors the cache's journal root so resumed engines pick their
    /// checkpoints up from the same directory batch runs write to.
    journal_dir: Option<String>,
    pool: usize,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds `args.addr` (port `0` = ephemeral) and prepares the result
    /// cache; no requests are served until [`Server::run`].
    pub fn bind(args: &ServeArgs) -> Result<Server, String> {
        let listener = TcpListener::bind(&args.addr)
            .map_err(|e| format!("cannot bind `{}`: {e}", args.addr))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| format!("bound address unavailable: {e}"))?;
        let cache = match &args.journal_dir {
            Some(dir) => RunCache::with_journal(dir),
            None => RunCache::in_memory(),
        };
        Ok(Server {
            listener,
            local_addr,
            cache: Arc::new(cache),
            engines: Mutex::new(HashMap::new()),
            reports: Mutex::new(HashMap::new()),
            journal_dir: args.journal_dir.clone(),
            pool: args.pool.max(1),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The address actually bound — the resolved port when the caller
    /// asked for an ephemeral one.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared result cache (exposed for tests and stats).
    pub fn cache(&self) -> &Arc<RunCache> {
        &self.cache
    }

    /// Serves until a `shutdown` request arrives: accepts connections,
    /// hands them to the worker pool, then drains in-flight work.
    pub fn run(&self) -> Result<(), String> {
        // Bounded backlog: one slot of headroom per worker keeps the
        // acceptor responsive without unbounded queueing.
        let (tx, rx) = sync_channel::<TcpStream>(self.pool);
        let rx = Mutex::new(rx);
        std::thread::scope(|scope| {
            for _ in 0..self.pool {
                scope.spawn(|| self.worker(&rx));
            }
            self.accept_loop(&tx);
            drop(tx);
        });
        Ok(())
    }

    fn accept_loop(&self, tx: &SyncSender<TcpStream>) {
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = stream else { continue };
            match tx.try_send(stream) {
                Ok(()) => {}
                Err(TrySendError::Full(returned)) => {
                    // Backlog full: block the acceptor on this one —
                    // that *is* the backpressure — unless shutdown won
                    // the race while we waited.
                    stream = returned;
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                Err(TrySendError::Disconnected(_)) => break,
            }
        }
    }

    fn worker(&self, rx: &Mutex<Receiver<TcpStream>>) {
        loop {
            // Hold the dequeue lock only to receive; handling runs
            // unlocked so workers serve connections concurrently.
            let stream = match rx.lock().unwrap_or_else(|e| e.into_inner()).recv() {
                Ok(stream) => stream,
                Err(_) => return,
            };
            let _ = self.handle_connection(stream);
        }
    }

    /// One connection: request lines in, response lines out, until EOF,
    /// an over-long request line, or a `shutdown` request.
    fn handle_connection(&self, stream: TcpStream) -> std::io::Result<()> {
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let mut buf = Vec::new();
        loop {
            buf.clear();
            // One byte past the bound tells an over-long line from one
            // of exactly `MAX_REQUEST_LINE` bytes plus its `\n`.
            let read = (&mut reader)
                .take(MAX_REQUEST_LINE + 1)
                .read_until(b'\n', &mut buf)?;
            if read == 0 {
                return Ok(());
            }
            if buf.last() != Some(&b'\n') && read as u64 > MAX_REQUEST_LINE {
                let error = Response::error(format!(
                    "request line exceeds {MAX_REQUEST_LINE} bytes; closing the connection"
                ));
                return writer.write_all(terminated(error).as_bytes());
            }
            let (response, stop) = match std::str::from_utf8(&buf) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => self.handle_line(line),
                Err(e) => (
                    terminated(Response::error(format!("request line is not UTF-8: {e}"))),
                    false,
                ),
            };
            writer.write_all(response.as_bytes())?;
            if stop {
                self.initiate_shutdown();
                return Ok(());
            }
        }
    }

    /// Dispatches one request line to its response line (`\n`
    /// included); the flag says "stop serving after responding" (a
    /// `shutdown` request).
    fn handle_line(&self, line: &str) -> (Arc<str>, bool) {
        let (response, stop) = match Request::decode(line) {
            Err(e) => (Response::error(e), false),
            Ok(Request::Shutdown) => (Response::ok(vec![("cmd", str_val("shutdown"))]), true),
            Ok(Request::Run(spec)) => {
                let t = Instant::now();
                let response = match self.cache.get_or_compute(&spec) {
                    Ok(run) => Response::ok(vec![
                        ("cmd", str_val("run")),
                        ("run_key", str_val(&run.run_key)),
                        ("cached", Value::Bool(!run.fresh)),
                        ("wall_us", Value::UInt(t.elapsed().as_micros())),
                    ]),
                    Err(e) => Response::error(format!("run failed: {e}")),
                };
                (response, false)
            }
            Ok(Request::Advance(spec)) => (self.advance_response(&spec), false),
            Ok(Request::Status(key)) => {
                let status = self.cache.status(&key);
                (
                    Response::ok(vec![
                        ("cmd", str_val("status")),
                        ("run_key", str_val(&key)),
                        ("status", str_val(status.as_str())),
                    ]),
                    false,
                )
            }
            Ok(Request::Report(key)) => return (self.report_line(&key), false),
            Ok(Request::Health(key)) => (self.health_response(&key), false),
        };
        (terminated(response), stop)
    }

    /// One `advance` request: look up (or lazily build) the epoch
    /// engine for the spec's upto-normalized run key, advance it to the
    /// requested epoch, and embed the post-advance determinism snapshot
    /// — the exact bytes a batch run of the same spec would write.
    fn advance_response(&self, spec: &RunSpec) -> String {
        if spec.epochs == 0 {
            return Response::error("advance needs `epochs` > 0 (a streamed spec)");
        }
        if spec.upto > spec.epochs {
            return Response::error(format!("upto {} exceeds epochs {}", spec.upto, spec.epochs));
        }
        // All `upto` values of one streamed run share one engine; key
        // by the full-run spec so clients need not agree on `upto`.
        let engine_spec = RunSpec { upto: 0, ..*spec };
        let key = match engine_spec.run_key() {
            Ok(key) => key,
            Err(e) => return Response::error(format!("bad spec: {e}")),
        };
        let t = Instant::now();
        let mut engines = self.engines.lock().unwrap_or_else(|e| e.into_inner());
        let engine = match engines.entry(key.clone()) {
            std::collections::hash_map::Entry::Occupied(slot) => slot.into_mut(),
            std::collections::hash_map::Entry::Vacant(slot) => {
                let world = World::generate(engine_spec.world_config());
                let engine = match &self.journal_dir {
                    Some(dir) => {
                        // Journal-backed: resume at the newest epoch this
                        // directory holds a complete run of. A `run` of
                        // `{epochs, upto: e}` writes the records an advance
                        // to `e` does, so it counts as the stream's
                        // progress too: the engine continues after it.
                        match EpochEngine::with_journal(
                            world,
                            spec.epochs,
                            engine_spec.options(),
                            Path::new(dir),
                        ) {
                            Ok((engine, _)) => engine,
                            Err(e) => return Response::error(format!("engine init failed: {e}")),
                        }
                    }
                    None => EpochEngine::new(world, spec.epochs, engine_spec.options()),
                };
                slot.insert(engine)
            }
        };
        let target = if spec.upto == 0 {
            engine.epoch() + 1
        } else {
            spec.upto
        };
        if target > engine.epochs() {
            return Response::error(format!(
                "already at final epoch {} of {}",
                engine.epoch(),
                engine.epochs()
            ));
        }
        if target <= engine.epoch() {
            return Response::error(format!(
                "cannot rewind: engine is at epoch {}, requested {target}",
                engine.epoch()
            ));
        }
        let report = match engine.advance_to(target) {
            Ok(Some(report)) => report,
            Ok(None) => return Response::error("advance produced no report".to_string()),
            Err(e) => return Response::error(format!("advance failed: {e}")),
        };
        match snapshot_json(&report) {
            Ok(snapshot) => Response::ok(vec![
                ("cmd", str_val("advance")),
                ("run_key", str_val(&key)),
                ("epoch", Value::UInt(engine.epoch() as u128)),
                ("epochs", Value::UInt(engine.epochs() as u128)),
                ("snapshot", str_val(&snapshot)),
                ("wall_us", Value::UInt(t.elapsed().as_micros())),
            ]),
            Err(e) => Response::error(format!("snapshot failed: {e}")),
        }
    }

    /// The `report` response line for `key`: shared from the memo once
    /// the key has answered one `report`, encoded (and stored) on the
    /// first. Error lines are built per request and never stored.
    fn report_line(&self, key: &str) -> Arc<str> {
        if let Some(line) = self
            .reports
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
        {
            return Arc::clone(line);
        }
        let Some(report) = self.cache.get(key) else {
            return terminated(Response::error(not_ready(self.cache.status(key), key)));
        };
        // Rendered unlocked: a racing first `report` for the same key
        // renders the same bytes, and the first stored line wins.
        match snapshot_json(&report) {
            Ok(snapshot) => {
                let line = terminated(Response::ok(vec![
                    ("cmd", str_val("report")),
                    ("run_key", str_val(key)),
                    ("snapshot", str_val(&snapshot)),
                ]));
                let mut reports = self.reports.lock().unwrap_or_else(|e| e.into_inner());
                Arc::clone(reports.entry(key.to_string()).or_insert(line))
            }
            Err(e) => terminated(Response::error(format!("snapshot failed: {e}"))),
        }
    }

    fn health_response(&self, key: &str) -> String {
        match self.cache.get(key) {
            Some(report) => Response::ok(vec![
                ("cmd", str_val("health")),
                ("run_key", str_val(key)),
                ("health", health_value(&report)),
            ]),
            None => Response::error(not_ready(self.cache.status(key), key)),
        }
    }

    /// Flips the shutdown flag and unblocks the acceptor with a
    /// loopback connection so `run` can return.
    fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.local_addr);
    }
}

/// A response line with its `\n`, ready for a single write.
fn terminated(mut response: String) -> Arc<str> {
    response.push('\n');
    Arc::from(response)
}

fn str_val(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn not_ready(status: RunStatus, key: &str) -> String {
    match status {
        RunStatus::Running => format!("run `{key}` is still computing"),
        RunStatus::Failed => format!("run `{key}` failed; re-issue `run` for the error"),
        _ => format!("unknown run key `{key}` (issue a `run` first)"),
    }
}

/// The `health` payload: per-stage timings, quarantine and stage-health
/// counts, and the crawler's health counters — the service-mode view of
/// the report's pipeline-health section.
fn health_value(report: &PipelineReport) -> Value {
    let stages: Vec<Value> = report
        .timings
        .iter()
        .map(|t| {
            let mut row = serde::Map::new();
            row.insert("stage", str_val(&t.stage));
            row.insert("wall_us", Value::UInt(t.wall_us));
            row.insert("items", Value::UInt(t.items as u128));
            row.insert("source", str_val(t.source.as_str()));
            Value::Object(row)
        })
        .collect();
    let events: Vec<Value> = report
        .health
        .iter()
        .map(|h| {
            let mut row = serde::Map::new();
            row.insert("stage", str_val(&h.stage));
            row.insert(
                "status",
                str_val(match h.status {
                    ewhoring_core::pipeline::StageStatus::Recovered => "recovered",
                    ewhoring_core::pipeline::StageStatus::Degraded => "degraded",
                }),
            );
            row.insert("detail", str_val(&h.detail));
            Value::Object(row)
        })
        .collect();
    let mut crawl = serde::Map::new();
    let cs = &report.crawl_stats;
    crawl.insert("attempts", Value::UInt(cs.attempts.total() as u128));
    crawl.insert("retries", Value::UInt(cs.retries.total() as u128));
    crawl.insert("breaker_trips", Value::UInt(cs.breaker_trips as u128));
    crawl.insert(
        "unreachable_links",
        Value::UInt(report.crawl.unreachable_links as u128),
    );
    crawl.insert("wait_us", Value::UInt(cs.wait_us.total() as u128));
    // The supervision counters: all zero for unsharded runs, the
    // run/restart/quarantine tallies for supervised sharded runs.
    let mut supervision = serde::Map::new();
    let s = &report.supervision;
    supervision.insert("shards_run", Value::UInt(s.shards_run as u128));
    supervision.insert("shards_restarted", Value::UInt(s.shards_restarted as u128));
    supervision.insert(
        "shards_quarantined",
        Value::UInt(s.shards_quarantined as u128),
    );
    let mut map = serde::Map::new();
    map.insert("stages", Value::Array(stages));
    map.insert(
        "quarantined_records",
        Value::UInt(report.quarantine.len() as u128),
    );
    map.insert("stage_events", Value::Array(events));
    map.insert("crawl", Value::Object(crawl));
    map.insert("supervision", Value::Object(supervision));
    Value::Object(map)
}

/// The `serve` subcommand: bind, announce, serve until shutdown.
pub fn main(args: &ServeArgs) -> Result<(), String> {
    let server = Server::bind(args)?;
    let addr = server.local_addr();
    if let Some(path) = &args.port_file {
        // Scripts that asked for port 0 read the resolved address here.
        std::fs::write(path, format!("{addr}"))
            .map_err(|e| format!("cannot write port file `{path}`: {e}"))?;
    }
    eprintln!(
        "serving on {addr} (pool {}, journal {})",
        args.pool,
        args.journal_dir.as_deref().unwrap_or("none")
    );
    server.run()
}
