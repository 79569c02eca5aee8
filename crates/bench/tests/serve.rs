//! End-to-end tests of the pipeline service over a real TCP socket:
//! the full request/response lifecycle, byte-identical wire-delivered
//! snapshots, single-flight collapse of concurrent identical runs,
//! round trips free of Nagle/delayed-ACK stalls, the request-line
//! length and nesting bounds, and typed errors for runs the pipeline
//! cannot finish.

use ewhoring_bench::cli::ServeArgs;
use ewhoring_bench::proto::{Request, Response};
use ewhoring_bench::serve::{Server, MAX_REQUEST_LINE};
use ewhoring_core::pipeline::{snapshot_json, stream_world, Pipeline, RunSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
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

/// Binds an ephemeral-port server with `pool` workers and serves it on
/// a background thread until `shutdown`.
fn start_server(pool: usize) -> (Arc<Server>, std::thread::JoinHandle<()>, String) {
    start_server_with(pool, None)
}

/// [`start_server`] with the result cache backed by a journal under
/// `journal_dir` (`None` = memory only).
fn start_server_with(
    pool: usize,
    journal_dir: Option<String>,
) -> (Arc<Server>, std::thread::JoinHandle<()>, String) {
    let args = ServeArgs {
        addr: "127.0.0.1:0".to_string(),
        pool,
        journal_dir,
        port_file: None,
    };
    let server = Arc::new(Server::bind(&args).expect("bind ephemeral port"));
    let addr = server.local_addr().to_string();
    let background = Arc::clone(&server);
    let handle = std::thread::spawn(move || {
        background.run().expect("server runs until shutdown");
    });
    (server, handle, addr)
}

struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Wire {
    fn connect(addr: &str) -> Wire {
        let stream = TcpStream::connect(addr).expect("connect to server");
        let writer = stream.try_clone().expect("clone stream");
        Wire {
            reader: BufReader::new(stream),
            writer,
        }
    }

    /// Sends `bytes` plus `\n` in one write and returns the raw
    /// response line (empty once the server has closed the connection).
    fn send_raw(&mut self, bytes: &[u8]) -> String {
        let mut line = bytes.to_vec();
        line.push(b'\n');
        self.writer.write_all(&line).expect("send request");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read response");
        response
    }

    fn send_line(&mut self, line: &str) -> Response {
        let response = self.send_raw(line.as_bytes());
        Response::parse(response.trim_end()).expect("parse response")
    }

    fn call(&mut self, request: &Request) -> Response {
        self.send_line(&request.encode())
    }
}

#[test]
fn full_lifecycle_over_the_wire_matches_the_batch_snapshot() {
    let (_server, handle, addr) = start_server(2);
    let spec = tiny(0xF00D);
    let mut wire = Wire::connect(&addr);

    // Unknown key before any run.
    let key = spec.run_key().expect("run key");
    let status = wire.call(&Request::Status(key.clone()));
    assert!(status.is_ok());
    assert_eq!(status.str_field("status"), Some("unknown"));
    let miss = wire.call(&Request::Report(key.clone()));
    assert!(!miss.is_ok());
    assert!(miss.error_text().unwrap_or_default().contains("unknown"));

    // Run: the response hands back the key, uncached on first sight.
    let run = wire.call(&Request::Run(spec));
    assert!(run.is_ok(), "{:?}", run.error_text());
    assert_eq!(run.str_field("run_key"), Some(key.as_str()));
    assert_eq!(run.bool_field("cached"), Some(false));

    // Status flips to ready; rerun is a cache hit.
    let status = wire.call(&Request::Status(key.clone()));
    assert_eq!(status.str_field("status"), Some("ready"));
    let rerun = wire.call(&Request::Run(spec));
    assert_eq!(rerun.bool_field("cached"), Some(true));

    // The wire-delivered snapshot is byte-identical to a batch run of
    // the same spec (the acceptance criterion behind `smoke-serve`).
    // The second `report` is served from the encoded-line memo (the
    // earlier unknown-key error was not stored): the same bytes again.
    let report_line = Request::Report(key.clone()).encode();
    let first = wire.send_raw(report_line.as_bytes());
    let second = wire.send_raw(report_line.as_bytes());
    assert_eq!(first, second, "a memoized report line differs");
    let report = Response::parse(first.trim_end()).expect("parse report");
    assert!(report.is_ok(), "{:?}", report.error_text());
    let wire_snapshot = report.str_field("snapshot").expect("snapshot field");
    let world = World::generate(spec.world_config());
    let batch = Pipeline::new(spec.options()).run(&world);
    assert_eq!(
        wire_snapshot,
        snapshot_json(&batch).expect("batch snapshot")
    );

    // Health carries per-stage timings, quarantine, crawl counters.
    let health = wire.call(&Request::Health(key.clone()));
    assert!(health.is_ok());
    let payload = health.field("health").and_then(|v| v.as_object()).unwrap();
    let stages = payload.get("stages").and_then(|v| v.as_array()).unwrap();
    assert!(!stages.is_empty());
    assert!(payload.get("crawl").and_then(|v| v.as_object()).is_some());
    assert!(payload.get("quarantined_records").is_some());
    // Supervision counters ride along; all zero for an unsharded run.
    let supervision = payload
        .get("supervision")
        .and_then(|v| v.as_object())
        .expect("supervision object");
    for field in ["shards_run", "shards_restarted", "shards_quarantined"] {
        assert_eq!(
            supervision.get(field).and_then(serde::Value::as_u64),
            Some(0),
            "{field} of an unsharded run"
        );
    }

    // A malformed line is an error response, not a dropped connection.
    let bad = wire.send_line(r#"{"cmd":"fly"}"#);
    assert!(!bad.is_ok());
    assert!(bad.error_text().unwrap_or_default().contains("unknown cmd"));

    // Shutdown ends the server; the run thread joins.
    let down = wire.call(&Request::Shutdown);
    assert!(down.is_ok());
    handle.join().expect("server thread exits after shutdown");
}

/// The epoch-serving acceptance test: `advance` steps a streamed spec
/// one epoch per request, and the final wire-delivered snapshot is
/// byte-identical to a batch run of the same spec — the epoch
/// equivalence guarantee, observed through the service surface.
#[test]
fn advance_over_the_wire_matches_the_batch_stream_snapshot() {
    let (_server, handle, addr) = start_server(2);
    let spec = RunSpec {
        epochs: 2,
        ..tiny(0xABE)
    };
    let mut wire = Wire::connect(&addr);

    // `advance` on a batch spec is a described error, not a crash.
    let batch_spec = tiny(0xABE);
    let bad = wire.call(&Request::Advance(batch_spec));
    assert!(!bad.is_ok());
    assert!(bad.error_text().unwrap_or_default().contains("epochs"));

    // `upto: 0` means "one epoch further": two calls reach the final
    // epoch of 2.
    let first = wire.call(&Request::Advance(spec));
    assert!(first.is_ok(), "{:?}", first.error_text());
    assert_eq!(first.field("epoch").and_then(serde::Value::as_u64), Some(1));
    let second = wire.call(&Request::Advance(spec));
    assert!(second.is_ok(), "{:?}", second.error_text());
    assert_eq!(
        second.field("epoch").and_then(serde::Value::as_u64),
        Some(2)
    );
    let wire_snapshot = second.str_field("snapshot").expect("snapshot field");

    // Past the final epoch and rewinds are described errors.
    let past = wire.call(&Request::Advance(spec));
    assert!(!past.is_ok());
    assert!(past.error_text().unwrap_or_default().contains("final"));
    let rewind = wire.call(&Request::Advance(RunSpec { upto: 1, ..spec }));
    assert!(!rewind.is_ok());
    assert!(rewind.error_text().unwrap_or_default().contains("rewind"));

    // Ground truth: one batch invocation of the same streamed spec,
    // over the feed-normalized world the stream path runs on.
    let world = stream_world(
        World::generate(spec.world_config()),
        spec.options().stream.expect("streamed spec"),
    );
    let batch = Pipeline::new(spec.options()).run(&world);
    assert_eq!(
        wire_snapshot,
        snapshot_json(&batch).expect("batch snapshot")
    );

    wire.call(&Request::Shutdown);
    handle.join().expect("server thread exits");
}

/// On a journaled server a `run` of `{epochs, upto: e}` writes the
/// records an advance to `e` writes, so it counts as the stream's
/// progress: an `advance` engine built afterwards resumes at `e` and
/// steps on from there.
#[test]
fn journaled_run_moves_a_later_advance_engine_forward() {
    let dir = std::env::temp_dir().join(format!("ewhoring-serve-shared-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (_server, handle, addr) = start_server_with(1, Some(dir.to_string_lossy().into_owned()));
    let spec = RunSpec {
        epochs: 3,
        ..tiny(0xAD7)
    };
    let mut wire = Wire::connect(&addr);
    let run = wire.call(&Request::Run(RunSpec { upto: 1, ..spec }));
    assert!(run.is_ok(), "{:?}", run.error_text());
    for epoch in 2..=3 {
        let step = wire.call(&Request::Advance(spec));
        assert!(step.is_ok(), "{:?}", step.error_text());
        assert_eq!(
            step.field("epoch").and_then(serde::Value::as_u64),
            Some(epoch)
        );
    }
    let past = wire.call(&Request::Advance(spec));
    assert!(past.error_text().unwrap_or_default().contains("final"));
    wire.call(&Request::Shutdown);
    handle.join().expect("server thread exits");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sharded `run` request routes through the supervised driver, shares
/// the unsharded spec's run key (shard count is execution topology),
/// and reports its supervision counters through `health`.
#[test]
fn sharded_run_over_the_wire_matches_and_reports_supervision() {
    let (_server, handle, addr) = start_server(2);
    let sharded = RunSpec {
        shards: 3,
        ..tiny(0xC0FFEE)
    };
    let mut wire = Wire::connect(&addr);

    let run = wire.call(&Request::Run(sharded));
    assert!(run.is_ok(), "{:?}", run.error_text());
    let key = run.str_field("run_key").expect("run key").to_string();
    assert_eq!(
        key,
        tiny(0xC0FFEE).run_key().expect("run key"),
        "shard count must not fork the run key"
    );

    // The wire snapshot equals a batch *unsharded* run byte-for-byte —
    // the merge coordinator's determinism contract over the service.
    let report = wire.call(&Request::Report(key.clone()));
    let wire_snapshot = report.str_field("snapshot").expect("snapshot field");
    let world = World::generate(sharded.world_config());
    let batch = Pipeline::new(tiny(0xC0FFEE).options()).run(&world);
    assert_eq!(
        wire_snapshot,
        snapshot_json(&batch).expect("batch snapshot")
    );

    let health = wire.call(&Request::Health(key));
    let payload = health.field("health").and_then(|v| v.as_object()).unwrap();
    let supervision = payload
        .get("supervision")
        .and_then(|v| v.as_object())
        .expect("supervision object");
    assert_eq!(
        supervision.get("shards_run").and_then(serde::Value::as_u64),
        Some(3),
        "3 shards through 1 supervised survey round"
    );
    assert_eq!(
        supervision
            .get("shards_quarantined")
            .and_then(serde::Value::as_u64),
        Some(0)
    );

    wire.call(&Request::Shutdown);
    handle.join().expect("server thread exits");
}

#[test]
fn concurrent_identical_wire_requests_collapse_to_one_execution() {
    let (server, handle, addr) = start_server(4);
    let spec = tiny(0xD0D0);

    let responses: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || Wire::connect(&addr).call(&Request::Run(spec)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for response in &responses {
        assert!(response.is_ok(), "{:?}", response.error_text());
    }
    // Single-flight across the worker pool: the cache executed the
    // pipeline once; exactly one requester saw `cached: false`.
    assert_eq!(server.cache().computed_runs(), 1);
    assert_eq!(
        responses
            .iter()
            .filter(|r| r.bool_field("cached") == Some(false))
            .count(),
        1
    );

    Wire::connect(&addr).call(&Request::Shutdown);
    handle.join().expect("server thread exits");
}

/// Small responses on a persistent connection come back without a
/// Nagle/delayed-ACK stall (~40 ms each when a line and its `\n` go out
/// as two writes): 50 `status`/`health` round trips to a ready key take
/// well under the 2 s that stall would cost them.
#[test]
fn small_round_trips_on_one_connection_do_not_stall() {
    let (_server, handle, addr) = start_server(1);
    let spec = tiny(0x5A11);
    let mut wire = Wire::connect(&addr);
    let run = wire.call(&Request::Run(spec));
    assert!(run.is_ok(), "{:?}", run.error_text());
    let key = run.str_field("run_key").expect("run key").to_string();

    let t = Instant::now();
    for i in 0..50 {
        let response = if i % 2 == 0 {
            wire.call(&Request::Status(key.clone()))
        } else {
            wire.call(&Request::Health(key.clone()))
        };
        assert!(response.is_ok(), "{:?}", response.error_text());
    }
    let elapsed = t.elapsed();
    assert!(
        elapsed < Duration::from_millis(500),
        "50 round trips took {elapsed:?}"
    );

    wire.call(&Request::Shutdown);
    handle.join().expect("server thread exits");
}

/// The request-line bounds: an over-long line gets an error response
/// and the connection closes; a non-UTF-8 line gets an error response
/// and the connection keeps serving; the server still accepts fresh
/// connections afterwards.
#[test]
fn oversize_and_non_utf8_lines_get_typed_errors() {
    let (_server, handle, addr) = start_server(1);

    let mut wire = Wire::connect(&addr);
    let oversize = wire.send_line(&"x".repeat(MAX_REQUEST_LINE as usize + 1));
    assert!(!oversize.is_ok());
    assert!(
        oversize
            .error_text()
            .unwrap_or_default()
            .contains("exceeds"),
        "{:?}",
        oversize.error_text()
    );
    let mut rest = String::new();
    let closed = wire.reader.read_line(&mut rest);
    assert!(
        matches!(closed, Ok(0) | Err(_)),
        "connection still open after an over-long line: {rest:?}"
    );

    let mut wire = Wire::connect(&addr);
    let garbled = wire.send_raw(b"{\"cmd\":\"status\",\"run_key\":\"\xff\xfe\"}");
    let garbled = Response::parse(garbled.trim_end()).expect("parse response");
    assert!(!garbled.is_ok());
    assert!(
        garbled.error_text().unwrap_or_default().contains("UTF-8"),
        "{:?}",
        garbled.error_text()
    );
    let status = wire.call(&Request::Status("feed".to_string()));
    assert_eq!(status.str_field("status"), Some("unknown"));
    // Hang up: the pool's one worker serves one connection at a time.
    drop(wire);

    // A line of exactly the bound is read whole (and then rejected as
    // JSON, not as over-long).
    let padded = format!("{}x", " ".repeat(MAX_REQUEST_LINE as usize - 1));
    let at_bound = Wire::connect(&addr).send_line(&padded);
    assert!(!at_bound.is_ok());
    assert!(
        at_bound
            .error_text()
            .unwrap_or_default()
            .contains("not JSON"),
        "{:?}",
        at_bound.error_text()
    );

    let down = Wire::connect(&addr).call(&Request::Shutdown);
    assert!(down.is_ok());
    handle.join().expect("server thread exits");
}

/// A request line nested deeper than the JSON parser's bound (64 KiB
/// of `[`, within the line limit) gets a typed error instead of
/// overflowing the worker's stack, and the one-worker server keeps
/// answering on that connection and on a fresh one.
#[test]
fn deeply_nested_line_gets_a_typed_error_and_the_server_keeps_serving() {
    let (_server, handle, addr) = start_server(1);

    let mut wire = Wire::connect(&addr);
    let nested = wire.send_line(&"[".repeat(MAX_REQUEST_LINE as usize));
    assert!(!nested.is_ok());
    assert!(
        nested
            .error_text()
            .unwrap_or_default()
            .contains("nesting deeper than"),
        "{:?}",
        nested.error_text()
    );
    let status = wire.call(&Request::Status("feed".to_string()));
    assert_eq!(status.str_field("status"), Some("unknown"));
    drop(wire);

    let status = Wire::connect(&addr).call(&Request::Status("feed".to_string()));
    assert_eq!(status.str_field("status"), Some("unknown"));
    let down = Wire::connect(&addr).call(&Request::Shutdown);
    assert!(down.is_ok());
    handle.join().expect("server thread exits");
}

/// A `run` whose spec the pipeline cannot execute (a sharded stream) is
/// answered with a typed error on a one-worker pool, and that worker
/// goes on to answer a plain `run` on a fresh connection.
#[test]
fn unrunnable_spec_gets_a_typed_error_and_the_pool_keeps_serving() {
    let (_server, handle, addr) = start_server(1);

    let mut wire = Wire::connect(&addr);
    let bad =
        wire.send_line(r#"{"cmd":"run","scale":0.01,"seed":5,"workers":1,"epochs":3,"shards":2}"#);
    assert!(!bad.is_ok());
    assert!(
        bad.error_text().unwrap_or_default().contains("batch-only"),
        "{:?}",
        bad.error_text()
    );
    let no_stream = wire.send_line(r#"{"cmd":"run","scale":0.01,"seed":5,"upto":2}"#);
    assert!(!no_stream.is_ok());
    drop(wire);

    let run = Wire::connect(&addr).call(&Request::Run(tiny(5)));
    assert!(run.is_ok(), "{:?}", run.error_text());
    assert_eq!(
        run.str_field("run_key"),
        Some(tiny(5).run_key().unwrap().as_str())
    );

    let down = Wire::connect(&addr).call(&Request::Shutdown);
    assert!(down.is_ok());
    handle.join().expect("server thread exits");
}

/// A `run` whose pipeline fails — a corruption plan that quarantines
/// every thread — is answered with a typed error, on a memory-only
/// server and on a journaled one-worker pool (sharded there, so the
/// failure comes out of the shard survey), and the worker goes on to
/// answer a plain `run` on a fresh connection.
#[test]
fn failing_run_gets_a_typed_error_and_the_pool_keeps_serving() {
    let dir = std::env::temp_dir().join(format!("ewhoring-serve-failing-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal = Some(dir.to_string_lossy().into_owned());
    for (journal_dir, shards) in [(None, 0), (journal, 2)] {
        let (_server, handle, addr) = start_server_with(1, journal_dir);

        let failing = RunSpec {
            corruption: 1000.0,
            shards,
            ..tiny(9)
        };
        let bad = Wire::connect(&addr).call(&Request::Run(failing));
        assert!(!bad.is_ok(), "shards={shards}");
        assert!(
            bad.error_text().unwrap_or_default().contains("quarantined"),
            "shards={shards}: {:?}",
            bad.error_text()
        );

        let run = Wire::connect(&addr).call(&Request::Run(tiny(9)));
        assert!(run.is_ok(), "shards={shards}: {:?}", run.error_text());

        let down = Wire::connect(&addr).call(&Request::Shutdown);
        assert!(down.is_ok());
        handle.join().expect("server thread exits");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
