//! End-to-end tests of the pipeline service over a real TCP socket:
//! the full request/response lifecycle, byte-identical wire-delivered
//! snapshots, and single-flight collapse of concurrent identical runs.

use ewhoring_bench::cli::ServeArgs;
use ewhoring_bench::proto::{Request, Response};
use ewhoring_bench::serve::Server;
use ewhoring_core::pipeline::{snapshot_json, stream_world, Pipeline, RunSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
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

/// Binds an ephemeral-port server with `pool` workers and serves it on
/// a background thread until `shutdown`.
fn start_server(pool: usize) -> (Arc<Server>, std::thread::JoinHandle<()>, String) {
    let args = ServeArgs {
        addr: "127.0.0.1:0".to_string(),
        pool,
        journal_dir: None,
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

    fn send_line(&mut self, line: &str) -> Response {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .expect("send request");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read response");
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
    let report = wire.call(&Request::Report(key.clone()));
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
