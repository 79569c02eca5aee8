//! Seeded load generator for the pipeline service (`report loadgen`).
//!
//! Fires a deterministic mix of *hot* requests (every client re-runs
//! one shared spec, so all but the first are cache hits) and *cold*
//! requests (distinct seeds, each a cache miss the first time) from `K`
//! client threads, one persistent connection per client. Which slots in
//! a client's request schedule are hot is decided by a splitmix64
//! stream over `(seed, client, slot)` — rerunning the same command line
//! replays the same schedule.
//!
//! Per-request wall-clock latency, the server-reported `cached` flags,
//! and total wall time are folded into a summary
//! ([`LoadSummary::render_json`]) conventionally written to
//! `BENCH_serve.json`: requests/sec, cache-hit ratio, and p50/p95/max
//! latency — the measured version of the "serves heavy traffic" claim.

use crate::cli::LoadGenArgs;
use crate::proto::{Request, Response};
use ewhoring_core::pipeline::RunSpec;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

/// splitmix64: the statelessly-seedable mixer used for the hot/cold
/// schedule, so client threads need no shared RNG.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The spec fired by request `slot` of `client`: the shared hot spec
/// with probability `hot_ratio`, otherwise one of `cold_keys` cold
/// specs (seeds derived from the base seed, disjoint from it).
fn spec_for(args: &LoadGenArgs, client: usize, slot: usize) -> RunSpec {
    let draw = mix64(args.seed ^ ((client as u64) << 32) ^ slot as u64);
    // A uniform draw in [0, 1): hot_ratio 1.0 is always hot, 0.0 never.
    let uniform = (draw >> 11) as f64 / (1u64 << 53) as f64;
    let hot = uniform < args.hot_ratio;
    let seed = if hot {
        args.seed
    } else {
        // Cold seeds rotate through a small pool so repeats within the
        // run still exercise the hit path at a known rate.
        args.seed
            .wrapping_add(1 + mix64(draw) % args.cold_keys.max(1) as u64)
    };
    RunSpec {
        scale: args.scale,
        seed,
        workers: args.workers,
        faults: 0.0,
        corruption: 0.0,
        epochs: 0,
        upto: 0,
        shards: 0,
    }
}

/// One client's request outcomes.
struct ClientLog {
    /// Per-request wall-clock, microseconds, request order.
    latencies_us: Vec<u128>,
    /// Server-reported cache hits.
    hits: usize,
    /// Responses with `ok:false` (counted, run continues).
    errors: usize,
}

/// A persistent wire connection with line-oriented request/response.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect `{addr}`: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends the request line and its `\n` in one write (a separate
    /// `\n` write stalls under Nagle until the server's delayed ACK),
    /// then reads one response line.
    fn call(&mut self, request: &Request) -> Result<Response, String> {
        let mut line = request.encode();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
        let mut response = String::new();
        self.reader
            .read_line(&mut response)
            .map_err(|e| format!("recv failed: {e}"))?;
        if response.is_empty() {
            return Err("server closed the connection".to_string());
        }
        Response::parse(response.trim_end())
    }
}

/// Runs one client's schedule. Infallible by design: every one of the
/// client's `args.requests` issued requests ends up accounted either as
/// a latency sample or as an error, so transport failures deflate the
/// summary instead of vanishing from it (or aborting the other
/// clients). A client that cannot connect, or whose connection dies
/// mid-run, charges all its unserved slots to `errors`.
fn run_client(args: &LoadGenArgs, client: usize) -> ClientLog {
    let mut log = ClientLog {
        latencies_us: Vec::with_capacity(args.requests),
        hits: 0,
        errors: 0,
    };
    let mut conn = match Client::connect(&args.addr) {
        Ok(conn) => conn,
        Err(e) => {
            eprintln!("loadgen client {client}: {e}");
            log.errors = args.requests;
            return log;
        }
    };
    for slot in 0..args.requests {
        let spec = spec_for(args, client, slot);
        let t = Instant::now();
        let response = match conn.call(&Request::Run(spec)) {
            Ok(response) => response,
            Err(e) => {
                eprintln!("loadgen client {client}: request {slot}: {e}");
                log.errors += args.requests - slot;
                return log;
            }
        };
        log.latencies_us.push(t.elapsed().as_micros());
        if response.is_ok() {
            if response.bool_field("cached") == Some(true) {
                log.hits += 1;
            }
        } else {
            log.errors += 1;
        }
    }
    log
}

/// The aggregated result of one loadgen run.
pub struct LoadSummary {
    /// Client threads.
    pub clients: usize,
    /// Requests per client.
    pub requests_per_client: usize,
    /// Total requests *issued* (`clients × requests_per_client`) —
    /// errored requests stay in this denominator, so error-heavy runs
    /// report deflated throughput and hit ratios rather than inflated
    /// ones.
    pub total_requests: usize,
    /// Responses served from cache.
    pub cache_hits: usize,
    /// `ok:false` responses.
    pub errors: usize,
    /// Whole-run wall clock, microseconds.
    pub wall_us: u128,
    /// Sorted per-request latencies, microseconds.
    pub latencies_us: Vec<u128>,
    /// Target hot fraction the schedule was drawn with.
    pub hot_ratio: f64,
    /// Scale of every spec.
    pub scale: f64,
}

impl LoadSummary {
    /// Requests per second over the whole run.
    pub fn requests_per_sec(&self) -> f64 {
        if self.wall_us == 0 {
            return 0.0;
        }
        self.total_requests as f64 / (self.wall_us as f64 / 1_000_000.0)
    }

    /// Cache-hit ratio over all responses.
    pub fn hit_ratio(&self) -> f64 {
        if self.total_requests == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / self.total_requests as f64
    }

    /// The `q`-quantile latency (nearest-rank) in microseconds.
    pub fn latency_quantile_us(&self, q: f64) -> u128 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let rank = ((self.latencies_us.len() as f64 * q).ceil() as usize)
            .clamp(1, self.latencies_us.len());
        self.latencies_us[rank - 1]
    }

    /// Renders the `BENCH_serve.json` document. Hand-assembled so the
    /// schema is explicit in one place, like `BENCH_pipeline.json`.
    pub fn render_json(&self) -> String {
        format!(
            "{{\n  \"clients\": {},\n  \"requests_per_client\": {},\n  \"total_requests\": {},\n  \
             \"scale\": {},\n  \"hot_ratio_target\": {},\n  \"wall_us\": {},\n  \
             \"requests_per_sec\": {:.2},\n  \"cache_hits\": {},\n  \"cache_hit_ratio\": {:.4},\n  \
             \"errors\": {},\n  \"latency_us\": {{ \"p50\": {}, \"p95\": {}, \"max\": {} }}\n}}\n",
            self.clients,
            self.requests_per_client,
            self.total_requests,
            self.scale,
            self.hot_ratio,
            self.wall_us,
            self.requests_per_sec(),
            self.cache_hits,
            self.hit_ratio(),
            self.errors,
            self.latency_quantile_us(0.50),
            self.latency_quantile_us(0.95),
            self.latencies_us.last().copied().unwrap_or(0),
        )
    }
}

/// Fires the configured mix and aggregates the outcome. Every issued
/// request is accounted: a panicked client thread counts as all-errors,
/// like a client that never connected.
pub fn run(args: &LoadGenArgs) -> Result<LoadSummary, String> {
    let t = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|client| scope.spawn(move || run_client(args, client)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    eprintln!("loadgen: client thread panicked");
                    ClientLog {
                        latencies_us: Vec::new(),
                        hits: 0,
                        errors: args.requests,
                    }
                })
            })
            .collect()
    });
    let wall_us = t.elapsed().as_micros();
    let mut latencies_us = Vec::with_capacity(args.clients * args.requests);
    let mut cache_hits = 0;
    let mut errors = 0;
    for log in logs {
        latencies_us.extend(log.latencies_us);
        cache_hits += log.hits;
        errors += log.errors;
    }
    latencies_us.sort_unstable();
    Ok(LoadSummary {
        clients: args.clients,
        requests_per_client: args.requests,
        total_requests: args.clients * args.requests,
        cache_hits,
        errors,
        wall_us,
        latencies_us,
        hot_ratio: args.hot_ratio,
        scale: args.scale,
    })
}

/// Fetches the hot spec's snapshot over the wire (running it first if
/// needed) — the bytes `--snapshot-json` would write for the same spec.
pub fn fetch_snapshot(args: &LoadGenArgs) -> Result<String, String> {
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
    let mut conn = Client::connect(&args.addr)?;
    let run = conn.call(&Request::Run(spec))?;
    if !run.is_ok() {
        return Err(format!(
            "run request failed: {}",
            run.error_text().unwrap_or("unknown error")
        ));
    }
    let key = run
        .str_field("run_key")
        .ok_or_else(|| "run response lacks run_key".to_string())?
        .to_string();
    let report = conn.call(&Request::Report(key))?;
    match report.str_field("snapshot") {
        Some(snapshot) if report.is_ok() => Ok(snapshot.to_string()),
        _ => Err(format!(
            "report request failed: {}",
            report.error_text().unwrap_or("unknown error")
        )),
    }
}

/// The `loadgen` subcommand: run the mix, write the summary, optionally
/// fetch a snapshot and shut the server down.
pub fn main(args: &LoadGenArgs) -> Result<(), String> {
    let summary = if args.requests > 0 {
        let summary = run(args)?;
        eprintln!(
            "loadgen: {} requests over {} client(s) in {:.2}s — {:.1} req/s, {:.1}% cache hits, p50 {}us p95 {}us",
            summary.total_requests,
            summary.clients,
            summary.wall_us as f64 / 1_000_000.0,
            summary.requests_per_sec(),
            100.0 * summary.hit_ratio(),
            summary.latency_quantile_us(0.50),
            summary.latency_quantile_us(0.95),
        );
        Some(summary)
    } else {
        None
    };
    if let (Some(summary), Some(path)) = (&summary, &args.out) {
        std::fs::write(path, summary.render_json())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("load summary written to {path}");
    }
    if let Some(path) = &args.snapshot_out {
        let snapshot = fetch_snapshot(args)?;
        std::fs::write(path, snapshot).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("wire snapshot written to {path}");
    }
    if args.shutdown {
        let mut conn = Client::connect(&args.addr)?;
        conn.call(&Request::Shutdown)?;
        eprintln!("server asked to shut down");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args() -> LoadGenArgs {
        LoadGenArgs {
            addr: "127.0.0.1:1".into(),
            ..LoadGenArgs::default()
        }
    }

    #[test]
    fn schedule_is_deterministic_and_respects_extremes() {
        let a = args();
        for client in 0..3 {
            for slot in 0..10 {
                assert_eq!(spec_for(&a, client, slot), spec_for(&a, client, slot));
            }
        }
        let all_hot = LoadGenArgs {
            hot_ratio: 1.0,
            ..args()
        };
        let all_cold = LoadGenArgs {
            hot_ratio: 0.0,
            ..args()
        };
        for slot in 0..20 {
            assert_eq!(spec_for(&all_hot, 0, slot).seed, all_hot.seed);
            assert_ne!(spec_for(&all_cold, 0, slot).seed, all_cold.seed);
        }
    }

    #[test]
    fn cold_seeds_stay_inside_the_pool() {
        let a = LoadGenArgs {
            hot_ratio: 0.0,
            cold_keys: 3,
            ..args()
        };
        for client in 0..4 {
            for slot in 0..25 {
                let seed = spec_for(&a, client, slot).seed;
                assert!((1..=3).contains(&seed.wrapping_sub(a.seed)));
            }
        }
    }

    /// The accounting regression: requests a client could not complete
    /// must stay in `total_requests` (and thus deflate the hit ratio),
    /// not silently shrink the denominator. A fake server answers each
    /// client's first request and then drops the connection.
    #[test]
    fn failing_clients_keep_issued_requests_in_the_denominator() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                let mut stream = stream;
                stream
                    .write_all(b"{\"ok\":true,\"cached\":true}\n")
                    .unwrap();
                // Dropping the stream here kills the connection before
                // the client's remaining requests.
            }
        });

        let a = LoadGenArgs {
            addr,
            clients: 2,
            requests: 3,
            ..LoadGenArgs::default()
        };
        let summary = run(&a).unwrap();
        server.join().unwrap();

        assert_eq!(summary.total_requests, 6, "2 clients x 3 issued");
        assert_eq!(summary.latencies_us.len(), 2, "one served per client");
        assert_eq!(summary.cache_hits, 2);
        assert_eq!(summary.errors, 4, "2 unserved slots per client");
        let ratio = summary.hit_ratio();
        assert!((ratio - 2.0 / 6.0).abs() < 1e-12, "hit ratio {ratio}");
    }

    /// A client that cannot connect at all still accounts every slot.
    #[test]
    fn unreachable_server_counts_every_issued_request_as_error() {
        // Bind then drop to get a port that refuses connections.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let a = LoadGenArgs {
            addr,
            clients: 3,
            requests: 5,
            ..LoadGenArgs::default()
        };
        let summary = run(&a).unwrap();
        assert_eq!(summary.total_requests, 15);
        assert_eq!(summary.errors, 15);
        assert!(summary.latencies_us.is_empty());
        assert_eq!(summary.hit_ratio(), 0.0);
        assert_eq!(summary.latency_quantile_us(0.95), 0);
    }

    #[test]
    fn summary_math_is_sane() {
        let summary = LoadSummary {
            clients: 2,
            requests_per_client: 2,
            total_requests: 4,
            cache_hits: 3,
            errors: 0,
            wall_us: 2_000_000,
            latencies_us: vec![10, 20, 30, 40],
            hot_ratio: 0.75,
            scale: 0.02,
        };
        assert_eq!(summary.requests_per_sec(), 2.0);
        assert_eq!(summary.hit_ratio(), 0.75);
        assert_eq!(summary.latency_quantile_us(0.50), 20);
        assert_eq!(summary.latency_quantile_us(0.95), 40);
        let json = summary.render_json();
        assert!(json.contains("\"requests_per_sec\": 2.00"), "{json}");
        assert!(json.contains("\"p50\": 20"), "{json}");
    }
}
