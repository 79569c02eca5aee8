//! The line-delimited JSON wire protocol spoken by `serve`.
//!
//! One request per line, one response line per request, over a plain
//! TCP stream — friendly enough to drive from `nc`:
//!
//! ```text
//! {"cmd":"run","scale":0.02,"seed":123,"workers":2}
//! {"cmd":"advance","scale":0.02,"seed":123,"epochs":4}
//! {"cmd":"status","run_key":"f3a1…"}
//! {"cmd":"report","run_key":"f3a1…"}
//! {"cmd":"health","run_key":"f3a1…"}
//! {"cmd":"shutdown"}
//! ```
//!
//! Every response carries `"ok"`; failures carry `"error"` instead of
//! payload fields. The `report` response embeds the determinism
//! snapshot (the exact bytes `--snapshot-json` writes) as one JSON
//! string field, so a wire client can recover a byte-identical file.
//!
//! Encoding and decoding are hand-rolled over the JSON [`Value`] tree
//! rather than derived, so a malformed request degrades into a precise
//! one-line error response instead of a serde stack trace.

use ewhoring_core::pipeline::RunSpec;
use serde::Value;

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute (or serve from cache) the run described by the spec.
    Run(RunSpec),
    /// Advance the epoch engine for a streaming spec (`epochs > 0`) and
    /// return the post-advance snapshot. `upto: 0` means "one epoch
    /// further than wherever the engine is".
    Advance(RunSpec),
    /// Lifecycle of a run key: unknown / running / ready / failed.
    Status(String),
    /// The determinism snapshot of a finished run.
    Report(String),
    /// Per-stage timings, quarantine and crawl health of a finished run.
    Health(String),
    /// Drain and stop the server.
    Shutdown,
}

impl Request {
    /// Renders the request as one wire line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut map = serde::Map::new();
        match self {
            Request::Run(spec) | Request::Advance(spec) => {
                let cmd = match self {
                    Request::Run(_) => "run",
                    _ => "advance",
                };
                map.insert("cmd", Value::Str(cmd.into()));
                map.insert("scale", Value::Float(spec.scale));
                map.insert("seed", Value::UInt(spec.seed.into()));
                map.insert("workers", Value::UInt(spec.workers as u128));
                map.insert("faults", Value::Float(spec.faults));
                map.insert("corruption", Value::Float(spec.corruption));
                map.insert("epochs", Value::UInt(spec.epochs as u128));
                map.insert("upto", Value::UInt(spec.upto as u128));
                map.insert("shards", Value::UInt(spec.shards as u128));
            }
            Request::Status(key) | Request::Report(key) | Request::Health(key) => {
                let cmd = match self {
                    Request::Status(_) => "status",
                    Request::Report(_) => "report",
                    _ => "health",
                };
                map.insert("cmd", Value::Str(cmd.into()));
                map.insert("run_key", Value::Str(key.clone()));
            }
            Request::Shutdown => {
                map.insert("cmd", Value::Str("shutdown".into()));
            }
        }
        serde::render(&Value::Object(map))
    }

    /// Parses one wire line. Unknown commands, missing fields, and
    /// mistyped values are all descriptive errors.
    pub fn decode(line: &str) -> Result<Request, String> {
        let value = serde::parse(line).map_err(|e| format!("request is not JSON: {}", e.0))?;
        let map = value
            .as_object()
            .ok_or_else(|| "request must be a JSON object".to_string())?;
        let cmd = map
            .get("cmd")
            .and_then(Value::as_str)
            .ok_or_else(|| "request needs a string `cmd` field".to_string())?;
        match cmd {
            "run" => Ok(Request::Run(decode_spec(map)?)),
            "advance" => Ok(Request::Advance(decode_spec(map)?)),
            "status" => Ok(Request::Status(run_key_field(map)?)),
            "report" => Ok(Request::Report(run_key_field(map)?)),
            "health" => Ok(Request::Health(run_key_field(map)?)),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!(
                "unknown cmd `{other}` (expected run/advance/status/report/health/shutdown)"
            )),
        }
    }
}

fn run_key_field(map: &serde::Map) -> Result<String, String> {
    map.get("run_key")
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| "request needs a string `run_key` field".to_string())
}

/// Reads one optional numeric field, defaulting when absent.
fn f64_field(map: &serde::Map, name: &str, default: f64) -> Result<f64, String> {
    match map.get(name) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| format!("field `{name}` must be a number")),
    }
}

/// Reads one optional non-negative integer field, defaulting when
/// absent. A value that does not fit the spec field's type is an error,
/// never a silent truncation.
fn int_field<T: TryFrom<u64>>(map: &serde::Map, name: &str, default: T) -> Result<T, String> {
    let Some(v) = map.get(name) else {
        return Ok(default);
    };
    let n = v
        .as_u64()
        .ok_or_else(|| format!("field `{name}` must be a non-negative integer"))?;
    T::try_from(n).map_err(|_| format!("field `{name}` is out of range: {n}"))
}

/// The largest `scale` a wire request may ask for: the paper's full
/// corpus. The CLI takes larger worlds; a server does not generate one
/// for any client that asks.
const MAX_WIRE_SCALE: f64 = 1.0;

/// Decodes a run spec from a `run` request; every field is optional and
/// defaults match the batch CLI's defaults. A spec that
/// [`RunSpec::validate`] rejects is a decode error, as on the CLI, and
/// so is a `scale` above [`MAX_WIRE_SCALE`].
fn decode_spec(map: &serde::Map) -> Result<RunSpec, String> {
    let defaults = RunSpec::default();
    let spec = RunSpec {
        scale: f64_field(map, "scale", defaults.scale)?,
        seed: int_field(map, "seed", defaults.seed)?,
        workers: int_field(map, "workers", defaults.workers)?,
        faults: f64_field(map, "faults", defaults.faults)?,
        corruption: f64_field(map, "corruption", defaults.corruption)?,
        epochs: int_field(map, "epochs", defaults.epochs)?,
        upto: int_field(map, "upto", defaults.upto)?,
        shards: int_field(map, "shards", defaults.shards)?,
    };
    spec.validate()?;
    if spec.scale > MAX_WIRE_SCALE {
        return Err(format!(
            "`scale` must be at most {MAX_WIRE_SCALE} over the wire, got {}",
            spec.scale
        ));
    }
    Ok(spec)
}

/// A parsed response line, with typed accessors over the raw tree.
#[derive(Debug, Clone)]
pub struct Response(pub Value);

impl Response {
    /// Builds a success response from `(field, value)` pairs; `ok` is
    /// always set.
    pub fn ok(fields: Vec<(&str, Value)>) -> String {
        let mut map = serde::Map::new();
        map.insert("ok", Value::Bool(true));
        for (k, v) in fields {
            map.insert(k, v);
        }
        serde::render(&Value::Object(map))
    }

    /// Builds an error response line.
    pub fn error(msg: impl Into<String>) -> String {
        let mut map = serde::Map::new();
        map.insert("ok", Value::Bool(false));
        map.insert("error", Value::Str(msg.into()));
        serde::render(&Value::Object(map))
    }

    /// Parses one response line.
    pub fn parse(line: &str) -> Result<Response, String> {
        serde::parse(line)
            .map(Response)
            .map_err(|e| format!("response is not JSON: {}", e.0))
    }

    /// Whether the server reported success.
    pub fn is_ok(&self) -> bool {
        self.field("ok").and_then(|v| match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        }) == Some(true)
    }

    /// Raw field access.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.0.as_object().and_then(|m| m.get(name))
    }

    /// String field access.
    pub fn str_field(&self, name: &str) -> Option<&str> {
        self.field(name).and_then(Value::as_str)
    }

    /// Bool field access.
    pub fn bool_field(&self, name: &str) -> Option<bool> {
        self.field(name).and_then(|v| match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        })
    }

    /// The `error` text of a failed response, if any.
    pub fn error_text(&self) -> Option<&str> {
        self.str_field("error")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_request_round_trips_with_all_knobs() {
        let spec = RunSpec {
            scale: 0.02,
            seed: 0xDEAD_BEEF,
            workers: 2,
            faults: 0.5,
            corruption: 0.25,
            epochs: 4,
            upto: 3,
            shards: 0,
        };
        let line = Request::Run(spec).encode();
        assert_eq!(Request::decode(&line), Ok(Request::Run(spec)));
        let sharded = RunSpec {
            epochs: 0,
            upto: 0,
            shards: 2,
            ..spec
        };
        let line = Request::Run(sharded).encode();
        assert_eq!(Request::decode(&line), Ok(Request::Run(sharded)));
    }

    #[test]
    fn run_requests_the_pipeline_cannot_run_are_rejected() {
        let e = Request::decode(r#"{"cmd":"run","scale":0.02,"epochs":3,"shards":2}"#);
        assert!(e.unwrap_err().contains("batch-only"));
        let e = Request::decode(r#"{"cmd":"run","scale":0.02,"upto":2}"#);
        assert!(e.unwrap_err().contains("requires `epochs`"));
        let e = Request::decode(r#"{"cmd":"advance","scale":0.02,"epochs":3,"shards":2}"#);
        assert!(e.unwrap_err().contains("batch-only"));
        for (line, field) in [
            (r#"{"cmd":"run","scale":0,"seed":1}"#, "scale"),
            (r#"{"cmd":"run","scale":-1,"seed":1}"#, "scale"),
            (r#"{"cmd":"run","scale":1e999,"seed":1}"#, "scale"),
            (r#"{"cmd":"run","scale":0.02,"faults":-1}"#, "faults"),
            (
                r#"{"cmd":"run","scale":0.02,"corruption":-0.5}"#,
                "corruption",
            ),
            (
                r#"{"cmd":"run","scale":0.02,"corruption":1e999}"#,
                "corruption",
            ),
            (r#"{"cmd":"advance","scale":0,"epochs":3}"#, "scale"),
            // 2^32 + 1 used to wrap to 1 epoch; a shard past the tenth
            // forum would be one more OS thread surveying nothing. Both
            // are refused at decode, before any thread starts.
            (
                r#"{"cmd":"run","scale":0.02,"epochs":4294967297}"#,
                "epochs",
            ),
            (
                r#"{"cmd":"advance","scale":0.02,"epochs":3,"upto":4294967298}"#,
                "upto",
            ),
            (r#"{"cmd":"run","scale":0.02,"shards":11}"#, "shards"),
            (r#"{"cmd":"run","scale":0.02,"shards":100000000}"#, "shards"),
        ] {
            let e = Request::decode(line).expect_err(line);
            assert!(e.contains(&format!("`{field}`")), "{line}: {e}");
        }
    }

    /// The bound is checked at decode: no world is generated for a
    /// refused request, and the paper's own scale still decodes.
    #[test]
    fn wire_scale_is_bounded_by_the_paper_scale() {
        for line in [
            r#"{"cmd":"run","scale":1.0000001}"#,
            r#"{"cmd":"run","scale":1e300}"#,
            r#"{"cmd":"advance","scale":2,"epochs":3}"#,
        ] {
            let e = Request::decode(line).expect_err(line);
            assert!(e.contains("`scale` must be at most 1"), "{line}: {e}");
        }
        let full = Request::decode(r#"{"cmd":"run","scale":1.0}"#).expect("paper scale decodes");
        assert!(matches!(full, Request::Run(spec) if spec.scale == MAX_WIRE_SCALE));
    }

    #[test]
    fn advance_request_round_trips() {
        let spec = RunSpec {
            scale: 0.02,
            seed: 7,
            epochs: 3,
            ..RunSpec::default()
        };
        let line = Request::Advance(spec).encode();
        assert_eq!(Request::decode(&line), Ok(Request::Advance(spec)));
    }

    #[test]
    fn run_request_fields_default_like_the_batch_cli() {
        let req = Request::decode(r#"{"cmd":"run","scale":0.1}"#).expect("decodes");
        let Request::Run(spec) = req else {
            panic!("expected Run");
        };
        let d = RunSpec::default();
        assert_eq!(spec.scale, 0.1);
        assert_eq!(
            (spec.seed, spec.workers, spec.faults, spec.corruption),
            (d.seed, d.workers, d.faults, d.corruption)
        );
        assert_eq!((spec.epochs, spec.upto), (0, 0), "batch by default");
        assert_eq!(spec.shards, 0, "unsharded by default");
    }

    #[test]
    fn keyed_requests_round_trip() {
        for req in [
            Request::Status("abc123".into()),
            Request::Report("abc123".into()),
            Request::Health("abc123".into()),
            Request::Shutdown,
        ] {
            assert_eq!(Request::decode(&req.encode()), Ok(req));
        }
    }

    #[test]
    fn malformed_requests_are_described_not_ignored() {
        assert!(Request::decode("not json").is_err());
        assert!(Request::decode(r#"{"cmd":"fly"}"#)
            .unwrap_err()
            .contains("unknown cmd"));
        assert!(Request::decode(r#"{"cmd":"status"}"#)
            .unwrap_err()
            .contains("run_key"));
        assert!(Request::decode(r#"{"cmd":"run","scale":"big"}"#)
            .unwrap_err()
            .contains("scale"));
    }

    #[test]
    fn responses_round_trip_including_embedded_snapshots() {
        // A snapshot payload is multi-line pretty JSON; it must survive
        // the one-line wire encoding byte-for-byte.
        let snapshot = "{\n  \"a\": 1,\n  \"b\": \"x\\\"y\"\n}\n";
        let line = Response::ok(vec![
            ("run_key", Value::Str("k".into())),
            ("snapshot", Value::Str(snapshot.into())),
        ]);
        assert!(!line.contains('\n'));
        let parsed = Response::parse(&line).expect("parses");
        assert!(parsed.is_ok());
        assert_eq!(parsed.str_field("snapshot"), Some(snapshot));

        let err = Response::parse(&Response::error("boom")).expect("parses");
        assert!(!err.is_ok());
        assert_eq!(err.error_text(), Some("boom"));
    }
}
