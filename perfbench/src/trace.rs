//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into the system's public functions,
//! from the benchmark's own code; the program itself is not touched.
//! Each span has a name, a start, an end, its parent span and the id of
//! the job it belongs to. Spans stay in memory until the run ends and
//! are then written as Chrome trace-event JSON (opens in Perfetto or
//! `chrome://tracing`) and as a flat per-name summary with self time.

use serde::{Map, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are microseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub job: u64,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Recording thread (Chrome trace `tid`).
    pub tid: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1000.0
    }
}

/// Records nested spans on one thread. Client threads each own one and
/// are merged with [`Recorder::absorb`].
pub struct Recorder {
    origin: Instant,
    tid: u64,
    next_id: u64,
    open: Vec<u64>,
    job: u64,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, tid: u64) -> Recorder {
        Recorder {
            origin,
            tid,
            // Ids are unique across recorders: the tid sits in the high bits.
            next_id: tid << 40,
            open: Vec::new(),
            job: 0,
            spans: Vec::new(),
        }
    }

    /// Tags every span opened from now on with job id `job`.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    /// Runs `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied();
        self.open.push(id);
        let start = self.origin.elapsed();
        let out = f(self);
        let end = self.origin.elapsed();
        self.open.pop();
        self.spans.push(Span {
            id,
            parent,
            job: self.job,
            name: name.to_string(),
            start_us: start.as_secs_f64() * 1e6,
            end_us: end.as_secs_f64() * 1e6,
            tid: self.tid,
        });
        out
    }

    /// Moves another recorder's spans into this one.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every span called `name`, in closing order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Summed duration in ms of every span called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// For every span called `name`: its job id and the share of its
    /// duration that its direct children's durations add up to.
    pub fn child_shares(&self, name: &str) -> Vec<(u64, f64)> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|parent| {
                let children: f64 = self
                    .spans
                    .iter()
                    .filter(|s| s.parent == Some(parent.id))
                    .map(Span::ms)
                    .sum();
                (parent.job, children / parent.ms())
            })
            .collect()
    }

    /// Chrome trace-event JSON: one complete (`"X"`) event per span, with
    /// the span id, parent id and job id in `args`.
    pub fn chrome_json(&self) -> String {
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        let object = |pairs: Vec<(&str, Value)>| {
            let mut map = Map::new();
            for (k, v) in pairs {
                map.insert(k, v);
            }
            Value::Object(map)
        };
        let events = spans
            .iter()
            .map(|s| {
                object(vec![
                    ("name", Value::Str(s.name.clone())),
                    ("cat", Value::Str("perfbench".to_string())),
                    ("ph", Value::Str("X".to_string())),
                    ("ts", Value::Float(s.start_us)),
                    ("dur", Value::Float(s.end_us - s.start_us)),
                    ("pid", Value::UInt(1)),
                    ("tid", Value::UInt(u128::from(s.tid))),
                    (
                        "args",
                        object(vec![
                            ("id", Value::UInt(u128::from(s.id))),
                            (
                                "parent",
                                s.parent.map_or(Value::Null, |p| Value::UInt(u128::from(p))),
                            ),
                            ("job", Value::UInt(u128::from(s.job))),
                        ]),
                    ),
                ])
            })
            .collect();
        let trace = object(vec![
            ("displayTimeUnit", Value::Str("ms".to_string())),
            ("traceEvents", Value::Array(events)),
        ]);
        serde::render(&trace) + "\n"
    }

    /// Per span name: count, total ms and self ms (each span's duration
    /// minus its direct children's). A recorder's spans nest strictly,
    /// so children never overlap or outlast their parent.
    pub fn summary(&self) -> BTreeMap<String, SpanSummary> {
        let mut children_ms: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *children_ms.entry(p).or_default() += s.ms();
            }
        }
        let mut out: BTreeMap<String, SpanSummary> = BTreeMap::new();
        for s in &self.spans {
            let row = out.entry(s.name.clone()).or_default();
            row.count += 1;
            row.total_ms += s.ms();
            row.self_ms += s.ms() - children_ms.get(&s.id).copied().unwrap_or(0.0);
        }
        out
    }

    /// The summary as tab-separated text, one span name per line.
    pub fn summary_tsv(&self) -> String {
        let mut text = String::from("name\tcount\ttotal_ms\tself_ms\tmean_ms\n");
        for (name, row) in self.summary() {
            text.push_str(&format!(
                "{name}\t{}\t{:.3}\t{:.3}\t{:.3}\n",
                row.count,
                row.total_ms,
                row.self_ms,
                row.total_ms / row.count as f64
            ));
        }
        text
    }
}

/// Aggregate of the spans sharing one name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SpanSummary {
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            job: 1,
            name: name.to_string(),
            start_us: start,
            end_us: end,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut rec = Recorder::new(Instant::now(), 0);
        rec.spans = vec![
            span(1, None, "job", 0.0, 10_000.0),
            span(2, Some(1), "a", 1_000.0, 3_000.0),
            span(3, Some(1), "a", 4_000.0, 7_000.0),
            // A grandchild counts against its parent `a`, not the job.
            span(4, Some(3), "b", 5_000.0, 6_000.0),
        ];
        let summary = rec.summary();
        let job = &summary["job"];
        assert_eq!(job.count, 1);
        assert!((job.total_ms - 10.0).abs() < 1e-9);
        assert!((job.self_ms - 5.0).abs() < 1e-9, "{job:?}");
        assert_eq!(summary["a"].count, 2);
        assert!((summary["a"].self_ms - 4.0).abs() < 1e-9);
        assert!((summary["b"].self_ms - 1.0).abs() < 1e-9);
    }

    #[test]
    fn nested_spans_record_parent_and_job() {
        let mut rec = Recorder::new(Instant::now(), 3);
        rec.set_job(7);
        let out = rec.span("outer", |r| r.span("inner", |_| 42));
        assert_eq!(out, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(spans.iter().all(|s| s.job == 7 && s.tid == 3));
        assert!(outer.start_us <= inner.start_us && inner.end_us <= outer.end_us);
        let json = rec.chrome_json();
        assert!(json.contains("\"name\":\"inner\""), "{json}");
        assert!(json.contains(&format!("\"parent\":{}", outer.id)), "{json}");
    }
}
