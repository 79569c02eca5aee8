//! Supervised shard execution: actor-style sharded runs with panic
//! isolation, shard quarantine, and a deterministic merge coordinator.
//!
//! The corpus is naturally partitioned — ten forums, per-site crawl
//! domains — so a run can be split by forum across shard workers. The
//! pieces:
//!
//! * [`Supervisor`] — a small actor-style supervision layer. Each shard
//!   worker is a scoped OS thread owning a **bounded mailbox**
//!   (`sync_channel(1)`) of attempt tickets; the worker runs the shard
//!   task under `catch_unwind`, so a panicking shard reports a failure
//!   instead of aborting the process. The supervisor applies a
//!   [`RestartPolicy`] — bounded restarts with linear backoff and an
//!   optional per-attempt deadline — and a shard that exhausts its
//!   restart budget is **quarantined**: its mailbox is dropped, the
//!   worker exits, and the round completes without it.
//! * [`run_sharded`] — the sharded pipeline driver. The corpus survey
//!   (`extract` plus the `actors` fold over every post) fans out
//!   per-forum across supervised shards; a merge coordinator folds the
//!   partials deterministically — extraction rows concatenate in forum
//!   order, per-actor counters merge via [`ActorFold::merge`], and the
//!   cross-forum interaction graph is stitched by replaying per-shard
//!   edge lists in forum order — into the `actors` stage's carry, with
//!   its cursors at the end of the corpus. The remaining stages run on
//!   the coordinator through the ordinary driver (`crawl`'s per-host
//!   circuit breakers couple state across forums, so sharding them
//!   would change byte output); `actors` then only assembles its
//!   artifacts from the pre-folded carry. The merged report is
//!   **byte-identical to the unsharded run at every shard count** —
//!   `tests/determinism.rs` enforces shards {1,2,5} × workers {1,2,7}.
//! * Degradation — a quarantined shard's forums simply contribute
//!   nothing: its extraction rows stay empty, a `ShardFailure` entry
//!   lands in the quarantine ledger, the pipeline-health section gains
//!   a `Degraded` event, and [`Supervision`] counts it. The run
//!   completes. [`ShardPoison`] injects deterministic shard failures
//!   (panics and/or typed errors) so that path is testable end-to-end.

use super::corruption::RecordErrorKind;
use super::ctx::{carry_mut, StageCtx};
use super::epoch::ActorsCarry;
use super::{
    Pipeline, PipelineOptions, PipelineReport, StageError, StageHealth, StageStatus, StageTiming,
    TimingSource,
};
use crate::actors::ActorFold;
use crate::extract::{extract_ewhoring_threads_in, EwhoringSet};
use crate::pipeline::corruption::CorruptionPlan;
use crimebb::{ActorId, BoardCategory, ThreadId};
use serde::{Deserialize, Serialize};
use socgraph::DiGraph;
use std::collections::HashSet;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, SyncSender};
use std::time::{Duration, Instant};
use worldgen::{partition_spans, World};

/// How the supervisor reacts to a failing shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestartPolicy {
    /// Restarts granted per shard beyond the first attempt; a shard
    /// failing `max_restarts + 1` times is quarantined.
    pub max_restarts: u32,
    /// Base backoff before restart `k` (the supervisor sleeps
    /// `backoff × k`, linearly — failure here is logic, not a remote
    /// server to be polite to, so there is no jitter to stay
    /// deterministic).
    pub backoff: Duration,
    /// Per-attempt wall-clock deadline. An attempt that finishes past
    /// it — even successfully — counts as a failure, so a hung shard
    /// burns its restart budget and quarantines instead of stalling
    /// the round. `None` (default) disables the check: the merge
    /// contract is byte-identity, and a timing-dependent outcome would
    /// break it, so deadlines are opt-in for callers that prefer
    /// liveness over determinism.
    pub deadline: Option<Duration>,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            max_restarts: 2,
            backoff: Duration::from_millis(5),
            deadline: None,
        }
    }
}

/// Supervision counters for one run (its supervised survey round). Zero
/// everywhere on an unsharded run (and stripped from determinism
/// snapshots alongside `timings`, since a restart is a scheduling
/// event, not a measurement).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Supervision {
    /// Shard tasks dispatched (one per shard).
    pub shards_run: usize,
    /// Shards that needed at least one restart.
    pub shards_restarted: usize,
    /// Shards that exhausted their restart budget and were quarantined.
    pub shards_quarantined: usize,
}

/// Deterministic shard-failure injection for supervision tests: shard
/// `shard` panics on attempts `< panics` (exercising the restart
/// path), and a `severity >= 1.0` makes every attempt fail with a
/// typed error (exhausting the budget → quarantine). Worker-count and
/// timing independent, so poisoned runs are still byte-reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardPoison {
    /// Which shard (by index) misbehaves.
    pub shard: u32,
    /// Attempts that panic before the shard starts succeeding.
    pub panics: u32,
    /// `>= 1.0`: every attempt fails outright (typed error).
    pub severity: f64,
}

/// Per-round supervision tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Shard tasks dispatched this round.
    pub run: usize,
    /// Shards restarted at least once this round.
    pub restarted: usize,
    /// Shards quarantined this round.
    pub quarantined: usize,
}

/// Terminal state of one shard after a supervised round.
#[derive(Debug)]
pub enum RoundOutcome<T> {
    /// The shard produced its partial (possibly after restarts).
    Done(T),
    /// The shard exhausted its restart budget.
    Quarantined {
        /// Attempts consumed (`max_restarts + 1`).
        attempts: u32,
        /// The final attempt's rendered error or panic payload.
        error: String,
    },
}

/// The actor-style supervision layer: dispatches one task per shard to
/// per-shard worker threads and applies the restart policy.
pub struct Supervisor {
    policy: RestartPolicy,
}

impl Supervisor {
    /// A supervisor with the given restart policy.
    pub fn new(policy: RestartPolicy) -> Supervisor {
        Supervisor { policy }
    }

    /// Runs `task(shard, attempt)` for every shard in `0..shards`, each
    /// on its own worker thread with a bounded mailbox, and returns the
    /// outcomes **indexed by shard** (never by completion order, so the
    /// result is scheduling-independent) plus the round's tallies.
    ///
    /// A worker runs each attempt under `catch_unwind`; a panic or an
    /// `Err` is reported to the supervisor, which either re-dispatches
    /// attempt `n + 1` after `backoff × (n + 1)` or — once the budget
    /// is spent — quarantines the shard by dropping its mailbox.
    pub fn run_round<T, F>(&self, shards: usize, task: F) -> (Vec<RoundOutcome<T>>, RoundStats)
    where
        T: Send,
        F: Fn(usize, u32) -> Result<T, String> + Sync,
    {
        let mut stats = RoundStats {
            run: shards,
            restarted: 0,
            quarantined: 0,
        };
        if shards == 0 {
            return (Vec::new(), stats);
        }
        let mut outcomes: Vec<Option<RoundOutcome<T>>> = (0..shards).map(|_| None).collect();
        let (result_tx, result_rx) = mpsc::channel::<(usize, u32, Result<T, String>)>();
        std::thread::scope(|scope| {
            let task = &task;
            let deadline = self.policy.deadline;
            let mut mailboxes: Vec<Option<SyncSender<u32>>> = (0..shards)
                .map(|s| {
                    let (tx, rx) = mpsc::sync_channel::<u32>(1);
                    let results = result_tx.clone();
                    scope.spawn(move || {
                        // Worker loop: wait for an attempt ticket, run
                        // the task under catch_unwind, report back.
                        // Exits when the supervisor drops the mailbox.
                        while let Ok(attempt) = rx.recv() {
                            let started = Instant::now();
                            let result = match catch_unwind(AssertUnwindSafe(|| task(s, attempt))) {
                                Ok(r) => r,
                                Err(payload) => Err(render_panic(payload)),
                            };
                            let result = match (deadline, result) {
                                (Some(limit), Ok(_)) if started.elapsed() > limit => Err(format!(
                                    "shard {s} attempt {attempt} exceeded its {limit:?} deadline"
                                )),
                                (_, r) => r,
                            };
                            if results.send((s, attempt, result)).is_err() {
                                break;
                            }
                        }
                    });
                    Some(tx)
                })
                .collect();
            drop(result_tx);
            for tx in mailboxes.iter().flatten() {
                tx.send(0).expect("fresh worker accepts its first ticket");
            }
            let mut pending = shards;
            while pending > 0 {
                let (s, attempt, result) =
                    result_rx.recv().expect("live workers outnumber tickets");
                match result {
                    Ok(v) => {
                        outcomes[s] = Some(RoundOutcome::Done(v));
                        mailboxes[s] = None;
                        pending -= 1;
                        if attempt > 0 {
                            stats.restarted += 1;
                        }
                    }
                    Err(_) if attempt < self.policy.max_restarts => {
                        std::thread::sleep(self.policy.backoff * (attempt + 1));
                        mailboxes[s]
                            .as_ref()
                            .expect("unresolved shard keeps its mailbox")
                            .send(attempt + 1)
                            .expect("worker loops until its mailbox drops");
                    }
                    Err(error) => {
                        outcomes[s] = Some(RoundOutcome::Quarantined {
                            attempts: attempt + 1,
                            error,
                        });
                        mailboxes[s] = None;
                        pending -= 1;
                        stats.quarantined += 1;
                        if attempt > 0 {
                            stats.restarted += 1;
                        }
                    }
                }
            }
            // Remaining mailboxes (none, normally) drop here; workers
            // see the closed channel and exit before the scope joins.
        });
        let outcomes = outcomes
            .into_iter()
            .map(|o| o.expect("every shard resolved before the round ended"))
            .collect();
        (outcomes, stats)
    }
}

/// Renders a panic payload for [`RoundOutcome::Quarantined::error`].
fn render_panic(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("shard worker panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("shard worker panicked: {s}")
    } else {
        "shard worker panicked: non-string payload".to_string()
    }
}

/// Everything one shard's survey pass produces.
struct ShardPartial {
    /// The shard's forums' extraction rows (post corruption filter).
    set: EwhoringSet,
    /// Extraction count before the corruption filter ran.
    before: usize,
    /// Quarantined records, in the extract stage's per-forum order.
    quarantined: Vec<(String, RecordErrorKind)>,
    /// Per-actor counters over the shard's posts.
    fold: ActorFold,
    /// Interaction edges over the shard's eWhoring threads.
    edges: Vec<(u32, u32)>,
    /// CE-thread ledger rows for the shard's forums.
    ce_threads: Vec<(ActorId, ThreadId)>,
}

/// One shard's survey pass: extraction (with the extract stage's
/// corruption filter replicated per-forum), the actor fold, the interaction-edge
/// list, and the CE ledger — everything that is a pure function of the
/// shard's forum span. Extraction is per-forum independent (a thread's
/// dedup entry can only come from its own forum), corruption draws are
/// pure per-thread, and every post belongs to exactly one forum, so
/// concatenating these partials in forum order reproduces the unsharded
/// artifacts exactly.
fn shard_survey(world: &World, plan: &CorruptionPlan, span: Range<usize>) -> ShardPartial {
    let corpus = &world.corpus;
    let mut set = extract_ewhoring_threads_in(corpus, span.clone());
    let before = set.len();
    let mut quarantined = Vec::new();
    if plan.is_enabled() {
        for (_, threads) in &mut set.per_forum {
            threads.retain(|&t| {
                if let Some(kind) = plan.thread_row(t) {
                    quarantined.push((format!("thread/{}", t.0), kind));
                    return false;
                }
                if let Some(bytes) = plan.mangled_heading(t, &corpus.thread(t).heading) {
                    // The plan damages bytes; only an actual UTF-8
                    // validation failure quarantines the record.
                    if std::str::from_utf8(&bytes).is_err() {
                        quarantined.push((
                            format!("thread/{}", t.0),
                            RecordErrorKind::InvalidUtf8Heading,
                        ));
                        return false;
                    }
                }
                true
            });
        }
    }

    // The `actors` fold over the span's posts: per-actor counters,
    // interaction edges (every reply but the opening post in an
    // eWhoring thread, aimed at the quoted post's author or else the
    // thread's), and the CE-thread ledger.
    let ewset: HashSet<ThreadId> = set.all_threads().into_iter().collect();
    let mut fold = ActorFold::default();
    fold.ensure(corpus.actors().len());
    let mut edges = Vec::new();
    let mut ce_threads = Vec::new();
    for thread in corpus.threads() {
        if !span.contains(&corpus.board(thread.board).forum.index()) {
            continue;
        }
        let in_ew = ewset.contains(&thread.id);
        for (i, &p) in corpus.posts_in_thread(thread.id).iter().enumerate() {
            let post = corpus.post(p);
            fold.note_post(post.author, post.date, in_ew);
            if !in_ew || i == 0 {
                continue;
            }
            let target = match post.quotes {
                Some(q) => corpus.post(q).author,
                None => thread.author,
            };
            if post.author != target {
                edges.push((post.author.0, target.0));
            }
        }
        if corpus.board(thread.board).category == BoardCategory::CurrencyExchange {
            ce_threads.push((thread.author, thread.id));
        }
    }

    ShardPartial {
        set,
        before,
        quarantined,
        fold,
        edges,
        ce_threads,
    }
}

/// Applies [`ShardPoison`] at the top of a shard attempt. A panic here
/// is caught by the worker's `catch_unwind` (the restart path); a
/// returned error is the deterministic always-fails path (quarantine
/// once the budget is spent).
fn poison_check(poison: Option<ShardPoison>, shard: usize, attempt: u32) -> Result<(), String> {
    let Some(p) = poison else { return Ok(()) };
    if p.shard as usize != shard {
        return Ok(());
    }
    if p.severity >= 1.0 {
        return Err(format!(
            "poisoned shard {shard}: severity {} fails every attempt",
            p.severity
        ));
    }
    if attempt < p.panics {
        panic!("poisoned shard {shard} panicked on attempt {attempt}");
    }
    Ok(())
}

/// The sharded pipeline driver (invoked by [`Pipeline::run`] when
/// `options.shards > 0`): supervised per-forum survey round, merge
/// coordinator, then the rest of the stage graph on the coordinator.
pub(super) fn run_sharded(
    options: PipelineOptions,
    world: &World,
) -> Result<PipelineReport, StageError> {
    let shards = options.shards.max(1);
    let mut ctx = StageCtx::new(world, options);
    let corpus = &world.corpus;
    let plan = ctx.corruption;
    let supervisor = Supervisor::new(RestartPolicy::default());
    let spans = partition_spans(corpus.forums().len(), shards);

    // ---- survey round (the sharded `extract` stage) ----
    let t = Instant::now();
    let poison = options.poison;
    let (outcomes, stats) = supervisor.run_round(shards, |s, attempt| {
        poison_check(poison, s, attempt)?;
        Ok(shard_survey(world, &plan, spans[s].clone()))
    });
    ctx.supervision = Supervision {
        shards_run: stats.run,
        shards_restarted: stats.restarted,
        shards_quarantined: stats.quarantined,
    };

    // ---- merge coordinator ----
    // Extraction rows always cover every forum in corpus order; a
    // quarantined shard's forums stay empty (its partition degrades
    // out of the report instead of failing the run).
    let mut per_forum: Vec<_> = corpus.forums().iter().map(|f| (f.id, Vec::new())).collect();
    let mut fold = ActorFold::default();
    fold.ensure(corpus.actors().len());
    let mut edges = Vec::new();
    let mut ce_threads = Vec::new();
    let mut before_total = 0;
    let mut record_quarantines = 0;
    let mut lost_shards = 0;
    for (s, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            RoundOutcome::Done(p) => {
                before_total += p.before;
                for (f, ts) in p.set.per_forum {
                    per_forum[f.index()].1 = ts;
                }
                record_quarantines += p.quarantined.len();
                for (record, kind) in p.quarantined {
                    ctx.ledger.record("extract", record, kind);
                }
                fold.merge(&p.fold);
                edges.extend(p.edges);
                ce_threads.extend(p.ce_threads);
            }
            RoundOutcome::Quarantined { attempts, error } => {
                lost_shards += 1;
                ctx.ledger
                    .record("shard", format!("shard/{s}"), RecordErrorKind::ShardFailure);
                ctx.health.push(StageHealth {
                    stage: "shard".to_string(),
                    status: StageStatus::Degraded,
                    detail: format!("shard {s} quarantined after {attempts} attempts: {error}"),
                });
            }
        }
    }
    if lost_shards == shards {
        return Err(StageError::Quarantined {
            stage: "shard",
            records: shards,
        });
    }
    let set = EwhoringSet { per_forum };
    if plan.is_enabled() && set.is_empty() && before_total > 0 {
        return Err(StageError::Quarantined {
            stage: "extract",
            records: record_quarantines,
        });
    }
    ctx.timings.push(StageTiming {
        stage: "extract".to_string(),
        wall_us: t.elapsed().as_micros(),
        items: set.len(),
        source: TimingSource::Computed,
    });
    ctx.all_threads = Some(set.all_threads());
    ctx.extraction = Some(set);
    // The graph's adjacency is kept sorted with integer weights, so the
    // replayed edges build the same graph whatever their order.
    let mut graph = DiGraph::with_nodes(corpus.actors().len());
    for (a, b) in edges {
        graph.add_edge(a, b, 1.0);
    }
    carry_mut(&mut ctx.carry)?.actors = ActorsCarry {
        cursor: corpus.posts().len(),
        graph,
        fold,
        ce_cursor: corpus.threads().len(),
        ce_threads,
        ..ActorsCarry::default()
    };

    // ---- coordinator-side tail ----
    // Crawl's per-host circuit breakers and request budgets couple
    // state across forums, so the other stages run unsharded through
    // the ordinary driver.
    for stage in Pipeline::stages().into_iter().skip(1) {
        Pipeline::step(stage.as_ref(), &mut ctx)?;
    }
    ctx.into_report()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn policy(max_restarts: u32) -> RestartPolicy {
        RestartPolicy {
            max_restarts,
            backoff: Duration::from_millis(1),
            deadline: None,
        }
    }

    #[test]
    fn clean_round_resolves_every_shard_in_index_order() {
        let sup = Supervisor::new(policy(2));
        let (outcomes, stats) = sup.run_round(5, |s, _| Ok::<_, String>(s * 10));
        let values: Vec<usize> = outcomes
            .into_iter()
            .map(|o| match o {
                RoundOutcome::Done(v) => v,
                RoundOutcome::Quarantined { .. } => panic!("clean round"),
            })
            .collect();
        assert_eq!(values, vec![0, 10, 20, 30, 40]);
        assert_eq!(
            stats,
            RoundStats {
                run: 5,
                restarted: 0,
                quarantined: 0
            }
        );
    }

    #[test]
    fn panicking_shard_is_restarted_not_fatal() {
        let sup = Supervisor::new(policy(2));
        let attempts = AtomicUsize::new(0);
        let (outcomes, stats) = sup.run_round(3, |s, attempt| {
            if s == 1 {
                attempts.fetch_add(1, Ordering::SeqCst);
                if attempt == 0 {
                    panic!("shard 1 crashes once");
                }
            }
            Ok::<_, String>(s)
        });
        assert!(matches!(outcomes[1], RoundOutcome::Done(1)));
        assert_eq!(attempts.load(Ordering::SeqCst), 2, "one crash, one retry");
        assert_eq!(stats.restarted, 1);
        assert_eq!(stats.quarantined, 0);
    }

    #[test]
    fn budget_exhaustion_quarantines_only_the_bad_shard() {
        let sup = Supervisor::new(policy(2));
        let (outcomes, stats) = sup.run_round(4, |s, _| {
            if s == 2 {
                Err("always broken".to_string())
            } else {
                Ok(s)
            }
        });
        match &outcomes[2] {
            RoundOutcome::Quarantined { attempts, error } => {
                assert_eq!(*attempts, 3, "initial attempt + 2 restarts");
                assert!(error.contains("always broken"));
            }
            RoundOutcome::Done(_) => panic!("shard 2 must quarantine"),
        }
        for s in [0, 1, 3] {
            assert!(matches!(outcomes[s], RoundOutcome::Done(v) if v == s));
        }
        assert_eq!(stats.quarantined, 1);
    }

    #[test]
    fn deadline_overrun_counts_as_failure() {
        let sup = Supervisor::new(RestartPolicy {
            max_restarts: 0,
            backoff: Duration::from_millis(1),
            deadline: Some(Duration::ZERO),
        });
        let (outcomes, stats) = sup.run_round(2, |s, _| {
            std::thread::sleep(Duration::from_millis(2));
            Ok::<_, String>(s)
        });
        for o in &outcomes {
            match o {
                RoundOutcome::Quarantined { error, .. } => {
                    assert!(error.contains("deadline"), "{error}");
                }
                RoundOutcome::Done(_) => panic!("zero deadline fails every attempt"),
            }
        }
        assert_eq!(stats.quarantined, 2);
    }

    #[test]
    fn poison_check_is_deterministic_per_attempt() {
        let p = Some(ShardPoison {
            shard: 1,
            panics: 0,
            severity: 1.0,
        });
        assert!(poison_check(p, 0, 0).is_ok(), "other shards unaffected");
        assert!(poison_check(p, 1, 0).is_err());
        assert!(
            poison_check(p, 1, 7).is_err(),
            "severity fails every attempt"
        );
        let recovering = Some(ShardPoison {
            shard: 0,
            panics: 2,
            severity: 0.0,
        });
        assert!(poison_check(recovering, 0, 2).is_ok(), "heals after budget");
        assert!(
            catch_unwind(AssertUnwindSafe(|| poison_check(recovering, 0, 1))).is_err(),
            "panics while attempt < panics"
        );
    }
}
