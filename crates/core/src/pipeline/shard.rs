//! Supervised shard execution: the `extract` stage's per-forum fan-out,
//! with panic isolation, shard quarantine, and a deterministic merge
//! coordinator. The pieces:
//!
//! * [`Supervisor`] — a small actor-style supervision layer. Each shard
//!   worker is a scoped OS thread owning a **bounded mailbox**
//!   (`sync_channel(1)`) of attempt tickets; the worker runs the shard
//!   task under `catch_unwind`, so a panicking shard reports a failure
//!   instead of aborting the process. The supervisor applies a
//!   [`RestartPolicy`] — bounded restarts with linear backoff — and a
//!   shard that exhausts its restart budget is **quarantined**: its
//!   mailbox is dropped, the worker exits, and the round completes
//!   without it.
//! * [`survey`] — the `extract` stage when `options.shards > 0`. Each
//!   shard runs the stages' own code over its forum span: the `extract`
//!   stage's corruption filter, and the `actors` carry's post and
//!   Currency Exchange folds (the world as generated numbers posts and
//!   threads forum by forum, so a span is one id range of each). The
//!   coordinator concatenates the extraction rows in forum order and
//!   merges the partial carries into the `actors` stage's carry. Every
//!   other stage runs unsharded in the one stage loop (`crawl`'s
//!   per-host circuit breakers couple forums), so a sharded run is
//!   journaled and resumed like any other, and its report is
//!   **byte-identical to the unsharded run at every shard count** —
//!   `tests/determinism.rs` enforces shards {1,2,5} × workers {1,2,7},
//!   with and without fault and corruption plans.
//! * Degradation — a quarantined shard's forums simply contribute
//!   nothing: its extraction rows stay empty, a `ShardFailure` entry
//!   lands in the quarantine ledger, the pipeline-health section gains
//!   a `Degraded` event, and [`Supervision`] counts it. The run
//!   completes. [`ShardPoison`] injects deterministic shard failures
//!   (panics and/or typed errors) so that path is testable end-to-end.

use super::corruption::RecordErrorKind;
use super::ctx::{carry_mut, StageCtx};
use super::epoch::ActorsCarry;
use super::stages::extract::{drop_corrupt_rows, finish};
use super::{StageError, StageHealth, StageStatus};
use crate::extract::{extract_ewhoring_threads_in, thread_mask, EwhoringSet};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, SyncSender};
use std::time::Duration;
use worldgen::partition_spans;

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
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            max_restarts: 2,
            backoff: Duration::from_millis(5),
        }
    }
}

/// Supervision counters for one supervised round — a run's survey. Zero
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
    pub fn run_round<T, F>(&self, shards: usize, task: F) -> (Vec<RoundOutcome<T>>, Supervision)
    where
        T: Send,
        F: Fn(usize, u32) -> Result<T, String> + Sync,
    {
        let mut stats = Supervision {
            shards_run: shards,
            ..Supervision::default()
        };
        if shards == 0 {
            return (Vec::new(), stats);
        }
        let mut outcomes: Vec<Option<RoundOutcome<T>>> = (0..shards).map(|_| None).collect();
        let (result_tx, result_rx) = mpsc::channel::<(usize, u32, Result<T, String>)>();
        std::thread::scope(|scope| {
            let task = &task;
            let mut mailboxes: Vec<Option<SyncSender<u32>>> = (0..shards)
                .map(|s| {
                    let (tx, rx) = mpsc::sync_channel::<u32>(1);
                    let results = result_tx.clone();
                    scope.spawn(move || {
                        // Worker loop: wait for an attempt ticket, run
                        // the task under catch_unwind, report back.
                        // Exits when the supervisor drops the mailbox.
                        while let Ok(attempt) = rx.recv() {
                            let result = match catch_unwind(AssertUnwindSafe(|| task(s, attempt))) {
                                Ok(r) => r,
                                Err(payload) => Err(render_panic(payload)),
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
                            stats.shards_restarted += 1;
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
                        stats.shards_quarantined += 1;
                        if attempt > 0 {
                            stats.shards_restarted += 1;
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

/// The ids of `items` whose forum index (`forum_of`) falls in
/// `forums`. The world as generated numbers threads and posts forum by
/// forum, so that is one contiguous range, found by binary search.
fn id_range<T>(items: &[T], forum_of: impl Fn(&T) -> usize, forums: &Range<usize>) -> Range<usize> {
    items.partition_point(|x| forum_of(x) < forums.start)
        ..items.partition_point(|x| forum_of(x) < forums.end)
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

/// The sharded corpus survey: what the `extract` stage runs when
/// `options.shards > 0`. A supervised round fans the survey out per
/// forum span, and the merge coordinator writes the extraction set and
/// the pre-folded `actors` carry, with its cursors at the end of the
/// corpus.
pub(crate) fn survey(ctx: &mut StageCtx<'_>) -> Result<(), StageError> {
    let shards = ctx.options.shards;
    let world = ctx.world;
    let corpus = &world.corpus;
    let plan = ctx.corruption;
    let poison = ctx.options.poison;
    let supervisor = Supervisor::new(RestartPolicy::default());
    let spans = partition_spans(corpus.forums().len(), shards);

    // Each shard runs the `extract` stage's filter and the `actors`
    // carry's folds over its forum span. Extraction, corruption draws
    // and both folds are per-forum independent, so the partials merge
    // into exactly the unsharded artifacts. The span folds need the
    // world as generated (ids forum by forum) folded in one slice.
    let forum_of_thread = |th: &crimebb::Thread| corpus.board(th.board).forum.index();
    let forum_of_post = |p: &crimebb::Post| forum_of_thread(corpus.thread(p.thread));
    if ctx.options.stream.is_some()
        || !corpus.threads().is_sorted_by_key(forum_of_thread)
        || !corpus.posts().is_sorted_by_key(forum_of_post)
    {
        return Err(StageError::CorruptArtifact {
            path: "shard".to_string(),
            reason: "the shard survey folds the world as generated in one slice; \
                     a streamed run cannot shard"
                .to_string(),
        });
    }
    let (outcomes, supervision) = supervisor.run_round(shards, |s, attempt| {
        poison_check(poison, s, attempt)?;
        let forums = &spans[s];
        let mut set = extract_ewhoring_threads_in(corpus, forums.clone());
        let quarantined = drop_corrupt_rows(corpus, &plan, &mut set);
        let in_ew = thread_mask(corpus, &set.all_threads());
        let mut part = ActorsCarry::default();
        part.ensure(corpus.actors().len());
        part.fold_posts(
            corpus,
            &in_ew,
            id_range(corpus.posts(), forum_of_post, forums),
        );
        part.fold_ce_threads(corpus, id_range(corpus.threads(), forum_of_thread, forums));
        Ok((set, quarantined, part))
    });
    ctx.supervision = supervision;

    // ---- merge coordinator ----
    // Extraction rows always cover every forum in corpus order; a
    // quarantined shard's forums stay empty (its partition degrades
    // out of the report instead of failing the run).
    let mut per_forum: Vec<_> = corpus.forums().iter().map(|f| (f.id, Vec::new())).collect();
    let mut actors = ActorsCarry::default();
    let mut records = 0;
    let mut lost_shards = 0;
    for (s, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            RoundOutcome::Done((set, quarantined, part)) => {
                for (f, ts) in set.per_forum {
                    per_forum[f.index()].1 = ts;
                }
                records += quarantined.len();
                for (record, kind) in quarantined {
                    ctx.ledger.record("extract", record, kind);
                }
                actors.merge(&part);
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
    ctx.note_items(set.len());
    finish(ctx, set, records)?;
    actors.cursor = corpus.posts().len();
    actors.ce_cursor = corpus.threads().len();
    carry_mut(&mut ctx.carry)?.actors = actors;
    Ok(())
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
            Supervision {
                shards_run: 5,
                shards_restarted: 0,
                shards_quarantined: 0
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
        assert_eq!(stats.shards_restarted, 1);
        assert_eq!(stats.shards_quarantined, 0);
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
        assert_eq!(stats.shards_quarantined, 1);
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
