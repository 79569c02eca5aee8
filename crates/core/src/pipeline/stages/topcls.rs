//! Stage `top_classifier`: hybrid TOP detection + Table 1 (paper §4.1).
//!
//! Threads whose feature inputs come back non-finite (a corrupt numeric
//! column upstream — injected by the run's corruption plan) are
//! quarantined before training/classification rather than letting NaN
//! poison the SVM's weight updates. The quarantine check happens in
//! this serial section, so the outcome is worker-independent.

use crate::extract::EwhoringSet;
use crate::pipeline::corruption::RecordErrorKind;
use crate::pipeline::ctx::{carry_mut, require};
use crate::pipeline::{ForumRow, Stage, StageCtx, StageError};
use crate::topcls::bootstrap_at;
use crimebb::{Corpus, ThreadId};
use std::collections::{HashMap, HashSet};

/// Produces `topcls` and `forums` (Table 1).
pub struct TopClassifierStage;

impl Stage for TopClassifierStage {
    fn name(&self) -> &'static str {
        "top_classifier"
    }

    fn run(&self, ctx: &mut StageCtx<'_>) -> Result<(), StageError> {
        let world = ctx.world;
        let plan = ctx.corruption;
        let all_threads = require(&ctx.all_threads, "all_threads")?;
        // Partition out threads with NaN-producing feature inputs; the
        // classifier only ever sees finite vectors. Inert at severity 0
        // (`clean` is then the untouched artifact list).
        let clean: Vec<ThreadId>;
        let classify_input: &[ThreadId] = if plan.is_enabled() {
            let mut kept = Vec::with_capacity(all_threads.len());
            let mut noisy = Vec::new();
            for &t in all_threads {
                if plan.feature_noise(t).is_finite() {
                    kept.push(t);
                } else {
                    noisy.push(t);
                }
            }
            clean = kept;
            for t in noisy {
                ctx.ledger.record(
                    "top_classifier",
                    format!("thread/{}", t.0),
                    RecordErrorKind::NonFiniteFeature,
                );
            }
            &clean
        } else {
            all_threads
        };
        // Decisions are made once, at each thread's first-sight slice
        // boundary, against the bootstrap-frozen model, so an advance
        // only classifies its slice's new threads. A fresh carry replays
        // the identical per-slice chain, which is what makes warm
        // advance ≡ full recompute.
        let spec = ctx.slices();
        let carry = &mut carry_mut(&mut ctx.carry)?.topcls;
        let workers = ctx.options.workers;
        // Bucket this advance's undecided threads by first-sight slice
        // in ONE pass: thread creation days are prefix-stable under the
        // calendar window, so a thread's slice never changes once
        // assigned. Buckets preserve extraction order, so each sublist
        // is identical whether computed on the slice-`j` world (warm) or
        // the slice-`upto` one (fresh).
        let prev_bound = spec.bound(&world.config, carry.epoch);
        let bounds: Vec<_> = (carry.epoch + 1..=spec.upto)
            .map(|j| spec.bound(&world.config, j))
            .collect();
        let mut buckets: Vec<Vec<ThreadId>> = vec![Vec::new(); bounds.len()];
        for &t in classify_input {
            let created = world.corpus.thread(t).created;
            // Slice 1 has no lower cutoff (pre-window threads are
            // first-sighted there).
            if carry.epoch > 0 && created <= prev_bound {
                continue; // decided in an earlier advance
            }
            // A thread past the last bound is never decided this advance.
            if let Some(i) = bounds.iter().position(|&b| created <= b) {
                buckets[i].push(t);
            }
        }
        for (fresh, &cutoff) in buckets.iter().zip(&bounds) {
            if carry.model.is_none() {
                carry.model = Some(bootstrap_at(
                    &mut ctx.rng,
                    &world.corpus,
                    &world.catalog,
                    &world.truth,
                    fresh,
                    cutoff,
                    workers,
                ));
            }
            let model = carry.model.as_ref().expect("bootstrapped above");
            let decided = model.decide_at(&world.corpus, &world.catalog, fresh, cutoff, workers);
            carry.decisions.extend(
                fresh
                    .iter()
                    .zip(&decided)
                    .map(|(&t, &(ml, h, _))| (t, ml, h)),
            );
            // Delta text-index update: only the new threads' tokens are
            // counted; vocabulary ids are append-stable.
            let docs: Vec<Vec<String>> = decided.into_iter().map(|(_, _, tokens)| tokens).collect();
            carry.index.fold(&docs, workers);
        }
        carry.epoch = spec.upto;

        // Assemble the artifact from the carried first-sight decisions,
        // tallied in current extraction order.
        let by_thread: HashMap<ThreadId, (bool, bool)> = carry
            .decisions
            .iter()
            .map(|&(t, ml, h)| (t, (ml, h)))
            .collect();
        debug_assert!(
            classify_input.iter().all(|t| by_thread.contains_key(t)),
            "every thread is decided"
        );
        let model = carry.model.as_ref().expect("at least one slice ran");
        let mut topcls = model.tally(
            classify_input,
            classify_input
                .iter()
                .map(|t| by_thread.get(t).copied().unwrap_or((false, false))),
        );
        topcls.stream_index = Some(carry.index.stats());
        let items = classify_input.len();
        let set = require(&ctx.extraction, "extraction")?;
        let forums = forum_rows(&world.corpus, set, &topcls.detected);
        ctx.note_items(items);
        ctx.topcls = Some(topcls);
        ctx.forums = Some(forums);
        Ok(())
    }
}

/// Table 1 rows from the extraction and classification.
pub(crate) fn forum_rows(
    corpus: &Corpus,
    set: &EwhoringSet,
    detected_tops: &[ThreadId],
) -> Vec<ForumRow> {
    let top_set: HashSet<ThreadId> = detected_tops.iter().copied().collect();
    set.per_forum
        .iter()
        .map(|(forum, threads)| {
            let posts = corpus.post_count_in(threads);
            let first = corpus
                .earliest_post_in(threads)
                .map_or_else(|| "-".to_string(), |d| d.mm_yy());
            ForumRow {
                forum: corpus.forum(*forum).name.clone(),
                threads: threads.len(),
                posts,
                first_post: first,
                tops: threads.iter().filter(|t| top_set.contains(t)).count(),
                actors: corpus.actors_in_threads(threads).len(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crimebb::{BoardCategory, CorpusBuilder};
    use synthrand::Day;

    /// Two forums, hand-built: forum A has three eWhoring threads (two
    /// detected as TOPs), forum B has one thread (not a TOP).
    #[test]
    fn forum_rows_count_tops_per_forum() {
        let mut b = CorpusBuilder::new();
        let fa = b.add_forum("Alpha");
        let fb = b.add_forum("Beta");
        let ba = b.add_board(fa, "ew-a", BoardCategory::EWhoring);
        let bb = b.add_board(fb, "ew-b", BoardCategory::EWhoring);
        let ann = b.add_actor(fa, "ann", Day::from_ymd(2015, 1, 1));
        let bob = b.add_actor(fa, "bob", Day::from_ymd(2015, 2, 1));
        let cyn = b.add_actor(fb, "cyn", Day::from_ymd(2015, 3, 1));

        let t1 = b.add_thread(ba, ann, "pack one", Day::from_ymd(2016, 1, 5));
        b.add_post(t1, ann, Day::from_ymd(2016, 1, 5), "op", None);
        b.add_post(t1, bob, Day::from_ymd(2016, 1, 6), "re", None);
        let t2 = b.add_thread(ba, bob, "pack two", Day::from_ymd(2016, 2, 5));
        b.add_post(t2, bob, Day::from_ymd(2016, 2, 5), "op", None);
        let t3 = b.add_thread(ba, ann, "chat", Day::from_ymd(2016, 3, 5));
        b.add_post(t3, ann, Day::from_ymd(2016, 3, 5), "op", None);
        let t4 = b.add_thread(bb, cyn, "misc", Day::from_ymd(2017, 4, 5));
        b.add_post(t4, cyn, Day::from_ymd(2017, 4, 5), "op", None);
        let corpus = b.build();

        let set = EwhoringSet {
            per_forum: vec![(fa, vec![t1, t2, t3]), (fb, vec![t4])],
        };
        let rows = forum_rows(&corpus, &set, &[t1, t2]);

        assert_eq!(rows.len(), 2);
        let a = &rows[0];
        assert_eq!(a.forum, "Alpha");
        assert_eq!(a.threads, 3);
        assert_eq!(a.posts, 4);
        assert_eq!(a.first_post, "01/16");
        assert_eq!(a.tops, 2, "only t1 and t2 are detected TOPs");
        assert_eq!(a.actors, 2, "ann and bob post in Alpha's threads");
        let bta = &rows[1];
        assert_eq!(bta.forum, "Beta");
        assert_eq!(bta.threads, 1);
        assert_eq!(bta.posts, 1);
        assert_eq!(bta.first_post, "04/17");
        assert_eq!(bta.tops, 0, "a TOP in forum A never counts for forum B");
        assert_eq!(bta.actors, 1);
    }

    /// A forum with no posts renders the placeholder first-post date.
    #[test]
    fn forum_rows_handle_empty_forums() {
        let mut b = CorpusBuilder::new();
        let f = b.add_forum("Quiet");
        let _ = b.add_board(f, "ew", BoardCategory::EWhoring);
        let corpus = b.build();
        let set = EwhoringSet {
            per_forum: vec![(f, vec![])],
        };
        let rows = forum_rows(&corpus, &set, &[]);
        assert_eq!(rows[0].first_post, "-");
        assert_eq!(rows[0].threads, 0);
        assert_eq!(rows[0].tops, 0);
    }
}
