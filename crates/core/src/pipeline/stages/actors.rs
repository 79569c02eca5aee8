//! Stage `actors`: cohorts, interaction graph, key actors (paper §6),
//! and the Currency Exchange table (paper §5.1, Table 7).
//!
//! Table 7 and the key-actor ranking read the same per-actor eWhoring
//! tallies and the same Currency Exchange ledger, so both are assembled
//! here from the one [`ActorsCarry`] fold.

use crate::actors::{
    cohort_table, group_profiles, interest_evolution, popularity,
    select_key_actors_with_centrality, KeyActorInputs,
};
use crate::extract::thread_mask;
use crate::finance::CurrencyExchangeAnalysis;
use crate::pipeline::corruption::RecordErrorKind;
use crate::pipeline::ctx::{carry_mut, require};
use crate::pipeline::epoch::ActorsCarry;
use crate::pipeline::{Stage, StageCtx, StageError};
use crimebb::{ActorId, BoardCategory, Corpus, ForumId};
use socgraph::eigenvector_centrality_from;
use std::collections::HashMap;
use std::ops::Range;

/// Produces `cohorts`, `fig4_points`, `key_actors`, `group_profiles`,
/// `interests`, and `currency`.
pub struct ActorsStage;

impl Stage for ActorsStage {
    fn name(&self) -> &'static str {
        "actors"
    }

    fn run(&self, ctx: &mut StageCtx<'_>) -> Result<(), StageError> {
        let world = ctx.world;
        let all_threads = require(&ctx.all_threads, "all_threads")?;
        let crawl = require(&ctx.crawl, "crawl")?;
        let harvest = require(&ctx.harvest, "harvest")?;

        // Grow the carried interaction graph and the per-actor metric
        // counters by the new slices' posts only, warm-start the
        // centrality iteration from the previous slice's vector, and
        // assemble Table 8 / Figure 4 / Table 7 inputs from the carry.
        // The warm chain replays bit-identically from a fresh carry
        // (same fold order, same fixed iteration budget; the metric
        // counters are integer counts and day spans with no float order
        // to preserve), which keeps advance ≡ recompute.
        let spec = ctx.slices();
        let carry = &mut carry_mut(&mut ctx.carry)?.actors;
        let corpus = &world.corpus;
        let n_actors = corpus.actors().len();
        // Every actor exists from the base world on, so the node set is
        // fixed across all slices. A carry the shard driver pre-folded
        // arrives with its graph built and its cursors at the end.
        carry.ensure(n_actors);
        if carry.influence.is_empty() {
            carry.influence = vec![1.0 / (n_actors as f64).sqrt(); n_actors];
        }
        let in_ew = thread_mask(corpus, all_threads);
        let posts = corpus.posts();
        for j in carry.epoch + 1..=spec.upto {
            // The final slice runs to the end of the timeline. Earlier
            // slices end at their bound: on a feed world post ids are
            // chronological, so that is one `partition_point`.
            let boundary = if j >= spec.epochs {
                posts.len()
            } else {
                let bound = spec.bound(&world.config, j);
                posts.partition_point(|p| p.date <= bound)
            };
            carry.fold_posts(corpus, &in_ew, carry.cursor..boundary);
            carry.cursor = boundary;
            carry.influence = eigenvector_centrality_from(
                &carry.graph,
                &carry.influence,
                200,
                ctx.options.workers,
            );
        }
        carry.epoch = spec.upto;
        carry.fold_ce_threads(corpus, carry.ce_cursor..corpus.threads().len());
        carry.ce_cursor = corpus.threads().len();
        let (currency, ce_by_actor) = currency_exchange(corpus, world.hackforums, carry);
        let metrics = carry.fold.metrics();
        let graph = &carry.graph;
        let centrality = &carry.influence;
        let cohorts = cohort_table(&metrics);
        // Defensive finiteness gate on the Figure 4 scatter: a metric
        // whose eWhoring percentage comes back non-finite (division on
        // corrupt post counts) is quarantined rather than plotted. With
        // healthy inputs this never fires and the artifact is identical.
        let mut fig4_points: Vec<(usize, f64, u32, u32)> = Vec::with_capacity(metrics.len());
        for (i, m) in metrics.iter().enumerate() {
            let pct = m.pct_ewhoring();
            if pct.is_finite() {
                fig4_points.push((m.ew_posts, pct, m.days_before, m.days_after));
            } else {
                ctx.ledger.record(
                    "actors",
                    format!("actor_metric/{i}"),
                    RecordErrorKind::NonFiniteFeature,
                );
            }
        }
        let pop = popularity(&world.corpus, all_threads);

        // Measured per-actor quantities for key-actor selection.
        let mut packs_by_actor: HashMap<ActorId, usize> = HashMap::new();
        for p in &crawl.packs {
            *packs_by_actor
                .entry(world.corpus.thread(p.link.thread).author)
                .or_insert(0) += 1;
        }
        let mut earnings_by_actor: HashMap<ActorId, f64> = HashMap::new();
        for proof in &harvest.proofs {
            *earnings_by_actor.entry(proof.actor).or_insert(0.0) += proof.usd;
        }

        let inputs = KeyActorInputs {
            metrics: &metrics,
            packs_by_actor: &packs_by_actor,
            earnings_by_actor: &earnings_by_actor,
            popularity: &pop,
            graph,
            ce_by_actor: &ce_by_actor,
        };
        let key_actors =
            select_key_actors_with_centrality(&inputs, centrality, ctx.options.k_key_actors);
        let profiles = group_profiles(&inputs, &key_actors);
        let interests = interest_evolution(&world.corpus, &metrics, &key_actors.all);

        ctx.note_items(metrics.len());
        ctx.cohorts = Some(cohorts);
        ctx.fig4_points = Some(fig4_points);
        ctx.key_actors = Some(key_actors);
        ctx.group_profiles = Some(profiles);
        ctx.interests = Some(interests);
        ctx.currency = Some(currency);
        Ok(())
    }
}

impl ActorsCarry {
    /// Sizes the metric counters and the graph for `n_actors`.
    /// Idempotent on warm carries.
    pub(crate) fn ensure(&mut self, n_actors: usize) {
        self.fold.ensure(n_actors);
        self.graph.ensure_nodes(n_actors);
    }

    /// Folds posts `range` (by id) into the per-actor counters and the
    /// §6.1 reply/quote graph. `in_ew` marks the extracted eWhoring
    /// threads by [`crimebb::ThreadId::index`]. Every post of an
    /// eWhoring thread but the opening one is an edge from its author to
    /// the quoted post's author, or else to the thread's author;
    /// self-replies add nothing. Counts, `min`/`max` days and integer
    /// edge weights are order-insensitive, so any split of the post list
    /// into ranges folds to the same carry.
    pub(crate) fn fold_posts(&mut self, corpus: &Corpus, in_ew: &[bool], range: Range<usize>) {
        for post in &corpus.posts()[range] {
            let t = post.thread;
            let ew = in_ew[t.index()];
            self.fold.note_post(post.author, post.date, ew);
            // The opening post starts the thread, it replies to nothing.
            if !ew || corpus.posts_in_thread(t).first() == Some(&post.id) {
                continue;
            }
            let target = match post.quotes {
                Some(q) => corpus.post(q).author,
                None => corpus.thread(t).author,
            };
            if post.author != target {
                self.graph.add_edge(post.author.0, target.0, 1.0);
            }
        }
    }

    /// Appends the Currency Exchange threads among threads `range` (by
    /// id) to the ledger. Board and author are fixed at creation; the
    /// Table 7 gates are checked at assembly, because an actor can cross
    /// the post threshold slices after opening a thread.
    pub(crate) fn fold_ce_threads(&mut self, corpus: &Corpus, range: Range<usize>) {
        for th in &corpus.threads()[range] {
            if corpus.board(th.board).category == BoardCategory::CurrencyExchange {
                self.ce_threads.push((th.author, th.id));
            }
        }
    }

    /// Merges another carry's folds in: counters via
    /// [`ActorFold::merge`], graph edges re-added from `out_edges`
    /// (integer weights, so the order of additions cannot change a
    /// sum), and the other ledger appended after this one. Cursors,
    /// epoch and centrality are left to the caller.
    ///
    /// [`ActorFold::merge`]: crate::actors::ActorFold::merge
    pub(crate) fn merge(&mut self, other: &ActorsCarry) {
        self.ensure(other.graph.node_count());
        self.fold.merge(&other.fold);
        for a in 0..other.graph.node_count() as u32 {
            for &(b, w) in other.graph.out_edges(a) {
                self.graph.add_edge(a, b, w);
            }
        }
        self.ce_threads.extend_from_slice(&other.ce_threads);
    }
}

/// Table 7 and the per-actor Currency Exchange thread counts behind the
/// key-actor ranking, from one pass over the ledger threads that pass
/// the Table 7 gates: the actor is a HackForums member with more than
/// 50 eWhoring posts, and the thread is on HackForums and started on or
/// after the actor's first eWhoring post. The map's contents (never its
/// iteration order) feed the ranking.
fn currency_exchange(
    corpus: &Corpus,
    hackforums: ForumId,
    carry: &ActorsCarry,
) -> (CurrencyExchangeAnalysis, HashMap<ActorId, usize>) {
    let fold = &carry.fold;
    let mut table = CurrencyExchangeAnalysis::default();
    let mut by_actor: HashMap<ActorId, usize> = HashMap::new();
    for &(actor, t) in &carry.ce_threads {
        let i = actor.index();
        let thread = corpus.thread(t);
        if fold.ew_posts[i] > 50
            && corpus.actor(actor).forum == hackforums
            && corpus.forum_of_thread(t) == hackforums
            && thread.created >= fold.first_ew[i]
        {
            *by_actor.entry(actor).or_insert(0) += 1;
            table.tally(&thread.heading);
        }
    }
    table.actors = by_actor.len();
    (table, by_actor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crimebb::CorpusBuilder;
    use synthrand::Day;

    /// Hand-built corpus exercising every Table 7 gate of
    /// `currency_exchange`: the >50-posts threshold, the
    /// HackForums-membership requirement, and the
    /// started-after-first-eWhoring-post cutoff.
    #[test]
    fn currency_exchange_applies_every_gate() {
        let mut b = CorpusBuilder::new();
        let hf = b.add_forum("Hackforums");
        let other = b.add_forum("Elsewhere");
        let ew = b.add_board(hf, "eWhoring", BoardCategory::EWhoring);
        let ce = b.add_board(hf, "Currency Exchange", BoardCategory::CurrencyExchange);
        let ew_other = b.add_board(other, "ew", BoardCategory::EWhoring);
        let ce_other = b.add_board(other, "ce", BoardCategory::CurrencyExchange);

        let reg = Day::from_ymd(2014, 1, 1);
        let heavy = b.add_actor(hf, "heavy", reg);
        let light = b.add_actor(hf, "light", reg);
        let outsider = b.add_actor(other, "outsider", reg);
        let early = b.add_actor(hf, "early", reg);

        // One eWhoring thread on HF holding everyone's posts, plus one on
        // the other forum for the outsider.
        let t_ew = b.add_thread(ew, heavy, "pics", Day::from_ymd(2016, 1, 1));
        for i in 0..60 {
            // `heavy` and `early` clear the >50 threshold…
            b.add_post(
                t_ew,
                heavy,
                Day::from_ymd(2016, 1, 1).plus_days(i),
                "p",
                None,
            );
            b.add_post(
                t_ew,
                early,
                Day::from_ymd(2016, 1, 1).plus_days(i),
                "p",
                None,
            );
        }
        for i in 60..70 {
            // …`light` does not (posts must stay chronological in-thread).
            b.add_post(
                t_ew,
                light,
                Day::from_ymd(2016, 1, 1).plus_days(i),
                "p",
                None,
            );
        }
        let t_ew2 = b.add_thread(ew_other, outsider, "pics", Day::from_ymd(2016, 1, 1));
        for i in 0..60 {
            b.add_post(
                t_ew2,
                outsider,
                Day::from_ymd(2016, 1, 1).plus_days(i),
                "p",
                None,
            );
        }

        // Currency Exchange threads: `heavy` starts two after entering
        // eWhoring; `light` starts one (filtered: too few posts);
        // `outsider` starts one on the wrong forum; `early` only started
        // CE *before* their first eWhoring post.
        b.add_thread(ce, heavy, "btc", Day::from_ymd(2016, 6, 1));
        b.add_thread(ce, heavy, "pp", Day::from_ymd(2016, 7, 1));
        b.add_thread(ce, light, "btc", Day::from_ymd(2016, 6, 1));
        b.add_thread(ce_other, outsider, "btc", Day::from_ymd(2016, 6, 1));
        b.add_thread(ce, early, "btc", Day::from_ymd(2015, 6, 1));
        let corpus = b.build();

        // The carry as the stage folds it: every post once, every
        // Currency Exchange thread at creation.
        let mut carry = ActorsCarry::default();
        carry.ensure(corpus.actors().len());
        let in_ew = thread_mask(&corpus, &[t_ew, t_ew2]);
        carry.fold_posts(&corpus, &in_ew, 0..corpus.posts().len());
        carry.fold_ce_threads(&corpus, 0..corpus.threads().len());
        assert_eq!(
            carry.ce_threads.len(),
            5,
            "every CE thread enters the ledger"
        );
        let (table, out) = currency_exchange(&corpus, hf, &carry);

        assert_eq!(out.get(&heavy), Some(&2), "qualifies on every gate");
        assert!(!out.contains_key(&light), "≤50 eWhoring posts");
        assert!(
            !out.contains_key(&outsider),
            "not a HackForums member, despite >50 posts and a CE thread"
        );
        assert!(
            !out.contains_key(&early),
            "CE thread predates their first eWhoring post"
        );
        assert_eq!(out.len(), 1);
        assert_eq!((table.actors, table.threads), (1, 2));
        assert_eq!(table.offered.values().sum::<usize>(), 2);
    }
}
