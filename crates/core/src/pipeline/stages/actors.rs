//! Stage `actors`: cohorts, interaction graph, and key actors (paper §6).

use crate::actors::{
    cohort_table, group_profiles, interest_evolution, popularity,
    select_key_actors_with_centrality, ActorFold, KeyActorInputs,
};
use crate::finance::qualifying_ce_threads;
use crate::pipeline::corruption::RecordErrorKind;
use crate::pipeline::ctx::{carry_mut, require};
use crate::pipeline::{Stage, StageCtx, StageError};
use crimebb::{ActorId, BoardCategory, Corpus, ForumId, ThreadId};
use socgraph::{eigenvector_centrality_from, DiGraph};
use std::collections::{HashMap, HashSet};

/// Produces `cohorts`, `fig4_points`, `key_actors`, `group_profiles`,
/// and `interests`.
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
        if carry.graph.node_count() == 0 {
            carry.graph = DiGraph::with_nodes(n_actors);
        }
        if carry.influence.is_empty() {
            carry.influence = vec![1.0 / (n_actors as f64).sqrt(); n_actors];
        }
        carry.fold.ensure(n_actors);
        let ewset: HashSet<ThreadId> = all_threads.iter().copied().collect();
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
            for post in &posts[carry.cursor..boundary] {
                let t = post.thread;
                let in_ew = ewset.contains(&t);
                carry.fold.note_post(post.author, post.date, in_ew);
                if !in_ew {
                    continue;
                }
                // The opening post starts the thread, it replies to
                // nothing.
                if corpus.posts_in_thread(t).first() == Some(&post.id) {
                    continue;
                }
                let target = match post.quotes {
                    Some(q) => corpus.post(q).author,
                    None => corpus.thread(t).author,
                };
                if post.author != target {
                    carry.graph.add_edge(post.author.0, target.0, 1.0);
                }
            }
            carry.cursor = boundary;
            carry.influence = eigenvector_centrality_from(
                &carry.graph,
                &carry.influence,
                200,
                ctx.options.workers,
            );
        }
        carry.epoch = spec.upto;
        // CE-thread ledger grown at creation (board and author are fixed
        // then); the >50-post qualification is re-checked at assembly
        // because it can be crossed slices later.
        let threads = corpus.threads();
        for th in &threads[carry.ce_cursor..] {
            if corpus.board(th.board).category == BoardCategory::CurrencyExchange {
                carry.ce_threads.push((th.author, th.id));
            }
        }
        carry.ce_cursor = threads.len();
        let metrics = carry.fold.metrics();
        let ce_by_actor =
            ce_threads_from_fold(corpus, world.hackforums, &carry.fold, &carry.ce_threads);
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
        Ok(())
    }
}

/// Post-eWhoring Currency Exchange thread counts per qualifying actor
/// (paper §5.1), from the carried per-actor eWhoring tallies and CE
/// ledger through the Table 7 gates ([`qualifying_ce_threads`]). The
/// output map's contents (never its iteration order) feed the key-actor
/// ranking, so equality of contents is equality of artifact.
pub(crate) fn ce_threads_from_fold(
    corpus: &Corpus,
    hackforums: ForumId,
    fold: &ActorFold,
    ce_threads: &[(ActorId, ThreadId)],
) -> HashMap<ActorId, usize> {
    let mut out = HashMap::new();
    for (actor, _) in qualifying_ce_threads(
        corpus,
        hackforums,
        &fold.ew_posts,
        &fold.first_ew,
        ce_threads,
    ) {
        *out.entry(actor).or_insert(0) += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crimebb::CorpusBuilder;
    use synthrand::Day;

    /// Hand-built corpus exercising every gate of `ce_threads_from_fold`:
    /// the >50-posts threshold, the HackForums-membership requirement,
    /// and the started-after-first-eWhoring-post cutoff.
    #[test]
    fn ce_threads_from_fold_applies_every_gate() {
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

        // The fold and the CE ledger as the stage builds them: every
        // post once, every Currency Exchange thread at creation.
        let ewset: HashSet<ThreadId> = [t_ew, t_ew2].into_iter().collect();
        let mut fold = ActorFold::default();
        fold.ensure(corpus.actors().len());
        for post in corpus.posts() {
            fold.note_post(post.author, post.date, ewset.contains(&post.thread));
        }
        let ledger: Vec<(ActorId, ThreadId)> = corpus
            .threads()
            .iter()
            .filter(|th| corpus.board(th.board).category == BoardCategory::CurrencyExchange)
            .map(|th| (th.author, th.id))
            .collect();
        assert_eq!(ledger.len(), 5, "every CE thread enters the ledger");
        let out = ce_threads_from_fold(&corpus, hf, &fold, &ledger);

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
    }
}
