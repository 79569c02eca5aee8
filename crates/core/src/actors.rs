//! Stage 8: analysis of eWhoring actors (paper §6).
//!
//! * **Overview** (Table 8, Figure 4): per-actor eWhoring post counts,
//!   share of activity that is eWhoring, and days active before/after the
//!   eWhoring window, grouped into the paper's ≥1/≥10/≥50/… cohorts.
//! * **Social network** (§6.1): a reply/quote graph over eWhoring threads
//!   ("actor A has responded to actor B if either A explicitly quotes a
//!   post made by B … or A directly posts a reply in a thread initiated by
//!   B"), with H-index, i-10/50/100 and eigenvector centrality.
//! * **Key actors** (§6.3, Tables 9/10): rank-based selection along five
//!   indicators, their pairwise overlaps and per-group characteristics.
//! * **Interests** (Figure 5): key actors' posting mix across board
//!   categories before, during and after eWhoring ("we removed all
//!   activity in … 'The Lounge'").

use crimebb::{ActorId, BoardCategory, Corpus, ThreadId};
use serde::{Deserialize, Serialize};
use socgraph::{eigenvector_centrality_par, h_index, i_index, DiGraph};
use std::collections::{BTreeMap, HashMap, HashSet};
use synthrand::Day;

/// Per-actor measurements over the eWhoring set.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ActorMetrics {
    /// The actor.
    pub actor: ActorId,
    /// Posts in eWhoring threads.
    pub ew_posts: usize,
    /// Posts anywhere on the forum.
    pub total_posts: usize,
    /// First eWhoring post date.
    pub first_ew: Day,
    /// Last eWhoring post date.
    pub last_ew: Day,
    /// Days active before the first eWhoring post.
    pub days_before: u32,
    /// Days active after the last eWhoring post.
    pub days_after: u32,
}

impl ActorMetrics {
    /// Share of the actor's posts that are eWhoring-related.
    pub fn pct_ewhoring(&self) -> f64 {
        if self.total_posts == 0 {
            0.0
        } else {
            self.ew_posts as f64 / self.total_posts as f64
        }
    }
}

/// One Table 8 row.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CohortRow {
    /// Cohort threshold (≥ this many eWhoring posts).
    pub min_posts: usize,
    /// Actors in the cohort.
    pub actors: usize,
    /// Mean eWhoring posts per actor.
    pub avg_posts: f64,
    /// Mean percentage of activity that is eWhoring.
    pub pct_ewhoring: f64,
    /// Mean days posting before eWhoring.
    pub days_before: f64,
    /// Mean days posting after eWhoring.
    pub days_after: f64,
}

/// Table 8 thresholds.
pub const COHORT_THRESHOLDS: [usize; 7] = [1, 10, 50, 100, 200, 500, 1000];

/// Per-actor streaming counters behind the Table 8 / Figure 4 assembly
/// (carried in the epoch carry's `ActorsCarry`). Each post is folded
/// exactly once, at the epoch it arrives; [`ActorFold::metrics`] then
/// assembles the same rows as [`actor_metrics`] over the full corpus.
///
/// Every counter is an integer count or a `min`/`max` over post days —
/// all order-insensitive — so the fold is exact regardless of how the
/// timeline is sliced into epochs, and there is no float operand order
/// to preserve.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ActorFold {
    /// Posts in eWhoring threads, indexed by actor id.
    pub ew_posts: Vec<u32>,
    /// Posts anywhere on the forum, indexed by actor id.
    pub total_posts: Vec<u32>,
    /// First eWhoring post day (`Day(u32::MAX)` until the first lands).
    pub first_ew: Vec<Day>,
    /// Last eWhoring post day (`Day(0)` until the first lands).
    pub last_ew: Vec<Day>,
    /// First post day anywhere (`Day(u32::MAX)` sentinel).
    pub first_post: Vec<Day>,
    /// Last post day anywhere (`Day(0)` sentinel).
    pub last_post: Vec<Day>,
}

impl ActorFold {
    /// Sizes every counter vector for `n_actors` (actors are
    /// registration-time metadata and exist from epoch 0, so the node
    /// set never grows). Idempotent on warm carries.
    pub fn ensure(&mut self, n_actors: usize) {
        self.ew_posts.resize(n_actors, 0);
        self.total_posts.resize(n_actors, 0);
        self.first_ew.resize(n_actors, Day(u32::MAX));
        self.last_ew.resize(n_actors, Day(0));
        self.first_post.resize(n_actors, Day(u32::MAX));
        self.last_post.resize(n_actors, Day(0));
    }

    /// Folds one post into the counters. `in_ew` is whether the post's
    /// thread is in the extracted eWhoring set — membership is decided
    /// by the heading at thread creation, so the answer is identical at
    /// every later epoch.
    pub fn note_post(&mut self, actor: ActorId, date: Day, in_ew: bool) {
        let i = actor.0 as usize;
        self.total_posts[i] += 1;
        self.first_post[i] = self.first_post[i].min(date);
        self.last_post[i] = self.last_post[i].max(date);
        if in_ew {
            self.ew_posts[i] += 1;
            self.first_ew[i] = self.first_ew[i].min(date);
            self.last_ew[i] = self.last_ew[i].max(date);
        }
    }

    /// Merges another fold's counters in — the shard coordinator's half
    /// of the fold. Counts add; first/last days take min/max, matching
    /// the sentinels [`ActorFold::ensure`] seeds. Because every post is
    /// folded into exactly one shard's partial, merging the partials in
    /// any order reproduces the single-process fold exactly.
    pub fn merge(&mut self, other: &ActorFold) {
        self.ensure(other.ew_posts.len());
        for i in 0..other.ew_posts.len() {
            self.ew_posts[i] += other.ew_posts[i];
            self.total_posts[i] += other.total_posts[i];
            self.first_ew[i] = self.first_ew[i].min(other.first_ew[i]);
            self.last_ew[i] = self.last_ew[i].max(other.last_ew[i]);
            self.first_post[i] = self.first_post[i].min(other.first_post[i]);
            self.last_post[i] = self.last_post[i].max(other.last_post[i]);
        }
    }

    /// Assembles the [`actor_metrics`] rows from the carried counters:
    /// every actor with at least one eWhoring post, in ascending actor
    /// id — the same order `actor_metrics` sorts into.
    pub fn metrics(&self) -> Vec<ActorMetrics> {
        let mut out = Vec::new();
        for i in 0..self.ew_posts.len() {
            if self.ew_posts[i] == 0 {
                continue;
            }
            out.push(ActorMetrics {
                actor: ActorId(i as u32),
                ew_posts: self.ew_posts[i] as usize,
                total_posts: self.total_posts[i] as usize,
                first_ew: self.first_ew[i],
                last_ew: self.last_ew[i],
                days_before: self.first_ew[i].days_since(self.first_post[i]),
                days_after: self.last_post[i].days_since(self.last_ew[i]),
            });
        }
        out
    }
}

/// Computes per-actor metrics over the extracted eWhoring threads.
pub fn actor_metrics(corpus: &Corpus, ewhoring_threads: &[ThreadId]) -> Vec<ActorMetrics> {
    let counts = corpus.posts_per_actor_in(ewhoring_threads);
    let thread_set: HashSet<ThreadId> = ewhoring_threads.iter().copied().collect();
    let mut out: Vec<ActorMetrics> = Vec::with_capacity(counts.len());
    for (&actor, &ew_posts) in &counts {
        let (first_ew, last_ew) = corpus
            .actor_span_in_set(actor, &thread_set)
            .expect("actor posted in the set");
        let (first_post, last_post) = corpus.actor_activity_span(actor).expect("actor has posts");
        out.push(ActorMetrics {
            actor,
            ew_posts,
            total_posts: corpus.posts_by(actor).len(),
            first_ew,
            last_ew,
            days_before: first_ew.days_since(first_post),
            days_after: last_post.days_since(last_ew),
        });
    }
    out.sort_unstable_by_key(|m| m.actor);
    out
}

/// Builds Table 8 from per-actor metrics.
pub fn cohort_table(metrics: &[ActorMetrics]) -> Vec<CohortRow> {
    COHORT_THRESHOLDS
        .iter()
        .map(|&min_posts| {
            let cohort: Vec<&ActorMetrics> =
                metrics.iter().filter(|m| m.ew_posts >= min_posts).collect();
            let n = cohort.len();
            let mean = |f: &dyn Fn(&ActorMetrics) -> f64| -> f64 {
                if n == 0 {
                    0.0
                } else {
                    cohort.iter().map(|m| f(m)).sum::<f64>() / n as f64
                }
            };
            CohortRow {
                min_posts,
                actors: n,
                avg_posts: mean(&|m| m.ew_posts as f64),
                pct_ewhoring: mean(&|m| m.pct_ewhoring() * 100.0),
                days_before: mean(&|m| f64::from(m.days_before)),
                days_after: mean(&|m| f64::from(m.days_after)),
            }
        })
        .collect()
}

/// Builds the §6.1 interaction graph. Node ids are `ActorId` values.
pub fn interaction_graph(corpus: &Corpus, ewhoring_threads: &[ThreadId]) -> DiGraph {
    let mut g = DiGraph::with_nodes(corpus.actors().len());
    for &t in ewhoring_threads {
        let thread_author = corpus.thread(t).author;
        let posts = corpus.posts_in_thread(t);
        for &p in posts.iter().skip(1) {
            let post = corpus.post(p);
            let target = match post.quotes {
                Some(q) => corpus.post(q).author,
                None => thread_author,
            };
            if post.author != target {
                g.add_edge(post.author.0, target.0, 1.0);
            }
        }
    }
    g
}

/// Popularity indices of one actor (§6.1).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Popularity {
    /// H-index over initiated threads' reply counts.
    pub h_index: usize,
    /// Threads with ≥10 replies.
    pub i10: usize,
    /// Threads with ≥50 replies.
    pub i50: usize,
    /// Threads with ≥100 replies.
    pub i100: usize,
}

/// Computes popularity indices for every actor that initiated an eWhoring
/// thread.
pub fn popularity(corpus: &Corpus, ewhoring_threads: &[ThreadId]) -> HashMap<ActorId, Popularity> {
    let mut replies_by_author: HashMap<ActorId, Vec<usize>> = HashMap::new();
    for &t in ewhoring_threads {
        replies_by_author
            .entry(corpus.thread(t).author)
            .or_default()
            .push(corpus.reply_count(t));
    }
    replies_by_author
        .into_iter()
        .map(|(a, replies)| {
            (
                a,
                Popularity {
                    h_index: h_index(&replies),
                    i10: i_index(&replies, 10),
                    i50: i_index(&replies, 50),
                    i100: i_index(&replies, 100),
                },
            )
        })
        .collect()
}

/// The five §6.3 key-actor indicators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum KeyGroup {
    /// Top pack sharers.
    Packs,
    /// Highest reported earnings.
    Earnings,
    /// Highest H-index.
    Popular,
    /// Most Currency-Exchange-active after starting eWhoring.
    CurrencyExchange,
    /// Highest eigenvector centrality.
    Influence,
}

impl KeyGroup {
    /// All groups in Table 9/10 order.
    pub const ALL: [KeyGroup; 5] = [
        KeyGroup::Popular,
        KeyGroup::Influence,
        KeyGroup::Earnings,
        KeyGroup::CurrencyExchange,
        KeyGroup::Packs,
    ];

    /// Short label used in the tables (paper Table 10 legend).
    pub fn label(self) -> &'static str {
        match self {
            KeyGroup::Popular => "Hi",
            KeyGroup::Influence => "I",
            KeyGroup::Earnings => "$",
            KeyGroup::CurrencyExchange => "Ce",
            KeyGroup::Packs => "P",
        }
    }
}

/// Key-actor selection output.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KeyActors {
    /// Members per group.
    pub groups: BTreeMap<KeyGroup, Vec<ActorId>>,
    /// The union (paper: 195 actors).
    pub all: Vec<ActorId>,
    /// Pairwise intersection sizes, `(a, b, |A ∩ B|)` (Table 9's
    /// off-diagonal).
    pub intersections: Vec<(KeyGroup, KeyGroup, usize)>,
    /// Actors unique to each group (Table 9's diagonal).
    pub unique: BTreeMap<KeyGroup, usize>,
}

/// Inputs for key-actor selection, all *measured* quantities.
pub struct KeyActorInputs<'a> {
    /// Per-actor metrics (Table 8 base data).
    pub metrics: &'a [ActorMetrics],
    /// Packs shared per actor (authors of detected TOPs with packs).
    pub packs_by_actor: &'a HashMap<ActorId, usize>,
    /// Measured per-actor earnings in USD.
    pub earnings_by_actor: &'a HashMap<ActorId, f64>,
    /// Popularity indices.
    pub popularity: &'a HashMap<ActorId, Popularity>,
    /// The interaction graph.
    pub graph: &'a DiGraph,
    /// CE threads per actor after starting eWhoring.
    pub ce_by_actor: &'a HashMap<ActorId, usize>,
}

/// Selects the key actors: top `k` per indicator (the paper uses 50, plus
/// a ≥6-packs rule that yielded 63 sharers). The eigenvector-centrality
/// power iteration runs across `workers` threads (0 = all cores) and is
/// bit-identical for any worker count.
pub fn select_key_actors(inputs: &KeyActorInputs<'_>, k: usize, workers: usize) -> KeyActors {
    let centrality = eigenvector_centrality_par(inputs.graph, 200, workers);
    select_key_actors_with_centrality(inputs, &centrality, k)
}

/// [`select_key_actors`] with a caller-supplied centrality vector (one
/// entry per graph node). The `actors` stage maintains that vector
/// incrementally via warm-started power iteration; [`select_key_actors`]
/// computes it fresh — both feed the identical selection below.
pub fn select_key_actors_with_centrality(
    inputs: &KeyActorInputs<'_>,
    centrality: &[f64],
    k: usize,
) -> KeyActors {
    let mut groups: BTreeMap<KeyGroup, Vec<ActorId>> = BTreeMap::new();

    // Packs: everyone with ≥6 shared packs; if that undershoots (small
    // worlds), the top-k by pack count.
    let mut packers: Vec<(ActorId, usize)> = inputs
        .packs_by_actor
        .iter()
        .map(|(&a, &n)| (a, n))
        .collect();
    packers.sort_unstable_by_key(|&(a, n)| (std::cmp::Reverse(n), a));
    let by_threshold: Vec<ActorId> = packers
        .iter()
        .filter(|&&(_, n)| n >= 6)
        .map(|&(a, _)| a)
        .collect();
    let packs_group = if by_threshold.len() >= 3 {
        by_threshold
    } else {
        packers.iter().take(k).map(|&(a, _)| a).collect()
    };
    groups.insert(KeyGroup::Packs, packs_group);

    // Earnings: top-k by reported USD.
    let mut earners: Vec<(ActorId, f64)> = inputs
        .earnings_by_actor
        .iter()
        .map(|(&a, &u)| (a, u))
        .collect();
    earners.sort_by(|x, y| y.1.partial_cmp(&x.1).expect("finite").then(x.0.cmp(&y.0)));
    groups.insert(
        KeyGroup::Earnings,
        earners.iter().take(k).map(|&(a, _)| a).collect(),
    );

    // Popular: top-k by H-index.
    let mut popular: Vec<(ActorId, usize)> = inputs
        .popularity
        .iter()
        .map(|(&a, p)| (a, p.h_index))
        .collect();
    popular.sort_unstable_by_key(|&(a, h)| (std::cmp::Reverse(h), a));
    groups.insert(
        KeyGroup::Popular,
        popular.iter().take(k).map(|&(a, _)| a).collect(),
    );

    // Influence: top-k eigenvector centrality.
    let mut influential: Vec<(ActorId, f64)> = inputs
        .metrics
        .iter()
        .map(|m| {
            (
                m.actor,
                centrality.get(m.actor.index()).copied().unwrap_or(0.0),
            )
        })
        .collect();
    influential.sort_by(|x, y| y.1.partial_cmp(&x.1).expect("finite").then(x.0.cmp(&y.0)));
    groups.insert(
        KeyGroup::Influence,
        influential.iter().take(k).map(|&(a, _)| a).collect(),
    );

    // Currency exchange: top-k by post-eWhoring CE thread count.
    let mut ce: Vec<(ActorId, usize)> = inputs.ce_by_actor.iter().map(|(&a, &n)| (a, n)).collect();
    ce.sort_unstable_by_key(|&(a, n)| (std::cmp::Reverse(n), a));
    groups.insert(
        KeyGroup::CurrencyExchange,
        ce.iter()
            .take(k)
            .filter(|&&(_, n)| n > 0)
            .map(|&(a, _)| a)
            .collect(),
    );

    // Union + intersections.
    let sets: BTreeMap<KeyGroup, HashSet<ActorId>> = groups
        .iter()
        .map(|(&g, v)| (g, v.iter().copied().collect()))
        .collect();
    let mut all: Vec<ActorId> = sets.values().flatten().copied().collect();
    all.sort_unstable();
    all.dedup();

    let mut intersections = Vec::new();
    for (i, &a) in KeyGroup::ALL.iter().enumerate() {
        for &b in &KeyGroup::ALL[i + 1..] {
            let n = sets[&a].intersection(&sets[&b]).count();
            intersections.push((a, b, n));
        }
    }
    let mut unique = BTreeMap::new();
    for &g in &KeyGroup::ALL {
        let n = sets[&g]
            .iter()
            .filter(|a| {
                KeyGroup::ALL
                    .iter()
                    .filter(|&&other| other != g)
                    .all(|other| !sets[other].contains(a))
            })
            .count();
        unique.insert(g, n);
    }

    KeyActors {
        groups,
        all,
        intersections,
        unique,
    }
}

/// Table 10 row: group-mean characteristics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupProfile {
    /// Group label ("ALL" for the union row).
    pub group: String,
    /// Mean total posts.
    pub posts: f64,
    /// Mean % of posts in eWhoring.
    pub pct_ewhoring: f64,
    /// Mean days before eWhoring.
    pub days_before: f64,
    /// Mean reported earnings (USD).
    pub amount: f64,
    /// Mean H-index.
    pub h: f64,
    /// Mean i-10.
    pub i10: f64,
    /// Mean i-100.
    pub i100: f64,
    /// Mean packs shared.
    pub packs: f64,
    /// Mean CE threads.
    pub currency_exchange: f64,
}

/// Builds Table 10 (one row per group plus ALL).
pub fn group_profiles(inputs: &KeyActorInputs<'_>, key: &KeyActors) -> Vec<GroupProfile> {
    let metric_of: HashMap<ActorId, &ActorMetrics> =
        inputs.metrics.iter().map(|m| (m.actor, m)).collect();
    let profile = |label: &str, members: &[ActorId]| -> GroupProfile {
        let n = members.len().max(1) as f64;
        let mut p = GroupProfile {
            group: label.to_string(),
            posts: 0.0,
            pct_ewhoring: 0.0,
            days_before: 0.0,
            amount: 0.0,
            h: 0.0,
            i10: 0.0,
            i100: 0.0,
            packs: 0.0,
            currency_exchange: 0.0,
        };
        for a in members {
            if let Some(m) = metric_of.get(a) {
                p.posts += m.total_posts as f64 / n;
                p.pct_ewhoring += m.pct_ewhoring() * 100.0 / n;
                p.days_before += f64::from(m.days_before) / n;
            }
            p.amount += inputs.earnings_by_actor.get(a).copied().unwrap_or(0.0) / n;
            if let Some(pop) = inputs.popularity.get(a) {
                p.h += pop.h_index as f64 / n;
                p.i10 += pop.i10 as f64 / n;
                p.i100 += pop.i100 as f64 / n;
            }
            p.packs += inputs.packs_by_actor.get(a).copied().unwrap_or(0) as f64 / n;
            p.currency_exchange += inputs.ce_by_actor.get(a).copied().unwrap_or(0) as f64 / n;
        }
        p
    };
    let mut rows: Vec<GroupProfile> = KeyGroup::ALL
        .iter()
        .map(|g| profile(g.label(), &key.groups[g]))
        .collect();
    rows.push(profile("ALL", &key.all));
    rows
}

/// Figure 5: interest shares per period for the key actors.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct InterestEvolution {
    /// `(category label, before %, during %, after %)`.
    pub shares: Vec<(String, f64, f64, f64)>,
}

/// Computes interest evolution. "We removed all activity in a general
/// board named 'The Lounge'"; the eWhoring board itself is excluded too
/// (the figure tracks *other* interests).
pub fn interest_evolution(
    corpus: &Corpus,
    metrics: &[ActorMetrics],
    key_actors: &[ActorId],
) -> InterestEvolution {
    let metric_of: HashMap<ActorId, &ActorMetrics> = metrics.iter().map(|m| (m.actor, m)).collect();
    let mut per_period: [BTreeMap<BoardCategory, usize>; 3] = Default::default();
    for a in key_actors {
        let Some(m) = metric_of.get(a) else { continue };
        let windows = [
            (Day(0), Day(m.first_ew.0.saturating_sub(1))),
            (m.first_ew, m.last_ew),
            (m.last_ew.plus_days(1), Day(u32::MAX)),
        ];
        for (i, &(lo, hi)) in windows.iter().enumerate() {
            if lo > hi {
                continue;
            }
            for (cat, n) in corpus.actor_interests(*a, Some((lo, hi))) {
                if matches!(cat, BoardCategory::Lounge | BoardCategory::EWhoring) {
                    continue;
                }
                *per_period[i].entry(cat).or_insert(0) += n;
            }
        }
    }
    let totals: [f64; 3] = [
        per_period[0].values().sum::<usize>() as f64,
        per_period[1].values().sum::<usize>() as f64,
        per_period[2].values().sum::<usize>() as f64,
    ];
    let mut cats: Vec<BoardCategory> = per_period.iter().flat_map(|m| m.keys().copied()).collect();
    cats.sort_unstable();
    cats.dedup();
    let shares = cats
        .into_iter()
        .map(|c| {
            let share = |i: usize| -> f64 {
                if totals[i] == 0.0 {
                    0.0
                } else {
                    100.0 * per_period[i].get(&c).copied().unwrap_or(0) as f64 / totals[i]
                }
            };
            (c.label().to_string(), share(0), share(1), share(2))
        })
        .collect();
    InterestEvolution { shares }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_ewhoring_threads;
    use worldgen::{World, WorldConfig};

    fn setup() -> (World, Vec<ThreadId>, Vec<ActorMetrics>) {
        let w = World::generate(WorldConfig::test_scale(0xAC7));
        let set = extract_ewhoring_threads(&w.corpus);
        let threads = set.all_threads();
        let metrics = actor_metrics(&w.corpus, &threads);
        (w, threads, metrics)
    }

    #[test]
    fn cohort_table_shrinks_and_pct_rises() {
        let (_, _, metrics) = setup();
        let table = cohort_table(&metrics);
        assert_eq!(table.len(), 7);
        for w in table.windows(2) {
            assert!(w[0].actors >= w[1].actors, "cohorts nest");
        }
        // ~80% of actors make <10 posts (Table 8 shape).
        let small_share = 1.0 - table[1].actors as f64 / table[0].actors as f64;
        assert!((0.70..0.95).contains(&small_share), "share {small_share}");
        // Engagement correlates with focus: the ≥50 cohort is more
        // eWhoring-centric than the base.
        assert!(
            table[2].pct_ewhoring > table[0].pct_ewhoring,
            "{} vs {}",
            table[2].pct_ewhoring,
            table[0].pct_ewhoring
        );
    }

    #[test]
    fn days_before_is_months_scale() {
        let (_, _, metrics) = setup();
        let table = cohort_table(&metrics);
        // Paper: ~165 days before for the ≥1 cohort.
        assert!(
            (60.0..320.0).contains(&table[0].days_before),
            "before {}",
            table[0].days_before
        );
    }

    #[test]
    fn graph_reflects_replies() {
        let (w, threads, _) = setup();
        let g = interaction_graph(&w.corpus, &threads);
        assert!(g.edge_count() > 0);
        // Total edge weight equals replies directed at other actors.
        let mut expected = 0.0;
        for &t in &threads {
            let author = w.corpus.thread(t).author;
            for &p in w.corpus.posts_in_thread(t).iter().skip(1) {
                let post = w.corpus.post(p);
                let target = post.quotes.map_or(author, |q| w.corpus.post(q).author);
                if target != post.author {
                    expected += 1.0;
                }
            }
        }
        let total: f64 = (0..g.node_count() as u32).map(|n| g.out_strength(n)).sum();
        assert!((total - expected).abs() < 1e-9);
    }

    #[test]
    fn popularity_indices_are_consistent() {
        let (w, threads, _) = setup();
        let pop = popularity(&w.corpus, &threads);
        assert!(!pop.is_empty());
        for p in pop.values() {
            assert!(p.i100 <= p.i50 && p.i50 <= p.i10);
        }
        let max_h = pop.values().map(|p| p.h_index).max().unwrap();
        assert!(max_h >= 2, "somebody is popular (max H {max_h})");
    }

    #[test]
    fn key_actor_selection_builds_five_groups() {
        let (w, threads, metrics) = setup();
        let g = interaction_graph(&w.corpus, &threads);
        let pop = popularity(&w.corpus, &threads);
        let mut packs_by_actor: HashMap<ActorId, usize> = HashMap::new();
        for rec in &w.truth.packs {
            *packs_by_actor.entry(rec.actor).or_insert(0) += 1;
        }
        let earnings: HashMap<ActorId, f64> = w.truth.earnings_by_actor.clone();
        let counts = w.corpus.posts_per_actor_in(&threads);
        let mut ce_by_actor: HashMap<ActorId, usize> = HashMap::new();
        for (&a, _) in counts.iter() {
            let first = w.corpus.actor_span_in(a, &threads).map(|(f, _)| f);
            let n = w
                .corpus
                .threads_started_by(a, BoardCategory::CurrencyExchange, first)
                .len();
            if n > 0 {
                ce_by_actor.insert(a, n);
            }
        }
        let inputs = KeyActorInputs {
            metrics: &metrics,
            packs_by_actor: &packs_by_actor,
            earnings_by_actor: &earnings,
            popularity: &pop,
            graph: &g,
            ce_by_actor: &ce_by_actor,
        };
        let key = select_key_actors(&inputs, 10, 2);
        assert_eq!(key.groups.len(), 5);
        assert!(!key.all.is_empty());
        // Union is at most the sum of group sizes and at least the largest.
        let sum: usize = key.groups.values().map(Vec::len).sum();
        let max = key.groups.values().map(Vec::len).max().unwrap();
        assert!(key.all.len() <= sum && key.all.len() >= max);
        assert_eq!(key.intersections.len(), 10);

        // Table 10 rows exist and the ALL row aggregates everyone.
        let rows = group_profiles(&inputs, &key);
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[5].group, "ALL");
        assert!(rows.iter().all(|r| r.posts >= 0.0));

        // Figure 5: gaming interest declines from before to during;
        // market rises.
        let evo = interest_evolution(&w.corpus, &metrics, &key.all);
        let gaming = evo.shares.iter().find(|(c, ..)| c == "Gaming");
        if let Some(&(_, before, during, _)) = gaming {
            assert!(before > during, "gaming before {before} vs during {during}");
        }
        let market = evo.shares.iter().find(|(c, ..)| c == "Market");
        if let Some(&(_, before, during, _)) = market {
            assert!(during > before, "market before {before} during {during}");
        }
    }

    /// The epoch-carry fold assembles the exact rows the batch
    /// `actor_metrics` computes: integer counters and min/max day spans
    /// are order-insensitive, so folding post-by-post over the timeline
    /// equals the one-shot scan — serialized byte-for-byte.
    #[test]
    fn actor_fold_matches_batch_actor_metrics() {
        let (w, threads, metrics) = setup();
        let ewset: HashSet<ThreadId> = threads.iter().copied().collect();
        let mut fold = ActorFold::default();
        fold.ensure(w.corpus.actors().len());
        let posts = w.corpus.posts();
        // Fold in two arbitrary slices — the warm-carry shape — not one.
        let split = posts.len() / 3;
        for post in &posts[..split] {
            fold.note_post(post.author, post.date, ewset.contains(&post.thread));
        }
        for post in &posts[split..] {
            fold.note_post(post.author, post.date, ewset.contains(&post.thread));
        }
        let folded = fold.metrics();
        assert!(!folded.is_empty());
        assert_eq!(
            serde_json::to_string(&folded).unwrap(),
            serde_json::to_string(&metrics).unwrap(),
            "folded counters must reproduce the batch scan"
        );
    }
}
