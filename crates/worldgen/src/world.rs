//! The orchestrated world build.

use crate::actors::ActorPlan;
use crate::config::{WorldConfig, FORUM_PROFILES};
use crate::finance::{ce_heading, ce_sampler, ProofFactory};
use crate::fx::FxTable;
use crate::headings;
use crate::packs::PackFactory;
use crate::threads::{generate_forum_threads, ForumThreadGen};
use crate::truth::{GroundTruth, ProofInfo, ThreadRole};
use crimebb::{ActorId, BoardCategory, BoardId, Corpus, CorpusBuilder, ForumId};
use imagesim::ImageSpec;
use rand::rngs::StdRng;
use rand::Rng;
use revsearch::{ReverseIndex, Wayback};
use safety::HashList;
use std::collections::{HashMap, HashSet};
use synthrand::{Day, LogNormal, SeedFactory, WeightedIndex};
use websim::{OriginRegistry, SiteCatalog, WebStore};

/// The generated world: corpus + web + services + ground truth.
#[derive(Debug, Clone)]
pub struct World {
    /// Generation parameters.
    pub config: WorldConfig,
    /// The forum corpus (CrimeBB analogue).
    pub corpus: Corpus,
    /// What the generator planted.
    pub truth: GroundTruth,
    /// Hosting-site catalogue.
    pub catalog: SiteCatalog,
    /// Hosted previews, packs, and proofs.
    pub web: WebStore,
    /// Origin domains of stolen material.
    pub origins: OriginRegistry,
    /// Reverse-image-search index (TinEye analogue).
    pub index: ReverseIndex,
    /// Web-archive snapshots.
    pub wayback: Wayback,
    /// Known-CSAM hash list.
    pub hashlist: HashList,
    /// Historical FX rates.
    pub fx: FxTable,
    /// The Hackforums forum id (hosts the §5/§6 analyses).
    pub hackforums: ForumId,
}

/// Interest mix per period for Hackforums side-board activity (Figure 5:
/// gaming/hacking dominate before; market/money rise during and after).
type Mix = &'static [(BoardCategory, f64)];
const MIX_BEFORE: Mix = &[
    (BoardCategory::Gaming, 0.30),
    (BoardCategory::Hacking, 0.26),
    (BoardCategory::Coding, 0.09),
    (BoardCategory::Market, 0.13),
    (BoardCategory::Money, 0.06),
    (BoardCategory::Tech, 0.06),
    (BoardCategory::Common, 0.08),
    (BoardCategory::Lounge, 0.02),
];
const MIX_DURING: Mix = &[
    (BoardCategory::Gaming, 0.17),
    (BoardCategory::Hacking, 0.16),
    (BoardCategory::Coding, 0.07),
    (BoardCategory::Market, 0.26),
    (BoardCategory::Money, 0.13),
    (BoardCategory::Tech, 0.05),
    (BoardCategory::Common, 0.12),
    (BoardCategory::Lounge, 0.04),
];
const MIX_AFTER: Mix = &[
    (BoardCategory::Gaming, 0.14),
    (BoardCategory::Hacking, 0.13),
    (BoardCategory::Coding, 0.07),
    (BoardCategory::Market, 0.26),
    (BoardCategory::Money, 0.15),
    (BoardCategory::Tech, 0.05),
    (BoardCategory::Common, 0.17),
    (BoardCategory::Lounge, 0.03),
];

impl World {
    /// Generates the world from `config`. Deterministic in `config.seed`.
    pub fn generate(config: WorldConfig) -> World {
        let seeds = SeedFactory::new(config.seed);
        let catalog = SiteCatalog::new();
        let fx = FxTable::new();
        let origins = OriginRegistry::generate(
            &mut seeds.rng("origins"),
            config.origin_domains as usize,
            Day::from_ymd(2005, 6, 1),
            config.dataset_end(),
        );
        let mut index = ReverseIndex::new();
        let mut wayback = Wayback::new();
        let mut hashlist = HashList::new();
        let mut pack_web = WebStore::new();
        let mut proof_web = WebStore::new();
        let mut truth = GroundTruth::default();
        let mut builder = CorpusBuilder::new();
        let mut hackforums = ForumId(0);

        {
            let expected_tops: u32 = FORUM_PROFILES
                .iter()
                .map(|p| config.scaled(p.tops, u32::from(p.tops > 0)))
                .sum();
            let mut packs = PackFactory::new(
                &config,
                expected_tops,
                &catalog,
                &origins,
                &mut pack_web,
                &mut index,
                &mut wayback,
                &mut hashlist,
            );
            let mut proofs = ProofFactory::new(&catalog, &mut proof_web, &fx);

            for (fi, profile) in FORUM_PROFILES.iter().enumerate() {
                let mut rng = seeds.rng_indexed("forum", fi as u64);
                let forum = builder.add_forum(profile.name);
                let is_hf = profile.has_ewhoring_board;
                if is_hf {
                    hackforums = forum;
                }

                // Boards.
                let ew_board = if is_hf {
                    builder.add_board(forum, "eWhoring", BoardCategory::EWhoring)
                } else {
                    builder.add_board(forum, "General", BoardCategory::Common)
                };
                let side_boards: HashMap<BoardCategory, BoardId> = if is_hf {
                    [
                        BoardCategory::Gaming,
                        BoardCategory::Hacking,
                        BoardCategory::Coding,
                        BoardCategory::Market,
                        BoardCategory::Money,
                        BoardCategory::Tech,
                        BoardCategory::Common,
                        BoardCategory::Lounge,
                        BoardCategory::CurrencyExchange,
                        BoardCategory::BraggingRights,
                    ]
                    .into_iter()
                    .map(|cat| (cat, builder.add_board(forum, cat.label(), cat)))
                    .collect()
                } else {
                    HashMap::new()
                };

                // Actors.
                let forum_first = Day::from_ymd(profile.first_post.0, profile.first_post.1, 1);
                let forum_open = Day(forum_first.0.saturating_sub(if is_hf { 1400 } else { 400 }));
                let n_actors = config.scaled(profile.actors, 5);
                let mut actors: Vec<(ActorId, ActorPlan)> = Vec::with_capacity(n_actors as usize);
                for i in 0..n_actors {
                    let mut plan =
                        ActorPlan::sample(&mut rng, forum_open, forum_first, config.dataset_end());
                    if i == 0 {
                        // Pin the forum's first eWhoring post to its
                        // Table 1 date; the late-year activity bias would
                        // otherwise leave the earliest month empty at
                        // small scales.
                        plan.first_ew = forum_first;
                        plan.first_post = plan.first_post.min(forum_first);
                        plan.registered = plan.registered.min(plan.first_post);
                        plan.last_ew = plan.last_ew.max(plan.first_ew);
                    }
                    let id = builder.add_actor(
                        forum,
                        format!("{}_{i}", profile.name.to_ascii_lowercase()),
                        plan.registered,
                    );
                    actors.push((id, plan));
                }

                // Proof posters: ≈1/3 of actors with ≥50 eWhoring posts plus
                // a sprinkle of smaller ones (§5.2).
                let proof_posters: HashSet<ActorId> = if is_hf {
                    actors
                        .iter()
                        .filter(|(_, p)| {
                            (p.n_ewhoring >= 46 && rng.gen_bool(0.44))
                                || (p.n_ewhoring >= 15 && p.n_ewhoring < 46 && rng.gen_bool(0.03))
                        })
                        .map(|(a, _)| *a)
                        .collect()
                } else {
                    HashSet::new()
                };

                // Pack-sharer pool: the most active actors, ~2 523 at
                // paper scale. TOP authorship Zipf-concentrates here.
                let sharer_pool: Vec<(ActorId, Day, Day)> = {
                    let mut by_activity: Vec<&(ActorId, ActorPlan)> = actors.iter().collect();
                    by_activity.sort_by_key(|(a, p)| (std::cmp::Reverse(p.n_ewhoring), *a));
                    let n = config.scaled(2_523, 5).min(actors.len() as u32) as usize;
                    by_activity
                        .iter()
                        .take(n)
                        .map(|(a, p)| (*a, p.first_ew, p.last_ew))
                        .collect()
                };
                // Zero-match producers: the mega-sharer heads the list
                // (the paper's 47-of-100 zero-match actor).
                let zero_match_producers: HashSet<ActorId> = if is_hf {
                    sharer_pool.iter().take(2).map(|&(a, _, _)| a).collect()
                } else {
                    HashSet::new()
                };

                let input = ForumThreadGen {
                    profile,
                    config: &config,
                    board: ew_board,
                    actors: &actors,
                    proof_posters: &proof_posters,
                    zero_match_producers: &zero_match_producers,
                    sharer_pool: if is_hf { &sharer_pool } else { &[] },
                };
                generate_forum_threads(
                    &mut rng,
                    &mut builder,
                    &mut truth,
                    &mut packs,
                    &mut proofs,
                    &input,
                );

                if !is_hf && config.with_side_boards {
                    // Other forums get modest off-topic activity in their
                    // General board so that %eWhoring and before/after
                    // spans are measurable for their actors too.
                    let mut events: Vec<(Day, ActorId)> = Vec::new();
                    for &(actor, plan) in &actors {
                        let n = plan.n_other.min(60);
                        for _ in 0..n {
                            let day = Day::sample_between(
                                &mut rng,
                                plan.first_post,
                                plan.last_post.max(plan.first_post),
                            );
                            events.push((day, actor));
                        }
                    }
                    events.sort_unstable_by_key(|&(d, a)| (d, a));
                    fill_board(&mut rng, &mut builder, ew_board, &events, 10.0);
                }
                if is_hf && config.with_side_boards {
                    generate_side_activity(&mut rng, &mut builder, &actors, &side_boards);
                    generate_currency_exchange(
                        &mut rng,
                        &mut builder,
                        &actors,
                        side_boards[&BoardCategory::CurrencyExchange],
                        config.dataset_end(),
                    );
                    generate_bragging_threads(
                        &mut rng,
                        &mut builder,
                        &mut truth,
                        &mut proofs,
                        &actors,
                        &proof_posters,
                        side_boards[&BoardCategory::BraggingRights],
                        &config,
                    );
                }
            }
            truth.csam_specs = packs.finish();
        }

        let mut web = pack_web;
        web.merge(proof_web);

        World {
            config,
            corpus: builder.build(),
            truth,
            catalog,
            web,
            origins,
            index,
            wayback,
            hashlist,
            fx,
            hackforums,
        }
    }

    /// The "human annotator" for proof-of-earnings images (§5.1): given a
    /// downloaded screenshot, returns what a researcher would read off it.
    /// Returns `None` for images that are not proof-of-earnings.
    pub fn annotate_proof(&self, spec: &ImageSpec) -> Option<&ProofInfo> {
        self.truth.proof_info.get(spec)
    }
}

/// Deals time-sorted `(date, actor)` events into threads of ~`capacity`
/// posts on `board`.
fn fill_board(
    rng: &mut StdRng,
    builder: &mut CorpusBuilder,
    board: BoardId,
    events: &[(Day, ActorId)],
    median_capacity: f64,
) {
    let dist = LogNormal::from_median(median_capacity, 0.9);
    let mut current: Option<(crimebb::ThreadId, u32)> = None;
    for &(day, actor) in events {
        match current {
            Some((thread, remaining)) if remaining > 0 => {
                builder.add_post(thread, actor, day, "", None);
                current = Some((thread, remaining - 1));
            }
            _ => {
                let thread = builder.add_thread(
                    board,
                    actor,
                    format!("general discussion #{}", builder.post_count()),
                    day,
                );
                builder.add_post(thread, actor, day, "", None);
                let cap = dist.sample(rng).round().max(1.0) as u32;
                current = Some((thread, cap));
            }
        }
    }
}

/// Generates non-eWhoring activity on Hackforums' side boards following
/// the before/during/after interest mixes.
fn generate_side_activity(
    rng: &mut StdRng,
    builder: &mut CorpusBuilder,
    actors: &[(ActorId, ActorPlan)],
    boards: &HashMap<BoardCategory, BoardId>,
) {
    let samplers: Vec<(Mix, WeightedIndex)> = [MIX_BEFORE, MIX_DURING, MIX_AFTER]
        .into_iter()
        .map(|mix| {
            let w: Vec<f64> = mix.iter().map(|&(_, p)| p).collect();
            (mix, WeightedIndex::new(&w))
        })
        .collect();

    let mut events: Vec<(Day, ActorId, BoardCategory)> = Vec::new();
    for &(actor, plan) in actors {
        if plan.n_other == 0 {
            continue;
        }
        // Period weights ∝ duration (plus one day so zero-length periods
        // can still receive a post).
        let len_before = f64::from(plan.first_ew.days_since(plan.first_post)) + 1.0;
        let len_during = f64::from(plan.last_ew.days_since(plan.first_ew)) + 1.0;
        let len_after = f64::from(plan.last_post.days_since(plan.last_ew)) + 1.0;
        let total_len = len_before + len_during + len_after;
        let windows = [
            (
                plan.first_post,
                plan.first_ew,
                len_before / total_len,
                0usize,
            ),
            (plan.first_ew, plan.last_ew, len_during / total_len, 1),
            (plan.last_ew, plan.last_post, len_after / total_len, 2),
        ];
        for &(lo, hi, share, period) in &windows {
            let n = (f64::from(plan.n_other) * share).round() as u32;
            let (mix, sampler) = &samplers[period];
            for _ in 0..n {
                let day = Day::sample_between(rng, lo, hi.max(lo));
                let cat = mix[sampler.sample(rng)].0;
                events.push((day, actor, cat));
            }
        }
    }
    events.sort_unstable_by_key(|&(d, a, c)| (d, a, c as u8));

    // Partition per category, preserving order, then fill boards.
    let mut per_cat: HashMap<BoardCategory, Vec<(Day, ActorId)>> = HashMap::new();
    for (day, actor, cat) in events {
        per_cat.entry(cat).or_default().push((day, actor));
    }
    let mut cats: Vec<BoardCategory> = per_cat.keys().copied().collect();
    cats.sort_unstable(); // deterministic board fill order
    for cat in cats {
        fill_board(rng, builder, boards[&cat], &per_cat[&cat], 8.0);
    }
}

/// Generates Currency Exchange threads for eWhoring actors (§5.1,
/// Table 7): actors with ≥50 eWhoring posts open `[H]/[W]` trade threads
/// after starting eWhoring.
fn generate_currency_exchange(
    rng: &mut StdRng,
    builder: &mut CorpusBuilder,
    actors: &[(ActorId, ActorPlan)],
    board: BoardId,
    end: Day,
) {
    let sampler = ce_sampler();
    let n_dist = LogNormal::from_median(8.0, 1.1);
    let mut events: Vec<(Day, ActorId)> = Vec::new();
    for &(actor, plan) in actors {
        if plan.n_ewhoring < 46 || !rng.gen_bool(0.34) {
            continue;
        }
        let n = (n_dist.sample(rng).round() as u32).clamp(1, 250);
        for _ in 0..n {
            let day = Day::sample_between(rng, plan.first_ew, plan.last_post.max(plan.first_ew));
            events.push((day, actor));
        }
    }
    events.sort_unstable_by_key(|&(d, a)| (d, a));
    for (day, actor) in events {
        let heading = ce_heading(rng, &sampler);
        let thread = builder.add_thread(board, actor, heading, day);
        builder.add_post(thread, actor, day, "rates inside, pm me", None);
        // Occasional reply from a trading partner.
        if rng.gen_bool(0.3) {
            let (other, _) = actors[rng.gen_range(0..actors.len())];
            builder.add_post(
                thread,
                other,
                Day((day.0 + rng.gen_range(0..4)).min(end.0)),
                "pm sent",
                None,
            );
        }
    }
}

/// Generates "Bragging Rights" threads: earnings show-offs with proofs,
/// included in the §5.1 harvest via board membership.
#[allow(clippy::too_many_arguments)]
fn generate_bragging_threads(
    rng: &mut StdRng,
    builder: &mut CorpusBuilder,
    truth: &mut GroundTruth,
    proofs: &mut ProofFactory<'_>,
    actors: &[(ActorId, ActorPlan)],
    proof_posters: &HashSet<ActorId>,
    board: BoardId,
    config: &WorldConfig,
) {
    let mut posters: Vec<ActorId> = proof_posters.iter().copied().collect();
    posters.sort_unstable(); // HashSet order is not deterministic
    if posters.is_empty() {
        return;
    }
    let plan_of: HashMap<ActorId, ActorPlan> = actors.iter().copied().collect();
    let n_threads = config.scaled(550, 1);
    let mut openings: Vec<(Day, ActorId)> = (0..n_threads)
        .map(|_| {
            let author = posters[rng.gen_range(0..posters.len())];
            let plan = plan_of[&author];
            let day = Day::sample_between(rng, plan.first_ew, plan.last_post.max(plan.first_ew));
            (day, author)
        })
        .collect();
    openings.sort_unstable_by_key(|&(d, a)| (d, a));

    for (day, author) in openings {
        let heading = headings::heading(rng, ThreadRole::Earnings, false);
        let thread = builder.add_thread(board, author, heading, day);
        truth.thread_roles.insert(thread, ThreadRole::Earnings);
        let mut lines = Vec::new();
        if rng.gen_bool(0.8) {
            lines = proofs.make_proof_lines(rng, truth, author, day, 6);
        }
        let body = headings::initial_body(rng, ThreadRole::Earnings, &lines);
        let has_proof = body.contains("Proof:");
        let post = builder.add_post(thread, author, day, body, None);
        if has_proof {
            truth.proof_posts.push(post);
        }
        // Replies, some with their own proofs.
        let mut reply_day = day;
        for _ in 0..rng.gen_range(2..12) {
            let (replier, _) = actors[rng.gen_range(0..actors.len())];
            reply_day = Day((reply_day.0 + rng.gen_range(0..5)).min(config.dataset_end().0));
            let mut body = headings::reply_body(rng, false).to_string();
            if proof_posters.contains(&replier) && rng.gen_bool(0.5) {
                for line in proofs.make_proof_lines(rng, truth, replier, reply_day, 4) {
                    body.push('\n');
                    body.push_str(&line);
                }
            }
            let has_proof = body.contains("Proof:");
            let post = builder.add_post(thread, replier, reply_day, body, None);
            if has_proof {
                truth.proof_posts.push(post);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::generate(WorldConfig::test_scale(0xAB))
    }

    #[test]
    fn world_generates_all_forums() {
        let w = world();
        assert_eq!(w.corpus.forums().len(), FORUM_PROFILES.len());
        assert_eq!(w.corpus.forum(w.hackforums).name, "Hackforums");
    }

    #[test]
    fn world_is_deterministic() {
        let a = World::generate(WorldConfig::test_scale(7));
        let b = World::generate(WorldConfig::test_scale(7));
        assert_eq!(a.corpus.posts().len(), b.corpus.posts().len());
        assert_eq!(a.web.len(), b.web.len());
        assert_eq!(a.index.len(), b.index.len());
        assert_eq!(a.truth.packs.len(), b.truth.packs.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = World::generate(WorldConfig::test_scale(1));
        let b = World::generate(WorldConfig::test_scale(2));
        assert_ne!(a.corpus.posts().len(), b.corpus.posts().len());
    }

    /// The shard driver cuts the corpus into forum spans by id range
    /// and relies on no post crossing a span: thread and post ids run
    /// forum by forum, and every post is by a member of its forum.
    #[test]
    fn ids_run_forum_by_forum_and_no_one_posts_abroad() {
        for seed in [0xAB, 11, 0x5AD] {
            let c = World::generate(WorldConfig::test_scale(seed)).corpus;
            let forum_of = |t: crimebb::ThreadId| c.forum_of_thread(t).index();
            assert!(c.threads().is_sorted_by_key(|t| forum_of(t.id)), "{seed}");
            assert!(c.posts().is_sorted_by_key(|p| forum_of(p.thread)), "{seed}");
            for p in c.posts() {
                assert_eq!(c.actor(p.author).forum, c.forum_of_thread(p.thread));
            }
        }
    }

    #[test]
    fn hackforums_has_side_boards_and_activity() {
        let w = world();
        let ce: Vec<_> = w
            .corpus
            .threads_in_category(w.hackforums, BoardCategory::CurrencyExchange);
        assert!(!ce.is_empty(), "currency exchange threads exist");
        let gaming = w
            .corpus
            .threads_in_category(w.hackforums, BoardCategory::Gaming);
        assert!(!gaming.is_empty(), "gaming threads exist");
    }

    #[test]
    fn truth_has_packs_proofs_and_csam() {
        let w = world();
        assert!(!w.truth.packs.is_empty());
        assert!(!w.truth.proof_info.is_empty());
        assert_eq!(w.truth.csam_specs.len() as u32, w.config.csam_images);
        assert_eq!(w.hashlist.len() as u32, w.config.csam_images);
        assert!(!w.truth.proof_posts.is_empty());
    }

    #[test]
    fn annotator_reads_only_proof_images() {
        let w = world();
        let spec = *w.truth.proof_info.keys().next().unwrap();
        assert!(w.annotate_proof(&spec).is_some());
        let not_proof = ImageSpec::of(imagesim::ImageClass::Landscape, 1);
        assert!(w.annotate_proof(&not_proof).is_none());
    }

    #[test]
    fn ewhoring_extraction_finds_other_forum_threads() {
        // Threads outside Hackforums must be discoverable via headings.
        let w = world();
        let mut per_forum: HashMap<ForumId, usize> = HashMap::new();
        for t in w.corpus.threads() {
            let forum = w.corpus.board(t.board).forum;
            if forum != w.hackforums && textkit::lexicon::heading_is_ewhoring(&t.heading) {
                *per_forum.entry(forum).or_insert(0) += 1;
            }
        }
        // All nine non-HF forums have discoverable eWhoring threads.
        assert_eq!(per_forum.len(), FORUM_PROFILES.len() - 1, "{per_forum:?}");
    }

    /// FNV-1a over the ordered image evidence of the `0xAB` world: every
    /// reverse-index entry in id order, the hash list (a plain `Vec`, so
    /// its `Debug` is ordered) and the planted specs. Pinned so that a
    /// change to how or when those hashes are computed cannot reorder or
    /// alter them unnoticed. (The Wayback is left out: its `Debug`
    /// follows `HashMap` order.)
    #[test]
    fn image_evidence_fingerprint_is_pinned() {
        let w = world();
        let mut text = String::new();
        for i in 0..w.index.len() {
            let e = w.index.entry(i as u32);
            text += &format!("{:?}|{}|{}|{}\n", e.hash.bits, e.domain, e.url, e.crawled.0);
        }
        text += &format!("{:?}\n{:?}", w.hashlist, w.truth.csam_specs);
        let fingerprint = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((w.index.len(), w.hashlist.len()), (10_720, 8));
        assert_eq!(fingerprint, 0xe476_6a94_573e_634e);
    }

    #[test]
    fn post_dates_stay_inside_dataset_span() {
        let w = world();
        let (lo, hi) = w.corpus.date_span().unwrap();
        assert!(lo >= Day::from_ymd(2003, 1, 1));
        assert!(hi <= w.config.dataset_end());
    }
}
