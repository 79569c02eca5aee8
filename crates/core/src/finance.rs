//! Stage 7: financial profits and monetisation (paper §5).
//!
//! Two measurements:
//!
//! * **Proof-of-earnings.** Threads whose headings contain "you make" or
//!   "earn" plus the Bragging Rights board yield posts with image links;
//!   a second query finds posts containing "proof" plus trading terms.
//!   The images are crawled, screened, NSFV-filtered, and the SFV
//!   remainder manually annotated (platform, currency, amount,
//!   transactions) and converted to USD with date-correct rates
//!   → Figures 2/3 and the §5.2 headline numbers.
//! * **Currency Exchange.** `[H]/[W]` headings of CE threads opened by
//!   ≥50-post eWhoring actors after they started eWhoring → Table 7.

use crate::nsfv::ImageMeasures;
use crimebb::{ActorId, BoardCategory, Corpus, PostId, ThreadId};
use safety::{HostingRegion, SafetyGate, ScreenOutcome, SiteType};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use synthrand::Day;
use textkit::hw::{parse_hw_heading, Currency};
use textkit::lexicon::{heading_is_earnings, post_is_proof_offer};
use textkit::url::extract_urls;
use websim::{FetchOutcome, SiteKind, StoredImage};
use worldgen::World;

/// One verified proof-of-earnings record (post-annotation).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ProofRecord {
    /// The earning actor.
    pub actor: ActorId,
    /// Platform shown on the screenshot.
    pub platform: imagesim::PaymentPlatform,
    /// Amount converted to USD at the screenshot date.
    pub usd: f64,
    /// Itemised incoming transactions, when shown (~60% of proofs).
    pub transactions: Option<u32>,
    /// Month bucket (for the Figure 3 series).
    pub month_index: i32,
}

/// Counters for the §5.1 harvest funnel.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EarningsHarvest {
    /// Threads matched by the heading query + Bragging Rights (paper: 1 084).
    pub earnings_threads: usize,
    /// Posts contributing image links (paper: 1 276).
    pub posts_with_links: usize,
    /// Unique image URLs extracted (paper: 2 694).
    pub unique_urls: usize,
    /// Successfully downloaded images (paper: 2 366).
    pub downloaded: usize,
    /// Images excluded by the NSFV filter (paper: 299).
    pub filtered_nsfv: usize,
    /// Images flagged by the safety gate (paper: none in this corpus).
    pub filtered_csam: usize,
    /// Images manually analysed (paper: 2 067).
    pub analysed: usize,
    /// Analysed images that were not proofs (paper: 199).
    pub not_proof: usize,
    /// Verified proof records (paper: 1 868).
    pub proofs: Vec<ProofRecord>,
}

/// Aggregates over the harvest (§5.2, Figures 2/3).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EarningsAnalysis {
    /// Actors with at least one proof (paper: 661).
    pub actors: usize,
    /// Total reported earnings in USD (paper: ≈US$511k).
    pub total_usd: f64,
    /// Mean per reporting actor (paper: ≈US$774).
    pub mean_per_actor: f64,
    /// Highest per-actor total (paper: >US$20k).
    pub max_per_actor: f64,
    /// Per-actor `(usd_total, proof_image_count)` — Figure 2's two CDFs.
    pub per_actor: Vec<(f64, usize)>,
    /// Proofs with itemised transactions (paper: ~60%).
    pub detailed_proofs: usize,
    /// Mean USD per itemised transaction (paper: ≈US$41.90).
    pub avg_transaction_usd: f64,
    /// Proof-image counts per platform label (paper: AGC 934, PayPal 795,
    /// BTC 35).
    pub platform_counts: BTreeMap<String, usize>,
    /// Monthly `(month_index, agc, paypal)` series (Figure 3).
    pub monthly_platforms: Vec<(i32, usize, usize)>,
}

/// Harvests and annotates proof-of-earnings images: a pure sequential
/// fold over the post list, resumable at any post index.
///
/// `ewhoring_threads` is the stage-1 extraction; the Bragging Rights
/// board is pulled from the corpus directly. Candidate posts are those
/// of earnings threads (earnings headings among eWhoring threads, plus
/// the Bragging Rights board) and "proof" + trading-term posts anywhere
/// in the eWhoring set. The hosting whitelist snowballs *at sight*: a
/// catalogue-known domain posted in an earnings thread joins it as its
/// post is folded. The safety gate screens every download before
/// anything else happens to it.
///
/// Folding `carry.cursor..post_count` visits every post exactly once, in
/// post-id order. On a feed world ids are chronological, so an epoch
/// advance folds exactly its slice, and warm and fresh carries traverse
/// the identical sequence — fold composition is what makes the warm
/// advance byte-identical to the full recompute. On the world as
/// generated ids run forum by forum, and one fresh fold covers them all.
pub fn harvest_earnings_stream(
    world: &World,
    gate: &SafetyGate,
    ewhoring_threads: &[ThreadId],
    carry: &mut crate::pipeline::epoch::FinanceCarry,
) -> EarningsHarvest {
    let corpus = &world.corpus;
    // Idempotent on warm carries; seeds fresh ones.
    for d in world.catalog.seed_whitelist() {
        carry.whiteset.insert(d.to_string());
    }
    let ewset: HashSet<ThreadId> = ewhoring_threads.iter().copied().collect();
    // Heading, board, and forum are fixed at thread creation, so this
    // predicate answers the same at every epoch.
    let is_earnings_thread = |t: ThreadId| -> bool {
        let th = corpus.thread(t);
        (ewset.contains(&t) && heading_is_earnings(&th.heading))
            || (corpus.board(th.board).category == BoardCategory::BraggingRights
                && corpus.forum_of_thread(t) == world.hackforums)
    };

    let n_actors = corpus.actors().len();
    carry.ew_posts_by_actor.resize(n_actors, 0);
    carry.first_ew_by_actor.resize(n_actors, Day(u32::MAX));

    let n = corpus.posts().len();
    for idx in carry.cursor..n {
        let post = corpus.post(PostId(idx as u32));
        let t = post.thread;
        if ewset.contains(&t) {
            // Table 7 fold: tally the post toward its author's eWhoring
            // count (and first-sight day) before the earnings/proof
            // filter below drops it. Counts and `min` are
            // order-insensitive, so the fold is exact per epoch slice.
            let i = post.author.0 as usize;
            carry.ew_posts_by_actor[i] += 1;
            carry.first_ew_by_actor[i] = carry.first_ew_by_actor[i].min(post.date);
        }
        let earnings = is_earnings_thread(t);
        let proof_offer = ewset.contains(&t) && post_is_proof_offer(&post.body);
        if !(earnings || proof_offer) {
            continue;
        }
        if earnings {
            // At-sight snowball, before this post's own links filter.
            for url in extract_urls(&post.body) {
                let domain = url.domain();
                if world.catalog.lookup(&domain).is_some() {
                    carry.whiteset.insert(domain);
                }
            }
        }
        let mut any = false;
        for url in extract_urls(&post.body) {
            let domain = url.domain();
            let is_image_host = world
                .catalog
                .lookup(&domain)
                .is_some_and(|s| s.kind == SiteKind::ImageSharing);
            if !is_image_host
                || !carry.whiteset.contains(domain.as_str())
                || !carry.seen_urls.insert(url.clone())
            {
                continue;
            }
            any = true;
            carry.harvest.unique_urls += 1;
            let image: StoredImage = match world.web.fetch(&world.catalog, &url) {
                FetchOutcome::Image(img) | FetchOutcome::RemovalBanner(img) => img,
                _ => continue,
            };
            carry.harvest.downloaded += 1;
            let m = ImageMeasures::of(&image.render());
            if let ScreenOutcome::ReportedAndDeleted { .. } = gate.screen(
                &m.hash,
                &url.to_https(),
                post.date,
                HostingRegion::NorthAmerica,
                SiteType::ImageSharing,
            ) {
                carry.harvest.filtered_csam += 1;
                continue;
            }
            if !m.is_sfv() {
                carry.harvest.filtered_nsfv += 1;
                continue;
            }
            carry.harvest.analysed += 1;
            match world.annotate_proof(&image.spec) {
                Some(info) => {
                    let usd = world.fx.to_usd(info.amount, info.currency, info.taken);
                    carry.harvest.proofs.push(ProofRecord {
                        actor: info.actor,
                        platform: info.platform,
                        usd,
                        transactions: info.transactions,
                        month_index: info.taken.month_index(),
                    });
                }
                None => carry.harvest.not_proof += 1,
            }
        }
        if any {
            carry.harvest.posts_with_links += 1;
        }
    }
    carry.cursor = n;

    // Thread-cursor fold: the funnel's earnings-thread tally and the
    // Table 7 Currency Exchange ledger, each thread visited exactly
    // once at creation. Board, forum, and heading are fixed then, so
    // both predicates answer the same at every later epoch — the folded
    // tallies equal a full rescan of the current corpus.
    let threads = corpus.threads();
    for th in &threads[carry.thread_cursor..] {
        if is_earnings_thread(th.id) {
            carry.harvest.earnings_threads += 1;
        }
        if corpus.board(th.board).category == BoardCategory::CurrencyExchange {
            carry.ce_threads.push((th.author, th.id));
        }
    }
    carry.thread_cursor = threads.len();

    // Carried unfiltered: the per-run corruption plan is applied to
    // this copy by the stage, never to the carry itself.
    carry.harvest.clone()
}

/// Platform display label (Figure 3 legend).
pub fn platform_label(p: imagesim::PaymentPlatform) -> &'static str {
    match p {
        imagesim::PaymentPlatform::PayPal => "PayPal",
        imagesim::PaymentPlatform::AmazonGiftCard => "AGC",
        imagesim::PaymentPlatform::Bitcoin => "BTC",
        imagesim::PaymentPlatform::Cash => "Cash",
    }
}

/// Running earnings aggregates (§5.2): the fold form of
/// [`analyse_earnings`], carried across epoch advances.
///
/// [`EarningsAgg::fold`] consumes proofs in record order; the per-actor
/// USD sums therefore see their `+=` operands in the identical sequence
/// whether the proof list arrives in one batch (fresh carry) or in
/// per-epoch slices (warm carry) — fold composition over a prefix-stable
/// list is what makes the warm aggregate byte-identical to the batch
/// one. Sorted `Vec`s stand in for keyed maps so the aggregate both
/// journals cleanly through JSON and assembles deterministically
/// (equal-USD ties break in actor-id order, not hash order).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EarningsAgg {
    /// `(actor, usd_total, proof_count)`, sorted by actor id.
    pub per_actor: Vec<(ActorId, f64, usize)>,
    /// Proof-image counts per platform label.
    pub platform_counts: BTreeMap<String, usize>,
    /// `(month_index, agc, paypal)`, sorted by month.
    pub monthly: Vec<(i32, usize, usize)>,
    /// USD total over proofs with itemised transactions.
    pub tx_usd: f64,
    /// Itemised transaction count.
    pub tx_count: u64,
    /// Proofs with itemised transactions.
    pub detailed: usize,
}

impl EarningsAgg {
    /// Folds a slice of proof records into the running aggregates.
    pub fn fold(&mut self, proofs: &[ProofRecord]) {
        for proof in proofs {
            let e = match self
                .per_actor
                .binary_search_by_key(&proof.actor, |&(a, _, _)| a)
            {
                Ok(i) => &mut self.per_actor[i],
                Err(i) => {
                    self.per_actor.insert(i, (proof.actor, 0.0, 0));
                    &mut self.per_actor[i]
                }
            };
            e.1 += proof.usd;
            e.2 += 1;
            *self
                .platform_counts
                .entry(platform_label(proof.platform).to_string())
                .or_insert(0) += 1;
            let month = match self
                .monthly
                .binary_search_by_key(&proof.month_index, |&(m, _, _)| m)
            {
                Ok(i) => &mut self.monthly[i],
                Err(i) => {
                    self.monthly.insert(i, (proof.month_index, 0, 0));
                    &mut self.monthly[i]
                }
            };
            match proof.platform {
                imagesim::PaymentPlatform::AmazonGiftCard => month.1 += 1,
                imagesim::PaymentPlatform::PayPal => month.2 += 1,
                _ => {}
            }
            if let Some(tx) = proof.transactions {
                self.detailed += 1;
                self.tx_usd += proof.usd;
                self.tx_count += u64::from(tx);
            }
        }
    }

    /// Assembles the §5.2 analysis from the running aggregates.
    pub fn finish(&self) -> EarningsAnalysis {
        let mut totals: Vec<(f64, usize)> =
            self.per_actor.iter().map(|&(_, u, n)| (u, n)).collect();
        // Stable sort over actor-id-ordered input: equal USD totals
        // keep ascending actor order — fully deterministic.
        totals.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));
        let total_usd: f64 = totals.iter().map(|&(u, _)| u).sum();
        let actors = totals.len();

        EarningsAnalysis {
            actors,
            total_usd,
            mean_per_actor: if actors > 0 {
                total_usd / actors as f64
            } else {
                0.0
            },
            max_per_actor: totals.first().map_or(0.0, |&(u, _)| u),
            per_actor: totals,
            detailed_proofs: self.detailed,
            avg_transaction_usd: if self.tx_count > 0 {
                self.tx_usd / self.tx_count as f64
            } else {
                0.0
            },
            platform_counts: self.platform_counts.clone(),
            monthly_platforms: self.monthly.clone(),
        }
    }
}

/// Aggregates harvested proofs into the §5.2 numbers: a one-shot
/// [`EarningsAgg`] fold — the identical code path the carried aggregate
/// folds through, so the two agree by construction.
pub fn analyse_earnings(harvest: &EarningsHarvest) -> EarningsAnalysis {
    let mut agg = EarningsAgg::default();
    agg.fold(&harvest.proofs);
    agg.finish()
}

/// Table 7: currency-exchange activity of committed eWhoring actors.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CurrencyExchangeAnalysis {
    /// Actors qualifying (>50 eWhoring posts with CE threads; paper: 686).
    pub actors: usize,
    /// CE threads analysed (paper: 9 066).
    pub threads: usize,
    /// Offered counts per currency label.
    pub offered: BTreeMap<String, usize>,
    /// Wanted counts per currency label.
    pub wanted: BTreeMap<String, usize>,
}

/// Runs the Table 7 analysis.
///
/// "We only include Currency Exchange threads from actors who have write
/// more than 50 posts in eWhoring-threads … made after the actors started
/// in eWhoring."
pub fn analyse_currency_exchange(
    corpus: &Corpus,
    hackforums: crimebb::ForumId,
    ewhoring_threads: &[ThreadId],
) -> CurrencyExchangeAnalysis {
    let counts = corpus.posts_per_actor_in(ewhoring_threads);
    let mut analysis = CurrencyExchangeAnalysis::default();
    let mut qualifying: Vec<ActorId> = counts
        .iter()
        .filter(|&(_, &c)| c > 50)
        .map(|(&a, _)| a)
        .filter(|&a| corpus.actor(a).forum == hackforums)
        .collect();
    qualifying.sort_unstable();
    let thread_set: HashSet<ThreadId> = ewhoring_threads.iter().copied().collect();

    for actor in qualifying {
        let first_ew = corpus
            .actor_span_in_set(actor, &thread_set)
            .map(|(first, _)| first);
        let ce_threads =
            corpus.threads_started_by(actor, BoardCategory::CurrencyExchange, first_ew);
        if ce_threads.is_empty() {
            continue;
        }
        analysis.actors += 1;
        for t in ce_threads {
            analysis.threads += 1;
            let (offered, wanted) = match parse_hw_heading(&corpus.thread(t).heading) {
                Some(trade) => (trade.offered, trade.wanted),
                None => (Currency::Unknown, Currency::Unknown),
            };
            *analysis
                .offered
                .entry(offered.label().to_string())
                .or_insert(0) += 1;
            *analysis
                .wanted
                .entry(wanted.label().to_string())
                .or_insert(0) += 1;
        }
    }
    analysis
}

/// The Currency Exchange threads of a carried ledger that pass the
/// Table 7 gates: the actor is a HackForums member with more than 50
/// eWhoring posts, and the thread is on HackForums and started on or
/// after the actor's first eWhoring post. `ew_posts` and `first_ew` are
/// the carried per-actor tallies, indexed by actor id. The gates are
/// re-checked at assembly because an actor can cross the post threshold
/// slices after opening a thread.
pub(crate) fn qualifying_ce_threads<'a>(
    corpus: &'a Corpus,
    hackforums: crimebb::ForumId,
    ew_posts: &'a [u32],
    first_ew: &'a [Day],
    ledger: &'a [(ActorId, ThreadId)],
) -> impl Iterator<Item = (ActorId, ThreadId)> + 'a {
    ledger.iter().copied().filter(move |&(actor, t)| {
        let i = actor.0 as usize;
        ew_posts[i] > 50
            && corpus.actor(actor).forum == hackforums
            // `threads_started_by` only looks inside the actor's own forum.
            && corpus.forum_of_thread(t) == hackforums
            && corpus.thread(t).created >= first_ew[i]
    })
}

/// Fold form of [`analyse_currency_exchange`]: reads the carried
/// per-actor eWhoring tallies and the CE-thread ledger instead of
/// rescanning every post in the extraction set. Every output is a count
/// keyed by a `BTreeMap` label, so assembly order cannot leak into the
/// artifact — the result equals the full rescan whenever the carried
/// tallies match the corpus, which the fold in
/// [`harvest_earnings_stream`] guarantees.
pub fn analyse_currency_exchange_stream(
    corpus: &Corpus,
    hackforums: crimebb::ForumId,
    carry: &crate::pipeline::epoch::FinanceCarry,
) -> CurrencyExchangeAnalysis {
    let mut analysis = CurrencyExchangeAnalysis::default();
    let mut counted: HashSet<ActorId> = HashSet::new();
    for (actor, t) in qualifying_ce_threads(
        corpus,
        hackforums,
        &carry.ew_posts_by_actor,
        &carry.first_ew_by_actor,
        &carry.ce_threads,
    ) {
        counted.insert(actor);
        analysis.threads += 1;
        let (offered, wanted) = match parse_hw_heading(&corpus.thread(t).heading) {
            Some(trade) => (trade.offered, trade.wanted),
            None => (Currency::Unknown, Currency::Unknown),
        };
        *analysis
            .offered
            .entry(offered.label().to_string())
            .or_insert(0) += 1;
        *analysis
            .wanted
            .entry(wanted.label().to_string())
            .or_insert(0) += 1;
    }
    analysis.actors = counted.len();
    analysis
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_ewhoring_threads;
    use worldgen::{World, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig::test_scale(0xF1A))
    }

    /// One fresh fold over the whole world, as the stage runs it.
    fn harvest(w: &World) -> EarningsHarvest {
        let set = extract_ewhoring_threads(&w.corpus);
        let gate = SafetyGate::new(w.hashlist.clone());
        let mut carry = crate::pipeline::epoch::FinanceCarry::default();
        harvest_earnings_stream(w, &gate, &set.all_threads(), &mut carry)
    }

    #[test]
    fn harvest_funnel_has_paper_shape() {
        let w = world();
        let h = harvest(&w);
        assert!(h.earnings_threads > 0);
        assert!(h.unique_urls > 0);
        assert!(h.downloaded > 0 && h.downloaded <= h.unique_urls);
        assert!(h.analysed <= h.downloaded);
        assert_eq!(
            h.analysed,
            h.proofs.len() + h.not_proof,
            "analysis partitions into proof / not-proof"
        );
        // Most analysed images are actual proofs (paper: 78.9% of
        // downloads; 90% of analysed).
        let share = h.proofs.len() as f64 / h.analysed.max(1) as f64;
        assert!(share > 0.55, "proof share {share}");
    }

    #[test]
    fn earnings_analysis_matches_calibration() {
        // Per-actor means need a few dozen earners to stabilise; use a
        // slightly larger world than the other tests.
        let w = World::generate(worldgen::WorldConfig {
            scale: 0.06,
            ..worldgen::WorldConfig::test_scale(0xF1A)
        });
        let h = harvest(&w);
        let a = analyse_earnings(&h);
        assert!(a.actors > 0);
        // Paper: mean US$774 per actor; heavy tail.
        assert!(
            (200.0..2_600.0).contains(&a.mean_per_actor),
            "mean {}",
            a.mean_per_actor
        );
        if a.actors >= 20 {
            assert!(a.max_per_actor > a.mean_per_actor * 2.0);
        }
        // Paper: avg transaction ≈ US$41.90.
        assert!(
            (20.0..70.0).contains(&a.avg_transaction_usd),
            "avg tx {}",
            a.avg_transaction_usd
        );
        // ~60% of proofs are detailed.
        let detail_share = a.detailed_proofs as f64 / h.proofs.len() as f64;
        assert!((0.4..0.8).contains(&detail_share), "detail {detail_share}");
    }

    /// The epoch-carry fold is prefix-stable: folding the proof list in
    /// arbitrary warm-advance slices then finishing equals the one-shot
    /// `analyse_earnings` byte-for-byte. Every accumulator is either an
    /// integer count or an f64 `+=` applied in the same per-proof order
    /// regardless of where the slice boundaries fall.
    #[test]
    fn earnings_agg_split_fold_matches_one_shot() {
        let w = world();
        let h = harvest(&w);
        assert!(h.proofs.len() >= 3, "need proofs to split");
        let mut whole = EarningsAgg::default();
        whole.fold(&h.proofs);
        for split in [1, h.proofs.len() / 2, h.proofs.len() - 1] {
            let mut grown = EarningsAgg::default();
            grown.fold(&h.proofs[..split]);
            grown.fold(&h.proofs[split..]);
            assert_eq!(
                serde_json::to_string(&grown.finish()).unwrap(),
                serde_json::to_string(&whole.finish()).unwrap(),
                "split at {split} diverged"
            );
        }
        assert_eq!(
            serde_json::to_string(&whole.finish()).unwrap(),
            serde_json::to_string(&analyse_earnings(&h)).unwrap(),
            "fold-all + finish must be analyse_earnings"
        );
    }

    #[test]
    fn agc_and_paypal_dominate_platforms() {
        let w = world();
        let a = analyse_earnings(&harvest(&w));
        let agc = a.platform_counts.get("AGC").copied().unwrap_or(0);
        let pp = a.platform_counts.get("PayPal").copied().unwrap_or(0);
        let btc = a.platform_counts.get("BTC").copied().unwrap_or(0);
        assert!(agc + pp > btc * 5, "AGC {agc} PP {pp} BTC {btc}");
    }

    #[test]
    fn currency_exchange_marginals_match_table7_shape() {
        let w = world();
        let set = extract_ewhoring_threads(&w.corpus);
        let ce = analyse_currency_exchange(&w.corpus, w.hackforums, &set.all_threads());
        assert!(ce.actors > 0, "qualifying actors exist");
        assert!(ce.threads > 0);
        let offered_sum: usize = ce.offered.values().sum();
        let wanted_sum: usize = ce.wanted.values().sum();
        assert_eq!(offered_sum, ce.threads);
        assert_eq!(wanted_sum, ce.threads);
        // BTC is the most wanted currency; AGC offered far exceeds wanted.
        let btc_wanted = ce.wanted.get("BTC").copied().unwrap_or(0);
        let max_wanted = ce.wanted.values().copied().max().unwrap_or(0);
        assert_eq!(btc_wanted, max_wanted, "{:?}", ce.wanted);
        let agc_off = ce.offered.get("AGC").copied().unwrap_or(0);
        let agc_want = ce.wanted.get("AGC").copied().unwrap_or(0);
        assert!(agc_off > agc_want * 2, "AGC {agc_off} vs {agc_want}");
    }

    #[test]
    fn per_actor_image_counts_rise_with_earnings() {
        // Figure 2 (right): actors reporting more earnings post more
        // proofs.
        let w = world();
        let a = analyse_earnings(&harvest(&w));
        if a.per_actor.len() < 10 {
            return;
        }
        let top_half_imgs: f64 = a.per_actor[..a.per_actor.len() / 2]
            .iter()
            .map(|&(_, n)| n as f64)
            .sum::<f64>()
            / (a.per_actor.len() / 2) as f64;
        let bottom_half_imgs: f64 = a.per_actor[a.per_actor.len() / 2..]
            .iter()
            .map(|&(_, n)| n as f64)
            .sum::<f64>()
            / (a.per_actor.len() - a.per_actor.len() / 2) as f64;
        assert!(
            top_half_imgs > bottom_half_imgs,
            "top {top_half_imgs} vs bottom {bottom_half_imgs}"
        );
    }
}
