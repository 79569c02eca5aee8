//! Extension: the §8 intervention proposal, simulated.
//!
//! The paper's discussion recommends that "blacklists with hashes of known
//! images used for eWhoring, e.g. those found in packs, could be created
//! and shared among stakeholders", so that image-sharing and cloud-storage
//! sites can enforce their terms of service proactively. This module
//! simulates that intervention on the generated world:
//!
//! 1. Pick a deployment date `T`.
//! 2. Build a blacklist from the robust hashes of every pack image the
//!    pipeline crawled from material posted *before* `T` (what researchers
//!    or industry could have known by then).
//! 3. Replay the packs posted *after* `T` and measure what a hash-matching
//!    upload filter would have caught: the fraction of post-`T` pack
//!    images already on the list, and the fraction of post-`T` packs that
//!    would have been materially disrupted (≥ half their content blocked).
//!
//! Because saturated packs recycle earlier material while self-made and
//! tool-mirrored packs evade hashing, the simulation reproduces the
//! intervention's real-world limits, not just its best case.

use crate::crawl::PackDownload;
use crate::nsfv::ImageMeasures;
use imagesim::RobustHash;
use serde::{Deserialize, Serialize};
use synthrand::Day;

/// Hamming threshold for blacklist matching — the reverse-search setting,
/// since site-side filters face the same edited-copy problem.
pub const BLACKLIST_MATCH_THRESHOLD: u32 = imagesim::DEFAULT_MATCH_THRESHOLD;

/// A shared industry blacklist of known pack-image hashes.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SharedBlacklist {
    hashes: Vec<RobustHash>,
}

impl SharedBlacklist {
    /// An empty blacklist.
    pub fn new() -> SharedBlacklist {
        SharedBlacklist::default()
    }

    /// Adds a known image hash (exact duplicates are skipped).
    pub fn add(&mut self, hash: RobustHash) {
        if !self.hashes.contains(&hash) {
            self.hashes.push(hash);
        }
    }

    /// Number of listed hashes.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True when nothing is listed.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Would an upload filter using this list block `hash`?
    pub fn blocks(&self, hash: &RobustHash) -> bool {
        self.hashes
            .iter()
            .any(|h| h.distance(hash) <= BLACKLIST_MATCH_THRESHOLD)
    }
}

/// Outcome of the intervention simulation.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct InterventionOutcome {
    /// Deployment date.
    pub deployed: Day,
    /// Hashes on the shared list at deployment.
    pub blacklist_size: usize,
    /// Packs posted after deployment.
    pub later_packs: usize,
    /// Images in those packs.
    pub later_images: usize,
    /// Images an upload filter would have blocked.
    pub blocked_images: usize,
    /// Packs with at least half their images blocked ("disrupted").
    pub disrupted_packs: usize,
    /// Packs with zero blocked images (fresh or evading material).
    pub untouched_packs: usize,
}

impl InterventionOutcome {
    /// Fraction of post-deployment images blocked.
    pub fn image_block_rate(&self) -> f64 {
        if self.later_images == 0 {
            0.0
        } else {
            self.blocked_images as f64 / self.later_images as f64
        }
    }

    /// Fraction of post-deployment packs disrupted.
    pub fn pack_disruption_rate(&self) -> f64 {
        if self.later_packs == 0 {
            0.0
        } else {
            self.disrupted_packs as f64 / self.later_packs as f64
        }
    }
}

/// Runs the simulation over crawled packs (with their per-image measures,
/// as produced by the pipeline) and a deployment date.
pub fn simulate_blacklist(
    packs: &[(&PackDownload, &[ImageMeasures])],
    deployed: Day,
) -> InterventionOutcome {
    let mut blacklist = SharedBlacklist::new();
    for (pack, measures) in packs {
        if pack.link.posted < deployed {
            for m in *measures {
                blacklist.add(m.hash);
            }
        }
    }
    let mut outcome = InterventionOutcome {
        deployed,
        blacklist_size: blacklist.len(),
        ..InterventionOutcome::default()
    };
    for (pack, measures) in packs {
        if pack.link.posted < deployed || measures.is_empty() {
            continue;
        }
        outcome.later_packs += 1;
        let blocked = measures
            .iter()
            .filter(|m| blacklist.blocks(&m.hash))
            .count();
        outcome.later_images += measures.len();
        outcome.blocked_images += blocked;
        if blocked * 2 >= measures.len() {
            outcome.disrupted_packs += 1;
        }
        if blocked == 0 {
            outcome.untouched_packs += 1;
        }
    }
    outcome
}

/// Sweeps deployment dates and returns `(date, image block rate,
/// pack disruption rate)` — earlier deployment catches less (smaller
/// list) but also has more future material to affect.
pub fn deployment_sweep(
    packs: &[(&PackDownload, &[ImageMeasures])],
    dates: &[Day],
) -> Vec<(Day, f64, f64)> {
    dates
        .iter()
        .map(|&d| {
            let o = simulate_blacklist(packs, d);
            (d, o.image_block_rate(), o.pack_disruption_rate())
        })
        .collect()
}

/// Extension: payment-platform screening (§8: "payment platforms may be
/// able to play a role in detecting and shutting down accounts used to
/// receive payments for eWhoring").
///
/// A platform-side detector that flags accounts receiving many small
/// incoming transactions in a short window — the signature the paper's
/// §5.2 analysis exposes (typical trades of US$5–50, tens per month for
/// committed actors). Applied to the harvested proofs, it measures how
/// much of the reported revenue such a rule would have frozen, and how
/// many low-volume actors escape.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct PaymentScreening {
    /// Actors whose proofs show at least the threshold transaction volume.
    pub flagged_actors: usize,
    /// Actors below the radar.
    pub unflagged_actors: usize,
    /// USD attributed to flagged actors.
    pub flagged_usd: f64,
    /// Total USD observed.
    pub total_usd: f64,
}

impl PaymentScreening {
    /// Share of observed revenue a platform freeze would have hit.
    pub fn usd_coverage(&self) -> f64 {
        if self.total_usd == 0.0 {
            0.0
        } else {
            self.flagged_usd / self.total_usd
        }
    }
}

/// Runs the payment-screening rule over harvested proofs: an actor is
/// flagged when any single proof shows ≥ `min_tx` itemised incoming
/// transactions (a platform sees the true ledger, so this is a lower
/// bound on what it could detect).
pub fn screen_payment_accounts(
    proofs: &[crate::finance::ProofRecord],
    min_tx: u32,
) -> PaymentScreening {
    use std::collections::HashMap;
    let mut per_actor: HashMap<crimebb::ActorId, (f64, bool)> = HashMap::new();
    for p in proofs {
        let e = per_actor.entry(p.actor).or_insert((0.0, false));
        e.0 += p.usd;
        if p.transactions.is_some_and(|t| t >= min_tx) {
            e.1 = true;
        }
    }
    let mut out = PaymentScreening::default();
    for (_, (usd, flagged)) in per_actor {
        out.total_usd += usd;
        if flagged {
            out.flagged_actors += 1;
            out.flagged_usd += usd;
        } else {
            out.unflagged_actors += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawl::crawl_tops;
    use worldgen::{ThreadRole, World, WorldConfig};

    fn crawled_packs(world: &World) -> Vec<(crate::crawl::PackDownload, Vec<ImageMeasures>)> {
        let mut tops: Vec<_> = world
            .truth
            .thread_roles
            .iter()
            .filter(|&(_, &r)| r == ThreadRole::Top)
            .map(|(&t, _)| t)
            .collect();
        tops.sort_unstable();
        let crawl = crawl_tops(&world.corpus, &world.catalog, &world.web, &tops);
        crawl
            .packs
            .into_iter()
            .map(|p| {
                let measures: Vec<ImageMeasures> = p
                    .images
                    .iter()
                    .take(20)
                    .map(|img| ImageMeasures::of(&img.render()))
                    .collect();
                (p, measures)
            })
            .collect()
    }

    fn as_refs(
        owned: &[(crate::crawl::PackDownload, Vec<ImageMeasures>)],
    ) -> Vec<(&crate::crawl::PackDownload, &[ImageMeasures])> {
        owned.iter().map(|(p, m)| (p, m.as_slice())).collect()
    }

    #[test]
    fn blacklist_blocks_recycled_material() {
        let world = World::generate(WorldConfig::test_scale(0x1417));
        let owned = crawled_packs(&world);
        let packs = as_refs(&owned);
        assert!(packs.len() >= 4, "need packs to simulate");
        // Deploy in the middle of the posting timeline.
        let mut dates: Vec<Day> = packs.iter().map(|(p, _)| p.link.posted).collect();
        dates.sort_unstable();
        let mid = dates[dates.len() / 2];
        let outcome = simulate_blacklist(&packs, mid);
        assert!(outcome.blacklist_size > 0);
        assert!(outcome.later_packs > 0);
        // Saturated packs recycle earlier images, so the filter catches a
        // real share — but mirrored/self-made material evades, so never
        // everything.
        let rate = outcome.image_block_rate();
        assert!(rate > 0.05, "block rate {rate}");
        assert!(rate < 0.95, "block rate {rate} suspiciously total");
        assert!(outcome.untouched_packs > 0, "evading packs exist");
    }

    #[test]
    fn later_deployment_has_bigger_list_but_less_future() {
        let world = World::generate(WorldConfig::test_scale(0x1418));
        let owned = crawled_packs(&world);
        let packs = as_refs(&owned);
        let mut dates: Vec<Day> = packs.iter().map(|(p, _)| p.link.posted).collect();
        dates.sort_unstable();
        let early = dates[dates.len() / 5];
        let late = dates[dates.len() * 4 / 5];
        let sweep = deployment_sweep(&packs, &[early, late]);
        let o_early = simulate_blacklist(&packs, early);
        let o_late = simulate_blacklist(&packs, late);
        assert!(o_late.blacklist_size >= o_early.blacklist_size);
        assert!(o_late.later_packs <= o_early.later_packs);
        assert_eq!(sweep.len(), 2);
    }

    #[test]
    fn deploying_before_everything_blocks_nothing() {
        let world = World::generate(WorldConfig::test_scale(0x1419));
        let owned = crawled_packs(&world);
        let packs = as_refs(&owned);
        let outcome = simulate_blacklist(&packs, Day(0));
        assert_eq!(outcome.blacklist_size, 0);
        assert_eq!(outcome.blocked_images, 0);
        assert_eq!(outcome.untouched_packs, outcome.later_packs);
    }

    #[test]
    fn payment_screening_splits_by_volume() {
        use crate::finance::ProofRecord;
        use imagesim::PaymentPlatform;
        let proofs = vec![
            ProofRecord {
                actor: crimebb::ActorId(1),
                platform: PaymentPlatform::PayPal,
                usd: 900.0,
                transactions: Some(25),
                month_index: 2016 * 12,
            },
            ProofRecord {
                actor: crimebb::ActorId(2),
                platform: PaymentPlatform::AmazonGiftCard,
                usd: 40.0,
                transactions: Some(2),
                month_index: 2016 * 12,
            },
            ProofRecord {
                actor: crimebb::ActorId(3),
                platform: PaymentPlatform::PayPal,
                usd: 100.0,
                transactions: None,
                month_index: 2016 * 12,
            },
        ];
        let s = screen_payment_accounts(&proofs, 10);
        assert_eq!(s.flagged_actors, 1);
        assert_eq!(s.unflagged_actors, 2);
        assert!((s.usd_coverage() - 900.0 / 1040.0).abs() < 1e-9);
    }

    #[test]
    fn payment_screening_covers_most_revenue_in_generated_worlds() {
        use crate::extract::extract_ewhoring_threads;
        use crate::finance::harvest_earnings_stream;
        use crate::pipeline::epoch::FinanceCarry;
        use crate::pipeline::CorruptionPlan;
        use safety::SafetyGate;
        let world = World::generate(WorldConfig::test_scale(0x90A1));
        let threads = extract_ewhoring_threads(&world.corpus).all_threads();
        let gate = SafetyGate::new(world.hashlist.clone());
        let harvest = harvest_earnings_stream(
            &world,
            &gate,
            &threads,
            &CorruptionPlan::disabled(),
            &mut FinanceCarry::default(),
        );
        if harvest.proofs.len() < 10 {
            return;
        }
        let s = screen_payment_accounts(&harvest.proofs, 10);
        // High earners transact a lot, so revenue coverage beats actor
        // coverage — the asymmetry that makes the intervention attractive.
        let actor_share = s.flagged_actors as f64 / (s.flagged_actors + s.unflagged_actors) as f64;
        assert!(
            s.usd_coverage() >= actor_share,
            "usd {} vs actors {actor_share}",
            s.usd_coverage()
        );
        assert!(s.total_usd > 0.0);
    }

    #[test]
    fn blacklist_dedupes_and_matches_edits() {
        use imagesim::{ImageClass, ImageSpec, Transform};
        let mut list = SharedBlacklist::new();
        let spec = ImageSpec::model_photo(ImageClass::ModelNude, 5, 5);
        let h = RobustHash::of(&spec.render());
        list.add(h);
        list.add(h);
        assert_eq!(list.len(), 1);
        // A lightly edited re-upload is still blocked; a mirrored one
        // escapes (the evasion the paper documents).
        let noisy = Transform::Noise {
            amplitude: 6,
            seed: 1,
        }
        .apply(&spec.render());
        assert!(list.blocks(&RobustHash::of(&noisy)));
        let mirrored = Transform::MirrorHorizontal.apply(&spec.render());
        assert!(!list.blocks(&RobustHash::of(&mirrored)));
    }
}
