//! Stage 6: reverse image search and provenance analysis (paper §4.5).
//!
//! Previews (all NSFV images from image-sharing sites) and three sampled
//! images per pack — those with the lowest, median and highest NSFW score
//! — are reverse-searched. For each match the crawl date is compared with
//! the forum post date, falling back to Wayback snapshots, to decide
//! whether the image was online *before* it was shared ("Seen Before",
//! Table 5). Matched domains are classified by the three commercial
//! classifiers (Table 6).

use crate::nsfv::ImageMeasures;
use crimebb::ThreadId;
use imagesim::RobustHash;
use revsearch::{ClassifierKind, DomainClassifier, ReverseIndex, Wayback};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use synthrand::Day;
use websim::OriginRegistry;

/// A safety-cleared pack ready for provenance analysis.
#[derive(Debug, Clone)]
pub struct PackForAnalysis {
    /// Thread that shared the pack.
    pub thread: ThreadId,
    /// Forum posting date.
    pub posted: Day,
    /// Measures of the pack's images (pixels already dropped).
    pub images: Vec<ImageMeasures>,
}

/// Table 5 row: reverse-search outcomes for one image population.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ReverseSearchStats {
    /// Images queried.
    pub total: usize,
    /// Images with at least one match.
    pub matched: usize,
    /// Images whose earliest located copy predates the forum post.
    pub seen_before: usize,
    /// Mean matches per *matched* image (paper: 12.7 packs / 17.3 previews).
    pub ratio: f64,
    /// Maximum matches for a single image.
    pub max: usize,
}

impl ReverseSearchStats {
    /// Match rate over queried images.
    pub fn match_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.matched as f64 / self.total as f64
        }
    }

    /// Seen-before rate over queried images (Table 5 reports percentages
    /// of the total).
    pub fn seen_before_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.seen_before as f64 / self.total as f64
        }
    }
}

/// Per-classifier domain-tag distribution (Table 6).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DomainTagTable {
    /// Classifier display name.
    pub classifier: String,
    /// `(tag, count)` sorted by descending count.
    pub tags: Vec<(String, usize)>,
}

/// The full §4.5 output.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProvenanceResult {
    /// Pack-image row of Table 5.
    pub packs: ReverseSearchStats,
    /// Preview row of Table 5.
    pub previews: ReverseSearchStats,
    /// Packs analysed.
    pub analysed_packs: usize,
    /// Packs whose sampled images all had zero matches (paper: 203/1 255).
    pub zero_match_packs: usize,
    /// Zero-match packs per sharing thread author — the paper observes one
    /// actor with 47 zero-match packs. `(thread count of top actor,
    /// total packs of top actor)`.
    pub top_zero_match_actor: (usize, usize),
    /// Distinct domains across all matches (paper: 5 917).
    pub distinct_domains: usize,
    /// Tag tables for the three classifiers.
    pub domain_tags: Vec<DomainTagTable>,
}

/// Selects the three §4.5 sample images of a pack: lowest, median, and
/// highest NSFW score. Packs with fewer than three images return what they
/// have ("note some packs have less than 3 images").
pub fn sample_pack_images(images: &[ImageMeasures]) -> Vec<ImageMeasures> {
    let mut sorted: Vec<ImageMeasures> = images.to_vec();
    sorted.sort_by(|a, b| a.nsfw.partial_cmp(&b.nsfw).expect("scores are finite"));
    match sorted.len() {
        0 => Vec::new(),
        1 => vec![sorted[0]],
        2 => vec![sorted[0], sorted[1]],
        n => vec![sorted[0], sorted[n / 2], sorted[n - 1]],
    }
}

/// Outcome of one reverse search. Pure in `(measures.hash, posted)` for
/// a fixed index + wayback archive — which is what makes it memoisable
/// across epoch advances (the services are static; only the forum
/// timeline grows).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryOutcome {
    /// Matches located by the reverse index.
    pub matches: usize,
    /// Whether any copy was online before the forum post.
    pub seen_before: bool,
    /// Domain ids of every match (with repeats).
    pub domains: Vec<u32>,
}

fn run_query(
    index: &ReverseIndex,
    wayback: &Wayback,
    measures: &ImageMeasures,
    posted: Day,
) -> QueryOutcome {
    let matches = index.query(&measures.hash);
    let mut seen_before = false;
    let mut domains = Vec::with_capacity(matches.len());
    for m in &matches {
        domains.push(m.domain);
        if m.crawled < posted || wayback.seen_before(&m.url, posted) {
            seen_before = true;
        }
    }
    QueryOutcome {
        matches: matches.len(),
        seen_before,
        domains,
    }
}

/// Runs the full provenance stage (§4.5) with a cross-run memo of
/// reverse-search outcomes, keyed `(hash, posted)`. A hit skips the
/// linear index scan and the Wayback lookups; the memoised value is
/// exact because [`QueryOutcome`] is pure in the key for fixed services.
/// Fresh outcomes are appended to `memo` in first-query order, so warm
/// and fresh carriers build identical memos for the same prefix.
pub fn analyse_provenance_memo(
    index: &ReverseIndex,
    wayback: &Wayback,
    origins: &OriginRegistry,
    packs: &[PackForAnalysis],
    pack_authors: &[crimebb::ActorId],
    previews: &[(ImageMeasures, Day)],
    memo: &mut Vec<(RobustHash, Day, QueryOutcome)>,
) -> ProvenanceResult {
    assert_eq!(packs.len(), pack_authors.len(), "author per pack");
    let mut known: HashMap<(RobustHash, Day), usize> = memo
        .iter()
        .enumerate()
        .map(|(i, (h, d, _))| ((*h, *d), i))
        .collect();
    let mut query = |m: &ImageMeasures, posted: Day| -> QueryOutcome {
        let key = (m.hash, posted);
        if let Some(&i) = known.get(&key) {
            return memo[i].2.clone();
        }
        let q = run_query(index, wayback, m, posted);
        known.insert(key, memo.len());
        memo.push((key.0, key.1, q.clone()));
        q
    };
    let mut result = ProvenanceResult {
        analysed_packs: packs.len(),
        ..ProvenanceResult::default()
    };
    let mut matched_domains: HashSet<u32> = HashSet::new();
    let mut zero_by_actor: BTreeMap<crimebb::ActorId, (usize, usize)> = BTreeMap::new();

    // Packs: 3 samples each.
    let mut pack_match_sum = 0usize;
    for (pack, &author) in packs.iter().zip(pack_authors) {
        let mut pack_zero = true;
        for m in sample_pack_images(&pack.images) {
            let q = query(&m, pack.posted);
            result.packs.total += 1;
            if q.matches > 0 {
                result.packs.matched += 1;
                pack_match_sum += q.matches;
                result.packs.max = result.packs.max.max(q.matches);
                pack_zero = false;
                if q.seen_before {
                    result.packs.seen_before += 1;
                }
                matched_domains.extend(q.domains);
            }
        }
        let e = zero_by_actor.entry(author).or_insert((0, 0));
        e.1 += 1;
        if pack_zero {
            result.zero_match_packs += 1;
            e.0 += 1;
        }
    }
    result.packs.ratio = if result.packs.matched > 0 {
        pack_match_sum as f64 / result.packs.matched as f64
    } else {
        0.0
    };
    result.top_zero_match_actor = zero_by_actor
        .values()
        .copied()
        .max_by_key(|&(z, _)| z)
        .unwrap_or((0, 0));

    // Previews: every NSFV image.
    let mut preview_match_sum = 0usize;
    for (m, posted) in previews {
        let q = query(m, *posted);
        result.previews.total += 1;
        if q.matches > 0 {
            result.previews.matched += 1;
            preview_match_sum += q.matches;
            result.previews.max = result.previews.max.max(q.matches);
            if q.seen_before {
                result.previews.seen_before += 1;
            }
            matched_domains.extend(q.domains);
        }
    }
    result.previews.ratio = if result.previews.matched > 0 {
        preview_match_sum as f64 / result.previews.matched as f64
    } else {
        0.0
    };

    // Domain classification (Table 6).
    result.distinct_domains = matched_domains.len();
    for kind in ClassifierKind::ALL {
        let classifier = DomainClassifier::new(kind);
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for &d in &matched_domains {
            for tag in classifier.classify(origins.get(d as usize)) {
                *counts.entry(tag).or_insert(0) += 1;
            }
        }
        let mut tags: Vec<(String, usize)> = counts
            .into_iter()
            .map(|(t, c)| (t.to_string(), c))
            .collect();
        tags.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        result.domain_tags.push(DomainTagTable {
            classifier: kind.label().to_string(),
            tags,
        });
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use imagesim::{ImageClass, ImageSpec};

    fn measures(model: u32, variant: u64) -> ImageMeasures {
        ImageMeasures::of(&ImageSpec::model_photo(ImageClass::ModelNude, model, variant).render())
    }

    #[test]
    fn sampling_picks_low_median_high() {
        let mut imgs: Vec<ImageMeasures> = (0..7).map(|v| measures(v as u32 + 1, v)).collect();
        // Force distinct scores to check ordering logic.
        for (i, m) in imgs.iter_mut().enumerate() {
            m.nsfw = i as f64 / 10.0;
        }
        let s = sample_pack_images(&imgs);
        assert_eq!(s.len(), 3);
        assert!(s[0].nsfw <= s[1].nsfw && s[1].nsfw <= s[2].nsfw);
        assert_eq!(s[0].nsfw, 0.0);
        assert_eq!(s[2].nsfw, 0.6);
    }

    #[test]
    fn small_packs_sample_everything() {
        assert_eq!(sample_pack_images(&[]).len(), 0);
        assert_eq!(sample_pack_images(&[measures(1, 1)]).len(), 1);
        assert_eq!(
            sample_pack_images(&[measures(1, 1), measures(2, 2)]).len(),
            2
        );
    }

    /// Pack inputs built straight from ground truth (pipeline wiring is
    /// tested at the pipeline level): the first `limit` hosted packs of
    /// the kinds `keep` admits, `images` measured images each, with
    /// their authors.
    fn truth_packs(
        w: &worldgen::World,
        keep: impl Fn(worldgen::PackKind) -> bool,
        limit: usize,
        images: usize,
    ) -> (Vec<PackForAnalysis>, Vec<crimebb::ActorId>) {
        let mut packs = Vec::new();
        let mut authors = Vec::new();
        for rec in w.truth.packs.iter().filter(|r| keep(r.kind)).take(limit) {
            if let Some(entry) = w.web.entry(&rec.url) {
                if let websim::HostedObject::Pack { images: hosted } = &entry.object {
                    packs.push(PackForAnalysis {
                        thread: rec.thread,
                        posted: rec.posted,
                        images: hosted
                            .iter()
                            .take(images)
                            .map(|s| ImageMeasures::of(&s.render()))
                            .collect(),
                    });
                    authors.push(rec.actor);
                }
            }
        }
        (packs, authors)
    }

    #[test]
    fn end_to_end_provenance_over_generated_world() {
        use worldgen::{World, WorldConfig};
        let w = World::generate(WorldConfig::test_scale(0x960));

        let (packs, authors) = truth_packs(&w, |_| true, 40, 12);
        assert!(!packs.is_empty());
        let r = analyse_provenance_memo(
            &w.index,
            &w.wayback,
            &w.origins,
            &packs,
            &authors,
            &[],
            &mut Vec::new(),
        );
        assert_eq!(r.analysed_packs, packs.len());
        assert!(r.packs.total >= packs.len());
        // Standard/saturated packs dominate, so most queries match.
        assert!(
            r.packs.match_rate() > 0.4,
            "match rate {}",
            r.packs.match_rate()
        );
        // Matched images were overwhelmingly online before the post.
        assert!(
            r.packs.seen_before <= r.packs.matched,
            "seen_before bounded by matched"
        );
        assert!(r.distinct_domains > 0);
        assert_eq!(r.domain_tags.len(), 3);
        // Porn-like tags dominate every classifier's table.
        for table in &r.domain_tags {
            let top = &table.tags[0].0;
            assert!(
                top.to_lowercase().contains("porn")
                    || top.to_lowercase().contains("adult")
                    || top.to_lowercase().contains("sex")
                    || top == "no_result",
                "{}: top tag {top}",
                table.classifier
            );
        }
    }

    /// A warm re-run must add no memo entries (every query is a hit)
    /// while producing the identical result, and a memo hit must return
    /// exactly the outcome a fresh query computes.
    #[test]
    fn memoised_analysis_replays_queries_and_reuses_entries() {
        use worldgen::{World, WorldConfig};
        let w = World::generate(WorldConfig::test_scale(0x962));
        let (packs, authors) = truth_packs(&w, |_| true, 20, 10);
        assert!(!packs.is_empty());
        let previews: Vec<(ImageMeasures, Day)> = packs
            .iter()
            .flat_map(|p| p.images.iter().take(1).map(|m| (*m, p.posted)))
            .collect();

        let mut memo = Vec::new();
        let cold = analyse_provenance_memo(
            &w.index, &w.wayback, &w.origins, &packs, &authors, &previews, &mut memo,
        );
        let snap = |r: &ProvenanceResult| serde_json::to_string(r).unwrap();
        assert!(!memo.is_empty());
        for (hash, posted, outcome) in &memo {
            let m = packs
                .iter()
                .flat_map(|p| &p.images)
                .find(|m| m.hash == *hash)
                .unwrap();
            assert_eq!(
                serde_json::to_string(&run_query(&w.index, &w.wayback, m, *posted)).unwrap(),
                serde_json::to_string(outcome).unwrap()
            );
        }

        let filled = memo.len();
        let warm = analyse_provenance_memo(
            &w.index, &w.wayback, &w.origins, &packs, &authors, &previews, &mut memo,
        );
        assert_eq!(snap(&cold), snap(&warm));
        assert_eq!(memo.len(), filled, "warm re-run adds no memo entries");
    }

    #[test]
    fn zero_match_packs_are_counted_per_actor() {
        use worldgen::{PackKind, World, WorldConfig};
        let w = World::generate(WorldConfig::test_scale(0x961));
        let (packs, authors) = truth_packs(
            &w,
            |kind| kind == PackKind::MirroredAll || kind == PackKind::SelfMade,
            usize::MAX,
            8,
        );
        if packs.is_empty() {
            return; // tiny world without zero-match packs: nothing to test
        }
        let r = analyse_provenance_memo(
            &w.index,
            &w.wayback,
            &w.origins,
            &packs,
            &authors,
            &[],
            &mut Vec::new(),
        );
        // Mirrored/self-made packs must be (near) zero-match.
        assert!(
            r.zero_match_packs as f64 / packs.len() as f64 > 0.8,
            "{} of {} zero-match",
            r.zero_match_packs,
            packs.len()
        );
        assert!(r.top_zero_match_actor.0 >= 1);
    }
}
