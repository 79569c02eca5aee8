//! The typed artifact store threaded through the stage graph.
//!
//! Each stage reads earlier artifacts out of [`StageCtx`] and writes its
//! own back in. Artifacts are plain `Option` fields, so a prefix run
//! leaves later slots `None` and [`StageCtx::into_report`] reports
//! exactly which artifact is missing.

use super::corruption::{CorruptionPlan, QuarantineLedger};
use super::{
    ForumRow, ImageFunnel, PipelineOptions, PipelineReport, SafetyFindings, StageHealth,
    StageTiming, StreamSpec,
};
use crate::actors::{CohortRow, GroupProfile, InterestEvolution, KeyActors};
use crate::crawl::{CrawlResult, CrawlStats};
use crate::extract::EwhoringSet;
use crate::finance::{CurrencyExchangeAnalysis, EarningsAnalysis, EarningsHarvest};
use crate::nsfv::{ImageMeasures, NsfvValidation};
use crate::provenance::ProvenanceResult;
use crate::topcls::TopClassification;
use crimebb::ThreadId;
use rand::rngs::StdRng;
use safety::SafetyGate;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;
use synthrand::Day;
use worldgen::World;

/// Why a stage (or report assembly) could not proceed.
#[derive(Debug, Clone)]
pub enum StageError {
    /// A required artifact was never produced — the stage that writes it
    /// did not run (e.g. a prefix run stopped too early).
    MissingArtifact(&'static str),
    /// An I/O operation failed (journal read/write). Carries the
    /// underlying [`std::io::Error`] behind an `Arc` so the variant stays
    /// `Clone`; [`std::error::Error::source`] exposes it for chaining.
    Io {
        /// What the pipeline was doing (path and operation).
        context: String,
        /// The underlying I/O error.
        source: std::sync::Arc<std::io::Error>,
    },
    /// A journaled or in-flight artifact failed validation (bad
    /// checksum, unparseable payload, stale run key, inconsistent
    /// cross-references).
    CorruptArtifact {
        /// The file or artifact that failed validation.
        path: String,
        /// Why it was rejected.
        reason: String,
    },
    /// A stage quarantined every record it was given — there is nothing
    /// left to measure, so proceeding would silently report an empty
    /// world as a finding.
    Quarantined {
        /// The stage that ran out of clean records.
        stage: &'static str,
        /// How many records it quarantined.
        records: usize,
    },
}

impl StageError {
    /// Wraps an I/O failure with its operation context.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> StageError {
        StageError::Io {
            context: context.into(),
            source: std::sync::Arc::new(source),
        }
    }
}

// Manual impl: `std::io::Error` is not `PartialEq`, so the `Io` variant
// compares context plus error kind (enough for test assertions).
impl PartialEq for StageError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (StageError::MissingArtifact(a), StageError::MissingArtifact(b)) => a == b,
            (
                StageError::Io {
                    context: ca,
                    source: sa,
                },
                StageError::Io {
                    context: cb,
                    source: sb,
                },
            ) => ca == cb && sa.kind() == sb.kind(),
            (
                StageError::CorruptArtifact {
                    path: pa,
                    reason: ra,
                },
                StageError::CorruptArtifact {
                    path: pb,
                    reason: rb,
                },
            ) => pa == pb && ra == rb,
            (
                StageError::Quarantined {
                    stage: sa,
                    records: ra,
                },
                StageError::Quarantined {
                    stage: sb,
                    records: rb,
                },
            ) => sa == sb && ra == rb,
            _ => false,
        }
    }
}

impl Eq for StageError {}

impl fmt::Display for StageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageError::MissingArtifact(name) => {
                write!(
                    f,
                    "missing artifact `{name}`: the stage producing it has not run"
                )
            }
            StageError::Io { context, source } => {
                write!(f, "I/O failure while {context}: {source}")
            }
            StageError::CorruptArtifact { path, reason } => {
                write!(f, "corrupt artifact `{path}`: {reason}")
            }
            StageError::Quarantined { stage, records } => {
                write!(
                    f,
                    "stage `{stage}` quarantined all {records} of its records: nothing left to measure"
                )
            }
        }
    }
}

impl std::error::Error for StageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StageError::Io { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

/// Which crawl product an image came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ImageSource {
    /// A single-image preview download.
    Preview,
    /// The `n`-th downloaded pack, in crawl order.
    Pack(u32),
}

/// Stable identity of one downloaded image: its source plus its index
/// *within that source*. Replaces global flat offsets, so an operation on
/// pack `k` can never alias an image of pack `k + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ImageRef {
    /// Where the image came from.
    pub source: ImageSource,
    /// Index within the source (preview list or one pack's image list).
    pub index: u32,
}

impl ImageRef {
    /// Ref to the `index`-th preview download.
    pub fn preview(index: usize) -> ImageRef {
        ImageRef {
            source: ImageSource::Preview,
            index: index as u32,
        }
    }

    /// Ref to the `index`-th image of the `pack`-th pack.
    pub fn pack(pack: usize, index: usize) -> ImageRef {
        ImageRef {
            source: ImageSource::Pack(pack as u32),
            index: index as u32,
        }
    }
}

/// Per-image measures for everything the crawl downloaded, re-split by
/// source after the single flattened [`measure_batch`] call.
///
/// [`measure_batch`]: super::measure_batch
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MeasuredImages {
    /// One entry per preview download, crawl order.
    pub previews: Vec<ImageMeasures>,
    /// One inner list per pack, crawl order.
    pub packs: Vec<Vec<ImageMeasures>>,
}

impl MeasuredImages {
    /// Re-splits one flat measurement batch (previews first, then every
    /// pack in order) back into its sources. A length mismatch — the
    /// batch dropped or invented images — is a
    /// [`StageError::CorruptArtifact`], so the driver can retry or
    /// surface the failure in the run report.
    pub fn try_from_flat(
        flat: Vec<ImageMeasures>,
        n_previews: usize,
        pack_lens: &[usize],
    ) -> Result<MeasuredImages, StageError> {
        let expected = n_previews + pack_lens.iter().sum::<usize>();
        if flat.len() != expected {
            return Err(StageError::CorruptArtifact {
                path: "measures/flat".to_string(),
                reason: format!(
                    "flat measure batch must cover previews + all pack images: \
                     got {}, expected {expected}",
                    flat.len()
                ),
            });
        }
        let mut rest = flat.into_iter();
        let previews = rest.by_ref().take(n_previews).collect();
        let packs = pack_lens
            .iter()
            .map(|&len| rest.by_ref().take(len).collect())
            .collect();
        Ok(MeasuredImages { previews, packs })
    }

    /// Total images measured.
    pub fn total(&self) -> usize {
        self.previews.len() + self.packs.iter().map(Vec::len).sum::<usize>()
    }

    /// Every [`ImageRef`] in canonical screening order: previews first,
    /// then each pack's images in pack order.
    pub fn refs(&self) -> Vec<ImageRef> {
        let mut out = Vec::with_capacity(self.total());
        for i in 0..self.previews.len() {
            out.push(ImageRef::preview(i));
        }
        for (k, pack) in self.packs.iter().enumerate() {
            for j in 0..pack.len() {
                out.push(ImageRef::pack(k, j));
            }
        }
        out
    }

    /// Looks up one image's measures by ref.
    pub fn get(&self, r: ImageRef) -> Option<&ImageMeasures> {
        match r.source {
            ImageSource::Preview => self.previews.get(r.index as usize),
            ImageSource::Pack(k) => self.packs.get(k as usize)?.get(r.index as usize),
        }
    }
}

/// Measures that survived safety deletions.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct KeptImages {
    /// Surviving previews with their original refs (`source == Preview`),
    /// so the crawl metadata (post date, link) stays addressable.
    pub previews: Vec<(ImageRef, ImageMeasures)>,
    /// Surviving images per pack, same pack order as the crawl.
    pub packs: Vec<Vec<ImageMeasures>>,
}

/// Drops every flagged image. Flags are keyed by [`ImageRef`], so a
/// flagged image in pack `k` can never evict an image from pack `k + 1`
/// the way global-offset arithmetic could.
pub fn apply_deletions(measures: &MeasuredImages, flagged: &HashSet<ImageRef>) -> KeptImages {
    let previews = measures
        .previews
        .iter()
        .enumerate()
        .map(|(i, m)| (ImageRef::preview(i), *m))
        .filter(|(r, _)| !flagged.contains(r))
        .collect();
    let packs = measures
        .packs
        .iter()
        .enumerate()
        .map(|(k, pack)| {
            pack.iter()
                .enumerate()
                .filter(|(j, _)| !flagged.contains(&ImageRef::pack(k, *j)))
                .map(|(_, m)| *m)
                .collect()
        })
        .collect();
    KeptImages { previews, packs }
}

/// Returns the artifact or a [`StageError::MissingArtifact`] naming it.
///
/// Free function (rather than a `StageCtx` method) so stage bodies can
/// borrow one artifact while holding `&mut ctx.rng`: field-path borrows
/// stay disjoint.
pub(crate) fn require<'a, T>(slot: &'a Option<T>, name: &'static str) -> Result<&'a T, StageError> {
    slot.as_ref().ok_or(StageError::MissingArtifact(name))
}

/// The carry a stage folds into, or a [`StageError::MissingArtifact`] if
/// a caller took it out of the context. Free function for the same
/// reason as [`require`]: stages borrow it next to other fields.
pub(crate) fn carry_mut(
    slot: &mut Option<super::epoch::EpochCarry>,
) -> Result<&mut super::epoch::EpochCarry, StageError> {
    slot.as_mut().ok_or(StageError::MissingArtifact("carry"))
}

/// The artifact store carried across the stage graph.
///
/// Stages read inputs through the accessor methods (or [`require`] when
/// they also hold `&mut rng`) and write outputs straight into the `pub`
/// slots. The driver owns `timings`; stages report throughput with
/// [`StageCtx::note_items`].
pub struct StageCtx<'w> {
    /// The synthetic world under measurement (read-only).
    pub world: &'w World,
    /// Pipeline tuning knobs.
    pub options: PipelineOptions,
    /// The run's RNG, seeded from `options.seed` at construction. Only
    /// the TOP-classifier stage draws from it, so streams match the
    /// pre-stage-graph pipeline exactly.
    pub rng: StdRng,
    /// The run's input-corruption plan, seeded from `options.seed` via
    /// the `pipeline/corruption` sub-seed and scaled by
    /// `options.corruption_severity`. Inert at severity `0.0`.
    pub corruption: CorruptionPlan,
    /// Per-record failures quarantined so far. Stages push entries via
    /// [`QuarantineLedger::record`] instead of panicking on bad input.
    pub ledger: QuarantineLedger,
    pub(super) timings: Vec<StageTiming>,
    pub(super) items: usize,
    pub(super) health: Vec<StageHealth>,
    /// The fold state every stage computes through. [`StageCtx::new`]
    /// starts it fresh; the epoch engine swaps in the warm carry of the
    /// previous epoch. Each stage takes, updates, and puts back only its
    /// own field, so a resumed run (fresh carry, earlier stages loaded
    /// from the journal) computes exactly what an uninterrupted one
    /// does. `None` only after a caller took it out.
    pub carry: Option<super::epoch::EpochCarry>,
    /// Whether the caller reads `carry` after the run
    /// ([`super::Pipeline::run_with_carry`]); the other run forms drop it.
    pub(super) keeps_carry: bool,
    /// Supervision counters (shards run / restarted / quarantined);
    /// all zero on an unsharded run.
    pub supervision: super::Supervision,

    // ---- artifacts, in production order ----
    /// Stage `extract`: the extraction set (§3).
    pub extraction: Option<EwhoringSet>,
    /// Stage `extract`: all extracted threads, flattened.
    pub all_threads: Option<Vec<ThreadId>>,
    /// Stage `top_classifier`: classifier evaluation + detected TOPs (§4.1).
    pub topcls: Option<TopClassification>,
    /// Stage `top_classifier`: Table 1 rows.
    pub forums: Option<Vec<ForumRow>>,
    /// Stage `crawl`: crawler output (§4.2).
    pub crawl: Option<CrawlResult>,
    /// Stage `crawl`: crawler health counters (retries, breaker trips,
    /// simulated waits per site kind).
    pub crawl_stats: Option<CrawlStats>,
    /// Stage `measure_images`: per-image measures keyed by [`ImageRef`].
    pub measures: Option<MeasuredImages>,
    /// Stage `safety`: the hash-matching gate (kept for finance's proof
    /// screening, which must reuse the same gate log).
    pub gate: Option<SafetyGate>,
    /// Stage `safety`: flagged images by ref.
    pub flagged: Option<HashSet<ImageRef>>,
    /// Stage `safety`: IWF summary + flagged-thread actor counts (§4.3).
    pub safety: Option<SafetyFindings>,
    /// Stage `safety`: measures surviving deletion.
    pub kept: Option<KeptImages>,
    /// Stage `nsfv`: validation-set evaluation (§4.4).
    pub nsfv_validation: Option<NsfvValidation>,
    /// Stage `nsfv`: kept previews classified NSFV, with post dates.
    pub previews_nsfv: Option<Vec<(ImageMeasures, Day)>>,
    /// Stage `nsfv`: §4.2/§4.4 funnel counters.
    pub funnel: Option<ImageFunnel>,
    /// Stage `provenance`: Tables 5/6 (§4.5).
    pub provenance: Option<ProvenanceResult>,
    /// Stage `finance`: §5.1 harvest funnel.
    pub harvest: Option<EarningsHarvest>,
    /// Stage `finance`: §5.2 earnings aggregates.
    pub earnings: Option<EarningsAnalysis>,
    /// Stage `actors`: Table 7 (§5.1).
    pub currency: Option<CurrencyExchangeAnalysis>,
    /// Stage `actors`: Table 8.
    pub cohorts: Option<Vec<CohortRow>>,
    /// Stage `actors`: Figure 4 raw points.
    pub fig4_points: Option<Vec<(usize, f64, u32, u32)>>,
    /// Stage `actors`: §6.3 key actors.
    pub key_actors: Option<KeyActors>,
    /// Stage `actors`: Table 10.
    pub group_profiles: Option<Vec<GroupProfile>>,
    /// Stage `actors`: Figure 5.
    pub interests: Option<InterestEvolution>,
}

macro_rules! artifact_accessors {
    ($($(#[$meta:meta])* $field:ident: $ty:ty),* $(,)?) => {
        impl StageCtx<'_> {
            $(
                $(#[$meta])*
                pub fn $field(&self) -> Result<&$ty, StageError> {
                    require(&self.$field, stringify!($field))
                }
            )*
        }
    };
}

artifact_accessors! {
    /// The extraction set, or an error if `extract` has not run.
    extraction: EwhoringSet,
    /// All extracted threads, or an error if `extract` has not run.
    all_threads: Vec<ThreadId>,
    /// TOP classification, or an error if `top_classifier` has not run.
    topcls: TopClassification,
    /// Table 1 rows, or an error if `top_classifier` has not run.
    forums: Vec<ForumRow>,
    /// Crawl output, or an error if `crawl` has not run.
    crawl: CrawlResult,
    /// Crawler health counters, or an error if `crawl` has not run.
    crawl_stats: CrawlStats,
    /// Image measures, or an error if `measure_images` has not run.
    measures: MeasuredImages,
    /// The safety gate, or an error if `safety` has not run.
    gate: SafetyGate,
    /// Flagged refs, or an error if `safety` has not run.
    flagged: HashSet<ImageRef>,
    /// Safety findings, or an error if `safety` has not run.
    safety: SafetyFindings,
    /// Surviving measures, or an error if `safety` has not run.
    kept: KeptImages,
    /// NSFV validation, or an error if `nsfv` has not run.
    nsfv_validation: NsfvValidation,
    /// NSFV previews, or an error if `nsfv` has not run.
    previews_nsfv: Vec<(ImageMeasures, Day)>,
    /// Funnel counters, or an error if `nsfv` has not run.
    funnel: ImageFunnel,
    /// Provenance result, or an error if `provenance` has not run.
    provenance: ProvenanceResult,
    /// Harvest funnel, or an error if `finance` has not run.
    harvest: EarningsHarvest,
    /// Earnings aggregates, or an error if `finance` has not run.
    earnings: EarningsAnalysis,
    /// Currency-exchange analysis, or an error if `actors` has not run.
    currency: CurrencyExchangeAnalysis,
    /// Cohort table, or an error if `actors` has not run.
    cohorts: Vec<CohortRow>,
    /// Figure 4 points, or an error if `actors` has not run.
    fig4_points: Vec<(usize, f64, u32, u32)>,
    /// Key actors, or an error if `actors` has not run.
    key_actors: KeyActors,
    /// Group profiles, or an error if `actors` has not run.
    group_profiles: Vec<GroupProfile>,
    /// Interest evolution, or an error if `actors` has not run.
    interests: InterestEvolution,
}

impl<'w> StageCtx<'w> {
    /// Fresh context over `world`, every artifact slot empty.
    pub fn new(world: &'w World, options: PipelineOptions) -> StageCtx<'w> {
        StageCtx {
            world,
            options,
            rng: synthrand::rng_from_seed(options.seed),
            corruption: CorruptionPlan::with_severity(
                synthrand::SeedFactory::new(options.seed).seed_for("pipeline/corruption"),
                options.corruption_severity,
            ),
            ledger: QuarantineLedger::new(),
            timings: Vec::new(),
            items: 0,
            health: Vec::new(),
            carry: Some(super::epoch::EpochCarry::default()),
            keeps_carry: false,
            supervision: super::Supervision::default(),
            extraction: None,
            all_threads: None,
            topcls: None,
            forums: None,
            crawl: None,
            crawl_stats: None,
            measures: None,
            gate: None,
            flagged: None,
            safety: None,
            kept: None,
            nsfv_validation: None,
            previews_nsfv: None,
            funnel: None,
            provenance: None,
            harvest: None,
            earnings: None,
            currency: None,
            cohorts: None,
            fig4_points: None,
            key_actors: None,
            group_profiles: None,
            interests: None,
        }
    }

    /// The slices the stages fold: the streamed spec, or one slice over
    /// the whole timeline of the world as generated
    /// ([`StreamSpec::WHOLE`]) when the run has none.
    pub(crate) fn slices(&self) -> StreamSpec {
        self.options.stream.unwrap_or(StreamSpec::WHOLE)
    }

    /// Records how many items the current stage processed (shown in its
    /// [`StageTiming`]). Stages call this once per run.
    pub fn note_items(&mut self, n: usize) {
        self.items = n;
    }

    /// Takes the pending item count for the stage that just finished.
    pub(super) fn take_items(&mut self) -> usize {
        std::mem::take(&mut self.items)
    }

    /// Timings recorded so far, one entry per completed stage.
    pub fn timings(&self) -> &[StageTiming] {
        &self.timings
    }

    /// Stage-health events recorded so far (recovered retries,
    /// degradations). Empty on a clean run.
    pub fn health(&self) -> &[StageHealth] {
        &self.health
    }

    /// Assembles the final [`PipelineReport`], consuming the context.
    /// Errors with the first missing artifact if only a prefix ran.
    pub fn into_report(self) -> Result<PipelineReport, StageError> {
        macro_rules! take {
            ($field:ident) => {
                self.$field
                    .ok_or(StageError::MissingArtifact(stringify!($field)))?
            };
        }
        Ok(PipelineReport {
            forums: take!(forums),
            topcls: take!(topcls),
            crawl: take!(crawl),
            crawl_stats: take!(crawl_stats),
            funnel: take!(funnel),
            safety: take!(safety),
            nsfv_validation: take!(nsfv_validation),
            provenance: take!(provenance),
            harvest: take!(harvest),
            earnings: take!(earnings),
            currency: take!(currency),
            cohorts: take!(cohorts),
            fig4_points: take!(fig4_points),
            key_actors: take!(key_actors),
            group_profiles: take!(group_profiles),
            interests: take!(interests),
            quarantine: self.ledger,
            health: self.health,
            supervision: self.supervision,
            timings: self.timings,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use imagesim::{ImageClass, ImageSpec};
    use websim::StoredImage;

    fn measures(n: usize, salt: u64) -> Vec<ImageMeasures> {
        (0..n)
            .map(|v| {
                let spec = ImageSpec::model_photo(ImageClass::ModelNude, v as u32, v as u64 + salt);
                ImageMeasures::of(&StoredImage::pristine(spec).render())
            })
            .collect()
    }

    #[test]
    fn from_flat_resplit_is_lossless() {
        let previews = measures(3, 100);
        let packs = [measures(2, 200), measures(0, 300), measures(4, 400)];
        let mut flat = previews.clone();
        for p in &packs {
            flat.extend(p.iter().copied());
        }
        let split = MeasuredImages::try_from_flat(flat, previews.len(), &[2, 0, 4]).unwrap();
        assert_eq!(split.previews, previews);
        assert_eq!(split.packs.len(), 3);
        for (got, want) in split.packs.iter().zip(&packs) {
            assert_eq!(got, want);
        }
        assert_eq!(split.total(), 9);
    }

    #[test]
    fn from_flat_rejects_short_batches() {
        let e = MeasuredImages::try_from_flat(measures(2, 0), 2, &[1]).unwrap_err();
        assert!(e.to_string().contains("flat measure batch"), "{e}");
    }

    #[test]
    fn refs_follow_screening_order() {
        let split = MeasuredImages {
            previews: measures(2, 0),
            packs: vec![measures(1, 10), measures(2, 20)],
        };
        assert_eq!(
            split.refs(),
            vec![
                ImageRef::preview(0),
                ImageRef::preview(1),
                ImageRef::pack(0, 0),
                ImageRef::pack(1, 0),
                ImageRef::pack(1, 1),
            ]
        );
        for r in split.refs() {
            assert!(split.get(r).is_some());
        }
        assert!(split.get(ImageRef::pack(2, 0)).is_none());
    }

    /// Regression for the old global-offset arithmetic: flagging the last
    /// image of pack `k` must never evict the first image of pack `k + 1`.
    #[test]
    fn flag_in_pack_k_never_evicts_pack_k_plus_1() {
        let split = MeasuredImages {
            previews: measures(2, 0),
            packs: vec![measures(3, 10), measures(3, 20)],
        };
        // Flag the whole of pack 0 (including its last image, whose flat
        // offset would be pack 1's first under off-by-one arithmetic).
        let flagged: HashSet<ImageRef> = (0..3).map(|j| ImageRef::pack(0, j)).collect();
        let kept = apply_deletions(&split, &flagged);
        assert_eq!(kept.previews.len(), 2, "previews untouched");
        assert!(kept.packs[0].is_empty(), "pack 0 fully deleted");
        assert_eq!(kept.packs[1], split.packs[1], "pack 1 fully intact");
    }

    #[test]
    fn preview_flags_keep_original_refs() {
        let split = MeasuredImages {
            previews: measures(3, 0),
            packs: vec![measures(1, 10)],
        };
        let flagged: HashSet<ImageRef> = [ImageRef::preview(1)].into_iter().collect();
        let kept = apply_deletions(&split, &flagged);
        let refs: Vec<ImageRef> = kept.previews.iter().map(|(r, _)| *r).collect();
        assert_eq!(refs, vec![ImageRef::preview(0), ImageRef::preview(2)]);
        assert_eq!(kept.packs[0], split.packs[0]);
    }
}
