//! The measurement pipeline as a stage graph (paper Figure 1).
//!
//! Each paper stage is one [`Stage`] implementation under [`stages`],
//! reading and writing a typed [`StageCtx`] artifact store. [`Pipeline`]
//! is a thin driver: it executes the stage list in order, records
//! per-stage wall-clock and item throughput into [`StageTiming`]s, and
//! can stop after any prefix of the graph ([`Pipeline::run_prefix`]).
//!
//! Stage order (module ↔ paper section):
//!
//! | stage            | module                 | paper              |
//! |------------------|------------------------|--------------------|
//! | `extract`        | [`stages::extract`]    | §3                 |
//! | `top_classifier` | [`stages::topcls`]     | §4.1               |
//! | `crawl`          | [`stages::crawl`]      | §4.2               |
//! | `measure_images` | [`stages::measure`]    | §4.2               |
//! | `safety`         | [`stages::safety`]     | §4.3               |
//! | `nsfv`           | [`stages::nsfv`]       | §4.4               |
//! | `provenance`     | [`stages::provenance`] | §4.5               |
//! | `finance`        | [`stages::finance`]    | §5.1 harvest, §5.2 |
//! | `actors`         | [`stages::actors`]     | §6, §5.1 Table 7   |
//!
//! Everything is deterministic in `PipelineOptions::seed`. The hot
//! stages (`top_classifier`, `measure_images`, `nsfv`, `actors`) run
//! their per-item loops on the shared data-parallel layer in
//! [`crate::par`], which reassembles results in input order — so the
//! report is byte-identical for any `PipelineOptions::workers` value
//! (enforced by the worker-matrix test in `tests/determinism.rs`).
//!
//! Every run form — batch, sharded, streamed, journaled or not — goes
//! through one stage loop. The execution layer is crash-tolerant:
//! [`Pipeline::run_resumable`] journals every completed stage's
//! artifacts to disk ([`journal`]) and resumes a killed run from the
//! last completed stage boundary, byte-identical to an uninterrupted
//! run. Input corruption is injected
//! deterministically by a [`corruption::CorruptionPlan`] at
//! `PipelineOptions::corruption_severity`; stages quarantine corrupt
//! records into a [`corruption::QuarantineLedger`] instead of
//! panicking, and the driver retries a failed stage once before asking
//! it to degrade ([`Stage::degrade`]).
#![deny(clippy::unwrap_used)]

pub mod cache;
pub mod corruption;
pub mod ctx;
pub mod epoch;
pub mod journal;
pub mod shard;
pub mod stages;

pub use cache::{snapshot_json, CachedRun, RunCache, RunSpec, RunStatus};
pub use corruption::{CorruptionPlan, QuarantineEntry, QuarantineLedger, RecordErrorKind};
pub use ctx::{
    apply_deletions, ImageRef, ImageSource, KeptImages, MeasuredImages, StageCtx, StageError,
};
pub use epoch::{stream_world, EpochCarry, EpochEngine};
pub use journal::Journal;
pub use shard::{RestartPolicy, RoundOutcome, ShardPoison, Supervision, Supervisor};
pub use stages::measure::measure_batch;

use crate::actors::{CohortRow, GroupProfile, InterestEvolution, KeyActors};
use crate::crawl::{CrawlResult, CrawlStats};
use crate::finance::{CurrencyExchangeAnalysis, EarningsAnalysis, EarningsHarvest};
use crate::nsfv::NsfvValidation;
use crate::provenance::ProvenanceResult;
use crate::safety_stage::SafetyStageResult;
use crate::topcls::TopClassification;
use serde::{Deserialize, Serialize};
use std::time::Instant;
use worldgen::World;

/// The calendar slices a run folds: the feed is split into `epochs`
/// slices ([`worldgen::epoch_bound`]) and the run sees only events up to
/// slice `upto`'s boundary. Every stage computes by folding slices into
/// an [`EpochCarry`]: a run without a streamed spec folds one slice over
/// the whole generated world ([`StreamSpec::WHOLE`]); with a warm carry
/// ([`Pipeline::run_with_carry`]) each epoch advance costs O(delta); with
/// a fresh carry the same code recomputes from scratch — the two are
/// byte-identical by construction (the epoch equivalence gate in
/// `tests/determinism.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamSpec {
    /// Number of calendar epochs the dataset window is split into.
    pub epochs: u32,
    /// Last epoch (1-based) whose events are visible to this run.
    pub upto: u32,
}

impl StreamSpec {
    /// One slice covering the whole timeline: what a run without a
    /// streamed spec folds.
    pub const WHOLE: StreamSpec = StreamSpec { epochs: 1, upto: 1 };

    /// Last day visible to slice `j`. The final slice is open-ended, so
    /// it takes everything the world holds whatever its post dates.
    pub(crate) fn bound(&self, config: &worldgen::WorldConfig, j: u32) -> synthrand::Day {
        if j >= self.epochs {
            crate::features::OPEN_CUTOFF
        } else {
            worldgen::epoch_bound(config, self.epochs, j)
        }
    }
}

/// Pipeline tuning knobs.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PipelineOptions {
    /// Seed for annotation sampling / training shuffles.
    pub seed: u64,
    /// `k` for key-actor selection (paper: 50).
    pub k_key_actors: usize,
    /// Worker threads for every data-parallel stage — classifier feature
    /// extraction, image measurement, NSFV scoring, dedup counting, and
    /// the centrality iteration (0 = all cores). Output is byte-identical
    /// for any value; see [`crate::par`] for the determinism contract.
    pub workers: usize,
    /// Transient-fault severity for the crawl stage: `0.0` (default)
    /// disables injection — output is then byte-identical to the
    /// pre-fault pipeline — `1.0` injects at the calibrated per-site
    /// rates, and large values simulate a total outage. The fault plan's
    /// seed derives from `seed`, so runs stay reproducible.
    pub fault_severity: f64,
    /// Input-corruption severity: `0.0` (default) disables injection —
    /// output is then byte-identical to the uncorrupted pipeline —
    /// `1.0` mangles records at the calibrated per-kind rates
    /// (truncated/malformed forum rows, invalid-UTF-8 headings, corrupt
    /// image bytes, NaN feature inputs). Corrupt records land in the
    /// quarantine ledger instead of aborting the run. The plan's seed
    /// derives from `seed`, so runs stay reproducible.
    pub corruption_severity: f64,
    /// `Some` runs over the feed's epoch slices (see [`StreamSpec`]);
    /// `None` (default) folds the world as generated in one slice.
    pub stream: Option<StreamSpec>,
    /// Fan the `extract` stage's corpus survey out by forum across
    /// `shards` supervised worker threads (`0`, the default, surveys in
    /// place). The merged report is byte-identical at every shard
    /// count, so — like `workers` — this knob is excluded from the
    /// journal run key. The survey folds the world as generated in one
    /// slice, so a streamed run cannot shard (its `extract` stage fails
    /// with a typed error).
    pub shards: usize,
    /// Deterministic shard-failure injection for supervision tests
    /// (panics and/or hard errors on one shard); `None` (default)
    /// injects nothing. Only meaningful when `shards > 0`.
    pub poison: Option<shard::ShardPoison>,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            seed: 0x1919,
            k_key_actors: 50,
            workers: 0,
            fault_severity: 0.0,
            corruption_severity: 0.0,
            stream: None,
            shards: 0,
            poison: None,
        }
    }
}

/// Table 1 row: per-forum eWhoring footprint.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ForumRow {
    /// Forum name.
    pub forum: String,
    /// eWhoring threads extracted.
    pub threads: usize,
    /// Posts in those threads.
    pub posts: usize,
    /// First post date, `MM/YY`.
    pub first_post: String,
    /// TOPs detected by the hybrid classifier.
    pub tops: usize,
    /// Distinct actors.
    pub actors: usize,
}

/// §4.3 extras measured on top of the IWF summary.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SafetyFindings {
    /// The stage result (flagged downloads, IWF summary).
    pub stage: SafetyStageResult,
    /// Distinct actors who replied in flagged threads (paper: 476).
    pub actors_in_flagged_threads: usize,
}

/// §4.2/§4.4 funnel counters.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ImageFunnel {
    /// Single images downloaded from image-sharing sites (paper: 5 788).
    pub preview_downloads: usize,
    /// Packs downloaded (paper: 1 255).
    pub packs_downloaded: usize,
    /// Images inside downloaded packs (paper: 111 288).
    pub pack_images: usize,
    /// Unique files after exact dedup (paper: 53 948).
    pub unique_files: usize,
    /// Exact-duplicate images appearing in ≥20 packs (paper: 127).
    pub heavily_duplicated: usize,
    /// Preview downloads classified NSFV (paper: 3 496).
    pub previews_nsfv: usize,
}

/// How a stage's result entered the run: computed in-process, or loaded
/// back from the checkpoint journal. Bench baselines must never
/// conflate the two — a journal load is measured I/O, not stage work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimingSource {
    /// The stage executed in this process.
    Computed,
    /// The stage's artifacts were loaded from the checkpoint journal
    /// (also used for the journal-overhead bookkeeping row itself).
    Journal,
}

impl TimingSource {
    /// Lower-case label for machine-readable output.
    pub fn as_str(&self) -> &'static str {
        match self {
            TimingSource::Computed => "computed",
            TimingSource::Journal => "journal",
        }
    }
}

/// Wall-clock and throughput for one executed stage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Stage name, as returned by [`Stage::name`].
    pub stage: String,
    /// Wall-clock, microseconds.
    pub wall_us: u128,
    /// Items the stage processed (threads, images, packs — per stage).
    pub items: usize,
    /// Whether the stage was computed or journal-loaded.
    pub source: TimingSource,
}

/// Post-mortem status of a stage the driver had to intervene on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StageStatus {
    /// The stage failed once and succeeded on the driver's retry.
    Recovered,
    /// The stage failed twice and wrote degraded (partial or default)
    /// artifacts via [`Stage::degrade`] so downstream stages could run —
    /// or, for `top_classifier`, had no thread to train on yet and
    /// decided by the heuristic alone.
    Degraded,
}

/// One stage-health event. Only stages the driver intervened on appear
/// here — a clean run has an empty health list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageHealth {
    /// The stage concerned.
    pub stage: String,
    /// What the driver did.
    pub status: StageStatus,
    /// The triggering error, rendered.
    pub detail: String,
}

/// Per-stage timings for a (possibly prefix) pipeline run.
pub type StageTimings = Vec<StageTiming>;

/// Everything the pipeline measures, one field per paper artefact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineReport {
    /// Table 1.
    pub forums: Vec<ForumRow>,
    /// §4.1 classifier results.
    pub topcls: TopClassification,
    /// §4.2 crawl output (Tables 3/4 live in the tallies).
    pub crawl: CrawlResult,
    /// §4.2 crawler health: attempts, retries, breaker trips, simulated
    /// waits. Deterministic in the seed (unlike `timings`).
    pub crawl_stats: CrawlStats,
    /// §4.2/§4.4 funnel.
    pub funnel: ImageFunnel,
    /// §4.3 safety results.
    pub safety: SafetyFindings,
    /// §4.4 validation-set evaluation.
    pub nsfv_validation: NsfvValidation,
    /// §4.5 provenance (Tables 5/6).
    pub provenance: ProvenanceResult,
    /// §5.1 harvest funnel.
    pub harvest: EarningsHarvest,
    /// §5.2 earnings aggregates (Figures 2/3).
    pub earnings: EarningsAnalysis,
    /// Table 7.
    pub currency: CurrencyExchangeAnalysis,
    /// Table 8.
    pub cohorts: Vec<CohortRow>,
    /// Figure 4 raw points: `(ew_posts, pct_ewhoring, days_before,
    /// days_after)` per actor.
    pub fig4_points: Vec<(usize, f64, u32, u32)>,
    /// §6.3 key actors (Table 9 data).
    pub key_actors: KeyActors,
    /// Table 10.
    pub group_profiles: Vec<GroupProfile>,
    /// Figure 5.
    pub interests: InterestEvolution,
    /// Per-record failures quarantined during the run. Deterministic in
    /// the seed (unlike `timings`); empty at `corruption_severity 0.0`
    /// on clean inputs.
    pub quarantine: corruption::QuarantineLedger,
    /// Stage-health events (recovered retries, degradations). Empty on
    /// a clean run.
    pub health: Vec<StageHealth>,
    /// Supervision counters for sharded runs (shards run / restarted /
    /// quarantined); all zero on an unsharded run. Stripped from
    /// determinism snapshots alongside `timings` — restarts are
    /// scheduling events, not measurements.
    pub supervision: Supervision,
    /// Wall-clock + throughput per executed stage.
    pub timings: StageTimings,
}

/// One node of the stage graph.
///
/// A stage reads earlier artifacts out of the [`StageCtx`], does its
/// work, and writes its outputs back in. Stages hold no state of their
/// own — everything flows through the context, which is what makes
/// prefix runs and artifact inspection possible.
pub trait Stage {
    /// Stable stage name (appears in [`StageTiming::stage`]).
    fn name(&self) -> &'static str;
    /// Runs the stage against `ctx`.
    fn run(&self, ctx: &mut StageCtx<'_>) -> Result<(), StageError>;
    /// Last-resort degradation: after [`Stage::run`] failed twice, a
    /// non-critical stage may write partial or default artifacts so
    /// downstream stages can still run, returning `true`. The default
    /// (`false`) propagates the error — correct for stages whose
    /// artifacts every later stage depends on. Implementations must not
    /// degrade on [`StageError::MissingArtifact`]: that is a broken
    /// graph, not broken data.
    fn degrade(&self, _ctx: &mut StageCtx<'_>, _cause: &StageError) -> bool {
        false
    }
}

/// The pipeline runner: a thin driver over the stage graph.
pub struct Pipeline {
    options: PipelineOptions,
}

impl Pipeline {
    /// Creates a runner with `options`.
    pub fn new(options: PipelineOptions) -> Pipeline {
        Pipeline { options }
    }

    /// The full stage graph in paper order.
    pub fn stages() -> Vec<Box<dyn Stage>> {
        stages::full_graph()
    }

    /// Runs every stage against `world` and assembles the report.
    ///
    /// Every stage folds the run's slices into a fresh carry: one slice
    /// over the whole world as generated ([`StreamSpec::WHOLE`]) unless
    /// `options.stream` is set. With `options.shards > 0` the `extract`
    /// stage fans its corpus survey out per forum across panic-isolated
    /// shard workers ([`shard`]) — byte-identical to the unsharded run
    /// at every shard count. Panics on a [`StageError`]; the other run
    /// forms return it.
    pub fn run(&self, world: &World) -> PipelineReport {
        self.run_prefix(world, usize::MAX)
            .and_then(StageCtx::into_report)
            .expect("the full stage graph produces every artifact")
    }

    /// Runs the first `n` stages of the graph (all of them if `n`
    /// exceeds the graph length) and returns the artifact store, so
    /// callers can inspect intermediate products without paying for the
    /// rest of the pipeline.
    pub fn run_prefix<'w>(&self, world: &'w World, n: usize) -> Result<StageCtx<'w>, StageError> {
        Self::drive(StageCtx::new(world, self.options), n, None)
    }

    /// Runs every stage with `carry` as the warm inter-epoch state and
    /// returns the refreshed carry alongside the report. Passing
    /// [`EpochCarry::default`] is the *fresh-carry* run — a full
    /// recompute through the identical fold — which is what the
    /// epoch-equivalence gate compares warm advances against. With a
    /// `journal`, journaled stages load their artifacts and carry
    /// fields, and computed ones are checkpointed.
    pub fn run_with_carry(
        &self,
        world: &World,
        carry: EpochCarry,
        journal: Option<&Journal>,
    ) -> Result<(PipelineReport, EpochCarry), StageError> {
        let mut ctx = StageCtx::new(world, self.options);
        ctx.carry = Some(carry);
        ctx.keeps_carry = true;
        let mut ctx = Self::drive(ctx, usize::MAX, journal)?;
        let carry = ctx
            .carry
            .take()
            .ok_or(StageError::MissingArtifact("carry"))?;
        Ok((ctx.into_report()?, carry))
    }

    /// Runs every stage with a checkpoint journal under `journal_dir`:
    /// already-journaled stages are loaded instead of re-executed, every
    /// computed stage is checkpointed on completion. A run killed at any
    /// stage boundary resumes here to a report byte-identical (modulo
    /// wall-clock timings) to an uninterrupted run — the ledger, health
    /// events, and item counts are journaled along with the artifacts.
    pub fn run_resumable(
        &self,
        world: &World,
        journal_dir: &std::path::Path,
    ) -> Result<PipelineReport, StageError> {
        self.run_prefix_resumable(world, usize::MAX, journal_dir)?
            .into_report()
    }

    /// [`Pipeline::run_prefix`] with a checkpoint journal: loads the
    /// longest journaled prefix, computes (and checkpoints) the rest.
    /// Journal records are validated on load — a checksum or run-key
    /// mismatch falls back to recomputation, never to silent reuse.
    pub fn run_prefix_resumable<'w>(
        &self,
        world: &'w World,
        n: usize,
        journal_dir: &std::path::Path,
    ) -> Result<StageCtx<'w>, StageError> {
        let journal = Journal::open(journal_dir, &world.config, &self.options)?;
        Self::drive(StageCtx::new(world, self.options), n, Some(&journal))
    }

    /// The one stage loop behind every run form: steps the first `n`
    /// stages through [`Pipeline::step`]. With a journal it first loads
    /// the longest contiguous journaled prefix — each record restores
    /// its stage's artifacts and the carry field that stage folds, and
    /// each stage folds only its own field, so the stages computed
    /// after it fold exactly what an uninterrupted run does —
    /// checkpoints every stage it computes, and reports the journal's
    /// own overhead as one `journal` timing row.
    fn drive<'w>(
        mut ctx: StageCtx<'w>,
        n: usize,
        journal: Option<&Journal>,
    ) -> Result<StageCtx<'w>, StageError> {
        let mut journal_us: u128 = 0;
        let mut journal_ops: usize = 0;
        // Only a *contiguous* journaled prefix is trusted: past the
        // first miss every later stage is recomputed and overwritten,
        // because its inputs may no longer match what produced it.
        let mut resuming = journal.is_some();
        for (index, stage) in Self::stages().into_iter().take(n).enumerate() {
            let name = stage.name();
            if let Some(journal) = journal.filter(|_| resuming) {
                let t = Instant::now();
                let restored = journal.restore(index, name, &mut ctx);
                let wall_us = t.elapsed().as_micros();
                journal_us += wall_us;
                if let Some(items) = restored {
                    journal_ops += 1;
                    ctx.timings.push(StageTiming {
                        stage: name.to_string(),
                        wall_us,
                        items,
                        source: TimingSource::Journal,
                    });
                    continue;
                }
                resuming = false;
            }
            let ledger_from = ctx.ledger.len();
            let health_from = ctx.health.len();
            Self::step(stage.as_ref(), &mut ctx)?;
            if let Some(journal) = journal {
                let t = Instant::now();
                journal.checkpoint(index, name, &ctx, ledger_from, health_from)?;
                journal_us += t.elapsed().as_micros();
                journal_ops += 1;
            }
        }
        if journal.is_some() {
            // Journal overhead gets its own row so per-stage numbers
            // stay pure compute (or pure load, per their `source`).
            ctx.timings.push(StageTiming {
                stage: "journal".to_string(),
                wall_us: journal_us,
                items: journal_ops,
                source: TimingSource::Journal,
            });
        }
        Ok(ctx)
    }

    /// Executes one stage, recording its timing into the context. A
    /// failed stage is rolled back (ledger, health, item count) and
    /// retried once; if the retry also fails, the stage may degrade
    /// ([`Stage::degrade`]) — otherwise the error propagates.
    fn step(stage: &dyn Stage, ctx: &mut StageCtx<'_>) -> Result<(), StageError> {
        let t = Instant::now();
        let (ledger_from, health_from) = (ctx.ledger.len(), ctx.health.len());
        // Rolls back a failed attempt's per-record effects, so the retry
        // cannot double-record quarantines or items.
        let roll_back = |ctx: &mut StageCtx<'_>| {
            ctx.ledger.truncate(ledger_from);
            ctx.health.truncate(health_from);
            ctx.items = 0;
        };
        if let Err(first) = stage.run(ctx) {
            roll_back(ctx);
            let (status, cause) = match stage.run(ctx) {
                Ok(()) => (StageStatus::Recovered, first),
                Err(second) => {
                    roll_back(ctx);
                    if !stage.degrade(ctx, &second) {
                        return Err(second);
                    }
                    (StageStatus::Degraded, second)
                }
            };
            ctx.health.push(StageHealth {
                stage: stage.name().to_string(),
                status,
                detail: cause.to_string(),
            });
        }
        let wall_us = t.elapsed().as_micros();
        let items = ctx.take_items();
        ctx.timings.push(StageTiming {
            stage: stage.name().to_string(),
            wall_us,
            items,
            source: TimingSource::Computed,
        });
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use worldgen::WorldConfig;

    #[test]
    fn full_pipeline_runs_on_a_test_world() {
        let world = World::generate(WorldConfig::test_scale(0xE2E));
        let report = Pipeline::new(PipelineOptions {
            k_key_actors: 10,
            ..PipelineOptions::default()
        })
        .run(&world);

        // Table 1 shape: every forum extracted, Hackforums dominant.
        assert_eq!(report.forums.len(), worldgen::FORUM_PROFILES.len());
        let hf = report
            .forums
            .iter()
            .max_by_key(|r| r.threads)
            .expect("rows exist");
        assert_eq!(hf.forum, "Hackforums");

        // Classifier worked and TOPs were detected.
        assert!(report.topcls.hybrid_metrics.f1 > 0.7);
        assert!(!report.topcls.detected.is_empty());

        // Crawl produced previews and packs; funnel accounting consistent.
        assert!(report.funnel.preview_downloads > 0);
        assert!(report.funnel.packs_downloaded > 0);
        assert!(
            report.funnel.unique_files
                <= report.funnel.pack_images + report.funnel.preview_downloads
        );
        assert!(report.funnel.unique_files > 0);
        assert!(report.funnel.previews_nsfv <= report.funnel.preview_downloads);

        // Safety caught planted material.
        assert!(report.safety.stage.summary.matched_cases > 0);
        assert!(report.safety.actors_in_flagged_threads > 0);

        // NSFV validation holds the paper's operating point.
        assert_eq!(
            report.nsfv_validation.nude_detected,
            report.nsfv_validation.nude_total
        );

        // Provenance produced both Table 5 rows.
        assert!(report.provenance.packs.total > 0);
        assert!(report.provenance.previews.total > 0);

        // Finance produced proofs and Table 7 data.
        assert!(!report.harvest.proofs.is_empty());
        assert!(report.earnings.total_usd > 0.0);
        assert!(report.currency.threads > 0);

        // Actor analyses filled in.
        assert_eq!(report.cohorts.len(), 7);
        assert!(!report.fig4_points.is_empty());
        assert_eq!(report.group_profiles.len(), 6);
        assert!(!report.interests.shares.is_empty());

        // Driver recorded one timing per stage, with throughput.
        assert_eq!(report.timings.len(), Pipeline::stages().len());
        assert!(report.timings.iter().all(|t| t.items > 0));
    }

    #[test]
    fn pipeline_is_deterministic() {
        let world = World::generate(WorldConfig::test_scale(0xDE7));
        let opts = PipelineOptions {
            k_key_actors: 8,
            ..PipelineOptions::default()
        };
        let a = Pipeline::new(opts).run(&world);
        let b = Pipeline::new(opts).run(&world);
        assert_eq!(a.funnel.unique_files, b.funnel.unique_files);
        assert_eq!(a.topcls.detected, b.topcls.detected);
        assert_eq!(a.earnings.total_usd, b.earnings.total_usd);
        assert_eq!(a.key_actors.all, b.key_actors.all);
    }

    #[test]
    fn prefix_run_stops_at_the_requested_stage() {
        let world = World::generate(WorldConfig::test_scale(0xE2E));
        let pipe = Pipeline::new(PipelineOptions::default());

        // Three stages: extract, top_classifier, crawl.
        let ctx = pipe.run_prefix(&world, 3).expect("prefix runs");
        assert!(ctx.crawl().is_ok(), "crawl artifact produced");
        assert_eq!(
            ctx.measures().unwrap_err(),
            StageError::MissingArtifact("measures")
        );
        let names: Vec<&str> = ctx.timings().iter().map(|t| t.stage.as_str()).collect();
        assert_eq!(names, ["extract", "top_classifier", "crawl"]);

        // A prefix cannot be assembled into a full report.
        assert!(matches!(
            ctx.into_report(),
            Err(StageError::MissingArtifact(_))
        ));

        // The empty prefix produces nothing at all.
        let ctx = pipe.run_prefix(&world, 0).expect("empty prefix runs");
        assert_eq!(
            ctx.extraction().unwrap_err(),
            StageError::MissingArtifact("extraction")
        );
    }

    /// Synthetic stage for driver tests: fails its first `fails` runs
    /// (recording a partial ledger entry each attempt so rollback is
    /// observable), then succeeds. `degradable` opts into degradation.
    struct FlakyStage {
        fails_left: Cell<u32>,
        degradable: bool,
    }

    impl FlakyStage {
        fn failing(fails: u32, degradable: bool) -> FlakyStage {
            FlakyStage {
                fails_left: Cell::new(fails),
                degradable,
            }
        }
    }

    impl Stage for FlakyStage {
        fn name(&self) -> &'static str {
            "flaky"
        }

        fn run(&self, ctx: &mut StageCtx<'_>) -> Result<(), StageError> {
            // A partial effect before the possible failure: the driver
            // must roll this back on a failed attempt.
            ctx.ledger.record(
                "flaky",
                "record/0".to_string(),
                RecordErrorKind::MalformedRow,
            );
            if self.fails_left.get() > 0 {
                self.fails_left.set(self.fails_left.get() - 1);
                return Err(StageError::CorruptArtifact {
                    path: "flaky/input".to_string(),
                    reason: "synthetic failure".to_string(),
                });
            }
            ctx.note_items(1);
            Ok(())
        }

        fn degrade(&self, ctx: &mut StageCtx<'_>, _cause: &StageError) -> bool {
            if self.degradable {
                ctx.note_items(0);
            }
            self.degradable
        }
    }

    #[test]
    fn driver_retries_a_failed_stage_once_and_records_recovery() {
        let world = World::generate(WorldConfig::test_scale(0xF1A));
        let mut ctx = StageCtx::new(&world, PipelineOptions::default());
        let stage = FlakyStage::failing(1, false);

        Pipeline::step(&stage, &mut ctx).expect("retry succeeds");

        assert_eq!(ctx.health().len(), 1);
        assert_eq!(ctx.health()[0].stage, "flaky");
        assert_eq!(ctx.health()[0].status, StageStatus::Recovered);
        assert!(ctx.health()[0].detail.contains("synthetic failure"));
        // The failed attempt's ledger entry was rolled back; only the
        // successful attempt's entry survives.
        assert_eq!(ctx.ledger.len(), 1);
        let t = ctx.timings().last().unwrap();
        assert_eq!((t.stage.as_str(), t.items), ("flaky", 1));
        assert_eq!(t.source, TimingSource::Computed);
    }

    #[test]
    fn driver_degrades_a_twice_failed_stage_when_allowed() {
        let world = World::generate(WorldConfig::test_scale(0xF1A));
        let mut ctx = StageCtx::new(&world, PipelineOptions::default());
        let stage = FlakyStage::failing(2, true);

        Pipeline::step(&stage, &mut ctx).expect("degradation keeps the run alive");

        assert_eq!(ctx.health().len(), 1);
        assert_eq!(ctx.health()[0].status, StageStatus::Degraded);
        assert_eq!(ctx.ledger.len(), 0, "both failed attempts rolled back");
    }

    #[test]
    fn driver_propagates_a_double_failure_without_degradation() {
        let world = World::generate(WorldConfig::test_scale(0xF1A));
        let mut ctx = StageCtx::new(&world, PipelineOptions::default());
        let stage = FlakyStage::failing(2, false);

        let err = Pipeline::step(&stage, &mut ctx).unwrap_err();
        assert!(matches!(err, StageError::CorruptArtifact { .. }));
        assert!(ctx.health().is_empty());
        assert!(ctx.ledger.is_empty());
        assert!(ctx.timings().is_empty(), "no timing for a failed stage");
    }
}
