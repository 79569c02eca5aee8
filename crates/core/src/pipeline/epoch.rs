//! The fold state every stage computes through, and the epoch engine.
//!
//! Every run folds slices of the timeline into an [`EpochCarry`]: each
//! hot stage keeps a small, serialisable carry here and folds only the
//! slice's delta into it. A plain run is a fresh carry folded over one
//! slice covering the whole timeline of the world as generated
//! ([`StreamSpec::WHOLE`]); streaming mode slices the forum feed into
//! `K` calendar epochs ([`worldgen::Feed`]) and an epoch advance folds a
//! warm carry over its delta. Each stage's carry type below says what
//! that stage keeps: [`TopclsCarry`], [`MeasureCarry`], the memoised
//! `nsfv` validation, [`FinanceCarry`], [`ProvenanceCarry`] and
//! [`ActorsCarry`].
//!
//! Each stage reads and writes only its own field, so a run resumed
//! from the stage journal (fresh carry, earlier stages loaded) computes
//! what an uninterrupted run does.
//!
//! The correctness contract is **epoch equivalence**: running the same
//! fold with a fresh ([`EpochCarry::default`]) carry on the epoch-`e`
//! world produces byte-identical artifacts to advancing a warm carry
//! through epochs `1..=e`. Each stage's carry is designed so the warm
//! fold and the fresh fold traverse the same data in the same order;
//! the gate lives in `tests/determinism.rs`.
//!
//! [`EpochEngine`] owns the feed, the growing world, and the carry. With
//! a journal it runs each epoch through the stage journal under the run
//! key of the streamed spec `{epochs, upto: e}` — every stage record
//! holds the carry field its stage folds — so a killed stream resumes
//! from the last journaled stage, and a one-shot run of that spec
//! shares the engine's records.
//!
//! [`StreamSpec::WHOLE`]: super::StreamSpec::WHOLE

use super::journal::Journal;
use super::{Pipeline, PipelineOptions, PipelineReport, StageError, StreamSpec};
use crate::actors::ActorFold;
use crate::finance::{EarningsAgg, EarningsHarvest};
use crate::nsfv::{ImageMeasures, NsfvValidation};
use crate::provenance::QueryOutcome;
use crate::topcls::BootstrapModel;
use crimebb::ThreadId;
use imagesim::RobustHash;
use serde::{Deserialize, Serialize};
use socgraph::DiGraph;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use synthrand::Day;
use textkit::Url;
use websim::StoredImage;
use worldgen::{Feed, World};

/// Everything the stages keep between slices. `Default` is the fresh
/// carry: running with it *is* the full recompute.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EpochCarry {
    /// `top_classifier` carry.
    pub topcls: TopclsCarry,
    /// `measure_images` carry.
    pub measure: MeasureCarry,
    /// `nsfv` carry: the memoised validation-set evaluation (pure in
    /// the run seed, so computing it once is exact).
    pub nsfv: Option<NsfvValidation>,
    /// `finance` carry.
    pub finance: FinanceCarry,
    /// `provenance` carry.
    pub provenance: ProvenanceCarry,
    /// `actors` carry.
    pub actors: ActorsCarry,
}

/// Carry of the `top_classifier` stage.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TopclsCarry {
    /// Last epoch whose first-sight decisions are folded in.
    pub epoch: u32,
    /// The classifier bootstrapped at the first epoch boundary with an
    /// annotation sample; `None` until then (threads decided before it
    /// exists are decided by the heuristic alone).
    pub model: Option<BootstrapModel>,
    /// First-sight decisions `(thread, ml, heuristic)` in decision
    /// order: threads grouped by the epoch they appeared in, each
    /// decided on its state as of that epoch's boundary.
    pub decisions: Vec<(ThreadId, bool, bool)>,
}

/// Carry of the `measure_images` stage: every `(spec, transform)` pair
/// ever measured, with its measures. Measures are pure functions of the
/// pair (the arena-batch bit-identity contract), so a memo hit is exact
/// no matter which epoch computed it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MeasureCarry {
    /// Memo entries in first-measured order.
    pub memo: Vec<(StoredImage, ImageMeasures)>,
}

/// Carry of the `finance` stage: a pure fold over the post list. Posts
/// are processed exactly once, in post-id order — chronological on a
/// feed world, forum by forum on the world as generated — so warm and
/// fresh carriers traverse the identical sequence and fold composition
/// gives equivalence. The run's corruption plan is fixed for a whole
/// stream (it is part of the run key), so the carry may hold what it
/// decided.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FinanceCarry {
    /// Posts `0..cursor` are folded in.
    pub cursor: usize,
    /// Threads `0..thread_cursor` are folded into the earnings-thread
    /// tally.
    pub thread_cursor: usize,
    /// Running §5.2 earnings aggregates over `proofs[..agg_cursor]`.
    pub agg: EarningsAgg,
    /// Proofs `0..agg_cursor` are folded into `agg`.
    pub agg_cursor: usize,
    /// Snowballed image-host whitelist (registered domains), grown
    /// at-sight from earnings-thread posts.
    pub whiteset: HashSet<String>,
    /// URLs already counted (global dedup).
    pub seen_urls: HashSet<Url>,
    /// The §5.1 funnel so far. `earnings_threads` counts each thread
    /// once at creation (board, forum, and heading are fixed then, so
    /// that equals a full rescan at any slice); `proofs` are the
    /// verified proof records in fold order, quarantined ones left out
    /// and counted as `not_proof`.
    pub harvest: EarningsHarvest,
    /// Quarantined proofs, each by its index among all verified proofs
    /// (quarantined or not), ascending.
    pub quarantined: Vec<usize>,
}

/// Carry of the `provenance` stage: every reverse-search outcome ever
/// computed, keyed `(robust hash, post day)`. The reverse index and the
/// Wayback archive are static services of the base world — only the
/// forum timeline grows per epoch — so an outcome is a pure function of
/// its key and a memo hit skips the linear index scan exactly.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProvenanceCarry {
    /// Memo entries in first-queried order.
    pub memo: Vec<(RobustHash, Day, QueryOutcome)>,
}

/// Carry of the `actors` stage: the §6.1 interaction graph grown
/// edge-by-edge from the post timeline, the eigenvector-centrality
/// vector warm-started across epochs (fixed iteration budget and
/// tolerance, so the warm chain replays bit-identically from scratch),
/// and the per-actor tallies and Currency Exchange ledger that Table 7
/// and the key-actor ranking share. It is the only fold of these, and
/// the sharded `extract` survey folds per-forum partials of it and
/// merges them.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ActorsCarry {
    /// Last epoch folded into the graph and centrality chain.
    pub epoch: u32,
    /// Posts `0..cursor` are folded into the graph and the metric
    /// counters (one shared cursor: both folds walk the same slice).
    pub cursor: usize,
    /// The reply/quote graph (all actors are nodes from epoch 0).
    pub graph: DiGraph,
    /// Centrality vector after the last epoch's warm-started iteration.
    pub influence: Vec<f64>,
    /// Per-actor metric counters behind Table 8 / Figure 4: integer
    /// counts and day spans folded per epoch slice, assembled into the
    /// same rows `actor_metrics` computes over the full corpus.
    pub fold: ActorFold,
    /// Threads `0..ce_cursor` are folded into the CE-thread ledger.
    pub ce_cursor: usize,
    /// Every Currency Exchange thread at creation, `(author, thread)`;
    /// the >50-post qualification is re-checked at assembly because an
    /// actor can cross the threshold epochs later.
    pub ce_threads: Vec<(crimebb::ActorId, ThreadId)>,
}

/// Materializes the world a streamed spec runs over: the time-ordered
/// feed view advanced to `spec.upto` epochs. The feed re-assigns dense
/// chronological thread/post ids, so a non-incremental run of a
/// streamed spec MUST go through this — running the raw generated world
/// produces id-shifted artifacts that can never match engine output.
pub fn stream_world(world: World, spec: StreamSpec) -> World {
    Feed::new(world, spec.epochs).world_at(spec.upto)
}

/// Drives a world through its epochs: applies each feed slice and runs
/// the stage loop with the warm carry — stage-journaled, when a journal
/// is attached, under the run key of the streamed spec `{epochs, upto:
/// e}`, so an advance and a one-shot run of that spec share records and
/// a killed stream resumes mid-epoch.
pub struct EpochEngine {
    feed: Feed,
    world: World,
    epoch: u32,
    carry: EpochCarry,
    options: PipelineOptions,
    journal_dir: Option<PathBuf>,
}

impl EpochEngine {
    /// Builds an engine over `world` sliced into `epochs` feed epochs.
    /// The engine starts at epoch 0 (base world, fresh carry).
    pub fn new(world: World, epochs: u32, options: PipelineOptions) -> EpochEngine {
        let feed = Feed::new(world, epochs);
        let world = feed.base_world();
        EpochEngine {
            feed,
            world,
            epoch: 0,
            carry: EpochCarry::default(),
            options,
            journal_dir: None,
        }
    }

    /// [`EpochEngine::new`] with a stage journal under `journal_dir`,
    /// resumed at the newest epoch whose run reached its last stage —
    /// never past the epoch `options.stream` reports at (the final one
    /// if it names none), since a one-shot run of a later epoch shares
    /// this stream's records. It rebuilds that epoch's world and runs
    /// the stage loop on a fresh carry (journaled stages load their
    /// carry fields, the rest recompute: exact by epoch equivalence),
    /// and returns that epoch's report with the engine. Invalid or
    /// stale records are recomputed, never trusted.
    pub fn with_journal(
        world: World,
        epochs: u32,
        options: PipelineOptions,
        journal_dir: &Path,
    ) -> Result<(EpochEngine, Option<PipelineReport>), StageError> {
        let mut engine = EpochEngine::new(world, epochs, options);
        engine.journal_dir = Some(journal_dir.to_path_buf());
        let ceiling = options.stream.map_or(epochs, |s| s.upto.min(epochs));
        for e in (1..=ceiling).rev() {
            let options = engine.options_at(e);
            if Journal::open(journal_dir, &engine.world.config, &options)?.reached_the_end() {
                for j in 1..=e {
                    engine.feed.apply_epoch(&mut engine.world, j);
                }
                let report = engine.run(e)?;
                return Ok((engine, Some(report)));
            }
        }
        Ok((engine, None))
    }

    /// The options of a run that sees the feed up to epoch `upto`: those
    /// of the streamed spec `{epochs, upto}`, whose run key the journal
    /// uses.
    fn options_at(&self, upto: u32) -> PipelineOptions {
        PipelineOptions {
            stream: Some(StreamSpec {
                epochs: self.feed.epochs(),
                upto,
            }),
            ..self.options
        }
    }

    /// Runs the stage loop for epoch `e` on the world as it stands, with
    /// the engine's carry, through the journal when one is attached.
    fn run(&mut self, e: u32) -> Result<PipelineReport, StageError> {
        let options = self.options_at(e);
        let journal = match &self.journal_dir {
            Some(dir) => Some(Journal::open(dir, &self.world.config, &options)?),
            None => None,
        };
        let carry = std::mem::take(&mut self.carry);
        let (report, carry) =
            Pipeline::new(options).run_with_carry(&self.world, carry, journal.as_ref())?;
        self.carry = carry;
        self.epoch = e;
        Ok(report)
    }

    /// Number of epochs in the feed.
    pub fn epochs(&self) -> u32 {
        self.feed.epochs()
    }

    /// The last completed epoch (0 = nothing ran yet).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The world as of the last completed epoch.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The current carry (inspection / diagnostics).
    pub fn carry(&self) -> &EpochCarry {
        &self.carry
    }

    /// Applies the next feed slice and runs the pipeline with the warm
    /// carry: the O(delta) advance, stage-journaled when a journal is
    /// attached. A hard stage failure poisons the engine (the world has
    /// already advanced); recover by rebuilding via
    /// [`EpochEngine::with_journal`].
    pub fn advance(&mut self) -> Result<PipelineReport, StageError> {
        assert!(
            self.epoch < self.feed.epochs(),
            "already at the final epoch"
        );
        let e = self.epoch + 1;
        self.feed.apply_epoch(&mut self.world, e);
        self.run(e)
    }

    /// Advances until epoch `e` (inclusive), returning the last report
    /// — `None` when already at or past `e`.
    pub fn advance_to(&mut self, e: u32) -> Result<Option<PipelineReport>, StageError> {
        let e = e.min(self.feed.epochs());
        let mut last = None;
        while self.epoch < e {
            last = Some(self.advance()?);
        }
        Ok(last)
    }

    /// Full recompute at the current epoch: the identical fold run with
    /// a fresh carry over the same world. This is the
    /// equivalence partner of the warm advance (and the baseline the
    /// `bench epoch` speedup gate measures against).
    pub fn fresh_report(&self) -> Result<PipelineReport, StageError> {
        assert!(self.epoch >= 1, "no epoch has run yet");
        Ok(Pipeline::new(self.options_at(self.epoch))
            .run_with_carry(&self.world, EpochCarry::default(), None)?
            .0)
    }
}
