//! The fold state every stage computes through, and the epoch engine.
//!
//! Every run folds slices of the timeline into an [`EpochCarry`]: each
//! hot stage keeps a small, serialisable carry here and folds only the
//! slice's delta into it. A plain run is a fresh carry folded over one
//! slice covering the whole timeline of the world as generated
//! ([`StreamSpec::WHOLE`]); streaming mode slices the forum feed into
//! `K` calendar epochs ([`worldgen::Feed`]) and an epoch advance folds a
//! warm carry over its delta —
//!
//! * `top_classifier`: the bootstrap-frozen model (trained once at the
//!   first boundary), first-sight decisions per thread, and an
//!   incrementally grown vocabulary / document-frequency index
//!   ([`StreamTextIndex`] — vocab union + new-doc rows, never a rebuild);
//! * `measure_images`: a memo of every `(spec, transform)` pair already
//!   measured (measures are pure, so memoised values are exact);
//! * `nsfv`: the validation-set evaluation (pure in the seed);
//! * `finance`: a fold cursor over the post list plus the funnel
//!   counters, whitelist, URL dedup set, proof records, running §5.2
//!   earnings aggregates, and the Table 7 per-actor tallies and
//!   CE-thread ledger (folded via a thread cursor);
//! * `provenance`: a memo of every reverse-search outcome keyed
//!   `(robust hash, post day)` — the reverse index and the Wayback
//!   archive are static services, so outcomes are pure in the key;
//! * `actors`: the reply/quote graph grown edge-by-edge, the
//!   warm-started eigenvector-centrality vector, and the per-actor
//!   metric counters behind Table 8 / Figure 4.
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
//! [`EpochEngine`] owns the feed, the growing world, and the carry, and
//! journals the carry at every epoch boundary (the stage journal's
//! record format), so a killed stream resumes from the last completed
//! epoch.
//!
//! [`StreamSpec::WHOLE`]: super::StreamSpec::WHOLE

use super::journal::{Journal, LoadOutcome, StageRecord};
use super::{Pipeline, PipelineOptions, PipelineReport, StageError, StreamSpec};
use crate::actors::ActorFold;
use crate::finance::{EarningsAgg, EarningsHarvest};
use crate::nsfv::{ImageMeasures, NsfvValidation};
use crate::provenance::QueryOutcome;
use crate::topcls::{BootstrapModel, StreamIndexStats};
use crimebb::ThreadId;
use imagesim::RobustHash;
use serde::{Deserialize, Serialize};
use socgraph::DiGraph;
use std::collections::HashSet;
use std::path::Path;
use synthrand::Day;
use textkit::dtm::{DocTermMatrix, Vocabulary};
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
    /// The classifier bootstrapped at the first epoch boundary; `None`
    /// until epoch 1 has run.
    pub model: Option<BootstrapModel>,
    /// First-sight decisions `(thread, ml, heuristic)` in decision
    /// order: threads grouped by the epoch they appeared in, each
    /// decided on its state as of that epoch's boundary.
    pub decisions: Vec<(ThreadId, bool, bool)>,
    /// The incrementally grown corpus text index.
    pub index: StreamTextIndex,
}

/// An incrementally grown vocabulary + document-frequency table: the
/// delta-update form of the DTM/TF-IDF build. Epoch advances extend the
/// vocabulary (append-stable term ids), count only the new documents,
/// and fold their rows into the running `df` — never a from-scratch
/// rebuild. [`TfIdf::fit_from_df`] proves the resulting weights equal a
/// full refit, which is what makes the fold exact.
///
/// [`TfIdf::fit_from_df`]: textkit::dtm::TfIdf::fit_from_df
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StreamTextIndex {
    /// Union vocabulary over every folded document.
    pub vocab: Vocabulary,
    /// Document frequency per term id.
    pub df: Vec<usize>,
    /// Documents folded in.
    pub docs: usize,
}

impl StreamTextIndex {
    /// Folds one batch of tokenised documents into the index: vocab
    /// union, transient count rows for the batch only, df accumulation.
    pub fn fold(&mut self, docs: &[Vec<String>], workers: usize) {
        if docs.is_empty() {
            return;
        }
        self.vocab.extend(docs.iter().map(|d| d.iter()));
        let mut dtm = DocTermMatrix::default();
        dtm.append_docs_par(&self.vocab, docs, workers);
        dtm.accumulate_df(&mut self.df, 0);
        self.docs += docs.len();
    }

    /// Diagnostics snapshot, including the smoothed-IDF checksum
    /// (`Σ ln((1+N)/(1+df)) + 1`, the [`TfIdf`] weight formula).
    ///
    /// [`TfIdf`]: textkit::dtm::TfIdf
    pub fn stats(&self) -> StreamIndexStats {
        let n = self.docs as f64;
        StreamIndexStats {
            terms: self.vocab.len(),
            docs: self.docs,
            idf_checksum: self
                .df
                .iter()
                .map(|&d| ((1.0 + n) / (1.0 + d as f64)).ln() + 1.0)
                .sum(),
        }
    }
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
/// gives equivalence.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FinanceCarry {
    /// Posts `0..cursor` are folded in.
    pub cursor: usize,
    /// Threads `0..thread_cursor` are folded into the earnings-thread
    /// tally and the CE-thread ledger below.
    pub thread_cursor: usize,
    /// Per-actor posts in eWhoring threads (Table 7 qualification),
    /// indexed by actor id.
    pub ew_posts_by_actor: Vec<u32>,
    /// Per-actor first eWhoring post day (`Day(u32::MAX)` sentinel).
    pub first_ew_by_actor: Vec<Day>,
    /// Every Currency Exchange thread at creation, `(author, thread)`
    /// in timeline order; qualification is re-checked at assembly.
    pub ce_threads: Vec<(crimebb::ActorId, ThreadId)>,
    /// Running §5.2 earnings aggregates over `proofs[..agg_cursor]`.
    /// Folded only when the run's corruption plan is inert — an enabled
    /// plan filters a per-run copy of the proof list, so the stage
    /// falls back to the one-shot aggregation instead.
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
    /// verified proof records in fold order, *unfiltered* — the run's
    /// corruption plan is applied to a copy each run so carried state
    /// never depends on the plan.
    pub harvest: EarningsHarvest,
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
/// edge-by-edge from the post timeline, plus the eigenvector-centrality
/// vector warm-started across epochs (fixed iteration budget and
/// tolerance, so the warm chain replays bit-identically from scratch).
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

/// Drives a world through its epochs: applies each feed slice, runs the
/// pipeline with the warm carry, and (optionally) checkpoints
/// the carry at every boundary so a killed stream resumes from the last
/// completed epoch instead of epoch 0.
pub struct EpochEngine {
    feed: Feed,
    world: World,
    epoch: u32,
    carry: EpochCarry,
    options: PipelineOptions,
    journal: Option<Journal>,
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
            journal: None,
        }
    }

    /// [`EpochEngine::new`] with a checkpoint journal under
    /// `journal_dir`. If a valid carry record exists for this run key,
    /// the engine resumes from the most recent journaled epoch —
    /// invalid or stale records are skipped, never trusted.
    pub fn with_journal(
        world: World,
        epochs: u32,
        options: PipelineOptions,
        journal_dir: &Path,
    ) -> Result<EpochEngine, StageError> {
        let mut engine = EpochEngine::new(world, epochs, options);
        let journal = Journal::open(journal_dir, &engine.world.config, &engine.journal_options())?;
        for e in (1..=epochs).rev() {
            let LoadOutcome::Hit(record) = journal.load((e - 1) as usize, &Self::record_name(e))
            else {
                continue;
            };
            let Ok(carry) = serde_json::from_value::<EpochCarry>(record.artifacts.clone()) else {
                continue;
            };
            for j in 1..=e {
                engine.feed.apply_epoch(&mut engine.world, j);
            }
            engine.epoch = e;
            engine.carry = carry;
            break;
        }
        engine.journal = Some(journal);
        Ok(engine)
    }

    /// The run-key options shared by every epoch of this stream: `upto`
    /// is normalised to 0 so all boundary checkpoints land in one run
    /// directory (the epoch index lives in the record name instead).
    fn journal_options(&self) -> PipelineOptions {
        PipelineOptions {
            stream: Some(StreamSpec {
                epochs: self.feed.epochs(),
                upto: 0,
            }),
            ..self.options
        }
    }

    fn record_name(e: u32) -> String {
        format!("epoch-{e}")
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
    /// carry: the O(delta) advance. Checkpoints the refreshed
    /// carry when a journal is attached. A hard stage failure poisons
    /// the engine (the world has already advanced); recover by
    /// rebuilding via [`EpochEngine::with_journal`].
    pub fn advance(&mut self) -> Result<PipelineReport, StageError> {
        assert!(
            self.epoch < self.feed.epochs(),
            "already at the final epoch"
        );
        let e = self.epoch + 1;
        self.feed.apply_epoch(&mut self.world, e);
        let options = PipelineOptions {
            stream: Some(StreamSpec {
                epochs: self.feed.epochs(),
                upto: e,
            }),
            ..self.options
        };
        let carry = std::mem::take(&mut self.carry);
        let (report, carry) = Pipeline::new(options).run_with_carry(&self.world, carry)?;
        self.carry = carry;
        self.epoch = e;
        if let Some(journal) = &self.journal {
            let record = StageRecord {
                artifacts: serde_json::to_value(&self.carry).map_err(|err| {
                    StageError::CorruptArtifact {
                        path: Self::record_name(e),
                        reason: format!("carry does not serialize: {err}"),
                    }
                })?,
                // The epoch's full ledger and health log ride along in
                // the checkpoint, so the record is a faithful account
                // of the run that produced the carry (and a resumed
                // engine's health section can be audited against it).
                quarantined: report.quarantine.entries().to_vec(),
                health: report.health.clone(),
                items: self.feed.epoch_len(e),
            };
            journal.save((e - 1) as usize, &Self::record_name(e), &record)?;
        }
        Ok(report)
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
        let options = PipelineOptions {
            stream: Some(StreamSpec {
                epochs: self.feed.epochs(),
                upto: self.epoch,
            }),
            ..self.options
        };
        Ok(Pipeline::new(options)
            .run_with_carry(&self.world, EpochCarry::default())?
            .0)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::pipeline::journal::run_key;

    #[test]
    fn carry_round_trips_through_serde() {
        let mut carry = EpochCarry::default();
        carry.topcls.epoch = 2;
        carry.topcls.decisions = vec![(ThreadId(3), true, false), (ThreadId(9), false, true)];
        carry
            .topcls
            .index
            .fold(&[vec!["pack".to_string(), "pics".to_string()]], 1);
        carry.finance.cursor = 41;
        carry.finance.whiteset.insert("imgur.com".to_string());
        carry
            .finance
            .seen_urls
            .insert(Url::new("i.imgur.com", "/x"));
        carry.finance.thread_cursor = 17;
        carry.finance.harvest.earnings_threads = 4;
        carry.finance.ew_posts_by_actor = vec![0, 55, 3];
        carry.finance.first_ew_by_actor = vec![Day(u32::MAX), Day(120), Day(360)];
        carry
            .finance
            .ce_threads
            .push((crimebb::ActorId(1), ThreadId(9)));
        carry
            .finance
            .agg
            .per_actor
            .push((crimebb::ActorId(1), 12.5, 2));
        carry.finance.agg.monthly.push((24_193, 3, 1));
        carry.finance.agg_cursor = 2;
        carry.actors.epoch = 2;
        carry.actors.cursor = 41;
        carry.actors.graph = DiGraph::with_nodes(3);
        carry.actors.graph.add_edge(0, 1, 2.0);
        carry.actors.influence = vec![0.25, 0.5, 0.25];
        carry.actors.fold.ensure(3);
        carry
            .actors
            .fold
            .note_post(crimebb::ActorId(1), Day(200), true);
        carry.actors.ce_cursor = 17;
        carry
            .actors
            .ce_threads
            .push((crimebb::ActorId(2), ThreadId(5)));

        let value = serde_json::to_value(&carry).unwrap();
        let back: EpochCarry = serde_json::from_value(value).unwrap();
        assert_eq!(back.topcls.epoch, 2);
        assert_eq!(back.topcls.decisions, carry.topcls.decisions);
        assert_eq!(back.topcls.index.docs, 1);
        assert_eq!(
            back.topcls.index.vocab.len(),
            carry.topcls.index.vocab.len()
        );
        assert_eq!(back.finance.cursor, 41);
        assert!(back.finance.whiteset.contains("imgur.com"));
        assert!(back
            .finance
            .seen_urls
            .contains(&Url::new("i.imgur.com", "/x")));
        assert_eq!(back.finance.thread_cursor, 17);
        assert_eq!(back.finance.harvest.earnings_threads, 4);
        assert_eq!(back.finance.ew_posts_by_actor, vec![0, 55, 3]);
        assert_eq!(
            back.finance.first_ew_by_actor,
            vec![Day(u32::MAX), Day(120), Day(360)]
        );
        assert_eq!(back.finance.ce_threads, carry.finance.ce_threads);
        assert_eq!(back.finance.agg.per_actor, carry.finance.agg.per_actor);
        assert_eq!(back.finance.agg.monthly, carry.finance.agg.monthly);
        assert_eq!(back.finance.agg_cursor, 2);
        assert_eq!(back.actors.graph.edge_count(), 1);
        assert_eq!(back.actors.influence, carry.actors.influence);
        assert_eq!(back.actors.fold.ew_posts, carry.actors.fold.ew_posts);
        assert_eq!(back.actors.fold.first_ew, carry.actors.fold.first_ew);
        assert_eq!(back.actors.fold.last_post, carry.actors.fold.last_post);
        assert_eq!(back.actors.ce_cursor, 17);
        assert_eq!(back.actors.ce_threads, carry.actors.ce_threads);
        assert!(back.nsfv.is_none());
    }

    #[test]
    fn stream_index_stats_match_a_full_refit() {
        let docs: Vec<Vec<String>> = vec![
            vec!["pack".into(), "pics".into(), "pack".into()],
            vec!["pics".into(), "tutorial".into()],
        ];
        let mut grown = StreamTextIndex::default();
        grown.fold(&docs[..1], 1);
        grown.fold(&docs[1..], 1);

        let mut whole = StreamTextIndex::default();
        whole.fold(&docs, 1);

        assert_eq!(grown.stats(), whole.stats());
        assert!(grown.stats().idf_checksum > 0.0);
    }

    #[test]
    fn epoch_run_keys_are_shared_across_upto_but_not_with_batch() {
        let config = worldgen::WorldConfig::test_scale(1);
        let stream = |upto| PipelineOptions {
            stream: Some(StreamSpec { epochs: 4, upto }),
            ..PipelineOptions::default()
        };
        // The engine normalises `upto` to 0 for its run key; different
        // live `upto` values would otherwise scatter checkpoints.
        assert_eq!(
            run_key(&config, &stream(0)).unwrap(),
            run_key(&config, &stream(0)).unwrap()
        );
        assert_ne!(
            run_key(&config, &stream(0)).unwrap(),
            run_key(&config, &stream(3)).unwrap(),
            "run_key itself still hashes the full options"
        );
        // A batch run must keep its pre-stream key: stripping the null
        // `stream` field preserves old journal directories.
        assert_ne!(
            run_key(&config, &PipelineOptions::default()).unwrap(),
            run_key(&config, &stream(0)).unwrap()
        );
    }
}
