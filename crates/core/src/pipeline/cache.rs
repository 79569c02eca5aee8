//! The journal-backed result cache behind the pipeline service.
//!
//! A [`RunSpec`] is the five-knob request surface shared by the batch
//! CLI and the wire protocol: `(scale, seed, workers, faults,
//! corruption)`. Both callers derive their [`WorldConfig`] and
//! [`PipelineOptions`] through the *same* [`RunSpec`] methods, so a
//! report computed for a wire request is byte-identical to the batch
//! run for the same knobs — that equivalence is what `make smoke-serve`
//! `cmp`s.
//!
//! [`RunCache`] maps a run key (the same key the checkpoint journal
//! uses) to a completed [`PipelineReport`]:
//!
//! * **In-memory layer** — each key owns a [`OnceLock`] slot, which
//!   gives single-flight deduplication for free: N concurrent requests
//!   for the same key block on one slot, exactly one executes the
//!   pipeline ([`RunCache::computed_runs`] counts these), and the rest
//!   wake to a shared `Arc` of the finished report.
//! * **Journal layer** — when opened with a journal root, the compute
//!   path runs [`Pipeline::run_resumable`] (batch, sharded and streamed
//!   specs alike), so a run journaled by *any*
//!   earlier process (a batch invocation, a previous server lifetime)
//!   is loaded stage by stage instead of recomputed; a fully journaled
//!   run costs deserialization only and reports every stage with
//!   [`TimingSource::Journal`].
//!
//! Failures are cached too: a spec whose pipeline errors holds the
//! rendered [`StageError`] in its slot, so hammering a poisoned key
//! cannot re-run a failing pipeline in a loop.
//!
//! [`TimingSource::Journal`]: super::TimingSource::Journal

use super::{
    journal, stream_world, Pipeline, PipelineOptions, PipelineReport, StageError, StreamSpec,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use worldgen::{World, WorldConfig};

/// The full request surface of one pipeline run, as exposed on the CLI
/// and the wire: everything else (domain counts, `k_key_actors`) is
/// derived from these five knobs, in one place, so batch and service
/// runs can never drift apart.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunSpec {
    /// Corpus scale; `1.0` = paper scale.
    pub scale: f64,
    /// World seed.
    pub seed: u64,
    /// Worker threads for the data-parallel stages (`0` = all cores).
    /// Excluded from the run key — output is worker-independent.
    pub workers: usize,
    /// Transient-fault severity for the crawl stage.
    pub faults: f64,
    /// Input-corruption severity.
    pub corruption: f64,
    /// Feed epochs for streaming mode; `0` = classic batch run.
    pub epochs: u32,
    /// Epoch to report at in streaming mode; `0` = the final epoch.
    pub upto: u32,
    /// Supervised shard workers; `0` = the classic unsharded driver.
    /// Excluded from the run key — output is shard-count-independent,
    /// exactly like `workers`.
    pub shards: usize,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            scale: 0.3,
            seed: 0xE400_2019,
            workers: 4,
            faults: 0.0,
            corruption: 0.0,
            epochs: 0,
            upto: 0,
            shards: 0,
        }
    }
}

impl RunSpec {
    /// Rejects specs the pipeline cannot run: a `scale` that is not a
    /// finite number above 0, a `faults` or `corruption` severity that
    /// is not a finite number ≥ 0, an `upto` epoch without a streamed
    /// (`epochs > 0`) spec, sharding a streamed spec (the shard survey
    /// folds the world as generated), and more shards than a world has
    /// forums (each shard is one OS thread, and a shard past the last
    /// forum would survey nothing). The batch CLI and the wire decoder
    /// both call this, so neither hands the pipeline a spec it would
    /// refuse.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return Err(format!(
                "`scale` must be a finite number above 0, got {}",
                self.scale
            ));
        }
        for (name, severity) in [("faults", self.faults), ("corruption", self.corruption)] {
            if !(severity.is_finite() && severity >= 0.0) {
                return Err(format!(
                    "`{name}` must be a finite number at or above 0, got {severity}"
                ));
            }
        }
        if self.upto > 0 && self.epochs == 0 {
            return Err("`upto` requires `epochs` (`--upto` needs `--epochs K`)".to_string());
        }
        if self.shards > 0 && self.epochs > 0 {
            return Err(
                "`shards` is batch-only; it cannot be combined with `epochs` \
                 (`--shards` with `--epochs`)"
                    .to_string(),
            );
        }
        let forums = worldgen::FORUM_PROFILES.len();
        if self.shards > forums {
            return Err(format!(
                "`shards` must be at most {forums} (one per forum), got {}",
                self.shards
            ));
        }
        Ok(())
    }

    /// The world this spec measures. Domain and planted-image counts
    /// follow the batch CLI's long-standing scale formulas.
    pub fn world_config(&self) -> WorldConfig {
        WorldConfig {
            seed: self.seed,
            scale: self.scale,
            origin_domains: ((5_917.0 * self.scale.sqrt()) as u32).max(200),
            csam_images: ((36.0 * self.scale).round() as u32).max(4),
            with_side_boards: true,
        }
    }

    /// The pipeline options this spec runs with. `k_key_actors` scales
    /// with the corpus exactly as the batch CLI always has.
    pub fn options(&self) -> PipelineOptions {
        PipelineOptions {
            k_key_actors: ((50.0 * self.scale).round() as usize).clamp(8, 50),
            workers: self.workers,
            fault_severity: self.faults,
            corruption_severity: self.corruption,
            stream: (self.epochs > 0).then(|| StreamSpec {
                epochs: self.epochs,
                upto: self.effective_upto(),
            }),
            shards: self.shards,
            ..PipelineOptions::default()
        }
    }

    /// The epoch actually reported at: `upto` clamped into `1..=epochs`,
    /// with `0` meaning the final epoch. `0` for batch specs.
    pub fn effective_upto(&self) -> u32 {
        if self.epochs == 0 {
            0
        } else if self.upto == 0 {
            self.epochs
        } else {
            self.upto.min(self.epochs)
        }
    }

    /// The journal run key for this spec (worker-independent).
    pub fn run_key(&self) -> Result<String, StageError> {
        journal::run_key(&self.world_config(), &self.options())
    }
}

/// Renders the determinism snapshot of a report: the full
/// [`PipelineReport`] minus wall-clock timings, pretty-printed. Two
/// runs of the same [`RunSpec`] — batch or wire, journaled or fresh,
/// any worker count — produce byte-identical snapshots; this is the
/// payload the `report` wire command serves and `--snapshot-json`
/// writes.
pub fn snapshot_json(report: &PipelineReport) -> Result<String, StageError> {
    let mut value = serde_json::to_value(report).map_err(|e| StageError::CorruptArtifact {
        path: "snapshot".to_string(),
        reason: format!("report does not serialize: {e}"),
    })?;
    if let Some(obj) = value.as_object_mut() {
        obj.remove("timings");
        // Supervision counters are scheduling bookkeeping, like
        // timings: a sharded run's snapshot must equal the unsharded
        // run's byte-for-byte.
        obj.remove("supervision");
    }
    serde_json::to_string_pretty(&value).map_err(|e| StageError::CorruptArtifact {
        path: "snapshot".to_string(),
        reason: format!("snapshot does not render: {e}"),
    })
}

/// Where a run served by the cache sits in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// The key has never been requested from this cache.
    Unknown,
    /// A request claimed the key and its pipeline is still executing.
    Running,
    /// The run completed; its report is servable.
    Ready,
    /// The run failed; the error is cached.
    Failed,
}

impl RunStatus {
    /// Lower-case wire label.
    pub fn as_str(&self) -> &'static str {
        match self {
            RunStatus::Unknown => "unknown",
            RunStatus::Running => "running",
            RunStatus::Ready => "ready",
            RunStatus::Failed => "failed",
        }
    }
}

/// A cache answer: the finished report plus whether *this* call was the
/// one that computed it.
#[derive(Debug, Clone)]
pub struct CachedRun {
    /// The run key the report is filed under.
    pub run_key: String,
    /// The completed report, shared across all requesters of the key.
    pub report: Arc<PipelineReport>,
    /// `true` iff this call executed the pipeline (a cache miss);
    /// `false` for hits and single-flight waiters.
    pub fresh: bool,
}

/// One key's slot: settled exactly once, by exactly one computing call.
type Slot = Arc<OnceLock<Result<Arc<PipelineReport>, StageError>>>;

/// Run-key → completed-report cache with single-flight dedup, optionally
/// backed by the on-disk stage journal. See the module docs for the
/// layering.
pub struct RunCache {
    journal_root: Option<PathBuf>,
    slots: Mutex<HashMap<String, Slot>>,
    computed: AtomicUsize,
}

impl RunCache {
    /// A purely in-memory cache: results live for this process only.
    pub fn in_memory() -> RunCache {
        RunCache::new(None)
    }

    /// A cache whose compute path checkpoints into (and resumes from)
    /// the stage journal under `root` — results survive the process and
    /// are shared with batch runs pointed at the same directory.
    pub fn with_journal(root: impl Into<PathBuf>) -> RunCache {
        RunCache::new(Some(root.into()))
    }

    fn new(journal_root: Option<PathBuf>) -> RunCache {
        RunCache {
            journal_root,
            slots: Mutex::new(HashMap::new()),
            computed: AtomicUsize::new(0),
        }
    }

    /// How many pipeline executions this cache has started — the
    /// single-flight invariant is `computed_runs() == distinct keys
    /// computed`, no matter how many concurrent requests raced.
    pub fn computed_runs(&self) -> usize {
        self.computed.load(Ordering::SeqCst)
    }

    /// Lifecycle of `run_key` as seen by this cache.
    pub fn status(&self, run_key: &str) -> RunStatus {
        let slot = {
            let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
            slots.get(run_key).cloned()
        };
        match slot {
            None => RunStatus::Unknown,
            Some(slot) => match slot.get() {
                None => RunStatus::Running,
                Some(Ok(_)) => RunStatus::Ready,
                Some(Err(_)) => RunStatus::Failed,
            },
        }
    }

    /// The completed report for `run_key`, if one is ready.
    pub fn get(&self, run_key: &str) -> Option<Arc<PipelineReport>> {
        let slot = {
            let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
            slots.get(run_key).cloned()
        };
        slot.and_then(|s| s.get().and_then(|r| r.as_ref().ok().cloned()))
    }

    /// Returns the report for `spec`, computing it at most once per
    /// cache: concurrent calls for the same key block on the slot while
    /// a single winner generates the world and runs the pipeline
    /// (journal-resumable when the cache has a journal root). Exactly
    /// one returned [`CachedRun`] per computation has `fresh == true`.
    pub fn get_or_compute(&self, spec: &RunSpec) -> Result<CachedRun, StageError> {
        let run_key = spec.run_key()?;
        let slot = {
            let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
            slots.entry(run_key.clone()).or_default().clone()
        };
        let mut fresh = false;
        let outcome = slot.get_or_init(|| {
            fresh = true;
            self.computed.fetch_add(1, Ordering::SeqCst);
            self.compute(spec)
        });
        match outcome {
            Ok(report) => Ok(CachedRun {
                run_key,
                report: Arc::clone(report),
                fresh,
            }),
            Err(e) => Err(e.clone()),
        }
    }

    /// The compute path behind a cache miss: a streamed spec runs over
    /// its feed-normalized world ([`stream_world`]), then every spec
    /// goes through the one fallible stage loop — journal-resumable
    /// when the cache has a journal root. Incremental serving is the
    /// epoch engine's job (the serve layer's `advance`).
    fn compute(&self, spec: &RunSpec) -> Result<Arc<PipelineReport>, StageError> {
        let options = spec.options();
        let mut world = World::generate(spec.world_config());
        if let Some(stream) = options.stream {
            world = stream_world(world, stream);
        }
        let pipeline = Pipeline::new(options);
        let report = match &self.journal_root {
            Some(root) => pipeline.run_resumable(&world, root)?,
            None => pipeline.run_prefix(&world, usize::MAX)?.into_report()?,
        };
        Ok(Arc::new(report))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> RunSpec {
        RunSpec {
            scale: 0.01,
            seed,
            workers: 1,
            faults: 0.0,
            corruption: 0.0,
            epochs: 0,
            upto: 0,
            shards: 0,
        }
    }

    #[test]
    fn run_key_ignores_workers_but_not_the_other_knobs() {
        let base = tiny(1).run_key().unwrap();
        assert_eq!(
            base,
            RunSpec {
                workers: 7,
                ..tiny(1)
            }
            .run_key()
            .unwrap()
        );
        // Shard count is execution topology, not a different run.
        assert_eq!(
            base,
            RunSpec {
                shards: 5,
                ..tiny(1)
            }
            .run_key()
            .unwrap()
        );
        assert_ne!(base, tiny(2).run_key().unwrap());
        assert_ne!(
            base,
            RunSpec {
                faults: 1.0,
                ..tiny(1)
            }
            .run_key()
            .unwrap()
        );
        assert_ne!(
            base,
            RunSpec {
                corruption: 1.0,
                ..tiny(1)
            }
            .run_key()
            .unwrap()
        );
        assert_ne!(
            base,
            RunSpec {
                scale: 0.02,
                ..tiny(1)
            }
            .run_key()
            .unwrap()
        );
        // Epoch slicing changes the run key (a stream run is not the
        // batch run), and the full-stream key is upto-normalized:
        // `upto: 0` and `upto: epochs` name the same run.
        let streamed = RunSpec {
            epochs: 4,
            ..tiny(1)
        };
        assert_ne!(base, streamed.run_key().unwrap());
        assert_eq!(
            streamed.run_key().unwrap(),
            RunSpec {
                upto: 4,
                ..streamed
            }
            .run_key()
            .unwrap()
        );
        assert_ne!(
            streamed.run_key().unwrap(),
            RunSpec {
                upto: 2,
                ..streamed
            }
            .run_key()
            .unwrap()
        );
    }

    #[test]
    fn status_walks_unknown_to_ready() {
        let cache = RunCache::in_memory();
        let spec = tiny(0xCAFE);
        let key = spec.run_key().unwrap();
        assert_eq!(cache.status(&key), RunStatus::Unknown);
        assert!(cache.get(&key).is_none());
        let run = cache.get_or_compute(&spec).unwrap();
        assert!(run.fresh);
        assert_eq!(cache.status(&key), RunStatus::Ready);
        assert!(cache.get(&key).is_some());
        // Second lookup: same Arc, no recompute.
        let again = cache.get_or_compute(&spec).unwrap();
        assert!(!again.fresh);
        assert_eq!(cache.computed_runs(), 1);
        assert!(Arc::ptr_eq(&run.report, &again.report));
    }
}
