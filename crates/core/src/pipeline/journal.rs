//! The stage-checkpoint journal behind [`Pipeline::run_resumable`].
//! Every run form journals through it — batch, sharded and streamed
//! alike.
//!
//! After each stage completes, its typed artifacts (already `serde`)
//! are serialized into one file per stage under a run directory keyed
//! by a hash of the world config plus [`PipelineOptions`] — so journals
//! from a different seed, scale, or severity can never be resumed by
//! accident. Each record carries a checksum over its exact payload
//! bytes and is verified on load: a stale, truncated, or tampered
//! record is *rejected* (and the stage recomputed), never silently
//! reused.
//!
//! Two deliberate non-goals keep the format small:
//!
//! * `workers` is excluded from the run key — the determinism contract
//!   (see `tests/determinism.rs`) makes every artifact byte-identical
//!   across worker counts, so a journal written at `workers = 1` is
//!   valid for a resume at `workers = 7` and vice versa.
//! * the RNG state is not journaled: the TOP-classifier stage is the
//!   only consumer of `StageCtx::rng` and no stage after it draws, so a
//!   resume either re-runs it from the fresh seed (identical stream) or
//!   loads its artifacts and never touches the RNG again.
//!
//! The safety gate is the one artifact that is not `Serialize` (it
//! holds a live report log behind a mutex). Its journal record stores
//! the logged [`ReportedItem`]s; restore reconstructs the gate from the
//! world's hash list and replays the log, which is observationally
//! identical — screening depends only on the hash list.
//!
//! [`Pipeline::run_resumable`]: super::Pipeline::run_resumable
//! [`PipelineOptions`]: super::PipelineOptions

use super::corruption::QuarantineEntry;
use super::ctx::{carry_mut, require};
use super::{PipelineOptions, StageCtx, StageError, StageHealth};
use safety::{ReportedItem, SafetyGate};
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::{Path, PathBuf};
use worldgen::WorldConfig;

/// Journal format version; bumped on any incompatible layout change so
/// old run directories are recomputed instead of misread. Version 2:
/// every run computes through the carry fold, which orders proof
/// records by post id and fills `topcls.stream_index`, and the finance
/// carry holds its funnel as one `EarningsHarvest`. Version 3: Table 7
/// (`currency`) is assembled by `actors`, not `finance`, and the finance
/// carry keeps its quarantined proofs instead of the Table 7 tallies.
/// Version 4: sharded and streamed runs journal too; a sharded run's
/// `extract` record also holds the `actors` carry its survey pre-folded,
/// and `topcls` no longer carries a text-index summary.
const FORMAT: u32 = 4;

/// FNV-1a 64-bit over `bytes` — stable, dependency-free content hash
/// for run keys and record checksums.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn corrupt(path: impl Into<String>, reason: impl Into<String>) -> StageError {
    StageError::CorruptArtifact {
        path: path.into(),
        reason: reason.into(),
    }
}

/// The run key for `(config, options)`: a hash of both, rendered as 16
/// hex digits. `workers` is stripped first (artifacts are
/// worker-independent by the determinism contract).
pub fn run_key(config: &WorldConfig, options: &PipelineOptions) -> Result<String, StageError> {
    let config_json = serde_json::to_string(config)
        .map_err(|e| corrupt("run-key", format!("world config does not serialize: {e}")))?;
    let mut opts = serde_json::to_value(options)
        .map_err(|e| corrupt("run-key", format!("options do not serialize: {e}")))?;
    if let Some(map) = opts.as_object_mut() {
        map.remove("workers");
        // Shard count is execution topology, like `workers`: the
        // supervised driver produces the same artifacts at every shard
        // count, so it must not fork the run key either.
        map.remove("shards");
        // A batch run (`stream: None`) must keep the pre-stream run key,
        // so journals written before the epoch pipeline stay resumable.
        if map.get("stream") == Some(&serde::Value::Null) {
            map.remove("stream");
        }
        // Likewise an unpoisoned run keeps the pre-shard run key.
        if map.get("poison") == Some(&serde::Value::Null) {
            map.remove("poison");
        }
    }
    let opts_json = serde::render(&opts);
    Ok(format!(
        "{:016x}",
        fnv64(format!("{config_json}|{opts_json}").as_bytes())
    ))
}

/// What one stage checkpoint holds: the stage's artifact slots (as one
/// JSON object keyed by slot name), plus everything else the stage
/// contributed to the run — its quarantine entries, health events, and
/// item count — so a resumed run replays them exactly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageRecord {
    /// Slot name → serialized artifact.
    pub artifacts: serde::Value,
    /// Ledger entries this stage recorded.
    pub quarantined: Vec<QuarantineEntry>,
    /// Health events this stage triggered.
    pub health: Vec<StageHealth>,
    /// The stage's `StageTiming::items` count.
    pub items: usize,
}

/// On-disk envelope around a [`StageRecord`]. The payload is embedded
/// as a JSON *string* so the checksum verifies the exact bytes that
/// will be re-parsed — no canonicalization step to disagree over.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Envelope {
    format: u32,
    run_key: String,
    index: usize,
    stage: String,
    checksum: String,
    payload: String,
}

/// Result of trying to load one stage checkpoint.
#[derive(Debug)]
pub enum LoadOutcome {
    /// A verified record for this exact run and stage.
    Hit(StageRecord),
    /// No record on disk (fresh run, or the run was killed earlier).
    Miss,
    /// A record exists but failed validation; the caller must recompute
    /// the stage (and will overwrite the bad record).
    Rejected(String),
}

/// A run-scoped checkpoint journal: one directory per run key, one
/// verified JSON record per completed stage.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    run_key: String,
}

impl Journal {
    /// Opens (creating if needed) the run directory for `(config,
    /// options)` under `journal_dir`.
    pub fn open(
        journal_dir: &Path,
        config: &WorldConfig,
        options: &PipelineOptions,
    ) -> Result<Journal, StageError> {
        let key = run_key(config, options)?;
        let dir = journal_dir.join(format!("run-{key}"));
        fs::create_dir_all(&dir)
            .map_err(|e| StageError::io(format!("creating journal dir {}", dir.display()), e))?;
        Ok(Journal { dir, run_key: key })
    }

    /// The run key this journal is scoped to.
    pub fn run_key(&self) -> &str {
        &self.run_key
    }

    /// The run directory holding the stage records.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file(&self, index: usize, stage: &str) -> PathBuf {
        self.dir.join(format!("{index:02}-{stage}.json"))
    }

    /// Deletes every stage record in the run directory (`--journal-dir`
    /// without `--resume`: start the run clean).
    pub fn clear(&self) -> Result<(), StageError> {
        let entries = fs::read_dir(&self.dir)
            .map_err(|e| StageError::io(format!("listing {}", self.dir.display()), e))?;
        for entry in entries {
            let entry =
                entry.map_err(|e| StageError::io(format!("listing {}", self.dir.display()), e))?;
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "json") {
                fs::remove_file(&path)
                    .map_err(|e| StageError::io(format!("removing {}", path.display()), e))?;
            }
        }
        Ok(())
    }

    /// Atomically writes the checkpoint for stage `index`: the record
    /// is rendered, checksummed, written to a temp file, and renamed
    /// into place — a kill mid-save leaves either the old record or
    /// none, never a torn one.
    pub fn save(&self, index: usize, stage: &str, record: &StageRecord) -> Result<(), StageError> {
        let payload = serde_json::to_string(record)
            .map_err(|e| corrupt(stage, format!("stage record does not serialize: {e}")))?;
        let envelope = Envelope {
            format: FORMAT,
            run_key: self.run_key.clone(),
            index,
            stage: stage.to_string(),
            checksum: format!("{:016x}", fnv64(payload.as_bytes())),
            payload,
        };
        let rendered = serde_json::to_string(&envelope)
            .map_err(|e| corrupt(stage, format!("envelope does not serialize: {e}")))?;
        let path = self.file(index, stage);
        let tmp = self.dir.join(format!(".tmp-{index:02}-{stage}"));
        fs::write(&tmp, rendered)
            .map_err(|e| StageError::io(format!("writing {}", tmp.display()), e))?;
        fs::rename(&tmp, &path)
            .map_err(|e| StageError::io(format!("renaming into {}", path.display()), e))?;
        Ok(())
    }

    /// Loads and verifies the checkpoint for stage `index`. Every
    /// validation failure is a [`LoadOutcome::Rejected`] — the caller
    /// recomputes; nothing invalid is ever returned as a hit.
    pub fn load(&self, index: usize, stage: &str) -> LoadOutcome {
        let path = self.file(index, stage);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return LoadOutcome::Miss,
            Err(e) => return LoadOutcome::Rejected(format!("unreadable: {e}")),
        };
        let envelope: Envelope = match serde_json::from_str(&text) {
            Ok(env) => env,
            Err(e) => return LoadOutcome::Rejected(format!("unparseable envelope: {e}")),
        };
        if envelope.format != FORMAT {
            return LoadOutcome::Rejected(format!(
                "format {} != expected {FORMAT}",
                envelope.format
            ));
        }
        if envelope.run_key != self.run_key {
            return LoadOutcome::Rejected(format!(
                "run key {} != expected {} (stale journal)",
                envelope.run_key, self.run_key
            ));
        }
        if envelope.index != index || envelope.stage != stage {
            return LoadOutcome::Rejected(format!(
                "record is {:02}-{}, expected {index:02}-{stage}",
                envelope.index, envelope.stage
            ));
        }
        let checksum = format!("{:016x}", fnv64(envelope.payload.as_bytes()));
        if checksum != envelope.checksum {
            return LoadOutcome::Rejected(format!(
                "checksum {checksum} != recorded {}",
                envelope.checksum
            ));
        }
        match serde_json::from_str::<StageRecord>(&envelope.payload) {
            Ok(record) => LoadOutcome::Hit(record),
            Err(e) => LoadOutcome::Rejected(format!("unparseable payload: {e}")),
        }
    }

    /// Loads stage `index`'s record into `ctx`: its artifacts, then its
    /// ledger entries and health events. Returns the record's item
    /// count, or `None` when the stage must be recomputed: no record,
    /// a rejected one, or one whose artifacts do not map onto the
    /// artifact types (as corrupt as a bad checksum).
    pub(super) fn restore(
        &self,
        index: usize,
        stage: &str,
        ctx: &mut StageCtx<'_>,
    ) -> Option<usize> {
        let LoadOutcome::Hit(record) = self.load(index, stage) else {
            return None;
        };
        restore_stage(stage, ctx, &record.artifacts).ok()?;
        for entry in record.quarantined {
            ctx.ledger.push(entry);
        }
        ctx.health.extend(record.health);
        Some(record.items)
    }

    /// Checkpoints stage `index`, just computed into `ctx`: its
    /// artifacts, the ledger entries from `ledger_from` and the health
    /// events from `health_from` on, and its item count.
    pub(super) fn checkpoint(
        &self,
        index: usize,
        stage: &str,
        ctx: &StageCtx<'_>,
        ledger_from: usize,
        health_from: usize,
    ) -> Result<(), StageError> {
        let record = StageRecord {
            artifacts: capture_stage(stage, ctx)?,
            quarantined: ctx.ledger.entries()[ledger_from..].to_vec(),
            health: ctx.health[health_from..].to_vec(),
            items: ctx.timings.last().map_or(0, |t| t.items),
        };
        self.save(index, stage, &record)
    }
}

// ---------------------------------------------------- stage codecs

fn put<T: Serialize>(
    map: &mut serde::Map,
    name: &'static str,
    slot: &Option<T>,
) -> Result<(), StageError> {
    let value = require(slot, name)?;
    map.insert(
        name,
        serde_json::to_value(value).map_err(|e| corrupt(name, format!("{e}")))?,
    );
    Ok(())
}

fn get<T: for<'any> Deserialize<'any>>(map: &serde::Map, name: &str) -> Result<T, StageError> {
    let value = map
        .get(name)
        .ok_or_else(|| corrupt(name, "slot missing from journal record"))?;
    serde_json::from_value(value.clone()).map_err(|e| corrupt(name, format!("{e}")))
}

fn as_map(artifacts: &serde::Value) -> Result<&serde::Map, StageError> {
    artifacts
        .as_object()
        .ok_or_else(|| corrupt("artifacts", "journal record is not an object"))
}

/// Maps stage names to the `StageCtx` slots they own. Used by both the
/// capture and restore paths so they can never drift apart; `safety` is
/// handled separately (its gate needs reconstruction, not
/// deserialization).
macro_rules! stage_slots {
    ($on_stage:ident, $name:expr) => {
        match $name {
            "extract" => $on_stage!(extraction, all_threads),
            "top_classifier" => $on_stage!(topcls, forums),
            "crawl" => $on_stage!(crawl, crawl_stats),
            "measure_images" => $on_stage!(measures),
            "nsfv" => $on_stage!(nsfv_validation, previews_nsfv, funnel),
            "provenance" => $on_stage!(provenance),
            "finance" => $on_stage!(harvest, earnings),
            "actors" => $on_stage!(
                cohorts,
                fig4_points,
                key_actors,
                group_profiles,
                interests,
                currency
            ),
            other => {
                return Err(corrupt(
                    other,
                    "stage has no journal codec (graph/journal drift)",
                ))
            }
        }
    };
}

/// The `extract` record's slot for a sharded survey's `actors` carry.
const ACTORS_CARRY: &str = "actors_carry";

/// Serializes the named stage's artifact slots out of `ctx` into one
/// JSON object, ready for a [`StageRecord`]. A sharded `extract` record
/// also holds the `actors` carry its survey pre-folded.
pub fn capture_stage(name: &str, ctx: &StageCtx<'_>) -> Result<serde::Value, StageError> {
    let mut map = serde::Map::new();
    if name == "safety" {
        put(&mut map, "flagged", &ctx.flagged)?;
        put(&mut map, "safety", &ctx.safety)?;
        put(&mut map, "kept", &ctx.kept)?;
        let gate = require(&ctx.gate, "gate")?;
        let log: Vec<ReportedItem> = gate.log().items();
        map.insert(
            "gate_log",
            serde_json::to_value(&log).map_err(|e| corrupt("gate_log", format!("{e}")))?,
        );
        return Ok(serde::Value::Object(map));
    }
    macro_rules! capture {
        ($($slot:ident),+) => {{ $(put(&mut map, stringify!($slot), &ctx.$slot)?;)+ }};
    }
    stage_slots!(capture, name);
    if name == "extract" && ctx.options.shards > 0 {
        // The shard survey pre-folds the `actors` carry — without a
        // quarantined shard's forums, when one is lost — so a resumed
        // run must not fold those posts back in.
        let carry = require(&ctx.carry, "carry")?;
        map.insert(
            ACTORS_CARRY,
            serde_json::to_value(&carry.actors)
                .map_err(|e| corrupt(ACTORS_CARRY, format!("{e}")))?,
        );
    }
    Ok(serde::Value::Object(map))
}

/// Restores the named stage's artifact slots into `ctx` from a
/// journaled record. Inverse of [`capture_stage`].
pub fn restore_stage(
    name: &str,
    ctx: &mut StageCtx<'_>,
    artifacts: &serde::Value,
) -> Result<(), StageError> {
    let map = as_map(artifacts)?;
    if name == "safety" {
        ctx.flagged = Some(get(map, "flagged")?);
        ctx.safety = Some(get(map, "safety")?);
        ctx.kept = Some(get(map, "kept")?);
        // The gate is rebuilt from the world's hash list (screening
        // depends only on the list) and the report log replayed, so
        // finance's proof screening sees the identical gate state.
        let log: Vec<ReportedItem> = get(map, "gate_log")?;
        let gate = SafetyGate::new(ctx.world.hashlist.clone());
        for item in log {
            gate.log().record(item);
        }
        ctx.gate = Some(gate);
        return Ok(());
    }
    macro_rules! restore {
        ($($slot:ident),+) => {{ $(ctx.$slot = Some(get(map, stringify!($slot))?);)+ }};
    }
    stage_slots!(restore, name);
    if map.get(ACTORS_CARRY).is_some() {
        carry_mut(&mut ctx.carry)?.actors = get(map, ACTORS_CARRY)?;
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn options(seed: u64) -> PipelineOptions {
        PipelineOptions {
            seed,
            ..PipelineOptions::default()
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ewhoring-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn record() -> StageRecord {
        let mut map = serde::Map::new();
        map.insert("x", serde::Value::Str("artifact".into()));
        StageRecord {
            artifacts: serde::Value::Object(map),
            quarantined: Vec::new(),
            health: Vec::new(),
            items: 7,
        }
    }

    #[test]
    fn run_key_ignores_workers_but_not_seed_or_severity() {
        let config = WorldConfig::test_scale(1);
        let base = run_key(&config, &options(1)).unwrap();
        let w7 = run_key(
            &config,
            &PipelineOptions {
                workers: 7,
                ..options(1)
            },
        )
        .unwrap();
        assert_eq!(base, w7, "worker count must not invalidate a journal");
        assert_ne!(base, run_key(&config, &options(2)).unwrap());
        let corrupted = PipelineOptions {
            corruption_severity: 1.0,
            ..options(1)
        };
        assert_ne!(base, run_key(&config, &corrupted).unwrap());
        assert_ne!(
            base,
            run_key(&WorldConfig::test_scale(2), &options(1)).unwrap(),
            "a different world must not share a run dir"
        );
    }

    #[test]
    fn save_load_round_trip_is_a_hit() {
        let dir = tmp_dir("roundtrip");
        let journal = Journal::open(&dir, &WorldConfig::test_scale(3), &options(3)).unwrap();
        journal.save(0, "extract", &record()).unwrap();
        match journal.load(0, "extract") {
            LoadOutcome::Hit(rec) => {
                assert_eq!(rec.items, 7);
                assert_eq!(
                    rec.artifacts.as_object().unwrap().get("x"),
                    Some(&serde::Value::Str("artifact".into()))
                );
            }
            other => panic!("expected Hit, got {other:?}"),
        }
        assert!(matches!(
            journal.load(1, "top_classifier"),
            LoadOutcome::Miss
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_payload_is_rejected_not_reused() {
        let dir = tmp_dir("tamper");
        let journal = Journal::open(&dir, &WorldConfig::test_scale(4), &options(4)).unwrap();
        journal.save(2, "crawl", &record()).unwrap();
        let path = journal.dir().join("02-crawl.json");
        let tampered = fs::read_to_string(&path)
            .unwrap()
            .replace("artifact", "artifice");
        fs::write(&path, tampered).unwrap();
        assert!(matches!(journal.load(2, "crawl"), LoadOutcome::Rejected(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_of_another_format_is_rejected() {
        let dir = tmp_dir("format");
        let journal = Journal::open(&dir, &WorldConfig::test_scale(8), &options(8)).unwrap();
        journal.save(7, "finance", &record()).unwrap();
        let path = journal.dir().join("07-finance.json");
        let mut envelope: Envelope =
            serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
        envelope.format = FORMAT - 1;
        fs::write(&path, serde_json::to_string(&envelope).unwrap()).unwrap();
        match journal.load(7, "finance") {
            LoadOutcome::Rejected(reason) => assert!(reason.contains("format"), "{reason}"),
            other => panic!("expected Rejected, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_run_key_is_rejected() {
        let dir = tmp_dir("stale");
        let config = WorldConfig::test_scale(5);
        let old = Journal::open(&dir, &config, &options(5)).unwrap();
        old.save(0, "extract", &record()).unwrap();
        // A journal for different options lives in a different run dir;
        // force the mismatch by copying the record across.
        let new = Journal::open(&dir, &config, &options(6)).unwrap();
        fs::copy(
            old.dir().join("00-extract.json"),
            new.dir().join("00-extract.json"),
        )
        .unwrap();
        match new.load(0, "extract") {
            LoadOutcome::Rejected(reason) => assert!(reason.contains("stale"), "{reason}"),
            other => panic!("expected Rejected, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_empties_the_run_dir() {
        let dir = tmp_dir("clear");
        let journal = Journal::open(&dir, &WorldConfig::test_scale(7), &options(7)).unwrap();
        journal.save(0, "extract", &record()).unwrap();
        journal.clear().unwrap();
        assert!(matches!(journal.load(0, "extract"), LoadOutcome::Miss));
        let _ = fs::remove_dir_all(&dir);
    }
}
