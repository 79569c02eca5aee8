//! The stage-checkpoint journal: the one durable record of every run
//! form — batch, sharded, streamed, and each epoch the
//! [`EpochEngine`] advances.
//!
//! After each stage completes, its record is written to one file per
//! stage under a run directory keyed by a hash of the world config plus
//! [`PipelineOptions`] — so journals from a different seed, scale, or
//! severity can never be resumed by accident. A record holds the
//! stage's artifact slots and the carry field the stage folds (the
//! `stage_slots` table; a batch run, which drops its carry, stores only
//! the carry its own resume needs), plus its ledger entries, health
//! events and item count. Each record carries a checksum over its exact payload
//! bytes and is verified on load: a stale, truncated, or tampered
//! record is *rejected* (and the stage recomputed), never silently
//! reused.
//!
//! Three deliberate non-goals keep the format small:
//!
//! * `workers` is excluded from the run key — the determinism contract
//!   (see `tests/determinism.rs`) makes every artifact byte-identical
//!   across worker counts, so a journal written at `workers = 1` is
//!   valid for a resume at `workers = 7` and vice versa.
//! * the RNG state is not journaled: the TOP-classifier stage is the
//!   only consumer of `StageCtx::rng` and no stage after it draws, so a
//!   resume either re-runs it from the fresh seed (identical stream) or
//!   loads its artifacts and never touches the RNG again.
//! * each fact is stored once. `measure_images` stores its carry memo
//!   (one entry per unique `(spec, transform)` pair) and restore looks
//!   every crawled image up in it; `safety` stores the flagged refs and
//!   restore re-applies them to the measures (`kept`). The safety gate
//!   holds a live report log behind a mutex, so the record stores the
//!   logged [`ReportedItem`]s and restore rebuilds the gate from the
//!   world's hash list and replays them, which is observationally
//!   identical — screening depends only on the hash list.
//!
//! [`EpochEngine`]: super::EpochEngine
//! [`PipelineOptions`]: super::PipelineOptions

use super::corruption::QuarantineEntry;
use super::ctx::{carry_mut, require};
use super::stages::measure::measures_from_memo;
use super::{apply_deletions, PipelineOptions, StageCtx, StageError, StageHealth};
use safety::{ReportedItem, SafetyGate};
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
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
/// and `topcls` no longer carries a text-index summary. Version 5: every
/// record holds the carry field its stage folds, `measure_images` stores
/// its memo instead of per-image measures, and `safety` drops `kept`.
const FORMAT: u32 = 5;

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

/// What one stage checkpoint holds: the stage's artifact slots and its
/// carry field (as one JSON object keyed by slot name, the carry under
/// [`CARRY`]), plus everything else the stage contributed to the run —
/// its quarantine entries, health events, and item count — so a
/// resumed run replays them exactly.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StageRecord {
    artifacts: serde::Value,
    quarantined: Vec<QuarantineEntry>,
    health: Vec<StageHealth>,
    items: usize,
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

/// Temp-file counter: with the process id it gives every save its own
/// temp file, so concurrent writers of one record never share one.
static SAVES: AtomicU64 = AtomicU64::new(0);

/// A run-scoped checkpoint journal: one directory per run key, one
/// verified JSON record per completed stage.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    run_key: String,
}

impl Journal {
    /// The journal of `(config, options)` under `journal_dir`. Its run
    /// directory is created by the first checkpoint, so opening a
    /// journal only to look at it writes nothing.
    pub fn open(
        journal_dir: &Path,
        config: &WorldConfig,
        options: &PipelineOptions,
    ) -> Result<Journal, StageError> {
        let key = run_key(config, options)?;
        let dir = journal_dir.join(format!("run-{key}"));
        Ok(Journal { dir, run_key: key })
    }

    fn file(&self, index: usize, stage: &str) -> PathBuf {
        self.dir.join(format!("{index:02}-{stage}.json"))
    }

    /// Whether the record of the graph's last stage is on disk: the run
    /// got to its end once. (The record is verified when it is loaded.)
    pub(super) fn reached_the_end(&self) -> bool {
        let stages = super::Pipeline::stages();
        let last = stages.len() - 1;
        self.file(last, stages[last].name()).is_file()
    }

    /// Deletes every stage record in the run directory (`--journal-dir`
    /// without `--resume`: start the run clean), and every temp file a
    /// writer killed mid-save left behind.
    pub fn clear(&self) -> Result<(), StageError> {
        let entries = match fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(StageError::io(format!("listing {}", self.dir.display()), e)),
        };
        for entry in entries {
            let entry =
                entry.map_err(|e| StageError::io(format!("listing {}", self.dir.display()), e))?;
            let path = entry.path();
            let temp = entry.file_name().to_string_lossy().starts_with(".tmp-");
            if temp || path.extension().is_some_and(|e| e == "json") {
                fs::remove_file(&path)
                    .map_err(|e| StageError::io(format!("removing {}", path.display()), e))?;
            }
        }
        Ok(())
    }

    /// Atomically writes the checkpoint for stage `index`: the record
    /// is rendered, checksummed, written to a temp file of this writer's
    /// own, and renamed into place — a kill mid-save leaves either the
    /// old record or none, never a torn one, and concurrent writers of
    /// one record (a batch run and a server on one journal, or a `run`
    /// and an `advance` of the same epoch) each rename a whole file.
    fn save(&self, index: usize, stage: &str, record: StageRecord) -> Result<(), StageError> {
        // Rendered from a tree the artifacts are moved into, not copied
        // into: they are the bulk of a record.
        let mut map = serde::Map::new();
        map.insert("artifacts", record.artifacts);
        map.insert("quarantined", encode(stage, &record.quarantined)?);
        map.insert("health", encode(stage, &record.health)?);
        map.insert("items", encode(stage, &record.items)?);
        let payload = serde::render(&serde::Value::Object(map));
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
        fs::create_dir_all(&self.dir).map_err(|e| {
            StageError::io(format!("creating journal dir {}", self.dir.display()), e)
        })?;
        let path = self.file(index, stage);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}-{index:02}-{stage}",
            std::process::id(),
            SAVES.fetch_add(1, Ordering::Relaxed)
        ));
        let written = fs::write(&tmp, rendered)
            .and_then(|()| fs::rename(&tmp, &path))
            .map_err(|e| StageError::io(format!("saving {}", path.display()), e));
        if written.is_err() {
            // Nothing else would ever overwrite this writer's temp file.
            let _ = fs::remove_file(&tmp);
        }
        written
    }

    /// Loads and verifies the checkpoint for stage `index`: `Ok(None)`
    /// when there is no record (a fresh run, or one killed earlier), and
    /// the reason as an `Err` when a record fails validation — the
    /// caller recomputes and overwrites it; nothing invalid is ever
    /// returned as a hit.
    fn load(&self, index: usize, stage: &str) -> Result<Option<StageRecord>, String> {
        let text = match fs::read_to_string(self.file(index, stage)) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("unreadable: {e}")),
        };
        let envelope: Envelope =
            serde_json::from_str(&text).map_err(|e| format!("unparseable envelope: {e}"))?;
        if envelope.format != FORMAT {
            return Err(format!("format {} != expected {FORMAT}", envelope.format));
        }
        if envelope.run_key != self.run_key {
            return Err(format!(
                "run key {} != expected {} (stale journal)",
                envelope.run_key, self.run_key
            ));
        }
        if envelope.index != index || envelope.stage != stage {
            return Err(format!(
                "record is {:02}-{}, expected {index:02}-{stage}",
                envelope.index, envelope.stage
            ));
        }
        let checksum = format!("{:016x}", fnv64(envelope.payload.as_bytes()));
        if checksum != envelope.checksum {
            return Err(format!(
                "checksum {checksum} != recorded {}",
                envelope.checksum
            ));
        }
        serde_json::from_str(&envelope.payload)
            .map(Some)
            .map_err(|e| format!("unparseable payload: {e}"))
    }

    /// Loads stage `index`'s record into `ctx`: its slots and carry
    /// field, then its ledger entries and health events. Returns the
    /// record's item count, or `None` when the stage must be recomputed:
    /// no record, a rejected one, or one whose entries do not all decode
    /// (as corrupt as a bad checksum) — and then `ctx` is untouched.
    pub(super) fn restore(
        &self,
        index: usize,
        stage: &str,
        ctx: &mut StageCtx<'_>,
    ) -> Option<usize> {
        let Ok(Some(record)) = self.load(index, stage) else {
            return None;
        };
        restore_stage(stage, ctx, &record.artifacts).ok()?;
        for entry in record.quarantined {
            ctx.ledger.push(entry);
        }
        ctx.health.extend(record.health);
        Some(record.items)
    }

    /// Checkpoints stage `index`, just computed into `ctx`: its slots
    /// and carry field, the ledger entries from `ledger_from` and the
    /// health events from `health_from` on, and its item count.
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
        self.save(index, stage, record)
    }
}

// ---------------------------------------------------- stage codecs

/// The record entry holding the carry field a stage folds.
const CARRY: &str = "carry";

fn encode<T: Serialize>(name: &str, value: &T) -> Result<serde::Value, StageError> {
    serde_json::to_value(value).map_err(|e| corrupt(name, format!("{e}")))
}

fn decode<T: for<'any> Deserialize<'any>>(map: &serde::Map, name: &str) -> Result<T, StageError> {
    let value = map
        .get(name)
        .ok_or_else(|| corrupt(name, "slot missing from journal record"))?;
    serde_json::from_value(value.clone()).map_err(|e| corrupt(name, format!("{e}")))
}

/// Maps each stage to the `StageCtx` slots its record stores and the
/// carry field it folds, so capture and restore can never drift apart.
/// `extract` folds `actors` only when its survey is sharded (§6j):
/// without a quarantined shard's forums, so a resumed run must not fold
/// their posts back in. The other carry fields are read by no later
/// stage, only by the next epoch or the caller, so a record stores them
/// only if the run's carry outlives it ([`carry_outlives_run`]); the
/// `measure_images` memo is always stored, since restore derives the
/// measures from it. `measure_images` and `safety` store less than they
/// produce; [`restore_stage`] derives the rest.
macro_rules! stage_slots {
    ($on_stage:ident, $name:expr, $ctx:ident) => {
        match $name {
            "extract" => $on_stage!(
                $ctx,
                [extraction, all_threads],
                actors if $ctx.options.shards > 0
            ),
            "top_classifier" => $on_stage!(
                $ctx,
                [topcls, forums],
                topcls if carry_outlives_run($ctx)
            ),
            "crawl" => $on_stage!($ctx, [crawl, crawl_stats]),
            "measure_images" => $on_stage!($ctx, [], measure),
            "safety" => $on_stage!($ctx, [flagged, safety]),
            "nsfv" => $on_stage!(
                $ctx,
                [nsfv_validation, previews_nsfv, funnel],
                nsfv if carry_outlives_run($ctx)
            ),
            "provenance" => $on_stage!(
                $ctx,
                [provenance],
                provenance if carry_outlives_run($ctx)
            ),
            "finance" => $on_stage!(
                $ctx,
                [harvest, earnings],
                finance if carry_outlives_run($ctx)
            ),
            "actors" => $on_stage!(
                $ctx,
                [cohorts, fig4_points, key_actors, group_profiles, interests, currency],
                actors if carry_outlives_run($ctx)
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

/// Whether a later epoch or the caller reads the run's carry: a
/// streamed run's records seed the next epoch, and
/// [`super::Pipeline::run_with_carry`] hands the carry back. A batch
/// run drops it.
fn carry_outlives_run(ctx: &StageCtx<'_>) -> bool {
    ctx.options.stream.is_some() || ctx.keeps_carry
}

/// Serializes the named stage's slots and carry field out of `ctx` into
/// one JSON object, ready for a [`StageRecord`].
fn capture_stage(name: &str, ctx: &StageCtx<'_>) -> Result<serde::Value, StageError> {
    let mut map = serde::Map::new();
    macro_rules! capture {
        ($c:ident, [$($slot:ident),*] $(, $carry:ident $(if $when:expr)?)?) => {{
            $(
                let slot = require(&$c.$slot, stringify!($slot))?;
                map.insert(stringify!($slot), encode(stringify!($slot), slot)?);
            )*
            $(if true $(&& $when)? {
                let field = &require(&$c.carry, "carry")?.$carry;
                map.insert(CARRY, encode(CARRY, field)?);
            })?
        }};
    }
    stage_slots!(capture, name, ctx);
    if name == "safety" {
        let log: Vec<ReportedItem> = require(&ctx.gate, "gate")?.log().items();
        map.insert("gate_log", encode("gate_log", &log)?);
    }
    Ok(serde::Value::Object(map))
}

/// Restores the named stage's slots and carry field into `ctx` from a
/// journaled record — the inverse of [`capture_stage`]. All or nothing:
/// every entry decodes (and every derived slot builds) before anything
/// is written, so on an error `ctx` and its carry are as they were.
fn restore_stage(
    name: &str,
    ctx: &mut StageCtx<'_>,
    artifacts: &serde::Value,
) -> Result<(), StageError> {
    let map = artifacts
        .as_object()
        .ok_or_else(|| corrupt(name, "journal record is not an object"))?;
    // A context without its carry fails here, before any write.
    carry_mut(&mut ctx.carry)?;
    match name {
        "measure_images" => {
            // Every crawled image is looked up in the memo: the pixel
            // kernels never run, and a missing pair rejects the record.
            let carry: super::epoch::MeasureCarry = decode(map, CARRY)?;
            let measures = measures_from_memo(require(&ctx.crawl, "crawl")?, &carry.memo)?;
            ctx.measures = Some(measures);
            carry_mut(&mut ctx.carry)?.measure = carry;
        }
        "safety" => {
            let flagged = decode(map, "flagged")?;
            let safety = decode(map, "safety")?;
            let log: Vec<ReportedItem> = decode(map, "gate_log")?;
            let kept = apply_deletions(require(&ctx.measures, "measures")?, &flagged);
            // The gate is rebuilt from the world's hash list (screening
            // depends only on the list) and the report log replayed, so
            // finance's proof screening sees the identical gate state.
            let gate = SafetyGate::new(ctx.world.hashlist.clone());
            for item in log {
                gate.log().record(item);
            }
            ctx.flagged = Some(flagged);
            ctx.safety = Some(safety);
            ctx.kept = Some(kept);
            ctx.gate = Some(gate);
        }
        _ => {
            macro_rules! restore {
                ($c:ident, [$($slot:ident),*] $(, $carry:ident $(if $when:expr)?)?) => {{
                    $(let $slot = decode(map, stringify!($slot))?;)*
                    // The carry decodes last, before the one write
                    // that cannot fail (the carry is there, see above).
                    // A record without one (its writer dropped the
                    // carry) cannot resume a run that hands it back.
                    $(match map.get(CARRY) {
                        Some(_) => carry_mut(&mut $c.carry)?.$carry = decode(map, CARRY)?,
                        None if $c.keeps_carry $(&& $when)? => {
                            return Err(corrupt(CARRY, "carry missing from journal record"))
                        }
                        None => {}
                    })?
                    $($c.$slot = Some($slot);)*
                }};
            }
            stage_slots!(restore, name, ctx);
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::pipeline::{EpochCarry, Pipeline, TimingSource};
    use rand::Rng;
    use worldgen::World;

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
        assert!(!journal.dir.exists(), "opening a journal writes nothing");
        journal.save(0, "extract", record()).unwrap();
        let rec = journal.load(0, "extract").unwrap().expect("a hit");
        assert_eq!(rec.items, 7);
        assert_eq!(
            rec.artifacts.as_object().unwrap().get("x"),
            Some(&serde::Value::Str("artifact".into()))
        );
        assert!(journal.load(1, "top_classifier").unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Writers of one record — a batch run and a server on one journal,
    /// or a `run` and an `advance` of one epoch — each write a temp file
    /// of their own, so no writer truncates another's before its rename.
    #[test]
    fn concurrent_saves_of_one_record_all_land() {
        let dir = tmp_dir("concurrent");
        let journal = Journal::open(&dir, &WorldConfig::test_scale(9), &options(9)).unwrap();
        let record = record();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            let saves: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        journal.save(3, "safety", record.clone())
                    })
                })
                .collect();
            for save in saves {
                save.join().unwrap().unwrap();
            }
        });
        assert!(journal.load(3, "safety").unwrap().is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Seeded mutations of a real record: truncated at every offset and
    /// with one bit flipped at every offset, a load never panics and
    /// never returns a hit other than the original record.
    #[test]
    fn mutated_records_never_load_as_another_hit() {
        let world = World::generate(WorldConfig {
            seed: 0x4D07,
            scale: 0.001,
            origin_domains: 40,
            csam_images: 1,
            with_side_boards: true,
        });
        let dir = tmp_dir("mutate");
        let options = options(0x4D07);
        Pipeline::new(options)
            .run_prefix_resumable(&world, 2, &dir)
            .unwrap();
        let journal = Journal::open(&dir, &world.config, &options).unwrap();
        let path = journal.file(1, "top_classifier");
        let bytes = fs::read(&path).unwrap();
        let original = journal.load(1, "top_classifier").unwrap().expect("a hit");
        let original = serde_json::to_string(&original).unwrap();
        let mut rng = synthrand::rng_from_seed(0x4D07);
        let check = |mutated: &[u8], what: &str| {
            fs::write(&path, mutated).unwrap();
            if let Ok(Some(record)) = journal.load(1, "top_classifier") {
                assert_eq!(serde_json::to_string(&record).unwrap(), original, "{what}");
            }
        };
        for offset in 0..bytes.len() {
            check(&bytes[..offset], &format!("truncated at {offset}"));
            let mut flipped = bytes.clone();
            let bit = rng.gen_range(0..8);
            flipped[offset] ^= 1 << bit;
            check(&flipped, &format!("bit {bit} flipped at {offset}"));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A batch run drops its carry, so its records hold none beyond the
    /// `measure_images` memo. A run that hands its carry back does not
    /// take those records for its own: it recomputes from the first
    /// carry-less stage on, and returns the carry a journal-free run
    /// does.
    #[test]
    fn batch_records_hold_no_carry_a_carry_keeping_run_would_miss() {
        let world = World::generate(WorldConfig::test_scale(0xCA77));
        let dir = tmp_dir("batch-carry");
        let options = options(0xCA77);
        Pipeline::new(options).run_resumable(&world, &dir).unwrap();
        let journal = Journal::open(&dir, &world.config, &options).unwrap();
        for (index, stage) in Pipeline::stages().iter().enumerate() {
            let record = journal.load(index, stage.name()).unwrap().expect("a hit");
            let has_carry = record.artifacts.as_object().unwrap().get(CARRY).is_some();
            assert_eq!(
                has_carry,
                stage.name() == "measure_images",
                "{}",
                stage.name()
            );
        }
        let run = |journal| {
            let (report, carry) = Pipeline::new(options)
                .run_with_carry(&world, EpochCarry::default(), journal)
                .unwrap();
            (report, serde_json::to_string(&carry).unwrap())
        };
        let (report, carry) = run(Some(&journal));
        let loaded: Vec<_> = report
            .timings
            .iter()
            .filter(|t| t.source == TimingSource::Journal && t.stage != "journal")
            .map(|t| t.stage.as_str())
            .collect();
        assert_eq!(loaded, ["extract"]);
        assert_eq!(carry, run(None).1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_of_another_format_is_rejected() {
        let dir = tmp_dir("format");
        let journal = Journal::open(&dir, &WorldConfig::test_scale(8), &options(8)).unwrap();
        journal.save(7, "finance", record()).unwrap();
        let path = journal.dir.join("07-finance.json");
        let mut envelope: Envelope =
            serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
        envelope.format = FORMAT - 1;
        fs::write(&path, serde_json::to_string(&envelope).unwrap()).unwrap();
        let reason = journal.load(7, "finance").unwrap_err();
        assert!(reason.contains("format"), "{reason}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_run_key_is_rejected() {
        let dir = tmp_dir("stale");
        let config = WorldConfig::test_scale(5);
        let old = Journal::open(&dir, &config, &options(5)).unwrap();
        old.save(0, "extract", record()).unwrap();
        // A journal for different options lives in a different run dir;
        // force the mismatch by copying the record across.
        let new = Journal::open(&dir, &config, &options(6)).unwrap();
        fs::create_dir_all(&new.dir).unwrap();
        fs::copy(
            old.dir.join("00-extract.json"),
            new.dir.join("00-extract.json"),
        )
        .unwrap();
        let reason = new.load(0, "extract").unwrap_err();
        assert!(reason.contains("stale"), "{reason}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_empties_the_run_dir() {
        let dir = tmp_dir("clear");
        let journal = Journal::open(&dir, &WorldConfig::test_scale(7), &options(7)).unwrap();
        journal.clear().unwrap();
        journal.save(0, "extract", record()).unwrap();
        // A writer killed between its write and its rename.
        let leftover = journal.dir.join(".tmp-1-0-00-extract");
        fs::write(&leftover, "torn").unwrap();
        journal.clear().unwrap();
        assert!(journal.load(0, "extract").unwrap().is_none());
        assert!(
            !leftover.exists(),
            "clearing removes a dead writer's temp file"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
