//! Stage `extract`: pull eWhoring threads out of the corpus (paper §3).
//!
//! This is the pipeline's ingestion edge, so it is also where input
//! corruption lands: the run's [`CorruptionPlan`] may truncate or
//! malform a thread row, or mangle a heading's bytes. Damaged records
//! are quarantined (stage, record key, error kind) and dropped from the
//! extraction set; at severity `0.0` the plan is inert and the set is
//! byte-identical to the uncorrupted pipeline.
//!
//! With `options.shards > 0` the stage fans its survey out per forum
//! across supervised shard workers ([`shard::survey`]), which also
//! pre-fold the `actors` carry over each forum span.

use crate::extract::{extract_ewhoring_threads, EwhoringSet};
use crate::pipeline::corruption::{CorruptionPlan, RecordErrorKind};
use crate::pipeline::{shard, Stage, StageCtx, StageError};
use crimebb::Corpus;

/// Produces `extraction` and `all_threads` (and, sharded, the `actors`
/// carry's folds).
pub struct ExtractStage;

impl Stage for ExtractStage {
    fn name(&self) -> &'static str {
        "extract"
    }

    fn run(&self, ctx: &mut StageCtx<'_>) -> Result<(), StageError> {
        if ctx.options.shards > 0 {
            return shard::survey(ctx);
        }
        let mut set = extract_ewhoring_threads(&ctx.world.corpus);
        let quarantined = drop_corrupt_rows(&ctx.world.corpus, &ctx.corruption, &mut set);
        let records = quarantined.len();
        for (record, kind) in quarantined {
            ctx.ledger.record("extract", record, kind);
        }
        ctx.note_items(set.len());
        finish(ctx, set, records)
    }
}

/// Drops every thread row the plan damages from `set` and returns the
/// quarantined records in per-forum order. A row is damaged when the
/// plan truncates or malforms it, or when its mangled heading fails
/// UTF-8 validation (the plan damages bytes; only an actual validation
/// failure quarantines the record). An inert plan drops nothing. Every
/// draw is pure per thread, so filtering a span of forums gives exactly
/// that span's rows of the whole-corpus filter.
pub(crate) fn drop_corrupt_rows(
    corpus: &Corpus,
    plan: &CorruptionPlan,
    set: &mut EwhoringSet,
) -> Vec<(String, RecordErrorKind)> {
    let mut quarantined = Vec::new();
    if !plan.is_enabled() {
        return quarantined;
    }
    for (_, threads) in &mut set.per_forum {
        threads.retain(|&t| {
            let kind = plan.thread_row(t).or_else(|| {
                let bytes = plan.mangled_heading(t, &corpus.thread(t).heading)?;
                std::str::from_utf8(&bytes)
                    .is_err()
                    .then_some(RecordErrorKind::InvalidUtf8Heading)
            });
            if let Some(kind) = kind {
                quarantined.push((format!("thread/{}", t.0), kind));
            }
            kind.is_none()
        });
    }
    quarantined
}

/// Writes the filtered extraction set into the context. A set the
/// corruption filter emptied (`records` rows quarantined, none left)
/// fails the stage: nothing downstream can be measured.
pub(crate) fn finish(
    ctx: &mut StageCtx<'_>,
    set: EwhoringSet,
    records: usize,
) -> Result<(), StageError> {
    if set.is_empty() && records > 0 {
        return Err(StageError::Quarantined {
            stage: "extract",
            records,
        });
    }
    ctx.all_threads = Some(set.all_threads());
    ctx.extraction = Some(set);
    Ok(())
}
