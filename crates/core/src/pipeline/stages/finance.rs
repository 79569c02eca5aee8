//! Stage `finance`: earnings harvest and cash-out analysis (paper §5).
//!
//! Reuses the safety stage's gate so proof-of-earnings screenshots are
//! screened through the same hash log the image screening used. Table 7
//! reads the `actors` fold and is assembled there.

use crate::finance::harvest_earnings_stream;
use crate::pipeline::corruption::RecordErrorKind;
use crate::pipeline::ctx::{carry_mut, require};
use crate::pipeline::{Stage, StageCtx, StageError};

/// Produces `harvest` and `earnings`.
pub struct FinanceStage;

impl Stage for FinanceStage {
    fn name(&self) -> &'static str {
        "finance"
    }

    fn run(&self, ctx: &mut StageCtx<'_>) -> Result<(), StageError> {
        let world = ctx.world;
        let all_threads = require(&ctx.all_threads, "all_threads")?;
        let gate = require(&ctx.gate, "gate")?;
        let plan = ctx.corruption;

        // Fold only the posts that arrived since the carried cursor;
        // counters, dedup sets, proof records, and quarantined proof
        // indices persist across slices.
        let carry = &mut carry_mut(&mut ctx.carry)?.finance;
        let harvest = harvest_earnings_stream(world, gate, all_threads, &plan, carry);
        // §5.2 aggregates: fold only the proofs that arrived since the
        // carried cursor — the same `EarningsAgg` code path
        // `analyse_earnings` runs in one shot, so the warm aggregate is
        // byte-identical by fold composition.
        carry.agg.fold(&carry.harvest.proofs[carry.agg_cursor..]);
        carry.agg_cursor = carry.harvest.proofs.len();
        let earnings = carry.agg.finish();
        // Every run records every quarantine the carry holds, so a warm
        // advance's ledger equals a fresh fold's.
        for &i in &carry.quarantined {
            ctx.ledger.record(
                "finance",
                format!("proof/{i}"),
                RecordErrorKind::NonFiniteFeature,
            );
        }

        ctx.note_items(all_threads.len());
        ctx.harvest = Some(harvest);
        ctx.earnings = Some(earnings);
        Ok(())
    }
}
