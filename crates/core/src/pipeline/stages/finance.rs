//! Stage `finance`: earnings harvest and cash-out analysis (paper §5).
//!
//! Reuses the safety stage's gate so proof-of-earnings screenshots are
//! screened through the same hash log the image screening used.

use crate::finance::{analyse_currency_exchange_stream, analyse_earnings, harvest_earnings_stream};
use crate::pipeline::corruption::RecordErrorKind;
use crate::pipeline::ctx::{carry_mut, require};
use crate::pipeline::{Stage, StageCtx, StageError};

/// Produces `harvest`, `earnings`, and `currency`.
pub struct FinanceStage;

impl Stage for FinanceStage {
    fn name(&self) -> &'static str {
        "finance"
    }

    fn run(&self, ctx: &mut StageCtx<'_>) -> Result<(), StageError> {
        let world = ctx.world;
        let all_threads = require(&ctx.all_threads, "all_threads")?;
        let gate = require(&ctx.gate, "gate")?;

        // Fold only the posts that arrived since the carried cursor;
        // counters, dedup sets, and proof records persist across slices.
        let mut harvest = harvest_earnings_stream(
            world,
            gate,
            all_threads,
            &mut carry_mut(&mut ctx.carry)?.finance,
        );

        // Ingestion check on the parsed proofs: a corrupt currency cell
        // yields a non-finite USD amount once the exchange multiplier is
        // applied. Those proofs are quarantined and recounted as
        // `not_proof`, preserving `proofs + not_proof == analysed`, so
        // the monthly aggregation never averages a NaN into Figure 7.
        let plan = ctx.corruption;
        if plan.is_enabled() {
            let mut quarantined = Vec::new();
            let proofs = std::mem::take(&mut harvest.proofs);
            harvest.proofs = proofs
                .into_iter()
                .enumerate()
                .filter(|(i, p)| {
                    let ok = (p.usd * plan.proof_multiplier(*i)).is_finite();
                    if !ok {
                        quarantined.push(*i);
                    }
                    ok
                })
                .map(|(_, p)| p)
                .collect();
            harvest.not_proof += quarantined.len();
            for i in quarantined {
                ctx.ledger.record(
                    "finance",
                    format!("proof/{i}"),
                    RecordErrorKind::NonFiniteFeature,
                );
            }
        }

        let carry = &mut carry_mut(&mut ctx.carry)?.finance;
        // §5.2 aggregates: fold only the proofs that arrived since the
        // carried cursor — the same `EarningsAgg` code path
        // `analyse_earnings` runs in one shot, so the warm aggregate is
        // byte-identical by fold composition. An enabled corruption plan
        // filters a per-run *copy* of the proof list, so that path
        // re-aggregates the filtered copy in full and leaves the clean
        // carry untouched.
        let earnings = if plan.is_enabled() {
            analyse_earnings(&harvest)
        } else {
            carry.agg.fold(&carry.harvest.proofs[carry.agg_cursor..]);
            carry.agg_cursor = carry.harvest.proofs.len();
            carry.agg.finish()
        };
        // Table 7 from the carried per-actor tallies + CE ledger.
        let currency = analyse_currency_exchange_stream(&world.corpus, world.hackforums, carry);

        ctx.note_items(all_threads.len());
        ctx.harvest = Some(harvest);
        ctx.earnings = Some(earnings);
        ctx.currency = Some(currency);
        Ok(())
    }
}
