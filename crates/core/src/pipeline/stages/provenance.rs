//! Stage `provenance`: reverse-search + wayback attribution (paper §4.5).
//!
//! Provenance attribution is terminal analysis — nothing downstream
//! consumes its artifact except the report — so it may degrade to an
//! empty [`ProvenanceResult`] if it fails twice, rather than aborting a
//! run that already paid for the crawl.

use crate::pipeline::ctx::{carry_mut, require};
use crate::pipeline::{Stage, StageCtx, StageError};
use crate::provenance::{analyse_provenance_memo, PackForAnalysis, ProvenanceResult};
use crimebb::ActorId;

/// Produces `provenance`.
pub struct ProvenanceStage;

impl Stage for ProvenanceStage {
    fn name(&self) -> &'static str {
        "provenance"
    }

    /// Degraded output: an empty provenance table (Tables 5/6 render
    /// with zero rows). Missing artifacts still propagate — that is a
    /// graph bug, not bad data.
    fn degrade(&self, ctx: &mut StageCtx<'_>, cause: &StageError) -> bool {
        if matches!(cause, StageError::MissingArtifact(_)) {
            return false;
        }
        ctx.provenance = Some(ProvenanceResult::default());
        true
    }

    fn run(&self, ctx: &mut StageCtx<'_>) -> Result<(), StageError> {
        let world = ctx.world;
        let crawl = require(&ctx.crawl, "crawl")?;
        let kept = require(&ctx.kept, "kept")?;
        let previews_nsfv = require(&ctx.previews_nsfv, "previews_nsfv")?;

        let packs_for_analysis: Vec<PackForAnalysis> = crawl
            .packs
            .iter()
            .zip(&kept.packs)
            .map(|(p, images)| PackForAnalysis {
                thread: p.link.thread,
                posted: p.link.posted,
                images: images.clone(),
            })
            .collect();
        let pack_authors: Vec<ActorId> = crawl
            .packs
            .iter()
            .map(|p| world.corpus.thread(p.link.thread).author)
            .collect();
        // Reverse-search outcomes are pure in `(hash, posted)` against
        // the static index + Wayback services, so earlier slices'
        // queries are served from the carry memo and only genuinely new
        // `(image, post)` pairs pay the linear index scan.
        let provenance = analyse_provenance_memo(
            &world.index,
            &world.wayback,
            &world.origins,
            &packs_for_analysis,
            &pack_authors,
            previews_nsfv,
            &mut carry_mut(&mut ctx.carry)?.provenance.memo,
        );
        ctx.note_items(packs_for_analysis.len() + previews_nsfv.len());
        ctx.provenance = Some(provenance);
        Ok(())
    }
}
