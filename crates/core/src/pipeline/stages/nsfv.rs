//! Stage `nsfv`: not-safe-for-viewing classification (paper §4.4), plus
//! the §4.2/§4.4 funnel accounting over surviving images.
//!
//! NSFV classification is an *analysis* over already-screened images,
//! not a producer of inputs any later stage strictly requires to be
//! complete — so this stage can degrade: if it fails twice, the driver
//! accepts a default validation result, zero NSFV previews, and a
//! partial funnel (download counts only), and the run continues.

use crate::nsfv::{validate, ImageMeasures, NsfvValidation};
use crate::pipeline::ctx::{carry_mut, require};
use crate::pipeline::{ImageFunnel, Stage, StageCtx, StageError};
use imagesim::validation::build_validation_set;
use std::collections::HashMap;
use synthrand::Day;

/// Produces `nsfv_validation`, `previews_nsfv`, and `funnel`.
pub struct NsfvStage;

impl Stage for NsfvStage {
    fn name(&self) -> &'static str {
        "nsfv"
    }

    /// Degraded output: default validation metrics, no NSFV previews,
    /// and a funnel holding only the raw download counts (uniqueness
    /// and NSFV tallies zeroed). Only data errors degrade — a missing
    /// artifact is a broken graph and must propagate.
    fn degrade(&self, ctx: &mut StageCtx<'_>, cause: &StageError) -> bool {
        if matches!(cause, StageError::MissingArtifact(_)) {
            return false;
        }
        let (Some(crawl), Some(measures)) = (&ctx.crawl, &ctx.measures) else {
            return false;
        };
        let funnel = ImageFunnel {
            preview_downloads: measures.previews.len(),
            packs_downloaded: crawl.packs.len(),
            pack_images: measures.packs.iter().map(Vec::len).sum(),
            unique_files: 0,
            heavily_duplicated: 0,
            previews_nsfv: 0,
        };
        ctx.nsfv_validation = Some(NsfvValidation::default());
        ctx.previews_nsfv = Some(Vec::new());
        ctx.funnel = Some(funnel);
        true
    }

    fn run(&self, ctx: &mut StageCtx<'_>) -> Result<(), StageError> {
        let crawl = require(&ctx.crawl, "crawl")?;
        let measures = require(&ctx.measures, "measures")?;
        let kept = require(&ctx.kept, "kept")?;

        let workers = ctx.options.workers;
        // The validation-set evaluation is pure in the run seed, so the
        // first slice computes it and every later advance serves the
        // memoised copy.
        let seed = ctx.options.seed;
        let nsfv_validation = *carry_mut(&mut ctx.carry)?
            .nsfv
            .get_or_insert_with(|| validate(&build_validation_set(seed ^ 0x24), workers));
        let previews_nsfv: Vec<(ImageMeasures, Day)> = kept
            .previews
            .iter()
            .filter(|(_, m)| !m.is_sfv())
            .map(|(r, m)| (*m, crawl.previews[r.index as usize].link.posted))
            .collect();

        // Funnel accounting: downloads counted pre-deletion, uniqueness
        // over survivors only. Each worker counts exact-dedup digests over
        // a chunk; merging the partial maps is commutative integer
        // addition, so the counts match the serial fold for any worker
        // count.
        let digests: Vec<u64> = kept
            .previews
            .iter()
            .map(|(_, m)| m.digest)
            .chain(kept.packs.iter().flatten().map(|m| m.digest))
            .collect();
        let partials = crate::par::par_map_chunks(&digests, workers, |chunk| {
            let mut counts: HashMap<u64, usize> = HashMap::new();
            for &d in chunk {
                *counts.entry(d).or_insert(0) += 1;
            }
            counts
        });
        let mut digest_counts: HashMap<u64, usize> = HashMap::new();
        for partial in partials {
            for (d, c) in partial {
                *digest_counts.entry(d).or_insert(0) += c;
            }
        }
        let funnel = ImageFunnel {
            preview_downloads: measures.previews.len(),
            packs_downloaded: crawl.packs.len(),
            pack_images: measures.packs.iter().map(Vec::len).sum(),
            unique_files: digest_counts.len(),
            heavily_duplicated: digest_counts.values().filter(|&&c| c >= 20).count(),
            previews_nsfv: previews_nsfv.len(),
        };

        ctx.note_items(kept.previews.len());
        ctx.nsfv_validation = Some(nsfv_validation);
        ctx.previews_nsfv = Some(previews_nsfv);
        ctx.funnel = Some(funnel);
        Ok(())
    }
}
