//! Fused single-pass measurement kernel.
//!
//! The NSFV pipeline measures four things about every image: its robust
//! hash, its exact content digest, its NSFW score, and its OCR word count
//! (paper §4.3–4.4). Computed independently those are four full scans of
//! the raster — and the per-rectangle hash ([`hash::per_rect`]) alone
//! re-reads every pixel once per plane through `mean_luminance`.
//! [`measure_with`] walks the raster exactly once, accumulating all four
//! measurements per row, and is bit-identical to the multi-pass
//! [`reference`] by construction. [`RobustHash::of`] is the same pass with
//! only the hash accumulator (`HashSums`), so the argument covers it too:
//!
//! * Every hash cell (8×8 blocks, 9×8 and 8×9 gradient grids, 8×8 chroma
//!   blocks) is a contiguous rectangle, and for rasters at least 9×9 the
//!   cells of each plane partition the raster — no pixel is shared, no
//!   pixel is dropped. A pixel's cell membership is a table lookup
//!   ([`MeasureScratch`] keys the tables on the raster dimensions).
//! * Within one cell, the global row-major walk visits pixels in exactly
//!   the order the reference's per-rectangle `mean_luminance` loop does
//!   (`y` outer, `x` inner), so the f32 partial sums see the same
//!   additions in the same order and every intermediate rounding is
//!   reproduced exactly.
//! * The per-pixel arithmetic is shared, not duplicated: luminance is
//!   [`crate::bitmap::lum`], digest mixing is [`crate::hash::Fnv`], skin
//!   detection is [`crate::nsfw::is_skin`], ink-run extraction is
//!   [`crate::ocr::row_runs_into`], and the finishers
//!   ([`crate::hash::median_bits`] and friends,
//!   [`crate::nsfw::nsfw_score_from_fraction`],
//!   [`crate::ocr::count_words`]) are the very functions the reference
//!   path calls.
//!
//! Rasters smaller than 9×9 fall back to [`reference`] (the hash alone to
//! [`hash::per_rect`]): there the
//! `.max(x0 + 1)` clamps in the gradient grids can make cells overlap,
//! the partition argument breaks, and such rasters are cheap anyway.

use crate::bitmap::{lum, Bitmap};
use crate::hash::{self, content_digest, RobustHash};
use crate::nsfw::{self, is_skin, nsfw_score_from_fraction};
use crate::ocr::{self, Run};

/// Everything the pipeline measures about one rendered image.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measures {
    /// 256-bit robust perceptual hash (PhotoDNA/TinEye analogue).
    pub hash: RobustHash,
    /// FNV-1a content digest for exact-duplicate detection.
    pub digest: u64,
    /// NSFW probability score in `[0, 1]` (OpenNSFW analogue).
    pub nsfw: f64,
    /// OCR word count (Tesseract analogue).
    pub ocr_words: usize,
}

/// The multi-pass reference: four independent scans through the public
/// single-measurement entry points. [`measure_with`] must agree with this
/// bit-for-bit; the equivalence tests below and the pipeline's snapshot
/// gate both hold it to that.
pub fn reference(bmp: &Bitmap) -> Measures {
    Measures {
        hash: hash::per_rect(bmp),
        digest: content_digest(bmp),
        nsfw: nsfw::nsfw_score(bmp),
        ocr_words: ocr::ocr_word_count(bmp),
    }
}

/// Measures an image in one pass with throwaway scratch. Hot loops should
/// hold a [`MeasureScratch`] and call [`measure_with`] instead.
pub fn measure(bmp: &Bitmap) -> Measures {
    measure_with(bmp, &mut MeasureScratch::new())
}

/// Reusable per-worker state for [`measure_with`]: cell-membership lookup
/// tables keyed on the raster dimensions, plus the row-luminance and
/// ink-run buffers. Rebuilt only when the dimensions change, so a worker
/// measuring a stream of same-sized renders allocates nothing per image.
#[derive(Debug, Clone)]
pub struct MeasureScratch {
    /// Dimensions the tables below were built for.
    dims: (usize, usize),
    /// `x` → 8×8 block column (`div_ceil` blocks, trailing ones may be empty).
    blk_col: Vec<u8>,
    /// `y` → 8×8 block row.
    blk_row: Vec<u8>,
    /// `x` → dhash column band (9 floor-division bands).
    d9_col: Vec<u8>,
    /// `y` → dhash row band (8 bands).
    d8_row: Vec<u8>,
    /// `x` → vdhash column band (8 bands).
    v8_col: Vec<u8>,
    /// `y` → vdhash row band (9 bands).
    v9_row: Vec<u8>,
    /// Per-band extents — the reference's mean divisors.
    blk_wx: [usize; 8],
    blk_hy: [usize; 8],
    d9_wx: [usize; 9],
    d8_hy: [usize; 8],
    v8_wx: [usize; 8],
    v9_hy: [usize; 9],
    /// One row of luminances, shared by the hash planes and run extraction.
    row_lum: Vec<f32>,
    /// Ink runs accumulated across the pass, fed to `count_words`.
    runs: Vec<Run>,
}

impl Default for MeasureScratch {
    fn default() -> MeasureScratch {
        MeasureScratch::new()
    }
}

impl MeasureScratch {
    /// Empty scratch; the first [`measure_with`] call sizes it.
    pub fn new() -> MeasureScratch {
        MeasureScratch {
            dims: (0, 0),
            blk_col: Vec::new(),
            blk_row: Vec::new(),
            d9_col: Vec::new(),
            d8_row: Vec::new(),
            v8_col: Vec::new(),
            v9_row: Vec::new(),
            blk_wx: [0; 8],
            blk_hy: [0; 8],
            d9_wx: [0; 9],
            d8_hy: [0; 8],
            v8_wx: [0; 8],
            v9_hy: [0; 9],
            row_lum: Vec::new(),
            runs: Vec::new(),
        }
    }

    fn prepare(&mut self, w: usize, h: usize) {
        if self.dims == (w, h) {
            return;
        }
        self.dims = (w, h);
        fill_blocks(w, &mut self.blk_col, &mut self.blk_wx);
        fill_blocks(h, &mut self.blk_row, &mut self.blk_hy);
        fill_bands(w, &mut self.d9_col, &mut self.d9_wx);
        fill_bands(h, &mut self.d8_row, &mut self.d8_hy);
        fill_bands(w, &mut self.v8_col, &mut self.v8_wx);
        fill_bands(h, &mut self.v9_row, &mut self.v9_hy);
        self.row_lum.clear();
        self.row_lum.resize(w, 0.0);
    }
}

/// Membership table for the 8 `div_ceil(n, 8)`-sized hash blocks along one
/// axis. Trailing blocks can be empty (extent 0) when `n` is not a
/// multiple of 8 — the reference leaves their means at 0.0 and so does the
/// finisher in [`measure_with`].
fn fill_blocks(n: usize, table: &mut Vec<u8>, extents: &mut [usize; 8]) {
    let bs = n.div_ceil(8);
    table.clear();
    table.resize(n, 0);
    for (b, extent) in extents.iter_mut().enumerate() {
        let lo = (b * bs).min(n);
        let hi = ((b + 1) * bs).min(n);
        *extent = hi - lo;
        for t in &mut table[lo..hi] {
            *t = b as u8;
        }
    }
}

/// Membership table for the `K` floor-division gradient bands
/// `[g*n/K, (g+1)*n/K)` along one axis. For `n >= K` every band is
/// non-empty and the bands partition `[0, n)`.
fn fill_bands<const K: usize>(n: usize, table: &mut Vec<u8>, extents: &mut [usize; K]) {
    table.clear();
    table.resize(n, 0);
    for (g, extent) in extents.iter_mut().enumerate() {
        let lo = g * n / K;
        let hi = (g + 1) * n / K;
        *extent = hi - lo;
        for t in &mut table[lo..hi] {
            *t = g as u8;
        }
    }
}

/// Per-cell sums of the four hash planes — 8×8 luma blocks, 8×8 chroma
/// blocks, the 9×8 and 8×9 gradient cells — accumulated pixel by pixel in
/// row-major order. The one pass behind both [`measure_with`] and
/// [`RobustHash::of`].
struct HashSums {
    luma: [f32; 64],
    chroma: [f32; 64],
    d: [[f32; 9]; 8],
    v: [[f32; 8]; 9],
}

impl HashSums {
    fn new() -> HashSums {
        HashSums {
            luma: [0.0; 64],
            chroma: [0.0; 64],
            d: [[0.0; 9]; 8],
            v: [[0.0; 8]; 9],
        }
    }

    /// Adds row `y`, whose luminances `s.row_lum` already holds, and hands
    /// each pixel in order to `each` for the caller's own per-pixel work.
    #[inline(always)]
    fn add_row(
        &mut self,
        s: &MeasureScratch,
        y: usize,
        row: &[[u8; 3]],
        mut each: impl FnMut([u8; 3]),
    ) {
        let by8 = s.blk_row[y] as usize * 8;
        let drow = &mut self.d[s.d8_row[y] as usize];
        let vrow = &mut self.v[s.v9_row[y] as usize];
        for (x, (&p, &l)) in row.iter().zip(&s.row_lum).enumerate() {
            each(p);
            let blk = by8 + s.blk_col[x] as usize;
            self.luma[blk] += l;
            self.chroma[blk] += p[0] as f32 - p[2] as f32;
            drow[s.d9_col[x] as usize] += l;
            vrow[s.v8_col[x] as usize] += l;
        }
    }

    /// Finishes with the reference's own divisor expressions and
    /// thresholds.
    fn finish(&self, s: &MeasureScratch) -> RobustHash {
        let mut luma_means = [0.0f32; 64];
        let mut chroma_means = [0.0f32; 64];
        for by in 0..8 {
            for bx in 0..8 {
                let cnt = s.blk_wx[bx] * s.blk_hy[by];
                if cnt > 0 {
                    luma_means[by * 8 + bx] = self.luma[by * 8 + bx] / cnt as f32;
                    chroma_means[by * 8 + bx] = self.chroma[by * 8 + bx] / cnt as f32;
                }
            }
        }
        let mut dcells = [[0.0f32; 9]; 8];
        for (gy, row) in dcells.iter_mut().enumerate() {
            for (gx, cell) in row.iter_mut().enumerate() {
                *cell = self.d[gy][gx] / (s.d9_wx[gx] * s.d8_hy[gy]) as f32;
            }
        }
        let mut vcells = [[0.0f32; 8]; 9];
        for (gy, row) in vcells.iter_mut().enumerate() {
            for (gx, cell) in row.iter_mut().enumerate() {
                *cell = self.v[gy][gx] / (s.v8_wx[gx] * s.v9_hy[gy]) as f32;
            }
        }
        RobustHash {
            bits: [
                hash::median_bits(&luma_means),
                hash::dhash_bits(&dcells),
                hash::vdhash_bits(&vcells),
                hash::median_bits(&chroma_means),
            ],
        }
    }
}

/// Fills `s.row_lum` with the luminances of `row`. A pure elementwise map
/// with no cross-lane state — the compiler auto-vectorizes it, and f32
/// results are position-independent so vectorization cannot perturb them.
fn row_luminances(s: &mut MeasureScratch, row: &[[u8; 3]]) {
    for (l, &p) in s.row_lum.iter_mut().zip(row) {
        *l = lum(p);
    }
}

/// The robust hash in one pass over the rows (see the module docs for why
/// it equals [`hash::per_rect`]); [`RobustHash::of`] is this.
pub(crate) fn robust_hash(bmp: &Bitmap) -> RobustHash {
    let (w, h) = (bmp.width(), bmp.height());
    if w < 9 || h < 9 {
        return hash::per_rect(bmp);
    }
    let mut scratch = MeasureScratch::new();
    scratch.prepare(w, h);
    let mut sums = HashSums::new();
    for y in 0..h {
        let row = bmp.row(y);
        row_luminances(&mut scratch, row);
        sums.add_row(&scratch, y, row, |_| {});
    }
    sums.finish(&scratch)
}

/// Measures an image in a single pass over its rows, reusing `scratch`.
/// Bit-identical to [`reference`] (see the module docs for why).
pub fn measure_with(bmp: &Bitmap, scratch: &mut MeasureScratch) -> Measures {
    let (w, h) = (bmp.width(), bmp.height());
    if w < 9 || h < 9 {
        return reference(bmp);
    }
    scratch.prepare(w, h);
    let mut sums = HashSums::new();
    let mut digest = hash::Fnv::new();
    digest.mix((w & 0xFF) as u8);
    digest.mix((h & 0xFF) as u8);
    let mut skin_hits = 0usize;
    scratch.runs.clear();

    for y in 0..h {
        let row = bmp.row(y);
        row_luminances(scratch, row);
        sums.add_row(scratch, y, row, |p| {
            digest.mix(p[0]);
            digest.mix(p[1]);
            digest.mix(p[2]);
            if is_skin(p) {
                skin_hits += 1;
            }
        });
        ocr::row_runs_into(y, &scratch.row_lum, &mut scratch.runs);
    }

    Measures {
        hash: sums.finish(scratch),
        digest: digest.0,
        nsfw: nsfw_score_from_fraction(skin_hits as f64 / (w * h) as f64),
        ocr_words: ocr::count_words(bmp, &scratch.runs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ImageClass, ImageSpec, PaymentPlatform};
    use crate::transform::Transform;

    fn assert_identical(bmp: &Bitmap, scratch: &mut MeasureScratch, ctx: &str) {
        let fused = measure_with(bmp, scratch);
        let multi = reference(bmp);
        assert_eq!(fused.hash, multi.hash, "hash: {ctx}");
        assert_eq!(fused.digest, multi.digest, "digest: {ctx}");
        assert_eq!(
            fused.nsfw.to_bits(),
            multi.nsfw.to_bits(),
            "nsfw {} vs {}: {ctx}",
            fused.nsfw,
            multi.nsfw
        );
        assert_eq!(fused.ocr_words, multi.ocr_words, "ocr: {ctx}");
    }

    fn all_classes() -> Vec<ImageClass> {
        vec![
            ImageClass::ModelDressed,
            ImageClass::ModelNude,
            ImageClass::ModelSexual,
            ImageClass::PaymentScreenshot(PaymentPlatform::PayPal),
            ImageClass::PaymentScreenshot(PaymentPlatform::AmazonGiftCard),
            ImageClass::PaymentScreenshot(PaymentPlatform::Bitcoin),
            ImageClass::PaymentScreenshot(PaymentPlatform::Cash),
            ImageClass::ChatScreenshot,
            ImageClass::DirectoryThumbnails,
            ImageClass::ErrorBanner,
            ImageClass::Landscape,
            ImageClass::PortraitCasual,
            ImageClass::Document,
            ImageClass::Meme,
        ]
    }

    fn all_transforms() -> Vec<Transform> {
        vec![
            Transform::Identity,
            Transform::MirrorHorizontal,
            Transform::Watermark { seed: 11 },
            Transform::Brightness(-25),
            Transform::Brightness(30),
            Transform::Noise {
                amplitude: 8,
                seed: 7,
            },
            Transform::CropMargin { percent: 10 },
            Transform::OcclusionBar { seed: 5 },
        ]
    }

    #[test]
    fn fused_matches_reference_for_every_class_and_transform() {
        // One scratch across the whole matrix: reuse must not leak state
        // between images.
        let mut scratch = MeasureScratch::new();
        for (i, class) in all_classes().into_iter().enumerate() {
            let spec = if class.is_model() {
                ImageSpec::model_photo(class, i as u32 + 1, i as u64)
            } else {
                ImageSpec::of(class, i as u64)
            };
            let base = spec.render();
            for t in all_transforms() {
                let bmp = t.apply(&base);
                assert_identical(&bmp, &mut scratch, &format!("{class:?} + {t:?}"));
            }
        }
    }

    #[test]
    fn single_pass_hash_matches_per_rect_oracle() {
        for (i, class) in all_classes().into_iter().enumerate() {
            let spec = if class.is_model() {
                ImageSpec::model_photo(class, i as u32 + 1, i as u64)
            } else {
                ImageSpec::of(class, i as u64)
            };
            let base = spec.render();
            for t in all_transforms() {
                let bmp = t.apply(&base);
                assert_eq!(
                    RobustHash::of(&bmp),
                    hash::per_rect(&bmp),
                    "{class:?} + {t:?}"
                );
            }
        }
        // Awkward sizes, then sizes under 9×9 that fall back.
        let base = ImageSpec::model_photo(ImageClass::ModelNude, 3, 9).render();
        for (w, h) in [(9, 9), (10, 13), (17, 23), (64, 9), (48, 48)]
            .into_iter()
            .chain([(1, 1), (5, 7), (8, 64), (64, 8)])
        {
            let bmp = base.resize(w, h);
            assert_eq!(RobustHash::of(&bmp), hash::per_rect(&bmp), "{w}x{h}");
        }
    }

    #[test]
    fn fused_handles_non_canonical_and_awkward_sizes() {
        // Sizes that exercise empty trailing blocks (w % 8 != 0, small w)
        // and uneven gradient bands, interleaved so the scratch rebuilds
        // its tables between dimension changes.
        let base = ImageSpec::model_photo(ImageClass::ModelNude, 3, 9).render();
        let mut scratch = MeasureScratch::new();
        for (w, h) in [(9, 9), (48, 48), (10, 13), (64, 9), (9, 64), (17, 23)] {
            let bmp = base.resize(w, h);
            assert_identical(&bmp, &mut scratch, &format!("{w}x{h}"));
        }
    }

    #[test]
    fn tiny_rasters_fall_back_to_the_reference() {
        let base = ImageSpec::of(ImageClass::Document, 1).render();
        for (w, h) in [(1, 1), (5, 7), (8, 64), (64, 8)] {
            let bmp = base.resize(w, h);
            assert_identical(&bmp, &mut MeasureScratch::new(), &format!("{w}x{h}"));
        }
    }

    #[test]
    fn measure_and_measure_with_agree() {
        let bmp = ImageSpec::of(ImageClass::ChatScreenshot, 4).render();
        assert_eq!(
            measure(&bmp),
            measure_with(&bmp, &mut MeasureScratch::new())
        );
    }

    #[test]
    fn scratch_tables_are_rebuilt_only_on_dimension_change() {
        let mut scratch = MeasureScratch::new();
        let a = Bitmap::filled(32, 16, [120, 80, 60]);
        measure_with(&a, &mut scratch);
        assert_eq!(scratch.dims, (32, 16));
        let col_ptr = scratch.blk_col.as_ptr();
        measure_with(&a, &mut scratch);
        assert_eq!(scratch.blk_col.as_ptr(), col_ptr, "no rebuild on same dims");
        let b = Bitmap::filled(16, 32, [10, 20, 30]);
        measure_with(&b, &mut scratch);
        assert_eq!(scratch.dims, (16, 32));
    }
}
