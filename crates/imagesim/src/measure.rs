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
//!   pixel is dropped. Each row is cut into segments at every column
//!   bound of the three column partitions, so a segment lies in one cell
//!   of each plane; its row's cells are found once per row
//!   ([`MeasureScratch`] keys the bounds and segments on the raster
//!   dimensions).
//! * Within one cell, the global row-major walk visits pixels in exactly
//!   the order the reference's per-rectangle `mean_luminance` loop does
//!   (`y` outer, `x` inner). A segment adds its pixels in a register
//!   that starts from the cell's running total and is stored back at
//!   the segment's end, so the f32 partial sums see the same additions
//!   in the same order and every intermediate rounding is reproduced
//!   exactly.
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

/// Reusable per-worker state for [`measure_with`]: the cell bounds of
/// each hash plane, keyed on the raster dimensions, plus the
/// row-luminance and ink-run buffers. Rebuilt only when the dimensions
/// change, so a worker measuring a stream of same-sized renders
/// allocates nothing per image.
#[derive(Debug, Clone)]
pub struct MeasureScratch {
    /// Dimensions the bounds below were built for.
    dims: (usize, usize),
    /// Cell `i` of an axis spans `b[i]..b[i + 1]`. The 8×8 hash blocks
    /// are `div_ceil(n, 8)` wide, so trailing ones can be empty.
    blk_x: [usize; 9],
    blk_y: [usize; 9],
    /// dhash bands: 9 floor-division columns, 8 rows.
    d9_x: [usize; 10],
    d8_y: [usize; 9],
    /// vdhash bands: 8 floor-division columns, 9 rows.
    v8_x: [usize; 9],
    v9_y: [usize; 10],
    /// The row cut at every column bound of the three column partitions:
    /// each segment lies in one luma/chroma block, one dhash band and one
    /// vdhash band.
    segs: Vec<Seg>,
    /// The current row's luminances, for the ink-run extraction.
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
            blk_x: [0; 9],
            blk_y: [0; 9],
            d9_x: [0; 10],
            d8_y: [0; 9],
            v8_x: [0; 9],
            v9_y: [0; 10],
            segs: Vec::new(),
            row_lum: Vec::new(),
            runs: Vec::new(),
        }
    }

    fn prepare(&mut self, w: usize, h: usize) {
        if self.dims == (w, h) {
            return;
        }
        self.dims = (w, h);
        self.blk_x = block_bounds(w);
        self.blk_y = block_bounds(h);
        self.d9_x = band_bounds(w);
        self.d8_y = band_bounds(h);
        self.v8_x = band_bounds(w);
        self.v9_y = band_bounds(h);
        let mut cuts: Vec<usize> = [&self.blk_x[..], &self.d9_x, &self.v8_x].concat();
        cuts.sort_unstable();
        cuts.dedup();
        self.segs.clear();
        self.segs.extend(cuts.windows(2).map(|c| Seg {
            x0: c[0],
            x1: c[1],
            blk: cell_of(&self.blk_x, c[0]),
            d: cell_of(&self.d9_x, c[0]),
            v: cell_of(&self.v8_x, c[0]),
        }));
        self.row_lum.clear();
        self.row_lum.resize(w, 0.0);
    }
}

/// A run of columns `x0..x1` inside one cell of every column partition.
#[derive(Debug, Clone, Copy)]
struct Seg {
    x0: usize,
    x1: usize,
    /// The luma/chroma block column, dhash band and vdhash band.
    blk: usize,
    d: usize,
    v: usize,
}

/// Bounds of the 8 `div_ceil(n, 8)`-sized hash blocks along one axis.
/// Trailing blocks can be empty when `n` is not a multiple of 8 — the
/// reference leaves their means at 0.0 and so does the finisher in
/// [`HashSums::finish`].
fn block_bounds(n: usize) -> [usize; 9] {
    let bs = n.div_ceil(8);
    std::array::from_fn(|b| (b * bs).min(n))
}

/// Bounds of the `N - 1` floor-division gradient bands
/// `[g*n/K, (g+1)*n/K)` along one axis, `K = N - 1`. For `n >= K` every
/// band is non-empty and the bands partition `[0, n)`.
fn band_bounds<const N: usize>(n: usize) -> [usize; N] {
    std::array::from_fn(|g| g * n / (N - 1))
}

/// The cell of an axis that holds coordinate `i`: the last cell
/// starting at or before it (empty cells are skipped).
fn cell_of(bounds: &[usize], i: usize) -> usize {
    bounds[1..bounds.len() - 1].partition_point(|&b| b <= i)
}

/// Extent of cell `i`.
fn extent(bounds: &[usize], i: usize) -> usize {
    bounds[i + 1] - bounds[i]
}

/// Per-cell sums of the four hash planes — 8×8 luma blocks, 8×8 chroma
/// blocks, the 9×8 and 8×9 gradient cells — accumulated row by row. The
/// one pass behind both [`measure_with`] and [`RobustHash::of`].
struct HashSums {
    luma: [[f32; 8]; 8],
    chroma: [[f32; 8]; 8],
    d: [[f32; 9]; 8],
    v: [[f32; 8]; 9],
}

impl HashSums {
    fn new() -> HashSums {
        HashSums {
            luma: [[0.0; 8]; 8],
            chroma: [[0.0; 8]; 8],
            d: [[0.0; 9]; 8],
            v: [[0.0; 8]; 9],
        }
    }

    /// Adds row `y` and hands each pixel in order to `each` for the
    /// caller's own per-pixel work. Leaves the row's luminances in
    /// `s.row_lum` for the ink-run extraction.
    ///
    /// The row is walked segment by segment ([`MeasureScratch::segs`]).
    /// Each segment sums its pixels into four registers, one per plane,
    /// each starting from its cell's running total: the same f32 adds in
    /// the same order as adding pixel by pixel into the cell tables, with
    /// no memory round trip per add. `each` and the luminance run in the
    /// same loop, so their work overlaps the add chains (and, in
    /// [`measure_with`], the digest's serial multiply chain).
    #[inline(always)]
    fn add_row(
        &mut self,
        s: &mut MeasureScratch,
        y: usize,
        row: &[[u8; 3]],
        mut each: impl FnMut([u8; 3]),
    ) {
        let luma = &mut self.luma[cell_of(&s.blk_y, y)];
        let chroma = &mut self.chroma[cell_of(&s.blk_y, y)];
        let d = &mut self.d[cell_of(&s.d8_y, y)];
        let v = &mut self.v[cell_of(&s.v9_y, y)];
        for seg in &s.segs {
            let (mut la, mut ca) = (luma[seg.blk], chroma[seg.blk]);
            let (mut da, mut va) = (d[seg.d], v[seg.v]);
            let lums = &mut s.row_lum[seg.x0..seg.x1];
            for (&p, l_out) in row[seg.x0..seg.x1].iter().zip(lums) {
                each(p);
                let l = lum(p);
                *l_out = l;
                la += l;
                ca += p[0] as f32 - p[2] as f32;
                da += l;
                va += l;
            }
            (luma[seg.blk], chroma[seg.blk]) = (la, ca);
            (d[seg.d], v[seg.v]) = (da, va);
        }
    }

    /// Finishes with the reference's own divisor expressions and
    /// thresholds.
    fn finish(&self, s: &MeasureScratch) -> RobustHash {
        let mut luma_means = [0.0f32; 64];
        let mut chroma_means = [0.0f32; 64];
        for by in 0..8 {
            for bx in 0..8 {
                let cnt = extent(&s.blk_x, bx) * extent(&s.blk_y, by);
                if cnt > 0 {
                    luma_means[by * 8 + bx] = self.luma[by][bx] / cnt as f32;
                    chroma_means[by * 8 + bx] = self.chroma[by][bx] / cnt as f32;
                }
            }
        }
        let mut dcells = [[0.0f32; 9]; 8];
        for (gy, row) in dcells.iter_mut().enumerate() {
            for (gx, cell) in row.iter_mut().enumerate() {
                *cell = self.d[gy][gx] / (extent(&s.d9_x, gx) * extent(&s.d8_y, gy)) as f32;
            }
        }
        let mut vcells = [[0.0f32; 8]; 9];
        for (gy, row) in vcells.iter_mut().enumerate() {
            for (gx, cell) in row.iter_mut().enumerate() {
                *cell = self.v[gy][gx] / (extent(&s.v8_x, gx) * extent(&s.v9_y, gy)) as f32;
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

/// The robust hash in one pass over the rows (see the module docs for why
/// it equals [`hash::per_rect`]); [`RobustHash::of`] is this.
pub(crate) fn robust_hash(bmp: &Bitmap) -> RobustHash {
    let (w, h) = (bmp.width(), bmp.height());
    if w < 9 || h < 9 {
        return hash::per_rect(bmp);
    }
    let mut scratch = MeasureScratch::new();
    hash_sums(bmp, &mut scratch).finish(&scratch)
}

/// The hash planes' cell sums of a raster at least 9×9.
fn hash_sums(bmp: &Bitmap, scratch: &mut MeasureScratch) -> HashSums {
    scratch.prepare(bmp.width(), bmp.height());
    let mut sums = HashSums::new();
    for y in 0..bmp.height() {
        let row = bmp.row(y);
        sums.add_row(scratch, y, row, |_| {});
    }
    sums
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
        sums.add_row(scratch, y, row, |p| {
            digest.mix(p[0]);
            digest.mix(p[1]);
            digest.mix(p[2]);
            skin_hits += is_skin(p) as usize;
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

    /// The per-pixel walk that the run sums replaced: each pixel's cells
    /// come from per-coordinate tables built from the reference's cell
    /// formulas, and each pixel is added into the cell tables in place.
    fn per_pixel_sums(bmp: &Bitmap) -> HashSums {
        let (w, h) = (bmp.width(), bmp.height());
        let blocks = |n: usize| -> Vec<usize> { (0..n).map(|i| i / n.div_ceil(8)).collect() };
        let bands = |n: usize, k: usize| -> Vec<usize> {
            (0..n)
                .map(|i| (0..k).find(|&g| i < (g + 1) * n / k).expect("in range"))
                .collect()
        };
        let (blk_col, blk_row) = (blocks(w), blocks(h));
        let (d9_col, d8_row) = (bands(w, 9), bands(h, 8));
        let (v8_col, v9_row) = (bands(w, 8), bands(h, 9));
        let mut sums = HashSums::new();
        for y in 0..h {
            for x in 0..w {
                let p = bmp.get(x, y);
                let l = lum(p);
                sums.luma[blk_row[y]][blk_col[x]] += l;
                sums.chroma[blk_row[y]][blk_col[x]] += p[0] as f32 - p[2] as f32;
                sums.d[d8_row[y]][d9_col[x]] += l;
                sums.v[v9_row[y]][v8_col[x]] += l;
            }
        }
        sums
    }

    fn sum_bits(s: &HashSums) -> Vec<u32> {
        let planes = [s.luma.as_flattened(), s.chroma.as_flattened()];
        let grads = [s.d.as_flattened(), s.v.as_flattened()];
        planes
            .iter()
            .chain(&grads)
            .flat_map(|p| p.iter().map(|f| f.to_bits()))
            .collect()
    }

    #[test]
    fn run_sums_match_the_per_pixel_walk() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5EED_5A35);
        let mut scratch = MeasureScratch::new();
        let classes = all_classes();
        let transforms = all_transforms();
        for case in 0..600 {
            let class = classes[case % classes.len()];
            let spec = if class.is_model() {
                ImageSpec::model_photo(class, rng.gen_range(1..999), rng.gen())
            } else {
                ImageSpec::of(class, rng.gen())
            };
            let mut bmp = transforms[case % transforms.len()].apply(&spec.render());
            if case % 2 == 1 {
                bmp = bmp.resize(rng.gen_range(9..90), rng.gen_range(9..90));
            }
            let fused = hash_sums(&bmp, &mut scratch);
            let ctx = format!("{class:?} {}x{}", bmp.width(), bmp.height());
            assert_eq!(sum_bits(&fused), sum_bits(&per_pixel_sums(&bmp)), "{ctx}");
        }
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
        // its bounds between dimension changes.
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
        let segs_ptr = scratch.segs.as_ptr();
        measure_with(&a, &mut scratch);
        assert_eq!(scratch.segs.as_ptr(), segs_ptr, "no rebuild on same dims");
        let b = Bitmap::filled(16, 32, [10, 20, 30]);
        measure_with(&b, &mut scratch);
        assert_eq!(scratch.dims, (16, 32));
    }
}
