//! Robust perceptual hashing (PhotoDNA / TinEye matching analogue).
//!
//! PhotoDNA "leverages Robust Hashing to detect images that have been
//! modified, e.g., using compression algorithms or geometric distortions"
//! (paper §4.3), and TinEye "deals with a broad range of image
//! transformations, including resizing, cropping, edits, occlusions and
//! colour changes" (§4.5). Both are proprietary; this module implements a
//! real 256-bit robust hash with the same qualitative robustness envelope,
//! in four 64-bit planes:
//!
//! * **luma blocks**: 8×8 block mean luminances thresholded at their
//!   median — invariant to global brightness shifts and resilient to
//!   per-pixel noise and small occlusions;
//! * **horizontal gradients**: signs between neighbouring cells of a 9×8
//!   grid of area-averaged luminances — captures structure, resilient to
//!   resizing;
//! * **vertical gradients**: the same over an 8×9 grid;
//! * **chroma blocks**: 8×8 block mean warmth (R − B) thresholded at
//!   their median.
//!
//! The horizontal plane is not mirror-invariant, so neither is the hash,
//! matching the paper's observation that actors mirror images precisely
//! because it defeats reverse search.
//!
//! [`RobustHash::of`] computes all four planes in one row-major pass over
//! the raster, sharing its per-pixel accumulator with the fused
//! measurement kernel ([`crate::measure`], whose module docs give the
//! argument that it is bit-identical). The per-rectangle planes below
//! ([`per_rect`]: one `mean_luminance` scan per cell) stay as the oracle
//! the single pass is tested against, and they hash rasters under 9×9,
//! where gradient cells can overlap.

use crate::bitmap::Bitmap;
use serde::{Deserialize, Serialize};

/// Default Hamming threshold for declaring two hashes a match.
///
/// Measured envelope on the synthetic renders (256-bit hash): benign edits
/// (brightness, recompression noise, watermark, resize) stay within ~20
/// bits; unrelated same-class images start around 20; crops sit near 60
/// and mirrors at 130+. 18 accepts almost all benign copies while keeping
/// unrelated matches rare — like a real search engine, the boundary is
/// noisy in both directions.
pub const DEFAULT_MATCH_THRESHOLD: u32 = 18;

/// A 256-bit robust perceptual hash.
///
/// Four 64-bit planes: block-mean luminance, horizontal gradients,
/// vertical gradients, and block chroma (warmth). The extra planes exist
/// for *discrimination*: same-class synthetic renders share gross
/// structure, and 128 bits proved too few to keep lookalikes outside the
/// safety-matching ball.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, PartialOrd, Ord)]
pub struct RobustHash {
    /// Luma block bits, horizontal-gradient bits, vertical-gradient bits,
    /// chroma block bits.
    pub bits: [u64; 4],
}

impl RobustHash {
    /// Computes the hash of a bitmap in one pass over its rows.
    pub fn of(bmp: &Bitmap) -> RobustHash {
        crate::measure::robust_hash(bmp)
    }

    /// Hamming distance to another hash (0–256).
    pub fn distance(&self, other: &RobustHash) -> u32 {
        self.bits
            .iter()
            .zip(&other.bits)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// True when within `threshold` bits of `other`.
    pub fn matches(&self, other: &RobustHash, threshold: u32) -> bool {
        self.distance(other) <= threshold
    }
}

/// The hash computed plane by plane, one rectangle scan per cell: the
/// oracle behind [`crate::measure::reference`], and the path for rasters
/// under 9×9.
pub(crate) fn per_rect(bmp: &Bitmap) -> RobustHash {
    RobustHash {
        bits: [block_hash(bmp), dhash(bmp), vdhash(bmp), chroma_hash(bmp)],
    }
}

/// Thresholds 64 block means at their median — the shared finisher for
/// the luma and chroma block planes, used by both the per-rect reference
/// and the fused single-pass kernel.
pub(crate) fn median_bits(means: &[f32; 64]) -> u64 {
    let mut sorted = *means;
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("block mean is finite"));
    let median = (sorted[31] + sorted[32]) / 2.0;
    let mut bits = 0u64;
    for (i, &m) in means.iter().enumerate() {
        if m > median {
            bits |= 1 << i;
        }
    }
    bits
}

/// Signs of the horizontal gradients of a 9×8 cell grid (dhash plane).
pub(crate) fn dhash_bits(cells: &[[f32; 9]; 8]) -> u64 {
    let mut bits = 0u64;
    let mut i = 0;
    for row in cells {
        for w in row.windows(2) {
            if w[0] < w[1] {
                bits |= 1 << i;
            }
            i += 1;
        }
    }
    bits
}

/// Signs of the vertical gradients of an 8×9 cell grid (vdhash plane).
pub(crate) fn vdhash_bits(cells: &[[f32; 8]; 9]) -> u64 {
    let mut bits = 0u64;
    let mut i = 0;
    for y in 0..8 {
        let (row, next) = (&cells[y], &cells[y + 1]);
        for (a, b) in row.iter().zip(next) {
            if a < b {
                bits |= 1 << i;
            }
            i += 1;
        }
    }
    bits
}

/// 8×8 block-mean hash thresholded at the median.
fn block_hash(bmp: &Bitmap) -> u64 {
    let mut means = [0.0f32; 64];
    let bw = bmp.width().div_ceil(8);
    let bh = bmp.height().div_ceil(8);
    for by in 0..8 {
        for bx in 0..8 {
            means[by * 8 + bx] = bmp.mean_luminance(bx * bw, by * bh, (bx + 1) * bw, (by + 1) * bh);
        }
    }
    median_bits(&means)
}

/// 9×8 difference hash over horizontal gradients of area-averaged cells.
///
/// Averaging each cell (instead of nearest-neighbour point sampling) makes
/// the gradient bits survive per-pixel noise and resampling. Horizontal
/// gradients keep the hash mirror-*sensitive* — flipping an image reverses
/// every gradient sign — which is the behaviour the paper attributes to
/// real reverse-search engines (actors mirror images to evade them).
fn dhash(bmp: &Bitmap) -> u64 {
    let mut cells = [[0.0f32; 9]; 8];
    for (gy, row) in cells.iter_mut().enumerate() {
        let y0 = gy * bmp.height() / 8;
        let y1 = ((gy + 1) * bmp.height() / 8).max(y0 + 1);
        for (gx, cell) in row.iter_mut().enumerate() {
            let x0 = gx * bmp.width() / 9;
            let x1 = ((gx + 1) * bmp.width() / 9).max(x0 + 1);
            *cell = bmp.mean_luminance(x0, y0, x1, y1);
        }
    }
    dhash_bits(&cells)
}

/// 8×9 difference hash over *vertical* gradients of area-averaged cells.
/// Mirror-invariant on its own, but combined with the horizontal plane the
/// full hash stays mirror-sensitive while gaining structure bits.
fn vdhash(bmp: &Bitmap) -> u64 {
    let mut cells = [[0.0f32; 8]; 9];
    for (gy, row) in cells.iter_mut().enumerate() {
        let y0 = gy * bmp.height() / 9;
        let y1 = ((gy + 1) * bmp.height() / 9).max(y0 + 1);
        for (gx, cell) in row.iter_mut().enumerate() {
            let x0 = gx * bmp.width() / 8;
            let x1 = ((gx + 1) * bmp.width() / 8).max(x0 + 1);
            *cell = bmp.mean_luminance(x0, y0, x1, y1);
        }
    }
    vdhash_bits(&cells)
}

/// 8×8 block chroma hash: mean (R − B) per block thresholded at the
/// median. Separates skin/sand warmth layouts that share luminance.
fn chroma_hash(bmp: &Bitmap) -> u64 {
    let mut means = [0.0f32; 64];
    let bw = bmp.width().div_ceil(8);
    let bh = bmp.height().div_ceil(8);
    for by in 0..8 {
        for bx in 0..8 {
            let (x0, y0) = (bx * bw, by * bh);
            let (x1, y1) = (
                ((bx + 1) * bw).min(bmp.width()),
                ((by + 1) * bh).min(bmp.height()),
            );
            if x0 >= x1 || y0 >= y1 {
                continue;
            }
            let mut acc = 0.0f32;
            for y in y0..y1 {
                for x in x0..x1 {
                    let [r, _, b] = bmp.get(x, y);
                    acc += r as f32 - b as f32;
                }
            }
            means[by * 8 + bx] = acc / ((x1 - x0) * (y1 - y0)) as f32;
        }
    }
    median_bits(&means)
}

/// Incremental FNV-1a-64 over bytes — shared by [`content_digest`] and
/// the fused measurement kernel so both mix the identical byte stream.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    #[inline]
    pub(crate) fn mix(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x1000_0000_01B3);
    }
}

/// FNV-1a content digest for *exact* duplicate detection (the §4.2 dedup
/// that found 127 images present in ≥20 packs used byte identity).
pub fn content_digest(bmp: &Bitmap) -> u64 {
    let mut h = Fnv::new();
    h.mix((bmp.width() & 0xFF) as u8);
    h.mix((bmp.height() & 0xFF) as u8);
    for p in bmp.pixels() {
        h.mix(p[0]);
        h.mix(p[1]);
        h.mix(p[2]);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ImageClass, ImageSpec};
    use crate::transform::Transform;

    fn sample(variant: u64) -> Bitmap {
        ImageSpec::model_photo(ImageClass::ModelNude, variant as u32 + 1, variant).render()
    }

    #[test]
    fn identical_images_have_zero_distance() {
        let a = sample(1);
        assert_eq!(RobustHash::of(&a).distance(&RobustHash::of(&a.clone())), 0);
    }

    #[test]
    fn unrelated_images_are_far_apart() {
        let mut min_d = u32::MAX;
        for i in 0..10u64 {
            for j in (i + 1)..10 {
                let d = RobustHash::of(&sample(i)).distance(&RobustHash::of(&sample(j)));
                min_d = min_d.min(d);
            }
        }
        assert!(
            min_d > DEFAULT_MATCH_THRESHOLD,
            "closest unrelated pair at {min_d} bits"
        );
    }

    #[test]
    fn survives_brightness_shift() {
        for v in 0..10 {
            let orig = sample(v);
            let shifted = Transform::Brightness(25).apply(&orig);
            let d = RobustHash::of(&orig).distance(&RobustHash::of(&shifted));
            assert!(d <= DEFAULT_MATCH_THRESHOLD, "variant {v}: {d} bits");
        }
    }

    #[test]
    fn survives_compression_noise() {
        for v in 0..10 {
            let orig = sample(v);
            let noisy = Transform::Noise {
                amplitude: 8,
                seed: v,
            }
            .apply(&orig);
            let d = RobustHash::of(&orig).distance(&RobustHash::of(&noisy));
            assert!(d <= DEFAULT_MATCH_THRESHOLD, "variant {v}: {d} bits");
        }
    }

    #[test]
    fn survives_watermark() {
        for v in 0..10 {
            let orig = sample(v);
            let marked = Transform::Watermark { seed: v }.apply(&orig);
            let d = RobustHash::of(&orig).distance(&RobustHash::of(&marked));
            assert!(d <= DEFAULT_MATCH_THRESHOLD, "variant {v}: {d} bits");
        }
    }

    #[test]
    fn survives_resize_almost_always() {
        // Nearest-neighbour downsampling is the lossiest benign transform;
        // a small miss rate is acceptable (real engines lose some resized
        // copies too).
        let mut hits = 0;
        for v in 0..10 {
            let orig = sample(v);
            let resized = orig.resize(48, 48);
            let d = RobustHash::of(&orig).distance(&RobustHash::of(&resized));
            if d <= DEFAULT_MATCH_THRESHOLD {
                hits += 1;
            }
        }
        assert!(hits >= 8, "only {hits}/10 resizes matched");
    }

    #[test]
    fn mirroring_defeats_the_hash() {
        // The paper: actors mirror images "to bypass reverse searches".
        let mut defeated = 0;
        for v in 0..10 {
            let orig = sample(v);
            let mirrored = Transform::MirrorHorizontal.apply(&orig);
            if RobustHash::of(&orig).distance(&RobustHash::of(&mirrored)) > DEFAULT_MATCH_THRESHOLD
            {
                defeated += 1;
            }
        }
        assert!(defeated >= 8, "mirror only defeated {defeated}/10 hashes");
    }

    #[test]
    fn content_digest_detects_exact_duplicates_only() {
        let a = sample(1);
        let b = sample(1);
        let c = sample(2);
        assert_eq!(content_digest(&a), content_digest(&b));
        assert_ne!(content_digest(&a), content_digest(&c));
        let shifted = Transform::Brightness(1).apply(&a);
        assert_ne!(content_digest(&a), content_digest(&shifted));
    }
}
