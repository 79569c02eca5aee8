//! Image modifications applied by eWhoring actors.
//!
//! The paper documents that "actors purposely modify these images to bypass
//! reverse image searches" (§4.5) — watermarks, shadowing, and mirroring
//! (the latter "can be easily performed using automated tools, which are
//! shared in underground forums"). Transforms are serialisable values so
//! the world generator can record which modification a pack image carries
//! and the reverse-search evaluation can measure which ones defeat hashing.

use crate::bitmap::Bitmap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A single modification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Transform {
    /// No modification (the image is reposted as-is).
    Identity,
    /// Horizontal flip — defeats non-mirror-invariant hashing.
    MirrorHorizontal,
    /// Semi-transparent watermark strip (site tag or actor tag).
    Watermark {
        /// Position/appearance seed.
        seed: u64,
    },
    /// Global brightness shift (positive or negative).
    Brightness(i16),
    /// Per-pixel noise, approximating recompression artefacts.
    Noise {
        /// Maximum per-channel perturbation.
        amplitude: i16,
        /// Noise stream seed.
        seed: u64,
    },
    /// Crop a margin of `percent`% on every side, then scale back up.
    CropMargin {
        /// Margin percentage in `1..=20`.
        percent: u8,
    },
    /// Black occlusion bar (face/eyes censoring, "shadowing parts").
    OcclusionBar {
        /// Position seed.
        seed: u64,
    },
}

impl Transform {
    /// Applies the transform, producing a new bitmap of the same size.
    pub fn apply(&self, bmp: &Bitmap) -> Bitmap {
        let mut out = bmp.clone();
        let mut tmp = Bitmap::filled(1, 1, [0; 3]);
        self.apply_into(&mut out, &mut tmp);
        out
    }

    /// Applies the transform in place. `tmp` is caller-owned scratch
    /// (only `CropMargin` uses it) so a hot loop can reuse both
    /// allocations across images. Produces exactly the pixels
    /// [`Transform::apply`] does — `apply` delegates here.
    pub fn apply_into(&self, bmp: &mut Bitmap, tmp: &mut Bitmap) {
        match *self {
            Transform::Identity => {}
            Transform::MirrorHorizontal => mirror_h(bmp),
            Transform::Watermark { seed } => watermark(bmp, seed),
            Transform::Brightness(delta) => brightness(bmp, delta),
            Transform::Noise { amplitude, seed } => noise(bmp, amplitude, seed),
            Transform::CropMargin { percent } => crop_margin(bmp, tmp, percent),
            Transform::OcclusionBar { seed } => occlusion(bmp, seed),
        }
    }

    /// True for transforms that empirically defeat the robust hash
    /// (used by the generator to plant "zero-match" pack images).
    pub fn defeats_hash(&self) -> bool {
        matches!(self, Transform::MirrorHorizontal)
    }
}

fn mirror_h(bmp: &mut Bitmap) {
    let w = bmp.width();
    for row in bmp.pixels_mut().chunks_exact_mut(w) {
        row.reverse();
    }
}

fn watermark(bmp: &mut Bitmap, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3A7E_12A2_4B5C_99D1);
    let y0 = rng.gen_range(0..bmp.height().saturating_sub(6));
    let x0 = rng.gen_range(0..bmp.width() / 2);
    let x1 = (x0 + bmp.width() / 3).min(bmp.width());
    // 50% alpha white strip with a dark tag inside.
    for y in y0..(y0 + 5).min(bmp.height()) {
        for x in x0..x1 {
            let [r, g, b] = bmp.get(x, y);
            bmp.set(
                x,
                y,
                [
                    ((r as u16 + 255) / 2) as u8,
                    ((g as u16 + 255) / 2) as u8,
                    ((b as u16 + 255) / 2) as u8,
                ],
            );
        }
    }
    bmp.fill_rect(x0 + 2, y0 + 2, x1.saturating_sub(2), y0 + 4, [40, 40, 40]);
}

fn brightness(bmp: &mut Bitmap, delta: i16) {
    for p in bmp.pixels_mut() {
        let adj = |c: u8| (c as i16 + delta).clamp(0, 255) as u8;
        *p = [adj(p[0]), adj(p[1]), adj(p[2])];
    }
}

/// Jitter at the transform's amplitude. Generated worlds draw
/// amplitudes in `4..10`; each of those runs the const-amplitude body,
/// and any other amplitude the run-time one — the same draws either way.
fn noise(bmp: &mut Bitmap, amplitude: i16, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4E01_5E00);
    match amplitude.max(1) {
        4 => bmp.jitter::<4>(&mut rng),
        5 => bmp.jitter::<5>(&mut rng),
        6 => bmp.jitter::<6>(&mut rng),
        7 => bmp.jitter::<7>(&mut rng),
        8 => bmp.jitter::<8>(&mut rng),
        9 => bmp.jitter::<9>(&mut rng),
        amp => bmp.jitter_dyn(&mut rng, amp),
    }
}

fn crop_margin(bmp: &mut Bitmap, tmp: &mut Bitmap, percent: u8) {
    let (ow, oh) = (bmp.width(), bmp.height());
    let pct = percent.clamp(1, 20) as usize;
    let mx = ow * pct / 100;
    let my = oh * pct / 100;
    let w = ow - 2 * mx;
    let h = oh - 2 * my;
    tmp.reset(w.max(1), h.max(1), [0; 3]);
    for y in 0..h {
        for x in 0..w {
            tmp.set(x, y, bmp.get(x + mx, y + my));
        }
    }
    tmp.resize_into(ow, oh, bmp);
}

fn occlusion(bmp: &mut Bitmap, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0CC1_0510);
    let y0 = rng.gen_range(4..bmp.height() / 2);
    bmp.fill_rect(8, y0, bmp.width() - 8, y0 + 4, [5, 5, 5]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ImageClass, ImageSpec};

    fn sample() -> Bitmap {
        ImageSpec::model_photo(ImageClass::ModelNude, 11, 4).render()
    }

    #[test]
    fn identity_is_exact() {
        let b = sample();
        assert_eq!(Transform::Identity.apply(&b), b);
    }

    #[test]
    fn mirror_is_involutive() {
        let b = sample();
        let twice = Transform::MirrorHorizontal.apply(&Transform::MirrorHorizontal.apply(&b));
        assert_eq!(twice, b);
    }

    #[test]
    fn transforms_preserve_dimensions() {
        let b = sample();
        for t in [
            Transform::MirrorHorizontal,
            Transform::Watermark { seed: 3 },
            Transform::Brightness(-30),
            Transform::Noise {
                amplitude: 8,
                seed: 5,
            },
            Transform::CropMargin { percent: 10 },
            Transform::OcclusionBar { seed: 2 },
        ] {
            let out = t.apply(&b);
            assert_eq!(out.width(), b.width(), "{t:?}");
            assert_eq!(out.height(), b.height(), "{t:?}");
        }
    }

    #[test]
    fn transforms_are_deterministic() {
        let b = sample();
        let t = Transform::Noise {
            amplitude: 8,
            seed: 5,
        };
        assert_eq!(t.apply(&b), t.apply(&b));
    }

    #[test]
    fn brightness_clamps_at_bounds() {
        let b = Bitmap::canvas([250; 3]);
        let bright = Transform::Brightness(20).apply(&b);
        assert_eq!(bright.get(0, 0), [255; 3]);
        let dark = Transform::Brightness(-255).apply(&b);
        assert_eq!(dark.get(0, 0), [0; 3]);
    }

    #[test]
    fn watermark_changes_a_limited_region() {
        let b = sample();
        let marked = Transform::Watermark { seed: 1 }.apply(&b);
        let changed = b
            .pixels()
            .iter()
            .zip(marked.pixels())
            .filter(|(a, m)| a != m)
            .count();
        let total = b.pixels().len();
        assert!(changed > 0);
        assert!(
            (changed as f64) < total as f64 * 0.15,
            "watermark touched {changed}/{total} pixels"
        );
    }

    #[test]
    fn apply_into_with_reused_scratch_matches_apply() {
        let b = sample();
        let mut work = Bitmap::filled(1, 1, [0; 3]);
        let mut tmp = Bitmap::filled(1, 1, [0; 3]);
        for t in [
            Transform::Identity,
            Transform::CropMargin { percent: 10 },
            Transform::MirrorHorizontal,
            Transform::Watermark { seed: 3 },
            Transform::CropMargin { percent: 1 },
            Transform::Brightness(-30),
            Transform::Noise {
                amplitude: 8,
                seed: 5,
            },
            Transform::CropMargin { percent: 20 },
            Transform::OcclusionBar { seed: 2 },
        ] {
            work.clone_from(&b);
            t.apply_into(&mut work, &mut tmp);
            assert_eq!(work, t.apply(&b), "{t:?}");
        }
    }

    #[test]
    fn noise_matches_the_per_pixel_body_at_every_amplitude() {
        let bases = [
            sample(),
            ImageSpec::of(ImageClass::Document, 3).render(),
            ImageSpec::of(ImageClass::Landscape, 8).render(),
        ];
        for amplitude in -2..=14i16 {
            for seed in 0..6u64 {
                let base = &bases[seed as usize % bases.len()];
                let mut oracle = base.clone();
                let mut rng = StdRng::seed_from_u64(seed ^ 0x4E01_5E00);
                let amp = amplitude.max(1);
                for y in 0..oracle.height() {
                    for x in 0..oracle.width() {
                        let d = rng.gen_range(-amp..=amp);
                        let adj = |c: u8| (c as i16 + d).clamp(0, 255) as u8;
                        let p = oracle.get(x, y);
                        oracle.set(x, y, [adj(p[0]), adj(p[1]), adj(p[2])]);
                    }
                }
                let t = Transform::Noise { amplitude, seed };
                assert_eq!(t.apply(base), oracle, "{t:?}");
            }
        }
    }

    #[test]
    fn only_mirror_reports_defeating_hash() {
        assert!(Transform::MirrorHorizontal.defeats_hash());
        assert!(!Transform::Watermark { seed: 0 }.defeats_hash());
        assert!(!Transform::Identity.defeats_hash());
    }
}
