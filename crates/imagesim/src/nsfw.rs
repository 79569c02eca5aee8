//! Nudity scoring (OpenNSFW analogue).
//!
//! Yahoo's OpenNSFW returns "a probability score of an image containing
//! indecent content" (paper §4.4). The pipeline's Algorithm 1 consumes only
//! that scalar, so this substitute reproduces its *score distribution per
//! image class* rather than its CNN: it measures the fraction of skin-tone
//! pixels and maps it through a logistic calibration chosen so that
//!
//! * text/UI screenshots score ≈ 0 (paper: "non-nude images receive a NSFW
//!   score lower than 30%", screenshots well under the 1% branch);
//! * clothed model photos land in the ambiguous 0.1–0.7 band the paper
//!   reports for "clothed models with high proportion of human body";
//! * nude/sexual photos score far above the 0.3 NSFV threshold;
//! * skin-coloured scenery (beach sand) can leak into the 0.01–0.3 band —
//!   the false-positive mode the paper explicitly discusses.

use crate::bitmap::Bitmap;

/// Skin-tone predicate over RGB. Matches the warm high-red band used by the
/// generators plus a tolerance, wide enough to also catch beach sand — a
/// deliberate property (see module docs):
///
/// `r > 170`, `r·55/100 < g < r·92/100`, `r·38/100 < b < r·78/100` and
/// `r − b > 40`, in integer arithmetic.
///
/// For each `r` the accepted `g` and `b` values are one range each, read
/// from a static table: the test is two unsigned range checks joined by
/// a non-short-circuit `&`, with no branch. `skin_ranges_match_the_bounds`
/// checks it against the `&&` chain above for all 2²⁴ colours.
#[inline]
pub fn is_skin(p: [u8; 3]) -> bool {
    let [r, g, b] = p;
    let [g0, g_len, b0, b_len] = SKIN_RANGES[r as usize];
    (g.wrapping_sub(g0) < g_len) & (b.wrapping_sub(b0) < b_len)
}

/// `SKIN_RANGES[r] = [g0, g_len, b0, b_len]`: the skin pixels of red `r`
/// are those with `g0 <= g < g0 + g_len` and `b0 <= b < b0 + b_len`.
/// Lengths are 0 for `r <= 170`. Every range ends at or below 256, so a
/// `g < g0` wraps to at least `256 - g0 >= g_len` and fails the check.
static SKIN_RANGES: [[u8; 4]; 256] = {
    let mut t = [[0u8; 4]; 256];
    let mut r = 171;
    while r < 256 {
        let (g0, g_end) = (r * 55 / 100 + 1, r * 92 / 100);
        let b0 = r * 38 / 100 + 1;
        let b_end = if r * 78 / 100 < r - 40 {
            r * 78 / 100
        } else {
            r - 40
        };
        t[r] = [
            g0 as u8,
            g_end.saturating_sub(g0) as u8,
            b0 as u8,
            b_end.saturating_sub(b0) as u8,
        ];
        r += 1;
    }
    t
};

/// Fraction of skin pixels in the bitmap.
pub fn skin_fraction(bmp: &Bitmap) -> f64 {
    bmp.fraction_where(is_skin)
}

/// The NSFW probability score in `[0, 1]`.
///
/// Logistic in skin coverage: `sigma(14 * (skin - 0.40))`. Calibration
/// (see module docs) places coverage 0 at ≈0.004, 0.19 at ≈0.05, 0.33 at
/// ≈0.3, and 0.5+ at ≈0.8+.
pub fn nsfw_score(bmp: &Bitmap) -> f64 {
    nsfw_score_from_fraction(skin_fraction(bmp))
}

/// The logistic calibration applied to a skin fraction — the single
/// shared expression behind [`nsfw_score`] and the fused measurement
/// kernel (both produce bit-identical f64 scores from the same count).
#[inline]
pub fn nsfw_score_from_fraction(f: f64) -> f64 {
    1.0 / (1.0 + (-(f - 0.40) * 14.0).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ImageClass, ImageSpec, PaymentPlatform};

    fn score_of(class: ImageClass, model: u32, variant: u64) -> f64 {
        let spec = if class.is_model() {
            ImageSpec::model_photo(class, model, variant)
        } else {
            ImageSpec::of(class, variant)
        };
        nsfw_score(&spec.render())
    }

    #[test]
    fn nude_and_sexual_exceed_nsfv_threshold() {
        for v in 0..20 {
            assert!(
                score_of(ImageClass::ModelNude, v as u32 + 1, v) > 0.3,
                "nude variant {v}"
            );
            assert!(
                score_of(ImageClass::ModelSexual, v as u32 + 1, v) > 0.3,
                "sexual variant {v}"
            );
        }
    }

    #[test]
    fn payment_screenshots_score_near_zero() {
        for v in 0..20 {
            let s = score_of(
                ImageClass::PaymentScreenshot(PaymentPlatform::AmazonGiftCard),
                0,
                v,
            );
            assert!(s < 0.05, "variant {v} scored {s}");
        }
    }

    #[test]
    fn documents_score_below_001() {
        for v in 0..10 {
            let s = score_of(ImageClass::Document, 0, v);
            assert!(s < 0.01, "variant {v} scored {s}");
        }
    }

    #[test]
    fn dressed_models_land_in_ambiguous_band() {
        // Paper: clothed models score between 10% and 70%.
        let mut in_band = 0;
        let n = 30;
        for v in 0..n {
            let s = score_of(ImageClass::ModelDressed, v as u32 + 1, v);
            if (0.05..0.85).contains(&s) {
                in_band += 1;
            }
        }
        assert!(in_band as f64 / n as f64 > 0.8, "{in_band}/{n} in band");
    }

    #[test]
    fn some_landscapes_are_false_positive_prone() {
        // Beach scenes must sometimes score above the SFV fast-path (0.01):
        // this is the §4.4 false-positive mode we reproduce.
        let mut above = 0;
        for v in 0..60 {
            if score_of(ImageClass::Landscape, 0, v) > 0.01 {
                above += 1;
            }
        }
        // Beach scenes occur in ~18% of landscapes; most of those leak
        // past the SFV fast path (the §4.4 false-positive mode).
        assert!(
            (5..=25).contains(&above),
            "{above}/60 landscapes above 0.01"
        );
    }

    /// The `&&` chain over `i32` arithmetic that the range table encodes.
    fn is_skin_chain(p: [u8; 3]) -> bool {
        let [r, g, b] = p;
        let (r, g, b) = (r as i32, g as i32, b as i32);
        r > 170
            && g > r * 55 / 100
            && g < r * 92 / 100
            && b > r * 38 / 100
            && b < r * 78 / 100
            && r - b > 40
    }

    #[test]
    fn skin_ranges_match_the_bounds() {
        for r in 0..=255u8 {
            for g in 0..=255u8 {
                for b in 0..=255u8 {
                    let p = [r, g, b];
                    assert_eq!(is_skin(p), is_skin_chain(p), "{p:?}");
                }
            }
        }
    }

    #[test]
    fn skin_predicate_rejects_ui_colors() {
        assert!(!is_skin([255, 255, 255]));
        assert!(!is_skin([0, 48, 135])); // PayPal blue
        assert!(!is_skin([40, 40, 48])); // ink
        assert!(!is_skin([60, 120, 180])); // sea
        assert!(!is_skin([98, 98, 98])); // gray
    }

    #[test]
    fn skin_predicate_accepts_sand() {
        assert!(is_skin([214, 180, 140]), "beach sand must read as skin");
    }

    #[test]
    fn score_is_monotone_in_skin_fraction() {
        use crate::bitmap::Bitmap;
        let empty = Bitmap::canvas([255, 255, 255]);
        let mut half = Bitmap::canvas([255, 255, 255]);
        half.fill_rect(0, 0, 64, 32, [220, 172, 140]);
        let full = Bitmap::canvas([220, 172, 140]);
        let (a, b, c) = (nsfw_score(&empty), nsfw_score(&half), nsfw_score(&full));
        assert!(a < b && b < c, "{a} < {b} < {c}");
    }
}
