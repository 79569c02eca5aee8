//! OCR word counting (Tesseract analogue).
//!
//! The pipeline's Algorithm 1 consumes Tesseract's output only as "the
//! number of words recognised in an image" (paper §4.4). This module
//! implements a real glyph detector over the synthetic rasters: it finds
//! connected dark components on light background and counts those with
//! word-like geometry. Screenshots and documents yield tens of words;
//! photos and landscapes yield nearly none.

use crate::bitmap::Bitmap;

/// Luminance below which a pixel counts as ink.
const INK_THRESHOLD: f32 = 80.0;
/// Local background must be at least this bright for a component to count
/// as text (ink on dark photos is not text).
const BG_THRESHOLD: f32 = 150.0;
/// Word-geometry limits (canonical 64×64 canvas).
const MAX_WORD_WIDTH: usize = 16;
const MAX_WORD_HEIGHT: usize = 3;
const MIN_WORD_WIDTH: usize = 2;

/// A maximal horizontal span of ink pixels in one row (`x1` inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Run {
    pub(crate) y: usize,
    pub(crate) x0: usize,
    pub(crate) x1: usize,
}

/// Appends this row's ink runs (luminance below [`INK_THRESHOLD`]) to
/// `runs`, given the row's already-computed per-pixel luminances.
///
/// The row is read 64 pixels at a time into an ink bit mask, with no
/// branch per pixel; runs are then read off the mask with
/// `trailing_zeros`, one step per run edge. A run that reaches the end
/// of a word stays open into the next. The per-pixel edge walk this
/// replaces stays in the tests as its oracle.
#[inline]
pub(crate) fn row_runs_into(y: usize, row_lum: &[f32], runs: &mut Vec<Run>) {
    let mut open: Option<usize> = None;
    for (word, lums) in row_lum.chunks(64).enumerate() {
        let base = word * 64;
        let ink = lums
            .iter()
            .enumerate()
            .fold(0u64, |m, (i, &l)| m | (((l < INK_THRESHOLD) as u64) << i));
        let gaps = !ink & (u64::MAX >> (64 - lums.len()));
        let mut from = 0;
        loop {
            let x0 = match open {
                Some(x0) => x0,
                None => {
                    let rest = ink & (u64::MAX << from);
                    if rest == 0 {
                        break;
                    }
                    from = rest.trailing_zeros();
                    base + from as usize
                }
            };
            let rest = gaps & (u64::MAX << from);
            if rest == 0 {
                open = Some(x0);
                break;
            }
            from = rest.trailing_zeros();
            runs.push(Run {
                y,
                x0,
                x1: base + from as usize - 1,
            });
            open = None;
        }
    }
    if let Some(x0) = open {
        runs.push(Run {
            y,
            x0,
            x1: row_lum.len() - 1,
        });
    }
}

/// Extracts every row's ink runs into `runs` (cleared first).
pub(crate) fn collect_runs_into(bmp: &Bitmap, runs: &mut Vec<Run>) {
    runs.clear();
    let mut row_lum = vec![0.0f32; bmp.width()];
    for y in 0..bmp.height() {
        for (l, &p) in row_lum.iter_mut().zip(bmp.row(y)) {
            *l = crate::bitmap::lum(p);
        }
        row_runs_into(y, &row_lum, runs);
    }
}

/// Counts word-like components among pre-extracted ink runs: connected
/// runs on a light local background, between `MIN_WORD_WIDTH` and
/// `MAX_WORD_WIDTH` wide and at most `MAX_WORD_HEIGHT` tall. `runs` must
/// be in row order, as [`collect_runs_into`] produces them.
pub(crate) fn count_words(bmp: &Bitmap, runs: &[Run]) -> usize {
    if runs.is_empty() {
        return 0;
    }

    // 1. Union-find over vertically adjacent, horizontally overlapping runs.
    let mut parent: Vec<usize> = (0..runs.len()).collect();
    fn find(parent: &mut [usize], i: usize) -> usize {
        let mut i = i;
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    // Runs arrive in row order; link each run to overlapping runs of the
    // previous row with a sliding window.
    let mut prev_row_start = 0;
    let mut row_start = 0;
    #[allow(clippy::needless_range_loop)] // i indexes both runs and a sliding window
    for i in 0..runs.len() {
        if i > 0 && runs[i].y != runs[i - 1].y {
            prev_row_start = row_start;
            row_start = i;
        }
        if runs[i].y == 0 {
            continue;
        }
        for j in prev_row_start..row_start {
            if runs[j].y + 1 != runs[i].y {
                continue;
            }
            let overlap = runs[j].x0 <= runs[i].x1 && runs[i].x0 <= runs[j].x1;
            if overlap {
                let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                if a != b {
                    parent[a] = b;
                }
            }
        }
    }

    // 2. Aggregate component bounding boxes.
    use std::collections::HashMap;
    struct BBox {
        x0: usize,
        x1: usize,
        y0: usize,
        y1: usize,
    }
    let mut boxes: HashMap<usize, BBox> = HashMap::new();
    for (i, r) in runs.iter().enumerate() {
        let component = find(&mut parent, i);
        let e = boxes.entry(component).or_insert(BBox {
            x0: r.x0,
            x1: r.x1,
            y0: r.y,
            y1: r.y,
        });
        e.x0 = e.x0.min(r.x0);
        e.x1 = e.x1.max(r.x1);
        e.y0 = e.y0.min(r.y);
        e.y1 = e.y1.max(r.y);
    }

    // 3. Count word-shaped components with light surroundings.
    boxes
        .values()
        .filter(|b| {
            let w = b.x1 - b.x0 + 1;
            let h = b.y1 - b.y0 + 1;
            if !(MIN_WORD_WIDTH..=MAX_WORD_WIDTH).contains(&w) || h > MAX_WORD_HEIGHT {
                return false;
            }
            // Local background: a margin ring around the box must be light.
            let mx0 = b.x0.saturating_sub(2);
            let my0 = b.y0.saturating_sub(2);
            let ring = bmp.mean_luminance(mx0, my0, b.x1 + 3, b.y1 + 3);
            ring > BG_THRESHOLD * 0.72 // box mean includes the ink itself
        })
        .count()
}

/// Counts word-like components: connected dark runs on a light local
/// background, between `MIN_WORD_WIDTH` and `MAX_WORD_WIDTH` wide and at
/// most `MAX_WORD_HEIGHT` tall.
pub fn ocr_word_count(bmp: &Bitmap) -> usize {
    let mut runs = Vec::new();
    collect_runs_into(bmp, &mut runs);
    count_words(bmp, &runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ImageClass, ImageSpec, PaymentPlatform};

    /// The per-pixel edge walk that the mask extraction replaced.
    fn row_runs_per_pixel(y: usize, row_lum: &[f32], runs: &mut Vec<Run>) {
        let mut start: Option<usize> = None;
        for (x, &l) in row_lum.iter().enumerate() {
            if l < INK_THRESHOLD {
                start.get_or_insert(x);
            } else if let Some(x0) = start.take() {
                runs.push(Run { y, x0, x1: x - 1 });
            }
        }
        if let Some(x0) = start {
            runs.push(Run {
                y,
                x0,
                x1: row_lum.len() - 1,
            });
        }
    }

    #[test]
    fn mask_runs_match_the_per_pixel_walk() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x1A7);
        for case in 0..5_000 {
            let n = rng.gen_range(1..200);
            // Ink densities from none to all, plus values on the threshold.
            let p_ink: f64 = rng.gen_range(0.0..1.0);
            let row: Vec<f32> = (0..n)
                .map(|_| match rng.gen_range(0..10) {
                    0 => INK_THRESHOLD,
                    _ if rng.gen_bool(p_ink) => rng.gen_range(0.0..INK_THRESHOLD),
                    _ => rng.gen_range(INK_THRESHOLD..255.0),
                })
                .collect();
            let (mut mask, mut walk) = (vec![Run { y: 0, x0: 0, x1: 0 }], Vec::new());
            walk.push(mask[0]);
            row_runs_into(case, &row, &mut mask);
            row_runs_per_pixel(case, &row, &mut walk);
            assert_eq!(mask, walk, "width {n}");
        }
    }

    fn words_of(class: ImageClass, model: u32, variant: u64) -> usize {
        let spec = if class.is_model() {
            ImageSpec::model_photo(class, model, variant)
        } else {
            ImageSpec::of(class, variant)
        };
        ocr_word_count(&spec.render())
    }

    #[test]
    fn documents_yield_many_words() {
        for v in 0..10 {
            let w = words_of(ImageClass::Document, 0, v);
            assert!(w > 20, "document variant {v}: {w} words");
        }
    }

    #[test]
    fn payment_screenshots_exceed_algorithm1_thresholds() {
        for v in 0..20 {
            let w = words_of(ImageClass::PaymentScreenshot(PaymentPlatform::PayPal), 0, v);
            assert!(w > 20, "payment variant {v}: {w} words");
        }
    }

    #[test]
    fn chat_screenshots_have_words() {
        for v in 0..10 {
            let w = words_of(ImageClass::ChatScreenshot, 0, v);
            assert!(w > 10, "chat variant {v}: {w} words");
        }
    }

    #[test]
    fn model_photos_yield_few_words() {
        for v in 0..10 {
            for class in [
                ImageClass::ModelDressed,
                ImageClass::ModelNude,
                ImageClass::ModelSexual,
            ] {
                let w = words_of(class, v as u32 + 1, v);
                assert!(w <= 10, "{class:?} variant {v}: {w} words");
            }
        }
    }

    #[test]
    fn landscapes_yield_almost_no_words() {
        for v in 0..10 {
            let w = words_of(ImageClass::Landscape, 0, v);
            assert!(w <= 5, "landscape variant {v}: {w} words");
        }
    }

    /// Pins exact run boundaries, including a run touching the right
    /// edge — the case the end-of-row flush exists for — and verifies
    /// each pixel's luminance is consulted exactly once per scan.
    #[test]
    fn run_extraction_pins_boundaries_and_scans_each_pixel_once() {
        use crate::bitmap::Bitmap;
        let mut b = Bitmap::filled(10, 3, [255; 3]);
        // Row 0: ink at [2,4] and an isolated pixel at 7.
        for x in 2..=4 {
            b.set(x, 0, [0; 3]);
        }
        b.set(7, 0, [0; 3]);
        // Row 2: ink at [6,9], running into the right edge.
        for x in 6..=9 {
            b.set(x, 2, [0; 3]);
        }
        let mut runs = Vec::new();
        collect_runs_into(&b, &mut runs);
        assert_eq!(
            runs,
            vec![
                Run { y: 0, x0: 2, x1: 4 },
                Run { y: 0, x0: 7, x1: 7 },
                Run { y: 2, x0: 6, x1: 9 },
            ]
        );

        // Degenerate rows: all ink (one full-width run) and no ink.
        let mut pinned = Vec::new();
        row_runs_into(5, &[0.0; 4], &mut pinned);
        assert_eq!(pinned, vec![Run { y: 5, x0: 0, x1: 3 }]);
        pinned.clear();
        row_runs_into(6, &[255.0; 4], &mut pinned);
        assert!(pinned.is_empty());
    }

    #[test]
    fn blank_canvas_has_zero_words() {
        use crate::bitmap::Bitmap;
        assert_eq!(ocr_word_count(&Bitmap::canvas([255; 3])), 0);
        assert_eq!(ocr_word_count(&Bitmap::canvas([0; 3])), 0); // dark, no bg
    }

    #[test]
    fn single_word_is_counted_once() {
        use crate::bitmap::Bitmap;
        let mut b = Bitmap::canvas([255; 3]);
        b.fill_rect(10, 10, 16, 12, [0; 3]);
        assert_eq!(ocr_word_count(&b), 1);
    }

    #[test]
    fn ink_on_dark_background_is_not_text() {
        use crate::bitmap::Bitmap;
        let mut b = Bitmap::canvas([60; 3]);
        b.fill_rect(10, 10, 16, 12, [0; 3]);
        assert_eq!(ocr_word_count(&b), 0);
    }
}
