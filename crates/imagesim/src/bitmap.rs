//! Small RGB rasters with the drawing and sampling primitives the
//! generators and classifiers need.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Canonical render size. Large enough for 8×8 block hashing and glyph-row
/// detection, small enough to render hundreds of thousands of images.
pub const SIZE: usize = 64;

/// An RGB bitmap. Pixels are row-major `[r, g, b]`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bitmap {
    width: usize,
    height: usize,
    px: Vec<[u8; 3]>,
}

impl Bitmap {
    /// Creates a bitmap filled with `color`.
    pub fn filled(width: usize, height: usize, color: [u8; 3]) -> Bitmap {
        assert!(width > 0 && height > 0, "empty bitmap");
        Bitmap {
            width,
            height,
            px: vec![color; width * height],
        }
    }

    /// Creates the canonical 64×64 bitmap filled with `color`.
    pub fn canvas(color: [u8; 3]) -> Bitmap {
        Bitmap::filled(SIZE, SIZE, color)
    }

    /// Reshapes this bitmap to `width × height` filled with `color`,
    /// reusing the existing pixel allocation. The buffer-recycling
    /// equivalent of [`Bitmap::filled`] for render scratch arenas.
    pub fn reset(&mut self, width: usize, height: usize, color: [u8; 3]) {
        assert!(width > 0 && height > 0, "empty bitmap");
        self.width = width;
        self.height = height;
        self.px.clear();
        self.px.resize(width * height, color);
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel at `(x, y)`. Panics out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> [u8; 3] {
        self.px[y * self.width + x]
    }

    /// Sets pixel `(x, y)`; silently ignores out-of-bounds writes so
    /// generators can draw shapes that overlap the border.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, color: [u8; 3]) {
        if x < self.width && y < self.height {
            self.px[y * self.width + x] = color;
        }
    }

    /// Fills the axis-aligned rectangle `[x0, x1) × [y0, y1)` (clamped).
    pub fn fill_rect(&mut self, x0: usize, y0: usize, x1: usize, y1: usize, color: [u8; 3]) {
        for y in y0..y1.min(self.height) {
            for x in x0..x1.min(self.width) {
                self.px[y * self.width + x] = color;
            }
        }
    }

    /// Fills an ellipse centred at `(cx, cy)` with radii `(rx, ry)`.
    /// Used for heads/limbs/body masses in model-photo rendering.
    ///
    /// A pixel is inside when `dx² + dy² <= 1` with `dx = (x − cx)/rx`.
    /// Each step of that f32 expression rounds monotonically, so along
    /// one row the test is monotone in `|x − cx|`: the inside pixels of a
    /// row form one run. A scan from each end of the clipped bounding
    /// box finds the run's ends, and the run is filled without testing
    /// the pixels between them.
    pub fn fill_ellipse(&mut self, cx: f32, cy: f32, rx: f32, ry: f32, color: [u8; 3]) {
        if rx <= 0.0 || ry <= 0.0 {
            return;
        }
        let x_lo = (cx - rx).floor().max(0.0) as usize;
        let x_hi = ((cx + rx).ceil() as usize).min(self.width.saturating_sub(1));
        let y_lo = (cy - ry).floor().max(0.0) as usize;
        let y_hi = ((cy + ry).ceil() as usize).min(self.height.saturating_sub(1));
        for y in y_lo..=y_hi {
            let dy = (y as f32 - cy) / ry;
            let dy2 = dy * dy;
            let inside = |x: usize| {
                let dx = (x as f32 - cx) / rx;
                dx * dx + dy2 <= 1.0
            };
            let Some(first) = (x_lo..=x_hi).find(|&x| inside(x)) else {
                continue;
            };
            let last = (first..=x_hi).rev().find(|&x| inside(x)).unwrap_or(first);
            let row = y * self.width;
            self.px[row + first..=row + last].fill(color);
        }
    }

    /// Vertical gradient from `top` to `bottom` over the full canvas.
    pub fn fill_vgradient(&mut self, top: [u8; 3], bottom: [u8; 3]) {
        let (w, h) = (self.width, self.height);
        for (y, row) in self.px.chunks_exact_mut(w).enumerate() {
            let t = y as f32 / (h - 1).max(1) as f32;
            row.fill([
                lerp_u8(top[0], bottom[0], t),
                lerp_u8(top[1], bottom[1], t),
                lerp_u8(top[2], bottom[2], t),
            ]);
        }
    }

    /// Multiplies every pixel by a per-column factor interpolated from
    /// `left` to `right` — directional lighting falloff. Factors are
    /// clamped to `[0, 2]`. Channels are independent, so the walk runs
    /// over each row's flat bytes against a per-byte factor row (each
    /// column's factor three times): the same bytes as a per-pixel walk,
    /// in a loop without cross-lane state.
    pub fn shade_columns(&mut self, left: f32, right: f32) {
        let w = self.width;
        let factors: Vec<f32> = (0..w)
            .flat_map(|x| {
                let t = x as f32 / (w - 1).max(1) as f32;
                [(left + (right - left) * t).clamp(0.0, 2.0); 3]
            })
            .collect();
        for row in self.px.as_flattened_mut().chunks_exact_mut(3 * w) {
            for (c, &f) in row.iter_mut().zip(&factors) {
                *c = shade_u8(*c, f);
            }
        }
    }

    /// Rec. 601 luminance in `[0, 255]`.
    #[inline]
    pub fn luminance(&self, x: usize, y: usize) -> f32 {
        lum(self.get(x, y))
    }

    /// Mean luminance of the rectangle `[x0, x1) × [y0, y1)` (clamped).
    /// Returns 0 for empty intersections.
    pub fn mean_luminance(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> f32 {
        let x1 = x1.min(self.width);
        let y1 = y1.min(self.height);
        if x0 >= x1 || y0 >= y1 {
            return 0.0;
        }
        let mut acc = 0.0;
        for y in y0..y1 {
            for x in x0..x1 {
                acc += self.luminance(x, y);
            }
        }
        acc / ((x1 - x0) * (y1 - y0)) as f32
    }

    /// Nearest-neighbour resample to `w × h`.
    pub fn resize(&self, w: usize, h: usize) -> Bitmap {
        let mut out = Bitmap::filled(1, 1, [0, 0, 0]);
        self.resize_into(w, h, &mut out);
        out
    }

    /// [`Bitmap::resize`] into an existing bitmap, reusing its
    /// allocation. `out` must not alias `self`.
    pub fn resize_into(&self, w: usize, h: usize, out: &mut Bitmap) {
        assert!(w > 0 && h > 0, "empty resize target");
        out.reset(w, h, [0, 0, 0]);
        for y in 0..h {
            let sy = y * self.height / h;
            for x in 0..w {
                let sx = x * self.width / w;
                out.px[y * w + x] = self.get(sx, sy);
            }
        }
    }

    /// One pixel row as a slice (the fused measurement kernel walks rows).
    #[inline]
    pub fn row(&self, y: usize) -> &[[u8; 3]] {
        &self.px[y * self.width..(y + 1) * self.width]
    }

    /// Mutable raw pixel access for this crate's row-major hot loops
    /// (per-pixel transforms) — same raster, minus the per-pixel index
    /// arithmetic and bounds checks of [`Bitmap::set`].
    #[inline]
    pub(crate) fn pixels_mut(&mut self) -> &mut [[u8; 3]] {
        &mut self.px
    }

    /// Adds deterministic per-pixel jitter: one `gen_range(-A..=A)` draw
    /// per pixel in row-major order, added to all three channels and
    /// clamped. Every render ends with it, so images are textured rather
    /// than flat (block hashing must tolerate this), and
    /// [`crate::Transform::Noise`] uses it to approximate recompression.
    ///
    /// `A` is a const generic so that the draw's `%` reductions by the
    /// span `2A + 1` compile to multiplies; the draws, and so the
    /// pixels, are those of [`Bitmap::jitter_dyn`] with `amp = A`.
    pub(crate) fn jitter<const A: i16>(&mut self, rng: &mut StdRng) {
        self.jitter_dyn(rng, A);
    }

    /// [`Bitmap::jitter`] with an amplitude known only at run time; the
    /// one jitter body, always inlined so a constant `amp` folds.
    ///
    /// It works in chunks of 64 pixels: one loop draws the chunk's deltas
    /// in pixel order (each written once per channel byte), and one loop
    /// adds them to the chunk's flat bytes with the clamp. The second
    /// loop has no cross-lane state, so it vectorizes.
    #[inline(always)]
    pub(crate) fn jitter_dyn(&mut self, rng: &mut StdRng, amp: i16) {
        const CHUNK: usize = 64;
        let mut deltas = [0i16; 3 * CHUNK];
        for chunk in self.px.chunks_mut(CHUNK) {
            for (d, _) in deltas.chunks_exact_mut(3).zip(chunk.iter()) {
                d.fill(rng.gen_range(-amp..=amp));
            }
            for (c, &d) in chunk.as_flattened_mut().iter_mut().zip(&deltas) {
                *c = (*c as i16 + d).clamp(0, 255) as u8;
            }
        }
    }

    /// Makes `self` a copy of `other`, reusing this bitmap's allocation
    /// (the scratch-arena analogue of `clone`).
    pub fn copy_from(&mut self, other: &Bitmap) {
        self.width = other.width;
        self.height = other.height;
        self.px.clear();
        self.px.extend_from_slice(&other.px);
    }

    /// Fraction of pixels satisfying `pred`.
    pub fn fraction_where(&self, pred: impl Fn([u8; 3]) -> bool) -> f64 {
        let hits = self.px.iter().filter(|&&p| pred(p)).count();
        hits as f64 / self.px.len() as f64
    }

    /// Raw pixel access (for hashing/digesting).
    pub fn pixels(&self) -> &[[u8; 3]] {
        &self.px
    }

    /// Encodes as binary PPM (P6) — the simplest portable image format,
    /// for eyeballing what the generators produce (`convert x.ppm x.png`).
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20 + self.px.len() * 3);
        out.extend_from_slice(format!("P6\n{} {}\n255\n", self.width, self.height).as_bytes());
        for p in &self.px {
            out.extend_from_slice(p);
        }
        out
    }

    /// Decodes a binary PPM produced by [`Bitmap::to_ppm`]. Returns `None`
    /// on anything that is not a well-formed P6 with max value 255.
    pub fn from_ppm(data: &[u8]) -> Option<Bitmap> {
        // Scan the four header tokens byte-wise (the body is binary, so a
        // UTF-8 parse of a fixed prefix would be fragile).
        let mut tokens: Vec<String> = Vec::with_capacity(4);
        let mut current = String::new();
        let mut body_start = None;
        for (i, &b) in data.iter().enumerate() {
            if b.is_ascii_whitespace() {
                if !current.is_empty() {
                    tokens.push(std::mem::take(&mut current));
                    if tokens.len() == 4 {
                        body_start = Some(i + 1);
                        break;
                    }
                }
            } else if b.is_ascii_graphic() {
                current.push(b as char);
            } else {
                return None; // binary byte inside the header
            }
        }
        let body_start = body_start?;
        if tokens[0] != "P6" {
            return None;
        }
        let width: usize = tokens[1].parse().ok()?;
        let height: usize = tokens[2].parse().ok()?;
        let maxval: usize = tokens[3].parse().ok()?;
        if maxval != 255 || width == 0 || height == 0 {
            return None;
        }
        let body = &data[body_start..];
        if body.len() != width * height * 3 {
            return None;
        }
        let mut bmp = Bitmap::filled(width, height, [0; 3]);
        for (i, chunk) in body.chunks_exact(3).enumerate() {
            bmp.px[i] = [chunk[0], chunk[1], chunk[2]];
        }
        Some(bmp)
    }
}

/// Rec. 601 luminance of one pixel. The single shared expression behind
/// [`Bitmap::luminance`] and the fused measurement kernel — both paths
/// evaluate the exact same f32 arithmetic, which is what makes the fused
/// kernel's block/gradient sums bit-identical to the per-rect reference.
#[inline]
pub(crate) fn lum(p: [u8; 3]) -> f32 {
    let [r, g, b] = p;
    0.299 * r as f32 + 0.587 * g as f32 + 0.114 * b as f32
}

/// `((c as f32 * f).round().clamp(0.0, 255.0)) as u8` without the libm
/// `roundf` call. For `v = c·f ≥ 0.5`, truncating `v + 0.5` equals
/// round-half-away-from-zero: `v`'s ulp is at least 2⁻²⁴ there, so any
/// rounding of the sum moves it by less than the distance to the next
/// truncation boundary. The truncation takes no float→int cast (a
/// saturating cast keeps the shading loop scalar): adding 2²³ to
/// `y = v + 0.5 < 512` leaves the nearest integer to `y` in the low
/// mantissa bits, minus one if that rounded up is `floor(y)`, and
/// `min(255)` is the upper clamp. Below 0.5 the answer is 0, guarded
/// explicitly because there `v + 0.5` can round up across 1.0 (e.g.
/// `v = 0.5 − 2⁻²⁵`). The equivalence is proved against the original
/// expression — every channel value × a dense factor sweep plus every
/// tie neighbourhood — in `shade_u8_matches_round_clamp_exactly`.
#[inline]
fn shade_u8(c: u8, f: f32) -> u8 {
    const MAGIC: f32 = 8_388_608.0; // 2²³
    let v = c as f32 * f;
    let y = v + 0.5;
    let m = y + MAGIC;
    let floor = (m.to_bits() & 0x3FF) as i32 - (m - MAGIC > y) as i32;
    if v < 0.5 {
        0
    } else {
        floor.min(255) as u8
    }
}

#[inline]
fn lerp_u8(a: u8, b: u8, t: f32) -> u8 {
    (a as f32 + (b as f32 - a as f32) * t)
        .round()
        .clamp(0.0, 255.0) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    use rand::SeedableRng;

    /// The per-pixel ellipse fill that the run fill replaced.
    fn fill_ellipse_per_pixel(b: &mut Bitmap, cx: f32, cy: f32, rx: f32, ry: f32, c: [u8; 3]) {
        if rx <= 0.0 || ry <= 0.0 {
            return;
        }
        let x_lo = (cx - rx).floor().max(0.0) as usize;
        let x_hi = ((cx + rx).ceil() as usize).min(b.width.saturating_sub(1));
        let y_lo = (cy - ry).floor().max(0.0) as usize;
        let y_hi = ((cy + ry).ceil() as usize).min(b.height.saturating_sub(1));
        for y in y_lo..=y_hi {
            for x in x_lo..=x_hi {
                let dx = (x as f32 - cx) / rx;
                let dy = (y as f32 - cy) / ry;
                if dx * dx + dy * dy <= 1.0 {
                    b.px[y * b.width + x] = c;
                }
            }
        }
    }

    /// The per-pixel jitter body (the former `speckle` and `Noise` loops).
    fn jitter_per_pixel(b: &mut Bitmap, rng: &mut StdRng, amp: i16) {
        for y in 0..b.height {
            for x in 0..b.width {
                let d = rng.gen_range(-amp..=amp);
                let adj = |c: u8| (c as i16 + d).clamp(0, 255) as u8;
                let p = b.get(x, y);
                b.set(x, y, [adj(p[0]), adj(p[1]), adj(p[2])]);
            }
        }
    }

    /// A bitmap of seeded random pixels.
    fn noise_bitmap(rng: &mut StdRng, w: usize, h: usize) -> Bitmap {
        let mut b = Bitmap::filled(w, h, [0; 3]);
        for p in &mut b.px {
            *p = [rng.gen(), rng.gen(), rng.gen()];
        }
        b
    }

    #[test]
    fn ellipse_runs_match_the_per_pixel_fill() {
        let mut rng = StdRng::seed_from_u64(0x0E11_195E);
        for case in 0..20_000 {
            let (w, h) = (rng.gen_range(1..80), rng.gen_range(1..80));
            let mut cx: f32 = rng.gen_range(-20.0..100.0);
            let mut cy: f32 = rng.gen_range(-20.0..100.0);
            let mut rx: f32 = rng.gen_range(-1.0..40.0);
            let mut ry: f32 = rng.gen_range(-1.0..40.0);
            if case % 3 == 0 {
                // Integer and half-integer geometry puts pixels exactly
                // on the boundary.
                (cx, cy) = ((cx * 2.0).round() / 2.0, (cy * 2.0).round() / 2.0);
                (rx, ry) = ((rx * 2.0).round() / 2.0, (ry * 2.0).round() / 2.0);
            }
            let color = [case as u8, 7, 200];
            let mut runs = Bitmap::filled(w, h, [9, 9, 9]);
            let mut oracle = runs.clone();
            runs.fill_ellipse(cx, cy, rx, ry, color);
            fill_ellipse_per_pixel(&mut oracle, cx, cy, rx, ry, color);
            assert_eq!(
                runs, oracle,
                "{w}x{h} centre ({cx}, {cy}) radii ({rx}, {ry})"
            );
        }
    }

    #[test]
    fn const_jitter_matches_the_per_pixel_body() {
        fn check<const A: i16>(seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (w, h) = (rng.gen_range(1..70), rng.gen_range(1..70));
            let base = noise_bitmap(&mut rng, w, h);
            let (mut fast, mut slow) = (base.clone(), base);
            let (mut r1, mut r2) = (rng.clone(), rng);
            fast.jitter::<A>(&mut r1);
            jitter_per_pixel(&mut slow, &mut r2, A);
            assert_eq!(fast, slow, "A={A} seed={seed}");
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>(), "draw count, A={A}");
            let mut dynamic = fast.clone();
            let (mut r1, mut r2) = (r1.clone(), r1);
            dynamic.jitter_dyn(&mut r1, A);
            fast.jitter::<A>(&mut r2);
            assert_eq!(dynamic, fast, "jitter_dyn A={A} seed={seed}");
        }
        for seed in 0..40 {
            check::<1>(seed);
            check::<2>(seed);
            check::<3>(seed);
            check::<4>(seed);
            check::<5>(seed);
            check::<6>(seed);
            check::<7>(seed);
            check::<8>(seed);
            check::<9>(seed);
            check::<12>(seed);
        }
    }

    #[test]
    fn flat_shading_matches_the_per_pixel_round_clamp() {
        let mut rng = StdRng::seed_from_u64(0x5AADE);
        for _ in 0..400 {
            let (w, h) = (rng.gen_range(1..70), rng.gen_range(1..20));
            let base = noise_bitmap(&mut rng, w, h);
            let (left, right): (f32, f32) = (rng.gen_range(-0.5..2.5), rng.gen_range(-0.5..2.5));
            let mut flat = base.clone();
            flat.shade_columns(left, right);
            let mut oracle = base;
            for y in 0..h {
                for x in 0..w {
                    let t = x as f32 / (w - 1).max(1) as f32;
                    let f = (left + (right - left) * t).clamp(0.0, 2.0);
                    let sh = |c: u8| ((c as f32 * f).round().clamp(0.0, 255.0)) as u8;
                    let p = oracle.get(x, y);
                    oracle.set(x, y, [sh(p[0]), sh(p[1]), sh(p[2])]);
                }
            }
            assert_eq!(flat, oracle, "{w}x{h} {left}..{right}");
        }
    }

    #[test]
    fn filled_canvas_is_uniform() {
        let b = Bitmap::canvas([10, 20, 30]);
        assert_eq!(b.width(), SIZE);
        assert_eq!(b.get(0, 0), [10, 20, 30]);
        assert_eq!(b.get(SIZE - 1, SIZE - 1), [10, 20, 30]);
    }

    #[test]
    fn rect_fill_clamps() {
        let mut b = Bitmap::filled(4, 4, [0; 3]);
        b.fill_rect(2, 2, 100, 100, [255; 3]);
        assert_eq!(b.get(3, 3), [255; 3]);
        assert_eq!(b.get(1, 1), [0; 3]);
    }

    #[test]
    fn ellipse_covers_centre_not_corners() {
        let mut b = Bitmap::filled(20, 20, [0; 3]);
        b.fill_ellipse(10.0, 10.0, 5.0, 8.0, [200; 3]);
        assert_eq!(b.get(10, 10), [200; 3]);
        assert_eq!(b.get(0, 0), [0; 3]);
        assert_eq!(b.get(19, 19), [0; 3]);
    }

    #[test]
    fn gradient_is_monotone_in_luminance() {
        let mut b = Bitmap::canvas([0; 3]);
        b.fill_vgradient([255; 3], [0; 3]);
        assert!(b.luminance(0, 0) > b.luminance(0, SIZE - 1));
    }

    #[test]
    fn mean_luminance_of_uniform_region() {
        let b = Bitmap::filled(8, 8, [100, 100, 100]);
        let m = b.mean_luminance(0, 0, 8, 8);
        assert!((m - 100.0).abs() < 0.5);
        assert_eq!(b.mean_luminance(5, 5, 5, 9), 0.0); // empty slice
    }

    #[test]
    fn resize_preserves_uniform_content() {
        let b = Bitmap::filled(64, 64, [7, 8, 9]);
        let s = b.resize(8, 8);
        assert_eq!(s.width(), 8);
        assert!(s.pixels().iter().all(|&p| p == [7, 8, 9]));
    }

    #[test]
    fn fraction_where_counts() {
        let mut b = Bitmap::filled(2, 2, [0; 3]);
        b.set(0, 0, [255; 3]);
        assert!((b.fraction_where(|p| p[0] > 128) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn set_out_of_bounds_is_ignored() {
        let mut b = Bitmap::filled(2, 2, [0; 3]);
        b.set(5, 5, [1; 3]); // must not panic
        assert_eq!(b.get(1, 1), [0; 3]);
    }

    #[test]
    fn ppm_roundtrip() {
        let mut b = Bitmap::filled(5, 3, [10, 20, 30]);
        b.set(4, 2, [200, 100, 50]);
        let ppm = b.to_ppm();
        assert!(ppm.starts_with(b"P6\n5 3\n255\n"));
        let back = Bitmap::from_ppm(&ppm).expect("roundtrip");
        assert_eq!(back, b);
    }

    #[test]
    fn ppm_rejects_garbage() {
        assert!(Bitmap::from_ppm(b"P5\n2 2\n255\n....").is_none());
        assert!(Bitmap::from_ppm(b"P6\n2 2\n255\nxx").is_none()); // short body
        assert!(Bitmap::from_ppm(b"").is_none());
    }

    #[test]
    #[should_panic(expected = "empty bitmap")]
    fn zero_size_rejected() {
        let _ = Bitmap::filled(0, 4, [0; 3]);
    }

    #[test]
    fn reset_matches_filled_and_reuses_any_prior_shape() {
        let mut b = Bitmap::filled(3, 9, [1, 2, 3]);
        b.set(2, 8, [9; 3]);
        b.reset(5, 4, [7, 8, 9]);
        assert_eq!(b, Bitmap::filled(5, 4, [7, 8, 9]));
        b.reset(2, 2, [0; 3]);
        assert_eq!(b, Bitmap::filled(2, 2, [0; 3]));
    }

    #[test]
    fn resize_into_matches_resize() {
        let mut src = Bitmap::filled(10, 6, [5; 3]);
        src.fill_rect(0, 0, 5, 3, [200, 10, 30]);
        let mut out = Bitmap::filled(1, 1, [0; 3]);
        src.resize_into(7, 7, &mut out);
        assert_eq!(out, src.resize(7, 7));
    }

    #[test]
    fn row_slices_cover_the_raster() {
        let mut b = Bitmap::filled(3, 2, [0; 3]);
        b.set(1, 1, [42; 3]);
        assert_eq!(b.row(0), &[[0; 3], [0; 3], [0; 3]]);
        assert_eq!(b.row(1)[1], [42; 3]);
    }

    /// Exhaustive proof that the libm-free shading cast equals the
    /// original `round().clamp()` expression: every channel value against
    /// a dense factor sweep of `[0, 2]`, plus the exact-tie factors
    /// `f = (k + 0.5) / c` where round-half-away behaviour is decided.
    #[test]
    fn shade_u8_matches_round_clamp_exactly() {
        let reference = |c: u8, f: f32| ((c as f32 * f).round().clamp(0.0, 255.0)) as u8;
        for c in 0..=255u8 {
            for i in 0..=16384u32 {
                let f = i as f32 / 8192.0;
                assert_eq!(shade_u8(c, f), reference(c, f), "c={c} f={f}");
            }
            if c > 0 {
                for k in 0..=510u32 {
                    let tie = (k as f32 + 0.5) / c as f32;
                    for f in [
                        f32::from_bits(tie.to_bits() - 1),
                        tie,
                        f32::from_bits(tie.to_bits() + 1),
                    ] {
                        if (0.0..=2.0).contains(&f) {
                            assert_eq!(shade_u8(c, f), reference(c, f), "tie c={c} f={f}");
                        }
                    }
                }
            }
        }
    }
}
