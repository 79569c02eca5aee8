//! Image specifications and procedural rendering.
//!
//! An [`ImageSpec`] is a ~20-byte description of an image: its class, the
//! model depicted (for pack/preview photos), and a variant seed. Rendering
//! is deterministic, so a spec *is* the image — the synthetic web stores
//! specs and the pipeline renders on demand, like a crawler streaming
//! downloads.
//!
//! Each class renders the pixel structure its downstream classifier keys
//! on; the coverage bands are calibrated against the paper's observations
//! in §4.4 (non-nude NSFW < 0.3; clothed models 0.1–0.7; text images
//! recognised by OCR).

use crate::bitmap::{Bitmap, SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Payment platforms appearing in proof-of-earnings screenshots (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, PartialOrd, Ord)]
pub enum PaymentPlatform {
    /// PayPal dashboards.
    PayPal,
    /// Amazon Gift Card balances.
    AmazonGiftCard,
    /// Bitcoin wallet screenshots.
    Bitcoin,
    /// Photographs of cash (rendered as a green-banded photo).
    Cash,
}

impl PaymentPlatform {
    /// Header band colour used when rendering the screenshot.
    fn header_color(self) -> [u8; 3] {
        match self {
            PaymentPlatform::PayPal => [0, 48, 135],
            PaymentPlatform::AmazonGiftCard => [255, 153, 0],
            PaymentPlatform::Bitcoin => [247, 147, 26],
            PaymentPlatform::Cash => [40, 90, 40],
        }
    }
}

/// The content class of a synthetic image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, PartialOrd, Ord)]
pub enum ImageClass {
    /// A clothed ("dressed, normally in a suggestive manner") model photo.
    ModelDressed,
    /// A nude model photo.
    ModelNude,
    /// A sexually explicit photo.
    ModelSexual,
    /// A payment-dashboard screenshot (proof-of-earnings, §5).
    PaymentScreenshot(PaymentPlatform),
    /// A chat-conversation screenshot.
    ChatScreenshot,
    /// A screenshot of pack directories with thumbnails (§4.4 mentions
    /// these among non-preview downloads).
    DirectoryThumbnails,
    /// A "this image was removed" banner.
    ErrorBanner,
    /// A natural landscape (validation-set negative; beach scenes are the
    /// classic skin-tone false positive).
    Landscape,
    /// A clothed person photographed casually — only face and hands show
    /// skin. The validation set's "pictures taken from random people".
    PortraitCasual,
    /// A dense text document.
    Document,
    /// A meme-style image: photo block plus caption rows.
    Meme,
}

impl ImageClass {
    /// True for classes depicting a model (pack/preview content).
    pub fn is_model(self) -> bool {
        matches!(
            self,
            ImageClass::ModelDressed | ImageClass::ModelNude | ImageClass::ModelSexual
        )
    }

    /// True for classes whose content is primarily text.
    pub fn is_textual(self) -> bool {
        matches!(
            self,
            ImageClass::PaymentScreenshot(_)
                | ImageClass::ChatScreenshot
                | ImageClass::ErrorBanner
                | ImageClass::Document
        )
    }
}

/// A compact, renderable image description.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ImageSpec {
    /// Content class.
    pub class: ImageClass,
    /// Identity of the depicted model (consistent skin tone / hair across a
    /// pack); 0 for non-model classes.
    pub model: u32,
    /// Per-image variation seed: pose, background, text layout.
    pub variant: u64,
}

impl ImageSpec {
    /// A model photo of `model`.
    pub fn model_photo(class: ImageClass, model: u32, variant: u64) -> ImageSpec {
        assert!(class.is_model(), "class {class:?} is not a model photo");
        ImageSpec {
            class,
            model,
            variant,
        }
    }

    /// A non-model image of `class`.
    pub fn of(class: ImageClass, variant: u64) -> ImageSpec {
        assert!(!class.is_model(), "use model_photo for model classes");
        ImageSpec {
            class,
            model: 0,
            variant,
        }
    }

    /// Deterministic per-spec RNG.
    fn rng(&self) -> StdRng {
        // Mix all identity fields so distinct specs render distinct pixels.
        let tag: u64 = match self.class {
            ImageClass::ModelDressed => 1,
            ImageClass::ModelNude => 2,
            ImageClass::ModelSexual => 3,
            ImageClass::PaymentScreenshot(p) => 10 + p as u64,
            ImageClass::ChatScreenshot => 20,
            ImageClass::DirectoryThumbnails => 21,
            ImageClass::ErrorBanner => 22,
            ImageClass::Landscape => 23,
            ImageClass::Document => 24,
            ImageClass::Meme => 25,
            ImageClass::PortraitCasual => 26,
        };
        let mut s = self
            .variant
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((self.model as u64) << 32)
            .wrapping_add(tag);
        s ^= s >> 31;
        StdRng::seed_from_u64(s)
    }

    /// Renders the spec to pixels.
    pub fn render(&self) -> Bitmap {
        let mut bmp = Bitmap::filled(1, 1, [0; 3]);
        self.render_into(&mut bmp);
        bmp
    }

    /// Renders the spec into an existing bitmap, reusing its allocation —
    /// the render-arena variant of [`ImageSpec::render`]. The output is
    /// identical to a fresh render.
    pub fn render_into(&self, out: &mut Bitmap) {
        let mut rng = self.rng();
        match self.class {
            ImageClass::ModelDressed => render_model(out, &mut rng, self.model, Coverage::Dressed),
            ImageClass::ModelNude => render_model(out, &mut rng, self.model, Coverage::Nude),
            ImageClass::ModelSexual => render_model(out, &mut rng, self.model, Coverage::Sexual),
            ImageClass::PaymentScreenshot(p) => render_payment(out, &mut rng, p),
            ImageClass::ChatScreenshot => render_chat(out, &mut rng),
            ImageClass::DirectoryThumbnails => render_directory(out, &mut rng),
            ImageClass::ErrorBanner => render_error(out, &mut rng),
            ImageClass::Landscape => render_landscape(out, &mut rng),
            ImageClass::Document => render_document(out, &mut rng),
            ImageClass::Meme => render_meme(out, &mut rng),
            ImageClass::PortraitCasual => render_portrait(out, &mut rng),
        }
    }
}

/// Skin tone for a model id: consistent per model, plausibly varied across
/// models, always inside the scorer's skin predicate.
pub(crate) fn skin_tone(model: u32) -> [u8; 3] {
    let mut s = (model as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
    s ^= s >> 33;
    let r = 200 + (s % 40) as u8; // 200..=239
    let g = (r as f32 * 0.72) as u8;
    let b = (r as f32 * 0.55) as u8;
    [r, g, b]
}

enum Coverage {
    Dressed,
    Nude,
    Sexual,
}

fn render_model(bmp: &mut Bitmap, rng: &mut StdRng, model: u32, coverage: Coverage) {
    // Non-skin background: indoor wall / bedsheet hues with a lighting
    // gradient (flat backgrounds would leave many hash blocks tied at the
    // median, making the robust hash needlessly fragile — real photos have
    // lighting falloff).
    // All hues stay above the OCR ink threshold so background texture can
    // never masquerade as glyphs.
    let bg_choices: [[u8; 3]; 4] = [
        [200, 205, 215],
        [185, 185, 200],
        [165, 175, 190],
        [150, 155, 175],
    ];
    let top = bg_choices[rng.gen_range(0..bg_choices.len())];
    let bottom = [
        top[0].saturating_sub(30),
        top[1].saturating_sub(30),
        top[2].saturating_sub(25),
    ];
    bmp.reset(SIZE, SIZE, top);
    bmp.fill_vgradient(top, bottom);

    // Background furniture/props: large non-skin patches at random
    // positions. These give each photo a distinctive block-luminance
    // layout, which is what makes unrelated photos hash far apart (and
    // mirrored copies detectably different).
    let dark_props: [[u8; 3]; 3] = [[52, 56, 72], [72, 62, 62], [42, 47, 52]];
    let light_props: [[u8; 3]; 2] = [[228, 230, 238], [243, 240, 232]];
    for _ in 0..rng.gen_range(2..5) {
        let color = if rng.gen_bool(0.5) {
            dark_props[rng.gen_range(0..dark_props.len())]
        } else {
            light_props[rng.gen_range(0..light_props.len())]
        };
        let x0 = rng.gen_range(0..44);
        let y0 = rng.gen_range(0..44);
        let w = rng.gen_range(18..32);
        let h = rng.gen_range(10..34);
        bmp.fill_rect(x0, y0, x0 + w, y0 + h, color);
    }
    let skin = skin_tone(model);

    // Target exposed-skin fraction by class, jittered per image.
    let target: f64 = match coverage {
        Coverage::Dressed => rng.gen_range(0.34..0.55),
        Coverage::Nude => rng.gen_range(0.50..0.72),
        Coverage::Sexual => rng.gen_range(0.58..0.82),
    };

    // Head.
    let head_r = 6.0 + rng.gen_range(0.0..2.0);
    let cx = 32.0 + rng.gen_range(-12.0..12.0);
    bmp.fill_ellipse(cx, 10.0, head_r, head_r, skin);
    // Hair cap (per-model colour).
    let hair = [
        (model % 150) as u8,
        ((model / 3) % 90) as u8,
        ((model / 7) % 120) as u8,
    ];
    bmp.fill_ellipse(cx, 6.0, head_r, head_r * 0.5, hair);

    // Body: ellipse area sized so total skin ≈ target.
    let total = (SIZE * SIZE) as f64;
    let head_area = std::f64::consts::PI * (head_r * head_r * 0.75) as f64;
    let body_area = (target * total - head_area).max(100.0);
    let ry = 22.0 + rng.gen_range(0.0..4.0);
    let rx = (body_area / (std::f64::consts::PI * ry as f64)) as f32;
    bmp.fill_ellipse(cx, 40.0, rx.min(30.0), ry, skin);

    if matches!(coverage, Coverage::Sexual) {
        // Second body mass partially overlapping.
        let skin2 = skin_tone(model.wrapping_add(7919));
        bmp.fill_ellipse(
            cx + rng.gen_range(-14.0..14.0),
            48.0,
            rx * 0.6,
            ry * 0.7,
            skin2,
        );
    }

    if matches!(coverage, Coverage::Dressed) {
        // Clothing band across the torso hides part of the skin.
        let cloth: [u8; 3] = [
            rng.gen_range(10..120),
            rng.gen_range(10..120),
            rng.gen_range(60..200),
        ];
        let band_top = 32 + rng.gen_range(0..6);
        let band_bot = band_top + rng.gen_range(8..13);
        bmp.fill_rect(0, band_top, SIZE, band_bot, cloth);
    }

    // Directional lighting: random side, strong enough that horizontal
    // hash gradients carry signal (and flip under mirroring).
    let shade = rng.gen_range(0.82..0.90);
    if rng.gen_bool(0.5) {
        bmp.shade_columns(shade, 1.0);
    } else {
        bmp.shade_columns(1.0, shade);
    }
    bmp.jitter::<5>(rng);
}

/// Draws glyph-like word runs: dark 2-px-tall dashes on the given rows.
/// Returns the number of words drawn.
#[allow(clippy::too_many_arguments)] // a raster drawing primitive: geometry + style
fn draw_text_rows(
    bmp: &mut Bitmap,
    rng: &mut StdRng,
    x0: usize,
    x1: usize,
    y0: usize,
    rows: usize,
    row_gap: usize,
    ink: [u8; 3],
) -> usize {
    let mut words = 0;
    for r in 0..rows {
        let y = y0 + r * row_gap;
        if y + 1 >= bmp.height() {
            break;
        }
        let mut x = x0 + rng.gen_range(0..3);
        while x + 4 < x1.min(bmp.width()) {
            let w = rng.gen_range(3..9).min(x1 - x);
            bmp.fill_rect(x, y, x + w, y + 2, ink);
            words += 1;
            x += w + rng.gen_range(2..5);
        }
    }
    words
}

fn render_payment(bmp: &mut Bitmap, rng: &mut StdRng, platform: PaymentPlatform) {
    bmp.reset(SIZE, SIZE, [248, 248, 250]);
    bmp.fill_rect(0, 0, SIZE, 8, platform.header_color());
    // Logo text in header.
    draw_text_rows(bmp, rng, 3, 30, 3, 1, 6, [255, 255, 255]);
    // Transaction table: 6–9 rows of amounts and labels.
    let rows = rng.gen_range(6..10);
    draw_text_rows(bmp, rng, 4, 60, 14, rows, 6, [40, 40, 48]);
    // Occasionally a small account avatar with skin pixels.
    if rng.gen_bool(0.3) {
        bmp.fill_ellipse(56.0, 4.0, 3.0, 3.0, skin_tone(rng.gen_range(1..1000)));
    }
    bmp.jitter::<2>(rng);
}

fn render_chat(bmp: &mut Bitmap, rng: &mut StdRng) {
    bmp.reset(SIZE, SIZE, [235, 235, 238]);
    let mut y = 4;
    while y + 10 < SIZE {
        let left = rng.gen_bool(0.5);
        let (bx0, bx1) = if left { (8, 44) } else { (20, 56) };
        let bubble = if left {
            [255, 255, 255]
        } else {
            [198, 235, 198]
        };
        bmp.fill_rect(bx0, y, bx1, y + 9, bubble);
        draw_text_rows(bmp, rng, bx0 + 2, bx1 - 2, y + 2, 2, 4, [30, 30, 30]);
        // Avatar circle (sometimes skin-toned).
        let avx = if left { 3.0 } else { 60.0 };
        let av_color = if rng.gen_bool(0.5) {
            skin_tone(rng.gen_range(1..1000))
        } else {
            [100, 120, 200]
        };
        bmp.fill_ellipse(avx, (y + 4) as f32, 2.5, 2.5, av_color);
        y += 12 + rng.gen_range(0..3);
    }
    bmp.jitter::<2>(rng);
}

fn render_directory(bmp: &mut Bitmap, rng: &mut StdRng) {
    bmp.reset(SIZE, SIZE, [238, 238, 242]);
    for ty in 0..4 {
        for tx in 0..4 {
            let x0 = 2 + tx * 16;
            let y0 = 2 + ty * 16;
            // Thumbnail tile: some are skin-dominant (they are previews of
            // the pack), some are scenery-coloured.
            let color = if rng.gen_bool(0.35) {
                skin_tone(rng.gen_range(1..1000))
            } else {
                [
                    rng.gen_range(40..200),
                    rng.gen_range(40..200),
                    rng.gen_range(40..220),
                ]
            };
            bmp.fill_rect(x0, y0, x0 + 12, y0 + 9, color);
            // Filename under the tile (dark text on the light canvas so
            // the OCR stage recognises directory listings as textual).
            draw_text_rows(bmp, rng, x0, x0 + 12, y0 + 10, 1, 4, [40, 40, 45]);
        }
    }
    bmp.jitter::<3>(rng);
}

fn render_error(bmp: &mut Bitmap, rng: &mut StdRng) {
    bmp.reset(SIZE, SIZE, [230, 230, 230]);
    bmp.fill_rect(6, 22, 58, 42, [245, 245, 245]);
    // "This image violates our Terms of Use …" — two short rows.
    draw_text_rows(bmp, rng, 10, 54, 27, 2, 6, [60, 60, 66]);
}

fn render_landscape(bmp: &mut Bitmap, rng: &mut StdRng) {
    bmp.reset(SIZE, SIZE, [0; 3]);
    bmp.fill_vgradient([120, 170, 235], [200, 220, 245]);
    let horizon = rng.gen_range(40..50);
    if rng.gen_bool(0.18) {
        // Beach: sand reads as skin to a colour classifier.
        let sand = [214, 180, 140];
        bmp.fill_rect(0, horizon, SIZE, SIZE, sand);
        // Sea band above the sand (bright enough not to read as ink).
        bmp.fill_rect(0, horizon.saturating_sub(6), SIZE, horizon, [105, 165, 225]);
    } else {
        let ground = [90 + rng.gen_range(0..30), 150 + rng.gen_range(0..40), 85];
        bmp.fill_rect(0, horizon, SIZE, SIZE, ground);
    }
    // Sun or cloud.
    bmp.fill_ellipse(
        rng.gen_range(8.0..56.0),
        rng.gen_range(6.0..16.0),
        5.0,
        3.0,
        [250, 250, 240],
    );
    let shade = rng.gen_range(0.84..0.92);
    if rng.gen_bool(0.5) {
        bmp.shade_columns(shade, 1.0);
    } else {
        bmp.shade_columns(1.0, shade);
    }
    bmp.jitter::<6>(rng);
}

fn render_portrait(bmp: &mut Bitmap, rng: &mut StdRng) {
    // Outdoor/indoor background with gradient, fully-clothed figure, skin
    // visible only on the face and hands (coverage ≈ 2-8%).
    let top = [170 + rng.gen_range(0..40), 180 + rng.gen_range(0..40), 200];
    let bottom = [top[0] - 30, top[1] - 30, top[2] - 20];
    bmp.reset(SIZE, SIZE, top);
    bmp.fill_vgradient(top, bottom);
    let skin = skin_tone(rng.gen_range(1..100_000));
    let cx = 32.0 + rng.gen_range(-8.0..8.0);
    // Face.
    let head_r = 4.5 + rng.gen_range(0.0..2.5);
    bmp.fill_ellipse(cx, 12.0, head_r, head_r, skin);
    // Hair.
    bmp.fill_ellipse(cx, 8.5, head_r + 0.5, head_r * 0.6, [120, 95, 70]);
    // Clothed torso and legs (non-skin colours).
    let shirt: [u8; 3] = [
        rng.gen_range(30..140),
        rng.gen_range(30..140),
        rng.gen_range(60..200),
    ];
    bmp.fill_ellipse(cx, 34.0, 11.0, 14.0, shirt);
    let trousers = [40, 45, 60];
    bmp.fill_rect((cx - 8.0) as usize, 46, (cx + 8.0) as usize, 62, trousers);
    // Hands.
    bmp.fill_ellipse(cx - 11.0, 38.0, 2.0, 2.5, skin);
    bmp.fill_ellipse(cx + 11.0, 38.0, 2.0, 2.5, skin);
    let shade = rng.gen_range(0.84..0.92);
    if rng.gen_bool(0.5) {
        bmp.shade_columns(shade, 1.0);
    } else {
        bmp.shade_columns(1.0, shade);
    }
    bmp.jitter::<4>(rng);
}

fn render_document(bmp: &mut Bitmap, rng: &mut StdRng) {
    bmp.reset(SIZE, SIZE, [252, 252, 252]);
    draw_text_rows(bmp, rng, 4, 60, 6, 10, 6, [30, 30, 30]);
    bmp.jitter::<1>(rng);
}

fn render_meme(bmp: &mut Bitmap, rng: &mut StdRng) {
    bmp.reset(SIZE, SIZE, [255, 255, 255]);
    // Photo block in the middle with arbitrary (non-skin) colours.
    bmp.fill_rect(
        0,
        12,
        SIZE,
        52,
        [
            rng.gen_range(30..160),
            rng.gen_range(60..180),
            rng.gen_range(90..220),
        ],
    );
    bmp.fill_ellipse(32.0, 32.0, 14.0, 10.0, [240, 230, 80]);
    // Caption rows top and bottom.
    draw_text_rows(bmp, rng, 6, 58, 3, 1, 6, [10, 10, 10]);
    draw_text_rows(bmp, rng, 6, 58, 56, 1, 6, [10, 10, 10]);
    bmp.jitter::<4>(rng);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nsfw::is_skin;

    #[test]
    fn rendering_is_deterministic() {
        let spec = ImageSpec::model_photo(ImageClass::ModelNude, 42, 7);
        assert_eq!(spec.render(), spec.render());
    }

    #[test]
    fn render_into_reused_buffer_matches_fresh_render() {
        let mut buf = Bitmap::filled(1, 1, [0; 3]);
        for spec in [
            ImageSpec::model_photo(ImageClass::ModelSexual, 9, 4),
            ImageSpec::of(ImageClass::Document, 2),
            ImageSpec::of(ImageClass::Landscape, 5),
            ImageSpec::of(ImageClass::ChatScreenshot, 1),
        ] {
            spec.render_into(&mut buf);
            assert_eq!(buf, spec.render(), "{spec:?}");
        }
    }

    #[test]
    fn different_variants_render_differently() {
        let a = ImageSpec::model_photo(ImageClass::ModelNude, 42, 1).render();
        let b = ImageSpec::model_photo(ImageClass::ModelNude, 42, 2).render();
        assert_ne!(a, b);
    }

    #[test]
    fn skin_tone_is_consistent_and_skin_like() {
        for model in [1u32, 17, 999, 123_456] {
            let tone = skin_tone(model);
            assert_eq!(tone, skin_tone(model));
            assert!(is_skin(tone), "tone {tone:?} must satisfy skin predicate");
        }
    }

    #[test]
    fn nude_has_more_skin_than_dressed() {
        let mut nude_sum = 0.0;
        let mut dressed_sum = 0.0;
        for v in 0..10 {
            let nude = ImageSpec::model_photo(ImageClass::ModelNude, 5, v).render();
            let dressed = ImageSpec::model_photo(ImageClass::ModelDressed, 5, v).render();
            nude_sum += nude.fraction_where(is_skin);
            dressed_sum += dressed.fraction_where(is_skin);
        }
        assert!(
            nude_sum > dressed_sum + 1.0,
            "nude {nude_sum} vs dressed {dressed_sum}"
        );
    }

    #[test]
    fn screenshots_have_negligible_skin() {
        let spec = ImageSpec::of(ImageClass::PaymentScreenshot(PaymentPlatform::PayPal), 3);
        let f = spec.render().fraction_where(is_skin);
        assert!(f < 0.05, "payment screenshot skin fraction {f}");
    }

    #[test]
    fn class_predicates() {
        assert!(ImageClass::ModelNude.is_model());
        assert!(!ImageClass::Landscape.is_model());
        assert!(ImageClass::Document.is_textual());
        assert!(!ImageClass::ModelDressed.is_textual());
    }

    #[test]
    #[should_panic(expected = "not a model photo")]
    fn model_photo_rejects_non_model_class() {
        let _ = ImageSpec::model_photo(ImageClass::Landscape, 1, 1);
    }

    #[test]
    #[should_panic(expected = "use model_photo")]
    fn of_rejects_model_class() {
        let _ = ImageSpec::of(ImageClass::ModelNude, 1);
    }

    #[test]
    fn every_class_renders_without_panic() {
        let classes = [
            ImageClass::PaymentScreenshot(PaymentPlatform::PayPal),
            ImageClass::PaymentScreenshot(PaymentPlatform::AmazonGiftCard),
            ImageClass::PaymentScreenshot(PaymentPlatform::Bitcoin),
            ImageClass::PaymentScreenshot(PaymentPlatform::Cash),
            ImageClass::ChatScreenshot,
            ImageClass::DirectoryThumbnails,
            ImageClass::ErrorBanner,
            ImageClass::Landscape,
            ImageClass::Document,
            ImageClass::Meme,
        ];
        for c in classes {
            let bmp = ImageSpec::of(c, 9).render();
            assert_eq!(bmp.width(), SIZE);
        }
        for c in [
            ImageClass::ModelDressed,
            ImageClass::ModelNude,
            ImageClass::ModelSexual,
        ] {
            let bmp = ImageSpec::model_photo(c, 3, 9).render();
            assert_eq!(bmp.height(), SIZE);
        }
    }
}
