//! Pins the exact pixels of the render and transform kernels.
//!
//! Renders every [`ImageClass`] under every [`Transform`] kind — noise
//! amplitudes 0–12, crop margins 0–21% (the transform clamps to 1–20),
//! a spread of brightness shifts and seeds — and folds the content
//! digest of each of the 20 160 results into one checksum. The constant
//! was computed before the kernels were rewritten for speed; any change
//! to a single output byte changes it.

use imagesim::{content_digest, ImageClass, ImageSpec, PaymentPlatform, Transform};

const PINNED: u64 = 0x3a11_a5d8_3557_f6e2;

fn classes() -> Vec<ImageClass> {
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

/// The 40 transform shapes of the sweep; `k` varies their seeds and
/// brightness shifts.
fn transforms(k: u64) -> Vec<Transform> {
    let mut out = vec![
        Transform::Identity,
        Transform::MirrorHorizontal,
        Transform::Watermark { seed: k * 31 + 7 },
        Transform::Brightness((k as i16 * 7) % 81 - 40),
        Transform::OcclusionBar { seed: k * 17 + 3 },
    ];
    out.extend((0..=12).map(|amplitude| Transform::Noise {
        amplitude,
        seed: k * 1_000 + amplitude as u64,
    }));
    out.extend((0..=21).map(|percent| Transform::CropMargin { percent }));
    out
}

#[test]
fn renders_match_the_pinned_fingerprint() {
    let mut acc: u64 = 0xCBF2_9CE4_8422_2325;
    let mut renders = 0;
    for (c, class) in classes().into_iter().enumerate() {
        for k in 0..36u64 {
            let variant = k * 0x9E37 + c as u64;
            let spec = if class.is_model() {
                ImageSpec::model_photo(class, (k * 13 + c as u64) as u32 % 5_000 + 1, variant)
            } else {
                ImageSpec::of(class, variant)
            };
            let base = spec.render();
            for t in transforms(k) {
                let digest = content_digest(&t.apply(&base));
                acc = (acc ^ digest)
                    .wrapping_mul(0x1000_0000_01B3)
                    .rotate_left(17);
                renders += 1;
            }
        }
    }
    assert_eq!(renders, 14 * 36 * 40);
    assert_eq!(acc, PINNED, "render fingerprint {acc:#018x}");
}
