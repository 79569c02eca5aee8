//! Synthetic-image substrate.
//!
//! The paper's pipeline downloads ~115k real images and runs three image
//! classifiers over them: PhotoDNA (robust hash against a child-abuse hash
//! list), Yahoo OpenNSFW (nudity score), and Tesseract (OCR word count).
//! Real imagery is both unavailable and undesirable here, so this crate
//! replaces the *data* while keeping the *algorithms* real:
//!
//! * [`Bitmap`] — small RGB rasters rendered procedurally from a compact
//!   [`ImageSpec`] (class + content seed). Each image class (model photo,
//!   payment screenshot, chat log, landscape, …) renders characteristic
//!   pixel structure: skin-tone regions for model photos, glyph-like text
//!   rows for screenshots, gradients for landscapes.
//! * [`transform`] — the modifications actors apply to bypass reverse
//!   search (paper §4.5): mirroring, watermarks, crops, brightness shifts,
//!   compression-style noise.
//! * [`RobustHash`] — a 256-bit perceptual hash (luma and chroma block
//!   means, horizontal and vertical gradients) with Hamming matching. Like PhotoDNA/TinEye it survives
//!   compression, brightness, and small edits, and like them it is *not*
//!   mirror-invariant — which is exactly why the paper observes actors
//!   mirroring images to evade matching.
//! * [`nsfw_score`] — a skin-coverage scorer calibrated to the paper's
//!   observed bands (non-nude < 0.3, clothed models 0.1–0.7, screenshots
//!   ≈ 0), consumed by the pipeline's Algorithm 1.
//! * [`ocr_word_count`] — a glyph-run detector standing in for Tesseract:
//!   counts dark word-like runs on light rows.
//!
//! Because a spec is ~16 bytes and rendering is deterministic, the hosted
//! web can hold hundreds of thousands of "images" and the pipeline renders
//! them on demand, exactly as a crawler streams downloads.

pub mod bitmap;
pub mod hash;
pub mod measure;
pub mod nsfw;
pub mod ocr;
pub mod spec;
pub mod transform;
pub mod validation;

pub use bitmap::Bitmap;
pub use hash::{content_digest, RobustHash, DEFAULT_MATCH_THRESHOLD};
pub use measure::{measure, measure_with, MeasureScratch, Measures};
pub use nsfw::nsfw_score;
pub use ocr::ocr_word_count;
pub use spec::{ImageClass, ImageSpec, PaymentPlatform};
pub use transform::Transform;
