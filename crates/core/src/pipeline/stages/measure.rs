//! Stage `measure_images`: the only pixel-touching work (paper §4.2).
//!
//! Previews and *all* pack images are flattened into **one**
//! [`measure_batch`] call, so worker threads see the whole workload at
//! once instead of one small batch per pack (most packs are far below
//! the serial-fallback threshold, which used to keep them all serial).
//! The flat results are re-split per source by
//! [`MeasuredImages::try_from_flat`], keyed by [`ImageRef`] from then on.
//!
//! [`ImageRef`]: crate::pipeline::ImageRef

use crate::crawl::CrawlResult;
use crate::nsfv::ImageMeasures;
use crate::pipeline::ctx::{carry_mut, require};
use crate::pipeline::{MeasuredImages, Stage, StageCtx, StageError};
use imagesim::{ImageSpec, MeasureScratch, Transform};
use std::collections::{HashMap, HashSet};
use websim::{RenderScratch, StoredImage};

/// Produces `measures`.
pub struct MeasureStage;

/// Flattens previews + every pack into one image list, measures it with
/// a single `batch` call, and re-splits the results per source. The
/// `batch` parameter is the test seam proving exactly one batch is
/// issued and that the re-split is lossless.
pub(crate) fn flatten_and_measure<F>(
    crawl: &CrawlResult,
    batch: F,
) -> Result<MeasuredImages, StageError>
where
    F: FnOnce(&[StoredImage]) -> Vec<ImageMeasures>,
{
    let n_previews = crawl.previews.len();
    let pack_lens: Vec<usize> = crawl.packs.iter().map(|p| p.images.len()).collect();
    let mut flat: Vec<StoredImage> =
        Vec::with_capacity(n_previews + pack_lens.iter().sum::<usize>());
    flat.extend(crawl.previews.iter().map(|d| d.image));
    for p in &crawl.packs {
        flat.extend(p.images.iter().copied());
    }
    MeasuredImages::try_from_flat(batch(&flat), n_previews, &pack_lens)
}

/// The memo keyed by `(spec, transform)`.
fn memo_index(
    memo: &[(StoredImage, ImageMeasures)],
) -> HashMap<(ImageSpec, Transform), ImageMeasures> {
    memo.iter()
        .map(|&(img, m)| ((img.spec, img.transform), m))
        .collect()
}

/// Rebuilds the stage's `measures` for `crawl` from a journaled memo:
/// every image is looked up, none measured. A pair the memo lacks cuts
/// the lookup short, and the re-split rejects the short batch.
pub(crate) fn measures_from_memo(
    crawl: &CrawlResult,
    memo: &[(StoredImage, ImageMeasures)],
) -> Result<MeasuredImages, StageError> {
    let known = memo_index(memo);
    flatten_and_measure(crawl, |images| {
        images
            .iter()
            .map_while(|img| known.get(&(img.spec, img.transform)).copied())
            .collect()
    })
}

impl Stage for MeasureStage {
    fn name(&self) -> &'static str {
        "measure_images"
    }

    fn run(&self, ctx: &mut StageCtx<'_>) -> Result<(), StageError> {
        let crawl = require(&ctx.crawl, "crawl")?;
        let workers = ctx.options.workers;
        // Every `(spec, transform)` pair measured in an earlier slice is
        // served from the carry memo; only genuinely new pairs hit the
        // pixel kernels. Memo hits are exact because a measure is a pure
        // function of its pair (the arena-batch bit-identity contract
        // below).
        let mut known = memo_index(&carry_mut(&mut ctx.carry)?.measure.memo);
        let mut fresh_entries: Vec<(StoredImage, ImageMeasures)> = Vec::new();
        let measures = flatten_and_measure(crawl, |images| {
            let mut queued: HashSet<(ImageSpec, Transform)> = HashSet::new();
            let unseen: Vec<StoredImage> = images
                .iter()
                .copied()
                .filter(|img| {
                    let key = (img.spec, img.transform);
                    !known.contains_key(&key) && queued.insert(key)
                })
                .collect();
            fresh_entries = unseen
                .iter()
                .copied()
                .zip(measure_batch(&unseen, workers))
                .collect();
            known.extend(
                fresh_entries
                    .iter()
                    .map(|&(img, m)| ((img.spec, img.transform), m)),
            );
            images
                .iter()
                .map(|img| {
                    *known
                        .get(&(img.spec, img.transform))
                        .expect("every image is memoised or freshly measured")
                })
                .collect()
        })?;
        // Commit only after the fallible re-split succeeded, so a stage
        // retry re-measures instead of trusting a half-write.
        carry_mut(&mut ctx.carry)?
            .measure
            .memo
            .extend(fresh_entries);
        ctx.note_items(measures.total());
        ctx.measures = Some(measures);
        Ok(())
    }
}

/// Measures a batch of stored images across worker threads. Output order
/// matches input order regardless of worker count (the [`crate::par`]
/// contract; batches below [`crate::par::SERIAL_CUTOFF`] stay serial).
///
/// Generated worlds repost the same hosted copy many times (previews of
/// pack images, reposts across threads), and different transforms of one
/// spec share its procedural render. So the batch measures each unique
/// `(spec, transform)` pair exactly once — grouped by spec, so a
/// worker's [`RenderScratch`] serves every transform of a spec from one
/// cached pristine render — and fans the results back out to the input
/// slots.
///
/// Each worker owns one contiguous chunk of the unique list and carries
/// two arenas across it: a [`RenderScratch`] (pristine render cache +
/// transform canvas) and a [`MeasureScratch`] (fused-kernel tables and
/// buffers), so the steady state renders and measures with zero
/// per-image allocations. Every measure is a pure function of its
/// `(spec, transform)` pair and the fused kernel matches the multi-pass
/// reference, so the result is bit-identical to per-image
/// `ImageMeasures::of(&img.render())` — at every worker count.
pub fn measure_batch(images: &[StoredImage], workers: usize) -> Vec<ImageMeasures> {
    // Level 1: dedup identical hosted copies; `slots` maps each input to
    // its unique index.
    let mut index_of: HashMap<(ImageSpec, Transform), u32> = HashMap::new();
    let mut unique: Vec<StoredImage> = Vec::new();
    let slots: Vec<u32> = images
        .iter()
        .map(|img| {
            *index_of
                .entry((img.spec, img.transform))
                .or_insert_with(|| {
                    unique.push(*img);
                    (unique.len() - 1) as u32
                })
        })
        .collect();

    // Level 2: group the survivors by spec (stable within a spec) so
    // contiguous chunks keep hitting the arena's pristine-render cache.
    let mut order: Vec<u32> = (0..unique.len() as u32).collect();
    order.sort_by_key(|&i| {
        let s = unique[i as usize].spec;
        (s.class, s.model, s.variant, i)
    });

    let measured = crate::par::par_map_chunks(&order, workers, |chunk| {
        let mut arena = RenderScratch::new();
        let mut scratch = MeasureScratch::new();
        chunk
            .iter()
            .map(|&i| {
                ImageMeasures::of_with(unique[i as usize].render_with(&mut arena), &mut scratch)
            })
            .collect::<Vec<_>>()
    });

    // Scatter back to unique order, then expand to input order.
    let mut by_unique: Vec<Option<ImageMeasures>> = vec![None; unique.len()];
    for (&i, m) in order.iter().zip(measured.into_iter().flatten()) {
        by_unique[i as usize] = Some(m);
    }
    slots
        .iter()
        .map(|&s| by_unique[s as usize].expect("every unique image is measured"))
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::crawl::{Download, FoundLink, PackDownload};
    use crimebb::{PostId, ThreadId};
    use imagesim::{ImageClass, ImageSpec};
    use synthrand::Day;
    use textkit::url::Url;
    use websim::SiteKind;

    #[test]
    fn measure_batch_matches_serial() {
        let images: Vec<StoredImage> = (0..100)
            .map(|v| {
                StoredImage::pristine(ImageSpec::model_photo(ImageClass::ModelNude, v, v.into()))
            })
            .collect();
        let parallel = measure_batch(&images, 4);
        let serial: Vec<ImageMeasures> = images
            .iter()
            .map(|i| ImageMeasures::of(&i.render()))
            .collect();
        assert_eq!(parallel, serial);
    }

    /// The tentpole guarantee: the arena-backed batch (chunked workers,
    /// reused render + measure scratch) is bit-identical to the
    /// multi-pass reference measuring each image in isolation, at every
    /// worker count, across transformed images of mixed classes.
    #[test]
    fn arena_batch_is_bit_identical_to_reference_for_all_worker_counts() {
        use imagesim::Transform;
        let classes = [
            ImageClass::ModelNude,
            ImageClass::ModelDressed,
            ImageClass::ChatScreenshot,
            ImageClass::Landscape,
            ImageClass::Document,
        ];
        let transforms = [
            Transform::Identity,
            Transform::MirrorHorizontal,
            Transform::Watermark { seed: 3 },
            Transform::Brightness(-20),
            Transform::Noise {
                amplitude: 6,
                seed: 4,
            },
            Transform::CropMargin { percent: 8 },
            Transform::OcclusionBar { seed: 9 },
        ];
        let mut images: Vec<StoredImage> = (0..90u32)
            .map(|v| {
                let class = classes[v as usize % classes.len()];
                let spec = if class.is_model() {
                    ImageSpec::model_photo(class, v + 1, v.into())
                } else {
                    ImageSpec::of(class, v.into())
                };
                StoredImage {
                    spec,
                    transform: transforms[v as usize % transforms.len()],
                }
            })
            .collect();
        // Reposts: exact duplicates and same-spec/different-transform
        // copies, so the dedup fan-out and the pristine-render cache are
        // both on the hot path.
        let dupes: Vec<StoredImage> = images.iter().step_by(3).copied().collect();
        images.extend(dupes);
        let retransformed: Vec<StoredImage> = images
            .iter()
            .step_by(7)
            .map(|i| StoredImage {
                spec: i.spec,
                transform: Transform::Brightness(25),
            })
            .collect();
        images.extend(retransformed);
        let reference: Vec<ImageMeasures> = images
            .iter()
            .map(|i| ImageMeasures::reference(&i.render()))
            .collect();
        for workers in [1, 2, 7] {
            let batched = measure_batch(&images, workers);
            assert_eq!(batched, reference, "workers={workers}");
            for (b, r) in batched.iter().zip(&reference) {
                assert_eq!(b.nsfw.to_bits(), r.nsfw.to_bits(), "workers={workers}");
            }
        }
    }

    fn image(v: u32) -> StoredImage {
        StoredImage::pristine(ImageSpec::model_photo(ImageClass::ModelNude, v, v.into()))
    }

    fn link(thread: u32) -> FoundLink {
        FoundLink {
            url: Url::new("img.example.com", format!("/i/{thread}")),
            kind: SiteKind::ImageSharing,
            thread: ThreadId(thread),
            post: PostId(thread),
            posted: Day::from_ymd(2017, 1, 1),
        }
    }

    fn tiny_crawl() -> CrawlResult {
        CrawlResult {
            previews: (0..3)
                .map(|v| Download {
                    image: image(v),
                    link: link(v),
                    is_banner: false,
                })
                .collect(),
            packs: vec![
                PackDownload {
                    images: (10..12).map(image).collect(),
                    link: link(10),
                },
                PackDownload {
                    images: vec![],
                    link: link(11),
                },
                PackDownload {
                    images: (20..24).map(image).collect(),
                    link: link(12),
                },
            ],
            ..CrawlResult::default()
        }
    }

    /// A journaled memo restores every image's measures by lookup, and
    /// one missing pair rejects it instead of leaving a hole.
    #[test]
    fn memo_restore_looks_every_image_up_and_rejects_a_missing_pair() {
        let crawl = tiny_crawl();
        let measured = flatten_and_measure(&crawl, |images| measure_batch(images, 1)).unwrap();
        let images = crawl.previews.iter().map(|d| d.image);
        let images = images.chain(crawl.packs.iter().flat_map(|p| p.images.iter().copied()));
        let mut memo: Vec<_> = images
            .map(|i| (i, ImageMeasures::of(&i.render())))
            .collect();
        assert_eq!(measures_from_memo(&crawl, &memo).unwrap(), measured);
        memo.remove(4);
        assert!(measures_from_memo(&crawl, &memo).is_err());
    }

    /// The satellite guarantee: one flattened batch covering previews and
    /// every pack image, re-split per pack without loss.
    #[test]
    fn one_flat_batch_is_issued_and_resplit_per_pack() {
        let crawl = tiny_crawl();
        let mut calls = 0usize;
        let measures = flatten_and_measure(&crawl, |images| {
            calls += 1;
            assert_eq!(images.len(), 9, "3 previews + the 2/0/4 pack images");
            measure_batch(images, 1)
        })
        .unwrap();
        assert_eq!(calls, 1, "exactly one measure batch");

        assert_eq!(measures.previews.len(), 3);
        assert_eq!(
            measures.packs.iter().map(Vec::len).collect::<Vec<_>>(),
            [2, 0, 4],
            "re-split preserves per-pack lengths, including empty packs"
        );
        // Lossless: each slot holds exactly the measure of its own image.
        for (d, m) in crawl.previews.iter().zip(&measures.previews) {
            assert_eq!(*m, ImageMeasures::of(&d.image.render()));
        }
        for (p, pack) in crawl.packs.iter().zip(&measures.packs) {
            for (img, m) in p.images.iter().zip(pack) {
                assert_eq!(*m, ImageMeasures::of(&img.render()));
            }
        }
    }
}
