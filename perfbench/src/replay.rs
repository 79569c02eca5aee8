//! Replays of the costly stages' sub-steps on the stages' own inputs,
//! through the substrates' public entry points, for the traced `batch`
//! run. Each replay also reports its coverage: replayed time over the
//! time of the stage it explains, so a reader can tell how much of the
//! stage the named sub-steps account for.
//!
//! Sub-steps that have no public entry point are left out, not exposed:
//! the Wayback look-ups after each reverse-search query (provenance)
//! and the held-out evaluation inside `classify_tops` (top_classifier)
//! are inside their stages' totals only.

use crate::stats::median;
use crate::trace::Recorder;
use crate::{timed, Outcome};
use crimebb::ThreadId;
use ewhoring_core::actors::interaction_graph;
use ewhoring_core::crawl::CrawlResult;
use ewhoring_core::features::{thread_tokens, FeatureExtractor};
use ewhoring_core::nsfv::ImageMeasures;
use ewhoring_core::par::{par_map, par_map_chunks};
use ewhoring_core::pipeline::{
    snapshot_json, KeptImages, Pipeline, PipelineOptions, StageCtx, StageError,
};
use ewhoring_core::provenance::sample_pack_images;
use ewhoring_core::topcls::{annotation_sample, heuristic_is_top, ANNOTATION_SAMPLE, TRAIN_SIZE};
use linsvm::{LinearSvm, SvmConfig};
use rand::rngs::StdRng;
use socgraph::eigenvector_centrality_par;
use std::collections::{HashMap, HashSet};
use synthrand::Day;
use websim::{RenderScratch, StoredImage};
use worldgen::World;

/// Iterations the actors stage gives the centrality power iteration.
const CENTRALITY_ITERATIONS: usize = 200;

/// Runs the stage graph one stage at a time, replaying the costly
/// stages' sub-steps next to them, and returns the stage-by-stage
/// snapshot for the caller to check. Stage spans are `replay.stage.<name>`
/// so they stay apart from the traced jobs' `stage.<name>` spans.
pub fn pass(
    rec: &mut Recorder,
    world: &World,
    options: PipelineOptions,
    out: &mut Outcome,
) -> Result<String, String> {
    let err = |e: StageError| e.to_string();
    let workers = options.workers;
    let mut ctx = StageCtx::new(world, options);
    let mut stage_ms: HashMap<&'static str, f64> = HashMap::new();
    let mut replay_ms: HashMap<&'static str, f64> = HashMap::new();
    for stage in Pipeline::stages() {
        let name = stage.name();
        // Replays that need the stage's inputs as they were on entry.
        match name {
            "top_classifier" => {
                let threads = ctx.all_threads().map_err(err)?.clone();
                let rng = ctx.rng.clone();
                let ms = top_classifier(rec, world, rng, &threads, workers, out);
                replay_ms.insert(name, ms);
            }
            "actors" => {
                let threads = ctx.all_threads().map_err(err)?.clone();
                let ms = actors(rec, world, &threads, workers, out);
                replay_ms.insert(name, ms);
            }
            _ => {}
        }
        let (result, secs) =
            timed(|| rec.span(&format!("replay.stage.{name}"), |_| stage.run(&mut ctx)));
        result.map_err(|e| format!("stage {name}: {e}"))?;
        stage_ms.insert(name, secs * 1e3);
        // Replays that read the stage's outputs.
        match name {
            "measure_images" => {
                let ms = measure(rec, ctx.crawl().map_err(err)?, workers, out);
                replay_ms.insert(name, ms);
            }
            "provenance" => {
                let ms = provenance(
                    rec,
                    world,
                    ctx.kept().map_err(err)?,
                    ctx.previews_nsfv().map_err(err)?,
                    out,
                );
                replay_ms.insert(name, ms);
            }
            _ => {}
        }
    }
    for (stage, prefix) in [
        ("measure_images", "measure"),
        ("provenance", "revsearch"),
        ("top_classifier", "topcls"),
        ("actors", "socgraph"),
    ] {
        out.metric(
            format!("{prefix}.replay_coverage"),
            replay_ms[stage] / stage_ms[stage],
        );
    }
    ctx.into_report()
        .and_then(|r| snapshot_json(&r))
        .map_err(err)
}

/// `measure_images`: renders (websim) and measures (imagesim) each
/// unique `(spec, transform)` pair once, grouped by spec and split into
/// one contiguous chunk per worker with per-worker arenas — the same
/// order and arenas the stage's `measure_batch` uses. Returns the
/// replay's wall time in ms.
fn measure(rec: &mut Recorder, crawl: &CrawlResult, workers: usize, out: &mut Outcome) -> f64 {
    let mut images: Vec<StoredImage> = crawl.previews.iter().map(|d| d.image).collect();
    for pack in &crawl.packs {
        images.extend(pack.images.iter().copied());
    }
    let mut seen = HashSet::new();
    let mut unique: Vec<StoredImage> = images
        .iter()
        .copied()
        .filter(|img| seen.insert((img.spec, img.transform)))
        .collect();
    unique.sort_by_key(|img| (img.spec.class, img.spec.model, img.spec.variant));
    let (per_chunk, secs) = timed(|| {
        rec.span("replay.measure_images", |_| {
            par_map_chunks(&unique, workers, |chunk| {
                let mut arena = RenderScratch::new();
                let mut scratch = imagesim::MeasureScratch::new();
                let (mut render_s, mut measure_s) = (0.0, 0.0);
                for img in chunk {
                    let t = std::time::Instant::now();
                    let bitmap = std::hint::black_box(img.render_with(&mut arena));
                    render_s += t.elapsed().as_secs_f64();
                    let t = std::time::Instant::now();
                    std::hint::black_box(ImageMeasures::of_with(bitmap, &mut scratch));
                    measure_s += t.elapsed().as_secs_f64();
                }
                (render_s, measure_s)
            })
        })
    });
    let n = unique.len().max(1) as f64;
    let render_s: f64 = per_chunk.iter().map(|c| c.0).sum();
    let measure_s: f64 = per_chunk.iter().map(|c| c.1).sum();
    out.timing("websim.render_us", render_s * 1e6 / n, unique.len());
    out.timing("imagesim.measure_us", measure_s * 1e6 / n, unique.len());
    out.metric(
        "measure.unique_ratio",
        unique.len() as f64 / images.len().max(1) as f64,
    );
    secs * 1e3
}

/// `provenance`: the reverse-index queries the stage issues — three
/// sampled images per surviving pack plus every NSFV preview. Returns
/// the summed query time in ms.
fn provenance(
    rec: &mut Recorder,
    world: &World,
    kept: &KeptImages,
    previews_nsfv: &[(ImageMeasures, Day)],
    out: &mut Outcome,
) -> f64 {
    let mut hashes = Vec::new();
    for pack in &kept.packs {
        hashes.extend(sample_pack_images(pack).iter().map(|m| m.hash));
    }
    hashes.extend(previews_nsfv.iter().map(|(m, _)| m.hash));
    let query_us: Vec<f64> = rec.span("replay.provenance", |_| {
        hashes
            .iter()
            .map(|h| {
                let (matches, secs) = timed(|| world.index.query(h));
                std::hint::black_box(matches);
                secs * 1e6
            })
            .collect()
    });
    let total_ms = query_us.iter().sum::<f64>() / 1e3;
    out.metric("revsearch.queries", hashes.len() as f64);
    out.metric("revsearch.index_images", world.index.len() as f64);
    out.timing("revsearch.query_us", median(&query_us), query_us.len());
    total_ms
}

/// `top_classifier`: annotation sample, feature fit, training rows,
/// SVM training and the full-corpus apply sweep, in the order
/// `classify_tops` runs them, on a clone of the stage's entry rng.
/// Tokenisation is timed on its own as well; it is also part of the fit
/// and the apply sweep. Returns the replay's wall time in ms.
fn top_classifier(
    rec: &mut Recorder,
    world: &World,
    mut rng: StdRng,
    threads: &[ThreadId],
    workers: usize,
    out: &mut Outcome,
) -> f64 {
    let (corpus, catalog) = (&world.corpus, &world.catalog);
    let ((), secs) = timed(|| {
        rec.span("replay.top_classifier", |r| {
            let sample = r.span("topcls.annotate", |_| {
                annotation_sample(&mut rng, corpus, catalog, threads, ANNOTATION_SAMPLE)
            });
            let labels: Vec<bool> = sample.iter().map(|&t| world.truth.is_top(t)).collect();
            let n_train = (sample.len() * TRAIN_SIZE / ANNOTATION_SAMPLE).max(1);
            let (train_idx, test_idx) = linsvm::train_test_split(sample.len(), n_train, 0x5711);
            let train: Vec<ThreadId> = train_idx.iter().map(|&i| sample[i]).collect();
            let extractor = r.span("features.fit", |_| {
                FeatureExtractor::fit(corpus, &train, workers)
            });
            let (train_x, train_y) = r.span("features.rows", |_| {
                let rows = |idx: &[usize]| {
                    let picked: Vec<ThreadId> = idx.iter().map(|&i| sample[i]).collect();
                    extractor.features_many(corpus, catalog, &picked, workers)
                };
                let mut x = rows(&train_idx);
                let mut y: Vec<bool> = train_idx.iter().map(|&i| labels[i]).collect();
                let positives: Vec<_> = x
                    .iter()
                    .zip(&y)
                    .filter(|&(_, &l)| l)
                    .map(|(v, _)| v.clone())
                    .collect();
                for p in positives.into_iter().step_by(2) {
                    x.push(p);
                    y.push(true);
                }
                std::hint::black_box(rows(&test_idx));
                (x, y)
            });
            let svm = r.span("linsvm.train", |_| {
                LinearSvm::train(&train_x, &train_y, SvmConfig::default())
            });
            r.span("topcls.apply", |_| {
                std::hint::black_box(par_map(threads, workers, |&t| {
                    (
                        svm.predict(&extractor.features(corpus, catalog, t)),
                        heuristic_is_top(corpus, catalog, t),
                    )
                }))
            });
        })
    });
    rec.span("textkit.tokenize", |_| {
        std::hint::black_box(par_map(threads, workers, |&t| thread_tokens(corpus, t)))
    });
    for (span, metric) in [
        ("textkit.tokenize", "textkit.tokenize_ms"),
        ("features.fit", "features.fit_ms"),
        ("linsvm.train", "linsvm.train_ms"),
        ("topcls.apply", "topcls.apply_ms"),
    ] {
        out.timing(metric, rec.total_ms(span), 1);
    }
    secs * 1e3
}

/// `actors`: the interaction graph and its eigenvector centrality, the
/// batch path's inputs to key-actor selection. Returns the replay's
/// wall time in ms.
fn actors(
    rec: &mut Recorder,
    world: &World,
    threads: &[ThreadId],
    workers: usize,
    out: &mut Outcome,
) -> f64 {
    let ((), secs) = timed(|| {
        rec.span("replay.actors", |r| {
            let graph = r.span("socgraph.graph", |_| {
                interaction_graph(&world.corpus, threads)
            });
            r.span("socgraph.centrality", |_| {
                std::hint::black_box(eigenvector_centrality_par(
                    &graph,
                    CENTRALITY_ITERATIONS,
                    workers,
                ))
            });
        })
    });
    out.timing(
        "socgraph.centrality_ms",
        rec.total_ms("socgraph.centrality"),
        1,
    );
    secs * 1e3
}
