//! Ablations of the design choices DESIGN.md calls out:
//!
//! * hybrid OR-combination vs its two halves (paper §4.1: the hybrid
//!   catches patterns either side misses);
//! * 3-samples-per-pack reverse search vs 1/5/exhaustive (the paper's
//!   cost cap);
//! * Algorithm 1 threshold sweep (the conservative operating point);
//! * Linear SVM vs logistic regression (the paper's model choice).
//!
//! Each bench also prints the quality numbers once so the trade-off, not
//! just the cost, is visible in the bench log.

use criterion::{criterion_group, criterion_main, Criterion};
use ewhoring_bench::small_world;
use ewhoring_core::extract::extract_ewhoring_threads;
use ewhoring_core::features::{ThreadInputs, OPEN_CUTOFF};
use ewhoring_core::nsfv::{algorithm1_with_thresholds, ImageMeasures};
use ewhoring_core::topcls::{bootstrap_at, decide, heuristic_is_top, tally};
use imagesim::validation::{build_validation_set, ValidationLabel};
use linsvm::{
    LinearSvm, LogRegConfig, LogisticRegression, NaiveBayes, NaiveBayesConfig, SparseVec, SvmConfig,
};
use std::hint::black_box;
use std::sync::Once;

static PRINT_ONCE: Once = Once::new();

fn bench_ablations(c: &mut Criterion) {
    let world = small_world();
    let threads = extract_ewhoring_threads(&world.corpus).all_threads();
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);

    // --- hybrid vs halves ---
    // The whole corpus as one slice, the way the top_classifier stage
    // runs on a generated world.
    let mut rng = synthrand::rng_from_seed(3);
    let inputs = ThreadInputs::at(&world.corpus, &world.catalog, &threads, OPEN_CUTOFF, 1);
    let model = bootstrap_at(&mut rng, &world.truth, &threads, &inputs, 1)
        .expect("the small world has threads to annotate");
    let result = tally(Some(&model), &threads, decide(Some(&model), &inputs, 1));
    PRINT_ONCE.call_once(|| {
        eprintln!(
            "[ablation] hybrid F1 {:.3} | ML F1 {:.3} | heuristic F1 {:.3} | union {} = ml {} + heur {} - both {}",
            result.hybrid_metrics.f1,
            result.ml_metrics.f1,
            result.heuristic_metrics.f1,
            result.detected.len(),
            result.ml_count,
            result.heuristic_count,
            result.both_count,
        );
    });
    group.bench_function("topcls_ml_only_apply", |b| {
        b.iter(|| {
            threads
                .iter()
                .filter(|&&t| {
                    model
                        .svm
                        .predict(&model.extractor.features(&world.corpus, &world.catalog, t))
                })
                .count()
        })
    });
    group.bench_function("topcls_heuristic_only_apply", |b| {
        b.iter(|| {
            threads
                .iter()
                .filter(|&&t| heuristic_is_top(&world.corpus, &world.catalog, t))
                .count()
        })
    });

    // --- pack sampling depth ---
    // Build per-pack measures once; compare match rates at depths 1/3/5/all.
    let crawl = ewhoring_core::crawl::crawl_tops(
        &world.corpus,
        &world.catalog,
        &world.web,
        &result.detected,
    );
    let pack_measures: Vec<(synthrand::Day, Vec<ImageMeasures>)> = crawl
        .packs
        .iter()
        .take(25)
        .map(|p| {
            (
                p.link.posted,
                p.images
                    .iter()
                    .take(24)
                    .map(|img| ImageMeasures::of(&img.render()))
                    .collect(),
            )
        })
        .collect();
    let match_rate = |depth: usize| -> (f64, usize) {
        let mut queried = 0usize;
        let mut matched_packs = 0usize;
        for (_, images) in &pack_measures {
            let mut sorted = images.clone();
            sorted.sort_by(|a, b| a.nsfw.partial_cmp(&b.nsfw).unwrap());
            let take: Vec<&ImageMeasures> = if depth == usize::MAX {
                sorted.iter().collect()
            } else {
                // Spread-depth sampling generalising low/median/high.
                (0..depth.min(sorted.len()))
                    .map(|i| &sorted[i * (sorted.len() - 1) / depth.max(1).min(sorted.len())])
                    .collect()
            };
            queried += take.len();
            if take.iter().any(|m| !world.index.query(&m.hash).is_empty()) {
                matched_packs += 1;
            }
        }
        (
            matched_packs as f64 / pack_measures.len().max(1) as f64,
            queried,
        )
    };
    PRINT_ONCE.call_once(|| {}); // keep Once used once only
    let (r1, q1) = match_rate(1);
    let (r3, q3) = match_rate(3);
    let (r5, q5) = match_rate(5);
    let (rall, qall) = match_rate(usize::MAX);
    eprintln!(
        "[ablation] pack-match rate by sampling depth: 1→{r1:.2} ({q1} queries), 3→{r3:.2} ({q3}), 5→{r5:.2} ({q5}), all→{rall:.2} ({qall})"
    );
    for (label, depth) in [("depth1", 1usize), ("depth3", 3), ("depth5", 5)] {
        group.bench_function(format!("pack_sampling_{label}"), |b| {
            b.iter(|| black_box(match_rate(depth)))
        });
    }

    // --- Algorithm 1 threshold sweep ---
    let validation = build_validation_set(0xA1);
    let measured: Vec<(ImageMeasures, ValidationLabel)> = validation
        .iter()
        .map(|v| (ImageMeasures::of(&v.spec.render()), v.label))
        .collect();
    let sweep = |fast_path: f64, cutoff: f64| -> (f64, f64) {
        let mut nude = (0usize, 0usize);
        let mut fp = (0usize, 0usize);
        for (m, label) in &measured {
            let nsfv = !algorithm1_with_thresholds(m.nsfw, m.ocr, fast_path, cutoff, 0.05, 10, 20);
            if *label == ValidationLabel::Nude {
                nude.1 += 1;
                if nsfv {
                    nude.0 += 1;
                }
            } else {
                fp.1 += 1;
                if nsfv {
                    fp.0 += 1;
                }
            }
        }
        (nude.0 as f64 / nude.1 as f64, fp.0 as f64 / fp.1 as f64)
    };
    for (fast_path, cutoff) in [
        (0.002, 0.3),
        (0.01, 0.3), // the paper's operating point
        (0.05, 0.3),
        (0.15, 0.3),
        (0.01, 0.85),
        (0.01, 0.97),
    ] {
        let (recall, fpr) = sweep(fast_path, cutoff);
        eprintln!(
            "[ablation] Algorithm 1 fast-path {fast_path} / cutoff {cutoff}: recall {recall:.3}, fp {fpr:.3}"
        );
    }
    group.bench_function("algorithm1_sweep", |b| {
        b.iter(|| black_box(sweep(0.01, 0.3)))
    });

    // --- SVM vs logistic regression ---
    let mut rng = synthrand::rng_from_seed(11);
    let rows: Vec<SparseVec> = (0..600)
        .map(|_| {
            use rand::Rng;
            SparseVec::from_pairs(vec![
                (0, rng.gen_range(0.0..1.0)),
                (1, rng.gen_range(0.0..1.0)),
            ])
        })
        .collect();
    let labels: Vec<bool> = rows.iter().map(|r| r.get(0) > r.get(1)).collect();
    let svm = LinearSvm::train(&rows, &labels, SvmConfig::default());
    let lr = LogisticRegression::train(&rows, &labels, LogRegConfig::default());
    let nb = NaiveBayes::train(&rows, &labels, NaiveBayesConfig::default());
    eprintln!(
        "[ablation] model choice on held-in data: SVM F1 {:.3} vs LogReg F1 {:.3} vs NaiveBayes F1 {:.3}",
        svm.evaluate(&rows, &labels).f1,
        lr.evaluate(&rows, &labels).f1,
        nb.evaluate(&rows, &labels).f1
    );
    group.bench_function("train_linear_svm", |b| {
        b.iter(|| black_box(LinearSvm::train(&rows, &labels, SvmConfig::default()).dim()))
    });
    group.bench_function("train_logreg", |b| {
        b.iter(|| {
            black_box(LogisticRegression::train(
                &rows,
                &labels,
                LogRegConfig::default(),
            ))
            .predict(&rows[0])
        })
    });
    group.bench_function("train_naive_bayes", |b| {
        b.iter(|| {
            black_box(NaiveBayes::train(
                &rows,
                &labels,
                NaiveBayesConfig::default(),
            ))
            .predict(&rows[0])
        })
    });

    // --- influence metric: eigenvector centrality vs PageRank ---
    // How stable is the §6.3 "influencing actors" selection under the
    // choice of influence measure?
    let graph = ewhoring_core::actors::interaction_graph(&world.corpus, &threads);
    let ev = socgraph::eigenvector_centrality(&graph, 200);
    let pr = socgraph::pagerank(&graph, 0.85, 200);
    let top_k = |scores: &[f64], k: usize| -> std::collections::HashSet<usize> {
        let mut idx: Vec<usize> = (0..scores.len()).collect();
        idx.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
        idx.into_iter().take(k).collect()
    };
    let k = 25;
    let overlap = top_k(&ev, k).intersection(&top_k(&pr, k)).count();
    eprintln!(
        "[ablation] influence metric: top-{k} eigenvector vs PageRank overlap = {overlap}/{k}"
    );
    group.bench_function("influence_eigenvector", |b| {
        b.iter(|| black_box(socgraph::eigenvector_centrality(&graph, 100).len()))
    });
    group.bench_function("influence_pagerank", |b| {
        b.iter(|| black_box(socgraph::pagerank(&graph, 0.85, 100).len()))
    });

    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
