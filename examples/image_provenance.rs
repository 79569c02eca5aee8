//! The §4 image pipeline in isolation: classify TOPs, crawl their links,
//! screen downloads, classify SFV/NSFV, and trace image provenance through
//! reverse search and domain classification.
//!
//! ```text
//! cargo run --release --example image_provenance
//! ```

use ewhoring_core::crawl::crawl_tops;
use ewhoring_core::nsfv::ImageMeasures;
use ewhoring_core::pipeline::{Pipeline, PipelineOptions};
use ewhoring_core::provenance::{analyse_provenance_memo, sample_pack_images, PackForAnalysis};
use safety::{HostingRegion, SafetyGate, ScreenOutcome, SiteType};

fn main() {
    let world = ewhoring_suite::demo_world(77);

    // Stage 1+2: find eWhoring threads, then the ones offering packs —
    // the first two stages of the pipeline.
    let ctx = Pipeline::new(PipelineOptions {
        workers: 1,
        ..PipelineOptions::default()
    })
    .run_prefix(&world, 2)
    .expect("extract and top_classifier run on a generated world");
    let threads = ctx.all_threads().expect("extract ran");
    let tops = ctx.topcls().expect("top_classifier ran");
    println!(
        "{} eWhoring threads; {} classified as offering packs (P={:.2} R={:.2})",
        threads.len(),
        tops.detected.len(),
        tops.hybrid_metrics.precision,
        tops.hybrid_metrics.recall
    );

    // Stage 3: snowball the hosting whitelist and crawl.
    let crawl = crawl_tops(&world.corpus, &world.catalog, &world.web, &tops.detected);
    println!(
        "crawl: {} whitelisted hosts, {} previews, {} packs, {} dead links, {} registration-walled",
        crawl.whitelist.len(),
        crawl.previews.len(),
        crawl.packs.len(),
        crawl.dead_links,
        crawl.registration_blocked
    );

    // Stage 4+5: measure pixels once; screen, then split SFV/NSFV.
    let gate = SafetyGate::new(world.hashlist.clone());
    let today = world.config.dataset_end();
    let mut previews_nsfv = Vec::new();
    let mut banners = 0;
    for d in &crawl.previews {
        let m = ImageMeasures::of(&d.image.render());
        let screened = gate.screen(
            &m.hash,
            &d.link.url.to_https(),
            today,
            HostingRegion::NorthAmerica,
            SiteType::ImageSharing,
        );
        if matches!(screened, ScreenOutcome::ReportedAndDeleted { .. }) {
            continue; // never analysed further
        }
        if d.is_banner {
            banners += 1;
        }
        if !m.is_sfv() {
            previews_nsfv.push((m, d.link.posted));
        }
    }
    println!(
        "previews: {} NSFV (model imagery), {} removal banners classified SFV",
        previews_nsfv.len(),
        banners
    );

    // Stage 6: reverse-search three samples per pack plus every NSFV
    // preview; classify the provenance domains.
    let mut packs = Vec::new();
    let mut authors = Vec::new();
    for p in &crawl.packs {
        let images: Vec<ImageMeasures> = p
            .images
            .iter()
            .map(|img| ImageMeasures::of(&img.render()))
            .collect();
        let sampled = sample_pack_images(&images);
        packs.push(PackForAnalysis {
            thread: p.link.thread,
            posted: p.link.posted,
            images: sampled,
        });
        authors.push(world.corpus.thread(p.link.thread).author);
    }
    let prov = analyse_provenance_memo(
        &world.index,
        &world.wayback,
        &world.origins,
        &packs,
        &authors,
        &previews_nsfv,
        &mut Vec::new(),
    );
    println!(
        "reverse search: packs {}/{} matched (ratio {:.1}), previews {}/{} (ratio {:.1})",
        prov.packs.matched,
        prov.packs.total,
        prov.packs.ratio,
        prov.previews.matched,
        prov.previews.total,
        prov.previews.ratio
    );
    println!(
        "zero-match packs: {}/{}; distinct provenance domains: {}",
        prov.zero_match_packs, prov.analysed_packs, prov.distinct_domains
    );
    for table in &prov.domain_tags {
        let top: Vec<String> = table
            .tags
            .iter()
            .take(4)
            .map(|(t, c)| format!("{t} ({c})"))
            .collect();
        println!("  {} top tags: {}", table.classifier, top.join(", "));
    }
}
