//! Extension (§8 future work): simulate the shared hash-blacklist
//! intervention the paper recommends — "blacklists with hashes of known
//! images used for eWhoring … could be created and shared among
//! stakeholders".
//!
//! ```text
//! cargo run --release --example intervention
//! ```

use ewhoring_core::crawl::crawl_tops;
use ewhoring_core::intervention::{deployment_sweep, simulate_blacklist};
use ewhoring_core::nsfv::ImageMeasures;
use worldgen::ThreadRole;

fn main() {
    let world = ewhoring_suite::demo_world(808);

    // Crawl every pack the pipeline can reach.
    let mut tops: Vec<_> = world
        .truth
        .thread_roles
        .iter()
        .filter(|&(_, &r)| r == ThreadRole::Top)
        .map(|(&t, _)| t)
        .collect();
    tops.sort_unstable();
    let crawl = crawl_tops(&world.corpus, &world.catalog, &world.web, &tops);
    let owned: Vec<(ewhoring_core::crawl::PackDownload, Vec<ImageMeasures>)> = crawl
        .packs
        .into_iter()
        .map(|p| {
            let m: Vec<ImageMeasures> = p
                .images
                .iter()
                .take(30)
                .map(|img| ImageMeasures::of(&img.render()))
                .collect();
            (p, m)
        })
        .collect();
    let packs: Vec<(&ewhoring_core::crawl::PackDownload, &[ImageMeasures])> =
        owned.iter().map(|(p, m)| (p, m.as_slice())).collect();
    println!(
        "{} packs crawled; replaying the blacklist intervention…\n",
        packs.len()
    );

    // Sweep deployment dates across the posting timeline.
    let mut dates: Vec<synthrand::Day> = packs.iter().map(|(p, _)| p.link.posted).collect();
    dates.sort_unstable();
    let sweep_dates: Vec<synthrand::Day> = (1..=4).map(|i| dates[dates.len() * i / 5]).collect();
    println!("deployment date   image-block rate   pack-disruption rate");
    for (date, block, disrupt) in deployment_sweep(&packs, &sweep_dates) {
        println!(
            "  {date}        {:>5.1}%             {:>5.1}%",
            100.0 * block,
            100.0 * disrupt
        );
    }

    // Detail at the midpoint.
    let mid = dates[dates.len() / 2];
    let o = simulate_blacklist(&packs, mid);
    println!(
        "\nat {}: list of {} hashes; {}/{} later packs disrupted, {} untouched",
        o.deployed, o.blacklist_size, o.disrupted_packs, o.later_packs, o.untouched_packs
    );
    println!(
        "evasion floor: mirrored/self-made material keeps {:.0}% of later packs \
         fully out of reach — the limit the paper's discussion anticipates",
        100.0 * o.untouched_packs as f64 / o.later_packs.max(1) as f64
    );

    // Second §8 lever: payment-platform screening of high-velocity
    // accounts.
    use ewhoring_core::extract::extract_ewhoring_threads;
    use ewhoring_core::finance::harvest_earnings_stream;
    use ewhoring_core::intervention::screen_payment_accounts;
    use ewhoring_core::pipeline::EpochCarry;
    let threads = extract_ewhoring_threads(&world.corpus).all_threads();
    let gate = safety::SafetyGate::new(world.hashlist.clone());
    let mut carry = EpochCarry::default();
    let harvest = harvest_earnings_stream(&world, &gate, &threads, &mut carry.finance);
    for min_tx in [5u32, 10, 20] {
        let s = screen_payment_accounts(&harvest.proofs, min_tx);
        println!(
            "payment screening (≥{min_tx} tx/proof): flags {}/{} actors covering {:.0}% of revenue",
            s.flagged_actors,
            s.flagged_actors + s.unflagged_actors,
            100.0 * s.usd_coverage()
        );
    }
}
