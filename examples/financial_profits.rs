//! The §5 analyses: proof-of-earnings harvesting (with safety and NSFV
//! filtering), USD conversion at date-correct rates, and the Currency
//! Exchange board (Table 7).
//!
//! ```text
//! cargo run --release --example financial_profits
//! ```

use ewhoring_core::extract::extract_ewhoring_threads;
use ewhoring_core::finance::{
    analyse_currency_exchange, analyse_earnings, harvest_earnings_stream,
};
use ewhoring_core::pipeline::EpochCarry;
use ewhoring_core::report::quantiles;
use safety::SafetyGate;

fn main() {
    let world = ewhoring_suite::demo_world(555);
    let threads = extract_ewhoring_threads(&world.corpus).all_threads();
    let gate = SafetyGate::new(world.hashlist.clone());

    // One fresh fold over the whole post list, as the finance stage runs it.
    let mut carry = EpochCarry::default();
    let harvest = harvest_earnings_stream(&world, &gate, &threads, &mut carry.finance);
    println!(
        "harvest: {} earnings threads → {} posts with links → {} unique URLs",
        harvest.earnings_threads, harvest.posts_with_links, harvest.unique_urls
    );
    println!(
        "downloads: {} ok, {} NSFV-filtered, {} analysed ({} proofs / {} not-proof)",
        harvest.downloaded,
        harvest.filtered_nsfv,
        harvest.analysed,
        harvest.proofs.len(),
        harvest.not_proof
    );

    let e = analyse_earnings(&harvest);
    println!(
        "\n{} actors reported US${:.0} total (mean US${:.0}, max US${:.0})",
        e.actors, e.total_usd, e.mean_per_actor, e.max_per_actor
    );
    println!(
        "avg itemised transaction: US${:.2} across {} detailed proofs",
        e.avg_transaction_usd, e.detailed_proofs
    );
    println!("platform mix: {:?}", e.platform_counts);

    let usd: Vec<f64> = e.per_actor.iter().map(|&(u, _)| u).collect();
    let q = quantiles(&usd, &[0.25, 0.5, 0.75, 0.9]);
    println!(
        "Figure 2: per-actor earnings quantiles 25/50/75/90% = {:?}",
        q.iter().map(|v| v.round()).collect::<Vec<_>>()
    );

    let ce = analyse_currency_exchange(&world.corpus, world.hackforums, &threads);
    println!(
        "\nTable 7: {} CE threads by {} committed actors",
        ce.threads, ce.actors
    );
    println!("  offered: {:?}", ce.offered);
    println!("  wanted:  {:?}", ce.wanted);
    println!("  (the shape to look for: BTC most wanted, AGC offered ≫ wanted)");
}
