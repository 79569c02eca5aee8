//! The `report` binary's implementation layers: the subcommand CLI
//! ([`cli`]), the batch path ([`report_cmd`]), the pipeline service
//! ([`serve`]) with its wire protocol ([`proto`]), and the load
//! generator ([`loadgen`]) — plus the lazily-built world the ablation
//! bench shares.

pub mod cli;
pub mod loadgen;
pub mod proto;
pub mod report_cmd;
pub mod serve;

use std::sync::OnceLock;
use worldgen::{World, WorldConfig};

/// Seed shared by all benchmark fixtures.
pub const BENCH_SEED: u64 = 0xBE7C;

/// A small world (~2% scale) for the ablation bench.
pub fn small_world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| World::generate(WorldConfig::test_scale(BENCH_SEED)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        assert!(!small_world().corpus.posts().is_empty());
    }
}
