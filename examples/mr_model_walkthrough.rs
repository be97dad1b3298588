//! A tour of the MR(M_G, M_L) emulation (§5): generic rounds, the Fact 1
//! primitives, an M_L budget in action, and the round/communication ledger
//! that separates CLUSTER from the Θ(Δ)-round baselines.
//!
//! ```text
//! cargo run --release --example mr_model_walkthrough
//! ```

use pardec::core::mr_impl::{mr_bfs, mr_cluster};
use pardec::core::ClusterParams;
use pardec::mr::primitives::{mr_prefix_sum, mr_sort};
use pardec::prelude::*;

fn main() {
    // --- 1. A generic aggregation round --------------------------------------
    let mut eng = MrEngine::new(MrConfig::with_partitions(8));
    let pairs: Vec<(u32, u64)> = (0..100_000u32).map(|i| (i % 97, 1)).collect();
    let counts = eng
        .round(pairs, |&k, vs: Vec<u64>| vec![(k, vs.iter().sum::<u64>())])
        .unwrap();
    println!(
        "aggregation round: {} keys, ledger: {}",
        counts.len(),
        eng.stats()
    );

    // --- 2. Fact 1 primitives -------------------------------------------------
    let items: Vec<u64> = (0..50_000u64)
        .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
        .collect();
    let sorted = mr_sort(&mut eng, items, 7).unwrap();
    assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let sums = mr_prefix_sum(&mut eng, vec![1; 10_000]).unwrap();
    assert_eq!(sums[9_999], 9_999);
    println!("after sort + prefix sum: {}", eng.stats());

    // --- 3. An M_L budget violation -------------------------------------------
    let mut strict = MrEngine::new(MrConfig::with_partitions(4).with_local_memory(100));
    let skewed: Vec<(u8, u8)> = vec![(0, 0); 1_000];
    let err = strict
        .round(skewed, |&k, vs: Vec<u8>| vec![(k, vs.len())])
        .unwrap_err();
    println!("hard M_L budget: {err}");

    // --- 4. The §5 contrast on a long-diameter graph --------------------------
    let g = generators::road_network(120, 120, 0.4, 9);
    let delta = diameter::exact_diameter(&g);
    let c = mr_cluster(&g, &ClusterParams::new(8, 11));
    let b = mr_bfs(&g, 0);
    println!(
        "\nroad network (Δ = {delta}): CLUSTER {} rounds / {} pairs vs BFS {} rounds / {} pairs",
        c.supersteps,
        c.stats.total_pairs(),
        b.supersteps,
        b.stats.total_pairs(),
    );
    println!(
        "CLUSTER runs {:.0}x fewer rounds at comparable aggregate volume — the §5 claim.",
        b.supersteps as f64 / c.supersteps.max(1) as f64
    );
}
