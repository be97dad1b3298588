//! Long-diameter regime: estimate a road network's diameter with the §4
//! quotient pipeline and compare cost and accuracy against the BFS baseline
//! and the exact diameter routine — the scenario where the paper's
//! algorithm shines (Table 4's roads rows).
//!
//! ```text
//! cargo run --release --example road_network_diameter
//! ```

use pardec::core::bfs_baseline::bfs_diameter;
use pardec::prelude::*;
use std::time::Instant;

fn main() {
    // A sparsified 300×300 grid: 90k nodes, m/n ≈ 1.4, diameter Θ(√n) —
    // the synthetic stand-in for roads-CA.
    let g = generators::road_network(300, 300, 0.4, 7);
    println!(
        "road network: {} nodes, {} edges",
        g.num_nodes(),
        g.num_edges()
    );

    let t0 = Instant::now();
    let approx = approximate_diameter(&g, &DiameterParams::new(8, 11));
    let t_cluster = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let bfs = bfs_diameter(&g, 11);
    let t_bfs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let diameter::Exact {
        diameter: exact,
        traversals: bfs_runs,
        ..
    } = diameter::exact(&g);
    let t_exact = t0.elapsed().as_secs_f64();

    println!("\nmethod               time      bounds");
    println!(
        "CLUSTER quotient   {t_cluster:7.3}s   {} ≤ Δ ≤ {}   ({} growth steps ≪ Δ)",
        approx.lower_bound,
        approx.estimate(),
        approx.growth_steps,
    );
    println!(
        "BFS 2-approx       {t_bfs:7.3}s   {} ≤ Δ ≤ {}   (Θ(Δ) = {} rounds)",
        bfs.lower_bound, bfs.upper_bound, bfs.rounds,
    );
    println!("exact              {t_exact:7.3}s   Δ = {exact}   ({bfs_runs} BFS runs)");

    let ratio = approx.estimate() as f64 / exact as f64;
    println!("\nquotient estimate ratio Δ′/Δ = {ratio:.3} (paper: < 2 on all road networks)");
    assert!(approx.lower_bound as u64 <= exact);
    assert!(approx.estimate() >= exact);
}
