//! Quickstart: decompose a graph, inspect the clustering, and bound its
//! diameter — the library's two headline operations in ~40 lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pardec::prelude::*;

fn main() {
    // The paper's mesh dataset at a laptop-friendly scale: 200×200 grid,
    // 40,000 nodes, diameter 398, doubling dimension 2.
    let g = generators::mesh(200, 200);
    println!("graph: {} nodes, {} edges", g.num_nodes(), g.num_edges());

    // --- CLUSTER(τ): the paper's Algorithm 1 --------------------------------
    let result = cluster(&g, &ClusterParams::new(16, 42));
    let clustering = &result.clustering;
    clustering.validate(&g).expect("valid partition");
    println!(
        "CLUSTER(16): {} clusters, max radius {}, {} growth steps over {} batches",
        clustering.num_clusters(),
        clustering.max_radius(),
        result.trace.total_growth_steps(),
        result.trace.num_batches(),
    );
    let sizes = clustering.cluster_sizes();
    println!(
        "cluster sizes: min {}, max {}",
        sizes.iter().min().unwrap(),
        sizes.iter().max().unwrap()
    );

    // --- Diameter approximation (§4) ----------------------------------------
    let approx = approximate_diameter(&g, &DiameterParams::new(16, 42));
    println!(
        "diameter: {} ≤ Δ ≤ {} (quotient: {} nodes / {} edges, radius {})",
        approx.lower_bound,
        approx.estimate(),
        approx.quotient_nodes,
        approx.quotient_edges,
        approx.radius,
    );
    let exact = diameter::exact_diameter(&g);
    println!(
        "exact Δ = {exact} -> approximation ratio {:.2} (paper observes < 2)",
        approx.estimate() as f64 / exact as f64
    );
}
