//! Algorithm 2 — **CLUSTER2(τ)**: the refined decomposition behind the
//! diameter approximation (§4).
//!
//! ```text
//! run CLUSTER(τ); let R_ALG be the max radius of its clusters
//! C ← ∅; V′ ← ∅
//! for i ← 1 to log n do
//!     select each node of V − V′ as a new center independently
//!         with probability 2^i / n
//!     add the new singleton clusters to C
//!     grow all clusters of C disjointly for 2·R_ALG steps
//!     V′ ← covered nodes
//! return C
//! ```
//!
//! Lemma 2: `O(τ·log⁴ n)` clusters whp with radius `R_ALG2 ≤ 2·R_ALG·log n`.
//! The *fixed* per-batch growth budget — rather than CLUSTER's coverage-
//! driven one — is what Theorem 3 needs: clusters activated late cannot
//! travel far, so any shortest path meets few clusters.

use crate::cluster::{cluster, ClusterParams, ClusterTrace, IterationTrace};
use crate::clustering::Clustering;
use pardec_graph::frontier::FrontierEngine;
use pardec_graph::{NeighborAccess, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of [`cluster2`]: the decomposition, the probe's `R_ALG`, and both
/// execution traces.
#[derive(Clone, Debug, PartialEq)]
pub struct Cluster2Result {
    pub clustering: Clustering,
    /// Maximum radius of the probe CLUSTER(τ) run (the growth budget input).
    pub r_alg: u32,
    /// Trace of the probe run.
    pub probe_trace: ClusterTrace,
    /// Trace of the main (Algorithm 2) loop.
    pub trace: ClusterTrace,
}

/// Runs **CLUSTER2(τ)** (Algorithm 2) on `g`.
///
/// The probe CLUSTER(τ) uses `seed`, the main loop `seed + 1`, so the two
/// phases draw independent randomness while staying reproducible.
pub fn cluster2<G: NeighborAccess>(g: &G, params: &ClusterParams) -> Cluster2Result {
    let n = g.num_nodes();
    let probe = cluster(g, params);
    // R_ALG = 0 happens when the probe degenerates to singletons (tiny or
    // pathological graphs); a growth budget of 0 would make the main loop
    // produce all-singletons too, so clamp to 1 step.
    let r_alg = probe.clustering.max_radius();
    let budget = (2 * r_alg).max(1) as usize;

    let mut rng = StdRng::seed_from_u64(params.seed.wrapping_add(1));
    let mut eng = FrontierEngine::new(g, params.frontier);
    let mut trace = ClusterTrace::default();
    let iterations = crate::cluster::log2n(n).ceil() as u32;

    for i in 1..=iterations {
        if eng.unclaimed() == 0 {
            break;
        }
        let mut round_span = pardec_obs::span!(
            "cluster2.round",
            round = i,
            uncovered = eng.unclaimed(),
            budget = budget,
        );
        let uncovered_before = eng.unclaimed();
        let p = (2f64.powi(i as i32) / n.max(1) as f64).clamp(0.0, 1.0);
        let batch: Vec<NodeId> = eng
            .unclaimed_nodes()
            .filter(|_| rng.gen::<f64>() < p)
            .collect();
        let mut new_centers = 0;
        for v in batch {
            if eng.add_source(v) {
                new_centers += 1;
            }
        }
        let mut covered_this = new_centers;
        let mut growth_steps = 0;
        for _ in 0..budget {
            // Grow the full budget even when some steps cover nothing —
            // Theorem 3 charges every active cluster 2·R_ALG steps per batch.
            if eng.frontier_len() == 0 {
                break;
            }
            covered_this += eng.step();
            growth_steps += 1;
        }
        round_span.field("new_centers", new_centers);
        round_span.field("growth_steps", growth_steps);
        round_span.field("covered", covered_this);
        trace.iterations.push(IterationTrace {
            uncovered_before,
            new_centers,
            growth_steps,
            covered: covered_this,
        });
    }

    trace.tail_singletons = eng.unclaimed();
    let clustering = Clustering::from_frontier(eng);
    Cluster2Result {
        clustering,
        r_alg,
        probe_trace: probe.trace,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::log2n;
    use crate::testing::{assert_cluster2_strategies_agree, check_cluster2 as check};
    use pardec_graph::generators;

    #[test]
    fn covers_everything() {
        let g = generators::mesh(25, 25);
        let r = check(&g, 4, 2);
        assert_eq!(
            r.clustering.cluster_sizes().iter().sum::<usize>(),
            g.num_nodes()
        );
    }

    #[test]
    fn radius_bound_of_lemma2() {
        // R_ALG2 ≤ 2 · R_ALG · log n.
        let g = generators::road_network(35, 35, 0.4, 4);
        for seed in 0..4 {
            let r = check(&g, 4, seed);
            let bound = (2.0 * r.r_alg.max(1) as f64 * log2n(g.num_nodes())).ceil() as u32;
            assert!(
                r.clustering.max_radius() <= bound,
                "seed {seed}: R_ALG2 {} > bound {bound} (R_ALG {})",
                r.clustering.max_radius(),
                r.r_alg
            );
        }
    }

    #[test]
    fn per_batch_budget_respected() {
        let g = generators::mesh(30, 30);
        let r = check(&g, 8, 5);
        let budget = (2 * r.r_alg).max(1) as usize;
        for it in &r.trace.iterations {
            assert!(
                it.growth_steps <= budget,
                "iteration exceeded budget: {} > {budget}",
                it.growth_steps
            );
        }
    }

    #[test]
    fn last_batch_selects_all_leftovers() {
        // With p = 2^⌈log n⌉ / n ≥ 1 in the final iteration, nothing can
        // remain uncovered before the tail sweep.
        let g = generators::road_network(20, 20, 0.2, 8);
        let r = check(&g, 2, 3);
        assert_eq!(r.trace.tail_singletons, 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::preferential_attachment(500, 4, 7);
        let a = cluster2(&g, &ClusterParams::new(2, 9));
        let b = cluster2(&g, &ClusterParams::new(2, 9));
        assert_eq!(a.clustering, b.clustering);
        assert_eq!(a.r_alg, b.r_alg);
    }

    #[test]
    fn cluster_count_within_lemma2_bound() {
        // Lemma 2: O(τ·log⁴ n) clusters whp. (Note this is only an upper
        // bound — with a large probe radius the early batches may absorb
        // most of the graph, so CLUSTER2 can return far *fewer* clusters
        // than CLUSTER at the same τ.)
        let g = generators::mesh(40, 40);
        let l = log2n(g.num_nodes());
        for seed in [11u64, 12, 13] {
            let c2 = check(&g, 4, seed);
            let bound = (4.0 * 4.0 * l.powi(4)) as usize;
            assert!(
                c2.clustering.num_clusters() <= bound,
                "seed {seed}: {} clusters > Lemma 2 bound {bound}",
                c2.clustering.num_clusters()
            );
        }
        // `cluster` is still exercised for comparison in the probe.
        let c1 = cluster(&g, &ClusterParams::new(4, 11));
        assert!(c1.clustering.num_clusters() > 0);
    }

    #[test]
    fn frontier_strategies_produce_identical_decompositions() {
        assert_cluster2_strategies_agree(&generators::mesh(24, 24), 4, 6);
        assert_cluster2_strategies_agree(&generators::preferential_attachment(700, 4, 1), 2, 9);
    }

    #[test]
    fn tiny_graph() {
        let g = generators::path(4);
        let r = check(&g, 1, 0);
        assert_eq!(
            r.clustering.cluster_sizes().iter().sum::<usize>(),
            g.num_nodes()
        );
    }
}
