//! The **MPX** baseline: parallel graph decomposition via exponential random
//! shifts (Miller, Peng, Xu — SPAA'13, reference \[22\]), the comparison
//! target of Table 2.
//!
//! Every node `u` draws a shift `δ_u ~ Exp(β)`; node `u` starts growing its
//! own cluster at time `δ_max − δ_u` *unless it has already been captured*.
//! Equivalently, `v` joins the cluster of the `u` minimizing
//! `δ_max − δ_u + dist(u, v)`. MPX guarantees max radius `O(log n / β)` whp
//! and `O(β·m)` cut edges in expectation — it optimizes the *cut*, not the
//! radius, which is exactly the contrast the paper's Table 2 exhibits.
//!
//! This implementation discretizes start times to integer growth steps
//! (`⌊δ_max − δ_u⌋`), the standard practical variant: clusters expand one
//! hop per step, and nodes whose start time arrives while still uncovered
//! become centers.

use crate::clustering::Clustering;
use pardec_graph::frontier::{FrontierEngine, FrontierStrategy};
use pardec_graph::{NeighborAccess, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of [`mpx`].
#[derive(Clone, Debug, PartialEq)]
pub struct MpxResult {
    pub clustering: Clustering,
    /// Growth steps executed (= number of distinct discrete times).
    pub steps: usize,
}

/// Runs the MPX decomposition with rate `beta > 0` and the given seed,
/// expanding with the ambient default frontier strategy (`PARDEC_FRONTIER`,
/// else top-down).
///
/// Larger `beta` activates centers earlier and more densely: more clusters,
/// smaller radius, more cut edges.
///
/// # Panics
/// Panics if `beta` is not strictly positive and finite.
pub fn mpx<G: NeighborAccess>(g: &G, beta: f64, seed: u64) -> MpxResult {
    mpx_with_frontier(g, beta, seed, FrontierStrategy::default_from_env())
}

/// As [`mpx`] with an explicit frontier expansion strategy. The clustering
/// is byte-identical across strategies; only wall-clock time differs.
pub fn mpx_with_frontier<G: NeighborAccess>(
    g: &G,
    beta: f64,
    seed: u64,
    strategy: FrontierStrategy,
) -> MpxResult {
    assert!(beta > 0.0 && beta.is_finite(), "beta must be positive");
    let n = g.num_nodes();
    if n == 0 {
        return MpxResult {
            clustering: Clustering::from_frontier(FrontierEngine::new(g, strategy)),
            steps: 0,
        };
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // δ_u ~ Exp(β) by inversion; 1 - U avoids ln(0).
    let shifts: Vec<f64> = (0..n)
        .map(|_| -(1.0 - rng.gen::<f64>()).ln() / beta)
        .collect();
    let delta_max = shifts.iter().copied().fold(f64::MIN, f64::max);

    // Discrete start time per node; sorted schedule of (time, node).
    let mut schedule: Vec<(u32, NodeId)> = shifts
        .iter()
        .enumerate()
        .map(|(v, &d)| ((delta_max - d).floor().max(0.0) as u32, v as NodeId))
        .collect();
    schedule.sort_unstable();

    let mut eng = FrontierEngine::new(g, strategy);
    let mut next = 0usize; // cursor into the schedule
    let mut t = 0u32;
    let mut steps = 0usize;
    while eng.unclaimed() > 0 {
        let mut round_span =
            pardec_obs::span!("mpx.round", round = t, uncovered = eng.unclaimed(),);
        // Activate every node whose start time has arrived and that is
        // still uncovered.
        let mut activated = 0usize;
        while next < schedule.len() && schedule[next].0 <= t {
            if eng.add_source(schedule[next].1) {
                activated += 1;
            }
            next += 1;
        }
        if eng.frontier_len() > 0 {
            eng.step();
            steps += 1;
        }
        round_span.field("activated", activated);
        round_span.field("frontier", eng.frontier_len());
        t += 1;
    }
    MpxResult {
        clustering: Clustering::from_frontier(eng),
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{assert_mpx_strategies_agree, check_mpx as check};
    use pardec_graph::generators;

    #[test]
    fn covers_mesh() {
        let g = generators::mesh(25, 25);
        let r = check(&g, 0.1, 3);
        assert!(r.clustering.num_clusters() >= 1);
    }

    #[test]
    fn beta_controls_granularity() {
        let g = generators::mesh(40, 40);
        let coarse = check(&g, 0.02, 5);
        let fine = check(&g, 0.5, 5);
        assert!(
            fine.clustering.num_clusters() > coarse.clustering.num_clusters(),
            "fine {} vs coarse {}",
            fine.clustering.num_clusters(),
            coarse.clustering.num_clusters()
        );
        assert!(
            fine.clustering.max_radius() <= coarse.clustering.max_radius(),
            "fine radius {} vs coarse {}",
            fine.clustering.max_radius(),
            coarse.clustering.max_radius()
        );
    }

    #[test]
    fn radius_bound_tracks_log_over_beta() {
        // MPX: radius O(log n / β) whp — generous constant check.
        let g = generators::road_network(30, 30, 0.4, 7);
        let beta = 0.2;
        for seed in 0..4 {
            let r = check(&g, beta, seed);
            let bound = (6.0 * (g.num_nodes() as f64).log2() / beta) as u32;
            assert!(
                r.clustering.max_radius() <= bound,
                "seed {seed}: radius {} > bound {bound}",
                r.clustering.max_radius()
            );
        }
    }

    #[test]
    fn works_on_disconnected() {
        let g = generators::disjoint_union(&generators::path(20), &generators::cycle(12));
        check(&g, 0.3, 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::preferential_attachment(400, 3, 9);
        let a = mpx(&g, 0.1, 4);
        let b = mpx(&g, 0.1, 4);
        assert_eq!(a.clustering, b.clustering);
    }

    #[test]
    fn empty_graph() {
        let g = pardec_graph::CsrGraph::empty(0);
        let r = mpx(&g, 0.5, 0);
        assert_eq!(r.clustering.num_clusters(), 0);
    }

    #[test]
    fn frontier_strategies_produce_identical_decompositions() {
        assert_mpx_strategies_agree(&generators::mesh(30, 30), 0.1, 3);
        assert_mpx_strategies_agree(&generators::preferential_attachment(800, 5, 2), 0.25, 6);
    }

    #[test]
    fn high_beta_many_singletonish_clusters() {
        // With huge β all shifts ≈ 0: everyone starts at ~the same time and
        // clusters stay tiny.
        let g = generators::mesh(20, 20);
        let r = check(&g, 50.0, 2);
        assert!(r.clustering.num_clusters() > g.num_nodes() / 8);
        assert!(r.clustering.max_radius() <= 3);
    }
}
