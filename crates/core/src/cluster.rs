//! Algorithm 1 — **CLUSTER(τ)**: the paper's core decomposition.
//!
//! ```text
//! C ← ∅; V′ ← ∅
//! while |V − V′| ≥ 8·τ·log n do
//!     select each node of V − V′ as a new center independently
//!         with probability 4·τ·log n / |V − V′|
//!     add the new singleton clusters to C
//!     grow all clusters of C disjointly until ≥ |V − V′|/2 new nodes covered
//!     V′ ← covered nodes
//! return C ∪ {singletons on V − V′}
//! ```
//!
//! Guarantees (Theorem 1, Lemma 1): `O(τ·log² n)` clusters whp, and on a
//! graph of doubling dimension `b` and diameter `Δ` a maximum radius of
//! `O(⌈Δ/τ^{1/b}⌉·log n)` — within `O(log n)` of the best radius achievable
//! by *any* τ-cluster decomposition. All logarithms are base 2 (paper,
//! footnote 1).

use crate::clustering::Clustering;
use crate::growth::GrowthEngine;
use pardec_graph::frontier::FrontierStrategy;
use pardec_graph::{NeighborAccess, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of [`cluster`]. `batch_factor` and `stop_factor` are the
/// pseudocode's constants 4 and 8, exposed for the ablation experiments.
#[derive(Clone, Debug)]
pub struct ClusterParams {
    /// The granularity parameter τ ≥ 1.
    pub tau: usize,
    /// RNG seed (center selection).
    pub seed: u64,
    /// Per-batch selection probability numerator factor (paper: 4).
    pub batch_factor: f64,
    /// While-loop threshold factor (paper: 8): loop while
    /// `uncovered ≥ stop_factor · τ · log n`.
    pub stop_factor: f64,
    /// Frontier expansion strategy of the growth engine. Every strategy
    /// produces a byte-identical clustering; this trades wall-clock only.
    /// Unused by [`crate::weighted_cluster()`], whose bucketed Dijkstra
    /// growth has no level-synchronous frontier to flip.
    pub frontier: FrontierStrategy,
    /// Bucket width δ of the weighted engine (arrival-time window per
    /// bucket). Like `frontier`, a wall-clock knob only: every δ produces a
    /// byte-identical weighted clustering. `None` falls back to
    /// `PARDEC_DELTA`, then to the mean-edge-weight heuristic. Unused by
    /// the unweighted [`cluster`].
    pub delta: Option<u64>,
}

impl ClusterParams {
    /// Paper constants with the given τ and seed. The frontier strategy
    /// follows `PARDEC_FRONTIER` (default: top-down).
    pub fn new(tau: usize, seed: u64) -> Self {
        assert!(tau >= 1, "tau must be positive");
        ClusterParams {
            tau,
            seed,
            batch_factor: 4.0,
            stop_factor: 8.0,
            frontier: FrontierStrategy::default_from_env(),
            delta: None,
        }
    }

    /// Selects the growth engine's frontier expansion strategy.
    pub fn with_frontier(mut self, strategy: FrontierStrategy) -> Self {
        self.frontier = strategy;
        self
    }

    /// Pins the weighted engine's bucket width δ (must be ≥ 1).
    pub fn with_delta(mut self, delta: u64) -> Self {
        assert!(delta >= 1, "delta must be positive");
        self.delta = Some(delta);
        self
    }
}

/// Per-iteration record of a CLUSTER run.
#[derive(Clone, Debug, PartialEq)]
pub struct IterationTrace {
    /// Uncovered nodes when the iteration began.
    pub uncovered_before: usize,
    /// Centers activated by this batch.
    pub new_centers: usize,
    /// Growth steps executed in this iteration.
    pub growth_steps: usize,
    /// Nodes covered during the iteration (batch + growth).
    pub covered: usize,
}

/// Execution trace of a CLUSTER/CLUSTER2/MPX run — the round ledger behind
/// the §5 analysis (total growth steps ≍ parallel rounds, Lemma 3).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClusterTrace {
    /// One record per while-loop iteration (batch).
    pub iterations: Vec<IterationTrace>,
    /// Singleton clusters created by the final sweep.
    pub tail_singletons: usize,
}

impl ClusterTrace {
    /// Total cluster-growing steps `R` over the run; with `M_L = Ω(nᵋ)` the
    /// MR implementation needs `O(R)` rounds (Lemma 3).
    pub fn total_growth_steps(&self) -> usize {
        self.iterations.iter().map(|i| i.growth_steps).sum()
    }

    /// Number of center batches (while-loop iterations).
    pub fn num_batches(&self) -> usize {
        self.iterations.len()
    }
}

/// Result of [`cluster`]: the decomposition plus its execution trace.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterResult {
    pub clustering: Clustering,
    pub trace: ClusterTrace,
}

/// `log₂ n`, clamped below by 1 so thresholds behave on tiny graphs.
pub(crate) fn log2n(n: usize) -> f64 {
    (n.max(2) as f64).log2()
}

/// Runs **CLUSTER(τ)** (Algorithm 1) on `g`.
///
/// Works on disconnected graphs too (§3.2): unreachable regions keep
/// receiving fresh batches until the loop threshold is passed, and whatever
/// remains becomes singleton clusters.
pub fn cluster<G: NeighborAccess>(g: &G, params: &ClusterParams) -> ClusterResult {
    let n = g.num_nodes();
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut eng = GrowthEngine::with_strategy(g, params.frontier);
    let mut trace = ClusterTrace::default();
    let logn = log2n(n);
    let threshold = (params.stop_factor * params.tau as f64 * logn).max(1.0);

    // The paper's while loop runs ℓ = ⌈log(n / (8τ log n))⌉ ≤ log n times in
    // expectation; the hard cap below only guards against adversarially
    // unlucky seeds on disconnected graphs (see DESIGN.md §5.2).
    let max_iterations = (2.0 * logn) as usize + 32;

    while (eng.uncovered() as f64) >= threshold && trace.iterations.len() < max_iterations {
        let mut round_span = pardec_obs::span!(
            "cluster.round",
            round = trace.iterations.len(),
            uncovered = eng.uncovered(),
        );
        let uncovered_before = eng.uncovered();
        let p = (params.batch_factor * params.tau as f64 * logn / uncovered_before as f64)
            .clamp(0.0, 1.0);

        // Select each uncovered node independently with probability p.
        let batch: Vec<NodeId> = eng
            .uncovered_nodes()
            .filter(|_| rng.gen::<f64>() < p)
            .collect();
        let mut new_centers = 0;
        for v in batch {
            if eng.add_center(v) {
                new_centers += 1;
            }
        }
        // Progress guard: with no active clusters and an empty batch the
        // iteration would stall; force one uniformly random center (an event
        // of probability < n^{-2} per the Theorem 1 analysis).
        if new_centers == 0 && eng.frontier_len() == 0 {
            let pick = rng.gen_range(0..uncovered_before);
            let forced = eng.uncovered_nodes().nth(pick);
            if let Some(v) = forced {
                eng.add_center(v);
                new_centers = 1;
            }
        }

        // Grow until at least half of the iteration's uncovered nodes are
        // covered (centers count as covered) or the frontier dies out.
        let goal = uncovered_before.div_ceil(2);
        let mut covered_this = new_centers;
        let mut growth_steps = 0;
        while covered_this < goal {
            let newly = eng.step();
            growth_steps += 1;
            covered_this += newly;
            if newly == 0 && eng.frontier_len() == 0 {
                break;
            }
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

    trace.tail_singletons = eng.uncovered();
    let clustering = eng.finish();
    ClusterResult { clustering, trace }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{assert_cluster_strategies_agree, check_cluster as check};
    use pardec_graph::generators;

    #[test]
    fn covers_mesh() {
        let g = generators::mesh(30, 30);
        let r = check(&g, 4, 1);
        assert_eq!(
            r.clustering.cluster_sizes().iter().sum::<usize>(),
            g.num_nodes()
        );
        assert!(r.clustering.num_clusters() >= 4);
    }

    #[test]
    fn cluster_count_within_theorem_bound() {
        // Theorem 1: O(τ log² n) clusters whp. Check with a generous
        // constant on several seeds.
        let g = generators::road_network(40, 40, 0.4, 9);
        let n = g.num_nodes();
        let bound = |tau: usize| (8.0 * tau as f64 * log2n(n) * log2n(n)) as usize;
        for seed in 0..5 {
            for tau in [1usize, 4, 16] {
                let r = check(&g, tau, seed);
                assert!(
                    r.clustering.num_clusters() <= bound(tau),
                    "tau={tau} seed={seed}: {} clusters > bound {}",
                    r.clustering.num_clusters(),
                    bound(tau)
                );
            }
        }
    }

    #[test]
    fn radius_shrinks_with_tau() {
        // Lemma 1: radius ~ Δ / τ^{1/b}; more clusters, smaller radius.
        let g = generators::mesh(40, 40);
        let r_small = check(&g, 2, 7).clustering.max_radius();
        let r_large = check(&g, 64, 7).clustering.max_radius();
        assert!(
            r_large < r_small,
            "radius did not shrink: tau=2 -> {r_small}, tau=64 -> {r_large}"
        );
    }

    #[test]
    fn radius_well_below_diameter_on_lollipop() {
        // The §3 example: expander + long tail. The tail forces Δ large, but
        // batches keep landing in the tail, keeping the radius small.
        let g = generators::lollipop(2000, 4, 400, 3);
        let delta = 400u32; // at least the tail length
        let r = check(&g, 32, 5);
        assert!(
            r.clustering.max_radius() * 4 < delta,
            "radius {} not ≪ diameter {delta}",
            r.clustering.max_radius()
        );
    }

    #[test]
    fn small_graph_degenerates_to_singletons() {
        let g = generators::path(5);
        // Threshold 8·τ·log n > 5 -> loop never runs; all singletons.
        let r = check(&g, 1, 0);
        assert_eq!(r.clustering.num_clusters(), 5);
        assert_eq!(r.clustering.max_radius(), 0);
        assert_eq!(r.trace.num_batches(), 0);
        assert_eq!(r.trace.tail_singletons, 5);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::preferential_attachment(800, 4, 11);
        let a = cluster(&g, &ClusterParams::new(4, 42));
        let b = cluster(&g, &ClusterParams::new(4, 42));
        assert_eq!(a.clustering, b.clustering);
        assert_eq!(a.trace, b.trace);
        let c = cluster(&g, &ClusterParams::new(4, 43));
        assert_ne!(a.clustering, c.clustering);
    }

    #[test]
    fn frontier_strategies_produce_identical_decompositions() {
        for (g, tau, seed) in [
            (generators::mesh(28, 28), 4, 1),
            (generators::preferential_attachment(900, 5, 8), 8, 2),
            (
                generators::disjoint_union(
                    &generators::mesh(12, 12),
                    &generators::road_network(10, 10, 0.3, 4),
                ),
                2,
                3,
            ),
        ] {
            assert_cluster_strategies_agree(&g, tau, seed);
        }
    }

    #[test]
    fn works_on_disconnected_graphs() {
        let g = generators::disjoint_union(
            &generators::mesh(15, 15),
            &generators::road_network(12, 12, 0.3, 2),
        );
        let r = check(&g, 4, 13);
        assert_eq!(
            r.clustering.cluster_sizes().iter().sum::<usize>(),
            g.num_nodes()
        );
    }

    #[test]
    fn trace_accounts_growth() {
        let g = generators::mesh(25, 25);
        let r = check(&g, 4, 3);
        assert!(r.trace.total_growth_steps() > 0);
        // Coverage per iteration reaches the half-goal (connected graph).
        for it in &r.trace.iterations {
            assert!(
                2 * it.covered >= it.uncovered_before,
                "iteration under-covered: {it:?}"
            );
        }
    }

    #[test]
    fn empty_graph() {
        let g = pardec_graph::CsrGraph::empty(0);
        let r = cluster(&g, &ClusterParams::new(1, 0));
        assert_eq!(r.clustering.num_clusters(), 0);
    }
}
