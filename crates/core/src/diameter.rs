//! §4 — diameter approximation through the quotient graph of a clustering.
//!
//! Pipeline: decompose `G` (CLUSTER2 for the Theorem 3 guarantees, or plain
//! CLUSTER as the paper's own experiments do for speed), build the quotient
//! graph `G_C`, compute its diameter `Δ_C`, and report
//!
//! * lower bound `Δ_C ≤ Δ`,
//! * upper bound `Δ′ = 2·R·(Δ_C + 1) + Δ_C` (Corollary 1), and
//! * the tighter `Δ″ = 2·R + Δ′_C` from the *weighted* quotient graph,
//!   where `Δ″ ≤ Δ′` always holds (each weighted edge costs at most
//!   `2R + 1`).
//!
//! `R` is the maximum radius of the clustering actually used (`R_ALG2` for
//! CLUSTER2, `R_ALG` for CLUSTER).

use crate::cluster::{cluster, ClusterParams};
use crate::cluster2::cluster2;
use crate::clustering::Clustering;
use pardec_graph::diameter as exact;
use pardec_graph::frontier::FrontierStrategy;
use pardec_graph::{CombineStats, CsrGraph, NeighborAccess};
use std::sync::Arc;

/// Which decomposition feeds the quotient construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decomposition {
    /// Algorithm 1 — what the paper's experiments use ("for efficiency,
    /// we used CLUSTER instead of CLUSTER2", §6.2).
    Cluster,
    /// Algorithm 2 — the variant carrying the Theorem 3 guarantee.
    Cluster2,
}

/// Parameters of [`approximate_diameter`].
#[derive(Clone, Debug)]
pub struct DiameterParams {
    /// Decomposition granularity (target quotient size ≈ τ·log² n).
    pub tau: usize,
    /// RNG seed.
    pub seed: u64,
    /// Which clustering algorithm to run.
    pub decomposition: Decomposition,
    /// Also compute the weighted-quotient bound `Δ″` (the paper's tightened
    /// estimate). It costs one APSP over the weighted quotient, except on a
    /// [`crate::session::Session`] holding an oracle: the oracle already
    /// stores that APSP, and `Δ″` reads `Δ′_C` from it. It costs no extra
    /// cut-edge sweep: the sweep that builds the weighted quotient also
    /// yields the unweighted one `Δ_C` is read from.
    pub weighted: bool,
    /// Theorem 4's sparsification path: when the quotient has more edges
    /// than this (the `M_L` stand-in), replace it with a Baswana–Sen
    /// 3-spanner before computing `Δ_C`. The upper bound stays valid (the
    /// spanner's diameter dominates `Δ_C`); the lower bound is divided by
    /// the stretch. `None` (default) never sparsifies.
    pub sparsify_above: Option<usize>,
    /// Frontier expansion strategy of the underlying cluster growth. Every
    /// strategy yields byte-identical bounds; this trades wall-clock only.
    pub frontier: FrontierStrategy,
}

impl DiameterParams {
    /// The paper's experimental configuration: CLUSTER + weighted quotient.
    /// The frontier strategy follows `PARDEC_FRONTIER` (default: top-down).
    pub fn new(tau: usize, seed: u64) -> Self {
        DiameterParams {
            tau,
            seed,
            decomposition: Decomposition::Cluster,
            weighted: true,
            sparsify_above: None,
            frontier: FrontierStrategy::default_from_env(),
        }
    }

    /// Theorem-faithful configuration: CLUSTER2 + weighted quotient.
    pub fn with_cluster2(mut self) -> Self {
        self.decomposition = Decomposition::Cluster2;
        self
    }

    /// Selects the growth waves' frontier expansion strategy.
    pub fn with_frontier(mut self, strategy: FrontierStrategy) -> Self {
        self.frontier = strategy;
        self
    }
}

/// Output of [`approximate_diameter`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiameterApprox {
    /// `Δ_C` — the quotient diameter, a lower bound on `Δ`.
    pub lower_bound: u64,
    /// `Δ′ = 2·R·(Δ_C + 1) + Δ_C` — the Corollary 1 upper bound.
    pub upper_bound: u64,
    /// `Δ″ = 2·R + Δ′_C` from the weighted quotient (if requested);
    /// `Δ ≤ Δ″ ≤ Δ′`. This is the estimate the paper's Table 3/4 report.
    pub upper_bound_weighted: Option<u64>,
    /// Max radius `R` of the clustering used.
    pub radius: u32,
    /// Quotient graph size (the paper's `n_C`, `m_C`).
    pub quotient_nodes: usize,
    pub quotient_edges: usize,
    /// Combine-kernel ledger of the (unweighted) quotient build: undirected
    /// cut edges fed in, unique quotient edges out — the paper's `m_C`
    /// before and after multi-edge collapsing, as measured by the parallel
    /// contraction kernel that performed it. Always describes the build
    /// *before* any Theorem 4 sparsification; `quotient_edges` reflects the
    /// spanner when sparsification replaced the quotient.
    pub quotient_kernel: CombineStats,
    /// Cluster-growing steps spent — the parallel-rounds proxy of §5.
    pub growth_steps: usize,
    /// The clustering (for reuse: oracle construction, diagnostics),
    /// shared with the session it came from, if any.
    pub clustering: Arc<Clustering>,
}

impl DiameterApprox {
    /// The algorithm's diameter estimate: `Δ″` when available, else `Δ′`.
    pub fn estimate(&self) -> u64 {
        self.upper_bound_weighted.unwrap_or(self.upper_bound)
    }
}

/// Runs the §4 diameter approximation on a (preferably connected) graph.
///
/// On disconnected graphs every bound refers to the largest per-component
/// value, mirroring [`pardec_graph::diameter::exact_diameter`].
pub fn approximate_diameter<G: NeighborAccess>(g: &G, params: &DiameterParams) -> DiameterApprox {
    let cp = ClusterParams::new(params.tau.max(1), params.seed).with_frontier(params.frontier);
    let (clustering, growth_steps) = match params.decomposition {
        Decomposition::Cluster => {
            let r = cluster(g, &cp);
            (r.clustering, r.trace.total_growth_steps())
        }
        Decomposition::Cluster2 => {
            let r = cluster2(g, &cp);
            (
                r.clustering,
                r.probe_trace.total_growth_steps() + r.trace.total_growth_steps(),
            )
        }
    };
    approximate_diameter_of_clustering(g, clustering, growth_steps, params)
}

/// The quotient half of the §4 pipeline, starting from an already-computed
/// clustering — the path a resident [`crate::session::Session`] takes when
/// the decomposition was loaded from a snapshot instead of recomputed.
///
/// Only `params.weighted`, `params.sparsify_above`, and `params.seed` (for
/// the spanner) are read; the decomposition fields describe work already
/// done. `growth_steps` is echoed into the result's ledger. One cut-edge
/// sweep builds every quotient the bounds need.
pub fn approximate_diameter_of_clustering<G: NeighborAccess>(
    g: &G,
    clustering: Clustering,
    growth_steps: usize,
    params: &DiameterParams,
) -> DiameterApprox {
    let ((quotient, kernel), weighted_diameter) = if params.weighted {
        let (quotient, wdiam) = quotient_and_weighted_diameter(g, &clustering);
        (quotient, Some(wdiam))
    } else {
        (clustering.quotient_with_stats(g), None)
    };
    bounds_of_clustering(
        &quotient,
        kernel,
        Arc::new(clustering),
        growth_steps,
        params,
        weighted_diameter,
    )
}

/// The unweighted quotient of `clustering` with its kernel ledger, and
/// `Δ′_C`, the APSP diameter of its weighted quotient — both from one
/// sweep, since the unweighted quotient is the weighted one's topology.
pub(crate) fn quotient_and_weighted_diameter<G: NeighborAccess>(
    g: &G,
    clustering: &Clustering,
) -> ((CsrGraph, CombineStats), u64) {
    let (weighted, kernel) = clustering.weighted_quotient_with_stats(g);
    ((weighted.topology(), kernel), weighted.apsp_diameter())
}

/// The §4 bounds of `clustering` from its unweighted quotient and that
/// quotient's kernel ledger, with `Δ″` from `weighted_diameter` (`Δ′_C`)
/// when given: a resident oracle's
/// [`DistanceOracle::quotient_diameter`], or the APSP of
/// [`quotient_and_weighted_diameter`].
///
/// [`DistanceOracle::quotient_diameter`]: crate::oracle::DistanceOracle::quotient_diameter
pub(crate) fn bounds_of_clustering(
    quotient: &CsrGraph,
    quotient_kernel: CombineStats,
    clustering: Arc<Clustering>,
    growth_steps: usize,
    params: &DiameterParams,
    weighted_diameter: Option<u64>,
) -> DiameterApprox {
    let radius = clustering.max_radius();
    // Theorem 4: if the quotient exceeds the local-memory stand-in,
    // sparsify it with a (2k-1)-spanner before the diameter computation.
    let spanner;
    let mut q = quotient;
    let mut stretch = 1u64;
    if let Some(limit) = params.sparsify_above {
        if q.num_edges() > limit {
            let sp = pardec_graph::spanner::baswana_sen(q, 2, params.seed.wrapping_add(0x51));
            stretch = sp.stretch as u64;
            spanner = sp.graph;
            q = &spanner;
        }
    }
    let q_diam = exact::exact_diameter(q) as u64;
    // With sparsification, q_diam over-estimates Δ_C by at most `stretch`.
    let delta_c = q_diam / stretch;
    let upper = 2 * radius as u64 * (q_diam + 1) + q_diam;

    DiameterApprox {
        lower_bound: delta_c,
        upper_bound: upper,
        upper_bound_weighted: weighted_diameter.map(|wdiam| 2 * radius as u64 + wdiam),
        radius,
        quotient_nodes: q.num_nodes(),
        quotient_edges: q.num_edges(),
        quotient_kernel,
        growth_steps,
        clustering,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardec_graph::generators;

    fn sandwich(g: &pardec_graph::CsrGraph, params: &DiameterParams) -> (u64, DiameterApprox) {
        let delta = exact::exact_diameter(g) as u64;
        let a = approximate_diameter(g, params);
        a.clustering.validate(g).unwrap();
        assert!(a.lower_bound <= delta, "Δ_C {} > Δ {delta}", a.lower_bound);
        assert!(a.upper_bound >= delta, "Δ′ {} < Δ {delta}", a.upper_bound);
        if let Some(w) = a.upper_bound_weighted {
            assert!(w >= delta, "Δ″ {w} < Δ {delta}");
            assert!(w <= a.upper_bound, "Δ″ {w} > Δ′ {}", a.upper_bound);
        }
        (delta, a)
    }

    #[test]
    fn sandwich_on_mesh() {
        let g = generators::mesh(30, 30);
        for seed in 0..3 {
            sandwich(&g, &DiameterParams::new(8, seed));
        }
    }

    #[test]
    fn sandwich_on_road_network() {
        let g = generators::road_network(30, 30, 0.4, 6);
        sandwich(&g, &DiameterParams::new(8, 1));
    }

    #[test]
    fn sandwich_on_social_graph() {
        let g = generators::preferential_attachment(1500, 5, 2);
        sandwich(&g, &DiameterParams::new(4, 3));
    }

    #[test]
    fn sandwich_with_cluster2() {
        let g = generators::mesh(25, 25);
        sandwich(&g, &DiameterParams::new(4, 5).with_cluster2());
    }

    #[test]
    fn weighted_estimate_is_reasonably_tight() {
        // The experiments observe Δ″/Δ < 2 across the board; verify on a
        // mesh with a modest-granularity clustering.
        let g = generators::mesh(40, 40);
        let (delta, a) = sandwich(&g, &DiameterParams::new(16, 7));
        let est = a.estimate();
        assert!(
            est <= 3 * delta,
            "estimate {est} more than 3x diameter {delta}"
        );
    }

    #[test]
    fn finer_clustering_means_bigger_quotient() {
        let g = generators::mesh(35, 35);
        let coarse = approximate_diameter(&g, &DiameterParams::new(2, 9));
        let fine = approximate_diameter(&g, &DiameterParams::new(32, 9));
        assert!(fine.quotient_nodes > coarse.quotient_nodes);
    }

    #[test]
    fn unweighted_only_mode() {
        let g = generators::mesh(20, 20);
        let mut p = DiameterParams::new(4, 0);
        p.weighted = false;
        let a = approximate_diameter(&g, &p);
        assert!(a.upper_bound_weighted.is_none());
        assert_eq!(a.estimate(), a.upper_bound);
    }

    #[test]
    fn sparsified_quotient_keeps_sandwich() {
        // Force Theorem 4's sparsification path with a tiny M_L stand-in:
        // the upper bound must remain valid and the lower bound, scaled by
        // the spanner stretch, must stay below Δ.
        let g = generators::mesh(30, 30);
        let delta = exact::exact_diameter(&g) as u64;
        let mut p = DiameterParams::new(8, 3);
        p.sparsify_above = Some(8); // quotient will exceed this for sure
        let a = approximate_diameter(&g, &p);
        assert!(a.lower_bound <= delta, "lb {} > Δ {delta}", a.lower_bound);
        assert!(a.upper_bound >= delta, "Δ′ {} < Δ {delta}", a.upper_bound);
        // The weighted bound is computed on the original quotient and stays
        // a valid sandwich member.
        let w = a.upper_bound_weighted.unwrap();
        assert!(w >= delta);
    }

    #[test]
    fn sparsify_disabled_when_quotient_small() {
        let g = generators::mesh(15, 15);
        let mut p = DiameterParams::new(2, 5);
        p.sparsify_above = Some(usize::MAX);
        let a = approximate_diameter(&g, &p);
        let b = approximate_diameter(&g, &DiameterParams::new(2, 5));
        assert_eq!(a.lower_bound, b.lower_bound);
        assert_eq!(a.upper_bound, b.upper_bound);
    }

    #[test]
    fn frontier_strategies_produce_identical_bounds() {
        let g = generators::mesh(25, 25);
        crate::testing::assert_frontier_strategies_agree("approximate_diameter", |strategy| {
            let a = approximate_diameter(&g, &DiameterParams::new(8, 3).with_frontier(strategy));
            (
                a.lower_bound,
                a.upper_bound,
                a.upper_bound_weighted,
                a.radius,
                a.quotient_nodes,
                a.quotient_edges,
                a.clustering.assignment.clone(),
            )
        });
    }

    #[test]
    fn kernel_ledger_matches_quotient() {
        let g = generators::mesh(30, 30);
        let a = approximate_diameter(&g, &DiameterParams::new(8, 1));
        // Without sparsification the reported quotient IS the kernel's
        // output: its edge count is exactly the combined pair count, and
        // the input side counts every undirected cut edge.
        assert_eq!(a.quotient_kernel.output_pairs, a.quotient_edges);
        assert!(a.quotient_kernel.input_pairs >= a.quotient_kernel.output_pairs);
        assert!(a.quotient_kernel.combine_ratio() >= 1.0);
    }

    #[test]
    fn of_clustering_matches_full_pipeline() {
        let g = generators::mesh(20, 20);
        let p = DiameterParams::new(6, 11);
        let full = approximate_diameter(&g, &p);
        let replay = approximate_diameter_of_clustering(
            &g,
            Clustering::clone(&full.clustering),
            full.growth_steps,
            &p,
        );
        assert_eq!(replay.lower_bound, full.lower_bound);
        assert_eq!(replay.upper_bound, full.upper_bound);
        assert_eq!(replay.upper_bound_weighted, full.upper_bound_weighted);
        assert_eq!(replay.quotient_nodes, full.quotient_nodes);
        assert_eq!(replay.quotient_edges, full.quotient_edges);
        assert_eq!(replay.growth_steps, full.growth_steps);
        assert_eq!(replay.clustering, full.clustering);
    }

    #[test]
    fn single_cluster_degenerate() {
        // τ so large relative to n that the loop never runs -> singletons;
        // quotient = G, lower bound exact.
        let g = generators::cycle(12);
        let a = approximate_diameter(&g, &DiameterParams::new(100, 0));
        assert_eq!(a.lower_bound, 6);
        assert_eq!(a.radius, 0);
    }
}
