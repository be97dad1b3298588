//! §4 (closing remark) — a linear-space approximate **distance oracle**.
//!
//! Cluster the graph with CLUSTER2(τ), keep per-node `(cluster, distance to
//! center)` and the APSP matrix of the weighted quotient graph. A query
//! `(u, v)` answers
//!
//! ```text
//! d′(u, v) = dist(u, c_u) + apsp[C_u][C_v] + dist(v, c_v)
//! ```
//!
//! an upper bound on `dist(u, v)` that the paper shows is
//! `O(dist(u, v)·log³ n + R_ALG2)` — polylogarithmic for far-apart pairs.
//! With `τ = O(√n / log⁴ n)` the matrix is `O(n)` words, keeping the oracle
//! linear-space.

use crate::cluster::ClusterParams;
use crate::cluster2::cluster2;
use crate::clustering::Clustering;
use crate::diameter::Decomposition;
use pardec_graph::weighted::max_finite;
use pardec_graph::{NeighborAccess, NodeId};
use rayon::prelude::*;

/// Approximate distance oracle built from a clustering (§4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistanceOracle {
    assignment: Vec<NodeId>,
    dist_to_center: Vec<u32>,
    /// APSP over the weighted quotient (connecting-path metric).
    apsp: Vec<Vec<u64>>,
    /// Per-cluster growth radii (drives [`Self::eccentricity_bound`]).
    radii: Vec<u32>,
    radius: u32,
}

impl DistanceOracle {
    /// Builds the oracle with CLUSTER2(τ) (the paper's construction) or
    /// plain CLUSTER (cheaper probe, same query logic).
    pub fn build<G: NeighborAccess>(
        g: &G,
        tau: usize,
        seed: u64,
        decomposition: Decomposition,
    ) -> Self {
        let params = ClusterParams::new(tau.max(1), seed);
        let clustering: Clustering = match decomposition {
            Decomposition::Cluster2 => cluster2(g, &params).clustering,
            Decomposition::Cluster => crate::cluster::cluster(g, &params).clustering,
        };
        Self::from_clustering(g, &clustering)
    }

    /// Builds from an existing clustering: one APSP over its weighted
    /// quotient.
    pub fn from_clustering<G: NeighborAccess>(g: &G, clustering: &Clustering) -> Self {
        let wq = clustering.weighted_quotient(g);
        DistanceOracle {
            radius: clustering.max_radius(),
            assignment: clustering.assignment.clone(),
            dist_to_center: clustering.dist_to_center.clone(),
            radii: clustering.radii.clone(),
            apsp: wq.apsp_matrix(),
        }
    }

    /// Reassembles an oracle from its stored parts (snapshot load path).
    /// Shape-validates everything; returns the first violation found.
    pub fn from_raw_parts(
        assignment: Vec<NodeId>,
        dist_to_center: Vec<u32>,
        radii: Vec<u32>,
        apsp: Vec<Vec<u64>>,
    ) -> Result<Self, String> {
        let q = radii.len();
        if assignment.len() != dist_to_center.len() {
            return Err("assignment / dist_to_center length mismatch".into());
        }
        if apsp.len() != q || apsp.iter().any(|row| row.len() != q) {
            return Err("APSP matrix is not q x q".into());
        }
        if assignment.iter().any(|&c| (c as usize) >= q) {
            return Err("assignment references a cluster beyond q".into());
        }
        Ok(DistanceOracle {
            radius: radii.iter().copied().max().unwrap_or(0),
            assignment,
            dist_to_center,
            radii,
            apsp,
        })
    }

    /// Number of clusters (quotient nodes).
    pub fn num_clusters(&self) -> usize {
        self.apsp.len()
    }

    /// Max cluster radius of the underlying decomposition.
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// Words of storage held (per-node arrays + quotient matrix) — the
    /// linear-space claim is `n + n + q²` with `q = O(√n)`.
    pub fn memory_words(&self) -> usize {
        self.assignment.len()
            + self.dist_to_center.len()
            + self.radii.len()
            + self.apsp.len() * self.apsp.len()
    }

    /// Per-cluster growth radii of the underlying decomposition.
    pub fn cluster_radii(&self) -> &[u32] {
        &self.radii
    }

    /// The quotient APSP matrix (for persistence).
    pub fn apsp_matrix(&self) -> &[Vec<u64>] {
        &self.apsp
    }

    /// `Δ′_C`, the weighted-quotient diameter: the largest finite entry of
    /// the stored APSP matrix, scanned on demand. Equals
    /// `weighted_quotient(g).apsp_diameter()` of the source clustering,
    /// without a second APSP.
    pub fn quotient_diameter(&self) -> u64 {
        self.apsp
            .par_iter()
            .map(|row| max_finite(row))
            .max()
            .unwrap_or(0)
    }

    /// Upper bound on `dist(u, v)`; `u64::MAX` when the endpoints are in
    /// different connected components.
    pub fn query(&self, u: NodeId, v: NodeId) -> u64 {
        if u == v {
            return 0;
        }
        let (cu, cv) = (self.assignment[u as usize], self.assignment[v as usize]);
        let (du, dv) = (
            self.dist_to_center[u as usize] as u64,
            self.dist_to_center[v as usize] as u64,
        );
        if cu == cv {
            // Through the shared center.
            return du + dv;
        }
        let between = self.apsp[cu as usize][cv as usize];
        if between == u64::MAX {
            return u64::MAX;
        }
        du + between + dv
    }

    /// Upper bound on the eccentricity of `v` **within its connected
    /// component**: the maximum, over clusters `C` reachable from `v`'s
    /// cluster, of `dist(v, c_v) + apsp[C_v][C] + radius(C)`.
    ///
    /// Every node of a reachable cluster is reachable (clusters are
    /// internally connected) and lies within `radius(C)` of `C`'s center,
    /// so this dominates `max_u dist(v, u)` over the component.
    pub fn eccentricity_bound(&self, v: NodeId) -> u64 {
        let cv = self.assignment[v as usize] as usize;
        let dv = self.dist_to_center[v as usize] as u64;
        self.apsp[cv]
            .iter()
            .zip(&self.radii)
            .filter(|(&between, _)| between != u64::MAX)
            .map(|(&between, &r)| dv + between + r as u64)
            .max()
            .unwrap_or(dv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardec_graph::generators;
    use pardec_graph::traversal::bfs;

    fn check_oracle(g: &pardec_graph::CsrGraph, oracle: &DistanceOracle, sources: &[NodeId]) {
        for &u in sources {
            let truth = bfs(g, u).dist;
            for v in (0..g.num_nodes() as NodeId).step_by(7) {
                let q = oracle.query(u, v);
                let t = truth[v as usize];
                if t == pardec_graph::INFINITE_DIST {
                    assert_eq!(q, u64::MAX, "({u},{v}) should be unreachable");
                } else {
                    assert!(
                        q >= t as u64,
                        "oracle({u},{v}) = {q} below true distance {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn upper_bound_on_mesh() {
        let g = generators::mesh(20, 20);
        let oracle = DistanceOracle::build(&g, 4, 1, Decomposition::Cluster2);
        check_oracle(&g, &oracle, &[0, 57, 399]);
    }

    #[test]
    fn upper_bound_on_road() {
        let g = generators::road_network(20, 20, 0.4, 5);
        let oracle = DistanceOracle::build(&g, 4, 2, Decomposition::Cluster);
        check_oracle(&g, &oracle, &[0, 100, 399]);
    }

    #[test]
    fn stretch_is_moderate_for_far_pairs() {
        // The guarantee is O(d log³n + R); empirically on a mesh the
        // weighted-quotient routing stays within a small constant factor.
        let g = generators::mesh(25, 25);
        let oracle = DistanceOracle::build(&g, 8, 3, Decomposition::Cluster2);
        let truth = bfs(&g, 0).dist;
        let far = (g.num_nodes() - 1) as NodeId;
        let q = oracle.query(0, far);
        let t = truth[far as usize] as u64;
        assert!(
            q <= 6 * t + 4 * oracle.radius() as u64,
            "stretch too big: {q} vs {t}"
        );
    }

    #[test]
    fn identity_and_symmetry_of_intra_cluster_queries() {
        let g = generators::cycle(30);
        let oracle = DistanceOracle::build(&g, 2, 7, Decomposition::Cluster);
        assert_eq!(oracle.query(5, 5), 0);
        assert_eq!(oracle.query(3, 9), oracle.query(9, 3));
    }

    #[test]
    fn disconnected_reports_unreachable() {
        let g = generators::disjoint_union(&generators::path(10), &generators::cycle(8));
        let oracle = DistanceOracle::build(&g, 1, 0, Decomposition::Cluster);
        assert_eq!(oracle.query(0, 15), u64::MAX);
        assert!(oracle.query(0, 5) >= 5);
    }

    #[test]
    fn eccentricity_bound_dominates_truth_per_component() {
        let g = generators::disjoint_union(&generators::mesh(9, 9), &generators::cycle(11));
        let oracle = DistanceOracle::build(&g, 4, 5, Decomposition::Cluster);
        for v in [0u32, 40, 80, 81, 88] {
            let d = bfs(&g, v).dist;
            let truth = d
                .iter()
                .copied()
                .filter(|&x| x != pardec_graph::INFINITE_DIST)
                .max()
                .unwrap() as u64;
            let bound = oracle.eccentricity_bound(v);
            assert!(
                bound >= truth,
                "ecc_bound({v}) = {bound} < true ecc {truth}"
            );
            assert!(bound < u64::MAX, "ecc_bound({v}) must stay in-component");
        }
    }

    #[test]
    fn raw_parts_round_trips_and_validates() {
        let g = generators::mesh(10, 10);
        let oracle = DistanceOracle::build(&g, 4, 1, Decomposition::Cluster2);
        let rebuilt = DistanceOracle::from_raw_parts(
            oracle.assignment.clone(),
            oracle.dist_to_center.clone(),
            oracle.radii.clone(),
            oracle.apsp.clone(),
        )
        .unwrap();
        assert_eq!(rebuilt, oracle);

        // Shape violations are rejected.
        assert!(DistanceOracle::from_raw_parts(
            oracle.assignment.clone(),
            vec![0; oracle.dist_to_center.len() + 1],
            oracle.radii.clone(),
            oracle.apsp.clone(),
        )
        .is_err());
        assert!(DistanceOracle::from_raw_parts(
            oracle.assignment.clone(),
            oracle.dist_to_center.clone(),
            vec![0; 1], // q shrinks: assignment now out of range
            vec![vec![0]],
        )
        .is_err());
        let mut ragged = oracle.apsp.clone();
        ragged[0].push(0);
        assert!(DistanceOracle::from_raw_parts(
            oracle.assignment.clone(),
            oracle.dist_to_center.clone(),
            oracle.radii.clone(),
            ragged,
        )
        .is_err());
    }

    #[test]
    fn from_clustering_matches_build() {
        let g = generators::mesh(12, 12);
        let params = ClusterParams::new(4, 9);
        let c = crate::cluster::cluster(&g, &params).clustering;
        let a = DistanceOracle::from_clustering(&g, &c);
        assert_eq!(a, DistanceOracle::build(&g, 4, 9, Decomposition::Cluster));
        assert_eq!(a.radius(), c.max_radius());
        assert_eq!(a.num_clusters(), c.num_clusters());
        assert!(a.memory_words() >= 2 * g.num_nodes());
    }

    #[test]
    fn quotient_diameter_matches_weighted_quotient_apsp() {
        // Connected and disconnected: the scan skips unreachable entries
        // exactly as `apsp_diameter` maxes per-component diameters.
        for g in [
            generators::road_network(15, 15, 0.4, 3),
            generators::disjoint_union(&generators::mesh(9, 9), &generators::cycle(11)),
        ] {
            let c = crate::cluster::cluster(&g, &ClusterParams::new(4, 2)).clustering;
            let oracle = DistanceOracle::from_clustering(&g, &c);
            assert_eq!(
                oracle.quotient_diameter(),
                c.weighted_quotient(&g).apsp_diameter()
            );
        }
    }
}
