//! §4 (closing remark) — a linear-space approximate **distance oracle**.
//!
//! Cluster the graph with CLUSTER2(τ), keep per-node `(cluster, distance to
//! center)` and the APSP of the weighted quotient graph. A query `(u, v)`
//! answers
//!
//! ```text
//! d′(u, v) = dist(u, c_u) + apsp[C_u][C_v] + dist(v, c_v)
//! ```
//!
//! an upper bound on `dist(u, v)` that the paper shows is
//! `O(dist(u, v)·log³ n + R_ALG2)` — polylogarithmic for far-apart pairs.
//! The quotient APSP is symmetric, so it is stored once, as the packed upper
//! triangle of `q(q + 1)/2` entries. With `τ = O(√n / log⁴ n)`, `q² = O(n)`,
//! keeping the oracle linear-space.
//!
//! The entries take 2 or 4 bytes by the width rule of
//! [`pardec_graph::weighted::Triangle`]: 2 (`u16`, with `u16::MAX` for
//! unreachable) when `Δ′_C`, the largest finite entry, is below `u16::MAX`,
//! else 4 (`u32`, with `u32::MAX`). A road quotient of 2,533 clusters has
//! `Δ′_C = 856`. Four bytes always suffice: every finite entry is below
//! `2n`. Along a shortest quotient path each cluster `C` appears once, and
//! the path's length through it is at most `2·radius(C) + 1 ≤ 2|C| − 1`
//! (the radius of a connected cluster is below its size). So entries fit
//! whenever `n < 2³¹`; [`pardec_graph::WeightedGraph::apsp_upper`] panics
//! rather than wrap if one ever does not.

use crate::cluster::ClusterParams;
use crate::cluster2::cluster2;
use crate::clustering::Clustering;
use crate::diameter::Decomposition;
use pardec_graph::weighted::{upper_row_start, Triangle, INFINITE_WEIGHT};
use pardec_graph::{NeighborAccess, NodeId, WeightedGraph};
use std::sync::Arc;

/// Approximate distance oracle built from a clustering (§4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistanceOracle {
    /// The per-node clusters and distances, and the per-cluster growth
    /// radii, read in place: a session shares its clustering with its
    /// oracle.
    clustering: Arc<Clustering>,
    /// APSP over the weighted quotient (connecting-path metric), as the
    /// packed upper triangle of
    /// [`pardec_graph::WeightedGraph::apsp_upper`].
    apsp: Triangle,
    /// `ecc[c]`: the largest `apsp[c][C] + radius(C)` over the clusters `C`
    /// reachable from `c`. The APSP kernel computes it; snapshots store it.
    /// Drives [`Self::eccentricity_bound`].
    ecc: Vec<u64>,
    /// `Δ′_C`, the largest finite entry of `apsp`.
    quotient_diameter: u64,
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
        Self::from_quotient(
            Arc::new(clustering.clone()),
            &clustering.weighted_quotient(g),
        )
    }

    /// As [`Self::from_clustering`], reading `clustering` in place and
    /// taking the APSP of `quotient`, its weighted quotient, which the
    /// caller built (a session keeps that sweep's topology for
    /// [`crate::session::Session::diameter`]).
    ///
    /// The triangle, `ecc` and `Δ′_C` all come from
    /// [`WeightedGraph::apsp_upper`], which contracts `quotient` into a
    /// hierarchy once, fills a distance table over its core, and then
    /// answers the clusters' rows sixteen at a time: per cluster an upward
    /// walk and the table rows of the core nodes it reaches, then one
    /// downward sweep for all sixteen, whose lane matrix also yields the
    /// chunk's eccentricities. Its entries are the exact quotient
    /// distances, so the oracle, `Δ′_C` and the saved `ORCL` bytes do not
    /// depend on the kernel or the pool size; nothing rescans the triangle.
    pub(crate) fn from_quotient(clustering: Arc<Clustering>, quotient: &WeightedGraph) -> Self {
        let apsp = quotient.apsp_upper(&clustering.radii);
        Self::new(clustering, apsp.triangle, apsp.ecc, apsp.diameter)
    }

    /// Reassembles an oracle from a triangle alone (older snapshot layouts):
    /// `apsp` is the packed upper triangle over `radii.len()` clusters, in
    /// 4-byte entries. Shape-validates everything, returning the first
    /// violation found, then derives `ecc` and `Δ′_C` by one scan of the
    /// triangle and narrows it by the width rule, so the oracle equals a
    /// fresh build's.
    pub(crate) fn from_raw_parts(
        clustering: Arc<Clustering>,
        apsp: Triangle,
    ) -> Result<Self, String> {
        Self::check_shape(&clustering, &apsp)?;
        let (ecc, diameter) = apsp.eccentricities(&clustering.radii);
        Ok(Self::new(clustering, apsp.narrow(diameter), ecc, diameter))
    }

    /// Reassembles an oracle from its stored parts (the current snapshot
    /// layout), `ecc` with one word per cluster. Shape-validates them: the
    /// triangle's width must follow the rule for `Δ′_C = diameter`. With
    /// `checked`, also rescans the triangle and rejects an `ecc` or `Δ′_C`
    /// that differs from it; without, takes them as stored, as it takes
    /// the triangle's distances.
    pub(crate) fn from_stored_parts(
        clustering: Arc<Clustering>,
        apsp: Triangle,
        ecc: Vec<u64>,
        diameter: u64,
        checked: bool,
    ) -> Result<Self, String> {
        Self::check_shape(&clustering, &apsp)?;
        debug_assert_eq!(ecc.len(), clustering.radii.len(), "one word per cluster");
        if !apsp.follows_width_rule(diameter) {
            return Err(format!(
                "oracle quotient diameter {diameter} does not fit its {}-byte entries",
                apsp.entry_bytes()
            ));
        }
        if checked {
            let (scanned_ecc, scanned_diameter) = apsp.eccentricities(&clustering.radii);
            if scanned_diameter != diameter {
                return Err(format!(
                    "oracle quotient diameter {diameter} does not match its triangle's \
                     {scanned_diameter}"
                ));
            }
            if scanned_ecc != ecc {
                return Err("oracle eccentricities do not match its triangle".into());
            }
        }
        Ok(Self::new(clustering, apsp, ecc, diameter))
    }

    /// The checks both load paths run on every layout: per-node arrays of
    /// equal length, assignments below `q`, and `q(q + 1)/2` entries.
    fn check_shape(clustering: &Clustering, apsp: &Triangle) -> Result<(), String> {
        let q = clustering.radii.len();
        if clustering.assignment.len() != clustering.dist_to_center.len() {
            return Err("assignment / dist_to_center length mismatch".into());
        }
        if apsp.len() != upper_row_start(q, q) {
            return Err("APSP triangle does not have q(q + 1)/2 entries".into());
        }
        if clustering.assignment.iter().any(|&c| (c as usize) >= q) {
            return Err("assignment references a cluster beyond q".into());
        }
        Ok(())
    }

    fn new(clustering: Arc<Clustering>, apsp: Triangle, ecc: Vec<u64>, diameter: u64) -> Self {
        DistanceOracle {
            radius: clustering.radii.iter().copied().max().unwrap_or(0),
            clustering,
            apsp,
            ecc,
            quotient_diameter: diameter,
        }
    }

    /// Number of clusters (quotient nodes).
    pub fn num_clusters(&self) -> usize {
        self.clustering.radii.len()
    }

    /// Max cluster radius of the underlying decomposition.
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// Entries of storage the oracle reads: the per-node arrays, the
    /// quotient triangle, the per-cluster radii and eccentricities —
    /// `n + n + q(q + 1)/2 + 2q`, linear in `n` when `q = O(√n)`. It counts
    /// entries, not bytes: the eccentricities take 8 bytes each, the
    /// triangle's entries 2 or 4 ([`Self::entry_bytes`]), every other entry
    /// 4. The per-node arrays and the radii are the clustering's, which a
    /// session does not hold twice.
    pub fn memory_words(&self) -> usize {
        let c = &self.clustering;
        c.assignment.len()
            + c.dist_to_center.len()
            + self.apsp.len()
            + c.radii.len()
            + self.ecc.len()
    }

    /// Bytes per entry of the quotient APSP triangle: 2 or 4, by the width
    /// rule.
    pub fn entry_bytes(&self) -> usize {
        self.apsp.entry_bytes()
    }

    /// The packed upper triangle of the quotient APSP (for persistence).
    pub(crate) fn apsp_upper(&self) -> &Triangle {
        &self.apsp
    }

    /// The per-cluster eccentricities (for persistence).
    pub(crate) fn eccentricities(&self) -> &[u64] {
        &self.ecc
    }

    /// `Δ′_C`, the weighted-quotient diameter: the largest finite entry of
    /// the APSP triangle, recorded with it. Equals
    /// `weighted_quotient(g).apsp_diameter()` of the source clustering,
    /// without a second APSP.
    pub fn quotient_diameter(&self) -> u64 {
        self.quotient_diameter
    }

    /// Upper bound on `dist(u, v)`; `u64::MAX` when the endpoints are in
    /// different connected components.
    pub fn query(&self, u: NodeId, v: NodeId) -> u64 {
        if u == v {
            return 0;
        }
        let c = &self.clustering;
        let (cu, cv) = (c.assignment[u as usize], c.assignment[v as usize]);
        let (du, dv) = (
            c.dist_to_center[u as usize] as u64,
            c.dist_to_center[v as usize] as u64,
        );
        if cu == cv {
            // Through the shared center.
            return du + dv;
        }
        let (i, j) = (cu.min(cv) as usize, cu.max(cv) as usize);
        let between = self
            .apsp
            .get(upper_row_start(self.num_clusters(), i) + (j - i));
        if between == INFINITE_WEIGHT {
            return u64::MAX;
        }
        du + between + dv
    }

    /// Upper bound on the eccentricity of `v` **within its connected
    /// component**: the maximum, over clusters `C` reachable from `v`'s
    /// cluster, of `dist(v, c_v) + apsp[C_v][C] + radius(C)`. That maximum
    /// less `dist(v, c_v)` depends on `C_v` alone and is kept per cluster,
    /// so the bound is one lookup.
    ///
    /// Every node of a reachable cluster is reachable (clusters are
    /// internally connected) and lies within `radius(C)` of `C`'s center,
    /// so this dominates `max_u dist(v, u)` over the component.
    ///
    /// A loaded oracle takes `ecc` as its snapshot stores it, so the sum
    /// saturates rather than overflow on a corrupt word.
    pub fn eccentricity_bound(&self, v: NodeId) -> u64 {
        let c = &self.clustering;
        (c.dist_to_center[v as usize] as u64)
            .saturating_add(self.ecc[c.assignment[v as usize] as usize])
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
        // Two components, so the triangle holds unreachable entries.
        let g = generators::disjoint_union(&generators::mesh(10, 10), &generators::cycle(9));
        let oracle = DistanceOracle::build(&g, 4, 1, Decomposition::Cluster2);
        assert!(oracle.apsp.iter().any(|d| d == INFINITE_WEIGHT));
        assert_eq!(oracle.entry_bytes(), 2);
        let c = &oracle.clustering;
        // The same distances in 4-byte entries narrow back by the rule.
        let wide = Triangle::wide(
            oracle
                .apsp
                .iter()
                .map(|d| u32::try_from(d).unwrap_or(u32::MAX))
                .collect(),
        );
        let rebuilt = DistanceOracle::from_raw_parts(c.clone(), wide.clone()).unwrap();
        assert_eq!(rebuilt, oracle);
        assert_eq!(rebuilt.query(0, 100), u64::MAX);
        let (ecc, d) = (oracle.ecc.clone(), oracle.quotient_diameter);
        for checked in [false, true] {
            let stored = DistanceOracle::from_stored_parts(
                c.clone(),
                oracle.apsp.clone(),
                ecc.clone(),
                d,
                checked,
            );
            assert_eq!(stored.unwrap(), oracle);
            // A 4-byte triangle with a diameter that 2 bytes hold breaks
            // the width rule.
            let stored =
                DistanceOracle::from_stored_parts(c.clone(), wide.clone(), ecc.clone(), d, checked);
            assert!(stored.is_err());
        }

        // Shape violations are rejected.
        let with = |change: fn(&mut Clustering)| {
            let mut c = Clustering::clone(c);
            change(&mut c);
            Arc::new(c)
        };
        let longer_dist = with(|c| c.dist_to_center.push(0));
        assert!(DistanceOracle::from_raw_parts(longer_dist, wide.clone()).is_err());
        // q shrinks: assignment now out of range.
        let one_cluster = with(|c| c.radii.truncate(1));
        assert!(DistanceOracle::from_raw_parts(one_cluster, Triangle::wide(vec![0])).is_err());
        let len = oracle.apsp.len();
        for len in [len - 1, len + 1] {
            let apsp = Triangle::wide(wide.iter().map(|d| d as u32).chain([0]).take(len).collect());
            assert!(DistanceOracle::from_raw_parts(c.clone(), apsp.clone()).is_err());
            let stored = DistanceOracle::from_stored_parts(c.clone(), apsp, ecc.clone(), d, false);
            assert!(stored.is_err());
        }
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
        let q = a.num_clusters();
        assert_eq!(
            a.memory_words(),
            2 * g.num_nodes() + q * (q + 1) / 2 + 2 * q
        );
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
