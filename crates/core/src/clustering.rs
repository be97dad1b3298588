//! The [`Clustering`] type: the common output of CLUSTER, CLUSTER2, and MPX,
//! with structural validation used throughout the test suite.
//!
//! All three grow their clusters on one
//! [`pardec_graph::frontier::FrontierEngine`]: each growth step expands
//! every active cluster's frontier by one hop, and a node reached by
//! several clusters in the same step goes to the smallest cluster id (the
//! paper allows any tie-break; this one is reproducible). The engine's
//! strategies all realize that rule, so the [`Clustering`] that
//! [`Clustering::from_frontier`] makes of a finished wave is bit-identical
//! across runs, pool sizes, and strategies.

use pardec_graph::frontier::FrontierEngine;
use pardec_graph::{
    quotient, CombineStats, CsrGraph, NeighborAccess, NodeId, WeightedGraph, INVALID_NODE,
};

/// A partition of a graph's nodes into disjoint, internally connected
/// clusters grown around centers.
///
/// Invariants (checked by [`Clustering::validate`]):
/// * every node is assigned to exactly one cluster in `0..num_clusters()`;
/// * `centers[c]` belongs to cluster `c` with `dist_to_center == 0`, and
///   centers are distinct;
/// * every non-center node has a neighbour in its own cluster one growth
///   step closer to the center (so each cluster is connected and
///   `dist_to_center` is realized by a path inside the cluster);
/// * `radii[c]` is the maximum `dist_to_center` over members of `c`.
///
/// `dist_to_center[v]` is the *growth distance*: the number of cluster-growing
/// steps between the center's activation and `v`'s capture. This is the
/// radius notion of the paper's analysis (and of Table 2's `r` column); it
/// upper-bounds the graph distance from `v` to the center.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Clustering {
    /// `assignment[v]` = cluster id of node `v`.
    pub assignment: Vec<NodeId>,
    /// `centers[c]` = center node of cluster `c`.
    pub centers: Vec<NodeId>,
    /// `dist_to_center[v]` = growth distance from `v` to its center.
    pub dist_to_center: Vec<u32>,
    /// `radii[c]` = max growth distance within cluster `c`.
    pub radii: Vec<u32>,
}

impl Clustering {
    /// Finalizes a cluster-growing wave: source `c` of `eng` becomes
    /// cluster `c`, every node still unclaimed becomes a singleton cluster
    /// after them (the tail step of Algorithm 1), and each cluster's radius
    /// is its members' largest growth distance.
    pub fn from_frontier<'g, G: NeighborAccess + 'g>(mut eng: FrontierEngine<'g, G>) -> Self {
        let leftovers: Vec<NodeId> = eng.unclaimed_nodes().collect();
        for v in leftovers {
            eng.add_source(v);
        }
        let parts = eng.into_parts();
        let mut radii = vec![0u32; parts.sources.len()];
        for (v, &c) in parts.owner.iter().enumerate() {
            radii[c as usize] = radii[c as usize].max(parts.dist[v]);
        }
        Clustering {
            assignment: parts.owner,
            centers: parts.sources,
            dist_to_center: parts.dist,
            radii,
        }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.centers.len()
    }

    /// Maximum cluster radius — the paper's `R_ALG` (0 for an empty graph).
    pub fn max_radius(&self) -> u32 {
        self.radii.iter().copied().max().unwrap_or(0)
    }

    /// Number of nodes in each cluster.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_clusters()];
        for &c in &self.assignment {
            sizes[c as usize] += 1;
        }
        sizes
    }

    /// The unweighted quotient graph `G_C` (§4).
    pub fn quotient<G: NeighborAccess>(&self, g: &G) -> CsrGraph {
        quotient::quotient(g, &self.assignment, self.num_clusters())
    }

    /// [`Self::quotient`], also returning the combine kernel's ledger (cut
    /// arcs in, quotient arcs out).
    pub fn quotient_with_stats<G: NeighborAccess>(&self, g: &G) -> (CsrGraph, CombineStats) {
        quotient::quotient_with_stats(g, &self.assignment, self.num_clusters())
    }

    /// The weighted quotient graph of §4, with connecting-path edge weights.
    pub fn weighted_quotient<G: NeighborAccess>(&self, g: &G) -> WeightedGraph {
        quotient::weighted_quotient(
            g,
            &self.assignment,
            &self.dist_to_center,
            self.num_clusters(),
        )
    }

    /// [`Self::weighted_quotient`], also returning the combine kernel's
    /// ledger.
    pub fn weighted_quotient_with_stats<G: NeighborAccess>(
        &self,
        g: &G,
    ) -> (WeightedGraph, CombineStats) {
        quotient::weighted_quotient_with_stats(
            g,
            &self.assignment,
            &self.dist_to_center,
            self.num_clusters(),
        )
    }

    /// Checks all structural invariants against `g`; returns the first
    /// violation found.
    pub fn validate<G: NeighborAccess>(&self, g: &G) -> Result<(), String> {
        let n = g.num_nodes();
        let k = self.num_clusters();
        if self.assignment.len() != n || self.dist_to_center.len() != n {
            return Err("array sizes do not match graph".into());
        }
        if self.radii.len() != k {
            return Err("radii length != number of clusters".into());
        }
        // Assignment range and center consistency.
        for (v, &c) in self.assignment.iter().enumerate() {
            if c == INVALID_NODE || (c as usize) >= k {
                return Err(format!("node {v} has invalid cluster {c}"));
            }
        }
        let mut seen_center = vec![false; n];
        for (c, &ctr) in self.centers.iter().enumerate() {
            if (ctr as usize) >= n {
                return Err(format!("center {ctr} out of range"));
            }
            if seen_center[ctr as usize] {
                return Err(format!("duplicate center {ctr}"));
            }
            seen_center[ctr as usize] = true;
            if self.assignment[ctr as usize] as usize != c {
                return Err(format!("center {ctr} not in its own cluster {c}"));
            }
            if self.dist_to_center[ctr as usize] != 0 {
                return Err(format!("center {ctr} has nonzero distance"));
            }
        }
        // Growth-tree property: every non-center node has an in-cluster
        // neighbour one step closer.
        let g = g.indexed();
        for v in 0..n as NodeId {
            let d = self.dist_to_center[v as usize];
            if d == 0 {
                if self.centers[self.assignment[v as usize] as usize] != v {
                    return Err(format!(
                        "node {v} at distance 0 is not its cluster's center"
                    ));
                }
                continue;
            }
            let c = self.assignment[v as usize];
            let ok = g.neighbors_iter(v).any(|u| {
                self.assignment[u as usize] == c && self.dist_to_center[u as usize] == d - 1
            });
            if !ok {
                return Err(format!(
                    "node {v} (cluster {c}, dist {d}) lacks an in-cluster predecessor"
                ));
            }
        }
        // Radii.
        let mut measured = vec![0u32; k];
        for v in 0..n {
            let c = self.assignment[v] as usize;
            measured[c] = measured[c].max(self.dist_to_center[v]);
        }
        if measured != self.radii {
            return Err("recorded radii do not match assignment".into());
        }
        Ok(())
    }

    /// Exact graph-distance radii: for each cluster, the maximum BFS distance
    /// (within the *whole* graph) from the center to the cluster's members.
    /// Always ≤ the growth radii; Table 2 reports growth radii, this is a
    /// diagnostic.
    pub fn exact_radii<G: NeighborAccess>(&self, g: &G) -> Vec<u32> {
        use pardec_graph::traversal::bfs;
        self.centers
            .iter()
            .enumerate()
            .map(|(c, &ctr)| {
                let d = bfs(g, ctr).dist;
                self.assignment
                    .iter()
                    .enumerate()
                    .filter(|&(_, &a)| a as usize == c)
                    .map(|(v, _)| d[v])
                    .max()
                    .unwrap_or(0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardec_graph::generators;

    fn two_cluster_path() -> (CsrGraph, Clustering) {
        // 0 - 1 - 2 - 3: clusters {0,1} (center 0) and {2,3} (center 2).
        let g = generators::path(4);
        let c = Clustering {
            assignment: vec![0, 0, 1, 1],
            centers: vec![0, 2],
            dist_to_center: vec![0, 1, 0, 1],
            radii: vec![1, 1],
        };
        (g, c)
    }

    #[test]
    fn valid_clustering_passes() {
        let (g, c) = two_cluster_path();
        assert!(c.validate(&g).is_ok());
        assert_eq!(c.max_radius(), 1);
        assert_eq!(c.cluster_sizes(), vec![2, 2]);
    }

    #[test]
    fn detects_disconnected_cluster() {
        // Cluster 0 = {0, 3} is not connected through itself.
        let g = generators::path(4);
        let c = Clustering {
            assignment: vec![0, 1, 1, 0],
            centers: vec![0, 1],
            dist_to_center: vec![0, 0, 1, 1],
            radii: vec![1, 1],
        };
        assert!(c.validate(&g).is_err());
    }

    #[test]
    fn detects_bad_center() {
        let (g, mut c) = two_cluster_path();
        c.centers[1] = 3; // distance there is 1, not 0
        assert!(c.validate(&g).is_err());
        let (g, mut c) = two_cluster_path();
        c.dist_to_center[2] = 5;
        assert!(c.validate(&g).is_err());
    }

    #[test]
    fn detects_wrong_radii() {
        let (g, mut c) = two_cluster_path();
        c.radii = vec![1, 2];
        assert!(c.validate(&g).is_err());
    }

    #[test]
    fn quotient_construction() {
        let (g, c) = two_cluster_path();
        let q = c.quotient(&g);
        assert_eq!(q.num_nodes(), 2);
        assert_eq!(q.num_edges(), 1);
        let wq = c.weighted_quotient(&g);
        // Cut edge (1, 2): 1 + 1 + 0 = 2.
        assert_eq!(wq.neighbors(0).next().unwrap(), (1, 2));
    }

    #[test]
    fn from_frontier_makes_leftovers_singletons_and_radii_eccentricities() {
        use pardec_graph::frontier::FrontierStrategy;
        for strategy in FrontierStrategy::ALL {
            // One center grown over a mesh: the growth distances are its BFS
            // distances and the one radius is its eccentricity.
            let mesh = generators::mesh(6, 7);
            let mut eng = FrontierEngine::new(&mesh, strategy);
            assert!(eng.add_source(0));
            eng.run();
            let c = Clustering::from_frontier(eng);
            assert!(c.validate(&mesh).is_ok(), "{strategy}");
            let bfs = pardec_graph::traversal::bfs(&mesh, 0);
            assert_eq!(c.dist_to_center, bfs.dist, "{strategy}");
            assert_eq!(c.radii, vec![bfs.levels], "{strategy}");

            // Path 0-1-2 grown from 0 beside an untouched path 3-4: nodes 3
            // and 4 become singletons at distance 0, after cluster 0.
            let g = generators::disjoint_union(&generators::path(3), &generators::path(2));
            let mut eng = FrontierEngine::new(&g, strategy);
            eng.add_source(0);
            eng.step();
            eng.step();
            let c = Clustering::from_frontier(eng);
            assert!(c.validate(&g).is_ok(), "{strategy}");
            assert_eq!(c.centers, vec![0, 3, 4], "{strategy}");
            assert_eq!(c.assignment, vec![0, 0, 0, 1, 2], "{strategy}");
            assert_eq!(c.dist_to_center, vec![0, 1, 2, 0, 0], "{strategy}");
            assert_eq!(c.radii, vec![2, 0, 0], "{strategy}");
        }
    }

    #[test]
    fn exact_radii_bounded_by_growth_radii() {
        let (g, c) = two_cluster_path();
        assert_eq!(c.exact_radii(&g), c.radii);
    }
}
