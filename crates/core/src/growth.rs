//! The parallel disjoint cluster-growing engine shared by CLUSTER, CLUSTER2,
//! and the MPX baseline.
//!
//! A thin facade over [`pardec_graph::frontier::FrontierEngine`], which
//! owns the level-expansion machinery: each *growth step* expands every
//! active cluster's frontier by one hop. The engine keeps one claim word
//! `(step, cluster)` per node, and contention for an uncovered node is
//! resolved **deterministically** by the smallest word: of the clusters
//! reaching it in the same step, the smallest id wins, regardless of thread
//! interleaving (the paper allows arbitrary tie-breaking, we pick a
//! reproducible one). A cluster's frontier is a ring, all at one distance
//! from its center, so that is also the smallest `(cluster, dist)` pair,
//! and a center activated between steps starts its own ring at distance 0.
//! The engine's top-down, bottom-up, and hybrid expansion strategies all
//! realize that same rule, so the resulting [`Clustering`] is bit-identical
//! across runs, thread counts, *and* strategies.

use pardec_graph::frontier::{FrontierEngine, FrontierStrategy};
use pardec_graph::{CsrGraph, NeighborAccess, NodeId};

use crate::clustering::Clustering;

/// Incremental multi-source disjoint BFS with dynamically added centers.
///
/// Generic over the adjacency backend ([`NeighborAccess`]): growth on a
/// compressed graph produces the same byte-identical [`Clustering`] as on
/// plain CSR, because both backends yield identical sorted neighbor
/// sequences.
pub struct GrowthEngine<'g, G: NeighborAccess = CsrGraph> {
    inner: FrontierEngine<'g, G>,
}

impl<'g, G: NeighborAccess> GrowthEngine<'g, G> {
    /// A fresh engine over `g` with no clusters, expanding with the ambient
    /// default strategy (`PARDEC_FRONTIER`, else top-down).
    pub fn new(g: &'g G) -> Self {
        Self::with_strategy(g, FrontierStrategy::default_from_env())
    }

    /// A fresh engine over `g` expanding with the given frontier strategy.
    pub fn with_strategy(g: &'g G, strategy: FrontierStrategy) -> Self {
        GrowthEngine {
            inner: FrontierEngine::new(g, strategy),
        }
    }

    /// Nodes covered so far.
    pub fn covered(&self) -> usize {
        self.inner.claimed()
    }

    /// Nodes not yet claimed by any cluster.
    pub fn uncovered(&self) -> usize {
        self.inner.unclaimed()
    }

    /// Growth steps executed so far (the parallel-depth ledger of Lemma 3).
    pub fn steps(&self) -> usize {
        self.inner.steps()
    }

    /// Clusters created so far.
    pub fn num_clusters(&self) -> usize {
        self.inner.num_sources()
    }

    /// Current frontier size (active boundary nodes).
    pub fn frontier_len(&self) -> usize {
        self.inner.frontier_len()
    }

    /// Whether `v` is already covered.
    pub fn is_covered(&self, v: NodeId) -> bool {
        self.inner.is_claimed(v)
    }

    /// Activates `v` as a new singleton cluster. Returns `false` (and does
    /// nothing) if `v` is already covered.
    pub fn add_center(&mut self, v: NodeId) -> bool {
        self.inner.add_source(v)
    }

    /// Executes one growth step; returns the number of newly covered nodes.
    pub fn step(&mut self) -> usize {
        self.inner.step()
    }

    /// Iterator over currently uncovered nodes (sequential scan).
    pub fn uncovered_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.inner.unclaimed_nodes()
    }

    /// Finalizes into a [`Clustering`]. Any still-uncovered nodes become
    /// singleton clusters (the tail step of Algorithm 1).
    pub fn finish(mut self) -> Clustering {
        let leftovers: Vec<NodeId> = self.uncovered_nodes().collect();
        for v in leftovers {
            self.add_center(v);
        }
        let parts = self.inner.into_parts();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardec_graph::generators;

    #[test]
    fn single_center_is_bfs() {
        let g = generators::mesh(6, 7);
        let mut eng = GrowthEngine::new(&g);
        assert!(eng.add_center(0));
        while eng.uncovered() > 0 {
            eng.step();
        }
        let c = eng.finish();
        assert_eq!(c.num_clusters(), 1);
        assert!(c.validate(&g).is_ok());
        let bfs = pardec_graph::traversal::bfs(&g, 0);
        assert_eq!(c.dist_to_center, bfs.dist);
        assert_eq!(c.max_radius(), bfs.levels);
    }

    #[test]
    fn duplicate_center_rejected() {
        let g = generators::path(3);
        let mut eng = GrowthEngine::new(&g);
        assert!(eng.add_center(1));
        assert!(!eng.add_center(1));
        assert_eq!(eng.num_clusters(), 1);
    }

    #[test]
    fn deterministic_tie_break_prefers_smaller_owner() {
        // Path 0-1-2, centers at 0 and 2 added in that order: node 1 is
        // contested and must go to cluster 0 (smaller id) — under every
        // expansion strategy.
        let g = generators::path(3);
        for strategy in FrontierStrategy::ALL {
            let mut eng = GrowthEngine::with_strategy(&g, strategy);
            eng.add_center(0);
            eng.add_center(2);
            eng.step();
            let c = eng.finish();
            assert_eq!(c.assignment, vec![0, 0, 1], "{strategy}");
            assert!(c.validate(&g).is_ok());
        }
    }

    #[test]
    fn staggered_activation_distances() {
        // Center 0 on a path; after 2 steps activate the far end.
        let g = generators::path(6);
        let mut eng = GrowthEngine::new(&g);
        eng.add_center(0);
        eng.step();
        eng.step();
        eng.add_center(5);
        while eng.uncovered() > 0 {
            eng.step();
        }
        let c = eng.finish();
        assert!(c.validate(&g).is_ok());
        assert_eq!(c.num_clusters(), 2);
        // Node 5's cluster radius reflects its own growth, not cluster 0's.
        assert_eq!(c.dist_to_center[5], 0);
        assert!(c.max_radius() <= 3);
    }

    #[test]
    fn determinism_across_runs_and_strategies() {
        let g = generators::road_network(25, 25, 0.4, 3);
        let run = |strategy| {
            let mut eng = GrowthEngine::with_strategy(&g, strategy);
            for v in [0u32, 100, 200, 300, 400, 500, 624] {
                eng.add_center(v);
            }
            while eng.uncovered() > 0 {
                if eng.step() == 0 && eng.frontier_len() == 0 {
                    break;
                }
            }
            eng.finish()
        };
        let a = run(FrontierStrategy::TopDown);
        let b = run(FrontierStrategy::TopDown);
        assert_eq!(a, b);
        assert!(a.validate(&g).is_ok());
        assert_eq!(a, run(FrontierStrategy::BottomUp));
        assert_eq!(a, run(FrontierStrategy::Hybrid));
    }

    #[test]
    fn finish_covers_leftovers_as_singletons() {
        let g = generators::disjoint_union(&generators::path(3), &generators::path(2));
        let mut eng = GrowthEngine::new(&g);
        eng.add_center(0);
        eng.step();
        eng.step();
        // Second component untouched: nodes 3, 4 become singletons.
        let c = eng.finish();
        assert_eq!(c.num_clusters(), 3);
        assert!(c.validate(&g).is_ok());
    }

    #[test]
    fn step_on_empty_frontier_is_noop() {
        let g = generators::path(2);
        let mut eng = GrowthEngine::new(&g);
        assert_eq!(eng.step(), 0);
        assert_eq!(eng.steps(), 1);
        assert_eq!(eng.covered(), 0);
    }
}
