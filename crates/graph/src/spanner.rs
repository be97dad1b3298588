//! Baswana–Sen `(2k-1)`-spanners — the sparsification step of the paper's
//! Theorem 4.
//!
//! When the quotient graph has more edges than a single reducer's `M_L`,
//! the paper invokes "the sparsification technique presented in \[4\]"
//! (Baswana & Sen, *Random Structures & Algorithms* 2007) to shrink it to a
//! spanner whose diameter is only a constant factor larger. This module
//! implements the randomized clustering-based construction for unweighted
//! graphs: `k - 1` rounds of cluster sampling at rate `n^{-1/k}` followed by
//! a cluster-joining phase, yielding a subgraph with expected
//! `O(k·n^{1+1/k})` edges in which every distance stretches by at most
//! `2k - 1`.

use crate::builder;
use crate::{CsrGraph, NodeId, INVALID_NODE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Epoch-tagged dense per-cluster scratch for the phase loops: O(1) lookups
/// keyed by cluster id without clearing between vertices (bumping `epoch`
/// invalidates every slot at once). Replaces the seed-era
/// `lightest_per_cluster` linear scans and phase-2 `kept.contains` — both
/// were O(deg × distinct clusters) per vertex, quadratic on hubs.
struct ClusterScratch {
    epoch: u64,
    mark: Vec<u64>,
    via: Vec<NodeId>,
    /// Clusters touched in the current epoch, in first-encounter order.
    touched: Vec<NodeId>,
}

impl ClusterScratch {
    fn new(n: usize) -> Self {
        ClusterScratch {
            epoch: 0,
            mark: vec![0; n],
            via: vec![INVALID_NODE; n],
            touched: Vec::new(),
        }
    }

    /// Starts a fresh vertex: every slot becomes stale, `touched` resets.
    fn next_epoch(&mut self) {
        self.epoch += 1;
        self.touched.clear();
    }

    /// Records neighbour `u` (of the current vertex) in cluster `c`;
    /// returns `true` on the first encounter of `c` this epoch. Neighbours
    /// arrive in ascending order, so the first recorded `via` is the
    /// lightest edge into `c` under the lexicographic perturbation.
    fn record(&mut self, c: NodeId, u: NodeId) -> bool {
        let ci = c as usize;
        if self.mark[ci] == self.epoch {
            return false;
        }
        self.mark[ci] = self.epoch;
        self.via[ci] = u;
        self.touched.push(c);
        true
    }

    /// The recorded lightest edge into cluster `c` this epoch.
    fn via(&self, c: NodeId) -> NodeId {
        debug_assert_eq!(self.mark[c as usize], self.epoch);
        self.via[c as usize]
    }
}

/// Result of [`baswana_sen`]: the spanner and its guarantee.
#[derive(Clone, Debug)]
pub struct Spanner {
    /// The spanner subgraph (same node set as the input).
    pub graph: CsrGraph,
    /// Stretch bound `2k - 1`.
    pub stretch: u32,
}

/// Computes a `(2k - 1)`-spanner of an unweighted graph.
///
/// # Panics
/// Panics if `k == 0`.
pub fn baswana_sen(g: &CsrGraph, k: usize, seed: u64) -> Spanner {
    assert!(k >= 1, "spanner parameter k must be positive");
    let n = g.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut spanner: Vec<(NodeId, NodeId)> = Vec::new();
    if n == 0 || k == 1 {
        // A 1-spanner is the graph itself.
        return Spanner {
            graph: g.clone(),
            stretch: 1,
        };
    }
    let sample_prob = (n as f64).powf(-1.0 / k as f64);

    // cluster[v] = center of v's current cluster, INVALID if v has retired.
    let mut cluster: Vec<NodeId> = (0..n as NodeId).collect();
    // Vertices still participating.
    let mut alive: Vec<bool> = vec![true; n];
    let mut scratch = ClusterScratch::new(n);
    // Expected size O(k·n^{1+1/k}); pre-reserve the dominant linear term so
    // the phase loops append without reallocating in the common case.
    spanner.reserve(2 * n);

    for _phase in 1..k {
        // Sample current cluster centers.
        let mut sampled = vec![false; n];
        for v in 0..n {
            if alive[v] && cluster[v] == v as NodeId {
                sampled[v] = rng.gen::<f64>() < sample_prob;
            }
        }
        let mut next_cluster = cluster.clone();
        for v in 0..n as NodeId {
            let vi = v as usize;
            if !alive[vi] {
                continue;
            }
            if sampled[cluster[vi] as usize] {
                continue; // stays in its (sampled) cluster
            }
            // Baswana–Sen needs distinct, consistently ordered edge
            // weights; for the unweighted case we perturb lexicographically
            // by neighbour id. Record, per neighbouring cluster, the
            // lightest incident edge (the *first* seen, since adjacency is
            // sorted ascending), and the overall lightest edge into a
            // *sampled* cluster — all O(1) per neighbour in the dense
            // scratch.
            scratch.next_epoch();
            let mut lightest_sampled: Option<NodeId> = None; // via-neighbour
            for &u in g.neighbors(v) {
                if !alive[u as usize] {
                    continue;
                }
                let cu = cluster[u as usize];
                if cu == cluster[vi] {
                    continue;
                }
                scratch.record(cu, u);
                if sampled[cu as usize] && lightest_sampled.is_none() {
                    lightest_sampled = Some(u);
                }
            }
            match lightest_sampled {
                Some(e_s) => {
                    // Join the sampled cluster through its lightest edge and
                    // keep, for every other cluster, its lightest edge only
                    // if strictly lighter than e_s (the BS pruning rule).
                    spanner.push((v, e_s));
                    next_cluster[vi] = cluster[e_s as usize];
                    for i in 0..scratch.touched.len() {
                        let c = scratch.touched[i];
                        let via = scratch.via(c);
                        if c != cluster[e_s as usize] && via < e_s {
                            spanner.push((v, via));
                        }
                    }
                }
                None => {
                    // No sampled neighbour: keep one (lightest) edge per
                    // neighbouring cluster and retire.
                    for i in 0..scratch.touched.len() {
                        spanner.push((v, scratch.via(scratch.touched[i])));
                    }
                    next_cluster[vi] = INVALID_NODE;
                    alive[vi] = false;
                }
            }
        }
        cluster = next_cluster;
        // Intra-cluster edges of newly joined vertices are implicit: the
        // joining edge added above is the cluster-tree edge.
    }

    // Phase 2: every surviving vertex keeps one edge to each neighbouring
    // cluster — first-encounter detection through the same dense scratch
    // instead of the seed-era `kept.contains` linear scan.
    for v in 0..n as NodeId {
        let vi = v as usize;
        if !alive[vi] {
            continue;
        }
        scratch.next_epoch();
        for &w in g.neighbors(v) {
            if !alive[w as usize] {
                continue;
            }
            let cw = cluster[w as usize];
            if cw == cluster[vi] {
                continue;
            }
            if scratch.record(cw, w) {
                spanner.push((v, w));
            }
        }
    }

    // Kept edges may repeat (both endpoints can keep the same edge); the
    // builder's counting sort symmetrizes and deduplicates them.
    Spanner {
        graph: builder::build_csr(n, std::slice::from_ref(&spanner)),
        stretch: (2 * k - 1) as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::bfs;
    use crate::{components, generators};

    /// Spot-checks the stretch guarantee from a few sources.
    fn assert_stretch(g: &CsrGraph, s: &Spanner, sources: &[NodeId]) {
        for &src in sources {
            let orig = bfs(g, src).dist;
            let span = bfs(&s.graph, src).dist;
            for v in 0..g.num_nodes() {
                if orig[v] == crate::INFINITE_DIST {
                    assert_eq!(span[v], crate::INFINITE_DIST);
                    continue;
                }
                assert!(
                    span[v] != crate::INFINITE_DIST,
                    "spanner disconnected {src} from {v}"
                );
                assert!(
                    span[v] <= s.stretch * orig[v].max(1),
                    "stretch violated at ({src}, {v}): {} > {} * {}",
                    span[v],
                    s.stretch,
                    orig[v]
                );
            }
        }
    }

    #[test]
    fn k1_returns_graph() {
        let g = generators::gnm(50, 100, 1);
        let s = baswana_sen(&g, 1, 0);
        assert_eq!(s.graph, g);
        assert_eq!(s.stretch, 1);
    }

    #[test]
    fn three_spanner_on_dense_random() {
        let g = generators::gnm(200, 2000, 3);
        let (lc, _) = components::largest_component(&g);
        let s = baswana_sen(&lc, 2, 7);
        assert!(s.graph.num_edges() <= lc.num_edges());
        assert_stretch(&lc, &s, &[0, 7, 100]);
    }

    #[test]
    fn five_spanner_sparsifies_more() {
        let g = generators::gnm(300, 6000, 5);
        let (lc, _) = components::largest_component(&g);
        let s2 = baswana_sen(&lc, 2, 11);
        let s3 = baswana_sen(&lc, 3, 11);
        assert_stretch(&lc, &s3, &[0, 50]);
        // Larger k: sparser (in expectation; fixed seeds keep this stable).
        assert!(
            s3.graph.num_edges() <= s2.graph.num_edges(),
            "k=3 ({}) should not exceed k=2 ({})",
            s3.graph.num_edges(),
            s2.graph.num_edges()
        );
    }

    #[test]
    fn spanner_preserves_connectivity_components() {
        let g = generators::disjoint_union(&generators::gnm(100, 600, 2), &generators::mesh(8, 8));
        let s = baswana_sen(&g, 2, 3);
        let (orig_cc, orig_labels) = components::connected_components(&g);
        let (span_cc, span_labels) = components::connected_components(&s.graph);
        assert_eq!(orig_cc, span_cc);
        // Same partition into components.
        for u in 0..g.num_nodes() {
            for v in 0..g.num_nodes() {
                assert_eq!(
                    orig_labels[u] == orig_labels[v],
                    span_labels[u] == span_labels[v]
                );
            }
        }
    }

    #[test]
    fn dense_graph_shrinks_substantially() {
        // A clique-ish graph must lose most edges under a 3-spanner.
        let g = generators::complete(64);
        let s = baswana_sen(&g, 2, 9);
        assert!(
            s.graph.num_edges() * 2 < g.num_edges(),
            "spanner kept {} of {} edges",
            s.graph.num_edges(),
            g.num_edges()
        );
        assert_stretch(&g, &s, &[0, 31]);
    }

    #[test]
    fn sparse_graph_roughly_preserved() {
        let g = generators::mesh(10, 10);
        let s = baswana_sen(&g, 2, 4);
        assert_stretch(&g, &s, &[0, 55, 99]);
    }
}
