//! Quotient graphs of a clustering (§4 of the paper).
//!
//! Given a node→cluster assignment, the *quotient graph* `G_C` has one node
//! per cluster and an edge between two clusters whenever some edge of `G`
//! crosses them. The *weighted* quotient assigns to each such edge the
//! length of the shortest path of `G` that connects the two cluster centers
//! and stays inside the two clusters: since every node knows its BFS-tree
//! distance to its own center, this is
//! `min over cut edges (x, y) of dist(x) + 1 + dist(y)`.
//!
//! Both constructions run on the [`crate::combine`] kernel: one normalized
//! record per undirected cut edge is emitted in parallel (two-pass count +
//! scatter over the upper adjacency tails), dedup'd (unweighted) or
//! min-combined (weighted), and only the unique survivors are mirrored into
//! the quotient's CSR arrays. The seed-era sequential `HashMap` passes
//! survive as [`crate::naive`] oracles.

use crate::access::NeighborAccess;
use crate::combine::{self, pack, CombineStats};
use crate::{CsrGraph, NodeId, WeightedGraph};
use rayon::prelude::*;

fn assert_labels<G: NeighborAccess>(g: &G, labels: &[NodeId], num_clusters: usize) {
    assert_eq!(labels.len(), g.num_nodes(), "label array size mismatch");
    if !labels.par_iter().all(|&c| (c as usize) < num_clusters) {
        let bad = labels.iter().find(|&&c| (c as usize) >= num_clusters);
        panic!("cluster label out of range: {bad:?} >= {num_clusters}");
    }
}

/// Number of cut edges owned by node `u` (its `v > u` adjacency tail, so
/// each undirected cut edge is counted at exactly one endpoint) — the
/// shared count pass of every contraction emit in this module and
/// [`crate::contract`].
pub(crate) fn cut_degree<G: NeighborAccess>(g: &G, labels: &[NodeId], u: usize) -> usize {
    let cu = labels[u];
    g.upper_neighbors_iter(u as NodeId)
        .filter(|&v| labels[v as usize] != cu)
        .count()
}

/// Emits one normalized `(min(cluster), max(cluster))` key per undirected
/// cut edge of `g` under `labels`, node-parallel with a two-pass count +
/// scatter over `g`'s indexed form.
fn cut_half_arcs<G: NeighborAccess>(g: &G, labels: &[NodeId]) -> Vec<u64> {
    let g = &g.indexed();
    combine::par_emit(
        g.num_nodes(),
        |u| cut_degree(g, labels, u),
        |u, emit| {
            let cu = labels[u];
            for v in g.upper_neighbors_iter(u as NodeId) {
                let cv = labels[v as usize];
                if cv != cu {
                    emit.push(pack(cu.min(cv), cu.max(cv)));
                }
            }
        },
    )
}

/// Builds the unweighted quotient graph of `g` under `labels`.
///
/// `labels[v]` must be in `0..num_clusters` for every node.
///
/// # Panics
/// Panics if `labels.len() != g.num_nodes()` or a label is out of range.
pub fn quotient<G: NeighborAccess>(g: &G, labels: &[NodeId], num_clusters: usize) -> CsrGraph {
    quotient_with_stats(g, labels, num_clusters).0
}

/// [`quotient`], also returning the combine kernel's ledger (undirected cut
/// edges in, unique quotient edges out).
pub fn quotient_with_stats<G: NeighborAccess>(
    g: &G,
    labels: &[NodeId],
    num_clusters: usize,
) -> (CsrGraph, CombineStats) {
    assert_labels(g, labels, num_clusters);
    combine::csr_from_half_arcs(num_clusters, cut_half_arcs(g, labels))
}

/// Builds the weighted quotient graph of `g` under `labels`, where
/// `dist_to_center[v]` is the hop distance from `v` to its cluster's center.
///
/// Edge weight between clusters `a` and `b`:
/// `min over cut edges (x, y), x ∈ a, y ∈ b of dist(x) + 1 + dist(y)` —
/// the §4 connecting-path length restricted to the two clusters (BFS-tree
/// paths to the centers stay within their cluster by construction of
/// disjoint growth).
pub fn weighted_quotient<G: NeighborAccess>(
    g: &G,
    labels: &[NodeId],
    dist_to_center: &[u32],
    num_clusters: usize,
) -> WeightedGraph {
    weighted_quotient_with_stats(g, labels, dist_to_center, num_clusters).0
}

/// [`weighted_quotient`], also returning the combine kernel's ledger.
pub fn weighted_quotient_with_stats<G: NeighborAccess>(
    g: &G,
    labels: &[NodeId],
    dist_to_center: &[u32],
    num_clusters: usize,
) -> (WeightedGraph, CombineStats) {
    assert_labels(g, labels, num_clusters);
    assert_eq!(
        dist_to_center.len(),
        g.num_nodes(),
        "distance array size mismatch"
    );
    // One weighted record per undirected cut edge, the packed cluster-pair
    // key in the high 64 bits and the connecting-path weight in the low 64
    // (weights fit: `dist` values are `u32`). Packing makes the min-fold a
    // plain integer `min` — for equal keys, the smaller `u128` is exactly
    // the record with the smaller weight — and the sort/scatter move one
    // contiguous word.
    let g = &g.indexed();
    let half: Vec<u128> = combine::par_emit(
        g.num_nodes(),
        |u| cut_degree(g, labels, u),
        |u, emit| {
            let cu = labels[u];
            let du = dist_to_center[u] as u64;
            for v in g.upper_neighbors_iter(u as NodeId) {
                let cv = labels[v as usize];
                if cv != cu {
                    let key = pack(cu.min(cv), cu.max(cv));
                    let w = du + 1 + dist_to_center[v as usize] as u64;
                    emit.push(((key as u128) << 64) | w as u128);
                }
            }
        },
    );
    let (arcs, stats) = combine::combine_symmetrize(
        num_clusters,
        half,
        |a| (a >> 64) as u64,
        |rec| {
            let (hi, lo) = combine::unpack((rec >> 64) as u64);
            ((pack(lo, hi) as u128) << 64) | (rec & u128::from(u64::MAX))
        },
        |a, b| a.min(b),
    );
    let (offsets, targets) =
        combine::csr_parts_from_sorted(num_clusters, &arcs, |&a| (a >> 64) as u64);
    let weights: Vec<u64> = arcs.iter().map(|&rec| rec as u64).collect();
    (
        WeightedGraph::from_csr_parts(offsets, targets, weights),
        stats,
    )
}

/// [`weighted_quotient`] for a clustering of a **weighted** graph: the
/// contraction step of the weighted decomposition pipeline
/// (arXiv:1506.03265), run per decomposition round on the same u128
/// min-combine kernel.
///
/// `weighted_dist[v]` is the weighted distance from `v` to its cluster's
/// center along the claim tree; the quotient edge weight between clusters
/// `a` and `b` is `min over cut edges (x, y) of wdist(x) + w(x, y) +
/// wdist(y)` — the shortest connecting path between the two centers that
/// stays inside the two clusters.
pub fn weighted_graph_quotient(
    g: &WeightedGraph,
    labels: &[NodeId],
    weighted_dist: &[u64],
    num_clusters: usize,
) -> WeightedGraph {
    weighted_graph_quotient_with_stats(g, labels, weighted_dist, num_clusters).0
}

/// [`weighted_graph_quotient`], also returning the combine kernel's ledger.
pub fn weighted_graph_quotient_with_stats(
    g: &WeightedGraph,
    labels: &[NodeId],
    weighted_dist: &[u64],
    num_clusters: usize,
) -> (WeightedGraph, CombineStats) {
    assert_eq!(labels.len(), g.num_nodes(), "label array size mismatch");
    assert_eq!(
        weighted_dist.len(),
        g.num_nodes(),
        "distance array size mismatch"
    );
    if !labels.par_iter().all(|&c| (c as usize) < num_clusters) {
        let bad = labels.iter().find(|&&c| (c as usize) >= num_clusters);
        panic!("cluster label out of range: {bad:?} >= {num_clusters}");
    }
    let half: Vec<u128> = combine::par_emit(
        g.num_nodes(),
        |u| {
            let cu = labels[u];
            g.upper_neighbors(u as NodeId)
                .filter(|&(v, _)| labels[v as usize] != cu)
                .count()
        },
        |u, emit| {
            let cu = labels[u];
            let du = weighted_dist[u];
            for (v, w) in g.upper_neighbors(u as NodeId) {
                let cv = labels[v as usize];
                if cv != cu {
                    let key = pack(cu.min(cv), cu.max(cv));
                    let path = du + w + weighted_dist[v as usize];
                    emit.push(((key as u128) << 64) | path as u128);
                }
            }
        },
    );
    let (arcs, stats) = combine::combine_symmetrize(
        num_clusters,
        half,
        |a| (a >> 64) as u64,
        |rec| {
            let (hi, lo) = combine::unpack((rec >> 64) as u64);
            ((pack(lo, hi) as u128) << 64) | (rec & u128::from(u64::MAX))
        },
        |a, b| a.min(b),
    );
    let (offsets, targets) =
        combine::csr_parts_from_sorted(num_clusters, &arcs, |&a| (a >> 64) as u64);
    let weights: Vec<u64> = arcs.iter().map(|&rec| rec as u64).collect();
    (
        WeightedGraph::from_csr_parts(offsets, targets, weights),
        stats,
    )
}

/// Number of edges of `g` crossing between distinct clusters (each counted
/// once). This is the paper's `m_C` *before* multi-edge collapsing; the
/// quotient's own `num_edges` gives the collapsed count.
pub fn cut_size<G: NeighborAccess>(g: &G, labels: &[NodeId]) -> usize {
    (0..g.num_nodes())
        .into_par_iter()
        .map(|u| cut_degree(g, labels, u))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    /// Path 0-1-2-3-4-5 split into clusters {0,1}, {2,3}, {4,5}.
    fn path_setup() -> (CsrGraph, Vec<NodeId>, Vec<u32>) {
        let g = generators::path(6);
        let labels = vec![0, 0, 1, 1, 2, 2];
        // Centers at 0, 2, 4 -> distances to own center:
        let dist = vec![0, 1, 0, 1, 0, 1];
        (g, labels, dist)
    }

    #[test]
    fn quotient_of_path() {
        let (g, labels, _) = path_setup();
        let q = quotient(&g, &labels, 3);
        assert_eq!(q.num_nodes(), 3);
        assert_eq!(q.num_edges(), 2);
        assert!(q.has_edge(0, 1));
        assert!(q.has_edge(1, 2));
        assert!(!q.has_edge(0, 2));
    }

    #[test]
    fn quotient_collapses_parallel_cut_edges() {
        // Two clusters joined by two distinct cut edges -> one quotient edge.
        let g = crate::GraphBuilder::new(4)
            .add_edges([(0, 1), (2, 3), (0, 2), (1, 3)])
            .build();
        let labels = vec![0, 0, 1, 1];
        let (q, stats) = quotient_with_stats(&g, &labels, 2);
        assert_eq!(q.num_edges(), 1);
        assert_eq!(cut_size(&g, &labels), 2);
        // 2 undirected cut edges combined down to 1 quotient edge.
        assert_eq!(stats.input_pairs, 2);
        assert_eq!(stats.output_pairs, 1);
        assert!((stats.combine_ratio() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_quotient_connecting_paths() {
        let (g, labels, dist) = path_setup();
        let wq = weighted_quotient(&g, &labels, &dist, 3);
        // Clusters {0,1} and {2,3}: cut edge (1, 2), weight 1 + 1 + 0 = 2.
        let w01 = wq.neighbors(0).find(|&(t, _)| t == 1).unwrap().1;
        assert_eq!(w01, 2);
        // Clusters {2,3} and {4,5}: cut edge (3, 4), weight 1 + 1 + 0 = 2.
        let w12 = wq.neighbors(1).find(|&(t, _)| t == 2).unwrap().1;
        assert_eq!(w12, 2);
        // Center-to-center distance across the quotient = 4 = actual d(0, 4).
        assert_eq!(wq.dijkstra(0)[2], 4);
    }

    #[test]
    fn weighted_quotient_takes_min_cut_edge() {
        // Square 0-1, 2-3 clusters with two cut edges of different center
        // distances.
        let g = crate::GraphBuilder::new(4)
            .add_edges([(0, 1), (2, 3), (0, 2), (1, 3)])
            .build();
        let labels = vec![0, 0, 1, 1];
        // centers 0 and 2: dist = [0, 1, 0, 1]
        let dist = vec![0, 1, 0, 1];
        let wq = weighted_quotient(&g, &labels, &dist, 2);
        // Cut edges: (0,2) -> 0+1+0 = 1; (1,3) -> 1+1+1 = 3. Min = 1.
        let w = wq.neighbors(0).next().unwrap().1;
        assert_eq!(w, 1);
    }

    #[test]
    fn singleton_clusters_reproduce_graph() {
        let g = generators::cycle(7);
        let labels: Vec<NodeId> = (0..7).collect();
        let q = quotient(&g, &labels, 7);
        assert_eq!(q, g);
        let dist = vec![0; 7];
        let wq = weighted_quotient(&g, &labels, &dist, 7);
        assert_eq!(wq.num_edges(), 7);
        assert_eq!(wq.apsp_diameter(), 3); // all weights 1
    }

    #[test]
    fn one_cluster_empty_quotient() {
        let g = generators::complete(5);
        let labels = vec![0; 5];
        let q = quotient(&g, &labels, 1);
        assert_eq!(q.num_nodes(), 1);
        assert_eq!(q.num_edges(), 0);
        assert_eq!(cut_size(&g, &labels), 0);
    }

    #[test]
    fn matches_naive_reference_on_workloads() {
        for g in [
            generators::mesh(20, 17),
            generators::preferential_attachment(600, 4, 9),
            generators::road_network(14, 14, 0.4, 5),
        ] {
            let k = 12usize;
            let labels: Vec<NodeId> = (0..g.num_nodes()).map(|v| (v % k) as NodeId).collect();
            let dist: Vec<u32> = (0..g.num_nodes()).map(|v| (v % 5) as u32).collect();
            assert_eq!(
                quotient(&g, &labels, k),
                crate::naive::quotient(&g, &labels, k)
            );
            assert_eq!(
                weighted_quotient(&g, &labels, &dist, k),
                crate::naive::weighted_quotient(&g, &labels, &dist, k)
            );
            assert_eq!(cut_size(&g, &labels), crate::naive::cut_size(&g, &labels));
        }
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn label_out_of_range_panics() {
        let g = generators::path(3);
        quotient(&g, &[0, 1, 2], 2);
    }

    #[test]
    fn weighted_graph_quotient_min_connecting_path() {
        // Weighted path 0 -2- 1 -5- 2 -2- 3 with clusters {0,1} | {2,3},
        // centers 0 and 3: the only cut edge is (1, 2), connecting path
        // 2 + 5 + 2 = 9.
        let g = WeightedGraph::from_edges(4, &[(0, 1, 2), (1, 2, 5), (2, 3, 2)]);
        let labels = vec![0, 0, 1, 1];
        let wdist = vec![0u64, 2, 2, 0];
        let (q, stats) = weighted_graph_quotient_with_stats(&g, &labels, &wdist, 2);
        assert_eq!(q.num_nodes(), 2);
        assert_eq!(q.neighbors(0).next(), Some((1, 9)));
        assert_eq!(stats.input_pairs, 1);
        assert_eq!(stats.output_pairs, 1);

        // Add a second, cheaper cut edge: the min survives the fold.
        let g2 = WeightedGraph::from_edges(4, &[(0, 1, 2), (1, 2, 5), (2, 3, 2), (0, 3, 1)]);
        let q2 = weighted_graph_quotient(&g2, &labels, &wdist, 2);
        assert_eq!(q2.neighbors(0).next(), Some((1, 1)));
    }
}
