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
//! Every quotient build — unweighted, weighted, and the contraction of a
//! weighted graph — is one parallel sweep of the cut edges on the
//! [`crate::combine`] kernel. Each undirected cut edge yields one
//! normalized record (its cluster pair, plus the connecting-path weight
//! when one is wanted). The sweep walks a fixed grid of node chunks, and
//! each chunk min-combines its records in a small table before the kernel
//! sees them, which pays when many cut edges join the same cluster pair
//! (as in CLUSTER's quotients of power-law graphs); a chunk with more
//! distinct pairs than its table holds emits the rest as they are. The
//! kernel's min-fold then sorts the survivors, and only the unique pairs
//! are mirrored into the quotient's CSR arrays. The unweighted quotient is
//! the weighted one's topology ([`WeightedGraph::topology`]), so one sweep
//! gives both. The seed-era sequential `HashMap` passes survive as
//! [`crate::naive`] oracles.
//!
//! Two ledgers describe a build: the returned [`CombineStats`] counts the
//! cut edges in (`input_pairs`), while the `combine` metric the kernel
//! records in a trace counts the survivors it sorted; the `quotient.sweep`
//! span's `cut_edges` and `records` fields hold both figures.

use crate::access::NeighborAccess;
use crate::combine::{self, pack, CombineStats, PairRecord};
use crate::{CsrGraph, NodeId, WeightedGraph};
use rayon::prelude::*;

/// The cut-edge sweep behind every quotient build, over `n` nodes: node
/// `u`'s upper adjacency tail (`v > u`, with edge weights), as `upper`
/// yields it, gives one record per edge `(u, v)` between clusters
/// `cu ≠ cv`, of pair `(min, max)` at weight `dist(u) + w + dist(v)`. The
/// kernel keeps the lightest record per cluster pair, after each chunk of
/// nodes pre-combined its own (see [`combine::emit_precombined`]). Returns
/// the quotient's arcs sorted by packed `(source, target)` key, with the
/// ledger: cut edges in (summed over the chunks), unique quotient edges
/// out, and the buckets of the final sort.
///
/// # Panics
/// Panics if `labels.len() != n` or a label is out of range.
fn sweep<R, I>(
    n: usize,
    labels: &[NodeId],
    num_clusters: usize,
    upper: impl Fn(NodeId) -> I + Sync,
    dist: impl Fn(usize) -> u64 + Sync,
) -> (Vec<R>, CombineStats)
where
    R: PairRecord,
    I: Iterator<Item = (NodeId, u64)>,
{
    assert_eq!(labels.len(), n, "label array size mismatch");
    if !labels.par_iter().all(|&c| (c as usize) < num_clusters) {
        let bad = labels.iter().find(|&&c| (c as usize) >= num_clusters);
        panic!("cluster label out of range: {bad:?} >= {num_clusters}");
    }
    let mut span = pardec_obs::span!("quotient.sweep", nodes = n);
    let (records, cut_edges) = combine::emit_precombined(n, |u, out| {
        let cu = labels[u];
        let du = dist(u);
        for (v, w) in upper(u as NodeId) {
            let cv = labels[v as usize];
            if cv != cu {
                out.push(R::new(
                    pack(cu.min(cv), cu.max(cv)),
                    du + w + dist(v as usize),
                ));
            }
        }
    });
    span.field("cut_edges", cut_edges);
    span.field("records", records.len());
    drop(span);
    let (arcs, stats) =
        combine::combine_symmetrize(num_clusters, records, |&r: &R| r.key(), R::mirrored, R::min);
    (
        arcs,
        CombineStats {
            input_pairs: cut_edges,
            ..stats
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
    let g = &g.indexed();
    let (arcs, stats) = sweep::<u64, _>(
        g.num_nodes(),
        labels,
        num_clusters,
        |u| g.upper_neighbors_iter(u).map(|v| (v, 0)),
        |_| 0,
    );
    let (offsets, targets) = combine::csr_parts_from_sorted(num_clusters, &arcs, |&a| a);
    (CsrGraph::from_parts(offsets, targets), stats)
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

/// [`weighted_quotient`], also returning the combine kernel's ledger. Its
/// [`WeightedGraph::topology`] is the unweighted [`quotient`], so this one
/// sweep yields both quotients and the ledger `quotient_with_stats`
/// reports.
pub fn weighted_quotient_with_stats<G: NeighborAccess>(
    g: &G,
    labels: &[NodeId],
    dist_to_center: &[u32],
    num_clusters: usize,
) -> (WeightedGraph, CombineStats) {
    assert_eq!(
        dist_to_center.len(),
        g.num_nodes(),
        "distance array size mismatch"
    );
    let g = &g.indexed();
    let (arcs, stats) = sweep::<u128, _>(
        g.num_nodes(),
        labels,
        num_clusters,
        |u| g.upper_neighbors_iter(u).map(|v| (v, 1)),
        |v| dist_to_center[v] as u64,
    );
    (WeightedGraph::from_sorted_arcs(num_clusters, &arcs), stats)
}

/// [`weighted_quotient`] for a clustering of a **weighted** graph: the
/// contraction step of the weighted decomposition pipeline
/// (arXiv:1506.03265), run per decomposition round on the same sweep.
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
    assert_eq!(
        weighted_dist.len(),
        g.num_nodes(),
        "distance array size mismatch"
    );
    let (arcs, stats) = sweep::<u128, _>(
        g.num_nodes(),
        labels,
        num_clusters,
        |u| g.upper_neighbors(u),
        |v| weighted_dist[v],
    );
    (WeightedGraph::from_sorted_arcs(num_clusters, &arcs), stats)
}

/// Number of edges of `g` crossing between distinct clusters (each counted
/// once, at the endpoint whose `v > u` adjacency tail holds it). This is the
/// paper's `m_C` *before* multi-edge collapsing; the quotient's own
/// `num_edges` gives the collapsed count.
pub fn cut_size<G: NeighborAccess>(g: &G, labels: &[NodeId]) -> usize {
    (0..g.num_nodes())
        .into_par_iter()
        .map(|u| {
            let cu = labels[u];
            g.upper_neighbors_iter(u as NodeId)
                .filter(|&v| labels[v as usize] != cu)
                .count()
        })
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
