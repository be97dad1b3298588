//! Seed-era reference implementations of every contraction path and of the
//! weighted APSP, retained verbatim as executable specs. All are sequential
//! except the APSP, which spreads its sources over the pool.
//!
//! The [`crate::combine`] kernel and the bucket-queue Dijkstra of
//! [`WeightedGraph`] replaced these on the hot paths; they live on here as
//! the oracles that `tests/proptests_quotient.rs`,
//! `tests/proptests_weighted.rs` and `bench_quotient` compare against
//! byte-for-byte. Nothing in the library itself calls them.

use crate::contract::{Contraction, EdgeCounts};
use crate::csr::CsrGraph;
use crate::weighted::{max_finite, INFINITE_WEIGHT};
use crate::{NodeId, WeightedGraph};
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// The seed-era [`GraphBuilder::build`](crate::GraphBuilder::build): symmetrize into a growable arc
/// list, one global sort, `dedup`, then a sequential offset count.
pub fn build_csr(n: usize, edges: &[(NodeId, NodeId)]) -> CsrGraph {
    let mut arcs: Vec<(NodeId, NodeId)> = Vec::with_capacity(edges.len() * 2);
    for &(u, v) in edges {
        assert!(
            (u as usize) < n && (v as usize) < n,
            "edge ({u}, {v}) out of range for n = {n}"
        );
        if u != v {
            arcs.push((u, v));
            arcs.push((v, u));
        }
    }
    arcs.sort_unstable();
    arcs.dedup();
    let mut offsets = vec![0usize; n + 1];
    for &(u, _) in &arcs {
        offsets[u as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let targets: Vec<NodeId> = arcs.into_iter().map(|(_, v)| v).collect();
    CsrGraph::from_parts(offsets, targets)
}

/// The seed-era unweighted quotient: a sequential edge scan feeding the
/// sort-dedup builder.
pub fn quotient(g: &CsrGraph, labels: &[NodeId], num_clusters: usize) -> CsrGraph {
    assert_eq!(labels.len(), g.num_nodes(), "label array size mismatch");
    let mut cut: Vec<(NodeId, NodeId)> = Vec::new();
    for (u, v) in g.edges() {
        let (cu, cv) = (labels[u as usize], labels[v as usize]);
        assert!(
            (cu as usize) < num_clusters && (cv as usize) < num_clusters,
            "cluster label out of range"
        );
        if cu != cv {
            cut.push((cu, cv));
        }
    }
    build_csr(num_clusters, &cut)
}

/// The seed-era weighted quotient: a sequential `HashMap` min-combine of
/// `dist(x) + 1 + dist(y)` over cut edges, then [`WeightedGraph::from_edges`].
pub fn weighted_quotient(
    g: &CsrGraph,
    labels: &[NodeId],
    dist_to_center: &[u32],
    num_clusters: usize,
) -> WeightedGraph {
    assert_eq!(labels.len(), g.num_nodes(), "label array size mismatch");
    assert_eq!(
        dist_to_center.len(),
        g.num_nodes(),
        "distance array size mismatch"
    );
    let mut best: HashMap<(NodeId, NodeId), u64> = HashMap::new();
    for (u, v) in g.edges() {
        let (cu, cv) = (labels[u as usize], labels[v as usize]);
        assert!(
            (cu as usize) < num_clusters && (cv as usize) < num_clusters,
            "cluster label out of range"
        );
        if cu == cv {
            continue;
        }
        let key = (cu.min(cv), cu.max(cv));
        let w = dist_to_center[u as usize] as u64 + 1 + dist_to_center[v as usize] as u64;
        best.entry(key)
            .and_modify(|cur| *cur = (*cur).min(w))
            .or_insert(w);
    }
    let edges: Vec<(NodeId, NodeId, u64)> = best.into_iter().map(|((a, b), w)| (a, b, w)).collect();
    WeightedGraph::from_edges(num_clusters, &edges)
}

/// The seed-era contraction: sequential `HashMap` sum-combine of cut-edge
/// multiplicities, then the sort-dedup builder for the contracted graph.
pub fn contract(g: &CsrGraph, labels: &[NodeId], num_labels: usize) -> Contraction {
    assert_eq!(labels.len(), g.num_nodes(), "label array size mismatch");
    let mut node_weight = vec![0u64; num_labels];
    for &l in labels {
        assert!((l as usize) < num_labels, "label {l} out of range");
        node_weight[l as usize] += 1;
    }
    let mut multiplicity: HashMap<(NodeId, NodeId), u64> = HashMap::new();
    let mut internal_edges = 0u64;
    for (u, v) in g.edges() {
        let (a, b) = (labels[u as usize], labels[v as usize]);
        if a == b {
            internal_edges += 1;
        } else {
            *multiplicity.entry((a.min(b), a.max(b))).or_insert(0) += 1;
        }
    }
    let mut entries: Vec<(NodeId, NodeId, u64)> = multiplicity
        .into_iter()
        .map(|((a, b), m)| (a, b, m))
        .collect();
    entries.sort_unstable();
    let cut: Vec<(NodeId, NodeId)> = entries.iter().map(|&(a, b, _)| (a, b)).collect();
    Contraction {
        graph: build_csr(num_labels, &cut),
        node_weight,
        edge_multiplicity: EdgeCounts::from_sorted_entries(entries),
        internal_edges,
    }
}

/// The seed-era cut size: a sequential filter-count over the edge iterator.
pub fn cut_size(g: &CsrGraph, labels: &[NodeId]) -> usize {
    g.edges()
        .filter(|&(u, v)| labels[u as usize] != labels[v as usize])
        .count()
}

/// The seed-era [`WeightedGraph::dijkstra`]: a fresh binary heap with lazy
/// deletion per call.
pub fn dijkstra(g: &WeightedGraph, src: NodeId) -> Vec<u64> {
    let mut dist = vec![INFINITE_WEIGHT; g.num_nodes()];
    let mut heap: BinaryHeap<Reverse<(u64, NodeId)>> = BinaryHeap::new();
    dist[src as usize] = 0;
    heap.push(Reverse((0, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue; // stale entry
        }
        for (v, w) in g.neighbors(u) {
            let nd = d + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

/// The seed-era [`WeightedGraph::apsp_diameter`]: one heap [`dijkstra`]
/// per source, parallel over sources.
pub fn apsp_diameter(g: &WeightedGraph) -> u64 {
    (0..g.num_nodes() as NodeId)
        .into_par_iter()
        .map(|u| max_finite(&dijkstra(g, u)))
        .max()
        .unwrap_or(0)
}
