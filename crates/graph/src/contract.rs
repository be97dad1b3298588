//! Graph contraction and induced subgraphs.
//!
//! §5 of the paper implements cluster growing "as a progressive shrinking
//! of the original graph, by maintaining clusters coalesced into single
//! nodes and updating the adjacencies accordingly". [`contract`] is that
//! coalescing operation: it maps a labelled graph to its quotient while
//! keeping the bookkeeping (node weights = cluster sizes, edge
//! multiplicities = cut sizes) that the shrinking representation needs.
//! [`induced_subgraph`] extracts the subgraph on an arbitrary node subset
//! with an id mapping — used by per-component analyses.

use crate::access::NeighborAccess;
use crate::combine::{self, pack, unpack};
use crate::{CsrGraph, GraphBuilder, NodeId, INVALID_NODE};

/// Cut-edge multiplicities of a contraction: a sorted flat map from an
/// unordered cluster pair `{a, b}` (stored as `a < b`) to the number of
/// original edges crossing it.
///
/// This replaced the seed-era `HashMap<(NodeId, NodeId), u64>`: the entries
/// come out of the combine kernel already sorted and unique, so lookups are
/// a binary search and iteration order is deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeCounts {
    /// `(a, b, count)` with `a < b`, sorted by `(a, b)`.
    entries: Vec<(NodeId, NodeId, u64)>,
}

impl EdgeCounts {
    /// Wraps entries that are already sorted by `(a, b)` with `a < b`.
    pub(crate) fn from_sorted_entries(entries: Vec<(NodeId, NodeId, u64)>) -> Self {
        debug_assert!(entries
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        debug_assert!(entries.iter().all(|&(a, b, _)| a < b));
        EdgeCounts { entries }
    }

    /// Multiplicity of the cluster pair `{a, b}` (order-insensitive);
    /// `None` if no edge crosses it.
    pub fn get(&self, a: NodeId, b: NodeId) -> Option<u64> {
        let key = (a.min(b), a.max(b));
        self.entries
            .binary_search_by_key(&key, |&(x, y, _)| (x, y))
            .ok()
            .map(|i| self.entries[i].2)
    }

    /// Number of distinct cluster pairs with at least one crossing edge.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no edge crosses any cluster pair.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `((a, b), count)` in ascending `(a, b)` order.
    pub fn iter(&self) -> impl Iterator<Item = ((NodeId, NodeId), u64)> + '_ {
        self.entries.iter().map(|&(a, b, m)| ((a, b), m))
    }

    /// Iterates the multiplicities in ascending `(a, b)` order.
    pub fn values(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().map(|&(_, _, m)| m)
    }
}

impl std::ops::Index<&(NodeId, NodeId)> for EdgeCounts {
    type Output = u64;

    /// Multiplicity of `{a, b}`; panics if no edge crosses the pair
    /// (mirroring `HashMap` indexing).
    fn index(&self, &(a, b): &(NodeId, NodeId)) -> &u64 {
        let key = (a.min(b), a.max(b));
        match self.entries.binary_search_by_key(&key, |&(x, y, _)| (x, y)) {
            Ok(i) => &self.entries[i].2,
            Err(_) => panic!("no cut edge between clusters {a} and {b}"),
        }
    }
}

/// Result of [`contract`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Contraction {
    /// The contracted (quotient) graph: one node per label, simple edges.
    pub graph: CsrGraph,
    /// `node_weight[c]` = number of original nodes with label `c`.
    pub node_weight: Vec<u64>,
    /// Multiplicity of each crossing cluster pair: the number of original
    /// edges between labels `a` and `b`.
    pub edge_multiplicity: EdgeCounts,
    /// Original edges inside a single label (the coalesced mass).
    pub internal_edges: u64,
}

/// Coalesces each label class of `g` into a single node.
///
/// Multiplicities are a sum-combine over the cut edges on the
/// [`crate::combine`] kernel; the contracted CSR is built from the combined
/// entries directly.
///
/// # Panics
/// Panics if `labels.len() != g.num_nodes()` or a label is `≥ num_labels`.
pub fn contract<G: NeighborAccess>(g: &G, labels: &[NodeId], num_labels: usize) -> Contraction {
    assert_eq!(labels.len(), g.num_nodes(), "label array size mismatch");
    let mut node_weight = vec![0u64; num_labels];
    for &l in labels {
        assert!((l as usize) < num_labels, "label {l} out of range");
        node_weight[l as usize] += 1;
    }
    // One record per undirected cut edge (scanning each edge once via the
    // upper adjacency tails), keyed by the normalized cluster pair;
    // sum-combine.
    let g = &g.indexed();
    let cut: Vec<(u64, u64)> = combine::par_emit(
        g.num_nodes(),
        |u| crate::quotient::cut_degree(g, labels, u),
        |u, emit| {
            let a = labels[u];
            for v in g.upper_neighbors_iter(u as NodeId) {
                let b = labels[v as usize];
                if b != a {
                    emit.push((pack(a.min(b), a.max(b)), 1));
                }
            }
        },
    );
    // Self-loop-free CSR: every undirected edge is either cut or internal.
    let internal_edges = (g.num_edges() - cut.len()) as u64;
    let (combined, _) = combine::combine_by_key(
        cut,
        (num_labels as u64) << 32,
        |c| c.0,
        |a, b| (a.0, a.1 + b.1),
    );
    // The combined keys are exactly the contracted graph's normalized edge
    // set — already unique, ready for the kernel's mirror + CSR build.
    let half: Vec<u64> = combined.iter().map(|&(key, _)| key).collect();
    let entries: Vec<(NodeId, NodeId, u64)> = combined
        .into_iter()
        .map(|(key, m)| {
            let (a, b) = unpack(key);
            (a, b, m)
        })
        .collect();
    Contraction {
        graph: combine::csr_from_unique_half_arcs(num_labels, half),
        node_weight,
        edge_multiplicity: EdgeCounts::from_sorted_entries(entries),
        internal_edges,
    }
}

/// Extracts the subgraph induced by `nodes` (need not be sorted; duplicates
/// are ignored). Returns the subgraph and `orig_id[new] = old`.
pub fn induced_subgraph<G: NeighborAccess>(g: &G, nodes: &[NodeId]) -> (CsrGraph, Vec<NodeId>) {
    let mut new_id = vec![INVALID_NODE; g.num_nodes()];
    let mut orig_id: Vec<NodeId> = Vec::with_capacity(nodes.len());
    for &v in nodes {
        assert!((v as usize) < g.num_nodes(), "node {v} out of range");
        if new_id[v as usize] == INVALID_NODE {
            new_id[v as usize] = orig_id.len() as NodeId;
            orig_id.push(v);
        }
    }
    let mut b = GraphBuilder::new(orig_id.len());
    for &v in &orig_id {
        for w in g.neighbors_iter(v) {
            if v < w && new_id[w as usize] != INVALID_NODE {
                b.add_edge(new_id[v as usize], new_id[w as usize]);
            }
        }
    }
    (b.build(), orig_id)
}

/// Relabels the graph in BFS discovery order from `root` (unreached nodes
/// keep their relative order after the reached ones). Returns the relabelled
/// graph and `old_of_new[new] = old`.
///
/// BFS ordering places each node near its neighbours in memory, improving
/// the cache behaviour of frontier scans — a standard preprocessing step for
/// the level-synchronous traversals every algorithm in this workspace runs.
pub fn relabel_bfs<G: NeighborAccess>(g: &G, root: NodeId) -> (CsrGraph, Vec<NodeId>) {
    let n = g.num_nodes();
    assert!((root as usize) < n || n == 0, "root out of range");
    let mut old_of_new: Vec<NodeId> = Vec::with_capacity(n);
    let mut new_of_old: Vec<NodeId> = vec![INVALID_NODE; n];
    if n > 0 {
        let mut queue = std::collections::VecDeque::from([root]);
        new_of_old[root as usize] = 0;
        old_of_new.push(root);
        while let Some(u) = queue.pop_front() {
            for v in g.neighbors_iter(u) {
                if new_of_old[v as usize] == INVALID_NODE {
                    new_of_old[v as usize] = old_of_new.len() as NodeId;
                    old_of_new.push(v);
                    queue.push_back(v);
                }
            }
        }
        for v in 0..n as NodeId {
            if new_of_old[v as usize] == INVALID_NODE {
                new_of_old[v as usize] = old_of_new.len() as NodeId;
                old_of_new.push(v);
            }
        }
    }
    let mut b = GraphBuilder::with_capacity(n, g.num_edges());
    for u in 0..n as NodeId {
        for v in g.upper_neighbors_iter(u) {
            b.add_edge(new_of_old[u as usize], new_of_old[v as usize]);
        }
    }
    (b.build(), old_of_new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn contract_path_pairs() {
        // 0-1-2-3-4-5 with labels [0,0,1,1,2,2].
        let g = generators::path(6);
        let c = contract(&g, &[0, 0, 1, 1, 2, 2], 3);
        assert_eq!(c.graph.num_nodes(), 3);
        assert_eq!(c.graph.num_edges(), 2);
        assert_eq!(c.node_weight, vec![2, 2, 2]);
        assert_eq!(c.internal_edges, 3);
        assert_eq!(c.edge_multiplicity[&(0, 1)], 1);
    }

    #[test]
    fn contract_counts_multiplicities() {
        // Complete graph on 4 nodes, split 2/2: 4 cut edges, 2 internal.
        let g = generators::complete(4);
        let c = contract(&g, &[0, 0, 1, 1], 2);
        assert_eq!(c.graph.num_edges(), 1);
        assert_eq!(c.edge_multiplicity[&(0, 1)], 4);
        assert_eq!(c.internal_edges, 2);
    }

    #[test]
    fn contract_identity_labels() {
        let g = generators::cycle(8);
        let labels: Vec<NodeId> = (0..8).collect();
        let c = contract(&g, &labels, 8);
        assert_eq!(c.graph, g);
        assert!(c.node_weight.iter().all(|&w| w == 1));
        assert_eq!(c.internal_edges, 0);
    }

    #[test]
    fn contract_matches_quotient() {
        // The contracted simple graph must equal the quotient module's view.
        let g = generators::road_network(12, 12, 0.4, 5);
        let labels: Vec<NodeId> = (0..g.num_nodes() as NodeId).map(|v| v % 10).collect();
        let c = contract(&g, &labels, 10);
        let q = crate::quotient::quotient(&g, &labels, 10);
        assert_eq!(c.graph, q);
        // Total mass is conserved.
        let cut: u64 = c.edge_multiplicity.values().sum();
        assert_eq!(cut + c.internal_edges, g.num_edges() as u64);
    }

    #[test]
    fn contract_matches_naive_reference() {
        let g = generators::preferential_attachment(800, 5, 3);
        let labels: Vec<NodeId> = (0..g.num_nodes() as NodeId).map(|v| v % 23).collect();
        let c = contract(&g, &labels, 23);
        let naive = crate::naive::contract(&g, &labels, 23);
        assert_eq!(c, naive);
    }

    #[test]
    fn edge_counts_lookup() {
        let g = generators::complete(4);
        let c = contract(&g, &[0, 0, 1, 1], 2);
        assert_eq!(c.edge_multiplicity.get(0, 1), Some(4));
        assert_eq!(c.edge_multiplicity.get(1, 0), Some(4)); // order-insensitive
        assert_eq!(c.edge_multiplicity.get(0, 0), None);
        assert_eq!(c.edge_multiplicity.len(), 1);
        assert!(!c.edge_multiplicity.is_empty());
        assert_eq!(c.edge_multiplicity.iter().next(), Some(((0, 1), 4)));
    }

    #[test]
    fn induced_subgraph_square() {
        let g = generators::mesh(3, 3);
        let (sub, orig) = induced_subgraph(&g, &[0, 1, 3, 4]);
        assert_eq!(sub.num_nodes(), 4);
        assert_eq!(sub.num_edges(), 4); // the 2×2 sub-square
        assert_eq!(orig, vec![0, 1, 3, 4]);
    }

    #[test]
    fn induced_subgraph_dedups_and_relabels() {
        let g = generators::path(5);
        let (sub, orig) = induced_subgraph(&g, &[4, 2, 4, 3]);
        assert_eq!(orig, vec![4, 2, 3]);
        assert_eq!(sub.num_edges(), 2); // 2-3 and 3-4
        assert!(sub.has_edge(1, 2)); // relabelled 2-3
    }

    #[test]
    fn induced_subgraph_empty_selection() {
        let g = generators::cycle(5);
        let (sub, orig) = induced_subgraph(&g, &[]);
        assert_eq!(sub.num_nodes(), 0);
        assert!(orig.is_empty());
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = generators::road_network(15, 15, 0.4, 8);
        let (r, old_of_new) = relabel_bfs(&g, 7);
        assert_eq!(r.num_nodes(), g.num_nodes());
        assert_eq!(r.num_edges(), g.num_edges());
        // Distances are isomorphic: dist_r(new(u), new(v)) == dist_g(u, v).
        let dg = crate::traversal::bfs(&g, 7).dist;
        let dr = crate::traversal::bfs(&r, 0).dist; // 7 relabels to 0
        for new in 0..r.num_nodes() {
            let old = old_of_new[new] as usize;
            assert_eq!(dr[new], dg[old], "distance mismatch at new id {new}");
        }
    }

    #[test]
    fn relabel_orders_by_bfs_level() {
        // On a path rooted at 0, BFS order is the identity.
        let g = generators::path(8);
        let (r, old_of_new) = relabel_bfs(&g, 0);
        assert_eq!(r, g);
        assert_eq!(old_of_new, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn relabel_handles_disconnected() {
        let g = generators::disjoint_union(&generators::path(3), &generators::cycle(4));
        let (r, old_of_new) = relabel_bfs(&g, 1);
        assert_eq!(r.num_edges(), g.num_edges());
        assert_eq!(old_of_new.len(), 7);
        // Unreached component keeps relative order at the tail.
        assert_eq!(&old_of_new[3..], &[3, 4, 5, 6]);
    }
}
