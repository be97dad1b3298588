//! Edge-list → CSR construction with cleaning (symmetrization, dedup,
//! self-loop removal).

use crate::combine::{split_cells, SyncPtr};
use crate::csr::CsrGraph;
use crate::NodeId;
use rayon::prelude::*;
use std::ops::Range;

/// The largest node count a graph may have: every id stays below
/// `NodeId::MAX - 1`, so `n` itself fits a [`NodeId`] below the
/// [`crate::INVALID_NODE`] sentinel.
pub(crate) const MAX_NODES: usize = NodeId::MAX as usize - 1;

/// Arcs per task of the sort pass: a fixed size, so the task grid never
/// depends on the pool size.
const CHUNK: usize = 1 << 16;

/// Edges per stripe of the count and scatter passes (see [`stripe_count`]).
const STRIPE_EDGES: usize = 1 << 18;

/// The most stripes an edge list is cut into.
const MAX_STRIPES: usize = 8;

/// Accumulates an edge list and materializes a clean [`CsrGraph`].
///
/// The builder accepts arbitrary (possibly duplicated, possibly one-sided)
/// edge pairs; `build` symmetrizes, drops self-loops and parallel edges, and
/// sorts adjacency lists. It is a parallel counting sort straight into the
/// final `targets` array — degree counts, a prefix sum, a scatter through
/// per-node cursors, then a sort + dedup of each list in place —
/// byte-identical to the seed-era sort-and-`dedup` build (retained as
/// [`crate::naive::build_csr`]) at any thread count.
///
/// ```
/// use pardec_graph::GraphBuilder;
/// let g = GraphBuilder::new(4)
///     .add_edges([(0, 1), (1, 0), (1, 1), (2, 3), (2, 3)])
///     .build();
/// assert_eq!(g.num_edges(), 2); // {0,1} and {2,3}
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// A builder for a graph on `n` nodes labelled `0..n`.
    pub fn new(n: usize) -> Self {
        assert!(n <= MAX_NODES, "node count {n} exceeds NodeId range");
        GraphBuilder {
            num_nodes: n,
            edges: Vec::new(),
        }
    }

    /// Pre-reserves capacity for `m` additional edges.
    ///
    /// Only the raw edge list is reserved here (one record per `add_edge`
    /// call); `build` sizes the CSR arrays from its own degree count, so no
    /// reallocation happens mid-build either way.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.edges.reserve(m);
        b
    }

    /// Number of nodes the final graph will have.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Adds one undirected edge. Self-loops and duplicates are tolerated and
    /// removed at build time.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        assert!(
            (u as usize) < self.num_nodes && (v as usize) < self.num_nodes,
            "edge ({u}, {v}) out of range for n = {}",
            self.num_nodes
        );
        self.edges.push((u, v));
        self
    }

    /// Adds a batch of edges (chainable, by-value variant for literals).
    pub fn add_edges(mut self, it: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        for (u, v) in it {
            self.add_edge(u, v);
        }
        self
    }

    /// Adds a batch of edges through a mutable reference.
    pub fn extend_edges(&mut self, it: impl IntoIterator<Item = (NodeId, NodeId)>) -> &mut Self {
        for (u, v) in it {
            self.add_edge(u, v);
        }
        self
    }

    /// Materializes the cleaned CSR graph, consuming the builder.
    pub fn build(self) -> CsrGraph {
        build_csr(self.num_nodes, std::slice::from_ref(&self.edges))
    }
}

/// The canonical CSR of the undirected edge multiset held in `parts` (their
/// concatenation, in any split), on `n` nodes: symmetric, loop-free, each
/// adjacency list sorted and unique.
///
/// A counting sort that writes the final `targets` array directly:
///
/// 1. **Count** — the edge list is cut into a few contiguous stripes (see
///    [`stripe_count`]); each stripe counts its arcs per node into a private
///    array, in parallel. Self-loops are skipped.
/// 2. **Prefix** — an exclusive prefix sum, node-major then stripe, gives
///    the offsets and turns each count into the stripe's cursor into that
///    node's list.
/// 3. **Scatter** both arcs of every edge into `targets` through its
///    stripe's cursors, the stripes in parallel.
/// 4. **Sort + dedup** each adjacency list in place, in parallel over node
///    ranges of about [`CHUNK`] arcs.
/// 5. **Compact** — only when step 4 dropped a duplicate.
///
/// Every step is a pure function of the edge list, and step 4 makes each
/// list its sorted set of neighbours, so the result is byte-identical to
/// [`crate::naive::build_csr`] at any pool size and in any split. Transient
/// memory is one cursor word per node per stripe on top of the input and
/// the output.
///
/// # Panics
/// Panics if an endpoint is `>= n` (in the count pass, before any write).
pub(crate) fn build_csr(n: usize, parts: &[Vec<(NodeId, NodeId)>]) -> CsrGraph {
    let m: usize = parts.iter().map(Vec::len).sum();
    build_striped(n, &split_stripes(parts, m.div_ceil(stripe_count(n, m))))
}

/// [`build_csr`] on edges already cut into stripes (at least one).
fn build_striped(n: usize, stripes: &[Vec<&[(NodeId, NodeId)]>]) -> CsrGraph {
    // 1. Count. Indexing is bounds-checked, so an out-of-range endpoint
    // panics here, before the unchecked writes of step 3.
    let mut cursors: Vec<Vec<usize>> = stripes.iter().map(|_| vec![0usize; n]).collect();
    cursors
        .par_iter_mut()
        .zip(stripes.par_iter())
        .for_each(|(count, stripe)| {
            for &(u, v) in stripe.iter().flat_map(|run| run.iter()) {
                if u != v {
                    count[u as usize] += 1;
                    count[v as usize] += 1;
                }
            }
        });

    // 2. Prefix: within node `u`'s list, stripe `s` owns the slots after
    // those of stripes `< s`, and its cursor now points at the first.
    let mut offsets = Vec::with_capacity(n + 1);
    let mut total = 0usize;
    for u in 0..n {
        offsets.push(total);
        for cursor in &mut cursors {
            total += std::mem::replace(&mut cursor[u], total);
        }
    }
    offsets.push(total);

    // 3. Scatter.
    let mut targets: Vec<NodeId> = Vec::with_capacity(total);
    let dst = SyncPtr(targets.as_mut_ptr());
    let dst = &dst;
    cursors
        .par_iter_mut()
        .zip(stripes.par_iter())
        .for_each(move |(cursor, stripe)| {
            for &(u, v) in stripe.iter().flat_map(|run| run.iter()) {
                if u != v {
                    let p = cursor[u as usize];
                    cursor[u as usize] += 1;
                    let q = cursor[v as usize];
                    cursor[v as usize] += 1;
                    // SAFETY: step 1 counted exactly the arcs this stripe
                    // visits here (same edges, same self-loop rule), so its
                    // cursor for a node walks that stripe's own slots of
                    // the node's list once and never leaves them. Those
                    // slot ranges tile `0..total`, the buffer's capacity:
                    // every slot is written exactly once, by one worker.
                    unsafe {
                        dst.0.add(p).write(v);
                        dst.0.add(q).write(u);
                    }
                }
            }
        });
    // SAFETY: the scatter wrote every slot of `0..total` (see above), and
    // the capacity is `total`.
    unsafe { targets.set_len(total) };

    // 4. Sort + dedup each list. The first stripe's cursors, spent now,
    // take each list's deduplicated length.
    let mut kept = cursors.swap_remove(0);
    drop(cursors);
    let ranges = node_ranges(&offsets, CHUNK);
    let arcs: Vec<usize> = ranges
        .iter()
        .map(|r| offsets[r.end] - offsets[r.start])
        .collect();
    let nodes: Vec<usize> = ranges.iter().map(ExactSizeIterator::len).collect();
    let dropped: usize = split_cells(&mut targets, &arcs)
        .into_par_iter()
        .zip(split_cells(&mut kept, &nodes))
        .zip(ranges)
        .map(|((cell, kept), range)| {
            let base = offsets[range.start];
            let mut dropped = 0;
            for (u, kept) in range.zip(kept) {
                let list = &mut cell[offsets[u] - base..offsets[u + 1] - base];
                list.sort_unstable();
                *kept = dedup_sorted(list);
                dropped += list.len() - *kept;
            }
            dropped
        })
        .sum();

    // 5. Compact: lists only move left, so one forward pass is safe.
    if dropped > 0 {
        let mut w = 0;
        for u in 0..n {
            let start = offsets[u];
            targets.copy_within(start..start + kept[u], w);
            offsets[u] = w;
            w += kept[u];
        }
        offsets[n] = w;
        targets.truncate(w);
        targets.shrink_to_fit();
    }
    CsrGraph::from_parts(offsets, targets)
}

/// How many stripes the count and scatter passes cut `m` edges on `n` nodes
/// into: one per [`STRIPE_EDGES`] edges, but at most one per `n` edges (each
/// stripe holds a cursor word per node, so the cursors never outweigh the
/// edge list), at most [`MAX_STRIPES`], and rounded down to a power of two
/// so that stripes divide evenly over power-of-two core counts. A pure
/// function of the input size, never of the pool size.
fn stripe_count(n: usize, m: usize) -> usize {
    let stripes = (m / STRIPE_EDGES).min(m / n.max(1)).clamp(1, MAX_STRIPES);
    1 << stripes.ilog2()
}

/// Cuts the concatenation of `parts` into consecutive stripes of `per`
/// edges (the last may be shorter; one empty stripe if there are no edges),
/// each a list of runs.
fn split_stripes<E>(parts: &[Vec<E>], per: usize) -> Vec<Vec<&[E]>> {
    let per = per.max(1);
    let mut stripes = Vec::new();
    let mut stripe = Vec::new();
    let mut room = per;
    for part in parts {
        let mut rest = &part[..];
        while !rest.is_empty() {
            let (run, tail) = rest.split_at(rest.len().min(room));
            stripe.push(run);
            room -= run.len();
            rest = tail;
            if room == 0 {
                stripes.push(std::mem::take(&mut stripe));
                room = per;
            }
        }
    }
    if !stripe.is_empty() || stripes.is_empty() {
        stripes.push(stripe);
    }
    stripes
}

/// Consecutive node ranges covering `0..n` (`n = offsets.len() - 1`), each
/// of at least one node and about `arcs` arcs — a pure function of the
/// offsets.
fn node_ranges(offsets: &[usize], arcs: usize) -> Vec<Range<usize>> {
    let n = offsets.len() - 1;
    let mut ranges = Vec::new();
    let mut start = 0;
    while start < n {
        let goal = offsets[start] + arcs;
        let end = offsets.partition_point(|&o| o < goal).clamp(start + 1, n);
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// Moves the distinct values of a sorted slice to its front, returning how
/// many there are.
fn dedup_sorted(list: &mut [NodeId]) -> usize {
    if list.is_empty() {
        return 0;
    }
    let mut w = 1;
    for r in 1..list.len() {
        if list[r] != list[w - 1] {
            list[w] = list[r];
            w += 1;
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;

    #[test]
    fn dedup_and_symmetrize() {
        let g = GraphBuilder::new(3)
            .add_edges([(0, 1), (1, 0), (0, 1), (1, 2)])
            .build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn self_loops_removed() {
        let g = GraphBuilder::new(2)
            .add_edges([(0, 0), (1, 1), (0, 1)])
            .build();
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn isolated_nodes_preserved() {
        let g = GraphBuilder::new(10).add_edges([(0, 9)]).build();
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.degree(5), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }

    #[test]
    #[should_panic(expected = "exceeds NodeId range")]
    fn node_count_beyond_the_id_range_panics() {
        GraphBuilder::new(MAX_NODES + 1);
    }

    #[test]
    fn build_without_edges() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        let g = GraphBuilder::new(5).build();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g, CsrGraph::empty(5));
    }

    #[test]
    fn build_dedups_a_symmetric_arc_soup() {
        // Both arcs of every edge plus a duplicate of one of them.
        let mut edges = Vec::new();
        for u in 0u32..50 {
            for v in 0u32..50 {
                if u != v && (u + v) % 3 == 0 {
                    edges.extend([(u, v), (v, u), (u, v)]);
                }
            }
        }
        let g = GraphBuilder::new(50).add_edges(edges.clone()).build();
        assert!(g.check_invariants().is_ok());
        assert!(g.num_arcs() < edges.len());
        assert_eq!(g, naive::build_csr(50, &edges));
    }

    #[test]
    fn build_matches_naive_reference() {
        // Dense duplicate-heavy soup including self-loops.
        let edges: Vec<(NodeId, NodeId)> = (0..20_000u32)
            .map(|i| ((i * 7) % 300, (i * 13) % 300))
            .collect();
        let g = GraphBuilder::new(300).add_edges(edges.clone()).build();
        assert_eq!(g, naive::build_csr(300, &edges));
        assert!(g.check_invariants().is_ok());
    }

    /// A hub joined to 15k nodes (each spoke twice, once per direction), a
    /// ring with every edge repeated and a self-loop at every node, and
    /// `extra` pseudo-random edges.
    fn hub_ring_soup(n: u32, extra: u32) -> Vec<(NodeId, NodeId)> {
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for v in 1..15_001 {
            edges.extend([(0, v), (v, 0)]);
        }
        for v in 0..n {
            let w = (v + 1) % n;
            edges.extend([(v, w), (w, v), (v, w), (v, v)]);
        }
        edges.extend((0..extra).map(|i| (i % n, (i.wrapping_mul(7919) + 13) % n)));
        edges
    }

    #[test]
    fn multi_stripe_build_matches_naive_at_any_pool_size() {
        // Enough edges for more than four 65,536-edge chunks and two
        // stripes, so the count and scatter passes run on several workers
        // at once.
        let n = 60_000;
        let edges = hub_ring_soup(n, 300_000);
        assert!(edges.len() >= 4 * CHUNK);
        assert_eq!(stripe_count(n as usize, edges.len()), 2);
        let expected = naive::build_csr(n as usize, &edges);
        assert!(expected.degree(0) > 10_000);
        // The same multiset split into uneven parts builds the same graph.
        let parts: Vec<Vec<(NodeId, NodeId)>> = edges.chunks(50_001).map(<[_]>::to_vec).collect();
        for threads in [1, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool construction cannot fail");
            let (whole, split) = pool.install(|| {
                let whole = GraphBuilder::new(n as usize)
                    .add_edges(edges.iter().copied())
                    .build();
                (whole, build_csr(n as usize, &parts))
            });
            assert_eq!(whole, expected, "diverged at {threads} threads");
            assert_eq!(split, expected, "split input diverged at {threads} threads");
        }
    }

    #[test]
    fn any_stripe_cut_builds_the_same_graph() {
        let n = 20_000;
        let edges = hub_ring_soup(n, 20_000);
        let expected = naive::build_csr(n as usize, &edges);
        let parts: Vec<Vec<(NodeId, NodeId)>> = edges.chunks(9_999).map(<[_]>::to_vec).collect();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .expect("pool construction cannot fail");
        for per in [1_000, 12_345, 40_000, edges.len()] {
            let stripes = split_stripes(&parts, per);
            assert_eq!(stripes.len(), edges.len().div_ceil(per));
            let flat: Vec<(NodeId, NodeId)> = stripes
                .iter()
                .flatten()
                .flat_map(|r| r.iter().copied())
                .collect();
            assert_eq!(flat, edges, "stripes of {per} reorder the edges");
            let g = pool.install(|| build_striped(n as usize, &stripes));
            assert_eq!(g, expected, "diverged at stripes of {per} edges");
        }
    }

    #[test]
    fn stripe_count_follows_the_input_size() {
        assert_eq!(stripe_count(0, 0), 1);
        assert_eq!(stripe_count(10, 5), 1);
        assert_eq!(stripe_count(100, STRIPE_EDGES - 1), 1);
        // Three stripes' worth of edges round down to two.
        assert_eq!(stripe_count(1_000, 3 * STRIPE_EDGES), 2);
        assert_eq!(stripe_count(1_000, 100 * STRIPE_EDGES), MAX_STRIPES);
        // Never more stripes than edges per node.
        assert_eq!(stripe_count(STRIPE_EDGES, 4 * STRIPE_EDGES), 4);
        assert_eq!(stripe_count(4 * STRIPE_EDGES, 4 * STRIPE_EDGES), 1);
        assert_eq!(split_stripes::<u8>(&[], 5), vec![Vec::<&[u8]>::new()]);
    }

    #[test]
    fn node_ranges_tile_the_nodes() {
        let offsets = [0, 5, 5, 5, 20, 21, 40];
        for arcs in [1, 4, 10, 100] {
            let ranges = node_ranges(&offsets, arcs);
            let flat: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).collect();
            assert_eq!(flat, (0..6).collect::<Vec<_>>(), "arcs = {arcs}");
            assert!(ranges.iter().all(|r| !r.is_empty()));
        }
        assert_eq!(node_ranges(&[0], 8), Vec::<Range<usize>>::new());
    }

    #[test]
    fn adjacency_sorted() {
        let g = GraphBuilder::new(5)
            .add_edges([(2, 4), (2, 0), (2, 3), (2, 1)])
            .build();
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
    }
}
