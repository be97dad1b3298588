//! A compact weighted undirected graph plus Dijkstra / weighted APSP.
//!
//! Weighted graphs appear in one place in the paper (§4): the *weighted
//! quotient graph*, whose edge weights are shortest connecting-path lengths
//! between adjacent clusters. Its diameter `Δ′_C` yields the tightened upper
//! bound `Δ″ = 2·R_ALG2 + Δ′_C`, and its APSP (stored once, as a packed
//! upper triangle) is the distance oracle.

use crate::combine::{self, pack, PairRecord};
use crate::{CsrGraph, NodeId};
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel for "unreachable" in weighted distance arrays.
pub const INFINITE_WEIGHT: u64 = u64::MAX;

/// Sentinel for "unreachable" in the `u32` APSP triangle of
/// [`WeightedGraph::apsp_upper`].
pub const INFINITE_ENTRY: u32 = u32::MAX;

/// Most buckets the single-source kernel allocates: graphs whose largest
/// weight is below this run on Dial's bucket queue, heavier ones on a
/// binary heap. Weighted quotients of unweighted clusterings carry weights
/// of at most `2R + 1`, so they get buckets for any radius `R < 512`.
///
/// Set from `bench_quotient`'s `weighted-apsp-scaled` rows (weights scaled
/// up to 1000×): below the cap the buckets beat the heap on every measured
/// quotient, and a jump to the next non-empty bucket reads at most 16
/// occupancy words, which bounds the loss on a weighted path (where the
/// heap never holds more than two entries).
const MAX_BUCKETS: u64 = 1024;

/// Sources per parallel task of the all-sources kernels; each task reuses
/// one queue and one distance row.
const SOURCE_CHUNK: usize = 16;

/// Reusable priority queue of the single-source kernel.
#[derive(Clone)]
enum Queue {
    /// Dial's circular bucket queue: with weights `< len`, every queued
    /// tentative distance lies in `[d, d + len)` of the distance `d` being
    /// settled, so bucket `dist % len` holds exactly one distance. Bit `b`
    /// of `occupied` is set while bucket `b` may be non-empty.
    Buckets {
        buckets: Vec<Vec<NodeId>>,
        occupied: Vec<u64>,
    },
    /// `(dist, node)` min-heap with lazy deletion, for heavy weights.
    Heap(BinaryHeap<Reverse<(u64, NodeId)>>),
}

/// The first set bit of `occupied` at or circularly after bit `at`.
///
/// # Panics
/// Panics if no bit is set.
fn next_occupied(occupied: &[u64], at: usize) -> usize {
    let (word, bit) = (at / 64, at % 64);
    let ahead = occupied[word] & (u64::MAX << bit);
    if ahead != 0 {
        return word * 64 + ahead.trailing_zeros() as usize;
    }
    // Later words, then (wrapping) the earlier ones and the low bits of
    // `word` itself.
    let words = occupied.len();
    (1..=words)
        .map(|k| (word + k) % words)
        .find_map(|w| {
            let bits = if w == word {
                occupied[w] & !(u64::MAX << bit)
            } else {
                occupied[w]
            };
            (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
        })
        .expect("a non-empty queue has an occupied bucket")
}

/// Undirected graph with `u64` edge weights in CSR form. Parallel edges are
/// collapsed to their minimum weight at construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeightedGraph {
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    weights: Vec<u64>,
}

impl WeightedGraph {
    /// Builds from an edge triple list `(u, v, w)`. Self-loops are dropped;
    /// duplicate edges keep the smallest weight.
    ///
    /// The build runs on the [`crate::combine`] min-combine kernel over one
    /// normalized `(min(u, v), max(u, v))` record per edge occurrence, so
    /// the result is the canonical sorted CSR — a pure function of the edge
    /// *multiset*: any permutation of the input (and any pool size) builds
    /// a byte-identical graph.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId, u64)]) -> Self {
        // One u128 record per surviving edge: packed (min, max) key in the
        // high 64 bits, weight in the low 64. Equal keys share their high
        // bits, so the min-fold on the whole word is a min on the weight.
        let half: Vec<u128> = combine::par_emit(
            edges.len(),
            |i| {
                let (u, v, _) = edges[i];
                usize::from(u != v)
            },
            |i, emit| {
                let (u, v, w) = edges[i];
                assert!(
                    (u as usize) < n && (v as usize) < n,
                    "edge ({u}, {v}) out of range for n = {n}"
                );
                if u != v {
                    emit.push(u128::new(pack(u.min(v), u.max(v)), w));
                }
            },
        );
        let (arcs, _) =
            combine::combine_symmetrize(n, half, |a| a.key(), u128::mirrored, u128::min);
        Self::from_sorted_arcs(n, &arcs)
    }

    /// Builds from the combine kernel's output: every arc's record (packed
    /// `(source, target)` key over its weight), sorted, unique, symmetric
    /// and self-loop-free. Debug builds re-verify the invariants.
    pub(crate) fn from_sorted_arcs(n: usize, arcs: &[u128]) -> Self {
        let (offsets, targets) = combine::csr_parts_from_sorted(n, arcs, |&a| a.key());
        let g = WeightedGraph {
            offsets,
            targets,
            weights: arcs.iter().map(|&rec| rec as u64).collect(),
        };
        debug_assert!(g.check_invariants().is_ok(), "{:?}", g.check_invariants());
        g
    }

    /// The unweighted graph on the same edges: for a weighted quotient, the
    /// unweighted quotient of the same clustering.
    pub fn topology(&self) -> CsrGraph {
        CsrGraph::from_parts(self.offsets.clone(), self.targets.clone())
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Neighbours of `u` with weights, targets ascending.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        let u = u as usize;
        let range = self.offsets[u]..self.offsets[u + 1];
        self.targets[range.clone()]
            .iter()
            .copied()
            .zip(self.weights[range].iter().copied())
    }

    /// Neighbours `v > u` with weights — the upper adjacency tail, visiting
    /// each undirected edge at exactly one endpoint (targets are sorted, so
    /// the tail is a suffix of the adjacency list).
    #[inline]
    pub fn upper_neighbors(&self, u: NodeId) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.neighbors(u).filter(move |&(v, _)| v > u)
    }

    /// A fresh queue for this graph: buckets when the largest weight
    /// allows, else a heap. The choice depends on the weights alone.
    fn new_queue(&self) -> Queue {
        let max_w = self.weights.iter().copied().max().unwrap_or(0);
        if max_w < MAX_BUCKETS {
            let len = max_w as usize + 1;
            Queue::Buckets {
                buckets: vec![Vec::new(); len],
                occupied: vec![0; len.div_ceil(64)],
            }
        } else {
            Queue::Heap(BinaryHeap::new())
        }
    }

    /// The single-source kernel: shortest-path distances from `src` into
    /// `dist` (length `n`, overwritten), reusing `queue`'s buffers. Every
    /// queue yields the same exact distances.
    fn sssp_into(&self, src: NodeId, dist: &mut [u64], queue: &mut Queue) {
        dist.fill(INFINITE_WEIGHT);
        dist[src as usize] = 0;
        match queue {
            Queue::Buckets { buckets, occupied } => {
                let len = buckets.len();
                buckets[0].push(src);
                occupied[0] |= 1;
                let (mut queued, mut at, mut d) = (1usize, 0usize, 0u64);
                while queued > 0 {
                    // Jump to the next non-empty bucket.
                    let next = next_occupied(occupied, at);
                    let gap = if next >= at {
                        next - at
                    } else {
                        next + len - at
                    };
                    d += gap as u64;
                    at = next;
                    // Zero weights push back into this bucket; drain it all.
                    while let Some(u) = buckets[at].pop() {
                        queued -= 1;
                        if dist[u as usize] != d {
                            continue; // stale: settled at a smaller distance
                        }
                        for (v, w) in self.neighbors(u) {
                            let nd = d + w;
                            if nd < dist[v as usize] {
                                dist[v as usize] = nd;
                                let b = at + w as usize;
                                let b = if b >= len { b - len } else { b };
                                buckets[b].push(v);
                                occupied[b / 64] |= 1 << (b % 64);
                                queued += 1;
                            }
                        }
                    }
                    occupied[at / 64] &= !(1 << (at % 64));
                }
            }
            Queue::Heap(heap) => {
                heap.push(Reverse((0, src)));
                while let Some(Reverse((d, u))) = heap.pop() {
                    if d > dist[u as usize] {
                        continue; // stale entry
                    }
                    for (v, w) in self.neighbors(u) {
                        let nd = d + w;
                        if nd < dist[v as usize] {
                            dist[v as usize] = nd;
                            heap.push(Reverse((nd, v)));
                        }
                    }
                }
            }
        }
    }

    /// Single-source shortest paths (Dijkstra on Dial's bucket queue for
    /// weights below 1024, else on a binary heap).
    pub fn dijkstra(&self, src: NodeId) -> Vec<u64> {
        let mut dist = vec![INFINITE_WEIGHT; self.num_nodes()];
        self.sssp_into(src, &mut dist, &mut self.new_queue());
        dist
    }

    /// Weighted eccentricity of `u` (max finite Dijkstra distance).
    pub fn eccentricity(&self, u: NodeId) -> u64 {
        max_finite(&self.dijkstra(u))
    }

    /// Weighted diameter via all-sources Dijkstra, parallelized over fixed
    /// chunks of sources. Returns the largest finite eccentricity (i.e.
    /// per-component diameters are maxed).
    pub fn apsp_diameter(&self) -> u64 {
        let n = self.num_nodes();
        let empty = self.new_queue();
        (0..n.div_ceil(SOURCE_CHUNK))
            .into_par_iter()
            .map(|chunk| {
                let mut queue = empty.clone();
                let mut dist = vec![INFINITE_WEIGHT; n];
                let first = chunk * SOURCE_CHUNK;
                (first..(first + SOURCE_CHUNK).min(n))
                    .map(|u| {
                        self.sssp_into(u as NodeId, &mut dist, &mut queue);
                        max_finite(&dist)
                    })
                    .max()
                    .unwrap_or(0)
            })
            .max()
            .unwrap_or(0)
    }

    /// The APSP matrix stored once: its packed upper triangle, `d(i, j)` for
    /// every `i ≤ j`, row-major in one vector of `n(n + 1)/2` `u32` entries
    /// (entry `(i, j)` sits at [`upper_row_start`]`(n, i) + j − i`), with
    /// [`INFINITE_ENTRY`] for unreachable pairs. Distances are symmetric, so
    /// the lower half adds nothing.
    ///
    /// Sources run in the fixed chunks of [`Self::apsp_diameter`]; each chunk
    /// reuses one queue and one `u64` distance row, and narrows each row's
    /// tail `dist[i..]` into its own disjoint run of the triangle. Quadratic
    /// space — intended for quotient graphs, which the paper keeps small
    /// enough for one machine.
    ///
    /// # Panics
    /// Panics if a finite distance is `u32::MAX` or more (see
    /// [`upper_entry`]). Weighted quotients of clusterings never get there:
    /// their finite distances stay below `2n` of the clustered graph.
    pub fn apsp_upper(&self) -> Vec<u32> {
        let n = self.num_nodes();
        let empty = self.new_queue();
        let mut upper = vec![0; upper_row_start(n, n)];
        // Chunk `first / SOURCE_CHUNK` owns rows `first..last`: a contiguous
        // run of the packed layout.
        let mut runs = Vec::with_capacity(n.div_ceil(SOURCE_CHUNK));
        let mut rest = upper.as_mut_slice();
        for first in (0..n).step_by(SOURCE_CHUNK) {
            let last = (first + SOURCE_CHUNK).min(n);
            let len = upper_row_start(n, last) - upper_row_start(n, first);
            let (run, tail) = std::mem::take(&mut rest).split_at_mut(len);
            runs.push((first..last, run));
            rest = tail;
        }
        runs.into_par_iter().for_each(|(sources, mut run)| {
            let mut queue = empty.clone();
            let mut dist = vec![INFINITE_WEIGHT; n];
            for i in sources {
                self.sssp_into(i as NodeId, &mut dist, &mut queue);
                let (row, tail) = std::mem::take(&mut run).split_at_mut(n - i);
                for (entry, &d) in row.iter_mut().zip(&dist[i..]) {
                    *entry = upper_entry(d).unwrap_or_else(|| {
                        panic!(
                            "finite distance {d} does not fit a u32 APSP entry \
                             (bound: below u32::MAX = {})",
                            u32::MAX
                        )
                    });
                }
                run = tail;
            }
        });
        upper
    }

    /// Structural invariant check (mirrors [`crate::CsrGraph::check_invariants`]).
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.num_nodes();
        for u in 0..n as NodeId {
            for (v, w) in self.neighbors(u) {
                if v as usize >= n {
                    return Err(format!("target {v} out of range"));
                }
                if v == u {
                    return Err(format!("self-loop at {u}"));
                }
                let Some(back) = self.neighbors(v).find(|&(t, _)| t == u) else {
                    return Err(format!("missing reverse arc ({v}, {u})"));
                };
                if back.1 != w {
                    return Err(format!("asymmetric weight on ({u}, {v})"));
                }
            }
        }
        Ok(())
    }
}

/// Offset of row `i` in a packed upper triangle of order `n` (the layout of
/// [`WeightedGraph::apsp_upper`]); `upper_row_start(n, n)` is its length.
#[inline]
pub fn upper_row_start(n: usize, i: usize) -> usize {
    // One of `i` and `2n + 1 − i` is even, so the halving is exact.
    i * (2 * n + 1 - i) / 2
}

/// `d` as an entry of the `u32` APSP triangle: [`INFINITE_WEIGHT`] becomes
/// [`INFINITE_ENTRY`], and a finite `d` must be below `u32::MAX`. `None`
/// when it is not, since it would then read as unreachable or wrap.
#[inline]
pub fn upper_entry(d: u64) -> Option<u32> {
    match u32::try_from(d) {
        Ok(e) if e != INFINITE_ENTRY => Some(e),
        _ => (d == INFINITE_WEIGHT).then_some(INFINITE_ENTRY),
    }
}

/// Largest finite entry of a distance array (0 when none is finite).
pub fn max_finite(dist: &[u64]) -> u64 {
    dist.iter()
        .copied()
        .filter(|&d| d != INFINITE_WEIGHT)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> WeightedGraph {
        // 0 -1- 1 -1- 3, and a heavy shortcut 0 -5- 3, plus 0 -1- 2 -1- 3
        WeightedGraph::from_edges(4, &[(0, 1, 1), (1, 3, 1), (0, 3, 5), (0, 2, 1), (2, 3, 1)])
    }

    #[test]
    fn dijkstra_prefers_light_paths() {
        let g = diamond();
        let d = g.dijkstra(0);
        assert_eq!(d, vec![0, 1, 1, 2]);
    }

    #[test]
    fn duplicate_edges_keep_min_weight() {
        let g = WeightedGraph::from_edges(2, &[(0, 1, 9), (1, 0, 2), (0, 1, 4)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.dijkstra(0)[1], 2);
    }

    #[test]
    fn unreachable_is_infinite() {
        let g = WeightedGraph::from_edges(3, &[(0, 1, 1)]);
        assert_eq!(g.dijkstra(0)[2], INFINITE_WEIGHT);
        assert_eq!(g.eccentricity(0), 1);
    }

    #[test]
    fn apsp_diameter_weighted_path() {
        let g = WeightedGraph::from_edges(4, &[(0, 1, 2), (1, 2, 3), (2, 3, 4)]);
        assert_eq!(g.apsp_diameter(), 9);
        // Rows 0..4 of the triangle hold 4, 3, 2 and 1 entries.
        assert_eq!(
            g.apsp_upper(),
            vec![0u32, 2, 5, 9, 0, 3, 7, 0, 4, 0],
            "d(i, j) for i <= j, row-major"
        );
        assert_eq!(upper_row_start(4, 1), 4);
        assert_eq!(upper_row_start(4, 3), 9);
        assert_eq!(upper_row_start(4, 4), 10);
        assert!(WeightedGraph::from_edges(0, &[]).apsp_upper().is_empty());
        // An isolated node is unreachable from, and to, everything else.
        let g = WeightedGraph::from_edges(3, &[(0, 1, 2)]);
        let inf = INFINITE_ENTRY;
        assert_eq!(g.apsp_upper(), vec![0, 2, inf, 0, inf, 0]);
        assert_eq!(g.apsp_diameter(), 2);
    }

    #[test]
    fn apsp_entries_up_to_u32_max_minus_one_round_trip() {
        let top = u64::from(u32::MAX) - 1;
        let g = WeightedGraph::from_edges(3, &[(0, 1, top - 5), (1, 2, 5)]);
        assert_eq!(g.apsp_upper(), vec![0, u32::MAX - 6, u32::MAX - 1, 0, 5, 0]);
        assert_eq!(g.apsp_diameter(), top);
        assert_eq!(upper_entry(top), Some(u32::MAX - 1));
        assert_eq!(upper_entry(INFINITE_WEIGHT), Some(INFINITE_ENTRY));
        assert_eq!(upper_entry(u64::from(u32::MAX)), None);
        assert_eq!(upper_entry(1 << 32), None);
    }

    #[test]
    #[should_panic(expected = "does not fit a u32 APSP entry (bound: below u32::MAX")]
    fn apsp_distance_reaching_u32_max_panics() {
        // d(0, 2) = u32::MAX exactly: it would read as unreachable.
        let g = WeightedGraph::from_edges(3, &[(0, 1, u64::from(u32::MAX) - 1), (1, 2, 1)]);
        g.apsp_upper();
    }

    #[test]
    fn bucket_jumps_cross_occupancy_words() {
        // Weights just under the cap: 1000 buckets span 16 occupancy
        // words, and the second hop wraps past the end of the ring.
        let g = WeightedGraph::from_edges(4, &[(0, 1, 999), (1, 2, 700), (0, 3, 65)]);
        assert_eq!(g.dijkstra(0), vec![0, 999, 1699, 65]);
        assert_eq!(g.dijkstra(2), vec![1699, 700, 0, 1764]);
        assert_eq!(g.apsp_diameter(), 1764);
    }

    #[test]
    fn invariants_hold() {
        assert!(diamond().check_invariants().is_ok());
    }

    #[test]
    fn upper_neighbors_cover_each_edge_once() {
        let g = diamond();
        let total: usize = (0..4).map(|u| g.upper_neighbors(u).count()).sum();
        assert_eq!(total, g.num_edges());
        assert!(g.upper_neighbors(0).all(|(v, _)| v > 0));
    }

    #[test]
    fn from_edges_is_order_independent() {
        // Duplicates with different weights in both orientations: every
        // permutation must min-collapse to the same graph.
        let edges = [
            (0u32, 1u32, 9u64),
            (2, 3, 4),
            (1, 0, 2),
            (3, 2, 8),
            (0, 1, 4),
            (1, 2, 7),
        ];
        let fwd = WeightedGraph::from_edges(4, &edges);
        let mut rev = edges;
        rev.reverse();
        assert_eq!(fwd, WeightedGraph::from_edges(4, &rev));
        assert_eq!(fwd.dijkstra(0)[1], 2);
        assert_eq!(fwd.dijkstra(2)[3], 4);
    }
}
