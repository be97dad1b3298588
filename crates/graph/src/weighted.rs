//! A compact weighted undirected graph plus Dijkstra / weighted APSP.
//!
//! Weighted graphs appear in one place in the paper (§4): the *weighted
//! quotient graph*, whose edge weights are shortest connecting-path lengths
//! between adjacent clusters. Its diameter `Δ′_C` yields the tightened upper
//! bound `Δ″ = 2·R_ALG2 + Δ′_C`, and its APSP (stored once, as a packed
//! upper triangle) is the distance oracle.
//!
//! # All sources on a contraction hierarchy, sixteen per sweep
//!
//! [`WeightedGraph::apsp_upper`] and [`WeightedGraph::apsp_diameter`] run
//! every source on one contraction hierarchy (Geisberger et al., WEA 2008),
//! built once per call. Elimination runs in rounds of independent sets: a
//! round scans the remaining nodes in ascending id and takes a node when no
//! neighbour of it was taken in the round, its degree is at most 16, and
//! eliminating it adds no more new edges than it removes, which always
//! holds at degree ≤ 3. Each pair of an eliminated node's neighbours gets a
//! shortcut of their two weights' sum, or keeps its edge if that is
//! lighter, and those neighbours, with their weights, become the node's
//! *up-arcs*. The nodes left when a round takes none are the *core*, kept
//! as a CSR. In a road quotient about 41% of the clusters have degree ≤ 2,
//! and the core keeps about a tenth of them.
//!
//! The core's own distances come first: one single-seed search of the core
//! per core node that an up-arc reaches fills a row of the *core table*
//! (every core node of a road quotient, so `c × c` entries). Sources then
//! run in chunks of 16, the lanes of one place-major matrix, and a chunk
//! costs three steps (the one-to-all sweep is PHAST, Delling et al., IPDPS
//! 2011, which also sweeps many sources at once):
//!
//! 1. per source, an upward walk over the up-arcs, which point from each
//!    node to nodes eliminated after it or to the core; it expands the
//!    places it reaches in ascending order, and the core nodes it reaches
//!    are the source's *seeds* (a core source is its own seed);
//! 2. per source, each core node's distance is the least, over the seeds,
//!    of the seed's distance plus the seed's table entry; a core source
//!    with no table row searches the core itself, so a graph that contracts
//!    nothing needs no table;
//! 3. one downward sweep for all 16 lanes in reverse elimination order,
//!    `d(y) = min(d(y), d(b) + w)` over the up-arcs `(b, w)` of `y`.
//!
//! Every shortest path has an equally short path that climbs the hierarchy,
//! crosses the core and descends, so the distances are exact: the APSP
//! equals per-source Dijkstra entry for entry, at any pool size. Lanes are
//! `u32` when `(n − 1) · max_weight < u32::MAX`, which bounds every finite
//! distance, and `u64` otherwise; additions saturate at the lane's largest
//! value, the unreachable sentinel, which only a sum longer than every
//! finite distance reaches.

use crate::combine::{self, pack, PairRecord};
use crate::{CsrGraph, NodeId};
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Sentinel for "unreachable" in weighted distance arrays.
pub const INFINITE_WEIGHT: u64 = u64::MAX;

/// Sentinel for "unreachable" in the `u32` APSP triangle of
/// [`WeightedGraph::apsp_upper`].
pub const INFINITE_ENTRY: u32 = u32::MAX;

/// Most buckets the single-source search loop allocates: graphs whose
/// largest weight is below this run on Dial's bucket queue, heavier ones on
/// a binary heap. Weighted quotients of unweighted clusterings carry
/// weights of at most `2R + 1`. The all-sources kernels search only the
/// core of a contraction hierarchy, once per core node (a row of the core
/// table, or a core source's own distances); its shortcuts are sums of
/// weights, so the queue follows the
/// core's largest weight: 173–273 on `perfbench` road quotients whose
/// largest weight (`2R + 1`) is 53–57, and 193 on `road_network(400, 400,
/// 0.4, 12)`'s CLUSTER(5) quotient.
///
/// Set from `bench_quotient`'s `weighted-apsp-scaled` rows (weights scaled
/// up to 1000×, measured on the whole quotient before the hierarchy):
/// below the cap the buckets beat the heap on every measured quotient, and
/// a jump to the next non-empty bucket reads at most 16 occupancy words,
/// which bounds the loss on a weighted path (where the heap never holds
/// more than two entries).
const MAX_BUCKETS: u64 = 1024;

/// Sources per parallel task of the all-sources kernels, and so the lanes
/// of one downward sweep: a task keeps one place-major matrix of 16 lanes
/// per place (155 KB of `u32` lanes on a 2,420-node road quotient), and
/// each up-arc the sweep reads updates all 16 lanes at once. The core
/// table's searches run in tasks of as many rows.
const SOURCE_CHUNK: usize = 16;

/// Largest degree at which the hierarchy eliminates a node. Past it, an
/// elimination's shortcuts cost the build quadratic work and every source
/// sweeps about as many up-arcs as the core search saves. Without the cap,
/// `bench_quotient`'s CI-scale power-law quotient (1,249 nodes, average
/// degree 60) contracts completely, in 334 rounds, into 59,860 up-arcs;
/// even with a build that re-tested only the nodes an elimination touched,
/// its APSP took 1.4–1.8× as long as with every node above degree 16 left
/// in the core. Road and mesh quotients eliminate no node above degree 10,
/// so the cap leaves them alone.
const MAX_ELIMINATION_DEGREE: usize = 16;

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

    /// The search loop behind [`Self::dijkstra`] and the core table: exact
    /// distances from `src` into `dist`, reusing `queue`'s buffers. Every
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

    /// Whether the all-sources kernels may run on `u32` lanes: a finite
    /// distance follows a path of at most `n − 1` edges, so when `(n − 1) ·
    /// max_weight < u32::MAX` every finite distance is below `u32::MAX`.
    fn u32_lanes(&self) -> bool {
        let max_w = self.weights.iter().copied().max().unwrap_or(0);
        (self.num_nodes().saturating_sub(1) as u128) * u128::from(max_w) < u128::from(u32::MAX)
    }

    /// Weighted diameter: the largest finite distance between any two nodes
    /// (i.e. per-component diameters are maxed), from every source on one
    /// contraction hierarchy (see the module docs), in fixed chunks of
    /// sources run in parallel. Adds the core table's lanes, at most `c²`,
    /// to the hierarchy's `O(n + m)` words, and one lane matrix of `16n`
    /// lanes per running task.
    pub fn apsp_diameter(&self) -> u64 {
        let mut span = pardec_obs::span!("weighted.apsp", nodes = self.num_nodes());
        let h = Hierarchy::build(self);
        if self.u32_lanes() {
            Kernel::<u32>::new(&h, &mut span).diameter()
        } else {
            Kernel::<u64>::new(&h, &mut span).diameter()
        }
    }

    /// The APSP matrix stored once: its packed upper triangle, `d(i, j)` for
    /// every `i ≤ j`, row-major in one vector of `n(n + 1)/2` `u32` entries
    /// (entry `(i, j)` sits at [`upper_row_start`]`(n, i) + j − i`), with
    /// [`INFINITE_ENTRY`] for unreachable pairs. Distances are symmetric, so
    /// the lower half adds nothing.
    ///
    /// Every source runs on one contraction hierarchy (see the module
    /// docs), in the fixed chunks of [`Self::apsp_diameter`]; each chunk
    /// narrows its 16 lanes into its own disjoint run of the triangle, the
    /// row tails `j ≥ i` of its sources. The core table and the hierarchy
    /// add at most `c²` lanes and `O(n + m)` words to the triangle's
    /// quadratic space, and each running task one lane matrix of `16n` —
    /// intended for quotient graphs, which the paper keeps small enough for
    /// one machine.
    ///
    /// # Panics
    /// Panics if a finite distance is `u32::MAX` or more (see
    /// [`upper_entry`]). Weighted quotients of clusterings never get there:
    /// their finite distances stay below `2n` of the clustered graph.
    pub fn apsp_upper(&self) -> Vec<u32> {
        let mut span = pardec_obs::span!("weighted.apsp", nodes = self.num_nodes());
        let h = Hierarchy::build(self);
        if self.u32_lanes() {
            Kernel::<u32>::new(&h, &mut span).upper()
        } else {
            Kernel::<u64>::new(&h, &mut span).upper()
        }
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

/// The contraction hierarchy behind [`WeightedGraph::apsp_upper`] and
/// [`WeightedGraph::apsp_diameter`] (see the module docs). Nodes are
/// renumbered by *place*: the eliminated nodes in elimination order, then
/// the core in ascending id, so a chunk's lane matrix is indexed by place
/// and both walks over the up-arcs go through it in order.
struct Hierarchy {
    /// `place[v]`: node `v`'s place.
    place: Vec<NodeId>,
    /// Up-arcs of the eliminated node at place `p`:
    /// `up_start[p]..up_start[p + 1]` into `up_to` (places, all above `p`)
    /// and `up_weight`. One entry per eliminated node, plus one.
    up_start: Vec<usize>,
    up_to: Vec<NodeId>,
    up_weight: Vec<u64>,
    /// The core with its shortcuts, on core-local ids (place minus the
    /// number of eliminated nodes).
    core: WeightedGraph,
    /// Elimination rounds that took at least one node.
    rounds: usize,
}

impl Hierarchy {
    /// Contracts `g` in rounds of independent sets until a round takes no
    /// node. Sequential and deterministic; `O(n + m)` words, since no
    /// elimination adds more edges than it removes.
    fn build(g: &WeightedGraph) -> Self {
        let n = g.num_nodes();
        // The remaining graph, one adjacency list per node, targets sorted.
        let mut adj: Vec<Vec<(NodeId, u64)>> =
            (0..n as NodeId).map(|u| g.neighbors(u).collect()).collect();
        let mut remaining: Vec<NodeId> = (0..n as NodeId).collect();
        let mut taken = vec![false; n];
        let mut merged = Vec::new();
        let mut order = Vec::new();
        let (mut up_start, mut up_to, mut up_weight) = (vec![0], Vec::new(), Vec::new());
        let mut rounds = 0;
        loop {
            // Ascending id; no two neighbours in one round, so a node's
            // edges do not change while its round eliminates others.
            let mut round = Vec::new();
            for &x in &remaining {
                let nx = &adj[x as usize];
                if !nx.iter().any(|&(a, _)| taken[a as usize]) && eliminable(&adj, nx) {
                    taken[x as usize] = true;
                    round.push(x);
                }
            }
            if round.is_empty() {
                break;
            }
            rounds += 1;
            for &x in &round {
                let nx = std::mem::take(&mut adj[x as usize]);
                for &(a, wa) in &nx {
                    // `a`'s list without `x`, merged with a shortcut to
                    // every other neighbour of `x`, keeping the lighter.
                    let mut list = adj[a as usize].iter().filter(|&&(t, _)| t != x).peekable();
                    merged.clear();
                    for &(b, wb) in nx.iter().filter(|&&(b, _)| b != a) {
                        let w = wa.saturating_add(wb);
                        while let Some(&arc) = list.next_if(|&&(t, _)| t < b) {
                            merged.push(arc);
                        }
                        let kept = list.next_if(|&&(t, _)| t == b);
                        merged.push((b, kept.map_or(w, |&(_, old)| old.min(w))));
                    }
                    merged.extend(list);
                    std::mem::swap(&mut adj[a as usize], &mut merged);
                }
                up_to.extend(nx.iter().map(|&(a, _)| a));
                up_weight.extend(nx.iter().map(|&(_, w)| w));
                up_start.push(up_to.len());
                order.push(x);
            }
            remaining.retain(|&x| !taken[x as usize]);
        }
        let eliminated = order.len();
        let mut place = vec![0; n];
        for (p, &v) in order.iter().chain(&remaining).enumerate() {
            place[v as usize] = p as NodeId;
        }
        for t in &mut up_to {
            *t = place[*t as usize];
        }
        // The core keeps ascending ids, so its adjacency lists stay sorted.
        let mut core = WeightedGraph {
            offsets: vec![0],
            targets: Vec::new(),
            weights: Vec::new(),
        };
        for &c in &remaining {
            for &(v, w) in &adj[c as usize] {
                core.targets.push(place[v as usize] - eliminated as NodeId);
                core.weights.push(w);
            }
            core.offsets.push(core.targets.len());
        }
        debug_assert!(
            core.check_invariants().is_ok(),
            "{:?}",
            core.check_invariants()
        );
        Hierarchy {
            place,
            up_start,
            up_to,
            up_weight,
            core,
            rounds,
        }
    }

    /// Number of eliminated nodes: places below it have up-arcs.
    fn eliminated(&self) -> usize {
        self.up_start.len() - 1
    }
}

/// Whether the node with neighbours `nx` may be eliminated: it has at most
/// [`MAX_ELIMINATION_DEGREE`] of them, and eliminating it adds no more new
/// edges (neighbour pairs not yet adjacent) than the `nx.len()` it removes.
/// Always at degree ≤ 3, which has at most 3 pairs; otherwise counted,
/// stopping at the first pair too many.
fn eliminable(adj: &[Vec<(NodeId, u64)>], nx: &[(NodeId, u64)]) -> bool {
    let degree = nx.len();
    if degree > MAX_ELIMINATION_DEGREE {
        return false;
    }
    let mut new_edges = 0;
    for (i, &(a, _)) in nx.iter().enumerate() {
        let na = &adj[a as usize];
        for &(b, _) in &nx[i + 1..] {
            if na.binary_search_by_key(&b, |&(t, _)| t).is_err() {
                new_edges += 1;
                if new_edges > degree {
                    return false;
                }
            }
        }
    }
    true
}

/// A distance lane of the all-sources kernels. Its largest value is the
/// unreachable sentinel, and [`Lane::plus`] saturates there. `u32` lanes
/// serve only graphs whose finite distances all lie below `u32::MAX` (see
/// [`WeightedGraph::u32_lanes`]), so a saturated sum is longer than every
/// finite distance and never wins a minimum. `u64` lanes ran 1.4–1.9×
/// slower on road and mesh quotients, hence a kernel generic over both.
trait Lane: Copy + Ord + Send + Sync {
    const ZERO: Self;
    const INFINITE: Self;
    /// `d`, or [`Lane::INFINITE`] when `d` does not fit below it.
    fn narrow(d: u64) -> Self;
    /// `self + w`, saturating at [`Lane::INFINITE`].
    fn plus(self, w: Self) -> Self;
    /// As an entry of the `u32` triangle ([`upper_entry`]); `None` for a
    /// finite distance that does not fit one.
    fn entry(self) -> Option<u32>;
    /// As a distance, with [`INFINITE_WEIGHT`] for the sentinel.
    fn widen(self) -> u64;
}

impl Lane for u32 {
    const ZERO: u32 = 0;
    const INFINITE: u32 = INFINITE_ENTRY;
    #[inline]
    fn narrow(d: u64) -> u32 {
        u32::try_from(d).unwrap_or(INFINITE_ENTRY)
    }
    #[inline]
    fn plus(self, w: u32) -> u32 {
        self.saturating_add(w)
    }
    #[inline]
    fn entry(self) -> Option<u32> {
        Some(self)
    }
    #[inline]
    fn widen(self) -> u64 {
        if self == INFINITE_ENTRY {
            INFINITE_WEIGHT
        } else {
            u64::from(self)
        }
    }
}

impl Lane for u64 {
    const ZERO: u64 = 0;
    const INFINITE: u64 = INFINITE_WEIGHT;
    #[inline]
    fn narrow(d: u64) -> u64 {
        d
    }
    #[inline]
    fn plus(self, w: u64) -> u64 {
        self.saturating_add(w)
    }
    #[inline]
    fn entry(self) -> Option<u32> {
        upper_entry(self)
    }
    #[inline]
    fn widen(self) -> u64 {
        self
    }
}

/// The all-sources kernel on one [`Hierarchy`], with lanes of type `L`
/// (see the module docs).
struct Kernel<'h, L> {
    h: &'h Hierarchy,
    /// The up-arc weights as lanes. A weight past a `u32` lane saturates:
    /// a path through it is longer than every finite distance.
    up_weight: Vec<L>,
    /// `row[k]`: core node `k`'s row of `table`, or [`NO_ROW`] when no
    /// up-arc reaches `k`. Then no walk has `k` as a seed, and only `k`
    /// itself, as a source, needs its distances: its chunk searches them.
    row: Vec<u32>,
    /// `table[row[k] · c + j]`: the distance between core nodes `k` and `j`.
    table: Vec<L>,
    /// An empty queue for the core, chosen from the core's largest weight:
    /// shortcuts are sums of weights, so it can exceed the graph's.
    queue: Queue,
}

/// [`Kernel::row`] of a core node that has no table row.
const NO_ROW: u32 = u32::MAX;

/// One task's state: the lane matrix of a chunk of sources and the upward
/// walks' scratch.
struct Lanes<L> {
    /// `rows[p][s]`: the distance from the chunk's `s`-th source to the
    /// node at place `p`.
    rows: Vec<[L; SOURCE_CHUNK]>,
    /// Places the current walk has reached but not expanded, least first.
    pending: BinaryHeap<Reverse<NodeId>>,
    /// Every place the current walk has reached, and a mark for each.
    reached: Vec<NodeId>,
    is_reached: Vec<bool>,
    /// The core nodes the current walk reached, with their distances.
    seeds: Vec<(usize, L)>,
    /// One source's core distances, and a core search's state for a core
    /// source without a table row.
    core: Vec<L>,
    dist: Vec<u64>,
    queue: Queue,
}

impl<'h, L: Lane> Kernel<'h, L> {
    /// Fills the core table, one single-seed search of the core per row in
    /// parallel tasks of [`SOURCE_CHUNK`] rows, and puts the hierarchy's
    /// shape, the lane width and the table's size on the `weighted.apsp`
    /// span. The table keeps a row for each core node an up-arc reaches, so
    /// a graph that contracts nothing has no table at all.
    fn new(h: &'h Hierarchy, span: &mut pardec_obs::SpanGuard) -> Self {
        let (eliminated, c) = (h.eliminated(), h.core.num_nodes());
        // The core nodes an up-arc reaches, ascending: the only seeds a walk
        // can have, and so the table's rows.
        let mut reached = vec![false; c];
        for &t in &h.up_to {
            if let Some(k) = (t as usize).checked_sub(eliminated) {
                reached[k] = true;
            }
        }
        let seeded: Vec<NodeId> = (0..c as NodeId).filter(|&k| reached[k as usize]).collect();
        let mut row = vec![NO_ROW; c];
        for (r, &k) in seeded.iter().enumerate() {
            row[k as usize] = r as u32;
        }
        let queue = h.core.new_queue();
        let mut table = vec![L::INFINITE; seeded.len() * c];
        // Without seeded nodes there are no rows to split.
        if !seeded.is_empty() {
            table
                .par_chunks_mut(c * SOURCE_CHUNK)
                .enumerate()
                .for_each(|(chunk, rows)| {
                    let (mut dist, mut queue) = (vec![INFINITE_WEIGHT; c], queue.clone());
                    for (k, row) in rows.chunks_mut(c).enumerate() {
                        h.core
                            .sssp_into(seeded[chunk * SOURCE_CHUNK + k], &mut dist, &mut queue);
                        for (t, &d) in row.iter_mut().zip(&dist) {
                            *t = L::narrow(d);
                        }
                    }
                });
        }
        span.field("core_nodes", c);
        span.field("core_edges", h.core.num_edges());
        span.field("up_arcs", h.up_to.len());
        span.field("rounds", h.rounds);
        span.field("lane_bits", 8 * std::mem::size_of::<L>());
        span.field("core_table_bytes", std::mem::size_of_val(table.as_slice()));
        Kernel {
            h,
            up_weight: h.up_weight.iter().map(|&w| L::narrow(w)).collect(),
            row,
            table,
            queue,
        }
    }

    /// A fresh state for one task.
    fn lanes(&self) -> Lanes<L> {
        let n = self.h.place.len();
        Lanes {
            rows: vec![[L::INFINITE; SOURCE_CHUNK]; n],
            pending: BinaryHeap::new(),
            reached: Vec::new(),
            is_reached: vec![false; n],
            seeds: Vec::new(),
            core: vec![L::INFINITE; self.h.core.num_nodes()],
            dist: vec![INFINITE_WEIGHT; self.h.core.num_nodes()],
            queue: self.queue.clone(),
        }
    }

    /// Exact distances from `sources`, at most [`SOURCE_CHUNK`] nodes, into
    /// `lanes.rows`: lane `s` for the `s`-th source, [`Lane::INFINITE`] in
    /// the lanes no source uses.
    fn sweep(&self, sources: Range<usize>, lanes: &mut Lanes<L>) {
        let h = self.h;
        let (eliminated, c) = (h.eliminated(), h.core.num_nodes());
        let rows = &mut lanes.rows;
        rows.fill([L::INFINITE; SOURCE_CHUNK]);
        for (s, src) in sources.enumerate() {
            // 1. Upward: every up-arc points to a later place, so a place is
            // final once the walk expands the reached places below it.
            let start = h.place[src];
            rows[start as usize][s] = L::ZERO;
            lanes.pending.push(Reverse(start));
            lanes.reached.push(start);
            lanes.is_reached[start as usize] = true;
            lanes.seeds.clear();
            while let Some(Reverse(p)) = lanes.pending.pop() {
                let (p, d) = (p as usize, rows[p as usize][s]);
                if p >= eliminated {
                    lanes.seeds.push((p - eliminated, d));
                    continue;
                }
                let arcs = h.up_start[p]..h.up_start[p + 1];
                for (&t, &w) in h.up_to[arcs.clone()].iter().zip(&self.up_weight[arcs]) {
                    let row = &mut rows[t as usize];
                    row[s] = row[s].min(d.plus(w));
                    if !lanes.is_reached[t as usize] {
                        lanes.is_reached[t as usize] = true;
                        lanes.reached.push(t);
                        lanes.pending.push(Reverse(t));
                    }
                }
            }
            for p in lanes.reached.drain(..) {
                lanes.is_reached[p as usize] = false;
            }
            // 2. The core: a core source without a table row searches it;
            // any other source takes, per core node, the least over its
            // seeds of the seed's distance plus the seed's table entry.
            let own = (start as usize).checked_sub(eliminated);
            if let Some(k) = own.filter(|&k| self.row[k] == NO_ROW) {
                h.core
                    .sssp_into(k as NodeId, &mut lanes.dist, &mut lanes.queue);
                for (row, &d) in rows[eliminated..].iter_mut().zip(&lanes.dist) {
                    row[s] = L::narrow(d);
                }
            } else if !lanes.seeds.is_empty() {
                lanes.core.fill(L::INFINITE);
                for &(k, d) in &lanes.seeds {
                    let r = self.row[k] as usize;
                    let table_row = &self.table[r * c..(r + 1) * c];
                    for (x, &t) in lanes.core.iter_mut().zip(table_row) {
                        *x = (*x).min(d.plus(t));
                    }
                }
                for (row, &x) in rows[eliminated..].iter_mut().zip(&lanes.core) {
                    row[s] = x;
                }
            }
        }
        // 3. Downward, every lane at once, in reverse elimination order:
        // every up-arc's target is final before its tail.
        for p in (0..eliminated).rev() {
            let mut best = rows[p];
            let arcs = h.up_start[p]..h.up_start[p + 1];
            for (&b, &w) in h.up_to[arcs.clone()].iter().zip(&self.up_weight[arcs]) {
                for (x, &d) in best.iter_mut().zip(&rows[b as usize]) {
                    *x = (*x).min(d.plus(w));
                }
            }
            rows[p] = best;
        }
    }

    /// The packed upper triangle of [`WeightedGraph::apsp_upper`]: chunk
    /// `first / SOURCE_CHUNK` narrows its lanes into rows `first..last`, a
    /// contiguous run of the packed layout.
    fn upper(&self) -> Vec<u32> {
        let n = self.h.place.len();
        let mut upper = vec![0; upper_row_start(n, n)];
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
            let mut lanes = self.lanes();
            self.sweep(sources.clone(), &mut lanes);
            for (s, i) in sources.enumerate() {
                let (row, tail) = std::mem::take(&mut run).split_at_mut(n - i);
                for (entry, &p) in row.iter_mut().zip(&self.h.place[i..]) {
                    let d = lanes.rows[p as usize][s];
                    *entry = d.entry().unwrap_or_else(|| {
                        panic!(
                            "finite distance {} does not fit a u32 APSP entry \
                             (bound: below u32::MAX = {})",
                            d.widen(),
                            u32::MAX
                        )
                    });
                }
                run = tail;
            }
        });
        upper
    }

    /// The largest finite entry over every chunk's lanes.
    fn diameter(&self) -> u64 {
        let n = self.h.place.len();
        (0..n.div_ceil(SOURCE_CHUNK))
            .into_par_iter()
            .map(|chunk| {
                let mut lanes = self.lanes();
                let first = chunk * SOURCE_CHUNK;
                self.sweep(first..(first + SOURCE_CHUNK).min(n), &mut lanes);
                lanes
                    .rows
                    .iter()
                    .flatten()
                    .copied()
                    .filter(|&d| d != L::INFINITE)
                    .max()
                    .map_or(0, L::widen)
            })
            .max()
            .unwrap_or(0)
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
    use crate::generators;

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

    /// Unit weights on an unweighted generator graph.
    fn unit(g: &CsrGraph) -> WeightedGraph {
        let edges: Vec<_> = g.edges().map(|(u, v)| (u, v, 1)).collect();
        WeightedGraph::from_edges(g.num_nodes(), &edges)
    }

    /// Arcs on the longest up-arc path of `h`.
    fn longest_chain(h: &Hierarchy) -> usize {
        let mut height = vec![0usize; h.place.len()];
        for p in (0..h.eliminated()).rev() {
            let arcs = &h.up_to[h.up_start[p]..h.up_start[p + 1]];
            height[p] = arcs
                .iter()
                .map(|&b| height[b as usize] + 1)
                .max()
                .unwrap_or(0);
        }
        height.into_iter().max().unwrap_or(0)
    }

    /// Every lane of the hierarchy's kernel equals `dijkstra`, by node, on
    /// `u64` lanes and, where the graph allows them, on `u32` lanes; each
    /// chunk reuses one task state.
    fn assert_rows_match_dijkstra(g: &WeightedGraph) {
        let h = Hierarchy::build(g);
        assert_lanes_match_dijkstra::<u64>(g, &h);
        if g.u32_lanes() {
            assert_lanes_match_dijkstra::<u32>(g, &h);
        }
    }

    fn assert_lanes_match_dijkstra<L: Lane>(g: &WeightedGraph, h: &Hierarchy) {
        let kernel = Kernel::<L>::new(h, &mut pardec_obs::span("test"));
        let mut lanes = kernel.lanes();
        let n = g.num_nodes();
        for first in (0..n).step_by(SOURCE_CHUNK) {
            let sources = first..(first + SOURCE_CHUNK).min(n);
            kernel.sweep(sources.clone(), &mut lanes);
            for s in sources.len()..SOURCE_CHUNK {
                assert!(lanes.rows.iter().all(|row| row[s] == L::INFINITE));
            }
            for (s, u) in sources.enumerate() {
                let by_node: Vec<u64> = h
                    .place
                    .iter()
                    .map(|&p| lanes.rows[p as usize][s].widen())
                    .collect();
                assert_eq!(by_node, g.dijkstra(u as NodeId), "source {u}");
            }
        }
    }

    #[test]
    fn trees_leave_no_core() {
        let star = unit(&generators::star(9));
        // A random spanning tree: each node hangs off an earlier one.
        let edges: Vec<_> = (1..300u32)
            .map(|v| (v, (v * 7919 + 13) % v, u64::from(v % 5)))
            .collect();
        let tree = WeightedGraph::from_edges(300, &edges);
        for g in [
            star,
            tree,
            unit(&generators::path(1)),
            unit(&CsrGraph::empty(4)),
        ] {
            let h = Hierarchy::build(&g);
            assert_eq!(h.core.num_nodes(), 0);
            assert_eq!(h.eliminated(), g.num_nodes());
            assert_rows_match_dijkstra(&g);
        }
    }

    #[test]
    fn cycles_and_paths_contract_in_logarithmic_chains() {
        for n in [2usize, 3, 5, 64, 100, 257, 1000, 2000] {
            for g in [
                unit(&generators::path(n)),
                unit(&generators::cycle(n.max(3))),
            ] {
                let h = Hierarchy::build(&g);
                let bound = 2.0 * (g.num_nodes() as f64).log2() + 2.0;
                let chain = longest_chain(&h);
                assert!(chain as f64 <= bound, "n = {n}: chain {chain} > {bound}");
                assert_eq!(h.core.num_nodes(), 0, "n = {n}");
                assert!(h.rounds as f64 <= bound, "n = {n}: {} rounds", h.rounds);
            }
        }
        assert_rows_match_dijkstra(&unit(&generators::cycle(100)));
        assert_rows_match_dijkstra(&unit(&generators::path(100)));
    }

    #[test]
    fn dense_graphs_keep_a_core_and_exact_rows() {
        // A mesh keeps its degree-4 interior; shortcuts are weight sums.
        let g = unit(&generators::mesh(12, 12));
        let h = Hierarchy::build(&g);
        assert!(h.core.num_nodes() > 0 && h.core.num_nodes() < g.num_nodes());
        assert_rows_match_dijkstra(&g);
        // A clique adds no edges: it contracts one node per round.
        let k = unit(&generators::complete(12));
        let h = Hierarchy::build(&k);
        assert_eq!((h.core.num_nodes(), h.rounds), (0, 12));
        assert_rows_match_dijkstra(&k);
        // Past the degree cap a clique stays whole: the core search is
        // the plain search of the graph.
        let k = unit(&generators::complete(MAX_ELIMINATION_DEGREE + 2));
        let h = Hierarchy::build(&k);
        // No up-arc reaches the core, so the table keeps no row: each
        // source searches its own.
        let kernel = Kernel::<u32>::new(&h, &mut pardec_obs::span("test"));
        assert!(kernel.table.is_empty() && kernel.row.iter().all(|&r| r == NO_ROW));
        assert_eq!((h.core, h.rounds), (k.clone(), 0));
        assert_rows_match_dijkstra(&k);
        assert_rows_match_dijkstra(&diamond());
    }

    #[test]
    fn core_search_takes_the_heap_when_shortcuts_reach_the_cap() {
        // Degree-5 nodes keep a core; the weights stay below the bucket
        // cap, but their sums on the shortcuts do not.
        let edges: Vec<_> = generators::mesh(6, 6)
            .edges()
            .map(|(u, v)| (u, v, 600 + u64::from(u + v) % 7))
            .chain((0..30u32).map(|u| (u, (u + 6 + u % 5) % 36, 520)))
            .collect();
        let g = WeightedGraph::from_edges(36, &edges);
        assert!(matches!(g.new_queue(), Queue::Buckets { .. }));
        let h = Hierarchy::build(&g);
        assert!(h.core.num_nodes() > 0);
        assert!(matches!(h.core.new_queue(), Queue::Heap(_)));
        assert_rows_match_dijkstra(&g);
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
