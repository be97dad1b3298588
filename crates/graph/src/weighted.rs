//! A compact weighted undirected graph plus Dijkstra / weighted APSP.
//!
//! Weighted graphs appear in one place in the paper (§4): the *weighted
//! quotient graph*, whose edge weights are shortest connecting-path lengths
//! between adjacent clusters. Its diameter `Δ′_C` yields the tightened upper
//! bound `Δ″ = 2·R_ALG2 + Δ′_C`, and its APSP (stored once, as a packed
//! upper triangle) is the distance oracle.
//!
//! # All sources on a contraction hierarchy
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
//! as a CSR. A source then costs three steps (the one-to-all sweep is
//! PHAST, Delling et al., IPDPS 2011):
//!
//! 1. an upward walk over the up-arcs, which point from each node to nodes
//!    eliminated after it or to the core, so one pass in elimination order
//!    settles them;
//! 2. the single-source search loop over the core, seeded with the upward
//!    distances;
//! 3. one downward sweep in reverse elimination order, `d(y) = min(d(y),
//!    d(b) + w)` over the up-arcs `(b, w)` of `y`.
//!
//! Every shortest path has an equally short path that climbs the hierarchy,
//! crosses the core and descends, so the distances are exact: the APSP
//! equals per-source Dijkstra entry for entry, at any pool size. In a road
//! quotient about 41% of the clusters have degree ≤ 2, and the core keeps
//! about a tenth of them.

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

/// Most buckets the single-source search loop allocates: graphs whose
/// largest weight is below this run on Dial's bucket queue, heavier ones on
/// a binary heap. Weighted quotients of unweighted clusterings carry
/// weights of at most `2R + 1`. The all-sources kernels search the core of
/// a contraction hierarchy, whose shortcuts are sums of weights, so their
/// queue follows the core's largest weight: 173–273 on `perfbench` road
/// quotients whose largest weight (`2R + 1`) is 53–57, and 193 on
/// `road_network(400, 400, 0.4, 12)`'s CLUSTER(5) quotient.
///
/// Set from `bench_quotient`'s `weighted-apsp-scaled` rows (weights scaled
/// up to 1000×, measured on the whole quotient before the hierarchy):
/// below the cap the buckets beat the heap on every measured quotient, and
/// a jump to the next non-empty bucket reads at most 16 occupancy words,
/// which bounds the loss on a weighted path (where the heap never holds
/// more than two entries).
const MAX_BUCKETS: u64 = 1024;

/// Sources per parallel task of the all-sources kernels; each task reuses
/// one search state.
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

    /// The search loop behind [`Self::dijkstra`] and the hierarchy's core
    /// search: exact distances from `seeds` into `dist`, reusing `queue`'s
    /// buffers. `seeds` are `(node, distance)` pairs in ascending distance,
    /// and `dist` holds each seed's distance (or less) and
    /// [`INFINITE_WEIGHT`] elsewhere. Every queue yields the same exact
    /// distances.
    fn sssp_into(&self, seeds: &[(NodeId, u64)], dist: &mut [u64], queue: &mut Queue) {
        match queue {
            Queue::Buckets { buckets, occupied } => {
                let len = buckets.len();
                let (mut next, mut queued, mut at, mut d) = (0, 0usize, 0usize, 0u64);
                loop {
                    if queued == 0 {
                        // Empty ring: restart at the next seed, or stop.
                        let Some(&(_, sd)) = seeds.get(next) else {
                            break;
                        };
                        d = sd;
                        at = (sd % len as u64) as usize;
                    }
                    // Admit the seeds the ring holds: distances in
                    // `[d, d + len)`. A seed a search reached first is
                    // stale.
                    while let Some(&(v, sd)) = seeds.get(next) {
                        if sd - d >= len as u64 {
                            break;
                        }
                        next += 1;
                        if dist[v as usize] == sd {
                            let b = (sd % len as u64) as usize;
                            buckets[b].push(v);
                            occupied[b / 64] |= 1 << (b % 64);
                            queued += 1;
                        }
                    }
                    if queued == 0 {
                        continue;
                    }
                    // Jump to the next non-empty bucket.
                    let next_at = next_occupied(occupied, at);
                    let gap = if next_at >= at {
                        next_at - at
                    } else {
                        next_at + len - at
                    };
                    d += gap as u64;
                    at = next_at;
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
                heap.extend(seeds.iter().map(|&(v, d)| Reverse((d, v))));
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
        dist[src as usize] = 0;
        self.sssp_into(&[(src, 0)], &mut dist, &mut self.new_queue());
        dist
    }

    /// Weighted eccentricity of `u` (max finite Dijkstra distance).
    pub fn eccentricity(&self, u: NodeId) -> u64 {
        max_finite(&self.dijkstra(u))
    }

    /// Weighted diameter: the largest finite distance between any two nodes
    /// (i.e. per-component diameters are maxed), from every source on one
    /// contraction hierarchy (see the module docs), in fixed chunks of
    /// sources run in parallel.
    pub fn apsp_diameter(&self) -> u64 {
        let n = self.num_nodes();
        let mut span = pardec_obs::span!("weighted.apsp", nodes = n);
        let h = Hierarchy::build(self);
        h.record(&mut span);
        (0..n.div_ceil(SOURCE_CHUNK))
            .into_par_iter()
            .map(|chunk| {
                let mut search = h.search();
                let first = chunk * SOURCE_CHUNK;
                (first..(first + SOURCE_CHUNK).min(n))
                    .map(|u| max_finite(search.run(&h, u as NodeId)))
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
    /// Every source runs on one contraction hierarchy (see the module
    /// docs), in the fixed chunks of [`Self::apsp_diameter`]; each chunk
    /// reuses one search state and narrows each row's tail `j ≥ i` into its
    /// own disjoint run of the triangle. The hierarchy adds `O(n + m)` words
    /// to the triangle's quadratic space — intended for quotient graphs,
    /// which the paper keeps small enough for one machine.
    ///
    /// # Panics
    /// Panics if a finite distance is `u32::MAX` or more (see
    /// [`upper_entry`]). Weighted quotients of clusterings never get there:
    /// their finite distances stay below `2n` of the clustered graph.
    pub fn apsp_upper(&self) -> Vec<u32> {
        let n = self.num_nodes();
        let mut span = pardec_obs::span!("weighted.apsp", nodes = n);
        let h = Hierarchy::build(self);
        h.record(&mut span);
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
            let mut search = h.search();
            for i in sources {
                let dist = search.run(&h, i as NodeId);
                let (row, tail) = std::mem::take(&mut run).split_at_mut(n - i);
                for (entry, &p) in row.iter_mut().zip(&h.place[i..]) {
                    let d = dist[p as usize];
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

/// The contraction hierarchy behind [`WeightedGraph::apsp_upper`] and
/// [`WeightedGraph::apsp_diameter`] (see the module docs). Nodes are
/// renumbered by *place*: the eliminated nodes in elimination order, then
/// the core in ascending id, so a source's distance row is indexed by place
/// and both sweeps walk it in order.
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
    /// An empty queue for the core, chosen from the core's largest weight:
    /// shortcuts are sums of weights, so it can exceed the graph's.
    queue: Queue,
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
            queue: core.new_queue(),
            core,
            rounds,
        }
    }

    /// Puts the hierarchy's shape on the `weighted.apsp` span.
    fn record(&self, span: &mut pardec_obs::SpanGuard) {
        span.field("core_nodes", self.core.num_nodes());
        span.field("core_edges", self.core.num_edges());
        span.field("up_arcs", self.up_to.len());
        span.field("rounds", self.rounds);
    }

    /// Number of eliminated nodes: places below it have up-arcs.
    fn eliminated(&self) -> usize {
        self.up_start.len() - 1
    }

    /// A fresh search state for one chunk of sources.
    fn search(&self) -> Search {
        Search {
            dist: vec![INFINITE_WEIGHT; self.place.len()],
            seeds: Vec::new(),
            queue: self.queue.clone(),
        }
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

/// One chunk's reusable state for single sources on a [`Hierarchy`]: a
/// distance per place, the core's seeds and the core's queue.
struct Search {
    dist: Vec<u64>,
    seeds: Vec<(NodeId, u64)>,
    queue: Queue,
}

impl Search {
    /// Exact distances from `src` to every node, indexed by place.
    fn run(&mut self, h: &Hierarchy, src: NodeId) -> &[u64] {
        let eliminated = h.eliminated();
        let dist = self.dist.as_mut_slice();
        dist.fill(INFINITE_WEIGHT);
        let start = h.place[src as usize] as usize;
        dist[start] = 0;
        // 1. Upward: every up-arc points to a later place, so one pass in
        // place order settles the walk.
        for p in start..eliminated {
            let d = dist[p];
            if d == INFINITE_WEIGHT {
                continue;
            }
            for k in h.up_start[p]..h.up_start[p + 1] {
                let t = h.up_to[k] as usize;
                dist[t] = dist[t].min(d + h.up_weight[k]);
            }
        }
        // 2. The core, seeded with the upward distances in ascending order.
        let core = &mut dist[eliminated..];
        self.seeds.clear();
        self.seeds.extend(
            (0..core.len() as NodeId)
                .zip(core.iter().copied())
                .filter(|&(_, d)| d != INFINITE_WEIGHT),
        );
        self.seeds.sort_unstable_by_key(|&(c, d)| (d, c));
        h.core.sssp_into(&self.seeds, core, &mut self.queue);
        // 3. Downward, in reverse elimination order: every up-arc's target
        // is final before its tail.
        for p in (0..eliminated).rev() {
            let arcs = h.up_start[p]..h.up_start[p + 1];
            dist[p] = h.up_to[arcs.clone()]
                .iter()
                .zip(&h.up_weight[arcs])
                .fold(dist[p], |best, (&b, &w)| {
                    best.min(dist[b as usize].saturating_add(w))
                });
        }
        dist
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

    /// Every row of the hierarchy's kernel equals `dijkstra`, by node.
    fn assert_rows_match_dijkstra(g: &WeightedGraph) {
        let h = Hierarchy::build(g);
        let mut search = h.search();
        for u in 0..g.num_nodes() as NodeId {
            let by_place = search.run(&h, u);
            let by_node: Vec<u64> = h.place.iter().map(|&p| by_place[p as usize]).collect();
            assert_eq!(by_node, g.dijkstra(u), "source {u}");
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
        assert!(matches!(h.queue, Queue::Heap(_)));
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
