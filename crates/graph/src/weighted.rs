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
//! equals per-source Dijkstra entry for entry, at any pool size.
//!
//! # Sixteen-bit lanes and entries
//!
//! Before the kernel runs, one bound `B` on every finite distance picks the
//! lanes: the smaller of `(n − 1) · max_weight` and twice the largest
//! distance from the lowest-id node of any component (one search per
//! component that has an edge, on one distance array). Lanes are `u16` when
//! `B < u16::MAX`, `u32` when `B < u32::MAX`, else `u64`; additions saturate
//! at the lane's largest value, the unreachable sentinel, which only a sum
//! longer than every finite distance reaches, and the sums along a shortest
//! path never exceed its length. Built for baseline x86-64, the downward
//! sweep's saturating add and min take four SSE2 instructions per eight
//! `u16` lanes (`paddusw`, then `psubusw` and `psubw` for the min), where
//! `u32` lanes took about fourteen per four; the core table halves too.
//! Road quotients (largest distance 856 at 2,533 clusters) run on `u16`
//! lanes.
//!
//! The triangle of [`WeightedGraph::apsp_upper`] is a [`Triangle`], whose
//! entry width is a pure function of the distances: 2 bytes when its
//! largest finite entry `Δ` is below `u16::MAX`, else 4. `u16` lanes write
//! their values as they are; wider lanes write 4-byte entries, which
//! [`Triangle::narrow`] narrows when `Δ` allows (a `2 × 40,000` mesh
//! quotient has `B ≥ 65,535 > Δ`). Each chunk also takes, from the lane
//! matrix it holds, its sources' eccentricities plus the far node's radius
//! and its largest finite lane, so the oracle reads `ecc` and `Δ` off the
//! kernel instead of scanning the triangle.

use crate::combine::{self, pack, PairRecord};
use crate::diameter::SingleSource;
use crate::io::Words;
use crate::{CsrGraph, NodeId};
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Sentinel for "unreachable" in weighted distance arrays.
pub const INFINITE_WEIGHT: u64 = u64::MAX;

/// Sentinel for "unreachable" in a 4-byte [`Triangle`] and in the `u32`
/// entries of [`upper_entry`].
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
/// per place (77 KB of `u16` lanes on a 2,420-node road quotient), and
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
        self.settle(src, dist, queue);
    }

    /// Exact distances from `src` into `dist`, which must be
    /// [`INFINITE_WEIGHT`] on `src`'s component; other entries stay as
    /// they are. The queue ends empty.
    fn settle(&self, src: NodeId, dist: &mut [u64], queue: &mut Queue) {
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

    /// An upper bound `B` on every finite distance, which picks the
    /// all-sources kernels' lanes: the smaller of `(n − 1) · max_weight` (a
    /// shortest path has at most `n − 1` edges) and twice the largest
    /// distance from the lowest-id node of any component (two legs through
    /// that node join any two nodes of its component). The second takes one
    /// search per component that has an edge, all on one distance array, so
    /// nothing is reset per component; it is skipped when the first already
    /// picks `u16` lanes.
    fn distance_bound(&self) -> u64 {
        let n = self.num_nodes();
        let max_w = self.weights.iter().copied().max().unwrap_or(0);
        let hops =
            u64::try_from(n.saturating_sub(1) as u128 * u128::from(max_w)).unwrap_or(u64::MAX);
        if hops < u64::from(u16::MAX) {
            return hops;
        }
        let (mut dist, mut queue) = (vec![INFINITE_WEIGHT; n], self.new_queue());
        for u in 0..n {
            // The first node of a component that no search reached yet.
            if dist[u] == INFINITE_WEIGHT && self.offsets[u] < self.offsets[u + 1] {
                self.settle(u as NodeId, &mut dist, &mut queue);
            }
        }
        hops.min(max_finite(&dist).saturating_mul(2))
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
        match self.distance_bound() {
            b if b < u64::from(u16::MAX) => Kernel::<u16>::new(&h, &mut span).diameter(),
            b if b < u64::from(u32::MAX) => Kernel::<u32>::new(&h, &mut span).diameter(),
            _ => Kernel::<u64>::new(&h, &mut span).diameter(),
        }
    }

    /// The APSP matrix stored once, with what the §4 oracle derives from
    /// it. The [`Triangle`] holds its packed upper half, `d(i, j)` for
    /// every `i ≤ j`, row-major in `n(n + 1)/2` entries (entry `(i, j)`
    /// sits at [`upper_row_start`]`(n, i) + j − i`), of 2 or 4 bytes by
    /// the width rule; distances are symmetric, so the lower half adds
    /// nothing. `radii[v]` is node `v`'s radius (a quotient node's cluster
    /// radius), and [`Apsp::ecc`] adds the far node's radius to each
    /// eccentricity.
    ///
    /// Every source runs on one contraction hierarchy (see the module
    /// docs), in the fixed chunks of [`Self::apsp_diameter`]; each chunk
    /// writes its 16 lanes into its own disjoint run of the triangle, the
    /// row tails `j ≥ i` of its sources, and its sources' eccentricities
    /// and largest finite lane from the whole lane matrix. The core table
    /// and the hierarchy add at most `c²` lanes and `O(n + m)` words to the
    /// triangle's quadratic space, and each running task one lane matrix of
    /// `16n` — intended for quotient graphs, which the paper keeps small
    /// enough for one machine.
    ///
    /// # Panics
    /// Panics if `radii` does not have one entry per node, or if a finite
    /// distance is `u32::MAX` or more (see [`upper_entry`]). Weighted
    /// quotients of clusterings never get there: their finite distances
    /// stay below `2n` of the clustered graph.
    pub fn apsp_upper(&self, radii: &[u32]) -> Apsp {
        assert_eq!(radii.len(), self.num_nodes(), "one radius per node");
        let mut span = pardec_obs::span!("weighted.apsp", nodes = self.num_nodes());
        let h = Hierarchy::build(self);
        let apsp = match self.distance_bound() {
            b if b < u64::from(u16::MAX) => Kernel::<u16>::new(&h, &mut span).upper(radii),
            b if b < u64::from(u32::MAX) => Kernel::<u32>::new(&h, &mut span).upper(radii),
            _ => Kernel::<u64>::new(&h, &mut span).upper(radii),
        };
        span.field("entry_bits", 8 * apsp.triangle.entry_bytes());
        apsp
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

impl SingleSource for WeightedGraph {
    type Dist = u64;

    const UNREACHABLE: u64 = INFINITE_WEIGHT;

    fn adjacency(&self) -> (&[usize], &[NodeId]) {
        (&self.offsets, &self.targets)
    }

    fn search(&self, src: NodeId, dist: &mut [u64]) {
        self.sssp_into(src, dist, &mut self.new_queue());
    }

    fn induced(&self, nodes: &[NodeId], local: &[NodeId]) -> Self {
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        offsets.push(0);
        let (mut targets, mut weights) = (Vec::new(), Vec::new());
        for &v in nodes {
            for (w, weight) in self.neighbors(v) {
                targets.push(local[w as usize]);
                weights.push(weight);
            }
            offsets.push(targets.len());
        }
        WeightedGraph {
            offsets,
            targets,
            weights,
        }
    }

    fn lightest_edge(&self, u: NodeId) -> u64 {
        self.neighbors(u)
            .map(|(_, w)| w)
            .min()
            .expect("a node of a two-node component has an edge")
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
/// unreachable sentinel, and [`Lane::plus`] saturates there. A lane type
/// serves only graphs whose finite distances all lie below its sentinel
/// (see [`WeightedGraph::distance_bound`]), so a saturated sum is longer
/// than every finite distance and never wins a minimum. `u64` lanes ran
/// 1.4–1.9× slower than `u32` lanes on road and mesh quotients, hence a
/// kernel generic over all three widths.
trait Lane: Copy + Ord + Send + Sync + Into<u64> {
    const ZERO: Self;
    const INFINITE: Self;
    /// The triangle entries these lanes write: `u16` lanes their own
    /// values, wider lanes 4-byte entries.
    type Entry: Entry;
    /// `d`, or [`Lane::INFINITE`] when `d` does not fit below it.
    fn narrow(d: u64) -> Self;
    /// `self + w`, saturating at [`Lane::INFINITE`].
    fn plus(self, w: Self) -> Self;
    /// `self + 1`, wrapping the sentinel to 0.
    fn wrapping_inc(self) -> Self;
    /// As a triangle entry; `None` for a finite distance that does not fit
    /// one.
    fn entry(self) -> Option<Self::Entry>;
    /// The triangle of `entries`, whose largest finite entry is `diameter`,
    /// in the width the rule gives it.
    fn triangle(entries: Vec<Self::Entry>, diameter: u64) -> Triangle;
    /// As a distance, with [`INFINITE_WEIGHT`] for the sentinel.
    fn widen(self) -> u64 {
        if self == Self::INFINITE {
            INFINITE_WEIGHT
        } else {
            self.into()
        }
    }
}

impl Lane for u16 {
    const ZERO: u16 = 0;
    const INFINITE: u16 = u16::MAX;
    type Entry = u16;
    #[inline]
    fn narrow(d: u64) -> u16 {
        u16::try_from(d).unwrap_or(u16::MAX)
    }
    #[inline]
    fn plus(self, w: u16) -> u16 {
        self.saturating_add(w)
    }
    #[inline]
    fn wrapping_inc(self) -> u16 {
        self.wrapping_add(1)
    }
    #[inline]
    fn entry(self) -> Option<u16> {
        Some(self)
    }
    fn triangle(entries: Vec<u16>, _: u64) -> Triangle {
        // Every finite lane lies below `u16::MAX`, so `diameter` does too.
        Triangle(Entries::Two(entries))
    }
}

impl Lane for u32 {
    const ZERO: u32 = 0;
    const INFINITE: u32 = INFINITE_ENTRY;
    type Entry = u32;
    #[inline]
    fn narrow(d: u64) -> u32 {
        u32::try_from(d).unwrap_or(INFINITE_ENTRY)
    }
    #[inline]
    fn plus(self, w: u32) -> u32 {
        self.saturating_add(w)
    }
    #[inline]
    fn wrapping_inc(self) -> u32 {
        self.wrapping_add(1)
    }
    #[inline]
    fn entry(self) -> Option<u32> {
        Some(self)
    }
    fn triangle(entries: Vec<u32>, diameter: u64) -> Triangle {
        Triangle::wide(entries).narrow(diameter)
    }
}

impl Lane for u64 {
    const ZERO: u64 = 0;
    const INFINITE: u64 = INFINITE_WEIGHT;
    type Entry = u32;
    #[inline]
    fn narrow(d: u64) -> u64 {
        d
    }
    #[inline]
    fn plus(self, w: u64) -> u64 {
        self.saturating_add(w)
    }
    #[inline]
    fn wrapping_inc(self) -> u64 {
        self.wrapping_add(1)
    }
    #[inline]
    fn entry(self) -> Option<u32> {
        upper_entry(self)
    }
    fn triangle(entries: Vec<u32>, diameter: u64) -> Triangle {
        Triangle::wide(entries).narrow(diameter)
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

    /// The [`Apsp`] of [`WeightedGraph::apsp_upper`]: chunk `first /
    /// SOURCE_CHUNK` writes its lanes into rows `first..last`, a contiguous
    /// run of the packed layout, and `ecc[first..last]`, and yields its
    /// largest finite lane.
    fn upper(&self, radii: &[u32]) -> Apsp {
        let n = self.h.place.len();
        let mut radius_at = vec![0; n];
        for (&p, &r) in self.h.place.iter().zip(radii) {
            radius_at[p as usize] = r;
        }
        let max_radius = radii.iter().copied().max().map_or(0, u64::from);
        let mut upper = vec![<L::Entry as Entry>::INFINITE; upper_row_start(n, n)];
        let mut ecc = vec![0; n];
        let mut runs = Vec::with_capacity(n.div_ceil(SOURCE_CHUNK));
        let mut rest = upper.as_mut_slice();
        for (first, ecc) in (0..n)
            .step_by(SOURCE_CHUNK)
            .zip(ecc.chunks_mut(SOURCE_CHUNK))
        {
            let last = first + ecc.len();
            let len = upper_row_start(n, last) - upper_row_start(n, first);
            let (run, tail) = std::mem::take(&mut rest).split_at_mut(len);
            runs.push((first..last, run, ecc));
            rest = tail;
        }
        let diameter = runs
            .into_par_iter()
            .map(|(sources, mut run, ecc)| {
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
                let (far, best) = farthest(&lanes.rows, &radius_at, max_radius);
                ecc.copy_from_slice(&best[..ecc.len()]);
                far.into_iter().max().unwrap_or(0)
            })
            .max()
            .unwrap_or(0);
        Apsp {
            triangle: L::triangle(upper, diameter),
            ecc,
            diameter,
        }
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

/// Per lane of a chunk's lane matrix `rows`, the largest finite distance
/// and the largest finite distance plus the radius of its node (by place,
/// `radius_at`, at most `max_radius`), 0 where the lane has none. Both are
/// taken in the lane type, an add and a maximum per lane and place with no
/// select, so that they vectorize (a `u64` maximum per lane and place cost
/// about a quarter of `apsp_upper` on a road quotient): `d + 1` and
/// `d + r + 1` wrap the sentinel to 0. A finite sum that reaches the
/// sentinel would wrap too, so when one can, the sums are taken again in
/// `u64`.
fn farthest<L: Lane>(
    rows: &[[L; SOURCE_CHUNK]],
    radius_at: &[u32],
    max_radius: u64,
) -> ([u64; SOURCE_CHUNK], [u64; SOURCE_CHUNK]) {
    let (mut far, mut best) = ([L::ZERO; SOURCE_CHUNK], [L::ZERO; SOURCE_CHUNK]);
    for (row, &r) in rows.iter().zip(radius_at) {
        let r = L::narrow(r.into());
        for ((f, b), &d) in far.iter_mut().zip(&mut best).zip(row) {
            *f = (*f).max(d.wrapping_inc());
            *b = (*b).max(d.plus(r).wrapping_inc());
        }
    }
    let [far, best] = [far, best].map(|lanes| lanes.map(|x| x.into().saturating_sub(1)));
    let infinite: u64 = L::INFINITE.into();
    if far.iter().all(|&d| d.saturating_add(max_radius) < infinite) {
        return (far, best);
    }
    let mut best = [0u64; SOURCE_CHUNK];
    for (row, &r) in rows.iter().zip(radius_at) {
        for (&d, best) in row.iter().zip(&mut best) {
            if d != L::INFINITE {
                *best = (*best).max(d.into().saturating_add(r.into()));
            }
        }
    }
    (far, best)
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

/// What [`WeightedGraph::apsp_upper`] computes: the APSP triangle and what
/// the §4 oracle derives from it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Apsp {
    /// The packed upper triangle of the distances.
    pub triangle: Triangle,
    /// `ecc[i]`: the largest `d(i, j) + radii[j]` over the nodes `j`
    /// reachable from `i`, `i` itself included.
    pub ecc: Vec<u64>,
    /// The largest finite distance (0 when there is none): the weighted
    /// diameter, per-component diameters maxed.
    pub diameter: u64,
}

/// A packed upper APSP triangle (the layout of
/// [`WeightedGraph::apsp_upper`]) in one of two entry widths: 2 bytes, with
/// `u16::MAX` for unreachable, or 4 bytes, with [`INFINITE_ENTRY`]. The
/// width rule makes the width a pure function of the distances: 2 bytes
/// exactly when the largest finite entry is below `u16::MAX`. This type
/// alone reads, writes and decodes entries, so no caller matches on widths.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Triangle(Entries);

#[derive(Clone, Debug, PartialEq, Eq)]
enum Entries {
    Two(Vec<u16>),
    Four(Vec<u32>),
}

/// An entry type of a [`Triangle`]; its largest value is the unreachable
/// sentinel.
trait Entry: Copy + Eq + Send + Sync + Into<u64> {
    const INFINITE: Self;
}

impl Entry for u16 {
    const INFINITE: u16 = u16::MAX;
}

impl Entry for u32 {
    const INFINITE: u32 = INFINITE_ENTRY;
}

impl Triangle {
    /// A triangle of 4-byte entries as they are, [`INFINITE_ENTRY`] for
    /// unreachable.
    pub fn wide(entries: Vec<u32>) -> Triangle {
        Triangle(Entries::Four(entries))
    }

    /// The width rule: this triangle in 2-byte entries when `diameter`, its
    /// largest finite entry, is below `u16::MAX`, else as it is. The kernel
    /// narrows its 4-byte triangles with it, and the snapshot loader the
    /// older layouts' triangles, so both hold the same width for the same
    /// distances.
    pub fn narrow(self, diameter: u64) -> Triangle {
        match self.0 {
            Entries::Four(wide) if diameter < u64::from(u16::MAX) => Triangle(Entries::Two(
                // The sentinel, and only it, lies above `diameter`.
                wide.iter()
                    .map(|&d| d.min(u32::from(u16::MAX)) as u16)
                    .collect(),
            )),
            entries => Triangle(entries),
        }
    }

    /// Decodes `len` little-endian entries of `entry_bytes` (2 or 4) bytes
    /// each, which must be all of `payload`.
    pub fn decode(entry_bytes: u64, len: usize, payload: &[u8]) -> Result<Triangle, String> {
        if entry_bytes != 2 && entry_bytes != 4 {
            return Err(format!("entries of {entry_bytes} bytes (expected 2 or 4)"));
        }
        if len.checked_mul(entry_bytes as usize) != Some(payload.len()) {
            return Err("length mismatch".into());
        }
        Ok(Triangle(if entry_bytes == 2 {
            let le = |b: &[u8]| u16::from_le_bytes([b[0], b[1]]);
            Entries::Two(payload.chunks_exact(2).map(le).collect())
        } else {
            let le = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            Entries::Four(payload.chunks_exact(4).map(le).collect())
        }))
    }

    /// Bytes per entry: 2 or 4.
    pub fn entry_bytes(&self) -> usize {
        match self.0 {
            Entries::Two(_) => 2,
            Entries::Four(_) => 4,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match &self.0 {
            Entries::Two(e) => e.len(),
            Entries::Four(e) => e.len(),
        }
    }

    /// Whether the triangle has no entries (a graph without nodes).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entry `k` as a distance, [`INFINITE_WEIGHT`] when unreachable.
    #[inline]
    pub fn get(&self, k: usize) -> u64 {
        fn widen<E: Entry>(e: E) -> u64 {
            if e == E::INFINITE {
                INFINITE_WEIGHT
            } else {
                e.into()
            }
        }
        match &self.0 {
            Entries::Two(e) => widen(e[k]),
            Entries::Four(e) => widen(e[k]),
        }
    }

    /// Every entry as a distance, in packed order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len()).map(|k| self.get(k))
    }

    /// The entries as the words a snapshot writes.
    pub fn words(&self) -> Words<'_> {
        match &self.0 {
            Entries::Two(e) => Words::U16(e),
            Entries::Four(e) => Words::U32(e),
        }
    }

    /// Whether `diameter` can be this triangle's largest finite entry by
    /// the width rule: below the sentinel, and below `u16::MAX` exactly
    /// when the entries take 2 bytes.
    pub fn follows_width_rule(&self, diameter: u64) -> bool {
        match self.0 {
            Entries::Two(_) => diameter < u64::from(u16::MAX),
            Entries::Four(_) => {
                (u64::from(u16::MAX)..u64::from(INFINITE_ENTRY)).contains(&diameter)
            }
        }
    }

    /// [`Apsp::ecc`] and [`Apsp::diameter`] by one pass over the triangle
    /// of order `radii.len()`: entry `(i, j)` offers `d + radii[j]` to
    /// `ecc[i]`, `d + radii[i]` to `ecc[j]`, and `d` to the diameter. Sums
    /// of two 4-byte values cannot overflow the `u64` they are taken in.
    ///
    /// # Panics
    /// Panics unless the triangle has `q(q + 1)/2` entries for `q =
    /// radii.len()`.
    pub fn eccentricities(&self, radii: &[u32]) -> (Vec<u64>, u64) {
        fn scan<E: Entry>(entries: &[E], radii: &[u32]) -> (Vec<u64>, u64) {
            let q = radii.len();
            assert_eq!(
                entries.len(),
                upper_row_start(q, q),
                "a triangle of order q"
            );
            let mut ecc = vec![0u64; q];
            let mut diameter = 0;
            let mut rows = entries;
            for i in 0..q {
                let (row, rest) = rows.split_at(q - i);
                rows = rest;
                let r_i = u64::from(radii[i]);
                let mut best = 0;
                for ((&d, &r_j), e_j) in row.iter().zip(&radii[i..]).zip(&mut ecc[i..]) {
                    if d != E::INFINITE {
                        let d: u64 = d.into();
                        diameter = diameter.max(d);
                        best = best.max(d + u64::from(r_j));
                        *e_j = (*e_j).max(d + r_i);
                    }
                }
                ecc[i] = ecc[i].max(best);
            }
            (ecc, diameter)
        }
        match &self.0 {
            Entries::Two(e) => scan(e, radii),
            Entries::Four(e) => scan(e, radii),
        }
    }
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

    /// `g`'s APSP with every radius 0, its triangle as distances.
    fn apsp(g: &WeightedGraph) -> (Apsp, Vec<u64>) {
        let apsp = g.apsp_upper(&vec![0; g.num_nodes()]);
        let distances = apsp.triangle.iter().collect();
        (apsp, distances)
    }

    #[test]
    fn apsp_diameter_weighted_path() {
        let g = WeightedGraph::from_edges(4, &[(0, 1, 2), (1, 2, 3), (2, 3, 4)]);
        assert_eq!(g.apsp_diameter(), 9);
        // Rows 0..4 of the triangle hold 4, 3, 2 and 1 entries.
        let (upper, distances) = apsp(&g);
        assert_eq!(
            distances,
            vec![0, 2, 5, 9, 0, 3, 7, 0, 4, 0],
            "d(i, j) for i <= j, row-major"
        );
        assert_eq!((upper.ecc, upper.diameter), (vec![9, 7, 5, 9], 9));
        let with_radii = g.apsp_upper(&[1, 10, 100, 1000]);
        assert_eq!(with_radii.ecc, vec![1009, 1007, 1004, 1000]);
        assert_eq!(with_radii.triangle, upper.triangle);
        assert_eq!(upper_row_start(4, 1), 4);
        assert_eq!(upper_row_start(4, 3), 9);
        assert_eq!(upper_row_start(4, 4), 10);
        assert!(apsp(&WeightedGraph::from_edges(0, &[])).1.is_empty());
        // An isolated node is unreachable from, and to, everything else.
        let g = WeightedGraph::from_edges(3, &[(0, 1, 2)]);
        let inf = INFINITE_WEIGHT;
        let (upper, distances) = apsp(&g);
        assert_eq!(distances, vec![0, 2, inf, 0, inf, 0]);
        assert_eq!((upper.ecc, upper.diameter), (vec![2, 2, 0], 2));
        assert_eq!(g.apsp_diameter(), 2);
    }

    #[test]
    fn apsp_entries_up_to_u32_max_minus_one_round_trip() {
        let top = u64::from(u32::MAX) - 1;
        let g = WeightedGraph::from_edges(3, &[(0, 1, top - 5), (1, 2, 5)]);
        let (upper, distances) = apsp(&g);
        assert_eq!(distances, vec![0, top - 5, top, 0, 5, 0]);
        assert_eq!((upper.triangle.entry_bytes(), upper.diameter), (4, top));
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
        g.apsp_upper(&[0; 3]);
    }

    #[test]
    fn entry_width_follows_the_largest_distance() {
        // Uniform paths: (n − 1) · w is the diameter, and the bound. At
        // 65,534 the lanes and entries are 16 bits; from 65,535 on, both
        // are 32. A path of mixed weights with a diameter of 65,534 has a
        // larger bound, so its `u32` lanes narrow into 2-byte entries.
        for (n, w, bytes) in [(15u32, 4681u64, 2), (16, 4369, 4), (17, 4096, 4)] {
            let edges: Vec<_> = (1..n).map(|v| (v - 1, v, w)).collect();
            let g = WeightedGraph::from_edges(n as usize, &edges);
            assert_eq!(g.distance_bound(), u64::from(n - 1) * w);
            let (upper, distances) = apsp(&g);
            assert_eq!(upper.diameter, u64::from(n - 1) * w);
            assert_eq!(
                upper.triangle.entry_bytes(),
                bytes,
                "diameter {}",
                upper.diameter
            );
            assert!(upper.triangle.follows_width_rule(upper.diameter));
            assert_eq!(distances[n as usize - 1], upper.diameter);
        }
        let g = WeightedGraph::from_edges(3, &[(0, 1, 65_000), (1, 2, 534)]);
        assert!(g.distance_bound() >= u64::from(u16::MAX));
        let (upper, distances) = apsp(&g);
        assert_eq!((upper.diameter, upper.triangle.entry_bytes()), (65_534, 2));
        assert_eq!(distances, vec![0, 65_000, 65_534, 0, 534, 0]);
        let wide = Triangle::wide(vec![0, 65_000, 65_534, 0, 534, 0]);
        assert_eq!(wide.clone().narrow(65_534), upper.triangle);
        assert_eq!(wide.clone().narrow(65_535), wide);
        // The lowest-id node of each component bounds it: a star of heavy
        // spokes beside an isolated node has a bound of twice its spoke.
        let g = WeightedGraph::from_edges(40, &[(1, 2, 30_000), (1, 3, 20_000)]);
        assert_eq!(g.distance_bound(), 60_000);
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
    /// `u64` lanes and, where the bound allows them, on `u32` and `u16`
    /// lanes; each chunk reuses one task state.
    fn assert_rows_match_dijkstra(g: &WeightedGraph) {
        let h = Hierarchy::build(g);
        let bound = g.distance_bound();
        assert_lanes_match_dijkstra::<u64>(g, &h);
        if bound < u64::from(u32::MAX) {
            assert_lanes_match_dijkstra::<u32>(g, &h);
        }
        if bound < u64::from(u16::MAX) {
            assert_lanes_match_dijkstra::<u16>(g, &h);
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
