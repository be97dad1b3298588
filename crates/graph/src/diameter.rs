//! Exact diameter computation — `Δ_C`, `pardec dist exact`, and the
//! ground-truth `Δ` column of Tables 1, 3 and 4.
//!
//! * [`exact`] — the routine every exact diameter runs, generic over a
//!   single-source kernel ([`SingleSource`]: BFS on a [`CsrGraph`],
//!   Dijkstra on a [`crate::WeightedGraph`]), with [`exact_diameter`] and
//!   [`ifub`] its unweighted entry points;
//! * [`apsp_diameter`] — BFS from every node (parallelized), `O(n(n + m))`,
//!   the test oracle;
//! * [`double_sweep`] — the classic 2-sweep lower bound.
//!
//! # Exact diameters from a few searches
//!
//! [`exact`] takes each connected component apart. On one component every
//! search from a source `s` tightens two bounds: the *lower bound*, the
//! largest eccentricity found, and per node `v` the *upper bound*
//! `min_s ecc(s) + d(s, v)` on `ecc(v)` (Takes and Kosters, 2011). A node
//! whose upper bound is at most the lower bound cannot raise it, and is
//! *closed*. The routine runs in three steps:
//!
//! 1. *Sum sweeps* (Borassi et al., 2015) find a central root: the first
//!    search starts at the node of largest degree, and each of the next two
//!    at the open node farthest, in sum, from the sources so far. Then root
//!    candidates are searched, each the open node of least eccentricity
//!    lower bound (the largest `d(s, v)` or `ecc(s) − d(s, v)` over the
//!    sources), then of least distance sum: at most four, while each one
//!    lowers the least eccentricity found, whose node is the root. The
//!    searches of this step are the *pivots*: every node keeps its distance
//!    from each.
//! 2. Nodes are visited in iFUB's order (Crescenzi et al., 2013), by
//!    decreasing distance `r` from the root, each distance's open nodes by
//!    decreasing upper bound, then increasing id. The loop stops once the
//!    lower bound reaches `2r`: every pair left lies within `2r` of each
//!    other through the root.
//! 3. A visited node `x` is searched only if it is open and has a
//!    *partner*: an open node `y`, no farther from the root and not itself
//!    passed over, with `d(p, x) + d(p, y)` above the lower bound for every
//!    pivot `p`. Only such a pair can be farther apart than the lower
//!    bound. For each pair of sweeps, a Pareto staircase of the nodes' two
//!    distances rules most nodes out in a few binary searches; the rest
//!    scan their candidate partners.
//!
//! It also stops once every node is closed. Searches run one at a time,
//! and every source follows from the bounds and node ids alone, so the
//! diameter and the search count are the same at every pool size. Per node
//! the routine keeps the pivots' distances, in `u32` for hop counts, and
//! one upper bound.
//!
//! On the paper tables' six datasets at the default scale the routine runs
//! 10, 5, 5, 4, 10 and 5 searches, and on the benchmark's quotients 5–16
//! (`serve`), 5–41 (`road`) and 2–26 (`social`); on cycles, tori and
//! meshes the pivots rule out every pair after the fifth search, where
//! iFUB alone runs about half the nodes. Graphs whose far ends hold many
//! nodes at the diameter cost more: 137 searches on the tables'
//! `synth-social-large` at CI scale, hundreds to about 1,900 on windowed
//! power-law graphs with wide windows, and 1,600–2,100 on plain
//! preferential attachment with 20,000 nodes, where iFUB alone runs
//! 2,100–4,400 BFS. On larger windowed power-law graphs the root can be
//! worse than iFUB's double-sweep midpoint: 68–421 searches on
//! `windowed_preferential_attachment(200_000, 3, 0.016, 1..=3)` against
//! its 6–134, and 1,704 against 490 with 1,000,000 nodes.

use crate::frontier::{single_source_bfs, FrontierStrategy};
use crate::traversal::{bfs, bfs_with_parents};
use crate::{components, CsrGraph, NodeId};
use rayon::prelude::*;
use std::cmp::Reverse;

/// Exact diameter by all-pairs BFS, parallelized over sources.
///
/// For disconnected graphs this returns the largest *finite* eccentricity,
/// i.e. the maximum diameter over connected components.
pub fn apsp_diameter(g: &CsrGraph) -> u32 {
    if g.num_nodes() == 0 {
        return 0;
    }
    (0..g.num_nodes() as NodeId)
        .into_par_iter()
        .map(|u| bfs(g, u).levels)
        .max()
        .unwrap_or(0)
}

/// Result of a double BFS sweep.
#[derive(Clone, Copy, Debug)]
pub struct DoubleSweep {
    /// Lower bound on the diameter: `dist(far_a, far_b)`.
    pub lower_bound: u32,
    /// Endpoint found by the first sweep.
    pub far_a: NodeId,
    /// Endpoint found by the second sweep (realizes `lower_bound` from `far_a`).
    pub far_b: NodeId,
    /// Midpoint of the `far_a → far_b` shortest path.
    pub midpoint: NodeId,
}

/// Double-sweep diameter lower bound starting from `start`.
///
/// # Panics
/// Panics on the empty graph.
pub fn double_sweep(g: &CsrGraph, start: NodeId) -> DoubleSweep {
    assert!(g.num_nodes() > 0, "double sweep on empty graph");
    // A whole-graph frontier sweep: the one place in this module where the
    // direction-optimizing engine pays off (the second sweep needs parent
    // pointers and stays on the sequential routine).
    let first = single_source_bfs(g, start, FrontierStrategy::default_from_env());
    let a = first.farthest().unwrap_or(start);
    let (second, parent) = bfs_with_parents(g, a);
    let b = second.farthest().unwrap_or(a);
    // Walk halfway back along the shortest path b -> a.
    let half = second.dist[b as usize] / 2;
    let mut mid = b;
    for _ in 0..half {
        mid = parent[mid as usize];
    }
    DoubleSweep {
        lower_bound: second.dist[b as usize],
        far_a: a,
        far_b: b,
        midpoint: mid,
    }
}

/// A graph [`exact`] searches one source at a time: breadth-first on a
/// [`CsrGraph`], Dijkstra on a [`crate::WeightedGraph`].
pub trait SingleSource: Sized {
    /// A distance as [`exact`] stores it per node: `u32` hop counts, `u64`
    /// path lengths.
    type Dist: Copy + Ord + Into<u64>;

    /// The distance [`search`](Self::search) gives an unreachable node.
    const UNREACHABLE: Self::Dist;

    /// The CSR adjacency: `offsets` (length `n + 1`) into sorted `targets`.
    fn adjacency(&self) -> (&[usize], &[NodeId]);

    /// Overwrites `dist` (one entry per node) with the exact distances from
    /// `src`, [`UNREACHABLE`](Self::UNREACHABLE) where unreachable.
    fn search(&self, src: NodeId, dist: &mut [Self::Dist]);

    /// The subgraph on `nodes` (ascending ids, closed under adjacency), node
    /// `nodes[i]` renumbered to `i`; `local[v]` is `v`'s new id for every
    /// `v` in `nodes`.
    fn induced(&self, nodes: &[NodeId], local: &[NodeId]) -> Self;

    /// Length of `u`'s lightest edge: the diameter of its component when
    /// that component is one edge.
    fn lightest_edge(&self, u: NodeId) -> u64;
}

impl SingleSource for CsrGraph {
    type Dist = u32;

    const UNREACHABLE: u32 = u32::MAX;

    fn adjacency(&self) -> (&[usize], &[NodeId]) {
        (self.raw_offsets(), self.raw_targets())
    }

    fn search(&self, src: NodeId, dist: &mut [u32]) {
        dist.fill(u32::MAX);
        dist[src as usize] = 0;
        let mut queue = Vec::with_capacity(self.num_nodes());
        queue.push(src);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            let next = dist[u as usize] + 1;
            for &v in self.neighbors(u) {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = next;
                    queue.push(v);
                }
            }
        }
    }

    fn induced(&self, nodes: &[NodeId], local: &[NodeId]) -> Self {
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        offsets.push(0);
        let mut targets = Vec::new();
        for &v in nodes {
            targets.extend(self.neighbors(v).iter().map(|&w| local[w as usize]));
            offsets.push(targets.len());
        }
        CsrGraph::from_parts(offsets, targets)
    }

    fn lightest_edge(&self, _u: NodeId) -> u64 {
        1
    }
}

/// An exact diameter and the work it took.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exact {
    /// The largest finite distance between two nodes: the maximum of the
    /// components' diameters, 0 for the empty graph.
    pub diameter: u64,
    /// Connected components, isolated nodes included.
    pub components: usize,
    /// Single-source searches run, over all components.
    pub traversals: usize,
}

/// Exact diameter of any graph: the maximum over connected components of
/// the routine of the module docs. Components of one node cost nothing and
/// of one edge cost their edge; the rest are cut out through one shared id
/// map, so many small components cost little more than their nodes. Emits
/// a `diameter.exact` span with `nodes`, `components` and `traversals`.
pub fn exact<G: SingleSource>(g: &G) -> Exact {
    let (offsets, targets) = g.adjacency();
    let n = offsets.len() - 1;
    let mut span = pardec_obs::span!("diameter.exact", nodes = n);
    let (count, labels) = components::label_components(offsets, targets);
    let mut result = Exact {
        diameter: 0,
        components: count,
        traversals: 0,
    };
    let mut add = |(diameter, traversals): (u64, usize)| {
        result.diameter = result.diameter.max(diameter);
        result.traversals += traversals;
    };
    if count == 1 {
        drop(labels);
        add(connected(g));
    } else if count > 1 {
        // Each component's nodes, contiguous and in increasing id order.
        let mut members: Vec<NodeId> = (0..n as NodeId).collect();
        members.sort_unstable_by_key(|&v| (labels[v as usize], v));
        // `local[v]`: `v`'s index within its component, which increases
        // with `v`, so relabelled adjacency lists stay sorted.
        let mut local = vec![0 as NodeId; n];
        for nodes in members.chunk_by(|&a, &b| labels[a as usize] == labels[b as usize]) {
            match nodes.len() {
                1 => {}
                2 => add((g.lightest_edge(nodes[0]), 0)),
                _ => {
                    for (i, &v) in nodes.iter().enumerate() {
                        local[v as usize] = i as NodeId;
                    }
                    add(connected(&g.induced(nodes, &local)));
                }
            }
        }
    }
    span.field("components", count);
    span.field("traversals", result.traversals);
    result
}

/// Exact diameter of an unweighted graph: [`exact`] on BFS.
pub fn exact_diameter(g: &CsrGraph) -> u32 {
    u32::try_from(exact(g).diameter).expect("hop distances fit in u32")
}

/// Exact diameter of a **connected** graph, with the number of BFS runs it
/// took: the routine of the module docs. Like [`exact`], it starts at the
/// node of largest degree; `_start` is unused, and kept so that callers
/// written for iFUB's first sweep still compile.
///
/// # Panics
/// Panics if the graph is empty or disconnected.
pub fn ifub(g: &CsrGraph, _start: NodeId) -> (u32, usize) {
    assert!(g.num_nodes() > 0, "ifub on empty graph");
    let (diameter, traversals) = connected(g);
    (
        u32::try_from(diameter).expect("hop distances fit in u32"),
        traversals,
    )
}

/// The node of largest degree, the lowest id on ties.
fn max_degree_node(offsets: &[usize]) -> NodeId {
    (0..offsets.len() - 1)
        .max_by_key(|&v| (offsets[v + 1] - offsets[v], Reverse(v)))
        .map_or(0, |v| v as NodeId)
}

/// Sum sweeps run before the root is chosen, the first from the node of
/// largest degree.
const SWEEPS: usize = 3;

/// Root candidates tried at most, each while the last one lowered the
/// root's eccentricity.
const ROOTS: usize = 4;

/// Searches whose distances every node keeps: the sweeps and the root
/// candidates.
const PIVOTS: usize = SWEEPS + ROOTS;

/// The bounds every search of one connected graph tightens.
struct Bounds {
    /// The largest eccentricity found: a lower bound on the diameter.
    lower: u64,
    /// `upper[v]`: the least `ecc(s) + d(s, v)` over the sources `s` so
    /// far, an upper bound on `ecc(v)`; a source's own is `ecc(s)`.
    upper: Vec<u64>,
    /// Open nodes: those whose upper bound exceeds `lower`, the only ones
    /// that can raise it.
    open: usize,
    /// Searches run.
    traversals: usize,
}

impl Bounds {
    /// Folds in the distances `dist` from one source; returns the source's
    /// eccentricity.
    ///
    /// # Panics
    /// Panics if a node is unreachable.
    fn record<D: Copy + Ord + Into<u64>>(&mut self, dist: &[D], unreachable: D) -> u64 {
        let ecc = dist.iter().copied().max().expect("a non-empty graph");
        assert!(ecc != unreachable, "ifub requires a connected graph");
        let ecc = ecc.into();
        self.lower = self.lower.max(ecc);
        self.traversals += 1;
        let mut open = 0;
        for (up, &d) in self.upper.iter_mut().zip(dist) {
            *up = (*up).min(ecc + d.into());
            open += usize::from(*up > self.lower);
        }
        self.open = open;
        ecc
    }

    /// Whether `v` could still raise the lower bound.
    fn is_open(&self, v: NodeId) -> bool {
        self.upper[v as usize] > self.lower
    }
}

/// For pivots `i` and `j`, the Pareto staircase of `(d_i, d_j)` over the
/// nodes: `d_i` falling and `d_j` rising, so the entries with `d_i` above a
/// threshold are a prefix whose last entry holds their largest `d_j`.
fn staircase<D: Copy + Ord>(pivot: &[[D; PIVOTS]], i: usize, j: usize) -> Vec<(D, D)> {
    let mut points: Vec<(D, D)> = pivot.iter().map(|p| (p[i], p[j])).collect();
    points.sort_unstable_by_key(|&(a, b)| (Reverse(a), Reverse(b)));
    let mut stair: Vec<(D, D)> = Vec::new();
    for (a, b) in points {
        if stair.last().is_none_or(|&(_, top)| b > top) {
            stair.push((a, b));
        }
    }
    stair
}

/// The routine of the module docs on a connected, non-empty graph:
/// `(diameter, searches run)`.
fn connected<G: SingleSource>(g: &G) -> (u64, usize) {
    let n = g.adjacency().0.len() - 1;
    let mut b = Bounds {
        lower: 0,
        upper: vec![u64::MAX; n],
        open: n,
        traversals: 0,
    };
    let mut dist = vec![G::UNREACHABLE; n];
    // `pivot[v][i]`: `v`'s distance from the `i`-th search of step 1.
    let mut pivot = vec![[G::UNREACHABLE; PIVOTS]; n];
    let mut pivots = 0;
    // The root's pivot and its eccentricity.
    let mut root = (0, u64::MAX);
    {
        // 1. Sum sweeps, then root candidates while their eccentricity
        //    falls. `low[v]`, the largest `d(s, v)` and `ecc(s) − d(s, v)`
        //    over the sources, is a lower bound on `ecc(v)`; `sum[v]` is the
        //    sum of the `d(s, v)`.
        let mut low = vec![0u64; n];
        let mut sum = vec![0u64; n];
        let mut source = max_degree_node(g.adjacency().0);
        loop {
            g.search(source, &mut dist);
            let ecc = b.record(&dist, G::UNREACHABLE);
            if b.open == 0 {
                return (b.lower, b.traversals);
            }
            for (v, (p, &d)) in pivot.iter_mut().zip(&dist).enumerate() {
                p[pivots] = d;
                let d = d.into();
                low[v] = low[v].max(d).max(ecc - d);
                sum[v] = sum[v].saturating_add(d);
            }
            pivots += 1;
            if pivots > SWEEPS {
                if ecc < root.1 {
                    root = (pivots - 1, ecc);
                } else {
                    break;
                }
            }
            if pivots == PIVOTS {
                break;
            }
            let open = (0..n as NodeId).filter(|&v| b.is_open(v));
            source = if pivots < SWEEPS {
                open.max_by_key(|&v| (sum[v as usize], Reverse(v)))
            } else {
                open.min_by_key(|&v| (low[v as usize], sum[v as usize], v))
            }
            .expect("an open node is left");
        }
    }
    let level = |v: NodeId| -> u64 { pivot[v as usize][root.0].into() };
    let stairs: Vec<_> = (0..SWEEPS)
        .flat_map(|i| (i + 1..SWEEPS).map(move |j| (i, j)))
        .map(|(i, j)| (i, j, staircase(&pivot, i, j)))
        .collect();
    // 2. Nodes by decreasing distance from the root, the lowest id first.
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    order.sort_unstable_by_key(|&v| (Reverse(pivot[v as usize][root.0]), v));
    // `paired[v]`: whether `v` may still have a partner (step 3).
    let mut paired = vec![true; n];
    let mut at = 0;
    while at < n {
        let r = level(order[at]);
        let len = order[at..].partition_point(|&v| level(v) == r);
        let done = |b: &Bounds| b.open == 0 || b.lower >= r.saturating_mul(2);
        // 3. Whether `x` has a partner: a `y` no farther from the root that
        //    may lie more than the lower bound away from it.
        let live = |b: &Bounds, paired: &[bool], x: NodeId| {
            let lower = b.lower;
            let px: [u64; PIVOTS] = pivot[x as usize].map(Into::into);
            let px = &px[..pivots];
            let near = (lower + 1).saturating_sub(r);
            let reach = order[at..].partition_point(|&v| level(v) >= near);
            stairs.iter().all(|(i, j, stair)| {
                let k = stair.partition_point(|&(a, _)| a.into() + px[*i] > lower);
                k > 0 && stair[k - 1].1.into() + px[*j] > lower
            }) && order[at..at + reach].iter().any(|&y| {
                y != x
                    && paired[y as usize]
                    && b.is_open(y)
                    && px
                        .iter()
                        .zip(&pivot[y as usize])
                        .all(|(&a, &c)| a + c.into() > lower)
            })
        };
        // The fringe's open nodes, the largest upper bound first.
        let mut fringe: Vec<NodeId> = order[at..at + len]
            .iter()
            .copied()
            .filter(|&v| b.is_open(v))
            .collect();
        fringe.sort_unstable_by_key(|&v| (Reverse(b.upper[v as usize]), v));
        for x in fringe {
            if done(&b) {
                break;
            }
            if !b.is_open(x) {
                continue;
            }
            if live(&b, &paired, x) {
                g.search(x, &mut dist);
                b.record(&dist, G::UNREACHABLE);
            } else {
                paired[x as usize] = false;
            }
        }
        if done(&b) {
            break;
        }
        at += len;
    }
    (b.lower, b.traversals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, GraphBuilder};

    #[test]
    fn apsp_on_known_shapes() {
        assert_eq!(apsp_diameter(&generators::path(10)), 9);
        assert_eq!(apsp_diameter(&generators::cycle(10)), 5);
        assert_eq!(apsp_diameter(&generators::star(8)), 2);
        assert_eq!(apsp_diameter(&generators::complete(6)), 1);
        assert_eq!(apsp_diameter(&generators::mesh(7, 9)), 6 + 8);
    }

    #[test]
    fn apsp_empty_and_singleton() {
        assert_eq!(apsp_diameter(&CsrGraph::empty(0)), 0);
        assert_eq!(apsp_diameter(&CsrGraph::empty(1)), 0);
    }

    #[test]
    fn double_sweep_exact_on_paths_and_trees() {
        let g = generators::path(30);
        let s = double_sweep(&g, 13);
        assert_eq!(s.lower_bound, 29);
        // Midpoint of a path is its centre.
        assert!(
            (s.midpoint as i64 - 14).abs() <= 1,
            "midpoint {}",
            s.midpoint
        );
    }

    #[test]
    fn ifub_matches_apsp_on_mesh() {
        let g = generators::mesh(12, 17);
        let (d, bfs_used) = ifub(&g, 0);
        assert_eq!(d, apsp_diameter(&g));
        assert!(bfs_used < g.num_nodes(), "iFUB degenerated to APSP");
    }

    #[test]
    fn ifub_matches_apsp_on_random_graphs() {
        for seed in 0..5 {
            let g = generators::gnm(300, 500, seed);
            let (lc, _) = crate::components::largest_component(&g);
            let (d, _) = ifub(&lc, 0);
            assert_eq!(d, apsp_diameter(&lc), "seed {seed}");
        }
    }

    #[test]
    fn ifub_on_lollipop() {
        let g = generators::lollipop(300, 4, 120, 7);
        let (d, _) = ifub(&g, 0);
        assert_eq!(d, apsp_diameter(&g));
        assert!(d >= 120);
    }

    /// Where the bounds prune, a few searches settle the diameter: iFUB
    /// alone needs thousands of BFS on the mesh, and about half the nodes
    /// on the cycle and the torus, where the node bounds close nothing and
    /// the pivots rule out every pair. The power-law graph is the paper
    /// tables' `synth-social-small` at the default scale (the table prints
    /// its diameter); the road's diameter was checked against
    /// [`apsp_diameter`].
    #[test]
    fn few_searches_on_meshes_roads_and_power_laws() {
        for (g, diameter) in [
            (generators::mesh(100, 100), 198),
            (generators::cycle(4000), 2000),
            (generators::torus(60, 60), 60),
            (generators::road_network(100, 100, 0.4, 103), 199),
            (
                generators::windowed_preferential_attachment(60_000, 6, 0.016, 102),
                24,
            ),
        ] {
            let e = exact(&g);
            assert_eq!((e.diameter, e.components), (diameter, 1));
            assert!(e.traversals <= 50, "{} searches", e.traversals);
        }
    }

    /// On power-law graphs whose far ends hold many nodes, step 2 runs
    /// hundreds of searches (197 and 437 here): the diameter still equals
    /// all-pairs BFS, and it and the search count are the same in a 1- and
    /// a 4-thread pool.
    #[test]
    fn many_searches_on_power_laws_match_apsp_at_any_pool_size() {
        for g in [
            generators::windowed_preferential_attachment(2000, 3, 0.1, 1),
            generators::preferential_attachment(2000, 3, 3),
        ] {
            let run = |threads: usize| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("pool construction cannot fail")
                    .install(|| exact(&g))
            };
            let one = run(1);
            assert_eq!(one.diameter, u64::from(apsp_diameter(&g)));
            assert!(one.traversals > 100, "{} searches", one.traversals);
            assert_eq!(one, run(4));
        }
    }

    #[test]
    fn exact_diameter_disconnected() {
        let g = generators::disjoint_union(&generators::path(7), &generators::cycle(12));
        assert_eq!(exact_diameter(&g), 6);
        let g = generators::disjoint_union(&generators::path(20), &generators::cycle(6));
        assert_eq!(exact_diameter(&g), 19);

        // Many components: isolated nodes, pairs, paths and meshes, one of
        // them of 1,200 nodes.
        let union = |parts: &[CsrGraph]| {
            parts
                .iter()
                .fold(CsrGraph::empty(0), |g, p| generators::disjoint_union(&g, p))
        };
        let isolated = CsrGraph::empty(1);
        let pair = generators::path(2);
        let many = [
            union(&[isolated.clone(), isolated.clone(), isolated.clone()]),
            union(&[pair.clone(), pair.clone(), isolated.clone(), pair.clone()]),
            union(&[isolated.clone(), generators::path(3), pair.clone()]),
            union(&[
                generators::mesh(5, 6),
                isolated.clone(),
                generators::path(11),
                pair.clone(),
                generators::mesh(3, 3),
                isolated.clone(),
            ]),
            union(&[
                generators::disjoint_union(&CsrGraph::empty(40), &generators::mesh(8, 8)),
                generators::cycle(9),
                CsrGraph::empty(25),
                generators::path(4),
            ]),
            union(&[
                generators::mesh(30, 40),
                CsrGraph::empty(10),
                generators::path(5),
            ]),
        ];
        for (i, g) in many.iter().enumerate() {
            assert_eq!(exact_diameter(g), apsp_diameter(g), "graph {i}");
        }
        // A component relabelled through the shared id map keeps its
        // structure when its ids are not contiguous.
        let mixed = GraphBuilder::new(7)
            .add_edges([(0, 3), (3, 6), (1, 5), (2, 4)])
            .build();
        assert_eq!(exact_diameter(&mixed), 2);
    }
}
