//! Property tests for the weighted pipeline's equivalence contracts:
//!
//! * the bucketed [`WeightedFrontierEngine`] equals the per-source
//!   sequential-Dijkstra minimum oracle on arbitrary weighted graphs,
//!   source sets, bucket widths, and pool sizes — distance-wise, owner-wise
//!   (smallest source index among the nearest sources wins), and hop-wise
//!   (fewest hops among that owner's shortest paths);
//! * with unit weights the weighted engine degenerates to the unweighted
//!   level-synchronous frontier;
//! * `weighted_cluster` (engine-backed) is byte-identical to its retained
//!   sequential heap oracle `weighted_cluster::naive` at every δ and pool
//!   size, and every clustering it produces passes `validate`;
//! * `weighted_diameter` brackets the true weighted diameter;
//! * the single-source kernel behind `dijkstra` (bucket queue, or heap past
//!   the bucket cap) and the contraction-hierarchy kernel behind
//!   `apsp_upper` / `apsp_diameter` equal the seed-era binary-heap Dijkstra
//!   `graph::naive::dijkstra`, also on shapes that contract completely,
//!   deeply, or around a core searched on the heap, and at the corners of
//!   its sixteen-source chunks: no core, a partial last chunk, everything
//!   in the core, and weights that need `u64` lanes;
//! * the triangle's entry width follows the width rule (2 bytes exactly when
//!   the largest finite distance is below `u16::MAX`), also at diameters of
//!   65,534, 65,535 and 65,536, where `u32` lanes narrow into 2-byte
//!   entries, and on `u64` lanes; and the kernel's eccentricities under
//!   per-node radii and its diameter equal a brute-force loop over the
//!   heap rows;
//! * `WeightedGraph::from_edges` is a pure function of the edge multiset
//!   (any permutation builds a byte-identical graph);
//! * the exact diameter routine on Dijkstra (`diameter::exact`) equals the
//!   heap-Dijkstra APSP diameter, also on weighted cycles and tori, where
//!   its bounds prune nothing, and its diameter and search count are the
//!   same at 1 and 4 threads.

use pardec::core::weighted_cluster::naive;
use pardec::graph::frontier::{multi_source_bfs, FrontierStrategy};
use pardec::graph::naive::dijkstra as heap_dijkstra;
use pardec::graph::weighted::{upper_row_start, INFINITE_WEIGHT};
use pardec::graph::wfrontier::multi_source_dijkstra;
use pardec::prelude::*;
use proptest::prelude::*;
use proptest::strategy::Just;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Deterministic per-edge weights in `1..=max_w` from an unweighted graph.
fn weight_edges(g: &CsrGraph, salt: u64, max_w: u64) -> Vec<(NodeId, NodeId, u64)> {
    g.edges()
        .map(|(u, v)| {
            let h = (u as u64)
                .wrapping_mul(31)
                .wrapping_add(v as u64)
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add(salt);
            (u, v, h % max_w + 1)
        })
        .collect()
}

/// An arbitrary weighted graph — workspace families with deterministic
/// weights, unit-weight variants, and raw (possibly duplicated) edge lists.
/// Not restricted to connected graphs.
fn arbitrary_weighted() -> impl Strategy<Value = WeightedGraph> {
    prop_oneof![
        (2usize..10, 2usize..10, 1u64..500, 1u64..12).prop_map(|(r, c, s, w)| {
            let g = generators::mesh(r, c);
            WeightedGraph::from_edges(g.num_nodes(), &weight_edges(&g, s, w))
        }),
        (2usize..90, 0usize..160, 1u64..500, 1u64..60).prop_map(|(n, m, s, w)| {
            let g = generators::gnm(n, m.min(n * (n - 1) / 2), s);
            WeightedGraph::from_edges(g.num_nodes(), &weight_edges(&g, s, w))
        }),
        (4usize..70, 1u64..500).prop_map(|(n, s)| {
            let g = generators::preferential_attachment(n, 3.min(n - 1), s);
            WeightedGraph::from_edges(g.num_nodes(), &weight_edges(&g, s, 9))
        }),
        // Unit weights: the degenerate case that must match unweighted BFS.
        (3usize..60, 0usize..100, 1u64..500).prop_map(|(n, m, s)| {
            let g = generators::gnm(n, m.min(n * (n - 1) / 2), s);
            let edges: Vec<_> = g.edges().map(|(u, v)| (u, v, 1u64)).collect();
            WeightedGraph::from_edges(g.num_nodes(), &edges)
        }),
        // Raw edge soup: duplicates and both orientations allowed.
        (
            2usize..40,
            proptest::collection::vec((0u32..40, 0u32..40, 1u64..30), 0..120)
        )
            .prop_map(|(n, raw)| {
                let edges: Vec<_> = raw
                    .into_iter()
                    .map(|(u, v, w)| (u % n as u32, v % n as u32, w))
                    .collect();
                WeightedGraph::from_edges(n, &edges)
            }),
    ]
}

fn graph_and_sources() -> impl Strategy<Value = (WeightedGraph, Vec<NodeId>)> {
    (
        arbitrary_weighted(),
        proptest::collection::vec(0usize..1 << 16, 1..6),
    )
        .prop_map(|(g, raw)| {
            let n = g.num_nodes().max(1);
            let sources = raw.iter().map(|&i| (i % n) as NodeId).collect();
            (g, sources)
        })
}

/// Runs `f` in a 1-thread and a 4-thread pool; returns both outputs.
fn on_both_pools<T: Send>(f: impl Fn() -> T + Sync + Send) -> (T, T) {
    let run = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool construction cannot fail")
            .install(&f)
    };
    (run(1), run(4))
}

/// Per-source sequential Dijkstra minimum oracle. Sources are deduplicated
/// keeping first occurrence (as the engine does); per node the winning
/// claim minimizes `(dist, source_index)`, with hops the fewest among the
/// winner's shortest paths — the engine's packed-claim order.
fn per_source_oracle(
    g: &WeightedGraph,
    sources: &[NodeId],
) -> (Vec<NodeId>, Vec<u64>, Vec<u32>, Vec<NodeId>) {
    let n = g.num_nodes();
    let mut seen = vec![false; n];
    let mut dedup = Vec::new();
    for &s in sources {
        if !seen[s as usize] {
            seen[s as usize] = true;
            dedup.push(s);
        }
    }
    let mut owner = vec![INVALID_NODE; n];
    let mut dist = vec![INFINITE_WEIGHT; n];
    let mut hops = vec![u32::MAX; n];
    for (i, &s) in dedup.iter().enumerate() {
        // Dijkstra over lexicographic (dist, hops) labels.
        let mut best: Vec<(u64, u32)> = vec![(INFINITE_WEIGHT, u32::MAX); n];
        let mut heap = BinaryHeap::new();
        best[s as usize] = (0, 0);
        heap.push(Reverse((0u64, 0u32, s)));
        while let Some(Reverse((d, h, v))) = heap.pop() {
            if (d, h) > best[v as usize] {
                continue;
            }
            for (u, w) in g.neighbors(v) {
                let cand = (d + w, h + 1);
                if cand < best[u as usize] {
                    best[u as usize] = cand;
                    heap.push(Reverse((cand.0, cand.1, u)));
                }
            }
        }
        for v in 0..n {
            let (d, h) = best[v];
            if d < dist[v] {
                dist[v] = d;
                hops[v] = h;
                owner[v] = i as NodeId;
            }
        }
    }
    (owner, dist, hops, dedup)
}

/// `g` with the weights of [`weight_edges`] passed through `f`.
fn weigh(g: &CsrGraph, salt: u64, max_w: u64, f: impl Fn(u64) -> u64) -> WeightedGraph {
    let edges: Vec<_> = weight_edges(g, salt, max_w)
        .into_iter()
        .map(|(u, v, w)| (u, v, f(w)))
        .collect();
    WeightedGraph::from_edges(g.num_nodes(), &edges)
}

/// Shapes for the contraction hierarchy behind the APSP kernels: trees and
/// forests (no core), long cycles and paths (the deepest up-arc chains),
/// grids with pendant paths, a component that contracts completely beside
/// one that keeps a core, zero weights, and weights below the bucket cap
/// whose shortcut sums reach it, so the core search takes the heap.
fn contraction_graphs() -> impl Strategy<Value = WeightedGraph> {
    prop_oneof![
        // Trees, and forests with every fifth edge dropped: each node
        // hangs off an earlier one. Weights from 0.
        (2usize..300, 1u64..500, 1u64..20, any::<bool>()).prop_map(|(n, s, w, forest)| {
            let edges: Vec<_> = (1..n as NodeId)
                .map(|v| (v, u64::from(v).wrapping_mul(0x9e3779b97f4a7c15) ^ s))
                .filter(|&(_, h)| !forest || h % 5 != 0)
                .map(|(v, h)| (v, (h % u64::from(v)) as NodeId, h % w))
                .collect();
            WeightedGraph::from_edges(n, &edges)
        }),
        (100usize..600, any::<bool>(), 1u64..500, 1u64..30).prop_map(|(n, cycle, s, w)| {
            let g = if cycle {
                generators::cycle(n)
            } else {
                generators::path(n)
            };
            weigh(&g, s, w, |w| w)
        }),
        // A grid with pendant paths hanging off it.
        (3usize..16, 3usize..16, 1usize..4, 1usize..40, 1u64..500).prop_map(
            |(r, c, chains, len, s)| {
                let mut g = generators::mesh(r, c);
                for k in 0..chains {
                    let attach = (k * 7919 + s as usize) % (r * c);
                    g = generators::append_chain(&g, attach as NodeId, len);
                }
                weigh(&g, s, 9, |w| w)
            }
        ),
        // Two components: a path that contracts completely, a torus that
        // keeps a core.
        (2usize..150, 4usize..10, 1u64..500).prop_map(|(n, side, s)| {
            let g =
                generators::disjoint_union(&generators::path(n), &generators::torus(side, side));
            weigh(&g, s, 12, |w| w)
        }),
        // Zero weights: shortcuts and whole paths of length 0.
        (3usize..10, 3usize..10, 1usize..30, 1u64..500).prop_map(|(r, c, len, s)| {
            let g = generators::append_chain(&generators::mesh(r, c), 0, len);
            weigh(&g, s, 3, |w| w - 1)
        }),
        // A torus with every other edge subdivided keeps the torus as its
        // core, with a shortcut for each subdivided edge. Weights 512..=611
        // take the buckets on the graph, but every shortcut weighs at least
        // 1024: the core search takes the heap.
        (4usize..10, 4usize..10, 1u64..500).prop_map(|(r, c, s)| {
            let torus = generators::torus(r, c);
            let mut mid = torus.num_nodes() as NodeId;
            let (n, m) = (torus.num_nodes(), torus.num_edges());
            let mut b = GraphBuilder::with_capacity(n + m / 2, m + m / 2);
            for (k, (u, v)) in torus.edges().enumerate() {
                if k % 2 == 0 {
                    b.add_edge(u, v);
                } else {
                    b.add_edge(u, mid);
                    b.add_edge(mid, v);
                    mid += 1;
                }
            }
            weigh(&b.build(), s, 100, |w| w + 511)
        }),
    ]
}

/// Graphs for the single-source kernel: the arbitrary families above,
/// the contraction shapes, and raw edge soups (duplicates, isolated nodes,
/// disconnected parts) whose weights are mostly zero, small, just under the
/// bucket cap (jumps across many occupancy words), or past it (heap
/// fallback).
fn kernel_graphs() -> impl Strategy<Value = WeightedGraph> {
    prop_oneof![
        arbitrary_weighted(),
        contraction_graphs(),
        (
            2usize..50,
            proptest::collection::vec((0u32..50, 0u32..50, 0u64..40), 0..150),
            prop_oneof![Just(0u8), Just(1), Just(2), Just(3)],
        )
            .prop_map(|(n, raw, mode)| {
                let edges: Vec<_> = raw
                    .into_iter()
                    .map(|(u, v, w)| {
                        let w = match mode {
                            0 => w % 2,
                            1 => w,
                            2 => w * 26,
                            _ => w * 100_000,
                        };
                        (u % n as u32, v % n as u32, w)
                    })
                    .collect();
                WeightedGraph::from_edges(n, &edges)
            }),
    ]
}

/// Shapes at the corners of the chunked all-sources kernel (sixteen
/// sources per lane matrix), each with a flag that is set when its weights
/// reach the hop bound, `(n − 1) · max_weight ≥ u32::MAX`: trees and
/// forests (no core, so no core table); node counts one below, at and one
/// above a multiple of 16 (a last chunk with unused lanes); a weighted
/// clique past the elimination cap (every node in the core); and graphs
/// whose distances still fit a `u32` entry, weighted near `u32::MAX` over
/// their hop diameter plus one: a mesh (with a core) beside a path, whose
/// lowest-id node's eccentricity also forces `u64` lanes, and a star
/// (without a core) and a clique past the cap, which that eccentricity
/// keeps on `u32` lanes.
fn chunk_graphs() -> impl Strategy<Value = (WeightedGraph, bool)> {
    prop_oneof![
        (1usize..70, 1u64..500, 1u64..40, any::<bool>()).prop_map(|(n, s, w, forest)| {
            let edges: Vec<_> = (1..n as NodeId)
                .map(|v| (v, u64::from(v).wrapping_mul(0x9e3779b97f4a7c15) ^ s))
                .filter(|&(_, h)| !forest || h % 4 != 0)
                .map(|(v, h)| (v, (h % u64::from(v)) as NodeId, h % w + 1))
                .collect();
            (WeightedGraph::from_edges(n, &edges), false)
        }),
        (1usize..5, 0usize..3, 0usize..4, 1u64..500).prop_map(|(k, off, density, s)| {
            let n = 16 * k + off - 1;
            let g = generators::gnm(n, (n * (density + 1)).min(n * (n - 1) / 2), s);
            (weigh(&g, s, 20, |w| w), false)
        }),
        (18usize..40, 1u64..500, 1u64..50)
            .prop_map(|(n, s, w)| { (weigh(&generators::complete(n), s, w, |w| w), false) }),
        // Beside a path of three nodes, so that some pairs are unreachable.
        (3usize..8, 3usize..8, 1u64..500).prop_map(|(r, c, s)| {
            let top = u64::from(u32::MAX) / (r + c - 1) as u64;
            let g = generators::disjoint_union(&generators::mesh(r, c), &generators::path(3));
            (weigh(&g, s, 1000, |w| top - w + 1), true)
        }),
        (5usize..40, 1u64..500).prop_map(|(n, s)| {
            let top = u64::from(u32::MAX) / 3;
            (weigh(&generators::star(n), s, 1000, |w| top - w + 1), true)
        }),
        (18usize..30, 1u64..500).prop_map(|(n, s)| {
            let top = u64::from(u32::MAX) / 2;
            (
                weigh(&generators::complete(n), s, 1000, |w| top - w + 1),
                true,
            )
        }),
    ]
}

/// The bound that picks the kernel's lanes, from the reference rows: the
/// smaller of `(n − 1) · max_weight` and twice the largest distance from
/// the lowest-id node of any component.
fn lane_bound(g: &WeightedGraph, reference: &[Vec<u64>]) -> u64 {
    let max_w = (0..g.num_nodes() as NodeId)
        .flat_map(|u| g.neighbors(u).map(|(_, w)| w))
        .max()
        .unwrap_or(0);
    let hops = (g.num_nodes().saturating_sub(1) as u128 * u128::from(max_w))
        .min(u128::from(u64::MAX)) as u64;
    let roots = reference
        .iter()
        .enumerate()
        .filter(|(u, row)| row[..*u].iter().all(|&d| d == INFINITE_WEIGHT))
        .flat_map(|(_, row)| row.iter().copied().filter(|&d| d != INFINITE_WEIGHT))
        .max()
        .unwrap_or(0);
    hops.min(roots.saturating_mul(2))
}

/// Every entry `(i, j ≥ i)` of `apsp_upper`'s triangle equals both
/// `naive::dijkstra(i)[j]` and `naive::dijkstra(j)[i]` (unreachable
/// included), `dijkstra` equals the heap reference, the entry width follows
/// the width rule, the kernel's `ecc` under `radii` and its diameter equal
/// a brute-force loop over the reference rows, `apsp_diameter` is that
/// diameter, and all of it is identical on 1 and 4 threads. Returns the
/// diameter and the lane bound.
fn assert_apsp_matches_heap_dijkstra(g: &WeightedGraph, radii: &[u32]) -> (u64, u64) {
    let (one, four) = on_both_pools(|| (g.apsp_upper(radii), g.apsp_diameter()));
    assert_eq!(one, four);
    let (apsp, diameter) = one;
    let n = g.num_nodes();
    assert_eq!(apsp.triangle.len(), n * (n + 1) / 2);
    let reference: Vec<Vec<u64>> = (0..n as NodeId).map(|u| heap_dijkstra(g, u)).collect();
    for (i, row) in reference.iter().enumerate() {
        for (j, &d_ij) in row.iter().enumerate().skip(i) {
            let d = apsp.triangle.get(upper_row_start(n, i) + (j - i));
            assert_eq!(d, d_ij, "d({i}, {j})");
            assert_eq!(d, reference[j][i], "d({i}, {j}) vs d({j}, {i})");
        }
        assert_eq!(&g.dijkstra(i as NodeId), row, "dijkstra({i})");
    }
    let finite = |d: &&u64| **d != INFINITE_WEIGHT;
    let largest = reference
        .iter()
        .flatten()
        .filter(finite)
        .max()
        .map_or(0, |&d| d);
    assert!(
        largest < u64::from(u32::MAX),
        "kernel graphs keep distances small"
    );
    let ecc: Vec<u64> = reference
        .iter()
        .map(|row| {
            row.iter()
                .zip(radii)
                .filter(|(d, _)| finite(d))
                .map(|(&d, &r)| d + u64::from(r))
                .max()
                .unwrap_or(0)
        })
        .collect();
    assert_eq!((apsp.diameter, diameter), (largest, largest));
    assert_eq!(apsp.ecc, ecc);
    let bytes = if largest < u64::from(u16::MAX) { 2 } else { 4 };
    assert_eq!(apsp.triangle.entry_bytes(), bytes, "diameter {largest}");
    (largest, lane_bound(g, &reference))
}

/// A path `0 – 1 – … – (n − 1)` whose weights, from `raw`'s proportions,
/// add up to exactly `total` (some may be 0), then, for a cycle, a closing
/// edge of `total + extra`: either way `d(0, n − 1) = total` is the largest
/// distance. With `first`, the first edge weighs `total / 2 + 1`.
fn exact_path(raw: &[u64], total: u64, first: bool, close: Option<u64>) -> WeightedGraph {
    let n = raw.len() + 1;
    let (head, rest) = if first {
        (total / 2 + 1, &raw[1..])
    } else {
        (0, raw)
    };
    let sum: u64 = rest.iter().sum();
    let mut prefix = 0;
    let mut edges = Vec::new();
    if first {
        edges.push((0, 1, head));
    }
    for (k, &r) in rest.iter().enumerate() {
        let at = |p: u64| (total - head) * p / sum;
        let v = (n - rest.len() + k) as NodeId;
        edges.push((v - 1, v, at(prefix + r) - at(prefix)));
        prefix += r;
    }
    if let Some(extra) = close {
        edges.push((n as NodeId - 1, 0, total + extra));
    }
    WeightedGraph::from_edges(n, &edges)
}

/// What a corner case of [`width_graphs`] promises about its distances.
#[derive(Clone, Copy, Debug)]
enum Corner {
    /// Nothing beyond the common checks.
    Any,
    /// The largest distance is exactly this.
    Diameter(u64),
    /// `B ≥ u16::MAX > Δ`: `u32` lanes narrow into 2-byte entries.
    Slack,
    /// `B ≥ u32::MAX`: the kernel runs on `u64` lanes.
    WideLanes,
}

/// Corner cases of the width rule and the lane bound: weighted paths and
/// cycles whose largest distance is 65,534, 65,535 or 65,536 (uniform
/// paths at 65,534 run on `u16` lanes, mixed weights on `u32` lanes that
/// narrow); paths with a heavy first edge and a diameter in `[32,768,
/// 65,535)`, where `B ≥ 65,535 > Δ`; a mesh beside a path weighted near
/// `u32::MAX` over its hop diameter plus one, which needs `u64` lanes; and
/// disconnected graphs with isolated nodes, light or heavy.
fn width_graphs() -> impl Strategy<Value = (WeightedGraph, Corner)> {
    let targets = prop_oneof![Just(65_534u64), Just(65_535), Just(65_536)];
    prop_oneof![
        // Uniform paths: `(n − 1) · w` for each target's divisors.
        prop_oneof![
            Just((15usize, 4681u64)),
            Just((3, 32_767)),
            Just((16, 4369)),
            Just((52, 1285)),
            Just((17, 4096)),
            Just((5, 16_384)),
        ]
        .prop_map(|(n, w)| {
            let edges: Vec<_> = (1..n as NodeId).map(|v| (v - 1, v, w)).collect();
            let total = (n as u64 - 1) * w;
            (
                WeightedGraph::from_edges(n, &edges),
                Corner::Diameter(total),
            )
        }),
        (
            proptest::collection::vec(1u64..1000, 1..70),
            targets,
            any::<bool>(),
            0u64..1000,
        )
            .prop_map(|(raw, total, cycle, extra)| {
                let close = cycle.then_some(extra);
                (
                    exact_path(&raw, total, false, close),
                    Corner::Diameter(total),
                )
            }),
        (
            proptest::collection::vec(1u64..1000, 4..40),
            32_768u64..65_535,
            any::<bool>(),
            0u64..1000,
        )
            .prop_map(|(raw, total, cycle, extra)| {
                let close = cycle.then_some(extra);
                (exact_path(&raw, total, true, close), Corner::Slack)
            }),
        (3usize..8, 3usize..8, 1u64..500).prop_map(|(r, c, s)| {
            let top = u64::from(u32::MAX) / (r + c - 1) as u64;
            let g = generators::disjoint_union(&generators::mesh(r, c), &generators::path(3));
            (weigh(&g, s, 1000, |w| top - w + 1), Corner::WideLanes)
        }),
        (
            2usize..60,
            0usize..120,
            0usize..5,
            1u64..500,
            prop_oneof![Just(20u64), Just(5000), Just(40_000)],
        )
            .prop_map(|(n, m, isolated, s, w)| {
                let g = generators::disjoint_union(
                    &generators::gnm(n, m.min(n * (n - 1) / 2), s),
                    &CsrGraph::empty(isolated),
                );
                let g = generators::disjoint_union(&CsrGraph::empty(isolated), &g);
                (weigh(&g, s, w, |w| w), Corner::Any)
            }),
    ]
}

/// Per-node radii from a seed: all zero, small, or up to `u32::MAX`.
fn radii(n: usize, seed: u64, max: u64) -> Vec<u32> {
    (0..n as u64)
        .map(|v| {
            let h = v.wrapping_add(seed).wrapping_mul(0x9e3779b97f4a7c15);
            ((h >> 17) % (max + 1)) as u32
        })
        .collect()
}

/// Graphs for the exact diameter routine: the kernel graphs (random,
/// disconnected, zero and heavy weights), weighted cycles and tori, where
/// every eccentricity is close and the bounds prune little, and weighted
/// lollipops and unions with isolated nodes and single edges.
fn exact_graphs() -> impl Strategy<Value = WeightedGraph> {
    let weigh = |g: CsrGraph, s: u64, w: u64| {
        WeightedGraph::from_edges(g.num_nodes(), &weight_edges(&g, s, w))
    };
    prop_oneof![
        kernel_graphs(),
        (3usize..90, 1u64..500, 1u64..4).prop_map(move |(n, s, w)| weigh(
            generators::cycle(n),
            s,
            w
        )),
        (3usize..9, 3usize..9, 1u64..500, 1u64..4).prop_map(move |(r, c, s, w)| weigh(
            generators::torus(r, c),
            s,
            w
        )),
        (8usize..40, 0usize..30, 1u64..500, 1u64..20).prop_map(move |(n, tail, s, w)| weigh(
            generators::lollipop(n, 4, tail, s),
            s,
            w
        )),
        (2usize..30, 0usize..6, 1u64..500, 1u64..20).prop_map(move |(n, pairs, s, w)| {
            let mut g = generators::disjoint_union(
                &generators::road_network(n.min(8), n.min(8), 0.4, s),
                &CsrGraph::empty(3),
            );
            for _ in 0..pairs {
                g = generators::disjoint_union(&g, &generators::path(2));
            }
            weigh(g, s, w)
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The exact routine on Dijkstra equals the heap-Dijkstra APSP
    /// diameter, with the same diameter and search count at 1 and 4
    /// threads.
    #[test]
    fn exact_diameter_matches_heap_apsp(g in exact_graphs()) {
        let truth = pardec::graph::naive::apsp_diameter(&g);
        let (one, four) = on_both_pools(|| diameter::exact(&g));
        prop_assert_eq!(one.diameter, truth);
        prop_assert_eq!(one, four);
        prop_assert!(one.traversals <= g.num_nodes(), "{} searches on {} nodes", one.traversals, g.num_nodes());
    }
}

proptest! {
    // Three families share the cases, and the contraction shapes split
    // theirs six ways.
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// [`assert_apsp_matches_heap_dijkstra`] on the kernel graphs.
    #[test]
    fn apsp_kernel_matches_heap_dijkstra(g in kernel_graphs()) {
        assert_apsp_matches_heap_dijkstra(&g, &vec![0; g.num_nodes()]);
    }

    /// [`assert_apsp_matches_heap_dijkstra`] at the chunked kernel's
    /// corners; the flagged shapes must really reach the hop bound.
    #[test]
    fn apsp_chunks_match_heap_dijkstra(case in chunk_graphs()) {
        let (g, wide) = case;
        let max_w = (0..g.num_nodes() as NodeId)
            .flat_map(|u| g.neighbors(u).map(|(_, w)| w))
            .max()
            .unwrap_or(0);
        let bound = (g.num_nodes() as u128 - 1) * u128::from(max_w);
        prop_assert_eq!(wide, bound >= u128::from(u32::MAX), "n = {}, max weight {}", g.num_nodes(), max_w);
        assert_apsp_matches_heap_dijkstra(&g, &vec![0; g.num_nodes()]);
    }

    /// [`assert_apsp_matches_heap_dijkstra`] under random per-node radii on
    /// the kernel graphs and the width rule's corners, each of which must
    /// hold what it promises.
    #[test]
    fn apsp_widths_and_eccentricities_match_heap_dijkstra(
        case in prop_oneof![kernel_graphs().prop_map(|g| (g, Corner::Any)), width_graphs()],
        seed in any::<u64>(),
        max_radius in prop_oneof![Just(0u64), 1u64..60, Just(u64::from(u32::MAX))],
    ) {
        let (g, corner) = case;
        let radii = radii(g.num_nodes(), seed, max_radius);
        let (diameter, bound) = assert_apsp_matches_heap_dijkstra(&g, &radii);
        let u16_max = u64::from(u16::MAX);
        match corner {
            Corner::Any => {}
            Corner::Diameter(d) => prop_assert_eq!(diameter, d),
            Corner::Slack => prop_assert!(bound >= u16_max && diameter < u16_max, "B {} Δ {}", bound, diameter),
            Corner::WideLanes => prop_assert!(bound >= u64::from(u32::MAX), "B {}", bound),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The bucketed engine equals the per-source Dijkstra oracle for every
    /// bucket width, at 1 and 4 threads, byte for byte.
    #[test]
    fn engine_matches_dijkstra_oracle(
        case in graph_and_sources(),
        delta in prop_oneof![Just(1u64), 2u64..20, Just(1_000_000u64)],
    ) {
        let (g, sources) = case;
        let (owner, dist, hops, dedup) = per_source_oracle(&g, &sources);
        let (one, four) = on_both_pools(|| multi_source_dijkstra(&g, &sources, delta));
        for parts in [one, four] {
            prop_assert_eq!(&parts.sources, &dedup);
            prop_assert_eq!(&parts.owner, &owner, "owner diverged at delta={}", delta);
            prop_assert_eq!(&parts.weighted_dist, &dist, "dist diverged at delta={}", delta);
            prop_assert_eq!(&parts.hops, &hops, "hops diverged at delta={}", delta);
        }
    }

    /// Unit weights degenerate to the unweighted level-synchronous wave:
    /// same owners, weighted distance = BFS level = hops.
    #[test]
    fn unit_weights_match_unweighted_frontier(
        g in (3usize..70, 0usize..120, 1u64..500).prop_map(|(n, m, s)| {
            generators::gnm(n, m.min(n * (n - 1) / 2), s)
        }),
        raw in proptest::collection::vec(0usize..1 << 16, 1..5),
        delta in prop_oneof![Just(1u64), Just(3u64)],
    ) {
        let sources: Vec<NodeId> = raw.iter().map(|&i| (i % g.num_nodes()) as NodeId).collect();
        let edges: Vec<_> = g.edges().map(|(u, v)| (u, v, 1u64)).collect();
        let wg = WeightedGraph::from_edges(g.num_nodes(), &edges);
        let parts = multi_source_dijkstra(&wg, &sources, delta);
        let (bfs, owner) = multi_source_bfs(&g, &sources, FrontierStrategy::TopDown);
        // The engine numbers owners by deduplicated activation order, the
        // BFS by source-list position; both orders agree on first
        // occurrences, so the winning *center node* is identical.
        for v in 0..g.num_nodes() {
            let engine_center =
                (parts.owner[v] != INVALID_NODE).then(|| parts.sources[parts.owner[v] as usize]);
            let bfs_center = (owner[v] != INVALID_NODE).then(|| sources[owner[v] as usize]);
            prop_assert_eq!(engine_center, bfs_center, "owner diverged at node {}", v);
        }
        for v in 0..g.num_nodes() {
            if bfs.dist[v] == INFINITE_DIST {
                prop_assert_eq!(parts.weighted_dist[v], INFINITE_WEIGHT);
            } else {
                prop_assert_eq!(parts.weighted_dist[v], bfs.dist[v] as u64);
                prop_assert_eq!(parts.hops[v], bfs.dist[v]);
            }
        }
    }

    /// Engine-backed `weighted_cluster` is byte-identical to the sequential
    /// heap oracle at every δ and pool size, and the clustering validates.
    #[test]
    fn weighted_cluster_matches_naive_and_validates(
        g in arbitrary_weighted(),
        tau in 1usize..5,
        seed in 0u64..1000,
    ) {
        let params = ClusterParams::new(tau, seed);
        let oracle = naive::weighted_cluster(&g, &params);
        oracle.validate(&g).unwrap();
        for delta in [1u64, 7, 100_000] {
            let p = ClusterParams::new(tau, seed).with_delta(delta);
            let (one, four) = on_both_pools(|| weighted_cluster(&g, &p));
            prop_assert_eq!(&one, &oracle, "1-thread engine diverged at delta={}", delta);
            prop_assert_eq!(&four, &oracle, "4-thread engine diverged at delta={}", delta);
        }
    }

    /// Paper guarantee: the weighted diameter approximation brackets the
    /// true (per-component max) weighted diameter, at any δ.
    #[test]
    fn weighted_diameter_brackets_truth(
        g in arbitrary_weighted(),
        tau in 1usize..4,
        seed in 0u64..1000,
        delta in prop_oneof![Just(1u64), 5u64..200],
    ) {
        let truth = g.apsp_diameter();
        let a = weighted_diameter(&g, &ClusterParams::new(tau, seed).with_delta(delta));
        prop_assert!(a.lower_bound <= truth, "lower {} > true {}", a.lower_bound, truth);
        prop_assert!(a.upper_bound >= truth, "upper {} < true {}", a.upper_bound, truth);
        prop_assert_eq!(a.quotient_nodes, a.clustering.num_clusters());
        a.clustering.validate(&g).unwrap();
    }

    /// `from_edges` is order-independent: shuffling the edge list (and
    /// flipping orientations) builds a byte-identical graph.
    #[test]
    fn from_edges_is_permutation_independent(
        n in 1usize..40,
        raw in proptest::collection::vec((0u32..40, 0u32..40, 1u64..50), 0..120),
        shuffle_seed in 0u64..1000,
    ) {
        let edges: Vec<_> = raw
            .into_iter()
            .map(|(u, v, w)| (u % n as u32, v % n as u32, w))
            .collect();
        let reference = WeightedGraph::from_edges(n, &edges);
        let mut rng = StdRng::seed_from_u64(shuffle_seed);
        let mut permuted = edges;
        for i in (1..permuted.len()).rev() {
            let j = rng.gen_range(0..i + 1);
            permuted.swap(i, j);
        }
        for e in permuted.iter_mut() {
            if rng.gen::<bool>() {
                *e = (e.1, e.0, e.2); // orientation must not matter either
            }
        }
        prop_assert_eq!(WeightedGraph::from_edges(n, &permuted), reference);
    }
}
