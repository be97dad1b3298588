//! Property tests for the extension modules: Baswana–Sen spanners,
//! min-plus matrix algebra, the weighted decomposition, and the
//! direction-optimizing BFS.

use pardec::core::weighted_cluster::weighted_cluster;
use pardec::graph::spanner::baswana_sen;
use pardec::mr::matrix::{mr_apsp_by_squaring, mr_min_plus_multiply, MinPlusMatrix, MP_INF};
use pardec::prelude::*;
use proptest::prelude::*;

fn small_graph() -> impl Strategy<Value = CsrGraph> {
    prop_oneof![
        (2usize..10, 2usize..10).prop_map(|(r, c)| generators::mesh(r, c)),
        (10usize..120, 1u64..500)
            .prop_map(|(n, s)| { generators::gnm(n, (n * 2).min(n * (n - 1) / 2), s) }),
        (6usize..80, 1u64..500).prop_map(|(n, s)| generators::preferential_attachment(
            n.max(5),
            4.min(n - 1),
            s
        )),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Spanner: subgraph, same components, stretch ≤ 2k-1 (checked from a
    /// sampled source).
    #[test]
    fn spanner_invariants(g in small_graph(), k in 1usize..4, seed in any::<u64>()) {
        let s = baswana_sen(&g, k, seed);
        prop_assert_eq!(s.stretch as usize, 2 * k - 1);
        prop_assert!(s.graph.num_edges() <= g.num_edges());
        // Subgraph: every spanner edge exists in g.
        for (u, v) in s.graph.edges() {
            prop_assert!(g.has_edge(u, v), "spurious edge ({u}, {v})");
        }
        // Stretch from node 0.
        if g.num_nodes() > 0 {
            let orig = traversal::bfs(&g, 0).dist;
            let span = traversal::bfs(&s.graph, 0).dist;
            for v in 0..g.num_nodes() {
                if orig[v] == INFINITE_DIST {
                    prop_assert_eq!(span[v], INFINITE_DIST);
                } else {
                    prop_assert!(span[v] <= s.stretch * orig[v].max(1),
                        "stretch at {v}: {} > {} * {}", span[v], s.stretch, orig[v]);
                }
            }
        }
    }

    /// Min-plus product: MR result equals the sequential reference for any
    /// tile size; squaring closure equals Dijkstra APSP.
    #[test]
    fn minplus_matrix_laws(n in 1usize..14, edges in prop::collection::vec((0u32..14, 0u32..14, 1u64..50), 0..40), tile in 1usize..6) {
        let edges: Vec<(u32, u32, u64)> = edges.into_iter()
            .filter(|&(u, v, _)| (u as usize) < n && (v as usize) < n && u != v)
            .collect();
        let a = MinPlusMatrix::from_edges(n, &edges);
        let mut eng = MrEngine::new(MrConfig::with_partitions(4));
        let prod = mr_min_plus_multiply(&mut eng, &a, &a, tile).unwrap();
        prop_assert_eq!(&prod, &a.multiply_seq(&a));

        let closure = mr_apsp_by_squaring(&mut eng, &a, tile).unwrap();
        let wg = WeightedGraph::from_edges(n, &edges);
        for u in 0..n {
            let d = wg.dijkstra(u as u32);
            for (v, &dv) in d.iter().enumerate() {
                let expect = if dv == u64::MAX { MP_INF } else { dv };
                let got = closure.get(u, v).min(MP_INF);
                prop_assert!(got >= expect.min(MP_INF) && (got == expect || (got >= MP_INF && dv == u64::MAX)),
                    "closure[{u}][{v}] = {got} vs dijkstra {expect}");
            }
        }
    }

    /// Weighted decomposition: valid partition; hop radius ≤ weighted radius
    /// when all weights ≥ 1; unit weights reduce to the hop metric.
    #[test]
    fn weighted_cluster_invariants(n in 2usize..80, extra in 0usize..100, tau in 1usize..4, seed in any::<u64>()) {
        // Connected base: a path with random extra weighted edges.
        let mut edges: Vec<(u32, u32, u64)> = (1..n as u32).map(|v| (v - 1, v, 1 + (v as u64 % 5))).collect();
        let mut x = seed;
        for _ in 0..extra {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u = (x >> 33) as usize % n;
            let v = (x >> 13) as usize % n;
            if u != v {
                edges.push((u as u32, v as u32, 1 + (x % 9)));
            }
        }
        let g = WeightedGraph::from_edges(n, &edges);
        let r = weighted_cluster(&g, &ClusterParams::new(tau, seed));
        prop_assert!(r.validate(&g).is_ok(), "{:?}", r.validate(&g));
        for v in 0..n {
            prop_assert!((r.hops[v] as u64) <= r.weighted_dist[v] + 1);
        }
    }

    /// Direction-optimizing BFS is distance-identical to plain BFS.
    #[test]
    fn direction_optimizing_bfs_equiv(g in small_graph(), src_pick in any::<u16>()) {
        let n = g.num_nodes();
        prop_assume!(n > 0);
        let src = (src_pick as usize % n) as NodeId;
        let a = traversal::bfs(&g, src);
        let b = frontier::single_source_bfs(&g, src, FrontierStrategy::Hybrid);
        prop_assert_eq!(a.dist, b.dist);
    }
}
