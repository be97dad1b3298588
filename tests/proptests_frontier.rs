//! Property tests for the frontier engine's equivalence contract: on
//! arbitrary generated graphs (connected or not) and arbitrary source sets
//! (duplicates allowed), all three expansion strategies must produce
//! identical `dist`/`owner` arrays, and multi-source BFS must equal the
//! per-source sequential-BFS minimum oracle — distance-wise *and*
//! owner-wise (smallest source index among the nearest sources wins).
//!
//! `traversal::bfs` is deliberately kept as a direct queue-based
//! implementation, independent of the engine, precisely so it can serve as
//! the trusted oracle here.

use pardec::graph::frontier::{multi_source_bfs, single_source_bfs, FrontierStrategy};
use pardec::prelude::*;
use proptest::prelude::*;

/// An arbitrary graph from the workspace families — deliberately *not*
/// restricted to connected graphs: unreachable nodes must come out as
/// `INFINITE_DIST`/`INVALID_NODE` under every strategy.
fn arbitrary_graph() -> impl Strategy<Value = CsrGraph> {
    prop_oneof![
        (2usize..11, 2usize..11).prop_map(|(r, c)| generators::mesh(r, c)),
        (2usize..120, 0usize..200, 1u64..1000).prop_map(|(n, m, s)| generators::gnm(
            n,
            m.min(n * (n - 1) / 2),
            s
        )),
        (4usize..90, 1u64..1000).prop_map(|(n, s)| generators::preferential_attachment(
            n,
            3.min(n - 1),
            s
        )),
        (3usize..80).prop_map(generators::path),
        (3usize..50).prop_map(generators::cycle),
        (2usize..40).prop_map(generators::star),
        (2usize..16, 3usize..16).prop_map(|(a, b)| generators::disjoint_union(
            &generators::path(a),
            &generators::cycle(b)
        )),
    ]
}

/// A graph together with a non-empty source set (indices folded into range;
/// duplicates kept on purpose — a repeated source must keep its first owner).
fn graph_and_sources() -> impl Strategy<Value = (CsrGraph, Vec<NodeId>)> {
    (
        arbitrary_graph(),
        proptest::collection::vec(0usize..1 << 16, 1..7),
    )
        .prop_map(|(g, raw)| {
            let n = g.num_nodes();
            let sources = raw.iter().map(|&i| (i % n) as NodeId).collect();
            (g, sources)
        })
}

/// The simple reference: run sequential BFS from every source separately and
/// take, per node, the minimum distance — owner is the smallest source index
/// achieving it.
fn per_source_minimum_oracle(g: &CsrGraph, sources: &[NodeId]) -> (Vec<u32>, Vec<NodeId>) {
    let n = g.num_nodes();
    let mut dist = vec![INFINITE_DIST; n];
    let mut owner = vec![INVALID_NODE; n];
    for (i, &s) in sources.iter().enumerate() {
        let b = traversal::bfs(g, s);
        for v in 0..n {
            if b.dist[v] < dist[v] {
                dist[v] = b.dist[v];
                owner[v] = i as NodeId;
            }
        }
    }
    (dist, owner)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// All three strategies produce the observables of the default
    /// top-down engine.
    #[test]
    fn strategies_are_observably_identical(case in graph_and_sources()) {
        let (g, sources) = case;
        let (simple_r, simple_o) = multi_source_bfs(&g, &sources, FrontierStrategy::TopDown);
        for strategy in FrontierStrategy::ALL {
            let (r, o) = multi_source_bfs(&g, &sources, strategy);
            prop_assert_eq!(&simple_r.dist, &r.dist, "dist diverged under {}", strategy);
            prop_assert_eq!(&simple_o, &o, "owner diverged under {}", strategy);
            prop_assert_eq!(simple_r.visited, r.visited, "visited diverged under {}", strategy);
            prop_assert_eq!(simple_r.levels, r.levels, "levels diverged under {}", strategy);
        }
    }

    /// Multi-source BFS equals the per-source sequential-BFS minimum oracle,
    /// including the smallest-index ownership tie-break, under every
    /// strategy.
    #[test]
    fn multi_source_equals_per_source_minimum(case in graph_and_sources()) {
        let (g, sources) = case;
        let (oracle_dist, oracle_owner) = per_source_minimum_oracle(&g, &sources);
        for strategy in FrontierStrategy::ALL {
            let (r, o) = multi_source_bfs(&g, &sources, strategy);
            prop_assert_eq!(&oracle_dist, &r.dist, "dist vs oracle under {}", strategy);
            prop_assert_eq!(&oracle_owner, &o, "owner vs oracle under {}", strategy);
            // Structural invariants: visited counts the finite distances,
            // ownership and reachability coincide, levels is the max.
            let finite = r.dist.iter().filter(|&&d| d != INFINITE_DIST).count();
            prop_assert_eq!(r.visited, finite);
            let max_finite = r.dist.iter().copied()
                .filter(|&d| d != INFINITE_DIST).max().unwrap_or(0);
            prop_assert_eq!(r.levels, max_finite);
            for (v, (&ov, &dv)) in o.iter().zip(&r.dist).enumerate() {
                prop_assert_eq!(
                    ov == INVALID_NODE,
                    dv == INFINITE_DIST,
                    "owner/dist reachability mismatch at node {} under {}", v, strategy
                );
            }
        }
    }

    /// Single-source: every strategy agrees with the plain sequential BFS.
    #[test]
    fn single_source_matches_sequential_bfs(g in arbitrary_graph(), raw in 0usize..1 << 16) {
        let src = (raw % g.num_nodes()) as NodeId;
        let reference = traversal::bfs(&g, src);
        for strategy in FrontierStrategy::ALL {
            let r = single_source_bfs(&g, src, strategy);
            prop_assert_eq!(&reference.dist, &r.dist, "dist diverged under {}", strategy);
            prop_assert_eq!(reference.visited, r.visited, "visited diverged under {}", strategy);
            prop_assert_eq!(reference.levels, r.levels, "levels diverged under {}", strategy);
        }
    }
}
