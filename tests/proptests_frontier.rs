//! Property tests for the frontier engine's equivalence contract: on
//! arbitrary generated graphs (connected or not) and arbitrary source sets
//! (duplicates allowed), all three expansion strategies must produce
//! identical `dist`/`owner` arrays, and multi-source BFS must equal the
//! per-source sequential-BFS minimum oracle — distance-wise *and*
//! owner-wise (smallest source index among the nearest sources wins).
//!
//! `traversal::bfs` is deliberately kept as a direct queue-based
//! implementation, independent of the engine, precisely so it can serve as
//! the trusted oracle here. Staggered activation (sources added between
//! steps, as CLUSTER and MPX do) is checked against a level-synchronous
//! reference written below.

use pardec::graph::frontier::{
    multi_source_bfs, single_source_bfs, FrontierEngine, FrontierStrategy,
};
use pardec::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::OnceLock;

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

/// Graphs above the engine's sequential cut-offs: more than 2,048 nodes,
/// so a bottom-up sweep goes to the pool, and ≈ 50k–70k arcs, so the widest
/// top-down levels do too.
fn wide_graph() -> impl Strategy<Value = CsrGraph> {
    (2100usize..3000, 1u64..1000).prop_map(|(n, s)| generators::preferential_attachment(n, 12, s))
}

/// Rounds of a staggered run: activate a batch of sources, then take some
/// steps. Batches may repeat a source or name one already claimed, and
/// steps past the end of a wave (or before the first source) are no-ops.
type Schedule = Vec<(Vec<NodeId>, usize)>;

fn graph_and_schedule() -> impl Strategy<Value = (CsrGraph, Schedule)> {
    (
        prop_oneof![arbitrary_graph(), wide_graph()],
        proptest::collection::vec(
            (proptest::collection::vec(0usize..1 << 16, 0..4), 0usize..4),
            1..6,
        ),
    )
        .prop_map(|(g, raw)| {
            let n = g.num_nodes();
            let schedule = raw
                .into_iter()
                .map(|(batch, steps)| (batch.iter().map(|&i| (i % n) as NodeId).collect(), steps))
                .collect();
            (g, schedule)
        })
}

/// The labels of a staggered run: `owner`, `dist`, `sources`, which
/// activations took, and the step count.
type Labels = (Vec<NodeId>, Vec<u32>, Vec<NodeId>, Vec<bool>, usize);

/// The reference for a staggered run, one level at a time: every unclaimed
/// neighbour of the frontier takes the smallest `(owner, dist + 1)` its
/// frontier neighbours offer. The schedule's rounds come first, then levels
/// until the frontier dies out.
fn staggered_reference(g: &CsrGraph, schedule: &Schedule) -> Labels {
    let n = g.num_nodes();
    let (mut owner, mut dist) = (vec![INVALID_NODE; n], vec![INFINITE_DIST; n]);
    let (mut sources, mut accepted, mut frontier, mut steps) = (vec![], vec![], vec![], 0);
    let mut level = |owner: &mut [NodeId], dist: &mut [u32], frontier: &[NodeId]| {
        steps += 1;
        let mut best: BTreeMap<NodeId, (NodeId, u32)> = BTreeMap::new();
        for &u in frontier {
            let offer = (owner[u as usize], dist[u as usize] + 1);
            for &v in g.neighbors(u) {
                if owner[v as usize] == INVALID_NODE {
                    let slot = best.entry(v).or_insert(offer);
                    *slot = (*slot).min(offer);
                }
            }
        }
        for (&v, &(o, d)) in &best {
            owner[v as usize] = o;
            dist[v as usize] = d;
        }
        best.into_keys().collect::<Vec<_>>()
    };
    for (batch, round_steps) in schedule {
        for &s in batch {
            let free = owner[s as usize] == INVALID_NODE;
            if free {
                owner[s as usize] = sources.len() as NodeId;
                dist[s as usize] = 0;
                sources.push(s);
                frontier.push(s);
            }
            accepted.push(free);
        }
        for _ in 0..*round_steps {
            frontier = level(&mut owner, &mut dist, &frontier);
        }
    }
    while !frontier.is_empty() {
        frontier = level(&mut owner, &mut dist, &frontier);
    }
    (owner, dist, sources, accepted, steps)
}

/// Runs `schedule` on the engine and checks that [`FrontierEngine::label`]
/// agrees with `into_parts` on every node.
fn staggered_engine(g: &CsrGraph, schedule: &Schedule, strategy: FrontierStrategy) -> Labels {
    let mut eng = FrontierEngine::new(g, strategy);
    let mut accepted = vec![];
    for (batch, round_steps) in schedule {
        accepted.extend(batch.iter().map(|&s| eng.add_source(s)));
        for _ in 0..*round_steps {
            eng.step();
        }
    }
    eng.run();
    let labels: Vec<_> = (0..g.num_nodes() as NodeId).map(|v| eng.label(v)).collect();
    let steps = eng.steps();
    let parts = eng.into_parts();
    for (v, label) in labels.into_iter().enumerate() {
        let owner = parts.owner[v];
        let expected =
            (owner != INVALID_NODE).then(|| (parts.sources[owner as usize], parts.dist[v]));
        assert_eq!(label, expected, "label({v}) under {strategy}");
    }
    (parts.owner, parts.dist, parts.sources, accepted, steps)
}

/// A 1-worker and a 4-worker pool, built once for the whole file.
fn pools() -> &'static [rayon::ThreadPool; 2] {
    static POOLS: OnceLock<[rayon::ThreadPool; 2]> = OnceLock::new();
    POOLS.get_or_init(|| {
        [1, 4].map(|threads| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool construction cannot fail")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Sources activated between steps, on every strategy and on 1- and
    /// 4-worker pools, give the level-synchronous reference's labels, step
    /// count and accepted activations.
    #[test]
    fn staggered_activation_matches_level_reference(case in graph_and_schedule()) {
        let (g, schedule) = case;
        let reference = staggered_reference(&g, &schedule);
        for strategy in FrontierStrategy::ALL {
            for pool in pools() {
                let labels = pool.install(|| staggered_engine(&g, &schedule, strategy));
                prop_assert_eq!(
                    &reference, &labels,
                    "{} on {} worker(s), schedule {:?}",
                    strategy, pool.current_num_threads(), schedule
                );
            }
        }
    }

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
