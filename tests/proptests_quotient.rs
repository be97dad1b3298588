//! Property tests for the parallel contraction kernel: arbitrary graphs ×
//! arbitrary labelings, asserting that every kernel-built contraction path
//! is **byte-for-byte** equal to its retained seed-era sequential reference
//! (`pardec_graph::naive`) — and that outputs are identical on a 1-thread
//! and a 4-thread pool.
//!
//! The naive implementations are the executable spec: a sort-and-`dedup`
//! builder and a `HashMap` min-combine for the weighted quotient. The
//! kernel must reproduce their canonical CSR arrays exactly, not just
//! isomorphically.

use pardec::prelude::*;
use pardec_graph::{combine, naive};
use proptest::prelude::*;
use proptest::strategy::Just;

/// An arbitrary (possibly disconnected, duplicate- and loop-ridden) edge
/// list over `n` nodes, plus a labeling into `k` clusters and per-node
/// center distances. Raw draws are reduced modulo `n`/`k`, which keeps the
/// shim's independent-strategy model while still covering every shape.
fn labelled_graph() -> impl Strategy<Value = (CsrGraph, Vec<NodeId>, Vec<u32>, usize)> {
    const MAX_N: usize = 40;
    (
        1usize..MAX_N,
        1usize..10,
        proptest::collection::vec((any::<u32>(), any::<u32>()), 0..250),
        proptest::collection::vec(any::<u32>(), MAX_N..MAX_N + 1),
        proptest::collection::vec(0u32..50, MAX_N..MAX_N + 1),
    )
        .prop_map(|(n, k, edges, labels, dists)| {
            let edges: Vec<(NodeId, NodeId)> = edges
                .into_iter()
                .map(|(u, v)| ((u as usize % n) as NodeId, (v as usize % n) as NodeId))
                .collect();
            let labels: Vec<NodeId> = labels[..n]
                .iter()
                .map(|&l| (l as usize % k) as NodeId)
                .collect();
            let dists = dists[..n].to_vec();
            let g = GraphBuilder::new(n).add_edges(edges).build();
            (g, labels, dists, k)
        })
}

/// A graph of one to three sweep chunks, `n` within a few nodes of a chunk
/// edge, with a labeling from full collapse to none: one cluster, a few
/// random clusters, blocks of consecutive ids, or singletons — or one
/// scheme below a random node and another above it, so that chunks whose
/// tables hold every pair meet chunks whose tables fill and spill in one
/// sweep. Edges mix near neighbors with random pairs.
fn chunked_graph() -> impl Strategy<Value = (CsrGraph, Vec<NodeId>, Vec<u32>, usize)> {
    (1usize..4, 0usize..5, (0usize..4, 0usize..4), any::<u64>()).prop_map(
        |(chunks, nudge, (below, above), seed)| {
            use rand::{Rng, SeedableRng};
            let n = chunks * combine::SWEEP_CHUNK + nudge - 2;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let edges: Vec<(NodeId, NodeId)> = (0..2 * n)
                .map(|_| {
                    let u = rng.gen_range(0..n);
                    let v = if rng.gen_bool(0.5) {
                        (u + rng.gen_range(1usize..6)).min(n - 1)
                    } else {
                        rng.gen_range(0..n)
                    };
                    (u as NodeId, v as NodeId)
                })
                .collect();
            let few = rng.gen_range(2usize..40);
            let block = rng.gen_range(2usize..64);
            let pivot = rng.gen_range(0..n);
            // Labels below `n` per scheme: 0 one cluster, 1 a few random
            // clusters, 2 blocks, 3 singletons.
            let label = |scheme: usize, v: usize, rng: &mut rand::rngs::StdRng| match scheme {
                0 => 0,
                1 => rng.gen_range(0..few),
                2 => v / block,
                _ => v,
            };
            let labels: Vec<NodeId> = (0..n)
                .map(|v| label(if v < pivot { below } else { above }, v, &mut rng) as NodeId)
                .collect();
            let dists: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..50)).collect();
            let g = GraphBuilder::new(n).add_edges(edges).build();
            (g, labels, dists, n)
        },
    )
}

fn on_pool<T: Send>(threads: usize, f: impl Fn() -> T + Sync + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool construction cannot fail")
        .install(f)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `GraphBuilder::build` (kernel symmetrize + dedup scatter) equals the
    /// seed-era sort-dedup build on arbitrary edge soups, at both pool
    /// sizes.
    #[test]
    fn builder_build_equals_naive(
        n in 1usize..60,
        edges in proptest::collection::vec((0u32..60, 0u32..60), 0..300),
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let edges: Vec<(NodeId, NodeId)> = edges
            .into_iter()
            .map(|(u, v)| (u % n as NodeId, v % n as NodeId))
            .collect();
        let expected = naive::build_csr(n, &edges);
        let built = on_pool(threads, || {
            GraphBuilder::new(n).add_edges(edges.clone()).build()
        });
        prop_assert_eq!(&built, &expected);
        prop_assert!(built.check_invariants().is_ok());
    }

    /// Kernel quotient ≡ naive quotient, byte-for-byte.
    #[test]
    fn quotient_equals_naive(
        input in labelled_graph(),
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let (g, labels, _dists, k) = input;
        let expected = naive::quotient(&g, &labels, k);
        let got = on_pool(threads, || quotient::quotient(&g, &labels, k));
        prop_assert_eq!(&got, &expected);
        // The kernel ledger accounts every undirected cut edge.
        let (_, stats) = quotient::quotient_with_stats(&g, &labels, k);
        prop_assert_eq!(stats.input_pairs, quotient::cut_size(&g, &labels));
        prop_assert_eq!(stats.output_pairs, got.num_edges());
    }

    /// Kernel weighted quotient ≡ naive HashMap min-combine, byte-for-byte
    /// (offsets, targets, and weights all compared via `WeightedGraph: Eq`).
    #[test]
    fn weighted_quotient_equals_naive(
        input in labelled_graph(),
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let (g, labels, dists, k) = input;
        let expected = naive::weighted_quotient(&g, &labels, &dists, k);
        let got = on_pool(threads, || {
            quotient::weighted_quotient(&g, &labels, &dists, k)
        });
        prop_assert_eq!(got, expected);
    }

    /// Parallel `cut_size` ≡ the sequential filter-count it replaced.
    #[test]
    fn cut_size_equals_naive(input in labelled_graph()) {
        let (g, labels, _dists, _k) = input;
        prop_assert_eq!(
            quotient::cut_size(&g, &labels),
            naive::cut_size(&g, &labels)
        );
    }

    /// The raw kernel against a sequential sort + fold oracle, over
    /// arbitrary key/value multisets and two commutative folds (min and
    /// sum).
    #[test]
    fn combine_by_key_equals_sorted_fold_oracle(
        pairs in proptest::collection::vec((0u64..500, 0u64..1000), 0..600),
        use_min in any::<bool>(),
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let fold = move |a: (u64, u64), b: (u64, u64)| {
            (a.0, if use_min { a.1.min(b.1) } else { a.1 + b.1 })
        };
        let mut expected = pairs.clone();
        expected.sort_by_key(|p| p.0);
        let mut folded: Vec<(u64, u64)> = Vec::new();
        for p in expected {
            match folded.last_mut() {
                Some(last) if last.0 == p.0 => *last = fold(*last, p),
                _ => folded.push(p),
            }
        }
        let (got, stats) = on_pool(threads, || {
            combine::combine_by_key(pairs.clone(), 500, |p| p.0, fold)
        });
        prop_assert_eq!(&got, &folded);
        prop_assert_eq!(stats.input_pairs, pairs.len());
        prop_assert_eq!(stats.output_pairs, got.len());
    }
}

proptest! {
    // Each case builds graphs of up to 24,578 nodes and 49k edges.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On graphs of one to three sweep chunks, under labelings from full
    /// collapse to none, one weighted sweep equals both naive quotients
    /// (its topology is the unweighted one), the unweighted sweep agrees,
    /// and the ledger counts every cut edge in and every quotient edge
    /// out, at 1 and 4 threads.
    #[test]
    fn chunked_sweeps_equal_naive(input in chunked_graph()) {
        let (g, labels, dists, k) = input;
        let expected = naive::weighted_quotient(&g, &labels, &dists, k);
        let expected_q = naive::quotient(&g, &labels, k);
        let cut = naive::cut_size(&g, &labels);
        for threads in [1, 4] {
            let ((wq, wstats), (q, stats)) = on_pool(threads, || {
                (
                    quotient::weighted_quotient_with_stats(&g, &labels, &dists, k),
                    quotient::quotient_with_stats(&g, &labels, k),
                )
            });
            prop_assert_eq!(&wq, &expected);
            prop_assert_eq!(&wq.topology(), &expected_q);
            prop_assert_eq!(&q, &expected_q);
            prop_assert_eq!(wstats, stats);
            prop_assert_eq!(stats.input_pairs, cut);
            prop_assert_eq!(stats.output_pairs, expected_q.num_edges());
        }
    }
}
