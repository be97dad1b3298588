//! Property-based tests (proptest) over the DESIGN.md §6 invariants:
//! random graphs × random parameters, checking partition validity, theorem
//! bounds, diameter sandwiches, sketch semilattice laws, and MR primitive
//! equivalence with their sequential counterparts.

use pardec::prelude::*;
use proptest::prelude::*;
use proptest::strategy::Just;

/// Strategy: a connected graph from one of the workspace families, with a
/// size small enough for exact verification.
fn connected_graph() -> impl Strategy<Value = CsrGraph> {
    prop_oneof![
        (2usize..14, 2usize..14).prop_map(|(r, c)| generators::mesh(r, c)),
        (20usize..200, 1u64..1000).prop_map(|(n, s)| {
            let g = generators::gnm(n, (n * 3 / 2).min(n * (n - 1) / 2), s);
            components::largest_component(&g).0
        }),
        (4usize..12, 1u64..1000).prop_map(|(side, s)| generators::road_network(side, side, 0.4, s)),
        (10usize..150, 1u64..1000).prop_map(|(n, s)| generators::preferential_attachment(
            n.max(4),
            3.min(n - 1),
            s
        )),
        (3usize..100).prop_map(generators::path),
        (3usize..60).prop_map(generators::cycle),
    ]
}

/// Strategy: a graph for the exact diameter routine, connected or not:
/// random, power-law and road-like graphs, the shapes where its node bounds
/// close nothing (cycles, tori) or everything (stars, cliques), and
/// disjoint unions with isolated nodes and pairs.
fn exact_diameter_graph() -> impl Strategy<Value = CsrGraph> {
    let part = prop_oneof![
        (1usize..120, 0usize..200, 1u64..1000).prop_map(|(n, m, s)| generators::gnm(
            n,
            m.min(n * (n - 1) / 2),
            s
        )),
        (20usize..250, 1usize..4, 0.02f64..0.5, 1u64..1000)
            .prop_map(|(n, m, w, s)| { generators::windowed_preferential_attachment(n, m, w, s) }),
        (20usize..250, 1usize..4, 1u64..1000)
            .prop_map(|(n, m, s)| generators::preferential_attachment(n, m, s)),
        (2usize..14, 2usize..14, 1u64..1000)
            .prop_map(|(r, c, s)| generators::road_network(r, c, 0.4, s)),
        (1usize..80).prop_map(generators::path),
        (3usize..80).prop_map(generators::cycle),
        (3usize..10, 3usize..10).prop_map(|(r, c)| generators::torus(r, c)),
        (2usize..40).prop_map(generators::star),
        (2usize..16).prop_map(generators::complete),
        (8usize..40, 0usize..40, 1u64..1000)
            .prop_map(|(n, tail, s)| generators::lollipop(n, 4, tail, s)),
        Just(CsrGraph::empty(1)),
        Just(generators::path(2)),
    ];
    prop::collection::vec(part, 1..5).prop_map(|parts| {
        parts
            .iter()
            .fold(CsrGraph::empty(0), |g, p| generators::disjoint_union(&g, p))
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

proptest! {
    // Wrong answers from a skipped node show up on a few percent of these
    // graphs, so this property runs more cases than the others.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The exact diameter routine (BFS kernel) equals all-pairs BFS on
    /// connected and disconnected graphs, and its diameter and search count
    /// are the same at 1 and 4 threads; `ifub` agrees on connected graphs.
    #[test]
    fn exact_diameter_matches_all_pairs_bfs(g in exact_diameter_graph()) {
        let truth = diameter::apsp_diameter(&g);
        let (one, four) = on_both_pools(|| diameter::exact(&g));
        prop_assert_eq!(one.diameter, u64::from(truth));
        prop_assert_eq!(one, four);
        prop_assert_eq!(one.components, components::connected_components(&g).0);
        if one.components == 1 {
            let (d, searches) = diameter::ifub(&g, 0);
            prop_assert_eq!(d, truth);
            prop_assert!(searches <= g.num_nodes(), "{} searches on {} nodes", searches, g.num_nodes());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CLUSTER always returns a valid partition into connected clusters,
    /// and its cluster count respects the Theorem 1 bound (with a generous
    /// constant).
    #[test]
    fn cluster_partition_valid(g in connected_graph(), tau in 1usize..8, seed in 0u64..1u64 << 40) {
        let r = cluster(&g, &ClusterParams::new(tau, seed));
        prop_assert!(r.clustering.validate(&g).is_ok(), "{:?}", r.clustering.validate(&g));
        let n = g.num_nodes().max(2);
        let logn = (n as f64).log2();
        let bound = (16.0 * tau as f64 * logn * logn).ceil() as usize + 8;
        prop_assert!(r.clustering.num_clusters() <= bound.max(n),
            "{} clusters exceeds bound {bound}", r.clustering.num_clusters());
    }

    /// CLUSTER2's radius respects Lemma 2 (`R_ALG2 ≤ 2·R_ALG·log n`) and the
    /// result is a valid partition.
    #[test]
    fn cluster2_partition_and_radius(g in connected_graph(), tau in 1usize..6, seed in 0u64..1u64 << 40) {
        let r = cluster2(&g, &ClusterParams::new(tau, seed));
        prop_assert!(r.clustering.validate(&g).is_ok());
        let n = g.num_nodes().max(2);
        let bound = (2.0 * r.r_alg.max(1) as f64 * (n as f64).log2()).ceil() as u32;
        prop_assert!(r.clustering.max_radius() <= bound,
            "R_ALG2 {} > bound {bound}", r.clustering.max_radius());
    }

    /// MPX returns a valid partition for any positive β.
    #[test]
    fn mpx_partition_valid(g in connected_graph(), beta in 0.01f64..4.0, seed in 0u64..1u64 << 40) {
        let r = mpx(&g, beta, seed);
        prop_assert!(r.clustering.validate(&g).is_ok());
    }

    /// The full diameter sandwich on arbitrary connected graphs:
    /// `Δ_C ≤ Δ ≤ Δ″ ≤ Δ′`.
    #[test]
    fn diameter_sandwich(g in connected_graph(), tau in 1usize..6, seed in 0u64..1u64 << 40) {
        let delta = diameter::apsp_diameter(&g) as u64;
        let a = approximate_diameter(&g, &DiameterParams::new(tau, seed));
        prop_assert!(a.lower_bound <= delta, "lb {} > Δ {delta}", a.lower_bound);
        let w = a.upper_bound_weighted.unwrap();
        prop_assert!(w >= delta, "Δ″ {w} < Δ {delta}");
        prop_assert!(w <= a.upper_bound, "Δ″ {w} > Δ′ {}", a.upper_bound);
    }

    /// Quotient graphs: an edge exists iff some graph edge crosses the two
    /// clusters; the weighted quotient's weights are achievable path
    /// lengths (≥ 1, ≤ 2·radius + 1).
    #[test]
    fn quotient_edge_iff_cut(g in connected_graph(), tau in 1usize..6, seed in 0u64..1u64 << 40) {
        let c = cluster(&g, &ClusterParams::new(tau, seed)).clustering;
        let q = c.quotient(&g);
        // Every graph edge is either intra-cluster or reflected in q.
        for (u, v) in g.edges() {
            let (cu, cv) = (c.assignment[u as usize], c.assignment[v as usize]);
            if cu != cv {
                prop_assert!(q.has_edge(cu, cv), "missing quotient edge ({cu}, {cv})");
            }
        }
        // Every quotient edge has a witness cut edge.
        for (a, b) in q.edges() {
            let witness = g.edges().any(|(u, v)| {
                let (cu, cv) = (c.assignment[u as usize], c.assignment[v as usize]);
                (cu, cv) == (a, b) || (cu, cv) == (b, a)
            });
            prop_assert!(witness, "spurious quotient edge ({a}, {b})");
        }
        let wq = c.weighted_quotient(&g);
        let rmax = c.max_radius() as u64;
        for u in 0..wq.num_nodes() as NodeId {
            for (_, w) in wq.neighbors(u) {
                prop_assert!(w >= 1 && w <= 2 * rmax + 1, "weight {w} outside [1, {}]", 2 * rmax + 1);
            }
        }
    }

    /// The distance oracle never underestimates (sampled sources).
    #[test]
    fn oracle_upper_bounds(g in connected_graph(), tau in 1usize..5, seed in 0u64..1u64 << 40) {
        let oracle = DistanceOracle::build(&g, tau, seed, pardec::core::diameter::Decomposition::Cluster);
        let truth = traversal::bfs(&g, 0).dist;
        for v in 0..g.num_nodes() as NodeId {
            prop_assert!(oracle.query(0, v) >= truth[v as usize] as u64);
        }
        prop_assert_eq!(oracle.query(0, 0), 0);
    }

    /// FM sketch semilattice laws on arbitrary item sets.
    #[test]
    fn fm_semilattice(xs in prop::collection::vec(any::<u64>(), 0..200),
                      ys in prop::collection::vec(any::<u64>(), 0..200),
                      seed in any::<u64>()) {
        let build = |items: &[u64]| {
            let mut s = FmSketch::new(8, seed);
            for &x in items { s.add(x); }
            s
        };
        let (a, b) = (build(&xs), build(&ys));
        // Commutativity.
        let mut ab = a.clone(); ab.merge(&b);
        let mut ba = b.clone(); ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        // Idempotence.
        let mut aa = a.clone(); aa.merge(&a);
        prop_assert_eq!(&aa, &a);
        // Merge = union of inserts.
        let mut union_items = xs.clone();
        union_items.extend_from_slice(&ys);
        prop_assert_eq!(&ab, &build(&union_items));
    }

    /// HLL estimates are within loose rigorous error bands and merges are
    /// monotone in the estimate.
    #[test]
    fn hll_estimate_and_merge(n in 1usize..3000, seed in any::<u64>()) {
        let mut s = HllSketch::new(10, seed);
        for x in 0..n as u64 { s.add(x); }
        let est = s.estimate();
        // precision 10 -> ~3.25% standard error; allow 10 sigma + small-n slack.
        let err = (est - n as f64).abs() / n as f64;
        prop_assert!(err < 0.35, "n = {n}, est = {est}");
        let mut bigger = s.clone();
        let mut extra = HllSketch::new(10, seed);
        for x in 0..(2 * n) as u64 { extra.add(x); }
        bigger.merge(&extra);
        prop_assert!(bigger.estimate() >= s.estimate() * 0.999);
    }

    /// MR sort and prefix sum match their sequential counterparts for any
    /// input.
    #[test]
    fn mr_primitives_equiv(items in prop::collection::vec(any::<u32>(), 0..2000), seed in any::<u64>()) {
        let mut eng = MrEngine::new(MrConfig::with_partitions(7));
        let got = pardec::mr::primitives::mr_sort(&mut eng, items.clone(), seed).unwrap();
        let mut expect = items.clone();
        expect.sort();
        prop_assert_eq!(got, expect);

        let values: Vec<u64> = items.iter().map(|&x| (x % 1000) as u64).collect();
        let got = pardec::mr::primitives::mr_prefix_sum(&mut eng, values.clone()).unwrap();
        let mut acc = 0u64;
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(got[i], acc);
            acc += v;
        }
    }

    /// MR BFS equals sequential BFS on arbitrary (also disconnected) graphs.
    #[test]
    fn mr_bfs_equiv(n in 1usize..120, m in 0usize..240, seed in any::<u64>()) {
        let m = m.min(n * (n - 1) / 2);
        let g = generators::gnm(n, m, seed);
        let seq = traversal::bfs(&g, 0);
        let mr = pardec::mr::algo::mr_bfs(&g, 0);
        prop_assert_eq!(mr.values, seq.dist);
    }

    /// Gonzalez radius is monotone nonincreasing in k, and the k-center
    /// objective matches a direct multi-source BFS.
    #[test]
    fn gonzalez_monotone(g in connected_graph(), seed in 0u64..1u64 << 40) {
        let n = g.num_nodes();
        prop_assume!(n >= 3);
        let r1 = gonzalez(&g, 1, seed).unwrap();
        let r2 = gonzalez(&g, (n / 2).max(2), seed).unwrap();
        prop_assert!(r2.radius <= r1.radius);
        prop_assert_eq!(
            r1.radius,
            pardec::core::kcenter::kcenter_objective(&g, &r1.centers)
        );
    }
}
