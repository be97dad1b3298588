//! The runtime's headline guarantee, asserted end-to-end: for a fixed seed,
//! decomposition, diameter approximation, and HADI produce **byte-identical**
//! results on a 1-thread pool and on a 4-thread pool.
//!
//! This holds because the rayon shim splits reductions by input length only
//! (the merge tree never consults the worker count) and merges partial
//! results left-to-right, and because every racy claim in the algorithms
//! (CAS frontier claims, `fetch_min` cluster proposals) is value-determinate
//! regardless of which thread wins.

use pardec::prelude::*;

/// Runs `f` once inside a 1-thread pool and once inside a 4-thread pool and
/// returns both outputs, rendered to bytes via `Debug`.
fn on_both_pools<T: std::fmt::Debug + Send>(f: impl Fn() -> T + Sync + Send) -> (String, String) {
    let run = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool construction cannot fail");
        let out = pool.install(&f);
        format!("{out:?}")
    };
    (run(1), run(4))
}

fn workload_graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        (
            "powerlaw",
            generators::windowed_preferential_attachment(6_000, 6, 0.025, 11),
        ),
        ("road", generators::road_network(45, 45, 0.4, 12)),
        ("mesh", generators::mesh(60, 55)),
    ]
}

#[test]
fn decompose_is_byte_identical_across_pool_sizes() {
    for (name, g) in workload_graphs() {
        let (one, four) = on_both_pools(|| {
            let r = cluster(&g, &ClusterParams::new(8, 42));
            (
                r.clustering.assignment.clone(),
                r.clustering.dist_to_center.clone(),
                r.clustering.num_clusters(),
            )
        });
        assert_eq!(one, four, "cluster() diverged on {name}");

        let (one, four) = on_both_pools(|| {
            let r = cluster2(&g, &ClusterParams::new(8, 42));
            r.clustering.assignment.clone()
        });
        assert_eq!(one, four, "cluster2() diverged on {name}");
    }
}

#[test]
fn diameter_is_byte_identical_across_pool_sizes() {
    for (name, g) in workload_graphs() {
        let (one, four) = on_both_pools(|| {
            let a = approximate_diameter(&g, &DiameterParams::new(8, 42));
            (
                a.lower_bound,
                a.estimate(),
                a.radius,
                a.quotient_nodes,
                // The contraction-kernel ledger is part of the contract too:
                // cut-arc and combined-arc counts must not depend on pool
                // size.
                a.quotient_kernel,
            )
        });
        assert_eq!(one, four, "approximate_diameter() diverged on {name}");
    }
}

/// The contraction kernel end-to-end: the quotient, the weighted quotient
/// and the cut size of a real decomposition are byte-identical across pool
/// sizes — CSR arrays, weights, and the kernel ledger.
#[test]
fn quotient_is_byte_identical_across_pool_sizes() {
    for (name, g) in workload_graphs() {
        let labels_and_dist = {
            let r = cluster(&g, &ClusterParams::new(8, 42));
            (
                r.clustering.assignment.clone(),
                r.clustering.dist_to_center.clone(),
                r.clustering.num_clusters(),
            )
        };
        let (labels, dist, k) = &labels_and_dist;
        let (one, four) = on_both_pools(|| {
            let (q, qs) = pardec::graph::quotient::quotient_with_stats(&g, labels, *k);
            let (wq, ws) =
                pardec::graph::quotient::weighted_quotient_with_stats(&g, labels, dist, *k);
            let cut = pardec::graph::quotient::cut_size(&g, labels);
            (q, qs, wq, ws, cut)
        });
        assert_eq!(one, four, "quotient machinery diverged on {name}");
    }
}

/// The edge-list reader parses its text in parallel pieces and builds the
/// CSR in parallel stripes; the graph must not depend on the pool size. The
/// text spans several 256 KiB parse pieces and two build stripes, with its
/// edges written in a shuffled order, half of them reversed and one in
/// eight twice.
#[test]
fn read_edge_list_is_byte_identical_across_pool_sizes() {
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    let g = generators::windowed_preferential_attachment(50_000, 12, 0.025, 7);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    edges.shuffle(&mut rng);
    let mut text = Vec::new();
    for &(u, v) in &edges {
        let (a, b) = if rng.gen::<bool>() { (u, v) } else { (v, u) };
        let copies = if rng.gen_range(0..8u32) == 0 { 2 } else { 1 };
        for _ in 0..copies {
            text.extend_from_slice(format!("{a}\t{b}\n").as_bytes());
        }
    }
    assert!(g.num_edges() > 2 * (1 << 18) && text.len() > 4 * (256 << 10));
    let read = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool construction cannot fail")
            .install(|| io::read_edge_list(&mut &text[..]).expect("the text is well formed"))
    };
    let (one, four) = (read(1), read(4));
    assert_eq!(one, g, "read_edge_list diverged from the written graph");
    assert_eq!(four, one, "read_edge_list diverged across pool sizes");
}

/// Baswana–Sen spanner construction (sequential phase loops + counting-sort
/// CSR build) is byte-identical across pool sizes.
#[test]
fn spanner_is_byte_identical_across_pool_sizes() {
    for (name, g) in workload_graphs() {
        for k in [2usize, 3] {
            let (one, four) = on_both_pools(|| {
                let s = pardec::graph::spanner::baswana_sen(&g, k, 42);
                (s.graph, s.stretch)
            });
            assert_eq!(one, four, "baswana_sen(k={k}) diverged on {name}");
        }
    }
}

#[test]
fn mpx_is_byte_identical_across_pool_sizes() {
    for (name, g) in workload_graphs() {
        let (one, four) = on_both_pools(|| {
            let r = mpx(&g, 0.15, 42);
            (r.clustering, r.steps)
        });
        assert_eq!(one, four, "mpx() diverged on {name}");
    }
}

#[test]
fn weighted_cluster_is_byte_identical_across_pool_sizes() {
    for (name, g) in workload_graphs() {
        // Derive deterministic weights from the unweighted workload graph.
        let edges: Vec<(NodeId, NodeId, u64)> = g
            .edges()
            .map(|(u, v)| (u, v, u64::from((u * 31 + v) % 7) + 1))
            .collect();
        let wg = WeightedGraph::from_edges(g.num_nodes(), &edges);
        let (one, four) = on_both_pools(|| weighted_cluster(&wg, &ClusterParams::new(4, 42)));
        assert_eq!(one, four, "weighted_cluster() diverged on {name}");
    }
}

fn weighted_workload_graphs() -> Vec<(&'static str, WeightedGraph)> {
    workload_graphs()
        .into_iter()
        .map(|(name, g)| {
            let edges: Vec<(NodeId, NodeId, u64)> = g
                .edges()
                .map(|(u, v)| (u, v, u64::from((u * 31 + v) % 7) + 1))
                .collect();
            (name, WeightedGraph::from_edges(g.num_nodes(), &edges))
        })
        .collect()
}

/// The weighted pipeline's full invariance matrix: the engine-backed
/// `weighted_cluster` equals the retained sequential heap oracle
/// (`weighted_cluster::naive`) byte for byte, on a 1-thread and a 4-thread
/// pool, at every bucket width δ — outputs must depend on neither the pool
/// size nor `--delta`.
#[test]
fn weighted_cluster_is_delta_and_pool_invariant() {
    use pardec::core::weighted_cluster::naive;
    for (name, wg) in weighted_workload_graphs() {
        let oracle = naive::weighted_cluster(&wg, &ClusterParams::new(4, 42));
        for delta in [1u64, 3, 1000] {
            let params = ClusterParams::new(4, 42).with_delta(delta);
            let (one, four) = on_both_pools(|| weighted_cluster(&wg, &params));
            assert_eq!(
                format!("{oracle:?}"),
                one,
                "engine (1 thread, delta={delta}) diverged from naive on {name}"
            );
            assert_eq!(
                one, four,
                "weighted_cluster(delta={delta}) diverged across pools on {name}"
            );
        }
    }
}

/// `weighted_diameter` (decomposition + weighted quotient + APSP + double
/// sweep) is byte-identical across pool sizes and bucket widths. The trace
/// records δ and the bucket count, which legitimately vary with δ, so the
/// row compares everything else.
#[test]
fn weighted_diameter_is_delta_and_pool_invariant() {
    for (name, wg) in weighted_workload_graphs() {
        let mut rows = Vec::new();
        for delta in [1u64, 3, 1000] {
            let params = ClusterParams::new(4, 42).with_delta(delta);
            let (one, four) = on_both_pools(|| {
                let a = weighted_diameter(&wg, &params);
                (
                    a.lower_bound,
                    a.upper_bound,
                    a.weighted_radius,
                    a.hop_radius,
                    a.quotient_nodes,
                    a.quotient_edges,
                    a.quotient_kernel,
                    a.clustering,
                )
            });
            assert_eq!(
                one, four,
                "weighted_diameter(delta={delta}) diverged across pools on {name}"
            );
            rows.push(one);
        }
        for row in &rows {
            assert_eq!(
                &rows[0], row,
                "weighted_diameter bounds depend on delta on {name}"
            );
        }
    }
}

/// The all-sources weighted kernels run sources in fixed chunks, so the
/// packed APSP triangle, its eccentricities and the diameter are
/// byte-identical across pool sizes — on the weighted quotient of a real
/// decomposition (bucket queue) and on the same quotient with weights
/// scaled past the bucket cap (heap fallback). The triangle's largest
/// finite entry is the `u64` diameter, and the kernel's too.
#[test]
fn weighted_apsp_is_byte_identical_across_pool_sizes() {
    for (name, g) in workload_graphs() {
        let c = cluster(&g, &ClusterParams::new(8, 42)).clustering;
        let wq = c.weighted_quotient(&g);
        let heavy_edges: Vec<(NodeId, NodeId, u64)> = (0..wq.num_nodes() as NodeId)
            .flat_map(|u| wq.upper_neighbors(u).map(move |(v, w)| (u, v, w * 10_000)))
            .collect();
        let heavy = WeightedGraph::from_edges(wq.num_nodes(), &heavy_edges);
        for (queue, q) in [("bucket", &wq), ("heap", &heavy)] {
            let (one, four) = on_both_pools(|| (q.apsp_upper(&c.radii), q.apsp_diameter()));
            assert_eq!(one, four, "{queue} APSP diverged across pools on {name}");
            let (upper, diameter) = (q.apsp_upper(&c.radii), q.apsp_diameter());
            let largest = upper.triangle.iter().filter(|&d| d != u64::MAX).max();
            assert_eq!(largest.unwrap_or(0), diameter, "{queue} on {name}");
            assert_eq!(upper.diameter, diameter, "{queue} on {name}");
        }
    }
}

/// A power-law graph of small diameter whose middle levels are wide enough
/// for the frontier engine's parallel pass (asserted where it is used).
/// Kept out of [`workload_graphs`], which every other test here shares.
fn wide_powerlaw() -> CsrGraph {
    generators::preferential_attachment(12_000, 8, 13)
}

/// Top-down levels of a wave from `sources` that ran on the pool.
fn parallel_steps_of_wave<G: NeighborAccess>(g: &G, sources: &[NodeId]) -> usize {
    let mut eng = pardec::graph::frontier::FrontierEngine::new(g, FrontierStrategy::TopDown);
    for &s in sources {
        eng.add_source(s);
    }
    eng.run();
    eng.parallel_steps()
}

/// The frontier engine's full contract in one matrix: for every strategy,
/// 1-thread and 4-thread pools agree, and all strategies agree with each
/// other — over raw multi-source BFS and over the full decomposition. The
/// shared workloads keep every level below the engine's parallel grain; the
/// wide power-law graph, on both backends, takes the parallel pass.
#[test]
fn frontier_strategies_byte_identical_across_pool_sizes() {
    fn check<G: NeighborAccess>(name: &str, g: &G, sources: &[NodeId]) {
        use pardec::graph::frontier::multi_source_bfs;
        let mut bfs_outputs = Vec::new();
        let mut cluster_outputs = Vec::new();
        for strategy in FrontierStrategy::ALL {
            let (one, four) = on_both_pools(|| {
                let (r, owner) = multi_source_bfs(g, sources, strategy);
                (r.dist, owner, r.visited, r.levels)
            });
            assert_eq!(one, four, "msbfs/{strategy} diverged on {name}");
            bfs_outputs.push(one);

            let (one, four) = on_both_pools(|| {
                let r = cluster(g, &ClusterParams::new(8, 42).with_frontier(strategy));
                r.clustering
            });
            assert_eq!(one, four, "cluster/{strategy} diverged on {name}");
            cluster_outputs.push(one);
        }
        for (output, strategy) in bfs_outputs.iter().zip(FrontierStrategy::ALL) {
            assert_eq!(
                &bfs_outputs[0], output,
                "msbfs strategies disagree on {name} ({strategy} vs topdown)"
            );
        }
        for (output, strategy) in cluster_outputs.iter().zip(FrontierStrategy::ALL) {
            assert_eq!(
                &cluster_outputs[0], output,
                "cluster strategies disagree on {name} ({strategy} vs topdown)"
            );
        }
    }
    let sources_of = |n: usize| -> Vec<NodeId> {
        let n = n as NodeId;
        (0..16).map(|i| i * (n / 16)).collect()
    };
    for (name, g) in workload_graphs() {
        let sources = sources_of(g.num_nodes());
        check(name, &g, &sources);
        if name == "road" {
            assert_eq!(
                parallel_steps_of_wave(&g, &sources),
                0,
                "road went parallel"
            );
        }
    }
    let wide = wide_powerlaw();
    let sources = sources_of(wide.num_nodes());
    let compressed = CcsrGraph::from_csr(&wide);
    assert!(parallel_steps_of_wave(&wide, &sources) > 0);
    assert!(parallel_steps_of_wave(&compressed, &sources) > 0);
    check("powerlaw-wide/plain", &wide, &sources);
    check("powerlaw-wide/compressed", &compressed, &sources);
}

/// The compressed backend's determinism contract: the graph representation
/// is a memory knob only. For every workload graph, `cluster()`,
/// `approximate_diameter()` and a 16-source `multi_source_bfs` produce
/// byte-identical output across the full `{plain, compressed} × {1 thread,
/// 4 threads}` matrix — the gap-decoded neighbor stream, read through the
/// engine's per-traversal record index, feeds the exact same frontier waves
/// as the plain arrays.
#[test]
fn backends_are_byte_identical_across_pool_sizes() {
    for (name, g) in workload_graphs() {
        let reprs = [
            ("plain", GraphRepr::Plain(g.clone())),
            ("compressed", GraphRepr::Compressed(CcsrGraph::from_csr(&g))),
        ];
        let mut rows: Vec<(String, String, String)> = Vec::new();
        // 16 sources spread over the id range: a multi-source wave through
        // the engine's indexed form of each backend.
        let n = g.num_nodes();
        let sources: Vec<NodeId> = (0..16).map(|i| (i * n / 16) as NodeId).collect();
        for (backend, repr) in &reprs {
            let (one, four) = on_both_pools(|| {
                let r = cluster(repr, &ClusterParams::new(8, 42));
                let d = approximate_diameter(repr, &DiameterParams::new(8, 42));
                let (bfs, owner) = pardec::graph::frontier::multi_source_bfs(
                    repr,
                    &sources,
                    FrontierStrategy::TopDown,
                );
                (
                    r.clustering,
                    r.trace,
                    d.lower_bound,
                    d.estimate(),
                    d.radius,
                    d.quotient_nodes,
                    d.quotient_kernel,
                    bfs.dist,
                    owner,
                )
            });
            assert_eq!(
                one, four,
                "{backend} backend diverged across pool sizes on {name}"
            );
            rows.push((backend.to_string(), one, four));
        }
        for (backend, one, four) in &rows[1..] {
            assert_eq!(
                &rows[0].1, one,
                "{backend} (1 thread) diverged from plain on {name}"
            );
            assert_eq!(
                &rows[0].2, four,
                "{backend} (4 threads) diverged from plain on {name}"
            );
        }
    }
}

/// The MR emulation after the radix-shuffle + combiner refactor: for a
/// fixed seed, `mr_cluster` and `mr_hadi` (the Table 4 competitors that run
/// on [`pardec::mr::VertexEngine`]) produce byte-identical results on a
/// 1-thread and a 4-thread pool — even though the *default* partition count
/// is pool-size dependent (4 × threads): the map-side combiner is
/// commutative and associative, so neither the chunk grid nor the thread
/// interleaving can reach the outputs. A generic radix round is covered by
/// `tests/proptests_mr.rs`.
#[test]
fn mr_cluster_is_byte_identical_across_pool_sizes() {
    use pardec::core::mr_impl::mr_cluster;
    for (name, g) in workload_graphs() {
        let (one, four) = on_both_pools(|| {
            let r = mr_cluster(&g, &ClusterParams::new(8, 42));
            (r.clustering, r.supersteps, r.trace)
        });
        assert_eq!(one, four, "mr_cluster() diverged on {name}");
    }
}

#[test]
fn mr_hadi_is_byte_identical_across_pool_sizes() {
    use pardec::core::hadi::mr_hadi;
    for (name, g) in workload_graphs() {
        let (one, four) = on_both_pools(|| {
            let mut p = HadiParams::new(3);
            p.trials = 8;
            // The full estimator output, including the f64 neighbourhood
            // sums only the fixed merge tree keeps stable.
            let (r, stats) = mr_hadi(&g, &p);
            (r, stats.total_map_pairs())
        });
        assert_eq!(one, four, "mr_hadi() diverged on {name}");
    }
}

/// Explicit partition counts (including the odd `3` that CI pins via
/// `PARDEC_PARTITIONS`) never change MR results either.
#[test]
fn mr_cluster_is_partition_count_invariant() {
    use pardec::core::mr_impl::mr_cluster_with;
    use pardec::mr::MrConfig;
    let g = generators::windowed_preferential_attachment(3_000, 6, 0.025, 11);
    let reference = mr_cluster_with(
        &g,
        &ClusterParams::new(8, 42),
        &MrConfig::with_partitions(1),
    );
    for partitions in [2usize, 3, 7, 16] {
        let r = mr_cluster_with(
            &g,
            &ClusterParams::new(8, 42),
            &MrConfig::with_partitions(partitions),
        );
        assert_eq!(
            r.clustering, reference.clustering,
            "clustering diverged at {partitions} partitions"
        );
        assert_eq!(r.supersteps, reference.supersteps);
    }
}

#[test]
fn hadi_is_byte_identical_across_pool_sizes() {
    for (name, g) in workload_graphs() {
        let (one, four) = on_both_pools(|| {
            // The full result — including the f64 neighbourhood-function
            // estimates, the part only the fixed merge tree can keep stable.
            hadi(&g, &HadiParams::new(3))
        });
        assert_eq!(one, four, "hadi() diverged on {name}");
    }
}

#[test]
fn parallel_bfs_matches_sequential_bfs_on_a_real_pool() {
    let g = wide_powerlaw();
    assert!(
        parallel_steps_of_wave(&g, &[0]) > 0,
        "no level ran in parallel"
    );
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .expect("pool construction cannot fail");
    let seq = pardec::graph::traversal::bfs(&g, 0);
    let par = pool.install(|| frontier::single_source_bfs(&g, 0, FrontierStrategy::TopDown));
    assert_eq!(seq.dist, par.dist);
    assert_eq!(seq.visited, par.visited);
    assert_eq!(seq.levels, par.levels);
}

/// The observability layer's hard constraint, end-to-end: cluster,
/// diameter, and the serve execute path produce **byte-identical** outputs
/// with tracing enabled and disabled, at 1 and 4 threads. Tracing is a pure
/// side channel — spans and metrics buffer per thread and never feed back
/// into any algorithm.
#[test]
fn tracing_on_off_is_byte_identical_across_pool_sizes() {
    use pardec::core::wire;
    use pardec::obs;

    let g = generators::road_network(30, 30, 0.4, 9);
    let n = g.num_nodes() as u32;

    let run_all = || {
        let r = cluster(&g, &ClusterParams::new(8, 42));
        let d = approximate_diameter(&g, &DiameterParams::new(8, 42));
        let session = Session::build(
            g.clone(),
            &SessionParams::new(6, 42).with_frontier(FrontierStrategy::TopDown),
        );
        let responses: Vec<Vec<u8>> = [
            wire::Request::Info,
            wire::Request::Distance((0..64).map(|i| (i % n, (i * 31 + 7) % n)).collect()),
            wire::Request::ClusterOf((0..64).map(|i| (i * 13) % n).collect()),
            wire::Request::Eccentricity((0..16).map(|i| (i * 17 + 3) % n).collect()),
            wire::Request::Nearest {
                sources: (0..8).map(|i| (i * 53) % n).collect(),
                probes: (0..64).map(|i| (i * 7 + 1) % n).collect(),
            },
        ]
        .iter()
        .map(|req| wire::execute(&session, req))
        .collect();
        (r.clustering, d.lower_bound, d.estimate(), responses)
    };

    for threads in [1usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool construction cannot fail");
        obs::disable();
        let off = format!("{:?}", pool.install(run_all));
        obs::enable();
        let on = format!("{:?}", pool.install(run_all));
        obs::disable();
        let events = obs::drain();
        assert!(
            !events.is_empty(),
            "tracing was enabled but recorded no events at {threads} threads"
        );
        assert_eq!(off, on, "tracing perturbed results at {threads} threads");
    }
}

#[test]
fn serve_responses_are_byte_identical_across_pool_sizes() {
    // The serve daemon's determinism contract: the exact response bytes —
    // results, ledger counts, everything after the strategy byte — are
    // independent of the worker-pool size the queries execute on.
    use pardec::core::wire;

    let g = generators::road_network(30, 30, 0.4, 9);
    let n = g.num_nodes() as u32;
    let session = Session::build(
        g,
        &SessionParams::new(6, 42).with_frontier(FrontierStrategy::TopDown),
    );

    let requests = [
        wire::Request::Info,
        wire::Request::Distance((0..256).map(|i| (i % n, (i * 31 + 7) % n)).collect()),
        wire::Request::ClusterOf((0..256).map(|i| (i * 13) % n).collect()),
        wire::Request::Eccentricity((0..64).map(|i| (i * 17 + 3) % n).collect()),
        wire::Request::Nearest {
            sources: (0..16).map(|i| (i * 53) % n).collect(),
            probes: (0..256).map(|i| (i * 7 + 1) % n).collect(),
        },
    ];

    let (one, four) = on_both_pools(|| {
        requests
            .iter()
            .map(|req| wire::execute(&session, req))
            .collect::<Vec<Vec<u8>>>()
    });
    assert_eq!(one, four, "serve responses diverged across pool sizes");

    // And the 256-probe NEAREST batch is answered by exactly one wave.
    let resp = pardec::core::wire::decode_response(&wire::execute(&session, &requests[4])).unwrap();
    assert_eq!(resp.status, 0);
    assert_eq!(resp.waves, 1, "a batch must run as one multi-source wave");
    assert_eq!(resp.batch, 256);
    assert!(resp.wave_rounds >= 1);
}
