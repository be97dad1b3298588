//! Contraction-kernel bench: the parallel combine kernel against the
//! seed-era sequential baselines on the §4 quotient machinery — one JSON
//! line per configuration (the `bench_frontier` format).
//!
//! ```text
//! cargo bench -p pardec-bench --bench bench_quotient
//! ```
//!
//! Scale with `--scale {ci,default,full}` or `PARDEC_SCALE`. Every
//! kernel-vs-naive comparison asserts **byte-identical** output (CSR
//! arrays, weights) before its timing is reported — the bench doubles as an
//! end-to-end equivalence check. Legs: mesh / power-law / road clusterings
//! at 1, 2, and 4 threads, for the unweighted quotient, the weighted
//! quotient, both quotients from one sweep against two builds (also with
//! every power-law node its own cluster, where no record collapses), and
//! the builder's counting-sort build; the text edge-list
//! reader at 1 and 4 threads, with its own allocation peak; plus the weighted
//! quotient APSP diameter the seed bench tracked, and that APSP against the
//! seed-era heap APSP with every weight scaled by 1, 8, 128 and 1000 (and
//! on a weighted path) — the measurement behind the bucket queue's cap; and
//! the oracle's APSP triangle (`apsp_upper`, on its contraction hierarchy,
//! sixteen sources per sweep) against one built from per-source heap
//! Dijkstra, at 1 and 2 threads, on each leg's weighted quotient, a path
//! and a weighted cycle, with the kernel's lane and entry widths and core
//! table size.

use pardec_bench::workloads::Scale;
use pardec_bench::{scale_from_args, timed};
use pardec_core::{cluster, ClusterParams};
use pardec_graph::quotient::{
    quotient_with_stats, weighted_quotient, weighted_quotient_with_stats,
};
use pardec_graph::weighted::{max_finite, upper_entry, Apsp, Triangle};
use pardec_graph::{generators, io, naive, CsrGraph, GraphBuilder, NodeId, WeightedGraph};
use rayon::prelude::*;

const THREAD_CONFIGS: [usize; 3] = [1, 2, 4];

/// Best-of-three wall-clock of `f` inside a pool of `threads` workers.
fn best_of_3<T: Send>(threads: usize, f: impl Fn() -> T + Sync + Send) -> (T, f64) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool construction cannot fail");
    let _ = pool.install(&f); // warm-up
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..3 {
        let (r, secs) = timed(|| pool.install(&f));
        best = best.min(secs);
        result = Some(r);
    }
    (result.expect("ran at least once"), best)
}

fn legs(scale: Scale) -> Vec<(&'static str, CsrGraph)> {
    let (mesh_side, pl_nodes, road_side) = match scale {
        Scale::Ci => (120usize, 30_000usize, 60usize),
        Scale::Default => (300, 150_000, 140),
        Scale::Full => (1000, 600_000, 320),
    };
    vec![
        ("mesh", generators::mesh(mesh_side, mesh_side)),
        (
            "powerlaw",
            generators::windowed_preferential_attachment(pl_nodes, 8, 0.025, 7),
        ),
        (
            "road",
            generators::road_network(road_side, road_side, 0.4, 12),
        ),
    ]
}

fn main() {
    let scale = scale_from_args();
    let legs = legs(scale);
    for (name, g) in &legs {
        let cl = cluster(g, &ClusterParams::new(8, 7)).clustering;
        let k = cl.num_clusters();
        quotient_rows(name, g, &cl.assignment, &cl.dist_to_center, k);
        for threads in THREAD_CONFIGS {
            // Builder: the counting-sort build vs the seed-era sort-dedup
            // build over the raw edge list.
            let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
            let (naive_g, naive_secs) =
                best_of_3(threads, || naive::build_csr(g.num_nodes(), &edges));
            let (kernel_g, kernel_secs) = best_of_3(threads, || {
                let mut b = GraphBuilder::with_capacity(g.num_nodes(), edges.len());
                b.extend_edges(edges.iter().copied());
                b.build()
            });
            assert_eq!(
                kernel_g, naive_g,
                "counting-sort and naive builder diverged on {name} at {threads} threads"
            );
            println!(
                "{{\"bench\":\"quotient\",\"case\":\"builder\",\"graph\":\"{}\",\
                 \"edges\":{},\"threads\":{},\"seconds_naive\":{:.6},\
                 \"seconds_kernel\":{:.6},\"speedup_kernel_vs_naive\":{:.3},\
                 \"peak_alloc_bytes\":{}}}",
                name,
                edges.len(),
                threads,
                naive_secs,
                kernel_secs,
                naive_secs / kernel_secs,
                pardec_bench::alloc::peak_bytes(),
            );
        }

        reader_rows(name, g);

        // The seed bench's quotient-diameter row, kept for trajectory
        // continuity (4-thread pool).
        let wq = weighted_quotient(g, &cl.assignment, &cl.dist_to_center, k);
        let (diam, secs) = best_of_3(4, || wq.apsp_diameter());
        println!(
            "{{\"bench\":\"quotient\",\"case\":\"weighted-apsp-diameter\",\"graph\":\"{}\",\
             \"clusters\":{},\"diameter\":{},\"threads\":4,\"seconds\":{:.6},\
             \"peak_alloc_bytes\":{}}}",
            name,
            k,
            diam,
            secs,
            pardec_bench::alloc::peak_bytes(),
        );
        scaled_apsp_rows(name, &wq);
        apsp_upper_rows(name, &wq);
    }
    // No collapse: every node of the power-law graph is its own cluster, so
    // every cut edge is a quotient edge of its own — the pre-combine's
    // worst case, where every chunk fills its table and spills the rest.
    let (_, powerlaw) = &legs[1];
    let n = powerlaw.num_nodes();
    let singletons: Vec<NodeId> = (0..n as NodeId).collect();
    quotient_rows("powerlaw-singletons", powerlaw, &singletons, &vec![0; n], n);
    // The bucket queue's worst shape: on a path the heap never holds more
    // than two entries, while every bucket jump is as long as an edge.
    let path: Vec<(NodeId, NodeId, u64)> = (0..PATH_NODES - 1).map(|u| (u, u + 1, 1)).collect();
    let path = WeightedGraph::from_edges(PATH_NODES as usize, &path);
    scaled_apsp_rows("path", &path);
    // Paths and cycles contract completely, in about log2(n) rounds: the
    // hierarchy's deepest up-arc chains.
    apsp_upper_rows("path", &path);
    let cycle: Vec<(NodeId, NodeId, u64)> = (0..CYCLE_NODES)
        .map(|u| (u, (u + 1) % CYCLE_NODES, u64::from(u % 9) + 1))
        .collect();
    apsp_upper_rows(
        "cycle",
        &WeightedGraph::from_edges(CYCLE_NODES as usize, &cycle),
    );
}

/// The quotient rows of one labeling of `g`, per pool size: the unweighted
/// and the weighted quotient against their seed-era sequential builds, and
/// the `one-sweep` row — both quotients from the one sweep sessions run
/// (`weighted_quotient_with_stats` and its topology) against two builds
/// (`quotient_with_stats` + `weighted_quotient`), outputs asserted equal.
fn quotient_rows(name: &str, g: &CsrGraph, labels: &[NodeId], dist: &[u32], k: usize) {
    for threads in THREAD_CONFIGS {
        // Unweighted quotient: kernel dedup vs the seed-era sequential
        // sort-dedup pass.
        let (naive_q, naive_secs) = best_of_3(threads, || naive::quotient(g, labels, k));
        let ((kernel_q, stats), kernel_secs) =
            best_of_3(threads, || quotient_with_stats(g, labels, k));
        assert_eq!(
            kernel_q, naive_q,
            "kernel and naive quotient diverged on {name} at {threads} threads"
        );
        println!(
            "{{\"bench\":\"quotient\",\"case\":\"unweighted\",\"graph\":\"{}\",\
             \"nodes\":{},\"edges\":{},\"clusters\":{},\"cut_arcs\":{},\
             \"quotient_arcs\":{},\"combine_ratio\":{:.3},\"threads\":{},\
             \"seconds_naive\":{:.6},\"seconds_kernel\":{:.6},\
             \"speedup_kernel_vs_naive\":{:.3},\
             \"peak_alloc_bytes\":{}}}",
            name,
            g.num_nodes(),
            g.num_edges(),
            k,
            stats.input_pairs,
            stats.output_pairs,
            stats.combine_ratio(),
            threads,
            naive_secs,
            kernel_secs,
            naive_secs / kernel_secs,
            pardec_bench::alloc::peak_bytes(),
        );

        // Weighted quotient: kernel min-combine vs the HashMap pass.
        let (naive_wq, naive_secs) =
            best_of_3(threads, || naive::weighted_quotient(g, labels, dist, k));
        let (kernel_wq, kernel_secs) = best_of_3(threads, || weighted_quotient(g, labels, dist, k));
        assert_eq!(
            kernel_wq, naive_wq,
            "kernel and naive weighted quotient diverged on {name} at {threads} threads"
        );
        println!(
            "{{\"bench\":\"quotient\",\"case\":\"weighted\",\"graph\":\"{}\",\
             \"clusters\":{},\"threads\":{},\"seconds_naive\":{:.6},\
             \"seconds_kernel\":{:.6},\"speedup_kernel_vs_naive\":{:.3},\
             \"peak_alloc_bytes\":{}}}",
            name,
            k,
            threads,
            naive_secs,
            kernel_secs,
            naive_secs / kernel_secs,
            pardec_bench::alloc::peak_bytes(),
        );

        // Both quotients: two builds vs one sweep.
        let (two, two_secs) = best_of_3(threads, || {
            (
                quotient_with_stats(g, labels, k),
                weighted_quotient(g, labels, dist, k),
            )
        });
        let (one, one_secs) = best_of_3(threads, || {
            let (wq, stats) = weighted_quotient_with_stats(g, labels, dist, k);
            ((wq.topology(), stats), wq)
        });
        assert_eq!(
            one, two,
            "one sweep and two builds diverged on {name} at {threads} threads"
        );
        println!(
            "{{\"bench\":\"quotient\",\"case\":\"one-sweep\",\"graph\":\"{}\",\
             \"clusters\":{},\"cut_arcs\":{},\"combine_ratio\":{:.3},\"threads\":{},\
             \"seconds_two_builds\":{:.6},\"seconds_one_sweep\":{:.6},\
             \"speedup_one_sweep\":{:.3},\"peak_alloc_bytes\":{}}}",
            name,
            k,
            stats.input_pairs,
            stats.combine_ratio(),
            threads,
            two_secs,
            one_secs,
            two_secs / one_secs,
            pardec_bench::alloc::peak_bytes(),
        );
    }
}

/// One `reader` row per pool size: `g` written as a text edge list, then
/// `io::read_edge_list` on the in-memory text (best of 3), checked equal to
/// `g`. `peak_alloc_bytes` is the high-water mark of one more read above
/// what was live before it, the output graph included; `transient_per_edge`
/// is what that peak holds beyond the output graph, per edge.
fn reader_rows(name: &str, g: &CsrGraph) {
    let mut text = Vec::new();
    io::write_edge_list(g, &mut text).expect("writing to a Vec cannot fail");
    let read = || io::read_edge_list(&mut &text[..]).expect("the written text reads back");
    for threads in [1, 4] {
        let (read_g, secs) = best_of_3(threads, read);
        assert_eq!(
            &read_g, g,
            "read_edge_list diverged on {name} at {threads} threads"
        );
        drop(read_g);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool construction cannot fail");
        let live = pardec_bench::alloc::current_bytes();
        pardec_bench::alloc::reset_peak();
        let read_g = pool.install(read);
        let peak = pardec_bench::alloc::peak_bytes().saturating_sub(live);
        let graph_bytes = std::mem::size_of_val(read_g.raw_offsets())
            + std::mem::size_of_val(read_g.raw_targets());
        println!(
            "{{\"bench\":\"quotient\",\"case\":\"reader\",\"graph\":\"{}\",\
             \"edges\":{},\"text_bytes\":{},\"threads\":{},\"seconds\":{:.6},\
             \"peak_alloc_bytes\":{},\"transient_per_edge\":{:.1}}}",
            name,
            g.num_edges(),
            text.len(),
            threads,
            secs,
            peak,
            peak.saturating_sub(graph_bytes) as f64 / g.num_edges().max(1) as f64,
        );
    }
}

/// Weight multipliers of the `weighted-apsp-scaled` rows.
const WEIGHT_SCALES: [u64; 4] = [1, 8, 128, 1000];
const PATH_NODES: NodeId = 600;

/// One `weighted-apsp-scaled` row per weight multiplier: the library APSP
/// diameter (bucket queue while the largest weight is below its cap, else
/// heap) against the seed-era heap APSP on the same graph, 4-thread pool.
/// The two diameters must agree.
fn scaled_apsp_rows(name: &str, wq: &WeightedGraph) {
    for scale in WEIGHT_SCALES {
        let edges: Vec<(NodeId, NodeId, u64)> = (0..wq.num_nodes() as NodeId)
            .flat_map(|u| wq.upper_neighbors(u).map(move |(v, w)| (u, v, w * scale)))
            .collect();
        let g = WeightedGraph::from_edges(wq.num_nodes(), &edges);
        let max_w = edges.iter().map(|&(_, _, w)| w).max().unwrap_or(0);
        let (heap_diam, heap_secs) = best_of_3(4, || naive::apsp_diameter(&g));
        let (diam, secs) = best_of_3(4, || g.apsp_diameter());
        assert_eq!(
            diam, heap_diam,
            "APSP kernel diverged from the heap APSP on {name} at weight scale {scale}"
        );
        println!(
            "{{\"bench\":\"quotient\",\"case\":\"weighted-apsp-scaled\",\"graph\":\"{}\",\
             \"nodes\":{},\"edges\":{},\"weight_scale\":{},\"max_weight\":{},\
             \"diameter\":{},\"threads\":4,\"seconds_heap\":{:.6},\"seconds_kernel\":{:.6},\
             \"speedup_kernel_vs_heap\":{:.3},\"peak_alloc_bytes\":{}}}",
            name,
            g.num_nodes(),
            g.num_edges(),
            scale,
            max_w,
            diam,
            heap_secs,
            secs,
            heap_secs / secs,
            pardec_bench::alloc::peak_bytes(),
        );
    }
}

const CYCLE_NODES: NodeId = 2000;

/// The APSP of per-source heap Dijkstra (`naive::dijkstra`), parallel over
/// sources, with every radius 0: the reference the `weighted-apsp-upper`
/// rows check `apsp_upper` against, its triangle narrowed by the width rule.
fn heap_apsp(g: &WeightedGraph) -> Apsp {
    let n = g.num_nodes() as NodeId;
    let rows: Vec<Vec<u64>> = (0..n)
        .into_par_iter()
        .map(|i| naive::dijkstra(g, i))
        .collect();
    let ecc: Vec<u64> = rows.iter().map(|row| max_finite(row)).collect();
    let diameter = ecc.iter().copied().max().unwrap_or(0);
    let upper = rows
        .iter()
        .enumerate()
        .flat_map(|(i, row)| &row[i..])
        .map(|&d| upper_entry(d).expect("bench distances fit a u32 entry"))
        .collect();
    Apsp {
        triangle: Triangle::wide(upper).narrow(diameter),
        ecc,
        diameter,
    }
}

/// The `weighted.apsp` span's kernel fields of one traced `apsp_upper`
/// call: `core_nodes`, `core_edges`, `up_arcs`, `rounds`, `lane_bits`,
/// `entry_bits` and `core_table_bytes`.
fn kernel_shape(g: &WeightedGraph) -> [u64; 7] {
    pardec_obs::drain();
    pardec_obs::enable();
    let _ = g.apsp_upper(&vec![0; g.num_nodes()]);
    pardec_obs::disable();
    let events = pardec_obs::drain();
    let span = events
        .iter()
        .find(|e| e.name == "weighted.apsp")
        .expect("apsp_upper emits a weighted.apsp span");
    [
        "core_nodes",
        "core_edges",
        "up_arcs",
        "rounds",
        "lane_bits",
        "entry_bits",
        "core_table_bytes",
    ]
    .map(
        |key| match span.fields.iter().find(|f| f.key == key).map(|f| &f.value) {
            Some(pardec_obs::Value::U64(v)) => *v,
            other => panic!("weighted.apsp span field {key}: {other:?}"),
        },
    )
}

/// One `weighted-apsp-upper` row per pool size (1 and 2 threads): the
/// library's `apsp_upper` against the heap APSP, asserted equal entry for
/// entry (width, eccentricities and diameter too) before either time is
/// reported, with the hierarchy's shape, the lane and entry widths and the
/// core table's size read off its trace span.
fn apsp_upper_rows(name: &str, g: &WeightedGraph) {
    let [core_nodes, core_edges, up_arcs, rounds, lane_bits, entry_bits, core_table_bytes] =
        kernel_shape(g);
    let radii = vec![0; g.num_nodes()];
    for threads in [1, 2] {
        let (heap, heap_secs) = best_of_3(threads, || heap_apsp(g));
        let (upper, secs) = best_of_3(threads, || g.apsp_upper(&radii));
        assert!(
            upper == heap,
            "apsp_upper diverged from the heap APSP on {name} at {threads} threads"
        );
        println!(
            "{{\"bench\":\"quotient\",\"case\":\"weighted-apsp-upper\",\"graph\":\"{}\",\
             \"nodes\":{},\"edges\":{},\"core_nodes\":{},\"core_edges\":{},\
             \"up_arcs\":{},\"rounds\":{},\"lane_bits\":{},\"entry_bits\":{},\
             \"core_table_bytes\":{},\
             \"threads\":{},\"seconds_heap\":{:.6},\
             \"seconds_kernel\":{:.6},\"speedup_kernel_vs_heap\":{:.3},\
             \"peak_alloc_bytes\":{}}}",
            name,
            g.num_nodes(),
            g.num_edges(),
            core_nodes,
            core_edges,
            up_arcs,
            rounds,
            lane_bits,
            entry_bits,
            core_table_bytes,
            threads,
            heap_secs,
            secs,
            heap_secs / secs,
            pardec_bench::alloc::peak_bytes(),
        );
    }
}
