//! Compressed-backend bench: gap-coded CSR vs plain CSR on a power-law
//! graph ten times the CI bench scale — one JSON line per (phase, backend).
//!
//! ```text
//! cargo run --release -p pardec-bench --bin bench_compressed -- --scale ci
//! ```
//!
//! Phases:
//!
//! 1. **build** — the plain-CSR build from the generator's edge list vs
//!    compressing that CSR with `CcsrGraph::from_csr`.
//! 2. **wave** — full multi-source frontier growth to cover the graph on
//!    each backend; the resulting clusterings must be equal.
//! 3. **cluster** — the paper's CLUSTER(τ) decomposition on each backend;
//!    the resulting clusterings must be equal.
//!
//! Every row reports the graph's resident heap bytes, bytes per undirected
//! edge, wall-clock seconds, arcs/second, and `peak_alloc_bytes` from the
//! crate's counting allocator. A final summary row states the compression
//! ratio (asserted ≥ 3×) and the honest iteration slowdown of the
//! compressed backend on each traversal phase.

use pardec_bench::workloads::{granularity_target, tau_for_target, Regime, Scale};
use pardec_bench::{alloc, scale_from_args, timed};
use pardec_core::cluster::{cluster, ClusterParams};
use pardec_core::clustering::Clustering;
use pardec_graph::frontier::{FrontierEngine, FrontierStrategy};
use pardec_graph::generators;
use pardec_graph::{CcsrGraph, GraphRepr, NodeId};

const SEED: u64 = 101;
const M_ATTACH: usize = 8;

/// Nodes per scale. CI bench power-law graphs top out at 20 000 nodes
/// (`workloads::social_datasets`); this bench runs ≥ 10× that.
fn nodes_for(scale: Scale) -> usize {
    match scale {
        Scale::Ci => 200_000,
        Scale::Default => 400_000,
        Scale::Full => 1_000_000,
    }
}

/// Window fraction holding the *absolute* attachment window at the CI
/// workload's size (20 000 nodes × 0.025) as `n` grows — scaling nodes
/// without inflating the neighbor-gap distribution, the same locality a
/// renumbered real-world graph exhibits at any size.
fn window_frac_for(n: usize) -> f64 {
    0.025 * 20_000.0 / n as f64
}

#[allow(clippy::too_many_arguments)]
fn emit(
    scale: Scale,
    phase: &str,
    backend: &str,
    n: usize,
    arcs: usize,
    graph_bytes: usize,
    secs: f64,
    peak: usize,
) {
    println!(
        "{{\"bench\":\"bench_compressed\",\"scale\":\"{:?}\",\"phase\":\"{}\",\
         \"backend\":\"{}\",\"nodes\":{},\"arcs\":{},\"graph_bytes\":{},\
         \"bytes_per_edge\":{:.3},\"secs\":{:.6},\"arcs_per_sec\":{:.0},\
         \"peak_alloc_bytes\":{}}}",
        scale,
        phase,
        backend,
        n,
        arcs,
        graph_bytes,
        graph_bytes as f64 / (arcs / 2).max(1) as f64,
        secs,
        arcs as f64 / secs.max(1e-9),
        peak,
    );
}

/// Covers the whole graph from a deterministic center lattice, returning
/// the wave count. The clustering is handed back for identity checks.
fn frontier_wave(g: &GraphRepr) -> (Clustering, usize) {
    let n = g.num_nodes();
    let mut eng = FrontierEngine::new(g, FrontierStrategy::default_from_env());
    let stride = (n / 64).max(1);
    for c in (0..n).step_by(stride) {
        eng.add_source(c as NodeId);
    }
    let mut waves = 0usize;
    while eng.claimed() < n && eng.step() > 0 {
        waves += 1;
    }
    // Power-law PA graphs are connected; a leftover singleton is a bug.
    assert_eq!(eng.claimed(), n, "frontier wave left nodes uncovered");
    (Clustering::from_frontier(eng), waves)
}

fn main() {
    let scale = scale_from_args();
    let n = nodes_for(scale);
    let window_frac = window_frac_for(n);
    eprintln!(
        "bench_compressed: scale {scale:?}, {n} nodes, m = {M_ATTACH} \
         (count-alloc {})",
        if alloc::enabled() { "on" } else { "off" }
    );

    // ---- phase 1: builds -------------------------------------------------
    alloc::reset_peak();
    let (plain, plain_secs) =
        timed(|| generators::windowed_preferential_attachment(n, M_ATTACH, window_frac, SEED));
    let plain_peak = alloc::peak_bytes();

    alloc::reset_peak();
    let (compressed, compress_secs) = timed(|| CcsrGraph::from_csr(&plain));
    let compress_peak = alloc::peak_bytes();

    let arcs = plain.num_arcs();
    let plain_repr = GraphRepr::Plain(plain);
    let comp_repr = GraphRepr::Compressed(compressed);
    let (plain_bytes, comp_bytes) = (plain_repr.heap_bytes(), comp_repr.heap_bytes());
    emit(
        scale,
        "build",
        "plain",
        n,
        arcs,
        plain_bytes,
        plain_secs,
        plain_peak,
    );
    emit(
        scale,
        "build",
        "compressed",
        n,
        arcs,
        comp_bytes,
        compress_secs,
        compress_peak,
    );

    let ratio = plain_bytes as f64 / comp_bytes.max(1) as f64;
    assert!(
        ratio >= 3.0,
        "compression ratio {ratio:.2}x below the 3x acceptance bar"
    );

    // ---- phase 2: frontier wave -----------------------------------------
    alloc::reset_peak();
    let ((wave_plain, waves), wave_plain_secs) = timed(|| frontier_wave(&plain_repr));
    let wave_plain_peak = alloc::peak_bytes();
    alloc::reset_peak();
    let ((wave_comp, _), wave_comp_secs) = timed(|| frontier_wave(&comp_repr));
    let wave_comp_peak = alloc::peak_bytes();
    assert_eq!(wave_plain, wave_comp, "frontier wave clusterings diverged");
    eprintln!(
        "frontier wave: {waves} waves, {} clusters",
        wave_plain.num_clusters()
    );
    emit(
        scale,
        "wave",
        "plain",
        n,
        arcs,
        plain_bytes,
        wave_plain_secs,
        wave_plain_peak,
    );
    emit(
        scale,
        "wave",
        "compressed",
        n,
        arcs,
        comp_bytes,
        wave_comp_secs,
        wave_comp_peak,
    );

    // ---- phase 3: CLUSTER(τ) --------------------------------------------
    let tau = tau_for_target(n, granularity_target(n, Regime::SmallDiameter));
    let params = ClusterParams::new(tau, SEED);
    alloc::reset_peak();
    let (cl_plain, cl_plain_secs) = timed(|| cluster(&plain_repr, &params));
    let cl_plain_peak = alloc::peak_bytes();
    alloc::reset_peak();
    let (cl_comp, cl_comp_secs) = timed(|| cluster(&comp_repr, &params));
    let cl_comp_peak = alloc::peak_bytes();
    assert_eq!(
        cl_plain.clustering, cl_comp.clustering,
        "CLUSTER output diverged between backends"
    );
    eprintln!(
        "cluster: tau {tau}, {} clusters, max radius {}",
        cl_plain.clustering.num_clusters(),
        cl_plain.clustering.max_radius()
    );
    emit(
        scale,
        "cluster",
        "plain",
        n,
        arcs,
        plain_bytes,
        cl_plain_secs,
        cl_plain_peak,
    );
    emit(
        scale,
        "cluster",
        "compressed",
        n,
        arcs,
        comp_bytes,
        cl_comp_secs,
        cl_comp_peak,
    );

    // ---- summary ---------------------------------------------------------
    println!(
        "{{\"bench\":\"bench_compressed\",\"scale\":\"{:?}\",\"phase\":\"summary\",\
         \"nodes\":{},\"arcs\":{},\"compression_ratio\":{:.3},\
         \"plain_bytes_per_edge\":{:.3},\"compressed_bytes_per_edge\":{:.3},\
         \"wave_slowdown\":{:.3},\"cluster_slowdown\":{:.3},\
         \"compress_peak_bytes\":{},\"plain_build_peak_bytes\":{}}}",
        scale,
        n,
        arcs,
        ratio,
        plain_bytes as f64 / (arcs / 2) as f64,
        comp_bytes as f64 / (arcs / 2) as f64,
        wave_comp_secs / wave_plain_secs.max(1e-9),
        cl_comp_secs / cl_plain_secs.max(1e-9),
        compress_peak,
        plain_peak,
    );
}
