//! Subcommand implementations for the `pardec` binary.
//!
//! Commands form a tree (`pardec <command> [<sub>] [options]`). The
//! `clust`/`dist`/`oracle` handlers and the `serve` daemon all run on the
//! same [`pardec_core::Session`] entry point.

use crate::args::Args;
use pardec_core::hadi::mr_hadi_with;
use pardec_core::mr_impl::{mr_bfs_with, mr_cluster_with};
use pardec_core::{
    gonzalez, kcenter, ClusterParams, Clustering, HadiParams, Session, SessionAlgo, SessionParams,
};
use pardec_graph::{
    diameter, generators, io, stats, CsrGraph, FrontierStrategy, NodeId, INFINITE_DIST,
};
use pardec_mr::{MrConfig, MrStats};
use std::error::Error;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};

/// Usage banner shared by `help` and error paths.
pub const USAGE: &str = "\
usage: pardec <command> [<sub>] [options]

global options:
  --threads N     size of the worker pool used by all parallel phases
                  (default: RAYON_NUM_THREADS, else all available cores)
  --frontier S    frontier expansion strategy for BFS/growth phases:
                  topdown | bottomup | hybrid (default: PARDEC_FRONTIER,
                  else topdown; output is byte-identical either way)
  --partitions P  shuffle/superstep partition count of the MR emulation
                  (default: PARDEC_PARTITIONS, else 4 x pool threads;
                  shapes the communication ledger, never results)
  --trace FILE    write a JSONL span/metric trace to FILE at exit
                  (default: PARDEC_TRACE, else off; never changes results)
  --backend B     adjacency storage backend for Session-backed commands:
                  plain | compressed (default: PARDEC_BACKEND, else plain;
                  compressed holds gap-coded varint CSR — a fraction of the
                  memory, a varint decode per neighbor; output is
                  byte-identical either way)

command tree:
  generate        --family mesh|torus|road|social|ba|gnm|lollipop
                  [--rows R --cols C] [--nodes N --attach M --window F
                  --extra-prob P --degree D --edges M] [--seed S] --out FILE
  stats           --graph FILE
  clust <algo>    algo: cluster | cluster2 | mpx | weighted
                  --graph FILE [--tau T] [--beta B] [--seed S] [--labels FILE]
                  weighted reads an optional third edge-list column as the
                  weight (default 1) and takes [--delta D] (bucket width of
                  the weighted engine; default PARDEC_DELTA, else the mean
                  edge weight; never changes results)
  dist <algo>     algo: approx | exact | weighted
                  --graph FILE [--tau T] [--seed S] [--exact] [--cluster2]
                  weighted approximates the weighted diameter and takes
                  [--delta D] like clust weighted
  kcenter         --graph FILE --k K [--seed S] [--gonzalez]
  oracle          --graph FILE [--tau T] [--seed S] --queries u:v[,u:v...]
  mr <algo>       algo: cluster | bfs | hadi
                  --graph FILE [--tau T] [--source V] [--trials T] [--seed S]
                  [--partitions P]
  snapshot save   --graph FILE --out FILE [--tau T] [--algorithm A] [--beta B]
                  [--seed S] [--no-oracle]   (writes a PDEC2 session snapshot)
  snapshot info   --snapshot FILE            (prints the section table)
  serve           --snapshot FILE [--addr HOST:PORT] [--accept-threads N]
                  [--checked]                (resident query daemon)
                  hardening: [--read-timeout-ms N] [--idle-timeout-ms N]
                  [--deadline-ms N] [--max-batch N] [--max-concurrent N]
                  [--max-inflight-mb N] [--allow-reload]
                  [--reload-signal FILE]  (touch FILE to hot-reload the
                  snapshot; corrupt replacements roll back)
  help";

/// Builds the global thread pool from `--threads` before any command runs.
///
/// Must be called ahead of the first parallel operation: the global pool is
/// created lazily on first use, after which its size can no longer change
/// (`ThreadPoolBuilder::build_global` then fails, which this surfaces as an
/// error). All decomposition, diameter, and sketch outputs are byte-identical
/// at any thread count — `--threads` trades wall-clock time only.
pub fn init_thread_pool(args: &Args) -> CmdResult {
    let Some(n) = args.threads()? else {
        return Ok(());
    };
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .map_err(|e| format!("--threads {n}: {e}").into())
}

pub(crate) type CmdResult = Result<(), Box<dyn Error>>;

/// Routes a parsed command line to its implementation.
pub fn dispatch(args: &Args) -> CmdResult {
    match args.command.as_str() {
        "generate" => cmd_generate(args),
        "stats" => cmd_stats(args),
        "clust" => match args.sub.as_str() {
            "weighted" => cmd_clust_weighted(args),
            algo => cmd_clust(args, algo),
        },
        "dist" => match args.sub.as_str() {
            "approx" | "" => cmd_dist_approx(args),
            "exact" => cmd_dist_exact(args),
            "weighted" => cmd_dist_weighted(args),
            other => {
                Err(format!("unknown dist algorithm {other:?} (approx | exact | weighted)").into())
            }
        },
        "kcenter" => cmd_kcenter(args),
        "oracle" => cmd_oracle(args),
        "mr" => match args.sub.as_str() {
            "cluster" => cmd_mr_cluster(args),
            "bfs" => cmd_mr_bfs(args),
            "hadi" => cmd_mr_hadi(args),
            other => Err(format!("unknown mr algorithm {other:?} (cluster | bfs | hadi)").into()),
        },
        "snapshot" => match args.sub.as_str() {
            "save" => cmd_snapshot_save(args),
            "info" => cmd_snapshot_info(args),
            other => Err(format!("unknown snapshot action {other:?} (save | info)").into()),
        },
        "serve" => crate::serve::cmd_serve(args),
        "help" => {
            out!("{USAGE}")?;
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}").into()),
    }
}

fn load_graph(args: &Args) -> Result<CsrGraph, Box<dyn Error>> {
    Ok(io::read_edge_list(&mut open_edge_list(args)?)?)
}

/// The largest read buffer for an edge-list file: the readers parse each
/// fill in parallel pieces of 256 KiB, so a fill this size keeps every
/// worker busy while memory stays bounded.
const EDGE_LIST_BUFFER: u64 = 4 << 20;

/// Opens `--graph` through a read buffer sized to the file, at most
/// [`EDGE_LIST_BUFFER`].
fn open_edge_list(args: &Args) -> Result<BufReader<File>, Box<dyn Error>> {
    let path = args.req("graph")?;
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let len = file.metadata().map_or(EDGE_LIST_BUFFER, |m| m.len());
    let capacity = len.clamp(8 << 10, EDGE_LIST_BUFFER) as usize;
    Ok(BufReader::with_capacity(capacity, file))
}

fn seed(args: &Args) -> Result<u64, crate::args::ArgError> {
    args.opt_parse("seed", 42u64, "an unsigned integer")
}

/// `--frontier` when given, else the `PARDEC_FRONTIER`/top-down default.
pub(crate) fn frontier(args: &Args) -> Result<FrontierStrategy, crate::args::ArgError> {
    Ok(args
        .frontier()?
        .unwrap_or_else(FrontierStrategy::default_from_env))
}

/// Shared [`SessionParams`] wiring for every Session-backed command:
/// `--tau` (per-command default), `--seed`, `--beta`, `--frontier`, and the
/// algorithm name (from the subcommand or `--algorithm`).
fn session_params(
    args: &Args,
    algo: &str,
    default_tau: usize,
    build_oracle: bool,
) -> Result<SessionParams, Box<dyn Error>> {
    let tau: usize = args.opt_parse("tau", default_tau, "a positive integer")?;
    let algo = match algo {
        "" | "cluster" => SessionAlgo::Cluster,
        "cluster2" => SessionAlgo::Cluster2,
        "mpx" => SessionAlgo::Mpx {
            beta: args.opt_parse("beta", 0.2, "a positive rate")?,
        },
        other => return Err(format!("unknown algorithm {other:?}").into()),
    };
    let mut params = SessionParams::new(tau, seed(args)?)
        .with_algo(algo)
        .with_frontier(frontier(args)?);
    if let Some(b) = args.backend()? {
        params = params.with_backend(b);
    }
    params.build_oracle = build_oracle;
    Ok(params)
}

fn cmd_generate(args: &Args) -> CmdResult {
    let family = args.req("family")?;
    let s = seed(args)?;
    let g = match family {
        "mesh" | "torus" => {
            let rows: usize = args.req_parse("rows", "a positive integer")?;
            let cols: usize = args.req_parse("cols", "a positive integer")?;
            if family == "mesh" {
                generators::mesh(rows, cols)
            } else {
                generators::torus(rows, cols)
            }
        }
        "road" => {
            let rows: usize = args.req_parse("rows", "a positive integer")?;
            let cols: usize = args.opt_parse("cols", rows, "a positive integer")?;
            let p: f64 = args.opt_parse("extra-prob", 0.4, "a probability")?;
            generators::road_network(rows, cols, p, s)
        }
        "social" => {
            let n: usize = args.req_parse("nodes", "a positive integer")?;
            let m: usize = args.opt_parse("attach", 8, "a positive integer")?;
            let w: f64 = args.opt_parse("window", 0.025, "a fraction in (0, 1]")?;
            generators::windowed_preferential_attachment(n, m, w, s)
        }
        "ba" => {
            let n: usize = args.req_parse("nodes", "a positive integer")?;
            let m: usize = args.opt_parse("attach", 4, "a positive integer")?;
            generators::preferential_attachment(n, m, s)
        }
        "gnm" => {
            let n: usize = args.req_parse("nodes", "a positive integer")?;
            let m: usize = args.req_parse("edges", "a positive integer")?;
            generators::gnm(n, m, s)
        }
        "lollipop" => {
            let n: usize = args.req_parse("nodes", "a positive integer")?;
            let d: usize = args.opt_parse("degree", 4, "a positive integer")?;
            let tail: usize = args.opt_parse("rows", n / 4, "a positive integer")?;
            generators::lollipop(n, d, tail, s)
        }
        other => return Err(format!("unknown family {other:?}").into()),
    };
    let out = args.req("out")?;
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let mut w = BufWriter::new(file);
    io::write_edge_list(&g, &mut w)?;
    w.flush()?;
    out!(
        "wrote {} ({} nodes, {} edges)",
        out,
        g.num_nodes(),
        g.num_edges()
    )?;
    Ok(())
}

fn cmd_stats(args: &Args) -> CmdResult {
    let g = load_graph(args)?;
    let summary = stats::summarize(&g);
    let deg = stats::degree_stats(&g);
    let (components, _) = pardec_graph::components::connected_components(&g);
    out!("nodes       {}", summary.nodes)?;
    out!("edges       {}", summary.edges)?;
    out!("avg degree  {:.2}", summary.avg_degree)?;
    out!("max degree  {}", summary.max_degree)?;
    out!("p99 degree  {}", deg.p99)?;
    out!("components  {components}")?;
    Ok(())
}

fn write_labels(path: &str, clustering: &Clustering) -> CmdResult {
    let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut w = BufWriter::new(file);
    writeln!(w, "# node\tcluster\tdist_to_center")?;
    for (v, &c) in clustering.assignment.iter().enumerate() {
        writeln!(w, "{v}\t{c}\t{}", clustering.dist_to_center[v])?;
    }
    w.flush()?;
    Ok(())
}

fn cmd_clust(args: &Args, algo: &str) -> CmdResult {
    let params = session_params(args, algo, 4, false)?;
    let session = Session::build(load_graph(args)?, &params);
    let clustering = session.clustering();
    let sizes = clustering.cluster_sizes();
    out!("algorithm     {}", params.algo.name())?;
    out!("backend       {}", session.backend())?;
    out!("clusters      {}", clustering.num_clusters())?;
    out!("max radius    {}", clustering.max_radius())?;
    out!(
        "cluster size  min {} / max {}",
        sizes.iter().min().unwrap_or(&0),
        sizes.iter().max().unwrap_or(&0)
    )?;
    let (q, kernel) = session.quotient();
    out!(
        "quotient      {} nodes / {} edges",
        q.num_nodes(),
        q.num_edges()
    )?;
    out!(
        "kernel        {} cut edges -> {} ({:.2}x combine)",
        kernel.input_pairs,
        kernel.output_pairs,
        kernel.combine_ratio()
    )?;
    if let Ok(path) = args.req("labels") {
        write_labels(path, clustering)?;
        out!("labels        written to {path}")?;
    }
    Ok(())
}

fn load_weighted_graph(args: &Args) -> Result<pardec_graph::WeightedGraph, Box<dyn Error>> {
    Ok(io::read_weighted_edge_list(&mut open_edge_list(args)?)?)
}

/// Weighted `ClusterParams` shared by `clust weighted` and `dist weighted`:
/// `--tau`, `--seed`, and `--delta` (falling back to `PARDEC_DELTA`, then
/// the mean-edge-weight heuristic, inside the engine).
fn weighted_params(args: &Args) -> Result<ClusterParams, Box<dyn Error>> {
    let tau: usize = args.opt_parse("tau", 4, "a positive integer")?;
    let mut params = ClusterParams::new(tau, seed(args)?);
    if let Some(d) = args.delta()? {
        params = params.with_delta(d);
    }
    Ok(params)
}

fn write_weighted_labels(path: &str, c: &pardec_core::WeightedClustering) -> CmdResult {
    let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut w = BufWriter::new(file);
    writeln!(w, "# node\tcluster\tweighted_dist\thops")?;
    for (v, &cl) in c.assignment.iter().enumerate() {
        writeln!(w, "{v}\t{cl}\t{}\t{}", c.weighted_dist[v], c.hops[v])?;
    }
    w.flush()?;
    Ok(())
}

fn cmd_clust_weighted(args: &Args) -> CmdResult {
    let params = weighted_params(args)?;
    let g = load_weighted_graph(args)?;
    let r = pardec_core::weighted_cluster_result(&g, &params);
    let c = &r.clustering;
    out!("algorithm     weighted-cluster")?;
    out!("clusters      {}", c.num_clusters())?;
    out!("max w-radius  {}", c.max_weighted_radius())?;
    out!("max hop-rad   {}", c.max_hop_radius())?;
    out!(
        "rounds        {} batches + {} tail singletons",
        r.trace.rounds.len(),
        r.trace.tail_singletons
    )?;
    out!(
        "buckets       {} (delta {})",
        r.trace.buckets,
        r.trace.delta
    )?;
    let (q, kernel) = c.quotient_with_stats(&g);
    out!(
        "quotient      {} nodes / {} edges",
        q.num_nodes(),
        q.num_edges()
    )?;
    out!(
        "kernel        {} cut edges -> {} ({:.2}x combine)",
        kernel.input_pairs,
        kernel.output_pairs,
        kernel.combine_ratio()
    )?;
    if let Ok(path) = args.req("labels") {
        write_weighted_labels(path, c)?;
        out!("labels        written to {path}")?;
    }
    Ok(())
}

fn cmd_dist_weighted(args: &Args) -> CmdResult {
    let params = weighted_params(args)?;
    let g = load_weighted_graph(args)?;
    let a = pardec_core::weighted_diameter(&g, &params);
    out!("lower bound (sweep)  {}", a.lower_bound)?;
    out!("upper bound (Δ″)     {}", a.upper_bound)?;
    out!("weighted radius      {}", a.weighted_radius)?;
    out!("hop radius           {}", a.hop_radius)?;
    out!(
        "quotient             {} nodes / {} edges",
        a.quotient_nodes,
        a.quotient_edges
    )?;
    out!(
        "contraction kernel   {} cut edges -> {} combined edges ({:.2}x combine, {} buckets)",
        a.quotient_kernel.input_pairs,
        a.quotient_kernel.output_pairs,
        a.quotient_kernel.combine_ratio(),
        a.quotient_kernel.buckets
    )?;
    out!(
        "rounds               {} batches ({} wave buckets, delta {})",
        a.trace.rounds.len(),
        a.trace.buckets,
        a.trace.delta
    )?;
    if args.has_flag("exact") {
        let exact = diameter::exact(&g).diameter;
        out!("exact diameter       {exact}")?;
        out!(
            "approximation ratio  {:.3}",
            a.estimate() as f64 / exact.max(1) as f64
        )?;
    }
    Ok(())
}

fn cmd_dist_exact(args: &Args) -> CmdResult {
    let g = load_graph(args)?;
    out!("exact diameter       {}", diameter::exact_diameter(&g))?;
    Ok(())
}

fn cmd_dist_approx(args: &Args) -> CmdResult {
    let algo = if args.has_flag("cluster2") {
        "cluster2"
    } else {
        "cluster"
    };
    let params = session_params(args, algo, 4, false)?;
    let session = Session::build(load_graph(args)?, &params);
    let a = session.diameter(true, None);
    out!("lower bound (Δ_C)    {}", a.lower_bound)?;
    out!("upper bound (Δ″)     {}", a.estimate())?;
    out!("cluster radius       {}", a.radius)?;
    out!(
        "quotient             {} nodes / {} edges",
        a.quotient_nodes,
        a.quotient_edges
    )?;
    // The kernel ledger describes the quotient *build*; when Theorem 4
    // sparsification replaces the quotient afterwards, the row above
    // reflects the spanner while this one keeps the pre-sparsification
    // combine, so it deliberately says "combined", not "quotient", edges.
    out!(
        "contraction kernel   {} cut edges -> {} combined edges ({:.2}x combine, {} buckets)",
        a.quotient_kernel.input_pairs,
        a.quotient_kernel.output_pairs,
        a.quotient_kernel.combine_ratio(),
        a.quotient_kernel.buckets
    )?;
    out!("growth steps         {}", a.growth_steps)?;
    if args.has_flag("exact") {
        let exact = diameter::exact_diameter(&session.graph().to_csr());
        out!("exact diameter       {exact}")?;
        out!(
            "approximation ratio  {:.3}",
            a.estimate() as f64 / exact.max(1) as f64
        )?;
    }
    Ok(())
}

fn cmd_snapshot_save(args: &Args) -> CmdResult {
    let build_oracle = !args.has_flag("no-oracle");
    let params = session_params(args, args.opt("algorithm", "cluster"), 4, build_oracle)?;
    let out = args.req("out")?;
    let session = Session::build(load_graph(args)?, &params);
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let mut w = BufWriter::new(file);
    session.save(&mut w)?;
    w.flush()?;
    out!(
        "wrote {}: {} nodes / {} edges, {} clusters (radius {}){}",
        out,
        session.graph().num_nodes(),
        session.graph().num_edges(),
        session.clustering().num_clusters(),
        session.clustering().max_radius(),
        if build_oracle { ", oracle" } else { "" }
    )?;
    Ok(())
}

fn cmd_snapshot_info(args: &Args) -> CmdResult {
    use pardec_core::session::{SECTION_CLUSTERING, SECTION_ORACLE};
    let path = args.req("snapshot")?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let snap = io::Snapshot::parse(&bytes)?;
    out!(
        "{path}: {} bytes, {} section(s)",
        bytes.len(),
        snap.sections().len()
    )?;
    out!("tag    ver       offset        bytes   share")?;
    for e in snap.sections() {
        let tag: String = e
            .tag
            .to_le_bytes()
            .iter()
            .map(|&b| if b.is_ascii_graphic() { b as char } else { '.' })
            .collect();
        out!(
            "{tag:<4}  {:>4}  {:>11}  {:>11}  {:>5.1}%",
            e.version,
            e.offset,
            e.len,
            100.0 * e.len as f64 / bytes.len().max(1) as f64
        )?;
    }
    out!("graph backend {}", snap.graph_backend())?;
    if let Some(e) = snap
        .sections()
        .iter()
        .find(|e| e.tag == io::SECTION_GRAPH_COMPRESSED)
    {
        // Compression ledger: the stored gap-coded section vs. what the
        // same graph would occupy as a plain `GRPH` payload
        // (n, arcs, (n+1) offsets, arcs targets).
        let repr = snap.graph_repr()?;
        let (n, arcs) = (repr.num_nodes(), repr.num_arcs());
        let plain = 16 + 8 * (n as u64 + 1) + 4 * arcs as u64;
        out!(
            "compression   {} bytes vs {plain} plain CSR ({:.2}x, {:.2} bytes/edge)",
            e.len,
            plain as f64 / e.len.max(1) as f64,
            e.len as f64 / (arcs / 2).max(1) as f64
        )?;
    }
    if snap.section(SECTION_CLUSTERING).is_some() {
        // Untrusted file: full checked load (builder graph + validate).
        let session = Session::load_checked(&bytes, FrontierStrategy::default_from_env())?;
        out!(
            "graph         {} nodes / {} edges",
            session.graph().num_nodes(),
            session.graph().num_edges()
        )?;
        out!("clusters      {}", session.clustering().num_clusters())?;
        out!("max radius    {}", session.clustering().max_radius())?;
        out!("growth steps  {}", session.growth_steps())?;
        out!(
            "oracle        {}",
            match session.oracle() {
                Some(o) => format!(
                    "{} words, {}-byte entries",
                    o.memory_words(),
                    o.entry_bytes()
                ),
                None => "absent".into(),
            }
        )?;
    } else {
        let g = snap.graph_checked()?;
        out!(
            "graph         {} nodes / {} edges",
            g.num_nodes(),
            g.num_edges()
        )?;
        if snap.section(SECTION_ORACLE).is_some() {
            out!("oracle        present but unusable without a clustering section")?;
        }
    }
    Ok(())
}

fn cmd_kcenter(args: &Args) -> CmdResult {
    let s = seed(args)?;
    let k: usize = args.req_parse("k", "a positive integer")?;
    let g = load_graph(args)?;
    let result = if args.has_flag("gonzalez") {
        gonzalez(&g, k, s)?
    } else {
        kcenter(&g, k, s)?
    };
    out!("centers  {}", result.centers.len())?;
    out!("radius   {}", result.radius)?;
    let preview: Vec<String> = result
        .centers
        .iter()
        .take(16)
        .map(|c| c.to_string())
        .collect();
    out!(
        "ids      {}{}",
        preview.join(","),
        if result.centers.len() > 16 {
            ",…"
        } else {
            ""
        }
    )?;
    Ok(())
}

fn cmd_oracle(args: &Args) -> CmdResult {
    let params = session_params(args, "cluster", 2, true)?;
    let mut pairs = Vec::new();
    for pair in args.req("queries")?.split(',') {
        let Some((u, v)) = pair.split_once(':') else {
            return Err(format!("bad query {pair:?} (expected u:v)").into());
        };
        let u: NodeId = u.trim().parse().map_err(|_| format!("bad node id {u:?}"))?;
        let v: NodeId = v.trim().parse().map_err(|_| format!("bad node id {v:?}"))?;
        pairs.push((u, v));
    }
    let session = Session::build(load_graph(args)?, &params);
    let oracle = session.oracle().expect("session built with an oracle");
    out!(
        "oracle: {} clusters, radius {}, {} words",
        oracle.num_clusters(),
        oracle.radius(),
        oracle.memory_words()
    )?;
    // One batched Session call — the same entry point the daemon serves.
    let (dists, _ledger) = session.distance(&pairs)?;
    for (&(u, v), d) in pairs.iter().zip(dists) {
        if d == u64::MAX {
            out!("dist({u}, {v}) = unreachable")?;
        } else {
            out!("dist({u}, {v}) ≤ {d}")?;
        }
    }
    Ok(())
}

/// `--partitions` when given, else the `PARDEC_PARTITIONS`/4×threads default.
fn mr_config(args: &Args) -> Result<MrConfig, crate::args::ArgError> {
    Ok(match args.partitions()? {
        Some(n) => MrConfig::with_partitions(n),
        None => MrConfig::default(),
    })
}

/// Prints the §5 communication ledger: rounds, pre-combine (map) and
/// post-combine (shuffled) volumes, and the peak local-memory demand.
fn print_ledger(stats: &MrStats) -> std::io::Result<()> {
    out!("-- communication ledger (MR(M_G, M_L) emulation) --")?;
    out!("rounds          {}", stats.num_rounds())?;
    out!(
        "map volume      {} pairs / {} bytes (pre-combine)",
        stats.total_map_pairs(),
        stats.total_map_bytes()
    )?;
    out!(
        "shuffled        {} pairs / {} bytes (post-combine)",
        stats.total_pairs(),
        stats.total_bytes()
    )?;
    out!("combine ratio   {:.2}x", stats.combine_ratio())?;
    out!("peak round      {} pairs", stats.max_round_pairs())?;
    out!(
        "peak M_L        {} pairs in one reducer group",
        stats.max_local_memory()
    )
}

fn cmd_mr_cluster(args: &Args) -> CmdResult {
    let s = seed(args)?;
    let tau: usize = args.opt_parse("tau", 4, "a positive integer")?;
    let mr = mr_config(args)?;
    let g = load_graph(args)?;
    let r = mr_cluster_with(&g, &ClusterParams::new(tau, s), &mr);
    out!("partitions    {}", mr.partitions)?;
    out!("clusters      {}", r.clustering.num_clusters())?;
    out!("max radius    {}", r.clustering.max_radius())?;
    out!("supersteps    {}", r.supersteps)?;
    print_ledger(&r.stats)?;
    Ok(())
}

fn cmd_mr_bfs(args: &Args) -> CmdResult {
    let src: NodeId = args.opt_parse("source", 0, "a node id")?;
    let mr = mr_config(args)?;
    // Only the range check needs the graph.
    let g = load_graph(args)?;
    if src as usize >= g.num_nodes() {
        return Err(format!("--source {src} out of range (n = {})", g.num_nodes()).into());
    }
    let r = mr_bfs_with(&g, src, &mr);
    let reached = r.values.iter().filter(|&&d| d != INFINITE_DIST).count();
    let ecc = r
        .values
        .iter()
        .filter(|&&d| d != INFINITE_DIST)
        .max()
        .copied()
        .unwrap_or(0);
    out!("partitions    {}", mr.partitions)?;
    out!("source        {src}")?;
    out!("reached       {} / {}", reached, g.num_nodes())?;
    out!("eccentricity  {ecc}")?;
    out!("supersteps    {}", r.supersteps)?;
    print_ledger(&r.stats)?;
    Ok(())
}

fn cmd_mr_hadi(args: &Args) -> CmdResult {
    let s = seed(args)?;
    let trials: usize = args.opt_parse("trials", 32, "a positive integer")?;
    if trials == 0 {
        return Err("--trials must be positive".into());
    }
    let mr = mr_config(args)?;
    let g = load_graph(args)?;
    let mut params = HadiParams::new(s);
    params.trials = trials;
    let (r, stats) = mr_hadi_with(&g, &params, &mr);
    out!("partitions    {}", mr.partitions)?;
    out!("trials        {trials}")?;
    out!("diameter est  {}", r.diameter_estimate)?;
    out!("convergence   {} iterations", r.iterations)?;
    print_ledger(&stats)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(String::from)).unwrap()
    }

    fn tmp(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("pardec-cli-test-{}-{name}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn generate_stats_cluster_diameter_round_trip() {
        // Not `mesh.txt`: `generate_all_families` writes and removes that
        // file while this test may still be reading it.
        let graph_path = tmp("round-trip-mesh.txt");
        dispatch(&args(&format!(
            "generate --family mesh --rows 20 --cols 20 --out {graph_path}"
        )))
        .unwrap();
        dispatch(&args(&format!("stats --graph {graph_path}"))).unwrap();
        let labels_path = tmp("labels.tsv");
        dispatch(&args(&format!(
            "clust cluster --graph {graph_path} --tau 2 --labels {labels_path}"
        )))
        .unwrap();
        let labels = std::fs::read_to_string(&labels_path).unwrap();
        assert_eq!(labels.lines().count(), 400 + 1); // header + one per node
        dispatch(&args(&format!("dist approx --graph {graph_path} --exact"))).unwrap();
        dispatch(&args(&format!("kcenter --graph {graph_path} --k 5"))).unwrap();
        dispatch(&args(&format!(
            "oracle --graph {graph_path} --queries 0:399,0:0"
        )))
        .unwrap();
        let _ = std::fs::remove_file(graph_path);
        let _ = std::fs::remove_file(labels_path);
    }

    #[test]
    fn generate_all_families() {
        for (family, extra) in [
            ("mesh", "--rows 5 --cols 6"),
            ("torus", "--rows 5 --cols 5"),
            ("road", "--rows 8"),
            ("social", "--nodes 200 --attach 3"),
            ("ba", "--nodes 100"),
            ("gnm", "--nodes 50 --edges 100"),
            ("lollipop", "--nodes 100 --rows 20"),
        ] {
            let path = tmp(&format!("{family}.txt"));
            dispatch(&args(&format!(
                "generate --family {family} {extra} --out {path}"
            )))
            .unwrap_or_else(|e| panic!("{family}: {e}"));
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn cluster_algorithms() {
        let path = tmp("algos.txt");
        dispatch(&args(&format!(
            "generate --family road --rows 12 --out {path}"
        )))
        .unwrap();
        for algo in ["cluster", "cluster2", "mpx"] {
            for strategy in ["topdown", "bottomup", "hybrid"] {
                dispatch(&args(&format!(
                    "clust {algo} --graph {path} --tau 1 --frontier {strategy}"
                )))
                .unwrap_or_else(|e| panic!("{algo}/{strategy}: {e}"));
            }
        }
        dispatch(&args(&format!(
            "dist approx --graph {path} --frontier hybrid"
        )))
        .unwrap();
        dispatch(&args(&format!("dist exact --graph {path}"))).unwrap();
        assert!(dispatch(&args(&format!("clust nosuch --graph {path}"))).is_err());
        assert!(dispatch(&args(&format!("dist nosuch --graph {path}"))).is_err());
        assert!(dispatch(&args(&format!(
            "clust cluster --graph {path} --frontier nosuch"
        )))
        .is_err());
        // The flat spellings the tree replaced are unknown commands.
        let err = dispatch(&args(&format!("cluster --graph {path}"))).unwrap_err();
        assert!(
            err.to_string().starts_with("unknown command \"cluster\""),
            "{err}"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn snapshot_save_info_round_trip() {
        let graph_path = tmp("snap-src.txt");
        let snap_path = tmp("snap.pdec");
        dispatch(&args(&format!(
            "generate --family mesh --rows 8 --cols 8 --out {graph_path}"
        )))
        .unwrap();
        dispatch(&args(&format!(
            "snapshot save --graph {graph_path} --tau 2 --out {snap_path}"
        )))
        .unwrap();
        dispatch(&args(&format!("snapshot info --snapshot {snap_path}"))).unwrap();
        // The written file loads as a full session with an oracle.
        let bytes = std::fs::read(&snap_path).unwrap();
        let s = Session::load(&bytes, FrontierStrategy::TopDown).unwrap();
        assert_eq!(s.graph().num_nodes(), 64);
        assert!(s.oracle().is_some());
        // --no-oracle drops the ORCL section.
        dispatch(&args(&format!(
            "snapshot save --graph {graph_path} --tau 2 --out {snap_path} --no-oracle"
        )))
        .unwrap();
        let bytes = std::fs::read(&snap_path).unwrap();
        let s = Session::load(&bytes, FrontierStrategy::TopDown).unwrap();
        assert!(s.oracle().is_none());
        // Unknown subs error.
        assert!(dispatch(&args(&format!(
            "snapshot frobnicate --snapshot {snap_path}"
        )))
        .is_err());
        assert!(dispatch(&args("snapshot info --snapshot /nonexistent")).is_err());
        let _ = std::fs::remove_file(graph_path);
        let _ = std::fs::remove_file(snap_path);
    }

    #[test]
    fn compressed_backend_round_trips_through_cli() {
        let graph_path = tmp("snap-comp-src.txt");
        let snap_path = tmp("snap-comp.pdec");
        let snap_plain = tmp("snap-plain.pdec");
        dispatch(&args(&format!(
            "generate --family ba --nodes 500 --attach 4 --out {graph_path}"
        )))
        .unwrap();
        dispatch(&args(&format!(
            "clust cluster --graph {graph_path} --tau 2 --backend compressed"
        )))
        .unwrap();
        dispatch(&args(&format!(
            "snapshot save --graph {graph_path} --tau 2 --out {snap_path} --backend compressed"
        )))
        .unwrap();
        dispatch(&args(&format!(
            "snapshot save --graph {graph_path} --tau 2 --out {snap_plain} --backend plain"
        )))
        .unwrap();
        // info handles the compressed graph section (and its ratio line).
        dispatch(&args(&format!("snapshot info --snapshot {snap_path}"))).unwrap();
        let bytes = std::fs::read(&snap_path).unwrap();
        let plain_bytes = std::fs::read(&snap_plain).unwrap();
        assert!(bytes.len() < plain_bytes.len());
        let c = Session::load(&bytes, FrontierStrategy::TopDown).unwrap();
        let p = Session::load(&plain_bytes, FrontierStrategy::TopDown).unwrap();
        assert_eq!(c.backend(), pardec_graph::Backend::Compressed);
        assert_eq!(p.backend(), pardec_graph::Backend::Plain);
        // Identical decomposition regardless of the stored backend.
        assert_eq!(c.clustering(), p.clustering());
        assert_eq!(c.oracle(), p.oracle());
        assert!(dispatch(&args(&format!(
            "clust cluster --graph {graph_path} --backend nosuch"
        )))
        .is_err());
        let _ = std::fs::remove_file(graph_path);
        let _ = std::fs::remove_file(snap_path);
        let _ = std::fs::remove_file(snap_plain);
    }

    #[test]
    fn mr_tree_spellings_dispatch() {
        let path = tmp("mr-tree.txt");
        dispatch(&args(&format!(
            "generate --family mesh --rows 6 --cols 6 --out {path}"
        )))
        .unwrap();
        dispatch(&args(&format!("mr cluster --graph {path} --tau 2"))).unwrap();
        dispatch(&args(&format!("mr bfs --graph {path}"))).unwrap();
        dispatch(&args(&format!("mr hadi --graph {path} --trials 4"))).unwrap();
        assert!(dispatch(&args(&format!("mr nosuch --graph {path}"))).is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn mr_subcommands_print_the_ledger() {
        let path = tmp("mr.txt");
        dispatch(&args(&format!(
            "generate --family mesh --rows 10 --cols 10 --out {path}"
        )))
        .unwrap();
        for partitions in ["", "--partitions 1", "--partitions 3"] {
            dispatch(&args(&format!(
                "mr cluster --graph {path} --tau 2 {partitions}"
            )))
            .unwrap_or_else(|e| panic!("mr cluster {partitions}: {e}"));
            dispatch(&args(&format!("mr bfs --graph {path} {partitions}")))
                .unwrap_or_else(|e| panic!("mr bfs {partitions}: {e}"));
            dispatch(&args(&format!(
                "mr hadi --graph {path} --trials 8 {partitions}"
            )))
            .unwrap_or_else(|e| panic!("mr hadi {partitions}: {e}"));
        }
        dispatch(&args(&format!("mr bfs --graph {path} --source 99"))).unwrap();
        assert!(dispatch(&args(&format!("mr bfs --graph {path} --source 100"))).is_err());
        assert!(dispatch(&args(&format!("mr cluster --graph {path} --partitions 0"))).is_err());
        assert!(dispatch(&args(&format!("mr hadi --graph {path} --trials 0"))).is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn error_paths() {
        assert!(dispatch(&args("frobnicate")).is_err());
        assert!(dispatch(&args("stats --graph /nonexistent/file")).is_err());
        assert!(dispatch(&args("generate --family nosuch --out /tmp/x")).is_err());
        let path = tmp("err.txt");
        dispatch(&args(&format!(
            "generate --family mesh --rows 3 --cols 3 --out {path}"
        )))
        .unwrap();
        let snap_path = tmp("err.pdec");
        assert!(dispatch(&args(&format!(
            "snapshot save --graph {path} --out {snap_path} --algorithm nosuch"
        )))
        .is_err());
        assert!(dispatch(&args(&format!("oracle --graph {path} --queries 0-1"))).is_err());
        assert!(dispatch(&args(&format!("oracle --graph {path} --queries 0:999"))).is_err());
        // Disconnected k-center infeasibility surfaces as an error.
        assert!(dispatch(&args(&format!("kcenter --graph {path} --k 0"))).is_err());
        let _ = std::fs::remove_file(path);
    }

    /// Options are checked before the graph is read: with `--graph` naming
    /// a missing file, each command fails on its bad option.
    #[test]
    fn bad_options_fail_before_the_graph_is_read() {
        let missing = tmp("does-not-exist.txt");
        for (line, expected) in [
            ("clust nosuch", "unknown algorithm \"nosuch\""),
            ("snapshot save --out x.pdec --tau x", "--tau \"x\""),
            ("dist approx --backend bogus", "--backend \"bogus\""),
            ("oracle --queries 0-1", "bad query \"0-1\""),
            ("snapshot save --tau 2", "--out missing"),
        ] {
            let err = dispatch(&args(&format!("{line} --graph {missing}"))).unwrap_err();
            assert!(err.to_string().contains(expected), "{line}: {err}");
        }
        // The same commands with good options do reach the file.
        let err = dispatch(&args(&format!("clust cluster --graph {missing}"))).unwrap_err();
        assert!(err.to_string().starts_with("cannot open"), "{err}");
    }

    #[test]
    fn help_prints() {
        dispatch(&args("help")).unwrap();
        assert!(USAGE.contains("--threads"));
        assert!(USAGE.contains("--frontier"));
        assert!(USAGE.contains("--trace"));
    }

    #[test]
    fn init_thread_pool_sizes_the_global_pool() {
        // Without --threads: a no-op, always fine.
        init_thread_pool(&args("help")).unwrap();
        // With --threads: either this is the first pool use in the test
        // process (pool adopts the size), or the pool already exists and the
        // error explains why the size cannot change.
        match init_thread_pool(&args("help --threads 2")) {
            Ok(()) => assert_eq!(rayon::current_num_threads(), 2),
            Err(e) => assert!(e.to_string().contains("already"), "{e}"),
        }
        // Invalid counts are rejected up front.
        assert!(init_thread_pool(&args("help --threads 0")).is_err());
    }
}
