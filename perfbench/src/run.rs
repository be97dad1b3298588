//! One workload run, in order:
//!
//! 1. inputs from the seed (untimed);
//! 2. one set-up rep: parse the edge list and store the graph under the
//!    workload's backend;
//! 3. a warm-up pipeline rep whose outputs the correctness checks read;
//! 4. the measured window (`--seconds`): timed pipeline reps, each with
//!    its own peak-RSS reading, interleaved with the serve schedule and with
//!    more set-up reps, each paced to spread evenly over the window. A burst
//!    of outside load then touches a slice of every metric's samples, not
//!    all of one's;
//! 5. with `--trace 1`, the traced rep: the pipeline called layer by layer
//!    under the benchmark's own `layer.*` spans, alternately untraced and
//!    traced, plus a traced serve pass.

use crate::inputs::{self, Adjacency, Frame, LOOKUP_ROTATION};
use crate::registry::Workload;
use crate::rng::SplitMix64;
use crate::rss;
use crate::stats::{aggregate_spans, percentile, sorted, Summary};
use pardec_core::diameter::DiameterApprox;
use pardec_core::wire::{self, Request};
use pardec_core::{cluster, ClusterParams, DistanceOracle, Session, SessionParams};
use pardec_graph::{components, diameter, io, Backend, CombineStats, GraphRepr};
use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// Minimum set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Share of the measured window spent in set-up reps.
const SETUP_SHARE: f64 = 0.1;
/// Timed pipeline reps run even when the window is already used up. The
/// first this-many also give `diameter_ratio`, so that it depends on the
/// seed alone and not on how many reps fit in the window.
const MIN_REPS: usize = 9;
/// Worker threads of the global pool and of the daemon's pool.
pub const THREADS: usize = 2;
/// Frames the serve schedule advances by between pipeline reps.
const CHUNK: usize = 16;
/// Minimum untraced/traced pairs of layered runs in the traced rep.
const LAYERED_PAIRS: usize = 3;
/// Frames of the traced serve pass.
const TRACED_FRAMES: usize = 800;
/// Every this-many-th served response is compared with `wire::execute` on
/// the in-process session (coprime to the frame mix, so every opcode is hit).
const VERIFY_EVERY: usize = 13;

pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// What a run reports.
pub struct Outcome {
    /// Every metric computed, by registry name.
    pub values: BTreeMap<&'static str, f64>,
    /// Failed correctness checks (empty when the outputs are correct).
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub nodes: usize,
    pub edges: usize,
    /// Untraced timings behind the end-to-end medians.
    pub timings: Vec<(&'static str, Summary)>,
}

#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    /// The paper's guarantees on one rep's outputs: a valid partition, and
    /// `Δ_C ≤ Δ″ ≤ Δ′` with the benchmark's own lower bound below `Δ″`.
    fn rep_outputs(&mut self, graph: &GraphRepr, rep: &Rep, sweep_lb: u32) {
        if let Err(e) = rep.built.clustering().validate(graph) {
            self.0.push(format!("Clustering::validate: {e}"));
        }
        let b = Bounds::of(&rep.approx);
        let w = b.upper_weighted.unwrap_or(0);
        self.expect(b.lower <= w && w <= b.upper && sweep_lb as u64 <= w, || {
            format!("bounds out of order: {b:?}, double-sweep lower bound {sweep_lb}")
        });
    }
}

/// The outputs that must repeat exactly across reps and code paths.
#[derive(Clone, Debug, PartialEq)]
struct Bounds {
    lower: u64,
    upper: u64,
    upper_weighted: Option<u64>,
}

impl Bounds {
    fn of(a: &DiameterApprox) -> Bounds {
        Bounds {
            lower: a.lower_bound,
            upper: a.upper_bound,
            upper_weighted: a.upper_bound_weighted,
        }
    }
}

/// The set-up reps of a run and their timings.
struct Setup<'a> {
    text: &'a [u8],
    backend: Backend,
    parse_s: Vec<f64>,
    encode_s: Vec<f64>,
    total_s: Vec<f64>,
}

impl Setup<'_> {
    /// Parses the edge list and stores the graph under the backend.
    fn rep(&mut self) -> Result<GraphRepr, String> {
        let t0 = Instant::now();
        let csr = io::read_edge_list(&mut &self.text[..]).map_err(|e| format!("parse: {e}"))?;
        let t1 = Instant::now();
        let repr = GraphRepr::from_csr(csr, self.backend);
        let t2 = Instant::now();
        self.parse_s.push((t1 - t0).as_secs_f64());
        self.encode_s.push((t2 - t1).as_secs_f64());
        self.total_s.push((t2 - t0).as_secs_f64());
        Ok(repr)
    }

    fn busy_s(&self) -> f64 {
        self.total_s.iter().sum()
    }
}

/// One untraced pipeline rep: build, diameter bounds, save, load.
struct Rep {
    stage_s: [f64; 4],
    total_s: f64,
    built: Session,
    approx: DiameterApprox,
    snapshot: Vec<u8>,
    loaded: Session,
}

fn pipeline_rep(graph: &GraphRepr, params: &SessionParams) -> Result<Rep, String> {
    let graph = graph.clone();
    let t0 = Instant::now();
    let built = Session::build_repr(graph, params);
    let t1 = Instant::now();
    let approx = built.diameter(true, None);
    let t2 = Instant::now();
    let mut snapshot = Vec::new();
    built
        .save(&mut snapshot)
        .map_err(|e| format!("save: {e}"))?;
    let t3 = Instant::now();
    let loaded = Session::load(&snapshot, built.frontier()).map_err(|e| format!("load: {e}"))?;
    let t4 = Instant::now();
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Ok(Rep {
        stage_s: [secs(t0, t1), secs(t1, t2), secs(t2, t3), secs(t3, t4)],
        total_s: secs(t0, t4),
        built,
        approx,
        snapshot,
        loaded,
    })
}

/// Client-side record of the frames served so far.
#[derive(Default)]
struct Served {
    lookup_ms: Vec<f64>,
    nearest_ms: Vec<f64>,
    /// Sum of the client-side latencies: time spent serving.
    busy_s: f64,
    failed: u64,
    wave_rounds: u64,
    /// `(frame index, response body)` of the responses to verify.
    sampled: Vec<(usize, Vec<u8>)>,
}

/// An in-process daemon (a pool of [`THREADS`] workers, one accept thread)
/// with one client connection: a closed loop that sends the next frame when
/// the previous answer has arrived, with no think time.
struct Daemon {
    session: Arc<Session>,
    handle: wire::ServerHandle,
    stream: TcpStream,
}

fn transport(e: std::io::Error) -> String {
    format!("serve transport: {e}")
}

impl Daemon {
    fn start(session: Session) -> Result<Daemon, String> {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(THREADS)
            .build()
            .map_err(|e| e.to_string())?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(transport)?;
        let session = Arc::new(session);
        let handle =
            wire::serve(listener, session.clone(), Arc::new(pool), 1).map_err(transport)?;
        let stream = TcpStream::connect(handle.addr()).map_err(transport)?;
        stream.set_nodelay(true).map_err(transport)?;
        Ok(Daemon {
            session,
            handle,
            stream,
        })
    }

    /// Sends `frames[from..to]` (indices of the whole schedule).
    fn send(
        &mut self,
        frames: &[Frame],
        from: usize,
        to: usize,
        out: &mut Served,
    ) -> Result<(), String> {
        for (i, frame) in frames.iter().enumerate().take(to).skip(from) {
            let t = Instant::now();
            wire::write_frame(&mut self.stream, &frame.body).map_err(transport)?;
            let body = wire::read_frame(&mut self.stream)
                .map_err(transport)?
                .ok_or("serve transport: the daemon closed the connection")?;
            let secs = t.elapsed().as_secs_f64();
            out.busy_s += secs;
            let resp = wire::decode_response(&body).map_err(transport)?;
            if resp.status != 0 {
                out.failed += 1;
            }
            if frame.nearest {
                out.nearest_ms.push(secs * 1e3);
                out.wave_rounds += resp.wave_rounds as u64;
            } else {
                out.lookup_ms.push(secs * 1e3);
            }
            if i % VERIFY_EVERY == 0 {
                out.sampled.push((i, body));
            }
        }
        Ok(())
    }

    /// Reads `OP_STATS`, stops the daemon, and checks the daemon's ledger
    /// and the sampled responses.
    fn finish(
        mut self,
        frames: &[Frame],
        served: &Served,
        checks: &mut Checks,
    ) -> Result<wire::StatsSnapshot, String> {
        let resp = wire::roundtrip(&mut self.stream, &Request::Stats).map_err(transport)?;
        let stats = wire::decode_stats_body(&resp.body).map_err(transport)?;
        drop(self.stream);
        self.handle.shutdown();
        self.handle.join();
        let sent = served.lookup_ms.len() + served.nearest_ms.len();
        checks.expect(stats.total_requests == sent as u64, || {
            format!(
                "OP_STATS counted {} requests, the client sent {sent}",
                stats.total_requests
            )
        });
        for (i, body) in &served.sampled {
            checks.expect(
                *body == wire::execute(&self.session, &frames[*i].request()),
                || format!("served response {i} differs from wire::execute"),
            );
        }
        Ok(stats)
    }
}

/// The responses a session gives to `frames`, computed in process.
fn answers(session: &Session, frames: &[Frame]) -> Vec<Vec<u8>> {
    frames
        .iter()
        .map(|f| wire::execute(session, &f.request()))
        .collect()
}

/// `NEAREST` answers against the benchmark's own multi-source BFS: each
/// probe's distance is exact and its source is one of the frame's sources.
fn check_nearest(adj: &Adjacency, frames: &[Frame], bodies: &[Vec<u8>], checks: &mut Checks) {
    for (frame, body) in frames.iter().zip(bodies).filter(|(f, _)| f.nearest) {
        let Request::Nearest { sources, probes } = frame.request() else {
            unreachable!("a nearest frame encodes a NEAREST request")
        };
        let dist = adj.bfs(&sources);
        let resp = wire::decode_response(body)
            .map(|r| r.body)
            .unwrap_or_default();
        checks.expect(resp.len() == 8 * probes.len(), || {
            "NEAREST response has the wrong length".into()
        });
        for (p, pair) in probes.iter().zip(resp.chunks_exact(8)) {
            let src = u32::from_le_bytes(pair[..4].try_into().expect("4 bytes"));
            let d = u32::from_le_bytes(pair[4..].try_into().expect("4 bytes"));
            checks.expect(d == dist[*p as usize] && sources.contains(&src), || {
                format!(
                    "NEAREST probe {p}: answered ({src}, {d}), BFS distance {}",
                    dist[*p as usize]
                )
            });
        }
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Mean server-side handling time of the given opcodes, in ms.
fn server_mean_ms(stats: &wire::StatsSnapshot, opcodes: &[u8]) -> f64 {
    let (sum_us, count) = stats
        .per_op
        .iter()
        .filter(|op| opcodes.contains(&op.opcode))
        .fold((0u64, 0u64), |(s, c), op| {
            (s + op.latency.sum(), c + op.latency.count())
        });
    sum_us as f64 / count.max(1) as f64 / 1e3
}

const LOOKUP_OPS: [u8; 3] = [wire::OP_DIST, wire::OP_CLUSTER_OF, wire::OP_ECC];

pub fn run(w: &Workload, cfg: &Config) -> Result<Outcome, String> {
    let family = if cfg.smoke {
        w.family.smoke()
    } else {
        w.family
    };
    let (lookups, nearest) = if cfg.smoke {
        ((w.lookups / 100).max(30), (w.nearest / 100).max(2))
    } else {
        (w.lookups, w.nearest)
    };
    let n = family.nodes();
    let edges = family.edges(&mut SplitMix64::fork(cfg.seed, 1));
    let text = inputs::edge_list_text(n, &edges);
    let adj = Adjacency::new(n, &edges);
    let frames = inputs::schedule(n, lookups, nearest, &mut SplitMix64::fork(cfg.seed, 2));
    let sweep_lb = adj.double_sweep_lower_bound(16, &mut SplitMix64::fork(cfg.seed, 3));
    let mut rep_seeds = SplitMix64::fork(cfg.seed, 4);
    let m = edges.len();
    drop(edges);

    let mut checks = Checks::default();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();

    let mut setup = Setup {
        text: &text,
        backend: w.backend,
        parse_s: Vec::new(),
        encode_s: Vec::new(),
        total_s: Vec::new(),
    };
    let graph = setup.rep()?;
    checks.expect(graph.num_nodes() == n && graph.num_edges() == m, || {
        format!(
            "parsed {} nodes / {} edges, generated {n} / {m}",
            graph.num_nodes(),
            graph.num_edges()
        )
    });

    // Warm-up rep: the reference outputs, checked.
    let params = SessionParams::new(w.tau, cfg.seed).with_backend(w.backend);
    let warm = pipeline_rep(&graph, &params)?;
    checks.rep_outputs(&graph, &warm, sweep_lb);
    let reference = Bounds::of(&warm.approx);
    // The schedule up to its second `NEAREST`: every opcode at least once.
    let second_nearest = frames
        .iter()
        .enumerate()
        .filter(|(_, f)| f.nearest)
        .nth(1)
        .map_or(frames.len(), |(i, _)| i + 1);
    let sample = &frames[..second_nearest];
    let built_answers = answers(&warm.built, sample);
    checks.expect(built_answers == answers(&warm.loaded, sample), || {
        "the loaded session answers differently from the built one".into()
    });
    check_nearest(&adj, sample, &built_answers, &mut checks);
    if w.backend != Backend::Plain {
        let plain = Session::build_repr(
            GraphRepr::from_csr(graph.to_csr().into_owned(), Backend::Plain),
            &params.clone().with_backend(Backend::Plain),
        );
        checks.expect(
            plain.clustering() == warm.built.clustering()
                && plain.oracle() == warm.built.oracle()
                && Bounds::of(&plain.diameter(true, None)) == reference
                && answers(&plain, sample) == built_answers,
            || format!("the {} backend disagrees with the plain one", w.backend),
        );
    }
    let clustering = warm.built.clustering();
    let upper_weighted = reference.upper_weighted.unwrap_or(0);
    values.insert("cluster.clusters", clustering.num_clusters() as f64);
    values.insert("cluster.max_radius", clustering.max_radius() as f64);
    values.insert("cluster.growth_steps", warm.built.growth_steps() as f64);
    values.insert("diameter.lower", reference.lower as f64);
    values.insert("diameter.upper_weighted", upper_weighted as f64);
    values.insert(
        "oracle.words",
        warm.built.oracle().map_or(0, |o| o.memory_words()) as f64,
    );
    values.insert("snapshot.bytes", warm.snapshot.len() as f64);
    values.insert("graph.heap_bytes", graph.heap_bytes() as f64);
    let Rep {
        snapshot: reference_snapshot,
        loaded,
        built,
        approx,
        ..
    } = warm;
    drop((built, approx, adj));

    // The measured window. The first timed rep reruns the warm-up's seed
    // and must reproduce it exactly; every later rep draws a fresh session
    // seed, so the median covers many CLUSTER draws on the same graph.
    let mut daemon = Daemon::start(loaded)?;
    let mut served = Served::default();
    let (mut pipeline_s, mut stage_s) = (Vec::new(), [(); 4].map(|_| Vec::new()));
    let (mut rep_rss, mut rep_upper) = (Vec::new(), Vec::new());
    let (mut sent, mut failed_reps) = (0, 0);
    let window = Instant::now();
    loop {
        let elapsed = window.elapsed().as_secs_f64();
        let window_over = elapsed >= cfg.seconds;
        let setups_short = setup.total_s.len() < SETUP_REPS;
        let reps_done = window_over && pipeline_s.len() + failed_reps >= MIN_REPS && !setups_short;
        let due = if cfg.seconds > 0.0 {
            (frames.len() as f64 * (elapsed / cfg.seconds).min(1.0)) as usize
        } else {
            frames.len()
        };
        if sent < frames.len() && (sent < due || reps_done) {
            let to = (sent + CHUNK).min(frames.len());
            daemon.send(&frames, sent, to, &mut served)?;
            sent = to;
            continue;
        }
        if reps_done {
            break;
        }
        if setup.busy_s() < SETUP_SHARE * elapsed || (window_over && setups_short) {
            drop(setup.rep()?);
            continue;
        }
        let first = pipeline_s.len() + failed_reps == 0;
        let mut rep_params = params.clone();
        if !first {
            rep_params.seed = rep_seeds.next_u64();
        }
        let rss_base = rss::reset_peak()?;
        match pipeline_rep(&graph, &rep_params) {
            Ok(rep) => {
                rep_rss.push(rss::peak_bytes()?.saturating_sub(rss_base) as f64);
                rep_upper.push(rep.approx.upper_bound_weighted.unwrap_or(0) as f64);
                pipeline_s.push(rep.total_s);
                for (all, s) in stage_s.iter_mut().zip(rep.stage_s) {
                    all.push(s);
                }
                checks.rep_outputs(&graph, &rep, sweep_lb);
                if first {
                    checks.expect(
                        rep.snapshot == reference_snapshot && Bounds::of(&rep.approx) == reference,
                        || "a rerun of the warm-up seed gives different outputs".into(),
                    );
                }
            }
            Err(e) => {
                checks.0.push(format!("timed rep: {e}"));
                failed_reps += 1;
            }
        }
    }
    let stats = daemon.finish(&frames, &served, &mut checks)?;

    let lookup_ms = sorted(&served.lookup_ms);
    let median = |v: &[f64]| Summary::of(v).p50;
    // The mean over the lookup opcodes of each one's median latency. On
    // `road` an `ECC` frame costs ~20× the others, so the median of all
    // lookup frames would never see it.
    let per_opcode: Vec<Summary> = (0..LOOKUP_ROTATION)
        .map(|k| {
            let opcode_ms: Vec<f64> = served.lookup_ms[k..]
                .iter()
                .step_by(LOOKUP_ROTATION)
                .copied()
                .collect();
            Summary::of(&opcode_ms)
        })
        .collect();
    let mean_of =
        |f: fn(&Summary) -> f64| per_opcode.iter().map(f).sum::<f64>() / LOOKUP_ROTATION as f64;
    let lookup_summary = Summary {
        n: lookup_ms.len(),
        p25: mean_of(|s| s.p25),
        p50: mean_of(|s| s.p50),
        p75: mean_of(|s| s.p75),
    };
    values.insert("setup_s", median(&setup.total_s));
    values.insert("pipeline_s", median(&pipeline_s));
    values.insert("lookup_ms", lookup_summary.p50);
    values.insert("serve.lookup_p99_ms", percentile(&lookup_ms, 990));
    values.insert("nearest_ms", median(&served.nearest_ms));
    values.insert("peak_rss_bytes", median(&rep_rss));
    let quality_reps = &rep_upper[..rep_upper.len().min(MIN_REPS)];
    values.insert(
        "diameter_ratio",
        median(quality_reps) / sweep_lb.max(1) as f64,
    );
    for (name, v) in [
        ("stage.parse_s", &setup.parse_s),
        ("stage.encode_s", &setup.encode_s),
        ("stage.build_s", &stage_s[0]),
        ("stage.diameter_s", &stage_s[1]),
        ("stage.save_s", &stage_s[2]),
        ("stage.load_s", &stage_s[3]),
    ] {
        values.insert(name, median(v));
    }
    let server_lookup = server_mean_ms(&stats, &LOOKUP_OPS);
    values.insert("serve.rps", frames.len() as f64 / served.busy_s);
    values.insert("serve.server_lookup_mean_ms", server_lookup);
    values.insert(
        "serve.server_nearest_mean_ms",
        server_mean_ms(&stats, &[wire::OP_NEAREST]),
    );
    values.insert("serve.wait_lookup_ms", mean(&lookup_ms) - server_lookup);
    values.insert("serve.bytes_in", stats.bytes_in as f64);
    values.insert("serve.bytes_out", stats.bytes_out as f64);
    values.insert(
        "query.wave_rounds",
        served.wave_rounds as f64 / nearest as f64,
    );

    let mut attempted = (pipeline_s.len() + failed_reps + frames.len()) as u64;
    let mut failed = failed_reps as u64 + served.failed;
    if cfg.trace {
        // A second of traced layered runs, less when the window is shorter.
        let min_traced_s = cfg.seconds.min(1.0);
        let traced = traced_rep(
            &graph,
            &params,
            &frames,
            &reference,
            &reference_snapshot,
            min_traced_s,
        )?;
        checks.0.extend(traced.failures);
        attempted += traced.layered_runs + traced.frames;
        failed += traced.failed;
        values.extend(traced.values);
    }

    Ok(Outcome {
        values,
        failures: checks.0,
        attempted,
        failed,
        nodes: n,
        edges: m,
        timings: vec![
            ("setup_s", Summary::of(&setup.total_s)),
            ("pipeline_s", Summary::of(&pipeline_s)),
            ("lookup_ms", lookup_summary),
            ("nearest_ms", Summary::of(&served.nearest_ms)),
        ],
    })
}

struct Traced {
    values: Vec<(&'static str, f64)>,
    layered_runs: u64,
    frames: u64,
    failed: u64,
    failures: Vec<String>,
}

/// What the layer-by-layer pipeline produces.
struct Layered {
    pipeline_s: f64,
    bounds: Bounds,
    snapshot: Vec<u8>,
    loaded: Session,
    batches: usize,
    kernel: CombineStats,
    quotient_edges: usize,
}

/// The pipeline of [`pipeline_rep`], one public layer call at a time, each
/// under a `layer.*` span (a no-op while tracing is off).
fn layered_pipeline(graph: &GraphRepr, params: &SessionParams) -> Result<Layered, String> {
    let graph = graph.clone();
    let t0 = Instant::now();
    let cp = ClusterParams::new(params.tau.max(1), params.seed).with_frontier(params.frontier);
    let result = {
        let _s = pardec_obs::span("layer.cluster");
        cluster(&graph, &cp)
    };
    let clustering = result.clustering;
    let oracle = {
        let _s = pardec_obs::span("layer.oracle");
        DistanceOracle::from_clustering(&graph, &clustering)
    };
    let (quotient, kernel) = {
        let _s = pardec_obs::span("layer.quotient");
        clustering.quotient_with_stats(&graph)
    };
    // The library's rule for the quotient diameter (no sparsification).
    let q_diam = {
        let _s = pardec_obs::span("layer.qdiam");
        if quotient.num_nodes() <= 4096 {
            diameter::apsp_diameter(&quotient)
        } else if components::is_connected(&quotient) {
            diameter::ifub(&quotient, 0).0
        } else {
            diameter::exact_diameter(&quotient)
        }
    } as u64;
    let weighted = {
        let _s = pardec_obs::span("layer.wquotient");
        clustering.weighted_quotient(&graph)
    };
    let w_diam = {
        let _s = pardec_obs::span("layer.wqdiam");
        weighted.apsp_diameter()
    };
    let radius = clustering.max_radius() as u64;
    let bounds = Bounds {
        lower: q_diam,
        upper: 2 * radius * (q_diam + 1) + q_diam,
        upper_weighted: Some(2 * radius + w_diam),
    };
    let session = Session::from_parts(
        graph,
        clustering,
        Some(oracle),
        params.frontier,
        result.trace.total_growth_steps(),
    )?;
    let mut snapshot = Vec::new();
    {
        let _s = pardec_obs::span("layer.save");
        session.save(&mut snapshot)
    }
    .map_err(|e| format!("layered save: {e}"))?;
    let loaded = {
        let _s = pardec_obs::span("layer.load");
        Session::load(&snapshot, params.frontier)
    }
    .map_err(|e| format!("layered load: {e}"))?;
    Ok(Layered {
        pipeline_s: t0.elapsed().as_secs_f64(),
        bounds,
        snapshot,
        loaded,
        batches: result.trace.num_batches(),
        kernel,
        quotient_edges: quotient.num_edges(),
    })
}

/// The traced rep: [`layered_pipeline`] on the warm-up's seed, alternately
/// with tracing off and on, in at least [`LAYERED_PAIRS`] pairs and for at
/// least `min_traced_s` of traced time, so that `trace.overhead_frac` compares
/// medians of the same code path. Every layered run must reproduce the
/// untraced reference outputs. The last traced run's spans, and those of a
/// traced serve pass, give the per-layer metrics.
fn traced_rep(
    graph: &GraphRepr,
    params: &SessionParams,
    frames: &[Frame],
    reference: &Bounds,
    reference_snapshot: &[u8],
    min_traced_s: f64,
) -> Result<Traced, String> {
    let mut checks = Checks::default();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut last = None;
    let mut events = Vec::new();
    while traced_s.len() < LAYERED_PAIRS || traced_s.iter().sum::<f64>() < min_traced_s {
        for tracing in [false, true] {
            pardec_obs::drain();
            if tracing {
                pardec_obs::enable();
            }
            let run = layered_pipeline(graph, params)?;
            pardec_obs::disable();
            checks.expect(
                run.snapshot == reference_snapshot && run.bounds == *reference,
                || format!("a layered run (tracing {tracing}) differs from the pipeline"),
            );
            if tracing {
                events = pardec_obs::drain();
                traced_s.push(run.pipeline_s);
                last = Some(run);
            } else {
                untraced_s.push(run.pipeline_s);
            }
        }
    }
    let traced = last.expect("at least one traced layered run");
    let pipeline_s = traced.pipeline_s;
    let pass = &frames[..frames.len().min(TRACED_FRAMES)];
    let mut served = Served::default();
    pardec_obs::enable();
    {
        let _s = pardec_obs::span("layer.serve");
        let mut daemon = Daemon::start(traced.loaded)?;
        daemon.send(pass, 0, pass.len(), &mut served)?;
        daemon.finish(pass, &served, &mut checks)?;
    }
    pardec_obs::disable();
    events.extend(pardec_obs::drain());

    let spans = aggregate_spans(&events);
    let total = |name: &str| spans.get(name).map_or(0.0, |t| t.total_s);
    let self_s = |name: &str| spans.get(name).map_or(0.0, |t| t.self_s);
    let count = |name: &str| spans.get(name).map_or(0.0, |t| t.count as f64);
    let layers = [
        ("layer.cluster_s", "layer.cluster"),
        ("layer.oracle_s", "layer.oracle"),
        ("layer.quotient_s", "layer.quotient"),
        ("layer.qdiam_s", "layer.qdiam"),
        ("layer.wquotient_s", "layer.wquotient"),
        ("layer.wqdiam_s", "layer.wqdiam"),
        ("layer.save_s", "layer.save"),
        ("layer.load_s", "layer.load"),
    ];
    let covered: f64 = layers.iter().map(|(_, span)| total(span)).sum();
    let mut values: Vec<(&'static str, f64)> = layers
        .iter()
        .map(|&(metric, span)| (metric, total(span)))
        .collect();
    values.extend([
        ("layer.serve_s", total("layer.serve")),
        ("layer.coverage", covered / pipeline_s),
        ("span.cluster.round.count", count("cluster.round")),
        ("span.cluster.round.self_s", self_s("cluster.round")),
        ("span.frontier.wave.count", count("frontier.wave")),
        ("span.frontier.wave.self_s", self_s("frontier.wave")),
        ("span.serve.request.count", count("serve.request")),
        ("span.serve.request.self_s", self_s("serve.request")),
        (
            "trace.overhead_frac",
            Summary::of(&traced_s).p50 / Summary::of(&untraced_s).p50 - 1.0,
        ),
        ("cluster.batches", traced.batches as f64),
        ("quotient.cut_pairs", traced.kernel.input_pairs as f64),
        ("quotient.edges", traced.quotient_edges as f64),
        ("quotient.collapse", traced.kernel.combine_ratio()),
    ]);
    Ok(Traced {
        values,
        layered_runs: (untraced_s.len() + traced_s.len()) as u64,
        frames: pass.len() as u64,
        failed: served.failed,
        failures: checks.0,
    })
}
