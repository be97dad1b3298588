//! A resident decomposition **session**: graph + clustering + oracle, loaded
//! once and queried many times.
//!
//! This is the load-bearing type of the `pardec serve` redesign. The one-shot
//! pipeline of the paper (decompose → report → exit) becomes
//!
//! 1. [`Session::build`] — run CLUSTER / CLUSTER2 / MPX on a graph and
//!    optionally construct the §4 distance oracle, or
//! 2. [`Session::save`] / [`Session::load`] — persist everything into a
//!    `PDEC2` sectioned snapshot ([`pardec_graph::io`]) and reload it in time
//!    proportional to the stored bytes, with no re-clustering and no
//!    re-sorting;
//!
//! then answer **batched queries**:
//!
//! * [`Session::distance`] — §4 oracle upper bounds, O(1) per pair;
//! * [`Session::cluster_of`] — assignment lookups;
//! * [`Session::eccentricity`] — per-node eccentricity upper bounds, O(1)
//!   per node from the oracle's per-cluster eccentricities;
//! * [`Session::nearest`] — the batch-amortized traversal: **one**
//!   multi-source [`FrontierEngine`] wave answers every probe in the batch
//!   (nearest source + exact hop distance), so hundreds of queries cost one
//!   traversal of the graph.
//!
//! Every method returns a [`QueryLedger`] describing what the batch cost —
//! batch size, frontier waves launched, wave rounds, strategy — which the
//! wire protocol forwards to clients verbatim.
//!
//! ## Snapshot sections
//!
//! | tag | version | payload |
//! |-----|---------|---------|
//! | `CLUS` | 1 | `n u64, k u64, growth_steps u64, assignment n×u32, centers k×u32, dist_to_center n×u32, radii k×u32` |
//! | `ORCL` | 4 | `q u64, entry_bytes u64, Δ′_C u64, ecc q×u64, apsp q(q+1)/2×entry` (`entry_bytes` is 2 or 4; the packed upper triangle: `d(i, j)` for `i ≤ j`, row-major, the entry type's largest value = unreachable; per-node arrays are shared with `CLUS`) |
//!
//! Saves always write `ORCL` version 4, streaming the oracle's triangle into
//! the writer. Its entries take 2 bytes (`u16`) when `Δ′_C`, the largest
//! finite entry, is below `u16::MAX`, else 4 (`u32`): the width rule of
//! [`pardec_graph::weighted::Triangle`], a pure function of the distances.
//! `ecc[c]` is the largest `d(c, C) + radius(C)` over the clusters `C`
//! reachable from `c`, as the APSP kernel computed it.
//!
//! Three older layouts are still read, so older snapshots load (and
//! hot-reload) into the same oracle: version 3 (`q u64, apsp
//! q(q+1)/2×u32`), version 2 (`q u64, apsp q(q+1)/2×u64`, the same triangle
//! in 8-byte words) and version 1 (`q u64, apsp q²×u64`, the full row-major
//! matrix, of which the loader keeps the upper triangle). Their 8-byte words
//! are narrowed in the same pass: `u64::MAX` becomes `u32::MAX`, and a
//! finite word of `u32::MAX` or more is an error. They store no `ecc` or
//! `Δ′_C`, so the loader scans the triangle for both, then narrows it by
//! the width rule: an older snapshot re-saves as a fresh build's bytes.
//!
//! All integers little-endian; all size arithmetic checked, so hostile
//! section payloads error rather than panic or over-allocate.
//!
//! A loaded session answers `distance`, `eccentricity` and the `Δ″` bound
//! of [`Session::diameter`] from the stored `ORCL` section. Both load paths
//! check its shape: sizes, the entry width, and a `Δ′_C` that fits it. The
//! fast path takes the stored distances, `ecc` and `Δ′_C` on trust;
//! [`Session::load_checked`] rescans the triangle and rejects an `ecc` or a
//! `Δ′_C` that differs from it.

use crate::cluster::{cluster, ClusterParams};
use crate::cluster2::cluster2;
use crate::clustering::Clustering;
use crate::diameter::{
    bounds_of_clustering, quotient_and_weighted_diameter, DiameterApprox, DiameterParams,
};
use crate::mpx::mpx_with_frontier;
use crate::oracle::DistanceOracle;
use bytes::{Buf, BufMut};
use pardec_graph::frontier::{FrontierEngine, FrontierStrategy};
use pardec_graph::io::{save_snapshot_repr, SectionData, Snapshot, Words};
use pardec_graph::weighted::{upper_entry, Triangle};
use pardec_graph::{
    Backend, CombineStats, CsrGraph, GraphRepr, NodeId, INFINITE_DIST, INVALID_NODE,
};
use std::io::{self, Write};
use std::sync::{Arc, OnceLock};

/// Section tag for the persisted [`Clustering`] (`b"CLUS"`).
pub const SECTION_CLUSTERING: u32 = u32::from_le_bytes(*b"CLUS");
/// Layout version of the clustering section.
pub const SECTION_CLUSTERING_VERSION: u32 = 1;
/// Section tag for the persisted [`DistanceOracle`] state (`b"ORCL"`).
pub const SECTION_ORACLE: u32 = u32::from_le_bytes(*b"ORCL");
/// Layout version of the oracle section [`Session::save`] writes (`ecc`,
/// `Δ′_C` and the packed triangle of 2- or 4-byte entries); versions 1 (the
/// full `u64` matrix), 2 (the `u64` triangle) and 3 (the `u32` triangle)
/// still load.
pub const SECTION_ORACLE_VERSION: u32 = 4;

/// Which decomposition a session runs at build time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SessionAlgo {
    /// CLUSTER(τ) — Algorithm 1.
    Cluster,
    /// CLUSTER2(τ) — Algorithm 2 (the Theorem 3 variant).
    Cluster2,
    /// Miller–Peng–Xu random-shift decomposition with rate `beta`.
    Mpx {
        /// Exponential start-time rate (`beta > 0`).
        beta: f64,
    },
}

impl SessionAlgo {
    /// Stable lowercase name (matches the CLI spelling).
    pub fn name(&self) -> &'static str {
        match self {
            SessionAlgo::Cluster => "cluster",
            SessionAlgo::Cluster2 => "cluster2",
            SessionAlgo::Mpx { .. } => "mpx",
        }
    }
}

/// Parameters of [`Session::build`].
#[derive(Clone, Debug)]
pub struct SessionParams {
    /// Decomposition granularity τ (ignored by MPX).
    pub tau: usize,
    /// RNG seed.
    pub seed: u64,
    /// Which decomposition to run.
    pub algo: SessionAlgo,
    /// Frontier strategy for growth phases *and* later `nearest` batches.
    pub frontier: FrontierStrategy,
    /// Also build the §4 distance oracle (costs one cut-edge sweep for the
    /// weighted quotient and one APSP over it; enables `distance` /
    /// `eccentricity` queries). The session then pays for both once:
    /// [`Session::diameter`] reads `Δ″` from the APSP and `Δ_C` from the
    /// unweighted quotient the same sweep yields, which the session keeps
    /// (`q + 1` offsets and `2·m_C` targets: about 60 KB on a 160k-node
    /// road graph at τ = 5). Without an oracle the build sweeps nothing;
    /// the first [`Session::quotient`] or [`Session::diameter`] call does.
    pub build_oracle: bool,
    /// Adjacency storage backend the resident graph is held under. Like
    /// `frontier`, a memory/wall-clock knob only: every backend produces
    /// byte-identical clusterings, oracles, and query answers.
    pub backend: Backend,
}

impl SessionParams {
    /// CLUSTER(τ) with the ambient frontier default and an oracle. The
    /// backend follows `PARDEC_BACKEND` (default: plain).
    pub fn new(tau: usize, seed: u64) -> Self {
        SessionParams {
            tau,
            seed,
            algo: SessionAlgo::Cluster,
            frontier: FrontierStrategy::default_from_env(),
            build_oracle: true,
            backend: Backend::resolve(None),
        }
    }

    /// Selects the adjacency storage backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the decomposition algorithm.
    pub fn with_algo(mut self, algo: SessionAlgo) -> Self {
        self.algo = algo;
        self
    }

    /// Selects the frontier expansion strategy.
    pub fn with_frontier(mut self, frontier: FrontierStrategy) -> Self {
        self.frontier = frontier;
        self
    }

    /// Skips the oracle build (cluster-only sessions).
    pub fn without_oracle(mut self) -> Self {
        self.build_oracle = false;
        self
    }
}

/// What one batched query cost — forwarded verbatim through the wire
/// protocol's response ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryLedger {
    /// Number of individual queries answered by the batch.
    pub batch: u32,
    /// Frontier waves launched (0 for pure table lookups, 1 for a batched
    /// `nearest` — the whole point of batching).
    pub waves: u32,
    /// Total frontier steps across those waves.
    pub wave_rounds: u32,
    /// Strategy the waves ran under.
    pub strategy: FrontierStrategy,
}

impl QueryLedger {
    fn lookup(batch: usize, strategy: FrontierStrategy) -> Self {
        QueryLedger {
            batch: batch as u32,
            waves: 0,
            wave_rounds: 0,
            strategy,
        }
    }
}

impl pardec_obs::Observe for QueryLedger {
    fn scope(&self) -> &'static str {
        "session.query"
    }
    fn observe(&self, m: &mut pardec_obs::Metrics) {
        m.counter("batch", self.batch as u64);
        m.counter("waves", self.waves as u64);
        m.counter("wave_rounds", self.wave_rounds as u64);
        m.label("strategy", self.strategy.name());
    }
}

/// Errors a query batch can raise (the wire layer maps these to error
/// codes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// A query referenced a node id ≥ n.
    NodeOutOfRange(NodeId),
    /// `distance` / `eccentricity` on a session built `without_oracle`.
    OracleMissing,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::NodeOutOfRange(v) => write!(f, "node id {v} out of range"),
            SessionError::OracleMissing => {
                write!(f, "session has no distance oracle (built without one)")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// A loaded decomposition ready to answer query batches.
#[derive(Clone, Debug)]
pub struct Session {
    graph: GraphRepr,
    /// Shared with the oracle, which reads the same per-node arrays.
    clustering: Arc<Clustering>,
    oracle: Option<DistanceOracle>,
    /// The unweighted quotient and its kernel ledger: set by the sweep
    /// that builds the oracle, else by the first use.
    quotient: OnceLock<(CsrGraph, CombineStats)>,
    frontier: FrontierStrategy,
    growth_steps: usize,
}

impl Session {
    /// Runs the decomposition (and optionally the oracle construction) on
    /// `graph`, producing a resident session. The graph is stored under
    /// `params.backend` (compressing it first when asked).
    pub fn build(graph: CsrGraph, params: &SessionParams) -> Session {
        Session::build_repr(GraphRepr::from_csr(graph, params.backend), params)
    }

    /// As [`Session::build`] on a graph already held under a backend, so a
    /// compressed graph is traversed as it is, never decompressed first.
    pub fn build_repr(graph: GraphRepr, params: &SessionParams) -> Session {
        let mut build_span = pardec_obs::span!(
            "session.build",
            nodes = graph.num_nodes(),
            oracle = params.build_oracle,
            backend = graph.backend().to_string(),
        );
        let cp = ClusterParams::new(params.tau.max(1), params.seed).with_frontier(params.frontier);
        let (clustering, growth_steps) = match params.algo {
            SessionAlgo::Cluster => {
                let r = cluster(&graph, &cp);
                (r.clustering, r.trace.total_growth_steps())
            }
            SessionAlgo::Cluster2 => {
                let r = cluster2(&graph, &cp);
                (
                    r.clustering,
                    r.probe_trace.total_growth_steps() + r.trace.total_growth_steps(),
                )
            }
            SessionAlgo::Mpx { beta } => {
                let r = mpx_with_frontier(&graph, beta, params.seed, params.frontier);
                (r.clustering, r.steps)
            }
        };
        let clustering = Arc::new(clustering);
        let quotient = OnceLock::new();
        // One sweep gives the oracle its weighted quotient and `diameter`
        // the unweighted one.
        let oracle = params.build_oracle.then(|| {
            let (weighted, kernel) = clustering.weighted_quotient_with_stats(&graph);
            let _ = quotient.set((weighted.topology(), kernel));
            DistanceOracle::from_quotient(clustering.clone(), &weighted)
        });
        build_span.field("clusters", clustering.num_clusters());
        build_span.field("growth_steps", growth_steps);
        Session {
            graph,
            clustering,
            oracle,
            quotient,
            frontier: params.frontier,
            growth_steps,
        }
    }

    /// Assembles a session from already-validated parts.
    pub fn from_parts(
        graph: GraphRepr,
        clustering: Clustering,
        oracle: Option<DistanceOracle>,
        frontier: FrontierStrategy,
        growth_steps: usize,
    ) -> Result<Session, String> {
        if clustering.assignment.len() != graph.num_nodes() {
            return Err("clustering does not match graph size".into());
        }
        if let Some(o) = &oracle {
            if o.num_clusters() != clustering.num_clusters() {
                return Err("oracle does not match clustering".into());
            }
        }
        Ok(Session {
            graph,
            clustering: Arc::new(clustering),
            oracle,
            quotient: OnceLock::new(),
            frontier,
            growth_steps,
        })
    }

    /// The loaded graph, under whichever backend it is stored.
    pub fn graph(&self) -> &GraphRepr {
        &self.graph
    }

    /// Adjacency storage backend of the resident graph.
    pub fn backend(&self) -> Backend {
        self.graph.backend()
    }

    /// The resident clustering.
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// The resident oracle, if one was built or loaded.
    pub fn oracle(&self) -> Option<&DistanceOracle> {
        self.oracle.as_ref()
    }

    /// The unweighted quotient of the resident clustering and the combine
    /// kernel's ledger of its build. A session built with an oracle has it
    /// from the oracle's sweep; any other sweeps once, on first use.
    pub fn quotient(&self) -> (&CsrGraph, CombineStats) {
        let (q, kernel) = self
            .quotient
            .get_or_init(|| self.clustering.quotient_with_stats(&self.graph));
        (q, *kernel)
    }

    /// Frontier strategy `nearest` batches run under.
    pub fn frontier(&self) -> FrontierStrategy {
        self.frontier
    }

    /// Growth steps the decomposition spent at build time (the §5
    /// parallel-rounds proxy; 0 when unknown).
    pub fn growth_steps(&self) -> usize {
        self.growth_steps
    }

    fn check_node(&self, v: NodeId) -> Result<(), SessionError> {
        if (v as usize) < self.graph.num_nodes() {
            Ok(())
        } else {
            Err(SessionError::NodeOutOfRange(v))
        }
    }

    fn require_oracle(&self) -> Result<&DistanceOracle, SessionError> {
        self.oracle.as_ref().ok_or(SessionError::OracleMissing)
    }

    /// Batched §4 distance queries: an upper bound on `dist(u, v)` per
    /// pair, `u64::MAX` for cross-component pairs. O(1) per pair; the
    /// ledger reports zero waves.
    pub fn distance(
        &self,
        pairs: &[(NodeId, NodeId)],
    ) -> Result<(Vec<u64>, QueryLedger), SessionError> {
        let oracle = self.require_oracle()?;
        let mut out = Vec::with_capacity(pairs.len());
        for &(u, v) in pairs {
            self.check_node(u)?;
            self.check_node(v)?;
            out.push(oracle.query(u, v));
        }
        let ledger = QueryLedger::lookup(pairs.len(), self.frontier);
        pardec_obs::record(&ledger);
        Ok((out, ledger))
    }

    /// Batched cluster-membership lookups.
    pub fn cluster_of(&self, nodes: &[NodeId]) -> Result<(Vec<NodeId>, QueryLedger), SessionError> {
        let mut out = Vec::with_capacity(nodes.len());
        for &v in nodes {
            self.check_node(v)?;
            out.push(self.clustering.assignment[v as usize]);
        }
        let ledger = QueryLedger::lookup(nodes.len(), self.frontier);
        pardec_obs::record(&ledger);
        Ok((out, ledger))
    }

    /// Batched per-node eccentricity upper bounds (within each node's
    /// connected component), O(1) per node; see
    /// [`DistanceOracle::eccentricity_bound`].
    pub fn eccentricity(&self, nodes: &[NodeId]) -> Result<(Vec<u64>, QueryLedger), SessionError> {
        let oracle = self.require_oracle()?;
        let mut out = Vec::with_capacity(nodes.len());
        for &v in nodes {
            self.check_node(v)?;
            out.push(oracle.eccentricity_bound(v));
        }
        let ledger = QueryLedger::lookup(nodes.len(), self.frontier);
        pardec_obs::record(&ledger);
        Ok((out, ledger))
    }

    /// Batched nearest-source queries, answered by **one** multi-source
    /// [`FrontierEngine`] wave: every source is activated up front, the wave
    /// runs to exhaustion, and each probe reads off its claiming source and
    /// exact hop distance ([`FrontierEngine::label`]: the probes' labels
    /// only, never all `n`). Unreachable probes report
    /// `(INVALID_NODE, INFINITE_DIST)`.
    ///
    /// The ledger records `waves = 1` (or 0 for an empty source set) and
    /// `wave_rounds` = the engine's step count — this is the figure the
    /// serve acceptance check reads to confirm a 256-probe batch cost a
    /// single traversal.
    pub fn nearest(
        &self,
        sources: &[NodeId],
        probes: &[NodeId],
    ) -> Result<(Vec<(NodeId, u32)>, QueryLedger), SessionError> {
        for &s in sources {
            self.check_node(s)?;
        }
        for &p in probes {
            self.check_node(p)?;
        }
        if sources.is_empty() {
            let out = vec![(INVALID_NODE, INFINITE_DIST); probes.len()];
            let ledger = QueryLedger::lookup(probes.len(), self.frontier);
            pardec_obs::record(&ledger);
            return Ok((out, ledger));
        }
        let mut engine = FrontierEngine::new(&self.graph, self.frontier);
        for &s in sources {
            engine.add_source(s);
        }
        engine.run();
        let rounds = engine.steps() as u32;
        let out = probes
            .iter()
            .map(|&p| engine.label(p).unwrap_or((INVALID_NODE, INFINITE_DIST)))
            .collect();
        let ledger = QueryLedger {
            batch: probes.len() as u32,
            waves: 1,
            wave_rounds: rounds,
            strategy: self.frontier,
        };
        pardec_obs::record(&ledger);
        Ok((out, ledger))
    }

    /// The §4 diameter bounds of the resident clustering — the same numbers
    /// `pardec dist approx` reports, computed without re-clustering.
    ///
    /// `Δ_C` comes from the resident [`Session::quotient`]. With an oracle
    /// resident, `Δ″` takes `Δ′_C` from the oracle's stored quotient APSP
    /// ([`DistanceOracle::quotient_diameter`]) instead of running a second
    /// one. A loaded session thus takes `Δ″` from the snapshot's stored
    /// `ORCL` triangle, which both load paths only shape-check: the trust
    /// `distance` and `eccentricity` already place in it. Without an
    /// oracle, one sweep builds the weighted quotient for that APSP and
    /// the unweighted quotient the session keeps.
    pub fn diameter(&self, weighted: bool, sparsify_above: Option<usize>) -> DiameterApprox {
        let mut params = DiameterParams::new(1, 0).with_frontier(self.frontier);
        params.weighted = weighted;
        params.sparsify_above = sparsify_above;
        let weighted_diameter = weighted.then(|| match &self.oracle {
            Some(oracle) => oracle.quotient_diameter(),
            None => {
                let (quotient, wdiam) =
                    quotient_and_weighted_diameter(&self.graph, &self.clustering);
                let _ = self.quotient.set(quotient);
                wdiam
            }
        });
        let (quotient, kernel) = self.quotient();
        bounds_of_clustering(
            quotient,
            kernel,
            self.clustering.clone(),
            self.growth_steps,
            &params,
            weighted_diameter,
        )
    }

    // ------------------------------------------------------------------
    // Snapshot persistence
    // ------------------------------------------------------------------

    /// Writes the session as a `PDEC2` snapshot: graph section + `CLUS` +
    /// (when an oracle is resident) `ORCL`. Every array goes from its owner
    /// straight into `w`.
    pub fn save(&self, w: &mut impl Write) -> io::Result<()> {
        let c = &*self.clustering;
        let mut head = Vec::with_capacity(24);
        for v in [c.assignment.len(), c.centers.len(), self.growth_steps] {
            head.put_u64_le(v as u64);
        }
        let runs = [&c.assignment, &c.centers, &c.dist_to_center, &c.radii];
        let mut sections = vec![SectionData {
            tag: SECTION_CLUSTERING,
            version: SECTION_CLUSTERING_VERSION,
            head,
            words: runs.map(|r| Words::U32(r)).to_vec(),
        }];
        if let Some(oracle) = &self.oracle {
            let ecc = oracle.eccentricities();
            let mut head = Vec::with_capacity(8 * (3 + ecc.len()));
            head.put_u64_le(oracle.num_clusters() as u64);
            head.put_u64_le(oracle.entry_bytes() as u64);
            head.put_u64_le(oracle.quotient_diameter());
            for &e in ecc {
                head.put_u64_le(e);
            }
            sections.push(SectionData {
                tag: SECTION_ORACLE,
                version: SECTION_ORACLE_VERSION,
                head,
                words: vec![oracle.apsp_upper().words()],
            });
        }
        save_snapshot_repr(&self.graph, &sections, w)
    }

    /// Loads a session snapshot through the **fast** graph path (structural
    /// checks + bulk copy — the daemon-startup route; see
    /// [`pardec_graph::io`]'s trust contract). Requires a `CLUS` section;
    /// `ORCL` is optional.
    pub fn load(bytes: &[u8], frontier: FrontierStrategy) -> io::Result<Session> {
        Self::load_with(bytes, frontier, false)
    }

    /// Loads a snapshot of unknown origin: checked (builder) graph decode
    /// plus a full [`Clustering::validate`] pass.
    pub fn load_checked(bytes: &[u8], frontier: FrontierStrategy) -> io::Result<Session> {
        Self::load_with(bytes, frontier, true)
    }

    fn load_with(bytes: &[u8], frontier: FrontierStrategy, checked: bool) -> io::Result<Session> {
        let mut load_span =
            pardec_obs::span!("snapshot.load", bytes = bytes.len(), checked = checked,);
        let snap = Snapshot::parse(bytes)?;
        let graph = if checked {
            snap.graph_repr_checked()?
        } else {
            snap.graph_repr()?
        };
        let (clus_version, clus) = snap
            .section(SECTION_CLUSTERING)
            .ok_or_else(|| data_err("snapshot has no clustering section"))?;
        if clus_version != SECTION_CLUSTERING_VERSION {
            return Err(data_err(format!(
                "unsupported clustering section version {clus_version}"
            )));
        }
        let (clustering, growth_steps) = decode_clustering(clus, graph.num_nodes())?;
        if checked {
            clustering.validate(&graph).map_err(data_err)?;
        }
        let clustering = Arc::new(clustering);
        let oracle = match snap.section(SECTION_ORACLE) {
            None => None,
            Some((version, body)) => Some(decode_oracle(version, body, &clustering, checked)?),
        };
        load_span.field("nodes", graph.num_nodes());
        load_span.field("oracle", oracle.is_some());
        // `decode_clustering` checked the node count, `decode_oracle` the
        // cluster count: the checks of `from_parts`.
        Ok(Session {
            graph,
            clustering,
            oracle,
            quotient: OnceLock::new(),
            frontier,
            growth_steps,
        })
    }
}

fn data_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn oracle_err(msg: String) -> io::Error {
    data_err(format!("oracle {msg}"))
}

fn decode_clustering(body: &[u8], graph_nodes: usize) -> io::Result<(Clustering, usize)> {
    let mut buf = body;
    if buf.remaining() < 24 {
        return Err(data_err("truncated clustering header"));
    }
    let n = buf.get_u64_le() as usize;
    let k = buf.get_u64_le() as usize;
    let growth_steps = buf.get_u64_le() as usize;
    if n != graph_nodes {
        return Err(data_err("clustering node count does not match graph"));
    }
    let expected = n
        .checked_add(k)
        .and_then(|t| t.checked_mul(2))
        .and_then(|t| t.checked_mul(4))
        .ok_or_else(|| data_err("clustering sizes overflow"))?;
    if buf.remaining() != expected {
        return Err(data_err("clustering length mismatch"));
    }
    let mut take = |len: usize| -> Vec<u32> { (0..len).map(|_| buf.get_u32_le()).collect() };
    let assignment = take(n);
    let centers = take(k);
    let dist_to_center = take(n);
    let radii = take(k);
    // Cheap structural checks even on the fast path: everything in range,
    // so queries can index fearlessly.
    if assignment.iter().any(|&c| (c as usize) >= k) {
        return Err(data_err("clustering assignment out of range"));
    }
    if centers.iter().any(|&ctr| (ctr as usize) >= n) {
        return Err(data_err("clustering center out of range"));
    }
    Ok((
        Clustering {
            assignment,
            centers,
            dist_to_center,
            radii,
        },
        growth_steps,
    ))
}

/// Decodes an `ORCL` payload of layout `version` (1: full `q × q` `u64`
/// matrix, 2: packed `u64` upper triangle, 3: packed `u32` upper triangle,
/// 4: `ecc`, `Δ′_C` and a packed triangle of 2- or 4-byte entries) into the
/// oracle over `clustering`, in one pass over the payload. `checked`
/// rescans a version-4 triangle against its stored `ecc` and `Δ′_C`.
fn decode_oracle(
    version: u32,
    body: &[u8],
    clustering: &Arc<Clustering>,
    checked: bool,
) -> io::Result<DistanceOracle> {
    let mut buf = body;
    if buf.remaining() < 8 {
        return Err(data_err("truncated oracle header"));
    }
    let q = buf.get_u64_le() as usize;
    if q != clustering.num_clusters() {
        return Err(data_err("oracle cluster count does not match clustering"));
    }
    let triangle = q
        .checked_add(1)
        .and_then(|t| t.checked_mul(q))
        .map(|t| t / 2)
        .ok_or_else(|| data_err("oracle sizes overflow"))?;
    let oracle = match version {
        4 => {
            if buf.remaining() < 16 {
                return Err(data_err("truncated oracle header"));
            }
            let (entry_bytes, diameter) = (buf.get_u64_le(), buf.get_u64_le());
            let ecc_bytes = q
                .checked_mul(8)
                .filter(|&b| b <= buf.remaining())
                .ok_or_else(|| data_err("truncated oracle eccentricities"))?;
            let (ecc, apsp) = buf.split_at(ecc_bytes);
            let ecc = ecc
                .chunks_exact(8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("chunks of 8 bytes")))
                .collect();
            let apsp = Triangle::decode(entry_bytes, triangle, apsp).map_err(oracle_err)?;
            DistanceOracle::from_stored_parts(clustering.clone(), apsp, ecc, diameter, checked)
        }
        3 => {
            let apsp = Triangle::decode(4, triangle, buf).map_err(oracle_err)?;
            DistanceOracle::from_raw_parts(clustering.clone(), apsp)
        }
        1 | 2 => {
            let entries = if version == 1 {
                q.checked_mul(q)
            } else {
                Some(triangle)
            };
            let expected = entries
                .and_then(|t| t.checked_mul(8))
                .ok_or_else(|| data_err("oracle sizes overflow"))?;
            if buf.remaining() != expected {
                return Err(data_err("oracle length mismatch"));
            }
            let mut upper = Vec::with_capacity(triangle);
            for i in 0..q {
                // Version 1 stores row `i` in full; its first `i` words
                // repeat the lower half.
                let skip = if version == 1 { i } else { 0 };
                let (row, rest) = buf.split_at(8 * (skip + q - i));
                buf = rest;
                for b in row[8 * skip..].chunks_exact(8) {
                    let d = u64::from_le_bytes(b.try_into().expect("chunks of 8 bytes"));
                    upper.push(
                        upper_entry(d)
                            .ok_or_else(|| data_err("oracle distance does not fit a u32 entry"))?,
                    );
                }
            }
            DistanceOracle::from_raw_parts(clustering.clone(), Triangle::wide(upper))
        }
        _ => {
            return Err(data_err(format!(
                "unsupported oracle section version {version}"
            )))
        }
    };
    oracle.map_err(data_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardec_graph::generators;
    use pardec_graph::traversal::bfs;

    fn mesh_session(build_oracle: bool) -> Session {
        let g = generators::mesh(12, 12);
        let mut params = SessionParams::new(4, 7);
        params.build_oracle = build_oracle;
        Session::build(g, &params)
    }

    #[test]
    fn build_matches_standalone_cluster() {
        let g = generators::mesh(10, 10);
        let s = Session::build(g.clone(), &SessionParams::new(4, 3));
        let standalone = cluster(&g, &ClusterParams::new(4, 3)).clustering;
        assert_eq!(s.clustering(), &standalone);
        assert_eq!(
            s.growth_steps(),
            cluster(&g, &ClusterParams::new(4, 3))
                .trace
                .total_growth_steps()
        );
        s.clustering().validate(s.graph()).unwrap();
        assert!(s.oracle().is_some());
    }

    #[test]
    fn distance_batch_matches_oracle() {
        let s = mesh_session(true);
        let oracle = s.oracle().unwrap();
        let pairs = [(0, 143), (5, 5), (17, 100)];
        let (dists, ledger) = s.distance(&pairs).unwrap();
        assert_eq!(ledger.batch, 3);
        assert_eq!(ledger.waves, 0);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            assert_eq!(dists[i], oracle.query(u, v));
        }
    }

    #[test]
    fn cluster_of_matches_assignment() {
        let s = mesh_session(false);
        let (clusters, ledger) = s.cluster_of(&[0, 7, 99]).unwrap();
        assert_eq!(ledger.waves, 0);
        for (i, &v) in [0usize, 7, 99].iter().enumerate() {
            assert_eq!(clusters[i], s.clustering().assignment[v]);
        }
    }

    #[test]
    fn eccentricity_dominates_truth() {
        let s = mesh_session(true);
        let nodes = [0u32, 60, 143];
        let (bounds, _) = s.eccentricity(&nodes).unwrap();
        for (i, &v) in nodes.iter().enumerate() {
            let truth = bfs(s.graph(), v)
                .dist
                .iter()
                .copied()
                .filter(|&d| d != INFINITE_DIST)
                .max()
                .unwrap() as u64;
            assert!(bounds[i] >= truth, "ecc({v}) bound {} < {truth}", bounds[i]);
        }
    }

    /// `ECC` answers are the row-scan definition, `dist(v, c_v)` plus the
    /// largest `apsp[C_v][C] + radius(C)` over reachable clusters `C`, on a
    /// built session and on both loaded ones. The reference rows come from
    /// heap Dijkstra on the weighted quotient.
    #[test]
    fn eccentricity_equals_the_row_scan_definition() {
        let g = generators::disjoint_union(
            &generators::disjoint_union(&generators::mesh(9, 9), &generators::cycle(11)),
            &CsrGraph::empty(5),
        );
        let built = Session::build(g.clone(), &SessionParams::new(4, 5));
        let c = built.clustering().clone();
        let wq = c.weighted_quotient(&g);
        let rows: Vec<Vec<u64>> = (0..wq.num_nodes() as NodeId)
            .map(|k| pardec_graph::naive::dijkstra(&wq, k))
            .collect();
        let nodes: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
        let reference: Vec<u64> = nodes
            .iter()
            .map(|&v| {
                let dv = c.dist_to_center[v as usize] as u64;
                rows[c.assignment[v as usize] as usize]
                    .iter()
                    .zip(&c.radii)
                    .filter(|(&d, _)| d != u64::MAX)
                    .map(|(&d, &r)| dv + d + r as u64)
                    .max()
                    .unwrap_or(dv)
            })
            .collect();
        let mut buf = Vec::new();
        built.save(&mut buf).unwrap();
        for s in [
            Session::load(&buf, built.frontier()).unwrap(),
            Session::load_checked(&buf, built.frontier()).unwrap(),
            built,
        ] {
            let (ecc, ledger) = s.eccentricity(&nodes).unwrap();
            assert_eq!(ledger.waves, 0);
            assert_eq!(ecc, reference);
        }
    }

    #[test]
    fn nearest_is_one_wave_and_exact() {
        let s = mesh_session(false);
        let sources = [0u32, 143];
        let probes: Vec<NodeId> = (0..144).collect();
        let (answers, ledger) = s.nearest(&sources, &probes).unwrap();
        assert_eq!(ledger.batch, 144);
        assert_eq!(ledger.waves, 1, "a batch must cost exactly one wave");
        assert!(ledger.wave_rounds > 0);
        let d0 = bfs(s.graph(), 0).dist;
        let d1 = bfs(s.graph(), 143).dist;
        for (p, &(src, dist)) in probes.iter().zip(&answers) {
            let best = d0[*p as usize].min(d1[*p as usize]);
            assert_eq!(dist, best, "probe {p}");
            assert!(sources.contains(&src));
        }
    }

    #[test]
    fn nearest_handles_unreachable_and_empty() {
        let g = generators::disjoint_union(&generators::path(5), &generators::path(5));
        let s = Session::build(g, &SessionParams::new(2, 1).without_oracle());
        let (answers, _) = s.nearest(&[0], &[2, 7]).unwrap();
        assert_eq!(answers[0], (0, 2));
        assert_eq!(answers[1], (INVALID_NODE, INFINITE_DIST));
        let (answers, ledger) = s.nearest(&[], &[3]).unwrap();
        assert_eq!(answers[0], (INVALID_NODE, INFINITE_DIST));
        assert_eq!(ledger.waves, 0);
    }

    #[test]
    fn errors_are_reported() {
        let s = mesh_session(false);
        assert_eq!(
            s.distance(&[(0, 1)]).unwrap_err(),
            SessionError::OracleMissing
        );
        assert_eq!(
            s.cluster_of(&[999]).unwrap_err(),
            SessionError::NodeOutOfRange(999)
        );
        assert_eq!(
            s.nearest(&[0], &[999]).unwrap_err(),
            SessionError::NodeOutOfRange(999)
        );
    }

    #[test]
    fn snapshot_round_trips_with_oracle() {
        let s = mesh_session(true);
        let mut buf = Vec::new();
        s.save(&mut buf).unwrap();
        for loaded in [
            Session::load(&buf, s.frontier()).unwrap(),
            Session::load_checked(&buf, s.frontier()).unwrap(),
        ] {
            assert_eq!(loaded.graph(), s.graph());
            assert_eq!(loaded.clustering(), s.clustering());
            assert_eq!(loaded.oracle(), s.oracle());
            assert_eq!(loaded.growth_steps(), s.growth_steps());
        }
    }

    #[test]
    fn snapshot_round_trips_without_oracle() {
        let s = mesh_session(false);
        let mut buf = Vec::new();
        s.save(&mut buf).unwrap();
        let loaded = Session::load(&buf, s.frontier()).unwrap();
        assert!(loaded.oracle().is_none());
        assert_eq!(loaded.clustering(), s.clustering());
    }

    #[test]
    fn snapshot_every_truncation_is_an_error() {
        let g = generators::mesh(4, 5);
        let s = Session::build(g, &SessionParams::new(2, 9));
        let mut buf = Vec::new();
        s.save(&mut buf).unwrap();
        for cut in 0..buf.len() {
            assert!(
                Session::load(&buf[..cut], FrontierStrategy::TopDown).is_err(),
                "prefix of {cut} bytes must not load"
            );
        }
    }

    #[test]
    fn snapshot_rejects_cross_wired_sections() {
        // A clustering for a *different* graph size must be rejected.
        let a = Session::build(generators::mesh(4, 4), &SessionParams::new(2, 1));
        let b = Session::build(generators::mesh(5, 5), &SessionParams::new(2, 1));
        let mut buf = Vec::new();
        let hybrid = Session::from_parts(
            b.graph().clone(),
            a.clustering().clone(),
            None,
            FrontierStrategy::TopDown,
            0,
        );
        assert!(hybrid.is_err());
        // Write a's sections, then corrupt the declared node count.
        a.save(&mut buf).unwrap();
        let snap = Snapshot::parse(&buf).unwrap();
        let clus_off = snap
            .sections()
            .iter()
            .find(|e| e.tag == SECTION_CLUSTERING)
            .unwrap()
            .offset;
        let mut bad = buf.clone();
        bad[clus_off..clus_off + 8].copy_from_slice(&999u64.to_le_bytes());
        assert!(Session::load(&bad, FrontierStrategy::TopDown).is_err());
    }

    #[test]
    fn compressed_backend_is_byte_identical_and_round_trips() {
        let g = generators::preferential_attachment(600, 4, 3);
        let plain = Session::build(
            g.clone(),
            &SessionParams::new(4, 7).with_backend(Backend::Plain),
        );
        let comp = Session::build(
            g,
            &SessionParams::new(4, 7).with_backend(Backend::Compressed),
        );
        assert_eq!(comp.backend(), Backend::Compressed);
        // The backend is a storage knob only: decomposition and oracle are
        // byte-identical.
        assert_eq!(plain.clustering(), comp.clustering());
        assert_eq!(plain.oracle(), comp.oracle());
        assert_eq!(plain.growth_steps(), comp.growth_steps());
        let (pd, _) = plain.distance(&[(0, 599), (17, 300)]).unwrap();
        let (cd, _) = comp.distance(&[(0, 599), (17, 300)]).unwrap();
        assert_eq!(pd, cd);
        let (pn, _) = plain.nearest(&[0, 599], &[5, 250, 400]).unwrap();
        let (cn, _) = comp.nearest(&[0, 599], &[5, 250, 400]).unwrap();
        assert_eq!(pn, cn);
        let dp = plain.diameter(true, None);
        let dc = comp.diameter(true, None);
        assert_eq!(dp.lower_bound, dc.lower_bound);
        assert_eq!(dp.estimate(), dc.estimate());
        // Snapshots preserve the backend through both read paths.
        let mut buf = Vec::new();
        comp.save(&mut buf).unwrap();
        for loaded in [
            Session::load(&buf, comp.frontier()).unwrap(),
            Session::load_checked(&buf, comp.frontier()).unwrap(),
        ] {
            assert_eq!(loaded.backend(), Backend::Compressed);
            assert_eq!(loaded.graph(), comp.graph());
            assert_eq!(loaded.clustering(), comp.clustering());
            assert_eq!(loaded.oracle(), comp.oracle());
        }
        // The compressed snapshot is smaller than the plain one.
        let mut plain_buf = Vec::new();
        plain.save(&mut plain_buf).unwrap();
        assert!(buf.len() < plain_buf.len());
    }

    /// The full recompute `Session::diameter` must match when it reads `Δ″`
    /// from the resident oracle.
    fn recompute_diameter(s: &Session) -> DiameterApprox {
        let params = DiameterParams::new(1, 0).with_frontier(s.frontier());
        crate::diameter::approximate_diameter_of_clustering(
            s.graph(),
            s.clustering().clone(),
            s.growth_steps(),
            &params,
        )
    }

    #[test]
    fn diameter_reuses_resident_clustering() {
        let g = generators::mesh(15, 15);
        let s = Session::build(g.clone(), &SessionParams::new(4, 2));
        let d = s.diameter(true, None);
        assert_eq!(*d.clustering, *s.clustering());
        assert_eq!(d, recompute_diameter(&s));
        let truth = pardec_graph::diameter::exact_diameter(&g) as u64;
        assert!(d.lower_bound <= truth);
        assert!(d.estimate() >= truth);
    }

    #[test]
    fn oracle_diameter_matches_full_recompute() {
        let g = generators::disjoint_union(
            &generators::road_network(12, 12, 0.4, 4),
            &generators::preferential_attachment(120, 3, 8),
        );
        for algo in [
            SessionAlgo::Cluster,
            SessionAlgo::Cluster2,
            SessionAlgo::Mpx { beta: 0.3 },
        ] {
            for backend in [Backend::Plain, Backend::Compressed] {
                let params = SessionParams::new(4, 5)
                    .with_algo(algo)
                    .with_backend(backend);
                let built = Session::build(g.clone(), &params);
                let mut buf = Vec::new();
                built.save(&mut buf).unwrap();
                let sessions = [
                    Session::load(&buf, built.frontier()).unwrap(),
                    Session::load_checked(&buf, built.frontier()).unwrap(),
                    built,
                ];
                for s in &sessions {
                    assert!(s.oracle().is_some());
                    let full = recompute_diameter(s);
                    assert!(full.upper_bound_weighted.is_some());
                    assert_eq!(s.diameter(true, None), full, "{} {backend}", algo.name());
                }
            }
        }
    }

    #[test]
    fn mpx_and_cluster2_sessions_build() {
        let g = generators::mesh(8, 8);
        for algo in [SessionAlgo::Cluster2, SessionAlgo::Mpx { beta: 0.3 }] {
            let s = Session::build(g.clone(), &SessionParams::new(2, 5).with_algo(algo));
            s.clustering().validate(s.graph()).unwrap();
            assert!(s.oracle().is_some());
            let mut buf = Vec::new();
            s.save(&mut buf).unwrap();
            let loaded = Session::load(&buf, s.frontier()).unwrap();
            assert_eq!(loaded.clustering(), s.clustering());
        }
    }
}
