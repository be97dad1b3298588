//! Bucketed weighted frontier engine — the delta-stepping generalization of
//! the level-synchronous [`crate::frontier`] wave.
//!
//! The unweighted engine advances all cluster waves one hop per step; with
//! weighted edges a "step" has no natural unit, so this engine processes
//! *time buckets* of width `delta` instead (Meyer–Sanders delta-stepping,
//! generalized to multi-source ownership): all claims whose arrival time
//! falls in `[b·δ, (b+1)·δ)` are resolved together, **light** edges
//! (`w ≤ δ`) are relaxed iteratively inside the bucket until a fixed point,
//! and **heavy** edges (`w > δ`) are relaxed exactly once when the bucket
//! seals — a heavy edge can never connect two claims of the same bucket.
//!
//! # Determinism contract
//!
//! Each node's claim is the minimum over all proposals of the packed word
//!
//! ```text
//! claim = (arrival_time << 64) | (owner << 32) | hops      (u128)
//! ```
//!
//! where `arrival_time = activation(owner) + weighted_dist`. Because `min`
//! is commutative, associative, and idempotent, the fixed point is a pure
//! function of the graph, the sources, and their activation times —
//! independent of the pool size, the chunk grid, *and the bucket width
//! `delta` itself*: `delta` only decides how the fixed point is scheduled,
//! never what it is. Ties on arrival time go to the smallest owner id, then
//! the fewest hops (and per-node storage makes the node id the implicit
//! final tie-break), which is exactly the settle order of a sequential
//! multi-source Dijkstra whose heap is keyed `(t, owner, wd, hops, node)` —
//! the oracle retained in `pardec_core::weighted_cluster::naive`.
//!
//! Proposals are generated over a fixed chunk grid and min-combined through
//! [`crate::combine::combine_by_key`], so outputs are byte-identical at any
//! thread count.
//!
//! # Incremental sources
//!
//! Unlike the unweighted engine, sources may be injected *mid-run* (batched
//! center activation at halving thresholds needs this): [`add_source`]
//! accepts an activation time, and the open bucket can be re-resolved with
//! [`refine_open_bucket`] after [`rollback_open_bucket_after`] discards the
//! claims a new batch may steal. An activated source's own claim is locked
//! (`hops == 0`) — matching the oracle, where an assigned center is never
//! re-claimed even if an older wave later offers a smaller key.
//!
//! [`add_source`]: WeightedFrontierEngine::add_source
//! [`refine_open_bucket`]: WeightedFrontierEngine::refine_open_bucket
//! [`rollback_open_bucket_after`]: WeightedFrontierEngine::rollback_open_bucket_after

use crate::combine;
use crate::weighted::WeightedGraph;
use crate::NodeId;
use rayon::prelude::*;

/// Environment variable consulted by [`resolve_delta`] when no explicit
/// bucket width is requested (the `--delta` flag of the CLI).
pub const DELTA_ENV: &str = "PARDEC_DELTA";

/// Sentinel claim word: no proposal yet.
pub const NO_CLAIM: u128 = u128::MAX;

/// Fixed proposal-generation chunk width — a pure function of nothing, so
/// the chunk grid never depends on the pool size.
const PROPOSE_CHUNK: usize = 1024;

/// Packs `(arrival_time, owner, hops)` into one comparable word. Comparing
/// packed claims is comparing `(t, owner, hops)` tuples; the weighted
/// distance is implicit (`t - activation(owner)`).
#[inline]
pub fn pack_claim(arrival: u64, owner: NodeId, hops: u32) -> u128 {
    ((arrival as u128) << 64) | ((owner as u128) << 32) | hops as u128
}

/// Inverse of [`pack_claim`]: `(arrival_time, owner, hops)`.
#[inline]
pub fn unpack_claim(claim: u128) -> (u64, NodeId, u32) {
    ((claim >> 64) as u64, (claim >> 32) as NodeId, claim as u32)
}

/// Bucket width selected by the `PARDEC_DELTA` environment variable, or
/// `None` when the variable is unset or empty (a CI matrix leg without a
/// delta exports the empty string).
///
/// # Panics
/// Panics on an unparsable or zero value — a misspelled CI matrix entry
/// must fail loudly rather than silently fall back to the default.
pub fn delta_from_env() -> Option<u64> {
    let raw = std::env::var(DELTA_ENV).ok()?;
    if raw.trim().is_empty() {
        return None;
    }
    match raw.trim().parse::<u64>() {
        Ok(0) => panic!("{DELTA_ENV}: bucket width must be positive"),
        Ok(d) => Some(d),
        Err(e) => panic!("{DELTA_ENV}: invalid bucket width {raw:?}: {e}"),
    }
}

/// Data-driven default bucket width: the mean edge weight (the classic
/// delta-stepping heuristic `δ ≈ Δ/d` degenerates to this for the random
/// weights used here), clamped to at least 1. A pure function of the graph.
pub fn auto_delta(g: &WeightedGraph) -> u64 {
    let arcs = 2 * g.num_edges();
    if arcs == 0 {
        return 1;
    }
    let total: u128 = (0..g.num_nodes() as NodeId)
        .into_par_iter()
        .map(|u| g.neighbors(u).map(|(_, w)| w as u128).sum::<u128>())
        .sum();
    ((total / arcs as u128) as u64).max(1)
}

/// The ambient bucket width: `requested` when given, else `PARDEC_DELTA`,
/// else [`auto_delta`]. Outputs never depend on the choice — only
/// wall-clock does.
pub fn resolve_delta(g: &WeightedGraph, requested: Option<u64>) -> u64 {
    requested
        .or_else(delta_from_env)
        .unwrap_or_else(|| auto_delta(g))
}

/// Per-wave ledger of one engine run (all buckets so far).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaveStats {
    /// Buckets resolved (non-empty time windows).
    pub buckets: u64,
    /// Edge relaxations attempted (light, across all inner iterations).
    pub light_relaxations: u64,
    /// Edge relaxations attempted at bucket seals (heavy + cross-bucket).
    pub heavy_relaxations: u64,
    /// Inner fixed-point iterations summed over buckets.
    pub inner_iterations: u64,
    /// Nodes settled across all sealed buckets.
    pub settled: u64,
}

/// Final arrays of a finished wave (see
/// [`WeightedFrontierEngine::into_parts`]).
pub struct WeightedFrontierParts {
    /// Claiming source index per node (`INVALID_NODE` if unclaimed).
    pub owner: Vec<NodeId>,
    /// Weighted distance to the claiming source
    /// ([`crate::weighted::INFINITE_WEIGHT`] if unclaimed).
    pub weighted_dist: Vec<u64>,
    /// Hop count of the claim path (`u32::MAX` if unclaimed).
    pub hops: Vec<u32>,
    /// The source nodes, in activation order (owner id = index).
    pub sources: Vec<NodeId>,
}

/// Multi-source weighted wave over bucketed frontiers. See the module docs
/// for the claim semantics and determinism contract.
pub struct WeightedFrontierEngine<'g> {
    g: &'g WeightedGraph,
    delta: u64,
    /// Packed `(t, owner, hops)` claim per node; `NO_CLAIM` if none.
    claim: Vec<u128>,
    /// Claim snapshot taken when the open bucket was opened — the rollback
    /// baseline (values derived from sealed buckets only).
    carry: Vec<u128>,
    settled: Vec<bool>,
    /// Activation time per owner id.
    activation: Vec<u64>,
    sources: Vec<NodeId>,
    /// Currently open bucket index, if any.
    open: Option<u64>,
    /// Settle-order position of the last rollback in the open bucket.
    /// Open-bucket claims strictly after it are tentative again (a
    /// mid-bucket batch may still steal them) until the bucket seals.
    rollback_mark: Option<(u128, NodeId)>,
    bucket_span: Option<pardec_obs::SpanGuard>,
    /// Light relaxations + inner iterations of the open bucket (for the
    /// bucket span).
    open_light: u64,
    open_iters: u64,
    stats: WaveStats,
}

impl<'g> WeightedFrontierEngine<'g> {
    /// Creates an engine over `g` with bucket width `delta ≥ 1`.
    ///
    /// # Panics
    /// Panics if `delta == 0`.
    pub fn new(g: &'g WeightedGraph, delta: u64) -> Self {
        assert!(delta >= 1, "bucket width delta must be positive");
        let n = g.num_nodes();
        WeightedFrontierEngine {
            g,
            delta,
            claim: vec![NO_CLAIM; n],
            carry: vec![NO_CLAIM; n],
            settled: vec![false; n],
            activation: Vec::new(),
            sources: Vec::new(),
            open: None,
            rollback_mark: None,
            bucket_span: None,
            open_light: 0,
            open_iters: 0,
            stats: WaveStats::default(),
        }
    }

    /// Bucket width in use.
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// The run's ledger so far.
    pub fn stats(&self) -> &WaveStats {
        &self.stats
    }

    /// Sources in activation order.
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    #[inline]
    fn bucket_of(&self, t: u64) -> u64 {
        t / self.delta
    }

    /// True when `v` holds a *final* claim: settled in a sealed bucket, an
    /// activated source, or resolved in the open bucket. Tentative claims in
    /// future buckets do not count — they may still lose to a later batch.
    pub fn is_claimed(&self, v: NodeId) -> bool {
        let vi = v as usize;
        if self.settled[vi] {
            return true;
        }
        let c = self.claim[vi];
        if c == NO_CLAIM {
            return false;
        }
        // Sources are claimed from the moment of activation.
        if c as u32 == 0 {
            return true;
        }
        match self.open {
            Some(b) => {
                if self.bucket_of((c >> 64) as u64) > b {
                    return false;
                }
                // After a rollback, in-bucket claims beyond the mark are
                // tentative again — including carry tents inherited from
                // earlier seals, which the oracle holds as unpopped events.
                self.rollback_mark.is_none_or(|mark| (c, v) <= mark)
            }
            None => false,
        }
    }

    /// Final claim of `v` as `(owner, weighted_dist, hops)`, or `None` while
    /// unclaimed (see [`is_claimed`](Self::is_claimed)).
    pub fn claim_parts(&self, v: NodeId) -> Option<(NodeId, u64, u32)> {
        if !self.is_claimed(v) {
            return None;
        }
        let (t, owner, hops) = unpack_claim(self.claim[v as usize]);
        Some((owner, t - self.activation[owner as usize], hops))
    }

    /// Activates `v` as a new source at the given time, returning its owner
    /// id — or `None` if `v` already holds a final claim. The self-claim
    /// `(time, id, hops = 0)` is locked: no wave can re-claim an activated
    /// source, mirroring the sequential oracle where assignment is
    /// permanent.
    ///
    /// Activation times must be non-decreasing across calls and, while a
    /// bucket is open, must not precede it — both hold by construction for
    /// Dijkstra-ordered orchestration and are debug-asserted.
    pub fn add_source(&mut self, v: NodeId, time: u64) -> Option<NodeId> {
        if self.is_claimed(v) {
            return None;
        }
        debug_assert!(
            self.activation.last().is_none_or(|&t| t <= time),
            "activation times must be non-decreasing"
        );
        debug_assert!(
            self.open.is_none_or(|b| self.bucket_of(time) >= b),
            "source activated before the open bucket"
        );
        let id = self.sources.len() as NodeId;
        self.claim[v as usize] = pack_claim(time, id, 0);
        self.activation.push(time);
        self.sources.push(v);
        Some(id)
    }

    /// Opens the next non-empty bucket and resolves it to its light-edge
    /// fixed point. Returns the bucket index, or `None` when no tentative
    /// claims remain (the wave is exhausted).
    pub fn open_next_bucket(&mut self) -> Option<u64> {
        debug_assert!(self.open.is_none(), "seal the open bucket first");
        let delta = self.delta;
        let next = self
            .claim
            .par_iter()
            .zip(self.settled.par_iter())
            .filter(|&(&c, &s)| !s && c != NO_CLAIM)
            .map(|(&c, _)| (c >> 64) as u64 / delta)
            .min()?;
        self.open = Some(next);
        self.rollback_mark = None;
        self.carry.copy_from_slice(&self.claim);
        self.open_light = 0;
        self.open_iters = 0;
        self.bucket_span = Some(pardec_obs::span!(
            "wfrontier.bucket",
            bucket = next,
            delta = self.delta,
        ));
        self.stats.buckets += 1;
        self.relax_open_bucket();
        Some(next)
    }

    /// Claims resolved in the open bucket, as `(claim, node)` pairs sorted
    /// ascending — the sequential oracle's settle order restricted to this
    /// time window.
    pub fn open_bucket_claims(&self) -> Vec<(u128, NodeId)> {
        let b = self.open.expect("no open bucket");
        let mut out: Vec<(u128, NodeId)> = (0..self.claim.len())
            .filter(|&v| {
                !self.settled[v]
                    && self.claim[v] != NO_CLAIM
                    && self.bucket_of((self.claim[v] >> 64) as u64) == b
            })
            .map(|v| (self.claim[v], v as NodeId))
            .collect();
        out.sort_unstable();
        out
    }

    /// Discards every open-bucket claim strictly after `(claim, node)` in
    /// settle order, resetting those nodes to their bucket-open baseline.
    /// Locked source self-claims survive (assignment is permanent). Call
    /// before injecting a mid-bucket batch, then
    /// [`refine_open_bucket`](Self::refine_open_bucket).
    pub fn rollback_open_bucket_after(&mut self, claim: u128, node: NodeId) {
        let b = self.open.expect("no open bucket");
        for v in 0..self.claim.len() {
            let c = self.claim[v];
            if self.settled[v] || c == NO_CLAIM {
                continue;
            }
            if self.bucket_of((c >> 64) as u64) != b {
                continue;
            }
            if (c, v as NodeId) <= (claim, node) || c as u32 == 0 {
                continue; // settled prefix, or a locked source self-claim
            }
            self.claim[v] = self.carry[v];
        }
        self.rollback_mark = Some((claim, node));
    }

    /// Re-resolves the open bucket's light-edge fixed point after a
    /// rollback + source injection.
    pub fn refine_open_bucket(&mut self) {
        self.relax_open_bucket();
    }

    /// Light-edge fixed point of the open bucket. Starts from every
    /// unsettled claim currently in the bucket and iterates until no claim
    /// in the bucket improves.
    fn relax_open_bucket(&mut self) {
        let b = self.open.expect("no open bucket");
        let mut active: Vec<NodeId> = (0..self.claim.len())
            .filter(|&v| {
                !self.settled[v]
                    && self.claim[v] != NO_CLAIM
                    && self.bucket_of((self.claim[v] >> 64) as u64) == b
            })
            .map(|v| v as NodeId)
            .collect();
        while !active.is_empty() {
            self.open_iters += 1;
            let proposals = self.propose(&active, true, Some(b));
            active = self.apply(proposals, Some(b));
        }
    }

    /// Seals the open bucket: every claim in it becomes settled, its heavy
    /// and cross-bucket relaxations are applied once, and the bucket span
    /// is emitted.
    pub fn seal_open_bucket(&mut self) {
        let b = self.open.expect("no open bucket");
        let sealed: Vec<NodeId> = (0..self.claim.len())
            .filter(|&v| {
                !self.settled[v]
                    && self.claim[v] != NO_CLAIM
                    && self.bucket_of((self.claim[v] >> 64) as u64) == b
            })
            .map(|v| v as NodeId)
            .collect();
        // Relax *all* edges of the sealed set once, applying only proposals
        // that land beyond this bucket (in-bucket ones are no-ops at the
        // fixed point; heavy edges cannot land in-bucket at all).
        let proposals = self.propose(&sealed, false, None);
        let _ = self.apply(proposals, None);
        for &v in &sealed {
            self.settled[v as usize] = true;
        }
        self.stats.settled += sealed.len() as u64;
        self.stats.light_relaxations += self.open_light;
        self.stats.inner_iterations += self.open_iters;
        if let Some(mut span) = self.bucket_span.take() {
            span.field("settled", sealed.len());
            span.field("light_relaxations", self.open_light);
            span.field("inner_iterations", self.open_iters);
        }
        self.open = None;
        self.rollback_mark = None;
    }

    /// Generates improving proposals from `active` over a fixed chunk grid.
    /// `light_only` restricts to edges with `w ≤ delta`; `in_bucket`
    /// restricts to proposals whose arrival falls in that bucket.
    fn propose(
        &mut self,
        active: &[NodeId],
        light_only: bool,
        in_bucket: Option<u64>,
    ) -> Vec<(NodeId, u128)> {
        let delta = self.delta;
        let g = self.g;
        let claim = &self.claim;
        let chunks: Vec<(Vec<(NodeId, u128)>, u64)> = active
            .par_chunks(PROPOSE_CHUNK)
            .map(|chunk| {
                let mut out = Vec::new();
                let mut scanned = 0u64;
                for &v in chunk {
                    let c = claim[v as usize];
                    debug_assert_ne!(c, NO_CLAIM);
                    let (t, owner, hops) = unpack_claim(c);
                    for (u, w) in g.neighbors(v) {
                        if light_only && w > delta {
                            continue;
                        }
                        scanned += 1;
                        let arrival = t + w;
                        if in_bucket.is_some_and(|b| arrival / delta != b) {
                            continue;
                        }
                        let cand = pack_claim(arrival, owner, hops + 1);
                        if cand < claim[u as usize] {
                            out.push((u, cand));
                        }
                    }
                }
                (out, scanned)
            })
            .collect();
        let mut proposals = Vec::new();
        for (mut part, scanned) in chunks {
            proposals.append(&mut part);
            if light_only {
                self.open_light += scanned;
            } else {
                self.stats.heavy_relaxations += scanned;
            }
        }
        proposals
    }

    /// Min-combines `proposals` per target and applies the survivors,
    /// skipping settled nodes and locked source self-claims. Returns the
    /// targets whose claim improved *within* `reactivate_bucket`, in node
    /// order (the combine output is key-sorted).
    fn apply(
        &mut self,
        proposals: Vec<(NodeId, u128)>,
        reactivate_bucket: Option<u64>,
    ) -> Vec<NodeId> {
        if proposals.is_empty() {
            return Vec::new();
        }
        let n = self.claim.len() as u64;
        let (combined, _) = combine::combine_by_key(
            proposals,
            n,
            |&(v, _)| v as u64,
            |a, b| if b.1 < a.1 { b } else { a },
        );
        let mut improved = Vec::new();
        for (v, cand) in combined {
            let vi = v as usize;
            let cur = self.claim[vi];
            if self.settled[vi] || cand >= cur {
                continue;
            }
            // A locked source self-claim (hops == 0) is never re-claimed.
            if cur != NO_CLAIM && cur as u32 == 0 {
                continue;
            }
            self.claim[vi] = cand;
            if reactivate_bucket.is_some_and(|b| self.bucket_of((cand >> 64) as u64) == b) {
                improved.push(v);
            }
        }
        improved
    }

    /// Runs the wave to exhaustion with the current sources — the
    /// non-batched mode (each bucket opens, resolves, and seals with no
    /// mid-bucket injection).
    pub fn run(&mut self) {
        let mut wave = pardec_obs::span!(
            "wfrontier.wave",
            sources = self.sources.len(),
            delta = self.delta,
        );
        while self.open_next_bucket().is_some() {
            self.seal_open_bucket();
        }
        wave.field("buckets", self.stats.buckets);
        wave.field("settled", self.stats.settled);
    }

    /// Consumes the engine into its final arrays.
    pub fn into_parts(self) -> WeightedFrontierParts {
        let n = self.claim.len();
        let mut owner = vec![crate::INVALID_NODE; n];
        let mut weighted_dist = vec![crate::weighted::INFINITE_WEIGHT; n];
        let mut hops = vec![u32::MAX; n];
        for v in 0..n {
            let c = self.claim[v];
            if c == NO_CLAIM || !(self.settled[v] || c as u32 == 0) {
                continue;
            }
            let (t, o, h) = unpack_claim(c);
            owner[v] = o;
            weighted_dist[v] = t - self.activation[o as usize];
            hops[v] = h;
        }
        WeightedFrontierParts {
            owner,
            weighted_dist,
            hops,
            sources: self.sources,
        }
    }
}

/// Multi-source weighted shortest paths with ownership: runs one wave from
/// `sources` (all activated at time 0) and returns the final arrays. The
/// weighted analogue of [`crate::frontier::multi_source_bfs`].
pub fn multi_source_dijkstra(
    g: &WeightedGraph,
    sources: &[NodeId],
    delta: u64,
) -> WeightedFrontierParts {
    let mut eng = WeightedFrontierEngine::new(g, delta);
    for &s in sources {
        eng.add_source(s, 0);
    }
    eng.run();
    eng.into_parts()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weighted::INFINITE_WEIGHT;
    use crate::INVALID_NODE;

    fn diamond() -> WeightedGraph {
        WeightedGraph::from_edges(4, &[(0, 1, 1), (1, 3, 1), (0, 3, 5), (0, 2, 1), (2, 3, 1)])
    }

    /// Per-source Dijkstra reference: smallest distance wins, then the
    /// smallest source index, then the fewest hops.
    fn oracle(g: &WeightedGraph, sources: &[NodeId]) -> (Vec<NodeId>, Vec<u64>) {
        let n = g.num_nodes();
        let mut owner = vec![INVALID_NODE; n];
        let mut dist = vec![INFINITE_WEIGHT; n];
        for (id, &s) in sources.iter().enumerate() {
            let d = g.dijkstra(s);
            for v in 0..n {
                if d[v] < dist[v] {
                    dist[v] = d[v];
                    owner[v] = id as NodeId;
                }
            }
        }
        (owner, dist)
    }

    #[test]
    fn single_source_matches_dijkstra() {
        let g = diamond();
        for delta in [1, 2, 7] {
            let parts = multi_source_dijkstra(&g, &[0], delta);
            assert_eq!(parts.weighted_dist, g.dijkstra(0), "delta = {delta}");
            assert_eq!(parts.owner, vec![0, 0, 0, 0]);
        }
    }

    #[test]
    fn multi_source_ownership_and_ties() {
        let g = WeightedGraph::from_edges(5, &[(0, 1, 2), (1, 2, 2), (2, 3, 2), (3, 4, 2)]);
        let parts = multi_source_dijkstra(&g, &[0, 4], 3);
        let (owner, dist) = oracle(&g, &[0, 4]);
        assert_eq!(parts.owner, owner);
        assert_eq!(parts.weighted_dist, dist);
        // Node 2 is equidistant (4 from both): smallest source index wins.
        assert_eq!(parts.owner[2], 0);
    }

    #[test]
    fn delta_invariance() {
        let g = diamond();
        let base = multi_source_dijkstra(&g, &[1, 2], 1);
        for delta in [2, 3, 100] {
            let parts = multi_source_dijkstra(&g, &[1, 2], delta);
            assert_eq!(parts.owner, base.owner, "delta = {delta}");
            assert_eq!(parts.weighted_dist, base.weighted_dist);
            assert_eq!(parts.hops, base.hops);
        }
    }

    #[test]
    fn unreachable_nodes_stay_unclaimed() {
        let g = WeightedGraph::from_edges(4, &[(0, 1, 3)]);
        let parts = multi_source_dijkstra(&g, &[0], 2);
        assert_eq!(parts.owner[2], INVALID_NODE);
        assert_eq!(parts.weighted_dist[3], INFINITE_WEIGHT);
        assert_eq!(parts.hops[2], u32::MAX);
    }

    #[test]
    fn later_activation_loses_claimed_ground() {
        // Path 0-1-2-3-4, unit weights. Source 0 at time 0; source 4 at
        // time 0 claims its half — but at activation time 3 the wave from 0
        // has already taken nodes ≤ 3 by arrival-time order.
        let mut edges = Vec::new();
        for v in 1..5u32 {
            edges.push((v - 1, v, 1u64));
        }
        let g = WeightedGraph::from_edges(5, &edges);
        let mut eng = WeightedFrontierEngine::new(&g, 1);
        eng.add_source(0, 0);
        eng.add_source(4, 3);
        eng.run();
        let parts = eng.into_parts();
        assert_eq!(parts.owner, vec![0, 0, 0, 0, 1]);
        assert_eq!(parts.weighted_dist[4], 0);
    }

    #[test]
    fn source_self_claim_is_locked() {
        // Node 1 is activated late even though wave 0 could reach it with a
        // smaller arrival time; its self-claim must survive.
        let g = WeightedGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1)]);
        let mut eng = WeightedFrontierEngine::new(&g, 10);
        eng.add_source(0, 0);
        assert_eq!(eng.add_source(1, 5), Some(1));
        eng.run();
        let parts = eng.into_parts();
        assert_eq!(parts.owner[1], 1);
        assert_eq!(parts.weighted_dist[1], 0);
    }

    #[test]
    fn add_source_rejects_claimed_nodes() {
        let g = diamond();
        let mut eng = WeightedFrontierEngine::new(&g, 2);
        assert_eq!(eng.add_source(0, 0), Some(0));
        assert_eq!(eng.add_source(0, 0), None);
        eng.run();
        let mut eng2 = WeightedFrontierEngine::new(&g, 2);
        eng2.add_source(0, 0);
        eng2.run();
        // After the wave, every node holds a final claim.
        assert_eq!(eng2.add_source(3, 100), None);
    }

    #[test]
    fn stats_ledger_accounts_buckets() {
        let g = diamond();
        let mut eng = WeightedFrontierEngine::new(&g, 1);
        eng.add_source(0, 0);
        eng.run();
        let s = *eng.stats();
        assert_eq!(s.settled, 4);
        assert!(s.buckets >= 2);
        assert!(s.light_relaxations + s.heavy_relaxations > 0);
    }

    #[test]
    fn unit_weights_match_unweighted_frontier() {
        let g = crate::generators::mesh(9, 7);
        let edges: Vec<(NodeId, NodeId, u64)> = g.edges().map(|(u, v)| (u, v, 1)).collect();
        let wg = WeightedGraph::from_edges(g.num_nodes(), &edges);
        let sources = [3u32, 40, 17];
        let parts = multi_source_dijkstra(&wg, &sources, 1);
        let (bfs, owner) =
            crate::frontier::multi_source_bfs(&g, &sources, crate::FrontierStrategy::TopDown);
        for (v, &bfs_owner) in owner.iter().enumerate() {
            assert_eq!(parts.owner[v], bfs_owner, "owner diverged at {v}");
            let d = bfs.dist[v];
            if d == crate::INFINITE_DIST {
                assert_eq!(parts.weighted_dist[v], INFINITE_WEIGHT);
            } else {
                assert_eq!(parts.weighted_dist[v], d as u64);
                assert_eq!(parts.hops[v], d);
            }
        }
    }

    #[test]
    fn resolve_delta_prefers_request() {
        let g = diamond();
        assert_eq!(resolve_delta(&g, Some(9)), 9);
        // auto: mean of weights {1,1,5,1,1} both directions = 9/5 -> 1.
        assert_eq!(auto_delta(&g), 1);
        let empty = WeightedGraph::from_edges(3, &[]);
        assert_eq!(auto_delta(&empty), 1);
    }

    #[test]
    fn pack_claim_orders_lexicographically() {
        assert!(pack_claim(1, 9, 9) < pack_claim(2, 0, 0));
        assert!(pack_claim(5, 1, 9) < pack_claim(5, 2, 0));
        assert!(pack_claim(5, 1, 1) < pack_claim(5, 1, 2));
        assert_eq!(unpack_claim(pack_claim(7, 3, 2)), (7, 3, 2));
        assert!(pack_claim(u64::MAX - 1, NodeId::MAX, u32::MAX) < NO_CLAIM);
    }
}
