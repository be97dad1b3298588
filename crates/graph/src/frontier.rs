//! Direction-optimizing multi-source frontier engine.
//!
//! Every algorithm in the workspace — CLUSTER/CLUSTER2 growth (§3 of the
//! paper), the diameter sandwich (§4), the MPX baseline, and the plain BFS
//! primitives — advances one or more breadth-first waves level by level.
//! This module centralizes that level-synchronous loop behind a single
//! engine with three interchangeable expansion strategies:
//!
//! * [`FrontierStrategy::TopDown`] — classic push expansion: every frontier
//!   node proposes itself to its unclaimed neighbours. Work per level is
//!   `Θ(Σ deg(frontier))`, optimal while the frontier is small.
//! * [`FrontierStrategy::BottomUp`] — pull expansion: every *unclaimed*
//!   node scans its own adjacency list for parents in the current frontier,
//!   which it recognizes by their claim step. Work per level is
//!   `Θ(n + Σ deg(unclaimed))`, which is far cheaper on the saturation
//!   levels of low-diameter graphs where the frontier covers most arcs.
//! * [`FrontierStrategy::Hybrid`] — the Beamer et al. direction-optimizing
//!   heuristic (SC'12): switch to bottom-up when the frontier is still
//!   growing and its out-degree sum exceeds `1/α` of the arcs incident to
//!   unclaimed nodes, and back to top-down once the frontier shrinks below
//!   `n/β` nodes, with Beamer's α = 14 and β = 24.
//!
//! # Determinism contract
//!
//! All three strategies produce **byte-identical** `owner`/`dist` arrays, at
//! any thread count. The engine keeps one claim word per node,
//!
//! ```text
//! claim = (step << 32) | owner        (u64; u64::MAX while unclaimed)
//! ```
//!
//! where `step` is the step that claimed the node (for a source, the step
//! count at its activation) and `owner` the claiming source's index in
//! activation order. The distance is implicit: `step − activation(owner)`.
//! Every frontier node of one owner lies at the same distance from it (a
//! source's wave is a ring), so within a level the smallest claim word is
//! the smallest `(owner, dist)` proposal — smallest owner id first, then
//! smallest distance. A claim from an earlier step compares below every
//! proposal of the current one, so one load-and-compare per arc both skips
//! claimed nodes and orders proposals:
//!
//! * top-down offers `(step, owner(u))` from every frontier node `u` to its
//!   neighbours and keeps the minimum in each word — a plain store on the
//!   calling thread, `fetch_min` in the parallel pass. The one offer that
//!   takes a word from unclaimed lists the node, so every claimed node
//!   lands in exactly one list, and once the pass ends each word holds the
//!   level's minimum regardless of thread interleaving;
//! * bottom-up realizes the *same* minimum with a per-node sequential scan
//!   of the adjacency list over the neighbours whose word carries the
//!   previous step. A word written concurrently carries the current step,
//!   so it never reads as frontier.
//!
//! Because the claimed set and the claimed values per level are pure
//! functions of the previous level, every downstream consumer — cluster
//! ownership, quotient graphs, diameter estimates, HADI sketches — is
//! reproducible across strategies, runs, and pool sizes. This is asserted
//! end-to-end by `tests/proptests_frontier.rs` and
//! `tests/determinism_threads.rs`.
//!
//! The default strategy honours the `PARDEC_FRONTIER` environment variable
//! (`topdown` | `bottomup` | `hybrid`), so the whole test suite can be
//! re-run under a different engine without touching code.

use crate::access::NeighborAccess;
use crate::traversal::BfsResult;
use crate::{CsrGraph, NodeId, INFINITE_DIST, INVALID_NODE};
use rayon::prelude::*;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Environment variable consulted by [`FrontierStrategy::default_from_env`].
pub const FRONTIER_ENV: &str = "PARDEC_FRONTIER";

/// How each level of a multi-source BFS wave is expanded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum FrontierStrategy {
    /// Push: frontier nodes propose to their unclaimed neighbours.
    #[default]
    TopDown,
    /// Pull: unclaimed nodes scan their neighbours for frontier parents.
    BottomUp,
    /// Per-level direction switching via the Beamer edge-count heuristic.
    Hybrid,
}

impl FrontierStrategy {
    /// All strategies, in a stable order (useful for matrix tests/benches).
    pub const ALL: [FrontierStrategy; 3] = [
        FrontierStrategy::TopDown,
        FrontierStrategy::BottomUp,
        FrontierStrategy::Hybrid,
    ];

    /// Canonical lowercase name (the CLI / env-var spelling).
    pub fn name(self) -> &'static str {
        match self {
            FrontierStrategy::TopDown => "topdown",
            FrontierStrategy::BottomUp => "bottomup",
            FrontierStrategy::Hybrid => "hybrid",
        }
    }

    /// Strategy selected by the `PARDEC_FRONTIER` environment variable, or
    /// `None` when the variable is unset or empty (a CI matrix leg without a
    /// strategy exports the empty string, same as `PARDEC_BACKEND`).
    ///
    /// # Panics
    /// Panics on an unrecognized value — a misspelled CI matrix entry must
    /// fail loudly rather than silently fall back to the default.
    pub fn from_env() -> Option<FrontierStrategy> {
        Self::from_env_value(&std::env::var(FRONTIER_ENV).ok()?)
    }

    /// [`Self::from_env`] on the variable's raw value.
    fn from_env_value(raw: &str) -> Option<FrontierStrategy> {
        let raw = raw.trim();
        if raw.is_empty() {
            return None;
        }
        match raw.parse() {
            Ok(s) => Some(s),
            Err(e) => panic!("{FRONTIER_ENV}: {e}"),
        }
    }

    /// The ambient default: `PARDEC_FRONTIER` when set, else top-down.
    pub fn default_from_env() -> FrontierStrategy {
        Self::from_env().unwrap_or_default()
    }
}

impl FromStr for FrontierStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "topdown" | "top-down" => Ok(FrontierStrategy::TopDown),
            "bottomup" | "bottom-up" => Ok(FrontierStrategy::BottomUp),
            "hybrid" => Ok(FrontierStrategy::Hybrid),
            other => Err(format!(
                "unknown frontier strategy {other:?} (expected topdown, bottomup, or hybrid)"
            )),
        }
    }
}

impl std::fmt::Display for FrontierStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Edge-count switch factor α of the [`FrontierStrategy::Hybrid`]
/// heuristic: go bottom-up when `Σ deg(frontier) > unexplored_arcs / α`.
/// This and [`BETA`] are the values Beamer, Asanović and Patterson
/// (SC'12) report as robust across graph families.
const ALPHA: usize = 14;

/// Frontier-size switch-back factor β of the hybrid heuristic: return to
/// top-down when `|frontier| < n / β`.
const BETA: usize = 24;

/// The claim word of an unclaimed node: above every claim.
const UNCLAIMED: u64 = u64::MAX;

/// One step in a claim word: a frontier node offers its own word plus this.
const ONE_STEP: u64 = 1 << 32;

/// Most steps one engine runs. A claim word keeps its step in the high
/// half, which must stay below the unclaimed word's.
const MAX_STEPS: usize = u32::MAX as usize - 1;

/// A top-down level whose work — frontier out-degree sum times the backend's
/// [`NeighborAccess::arc_cost`] — is at most this runs sequentially on the
/// calling thread; a wider one runs as one chunked parallel pass.
///
/// Set from `crates/bench/results/frontier_grain.jsonl` (both paths timed
/// on every level of 1- to 4096-source waves, 2-worker pool; runs 8–10 are
/// this engine's). On a plain road graph the parallel pass costs 1.1–1.4×
/// the sequential step at 2,048–8,192 arcs, 0.84–0.93× at 8,192–16,384 and
/// 0.58–0.81× from 16,384 up; on a plain power-law graph it costs 1.2–1.6×
/// at 4,096–16,384 arcs, 0.88–0.98× at 65,536–262,144 and 0.52–0.73× from
/// 524,288 up. This value sits between the two crossovers. The rule reads
/// only the frontier, so every pool size takes the same path, and either
/// path claims the same nodes with the same values.
const PARALLEL_GRAIN: usize = 32_768;

/// Work per chunk of a parallel top-down level, in the grain's units
/// (frontier arcs times the backend's arc cost): a level above the grain
/// splits into more than 8 runs of consecutive frontier nodes, a wider one
/// into more, up to [`MAX_CHUNKS`]. Both are fixed, like the grain, so the split
/// never depends on the pool size.
const CHUNK_WORK: usize = PARALLEL_GRAIN / 8;

/// Most chunks of one parallel level. The `rayon` shim runs up to 32 items
/// as one task each and batches longer inputs 16 items to a task, so more
/// chunks would only add lists, not tasks.
const MAX_CHUNKS: usize = 32;

/// Below this many nodes, bottom-up sweeps run sequentially: the scheduler
/// overhead of a parallel pass dwarfs the work itself.
const SEQ_NODE_CUTOFF: usize = 2048;

/// Final per-node labels of an engine run (see [`FrontierEngine::into_parts`]).
#[derive(Clone, Debug)]
pub struct FrontierParts {
    /// `owner[v]` = index (into the activation order) of the claiming
    /// source, [`INVALID_NODE`] if unreached.
    pub owner: Vec<NodeId>,
    /// `dist[v]` = hops from `v` to its claiming source at activation time,
    /// [`INFINITE_DIST`] if unreached.
    pub dist: Vec<u32>,
    /// Source nodes in activation order (`sources[owner[v]]` is `v`'s root).
    pub sources: Vec<NodeId>,
}

/// Reusable multi-source frontier engine.
///
/// Sources may be activated up front (plain multi-source BFS) or
/// incrementally between steps (staggered cluster growth à la CLUSTER /
/// MPX); each claims the unclaimed nodes its wave reaches first, ties broken
/// by the deterministic smallest-claim-word rule described in the module
/// docs. The engine holds one 8-byte word per node.
///
/// Generic over the adjacency backend: any [`NeighborAccess`] implementor
/// (plain [`CsrGraph`], compressed [`crate::CcsrGraph`], or the runtime
/// [`crate::GraphRepr`]) drives the identical wave — the backend only
/// changes how neighbor lists are materialized, never their content, so
/// the determinism contract above carries over byte-for-byte. The engine
/// reads the graph's [`NeighborAccess::indexed`] form, built once when the
/// engine is: free on plain CSR, a per-node record index on the compressed
/// backend.
pub struct FrontierEngine<'g, G: NeighborAccess + 'g = CsrGraph> {
    g: G::Indexed<'g>,
    strategy: FrontierStrategy,
    /// One claim word per node (see the module docs).
    claims: Vec<AtomicU64>,
    frontier: Vec<NodeId>,
    sources: Vec<NodeId>,
    /// `activated[o]` = the step count when source `o` was activated.
    activated: Vec<u32>,
    claimed: usize,
    steps: usize,
    bottom_up_steps: usize,
    parallel_steps: usize,
    /// `Σ deg(v)` over unclaimed `v` — the heuristic's `m_u`.
    unexplored_arcs: usize,
    /// `Σ deg(v)` over the current frontier — the heuristic's `m_f`,
    /// maintained incrementally (claims are summed once, at claim time).
    frontier_degree: usize,
    /// Frontier size before the previous expansion (the heuristic's
    /// growing/shrinking signal).
    prev_frontier_len: usize,
    /// Current direction of the hybrid state machine.
    bottom_up: bool,
    /// Times the hybrid state machine changed direction (either way).
    switches: usize,
}

impl<'g, G: NeighborAccess> FrontierEngine<'g, G> {
    /// A fresh engine over `g` with no active sources.
    pub fn new(g: &'g G, strategy: FrontierStrategy) -> Self {
        let n = g.num_nodes();
        FrontierEngine {
            g: g.indexed(),
            strategy,
            claims: (0..n).map(|_| AtomicU64::new(UNCLAIMED)).collect(),
            frontier: Vec::new(),
            sources: Vec::new(),
            activated: Vec::new(),
            claimed: 0,
            steps: 0,
            bottom_up_steps: 0,
            parallel_steps: 0,
            unexplored_arcs: g.num_arcs(),
            frontier_degree: 0,
            prev_frontier_len: 0,
            bottom_up: false,
            switches: 0,
        }
    }

    /// The strategy this engine expands with.
    pub fn strategy(&self) -> FrontierStrategy {
        self.strategy
    }

    /// Nodes claimed so far (sources included).
    pub fn claimed(&self) -> usize {
        self.claimed
    }

    /// Nodes not yet claimed by any source.
    pub fn unclaimed(&self) -> usize {
        self.g.num_nodes() - self.claimed
    }

    /// Level-expansion steps executed so far (the parallel-depth ledger).
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// How many of those steps ran bottom-up (0 under pure top-down).
    pub fn bottom_up_steps(&self) -> usize {
        self.bottom_up_steps
    }

    /// How many of those steps ran on the pool rather than on the calling
    /// thread: top-down levels wider than the parallel grain, and bottom-up
    /// sweeps of graphs above the sequential node cutoff.
    pub fn parallel_steps(&self) -> usize {
        self.parallel_steps
    }

    /// How often the hybrid heuristic flipped direction (0 for the pure
    /// strategies).
    pub fn direction_switches(&self) -> usize {
        self.switches
    }

    /// Current frontier size (active boundary nodes).
    pub fn frontier_len(&self) -> usize {
        self.frontier.len()
    }

    /// Whether `v` has been claimed.
    pub fn is_claimed(&self, v: NodeId) -> bool {
        self.claims[v as usize].load(Ordering::Relaxed) != UNCLAIMED
    }

    /// Activates `v` as a new source whose owner id is the number of
    /// sources activated before it. Returns `false` (and does nothing) if
    /// `v` is already claimed.
    pub fn add_source(&mut self, v: NodeId) -> bool {
        if self.is_claimed(v) {
            return false;
        }
        let id = self.sources.len() as NodeId;
        // `step` keeps the count at most `MAX_STEPS`, so it fits a `u32`.
        let step = self.steps as u32;
        self.claims[v as usize].store(((step as u64) << 32) | id as u64, Ordering::Relaxed);
        self.sources.push(v);
        self.activated.push(step);
        self.frontier.push(v);
        self.claimed += 1;
        let deg = self.g.degree(v);
        self.unexplored_arcs -= deg;
        self.frontier_degree += deg;
        true
    }

    /// Iterator over currently unclaimed nodes, ascending (sequential scan).
    pub fn unclaimed_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let claims = &self.claims;
        (0..self.g.num_nodes() as NodeId)
            .filter(move |&v| claims[v as usize].load(Ordering::Relaxed) == UNCLAIMED)
    }

    /// Executes one level expansion; returns the number of newly claimed
    /// nodes. A step on an empty frontier is a counted no-op (the CLUSTER
    /// round ledger charges it).
    ///
    /// # Panics
    /// Panics when the engine has already run `u32::MAX − 1` steps, the
    /// most a claim word's step half can count.
    pub fn step(&mut self) -> usize {
        assert!(
            self.steps < MAX_STEPS,
            "a frontier engine runs at most {MAX_STEPS} steps"
        );
        self.steps += 1;
        if self.frontier.is_empty() {
            return 0;
        }
        let (next, claimed_degree) = if self.choose_bottom_up(self.frontier_degree) {
            self.bottom_up_steps += 1;
            self.step_bottom_up()
        } else if self.top_down_work() > PARALLEL_GRAIN {
            self.parallel_steps += 1;
            self.top_down_parallel()
        } else {
            self.top_down_sequential()
        };
        self.advance(next, claimed_degree)
    }

    /// Installs `next` as the frontier. `claimed_degree` is `Σ deg(next)`,
    /// summed once at claim time: it is both the next level's `m_f` and what
    /// leaves `m_u`.
    fn advance(&mut self, next: Vec<NodeId>, claimed_degree: usize) -> usize {
        self.prev_frontier_len = self.frontier.len();
        self.unexplored_arcs -= claimed_degree;
        self.frontier_degree = claimed_degree;
        self.claimed += next.len();
        self.frontier = next;
        self.frontier.len()
    }

    /// Runs steps until the frontier dies out. Emits one `frontier.wave`
    /// trace span covering the whole wave (strategy, rounds, direction
    /// switches, bottom-up and parallel levels, peak frontier, claims) when
    /// tracing is enabled; every count is this wave's own.
    pub fn run(&mut self) {
        let mut wave = pardec_obs::span!(
            "frontier.wave",
            strategy = self.strategy.name(),
            sources = self.sources.len(),
        );
        let steps_before = self.steps;
        let claimed_before = self.claimed;
        let switches_before = self.switches;
        let bottom_up_before = self.bottom_up_steps;
        let parallel_before = self.parallel_steps;
        let mut max_frontier = self.frontier.len();
        while !self.frontier.is_empty() {
            self.step();
            max_frontier = max_frontier.max(self.frontier.len());
        }
        wave.field("rounds", self.steps - steps_before);
        wave.field("claimed", self.claimed - claimed_before);
        wave.field("switches", self.switches - switches_before);
        wave.field("bottom_up_steps", self.bottom_up_steps - bottom_up_before);
        wave.field("parallel_steps", self.parallel_steps - parallel_before);
        wave.field("max_frontier", max_frontier);
    }

    /// The source that claimed `v` and `v`'s hop distance from it, or
    /// `None` while `v` is unclaimed. Reads one word, so a caller that needs
    /// a few labels need not convert all of them with [`Self::into_parts`].
    pub fn label(&self, v: NodeId) -> Option<(NodeId, u32)> {
        let (owner, dist) = self.owner_and_dist(self.claims[v as usize].load(Ordering::Relaxed));
        (owner != INVALID_NODE).then(|| (self.sources[owner as usize], dist))
    }

    /// Finalizes into the per-node label arrays.
    pub fn into_parts(self) -> FrontierParts {
        let (owner, dist) = self
            .claims
            .iter()
            .map(|c| self.owner_and_dist(c.load(Ordering::Relaxed)))
            .unzip();
        FrontierParts {
            owner,
            dist,
            sources: self.sources,
        }
    }

    /// A claim word's `(owner, dist)`; `(INVALID_NODE, INFINITE_DIST)` for
    /// [`UNCLAIMED`].
    fn owner_and_dist(&self, claim: u64) -> (NodeId, u32) {
        if claim == UNCLAIMED {
            return (INVALID_NODE, INFINITE_DIST);
        }
        let owner = claim as NodeId;
        (owner, (claim >> 32) as u32 - self.activated[owner as usize])
    }

    /// Direction decision for this level. Depends only on aggregate counts,
    /// so it is identical at every pool size.
    fn choose_bottom_up(&mut self, frontier_degree: usize) -> bool {
        match self.strategy {
            FrontierStrategy::TopDown => false,
            FrontierStrategy::BottomUp => true,
            FrontierStrategy::Hybrid => {
                if !self.bottom_up {
                    // Beamer's switch needs the wave to still be growing:
                    // without it, the tail of a long path (tiny frontier,
                    // tiny unexplored remainder) would flip bottom-up and
                    // pay the O(n) sweep per level for nothing.
                    let growing = self.frontier.len() > self.prev_frontier_len;
                    if growing && frontier_degree * ALPHA > self.unexplored_arcs {
                        self.bottom_up = true;
                        self.switches += 1;
                    }
                } else if self.frontier.len() * BETA < self.g.num_nodes() {
                    self.bottom_up = false;
                    self.switches += 1;
                }
                self.bottom_up
            }
        }
    }

    /// The work of a top-down level: its frontier arcs, weighted by the
    /// backend's per-arc cost.
    fn top_down_work(&self) -> usize {
        self.frontier_degree * self.g.arc_cost()
    }

    /// Push expansion on the calling thread. [`Self::offer`] lists each node
    /// it claims once, so its list is the next frontier.
    fn top_down_sequential(&self) -> (Vec<NodeId>, usize) {
        let mut next = Vec::new();
        let claimed_degree = self.offer::<false>(&self.frontier, &mut next);
        (next, claimed_degree)
    }

    /// Push expansion as one parallel pass over at most [`MAX_CHUNKS`]
    /// frontier chunks of about [`CHUNK_WORK`] each. Each chunk offers with
    /// `fetch_min` and lists the nodes whose word it took from unclaimed, so
    /// every claimed node sits in exactly one list.
    ///
    /// The *order* of the next frontier is internal state only: which chunk
    /// lists a node contested across chunks depends on which worker's
    /// `fetch_min` lands first, so positions can race under a multi-worker
    /// pool. That is never observable, because claims are min-merged and
    /// never order-sensitive. Do not expose or depend on frontier ordering.
    fn top_down_parallel(&self) -> (Vec<NodeId>, usize) {
        let chunks = self
            .top_down_work()
            .div_ceil(CHUNK_WORK)
            .clamp(1, MAX_CHUNKS);
        let (lists, degrees): (Vec<Vec<NodeId>>, Vec<usize>) = self
            .frontier
            .par_chunks(self.frontier.len().div_ceil(chunks))
            .map(|chunk| {
                let mut list = Vec::new();
                let degree = self.offer::<true>(chunk, &mut list);
                (list, degree)
            })
            .collect::<Vec<_>>()
            .into_iter()
            .unzip();
        (lists.concat(), degrees.iter().sum())
    }

    /// Offers `(step, owner(u))` — `u`'s own claim word one step on — from
    /// every node `u` of `chunk` to its neighbours, keeping the minimum in
    /// each neighbour's word. Pushes a neighbour onto `listed` when this call
    /// took its word from unclaimed, and returns the listed nodes' degree
    /// sum. A word at or below the offer (an earlier claim, or a smaller
    /// owner's offer this step) is only read. `SHARED` says whether other
    /// chunks offer concurrently (then the minimum needs `fetch_min`, and
    /// only its return value tells who took the word). `Relaxed` suffices:
    /// the pool's join that ends the pass orders every offer before the next
    /// level reads it.
    fn offer<const SHARED: bool>(&self, chunk: &[NodeId], listed: &mut Vec<NodeId>) -> usize {
        let claims = &self.claims;
        let mut degree = 0;
        for &u in chunk {
            let offer = claims[u as usize].load(Ordering::Relaxed) + ONE_STEP;
            for v in self.g.neighbors_iter(u) {
                let word = &claims[v as usize];
                let cur = word.load(Ordering::Relaxed);
                if offer < cur {
                    let prev = if SHARED {
                        word.fetch_min(offer, Ordering::Relaxed)
                    } else {
                        word.store(offer, Ordering::Relaxed);
                        cur
                    };
                    if prev == UNCLAIMED {
                        listed.push(v);
                        degree += self.g.degree(v);
                    }
                }
            }
        }
        degree
    }

    /// Pull expansion: every unclaimed node takes the smallest word among its
    /// neighbours of the previous step, the frontier, one step on. No early
    /// exit — the full minimum is what keeps bottom-up byte-identical to
    /// top-down's `fetch_min`. The next frontier comes out in ascending node
    /// order (a different order than top-down produces, which is
    /// unobservable: claims are min-merged, never order-sensitive), together
    /// with its degree sum.
    fn step_bottom_up(&mut self) -> (Vec<NodeId>, usize) {
        let n = self.g.num_nodes();
        let frontier_step = (self.steps - 1) as u64;
        let (g, claims) = (&self.g, &self.claims);
        let scan = |(mut next, degree): (Vec<NodeId>, usize), v: NodeId| {
            let word = &claims[v as usize];
            if word.load(Ordering::Relaxed) != UNCLAIMED {
                return (next, degree);
            }
            let best = g
                .neighbors_iter(v)
                .map(|u| claims[u as usize].load(Ordering::Relaxed))
                .filter(|&c| c >> 32 == frontier_step)
                .min();
            let Some(best) = best else {
                return (next, degree);
            };
            word.store(best + ONE_STEP, Ordering::Relaxed);
            next.push(v);
            (next, degree + g.degree(v))
        };
        if n <= SEQ_NODE_CUTOFF {
            (0..n as NodeId).fold((Vec::new(), 0), scan)
        } else {
            self.parallel_steps += 1;
            (0..n as NodeId)
                .into_par_iter()
                .fold(|| (Vec::new(), 0), scan)
                .reduce(
                    || (Vec::new(), 0),
                    |(mut a, da), (mut b, db)| {
                        a.append(&mut b);
                        (a, da + db)
                    },
                )
        }
    }
}

/// Multi-source BFS with per-source ownership through the engine.
///
/// Returns the [`BfsResult`] together with `owner[v]` = index into `sources`
/// of the claiming source ([`INVALID_NODE`] if unreachable). A node listed
/// twice in `sources` keeps its first owner. For every strategy,
/// `owner[v]` is the smallest source index among the sources nearest to `v`.
pub fn multi_source_bfs<G: NeighborAccess>(
    g: &G,
    sources: &[NodeId],
    strategy: FrontierStrategy,
) -> (BfsResult, Vec<NodeId>) {
    let mut eng = FrontierEngine::new(g, strategy);
    // The engine skips duplicate sources, compressing its internal owner
    // ids; record each activated source's position in the caller's slice so
    // the returned owners can be mapped back to the documented "index into
    // `sources`" contract. Compression is monotone, so the smallest-owner
    // tie-break picks the same winner either way.
    let mut original_index: Vec<NodeId> = Vec::with_capacity(sources.len());
    for (i, &s) in sources.iter().enumerate() {
        if eng.add_source(s) {
            original_index.push(i as NodeId);
        }
    }
    eng.run();
    let visited = eng.claimed();
    let mut parts = eng.into_parts();
    if original_index.len() != sources.len() {
        for o in parts.owner.iter_mut() {
            if *o != INVALID_NODE {
                *o = original_index[*o as usize];
            }
        }
    }
    let levels = parts
        .dist
        .iter()
        .copied()
        .filter(|&d| d != INFINITE_DIST)
        .max()
        .unwrap_or(0);
    (
        BfsResult {
            dist: parts.dist,
            visited,
            levels,
        },
        parts.owner,
    )
}

/// Single-source BFS through the engine.
pub fn single_source_bfs<G: NeighborAccess>(
    g: &G,
    src: NodeId,
    strategy: FrontierStrategy,
) -> BfsResult {
    multi_source_bfs(g, std::slice::from_ref(&src), strategy).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::traversal;

    fn shapes() -> Vec<(&'static str, CsrGraph)> {
        vec![
            ("mesh", generators::mesh(13, 19)),
            ("social", generators::preferential_attachment(1500, 6, 3)),
            ("star", generators::star(120)),
            ("path", generators::path(70)),
            (
                "disconnected",
                generators::disjoint_union(&generators::mesh(8, 9), &generators::cycle(17)),
            ),
        ]
    }

    #[test]
    fn strategies_agree_single_source() {
        for (name, g) in shapes() {
            let reference = traversal::bfs(&g, 0);
            for strat in FrontierStrategy::ALL {
                let r = single_source_bfs(&g, 0, strat);
                assert_eq!(reference.dist, r.dist, "{name}/{strat}");
                assert_eq!(reference.visited, r.visited, "{name}/{strat}");
                assert_eq!(reference.levels, r.levels, "{name}/{strat}");
            }
        }
    }

    #[test]
    fn strategies_agree_multi_source() {
        for (name, g) in shapes() {
            let n = g.num_nodes() as NodeId;
            let sources = [0, n / 3, n / 2, n - 1, n / 3];
            let (base_r, base_o) = multi_source_bfs(&g, &sources, FrontierStrategy::TopDown);
            for strat in [FrontierStrategy::BottomUp, FrontierStrategy::Hybrid] {
                let (r, o) = multi_source_bfs(&g, &sources, strat);
                assert_eq!(base_r.dist, r.dist, "{name}/{strat}");
                assert_eq!(base_o, o, "{name}/{strat}");
                assert_eq!(base_r.visited, r.visited, "{name}/{strat}");
                assert_eq!(base_r.levels, r.levels, "{name}/{strat}");
            }
        }
    }

    #[test]
    fn owner_is_smallest_nearest_source() {
        // Path 0-1-2-3-4, sources at both ends: node 2 is equidistant and
        // must go to the first-listed source under every strategy.
        let g = generators::path(5);
        for strat in FrontierStrategy::ALL {
            let (r, owner) = multi_source_bfs(&g, &[0, 4], strat);
            assert_eq!(r.dist, vec![0, 1, 2, 1, 0], "{strat}");
            assert_eq!(owner, vec![0, 0, 0, 1, 1], "{strat}");
        }
    }

    #[test]
    fn duplicate_sources_keep_first_owner() {
        let g = generators::path(3);
        for strat in FrontierStrategy::ALL {
            let (r, owner) = multi_source_bfs(&g, &[1, 1], strat);
            assert_eq!(r.dist, vec![1, 0, 1], "{strat}");
            assert_eq!(owner, vec![0, 0, 0], "{strat}");
        }
    }

    #[test]
    fn owners_after_duplicates_keep_original_indices() {
        // Sources [4, 4, 0] on a path: the duplicate is skipped internally,
        // but node 0's region must still report owner index 2 (its position
        // in the caller's slice), and the contested middle goes to the
        // earlier-listed source 4.
        let g = generators::path(5);
        for strat in FrontierStrategy::ALL {
            let (r, owner) = multi_source_bfs(&g, &[4, 4, 0], strat);
            assert_eq!(r.dist, vec![0, 1, 2, 1, 0], "{strat}");
            assert_eq!(owner, vec![2, 2, 0, 0, 0], "{strat}");
        }
    }

    #[test]
    fn multi_source_matches_per_source_minimum() {
        let g = generators::mesh(9, 11);
        let sources = [3u32, 57, 90];
        for strat in FrontierStrategy::ALL {
            let (r, owner) = multi_source_bfs(&g, &sources, strat);
            for (v, (&dv, &ov)) in r.dist.iter().zip(&owner).enumerate() {
                let (best_d, best_i) = sources
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| (traversal::bfs(&g, s).dist[v], i as NodeId))
                    .min()
                    .unwrap();
                assert_eq!(dv, best_d, "{strat}: node {v}");
                assert_eq!(ov, best_i, "{strat}: node {v}");
            }
        }
    }

    /// Runs a top-down wave from `sources` on a 4-worker pool, checks it
    /// against the per-source sequential-BFS minimum (distance, then the
    /// smallest source index), and returns how many levels ran in parallel.
    fn parallel_levels_of_checked_wave<G: NeighborAccess>(g: &G, sources: &[NodeId]) -> usize {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .expect("pool construction cannot fail");
        let (parts, claimed, parallel_steps) = pool.install(|| {
            let mut eng = FrontierEngine::new(g, FrontierStrategy::TopDown);
            for &s in sources {
                eng.add_source(s);
            }
            eng.run();
            let (claimed, parallel_steps) = (eng.claimed(), eng.parallel_steps());
            (eng.into_parts(), claimed, parallel_steps)
        });
        // A node listed by two chunks would be counted twice.
        let reached = parts.dist.iter().filter(|&&d| d != INFINITE_DIST).count();
        assert_eq!(claimed, reached);
        let per_source: Vec<Vec<u32>> =
            sources.iter().map(|&s| traversal::bfs(g, s).dist).collect();
        for v in 0..g.num_nodes() {
            let (best_d, best_i) = per_source
                .iter()
                .enumerate()
                .map(|(i, dist)| (dist[v], i as NodeId))
                .min()
                .unwrap();
            assert_eq!(parts.dist[v], best_d, "node {v}");
            let expected_owner = if best_d == INFINITE_DIST {
                INVALID_NODE
            } else {
                best_i
            };
            assert_eq!(parts.owner[v], expected_owner, "node {v}");
        }
        parallel_steps
    }

    #[test]
    fn wide_levels_take_the_parallel_pass_and_match_bfs() {
        // 16 arcs per node over `PARALLEL_GRAIN / 4` nodes: a power-law
        // graph of small diameter, whose middle levels carry most of its
        // `4 · PARALLEL_GRAIN` arcs.
        let powerlaw = generators::preferential_attachment(PARALLEL_GRAIN / 4, 8, 5);
        let n = powerlaw.num_nodes() as NodeId;
        for sources in [vec![0], (0..16).map(|i| i * (n / 16)).collect()] {
            let parallel = parallel_levels_of_checked_wave(&powerlaw, &sources);
            assert!(
                parallel > 0,
                "{} sources: no level above the grain",
                sources.len()
            );
        }
        // Maximal contention: 64 sources whose first level alone exceeds the
        // grain, each proposing to every unclaimed node of a complete graph.
        // Every non-source is one hop from all of them and goes to owner 0.
        let n = PARALLEL_GRAIN / 64 + 88;
        let complete = generators::complete(n);
        let sources: Vec<NodeId> = (0..64).map(|i| (i * (n / 64)) as NodeId).collect();
        for _ in 0..8 {
            assert!(parallel_levels_of_checked_wave(&complete, &sources) > 0);
        }
        // A road-like wave never gets near the grain.
        let road = generators::road_network(60, 60, 0.4, 3);
        assert_eq!(parallel_levels_of_checked_wave(&road, &[0, 1800, 3599]), 0);
    }

    #[test]
    fn wave_span_counts_only_its_own_steps() {
        // Two bottom-up steps before `run()`: the span must report the
        // wave's own rounds, not the engine's running totals.
        let g = generators::path(41);
        let mut eng = FrontierEngine::new(&g, FrontierStrategy::BottomUp);
        eng.add_source(0);
        eng.step();
        eng.step();
        pardec_obs::enable();
        eng.run();
        pardec_obs::disable();
        let field = |e: &pardec_obs::Event, key: &str| {
            e.fields
                .iter()
                .find(|f| f.key == key)
                .map(|f| f.value.clone())
        };
        let u = |v: usize| Some(pardec_obs::Value::U64(v as u64));
        // Other tests may trace concurrently; this wave is the only one to
        // claim 38 nodes in 39 bottom-up rounds.
        let wave = pardec_obs::drain()
            .into_iter()
            .find(|e| {
                e.name == "frontier.wave"
                    && field(e, "strategy") == Some(pardec_obs::Value::Str("bottomup".into()))
                    && field(e, "claimed") == u(38)
                    && field(e, "rounds") == u(39)
            })
            .expect("the wave emitted its span");
        assert_eq!(field(&wave, "bottom_up_steps"), u(39));
        assert_eq!(field(&wave, "parallel_steps"), u(0));
        assert_eq!(field(&wave, "switches"), u(0));
        assert_eq!(eng.bottom_up_steps(), 41);
    }

    #[test]
    fn hybrid_switches_on_dense_graphs() {
        // A star saturates immediately: the single middle level must run
        // bottom-up under the hybrid heuristic.
        let g = generators::star(4000);
        let mut eng = FrontierEngine::new(&g, FrontierStrategy::Hybrid);
        eng.add_source(0);
        eng.run();
        assert!(eng.bottom_up_steps() > 0, "hybrid never went bottom-up");
        assert!(eng.direction_switches() > 0);
        assert_eq!(eng.claimed(), g.num_nodes());
    }

    #[test]
    fn hybrid_stays_top_down_on_long_paths() {
        // A path frontier has out-degree ≤ 2: the switch condition never
        // fires and hybrid degenerates to pure top-down.
        let g = generators::path(300);
        let mut eng = FrontierEngine::new(&g, FrontierStrategy::Hybrid);
        eng.add_source(0);
        eng.run();
        assert_eq!(eng.bottom_up_steps(), 0);
        assert_eq!(eng.direction_switches(), 0);
        assert_eq!(eng.claimed(), 300);
    }

    #[test]
    fn staggered_activation_matches_across_strategies() {
        // Activate sources mid-run (the CLUSTER/MPX usage pattern): claimed
        // labels must still agree between strategies.
        let g = generators::mesh(20, 20);
        let run = |strat| {
            let mut eng = FrontierEngine::new(&g, strat);
            eng.add_source(0);
            eng.step();
            eng.step();
            eng.add_source(399);
            eng.add_source(210);
            eng.run();
            let parts = eng.into_parts();
            (parts.owner, parts.dist, parts.sources)
        };
        let base = run(FrontierStrategy::TopDown);
        assert_eq!(base, run(FrontierStrategy::BottomUp));
        assert_eq!(base, run(FrontierStrategy::Hybrid));
    }

    #[test]
    fn empty_graph_and_empty_sources() {
        let g = CsrGraph::empty(0);
        let (r, owner) = multi_source_bfs(&g, &[], FrontierStrategy::Hybrid);
        assert_eq!(r.visited, 0);
        assert!(owner.is_empty());

        let g = generators::path(4);
        let (r, owner) = multi_source_bfs(&g, &[], FrontierStrategy::BottomUp);
        assert_eq!(r.visited, 0);
        assert_eq!(r.levels, 0);
        assert!(owner.iter().all(|&o| o == INVALID_NODE));
        assert!(r.dist.iter().all(|&d| d == INFINITE_DIST));
    }

    #[test]
    fn counted_noop_step_on_empty_frontier() {
        let g = generators::path(2);
        let mut eng = FrontierEngine::new(&g, FrontierStrategy::Hybrid);
        assert_eq!(eng.step(), 0);
        assert_eq!(eng.steps(), 1);
        assert_eq!(eng.claimed(), 0);
    }

    #[test]
    fn the_last_step_a_claim_word_holds_still_labels_exactly() {
        let g = generators::path(3);
        for strat in FrontierStrategy::ALL {
            let mut eng = FrontierEngine::new(&g, strat);
            eng.steps = MAX_STEPS - 1;
            eng.add_source(1);
            assert_eq!(eng.step(), 2, "{strat}");
            assert_eq!(eng.label(0), Some((1, 1)), "{strat}");
            assert_eq!(eng.label(1), Some((1, 0)), "{strat}");
            assert_eq!(eng.into_parts().dist, vec![1, 0, 1], "{strat}");
        }
    }

    #[test]
    #[should_panic(expected = "a frontier engine runs at most")]
    fn steps_past_the_claim_words_range_panic() {
        let g = generators::path(2);
        let mut eng = FrontierEngine::new(&g, FrontierStrategy::TopDown);
        eng.steps = MAX_STEPS;
        eng.step();
    }

    /// Times the sequential and the parallel top-down step on every level of
    /// 1-, 16-, 256- and 4096-source waves over a road graph and a power-law
    /// graph, each on the plain and the compressed backend, on a 2-worker
    /// pool. Prints one JSON line per (family, backend, frontier-degree band,
    /// variant): the median over the band's levels of each level's median
    /// time over 5 passes. The engine reads each backend's indexed form, so
    /// the compressed rows carry `"lookup":"view"`.
    /// `crates/bench/results/frontier_grain.jsonl` holds the rows behind
    /// [`PARALLEL_GRAIN`] and the backends' arc costs. Run it in release:
    ///
    /// ```text
    /// cargo test --release -p pardec-graph --lib frontier::tests::grain_sweep -- --ignored --nocapture
    /// ```
    #[test]
    #[ignore = "timing sweep; run it in release (see its doc comment)"]
    fn grain_sweep() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .expect("pool construction cannot fail");
        let road = generators::road_network(400, 400, 0.4, 1);
        let powerlaw = generators::windowed_preferential_attachment(125_000, 8, 0.025, 1);
        for (family, g) in [("road", &road), ("powerlaw", &powerlaw)] {
            let ccsr = crate::CcsrGraph::from_csr(g);
            pool.install(|| {
                sweep(family, "plain", "slice", g);
                sweep(family, "ccsr", "view", &ccsr);
            });
        }
    }

    fn sweep<G: NeighborAccess>(family: &str, backend: &str, lookup: &str, g: &G) {
        const PASSES: usize = 5;
        let median = |mut xs: Vec<f64>| {
            xs.sort_by(f64::total_cmp);
            xs[xs.len() / 2]
        };
        let n = g.num_nodes();
        // Band `b` holds the levels with 2^b ≤ Σ deg(frontier) < 2^(b+1).
        let mut bands: std::collections::BTreeMap<u32, Vec<[f64; 2]>> = Default::default();
        for sources in [1, 16, 256, 4096] {
            let srcs: Vec<NodeId> = (0..sources)
                .map(|i| (i * (n / sources)) as NodeId)
                .collect();
            // The wave is deterministic, so level `i` expands the same
            // frontier in every pass of either variant.
            let mut degrees = Vec::new();
            let mut times: Vec<[Vec<f64>; 2]> = Vec::new();
            for pass in 0..PASSES {
                for (variant, parallel) in [false, true].into_iter().enumerate() {
                    let mut eng = FrontierEngine::new(g, FrontierStrategy::TopDown);
                    for &s in &srcs {
                        eng.add_source(s);
                    }
                    let mut level = 0;
                    while !eng.frontier.is_empty() {
                        // The stamp `step` would advance: sources and the
                        // frontier's claim words are read against it.
                        eng.steps += 1;
                        let start = std::time::Instant::now();
                        let (next, degree) = if parallel {
                            eng.top_down_parallel()
                        } else {
                            eng.top_down_sequential()
                        };
                        let secs = start.elapsed().as_secs_f64();
                        if pass == 0 && variant == 0 {
                            degrees.push(eng.frontier_degree);
                            times.push(Default::default());
                        }
                        times[level][variant].push(secs);
                        eng.advance(next, degree);
                        level += 1;
                    }
                }
            }
            for (degree, [seq, par]) in degrees.into_iter().zip(times) {
                bands
                    .entry(degree.max(1).ilog2())
                    .or_default()
                    .push([median(seq), median(par)]);
            }
        }
        let arc_cost = g.indexed().arc_cost();
        for (band, levels) in bands {
            for (variant, i) in [("sequential", 0), ("chunked", 1)] {
                let us = median(levels.iter().map(|l| l[i]).collect()) * 1e6;
                println!(
                    "{{\"variant\":\"{variant}\",\"family\":\"{family}\",\"backend\":\"{backend}\",\
                     \"lookup\":\"{lookup}\",\"nodes\":{n},\"arcs\":{},\"threads\":2,\"arc_cost\":{},\"chunk_work\":{CHUNK_WORK},\"max_chunks\":{MAX_CHUNKS},\
                     \"band_arcs\":[{},{}],\"levels\":{},\"median_us\":{us:.1}}}",
                    g.num_arcs(),
                    arc_cost,
                    1u64 << band,
                    1u64 << (band + 1),
                    levels.len(),
                );
            }
        }
    }

    #[test]
    fn strategy_parsing_round_trips() {
        for strat in FrontierStrategy::ALL {
            assert_eq!(strat.name().parse::<FrontierStrategy>().unwrap(), strat);
            assert_eq!(strat.to_string(), strat.name());
        }
        assert_eq!("top-down".parse(), Ok(FrontierStrategy::TopDown));
        assert_eq!("bottom-up".parse(), Ok(FrontierStrategy::BottomUp));
        assert!("beamer".parse::<FrontierStrategy>().is_err());
        assert_eq!(FrontierStrategy::default(), FrontierStrategy::TopDown);
    }

    // The environment is never set here: other tests read it concurrently.
    #[test]
    fn env_value_parses_like_its_siblings() {
        assert_eq!(FrontierStrategy::from_env_value(""), None);
        assert_eq!(FrontierStrategy::from_env_value(" \t\n"), None);
        assert_eq!(
            FrontierStrategy::from_env_value("hybrid"),
            Some(FrontierStrategy::Hybrid)
        );
        assert_eq!(
            FrontierStrategy::from_env_value(" bottomup\n"),
            Some(FrontierStrategy::BottomUp)
        );
    }

    #[test]
    #[should_panic(expected = "PARDEC_FRONTIER: unknown frontier strategy \"beamer\"")]
    fn env_value_rejects_unknown_strategy() {
        FrontierStrategy::from_env_value("beamer");
    }
}
