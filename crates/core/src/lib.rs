//! # pardec-core — parallel graph decomposition, k-center, and diameter
//! approximation
//!
//! Rust implementation of the algorithms of *“Space and Time Efficient
//! Parallel Graph Decomposition, Clustering, and Diameter Approximation”*
//! (Ceccarello, Pietracaprina, Pucci, Upfal — SPAA 2015):
//!
//! * [`cluster()`] — **CLUSTER(τ)** (Algorithm 1): disjoint clusters grown
//!   from batches of centers activated each time the uncovered set halves;
//!   `O(τ·log² n)` clusters whp with max radius within `O(log n)` of the
//!   best τ-cluster decomposition (Theorem 1, Lemma 1).
//! * [`cluster2()`] — **CLUSTER2(τ)** (Algorithm 2): the refinement with
//!   fixed per-batch growth budgets that bounds how many clusters any
//!   shortest path can meet (Lemma 2, Theorem 3).
//! * [`kcenter()`] — the `O(log³ n)`-approximation to graph k-center built
//!   on CLUSTER (Theorem 2, §3.1–3.2), plus the classic Gonzalez
//!   2-approximation as the sequential baseline.
//! * [`diameter`](mod@diameter) — the §4 diameter approximation: cluster,
//!   build the quotient graph, and sandwich `Δ_C ≤ Δ ≤ Δ″ ≤ Δ′ =
//!   O(Δ·log³ n)` (Corollary 1), with the weighted-quotient tightening.
//! * [`oracle`] — the §4 linear-space approximate distance oracle.
//! * Baselines of the §6 evaluation: [`mpx()`] (Miller–Peng–Xu random-shift
//!   decomposition), [`bfs_baseline`] (BFS 2-approximation of the diameter)
//!   and [`hadi()`] (ANF/HADI sketch-based neighbourhood function).
//! * [`mr_impl`] — the same algorithms driven through the `pardec-mr`
//!   MR(M_G, M_L) emulation, with round and communication accounting (§5).
//! * [`analysis`] — diagnostics: ball-growth (doubling-dimension proxy)
//!   estimation and radius-vs-τ sweeps.

pub mod analysis;
pub mod bfs_baseline;
pub mod cluster;
pub mod cluster2;
pub mod clustering;
pub mod diameter;
pub mod faultnet;
pub mod hadi;
pub mod kcenter;
pub mod mpx;
pub mod mr_impl;
pub mod oracle;
pub mod session;
pub mod testing;
pub mod weighted_cluster;
pub mod weighted_diameter;
pub mod wire;

pub use cluster::{cluster, ClusterParams, ClusterResult, ClusterTrace, IterationTrace};
pub use cluster2::{cluster2, Cluster2Result};
pub use clustering::Clustering;
pub use diameter::{
    approximate_diameter, approximate_diameter_of_clustering, DiameterApprox, DiameterParams,
};
pub use hadi::{hadi, HadiParams, HadiResult};
pub use kcenter::{gonzalez, kcenter, KCenterResult};
pub use mpx::{mpx, mpx_with_frontier, MpxResult};
pub use oracle::DistanceOracle;
pub use pardec_graph::frontier::FrontierStrategy;
pub use session::{QueryLedger, Session, SessionAlgo, SessionError, SessionParams};
pub use weighted_cluster::{
    weighted_cluster, weighted_cluster_result, WeightedClusterResult, WeightedClusterTrace,
    WeightedClustering, WeightedRoundTrace,
};
pub use weighted_diameter::{weighted_diameter, WeightedDiameterApprox};
