//! # pardec-graph — graph substrate for the `pardec` workspace
//!
//! This crate provides everything the decomposition / clustering / diameter
//! algorithms of [Ceccarello, Pietracaprina, Pucci, Upfal — SPAA 2015] need
//! from a graph library:
//!
//! * a compact [`CsrGraph`] (compressed sparse row) representation for
//!   unweighted, undirected graphs with `u32` node identifiers;
//! * deterministic, seedable **generators** for every graph family used in
//!   the paper's evaluation (meshes, road networks, power-law social graphs,
//!   expanders, the lollipop example of §3, the chain-appended variants of
//!   Figure 1);
//! * sequential and level-synchronous **parallel BFS**, plus multi-source
//!   BFS with per-source ownership — the primitive underlying disjoint
//!   cluster growth — backed by a direction-optimizing [`frontier`] engine
//!   with interchangeable top-down / bottom-up / hybrid expansion
//!   strategies, all byte-identical by construction;
//! * exact **diameter** computation (one bounds-pruned iFUB routine over BFS
//!   or Dijkstra, double sweep, all-pairs BFS) used as ground truth in the
//!   experiments;
//! * **quotient graphs** of a clustering, both unweighted and weighted as
//!   defined in §4 of the paper, together with a small weighted-graph type
//!   and Dijkstra/APSP for computing quotient diameters;
//! * a deterministic parallel [`combine`] kernel (count → prefix → scatter →
//!   per-bucket sort/fold) underlying the unweighted and weighted quotient
//!   builds and [`WeightedGraph::from_edges`], and a parallel counting-sort
//!   CSR build behind [`GraphBuilder`], with the seed-era sequential
//!   versions retained in [`naive`] as test oracles;
//! * parallel byte-level edge-list and binary **I/O** and basic
//!   **statistics**.
//!
//! All randomized routines take an explicit `u64` seed so that every
//! experiment in the workspace is reproducible.
//!
//! ```
//! use pardec_graph::prelude::*;
//!
//! let g = generators::mesh(10, 10);
//! assert_eq!(g.num_nodes(), 100);
//! assert_eq!(g.num_edges(), 180);
//! let dist = traversal::bfs(&g, 0).dist;
//! assert_eq!(dist[99], 18); // opposite corner of the mesh
//! ```

pub mod access;
pub mod builder;
pub mod ccsr;
pub mod combine;
pub mod components;
pub mod csr;
pub mod diameter;
pub mod frontier;
pub mod generators;
pub mod io;
pub mod naive;
pub mod quotient;
pub mod repr;
pub mod spanner;
pub mod stats;
pub mod traversal;
pub mod union_find;
pub mod weighted;
pub mod wfrontier;

/// Node identifier. Graphs of up to `u32::MAX - 1` nodes are supported; using
/// 32-bit ids instead of `usize` halves the memory traffic of adjacency scans.
pub type NodeId = u32;

/// Sentinel for "no node" / "unreachable" in distance and owner arrays.
pub const INVALID_NODE: NodeId = NodeId::MAX;

/// Sentinel distance for unreachable nodes.
pub const INFINITE_DIST: u32 = u32::MAX;

pub use access::NeighborAccess;
pub use builder::GraphBuilder;
pub use ccsr::{CcsrBuilder, CcsrGraph};
pub use combine::CombineStats;
pub use csr::CsrGraph;
pub use frontier::FrontierStrategy;
pub use repr::{Backend, GraphRepr};
pub use weighted::WeightedGraph;
pub use wfrontier::WeightedFrontierEngine;

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::access::NeighborAccess;
    pub use crate::builder::GraphBuilder;
    pub use crate::ccsr::{CcsrBuilder, CcsrGraph};
    pub use crate::combine::CombineStats;
    pub use crate::csr::CsrGraph;
    pub use crate::frontier::FrontierStrategy;
    pub use crate::repr::{Backend, GraphRepr};
    pub use crate::weighted::WeightedGraph;
    pub use crate::wfrontier::WeightedFrontierEngine;
    pub use crate::{
        ccsr, combine, components, diameter, frontier, generators, io, quotient, repr, stats,
        traversal, wfrontier,
    };
    pub use crate::{NodeId, INFINITE_DIST, INVALID_NODE};
}
