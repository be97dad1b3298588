//! Deterministic, seedable graph generators for every family used in the
//! paper's evaluation (§6) and analysis (§3):
//!
//! | Family | Paper role | Function |
//! |---|---|---|
//! | 2-D mesh | `mesh1000` dataset (known doubling dimension b = 2) | [`mesh`], [`torus`] |
//! | road networks | `roads-CA/PA/TX` substitutes | [`road_network`] |
//! | power-law social graphs | `twitter` / `livejournal` substitutes | [`preferential_attachment`], [`rmat`] |
//! | expander + path | the §3 lollipop example (R_ALG ≪ Δ) | [`lollipop`], [`random_regular`] |
//! | chain-appended variants | Figure 1 workload | [`append_chain`] |
//! | Erdős–Rényi, paths, cycles, stars, cliques | test fixtures | [`gnm`], [`path`], [`cycle`], [`star`], [`complete`] |
//!
//! Every randomized generator takes an explicit `u64` seed and is
//! reproducible across runs and platforms.

mod basic;
mod composite;
mod powerlaw;
mod random;
mod roads;

pub use basic::{complete, cycle, mesh, path, star, torus};
pub use composite::{append_chain, connect, disjoint_union, lollipop};
pub use powerlaw::{preferential_attachment, rmat, windowed_preferential_attachment, RmatProbs};
pub use random::{gnm, random_regular};
pub use roads::road_network;
