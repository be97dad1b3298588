//! Runtime backend selection: plain vs. compressed adjacency.
//!
//! [`Backend`] is the user-facing knob (`--backend` flag, `PARDEC_BACKEND`
//! environment variable); [`GraphRepr`] is the two-variant carrier the CLI
//! and sessions hold so one binary serves both representations. Every
//! engine consumes it through [`NeighborAccess`], and because both backends
//! yield identical sorted neighbor sequences, **outputs never depend on the
//! backend** — only memory and wall-clock do (the same contract as
//! `PARDEC_FRONTIER` and `PARDEC_DELTA`).

use crate::access::{NeighborAccess, UpperNeighbors};
use crate::ccsr::{self, CcsrGraph, CcsrView};
use crate::{CsrGraph, NodeId};

/// Environment variable consulted by [`Backend::from_env`] (the `--backend`
/// flag of the CLI takes precedence).
pub const BACKEND_ENV: &str = "PARDEC_BACKEND";

/// Adjacency storage backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// Raw CSR: `usize` offsets + `u32` targets. Fastest iteration.
    #[default]
    Plain,
    /// Gap-coded varint CSR ([`CcsrGraph`]): a fraction of the bytes, a
    /// varint decode per neighbor.
    Compressed,
}

impl Backend {
    /// Backend selected by `PARDEC_BACKEND`, or `None` when the variable is
    /// unset or empty (a CI matrix leg without a backend exports the empty
    /// string, same as `PARDEC_DELTA`).
    ///
    /// # Panics
    /// Panics on an unrecognized value — a misspelled CI matrix entry must
    /// fail loudly rather than silently fall back to the default.
    pub fn from_env() -> Option<Backend> {
        let raw = std::env::var(BACKEND_ENV).ok()?;
        if raw.trim().is_empty() {
            return None;
        }
        match raw.trim().parse() {
            Ok(b) => Some(b),
            Err(e) => panic!("{BACKEND_ENV}: {e}"),
        }
    }

    /// The ambient backend: `requested` when given, else `PARDEC_BACKEND`,
    /// else [`Backend::Plain`]. Outputs never depend on the choice.
    pub fn resolve(requested: Option<Backend>) -> Backend {
        requested.or_else(Backend::from_env).unwrap_or_default()
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "plain" => Ok(Backend::Plain),
            "compressed" => Ok(Backend::Compressed),
            other => Err(format!(
                "unknown backend {other:?} (expected plain | compressed)"
            )),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Plain => "plain",
            Backend::Compressed => "compressed",
        })
    }
}

/// A graph held under either backend. Engines run on it directly (it
/// implements [`NeighborAccess`]); paths that need raw slices (spanner,
/// connected components) go through [`GraphRepr::to_csr`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphRepr {
    /// Raw CSR storage.
    Plain(CsrGraph),
    /// Gap-coded varint storage.
    Compressed(CcsrGraph),
}

impl GraphRepr {
    /// Wraps `g` under the requested backend (compressing if asked).
    pub fn from_csr(g: CsrGraph, backend: Backend) -> Self {
        match backend {
            Backend::Plain => GraphRepr::Plain(g),
            Backend::Compressed => GraphRepr::Compressed(CcsrGraph::from_csr(&g)),
        }
    }

    /// Which backend this graph is stored under.
    pub fn backend(&self) -> Backend {
        match self {
            GraphRepr::Plain(_) => Backend::Plain,
            GraphRepr::Compressed(_) => Backend::Compressed,
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        match self {
            GraphRepr::Plain(g) => g.num_nodes(),
            GraphRepr::Compressed(g) => g.num_nodes(),
        }
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        match self {
            GraphRepr::Plain(g) => g.num_edges(),
            GraphRepr::Compressed(g) => g.num_edges(),
        }
    }

    /// Number of directed arcs stored (`2m`).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        match self {
            GraphRepr::Plain(g) => g.num_arcs(),
            GraphRepr::Compressed(g) => g.num_arcs(),
        }
    }

    /// Resident bytes of the adjacency structure under this backend.
    pub fn heap_bytes(&self) -> usize {
        match self {
            GraphRepr::Plain(g) => {
                std::mem::size_of::<usize>() * (g.num_nodes() + 1) + 4 * g.num_arcs()
            }
            GraphRepr::Compressed(g) => g.heap_bytes(),
        }
    }

    /// The plain CSR view: borrowed when already plain, decompressed
    /// otherwise. For slice-consuming paths (spanner, components, plain
    /// serialization).
    pub fn to_csr(&self) -> std::borrow::Cow<'_, CsrGraph> {
        match self {
            GraphRepr::Plain(g) => std::borrow::Cow::Borrowed(g),
            GraphRepr::Compressed(g) => std::borrow::Cow::Owned(g.to_csr()),
        }
    }
}

impl NeighborAccess for GraphRepr {
    type Neighbors<'a> = ReprNeighbors<'a>;
    type Indexed<'a> = ReprView<'a>;

    #[inline]
    fn indexed(&self) -> ReprView<'_> {
        match self {
            GraphRepr::Plain(g) => ReprView::Plain(g),
            GraphRepr::Compressed(g) => ReprView::Compressed(g.view()),
        }
    }

    #[inline]
    fn num_nodes(&self) -> usize {
        GraphRepr::num_nodes(self)
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        GraphRepr::num_arcs(self)
    }

    #[inline]
    fn degree(&self, u: NodeId) -> usize {
        match self {
            GraphRepr::Plain(g) => g.degree(u),
            GraphRepr::Compressed(g) => g.degree(u),
        }
    }

    #[inline]
    fn neighbors_iter(&self, u: NodeId) -> Self::Neighbors<'_> {
        match self {
            GraphRepr::Plain(g) => ReprNeighbors::Plain(g.neighbors(u).iter().copied()),
            GraphRepr::Compressed(g) => ReprNeighbors::Compressed(g.neighbors_iter(u)),
        }
    }
}

/// The traversal form of a [`GraphRepr`] ([`NeighborAccess::indexed`]): the
/// plain graph by reference, or the compressed graph's [`CcsrView`].
pub enum ReprView<'a> {
    /// The plain graph itself.
    Plain(&'a CsrGraph),
    /// The compressed graph with its per-traversal record index.
    Compressed(CcsrView<'a>),
}

impl NeighborAccess for ReprView<'_> {
    type Neighbors<'b>
        = ReprNeighbors<'b>
    where
        Self: 'b;
    type Indexed<'b>
        = &'b Self
    where
        Self: 'b;

    /// Already indexed: the view itself.
    #[inline]
    fn indexed(&self) -> &Self {
        self
    }

    #[inline]
    fn num_nodes(&self) -> usize {
        match self {
            ReprView::Plain(g) => g.num_nodes(),
            ReprView::Compressed(v) => v.num_nodes(),
        }
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        match self {
            ReprView::Plain(g) => g.num_arcs(),
            ReprView::Compressed(v) => v.num_arcs(),
        }
    }

    #[inline]
    fn degree(&self, u: NodeId) -> usize {
        match self {
            ReprView::Plain(g) => g.degree(u),
            ReprView::Compressed(v) => v.degree(u),
        }
    }

    #[inline]
    fn neighbors_iter(&self, u: NodeId) -> ReprNeighbors<'_> {
        match self {
            ReprView::Plain(g) => ReprNeighbors::Plain(g.neighbors(u).iter().copied()),
            ReprView::Compressed(v) => ReprNeighbors::Compressed(v.neighbors_iter(u)),
        }
    }

    #[inline]
    fn arc_cost(&self) -> usize {
        match self {
            ReprView::Plain(g) => g.arc_cost(),
            ReprView::Compressed(v) => v.arc_cost(),
        }
    }

    #[inline]
    fn upper_neighbors_iter(&self, u: NodeId) -> UpperNeighbors<ReprNeighbors<'_>> {
        match self {
            ReprView::Plain(g) => UpperNeighbors::presliced(ReprNeighbors::Plain(
                g.upper_neighbors(u).iter().copied(),
            )),
            ReprView::Compressed(v) => {
                UpperNeighbors::above(ReprNeighbors::Compressed(v.neighbors_iter(u)), u)
            }
        }
    }
}

/// Neighbor iterator of [`GraphRepr`] — one branch per `next()`.
pub enum ReprNeighbors<'a> {
    /// Slice walk of the plain backend.
    Plain(std::iter::Copied<std::slice::Iter<'a, NodeId>>),
    /// Varint decode of the compressed backend.
    Compressed(ccsr::Neighbors<'a>),
}

impl Iterator for ReprNeighbors<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        match self {
            ReprNeighbors::Plain(it) => it.next(),
            ReprNeighbors::Compressed(it) => it.next(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            ReprNeighbors::Plain(it) => it.size_hint(),
            ReprNeighbors::Compressed(it) => it.size_hint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn backend_parse_and_display() {
        assert_eq!("plain".parse::<Backend>(), Ok(Backend::Plain));
        assert_eq!("compressed".parse::<Backend>(), Ok(Backend::Compressed));
        assert!("zstd".parse::<Backend>().is_err());
        assert_eq!(Backend::Plain.to_string(), "plain");
        assert_eq!(Backend::Compressed.to_string(), "compressed");
        assert_eq!(
            Backend::resolve(Some(Backend::Compressed)),
            Backend::Compressed
        );
    }

    #[test]
    fn repr_serves_both_backends_identically() {
        let g = generators::preferential_attachment(300, 3, 5);
        let plain = GraphRepr::from_csr(g.clone(), Backend::Plain);
        let comp = GraphRepr::from_csr(g.clone(), Backend::Compressed);
        assert_eq!(plain.num_nodes(), comp.num_nodes());
        assert_eq!(plain.num_arcs(), comp.num_arcs());
        for u in 0..g.num_nodes() as NodeId {
            let a: Vec<NodeId> = plain.neighbors_iter(u).collect();
            let b: Vec<NodeId> = comp.neighbors_iter(u).collect();
            assert_eq!(a, b, "diverged at {u}");
            assert_eq!(NeighborAccess::degree(&comp, u), g.degree(u));
        }
        assert!(comp.heap_bytes() < plain.heap_bytes());
        assert_eq!(comp.to_csr().as_ref(), &g);
        assert_eq!(plain.backend(), Backend::Plain);
        assert_eq!(comp.backend(), Backend::Compressed);
    }
}
