//! Backend-neutral adjacency access — the neighbor-iteration surface the
//! engines consume.
//!
//! Every traversal in this workspace ([`crate::frontier`],
//! [`crate::traversal`], the quotient/contract emit paths, the MR vertex
//! engine) reads a graph through exactly three questions: *how many nodes*,
//! *what degree*, and *which sorted neighbors*. [`NeighborAccess`] captures
//! that surface so the same monomorphized engine code runs over the plain
//! [`crate::CsrGraph`] (slices), the gap-coded [`crate::ccsr::CcsrGraph`]
//! (varint decode on the fly), or the runtime-selected
//! [`crate::repr::GraphRepr`] — **byte-identically**: the trait yields
//! neighbors in the same strictly-ascending order on every backend, and the
//! engines' determinism contracts are functions of that order alone.
//!
//! A traversal does not read the resident graph directly: it asks once, at
//! its entry, for the graph's [`NeighborAccess::indexed`] form and reads
//! that. For the plain backend the form is the graph itself, by reference;
//! for the compressed backend it is a [`crate::ccsr::CcsrView`], which adds
//! a per-node record index for as long as the traversal runs (see the
//! "Traversals" section of [`crate::ccsr`]).
//!
//! [`WeightedNeighborAccess`] is the `(target, weight)` analogue for the
//! delta-stepping engine ([`crate::wfrontier`]).

use crate::NodeId;

/// Read access to an unweighted, undirected graph's sorted adjacency.
///
/// Implementations must yield each node's neighbors **strictly ascending**
/// and store each undirected edge twice (once per endpoint) — the same
/// invariants [`crate::CsrGraph::check_invariants`] enforces. Engines rely
/// on this order for their byte-identical-output contracts.
pub trait NeighborAccess: Sync {
    /// Iterator over one node's sorted neighbors.
    type Neighbors<'a>: Iterator<Item = NodeId> + 'a
    where
        Self: 'a;

    /// The form a traversal reads: same nodes, same sorted lists, with
    /// whatever per-traversal index makes [`Self::degree`] and
    /// [`Self::neighbors_iter`] O(1) to start. The plain backend's form is
    /// `&CsrGraph`, at no cost; the compressed backend's is a
    /// [`crate::ccsr::CcsrView`], built in one parallel pass and holding 4
    /// bytes per node until it is dropped. An indexed form's own form is
    /// itself, by reference.
    type Indexed<'a>: NeighborAccess
    where
        Self: 'a;

    /// Builds the [`Self::Indexed`] form. Call it once per traversal, before
    /// the node sweep or wave, not per node.
    fn indexed(&self) -> Self::Indexed<'_>;

    /// Number of nodes `n`.
    fn num_nodes(&self) -> usize;

    /// Number of directed arcs stored (`2m`).
    fn num_arcs(&self) -> usize;

    /// Number of undirected edges `m`.
    fn num_edges(&self) -> usize {
        self.num_arcs() / 2
    }

    /// Degree of node `u`.
    fn degree(&self, u: NodeId) -> usize;

    /// Sorted neighbors of `u`.
    fn neighbors_iter(&self, u: NodeId) -> Self::Neighbors<'_>;

    /// Cost of visiting one arc, in units of a plain CSR slice walk. The
    /// frontier engine multiplies a level's frontier degree by it before
    /// comparing against its parallel grain, so a backend whose arcs cost
    /// more goes parallel on narrower levels. The engine reads it from the
    /// [`Self::Indexed`] form it traverses, so only indexed forms override
    /// it.
    fn arc_cost(&self) -> usize {
        1
    }

    /// The `v > u` tail of `u`'s sorted adjacency — each undirected edge
    /// appears in exactly one tail (the contraction kernel's half-arc
    /// emission order). The default skips the `v ≤ u` prefix; backends with
    /// random access (plain CSR) override with a binary search.
    fn upper_neighbors_iter(&self, u: NodeId) -> UpperNeighbors<Self::Neighbors<'_>> {
        UpperNeighbors::above(self.neighbors_iter(u), u)
    }
}

/// Adapter yielding the `v > pivot` suffix of a sorted neighbor iterator.
pub struct UpperNeighbors<I> {
    inner: I,
    pivot: NodeId,
    skipping: bool,
}

impl<I: Iterator<Item = NodeId>> UpperNeighbors<I> {
    /// The `v > pivot` suffix of a whole sorted list, found by skipping its
    /// prefix — the constructor for backends without random access.
    pub fn above(inner: I, pivot: NodeId) -> Self {
        UpperNeighbors {
            inner,
            pivot,
            skipping: true,
        }
    }

    /// Wraps an iterator already positioned at the suffix (no skipping) —
    /// the fast-path constructor for slice backends.
    pub fn presliced(inner: I) -> Self {
        UpperNeighbors {
            inner,
            pivot: 0,
            skipping: false,
        }
    }
}

impl<I: Iterator<Item = NodeId>> Iterator for UpperNeighbors<I> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.skipping {
            self.skipping = false;
            // The list is sorted, so the first neighbor beyond the pivot
            // starts the suffix; everything after it passes unfiltered.
            return self.inner.by_ref().find(|&v| v > self.pivot);
        }
        self.inner.next()
    }
}

/// A borrowed graph reads exactly like the graph: this is what makes
/// `&CsrGraph` (the plain backend's indexed form) and `&CcsrView` (the
/// compressed view's own) traversable.
impl<T: NeighborAccess + ?Sized> NeighborAccess for &T {
    type Neighbors<'a>
        = T::Neighbors<'a>
    where
        Self: 'a;
    type Indexed<'a>
        = T::Indexed<'a>
    where
        Self: 'a;

    #[inline]
    fn indexed(&self) -> Self::Indexed<'_> {
        (**self).indexed()
    }

    #[inline]
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        (**self).num_arcs()
    }

    #[inline]
    fn degree(&self, u: NodeId) -> usize {
        (**self).degree(u)
    }

    #[inline]
    fn neighbors_iter(&self, u: NodeId) -> Self::Neighbors<'_> {
        (**self).neighbors_iter(u)
    }

    #[inline]
    fn arc_cost(&self) -> usize {
        (**self).arc_cost()
    }

    #[inline]
    fn upper_neighbors_iter(&self, u: NodeId) -> UpperNeighbors<Self::Neighbors<'_>> {
        (**self).upper_neighbors_iter(u)
    }
}

impl NeighborAccess for crate::CsrGraph {
    type Neighbors<'a> = std::iter::Copied<std::slice::Iter<'a, NodeId>>;
    type Indexed<'a> = &'a crate::CsrGraph;

    /// Slices already give O(1) lookup: the graph itself, by reference.
    #[inline]
    fn indexed(&self) -> &crate::CsrGraph {
        self
    }

    #[inline]
    fn num_nodes(&self) -> usize {
        crate::CsrGraph::num_nodes(self)
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        crate::CsrGraph::num_arcs(self)
    }

    #[inline]
    fn degree(&self, u: NodeId) -> usize {
        crate::CsrGraph::degree(self, u)
    }

    #[inline]
    fn neighbors_iter(&self, u: NodeId) -> Self::Neighbors<'_> {
        self.neighbors(u).iter().copied()
    }

    #[inline]
    fn upper_neighbors_iter(&self, u: NodeId) -> UpperNeighbors<Self::Neighbors<'_>> {
        UpperNeighbors::presliced(self.upper_neighbors(u).iter().copied())
    }
}

/// Read access to a weighted graph's sorted `(target, weight)` adjacency —
/// the surface of the delta-stepping engine. Same ordering contract as
/// [`NeighborAccess`]: targets strictly ascending, symmetric arcs.
pub trait WeightedNeighborAccess: Sync {
    /// Iterator over one node's sorted `(neighbor, weight)` pairs.
    type WNeighbors<'a>: Iterator<Item = (NodeId, u64)> + 'a
    where
        Self: 'a;

    /// Number of nodes `n`.
    fn num_nodes(&self) -> usize;

    /// Number of undirected edges `m`.
    fn num_edges(&self) -> usize;

    /// Sorted `(neighbor, weight)` pairs of `u`.
    fn wneighbors_iter(&self, u: NodeId) -> Self::WNeighbors<'_>;
}

impl WeightedNeighborAccess for crate::WeightedGraph {
    type WNeighbors<'a> = crate::weighted::WNeighborIter<'a>;

    #[inline]
    fn num_nodes(&self) -> usize {
        crate::WeightedGraph::num_nodes(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        crate::WeightedGraph::num_edges(self)
    }

    #[inline]
    fn wneighbors_iter(&self, u: NodeId) -> Self::WNeighbors<'_> {
        self.wneighbor_iter(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn csr_trait_surface_matches_inherent() {
        let g = GraphBuilder::new(5)
            .add_edges([(0, 1), (0, 3), (1, 2), (2, 3), (3, 4)])
            .build();
        assert_eq!(NeighborAccess::num_nodes(&g), 5);
        assert_eq!(NeighborAccess::num_arcs(&g), 10);
        assert_eq!(NeighborAccess::num_edges(&g), 5);
        // The plain backend's indexed form is the graph itself, and so is
        // the indexed form of that.
        assert!(std::ptr::eq(g.indexed(), &g));
        assert!(std::ptr::eq(g.indexed().indexed(), &g));
        for u in 0..5u32 {
            assert_eq!(NeighborAccess::degree(&g, u), g.degree(u));
            let via_trait: Vec<NodeId> = g.neighbors_iter(u).collect();
            assert_eq!(via_trait, g.neighbors(u));
            let upper: Vec<NodeId> = g.upper_neighbors_iter(u).collect();
            assert_eq!(upper, g.upper_neighbors(u));
        }
    }

    #[test]
    fn upper_neighbors_adapter_skips_sorted_prefix() {
        let nbrs = [0u32, 2, 5, 9];
        let upper = UpperNeighbors::above(nbrs.iter().copied(), 2);
        assert_eq!(upper.collect::<Vec<_>>(), vec![5, 9]);
        let all = UpperNeighbors::presliced(nbrs.iter().copied());
        assert_eq!(all.collect::<Vec<_>>(), nbrs);
    }
}
