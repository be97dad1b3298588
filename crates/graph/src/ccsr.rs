//! Gap-coded compressed CSR — the memory-bound backend.
//!
//! The plain [`crate::CsrGraph`] spends `8(n + 1) + 4·2m` bytes: a `usize`
//! offset per node plus a raw `u32` per arc. On the power-law graphs the
//! paper targets, consecutive neighbors of a sorted adjacency list are
//! numerically close, so almost all of those 4 bytes per arc are zeros.
//! [`CcsrGraph`] stores each list the way webgraph does its reference-free
//! lists: deltas instead of absolutes, varint bytes instead of words.
//!
//! # Layout
//!
//! Vertices are concatenated in id order into one byte buffer; each vertex
//! `u` contributes one *record*:
//!
//! ```text
//! record(u) := varint(deg)                 // list length
//!              zigzag_varint(v₀ - u)       // first neighbor, signed delta
//!              varint(v₁ - v₀ - 1)         // gaps: lists are strictly
//!              varint(v₂ - v₁ - 1)         // ascending, so gap - 1 ≥ 0
//!              ...
//! ```
//!
//! *Skipping* a record needs no arithmetic decode — read `deg`, then count
//! `deg` varint terminators (bytes without the continuation bit), eight
//! bytes at a time. A **block index** (`index[b]` = byte offset of vertex
//! `b · BLOCK`'s record) turns random access into: jump to the block, skip
//! at most `BLOCK - 1` records. With `BLOCK` constant, degree lookup is
//! O(1) amortized and neighbor iteration O(deg), at an index overhead of
//! `8 / BLOCK` bytes per node.
//!
//! [`CweightedGraph`] is the `(target, weight)` analogue (each gap varint
//! is followed by a weight varint), feeding the delta-stepping engine
//! through [`crate::access::WeightedNeighborAccess`].
//!
//! # Traversals
//!
//! The in-block skip is cheap for one lookup and expensive for a
//! traversal, which looks up every node it reaches at least twice (a
//! top-down wave proposes from a node, then reads its degree when it is
//! claimed) and so pays the average 7.5 record skips per lookup over and
//! over. Traversals therefore read a [`CcsrView`] instead, the compressed
//! graph's [`NeighborAccess::indexed`] form: it borrows the bytes and the
//! block index and adds one `u32` per node, the record's offset from its
//! block's base. A lookup is then two loads and a degree varint. The view
//! is built in one parallel pass over the blocks (each walks at most
//! `BLOCK` records) when a traversal starts and is dropped when it ends:
//! the frontier engine, the quotient and contraction emitters and
//! clustering validation each build one.
//!
//! The record index is not resident on purpose. Kept with the graph, its 4
//! bytes per node would cost as much as a third of the representation on
//! sparse graphs (a 20k-node power-law graph would fall from 3.06× smaller
//! than plain CSR to 2.62×), for lookups that only traversals need. While a
//! traversal runs it is a quarter of the 16 bytes per node the frontier
//! engine already allocates.
//!
//! # Determinism
//!
//! Encoding is a pure function of the adjacency structure, and decoding
//! yields exactly the sorted neighbor sequence the plain backend serves —
//! so every engine running through [`crate::access::NeighborAccess`]
//! produces byte-identical outputs on either backend (locked by the
//! round-trip proptests here and the equivalence suite in `tests/`).

use crate::access::{NeighborAccess, WeightedNeighborAccess};
use crate::{CsrGraph, NodeId, WeightedGraph};
use rayon::prelude::*;

/// Vertices per block-index entry. Small enough that skipping to a vertex
/// inside a block touches a handful of varints; large enough that the
/// index costs only `8 / BLOCK = 0.5` bytes per node.
pub const BLOCK: usize = 16;

/// Appends `x` as a little-endian base-128 varint (LEB128).
#[inline]
pub(crate) fn write_varint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a varint at `*pos`, advancing it. Trusted-path reader: panics on
/// truncated input (the buffer was validated at build/load time).
#[inline]
pub(crate) fn read_varint(data: &[u8], pos: &mut usize) -> u64 {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = data[*pos];
        *pos += 1;
        x |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return x;
        }
        shift += 7;
    }
}

/// Advances `*pos` past `count` varints without decoding them — a scan for
/// `count` bytes with the continuation bit clear, eight bytes at a time.
/// Within a little-endian word, multiplying the per-byte terminator flags
/// by `0x0101…01` leaves in byte `i` the number of terminators in bytes
/// `0..=i` (at most 8, so no byte carries into the next); the top byte is
/// the word's total, and the first byte whose count reaches `count` is
/// the last one to skip. A tail shorter than a word goes byte by byte.
/// Trusted-path reader: panics if the buffer ends first.
#[inline]
fn skip_varints(data: &[u8], pos: &mut usize, mut count: u64) {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let mut p = *pos;
    while count > 0 {
        let Some(word) = data.get(p..p + 8) else {
            break;
        };
        let word = u64::from_le_bytes(word.try_into().expect("an 8-byte slice"));
        let counts = ((!word >> 7) & ONES).wrapping_mul(ONES);
        let total = counts >> 56;
        if total < count {
            count -= total;
            p += 8;
            continue;
        }
        // `count ≤ 8` here: the high bit of byte `i` is set iff its
        // running count is at least `count`.
        let reached = counts.wrapping_add((0x80 - count) * ONES) & (0x80 * ONES);
        *pos = p + reached.trailing_zeros() as usize / 8 + 1;
        return;
    }
    for _ in 0..count {
        while data[p] & 0x80 != 0 {
            p += 1;
        }
        p += 1;
    }
    *pos = p;
}

/// Advances `*pos` past one whole record of `stride` varints per neighbor.
#[inline]
fn skip_record(data: &[u8], pos: &mut usize, stride: u64) {
    let deg = read_varint(data, pos);
    skip_varints(data, pos, stride * deg);
}

/// Checked reader for untrusted bytes: `None` on truncation or a varint
/// wider than 64 bits.
#[inline]
pub(crate) fn try_read_varint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*pos)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte & 0x7e != 0) {
            return None; // would overflow u64
        }
        x |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(x);
        }
        shift += 7;
    }
}

/// Maps a signed delta onto the unsigned varint domain (0, -1, 1, -2, …).
#[inline]
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub(crate) fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// An unweighted, undirected graph with gap-coded varint adjacency (see the
/// module docs for the layout). Same structural invariants as
/// [`CsrGraph`]: sorted, duplicate-free, self-loop-free, symmetric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CcsrGraph {
    num_nodes: usize,
    num_arcs: usize,
    /// Concatenated per-vertex records.
    data: Vec<u8>,
    /// `index[b]` = byte offset of vertex `b · BLOCK`'s record.
    index: Vec<u64>,
}

impl CcsrGraph {
    /// The empty graph on `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        let mut b = CcsrBuilder::new(n);
        for _ in 0..n {
            b.push_vertex(std::iter::empty());
        }
        b.finish()
    }

    /// Compresses a plain CSR graph (lossless; see [`Self::to_csr`]).
    pub fn from_csr(g: &CsrGraph) -> Self {
        let n = g.num_nodes();
        let mut b = CcsrBuilder::new(n);
        for u in 0..n as NodeId {
            b.push_vertex(g.neighbors(u).iter().copied());
        }
        b.finish()
    }

    /// Decompresses back into plain CSR (the exact graph that was encoded)
    /// in one in-order walk of the records: each record starts where the
    /// previous one's decode stopped, so no node is looked up.
    pub fn to_csr(&self) -> CsrGraph {
        let n = self.num_nodes;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(self.num_arcs);
        offsets.push(0usize);
        let mut pos = 0;
        for u in 0..n as NodeId {
            let mut list = Neighbors::at(&self.data, pos, u);
            targets.extend(&mut list);
            pos = list.pos;
            offsets.push(targets.len());
        }
        CsrGraph::from_parts(offsets, targets)
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed arcs stored (`2m`).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.num_arcs
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_arcs / 2
    }

    /// Byte offset of vertex `u`'s record: jump to its block, then skip the
    /// in-block predecessors. For one-off lookups; a traversal reads a
    /// [`CcsrView`] instead.
    #[inline]
    fn locate(&self, u: NodeId) -> usize {
        let ui = u as usize;
        debug_assert!(ui < self.num_nodes);
        let mut pos = self.index[ui / BLOCK] as usize;
        for _ in 0..ui % BLOCK {
            skip_record(&self.data, &mut pos, 1);
        }
        pos
    }

    /// Degree of node `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        let mut pos = self.locate(u);
        read_varint(&self.data, &mut pos) as usize
    }

    /// Sorted neighbors of `u`, decoded on the fly.
    #[inline]
    pub fn neighbors_iter(&self, u: NodeId) -> Neighbors<'_> {
        Neighbors::at(&self.data, self.locate(u), u)
    }

    /// The traversal form: this graph plus a per-node record index (see
    /// the module's "Traversals" section). One parallel pass over the
    /// blocks, 4 bytes per node.
    ///
    /// # Panics
    /// Panics if a record starts 4 GiB or more past its block's base, which
    /// a `u32` offset cannot hold.
    pub fn view(&self) -> CcsrView<'_> {
        let data = &self.data[..];
        let mut offsets = vec![0u32; self.num_nodes];
        offsets
            .par_chunks_mut(BLOCK)
            .zip(self.index.par_iter())
            .for_each(|(block, &base)| {
                let base = base as usize;
                let mut pos = base;
                // The block's first record sits at its base: offset 0.
                for offset in &mut block[1..] {
                    skip_record(data, &mut pos, 1);
                    *offset = u32::try_from(pos - base)
                        .expect("a record starts 4 GiB or more past its block's base");
                }
            });
        CcsrView {
            data,
            index: &self.index,
            offsets,
            num_arcs: self.num_arcs,
        }
    }

    /// Resident bytes of the representation (adjacency data + block index).
    pub fn heap_bytes(&self) -> usize {
        self.data.len() + self.index.len() * std::mem::size_of::<u64>()
    }

    /// Raw record bytes (for the binary codec).
    #[inline]
    pub fn raw_data(&self) -> &[u8] {
        &self.data
    }

    /// Raw block index (for the binary codec).
    #[inline]
    pub fn raw_index(&self) -> &[u64] {
        &self.index
    }

    /// Reassembles a graph from codec output **without validation** — the
    /// caller must have run [`Self::validate_parts`] first (the checked
    /// loader does) or obtained the parts from [`Self::raw_data`] /
    /// [`Self::raw_index`].
    pub(crate) fn from_raw_parts(
        num_nodes: usize,
        num_arcs: usize,
        data: Vec<u8>,
        index: Vec<u64>,
    ) -> Self {
        debug_assert_eq!(index.len(), num_nodes.div_ceil(BLOCK));
        CcsrGraph {
            num_nodes,
            num_arcs,
            data,
            index,
        }
    }

    /// Fully validates untrusted codec output: every varint in bounds,
    /// record lengths consistent, block index exact, lists strictly
    /// ascending, targets in range, no self-loops, arc total matching, and
    /// the buffer consumed exactly. O(n + m); symmetry is *not* checked
    /// here (it is quadratic-ish on this layout) — the checked snapshot
    /// loader decompresses and runs the full
    /// [`CsrGraph::check_invariants`] on top.
    pub fn validate_parts(
        num_nodes: usize,
        num_arcs: usize,
        data: &[u8],
        index: &[u64],
    ) -> Result<(), String> {
        if index.len() != num_nodes.div_ceil(BLOCK) {
            return Err(format!(
                "block index has {} entries, expected {}",
                index.len(),
                num_nodes.div_ceil(BLOCK)
            ));
        }
        let mut pos = 0usize;
        let mut arcs = 0usize;
        for u in 0..num_nodes {
            if u % BLOCK == 0 && index[u / BLOCK] as usize != pos {
                return Err(format!("block index entry {} off target", u / BLOCK));
            }
            let deg =
                try_read_varint(data, &mut pos).ok_or_else(|| "truncated degree".to_string())?;
            let mut prev: i64 = -1;
            for i in 0..deg {
                let raw = try_read_varint(data, &mut pos)
                    .ok_or_else(|| format!("truncated list of {u}"))?;
                let v = if i == 0 {
                    u as i64 + unzigzag(raw)
                } else {
                    prev.checked_add(1 + raw as i64)
                        .ok_or_else(|| format!("gap overflow in list of {u}"))?
                };
                if v < 0 || v >= num_nodes as i64 {
                    return Err(format!("target {v} of {u} out of range"));
                }
                if v == u as i64 {
                    return Err(format!("self-loop at {u}"));
                }
                if v <= prev {
                    return Err(format!("adjacency of {u} not strictly sorted"));
                }
                prev = v;
            }
            arcs += deg as usize;
        }
        if pos != data.len() {
            return Err("trailing bytes after the last record".to_string());
        }
        if arcs != num_arcs {
            return Err(format!("arc count {arcs} disagrees with header {num_arcs}"));
        }
        Ok(())
    }
}

impl NeighborAccess for CcsrGraph {
    type Neighbors<'a> = Neighbors<'a>;
    type Indexed<'a> = CcsrView<'a>;

    #[inline]
    fn indexed(&self) -> CcsrView<'_> {
        self.view()
    }

    #[inline]
    fn num_nodes(&self) -> usize {
        CcsrGraph::num_nodes(self)
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        CcsrGraph::num_arcs(self)
    }

    #[inline]
    fn degree(&self, u: NodeId) -> usize {
        CcsrGraph::degree(self, u)
    }

    #[inline]
    fn neighbors_iter(&self, u: NodeId) -> Self::Neighbors<'_> {
        CcsrGraph::neighbors_iter(self, u)
    }
}

/// A [`CcsrGraph`] with a per-node record index: the compressed graph's
/// [`NeighborAccess::indexed`] form, built by [`CcsrGraph::view`] when a
/// traversal starts. It yields exactly the graph's lists; only the lookup
/// changes, from an in-block skip to `index[u / BLOCK] + offsets[u]`.
pub struct CcsrView<'a> {
    data: &'a [u8],
    index: &'a [u64],
    /// `offsets[u]` = byte offset of `u`'s record from its block's base.
    offsets: Vec<u32>,
    num_arcs: usize,
}

impl CcsrView<'_> {
    /// Byte offset of vertex `u`'s record.
    #[inline]
    fn locate(&self, u: NodeId) -> usize {
        let ui = u as usize;
        self.index[ui / BLOCK] as usize + self.offsets[ui] as usize
    }
}

impl NeighborAccess for CcsrView<'_> {
    type Neighbors<'b>
        = Neighbors<'b>
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
        self.offsets.len()
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        self.num_arcs
    }

    #[inline]
    fn degree(&self, u: NodeId) -> usize {
        let mut pos = self.locate(u);
        read_varint(self.data, &mut pos) as usize
    }

    #[inline]
    fn neighbors_iter(&self, u: NodeId) -> Neighbors<'_> {
        Neighbors::at(self.data, self.locate(u), u)
    }

    /// Each neighbor is still a varint decode, but the lookup is not a
    /// skip: a sequential top-down level costs 1.0–1.7× the plain
    /// backend's on a road graph and 1.1–3.0× on a power-law graph (the
    /// `"lookup":"view"` rows of `crates/bench/results/frontier_grain.jsonl`,
    /// runs 4–7, levels of 1,024 frontier arcs and up). In the runs where
    /// the parallel pass paid at all (5 and 6) it cost 1.14–1.47× the
    /// sequential step at 4,096–8,192 arcs on both families, 0.68–0.84× on
    /// road and 0.91–1.05× on power-law at 8,192–16,384, and 0.57–0.83×
    /// from 16,384 up. This weight sends a level to the pool from 8,192
    /// arcs.
    #[inline]
    fn arc_cost(&self) -> usize {
        4
    }
}

/// Decoding iterator over one vertex's gap-coded neighbor list.
pub struct Neighbors<'a> {
    data: &'a [u8],
    pos: usize,
    remaining: usize,
    prev: u64,
    vertex: NodeId,
    first: bool,
}

impl<'a> Neighbors<'a> {
    /// The list of the record of `vertex` that starts at byte `pos`.
    #[inline]
    fn at(data: &'a [u8], mut pos: usize, vertex: NodeId) -> Self {
        let remaining = read_varint(data, &mut pos) as usize;
        Neighbors {
            data,
            pos,
            remaining,
            prev: 0,
            vertex,
            first: true,
        }
    }
}

impl Iterator for Neighbors<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let raw = read_varint(self.data, &mut self.pos);
        let v = if self.first {
            self.first = false;
            (self.vertex as i64 + unzigzag(raw)) as u64
        } else {
            self.prev + 1 + raw
        };
        self.prev = v;
        Some(v as NodeId)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

/// Incremental encoder: push each vertex's sorted neighbor list in id
/// order, then [`finish`](Self::finish). This is the streaming builder's
/// sink — it never sees more than one list at a time, so building a
/// compressed graph from a sorted arc stream is O(1) extra memory.
pub struct CcsrBuilder {
    num_nodes: usize,
    next: usize,
    num_arcs: usize,
    data: Vec<u8>,
    index: Vec<u64>,
    /// Scratch for the record body (the delta varints) — the degree can
    /// only be written once the list has been consumed.
    body: Vec<u8>,
}

impl CcsrBuilder {
    /// An encoder expecting exactly `n` vertices.
    pub fn new(n: usize) -> Self {
        CcsrBuilder {
            num_nodes: n,
            next: 0,
            num_arcs: 0,
            data: Vec::new(),
            index: Vec::with_capacity(n.div_ceil(BLOCK)),
            body: Vec::new(),
        }
    }

    /// Encodes the next vertex's neighbor list (must be strictly ascending,
    /// in `0..n`, and free of `u` itself).
    ///
    /// # Panics
    /// Panics on a violated list invariant or on pushing more than `n`
    /// vertices.
    pub fn push_vertex(&mut self, nbrs: impl IntoIterator<Item = NodeId>) {
        assert!(self.next < self.num_nodes, "more vertices than declared");
        let u = self.next as NodeId;
        if self.next.is_multiple_of(BLOCK) {
            self.index.push(self.data.len() as u64);
        }
        self.body.clear();
        let mut deg = 0usize;
        let mut prev = 0u64;
        for v in nbrs {
            assert!((v as usize) < self.num_nodes, "target {v} out of range");
            assert_ne!(v, u, "self-loop at {u}");
            if deg == 0 {
                write_varint(&mut self.body, zigzag(v as i64 - u as i64));
            } else {
                assert!(u64::from(v) > prev, "adjacency of {u} not strictly sorted");
                write_varint(&mut self.body, u64::from(v) - prev - 1);
            }
            prev = u64::from(v);
            deg += 1;
        }
        write_varint(&mut self.data, deg as u64);
        self.data.extend_from_slice(&self.body);
        self.num_arcs += deg;
        self.next += 1;
    }

    /// Seals the encoder.
    ///
    /// # Panics
    /// Panics if fewer than `n` vertices were pushed.
    pub fn finish(self) -> CcsrGraph {
        assert_eq!(self.next, self.num_nodes, "not all vertices were pushed");
        CcsrGraph {
            num_nodes: self.num_nodes,
            num_arcs: self.num_arcs,
            data: self.data,
            index: self.index,
        }
    }
}

/// Weighted analogue of [`CcsrGraph`]: each gap varint is followed by a
/// varint weight. Feeds [`crate::WeightedFrontierEngine`] through
/// [`WeightedNeighborAccess`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CweightedGraph {
    num_nodes: usize,
    num_arcs: usize,
    data: Vec<u8>,
    index: Vec<u64>,
}

impl CweightedGraph {
    /// Compresses a plain weighted graph (lossless).
    pub fn from_weighted(g: &WeightedGraph) -> Self {
        let n = g.num_nodes();
        let mut data = Vec::new();
        let mut index = Vec::with_capacity(n.div_ceil(BLOCK));
        let mut body = Vec::new();
        let mut arcs = 0usize;
        for u in 0..n as NodeId {
            if (u as usize).is_multiple_of(BLOCK) {
                index.push(data.len() as u64);
            }
            body.clear();
            let mut deg = 0usize;
            let mut prev = 0u64;
            for (v, w) in g.neighbors(u) {
                if deg == 0 {
                    write_varint(&mut body, zigzag(v as i64 - u as i64));
                } else {
                    write_varint(&mut body, u64::from(v) - prev - 1);
                }
                write_varint(&mut body, w);
                prev = u64::from(v);
                deg += 1;
            }
            write_varint(&mut data, deg as u64);
            data.extend_from_slice(&body);
            arcs += deg;
        }
        CweightedGraph {
            num_nodes: n,
            num_arcs: arcs,
            data,
            index,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_arcs / 2
    }

    /// Resident bytes of the representation.
    pub fn heap_bytes(&self) -> usize {
        self.data.len() + self.index.len() * std::mem::size_of::<u64>()
    }

    #[inline]
    fn locate(&self, u: NodeId) -> usize {
        let ui = u as usize;
        debug_assert!(ui < self.num_nodes);
        let mut pos = self.index[ui / BLOCK] as usize;
        for _ in 0..ui % BLOCK {
            skip_record(&self.data, &mut pos, 2);
        }
        pos
    }

    /// Sorted `(neighbor, weight)` pairs of `u`, decoded on the fly.
    #[inline]
    pub fn wneighbors(&self, u: NodeId) -> WNeighbors<'_> {
        let mut pos = self.locate(u);
        let deg = read_varint(&self.data, &mut pos) as usize;
        WNeighbors {
            data: &self.data,
            pos,
            remaining: deg,
            prev: 0,
            vertex: u,
            first: true,
        }
    }
}

impl WeightedNeighborAccess for CweightedGraph {
    type WNeighbors<'a> = WNeighbors<'a>;

    #[inline]
    fn num_nodes(&self) -> usize {
        CweightedGraph::num_nodes(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        CweightedGraph::num_edges(self)
    }

    #[inline]
    fn wneighbors_iter(&self, u: NodeId) -> Self::WNeighbors<'_> {
        self.wneighbors(u)
    }
}

/// Decoding iterator over one vertex's gap-coded `(target, weight)` list.
pub struct WNeighbors<'a> {
    data: &'a [u8],
    pos: usize,
    remaining: usize,
    prev: u64,
    vertex: NodeId,
    first: bool,
}

impl Iterator for WNeighbors<'_> {
    type Item = (NodeId, u64);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, u64)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let raw = read_varint(self.data, &mut self.pos);
        let v = if self.first {
            self.first = false;
            (self.vertex as i64 + unzigzag(raw)) as u64
        } else {
            self.prev + 1 + raw
        };
        let w = read_varint(self.data, &mut self.pos);
        self.prev = v;
        Some((v as NodeId, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::GraphBuilder;
    use proptest::prelude::*;

    fn assert_equiv(g: &CsrGraph) {
        let c = CcsrGraph::from_csr(g);
        assert_eq!(c.num_nodes(), g.num_nodes());
        assert_eq!(c.num_arcs(), g.num_arcs());
        for u in 0..g.num_nodes() as NodeId {
            assert_eq!(c.degree(u), g.degree(u), "degree diverged at {u}");
            let decoded: Vec<NodeId> = c.neighbors_iter(u).collect();
            assert_eq!(decoded, g.neighbors(u), "list diverged at {u}");
        }
        assert_indexed_equiv(&c.indexed(), g);
        let repr = crate::GraphRepr::Compressed(c);
        assert_indexed_equiv(&repr.indexed(), g);
        let crate::GraphRepr::Compressed(c) = repr else {
            unreachable!()
        };
        assert_eq!(&c.to_csr(), g);
        assert!(CcsrGraph::validate_parts(
            c.num_nodes(),
            c.num_arcs(),
            c.raw_data(),
            c.raw_index()
        )
        .is_ok());
    }

    /// An indexed form answers every node exactly as the plain graph does.
    fn assert_indexed_equiv<G: NeighborAccess>(view: &G, g: &CsrGraph) {
        assert_eq!(view.num_nodes(), g.num_nodes());
        assert_eq!(view.num_arcs(), g.num_arcs());
        for u in 0..g.num_nodes() as NodeId {
            assert_eq!(
                view.degree(u),
                g.degree(u),
                "indexed degree diverged at {u}"
            );
            let decoded: Vec<NodeId> = view.neighbors_iter(u).collect();
            assert_eq!(decoded, g.neighbors(u), "indexed list diverged at {u}");
            let upper: Vec<NodeId> = view.upper_neighbors_iter(u).collect();
            assert_eq!(upper, g.upper_neighbors(u), "indexed tail diverged at {u}");
        }
    }

    /// The rule [`skip_varints`] must match: one byte at a time, up to and
    /// past each terminator.
    fn skip_bytewise(data: &[u8], mut pos: usize, count: usize) -> usize {
        for _ in 0..count {
            while data[pos] & 0x80 != 0 {
                pos += 1;
            }
            pos += 1;
        }
        pos
    }

    #[test]
    fn word_skip_matches_bytewise_skip() {
        // One buffer per varint width 1..=10 and one mixing them all, each
        // padded so no start sits a full word from the end.
        let width_value = |w: u32| if w == 1 { 5 } else { 1u64 << (7 * (w - 1)) };
        let mut buffers: Vec<Vec<u8>> = (1..=10u32)
            .map(|w| {
                let mut buf = Vec::new();
                for _ in 0..24 {
                    write_varint(&mut buf, width_value(w));
                }
                assert_eq!(buf.len(), 24 * w as usize);
                buf
            })
            .collect();
        let mut mixed = Vec::new();
        for i in 0..40u32 {
            write_varint(&mut mixed, width_value(1 + (i * 7) % 10));
        }
        buffers.push(mixed);
        for data in &buffers {
            // Starts anywhere, the last 16 bytes included; counts 0..=20 up
            // to the number of terminators left.
            for start in 0..data.len() {
                let left = data[start..].iter().filter(|&&b| b & 0x80 == 0).count();
                for count in 0..=20.min(left) {
                    let mut pos = start;
                    skip_varints(data, &mut pos, count as u64);
                    assert_eq!(
                        pos,
                        skip_bytewise(data, start, count),
                        "start {start} of {}, count {count}",
                        data.len()
                    );
                }
            }
        }
    }

    #[test]
    fn varint_roundtrip_edges() {
        for x in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, x);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), x);
            assert_eq!(pos, buf.len());
            let mut pos = 0;
            assert_eq!(try_read_varint(&buf, &mut pos), Some(x));
        }
    }

    #[test]
    fn try_read_varint_rejects_truncation_and_overflow() {
        assert_eq!(try_read_varint(&[0x80], &mut 0), None);
        assert_eq!(try_read_varint(&[], &mut 0), None);
        // 11 continuation bytes: wider than any u64.
        let wide = [0xffu8; 11];
        assert_eq!(try_read_varint(&wide, &mut 0), None);
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn fixture_graphs_roundtrip() {
        assert_equiv(&CsrGraph::empty(0));
        assert_equiv(&CsrGraph::empty(17));
        assert_equiv(&generators::mesh(13, 9));
        assert_equiv(&generators::star(50));
        assert_equiv(&generators::complete(20));
        assert_equiv(&generators::preferential_attachment(500, 4, 7));
        assert_equiv(&generators::lollipop(40, 4, 60, 11));
    }

    #[test]
    fn indexed_form_edge_cases() {
        // Partial tail blocks: one node, then one node past a full block.
        assert_equiv(&generators::cycle(17));
        assert_equiv(&generators::gnm(33, 60, 3));
        // Isolated nodes inside blocks, between and around nonempty records.
        let sparse = GraphBuilder::new(40)
            .add_edges([(1, 2), (2, 14), (17, 30), (30, 31), (33, 39)])
            .build();
        assert!((0..40).any(|u| u % BLOCK as NodeId != 0 && sparse.degree(u) == 0));
        assert_equiv(&sparse);
        // A hub adjacent to every other node of a 5,000-node path: its record
        // spans hundreds of words and mixes 1- and 2-byte varints.
        let n = 5_000;
        let hub = 2_500;
        let edges = (0..n - 1)
            .map(|u| (u, u + 1))
            .chain((0..n).filter(|&v| v != hub).map(|v| (hub, v)));
        let g = GraphBuilder::new(n as usize).add_edges(edges).build();
        assert_eq!(g.degree(hub), n as usize - 1);
        assert_equiv(&g);
    }

    #[test]
    fn compression_beats_plain_on_power_law() {
        let g = generators::windowed_preferential_attachment(20_000, 8, 0.025, 101);
        let c = CcsrGraph::from_csr(&g);
        let plain = std::mem::size_of::<usize>() * (g.num_nodes() + 1) + 4 * g.num_arcs();
        assert!(
            c.heap_bytes() * 3 <= plain,
            "expected ≥ 3× on power-law: {} vs {}",
            c.heap_bytes(),
            plain
        );
    }

    #[test]
    fn upper_neighbors_match_plain() {
        use crate::access::NeighborAccess as _;
        let g = generators::mesh(7, 8);
        let c = CcsrGraph::from_csr(&g);
        for u in 0..g.num_nodes() as NodeId {
            let upper: Vec<NodeId> = c.upper_neighbors_iter(u).collect();
            assert_eq!(upper, g.upper_neighbors(u));
        }
    }

    #[test]
    fn validate_rejects_corruption() {
        let g = GraphBuilder::new(6)
            .add_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
            .build();
        let c = CcsrGraph::from_csr(&g);
        let (n, arcs) = (c.num_nodes(), c.num_arcs());
        let data = c.raw_data().to_vec();
        let index = c.raw_index().to_vec();
        assert!(CcsrGraph::validate_parts(n, arcs, &data, &index).is_ok());
        // Wrong arc count.
        assert!(CcsrGraph::validate_parts(n, arcs + 1, &data, &index).is_err());
        // Truncated data: every prefix must be rejected.
        for cut in 0..data.len() {
            assert!(
                CcsrGraph::validate_parts(n, arcs, &data[..cut], &index).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
        // Trailing garbage.
        let mut padded = data.clone();
        padded.push(0);
        assert!(CcsrGraph::validate_parts(n, arcs, &padded, &index).is_err());
        // Mis-aimed block index.
        let mut bad_index = index.clone();
        if !bad_index.is_empty() {
            bad_index[0] += 1;
            assert!(CcsrGraph::validate_parts(n, arcs, &data, &bad_index).is_err());
        }
        // Flipping any single byte must never validate as the same graph:
        // either validation fails or the decoded lists differ.
        for i in 0..data.len() {
            let mut mutated = data.clone();
            mutated[i] ^= 0x01;
            if CcsrGraph::validate_parts(n, arcs, &mutated, &index).is_ok() {
                // Structurally valid after the flip (e.g. now asymmetric):
                // the decoded lists must at least differ from the original.
                let m = CcsrGraph::from_raw_parts(n, arcs, mutated, index.clone());
                let same = (0..n as NodeId)
                    .all(|u| m.neighbors_iter(u).collect::<Vec<_>>() == g.neighbors(u));
                assert!(!same, "byte flip at {i} decoded identically");
            }
        }
    }

    #[test]
    fn weighted_roundtrip() {
        let g = WeightedGraph::from_edges(
            6,
            &[(0, 1, 3), (1, 2, 900), (2, 3, 1), (0, 5, 70), (4, 5, 2)],
        );
        let c = CweightedGraph::from_weighted(&g);
        assert_eq!(c.num_nodes(), g.num_nodes());
        assert_eq!(c.num_edges(), g.num_edges());
        for u in 0..g.num_nodes() as NodeId {
            let decoded: Vec<(NodeId, u64)> = c.wneighbors(u).collect();
            let plain: Vec<(NodeId, u64)> = g.neighbors(u).collect();
            assert_eq!(decoded, plain, "weighted list diverged at {u}");
        }
    }

    /// Arbitrary graph strategy (the same family mix as the I/O proptests:
    /// meshes, G(n, m) soups, power-law, empty).
    fn any_graph() -> impl Strategy<Value = CsrGraph> {
        prop_oneof![
            (1usize..10, 1usize..10).prop_map(|(r, c)| generators::mesh(r, c)),
            (0usize..80, 0usize..160, 0u64..1000).prop_map(|(n, m, s)| {
                generators::gnm(n, m.min(n.saturating_sub(1) * n / 2), s)
            }),
            (2usize..60, 1u64..1000).prop_map(|(n, s)| {
                generators::preferential_attachment(n.max(4), 3.min(n - 1), s)
            }),
            (0usize..50).prop_map(CsrGraph::empty),
        ]
    }

    proptest! {
        /// The tentpole equivalence lock: compressed encode → decode
        /// reproduces every plain-CSR neighbor list exactly.
        #[test]
        fn roundtrip_equals_plain(g in any_graph()) {
            assert_equiv(&g);
        }

        /// Weighted compressed lists reproduce the plain weighted lists.
        #[test]
        fn weighted_roundtrip_equals_plain(
            n in 1usize..40,
            edges in proptest::collection::vec((0u32..40, 0u32..40, 0u64..1u64 << 40), 0..120),
        ) {
            let edges: Vec<(NodeId, NodeId, u64)> = edges
                .into_iter()
                .map(|(u, v, w)| (u % n as NodeId, v % n as NodeId, w))
                .collect();
            let g = WeightedGraph::from_edges(n, &edges);
            let c = CweightedGraph::from_weighted(&g);
            for u in 0..n as NodeId {
                let decoded: Vec<(NodeId, u64)> = c.wneighbors(u).collect();
                let plain: Vec<(NodeId, u64)> = g.neighbors(u).collect();
                prop_assert_eq!(decoded, plain);
            }
        }
    }
}
