//! Graph serialization: SNAP-style text edge lists and a compact binary
//! snapshot format.
//!
//! # Text edge lists
//!
//! [`read_edge_list`] and [`read_weighted_edge_list`] share one byte-level
//! tokenizer with this grammar:
//!
//! * Lines end at `\n`. The ASCII blanks — space, `\t`, `\r`, `\x0b` and
//!   `\x0c` — separate tokens, so CRLF files read like LF ones. Lines of
//!   blanks only are skipped.
//! * A line whose first non-blank byte is `#` is a comment. Among the tokens
//!   after the `#`, `nodes N` raises the node count to `N` when `N` is a
//!   count in the grammar of `str::parse::<usize>`; everything else in a
//!   comment is ignored.
//! * Any other line is an edge line. Its first two tokens are node ids in
//!   the grammar of `str::parse::<u32>`: an optional `+`, then digits,
//!   without overflow. [`read_weighted_edge_list`] reads an optional third
//!   token as a `u64` weight in the same grammar (default 1). Further tokens
//!   are ignored, but must be UTF-8.
//! * The node count is one past the largest id, or the largest `nodes N` if
//!   that is larger. An id or a declared count that [`NodeId`] cannot index
//!   (a node count above `NodeId::MAX - 1`) is an error, raised while
//!   parsing, before anything is allocated for the graph.
//! * Every error is [`io::ErrorKind::InvalidData`] and names the 1-based
//!   line number and the line. It is the first bad line in input order, at
//!   any pool size.
//!
//! Two deliberate differences from reading lines as `str` and splitting
//! them with `str::split_whitespace`, as this module did before:
//!
//! * Bytes that are not UTF-8 inside a comment line are skipped. They used
//!   to fail the whole read.
//! * Unicode whitespace outside ASCII, such as U+00A0, is not a blank: it no
//!   longer separates ids, so a line like `1\u{a0}2` is an error, and a
//!   comment that uses it to separate `nodes` from `N` declares nothing.
//!
//! The reader parses straight from [`BufRead::fill_buf`], without copying:
//! the whole lines of each fill are cut into pieces of about 256 KiB that
//! end at a newline, and the pieces are parsed in parallel. A line that
//! straddles two fills goes through a small carry buffer. A `&[u8]` fills
//! with all of its text at once; a file parses in parallel with bounded
//! memory through a `BufReader` of a few MiB. The unweighted reader hands
//! its pieces' edges to [`GraphBuilder`]'s counting-sort build without
//! concatenating them.
//!
//! # The `PDEC1` base format
//!
//! The original binary format stores the CSR arrays directly so that large
//! generated workloads can be cached between experiment runs:
//!
//! ```text
//! magic   b"PDEC1\0"     6 bytes
//! n       u64 LE
//! arcs    u64 LE          (= 2m)
//! offsets (n + 1) × u64 LE
//! targets arcs × u32 LE
//! ```
//!
//! # The `PDEC2` sectioned container
//!
//! Resident services ([`pardec serve`]) need more than the graph in one
//! file: the clustering, the distance-oracle tables, and whatever future
//! state (weighted oracles, compressed CSR) the ROADMAP adds. `PDEC2`
//! wraps any number of **sections** behind a versioned table:
//!
//! ```text
//! magic         b"PDEC2\0"                        6 bytes
//! table version u32 LE                            (currently 1)
//! section count u32 LE
//! entries       count × { tag u32, version u32, offset u64, len u64 }
//! payloads      8-byte-aligned byte ranges, zero padding between them
//! ```
//!
//! Offsets are absolute file offsets and each payload is 8-byte aligned, so
//! a memory-mapped snapshot can hand out aligned `&[u8]` views without
//! copying the file through a parser. Every snapshot carries exactly one
//! graph section ([`SECTION_GRAPH`], payload = the `PDEC1` body); other
//! crates register their own tags (the session layer persists clustering
//! and oracle sections). Unknown tags are preserved and ignored — old
//! readers skip what they do not understand, new readers fall back to
//! recomputing sections that are absent.
//!
//! Two graph read paths exist:
//! * [`Snapshot::graph`] — the **fast path**: header/offset structural
//!   checks plus a bulk arc-range check, then a straight copy into the CSR
//!   arrays. No per-edge re-sort, dedup, or builder pass — startup cost is
//!   a memcpy, which is what a resident daemon wants. It trusts deeper CSR
//!   invariants (sorted adjacency, symmetry) to the writer; snapshots this
//!   module wrote satisfy them by construction.
//! * [`Snapshot::graph_checked`] — the **fallback path** for foreign or
//!   suspect files: every edge is re-run through [`GraphBuilder`], so no
//!   payload can violate a CSR invariant.
//!
//! All size arithmetic on both paths is checked: hostile headers produce
//! an [`io::Error`], never an overflow panic, and truncating a snapshot at
//! any byte yields an error (asserted exhaustively by the tests here and
//! property-tested in `tests/proptests_session.rs`).

use crate::builder::{self, MAX_NODES};
use crate::ccsr::BLOCK;
use crate::{Backend, CcsrGraph, CsrGraph, GraphBuilder, GraphRepr, NodeId, WeightedGraph};
use bytes::{Buf, BufMut};
use rayon::prelude::*;
use std::io::{self, BufRead, Write};

const MAGIC: &[u8; 6] = b"PDEC1\0";
const MAGIC_V2: &[u8; 6] = b"PDEC2\0";

/// Current version of the `PDEC2` section table layout.
pub const SNAPSHOT_TABLE_VERSION: u32 = 1;

/// Section tag of the graph CSR payload (`b"GRPH"`, little-endian).
pub const SECTION_GRAPH: u32 = u32::from_le_bytes(*b"GRPH");

/// Current payload version written for [`SECTION_GRAPH`].
pub const SECTION_GRAPH_VERSION: u32 = 1;

/// Section tag of the gap-coded compressed graph payload (`b"GRPC"`):
///
/// ```text
/// n        u64 LE
/// arcs     u64 LE                      (= 2m)
/// data_len u64 LE
/// index    ⌈n / BLOCK⌉ × u64 LE
/// data     data_len bytes              (concatenated varint records)
/// ```
///
/// A snapshot carries exactly one graph section — [`SECTION_GRAPH`] *or*
/// this one, chosen by the writer's [`Backend`].
pub const SECTION_GRAPH_COMPRESSED: u32 = u32::from_le_bytes(*b"GRPC");

/// Current payload version written for [`SECTION_GRAPH_COMPRESSED`].
pub const SECTION_GRAPH_COMPRESSED_VERSION: u32 = 1;

/// Upper bound on the section count a reader will accept — far above any
/// legitimate snapshot, low enough that a hostile count cannot drive a
/// large allocation.
const MAX_SECTIONS: usize = 4096;

/// Bytes per section-table entry: tag, version, offset, len.
const ENTRY_BYTES: usize = 4 + 4 + 8 + 8;

/// Writes `g` as a text edge list: a `# nodes <n> edges <m>` header followed
/// by one `u<TAB>v` line per undirected edge.
pub fn write_edge_list(g: &CsrGraph, w: &mut impl Write) -> io::Result<()> {
    writeln!(w, "# nodes {} edges {}", g.num_nodes(), g.num_edges())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u}\t{v}")?;
    }
    Ok(())
}

/// Reads a text edge list (see [Text edge lists](self#text-edge-lists))
/// into the canonical CSR: symmetric, without self-loops or duplicates.
/// Tokens after the two node ids are ignored.
pub fn read_edge_list(r: &mut impl BufRead) -> io::Result<CsrGraph> {
    let (n, parts) = read_edge_lines(r, |u, v, _| Ok((u, v)))?;
    Ok(builder::build_csr(n, &parts))
}

/// Writes `g` as a text edge list with a third weight column: a
/// `# nodes <n> edges <m>` header followed by one `u<TAB>v<TAB>w` line per
/// undirected edge.
pub fn write_weighted_edge_list(g: &WeightedGraph, w: &mut impl Write) -> io::Result<()> {
    writeln!(w, "# nodes {} edges {}", g.num_nodes(), g.num_edges())?;
    for u in 0..g.num_nodes() as NodeId {
        for (v, wt) in g.upper_neighbors(u) {
            writeln!(w, "{u}\t{v}\t{wt}")?;
        }
    }
    Ok(())
}

/// Reads a text edge list with an *optional* third weight column (missing
/// weights default to 1, so every unweighted edge list is also a valid
/// weighted one; see [Text edge lists](self#text-edge-lists)). Tokens after
/// the weight are ignored; duplicate edges keep their smallest weight.
pub fn read_weighted_edge_list(r: &mut impl BufRead) -> io::Result<WeightedGraph> {
    let (n, parts) = read_edge_lines(r, |u, v, rest| {
        let w = match rest.next() {
            None => 1,
            Some(tok) => parse_uint(tok).ok_or_else(|| format!("invalid weight {}", show(tok)))?,
        };
        Ok((u, v, w))
    })?;
    Ok(WeightedGraph::from_edges(n, &parts.concat()))
}

/// Bytes per parse task: each run of complete lines is cut into pieces of
/// about this size, each ending at a newline, and the pieces are parsed in
/// parallel. A constant, so the cuts depend only on the bytes.
const PARSE_PIECE: usize = 256 << 10;

/// Parses the edge lines of `r`, straight from its buffer, into one record
/// per edge line (`record` reads whatever follows the two node ids),
/// returning the node count and the records in input order, split into
/// parts. The first bad line in input order is the error.
fn read_edge_lines<E, R>(r: &mut impl BufRead, record: R) -> io::Result<(usize, Vec<Vec<E>>)>
where
    E: Send,
    R: Fn(NodeId, NodeId, &mut Tokens<'_>) -> Result<E, String> + Sync,
{
    let mut text = EdgeText {
        parts: Vec::new(),
        nodes: 0,
        lines: 0,
    };
    // The start of a line that straddles two fills.
    let mut carry = Vec::new();
    loop {
        let buf = match r.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            break;
        }
        let len = buf.len();
        match buf.iter().rposition(|&b| b == b'\n') {
            None => carry.extend_from_slice(buf),
            Some(last) => {
                let (mut whole, tail) = buf.split_at(last + 1);
                if !carry.is_empty() {
                    let end = whole.iter().position(|&b| b == b'\n').map_or(0, |i| i + 1);
                    carry.extend_from_slice(&whole[..end]);
                    text.parse(&carry, &record)?;
                    carry.clear();
                    whole = &whole[end..];
                }
                text.parse(whole, &record)?;
                carry.extend_from_slice(tail);
            }
        }
        r.consume(len);
    }
    text.parse(&carry, &record)?;
    Ok((text.nodes, text.parts))
}

/// What the lines parsed so far add up to.
struct EdgeText<E> {
    parts: Vec<Vec<E>>,
    /// One past the largest node id, or the largest `nodes N`.
    nodes: usize,
    /// Lines parsed so far.
    lines: usize,
}

impl<E: Send> EdgeText<E> {
    /// Parses a run of whole lines (only the input's last line may lack its
    /// newline) in parallel pieces, and appends them in order.
    fn parse<R>(&mut self, run: &[u8], record: &R) -> io::Result<()>
    where
        R: Fn(NodeId, NodeId, &mut Tokens<'_>) -> Result<E, String> + Sync,
    {
        let mut pieces = Vec::new();
        let mut rest = run;
        while !rest.is_empty() {
            let end = match rest.get(PARSE_PIECE - 1..) {
                Some(after) => after
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(rest.len(), |i| PARSE_PIECE + i),
                None => rest.len(),
            };
            let (piece, tail) = rest.split_at(end);
            pieces.push(piece);
            rest = tail;
        }
        let parsed: Vec<Result<Piece<E>, BadLine>> = pieces
            .into_par_iter()
            .map(|piece| parse_piece(piece, record))
            .collect();
        for piece in parsed {
            let piece = piece.map_err(|bad| {
                data_err(format!("line {}: {}", self.lines + bad.index + 1, bad.why))
            })?;
            self.lines += piece.lines;
            self.nodes = self.nodes.max(piece.nodes);
            if !piece.edges.is_empty() {
                self.parts.push(piece.edges);
            }
        }
        Ok(())
    }
}

/// One parsed piece of whole lines.
struct Piece<E> {
    edges: Vec<E>,
    nodes: usize,
    lines: usize,
}

impl<E> Piece<E> {
    fn push(&mut self, u: NodeId, v: NodeId, edge: E) {
        self.nodes = self.nodes.max(u.max(v) as usize + 1);
        self.edges.push(edge);
    }
}

/// A line the grammar rejects: its 0-based index in its piece, and why.
struct BadLine {
    index: usize,
    why: String,
}

fn parse_piece<E>(
    piece: &[u8],
    record: &impl Fn(NodeId, NodeId, &mut Tokens<'_>) -> Result<E, String>,
) -> Result<Piece<E>, BadLine> {
    let newlines = piece.iter().filter(|&&b| b == b'\n').count();
    let mut out = Piece {
        edges: Vec::with_capacity(newlines + 1),
        nodes: 0,
        lines: newlines + usize::from(piece.last().is_some_and(|&b| b != b'\n')),
    };
    let mut rest = piece;
    let mut index = 0;
    while !rest.is_empty() {
        // The line, how many bytes it takes with its newline, and its parse.
        let (line, used, parsed) = match plain_edge(rest) {
            Some((u, v, used)) => {
                let edge = record(u, v, &mut Tokens(&[]));
                (&rest[..used], used, edge.map(|edge| out.push(u, v, edge)))
            }
            None => {
                let end = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
                let line = &rest[..end];
                (line, end + 1, parse_line(line, record, &mut out))
            }
        };
        parsed.map_err(|why| BadLine {
            index,
            why: format!("{why}: {}", show(line)),
        })?;
        rest = rest.get(used..).unwrap_or_default();
        index += 1;
    }
    Ok(out)
}

/// The fast path for the common edge line — two ids of at most nine digits,
/// blanks between and after them, then the newline or the end of `text` —
/// giving the ids and the bytes the line takes, newline included. Any other
/// line gives `None` and goes to [`parse_line`], which reads such a line
/// the same way.
#[inline]
fn plain_edge(text: &[u8]) -> Option<(NodeId, NodeId, usize)> {
    let blanks = |i: usize| i + text[i..].iter().take_while(|&&b| is_blank(b)).count();
    let (u, i) = short_id(text, 0)?;
    let j = blanks(i);
    if j == i {
        return None;
    }
    let (v, i) = short_id(text, j)?;
    let i = blanks(i);
    match text.get(i) {
        None => Some((u, v, i)),
        Some(b'\n') => Some((u, v, i + 1)),
        Some(_) => None,
    }
}

/// The id spelled by the (one to nine) digits at `text[i..]`, and the index
/// after them.
#[inline]
fn short_id(text: &[u8], i: usize) -> Option<(NodeId, usize)> {
    let (mut id, mut len) = (0, 0);
    for &b in text[i..].iter().take(9) {
        if !b.is_ascii_digit() {
            break;
        }
        id = id * 10 + NodeId::from(b - b'0');
        len += 1;
    }
    (len > 0).then_some((id, i + len))
}

/// Parses one line (without its newline) into `out`.
fn parse_line<E>(
    line: &[u8],
    record: &impl Fn(NodeId, NodeId, &mut Tokens<'_>) -> Result<E, String>,
    out: &mut Piece<E>,
) -> Result<(), String> {
    let Some(start) = line.iter().position(|&b| !is_blank(b)) else {
        return Ok(());
    };
    let line = &line[start..];
    if let Some(comment) = line.strip_prefix(b"#") {
        let mut tokens = Tokens(comment);
        while let Some(tok) = tokens.next() {
            if tok != b"nodes" {
                continue;
            }
            let declared = tokens.next().and_then(parse_uint);
            if let Some(n) = declared.and_then(|n| usize::try_from(n).ok()) {
                if n > MAX_NODES {
                    return Err(format!(
                        "declared node count {n} is above the limit of {MAX_NODES}"
                    ));
                }
                out.nodes = out.nodes.max(n);
            }
        }
        return Ok(());
    }
    let mut tokens = Tokens(line);
    let (Some(a), Some(b)) = (tokens.next(), tokens.next()) else {
        return Err("expected two node ids".into());
    };
    let (u, v) = (node_id(a)?, node_id(b)?);
    let edge = record(u, v, &mut tokens)?;
    if std::str::from_utf8(tokens.0).is_err() {
        return Err("not UTF-8".into());
    }
    out.push(u, v, edge);
    Ok(())
}

/// The ASCII blanks that separate tokens; `\n` ends the line instead.
#[inline]
fn is_blank(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | 0x0b | 0x0c)
}

/// The blank-separated tokens of what is left of one line.
struct Tokens<'a>(&'a [u8]);

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let start = self.0.iter().position(|&b| !is_blank(b))?;
        let tail = &self.0[start..];
        let len = tail.iter().position(|&b| is_blank(b)).unwrap_or(tail.len());
        let (tok, rest) = tail.split_at(len);
        self.0 = rest;
        Some(tok)
    }
}

/// An unsigned decimal in the grammar `str::parse::<u64>` accepts: an
/// optional `+`, then one or more digits, without overflow.
fn parse_uint(tok: &[u8]) -> Option<u64> {
    let digits = tok.strip_prefix(b"+").unwrap_or(tok);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |acc, &b| {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        acc.checked_mul(10)?.checked_add(u64::from(d))
    })
}

/// A node id: a decimal that leaves the node count within
/// [`MAX_NODES`].
fn node_id(tok: &[u8]) -> Result<NodeId, String> {
    match parse_uint(tok) {
        Some(id) if id < MAX_NODES as u64 => Ok(id as NodeId),
        Some(id) => Err(format!(
            "node id {id} is out of range (ids stop below {MAX_NODES})"
        )),
        None => Err(format!("invalid node id {}", show(tok))),
    }
}

/// A quoted, lossy rendering of (the start of) some input bytes for an
/// error message.
fn show(bytes: &[u8]) -> String {
    const SHOWN: usize = 64;
    let bytes = bytes.trim_ascii_end();
    let shown = format!(
        "{:?}",
        String::from_utf8_lossy(&bytes[..bytes.len().min(SHOWN)])
    );
    if bytes.len() > SHOWN {
        shown + "…"
    } else {
        shown
    }
}

fn data_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The [`SECTION_GRAPH`] section of `g`, whose payload is also the `PDEC1`
/// graph body (everything after the magic): `n`, `arcs`, offsets, targets.
fn graph_section(g: &CsrGraph) -> SectionData<'_> {
    let mut head = Vec::with_capacity(16);
    head.put_u64_le(g.num_nodes() as u64);
    head.put_u64_le(g.raw_targets().len() as u64);
    SectionData {
        tag: SECTION_GRAPH,
        version: SECTION_GRAPH_VERSION,
        head,
        words: vec![Words::U64(g.raw_offsets()), Words::U32(g.raw_targets())],
    }
}

/// Validates a graph body's header, returning `(n, arcs, rest)` with `rest`
/// positioned at the offsets array and guaranteed to hold exactly the
/// declared payload. All arithmetic is checked: a hostile header must
/// produce an error, not an overflow panic (debug) or a bogus comparison
/// (release).
fn decode_graph_header(body: &[u8]) -> io::Result<(usize, usize, &[u8])> {
    let mut buf = body;
    if buf.remaining() < 16 {
        return Err(data_err("truncated header"));
    }
    let n = buf.get_u64_le() as usize;
    let arcs = buf.get_u64_le() as usize;
    let expected = n
        .checked_add(1)
        .and_then(|o| o.checked_mul(8))
        .and_then(|o| o.checked_add(arcs.checked_mul(4)?))
        .ok_or_else(|| data_err("header sizes overflow"))?;
    if buf.remaining() != expected {
        return Err(data_err("length mismatch"));
    }
    Ok((n, arcs, buf))
}

/// Fast graph decode: structural checks (monotone offsets, in-range
/// targets) plus a bulk copy — no per-edge builder pass. See the module
/// docs for the trust contract.
fn decode_graph_fast(body: &[u8]) -> io::Result<CsrGraph> {
    let (n, arcs, mut buf) = decode_graph_header(body)?;
    let mut offsets = Vec::with_capacity(n + 1);
    let mut prev = 0usize;
    for i in 0..=n {
        let o = buf.get_u64_le() as usize;
        if (i == 0 && o != 0) || o < prev || o > arcs {
            return Err(data_err("inconsistent offsets"));
        }
        prev = o;
        offsets.push(o);
    }
    if prev != arcs {
        return Err(data_err("inconsistent offsets"));
    }
    let targets: Vec<NodeId> = (0..arcs).map(|_| buf.get_u32_le()).collect();
    let in_range = if arcs > 1 << 16 {
        targets.par_iter().all(|&t| (t as usize) < n)
    } else {
        targets.iter().all(|&t| (t as usize) < n)
    };
    if !in_range {
        return Err(data_err("target out of range"));
    }
    Ok(CsrGraph::from_parts(offsets, targets))
}

/// Checked graph decode: every edge re-runs through [`GraphBuilder`] so
/// corrupt payloads cannot violate CSR invariants.
fn decode_graph_checked(body: &[u8]) -> io::Result<CsrGraph> {
    let (n, arcs, mut buf) = decode_graph_header(body)?;
    let mut offsets = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        offsets.push(buf.get_u64_le() as usize);
    }
    let mut b = GraphBuilder::with_capacity(n, arcs / 2);
    let mut targets = Vec::with_capacity(arcs);
    for _ in 0..arcs {
        targets.push(buf.get_u32_le());
    }
    if *offsets.last().unwrap_or(&0) != arcs {
        return Err(data_err("inconsistent offsets"));
    }
    for u in 0..n {
        for &v in targets
            .get(offsets[u]..offsets[u + 1])
            .ok_or_else(|| data_err("offset out of bounds"))?
        {
            if (v as usize) >= n {
                return Err(data_err("target out of range"));
            }
            if (u as NodeId) < v {
                b.add_edge(u as NodeId, v);
            }
        }
    }
    Ok(b.build())
}

/// Encodes the [`SECTION_GRAPH_COMPRESSED`] payload.
fn encode_cgraph_body(c: &CcsrGraph) -> Vec<u8> {
    let data = c.raw_data();
    let index = c.raw_index();
    let mut buf = Vec::with_capacity(24 + index.len() * 8 + data.len());
    buf.put_u64_le(c.num_nodes() as u64);
    buf.put_u64_le(c.num_arcs() as u64);
    buf.put_u64_le(data.len() as u64);
    for &o in index {
        buf.put_u64_le(o);
    }
    buf.put_slice(data);
    buf
}

/// Decodes a [`SECTION_GRAPH_COMPRESSED`] payload. Always runs the full
/// O(n + m) [`CcsrGraph::validate_parts`] pass — the decoder's trusted-path
/// readers panic on malformed varints, so unvalidated bytes must never
/// reach them. Symmetry is *not* checked here; [`Snapshot::graph_checked`]
/// (and the checked repr path) decompresses and re-runs the full CSR
/// invariants on top.
fn decode_cgraph(body: &[u8]) -> io::Result<CcsrGraph> {
    let mut buf = body;
    if buf.remaining() < 24 {
        return Err(data_err("truncated compressed graph header"));
    }
    let n = buf.get_u64_le() as usize;
    let arcs = buf.get_u64_le() as usize;
    let data_len = buf.get_u64_le() as usize;
    let index_len = n.div_ceil(BLOCK);
    let expected = index_len
        .checked_mul(8)
        .and_then(|b| b.checked_add(data_len))
        .ok_or_else(|| data_err("compressed header sizes overflow"))?;
    if buf.remaining() != expected {
        return Err(data_err("compressed graph length mismatch"));
    }
    let index: Vec<u64> = (0..index_len).map(|_| buf.get_u64_le()).collect();
    let data = buf.to_vec();
    CcsrGraph::validate_parts(n, arcs, &data, &index).map_err(data_err)?;
    Ok(CcsrGraph::from_raw_parts(n, arcs, data, index))
}

/// Serializes `g` into the `PDEC1` binary snapshot format (graph only; use
/// [`save_snapshot`] to persist additional sections).
pub fn save_binary(g: &CsrGraph, w: &mut impl Write) -> io::Result<()> {
    let mut w = Blocks::new(w);
    w.put(MAGIC)?;
    w.put_payload(&graph_section(g))?;
    w.finish()
}

/// Deserializes the graph of a `PDEC1` **or** `PDEC2` snapshot through the
/// checked (builder) path; extra `PDEC2` sections are ignored.
pub fn load_binary(bytes: &[u8]) -> io::Result<CsrGraph> {
    Snapshot::parse(bytes)?.graph_checked()
}

/// One section to persist alongside the graph in a `PDEC2` snapshot. Its
/// payload is `head` followed by each run of `words`, little-endian.
///
/// The writer encodes the runs straight into its output block, so a large
/// array borrowed from its owner reaches the output without a byte copy of
/// the whole array in memory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SectionData<'a> {
    /// Four-byte tag (conventionally ASCII via `u32::from_le_bytes`).
    pub tag: u32,
    /// Payload layout version, interpreted by the owning crate.
    pub version: u32,
    /// Leading payload bytes, built in memory.
    pub head: Vec<u8>,
    /// Payload words after `head`, run by run.
    pub words: Vec<Words<'a>>,
}

/// A run of [`SectionData`] payload words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Words<'a> {
    /// Written as 2-byte words (the narrow APSP triangle).
    U16(&'a [u16]),
    /// Written as 4-byte words.
    U32(&'a [u32]),
    /// Written as 8-byte words (CSR offsets).
    U64(&'a [usize]),
}

impl SectionData<'_> {
    /// A section whose whole payload is `bytes`.
    pub fn bytes(tag: u32, version: u32, bytes: Vec<u8>) -> Self {
        SectionData {
            tag,
            version,
            head: bytes,
            words: Vec::new(),
        }
    }

    /// Payload length in bytes, as the section table declares it.
    fn payload_len(&self) -> usize {
        let run = |w: &Words| match w {
            Words::U16(w) => 2 * w.len(),
            Words::U32(w) => 4 * w.len(),
            Words::U64(w) => 8 * w.len(),
        };
        self.head.len() + self.words.iter().map(run).sum::<usize>()
    }
}

/// Bytes per write of the snapshot writers.
const BLOCK_BYTES: usize = 1 << 16;

/// The snapshot writer: it counts the bytes put to it and hands them on in
/// whole [`BLOCK_BYTES`] blocks, all but the last full. A `Vec` output is
/// therefore sized by blocks from its first write on, never from the
/// 80-odd bytes of a section table.
struct Blocks<W: Write> {
    inner: W,
    block: Vec<u8>,
    fill: usize,
    bytes: usize,
}

impl<W: Write> Blocks<W> {
    fn new(inner: W) -> Self {
        Blocks {
            inner,
            block: vec![0; BLOCK_BYTES],
            fill: 0,
            bytes: 0,
        }
    }

    /// Counts `n` more bytes of the block, writing it out when it is full.
    fn advance(&mut self, n: usize) -> io::Result<()> {
        self.fill += n;
        self.bytes += n;
        if self.fill == BLOCK_BYTES {
            self.inner.write_all(&self.block)?;
            self.fill = 0;
        }
        Ok(())
    }

    fn put(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        while !bytes.is_empty() {
            let n = bytes.len().min(BLOCK_BYTES - self.fill);
            self.block[self.fill..self.fill + n].copy_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
            self.advance(n)?;
        }
        Ok(())
    }

    /// Puts `words` as `N`-byte little-endian words, encoded in the block.
    fn put_words<T: Copy, const N: usize>(
        &mut self,
        mut words: &[T],
        le: impl Fn(T) -> [u8; N],
    ) -> io::Result<()> {
        while let Some((&first, rest)) = words.split_first() {
            let room = (BLOCK_BYTES - self.fill) / N;
            if room == 0 {
                // The word straddles the end of the block.
                self.put(&le(first))?;
                words = rest;
                continue;
            }
            let (now, later) = words.split_at(room.min(words.len()));
            for (b, &w) in self.block[self.fill..].chunks_exact_mut(N).zip(now) {
                b.copy_from_slice(&le(w));
            }
            self.advance(N * now.len())?;
            words = later;
        }
        Ok(())
    }

    fn put_payload(&mut self, s: &SectionData) -> io::Result<()> {
        self.put(&s.head)?;
        for run in &s.words {
            match *run {
                Words::U16(w) => self.put_words(w, u16::to_le_bytes)?,
                Words::U32(w) => self.put_words(w, u32::to_le_bytes)?,
                Words::U64(w) => self.put_words(w, |o| (o as u64).to_le_bytes())?,
            }
        }
        Ok(())
    }

    /// Writes the last, partial block.
    fn finish(mut self) -> io::Result<()> {
        self.inner.write_all(&self.block[..self.fill])
    }
}

/// Serializes `g` plus `extra` sections into a `PDEC2` sectioned snapshot.
///
/// The graph always becomes the first section ([`SECTION_GRAPH`]); callers
/// must not pass that tag themselves. Payloads are laid out in argument
/// order, each 8-byte aligned.
pub fn save_snapshot(g: &CsrGraph, extra: &[SectionData], w: &mut impl Write) -> io::Result<()> {
    save_snapshot_sections(&graph_section(g), extra, w)
}

/// [`save_snapshot`] for either backend: a plain repr writes a
/// [`SECTION_GRAPH`] section, a compressed repr a
/// [`SECTION_GRAPH_COMPRESSED`] one — so the on-disk footprint follows the
/// in-memory choice and a reload round-trips the backend.
pub fn save_snapshot_repr(
    g: &GraphRepr,
    extra: &[SectionData],
    w: &mut impl Write,
) -> io::Result<()> {
    match g {
        GraphRepr::Plain(g) => save_snapshot(g, extra, w),
        GraphRepr::Compressed(c) => {
            let graph = SectionData::bytes(
                SECTION_GRAPH_COMPRESSED,
                SECTION_GRAPH_COMPRESSED_VERSION,
                encode_cgraph_body(c),
            );
            save_snapshot_sections(&graph, extra, w)
        }
    }
}

/// The one `PDEC2` writer: the table, then each payload at its 8-byte
/// aligned offset. Each payload must put exactly its declared length on
/// `w`, or the offsets of the sections after it would be wrong.
fn save_snapshot_sections(
    graph: &SectionData,
    extra: &[SectionData],
    w: &mut impl Write,
) -> io::Result<()> {
    assert!(
        extra
            .iter()
            .all(|s| s.tag != SECTION_GRAPH && s.tag != SECTION_GRAPH_COMPRESSED),
        "the graph section is written implicitly"
    );
    assert!(extra.len() < MAX_SECTIONS, "too many sections");
    let count = 1 + extra.len();
    let table_end = MAGIC_V2.len() + 8 + count * ENTRY_BYTES;

    let mut header = Vec::with_capacity(table_end);
    header.put_slice(MAGIC_V2);
    header.put_u32_le(SNAPSHOT_TABLE_VERSION);
    header.put_u32_le(count as u32);
    let mut cursor = table_end;
    let mut offsets = Vec::with_capacity(count);
    for s in std::iter::once(graph).chain(extra) {
        cursor = cursor.next_multiple_of(8);
        header.put_u32_le(s.tag);
        header.put_u32_le(s.version);
        header.put_u64_le(cursor as u64);
        header.put_u64_le(s.payload_len() as u64);
        offsets.push(cursor);
        cursor += s.payload_len();
    }
    let mut w = Blocks::new(w);
    w.put(&header)?;
    for (start, s) in offsets.into_iter().zip(std::iter::once(graph).chain(extra)) {
        for _ in w.bytes..start {
            w.put(&[0])?; // alignment padding
        }
        w.put_payload(s)?;
        assert_eq!(
            w.bytes,
            start + s.payload_len(),
            "section payload length differs from its table entry"
        );
    }
    w.finish()
}

/// One parsed entry of a snapshot's section table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionEntry {
    /// Four-byte tag.
    pub tag: u32,
    /// Payload layout version.
    pub version: u32,
    /// Absolute payload offset within the snapshot.
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
}

/// A parsed (but not yet decoded) binary snapshot: the section table over a
/// borrowed byte buffer. Works for both formats — a `PDEC1` file parses as
/// a single implicit graph section — so every reader in the workspace can
/// accept either.
#[derive(Clone, Debug)]
pub struct Snapshot<'a> {
    bytes: &'a [u8],
    entries: Vec<SectionEntry>,
}

impl<'a> Snapshot<'a> {
    /// Parses the section table (`PDEC2`) or synthesizes one (`PDEC1`).
    ///
    /// Structural guarantees on success: a graph section exists, every
    /// section's byte range lies within `bytes`, and the ranges reach the
    /// end of `bytes` exactly — so truncating a valid snapshot at any byte
    /// fails either here or in the graph decode, never silently.
    pub fn parse(bytes: &'a [u8]) -> io::Result<Snapshot<'a>> {
        if bytes.len() >= MAGIC.len() && &bytes[..MAGIC.len()] == MAGIC {
            let entries = vec![SectionEntry {
                tag: SECTION_GRAPH,
                version: SECTION_GRAPH_VERSION,
                offset: MAGIC.len(),
                len: bytes.len() - MAGIC.len(),
            }];
            return Ok(Snapshot { bytes, entries });
        }
        if bytes.len() < MAGIC_V2.len() || &bytes[..MAGIC_V2.len()] != MAGIC_V2 {
            return Err(data_err("bad magic"));
        }
        let mut buf = &bytes[MAGIC_V2.len()..];
        if buf.remaining() < 8 {
            return Err(data_err("truncated section table header"));
        }
        let table_version = buf.get_u32_le();
        if table_version != SNAPSHOT_TABLE_VERSION {
            return Err(data_err(format!(
                "unsupported snapshot table version {table_version}"
            )));
        }
        let count = buf.get_u32_le() as usize;
        if count == 0 || count > MAX_SECTIONS {
            return Err(data_err(format!("implausible section count {count}")));
        }
        let table_bytes = count
            .checked_mul(ENTRY_BYTES)
            .ok_or_else(|| data_err("section table size overflow"))?;
        if buf.remaining() < table_bytes {
            return Err(data_err("truncated section table"));
        }
        let table_end = MAGIC_V2.len() + 8 + table_bytes;
        let mut entries = Vec::with_capacity(count);
        let mut end = table_end;
        for _ in 0..count {
            let tag = buf.get_u32_le();
            let version = buf.get_u32_le();
            let offset = buf.get_u64_le();
            let len = buf.get_u64_le();
            if offset > usize::MAX as u64 || len > usize::MAX as u64 {
                return Err(data_err("section range overflow"));
            }
            let (offset, len) = (offset as usize, len as usize);
            let section_end = offset
                .checked_add(len)
                .ok_or_else(|| data_err("section range overflow"))?;
            if offset < table_end || section_end > bytes.len() {
                return Err(data_err("section range out of bounds"));
            }
            end = end.max(section_end);
            entries.push(SectionEntry {
                tag,
                version,
                offset,
                len,
            });
        }
        // Pin the file length: trailing bytes beyond the last section would
        // make some truncations of a longer file parse successfully.
        if end != bytes.len() {
            return Err(data_err("trailing bytes after last section"));
        }
        if !entries
            .iter()
            .any(|e| e.tag == SECTION_GRAPH || e.tag == SECTION_GRAPH_COMPRESSED)
        {
            return Err(data_err("snapshot has no graph section"));
        }
        Ok(Snapshot { bytes, entries })
    }

    /// The parsed section table, in file order.
    pub fn sections(&self) -> &[SectionEntry] {
        &self.entries
    }

    /// Payload and version of the first section with `tag`, if present.
    pub fn section(&self, tag: u32) -> Option<(u32, &'a [u8])> {
        self.entries
            .iter()
            .find(|e| e.tag == tag)
            .map(|e| (e.version, &self.bytes[e.offset..e.offset + e.len]))
    }

    fn graph_body(&self) -> io::Result<&'a [u8]> {
        let (version, body) = self
            .section(SECTION_GRAPH)
            .ok_or_else(|| data_err("snapshot has no plain graph section"))?;
        if version != SECTION_GRAPH_VERSION {
            return Err(data_err(format!(
                "unsupported graph section version {version}"
            )));
        }
        Ok(body)
    }

    fn cgraph_body(&self) -> io::Result<&'a [u8]> {
        let (version, body) = self
            .section(SECTION_GRAPH_COMPRESSED)
            .ok_or_else(|| data_err("snapshot has no compressed graph section"))?;
        if version != SECTION_GRAPH_COMPRESSED_VERSION {
            return Err(data_err(format!(
                "unsupported compressed graph section version {version}"
            )));
        }
        Ok(body)
    }

    /// Which [`Backend`] the snapshot's graph section was written with.
    pub fn graph_backend(&self) -> Backend {
        if self.section(SECTION_GRAPH).is_some() {
            Backend::Plain
        } else {
            Backend::Compressed
        }
    }

    /// Decodes the graph through the **fast path**: structural checks and a
    /// bulk copy, no per-edge rebuild (see the module docs' trust
    /// contract). This is the resident-daemon startup path. A compressed
    /// snapshot is decompressed (its records are validated first — the
    /// compressed layout has no unchecked fast path).
    pub fn graph(&self) -> io::Result<CsrGraph> {
        if self.section(SECTION_GRAPH).is_some() {
            decode_graph_fast(self.graph_body()?)
        } else {
            Ok(decode_cgraph(self.cgraph_body()?)?.to_csr())
        }
    }

    /// Decodes the graph through the **checked fallback path**: every edge
    /// re-runs through [`GraphBuilder`]. Use for files of unknown origin.
    pub fn graph_checked(&self) -> io::Result<CsrGraph> {
        if self.section(SECTION_GRAPH).is_some() {
            decode_graph_checked(self.graph_body()?)
        } else {
            let c = decode_cgraph(self.cgraph_body()?)?;
            let g = c.to_csr();
            g.check_invariants().map_err(data_err)?;
            Ok(g)
        }
    }

    /// Decodes the graph into the backend it was written with: a plain
    /// section loads through the fast path, a compressed section stays
    /// compressed (validated, never decompressed).
    pub fn graph_repr(&self) -> io::Result<GraphRepr> {
        if self.section(SECTION_GRAPH).is_some() {
            Ok(GraphRepr::Plain(decode_graph_fast(self.graph_body()?)?))
        } else {
            Ok(GraphRepr::Compressed(decode_cgraph(self.cgraph_body()?)?))
        }
    }

    /// [`Snapshot::graph_repr`] through the checked path: both backends
    /// additionally decompress/rebuild and verify the full CSR invariants
    /// (sorted, symmetric, loop-free).
    pub fn graph_repr_checked(&self) -> io::Result<GraphRepr> {
        if self.section(SECTION_GRAPH).is_some() {
            Ok(GraphRepr::Plain(decode_graph_checked(self.graph_body()?)?))
        } else {
            let c = decode_cgraph(self.cgraph_body()?)?;
            c.to_csr().check_invariants().map_err(data_err)?;
            Ok(GraphRepr::Compressed(c))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use std::io::BufReader;

    #[test]
    fn text_round_trip() {
        let g = generators::gnm(40, 100, 3);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&mut BufReader::new(&buf[..])).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn text_header_declares_isolated_tail_nodes() {
        let text = "# nodes 5\n0 1\n";
        let g = read_edge_list(&mut BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn text_rejects_garbage() {
        let text = "0 x\n";
        assert!(read_edge_list(&mut BufReader::new(text.as_bytes())).is_err());
        let text = "42\n";
        assert!(read_edge_list(&mut BufReader::new(text.as_bytes())).is_err());
    }

    /// The `InvalidData` message both readers give for `text`.
    fn both_reject(text: &[u8]) -> String {
        let plain = read_edge_list(&mut &text[..]).expect_err("read_edge_list accepted");
        let weighted = read_weighted_edge_list(&mut &text[..]).expect_err("weighted accepted");
        assert_eq!(plain.kind(), io::ErrorKind::InvalidData);
        assert_eq!(weighted.kind(), io::ErrorKind::InvalidData);
        plain.to_string()
    }

    #[test]
    fn text_grammar_blanks_comments_and_signs() {
        let text = b"# header \xff\xfe not UTF-8\r\n\
                     \t\x0b\x0c \r\n\
                     +0\t\t+1 extra columns \xc3\xa9\r\n\
                     #nodes 7\n\
                     \x0c1\x0b2\n\
                     # nodes 3 nodes junk 5 nodes 99999999999999999999999\n\
                     00002 00003";
        let g = read_edge_list(&mut &text[..]).unwrap();
        let expected = GraphBuilder::new(7)
            .add_edges([(0, 1), (1, 2), (2, 3)])
            .build();
        assert_eq!(g, expected);
        let w = read_weighted_edge_list(&mut &b"1 2 +5 x\r\n0 1\r\n"[..]).unwrap();
        assert_eq!(w, WeightedGraph::from_edges(3, &[(1, 2, 5), (0, 1, 1)]));
        // An empty input and one of comments only are graphs too.
        assert_eq!(read_edge_list(&mut &b""[..]).unwrap(), CsrGraph::empty(0));
        assert_eq!(
            read_edge_list(&mut &b"# nodes 4\n"[..]).unwrap(),
            CsrGraph::empty(4)
        );
    }

    #[test]
    fn text_errors_name_the_line() {
        let msg = both_reject(b"# c\n0 1\n\n2 x\n3 y\n");
        assert_eq!(msg, "line 4: invalid node id \"x\": \"2 x\"");
        let msg = both_reject(b"0 1\r\n7\r\n");
        assert_eq!(msg, "line 2: expected two node ids: \"7\"");
        for bad in [
            "-1 2",
            "1 -2",
            "+ 2",
            "++1 2",
            "1 2x",
            "1,2",
            "4294967296 0",
        ] {
            both_reject(bad.as_bytes());
        }
        let long = format!("1 {}\n", "9".repeat(100));
        assert!(both_reject(long.as_bytes()).ends_with("…"));
        assert!(read_weighted_edge_list(&mut &b"0 1 18446744073709551616\n"[..]).is_err());
        assert!(read_weighted_edge_list(&mut &b"0 1 -3\n"[..]).is_err());
    }

    #[test]
    fn non_utf8_is_skipped_only_inside_comments() {
        let g = read_edge_list(&mut &b"# \xff\xc3\n0 1\n"[..]).unwrap();
        assert_eq!(g.num_edges(), 1);
        let msg = both_reject(b"0 1\n0 1 \xff\n");
        assert!(msg.starts_with("line 2: not UTF-8"), "{msg}");
        both_reject(b"0\xff 1\n");
    }

    #[test]
    fn unicode_whitespace_outside_ascii_separates_nothing() {
        // U+00A0 NO-BREAK SPACE and U+2003 EM SPACE are not blanks.
        let msg = both_reject("0\u{a0}1\n".as_bytes());
        assert!(msg.starts_with("line 1: expected two node ids"), "{msg}");
        both_reject("0\u{2003}1 2\n".as_bytes());
        both_reject("\u{a0}0 1\n".as_bytes());
        // A comment that uses one to separate `nodes` from N declares nothing.
        let g = read_edge_list(&mut "# nodes\u{a0}9\n0 1\n".as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 2);
    }

    #[test]
    fn edge_list_rejects_id_4294967294() {
        let msg = read_edge_list(&mut &b"4294967294 0\n"[..])
            .unwrap_err()
            .to_string();
        assert_eq!(
            msg,
            "line 1: node id 4294967294 is out of range (ids stop below 4294967294): \"4294967294 0\""
        );
    }

    #[test]
    fn edge_list_rejects_id_4294967295() {
        let err = read_edge_list(&mut &b"0 1\n4294967295 0\n"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err
            .to_string()
            .starts_with("line 2: node id 4294967295 is out of range"));
    }

    #[test]
    fn edge_list_rejects_declared_4294967295_nodes() {
        let err = read_edge_list(&mut &b"# nodes 4294967295\n"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err
            .to_string()
            .starts_with("line 1: declared node count 4294967295"));
    }

    #[test]
    fn weighted_edge_list_rejects_id_4294967295() {
        let err = read_weighted_edge_list(&mut &b"4294967295 0\n"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err
            .to_string()
            .starts_with("line 1: node id 4294967295 is out of range"));
    }

    #[test]
    fn weighted_edge_list_rejects_id_4294967294() {
        let err = read_weighted_edge_list(&mut &b"4294967294 0 3\n"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err
            .to_string()
            .starts_with("line 1: node id 4294967294 is out of range"));
    }

    #[test]
    fn weighted_edge_list_rejects_declared_4294967295_nodes() {
        let err = read_weighted_edge_list(&mut &b"# nodes 4294967295\n0 1 2\n"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err
            .to_string()
            .starts_with("line 1: declared node count 4294967295"));
    }

    #[test]
    fn the_first_bad_line_wins_across_pieces_and_pools() {
        // Three pieces' worth of lines with bad lines in the second and
        // third piece: the earlier one is reported at any pool size.
        let mut text = Vec::new();
        for i in 0..100_000u32 {
            match i {
                40_000 => text.extend_from_slice(b"bad line\n"),
                90_000 => text.extend_from_slice(b"7\n"),
                _ => text.extend_from_slice(format!("{} {}\n", i % 977, i % 331).as_bytes()),
            }
        }
        assert!(text.len() > 2 * PARSE_PIECE);
        for threads in [1, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool construction cannot fail");
            let err = pool.install(|| read_edge_list(&mut &text[..])).unwrap_err();
            assert_eq!(
                err.to_string(),
                "line 40001: invalid node id \"bad\": \"bad line\"",
                "at {threads} threads"
            );
        }
    }

    #[test]
    fn weighted_text_round_trip() {
        let g = WeightedGraph::from_edges(5, &[(0, 1, 7), (1, 2, 1), (2, 3, 40), (0, 4, 2)]);
        let mut buf = Vec::new();
        write_weighted_edge_list(&g, &mut buf).unwrap();
        let g2 = read_weighted_edge_list(&mut BufReader::new(&buf[..])).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn weighted_text_defaults_and_min_collapse() {
        // Missing third column means weight 1; duplicates keep the min.
        let text = "# nodes 4\n0 1\n1 2 5\n2 1 3\n";
        let g = read_weighted_edge_list(&mut BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.dijkstra(0)[2], 4);
        let bad = "0 1 x\n";
        assert!(read_weighted_edge_list(&mut BufReader::new(bad.as_bytes())).is_err());
    }

    #[test]
    fn binary_round_trip() {
        let g = generators::mesh(13, 7);
        let mut buf = Vec::new();
        save_binary(&g, &mut buf).unwrap();
        let g2 = load_binary(&buf).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_corruption() {
        let g = generators::path(5);
        let mut buf = Vec::new();
        save_binary(&g, &mut buf).unwrap();
        assert!(load_binary(&buf[..buf.len() - 1]).is_err()); // truncated
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(load_binary(&bad).is_err()); // bad magic
    }

    #[test]
    fn binary_empty_graph() {
        let g = CsrGraph::empty(3);
        let mut buf = Vec::new();
        save_binary(&g, &mut buf).unwrap();
        assert_eq!(load_binary(&buf).unwrap(), g);
    }

    /// Every proper prefix of a valid snapshot is an `io::Error`, never a
    /// panic — the promise callers rely on when reading partial files.
    #[test]
    fn binary_every_truncation_is_an_error() {
        let g = generators::mesh(5, 4);
        let mut buf = Vec::new();
        save_binary(&g, &mut buf).unwrap();
        for cut in 0..buf.len() {
            let res = load_binary(&buf[..cut]);
            assert!(res.is_err(), "prefix of {cut} bytes must not parse");
        }
    }

    #[test]
    fn binary_hostile_header_sizes_error_without_overflow() {
        // Valid magic, then node/arc counts chosen so the naive size
        // computation (n + 1) * 8 + arcs * 4 would overflow usize.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // n
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // arcs
        assert!(load_binary(&buf).is_err());
    }

    const TAG_A: u32 = u32::from_le_bytes(*b"AAAA");
    const TAG_B: u32 = u32::from_le_bytes(*b"BBBB");

    #[test]
    fn snapshot_round_trips_with_sections() {
        let g = generators::mesh(6, 9);
        let extra = [
            SectionData::bytes(TAG_A, 3, vec![1, 2, 3, 4, 5]),
            SectionData::bytes(TAG_B, 1, Vec::new()), // empty payloads are legal
        ];
        let mut buf = Vec::new();
        save_snapshot(&g, &extra, &mut buf).unwrap();
        let snap = Snapshot::parse(&buf).unwrap();
        assert_eq!(snap.sections().len(), 3);
        assert_eq!(snap.sections()[0].tag, SECTION_GRAPH);
        assert_eq!(snap.section(TAG_A), Some((3, &[1u8, 2, 3, 4, 5][..])));
        assert_eq!(snap.section(TAG_B), Some((1, &[][..])));
        assert_eq!(snap.section(u32::from_le_bytes(*b"ZZZZ")), None);
        assert_eq!(snap.graph().unwrap(), g);
        assert_eq!(snap.graph_checked().unwrap(), g);
        // `load_binary` accepts PDEC2 and ignores unknown sections.
        assert_eq!(load_binary(&buf).unwrap(), g);
    }

    /// A writer that takes at most 7 bytes per call.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(7);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A `words` payload is its little-endian bytes after `head`, across
    /// block boundaries (words straddle them), whatever the writer accepts
    /// per call.
    #[test]
    fn word_payloads_stream_as_little_endian_bytes() {
        let words: Vec<u32> = (0..(BLOCK_BYTES / 4 + 3) as u32)
            .map(|i| i.wrapping_mul(0x9e37_79b9))
            .collect();
        let wide: Vec<usize> = (0..BLOCK_BYTES / 8 + 5)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        // An odd count of 2-byte words first, so the later runs straddle
        // block ends at every offset parity.
        let narrow: Vec<u16> = (0..(BLOCK_BYTES / 2 + 7) as u16)
            .map(|i| i.wrapping_mul(0x9e37))
            .collect();
        let mut payload = vec![1, 2, 3];
        for w in &narrow {
            payload.extend_from_slice(&w.to_le_bytes());
        }
        for w in &words {
            payload.extend_from_slice(&w.to_le_bytes());
        }
        for w in &wide {
            payload.extend_from_slice(&(*w as u64).to_le_bytes());
        }
        let tail = SectionData::bytes(TAG_B, 2, vec![5]);
        let streamed = [
            SectionData {
                tag: TAG_A,
                version: 1,
                head: vec![1, 2, 3],
                words: vec![Words::U16(&narrow), Words::U32(&words), Words::U64(&wide)],
            },
            tail.clone(),
        ];
        let g = generators::path(4);
        let mut inline = Vec::new();
        save_snapshot(
            &g,
            &[SectionData::bytes(TAG_A, 1, payload.clone()), tail],
            &mut inline,
        )
        .unwrap();
        let mut buf = Vec::new();
        save_snapshot(&g, &streamed, &mut buf).unwrap();
        assert_eq!(buf, inline);
        let mut trickle = Trickle(Vec::new());
        save_snapshot(&g, &streamed, &mut trickle).unwrap();
        assert_eq!(trickle.0, inline);
        let snap = Snapshot::parse(&buf).unwrap();
        assert_eq!(snap.section(TAG_A), Some((1, &payload[..])));
        assert_eq!(snap.section(TAG_B), Some((2, &[5u8][..])));

        // Every write but the last is one whole block, the first included.
        struct Calls(Vec<usize>);
        impl Write for Calls {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut calls = Calls(Vec::new());
        save_snapshot(&g, &streamed, &mut calls).unwrap();
        let (last, whole) = calls.0.split_last().unwrap();
        assert!(whole.len() >= 2 && whole.iter().all(|&n| n == BLOCK_BYTES));
        assert_eq!(whole.len() * BLOCK_BYTES + last, inline.len());
    }

    #[test]
    fn snapshot_without_extra_sections_round_trips() {
        let g = CsrGraph::empty(4);
        let mut buf = Vec::new();
        save_snapshot(&g, &[], &mut buf).unwrap();
        let snap = Snapshot::parse(&buf).unwrap();
        assert_eq!(snap.sections().len(), 1);
        assert_eq!(snap.graph().unwrap(), g);
    }

    #[test]
    fn snapshot_parses_pdec1_as_single_graph_section() {
        let g = generators::path(7);
        let mut buf = Vec::new();
        save_binary(&g, &mut buf).unwrap();
        let snap = Snapshot::parse(&buf).unwrap();
        assert_eq!(snap.sections().len(), 1);
        assert_eq!(snap.sections()[0].tag, SECTION_GRAPH);
        assert_eq!(snap.graph().unwrap(), g);
        assert_eq!(snap.graph_checked().unwrap(), g);
    }

    /// Every proper prefix of a sectioned snapshot fails to parse — the
    /// same promise [`binary_every_truncation_is_an_error`] makes for the
    /// base format.
    #[test]
    fn snapshot_every_truncation_is_an_error() {
        let g = generators::mesh(5, 4);
        let extra = [SectionData::bytes(TAG_A, 1, vec![9; 11])];
        let mut buf = Vec::new();
        save_snapshot(&g, &extra, &mut buf).unwrap();
        for cut in 0..buf.len() {
            let res = Snapshot::parse(&buf[..cut]);
            assert!(res.is_err(), "prefix of {cut} bytes must not parse");
        }
    }

    #[test]
    fn snapshot_rejects_hostile_tables() {
        let g = generators::path(3);
        let mut buf = Vec::new();
        save_snapshot(&g, &[], &mut buf).unwrap();

        // Unsupported table version.
        let mut bad = buf.clone();
        bad[6] = 0xFF;
        assert!(Snapshot::parse(&bad).is_err());

        // Zero sections.
        let mut bad = buf.clone();
        bad[10..14].copy_from_slice(&0u32.to_le_bytes());
        assert!(Snapshot::parse(&bad).is_err());

        // Implausible section count (also a table-size overflow probe).
        let mut bad = buf.clone();
        bad[10..14].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Snapshot::parse(&bad).is_err());

        // Section offset pointing into the table.
        let mut bad = buf.clone();
        bad[22..30].copy_from_slice(&0u64.to_le_bytes());
        assert!(Snapshot::parse(&bad).is_err());

        // Section length overrunning the file.
        let mut bad = buf.clone();
        bad[30..38].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Snapshot::parse(&bad).is_err());

        // Wrong graph tag → "no graph section".
        let mut bad = buf.clone();
        bad[14..18].copy_from_slice(b"XXXX");
        assert!(Snapshot::parse(&bad).is_err());

        // Unsupported graph section version parses but won't decode.
        let mut bad = buf.clone();
        bad[18..22].copy_from_slice(&7u32.to_le_bytes());
        let snap = Snapshot::parse(&bad).unwrap();
        assert!(snap.graph().is_err());
        assert!(snap.graph_checked().is_err());

        // Trailing garbage is rejected, so truncating a longer file back to
        // a "valid" snapshot plus junk cannot succeed.
        let mut bad = buf.clone();
        bad.push(0);
        assert!(Snapshot::parse(&bad).is_err());
    }

    #[test]
    fn compressed_snapshot_round_trips_both_read_paths() {
        let g = generators::preferential_attachment(400, 4, 11);
        let repr = GraphRepr::from_csr(g.clone(), Backend::Compressed);
        let extra = [SectionData::bytes(TAG_A, 2, vec![8, 7, 6])];
        let mut buf = Vec::new();
        save_snapshot_repr(&repr, &extra, &mut buf).unwrap();
        let snap = Snapshot::parse(&buf).unwrap();
        assert_eq!(snap.graph_backend(), Backend::Compressed);
        assert_eq!(snap.sections()[0].tag, SECTION_GRAPH_COMPRESSED);
        assert_eq!(snap.section(TAG_A), Some((2, &[8u8, 7, 6][..])));
        // CSR views agree with the original on both paths.
        assert_eq!(snap.graph().unwrap(), g);
        assert_eq!(snap.graph_checked().unwrap(), g);
        // The repr path preserves the backend without decompressing.
        let loaded = snap.graph_repr().unwrap();
        assert_eq!(loaded.backend(), Backend::Compressed);
        assert_eq!(loaded.to_csr().as_ref(), &g);
        assert_eq!(snap.graph_repr_checked().unwrap().to_csr().as_ref(), &g);
        // A plain snapshot reports the plain backend through the same API.
        let mut plain_buf = Vec::new();
        save_snapshot_repr(&GraphRepr::Plain(g.clone()), &[], &mut plain_buf).unwrap();
        let plain_snap = Snapshot::parse(&plain_buf).unwrap();
        assert_eq!(plain_snap.graph_backend(), Backend::Plain);
        assert_eq!(plain_snap.graph_repr().unwrap().backend(), Backend::Plain);
        // Compression shows up on disk too.
        assert!(buf.len() < plain_buf.len());
    }

    /// Every proper prefix of a compressed snapshot is an error on every
    /// read path — the same promise the plain section makes.
    #[test]
    fn compressed_snapshot_every_truncation_is_an_error() {
        let g = generators::mesh(6, 5);
        let repr = GraphRepr::from_csr(g, Backend::Compressed);
        let mut buf = Vec::new();
        save_snapshot_repr(&repr, &[], &mut buf).unwrap();
        for cut in 0..buf.len() {
            assert!(
                Snapshot::parse(&buf[..cut])
                    .and_then(|s| s.graph_repr())
                    .is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        // Corrupting the record bytes is caught by validation.
        let snap = Snapshot::parse(&buf).unwrap();
        let data_start = snap.sections()[0].offset + 24;
        let mut bad = buf.clone();
        bad[data_start] ^= 0x80; // grow a varint past its record
        let res = Snapshot::parse(&bad).and_then(|s| s.graph_repr());
        assert!(res.is_err());
    }

    #[test]
    fn snapshot_fast_path_rejects_corrupt_graph_bodies() {
        let g = generators::mesh(4, 4);
        let mut buf = Vec::new();
        save_snapshot(&g, &[], &mut buf).unwrap();
        let graph_off = Snapshot::parse(&buf).unwrap().sections()[0].offset;

        // Out-of-range target: last 4 bytes of the file are the final
        // target word.
        let mut bad = buf.clone();
        let end = bad.len();
        bad[end - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Snapshot::parse(&bad).unwrap().graph().is_err());
        assert!(Snapshot::parse(&bad).unwrap().graph_checked().is_err());

        // Non-monotone offsets: clobber the second offset word with a value
        // larger than the arc count.
        let mut bad = buf;
        let o1 = graph_off + 16 + 8;
        bad[o1..o1 + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Snapshot::parse(&bad).unwrap().graph().is_err());
        assert!(Snapshot::parse(&bad).unwrap().graph_checked().is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Arbitrary graphs from the workspace families (mirrors the root
        /// proptests' corpus, but kept local so the format property lives
        /// next to the format).
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
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// PDEC1 write → read is the identity on every graph.
            #[test]
            fn binary_snapshot_round_trips(g in any_graph()) {
                let mut buf = Vec::new();
                save_binary(&g, &mut buf).unwrap();
                let g2 = load_binary(&buf).unwrap();
                prop_assert_eq!(&g, &g2);
                // And the re-serialization is byte-identical (canonical form).
                let mut buf2 = Vec::new();
                save_binary(&g2, &mut buf2).unwrap();
                prop_assert_eq!(buf, buf2);
            }

            /// Truncating a valid snapshot anywhere yields an error.
            #[test]
            fn binary_truncation_errors(g in any_graph(), frac in 0.0f64..1.0) {
                let mut buf = Vec::new();
                save_binary(&g, &mut buf).unwrap();
                let cut = ((buf.len() as f64) * frac) as usize;
                prop_assume!(cut < buf.len());
                prop_assert!(load_binary(&buf[..cut]).is_err());
            }

            /// PDEC2 write → parse is the identity on graph and sections,
            /// through both read paths, for arbitrary section payloads.
            #[test]
            fn sectioned_snapshot_round_trips(
                g in any_graph(),
                payloads in proptest::collection::vec(
                    proptest::collection::vec(any::<u8>(), 0..64), 0..4),
            ) {
                let extra: Vec<SectionData> = payloads
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        let tag = u32::from_le_bytes([b'T', b'0' + i as u8, b'0', b'0']);
                        SectionData::bytes(tag, i as u32, p.clone())
                    })
                    .collect();
                let mut buf = Vec::new();
                save_snapshot(&g, &extra, &mut buf).unwrap();
                let snap = Snapshot::parse(&buf).unwrap();
                prop_assert_eq!(snap.sections().len(), 1 + extra.len());
                for s in &extra {
                    let (v, p) = snap.section(s.tag).unwrap();
                    prop_assert_eq!(v, s.version);
                    prop_assert_eq!(p, &s.head[..]);
                }
                let fast = snap.graph().unwrap();
                prop_assert_eq!(&fast, &g);
                prop_assert_eq!(&snap.graph_checked().unwrap(), &fast);
            }

            /// Truncating a sectioned snapshot anywhere fails to parse.
            #[test]
            fn sectioned_truncation_errors(g in any_graph(), frac in 0.0f64..1.0) {
                let extra = [SectionData::bytes(TAG_A, 1, vec![7; 9])];
                let mut buf = Vec::new();
                save_snapshot(&g, &extra, &mut buf).unwrap();
                let cut = ((buf.len() as f64) * frac) as usize;
                prop_assume!(cut < buf.len());
                prop_assert!(Snapshot::parse(&buf[..cut]).is_err());
            }
        }
    }
}
