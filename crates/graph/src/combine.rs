//! Parallel edge-combine kernel: the contraction counterpart of the MR
//! crate's radix shuffle.
//!
//! Every contraction path in this workspace — the unweighted and weighted
//! quotient builds and [`crate::WeightedGraph::from_edges`]'s min-fold —
//! reduces to the same primitive: *collapse a large multiset of
//! `(key, value)` pairs to one entry per key under a fold* (dedup or min).
//! The seed-era code did this with a sequential `HashMap` pass per call
//! site; on power-law graphs that pass dominated `approximate_diameter`
//! wall-clock. (Plain edge lists take a cheaper route:
//! [`crate::GraphBuilder::build`] is a counting sort straight into the CSR
//! arrays.)
//!
//! This module replaces all of them with one deterministic parallel kernel,
//! mirroring the `pardec_mr::shuffle` design but living *below* the MR crate
//! in the dependency DAG so the graph layer can use it directly:
//!
//! 1. **Count** — the input is split into a fixed chunk grid (a pure
//!    function of the input length, never the pool size); each chunk
//!    histograms its pairs per destination bucket, where a bucket is a
//!    contiguous *range of keys* (`key >> shift`), not a hash class.
//! 2. **Prefix** — an exclusive prefix sum over the `chunks × buckets`
//!    count matrix (bucket-major, then chunk within bucket) assigns every
//!    cell a disjoint range of **one** flat pre-sized buffer.
//! 3. **Scatter** — a second parallel pass moves each pair into its slot;
//!    bucket contents end up in global input order by construction.
//! 4. **Sort + fold** — each bucket is sorted by key and folded in place
//!    (equal-key runs collapse left-to-right), in parallel across buckets;
//!    compacted buckets concatenate into the final buffer.
//!
//! Because buckets are key *ranges*, the concatenation is globally sorted by
//! key — the output is the canonical sorted-unique form of the input
//! multiset, a pure function of the input (independent of pool size, chunk
//! grid, and bucket count). Byte-identical outputs at any thread count fall
//! out for free, and sorted arcs are exactly what a CSR build needs: the
//! offsets array is read straight off the combined buffer.
//!
//! A min-fold may also run a **map-side combiner** ahead of the kernel, as
//! the MR shuffle's combiner does ahead of its shuffle. The quotient builds
//! emit one record per cut edge through `emit_precombined`, and their
//! records often collapse hundreds-fold. Each chunk of a fixed grid of
//! sources folds its records into a small open-addressing table, and the
//! kernel then sorts only the survivors. A chunk whose records hold more
//! distinct keys than its cache-sized table emits the rest of them raw, so
//! the data decides, chunk by chunk, how much is folded early. No option
//! selects any of this, and nothing depends on the pool size. The kernel's
//! output is the same as without the combiner, because a min-fold over
//! survivors equals one over every record. Only the ledger the kernel
//! records differs: it counts the survivors it sorted, and its `buckets`
//! describe that sort's grid.
//!
//! The only `unsafe` here is the cell scatter (disjoint slots of one flat
//! buffer written through raw pointers, the same invariant as the MR
//! shuffle's scatter) and the final `MaybeUninit` → initialized conversion;
//! all values are `Copy`, so panics can never double-drop.

use crate::NodeId;
use rayon::prelude::*;
use std::mem::MaybeUninit;

/// Inputs at or below this size skip the bucketed machinery and run one
/// sequential sort + fold — same canonical output, none of the grid
/// overhead (the seed-era builder used the same threshold for its
/// parallel sort). Also the cutoff for sequential CSR offset builds.
const SMALL: usize = 1 << 16;

/// Below this many *source indices*, [`par_emit`] skips the two-pass
/// count-then-fill machinery entirely and emits in one sequential pass into
/// a growable buffer. The two-pass layout exists to give parallel workers
/// disjoint pre-sized cells; on tiny inputs (the road benchmark's per-level
/// cut sets) the extra `count` sweep and chunk bookkeeping cost ~30% of the
/// whole kernel while the parallel pass never wins anything back.
const SEQ_EMIT: usize = 4096;

/// What one kernel invocation did — the contraction analogue of the MR
/// engine's shuffle ledger. `input_pairs / output_pairs` is the combine
/// ratio: how many parallel/duplicate records the fold collapsed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CombineStats {
    /// Records fed to the kernel (for a quotient build: undirected cut
    /// edges).
    pub input_pairs: usize,
    /// Distinct keys surviving the fold (for a quotient build: unique
    /// quotient edges).
    pub output_pairs: usize,
    /// Buckets of the scatter grid of the kernel's sort (1 for the
    /// sequential small-input path). After a pre-combine that sort sees
    /// only the survivors, so this figure describes its smaller grid.
    pub buckets: usize,
}

impl CombineStats {
    /// `input_pairs / output_pairs` — the multi-edge collapse factor.
    pub fn combine_ratio(&self) -> f64 {
        self.input_pairs as f64 / self.output_pairs.max(1) as f64
    }
}

impl pardec_obs::Observe for CombineStats {
    fn scope(&self) -> &'static str {
        "combine"
    }
    fn observe(&self, m: &mut pardec_obs::Metrics) {
        m.counter("input_pairs", self.input_pairs as u64);
        m.counter("output_pairs", self.output_pairs as u64);
        m.counter("buckets", self.buckets as u64);
        m.gauge("combine_ratio", self.combine_ratio());
    }
}

/// Packs an ordered pair of node ids into one `u64` key (`hi` in the upper
/// 32 bits). Keys compare like `(hi, lo)` tuples.
#[inline]
pub fn pack(hi: NodeId, lo: NodeId) -> u64 {
    ((hi as u64) << 32) | lo as u64
}

/// Inverse of [`pack`].
#[inline]
pub fn unpack(key: u64) -> (NodeId, NodeId) {
    ((key >> 32) as NodeId, key as NodeId)
}

/// The scatter grid size: a pure function of the input length (never the
/// pool size), so every layout downstream is thread-count independent.
fn grid(n: usize) -> usize {
    (n / 4096).clamp(1, 256).next_power_of_two()
}

/// A pre-sized buffer of uninitialized slots.
fn uninit_vec<T>(len: usize) -> Vec<MaybeUninit<T>> {
    let mut v = Vec::with_capacity(len);
    // SAFETY: `MaybeUninit` needs no initialization, so exposing `len`
    // uninitialized slots is sound.
    unsafe { v.set_len(len) };
    v
}

/// Converts a fully written `MaybeUninit` buffer into an initialized one.
///
/// # Safety
/// Every slot must have been written.
unsafe fn assume_init_vec<T>(v: Vec<MaybeUninit<T>>) -> Vec<T> {
    let mut v = std::mem::ManuallyDrop::new(v);
    // SAFETY: `MaybeUninit<T>` and `T` have identical layout, and the caller
    // guarantees every slot is initialized.
    unsafe { Vec::from_raw_parts(v.as_mut_ptr().cast(), v.len(), v.capacity()) }
}

/// Splits `buf` into consecutive mutable cells of the given lengths,
/// dropping whatever lies beyond their sum.
pub(crate) fn split_cells<'a, T>(mut buf: &'a mut [T], lens: &[usize]) -> Vec<&'a mut [T]> {
    let mut cells = Vec::with_capacity(lens.len());
    for &len in lens {
        let (cell, rest) = buf.split_at_mut(len);
        cells.push(cell);
        buf = rest;
    }
    cells
}

/// Raw pointer wrapper that is `Send`/`Sync` when the pointee is `Send`;
/// every call site must guarantee the disjointness of its writes.
pub(crate) struct SyncPtr<T>(pub(crate) *mut T);
// SAFETY: the one field is a pointer into a buffer whose `T: Send` values
// other workers write; sharing the pointer is sound because every call site
// writes each slot from exactly one worker (see the SAFETY comment there).
unsafe impl<T: Send> Send for SyncPtr<T> {}
// SAFETY: as above — shared access only ever writes disjoint slots.
unsafe impl<T: Send> Sync for SyncPtr<T> {}

/// Write cursor over one cell of a [`par_emit`] buffer (or, on the
/// sequential small-input path, over one growable output buffer).
pub struct Emit<'a, T> {
    inner: EmitInner<'a, T>,
}

enum EmitInner<'a, T> {
    /// Pre-sized disjoint cell of the parallel two-pass path.
    Cell {
        cell: &'a mut [MaybeUninit<T>],
        pos: usize,
    },
    /// Growable buffer of the single-pass sequential path.
    Grow(&'a mut Vec<T>),
}

impl<T: Copy> Emit<'_, T> {
    /// Appends one item. On the parallel path, panics (index out of bounds)
    /// if the caller emits more items than its `count` closure declared.
    #[inline]
    pub fn push(&mut self, item: T) {
        match &mut self.inner {
            EmitInner::Cell { cell, pos } => {
                cell[*pos].write(item);
                *pos += 1;
            }
            EmitInner::Grow(out) => out.push(item),
        }
    }
}

/// Two-pass parallel emission into one flat pre-sized buffer.
///
/// `count(i)` declares how many items source index `i` will emit; a prefix
/// sum over per-chunk totals pre-sizes the output, and `fill(i, emit)` then
/// writes exactly that many via [`Emit::push`]. The output order is source
/// order — a pure function of the input, independent of the pool size.
///
/// Inputs below a few thousand sources take a single-pass sequential route:
/// `fill` appends straight into one growable buffer and `count` is never
/// consulted. The output is identical (source order either way); only the
/// two-pass bookkeeping — and its declared-count check — is skipped.
///
/// # Panics
/// Panics if `fill` emits a different number of items than `count` declared
/// (parallel path only; the sequential path has no declaration to violate).
pub fn par_emit<T, C, F>(items: usize, count: C, fill: F) -> Vec<T>
where
    T: Copy + Send + Sync,
    C: Fn(usize) -> usize + Sync,
    F: Fn(usize, &mut Emit<'_, T>) + Sync,
{
    if items <= SEQ_EMIT {
        let mut out = Vec::new();
        for i in 0..items {
            fill(
                i,
                &mut Emit {
                    inner: EmitInner::Grow(&mut out),
                },
            );
        }
        return out;
    }
    let chunk_size = items.div_ceil(grid(items)).max(1);
    let num_chunks = items.div_ceil(chunk_size);
    let lens: Vec<usize> = (0..num_chunks)
        .into_par_iter()
        .map(|c| {
            let lo = c * chunk_size;
            let hi = (lo + chunk_size).min(items);
            (lo..hi).map(&count).sum()
        })
        .collect();
    let total: usize = lens.iter().sum();
    let mut flat = uninit_vec::<T>(total);
    let cells: Vec<(usize, &mut [MaybeUninit<T>])> =
        (0..num_chunks).zip(split_cells(&mut flat, &lens)).collect();
    cells.into_par_iter().for_each(|(c, cell)| {
        let expected = cell.len();
        let mut emit = Emit {
            inner: EmitInner::Cell { cell, pos: 0 },
        };
        let lo = c * chunk_size;
        let hi = (lo + chunk_size).min(items);
        for i in lo..hi {
            fill(i, &mut emit);
        }
        let written = match emit.inner {
            EmitInner::Cell { pos, .. } => pos,
            EmitInner::Grow(_) => unreachable!("parallel path always uses cells"),
        };
        assert_eq!(
            written, expected,
            "par_emit: fill wrote fewer items than count declared"
        );
    });
    // SAFETY: each cell asserted full coverage of its slots above.
    unsafe { assume_init_vec(flat) }
}

/// Concatenates `parts` into one buffer, copying them in parallel.
fn par_concat<T: Copy + Send + Sync>(parts: &[&[T]]) -> Vec<T> {
    let lens: Vec<usize> = parts.iter().map(|p| p.len()).collect();
    let mut out = uninit_vec::<T>(lens.iter().sum());
    let copies: Vec<(&[T], &mut [MaybeUninit<T>])> = parts
        .iter()
        .copied()
        .zip(split_cells(&mut out, &lens))
        .collect();
    copies.into_par_iter().for_each(|(src, dst)| {
        for (slot, item) in dst.iter_mut().zip(src) {
            slot.write(*item);
        }
    });
    // SAFETY: each destination cell has exactly its source part's length.
    unsafe { assume_init_vec(out) }
}

/// Sources per chunk of the fixed grid a quotient sweep walks (nodes, in
/// [`crate::quotient`]); each chunk pre-combines its own records.
pub const SWEEP_CHUNK: usize = 8192;

/// Distinct keys a pre-combine table holds, in at most twice as many
/// slots: 256 KiB of `u128` records, which stay in a core's L2 cache. A
/// chunk with more keys emits the rest of its records raw.
const TABLE_KEYS: usize = 1 << 13;

/// A record whose key is a [`pack`]ed pair: the key itself (`u64`), or the
/// key in the high 64 bits over a `u64` weight (`u128`). Ordering records
/// orders them by key, and for equal keys by weight, so the min-fold is
/// `Ord::min`.
pub(crate) trait PairRecord: Copy + Ord + Send + Sync {
    /// The empty slot of a pre-combine table. Its key, `u64::MAX`, is no
    /// pair's: a normalized pair has `hi < lo ≤ NodeId::MAX`.
    const EMPTY: Self;
    /// The record of pair `key` at `weight` (a `u64` record drops it).
    fn new(key: u64, weight: u64) -> Self;
    /// The packed pair.
    fn key(self) -> u64;
    /// The same record for the mirrored pair `(lo, hi)`.
    fn mirrored(self) -> Self;
}

impl PairRecord for u64 {
    const EMPTY: u64 = u64::MAX;
    #[inline]
    fn new(key: u64, _weight: u64) -> u64 {
        key
    }
    #[inline]
    fn key(self) -> u64 {
        self
    }
    #[inline]
    fn mirrored(self) -> u64 {
        self.rotate_left(32)
    }
}

impl PairRecord for u128 {
    const EMPTY: u128 = u128::MAX;
    #[inline]
    fn new(key: u64, weight: u64) -> u128 {
        ((key as u128) << 64) | weight as u128
    }
    #[inline]
    fn key(self) -> u64 {
        (self >> 64) as u64
    }
    #[inline]
    fn mirrored(self) -> u128 {
        Self::new(self.key().rotate_left(32), self as u64)
    }
}

/// Open-addressing table keeping the smallest record per key: one chunk's
/// map-side combiner. Linear probing over a power-of-two slot array kept
/// at most half full, for at most [`TABLE_KEYS`] keys.
struct MinTable<R> {
    slots: Vec<R>,
    len: usize,
    /// `64 - log2(slots)`: the multiplicative hash keeps the top bits.
    shift: u32,
}

impl<R: PairRecord> MinTable<R> {
    fn with_bits(bits: u32) -> Self {
        MinTable {
            slots: vec![R::EMPTY; 1 << bits],
            len: 0,
            shift: 64 - bits,
        }
    }

    /// Folds `r` into its key's slot. Returns `false`, holding nothing new,
    /// when `r`'s key is new and the table already holds [`TABLE_KEYS`].
    #[inline]
    fn insert(&mut self, r: R) -> bool {
        let key = r.key();
        let mask = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            let slot = &mut self.slots[i];
            let k = slot.key();
            if k == key {
                *slot = (*slot).min(r);
                return true;
            }
            if k == u64::MAX {
                if self.len == TABLE_KEYS {
                    return false;
                }
                *slot = r;
                self.len += 1;
                if 2 * self.len > self.slots.len() {
                    self.grow();
                }
                return true;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let bigger = Self::with_bits(65 - self.shift);
        for r in std::mem::replace(self, bigger).slots {
            if r != R::EMPTY {
                self.insert(r);
            }
        }
    }

    fn into_records(self) -> Vec<R> {
        self.slots.into_iter().filter(|&r| r != R::EMPTY).collect()
    }
}

/// One chunk's map-side combiner: its records go into a [`MinTable`]
/// until the table is full, then raw into a buffer.
pub(crate) struct Sink<R> {
    table: Option<MinTable<R>>,
    raw: Vec<R>,
    pushed: usize,
}

impl<R: PairRecord> Sink<R> {
    /// Appends one record.
    #[inline]
    pub(crate) fn push(&mut self, r: R) {
        self.pushed += 1;
        match &mut self.table {
            Some(table) => {
                if !table.insert(r) {
                    // Too many keys: the rest of the chunk goes raw.
                    let table = self.table.take().expect("matched `Some`");
                    self.raw = table.into_records();
                    self.raw.push(r);
                }
            }
            None => self.raw.push(r),
        }
    }

    /// The chunk's records and the number pushed.
    fn finish(self) -> (Vec<R>, usize) {
        let records = match self.table {
            Some(table) => table.into_records(),
            None => self.raw,
        };
        (records, self.pushed)
    }
}

/// Emission with a map-side combiner, for records headed to a min-fold:
/// `fill(i, sink)` pushes source `i`'s records, and equal keys may leave
/// as one record holding their minimum. Returns the records and how many
/// were pushed.
///
/// The sources are cut into a fixed grid of [`SWEEP_CHUNK`]-source chunks
/// (a function of `items` alone). Each chunk, in parallel, folds its
/// records into a [`MinTable`] of its own; a chunk whose table fills up
/// emits the rest of its records raw. A min-fold of the output equals one
/// of every record pushed.
pub(crate) fn emit_precombined<R: PairRecord>(
    items: usize,
    fill: impl Fn(usize, &mut Sink<R>) + Sync,
) -> (Vec<R>, usize) {
    let chunks: Vec<(Vec<R>, usize)> = (0..items.div_ceil(SWEEP_CHUNK))
        .into_par_iter()
        .map(|c| {
            let mut sink = Sink {
                table: Some(MinTable::with_bits(8)),
                raw: Vec::new(),
                pushed: 0,
            };
            for i in c * SWEEP_CHUNK..((c + 1) * SWEEP_CHUNK).min(items) {
                fill(i, &mut sink);
            }
            sink.finish()
        })
        .collect();
    let pushed = chunks.iter().map(|(_, p)| p).sum();
    let parts: Vec<&[R]> = chunks.iter().map(|(r, _)| r.as_slice()).collect();
    (par_concat(&parts), pushed)
}

/// Collapses equal-key runs of a key-sorted slice in place, left-to-right,
/// returning the compacted length.
fn fold_runs<T, K, F>(items: &mut [T], key_of: &K, fold: &F) -> usize
where
    T: Copy,
    K: Fn(&T) -> u64,
    F: Fn(T, T) -> T,
{
    let mut w = 0usize;
    for r in 0..items.len() {
        let item = items[r];
        if w > 0 && key_of(&items[w - 1]) == key_of(&item) {
            items[w - 1] = fold(items[w - 1], item);
        } else {
            items[w] = item;
            w += 1;
        }
    }
    w
}

/// The kernel: collapses `items` to one entry per key under `fold`,
/// returning them **sorted by key** together with the run's stats.
///
/// `key_space` is an exclusive upper bound on every key (it sizes the
/// bucket ranges). `fold(acc, next)` must be commutative and associative —
/// dedup and min, the folds every contraction path uses, both are — so
/// that the result is a pure function of the input *multiset*: the bucket
/// sort is unstable and equal-key items reach the fold in a deterministic
/// but not input order. Outputs are byte-identical at any pool size either
/// way (chunk grid, bucket ranges, and sort depend only on the input).
pub fn combine_by_key<T, K, F>(
    mut items: Vec<T>,
    key_space: u64,
    key_of: K,
    fold: F,
) -> (Vec<T>, CombineStats)
where
    T: Copy + Send + Sync,
    K: Fn(&T) -> u64 + Sync,
    F: Fn(T, T) -> T + Sync,
{
    let input_pairs = items.len();
    if input_pairs <= SMALL || key_space == 0 {
        items.sort_unstable_by_key(&key_of);
        let len = fold_runs(&mut items, &key_of, &fold);
        items.truncate(len);
        let stats = CombineStats {
            input_pairs,
            output_pairs: items.len(),
            buckets: 1,
        };
        pardec_obs::record(&stats);
        return (items, stats);
    }

    // Buckets are contiguous key ranges: the smallest shift that squeezes
    // the key space into at most `grid(n)` ranges. Range buckets (unlike
    // hash buckets) make the per-bucket sorted outputs concatenate into a
    // globally key-sorted buffer.
    let max_key = key_space - 1;
    let want = grid(input_pairs) as u64;
    let mut shift = 0u32;
    while (max_key >> shift) >= want {
        shift += 1;
    }
    let buckets = ((max_key >> shift) + 1) as usize;
    let chunk_size = input_pairs.div_ceil(grid(input_pairs)).max(1);

    // Pass 1 — count: per-chunk histograms of destination buckets.
    let count_span = pardec_obs::span!("combine.count", pairs = input_pairs, buckets = buckets);
    let counts: Vec<Vec<u32>> = items
        .par_chunks(chunk_size)
        .map(|chunk| {
            let mut histogram = vec![0u32; buckets];
            for item in chunk {
                histogram[(key_of(item) >> shift) as usize] += 1;
            }
            histogram
        })
        .collect();
    drop(count_span);

    // Exclusive prefix sums, bucket-major: bucket `b` starts after all
    // smaller buckets; within `b`, chunk `c` starts after smaller chunks.
    let prefix_span = pardec_obs::span!("combine.prefix", buckets = buckets);
    let mut starts = vec![0usize; buckets + 1];
    for b in 0..buckets {
        let total: usize = counts.iter().map(|h| h[b] as usize).sum();
        starts[b + 1] = starts[b] + total;
    }
    let mut cell_offsets: Vec<Vec<usize>> = Vec::with_capacity(counts.len());
    let mut cursor = starts[..buckets].to_vec();
    for histogram in &counts {
        cell_offsets.push(cursor.clone());
        for (c, h) in cursor.iter_mut().zip(histogram) {
            *c += *h as usize;
        }
    }
    drop(prefix_span);

    // Pass 2 — scatter into one flat pre-sized buffer.
    let scatter_span = pardec_obs::span!("combine.scatter", pairs = input_pairs);
    let mut flat = uninit_vec::<T>(input_pairs);
    let dst = SyncPtr(flat.as_mut_ptr());
    let dst = &dst;
    let key_of_ref = &key_of;
    cell_offsets
        .par_iter_mut()
        .zip(items.par_chunks(chunk_size))
        .for_each(move |(cursor, chunk)| {
            for &item in chunk {
                let b = (key_of_ref(&item) >> shift) as usize;
                let slot = cursor[b];
                cursor[b] += 1;
                // SAFETY: the prefix sums assign every (chunk, bucket) cell
                // a disjoint range of `flat`, and `slot` walks that range
                // once; each index is written by exactly one worker, once.
                unsafe { (*dst.0.add(slot)).write(item) };
            }
        });
    drop(items);
    drop(scatter_span);
    // SAFETY: the histograms cover every input item, so the cell ranges
    // tile `flat` exactly and every slot was written.
    let mut flat: Vec<T> = unsafe { assume_init_vec(flat) };

    let mut fold_span = pardec_obs::span!("combine.fold", buckets = buckets);
    // Pass 3 — per-bucket sort + fold, in parallel across buckets. Bucket
    // contents are in global input order here, and the sort is
    // deterministic, so the fold order (hence the output) is a pure
    // function of the input even for non-commutative folds.
    let lens: Vec<usize> = (1..=buckets).map(|b| starts[b] - starts[b - 1]).collect();
    let out_lens: Vec<usize> = split_cells(&mut flat, &lens)
        .into_par_iter()
        .map(|bucket| {
            bucket.sort_unstable_by_key(key_of_ref);
            fold_runs(bucket, key_of_ref, &fold)
        })
        .collect();

    // Pass 4 — compact the folded bucket prefixes into the final buffer.
    let prefixes: Vec<&[T]> = (0..buckets)
        .map(|b| &flat[starts[b]..starts[b] + out_lens[b]])
        .collect();
    let out = par_concat(&prefixes);
    let total = out.len();
    fold_span.field("output_pairs", total);
    drop(fold_span);

    let stats = CombineStats {
        input_pairs,
        output_pairs: total,
        buckets,
    };
    pardec_obs::record(&stats);
    (out, stats)
}

/// Combines normalized half-records (key = [`pack`]`(a, b)` with `a ≤ b`
/// node/cluster ids, one record per undirected edge occurrence) and then
/// symmetrizes the combined entries into the full sorted arc set.
///
/// This is the cheap route from an edge multiset to CSR input: the
/// expensive combine runs over `m` half-records instead of `2m` arcs, and
/// only the (much smaller) unique entry set is mirrored and re-sorted.
/// Self-loop keys (`a == b`) must already be filtered out. The returned
/// stats describe the *first* combine: undirected records in, unique
/// undirected edges out.
pub(crate) fn combine_symmetrize<T, K, R, F>(
    n: usize,
    half: Vec<T>,
    key_of: K,
    rekey: R,
    fold: F,
) -> (Vec<T>, CombineStats)
where
    T: Copy + Send + Sync,
    K: Fn(&T) -> u64 + Sync,
    R: Fn(T) -> T + Sync,
    F: Fn(T, T) -> T + Sync,
{
    let key_space = (n as u64) << 32;
    let (entries, stats) = combine_by_key(half, key_space, &key_of, fold);
    // Mirror each unique entry; the second combine never folds (all keys
    // distinct) — it only key-sorts the doubled set.
    let mirrored = par_emit(
        entries.len(),
        |_| 2,
        |i, emit| {
            emit.push(entries[i]);
            emit.push(rekey(entries[i]));
        },
    );
    let (arcs, _) = combine_by_key(mirrored, key_space, &key_of, |first, _dup| first);
    (arcs, stats)
}

/// Reads CSR offsets and targets straight off a key-sorted combined buffer
/// (source id = upper 32 bits of the key). Shared by the unweighted and
/// weighted quotient builds.
pub(crate) fn csr_parts_from_sorted<T>(
    n: usize,
    items: &[T],
    key_of: impl Fn(&T) -> u64 + Sync,
) -> (Vec<usize>, Vec<NodeId>)
where
    T: Send + Sync,
{
    let offsets: Vec<usize> = if items.len() <= SMALL || n <= SMALL {
        let mut offsets = vec![0usize; n + 1];
        for item in items {
            offsets[(key_of(item) >> 32) as usize + 1] += 1;
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        offsets
    } else {
        // The buffer is sorted by key, so node `u`'s adjacency starts at
        // the first key with source ≥ u: a binary search per boundary,
        // parallel over the n + 1 boundaries.
        (0..n + 1)
            .into_par_iter()
            .map(|u| items.partition_point(|item| (key_of(item) >> 32) < u as u64))
            .collect()
    };
    let targets: Vec<NodeId> = if items.len() <= SMALL {
        items.iter().map(|item| key_of(item) as NodeId).collect()
    } else {
        items
            .par_iter()
            .map(|item| key_of(item) as NodeId)
            .collect()
    };
    (offsets, targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Sequential oracle: sort + fold, the canonical form by definition.
    fn oracle<T: Copy>(
        mut items: Vec<T>,
        key_of: impl Fn(&T) -> u64,
        fold: impl Fn(T, T) -> T,
    ) -> Vec<T> {
        items.sort_by_key(&key_of);
        let len = fold_runs(&mut items, &key_of, &fold);
        items.truncate(len);
        items
    }

    fn random_pairs(n: usize, key_space: u64, seed: u64) -> Vec<(u64, u64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (rng.gen::<u64>() % key_space, rng.gen::<u64>() % 1000))
            .collect()
    }

    #[test]
    fn min_combine_matches_oracle_across_sizes() {
        // Straddle the sequential cutoff to exercise both paths.
        for n in [0usize, 1, 100, SMALL, SMALL + 1, 4 * SMALL] {
            let key_space = 1u64 << 40;
            let input = random_pairs(n, key_space, 7);
            let expected = oracle(
                input.clone(),
                |p| p.0,
                |a, b: (u64, u64)| (a.0, a.1.min(b.1)),
            );
            let (got, stats) =
                combine_by_key(input, key_space, |p| p.0, |a, b| (a.0, a.1.min(b.1)));
            assert_eq!(got, expected, "diverged at n = {n}");
            assert_eq!(stats.input_pairs, n);
            assert_eq!(stats.output_pairs, got.len());
        }
    }

    #[test]
    fn sum_combine_with_heavy_skew() {
        // All keys in one bucket-range corner: the degenerate layout the
        // power-law quotient produces.
        let n = 3 * SMALL;
        let input: Vec<(u64, u64)> = (0..n as u64).map(|i| (i % 17, 1)).collect();
        let (got, stats) = combine_by_key(input, 1 << 40, |p| p.0, |a, b| (a.0, a.1 + b.1));
        assert_eq!(got.len(), 17);
        let total: u64 = got.iter().map(|p| p.1).sum();
        assert_eq!(total, n as u64);
        assert_eq!(stats.output_pairs, 17);
        assert!((stats.combine_ratio() - n as f64 / 17.0).abs() < 1e-9);
    }

    #[test]
    fn output_is_key_sorted_and_unique() {
        let input = random_pairs(2 * SMALL, 1000, 3);
        let (got, _) = combine_by_key(input, 1000, |p| p.0, |a, _| a);
        for w in got.windows(2) {
            assert!(w[0].0 < w[1].0, "output not strictly key-sorted");
        }
    }

    #[test]
    fn dedup_fold_keeps_one_of_identical_records() {
        // A dedup fold over records whose payload IS the key (as in the
        // unweighted quotient's): any survivor is the right one; both size
        // regimes must agree with the oracle exactly.
        for n in [500usize, 2 * SMALL] {
            let input: Vec<(u64, u64)> = (0..n as u64).map(|i| (i % 97, i % 97)).collect();
            let (got, _) = combine_by_key(input, 97, |p| p.0, |first, _| first);
            let expected: Vec<(u64, u64)> = (0..97.min(n as u64)).map(|k| (k, k)).collect();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn par_emit_source_order_and_counts() {
        // Each source i emits i % 3 copies of itself; straddle the
        // sequential single-pass cutoff so both routes are exercised.
        for items in [100usize, SEQ_EMIT, SEQ_EMIT + 1, 10_000] {
            let out = par_emit(
                items,
                |i| i % 3,
                |i, e| {
                    for _ in 0..i % 3 {
                        e.push(i as u64);
                    }
                },
            );
            let expected: Vec<u64> = (0..items)
                .flat_map(|i| std::iter::repeat_n(i as u64, i % 3))
                .collect();
            assert_eq!(out, expected, "diverged at items = {items}");
        }
    }

    #[test]
    #[should_panic(expected = "fewer items than count declared")]
    fn par_emit_underfill_panics() {
        // Must be above the sequential cutoff: the single-pass route has no
        // declared count to violate.
        let _ = par_emit(2 * SEQ_EMIT, |_| 2, |i, e| e.push(i as u64));
    }

    #[test]
    fn precombine_min_folds_like_the_raw_records() {
        let sources = 3 * SWEEP_CHUNK + 5;
        let check = |name: &str, keys: &(dyn Fn(usize, usize) -> u64 + Sync), raw: bool| {
            let record = |i: usize, j: usize| u128::new(keys(i, j), ((i + j) % 7) as u64);
            let (records, pushed) = emit_precombined(sources, |i, sink| {
                for j in 0..3 {
                    sink.push(record(i, j));
                }
            });
            assert_eq!(pushed, 3 * sources, "{name}");
            assert_eq!(records.len() == pushed, raw, "{name}: raw records");
            let all: Vec<u128> = (0..sources)
                .flat_map(|i| (0..3).map(move |j| record(i, j)))
                .collect();
            let fold = |items: Vec<u128>| oracle(items, |r| r.key(), u128::min);
            assert_eq!(fold(records), fold(all), "{name}");
        };
        // A few keys: every chunk's table holds them all.
        check("collapsing", &|i, j| ((i * 3 + j) % 50) as u64, false);
        // Distinct keys: every chunk fills its table and spills the rest.
        check("distinct", &|i, j| (i * 3 + j) as u64, true);
        // The first chunk collapses; the later ones fill their tables and
        // spill the rest raw.
        check(
            "mixed",
            &|i, j| match i < SWEEP_CHUNK {
                true => (i % 10) as u64,
                false => (i * 3 + j) as u64,
            },
            false,
        );
    }

    #[test]
    fn min_table_keeps_the_smallest_record_per_key_up_to_its_cap() {
        let mut table = MinTable::<u128>::with_bits(8);
        for k in 0..TABLE_KEYS as u64 {
            assert!(table.insert(u128::new(k, 9)));
            assert!(table.insert(u128::new(k, k % 5)));
        }
        assert!(!table.insert(u128::new(TABLE_KEYS as u64, 0)), "full");
        assert!(table.insert(u128::new(3, 0)), "a known key still folds");
        let mut records = table.into_records();
        records.sort_unstable();
        let expected: Vec<u128> = (0..TABLE_KEYS as u64)
            .map(|k| u128::new(k, if k == 3 { 0 } else { k % 5 }))
            .collect();
        assert_eq!(records, expected);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for (a, b) in [(0, 0), (7, 3), (NodeId::MAX - 1, 12), (1, NodeId::MAX)] {
            assert_eq!(unpack(pack(a, b)), (a, b));
        }
        assert!(pack(1, 0) > pack(0, NodeId::MAX));
    }

    #[test]
    fn pool_size_invariance() {
        let input = random_pairs(4 * SMALL, 1 << 36, 11);
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool construction cannot fail");
            pool.install(|| {
                combine_by_key(input.clone(), 1 << 36, |p| p.0, |a, b| (a.0, a.1.min(b.1))).0
            })
        };
        assert_eq!(run(1), run(4));
    }
}
