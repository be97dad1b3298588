//! The flat parallel radix shuffle underlying [`crate::engine::MrEngine`],
//! plus the byte-accounting trait charged for every shuffled record.
//!
//! The seed-era engine routed pairs with a sequential pass into
//! `Vec<Vec<(K, V)>>` buckets — allocation-heavy (every bucket grows
//! independently) and serial exactly where the MR(M_G, M_L) model says the
//! shuffle should be parallel. This module replaces that with a classic
//! two-pass counting scatter:
//!
//! 1. **Count** — the input is split into a fixed number of chunks (the
//!    partition count, never the pool size); each chunk histograms its
//!    pairs per destination partition, producing a `chunks × partitions`
//!    count matrix.
//! 2. **Scatter** — an exclusive prefix sum over the matrix (partition-major,
//!    then chunk within partition) yields the exact offset of every
//!    `(chunk, partition)` cell; a second parallel pass moves each pair into
//!    its slot of **one** flat pre-sized buffer.
//!
//! The layout is deterministic *by construction*: a pair's slot depends only
//! on its input position and its key's partition, never on thread
//! interleaving, so partition contents are always in global input order and
//! the engine's outputs are byte-identical at any pool size.
//!
//! The scatter is the one place in the workspace crates that uses `unsafe`:
//! pairs are moved from the input allocation into disjoint slots of the flat
//! buffer through raw pointers (two safe alternatives — `Option` slots or
//! per-bucket vectors — reintroduce exactly the overhead this refactor
//! removes). The invariants are local and documented at each block; on a
//! panic in user code the un-drained pairs are dropped by
//! `PartitionDrain`'s `Drop` (never double-dropped).

use rayon::prelude::*;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::marker::PhantomData;
use std::mem::MaybeUninit;

/// Bytes a value contributes to a shuffled record — the quantity the
/// MR model's communication ledger charges.
///
/// The default implementation charges the value's in-memory footprint
/// (`size_of_val`), which is exact for inline types (integers, tuples of
/// integers, packed structs). **Types with heap payloads must override it**:
/// `size_of::<Vec<V>>()` is 24 bytes regardless of length, which is how the
/// seed engine under-counted every round shuffling `Vec` messages. The
/// provided `Vec<T>` implementation charges the header plus every element.
pub trait ShuffleSize {
    /// Bytes this value occupies on the (emulated) wire.
    fn shuffle_bytes(&self) -> usize {
        std::mem::size_of_val(self)
    }
}

macro_rules! inline_shuffle_size {
    ($($t:ty),* $(,)?) => { $(impl ShuffleSize for $t {})* };
}

inline_shuffle_size!(
    u8,
    u16,
    u32,
    u64,
    u128,
    usize,
    i8,
    i16,
    i32,
    i64,
    i128,
    isize,
    f32,
    f64,
    bool,
    char,
    ()
);

impl ShuffleSize for &str {
    fn shuffle_bytes(&self) -> usize {
        std::mem::size_of::<&str>() + self.len()
    }
}

impl ShuffleSize for String {
    fn shuffle_bytes(&self) -> usize {
        std::mem::size_of::<String>() + self.len()
    }
}

impl<A: ShuffleSize, B: ShuffleSize> ShuffleSize for (A, B) {
    fn shuffle_bytes(&self) -> usize {
        self.0.shuffle_bytes() + self.1.shuffle_bytes()
    }
}

impl<A: ShuffleSize, B: ShuffleSize, C: ShuffleSize> ShuffleSize for (A, B, C) {
    fn shuffle_bytes(&self) -> usize {
        self.0.shuffle_bytes() + self.1.shuffle_bytes() + self.2.shuffle_bytes()
    }
}

impl<T: ShuffleSize> ShuffleSize for Vec<T> {
    fn shuffle_bytes(&self) -> usize {
        std::mem::size_of::<Vec<T>>() + self.iter().map(T::shuffle_bytes).sum::<usize>()
    }
}

/// Total wire bytes of a slice of key-value pairs.
pub fn pairs_shuffle_bytes<K: ShuffleSize, V: ShuffleSize>(pairs: &[(K, V)]) -> usize {
    pairs
        .iter()
        .map(|(k, v)| k.shuffle_bytes() + v.shuffle_bytes())
        .sum()
}

/// Deterministic multiply-rotate hasher (FxHash-style). Partition layout
/// and the group-by index only need a hash that is *stable across runs and
/// platforms* — first-arrival order, not hash-iteration order, defines all
/// outputs — so the shuffle uses this instead of SipHash: routing is the
/// hottest loop of every round and the multiply is ~4× cheaper per key.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// State for hash maps keyed by an already-computed 64-bit hash.
type FxState = BuildHasherDefault<FxHasher>;

fn det_hash<K: Hash>(key: &K) -> u64 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// The partition a key is routed to. Public so tests and reference engines
/// can reproduce the exact layout.
pub fn partition_of<K: Hash>(key: &K, partitions: usize) -> usize {
    (det_hash(key) % partitions.max(1) as u64) as usize
}

/// Raw pointer wrapper that is `Send`/`Sync` when the pointee is `Send`.
///
/// Used to scatter into disjoint regions of one buffer from several workers;
/// every call site must guarantee disjointness itself.
struct SyncPtr<T>(*mut T);
unsafe impl<T: Send> Send for SyncPtr<T> {}
unsafe impl<T: Send> Sync for SyncPtr<T> {}

/// Runs `f(chunk_index, drain)` over fixed-size chunks of `input` in
/// parallel, handing each chunk's elements out **by value** without any
/// per-chunk allocation. Chunk boundaries depend only on `chunk_size`, so
/// results are pool-size independent.
pub(crate) fn consume_chunks<T, R, F>(input: Vec<T>, chunk_size: usize, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(usize, ChunkDrain<'_, T>) -> R + Sync,
{
    let n = input.len();
    let chunk_size = chunk_size.max(1);
    let num_chunks = n.div_ceil(chunk_size);
    let mut input = input;
    // SAFETY: length is set to zero *before* any element is read, so the
    // Vec's own Drop never touches the elements; ownership of each element
    // is transferred to exactly one ChunkDrain below (disjoint index
    // ranges), which either yields it or drops it.
    unsafe { input.set_len(0) };
    let src = SyncPtr(input.as_mut_ptr());
    let src = &src;
    let f = &f;
    (0..num_chunks)
        .into_par_iter()
        .map(move |c| {
            let start = c * chunk_size;
            let len = chunk_size.min(n - start);
            // SAFETY: [start, start + len) ranges are disjoint across chunks
            // and in-bounds of the original initialized length `n`.
            let drain = ChunkDrain {
                ptr: unsafe { src.0.add(start) },
                len,
                pos: 0,
                _borrow: PhantomData,
            };
            f(c, drain)
        })
        .collect()
}

/// By-value iterator over one chunk of a consumed vector; drops whatever the
/// caller does not take.
pub(crate) struct ChunkDrain<'a, T> {
    ptr: *mut T,
    len: usize,
    pos: usize,
    _borrow: PhantomData<&'a mut T>,
}

impl<T> Iterator for ChunkDrain<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        if self.pos == self.len {
            return None;
        }
        // SAFETY: pos < len, and each index is read exactly once (pos is
        // advanced past it immediately; Drop starts after pos).
        let v = unsafe { std::ptr::read(self.ptr.add(self.pos)) };
        self.pos += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.len - self.pos;
        (rest, Some(rest))
    }
}

impl<T> ExactSizeIterator for ChunkDrain<'_, T> {}

impl<T> Drop for ChunkDrain<'_, T> {
    fn drop(&mut self) {
        for i in self.pos..self.len {
            // SAFETY: indices ≥ pos were never read by `next`.
            unsafe { std::ptr::drop_in_place(self.ptr.add(i)) };
        }
    }
}

/// The result of the two-pass radix partitioning: every pair in one flat
/// buffer, partition `p` occupying `flat[starts[p]..starts[p + 1]]`, each
/// partition's pairs in global input order.
pub(crate) struct RadixShuffle<K, V> {
    flat: Vec<MaybeUninit<(K, V)>>,
    /// `partitions + 1` boundaries into `flat`.
    starts: Vec<usize>,
    /// How many slots of `flat` are initialized (all of them after a
    /// successful scatter; kept explicit for the Drop impl).
    initialized: bool,
}

/// Two-pass parallel radix partitioning of `input` into `partitions` buckets
/// laid out contiguously in one flat pre-sized buffer.
pub(crate) fn radix_partition<K, V>(input: Vec<(K, V)>, partitions: usize) -> RadixShuffle<K, V>
where
    K: Hash + Send + Sync,
    V: Send + Sync,
{
    let n = input.len();
    let parts = partitions.max(1);
    // Chunk count mirrors the partition count (a Spark-style map-task grid).
    // It is a function of the *configuration*, never the pool size, so the
    // scatter layout — and everything downstream — is pool-size independent.
    let chunk_size = n.div_ceil(parts).max(1);
    let num_chunks = n.div_ceil(chunk_size);

    // Pass 1 — count: per-chunk histograms of destination partitions. The
    // partition ids are cached so pass 2 does not hash twice.
    let mut part_ids: Vec<u32> = vec![0; n];
    let counts: Vec<Vec<u32>> = part_ids
        .par_chunks_mut(chunk_size)
        .zip(input.par_chunks(chunk_size))
        .map(|(ids, pairs)| {
            let mut histogram = vec![0u32; parts];
            for (slot, (k, _)) in ids.iter_mut().zip(pairs) {
                let p = partition_of(k, parts);
                *slot = p as u32;
                histogram[p] += 1;
            }
            histogram
        })
        .collect();

    // Exclusive prefix sum over the count matrix, partition-major: partition
    // `p` starts after all smaller partitions; within `p`, chunk `c` starts
    // after the cells of smaller chunks. The resulting layout is global
    // input order within each partition.
    let mut starts = vec![0usize; parts + 1];
    for p in 0..parts {
        let total: usize = counts.iter().map(|h| h[p] as usize).sum();
        starts[p + 1] = starts[p] + total;
    }
    let mut cell_offsets: Vec<Vec<usize>> = Vec::with_capacity(num_chunks);
    let mut cursor = starts[..parts].to_vec();
    for histogram in &counts {
        cell_offsets.push(cursor.clone());
        for (c, h) in cursor.iter_mut().zip(histogram) {
            *c += *h as usize;
        }
    }

    // Pass 2 — scatter: move every pair into its exact slot.
    let mut flat: Vec<MaybeUninit<(K, V)>> = Vec::with_capacity(n);
    // SAFETY: `MaybeUninit` is valid uninitialized; every slot is written
    // exactly once below before anything reads it.
    unsafe { flat.set_len(n) };
    let dst = SyncPtr(flat.as_mut_ptr());
    let dst = &dst;
    let part_ids = &part_ids;
    let cell_offsets = &cell_offsets;
    consume_chunks(input, chunk_size, move |c, drain| {
        let mut cursor = cell_offsets[c].clone();
        let base = c * chunk_size;
        for (i, pair) in drain.enumerate() {
            let p = part_ids[base + i] as usize;
            let slot = cursor[p];
            cursor[p] += 1;
            // SAFETY: the prefix sums above assign every (chunk, partition)
            // cell a disjoint range of `flat`, and `slot` walks that range
            // once; each flat index is therefore written by exactly one
            // worker, exactly once.
            unsafe { (*dst.0.add(slot)).write(pair) };
        }
    });

    RadixShuffle {
        flat,
        starts,
        initialized: true,
    }
}

impl<K: Send, V: Send> RadixShuffle<K, V> {
    /// Number of pairs shuffled.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.flat.len()
    }

    /// Runs `f(partition, drain)` over every partition in parallel, handing
    /// out the partition's pairs by value in global input order. Consumes
    /// the shuffle.
    pub(crate) fn reduce_partitions<R, F>(mut self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, PartitionDrain<'_, K, V>) -> R + Sync,
    {
        let starts = std::mem::take(&mut self.starts);
        let parts = starts.len().saturating_sub(1);
        // Ownership of every slot transfers to the PartitionDrains *now*:
        // if `f` panics in one partition, drains drop their own ranges and
        // partitions that never ran leak — but RadixShuffle::drop must not
        // touch slots a drain already consumed (that would double-drop).
        self.initialized = false;
        let base = SyncPtr(self.flat.as_mut_ptr());
        let base = &base;
        let starts_ref = &starts;
        let f = &f;
        let out = (0..parts)
            .into_par_iter()
            .map(move |p| {
                // SAFETY: [starts[p], starts[p + 1]) ranges tile `flat`
                // disjointly; every slot in them was initialized by the
                // scatter. Each PartitionDrain takes ownership of its range.
                let drain = PartitionDrain {
                    ptr: unsafe { base.0.add(starts_ref[p]) },
                    len: starts_ref[p + 1] - starts_ref[p],
                    pos: 0,
                    _borrow: PhantomData,
                };
                f(p, drain)
            })
            .collect();
        self.flat.clear();
        out
    }
}

impl<K, V> Drop for RadixShuffle<K, V> {
    fn drop(&mut self) {
        if self.initialized {
            for slot in &mut self.flat {
                // SAFETY: `initialized` is only true between a completed
                // scatter and reduce_partitions, when every slot holds a
                // live pair.
                unsafe { slot.assume_init_drop() };
            }
        }
    }
}

/// By-value iterator over one partition of a [`RadixShuffle`]; drops
/// whatever the reducer does not take.
pub(crate) struct PartitionDrain<'a, K, V> {
    ptr: *mut MaybeUninit<(K, V)>,
    len: usize,
    pos: usize,
    _borrow: PhantomData<&'a mut (K, V)>,
}

impl<K, V> Iterator for PartitionDrain<'_, K, V> {
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        if self.pos == self.len {
            return None;
        }
        // SAFETY: every slot in [0, len) was initialized by the scatter and
        // each is read exactly once.
        let v = unsafe { (*self.ptr.add(self.pos)).assume_init_read() };
        self.pos += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.len - self.pos;
        (rest, Some(rest))
    }
}

impl<K, V> ExactSizeIterator for PartitionDrain<'_, K, V> {}

impl<K, V> Drop for PartitionDrain<'_, K, V> {
    fn drop(&mut self) {
        for i in self.pos..self.len {
            // SAFETY: slots ≥ pos are initialized and unread.
            unsafe { (*self.ptr.add(i)).assume_init_drop() };
        }
    }
}

/// First-arrival-order key interner: assigns each distinct key a dense slot
/// in the order keys are first seen, independent of any hash iteration
/// order. This is what makes the engine's group emission order a *spec*
/// (input order) rather than an accident of `HashMap` internals.
pub(crate) struct KeyIndex<K> {
    keys: Vec<K>,
    /// Full 64-bit key hash → slot of the *first* key with that hash.
    by_hash: HashMap<u64, u32, FxState>,
    /// Slots whose key's hash collided with a different, earlier key —
    /// vanishingly rare with 64-bit hashes, but correctness must not
    /// depend on that; these are scanned linearly.
    overflow: Vec<u32>,
}

impl<K: Hash + Eq> KeyIndex<K> {
    pub(crate) fn new() -> Self {
        KeyIndex {
            keys: Vec::new(),
            by_hash: HashMap::default(),
            overflow: Vec::new(),
        }
    }

    /// Slot of `k`, interning it at the next slot on first arrival.
    pub(crate) fn intern(&mut self, k: K) -> usize {
        let h = det_hash(&k);
        match self.by_hash.entry(h) {
            std::collections::hash_map::Entry::Vacant(e) => {
                let i = self.keys.len();
                e.insert(i as u32);
                self.keys.push(k);
                i
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                let i = *e.get() as usize;
                if self.keys[i] == k {
                    return i;
                }
                for &j in &self.overflow {
                    if self.keys[j as usize] == k {
                        return j as usize;
                    }
                }
                let i = self.keys.len();
                self.overflow.push(i as u32);
                self.keys.push(k);
                i
            }
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The interned keys, in first-arrival order.
    pub(crate) fn into_keys(self) -> Vec<K> {
        self.keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn partition_layout_is_input_order() {
        let input: Vec<(u32, u32)> = (0..1000).map(|i| (i % 13, i)).collect();
        let parts = 5;
        let shuffle = radix_partition(input.clone(), parts);
        assert_eq!(shuffle.len(), 1000);
        let drained: Vec<Vec<(u32, u32)>> =
            shuffle.reduce_partitions(|_, pairs| pairs.collect::<Vec<_>>());
        assert_eq!(drained.len(), parts);
        for (p, pairs) in drained.iter().enumerate() {
            // Right partition, and values (== input positions) increasing.
            for w in pairs.windows(2) {
                assert!(w[0].1 < w[1].1, "partition {p} not in input order");
            }
            for (k, _) in pairs {
                assert_eq!(partition_of(k, parts), p);
            }
        }
        let total: usize = drained.iter().map(Vec::len).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn empty_and_single_pair() {
        let shuffle = radix_partition(Vec::<(u8, u8)>::new(), 4);
        let drained = shuffle.reduce_partitions(|_, pairs| pairs.count());
        assert_eq!(drained, vec![0, 0, 0, 0]);
        let shuffle = radix_partition(vec![(7u8, 9u8)], 4);
        let drained: Vec<Vec<(u8, u8)>> =
            shuffle.reduce_partitions(|_, pairs| pairs.collect::<Vec<_>>());
        assert_eq!(drained.concat(), vec![(7, 9)]);
    }

    #[test]
    fn partial_drain_drops_the_rest() {
        let live = Arc::new(AtomicUsize::new(0));
        struct Tracked(#[allow(dead_code)] u32, Arc<AtomicUsize>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.1.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let input: Vec<(u32, Tracked)> = (0..100)
            .map(|i| {
                live.fetch_add(1, Ordering::SeqCst);
                (i, Tracked(i, live.clone()))
            })
            .collect();
        let shuffle = radix_partition(input, 4);
        // Take only the first pair of each partition; the rest must drop.
        let _: Vec<Option<(u32, Tracked)>> = shuffle.reduce_partitions(|_, mut pairs| pairs.next());
        // The four taken pairs were dropped when the collected Vec dropped.
        assert_eq!(live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn reducer_panic_never_double_drops() {
        use std::sync::atomic::AtomicIsize;
        // Each payload increments `live` on creation and decrements on drop:
        // a double drop would push the counter negative. A panic in one
        // partition may *leak* the not-yet-run partitions (counter > 0) but
        // must never double-free (counter < 0).
        let live = Arc::new(AtomicIsize::new(0));
        struct Payload(#[allow(dead_code)] u32, Arc<AtomicIsize>);
        impl Drop for Payload {
            fn drop(&mut self) {
                self.1.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let input: Vec<(u32, Payload)> = (0..200)
            .map(|i| {
                live.fetch_add(1, Ordering::SeqCst);
                (i, Payload(i, live.clone()))
            })
            .collect();
        let shuffle = radix_partition(input, 4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shuffle.reduce_partitions(|p, pairs| {
                if p == 1 {
                    panic!("reducer bug");
                }
                pairs.count()
            })
        }));
        assert!(result.is_err(), "the panic must propagate");
        let remaining = live.load(Ordering::SeqCst);
        assert!(remaining >= 0, "double drop: live count {remaining}");
    }

    #[test]
    fn undrained_shuffle_drops_cleanly() {
        let input: Vec<(u32, String)> = (0..50).map(|i| (i, format!("v{i}"))).collect();
        drop(radix_partition(input, 3)); // Drop impl must free all 50 strings
    }

    #[test]
    fn key_index_first_arrival_order() {
        let mut idx = KeyIndex::new();
        assert_eq!(idx.intern("b"), 0);
        assert_eq!(idx.intern("a"), 1);
        assert_eq!(idx.intern("b"), 0);
        assert_eq!(idx.intern("c"), 2);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.into_keys(), vec!["b", "a", "c"]);
    }

    #[test]
    fn shuffle_size_defaults_and_heap_payloads() {
        assert_eq!(7u32.shuffle_bytes(), 4);
        assert_eq!((3u32, 4u64).shuffle_bytes(), 12);
        assert_eq!(().shuffle_bytes(), 0);
        let v: Vec<u64> = vec![0; 10];
        assert_eq!(v.shuffle_bytes(), std::mem::size_of::<Vec<u64>>() + 80);
        // The exact under-count the seed engine suffered: header only.
        assert!(v.shuffle_bytes() > std::mem::size_of::<Vec<u64>>());
        let pairs = vec![(1u32, vec![0u64; 4]), (2, vec![0u64; 6])];
        assert_eq!(
            pairs_shuffle_bytes(&pairs),
            2 * 4 + 2 * std::mem::size_of::<Vec<u64>>() + 10 * 8
        );
    }

    #[test]
    fn partitioning_is_partition_count_stable_as_multiset() {
        let input: Vec<(u64, u32)> = (0..500).map(|i| (i * 37 % 91, i as u32)).collect();
        let mut a: Vec<(u64, u32)> = radix_partition(input.clone(), 3)
            .reduce_partitions(|_, pairs| pairs.collect::<Vec<_>>())
            .concat();
        let mut b: Vec<(u64, u32)> = radix_partition(input, 8)
            .reduce_partitions(|_, pairs| pairs.collect::<Vec<_>>())
            .concat();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
