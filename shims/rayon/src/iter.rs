//! Parallel iterators over the work-stealing pool.
//!
//! # Execution model
//!
//! Every parallel iterator bottoms out in a [`Producer`]: an exactly-sized
//! source that can be split at an index and drained sequentially. Consuming
//! operations reduce the iterator with a `(identity, fold, merge)` triple:
//! the producer is split recursively down to leaves, each leaf is folded
//! sequentially (seeded with `identity()`), and sibling partial results are
//! combined with `merge(left, right)` — always in left-to-right order.
//!
//! # Determinism
//!
//! The split tree is a pure function of the input **length**: leaves hold at
//! most `ceil(len / SPLIT_FANOUT)` items and splitting always halves at
//! `len / 2`. The worker count is never consulted, so the merge tree — and
//! therefore the result, including floating-point reductions — is
//! bit-identical whether the pool has 1 thread or 64. Threads only change
//! *where* leaves execute, never *what* is combined with what.
//!
//! Adapter closures are shared by reference across workers (hence the
//! rayon-matching `Fn + Sync` bounds), never cloned.

use crate::pool::join;

/// Upper bound on the number of leaves a single reduction is split into.
/// Fixed (never derived from the worker count) to keep the merge tree — and
/// with it every reduction result — independent of the pool size.
const SPLIT_FANOUT: usize = 256;

/// Lower bound on items per leaf for mid-sized inputs, so BFS frontiers of
/// a few hundred nodes don't degenerate into one `join` per node. Also a
/// fixed constant — adaptive (steal-driven) splitting would be faster but
/// break the determinism guarantee.
const MIN_LEAF: usize = 16;

/// Inputs at or below this length split all the way down to single items:
/// tiny fan-outs are exactly where each item tends to be a whole graph
/// traversal (BFS per iFUB fringe node, Dijkstra per cluster center), so
/// serializing them would forfeit the dominant parallelism win. The rule
/// stays a pure function of the length, preserving determinism.
const SMALL_INPUT: usize = 2 * MIN_LEAF;

fn leaf_size(len: usize) -> usize {
    if len <= SMALL_INPUT {
        1
    } else {
        len.div_ceil(SPLIT_FANOUT).max(MIN_LEAF)
    }
}

// ---------------------------------------------------------------------------
// Producer: splittable sources
// ---------------------------------------------------------------------------

/// An exactly-sized, index-splittable source of items (the shim-internal
/// analogue of rayon's `Producer`). Public only because associated types of
/// the public traits name it; application code never touches it.
#[doc(hidden)]
pub trait Producer: Sized + Send {
    type Item: Send;
    type IntoIter: Iterator<Item = Self::Item>;

    fn len(&self) -> usize;
    /// Splits into `[0, index)` and `[index, len)`.
    fn split_at(self, index: usize) -> (Self, Self);
    fn into_seq_iter(self) -> Self::IntoIter;
}

/// Recursive split-and-merge driver. Sibling subtrees run under
/// [`crate::join`]; merges happen strictly left-to-right.
fn drive<P, A, ID, F, M>(producer: P, leaf: usize, id: &ID, fold: &F, merge: &M) -> A
where
    P: Producer,
    A: Send,
    ID: Fn() -> A + Sync,
    F: Fn(A, P::Item) -> A + Sync,
    M: Fn(A, A) -> A + Sync,
{
    let len = producer.len();
    if len <= leaf {
        producer.into_seq_iter().fold(id(), fold)
    } else {
        let (left, right) = producer.split_at(len / 2);
        let (a, b) = join(
            || drive(left, leaf, id, fold, merge),
            || drive(right, leaf, id, fold, merge),
        );
        merge(a, b)
    }
}

/// Borrowed-slice producer (`par_iter`).
#[doc(hidden)]
pub struct SliceProducer<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> Producer for SliceProducer<'a, T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.slice.split_at(index);
        (SliceProducer { slice: l }, SliceProducer { slice: r })
    }

    fn into_seq_iter(self) -> Self::IntoIter {
        self.slice.iter()
    }
}

/// Mutable-slice producer (`par_iter_mut`).
#[doc(hidden)]
pub struct SliceMutProducer<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> Producer for SliceMutProducer<'a, T> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.slice.split_at_mut(index);
        (SliceMutProducer { slice: l }, SliceMutProducer { slice: r })
    }

    fn into_seq_iter(self) -> Self::IntoIter {
        self.slice.iter_mut()
    }
}

/// `par_chunks` producer; indexes (and splits) in whole-chunk units so chunk
/// boundaries are identical to the sequential `chunks()`.
#[doc(hidden)]
pub struct ChunksProducer<'a, T> {
    pub(crate) slice: &'a [T],
    pub(crate) chunk: usize,
}

impl<'a, T: Sync> Producer for ChunksProducer<'a, T> {
    type Item = &'a [T];
    type IntoIter = std::slice::Chunks<'a, T>;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk)
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let elems = (index * self.chunk).min(self.slice.len());
        let (l, r) = self.slice.split_at(elems);
        (
            ChunksProducer {
                slice: l,
                chunk: self.chunk,
            },
            ChunksProducer {
                slice: r,
                chunk: self.chunk,
            },
        )
    }

    fn into_seq_iter(self) -> Self::IntoIter {
        self.slice.chunks(self.chunk)
    }
}

/// `par_chunks_mut` producer.
#[doc(hidden)]
pub struct ChunksMutProducer<'a, T> {
    pub(crate) slice: &'a mut [T],
    pub(crate) chunk: usize,
}

impl<'a, T: Send> Producer for ChunksMutProducer<'a, T> {
    type Item = &'a mut [T];
    type IntoIter = std::slice::ChunksMut<'a, T>;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk)
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let elems = (index * self.chunk).min(self.slice.len());
        let (l, r) = self.slice.split_at_mut(elems);
        (
            ChunksMutProducer {
                slice: l,
                chunk: self.chunk,
            },
            ChunksMutProducer {
                slice: r,
                chunk: self.chunk,
            },
        )
    }

    fn into_seq_iter(self) -> Self::IntoIter {
        self.slice.chunks_mut(self.chunk)
    }
}

/// Integer-range producer (`(0..n).into_par_iter()`).
#[doc(hidden)]
pub struct RangeProducer<T> {
    range: std::ops::Range<T>,
}

macro_rules! range_producer {
    ($(($t:ty, $unsigned:ty)),*) => {$(
        impl Producer for RangeProducer<$t> {
            type Item = $t;
            type IntoIter = std::ops::Range<$t>;

            fn len(&self) -> usize {
                if self.range.end > self.range.start {
                    // Two's-complement distance via the unsigned twin, so
                    // signed ranges wider than the signed max (e.g.
                    // i32::MIN..i32::MAX) don't overflow.
                    self.range.end.wrapping_sub(self.range.start) as $unsigned as usize
                } else {
                    0
                }
            }

            fn split_at(self, index: usize) -> (Self, Self) {
                // Modular arithmetic makes the cast-wrap of huge signed
                // offsets land on the right midpoint.
                let mid = self.range.start.wrapping_add(index as $t);
                (
                    RangeProducer { range: self.range.start..mid },
                    RangeProducer { range: mid..self.range.end },
                )
            }

            fn into_seq_iter(self) -> Self::IntoIter {
                self.range
            }
        }

        impl IntoParallelIterator for std::ops::Range<$t> {
            type Iter = ParIter<RangeProducer<$t>>;
            type Item = $t;

            fn into_par_iter(self) -> Self::Iter {
                ParIter {
                    producer: RangeProducer { range: self },
                }
            }
        }
    )*};
}

range_producer!(
    (u8, u8),
    (u16, u16),
    (u32, u32),
    (u64, u64),
    (usize, usize),
    (i32, u32),
    (i64, u64)
);

/// Owning `Vec` producer (`vec.into_par_iter()`). Splits via `split_off`,
/// trading an allocation per split for fully safe ownership transfer.
#[doc(hidden)]
pub struct VecProducer<T> {
    vec: Vec<T>,
}

impl<T: Send> Producer for VecProducer<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;

    fn len(&self) -> usize {
        self.vec.len()
    }

    fn split_at(mut self, index: usize) -> (Self, Self) {
        let tail = self.vec.split_off(index);
        (self, VecProducer { vec: tail })
    }

    fn into_seq_iter(self) -> Self::IntoIter {
        self.vec.into_iter()
    }
}

/// Lock-step pair producer backing `zip` (and, with a range, `enumerate`).
#[doc(hidden)]
pub struct ZipProducer<A, B>(A, B);

impl<A: Producer, B: Producer> Producer for ZipProducer<A, B> {
    type Item = (A::Item, B::Item);
    type IntoIter = std::iter::Zip<A::IntoIter, B::IntoIter>;

    fn len(&self) -> usize {
        self.0.len().min(self.1.len())
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a1, a2) = self.0.split_at(index);
        let (b1, b2) = self.1.split_at(index);
        (ZipProducer(a1, b1), ZipProducer(a2, b2))
    }

    fn into_seq_iter(self) -> Self::IntoIter {
        self.0.into_seq_iter().zip(self.1.into_seq_iter())
    }
}

// ---------------------------------------------------------------------------
// ParallelIterator
// ---------------------------------------------------------------------------

/// A parallel iterator (mirror of `rayon::iter::ParallelIterator`).
///
/// Adapters (`map`, `filter`, …) compose lazily; consumers (`for_each`,
/// `reduce`, `collect`, …) execute on the pool via the reduction model
/// summarized under "Determinism guarantee" in the [crate docs](crate).
pub trait ParallelIterator: Sized + Send {
    /// The item type produced.
    type Item: Send;

    /// Shim-internal executor: reduce the whole iterator with the given
    /// `(identity, fold, merge)` triple. `merge(a, id())` must equal `a`.
    #[doc(hidden)]
    fn exec<A, ID, F, M>(self, id: &ID, fold: &F, merge: &M) -> A
    where
        A: Send,
        ID: Fn() -> A + Sync,
        F: Fn(A, Self::Item) -> A + Sync,
        M: Fn(A, A) -> A + Sync;

    /// Maps each item through `f`.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Send,
    {
        Map { base: self, f }
    }

    /// Keeps the items for which `predicate` is true.
    fn filter<P>(self, predicate: P) -> Filter<Self, P>
    where
        P: Fn(&Self::Item) -> bool + Sync + Send,
    {
        Filter {
            base: self,
            predicate,
        }
    }

    /// Maps and filters in one pass.
    fn filter_map<R, F>(self, f: F) -> FilterMap<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> Option<R> + Sync + Send,
    {
        FilterMap { base: self, f }
    }

    /// Maps each item to a nested collection and flattens the results,
    /// preserving order.
    fn flat_map<U, F>(self, f: F) -> FlatMap<Self, F>
    where
        U: IntoParallelIterator,
        F: Fn(Self::Item) -> U + Sync + Send,
    {
        FlatMap { base: self, f }
    }

    /// Copies `&T` items (mirror of `Iterator::copied`).
    fn copied<'a, T>(self) -> Copied<Self>
    where
        T: 'a + Copy + Send + Sync,
        Self: ParallelIterator<Item = &'a T>,
    {
        Copied { base: self }
    }

    /// Clones `&T` items (mirror of `Iterator::cloned`).
    fn cloned<'a, T>(self) -> Cloned<Self>
    where
        T: 'a + Clone + Send + Sync,
        Self: ParallelIterator<Item = &'a T>,
    {
        Cloned { base: self }
    }

    /// Rayon-shaped fold: produces **one accumulator per leaf** of the split
    /// tree (seeded with `identity()`), yielding a parallel iterator of
    /// accumulators that is typically consumed by [`reduce`].
    ///
    /// [`reduce`]: ParallelIterator::reduce
    fn fold<A, ID, F>(self, identity: ID, fold_op: F) -> Fold<Self, ID, F>
    where
        A: Send,
        ID: Fn() -> A + Sync + Send,
        F: Fn(A, Self::Item) -> A + Sync + Send,
    {
        Fold {
            base: self,
            identity,
            fold_op,
        }
    }

    /// Reduces all items to one with `op`, seeding every leaf with
    /// `identity()`. Partial results merge left-to-right, so the outcome is
    /// deterministic (and thread-count independent) even for
    /// non-commutative `op`.
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync + Send,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        self.exec(&identity, &|a, b| op(a, b), &|a, b| op(a, b))
    }

    /// Calls `op` on every item.
    fn for_each<OP>(self, op: OP)
    where
        OP: Fn(Self::Item) + Sync + Send,
    {
        self.exec(&|| (), &|(), x| op(x), &|(), ()| ())
    }

    /// Number of items.
    fn count(self) -> usize {
        self.exec(&|| 0usize, &|c, _| c + 1, &|a, b| a + b)
    }

    /// Sums the items. Leaf sums fold left-to-right and partial sums merge
    /// left-to-right, so even floating-point totals are reproducible across
    /// pool sizes.
    fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>,
    {
        use std::iter::{empty, once};
        self.exec(
            &|| empty::<Self::Item>().sum::<S>(),
            &|a, x| once(a).chain(once(once(x).sum::<S>())).sum::<S>(),
            &|a, b| once(a).chain(once(b)).sum::<S>(),
        )
    }

    /// Largest item (last maximal one on ties, like `Iterator::max`).
    fn max(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        self.exec(
            &|| None,
            &|a: Option<Self::Item>, x| {
                Some(match a {
                    Some(b) if x < b => b,
                    _ => x,
                })
            },
            &|a, b| match (a, b) {
                (Some(l), Some(r)) => Some(if r < l { l } else { r }),
                (l, None) => l,
                (None, r) => r,
            },
        )
    }

    /// Smallest item (first minimal one on ties, like `Iterator::min`).
    fn min(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        self.exec(
            &|| None,
            &|a: Option<Self::Item>, x| {
                Some(match a {
                    Some(b) if x < b => x,
                    Some(b) => b,
                    None => x,
                })
            },
            &|a, b| match (a, b) {
                (Some(l), Some(r)) => Some(if r < l { r } else { l }),
                (l, None) => l,
                (None, r) => r,
            },
        )
    }

    /// Item with the largest key (last one on ties, like
    /// `Iterator::max_by_key`).
    fn max_by_key<K, F>(self, f: F) -> Option<Self::Item>
    where
        K: Ord + Send,
        F: Fn(&Self::Item) -> K + Sync + Send,
    {
        self.exec(
            &|| None,
            &|a: Option<(K, Self::Item)>, x| {
                let k = f(&x);
                Some(match a {
                    Some((bk, b)) if k < bk => (bk, b),
                    _ => (k, x),
                })
            },
            &|a, b| match (a, b) {
                (Some(l), Some(r)) => Some(if r.0 < l.0 { l } else { r }),
                (l, None) => l,
                (None, r) => r,
            },
        )
        .map(|(_, x)| x)
    }

    /// Item with the smallest key (first one on ties, like
    /// `Iterator::min_by_key`).
    fn min_by_key<K, F>(self, f: F) -> Option<Self::Item>
    where
        K: Ord + Send,
        F: Fn(&Self::Item) -> K + Sync + Send,
    {
        self.exec(
            &|| None,
            &|a: Option<(K, Self::Item)>, x| {
                let k = f(&x);
                Some(match a {
                    Some((bk, _)) if k < bk => (k, x),
                    Some((bk, b)) => (bk, b),
                    None => (k, x),
                })
            },
            &|a, b| match (a, b) {
                (Some(l), Some(r)) => Some(if r.0 < l.0 { r } else { l }),
                (l, None) => l,
                (None, r) => r,
            },
        )
        .map(|(_, x)| x)
    }

    /// True if any item satisfies `predicate` (no short-circuit guarantee).
    fn any<P>(self, predicate: P) -> bool
    where
        P: Fn(Self::Item) -> bool + Sync + Send,
    {
        self.exec(&|| false, &|a, x| a | predicate(x), &|a, b| a | b)
    }

    /// True if every item satisfies `predicate` (no short-circuit
    /// guarantee).
    fn all<P>(self, predicate: P) -> bool
    where
        P: Fn(Self::Item) -> bool + Sync + Send,
    {
        self.exec(&|| true, &|a, x| a & predicate(x), &|a, b| a & b)
    }

    /// Collects into `C`, preserving the source order.
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }
}

/// Collection types constructible from a parallel iterator (mirror of
/// `rayon::iter::FromParallelIterator`).
pub trait FromParallelIterator<T: Send> {
    /// Builds the collection, preserving the iterator's order.
    fn from_par_iter<I>(par_iter: I) -> Self
    where
        I: IntoParallelIterator<Item = T>;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I>(par_iter: I) -> Self
    where
        I: IntoParallelIterator<Item = T>,
    {
        par_iter.into_par_iter().exec(
            &Vec::new,
            &|mut acc, x| {
                acc.push(x);
                acc
            },
            &|mut a, mut b| {
                a.append(&mut b);
                a
            },
        )
    }
}

// ---------------------------------------------------------------------------
// Conversions
// ---------------------------------------------------------------------------

/// Conversion into a parallel iterator (mirror of
/// `rayon::iter::IntoParallelIterator`).
pub trait IntoParallelIterator {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send;

    fn into_par_iter(self) -> Self::Iter;
}

/// Every parallel iterator trivially converts into itself.
impl<T: ParallelIterator> IntoParallelIterator for T {
    type Iter = T;
    type Item = T::Item;

    fn into_par_iter(self) -> T {
        self
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = ParIter<VecProducer<T>>;
    type Item = T;

    fn into_par_iter(self) -> Self::Iter {
        ParIter {
            producer: VecProducer { vec: self },
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelIterator for &'a [T] {
    type Iter = ParIter<SliceProducer<'a, T>>;
    type Item = &'a T;

    fn into_par_iter(self) -> Self::Iter {
        ParIter {
            producer: SliceProducer { slice: self },
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelIterator for &'a Vec<T> {
    type Iter = ParIter<SliceProducer<'a, T>>;
    type Item = &'a T;

    fn into_par_iter(self) -> Self::Iter {
        self.as_slice().into_par_iter()
    }
}

impl<'a, T: Send + 'a> IntoParallelIterator for &'a mut [T] {
    type Iter = ParIter<SliceMutProducer<'a, T>>;
    type Item = &'a mut T;

    fn into_par_iter(self) -> Self::Iter {
        ParIter {
            producer: SliceMutProducer { slice: self },
        }
    }
}

impl<'a, T: Send + 'a> IntoParallelIterator for &'a mut Vec<T> {
    type Iter = ParIter<SliceMutProducer<'a, T>>;
    type Item = &'a mut T;

    fn into_par_iter(self) -> Self::Iter {
        self.as_mut_slice().into_par_iter()
    }
}

/// `par_iter()` on everything whose reference converts (mirror of
/// `rayon::iter::IntoParallelRefIterator`).
pub trait IntoParallelRefIterator<'data> {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send + 'data;

    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, I: 'data + ?Sized> IntoParallelRefIterator<'data> for I
where
    &'data I: IntoParallelIterator,
{
    type Iter = <&'data I as IntoParallelIterator>::Iter;
    type Item = <&'data I as IntoParallelIterator>::Item;

    fn par_iter(&'data self) -> Self::Iter {
        self.into_par_iter()
    }
}

/// `par_iter_mut()` counterpart (mirror of
/// `rayon::iter::IntoParallelRefMutIterator`).
pub trait IntoParallelRefMutIterator<'data> {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send + 'data;

    fn par_iter_mut(&'data mut self) -> Self::Iter;
}

impl<'data, I: 'data + ?Sized> IntoParallelRefMutIterator<'data> for I
where
    &'data mut I: IntoParallelIterator,
{
    type Iter = <&'data mut I as IntoParallelIterator>::Iter;
    type Item = <&'data mut I as IntoParallelIterator>::Item;

    fn par_iter_mut(&'data mut self) -> Self::Iter {
        self.into_par_iter()
    }
}

// ---------------------------------------------------------------------------
// Indexed iterators (zip / enumerate)
// ---------------------------------------------------------------------------

/// A parallel iterator with a known exact length, supporting position-aware
/// adapters (mirror of `rayon::iter::IndexedParallelIterator`).
pub trait IndexedParallelIterator: ParallelIterator {
    #[doc(hidden)]
    type Producer: Producer<Item = Self::Item>;

    /// Exact number of items.
    fn len(&self) -> usize;

    #[doc(hidden)]
    fn into_producer(self) -> Self::Producer;

    /// Whether the iterator is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates two indexed iterators in lock step, truncating to the
    /// shorter.
    fn zip<Z>(
        self,
        other: Z,
    ) -> ParIter<ZipProducer<Self::Producer, <Z::Iter as IndexedParallelIterator>::Producer>>
    where
        Z: IntoParallelIterator,
        Z::Iter: IndexedParallelIterator,
    {
        ParIter {
            producer: ZipProducer(self.into_producer(), other.into_par_iter().into_producer()),
        }
    }

    /// Pairs each item with its index.
    fn enumerate(self) -> ParIter<ZipProducer<RangeProducer<usize>, Self::Producer>> {
        let n = self.len();
        ParIter {
            producer: ZipProducer(RangeProducer { range: 0..n }, self.into_producer()),
        }
    }
}

/// The producer-backed parallel iterator type: what slices, ranges, vectors,
/// `zip`, and `enumerate` hand out.
pub struct ParIter<P> {
    pub(crate) producer: P,
}

impl<P: Producer> ParallelIterator for ParIter<P> {
    type Item = P::Item;

    fn exec<A, ID, F, M>(self, id: &ID, fold: &F, merge: &M) -> A
    where
        A: Send,
        ID: Fn() -> A + Sync,
        F: Fn(A, Self::Item) -> A + Sync,
        M: Fn(A, A) -> A + Sync,
    {
        let leaf = leaf_size(self.producer.len());
        drive(self.producer, leaf, id, fold, merge)
    }
}

impl<P: Producer> IndexedParallelIterator for ParIter<P> {
    type Producer = P;

    fn len(&self) -> usize {
        self.producer.len()
    }

    fn into_producer(self) -> P {
        self.producer
    }
}

// ---------------------------------------------------------------------------
// Adapters
// ---------------------------------------------------------------------------

/// Mapping adapter; see [`ParallelIterator::map`].
pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, R, F> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    R: Send,
    F: Fn(B::Item) -> R + Sync + Send,
{
    type Item = R;

    fn exec<A, ID, G, M>(self, id: &ID, fold: &G, merge: &M) -> A
    where
        A: Send,
        ID: Fn() -> A + Sync,
        G: Fn(A, Self::Item) -> A + Sync,
        M: Fn(A, A) -> A + Sync,
    {
        let f = self.f;
        self.base.exec(id, &|a, x| fold(a, f(x)), merge)
    }
}

/// Filtering adapter; see [`ParallelIterator::filter`].
pub struct Filter<B, P> {
    base: B,
    predicate: P,
}

impl<B, P> ParallelIterator for Filter<B, P>
where
    B: ParallelIterator,
    P: Fn(&B::Item) -> bool + Sync + Send,
{
    type Item = B::Item;

    fn exec<A, ID, G, M>(self, id: &ID, fold: &G, merge: &M) -> A
    where
        A: Send,
        ID: Fn() -> A + Sync,
        G: Fn(A, Self::Item) -> A + Sync,
        M: Fn(A, A) -> A + Sync,
    {
        let p = self.predicate;
        self.base
            .exec(id, &|a, x| if p(&x) { fold(a, x) } else { a }, merge)
    }
}

/// Filter-mapping adapter; see [`ParallelIterator::filter_map`].
pub struct FilterMap<B, F> {
    base: B,
    f: F,
}

impl<B, R, F> ParallelIterator for FilterMap<B, F>
where
    B: ParallelIterator,
    R: Send,
    F: Fn(B::Item) -> Option<R> + Sync + Send,
{
    type Item = R;

    fn exec<A, ID, G, M>(self, id: &ID, fold: &G, merge: &M) -> A
    where
        A: Send,
        ID: Fn() -> A + Sync,
        G: Fn(A, Self::Item) -> A + Sync,
        M: Fn(A, A) -> A + Sync,
    {
        let f = self.f;
        self.base.exec(
            id,
            &|a, x| match f(x) {
                Some(y) => fold(a, y),
                None => a,
            },
            merge,
        )
    }
}

/// Flattening adapter; see [`ParallelIterator::flat_map`]. Inner collections
/// are themselves reduced through the parallel machinery, then merged into
/// the running accumulator in source order.
pub struct FlatMap<B, F> {
    base: B,
    f: F,
}

impl<B, U, F> ParallelIterator for FlatMap<B, F>
where
    B: ParallelIterator,
    U: IntoParallelIterator,
    F: Fn(B::Item) -> U + Sync + Send,
{
    type Item = U::Item;

    fn exec<A, ID, G, M>(self, id: &ID, fold: &G, merge: &M) -> A
    where
        A: Send,
        ID: Fn() -> A + Sync,
        G: Fn(A, Self::Item) -> A + Sync,
        M: Fn(A, A) -> A + Sync,
    {
        let f = self.f;
        self.base.exec(
            id,
            &|a, x| merge(a, f(x).into_par_iter().exec(id, fold, merge)),
            merge,
        )
    }
}

/// Copying adapter; see [`ParallelIterator::copied`].
pub struct Copied<B> {
    base: B,
}

impl<'a, B, T> ParallelIterator for Copied<B>
where
    B: ParallelIterator<Item = &'a T>,
    T: 'a + Copy + Send + Sync,
{
    type Item = T;

    fn exec<A, ID, G, M>(self, id: &ID, fold: &G, merge: &M) -> A
    where
        A: Send,
        ID: Fn() -> A + Sync,
        G: Fn(A, Self::Item) -> A + Sync,
        M: Fn(A, A) -> A + Sync,
    {
        self.base.exec(id, &|a, x| fold(a, *x), merge)
    }
}

/// Cloning adapter; see [`ParallelIterator::cloned`].
pub struct Cloned<B> {
    base: B,
}

impl<'a, B, T> ParallelIterator for Cloned<B>
where
    B: ParallelIterator<Item = &'a T>,
    T: 'a + Clone + Send + Sync,
{
    type Item = T;

    fn exec<A, ID, G, M>(self, id: &ID, fold: &G, merge: &M) -> A
    where
        A: Send,
        ID: Fn() -> A + Sync,
        G: Fn(A, Self::Item) -> A + Sync,
        M: Fn(A, A) -> A + Sync,
    {
        self.base.exec(id, &|a, x| fold(a, x.clone()), merge)
    }
}

/// Per-leaf folding adapter; see [`ParallelIterator::fold`].
pub struct Fold<B, ID2, F2> {
    base: B,
    identity: ID2,
    fold_op: F2,
}

/// Downstream accumulator threaded through a [`Fold`]: `pending` is the
/// current leaf's (upstream-typed) accumulator, `done` the already-reduced
/// downstream value.
struct FoldState<T, A> {
    pending: Option<T>,
    done: Option<A>,
}

impl<B, A2, ID2, F2> ParallelIterator for Fold<B, ID2, F2>
where
    B: ParallelIterator,
    A2: Send,
    ID2: Fn() -> A2 + Sync + Send,
    F2: Fn(A2, B::Item) -> A2 + Sync + Send,
{
    type Item = A2;

    fn exec<A, ID, G, M>(self, id: &ID, fold: &G, merge: &M) -> A
    where
        A: Send,
        ID: Fn() -> A + Sync,
        G: Fn(A, Self::Item) -> A + Sync,
        M: Fn(A, A) -> A + Sync,
    {
        let (id2, f2) = (self.identity, self.fold_op);
        // Completes a partial state into a downstream value: any in-flight
        // leaf accumulator becomes one downstream item.
        let finish = |st: FoldState<A2, A>| -> A {
            let acc = st.done.unwrap_or_else(id);
            match st.pending {
                Some(leaf_acc) => fold(acc, leaf_acc),
                None => acc,
            }
        };
        let st = self.base.exec(
            &|| FoldState {
                pending: None,
                done: None,
            },
            &|mut st: FoldState<A2, A>, x| {
                st.pending = Some(f2(st.pending.take().unwrap_or_else(&id2), x));
                st
            },
            &|l, r| FoldState {
                pending: None,
                done: Some(merge(finish(l), finish(r))),
            },
        );
        finish(st)
    }
}
