//! Offline stand-in for the [`rayon`](https://crates.io/crates/rayon) crate,
//! backed by a real work-stealing thread pool.
//!
//! The build environment has no crates.io access, so this crate provides the
//! rayon 1.x API surface pardec uses — `join`/`scope`/`spawn`, the
//! `ThreadPool`/`ThreadPoolBuilder` pair (including `build_global` and the
//! `RAYON_NUM_THREADS` environment variable), and the parallel-iterator
//! stack (`par_iter`, `par_iter_mut`, `into_par_iter`, `par_chunks{,_mut}`,
//! `par_sort_unstable{,_by,_by_key}`, `map`/`filter`/`filter_map`/
//! `flat_map`/`fold`/`reduce`/`zip`/`enumerate` and the usual consumers) —
//! executing on `std::thread` workers with per-worker LIFO deques and FIFO
//! stealing (the `pool` module).
//!
//! # Determinism guarantee (stronger than real rayon)
//!
//! Reductions split by input length only (the `iter` module docs): the merge
//! tree never depends on the pool size, and partial results merge
//! left-to-right. For a fixed input, every consumer — including
//! floating-point `sum()` and order-sensitive `fold(..).reduce(..)`
//! pipelines — returns bit-identical results at 1 thread and at N threads.
//! Real rayon only promises this for associative+commutative operations;
//! code written against this shim therefore stays correct (though possibly
//! not bit-reproducible) when the real crate is swapped back in.
//!
//! Swapping in real rayon remains a one-line `Cargo.toml` change; see
//! `shims/README.md`.

mod iter;
mod pool;
mod slice;

pub use pool::{
    current_num_threads, join, scope, spawn, Scope, ThreadPool, ThreadPoolBuildError,
    ThreadPoolBuilder,
};

pub use iter::{
    FromParallelIterator, IndexedParallelIterator, IntoParallelIterator, IntoParallelRefIterator,
    IntoParallelRefMutIterator, ParallelIterator,
};

pub use slice::{ParallelSlice, ParallelSliceMut};

/// The traits needed to call parallel-iterator methods, mirroring
/// `rayon::prelude`.
pub mod prelude {
    pub use crate::iter::{
        FromParallelIterator, IndexedParallelIterator, IntoParallelIterator,
        IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelIterator,
    };
    pub use crate::slice::{ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn nested_joins_compute_recursive_sum() {
        fn sum(range: std::ops::Range<u64>) -> u64 {
            let n = range.end - range.start;
            if n <= 8 {
                range.sum()
            } else {
                let mid = range.start + n / 2;
                let (a, b) = join(|| sum(range.start..mid), || sum(mid..range.end));
                a + b
            }
        }
        assert_eq!(sum(0..10_000), 10_000 * 9_999 / 2);
    }

    #[test]
    fn join_propagates_panics() {
        let r = std::panic::catch_unwind(|| join(|| panic!("left"), || 1));
        assert!(r.is_err());
        let r = std::panic::catch_unwind(|| join(|| 1, || panic!("right")));
        assert!(r.is_err());
    }

    #[test]
    fn scope_runs_borrowed_spawns_to_completion() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..64 {
                s.spawn(|inner| {
                    counter.fetch_add(1, Ordering::Relaxed);
                    inner.spawn(|_| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 128);
    }

    #[test]
    fn explicit_pool_install_reports_its_size() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.current_num_threads(), 3);
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, 3);
    }

    #[test]
    fn map_filter_sum_matches_sequential() {
        let v: Vec<u64> = (0..100_000).collect();
        let par: u64 = v.par_iter().map(|&x| x * 3).filter(|x| x % 2 == 0).sum();
        let seq: u64 = v.iter().map(|&x| x * 3).filter(|x| x % 2 == 0).sum();
        assert_eq!(par, seq);
    }

    #[test]
    fn collect_preserves_order() {
        let squares: Vec<u64> = (0u64..50_000).into_par_iter().map(|x| x * x).collect();
        assert!(squares
            .iter()
            .enumerate()
            .all(|(i, &sq)| sq == (i * i) as u64));
    }

    #[test]
    fn fold_reduce_preserves_left_to_right_order() {
        let v: Vec<u32> = (0..10_000).collect();
        let gathered: Vec<u32> = v
            .par_iter()
            .fold(Vec::new, |mut acc, &x| {
                acc.push(x);
                acc
            })
            .reduce(Vec::new, |mut a, mut b| {
                a.append(&mut b);
                a
            });
        assert_eq!(gathered, v);
    }

    #[test]
    fn chunks_zip_enumerate_mutation() {
        let mut a = [0u32; 100];
        let b = [1u32; 100];
        a.par_chunks_mut(7)
            .zip(b.par_chunks(7))
            .enumerate()
            .for_each(|(i, (ca, cb))| {
                for (x, y) in ca.iter_mut().zip(cb) {
                    *x += *y + i as u32;
                }
            });
        for (pos, &x) in a.iter().enumerate() {
            assert_eq!(x, 1 + (pos / 7) as u32);
        }
    }

    #[test]
    fn minmax_match_sequential_tie_breaking() {
        let v = vec![3u32, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        assert_eq!(v.par_iter().max(), v.iter().max());
        assert_eq!(v.par_iter().min(), v.iter().min());
        assert_eq!(v.par_iter().copied().max(), Some(9));
        let words = ["bb", "a", "cc", "dd", "e"];
        assert_eq!(
            words.par_iter().max_by_key(|w| w.len()),
            words.iter().max_by_key(|w| w.len())
        );
        assert_eq!(
            words.par_iter().min_by_key(|w| w.len()),
            words.iter().min_by_key(|w| w.len())
        );
    }

    #[test]
    fn any_all_count_filter_map() {
        let v: Vec<i64> = (-500..500).collect();
        assert!(v.par_iter().any(|&x| x == 250));
        assert!(!v.par_iter().any(|&x| x == 500));
        assert!(v.par_iter().all(|&x| x < 500));
        assert_eq!(v.par_iter().filter(|&&x| x >= 0).count(), 500);
        let doubled_evens: Vec<i64> = v
            .par_iter()
            .filter_map(|&x| if x % 2 == 0 { Some(x * 2) } else { None })
            .collect();
        assert_eq!(doubled_evens.len(), 500);
        assert_eq!(doubled_evens[0], -1000);
    }

    #[test]
    fn flat_map_preserves_order() {
        let out: Vec<u32> = (0u32..100)
            .into_par_iter()
            .flat_map(|x| vec![x * 10, x * 10 + 1])
            .collect();
        let expected: Vec<u32> = (0u32..100).flat_map(|x| [x * 10, x * 10 + 1]).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn par_sort_matches_sequential_sort() {
        let mut rng_state = 0x2545F4914F6CDD1Du64;
        let mut v: Vec<u64> = (0..50_000)
            .map(|_| {
                rng_state ^= rng_state << 13;
                rng_state ^= rng_state >> 7;
                rng_state ^= rng_state << 17;
                rng_state
            })
            .collect();
        let mut expected = v.clone();
        expected.sort_unstable();
        v.par_sort_unstable();
        assert_eq!(v, expected);

        let mut pairs: Vec<(u32, u32)> = (0..10_000u32).map(|i| (i % 97, i)).collect();
        let mut expected = pairs.clone();
        expected.sort_unstable_by_key(|&(a, _)| a);
        pairs.par_sort_unstable_by_key(|&(a, _)| a);
        // Keys agree even where full tuples may be permuted within a key.
        assert_eq!(
            pairs.iter().map(|p| p.0).collect::<Vec<_>>(),
            expected.iter().map(|p| p.0).collect::<Vec<_>>()
        );
    }

    /// The central determinism claim: float reductions are bit-identical
    /// across pool sizes because the merge tree depends only on the length.
    #[test]
    fn float_sum_bit_identical_across_pool_sizes() {
        let data: Vec<f64> = (1..200_000u64).map(|x| 1.0 / x as f64).collect();
        let run = |threads: usize| -> f64 {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| data.par_iter().sum::<f64>())
        };
        let s1 = run(1);
        let s4 = run(4);
        assert_eq!(s1.to_bits(), s4.to_bits());
    }

    #[test]
    fn work_actually_distributes_across_workers() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        pool.install(|| {
            (0..256u32).into_par_iter().for_each(|_| {
                seen.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_micros(200));
            });
        });
        // All participating threads must be pool workers (the calling thread
        // migrates into the pool rather than draining work itself).
        let seen = seen.lock().unwrap();
        assert!(!seen.is_empty() && seen.len() <= 4, "saw {}", seen.len());
    }

    #[test]
    fn empty_inputs_are_sound() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(empty.par_iter().count(), 0);
        assert_eq!(empty.par_iter().copied().max(), None);
        assert_eq!(empty.par_iter().map(|&x| x).sum::<u32>(), 0);
        let collected: Vec<u32> = (0u32..0).into_par_iter().collect();
        assert!(collected.is_empty());
        let folded: Vec<u32> = empty
            .par_iter()
            .fold(Vec::new, |mut acc, &x| {
                acc.push(x);
                acc
            })
            .reduce(Vec::new, |mut a, mut b| {
                a.append(&mut b);
                a
            });
        assert!(folded.is_empty());
    }

    /// Signed ranges spanning more than the signed max must size and split
    /// via the unsigned twin instead of overflowing (mirrors real rayon).
    #[test]
    fn signed_ranges_wider_than_signed_max() {
        let span = ((i32::MIN)..(i32::MIN + 10)).into_par_iter().count();
        assert_eq!(span, 10);
        // A range wider than i32::MAX elements: count via sampling the
        // boundary behaviour only (full iteration would be ~4 billion
        // items) — sum a thin slice at each end instead.
        let low: i64 = ((i32::MIN..i32::MIN + 3).into_par_iter())
            .map(|x| x as i64)
            .sum();
        assert_eq!(low, 3 * i32::MIN as i64 + 3);
        let wide = (i32::MIN..i32::MAX).into_par_iter();
        assert_eq!(wide.len(), u32::MAX as usize);
        let tiny: Vec<i64> = (-2i64..2).into_par_iter().collect();
        assert_eq!(tiny, vec![-2, -1, 0, 1]);
    }
}
