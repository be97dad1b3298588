//! Counting global allocator for bench-side memory accounting.
//!
//! Wraps [`std::alloc::System`] and tracks the number of live heap bytes
//! plus the high-water mark, so every JSONL bench row can report
//! `peak_alloc_bytes` — the resident-heap figure the compressed-backend
//! acceptance criterion is judged on. Registered as the global allocator
//! only inside this crate (binaries and benches) behind the default-on
//! `count-alloc` feature; the library crates never pay for it.
//!
//! Counters are plain relaxed atomics: the peak is maintained with a
//! `fetch_max` CAS loop, so concurrent allocations from rayon workers are
//! tallied without locks. The numbers are *requested* bytes (the `Layout`
//! size), not allocator-internal slack, which is exactly what the
//! bytes-per-edge comparisons in `bench_compressed` want.
//!
//! The two shared counters cost real time under parallel allocation
//! pressure — roughly 2× on the allocation-heavy `bench_mr_primitives`
//! cases (`crates/bench/results/mr_primitives_scratch.jsonl`). Memory
//! rows stay honest either way; for timing-focused comparisons run the
//! bench with `--no-default-features` to drop back to the system
//! allocator (rows then report `peak_alloc_bytes: 0`).
//!
//! The counters are process-global, so their test is the only one in its
//! binary (`tests/alloc_counter.rs`): a test running alongside it on
//! another thread would move them between its allocations and assertions.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// A [`GlobalAlloc`] that forwards to [`System`] and counts bytes.
pub struct CountingAlloc;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

#[inline]
fn on_alloc(size: usize) {
    let now = CURRENT.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(now, Relaxed);
}

#[inline]
fn on_dealloc(size: usize) {
    CURRENT.fetch_sub(size, Relaxed);
}

// SAFETY: pure pass-through to `System`; the atomics never affect the
// pointers handed back to callers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Live heap bytes right now (0 when the counting allocator is disabled).
pub fn current_bytes() -> usize {
    CURRENT.load(Relaxed)
}

/// High-water mark of live heap bytes since start / last [`reset_peak`]
/// (0 when the counting allocator is disabled).
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}

/// Restarts the high-water mark from the current live figure, so each
/// bench phase can report its own peak.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Relaxed), Relaxed);
}

/// True when the counting allocator is registered (`count-alloc` feature).
pub fn enabled() -> bool {
    cfg!(feature = "count-alloc")
}
