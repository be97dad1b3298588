//! The counting allocator's counters are process-global, so its checks run
//! as the only test of a binary of their own: no other test can allocate or
//! reset the peak between an allocation and the assertions on it.

use pardec_bench::alloc::{current_bytes, enabled, peak_bytes, reset_peak};

/// A buffer of `bytes` capacity the optimizer cannot elide, as it may an
/// allocation nothing reads.
fn buffer(bytes: usize) -> Vec<u8> {
    std::hint::black_box(Vec::with_capacity(bytes))
}

#[test]
fn counts_move_with_allocations_and_reset_peak_rebases_to_current() {
    if !enabled() {
        return;
    }
    reset_peak();
    let before = current_bytes();
    let v = buffer(1 << 20);
    assert!(current_bytes() >= before + (1 << 20));
    assert!(peak_bytes() >= before + (1 << 20));
    drop(v);
    assert!(current_bytes() < before + (1 << 20));
    // Peak survives the drop.
    assert!(peak_bytes() >= before + (1 << 20));

    // `reset_peak` rebases the high-water mark to the live figure.
    let v = buffer(1 << 16);
    reset_peak();
    assert!(peak_bytes() <= current_bytes() + 1024);
    drop(v);
}
