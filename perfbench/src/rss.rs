//! Resident-set readings of this process from `/proc/self`.

use std::fs;

fn status_kib(key: &str) -> Result<u64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("/proc/self/status has no {key} line"))
}

#[cfg(target_env = "gnu")]
extern "C" {
    /// glibc: returns the free memory of every malloc arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands the allocator's free memory back to the kernel, then resets the
/// peak (`VmHWM`) to the resident set that is left, and returns that
/// baseline in bytes. The next [`peak_bytes`] minus the baseline is then
/// the memory that what runs in between added, whatever earlier work left
/// in the allocator's free lists.
pub fn reset_peak() -> Result<u64, String> {
    // SAFETY: `malloc_trim` takes no pointers; it only releases pages that
    // hold no live allocation.
    #[cfg(target_env = "gnu")]
    unsafe {
        malloc_trim(0);
    }
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))?;
    Ok(status_kib("VmRSS:")? * 1024)
}

pub fn peak_bytes() -> Result<u64, String> {
    Ok(status_kib("VmHWM:")? * 1024)
}

/// Held by the tests that reset or read the process-wide peak, which would
/// otherwise race when the test harness runs them on parallel threads.
#[cfg(test)]
pub static PEAK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_peak_forgets_a_freed_allocation() {
        let _peak = PEAK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        let before = peak_bytes().unwrap();
        let base = reset_peak().unwrap();
        let after = peak_bytes().unwrap();
        assert!(
            after + (32 << 20) < before,
            "peak {after} still holds the freed 64 MiB"
        );
        assert!(base <= after);
    }
}
