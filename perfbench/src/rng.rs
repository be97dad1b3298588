//! SplitMix64 (Steele, Lea and Flood, 2014): the benchmark's only source of
//! randomness. It lives here rather than in the library so that a change to
//! a library generator or RNG shim can never silently change a workload.

/// A SplitMix64 stream.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent stream for one purpose (graph, queries, ...), so that
    /// adding draws to one purpose leaves the others unchanged.
    pub fn fork(seed: u64, purpose: u64) -> Self {
        let mut mix = SplitMix64::new(seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F));
        SplitMix64::new(mix.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_sequence() {
        // First outputs of SplitMix64 seeded with 0, from the reference C
        // implementation.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SplitMix64::new(7);
        assert!((0..10_000).all(|_| r.below(13) < 13));
    }
}
