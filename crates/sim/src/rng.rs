//! Small deterministic PRNG used inside the simulator.
//!
//! The simulator is on the hot path (one call site per simulated cycle), so
//! we use a tiny inlined SplitMix64 generator instead of pulling the `rand`
//! crate into this crate. Determinism matters: every run of a workload with
//! the same seed must produce bit-identical counter streams so experiments
//! are reproducible and tests can assert on exact values.

/// SplitMix64 pseudo-random number generator.
///
/// Passes BigCrush when used as a 64-bit generator and is the standard
/// seeding generator for xoshiro-family PRNGs. One add, three xor-shifts and
/// two multiplies per draw.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Two generators with different seeds
    /// produce uncorrelated streams for our purposes.
    #[inline]
    pub fn new(seed: u64) -> Self {
        // Avoid the all-zero fixed point for downstream xorshift users.
        Self {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// The generator of one cell of a pure seeded plan: `(a, b)` are the
    /// cell's coordinates (app or core, quantum) and `salt` separates
    /// plans that share a seed. SplitMix64 is designed to decorrelate
    /// sequential seeds, so this linear mix gives independent per-cell
    /// draws without any shared stream state. The counter-fault plan uses
    /// salt 0, the chip-fault plan salts 1 (cores) and 2 (apps).
    pub fn for_cell(seed: u64, a: u64, b: u64, salt: u64) -> Self {
        Self::new(
            seed.wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
                .wrapping_add(salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)),
        )
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 top bits -> mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be non-zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Lemire's multiply-shift rejection-free approximation is fine here:
        // the simulator does not need perfectly unbiased draws.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.next_f64() < p
    }
}

/// Deterministic fractional accumulator ("dither") used to turn per-cycle
/// fractional rates (e.g. 0.3 memory ops per dispatched µop) into integer
/// event counts without per-event RNG draws.
///
/// The accumulated error is bounded by 1 event, so long-run rates are exact.
#[derive(Debug, Clone, Default)]
pub(crate) struct Dither {
    acc: f64,
}

impl Dither {
    /// Adds `x ≥ 0` expected events and returns the number of whole events
    /// to emit now.
    #[inline]
    pub fn step(&mut self, x: f64) -> u32 {
        debug_assert!(x >= 0.0, "negative rate {x}");
        self.acc += x;
        // `acc ≥ 0`, so truncation equals `floor`; the cast pair compiles
        // to two instructions where `floor` is a libm call on baseline
        // x86-64.
        let n = self.acc as i64 as f64;
        self.acc -= n;
        n as u32
    }

    /// Clears accumulated fraction (used on thread migration / relaunch).
    #[inline]
    pub fn reset(&mut self) {
        self.acc = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_f64_mean_is_half() {
        let mut r = SplitMix64::new(11);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(3);
        for _ in 0..10_000 {
            assert!(r.next_below(7) < 7);
        }
    }

    #[test]
    fn next_below_covers_range() {
        let mut r = SplitMix64::new(5);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.next_below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn dither_long_run_rate_is_exact() {
        let mut d = Dither::default();
        let mut total = 0u64;
        for _ in 0..10_000 {
            total += d.step(0.3) as u64;
        }
        // 10_000 * 0.3 = 3000, bounded error of 1.
        assert!((total as i64 - 3000).abs() <= 1, "total {total}");
    }

    #[test]
    fn dither_handles_rates_above_one() {
        let mut d = Dither::default();
        let mut total = 0u64;
        for _ in 0..1_000 {
            total += d.step(2.75) as u64;
        }
        assert!((total as i64 - 2750).abs() <= 1, "total {total}");
    }

    #[test]
    fn dither_truncation_matches_floor_bit_for_bit() {
        // Reference: the `floor` formula.
        fn floor_step(acc: &mut f64, x: f64) -> u32 {
            *acc += x;
            let n = acc.floor();
            *acc -= n;
            n as u32
        }
        let mut r = SplitMix64::new(17);
        for seq in 0..64 {
            let mut d = Dither::default();
            let mut acc = 0.0f64;
            for _ in 0..20_000 {
                let x = match r.next_below(4) {
                    // Rates as the dispatch stage produces them.
                    0 => r.next_below(9) as f64 * r.next_f64(),
                    // Just below (and at) an integer.
                    1 => {
                        let k = r.next_below(5) as f64;
                        if r.chance(0.5) {
                            k
                        } else {
                            f64::from_bits((k + 1.0).to_bits() - 1 - r.next_below(3))
                        }
                    }
                    // Tiny and huge magnitudes.
                    2 => r.next_f64() * 1e-12,
                    _ => r.next_f64() * 1e6,
                };
                let want = floor_step(&mut acc, x);
                assert_eq!(d.step(x), want, "sequence {seq}, x = {x:e}");
                assert_eq!(d.acc.to_bits(), acc.to_bits(), "sequence {seq}, x = {x:e}");
            }
        }
    }

    #[test]
    fn dither_reset_clears_fraction() {
        let mut d = Dither::default();
        d.step(0.9);
        d.reset();
        assert_eq!(d.step(0.9), 0);
    }

    #[test]
    fn chance_zero_and_one() {
        let mut r = SplitMix64::new(9);
        assert!(!r.chance(0.0));
        let hits = (0..1000).filter(|_| r.chance(1.0)).count();
        assert_eq!(hits, 1000);
    }
}
