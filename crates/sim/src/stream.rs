//! Synthetic address-stream generators.
//!
//! Each hardware thread drives its instruction and data accesses from one of
//! these generators. A stream is parameterised by a *footprint* (bytes of
//! unique memory touched) and a *sequentiality* knob (probability that the
//! next access continues the current line-sequential run). Together these
//! reproduce the two regimes that matter for the paper's characterization:
//! small-footprint sequential code (frontend-friendly) vs. large-footprint
//! irregular data (backend/memory bound).

use crate::rng::SplitMix64;

/// Generator state for one access stream.
#[derive(Debug, Clone)]
pub(crate) struct AddrStream {
    /// Base of this stream's private address region.
    base: u64,
    /// Footprint in bytes; addresses stay in `[base, base + footprint)`.
    footprint: u64,
    /// Whole lines in the footprint (`footprint / line`), kept so a random
    /// access needs no division.
    lines: u64,
    /// Probability that the next access is `last + step`.
    sequentiality: f64,
    /// Cache-line size; random accesses are line-aligned.
    line: u64,
    /// Sequential advance in bytes. Smaller than `line` models spatial
    /// locality: several consecutive accesses land on the same line before
    /// crossing to the next one (e.g. 8-byte strides over 64-byte lines).
    step: u64,
    last: u64,
}

impl AddrStream {
    /// Creates a stream over `[base, base + footprint)` with sequential
    /// advances of `step` bytes.
    ///
    /// `footprint` is rounded up to at least one line.
    pub fn new(base: u64, footprint: u64, sequentiality: f64, line: u64, step: u64) -> Self {
        assert!(line.is_power_of_two());
        assert!(step > 0);
        let footprint = footprint.max(line);
        Self {
            base,
            footprint,
            lines: footprint / line,
            sequentiality: sequentiality.clamp(0.0, 1.0),
            line,
            step,
            last: base,
        }
    }

    /// Changes footprint/sequentiality in place (phase change) without
    /// moving the region base, so previously cached lines stay relevant.
    pub fn retune(&mut self, footprint: u64, sequentiality: f64) {
        self.footprint = footprint.max(self.line);
        self.lines = self.footprint / self.line;
        self.sequentiality = sequentiality.clamp(0.0, 1.0);
        if self.last >= self.base + self.footprint {
            self.last = self.base;
        }
    }

    /// Next byte address.
    #[inline]
    pub fn next(&mut self, rng: &mut SplitMix64) -> u64 {
        let addr = if rng.chance(self.sequentiality) {
            let candidate = self.last + self.step;
            if candidate >= self.base + self.footprint {
                self.base
            } else {
                candidate
            }
        } else {
            self.base + rng.next_below(self.lines) * self.line
        };
        self.last = addr;
        addr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_stay_in_region() {
        let mut rng = SplitMix64::new(1);
        let mut s = AddrStream::new(0x10_0000, 8192, 0.5, 64, 64);
        for _ in 0..10_000 {
            let a = s.next(&mut rng);
            assert!((0x10_0000..0x10_0000 + 8192).contains(&a));
        }
    }

    #[test]
    fn fully_sequential_walks_lines() {
        let mut rng = SplitMix64::new(2);
        let mut s = AddrStream::new(0, 4096, 1.0, 64, 64);
        let first = s.next(&mut rng);
        let second = s.next(&mut rng);
        assert_eq!(second, first + 64);
    }

    #[test]
    fn sequential_wraps_at_footprint_end() {
        let mut rng = SplitMix64::new(3);
        let mut s = AddrStream::new(0, 128, 1.0, 64, 64); // two lines
        let a = s.next(&mut rng);
        let b = s.next(&mut rng);
        let c = s.next(&mut rng);
        assert_eq!(a, 64);
        assert_eq!(b, 0, "wraps to base");
        assert_eq!(c, 64);
    }

    #[test]
    fn random_stream_covers_footprint() {
        let mut rng = SplitMix64::new(4);
        let mut s = AddrStream::new(0, 64 * 16, 0.0, 64, 64);
        let mut seen = [false; 16];
        for _ in 0..2_000 {
            seen[(s.next(&mut rng) / 64) as usize] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn tiny_footprint_rounds_to_one_line() {
        let mut rng = SplitMix64::new(5);
        let mut s = AddrStream::new(0x40, 1, 0.0, 64, 64);
        for _ in 0..100 {
            assert_eq!(s.next(&mut rng), 0x40);
        }
    }

    #[test]
    fn retune_keeps_cursor_valid() {
        let mut rng = SplitMix64::new(6);
        let mut s = AddrStream::new(0, 1 << 20, 0.0, 64, 64);
        for _ in 0..100 {
            s.next(&mut rng);
        }
        s.retune(128, 1.0);
        for _ in 0..100 {
            let a = s.next(&mut rng);
            assert!(a < 128);
        }
    }

    #[test]
    fn sub_line_steps_stay_on_line_before_crossing() {
        let mut rng = SplitMix64::new(8);
        let mut s = AddrStream::new(0, 4096, 1.0, 64, 8);
        // 8-byte strides: 8 consecutive accesses share each 64-byte line.
        let mut lines = std::collections::HashSet::new();
        for _ in 0..64 {
            lines.insert(s.next(&mut rng) / 64);
        }
        assert_eq!(lines.len(), 9, "64 accesses at stride 8 cross ~8 lines");
    }

    #[test]
    fn disjoint_bases_never_collide() {
        let mut rng = SplitMix64::new(7);
        let mut a = AddrStream::new(0, 4096, 0.0, 64, 64);
        let mut b = AddrStream::new(1 << 40, 4096, 0.0, 64, 64);
        for _ in 0..1000 {
            assert_ne!(a.next(&mut rng) >> 40, b.next(&mut rng) >> 40);
        }
    }
}
