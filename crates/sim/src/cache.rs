//! Set-associative cache model with true-LRU replacement.
//!
//! Caches are the mechanism through which co-running threads interfere in
//! the simulator: both SMT contexts of a core insert lines into the same
//! L1/L2 arrays, and every core inserts into the shared LLC, so capacity
//! contention (and therefore backend-stall inflation) emerges from the
//! replacement policy rather than from an analytic formula.
//!
//! # Layout
//!
//! A cache stores its lines as two flat structure-of-arrays vectors,
//! `tags` and `stamps`, with way `w` of set `s` at index `s * ways + w`.
//! A hit scans the set's tags only; a miss scans its stamps for the first
//! minimum (the true-LRU victim). Tag 0 means *invalid*: `tag_of`
//! always sets bit 63, so no address maps to it, and an empty or flushed
//! way can never hit. A valid way's stamp is the LRU clock at its last
//! touch (≥ 1); an invalid way's stamp is 0, so it is always the first
//! victim.

use crate::config::CacheConfig;

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    /// Line was present.
    Hit,
    /// Line was absent (and has now been filled).
    Miss,
}

/// A single-level set-associative cache with true-LRU replacement.
///
/// Addresses are byte addresses; the cache hashes them to sets by the usual
/// index bits above the line offset. Multiple requesters are distinguished
/// only by their address-space tags (callers give each thread a disjoint
/// address region), so sharing and contention need no special casing.
#[derive(Debug, Clone)]
pub(crate) struct Cache {
    cfg: CacheConfig,
    sets: u64,
    set_shift: u32,
    /// Stored tag per way; 0 = invalid (see the module docs).
    tags: Vec<u64>,
    /// Monotonic last-touch stamp per way; smaller = older, 0 = invalid.
    stamps: Vec<u64>,
    /// LRU clock: advanced once per lookup.
    clock: u64,
}

impl Cache {
    /// Builds an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(cfg.line_bytes.is_power_of_two());
        Self {
            cfg,
            sets,
            set_shift: cfg.line_bytes.trailing_zeros(),
            tags: vec![0; (sets * cfg.ways as u64) as usize],
            stamps: vec![0; (sets * cfg.ways as u64) as usize],
            clock: 0,
        }
    }

    /// Lookups since construction (the LRU clock). Read only by the
    /// debug-build shared-touch check in `engine::checked_step` and by
    /// tests.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub fn lookups(&self) -> u64 {
        self.clock
    }

    /// Hit latency of this level.
    pub fn latency(&self) -> u32 {
        self.cfg.latency
    }

    /// Set index `addr` maps to.
    #[inline]
    fn set_of(&self, addr: u64) -> u64 {
        (addr >> self.set_shift) & (self.sets - 1)
    }

    /// Tag stored for `addr`. Bit 63 is always set, so a tag is never 0
    /// (the invalid marker).
    #[inline]
    fn tag_of(&self, addr: u64) -> u64 {
        // Keep index bits in the tag: cheap and unambiguous.
        (addr >> self.set_shift) | 1 << 63
    }

    /// First index of `addr`'s set in `tags`/`stamps`, and its tag.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64) {
        (
            self.set_of(addr) as usize * self.cfg.ways as usize,
            self.tag_of(addr),
        )
    }

    /// Refreshes the LRU stamp of `tag` in the set starting at `base`;
    /// false when the line is absent.
    #[inline]
    fn touch(&mut self, base: usize, tag: u64) -> bool {
        let ways = self.cfg.ways as usize;
        match self.tags[base..base + ways].iter().position(|&t| t == tag) {
            Some(w) => {
                self.stamps[base + w] = self.clock;
                true
            }
            None => false,
        }
    }

    /// Looks up `addr`; on miss the line is filled (allocate-on-miss),
    /// evicting the LRU way.
    ///
    /// Every lookup advances the LRU clock (`lookups()`), so the lookup
    /// count doubles as an activity stamp: when this cache is the shared
    /// LLC, a lookup is a cross-core *epoch event* whose global order the
    /// horizon engine must — and does — preserve exactly (the per-core
    /// engine cross-checks `StepOutcome::llc` against it).
    pub fn access(&mut self, addr: u64) -> Access {
        self.clock += 1;
        let (base, tag) = self.locate(addr);
        if self.touch(base, tag) {
            return Access::Hit;
        }
        // First way with the minimum stamp: invalid ways (stamp 0) first,
        // then the least recently touched.
        let stamps = &self.stamps[base..base + self.cfg.ways as usize];
        let mut victim = 0usize;
        let mut oldest = stamps[0];
        for (w, &stamp) in stamps.iter().enumerate().skip(1) {
            if stamp < oldest {
                oldest = stamp;
                victim = w;
            }
        }
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = self.clock;
        Access::Miss
    }

    /// Looks up `addr` without allocating on miss (hits still refresh LRU).
    ///
    /// Models streaming-resistant replacement (DIP/RRIP-style) for accesses
    /// whose reuse distance dwarfs this level: the line is forwarded but not
    /// cached, so a streaming thread cannot flush its co-runners' working
    /// sets.
    pub fn access_no_alloc(&mut self, addr: u64) -> Access {
        self.clock += 1;
        let (base, tag) = self.locate(addr);
        if self.touch(base, tag) {
            return Access::Hit;
        }
        Access::Miss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Cache {
        /// Invalidates everything (power-on state).
        fn flush(&mut self) {
            self.tags.fill(0);
            self.stamps.fill(0);
        }
    }

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512 B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            latency: 1,
        })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = small();
        assert_eq!(c.access(0x1000), Access::Miss);
        assert_eq!(c.access(0x1000), Access::Hit);
        assert_eq!(c.access(0x1010), Access::Hit, "same line, different byte");
    }

    #[test]
    fn distinct_lines_are_distinct() {
        let mut c = small();
        assert_eq!(c.access(0x0), Access::Miss);
        assert_eq!(c.access(0x40), Access::Miss);
        assert_eq!(c.access(0x0), Access::Hit);
        assert_eq!(c.access(0x40), Access::Hit);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small();
        // Set index = bits [6..8); addresses 0x000, 0x100, 0x200 share set 0.
        c.access(0x000);
        c.access(0x100);
        c.access(0x000); // refresh 0x000; 0x100 is now LRU
        c.access(0x200); // evicts 0x100
        assert_eq!(c.access(0x000), Access::Hit);
        assert_eq!(c.access(0x200), Access::Hit);
        assert_eq!(c.access(0x100), Access::Miss);
    }

    #[test]
    fn capacity_contention_between_two_streams() {
        // Two requesters with disjoint footprints that together exceed the
        // cache cause each other's miss ratio to rise - the core mechanism
        // behind backend-stall inflation in SMT mode.
        let cfg = CacheConfig {
            size_bytes: 4096,
            ways: 4,
            line_bytes: 64,
            latency: 1,
        };
        // Solo: footprint 2 KiB fits in 4 KiB -> near-zero steady-state misses.
        let mut solo = Cache::new(cfg);
        let mut solo_misses = 0u64;
        for _round in 0..50 {
            for line in 0..32u64 {
                solo_misses += u64::from(solo.access(line * 64) == Access::Miss);
            }
        }
        // Shared: two interleaved 2 KiB footprints (4 KiB total) in the same
        // 4 KiB array -> some steady-state misses remain.
        let mut shared = Cache::new(cfg);
        let mut shared_misses = 0u64;
        for _round in 0..50 {
            for line in 0..32u64 {
                for addr in [line * 64, (1 << 30) + line * 64 + 32 * 64] {
                    shared_misses += u64::from(shared.access(addr) == Access::Miss);
                }
            }
        }
        let solo_ratio = solo_misses as f64 / solo.lookups() as f64;
        assert!(solo_ratio < 0.05, "solo miss ratio {solo_ratio}");
        // Interleaved total footprint equals capacity; with LRU and identical
        // sets the two streams coexist, but any skew evicts. We just require
        // more misses than the solo cold misses.
        assert!(shared_misses >= solo_misses);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = small();
        c.access(0x40);
        assert_eq!(c.access(0x40), Access::Hit);
        c.flush();
        assert_eq!(c.access(0x40), Access::Miss);
    }

    /// Test-local true-LRU oracle: per set, the resident line numbers
    /// from most to least recently used.
    struct LruOracle {
        ways: usize,
        sets: Vec<Vec<u64>>,
        line_shift: u32,
    }

    impl LruOracle {
        fn new(cfg: CacheConfig) -> Self {
            Self {
                ways: cfg.ways as usize,
                sets: vec![Vec::new(); cfg.sets() as usize],
                line_shift: cfg.line_bytes.trailing_zeros(),
            }
        }

        fn lookup(&mut self, addr: u64, allocate: bool) -> Access {
            let line = addr >> self.line_shift;
            let n_sets = self.sets.len() as u64;
            let (ways, set) = (self.ways, &mut self.sets[(line % n_sets) as usize]);
            if let Some(pos) = set.iter().position(|&l| l == line) {
                set.remove(pos);
                set.insert(0, line);
                return Access::Hit;
            }
            if allocate {
                set.truncate(ways - 1);
                set.insert(0, line);
            }
            Access::Miss
        }

        fn flush(&mut self) {
            self.sets.iter_mut().for_each(Vec::clear);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]
        #[test]
        fn matches_true_lru_oracle(
            log_ways in 0u32..4,
            log_sets in 0u32..5,
            log_line in 4u32..7,
            ops in proptest::collection::vec((0u32..40, 0u64..1 << 13, 0u64..3), 1..600),
        ) {
            let line_bytes = 1u32 << log_line;
            let cfg = CacheConfig {
                size_bytes: (line_bytes << (log_ways + log_sets)) as u64,
                ways: 1 << log_ways,
                line_bytes,
                latency: 1,
            };
            let mut cache = Cache::new(cfg);
            let mut oracle = LruOracle::new(cfg);
            for (i, &(kind, offset, region)) in ops.iter().enumerate() {
                // Three disjoint address regions exercise the high tag bits.
                let addr = region << 40 | offset;
                match kind {
                    0 => {
                        cache.flush();
                        oracle.flush();
                    }
                    1..=9 => proptest::prop_assert_eq!(
                        cache.access_no_alloc(addr),
                        oracle.lookup(addr, false),
                        "op {} (no-alloc {:#x})", i, addr
                    ),
                    _ => proptest::prop_assert_eq!(
                        cache.access(addr),
                        oracle.lookup(addr, true),
                        "op {} (access {:#x})", i, addr
                    ),
                }
            }
        }
    }

    #[test]
    fn stats_count_accesses_and_misses() {
        let mut c = small();
        let misses = [0x0, 0x0, 0x40]
            .into_iter()
            .filter(|&addr| c.access(addr) == Access::Miss)
            .count();
        assert_eq!(c.lookups(), 3);
        assert_eq!(misses, 2);
    }

    /// `engine::checked_step` detects an LLC touch by a change in
    /// `lookups()`, so every lookup of either kind, hit or miss, must
    /// advance it by exactly one.
    #[test]
    fn every_lookup_advances_lookups_by_one() {
        let mut c = small();
        for addr in [0x0, 0x0, 0x40, 0x100, 0x200, 0x0] {
            let before = c.lookups();
            c.access(addr);
            assert_eq!(c.lookups(), before + 1, "access {addr:#x}");
            let before = c.lookups();
            c.access_no_alloc(addr ^ 0x40);
            assert_eq!(c.lookups(), before + 1, "access_no_alloc {addr:#x}");
        }
    }
}
