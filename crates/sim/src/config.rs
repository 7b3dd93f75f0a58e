//! Simulator configuration.
//!
//! The default configuration mirrors Table II of the paper (Cavium ThunderX2
//! CN9975, Vulcan microarchitecture) with the clock scaled down so that a
//! full 20-workload evaluation completes in minutes instead of hours. All
//! reported quantities are ratios of cycle counts, so scaling time down
//! preserves the shape of every result (see `docs/simulation.md`, "Clock
//! and capacity scaling").

use crate::engine::EngineKind;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Hit latency in cycles, charged on top of the inner levels.
    pub latency: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.ways as u64 * self.line_bytes as u64)
    }
}

/// Per-core microarchitecture parameters (Table II, "Core microarchitecture").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Dispatch width shared by the SMT contexts (4 on ThunderX2).
    pub dispatch_width: u32,
    /// Retire width per hardware thread.
    pub retire_width: u32,
    /// Instructions fetched per I-cache hit.
    pub fetch_width: u32,
    /// Dispatch-queue capacity per hardware thread (µops buffered between
    /// fetch and dispatch).
    pub fetch_queue: u32,
    /// Reorder buffer entries, dynamically shared by the SMT contexts.
    pub rob_size: u32,
    /// Issue-queue entries, shared.
    pub iq_size: u32,
    /// Load-queue entries, shared.
    pub load_queue: u32,
    /// Store-queue entries, shared.
    pub store_queue: u32,
    /// Maximum in-flight L1D misses per hardware thread (MSHR-limited MLP).
    pub mshrs_per_thread: u32,
    /// Cycles the frontend is silent after a branch-mispredict redirect.
    pub redirect_penalty: u32,
    /// Fraction of the ROB/LSQ one thread may occupy while another context
    /// is active. 1.0 = fully shared (a memory hog can starve its
    /// co-runner), 0.5 = hard static partition (co-runner identity stops
    /// mattering). Real SMT2 cores sit in between: a lone hog keeps most of
    /// the window, two hogs crush each other. Ablation knob.
    pub smt_window_cap: f64,
    /// SMT contexts per core. Must be 2 (BIOS-configured SMT2, the only
    /// mode the paper evaluates): the core models exactly two contexts,
    /// and building a chip with any other value panics.
    pub smt_ways: u32,
}

/// Whole-chip parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipConfig {
    /// Number of physical cores simulated.
    pub cores: u32,
    /// Per-core microarchitecture.
    pub core: CoreConfig,
    /// Instruction cache geometry (per core, shared by SMT contexts).
    pub l1i: CacheConfig,
    /// Data cache geometry (per core, shared by SMT contexts).
    pub l1d: CacheConfig,
    /// Unified L2 geometry (per core).
    pub l2: CacheConfig,
    /// Last-level cache shared by every core.
    pub llc: CacheConfig,
    /// Main-memory base latency in cycles (unloaded).
    pub mem_latency: u32,
    /// Extra latency per outstanding miss chip-wide (bandwidth model).
    pub mem_queue_penalty: f64,
    /// Co-runner DRAM demand (fills/cycle) a thread's own fills tolerate
    /// for free; above it the shared miss path queues.
    pub dram_rate_cap: f64,
    /// Extra fill latency per unit of co-runner excess demand (scaled by
    /// `excess / dram_rate_cap`).
    pub dram_saturation_penalty: f64,
    /// Upper bound on the saturation surcharge per fill: queueing delays a
    /// fill by at most one drain round, it does not block forever.
    pub dram_saturation_max: f64,
    /// Fixed pipeline-refill penalty charged when a thread migrates between
    /// cores (on top of the cold-cache effects it suffers naturally).
    pub migration_penalty: u32,
    /// Base RNG seed; each hardware thread derives its own stream from it.
    pub seed: u64,
    /// Cycle-advancement engine used by `Chip::run_cycles`/`run_until`.
    /// Both engines are bit-identical on every counter (enforced by the
    /// `engine_equivalence` differential wall); this is a pure performance
    /// knob and deliberately *not* part of the experiment cache key.
    pub engine: EngineKind,
}

impl ChipConfig {
    /// Configuration mirroring Table II of the paper, with capacities scaled
    /// by 1/8 so that the scaled-down instruction streams (`docs/simulation.md`)
    /// exercise the same hit/miss regimes the full-size machine would.
    ///
    /// `cores` is the number of SMT2 cores to instantiate; the paper's
    /// 8-application workloads use 4 cores. Per-core resources (L1/L2) are
    /// fixed, while the shared LLC scales with the core count — 128 KB per
    /// core, rounded up to a power-of-two share count (the cache model's
    /// set geometry requires it): the 4-core evaluation slice keeps its
    /// 512 KB, and the full 28-core chip gets 4 MB, exactly the 1/8-scaled
    /// 32 MB CN9975 L3 — so per-thread LLC pressure matches the real
    /// machine at every size. Below 4 cores the LLC floors at the 4-core
    /// share: an application running alone on the real machine (the 1-core
    /// characterization configuration) sees at least that much of the L3,
    /// and the app models' Table III signatures are calibrated against it.
    pub fn thunderx2(cores: u32) -> Self {
        Self {
            cores,
            core: CoreConfig {
                dispatch_width: 4,
                retire_width: 4,
                fetch_width: 8,
                fetch_queue: 32,
                rob_size: 128,
                iq_size: 60,
                load_queue: 64,
                store_queue: 36,
                mshrs_per_thread: 8,
                redirect_penalty: 14,
                smt_window_cap: 0.6,
                smt_ways: 2,
            },
            l1i: CacheConfig {
                size_bytes: 4 * 1024,
                ways: 8,
                line_bytes: 64,
                latency: 1,
            },
            l1d: CacheConfig {
                size_bytes: 4 * 1024,
                ways: 8,
                line_bytes: 64,
                latency: 4,
            },
            l2: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                line_bytes: 64,
                latency: 12,
            },
            llc: CacheConfig {
                size_bytes: llc_shares(cores) * 128 * 1024,
                ways: 16,
                line_bytes: 64,
                latency: 30,
            },
            mem_latency: 120,
            mem_queue_penalty: 1.5,
            dram_rate_cap: 0.02,
            dram_saturation_penalty: 800.0,
            dram_saturation_max: 450.0,
            migration_penalty: 200,
            seed: 0x5EED_CAFE,
            // PerCore by default; `with_engine` picks the other one (both
            // are bit-identical on every observable, so the choice can only
            // change wall-clock time).
            engine: EngineKind::PerCore,
        }
    }

    /// The paper's full target machine: the 28-core Cavium ThunderX2
    /// CN9975, i.e. 56 hardware threads of SMT2. This is the regime where
    /// Blossom pairing works on dense 56-node synergy graphs each quantum
    /// (the 4-core default only exercises n = 8).
    pub fn thunderx2_full() -> Self {
        Self::thunderx2(28)
    }

    /// Returns a copy with a different core count, rescaling the shared
    /// LLC by the same per-core-share rule as [`ChipConfig::thunderx2`]
    /// (keeping set counts powers of two); per-core resources are
    /// untouched. Panics if the LLC is not a whole number of per-core
    /// shares (a custom size that cannot be rescaled without truncating).
    pub fn with_cores(mut self, cores: u32) -> Self {
        let share = self.llc.size_bytes / llc_shares(self.cores);
        assert!(
            share > 0 && share * llc_shares(self.cores) == self.llc.size_bytes,
            "LLC size {} is not a whole per-core share; set it explicitly",
            self.llc.size_bytes
        );
        self.llc.size_bytes = share * llc_shares(cores);
        self.cores = cores;
        self
    }

    /// Total hardware-thread slots on the chip.
    pub fn hw_threads(&self) -> usize {
        (self.cores * self.core.smt_ways) as usize
    }

    /// Returns a copy with a different seed (used for experiment repetitions).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy driven by a different cycle-advancement engine.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }
}

/// Number of 128 KB LLC shares a `cores`-core chip gets: one per core,
/// floored at the 4-core evaluation slice and rounded up to a power of two
/// so cache set counts stay powers of two.
fn llc_shares(cores: u32) -> u64 {
    u64::from(cores.max(4).next_power_of_two())
}

impl Default for ChipConfig {
    fn default() -> Self {
        Self::thunderx2(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thunderx2_matches_table2_core() {
        let c = ChipConfig::thunderx2(4);
        assert_eq!(c.core.dispatch_width, 4);
        assert_eq!(c.core.rob_size, 128);
        assert_eq!(c.core.iq_size, 60);
        assert_eq!(c.core.load_queue, 64);
        assert_eq!(c.core.store_queue, 36);
        assert_eq!(c.core.smt_ways, 2);
    }

    #[test]
    fn hw_threads_counts_smt_contexts() {
        assert_eq!(ChipConfig::thunderx2(4).hw_threads(), 8);
        assert_eq!(ChipConfig::thunderx2(28).hw_threads(), 56);
    }

    #[test]
    fn full_machine_is_28_cores_56_threads() {
        let full = ChipConfig::thunderx2_full();
        assert_eq!(full.cores, 28);
        assert_eq!(full.hw_threads(), 56);
        assert_eq!(full.core, ChipConfig::thunderx2(4).core, "same uarch");
        assert_eq!(ChipConfig::thunderx2(4).with_cores(28), full);
    }

    #[test]
    fn shared_llc_scales_with_core_count() {
        // The LLC is a per-core share of the chip's L3: 512 KB for the
        // 4-core evaluation slice, the full 1/8-scaled 4 MB CN9975 L3 for
        // the 28-core machine, floored at the 4-core share for isolated
        // characterization chips. Set counts stay powers of two.
        assert_eq!(ChipConfig::thunderx2(4).llc.size_bytes, 512 * 1024);
        assert_eq!(ChipConfig::thunderx2(28).llc.size_bytes, 4096 * 1024);
        assert_eq!(ChipConfig::thunderx2(1).llc.size_bytes, 512 * 1024);
        for cores in [1, 2, 4, 6, 16, 28, 56] {
            let llc = ChipConfig::thunderx2(cores).llc;
            assert!(llc.sets().is_power_of_two(), "{cores} cores: {llc:?}");
        }
    }

    #[test]
    fn cache_sets_geometry() {
        let c = CacheConfig {
            size_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
            latency: 1,
        };
        assert_eq!(c.sets(), 64);
    }

    #[test]
    fn with_seed_changes_only_seed() {
        let a = ChipConfig::thunderx2(4);
        let b = a.clone().with_seed(99);
        assert_eq!(a.cores, b.cores);
        assert_ne!(a.seed, b.seed);
    }

    #[test]
    fn with_engine_selects_engine() {
        let a = ChipConfig::thunderx2(4);
        assert_eq!(a.engine, EngineKind::PerCore, "default engine");
        let b = a.clone().with_engine(EngineKind::Reference);
        assert_eq!(b.engine, EngineKind::Reference);
        assert_eq!(a.seed, b.seed);
    }

    #[test]
    fn engine_names_round_trip_and_reject_unknown() {
        assert_eq!(EngineKind::ALL.len(), 2);
        for e in EngineKind::ALL {
            assert_eq!(EngineKind::parse(e.name()), Ok(e));
            assert_eq!(format!("{e}"), e.name());
        }
        let err = EngineKind::parse("warp").unwrap_err();
        assert!(
            err.contains("warp") && err.contains("reference, percore"),
            "{err}"
        );
    }
}
