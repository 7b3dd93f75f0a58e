//! Per-hardware-thread performance monitoring unit.
//!
//! Exposes exactly the four ARMv8.1 PMU events the paper uses (Table I):
//! `CPU_CYCLES`, `INST_SPEC`, `STALL_FRONTEND`, `STALL_BACKEND` — plus a set
//! of *extended* events (ROB-full, IQ-full, ...) that exist only to support
//! the paper's §VI-A ablation, where a 10-category model built from
//! finer-grained events is shown to underperform the 3-category model.

/// The four architectural events of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// Cycles the hardware thread was active.
    CpuCycles,
    /// Operations speculatively executed (dispatched), retired or not.
    InstSpec,
    /// Cycles with no operation dispatched because the dispatch queue was
    /// empty (frontend starvation).
    StallFrontend,
    /// Cycles with no operation dispatched because a backend resource was
    /// unavailable.
    StallBackend,
}

impl Event {
    /// All four events, in Table I order.
    pub const ALL: [Event; 4] = [
        Event::CpuCycles,
        Event::InstSpec,
        Event::StallFrontend,
        Event::StallBackend,
    ];

    /// The ARM PMU mnemonic for this event.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Event::CpuCycles => "CPU_CYCLES",
            Event::InstSpec => "INST_SPEC",
            Event::StallFrontend => "STALL_FRONTEND",
            Event::StallBackend => "STALL_BACKEND",
        }
    }
}

/// Raw counter state for one hardware thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PmuCounters {
    /// `CPU_CYCLES`: cycles this hardware thread was active.
    pub cpu_cycles: u64,
    /// `INST_SPEC`: µops dispatched (speculatively executed).
    pub inst_spec: u64,
    /// `STALL_FRONTEND`: zero-dispatch cycles with an empty dispatch queue.
    pub stall_frontend: u64,
    /// `STALL_BACKEND`: zero-dispatch cycles due to backend resources.
    pub stall_backend: u64,
    /// Retired (architecturally committed) instructions. Not one of the four
    /// model inputs; used by the experiment methodology (§V-B target
    /// instruction counts) and for IPC metrics.
    pub inst_retired: u64,
    /// Extended events (ablation only - not visible to the SYNPA model).
    pub ext: ExtCounters,
}

/// Finer-grained dispatch-stall attribution used by the 10-category ablation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtCounters {
    /// Backend stall cycles where the shared ROB was full.
    pub stall_rob_full: u64,
    /// Backend stall cycles where the shared issue queue was full.
    pub stall_iq_full: u64,
    /// Backend stall cycles where the load or store queue was full.
    pub stall_lsq_full: u64,
    /// Backend stall cycles attributable to an outstanding data-cache miss
    /// blocking retirement at the ROB head.
    pub stall_dcache: u64,
    /// Backend stall cycles where execution latency (FP/dependence) blocked.
    pub stall_exec: u64,
    /// Backend stall cycles where the co-runner consumed the whole dispatch
    /// width this cycle.
    pub stall_width: u64,
    /// Frontend stall cycles following a branch-mispredict redirect.
    pub stall_branch: u64,
    /// Frontend stall cycles waiting on an I-cache miss.
    pub stall_icache: u64,
    /// L1D accesses / misses observed by this thread.
    pub l1d_access: u64,
    /// L1D misses observed by this thread.
    pub l1d_miss: u64,
    /// L1I accesses.
    pub l1i_access: u64,
    /// L1I misses.
    pub l1i_miss: u64,
}

impl PmuCounters {
    /// Reads one of the four architectural events.
    pub fn read(&self, ev: Event) -> u64 {
        match ev {
            Event::CpuCycles => self.cpu_cycles,
            Event::InstSpec => self.inst_spec,
            Event::StallFrontend => self.stall_frontend,
            Event::StallBackend => self.stall_backend,
        }
    }

    /// Difference `self - earlier`, event-wise, saturating at zero per
    /// field. The simulator's counters are monotonic by construction, but
    /// real PMUs (and the fault injector that models them) can hand back
    /// non-monotonic snapshots — wraps, multiplexing resets, stale reads.
    /// A backwards field yields a zero delta instead of a debug panic or a
    /// release-mode wrap to ~2^64; callers that care can compare snapshots
    /// with [`PmuCounters::is_monotonic_since`] and flag the sample.
    pub fn delta_since(&self, earlier: &PmuCounters) -> PmuDelta {
        self.zip_with(earlier, u64::saturating_sub)
    }

    /// `f(self.x, other.x)` for every counter `x`, extended events
    /// included: the one place that lists all of them.
    pub fn zip_with(&self, other: &PmuCounters, f: impl Fn(u64, u64) -> u64) -> PmuCounters {
        let (a, b) = (&self.ext, &other.ext);
        PmuCounters {
            cpu_cycles: f(self.cpu_cycles, other.cpu_cycles),
            inst_spec: f(self.inst_spec, other.inst_spec),
            stall_frontend: f(self.stall_frontend, other.stall_frontend),
            stall_backend: f(self.stall_backend, other.stall_backend),
            inst_retired: f(self.inst_retired, other.inst_retired),
            ext: ExtCounters {
                stall_rob_full: f(a.stall_rob_full, b.stall_rob_full),
                stall_iq_full: f(a.stall_iq_full, b.stall_iq_full),
                stall_lsq_full: f(a.stall_lsq_full, b.stall_lsq_full),
                stall_dcache: f(a.stall_dcache, b.stall_dcache),
                stall_exec: f(a.stall_exec, b.stall_exec),
                stall_width: f(a.stall_width, b.stall_width),
                stall_branch: f(a.stall_branch, b.stall_branch),
                stall_icache: f(a.stall_icache, b.stall_icache),
                l1d_access: f(a.l1d_access, b.l1d_access),
                l1d_miss: f(a.l1d_miss, b.l1d_miss),
                l1i_access: f(a.l1i_access, b.l1i_access),
                l1i_miss: f(a.l1i_miss, b.l1i_miss),
            },
        }
    }

    /// True when every architectural event (plus retired instructions)
    /// advanced monotonically from `earlier` to `self`. A healthy counter
    /// source always satisfies this; a `false` result means
    /// [`PmuCounters::delta_since`] saturated at least one field.
    pub fn is_monotonic_since(&self, earlier: &PmuCounters) -> bool {
        self.cpu_cycles >= earlier.cpu_cycles
            && self.inst_spec >= earlier.inst_spec
            && self.stall_frontend >= earlier.stall_frontend
            && self.stall_backend >= earlier.stall_backend
            && self.inst_retired >= earlier.inst_retired
    }
}

/// Counter deltas over one measurement interval (quantum).
pub type PmuDelta = PmuCounters;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics_match_table1() {
        assert_eq!(Event::CpuCycles.mnemonic(), "CPU_CYCLES");
        assert_eq!(Event::InstSpec.mnemonic(), "INST_SPEC");
        assert_eq!(Event::StallFrontend.mnemonic(), "STALL_FRONTEND");
        assert_eq!(Event::StallBackend.mnemonic(), "STALL_BACKEND");
    }

    #[test]
    fn read_dispatches_on_event() {
        let c = PmuCounters {
            cpu_cycles: 1,
            inst_spec: 2,
            stall_frontend: 3,
            stall_backend: 4,
            ..Default::default()
        };
        assert_eq!(c.read(Event::CpuCycles), 1);
        assert_eq!(c.read(Event::InstSpec), 2);
        assert_eq!(c.read(Event::StallFrontend), 3);
        assert_eq!(c.read(Event::StallBackend), 4);
    }

    #[test]
    fn delta_subtracts_every_field() {
        let a = PmuCounters {
            cpu_cycles: 100,
            inst_spec: 50,
            stall_frontend: 10,
            stall_backend: 20,
            inst_retired: 48,
            ext: ExtCounters {
                stall_rob_full: 5,
                l1d_miss: 3,
                ..Default::default()
            },
        };
        let b = PmuCounters {
            cpu_cycles: 150,
            inst_spec: 80,
            stall_frontend: 15,
            stall_backend: 35,
            inst_retired: 75,
            ext: ExtCounters {
                stall_rob_full: 9,
                l1d_miss: 4,
                ..Default::default()
            },
        };
        let d = b.delta_since(&a);
        assert_eq!(d.cpu_cycles, 50);
        assert_eq!(d.inst_spec, 30);
        assert_eq!(d.stall_frontend, 5);
        assert_eq!(d.stall_backend, 15);
        assert_eq!(d.inst_retired, 27);
        assert_eq!(d.ext.stall_rob_full, 4);
        assert_eq!(d.ext.l1d_miss, 1);
    }

    #[test]
    fn all_lists_four_events() {
        assert_eq!(Event::ALL.len(), 4);
    }

    /// Regression: a non-monotonic snapshot (rollback — real PMUs wrap,
    /// multiplex and reset) used to debug-panic / release-wrap to ~2^64.
    /// Every field must saturate at zero independently.
    #[test]
    fn delta_saturates_on_non_monotonic_snapshots() {
        let before = PmuCounters {
            cpu_cycles: 1000,
            inst_spec: 800,
            stall_frontend: 50,
            stall_backend: 90,
            inst_retired: 700,
            ext: ExtCounters {
                stall_rob_full: 40,
                ..Default::default()
            },
        };
        // cpu_cycles rolled back; inst_spec kept advancing.
        let after = PmuCounters {
            cpu_cycles: 400,
            inst_spec: 900,
            stall_frontend: 10,
            stall_backend: 95,
            inst_retired: 650,
            ext: ExtCounters::default(),
        };
        let d = after.delta_since(&before);
        assert_eq!(d.cpu_cycles, 0, "rolled-back field saturates");
        assert_eq!(d.inst_spec, 100, "advancing field still measures");
        assert_eq!(d.stall_frontend, 0);
        assert_eq!(d.stall_backend, 5);
        assert_eq!(d.inst_retired, 0);
        assert_eq!(d.ext.stall_rob_full, 0, "ext fields saturate too");
        assert!(!after.is_monotonic_since(&before));
        assert!(before.is_monotonic_since(&PmuCounters::default()));
    }
}
