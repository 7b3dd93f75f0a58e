//! Cycle-advancement engines for [`Chip`]: the retained cycle-by-cycle
//! reference loop and the per-core *event-horizon* engine with LLC-epoch
//! rendezvous.
//!
//! The horizon engine exploits a structural property of the pipeline model:
//! in a cycle where a core's hardware threads neither fetch, dispatch,
//! retire nor report a completion, the only state the reference loop
//! mutates *for that core* is
//!
//! * per-thread `CPU_CYCLES` plus exactly one stall counter pair (the
//!   architectural `STALL_FRONTEND`/`STALL_BACKEND` and its extended
//!   attribution), whose classification is constant while the thread stays
//!   blocked for the same reason;
//! * one zero-fill step of the per-thread DRAM-demand EWMA;
//! * the MSHR fill queues and the memory model's timing wheel, which are
//!   unobservable until the next access and advance correctly under
//!   arbitrary jumps.
//!
//! Crucially, an inert core touches **no shared state**: LLC lookups and
//! DRAM accesses only happen on fetch or dispatch, which an inert cycle by
//! definition does not perform ([`crate::core::StepOutcome`] surfaces the
//! shared-state touches explicitly, and the engines assert the implication).
//! A stalled core's evolution up to its own wake event is therefore a pure
//! function of core-local state — independent of anything its neighbours
//! do — which is what licenses the per-core engine to fast-forward one
//! core while others keep stepping.
//!
//! Cycles in which shared state can move — *interaction windows* — always
//! run through the reference `Core::step` path, in reference order
//! (ascending cycle, ascending core index within a cycle), which is why
//! both engines are bit-identical on every counter (see `docs/engine.md`
//! and the `engine_equivalence` differential test wall).

use crate::chip::Chip;
use crate::config::ChipConfig;
use crate::core::Core;
use crate::thread::Completion;

/// Which engine [`Chip::run_cycles`]/[`Chip::run_until`] advances time with.
///
/// Both engines produce bit-identical [`crate::PmuCounters`], completions
/// and downstream `RunResult`s for every seed and chip size; the choice is
/// purely a performance knob. `PerCore` is the default; `Reference` retains
/// the original loop as the differential oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Step every core one cycle at a time (the original loop).
    Reference,
    /// Per-core horizon engine: each core fast-forwards independently to
    /// its own wake event while active cores rendezvous every cycle, so
    /// shared-state (LLC/DRAM) interleaving is preserved exactly.
    PerCore,
}

impl EngineKind {
    /// Every engine, in documentation order.
    pub const ALL: [EngineKind; 2] = [EngineKind::Reference, EngineKind::PerCore];

    /// Stable lowercase name (CLI flags, reports).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Reference => "reference",
            EngineKind::PerCore => "percore",
        }
    }

    /// Inverse of [`EngineKind::name`]. Returns a descriptive error naming
    /// the valid engines, so CLI callers never default silently.
    pub fn parse(name: &str) -> Result<EngineKind, String> {
        match name {
            "reference" => Ok(EngineKind::Reference),
            "percore" | "per-core" => Ok(EngineKind::PerCore),
            other => Err(format!(
                "unknown engine '{other}' (valid: reference, percore)"
            )),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Diagnostic tallies of how an engine advanced time, accumulated across
/// `run_until` calls. Core-cycles are counted per (core, cycle) pair:
/// `stepped + elided` equals `cores × cycles simulated` for every engine,
/// and the split shows how much work the horizon machinery avoided. Not an
/// observable of the simulation (never part of the equivalence contract).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Core-cycles executed through the exact per-cycle step path.
    pub stepped: u64,
    /// Core-cycles advanced in closed form (fast-forwarded).
    pub elided: u64,
}

/// One exact `Core::step` with the touch-faithfulness cross-checks every
/// engine's rendezvous reasoning relies on: in debug builds the reported
/// LLC/DRAM flags are verified against the LLC lookup clock and the DRAM
/// access count, and an inert outcome is asserted to have touched nothing
/// shared — so a future model change that misreports a shared touch trips
/// an assertion (and the differential wall) instead of corrupting
/// results. Both engines step through this one helper, so the checks can
/// never drift apart between them.
fn checked_step(
    core: &mut Core,
    now: u64,
    cfg: &ChipConfig,
    llc: &mut crate::cache::Cache,
    mem: &mut crate::mem::Memory,
    events: &mut Vec<Completion>,
) -> crate::core::StepOutcome {
    #[cfg(debug_assertions)]
    let before = (llc.lookups(), mem.accesses());
    let out = core.step(now, cfg, llc, mem, events);
    #[cfg(debug_assertions)]
    {
        let after = (llc.lookups(), mem.accesses());
        debug_assert_eq!(out.llc, after.0 != before.0, "LLC touch misreported");
        debug_assert_eq!(out.dram, after.1 != before.1, "DRAM touch misreported");
    }
    debug_assert!(
        out.active || !out.touched_shared(),
        "inert step touched shared LLC/DRAM state"
    );
    out
}

/// The retained reference loop: every cycle steps every online core.
/// Offline cores are excluded wholesale — stepping an (empty, by the
/// `run_until` assert) offline core would be a proven no-op, so exclusion
/// is byte-identical — and their core-cycles are accounted as elided.
pub(crate) fn run_reference(chip: &mut Chip, end: u64) -> Vec<Completion> {
    let start = chip.cycle;
    let n_off = chip.offline.iter().filter(|&&off| off).count() as u64;
    while chip.cycle < end {
        chip.mem.tick(chip.cycle);
        for (core, &off) in chip.cores.iter_mut().zip(chip.offline.iter()) {
            if off {
                continue;
            }
            checked_step(
                core,
                chip.cycle,
                &chip.cfg,
                &mut chip.llc,
                &mut chip.mem,
                &mut chip.events,
            );
        }
        chip.cycle += 1;
    }
    let span = end.saturating_sub(start);
    chip.stats.stepped += span * (chip.cores.len() as u64 - n_off);
    chip.stats.elided += span * n_off;
    std::mem::take(&mut chip.events)
}

/// Fast-forwards an inert core in closed form: the window `[first, wake)`
/// is elided (`first` is the cycle after the inert step, the first one the
/// reference loop will never execute exactly), and the returned resume time
/// is the core's wake event clamped into `[first, end]`. Every wake event
/// is strictly future anyway (an arrived event would have made the cycle
/// active), the clamp is defensive.
fn park_inert(core: &mut Core, cfg: &ChipConfig, first: u64, end: u64, elided: &mut u64) -> u64 {
    let wake = core.wake_event(&cfg.core).min(end).max(first);
    if wake > first {
        core.fast_forward(wake - first, first, cfg);
        *elided += wake - first;
    }
    wake
}

/// The per-core horizon engine with shared-state rendezvous epochs.
///
/// Each core carries its own *resume* time: the first cycle at which it
/// must be stepped exactly again. A core whose step comes back inert
/// immediately fast-forwards in closed form to
/// `min(own wake event, quantum end)` and is skipped until then;
/// a core that acted is due again next cycle. The global clock advances to
/// the earliest resume time (the *epoch rendezvous*), so every cycle in
/// which *any* core can touch the shared LLC, the DRAM timing wheel or
/// report a completion is executed exactly, with the cores stepped in
/// reference order. Shared-state interleaving — LLC LRU/fill order, DRAM
/// queue occupancy, completion order — is therefore bit-identical to the
/// reference loop, while stalled or empty cores cost nothing during their
/// windows even when their neighbours stay busy (the full-chip regime).
///
/// The next epoch's cycle is a *cached minimum* carried through the
/// stepping sweep itself — skipped cores contribute their (unchanged)
/// resume times, stepped cores their fresh ones — so no separate O(cores)
/// `min` scan runs per epoch.
pub(crate) fn run_percore(chip: &mut Chip, end: u64) -> Vec<Completion> {
    let mut resume = vec![chip.cycle; chip.cores.len()];
    let (mut stepped, mut elided) = (0u64, 0u64);
    // Offline cores never become due: their whole window is elided up
    // front, which keeps the stepped+elided partition exact.
    for (due, &off) in resume.iter_mut().zip(chip.offline.iter()) {
        if off {
            *due = end;
            elided += end.saturating_sub(chip.cycle);
        }
    }
    let mut now = chip.cycle;
    while now < end {
        chip.mem.tick(now);
        let mut next = end;
        for (core, due) in chip.cores.iter_mut().zip(resume.iter_mut()) {
            if *due > now {
                next = next.min(*due);
                continue;
            }
            stepped += 1;
            let out = checked_step(
                core,
                now,
                &chip.cfg,
                &mut chip.llc,
                &mut chip.mem,
                &mut chip.events,
            );
            *due = if out.active {
                now + 1
            } else {
                park_inert(core, &chip.cfg, now + 1, end, &mut elided)
            };
            next = next.min(*due);
        }
        now = next;
    }
    // Loop exit means every core's resume time reached `end` (wake events
    // are clamped there), i.e. all cores are advanced through `end - 1`.
    chip.cycle = chip.cycle.max(end);
    chip.stats.stepped += stepped;
    chip.stats.elided += elided;
    std::mem::take(&mut chip.events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{PhaseParams, UniformProgram};
    use crate::{Chip, ChipConfig, Slot};

    /// Memory-bound demand: long DRAM stalls, lots of inert cycles.
    fn mem_phase() -> PhaseParams {
        PhaseParams {
            mem_ratio: 0.45,
            data_footprint: 16 << 20,
            data_seq: 0.05,
            code_footprint: 1024,
            code_hot: 1.0,
            br_misp_rate: 0.0002,
            exec_latency: 1,
            mlp: 0.3,
        }
    }

    fn chip(engine: EngineKind, apps: usize, cores: u32) -> Chip {
        let mut chip = Chip::new(ChipConfig::thunderx2(cores).with_engine(engine));
        for i in 0..apps {
            chip.attach(
                Slot(i),
                i,
                Box::new(UniformProgram::new(format!("p{i}"), mem_phase(), u64::MAX)),
            );
        }
        chip
    }

    #[test]
    fn stats_partition_every_core_cycle() {
        // For every engine, each (core, cycle) pair is either stepped
        // exactly or advanced in closed form — never both, never neither.
        for engine in EngineKind::ALL {
            let mut c = chip(engine, 3, 4);
            c.run_cycles(10_000);
            c.run_cycles(2_500);
            let s = c.engine_stats();
            assert_eq!(s.stepped + s.elided, 4 * 12_500, "{engine}: {s:?}");
        }
    }

    #[test]
    fn reference_never_elides_and_percore_elides_most() {
        let elided = |engine| {
            let mut c = chip(engine, 2, 4);
            c.run_cycles(20_000);
            c.engine_stats()
        };
        let r = elided(EngineKind::Reference);
        let p = elided(EngineKind::PerCore);
        assert_eq!(r.elided, 0);
        // Both threads sit on core 0; cores 1-3 are empty for the whole
        // run, and the per-core engine skips them while core 0 is busy.
        assert!(
            p.elided >= 3 * 19_000,
            "empty cores must be skipped wholesale: {p:?}"
        );
    }

    /// Offline-core exclusion is part of the equivalence contract: with a
    /// core out of service, every engine still produces bit-identical
    /// completions and PMU counters, and the stepped+elided partition
    /// stays exact (the offline core's cycles all land in `elided`).
    #[test]
    fn offline_core_is_byte_identical_across_engines() {
        let run = |engine: EngineKind| {
            let mut c = Chip::new(ChipConfig::thunderx2(4).with_engine(engine));
            for i in 0..4 {
                let p = if i % 2 == 0 {
                    mem_phase()
                } else {
                    PhaseParams::compute()
                };
                c.attach(
                    Slot(i),
                    i,
                    Box::new(UniformProgram::new(format!("p{i}"), p, 20_000)),
                );
            }
            c.set_core_offline(3);
            c.set_core_width_limit(2, Some(2));
            let mut completions = Vec::new();
            for _ in 0..4 {
                completions.extend(c.run_cycles(5_000));
            }
            let pmus: Vec<_> = (0..4).map(|i| *c.pmu_of(i).unwrap()).collect();
            let s = c.engine_stats();
            assert_eq!(s.stepped + s.elided, 4 * 20_000, "{engine}: {s:?}");
            assert!(
                s.elided >= 20_000,
                "{engine}: offline core not elided {s:?}"
            );
            (completions, pmus)
        };
        assert_eq!(run(EngineKind::Reference), run(EngineKind::PerCore));
    }

    /// A hung thread wedges identically in every engine: cycles keep
    /// accumulating, retirement stops, and the co-runner is unaffected
    /// relative to the reference loop.
    #[test]
    fn hung_thread_is_byte_identical_across_engines() {
        let run = |engine: EngineKind| {
            let mut c = Chip::new(ChipConfig::thunderx2(2).with_engine(engine));
            for i in 0..3 {
                c.attach(
                    Slot(i),
                    i,
                    Box::new(UniformProgram::new(format!("p{i}"), mem_phase(), u64::MAX)),
                );
            }
            c.run_cycles(5_000);
            c.hang_app(1);
            c.run_cycles(15_000);
            let s = c.engine_stats();
            assert_eq!(s.stepped + s.elided, 2 * 20_000, "{engine}: {s:?}");
            (0..3).map(|i| *c.pmu_of(i).unwrap()).collect::<Vec<_>>()
        };
        let reference = run(EngineKind::Reference);
        assert_eq!(reference[1].cpu_cycles, 20_000);
        assert_eq!(reference, run(EngineKind::PerCore));
    }
}
