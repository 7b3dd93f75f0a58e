//! The counter-source abstraction.
//!
//! The paper's manager reads the four Table I events through Linux `perf`;
//! this crate's [`CounterSource`] trait plays that role. The SYNPA policy in
//! `synpa-sched` is written only against this trait, so a real
//! `perf_event_open` backend could be slotted in on ARM hardware without
//! touching any policy code (see `docs/simulation.md`).

use synpa_sim::{Chip, PmuCounters, PmuDelta};

/// Anything that can report cumulative PMU counters for an application.
pub trait CounterSource {
    /// Cumulative counters of `app_id`, or `None` if it is not running.
    fn read_counters(&self, app_id: usize) -> Option<PmuCounters>;
}

impl CounterSource for Chip {
    fn read_counters(&self, app_id: usize) -> Option<PmuCounters> {
        self.pmu_of(app_id).copied()
    }
}

/// Per-quantum delta sampler.
///
/// Keeps the previous snapshot per application and produces deltas, exactly
/// like a `perf` session read at every quantum boundary.
#[derive(Debug, Default)]
pub struct SamplingSession {
    last: std::collections::HashMap<usize, PmuCounters>,
}

impl SamplingSession {
    /// Creates an empty session (first samples are cumulative).
    pub fn new() -> Self {
        Self::default()
    }

    /// Samples the given apps, returning `(app_id, delta)` for each one the
    /// source currently knows. The first sample of an app yields its full
    /// cumulative counts (delta from zero).
    pub fn sample<S: CounterSource + ?Sized>(
        &mut self,
        source: &S,
        app_ids: &[usize],
    ) -> Vec<(usize, PmuDelta)> {
        let mut out = Vec::with_capacity(app_ids.len());
        for &id in app_ids {
            let Some(now) = source.read_counters(id) else {
                continue;
            };
            out.push((id, self.observe(id, now)));
        }
        out
    }

    /// Records one cumulative snapshot for an app and returns the delta
    /// since the previous one (full cumulative counts on the first
    /// observation). This is [`SamplingSession::sample`] for a single
    /// already-read snapshot — the sanitizing layer uses it so rollback
    /// detection and rebasing share one snapshot store.
    pub fn observe(&mut self, app_id: usize, now: PmuCounters) -> PmuDelta {
        let prev = self.last.insert(app_id, now);
        now.delta_since(&prev.unwrap_or_default())
    }

    /// The last cumulative snapshot recorded for an app, if any.
    pub fn last_of(&self, app_id: usize) -> Option<PmuCounters> {
        self.last.get(&app_id).copied()
    }

    /// Forgets an app (e.g. it terminated); its next sample restarts from
    /// zero.
    pub fn forget(&mut self, app_id: usize) {
        self.last.remove(&app_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synpa_sim::{ChipConfig, PhaseParams, Slot, UniformProgram};

    fn chip_with_one_app() -> Chip {
        let mut chip = Chip::new(ChipConfig::thunderx2(1));
        chip.attach(
            Slot(0),
            3,
            Box::new(UniformProgram::new("a", PhaseParams::compute(), u64::MAX)),
        );
        chip
    }

    #[test]
    fn chip_implements_counter_source() {
        let mut chip = chip_with_one_app();
        chip.run_cycles(100);
        let c = chip.read_counters(3).unwrap();
        assert_eq!(c.cpu_cycles, 100);
        assert!(chip.read_counters(99).is_none());
    }

    #[test]
    fn sampling_session_yields_deltas() {
        let mut chip = chip_with_one_app();
        let mut session = SamplingSession::new();
        chip.run_cycles(500);
        let first = session.sample(&chip, &[3]);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].1.cpu_cycles, 500);
        chip.run_cycles(250);
        let second = session.sample(&chip, &[3]);
        assert_eq!(second[0].1.cpu_cycles, 250, "delta, not cumulative");
    }

    #[test]
    fn unknown_apps_are_skipped() {
        let chip = chip_with_one_app();
        let mut session = SamplingSession::new();
        let out = session.sample(&chip, &[3, 42]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 3);
    }

    #[test]
    fn forget_restarts_from_zero() {
        let mut chip = chip_with_one_app();
        let mut session = SamplingSession::new();
        chip.run_cycles(100);
        session.sample(&chip, &[3]);
        session.forget(3);
        chip.run_cycles(50);
        let out = session.sample(&chip, &[3]);
        assert_eq!(out[0].1.cpu_cycles, 150, "cumulative again after forget");
    }
}
