//! Sample sanitization: classify, clamp, hold over, and account.
//!
//! Real counter reads fail in the ways `faults` models (drops, freezes,
//! rollbacks, spikes, zeroes, stale repeats). [`SanitizingSession`] owns
//! the per-app snapshot store that turns cumulative reads into
//! per-quantum deltas, and classifies every sample before the policy
//! sees it:
//!
//! * **Ok** — monotonic, plausible; emitted and remembered as last-good.
//! * **Clamped** — the snapshot went backwards; the delta saturates at
//!   zero per field (see `PmuCounters::delta_since`), is emitted so
//!   downstream accounting keeps a row, but is flagged degraded and never
//!   becomes last-good.
//! * **Held** — the read failed or was implausible (zero-cycle quantum,
//!   `stall_frontend + stall_backend > cpu_cycles`, or a delta exceeding
//!   the per-quantum cycle bound); the last-good delta is replayed if it
//!   is fresh within [`HOLDOVER_TTL`].
//! * **Missing** — the read failed and no fresh last-good exists; no row
//!   is emitted at all.
//!
//! Everything non-Ok lands in the quantum's `degraded` list, and every
//! classification in the session's [`SampleHealth`] totals, which is how
//! the policy guardrails and `RunStats` know what happened. The ladder is
//! a pure per-app state machine — no randomness, no clocks — so a fixed
//! fault schedule yields a byte-identical classification sequence on
//! every engine/thread combination (`docs/robustness.md`).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use synpa_sim::{PmuCounters, PmuDelta};

/// How long (in quanta) a last-good delta may be replayed for an app whose
/// reads keep failing, before the app goes [`SampleStatus::Missing`].
pub const HOLDOVER_TTL: u64 = 3;

/// Classification of one per-app, per-quantum sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SampleStatus {
    /// Monotonic and plausible; safe for prediction.
    Ok,
    /// Non-monotonic snapshot; delta saturated at zero per field. Emitted
    /// but degraded.
    Clamped,
    /// Read failed or implausible; the last-good delta was replayed.
    Held,
    /// Read failed or implausible and no fresh last-good exists; no row
    /// emitted.
    Missing,
}

/// Running tally of sample classifications.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SampleHealth {
    /// Samples classified [`SampleStatus::Ok`].
    pub ok: u64,
    /// Samples classified [`SampleStatus::Clamped`].
    pub clamped: u64,
    /// Samples classified [`SampleStatus::Held`].
    pub held: u64,
    /// Samples classified [`SampleStatus::Missing`].
    pub missing: u64,
}

impl SampleHealth {
    /// All samples ever classified.
    pub fn total(&self) -> u64 {
        self.ok + self.clamped + self.held + self.missing
    }

    /// Samples that were anything but Ok.
    pub fn degraded(&self) -> u64 {
        self.clamped + self.held + self.missing
    }

    fn count(&mut self, status: SampleStatus) {
        match status {
            SampleStatus::Ok => self.ok += 1,
            SampleStatus::Clamped => self.clamped += 1,
            SampleStatus::Held => self.held += 1,
            SampleStatus::Missing => self.missing += 1,
        }
    }
}

/// One sanitized quantum: the rows the policy may consume, and which
/// apps were degraded.
#[derive(Debug, Clone, Default)]
pub struct SanitizedQuantum {
    /// `(app_id, delta)` rows, in request order. Missing apps have no row.
    pub samples: Vec<(usize, PmuDelta)>,
    /// Apps whose sample was anything but Ok this quantum, in request
    /// order.
    pub degraded: Vec<usize>,
}

impl SanitizedQuantum {
    /// True when every requested app sampled Ok.
    pub fn is_clean(&self) -> bool {
        self.degraded.is_empty()
    }
}

/// What the session remembers of one app between quanta.
#[derive(Debug, Clone, Copy)]
struct AppState {
    /// Last cumulative snapshot read (any successful read, whatever its
    /// classification) and the quantum it was read at.
    snapshot: PmuCounters,
    read_at: u64,
    /// Last Ok delta and the quantum it was measured at.
    last_good: Option<(PmuDelta, u64)>,
}

/// The per-quantum counter sampler: one snapshot store with the
/// sanitization ladder in front of the consumer. See the module docs for
/// the classification rules.
#[derive(Debug)]
pub struct SanitizingSession {
    apps: HashMap<usize, AppState>,
    totals: SampleHealth,
    /// Upper bound on plausible cycles per quantum. A delta spanning `g`
    /// quanta may carry at most `(g + 1) * max_cycles_per_quantum` cycles
    /// — the +1 quantum of slack lets a single freeze/stale fault recover
    /// in one quantum instead of cascading (docs/robustness.md walks
    /// through each fault's recovery).
    max_cycles_per_quantum: u64,
}

impl SanitizingSession {
    /// Creates an empty session (first samples are cumulative) for apps
    /// that can accumulate at most `max_cycles_per_quantum` cycles per
    /// quantum. Held deltas expire after [`HOLDOVER_TTL`] quanta.
    pub fn new(max_cycles_per_quantum: u64) -> Self {
        Self {
            apps: HashMap::new(),
            totals: SampleHealth::default(),
            max_cycles_per_quantum,
        }
    }

    /// Samples and sanitizes the given apps at quantum ordinal `quantum`.
    /// `read` returns an app's cumulative counters, or `None` when the
    /// read failed; it is called once per app, in order.
    pub fn sample(
        &mut self,
        app_ids: &[usize],
        quantum: u64,
        mut read: impl FnMut(usize) -> Option<PmuCounters>,
    ) -> SanitizedQuantum {
        let mut out = SanitizedQuantum::default();
        for &id in app_ids {
            let (status, row) = match read(id) {
                None => hold_or_miss(self.apps.get(&id).and_then(|s| s.last_good), quantum),
                Some(now) => {
                    // A first read counts from zero over a one-quantum gap.
                    let state = self.apps.entry(id).or_insert(AppState {
                        snapshot: PmuCounters::default(),
                        read_at: quantum,
                        last_good: None,
                    });
                    let monotonic = now.is_monotonic_since(&state.snapshot);
                    let gap = quantum.saturating_sub(state.read_at).max(1);
                    let delta = now.delta_since(&state.snapshot);
                    state.snapshot = now;
                    state.read_at = quantum;
                    if !monotonic {
                        (SampleStatus::Clamped, Some(delta))
                    } else if is_implausible(&delta, gap, self.max_cycles_per_quantum) {
                        hold_or_miss(state.last_good, quantum)
                    } else {
                        state.last_good = Some((delta, quantum));
                        (SampleStatus::Ok, Some(delta))
                    }
                }
            };
            if let Some(delta) = row {
                out.samples.push((id, delta));
            }
            if status != SampleStatus::Ok {
                out.degraded.push(id);
            }
            self.totals.count(status);
        }
        out
    }

    /// Forgets an app (e.g. it terminated): its snapshot and last-good
    /// state are dropped, so its next read counts from zero. The totals
    /// keep its classifications.
    pub fn forget(&mut self, app_id: usize) {
        self.apps.remove(&app_id);
    }

    /// Classification totals across every app ever sampled.
    pub fn totals(&self) -> SampleHealth {
        self.totals
    }
}

fn is_implausible(delta: &PmuDelta, gap: u64, max_cycles_per_quantum: u64) -> bool {
    delta.cpu_cycles == 0
        || delta.stall_frontend.saturating_add(delta.stall_backend) > delta.cpu_cycles
        || delta.cpu_cycles > gap.saturating_add(1).saturating_mul(max_cycles_per_quantum)
}

/// A failed or implausible read: replay the last-good delta while it is
/// fresh, else the app is missing this quantum.
fn hold_or_miss(
    last_good: Option<(PmuDelta, u64)>,
    quantum: u64,
) -> (SampleStatus, Option<PmuDelta>) {
    match last_good {
        Some((delta, at)) if quantum.saturating_sub(at) <= HOLDOVER_TTL => {
            (SampleStatus::Held, Some(delta))
        }
        _ => (SampleStatus::Missing, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use SampleStatus::{Clamped, Held, Missing, Ok};

    fn cum(cycles: u64, fe: u64, be: u64) -> PmuCounters {
        PmuCounters {
            cpu_cycles: cycles,
            inst_spec: cycles * 2,
            stall_frontend: fe,
            stall_backend: be,
            inst_retired: cycles,
            ..Default::default()
        }
    }

    /// Samples `app` alone at `quantum` with one scripted read. Returns
    /// its classification, read off the totals ledger, and the cycles of
    /// its row (`None` when no row was emitted).
    fn step(
        s: &mut SanitizingSession,
        app: usize,
        quantum: u64,
        read: Option<PmuCounters>,
    ) -> (SampleStatus, Option<u64>) {
        let before = s.totals();
        let out = s.sample(&[app], quantum, |id| {
            assert_eq!(id, app);
            read
        });
        let after = s.totals();
        assert_eq!(after.total(), before.total() + 1, "one classification");
        let status = if after.ok > before.ok {
            Ok
        } else if after.clamped > before.clamped {
            Clamped
        } else if after.held > before.held {
            Held
        } else {
            Missing
        };
        assert_eq!(out.degraded.is_empty(), status == Ok);
        assert!(out.samples.iter().all(|&(id, _)| id == app));
        (status, out.samples.first().map(|(_, d)| d.cpu_cycles))
    }

    #[test]
    fn healthy_reads_are_ok() {
        let mut s = SanitizingSession::new(1000);
        assert_eq!(
            step(&mut s, 7, 0, Some(cum(1000, 100, 200))),
            (Ok, Some(1000))
        );
        assert_eq!(
            step(&mut s, 7, 1, Some(cum(2000, 180, 420))),
            (Ok, Some(1000)),
            "delta, not cumulative"
        );
        assert_eq!(
            s.totals(),
            SampleHealth {
                ok: 2,
                ..Default::default()
            }
        );
    }

    #[test]
    fn rollback_is_clamped_then_recovers() {
        // 1000 → 400 (rollback) → 1400 (truth resumes above the rolled-back
        // snapshot; delta 1000 from the rebased 400).
        let mut s = SanitizingSession::new(1000);
        assert_eq!(step(&mut s, 1, 0, Some(cum(1000, 100, 200))).0, Ok);
        assert_eq!(
            step(&mut s, 1, 1, Some(cum(400, 40, 80))),
            (Clamped, Some(0)),
            "saturated delta"
        );
        assert_eq!(
            step(&mut s, 1, 2, Some(cum(1400, 140, 280))),
            (Ok, Some(1000)),
            "rebased and recovered"
        );
    }

    #[test]
    fn failed_read_holds_last_good_within_ttl_then_misses() {
        let mut s = SanitizingSession::new(1000);
        assert_eq!(step(&mut s, 2, 0, Some(cum(1000, 100, 200))).0, Ok);
        for q in 1..=HOLDOVER_TTL {
            assert_eq!(
                step(&mut s, 2, q, None),
                (Held, Some(1000)),
                "quantum {q}: last-good replayed"
            );
        }
        for q in HOLDOVER_TTL + 1..=HOLDOVER_TTL + 2 {
            assert_eq!(
                step(&mut s, 2, q, None),
                (Missing, None),
                "quantum {q}: TTL expired, no row"
            );
        }
        assert_eq!(
            s.totals(),
            SampleHealth {
                ok: 1,
                held: 3,
                missing: 2,
                ..Default::default()
            }
        );
    }

    #[test]
    fn first_read_failure_is_missing() {
        let mut s = SanitizingSession::new(1000);
        assert_eq!(step(&mut s, 9, 0, None), (Missing, None));
    }

    #[test]
    fn zero_cycle_and_stall_overflow_are_implausible() {
        // Frozen counters: same cumulative twice → zero-cycle delta → Held.
        let mut s = SanitizingSession::new(1000);
        step(&mut s, 3, 0, Some(cum(1000, 100, 200)));
        assert_eq!(step(&mut s, 3, 1, Some(cum(1000, 100, 200))).0, Held);

        // Stall sum exceeding cycles → Held (no last good → Missing here).
        let mut s = SanitizingSession::new(1000);
        assert_eq!(step(&mut s, 4, 0, Some(cum(1000, 700, 600))).0, Missing);
    }

    #[test]
    fn spike_exceeding_cycle_bound_is_held() {
        let mut s = SanitizingSession::new(1000);
        assert_eq!(step(&mut s, 5, 0, Some(cum(1000, 100, 200))).0, Ok);
        assert_eq!(
            step(&mut s, 5, 1, Some(cum(1_000_000_000, 200, 400))),
            (Held, Some(1000)),
            "held the good delta"
        );
    }

    #[test]
    fn missing_gap_widens_the_cycle_bound() {
        // A drop at q1 means q2's true delta spans two quanta; the gap-aware
        // bound must accept it.
        let mut s = SanitizingSession::new(1000);
        assert_eq!(step(&mut s, 6, 0, Some(cum(1000, 100, 200))).0, Ok);
        assert_eq!(step(&mut s, 6, 1, None).0, Held);
        assert_eq!(
            step(&mut s, 6, 2, Some(cum(3000, 300, 600))),
            (Ok, Some(2000)),
            "two quanta of cycles"
        );
    }

    #[test]
    fn forget_drops_state_but_keeps_health() {
        let mut s = SanitizingSession::new(1000);
        step(&mut s, 8, 0, Some(cum(1000, 100, 200)));
        s.forget(8);
        // After forget the 500 reading is a fresh cumulative, not a rollback.
        assert_eq!(step(&mut s, 8, 1, Some(cum(500, 50, 100))), (Ok, Some(500)));
        // Nor is there a last-good left to hold over.
        s.forget(8);
        assert_eq!(step(&mut s, 8, 2, None), (Missing, None));
        assert_eq!(s.totals().ok, 2, "totals survive forget");
    }

    #[test]
    fn totals_sum_across_apps() {
        let mut s = SanitizingSession::new(1000);
        step(&mut s, 1, 0, Some(cum(1000, 100, 200)));
        step(&mut s, 2, 0, None);
        let t = s.totals();
        assert_eq!(t.ok, 1);
        assert_eq!(t.missing, 1);
        assert_eq!(t.total(), 2);
        assert_eq!(t.degraded(), 1);
    }

    #[test]
    fn one_call_reads_each_app_once_in_order() {
        let mut s = SanitizingSession::new(1000);
        let mut reads = Vec::new();
        let out = s.sample(&[4, 2, 9], 0, |id| {
            reads.push(id);
            (id != 9).then(|| cum(1000, 100, 200))
        });
        assert_eq!(reads, [4, 2, 9]);
        let rows: Vec<usize> = out.samples.iter().map(|&(id, _)| id).collect();
        assert_eq!(rows, [4, 2], "request order, no row for the missing app");
        assert_eq!(out.degraded, [9]);
    }

    // The simulator's `Chip::pmu_of` read through the session, the same
    // read path the quantum loop takes.
    fn chip_with_one_app() -> synpa_sim::Chip {
        use synpa_sim::{Chip, ChipConfig, PhaseParams, Slot, UniformProgram};
        let mut chip = Chip::new(ChipConfig::thunderx2(1));
        chip.attach(
            Slot(0),
            3,
            Box::new(UniformProgram::new("a", PhaseParams::compute(), u64::MAX)),
        );
        chip
    }

    fn sample_cycles(session: &mut SanitizingSession, chip: &synpa_sim::Chip, quantum: u64) -> u64 {
        let out = session.sample(&[3], quantum, |id| chip.pmu_of(id).copied());
        assert!(out.is_clean());
        assert_eq!(out.samples.len(), 1);
        assert_eq!(out.samples[0].0, 3);
        out.samples[0].1.cpu_cycles
    }

    #[test]
    fn sampling_session_yields_deltas() {
        let mut chip = chip_with_one_app();
        let mut session = SanitizingSession::new(1000);
        chip.run_cycles(500);
        assert_eq!(sample_cycles(&mut session, &chip, 0), 500);
        chip.run_cycles(250);
        assert_eq!(
            sample_cycles(&mut session, &chip, 1),
            250,
            "delta, not cumulative"
        );
    }

    #[test]
    fn forget_restarts_from_zero() {
        let mut chip = chip_with_one_app();
        let mut session = SanitizingSession::new(1000);
        chip.run_cycles(100);
        sample_cycles(&mut session, &chip, 0);
        session.forget(3);
        chip.run_cycles(50);
        assert_eq!(
            sample_cycles(&mut session, &chip, 1),
            150,
            "cumulative again after forget"
        );
    }
}
