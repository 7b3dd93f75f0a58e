//! The one accounting record of a managed run.
//!
//! The quantum loop owns a [`RunStats`] and counts into it where each
//! event happens; what other layers keep themselves (the sanitizer's
//! sample ledger, the injector's per-kind counts, the policy's matcher and
//! guardrail counters) is copied in once, at the end of the run. Every
//! field is derived from the seeded plans and deterministic scheduler
//! state, so the record is engine- and thread-count-independent like every
//! other result field.

use crate::policy::GuardrailStats;
use serde::{Deserialize, Serialize};
use synpa_counters::{FaultKind, InjectedCounts, SampleHealth};

/// Counters of one run: sample health, injected faults, policy guardrails,
/// the pairing matcher, execution faults and recovery, and censoring.
///
/// Derives serde with no defaults: a cached record from before a field
/// existed fails to parse and is recomputed, never loaded with fabricated
/// zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunStats {
    /// The sanitizer's classification of every sample.
    pub samples: SampleHealth,
    /// Quanta with at least one non-Ok sample.
    pub degraded_quanta: u64,
    /// Counter faults injected, indexed by `kind as usize`.
    pub injected: InjectedCounts,
    /// The policy's fallback counts (zero for policies without
    /// guardrails).
    pub guardrails: GuardrailStats,
    /// Pairing quanta (decisions that reached pair selection; 0 for
    /// policies without a matcher). Always `matcher_bound +
    /// matcher_solves`.
    pub matcher_calls: u64,
    /// Pairing quanta the lower bound answered (no blossom solve).
    pub matcher_bound: u64,
    /// Blossom solves.
    pub matcher_solves: u64,
    /// Cores taken out of service permanently.
    pub cores_offlined: u64,
    /// Transient core outages (the core later returned to service).
    pub cores_transient: u64,
    /// Cores with their dispatch width derated (counted once per core).
    pub cores_throttled: u64,
    /// Apps evacuated off a failing core at a quantum boundary.
    pub apps_evacuated: u64,
    /// App crash events (each retry that re-crashes counts again). Open
    /// system only, like the three counters after it: the closed batch
    /// re-queues evacuees with no retry cap.
    pub apps_crashed: u64,
    /// App hang events caught by the watchdog (each retry that re-hangs
    /// counts again).
    pub apps_hung: u64,
    /// Retries granted (an evicted app re-entered the admission queue).
    pub retries: u64,
    /// Apps that exhausted their retry budget and were reported failed.
    pub failed: u64,
    /// Apps with no terminal outcome when the run stopped: neither
    /// completed, shed nor failed. Nonzero only when the quanta cap cut
    /// the run off; their TT and IPC are censored observations.
    pub censored: u64,
}

impl RunStats {
    /// Total counter faults injected across all kinds.
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// One-line counter-fault summary (the `faults:` row of the experiment
    /// tables): injected per kind, classification totals, fallback counts.
    pub fn faults_summary(&self) -> String {
        let per_kind = FaultKind::ALL
            .iter()
            .map(|&k| format!("{} {}", k.name(), self.injected[k as usize]))
            .collect::<Vec<_>>()
            .join(" ");
        format!(
            "injected {} ({per_kind}), quanta degraded {}, samples ok {} clamped {} held {} \
             missing {}, fallback entries {} quanta {}",
            self.injected_total(),
            self.degraded_quanta,
            self.samples.ok,
            self.samples.clamped,
            self.samples.held,
            self.samples.missing,
            self.guardrails.fallback_entries,
            self.guardrails.fallback_quanta,
        )
    }

    /// One-line execution-fault summary (the `chip faults:` row of the
    /// experiment tables).
    pub fn chip_faults_summary(&self) -> String {
        format!(
            "cores offlined {} transient {} throttled {}, apps evacuated {} crashed {} hung {}, \
             retries {} failed {}",
            self.cores_offlined,
            self.cores_transient,
            self.cores_throttled,
            self.apps_evacuated,
            self.apps_crashed,
            self.apps_hung,
            self.retries,
            self.failed,
        )
    }
}
