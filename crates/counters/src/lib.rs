//! # synpa-counters — performance-counter sampling
//!
//! The paper's SYNPA prototype is a user-level manager that configures and
//! reads ARM PMU counters through Linux `perf`. This crate is the
//! equivalent per-quantum read path in the reproduction:
//!
//! * [`SanitizingSession`] — the one sampler: it takes each app's
//!   cumulative Table I counters (`CPU_CYCLES`, `INST_SPEC`,
//!   `STALL_FRONTEND`, `STALL_BACKEND`) from a read closure, turns them
//!   into per-quantum deltas, classifies each sample (ok / clamped / held
//!   / missing), clamps rollbacks, holds over last-good deltas, and keeps
//!   a [`SampleHealth`] totals ledger (see `docs/robustness.md`). The
//!   simulator's `Chip::pmu_of` feeds the closure today; a
//!   `perf_event_open` backend on real ARM hardware would feed it the same
//!   way.
//! * [`FaultInjector`] — seeded, deterministic counter faults (dropped
//!   reads, freezes, rollbacks, spikes, zeroes, stale repeats) applied to
//!   each true reading on its way to the sanitizer, for chaos testing the
//!   whole pipeline; [`FaultConfig::kind_at`] is the pure fault plan.
//! * [`TraceWriter`] / [`TraceReplay`] — record deltas to a JSON-lines trace
//!   and replay them later, so model training can run offline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod faults;
mod replay;
mod sanitize;

pub use faults::{FaultConfig, FaultInjector, FaultKind, FaultRates, InjectedCounts};
pub use replay::{read_trace, QuantumRecord, TraceError, TraceReplay, TraceWriter};
pub use sanitize::{SampleHealth, SampleStatus, SanitizedQuantum, SanitizingSession, HOLDOVER_TTL};
