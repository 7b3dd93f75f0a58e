//! # synpa-sched — the SYNPA thread-allocation policy and its baselines
//!
//! The paper's user-level manager (§V-A) rebuilt against the simulator:
//!
//! * [`Policy`] — the per-quantum decision interface (counters in,
//!   placement out);
//! * [`Synpa`] — the full policy of §IV-B: characterize → invert → predict
//!   every pair → Blossom-optimal pairing;
//! * [`LinuxLike`] — the arrival-order static baseline the paper compares
//!   against, plus [`RandomPairing`] and [`OracleSynpa`] ablations;
//! * [`run_workload`] — the closed-batch front end of the quantum loop,
//!   with the §V-B relaunch methodology;
//! * [`run_service`] — the open-system front end of the same loop:
//!   streaming arrivals through a bounded admission queue, detach on
//!   completion, re-pairing under churn, turnaround/sojourn latencies.
//!   The two differ only in what a completion does, the admission bound
//!   and how evicted apps recover (see `docs/service.md`);
//! * [`run_cell`] / [`prepare_workload`] — the repetition + outlier-discard
//!   experiment driver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chipfaults;
mod manager;
mod policy;
mod runner;
mod service;

pub use chipfaults::ChipFaultStats;
pub use manager::{
    first_free_slot, run_workload, run_workload_with_arrivals, AppResult, DegradedStats,
    ManagerConfig, QuantumRow, RunResult,
};
pub use policy::{
    pairs_to_slots, units_to_slots, GreedySynpa, GuardrailStats, LinuxLike, OracleSynpa, Policy,
    QuantumView, RandomPairing, StaticPairs, Synpa,
};
pub use runner::{
    cv, discard_outliers, parallel_map, prepare_workload, run_cell, CellOutcome, ExperimentConfig,
    PreparedWorkload,
};
pub use service::{run_service, ServiceApp, ServiceConfig, ServiceResult};
pub use synpa_matching::MatcherStats;
