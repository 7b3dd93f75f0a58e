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
//!   The two differ only in completions, the admission bound and recovery
//!   (see `docs/service.md`);
//! * [`RunStats`] — the one accounting record both front ends return;
//! * [`RowLog`] — a policy decorator that records one [`QuantumRow`] per
//!   sampled app per quantum (Figs. 6/7, Table V); the loop keeps none;
//! * [`run_cell`] / [`prepare_workload`] — the repetition + outlier-discard
//!   experiment driver, with calibration memoized per [`ExperimentConfig`]
//!   ([`exemplar_rows`] re-runs a cell's exemplar for its rows).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chipfaults;
mod manager;
mod policy;
mod runner;
mod service;
mod stats;

pub use manager::{
    first_free_slot, run_workload, run_workload_with_arrivals, AppResult, ManagerConfig, RunResult,
};
pub use policy::{
    units_to_slots, GreedySynpa, GuardrailStats, LinuxLike, OracleSynpa, Policy, QuantumRow,
    QuantumView, RandomPairing, RowLog, StaticPairs, Synpa,
};
pub use runner::{
    calibrate_apps, cv, discard_outliers, exemplar_rows, prepare_workload, run_cell,
    CalibrationMemo, CellOutcome, ExperimentConfig, PreparedWorkload,
};
pub use service::{run_service, ServiceApp, ServiceConfig, ServiceResult};
pub use stats::RunStats;
pub use synpa_matching::MatcherStats;
pub use synpa_sim::parallel_map;
