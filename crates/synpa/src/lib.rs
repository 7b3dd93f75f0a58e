//! # SYNPA — SMT Performance Analysis and Thread-to-Core Allocation
//!
//! A complete reproduction of *"SYNPA: SMT Performance Analysis and
//! Allocation of Threads to Cores in ARM Processors"* (IPDPS 2024) in Rust,
//! including every substrate the paper depends on:
//!
//! | layer | crate | what it provides |
//! |---|---|---|
//! | processor | [`sim`] | cycle-approximate SMT2 multicore (ThunderX2-like) with the four ARMv8.1 PMU events |
//! | applications | [`apps`] | 28 SPEC-CPU-like phase models + the 20-workload evaluation suite |
//! | counters | [`counters`] | the `perf`-like sampling seam + trace record/replay |
//! | model | [`model`] | 3-category dispatch characterization, Equation-1 regression, inversion, training |
//! | matching | [`matching`] | Edmonds' Blossom minimum-cost perfect pairing |
//! | policy | [`sched`] | the SYNPA policy, Linux-like/Random/Oracle baselines, the quantum manager |
//! | metrics | [`metrics`] | TT speedup, fairness, IPC geomean, ANTT/STP |
//!
//! ## Quickstart
//!
//! ```no_run
//! use synpa::prelude::*;
//!
//! // Train the model on a subset of applications (paper §IV-C).
//! let apps: Vec<_> = synpa::apps::spec::catalog().into_iter().take(8).collect();
//! let report = synpa::model::training::train(&apps, &Default::default(), 4).unwrap();
//!
//! // Run a workload under SYNPA and under the Linux-like baseline.
//! let cfg = ExperimentConfig::default();
//! let workload = synpa::apps::workload::by_name("fb2").unwrap();
//! let prepared = prepare_workload(&workload, &cfg);
//! let linux = run_cell(&prepared, |_| Box::new(LinuxLike), &cfg);
//! let synpa_run = run_cell(&prepared, |_| Box::new(Synpa::new(report.model)), &cfg);
//! println!("TT speedup: {:.3}", tt_speedup(linux.tt_mean, synpa_run.tt_mean));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use synpa_apps as apps;
pub use synpa_counters as counters;
pub use synpa_matching as matching;
pub use synpa_metrics as metrics;
pub use synpa_model as model;
pub use synpa_sched as sched;
pub use synpa_sim as sim;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use synpa_apps::workload::{bursty_trace, poisson_trace, ArrivalTrace};
    pub use synpa_apps::{spec, workload, AppProfile, Fractions, Group, Workload};
    pub use synpa_counters::{FaultConfig, FaultKind, FaultRates, SampleStatus, SanitizingSession};
    pub use synpa_matching::min_cost_pairing;
    pub use synpa_metrics::{fairness, geomean, tt_speedup, workload_ipc};
    pub use synpa_model::training::{train, TrainingConfig};
    pub use synpa_model::{Categories, SynpaModel};
    pub use synpa_sched::{
        exemplar_rows, prepare_workload, run_cell, run_service, run_workload,
        run_workload_with_arrivals, ExperimentConfig, GuardrailStats, LinuxLike, ManagerConfig,
        OracleSynpa, Policy, QuantumRow, RandomPairing, RowLog, RunStats, ServiceApp,
        ServiceConfig, ServiceResult, Synpa,
    };
    pub use synpa_sim::{Chip, ChipConfig, ChipFaultConfig, EngineKind, PmuCounters, Slot};
}
