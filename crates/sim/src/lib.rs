//! # synpa-sim — SMT multicore simulator substrate
//!
//! A cycle-approximate simulator of an SMT2 ARM server processor
//! (ThunderX2-like, Table II of the SYNPA paper), built so that the SYNPA
//! thread-allocation policy can be reproduced without the paper's hardware.
//!
//! The simulator's contract with the rest of the workspace is narrow and
//! mirrors what the real machine offers the paper's user-level manager:
//!
//! * applications are opaque demand generators ([`ThreadProgram`]);
//! * the only observable state is the per-hardware-thread PMU
//!   ([`PmuCounters`]) exposing the four ARMv8.1 events of Table I;
//! * control is limited to thread placement ([`Chip::set_placement`], the
//!   `sched_setaffinity` analogue) and running cycles.
//!
//! Interference between co-runners is *mechanistic*, not modelled by the
//! paper's equations: threads share the dispatch width, the ROB/LSQ, the
//! per-core cache arrays, the single-ported I-cache and the DRAM bandwidth.
//! The regression model of `synpa-model` therefore has genuine prediction
//! error, as on real hardware.
//!
//! ```
//! use synpa_sim::{Chip, ChipConfig, Slot, UniformProgram, PhaseParams};
//!
//! let mut chip = Chip::new(ChipConfig::thunderx2(1));
//! chip.attach(Slot(0), 0, Box::new(UniformProgram::new(
//!     "demo", PhaseParams::compute(), 100_000)));
//! chip.run_cycles(10_000);
//! let pmu = chip.pmu_of(0).unwrap();
//! assert_eq!(pmu.cpu_cycles, 10_000);
//! assert!(pmu.inst_spec > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod chip;
mod config;
mod core;
mod engine;
mod faults;
mod mem;
mod parallel;
mod pmu;
mod program;
mod rng;
mod stream;
mod thread;

pub use chip::{Chip, Slot, SMT_CONTEXTS};
pub use config::{CacheConfig, ChipConfig, CoreConfig};
pub use engine::{EngineKind, EngineStats};
pub use faults::{parse_seed_rate, AppFault, ChipFaultConfig, CoreFault};
pub use parallel::parallel_map;
pub use pmu::{Event, ExtCounters, PmuCounters, PmuDelta};
pub use program::{PhaseParams, ThreadProgram, UniformProgram};
pub use rng::SplitMix64;
pub use thread::{Completion, HwThread};
