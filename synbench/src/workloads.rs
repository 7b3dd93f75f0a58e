//! The three workloads: their inputs (made from the seed), their set-up,
//! and one measured pass over every Linux and SYNPA run.

use crate::probe::{Probe, ProbeMode, RecordedView, RunRecord, Sink};
use crate::speed::Speed;
use crate::stats::{derive_seed, fnv1a};
use std::time::Instant;
use synpa::apps::workload::{poisson_trace, random_workload, standard_suite, WorkloadKind};
use synpa::prelude::*;
use synpa::sched::{CellOutcome, PreparedWorkload};
use synpa::sim::ThreadProgram;
use synpa_experiments::training_split;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Three 56-app mixes on the 28-core chip, closed batch.
    FullChip56,
    /// The paper's 20-workload suite on the 4-core chip.
    Paper8,
    /// A Poisson trace at rho 0.8 through the open-system service.
    Open08,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::FullChip56, Kind::Paper8, Kind::Open08];

    pub fn name(self) -> &'static str {
        match self {
            Kind::FullChip56 => "fullchip56",
            Kind::Paper8 => "paper8",
            Kind::Open08 => "open08",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Worker threads for training, calibration and runs. Every workload runs
/// on one worker: on a shared 2-CPU machine two workers amplify
/// interference from anything else running (see synbench/README.md for the
/// measurement behind this).
pub const WORKERS: usize = 1;

/// Repetitions per closed-batch cell. More mixes steady the simulated
/// metrics more than more repetitions of one mix do.
const REPS: u32 = 1;
/// 56-app mixes per fullchip56 pass; several average out how much one mix
/// happens to favour SYNPA.
const FULLCHIP_MIXES: u64 = 3;
/// Seed of the fullchip56 mixes. The mixes are fixed because the cost of
/// simulating a mix varies by a third between mixes: with mixes drawn from
/// the benchmark seed, `wall_s` measured the draw more than the program.
const FULLCHIP_MIX_SEED: u64 = 0x0F00_C056;
/// Arrivals in the open08 trace.
const OPEN_ARRIVALS: usize = 1500;
const OPEN_RHO: f64 = 0.8;
const OPEN_ARRIVAL_SEED: u64 = 0x0010_AD08;

/// Salts separating the seeds derived for each use.
const SALT_REPS: u64 = 1;
const SALT_TRACE: u64 = 2;
const SALT_ORDER: u64 = 3;

/// Seeded Fisher-Yates shuffle.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let order = derive_seed(seed, SALT_ORDER);
    for i in (1..items.len()).rev() {
        let j = (derive_seed(order, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Paper Fig. 5 family averages, as cited by `fig5_turnaround`.
pub fn paper_speedup(kind: WorkloadKind) -> f64 {
    match kind {
        WorkloadKind::BackendIntensive => 1.18,
        WorkloadKind::FrontendIntensive => 1.08,
        WorkloadKind::Mixed => 1.36,
    }
}

pub enum Inputs {
    Closed {
        cfg: ExperimentConfig,
        prepared: Vec<PreparedWorkload>,
    },
    Open {
        cfg: ServiceConfig,
        prepared: PreparedWorkload,
    },
}

pub struct Setup {
    pub model: SynpaModel,
    pub train_s: f64,
    pub calibrate_s: f64,
    pub inputs: Inputs,
}

impl Setup {
    /// Hash of everything set-up produced; equal across set-up repetitions.
    pub fn fingerprint(&self) -> u64 {
        let prepared: Vec<&PreparedWorkload> = match &self.inputs {
            Inputs::Closed { prepared, .. } => prepared.iter().collect(),
            Inputs::Open { prepared, .. } => vec![prepared],
        };
        let calibrated: Vec<(Vec<u64>, &Vec<f64>)> = prepared
            .iter()
            .map(|p| (p.apps.iter().map(|a| a.length()).collect(), &p.solo_ipc))
            .collect();
        fnv1a(format!("{:?}{:?}", self.model, calibrated).as_bytes())
    }
}

/// Trains the model in-process (no `results/` cache) and calibrates the
/// workload's apps (no cell cache), timing the two separately.
pub fn setup(kind: Kind, seed: u64) -> Setup {
    let t0 = Instant::now();
    let (train_set, _) = training_split();
    let model = train(&train_set, &TrainingConfig::default(), WORKERS)
        .expect("the training split fits")
        .model;
    let train_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let inputs = match kind {
        Kind::FullChip56 => {
            let chip = ChipConfig::thunderx2_full();
            let size = chip.hw_threads();
            let cfg = ExperimentConfig {
                manager: ManagerConfig {
                    chip,
                    quantum_cycles: 10_000,
                    max_quanta: 3_000,
                    faults: None,
                    chip_faults: None,
                },
                target_window: 120_000,
                calibration_warmup: 40_000,
                reps: REPS,
                base_seed: derive_seed(seed, SALT_REPS),
                threads: WORKERS,
                ..Default::default()
            };
            // Fixed mixes; the seed orders each mix's apps, which sets
            // their ids and so the Linux placement and SYNPA's tie-breaks.
            let prepared = (0..FULLCHIP_MIXES)
                .map(|i| {
                    let name = format!("fc56{}", (b'a' + i as u8) as char);
                    let mix_seed = derive_seed(FULLCHIP_MIX_SEED, i);
                    let mut w = random_workload(&name, WorkloadKind::Mixed, size, mix_seed);
                    shuffle(&mut w.apps, derive_seed(seed, i));
                    prepare_workload(&w, &cfg)
                })
                .collect();
            Inputs::Closed { cfg, prepared }
        }
        Kind::Paper8 => {
            // The paper's suite at fixed repetition seeds: the fidelity
            // reference needs the same simulated inputs for every seed, so
            // the seed only sets the order the cells run in.
            let cfg = ExperimentConfig {
                reps: REPS,
                threads: WORKERS,
                ..Default::default()
            };
            let mut suite = standard_suite();
            shuffle(&mut suite, seed);
            let prepared = suite.iter().map(|w| prepare_workload(w, &cfg)).collect();
            Inputs::Closed { cfg, prepared }
        }
        Kind::Open08 => {
            let chip = ChipConfig::thunderx2(4);
            let slots = chip.hw_threads();
            let target_window = 60_000;
            let cfg = ExperimentConfig {
                manager: ManagerConfig {
                    chip,
                    quantum_cycles: 5_000,
                    max_quanta: 100_000,
                    faults: None,
                    chip_faults: None,
                },
                target_window,
                calibration_warmup: 30_000,
                threads: WORKERS,
                ..Default::default()
            };
            // Mean gap for offered load rho against the chip's paired
            // capacity, as in the `open_system` binary.
            let gap = 2.0 * target_window as f64 / (slots as f64 * OPEN_RHO);
            // One fixed Poisson realization (the seed of the `open_system`
            // binary's rho 0.8 trace); the seed deals its apps out to the
            // arrival times. Tail latency over seeded arrival times swings
            // by a quarter between seeds, set by a few bursts, and the host
            // time to simulate a seeded app mix by a seventh.
            let mut trace = poisson_trace(
                "open08",
                WorkloadKind::Mixed,
                OPEN_ARRIVALS,
                gap,
                OPEN_ARRIVAL_SEED,
            );
            shuffle(&mut trace.apps, derive_seed(seed, SALT_TRACE));
            let prepared = prepare_workload(&trace.to_workload(), &cfg);
            let service = ServiceConfig {
                manager: cfg.manager,
                ..ServiceConfig::default()
            };
            Inputs::Open {
                cfg: service,
                prepared,
            }
        }
    };
    Setup {
        model,
        train_s,
        calibrate_s: t1.elapsed().as_secs_f64(),
        inputs,
    }
}

/// Linux and SYNPA results of one workload cell.
#[derive(Debug)]
pub struct CellSim {
    pub kind: WorkloadKind,
    /// Closed: mean TT over kept repetitions; open: mean turnaround.
    pub linux_tt: f64,
    pub synpa_tt: f64,
}

/// Open-system service figures of the SYNPA run.
#[derive(Debug, Default)]
pub struct ServiceSim {
    pub queue_peak: usize,
    pub occupancy_mean: f64,
    pub shed: usize,
}

/// The simulated outcome of one pass. Deterministic for a seed.
#[derive(Debug, Default)]
pub struct Sim {
    pub cells: Vec<CellSim>,
    /// Per-app turnaround samples under SYNPA, in cycles.
    pub synpa_tt: Vec<u64>,
    /// Apps attempted over all runs, and those that failed: capped or
    /// never placed (closed), shed, failed or left in flight (open).
    pub attempted: u64,
    pub failed: u64,
    pub quanta: u64,
    pub migrations: u64,
    pub service: ServiceSim,
    /// Failed correctness checks.
    pub errors: Vec<String>,
}

pub struct Pass {
    pub wall_s: f64,
    /// Host seconds of each run, in the order the pass runs them (cell,
    /// then Linux before SYNPA). Every pass runs the same runs.
    pub run_walls: Vec<f64>,
    /// One record per run, sorted by (cell, policy, seed).
    pub records: Vec<RunRecord>,
    pub sim: Sim,
}

impl Pass {
    /// Hash of every simulated output of the pass, host timings excluded.
    pub fn fingerprint(&self) -> u64 {
        let counts: Vec<_> = self
            .records
            .iter()
            .map(|r| {
                (
                    r.cell,
                    r.policy,
                    r.seed,
                    r.calls,
                    r.placements,
                    r.instructions,
                    r.thread_cycles,
                    r.matcher,
                )
            })
            .collect();
        let s = &self.sim;
        let cells: Vec<_> = s
            .cells
            .iter()
            .map(|c| (c.kind, c.linux_tt.to_bits(), c.synpa_tt.to_bits()))
            .collect();
        fnv1a(
            format!(
                "{counts:?}{cells:?}{:?}{}{}{}{}{:?}",
                s.synpa_tt,
                s.attempted,
                s.failed,
                s.quanta,
                s.migrations,
                (
                    s.service.queue_peak,
                    s.service.occupancy_mean.to_bits(),
                    s.service.shed
                ),
            )
            .as_bytes(),
        )
    }
}

/// Times one run, after one sample of the host's speed.
fn timed<T>(walls: &mut Vec<f64>, speed: &mut Speed, run: impl FnOnce() -> T) -> T {
    speed.sample();
    let t0 = Instant::now();
    let out = run();
    walls.push(t0.elapsed().as_secs_f64());
    out
}

/// Runs every Linux and SYNPA run of the workload once, sampling the
/// host's speed into `speed` before each run.
pub fn run_pass(setup: &Setup, timed_probe: bool, speed: &mut Speed) -> Pass {
    let sink = Sink::default();
    let model = setup.model;
    let mut run_walls = Vec::new();
    let t0 = Instant::now();
    let (records, sim) = match &setup.inputs {
        Inputs::Closed { cfg, prepared } => {
            let quantum = cfg.manager.quantum_cycles;
            let probe = |policy: Box<dyn Policy>, cell: usize, seed: u64| {
                let mode = ProbeMode {
                    timed: timed_probe,
                    record_views: false,
                };
                Box::new(Probe::new(policy, mode, quantum, cell, seed, sink.clone()))
                    as Box<dyn Policy>
            };
            let outcomes: Vec<_> = prepared
                .iter()
                .enumerate()
                .map(|(i, prep)| {
                    let linux = timed(&mut run_walls, speed, || {
                        run_cell(prep, |s| probe(Box::new(LinuxLike), i, s), cfg)
                    });
                    let synpa = timed(&mut run_walls, speed, || {
                        run_cell(prep, |s| probe(Box::new(Synpa::new(model)), i, s), cfg)
                    });
                    (linux, synpa)
                })
                .collect();
            let records = take_sorted(&sink);
            let sim = closed_sim(cfg, prepared, &outcomes, &records);
            (records, sim)
        }
        Inputs::Open { cfg, prepared } => {
            let quantum = cfg.manager.quantum_cycles;
            let mut run = |policy: Box<dyn Policy>| {
                let mode = ProbeMode {
                    timed: timed_probe,
                    record_views: false,
                };
                let mut probe = Probe::new(policy, mode, quantum, 0, 0, sink.clone());
                timed(&mut run_walls, speed, || {
                    run_service(&prepared.apps, &prepared.workload.arrivals, &mut probe, cfg)
                })
            };
            let linux = run(Box::new(LinuxLike));
            let synpa = run(Box::new(Synpa::new(model)));
            (
                take_sorted(&sink),
                open_sim(prepared.apps.len(), &linux, &synpa),
            )
        }
    };
    let wall_s = t0.elapsed().as_secs_f64();
    Pass {
        wall_s,
        run_walls,
        records,
        sim,
    }
}

/// Runs SYNPA once, untimed and outside any pass, keeping a copy of every
/// view its decorator sees: the first cell's run on the closed workloads,
/// the whole service run on open08.
pub fn record_views(setup: &Setup) -> Vec<RecordedView> {
    let sink = Sink::default();
    let mode = ProbeMode {
        timed: false,
        record_views: true,
    };
    let synpa = || Box::new(Synpa::new(setup.model));
    match &setup.inputs {
        Inputs::Closed { cfg, prepared } => {
            let quantum = cfg.manager.quantum_cycles;
            run_cell(
                &prepared[0],
                |s| Box::new(Probe::new(synpa(), mode, quantum, 0, s, sink.clone())),
                cfg,
            );
        }
        Inputs::Open { cfg, prepared } => {
            let quantum = cfg.manager.quantum_cycles;
            let mut probe = Probe::new(synpa(), mode, quantum, 0, 0, sink.clone());
            run_service(&prepared.apps, &prepared.workload.arrivals, &mut probe, cfg);
        }
    }
    take_sorted(&sink)
        .into_iter()
        .flat_map(|r| r.views)
        .collect()
}

fn take_sorted(sink: &Sink) -> Vec<RunRecord> {
    let mut records = std::mem::take(&mut *sink.lock().expect("no probe panicked"));
    records.sort_by_key(|r| (r.cell, r.policy, r.seed));
    records
}

/// Closed workloads run one repetition per cell (`REPS`), so each cell's
/// exemplar is its only run.
fn closed_sim(
    cfg: &ExperimentConfig,
    prepared: &[PreparedWorkload],
    outcomes: &[(CellOutcome, CellOutcome)],
    records: &[RunRecord],
) -> Sim {
    let mut sim = Sim::default();
    let reps = cfg.reps as usize;
    let expected = prepared.len() * 2 * reps;
    if records.len() != expected {
        sim.errors.push(format!(
            "{} run records, expected {expected}",
            records.len()
        ));
    }
    for (prep, (linux, synpa)) in prepared.iter().zip(outcomes) {
        for cell in [linux, synpa] {
            let ex = &cell.exemplar;
            let apps = prep.apps.len() as u64;
            sim.attempted += apps;
            sim.quanta += ex.quanta;
            sim.migrations += ex.migrations;
            if ex.capped || ex.per_app.iter().any(|a| !a.completed) {
                sim.failed += apps;
                sim.errors.push(format!(
                    "{} {}: run capped at {} quanta",
                    prep.workload.name, cell.policy, ex.quanta
                ));
            }
            if cell.tt_runs.len() + cell.discarded != reps {
                sim.errors.push(format!(
                    "{} {}: {} kept + {} discarded != {reps} reps",
                    prep.workload.name,
                    cell.policy,
                    cell.tt_runs.len(),
                    cell.discarded
                ));
            }
        }
        sim.cells.push(CellSim {
            kind: prep.workload.kind,
            linux_tt: linux.tt_mean,
            synpa_tt: synpa.tt_mean,
        });
        sim.synpa_tt
            .extend(synpa.exemplar.per_app.iter().map(|a| a.tt_cycles));
    }
    sim
}

fn open_sim(n: usize, linux: &ServiceResult, synpa: &ServiceResult) -> Sim {
    let mut sim = Sim::default();
    let mean_tt = |r: &ServiceResult| {
        let tt = r.turnarounds();
        tt.iter().sum::<u64>() as f64 / tt.len().max(1) as f64
    };
    for r in [linux, synpa] {
        let done = r.completed.len() + r.shed.len() + r.failed.len();
        if !r.drained || done != n {
            sim.errors.push(format!(
                "open08 {}: {} completed + {} shed + {} failed != {n} arrivals (drained {})",
                r.policy,
                r.completed.len(),
                r.shed.len(),
                r.failed.len(),
                r.drained
            ));
        }
        sim.attempted += n as u64;
        sim.failed += (n - r.completed.len()) as u64;
        sim.quanta += r.quanta;
        sim.migrations += r.migrations;
    }
    sim.cells.push(CellSim {
        kind: WorkloadKind::Mixed,
        linux_tt: mean_tt(linux),
        synpa_tt: mean_tt(synpa),
    });
    sim.synpa_tt = synpa.turnarounds();
    sim.service = ServiceSim {
        queue_peak: synpa.peak_queue_depth(),
        occupancy_mean: synpa.occupancy.iter().sum::<usize>() as f64
            / synpa.occupancy.len().max(1) as f64,
        shed: synpa.shed.len(),
    };
    sim
}
