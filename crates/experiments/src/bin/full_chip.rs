//! Full-chip scenario: 56-application workloads on the 28-core ThunderX2.
//!
//! The paper's evaluation machine is a 28-core / 56-thread ThunderX2, but
//! its published sweep stops at 8-app workloads on 4 cores. This binary
//! runs the full machine: randomized 56-app workloads (`apps::workload::
//! full_chip_suite`) on `ChipConfig::thunderx2_full()`, with SYNPA pairing
//! all 56 threads per quantum — dense 56-node synergy graphs through the
//! pairing lower bound and, when it cannot rule out a gain, the Blossom
//! matcher. Cells are sharded and cached like the standard sweep.
//!
//! ```text
//! cargo run --release -p synpa-experiments --bin full_chip
//! cargo run --release -p synpa-experiments --bin full_chip -- --smoke
//! cargo run --release -p synpa-experiments --bin full_chip -- --workloads 6 --reps 5
//! ```
//!
//! `--smoke` is the CI configuration: one workload, one repetition, a short
//! quantum and a canned model (no training), so the 56-thread path is
//! exercised end-to-end on every PR in well under a minute.
//!
//! Beyond the classic everyone-arrives-at-once mixes, the scenario table
//! always includes three diversity scenarios (`fcpart`, `fcwave`,
//! `fchet`): a half-occupied chip (28 apps on 56 threads, whole cores idle
//! all run), a phase-shifted workload whose 56 apps arrive in four waves,
//! and a heterogeneous-launch-target workload mixing half-length and
//! double-length launches on one chip — the partial- and decorrelated-
//! activity regimes where the per-core horizon engine pays off.
//! `--engine` selects the cycle-advancement engine; both engines produce
//! byte-identical scenario tables (CI diffs them).

use std::time::Instant;
use synpa::metrics::{antt, fairness, stp, tt_speedup, workload_ipc};
use synpa::prelude::*;
use synpa_experiments::{
    canned_model, cells_of, results_dir, run_suite_sharded, threads, trained_model, ScenarioArgs,
    SuitePolicy, SuiteSpec,
};

/// Ratio metrics over the apps that made progress in the window. Under
/// `--chip-faults` an app evacuated from a failed core can legitimately
/// end the window with zero retired instructions — progress is censored,
/// never fabricated — which the positive-domain metrics (fairness, ANTT,
/// IPC geomean) reject by assertion. They are therefore computed over the
/// progressing apps only, rendering 0 when nobody progressed; the
/// stranded count is visible in the chip-fault line. Healthy runs contain
/// no zeros, so the filter is the identity there and the healthy table
/// stays byte-identical.
fn over_progressed(xs: &[f64], f: impl Fn(&[f64]) -> f64) -> f64 {
    let p: Vec<f64> = xs.iter().copied().filter(|&x| x > 0.0).collect();
    if p.is_empty() {
        0.0
    } else {
        f(&p)
    }
}

fn usage(reason: &str) -> ! {
    eprintln!("error: {reason}");
    eprintln!(
        "usage: full_chip [--smoke] [--workloads N] [--reps N] \
         [--engine reference|percore] [--faults seed:rate[:kind]] \
         [--chip-faults seed:rate]"
    );
    std::process::exit(2)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = ScenarioArgs::parse(&raw, &[("--workloads", 1), ("--reps", 1)])
        .unwrap_or_else(|e| usage(&e));
    let n_workloads = args.count("--workloads").map(|n| n as usize);
    let reps = args.count("--reps");
    let ScenarioArgs {
        smoke,
        engine,
        faults,
        chip_faults,
        ..
    } = args;
    let engine = engine.unwrap_or(ChipConfig::thunderx2_full().engine);
    let n_workloads = n_workloads.unwrap_or(if smoke { 1 } else { 3 });
    let reps = reps.unwrap_or(if smoke { 1 } else { 3 });

    let chip = ChipConfig::thunderx2_full().with_engine(engine);
    let size = chip.hw_threads();
    let config = ExperimentConfig {
        manager: ManagerConfig {
            chip,
            quantum_cycles: if smoke { 5_000 } else { 10_000 },
            max_quanta: 3_000,
            faults,
            chip_faults,
        },
        target_window: if smoke { 20_000 } else { 120_000 },
        calibration_warmup: if smoke { 10_000 } else { 40_000 },
        reps,
        ..Default::default()
    };
    let mut workloads = synpa::apps::workload::full_chip_suite(n_workloads, size, 0xF0C1);
    // Scenario diversity: a half-occupied chip (whole cores idle for the
    // entire run) and a four-wave phase-shifted arrival pattern (cores
    // fill up and drain in waves). Both leave large parts of the chip
    // inactive for long stretches — the regime the per-core horizon
    // engine was built for — and both are measured like any other cell.
    use synpa::apps::workload::{
        heterogeneous_workload, partial_occupancy_workload, phase_shifted_workload, WorkloadKind,
    };
    workloads.push(partial_occupancy_workload(
        "fcpart",
        WorkloadKind::Mixed,
        size / 2,
        size,
        0xF0C2,
    ));
    workloads.push(phase_shifted_workload(
        "fcwave",
        WorkloadKind::Mixed,
        size,
        4,
        40_000,
        0xF0C3,
    ));
    // Heterogeneous launch targets (ROADMAP): half-length and double-length
    // launches interleaved in arrival order, so relaunch cadence and
    // completion traffic stay decorrelated across the chip all run.
    workloads.push(heterogeneous_workload(
        "fchet",
        WorkloadKind::Mixed,
        size,
        0.5,
        2.0,
        0xF0C4,
    ));
    // Smoke runs use the canned model so CI never pays for training.
    let model = if smoke {
        canned_model()
    } else {
        trained_model().0
    };
    let cells_dir = results_dir().join("full_chip_cells");
    let spec = SuiteSpec {
        workloads: workloads.clone(),
        policies: vec![SuitePolicy::Linux, SuitePolicy::Synpa],
        config,
        cache_dir: Some(cells_dir),
    };

    println!(
        "full chip: {} workloads x {} apps (+ fcpart {}-app / fcwave 4-wave / fchet \
         0.5x-2x-target scenarios) on 28 cores / 56 threads, {} reps, {} workers, {} engine{}",
        n_workloads,
        size,
        size / 2,
        reps,
        threads(),
        engine,
        if smoke { " (smoke)" } else { "" }
    );
    let t0 = Instant::now();
    let cells = run_suite_sharded(&spec, model, threads());
    let wall = t0.elapsed();

    println!(
        "\n{:<6} {:<8} {:>14} {:>14} {:>8} {:>9} {:>7} {:>7} {:>11}",
        "wl", "kind", "TT linux", "TT synpa", "speedup", "fairness", "ANTT", "STP", "migrations"
    );
    for w in &workloads {
        let (linux, synpa) = cells_of(&cells, &w.name);
        println!(
            "{:<6} {:<8} {:>14.0} {:>14.0} {:>8.3} {:>9.3} {:>7.3} {:>7.2} {:>11}",
            w.name,
            w.kind,
            linux.tt_mean,
            synpa.tt_mean,
            tt_speedup(linux.tt_mean, synpa.tt_mean),
            over_progressed(&synpa.app_speedup, fairness),
            over_progressed(&synpa.app_speedup, antt),
            stp(&synpa.app_speedup),
            synpa.exemplar.migrations,
        );
        println!(
            "{:<6} {:<8} linux fairness {:.3}, IPC geomean linux {:.3} vs synpa {:.3}",
            "",
            "",
            over_progressed(&linux.app_speedup, fairness),
            over_progressed(&linux.app_ipc, workload_ipc),
            over_progressed(&synpa.app_ipc, workload_ipc),
        );
        // The accounting lines below read the exemplar repetition's stats.
        let (linux, synpa) = (&linux.exemplar.stats, &synpa.exemplar.stats);
        // Matching-layer accounting: how many pairing quanta the lower
        // bound answered without a blossom solve.
        let rate = if synpa.matcher_calls == 0 {
            0.0
        } else {
            100.0 * synpa.matcher_bound as f64 / synpa.matcher_calls as f64
        };
        println!(
            "{:<6} {:<8} matcher: {} pairing quanta, {:.1}% answered by the bound, {} solves",
            "", "", synpa.matcher_calls, rate, synpa.matcher_solves,
        );
        // Printed only under --faults, so the healthy table stays
        // byte-identical to runs built before fault injection existed.
        if faults.is_some() {
            println!(
                "{:<6} {:<8} faults: {} injected, {} degraded quanta (linux: {} / {})",
                "",
                "",
                synpa.injected_total(),
                synpa.degraded_quanta,
                linux.injected_total(),
                linux.degraded_quanta,
            );
        }
        // Execution faults follow the same contract: the line is printed
        // only under --chip-faults, so `--chip-faults seed:0` and the
        // plain invocation produce byte-identical tables (CI checks this).
        if chip_faults.is_some() {
            println!(
                "{:<6} {:<8} chip faults: {} cores offlined, {} apps evacuated \
                 (linux: {} / {})",
                "",
                "",
                synpa.cores_offlined,
                synpa.apps_evacuated,
                linux.cores_offlined,
                linux.apps_evacuated,
            );
        }
        // A run cut off by the quanta cap reports censored TT and IPC for
        // its unfinished apps; flag the row rather than let it read as
        // measured. Uncapped rows print nothing, so healthy tables are
        // unchanged.
        if linux.censored + synpa.censored > 0 {
            println!(
                "{:<6} {:<8} censored: {} apps unfinished at the quanta cap (linux: {})",
                "", "", synpa.censored, linux.censored,
            );
        }
    }
    println!("\nwall time: {:.1}s", wall.as_secs_f64());
}
