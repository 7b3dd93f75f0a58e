//! Quickstart: train the SYNPA model, run one mixed workload under the
//! Linux-like baseline and under SYNPA, and compare the paper's three
//! metrics (turnaround time, fairness, IPC).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use synpa::prelude::*;
use synpa_experiments::{threads, training_split};

fn main() {
    // 1. Train the regression model on the 22 training applications
    //    (80 %, paper §IV-C). Takes a few seconds: 22 isolated profiles
    //    plus all 253 SMT pair runs on the simulator.
    println!("training the 3-category model (paper §IV-C)...");
    let (training_apps, _) = training_split();
    let report =
        train(&training_apps, &TrainingConfig::default(), threads()).expect("catalog fits");
    println!("Table IV analogue (alpha, beta, gamma, rho):");
    for (name, c) in [
        ("full-dispatch", report.model.full_dispatch),
        ("frontend", report.model.frontend),
        ("backend", report.model.backend),
    ] {
        println!(
            "  {name:<14} {:+.4} {:+.4} {:+.4} {:+.4}",
            c.alpha, c.beta, c.gamma, c.rho
        );
    }

    // 2. Run the paper's case-study workload fb2 under both policies.
    let cfg = ExperimentConfig {
        reps: 5,
        threads: threads(),
        ..Default::default()
    };
    let workload = workload::by_name("fb2").expect("fb2 is in the suite");
    println!("\nworkload fb2: {:?}", workload.apps);
    let prepared = prepare_workload(&workload, &cfg);

    let linux = run_cell(&prepared, |_| Box::new(LinuxLike), &cfg);
    let synpa = run_cell(&prepared, |_| Box::new(Synpa::new(report.model)), &cfg);

    // 3. The three metrics of §VI.
    println!("\n{:<22} {:>12} {:>12}", "metric", "linux", "synpa");
    println!(
        "{:<22} {:>12.0} {:>12.0}",
        "turnaround (cycles)", linux.tt_mean, synpa.tt_mean
    );
    println!(
        "{:<22} {:>12.3} {:>12.3}",
        "fairness",
        fairness(&linux.app_speedup),
        fairness(&synpa.app_speedup)
    );
    println!(
        "{:<22} {:>12.3} {:>12.3}",
        "IPC (geomean)",
        workload_ipc(&linux.app_ipc),
        workload_ipc(&synpa.app_ipc)
    );
    println!(
        "\nSYNPA turnaround speedup over Linux: {:.3}x",
        tt_speedup(linux.tt_mean, synpa.tt_mean)
    );
}
