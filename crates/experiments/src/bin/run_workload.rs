//! General-purpose runner: execute any suite workload under any policy.
//!
//! ```text
//! cargo run --release -p synpa-experiments --bin run_workload -- fb5 synpa
//! cargo run --release -p synpa-experiments --bin run_workload -- be2 linux --reps 3
//! ```
//!
//! Policies: `linux`, `synpa`, `greedy` (SYNPA with greedy matching),
//! `random`, `oracle`. Every policy but `oracle` reads and fills the cell
//! cache under `results/cells/` that the figure binaries share.

use synpa::metrics::{fairness, workload_ipc};
use synpa::model::training::{st_profile, TrainingConfig};
use synpa::prelude::*;
use synpa_experiments::{cached_cells, eval_config, trained_model, SuitePolicy};

fn usage() -> ! {
    eprintln!("usage: run_workload <workload> <linux|synpa|greedy|random|oracle> [--reps N]");
    eprintln!(
        "workloads: {}",
        workload::standard_suite()
            .iter()
            .map(|w| w.name.clone())
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        usage();
    }
    let wl_name = &args[0];
    let policy_name = args[1].as_str();
    let mut cfg = eval_config();
    if let Some(pos) = args.iter().position(|a| a == "--reps") {
        cfg.reps = args
            .get(pos + 1)
            .and_then(|v| v.parse().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| usage());
    }

    let Some(w) = workload::by_name(wl_name) else {
        eprintln!("unknown workload '{wl_name}'");
        usage();
    };
    println!("workload {wl_name}: {:?}", w.apps);
    let (model, _) = trained_model();

    // `oracle` needs per-app isolated profiles, which `SuitePolicy` cannot
    // express; every other policy goes through the shared cell cache.
    let cell = if policy_name == "oracle" {
        let prepared = prepare_workload(&w, &cfg);
        let tcfg = TrainingConfig::default();
        let st: Vec<(usize, Categories)> = prepared
            .apps
            .iter()
            .enumerate()
            .map(|(k, app)| (k, st_profile(app, &tcfg).mean()))
            .collect();
        run_cell(
            &prepared,
            move |_| Box::new(OracleSynpa::new(model, st.clone())),
            &cfg,
        )
    } else if let Some(p) = SuitePolicy::parse(policy_name) {
        cached_cells(vec![w], &[p], &cfg, model).remove(0)
    } else {
        usage()
    };

    println!(
        "\npolicy {}  ({} reps kept, {} discarded, CV {:.3})",
        cell.policy,
        cell.tt_runs.len(),
        cell.discarded,
        cell.tt_cv
    );
    println!("turnaround: {:.0} cycles (mean)", cell.tt_mean);
    println!("fairness:   {:.3}", fairness(&cell.app_speedup));
    println!("IPC geomean: {:.3}", workload_ipc(&cell.app_ipc));
    println!("migrations (exemplar run): {}", cell.exemplar.migrations);
    println!("\nper-app (exemplar run):");
    println!(
        "{:<14} {:>10} {:>8} {:>9}",
        "app", "TT cycles", "IPC", "speedup"
    );
    for a in &cell.exemplar.per_app {
        println!(
            "{:<14} {:>10} {:>8.3} {:>9.3}",
            a.name,
            a.tt_cycles,
            a.ipc,
            a.individual_speedup()
        );
    }
}
