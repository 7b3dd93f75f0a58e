//! Fig. 7: dynamic characterization of the two leela_r instances of fb2
//! under both policies — per-quantum category fractions plus the dominant
//! category of the co-runner. Emits CSV for plotting.

use synpa::prelude::*;
use synpa_experiments::{cached_cells, eval_config, results_dir, trained_model, SuitePolicy};

fn main() {
    let (model, _) = trained_model();
    let cfg = eval_config();
    let w = workload::by_name("fb2").unwrap();
    let cells = cached_cells(vec![w.clone()], &SuitePolicy::PAPER, &cfg, model);
    let prepared = prepare_workload(&w, &cfg);
    let leelas = [4usize, 5]; // the two leela_r instances (paper: 04, 05)

    for (p, cell) in SuitePolicy::PAPER.into_iter().zip(&cells) {
        let policy_name = p.name();
        let rows = exemplar_rows(&prepared, |s| p.build(model, s), &cfg, cell);
        for &app in &leelas {
            let r = &cell.exemplar;
            let path = results_dir().join(format!("fig7_{policy_name}_leela{app}.csv"));
            let mut csv = String::from(
                "quantum,full_dispatch,frontend,backend,corunner,corunner_dominant,corunner_value\n",
            );
            let mut fd_sum = 0.0;
            let mut be_sum = 0.0;
            let mut n = 0.0;
            for row in rows.iter().filter(|t| t.app == app) {
                let f = row.categories.fractions();
                let partner = rows
                    .iter()
                    .find(|p| p.quantum == row.quantum && p.app == row.co_runner)
                    .unwrap();
                let pf = partner.categories.fractions();
                let (dom, val) = if pf[1] > pf[2] {
                    ("frontend", pf[1])
                } else {
                    ("backend", pf[2])
                };
                csv.push_str(&format!(
                    "{},{:.4},{:.4},{:.4},{},{},{:.4}\n",
                    row.quantum, f[0], f[1], f[2], row.co_runner, dom, val
                ));
                fd_sum += f[0];
                be_sum += f[2];
                n += 1.0;
            }
            std::fs::write(&path, csv).unwrap();
            println!(
                "{policy_name} leela_r({app:02}): TT {} cycles over {} quanta; mean FD {:.1}%, mean BE {:.1}%  -> {}",
                r.per_app[app].tt_cycles,
                r.quanta,
                fd_sum / n * 100.0,
                be_sum / n * 100.0,
                path.display()
            );
        }
    }
    println!("\npaper shape: under SYNPA leela_r's turnaround shortens and its backend share");
    println!("drops relative to Linux (Fig. 7a vs 7b). In this reproduction fb2's Linux");
    println!("arrival order is already cross-paired, so the contrast is milder than the");
    println!("paper's; see docs/simulation.md for the per-workload discussion.");
}
