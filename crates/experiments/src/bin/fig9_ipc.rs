//! Fig. 9: IPC speedup (geometric mean over the workload's applications) of
//! SYNPA over Linux.

use synpa::metrics::{mean, workload_ipc};
use synpa_experiments::{cells_of, evaluation_suite};

fn main() {
    let cells = evaluation_suite();
    println!("Fig. 9 — speedup of IPC (geomean) over Linux");
    println!(
        "{:<6} {:<9} {:>8} {:>8} {:>9}",
        "wl", "family", "linux", "synpa", "speedup"
    );
    let mut by_kind: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for w in synpa::apps::workload::standard_suite() {
        let (linux, synpa) = cells_of(&cells, &w.name);
        let kind = w.kind.to_string();
        let il = workload_ipc(&linux.app_ipc);
        let is = workload_ipc(&synpa.app_ipc);
        by_kind.entry(kind.clone()).or_default().push(is / il);
        println!(
            "{:<6} {:<9} {:>8.3} {:>8.3} {:>9.3}",
            w.name,
            kind,
            il,
            is,
            is / il
        );
    }
    println!("\naverage IPC speedup (paper: mixed ~1.022, frontend ~1.008):");
    for (kind, sps) in &by_kind {
        println!("  {kind:<9} {:>6.3}", mean(sps));
    }
}
