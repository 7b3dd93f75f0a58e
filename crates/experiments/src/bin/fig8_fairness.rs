//! Fig. 8: fairness (1 - sigma/mu over individual speedups) of Linux vs
//! SYNPA for every workload.

use synpa::metrics::{fairness, mean};
use synpa_experiments::{cells_of, evaluation_suite};

fn main() {
    let cells = evaluation_suite();
    println!("Fig. 8 — fairness comparison of Linux and SYNPA");
    println!(
        "{:<6} {:<9} {:>8} {:>8} {:>8}",
        "wl", "family", "linux", "synpa", "delta%"
    );
    let mut by_kind: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for w in synpa::apps::workload::standard_suite() {
        let (linux, synpa) = cells_of(&cells, &w.name);
        let kind = w.kind.to_string();
        let fl = fairness(&linux.app_speedup);
        let fs = fairness(&synpa.app_speedup);
        let delta = (fs / fl - 1.0) * 100.0;
        by_kind.entry(kind.clone()).or_default().push(delta);
        println!(
            "{:<6} {:<9} {:>8.3} {:>8.3} {:>+7.1}%",
            w.name, kind, fl, fs, delta
        );
    }
    println!("\naverage fairness improvement (paper: ~25% overall, biggest in mixed):");
    for (kind, deltas) in &by_kind {
        println!("  {kind:<9} {:>+6.1}%", mean(deltas));
    }
}
