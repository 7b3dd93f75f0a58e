//! Fig. 5: turnaround-time speedup of SYNPA over Linux for the 20-workload
//! suite, with per-family averages.

use synpa::metrics::{mean, tt_speedup};
use synpa_experiments::{bar, cells_of, evaluation_suite};

fn main() {
    let cells = evaluation_suite();
    println!("Fig. 5 — speedup of the turnaround time over Linux");
    println!("{:<6} {:<9} {:>8}  ", "wl", "family", "speedup");
    let mut by_kind: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for w in synpa::apps::workload::standard_suite() {
        let (linux, synpa) = cells_of(&cells, &w.name);
        let kind = w.kind.to_string();
        let sp = tt_speedup(linux.tt_mean, synpa.tt_mean);
        by_kind.entry(kind.clone()).or_default().push(sp);
        println!(
            "{:<6} {:<9} {:>8.3}  {}",
            w.name,
            kind,
            sp,
            bar(sp - 0.9, 80.0)
        );
    }
    println!("\naverages (paper: backend ~1.18, frontend ~1.08, mixed ~1.36):");
    for (kind, sps) in &by_kind {
        println!(
            "  {kind:<9} {:>6.3}  (max {:.3})",
            mean(sps),
            sps.iter().cloned().fold(f64::MIN, f64::max)
        );
    }
}
