//! Ground-truth synergy probe: measures the pairwise slowdown matrix of
//! eight representative applications on one SMT2 core — the raw
//! interference structure the SYNPA model has to learn.

use synpa_apps::spec;
use synpa_sim::{Chip, ChipConfig, Slot};

fn ipc_pair(a: &str, b: &str) -> (f64, f64) {
    let mut chip = Chip::new(ChipConfig::thunderx2(1));
    chip.attach(
        Slot(0),
        0,
        Box::new(spec::by_name(a).unwrap().with_length(u64::MAX)),
    );
    chip.attach(
        Slot(1),
        1,
        Box::new(spec::by_name(b).unwrap().with_length(u64::MAX)),
    );
    chip.run_cycles(60_000);
    let start = [0, 1].map(|id| *chip.pmu_of(id).expect("attached"));
    chip.run_cycles(100_000);
    let ipc = |id: usize| {
        let d = chip.pmu_of(id).expect("attached").delta_since(&start[id]);
        d.inst_retired as f64 / d.cpu_cycles as f64
    };
    (ipc(0), ipc(1))
}

fn ipc_solo(a: &str) -> f64 {
    let mut chip = Chip::new(ChipConfig::thunderx2(1));
    chip.attach(
        Slot(0),
        0,
        Box::new(spec::by_name(a).unwrap().with_length(u64::MAX)),
    );
    chip.run_cycles(60_000);
    let start = *chip.pmu_of(0).expect("attached");
    chip.run_cycles(100_000);
    let d = chip.pmu_of(0).expect("attached").delta_since(&start);
    d.inst_retired as f64 / d.cpu_cycles as f64
}

fn main() {
    let apps = [
        "mcf",
        "lbm_r",
        "xalancbmk_r",
        "gobmk",
        "leela_r",
        "perlbench",
        "nab_r",
        "hmmer",
    ];
    let solos: Vec<f64> = apps.iter().map(|a| ipc_solo(a)).collect();
    println!(
        "{:<12} solo IPC: {:?}",
        "apps",
        apps.iter()
            .zip(&solos)
            .map(|(a, s)| format!("{a}={s:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("\npair slowdown matrix (row app's slowdown vs solo, when paired with col):");
    print!("{:<12}", "");
    for b in &apps {
        print!("{:>11}", b);
    }
    println!();
    for (i, a) in apps.iter().enumerate() {
        print!("{:<12}", a);
        for b in &apps {
            let (ia, _) = ipc_pair(a, b);
            print!("{:>11.2}", solos[i] / ia);
        }
        println!();
    }
}
