//! Synergy explorer: measure how synergistic two applications are when
//! co-scheduled on one SMT2 core — the quantity SYNPA's model predicts.
//!
//! ```text
//! cargo run --release --example synergy_explorer -- mcf gobmk
//! cargo run --release --example synergy_explorer            # full matrix
//! ```

use synpa::apps::{characterize_isolated, profiling_run};
use synpa::prelude::*;
use synpa::sim::ThreadProgram;

const WARMUP: u64 = 60_000;
const MEASURE: u64 = 100_000;

fn app(name: &str) -> AppProfile {
    spec::by_name(name).unwrap_or_else(|| die(name))
}

fn solo_ipc(name: &str) -> f64 {
    characterize_isolated(&app(name), WARMUP, MEASURE).ipc
}

/// Runs `a` and `b` together; returns each one's slowdown vs. solo and the
/// measured dispatch-stall fractions.
fn co_run(a: &str, b: &str, solo_a: f64, solo_b: f64) -> ((f64, Fractions), (f64, Fractions)) {
    let cfg = ChipConfig::thunderx2(1);
    let run = profiling_run(&[&app(a), &app(b)], &cfg, WARMUP, MEASURE, 1);
    let width = cfg.core.dispatch_width;
    let measured = |i: usize, solo: f64| {
        let d = &run[i][0];
        let ipc = d.inst_retired as f64 / d.cpu_cycles as f64;
        (solo / ipc, Fractions::from_pmu(d, width))
    };
    (measured(0, solo_a), measured(1, solo_b))
}

fn die(name: &str) -> ! {
    eprintln!("unknown application '{name}'. Known:");
    for app in spec::catalog() {
        eprintln!("  {}", app.name());
    }
    std::process::exit(1)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [a, b] => {
            let (sa, sb) = (solo_ipc(a), solo_ipc(b));
            let ((slow_a, frac_a), (slow_b, frac_b)) = co_run(a, b, sa, sb);
            println!("pair {a} + {b} on one SMT2 core:");
            for (name, slow, f) in [(a, slow_a, frac_a), (b, slow_b, frac_b)] {
                println!(
                    "  {name:<14} slowdown {slow:>5.2}x   FD {:>5.1}%  FE {:>5.1}%  BE {:>5.1}%",
                    f.full_dispatch * 100.0,
                    f.frontend * 100.0,
                    f.backend * 100.0
                );
            }
            println!(
                "  pair cost (sum of slowdowns, lower = more synergistic): {:.2}",
                slow_a + slow_b
            );
        }
        [] => {
            // Compact matrix over one representative app per group.
            let names = ["mcf", "lbm_r", "xalancbmk_r", "gobmk", "leela_r", "nab_r"];
            let solos: Vec<f64> = names.iter().map(|n| solo_ipc(n)).collect();
            print!("{:<14}", "pair cost");
            for b in names {
                print!("{b:>13}");
            }
            println!();
            for (i, a) in names.iter().enumerate() {
                print!("{a:<14}");
                for (j, b) in names.iter().enumerate() {
                    if j < i {
                        print!("{:>13}", "");
                        continue;
                    }
                    let ((x, _), (y, _)) = co_run(a, b, solos[i], solos[j]);
                    print!("{:>13.2}", x + y);
                }
                println!();
            }
            println!("\n(lower = more synergistic; diagonal = two instances of the same app)");
        }
        _ => {
            eprintln!("usage: synergy_explorer [<app-a> <app-b>]");
            std::process::exit(2);
        }
    }
}
