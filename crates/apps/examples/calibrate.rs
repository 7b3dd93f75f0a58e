//! Calibration report: isolated characterization of all 28 applications
//! with extended stall attribution, checked against their Table III groups.
//! The tuning tool used to fit the synthetic app models to the paper's
//! Fig. 4 (see crates/apps/tests/table3_fidelity.rs for the enforced form).

use synpa_apps::{characterize_isolated, spec};

fn main() {
    println!(
        "{:<14} {:>6} {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6} {:>6} {:>6} | {:>6} {:>6}",
        "app",
        "FD%",
        "FE%",
        "BE%",
        "IPC",
        "dcach",
        "robfl",
        "iqful",
        "lsq",
        "width",
        "l1dMR",
        "l1iMR"
    );
    let mut bad = 0;
    for app in spec::catalog() {
        let r = characterize_isolated(&app, 80_000, 120_000);
        let f = r.fractions;
        let got = f.group();
        let want = spec::expected_group(&r.name).expect("every catalog app has a Table III group");
        let d = r.delta;
        let c = d.cpu_cycles as f64;
        println!("{:<14} {:>5.1}% {:>5.1}% {:>5.1}% {:>6.2} | {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}% | {:>5.1}% {:>5.1}% {}",
            r.name, f.full_dispatch*100.0, f.frontend*100.0, f.backend*100.0, r.ipc,
            d.ext.stall_dcache as f64/c*100.0, d.ext.stall_rob_full as f64/c*100.0,
            d.ext.stall_iq_full as f64/c*100.0, d.ext.stall_lsq_full as f64/c*100.0,
            d.ext.stall_width as f64/c*100.0,
            d.ext.l1d_miss as f64 / d.ext.l1d_access.max(1) as f64 * 100.0,
            d.ext.l1i_miss as f64 / d.ext.l1i_access.max(1) as f64 * 100.0,
            if got==want {""} else {"<-- MISMATCH"});
        if got != want {
            bad += 1;
        }
    }
    println!("\nmismatches: {bad}/28");
}
