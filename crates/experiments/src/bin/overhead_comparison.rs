//! Per-quantum decision overhead, the paper's two cost arguments:
//!
//! * §II: SYNPA's 3-equation/4-counter model estimates the performance of
//!   all application pairs with ~40 % less work than the 5-equation/
//!   6-counter IBM POWER8 model of Feliu et al. Measures the wall-clock
//!   cost of scoring every pair of an n-application workload.
//! * §IV-B: pair selection uses Blossom because evaluating every pairing
//!   "quickly explodes with the number of cores". Measures the exhaustive
//!   subset DP, Blossom and the greedy baseline on the same cost matrix as
//!   n grows (the DP is capped at n = 16; Blossom keeps going to the full
//!   56-thread chip), plus the fractional-matching lower bound the SYNPA
//!   policy asks before it solves (`docs/matching.md`).

use std::hint::black_box;
use std::time::Instant;
use synpa::matching::{
    exhaustive_min_pairing, greedy_min_pairing, min_cost_lower_bound, min_cost_pairing,
};
use synpa::metrics::percentile;
use synpa::model::ablation::{expand_to_five, IbmStyleModel};
use synpa::model::{Categories, CategoryCoeffs, SynpaModel};
use synpa_experiments::trained_model;

/// Evaluates one Equation-1 instance per category over `k` categories —
/// the common code shape of both models, so the measured difference is
/// purely the equation count (the paper's unit of overhead).
#[inline(never)]
fn estimate_pair(coeffs: &[CategoryCoeffs], st_i: &[f64], st_j: &[f64]) -> f64 {
    coeffs
        .iter()
        .enumerate()
        .map(|(k, c)| c.predict(st_i[k], st_j[k]))
        .sum()
}

/// Timed samples per table cell; a cell reports their median, so one
/// sample disturbed by the host cannot swing it.
const SAMPLES: usize = 9;

/// Wall-clock nanoseconds of `iters` calls of `f`: one sample.
fn sample_ns<T>(iters: u32, mut f: impl FnMut() -> T) -> u64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    t0.elapsed().as_nanos() as u64
}

/// Nanoseconds of one call in the median of `samples` (each of `iters`
/// calls).
fn median_per_iter(samples: &[u64], iters: u32) -> f64 {
    percentile(samples, 50.0).expect("at least one sample") as f64 / iters as f64
}

/// Wall-clock nanoseconds of one call of `f`: the median of [`SAMPLES`]
/// samples of `iters` calls.
fn ns_per_iter<T>(iters: u32, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<u64> = (0..SAMPLES).map(|_| sample_ns(iters, &mut f)).collect();
    median_per_iter(&samples, iters)
}

fn main() {
    let (model, _) = trained_model();
    pair_estimation(&model);
    println!();
    pair_selection(&model);
}

fn pair_estimation(model: &SynpaModel) {
    let synpa_coeffs = model.coeffs().to_vec();
    let ibm_coeffs = IbmStyleModel::default().coeffs.to_vec();
    println!(
        "§II — pair-estimation overhead: SYNPA (3 eq/4 counters) vs IBM-style (5 eq/6 counters)"
    );
    println!(
        "{:>6} {:>14} {:>14} {:>9}",
        "apps", "synpa (ns)", "ibm (ns)", "ratio"
    );
    for n in [8usize, 16, 32, 56, 112] {
        let st: Vec<Categories> = (0..n)
            .map(|i| {
                Categories::from_array([0.25, 0.1 + i as f64 * 0.01, 0.3 + (i % 7) as f64 * 0.3])
            })
            .collect();
        let iters = 2_000;
        let run = |coeffs: &[CategoryCoeffs], st: &[Vec<f64>]| {
            sample_ns(iters, || {
                let mut acc = 0.0;
                for i in 0..n {
                    for j in 0..n {
                        if i != j {
                            acc += estimate_pair(coeffs, black_box(&st[i]), black_box(&st[j]));
                        }
                    }
                }
                acc
            })
        };
        let st3: Vec<Vec<f64>> = st.iter().map(|c| c.as_array().to_vec()).collect();
        let st5: Vec<Vec<f64>> = st.iter().map(|c| expand_to_five(c).to_vec()).collect();
        // The two models' samples alternate, so a slow stretch of the
        // host lands on both sides of the ratio.
        let (mut synpa, mut ibm) = (Vec::new(), Vec::new());
        for _ in 0..SAMPLES {
            synpa.push(run(&synpa_coeffs, &st3));
            ibm.push(run(&ibm_coeffs, &st5));
        }
        let synpa_ns = median_per_iter(&synpa, iters);
        let ibm_ns = median_per_iter(&ibm, iters);
        println!(
            "{n:>6} {synpa_ns:>14.0} {ibm_ns:>14.0} {:>9.2}",
            synpa_ns / ibm_ns
        );
    }
    println!("\npaper claim: 3 equations instead of 5 -> ~40% lower estimation overhead");
    println!("(the ratio should sit around 3/5 = 0.60)");
}

/// Symmetric predicted-slowdown matrix over `n` synthetic applications
/// whose frontend and backend shares cycle through distinct levels.
fn synthetic_costs(model: &SynpaModel, n: usize) -> Vec<Vec<f64>> {
    let st: Vec<Categories> = (0..n)
        .map(|i| Categories {
            full_dispatch: 0.25,
            frontend: 0.05 + (i % 5) as f64 * 0.2,
            backend: 0.1 + (i % 7) as f64 * 0.5,
        })
        .collect();
    (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    if i == j {
                        0.0
                    } else {
                        model.predict_slowdown(&st[i], &st[j])
                    }
                })
                .collect()
        })
        .collect()
}

fn pair_selection(model: &SynpaModel) {
    println!("§IV-B — pair-selection cost: exhaustive subset DP vs Blossom vs greedy");
    println!(
        "{:>6} {:>16} {:>14} {:>14} {:>14}",
        "apps", "exhaustive (ns)", "blossom (ns)", "greedy (ns)", "bound (ns)"
    );
    for n in [8usize, 12, 16, 32, 56] {
        let costs = synthetic_costs(model, n);
        let iters = if n <= 16 { 200 } else { 50 };
        let optimum = min_cost_pairing(&costs).total_cost;
        assert!(
            min_cost_lower_bound(&costs) <= optimum,
            "n = {n}: lower bound above the optimum"
        );
        let exhaustive = if n <= 16 {
            let dp = exhaustive_min_pairing(&costs).total_cost;
            assert!(
                (dp - optimum).abs() <= 1e-9 * optimum.abs().max(1.0),
                "n = {n}: Blossom {optimum} differs from the exhaustive optimum {dp}"
            );
            let ns = ns_per_iter(iters, || exhaustive_min_pairing(black_box(&costs)));
            format!("{ns:.0}")
        } else {
            "-".to_string()
        };
        let blossom_ns = ns_per_iter(iters, || min_cost_pairing(black_box(&costs)));
        let greedy_ns = ns_per_iter(iters, || greedy_min_pairing(black_box(&costs)));
        let bound_ns = ns_per_iter(iters, || min_cost_lower_bound(black_box(&costs)));
        println!("{n:>6} {exhaustive:>16} {blossom_ns:>14.0} {greedy_ns:>14.0} {bound_ns:>14.0}");
    }
    println!("\npaper claim: enumerating pairings explodes with the core count; Blossom stays");
    println!("polynomial (the DP is O(2^n n), so it stops at n = 16)");
}
