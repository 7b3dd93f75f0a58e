//! # synpa-bench — Criterion benchmarks
//!
//! One bench target per performance claim of the paper plus the hot paths
//! of the reproduction itself:
//!
//! * `bench_model` — pair-estimation overhead: SYNPA's 3-equation model vs
//!   the IBM-style 5-equation model (§II's "40 % lower overhead" claim);
//! * `bench_inversion` — the Newton model inversion of §IV-B step 1;
//! * `bench_matching` — Blossom vs exhaustive vs greedy pairing as the
//!   thread count grows (§IV-B step 3's motivation);
//! * `bench_sim` — simulator cycle throughput (ST and SMT) and the parts
//!   of one stepped core-cycle (`step_parts`);
//! * `bench_policy` — the full per-quantum SYNPA decision.
//!
//! Run with `cargo bench --workspace`.

#![forbid(unsafe_code)]

use synpa::model::{Categories, CategoryCoeffs, SynpaModel};

/// A representative trained-model stand-in for benches (values from a real
/// training run; benches only need realistic magnitudes).
pub fn bench_model() -> SynpaModel {
    SynpaModel {
        full_dispatch: CategoryCoeffs {
            alpha: 0.25,
            beta: 0.0,
            gamma: 0.0,
            rho: 0.0,
        },
        frontend: CategoryCoeffs {
            alpha: 0.05,
            beta: 0.91,
            gamma: 0.01,
            rho: 0.0,
        },
        backend: CategoryCoeffs {
            alpha: 0.65,
            beta: 1.34,
            gamma: 0.0,
            rho: 0.44,
        },
    }
}

/// Deterministic pseudo-random ST categories for `n` applications.
pub fn synthetic_categories(n: usize) -> Vec<Categories> {
    (0..n)
        .map(|i| Categories {
            full_dispatch: 0.25,
            frontend: 0.05 + (i % 5) as f64 * 0.2,
            backend: 0.1 + (i % 7) as f64 * 0.5,
        })
        .collect()
}

/// Symmetric cost matrix derived from the bench model over `n` apps.
pub fn synthetic_costs(n: usize) -> Vec<Vec<f64>> {
    let model = bench_model();
    let st = synthetic_categories(n);
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
