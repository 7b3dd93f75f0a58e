//! The decide split: replays recorded views through the public functions a
//! SYNPA decision is built from, and times each step on its own.
//!
//! Each view is replayed cold: every pair is inverted, the whole n×n
//! slowdown matrix is predicted and a fresh blossom solve runs. The policy
//! itself caches cost rows and keeps an incremental matcher, so the sum of
//! the three steps is what an uncached decision costs, not what the
//! policy's own decide measured.

use crate::probe::RecordedView;
use crate::stats::median;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;
use synpa::matching::min_cost_pairing;
use synpa::model::{invert, Categories, SynpaModel};

/// Replays of each view; the median over views × replays is reported.
const REPLAYS: usize = 3;

/// Median microseconds per view of each decide step.
#[derive(Debug, Clone, Copy)]
pub struct DecideSplit {
    /// Characterize both threads of every current pair and invert them.
    pub invert_us: f64,
    /// `predict_slowdown` over every ordered pair of placed apps.
    pub predict_matrix_us: f64,
    /// One cold `min_cost_pairing` on that matrix.
    pub solve_us: f64,
}

pub fn split_decide(model: &SynpaModel, views: &[RecordedView]) -> DecideSplit {
    let (mut inv, mut pred, mut solve) = (Vec::new(), Vec::new(), Vec::new());
    for rec in views {
        let view = rec.view();
        for _ in 0..REPLAYS {
            let t0 = Instant::now();
            let mut st: HashMap<usize, Categories> = HashMap::new();
            for (a, b) in view.pairs() {
                let (Some(da), Some(db)) = (view.delta_of(a), view.delta_of(b)) else {
                    continue;
                };
                let smt_a = Categories::from_delta(da, view.dispatch_width);
                let smt_b = Categories::from_delta(db, view.dispatch_width);
                let (st_a, st_b) = invert(model, &smt_a, &smt_b);
                st.insert(a, st_a);
                st.insert(b, st_b);
            }
            let t1 = Instant::now();
            // Apps alone on a core (and any pair member without a sample)
            // enter the matrix with their measured categories.
            let mut apps: Vec<usize> = view.placement.iter().map(|&(a, _)| a).collect();
            apps.sort_unstable();
            let ests: Vec<Categories> = apps
                .iter()
                .map(|a| match (st.get(a), view.delta_of(*a)) {
                    (Some(s), _) => *s,
                    (None, Some(d)) => Categories::from_delta(d, view.dispatch_width),
                    (None, None) => Categories::from_array([1.0, 0.0, 0.0]),
                })
                .collect();
            let t2 = Instant::now();
            let n = ests.len();
            // Odd counts get a zero-cost virtual app, as the policy pads.
            let size = n + n % 2;
            let mut costs = vec![vec![0.0; size]; size];
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        costs[i][j] = model.predict_slowdown(&ests[i], &ests[j]);
                    }
                }
            }
            let t3 = Instant::now();
            black_box(min_cost_pairing(black_box(&costs)));
            let t4 = Instant::now();
            inv.push((t1 - t0).as_secs_f64() * 1e6);
            pred.push((t3 - t2).as_secs_f64() * 1e6);
            solve.push((t4 - t3).as_secs_f64() * 1e6);
        }
    }
    DecideSplit {
        invert_us: median(&inv),
        predict_matrix_us: median(&pred),
        solve_us: median(&solve),
    }
}
