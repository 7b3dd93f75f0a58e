//! Property tests for bound-first pairing on incrementally drifting cost
//! traces.
//!
//! The SYNPA policy sees one cost matrix per quantum, each a small change
//! of the last. It asks [`min_cost_lower_bound`] first and skips the
//! blossom when no pairing can beat the current one by the hysteresis
//! margin. That shortcut is only allowed into the scheduler because it is
//! *exact*: on every quantum of every trace the bound-gated decision must
//! equal the always-solve decision, the bound must stay at or below the
//! blossom's cost, and — where the subset-DP oracle is tractable — the
//! blossom must match exhaustive enumeration. These tests drive the pair
//! through the drift families the per-quantum hot path actually sees:
//!
//! * **random walk** — small per-quantum cost wobble (damped ST estimates
//!   drifting), the regime the bound is supposed to answer;
//! * **adversarial spikes** — occasional full cost inversions (phase
//!   changes), forcing re-solves and migrations;
//! * **app churn** — the matrix is regenerated and the current pairing
//!   forgotten (attach/detach re-indexes everything);
//! * **odd-count padding** — a zero-cost virtual node row/column, exactly
//!   what `paired_assignment` appends for odd app counts.
//!
//! Sizes cover the paper's full-chip shape (n = 56 = 112 threads on 64
//! slots minus singles) plus DP-checkable small cases.

use proptest::prelude::*;
use synpa_matching::{
    exhaustive_min_pairing, min_cost_lower_bound, min_cost_pairing, MatcherStats, Pairing,
};

/// The SYNPA policy's default hysteresis: migrate only for a predicted
/// gain of more than 2 %.
const HYSTERESIS: f64 = 0.02;

/// Deterministic xorshift so a whole trace derives from one proptest seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform-ish f64 on a 3-decimal grid in `[lo, hi)` (grid keeps the
    /// fixed-point weight conversion exact, mirroring the solver tests).
    fn grid(&mut self, lo: f64, hi: f64) -> f64 {
        let steps = ((hi - lo) * 1000.0) as u64;
        lo + (self.next() % steps) as f64 / 1000.0
    }
}

/// Fresh random cost matrix; asymmetric on purpose — the matching layer
/// symmetrizes, and the bound must do it identically.
fn fresh_costs(rng: &mut Rng, n: usize) -> Vec<Vec<f64>> {
    let mut c = vec![vec![0.0; n]; n];
    for (u, row) in c.iter_mut().enumerate() {
        for (v, cell) in row.iter_mut().enumerate() {
            if u != v {
                *cell = rng.grid(1.0, 5.0);
            }
        }
    }
    c
}

/// One random-walk step on the 3-decimal grid, clamped to [1, 5].
fn drift(rng: &mut Rng, costs: &mut [Vec<f64>], step_millis: u64) {
    let n = costs.len();
    for (u, row) in costs.iter_mut().enumerate().take(n) {
        for (v, cell) in row.iter_mut().enumerate() {
            if u == v {
                continue;
            }
            let mag = (rng.next() % (step_millis + 1)) as f64 / 1000.0;
            let delta = if rng.next() % 2 == 0 { mag } else { -mag };
            *cell = ((*cell + delta).clamp(1.0, 5.0) * 1000.0).round() / 1000.0;
        }
    }
}

/// Inverts the cost landscape (cheap pairs become expensive): the
/// adversarial spike that should defeat the bound outright.
fn spike(costs: &mut [Vec<f64>]) {
    for (u, row) in costs.iter_mut().enumerate() {
        for (v, cell) in row.iter_mut().enumerate() {
            if u != v {
                *cell = 6.0 - *cell;
            }
        }
    }
}

/// Drops the last app and re-pads, mirroring what `paired_assignment`
/// does for odd app counts: the last index becomes a virtual node the
/// real apps can pair against for free. The size stays `n`, so the
/// current pairing stays a pairing of the padded matrix.
fn pad_odd(costs: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let m = costs.len() - 1; // odd count of "real" apps
    let mut padded = vec![vec![0.0; m + 1]; m + 1];
    for u in 0..m {
        for v in 0..m {
            padded[u][v] = costs[u][v];
        }
    }
    padded
}

/// The pairing every trace starts from: `(0, 1), (2, 3), …`.
fn initial_pairs(n: usize) -> Vec<(usize, usize)> {
    (0..n / 2).map(|k| (2 * k, 2 * k + 1)).collect()
}

/// Symmetrized cost of `pairs` under `costs`, the quantity
/// [`Pairing::total_cost`] reports.
fn cost_of(costs: &[Vec<f64>], pairs: &[(usize, usize)]) -> f64 {
    pairs
        .iter()
        .map(|&(u, v)| 0.5 * (costs[u][v] + costs[v][u]))
        .sum()
}

/// One pairing quantum the way the SYNPA policy runs it: bound first,
/// blossom only when the bound cannot rule out a material gain. Returns
/// the gated decision (the new pairing, or `None` to keep the current
/// one) and the always-solve decision, which must be equal.
fn decide(
    costs: &[Vec<f64>],
    current: &[(usize, usize)],
    stats: &mut MatcherStats,
) -> (Option<Pairing>, Option<Pairing>) {
    let threshold = cost_of(costs, current) * (1.0 - HYSTERESIS);
    let bound = min_cost_lower_bound(costs);
    let solved = min_cost_pairing(costs);
    assert!(
        bound <= solved.total_cost,
        "bound {bound} above the solved cost {}",
        solved.total_cost
    );
    let always = (solved.total_cost < threshold).then(|| solved.clone());
    stats.calls += 1;
    let gated = if bound >= threshold {
        stats.certificate_hits += 1;
        None
    } else {
        stats.cold_solves += 1;
        always.clone()
    };
    (gated, always)
}

/// Drives `quanta` steps of a drift trace through the bound-gated
/// decision, checking it against always solving, the blossom against the
/// DP oracle for small n, and the pairing's perfection on every step.
fn check_trace(n: usize, quanta: usize, seed: u64, step_millis: u64) {
    let mut rng = Rng(seed | 1);
    let mut stats = MatcherStats::default();
    let mut costs = fresh_costs(&mut rng, n);
    let mut current = initial_pairs(n);
    for q in 0..quanta {
        // Occasional adversarial events on top of the random walk.
        match rng.next() % 16 {
            0 => spike(&mut costs),
            1 => {
                // App churn: whole new matrix, index identity gone.
                costs = fresh_costs(&mut rng, n);
                current = initial_pairs(n);
            }
            _ => drift(&mut rng, &mut costs, step_millis),
        }
        // Every fourth quantum also checks the odd-count padded shape the
        // scheduler produces (virtual node = last index, zero cost).
        let solve_costs = if q % 4 == 3 {
            pad_odd(&costs)
        } else {
            costs.clone()
        };
        let (gated, always) = decide(&solve_costs, &current, &mut stats);
        assert_eq!(
            gated.as_ref().map(|p| &p.pairs),
            always.as_ref().map(|p| &p.pairs),
            "n={n} q={q}: bound-gated decision differs from always solving"
        );
        let solved = min_cost_pairing(&solve_costs);
        if n <= 16 {
            let oracle = exhaustive_min_pairing(&solve_costs);
            assert!(
                (solved.total_cost - oracle.total_cost).abs() < 1e-6,
                "n={n} q={q}: blossom {} vs oracle {}",
                solved.total_cost,
                oracle.total_cost
            );
        }
        // The pairing itself must be perfect over all indices.
        let mut seen: Vec<usize> = solved.pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..solve_costs.len()).collect::<Vec<_>>());
        if let Some(p) = gated {
            current = p.pairs;
        }
    }
    assert_eq!(stats.calls, quanta as u64);
    assert_eq!(stats.calls, stats.certificate_hits + stats.cold_solves);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn drift_trace_stays_exact_n8(seed in 0u64..u64::MAX) {
        check_trace(8, 40, seed, 50);
    }

    #[test]
    fn drift_trace_stays_exact_n16(seed in 0u64..u64::MAX) {
        check_trace(16, 30, seed, 50);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn drift_trace_stays_exact_n56(seed in 0u64..u64::MAX) {
        check_trace(56, 20, seed, 50);
    }
}

/// On a low-drift trace at full-chip scale the bound must actually answer
/// — otherwise the O(n³) assignment is dead weight on the hot path ahead
/// of every blossom solve.
///
/// "Low drift" here means a settled workload: most quanta the matrix is
/// unchanged, and occasionally a couple of apps' damped estimates move
/// enough to re-price their row/column.
#[test]
fn certificate_fires_on_low_drift_full_chip_scale() {
    let n = 56;
    let mut rng = Rng(0x5397_ACE1);
    let mut stats = MatcherStats::default();
    let mut costs = fresh_costs(&mut rng, n);
    let mut current = initial_pairs(n);
    let mut unchanged_quanta = 0u64;
    for q in 0..32 {
        if q % 4 == 0 {
            // A couple of apps re-estimated: their whole row/column moves.
            for _ in 0..2 {
                let a = (rng.next() % n as u64) as usize;
                for v in (0..n).filter(|&v| v != a) {
                    let bump = (rng.next() % 3) as f64 / 1000.0;
                    costs[a][v] = (costs[a][v] + bump).clamp(1.0, 5.0);
                    costs[v][a] = (costs[v][a] + bump).clamp(1.0, 5.0);
                }
            }
        } else {
            // Sub-epsilon quantum: the cached matrix is byte-identical.
            unchanged_quanta += 1;
        }
        let (gated, always) = decide(&costs, &current, &mut stats);
        assert_eq!(
            gated.as_ref().map(|p| &p.pairs),
            always.as_ref().map(|p| &p.pairs)
        );
        if let Some(p) = gated {
            current = p.pairs;
        }
    }
    assert_eq!(stats.calls, 32);
    // Once the first quantum has moved to the optimum, every unchanged
    // quantum keeps a pairing the bound proves within the hysteresis
    // margin — a solve there means the bound lost its tightness.
    assert!(
        stats.certificate_hits >= unchanged_quanta,
        "bound must answer all {unchanged_quanta} unchanged quanta: {stats:?}"
    );
    assert_eq!(stats.calls, stats.certificate_hits + stats.cold_solves);
}
