//! The fractional-matching lower bound must never exceed the cost of the
//! pairing the blossom returns (the SYNPA policy skips the solve on its
//! say-so), must agree with the exhaustive oracle, and must be tight when
//! the relaxation is integral.

use proptest::prelude::*;
use synpa_matching::{exhaustive_min_pairing, min_cost_lower_bound, min_cost_pairing};

/// Pads an odd matrix with a zero-cost virtual item, the way the SYNPA
/// policy hands odd app counts to the matcher.
fn padded(mut costs: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    let n = costs.len();
    if n % 2 == 1 {
        for row in &mut costs {
            row.push(0.0);
        }
        costs.push(vec![0.0; n + 1]);
    }
    costs
}

/// Asymmetric random `n × n` costs, `n` in `sizes`, with full `f64`
/// precision in `[0, 10)`, so the fixed-point conversion rounds on almost
/// every entry.
fn random_costs(sizes: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f64>>> {
    let max = sizes.end - 1;
    let full = proptest::collection::vec(proptest::collection::vec(0.0f64..10.0, max), max);
    (sizes, full).prop_map(|(n, full)| {
        (0..n)
            .map(|u| {
                (0..n)
                    .map(|v| if u == v { 0.0 } else { full[u][v] })
                    .collect()
            })
            .collect()
    })
}

/// Slowdown-shaped costs over `n` items, `n` in `sizes`: each item has a
/// frontend and a backend stall share, and a pair's cost grows
/// superlinearly with shared backend pressure — the structure of the
/// SYNPA model's predictions.
fn synpa_shaped(sizes: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f64>>> {
    let apps = proptest::collection::vec((0.0f64..0.6, 0.0f64..0.8), sizes.end - 1);
    (sizes, apps).prop_map(|(n, apps)| {
        (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        if i == j {
                            return 0.0;
                        }
                        let ((fi, bi), (fj, bj)) = (apps[i], apps[j]);
                        1.0 + 0.03 * fi + 0.1 * bi + 0.1 * bj + 0.8 * bi * bj + 0.02 * fj
                    })
                    .collect()
            })
            .collect()
    })
}

fn check_sound(costs: Vec<Vec<f64>>) {
    let costs = padded(costs);
    let bound = min_cost_lower_bound(&costs);
    let solved = min_cost_pairing(&costs).total_cost;
    prop_assert!(
        bound <= solved,
        "bound {bound} above the solved cost {solved} (n = {})",
        costs.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bound_never_exceeds_the_blossom_cost_on_random_matrices(
        costs in random_costs(2..57),
    ) {
        check_sound(costs);
    }

    #[test]
    fn bound_never_exceeds_the_blossom_cost_on_synpa_shaped_matrices(
        costs in synpa_shaped(2..57),
    ) {
        check_sound(costs);
    }

    #[test]
    fn bound_agrees_with_the_exhaustive_oracle(
        costs in random_costs(2..15),
    ) {
        let costs = padded(costs);
        let bound = min_cost_lower_bound(&costs);
        let oracle = exhaustive_min_pairing(&costs).total_cost;
        prop_assert!(bound <= oracle, "bound {bound} above the optimum {oracle}");
    }
}

/// Two groups where every same-group pair costs more than any cross pair:
/// no odd cycle can undercut the cross pairing, the relaxation is
/// integral, and the bound lands within the rounding slack of the optimum.
#[test]
fn bound_is_tight_when_the_relaxation_is_integral() {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % 10_000) as f64 / 1_000.0
    };
    for half in 1..=7 {
        let n = 2 * half;
        let costs: Vec<Vec<f64>> = (0..n)
            .map(|u| {
                (0..n)
                    .map(|v| match (u == v, (u < half) == (v < half)) {
                        (true, _) => 0.0,
                        (false, true) => 100.0 + next(),
                        (false, false) => next(),
                    })
                    .collect()
            })
            .collect();
        let bound = min_cost_lower_bound(&costs);
        let oracle = exhaustive_min_pairing(&costs).total_cost;
        assert!(bound <= oracle, "n = {n}: bound {bound} > optimum {oracle}");
        assert!(
            oracle - bound < n as f64 * 1e-6,
            "n = {n}: gap {} on an integral relaxation",
            oracle - bound
        );
    }
}

/// Two cheap triangles joined by expensive edges: every perfect matching
/// must cross once (cost 1 + 1 + 10), while the fractional relaxation
/// puts ½ on each triangle edge (cost 3 · ½ per triangle). The bound is
/// strictly below the optimum, so the policy must fall through to the
/// solve here.
#[test]
fn bound_is_strictly_below_the_optimum_on_two_cheap_triangles() {
    let costs: Vec<Vec<f64>> = (0..6)
        .map(|u| {
            (0..6)
                .map(|v| match (u == v, u / 3 == v / 3) {
                    (true, _) => 0.0,
                    (false, true) => 1.0,
                    (false, false) => 10.0,
                })
                .collect()
        })
        .collect();
    let bound = min_cost_lower_bound(&costs);
    let optimum = min_cost_pairing(&costs).total_cost;
    assert_eq!(optimum, 12.0);
    assert_eq!(exhaustive_min_pairing(&costs).total_cost, optimum);
    assert!(
        (bound - 3.0).abs() < 1e-4,
        "fractional optimum 3, got {bound}"
    );
}

#[test]
fn empty_matrix_has_a_zero_bound() {
    assert_eq!(min_cost_lower_bound(&[]), 0.0);
}
