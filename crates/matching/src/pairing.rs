//! Minimum-cost perfect pairing on top of the blossom engine, plus the
//! exhaustive and greedy baselines used for verification and ablation.
//!
//! SYNPA's pair-selection step minimizes total predicted slowdown over all
//! pairings of the 8 workload applications onto 4 SMT2 cores. Costs are
//! real-valued; [`min_cost_pairing`] converts them to the non-negative
//! integer maximization problem the blossom solver expects.

use crate::assignment::max_weight_assignment;
use crate::blossom::max_weight_matching;

/// A perfect pairing of `2k` items.
#[derive(Debug, Clone, PartialEq)]
pub struct Pairing {
    /// The pairs, each `(lo, hi)` with `lo < hi`, sorted by `lo`.
    pub pairs: Vec<(usize, usize)>,
    /// Total symmetrized cost: the sum of `0.5*(c[u][v]+c[v][u])` over the
    /// pairs — the exact quantity the matching minimizes, identical across
    /// the blossom, exhaustive, and greedy solvers.
    pub total_cost: f64,
}

/// Fixed-point scale used to convert `f64` costs to integer weights.
const SCALE: f64 = 1_000_000.0;

pub(crate) fn check_square_even(costs: &[Vec<f64>]) -> usize {
    let n = costs.len();
    assert!(n % 2 == 0, "perfect pairing needs an even item count");
    assert!(
        costs.iter().all(|r| r.len() == n),
        "cost matrix must be square"
    );
    n
}

pub(crate) fn pairing_from_mate(costs: &[Vec<f64>], mate: &[Option<usize>]) -> Pairing {
    let mut pairs = Vec::with_capacity(mate.len() / 2);
    let mut total = 0.0;
    for (u, &m) in mate.iter().enumerate() {
        let v = m.expect("perfect matching leaves nobody unmatched");
        if u < v {
            pairs.push((u, v));
            total += 0.5 * (costs[u][v] + costs[v][u]);
        }
    }
    pairs.sort_unstable();
    Pairing {
        pairs,
        total_cost: total,
    }
}

/// Converts a real-valued cost matrix into the non-negative integer
/// maximization weights the blossom solver expects, together with
/// `max_c`, the largest off-diagonal symmetrized cost the transform is
/// anchored at.
///
/// Maximize (max_c - cost): all transformed weights >= 1 so the maximum
/// weight matching on the complete graph is perfect, and maximizing the
/// transform minimizes total cost (the pair count is fixed at n/2).
///
/// This is the *single* cost→weight transform in the crate: the solve
/// ([`min_cost_pairing`]) and the lower bound ([`min_cost_lower_bound`])
/// both go through it, so the bound is computed on exactly the integer
/// problem the blossom solves.
pub(crate) fn fill_int_weights(costs: &[Vec<f64>]) -> (Vec<Vec<i64>>, f64) {
    let n = costs.len();
    let sym = |u: usize, v: usize| 0.5 * (costs[u][v] + costs[v][u]);
    let mut max_c = f64::MIN;
    for u in 0..n {
        for v in 0..n {
            if u != v {
                max_c = max_c.max(sym(u, v));
            }
        }
    }
    let weights = (0..n)
        .map(|u| {
            (0..n)
                .map(|v| {
                    if u == v {
                        0
                    } else {
                        1 + ((max_c - sym(u, v)) * SCALE).round() as i64
                    }
                })
                .collect()
        })
        .collect();
    (weights, max_c)
}

/// Relative margin [`min_cost_lower_bound`] gives away to floating
/// point: the bound is lowered by this fraction of the problem's scale
/// (`n/2` pairs at the largest pair cost), far above the ~1e-15 relative
/// error of the `f64` arithmetic on either side of the comparison.
const BOUND_MARGIN: f64 = 1e-9;

/// An exact lower bound on [`min_cost_pairing`]'s `total_cost`,
/// computed without running the blossom.
///
/// It solves the fractional relaxation of the perfect-matching problem —
/// an integer max-weight assignment (Hungarian, O(n³), `i64`-exact) on the
/// same integer weights the blossom solves, diagonal excluded — and
/// converts back to costs. For weights `w = 1 + round((max_c − sym)·S)`,
/// rounding moves each weight by at most ½, so every perfect matching `M`
/// has `S·Σ_M sym ≥ (n/2)(1 + max_c·S) − (n/2)·½ − W(M)`; and
/// `W(M) ≤ W_assign/2` because `M` read in both directions is an
/// assignment. The result is further lowered by a relative margin of
/// 1e-9 of the problem scale, so it stays below the blossom's reported
/// cost despite floating-point rounding on either side.
///
/// When the relaxation has an integral optimum (measured: every n = 56
/// SYNPA cost matrix tried, see `docs/matching.md`) the bound is within
/// `n/2·1e-6` of the optimum; with odd cycles cheaper than any pairing
/// (two cheap triangles) it is strictly below it. Same input contract as
/// [`min_cost_pairing`].
pub fn min_cost_lower_bound(costs: &[Vec<f64>]) -> f64 {
    let n = check_square_even(costs);
    if n == 0 {
        return 0.0;
    }
    let (weights, max_c) = fill_int_weights(costs);
    let w_assign = max_weight_assignment(&weights);
    let pairs = (n / 2) as f64;
    let bound = (pairs * (1.0 + max_c * SCALE) - pairs * 0.5 - w_assign as f64 / 2.0) / SCALE;
    bound - BOUND_MARGIN * pairs * (max_c.abs() + 1.0)
}

/// How the SYNPA policy's pairing quanta were answered.
///
/// Every quantum that reaches pair selection first asks
/// [`min_cost_lower_bound`] whether *any* pairing could clear the
/// policy's hysteresis threshold; only when it might does the blossom
/// run. `calls == certificate_hits + cold_solves`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatcherStats {
    /// Pairing quanta (decisions that reached pair selection).
    pub calls: u64,
    /// Quanta the lower bound answered: no pairing can beat the current
    /// one by the hysteresis margin, so the blossom was skipped.
    pub certificate_hits: u64,
    /// Always 0: nothing warm-starts the blossom. Kept because the
    /// benchmark's report reads it (`matching.warm`).
    pub warm_solves: u64,
    /// Blossom solves run.
    pub cold_solves: u64,
}

/// Finds the minimum-total-cost perfect pairing via blossom matching.
///
/// `costs` must be square with even dimension; it is symmetrized by
/// averaging `costs[u][v]` and `costs[v][u]`, which matches the paper's use
/// (the cost of a pair is slowdown(i|j) + slowdown(j|i), same in both
/// directions).
pub fn min_cost_pairing(costs: &[Vec<f64>]) -> Pairing {
    let n = check_square_even(costs);
    if n == 0 {
        return Pairing {
            pairs: Vec::new(),
            total_cost: 0.0,
        };
    }
    let (weights, _) = fill_int_weights(costs);
    let (_, mate) = max_weight_matching(&weights);
    pairing_from_mate(costs, &mate)
}

/// Exhaustive minimum-cost perfect pairing by dynamic programming over
/// subsets, O(2ⁿ·n). Exact; practical for n ≤ 20. This is the oracle the
/// blossom solver is verified against and the "evaluate all combinations"
/// baseline whose cost explosion the paper cites as the reason to use
/// Blossom.
pub fn exhaustive_min_pairing(costs: &[Vec<f64>]) -> Pairing {
    let n = check_square_even(costs);
    if n == 0 {
        return Pairing {
            pairs: Vec::new(),
            total_cost: 0.0,
        };
    }
    assert!(n <= 22, "exhaustive pairing is exponential; use blossom");
    let full = 1usize << n;
    let mut best = vec![f64::INFINITY; full];
    let mut choice = vec![(0usize, 0usize); full];
    best[0] = 0.0;
    for mask in 1..full {
        let u = mask.trailing_zeros() as usize;
        if mask & (1 << u) == 0 {
            continue;
        }
        let rest = mask & !(1 << u);
        let mut v_bits = rest;
        while v_bits != 0 {
            let v = v_bits.trailing_zeros() as usize;
            v_bits &= v_bits - 1;
            let prev = rest & !(1 << v);
            let cand = best[prev] + 0.5 * (costs[u][v] + costs[v][u]);
            if cand < best[mask] {
                best[mask] = cand;
                choice[mask] = (u, v);
            }
        }
    }
    let mut pairs = Vec::with_capacity(n / 2);
    let mut total = 0.0;
    let mut mask = full - 1;
    while mask != 0 {
        let (u, v) = choice[mask];
        pairs.push((u.min(v), u.max(v)));
        total += 0.5 * (costs[u][v] + costs[v][u]);
        mask &= !(1 << u);
        mask &= !(1 << v);
    }
    pairs.sort_unstable();
    Pairing {
        pairs,
        total_cost: total,
    }
}

/// Greedy baseline: repeatedly pair the two unpaired items with the lowest
/// cost. Fast but suboptimal; timed against Blossom by `overhead_comparison`.
#[allow(clippy::needless_range_loop)] // (u, v) index form mirrors the matrix
pub fn greedy_min_pairing(costs: &[Vec<f64>]) -> Pairing {
    let n = check_square_even(costs);
    let mut used = vec![false; n];
    let mut edges: Vec<(f64, usize, usize)> = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n {
        for v in u + 1..n {
            edges.push((0.5 * (costs[u][v] + costs[v][u]), u, v));
        }
    }
    edges.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut pairs = Vec::with_capacity(n / 2);
    let mut total = 0.0;
    for (c, u, v) in edges {
        if !used[u] && !used[v] {
            used[u] = true;
            used[v] = true;
            pairs.push((u, v));
            total += c;
        }
    }
    pairs.sort_unstable();
    Pairing {
        pairs,
        total_cost: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs(rows: &[&[f64]]) -> Vec<Vec<f64>> {
        rows.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn blossom_matches_dp_on_simple_case() {
        let c = costs(&[
            &[0.0, 1.0, 4.0, 4.0],
            &[1.0, 0.0, 4.0, 4.0],
            &[4.0, 4.0, 0.0, 1.0],
            &[4.0, 4.0, 1.0, 0.0],
        ]);
        let b = min_cost_pairing(&c);
        let e = exhaustive_min_pairing(&c);
        assert_eq!(b.pairs, vec![(0, 1), (2, 3)]);
        assert_eq!(b.pairs, e.pairs);
        assert!((b.total_cost - 2.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_can_be_suboptimal() {
        // Greedy takes (0,1)=1 first, forcing (2,3)=10 (total 11); optimal
        // is (0,2)+(1,3) = 2+2 = 4.
        let c = costs(&[
            &[0.0, 1.0, 2.0, 9.0],
            &[1.0, 0.0, 9.0, 2.0],
            &[2.0, 9.0, 0.0, 10.0],
            &[9.0, 2.0, 10.0, 0.0],
        ]);
        let g = greedy_min_pairing(&c);
        let b = min_cost_pairing(&c);
        assert!((g.total_cost - 11.0).abs() < 1e-9);
        assert!((b.total_cost - 4.0).abs() < 1e-9);
        assert!(b.total_cost < g.total_cost);
    }

    #[test]
    fn asymmetric_costs_are_averaged() {
        // cost(0,1) = 2 and cost(1,0) = 4: the pair's cost is the
        // symmetrized 0.5*(2+4) = 3 in both the matching objective and the
        // reported total (all three solvers agree on this quantity).
        let c = costs(&[&[0.0, 2.0], &[4.0, 0.0]]);
        let p = min_cost_pairing(&c);
        assert_eq!(p.pairs, vec![(0, 1)]);
        assert!((p.total_cost - 3.0).abs() < 1e-9);
        let e = exhaustive_min_pairing(&c);
        let g = greedy_min_pairing(&c);
        assert!((e.total_cost - 3.0).abs() < 1e-9);
        assert!((g.total_cost - 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input() {
        let p = min_cost_pairing(&[]);
        assert!(p.pairs.is_empty());
        assert_eq!(p.total_cost, 0.0);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_count_panics() {
        min_cost_pairing(&costs(&[
            &[0.0, 1.0, 1.0],
            &[1.0, 0.0, 1.0],
            &[1.0, 1.0, 0.0],
        ]));
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // (u, v) index form mirrors the matrix
    fn eight_apps_like_synpa() {
        // 8 items, block structure: items 0-3 "backend", 4-7 "frontend";
        // BE+BE pairs cost 3.0, FE+FE 2.0, BE+FE 1.0. Optimal: all cross
        // pairs, total 4.0.
        let mut c = vec![vec![0.0; 8]; 8];
        for u in 0..8 {
            for v in 0..8 {
                if u == v {
                    continue;
                }
                let (bu, bv) = (u < 4, v < 4);
                c[u][v] = match (bu, bv) {
                    (true, true) => 3.0,
                    (false, false) => 2.0,
                    _ => 1.0,
                };
            }
        }
        let p = min_cost_pairing(&c);
        assert!((p.total_cost - 4.0).abs() < 1e-9);
        for &(u, v) in &p.pairs {
            assert!((u < 4) != (v < 4), "every pair mixes the groups");
        }
    }

    #[test]
    fn all_items_appear_exactly_once() {
        let c = costs(&[
            &[0.0, 5.0, 2.0, 8.0, 1.0, 9.0],
            &[5.0, 0.0, 7.0, 3.0, 4.0, 2.0],
            &[2.0, 7.0, 0.0, 6.0, 8.0, 3.0],
            &[8.0, 3.0, 6.0, 0.0, 2.0, 7.0],
            &[1.0, 4.0, 8.0, 2.0, 0.0, 5.0],
            &[9.0, 2.0, 3.0, 7.0, 5.0, 0.0],
        ]);
        let p = min_cost_pairing(&c);
        let mut seen: Vec<usize> = p.pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }
}
