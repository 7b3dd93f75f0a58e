//! # synpa-metrics — multiprogram evaluation metrics
//!
//! The system-level metrics of the paper's evaluation (§VI), following
//! Eyerman & Eeckhout's "System-Level Performance Metrics for Multiprogram
//! Workloads":
//!
//! * turnaround-time speedup (Fig. 5),
//! * fairness `1 − σ/µ` over individual speedups (Fig. 8),
//! * workload IPC as the geometric mean of per-app IPCs (Fig. 9),
//! * ANTT and STP as supplementary metrics,
//! * basic statistics (mean, geomean, stdev, coefficient of variation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation; 0 for fewer than two points.
pub fn stdev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Geometric mean; panics if any element is non-positive.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(
        xs.iter().all(|&x| x > 0.0),
        "geomean requires positive values"
    );
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Coefficient of variation σ/µ; 0 when the mean is 0.
pub fn coefficient_of_variation(xs: &[f64]) -> f64 {
    let m = mean(xs);
    if m == 0.0 {
        0.0
    } else {
        stdev(xs) / m
    }
}

/// Turnaround-time speedup of a policy over the baseline: `tt_base /
/// tt_policy` (> 1 when the policy is faster). The Fig. 5 quantity.
pub fn tt_speedup(tt_baseline: f64, tt_policy: f64) -> f64 {
    assert!(tt_policy > 0.0, "turnaround time must be positive");
    tt_baseline / tt_policy
}

/// Fairness of a workload execution (§VI-D, after the paper's \[24\]):
/// `1 − σ(IS) / µ(IS)` over the individual speedups `IS_k = IPC_smt,k /
/// IPC_solo,k`. 1 = perfectly fair; lower = some applications progress
/// disproportionately slowly.
pub fn fairness(individual_speedups: &[f64]) -> f64 {
    assert!(!individual_speedups.is_empty());
    1.0 - coefficient_of_variation(individual_speedups)
}

/// Workload IPC as the geometric mean of per-application IPCs (Fig. 9).
pub fn workload_ipc(ipcs: &[f64]) -> f64 {
    geomean(ipcs)
}

/// Average normalized turnaround time: the arithmetic mean of per-app
/// slowdowns (`1 / IS_k`). Lower is better.
pub fn antt(individual_speedups: &[f64]) -> f64 {
    assert!(individual_speedups.iter().all(|&s| s > 0.0));
    mean(
        &individual_speedups
            .iter()
            .map(|s| 1.0 / s)
            .collect::<Vec<_>>(),
    )
}

/// System throughput: the sum of individual speedups (a.k.a. weighted
/// speedup). Higher is better; equals the thread count with zero
/// interference.
pub fn stp(individual_speedups: &[f64]) -> f64 {
    individual_speedups.iter().sum()
}

/// Nearest-rank percentile of an (unsorted) integer sample: the smallest
/// element such that at least `p`% of the sample is ≤ it. `p` must be in
/// `(0, 100]`; an empty sample has no percentile and yields `None` — a
/// run where nothing completed must show "no data", not a fabricated
/// zero-cycle latency. The open-system latency metric (p50/p95/p99
/// turnaround) — nearest-rank keeps the result an actual observation, so
/// tables stay in whole cycles and byte-stable across platforms (no
/// interpolation arithmetic).
pub fn percentile(sample: &[u64], p: f64) -> Option<u64> {
    assert!(
        p > 0.0 && p <= 100.0,
        "percentile must be in (0, 100], got {p}"
    );
    if sample.is_empty() {
        return None;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stdev_basics() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(stdev(&[5.0, 5.0, 5.0]), 0.0);
        assert!((stdev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_matches_hand_computation() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn fairness_is_one_for_equal_speedups() {
        assert!((fairness(&[0.6, 0.6, 0.6]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fairness_drops_with_spread() {
        let even = fairness(&[0.5, 0.5, 0.5, 0.5]);
        let uneven = fairness(&[0.9, 0.5, 0.3, 0.2]);
        assert!(uneven < even);
        assert!(uneven < 1.0);
    }

    #[test]
    fn tt_speedup_direction() {
        assert!((tt_speedup(200.0, 100.0) - 2.0).abs() < 1e-12);
        assert!(tt_speedup(100.0, 200.0) < 1.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [15, 20, 35, 40, 50];
        assert_eq!(percentile(&xs, 30.0), Some(20)); // classic nearest-rank example
        assert_eq!(percentile(&xs, 40.0), Some(20));
        assert_eq!(percentile(&xs, 50.0), Some(35));
        assert_eq!(percentile(&xs, 100.0), Some(50));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None, "no sample, no percentile");
        // Order-free: the sample need not be sorted.
        assert_eq!(percentile(&[50, 15, 40, 20, 35], 50.0), Some(35));
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_rejects_zero_p() {
        percentile(&[1, 2, 3], 0.0);
    }

    #[test]
    fn antt_is_mean_slowdown() {
        // speedups 0.5 -> slowdown 2; 1.0 -> 1 => ANTT 1.5.
        assert!((antt(&[0.5, 1.0]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn stp_sums_speedups() {
        assert!((stp(&[0.5, 0.7, 0.8]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cv_zero_mean_is_zero() {
        assert_eq!(coefficient_of_variation(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn geomean_of_empty_is_zero() {
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn geomean_of_singleton_is_the_value() {
        assert!((geomean(&[3.25]) - 3.25).abs() < 1e-12);
        assert!((geomean(&[1e-9]) - 1e-9).abs() < 1e-21);
    }

    #[test]
    fn tt_speedup_identity() {
        for tt in [1.0, 123.456, 3e8] {
            assert!((tt_speedup(tt, tt) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn tt_speedup_rejects_zero_policy_time() {
        tt_speedup(100.0, 0.0);
    }

    #[test]
    fn fairness_of_singleton_is_one() {
        // One application has zero spread by definition.
        assert_eq!(fairness(&[0.7]), 1.0);
    }

    proptest::proptest! {
        #[test]
        fn fairness_in_unit_interval_for_bounded_spread(
            base in 0.1f64..1.0,
            ratios in proptest::collection::vec(1.0f64..2.0, 2..10),
        ) {
            // Speedups within a 2x band: |x - mean| <= min <= mean, so the
            // CV is at most 1 and fairness lands in [0, 1]. (Wilder spreads
            // can push the CV above 1, so no global lower bound exists.)
            let xs: Vec<f64> = ratios.iter().map(|r| base * r).collect();
            let f = fairness(&xs);
            proptest::prop_assert!(f <= 1.0 + 1e-12, "fairness {f} above 1");
            proptest::prop_assert!(f >= -1e-12, "fairness {f} below 0 for 2x spread");
        }
    }

    proptest::proptest! {
        #[test]
        fn fairness_bounded_above_by_one(xs in proptest::collection::vec(0.01f64..2.0, 2..10)) {
            proptest::prop_assert!(fairness(&xs) <= 1.0 + 1e-12);
        }

        #[test]
        fn geomean_le_mean(xs in proptest::collection::vec(0.01f64..10.0, 1..10)) {
            // AM-GM inequality.
            proptest::prop_assert!(geomean(&xs) <= mean(&xs) + 1e-9);
        }

        #[test]
        fn stp_at_most_thread_count(xs in proptest::collection::vec(0.01f64..1.0, 1..10)) {
            // Individual speedups under interference are <= 1.
            proptest::prop_assert!(stp(&xs) <= xs.len() as f64);
        }
    }
}
