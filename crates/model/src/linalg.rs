//! Minimal dense linear algebra: just enough to solve the 4×4 (and, for the
//! ablation models, up to ~12×12) normal-equation systems produced by
//! ordinary least squares. Gaussian elimination with partial pivoting.

/// Solves `A x = b` in place for square `A`. Returns `None` if the matrix is
/// singular to working precision.
#[allow(clippy::needless_range_loop)] // row/col index form mirrors the math
pub fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = a.len();
    assert!(a.iter().all(|r| r.len() == n), "matrix must be square");
    assert_eq!(b.len(), n, "rhs length must match");
    for col in 0..n {
        // Partial pivot.
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .unwrap();
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate below.
        for row in col + 1..n {
            let f = a[row][col] / a[col][col];
            if f == 0.0 {
                continue;
            }
            for k in col..n {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut s = b[row];
        for k in row + 1..n {
            s -= a[row][k] * x[k];
        }
        x[row] = s / a[row][row];
    }
    Some(x)
}

/// Ordinary least squares: finds `beta` minimizing `‖X beta − y‖²` via the
/// normal equations. `rows` yields each design-matrix row with its response;
/// `XᵀX` and `Xᵀy` are accumulated row by row, so no design matrix is held.
/// Returns `None` for fewer rows than columns or when `XᵀX` is singular
/// (e.g. degenerate data).
#[allow(clippy::needless_range_loop)] // row/col index form mirrors the math
pub fn least_squares<const K: usize>(
    rows: impl IntoIterator<Item = ([f64; K], f64)>,
) -> Option<Vec<f64>> {
    let mut xtx = vec![vec![0.0; K]; K];
    let mut xty = vec![0.0; K];
    let mut n = 0;
    for (row, yi) in rows {
        n += 1;
        for a in 0..K {
            xty[a] += row[a] * yi;
            for b in 0..K {
                xtx[a][b] += row[a] * row[b];
            }
        }
    }
    if K == 0 || n < K {
        return None;
    }
    solve(xtx, xty)
}

/// Spearman rank correlation between two equally long samples.
/// Returns 0 for degenerate inputs (fewer than 2 points or zero variance).
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n < 2 {
        return 0.0;
    }
    let rank = |v: &[f64]| -> Vec<f64> {
        let mut order: Vec<usize> = (0..v.len()).collect();
        order.sort_by(|&i, &j| v[i].total_cmp(&v[j]));
        let mut r = vec![0.0; v.len()];
        for (k, &i) in order.iter().enumerate() {
            r[i] = k as f64;
        }
        r
    };
    let (ra, rb) = (rank(a), rank(b));
    let m = (n as f64 - 1.0) / 2.0;
    let cov: f64 = ra.iter().zip(&rb).map(|(x, y)| (x - m) * (y - m)).sum();
    let var: f64 = ra.iter().map(|x| (x - m) * (x - m)).sum();
    if var == 0.0 {
        0.0
    } else {
        cov / var
    }
}

/// Mean squared error of predictions vs. observations.
pub fn mse(pred: &[f64], obs: &[f64]) -> f64 {
    assert_eq!(pred.len(), obs.len());
    if pred.is_empty() {
        return 0.0;
    }
    pred.iter()
        .zip(obs)
        .map(|(p, o)| (p - o) * (p - o))
        .sum::<f64>()
        / pred.len() as f64
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let x = solve(a, vec![3.0, 4.0]).unwrap();
        assert_eq!(x, vec![3.0, 4.0]);
    }

    #[test]
    fn solves_general_3x3() {
        let a = vec![
            vec![2.0, 1.0, -1.0],
            vec![-3.0, -1.0, 2.0],
            vec![-2.0, 1.0, 2.0],
        ];
        let x = solve(a, vec![8.0, -11.0, -3.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
        assert!((x[2] + 1.0).abs() < 1e-9);
    }

    #[test]
    fn detects_singular() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve(a, vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let x = solve(a, vec![5.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 5.0).abs() < 1e-12);
    }

    /// Test-only copy of the row-materialized least squares the streamed
    /// one replaced, kept as its differential oracle: every row is held in
    /// a design matrix before `XᵀX` and `Xᵀy` are summed.
    pub(crate) fn materialized_least_squares(rows: &[Vec<f64>], y: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(rows.len(), y.len(), "one response per row");
        let k = rows.first().map(|r| r.len()).unwrap_or(0);
        if k == 0 || rows.len() < k {
            return None;
        }
        let mut xtx = vec![vec![0.0; k]; k];
        let mut xty = vec![0.0; k];
        for (row, &yi) in rows.iter().zip(y) {
            assert_eq!(row.len(), k, "ragged design matrix");
            for a in 0..k {
                xty[a] += row[a] * yi;
                for b in 0..k {
                    xtx[a][b] += row[a] * row[b];
                }
            }
        }
        solve(xtx, xty)
    }

    #[test]
    fn least_squares_recovers_exact_linear_model() {
        // y = 1 + 2a + 3b, noise-free.
        let rows = (0..20).map(|i| {
            let a = i as f64 * 0.1;
            let b = (i % 5) as f64;
            ([1.0, a, b], 1.0 + 2.0 * a + 3.0 * b)
        });
        let beta = least_squares(rows).unwrap();
        assert!((beta[0] - 1.0).abs() < 1e-9);
        assert!((beta[1] - 2.0).abs() < 1e-9);
        assert!((beta[2] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn least_squares_averages_noise() {
        // Constant model fitted to noisy data = mean.
        let rows = [1.0, 2.0, 3.0, 4.0].map(|y| ([1.0], y));
        let beta = least_squares(rows).unwrap();
        assert!((beta[0] - 2.5).abs() < 1e-9);
    }

    #[test]
    fn least_squares_rejects_underdetermined() {
        assert!(least_squares([([1.0, 2.0, 3.0], 1.0)]).is_none());
    }

    /// Fits `rows` cut to width `K` by [`least_squares`] and by the
    /// materialized oracle, as the bit patterns of the two solutions.
    type Bits = Option<Vec<u64>>;
    fn streamed_and_materialized<const K: usize>(rows: &[([f64; 4], f64)]) -> (Bits, Bits) {
        let streamed = least_squares(rows.iter().map(|(r, y)| {
            let mut row = [0.0; K];
            row.copy_from_slice(&r[..K]);
            (row, *y)
        }));
        let matrix: Vec<Vec<f64>> = rows.iter().map(|(r, _)| r[..K].to_vec()).collect();
        let y: Vec<f64> = rows.iter().map(|&(_, y)| y).collect();
        let oracle = materialized_least_squares(&matrix, &y);
        let bits = |b: Option<Vec<f64>>| b.map(|b| b.iter().map(|x| x.to_bits()).collect());
        (bits(streamed), bits(oracle))
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]
        #[test]
        fn streamed_least_squares_matches_the_design_matrix(
            width in 2usize..5,
            raw in proptest::collection::vec(
                ((-3.0f64..3.0, -3.0f64..3.0, -3.0f64..3.0), -10.0f64..10.0),
                0..60,
            ),
        ) {
            // Equation-1 rows: an intercept, two regressors and a product
            // term, as the category fits build them.
            let rows: Vec<([f64; 4], f64)> = raw
                .iter()
                .map(|&((a, b, c), y)| ([1.0, a, b, a * c], y))
                .collect();
            let (streamed, oracle) = match width {
                2 => streamed_and_materialized::<2>(&rows),
                3 => streamed_and_materialized::<3>(&rows),
                _ => streamed_and_materialized::<4>(&rows),
            };
            proptest::prop_assert_eq!(streamed, oracle, "width {} over {} rows", width, rows.len());
        }
    }

    #[test]
    fn spearman_perfect_and_inverse() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
        let c = [4.0, 3.0, 2.0, 1.0];
        assert!((spearman(&b, &c) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_degenerate_is_zero() {
        assert_eq!(spearman(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn mse_basics() {
        assert_eq!(mse(&[1.0, 2.0], &[1.0, 4.0]), 2.0);
        assert_eq!(mse(&[], &[]), 0.0);
    }
}
