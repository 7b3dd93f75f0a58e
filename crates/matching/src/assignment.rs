//! Maximum-weight assignment (Hungarian algorithm, O(n³), exact on
//! integers) over a square weight matrix with the diagonal excluded.
//!
//! Every perfect matching `M` of the complete graph induces the
//! assignment `u → mate(u)`, which uses each edge of `M` in both
//! directions and never the diagonal; its weight is `2·W(M)`. The
//! assignment optimum is the fractional perfect-matching LP relaxation
//! (the bipartite double cover of the graph), so half of it bounds every
//! matching's weight from above. `pairing::min_cost_lower_bound` turns
//! that into a lower bound on the pairing cost.

/// The state of one [`max_weight_assignment`] call.
struct Search {
    /// Row-major `n × n` costs `w_max − w`, the diagonal priced out.
    cost: Vec<i64>,
    /// Row potentials.
    u: Vec<i64>,
    /// Column potentials.
    v: Vec<i64>,
    /// Column → assigned row ([`NONE`] = free).
    row_of: Vec<usize>,
    /// Row → assigned column ([`NONE`] = not yet added).
    col_of: Vec<usize>,
    /// Shortest reduced-cost distance to each column in the current search.
    dist: Vec<i64>,
    /// Predecessor row of each column on its shortest path.
    pred: Vec<usize>,
    /// Columns not yet scanned in the current search.
    unscanned: Vec<usize>,
    /// Rows reached by the current search.
    row_seen: Vec<bool>,
    /// Columns scanned by the current search.
    col_seen: Vec<bool>,
}

/// Larger than any distance the search can produce.
const INF: i64 = i64::MAX / 4;

/// Marks an unassigned row or column.
const NONE: usize = usize::MAX;

/// Returns the maximum total weight of a permutation `σ` without fixed
/// points (`σ(u) ≠ u`) over the square, non-negative `weights`:
/// `max Σ_u weights[u][σ(u)]`.
///
/// Minimizes the non-negative costs `w_max − w` by shortest augmenting
/// paths (the Hungarian algorithm in Jonker–Volgenant form: one Dijkstra
/// search per row over the columns not yet scanned, potentials updated
/// once per search). The diagonal is priced at `n·w_max + 1`, more than
/// any fixed-point-free permutation costs in total, so the optimum never
/// uses it. Needs `n ≥ 2`.
pub(crate) fn max_weight_assignment(weights: &[Vec<i64>]) -> i64 {
    let n = weights.len();
    debug_assert!(n >= 2, "a derangement needs at least two items");
    let w_max = weights.iter().flatten().copied().max().unwrap_or(0);
    let diagonal = w_max * n as i64 + 1;
    let mut s = Search {
        cost: weights
            .iter()
            .enumerate()
            .flat_map(|(i, row)| {
                row.iter()
                    .enumerate()
                    .map(move |(j, &w)| if i == j { diagonal } else { w_max - w })
            })
            .collect(),
        u: vec![0; n],
        v: vec![0; n],
        row_of: vec![NONE; n],
        col_of: vec![NONE; n],
        dist: Vec::with_capacity(n),
        pred: vec![NONE; n],
        unscanned: Vec::with_capacity(n),
        row_seen: Vec::with_capacity(n),
        col_seen: Vec::with_capacity(n),
    };
    for row in 0..n {
        let (sink, shortest) = shortest_augmenting_path(&mut s, n, row);
        // Re-price so every assigned edge stays tight and every reduced
        // cost non-negative.
        s.u[row] += shortest;
        for i in (0..n).filter(|&i| s.row_seen[i] && i != row) {
            s.u[i] += shortest - s.dist[s.col_of[i]];
        }
        for j in (0..n).filter(|&j| s.col_seen[j]) {
            s.v[j] -= shortest - s.dist[j];
        }
        // Flip the path: every column on it takes its predecessor row.
        let mut j = sink;
        loop {
            let i = s.pred[j];
            s.row_of[j] = i;
            let next = std::mem::replace(&mut s.col_of[i], j);
            if i == row {
                break;
            }
            j = next;
        }
    }
    (0..n).map(|i| weights[i][s.col_of[i]]).sum()
}

/// Dijkstra over reduced costs from `row` to the nearest free column.
/// Returns that column and its distance; `dist`, `pred` and the seen
/// flags describe the search tree.
fn shortest_augmenting_path(s: &mut Search, n: usize, row: usize) -> (usize, i64) {
    s.unscanned.clear();
    s.unscanned.extend(0..n);
    for seen in [&mut s.row_seen, &mut s.col_seen] {
        seen.clear();
        seen.resize(n, false);
    }
    s.dist.clear();
    s.dist.resize(n, INF);
    let mut shortest = 0;
    let mut i = row;
    loop {
        s.row_seen[i] = true;
        let costs = &s.cost[i * n..(i + 1) * n];
        let base = shortest - s.u[i];
        let (mut lowest, mut pick) = (INF, 0);
        for (k, &j) in s.unscanned.iter().enumerate() {
            let d = base + costs[j] - s.v[j];
            if d < s.dist[j] {
                s.pred[j] = i;
                s.dist[j] = d;
            }
            // Ties go to free columns: the search ends sooner.
            if s.dist[j] < lowest || (s.dist[j] == lowest && s.row_of[j] == NONE) {
                lowest = s.dist[j];
                pick = k;
            }
        }
        shortest = lowest;
        let j = s.unscanned.swap_remove(pick);
        s.col_seen[j] = true;
        if s.row_of[j] == NONE {
            return (j, shortest);
        }
        i = s.row_of[j];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute force over all fixed-point-free permutations.
    fn brute(weights: &[Vec<i64>]) -> i64 {
        fn go(w: &[Vec<i64>], row: usize, used: &mut Vec<bool>) -> Option<i64> {
            if row == w.len() {
                return Some(0);
            }
            let mut best = None;
            for col in 0..w.len() {
                if col != row && !used[col] {
                    used[col] = true;
                    if let Some(rest) = go(w, row + 1, used) {
                        best = best.max(Some(rest + w[row][col]));
                    }
                    used[col] = false;
                }
            }
            best
        }
        go(weights, 0, &mut vec![false; weights.len()]).unwrap()
    }

    #[test]
    fn matches_brute_force_on_small_matrices() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for n in 2..=7 {
            for _ in 0..40 {
                let w: Vec<Vec<i64>> = (0..n)
                    .map(|_| {
                        (0..n)
                            .map(|_| {
                                x ^= x << 13;
                                x ^= x >> 7;
                                x ^= x << 17;
                                (x % 1000) as i64
                            })
                            .collect()
                    })
                    .collect();
                assert_eq!(max_weight_assignment(&w), brute(&w), "{w:?}");
            }
        }
    }

    #[test]
    fn diagonal_is_never_used() {
        // The diagonal dominates everything; a solver that used it would
        // report 3 * 100.
        let w = vec![vec![100, 1, 1], vec![1, 100, 1], vec![1, 1, 100]];
        assert_eq!(max_weight_assignment(&w), 3);
    }
}
