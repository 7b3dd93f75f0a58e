//! Edmonds' blossom algorithm for maximum-weight matching in general
//! graphs, O(n³).
//!
//! This is the engine behind SYNPA's step 3 (§IV-B): with the predicted
//! slowdown of every application pair in hand, selecting the globally best
//! set of pairs is a minimum-weight perfect matching problem, which the
//! paper solves with the Blossom algorithm [Edmonds 1965] to avoid the
//! combinatorial explosion of enumerating pairings.
//!
//! The implementation follows the classical primal-dual formulation with
//! lazy dual adjustment: vertices carry dual labels, tight edges grow
//! alternating forests, odd cycles are contracted into blossom pseudo-nodes,
//! and dual updates are driven by per-node slack tracking. Vertices are
//! 1-indexed internally; pseudo-nodes occupy indices `n+1..`.
//!
//! Each solve allocates its own state: the adjacency and
//! blossom-membership matrices are flat row-major arrays sized `(2n+2)²`.
//! At n = 56 that allocation is at parity with reusing buffers across
//! solves (BASELINES.md, "Matcher scratch").

use std::collections::VecDeque;

/// Edge record: `u`/`v` remember the *base-graph* endpoints an edge between
/// (possibly contracted) nodes refers to; `w` is its weight.
#[derive(Debug, Clone, Copy, Default)]
struct Edge {
    u: usize,
    v: usize,
    w: i64,
}

/// Maximum-weight matching solver; owns the state of one solve.
///
/// Weights must be non-negative; zero-weight edges are treated as absent.
struct Solver {
    /// Real vertices.
    n: usize,
    /// Current node-space size (vertices + live blossoms).
    n_x: usize,
    /// Dual-adjustment epoch for `vis`.
    vis_t: usize,
    /// Row length of `g`/`flower_from`: `2n + 2`.
    stride: usize,
    /// Row-major `stride × stride` adjacency over vertices + pseudo-nodes.
    g: Vec<Edge>,
    /// Row-major `stride × stride` blossom-membership map.
    flower_from: Vec<usize>,
    lab: Vec<i64>,
    matched: Vec<usize>,
    slack: Vec<usize>,
    st: Vec<usize>,
    pa: Vec<usize>,
    flower: Vec<Vec<usize>>,
    /// -1 unvisited, 0 even (S), 1 odd (T).
    s: Vec<i8>,
    vis: Vec<usize>,
    q: VecDeque<usize>,
}

impl Solver {
    fn new(weights: &[Vec<i64>]) -> Self {
        let n = weights.len();
        let stride = 2 * n + 2;
        let mut g = vec![Edge::default(); stride * stride];
        for u in 1..=n {
            for v in 1..=n {
                g[u * stride + v] = Edge {
                    u,
                    v,
                    w: if u == v { 0 } else { weights[u - 1][v - 1] },
                };
            }
        }
        Self {
            n,
            n_x: n,
            vis_t: 0,
            stride,
            g,
            flower_from: vec![0; stride * stride],
            lab: vec![0; stride],
            matched: vec![0; stride],
            slack: vec![0; stride],
            st: (0..stride).collect(),
            pa: vec![0; stride],
            flower: vec![Vec::new(); stride],
            s: vec![-1; stride],
            vis: vec![0; stride],
            q: VecDeque::new(),
        }
    }

    #[inline]
    fn g(&self, u: usize, v: usize) -> Edge {
        self.g[u * self.stride + v]
    }

    #[inline]
    fn e_delta(&self, e: Edge) -> i64 {
        self.lab[e.u] + self.lab[e.v] - self.g(e.u, e.v).w * 2
    }

    #[inline]
    fn update_slack(&mut self, u: usize, x: usize) {
        if self.slack[x] == 0 || self.e_delta(self.g(u, x)) < self.e_delta(self.g(self.slack[x], x))
        {
            self.slack[x] = u;
        }
    }

    fn set_slack(&mut self, x: usize) {
        self.slack[x] = 0;
        for u in 1..=self.n {
            if self.g(u, x).w > 0 && self.st[u] != x && self.s[self.st[u]] == 0 {
                self.update_slack(u, x);
            }
        }
    }

    fn q_push(&mut self, x: usize) {
        if x <= self.n {
            self.q.push_back(x);
        } else {
            for k in 0..self.flower[x].len() {
                let y = self.flower[x][k];
                self.q_push(y);
            }
        }
    }

    fn set_st(&mut self, x: usize, b: usize) {
        self.st[x] = b;
        if x > self.n {
            for k in 0..self.flower[x].len() {
                let y = self.flower[x][k];
                self.set_st(y, b);
            }
        }
    }

    fn get_pr(&mut self, b: usize, xr: usize) -> usize {
        let pr = self.flower[b].iter().position(|&x| x == xr).unwrap();
        if pr % 2 == 1 {
            self.flower[b][1..].reverse();
            self.flower[b].len() - pr
        } else {
            pr
        }
    }

    fn set_match(&mut self, u: usize, v: usize) {
        self.matched[u] = self.g(u, v).v;
        if u <= self.n {
            return;
        }
        let e = self.g(u, v);
        let xr = self.flower_from[u * self.stride + e.u];
        let pr = self.get_pr(u, xr);
        for i in 0..pr {
            let (a, b) = (self.flower[u][i], self.flower[u][i ^ 1]);
            self.set_match(a, b);
        }
        self.set_match(xr, v);
        self.flower[u].rotate_left(pr);
    }

    fn augment(&mut self, mut u: usize, mut v: usize) {
        loop {
            let xnv = self.st[self.matched[u]];
            self.set_match(u, v);
            if xnv == 0 {
                return;
            }
            let next = self.st[self.pa[xnv]];
            self.set_match(xnv, next);
            u = next;
            v = xnv;
        }
    }

    fn get_lca(&mut self, mut u: usize, mut v: usize) -> usize {
        self.vis_t += 1;
        let t = self.vis_t;
        while u != 0 || v != 0 {
            if u != 0 {
                if self.vis[u] == t {
                    return u;
                }
                self.vis[u] = t;
                u = self.st[self.matched[u]];
                if u != 0 {
                    u = self.st[self.pa[u]];
                }
            }
            std::mem::swap(&mut u, &mut v);
        }
        0
    }

    fn add_blossom(&mut self, u: usize, lca: usize, v: usize) {
        let stride = self.stride;
        let mut b = self.n + 1;
        while b <= self.n_x && self.st[b] != 0 {
            b += 1;
        }
        if b > self.n_x {
            self.n_x += 1;
        }
        self.lab[b] = 0;
        self.s[b] = 0;
        self.matched[b] = self.matched[lca];
        self.flower[b].clear();
        self.flower[b].push(lca);
        let mut x = u;
        while x != lca {
            self.flower[b].push(x);
            let y = self.st[self.matched[x]];
            self.flower[b].push(y);
            self.q_push(y);
            x = self.st[self.pa[y]];
        }
        self.flower[b][1..].reverse();
        let mut x = v;
        while x != lca {
            self.flower[b].push(x);
            let y = self.st[self.matched[x]];
            self.flower[b].push(y);
            self.q_push(y);
            x = self.st[self.pa[y]];
        }
        self.set_st(b, b);
        for x in 1..=self.n_x {
            self.g[b * stride + x].w = 0;
            self.g[x * stride + b].w = 0;
        }
        for x in 1..=self.n {
            self.flower_from[b * stride + x] = 0;
        }
        for k in 0..self.flower[b].len() {
            let xs = self.flower[b][k];
            for x in 1..=self.n_x {
                if self.g[b * stride + x].w == 0
                    || self.e_delta(self.g(xs, x)) < self.e_delta(self.g(b, x))
                {
                    self.g[b * stride + x] = self.g[xs * stride + x];
                    self.g[x * stride + b] = self.g[x * stride + xs];
                }
            }
            for x in 1..=self.n {
                if self.flower_from[xs * stride + x] != 0 {
                    self.flower_from[b * stride + x] = xs;
                }
            }
        }
        self.set_slack(b);
    }

    fn expand_blossom(&mut self, b: usize) {
        for k in 0..self.flower[b].len() {
            let i = self.flower[b][k];
            self.set_st(i, i);
        }
        let xr = self.flower_from[b * self.stride + self.g(b, self.pa[b]).u];
        let pr = self.get_pr(b, xr);
        let mut i = 0;
        while i < pr {
            let xs = self.flower[b][i];
            let xns = self.flower[b][i + 1];
            self.pa[xs] = self.g(xns, xs).u;
            self.s[xs] = 1;
            self.s[xns] = 0;
            self.slack[xs] = 0;
            self.set_slack(xns);
            self.q_push(xns);
            i += 2;
        }
        self.s[xr] = 1;
        self.pa[xr] = self.pa[b];
        for i in pr + 1..self.flower[b].len() {
            let xs = self.flower[b][i];
            self.s[xs] = -1;
            self.set_slack(xs);
        }
        self.st[b] = 0;
        self.flower[b].clear();
    }

    /// Processes a newly tight edge; returns true if an augmenting path was
    /// found (and applied).
    fn on_found_edge(&mut self, e: Edge) -> bool {
        let u = self.st[e.u];
        let v = self.st[e.v];
        if self.s[v] == -1 {
            self.pa[v] = e.u;
            self.s[v] = 1;
            let nu = self.st[self.matched[v]];
            self.slack[v] = 0;
            self.slack[nu] = 0;
            self.s[nu] = 0;
            self.q_push(nu);
        } else if self.s[v] == 0 {
            let lca = self.get_lca(u, v);
            if lca == 0 {
                self.augment(u, v);
                self.augment(v, u);
                return true;
            }
            self.add_blossom(u, lca, v);
        }
        false
    }

    /// One phase: grows forests / adjusts duals until an augmenting path is
    /// found or the duals prove optimality for the current matching size.
    fn matching_phase(&mut self) -> bool {
        for x in 0..=self.n_x {
            self.s[x] = -1;
            self.slack[x] = 0;
        }
        self.q.clear();
        for x in 1..=self.n_x {
            if self.st[x] == x && self.matched[x] == 0 {
                self.pa[x] = 0;
                self.s[x] = 0;
                self.q_push(x);
            }
        }
        if self.q.is_empty() {
            return false;
        }
        loop {
            while let Some(u) = self.q.pop_front() {
                if self.s[self.st[u]] == 1 {
                    continue;
                }
                for v in 1..=self.n {
                    if self.g(u, v).w > 0 && self.st[u] != self.st[v] {
                        if self.e_delta(self.g(u, v)) == 0 {
                            if self.on_found_edge(self.g(u, v)) {
                                return true;
                            }
                        } else {
                            let sv = self.st[v];
                            self.update_slack(u, sv);
                        }
                    }
                }
            }
            // Dual adjustment.
            let mut d = i64::MAX / 4;
            for b in self.n + 1..=self.n_x {
                if self.st[b] == b && self.s[b] == 1 {
                    d = d.min(self.lab[b] / 2);
                }
            }
            for x in 1..=self.n_x {
                if self.st[x] == x && self.slack[x] != 0 {
                    let delta = self.e_delta(self.g(self.slack[x], x));
                    if self.s[x] == -1 {
                        d = d.min(delta);
                    } else if self.s[x] == 0 {
                        d = d.min(delta / 2);
                    }
                }
            }
            for u in 1..=self.n {
                match self.s[self.st[u]] {
                    0 => {
                        if self.lab[u] <= d {
                            return false;
                        }
                        self.lab[u] -= d;
                    }
                    1 => self.lab[u] += d,
                    _ => {}
                }
            }
            for b in self.n + 1..=self.n_x {
                if self.st[b] == b {
                    match self.s[b] {
                        0 => self.lab[b] += d * 2,
                        1 => self.lab[b] -= d * 2,
                        _ => {}
                    }
                }
            }
            self.q.clear();
            for x in 1..=self.n_x {
                if self.st[x] == x
                    && self.slack[x] != 0
                    && self.st[self.slack[x]] != x
                    && self.e_delta(self.g(self.slack[x], x)) == 0
                    && self.on_found_edge(self.g(self.slack[x], x))
                {
                    return true;
                }
            }
            for b in self.n + 1..=self.n_x {
                if self.st[b] == b && self.s[b] == 1 && self.lab[b] == 0 {
                    self.expand_blossom(b);
                }
            }
        }
    }

    fn solve(&mut self) -> i64 {
        let stride = self.stride;
        let w_max = (1..=self.n)
            .flat_map(|u| (1..=self.n).map(move |v| (u, v)))
            .map(|(u, v)| self.g(u, v).w)
            .max()
            .unwrap_or(0);
        for u in 1..=self.n {
            self.lab[u] = w_max;
            for v in 1..=self.n {
                self.flower_from[u * stride + v] = if u == v { u } else { 0 };
            }
        }
        while self.matching_phase() {}
        let mut total = 0;
        for u in 1..=self.n {
            if self.matched[u] != 0 && self.matched[u] < u {
                total += self.g(u, self.matched[u]).w;
            }
        }
        total
    }
}

/// Computes a maximum-weight matching of the complete graph given by
/// `weights` (symmetric, non-negative; `weights[u][u]` ignored; zero
/// weight = edge absent). Returns `(total_weight, mate)` where
/// `mate[u] == Some(v)` iff `u` is matched to `v` (0-indexed).
pub fn max_weight_matching(weights: &[Vec<i64>]) -> (i64, Vec<Option<usize>>) {
    let n = weights.len();
    assert!(weights.iter().all(|row| row.len() == n), "square matrix");
    for (u, row) in weights.iter().enumerate() {
        for (v, &w) in row.iter().enumerate() {
            assert!(w >= 0, "weights must be non-negative");
            assert_eq!(w, weights[v][u], "weights must be symmetric");
        }
    }
    if n == 0 {
        return (0, Vec::new());
    }
    let mut solver = Solver::new(weights);
    let total = solver.solve();
    let mate = solver.matched[1..=n]
        .iter()
        .map(|&m| if m == 0 { None } else { Some(m - 1) })
        .collect();
    (total, mate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(rows: &[&[i64]]) -> Vec<Vec<i64>> {
        rows.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn two_vertices_match() {
        let (w, mate) = max_weight_matching(&sym(&[&[0, 5], &[5, 0]]));
        assert_eq!(w, 5);
        assert_eq!(mate, vec![Some(1), Some(0)]);
    }

    #[test]
    fn picks_heavier_pairing_of_four() {
        // Pairing (0,1)+(2,3) = 10+10=20 beats (0,2)+(1,3) = 1+1=2.
        let w = sym(&[
            &[0, 10, 1, 1],
            &[10, 0, 1, 1],
            &[1, 1, 0, 10],
            &[1, 1, 10, 0],
        ]);
        let (total, mate) = max_weight_matching(&w);
        assert_eq!(total, 20);
        assert_eq!(mate[0], Some(1));
        assert_eq!(mate[2], Some(3));
    }

    #[test]
    fn cross_pairing_when_better() {
        let w = sym(&[&[0, 1, 9, 1], &[1, 0, 1, 9], &[9, 1, 0, 1], &[1, 9, 1, 0]]);
        let (total, mate) = max_weight_matching(&w);
        assert_eq!(total, 18);
        assert_eq!(mate[0], Some(2));
        assert_eq!(mate[1], Some(3));
    }

    #[test]
    fn odd_cycle_forces_blossom() {
        // Triangle with a pendant: blossom contraction required for
        // optimality on general graphs.
        let w = sym(&[&[0, 6, 6, 0], &[6, 0, 6, 0], &[6, 6, 0, 5], &[0, 0, 5, 0]]);
        let (total, mate) = max_weight_matching(&w);
        // Best: (0,1)=6 and (2,3)=5 -> 11.
        assert_eq!(total, 11);
        assert_eq!(mate[0], Some(1));
        assert_eq!(mate[3], Some(2));
    }

    #[test]
    fn leaves_isolated_vertices_unmatched() {
        let w = sym(&[&[0, 0, 7], &[0, 0, 0], &[7, 0, 0]]);
        let (total, mate) = max_weight_matching(&w);
        assert_eq!(total, 7);
        assert_eq!(mate[1], None);
    }

    #[test]
    fn empty_graph() {
        let (total, mate) = max_weight_matching(&[]);
        assert_eq!(total, 0);
        assert!(mate.is_empty());
    }

    #[test]
    fn mate_is_involution() {
        let w = sym(&[
            &[0, 3, 8, 2, 5, 1],
            &[3, 0, 4, 7, 2, 6],
            &[8, 4, 0, 1, 3, 2],
            &[2, 7, 1, 0, 9, 4],
            &[5, 2, 3, 9, 0, 8],
            &[1, 6, 2, 4, 8, 0],
        ]);
        let (_, mate) = max_weight_matching(&w);
        for (u, &m) in mate.iter().enumerate() {
            if let Some(v) = m {
                assert_eq!(mate[v], Some(u), "mate must be symmetric");
            }
        }
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_weights_panic() {
        max_weight_matching(&sym(&[&[0, 1], &[2, 0]]));
    }
}
