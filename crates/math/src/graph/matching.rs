//! Exact matching in general weighted graphs.
//!
//! The core is an *O(V³)* primal–dual blossom implementation of
//! **maximum-weight matching** ([`max_weight_matching`]), following the
//! classic dense formulation with vertex/blossom dual variables and slack
//! tracking. From it we derive:
//!
//! * [`min_weight_perfect_matching`] — the minimum-weight perfect
//!   matching used by MWPM decoders (reduction: negate weights and add a
//!   large per-edge cardinality bonus so maximum-cardinality matchings
//!   dominate);
//! * [`min_weight_perfect_matching_f64`] — the same for float weights
//!   (fixed-point scaled), the reference the decoders' pooled blossom
//!   solver is tested against.
//!
//! Correctness is checked in the test-suite against the brute-force
//! enumerator [`brute_force_max_weight`] on exhaustive small instances
//! and random property tests.

use std::collections::VecDeque;

/// A matching: `mate[v]` is the partner of `v`, or `None` if unmatched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    /// Partner of each vertex.
    pub mate: Vec<Option<usize>>,
    /// Total weight of the matched edges (in the caller's weight units).
    pub weight: i64,
}

impl Matching {
    /// Number of matched edges.
    pub fn cardinality(&self) -> usize {
        self.mate.iter().flatten().count() / 2
    }

    /// Returns `true` if every vertex is matched.
    pub fn is_perfect(&self) -> bool {
        self.mate.iter().all(Option::is_some)
    }

    /// Iterates over matched pairs `(u, v)` with `u < v`.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.mate
            .iter()
            .enumerate()
            .filter_map(|(u, &m)| m.filter(|&v| u < v).map(|v| (u, v)))
    }
}

#[derive(Clone, Copy, Default)]
struct E {
    u: usize,
    v: usize,
    w: i64,
}

/// Dense blossom solver state (1-based indices; 0 is the null sentinel).
struct Solver {
    n: usize,
    n_x: usize,
    g: Vec<Vec<E>>,
    lab: Vec<i64>,
    mate: Vec<usize>,
    slack: Vec<usize>,
    st: Vec<usize>,
    pa: Vec<usize>,
    flower_from: Vec<Vec<usize>>,
    s: Vec<i8>,
    vis: Vec<u32>,
    flower: Vec<Vec<usize>>,
    q: VecDeque<usize>,
    t: u32,
}

impl Solver {
    fn new(n: usize) -> Self {
        let m = 2 * n + 1;
        let mut g = vec![vec![E::default(); m]; m];
        for (u, row) in g.iter_mut().enumerate() {
            for (v, e) in row.iter_mut().enumerate() {
                e.u = u;
                e.v = v;
            }
        }
        Solver {
            n,
            n_x: n,
            g,
            lab: vec![0; m],
            mate: vec![0; m],
            slack: vec![0; m],
            st: (0..m).collect(),
            pa: vec![0; m],
            flower_from: vec![vec![0; n + 1]; m],
            s: vec![-1; m],
            vis: vec![0; m],
            flower: vec![Vec::new(); m],
            q: VecDeque::new(),
            t: 0,
        }
    }

    fn e_delta(&self, e: &E) -> i64 {
        self.lab[e.u] + self.lab[e.v] - self.g[e.u][e.v].w * 2
    }

    fn update_slack(&mut self, u: usize, x: usize) {
        if self.slack[x] == 0
            || self.e_delta(&self.g[u][x]) < self.e_delta(&self.g[self.slack[x]][x])
        {
            self.slack[x] = u;
        }
    }

    fn set_slack(&mut self, x: usize) {
        self.slack[x] = 0;
        for u in 1..=self.n {
            if self.g[u][x].w > 0 && self.st[u] != x && self.s[self.st[u]] == 0 {
                self.update_slack(u, x);
            }
        }
    }

    fn q_push(&mut self, x: usize) {
        if x <= self.n {
            self.q.push_back(x);
        } else {
            let members = self.flower[x].clone();
            for p in members {
                self.q_push(p);
            }
        }
    }

    fn set_st(&mut self, x: usize, b: usize) {
        self.st[x] = b;
        if x > self.n {
            let members = self.flower[x].clone();
            for p in members {
                self.set_st(p, b);
            }
        }
    }

    fn get_pr(&mut self, b: usize, xr: usize) -> usize {
        let pr = self.flower[b].iter().position(|&y| y == xr).unwrap();
        if pr % 2 == 1 {
            self.flower[b][1..].reverse();
            self.flower[b].len() - pr
        } else {
            pr
        }
    }

    fn set_match(&mut self, u: usize, v: usize) {
        self.mate[u] = self.g[u][v].v;
        if u <= self.n {
            return;
        }
        let e = self.g[u][v];
        let xr = self.flower_from[u][e.u];
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
            let xnv = self.st[self.mate[u]];
            self.set_match(u, v);
            if xnv == 0 {
                return;
            }
            let pxnv = self.st[self.pa[xnv]];
            self.set_match(xnv, pxnv);
            u = pxnv;
            v = xnv;
        }
    }

    fn get_lca(&mut self, mut u: usize, mut v: usize) -> usize {
        self.t += 1;
        while u != 0 || v != 0 {
            if u != 0 {
                if self.vis[u] == self.t {
                    return u;
                }
                self.vis[u] = self.t;
                u = self.st[self.mate[u]];
                if u != 0 {
                    u = self.st[self.pa[u]];
                }
            }
            std::mem::swap(&mut u, &mut v);
        }
        0
    }

    fn add_blossom(&mut self, u: usize, lca: usize, v: usize) {
        let mut b = self.n + 1;
        while b <= self.n_x && self.st[b] != 0 {
            b += 1;
        }
        if b > self.n_x {
            self.n_x += 1;
        }
        self.lab[b] = 0;
        self.s[b] = 0;
        self.mate[b] = self.mate[lca];
        self.flower[b] = vec![lca];
        let mut x = u;
        while x != lca {
            let y = self.st[self.mate[x]];
            self.flower[b].push(x);
            self.flower[b].push(y);
            self.q_push(y);
            x = self.st[self.pa[y]];
        }
        self.flower[b][1..].reverse();
        let mut x = v;
        while x != lca {
            let y = self.st[self.mate[x]];
            self.flower[b].push(x);
            self.flower[b].push(y);
            self.q_push(y);
            x = self.st[self.pa[y]];
        }
        self.set_st(b, b);
        for x in 1..=self.n_x {
            self.g[b][x].w = 0;
            self.g[x][b].w = 0;
        }
        for x in 1..=self.n {
            self.flower_from[b][x] = 0;
        }
        for i in 0..self.flower[b].len() {
            let xs = self.flower[b][i];
            for x in 1..=self.n_x {
                if self.g[b][x].w == 0 || self.e_delta(&self.g[xs][x]) < self.e_delta(&self.g[b][x])
                {
                    self.g[b][x] = self.g[xs][x];
                    self.g[x][b] = self.g[x][xs];
                }
            }
            for x in 1..=self.n {
                if self.flower_from[xs][x] != 0 {
                    self.flower_from[b][x] = xs;
                }
            }
        }
        self.set_slack(b);
    }

    fn expand_blossom(&mut self, b: usize) {
        let members = self.flower[b].clone();
        for p in members {
            self.set_st(p, p);
        }
        let xr = self.flower_from[b][self.g[b][self.pa[b]].u];
        let pr = self.get_pr(b, xr);
        let mut i = 0;
        while i < pr {
            let xs = self.flower[b][i];
            let xns = self.flower[b][i + 1];
            self.pa[xs] = self.g[xns][xs].u;
            self.s[xs] = 1;
            self.s[xns] = 0;
            self.slack[xs] = 0;
            self.set_slack(xns);
            self.q_push(xns);
            i += 2;
        }
        self.s[xr] = 1;
        self.pa[xr] = self.pa[b];
        for i in (pr + 1)..self.flower[b].len() {
            let xs = self.flower[b][i];
            self.s[xs] = -1;
            self.set_slack(xs);
        }
        self.st[b] = 0;
    }

    fn on_found_edge(&mut self, e: E) -> bool {
        let u = self.st[e.u];
        let v = self.st[e.v];
        if self.s[v] == -1 {
            self.pa[v] = e.u;
            self.s[v] = 1;
            let nu = self.st[self.mate[v]];
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

    fn matching_round(&mut self) -> bool {
        for x in 1..=self.n_x {
            self.s[x] = -1;
            self.slack[x] = 0;
        }
        self.q.clear();
        for x in 1..=self.n_x {
            if self.st[x] == x && self.mate[x] == 0 {
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
                    if self.g[u][v].w > 0 && self.st[u] != self.st[v] {
                        if self.e_delta(&self.g[u][v]) == 0 {
                            if self.on_found_edge(self.g[u][v]) {
                                return true;
                            }
                        } else {
                            let sv = self.st[v];
                            self.update_slack(u, sv);
                        }
                    }
                }
            }
            // Finite "infinity": large enough to dominate any real slack,
            // small enough that one `lab += d` cannot overflow before the
            // termination check below returns.
            let mut d = i64::MAX / 4;
            for b in (self.n + 1)..=self.n_x {
                if self.st[b] == b && self.s[b] == 1 {
                    d = d.min(self.lab[b] / 2);
                }
            }
            for x in 1..=self.n_x {
                if self.st[x] == x && self.slack[x] != 0 {
                    let ed = self.e_delta(&self.g[self.slack[x]][x]);
                    if self.s[x] == -1 {
                        d = d.min(ed);
                    } else if self.s[x] == 0 {
                        d = d.min(ed / 2);
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
            for b in (self.n + 1)..=self.n_x {
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
                    && self.e_delta(&self.g[self.slack[x]][x]) == 0
                    && self.on_found_edge(self.g[self.slack[x]][x])
                {
                    return true;
                }
            }
            for b in (self.n + 1)..=self.n_x {
                if self.st[b] == b && self.s[b] == 1 && self.lab[b] == 0 {
                    self.expand_blossom(b);
                }
            }
        }
    }

    fn solve(&mut self) -> i64 {
        let mut w_max = 0;
        for u in 1..=self.n {
            for v in 1..=self.n {
                self.flower_from[u][v] = if u == v { u } else { 0 };
                w_max = w_max.max(self.g[u][v].w);
            }
        }
        for u in 1..=self.n {
            self.lab[u] = w_max;
        }
        while self.matching_round() {}
        let mut total = 0;
        for u in 1..=self.n {
            if self.mate[u] != 0 && self.mate[u] < u {
                total += self.g[u][self.mate[u]].w;
            }
        }
        total
    }
}

/// Computes an exact maximum-weight matching of the undirected graph on
/// `n` vertices with the given weighted `edges` `(u, v, w)`.
///
/// Edges with non-positive weight never improve a maximum-weight
/// matching and are ignored. Duplicate edges keep the largest weight.
///
/// # Panics
///
/// Panics if an edge references a vertex `>= n`, is a self-loop, or if a
/// weight is large enough to overflow the internal doubling
/// (`w > i64::MAX / 4`).
///
/// # Example
///
/// ```
/// use qec_math::graph::matching::max_weight_matching;
///
/// // Path 0-1-2 with weights 3 and 5: best is to take the 5-edge.
/// let m = max_weight_matching(3, &[(0, 1, 3), (1, 2, 5)]);
/// assert_eq!(m.weight, 5);
/// assert_eq!(m.mate[1], Some(2));
/// assert_eq!(m.mate[0], None);
/// ```
pub fn max_weight_matching(n: usize, edges: &[(usize, usize, i64)]) -> Matching {
    if n == 0 {
        return Matching {
            mate: Vec::new(),
            weight: 0,
        };
    }
    let mut solver = Solver::new(n);
    for &(u, v, w) in edges {
        assert!(u < n && v < n, "edge endpoint out of range");
        assert_ne!(u, v, "self-loops are not allowed");
        assert!(w <= i64::MAX / 4, "edge weight too large");
        if w <= 0 {
            continue;
        }
        // Internal weights are doubled to keep dual variables integral.
        let (iu, iv) = (u + 1, v + 1);
        if 2 * w > solver.g[iu][iv].w {
            solver.g[iu][iv].w = 2 * w;
            solver.g[iv][iu].w = 2 * w;
        }
    }
    let doubled = solver.solve();
    let mate = (1..=n)
        .map(|u| {
            let m = solver.mate[u];
            (m != 0).then(|| m - 1)
        })
        .collect();
    Matching {
        mate,
        weight: doubled / 2,
    }
}

/// Computes an exact *minimum-weight perfect matching*.
///
/// Returns `None` if no perfect matching exists (in particular when `n`
/// is odd). Weights may be negative.
///
/// This is the matching primitive used by MWPM decoders: vertices are
/// flipped detectors (plus boundary duplicates) and weights are
/// shortest-path log-likelihood distances.
///
/// # Panics
///
/// Panics on out-of-range endpoints or self-loops.
///
/// # Example
///
/// ```
/// use qec_math::graph::matching::min_weight_perfect_matching;
///
/// // 4-cycle with one cheap diagonal pairing.
/// let edges = [(0, 1, 10), (2, 3, 10), (0, 2, 1), (1, 3, 1)];
/// let m = min_weight_perfect_matching(4, &edges).unwrap();
/// assert_eq!(m.weight, 2);
/// assert_eq!(m.mate[0], Some(2));
/// ```
pub fn min_weight_perfect_matching(n: usize, edges: &[(usize, usize, i64)]) -> Option<Matching> {
    if n == 0 {
        return Some(Matching {
            mate: Vec::new(),
            weight: 0,
        });
    }
    if n % 2 == 1 {
        return None;
    }
    // Transform: maximize sum of (c - w). `c` is chosen so every
    // transformed weight is positive and one extra edge always outweighs
    // any redistribution of weights, making maximum-weight matchings
    // maximum-cardinality (perfect when possible) and minimum-cost.
    let w_abs_max = edges.iter().map(|&(_, _, w)| w.abs()).max().unwrap_or(0) + 1;
    let c = 2 * w_abs_max * (n as i64 + 2);
    let transformed: Vec<(usize, usize, i64)> =
        edges.iter().map(|&(u, v, w)| (u, v, c - w)).collect();
    let m = max_weight_matching(n, &transformed);
    if !m.is_perfect() {
        return None;
    }
    let weight = (n as i64 / 2) * c - m.weight;
    Some(Matching {
        mate: m.mate,
        weight,
    })
}

/// Fixed-point scale used by [`min_weight_perfect_matching_f64`] and the
/// decoders' float matching: weights are multiplied by this and rounded.
pub const F64_WEIGHT_SCALE: f64 = (1u64 << 20) as f64;

/// [`min_weight_perfect_matching`] for `f64` weights (fixed-point scaled
/// by [`F64_WEIGHT_SCALE`]).
///
/// # Panics
///
/// Panics if any weight is NaN.
pub fn min_weight_perfect_matching_f64(
    n: usize,
    edges: &[(usize, usize, f64)],
) -> Option<Matching> {
    let scaled: Vec<(usize, usize, i64)> = edges
        .iter()
        .map(|&(u, v, w)| {
            assert!(!w.is_nan(), "NaN edge weight");
            (u, v, (w * F64_WEIGHT_SCALE).round() as i64)
        })
        .collect();
    min_weight_perfect_matching(n, &scaled)
}

/// Brute-force maximum-weight matching by exhaustive recursion.
///
/// Exponential; intended for testing the blossom implementation on small
/// instances (`n <= ~12`).
pub fn brute_force_max_weight(n: usize, edges: &[(usize, usize, i64)]) -> i64 {
    let mut adj = vec![vec![i64::MIN; n]; n];
    for &(u, v, w) in edges {
        adj[u][v] = adj[u][v].max(w);
        adj[v][u] = adj[v][u].max(w);
    }
    fn rec(next: usize, used: &mut [bool], adj: &[Vec<i64>]) -> i64 {
        let n = used.len();
        let Some(u) = (next..n).find(|&u| !used[u]) else {
            return 0;
        };
        used[u] = true;
        // Option 1: leave u unmatched.
        let mut best = rec(u + 1, used, adj);
        // Option 2: match u with any later free vertex.
        for v in (u + 1)..n {
            if !used[v] && adj[u][v] > 0 {
                used[v] = true;
                best = best.max(adj[u][v] + rec(u + 1, used, adj));
                used[v] = false;
            }
        }
        used[u] = false;
        best
    }
    rec(0, &mut vec![false; n], &adj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, Xoshiro256StarStar};

    fn check_valid(n: usize, edges: &[(usize, usize, i64)], m: &Matching) {
        let mut adj = vec![vec![None; n]; n];
        for &(u, v, w) in edges {
            if adj[u][v].is_none_or(|x| x < w) {
                adj[u][v] = Some(w);
                adj[v][u] = Some(w);
            }
        }
        let mut total = 0;
        for (u, &mu) in m.mate.iter().enumerate() {
            if let Some(v) = mu {
                assert_eq!(m.mate[v], Some(u), "matching not symmetric");
                if u < v {
                    total += adj[u][v].expect("matched pair must be an edge");
                }
            }
        }
        assert_eq!(total, m.weight, "reported weight mismatch");
    }

    #[test]
    fn empty_graph() {
        let m = max_weight_matching(0, &[]);
        assert_eq!(m.weight, 0);
        let m = max_weight_matching(3, &[]);
        assert_eq!(m.weight, 0);
        assert!(m.mate.iter().all(Option::is_none));
    }

    #[test]
    fn triangle_picks_heaviest_edge() {
        let edges = [(0, 1, 2), (1, 2, 3), (0, 2, 4)];
        let m = max_weight_matching(3, &edges);
        check_valid(3, &edges, &m);
        assert_eq!(m.weight, 4);
    }

    #[test]
    fn blossom_forcing_instance() {
        // Two triangles joined by a bridge; optimal uses the bridge.
        let edges = [
            (0, 1, 6),
            (1, 2, 6),
            (0, 2, 6),
            (2, 3, 10),
            (3, 4, 6),
            (4, 5, 6),
            (3, 5, 6),
        ];
        let m = max_weight_matching(6, &edges);
        check_valid(6, &edges, &m);
        assert_eq!(m.weight, brute_force_max_weight(6, &edges));
    }

    #[test]
    fn perfect_matching_on_cycle() {
        let edges = [(0, 1, 1), (1, 2, 9), (2, 3, 1), (3, 0, 9)];
        let m = min_weight_perfect_matching(4, &edges).unwrap();
        assert!(m.is_perfect());
        assert_eq!(m.weight, 2);
    }

    #[test]
    fn no_perfect_matching_detected() {
        // Star K_{1,3}: no perfect matching on 4 vertices.
        let edges = [(0, 1, 1), (0, 2, 1), (0, 3, 1)];
        assert!(min_weight_perfect_matching(4, &edges).is_none());
        assert!(min_weight_perfect_matching(3, &[(0, 1, 1)]).is_none());
    }

    #[test]
    fn negative_weights_in_perfect_matching() {
        let edges = [(0, 1, -5), (2, 3, -7), (0, 2, 1), (1, 3, 1)];
        let m = min_weight_perfect_matching(4, &edges).unwrap();
        assert_eq!(m.weight, -12);
        assert_eq!(m.mate[0], Some(1));
    }

    #[test]
    fn randomized_against_brute_force() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x5eed);
        for trial in 0..300 {
            let n = rng.gen_range(2..9usize);
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(0.6) {
                        edges.push((u, v, rng.gen_range(1..50i64)));
                    }
                }
            }
            let m = max_weight_matching(n, &edges);
            check_valid(n, &edges, &m);
            let best = brute_force_max_weight(n, &edges);
            assert_eq!(m.weight, best, "trial {trial}: n={n} edges={edges:?}");
        }
    }

    #[test]
    fn randomized_perfect_matching_optimality() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xabcd);
        for _ in 0..150 {
            let n = 2 * rng.gen_range(1..5usize);
            // Complete graph guarantees a perfect matching exists.
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    edges.push((u, v, rng.gen_range(-20..100i64)));
                }
            }
            let m = min_weight_perfect_matching(n, &edges).unwrap();
            assert!(m.is_perfect());
            // Brute force minimum perfect matching.
            let w_max = edges.iter().map(|e| e.2).max().unwrap() + 1;
            let flipped: Vec<_> = edges.iter().map(|&(u, v, w)| (u, v, w_max - w)).collect();
            let best_flipped = brute_force_max_weight(n, &flipped);
            assert_eq!((n as i64 / 2) * w_max - best_flipped, m.weight);
        }
    }

    #[test]
    fn larger_instance_stays_consistent() {
        // Sanity: a 40-vertex complete graph runs and yields a perfect
        // matching with symmetric mates.
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let n = 40;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                edges.push((u, v, rng.gen_range(1..1000i64)));
            }
        }
        let m = min_weight_perfect_matching(n, &edges).unwrap();
        assert!(m.is_perfect());
        check_weight_consistency(n, &edges, &m);
    }

    fn check_weight_consistency(n: usize, edges: &[(usize, usize, i64)], m: &Matching) {
        let mut adj = vec![vec![0i64; n]; n];
        for &(u, v, w) in edges {
            adj[u][v] = w;
            adj[v][u] = w;
        }
        let total: i64 = m.pairs().map(|(u, v)| adj[u][v]).sum();
        assert_eq!(total, m.weight);
    }
}
