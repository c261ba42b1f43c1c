//! Pooled exact blossom matching — the matching stage of the matching
//! decoders (the `decode.tier.blossom` tier).
//!
//! [`pooled_min_weight_perfect_matching_f64`] computes the same
//! minimum-weight perfect matching as
//! [`qec_math::graph::matching::min_weight_perfect_matching_f64`], and
//! not merely one of equal cost: it is a **decision-identical port** of
//! that solver. Every quantity the reference computes (fixed-point
//! scaling, the perfect-matching transform, slack minima, dual
//! adjustments, blossom formation order) is reproduced with the same
//! integer arithmetic and the same scan order, so the returned `mate`
//! array — and therefore every correction derived from it — is
//! bitwise-identical on every input, including degenerate instances
//! with many equal-cost optima where an independent implementation
//! would tie-break differently. The differential fuzz harness in
//! `qec-testkit` and the golden fingerprints pin exactly this claim.
//!
//! What changes is the machine shape, not the decisions:
//!
//! * all solver state lives in a caller-owned [`BlossomScratch`] with
//!   flat fixed-stride arrays — steady-state decoding performs **no
//!   allocation** in the matching stage (the reference allocates ~4·n
//!   vectors and initialises an O(n²) adjacency per call);
//! * between shots only the cells written by the previous shot are
//!   restored (the `loaded` list — the same *O(touched)* reset
//!   discipline as [`crate::SparseBlossomScratch`]), and the LCA visit
//!   stamps are monotonic across shots so they never need clearing;
//! * capacity grows geometrically and only when a shot exceeds every
//!   previous one, so the pool generation count is log-bounded — a
//!   property test asserts no growth once warmed up.
//!
//! After a successful solve the scratch additionally holds a complete
//! **dual certificate** (vertex and blossom potentials plus the final
//! laminar blossom structure); [`BlossomScratch::verify_certificate`]
//! checks feasibility and complementary slackness, proving optimality
//! of that exact shot's matching. The property suite runs it after
//! every decode.

use qec_math::graph::matching::F64_WEIGHT_SCALE;

/// One adjacency cell: the (doubled, transformed) weight plus the real
/// endpoints of the edge the cell currently represents. Blossom
/// rows/columns alias real edges, so the endpoints travel with the
/// weight exactly as in the reference solver.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    w: i64,
    u: u32,
    v: u32,
}

/// Pooled state of the blossom matching stage. Create once (it sizes
/// itself on first use) and reuse across shots; see the module docs for
/// the reset and growth discipline.
#[derive(Debug, Default)]
pub struct BlossomScratch {
    /// Real-vertex capacity; the node pool holds `2 * cap + 1` slots
    /// (1-based vertices, then blossom slots), matching the reference
    /// solver's `m = 2n + 1` layout.
    cap: usize,
    /// Row stride of `cells` and `flower_from` (`2 * cap + 1`).
    m: usize,
    /// Flat `m × m` adjacency weights; index `u * m + v`. Kept separate
    /// from the endpoints so the hot tree-growth scan streams 8-byte
    /// weights instead of 16-byte cells.
    ws: Vec<i64>,
    /// Real endpoints of the edge each adjacency cell represents;
    /// identity for real-real cells, rewritten only on blossom rows.
    eps: Vec<[u32; 2]>,
    /// Flat indices of real-real cells written by the current shot —
    /// the O(touched) reset list.
    loaded: Vec<u32>,
    /// Flat indices of blossom row/column cells the current shot may
    /// have aliased in `add_blossom`. A later shot with a larger `n`
    /// reuses those slots as real vertices, so they must be restored to
    /// pristine (zero weight, identity endpoints) between shots.
    dirty: Vec<u32>,
    /// Dual variables (vertex and blossom potentials).
    lab: Vec<i64>,
    mate: Vec<usize>,
    slack: Vec<usize>,
    st: Vec<usize>,
    pa: Vec<usize>,
    /// Flat `m × (cap + 1)`: `flower_from[b][x]` is the member of
    /// blossom `b` containing real vertex `x` (0 when absent).
    flower_from: Vec<usize>,
    s: Vec<i8>,
    /// LCA visit stamps; compared against the monotonic `t`, so stale
    /// values from earlier shots are never mistaken for current ones.
    vis: Vec<u64>,
    /// Blossom member lists (cycle order), pooled across shots.
    flower: Vec<Vec<usize>>,
    q: std::collections::VecDeque<usize>,
    /// Monotonic LCA timestamp — never reset (that is what makes `vis`
    /// epoch-free).
    t: u64,
    /// Real vertex count of the current shot.
    n: usize,
    /// Highest node id in use (vertices + live/retired blossom slots).
    n_x: usize,
    /// `n_x` high-water of the previous shot (bounds the st/mate
    /// reset).
    last_n_x: usize,
    /// The perfect-matching transform constant of the current shot.
    c: i64,
    /// Doubled transformed weight of the current matching (internal
    /// units), valid after a successful solve.
    doubled: i64,
    /// Shots solved through this scratch.
    epochs: u64,
    /// Capacity growths since construction (log-bounded; the pool
    /// property test asserts this stays flat once warmed up).
    generations: u32,
    /// Largest real vertex count ever solved.
    high_water: usize,
}

/// A perfect matching held inside a [`BlossomScratch`]; the accessors
/// mirror [`qec_math::graph::matching::Matching`] (0-based vertices,
/// weight in the caller's scaled units).
#[derive(Debug)]
pub struct PooledMatching<'a> {
    sc: &'a BlossomScratch,
    weight: i64,
}

impl PooledMatching<'_> {
    /// Partner of 0-based vertex `u`, or `None` if unmatched (never for
    /// a perfect matching).
    pub fn mate(&self, u: usize) -> Option<usize> {
        let m = self.sc.mate[u + 1];
        (m != 0).then(|| m - 1)
    }

    /// Total weight of the matched edges in fixed-point scaled units
    /// (identical to the reference `Matching::weight`).
    pub fn weight(&self) -> i64 {
        self.weight
    }

    /// Matched pairs `(u, v)` with `u < v`, ascending in `u` — the same
    /// enumeration order as the reference `Matching::pairs`.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.sc.n).filter_map(|u| self.mate(u).filter(|&v| u < v).map(|v| (u, v)))
    }
}

impl BlossomScratch {
    /// Creates an empty scratch; pools size themselves on first use.
    pub fn new() -> Self {
        BlossomScratch::default()
    }

    /// Shots solved through this scratch.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Number of capacity growths since construction. Stays constant
    /// once the largest shot has been seen — i.e. steady-state decoding
    /// allocates nothing here.
    pub fn generations(&self) -> u32 {
        self.generations
    }

    /// Largest real vertex count ever solved through this scratch.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Dual "radius" of 0-based real vertex `u0` after a successful
    /// solve, in internal (doubled, transformed) units: `2c - lab[u0]`.
    ///
    /// An edge `(u, v)` that was *omitted* from the loaded instance
    /// cannot improve the matching unless its scaled weight `s_uv`
    /// satisfies `4·s_uv < radius(u) + radius(v)`: the certificate
    /// slack of a hypothetical edge is `lab_u + lab_v - 4·(c - s_uv)`
    /// (any shared-blossom dual only adds a non-negative term), which
    /// is non-negative exactly when `4·s_uv ≥ radius(u) + radius(v)`.
    /// The sparse-graph matching tier uses this to bound how far each
    /// defect's dual ball must be searched when certifying that every
    /// unpriced defect pair is irrelevant.
    pub(crate) fn dual_radius(&self, u0: usize) -> i64 {
        2 * self.c - self.lab[u0 + 1]
    }

    /// Current pool footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.ws.len() * 8
            + self.eps.len() * 8
            + self.flower_from.len() * 8
            + (self.lab.len() + self.mate.len() + self.slack.len() + self.st.len() + self.pa.len())
                * 8
            + self.vis.len() * 8
            + self.s.len()
            + self.flower.iter().map(|f| f.capacity() * 8).sum::<usize>()
            + self.loaded.capacity() * 4
    }

    fn cell(&self, u: usize, v: usize) -> Cell {
        let i = u * self.m + v;
        Cell {
            w: self.ws[i],
            u: self.eps[i][0],
            v: self.eps[i][1],
        }
    }

    fn w(&self, u: usize, v: usize) -> i64 {
        self.ws[u * self.m + v]
    }

    fn e_delta(&self, e: Cell) -> i64 {
        // A cell's stored weight is copied verbatim from the real-real
        // cell of its endpoints and neither changes during a solve, so
        // `e.w == w(e.u, e.v)` always — same integer as the reference's
        // matrix lookup, one load cheaper.
        self.lab[e.u as usize] + self.lab[e.v as usize] - e.w * 2
    }

    /// Grows every pool to hold `n` real vertices (geometric growth).
    fn ensure(&mut self, n: usize) {
        if n <= self.cap {
            return;
        }
        let cap = n.next_power_of_two().max(8);
        let m = 2 * cap + 1;
        self.cap = cap;
        self.m = m;
        self.generations += 1;
        self.ws.clear();
        self.ws.resize(m * m, 0);
        self.eps.clear();
        self.eps.resize(m * m, [0, 0]);
        for u in 0..m {
            for v in 0..m {
                self.eps[u * m + v] = [u as u32, v as u32];
            }
        }
        self.lab.clear();
        self.lab.resize(m, 0);
        self.mate.clear();
        self.mate.resize(m, 0);
        self.slack.clear();
        self.slack.resize(m, 0);
        self.st.clear();
        self.st.extend(0..m);
        self.pa.clear();
        self.pa.resize(m, 0);
        self.flower_from.clear();
        self.flower_from.resize(m * (cap + 1), 0);
        self.s.clear();
        self.s.resize(m, -1);
        self.vis.clear();
        self.vis.resize(m, 0);
        self.flower.resize_with(m, Vec::new);
        self.loaded.clear();
        self.dirty.clear();
        self.last_n_x = 0;
    }

    /// O(touched) inter-shot reset: restore the cells the previous shot
    /// loaded and the node slots it used; everything else is already
    /// pristine (or, for `vis`, monotonic).
    fn reset(&mut self, n: usize) {
        self.ensure(n);
        for &idx in &self.loaded {
            self.ws[idx as usize] = 0;
        }
        self.loaded.clear();
        for i in 0..self.dirty.len() {
            let idx = self.dirty[i] as usize;
            self.ws[idx] = 0;
            self.eps[idx] = [(idx / self.m) as u32, (idx % self.m) as u32];
        }
        self.dirty.clear();
        for x in 1..=self.last_n_x {
            self.st[x] = x;
            self.mate[x] = 0;
        }
        self.n = n;
        self.n_x = n;
        self.last_n_x = n;
        self.epochs += 1;
        self.high_water = self.high_water.max(n);
    }

    /// Loads one transformed, doubled edge, keeping the largest weight
    /// among duplicates — the reference `max_weight_matching` insert.
    fn load_edge(&mut self, u: usize, v: usize, w2: i64) {
        let (iu, iv) = (u + 1, v + 1);
        let a = iu * self.m + iv;
        let b = iv * self.m + iu;
        if w2 > self.ws[a] {
            if self.ws[a] == 0 {
                self.loaded.push(a as u32);
                self.loaded.push(b as u32);
            }
            self.ws[a] = w2;
            self.ws[b] = w2;
        }
    }

    fn update_slack(&mut self, u: usize, x: usize) {
        if self.slack[x] == 0
            || self.e_delta(self.cell(u, x)) < self.e_delta(self.cell(self.slack[x], x))
        {
            self.slack[x] = u;
        }
    }

    fn set_slack(&mut self, x: usize) {
        self.slack[x] = 0;
        for u in 1..=self.n {
            if self.w(u, x) > 0 && self.st[u] != x && self.s[self.st[u]] == 0 {
                self.update_slack(u, x);
            }
        }
    }

    fn q_push(&mut self, x: usize) {
        if x <= self.n {
            self.q.push_back(x);
        } else {
            for i in 0..self.flower[x].len() {
                let p = self.flower[x][i];
                self.q_push(p);
            }
        }
    }

    fn set_st(&mut self, x: usize, b: usize) {
        self.st[x] = b;
        if x > self.n {
            for i in 0..self.flower[x].len() {
                let p = self.flower[x][i];
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
        let e = self.cell(u, v);
        self.mate[u] = e.v as usize;
        if u <= self.n {
            return;
        }
        let xr = self.flower_from[u * (self.cap + 1) + e.u as usize];
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
        let fs = self.cap + 1;
        let mut b = self.n + 1;
        while b <= self.n_x && self.st[b] != 0 {
            b += 1;
        }
        if b > self.n_x {
            self.n_x += 1;
            self.last_n_x = self.last_n_x.max(self.n_x);
        }
        self.lab[b] = 0;
        self.s[b] = 0;
        self.mate[b] = self.mate[lca];
        self.flower[b].clear();
        self.flower[b].push(lca);
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
            self.ws[b * self.m + x] = 0;
            self.ws[x * self.m + b] = 0;
            self.dirty.push((b * self.m + x) as u32);
            self.dirty.push((x * self.m + b) as u32);
        }
        for x in 1..=self.n {
            self.flower_from[b * fs + x] = 0;
        }
        for i in 0..self.flower[b].len() {
            let xs = self.flower[b][i];
            for x in 1..=self.n_x {
                if self.w(b, x) == 0
                    || self.e_delta(self.cell(xs, x)) < self.e_delta(self.cell(b, x))
                {
                    let (src_a, dst_a) = (xs * self.m + x, b * self.m + x);
                    let (src_b, dst_b) = (x * self.m + xs, x * self.m + b);
                    self.ws[dst_a] = self.ws[src_a];
                    self.eps[dst_a] = self.eps[src_a];
                    self.ws[dst_b] = self.ws[src_b];
                    self.eps[dst_b] = self.eps[src_b];
                }
            }
            for x in 1..=self.n {
                if self.flower_from[xs * fs + x] != 0 {
                    self.flower_from[b * fs + x] = xs;
                }
            }
        }
        self.set_slack(b);
    }

    fn expand_blossom(&mut self, b: usize) {
        let fs = self.cap + 1;
        for i in 0..self.flower[b].len() {
            let p = self.flower[b][i];
            self.set_st(p, p);
        }
        let xr = self.flower_from[b * fs + self.cell(b, self.pa[b]).u as usize];
        let pr = self.get_pr(b, xr);
        let mut i = 0;
        while i < pr {
            let xs = self.flower[b][i];
            let xns = self.flower[b][i + 1];
            self.pa[xs] = self.cell(xns, xs).u as usize;
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

    fn on_found_edge(&mut self, e: Cell) -> bool {
        let u = self.st[e.u as usize];
        let v = self.st[e.v as usize];
        if self.s[v] == -1 {
            self.pa[v] = e.u as usize;
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
        self.s[1..=self.n_x].fill(-1);
        self.slack[1..=self.n_x].fill(0);
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
                // Hot scan over real vertices. For a real-real pair the
                // cell's endpoints are the indices themselves, so the
                // slack is computed from the row weight directly — the
                // same integer the reference's `e_delta` produces.
                // `lab[u]` is constant within the scan; `st[u]` only
                // changes inside `on_found_edge`, so it is re-read after
                // each tight-edge call rather than per iteration.
                let lab_u = self.lab[u];
                let row = u * self.m;
                let mut st_u = self.st[u];
                for v in 1..=self.n {
                    let w = self.ws[row + v];
                    if w > 0 && st_u != self.st[v] {
                        let ed = lab_u + self.lab[v] - 2 * w;
                        if ed == 0 {
                            if self.on_found_edge(self.cell(u, v)) {
                                return true;
                            }
                            st_u = self.st[u];
                        } else {
                            let sv = self.st[v];
                            if sv == v {
                                // Root vertex: the candidate edge is the
                                // real-real cell whose slack is `ed`,
                                // already in hand — same comparison as
                                // `update_slack`, no cell rebuild.
                                let cur = self.slack[v];
                                if cur == 0 || ed < self.e_delta(self.cell(cur, v)) {
                                    self.slack[v] = u;
                                }
                            } else {
                                self.update_slack(u, sv);
                            }
                        }
                    }
                }
            }
            // Finite "infinity", as in the reference: large enough to
            // dominate any real slack, small enough that one `lab += d`
            // cannot overflow before the termination check below.
            let mut d = i64::MAX / 4;
            for b in (self.n + 1)..=self.n_x {
                if self.st[b] == b && self.s[b] == 1 {
                    d = d.min(self.lab[b] / 2);
                }
            }
            for x in 1..=self.n_x {
                if self.st[x] == x && self.slack[x] != 0 {
                    let ed = self.e_delta(self.cell(self.slack[x], x));
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
                    && self.e_delta(self.cell(self.slack[x], x)) == 0
                    && self.on_found_edge(self.cell(self.slack[x], x))
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
        let fs = self.cap + 1;
        // The matrix maximum equals the maximum over the loaded cells
        // (everything else is zero and weights are positive), so the
        // reference's O(n²) scan reduces to the touched list.
        let mut w_max = 0;
        for &idx in &self.loaded {
            w_max = w_max.max(self.ws[idx as usize]);
        }
        for u in 1..=self.n {
            self.flower_from[u * fs + 1..u * fs + self.n + 1].fill(0);
            self.flower_from[u * fs + u] = u;
        }
        for u in 1..=self.n {
            self.lab[u] = w_max;
        }
        while self.matching_round() {}
        let mut total = 0;
        for u in 1..=self.n {
            if self.mate[u] != 0 && self.mate[u] < u {
                total += self.w(u, self.mate[u]);
            }
        }
        total
    }

    /// Sum of the duals of every blossom (at any nesting depth)
    /// containing both real 1-based vertices `u` and `v` in the final
    /// laminar structure.
    fn common_blossom_dual(&self, u: usize, v: usize) -> i64 {
        let fs = self.cap + 1;
        let top = self.st[u];
        if top <= self.n || self.st[v] != top {
            return 0;
        }
        let mut sum = 0;
        let mut cur = top;
        loop {
            sum += self.lab[cur];
            let mu = self.flower_from[cur * fs + u];
            let mv = self.flower_from[cur * fs + v];
            if mu == mv && mu > self.n {
                cur = mu;
            } else {
                return sum;
            }
        }
    }

    /// Checks the dual certificate left by the last **successful**
    /// perfect-matching solve: every loaded edge has non-negative slack
    /// under the final vertex/blossom potentials, every matched edge is
    /// tight (complementary slackness), and every blossom potential is
    /// non-negative. Together these prove the returned matching was
    /// optimal for that exact shot — not merely plausible.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated condition. Calling
    /// it after a failed solve (no perfect matching) or before any
    /// solve yields `Ok` vacuously when nothing is loaded.
    pub fn verify_certificate(&self) -> Result<(), String> {
        for b in (self.n + 1)..=self.n_x {
            // Retired slots keep lab from their live period; only live
            // or nested blossoms constrain. Nested blossoms are
            // reachable from live roots, and all were expanded at 0 or
            // retained non-negative duals; check every slot that is its
            // own root or still referenced by a flower_from entry.
            if self.st[b] == b && self.lab[b] < 0 {
                return Err(format!("blossom {b} has negative dual {}", self.lab[b]));
            }
        }
        for &idx in &self.loaded {
            let idx = idx as usize;
            let (u, v) = (idx / self.m, idx % self.m);
            if u > v {
                continue; // each undirected edge once
            }
            let w = self.ws[idx];
            // Vertex potentials move by `d` per dual adjustment while
            // top-blossom potentials move by `2d`, so the adjustment-
            // invariant slack takes the blossom sum with coefficient 1.
            let slack = self.lab[u] + self.lab[v] - 2 * w + self.common_blossom_dual(u, v);
            if slack < 0 {
                return Err(format!("edge ({u},{v}) has negative slack {slack}"));
            }
            let matched = self.mate[u] == v;
            if matched != (self.mate[v] == u) {
                return Err(format!("asymmetric mates at ({u},{v})"));
            }
            if matched && slack != 0 {
                return Err(format!(
                    "matched edge ({u},{v}) is not tight: slack {slack}"
                ));
            }
        }
        for u in 1..=self.n {
            let mu = self.mate[u];
            if mu == 0 {
                return Err(format!("vertex {u} unmatched after perfect solve"));
            }
            if self.w(u, mu) == 0 {
                return Err(format!("matched pair ({u},{mu}) is not a loaded edge"));
            }
        }
        Ok(())
    }
}

/// [`qec_math::graph::matching::min_weight_perfect_matching_f64`]
/// computed through a pooled [`BlossomScratch`] — identical output
/// (same `Option`-ness, same weight, same mates; see the module docs
/// for why), no per-call allocation once the scratch is warm.
///
/// # Panics
///
/// Panics on NaN weights, out-of-range endpoints or self-loops, like
/// the reference.
pub fn pooled_min_weight_perfect_matching_f64<'a>(
    n: usize,
    edges: &[(usize, usize, f64)],
    sc: &'a mut BlossomScratch,
) -> Option<PooledMatching<'a>> {
    if n == 0 {
        sc.reset(0);
        sc.doubled = 0;
        sc.c = 0;
        return Some(PooledMatching { sc, weight: 0 });
    }
    if n % 2 == 1 {
        return None;
    }
    sc.reset(n);
    // Pass 1: fixed-point scale (reference `F64_WEIGHT_SCALE` rounding)
    // and the perfect-matching transform constant, with the reference's
    // exact arithmetic.
    let mut w_abs_max = 0i64;
    for &(_, _, w) in edges {
        assert!(!w.is_nan(), "NaN edge weight");
        let scaled = (w * F64_WEIGHT_SCALE).round() as i64;
        w_abs_max = w_abs_max.max(scaled.abs());
    }
    let c = 2 * (w_abs_max + 1) * (n as i64 + 2);
    sc.c = c;
    // Pass 2: load `c - w`, doubled, skipping non-positive transformed
    // weights and keeping duplicate maxima — the reference insert rule.
    for &(u, v, w) in edges {
        assert!(u < n && v < n, "edge endpoint out of range");
        assert_ne!(u, v, "self-loops are not allowed");
        let scaled = (w * F64_WEIGHT_SCALE).round() as i64;
        let tw = c - scaled;
        assert!(tw <= i64::MAX / 4, "edge weight too large");
        if tw <= 0 {
            continue;
        }
        sc.load_edge(u, v, 2 * tw);
    }
    let doubled = sc.solve();
    sc.doubled = doubled;
    if (1..=n).any(|u| sc.mate[u] == 0) {
        return None;
    }
    let weight = (n as i64 / 2) * c - doubled / 2;
    Some(PooledMatching { sc, weight })
}
