//! Graph-native sparse blossom matching: exact MWPM priced lazily on
//! the CSR decoding graph.
//!
//! Pricing **every** defect pair costs O(defects²) truncated-Dijkstra
//! distance queries whose search regions grow until the *farthest*
//! needed defect settles. This module prices lazily instead: it grows
//! every defect's region on the CSR adjacency frozen in
//! [`SparsePathFinder`] at once, prices only the pairs whose regions
//! touch, so per-shot cost scales with the *touched graph region*
//! instead of defects², and hands the candidate instance to the pooled
//! blossom solver.
//!
//! The algorithm is exact, not heuristic:
//!
//! 1. **Growth.** One multi-source Dijkstra seeded at every defect:
//!    each vertex settles once, owned by the defect whose region
//!    reached it first. A CSR edge between two settled vertices of
//!    different owners is a collision, and each defect keeps its
//!    [`PARTNERS`] cheapest colliding defects as nearest partners. The
//!    growth stops once every defect has them (or the graph runs out).
//! 2. **Pricing.** Every candidate pair is priced exactly from its
//!    lower index (as the dense oracle's complete instance reads it),
//!    one truncated Dijkstra per lower index that stops once all of
//!    that index's targets have settled; with a boundary, every
//!    defect's boundary leg is a target too. A collision's estimate is
//!    the length of a real path between the pair, so it bounds their
//!    distance from above: each search gets the largest estimate among
//!    its targets (padded for f64 summation order) and never pushes a
//!    relaxation beyond it. Boundary legs, repair and escalation have no
//!    estimate and search unbounded. Settled distances are bitwise
//!    identical to a full Dijkstra — neither truncation nor the bound
//!    changes a value settled within it, since every prefix of a
//!    shortest path is no longer than the path — so every candidate
//!    edge carries the exact dense-oracle weight. A bounded search that
//!    drains before its targets settle (a *bound miss*, only possible if
//!    the padding undercuts f64 error) leaves its pairs unpriced, which
//!    certification then flags: it costs time, never a decision. Hops
//!    are bitwise identical too, except where two relaxations tie
//!    exactly: the heap orders equal distances by its contents, which
//!    the bound changes — the same caveat as for mates below.
//! 3. **Solve.** The candidate subgraph (plus all boundary edges and
//!    the zero-weight boundary clique, which are always included) goes
//!    through the pooled [`BlossomScratch`] solver. When it has no
//!    perfect matching, the shot **widens** once — it re-grows with
//!    [`WIDENED_PARTNERS`] nearest partners per defect and prices the
//!    new pairs — and **escalates** to complete pricing, the dense
//!    instance itself, only if that also fails.
//! 4. **Certify.** The solver's final dual variables bound how cheap an
//!    *omitted* pair would have to be to matter:
//!    [`BlossomScratch::dual_radius`] converts each defect's dual into
//!    a graph-distance ball radius, and one epoch-stamped ball search
//!    per defect collects every vertex strictly inside the ball; the
//!    search never pushes a relaxation at or beyond the radius, so it
//!    settles exactly the ball and nothing else. Two balls that touch
//!    (shared vertex, or a CSR edge bridging them within the combined
//!    radii) flag a pair that *might* violate dual feasibility. An
//!    `s × s` bit table flags each pair at most once.
//! 5. **Repair.** Flagged pairs not yet priced are priced exactly (from
//!    the lower index) and the instance is re-solved; since the
//!    candidate set grows monotonically this terminates, and after
//!    [`MAX_REPAIR_ROUNDS`] rounds it escalates to complete pricing.
//!
//! At termination the matching is optimal for the *complete* instance:
//! it is optimal on the candidate subgraph (blossom is exact), every
//! omitted pair provably satisfies the dual-feasibility constraint, and
//! no perfect matching can prefer an edge too heavy to load. The
//! **total matching weight is therefore identical to the complete
//! instance under the same `1<<20` fixed-point quantization** — the
//! weight-equality contract pinned by the differential fuzz harness.
//! The chosen *mates* may differ on genuinely tie-degenerate instances
//! (two equal-weight perfect matchings).
//!
//! Every instance is listed by [`complete_instance`] over the pair memo
//! (an unpriced pair is no edge), in the dense oracle's `(i, j)` order,
//! so a complete one — an escalated one, or [`complete_graph_match`]'s —
//! reaches the oracle's decisions and not only its weight.
//! [`complete_graph_match`] always solves with the blossom: it is the
//! reference.
//!
//! [`sparse_graph_match`] grows at every defect count and matches every
//! shot the decoders do not answer from the dense oracle; that rule is
//! [`crate::engine::Route`]'s. The module also holds what the oracle
//! route's complete-instance solve shares with it:
//! [`complete_instance`], and [`enumerate_small_matching`], which
//! decides a complete instance of at most [`SMALL_SHOT`] defects by
//! trying its at most 10 defect-level perfect matchings.

use std::collections::BinaryHeap;

use qec_math::graph::matching::F64_WEIGHT_SCALE;

use crate::blossom::{pooled_min_weight_perfect_matching_f64, BlossomScratch};
use crate::paths::{relaxed_dist, SparsePathFinder};
use crate::scratch::HeapItem;

/// Distances at or above this never become matching edges: the one
/// filter of the CSR instances, the oracle's complete instance and
/// [`enumerate_small_matching`].
pub(crate) const UNREACHABLE: f64 = 1.0e8;

/// The most defects a complete instance [`enumerate_small_matching`]
/// decides may have.
pub(crate) const SMALL_SHOT: usize = 4;

/// Lists the complete instance of `s` defects into `edges` and returns
/// its node count: defects `0..s`, and boundary copies `s..2s` when
/// `has_boundary`. `pair_dist(i, tj)` prices defect `i` against defect
/// `tj > i`, or against the boundary at `tj == s`; a pair at or beyond
/// [`UNREACHABLE`] is no edge. The boundary copies form a zero-weight
/// clique.
pub(crate) fn complete_instance(
    s: usize,
    has_boundary: bool,
    pair_dist: impl Fn(usize, usize) -> f64,
    edges: &mut Vec<(usize, usize, f64)>,
) -> usize {
    edges.clear();
    for i in 0..s {
        for j in (i + 1)..s {
            let d = pair_dist(i, j);
            if d < UNREACHABLE {
                edges.push((i, j, d));
            }
        }
        if has_boundary {
            let d = pair_dist(i, s);
            if d < UNREACHABLE {
                edges.push((i, s + i, d));
            }
        }
    }
    if !has_boundary {
        return s;
    }
    for i in 0..s {
        for j in (i + 1)..s {
            edges.push((s + i, s + j, 0.0));
        }
    }
    2 * s
}

/// What [`enumerate_small_matching`] found on a complete instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Enumeration {
    /// One defect-level matching is strictly cheapest: its total weight
    /// in `1<<20` fixed-point units.
    Unique(i64),
    /// The instance has no perfect matching.
    Unmatched,
    /// More than [`SMALL_SHOT`] defects, or several matchings share the
    /// minimum: the pooled blossom solver decides.
    Undecided,
}

/// Solves a complete instance of at most [`SMALL_SHOT`] defects by
/// trying every defect-level perfect matching: each defect pairs with
/// a later defect or, when `has_boundary`, with the boundary, so 4
/// defects have at most 10 matchings. `dist(i, j)` is the distance from
/// defect `i` to defect `j > i`, or to the boundary at `j == s`.
///
/// Each matching is scored in the blossom's own integers: every leg
/// costs `(d · F64_WEIGHT_SCALE).round()`, and a leg at or beyond
/// [`UNREACHABLE`] is no edge. A unique minimum is therefore the
/// matching every exact solver returns, so [`Enumeration::Unique`]
/// carries the weight [`pooled_min_weight_perfect_matching_f64`]
/// returns on the instance, and `pairs` gets its defect-level pairs in
/// its numbering and order: `(a, b)` with `a < b`, ascending `a`, a
/// boundary leg as `(a, s + a)`. The zero-weight pairs among leftover
/// boundary copies, which carry no hops, are not listed. `pairs` is
/// left empty unless the result is `Unique`.
pub(crate) fn enumerate_small_matching(
    s: usize,
    has_boundary: bool,
    dist: impl Fn(usize, usize) -> f64,
    pairs: &mut Vec<(usize, usize)>,
) -> Enumeration {
    pairs.clear();
    if s > SMALL_SHOT {
        return Enumeration::Undecided;
    }
    let scale = |d: f64| (d < UNREACHABLE).then(|| (d * F64_WEIGHT_SCALE).round() as i64);
    let mut search = SmallSearch {
        s,
        cost: [[None; SMALL_SHOT + 1]; SMALL_SHOT],
        mate: [0; SMALL_SHOT],
        best: None,
        tied: false,
    };
    for i in 0..s {
        for j in (i + 1)..s {
            search.cost[i][j] = scale(dist(i, j));
        }
        if has_boundary {
            search.cost[i][BOUNDARY] = scale(dist(i, s));
        }
    }
    search.visit(0, 0);
    let Some((weight, mate)) = search.best else {
        return Enumeration::Unmatched;
    };
    if search.tied {
        return Enumeration::Undecided;
    }
    for (a, &b) in mate[..s].iter().enumerate() {
        if b == BOUNDARY {
            pairs.push((a, s + a));
        } else if a < b {
            pairs.push((a, b));
        }
    }
    Enumeration::Unique(weight)
}

/// The boundary's column in [`SmallSearch::cost`] and its value in
/// [`SmallSearch::mate`].
const BOUNDARY: usize = SMALL_SHOT;

/// The depth-first walk of [`enumerate_small_matching`].
struct SmallSearch {
    s: usize,
    /// Scaled leg from defect `i` to defect `j > i`, or to the boundary
    /// at [`BOUNDARY`]; `None` when the leg is no edge.
    cost: [[Option<i64>; SMALL_SHOT + 1]; SMALL_SHOT],
    /// Each defect's partner on the current branch.
    mate: [usize; SMALL_SHOT],
    /// The cheapest complete matching so far and its partners.
    best: Option<(i64, [usize; SMALL_SHOT])>,
    /// Whether another matching costs exactly `best`.
    tied: bool,
}

impl SmallSearch {
    /// Extends the branch whose defects in `matched` (a bit set) are
    /// paired at total cost `acc`, partnering its lowest free defect.
    fn visit(&mut self, matched: u32, acc: i64) {
        let Some(i) = (0..self.s).find(|&i| matched & 1 << i == 0) else {
            match self.best {
                Some((min, _)) if min < acc => {}
                Some((min, _)) if min == acc => self.tied = true,
                _ => {
                    self.best = Some((acc, self.mate));
                    self.tied = false;
                }
            }
            return;
        };
        for j in (i + 1..self.s).chain([BOUNDARY]) {
            let free = j == BOUNDARY || matched & 1 << j == 0;
            let Some(cost) = self.cost[i][j].filter(|_| free) else {
                continue;
            };
            self.mate[i] = j;
            let mut next = matched | 1 << i;
            if j != BOUNDARY {
                self.mate[j] = i;
                next |= 1 << j;
            }
            self.visit(next, acc + cost);
        }
    }
}

/// Nearest partners each defect's region collects in the first growth.
const PARTNERS: usize = 1;

/// Nearest partners per defect when the first candidate subgraph has
/// no perfect matching.
const WIDENED_PARTNERS: usize = 2;

/// An empty nearest-partner slot.
const NO_PARTNER: u32 = u32::MAX;

/// Certify/repair rounds before escalating to complete pricing.
const MAX_REPAIR_ROUNDS: u32 = 8;

/// Additive slack on every dual ball radius, covering f64 evaluation
/// error in the radius conversion and the overlap sums. Only ever
/// *widens* balls, so it can cause a spurious repair round but never an
/// unsound certificate.
const RADIUS_SLOP: f64 = 5e-7;

/// Relative and absolute padding on a pricing search's bound. A
/// collision estimate sums the same path's terms in another order than
/// the search does, so it can undercut the search's distance by f64
/// rounding; the padding only ever loosens the bound.
const BOUND_REL_SLOP: f64 = 1e-12;
const BOUND_ABS_SLOP: f64 = 1e-9;

/// Per-pair pricing memo: exact distance plus the harvested
/// predecessor-walk span into [`SparseBlossomScratch::hops`].
#[derive(Debug, Clone, Copy)]
struct PairEntry {
    dist: f64,
    start: u32,
    len: u32,
}

/// A pair not (yet) priced. A priced pair always has a finite distance:
/// only settled targets are harvested.
const UNPRICED: PairEntry = PairEntry {
    dist: f64::INFINITY,
    start: 0,
    len: 0,
};

/// What one [`sparse_graph_match`] solve did, for observability.
#[derive(Debug, Clone, Copy)]
pub struct SparseSolveOutcome {
    /// Certify/repair rounds taken (0 = first solve certified clean).
    pub rounds: u32,
    /// Priced pairs in the final instance (excluding the zero-weight
    /// boundary clique).
    pub candidate_edges: usize,
    /// Whether the first candidate subgraph had no perfect matching,
    /// so the solve re-grew with more nearest partners per defect.
    pub widened: bool,
    /// Whether the solve fell back to complete (dense-equivalent)
    /// pricing.
    pub escalated: bool,
    /// Bounded pricing searches that drained before every target
    /// settled, leaving pairs for certification to flag. A growth
    /// estimate bounds a real path, so this stays 0 unless f64 error
    /// outgrows the bound's padding.
    pub bound_misses: u32,
    /// Total matching weight in `1<<20` fixed-point units — identical
    /// to what the dense baseline would report for the same shot.
    pub weight: i64,
}

/// Pooled state of the sparse-graph matching tier: epoch-stamped
/// Dijkstra cells over graph nodes (O(touched) reset between searches),
/// the growth's region owners and nearest-partner slots, the per-shot
/// pair memo and hop pool, the certification ledger, and the instance
/// edge list. Mirrors the [`BlossomScratch`] idiom —
/// doubling pools, monotonically growing capacity, high-water gauges —
/// so steady-state decoding allocates nothing here.
#[derive(Debug, Default)]
pub struct SparseBlossomScratch {
    /// Current search epoch; a stamped cell is valid iff it matches.
    epoch: u32,
    /// Stamp: `dist`/`pred` of this node were written this search.
    seen: Vec<u32>,
    /// Stamp: this node was settled this search.
    done: Vec<u32>,
    /// Stamp: this node is a target of this search, or, in the
    /// certification overlap scan, a ledger node.
    target: Vec<u32>,
    /// Pair-key column of a target node, or the index where a ledger
    /// node's run starts (valid when `target` matches).
    target_idx: Vec<u32>,
    dist: Vec<f64>,
    pred: Vec<(u32, u32)>,
    /// Defect whose region reached this node (valid when `seen`
    /// matches the growth's epoch).
    owner: Vec<u32>,
    heap: BinaryHeap<HeapItem>,
    /// Row-major `s × partners` nearest-partner slots of the last
    /// growth: `(estimated distance, partner)`, [`NO_PARTNER`] when
    /// empty, filled front to back.
    partner: Vec<(f64, u32)>,
    /// Target staging buffer `(node, pair-key column)` for the next
    /// search.
    tbuf: Vec<(u32, u32)>,
    /// Row-major `s × (s + 1)` pair memo: entry `(i, j)` with `i < j`
    /// over defect indices (`j == s` is the boundary column). Reset per
    /// shot.
    pair: Vec<PairEntry>,
    /// Row width of `pair` (`s + 1`).
    width: usize,
    /// Pairs priced this shot.
    priced: usize,
    /// Bounded pricing searches this shot that drained before every
    /// target settled.
    bound_misses: u32,
    /// Test seam: scales every recorded collision estimate, so a test
    /// can make the bounds too tight (`0.5`) or lift them (`INFINITY`).
    #[cfg(test)]
    bound_scale: Option<f64>,
    /// Pooled `(prev, cur, class)` path hops in dst→src walk order.
    hops: Vec<(u32, u32, u32)>,
    /// Per-defect dual ball radii of the current certification pass.
    radius: Vec<f64>,
    /// Ball-search ledger `(node, defect, dist)`, sorted by
    /// `(node, defect)` before the overlap scans.
    ledger: Vec<(u32, u32, f64)>,
    /// Pairs to price next `(lo, hi, bound)`, sorted by lower index: a
    /// growth's candidates, bounded by their cheapest collision
    /// estimate, or a certification pass's flags or every pair left
    /// when escalating, unbounded (`INFINITY`).
    flagged: Vec<(u32, u32, f64)>,
    /// Row-major `s × s` bit table of the pairs the current
    /// certification pass has flagged, so each is listed once.
    marks: Vec<u64>,
    /// Instance edge list handed to the blossom solver.
    edges: Vec<(usize, usize, f64)>,
    /// Shots solved through this scratch.
    shots: u64,
    /// Node-array capacity growths since construction (log-bounded).
    generations: u32,
    /// Largest per-shot hop-pool length ever reached.
    high_water_hops: usize,
}

impl SparseBlossomScratch {
    /// Creates an empty scratch; pools size themselves on first use.
    pub fn new() -> Self {
        SparseBlossomScratch::default()
    }

    /// Shots solved through this scratch.
    pub fn shots(&self) -> u64 {
        self.shots
    }

    /// Node-array capacity growths since construction. Flat after the
    /// first shot on a given graph — steady-state decoding allocates
    /// nothing here.
    pub fn generations(&self) -> u32 {
        self.generations
    }

    /// Largest per-shot hop-pool length ever reached.
    pub fn high_water_hops(&self) -> usize {
        self.high_water_hops
    }

    /// Current pool footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.seen.len()
            + self.done.len()
            + self.target.len()
            + self.target_idx.len()
            + self.owner.len())
            * 4
            + self.dist.len() * 8
            + self.pred.len() * 8
            + self.heap.capacity() * 16
            + self.partner.capacity() * 16
            + self.tbuf.capacity() * 8
            + self.pair.capacity() * 16
            + self.hops.capacity() * 12
            + self.radius.capacity() * 8
            + self.ledger.capacity() * 16
            + self.flagged.capacity() * 16
            + self.marks.capacity() * 8
            + self.edges.capacity() * 24
    }

    /// Harvested `(prev, cur, class)` hops of the shortest path from
    /// defect `i` to defect `j > i` of the last solve, in dst→src walk
    /// order (the same sequence a predecessor-chain walk of the full
    /// Dijkstra visits). `j == s` addresses the boundary leg. Empty for
    /// a pair that was never priced; every matched pair was.
    pub fn pair_hops(&self, i: usize, j: usize) -> &[(u32, u32, u32)] {
        let e = self.entry(i as u32, j as u32);
        &self.hops[e.start as usize..(e.start + e.len) as usize]
    }

    /// Exact distance from defect `i` to defect `j > i` (`j == s`: the
    /// boundary) priced by the last solve, bitwise equal to a full
    /// Dijkstra's; `INFINITY` for a pair that was never priced or is
    /// unreachable.
    pub fn pair_dist(&self, i: usize, j: usize) -> f64 {
        self.entry(i as u32, j as u32).dist
    }

    fn entry(&self, i: u32, j: u32) -> &PairEntry {
        &self.pair[i as usize * self.width + j as usize]
    }

    fn priced(&self, i: u32, j: u32) -> bool {
        self.entry(i, j).dist < f64::INFINITY
    }

    fn ensure(&mut self, n: usize) {
        if self.seen.len() < n {
            self.seen.resize(n, 0);
            self.done.resize(n, 0);
            self.target.resize(n, 0);
            self.target_idx.resize(n, 0);
            self.dist.resize(n, 0.0);
            self.pred.resize(n, (u32::MAX, u32::MAX));
            self.owner.resize(n, NO_PARTNER);
            self.generations += 1;
        }
    }

    /// Advances to a fresh epoch, invalidating every stamped cell in
    /// O(1); on the (astronomically rare) wrap, clears the stamps.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.seen.fill(0);
            self.done.fill(0);
            self.target.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    fn begin_shot(&mut self, num_nodes: usize, num_defects: usize) {
        self.ensure(num_nodes);
        self.width = num_defects + 1;
        self.pair.clear();
        self.pair.resize(num_defects * self.width, UNPRICED);
        self.priced = 0;
        self.bound_misses = 0;
        self.hops.clear();
        self.radius.clear();
        self.ledger.clear();
        self.flagged.clear();
        self.edges.clear();
        self.shots += 1;
    }
}

/// Prices `sc.tbuf`'s targets from `src` with one truncated Dijkstra,
/// recording exact distances and path hops into the pair memo under
/// `(src_idx, column)` keys. Stops once every target has settled (or
/// the heap drains). Edges relax through [`relaxed_dist`] in CSR order,
/// as the dense oracle's rows were built, so settled distances are
/// bitwise identical to the oracle's.
///
/// A relaxation beyond `bound` is never pushed: every prefix of a
/// shortest path within the bound lies within it too, so each node
/// within the bound settles at the same distance as without it. Hops
/// can differ only where two relaxations tie exactly, since the heap
/// breaks ties by its contents. A finite `bound` must cover every
/// target; a bounded search that drains first counts a bound miss and
/// leaves the unsettled targets unpriced.
fn price_from(
    finder: &SparsePathFinder,
    class_weights: &[f64],
    sc: &mut SparseBlossomScratch,
    src: usize,
    src_idx: u32,
    bound: f64,
) {
    let offsets = finder.csr_offsets();
    let csr = finder.csr_edges();
    let epoch = sc.next_epoch();
    for &(node, idx) in &sc.tbuf {
        let node = node as usize;
        sc.target[node] = epoch;
        sc.target_idx[node] = idx;
    }
    let mut remaining = sc.tbuf.len();
    sc.heap.clear();
    sc.dist[src] = 0.0;
    sc.pred[src] = (u32::MAX, u32::MAX);
    sc.seen[src] = epoch;
    sc.heap.push(HeapItem {
        dist: 0.0,
        node: src,
    });
    while let Some(HeapItem { dist: d, node: u }) = sc.heap.pop() {
        if sc.done[u] == epoch {
            continue;
        }
        sc.done[u] = epoch;
        if sc.target[u] == epoch {
            let idx = sc.target_idx[u];
            // Harvest immediately: the node just settled, so dist/pred
            // are final.
            let start = sc.hops.len() as u32;
            let mut cur = u;
            while cur != src {
                let (prev, class) = sc.pred[cur];
                sc.hops.push((prev, cur as u32, class));
                cur = prev as usize;
            }
            let len = sc.hops.len() as u32 - start;
            sc.pair[src_idx as usize * sc.width + idx as usize] = PairEntry {
                dist: sc.dist[u],
                start,
                len,
            };
            sc.priced += 1;
            remaining -= 1;
            if remaining == 0 {
                break;
            }
        }
        let (lo, hi) = (offsets[u] as usize, offsets[u + 1] as usize);
        for &(v, class) in &csr[lo..hi] {
            let class = class as usize;
            let v = v as usize;
            let w = class_weights[class];
            let nd = relaxed_dist(d, w, class);
            if nd > bound {
                continue;
            }
            let dv = if sc.seen[v] == epoch {
                sc.dist[v]
            } else {
                f64::INFINITY
            };
            if nd < dv {
                sc.dist[v] = nd;
                sc.pred[v] = (u as u32, class as u32);
                sc.seen[v] = epoch;
                sc.heap.push(HeapItem { dist: nd, node: v });
            }
        }
    }
    if remaining > 0 && bound < f64::INFINITY {
        sc.bound_misses += 1;
    }
    if sc.hops.len() > sc.high_water_hops {
        sc.high_water_hops = sc.hops.len();
    }
}

/// Grows every defect's region at once: one multi-source Dijkstra
/// seeded at each defect, in which every vertex settles once and is
/// owned by the defect whose region reached it first. When settling a
/// vertex finds a CSR edge to a settled vertex of another region, the
/// two defects collide, with estimate `d(u) + w + d(v)` — the length of
/// a real path between them, so never below their distance. Each
/// defect keeps its `partners` cheapest distinct colliding defects in
/// [`SparseBlossomScratch::partner`]. Stops once every defect has
/// `partners` of them, or when the heap drains (a defect alone in its
/// component never finds one).
fn grow_regions(
    finder: &SparsePathFinder,
    class_weights: &[f64],
    sc: &mut SparseBlossomScratch,
    checks: &[usize],
    partners: usize,
) {
    let offsets = finder.csr_offsets();
    let csr = finder.csr_edges();
    let epoch = sc.next_epoch();
    sc.partner.clear();
    sc.partner
        .resize(checks.len() * partners, (f64::INFINITY, NO_PARTNER));
    let mut unmet = checks.len();
    sc.heap.clear();
    for (i, &src) in checks.iter().enumerate() {
        sc.dist[src] = 0.0;
        sc.owner[src] = i as u32;
        sc.seen[src] = epoch;
        sc.heap.push(HeapItem {
            dist: 0.0,
            node: src,
        });
    }
    while let Some(HeapItem { dist: d, node: u }) = sc.heap.pop() {
        if sc.done[u] == epoch {
            continue;
        }
        sc.done[u] = epoch;
        let a = sc.owner[u];
        let (lo, hi) = (offsets[u] as usize, offsets[u + 1] as usize);
        for &(v, class) in &csr[lo..hi] {
            let class = class as usize;
            let v = v as usize;
            let nd = relaxed_dist(d, class_weights[class], class);
            if sc.done[v] == epoch {
                let b = sc.owner[v];
                if b != a {
                    let est = nd + sc.dist[v];
                    let slots = &mut sc.partner;
                    unmet -= usize::from(note_partner(slots, partners, a, b, est));
                    unmet -= usize::from(note_partner(slots, partners, b, a, est));
                    if unmet == 0 {
                        return;
                    }
                }
                continue;
            }
            let dv = if sc.seen[v] == epoch {
                sc.dist[v]
            } else {
                f64::INFINITY
            };
            if nd < dv {
                sc.dist[v] = nd;
                sc.owner[v] = a;
                sc.seen[v] = epoch;
                sc.heap.push(HeapItem { dist: nd, node: v });
            }
        }
    }
}

/// Offers `b` at estimate `est` to defect `a`'s nearest-partner slots:
/// lowers the estimate of a partner already held, fills the next empty
/// slot, or replaces the costliest partner when `est` undercuts it.
/// Returns whether this filled `a`'s last empty slot.
fn note_partner(slots: &mut [(f64, u32)], partners: usize, a: u32, b: u32, est: f64) -> bool {
    let row = &mut slots[a as usize * partners..(a as usize + 1) * partners];
    if let Some(slot) = row.iter_mut().find(|slot| slot.1 == b) {
        slot.0 = slot.0.min(est);
        return false;
    }
    if let Some(k) = row.iter().position(|slot| slot.1 == NO_PARTNER) {
        row[k] = (est, b);
        return k + 1 == partners;
    }
    let worst = (0..partners)
        .max_by(|&x, &y| row[x].0.total_cmp(&row[y].0))
        .expect("at least one partner slot");
    if est < row[worst].0 {
        row[worst] = (est, b);
    }
    false
}

/// Lists the last growth's candidate pairs `(lo, hi, bound)` that are
/// not yet priced in `sc.flagged`, sorted by lower index and
/// deduplicated, each bounded by its cheapest collision estimate.
fn collect_candidates(sc: &mut SparseBlossomScratch, partners: usize) {
    sc.flagged.clear();
    for (k, &(est, b)) in sc.partner.iter().enumerate() {
        if b != NO_PARTNER {
            let a = (k / partners) as u32;
            #[cfg(test)]
            let est = sc.bound_scale.map_or(est, |f| est * f);
            sc.flagged.push((a.min(b), a.max(b), est));
        }
    }
    // Cheapest estimate first within a pair, so the dedup keeps it.
    sc.flagged
        .sort_unstable_by(|x, y| (x.0, x.1).cmp(&(y.0, y.1)).then(x.2.total_cmp(&y.2)));
    sc.flagged.dedup_by_key(|e| (e.0, e.1));
    let (pair, width) = (&sc.pair, sc.width);
    sc.flagged
        .retain(|&(a, b, _)| pair[a as usize * width + b as usize].dist == f64::INFINITY);
}

/// Prices the pairs listed in `sc.flagged` (sorted by lower index), one
/// search per lower index, bounded by the largest of its targets'
/// bounds. With `boundary`, every defect's boundary leg not yet priced
/// is a target of its defect's search as well, which lifts the bound.
fn price_flagged(
    finder: &SparsePathFinder,
    class_weights: &[f64],
    sc: &mut SparseBlossomScratch,
    checks: &[usize],
    boundary: Option<usize>,
) {
    let bidx = checks.len() as u32;
    let mut k = 0;
    for (i, &src) in checks.iter().enumerate() {
        let i = i as u32;
        sc.tbuf.clear();
        let mut bound = 0.0f64;
        while k < sc.flagged.len() && sc.flagged[k].0 == i {
            let (_, j, est) = sc.flagged[k];
            sc.tbuf.push((checks[j as usize] as u32, j));
            bound = bound.max(est);
            k += 1;
        }
        if let Some(b) = boundary {
            if !sc.priced(i, bidx) {
                sc.tbuf.push((b as u32, bidx));
                bound = f64::INFINITY;
            }
        }
        if !sc.tbuf.is_empty() {
            let bound = bound * (1.0 + BOUND_REL_SLOP) + BOUND_ABS_SLOP;
            price_from(finder, class_weights, sc, src, i, bound);
        }
    }
}

/// Appends every vertex strictly inside `radius` of `src` to the
/// certification ledger as `(node, src_idx, dist)`. A non-positive
/// radius still seeds the defect's own vertex at distance 0 — required
/// by the overlap lemma when the partner's ball reaches this defect.
///
/// A relaxation at or beyond `radius` is never pushed, so the search
/// settles exactly the ball and drains: a vertex inside it is reached
/// along a shortest path whose prefixes all lie inside it too, at the
/// distance a full Dijkstra gives it.
fn ball_search(
    finder: &SparsePathFinder,
    class_weights: &[f64],
    sc: &mut SparseBlossomScratch,
    src: usize,
    src_idx: u32,
    radius: f64,
) {
    if radius <= 0.0 {
        sc.ledger.push((src as u32, src_idx, 0.0));
        return;
    }
    let offsets = finder.csr_offsets();
    let csr = finder.csr_edges();
    let epoch = sc.next_epoch();
    sc.heap.clear();
    sc.dist[src] = 0.0;
    sc.pred[src] = (u32::MAX, u32::MAX);
    sc.seen[src] = epoch;
    sc.heap.push(HeapItem {
        dist: 0.0,
        node: src,
    });
    while let Some(HeapItem { dist: d, node: u }) = sc.heap.pop() {
        if sc.done[u] == epoch {
            continue;
        }
        sc.done[u] = epoch;
        sc.ledger.push((u as u32, src_idx, d));
        let (lo, hi) = (offsets[u] as usize, offsets[u + 1] as usize);
        for &(v, class) in &csr[lo..hi] {
            let class = class as usize;
            let v = v as usize;
            let w = class_weights[class];
            let nd = relaxed_dist(d, w, class);
            if nd >= radius {
                continue;
            }
            let dv = if sc.seen[v] == epoch {
                sc.dist[v]
            } else {
                f64::INFINITY
            };
            if nd < dv {
                sc.dist[v] = nd;
                sc.pred[v] = (u as u32, class as u32);
                sc.seen[v] = epoch;
                sc.heap.push(HeapItem { dist: nd, node: v });
            }
        }
    }
}

/// Marks pair `{a, b}` in the `s × s` bit table and lists it in
/// `flagged` the first time it is marked, unless it is already priced.
fn flag_pair(
    marks: &mut [u64],
    flagged: &mut Vec<(u32, u32, f64)>,
    pair: &[PairEntry],
    width: usize,
    a: u32,
    b: u32,
) {
    let (a, b) = (a.min(b) as usize, a.max(b) as usize);
    let bit = a * (width - 1) + b;
    let mask = 1u64 << (bit % 64);
    if marks[bit / 64] & mask == 0 {
        marks[bit / 64] |= mask;
        if pair[a * width + b].dist == f64::INFINITY {
            flagged.push((a as u32, b as u32, f64::INFINITY));
        }
    }
}

/// Scans the sorted ball ledger for pairs whose balls touch — a shared
/// vertex, or a CSR edge bridging the two balls within the combined
/// radii — and leaves the not-yet-priced pairs, each once and sorted,
/// in `sc.flagged`. Every omitted pair that could violate dual
/// feasibility is flagged (the combined-radius threshold
/// over-approximates the exact `4·s_uv < r_u + r_v` bound).
///
/// The shared-vertex pass walks the ledger's runs of equal node and
/// stamps each run's node, under a fresh epoch, with the index where
/// its run starts (the `target`/`target_idx` cells). The bridging pass
/// then finds a neighbour's run in O(1): a neighbour outside every
/// ball fails the stamp compare, one inside a ball is read from its
/// run start.
fn flag_overlaps(finder: &SparsePathFinder, class_weights: &[f64], sc: &mut SparseBlossomScratch) {
    sc.ledger.sort_unstable_by_key(|e| (e.0, e.1));
    let s = sc.width - 1;
    sc.marks.clear();
    sc.marks.resize((s * s).div_ceil(64), 0);
    let epoch = sc.next_epoch();
    let SparseBlossomScratch {
        ledger,
        radius,
        flagged,
        marks,
        pair,
        width,
        target: run_stamp,
        target_idx: run_start,
        ..
    } = sc;
    let width = *width;
    flagged.clear();
    let offsets = finder.csr_offsets();
    let csr = finder.csr_edges();
    // Shared-vertex scan over runs of equal node.
    let mut i = 0;
    while i < ledger.len() {
        let node = ledger[i].0;
        run_stamp[node as usize] = epoch;
        run_start[node as usize] = i as u32;
        let mut j = i + 1;
        while j < ledger.len() && ledger[j].0 == node {
            j += 1;
        }
        let run = &ledger[i..j];
        for (x, &(_, a, da)) in run.iter().enumerate() {
            for &(_, b, db) in &run[x + 1..] {
                if da + db < radius[a as usize] + radius[b as usize] {
                    flag_pair(marks, flagged, pair, width, a, b);
                }
            }
        }
        i = j;
    }
    // Bridging-edge scan: a shortest path between two balls must cross
    // a CSR edge whose endpoints lie one in each ball.
    for &(x, a, da) in ledger.iter() {
        let x = x as usize;
        let (lo, hi) = (offsets[x] as usize, offsets[x + 1] as usize);
        for &(y, class) in &csr[lo..hi] {
            if run_stamp[y as usize] != epoch {
                continue;
            }
            let w = class_weights[class as usize];
            let mut k = run_start[y as usize] as usize;
            while k < ledger.len() && ledger[k].0 == y {
                let (_, b, db) = ledger[k];
                if b != a && da + w + db < radius[a as usize] + radius[b as usize] {
                    flag_pair(marks, flagged, pair, width, a, b);
                }
                k += 1;
            }
        }
    }
    flagged.sort_unstable_by_key(|&(a, b, _)| (a, b));
}

/// [`flag_overlaps`] with the bridging pass finding each neighbour's
/// ledger run by binary search: the reference the stamped run lookup
/// is checked against.
#[cfg(test)]
fn flag_overlaps_reference(
    finder: &SparsePathFinder,
    class_weights: &[f64],
    sc: &mut SparseBlossomScratch,
) {
    sc.ledger.sort_unstable_by_key(|e| (e.0, e.1));
    let s = sc.width - 1;
    sc.marks.clear();
    sc.marks.resize((s * s).div_ceil(64), 0);
    let SparseBlossomScratch {
        ledger,
        radius,
        flagged,
        marks,
        pair,
        width,
        ..
    } = sc;
    let width = *width;
    flagged.clear();
    let offsets = finder.csr_offsets();
    let csr = finder.csr_edges();
    let mut i = 0;
    while i < ledger.len() {
        let node = ledger[i].0;
        let mut j = i + 1;
        while j < ledger.len() && ledger[j].0 == node {
            j += 1;
        }
        let run = &ledger[i..j];
        for (x, &(_, a, da)) in run.iter().enumerate() {
            for &(_, b, db) in &run[x + 1..] {
                if da + db < radius[a as usize] + radius[b as usize] {
                    flag_pair(marks, flagged, pair, width, a, b);
                }
            }
        }
        i = j;
    }
    for &(x, a, da) in ledger.iter() {
        let x = x as usize;
        let (lo, hi) = (offsets[x] as usize, offsets[x + 1] as usize);
        for &(y, class) in &csr[lo..hi] {
            let w = class_weights[class as usize];
            let mut k = ledger.partition_point(|e| e.0 < y);
            while k < ledger.len() && ledger[k].0 == y {
                let (_, b, db) = ledger[k];
                if b != a && da + w + db < radius[a as usize] + radius[b as usize] {
                    flag_pair(marks, flagged, pair, width, a, b);
                }
                k += 1;
            }
        }
    }
    flagged.sort_unstable_by_key(|&(a, b, _)| (a, b));
}

/// Solves the instance of the pairs priced so far with the pooled
/// blossom: [`complete_instance`] over the pair memo, where an unpriced
/// pair is `INFINITY` and so no edge. Returns the total weight and
/// leaves the matched pairs in `pairs`, or `None` when the instance has
/// no perfect matching.
fn solve_priced(
    sc: &mut SparseBlossomScratch,
    s: usize,
    has_boundary: bool,
    blossom: &mut BlossomScratch,
    pairs: &mut Vec<(usize, usize)>,
) -> Option<i64> {
    pairs.clear();
    let SparseBlossomScratch {
        pair, width, edges, ..
    } = sc;
    let dist = |i: usize, j: usize| pair[i * *width + j].dist;
    let nodes = complete_instance(s, has_boundary, dist, edges);
    let m = pooled_min_weight_perfect_matching_f64(nodes, edges, blossom)?;
    pairs.extend(m.pairs());
    Some(m.weight())
}

/// Prices every not-yet-priced pair (all later defects plus the
/// boundary, per source) — afterwards the instance is exactly the
/// dense one.
fn escalate(
    finder: &SparsePathFinder,
    class_weights: &[f64],
    sc: &mut SparseBlossomScratch,
    checks: &[usize],
    boundary: Option<usize>,
) {
    let s = checks.len() as u32;
    sc.flagged.clear();
    for i in 0..s {
        for j in (i + 1)..s {
            if !sc.priced(i, j) {
                sc.flagged.push((i, j, f64::INFINITY));
            }
        }
    }
    price_flagged(finder, class_weights, sc, checks, boundary);
}

/// Solves minimum-weight perfect matching for the shot's defects
/// directly on the CSR decoding graph, with the boundary (when given)
/// as a virtual vertex exactly like the dense instance: nodes `0..s`
/// are defects, `s..2s` their boundary copies, and the returned `pairs`
/// use that numbering (so callers apply corrections the same way as
/// for the dense tier, reading path hops from
/// [`SparseBlossomScratch::pair_hops`]). An edge of class `c` costs
/// `class_weights[c]`: the finder's flag-free weights or a shot's
/// flag-reweighted ones.
///
/// Returns `None` exactly when the dense baseline would give up (odd
/// instance, or no perfect matching exists); otherwise the outcome's
/// `weight` — and the weight implied by the matched pairs — equals the
/// dense baseline's under the shared fixed-point quantization.
pub fn sparse_graph_match(
    finder: &SparsePathFinder,
    checks: &[usize],
    boundary: Option<usize>,
    class_weights: &[f64],
    sc: &mut SparseBlossomScratch,
    blossom: &mut BlossomScratch,
    pairs: &mut Vec<(usize, usize)>,
) -> Option<SparseSolveOutcome> {
    let s = checks.len();
    pairs.clear();
    sc.begin_shot(finder.num_nodes(), s);
    if boundary.is_none() && s % 2 == 1 {
        // The dense instance has the same odd node count and gives up
        // identically.
        return None;
    }
    grow_regions(finder, class_weights, sc, checks, PARTNERS);
    collect_candidates(sc, PARTNERS);
    price_flagged(finder, class_weights, sc, checks, boundary);
    let mut widened = false;
    let mut escalated = false;
    let mut rounds = 0u32;
    loop {
        let Some(weight) = solve_priced(sc, s, boundary.is_some(), blossom, pairs) else {
            if escalated {
                return None;
            }
            // The candidate subgraph is infeasible but the complete
            // instance may not be: widen once, then price everything.
            if widened {
                escalate(finder, class_weights, sc, checks, boundary);
                escalated = true;
            } else {
                grow_regions(finder, class_weights, sc, checks, WIDENED_PARTNERS);
                collect_candidates(sc, WIDENED_PARTNERS);
                price_flagged(finder, class_weights, sc, checks, None);
                widened = true;
            }
            continue;
        };
        let outcome = SparseSolveOutcome {
            rounds,
            candidate_edges: sc.priced,
            widened,
            escalated,
            bound_misses: sc.bound_misses,
            weight,
        };
        // An escalated instance *is* the complete one: nothing to
        // certify.
        if escalated {
            return Some(outcome);
        }
        // Certification: convert each defect's final dual into a ball
        // radius; pairs farther apart than the combined radii provably
        // satisfy dual feasibility even though they were never priced.
        sc.radius.clear();
        for i in 0..s {
            let r = blossom.dual_radius(i) as f64;
            let b = ((r + 1.0) / (4.0 * F64_WEIGHT_SCALE) + RADIUS_SLOP).min(UNREACHABLE);
            sc.radius.push(b);
        }
        if sc.radius.iter().all(|&b| b <= 0.0) {
            return Some(outcome);
        }
        sc.ledger.clear();
        for (i, &src) in checks.iter().enumerate() {
            let r = sc.radius[i];
            ball_search(finder, class_weights, sc, src, i as u32, r);
        }
        flag_overlaps(finder, class_weights, sc);
        if sc.flagged.is_empty() {
            return Some(outcome);
        }
        rounds += 1;
        if rounds > MAX_REPAIR_ROUNDS {
            escalate(finder, class_weights, sc, checks, boundary);
            escalated = true;
            continue;
        }
        // Repair: price the flagged pairs exactly, grouped by their
        // lower-indexed source so each source runs one search.
        price_flagged(finder, class_weights, sc, checks, None);
    }
}

/// Solves the shot's complete instance on the CSR decoding graph:
/// every defect pair and boundary leg priced exactly, with no region
/// growth and no certification. This is the reference
/// [`sparse_graph_match`] is measured and tested against; it takes the
/// same arguments, numbers `pairs` the same way, leaves the same hops in
/// [`SparseBlossomScratch::pair_hops`], and returns `None` exactly when
/// the complete instance has no perfect matching.
pub fn complete_graph_match(
    finder: &SparsePathFinder,
    checks: &[usize],
    boundary: Option<usize>,
    class_weights: &[f64],
    sc: &mut SparseBlossomScratch,
    blossom: &mut BlossomScratch,
    pairs: &mut Vec<(usize, usize)>,
) -> Option<SparseSolveOutcome> {
    sc.begin_shot(finder.num_nodes(), checks.len());
    escalate(finder, class_weights, sc, checks, boundary);
    let weight = solve_priced(sc, checks.len(), boundary.is_some(), blossom, pairs)?;
    Some(SparseSolveOutcome {
        rounds: 0,
        candidate_edges: sc.priced,
        widened: false,
        escalated: false,
        bound_misses: 0,
        weight,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::shortest_paths_from;

    /// Dense reference: price every pair with full Dijkstra and solve
    /// the complete instance — exactly the dense matching stage.
    fn dense_reference(
        adjacency: &[Vec<(usize, usize)>],
        weights: &[f64],
        checks: &[usize],
        boundary: Option<usize>,
    ) -> Option<(i64, Vec<(usize, usize)>)> {
        let s = checks.len();
        let nodes = if boundary.is_some() { 2 * s } else { s };
        let mut edges = Vec::new();
        for (i, &src) in checks.iter().enumerate() {
            let (dist, _) = shortest_paths_from(adjacency, weights, src);
            for (j, &dst) in checks.iter().enumerate().skip(i + 1) {
                let d = dist[dst];
                if d < UNREACHABLE {
                    edges.push((i, j, d));
                }
            }
            if let Some(b) = boundary {
                let d = dist[b];
                if d < UNREACHABLE {
                    edges.push((i, s + i, d));
                }
            }
        }
        if boundary.is_some() {
            for i in 0..s {
                for j in (i + 1)..s {
                    edges.push((s + i, s + j, 0.0));
                }
            }
        }
        let mut sc = BlossomScratch::new();
        let m = pooled_min_weight_perfect_matching_f64(nodes, &edges, &mut sc)?;
        let weight = m.weight();
        let pairs = m.pairs().collect();
        Some((weight, pairs))
    }

    /// Ring of `n` nodes with unit-ish weights, each edge its own class.
    fn ring(n: usize) -> (Vec<Vec<(usize, usize)>>, Vec<f64>) {
        let mut adjacency = vec![Vec::new(); n];
        let mut weights = Vec::new();
        for i in 0..n {
            let j = (i + 1) % n;
            let class = weights.len();
            weights.push(1.0 + (i % 3) as f64 * 0.25);
            adjacency[i].push((j, class));
            adjacency[j].push((i, class));
        }
        (adjacency, weights)
    }

    fn run_sparse(
        adjacency: &[Vec<(usize, usize)>],
        weights: &[f64],
        checks: &[usize],
        boundary: Option<usize>,
    ) -> Option<(i64, Vec<(usize, usize)>)> {
        let finder = SparsePathFinder::build(adjacency, weights.to_vec());
        let mut sc = SparseBlossomScratch::new();
        let mut blossom = BlossomScratch::new();
        let mut pairs = Vec::new();
        let out = sparse_graph_match(
            &finder,
            checks,
            boundary,
            weights,
            &mut sc,
            &mut blossom,
            &mut pairs,
        )?;
        Some((out.weight, pairs))
    }

    #[test]
    fn ring_matchings_have_dense_weight() {
        let (adjacency, weights) = ring(12);
        for checks in [
            vec![0, 6],
            vec![0, 1, 5, 6],
            vec![0, 2, 4, 6, 8, 10],
            vec![1, 2, 3, 4, 7, 11],
        ] {
            let dense = dense_reference(&adjacency, &weights, &checks, None);
            let sparse = run_sparse(&adjacency, &weights, &checks, None);
            let (dw, _) = dense.expect("dense solves");
            let (sw, _) = sparse.expect("sparse solves");
            assert_eq!(dw, sw, "weight diverged for defects {checks:?}");
        }
    }

    #[test]
    fn boundary_instances_match_dense_weight() {
        // Path graph with a boundary hub on one end.
        let (mut adjacency, mut weights) = ring(10);
        let hub = adjacency.len();
        adjacency.push(Vec::new());
        for i in [0usize, 5] {
            let class = weights.len();
            weights.push(0.4);
            adjacency[i].push((hub, class));
            adjacency[hub].push((i, class));
        }
        for checks in [vec![1usize, 8], vec![1, 4, 6, 9], vec![2, 3, 7]] {
            let dense = dense_reference(&adjacency, &weights, &checks, Some(hub));
            let sparse = run_sparse(&adjacency, &weights, &checks, Some(hub));
            let (dw, _) = dense.expect("dense solves");
            let (sw, _) = sparse.expect("sparse solves");
            assert_eq!(sw, dw, "weight diverged for defects {checks:?}");
        }
    }

    #[test]
    fn odd_instance_without_boundary_gives_up_like_dense() {
        let (adjacency, weights) = ring(8);
        assert!(run_sparse(&adjacency, &weights, &[0, 2, 5], None).is_none());
    }

    #[test]
    fn empty_defect_set_is_a_trivial_solve() {
        let (adjacency, weights) = ring(6);
        let (w, pairs) = run_sparse(&adjacency, &weights, &[], None).expect("solves");
        assert_eq!(w, 0);
        assert!(pairs.is_empty());
    }

    #[test]
    fn disconnected_defects_escalate_and_give_up_like_dense() {
        // Two disjoint rings; defects split across them so the only
        // perfect matching needs within-component pairs.
        let (mut adjacency, mut weights) = ring(6);
        let base = adjacency.len();
        let (other, other_w) = ring(6);
        let class_base = weights.len();
        for row in other {
            adjacency.push(
                row.into_iter()
                    .map(|(v, c)| (v + base, c + class_base))
                    .collect(),
            );
        }
        weights.extend(other_w);
        // One defect per component: no cross-component path, no PM.
        assert!(run_sparse(&adjacency, &weights, &[0, base + 1], None).is_none());
        // Two per component: solvable, weight must match dense.
        let checks = vec![0, 3, base, base + 2];
        let dense = dense_reference(&adjacency, &weights, &checks, None).expect("dense");
        let sparse = run_sparse(&adjacency, &weights, &checks, None).expect("sparse");
        assert_eq!(sparse.0, dense.0);
    }

    /// A wheel: an odd cycle of `m` vertices around a hub vertex `m`,
    /// plus one far vertex `m + 1` behind the hub. The defects are the
    /// cycle and the far vertex ([`wheel_defects`]).
    fn wheel(m: usize) -> (Vec<Vec<(usize, usize)>>, Vec<f64>) {
        let (hub, far) = (m, m + 1);
        let mut adjacency = vec![Vec::new(); m + 2];
        let mut weights = Vec::new();
        let mut add = |a: usize, b: usize, w: f64| {
            let class = weights.len();
            weights.push(w);
            adjacency[a].push((b, class));
            adjacency[b].push((a, class));
        };
        for v in 0..m {
            add(v, (v + 1) % m, 1.0);
            add(v, hub, 1.0);
        }
        add(far, hub, 8.0);
        (adjacency, weights)
    }

    fn wheel_defects(m: usize) -> Vec<usize> {
        (0..m).chain([m + 1]).collect()
    }

    /// On the wheel one cycle defect must match the far one, so the
    /// duals grow balls that each cover the whole wheel, and every
    /// vertex lies in every cycle defect's ball. Each pair is still
    /// flagged at most once, so the pools stay within one ledger entry
    /// per (vertex, ball) plus O(1) entries per defect pair: O(n·s +
    /// s²) bytes, where listing every overlap (vertex or bridging edge)
    /// would grow with n·s²·degree.
    #[test]
    fn covering_balls_keep_certification_memory_bounded() {
        let m = 31;
        let (adjacency, weights) = wheel(m);
        let checks = wheel_defects(m);
        let finder = SparsePathFinder::build(&adjacency, weights.clone());
        let mut sc = SparseBlossomScratch::new();
        let mut blossom = BlossomScratch::new();
        let mut pairs = Vec::new();
        let out = sparse_graph_match(
            &finder,
            &checks,
            None,
            &weights,
            &mut sc,
            &mut blossom,
            &mut pairs,
        )
        .expect("the wheel has a perfect matching");
        let dense = dense_reference(&adjacency, &weights, &checks, None).expect("dense solves");
        assert_eq!(out.weight, dense.0);
        assert!(!out.escalated);
        // The last certification pass: every cycle defect's ball holds
        // every vertex but the far defect.
        let (n, s) = (adjacency.len(), checks.len());
        assert!(sc.ledger.len() >= m * (n - 1), "ledger {}", sc.ledger.len());
        let csr = finder.csr_edges().len();
        let bound = 2 * (64 * (n + csr) + 16 * n * s + 64 * s * s);
        assert!(
            sc.memory_bytes() <= bound,
            "{} bytes over the {bound}-byte bound",
            sc.memory_bytes()
        );
    }

    /// Runs [`flag_overlaps_reference`] and then [`flag_overlaps`] on
    /// the same certification state, asserts that both flag the same
    /// pairs, and returns how many they flag.
    fn assert_overlaps_match(
        finder: &SparsePathFinder,
        weights: &[f64],
        sc: &mut SparseBlossomScratch,
        label: &str,
    ) -> usize {
        flag_overlaps_reference(finder, weights, sc);
        let reference = sc.flagged.clone();
        flag_overlaps(finder, weights, sc);
        assert_eq!(sc.flagged, reference, "{label}");
        reference.len()
    }

    /// Starts a fresh `s`-defect shot whose certification pass left
    /// `ledger` and `radius`, with the pairs in `priced` already priced.
    fn certification_state(
        finder: &SparsePathFinder,
        sc: &mut SparseBlossomScratch,
        s: usize,
        ledger: &[(u32, u32, f64)],
        radius: &[f64],
        priced: &[(u32, u32)],
    ) {
        sc.begin_shot(finder.num_nodes(), s);
        sc.ledger.extend_from_slice(ledger);
        sc.radius.extend_from_slice(radius);
        for &(a, b) in priced {
            sc.pair[a as usize * sc.width + b as usize].dist = 1.0;
        }
    }

    /// The stamped run lookup of [`flag_overlaps`] flags exactly the
    /// pairs the binary-search reference flags: on the wheel's last
    /// certification pass (as the solve left it, and with no pair
    /// priced, so every overlap is listed), and on random ledgers over
    /// random CSR graphs with random pairs already priced.
    #[test]
    fn flag_overlaps_matches_the_binary_search_reference() {
        use qec_math::rng::{Rng, Xoshiro256StarStar};

        let (adjacency, weights) = wheel(31);
        let checks = wheel_defects(31);
        let finder = SparsePathFinder::build(&adjacency, weights.clone());
        let mut sc = SparseBlossomScratch::new();
        let mut blossom = BlossomScratch::new();
        let mut pairs = Vec::new();
        sparse_graph_match(
            &finder,
            &checks,
            None,
            &weights,
            &mut sc,
            &mut blossom,
            &mut pairs,
        )
        .expect("the wheel has a perfect matching");
        assert_overlaps_match(&finder, &weights, &mut sc, "wheel as solved");
        let (ledger, radius) = (sc.ledger.clone(), sc.radius.clone());
        certification_state(&finder, &mut sc, checks.len(), &ledger, &radius, &[]);
        let flagged = assert_overlaps_match(&finder, &weights, &mut sc, "wheel, nothing priced");
        assert!(flagged > 0);

        let mut rng = Xoshiro256StarStar::seed_from_u64(0x0B5E);
        let mut flagged_cases = 0;
        for case in 0..300 {
            let (adjacency, weights) = qec_testkit::random_sparse_graph(&mut rng);
            let n = adjacency.len();
            let finder = SparsePathFinder::build(&adjacency, weights.clone());
            let s = rng.gen_range(2..=n.min(10));
            let radius: Vec<f64> = (0..s).map(|_| rng.gen_f64() * 20.0).collect();
            // Sparse ledgers leave balls that only a bridging edge joins.
            let density = 0.03 + rng.gen_f64() * 0.4;
            let mut ledger = Vec::new();
            for (d, &r) in radius.iter().enumerate() {
                for v in 0..n {
                    if rng.gen_bool(density) {
                        ledger.push((v as u32, d as u32, rng.gen_f64() * r));
                    }
                }
            }
            let mut priced = Vec::new();
            for a in 0..s as u32 {
                for b in a + 1..s as u32 {
                    if rng.gen_bool(0.3) {
                        priced.push((a, b));
                    }
                }
            }
            certification_state(&finder, &mut sc, s, &ledger, &radius, &priced);
            let flagged =
                assert_overlaps_match(&finder, &weights, &mut sc, &format!("case {case}"));
            flagged_cases += usize::from(flagged > 0);
        }
        assert!(flagged_cases > 100, "{flagged_cases} cases flag a pair");
    }

    /// The cases the pricing-bound tests solve: the wheel,
    /// [`qec_testkit::random_sparse_graph`] draws with more defects than
    /// a small shot (a boundary on some), and the hop-dominated family.
    fn bound_cases() -> Vec<qec_testkit::SparseBlossomFuzzCase> {
        use qec_math::rng::{Rng, Xoshiro256StarStar};

        let (adjacency, class_weights) = wheel(31);
        let mut cases = vec![qec_testkit::SparseBlossomFuzzCase {
            adjacency,
            class_weights,
            defects: wheel_defects(31),
            boundary: None,
        }];
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xB0D5);
        while cases.len() < 201 {
            let (adjacency, class_weights) = qec_testkit::random_sparse_graph(&mut rng);
            let n = adjacency.len();
            if n < 8 {
                continue;
            }
            let boundary = rng.gen_bool(0.3).then_some(n - 1);
            let mut nodes: Vec<usize> = (0..n - usize::from(boundary.is_some())).collect();
            for i in 0..nodes.len() {
                let j = rng.gen_range(i..nodes.len());
                nodes.swap(i, j);
            }
            let mut k = rng.gen_range(5..=nodes.len().min(12));
            if boundary.is_none() {
                k &= !1;
            }
            let mut defects = nodes[..k].to_vec();
            defects.sort_unstable();
            cases.push(qec_testkit::SparseBlossomFuzzCase {
                adjacency,
                class_weights,
                defects,
                boundary,
            });
        }
        cases.extend((0..60).map(|_| qec_testkit::random_hop_dominated_case(&mut rng)));
        cases
    }

    /// Solves `case` through a fresh scratch whose collision estimates
    /// are scaled by `bound_scale`.
    fn solve_with_bounds(
        case: &qec_testkit::SparseBlossomFuzzCase,
        bound_scale: Option<f64>,
    ) -> (Option<SparseSolveOutcome>, SparseBlossomScratch) {
        let finder = SparsePathFinder::build(&case.adjacency, case.class_weights.clone());
        let mut sc = SparseBlossomScratch::new();
        sc.bound_scale = bound_scale;
        let out = sparse_graph_match(
            &finder,
            &case.defects,
            case.boundary,
            &case.class_weights,
            &mut sc,
            &mut BlossomScratch::new(),
            &mut Vec::new(),
        );
        (out, sc)
    }

    /// Every pair the bounded route prices carries the distance and
    /// hops of the same route with the bounds lifted, bit for bit, and
    /// no bound misses.
    #[test]
    fn bounded_pricing_matches_unbounded() {
        let mut priced = 0;
        for (c, case) in bound_cases().iter().enumerate() {
            let (bounded, sc) = solve_with_bounds(case, None);
            let (unbounded, reference) = solve_with_bounds(case, Some(f64::INFINITY));
            assert_eq!(
                bounded.map(|o| o.weight),
                unbounded.map(|o| o.weight),
                "case {c}"
            );
            assert_eq!(bounded.map_or(0, |o| o.bound_misses), 0, "case {c}");
            let s = case.defects.len();
            for i in 0..s {
                for j in i + 1..=s {
                    let d = sc.pair_dist(i, j);
                    if d == f64::INFINITY {
                        continue;
                    }
                    priced += 1;
                    let label = format!("case {c}, pair ({i}, {j})");
                    assert_eq!(d.to_bits(), reference.pair_dist(i, j).to_bits(), "{label}");
                    assert_eq!(sc.pair_hops(i, j), reference.pair_hops(i, j), "{label}");
                }
            }
        }
        assert!(priced > 2000, "{priced} pairs priced");
    }

    /// Halving every collision estimate makes many pricing searches
    /// drain before their targets settle. Those pairs stay unpriced, so
    /// certification, repair or escalation price them, and every shot
    /// still reaches the complete instance's weight.
    #[test]
    fn too_tight_bounds_only_cost_time() {
        let mut misses = 0;
        for (c, case) in bound_cases().iter().enumerate() {
            let (halved, _) = solve_with_bounds(case, Some(0.5));
            let finder = SparsePathFinder::build(&case.adjacency, case.class_weights.clone());
            let complete = complete_graph_match(
                &finder,
                &case.defects,
                case.boundary,
                &case.class_weights,
                &mut SparseBlossomScratch::new(),
                &mut BlossomScratch::new(),
                &mut Vec::new(),
            );
            assert_eq!(
                halved.map(|o| o.weight),
                complete.map(|o| o.weight),
                "case {c}"
            );
            misses += halved.map_or(0, |o| o.bound_misses);
        }
        assert!(misses > 100, "{misses} bound misses");
    }

    /// Ball searches that never push past their radius leave the same
    /// sorted ledger as a full Dijkstra cut at the radius: on random
    /// sparse and hop-dominated graphs, with random radii, covering
    /// radii and radii exactly equal to some vertex's distance (which
    /// the ball must exclude).
    #[test]
    fn ball_ledger_matches_unpruned_reference() {
        use qec_math::rng::{Rng, Xoshiro256StarStar};

        let mut rng = Xoshiro256StarStar::seed_from_u64(0xBA11);
        let mut sc = SparseBlossomScratch::new();
        let mut exact_radii = 0;
        for case in 0..300 {
            let (adjacency, weights) = if case % 4 == 0 {
                let c = qec_testkit::random_hop_dominated_case(&mut rng);
                (c.adjacency, c.class_weights)
            } else {
                qec_testkit::random_sparse_graph(&mut rng)
            };
            let n = adjacency.len();
            let finder = SparsePathFinder::build(&adjacency, weights.clone());
            let s = rng.gen_range(1..=n.min(8));
            sc.begin_shot(n, s);
            let mut reference = Vec::new();
            for idx in 0..s as u32 {
                let src = rng.gen_range(0..n);
                let (dist, _) = shortest_paths_from(&adjacency, &weights, src);
                let reached: Vec<f64> = dist.iter().copied().filter(|d| d.is_finite()).collect();
                let far = reached.iter().copied().fold(0.0, f64::max);
                let radius = match rng.gen_range(0..3) {
                    0 if far > 0.0 => {
                        exact_radii += 1;
                        let positive: Vec<f64> =
                            reached.iter().copied().filter(|&d| d > 0.0).collect();
                        positive[rng.gen_range(0..positive.len())]
                    }
                    1 => UNREACHABLE,
                    _ => rng.gen_f64() * 1.2 * far,
                };
                ball_search(&finder, &weights, &mut sc, src, idx, radius);
                if radius <= 0.0 {
                    reference.push((src as u32, idx, 0.0));
                }
                for (v, &d) in dist.iter().enumerate() {
                    if d < radius {
                        reference.push((v as u32, idx, d));
                    }
                }
            }
            let bits = |ledger: &mut Vec<(u32, u32, f64)>| {
                ledger.sort_unstable_by_key(|e| (e.0, e.1));
                ledger
                    .iter()
                    .map(|&(v, idx, d)| (v, idx, d.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&mut sc.ledger), bits(&mut reference), "case {case}");
        }
        assert!(exact_radii > 50, "{exact_radii} radii on a vertex");
    }
}
