//! Graph-native sparse blossom matching: exact MWPM priced lazily on
//! the CSR decoding graph.
//!
//! Pricing **every** defect pair costs O(defects²) truncated-Dijkstra
//! distance queries whose search regions grow until the *farthest*
//! needed defect settles. This module prices lazily instead: it grows
//! the instance outward from each defect on the CSR adjacency frozen in
//! [`SparsePathFinder`], so per-shot cost scales with the *touched
//! graph region* instead of defects², and hands the candidate instance
//! to the pooled blossom solver.
//!
//! The algorithm is exact, not heuristic:
//!
//! 1. **Discovery.** One truncated Dijkstra per defect (ascending, so
//!    every pair is priced from its lower index, as the dense oracle's
//!    complete instance reads it) that stops once the
//!    [`DISCOVERY_NEIGHBORS`] nearest *later* defects and the boundary
//!    vertex (when present) have settled. Settled distances are bitwise
//!    identical to a full Dijkstra — truncation never changes values
//!    settled before the stop — so every candidate edge carries the
//!    exact dense-oracle weight.
//! 2. **Solve.** The candidate subgraph (plus all boundary edges and
//!    the zero-weight boundary clique, which are always included) goes
//!    through the pooled [`BlossomScratch`] solver.
//! 3. **Certify.** The solver's final dual variables bound how cheap an
//!    *omitted* pair would have to be to matter:
//!    [`BlossomScratch::dual_radius`] converts each defect's dual into
//!    a graph-distance ball radius, and one epoch-stamped ball search
//!    per defect collects every vertex strictly inside the ball. Two
//!    balls that touch (shared vertex, or a CSR edge bridging them
//!    within the combined radii) flag a pair that *might* violate dual
//!    feasibility.
//! 4. **Repair.** Flagged pairs not yet priced are priced exactly (from
//!    the lower index) and the instance is re-solved; since the
//!    candidate set grows monotonically this terminates, and after
//!    [`MAX_REPAIR_ROUNDS`] rounds (or an infeasible subgraph) it
//!    escalates to complete pricing — the dense instance itself.
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
//! With at most `DISCOVERY_NEIGHBORS + 1` defects discovery already
//! prices every pair, so the instance *is* the complete one and
//! certification is skipped. Every instance lists its edges in the
//! dense oracle's `(i, j)` order, so a complete one — priced that way,
//! by escalation, or by [`complete_graph_match`] — reaches the oracle's
//! decisions and not only its weight.

use std::collections::BinaryHeap;

use qec_math::graph::matching::F64_WEIGHT_SCALE;

use crate::blossom::{pooled_min_weight_perfect_matching_f64, BlossomScratch};
use crate::paths::{relaxed_dist, SparsePathFinder};
use crate::scratch::HeapItem;

/// Distances at or above this never become matching edges (the same
/// constant the dense matching stage filters with).
pub(crate) const UNREACHABLE: f64 = 1.0e8;

/// How many nearest *later* defects each discovery search settles
/// before stopping. Small on purpose: low-weight shots match locally,
/// and the certification pass repairs any under-connection exactly.
pub(crate) const DISCOVERY_NEIGHBORS: usize = 3;

/// Whether discovery prices every pair of a `defects`-defect shot, so
/// that [`sparse_graph_match`] solves the complete instance and skips
/// certification. The decoders count such a shot as a
/// complete-instance solve (`sparse_hits`, `blossom_solves`), any other
/// CSR shot as a graph-native one (`sparse_blossom`).
pub(crate) fn discovery_is_complete(defects: usize) -> bool {
    defects <= DISCOVERY_NEIGHBORS + 1
}

/// Certify/repair rounds before escalating to complete pricing.
const MAX_REPAIR_ROUNDS: u32 = 8;

/// Additive slack on every dual ball radius, covering f64 evaluation
/// error in the radius conversion and the overlap sums. Only ever
/// *widens* balls, so it can cause a spurious repair round but never an
/// unsound certificate.
const RADIUS_SLOP: f64 = 5e-7;

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
    /// Whether the solve fell back to complete (dense-equivalent)
    /// pricing.
    pub escalated: bool,
    /// Total matching weight in `1<<20` fixed-point units — identical
    /// to what the dense baseline would report for the same shot.
    pub weight: i64,
}

/// Pooled state of the sparse-graph matching tier: epoch-stamped
/// Dijkstra cells over graph nodes (O(touched) reset between searches),
/// the per-shot pair memo and hop pool, the certification ledger, and
/// the instance edge list. Mirrors the [`BlossomScratch`] idiom —
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
    /// Stamp: this node is a target of this search.
    target: Vec<u32>,
    /// Pair-key column of a target node (valid when `target` matches).
    target_idx: Vec<u32>,
    dist: Vec<f64>,
    pred: Vec<(u32, u32)>,
    heap: BinaryHeap<HeapItem>,
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
    /// Pooled `(prev, cur, class)` path hops in dst→src walk order.
    hops: Vec<(u32, u32, u32)>,
    /// Per-defect dual ball radii of the current certification pass.
    radius: Vec<f64>,
    /// Ball-search ledger `(node, defect, dist)`, sorted by
    /// `(node, defect)` before the overlap scans.
    ledger: Vec<(u32, u32, f64)>,
    /// Pairs flagged by the current certification pass.
    flagged: Vec<(u32, u32)>,
    /// Instance edge list handed to the blossom solver.
    edges: Vec<(usize, usize, f64)>,
    /// Shots solved through this scratch.
    shots: u64,
    /// Truncated-Dijkstra searches (discovery + pricing + balls) run.
    searches: u64,
    /// Node-array capacity growths since construction (log-bounded).
    generations: u32,
    /// Largest defect count ever solved.
    high_water_defects: usize,
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

    /// Truncated-Dijkstra searches run (discovery, repair pricing and
    /// certification balls combined).
    pub fn searches(&self) -> u64 {
        self.searches
    }

    /// Node-array capacity growths since construction. Flat after the
    /// first shot on a given graph — steady-state decoding allocates
    /// nothing here.
    pub fn generations(&self) -> u32 {
        self.generations
    }

    /// Largest defect count ever solved through this scratch.
    pub fn high_water_defects(&self) -> usize {
        self.high_water_defects
    }

    /// Largest per-shot hop-pool length ever reached.
    pub fn high_water_hops(&self) -> usize {
        self.high_water_hops
    }

    /// Current pool footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.seen.len() + self.done.len() + self.target.len() + self.target_idx.len()) * 4
            + self.dist.len() * 8
            + self.pred.len() * 8
            + self.tbuf.capacity() * 8
            + self.pair.capacity() * 16
            + self.hops.capacity() * 12
            + self.radius.capacity() * 8
            + self.ledger.capacity() * 16
            + self.flagged.capacity() * 8
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
        self.hops.clear();
        self.radius.clear();
        self.ledger.clear();
        self.flagged.clear();
        self.edges.clear();
        self.shots += 1;
        if num_defects > self.high_water_defects {
            self.high_water_defects = num_defects;
        }
    }
}

/// Prices `sc.tbuf`'s targets from `src` with one truncated Dijkstra,
/// recording exact distances and path hops into the pair memo under
/// `(src_idx, column)` keys. Stops once `defect_quota` non-boundary
/// targets *and* the boundary target (the one whose column equals
/// `boundary_idx`, when given) have settled; every target that happens
/// to settle before the stop is harvested. Edges relax through
/// [`relaxed_dist`] in CSR order, as the dense oracle's rows were
/// built, so settled distances are bitwise identical to the oracle's.
fn price_from(
    finder: &SparsePathFinder,
    class_weights: &[f64],
    sc: &mut SparseBlossomScratch,
    src: usize,
    src_idx: u32,
    defect_quota: usize,
    boundary_idx: Option<u32>,
) {
    let offsets = finder.csr_offsets();
    let csr = finder.csr_edges();
    let epoch = sc.next_epoch();
    sc.searches += 1;
    let mut defect_targets = 0usize;
    let mut boundary_left = 0usize;
    for &(node, idx) in &sc.tbuf {
        let node = node as usize;
        sc.target[node] = epoch;
        sc.target_idx[node] = idx;
        if boundary_idx == Some(idx) {
            boundary_left += 1;
        } else {
            defect_targets += 1;
        }
    }
    let mut remaining = defect_quota.min(defect_targets);
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
            if boundary_idx == Some(idx) {
                boundary_left -= 1;
            } else {
                remaining = remaining.saturating_sub(1);
            }
            if remaining == 0 && boundary_left == 0 {
                break;
            }
        }
        let (lo, hi) = (offsets[u] as usize, offsets[u + 1] as usize);
        for &(v, class) in &csr[lo..hi] {
            let class = class as usize;
            let v = v as usize;
            let w = class_weights[class];
            let nd = relaxed_dist(d, w, class);
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
    if sc.hops.len() > sc.high_water_hops {
        sc.high_water_hops = sc.hops.len();
    }
}

/// Appends every vertex strictly inside `radius` of `src` to the
/// certification ledger as `(node, src_idx, dist)`. A non-positive
/// radius still seeds the defect's own vertex at distance 0 — required
/// by the overlap lemma when the partner's ball reaches this defect.
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
    sc.searches += 1;
    sc.heap.clear();
    sc.dist[src] = 0.0;
    sc.pred[src] = (u32::MAX, u32::MAX);
    sc.seen[src] = epoch;
    sc.heap.push(HeapItem {
        dist: 0.0,
        node: src,
    });
    while let Some(HeapItem { dist: d, node: u }) = sc.heap.pop() {
        if d >= radius {
            // Pops are nondecreasing, so nothing inside the ball
            // remains unsettled.
            break;
        }
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

/// Scans the sorted ball ledger for pairs whose balls touch — a shared
/// vertex, or a CSR edge bridging the two balls within the combined
/// radii — and leaves the deduplicated, not-yet-priced pairs in
/// `sc.flagged`. Every omitted pair that could violate dual feasibility
/// is flagged (the combined-radius threshold over-approximates the
/// exact `4·s_uv < r_u + r_v` bound).
fn flag_overlaps(finder: &SparsePathFinder, class_weights: &[f64], sc: &mut SparseBlossomScratch) {
    sc.ledger.sort_unstable_by_key(|e| (e.0, e.1));
    sc.flagged.clear();
    let offsets = finder.csr_offsets();
    let csr = finder.csr_edges();
    let ledger = &sc.ledger;
    let radius = &sc.radius;
    // Shared-vertex scan over runs of equal node.
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
                    sc.flagged.push((a.min(b), a.max(b)));
                }
            }
        }
        i = j;
    }
    // Bridging-edge scan: a shortest path between two balls must cross
    // a CSR edge whose endpoints lie one in each ball.
    for &(x, a, da) in ledger {
        let x = x as usize;
        let (lo, hi) = (offsets[x] as usize, offsets[x + 1] as usize);
        for &(y, class) in &csr[lo..hi] {
            let w = class_weights[class as usize];
            let mut k = ledger.partition_point(|e| e.0 < y);
            while k < ledger.len() && ledger[k].0 == y {
                let (_, b, db) = ledger[k];
                if b != a && da + w + db < radius[a as usize] + radius[b as usize] {
                    sc.flagged.push((a.min(b), a.max(b)));
                }
                k += 1;
            }
        }
    }
    sc.flagged.sort_unstable();
    sc.flagged.dedup();
    let (pair, width) = (&sc.pair, sc.width);
    sc.flagged
        .retain(|&(a, b)| pair[a as usize * width + b as usize].dist == f64::INFINITY);
}

/// Rebuilds the instance edge list from the priced pairs: finite
/// defect/boundary edges under the dense oracle's `UNREACHABLE` filter,
/// in the oracle's `(i, j)` order with the boundary leg last in each
/// row, plus the complete zero-weight clique over boundary copies.
fn build_edges(sc: &mut SparseBlossomScratch, s: usize, has_boundary: bool) {
    sc.edges.clear();
    for (i, row) in sc.pair.chunks_exact(sc.width).enumerate() {
        for (j, e) in row.iter().enumerate() {
            if e.dist < UNREACHABLE {
                let v = if j == s { s + i } else { j };
                sc.edges.push((i, v, e.dist));
            }
        }
    }
    if has_boundary {
        for i in 0..s {
            for j in (i + 1)..s {
                sc.edges.push((s + i, s + j, 0.0));
            }
        }
    }
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
    let s = checks.len();
    let bidx = s as u32;
    for i in 0..s {
        sc.tbuf.clear();
        for (j, &check) in checks.iter().enumerate().skip(i + 1) {
            if !sc.priced(i as u32, j as u32) {
                sc.tbuf.push((check as u32, j as u32));
            }
        }
        if let Some(b) = boundary {
            if !sc.priced(i as u32, bidx) {
                sc.tbuf.push((b as u32, bidx));
            }
        }
        if sc.tbuf.is_empty() {
            continue;
        }
        price_from(
            finder,
            class_weights,
            sc,
            checks[i],
            i as u32,
            usize::MAX,
            None,
        );
    }
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
    if s == 0 {
        return Some(SparseSolveOutcome {
            rounds: 0,
            candidate_edges: 0,
            escalated: false,
            weight: 0,
        });
    }
    let nodes = if boundary.is_some() { 2 * s } else { s };
    if nodes % 2 == 1 {
        // The dense instance has the same node count and gives up
        // identically.
        return None;
    }
    let bidx = s as u32;
    // Discovery: K nearest later defects plus the boundary, per defect.
    for i in 0..s {
        sc.tbuf.clear();
        for (j, &node) in checks.iter().enumerate().skip(i + 1) {
            sc.tbuf.push((node as u32, j as u32));
        }
        if let Some(b) = boundary {
            sc.tbuf.push((b as u32, bidx));
        }
        if sc.tbuf.is_empty() {
            continue;
        }
        price_from(
            finder,
            class_weights,
            sc,
            checks[i],
            i as u32,
            DISCOVERY_NEIGHBORS,
            boundary.map(|_| bidx),
        );
    }
    // When the neighbor quota already covers every later defect the
    // instance *is* the dense one and certification is unnecessary.
    let mut complete = discovery_is_complete(s);
    let mut escalated = false;
    let mut rounds = 0u32;
    loop {
        build_edges(sc, s, boundary.is_some());
        let Some(m) = pooled_min_weight_perfect_matching_f64(nodes, &sc.edges, blossom) else {
            if complete {
                return None;
            }
            // The candidate subgraph is infeasible but the complete
            // instance may not be: price everything and retry once.
            escalate(finder, class_weights, sc, checks, boundary);
            complete = true;
            escalated = true;
            continue;
        };
        let weight = m.weight();
        pairs.clear();
        pairs.extend(m.pairs());
        if complete {
            return Some(SparseSolveOutcome {
                rounds,
                candidate_edges: sc.priced,
                escalated,
                weight,
            });
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
            return Some(SparseSolveOutcome {
                rounds,
                candidate_edges: sc.priced,
                escalated,
                weight,
            });
        }
        sc.ledger.clear();
        for (i, &src) in checks.iter().enumerate() {
            let r = sc.radius[i];
            ball_search(finder, class_weights, sc, src, i as u32, r);
        }
        flag_overlaps(finder, class_weights, sc);
        if sc.flagged.is_empty() {
            return Some(SparseSolveOutcome {
                rounds,
                candidate_edges: sc.priced,
                escalated,
                weight,
            });
        }
        rounds += 1;
        if rounds > MAX_REPAIR_ROUNDS {
            escalate(finder, class_weights, sc, checks, boundary);
            complete = true;
            escalated = true;
            continue;
        }
        // Repair: price the flagged pairs exactly, grouped by their
        // lower-indexed source so each source runs one search.
        let mut k = 0;
        while k < sc.flagged.len() {
            let a = sc.flagged[k].0;
            sc.tbuf.clear();
            while k < sc.flagged.len() && sc.flagged[k].0 == a {
                let j = sc.flagged[k].1;
                sc.tbuf.push((checks[j as usize] as u32, j));
                k += 1;
            }
            price_from(
                finder,
                class_weights,
                sc,
                checks[a as usize],
                a,
                usize::MAX,
                None,
            );
        }
    }
}

/// Solves the shot's complete instance on the CSR decoding graph:
/// every defect pair and boundary leg priced exactly, with no discovery
/// quota and no certification. This is the reference
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
    let s = checks.len();
    pairs.clear();
    sc.begin_shot(finder.num_nodes(), s);
    escalate(finder, class_weights, sc, checks, boundary);
    build_edges(sc, s, boundary.is_some());
    let nodes = if boundary.is_some() { 2 * s } else { s };
    let m = pooled_min_weight_perfect_matching_f64(nodes, &sc.edges, blossom)?;
    pairs.extend(m.pairs());
    Some(SparseSolveOutcome {
        rounds: 0,
        candidate_edges: sc.priced,
        escalated: false,
        weight: m.weight(),
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
}
