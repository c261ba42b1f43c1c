//! Shared shortest-path machinery for the matching decoders' two path
//! tiers: the all-sources [`PathOracle`] precomputed once per decoding
//! graph, the lazy [`SparsePathFinder`], and the single-source Dijkstra
//! the oracle is built from (also the tests' reference search).
//!
//! PyMatching-class decoders get their speed by paying the path-search
//! cost once per matching graph, not once per shot per defect. The
//! oracle does the same here: at decoder construction every source runs
//! one Dijkstra (parallelized across sources, bit-identical for any
//! thread count because rows are independent), and the resulting
//! `dist` matrix plus per-source predecessor trees answer defect-pair
//! weight queries and unroll correction paths in O(1) per hop at decode
//! time. Storage is O(V²), so graphs above a configurable node limit —
//! and shots the flag-free matrix cannot price — are served by the
//! sparse finder instead.

use crate::scratch::HeapItem;
use std::collections::BinaryHeap;

/// Decoding graphs with at most this many vertices get a precomputed
/// [`PathOracle`] by default. `dist` + `pred` cost 16 bytes per
/// (source, node) entry, so the default caps a graph's oracle at
/// 1024² × 16 B = 16 MiB.
pub const DEFAULT_ORACLE_NODE_LIMIT: usize = 1024;

/// The single deterministic relaxation formula every path search in
/// this module shares: tentative distance of a neighbor reached from a
/// node at distance `d` over a class-`class` edge of weight `w`.
///
/// The `1e-6` per-hop epsilon prefers shorter paths among weight ties
/// and the `1e-9 · (class % 1024)` term ranks exactly-tied alternatives
/// stably by class. Keeping the formula (and its left-to-right
/// accumulation order) in one place is what makes the dense oracle, the
/// sparse finder and the reference Dijkstra **bitwise** interchangeable.
#[inline]
pub(crate) fn relaxed_dist(d: f64, w: f64, class: usize) -> f64 {
    d + w + 1e-6 + (class % 1024) as f64 * 1e-9
}

/// One Dijkstra run over `adjacency` from `src` into pooled
/// `dist`/`pred` arrays; `done` and `heap` are shared across runs and
/// left drained. `class_weight` prices an edge by its equivalence
/// class.
///
/// Relaxations price edges through [`relaxed_dist`], the single
/// deterministic tie-break site shared with the [`PathOracle`] and the
/// [`SparsePathFinder`], so every caller accumulates **bit-identical**
/// distance sums.
pub(crate) fn dijkstra_into(
    adjacency: &[Vec<(usize, usize)>],
    src: usize,
    class_weight: impl Fn(usize) -> f64,
    dist: &mut Vec<f64>,
    pred: &mut Vec<(usize, usize)>,
    done: &mut Vec<bool>,
    heap: &mut BinaryHeap<HeapItem>,
) {
    let n = adjacency.len();
    dist.clear();
    dist.resize(n, f64::INFINITY);
    pred.clear();
    pred.resize(n, (usize::MAX, usize::MAX));
    done.clear();
    done.resize(n, false);
    heap.clear();
    dist[src] = 0.0;
    heap.push(HeapItem {
        dist: 0.0,
        node: src,
    });
    while let Some(HeapItem { dist: d, node: u }) = heap.pop() {
        if done[u] {
            continue;
        }
        done[u] = true;
        for &(v, class) in &adjacency[u] {
            let w = class_weight(class);
            let nd = relaxed_dist(d, w, class);
            if nd < dist[v] {
                dist[v] = nd;
                pred[v] = (u, class);
                heap.push(HeapItem { dist: nd, node: v });
            }
        }
    }
}

/// On-demand single-source shortest paths with the decoders' exact edge
/// pricing and tie-breaking: `class_weights[c]` is the weight of every
/// edge in class `c`. Returns `(dist, pred)` where `pred[v] = (prev,
/// class)` and unreachable nodes carry `f64::INFINITY` /
/// `(usize::MAX, usize::MAX)`.
///
/// This is the reference implementation the [`PathOracle`] is tested
/// against; the oracle's rows are produced by the same routine, so
/// equality is exact (bitwise), not approximate.
pub fn shortest_paths_from(
    adjacency: &[Vec<(usize, usize)>],
    class_weights: &[f64],
    src: usize,
) -> (Vec<f64>, Vec<(usize, usize)>) {
    let mut dist = Vec::new();
    let mut pred = Vec::new();
    let mut done = Vec::new();
    let mut heap = BinaryHeap::new();
    dijkstra_into(
        adjacency,
        src,
        |c| class_weights[c],
        &mut dist,
        &mut pred,
        &mut done,
        &mut heap,
    );
    (dist, pred)
}

/// Number of construction worker threads for a graph of `n` sources:
/// all available cores, but never more threads than sources.
pub(crate) fn default_build_threads(n: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, |t| t.get())
        .clamp(1, n.max(1))
}

/// Precomputed all-sources shortest paths over a decoding graph.
///
/// Row `s` of the `dist` matrix and of the predecessor forest is
/// exactly the output of [`shortest_paths_from`]`(adjacency, weights,
/// s)`: rows are computed independently (one Dijkstra per source,
/// parallelized across construction threads), so the result is
/// **bit-identical regardless of thread count** and bit-identical to
/// the [`SparsePathFinder`]'s searches under the same class weights.
#[derive(Debug)]
pub struct PathOracle {
    n: usize,
    /// Row-major `n × n` distances.
    dist: Vec<f64>,
    /// Row-major `n × n` `(prev, class)` predecessor entries;
    /// `u32::MAX` marks "none" (source or unreachable).
    pred: Vec<(u32, u32)>,
}

impl PathOracle {
    /// Runs one Dijkstra per source over `adjacency` (edges priced by
    /// `class_weights`), split across `threads` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if any node or class index does not fit in `u32`.
    pub fn build(
        adjacency: &[Vec<(usize, usize)>],
        class_weights: &[f64],
        threads: usize,
    ) -> PathOracle {
        let n = adjacency.len();
        let mut oracle = PathOracle {
            n,
            dist: vec![f64::INFINITY; n * n],
            pred: vec![(u32::MAX, u32::MAX); n * n],
        };
        oracle.fill(adjacency, class_weights, threads);
        oracle
    }

    /// Recomputes every row against new class weights over the same
    /// graph, reusing the allocated matrices — the sweep-reuse path: a
    /// BER sweep re-prices the decoding graph at each physical error
    /// rate without reallocating O(V²) storage. Bit-identical to a
    /// fresh [`PathOracle::build`] with the same inputs.
    ///
    /// # Panics
    ///
    /// Panics if `adjacency` has a different vertex count than the
    /// oracle was built for.
    pub fn reprice(
        &mut self,
        adjacency: &[Vec<(usize, usize)>],
        class_weights: &[f64],
        threads: usize,
    ) {
        assert_eq!(
            adjacency.len(),
            self.n,
            "reprice requires the graph the oracle was built for"
        );
        self.fill(adjacency, class_weights, threads);
    }

    /// Runs the all-sources Dijkstra sweep into the existing matrices,
    /// overwriting every entry.
    fn fill(&mut self, adjacency: &[Vec<(usize, usize)>], class_weights: &[f64], threads: usize) {
        let n = self.n;
        if n == 0 {
            return;
        }
        assert!(n <= u32::MAX as usize, "node indices must fit in u32");
        let rows_per_chunk = n.div_ceil(threads.clamp(1, n));
        std::thread::scope(|scope| {
            for (chunk, (dist_chunk, pred_chunk)) in self
                .dist
                .chunks_mut(rows_per_chunk * n)
                .zip(self.pred.chunks_mut(rows_per_chunk * n))
                .enumerate()
            {
                scope.spawn(move || {
                    let mut d = Vec::new();
                    let mut p = Vec::new();
                    let mut done = Vec::new();
                    let mut heap = BinaryHeap::new();
                    for (row, (dist_row, pred_row)) in dist_chunk
                        .chunks_mut(n)
                        .zip(pred_chunk.chunks_mut(n))
                        .enumerate()
                    {
                        let src = chunk * rows_per_chunk + row;
                        dijkstra_into(
                            adjacency,
                            src,
                            |c| class_weights[c],
                            &mut d,
                            &mut p,
                            &mut done,
                            &mut heap,
                        );
                        dist_row.copy_from_slice(&d);
                        for (slot, &(u, c)) in pred_row.iter_mut().zip(&p) {
                            *slot = if u == usize::MAX {
                                (u32::MAX, u32::MAX)
                            } else {
                                assert!(c <= u32::MAX as usize, "class index must fit in u32");
                                (u as u32, c as u32)
                            };
                        }
                    }
                });
            }
        });
    }

    /// Number of graph nodes (the matrix is `num_nodes × num_nodes`).
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Precomputed storage footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.n * self.n * (std::mem::size_of::<f64>() + std::mem::size_of::<(u32, u32)>())
    }

    /// Shortest-path distance from `src` to `dst` (`f64::INFINITY` if
    /// unreachable), including the deterministic tie-break epsilons.
    #[inline]
    pub fn dist(&self, src: usize, dst: usize) -> f64 {
        self.dist[src * self.n + dst]
    }

    /// The `(prev, class)` predecessor of `dst` on the shortest path
    /// from `src` — the O(1) next-hop lookup used to unroll correction
    /// paths. `(usize::MAX, usize::MAX)` means `dst == src` or `dst`
    /// unreachable.
    #[inline]
    pub fn pred(&self, src: usize, dst: usize) -> (usize, usize) {
        let (u, c) = self.pred[src * self.n + dst];
        if u == u32::MAX {
            (usize::MAX, usize::MAX)
        } else {
            (u as usize, c as usize)
        }
    }
}

/// Lazy, defect-seeded shortest paths — the path tier that serves
/// decoding graphs above the [`PathOracle`] node limit and every
/// flag-reweighted shot.
///
/// Instead of precomputing all V² pairs (dense oracle) or running one
/// *full-graph* Dijkstra per defect per shot, the finder grows a
/// Dijkstra region from each defect that actually fired and stops as
/// soon as every target that defect still needs is settled. Because
/// Dijkstra settles nodes in nondecreasing distance order, the settled
/// targets carry their **final** distances and predecessors — the
/// truncation is exact, and since relaxations price edges through the
/// same [`relaxed_dist`] tie-break the harvested results are **bitwise**
/// equal to a full run's.
///
/// For matching, source `i` only needs targets `i+1..` (the matcher
/// consumes each unordered pair once, from the lower-indexed side; the
/// boundary, when present, is the last target so every source keeps
/// it), which roughly halves the searched volume on top of the early
/// exit. Results are memoized per shot in a [`SparsePathScratch`]:
/// an `s × t` pair-distance table plus unrolled path hops, so the
/// per-shot path index is O(defects · targets), never O(V²).
///
/// The finder itself stores only the CSR graph — O(V + E) — and the
/// flag-free class weights; searches can be re-priced per shot through
/// a weight closure, so unlike the dense oracle it also serves
/// flag-reweighted shots.
#[derive(Debug)]
pub struct SparsePathFinder {
    /// CSR offsets: node `v`'s edges live at
    /// `edges[offsets[v] as usize .. offsets[v + 1] as usize]`.
    offsets: Vec<u32>,
    /// CSR-packed `(neighbor, class)` pairs, in exactly the order the
    /// adjacency lists enumerate them (relaxation order is part of the
    /// bitwise-determinism contract).
    edges: Vec<(u32, u32)>,
    /// Flag-free per-class weights (the decoders' base pricing), kept
    /// for standalone searches and sweep re-pricing.
    class_weights: Vec<f64>,
}

impl SparsePathFinder {
    /// Packs `adjacency` into CSR form.
    ///
    /// # Panics
    ///
    /// Panics if any node, class or edge index does not fit in `u32`.
    pub fn build(adjacency: &[Vec<(usize, usize)>], class_weights: Vec<f64>) -> SparsePathFinder {
        let n = adjacency.len();
        assert!(n <= u32::MAX as usize, "node indices must fit in u32");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::with_capacity(adjacency.iter().map(Vec::len).sum());
        offsets.push(0);
        for list in adjacency {
            for &(v, class) in list {
                assert!(class <= u32::MAX as usize, "class indices must fit in u32");
                edges.push((v as u32, class as u32));
            }
            let end = u32::try_from(edges.len()).expect("edge count must fit in u32");
            offsets.push(end);
        }
        SparsePathFinder {
            offsets,
            edges,
            class_weights,
        }
    }

    /// Number of graph nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Resident index footprint in bytes — O(V + E), against the dense
    /// oracle's O(V²).
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.edges.len() * std::mem::size_of::<(u32, u32)>()
            + self.class_weights.len() * std::mem::size_of::<f64>()
    }

    /// The flag-free per-class weights the finder was built with.
    pub fn class_weights(&self) -> &[f64] {
        &self.class_weights
    }

    /// The frozen CSR offsets (crate-internal: the sparse-graph blossom
    /// solver walks the same index the path searches use).
    pub(crate) fn csr_offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The frozen CSR `(neighbor, class)` cells, in adjacency
    /// enumeration order (relaxation order is part of the bitwise
    /// contract every consumer of this index shares).
    pub(crate) fn csr_edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Replaces the stored flag-free class weights — the sweep-reuse
    /// path, mirroring [`PathOracle::reprice`]. The CSR structure is
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if the weight count changes.
    pub fn reprice(&mut self, class_weights: &[f64]) {
        assert_eq!(
            class_weights.len(),
            self.class_weights.len(),
            "reprice requires the class set the finder was built for"
        );
        self.class_weights.copy_from_slice(class_weights);
    }

    /// Exact distances and unrolled paths from every source to **all**
    /// `targets`, harvested into `scratch` (query them with
    /// [`SparsePathScratch::dist`] / [`SparsePathScratch::path`]).
    /// Edges are priced by `class_weight`; pass
    /// `|c| finder.class_weights()[c]` for the flag-free base pricing.
    pub fn all_paths_into(
        &self,
        sources: &[usize],
        targets: &[usize],
        class_weight: impl Fn(usize) -> f64,
        scratch: &mut SparsePathScratch,
    ) {
        self.search_into(sources, targets, |_| 0, class_weight, scratch);
    }

    /// The matching-shaped search: source `i` gets exact distances and
    /// paths to `targets[i + 1..]` only (entries below the diagonal
    /// stay "unreachable" in the scratch). With `targets` = the defect
    /// list (plus a trailing boundary node when the graph has one),
    /// this is every pair the matcher can consume, at roughly half the
    /// all-pairs search volume.
    pub fn matching_paths_into(
        &self,
        sources: &[usize],
        targets: &[usize],
        class_weight: impl Fn(usize) -> f64,
        scratch: &mut SparsePathScratch,
    ) {
        self.search_into(sources, targets, |i| i + 1, class_weight, scratch);
    }

    /// Shared search body: one truncated Dijkstra per source, needing
    /// targets `first_needed(i)..`, harvesting distances and dst→src
    /// path hops as each search finishes.
    fn search_into(
        &self,
        sources: &[usize],
        targets: &[usize],
        first_needed: impl Fn(usize) -> usize,
        class_weight: impl Fn(usize) -> f64,
        sc: &mut SparsePathScratch,
    ) {
        let t = targets.len();
        sc.ensure(self.num_nodes());
        sc.num_targets = t;
        sc.pair_dist.clear();
        sc.pair_dist.resize(sources.len() * t, f64::INFINITY);
        sc.path_span.clear();
        sc.path_span.resize(sources.len() * t, (0, 0));
        sc.hops.clear();
        for (i, &src) in sources.iter().enumerate() {
            let first = first_needed(i).min(t);
            if first >= t {
                continue;
            }
            let epoch = sc.next_epoch();
            // Mark this source's needed targets; duplicates collapse.
            let mut remaining = 0usize;
            for &tn in &targets[first..] {
                if sc.target[tn] != epoch {
                    sc.target[tn] = epoch;
                    remaining += 1;
                }
            }
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
                    remaining -= 1;
                    if remaining == 0 {
                        // Every needed target settled: its dist/pred
                        // are final (Dijkstra settles in nondecreasing
                        // distance order), so stop growing the region.
                        break;
                    }
                }
                let (lo, hi) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
                for &(v, class) in &self.edges[lo..hi] {
                    let class = class as usize;
                    let v = v as usize;
                    let w = class_weight(class);
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
            // Harvest: settled targets carry final distances; anything
            // unsettled was unreachable (the heap drained first) and
            // keeps the INFINITY / empty-path defaults.
            for (tj, &node) in targets.iter().enumerate().skip(first) {
                if sc.done[node] != epoch {
                    continue;
                }
                let idx = i * t + tj;
                sc.pair_dist[idx] = sc.dist[node];
                let start = sc.hops.len() as u32;
                let mut cur = node;
                while cur != src {
                    let (prev, class) = sc.pred[cur];
                    sc.hops.push((prev, cur as u32, class));
                    cur = prev as usize;
                }
                sc.path_span[idx] = (start, sc.hops.len() as u32 - start);
            }
        }
        let bytes = sc.memo_bytes();
        if bytes > sc.memo_high_water_bytes {
            sc.memo_high_water_bytes = bytes;
        }
    }
}

/// Per-shot memo of a [`SparsePathFinder`] search: epoch-stamped
/// Dijkstra arrays (reset in O(touched) between searches) plus the
/// harvested pair-distance table and unrolled path hops. Lives inside
/// [`crate::DecodeScratch`], one per worker thread.
#[derive(Debug, Default)]
pub struct SparsePathScratch {
    /// Current search epoch; an array entry is valid iff its stamp
    /// matches.
    epoch: u32,
    /// Stamp: `dist`/`pred` of this node were written this search.
    seen: Vec<u32>,
    /// Stamp: this node was settled this search.
    done: Vec<u32>,
    /// Stamp: this node is a needed target of this search.
    target: Vec<u32>,
    dist: Vec<f64>,
    pred: Vec<(u32, u32)>,
    heap: BinaryHeap<HeapItem>,
    /// Width of the harvested pair tables.
    num_targets: usize,
    /// Row-major `sources × targets` distances (`INFINITY` = not
    /// searched or unreachable).
    pair_dist: Vec<f64>,
    /// Row-major `(start, len)` spans into `hops` per pair.
    path_span: Vec<(u32, u32)>,
    /// Unrolled `(prev, cur, class)` path hops in dst→src walk order.
    hops: Vec<(u32, u32, u32)>,
    /// Largest `memo_bytes()` any single search has reached — the
    /// steady-state capacity the pool converges to after warmup.
    memo_high_water_bytes: usize,
}

impl SparsePathScratch {
    /// Creates an empty scratch; arrays size themselves on first use.
    pub fn new() -> Self {
        SparsePathScratch::default()
    }

    fn ensure(&mut self, n: usize) {
        if self.seen.len() < n {
            self.seen.resize(n, 0);
            self.done.resize(n, 0);
            self.target.resize(n, 0);
            self.dist.resize(n, 0.0);
            self.pred.resize(n, (u32::MAX, u32::MAX));
        }
    }

    /// Advances to a fresh epoch, invalidating every stamped entry in
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

    /// Harvested distance from source index `source` to target index
    /// `target` of the last search (`INFINITY` = unreachable, or a
    /// pair the search shape skipped).
    #[inline]
    pub fn dist(&self, source: usize, target: usize) -> f64 {
        self.pair_dist[source * self.num_targets + target]
    }

    /// Harvested `(prev, cur, class)` hops of the shortest path for
    /// the pair, in dst→src walk order — exactly the sequence a
    /// predecessor-chain walk of the full Dijkstra would visit.
    #[inline]
    pub fn path(&self, source: usize, target: usize) -> &[(u32, u32, u32)] {
        let (start, len) = self.path_span[source * self.num_targets + target];
        &self.hops[start as usize..(start + len) as usize]
    }

    /// Current footprint of the harvested per-shot path index in bytes
    /// (pair table + spans + hops) — the O(defects · targets) memo,
    /// reported by `qec-bench` against the dense oracle's would-be
    /// O(V²).
    pub fn memo_bytes(&self) -> usize {
        self.pair_dist.len() * std::mem::size_of::<f64>()
            + self.path_span.len() * std::mem::size_of::<(u32, u32)>()
            + self.hops.len() * std::mem::size_of::<(u32, u32, u32)>()
    }

    /// High-water mark of [`Self::memo_bytes`] across every search this
    /// scratch has served. Flat after warmup: repeated decodes of the
    /// same workload must not regrow the memo (pinned by a regression
    /// test), so this is a true steady-state footprint gauge.
    pub fn memo_high_water_bytes(&self) -> usize {
        self.memo_high_water_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph 0 - 1 - 2 with distinct classes, plus an isolated
    /// node 3.
    fn path_graph() -> (Vec<Vec<(usize, usize)>>, Vec<f64>) {
        let adjacency = vec![vec![(1, 0)], vec![(0, 0), (2, 1)], vec![(1, 1)], Vec::new()];
        (adjacency, vec![1.0, 2.0])
    }

    #[test]
    fn oracle_rows_equal_on_demand_runs() {
        let (adjacency, weights) = path_graph();
        let oracle = PathOracle::build(&adjacency, &weights, 2);
        assert_eq!(oracle.num_nodes(), 4);
        for src in 0..4 {
            let (dist, pred) = shortest_paths_from(&adjacency, &weights, src);
            for dst in 0..4 {
                assert_eq!(
                    oracle.dist(src, dst).to_bits(),
                    dist[dst].to_bits(),
                    "dist[{src}][{dst}]"
                );
                assert_eq!(oracle.pred(src, dst), pred[dst], "pred[{src}][{dst}]");
            }
        }
    }

    #[test]
    fn unreachable_nodes_are_marked() {
        let (adjacency, weights) = path_graph();
        let oracle = PathOracle::build(&adjacency, &weights, 1);
        assert!(oracle.dist(0, 3).is_infinite());
        assert_eq!(oracle.pred(0, 3), (usize::MAX, usize::MAX));
        assert_eq!(oracle.pred(0, 0), (usize::MAX, usize::MAX));
    }

    #[test]
    fn thread_count_does_not_change_the_matrix() {
        let (adjacency, weights) = path_graph();
        let one = PathOracle::build(&adjacency, &weights, 1);
        for threads in [2, 3, 8] {
            let multi = PathOracle::build(&adjacency, &weights, threads);
            for src in 0..4 {
                for dst in 0..4 {
                    assert_eq!(one.dist(src, dst).to_bits(), multi.dist(src, dst).to_bits());
                    assert_eq!(one.pred(src, dst), multi.pred(src, dst));
                }
            }
        }
    }

    #[test]
    fn empty_graph_builds() {
        let oracle = PathOracle::build(&[], &[], 4);
        assert_eq!(oracle.num_nodes(), 0);
        assert_eq!(oracle.memory_bytes(), 0);
    }

    #[test]
    fn path_unrolls_through_pred() {
        let (adjacency, weights) = path_graph();
        let oracle = PathOracle::build(&adjacency, &weights, 1);
        // Walk 2 -> 0 from source 0, collecting classes.
        let mut classes = Vec::new();
        let mut cur = 2;
        while cur != 0 {
            let (prev, class) = oracle.pred(0, cur);
            classes.push(class);
            cur = prev;
        }
        assert_eq!(classes, vec![1, 0]);
        let expected = weights[0] + weights[1] + 2.0 * 1e-6 + (0.0 + 1.0) * 1e-9;
        assert!((oracle.dist(0, 2) - expected).abs() < 1e-12);
    }

    #[test]
    fn sparse_finder_matches_on_demand_dijkstra_bitwise() {
        let (adjacency, weights) = path_graph();
        let finder = SparsePathFinder::build(&adjacency, weights.clone());
        assert_eq!(finder.num_nodes(), 4);
        let all: Vec<usize> = (0..4).collect();
        let mut sc = SparsePathScratch::new();
        finder.all_paths_into(&all, &all, |c| weights[c], &mut sc);
        for src in 0..4 {
            let (dist, pred) = shortest_paths_from(&adjacency, &weights, src);
            for (dst, &full_dist) in dist.iter().enumerate() {
                assert_eq!(
                    sc.dist(src, dst).to_bits(),
                    full_dist.to_bits(),
                    "sparse dist[{src}][{dst}]"
                );
                // The harvested hops replay the pred-chain walk.
                let mut cur = dst;
                for &(prev, hop_cur, class) in sc.path(src, dst) {
                    assert_eq!(hop_cur as usize, cur);
                    assert_eq!(pred[cur], (prev as usize, class as usize));
                    cur = prev as usize;
                }
                if full_dist.is_finite() {
                    assert_eq!(cur, src, "path must reach the source");
                } else {
                    assert!(sc.path(src, dst).is_empty());
                }
            }
        }
    }

    #[test]
    fn matching_shape_skips_the_lower_triangle() {
        let (adjacency, weights) = path_graph();
        let finder = SparsePathFinder::build(&adjacency, weights.clone());
        let nodes = [0usize, 1, 2];
        let mut sc = SparsePathScratch::new();
        finder.matching_paths_into(&nodes, &nodes, |c| weights[c], &mut sc);
        // Upper triangle is exact…
        let (dist0, _) = shortest_paths_from(&adjacency, &weights, 0);
        assert_eq!(sc.dist(0, 1).to_bits(), dist0[1].to_bits());
        assert_eq!(sc.dist(0, 2).to_bits(), dist0[2].to_bits());
        // …the diagonal and below were never searched.
        assert!(sc.dist(1, 0).is_infinite());
        assert!(sc.dist(2, 2).is_infinite());
        assert!(sc.path(1, 0).is_empty());
    }

    #[test]
    fn sparse_finder_reprice_changes_base_weights_only() {
        let (adjacency, weights) = path_graph();
        let mut finder = SparsePathFinder::build(&adjacency, weights);
        let new_weights = vec![3.0, 0.5];
        finder.reprice(&new_weights);
        let all: Vec<usize> = (0..4).collect();
        let mut sc = SparsePathScratch::new();
        finder.all_paths_into(&all, &all, |c| finder.class_weights()[c], &mut sc);
        let (dist, _) = shortest_paths_from(&adjacency, &new_weights, 0);
        for (dst, &full_dist) in dist.iter().enumerate() {
            assert_eq!(sc.dist(0, dst).to_bits(), full_dist.to_bits());
        }
    }

    #[test]
    fn oracle_reprice_is_bitwise_equal_to_fresh_build() {
        let (adjacency, weights) = path_graph();
        let mut oracle = PathOracle::build(&adjacency, &weights, 2);
        let new_weights = vec![0.25, 7.5];
        oracle.reprice(&adjacency, &new_weights, 3);
        let fresh = PathOracle::build(&adjacency, &new_weights, 1);
        for src in 0..4 {
            for dst in 0..4 {
                assert_eq!(
                    oracle.dist(src, dst).to_bits(),
                    fresh.dist(src, dst).to_bits()
                );
                assert_eq!(oracle.pred(src, dst), fresh.pred(src, dst));
            }
        }
    }
}
