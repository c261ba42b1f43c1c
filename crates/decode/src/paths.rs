//! Shared shortest-path machinery for the matching decoders' two path
//! tiers: the all-sources [`PathOracle`] precomputed once per decoding
//! graph, the [`SparsePathFinder`]'s CSR index that
//! [`crate::sparse_graph_match`] searches, and the single-source
//! Dijkstra the oracle is built from (also the tests' reference search).
//!
//! PyMatching-class decoders get their speed by paying the path-search
//! cost once per matching graph, not once per shot per defect. The
//! oracle does the same here: at decoder construction every source runs
//! one Dijkstra (parallelized across sources, bit-identical for any
//! thread count because rows are independent), and the resulting
//! `dist` matrix plus per-source predecessor trees answer defect-pair
//! weight queries and unroll correction paths in O(1) per hop at decode
//! time. Storage is O(V²), so graphs above a configurable node limit —
//! and shots the flag-free matrix cannot price — are matched on the
//! sparse finder's CSR graph instead.

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
/// the searches on the [`SparsePathFinder`]'s CSR graph under the same
/// class weights.
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
        let mut dist = vec![f64::INFINITY; n * n];
        let mut pred = vec![(u32::MAX, u32::MAX); n * n];
        if n > 0 {
            assert!(n <= u32::MAX as usize, "node indices must fit in u32");
            let rows_per_chunk = n.div_ceil(threads.clamp(1, n));
            std::thread::scope(|scope| {
                for (chunk, (dist_chunk, pred_chunk)) in dist
                    .chunks_mut(rows_per_chunk * n)
                    .zip(pred.chunks_mut(rows_per_chunk * n))
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
        PathOracle { n, dist, pred }
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

/// The CSR decoding graph — the path tier that serves decoding graphs
/// above the [`PathOracle`] node limit and every flag-reweighted shot.
///
/// Instead of precomputing all V² pairs, the finder stores only the
/// graph in CSR form — O(V + E) — and the flag-free class weights.
/// [`crate::sparse_graph_match`] grows truncated Dijkstra regions from
/// each shot's defects over it, relaxing edges through the same
/// deterministic tie-break as the oracle, so its distances are **bitwise** equal
/// to a full run's. Searches are priced per shot through a per-class
/// weight slice, so unlike the dense oracle the finder also serves
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
    /// for flag-free shots.
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
    /// solver's searches walk this index).
    pub(crate) fn csr_offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The frozen CSR `(neighbor, class)` cells, in adjacency
    /// enumeration order (relaxation order is part of the bitwise
    /// contract every consumer of this index shares).
    pub(crate) fn csr_edges(&self) -> &[(u32, u32)] {
        &self.edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse_blossom::{complete_graph_match, SparseBlossomScratch};
    use crate::BlossomScratch;

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

    /// Every pair of `checks` priced on `finder`'s CSR graph by the
    /// complete-pricing reference, left in its scratch.
    fn csr_pairs(finder: &SparsePathFinder, checks: &[usize]) -> SparseBlossomScratch {
        let weights = finder.class_weights();
        let mut sc = SparseBlossomScratch::new();
        let (mut blossom, mut pairs) = (BlossomScratch::new(), Vec::new());
        complete_graph_match(
            finder,
            checks,
            None,
            weights,
            &mut sc,
            &mut blossom,
            &mut pairs,
        );
        sc
    }

    #[test]
    fn sparse_finder_matches_on_demand_dijkstra_bitwise() {
        let (adjacency, weights) = path_graph();
        let finder = SparsePathFinder::build(&adjacency, weights.clone());
        assert_eq!(finder.num_nodes(), 4);
        let sc = csr_pairs(&finder, &[0, 1, 2, 3]);
        for src in 0..4 {
            let (dist, pred) = shortest_paths_from(&adjacency, &weights, src);
            for (dst, &full_dist) in dist.iter().enumerate().skip(src + 1) {
                assert_eq!(
                    sc.pair_dist(src, dst).to_bits(),
                    full_dist.to_bits(),
                    "sparse dist[{src}][{dst}]"
                );
                // The harvested hops replay the pred-chain walk.
                let mut cur = dst;
                for &(prev, hop_cur, class) in sc.pair_hops(src, dst) {
                    assert_eq!(hop_cur as usize, cur);
                    assert_eq!(pred[cur], (prev as usize, class as usize));
                    cur = prev as usize;
                }
                if full_dist.is_finite() {
                    assert_eq!(cur, src, "path must reach the source");
                } else {
                    assert!(sc.pair_hops(src, dst).is_empty());
                }
            }
        }
    }

    #[test]
    fn csr_pricing_skips_the_lower_triangle() {
        let (adjacency, weights) = path_graph();
        let finder = SparsePathFinder::build(&adjacency, weights.clone());
        let sc = csr_pairs(&finder, &[0, 1, 2]);
        // Upper triangle is exact…
        let (dist0, _) = shortest_paths_from(&adjacency, &weights, 0);
        assert_eq!(sc.pair_dist(0, 1).to_bits(), dist0[1].to_bits());
        assert_eq!(sc.pair_dist(0, 2).to_bits(), dist0[2].to_bits());
        // …the diagonal and below were never searched.
        assert!(sc.pair_dist(1, 0).is_infinite());
        assert!(sc.pair_dist(2, 2).is_infinite());
        assert!(sc.pair_hops(1, 0).is_empty());
    }
}
