//! The matching engine both matching decoders share: one decoding
//! graph with its path supply, the matching instance, the pooled
//! blossom solve and the unrolling of matched pairs into graph hops.
//!
//! [`crate::MwpmDecoder`] runs one engine over the full decoding graph,
//! with a virtual boundary vertex when the code has one;
//! [`crate::RestrictionDecoder`] runs three, one per restricted lattice,
//! without a boundary. Each shot takes one of two routes, picked by
//! [`MatchingEngine::prices_on_oracle`] from the shot's pricing:
//!
//! * the dense [`PathOracle`] — O(V²), built when V ≤ the node limit —
//!   answers shots priced at the flag-free base weights with the
//!   complete defect-pair instance;
//! * every other shot (graphs above the limit, flag-reweighted shots)
//!   is matched on the CSR [`SparsePathFinder`] — O(V+E), always built —
//!   by [`sparse_graph_match`]: it prices nearest neighbours and
//!   certifies the result against every omitted pair, and with at most
//!   `DISCOVERY_NEIGHBORS + 1` defects prices every pair and solves the
//!   complete instance outright.
//!
//! Both routes relax edges through the same formula, so the route
//! decides where a distance comes from, never its value, and both reach
//! the same total matching weight.

use crate::blossom::pooled_min_weight_perfect_matching_f64;
use crate::hypergraph::DecodingHypergraph;
use crate::paths::{self, PathOracle, SparsePathFinder};
use crate::scratch::MatchingCounters;
use crate::sparse_blossom::{discovery_is_complete, sparse_graph_match};
use qec_math::BitVec;
use qec_obs::Registry;
use std::collections::HashMap;

/// Edges costlier than this are treated as unusable.
const UNREACHABLE: f64 = 1.0e8;

/// How one shot prices the graph's edges.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Pricing<'a> {
    /// The flag-free base class weights the engine was built with.
    Base,
    /// The shot's effective per-class weights (flag-reweighted).
    Shot(&'a [f64]),
}

/// The flag-conditioned class pricing of the matching decoders and of
/// [`crate::BpOsdDecoder`] (§VI-B): every class is represented by one member, chosen against
/// the shot's raised flags, and each raised flag costs `-ln p_M` on
/// every class whose representative does not explain it.
#[derive(Debug)]
pub(crate) struct ClassPricing {
    flag_conditioning: bool,
    /// `-ln p_M`, the price of one flag measurement mismatch.
    minus_ln_pm: f64,
    /// `(member, weight)` per class with no flags raised.
    base: Vec<(usize, f64)>,
}

impl ClassPricing {
    /// Prices `hypergraph`'s classes for flag-free shots; without flag
    /// conditioning every class keeps its unflagged representative.
    pub(crate) fn new(hypergraph: &DecodingHypergraph, flag_conditioning: bool, p_m: f64) -> Self {
        let minus_ln_pm = -p_m.clamp(1e-12, 1.0 - 1e-12).ln();
        let no_flags = BitVec::zeros(hypergraph.num_flag_detectors());
        let base = hypergraph
            .classes()
            .iter()
            .map(|c| {
                if flag_conditioning {
                    c.representative(&no_flags, minus_ln_pm)
                } else {
                    c.representative_unflagged()
                }
            })
            .collect();
        ClassPricing {
            flag_conditioning,
            minus_ln_pm,
            base,
        }
    }

    /// The flag-free weight of every class.
    pub(crate) fn base_weights(&self) -> Vec<f64> {
        self.base.iter().map(|&(_, w)| w).collect()
    }

    /// The `(member, weight)` a shot applies for `class`: its flag
    /// override when it has one, the flag-free choice otherwise.
    pub(crate) fn member(
        &self,
        class: usize,
        overrides: &HashMap<usize, (usize, f64)>,
    ) -> (usize, f64) {
        overrides.get(&class).copied().unwrap_or(self.base[class])
    }

    /// Prices one shot raising `flags`: re-chooses the representative
    /// of every class touching a raised flag into `overrides`, and
    /// returns [`Pricing::Base`] when nothing changed, or the shot's
    /// per-class weights resolved into `weights` — the flag-free
    /// weight plus the global mismatch constant, or the override.
    pub(crate) fn price_shot<'w>(
        &self,
        hypergraph: &DecodingHypergraph,
        flags: &BitVec,
        overrides: &mut HashMap<usize, (usize, f64)>,
        weights: &'w mut Vec<f64>,
    ) -> Pricing<'w> {
        overrides.clear();
        if !self.flag_conditioning || flags.is_zero() {
            return Pricing::Base;
        }
        for f in flags.iter_ones() {
            for &class in hypergraph.classes_with_flag(f) {
                overrides.entry(class).or_insert_with(|| {
                    hypergraph.classes()[class].representative(flags, self.minus_ln_pm)
                });
            }
        }
        let flag_constant = flags.weight() as f64 * self.minus_ln_pm;
        weights.clear();
        weights.extend(self.base.iter().map(|&(_, w)| w + flag_constant));
        for (&class, &(_, w)) in overrides.iter() {
            weights[class] = w;
        }
        Pricing::Shot(weights)
    }
}

/// One decoding graph and everything needed to match defects on it.
#[derive(Debug)]
pub(crate) struct MatchingEngine {
    /// The virtual boundary vertex, when the graph has one.
    boundary: Option<usize>,
    oracle: Option<PathOracle>,
    /// `None` only for a graph without vertices.
    sparse: Option<SparsePathFinder>,
    /// Test-only: match CSR-priced shots with
    /// [`crate::sparse_blossom::complete_graph_match`].
    #[cfg(test)]
    complete_pricing: bool,
}

/// Per-worker work arrays of [`MatchingEngine::solve`], reused across
/// shots and across the engines of one decoder.
#[derive(Debug, Default)]
pub(crate) struct EngineScratch {
    /// Pooled incremental blossom solver state.
    pub(crate) blossom: crate::blossom::BlossomScratch,
    /// Graph-native sparse blossom state: the CSR route's pair memo.
    pub(crate) sparse_blossom: crate::sparse_blossom::SparseBlossomScratch,
    /// Defect vertices, then the boundary when present.
    targets: Vec<usize>,
    edges: Vec<(usize, usize, f64)>,
    /// Matched pairs, in `Matching::pairs` order (u < v, ascending u).
    pairs: Vec<(usize, usize)>,
}

/// The target index matched pair `(a, b)` unrolls to — `b` for a defect
/// pair, `s` (the boundary) for a defect and its own boundary copy —
/// or `None` for a pair of boundary copies.
fn pair_target(a: usize, b: usize, s: usize) -> Option<usize> {
    if a >= s {
        None
    } else if b < s {
        Some(b)
    } else if b == s + a {
        Some(s)
    } else {
        None
    }
}

impl MatchingEngine {
    /// Builds the path indexes over `adjacency` priced by
    /// `class_weights`. `lattice` names the restricted lattice the
    /// engine serves: it suffixes the build gauges (`build.oracle.l0.*`)
    /// and tags the build spans.
    pub(crate) fn build(
        adjacency: &[Vec<(usize, usize)>],
        class_weights: Vec<f64>,
        boundary: Option<usize>,
        oracle_node_limit: usize,
        metrics: &Registry,
        lattice: Option<usize>,
    ) -> Self {
        let n = adjacency.len();
        let suffix = lattice.map_or(String::new(), |li| format!(".l{li}"));
        let gauges = |kind: &str, nodes: usize, bytes: usize| {
            metrics
                .gauge(&format!("build.{kind}{suffix}.nodes"))
                .set(nodes as u64);
            metrics
                .gauge(&format!("build.{kind}{suffix}.bytes"))
                .set(bytes as u64);
        };
        let span = |name: &str| match lattice {
            Some(li) => qec_obs::span_with(name, &[("nodes", n.into()), ("lattice", li.into())]),
            None => qec_obs::span_with(name, &[("nodes", n.into())]),
        };
        let oracle = (n > 0 && n <= oracle_node_limit).then(|| {
            let _span = span("decoder.build.oracle");
            let oracle =
                PathOracle::build(adjacency, &class_weights, paths::default_build_threads(n));
            gauges("oracle", oracle.num_nodes(), oracle.memory_bytes());
            oracle
        });
        let sparse = (n > 0).then(|| {
            let _span = span("decoder.build.csr");
            let sparse = SparsePathFinder::build(adjacency, class_weights);
            gauges("sparse", sparse.num_nodes(), sparse.memory_bytes());
            sparse
        });
        MatchingEngine {
            boundary,
            oracle,
            sparse,
            #[cfg(test)]
            complete_pricing: false,
        }
    }

    /// The dense oracle, when the graph fits the node limit.
    pub(crate) fn oracle(&self) -> Option<&PathOracle> {
        self.oracle.as_ref()
    }

    /// The CSR path finder, absent only for a graph without vertices.
    pub(crate) fn sparse(&self) -> Option<&SparsePathFinder> {
        self.sparse.as_ref()
    }

    /// Whether a shot priced by `pricing` is matched on the dense
    /// oracle: it must exist and the shot must carry the flag-free base
    /// weights. Every other shot is matched on the CSR graph.
    pub(crate) fn prices_on_oracle(&self, pricing: Pricing) -> bool {
        self.oracle.is_some() && matches!(pricing, Pricing::Base)
    }

    /// Matches every CSR-priced shot on its complete instance, so tests
    /// can compare the graph-native route against it on the same shots.
    #[cfg(test)]
    pub(crate) fn force_complete_pricing(&mut self) {
        self.complete_pricing = true;
    }

    /// Matches `defects` (graph vertices, each once) under `pricing` and
    /// feeds every hop of every matched path to `sink` as
    /// `(prev, cur, class)`, walking each path from its far end back to
    /// its source defect. Returns the total matching weight in `1<<20`
    /// fixed-point units — the same on every route — or `None` when no
    /// perfect matching exists (the shot is given up and `sink` is never
    /// called).
    pub(crate) fn solve(
        &self,
        defects: &[usize],
        pricing: Pricing,
        sc: &mut EngineScratch,
        counters: &MatchingCounters,
        mut sink: impl FnMut(usize, usize, usize),
    ) -> Option<i64> {
        let s = defects.len();
        if s == 0 {
            return Some(0);
        }
        let sp = self.sparse.as_ref()?;
        let EngineScratch {
            blossom,
            sparse_blossom,
            targets,
            edges,
            pairs,
        } = sc;
        let Some(oracle) = self
            .oracle
            .as_ref()
            .filter(|_| self.prices_on_oracle(pricing))
        else {
            let weights = match pricing {
                Pricing::Base => sp.class_weights(),
                Pricing::Shot(w) => w,
            };
            let complete = discovery_is_complete(s);
            if complete {
                counters.blossom_solves.inc();
            }
            let route = match () {
                #[cfg(test)]
                () if self.complete_pricing => crate::sparse_blossom::complete_graph_match,
                () => sparse_graph_match,
            };
            let outcome = route(
                sp,
                defects,
                self.boundary,
                weights,
                sparse_blossom,
                blossom,
                pairs,
            )?;
            if !complete {
                counters.sparse_blossom_rounds.record(outcome.rounds as u64);
                counters
                    .sparse_blossom_edges
                    .record(outcome.candidate_edges as u64);
            }
            for &(a, b) in pairs.iter() {
                if let Some(tj) = pair_target(a, b, s) {
                    for &(prev, cur, class) in sparse_blossom.pair_hops(a, tj) {
                        sink(prev as usize, cur as usize, class as usize);
                    }
                }
            }
            return Some(outcome.weight);
        };
        // Complete instance: defects 0..s, boundary copies s..2s when
        // the graph has a boundary. Target `tj` is defect `tj`, or the
        // boundary at `tj == s`.
        targets.clear();
        targets.extend_from_slice(defects);
        targets.extend(self.boundary);
        let pair_dist = |i: usize, tj: usize| oracle.dist(defects[i], targets[tj]);
        let has_boundary = self.boundary.is_some();
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
        if has_boundary {
            for i in 0..s {
                for j in (i + 1)..s {
                    edges.push((s + i, s + j, 0.0));
                }
            }
        }
        let nodes = if has_boundary { 2 * s } else { s };
        counters.blossom_solves.inc();
        pairs.clear();
        let matching = pooled_min_weight_perfect_matching_f64(nodes, edges, blossom)?;
        let weight = matching.weight();
        pairs.extend(matching.pairs());
        for &(a, b) in pairs.iter() {
            let Some(tj) = pair_target(a, b, s) else {
                continue;
            };
            let src = defects[a];
            let mut cur = targets[tj];
            while cur != src {
                let (prev, class) = oracle.pred(src, cur);
                debug_assert_ne!(prev, usize::MAX, "matched path must exist");
                sink(prev, cur, class);
                cur = prev;
            }
        }
        Some(weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_with(
        adjacency: &[Vec<(usize, usize)>],
        boundary: Option<usize>,
        limit: usize,
    ) -> MatchingEngine {
        let classes = adjacency.iter().flatten().map(|&(_, c)| c + 1).max();
        let weights = (0..classes.unwrap_or(0))
            .map(|c| 1.0 + (c % 3) as f64 * 0.25)
            .collect();
        MatchingEngine::build(adjacency, weights, boundary, limit, &Registry::new(), None)
    }

    fn engine(adjacency: &[Vec<(usize, usize)>], limit: usize) -> MatchingEngine {
        engine_with(adjacency, None, limit)
    }

    /// A ring of `n` vertices, edge `i → i+1` in class `i`.
    fn ring(n: usize) -> Vec<Vec<(usize, usize)>> {
        let mut adjacency = vec![Vec::new(); n];
        for a in 0..n {
            let b = (a + 1) % n;
            adjacency[a].push((b, a));
            adjacency[b].push((a, a));
        }
        adjacency
    }

    /// Runs `e.solve` and collects the hops it emits.
    fn run(
        e: &MatchingEngine,
        defects: &[usize],
        pricing: Pricing,
        sc: &mut EngineScratch,
    ) -> (Option<i64>, Vec<(usize, usize, usize)>) {
        let counters = MatchingCounters::register(&Registry::new());
        let mut hops = Vec::new();
        let weight = e.solve(defects, pricing, sc, &counters, |p, c, k| {
            hops.push((p, c, k))
        });
        (weight, hops)
    }

    /// Vertices without edges: two defects can never be paired, and
    /// both tiers give up instead of panicking or emitting hops.
    #[test]
    fn edgeless_graph_gives_up_cleanly() {
        let mut sc = EngineScratch::default();
        for limit in [1024, 0] {
            let e = engine(&vec![Vec::new(); 3], limit);
            assert_eq!(e.oracle().is_some(), limit > 0);
            assert_eq!(run(&e, &[0, 2], Pricing::Base, &mut sc), (None, vec![]));
            assert_eq!(run(&e, &[1], Pricing::Base, &mut sc), (None, vec![]));
            assert_eq!(run(&e, &[], Pricing::Base, &mut sc), (Some(0), vec![]));
        }
    }

    /// A graph without vertices builds no index and matches nothing.
    #[test]
    fn empty_graph_builds_no_index() {
        let e = engine(&[], 1024);
        assert!(e.oracle().is_none() && e.sparse().is_none());
        let mut sc = EngineScratch::default();
        assert_eq!(run(&e, &[], Pricing::Base, &mut sc), (Some(0), vec![]));
    }

    /// Both routes unroll the same hops in the same order, and a shot
    /// priced per shot always takes the CSR graph.
    #[test]
    fn routes_emit_identical_hops() {
        // Path 0 - 1 - 2 - 3, classes 0..3.
        let adjacency = vec![
            vec![(1, 0)],
            vec![(0, 0), (2, 1)],
            vec![(1, 1), (3, 2)],
            vec![(2, 2)],
        ];
        let dense = engine(&adjacency, 1024);
        let sparse = engine(&adjacency, 0);
        let mut sc = EngineScratch::default();
        let expected = vec![(2, 3, 2), (1, 2, 1), (0, 1, 0)];
        let shot = [1.0, 1.25, 1.5];
        assert!(dense.prices_on_oracle(Pricing::Base));
        assert!(!sparse.prices_on_oracle(Pricing::Base));
        assert!(!dense.prices_on_oracle(Pricing::Shot(&shot)));
        let mut weights = Vec::new();
        for (e, pricing) in [
            (&dense, Pricing::Base),
            (&sparse, Pricing::Base),
            (&dense, Pricing::Shot(&shot)),
        ] {
            let (weight, hops) = run(e, &[0, 3], pricing, &mut sc);
            assert_eq!(hops, expected);
            weights.push(weight.expect("path graph matches"));
        }
        assert!(weights.iter().all(|&w| w == weights[0] && w > 0));
    }

    /// The route rule: the oracle whenever it can price the shot, the
    /// CSR graph otherwise, at any defect count.
    #[test]
    fn route_follows_pricing() {
        let dense = engine(&ring(8), 1024);
        let sparse = engine(&ring(8), 0);
        let shot = [1.0; 8];
        assert!(dense.prices_on_oracle(Pricing::Base));
        assert!(!dense.prices_on_oracle(Pricing::Shot(&shot)));
        assert!(!sparse.prices_on_oracle(Pricing::Base));
        assert!(!sparse.prices_on_oracle(Pricing::Shot(&shot)));
    }

    /// The last defect count discovery prices completely and the first
    /// it truncates, on a ring with a boundary: the CSR route reaches the
    /// oracle's and the complete instance's weight with the same hops.
    #[test]
    fn csr_route_matches_the_complete_instance_around_the_discovery_quota() {
        use crate::sparse_blossom::DISCOVERY_NEIGHBORS;
        let mut adjacency = ring(12);
        let hub = adjacency.len();
        adjacency.push(Vec::new());
        for (class, v) in [(12, 0), (13, 6)] {
            adjacency[v].push((hub, class));
            adjacency[hub].push((v, class));
        }
        let oracle = engine_with(&adjacency, Some(hub), 1024);
        let routed = engine_with(&adjacency, Some(hub), 0);
        let mut complete = engine_with(&adjacency, Some(hub), 0);
        complete.force_complete_pricing();
        let mut sc = EngineScratch::default();
        for (extra, defects) in [&[1, 4, 8, 10][..], &[1, 3, 4, 8, 10]]
            .into_iter()
            .enumerate()
        {
            assert_eq!(defects.len(), DISCOVERY_NEIGHBORS + 1 + extra);
            let reference = run(&oracle, defects, Pricing::Base, &mut sc);
            assert!(reference.0.is_some() && !reference.1.is_empty());
            assert_eq!(run(&routed, defects, Pricing::Base, &mut sc), reference);
            assert_eq!(run(&complete, defects, Pricing::Base, &mut sc), reference);
        }
    }
}
