//! The matching engine both matching decoders share: one decoding
//! graph with its path supply, the matching instance, its solve and
//! the unrolling of matched pairs into graph hops.
//!
//! [`crate::MwpmDecoder`] runs one engine over the full decoding graph,
//! with a virtual boundary vertex when the code has one;
//! [`crate::RestrictionDecoder`] runs three, one per restricted lattice,
//! without a boundary. [`MatchingEngine::route`] picks each shot's
//! [`Route`]; the rule lives there alone, and both decoders count their
//! tiers from it.
//!
//! The oracle route solves the complete defect-pair instance. One of
//! at most 4 defects is first solved by enumeration
//! ([`enumerate_small_matching`]): it has at most 10 defect-level
//! perfect matchings, and a unique cheapest one, scored in the
//! blossom's fixed-point integers, is the matching any exact solver
//! returns. Only ties and larger instances reach the pooled blossom
//! solver (`decode.tier.blossom`); the rest count in
//! `decode.tier.enumerated`. The grown route matches on the CSR graph
//! at every defect count.
//!
//! Both routes relax edges through the same formula, so the route
//! decides where a distance comes from, never its value, and both reach
//! the same total matching weight.

use crate::blossom::{pooled_min_weight_perfect_matching_f64, BlossomScratch};
use crate::hypergraph::DecodingHypergraph;
use crate::paths::{self, PathOracle, SparsePathFinder};
use crate::scratch::MatchingCounters;
use crate::sparse_blossom::{
    complete_instance, enumerate_small_matching, sparse_graph_match, Enumeration,
    SparseBlossomScratch,
};
use qec_math::BitVec;
use qec_obs::Registry;

/// How one shot prices the graph's edges.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Pricing<'a> {
    /// The flag-free base class weights the engine was built with.
    Base,
    /// The shot's effective per-class weights (flag-reweighted).
    Shot(&'a [f64]),
}

/// The flag-conditioned class pricing of every decoder: the matching
/// decoders, [`crate::BpOsdDecoder`] and [`crate::UnionFindDecoder`]
/// (§VI-B). Every class is represented by one member, chosen against
/// the shot's raised flags, and each raised flag costs `-ln p_M` on
/// every class whose representative does not explain it.
///
/// With flag conditioning the classes' members are laid out flat, once
/// at construction: class `c` owns the member run
/// `members[class_start[c]..class_start[c + 1]]`, and each member its
/// flags as a span of `member_flags`. A flagged shot re-chooses the
/// representative of every class touching a raised flag by walking
/// those runs, with the same expression in the same order as
/// [`crate::EquivClass::representative`], so the choice and its weight
/// are bitwise that reference's.
#[derive(Debug)]
pub(crate) struct ClassPricing {
    flag_conditioning: bool,
    /// `-ln p_M`, the price of one flag measurement mismatch.
    minus_ln_pm: f64,
    /// `(member, weight)` per class with no flags raised.
    base: Vec<(usize, f64)>,
    /// Offsets of each class's run in `members` (flag conditioning
    /// only; empty otherwise).
    class_start: Vec<u32>,
    /// Every class's members, class by class in member order.
    members: Vec<FlatMember>,
    /// Every member's flag bits, member by member.
    member_flags: Vec<u32>,
}

/// One class member in [`ClassPricing`]'s flat table: its base cost
/// and its span of `member_flags`.
#[derive(Debug, Clone, Copy)]
struct FlatMember {
    cost: f64,
    flags_start: u32,
    flags_len: u32,
}

/// One shot's flag overrides of the [`ClassPricing`] choice, held in a
/// dense slot per class: a slot is live iff its stamp equals the
/// current epoch, so starting a shot invalidates the last shot's
/// overrides in O(1), and the classes overridden this shot are listed
/// in `touched`.
#[derive(Debug, Default)]
pub(crate) struct ClassOverrides {
    /// Current shot epoch; a slot is live iff its stamp matches.
    epoch: u32,
    slots: Vec<OverrideSlot>,
    /// Classes overridden this shot, in first-touch order.
    touched: Vec<u32>,
}

/// One class's override: the stamp and the choice share a slot, so a
/// lookup touches one cache line.
#[derive(Debug, Clone, Copy, Default)]
struct OverrideSlot {
    stamp: u32,
    member: u32,
    weight: f64,
}

impl ClassOverrides {
    /// Starts a shot over `classes` classes with no override live.
    fn begin(&mut self, classes: usize) {
        if self.slots.len() < classes {
            self.slots.resize(classes, OverrideSlot::default());
        }
        if self.epoch == u32::MAX {
            self.slots.iter_mut().for_each(|slot| slot.stamp = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.touched.clear();
    }

    /// The override of `class` this shot, if it has one. A shot with
    /// no override (every unflagged shot) never reads the slots.
    fn get(&self, class: usize) -> Option<(usize, f64)> {
        if self.touched.is_empty() {
            return None;
        }
        let slot = self.slots[class];
        (slot.stamp == self.epoch).then_some((slot.member as usize, slot.weight))
    }
}

impl ClassPricing {
    /// Prices `hypergraph`'s classes for flag-free shots; without flag
    /// conditioning every class keeps its unflagged representative.
    pub(crate) fn new(hypergraph: &DecodingHypergraph, flag_conditioning: bool, p_m: f64) -> Self {
        let minus_ln_pm = -p_m.clamp(1e-12, 1.0 - 1e-12).ln();
        let mut pricing = ClassPricing {
            flag_conditioning,
            minus_ln_pm,
            base: Vec::new(),
            class_start: Vec::new(),
            members: Vec::new(),
            member_flags: Vec::new(),
        };
        let classes = hypergraph.classes();
        if !flag_conditioning {
            pricing.base = classes
                .iter()
                .map(|c| c.representative_unflagged())
                .collect();
            return pricing;
        }
        pricing.class_start.reserve(classes.len() + 1);
        pricing.class_start.push(0);
        for class in classes {
            for m in &class.members {
                pricing.members.push(FlatMember {
                    cost: m.cost,
                    flags_start: pricing.member_flags.len() as u32,
                    flags_len: m.flags.len() as u32,
                });
                pricing.member_flags.extend_from_slice(&m.flags);
            }
            pricing.class_start.push(pricing.members.len() as u32);
        }
        let no_flags = BitVec::zeros(hypergraph.num_flag_detectors());
        pricing.base = (0..classes.len())
            .map(|c| pricing.representative(c, &no_flags, 0))
            .collect();
        pricing
    }

    /// The flag-free weight of every class.
    pub(crate) fn base_weights(&self) -> Vec<f64> {
        self.base.iter().map(|&(_, w)| w).collect()
    }

    /// [`crate::EquivClass::representative`] of `class` over the flat
    /// table, given the raised flags and their count: the first member
    /// of least `cost + |f ⊕ F| · (-ln p_M)`.
    fn representative(&self, class: usize, raised: &BitVec, num_raised: usize) -> (usize, f64) {
        let run = self.class_start[class] as usize..self.class_start[class + 1] as usize;
        let mut best = (0usize, f64::INFINITY);
        for (i, m) in self.members[run].iter().enumerate() {
            let start = m.flags_start as usize;
            let flags = &self.member_flags[start..start + m.flags_len as usize];
            let explained = flags.iter().filter(|&&f| raised.get(f as usize)).count();
            // |f ⊕ F| = (|f| - explained) + (|F| - explained)
            let mismatches = flags.len() + num_raised - 2 * explained;
            let weight = m.cost + mismatches as f64 * self.minus_ln_pm;
            if weight < best.1 {
                best = (i, weight);
            }
        }
        best
    }

    /// The `(member, weight)` a shot applies for `class`: its flag
    /// override when it has one, the flag-free choice otherwise.
    pub(crate) fn member(&self, class: usize, overrides: &ClassOverrides) -> (usize, f64) {
        overrides.get(class).unwrap_or(self.base[class])
    }

    /// Starts a shot raising `flags`: re-chooses the representative of
    /// every class touching a raised flag into `overrides`, and returns
    /// the number of raised flags it priced (0 without flag
    /// conditioning).
    pub(crate) fn override_shot(
        &self,
        hypergraph: &DecodingHypergraph,
        flags: &BitVec,
        overrides: &mut ClassOverrides,
    ) -> usize {
        overrides.begin(self.base.len());
        let num_raised = if self.flag_conditioning {
            flags.weight()
        } else {
            0
        };
        if num_raised == 0 {
            return 0;
        }
        let epoch = overrides.epoch;
        for f in flags.iter_ones() {
            for &class in hypergraph.classes_with_flag(f) {
                let slot = &mut overrides.slots[class];
                if slot.stamp != epoch {
                    let (member, weight) = self.representative(class, flags, num_raised);
                    *slot = OverrideSlot {
                        stamp: epoch,
                        member: member as u32,
                        weight,
                    };
                    overrides.touched.push(class as u32);
                }
            }
        }
        num_raised
    }

    /// Prices one shot raising `flags` through
    /// [`ClassPricing::override_shot`], and returns [`Pricing::Base`]
    /// when nothing changed, or the shot's per-class weights resolved
    /// into `weights` — the flag-free weight plus the global mismatch
    /// constant, or the override.
    pub(crate) fn price_shot<'w>(
        &self,
        hypergraph: &DecodingHypergraph,
        flags: &BitVec,
        overrides: &mut ClassOverrides,
        weights: &'w mut Vec<f64>,
    ) -> Pricing<'w> {
        let num_raised = self.override_shot(hypergraph, flags, overrides);
        if num_raised == 0 {
            return Pricing::Base;
        }
        let flag_constant = num_raised as f64 * self.minus_ln_pm;
        weights.clear();
        weights.extend(self.base.iter().map(|&(_, w)| w + flag_constant));
        for &class in &overrides.touched {
            weights[class as usize] = overrides.slots[class as usize].weight;
        }
        Pricing::Shot(weights)
    }
}

/// How [`MatchingEngine::solve`] matches one shot, picked by
/// [`MatchingEngine::route`] from the shot's pricing alone; there is no
/// option. Each route is one decoder tier counter. Routes order by
/// cost, which is how the restriction decoder folds its lattices'
/// routes into one tier per shot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Route {
    /// The dense [`PathOracle`] exists (the graph fits the node limit)
    /// and the shot carries the flag-free base weights: every pair is
    /// looked up and the complete instance solved
    /// (`decode.tier.oracle_hits`).
    Oracle,
    /// Every other shot, at every defect count: [`sparse_graph_match`]
    /// grows every defect's region on the CSR [`SparsePathFinder`] at
    /// once, prices each defect's nearest partner, widens or escalates
    /// when that candidate instance has no perfect matching, and
    /// certifies the result against every omitted pair
    /// (`decode.tier.sparse_blossom`).
    Grown,
}

/// One decoding graph and everything needed to match defects on it.
#[derive(Debug)]
pub(crate) struct MatchingEngine {
    /// The virtual boundary vertex, when the graph has one.
    boundary: Option<usize>,
    oracle: Option<PathOracle>,
    /// `None` only for a graph without vertices.
    sparse: Option<SparsePathFinder>,
    /// Test-only: match [`Route::Grown`] shots with
    /// [`crate::sparse_blossom::complete_graph_match`].
    #[cfg(test)]
    complete_pricing: bool,
}

/// Per-worker work arrays of [`MatchingEngine::solve`], reused across
/// shots and across the engines of one decoder.
#[derive(Debug, Default)]
pub(crate) struct EngineScratch {
    /// Pooled incremental blossom solver state.
    pub(crate) blossom: BlossomScratch,
    /// The grown route's pair memo.
    pub(crate) sparse_blossom: SparseBlossomScratch,
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

    /// The [`Route`] a shot priced by `pricing` takes.
    pub(crate) fn route(&self, pricing: Pricing) -> Route {
        if self.oracle.is_some() && matches!(pricing, Pricing::Base) {
            Route::Oracle
        } else {
            Route::Grown
        }
    }

    /// Matches every [`Route::Grown`] shot on its complete instance, so
    /// tests can compare the grown route against it on the same shots.
    #[cfg(test)]
    pub(crate) fn force_complete_pricing(&mut self) {
        self.complete_pricing = true;
    }

    /// Matches `defects` (graph vertices, each once) under `pricing` on
    /// the shot's [`Route`] and feeds every hop of every matched path to
    /// `sink` as `(prev, cur, class)`, walking each path from its far end back to
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
        let EngineScratch {
            blossom,
            sparse_blossom,
            targets,
            edges,
            pairs,
        } = sc;
        let has_boundary = self.boundary.is_some();
        match self.route(pricing) {
            Route::Oracle => {
                let oracle = self
                    .oracle
                    .as_ref()
                    .expect("the oracle route has an oracle");
                // An odd instance without a boundary has no perfect
                // matching; no solver runs, and the decoder counts the
                // give-up.
                if !has_boundary && s % 2 == 1 {
                    return None;
                }
                // Target `tj` is defect `tj`, or the boundary at `tj == s`.
                targets.clear();
                targets.extend_from_slice(defects);
                targets.extend(self.boundary);
                let targets: &[usize] = targets;
                let dist = |i: usize, tj: usize| oracle.dist(defects[i], targets[tj]);
                let weight = match enumerate_small_matching(s, has_boundary, dist, pairs) {
                    Enumeration::Unique(weight) => {
                        counters.enumerated.inc();
                        weight
                    }
                    Enumeration::Unmatched => {
                        counters.enumerated.inc();
                        return None;
                    }
                    Enumeration::Undecided => {
                        counters.blossom_solves.inc();
                        let nodes = complete_instance(s, has_boundary, dist, edges);
                        let matching =
                            pooled_min_weight_perfect_matching_f64(nodes, edges, blossom)?;
                        pairs.extend(matching.pairs());
                        matching.weight()
                    }
                };
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
            Route::Grown => {
                let sp = self.sparse.as_ref()?;
                let weights = match pricing {
                    Pricing::Base => sp.class_weights(),
                    Pricing::Shot(w) => w,
                };
                let grow = match () {
                    #[cfg(test)]
                    () if self.complete_pricing => crate::sparse_blossom::complete_graph_match,
                    () => sparse_graph_match,
                };
                let outcome = grow(
                    sp,
                    defects,
                    self.boundary,
                    weights,
                    sparse_blossom,
                    blossom,
                    pairs,
                )?;
                counters.sparse_blossom_rounds.record(outcome.rounds as u64);
                counters
                    .sparse_blossom_edges
                    .record(outcome.candidate_edges as u64);
                if outcome.widened {
                    counters.sparse_blossom_widenings.inc();
                }
                if outcome.escalated {
                    counters.sparse_blossom_escalations.inc();
                }
                counters
                    .sparse_blossom_bound_misses
                    .add(outcome.bound_misses as u64);
                for &(a, b) in pairs.iter() {
                    if let Some(tj) = pair_target(a, b, s) {
                        for &(prev, cur, class) in sparse_blossom.pair_hops(a, tj) {
                            sink(prev as usize, cur as usize, class as usize);
                        }
                    }
                }
                Some(outcome.weight)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse_blossom::{SMALL_SHOT, UNREACHABLE};
    use qec_math::graph::matching::F64_WEIGHT_SCALE;
    use qec_math::rng::{Rng, Xoshiro256StarStar};

    /// Prices one shot raising `flags` through `overrides` and checks
    /// every class against [`crate::EquivClass::representative`], bitwise
    /// on `(member, weight)`: a class reached by a raised flag applies
    /// its re-chosen representative, every other class its flag-free
    /// choice (a stale override from an earlier shot fails here), and
    /// the shot's weights are the override or the flag-free weight plus
    /// the mismatch constant.
    fn assert_prices_like_the_reference(
        hg: &DecodingHypergraph,
        pricing: &ClassPricing,
        flags: &BitVec,
        overrides: &mut ClassOverrides,
        weights: &mut Vec<f64>,
    ) {
        let shot = match pricing.price_shot(hg, flags, overrides, weights) {
            Pricing::Base => None,
            Pricing::Shot(w) => Some(w.to_vec()),
        };
        assert_eq!(
            shot.is_none(),
            flags.is_zero(),
            "only flagged shots are repriced"
        );
        let minus_ln_pm = pricing.minus_ln_pm;
        let no_flags = BitVec::zeros(hg.num_flag_detectors());
        let flag_constant = flags.weight() as f64 * minus_ln_pm;
        let bits = |(m, w): (usize, f64)| (m, w.to_bits());
        for (c, class) in hg.classes().iter().enumerate() {
            let reached = class.flag_support.iter().any(|&f| flags.get(f as usize));
            let raised = if reached { flags } else { &no_flags };
            let expected = class.representative(raised, minus_ln_pm);
            assert_eq!(
                bits(pricing.member(c, overrides)),
                bits(expected),
                "class {c}, reached {reached}"
            );
            if let Some(w) = &shot {
                let want = if reached {
                    expected.1
                } else {
                    expected.1 + flag_constant
                };
                assert_eq!(w[c].to_bits(), want.to_bits(), "class {c} weight");
            }
        }
    }

    /// A random raised-flag set of one of the property's shapes:
    /// empty, a single flag, one class's whole flag support, dense, or
    /// a few scattered flags.
    fn random_flags(rng: &mut Xoshiro256StarStar, hg: &DecodingHypergraph) -> BitVec {
        let nf = hg.num_flag_detectors();
        let mut flags = BitVec::zeros(nf);
        match rng.gen_range(0..5usize) {
            0 => {}
            1 => flags.set(rng.gen_range(0..nf), true),
            2 => {
                let flagged: Vec<&crate::EquivClass> = hg
                    .classes()
                    .iter()
                    .filter(|c| !c.flag_support.is_empty())
                    .collect();
                let class = flagged[rng.gen_range(0..flagged.len())];
                for &f in &class.flag_support {
                    flags.set(f as usize, true);
                }
            }
            3 => (0..nf).for_each(|f| flags.set(f, rng.gen_bool(0.5))),
            _ => (0..rng.gen_range(2..=8usize)).for_each(|_| flags.set(rng.gen_range(0..nf), true)),
        }
        flags
    }

    /// The flat class table prices like [`crate::EquivClass::representative`]
    /// on the shared-flag surface and color FPN DEMs. Each trial drives
    /// three consecutive shots through one override scratch — flagged,
    /// unflagged, then flagged with flags disjoint from the first — so
    /// a stale override slot fails the test. The flag-to-class CSR must
    /// list, per flag, exactly the classes whose support holds it.
    #[test]
    fn flat_pricing_matches_the_class_representative() {
        let surface = qec_testkit::shared_flag_surface_dem();
        let color = qec_testkit::shared_flag_color_dem();
        for (dem, primitive) in [(&surface, 2), (&color, usize::MAX)] {
            let hg = DecodingHypergraph::with_primitive_size(dem, primitive);
            let nf = hg.num_flag_detectors();
            assert!(nf > 0);
            let mut by_flag = vec![Vec::new(); nf];
            for (c, class) in hg.classes().iter().enumerate() {
                for &f in &class.flag_support {
                    by_flag[f as usize].push(c);
                }
            }
            for (f, classes) in by_flag.iter().enumerate() {
                assert_eq!(hg.classes_with_flag(f), &classes[..], "flag {f}");
            }
            let pricing = ClassPricing::new(&hg, true, 1e-3);
            let mut overrides = ClassOverrides::default();
            let mut weights = Vec::new();
            let mut rng = Xoshiro256StarStar::seed_from_u64(0xF1A7);
            for _ in 0..64 {
                let first = random_flags(&mut rng, &hg);
                let mut disjoint = random_flags(&mut rng, &hg);
                for f in first.iter_ones() {
                    disjoint.set(f, false);
                }
                if disjoint.is_zero() {
                    if let Some(f) = (0..nf).find(|&f| !first.get(f)) {
                        disjoint.set(f, true);
                    }
                }
                for flags in [&first, &BitVec::zeros(nf), &disjoint] {
                    assert_prices_like_the_reference(
                        &hg,
                        &pricing,
                        flags,
                        &mut overrides,
                        &mut weights,
                    );
                }
            }
        }
    }

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

    /// Vertices without edges: no two defects can be paired, and both
    /// routes give up instead of panicking or emitting hops. On the
    /// oracle route the even pair counts as one enumeration run; the
    /// odd sets run no solver and count nowhere here (the decoder
    /// counts the give-up). The grown route counts in neither solver
    /// counter.
    #[test]
    fn edgeless_graph_gives_up_cleanly() {
        let mut sc = EngineScratch::default();
        for limit in [1024, 0] {
            let e = engine(&vec![Vec::new(); 5], limit);
            assert_eq!(e.oracle().is_some(), limit > 0);
            let metrics = Registry::new();
            let counters = MatchingCounters::register(&metrics);
            for (defects, weight) in [
                (&[0, 2][..], None),
                (&[1], None),
                (&[0, 1, 2, 3, 4], None),
                (&[], Some(0)),
            ] {
                let mut hops = 0;
                let solved = e.solve(defects, Pricing::Base, &mut sc, &counters, |_, _, _| {
                    hops += 1
                });
                assert_eq!((solved, hops), (weight, 0), "limit {limit}, {defects:?}");
            }
            let snap = metrics.snapshot();
            assert_eq!(
                (
                    snap.counter("decode.tier.enumerated"),
                    snap.counter("decode.tier.blossom")
                ),
                (u64::from(limit > 0), 0),
                "limit {limit}"
            );
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
    /// priced per shot always takes the grown route.
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
        let mut weights = Vec::new();
        for (e, pricing, route) in [
            (&dense, Pricing::Base, Route::Oracle),
            (&sparse, Pricing::Base, Route::Grown),
            (&dense, Pricing::Shot(&shot), Route::Grown),
        ] {
            assert_eq!(e.route(pricing), route);
            let (weight, hops) = run(e, &[0, 3], pricing, &mut sc);
            assert_eq!(hops, expected);
            weights.push(weight.expect("path graph matches"));
        }
        assert!(weights.iter().all(|&w| w == weights[0] && w > 0));
    }

    /// The route rule: the oracle whenever it can price the shot, the
    /// grown route otherwise.
    #[test]
    fn route_follows_pricing() {
        let dense = engine(&ring(8), 1024);
        let sparse = engine(&ring(8), 0);
        let shot = [1.0; 8];
        assert_eq!(dense.route(Pricing::Base), Route::Oracle);
        assert_eq!(dense.route(Pricing::Shot(&shot)), Route::Grown);
        assert_eq!(sparse.route(Pricing::Base), Route::Grown);
        assert_eq!(sparse.route(Pricing::Shot(&shot)), Route::Grown);
    }

    /// A solve's `(weight, defect-level pairs)`, or `None` on a give-up.
    type Matched = Option<(i64, Vec<(usize, usize)>)>;

    /// Matches `defects` on `csr`'s graph priced by `weights` with
    /// [`sparse_graph_match`] and with
    /// [`crate::sparse_blossom::complete_graph_match`], and returns both
    /// outcomes as `(weight, defect-level pairs)`.
    fn grown_and_complete(
        csr: &MatchingEngine,
        defects: &[usize],
        weights: &[f64],
        sc: &mut EngineScratch,
    ) -> [Matched; 2] {
        let sp = csr.sparse().expect("the graph has vertices");
        [
            sparse_graph_match,
            crate::sparse_blossom::complete_graph_match,
        ]
        .map(|solve| {
            let EngineScratch {
                blossom,
                sparse_blossom,
                pairs,
                ..
            } = sc;
            let outcome = solve(
                sp,
                defects,
                csr.boundary,
                weights,
                sparse_blossom,
                blossom,
                pairs,
            )?;
            Some((outcome.weight, defect_pairs(pairs, defects.len())))
        })
    }

    /// Every set of 1 to 4 defects on the d3 surface DEM's graph (with a
    /// boundary) and on toric color restricted lattice 0 (without):
    ///
    /// * at the base weights, the grown route reaches the oracle route's
    ///   weight with the same hops, and gives up exactly when it does;
    /// * under a seeded flag-shaped reweighting per set — each class at
    ///   its flag-free weight plus 0 to 2 flag mismatches `-ln p_M`, as
    ///   a flagged shot prices it — the grown route reaches
    ///   [`crate::sparse_blossom::complete_graph_match`]'s weight and
    ///   gives up exactly when it does. Two matchings of different
    ///   pairs could only tie in fixed-point weight; on these sets the
    ///   two pick the same pairs every time.
    #[test]
    fn grown_route_matches_the_oracle_and_complete_pricing_on_small_shots() {
        let dem = qec_testkit::surface_memory_dem(3);
        let config = crate::MwpmConfig::unflagged();
        let surface = [config, config.with_oracle_node_limit(0)]
            .map(|config| crate::MwpmDecoder::new(&dem, config));
        let (dem, ctx, pm) = qec_testkit::toric_color_dem();
        // The fixture's context type comes from the non-test build of
        // this crate; copy it field by field.
        let ctx = crate::ColorCodeContext {
            plaquette_colors: ctx.plaquette_colors,
            plaquette_supports: ctx.plaquette_supports,
            qubit_observables: ctx.qubit_observables,
        };
        let config = crate::RestrictionConfig::flagged(pm);
        let color = [config, config.with_oracle_node_limit(0)]
            .map(|config| crate::RestrictionDecoder::new(&dem, ctx.clone(), config));
        let graphs = [
            ("d3 surface", surface[0].engine(), surface[1].engine(), 1e-3),
            ("toric color L0", color[0].engine(0), color[1].engine(0), pm),
        ];
        let mut sc = EngineScratch::default();
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x5a11);
        for (graph, dense, csr, p_m) in graphs {
            let n =
                dense.oracle().expect("oracle").num_nodes() - usize::from(dense.boundary.is_some());
            let base = csr
                .sparse()
                .expect("the graph has vertices")
                .class_weights();
            let mismatch = -f64::ln(p_m);
            let mut unmatched = 0;
            let mut shot = Vec::new();
            for defects in subsets(n, 4).into_iter().skip(1) {
                let context = format!("{graph}, defects {defects:?}");
                assert_eq!(dense.route(Pricing::Base), Route::Oracle);
                assert_eq!(csr.route(Pricing::Base), Route::Grown);
                let reference = run(dense, &defects, Pricing::Base, &mut sc);
                assert_eq!(
                    run(csr, &defects, Pricing::Base, &mut sc),
                    reference,
                    "{context}"
                );
                unmatched += usize::from(reference.0.is_none());

                shot.clear();
                shot.extend(
                    base.iter()
                        .map(|&w| w + rng.gen_range(0..3usize) as f64 * mismatch),
                );
                assert_eq!(csr.route(Pricing::Shot(&shot)), Route::Grown);
                let [grown, complete] = grown_and_complete(csr, &defects, &shot, &mut sc);
                assert_eq!(
                    grown.as_ref().map(|g| g.0),
                    complete.as_ref().map(|c| c.0),
                    "reweighted weight, {context}"
                );
                assert_eq!(grown, complete, "reweighted pairs, {context}");
            }
            // With a boundary every set matches; without, odd sets
            // give up.
            assert_eq!(unmatched > 0, dense.boundary.is_none(), "{graph}");
        }
    }

    /// Forces each fallback of the grown route on a small graph and
    /// checks that it is counted and still reaches the complete
    /// instance's weight:
    ///
    /// * widening: two tight triples far apart on a path, whose nearest
    ///   partners form two odd clusters until the middle defects'
    ///   second partners bridge them;
    /// * escalation: six defects on a star, the centre and five leaves,
    ///   whose regions touch only the centre's however many partners
    ///   they collect.
    #[test]
    fn sparse_fallbacks_are_counted() {
        let path: Vec<Vec<(usize, usize)>> = (0..13)
            .map(|v: usize| {
                let mut row = Vec::new();
                if v > 0 {
                    row.push((v - 1, v - 1));
                }
                if v < 12 {
                    row.push((v + 1, v));
                }
                row
            })
            .collect();
        let mut star = vec![Vec::new(); 6];
        for leaf in 1..6 {
            star[0].push((leaf, leaf - 1));
            star[leaf].push((0, leaf - 1));
        }
        for (adjacency, defects, widened, escalated) in [
            (path, vec![0, 1, 2, 10, 11, 12], 1, 0),
            (star, vec![0, 1, 2, 3, 4, 5], 1, 1),
        ] {
            let routed = engine(&adjacency, 0);
            let mut complete = engine(&adjacency, 0);
            complete.force_complete_pricing();
            let mut sc = EngineScratch::default();
            let metrics = Registry::new();
            let counters = MatchingCounters::register(&metrics);
            let weight = routed.solve(&defects, Pricing::Base, &mut sc, &counters, |_, _, _| {});
            assert!(weight.is_some());
            assert_eq!(weight, run(&complete, &defects, Pricing::Base, &mut sc).0);
            let snap = metrics.snapshot();
            assert_eq!(
                (
                    snap.counter("decode.sparse_blossom.widenings"),
                    snap.counter("decode.sparse_blossom.escalations"),
                ),
                (widened, escalated),
                "defects {defects:?}"
            );
        }
    }

    /// Independent count of the cheapest defect-level matchings of a
    /// complete instance: every partner map (a defect, or the boundary
    /// at `s`) is generated and kept when it is a perfect matching.
    /// Returns the minimum and how many matchings reach it.
    fn brute_force_minimum(
        s: usize,
        has_boundary: bool,
        cost: impl Fn(usize, usize) -> Option<i64>,
    ) -> (Option<i64>, usize) {
        let (mut min, mut count) = (None, 0);
        for code in 0..(s + 1).pow(s as u32) {
            let mate: Vec<usize> = (0..s)
                .map(|i| code / (s + 1).pow(i as u32) % (s + 1))
                .collect();
            let mut total = Some(0i64);
            for (i, &m) in mate.iter().enumerate() {
                let leg = match m {
                    m if m == s && has_boundary => cost(i, s),
                    m if m == s || m == i || mate[m] != i => None,
                    m if i < m => cost(i, m),
                    _ => Some(0),
                };
                total = total.zip(leg).map(|(t, c)| t + c);
            }
            match (total, min) {
                (None, _) => {}
                (Some(t), Some(m)) if t > m => {}
                (Some(t), Some(m)) if t == m => count += 1,
                (Some(t), _) => (min, count) = (Some(t), 1),
            }
        }
        (min, count)
    }

    /// Defect-level pairs of a node-level matching: boundary-copy pairs
    /// dropped.
    fn defect_pairs(pairs: &[(usize, usize)], s: usize) -> Vec<(usize, usize)> {
        pairs.iter().copied().filter(|&(a, _)| a < s).collect()
    }

    /// Checks the enumeration on `defects` of `dense`'s graph against
    /// the pooled blossom on the complete oracle instance, and returns
    /// its verdict:
    ///
    /// * the verdict follows [`brute_force_minimum`]: `Unique` for one
    ///   cheapest matching, `Undecided` for a tie or more than
    ///   [`SMALL_SHOT`] defects, `Unmatched`
    ///   exactly when the blossom gives up;
    /// * a unique minimum has the blossom's weight and defect-level
    ///   pairs;
    /// * `dense` (enumerating on the oracle route) and `csr` (the same
    ///   graph without an oracle, on the grown route) return the
    ///   blossom's weight and emit its hops, walked as the oracle route
    ///   walks them.
    fn assert_enumeration_matches_blossom(
        dense: &MatchingEngine,
        csr: &MatchingEngine,
        defects: &[usize],
        sc: &mut EngineScratch,
    ) -> Enumeration {
        let oracle = dense.oracle().expect("the reference prices on the oracle");
        assert!(csr.oracle().is_none());
        let s = defects.len();
        let has_boundary = dense.boundary.is_some();
        let target = |tj: usize| {
            dense
                .boundary
                .filter(|_| tj == s)
                .unwrap_or_else(|| defects[tj])
        };
        let dist = |i: usize, tj: usize| oracle.dist(defects[i], target(tj));
        let mut pairs = Vec::new();
        let verdict = enumerate_small_matching(s, has_boundary, dist, &mut pairs);
        let mut edges = Vec::new();
        let nodes = complete_instance(s, has_boundary, dist, &mut edges);
        let mut blossom = crate::blossom::BlossomScratch::new();
        let reference = pooled_min_weight_perfect_matching_f64(nodes, &edges, &mut blossom)
            .map(|m| (m.weight(), m.pairs().collect::<Vec<_>>()));
        let scaled = |d: f64| (d < UNREACHABLE).then(|| (d * F64_WEIGHT_SCALE).round() as i64);
        let (min, count) = brute_force_minimum(s, has_boundary, |i, tj| scaled(dist(i, tj)));
        let context = format!("defects {defects:?}: {verdict:?}, blossom {reference:?}");
        assert_eq!(min.is_some(), reference.is_some(), "{context}");
        match verdict {
            Enumeration::Unique(weight) => {
                assert_eq!(count, 1, "{context}");
                let (blossom_weight, blossom_pairs) = reference.as_ref().expect("matched");
                assert_eq!(weight, *blossom_weight, "{context}");
                assert_eq!(pairs, defect_pairs(blossom_pairs, s), "{context}");
            }
            Enumeration::Unmatched => assert!(reference.is_none(), "{context}"),
            Enumeration::Undecided => assert!(s > SMALL_SHOT || count > 1, "{context}"),
        }
        let expected = reference.map(|(weight, pairs)| {
            let mut hops = Vec::new();
            for (a, b) in pairs {
                let Some(tj) = pair_target(a, b, s) else {
                    continue;
                };
                let mut cur = target(tj);
                while cur != defects[a] {
                    let (prev, class) = oracle.pred(defects[a], cur);
                    hops.push((prev, cur, class));
                    cur = prev;
                }
            }
            (weight, hops)
        });
        for (route, e) in [("oracle", dense), ("csr", csr)] {
            let (weight, hops) = run(e, defects, Pricing::Base, sc);
            assert_eq!(
                weight.map(|w| (w, hops)),
                expected.clone(),
                "{route} route, {context}"
            );
        }
        verdict
    }

    /// Tallies of [`assert_enumeration_matches_blossom`]'s verdicts:
    /// `(unique, unmatched, undecided)`.
    #[derive(Debug, Default)]
    struct Verdicts(usize, usize, usize);

    impl Verdicts {
        fn add(&mut self, verdict: Enumeration) {
            match verdict {
                Enumeration::Unique(_) => self.0 += 1,
                Enumeration::Unmatched => self.1 += 1,
                Enumeration::Undecided => self.2 += 1,
            }
        }
    }

    /// Every subset of `0..n` with at most `k` elements, ascending.
    fn subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new()];
        let mut frontier = vec![Vec::new()];
        for _ in 0..k {
            let mut next = Vec::new();
            for set in &frontier {
                let from = set.last().map_or(0, |&l| l + 1);
                for v in from..n {
                    let mut grown: Vec<usize> = set.clone();
                    grown.push(v);
                    next.push(grown);
                }
            }
            out.extend(next.iter().cloned());
            frontier = next;
        }
        out
    }

    /// `count` random sets of 1 to 4 distinct vertices of `0..n`.
    fn random_small_sets(rng: &mut Xoshiro256StarStar, n: usize, count: usize) -> Vec<Vec<usize>> {
        (0..count)
            .map(|_| {
                let mut set: Vec<usize> = Vec::new();
                let size = rng.gen_range(1..=4usize).min(n);
                while set.len() < size {
                    let v = rng.gen_range(0..n);
                    if !set.contains(&v) {
                        set.push(v);
                    }
                }
                set.sort_unstable();
                set
            })
            .collect()
    }

    /// The enumeration on the d3 and d5 surface DEMs' decoding graphs,
    /// which have a boundary: every syndrome of at most 2 defects on
    /// both, every one of at most 4 on d3, and random ones of up to 4
    /// on d5, through the oracle route and the grown route.
    #[test]
    fn enumeration_matches_the_pooled_blossom_on_surface_dems() {
        let mut sc = EngineScratch::default();
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xe5);
        for (d, exhaustive) in [(3, 4), (5, 2)] {
            let dem = qec_testkit::surface_memory_dem(d);
            let dense = crate::MwpmDecoder::new(&dem, crate::MwpmConfig::unflagged());
            let csr = crate::MwpmDecoder::new(
                &dem,
                crate::MwpmConfig::unflagged().with_oracle_node_limit(0),
            );
            assert!(dense.engine().boundary.is_some());
            let checks = dense.hypergraph().num_check_detectors();
            let mut shots = subsets(checks, exhaustive);
            if exhaustive < 4 {
                shots.extend(random_small_sets(&mut rng, checks, 2000));
            }
            let mut verdicts = Verdicts::default();
            for defects in &shots {
                verdicts.add(assert_enumeration_matches_blossom(
                    dense.engine(),
                    csr.engine(),
                    defects,
                    &mut sc,
                ));
            }
            assert!(verdicts.0 > verdicts.2, "d={d}: {verdicts:?}");
            assert!(verdicts.2 > 0, "d={d}: {verdicts:?}");
        }
    }

    /// The enumeration on the toric color code's three restricted
    /// lattices, which have no boundary: odd defect counts have no
    /// perfect matching, even ones always do.
    #[test]
    fn enumeration_matches_the_pooled_blossom_on_restricted_lattices() {
        let (dem, ctx, pm) = qec_testkit::toric_color_dem();
        // The fixture's context type comes from the non-test build of
        // this crate; copy it field by field.
        let ctx = crate::ColorCodeContext {
            plaquette_colors: ctx.plaquette_colors,
            plaquette_supports: ctx.plaquette_supports,
            qubit_observables: ctx.qubit_observables,
        };
        let config = crate::RestrictionConfig::flagged(pm);
        let dense = crate::RestrictionDecoder::new(&dem, ctx.clone(), config);
        let csr = crate::RestrictionDecoder::new(&dem, ctx, config.with_oracle_node_limit(0));
        let mut sc = EngineScratch::default();
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xc0);
        for lattice in 0..3 {
            let (dense, csr) = (dense.engine(lattice), csr.engine(lattice));
            assert!(dense.boundary.is_none());
            let n = dense.oracle().expect("oracle").num_nodes();
            let mut verdicts = Verdicts::default();
            for defects in random_small_sets(&mut rng, n, 600) {
                let verdict = assert_enumeration_matches_blossom(dense, csr, &defects, &mut sc);
                assert_eq!(
                    verdict == Enumeration::Unmatched,
                    defects.len() % 2 == 1,
                    "lattice {lattice}, defects {defects:?}"
                );
                verdicts.add(verdict);
            }
            assert!(
                verdicts.0 > 0 && verdicts.1 > 0,
                "lattice {lattice}: {verdicts:?}"
            );
        }
    }

    /// A 3 × 4 grid at uniform weight with a boundary behind its left
    /// and right columns, every set of at most 4 defects: equal-weight
    /// matchings abound, and every tie must fall back to the pooled
    /// blossom and reach its matching.
    #[test]
    fn enumeration_ties_fall_back_to_the_pooled_blossom() {
        let (rows, cols) = (3, 4);
        let hub = rows * cols;
        let mut adjacency = vec![Vec::new(); hub + 1];
        let mut link = |a: usize, b: usize, class: usize| {
            adjacency[a].push((b, class));
            adjacency[b].push((a, class));
        };
        let mut class = 0;
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                let mut neighbours = Vec::new();
                if c + 1 < cols {
                    neighbours.push(v + 1);
                }
                if r + 1 < rows {
                    neighbours.push(v + cols);
                }
                if c == 0 || c + 1 == cols {
                    neighbours.push(hub);
                }
                for u in neighbours {
                    link(v, u, class);
                    class += 1;
                }
            }
        }
        let uniform = |limit| {
            MatchingEngine::build(
                &adjacency,
                vec![1.0; class],
                Some(hub),
                limit,
                &Registry::new(),
                None,
            )
        };
        let (dense, csr) = (uniform(1024), uniform(0));
        let mut sc = EngineScratch::default();
        let mut verdicts = Verdicts::default();
        for defects in subsets(hub, 4) {
            verdicts.add(assert_enumeration_matches_blossom(
                &dense, &csr, &defects, &mut sc,
            ));
        }
        assert!(verdicts.2 > 100 && verdicts.0 > 100, "{verdicts:?}");
    }

    /// Two rings of 4 without a boundary, joined by one edge whose ends
    /// lie exactly [`UNREACHABLE`] apart, and a path of 3 left alone:
    /// every set of at most 4 defects. No pair across components is an
    /// edge of the instance, so defects split oddly between them have
    /// no perfect matching; the enumeration must give up exactly when
    /// the blossom does.
    #[test]
    fn enumeration_gives_up_exactly_when_the_pooled_blossom_does() {
        // The largest weight whose relaxation, as class 8 after the
        // rings' eight edges, stays within the filter.
        let mut bridge = UNREACHABLE;
        while paths::relaxed_dist(0.0, bridge, 8) > UNREACHABLE {
            bridge = f64::from_bits(bridge.to_bits() - 1);
        }
        let mut adjacency = vec![Vec::new(); 11];
        let mut weights = Vec::new();
        let mut link = |a: usize, b: usize, w: f64| {
            adjacency[a].push((b, weights.len()));
            adjacency[b].push((a, weights.len()));
            weights.push(w);
        };
        for base in [0, 4] {
            for k in 0..4 {
                link(base + k, base + (k + 1) % 4, 1.0 + 0.25 * k as f64);
            }
        }
        link(3, 4, bridge);
        link(8, 9, 1.5);
        link(9, 10, 0.5);
        let build = |limit| {
            MatchingEngine::build(
                &adjacency,
                weights.clone(),
                None,
                limit,
                &Registry::new(),
                None,
            )
        };
        let (dense, csr) = (build(1024), build(0));
        assert_eq!(dense.oracle().expect("oracle").dist(3, 4), UNREACHABLE);
        let mut sc = EngineScratch::default();
        let mut verdicts = Verdicts::default();
        for defects in subsets(11, 4) {
            verdicts.add(assert_enumeration_matches_blossom(
                &dense, &csr, &defects, &mut sc,
            ));
        }
        assert!(verdicts.0 > 0 && verdicts.1 > 0, "{verdicts:?}");
    }
}
