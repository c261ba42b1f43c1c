//! The flagged Restriction decoder for color codes (§VI-D) and its
//! Chamberland-style baseline.

use crate::engine::{ClassPricing, MatchingEngine, Pricing, Route};
use crate::hypergraph::DecodingHypergraph;
use crate::paths::{PathOracle, SparsePathFinder, DEFAULT_ORACLE_NODE_LIMIT};
use crate::scratch::{DecodeScratch, MatchingCounters, MatchingScratch};
use crate::{Decoder, DecoderStats};
use qec_math::{gf2, BitMatrix, BitVec};
use qec_obs::Registry;
use qec_sim::DetectorErrorModel;
use std::collections::HashMap;

/// Structural information about the color code, needed for lifting.
#[derive(Debug, Clone)]
pub struct ColorCodeContext {
    /// Color of each plaquette: 0 = red, 1 = green, 2 = blue.
    pub plaquette_colors: Vec<u8>,
    /// Data-qubit support of each plaquette.
    pub plaquette_supports: Vec<Vec<usize>>,
    /// For each data qubit, the observables a memory-basis error on it
    /// flips (e.g. in a Z-memory experiment: which Z logicals contain
    /// the qubit).
    pub qubit_observables: Vec<Vec<u32>>,
}

/// Configuration of [`RestrictionDecoder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestrictionConfig {
    /// Use the flag syndrome to choose class representatives.
    pub flag_conditioning: bool,
    /// Apply the paper's rule for edges used by both restricted
    /// matchings: correct their Pauli frames directly and remove them
    /// before lifting. Disabling this reproduces the Chamberland-style
    /// baseline, which handles flag edges only inside the MWPM stage.
    pub twice_used_rule: bool,
    /// Measurement error probability `p_M` for flag-mismatch pricing.
    pub measurement_error_probability: f64,
    /// Precompute a per-lattice [`PathOracle`] when a restricted
    /// lattice has at most this many vertices (O(V²) storage); it
    /// serves the shots without flag reweighting. Every other shot, and
    /// every shot on a larger lattice, is priced on that lattice's
    /// [`SparsePathFinder`] CSR graph. `0` disables the oracles.
    pub oracle_node_limit: usize,
}

impl RestrictionConfig {
    /// The paper's flagged Restriction decoder.
    pub fn flagged(p_m: f64) -> Self {
        RestrictionConfig {
            flag_conditioning: true,
            twice_used_rule: true,
            measurement_error_probability: p_m,
            oracle_node_limit: DEFAULT_ORACLE_NODE_LIMIT,
        }
    }

    /// Chamberland-style baseline: flags only reweight the matching.
    pub fn chamberland(p_m: f64) -> Self {
        RestrictionConfig {
            flag_conditioning: true,
            twice_used_rule: false,
            measurement_error_probability: p_m,
            oracle_node_limit: DEFAULT_ORACLE_NODE_LIMIT,
        }
    }

    /// Overrides the oracle node limit (the memory guard); `0` sends
    /// every shot to the CSR graphs.
    pub fn with_oracle_node_limit(mut self, limit: usize) -> Self {
        self.oracle_node_limit = limit;
        self
    }
}

/// One restricted lattice `L_{c c'}`.
#[derive(Debug)]
struct Lattice {
    /// check-space index -> lattice vertex, for member colors.
    vertex_of: Vec<Option<usize>>,
    /// lattice vertex -> check-space index.
    check_of: Vec<usize>,
    /// The lattice's decoding graph (no boundary vertex).
    engine: MatchingEngine,
}

/// The restriction decoder: MWPM on the `L_RG`, `L_RB` and `L_GB`
/// restricted lattices, the twice-used-edge rule (an edge chosen by two
/// different restricted matchings is corrected directly), then lifting
/// of the remaining edges at red plaquettes (Fig. 16(b)). Each lattice
/// matches through its own matching engine.
#[derive(Debug)]
pub struct RestrictionDecoder {
    hypergraph: DecodingHypergraph,
    ctx: ColorCodeContext,
    config: RestrictionConfig,
    pricing: ClassPricing,
    lattices: [Lattice; 3],
    /// Metrics registry the counters and build gauges live in; private
    /// unless the decoder was built via
    /// [`RestrictionDecoder::with_metrics`].
    metrics: Registry,
    counters: MatchingCounters,
    /// Exact lookup from a class's σ to its index.
    sigma_index: HashMap<Vec<u32>, usize>,
}

impl RestrictionDecoder {
    /// Builds the decoder from a detector error model and the color
    /// structure of the code.
    ///
    /// # Panics
    ///
    /// Panics if some parity detector lacks color metadata.
    pub fn new(dem: &DetectorErrorModel, ctx: ColorCodeContext, config: RestrictionConfig) -> Self {
        Self::with_metrics(dem, ctx, config, Registry::new())
    }

    /// Builds the decoder recording into a caller-supplied metrics
    /// registry. Metric names are interned, so building against a
    /// registry an earlier decoder used (one decoder per sweep point)
    /// continues the existing counter series.
    ///
    /// # Panics
    ///
    /// Panics if some parity detector lacks color metadata.
    pub fn with_metrics(
        dem: &DetectorErrorModel,
        ctx: ColorCodeContext,
        config: RestrictionConfig,
        metrics: Registry,
    ) -> Self {
        metrics.counter("decoder.constructions").inc();
        let hypergraph = DecodingHypergraph::with_primitive_size(dem, usize::MAX);
        let pricing = ClassPricing::new(
            &hypergraph,
            config.flag_conditioning,
            config.measurement_error_probability,
        );
        let build_lattice = |li: usize, colors: (u8, u8)| -> Lattice {
            let num_check = hypergraph.num_check_detectors();
            let mut vertex_of = vec![None; num_check];
            let mut check_of = Vec::new();
            for (c, slot) in vertex_of.iter_mut().enumerate() {
                let col = hypergraph
                    .check_meta(c)
                    .color
                    .expect("color codes require colored detectors");
                if col == colors.0 || col == colors.1 {
                    *slot = Some(check_of.len());
                    check_of.push(c);
                }
            }
            let mut adjacency = vec![Vec::new(); check_of.len()];
            for (ci, class) in hypergraph.classes().iter().enumerate() {
                let proj: Vec<usize> = class
                    .sigma
                    .iter()
                    .filter_map(|&c| vertex_of[c as usize])
                    .collect();
                for (i, &a) in proj.iter().enumerate() {
                    for &b in &proj[i + 1..] {
                        adjacency[a].push((b, ci));
                        adjacency[b].push((a, ci));
                    }
                }
            }
            let engine = MatchingEngine::build(
                &adjacency,
                pricing.base_weights(),
                None,
                config.oracle_node_limit,
                &metrics,
                Some(li),
            );
            Lattice {
                vertex_of,
                check_of,
                engine,
            }
        };
        let lattices = [
            build_lattice(0, (0, 1)),
            build_lattice(1, (0, 2)),
            build_lattice(2, (1, 2)),
        ];
        let sigma_index = hypergraph
            .classes()
            .iter()
            .enumerate()
            .map(|(i, c)| (c.sigma.clone(), i))
            .collect();
        RestrictionDecoder {
            hypergraph,
            ctx,
            config,
            pricing,
            lattices,
            counters: MatchingCounters::register(&metrics),
            metrics,
            sigma_index,
        }
    }

    /// The underlying hypergraph.
    pub fn hypergraph(&self) -> &DecodingHypergraph {
        &self.hypergraph
    }

    /// The precomputed path oracle of restricted lattice `lattice`
    /// (0 = RG, 1 = RB, 2 = GB), when it fits the configured node
    /// limit.
    pub fn path_oracle(&self, lattice: usize) -> Option<&PathOracle> {
        self.lattices[lattice].engine.oracle()
    }

    /// The CSR sparse path finder of restricted lattice `lattice`;
    /// absent only when the lattice has no vertices.
    pub fn sparse_finder(&self, lattice: usize) -> Option<&SparsePathFinder> {
        self.lattices[lattice].engine.sparse()
    }

    /// The matching engine of restricted lattice `lattice`.
    #[cfg(test)]
    pub(crate) fn engine(&self, lattice: usize) -> &MatchingEngine {
        &self.lattices[lattice].engine
    }

    fn apply_member(&self, class: usize, member: usize, correction: &mut BitVec) {
        for &obs in &self.hypergraph.classes()[class].members[member].observables {
            correction.flip(obs as usize);
        }
    }
}

/// Events recorded by [`RestrictionDecoder::decode_with_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestrictionEvent {
    /// An edge used by a restricted-lattice matching path
    /// (endpoints in check space).
    MatchedEdge {
        /// Lattice index (0 = RG, 1 = RB, 2 = GB).
        lattice: usize,
        /// Equivalence-class index.
        class: usize,
        /// One endpoint (check space).
        a: usize,
        /// Other endpoint (check space).
        b: usize,
    },
    /// The twice-used rule applied a class member's Pauli frames.
    TwiceApplied {
        /// Equivalence-class index.
        class: usize,
        /// Member applied.
        member: usize,
    },
    /// A lift at a red plaquette applied data-qubit corrections.
    Lifted {
        /// Red plaquette id.
        red: usize,
        /// Data qubits corrected.
        qubits: Vec<usize>,
    },
}

impl RestrictionDecoder {
    /// Decodes like [`Decoder::decode`] but also reports the decoding
    /// events, for diagnostics and tooling.
    pub fn decode_with_trace(&self, detectors: &BitVec) -> (BitVec, Vec<RestrictionEvent>) {
        let mut trace = Vec::new();
        let mut sc = MatchingScratch::default();
        let mut correction = BitVec::zeros(0);
        self.decode_core(detectors, &mut sc, &mut correction, Some(&mut trace));
        (correction, trace)
    }
}

impl Decoder for RestrictionDecoder {
    fn decode_into(&self, detectors: &BitVec, scratch: &mut DecodeScratch, out: &mut BitVec) {
        self.decode_core(detectors, &mut scratch.restriction, out, None);
    }

    fn metrics(&self) -> Option<&Registry> {
        Some(&self.metrics)
    }

    fn stats(&self) -> DecoderStats {
        self.counters.snapshot()
    }

    fn num_observables(&self) -> usize {
        self.hypergraph.num_observables()
    }

    fn num_detectors(&self) -> usize {
        self.hypergraph.num_detectors()
    }
}

impl RestrictionDecoder {
    /// The shared decode body of `decode_into` and `decode_with_trace`.
    /// The reconciliation and lifting stages keep small bounded per-shot
    /// allocations; the matching stage (the per-shot cost driver) reuses
    /// the scratch.
    fn decode_core(
        &self,
        detectors: &BitVec,
        sc: &mut MatchingScratch,
        correction: &mut BitVec,
        mut trace: Option<&mut Vec<RestrictionEvent>>,
    ) {
        let MatchingScratch {
            checks,
            flags,
            overrides,
            weights,
            engine,
            sources,
            em,
            counts,
            twice,
            flattened,
            at_red,
        } = sc;
        self.counters.decodes.inc();
        correction.reset_zeros(self.hypergraph.num_observables());
        self.hypergraph.split_shot_into(detectors, checks, flags);
        self.counters.defects.record(checks.len() as u64);
        if checks.is_empty() {
            return;
        }
        let pricing = self
            .pricing
            .price_shot(&self.hypergraph, flags, overrides, weights);
        // Matchings on L_RG, L_RB and L_GB. The shot counts once, in the
        // costliest route a lattice took: an oracle hit when every
        // lattice answers from its dense matrix, else grown.
        em.clear();
        let (mut tier, mut gave_up) = (Route::Oracle, false);
        for (li, lattice) in self.lattices.iter().enumerate() {
            sources.clear();
            sources.extend(checks.iter().filter_map(|&c| lattice.vertex_of[c]));
            tier = tier.max(lattice.engine.route(pricing));
            if sources.len() % 2 == 1 {
                // Closed codes always flip an even number per lattice;
                // an odd count has no perfect matching, so the shot
                // gives up on this lattice and decodes from the others.
                gave_up = true;
                continue;
            }
            let start = em.len();
            // A lattice without a perfect matching contributes no edges.
            gave_up |= lattice
                .engine
                .solve(
                    sources,
                    pricing,
                    engine,
                    &self.counters,
                    |prev, cur, class| {
                        em.push((class, lattice.check_of[prev], lattice.check_of[cur]));
                    },
                )
                .is_none();
            if let Some(t) = trace.as_deref_mut() {
                for &(class, a, b) in &em[start..] {
                    t.push(RestrictionEvent::MatchedEdge {
                        lattice: li,
                        class,
                        a,
                        b,
                    });
                }
            }
        }
        self.counters.count_tier(tier);
        if gave_up {
            self.counters.giveups_unmatched.inc();
        }
        // Reconciliation: the three matchings may disagree on which
        // classes explain the syndrome (each lattice sees only a
        // projection). When the candidate set is small, pick the
        // minimum-weight subset of candidate classes whose sigmas XOR
        // to the flipped checks - a local maximum-likelihood resolution
        // over the matching-suggested hypotheses.
        if self.config.twice_used_rule {
            let mut candidates: Vec<usize> = em.iter().map(|&(c, _, _)| c).collect();
            candidates.sort_unstable();
            candidates.dedup();
            // Include the exact-sigma class when one exists.
            let sigma_key: Vec<u32> = checks.iter().map(|&c| c as u32).collect();
            if let Some(&c) = self.sigma_index.get(&sigma_key) {
                if !candidates.contains(&c) {
                    candidates.push(c);
                }
            }
            if candidates.len() <= 16 {
                let num_check = self.hypergraph.num_check_detectors();
                let target = BitVec::from_ones(num_check, checks.iter().copied());
                let sigmas: Vec<BitVec> = candidates
                    .iter()
                    .map(|&c| {
                        BitVec::from_ones(
                            num_check,
                            self.hypergraph.classes()[c]
                                .sigma
                                .iter()
                                .map(|&s| s as usize),
                        )
                    })
                    .collect();
                let weight_of = |c: usize| -> f64 {
                    match pricing {
                        Pricing::Base => self.pricing.member(c, overrides).1,
                        Pricing::Shot(w) => w[c],
                    }
                };
                let mut best: Option<(f64, u32)> = None;
                for mask in 1u32..(1u32 << candidates.len()) {
                    let mut acc = BitVec::zeros(num_check);
                    let mut w = 0.0;
                    for (i, sv) in sigmas.iter().enumerate() {
                        if mask >> i & 1 == 1 {
                            acc.xor_assign(sv);
                            w += weight_of(candidates[i]);
                        }
                    }
                    if acc == target && best.is_none_or(|(bw, _)| w < bw) {
                        best = Some((w, mask));
                    }
                }
                if let Some((_, mask)) = best {
                    for (i, &class) in candidates.iter().enumerate() {
                        if mask >> i & 1 == 1 {
                            let member = self.pricing.member(class, overrides).0;
                            self.apply_member(class, member, correction);
                            if let Some(t) = trace.as_deref_mut() {
                                t.push(RestrictionEvent::TwiceApplied { class, member });
                            }
                        }
                    }
                    return;
                }
            }
        }
        // Twice-used rule: a class edge appearing in both restricted
        // matchings is corrected directly (this is where propagation
        // errors flipping two same-color plaquettes are handled).
        if self.config.twice_used_rule {
            counts.clear();
            for &(class, _, _) in em.iter() {
                *counts.entry(class).or_insert(0) += 1;
            }
            twice.clear();
            twice.extend(counts.iter().filter(|&(_, &n)| n >= 2).map(|(&c, _)| c));
            twice.sort_unstable();
            for &class in twice.iter() {
                let member = self.pricing.member(class, overrides).0;
                self.apply_member(class, member, correction);
                if let Some(t) = trace.as_deref_mut() {
                    t.push(RestrictionEvent::TwiceApplied { class, member });
                }
            }
            em.retain(|&(class, _, _)| !twice.contains(&class));
        }
        // Lifting: flatten remaining edges to plaquette space (dropping
        // time-like edges) and solve for data errors around each red
        // plaquette.
        flattened.clear();
        for &(_, ca, cb) in em.iter() {
            let pa = self.hypergraph.check_meta(ca).id;
            let pb = self.hypergraph.check_meta(cb).id;
            if pa == pb {
                continue; // measurement-like edge
            }
            let key = if pa < pb { (pa, pb) } else { (pb, pa) };
            *flattened.entry(key).or_insert(0) ^= 1;
        }
        // Group odd edges by incident red plaquette, lifted in ascending
        // order.
        at_red.clear();
        for (&(pa, pb), &parity) in flattened.iter() {
            if parity == 0 {
                continue;
            }
            if self.ctx.plaquette_colors[pa] == 0 {
                at_red.entry(pa).or_default().push(pb);
            } else if self.ctx.plaquette_colors[pb] == 0 {
                at_red.entry(pb).or_default().push(pa);
            }
            // Edges between two non-red plaquettes cannot be lifted at
            // a red vertex and are dropped.
        }
        for (&red, odd_neighbors) in at_red.iter() {
            // Solve for the data subset of the red plaquette whose
            // boundary matches the incident edges: parity 1 toward
            // plaquettes with an odd EM edge, parity 0 toward every
            // other neighboring plaquette.
            let support = &self.ctx.plaquette_supports[red];
            let mut neighbors: Vec<usize> = support
                .iter()
                .flat_map(|&q| {
                    (0..self.ctx.plaquette_supports.len())
                        .filter(move |&u| self.ctx.plaquette_supports[u].contains(&q))
                })
                .filter(|&u| u != red)
                .collect();
            neighbors.sort_unstable();
            neighbors.dedup();
            let mut a = BitMatrix::zeros(neighbors.len(), support.len());
            let mut b = BitVec::zeros(neighbors.len());
            for (row, &u) in neighbors.iter().enumerate() {
                for (col, &q) in support.iter().enumerate() {
                    if self.ctx.plaquette_supports[u].contains(&q) {
                        a.set(row, col, true);
                    }
                }
                if odd_neighbors.contains(&u) {
                    b.set(row, true);
                }
            }
            let Some(particular) = gf2::solve(&a, &b) else {
                continue; // inconsistent local syndrome: give up here
            };
            // Minimum-weight solution: the kernel contains at least the
            // all-of-support vector (whose application is a logical),
            // so search the coset for the lightest representative.
            let kernel = gf2::nullspace(&a);
            let mut best = particular.clone();
            if kernel.rows() <= 12 {
                for mask in 1u32..(1 << kernel.rows()) {
                    let mut candidate = particular.clone();
                    for (i, row) in kernel.iter_rows().enumerate() {
                        if mask >> i & 1 == 1 {
                            candidate.xor_assign(row);
                        }
                    }
                    if candidate.weight() < best.weight() {
                        best = candidate;
                    }
                }
            }
            let mut lifted = Vec::new();
            for col in best.iter_ones() {
                let q = support[col];
                lifted.push(q);
                for &obs in &self.ctx.qubit_observables[q] {
                    correction.flip(obs as usize);
                }
            }
            if let Some(t) = trace.as_deref_mut() {
                t.push(RestrictionEvent::Lifted {
                    red,
                    qubits: lifted,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec_sim::{Circuit, DetectorMeta};

    /// A miniature "color-code-like" circuit: three plaquette checks
    /// (R, G, B) each touching data qubit 0, which carries the
    /// observable. A single data error flips all three.
    fn tiny_color_dem() -> (DetectorErrorModel, ColorCodeContext) {
        let mut c = Circuit::new(5);
        c.reset(&[0, 1, 2, 3, 4]);
        c.x_error(&[0, 1], 0.01);
        // Checks: R = {0,1} -> anc 2, G = {0} -> anc 3, B = {0} -> anc 4.
        c.cx(&[(0, 2), (1, 2), (0, 3), (0, 4)]);
        let m = c.measure(&[2, 3, 4], 0.0);
        c.add_detector(vec![m], DetectorMeta::colored_check(0, 0, 0));
        c.add_detector(vec![m + 1], DetectorMeta::colored_check(1, 0, 1));
        c.add_detector(vec![m + 2], DetectorMeta::colored_check(2, 0, 2));
        let md = c.measure(&[0, 1], 0.0);
        c.add_detector(vec![m, md, md + 1], DetectorMeta::colored_check(0, 1, 0));
        c.add_detector(vec![m + 1, md], DetectorMeta::colored_check(1, 1, 1));
        c.add_detector(vec![m + 2, md], DetectorMeta::colored_check(2, 1, 2));
        let obs = c.add_observable();
        c.include_in_observable(obs, &[md]);
        let ctx = ColorCodeContext {
            plaquette_colors: vec![0, 1, 2],
            plaquette_supports: vec![vec![0, 1], vec![0], vec![0]],
            qubit_observables: vec![vec![0], vec![]],
        };
        (DetectorErrorModel::from_circuit(&c), ctx)
    }

    #[test]
    fn single_faults_decode_correctly() {
        let (dem, ctx) = tiny_color_dem();
        let decoder = RestrictionDecoder::new(&dem, ctx, RestrictionConfig::flagged(0.01));
        for mech in dem.mechanisms() {
            let dets = BitVec::from_ones(
                dem.num_detectors(),
                mech.detectors.iter().map(|&d| d as usize),
            );
            let predicted = decoder.decode(&dets);
            let actual = BitVec::from_ones(
                dem.num_observables(),
                mech.observables.iter().map(|&o| o as usize),
            );
            assert_eq!(predicted, actual, "mechanism {mech:?}");
        }
    }

    #[test]
    fn empty_syndrome_is_identity() {
        let (dem, ctx) = tiny_color_dem();
        let decoder = RestrictionDecoder::new(&dem, ctx, RestrictionConfig::flagged(0.01));
        assert!(decoder
            .decode(&BitVec::zeros(dem.num_detectors()))
            .is_zero());
    }

    #[test]
    fn decode_into_matches_decode_with_reused_scratch() {
        let (dem, ctx) = tiny_color_dem();
        let decoder = RestrictionDecoder::new(&dem, ctx, RestrictionConfig::flagged(0.01));
        let nd = dem.num_detectors();
        let mut scratch = DecodeScratch::new();
        let mut out = BitVec::zeros(0);
        for pattern in 0..(1u32 << nd) {
            let dets = BitVec::from_ones(nd, (0..nd).filter(|&d| pattern >> d & 1 == 1));
            decoder.decode_into(&dets, &mut scratch, &mut out);
            assert_eq!(out, decoder.decode(&dets), "syndrome {pattern:#b}");
        }
    }

    /// Checks 3, 4 and 5 have no mechanism, so no lattice has an edge
    /// between any two of them: flipping two gives up on the one
    /// lattice holding both, flipping all three gives up on every
    /// lattice. Each shot keeps an empty correction and counts as one
    /// give-up.
    #[test]
    fn unmatched_lattices_count_one_giveup_per_shot() {
        let (dem, ctx) = tiny_color_dem();
        for limit in [DEFAULT_ORACLE_NODE_LIMIT, 0] {
            let config = RestrictionConfig::flagged(0.01).with_oracle_node_limit(limit);
            let decoder = RestrictionDecoder::new(&dem, ctx.clone(), config);
            for (shots, checks) in [(1, vec![3, 4]), (2, vec![3, 4, 5])] {
                let dets = BitVec::from_ones(dem.num_detectors(), checks);
                assert!(decoder.decode(&dets).is_zero(), "limit {limit}");
                let stats = decoder.stats();
                assert_eq!((stats.giveups_unmatched, stats.giveups()), (shots, shots));
            }
        }
    }

    /// Both path tiers stay exercised and bit-identical: the default
    /// config serves every lattice from its dense oracle, a `0` node
    /// limit from its sparse finder, and every syndrome decodes to the
    /// same correction either way.
    #[test]
    fn oracle_and_sparse_tiers_agree_exhaustively() {
        let (dem, ctx) = tiny_color_dem();
        let dense = RestrictionDecoder::new(&dem, ctx.clone(), RestrictionConfig::flagged(0.01));
        assert!((0..3).all(|l| dense.path_oracle(l).is_some()));
        let sparse = RestrictionDecoder::new(
            &dem,
            ctx,
            RestrictionConfig::flagged(0.01).with_oracle_node_limit(0),
        );
        assert!((0..3).all(|l| sparse.path_oracle(l).is_none()));
        assert!((0..3).all(|l| sparse.sparse_finder(l).is_some()));
        let nd = dem.num_detectors();
        let mut scratch = DecodeScratch::new();
        let mut out = BitVec::zeros(0);
        for pattern in 0..(1u32 << nd) {
            let dets = BitVec::from_ones(nd, (0..nd).filter(|&d| pattern >> d & 1 == 1));
            sparse.decode_into(&dets, &mut scratch, &mut out);
            assert_eq!(out, dense.decode(&dets), "syndrome {pattern:#b}");
        }
        let (dense_stats, sparse_stats) = (dense.stats(), sparse.stats());
        assert!(dense_stats.oracle_hits > 0);
        assert!(sparse_stats.sparse_blossom > 0 && sparse_stats.oracle_hits == 0);
        assert_eq!(dense_stats.oracle_misses + sparse_stats.oracle_misses, 0);
        assert_eq!(dense_stats.decodes, sparse_stats.decodes);
    }

    /// Each lattice's total matching weight on `dets`, priced exactly
    /// as `decode` prices it (`None` for a lattice it skips or gives
    /// up on).
    fn lattice_weights(
        decoder: &RestrictionDecoder,
        dets: &BitVec,
        sc: &mut MatchingScratch,
    ) -> Vec<Option<i64>> {
        let MatchingScratch {
            checks,
            flags,
            overrides,
            weights,
            engine,
            sources,
            ..
        } = sc;
        decoder.hypergraph.split_shot_into(dets, checks, flags);
        let pricing = decoder
            .pricing
            .price_shot(&decoder.hypergraph, flags, overrides, weights);
        let mut out = Vec::new();
        for lattice in &decoder.lattices {
            sources.clear();
            sources.extend(checks.iter().filter_map(|&c| lattice.vertex_of[c]));
            out.push(
                (sources.len() % 2 == 0)
                    .then(|| {
                        lattice.engine.solve(
                            sources,
                            pricing,
                            engine,
                            &decoder.counters,
                            |_, _, _| {},
                        )
                    })
                    .flatten(),
            );
        }
        out
    }

    /// With the oracles disabled, the grown route and every lattice with
    /// grown shots forced onto the complete instance decode every
    /// syndrome of `shots` to the same correction as the default
    /// decoder, at the same per-lattice matching weight and with the
    /// same tier counts.
    fn assert_routes_agree(
        dem: &DetectorErrorModel,
        ctx: &ColorCodeContext,
        config: RestrictionConfig,
        shots: &[BitVec],
    ) {
        let csr = config.with_oracle_node_limit(0);
        let graph = RestrictionDecoder::new(dem, ctx.clone(), csr);
        let mut complete = RestrictionDecoder::new(dem, ctx.clone(), csr);
        for lattice in &mut complete.lattices {
            lattice.engine.force_complete_pricing();
        }
        let routed = RestrictionDecoder::new(dem, ctx.clone(), config);
        let mut scratch = DecodeScratch::new();
        let mut sc = MatchingScratch::default();
        let mut out = BitVec::zeros(0);
        let mut nonempty = 0;
        for dets in shots {
            let reference = complete.decode(dets);
            graph.decode_into(dets, &mut scratch, &mut out);
            assert_eq!(out, reference, "graph-native route, syndrome {dets:?}");
            assert_eq!(routed.decode(dets), reference, "routed, syndrome {dets:?}");
            assert_eq!(
                lattice_weights(&graph, dets, &mut sc),
                lattice_weights(&complete, dets, &mut sc),
                "lattice matching weights, syndrome {dets:?}"
            );
            nonempty += u64::from(!sc.checks.is_empty());
        }
        let (g, r) = (graph.stats(), routed.stats());
        assert_eq!(complete.stats(), g);
        assert_eq!((g.oracle_hits, g.sparse_blossom), (0, nonempty));
        assert_eq!(r.oracle_hits + r.sparse_blossom, nonempty);
    }

    /// `qec_testkit::toric_color_dem`. The fixture's context type comes
    /// from the non-test build of this crate; copy it field by field.
    fn toric_color_dem() -> (DetectorErrorModel, ColorCodeContext, f64) {
        let (dem, ctx, pm) = qec_testkit::toric_color_dem();
        let ctx = ColorCodeContext {
            plaquette_colors: ctx.plaquette_colors,
            plaquette_supports: ctx.plaquette_supports,
            qubit_observables: ctx.qubit_observables,
        };
        (dem, ctx, pm)
    }

    /// Every syndrome of the tiny color fixture, and realistic
    /// multi-error syndromes on the toric color DEM: the CSR route
    /// agrees with the complete instance on every restricted lattice.
    #[test]
    fn csr_routes_agree_on_color_dems() {
        use qec_math::rng::Xoshiro256StarStar;
        let (dem, ctx) = tiny_color_dem();
        let nd = dem.num_detectors();
        let shots: Vec<BitVec> = (0..(1u32 << nd))
            .map(|pattern| BitVec::from_ones(nd, (0..nd).filter(|&d| pattern >> d & 1 == 1)))
            .collect();
        assert_routes_agree(&dem, &ctx, RestrictionConfig::flagged(0.01), &shots);
        let (dem, ctx, pm) = toric_color_dem();
        let q = qec_testkit::mechanism_fire_probability(&dem, 8.0);
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x2047c0);
        let shots: Vec<BitVec> = (0..24)
            .map(|_| qec_testkit::random_syndrome(&mut rng, &dem, q))
            .collect();
        for config in [
            RestrictionConfig::flagged(pm),
            RestrictionConfig::chamberland(pm),
        ] {
            assert_routes_agree(&dem, &ctx, config, &shots);
        }
    }

    /// The trace lists twice-used classes and lifted red plaquettes in
    /// ascending order, not in hash order: two calls on one decoder,
    /// and one call on a separately built decoder, give the same events
    /// on random toric color syndromes under both rule sets.
    #[test]
    fn trace_events_are_deterministic() {
        use qec_math::rng::Xoshiro256StarStar;
        let (dem, ctx, pm) = toric_color_dem();
        let q = qec_testkit::mechanism_fire_probability(&dem, 8.0);
        for config in [
            RestrictionConfig::flagged(pm),
            RestrictionConfig::chamberland(pm),
        ] {
            let decoder = RestrictionDecoder::new(&dem, ctx.clone(), config);
            let rebuilt = RestrictionDecoder::new(&dem, ctx.clone(), config);
            let mut rng = Xoshiro256StarStar::seed_from_u64(0x7ACE);
            for shot in 0..64 {
                let syndrome = qec_testkit::random_syndrome(&mut rng, &dem, q);
                let (correction, events) = decoder.decode_with_trace(&syndrome);
                for again in [
                    decoder.decode_with_trace(&syndrome),
                    rebuilt.decode_with_trace(&syndrome),
                ] {
                    assert_eq!(again.0, correction, "shot {shot}");
                    assert_eq!(again.1, events, "shot {shot}: event order moved");
                }
            }
        }
    }
}
