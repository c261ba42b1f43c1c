//! The flagged MWPM decoder (§VI-C) and its unflagged baseline.

use crate::engine::{ClassPricing, MatchingEngine};
use crate::hypergraph::DecodingHypergraph;
use crate::paths::{PathOracle, SparsePathFinder, DEFAULT_ORACLE_NODE_LIMIT};
use crate::scratch::{DecodeScratch, MatchingCounters, MatchingScratch};
use crate::{Decoder, DecoderStats};
use qec_math::BitVec;
use qec_obs::Registry;
use qec_sim::DetectorErrorModel;

/// Configuration of [`MwpmDecoder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MwpmConfig {
    /// Use the flag syndrome to choose class representatives and
    /// reweight edges. Disabled = the PyMatching-equivalent baseline.
    pub flag_conditioning: bool,
    /// Measurement error probability `p_M` used to price flag
    /// mismatches (Eq. 9).
    pub measurement_error_probability: f64,
    /// Precompute a [`PathOracle`] when the decoding graph has at most
    /// this many vertices (O(V²) storage); it serves the shots without
    /// flag reweighting. Every other shot, and every shot on a larger
    /// graph, is matched on the [`SparsePathFinder`]'s CSR graph.
    /// `0` disables the oracle.
    pub oracle_node_limit: usize,
}

impl MwpmConfig {
    /// The paper's flagged decoder.
    pub fn flagged(p_m: f64) -> Self {
        MwpmConfig {
            flag_conditioning: true,
            measurement_error_probability: p_m,
            oracle_node_limit: DEFAULT_ORACLE_NODE_LIMIT,
        }
    }

    /// Plain MWPM ignoring flag information.
    pub fn unflagged() -> Self {
        MwpmConfig {
            flag_conditioning: false,
            measurement_error_probability: 0.5,
            oracle_node_limit: DEFAULT_ORACLE_NODE_LIMIT,
        }
    }

    /// Overrides the oracle node limit (the memory guard); `0` sends
    /// every shot to the CSR graph.
    pub fn with_oracle_node_limit(mut self, limit: usize) -> Self {
        self.oracle_node_limit = limit;
        self
    }
}

/// Minimum-weight perfect-matching decoder over the decoding graph
/// derived from the equivalence classes: each class with `|σ| = 1`
/// becomes a boundary edge, `|σ| = 2` a normal edge, `|σ| > 2` a
/// clique (Fig. 16(a)). One matching engine matches the defects:
/// path weights come from the precomputed [`PathOracle`] when no flag
/// reweighting is in effect (the hot case), and from the
/// [`SparsePathFinder`]'s CSR graph with flag-conditioned class weights
/// otherwise.
#[derive(Debug)]
pub struct MwpmDecoder {
    hypergraph: DecodingHypergraph,
    pricing: ClassPricing,
    /// The decoding graph; vertex `num_check` is the virtual boundary
    /// when present.
    engine: MatchingEngine,
    /// Metrics registry the counters and build gauges live in; private
    /// unless the decoder was built via [`MwpmDecoder::with_metrics`].
    metrics: Registry,
    counters: MatchingCounters,
}

impl MwpmDecoder {
    /// Builds the decoder from a detector error model, with a private
    /// metrics registry.
    pub fn new(dem: &DetectorErrorModel, config: MwpmConfig) -> Self {
        Self::with_metrics(dem, config, Registry::new())
    }

    /// Builds the decoder recording into a caller-supplied metrics
    /// registry. Metric names are interned, so building a decoder
    /// against a registry an earlier decoder used (one decoder per
    /// sweep point) continues the existing counter series instead of
    /// starting over.
    pub fn with_metrics(dem: &DetectorErrorModel, config: MwpmConfig, metrics: Registry) -> Self {
        metrics.counter("decoder.constructions").inc();
        let hypergraph = DecodingHypergraph::new(dem);
        let pricing = ClassPricing::new(
            &hypergraph,
            config.flag_conditioning,
            config.measurement_error_probability,
        );
        let num_check = hypergraph.num_check_detectors();
        let has_boundary = hypergraph.classes().iter().any(|c| c.sigma.len() == 1);
        let boundary = num_check;
        let mut adjacency = vec![Vec::new(); num_check + usize::from(has_boundary)];
        for (ci, class) in hypergraph.classes().iter().enumerate() {
            match class.sigma.len() {
                0 => {}
                1 => {
                    let v = class.sigma[0] as usize;
                    adjacency[v].push((boundary, ci));
                    adjacency[boundary].push((v, ci));
                }
                _ => {
                    for (i, &a) in class.sigma.iter().enumerate() {
                        for &b in &class.sigma[i + 1..] {
                            adjacency[a as usize].push((b as usize, ci));
                            adjacency[b as usize].push((a as usize, ci));
                        }
                    }
                }
            }
        }
        let engine = MatchingEngine::build(
            &adjacency,
            pricing.base_weights(),
            has_boundary.then_some(boundary),
            config.oracle_node_limit,
            &metrics,
            None,
        );
        let counters = MatchingCounters::register(&metrics);
        MwpmDecoder {
            hypergraph,
            pricing,
            engine,
            metrics,
            counters,
        }
    }

    /// The underlying hypergraph.
    pub fn hypergraph(&self) -> &DecodingHypergraph {
        &self.hypergraph
    }

    /// The precomputed path oracle, when the decoding graph fits the
    /// configured node limit.
    pub fn path_oracle(&self) -> Option<&PathOracle> {
        self.engine.oracle()
    }

    /// The CSR sparse path finder; absent only when the decoding graph
    /// has no vertices.
    pub fn sparse_finder(&self) -> Option<&SparsePathFinder> {
        self.engine.sparse()
    }

    /// The decoding graph's matching engine.
    #[cfg(test)]
    pub(crate) fn engine(&self) -> &MatchingEngine {
        &self.engine
    }
}

/// One edge of a decoding explanation: which class/member was applied
/// along a matched path and at what weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEdge {
    /// Equivalence-class index.
    pub class: usize,
    /// Chosen member within the class.
    pub member: usize,
    /// Edge weight used.
    pub weight: f64,
    /// Path endpoints in check space (`usize::MAX` = boundary).
    pub from: usize,
    /// See `from`.
    pub to: usize,
}

impl MwpmDecoder {
    /// Decodes like [`Decoder::decode`] but also returns the matched
    /// path edges, for diagnostics and tooling.
    pub fn decode_with_trace(&self, detectors: &BitVec) -> (BitVec, Vec<TraceEdge>) {
        let mut trace = Vec::new();
        let mut sc = MatchingScratch::default();
        let mut correction = BitVec::zeros(0);
        self.decode_core(detectors, &mut sc, &mut correction, Some(&mut trace));
        (correction, trace)
    }
}

impl Decoder for MwpmDecoder {
    fn decode_into(&self, detectors: &BitVec, scratch: &mut DecodeScratch, out: &mut BitVec) {
        self.decode_core(detectors, &mut scratch.mwpm, out, None);
    }

    fn stats(&self) -> DecoderStats {
        self.counters.snapshot()
    }

    fn metrics(&self) -> Option<&Registry> {
        Some(&self.metrics)
    }

    fn num_observables(&self) -> usize {
        self.hypergraph.num_observables()
    }

    fn num_detectors(&self) -> usize {
        self.hypergraph.num_detectors()
    }
}

impl MwpmDecoder {
    /// The shared decode body of `decode_into` and `decode_with_trace`.
    fn decode_core(
        &self,
        detectors: &BitVec,
        sc: &mut MatchingScratch,
        correction: &mut BitVec,
        mut trace: Option<&mut Vec<TraceEdge>>,
    ) {
        let MatchingScratch {
            checks,
            flags,
            overrides,
            weights,
            engine,
            ..
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
        self.counters
            .count_tier(self.engine.route(pricing, checks.len()));
        let classes = self.hypergraph.classes();
        // A shot without a perfect matching is given up: the correction
        // stays empty.
        let matched = self.engine.solve(
            checks,
            pricing,
            engine,
            &self.counters,
            |prev, cur, class| {
                let (member, weight) = self.pricing.member(class, overrides);
                for &obs in &classes[class].members[member].observables {
                    correction.flip(obs as usize);
                }
                if let Some(t) = trace.as_deref_mut() {
                    t.push(TraceEdge {
                        class,
                        member,
                        weight,
                        from: prev,
                        to: cur,
                    });
                }
            },
        );
        if matched.is_none() {
            self.counters.giveups_unmatched.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec_sim::{Circuit, DetectorMeta};

    /// 3-qubit repetition code, one round, with boundary-like ends:
    /// data 0,1,2; checks (0,1) and (1,2); observable on qubit 0.
    fn repetition_dem(p: f64) -> DetectorErrorModel {
        let mut c = Circuit::new(5);
        c.reset(&[0, 1, 2, 3, 4]);
        c.x_error(&[0, 1, 2], p);
        c.cx(&[(0, 3), (1, 3), (1, 4), (2, 4)]);
        let m = c.measure(&[3, 4], 0.0);
        c.add_detector(vec![m], DetectorMeta::check(0, 0));
        c.add_detector(vec![m + 1], DetectorMeta::check(1, 0));
        let md = c.measure(&[0, 1, 2], 0.0);
        c.add_detector(vec![m, md, md + 1], DetectorMeta::check(0, 1));
        c.add_detector(vec![m + 1, md + 1, md + 2], DetectorMeta::check(1, 1));
        let obs = c.add_observable();
        c.include_in_observable(obs, &[md]);
        DetectorErrorModel::from_circuit(&c)
    }

    #[test]
    fn single_faults_decode_correctly() {
        let dem = repetition_dem(0.01);
        let decoder = MwpmDecoder::new(&dem, MwpmConfig::unflagged());
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
    fn empty_syndrome_gives_no_correction() {
        let dem = repetition_dem(0.01);
        let decoder = MwpmDecoder::new(&dem, MwpmConfig::unflagged());
        let out = decoder.decode(&BitVec::zeros(dem.num_detectors()));
        assert!(out.is_zero());
    }

    #[test]
    fn decode_into_matches_decode_with_reused_scratch() {
        let dem = repetition_dem(0.01);
        let decoder = MwpmDecoder::new(&dem, MwpmConfig::unflagged());
        let nd = dem.num_detectors();
        let mut scratch = DecodeScratch::new();
        let mut out = BitVec::zeros(0);
        for pattern in 0..(1u32 << nd) {
            let dets = BitVec::from_ones(nd, (0..nd).filter(|&d| pattern >> d & 1 == 1));
            decoder.decode_into(&dets, &mut scratch, &mut out);
            assert_eq!(out, decoder.decode(&dets), "syndrome {pattern:#b}");
        }
    }

    /// Both path tiers stay exercised and bit-identical: the default
    /// config answers every nonzero syndrome from the dense oracle, a
    /// `0` node limit from the sparse finder, and every syndrome
    /// decodes to the same correction either way.
    #[test]
    fn oracle_and_sparse_tiers_agree_exhaustively() {
        let dem = repetition_dem(0.01);
        let dense = MwpmDecoder::new(&dem, MwpmConfig::unflagged());
        assert!(dense.path_oracle().is_some());
        let sparse = MwpmDecoder::new(&dem, MwpmConfig::unflagged().with_oracle_node_limit(0));
        assert!(sparse.path_oracle().is_none());
        assert!(sparse.sparse_finder().is_some());
        let nd = dem.num_detectors();
        let mut scratch = DecodeScratch::new();
        let mut out = BitVec::zeros(0);
        for pattern in 0..(1u32 << nd) {
            let dets = BitVec::from_ones(nd, (0..nd).filter(|&d| pattern >> d & 1 == 1));
            sparse.decode_into(&dets, &mut scratch, &mut out);
            assert_eq!(out, dense.decode(&dets), "syndrome {pattern:#b}");
        }
        let (dense_stats, sparse_stats) = (dense.stats(), sparse.stats());
        assert!(dense_stats.oracle_hits > 0 && dense_stats.sparse_hits == 0);
        assert!(sparse_stats.sparse_hits > 0 && sparse_stats.oracle_hits == 0);
        assert_eq!(dense_stats.oracle_misses + sparse_stats.oracle_misses, 0);
        assert_eq!(dense_stats.decodes, sparse_stats.decodes);
    }

    /// Degenerate DEMs decode or give up cleanly on both tiers: an
    /// empty DEM decodes the all-zero syndrome to an empty correction,
    /// and on detectors without mechanisms (vertices, no edges) a
    /// shot that cannot be matched returns an empty correction instead
    /// of panicking.
    #[test]
    fn degenerate_dems_decode_or_give_up_cleanly() {
        let empty = DetectorErrorModel::from_circuit(&Circuit::new(1));
        let decoder = MwpmDecoder::new(&empty, MwpmConfig::flagged(0.01));
        assert_eq!(decoder.num_detectors(), 0);
        assert!(decoder.sparse_finder().is_none());
        assert_eq!(decoder.decode(&BitVec::zeros(0)), BitVec::zeros(0));

        let mut c = Circuit::new(3);
        c.reset(&[0, 1, 2]);
        let m = c.measure(&[0, 1, 2], 0.0);
        for i in 0..3 {
            c.add_detector(vec![m + i], DetectorMeta::check(i, 0));
        }
        let edgeless = DetectorErrorModel::from_circuit(&c);
        for limit in [DEFAULT_ORACLE_NODE_LIMIT, 0] {
            let decoder = MwpmDecoder::new(
                &edgeless,
                MwpmConfig::unflagged().with_oracle_node_limit(limit),
            );
            assert_eq!(decoder.path_oracle().is_some(), limit > 0);
            let mut scratch = DecodeScratch::new();
            let mut out = BitVec::zeros(0);
            for pattern in 1..8u32 {
                let dets = BitVec::from_ones(3, (0..3).filter(|&d| pattern >> d & 1 == 1));
                decoder.decode_into(&dets, &mut scratch, &mut out);
                assert!(out.is_zero(), "limit {limit}, syndrome {pattern:#b}");
            }
        }
    }

    /// The total matching weight `decoder`'s engine reaches on `dets`,
    /// priced exactly as `decode` prices it.
    fn matching_weight(
        decoder: &MwpmDecoder,
        dets: &BitVec,
        sc: &mut MatchingScratch,
    ) -> Option<i64> {
        let MatchingScratch {
            checks,
            flags,
            overrides,
            weights,
            engine,
            ..
        } = sc;
        decoder.hypergraph.split_shot_into(dets, checks, flags);
        let pricing = decoder
            .pricing
            .price_shot(&decoder.hypergraph, flags, overrides, weights);
        decoder
            .engine
            .solve(checks, pricing, engine, &decoder.counters, |_, _, _| {})
    }

    /// Decodes `shots` with the oracle disabled — on the CSR routes and
    /// with grown shots forced onto the complete instance — and through
    /// the default routed decoder. Corrections must be bitwise equal and
    /// both CSR decoders must reach the same total matching weight and
    /// count the same tiers. Returns the routed decoder's stats.
    fn assert_routes_agree(
        dem: &DetectorErrorModel,
        config: MwpmConfig,
        shots: &[BitVec],
    ) -> DecoderStats {
        let csr = config.with_oracle_node_limit(0);
        let graph = MwpmDecoder::new(dem, csr);
        let mut complete = MwpmDecoder::new(dem, csr);
        complete.engine.force_complete_pricing();
        let routed = MwpmDecoder::new(dem, config);
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
                matching_weight(&graph, dets, &mut sc),
                matching_weight(&complete, dets, &mut sc),
                "matching weight, syndrome {dets:?}"
            );
            nonempty += u64::from(!sc.checks.is_empty());
        }
        let g = graph.stats();
        assert_eq!(complete.stats(), g);
        assert_eq!(
            (g.oracle_hits, g.sparse_hits + g.sparse_blossom),
            (0, nonempty)
        );
        let r = routed.stats();
        assert_eq!(r.oracle_hits + r.sparse_hits + r.sparse_blossom, nonempty);
        r
    }

    /// Every syndrome of the repetition fixture, unflagged and flagged:
    /// the CSR route agrees with the complete instance.
    #[test]
    fn csr_routes_agree_exhaustively() {
        let dem = repetition_dem(0.01);
        let nd = dem.num_detectors();
        let shots: Vec<BitVec> = (0..(1u32 << nd))
            .map(|pattern| BitVec::from_ones(nd, (0..nd).filter(|&d| pattern >> d & 1 == 1)))
            .collect();
        for config in [MwpmConfig::unflagged(), MwpmConfig::flagged(0.01)] {
            assert_routes_agree(&dem, config, &shots);
        }
    }

    /// Realistic multi-error syndromes on the d=3 surface DEM (boundary
    /// matches, oracle present) and the hyperbolic fixture (no
    /// boundary, above the oracle guard), unflagged and flagged: the CSR
    /// route agrees with the complete instance, and the routed default
    /// decoder certifies the hyperbolic fixture's many-defect shots.
    #[test]
    fn csr_routes_agree_on_surface_and_hyperbolic_dems() {
        use qec_math::rng::Xoshiro256StarStar;
        for (dem, cases, seed) in [
            (qec_testkit::surface_memory_dem(3), 32, 0x2047e3),
            (qec_testkit::hyperbolic_memory_dem(), 8, 0x2047e4),
        ] {
            let q = qec_testkit::mechanism_fire_probability(&dem, 6.0);
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            let shots: Vec<BitVec> = (0..cases)
                .map(|_| qec_testkit::random_syndrome(&mut rng, &dem, q))
                .collect();
            for config in [MwpmConfig::unflagged(), MwpmConfig::flagged(1e-3)] {
                let routed = assert_routes_agree(&dem, config, &shots);
                if dem.num_detectors() > DEFAULT_ORACLE_NODE_LIMIT {
                    assert!(routed.sparse_blossom > 0, "{config:?}");
                }
            }
        }
    }

    /// Two disconnected triangles of checks without a boundary, all
    /// six checks flipped: more defects than a small shot, an even
    /// total, but three in each component, so no perfect matching
    /// exists. The CSR route, the complete instance and
    /// the routed default give up with an empty correction, and the
    /// give-up is counted.
    #[test]
    fn odd_components_give_up_on_both_routes() {
        // Data qubit 3t + k flips checks 3t + k and 3t + (k + 1) % 3.
        let mut c = Circuit::new(12);
        c.reset(&(0..12).collect::<Vec<_>>());
        c.x_error(&(0..6).collect::<Vec<_>>(), 0.01);
        let mut gates = Vec::new();
        for t in 0..2 {
            for k in 0..3 {
                gates.push((3 * t + k, 6 + 3 * t + k));
                gates.push((3 * t + k, 6 + 3 * t + (k + 1) % 3));
            }
        }
        c.cx(&gates);
        let m = c.measure(&(6..12).collect::<Vec<_>>(), 0.0);
        for i in 0..6 {
            c.add_detector(vec![m + i], DetectorMeta::check(i, 0));
        }
        let md = c.measure(&[0], 0.0);
        let obs = c.add_observable();
        c.include_in_observable(obs, &[md]);
        let dem = DetectorErrorModel::from_circuit(&c);
        let all = BitVec::from_ones(6, 0..6);
        let pair = BitVec::from_ones(6, [0, 1]);
        assert_routes_agree(&dem, MwpmConfig::unflagged(), &[all.clone(), pair.clone()]);
        for limit in [DEFAULT_ORACLE_NODE_LIMIT, 0] {
            let config = MwpmConfig::unflagged().with_oracle_node_limit(limit);
            let decoder = MwpmDecoder::new(&dem, config);
            // A matchable pair: the fixture has edges.
            assert_eq!(decoder.decode(&pair), BitVec::from_ones(1, [0]));
            assert!(decoder.decode(&all).is_zero(), "limit {limit}");
            let stats = decoder.stats();
            assert_eq!(
                (stats.oracle_hits, stats.sparse_hits, stats.sparse_blossom),
                if limit > 0 { (2, 0, 0) } else { (0, 1, 1) }
            );
            // Only the unmatchable shot is counted as given up.
            assert_eq!((stats.giveups_unmatched, stats.giveups()), (1, 1));
        }
    }
}
