//! A Union-Find decoder (Delfosse–Nickerson) over the equivalence-class
//! decoding graph.
//!
//! Union-Find is the standard almost-linear-time alternative to MWPM:
//! clusters grow from flipped detectors half an edge at a time, merge
//! when they touch, and stop once every cluster has even parity (or
//! touches the boundary); a spanning-forest peeling then reads out the
//! correction. Accuracy is slightly below MWPM at the same noise — the
//! ablation benchmark `exp_ablation_decoders` quantifies the gap on
//! FPN circuits.
//!
//! Each graphlike class (`|σ| ≤ 2`) is one edge: classes are keyed by
//! σ, so no two share a vertex pair. Flags are priced by the same
//! class pricing as in [`crate::MwpmDecoder`]: raised flags re-select
//! each affected class's representative, which decides the Pauli frames
//! applied during peeling.
//!
//! Cluster state lives in a caller-owned [`DecodeScratch`], growth
//! scans only the frontier (edges incident to active clusters,
//! discovered through the per-vertex adjacency), and the scratch is
//! reset in *O(touched)* between shots. The output is bit-identical to
//! `qec-testkit`'s allocating reference, which scans every edge each
//! growth round (golden- and property-tested).

use crate::engine::ClassPricing;
use crate::hypergraph::DecodingHypergraph;
use crate::scratch::{DecodeScratch, UfScratch};
use crate::{Decoder, DecoderStats};
use qec_math::BitVec;
use qec_obs::{Counter, Registry};
use qec_sim::DetectorErrorModel;

/// Configuration of [`UnionFindDecoder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnionFindConfig {
    /// Use the flag syndrome to choose class representatives.
    pub flag_conditioning: bool,
    /// Measurement error probability `p_M` for flag-mismatch pricing.
    pub measurement_error_probability: f64,
}

impl UnionFindConfig {
    /// Flag-aware Union-Find.
    pub fn flagged(p_m: f64) -> Self {
        UnionFindConfig {
            flag_conditioning: true,
            measurement_error_probability: p_m,
        }
    }

    /// Flag-blind Union-Find.
    pub fn unflagged() -> Self {
        UnionFindConfig {
            flag_conditioning: false,
            measurement_error_probability: 0.5,
        }
    }
}

/// Edge-state bits used by the scratch path.
const IN_FRONTIER: u8 = 1;
const IN_FOREST: u8 = 2;
const REMOVED: u8 = 4;

/// Union-Find decoder over the graphlike (`|σ| ≤ 2`) classes of a
/// detector error model.
#[derive(Debug)]
pub struct UnionFindDecoder {
    hypergraph: DecodingHypergraph,
    pricing: ClassPricing,
    /// Edge endpoints `(u, v)` and the edge's class, in class order;
    /// `v == boundary` marks boundary edges.
    edges: Vec<(usize, usize, usize)>,
    /// `adjacency[v]`: incident edge ids, ascending.
    adjacency: Vec<Vec<usize>>,
    boundary: usize,
    /// Metrics registry the counters live in; private unless the
    /// decoder was built via [`UnionFindDecoder::with_metrics`].
    metrics: Registry,
    decodes: Counter,
    giveups_stalled: Counter,
    giveups_round_limit: Counter,
}

impl UnionFindDecoder {
    /// Builds the decoder from a detector error model, with a private
    /// metrics registry.
    pub fn new(dem: &DetectorErrorModel, config: UnionFindConfig) -> Self {
        Self::with_metrics(dem, config, Registry::new())
    }

    /// Builds the decoder recording into a caller-supplied metrics
    /// registry. Metric names are interned, so building against a
    /// registry an earlier decoder used (one decoder per sweep point)
    /// continues the existing counter series.
    pub fn with_metrics(
        dem: &DetectorErrorModel,
        config: UnionFindConfig,
        metrics: Registry,
    ) -> Self {
        metrics.counter("decoder.constructions").inc();
        let hypergraph = DecodingHypergraph::new(dem);
        let pricing = ClassPricing::new(
            &hypergraph,
            config.flag_conditioning,
            config.measurement_error_probability,
        );
        let boundary = hypergraph.num_check_detectors();
        let mut edges = Vec::new();
        let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); boundary + 1];
        for (ci, class) in hypergraph.classes().iter().enumerate() {
            let (u, v) = match class.sigma.len() {
                1 => (class.sigma[0] as usize, boundary),
                2 => (class.sigma[0] as usize, class.sigma[1] as usize),
                _ => continue,
            };
            adjacency[u].push(edges.len());
            adjacency[v].push(edges.len());
            edges.push((u, v, ci));
        }
        UnionFindDecoder {
            hypergraph,
            pricing,
            edges,
            adjacency,
            boundary,
            decodes: metrics.counter("decode.decodes"),
            giveups_stalled: metrics.counter("decode.giveups.stalled"),
            giveups_round_limit: metrics.counter("decode.giveups.round_limit"),
            metrics,
        }
    }

    /// The underlying hypergraph.
    pub fn hypergraph(&self) -> &DecodingHypergraph {
        &self.hypergraph
    }

    /// Number of decoding-graph edges, one per graphlike class.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }
}

/// Path-halving find over the scratch parent array.
fn find(parent: &mut [u32], mut x: usize) -> usize {
    while parent[x] as usize != x {
        parent[x] = parent[parent[x] as usize];
        x = parent[x] as usize;
    }
    x
}

/// Union by size of two roots.
fn union_roots(parent: &mut [u32], size: &mut [u32], mut ra: usize, mut rb: usize) {
    if size[ra] < size[rb] {
        std::mem::swap(&mut ra, &mut rb);
    }
    parent[rb] = ra as u32;
    size[ra] += size[rb];
}

impl Decoder for UnionFindDecoder {
    fn decode_into(&self, detectors: &BitVec, scratch: &mut DecodeScratch, out: &mut BitVec) {
        self.decodes.inc();
        out.reset_zeros(self.hypergraph.num_observables());
        let n = self.boundary + 1;
        let sc: &mut UfScratch = &mut scratch.uf;
        sc.ensure(n, self.edges.len());
        // O(touched) reset of the previous shot's state: only vertices
        // and edges recorded in the reset lists were ever modified.
        for &v in &sc.touched {
            sc.parent[v] = v as u32;
            sc.size[v] = 1;
            sc.flipped[v] = false;
            sc.degree[v] = 0;
        }
        for &e in &sc.frontier {
            sc.growth[e] = 0;
            sc.edge_state[e] = 0;
        }
        for &r in &sc.odd_roots {
            sc.odd[r] = false;
        }
        sc.touched.clear();
        sc.frontier.clear();
        sc.active.clear();
        sc.forest.clear();
        sc.odd_roots.clear();
        sc.stack.clear();
        sc.to_merge.clear();
        self.hypergraph
            .split_shot_into(detectors, &mut sc.checks, &mut sc.flags);
        if sc.checks.is_empty() {
            return;
        }
        self.pricing
            .override_shot(&self.hypergraph, &sc.flags, &mut sc.overrides);
        // Seed defects and the frontier: every edge incident to a
        // cluster member is in the frontier, so growth scans only the
        // neighbourhood of active clusters, never the whole graph.
        for &c in &sc.checks {
            sc.flipped[c] = true;
            sc.touched.push(c);
            for &e in &self.adjacency[c] {
                if sc.edge_state[e] & IN_FRONTIER == 0 {
                    sc.edge_state[e] |= IN_FRONTIER;
                    sc.frontier.push(e);
                    sc.active.push(e);
                }
            }
        }
        let mut rounds = 0usize;
        let mut gave_up = false;
        loop {
            // Cluster parity over the defects, tracked incrementally.
            for &r in &sc.odd_roots {
                sc.odd[r] = false;
            }
            sc.odd_roots.clear();
            let mut odd_count = 0usize;
            for i in 0..sc.checks.len() {
                let c = sc.checks[i];
                let r = find(&mut sc.parent, c);
                sc.odd_roots.push(r);
                if sc.odd[r] {
                    sc.odd[r] = false;
                    odd_count -= 1;
                } else {
                    sc.odd[r] = true;
                    odd_count += 1;
                }
            }
            let boundary_root = find(&mut sc.parent, self.boundary);
            if sc.odd[boundary_root] {
                sc.odd[boundary_root] = false;
                odd_count -= 1;
            }
            if odd_count == 0 {
                break;
            }
            rounds += 1;
            if rounds > 4 * n {
                gave_up = true;
                self.giveups_round_limit.inc();
                break;
            }
            // Grow the frontier edges with an odd endpoint. Fully grown
            // edges leave the active list; the frontier list keeps them
            // for the next shot's reset.
            sc.to_merge.clear();
            let mut grew = false;
            let mut kept = 0usize;
            for i in 0..sc.active.len() {
                let e = sc.active[i];
                if sc.growth[e] >= 2 {
                    continue;
                }
                let (u, v, _) = self.edges[e];
                let ru = find(&mut sc.parent, u);
                let rv = find(&mut sc.parent, v);
                let grow_u = sc.odd[ru];
                let grow_v = sc.odd[rv];
                if grow_u || grow_v {
                    grew = true;
                    sc.growth[e] += if grow_u && grow_v { 2 } else { 1 };
                    if sc.growth[e] >= 2 {
                        sc.growth[e] = 2;
                        sc.to_merge.push(e);
                    }
                }
                sc.active[kept] = e;
                kept += 1;
            }
            sc.active.truncate(kept);
            if !grew {
                gave_up = true;
                self.giveups_stalled.inc();
                break;
            }
            // Merge in ascending edge order — the reference decoder
            // scans edges in index order, and the forest (hence the
            // peeled correction) depends on it.
            sc.to_merge.sort_unstable();
            for i in 0..sc.to_merge.len() {
                let e = sc.to_merge[i];
                let (u, v, _) = self.edges[e];
                let ru = find(&mut sc.parent, u);
                let rv = find(&mut sc.parent, v);
                if ru != rv {
                    union_roots(&mut sc.parent, &mut sc.size, ru, rv);
                    sc.edge_state[e] |= IN_FOREST;
                    sc.forest.push(e);
                    sc.touched.push(u);
                    sc.touched.push(v);
                }
                // A merged edge extends its cluster to both endpoints:
                // their whole neighbourhoods join the frontier.
                for w in [u, v] {
                    for &e2 in &self.adjacency[w] {
                        if sc.edge_state[e2] & IN_FRONTIER == 0 {
                            sc.edge_state[e2] |= IN_FRONTIER;
                            sc.frontier.push(e2);
                            sc.active.push(e2);
                        }
                    }
                }
            }
        }
        for &r in &sc.odd_roots {
            sc.odd[r] = false;
        }
        sc.odd_roots.clear();
        // Peeling over the forest edges, leaf order identical to the
        // reference decoder (ascending initial leaves, stack pops last).
        for &e in &sc.forest {
            let (u, v, _) = self.edges[e];
            sc.degree[u] += 1;
            sc.degree[v] += 1;
        }
        sc.peel_seed.clear();
        for &e in &sc.forest {
            let (u, v, _) = self.edges[e];
            sc.peel_seed.push(u);
            sc.peel_seed.push(v);
        }
        sc.peel_seed.sort_unstable();
        sc.peel_seed.dedup();
        for i in 0..sc.peel_seed.len() {
            let v = sc.peel_seed[i];
            if sc.degree[v] == 1 && v != self.boundary {
                sc.stack.push(v);
            }
        }
        while let Some(v) = sc.stack.pop() {
            if sc.degree[v] != 1 || v == self.boundary {
                continue;
            }
            let Some(&e) = self.adjacency[v]
                .iter()
                .find(|&&e| sc.edge_state[e] & (IN_FOREST | REMOVED) == IN_FOREST)
            else {
                continue;
            };
            sc.edge_state[e] |= REMOVED;
            let (a, b, class) = self.edges[e];
            let other = if a == v { b } else { a };
            sc.degree[v] -= 1;
            sc.degree[other] -= 1;
            if sc.flipped[v] {
                sc.flipped[v] = false;
                if other != self.boundary {
                    sc.flipped[other] = !sc.flipped[other];
                }
                let (member, _) = self.pricing.member(class, &sc.overrides);
                for &obs in &self.hypergraph.classes()[class].members[member].observables {
                    out.flip(obs as usize);
                }
            }
            if sc.degree[other] == 1 {
                sc.stack.push(other);
            }
        }
        debug_assert!(
            gave_up || sc.touched.iter().all(|&v| !sc.flipped[v]),
            "peeling left non-boundary defects unmatched without a give-up"
        );
    }

    fn stats(&self) -> DecoderStats {
        DecoderStats {
            decodes: self.decodes.get(),
            giveups_stalled: self.giveups_stalled.get(),
            giveups_round_limit: self.giveups_round_limit.get(),
            ..DecoderStats::default()
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use qec_sim::{Circuit, DetectorMeta};

    fn repetition_dem() -> DetectorErrorModel {
        let mut c = Circuit::new(7);
        c.reset(&[0, 1, 2, 3, 4, 5, 6]);
        c.x_error(&[0, 1, 2, 3], 0.02);
        c.cx(&[(0, 4), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6)]);
        let m = c.measure(&[4, 5, 6], 0.0);
        for i in 0..3 {
            c.add_detector(vec![m + i], DetectorMeta::check(i, 0));
        }
        let md = c.measure(&[0, 1, 2, 3], 0.0);
        c.add_detector(vec![m, md, md + 1], DetectorMeta::check(0, 1));
        c.add_detector(vec![m + 1, md + 1, md + 2], DetectorMeta::check(1, 1));
        c.add_detector(vec![m + 2, md + 2, md + 3], DetectorMeta::check(2, 1));
        let obs = c.add_observable();
        c.include_in_observable(obs, &[md]);
        DetectorErrorModel::from_circuit(&c)
    }

    #[test]
    fn single_faults_decode_correctly() {
        let dem = repetition_dem();
        let decoder = UnionFindDecoder::new(&dem, UnionFindConfig::unflagged());
        for mech in dem.mechanisms() {
            let dets = BitVec::from_ones(
                dem.num_detectors(),
                mech.detectors.iter().map(|&d| d as usize),
            );
            let actual = BitVec::from_ones(
                dem.num_observables(),
                mech.observables.iter().map(|&o| o as usize),
            );
            assert_eq!(decoder.decode(&dets), actual, "mechanism {mech:?}");
        }
    }

    #[test]
    fn empty_syndrome_gives_identity() {
        let dem = repetition_dem();
        let decoder = UnionFindDecoder::new(&dem, UnionFindConfig::unflagged());
        assert!(decoder
            .decode(&BitVec::zeros(dem.num_detectors()))
            .is_zero());
    }

    #[test]
    fn decode_into_matches_decode_with_reused_scratch() {
        let dem = repetition_dem();
        let decoder = UnionFindDecoder::new(&dem, UnionFindConfig::unflagged());
        let nd = dem.num_detectors();
        let mut scratch = DecodeScratch::new();
        let mut out = BitVec::zeros(0);
        // All 2^6 syndromes, through ONE scratch, interleaved with
        // fresh-scratch decodes.
        for pattern in 0..(1u32 << nd) {
            let dets = BitVec::from_ones(nd, (0..nd).filter(|&d| pattern >> d & 1 == 1));
            decoder.decode_into(&dets, &mut scratch, &mut out);
            assert_eq!(out, decoder.decode(&dets), "syndrome {pattern:#b}");
        }
    }

    /// Regression for the parallel-mechanism silent drop: two
    /// mechanisms with the **same σ** but different observables (one
    /// flagged, one not) must both survive as members of the edge's one
    /// class — the min-weight member decodes the unflagged shot, and
    /// flag conditioning switches to the flagged member's observables
    /// instead of silently reusing the kept one's.
    #[test]
    fn parallel_same_sigma_mechanisms_are_merged_not_dropped() {
        // Check 0 and flag 0; obs 0 and 1 on separate data qubits.
        let mut c = Circuit::new(5);
        c.reset(&[0, 1, 2, 3, 4]);
        // Common error: X on data 0 flips the check, obs 0. p = 0.1.
        c.x_error(&[0], 0.1);
        // Rare flagged error: X on flag qubit 3 propagates to data 1 —
        // same check, but flips the flag and obs 1 instead.
        c.x_error(&[3], 0.01);
        c.cx(&[(3, 1)]);
        c.cx(&[(0, 2), (1, 2)]);
        let m = c.measure(&[2, 3], 0.0);
        c.add_detector(vec![m], DetectorMeta::check(0, 0));
        c.add_detector(vec![m + 1], DetectorMeta::flag(0, 0));
        let md = c.measure(&[0, 1], 0.0);
        let obs_a = c.add_observable();
        c.include_in_observable(obs_a, &[md]);
        let obs_b = c.add_observable();
        c.include_in_observable(obs_b, &[md + 1]);
        let dem = DetectorErrorModel::from_circuit(&c);
        let decoder = UnionFindDecoder::new(&dem, UnionFindConfig::flagged(0.01));
        // Both same-σ mechanisms share one edge; no member was dropped.
        assert_eq!(decoder.num_edges(), 1);
        let classes: Vec<_> = decoder
            .hypergraph()
            .classes()
            .iter()
            .filter(|c| c.sigma == vec![0])
            .collect();
        assert_eq!(classes.len(), 1, "same-σ mechanisms live in one class");
        assert_eq!(
            classes[0].members.len(),
            2,
            "both mechanisms survive as members"
        );
        // Check only: the min-weight (unflagged, p=0.1) member wins.
        let check_only = BitVec::from_ones(2, [0]);
        assert_eq!(
            decoder.decode(&check_only),
            BitVec::from_ones(2, [0]),
            "unflagged shot decodes with the common member"
        );
        // Check + flag: conditioning switches to the flagged member.
        let check_and_flag = BitVec::from_ones(2, [0, 1]);
        assert_eq!(
            decoder.decode(&check_and_flag),
            BitVec::from_ones(2, [1]),
            "flagged shot decodes with the flagged member's observables"
        );
        // One reused scratch agrees on both.
        let mut scratch = DecodeScratch::new();
        let mut out = BitVec::zeros(0);
        for dets in [&check_only, &check_and_flag] {
            decoder.decode_into(dets, &mut scratch, &mut out);
            assert_eq!(out, decoder.decode(dets));
        }
    }

    #[test]
    fn stalled_giveup_is_counted() {
        // One check, NO error mechanism flipping it alone that survives
        // as an edge: firing a check with no incident edges stalls.
        let mut c = Circuit::new(3);
        c.reset(&[0, 1, 2]);
        // Two checks; the only mechanism flips both, so each check has
        // one shared edge and no boundary edge.
        c.x_error(&[0], 0.1);
        c.cx(&[(0, 1), (0, 2)]);
        let m = c.measure(&[1, 2], 0.0);
        c.add_detector(vec![m], DetectorMeta::check(0, 0));
        c.add_detector(vec![m + 1], DetectorMeta::check(1, 0));
        let dem = DetectorErrorModel::from_circuit(&c);
        let decoder = UnionFindDecoder::new(&dem, UnionFindConfig::unflagged());
        // Firing only check 0 leaves an odd cluster that can grow once
        // (merging both checks) but never reach even parity — after the
        // merge nothing grows and the decoder gives up.
        let dets = BitVec::from_ones(2, [0]);
        let before = decoder.stats();
        let _ = decoder.decode(&dets);
        let mut scratch = DecodeScratch::new();
        let mut out = BitVec::zeros(0);
        decoder.decode_into(&dets, &mut scratch, &mut out);
        let after = decoder.stats();
        assert_eq!(after.decodes - before.decodes, 2);
        assert_eq!(
            after.giveups() - before.giveups(),
            2,
            "every decode counts the give-up"
        );
        assert_eq!(
            out,
            decoder.decode(&dets),
            "scratches agree even on give-ups"
        );
    }
}
