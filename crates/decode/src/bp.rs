//! The BP+OSD decoder tier for general QLDPC hypergraphs.
//!
//! The matching decoders (MWPM / Union-Find / Restriction) require a
//! matchable decoding graph — every error class flipping at most two
//! checks after decomposition. General quantum LDPC codes produce
//! hypergraphs where that decomposition does not exist, so this module
//! adds the standard baseline for them: **min-sum belief propagation**
//! over the Tanner graph of the undecomposed
//! [`DecodingHypergraph`] (checks = original check detectors,
//! variables = equivalence classes with non-empty σ), with
//! **ordered-statistics post-processing** (OSD-0/OSD-E, [`crate::osd`])
//! guaranteeing a syndrome-valid correction whenever the syndrome lies
//! in the check matrix's column space.
//!
//! ## Schedule and stopping rule
//!
//! BP runs a *serial* (layered / check-sequential) schedule: checks are
//! swept in ascending index order and each check immediately publishes
//! its new check→variable messages into the incrementally maintained
//! posterior marginals, so later checks in the same sweep see earlier
//! updates — roughly twice the convergence rate of a flooding schedule
//! and, because the order is fixed, fully deterministic. After every
//! sweep (and once before the first, so a zero-error shot costs no
//! sweeps) the hard decision `posterior < 0` is tested against the
//! syndrome; the decoder stops at the first valid hard decision or
//! after [`MAX_ITERATIONS`] sweeps, whichever comes first. Check
//! messages use the self-correcting normalized min-sum update
//! (excluded-minimum magnitudes scaled by [`SCALE`], clamped to a fixed
//! magnitude ceiling so degree-1 checks and saturated llrs stay
//! finite).
//!
//! ## Flag conditioning
//!
//! Shots are priced by the same [`ClassPricing`] the matching decoders
//! use (§VI-C): raised flags re-choose class representatives and every
//! non-overridden class pays the global `|F|·(-ln p_M)` mismatch
//! constant. The shot's class weights, gathered onto the Tanner
//! variables, feed BP as per-shot llrs; the correction applies each
//! chosen class's (possibly overridden) representative member.
//!
//! ## Determinism
//!
//! One shot's decode is a fixed sequence of f64 operations: the sweep
//! order is the CSR order, the posterior is maintained (not
//! recomputed), the OSD reliability sort is total, and every buffer is
//! fully (re)initialized per shot from decoder state — so the result is
//! bit-identical across scratch reuse, thread counts and processes.

use crate::engine::{ClassPricing, Pricing};
use crate::hypergraph::DecodingHypergraph;
use crate::osd::osd_post_process;
use crate::scratch::{BpCounters, BpOsdScratch, DecodeScratch};
use crate::{Decoder, DecoderStats};
use qec_math::BitVec;
use qec_obs::Registry;
use qec_sim::DetectorErrorModel;
use std::collections::HashMap;

/// Ceiling on check→variable message magnitudes. Keeps degree-1 checks
/// (whose excluded minimum is +∞) and saturated priors finite while
/// staying far above any realistic llr (`-ln 1e-12 ≈ 27.6`).
const MSG_CLAMP: f64 = 50.0;

/// Maximum BP sweeps before falling through to OSD.
const MAX_ITERATIONS: u32 = 32;

/// Normalized min-sum scaling factor applied to the excluded minimum
/// (< 1 compensates min-sum's magnitude overestimate).
const SCALE: f64 = 0.8125;

/// Configuration of [`BpOsdDecoder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BpOsdConfig {
    /// Use the flag syndrome to choose class representatives and
    /// reweight priors, like the matching decoders. Disabled = plain
    /// BP+OSD over unflagged class weights.
    pub flag_conditioning: bool,
    /// Measurement error probability `p_M` pricing flag mismatches.
    pub measurement_error_probability: f64,
    /// Run OSD even when BP converged, returning whichever of the BP
    /// hard decision and the OSD winner weighs less. Used by the fuzz
    /// harness to pin the OSD-weight ≤ BP-weight invariant; off by
    /// default (converged shots skip OSD entirely).
    pub osd_always: bool,
}

impl BpOsdConfig {
    /// The flag-conditioned configuration (the paper's setting).
    pub fn flagged(p_m: f64) -> Self {
        BpOsdConfig {
            flag_conditioning: true,
            measurement_error_probability: p_m,
            osd_always: false,
        }
    }

    /// Plain BP+OSD ignoring flag information.
    pub fn unflagged() -> Self {
        BpOsdConfig {
            flag_conditioning: false,
            measurement_error_probability: 0.5,
            osd_always: false,
        }
    }

    /// Forces OSD post-processing on converged shots too (see
    /// [`BpOsdConfig::osd_always`]).
    pub fn with_osd_always(mut self, always: bool) -> Self {
        self.osd_always = always;
        self
    }
}

/// Per-shot decode detail returned by [`BpOsdDecoder::decode_detail`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BpOsdOutcome {
    /// The returned correction exactly reproduces the shot's check
    /// syndrome. `false` only when the syndrome is outside the check
    /// matrix's column space (the decoder gave up and returned the BP
    /// hard decision as a best effort).
    pub valid: bool,
    /// BP converged: some sweep's hard decision reproduced the
    /// syndrome.
    pub converged: bool,
    /// BP sweeps executed (0 = the prior hard decision was already
    /// valid, e.g. the empty syndrome).
    pub iterations: u32,
    /// OSD post-processing ran on this shot.
    pub osd_ran: bool,
    /// Check-matrix rank observed by OSD (0 when OSD did not run).
    pub osd_rank: usize,
    /// Effective `-ln p` weight of the returned correction
    /// (`+∞` on giveups).
    pub weight: f64,
    /// Weight of the BP hard decision when it was syndrome-valid.
    /// By the decoder's never-regress contract,
    /// `weight ≤ bp_hard_weight` whenever this is `Some`.
    pub bp_hard_weight: Option<f64>,
}

/// Min-sum BP with serial scheduling plus OSD-0/OSD-E post-processing
/// over the undecomposed decoding hypergraph. See the module docs for
/// the schedule, stopping rule and determinism contract.
#[derive(Debug)]
pub struct BpOsdDecoder {
    hypergraph: DecodingHypergraph,
    config: BpOsdConfig,
    /// The flag-conditioned class pricing shared with the matching
    /// decoders.
    pricing: ClassPricing,
    /// Tanner variable → equivalence class (non-empty σ classes only).
    var_class: Vec<u32>,
    /// Per-variable effective `-ln p` weight with no flags raised.
    base_weight: Vec<f64>,
    /// Per-variable prior llr `ln((1-p)/p)` with no flags raised.
    prior_llr: Vec<f64>,
    /// Check-CSR offsets over the check rows.
    check_off: Vec<u32>,
    /// Check-CSR variable columns, ascending within each row.
    check_var: Vec<u32>,
    metrics: Registry,
    counters: BpCounters,
}

/// Prior llr from an effective `-ln p` weight; the probability is
/// clamped away from 0 and 1 so the llr stays finite.
fn llr_from_weight(w: f64) -> f64 {
    let p = (-w).exp().clamp(1e-12, 1.0 - 1e-12);
    ((1.0 - p) / p).ln()
}

impl BpOsdDecoder {
    /// Builds the decoder from a detector error model, with a private
    /// metrics registry.
    pub fn new(dem: &DetectorErrorModel, config: BpOsdConfig) -> Self {
        Self::with_metrics(dem, config, Registry::new())
    }

    /// Builds the decoder recording into a caller-supplied metrics
    /// registry. Metric names are interned, so building against a
    /// registry an earlier decoder used (one decoder per sweep point)
    /// continues the existing counter series.
    pub fn with_metrics(dem: &DetectorErrorModel, config: BpOsdConfig, metrics: Registry) -> Self {
        metrics.counter("decoder.constructions").inc();
        // No decomposition: BP works on the native hyperedges, so every
        // class keeps its full σ regardless of size.
        let hypergraph = DecodingHypergraph::with_primitive_size(dem, usize::MAX);
        let pricing = ClassPricing::new(
            &hypergraph,
            config.flag_conditioning,
            config.measurement_error_probability,
        );
        let m = hypergraph.num_check_detectors();
        let _span = qec_obs::span_with(
            "decoder.build.bp",
            &[
                ("checks", m.into()),
                ("classes", hypergraph.classes().len().into()),
            ],
        );
        // Tanner variables: classes with non-empty σ. Classes with an
        // empty σ but observables (undetectable logicals) cannot be
        // inferred from any syndrome and are excluded, as in matching.
        let var_class: Vec<u32> = (0..hypergraph.classes().len() as u32)
            .filter(|&ci| !hypergraph.classes()[ci as usize].sigma.is_empty())
            .collect();
        let class_weights = pricing.base_weights();
        let base_weight: Vec<f64> = var_class
            .iter()
            .map(|&ci| class_weights[ci as usize])
            .collect();
        let prior_llr: Vec<f64> = base_weight.iter().map(|&w| llr_from_weight(w)).collect();
        // Check-CSR: count, prefix-sum, fill. Variables are visited in
        // ascending order, so each row's columns come out ascending.
        let mut degree = vec![0u32; m];
        for &ci in &var_class {
            for &c in &hypergraph.classes()[ci as usize].sigma {
                degree[c as usize] += 1;
            }
        }
        let mut check_off = Vec::with_capacity(m + 1);
        check_off.push(0u32);
        for c in 0..m {
            check_off.push(check_off[c] + degree[c]);
        }
        let mut check_var = vec![0u32; check_off[m] as usize];
        let mut cursor: Vec<u32> = check_off[..m].to_vec();
        for (v, &ci) in var_class.iter().enumerate() {
            for &c in &hypergraph.classes()[ci as usize].sigma {
                check_var[cursor[c as usize] as usize] = v as u32;
                cursor[c as usize] += 1;
            }
        }
        metrics.gauge("build.bp.vars").set(var_class.len() as u64);
        metrics.gauge("build.bp.checks").set(m as u64);
        metrics.gauge("build.bp.edges").set(check_var.len() as u64);
        let bytes = check_off.capacity() * 4
            + check_var.capacity() * 4
            + var_class.capacity() * 4
            + (base_weight.capacity() + prior_llr.capacity()) * 8
            // The pricing's flag-free `(member, weight)` per class.
            + hypergraph.classes().len() * 16;
        metrics.gauge("build.bp.bytes").set(bytes as u64);
        let counters = BpCounters::register(&metrics);
        drop(_span);
        BpOsdDecoder {
            hypergraph,
            config,
            pricing,
            var_class,
            base_weight,
            prior_llr,
            check_off,
            check_var,
            metrics,
            counters,
        }
    }

    /// The underlying (undecomposed) hypergraph.
    pub fn hypergraph(&self) -> &DecodingHypergraph {
        &self.hypergraph
    }

    /// Number of Tanner variables (non-empty-σ classes).
    pub fn num_variables(&self) -> usize {
        self.var_class.len()
    }

    /// Decodes like [`Decoder::decode_into`] but also returns the
    /// per-shot outcome detail (convergence, iterations, OSD rank,
    /// weights) for tests, benches and diagnostics.
    pub fn decode_detail(
        &self,
        detectors: &BitVec,
        scratch: &mut DecodeScratch,
        out: &mut BitVec,
    ) -> BpOsdOutcome {
        self.decode_core(detectors, &mut scratch.bp, out)
    }

    /// One serial min-sum sweep: checks in ascending CSR order, each
    /// immediately publishing its new messages into the posterior.
    fn bp_sweep(
        &self,
        posterior: &mut [f64],
        r_msg: &mut [f64],
        q: &mut Vec<f64>,
        syndrome: &BitVec,
    ) {
        for c in 0..self.check_off.len() - 1 {
            let lo = self.check_off[c] as usize;
            let hi = self.check_off[c + 1] as usize;
            if lo == hi {
                continue;
            }
            let mut neg = syndrome.get(c);
            // Pass 1: variable→check messages, their sign parity and
            // the two smallest magnitudes (with the argmin for the
            // excluded-minimum rule).
            let mut min1 = f64::INFINITY;
            let mut min2 = f64::INFINITY;
            let mut arg = usize::MAX;
            q.clear();
            for (k, e) in (lo..hi).enumerate() {
                let v = self.check_var[e] as usize;
                let qe = posterior[v] - r_msg[e];
                if qe < 0.0 {
                    neg = !neg;
                }
                let mag = qe.abs();
                if mag < min1 {
                    min2 = min1;
                    min1 = mag;
                    arg = k;
                } else if mag < min2 {
                    min2 = mag;
                }
                q.push(qe);
            }
            // Pass 2: publish the new check→variable messages.
            for (k, e) in (lo..hi).enumerate() {
                let v = self.check_var[e] as usize;
                let qe = q[k];
                let excluded = if k == arg { min2 } else { min1 };
                let mag = (SCALE * excluded).min(MSG_CLAMP);
                let others_negative = neg ^ (qe < 0.0);
                let new_r = if others_negative { -mag } else { mag };
                posterior[v] += new_r - r_msg[e];
                r_msg[e] = new_r;
            }
        }
    }

    /// The shared decode body of `decode_into` and `decode_detail`.
    fn decode_core(
        &self,
        detectors: &BitVec,
        sc: &mut BpOsdScratch,
        correction: &mut BitVec,
    ) -> BpOsdOutcome {
        let BpOsdScratch {
            checks,
            flags,
            overrides,
            class_weights,
            llr,
            weight,
            posterior,
            r_msg,
            q,
            syndrome,
            residual,
            hard,
            osd,
        } = sc;
        self.counters.decodes.inc();
        correction.reset_zeros(self.hypergraph.num_observables());
        self.hypergraph.split_shot_into(detectors, checks, flags);
        self.counters.defects.record(checks.len() as u64);
        if checks.is_empty() {
            return BpOsdOutcome {
                valid: true,
                converged: true,
                iterations: 0,
                osd_ran: false,
                osd_rank: 0,
                weight: 0.0,
                bp_hard_weight: Some(0.0),
            };
        }
        syndrome.reset_zeros(self.check_off.len() - 1);
        for &c in checks.iter() {
            syndrome.flip(c);
        }
        // Per-shot effective priors: flag-free shots read the decoder's
        // precomputed slices; flag-reweighted shots gather the shot's
        // class weights onto the Tanner variables.
        let pricing = self
            .pricing
            .price_shot(&self.hypergraph, flags, overrides, class_weights);
        let (llr_s, weight_s): (&[f64], &[f64]) = match pricing {
            Pricing::Base => (&self.prior_llr, &self.base_weight),
            Pricing::Shot(w) => {
                weight.clear();
                weight.extend(self.var_class.iter().map(|&ci| w[ci as usize]));
                llr.clear();
                llr.extend(weight.iter().map(|&w| llr_from_weight(w)));
                (llr, weight)
            }
        };
        posterior.clear();
        posterior.extend_from_slice(llr_s);
        r_msg.clear();
        r_msg.resize(self.check_var.len(), 0.0);
        // BP with the early-stop contract: hard decision before the
        // first sweep and after each one.
        let hard_valid = |posterior: &[f64], residual: &mut BitVec, hard: &mut Vec<u32>| {
            hard.clear();
            residual.copy_from(syndrome);
            for (v, &p) in posterior.iter().enumerate() {
                if p < 0.0 {
                    hard.push(v as u32);
                    for &c in &self.hypergraph.classes()[self.var_class[v] as usize].sigma {
                        residual.flip(c as usize);
                    }
                }
            }
            residual.is_zero()
        };
        let mut iterations = 0u32;
        let mut converged = hard_valid(posterior, residual, hard);
        while !converged && iterations < MAX_ITERATIONS {
            self.bp_sweep(posterior, r_msg, q, syndrome);
            iterations += 1;
            converged = hard_valid(posterior, residual, hard);
        }
        self.counters.iterations.record(iterations as u64);
        let bp_hard_weight =
            converged.then(|| hard.iter().map(|&v| weight_s[v as usize]).sum::<f64>());
        if converged {
            self.counters.converged.inc();
            if !self.config.osd_always {
                self.apply_vars(hard, overrides, correction);
                let weight = bp_hard_weight.unwrap();
                return BpOsdOutcome {
                    valid: true,
                    converged: true,
                    iterations,
                    osd_ran: false,
                    osd_rank: 0,
                    weight,
                    bp_hard_weight,
                };
            }
        }
        self.counters.osd_solves.inc();
        let outcome = osd_post_process(
            &self.check_off,
            &self.check_var,
            self.var_class.len(),
            syndrome,
            posterior,
            weight_s,
            osd,
        );
        self.counters.osd_rank.record(outcome.rank as u64);
        if !outcome.consistent {
            // Unreachable from a converged shot: a valid hard decision
            // proves the syndrome is in the column space.
            self.counters.giveups.inc();
            self.apply_vars(hard, overrides, correction);
            return BpOsdOutcome {
                valid: false,
                converged: false,
                iterations,
                osd_ran: true,
                osd_rank: outcome.rank,
                weight: f64::INFINITY,
                bp_hard_weight: None,
            };
        }
        // Never-regress: keep the BP hard decision when it's valid and
        // no heavier than the OSD winner (ties prefer BP, the converged
        // answer).
        let chosen: &[u32] = match bp_hard_weight {
            Some(bw) if bw <= outcome.weight => hard,
            _ => &osd.solution,
        };
        let weight = match bp_hard_weight {
            Some(bw) if bw <= outcome.weight => bw,
            _ => outcome.weight,
        };
        residual.copy_from(syndrome);
        for &v in chosen {
            for &c in &self.hypergraph.classes()[self.var_class[v as usize] as usize].sigma {
                residual.flip(c as usize);
            }
        }
        let valid = residual.is_zero();
        debug_assert!(valid, "consistent OSD must reproduce the syndrome");
        self.apply_vars(chosen, overrides, correction);
        BpOsdOutcome {
            valid,
            converged,
            iterations,
            osd_ran: true,
            osd_rank: outcome.rank,
            weight,
            bp_hard_weight,
        }
    }

    /// Flips each chosen variable's class representative (overridden by
    /// the shot's flag conditioning where applicable) into the
    /// correction.
    fn apply_vars(
        &self,
        vars: &[u32],
        overrides: &HashMap<usize, (usize, f64)>,
        correction: &mut BitVec,
    ) {
        for &v in vars {
            let class = self.var_class[v as usize] as usize;
            let (member, _) = self.pricing.member(class, overrides);
            for &obs in &self.hypergraph.classes()[class].members[member].observables {
                correction.flip(obs as usize);
            }
        }
    }
}

impl Decoder for BpOsdDecoder {
    fn decode_into(&self, detectors: &BitVec, scratch: &mut DecodeScratch, out: &mut BitVec) {
        self.decode_core(detectors, &mut scratch.bp, out);
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
        let decoder = BpOsdDecoder::new(&dem, BpOsdConfig::unflagged());
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
        let decoder = BpOsdDecoder::new(&dem, BpOsdConfig::unflagged());
        let out = decoder.decode(&BitVec::zeros(dem.num_detectors()));
        assert!(out.is_zero());
        let stats = decoder.stats();
        assert_eq!(stats.decodes, 1);
        assert_eq!(stats.bp_osd_solves, 0);
    }

    /// Every representable syndrome must come back syndrome-valid (the
    /// hard invariant), and `decode_into` with a reused scratch must
    /// stay bit-identical to the fresh-scratch `decode`.
    #[test]
    fn exhaustive_syndromes_valid_and_scratch_invariant() {
        let dem = repetition_dem(0.01);
        let decoder = BpOsdDecoder::new(&dem, BpOsdConfig::unflagged());
        let nd = dem.num_detectors();
        let mut scratch = DecodeScratch::new();
        let mut out = BitVec::zeros(0);
        for pattern in 0..(1u32 << nd) {
            let dets = BitVec::from_ones(nd, (0..nd).filter(|&d| pattern >> d & 1 == 1));
            let outcome = decoder.decode_detail(&dets, &mut scratch, &mut out);
            assert_eq!(out, decoder.decode(&dets), "syndrome {pattern:#b}");
            if outcome.valid {
                assert!(outcome.weight.is_finite(), "syndrome {pattern:#b}");
                if let Some(bw) = outcome.bp_hard_weight {
                    assert!(outcome.weight <= bw + 1e-9, "syndrome {pattern:#b}");
                }
            }
        }
    }

    /// `osd_always` must never return a heavier correction than the
    /// plain contract, and both must agree with MWPM's syndrome
    /// validity on this matchable fixture.
    #[test]
    fn osd_always_never_regresses() {
        let dem = repetition_dem(0.01);
        let plain = BpOsdDecoder::new(&dem, BpOsdConfig::unflagged());
        let always = BpOsdDecoder::new(&dem, BpOsdConfig::unflagged().with_osd_always(true));
        let nd = dem.num_detectors();
        let mut scratch = DecodeScratch::new();
        let mut out = BitVec::zeros(0);
        for pattern in 0..(1u32 << nd) {
            let dets = BitVec::from_ones(nd, (0..nd).filter(|&d| pattern >> d & 1 == 1));
            let p = plain.decode_detail(&dets, &mut scratch, &mut out);
            let a = always.decode_detail(&dets, &mut scratch, &mut out);
            assert_eq!(p.valid, a.valid, "syndrome {pattern:#b}");
            if p.valid {
                assert!(a.weight <= p.weight + 1e-9, "syndrome {pattern:#b}");
            }
        }
    }
}
