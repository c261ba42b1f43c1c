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
//! after a fixed maximum number of sweeps, whichever comes first.
//! Check messages use the self-correcting normalized min-sum update
//! (excluded-minimum magnitudes scaled by [`BpOsdConfig::scale`],
//! clamped to a fixed magnitude ceiling so degree-1 checks and
//! saturated llrs stay finite).
//!
//! ## Flag conditioning
//!
//! Mirrors the matching decoders (§VI-C): raised flags re-choose class
//! representatives ([`EquivClass::representative`]) and every
//! non-overridden class pays the global `|F|·(-ln p_M)` mismatch
//! constant. The reweighted priors feed BP as per-shot llrs; the
//! correction applies each chosen class's (possibly overridden)
//! representative member.
//!
//! ## Determinism
//!
//! One shot's decode is a fixed sequence of f64 operations: the sweep
//! order is the CSR order, the posterior is maintained (not
//! recomputed), the OSD reliability sort is total, and every buffer is
//! fully (re)initialized per shot from decoder state — so the result is
//! bit-identical across scratch reuse, thread counts and processes.
//! Build-thread parallelism only chunks the per-class representative
//! computation, which is independent per class and merged in chunk
//! order. Golden tests pin fingerprints at 1 and 3 build threads.
//!
//! ## Overcomplete checks
//!
//! [`BpOsdConfig::overcomplete_checks`] appends up to `k` redundant
//! rows — symmetric differences of adjacent original check pairs — to
//! the BP Tanner graph (the Neural-BP trick: extra short-cycle-breaking
//! constraints improve BP convergence on degenerate codes). Redundant
//! syndrome bits are XORs of the parent bits; OSD always runs on the
//! original rows only, so validity is unaffected.

use crate::hypergraph::DecodingHypergraph;
use crate::osd::osd_post_process;
use crate::paths;
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

/// Configuration of [`BpOsdDecoder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BpOsdConfig {
    /// Use the flag syndrome to choose class representatives and
    /// reweight priors, like the matching decoders. Disabled = plain
    /// BP+OSD over unflagged class weights.
    pub flag_conditioning: bool,
    /// Measurement error probability `p_M` pricing flag mismatches.
    pub measurement_error_probability: f64,
    /// Maximum BP sweeps before falling through to OSD.
    pub max_iterations: usize,
    /// Normalized min-sum scaling factor applied to the excluded
    /// minimum (1.0 = plain min-sum; < 1 compensates min-sum's
    /// magnitude overestimate).
    pub scale: f64,
    /// OSD order `λ`: `2^λ` candidate patterns over the λ most
    /// reliable-to-flip free columns are scored (0 = OSD-0). Clamped to
    /// [`crate::osd::MAX_OSD_ORDER`].
    pub osd_order: usize,
    /// Redundant (overcomplete) check rows appended to the BP Tanner
    /// graph; `0` disables the trick.
    pub overcomplete_checks: usize,
    /// Run OSD even when BP converged, returning whichever of the BP
    /// hard decision and the OSD winner weighs less. Used by the fuzz
    /// harness to pin the OSD-weight ≤ BP-weight invariant; off by
    /// default (converged shots skip OSD entirely).
    pub osd_always: bool,
    /// Worker threads for the per-class prior computation at build
    /// time; `0` = one per available core. Bit-identical for any value
    /// (golden tests pin 1 vs 3) — a determinism-testing and
    /// resource-control knob, not a correctness one.
    pub build_threads: usize,
}

impl BpOsdConfig {
    /// The flag-conditioned configuration (the paper's setting).
    pub fn flagged(p_m: f64) -> Self {
        BpOsdConfig {
            flag_conditioning: true,
            measurement_error_probability: p_m,
            max_iterations: 32,
            scale: 0.8125,
            osd_order: 4,
            overcomplete_checks: 0,
            osd_always: false,
            build_threads: 0,
        }
    }

    /// Plain BP+OSD ignoring flag information.
    pub fn unflagged() -> Self {
        BpOsdConfig {
            flag_conditioning: false,
            measurement_error_probability: 0.5,
            max_iterations: 32,
            scale: 0.8125,
            osd_order: 4,
            overcomplete_checks: 0,
            osd_always: false,
            build_threads: 0,
        }
    }

    /// Overrides the BP sweep budget.
    pub fn with_max_iterations(mut self, iterations: usize) -> Self {
        self.max_iterations = iterations;
        self
    }

    /// Overrides the normalized min-sum scaling factor.
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Overrides the OSD order `λ` (0 = OSD-0).
    pub fn with_osd_order(mut self, order: usize) -> Self {
        self.osd_order = order;
        self
    }

    /// Overrides the number of redundant overcomplete check rows.
    pub fn with_overcomplete_checks(mut self, checks: usize) -> Self {
        self.overcomplete_checks = checks;
        self
    }

    /// Forces OSD post-processing on converged shots too (see
    /// [`BpOsdConfig::osd_always`]).
    pub fn with_osd_always(mut self, always: bool) -> Self {
        self.osd_always = always;
        self
    }

    /// Overrides the build thread count (`0` = auto).
    pub fn with_build_threads(mut self, threads: usize) -> Self {
        self.build_threads = threads;
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
    minus_ln_pm: f64,
    /// Base `(member, weight)` per class with no flags raised.
    base_choice: Vec<(usize, f64)>,
    /// Tanner variable → equivalence class (non-empty σ classes only).
    var_class: Vec<u32>,
    /// Equivalence class → Tanner variable (`u32::MAX` = no variable).
    class_var: Vec<u32>,
    /// Per-variable effective `-ln p` weight with no flags raised.
    base_weight: Vec<f64>,
    /// Per-variable prior llr `ln((1-p)/p)` with no flags raised.
    prior_llr: Vec<f64>,
    /// Original check rows (`m`); rows `m..` of the CSR are redundant.
    num_checks: usize,
    /// Check-CSR offsets over `m + redundant.len()` rows.
    check_off: Vec<u32>,
    /// Check-CSR variable columns, ascending within each row.
    check_var: Vec<u32>,
    /// Parent original-check pairs of each redundant row.
    redundant: Vec<(u32, u32)>,
    metrics: Registry,
    counters: BpCounters,
}

/// Prior llr from an effective `-ln p` weight; the probability is
/// clamped away from 0 and 1 so the llr stays finite.
fn llr_from_weight(w: f64) -> f64 {
    let p = (-w).exp().clamp(1e-12, 1.0 - 1e-12);
    ((1.0 - p) / p).ln()
}

/// Resolves the build-thread knob (`0` = auto) for `n` variables.
fn bp_build_threads(config: &BpOsdConfig, n: usize) -> usize {
    if config.build_threads > 0 {
        config.build_threads
    } else {
        paths::default_build_threads(n)
    }
}

/// Computes the base `(member, weight)` choice of every class,
/// chunk-parallel across `threads` workers. Each class's choice is
/// independent of every other, and chunks are merged in order, so the
/// result is bit-identical for any thread count.
fn compute_base_choice(
    hypergraph: &DecodingHypergraph,
    config: &BpOsdConfig,
    minus_ln_pm: f64,
) -> Vec<(usize, f64)> {
    let classes = hypergraph.classes();
    let no_flags = BitVec::zeros(hypergraph.num_flag_detectors());
    let choose = |c: &crate::hypergraph::EquivClass| {
        if config.flag_conditioning {
            c.representative(&no_flags, minus_ln_pm)
        } else {
            c.representative_unflagged()
        }
    };
    let threads = bp_build_threads(config, classes.len())
        .max(1)
        .min(classes.len().max(1));
    if threads <= 1 || classes.len() < 2 {
        return classes.iter().map(choose).collect();
    }
    let chunk = classes.len().div_ceil(threads);
    let mut out = Vec::with_capacity(classes.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = classes
            .chunks(chunk)
            .map(|ch| s.spawn(move || ch.iter().map(choose).collect::<Vec<_>>()))
            .collect();
        for h in handles {
            out.extend(h.join().expect("base-choice worker panicked"));
        }
    });
    out
}

impl BpOsdDecoder {
    /// Builds the decoder from a detector error model, with a private
    /// metrics registry.
    pub fn new(dem: &DetectorErrorModel, config: BpOsdConfig) -> Self {
        Self::with_metrics(dem, config, Registry::new())
    }

    /// Builds the decoder recording into a caller-supplied metrics
    /// registry (the pipeline-retarget case continues existing series).
    pub fn with_metrics(dem: &DetectorErrorModel, config: BpOsdConfig, metrics: Registry) -> Self {
        metrics.counter("decoder.constructions").inc();
        // No decomposition: BP works on the native hyperedges, so every
        // class keeps its full σ regardless of size.
        let hypergraph = DecodingHypergraph::with_primitive_size(dem, usize::MAX);
        let minus_ln_pm = -config
            .measurement_error_probability
            .clamp(1e-12, 1.0 - 1e-12)
            .ln();
        let base_choice = compute_base_choice(&hypergraph, &config, minus_ln_pm);
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
        let mut var_class = Vec::new();
        let mut class_var = vec![u32::MAX; hypergraph.classes().len()];
        for (ci, class) in hypergraph.classes().iter().enumerate() {
            if !class.sigma.is_empty() {
                class_var[ci] = var_class.len() as u32;
                var_class.push(ci as u32);
            }
        }
        let n = var_class.len();
        let base_weight: Vec<f64> = var_class
            .iter()
            .map(|&ci| base_choice[ci as usize].1)
            .collect();
        let prior_llr: Vec<f64> = base_weight.iter().map(|&w| llr_from_weight(w)).collect();
        // Check-CSR over the original m rows: count, prefix-sum, fill.
        // Variables are visited in ascending order, so each row's
        // columns come out ascending.
        let mut degree = vec![0u32; m];
        for &ci in &var_class {
            for &c in &hypergraph.classes()[ci as usize].sigma {
                degree[c as usize] += 1;
            }
        }
        let mut check_off = Vec::with_capacity(m + 2);
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
        // Redundant overcomplete rows: for each original check c
        // (ascending) take its smallest partner c' > c sharing a
        // variable and append the symmetric difference of their
        // variable sets, until the budget is spent.
        let mut redundant = Vec::new();
        if config.overcomplete_checks > 0 {
            for c in 0..m {
                if redundant.len() == config.overcomplete_checks {
                    break;
                }
                let row = |k: usize| &check_var[check_off[k] as usize..check_off[k + 1] as usize];
                let mut partner = usize::MAX;
                for &v in row(c) {
                    for &d in &hypergraph.classes()[var_class[v as usize] as usize].sigma {
                        let d = d as usize;
                        if d > c && d < partner {
                            partner = d;
                        }
                    }
                }
                if partner == usize::MAX {
                    continue;
                }
                // Merge the two ascending rows, keeping columns in
                // exactly one.
                let (a, b) = (row(c), row(partner));
                let (mut i, mut j) = (0, 0);
                let start = check_var.len();
                let mut merged = Vec::new();
                while i < a.len() || j < b.len() {
                    match (a.get(i), b.get(j)) {
                        (Some(&x), Some(&y)) if x == y => {
                            i += 1;
                            j += 1;
                        }
                        (Some(&x), Some(&y)) if x < y => {
                            merged.push(x);
                            i += 1;
                        }
                        (Some(_), Some(&y)) => {
                            merged.push(y);
                            j += 1;
                        }
                        (Some(&x), None) => {
                            merged.push(x);
                            i += 1;
                        }
                        (None, Some(&y)) => {
                            merged.push(y);
                            j += 1;
                        }
                        (None, None) => unreachable!(),
                    }
                }
                if merged.is_empty() {
                    continue;
                }
                check_var.extend_from_slice(&merged);
                debug_assert!(start < check_var.len());
                check_off.push(check_var.len() as u32);
                redundant.push((c as u32, partner as u32));
            }
        }
        metrics.gauge("build.bp.vars").set(n as u64);
        metrics.gauge("build.bp.checks").set(m as u64);
        metrics
            .gauge("build.bp.redundant")
            .set(redundant.len() as u64);
        metrics.gauge("build.bp.edges").set(check_var.len() as u64);
        let bytes = check_off.capacity() * 4
            + check_var.capacity() * 4
            + var_class.capacity() * 4
            + class_var.capacity() * 4
            + (base_weight.capacity() + prior_llr.capacity()) * 8
            + base_choice.capacity() * 16
            + redundant.capacity() * 8;
        metrics.gauge("build.bp.bytes").set(bytes as u64);
        let counters = BpCounters::register(&metrics);
        drop(_span);
        BpOsdDecoder {
            hypergraph,
            config,
            minus_ln_pm,
            base_choice,
            var_class,
            class_var,
            base_weight,
            prior_llr,
            num_checks: m,
            check_off,
            check_var,
            redundant,
            metrics,
            counters,
        }
    }

    /// Re-targets the decoder at a new detector error model with the
    /// **same Tanner topology** (the BER-sweep case: only mechanism
    /// probabilities change). On success priors are recomputed —
    /// bit-identical to a fresh build — and `true` is returned; `false`
    /// (decoder unchanged) when the topology or a structural config
    /// knob differs.
    pub fn reprice(&mut self, dem: &DetectorErrorModel, config: BpOsdConfig) -> bool {
        if config.overcomplete_checks != self.config.overcomplete_checks {
            return false;
        }
        let hypergraph = DecodingHypergraph::with_primitive_size(dem, usize::MAX);
        let same_topology = hypergraph.num_check_detectors()
            == self.hypergraph.num_check_detectors()
            && hypergraph.num_flag_detectors() == self.hypergraph.num_flag_detectors()
            && hypergraph.num_observables() == self.hypergraph.num_observables()
            && hypergraph.classes().len() == self.hypergraph.classes().len()
            && hypergraph
                .classes()
                .iter()
                .zip(self.hypergraph.classes())
                .all(|(a, b)| a.sigma == b.sigma);
        if !same_topology {
            return false;
        }
        let _span = qec_obs::span("decoder.reprice");
        self.metrics.counter("decoder.reprices").inc();
        self.config = config;
        self.minus_ln_pm = -config
            .measurement_error_probability
            .clamp(1e-12, 1.0 - 1e-12)
            .ln();
        self.base_choice = compute_base_choice(&hypergraph, &config, self.minus_ln_pm);
        self.hypergraph = hypergraph;
        self.base_weight = self
            .var_class
            .iter()
            .map(|&ci| self.base_choice[ci as usize].1)
            .collect();
        self.prior_llr = self
            .base_weight
            .iter()
            .map(|&w| llr_from_weight(w))
            .collect();
        true
    }

    /// The underlying (undecomposed) hypergraph.
    pub fn hypergraph(&self) -> &DecodingHypergraph {
        &self.hypergraph
    }

    /// Number of Tanner variables (non-empty-σ classes).
    pub fn num_variables(&self) -> usize {
        self.var_class.len()
    }

    /// Number of redundant overcomplete rows actually built.
    pub fn num_redundant_checks(&self) -> usize {
        self.redundant.len()
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
        red_syndrome: &BitVec,
    ) {
        let m = self.num_checks;
        for c in 0..self.check_off.len() - 1 {
            let lo = self.check_off[c] as usize;
            let hi = self.check_off[c + 1] as usize;
            if lo == hi {
                continue;
            }
            let mut neg = if c < m {
                syndrome.get(c)
            } else {
                red_syndrome.get(c - m)
            };
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
                let mag = (self.config.scale * excluded).min(MSG_CLAMP);
                let others_negative = neg ^ (qe < 0.0);
                let new_r = if others_negative { -mag } else { mag };
                posterior[v] += new_r - r_msg[e];
                r_msg[e] = new_r;
            }
        }
    }

    /// The shared decode body: `decode` runs it against a throwaway
    /// scratch, `decode_into`/`decode_detail` against the caller's.
    /// Identical computation sequence either way, so outputs are
    /// bit-identical.
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
            llr,
            weight,
            posterior,
            r_msg,
            q,
            syndrome,
            red_syndrome,
            residual,
            hard,
            osd,
        } = sc;
        let m = self.num_checks;
        self.counters.decodes.inc();
        correction.reset_zeros(self.hypergraph.num_observables());
        self.hypergraph.split_shot_into(detectors, checks, flags);
        self.counters.defects.record(checks.len() as u64);
        overrides.clear();
        if self.config.flag_conditioning && !flags.is_zero() {
            for f in flags.iter_ones() {
                for &class in self.hypergraph.classes_with_flag(f) {
                    overrides.entry(class).or_insert_with(|| {
                        self.hypergraph.classes()[class].representative(flags, self.minus_ln_pm)
                    });
                }
            }
        }
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
        syndrome.reset_zeros(m);
        for &c in checks.iter() {
            syndrome.flip(c);
        }
        red_syndrome.reset_zeros(self.redundant.len());
        for (j, &(a, b)) in self.redundant.iter().enumerate() {
            if syndrome.get(a as usize) != syndrome.get(b as usize) {
                red_syndrome.flip(j);
            }
        }
        // Per-shot effective priors: unflagged shots read the decoder's
        // precomputed slices; flagged shots resolve base + |F| constant
        // with overridden classes replaced, exactly like the matching
        // decoders' effective-weights slice.
        let flag_constant = if self.config.flag_conditioning {
            flags.weight() as f64 * self.minus_ln_pm
        } else {
            0.0
        };
        let reweighted = !overrides.is_empty() || flag_constant != 0.0;
        let (llr_s, weight_s): (&[f64], &[f64]) = if reweighted {
            weight.clear();
            weight.extend(self.base_weight.iter().map(|&w| w + flag_constant));
            for (&class, &(_, w)) in overrides.iter() {
                let v = self.class_var[class];
                if v != u32::MAX {
                    weight[v as usize] = w;
                }
            }
            llr.clear();
            llr.extend(weight.iter().map(|&w| llr_from_weight(w)));
            (llr, weight)
        } else {
            (&self.prior_llr, &self.base_weight)
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
        while !converged && (iterations as usize) < self.config.max_iterations {
            self.bp_sweep(posterior, r_msg, q, syndrome, red_syndrome);
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
        // OSD post-processing over the original rows.
        self.counters.osd_solves.inc();
        let outcome = osd_post_process(
            &self.check_off,
            &self.check_var,
            m,
            self.var_class.len(),
            syndrome,
            posterior,
            weight_s,
            self.config.osd_order,
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
            let member = overrides
                .get(&class)
                .map_or(self.base_choice[class].0, |&(mbr, _)| mbr);
            for &obs in &self.hypergraph.classes()[class].members[member].observables {
                correction.flip(obs as usize);
            }
        }
    }
}

impl Decoder for BpOsdDecoder {
    fn decode(&self, detectors: &BitVec) -> BitVec {
        let mut sc = BpOsdScratch::default();
        let mut correction = BitVec::zeros(0);
        self.decode_core(detectors, &mut sc, &mut correction);
        correction
    }

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
    /// stay bit-identical to the throwaway-scratch `decode`.
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

    /// Overcomplete rows change the BP graph, not the answer's
    /// validity; and reprice is bit-identical to a fresh build.
    #[test]
    fn overcomplete_and_reprice() {
        let dem_a = repetition_dem(0.01);
        let dem_b = repetition_dem(0.05);
        let over = BpOsdDecoder::new(&dem_a, BpOsdConfig::unflagged().with_overcomplete_checks(2));
        assert!(over.num_redundant_checks() > 0);
        let plain = BpOsdDecoder::new(&dem_a, BpOsdConfig::unflagged());
        let nd = dem_a.num_detectors();
        let mut scratch = DecodeScratch::new();
        let mut out = BitVec::zeros(0);
        for pattern in 0..(1u32 << nd) {
            let dets = BitVec::from_ones(nd, (0..nd).filter(|&d| pattern >> d & 1 == 1));
            let outcome = over.decode_detail(&dets, &mut scratch, &mut out);
            // Redundant rows change the BP graph, never the syndrome's
            // consistency (they are linear combinations).
            let baseline = plain.decode_detail(&dets, &mut scratch, &mut out);
            assert_eq!(outcome.valid, baseline.valid, "syndrome {pattern:#b}");
        }
        let mut repriced = BpOsdDecoder::new(&dem_a, BpOsdConfig::unflagged());
        assert!(repriced.reprice(&dem_b, BpOsdConfig::unflagged()));
        let fresh = BpOsdDecoder::new(&dem_b, BpOsdConfig::unflagged());
        for pattern in 0..(1u32 << nd) {
            let dets = BitVec::from_ones(nd, (0..nd).filter(|&d| pattern >> d & 1 == 1));
            assert_eq!(repriced.decode(&dets), fresh.decode(&dets));
        }
        // Structural knob changes refuse to reprice.
        assert!(!repriced.reprice(&dem_b, BpOsdConfig::unflagged().with_overcomplete_checks(2)));
    }
}
