//! Memory-experiment orchestration: decoder selection and block error
//! rate estimation.

use qec_code::{CssCode, PlaqColor};
use qec_decode::{
    BpOsdConfig, BpOsdDecoder, ColorCodeContext, DecodeScratch, Decoder, MwpmConfig, MwpmDecoder,
    RestrictionConfig, RestrictionDecoder,
};
use qec_math::rng::Xoshiro256StarStar;
use qec_math::BitVec;
use qec_obs::Registry;
use qec_sched::{Basis, MemoryExperiment};
use qec_sim::noise::NoiseModel;
use qec_sim::{Circuit, DetectorErrorModel, FrameBatch, FrameSampler};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Which decoder to instantiate for an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecoderKind {
    /// Flagged MWPM (§VI-C) — surface codes.
    FlaggedMwpm,
    /// Plain MWPM ignoring flags — the PyMatching-equivalent baseline.
    PlainMwpm,
    /// Flagged Restriction (§VI-D) — color codes.
    FlaggedRestriction,
    /// Chamberland-style restriction: flags only in the MWPM stage.
    ChamberlandRestriction,
    /// Flag-conditioned BP+OSD over the undecomposed hypergraph — the
    /// general-QLDPC tier (works on any code, matchable or not).
    FlaggedBpOsd,
    /// Plain BP+OSD ignoring flag information.
    PlainBpOsd,
}

/// The pipeline's concrete decoder: kept as an enum (not a boxed
/// trait object) so sweep harnesses can reprice the existing path
/// indexes in place when only error probabilities change.
// One instance per pipeline, never collected — variant size skew is
// irrelevant here.
#[allow(clippy::large_enum_variant)]
enum PipelineDecoder {
    Mwpm(MwpmDecoder),
    Restriction(RestrictionDecoder),
    BpOsd(BpOsdDecoder),
}

impl PipelineDecoder {
    fn as_decoder(&self) -> &(dyn Decoder + Send) {
        match self {
            PipelineDecoder::Mwpm(d) => d,
            PipelineDecoder::Restriction(d) => d,
            PipelineDecoder::BpOsd(d) => d,
        }
    }
}

/// A ready-to-run decoding pipeline: the experiment's detector error
/// model plus a configured decoder.
///
/// Across a BER sweep the decoding-graph *topology* is fixed — only
/// mechanism probabilities move with `p` — so [`Self::retarget`]
/// reuses the constructed decoder (repricing its path indexes in
/// place) instead of rebuilding it; [`Self::constructions`] counts how
/// many full decoder constructions actually happened.
pub struct DecodingPipeline {
    dem: DetectorErrorModel,
    decoder: PipelineDecoder,
    kind: DecoderKind,
    constructions: u64,
    /// Metrics registry shared by every decoder this pipeline ever
    /// builds: counter names are interned, so a retarget rebuild
    /// continues the same series instead of starting over.
    metrics: Registry,
}

impl std::fmt::Debug for DecodingPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DecodingPipeline({} detectors, {} mechanisms)",
            self.dem.num_detectors(),
            self.dem.mechanisms().len()
        )
    }
}

impl DecodingPipeline {
    /// Builds the detector error model of `experiment` and a decoder of
    /// the requested kind.
    ///
    /// # Panics
    ///
    /// Panics if a restriction decoder is requested for a code without
    /// plaquette colors.
    pub fn new(
        code: &CssCode,
        experiment: &MemoryExperiment,
        kind: DecoderKind,
        noise: &NoiseModel,
    ) -> Self {
        Self::build(code, experiment, kind, noise, Registry::new(), 1)
    }

    /// Shared constructor: `new` starts a fresh registry, a retarget
    /// rebuild passes the existing one through so counters accumulate
    /// across decoder generations.
    fn build(
        code: &CssCode,
        experiment: &MemoryExperiment,
        kind: DecoderKind,
        noise: &NoiseModel,
        metrics: Registry,
        constructions: u64,
    ) -> Self {
        let mut span =
            qec_obs::span_with("pipeline.build", &[("kind", format!("{kind:?}").into())]);
        let dem = DetectorErrorModel::from_circuit(&experiment.circuit);
        span.field("detectors", dem.num_detectors());
        span.field("mechanisms", dem.mechanisms().len());
        let pm = noise.measurement_flip();
        let decoder = match kind {
            DecoderKind::FlaggedMwpm => PipelineDecoder::Mwpm(MwpmDecoder::with_metrics(
                &dem,
                MwpmConfig::flagged(pm),
                metrics.clone(),
            )),
            DecoderKind::PlainMwpm => PipelineDecoder::Mwpm(MwpmDecoder::with_metrics(
                &dem,
                MwpmConfig::unflagged(),
                metrics.clone(),
            )),
            DecoderKind::FlaggedRestriction => {
                PipelineDecoder::Restriction(RestrictionDecoder::with_metrics(
                    &dem,
                    color_context(code, experiment.basis),
                    RestrictionConfig::flagged(pm),
                    metrics.clone(),
                ))
            }
            DecoderKind::ChamberlandRestriction => {
                PipelineDecoder::Restriction(RestrictionDecoder::with_metrics(
                    &dem,
                    color_context(code, experiment.basis),
                    RestrictionConfig::chamberland(pm),
                    metrics.clone(),
                ))
            }
            DecoderKind::FlaggedBpOsd => PipelineDecoder::BpOsd(BpOsdDecoder::with_metrics(
                &dem,
                BpOsdConfig::flagged(pm),
                metrics.clone(),
            )),
            DecoderKind::PlainBpOsd => PipelineDecoder::BpOsd(BpOsdDecoder::with_metrics(
                &dem,
                BpOsdConfig::unflagged(),
                metrics.clone(),
            )),
        };
        DecodingPipeline {
            dem,
            decoder,
            kind,
            constructions,
            metrics,
        }
    }

    /// Points the pipeline at a new experiment of the same shape,
    /// preferring to **reprice** the existing decoder in place: when
    /// `kind` is unchanged and the new DEM has the same decoding-graph
    /// topology (same detectors, edge classes and flag structure —
    /// true across the points of a `p` sweep), only probabilities are
    /// recomputed and the constructed path indexes survive. Returns
    /// `true` on reprice; on any structural change it falls back to a
    /// full rebuild (incrementing [`Self::constructions`]) and returns
    /// `false`.
    pub fn retarget(
        &mut self,
        code: &CssCode,
        experiment: &MemoryExperiment,
        kind: DecoderKind,
        noise: &NoiseModel,
    ) -> bool {
        let mut span = qec_obs::span("pipeline.retarget");
        let dem = DetectorErrorModel::from_circuit(&experiment.circuit);
        let pm = noise.measurement_flip();
        let repriced = kind == self.kind
            && match (&mut self.decoder, kind) {
                (PipelineDecoder::Mwpm(d), DecoderKind::FlaggedMwpm) => {
                    d.reprice(&dem, MwpmConfig::flagged(pm))
                }
                (PipelineDecoder::Mwpm(d), DecoderKind::PlainMwpm) => {
                    d.reprice(&dem, MwpmConfig::unflagged())
                }
                (PipelineDecoder::Restriction(d), DecoderKind::FlaggedRestriction) => {
                    d.reprice(&dem, RestrictionConfig::flagged(pm))
                }
                (PipelineDecoder::Restriction(d), DecoderKind::ChamberlandRestriction) => {
                    d.reprice(&dem, RestrictionConfig::chamberland(pm))
                }
                (PipelineDecoder::BpOsd(d), DecoderKind::FlaggedBpOsd) => {
                    d.reprice(&dem, BpOsdConfig::flagged(pm))
                }
                (PipelineDecoder::BpOsd(d), DecoderKind::PlainBpOsd) => {
                    d.reprice(&dem, BpOsdConfig::unflagged())
                }
                _ => false,
            };
        span.field("repriced", repriced);
        if repriced {
            self.dem = dem;
            true
        } else {
            *self = DecodingPipeline::build(
                code,
                experiment,
                kind,
                noise,
                self.metrics.clone(),
                self.constructions + 1,
            );
            false
        }
    }

    /// The experiment's detector error model.
    pub fn dem(&self) -> &DetectorErrorModel {
        &self.dem
    }

    /// The configured decoder.
    pub fn decoder(&self) -> &(dyn Decoder + Send) {
        self.decoder.as_decoder()
    }

    /// The decoder kind currently configured.
    pub fn kind(&self) -> DecoderKind {
        self.kind
    }

    /// Number of full decoder constructions over this pipeline's
    /// lifetime (1 after [`Self::new`]; unchanged by a successful
    /// [`Self::retarget`] reprice).
    pub fn constructions(&self) -> u64 {
        self.constructions
    }

    /// The metrics registry shared by every decoder generation of this
    /// pipeline (tier counters, build gauges, the harness's per-batch
    /// latency histogram). Observe-only.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Consumes the pipeline and returns its constructed decoder as a
    /// shareable trait object — the form a streaming decode service
    /// (`qec-serve`'s `DecodeService`) takes. The decoder keeps its
    /// metrics registry, so `decode.*` counters keep accumulating in
    /// the same series the pipeline exposed.
    pub fn into_shared_decoder(self) -> std::sync::Arc<dyn Decoder + Send + Sync> {
        match self.decoder {
            PipelineDecoder::Mwpm(d) => std::sync::Arc::new(d),
            PipelineDecoder::Restriction(d) => std::sync::Arc::new(d),
            PipelineDecoder::BpOsd(d) => std::sync::Arc::new(d),
        }
    }
}

/// Extracts the color structure a restriction decoder needs from a
/// color code, for the given memory basis.
///
/// # Panics
///
/// Panics if the code has no plaquette colors.
pub fn color_context(code: &CssCode, basis: Basis) -> ColorCodeContext {
    let colors = code
        .check_colors()
        .expect("restriction decoding needs a color code");
    let plaquette_colors = colors
        .iter()
        .map(|c| match c {
            PlaqColor::Red => 0u8,
            PlaqColor::Green => 1,
            PlaqColor::Blue => 2,
        })
        .collect();
    let plaquette_supports = (0..code.num_x_checks())
        .map(|i| code.x_support(i))
        .collect();
    // In a Z-basis memory the residual errors that matter are X-type:
    // an X on qubit q flips the Z logicals containing q.
    let logicals = code.logicals();
    let ops = match basis {
        Basis::Z => logicals.zs(),
        Basis::X => logicals.xs(),
    };
    let mut qubit_observables = vec![Vec::new(); code.n()];
    for (j, row) in ops.iter_rows().enumerate() {
        for q in row.iter_ones() {
            qubit_observables[q].push(j as u32);
        }
    }
    ColorCodeContext {
        plaquette_colors,
        plaquette_supports,
        qubit_observables,
    }
}

/// Result of a block-error-rate estimation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BerStats {
    /// Shots executed — `requested_shots` rounded **up** to whole
    /// 64-shot sampler batches (the bit-packed engine always runs full
    /// batches). Every executed shot is a real, decoded trial, so this
    /// is the denominator of [`Self::ber`].
    pub shots: usize,
    /// Shots the caller asked for. A 100-shot request executes (and
    /// reports) 128 shots; this field keeps the original request
    /// visible instead of silently substituting the padded count.
    pub requested_shots: usize,
    /// Shots where at least one logical observable stayed flipped
    /// after correction.
    pub failures: usize,
    /// Number of logical qubits (for normalization).
    pub k: usize,
    /// Shots the decoder abandoned with a partial correction during
    /// this run: Union-Find stalls and round limits, matching shots
    /// without a perfect matching, and BP+OSD syndromes outside the
    /// column space (see [`qec_decode::DecoderStats::giveups`]).
    pub decode_giveups: usize,
    /// Shots whose path queries were answered by the precomputed
    /// [`qec_decode::PathOracle`] during this run (matching decoders
    /// only).
    pub oracle_hits: usize,
    /// Shots answered by the lazy [`qec_decode::SparsePathFinder`]
    /// during this run (graph above the oracle node limit, or
    /// flag-reweighted shot).
    pub sparse_hits: usize,
    /// Retired with the per-shot Dijkstra tier: always 0.
    pub oracle_misses: usize,
}

impl BerStats {
    /// The block error rate (Eq. 5). An empty run (`shots == 0`, e.g.
    /// `run_ber` with `shots = 0`) reports 0.0 rather than the NaN of
    /// `0/0`, so downstream comparisons and formatting stay sane.
    pub fn ber(&self) -> f64 {
        if self.shots == 0 {
            0.0
        } else {
            self.failures as f64 / self.shots as f64
        }
    }

    /// The normalized block error rate `BER / k` (§III-C). 0.0 on an
    /// empty run, like [`Self::ber`].
    pub fn ber_norm(&self) -> f64 {
        self.ber() / self.k.max(1) as f64
    }
}

/// Runs `shots` memory-experiment trials of `circuit` (rounded up to
/// 64-shot batches), decoding each with `decoder`, split across
/// `threads` worker threads.
///
/// Batches are handed out by an atomic work-stealing counter, and
/// batch `b` always draws from the forked RNG stream
/// [`Xoshiro256StarStar::from_seed_stream`]`(seed, b)` regardless of
/// which worker executes it, so the result is **bit-identical for any
/// thread count**. Each worker owns one [`FrameBatch`] scratch, so
/// steady-state sampling does not reallocate frame storage. Shots with
/// an empty syndrome are settled from the batch's
/// [`fired_shots`](qec_sim::ShotBatch::fired_shots) and
/// [`flipped_shots`](qec_sim::ShotBatch::flipped_shots) masks, without
/// extracting their bits or calling the decoder.
///
/// The bit-packed sampler always executes whole 64-shot batches, so a
/// 100-shot request runs 128 trials; [`BerStats::shots`] reports the
/// executed count (the real BER denominator) and
/// [`BerStats::requested_shots`] preserves what was asked for, so the
/// padding is visible instead of silently inflating the reported shot
/// count.
///
/// A trial fails when the decoder's predicted observable flips differ
/// from the actual flips in any logical qubit.
///
/// # Single-run attribution
///
/// The per-run tier/give-up counts in [`BerStats`] are computed as the
/// delta between two snapshots of the decoder's **lifetime** counters
/// (`decoder.stats()` before and after). That attribution is only
/// correct when this run is the decoder's sole client for its
/// duration: two concurrent `run_ber` calls sharing one decoder leak
/// each other's tier hits into both deltas (failure counts stay
/// correct — they are accumulated locally). Callers that need
/// concurrent decoding over one decoder should go through
/// `qec-serve`'s `DecodeService`, which attributes work per request
/// from the request's own clock and span fields instead of
/// lifetime-counter deltas.
///
/// # Panics
///
/// Panics if `threads == 0` or the decoder's observable count differs
/// from the circuit's.
pub fn run_ber(
    circuit: &Circuit,
    decoder: &(dyn Decoder + Send),
    shots: usize,
    seed: u64,
    threads: usize,
) -> BerStats {
    assert!(threads > 0, "need at least one thread");
    assert_eq!(
        decoder.num_observables(),
        circuit.observables().len(),
        "decoder/circuit observable mismatch"
    );
    let batches = shots.div_ceil(64);
    let failures = AtomicUsize::new(0);
    let next_batch = AtomicUsize::new(0);
    let k = circuit.observables().len();
    let stats_before = decoder.stats();
    let mut run_span = qec_obs::span_with(
        "ber.run",
        &[
            ("shots", (batches * 64).into()),
            ("threads", threads.into()),
            ("seed", seed.into()),
        ],
    );
    // Per-batch wall-clock histogram (sample + decode + compare of one
    // 64-shot batch). Always-on like the tier counters: three relaxed
    // atomic adds per batch, invisible to decode results.
    let batch_hist = decoder.metrics().map(|m| m.histogram("ber.batch_ns"));
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let failures = &failures;
            let next_batch = &next_batch;
            let batch_hist = batch_hist.clone();
            scope.spawn(move || {
                let _worker_span = qec_obs::span_with("ber.worker", &[("worker", worker.into())]);
                let sampler = FrameSampler::new(circuit);
                let mut scratch = FrameBatch::new();
                let mut decode_scratch = DecodeScratch::new();
                let mut dets = BitVec::zeros(0);
                let mut actual = BitVec::zeros(0);
                let mut predicted = BitVec::zeros(0);
                let mut local_failures = 0usize;
                loop {
                    let b = next_batch.fetch_add(1, Ordering::Relaxed);
                    if b >= batches {
                        break;
                    }
                    let batch_start = batch_hist.as_ref().map(|_| std::time::Instant::now());
                    let mut rng = Xoshiro256StarStar::from_seed_stream(seed, b as u64);
                    let batch = sampler.sample_batch_with(&mut scratch, &mut rng);
                    // An empty syndrome decodes to "no flip", so an empty
                    // shot fails exactly when it flipped an observable;
                    // only fired shots are extracted and decoded.
                    let fired = batch.fired_shots();
                    local_failures += (batch.flipped_shots() & !fired).count_ones() as usize;
                    let mut pending = fired;
                    while pending != 0 {
                        let shot = pending.trailing_zeros() as usize;
                        pending &= pending - 1;
                        batch.observable_bits_into(shot, &mut actual);
                        batch.detector_bits_into(shot, &mut dets);
                        decoder.decode_into(&dets, &mut decode_scratch, &mut predicted);
                        if predicted != actual {
                            local_failures += 1;
                        }
                    }
                    if let (Some(hist), Some(start)) = (&batch_hist, batch_start) {
                        let ns = start.elapsed().as_nanos();
                        hist.record(u64::try_from(ns).unwrap_or(u64::MAX));
                    }
                }
                failures.fetch_add(local_failures, Ordering::Relaxed);
            });
        }
    });
    // Per-run attribution: the decoder's counters are lifetime values
    // (shared across pipeline rebuilds), so this run's numbers are the
    // delta between the surrounding snapshots.
    let delta = decoder.stats().delta(&stats_before);
    let failures = failures.load(Ordering::Relaxed);
    run_span.field("failures", failures);
    run_span.field("giveups", delta.giveups());
    BerStats {
        shots: batches * 64,
        requested_shots: shots,
        failures,
        k,
        decode_giveups: delta.giveups() as usize,
        oracle_hits: delta.oracle_hits as usize,
        sparse_hits: delta.sparse_hits as usize,
        oracle_misses: delta.oracle_misses as usize,
    }
}

/// Exhaustively injects every single fault mechanism of `dem` and
/// counts how many the decoder corrects wrongly.
///
/// A fault-tolerant architecture+decoder pair (effective distance
/// ≥ 3) corrects **every** single fault, so this returns 0; baselines
/// with `d_eff = 2` return a positive count (this is the mechanism
/// behind Figs. 19 and 20).
pub fn count_single_fault_failures(dem: &DetectorErrorModel, decoder: &dyn Decoder) -> usize {
    let mut failures = 0;
    for mech in dem.mechanisms() {
        let dets = BitVec::from_ones(
            dem.num_detectors(),
            mech.detectors.iter().map(|&d| d as usize),
        );
        let actual = BitVec::from_ones(
            dem.num_observables(),
            mech.observables.iter().map(|&o| o as usize),
        );
        let predicted = decoder.decode(&dets);
        if predicted != actual {
            failures += 1;
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec_arch::{FlagProxyNetwork, FpnConfig};
    use qec_code::hyperbolic::{toric_color_code, toric_surface_code};
    use qec_code::planar::rotated_surface_code;
    use qec_sched::build_memory_circuit;

    #[test]
    fn planar_d3_single_faults_all_corrected() {
        let code = rotated_surface_code(3);
        let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
        let noise = NoiseModel::new(1e-3);
        for basis in [Basis::Z, Basis::X] {
            let exp = build_memory_circuit(&code, &fpn, Some(&noise), 3, basis);
            let pipeline = DecodingPipeline::new(&code, &exp, DecoderKind::PlainMwpm, &noise);
            let bad = count_single_fault_failures(pipeline.dem(), pipeline.decoder());
            assert_eq!(bad, 0, "planar d=3 {basis:?} is fault tolerant");
        }
    }

    #[test]
    fn planar_d3_ber_below_physical_noise() {
        let code = rotated_surface_code(3);
        let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
        let noise = NoiseModel::new(1e-3);
        let exp = build_memory_circuit(&code, &fpn, Some(&noise), 3, Basis::Z);
        let pipeline = DecodingPipeline::new(&code, &exp, DecoderKind::PlainMwpm, &noise);
        let stats = run_ber(&exp.circuit, pipeline.decoder(), 2_000, 11, 4);
        assert!(
            stats.ber() < 0.05,
            "d=3 surface BER {} unexpectedly high",
            stats.ber()
        );
    }

    #[test]
    fn toric_surface_decodes() {
        let code = toric_surface_code(3).unwrap();
        let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
        let noise = NoiseModel::new(1e-3);
        let exp = build_memory_circuit(&code, &fpn, Some(&noise), 3, Basis::Z);
        let pipeline = DecodingPipeline::new(&code, &exp, DecoderKind::PlainMwpm, &noise);
        let stats = run_ber(&exp.circuit, pipeline.decoder(), 1_000, 3, 4);
        assert!(stats.ber() < 0.1, "toric BER {}", stats.ber());
    }

    #[test]
    fn toric_color_restriction_decodes() {
        let code = toric_color_code(2).unwrap();
        let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
        let noise = NoiseModel::new(5e-4);
        let exp = build_memory_circuit(&code, &fpn, Some(&noise), 2, Basis::Z);
        let pipeline = DecodingPipeline::new(&code, &exp, DecoderKind::FlaggedRestriction, &noise);
        let stats = run_ber(&exp.circuit, pipeline.decoder(), 1_000, 5, 4);
        assert!(stats.ber() < 0.15, "toric color BER {}", stats.ber());
    }

    #[test]
    fn code_capacity_singles_all_corrected() {
        // Under code-capacity noise with perfect extraction, decoders
        // must realize the full code distance: every single data error
        // is corrected (d >= 3).
        use qec_sched::build_code_capacity_circuit;
        let noise = NoiseModel::new(1e-2);
        let cases: Vec<(CssCode, DecoderKind)> = vec![
            (
                qec_code::hyperbolic::toric_surface_code(3).unwrap(),
                DecoderKind::PlainMwpm,
            ),
            (
                qec_code::hyperbolic::toric_color_code(2).unwrap(),
                DecoderKind::FlaggedRestriction,
            ),
            (
                qec_code::planar::rotated_surface_code(3),
                DecoderKind::PlainMwpm,
            ),
        ];
        for (code, kind) in cases {
            let fpn = FlagProxyNetwork::build(&code, &qec_arch::FpnConfig::direct());
            for basis in [Basis::Z, Basis::X] {
                let exp = build_code_capacity_circuit(&code, &fpn, 1e-2, basis);
                let pipeline = DecodingPipeline::new(&code, &exp, kind, &noise);
                assert_eq!(
                    count_single_fault_failures(pipeline.dem(), pipeline.decoder()),
                    0,
                    "{} {basis:?}",
                    code.name()
                );
            }
        }
    }

    #[test]
    fn pipeline_retarget_reprices_without_rebuilding() {
        let code = rotated_surface_code(3);
        let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
        let noise_a = NoiseModel::new(1e-3);
        let exp_a = build_memory_circuit(&code, &fpn, Some(&noise_a), 3, Basis::Z);
        let mut pipeline = DecodingPipeline::new(&code, &exp_a, DecoderKind::FlaggedMwpm, &noise_a);
        assert_eq!(pipeline.constructions(), 1);
        // Same topology, different error rate: reprice in place.
        let noise_b = NoiseModel::new(2e-3);
        let exp_b = build_memory_circuit(&code, &fpn, Some(&noise_b), 3, Basis::Z);
        assert!(pipeline.retarget(&code, &exp_b, DecoderKind::FlaggedMwpm, &noise_b));
        assert_eq!(pipeline.constructions(), 1);
        // The repriced decoder must be indistinguishable from one built
        // fresh at the new rate.
        let fresh = DecodingPipeline::new(&code, &exp_b, DecoderKind::FlaggedMwpm, &noise_b);
        for mech in fresh.dem().mechanisms() {
            let dets = BitVec::from_ones(
                fresh.dem().num_detectors(),
                mech.detectors.iter().map(|&d| d as usize),
            );
            assert_eq!(
                pipeline.decoder().decode(&dets),
                fresh.decoder().decode(&dets),
                "repriced pipeline diverged from a fresh build"
            );
        }
        // A decoder-kind change cannot be repriced: full rebuild.
        assert!(!pipeline.retarget(&code, &exp_b, DecoderKind::PlainMwpm, &noise_b));
        assert_eq!(pipeline.constructions(), 2);
        assert_eq!(pipeline.kind(), DecoderKind::PlainMwpm);
        // A round-count change alters the DEM topology: full rebuild.
        let exp_c = build_memory_circuit(&code, &fpn, Some(&noise_b), 4, Basis::Z);
        assert!(!pipeline.retarget(&code, &exp_c, DecoderKind::PlainMwpm, &noise_b));
        assert_eq!(pipeline.constructions(), 3);
    }

    #[test]
    fn ber_stats_normalization() {
        let stats = BerStats {
            shots: 1000,
            requested_shots: 1000,
            failures: 40,
            k: 8,
            decode_giveups: 0,
            oracle_hits: 0,
            sparse_hits: 0,
            oracle_misses: 0,
        };
        assert!((stats.ber() - 0.04).abs() < 1e-12);
        assert!((stats.ber_norm() - 0.005).abs() < 1e-12);
    }

    /// Regression: a zero-shot run used to report `0/0 = NaN`; it must
    /// report a BER of exactly 0.0 (and execute zero batches).
    #[test]
    fn zero_shot_run_reports_zero_ber_not_nan() {
        let code = rotated_surface_code(3);
        let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
        let noise = NoiseModel::new(1e-3);
        let exp = build_memory_circuit(&code, &fpn, Some(&noise), 3, Basis::Z);
        let pipeline = DecodingPipeline::new(&code, &exp, DecoderKind::PlainMwpm, &noise);
        let stats = run_ber(&exp.circuit, pipeline.decoder(), 0, 11, 2);
        assert_eq!(stats.shots, 0);
        assert_eq!(stats.requested_shots, 0);
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.ber(), 0.0, "empty run must not be NaN");
        assert_eq!(stats.ber_norm(), 0.0);
    }

    /// Regression: `run_ber` rounds shot counts up to 64-shot batches;
    /// the padded count is the executed denominator, but the original
    /// request must stay visible in `requested_shots`.
    #[test]
    fn batch_padding_is_recorded_not_silent() {
        let code = rotated_surface_code(3);
        let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
        let noise = NoiseModel::new(1e-3);
        let exp = build_memory_circuit(&code, &fpn, Some(&noise), 3, Basis::Z);
        let pipeline = DecodingPipeline::new(&code, &exp, DecoderKind::PlainMwpm, &noise);
        let stats = run_ber(&exp.circuit, pipeline.decoder(), 100, 11, 2);
        assert_eq!(stats.shots, 128, "execution still pads to whole batches");
        assert_eq!(stats.requested_shots, 100);
        // An exact multiple of 64 needs no padding.
        let stats = run_ber(&exp.circuit, pipeline.decoder(), 128, 11, 2);
        assert_eq!(stats.shots, 128);
        assert_eq!(stats.requested_shots, 128);
    }
}
