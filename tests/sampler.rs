//! Bit-identity pins for the batched frame sampler and `run_ber`'s
//! empty-shot skip, and the batched sampler's cross-checks against
//! qec-testkit's scalar one-shot reference.
//!
//! The golden constants below hash every detector and observable word
//! of 64 RNG streams, plus the next RNG draw after each batch (so a
//! change in how many draws a batch consumes shows up even when the
//! sampled words happen to agree). They were computed with the
//! per-call `sample_mask` sampler, before `FrameSampler::new` learned
//! to precompute its per-probability skip constants; the precomputed
//! sampler must reproduce them exactly.

use fpn_repro::prelude::*;
use fpn_repro::qec_sim::{sample_mask, DetectorMeta, FrameBatch, MaskRate, Op};
use qec_math::rng::{Rng, Xoshiro256StarStar};
use qec_math::BitVec;
use qec_testkit::reference::sample_shot;
use std::collections::BTreeMap;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const SEED: u64 = 0x5a3d_0014;

/// FNV-1a over the detector words, observable words and the following
/// RNG draw of streams `0..64`.
fn sampler_fingerprint(circuit: &Circuit) -> u64 {
    let sampler = FrameSampler::new(circuit);
    let mut scratch = FrameBatch::new();
    let mut h = FNV_OFFSET;
    for stream in 0..64 {
        let mut rng = Xoshiro256StarStar::from_seed_stream(SEED, stream);
        let batch = sampler.sample_batch_with(&mut scratch, &mut rng);
        let next = rng.next_u64();
        for &w in batch
            .detectors
            .iter()
            .chain(&batch.observables)
            .chain(std::iter::once(&next))
        {
            h = (h ^ w).wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// The `ber_surface_d5` benchmark circuit: rotated d = 5, direct
/// layout, 5 rounds, p = 1e-3.
fn surface_d5() -> Circuit {
    let code = rotated_surface_code(5);
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
    let noise = NoiseModel::new(1e-3);
    build_memory_circuit(&code, &fpn, Some(&noise), 5, Basis::Z).circuit
}

/// The `[[180,20]]` {4,5} hyperbolic surface code as a shared-flag FPN,
/// 6 rounds, p = 1e-3.
fn hyperbolic_shared_flag() -> Circuit {
    let code = hyperbolic_surface_code(&SURFACE_REGISTRY[2]).expect("registry code builds");
    assert_eq!((code.n(), code.k()), (180, 20));
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::shared());
    let noise = NoiseModel::new(1e-3);
    build_memory_circuit(&code, &fpn, Some(&noise), 6, Basis::Z).circuit
}

/// A 4-qubit circuit that runs every noise op at p = 1e-3, 0.05 and 0.5.
fn every_noise_op() -> Circuit {
    let mut c = Circuit::new(4);
    let obs = c.add_observable();
    for (round, &p) in [1e-3, 0.05, 0.5].iter().enumerate() {
        c.reset(&[0, 1, 2, 3]);
        c.x_error(&[0, 1], p);
        c.z_error(&[2, 3], p);
        c.h(&[2, 3]);
        c.pauli_channel1(&[0, 1, 2, 3], p / 4.0, p / 4.0, p / 2.0);
        c.depolarize1(&[0, 2], p);
        c.cx(&[(0, 1), (2, 3)]);
        c.depolarize2(&[(0, 1), (2, 3)], p);
        c.h(&[2, 3]);
        let m = c.measure(&[0, 1, 2, 3], p);
        for i in 0..4 {
            c.add_detector(vec![m + i], DetectorMeta::check(i, round));
        }
        c.include_in_observable(obs, &[m + 1]);
    }
    c
}

#[test]
fn frame_sampler_golden_surface_d5() {
    let fp = sampler_fingerprint(&surface_d5());
    assert_eq!(
        fp, 0x58c5_fcb6_f1fb_e23f,
        "d5 surface sampler fingerprint {fp:#018x}"
    );
}

#[test]
fn frame_sampler_golden_hyperbolic_shared_flag() {
    let fp = sampler_fingerprint(&hyperbolic_shared_flag());
    assert_eq!(
        fp, 0xb35f_124d_468a_88c9,
        "[[180,20]] sampler fingerprint {fp:#018x}"
    );
}

#[test]
fn frame_sampler_golden_every_noise_op() {
    let fp = sampler_fingerprint(&every_noise_op());
    assert_eq!(
        fp, 0x86d2_7a88_4bbb_8084,
        "every-noise-op sampler fingerprint {fp:#018x}"
    );
}

/// Every distinct noise probability of `circuits`.
fn noise_probabilities(circuits: &[Circuit]) -> Vec<f64> {
    let ps: BTreeMap<u64, f64> = circuits
        .iter()
        .flat_map(|c| c.ops().iter().filter_map(Op::noise_probability))
        .map(|p| (p.to_bits(), p))
        .collect();
    ps.into_values().collect()
}

fn workload_probabilities() -> Vec<f64> {
    noise_probabilities(&[surface_d5(), hyperbolic_shared_flag(), every_noise_op()])
}

#[test]
fn mask_rate_matches_sample_mask_bitwise() {
    let mut grid = vec![
        0.0,
        -0.5,
        1.0,
        1.5,
        f64::MIN_POSITIVE,
        1e-300,
        1e-17,
        1e-16,
        2e-16,
        1e-12,
        1e-6,
        1e-4,
        3e-4,
        1e-3,
        0.01,
        0.05,
        0.25,
        0.5,
        0.75,
        0.9,
        0.99,
        1.0 - 1e-9,
        1.0 - 1e-15,
        1.0 - f64::EPSILON,
        1.0 - f64::EPSILON / 2.0,
    ];
    grid.extend(workload_probabilities());
    for (i, &p) in grid.iter().enumerate() {
        let rate = MaskRate::new(p);
        let mut a = Xoshiro256StarStar::from_seed_stream(SEED, i as u64);
        let mut b = Xoshiro256StarStar::from_seed_stream(SEED, i as u64);
        for draw in 0..20_000 {
            let (fast, reference) = (rate.sample(&mut a), sample_mask(&mut b, p));
            assert_eq!(fast, reference, "p = {p:e}, draw {draw}");
        }
        assert_eq!(
            a.next_u64(),
            b.next_u64(),
            "RNG state diverged at p = {p:e}"
        );
    }
}

/// An RNG whose first draw is fixed and whose later draws come from a
/// seeded generator, so a test can choose the first uniform exactly.
struct FirstDraw {
    first: Option<u64>,
    rest: Xoshiro256StarStar,
}

impl FirstDraw {
    /// The first `gen_f64` returns `k·2⁻⁵³`.
    fn grid_point(k: u64) -> Self {
        FirstDraw {
            first: Some(k << 11),
            rest: Xoshiro256StarStar::seed_from_u64(k),
        }
    }
}

impl Rng for FirstDraw {
    fn next_u64(&mut self) -> u64 {
        self.first.take().unwrap_or_else(|| self.rest.next_u64())
    }
}

#[test]
fn zero_mask_threshold_is_exact_around_the_boundary() {
    // The threshold comes from a binary search that assumes the first
    // skip never decreases as the draw grows. Check that assumption on
    // every grid point within 2¹⁶ of the threshold: a first draw at or
    // above it gives the empty mask, one below it fires a lane, and
    // the precomputed sampler agrees with `sample_mask` either way.
    const WINDOW: u64 = 1 << 16;
    for p in workload_probabilities() {
        let rate = MaskRate::new(p);
        // 1.0 (k0 = 2⁵³) when no draw skips all 64 lanes, as at p = 0.5.
        let zero_from = rate.zero_from().expect("workload p is in (0, 1)");
        let k0 = (zero_from * (1u64 << 53) as f64) as u64;
        assert_eq!(k0 as f64 / (1u64 << 53) as f64, zero_from);
        for k in k0.saturating_sub(WINDOW)..(k0 + WINDOW).min(1 << 53) {
            let reference = sample_mask(&mut FirstDraw::grid_point(k), p);
            assert_eq!(reference == 0, k >= k0, "p = {p:e}, k = {k}, k0 = {k0}");
            assert_eq!(rate.sample(&mut FirstDraw::grid_point(k)), reference);
        }
    }
}

#[test]
fn tiny_probability_never_fires() {
    // Where 1 - p rounds to 1, ln(1 - p) is 0 and the skip formula used
    // to cast -inf to a zero skip, flipping every lane.
    let p = 1e-17;
    let mut rng = Xoshiro256StarStar::seed_from_u64(17);
    assert!((0..100_000).all(|_| sample_mask(&mut rng, p) == 0));
    let rate = MaskRate::new(p);
    assert!((0..100_000).all(|_| rate.sample(&mut rng) == 0));
    assert!((0..1000).all(|_| sample_mask(&mut rng, f64::MIN_POSITIVE) == 0));

    // The same through the frame sampler: 100 qubits x (error +
    // readout flip) x 500 batches = 10^5 masks.
    let mut c = Circuit::new(100);
    let qubits: Vec<usize> = (0..100).collect();
    c.reset(&qubits);
    c.x_error(&qubits, p);
    let m = c.measure(&qubits, p);
    for q in 0..100 {
        c.add_detector(vec![m + q], DetectorMeta::check(q, 0));
    }
    let sampler = FrameSampler::new(&c);
    let mut scratch = FrameBatch::new();
    for _ in 0..500 {
        let batch = sampler.sample_batch_with(&mut scratch, &mut rng);
        assert_eq!(batch.fired_shots(), 0);
    }
}

#[test]
#[should_panic(expected = "not in [0, 1]")]
fn nan_probability_panics_at_circuit_build() {
    let mut c = Circuit::new(2);
    c.depolarize2(&[(0, 1)], f64::NAN);
}

#[test]
fn run_ber_empty_shot_skip_matches_full_extraction() {
    // The pre-skip loop: extract every shot, decode the non-empty ones.
    let code = rotated_surface_code(3);
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
    let noise = NoiseModel::new(5e-3);
    let exp = build_memory_circuit(&code, &fpn, Some(&noise), 3, Basis::Z);
    let pipeline = DecodingPipeline::new(&code, &exp, DecoderKind::PlainMwpm, &noise);
    let (shots, seed) = (64 * 64, 29);

    let sampler = FrameSampler::new(&exp.circuit);
    let mut scratch = FrameBatch::new();
    let (mut dets, mut actual) = (BitVec::zeros(0), BitVec::zeros(0));
    let (mut failures, mut empty) = (0, 0);
    for b in 0..shots / 64 {
        let mut rng = Xoshiro256StarStar::from_seed_stream(seed, b as u64);
        let batch = sampler.sample_batch_with(&mut scratch, &mut rng);
        for shot in 0..64 {
            batch.detector_bits_into(shot, &mut dets);
            batch.observable_bits_into(shot, &mut actual);
            assert_eq!(dets.is_zero(), (batch.fired_shots() >> shot) & 1 == 0);
            assert_eq!(actual.is_zero(), (batch.flipped_shots() >> shot) & 1 == 0);
            let failed = if dets.is_zero() {
                empty += 1;
                !actual.is_zero()
            } else {
                pipeline.decoder().decode(&dets) != actual
            };
            failures += usize::from(failed);
        }
    }
    assert!(
        empty > 0 && empty < shots,
        "fixture must mix empty and fired shots"
    );
    assert!(failures > 0, "fixture must have failures to compare");
    for threads in [1, 2] {
        let stats = run_ber(&exp.circuit, pipeline.decoder(), shots, seed, threads);
        assert_eq!(stats.failures, failures, "{threads} threads");
    }
}

// The batched sampler against qec-testkit's scalar one-shot reference:
// exact agreement where faults are deterministic, matching frequencies
// where they are not.

#[test]
fn noiseless_circuit_fires_nothing() {
    // Bell-pair parity: deterministic 0 detector.
    let mut c = Circuit::new(3);
    c.reset(&[0, 1, 2]);
    c.h(&[0]);
    c.cx(&[(0, 1)]);
    c.cx(&[(0, 2), (1, 2)]);
    let m = c.measure(&[2], 0.0);
    c.add_detector(vec![m], DetectorMeta::check(0, 0));
    let sampler = FrameSampler::new(&c);
    let batch = sampler.sample_batch(&mut Xoshiro256StarStar::seed_from_u64(7));
    assert!(!batch.any_detection());
    let shot = sample_shot(&c, &mut Xoshiro256StarStar::seed_from_u64(7));
    assert!(shot.detectors.is_zero());
}

#[test]
fn observable_tracks_logical_flip() {
    let mut c = Circuit::new(1);
    c.reset(&[0]);
    c.x_error(&[0], 1.0);
    let m = c.measure(&[0], 0.0);
    let obs = c.add_observable();
    c.include_in_observable(obs, &[m]);
    let batch = FrameSampler::new(&c).sample_batch(&mut Xoshiro256StarStar::seed_from_u64(3));
    assert_eq!(batch.observables[0], !0u64);
    assert_eq!(batch.observable_bits(17).weight(), 1);
    let shot = sample_shot(&c, &mut Xoshiro256StarStar::seed_from_u64(3));
    assert_eq!(shot.observables.weight(), 1);
}

#[test]
fn scalar_shot_agrees_with_batch_on_deterministic_faults() {
    // With p in {0, 1} both paths are fault-deterministic, so the
    // scalar reference and every batch lane must agree exactly.
    let mut c = Circuit::new(3);
    c.reset(&[0, 1, 2]);
    c.x_error(&[0], 1.0);
    c.z_error(&[1], 1.0);
    c.h(&[1]);
    c.cx(&[(0, 2), (1, 2)]);
    let m = c.measure(&[0, 1, 2], 0.0);
    for i in 0..3 {
        c.add_detector(vec![m + i], DetectorMeta::check(i, 0));
    }
    let sampler = FrameSampler::new(&c);
    let batch = sampler.sample_batch(&mut Xoshiro256StarStar::seed_from_u64(1));
    let shot = sample_shot(&c, &mut Xoshiro256StarStar::seed_from_u64(2));
    for d in 0..3 {
        let batch_fired = batch.detectors[d] == !0u64;
        assert_eq!(
            batch_fired,
            shot.detectors.get(d),
            "detector {d} disagrees between batch and scalar paths"
        );
        assert!(batch.detectors[d] == 0 || batch.detectors[d] == !0u64);
    }
}

#[test]
fn scalar_shot_frequency_matches_batch_frequency() {
    // Statistical agreement on a genuinely random channel.
    let mut c = Circuit::new(1);
    c.reset(&[0]);
    c.x_error(&[0], 0.3);
    let m = c.measure(&[0], 0.0);
    c.add_detector(vec![m], DetectorMeta::check(0, 0));
    let sampler = FrameSampler::new(&c);
    let mut rng = Xoshiro256StarStar::seed_from_u64(8);
    let mut batch_fired = 0usize;
    for _ in 0..100 {
        batch_fired += sampler.sample_batch(&mut rng).detectors[0].count_ones() as usize;
    }
    let mut scalar_fired = 0usize;
    for _ in 0..6400 {
        if sample_shot(&c, &mut rng).detectors.get(0) {
            scalar_fired += 1;
        }
    }
    let fb = batch_fired as f64 / 6400.0;
    let fs = scalar_fired as f64 / 6400.0;
    assert!((fb - 0.3).abs() < 0.03, "batch freq {fb}");
    assert!((fs - 0.3).abs() < 0.03, "scalar freq {fs}");
}
