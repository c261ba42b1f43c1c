//! Cross-crate integration tests: the full code → FPN → schedule →
//! circuit → sample → decode pipeline.

use fpn_repro::prelude::*;
use qec_math::rng::Xoshiro256StarStar;
use qec_testkit::reference::TableauSimulator;

#[test]
fn noiseless_pipeline_never_fails() {
    // Zero noise: no detectors fire, no observable flips, BER = 0.
    let code = hyperbolic_surface_code(&SURFACE_REGISTRY[12]).unwrap();
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::shared());
    let exp = build_memory_circuit(&code, &fpn, None, 3, Basis::Z);
    let sampler = FrameSampler::new(&exp.circuit);
    let batch = sampler.sample_batch(&mut Xoshiro256StarStar::seed_from_u64(1));
    assert!(!batch.any_detection());
    assert!(batch.observables.iter().all(|&m| m == 0));
}

#[test]
fn detectors_deterministic_across_architectures() {
    let checks: Vec<(CssCode, FpnConfig)> = vec![
        (rotated_surface_code(3), FpnConfig::direct()),
        (toric_surface_code(2).unwrap(), FpnConfig::direct()),
        (toric_color_code(2).unwrap(), FpnConfig::shared()),
        (
            hyperbolic_surface_code(&SURFACE_REGISTRY[5]).unwrap(), // [[12,4]] {4,6}
            FpnConfig::flags_only(),
        ),
        (
            hyperbolic_color_code(&COLOR_REGISTRY[0]).unwrap(),
            FpnConfig::shared(),
        ),
    ];
    let mut rng = Xoshiro256StarStar::seed_from_u64(99);
    for (code, config) in &checks {
        let fpn = FlagProxyNetwork::build(code, config);
        for basis in [Basis::X, Basis::Z] {
            let exp = build_memory_circuit(code, &fpn, None, 2, basis);
            assert_eq!(exp.circuit.observables().len(), code.k());
            assert_eq!(
                TableauSimulator::find_nondeterministic(&exp.circuit, 2, &mut rng),
                None,
                "{} {:?}",
                code.name(),
                basis
            );
        }
    }
}

/// Every detector and logical observable of the noiseless memory
/// circuit is deterministic under the tableau simulator, in both bases.
fn assert_deterministic(code: &CssCode, fpn: &FlagProxyNetwork) {
    for basis in [Basis::Z, Basis::X] {
        let exp = build_memory_circuit(code, fpn, None, 2, basis);
        let mut rng = Xoshiro256StarStar::seed_from_u64(12345);
        let bad = TableauSimulator::find_nondeterministic(&exp.circuit, 3, &mut rng);
        assert_eq!(bad, None, "nondeterministic parity in {basis:?} memory");
    }
}

#[test]
fn planar_interleaved_detectors_are_deterministic() {
    let code = rotated_surface_code(3);
    assert_deterministic(&code, &FlagProxyNetwork::build(&code, &FpnConfig::direct()));
}

#[test]
fn direct_greedy_circuit_detectors_are_deterministic() {
    let code = toric_surface_code(2).unwrap();
    assert_deterministic(&code, &FlagProxyNetwork::build(&code, &FpnConfig::direct()));
}

#[test]
fn fpn_flag_circuit_detectors_are_deterministic() {
    let code = hyperbolic_surface_code(&SURFACE_REGISTRY[12]).unwrap(); // [[30,8]]
    for config in [FpnConfig::flags_only(), FpnConfig::shared()] {
        assert_deterministic(&code, &FlagProxyNetwork::build(&code, &config));
    }
}

#[test]
fn code_capacity_circuit_is_clean_and_deterministic() {
    let code = toric_surface_code(2).unwrap();
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
    for basis in [Basis::Z, Basis::X] {
        let exp = build_code_capacity_circuit(&code, &fpn, 0.05, basis);
        assert_eq!(exp.rounds, 1);
        // Exactly one noise op (the data-error layer).
        let noise_ops = exp
            .circuit
            .ops()
            .iter()
            .filter(|op| matches!(op, qec_sim::Op::XError { .. } | qec_sim::Op::ZError { .. }))
            .count();
        assert_eq!(noise_ops, 1);
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        // Noiseless version (p=0) must have deterministic parities.
        let clean = build_code_capacity_circuit(&code, &fpn, 0.0, basis);
        assert_eq!(
            TableauSimulator::find_nondeterministic(&clean.circuit, 2, &mut rng),
            None
        );
    }
}

#[test]
fn planar_distance_scaling_visible_in_ber() {
    // At p = 2e-3, d=5 must beat d=3 clearly.
    let noise = NoiseModel::new(2e-3);
    let mut bers = Vec::new();
    for d in [3usize, 5] {
        let code = rotated_surface_code(d);
        let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
        let exp = build_memory_circuit(&code, &fpn, Some(&noise), d, Basis::Z);
        let pipeline = DecodingPipeline::new(&code, &exp, DecoderKind::PlainMwpm, &noise);
        let stats = run_ber(&exp.circuit, pipeline.decoder(), 6_000, 7, 4);
        bers.push(stats.ber());
    }
    assert!(
        bers[1] < bers[0] * 0.8,
        "d=5 ({}) should beat d=3 ({})",
        bers[1],
        bers[0]
    );
}

#[test]
fn flag_protocol_restores_effective_distance_surface() {
    // The Fig. 19 mechanism: every single fault is corrected on the FPN
    // with the flagged decoder; the unflagged baseline fails some.
    let code = hyperbolic_surface_code(&SURFACE_REGISTRY[12]).unwrap();
    let noise = NoiseModel::new(1e-3);
    let shared = FlagProxyNetwork::build(&code, &FpnConfig::shared());
    for basis in [Basis::X, Basis::Z] {
        let exp = build_memory_circuit(&code, &shared, Some(&noise), 3, basis);
        let flagged = DecodingPipeline::new(&code, &exp, DecoderKind::FlaggedMwpm, &noise);
        assert_eq!(
            count_single_fault_failures(flagged.dem(), flagged.decoder()),
            0,
            "flagged MWPM corrects every single fault ({basis:?})"
        );
        let plain = DecodingPipeline::new(&code, &exp, DecoderKind::PlainMwpm, &noise);
        assert!(
            count_single_fault_failures(plain.dem(), plain.decoder()) > 0,
            "plain MWPM misses propagation faults ({basis:?})"
        );
    }
}

#[test]
fn flag_protocol_restores_effective_distance_color() {
    // The Fig. 20 mechanism for color codes.
    let code = toric_color_code(2).unwrap();
    let noise = NoiseModel::new(1e-3);
    let shared = FlagProxyNetwork::build(&code, &FpnConfig::shared());
    for basis in [Basis::X, Basis::Z] {
        let exp = build_memory_circuit(&code, &shared, Some(&noise), 2, basis);
        let flagged = DecodingPipeline::new(&code, &exp, DecoderKind::FlaggedRestriction, &noise);
        let chamberland =
            DecodingPipeline::new(&code, &exp, DecoderKind::ChamberlandRestriction, &noise);
        let f = count_single_fault_failures(flagged.dem(), flagged.decoder());
        let c = count_single_fault_failures(chamberland.dem(), chamberland.decoder());
        assert!(
            f <= 2,
            "flagged restriction near-perfect, got {f} ({basis:?})"
        );
        assert!(
            c > 10 * f.max(1),
            "Chamberland baseline much worse: {c} vs {f} ({basis:?})"
        );
        // BP+OSD recovers the same witness only with flag conditioning.
        let flagged_bp = DecodingPipeline::new(&code, &exp, DecoderKind::FlaggedBpOsd, &noise);
        let plain_bp = DecodingPipeline::new(&code, &exp, DecoderKind::PlainBpOsd, &noise);
        let fb = count_single_fault_failures(flagged_bp.dem(), flagged_bp.decoder());
        let pb = count_single_fault_failures(plain_bp.dem(), plain_bp.decoder());
        assert_eq!(
            fb, 0,
            "flagged BP+OSD corrects every single fault ({basis:?})"
        );
        assert!(pb > 0, "plain BP+OSD misses some single faults ({basis:?})");
    }
}

#[test]
fn planar_circuit_distance_matches_code_distance() {
    let code = rotated_surface_code(3);
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
    let noise = NoiseModel::new(1e-3);
    let exp = build_memory_circuit(&code, &fpn, Some(&noise), 3, Basis::Z);
    let dem = DetectorErrorModel::from_circuit(&exp.circuit);
    let mut rng = Xoshiro256StarStar::seed_from_u64(3);
    assert_eq!(dem.estimate_circuit_distance(12, &mut rng), 3);
}

#[test]
fn effective_rates_beat_planar_reference() {
    // The Fig. 12 claim for every mid-size registry code.
    for spec in SURFACE_REGISTRY.iter().filter(|s| s.expected_n <= 200) {
        let code = hyperbolic_surface_code(spec).unwrap();
        let fpn = FlagProxyNetwork::build(&code, &FpnConfig::shared());
        let m = ArchitectureMetrics::compute(&code, &fpn);
        assert!(
            m.effective_rate > 1.0 / 49.0,
            "{} Reff {}",
            code.name(),
            m.effective_rate
        );
        assert!(m.max_degree <= 4);
    }
}

#[test]
fn fpn_ber_improves_at_lower_noise() {
    // Coarse slope sanity: p=5e-4 is much better than p=2e-3.
    let code = hyperbolic_surface_code(&SURFACE_REGISTRY[12]).unwrap();
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::shared());
    let mut bers = Vec::new();
    for p in [2e-3, 5e-4] {
        let noise = NoiseModel::new(p);
        let exp = build_memory_circuit(&code, &fpn, Some(&noise), 3, Basis::Z);
        let pipeline = DecodingPipeline::new(&code, &exp, DecoderKind::FlaggedMwpm, &noise);
        let stats = run_ber(&exp.circuit, pipeline.decoder(), 12_000, 21, 4);
        bers.push(stats.ber().max(1e-5));
    }
    assert!(
        bers[1] < bers[0] / 4.0,
        "BER(5e-4)={} should be well below BER(2e-3)={}",
        bers[1],
        bers[0]
    );
}

#[test]
fn end_to_end_smoke_d3_surface() {
    // The canonical pipeline, end to end: build the d=3 rotated surface
    // code, realize it as a flag-proxy network, schedule syndrome
    // extraction, generate the noisy circuit, sample with the batched
    // engine and decode with MWPM. At p = 1e-3 the logical block error
    // rate must sit well below the physical error rate.
    let p = 1e-3;
    let code = rotated_surface_code(3);
    assert_eq!((code.n(), code.k()), (9, 1));
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
    let noise = NoiseModel::new(p);
    let exp = build_memory_circuit(&code, &fpn, Some(&noise), 3, Basis::Z);
    let pipeline = DecodingPipeline::new(&code, &exp, DecoderKind::PlainMwpm, &noise);
    let stats = run_ber(&exp.circuit, pipeline.decoder(), 10_000, 2024, 4);
    assert!(stats.shots >= 10_000);
    assert!(
        stats.ber() < p,
        "logical BER {} should be below physical rate {p}",
        stats.ber()
    );
}

#[test]
fn run_ber_is_thread_count_invariant() {
    // Batch b always draws from RNG stream (seed, b), so the sampled
    // shots — and therefore the failure count — are bit-identical no
    // matter how the batches are sharded across workers.
    let code = rotated_surface_code(3);
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
    let noise = NoiseModel::new(3e-3);
    let exp = build_memory_circuit(&code, &fpn, Some(&noise), 3, Basis::Z);
    let pipeline = DecodingPipeline::new(&code, &exp, DecoderKind::PlainMwpm, &noise);
    let single = run_ber(&exp.circuit, pipeline.decoder(), 4_096, 99, 1);
    let multi = run_ber(&exp.circuit, pipeline.decoder(), 4_096, 99, 4);
    assert_eq!(single.shots, multi.shots);
    assert_eq!(
        single.failures, multi.failures,
        "1-thread and 4-thread runs must agree exactly"
    );
    let rerun = run_ber(&exp.circuit, pipeline.decoder(), 4_096, 99, 4);
    assert_eq!(multi.failures, rerun.failures, "reruns must be stable");
}

/// The qec-obs determinism contract: instrumentation observes the
/// pipeline but never feeds into it, so corrections and `BerStats`
/// must be bit-identical with tracing off and on — on both a planar
/// surface DEM (dense-oracle tier) and the hyperbolic fixture DEM
/// (sparse tier). Runs the untraced pass first because the global
/// tracer, once initialised, stays on for the process; this is the
/// only test in this binary that initialises it.
#[test]
fn tracing_on_and_off_decode_bit_identically() {
    use fpn_repro::qec_obs;
    use qec_testkit::{
        fingerprint_decoder, hyperbolic_memory_dem, mechanism_fire_probability, surface_memory_dem,
    };

    let surface = surface_memory_dem(3);
    let hyper = hyperbolic_memory_dem();
    let q_s = mechanism_fire_probability(&surface, 4.0);
    let q_h = mechanism_fire_probability(&hyper, 4.0);
    let code = rotated_surface_code(3);
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
    let noise = NoiseModel::new(2e-3);
    let exp = build_memory_circuit(&code, &fpn, Some(&noise), 3, Basis::Z);

    let run_all = || {
        let s_dec = MwpmDecoder::new(&surface, MwpmConfig::unflagged());
        let h_dec = MwpmDecoder::new(&hyper, MwpmConfig::unflagged());
        assert!(
            h_dec.sparse_finder().is_some(),
            "hyperbolic DEM uses the sparse tier"
        );
        let fp_surface = fingerprint_decoder(&surface, &s_dec, 128, 0xD5, q_s, true);
        let fp_hyper = fingerprint_decoder(&hyper, &h_dec, 16, 0xD6, q_h, true);
        let pipeline = DecodingPipeline::new(&code, &exp, DecoderKind::FlaggedMwpm, &noise);
        let ber = run_ber(&exp.circuit, pipeline.decoder(), 2048, 77, 2);
        (fp_surface, fp_hyper, ber)
    };

    assert!(
        !qec_obs::enabled(),
        "untraced pass must run before tracing is initialised"
    );
    let untraced = run_all();

    let path = std::env::temp_dir().join(format!("qec_obs_pipeline_{}.jsonl", std::process::id()));
    assert!(
        qec_obs::init_to_path(&path).expect("initialise trace file"),
        "this test must be the one that initialises tracing"
    );
    let traced = run_all();
    qec_obs::finish();

    assert_eq!(
        untraced.0, traced.0,
        "surface-DEM corrections changed under tracing"
    );
    assert_eq!(
        untraced.1, traced.1,
        "hyperbolic-DEM corrections changed under tracing"
    );
    assert_eq!(untraced.2, traced.2, "BerStats changed under tracing");
    // Other tests may still hold spans open concurrently, so full
    // nesting validation happens on the bench trace in CI and in the
    // isolated-writer property test; here the traced run must at least
    // have produced events.
    let meta = std::fs::metadata(&path).expect("trace file exists");
    assert!(meta.len() > 0, "trace file must be non-empty");
    let _ = std::fs::remove_file(&path);
}

/// Golden for flagged MWPM: the `[[180,20]]` {4,5} shared-flag FPN
/// (`SURFACE_REGISTRY[2]`, 6 rounds, p = 1e-3) decoded by
/// `DecoderKind::FlaggedMwpm`, with seeded syndromes that raise flags
/// on nearly every shot, so the flag-conditioned class pricing and the
/// certified CSR matching route both carry the fingerprint.
#[test]
fn flagged_mwpm_golden_hyperbolic_surface() {
    use qec_testkit::{fingerprint_decoder, mechanism_fire_probability, random_syndrome};

    let code = hyperbolic_surface_code(&SURFACE_REGISTRY[2]).unwrap();
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::shared());
    let noise = NoiseModel::new(1e-3);
    let exp = build_memory_circuit(&code, &fpn, Some(&noise), 6, Basis::Z);
    let pipeline = DecodingPipeline::new(&code, &exp, DecoderKind::FlaggedMwpm, &noise);
    let dem = pipeline.dem();
    let q = mechanism_fire_probability(dem, 8.0);
    let decoder = pipeline.decoder();
    let before = decoder.stats();
    let fp = fingerprint_decoder(dem, decoder, 256, 0xF1A6, q, true);
    let stats = decoder.stats().delta(&before);
    assert!(
        stats.sparse_blossom > 0,
        "the grown route is exercised: {stats:?}"
    );
    // Growth estimates bound real paths, so no bounded pricing search
    // drains before its targets settle.
    let metrics = decoder.metrics().expect("MWPM registers its metrics");
    assert_eq!(
        metrics
            .snapshot()
            .counter("decode.sparse_blossom.bound_misses"),
        0
    );
    // The same seeded syndromes the fingerprint replays.
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xF1A6);
    let flagged = (0..256)
        .filter(|_| {
            random_syndrome(&mut rng, dem, q)
                .iter_ones()
                .any(|d| dem.detector_meta()[d].is_flag)
        })
        .count();
    assert!(flagged > 200, "most shots raise flags: {flagged}");
    assert_eq!(fp, 14_332_686_672_912_280_042, "flagged MWPM golden");
}
