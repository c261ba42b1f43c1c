//! Differential tests: the BP+OSD tier against MWPM on the matchable
//! fixture DEMs.
//!
//! BP+OSD exists for hypergraphs matching cannot represent, but on
//! *matchable* DEMs the two decoders face the same problem — so MWPM
//! is the accuracy reference. Two contracts are pinned here:
//!
//! 1. **Syndrome validity is a hard invariant**: every BP+OSD
//!    correction must exactly reproduce its syndrome (checked per shot
//!    via `decode_detail`, not statistically).
//! 2. **Accuracy tracks MWPM**: logical failure counts at fixed seeds
//!    stay within a pinned tolerance of MWPM's on the same shots.

use fpn_repro::prelude::*;
use qec_math::rng::{Rng, Xoshiro256StarStar};
use qec_math::BitVec;
use qec_sim::DetectorErrorModel;
use qec_testkit::{
    hyperbolic_memory_dem, mechanism_fire_probability, surface_memory_dem,
    synthetic_hypergraph_dem, toric_color_dem,
};

/// Samples `shots` seeded (syndrome, true-observable-flips) pairs by
/// firing each DEM mechanism independently with probability `q` —
/// the same shot model `fingerprint_decoder` uses, extended with the
/// ground-truth observables so failures can be counted.
fn sample_dem_shots(
    dem: &DetectorErrorModel,
    shots: usize,
    seed: u64,
    q: f64,
) -> Vec<(BitVec, BitVec)> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    (0..shots)
        .map(|_| {
            let mut dets = BitVec::zeros(dem.num_detectors());
            let mut obs = BitVec::zeros(dem.num_observables());
            for mech in dem.mechanisms() {
                if rng.gen_bool(q) {
                    for &d in &mech.detectors {
                        dets.flip(d as usize);
                    }
                    for &o in &mech.observables {
                        obs.flip(o as usize);
                    }
                }
            }
            (dets, obs)
        })
        .collect()
}

/// Logical failures for any decoder on pre-sampled shots, through the
/// batched `decode_into` hot path.
fn count_failures(decoder: &dyn Decoder, shots: &[(BitVec, BitVec)]) -> usize {
    let mut scratch = DecodeScratch::new();
    let mut out = BitVec::zeros(0);
    shots
        .iter()
        .filter(|(dets, actual)| {
            decoder.decode_into(dets, &mut scratch, &mut out);
            out != *actual
        })
        .count()
}

/// The shared differential: BP+OSD corrections are syndrome-valid on
/// 100% of shots; its failure count sits within `tolerance` of MWPM's
/// on the identical shots.
fn assert_bp_osd_tracks_mwpm(
    label: &str,
    dem: &DetectorErrorModel,
    bp_config: BpOsdConfig,
    mwpm_config: MwpmConfig,
    shots: usize,
    seed: u64,
    tolerance: usize,
) {
    let q = mechanism_fire_probability(dem, 8.0);
    let sampled = sample_dem_shots(dem, shots, seed, q);

    let bp = BpOsdDecoder::new(dem, bp_config);
    let mwpm = MwpmDecoder::new(dem, mwpm_config);

    let mut scratch = DecodeScratch::new();
    let mut out = BitVec::zeros(0);
    let mut bp_failures = 0usize;
    for (i, (dets, actual)) in sampled.iter().enumerate() {
        let outcome = bp.decode_detail(dets, &mut scratch, &mut out);
        // The hard invariant: a syndrome assembled from fired
        // mechanisms is always in the check matrix's column space, so
        // BP+OSD must return a correction reproducing it exactly —
        // for every shot, not with high probability.
        assert!(
            outcome.valid,
            "{label}: shot {i} correction does not reproduce its syndrome"
        );
        assert!(
            outcome.weight.is_finite(),
            "{label}: shot {i} valid but infinite weight"
        );
        if out != *actual {
            bp_failures += 1;
        }
    }

    let mwpm_failures = count_failures(&mwpm, &sampled);
    assert!(
        bp_failures.abs_diff(mwpm_failures) <= tolerance,
        "{label}: BP+OSD failures {bp_failures} vs MWPM {mwpm_failures} \
         exceed pinned tolerance {tolerance} over {shots} shots"
    );
}

#[test]
fn bp_osd_tracks_mwpm_on_d3_surface() {
    let dem = surface_memory_dem(3);
    assert_bp_osd_tracks_mwpm(
        "d=3 surface",
        &dem,
        BpOsdConfig::unflagged(),
        MwpmConfig::unflagged(),
        128,
        0xd1f_0001,
        6,
    );
}

#[test]
fn bp_osd_tracks_mwpm_on_d5_surface() {
    let dem = surface_memory_dem(5);
    assert_bp_osd_tracks_mwpm(
        "d=5 surface",
        &dem,
        BpOsdConfig::unflagged(),
        MwpmConfig::unflagged(),
        64,
        0xd1f_0002,
        6,
    );
}

#[test]
fn bp_osd_tracks_mwpm_on_toric_color() {
    let (dem, _ctx, pm) = toric_color_dem();
    assert_bp_osd_tracks_mwpm(
        "toric color",
        &dem,
        BpOsdConfig::flagged(pm),
        MwpmConfig::flagged(pm),
        64,
        0xd1f_0003,
        8,
    );
}

#[test]
fn bp_osd_tracks_mwpm_on_hyperbolic() {
    let dem = hyperbolic_memory_dem();
    assert_bp_osd_tracks_mwpm(
        "hyperbolic",
        &dem,
        BpOsdConfig::unflagged(),
        MwpmConfig::unflagged(),
        24,
        0xd1f_0004,
        6,
    );
}

/// BP+OSD through the full pipeline: `DecodingPipeline` +
/// `run_ber` with `DecoderKind::PlainBpOsd`, against `PlainMwpm` on
/// the identical circuit — failure counts at a fixed seed within a
/// pinned band, and exactly thread-count invariant.
#[test]
fn bp_osd_through_run_ber_matches_mwpm_band() {
    let code = rotated_surface_code(3);
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
    let noise = NoiseModel::new(2e-3);
    let exp = build_memory_circuit(&code, &fpn, Some(&noise), 3, Basis::Z);

    let bp_pipeline = DecodingPipeline::new(&code, &exp, DecoderKind::PlainBpOsd, &noise);
    let single = run_ber(&exp.circuit, bp_pipeline.decoder(), 2_048, 0xbe5, 1);
    let multi = run_ber(&exp.circuit, bp_pipeline.decoder(), 2_048, 0xbe5, 4);
    assert_eq!(single.shots, multi.shots);
    assert_eq!(
        single.failures, multi.failures,
        "BP+OSD run_ber must be thread-count invariant"
    );

    let mwpm_pipeline = DecodingPipeline::new(&code, &exp, DecoderKind::PlainMwpm, &noise);
    let mwpm = run_ber(&exp.circuit, mwpm_pipeline.decoder(), 2_048, 0xbe5, 4);
    assert!(
        multi.failures.abs_diff(mwpm.failures) <= 6,
        "BP+OSD failures {} vs MWPM {} on the same 2048 shots",
        multi.failures,
        mwpm.failures
    );

    // The tier counters went through qec-obs: every decode is
    // accounted for, and give-ups never happened on a matchable DEM.
    let stats = bp_pipeline.decoder().stats();
    assert!(stats.decodes > 0);
    assert_eq!(stats.bp_giveups, 0, "matchable DEM must never give up");
}

/// The flagged BP+OSD variant corrects every single fault on the FPN,
/// like flagged MWPM does — flag conditioning composes with BP priors.
#[test]
fn flagged_bp_osd_corrects_single_faults_on_fpn() {
    let code = hyperbolic_surface_code(&SURFACE_REGISTRY[12]).unwrap();
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::shared());
    let noise = NoiseModel::new(1e-3);
    let exp = build_memory_circuit(&code, &fpn, Some(&noise), 3, Basis::Z);
    let pipeline = DecodingPipeline::new(&code, &exp, DecoderKind::FlaggedBpOsd, &noise);
    assert_eq!(
        count_single_fault_failures(pipeline.dem(), pipeline.decoder()),
        0,
        "flagged BP+OSD corrects every single fault"
    );
}

/// Degenerate detector error models, on every decoder family:
/// BP+OSD, Union-Find (`decode` and `decode_into`, flagged and
/// unflagged) and MWPM (dense oracle and CSR route). No decoder panics;
/// each counts exactly one give-up on a syndrome outside the check
/// matrix's column space and none on any other; and the rows whose
/// only cheap explanation is a p ≥ 0.5 mechanism decode to that
/// mechanism's observable flip. BP+OSD additionally decodes a
/// column-space syndrome to a valid finite-weight correction and gives
/// up on any other with an infinite weight.
#[test]
fn bp_osd_degenerate_dems_decode_or_give_up() {
    type Mechanism = (Vec<u32>, Vec<u32>, f64);
    // Check 0 is explained by a mechanism of probability `p` or by the
    // pair of ordinary ones through check 1.
    let chain = |p: f64| -> Vec<Mechanism> {
        vec![
            (vec![0], vec![0], p),
            (vec![0, 1], vec![], 0.01),
            (vec![1], vec![], 0.01),
        ]
    };
    // Two triangles of weight-2 mechanisms: every column has an even
    // weight in each component, so three flips in one is unreachable.
    let triangles: Vec<Mechanism> = (0..2u32)
        .flat_map(|t| (0..3u32).map(move |k| (vec![3 * t + k, 3 * t + (k + 1) % 3], vec![0], 0.01)))
        .map(|(mut dets, obs, p)| {
            dets.sort_unstable();
            (dets, obs, p)
        })
        .collect();
    let cases = [
        ("empty DEM", 2, vec![], vec![], true),
        (
            "flipped detector without a mechanism",
            2,
            vec![(vec![0], vec![0], 0.01)],
            vec![1],
            false,
        ),
        (
            "fired p = 0 mechanism",
            2,
            vec![(vec![0, 1], vec![0], 0.0)],
            vec![0, 1],
            false,
        ),
        ("p = 0.5 mechanism", 2, chain(0.5), vec![0], true),
        ("p = 0.7 mechanism", 2, chain(0.7), vec![0], true),
        ("p = 1.0 mechanism", 2, chain(1.0), vec![0], true),
        (
            "odd disconnected components",
            6,
            triangles,
            (0..6).collect(),
            false,
        ),
    ];
    for (label, checks, mechanisms, flipped, in_column_space) in cases {
        let dem = synthetic_hypergraph_dem(checks, 1, &mechanisms);
        let dets = BitVec::from_ones(dem.num_detectors(), flipped);
        for config in [BpOsdConfig::unflagged(), BpOsdConfig::flagged(1e-3)] {
            let decoder = BpOsdDecoder::new(&dem, config);
            let mut out = BitVec::zeros(0);
            let outcome = decoder.decode_detail(&dets, &mut DecodeScratch::new(), &mut out);
            assert_eq!(outcome.valid, in_column_space, "{label}: {outcome:?}");
            assert_eq!(
                outcome.weight.is_finite(),
                in_column_space,
                "{label}: {outcome:?}"
            );
            assert_eq!(
                decoder.stats().bp_giveups,
                u64::from(!in_column_space),
                "{label}"
            );
        }
        let csr = MwpmConfig::unflagged().with_oracle_node_limit(0);
        let decoders: [(&str, Box<dyn Decoder>); 6] = [
            (
                "bp_osd",
                Box::new(BpOsdDecoder::new(&dem, BpOsdConfig::unflagged())),
            ),
            (
                "flagged bp_osd",
                Box::new(BpOsdDecoder::new(&dem, BpOsdConfig::flagged(1e-3))),
            ),
            (
                "union_find",
                Box::new(UnionFindDecoder::new(&dem, UnionFindConfig::unflagged())),
            ),
            (
                "flagged union_find",
                Box::new(UnionFindDecoder::new(&dem, UnionFindConfig::flagged(1e-3))),
            ),
            (
                "mwpm",
                Box::new(MwpmDecoder::new(&dem, MwpmConfig::unflagged())),
            ),
            ("csr mwpm", Box::new(MwpmDecoder::new(&dem, csr))),
        ];
        for (name, decoder) in &decoders {
            let before = decoder.stats();
            let decoded = decoder.decode(&dets);
            let mid = decoder.stats();
            let mut decoded_into = BitVec::zeros(0);
            decoder.decode_into(&dets, &mut DecodeScratch::new(), &mut decoded_into);
            let expected_giveups = u64::from(!in_column_space);
            for (call, delta, out) in [
                ("decode", mid.delta(&before), &decoded),
                ("decode_into", decoder.stats().delta(&mid), &decoded_into),
            ] {
                assert_eq!(delta.giveups(), expected_giveups, "{label}: {name} {call}");
                if label.starts_with("p = ") {
                    assert_eq!(*out, BitVec::from_ones(1, [0]), "{label}: {name} {call}");
                }
            }
        }
    }
}
