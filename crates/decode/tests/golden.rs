//! Fixed-seed golden regression tests for the three decoders.
//!
//! Each test replays a deterministic stream of syndromes (mechanisms of
//! a pinned detector error model fired by a seeded RNG) through a
//! decoder and folds every correction into a 64-bit FNV-1a fingerprint
//! (via [`qec_testkit::fingerprint_decoder`]). The pinned constants
//! freeze today's decoder behaviour: any change to matching weights,
//! tie-breaking, lifting or the RNG itself shows up as a fingerprint
//! mismatch. The hand-derivable cases alongside them pin *correct*
//! behaviour, so a fingerprint change plus green hand-cases means
//! "intentional behaviour change — re-pin", while a hand-case failure
//! means "regression".
//!
//! Every matching-decoder golden is pinned across both path tiers:
//! the dense [`qec_decode::PathOracle`] and the lazy
//! [`qec_decode::SparsePathFinder`]. The tiers change where path
//! weights come from, never their values, so one constant covers both.
//! Shots the sparse finder prices with many defects match
//! graph-natively; that route reaches the same constants.

use qec_decode::{
    Decoder, DecodingHypergraph, MwpmConfig, MwpmDecoder, PathOracle, RestrictionConfig,
    RestrictionDecoder, UnionFindConfig, UnionFindDecoder,
};
use qec_sim::DetectorErrorModel;
use qec_testkit::reference::UnionFindReference;
use qec_testkit::{
    assert_single_faults_corrected, fingerprint_decoder, hyperbolic_memory_dem,
    mechanism_fire_probability, repetition_dem, tiny_color_dem,
};

/// Golden syndrome streams fire each mechanism with probability 0.2,
/// so multi-error patterns (where decoders genuinely differ) are well
/// represented on the tiny fixture DEMs.
const GOLDEN_Q: f64 = 0.2;

fn fingerprint(dem: &DetectorErrorModel, decoder: &dyn Decoder, shots: usize, seed: u64) -> u64 {
    fingerprint_decoder(dem, decoder, shots, seed, GOLDEN_Q, false)
}

fn fingerprint_batched(
    dem: &DetectorErrorModel,
    decoder: &dyn Decoder,
    shots: usize,
    seed: u64,
) -> u64 {
    fingerprint_decoder(dem, decoder, shots, seed, GOLDEN_Q, true)
}

const MWPM_GOLDEN: u64 = 0x980c_3861_500c_87db;
const UNIONFIND_GOLDEN: u64 = 0x7e90_20bd_d1c1_d00c;
const RESTRICTION_GOLDEN: u64 = 0x6191_30b7_b57e_c496;

#[test]
fn mwpm_golden_fingerprint() {
    let dem = repetition_dem(0.01, 1e-3);
    let decoder = MwpmDecoder::new(&dem, MwpmConfig::unflagged());
    assert_single_faults_corrected(&dem, &decoder);
    let fp = fingerprint(&dem, &decoder, 200, 0x601d_0001);
    assert_eq!(
        fp, MWPM_GOLDEN,
        "MWPM corrections changed; got {fp:#018x} — re-pin only if intentional",
    );
    let fpb = fingerprint_batched(&dem, &decoder, 200, 0x601d_0001);
    assert_eq!(
        fpb, MWPM_GOLDEN,
        "MWPM decode_into diverged from decode; got {fpb:#018x}",
    );
    // The same stream through the sparse tier (oracle disabled by
    // limit 0) must hit the same constant.
    let sparse = MwpmDecoder::new(&dem, MwpmConfig::unflagged().with_oracle_node_limit(0));
    assert!(sparse.path_oracle().is_none());
    assert!(sparse.sparse_finder().is_some());
    let fps = fingerprint_batched(&dem, &sparse, 200, 0x601d_0001);
    assert_eq!(
        fps, MWPM_GOLDEN,
        "MWPM sparse tier diverged from the golden; got {fps:#018x}",
    );
}

#[test]
fn unionfind_golden_fingerprint() {
    let dem = repetition_dem(0.01, 1e-3);
    let decoder = UnionFindDecoder::new(&dem, UnionFindConfig::unflagged());
    assert_single_faults_corrected(&dem, &decoder);
    let fp = fingerprint(&dem, &decoder, 200, 0x601d_0002);
    assert_eq!(
        fp, UNIONFIND_GOLDEN,
        "union-find corrections changed; got {fp:#018x} — re-pin only if intentional",
    );
    let fpb = fingerprint_batched(&dem, &decoder, 200, 0x601d_0002);
    assert_eq!(
        fpb, UNIONFIND_GOLDEN,
        "union-find decode_into diverged from decode; got {fpb:#018x}",
    );
    // The allocating testkit reference reaches the same constant.
    let reference = UnionFindReference::new(&dem, UnionFindConfig::unflagged());
    let fpr = fingerprint(&dem, &reference, 200, 0x601d_0002);
    assert_eq!(
        fpr, UNIONFIND_GOLDEN,
        "union-find reference diverged from the golden; got {fpr:#018x}",
    );
}

#[test]
fn restriction_golden_fingerprint() {
    let (dem, ctx) = tiny_color_dem();
    let decoder = RestrictionDecoder::new(&dem, ctx, RestrictionConfig::flagged(0.01));
    assert_single_faults_corrected(&dem, &decoder);
    let fp = fingerprint(&dem, &decoder, 200, 0x601d_0003);
    assert_eq!(
        fp, RESTRICTION_GOLDEN,
        "restriction corrections changed; got {fp:#018x} — re-pin only if intentional",
    );
    let fpb = fingerprint_batched(&dem, &decoder, 200, 0x601d_0003);
    assert_eq!(
        fpb, RESTRICTION_GOLDEN,
        "restriction decode_into diverged from decode; got {fpb:#018x}",
    );
    // Sparse tier (per-lattice oracles disabled) pinned to the same
    // constant as the oracle path.
    let (dem, ctx) = tiny_color_dem();
    let sparse = RestrictionDecoder::new(
        &dem,
        ctx,
        RestrictionConfig::flagged(0.01).with_oracle_node_limit(0),
    );
    assert!((0..3).all(|l| sparse.path_oracle(l).is_none()));
    assert!((0..3).all(|l| sparse.sparse_finder(l).is_some()));
    let fps = fingerprint_batched(&dem, &sparse, 200, 0x601d_0003);
    assert_eq!(
        fps, RESTRICTION_GOLDEN,
        "restriction sparse tier diverged from the golden; got {fps:#018x}",
    );
}

/// Golden fingerprint on the hyperbolic fixture — 1224 check detectors,
/// above the default dense-oracle guard, the regime the sparse tier
/// exists for. One constant pins both path tiers.
const HYPERBOLIC_MWPM_GOLDEN: u64 = 0xdbc3_92cd_c9e2_d3e6;

#[test]
fn hyperbolic_path_tiers_golden_fingerprint() {
    let dem = hyperbolic_memory_dem();
    let q = mechanism_fire_probability(&dem, 8.0);
    let seed = 0x601d_0004;

    // Default config lands on the CSR graph here: shots above the
    // routing threshold match graph-natively, the rest on the
    // complete instance.
    let sparse = MwpmDecoder::new(&dem, MwpmConfig::unflagged());
    assert!(
        sparse.path_oracle().is_none(),
        "1224 nodes exceed the guard"
    );
    assert!(sparse.sparse_finder().is_some());
    let fps = fingerprint_decoder(&dem, &sparse, 24, seed, q, true);
    assert_eq!(
        fps, HYPERBOLIC_MWPM_GOLDEN,
        "hyperbolic sparse-tier corrections changed; got {fps:#018x} — re-pin only if intentional",
    );
    let stats = sparse.stats();
    assert!(stats.sparse_blossom > 0 && stats.oracle_hits == 0);

    // Dense tier, admitted by a raised limit.
    let dense = MwpmDecoder::new(&dem, MwpmConfig::unflagged().with_oracle_node_limit(2048));
    assert!(dense.path_oracle().is_some());
    let fpd = fingerprint_decoder(&dem, &dense, 24, seed, q, true);
    assert_eq!(
        fpd, HYPERBOLIC_MWPM_GOLDEN,
        "hyperbolic dense tier diverged; got {fpd:#018x}",
    );
    assert!(dense.stats().oracle_hits > 0);
}

// ---------------------------------------------------------------------------
// Pooled blossom goldens.
// ---------------------------------------------------------------------------

/// Goldens for the pooled incremental blossom solver on the realistic
/// fixture DEMs. Its decision-identity with the reference exact solver
/// is pinned by the `blossom_fuzz` differential suite; these constants
/// freeze the corrections the decoders produce through it.
const SURFACE_D3_BLOSSOM_GOLDEN: u64 = 0xd026_cc2a_bcd5_40fb;
const SURFACE_D5_BLOSSOM_GOLDEN: u64 = 0xf094_ed3a_ddc3_2ca7;
const TORIC_COLOR_BLOSSOM_GOLDEN: u64 = 0x10ed_472c_f88f_9a54;

#[test]
fn blossom_tier_golden_fingerprints_surface() {
    use qec_testkit::surface_memory_dem;
    for (d, shots, golden) in [
        (3usize, 64usize, SURFACE_D3_BLOSSOM_GOLDEN),
        (5, 16, SURFACE_D5_BLOSSOM_GOLDEN),
    ] {
        let dem = surface_memory_dem(d);
        let q = mechanism_fire_probability(&dem, 8.0);
        let decoder = MwpmDecoder::new(&dem, MwpmConfig::unflagged());
        let fp = fingerprint_decoder(&dem, &decoder, shots, 0x601d_000b ^ d as u64, q, true);
        assert_eq!(
            fp, golden,
            "d={d} surface blossom-tier corrections changed; got {fp:#018x} — re-pin only if intentional",
        );
        assert!(decoder.stats().blossom_solves > 0, "pooled solver engaged");
    }
}

#[test]
fn blossom_tier_golden_fingerprint_toric_color() {
    let (dem, ctx, pm) = qec_testkit::toric_color_dem();
    let q = mechanism_fire_probability(&dem, 8.0);
    let decoder = RestrictionDecoder::new(&dem, ctx, RestrictionConfig::flagged(pm));
    let fp = fingerprint_decoder(&dem, &decoder, 64, 0x601d_000c, q, true);
    assert_eq!(
        fp, TORIC_COLOR_BLOSSOM_GOLDEN,
        "toric color blossom-tier corrections changed; got {fp:#018x} — re-pin only if intentional",
    );
    assert!(decoder.stats().blossom_solves > 0, "pooled solver engaged");
}

/// The MWPM decoding graph of `hg` priced at its unflagged class
/// weights, built the way the decoder builds it: `|σ| = 1` classes end
/// on a trailing boundary vertex, larger ones become cliques.
fn decoding_graph(hg: &DecodingHypergraph) -> (Vec<Vec<(usize, usize)>>, Vec<f64>) {
    let boundary = hg.num_check_detectors();
    let has_boundary = hg.classes().iter().any(|c| c.sigma.len() == 1);
    let mut adjacency = vec![Vec::new(); boundary + usize::from(has_boundary)];
    for (ci, class) in hg.classes().iter().enumerate() {
        let mut ends: Vec<usize> = class.sigma.iter().map(|&c| c as usize).collect();
        if ends.len() == 1 {
            ends.push(boundary);
        }
        for (i, &a) in ends.iter().enumerate() {
            for &b in &ends[i + 1..] {
                adjacency[a].push((b, ci));
                adjacency[b].push((a, ci));
            }
        }
    }
    let weights = hg
        .classes()
        .iter()
        .map(|c| c.representative_unflagged().1)
        .collect();
    (adjacency, weights)
}

/// Oracle rows are computed independently per source, so the matrix
/// must not change a single bit with the construction thread count —
/// on the d=5 surface and hyperbolic decoding graphs, and against the
/// oracle the decoder itself builds.
#[test]
fn path_oracle_is_thread_count_invariant_on_fixture_graphs() {
    for dem in [qec_testkit::surface_memory_dem(5), hyperbolic_memory_dem()] {
        let decoder = MwpmDecoder::new(&dem, MwpmConfig::unflagged().with_oracle_node_limit(2048));
        let built = decoder
            .path_oracle()
            .expect("raised limit admits the oracle");
        let (adjacency, weights) = decoding_graph(decoder.hypergraph());
        assert_eq!(adjacency.len(), built.num_nodes());
        let one = PathOracle::build(&adjacency, &weights, 1);
        let three = PathOracle::build(&adjacency, &weights, 3);
        let n = one.num_nodes();
        for src in 0..n {
            for dst in 0..n {
                let d = one.dist(src, dst).to_bits();
                assert_eq!(d, three.dist(src, dst).to_bits(), "dist[{src}][{dst}]");
                assert_eq!(d, built.dist(src, dst).to_bits(), "dist[{src}][{dst}]");
                let p = one.pred(src, dst);
                assert_eq!(p, three.pred(src, dst), "pred[{src}][{dst}]");
                assert_eq!(p, built.pred(src, dst), "pred[{src}][{dst}]");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// BP+OSD tier goldens.
// ---------------------------------------------------------------------------

/// Goldens for the BP+OSD decoder on the fixture DEMs. Each constant
/// pins the batched (`decode_into`, shared scratch) against unbatched
/// (`decode`, fresh scratch) paths — the scratch-reuse determinism
/// claim of the BP+OSD contract made executable. `osd_always` is
/// pinned too, so the OSD enumeration itself (not just converged BP
/// shots) is under golden coverage on the small fixtures.
const BP_OSD_REPETITION_GOLDEN: u64 = 0xae7f_c9ed_68a8_0ffc;
const BP_OSD_REPETITION_ALWAYS_GOLDEN: u64 = 0xae7f_c9ed_68a8_0ffc;
const BP_OSD_SURFACE_D3_GOLDEN: u64 = 0x3b7a_60f3_085a_e211;
const BP_OSD_TORIC_COLOR_GOLDEN: u64 = 0x02e7_defd_78ad_f1b6;
const BP_OSD_HYPERBOLIC_GOLDEN: u64 = 0x2558_3493_149c_8ee1;

#[test]
fn bp_osd_golden_fingerprint_repetition() {
    use qec_decode::{BpOsdConfig, BpOsdDecoder};
    let dem = repetition_dem(0.01, 1e-3);
    let decoder = BpOsdDecoder::new(&dem, BpOsdConfig::unflagged());
    assert_single_faults_corrected(&dem, &decoder);
    let fp = fingerprint(&dem, &decoder, 200, 0x601d_000d);
    assert_eq!(
        fp, BP_OSD_REPETITION_GOLDEN,
        "BP+OSD repetition corrections changed; got {fp:#018x} — re-pin only if intentional",
    );
    let fpb = fingerprint_batched(&dem, &decoder, 200, 0x601d_000d);
    assert_eq!(
        fpb, BP_OSD_REPETITION_GOLDEN,
        "BP+OSD decode_into diverged from decode; got {fpb:#018x}",
    );
    // The always-OSD path exercises the enumeration on every shot.
    let always = BpOsdDecoder::new(&dem, BpOsdConfig::unflagged().with_osd_always(true));
    let fpa = fingerprint_batched(&dem, &always, 200, 0x601d_000d);
    assert_eq!(
        fpa, BP_OSD_REPETITION_ALWAYS_GOLDEN,
        "BP+OSD osd_always corrections changed; got {fpa:#018x} — re-pin only if intentional",
    );
}

#[test]
fn bp_osd_golden_fingerprint_surface_d3() {
    use qec_decode::{BpOsdConfig, BpOsdDecoder};
    let dem = qec_testkit::surface_memory_dem(3);
    let q = mechanism_fire_probability(&dem, 8.0);
    let decoder = BpOsdDecoder::new(&dem, BpOsdConfig::unflagged());
    let fp = fingerprint_decoder(&dem, &decoder, 64, 0x601d_000e, q, true);
    assert_eq!(
        fp, BP_OSD_SURFACE_D3_GOLDEN,
        "BP+OSD d=3 surface corrections changed; got {fp:#018x} — re-pin only if intentional",
    );
}

#[test]
fn bp_osd_golden_fingerprint_toric_color() {
    use qec_decode::{BpOsdConfig, BpOsdDecoder};
    let (dem, _ctx, pm) = qec_testkit::toric_color_dem();
    let q = mechanism_fire_probability(&dem, 8.0);
    let decoder = BpOsdDecoder::new(&dem, BpOsdConfig::flagged(pm));
    let fp = fingerprint_decoder(&dem, &decoder, 32, 0x601d_000f, q, true);
    assert_eq!(
        fp, BP_OSD_TORIC_COLOR_GOLDEN,
        "BP+OSD toric color corrections changed; got {fp:#018x} — re-pin only if intentional",
    );
}

/// The 1224-check hyperbolic DEM: the regime BP+OSD exists for (the
/// matching decoders need hyperedge decomposition here; BP works on
/// the native hypergraph). Few shots — OSD eliminations on a
/// 1224-row matrix are the expensive path — but enough to cover both
/// converged and post-processed shots.
#[test]
fn bp_osd_golden_fingerprint_hyperbolic() {
    use qec_decode::{BpOsdConfig, BpOsdDecoder};
    let dem = hyperbolic_memory_dem();
    let q = mechanism_fire_probability(&dem, 8.0);
    let decoder = BpOsdDecoder::new(&dem, BpOsdConfig::unflagged());
    let fp = fingerprint_decoder(&dem, &decoder, 8, 0x601d_0010, q, true);
    assert_eq!(
        fp, BP_OSD_HYPERBOLIC_GOLDEN,
        "BP+OSD hyperbolic corrections changed; got {fp:#018x} — re-pin only if intentional",
    );
}
