//! Differential tests of the detector-error-model builder: on every
//! fixture the paper's experiments and the end-to-end benchmark build,
//! the streaming `DetectorErrorModel::from_circuit` must equal the
//! collect-then-merge reference kept in `qec-testkit` — the same
//! mechanisms in the same order, probabilities equal bit for bit.

use fpn_repro::prelude::*;
use qec_testkit::assert_dem_matches_reference;

fn check(code: &CssCode, config: &FpnConfig, p: f64, rounds: usize, basis: Basis) {
    let fpn = FlagProxyNetwork::build(code, config);
    let noise = NoiseModel::new(p);
    let exp = build_memory_circuit(code, &fpn, Some(&noise), rounds, basis);
    let label = format!("{} mem-{basis:?} rounds={rounds} p={p}", code.name());
    assert_dem_matches_reference(&exp.circuit, &label);
}

/// Fig. 17's planar baselines (d = rounds = 3, 5, 7 on the direct
/// layout), in both memory bases.
#[test]
fn dem_builder_matches_reference_on_planar_fixtures() {
    for d in [3usize, 5, 7] {
        let code = rotated_surface_code(d);
        for basis in [Basis::X, Basis::Z] {
            check(&code, &FpnConfig::direct(), 1e-3, d, basis);
        }
    }
}

/// The Fig. 17/19 `[[180,20]]` {4,5} shared-flag FPN (the
/// `ber_hyperbolic_surface` workload) at both of its operating points,
/// and the Fig. 19/ablation `[[30,8]]` {5,5} code on both layouts.
#[test]
fn dem_builder_matches_reference_on_hyperbolic_surface_fixtures() {
    let code = hyperbolic_surface_code(&SURFACE_REGISTRY[2]).unwrap();
    for p in [5e-4, 1e-3] {
        check(&code, &FpnConfig::shared(), p, 6, Basis::Z);
    }
    let code = hyperbolic_surface_code(&SURFACE_REGISTRY[12]).unwrap();
    check(&code, &FpnConfig::shared(), 1e-3, 3, Basis::Z);
    check(&code, &FpnConfig::direct(), 1e-3, 3, Basis::X);
}

/// The color fixtures: the `[[96,12]]` {4,6} shared-flag FPN (the
/// BP+OSD and `ber_hyperbolic_color` fixture) and the toric color code
/// of the Fig. 20 experiment, in both bases.
#[test]
fn dem_builder_matches_reference_on_color_fixtures() {
    let code = hyperbolic_color_code(&COLOR_REGISTRY[0]).unwrap();
    check(&code, &FpnConfig::shared(), 5e-4, 4, Basis::Z);
    let code = toric_color_code(2).unwrap();
    for basis in [Basis::X, Basis::Z] {
        check(&code, &FpnConfig::shared(), 1e-3, 4, basis);
    }
}
