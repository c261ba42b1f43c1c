//! The four workloads and their from-scratch build:
//! code → FPN → memory circuit → DEM → decoder.

use crate::spans::Spans;
use fpn_core::{DecoderKind, DecodingPipeline};
use qec_arch::{FlagProxyNetwork, FpnConfig};
use qec_code::hyperbolic::{
    hyperbolic_color_code, hyperbolic_surface_code, COLOR_REGISTRY, SURFACE_REGISTRY,
};
use qec_code::planar::rotated_surface_code;
use qec_code::CssCode;
use qec_sched::{build_memory_circuit, Basis, MemoryExperiment};
use qec_sim::noise::NoiseModel;
use qec_sim::DetectorErrorModel;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub enum CodeSpec {
    /// Rotated planar surface code of this distance, direct layout.
    Planar(usize),
    /// `SURFACE_REGISTRY[i]` as a shared-flag FPN.
    HyperbolicSurface(usize),
    /// `COLOR_REGISTRY[i]` as a shared-flag FPN.
    HyperbolicColor(usize),
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub code: CodeSpec,
    pub rounds: usize,
    pub p: f64,
    pub kind: DecoderKind,
    /// Drive the decoder through `qec-serve` instead of `run_ber`.
    pub serve: bool,
    /// Shots per timed `run_ber` slice (a multiple of 64).
    pub slice_shots: usize,
    /// From-scratch builds whose median is `setup_s`.
    pub setup_builds: usize,
    /// Logical failures per shot, measured over five seeds when the
    /// benchmark was introduced; the output check holds each run's
    /// failure count to a binomial band around it.
    pub reference_ler: f64,
}

pub const WORKLOADS: &[Spec] = &[
    Spec {
        name: "ber_surface_d5",
        code: CodeSpec::Planar(5),
        rounds: 5,
        p: 1e-3,
        kind: DecoderKind::PlainMwpm,
        serve: false,
        slice_shots: 256 * 64,
        setup_builds: 41,
        reference_ler: 1.0e-4,
    },
    Spec {
        name: "ber_hyperbolic_surface",
        code: CodeSpec::HyperbolicSurface(2),
        rounds: 6,
        p: 1e-3,
        kind: DecoderKind::FlaggedMwpm,
        serve: false,
        slice_shots: 64,
        setup_builds: 5,
        reference_ler: 0.006,
    },
    Spec {
        name: "ber_hyperbolic_color",
        code: CodeSpec::HyperbolicColor(0),
        rounds: 4,
        p: 5e-4,
        kind: DecoderKind::FlaggedRestriction,
        serve: false,
        slice_shots: 64,
        setup_builds: 7,
        reference_ler: 0.083,
    },
    Spec {
        name: "serve_surface_d5",
        code: CodeSpec::Planar(5),
        rounds: 5,
        p: 1e-3,
        kind: DecoderKind::PlainMwpm,
        serve: true,
        slice_shots: 256 * 64,
        setup_builds: 41,
        reference_ler: 1.0e-4,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One from-scratch build of a workload.
pub struct Built {
    pub exp: MemoryExperiment,
    pub pipeline: DecodingPipeline,
}

/// Per-layer build times of one build, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    pub code_s: f64,
    pub fpn_s: f64,
    pub circuit_s: f64,
    /// A separate `DetectorErrorModel::from_circuit` call (traced builds
    /// only; 0 otherwise).
    pub dem_s: f64,
    /// `DecodingPipeline::new`: DEM plus decoder.
    pub pipeline_s: f64,
}

impl BuildTimes {
    /// The user-visible set-up: code, FPN, circuit and pipeline.
    pub fn total_s(&self) -> f64 {
        self.code_s + self.fpn_s + self.circuit_s + self.pipeline_s
    }
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn build_code(code: CodeSpec) -> (CssCode, FpnConfig) {
    match code {
        CodeSpec::Planar(d) => (rotated_surface_code(d), FpnConfig::direct()),
        CodeSpec::HyperbolicSurface(i) => (
            hyperbolic_surface_code(&SURFACE_REGISTRY[i]).expect("registry surface code builds"),
            FpnConfig::shared(),
        ),
        CodeSpec::HyperbolicColor(i) => (
            hyperbolic_color_code(&COLOR_REGISTRY[i]).expect("registry color code builds"),
            FpnConfig::shared(),
        ),
    }
}

/// Builds `spec` from scratch. With `spans`, each layer is recorded as a
/// span and the DEM is also built on its own so its time shows.
pub fn build(spec: &Spec, mut spans: Option<&mut Spans>) -> (Built, BuildTimes) {
    let mut times = BuildTimes::default();
    let root = spans.as_deref_mut().map(|s| s.enter("setup.build"));

    let open = spans.as_deref_mut().map(|s| s.enter("code.build"));
    let t = Instant::now();
    let (code, fpn_config) = build_code(spec.code);
    times.code_s = secs(t);
    close(&mut spans, open);

    let open = spans.as_deref_mut().map(|s| s.enter("arch.fpn_build"));
    let t = Instant::now();
    let fpn = FlagProxyNetwork::build(&code, &fpn_config);
    times.fpn_s = secs(t);
    close(&mut spans, open);

    let noise = NoiseModel::new(spec.p);
    let open = spans.as_deref_mut().map(|s| s.enter("sched.circuit_build"));
    let t = Instant::now();
    let exp = build_memory_circuit(&code, &fpn, Some(&noise), spec.rounds, Basis::Z);
    times.circuit_s = secs(t);
    close(&mut spans, open);

    if spans.is_some() {
        let open = spans.as_deref_mut().map(|s| s.enter("sim.dem_build"));
        let t = Instant::now();
        let dem = DetectorErrorModel::from_circuit(&exp.circuit);
        times.dem_s = secs(t);
        std::hint::black_box(dem.num_detectors());
        close(&mut spans, open);
    }

    let open = spans.as_deref_mut().map(|s| s.enter("core.pipeline_build"));
    let t = Instant::now();
    let pipeline = DecodingPipeline::new(&code, &exp, spec.kind, &noise);
    times.pipeline_s = secs(t);
    close(&mut spans, open);

    close(&mut spans, root);
    (Built { exp, pipeline }, times)
}

fn close(spans: &mut Option<&mut Spans>, open: Option<crate::spans::Open>) {
    if let (Some(s), Some(o)) = (spans.as_deref_mut(), open) {
        s.close(o);
    }
}
