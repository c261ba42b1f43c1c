//! Shared test fixtures for the Flag-Proxy Networks reproduction.
//!
//! The decoder test suites (unit goldens, integration properties,
//! benches) all need the same handful of workloads: tiny hand-derivable
//! DEMs, realistic multi-round surface/color memories, one hyperbolic
//! DEM **above** the dense path-oracle node limit, and seeded random
//! sparse decoding graphs. This crate builds them in exactly one place
//! so the fixtures (and therefore the pinned golden constants) cannot
//! drift apart between suites.
//!
//! Everything here is deterministic: fixtures take explicit seeds or
//! none at all, and the fingerprint helpers replay seeded syndrome
//! streams byte-for-byte reproducibly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fpn_core::prelude::*;
use qec_math::rng::{Rng, Xoshiro256StarStar};
use qec_math::BitVec;
use qec_sim::DetectorMeta;

pub use qec_decode::ColorCodeContext;

/// Two-round distance-3 repetition-code memory: data 0,1,2; checks
/// (0,1) and (1,2); observable on qubit 0. Small enough to hand-derive,
/// rich enough (time-like + space-like edges) to exercise matching.
/// `p` is the data-error rate, `measure_flip` the first-round
/// measurement flip rate (the golden tests use `1e-3` so time-like
/// edges carry distinct weights; the unit suites use `0.0`).
pub fn repetition_dem(p: f64, measure_flip: f64) -> DetectorErrorModel {
    let mut c = Circuit::new(5);
    c.reset(&[0, 1, 2, 3, 4]);
    c.x_error(&[0, 1, 2], p);
    c.cx(&[(0, 3), (1, 3), (1, 4), (2, 4)]);
    let m = c.measure(&[3, 4], measure_flip);
    c.add_detector(vec![m], DetectorMeta::check(0, 0));
    c.add_detector(vec![m + 1], DetectorMeta::check(1, 0));
    let md = c.measure(&[0, 1, 2], 0.0);
    c.add_detector(vec![m, md, md + 1], DetectorMeta::check(0, 1));
    c.add_detector(vec![m + 1, md + 1, md + 2], DetectorMeta::check(1, 1));
    let obs = c.add_observable();
    c.include_in_observable(obs, &[md]);
    DetectorErrorModel::from_circuit(&c)
}

/// Miniature color-code-like model: R, G, B plaquettes all touching
/// data qubit 0, which carries the observable. A single data error
/// flips all three plaquettes, exercising matching, the twice-used
/// rule and lifting in a hand-checkable setting.
pub fn tiny_color_dem() -> (DetectorErrorModel, ColorCodeContext) {
    let mut c = Circuit::new(5);
    c.reset(&[0, 1, 2, 3, 4]);
    c.x_error(&[0, 1], 0.01);
    c.cx(&[(0, 2), (1, 2), (0, 3), (0, 4)]);
    let m = c.measure(&[2, 3, 4], 0.0);
    c.add_detector(vec![m], DetectorMeta::colored_check(0, 0, 0));
    c.add_detector(vec![m + 1], DetectorMeta::colored_check(1, 0, 1));
    c.add_detector(vec![m + 2], DetectorMeta::colored_check(2, 0, 2));
    let md = c.measure(&[0, 1], 0.0);
    c.add_detector(vec![m, md, md + 1], DetectorMeta::colored_check(0, 1, 0));
    c.add_detector(vec![m + 1, md], DetectorMeta::colored_check(1, 1, 1));
    c.add_detector(vec![m + 2, md], DetectorMeta::colored_check(2, 1, 2));
    let obs = c.add_observable();
    c.include_in_observable(obs, &[md]);
    let ctx = ColorCodeContext {
        plaquette_colors: vec![0, 1, 2],
        plaquette_supports: vec![vec![0, 1], vec![0], vec![0]],
        qubit_observables: vec![vec![0], vec![]],
    };
    (DetectorErrorModel::from_circuit(&c), ctx)
}

/// A 3-round distance-`d` rotated-surface-code memory-Z DEM under
/// circuit-level depolarizing noise at `p = 1e-3` — the decode-path
/// suites share it so batched and allocating paths face realistic
/// multi-round syndromes, not toy graphs.
pub fn surface_memory_dem(d: usize) -> DetectorErrorModel {
    let code = rotated_surface_code(d);
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
    let noise = NoiseModel::new(1e-3);
    let exp = build_memory_circuit(&code, &fpn, Some(&noise), 3, Basis::Z);
    DetectorErrorModel::from_circuit(&exp.circuit)
}

/// The 2-round toric color-code memory-Z experiment at `p = 5e-4`
/// used by the restriction-decoder suites: returns the code, the
/// experiment (for pipeline-level tests) and the noise model.
pub fn toric_color_memory() -> (CssCode, MemoryExperiment, NoiseModel) {
    let code = toric_color_code(2).expect("toric color code builds");
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
    let noise = NoiseModel::new(5e-4);
    let exp = build_memory_circuit(&code, &fpn, Some(&noise), 2, Basis::Z);
    (code, exp, noise)
}

/// Its DEM plus the color context and measurement-flip rate needed to
/// build a [`qec_decode::RestrictionDecoder`] directly.
pub fn toric_color_dem() -> (DetectorErrorModel, ColorCodeContext, f64) {
    let (code, exp, noise) = toric_color_memory();
    let dem = DetectorErrorModel::from_circuit(&exp.circuit);
    let ctx = color_context(&code, Basis::Z);
    (dem, ctx, noise.measurement_flip())
}

/// A 16-round memory-Z experiment on the `[[180, 4, 8, 8]]` {4,5}
/// hyperbolic surface code (`SURFACE_REGISTRY[2]`) at `p = 1e-3`,
/// realized as a direct FPN.
///
/// Its decoding graph has **1224 check detectors** — above the default
/// 1024-node dense-oracle guard — so decoders built from this DEM with
/// default configs exercise the [`qec_decode::SparsePathFinder`] middle
/// tier, exactly the paper's large-hyperbolic-DEM regime.
pub fn hyperbolic_memory_experiment() -> (CssCode, MemoryExperiment, NoiseModel) {
    hyperbolic_memory_experiment_at(1e-3)
}

/// The hyperbolic fixture at a caller-chosen physical error rate
/// (same code, FPN, round count and basis as
/// [`hyperbolic_memory_experiment`]). The DEM topology is identical at
/// every `p` — only mechanism probabilities (and hence defect density)
/// change — so benchmarks can pick a sparser operating point without
/// leaving the fixture's decoding graph.
pub fn hyperbolic_memory_experiment_at(p: f64) -> (CssCode, MemoryExperiment, NoiseModel) {
    let code = hyperbolic_surface_code(&SURFACE_REGISTRY[2]).expect("registry code builds");
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
    let noise = NoiseModel::new(p);
    let exp = build_memory_circuit(&code, &fpn, Some(&noise), 16, Basis::Z);
    (code, exp, noise)
}

/// The hyperbolic experiment's DEM (see
/// [`hyperbolic_memory_experiment`]).
pub fn hyperbolic_memory_dem() -> DetectorErrorModel {
    let (_, exp, _) = hyperbolic_memory_experiment();
    DetectorErrorModel::from_circuit(&exp.circuit)
}

/// A random sparse undirected graph in the decoders' adjacency format:
/// `adjacency[v]` lists `(neighbor, class)`, with per-class weights in
/// `[0.05, 12.0)`. Expected degree is ~3, so most draws have several
/// connected components and unreachable pairs stay well represented —
/// the shape the path-tier differential tests need.
pub fn random_sparse_graph(rng: &mut Xoshiro256StarStar) -> (Vec<Vec<(usize, usize)>>, Vec<f64>) {
    let n = rng.gen_range(2..=24usize);
    let num_classes = rng.gen_range(1..=32usize);
    let class_weights: Vec<f64> = (0..num_classes)
        .map(|_| 0.05 + rng.gen_f64() * (12.0 - 0.05))
        .collect();
    let mut adjacency = vec![Vec::new(); n];
    let p_edge = (3.0 / n as f64).min(0.8);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p_edge) {
                let class = rng.gen_range(0..num_classes);
                adjacency[u].push((v, class));
                adjacency[v].push((u, class));
            }
        }
    }
    (adjacency, class_weights)
}

/// Fires each DEM mechanism independently with probability `q` and
/// XORs its detectors into a fresh syndrome.
pub fn random_syndrome(rng: &mut impl Rng, dem: &DetectorErrorModel, q: f64) -> BitVec {
    let mut syndrome = BitVec::zeros(dem.num_detectors());
    for mech in dem.mechanisms() {
        if rng.gen_bool(q) {
            for &det in &mech.detectors {
                syndrome.flip(det as usize);
            }
        }
    }
    syndrome
}

/// A per-shot mechanism-fire probability targeting ~`expected` fired
/// mechanisms per shot regardless of DEM size (capped at 0.25), so
/// debug-mode matching stays fast while multi-error clusters remain
/// well represented.
pub fn mechanism_fire_probability(dem: &DetectorErrorModel, expected: f64) -> f64 {
    (expected / dem.mechanisms().len() as f64).min(0.25)
}

/// Replays `shots` seeded syndromes (each DEM mechanism fired with
/// probability `q`) through `decoder` and folds every
/// (syndrome, correction) pair into a 64-bit FNV-1a fingerprint —
/// the golden-test primitive. With `batched` the corrections come from
/// `decode_into` reusing **one** scratch across all shots, pinning the
/// batched hot path to the same constant as the allocating path.
pub fn fingerprint_decoder(
    dem: &DetectorErrorModel,
    decoder: &dyn Decoder,
    shots: usize,
    seed: u64,
    q: f64,
    batched: bool,
) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut scratch = DecodeScratch::new();
    let mut out = BitVec::zeros(0);
    let mut h = FNV_OFFSET;
    for _ in 0..shots {
        let mut fold = |x: u64| {
            h = (h ^ x).wrapping_mul(FNV_PRIME);
        };
        let syndrome = random_syndrome(&mut rng, dem, q);
        for d in syndrome.iter_ones() {
            fold(d as u64 + 1);
        }
        let correction = if batched {
            decoder.decode_into(&syndrome, &mut scratch, &mut out);
            &out
        } else {
            out = decoder.decode(&syndrome);
            &out
        };
        for o in correction.iter_ones() {
            fold(0x8000_0000_0000_0000 | o as u64);
        }
        fold(u64::MAX);
    }
    h
}

/// Asserts `decoder` corrects every single mechanism of its own DEM —
/// the hand-derivable half of each golden test.
///
/// # Panics
///
/// Panics (test-assert style) when any single-mechanism syndrome
/// decodes to the wrong observable set.
pub fn assert_single_faults_corrected(dem: &DetectorErrorModel, decoder: &dyn Decoder) {
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

/// One differential-fuzz matching instance: `n` nodes and an edge list
/// in the decoders' matching format (the defect-pair graph a shot
/// hands to the solver).
#[derive(Debug, Clone)]
pub struct BlossomFuzzInstance {
    /// Node count (may be odd — the no-perfect-matching case).
    pub n: usize,
    /// `(u, v, weight)` edges, possibly with duplicates and exact ties.
    pub edges: Vec<(usize, usize, f64)>,
}

impl BlossomFuzzInstance {
    fn render(&self) -> String {
        let mut s = format!("BlossomFuzzInstance {{ n: {}, edges: vec![", self.n);
        for &(u, v, w) in &self.edges {
            s.push_str(&format!("({u}, {v}, {w:?}), "));
        }
        s.push_str("] }");
        s
    }
}

/// Draws one fuzz instance. Three shapes, weighted toward the ones
/// that stress the solver differently:
///
/// * **path-derived** (the decoders' real shape): a random sparse
///   graph, a random defect subset (odd counts included), pair
///   distances from [`qec_decode::shortest_paths_from`] — unreachable
///   pairs are dropped, so disconnected components yield partial or
///   infeasible instances;
/// * **boundary-augmented**: the same, plus per-defect boundary copies
///   and the zero-weight boundary clique, mirroring
///   `MwpmDecoder`'s virtual-boundary construction;
/// * **degenerate**: a dense instance whose weights are drawn from a
///   tiny value set, so nearly every matching ties and only the shared
///   deterministic tie-break keeps the solvers aligned.
pub fn random_blossom_instance(rng: &mut Xoshiro256StarStar) -> BlossomFuzzInstance {
    let (adjacency, class_weights) = random_sparse_graph(rng);
    let nv = adjacency.len();
    if rng.gen_bool(0.25) {
        // Degenerate: complete graph over a few nodes, tiny weight set.
        let n = rng.gen_range(2..=10usize);
        let vals = [0.5, 1.0, 1.0, 2.0];
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(0.9) {
                    edges.push((u, v, vals[rng.gen_range(0..vals.len())]));
                }
            }
        }
        return BlossomFuzzInstance { n, edges };
    }
    let k = rng.gen_range(0..=nv.min(12));
    let mut defects: Vec<usize> = (0..nv).collect();
    for i in 0..k {
        let j = rng.gen_range(i..nv);
        defects.swap(i, j);
    }
    defects.truncate(k);
    let boundary = rng.gen_bool(0.3);
    let mut edges = Vec::new();
    for (i, &src) in defects.iter().enumerate() {
        let (dist, _) = qec_decode::shortest_paths_from(&adjacency, &class_weights, src);
        for (j, &dst) in defects.iter().enumerate().skip(i + 1) {
            if dist[dst] < 1.0e8 {
                edges.push((i, j, dist[dst]));
            }
        }
        if boundary {
            // A random finite boundary cost (sometimes unreachable).
            if rng.gen_bool(0.85) {
                edges.push((i, k + i, 0.05 + rng.gen_f64() * 12.0));
            }
        }
    }
    if boundary {
        for i in 0..k {
            for j in (i + 1)..k {
                edges.push((k + i, k + j, 0.0));
            }
        }
    }
    let n = if boundary { 2 * k } else { k };
    BlossomFuzzInstance { n, edges }
}

/// `Some((scaled_weight, mates))` when a perfect matching exists.
type SolveSummary = Option<(i64, Vec<usize>)>;

fn solve_reference(inst: &BlossomFuzzInstance) -> SolveSummary {
    qec_math::graph::matching::min_weight_perfect_matching_f64(inst.n, &inst.edges)
        .map(|m| (m.weight, m.mate.iter().map(|o| o.unwrap()).collect()))
}

fn solve_pooled(inst: &BlossomFuzzInstance, sc: &mut qec_decode::BlossomScratch) -> SolveSummary {
    qec_decode::pooled_min_weight_perfect_matching_f64(inst.n, &inst.edges, sc).map(|m| {
        let mates = (0..inst.n).map(|u| m.mate(u).unwrap()).collect();
        (m.weight(), mates)
    })
}

/// `true` when the pooled solver disagrees with the reference on this
/// instance against a fresh scratch.
fn diverges_fresh(inst: &BlossomFuzzInstance) -> bool {
    let mut sc = qec_decode::BlossomScratch::new();
    solve_reference(inst) != solve_pooled(inst, &mut sc)
}

/// Greedy shrink: repeatedly drop one edge, then compact away isolated
/// nodes, keeping each step only if the divergence (against a fresh
/// scratch) persists.
fn shrink_instance(mut inst: BlossomFuzzInstance) -> BlossomFuzzInstance {
    loop {
        let mut reduced = false;
        let mut i = 0;
        while i < inst.edges.len() {
            let mut cand = inst.clone();
            cand.edges.remove(i);
            if diverges_fresh(&cand) {
                inst = cand;
                reduced = true;
            } else {
                i += 1;
            }
        }
        // Compact node ids so untouched trailing nodes disappear.
        let mut used: Vec<bool> = vec![false; inst.n];
        for &(u, v, _) in &inst.edges {
            used[u] = true;
            used[v] = true;
        }
        if used.iter().any(|&u| !u) {
            let mut map = vec![usize::MAX; inst.n];
            let mut next = 0;
            for (old, &keep) in used.iter().enumerate() {
                if keep {
                    map[old] = next;
                    next += 1;
                }
            }
            let cand = BlossomFuzzInstance {
                n: next,
                edges: inst
                    .edges
                    .iter()
                    .map(|&(u, v, w)| (map[u], map[v], w))
                    .collect(),
            };
            if diverges_fresh(&cand) {
                inst = cand;
                reduced = true;
            }
        }
        if !reduced {
            return inst;
        }
    }
}

/// Differential fuzz: `cases` random matching instances through one
/// shared [`qec_decode::BlossomScratch`] (so cross-shot stale state is
/// exercised), each checked against the reference exact-blossom solver
/// for identical `Option`-ness, total scaled weight, and bitwise mate
/// arrays.
///
/// # Errors
///
/// On the first mismatch, returns a report carrying the seed, the case
/// index, and a greedily shrunk minimal reproducer (shrunk against a
/// fresh scratch; if the divergence needs the shared-scratch history,
/// the unshrunk instance is reported instead). Re-running with the
/// same `seed` replays the identical case sequence.
pub fn differential_blossom_fuzz(cases: u64, seed: u64) -> Result<(), String> {
    let mut sc = qec_decode::BlossomScratch::new();
    for case in 0..cases {
        let mut rng = Xoshiro256StarStar::from_seed_stream(seed, case);
        let inst = random_blossom_instance(&mut rng);
        let reference = solve_reference(&inst);
        let pooled = solve_pooled(&inst, &mut sc);
        if reference != pooled {
            let minimal = if diverges_fresh(&inst) {
                shrink_instance(inst.clone())
            } else {
                inst.clone()
            };
            return Err(format!(
                "blossom differential mismatch: seed={seed:#x} case={case}\n\
                 reference: {reference:?}\npooled:    {pooled:?}\n\
                 minimal reproducer: {}\n\
                 (rerun: differential_blossom_fuzz({}, {seed:#x}))",
                minimal.render(),
                case + 1,
            ));
        }
        if pooled.is_some() {
            sc.verify_certificate()
                .map_err(|e| format!("certificate violation: seed={seed:#x} case={case}: {e}"))?;
        }
    }
    Ok(())
}

/// One graph-native sparse-blossom differential case: a CSR decoding
/// graph, the shot's defect set, and an optional boundary vertex —
/// the inputs [`qec_decode::sparse_graph_match`] takes directly.
#[derive(Debug, Clone)]
pub struct SparseBlossomFuzzCase {
    /// `adjacency[v]` lists `(neighbor, class)`.
    pub adjacency: Vec<Vec<(usize, usize)>>,
    /// Per-class weights.
    pub class_weights: Vec<f64>,
    /// Defect nodes, ascending (odd counts included — without a
    /// boundary both solvers must give up).
    pub defects: Vec<usize>,
    /// Boundary vertex (never a defect), when present.
    pub boundary: Option<usize>,
}

impl SparseBlossomFuzzCase {
    fn render(&self) -> String {
        let mut s = String::from("SparseBlossomFuzzCase { adjacency: vec![");
        for nbrs in &self.adjacency {
            s.push_str(&format!("vec!{nbrs:?}, "));
        }
        s.push_str(&format!(
            "], class_weights: vec!{:?}, defects: vec!{:?}, boundary: {:?} }}",
            self.class_weights, self.defects, self.boundary
        ));
        s
    }
}

/// Draws one sparse-blossom fuzz case. Three shapes:
///
/// * **path-derived**: a [`random_sparse_graph`] draw with a random
///   defect subset — disconnected components keep infeasible and
///   escalation paths well represented;
/// * **boundary-heavy**: the same plus a boundary vertex wired to
///   about half the graph with cheap spokes, so boundary matches
///   dominate the optimum;
/// * **degenerate-tie**: class weights redrawn from a tiny value set,
///   so matchings tie heavily and only weight equality (not mate
///   identity) can be asserted.
pub fn random_sparse_blossom_case(rng: &mut Xoshiro256StarStar) -> SparseBlossomFuzzCase {
    let (mut adjacency, mut class_weights) = random_sparse_graph(rng);
    if rng.gen_bool(0.3) {
        // Degenerate ties: tiny weight set, maximal tie pressure.
        let vals = [0.5, 1.0, 1.0, 2.0];
        for w in class_weights.iter_mut() {
            *w = vals[rng.gen_range(0..vals.len())];
        }
    }
    let nv = adjacency.len();
    let mut nodes: Vec<usize> = (0..nv).collect();
    for i in 0..nv {
        let j = rng.gen_range(i..nv);
        nodes.swap(i, j);
    }
    let boundary = rng.gen_bool(0.45).then(|| nodes[nv - 1]);
    let kmax = nv - usize::from(boundary.is_some());
    let k = rng.gen_range(0..=kmax.min(10));
    let mut defects: Vec<usize> = nodes[..k].to_vec();
    defects.sort_unstable();
    if let Some(b) = boundary {
        if rng.gen_bool(0.5) {
            // Boundary-heavy: cheap spokes from ~half the nodes.
            for u in 0..nv / 2 {
                if u == b {
                    continue;
                }
                let class = class_weights.len();
                class_weights.push(0.05 + rng.gen_f64() * 2.0);
                adjacency[u].push((b, class));
                adjacency[b].push((u, class));
            }
        }
    }
    SparseBlossomFuzzCase {
        adjacency,
        class_weights,
        defects,
        boundary,
    }
}

/// The dense baseline for one case: complete per-defect shortest-path
/// pricing, the virtual-boundary construction, and the reference exact
/// solver — `Some(total scaled weight)` when a perfect matching exists.
fn sparse_case_dense_weight(case: &SparseBlossomFuzzCase) -> Option<i64> {
    let s = case.defects.len();
    let mut edges = Vec::new();
    for (i, &src) in case.defects.iter().enumerate() {
        let (dist, _) = qec_decode::shortest_paths_from(&case.adjacency, &case.class_weights, src);
        for (j, &dst) in case.defects.iter().enumerate().skip(i + 1) {
            if dist[dst] < 1.0e8 {
                edges.push((i, j, dist[dst]));
            }
        }
        if let Some(b) = case.boundary {
            if dist[b] < 1.0e8 {
                edges.push((i, s + i, dist[b]));
            }
        }
    }
    let n = if case.boundary.is_some() {
        for i in 0..s {
            for j in (i + 1)..s {
                edges.push((s + i, s + j, 0.0));
            }
        }
        2 * s
    } else {
        s
    };
    qec_math::graph::matching::min_weight_perfect_matching_f64(n, &edges).map(|m| m.weight)
}

/// The graph-native side of the differential: builds the CSR finder
/// and runs [`qec_decode::sparse_graph_match`] against the provided
/// (possibly shared) scratches.
fn sparse_case_sparse_weight(
    case: &SparseBlossomFuzzCase,
    sc: &mut qec_decode::SparseBlossomScratch,
    blossom: &mut qec_decode::BlossomScratch,
) -> Option<i64> {
    let finder = qec_decode::SparsePathFinder::build(&case.adjacency, case.class_weights.clone());
    let mut pairs = Vec::new();
    qec_decode::sparse_graph_match(
        &finder,
        &case.defects,
        case.boundary,
        &case.class_weights,
        sc,
        blossom,
        &mut pairs,
    )
    .map(|o| o.weight)
}

/// `true` when the sparse-graph solver disagrees with the dense
/// baseline on Option-ness or total weight, against fresh scratches.
fn sparse_case_diverges_fresh(case: &SparseBlossomFuzzCase) -> bool {
    let mut sc = qec_decode::SparseBlossomScratch::new();
    let mut blossom = qec_decode::BlossomScratch::new();
    sparse_case_dense_weight(case) != sparse_case_sparse_weight(case, &mut sc, &mut blossom)
}

/// Greedy shrink for a diverging case: drop the boundary, drop
/// defects, and delete graph edges, keeping each step only if the
/// divergence (against fresh scratches) persists.
fn shrink_sparse_case(mut case: SparseBlossomFuzzCase) -> SparseBlossomFuzzCase {
    loop {
        let mut reduced = false;
        if case.boundary.is_some() {
            let mut cand = case.clone();
            cand.boundary = None;
            if sparse_case_diverges_fresh(&cand) {
                case = cand;
                reduced = true;
            }
        }
        let mut i = 0;
        while i < case.defects.len() {
            let mut cand = case.clone();
            cand.defects.remove(i);
            if sparse_case_diverges_fresh(&cand) {
                case = cand;
                reduced = true;
            } else {
                i += 1;
            }
        }
        // Undirected edge deletions (mirror both adjacency rows).
        let mut undirected: Vec<(usize, usize, usize)> = Vec::new();
        for (u, nbrs) in case.adjacency.iter().enumerate() {
            for &(v, class) in nbrs {
                if u < v {
                    undirected.push((u, v, class));
                }
            }
        }
        for &(u, v, class) in &undirected {
            let mut cand = case.clone();
            cand.adjacency[u].retain(|&(x, c)| (x, c) != (v, class));
            cand.adjacency[v].retain(|&(x, c)| (x, c) != (u, class));
            if sparse_case_diverges_fresh(&cand) {
                case = cand;
                reduced = true;
            }
        }
        if !reduced {
            return case;
        }
    }
}

/// Differential fuzz of the graph-native sparse blossom against the
/// dense complete-pricing baseline: `cases` random CSR cases through
/// one shared [`qec_decode::SparseBlossomScratch`] (cross-shot stale
/// state exercised), each checked for identical `Option`-ness and
/// identical total scaled matching weight — the strategy's contract
/// (mate identity is *not* asserted: tie-degenerate instances may
/// match differently at equal weight).
///
/// # Errors
///
/// On the first mismatch, returns a report carrying the seed, the case
/// index, and a greedily shrunk minimal reproducer. Re-running with
/// the same `seed` replays the identical case sequence.
pub fn differential_sparse_blossom_fuzz(cases: u64, seed: u64) -> Result<(), String> {
    let mut sc = qec_decode::SparseBlossomScratch::new();
    let mut blossom = qec_decode::BlossomScratch::new();
    for case in 0..cases {
        let mut rng = Xoshiro256StarStar::from_seed_stream(seed, case);
        let inst = random_sparse_blossom_case(&mut rng);
        let dense = sparse_case_dense_weight(&inst);
        let sparse = sparse_case_sparse_weight(&inst, &mut sc, &mut blossom);
        if dense != sparse {
            let minimal = if sparse_case_diverges_fresh(&inst) {
                shrink_sparse_case(inst.clone())
            } else {
                inst.clone()
            };
            return Err(format!(
                "sparse-blossom differential mismatch: seed={seed:#x} case={case}\n\
                 dense:  {dense:?}\nsparse: {sparse:?}\n\
                 minimal reproducer: {}\n\
                 (rerun: differential_sparse_blossom_fuzz({}, {seed:#x}))",
                minimal.render(),
                case + 1,
            ));
        }
    }
    Ok(())
}

/// One BP+OSD fuzz case: a synthetic sparse hypergraph DEM (built as a
/// circuit, so it flows through the real `DetectorErrorModel`
/// construction) plus the set of fired mechanisms defining a
/// consistent syndrome.
#[derive(Debug, Clone)]
pub struct BpOsdFuzzCase {
    /// Check detectors in the model.
    pub num_checks: usize,
    /// Logical observables in the model.
    pub num_observables: usize,
    /// Mechanisms as `(detectors, observables, probability, fired)`;
    /// fired mechanisms XOR into the shot's syndrome. Duplicate
    /// `(detectors, observables)` entries exercise mechanism merging;
    /// detector-free entries with observables exercise undetectable
    /// logical classes; an empty detector universe for some checks
    /// leaves degree-0 rows in the Tanner graph.
    pub mechanisms: Vec<(Vec<u32>, Vec<u32>, f64, bool)>,
}

impl BpOsdFuzzCase {
    fn render(&self) -> String {
        let mut s = format!(
            "BpOsdFuzzCase {{ num_checks: {}, num_observables: {}, mechanisms: vec![",
            self.num_checks, self.num_observables
        );
        for (dets, obs, p, fired) in &self.mechanisms {
            s.push_str(&format!("(vec!{dets:?}, vec!{obs:?}, {p:?}, {fired}), "));
        }
        s.push_str("] }");
        s
    }
}

/// Builds a detector error model with exactly the given mechanisms:
/// one ancilla qubit per mechanism, error-injected and CX-fanned into
/// its detector/observable qubits, then measured out through the real
/// `DetectorErrorModel::from_circuit` sensitivity pass (so merging of
/// identical-effect mechanisms behaves exactly as in production DEMs).
pub fn synthetic_hypergraph_dem(
    num_checks: usize,
    num_observables: usize,
    mechanisms: &[(Vec<u32>, Vec<u32>, f64)],
) -> DetectorErrorModel {
    let nq = num_checks + num_observables + mechanisms.len();
    let mut c = Circuit::new(nq);
    c.reset(&(0..nq).collect::<Vec<_>>());
    for (k, (dets, obs, p)) in mechanisms.iter().enumerate() {
        let ancilla = num_checks + num_observables + k;
        c.x_error(&[ancilla], *p);
        let fanout: Vec<(usize, usize)> = dets
            .iter()
            .map(|&d| (ancilla, d as usize))
            .chain(obs.iter().map(|&o| (ancilla, num_checks + o as usize)))
            .collect();
        if !fanout.is_empty() {
            c.cx(&fanout);
        }
    }
    let m = c.measure(&(0..num_checks).collect::<Vec<_>>(), 0.0);
    for d in 0..num_checks {
        c.add_detector(vec![m + d], DetectorMeta::check(d, 0));
    }
    if num_observables > 0 {
        let mo = c.measure(
            &(num_checks..num_checks + num_observables).collect::<Vec<_>>(),
            0.0,
        );
        for o in 0..num_observables {
            let obs = c.add_observable();
            c.include_in_observable(obs, &[mo + o]);
        }
    }
    DetectorErrorModel::from_circuit(&c)
}

/// Draws one BP+OSD fuzz case: 1–14 checks, 0–3 observables, 0–30
/// mechanisms of degree 0–6 (degenerate duplicates, disconnected
/// components and more-mechanisms-than-checks shapes all arise
/// naturally at these sizes), each fired into the syndrome with
/// probability ~¼.
pub fn random_bp_osd_case(rng: &mut Xoshiro256StarStar) -> BpOsdFuzzCase {
    let num_checks: usize = rng.gen_range(1usize..=14);
    let num_observables: usize = rng.gen_range(0usize..=3);
    let num_mechanisms: usize = rng.gen_range(0usize..=30);
    let mut mechanisms = Vec::with_capacity(num_mechanisms);
    let mut dets_pool: Vec<u32> = (0..num_checks as u32).collect();
    for _ in 0..num_mechanisms {
        let degree = rng.gen_range(0..=num_checks.min(6));
        for i in 0..degree {
            let j = rng.gen_range(i..dets_pool.len());
            dets_pool.swap(i, j);
        }
        let mut dets: Vec<u32> = dets_pool[..degree].to_vec();
        dets.sort_unstable();
        let mut obs = Vec::new();
        for o in 0..num_observables as u32 {
            if rng.gen_bool(0.25) {
                obs.push(o);
            }
        }
        let p = 0.005 + rng.gen_f64() * 0.25;
        mechanisms.push((dets, obs, p, rng.gen_bool(0.25)));
    }
    BpOsdFuzzCase {
        num_checks,
        num_observables,
        mechanisms,
    }
}

/// Runs one BP+OSD fuzz case against the provided (possibly shared)
/// scratch, checking the decoder's hard invariants:
///
/// 1. the correction is **syndrome-valid** — the fired-mechanism
///    syndrome is consistent by construction, so `valid` must hold;
/// 2. **OSD never regresses**: with `osd_always` the returned weight is
///    at most the BP hard decision's weight whenever BP converged;
/// 3. **scratch-reuse determinism**: `decode_into` through the shared
///    scratch is bit-identical to a fresh-scratch `decode`.
fn bp_osd_case_failure(case: &BpOsdFuzzCase, scratch: &mut DecodeScratch) -> Option<String> {
    let mechs: Vec<(Vec<u32>, Vec<u32>, f64)> = case
        .mechanisms
        .iter()
        .map(|(d, o, p, _)| (d.clone(), o.clone(), *p))
        .collect();
    let dem = synthetic_hypergraph_dem(case.num_checks, case.num_observables, &mechs);
    let decoder = BpOsdDecoder::new(&dem, BpOsdConfig::unflagged().with_osd_always(true));
    let mut dets = BitVec::zeros(dem.num_detectors());
    for (d, _, _, fired) in &case.mechanisms {
        if *fired {
            for &c in d {
                dets.flip(c as usize);
            }
        }
    }
    let mut out = BitVec::zeros(0);
    let outcome = decoder.decode_detail(&dets, scratch, &mut out);
    if !outcome.valid {
        return Some(format!(
            "syndrome-invalid correction on a consistent syndrome (outcome {outcome:?})"
        ));
    }
    if let Some(bw) = outcome.bp_hard_weight {
        if outcome.weight > bw + 1e-9 {
            return Some(format!(
                "OSD regressed past the BP hard decision: weight {} > bp {}",
                outcome.weight, bw
            ));
        }
    }
    let fresh = decoder.decode(&dets);
    if fresh != out {
        return Some("shared-scratch decode_into diverged from fresh-scratch decode".into());
    }
    None
}

/// `true` when the case fails against a *fresh* scratch (the
/// shrink predicate: failures reproducible without cross-case state).
fn bp_osd_case_fails_fresh(case: &BpOsdFuzzCase) -> bool {
    bp_osd_case_failure(case, &mut DecodeScratch::new()).is_some()
}

/// Greedy shrink for a failing case: drop mechanisms and unfire fired
/// ones, keeping each step only if the fresh-scratch failure persists.
fn shrink_bp_osd_case(mut case: BpOsdFuzzCase) -> BpOsdFuzzCase {
    loop {
        let mut reduced = false;
        let mut i = 0;
        while i < case.mechanisms.len() {
            let mut cand = case.clone();
            cand.mechanisms.remove(i);
            if bp_osd_case_fails_fresh(&cand) {
                case = cand;
                reduced = true;
            } else {
                i += 1;
            }
        }
        for i in 0..case.mechanisms.len() {
            if case.mechanisms[i].3 {
                let mut cand = case.clone();
                cand.mechanisms[i].3 = false;
                if bp_osd_case_fails_fresh(&cand) {
                    case = cand;
                    reduced = true;
                }
            }
        }
        if !reduced {
            return case;
        }
    }
}

/// Differential fuzz of the BP+OSD decoder over random sparse
/// hypergraphs (degenerate and disconnected shapes included): `cases` cases through one shared
/// [`qec_decode::DecodeScratch`], each asserting syndrome validity on
/// its consistent fired-mechanism syndrome, the
/// OSD-weight ≤ BP-hard-decision-weight contract, and bit-identity of
/// shared-scratch and fresh-scratch decoding.
///
/// # Errors
///
/// On the first failure, returns a report carrying the seed, the case
/// index, and a greedily shrunk minimal reproducer. Re-running with the
/// same `seed` replays the identical case sequence.
pub fn differential_bp_osd_fuzz(cases: u64, seed: u64) -> Result<(), String> {
    let mut scratch = DecodeScratch::new();
    for case in 0..cases {
        let mut rng = Xoshiro256StarStar::from_seed_stream(seed, case);
        let inst = random_bp_osd_case(&mut rng);
        if let Some(failure) = bp_osd_case_failure(&inst, &mut scratch) {
            let minimal = if bp_osd_case_fails_fresh(&inst) {
                shrink_bp_osd_case(inst.clone())
            } else {
                inst.clone()
            };
            return Err(format!(
                "bp+osd fuzz failure: seed={seed:#x} case={case}\n\
                 {failure}\n\
                 minimal reproducer: {}\n\
                 (rerun: differential_bp_osd_fuzz({}, {seed:#x}))",
                minimal.render(),
                case + 1,
            ));
        }
    }
    Ok(())
}
