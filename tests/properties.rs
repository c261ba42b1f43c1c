//! Property-based tests on the core substrates, driven by the
//! dependency-free `proptest_lite` harness.

use fpn_repro::prelude::*;
use fpn_repro::proptest_lite::{for_all, for_all_filtered, Gen};
use fpn_repro::qec_math::graph::matching::{brute_force_max_weight, max_weight_matching};
use fpn_repro::qec_math::{gf2, BitMatrix, BitVec};
use fpn_repro::qec_sched::try_greedy_schedule;
use fpn_repro::qec_sim::{sample_mask, Circuit, DetectorErrorModel, DetectorMeta};
use qec_math::rng::Xoshiro256StarStar;
use qec_testkit::reference::{Pauli, TableauSimulator, UnionFindReference};
use qec_testkit::{
    assert_dem_matches_reference, hyperbolic_memory_dem, mechanism_fire_probability,
    random_sparse_graph, random_syndrome, surface_memory_dem, toric_color_dem,
};

/// A random GF(2) matrix with 1..=max_rows rows and 1..=max_cols cols.
fn gen_matrix(g: &mut Gen, max_rows: usize, max_cols: usize) -> BitMatrix {
    let r = g.usize_in(1..=max_rows);
    let c = g.usize_in(1..=max_cols);
    let mut m = BitMatrix::zeros(r, c);
    for i in 0..r {
        for j in 0..c {
            if g.bool(0.5) {
                m.set(i, j, true);
            }
        }
    }
    m
}

/// A random bit vector of exactly `n` entries.
fn gen_bitvec(g: &mut Gen, n: usize) -> BitVec {
    let bools: Vec<bool> = (0..n).map(|_| g.bool(0.5)).collect();
    BitVec::from_bools(&bools)
}

#[test]
fn nullspace_annihilates_and_has_full_corank() {
    for_all(48, 0x6e75, |g| {
        let m = gen_matrix(g, 8, 12);
        let ns = gf2::nullspace(&m);
        assert_eq!(ns.rows(), m.cols() - gf2::rank(&m));
        for v in ns.iter_rows() {
            assert!(m.mul_vec(v).is_zero());
        }
        assert_eq!(gf2::rank(&ns), ns.rows());
    });
}

#[test]
fn solve_agrees_with_mul() {
    for_all(48, 0x501e, |g| {
        let m = gen_matrix(g, 8, 10);
        let b = gen_bitvec(g, m.rows());
        if let Some(x) = gf2::solve(&m, &b) {
            assert_eq!(m.mul_vec(&x), b);
        } else {
            // Inconsistent: b must not be in the column space.
            assert!(!gf2::in_row_space(&m.transposed(), &b));
        }
    });
}

#[test]
fn matrix_multiplication_is_associative_on_vectors() {
    for_all(48, 0xa550, |g| {
        let a = gen_matrix(g, 6, 6);
        let v = gen_bitvec(g, a.cols());
        let av = a.mul_vec(&v);
        // (Aᵀ)ᵀ v == A v
        assert_eq!(a.transposed().transposed().mul_vec(&v), av);
    });
}

#[test]
fn blossom_matches_brute_force() {
    for_all(48, 0xb105, |g| {
        let n = g.usize_in(2..=7);
        let density = g.f64_in(0.2, 1.0);
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if g.bool(density) {
                    edges.push((u, v, g.i64_in(1, 40)));
                }
            }
        }
        let m = max_weight_matching(n, &edges);
        assert_eq!(m.weight, brute_force_max_weight(n, &edges));
    });
}

#[test]
fn random_css_codes_schedule_validly() {
    // Random CSS code: random H_X, then H_Z rows drawn from its
    // nullspace; Algorithm 1 must produce a valid schedule.
    for_all_filtered(32, 0xc55c, |g| {
        let n = g.usize_in(6..=11);
        let x_rows = g.usize_in(1..=3);
        let mut hx = BitMatrix::zeros(x_rows, n);
        for r in 0..x_rows {
            for c in 0..n {
                if g.bool(0.4) {
                    hx.set(r, c, true);
                }
            }
        }
        let kernel = gf2::nullspace(&hx);
        if kernel.rows() < 2 {
            return false;
        }
        let mut hz = BitMatrix::zeros(0, n);
        for _ in 0..g.usize_in(1..=2) {
            // Random kernel combination with at least two qubits.
            let mut v = BitVec::zeros(n);
            for row in kernel.iter_rows() {
                if g.bool(0.5) {
                    v.xor_assign(row);
                }
            }
            if v.weight() >= 2 {
                hz.push_row(v);
            }
        }
        if hz.rows() < 1 || !hx.iter_rows().all(|r| r.weight() >= 2) {
            return false;
        }
        let code = CssCode::new("random", CodeFamily::Custom, hx, hz).unwrap();
        let schedule = try_greedy_schedule(&code).expect("schedulable");
        schedule.verify(&code).expect("valid schedule");
        true
    });
}

#[test]
fn dem_predicts_tableau_fault_propagation() {
    // Random parity-check-style circuit, random single Pauli fault:
    // the tableau's detector diff must equal the DEM's mechanism.
    for_all_filtered(32, 0xde31, |g| {
        let n_data = g.usize_in(2..=4);
        let n_anc = g.usize_in(1..=3);
        let nq = n_data + n_anc;
        let mut circuit = Circuit::new(nq);
        circuit.reset(&(0..nq).collect::<Vec<_>>());
        let mut cx_ops: Vec<(usize, usize)> = Vec::new();
        for a in 0..n_anc {
            for d in 0..n_data {
                if g.bool(0.5) {
                    cx_ops.push((d, n_data + a));
                }
            }
        }
        if cx_ops.is_empty() {
            return false;
        }
        // Insert the fault channel at a random point between CXs.
        let fault_at = g.usize_in(0..=cx_ops.len());
        let fault_qubit = g.usize_in(0..=nq - 1);
        let pauli = [Pauli::X, Pauli::Y, Pauli::Z][g.usize_in(0..=2)];
        for (i, &pair) in cx_ops.iter().enumerate() {
            if i == fault_at {
                match pauli {
                    Pauli::X => circuit.x_error(&[fault_qubit], 0.25),
                    Pauli::Z => circuit.z_error(&[fault_qubit], 0.25),
                    Pauli::Y => circuit.pauli_channel1(&[fault_qubit], 0.0, 0.25, 0.0),
                }
            }
            circuit.cx(&[pair]);
        }
        if fault_at == cx_ops.len() {
            match pauli {
                Pauli::X => circuit.x_error(&[fault_qubit], 0.25),
                Pauli::Z => circuit.z_error(&[fault_qubit], 0.25),
                Pauli::Y => circuit.pauli_channel1(&[fault_qubit], 0.0, 0.25, 0.0),
            }
        }
        let first = circuit.measure(&(n_data..nq).collect::<Vec<_>>(), 0.0);
        for a in 0..n_anc {
            circuit.add_detector(vec![first + a], DetectorMeta::check(a, 0));
        }
        // DEM prediction.
        let dem = DetectorErrorModel::from_circuit(&circuit);
        assert!(dem.mechanisms().len() <= 1);
        let predicted: Vec<u32> = dem
            .mechanisms()
            .first()
            .map(|m| m.detectors.clone())
            .unwrap_or_default();
        // Tableau ground truth: inject the same Pauli just before the
        // op following the noise channel.
        let inject_op_index = 1 + fault_at; // after Reset + fault_at CXs
        let mut trng = Xoshiro256StarStar::seed_from_u64(7);
        let clean = TableauSimulator::run(&circuit, None, &mut trng);
        let mut trng = Xoshiro256StarStar::seed_from_u64(7);
        let faulty = TableauSimulator::run(
            &circuit,
            Some((1 + inject_op_index, &[(fault_qubit, pauli)])),
            &mut trng,
        );
        let mut flipped: Vec<u32> = Vec::new();
        for a in 0..n_anc {
            if clean[a] != faulty[a] {
                flipped.push(a as u32);
            }
        }
        assert_eq!(predicted, flipped);
        true
    });
}

/// A random noisy circuit on 2–4 qubits over every `Op` variant:
/// mid-circuit resets and measurements, Pauli channels with zeroed
/// components, noise ops emitted twice in a row (identical faults that
/// must merge), zero-probability channels, detectors over one or two
/// measurements (so two-qubit components can cancel to an empty
/// effect), measurements in no detector, and up to two observables.
fn gen_noisy_circuit(g: &mut Gen) -> Circuit {
    const PROBS: [f64; 5] = [0.0, 1e-3, 0.01, 0.125, 0.3];
    let nq = g.usize_in(2..=4);
    let mut c = Circuit::new(nq);
    c.reset(&(0..nq).collect::<Vec<_>>());
    let p = |g: &mut Gen| PROBS[g.usize_in(0..=PROBS.len() - 1)];
    let targets = |g: &mut Gen| g.vec(1..=nq, |g| g.usize_in(0..=nq - 1));
    let pairs = |g: &mut Gen| {
        g.vec(1..=3, |g| {
            let a = g.usize_in(0..=nq - 1);
            (a, (a + g.usize_in(1..=nq - 1)) % nq)
        })
    };
    for _ in 0..g.usize_in(4..=24) {
        let reps = if g.bool(0.25) { 2 } else { 1 };
        match g.usize_in(0..=9) {
            0 => c.h(&targets(g)),
            1 => c.cx(&pairs(g)),
            2 => c.reset(&targets(g)),
            3 => {
                c.measure(&targets(g), p(g));
            }
            4 => {
                let (ts, p) = (targets(g), p(g));
                (0..reps).for_each(|_| c.x_error(&ts, p));
            }
            5 => {
                let (ts, p) = (targets(g), p(g));
                (0..reps).for_each(|_| c.z_error(&ts, p));
            }
            6 => {
                let (ts, px, py, pz) = (targets(g), p(g), p(g), p(g));
                (0..reps).for_each(|_| c.pauli_channel1(&ts, px, py, pz));
            }
            7 => {
                let (ts, p) = (targets(g), p(g));
                (0..reps).for_each(|_| c.depolarize1(&ts, p));
            }
            8 => {
                let (ps, p) = (pairs(g), p(g));
                (0..reps).for_each(|_| c.depolarize2(&ps, p));
            }
            _ => c.tick(),
        }
    }
    c.measure(&(0..nq).collect::<Vec<_>>(), p(g));
    let nm = c.num_measurements();
    for id in 0..g.usize_in(1..=nm.min(6)) {
        let ms = g.vec(1..=2, |g| g.usize_in(0..=nm - 1));
        c.add_detector(ms, DetectorMeta::check(id, 0));
    }
    for _ in 0..g.usize_in(0..=2) {
        let obs = c.add_observable();
        let ms = g.vec(1..=2, |g| g.usize_in(0..=nm - 1));
        c.include_in_observable(obs, &ms);
    }
    c
}

/// The streaming DEM builder must equal the collect-then-merge
/// reference in `qec-testkit` — same mechanisms, same order,
/// probabilities equal by `to_bits` — on a hand-built circuit that
/// holds each edge case once and on seeded random circuits.
#[test]
fn dem_builder_matches_reference_on_random_circuits() {
    let mut c = Circuit::new(3);
    c.reset(&[0, 1, 2]);
    // Under the detector m0 ^ m1, X0X1 and Y0Y1 cancel to nothing.
    c.depolarize2(&[(0, 1)], 0.15);
    c.pauli_channel1(&[0], 0.0, 0.02, 0.0);
    c.x_error(&[1], 0.01);
    c.x_error(&[1], 0.01);
    // A mid-circuit reset erases the fault before it.
    c.x_error(&[2], 0.3);
    c.reset(&[2]);
    // Measurement m + 2 lies in no detector: its flips are invisible.
    let m = c.measure(&[0, 1, 2], 0.05);
    c.add_detector(vec![m, m + 1], DetectorMeta::check(0, 0));
    let obs = c.add_observable();
    c.include_in_observable(obs, &[m]);
    assert_dem_matches_reference(&c, "hand-built");
    for_all(512, 0xde5e, |g| {
        let circuit = gen_noisy_circuit(g);
        assert_dem_matches_reference(&circuit, "random circuit");
    });
}

#[test]
fn sample_mask_per_bit_frequencies_match_p() {
    // Each of the 64 lanes of `sample_mask` is an independent
    // Bernoulli(p) draw; over N masks the per-lane ones-count is
    // Binomial(N, p). A 5.5σ band keeps the false-failure odds below
    // ~1e-5 across all 576 (lane, p, stream) combinations tested here
    // while still catching lane bias, lane correlation, or a p that is
    // off by a few percent.
    const MASKS: usize = 4000;
    for (pi, &p) in [0.02, 0.1, 0.37].iter().enumerate() {
        for stream in 0..3u64 {
            let mut rng = Xoshiro256StarStar::from_seed_stream(0x5a3e + pi as u64, stream);
            let mut counts = [0u32; 64];
            for _ in 0..MASKS {
                let mask = sample_mask(&mut rng, p);
                for (b, count) in counts.iter_mut().enumerate() {
                    *count += ((mask >> b) & 1) as u32;
                }
            }
            let mean = MASKS as f64 * p;
            let bound = 5.5 * (MASKS as f64 * p * (1.0 - p)).sqrt();
            for (b, &count) in counts.iter().enumerate() {
                let dev = (count as f64 - mean).abs();
                assert!(
                    dev <= bound,
                    "sample_mask bit {b} at p={p} stream {stream}: \
                     {count}/{MASKS} ones deviates {dev:.1} from mean {mean:.1} (bound {bound:.1})",
                );
            }
        }
    }
}

#[test]
fn decode_into_matches_decode_on_surface_dems() {
    for (d, cases, seed) in [(3usize, 48u64, 0xd3c0u64), (5, 16, 0xd5c0)] {
        let dem = surface_memory_dem(d);
        let pm = NoiseModel::new(1e-3).measurement_flip();
        let decoders: Vec<Box<dyn Decoder>> = vec![
            Box::new(MwpmDecoder::new(&dem, MwpmConfig::unflagged())),
            Box::new(MwpmDecoder::new(&dem, MwpmConfig::flagged(pm))),
            Box::new(UnionFindDecoder::new(&dem, UnionFindConfig::unflagged())),
        ];
        // Aim for ~8 fired mechanisms per shot regardless of DEM size,
        // so debug-mode matching stays fast while still exercising
        // multi-error clusters.
        let q = mechanism_fire_probability(&dem, 8.0);
        let uf_reference = UnionFindReference::new(&dem, UnionFindConfig::unflagged());
        let mut scratch = DecodeScratch::new();
        let mut out = BitVec::zeros(0);
        for_all(cases, seed, |g| {
            let syndrome = random_syndrome(g.rng(), &dem, q);
            for decoder in &decoders {
                let reference = decoder.decode(&syndrome);
                decoder.decode_into(&syndrome, &mut scratch, &mut out);
                assert_eq!(
                    out, reference,
                    "decode_into diverged from decode on d={d} surface DEM",
                );
            }
            // Union-Find's decode_into (the last decoder above) against
            // the allocating testkit reference.
            assert_eq!(
                out,
                uf_reference.decode(&syndrome),
                "Union-Find diverged from its reference on d={d} surface DEM",
            );
        });
    }
}

#[test]
fn decode_into_matches_decode_on_toric_color_pipeline() {
    let (code, exp, noise) = qec_testkit::toric_color_memory();
    let pipeline = DecodingPipeline::new(&code, &exp, DecoderKind::FlaggedRestriction, &noise);
    let dem = DetectorErrorModel::from_circuit(&exp.circuit);
    let q = mechanism_fire_probability(&dem, 8.0);
    let uf_config = UnionFindConfig::flagged(noise.measurement_flip());
    let uf = UnionFindDecoder::new(&dem, uf_config);
    let uf_reference = UnionFindReference::new(&dem, uf_config);
    let mut scratch = DecodeScratch::new();
    let mut out = BitVec::zeros(0);
    for_all(32, 0xc010, |g| {
        let syndrome = random_syndrome(g.rng(), &dem, q);
        let reference = pipeline.decoder().decode(&syndrome);
        pipeline
            .decoder()
            .decode_into(&syndrome, &mut scratch, &mut out);
        assert_eq!(
            out, reference,
            "decode_into diverged from decode on the toric color-code pipeline",
        );
        // Flag-conditioned Union-Find against its allocating reference.
        uf.decode_into(&syndrome, &mut scratch, &mut out);
        assert_eq!(
            out,
            uf_reference.decode(&syndrome),
            "flagged Union-Find diverged from its reference on the toric color DEM",
        );
    });
}

/// The oracle's rows must equal on-demand Dijkstra **bitwise** (same
/// routine, same accumulation order), be invariant under the
/// construction thread count, and every reconstructed path must sum
/// back to its distance entry.
#[test]
fn path_oracle_matches_on_demand_dijkstra_on_random_graphs() {
    use fpn_repro::qec_decode::shortest_paths_from;
    for_all(48, 0x04ac1e, |g| {
        let (adjacency, class_weights) = random_sparse_graph(g.rng());
        let n = adjacency.len();
        let oracle = PathOracle::build(&adjacency, &class_weights, 1);
        let threaded = PathOracle::build(&adjacency, &class_weights, g.usize_in(2..=6));
        for src in 0..n {
            let (dist, pred) = shortest_paths_from(&adjacency, &class_weights, src);
            for dst in 0..n {
                assert_eq!(
                    oracle.dist(src, dst).to_bits(),
                    dist[dst].to_bits(),
                    "oracle dist[{src}][{dst}] != on-demand Dijkstra"
                );
                assert_eq!(
                    oracle.dist(src, dst).to_bits(),
                    threaded.dist(src, dst).to_bits(),
                    "oracle dist[{src}][{dst}] depends on thread count"
                );
                assert_eq!(oracle.pred(src, dst), pred[dst]);
                assert_eq!(oracle.pred(src, dst), threaded.pred(src, dst));
                // Reconstruct the path through the O(1) next-hop
                // lookups and re-price it edge by edge.
                if dst != src && oracle.dist(src, dst).is_finite() {
                    let mut weight = 0.0;
                    let mut cur = dst;
                    let mut hops = 0;
                    while cur != src {
                        let (prev, class) = oracle.pred(src, cur);
                        assert_ne!(prev, usize::MAX, "finite distance needs a path");
                        weight += class_weights[class] + 1e-6 + (class % 1024) as f64 * 1e-9;
                        cur = prev;
                        hops += 1;
                        assert!(hops <= n, "pred chain must not cycle");
                    }
                    assert!(
                        (weight - oracle.dist(src, dst)).abs() <= 1e-9 * weight.max(1.0),
                        "path weight {weight} != dist {} from {src} to {dst}",
                        oracle.dist(src, dst)
                    );
                }
            }
        }
    });
}

/// Pair distances and paths priced on the sparse finder's CSR graph
/// (by the complete-pricing reference, `complete_graph_match`) must
/// equal the dense oracle's rows and on-demand Dijkstra **bitwise** on
/// random sparse graphs — including disconnected components
/// (unreachable stays `INFINITY` with an empty path) — for every pair
/// of a random vertex order, priced from its lower index; and the
/// matching it solves must have the weight of the oracle-priced
/// complete instance, with every matched pair's hops on a shortest path.
#[test]
fn sparse_finder_matches_oracle_and_dijkstra_on_random_graphs() {
    use fpn_repro::qec_decode::{
        complete_graph_match, pooled_min_weight_perfect_matching_f64, shortest_paths_from,
        BlossomScratch, SparseBlossomScratch, SparsePathFinder,
    };
    let (mut sc, mut blossom, mut pairs) =
        (SparseBlossomScratch::new(), BlossomScratch::new(), vec![]);
    for_all(48, 0x59a45e, |g| {
        let (adjacency, class_weights) = random_sparse_graph(g.rng());
        let n = adjacency.len();
        let oracle = PathOracle::build(&adjacency, &class_weights, 1);
        let finder = SparsePathFinder::build(&adjacency, class_weights.clone());
        assert_eq!(finder.num_nodes(), n);
        // Every vertex, in a random order, so pairs are priced from
        // either end across cases; a random one of them may serve as
        // the boundary.
        let mut checks: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            checks.swap(i, g.usize_in(0..=i));
        }
        let boundary = g.bool(0.5).then(|| checks.pop()).flatten();
        let s = checks.len();
        let outcome = complete_graph_match(
            &finder,
            &checks,
            boundary,
            &class_weights,
            &mut sc,
            &mut blossom,
            &mut pairs,
        );
        let mut targets = checks.clone();
        targets.extend(boundary);
        let mut edges = Vec::new();
        for (i, &src) in checks.iter().enumerate() {
            let (dist, pred) = shortest_paths_from(&adjacency, &class_weights, src);
            for (j, &dst) in targets.iter().enumerate().skip(i + 1) {
                let csr = sc.pair_dist(i, j);
                assert_eq!(
                    csr.to_bits(),
                    dist[dst].to_bits(),
                    "CSR dist[{src}][{dst}] != on-demand Dijkstra"
                );
                assert_eq!(
                    csr.to_bits(),
                    oracle.dist(src, dst).to_bits(),
                    "CSR dist[{src}][{dst}] != dense oracle"
                );
                // The harvested hops must replay the full Dijkstra's
                // predecessor-chain walk exactly (dst→src order).
                let mut expect: Vec<(u32, u32, u32)> = Vec::new();
                if dist[dst].is_finite() {
                    let mut cur = dst;
                    while cur != src {
                        let (prev, class) = pred[cur];
                        expect.push((prev as u32, cur as u32, class as u32));
                        cur = prev;
                    }
                }
                assert_eq!(sc.pair_hops(i, j), &expect[..]);
                // The oracle-priced complete instance, as the engine
                // builds it.
                if oracle.dist(src, dst) < 1.0e8 {
                    edges.push((i, if j == s { s + i } else { j }, oracle.dist(src, dst)));
                }
            }
        }
        let copies = if boundary.is_some() { s } else { 0 };
        for i in 0..copies {
            edges.extend(((i + 1)..s).map(|j| (s + i, s + j, 0.0)));
        }
        let mut reference_blossom = BlossomScratch::new();
        let reference =
            pooled_min_weight_perfect_matching_f64(s + copies, &edges, &mut reference_blossom);
        assert_eq!(
            outcome.map(|o| o.weight),
            reference.as_ref().map(|m| m.weight())
        );
        if let Some(m) = reference {
            assert_eq!(
                pairs,
                m.pairs().collect::<Vec<_>>(),
                "complete instances match alike"
            );
        }
    });
}

/// On the hyperbolic fixture — whose 1224 check detectors exceed the
/// default dense-oracle guard, the regime the sparse tier exists for —
/// both path tiers must produce identical corrections on realistic
/// multi-error syndromes.
#[test]
fn mwpm_path_tiers_agree_on_hyperbolic_dem() {
    let dem = hyperbolic_memory_dem();
    let dense = MwpmDecoder::new(&dem, MwpmConfig::unflagged().with_oracle_node_limit(2048));
    assert!(
        dense.path_oracle().is_some(),
        "raised limit admits the oracle"
    );
    let sparse = MwpmDecoder::new(&dem, MwpmConfig::unflagged());
    assert!(
        sparse.path_oracle().is_none(),
        "default guard rejects 1224 nodes"
    );
    assert!(sparse.sparse_finder().is_some());
    let q = mechanism_fire_probability(&dem, 6.0);
    let mut scratch = DecodeScratch::new();
    let mut out = BitVec::zeros(0);
    for_all(12, 0x04a99, |g| {
        let syndrome = random_syndrome(g.rng(), &dem, q);
        let reference = dense.decode(&syndrome);
        sparse.decode_into(&syndrome, &mut scratch, &mut out);
        assert_eq!(
            out, reference,
            "sparse decode diverged from the oracle on the hyperbolic DEM"
        );
    });
    assert!(dense.stats().oracle_hits > 0);
    assert!(sparse.stats().sparse_blossom > 0);
    assert_eq!(sparse.stats().oracle_misses, 0);
}

/// A 3-round memory-Z experiment on `code` realized as a shared-flag
/// FPN: unlike the direct-FPN fixtures it places flag qubits, so its
/// DEM carries flag detectors and flagged decoders reweight shots.
fn shared_flag_experiment(code: &CssCode, p: f64) -> (DetectorErrorModel, f64) {
    let fpn = FlagProxyNetwork::build(code, &FpnConfig::shared());
    let noise = NoiseModel::new(p);
    let exp = build_memory_circuit(code, &fpn, Some(&noise), 3, Basis::Z);
    let dem = DetectorErrorModel::from_circuit(&exp.circuit);
    assert!(
        dem.detector_meta().iter().any(|m| m.is_flag),
        "shared-flag FPN must carry flag detectors"
    );
    (dem, noise.measurement_flip())
}

/// Both path tiers — dense oracle and lazy sparse finder — must
/// produce identical corrections on realistic multi-round surface DEMs
/// (the default config builds the oracle below the node limit; limit 0
/// drops it), flagged multi-error syndromes included. Flagged shots
/// never reach a per-shot full-graph search: the default flagged
/// decoder serves them from the sparse finder even though its dense
/// oracle exists.
#[test]
fn mwpm_path_tiers_agree_on_surface_dems() {
    let pm = NoiseModel::new(1e-3).measurement_flip();
    let (flag_dem, flag_pm) = shared_flag_experiment(&rotated_surface_code(3), 1e-3);
    for (dem, pm, cases, seed, flagged) in [
        (surface_memory_dem(3), pm, 32u64, 0x04ad3u64, false),
        (surface_memory_dem(5), pm, 12, 0x04ad5, false),
        (flag_dem, flag_pm, 32, 0x04adf, true),
    ] {
        let pairs: Vec<[MwpmDecoder; 2]> = [MwpmConfig::unflagged(), MwpmConfig::flagged(pm)]
            .into_iter()
            .map(|config| {
                [
                    MwpmDecoder::new(&dem, config),
                    MwpmDecoder::new(&dem, config.with_oracle_node_limit(0)),
                ]
            })
            .collect();
        for [dense, sparse] in &pairs {
            assert!(dense.path_oracle().is_some(), "below-threshold graph");
            assert!(dense.sparse_finder().is_some(), "CSR always built");
            assert!(sparse.path_oracle().is_none(), "limit 0 drops the oracle");
            assert!(sparse.sparse_finder().is_some(), "sparse tier engaged");
        }
        let q = mechanism_fire_probability(&dem, 8.0);
        let mut scratch = DecodeScratch::new();
        let mut out = BitVec::zeros(0);
        for_all(cases, seed, |g| {
            let syndrome = random_syndrome(g.rng(), &dem, q);
            for [dense, sparse] in &pairs {
                let reference = dense.decode(&syndrome);
                sparse.decode_into(&syndrome, &mut scratch, &mut out);
                assert_eq!(
                    out,
                    reference,
                    "sparse-tier decode diverged from the oracle ({} detectors)",
                    dem.num_detectors(),
                );
            }
        });
        // The unflagged dense decoder answers every nonzero shot from
        // the oracle, the sparse decoder on the finder's CSR graph (the
        // grown route).
        let [dense, sparse] = &pairs[0];
        assert!(dense.stats().oracle_hits > 0);
        assert_eq!(dense.stats().sparse_blossom, 0);
        assert!(sparse.stats().sparse_blossom > 0);
        assert_eq!(sparse.stats().oracle_hits, 0);
        for decoder in pairs.iter().flatten() {
            assert_eq!(decoder.stats().oracle_misses, 0);
        }
        if flagged {
            let [dense, _] = &pairs[1];
            assert!(
                dense.stats().sparse_blossom > 0,
                "flagged shots take the sparse tier"
            );
        }
    }
}

/// Same two-tier agreement guarantee for the restriction decoder's
/// per-lattice path indexes on the toric color-code DEM, and on its
/// shared-flag variant, whose flag-reweighted shots the default
/// decoder serves from the sparse finders although every lattice has
/// a dense oracle.
#[test]
fn restriction_path_tiers_agree_on_toric_color_dem() {
    let (direct_dem, direct_ctx, direct_pm) = toric_color_dem();
    let code = toric_color_code(2).expect("toric color code builds");
    let (flag_dem, flag_pm) = shared_flag_experiment(&code, 5e-4);
    let flag_ctx = color_context(&code, Basis::Z);
    for (dem, ctx, pm, flagged) in [
        (direct_dem, direct_ctx, direct_pm, false),
        (flag_dem, flag_ctx, flag_pm, true),
    ] {
        let dense = RestrictionDecoder::new(&dem, ctx.clone(), RestrictionConfig::flagged(pm));
        assert!((0..3).all(|l| dense.path_oracle(l).is_some()));
        assert!((0..3).all(|l| dense.sparse_finder(l).is_some()));
        let sparse = RestrictionDecoder::new(
            &dem,
            ctx,
            RestrictionConfig::flagged(pm).with_oracle_node_limit(0),
        );
        assert!((0..3).all(|l| sparse.path_oracle(l).is_none()));
        assert!((0..3).all(|l| sparse.sparse_finder(l).is_some()));
        let q = mechanism_fire_probability(&dem, 8.0);
        let mut scratch = DecodeScratch::new();
        let mut out = BitVec::zeros(0);
        for_all(24, 0x04ac0, |g| {
            let syndrome = random_syndrome(g.rng(), &dem, q);
            let reference = dense.decode(&syndrome);
            sparse.decode_into(&syndrome, &mut scratch, &mut out);
            assert_eq!(
                out, reference,
                "sparse-tier decode diverged from the oracle on the toric color DEM (flagged: {flagged})",
            );
        });
        assert!(dense.stats().oracle_hits > 0);
        assert_eq!(dense.stats().oracle_misses, 0);
        assert!(sparse.stats().sparse_blossom > 0);
        assert_eq!(sparse.stats().oracle_hits, 0);
        assert_eq!(sparse.stats().oracle_misses, 0);
        if flagged {
            assert!(
                dense.stats().sparse_blossom > 0,
                "flagged shots take the sparse tier"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// qec-obs: metrics and trace-format properties.
// ---------------------------------------------------------------------------

#[test]
fn obs_histogram_bins_count_every_sample_in_its_bin() {
    use fpn_repro::qec_obs::{bin_index, bin_lower_bound, Histogram, HISTOGRAM_BINS};
    for_all(64, 0x0b51, |g| {
        let n = g.usize_in(0..=48);
        // Shift random words by random amounts so samples cover every
        // power-of-two decade, not just the top bins.
        let values: Vec<u64> = (0..n).map(|_| g.u64() >> g.usize_in(0..=63)).collect();
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        let mut expect = vec![0u64; HISTOGRAM_BINS];
        for &v in &values {
            let b = bin_index(v);
            expect[b] += 1;
            assert!(
                v >= bin_lower_bound(b),
                "sample below its bin's lower bound"
            );
            if b + 1 < HISTOGRAM_BINS {
                assert!(
                    v < bin_lower_bound(b + 1),
                    "sample at or above the next bin"
                );
            }
        }
        assert_eq!(snap.bins, expect, "bin counts must equal inserted samples");
        assert_eq!(snap.count, values.len() as u64);
        assert_eq!(
            snap.sum,
            values.iter().fold(0u64, |a, &v| a.wrapping_add(v))
        );
    });
}

#[test]
fn obs_histogram_merge_is_commutative_and_associative() {
    use fpn_repro::qec_obs::{Histogram, HistogramSnapshot};
    for_all(64, 0x0b52, |g| {
        let sample = |g: &mut Gen| -> HistogramSnapshot {
            let h = Histogram::new();
            for _ in 0..g.usize_in(0..=32) {
                h.record(g.u64() >> g.usize_in(0..=63));
            }
            h.snapshot()
        };
        let (a, b, c) = (sample(g), sample(g), sample(g));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge must be associative");
        assert_eq!(ab_c.count, a.count + b.count + c.count);
    });
}

/// Opens a random tree of spans on `writer` (guards close in strict
/// LIFO order by scoping) and returns how many spans were opened.
fn random_span_tree(g: &mut Gen, writer: &fpn_repro::qec_obs::TraceWriter, depth: usize) -> usize {
    let mut opened = 0;
    for i in 0..g.usize_in(0..=3) {
        let mut span = fpn_repro::qec_obs::span_on(
            writer,
            &format!("prop.d{depth}.c{i}"),
            &[("depth", depth.into())],
        );
        opened += 1;
        if depth > 0 && g.bool(0.6) {
            opened += random_span_tree(g, writer, depth - 1);
        }
        if g.bool(0.3) {
            span.field("annotated", true);
        }
    }
    opened
}

#[test]
fn obs_trace_events_parse_with_balanced_span_nesting() {
    use fpn_repro::qec_obs::{validate_trace, Registry, TraceWriter};
    for_all(24, 0x0b53, |g| {
        let path = std::env::temp_dir().join(format!(
            "qec_obs_prop_{}_{}.jsonl",
            std::process::id(),
            g.u64(),
        ));
        let writer = TraceWriter::create(&path).expect("create isolated trace sink");
        let spans = random_span_tree(g, &writer, 3);
        // A metrics snapshot mid-stream must not upset span nesting.
        let registry = Registry::new();
        registry.counter("prop.count").add(g.u64() >> 32);
        registry
            .histogram("prop.hist")
            .record(g.u64() >> g.usize_in(0..=63));
        writer.emit_registry("prop", &registry.snapshot());
        let spans = spans + random_span_tree(g, &writer, 2);
        writer.flush();
        let text = std::fs::read_to_string(&path).expect("read trace back");
        let _ = std::fs::remove_file(&path);
        let summary =
            validate_trace(&text).expect("every emitted event must parse with balanced nesting");
        assert_eq!(summary.spans, spans, "one span per guard");
        assert_eq!(summary.metrics_snapshots, 1);
        assert_eq!(
            summary.events,
            2 * spans + 1,
            "enter+close per span, one snapshot"
        );
    });
}

#[test]
fn obs_registry_snapshot_roundtrips_through_json() {
    use fpn_repro::qec_obs::{JsonValue, Registry};
    for_all(32, 0x0b54, |g| {
        let registry = Registry::new();
        for i in 0..g.usize_in(1..=5) {
            registry.counter(&format!("c{i}")).add(g.u64() >> 8);
        }
        for i in 0..g.usize_in(0..=3) {
            registry.gauge(&format!("g{i}")).set(g.u64() >> 8);
        }
        for i in 0..g.usize_in(0..=2) {
            let h = registry.histogram(&format!("h{i}"));
            for _ in 0..g.usize_in(0..=16) {
                h.record(g.u64() >> g.usize_in(0..=63));
            }
        }
        let snap = registry.snapshot();
        let json = snap.to_json();
        let reparsed = JsonValue::parse(&json.to_string()).expect("snapshot JSON must parse");
        assert_eq!(reparsed, json, "snapshot JSON must round-trip exactly");
    });
}

// ---------------------------------------------------------------------------
// Incremental blossom tier: pool hygiene.
// ---------------------------------------------------------------------------

/// One `DecodeScratch` shared between an MWPM decoder (d=3 surface)
/// and a restriction decoder (toric color) across many shots: every
/// reused-pool decode must match a fresh-scratch decode bit for bit,
/// the dual certificate must hold after every shot that reached the
/// pooled solver (a shot of at most four defects with a unique
/// cheapest matching is decided by enumeration and leaves none), and
/// once the pools are warm a replay of the same shots must not grow
/// them.
#[test]
fn blossom_pool_reuse_is_clean_and_certified() {
    let dem = surface_memory_dem(3);
    let decoder = MwpmDecoder::new(&dem, MwpmConfig::unflagged());
    let (cdem, ctx, cpm) = toric_color_dem();
    let rdecoder = RestrictionDecoder::new(&cdem, ctx, RestrictionConfig::flagged(cpm));
    let q = mechanism_fire_probability(&dem, 8.0);
    let cq = mechanism_fire_probability(&cdem, 8.0);
    let mut scratch = DecodeScratch::new();
    let mut out = BitVec::zeros(0);
    let mut shots: Vec<(BitVec, BitVec)> = Vec::new();
    let mut certified = [0u32; 2];
    for_all(32, 0xb0551, |g| {
        let s = random_syndrome(g.rng(), &dem, q);
        let fresh = decoder.decode(&s);
        let solves = scratch.mwpm_blossom().epochs();
        decoder.decode_into(&s, &mut scratch, &mut out);
        assert_eq!(
            out, fresh,
            "reused blossom pool diverged from a fresh decode"
        );
        if scratch.mwpm_blossom().epochs() != solves {
            scratch
                .verify_blossom_certificates()
                .expect("dual feasibility after an MWPM decode");
            certified[0] += 1;
        }
        let cs = random_syndrome(g.rng(), &cdem, cq);
        let cfresh = rdecoder.decode(&cs);
        let solves = scratch.restriction_blossom().epochs();
        rdecoder.decode_into(&cs, &mut scratch, &mut out);
        assert_eq!(
            out, cfresh,
            "reused restriction pool diverged from a fresh decode"
        );
        if scratch.restriction_blossom().epochs() != solves {
            scratch
                .verify_blossom_certificates()
                .expect("dual feasibility after a restriction decode");
            certified[1] += 1;
        }
        shots.push((s, cs));
    });
    // At about eight fired mechanisms per shot, most shots have more
    // than four defects, so most certificates are still checked.
    assert!(
        certified.iter().all(|&c| c >= 24),
        "certified shots {certified:?} of 32"
    );
    // Both decoders actually routed their matchings through the pooled
    // tier, and the shared scratch saw both sides.
    assert!(decoder.stats().blossom_solves > 0);
    assert!(rdecoder.stats().blossom_solves > 0);
    assert!(scratch.mwpm_blossom().epochs() > 0);
    assert!(scratch.restriction_blossom().epochs() > 0);
    // Capacity growth is doubling, so a few generations cover every
    // instance these fixtures can produce.
    let gen_mwpm = scratch.mwpm_blossom().generations();
    let gen_restriction = scratch.restriction_blossom().generations();
    assert!(gen_mwpm <= 8, "mwpm pool regrew too often: {gen_mwpm}");
    assert!(
        gen_restriction <= 8,
        "restriction pool regrew too often: {gen_restriction}"
    );
    let bytes_mwpm = scratch.mwpm_blossom().memory_bytes();
    let bytes_restriction = scratch.restriction_blossom().memory_bytes();
    // Replaying the exact same shots through the warmed pools must not
    // allocate: no instance can exceed its own earlier high-water mark.
    for (s, cs) in &shots {
        decoder.decode_into(s, &mut scratch, &mut out);
        rdecoder.decode_into(cs, &mut scratch, &mut out);
    }
    assert_eq!(
        scratch.mwpm_blossom().generations(),
        gen_mwpm,
        "replay regrew the warmed mwpm pool"
    );
    assert_eq!(
        scratch.restriction_blossom().generations(),
        gen_restriction,
        "replay regrew the warmed restriction pool"
    );
    assert_eq!(scratch.mwpm_blossom().memory_bytes(), bytes_mwpm);
    assert_eq!(
        scratch.restriction_blossom().memory_bytes(),
        bytes_restriction
    );
}

/// The matching routes through the public API: the default unflagged
/// decoder with the dense oracle admitted (limit 2048: every shot
/// priced by the oracle, complete instance) and with it disabled
/// (limit 0: every shot grown on the CSR graph) must decode realistic
/// multi-error syndromes identically on the d=3 surface and hyperbolic
/// DEMs.
#[test]
fn matching_routes_agree_on_realistic_dems() {
    let mut scratch = DecodeScratch::new();
    let mut out = BitVec::zeros(0);
    for (dem, cases, seed) in [
        (surface_memory_dem(3), 32u64, 0x5b9d3u64),
        (hyperbolic_memory_dem(), 10, 0x5b94),
    ] {
        let oracle = MwpmDecoder::new(&dem, MwpmConfig::unflagged().with_oracle_node_limit(2048));
        let routed = MwpmDecoder::new(&dem, MwpmConfig::unflagged().with_oracle_node_limit(0));
        assert!(oracle.path_oracle().is_some() && routed.path_oracle().is_none());
        let q = mechanism_fire_probability(&dem, 6.0);
        for_all(cases, seed, |g| {
            let syndrome = random_syndrome(g.rng(), &dem, q);
            let reference = oracle.decode(&syndrome);
            routed.decode_into(&syndrome, &mut scratch, &mut out);
            assert_eq!(out, reference, "CSR routes diverged from the oracle");
        });
        assert_eq!(oracle.stats().sparse_blossom, 0);
        assert!(routed.stats().sparse_blossom > 0);
    }
}

/// Every matching-decoder shot with a check defect advances exactly
/// one tier counter (`oracle_hits` or `sparse_blossom`; the retired
/// `sparse_hits` stays 0), and every MWPM complete instance (an
/// `oracle_hits` shot; no fixture here has an odd one, which would run
/// no solver) exactly one solver counter (`decode.tier.enumerated` or
/// `blossom_solves`),
/// on the flagged shared-flag hyperbolic FPN (every shot reweighted,
/// many defects: the graph-native route), the d=3 surface DEM with and
/// without its oracle, the d=5 surface DEM (the oracle serves every
/// shot) and the restriction decoder's lattices with and without their
/// oracles (with them, an unflagged shot is an oracle hit on every
/// lattice). Each decoder's stats and `decode.tier.enumerated` after
/// its 24 shots are pinned, so a change to how shots are routed or
/// counted shows here.
#[test]
fn tier_counters_count_each_decoded_shot_once() {
    // Pinned DecoderStats (decodes, oracle_hits, sparse_hits,
    // sparse_blossom, blossom_solves, giveups_unmatched; every other
    // field is 0) and decode.tier.enumerated.
    let assert_pinned = |i: usize, decoder: &dyn Decoder, pinned: [u64; 7]| {
        let stats = DecoderStats {
            decodes: pinned[0],
            oracle_hits: pinned[1],
            sparse_hits: pinned[2],
            sparse_blossom: pinned[3],
            blossom_solves: pinned[4],
            giveups_unmatched: pinned[5],
            ..DecoderStats::default()
        };
        let registry = decoder
            .metrics()
            .expect("matching decoders keep a registry");
        let enumerated = registry.snapshot().counter("decode.tier.enumerated");
        assert_eq!(
            (decoder.stats(), enumerated),
            (stats, pinned[6]),
            "decoder {i}"
        );
    };
    let hyperbolic = hyperbolic_surface_code(&SURFACE_REGISTRY[2]).expect("registry code builds");
    let (hdem, hpm) = shared_flag_experiment(&hyperbolic, 1e-3);
    let d3 = surface_memory_dem(3);
    let d5 = surface_memory_dem(5);
    let decoders = [
        (&hdem, MwpmConfig::flagged(hpm), [24, 0, 0, 24, 0, 0, 0]),
        (&d3, MwpmConfig::unflagged(), [24, 24, 0, 0, 17, 0, 7]),
        (
            &d3,
            MwpmConfig::unflagged().with_oracle_node_limit(0),
            [24, 0, 0, 24, 0, 0, 0],
        ),
        (&d5, MwpmConfig::unflagged(), [24, 24, 0, 0, 22, 0, 2]),
    ];
    let mut scratch = DecodeScratch::new();
    let mut out = BitVec::zeros(0);
    let mut blossom_shots = Vec::new();
    let mut enumerated_shots = Vec::new();
    for (i, (dem, config, pinned)) in decoders.into_iter().enumerate() {
        let decoder = MwpmDecoder::new(dem, config);
        let q = mechanism_fire_probability(dem, 6.0);
        let mut empty = 0;
        for_all(24, 0x71e5 + i as u64, |g| {
            let syndrome = random_syndrome(g.rng(), dem, q);
            empty += u64::from(decoder.hypergraph().split_shot(&syndrome).0.is_empty());
            decoder.decode_into(&syndrome, &mut scratch, &mut out);
        });
        let s = decoder.stats();
        assert_eq!(
            s.oracle_hits + s.sparse_blossom,
            s.decodes - empty,
            "decoder {i}: {s:?}"
        );
        // Every complete instance is decided once: by enumeration, or
        // by the pooled solver.
        let enumerated = decoder
            .metrics()
            .expect("matching decoders keep a registry")
            .snapshot()
            .counter("decode.tier.enumerated");
        assert_eq!(
            s.blossom_solves + enumerated,
            s.oracle_hits,
            "decoder {i}: {s:?}"
        );
        assert_pinned(i, &decoder, pinned);
        blossom_shots.push(s.sparse_blossom);
        enumerated_shots.push(enumerated);
    }
    assert!(blossom_shots[0] > 0, "hyperbolic shots go graph-native");
    assert!(blossom_shots[2] > 0, "oracle-less d=3 grows its shots");
    assert_eq!(blossom_shots[3], 0, "the oracle serves every d=5 shot");
    assert!(
        enumerated_shots[1] > 0 && enumerated_shots[3] > 0,
        "small oracle shots are enumerated: {enumerated_shots:?}"
    );

    let (dem, ctx, pm) = toric_color_dem();
    let q = mechanism_fire_probability(&dem, 12.0);
    let flagged = RestrictionConfig::flagged(pm);
    for (i, config, pinned) in [
        (
            4,
            flagged.with_oracle_node_limit(0),
            [24, 0, 0, 24, 0, 0, 0],
        ),
        (5, flagged, [24, 24, 0, 0, 72, 0, 0]),
    ] {
        let decoder = RestrictionDecoder::new(&dem, ctx.clone(), config);
        let mut empty = 0;
        for_all(24, 0x71e0, |g| {
            let syndrome = random_syndrome(g.rng(), &dem, q);
            empty += u64::from(decoder.hypergraph().split_shot(&syndrome).0.is_empty());
            decoder.decode_into(&syndrome, &mut scratch, &mut out);
        });
        let s = decoder.stats();
        assert_eq!(
            s.oracle_hits + s.sparse_blossom,
            s.decodes - empty,
            "decoder {i}: {s:?}"
        );
        assert_pinned(i, &decoder, pinned);
    }
}

/// The CSR matching pools must stop growing once the scratch is warm:
/// replaying the same shots through a warmed `DecodeScratch` may not
/// regrow the node arrays or raise the hop-pool high water.
#[test]
fn csr_match_pools_are_stable_after_warmup() {
    let dem = surface_memory_dem(3);
    // Limit 0 drops the dense oracle, so every shot is matched on the
    // CSR graph.
    let decoder = MwpmDecoder::new(&dem, MwpmConfig::unflagged().with_oracle_node_limit(0));
    assert!(decoder.sparse_finder().is_some());
    let q = mechanism_fire_probability(&dem, 8.0);
    let mut scratch = DecodeScratch::new();
    let mut out = BitVec::zeros(0);
    let mut shots: Vec<BitVec> = Vec::new();
    for_all(32, 0x3e30, |g| {
        let syndrome = random_syndrome(g.rng(), &dem, q);
        decoder.decode_into(&syndrome, &mut scratch, &mut out);
        shots.push(syndrome);
    });
    let pools = |sc: &DecodeScratch| {
        let csr = sc.mwpm_sparse_blossom();
        (csr.generations(), csr.high_water_hops(), csr.shots())
    };
    let (generations, hops, warm_shots) = pools(&scratch);
    assert!(hops > 0, "CSR decodes must harvest path hops");
    for syndrome in &shots {
        decoder.decode_into(syndrome, &mut scratch, &mut out);
    }
    assert_eq!(
        pools(&scratch),
        (generations, hops, 2 * warm_shots),
        "replaying warmed shots regrew the CSR matching pools"
    );
}

// ---------------------------------------------------------------------------
// BP+OSD substrate: the pooled GF(2) elimination kernel and the BP
// message-update determinism contract.
// ---------------------------------------------------------------------------

/// Loads `(m, b)` into `elim` as a fresh system.
fn load_system(elim: &mut fpn_repro::qec_math::EliminationScratch, m: &BitMatrix, b: &BitVec) {
    elim.begin(m.rows(), m.cols());
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            if m.get(r, c) {
                elim.set(r, c);
            }
        }
        if b.get(r) {
            elim.set_rhs(r);
        }
    }
}

/// The pooled elimination kernel against the allocating `gf2`
/// reference: same rank, same consistency verdict, and a
/// solve-then-verify roundtrip (`M·x == b`) on every consistent
/// system — through one *shared* scratch across all cases, pinned
/// equal to a fresh scratch per case.
#[test]
fn elimination_scratch_matches_gf2_and_roundtrips() {
    let mut shared = fpn_repro::qec_math::EliminationScratch::new();
    for_all(64, 0xe11a, |g| {
        let m = gen_matrix(g, 10, 12);
        let b = gen_bitvec(g, m.rows());
        let order: Vec<u32> = (0..m.cols() as u32).collect();
        load_system(&mut shared, &m, &b);
        let rank = shared.eliminate(&order);
        assert_eq!(rank, gf2::rank(&m), "pooled rank disagrees with gf2");
        assert_eq!(
            shared.consistent(),
            gf2::solve(&m, &b).is_some(),
            "consistency verdict disagrees with gf2::solve"
        );
        if shared.consistent() {
            let mut x = BitVec::zeros(0);
            shared.solution_into(&mut x);
            assert_eq!(m.mul_vec(&x), b, "solution fails to reproduce rhs");
        }
        let mut fresh = fpn_repro::qec_math::EliminationScratch::new();
        load_system(&mut fresh, &m, &b);
        assert_eq!(fresh.eliminate(&order), rank);
        assert_eq!(fresh.pivot_cols(), shared.pivot_cols());
        for r in 0..m.rows() {
            assert_eq!(fresh.row(r), shared.row(r), "stale scratch state leaked");
            assert_eq!(fresh.rhs_bit(r), shared.rhs_bit(r));
        }
    });
}

/// Row reduction is idempotent: re-eliminating an already-reduced
/// system (same column order) reproduces the identical reduced rows,
/// rhs, rank and pivot set.
#[test]
fn elimination_is_idempotent_on_reduced_systems() {
    let mut first = fpn_repro::qec_math::EliminationScratch::new();
    let mut second = fpn_repro::qec_math::EliminationScratch::new();
    for_all(64, 0x1de3, |g| {
        let m = gen_matrix(g, 10, 12);
        let b = gen_bitvec(g, m.rows());
        let order: Vec<u32> = (0..m.cols() as u32).collect();
        load_system(&mut first, &m, &b);
        let rank = first.eliminate(&order);

        second.begin(m.rows(), m.cols());
        for r in 0..m.rows() {
            for c in first.row(r).iter_ones() {
                second.set(r, c);
            }
            if first.rhs_bit(r) {
                second.set_rhs(r);
            }
        }
        assert_eq!(
            second.eliminate(&order),
            rank,
            "rank changed on re-reduction"
        );
        assert_eq!(second.pivot_cols(), first.pivot_cols());
        for r in 0..m.rows() {
            assert_eq!(second.row(r), first.row(r), "row {r} not a fixed point");
            assert_eq!(second.rhs_bit(r), first.rhs_bit(r));
        }
    });
}

/// Rank, the pivot-column set (lexicographically first independent
/// columns, a row-order-free invariant) and the consistency verdict
/// survive any row permutation; the shuffled system's solution still
/// solves the *original* system.
#[test]
fn elimination_rank_and_pivots_invariant_under_row_shuffles() {
    let mut base = fpn_repro::qec_math::EliminationScratch::new();
    let mut shuffled = fpn_repro::qec_math::EliminationScratch::new();
    for_all(64, 0x5487, |g| {
        let m = gen_matrix(g, 10, 12);
        let b = gen_bitvec(g, m.rows());
        let order: Vec<u32> = (0..m.cols() as u32).collect();
        load_system(&mut base, &m, &b);
        let rank = base.eliminate(&order);

        let mut perm: Vec<usize> = (0..m.rows()).collect();
        for i in (1..perm.len()).rev() {
            let j = g.usize_in(0..=i);
            perm.swap(i, j);
        }
        shuffled.begin(m.rows(), m.cols());
        for (r, &src) in perm.iter().enumerate() {
            for c in 0..m.cols() {
                if m.get(src, c) {
                    shuffled.set(r, c);
                }
            }
            if b.get(src) {
                shuffled.set_rhs(r);
            }
        }
        assert_eq!(
            shuffled.eliminate(&order),
            rank,
            "rank not shuffle-invariant"
        );
        assert_eq!(
            shuffled.pivot_cols(),
            base.pivot_cols(),
            "pivot columns not shuffle-invariant"
        );
        assert_eq!(shuffled.consistent(), base.consistent());
        if shuffled.consistent() {
            let mut x = BitVec::zeros(0);
            shuffled.solution_into(&mut x);
            assert_eq!(m.mul_vec(&x), b, "shuffled solution fails original system");
        }
    });
}

/// BP message updates are deterministic under scratch reuse: a warm
/// shared scratch, a fresh scratch and the allocating `decode` path
/// must produce bitwise-identical corrections on the same syndrome —
/// and after warmup the pooled BP+OSD buffers must stop growing
/// (`osd_always` keeps the elimination pool on the hot path).
#[test]
fn bp_osd_scratch_reuse_is_bitwise_deterministic() {
    let dem = surface_memory_dem(3);
    let decoder = BpOsdDecoder::new(&dem, BpOsdConfig::unflagged().with_osd_always(true));
    let q = mechanism_fire_probability(&dem, 8.0);
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xb9de);
    let mut shared = DecodeScratch::new();
    let mut out = BitVec::zeros(0);
    for _ in 0..16 {
        let s = random_syndrome(&mut rng, &dem, q);
        decoder.decode_into(&s, &mut shared, &mut out);
    }
    let generations = shared.bp_osd_generations();
    let high_water = shared.bp_osd_high_water_bytes();
    assert!(high_water > 0, "warmup must have exercised the OSD pool");
    let mut out_fresh = BitVec::zeros(0);
    for _ in 0..64 {
        let s = random_syndrome(&mut rng, &dem, q);
        decoder.decode_into(&s, &mut shared, &mut out);
        let mut fresh = DecodeScratch::new();
        decoder.decode_into(&s, &mut fresh, &mut out_fresh);
        assert_eq!(out, out_fresh, "warm scratch diverged from fresh scratch");
        assert_eq!(out, decoder.decode(&s), "decode_into diverged from decode");
    }
    assert_eq!(
        shared.bp_osd_generations(),
        generations,
        "BP+OSD pools regrew after warmup"
    );
    assert_eq!(shared.bp_osd_high_water_bytes(), high_water);
}
