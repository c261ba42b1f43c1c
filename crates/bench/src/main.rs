//! Plain-timing component benchmarks.
//!
//! Replaces the former Criterion harness with `std::time::Instant`
//! wall-clock timing so the workspace needs no external dependencies.
//! Each component emits exactly one JSON line on stdout, built with
//! [`qec_obs::Record`] so the same record also lands in the structured
//! trace when tracing is enabled:
//!
//! ```json
//! {"bench_schema":2,"component":"frame_sampler_batched_d5","shots":0,"reps":1,"total_ns":...,"per_iter_ns":...}
//! ```
//!
//! Every record starts with the shared header (see [`header`]):
//! `bench_schema` (layout version), `component`, `shots` (workload
//! size; 0 when the component has no per-shot workload) and `reps`
//! (timing repetitions).
//!
//! Headline measurements:
//!
//! * the batched Pauli-frame sampler against the scalar per-shot loop
//!   on the d=5 rotated surface code (10× target);
//! * per-stage BER-loop timings (`sample_ns` / `decode_ns` /
//!   `compare_ns`) for every decoder on its reference workload
//!   (`ber_stages_*` lines);
//! * the scratch-reusing Union-Find `decode_into` hot path against its
//!   allocating per-shot baseline (2× target, bit-identical output);
//! * the precomputed-path-oracle MWPM hot path against the sparse
//!   path tier (ungated speedup, bit-identical output), plus the
//!   oracle construction cost itself;
//! * the two CSR matching routes on the hyperbolic fixture: the
//!   graph-native sparse blossom (truncated nearest-neighbour
//!   discovery + dual-ball certification) against the complete
//!   defect-pair instance, per defect-count bucket (2× target over all
//!   shots, identical matching weight);
//! * the qec-obs instrumentation overhead on the fastest decode hot
//!   path (per-batch spans + histogram vs. nothing, 10% ceiling,
//!   bit-identical output);
//! * the live-telemetry overhead on the same hot path: the windowed
//!   recording (heartbeats, queue-depth/queue-wait/e2e window samples)
//!   the qec-serve worker adds per request vs. the bare decode loop,
//!   same 10% ceiling (`pass_telemetry_overhead`), bit-identical
//!   output;
//! * the qec-serve streaming service on the hyperbolic fixture:
//!   sustained shots/sec through a 4-shard bounded-queue service with
//!   p50/p99/p999 end-to-end request latency read from the
//!   `serve.e2e_ns` qec-obs histogram, bit-identical to offline
//!   `decode_into` (`pass_serve`);
//! * the BP+OSD hypergraph tier against MWPM on the identical
//!   hyperbolic DEM: logical failures on ground-truth shots plus
//!   per-shot `decode_into` latency for both decoders, gated
//!   (`pass_bp_osd`) on the hard invariant that **every** BP+OSD
//!   correction exactly reproduces its syndrome.
//!
//! Run with `cargo run --release -p qec-bench`; pass `--shots 1000`
//! for the quick CI configuration (default 10 000), `--out <path>` to
//! redirect the JSON artifact (default `BENCH_<PR>.json` at the repo
//! root) and `--trace <path>` to write a qec-obs JSON-lines trace of
//! the run (`QEC_OBS=1` works too; see DESIGN.md).

use fpn_core::prelude::*;
use qec_bench::{memory_experiment, small_fpn, small_hyperbolic_code};
use qec_group::{enumerate_cosets, von_dyck};
use qec_math::graph::matching::min_weight_perfect_matching;
use qec_math::rng::{Rng, Xoshiro256StarStar};
use qec_math::BitVec;
use qec_obs::{Record, Registry};
use qec_serve::{DecodeService, PendingResponse, ServeConfig, SubmitError};
use qec_sim::FrameBatch;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every record emitted so far, replayed into the JSON artifact at the
/// end of the run.
static RECORDS: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Schema version stamped on every record and on the artifact header.
/// Bump whenever record field names or semantics change so downstream
/// tooling can gate on the layout instead of sniffing fields.
/// Version 2 introduced the shared header (`bench_schema` / `shots` /
/// `reps` on every record; the generic timer's `iters` field became
/// `reps`).
const BENCH_SCHEMA: u32 = 2;

/// The shared record header every bench line starts from: schema
/// version, component name, workload size (`shots`; 0 when the
/// component has no per-shot workload) and timing repetitions
/// (`reps`; 1 for single-pass measurements, N for min-of-N
/// interleaved loops).
fn header(component: &str, shots: usize, reps: usize) -> Record {
    Record::new()
        .field("bench_schema", BENCH_SCHEMA)
        .field("component", component)
        .field("shots", shots)
        .field("reps", reps)
}

/// Prints one JSON record line, keeps it for the JSON artifact, and
/// mirrors it into the qec-obs trace (as a `bench_record` event) when
/// tracing is enabled.
fn emit(record: Record) {
    let line = record.to_line();
    println!("{line}");
    qec_obs::emit_record("bench_record", &record);
    RECORDS.lock().unwrap().push(line);
}

/// Rounds to one decimal place, matching the old `{:.1}` formatting of
/// ratio fields (shortest-roundtrip `f64` display then prints e.g.
/// `11.3` rather than 17 digits).
fn round1(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}

/// Writes every emitted record to `out` (default `BENCH_<PR>.json` at
/// the repo root, resolved from the crate manifest so the artifact
/// lands in the same place regardless of the invocation directory).
fn write_bench_json(out: Option<&str>, shots: usize) {
    const PR: u32 = 10;
    let records = RECORDS.lock().unwrap();
    let body = records
        .iter()
        .map(|r| format!("    {r}"))
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"pr\": {PR},\n  \"bench_schema\": {BENCH_SCHEMA},\n  \"shots\": {shots},\n  \"records\": [\n{body}\n  ]\n}}\n"
    );
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_", "10", ".json");
    let path = out.unwrap_or(default_path);
    std::fs::write(path, json).expect("write BENCH json artifact");
    eprintln!("wrote {path}");
}

/// Times `iters` runs of `f` under a `bench.component` span, keeping a
/// liveness checksum so the work cannot be optimized away, and emits
/// one JSON line.
fn bench(component: &str, iters: usize, mut f: impl FnMut() -> usize) -> u128 {
    let _span = qec_obs::span_with("bench.component", &[("component", component.into())]);
    let start = Instant::now();
    let mut checksum = 0usize;
    for _ in 0..iters {
        checksum = checksum.wrapping_add(f());
    }
    let total_ns = start.elapsed().as_nanos();
    emit(
        header(component, 0, iters)
            .field("total_ns", total_ns)
            .field("per_iter_ns", total_ns / iters.max(1) as u128)
            .field("checksum", checksum),
    );
    total_ns
}

/// Pre-samples `shots` syndromes that actually fire detectors, using
/// per-batch forked RNG streams from `seed` (the shared workload setup
/// for the decode-path speedup benches).
fn collect_nonzero_syndromes(circuit: &Circuit, shots: usize, seed: u64) -> Vec<BitVec> {
    let sampler = FrameSampler::new(circuit);
    let mut scratch = FrameBatch::new();
    let mut syndromes = Vec::new();
    let mut b = 0u64;
    while syndromes.len() < shots && b < 4 * shots.div_ceil(64) as u64 + 64 {
        let mut rng = Xoshiro256StarStar::from_seed_stream(seed, b);
        b += 1;
        let batch = sampler.sample_batch_with(&mut scratch, &mut rng);
        for s in 0..64 {
            let d = batch.detector_bits(s);
            if !d.is_zero() {
                syndromes.push(d);
                if syndromes.len() == shots {
                    break;
                }
            }
        }
    }
    syndromes
}

fn bench_blossom() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(40);
    for &n in &[16usize, 40] {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                edges.push((u, v, rng.gen_range(1..1000i64)));
            }
        }
        bench(&format!("blossom_mwpm_complete_k{n}"), 20, || {
            min_weight_perfect_matching(n, &edges).unwrap().weight as usize
        });
    }
}

/// Batched vs. per-shot sampling on the d=5 planar code — the
/// acceptance measurement for the batched engine.
fn bench_sampling(shots: usize) {
    let code = rotated_surface_code(5);
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
    let exp = memory_experiment(&code, &fpn, 1e-3);
    let sampler = FrameSampler::new(&exp.circuit);
    let batches = shots.div_ceil(64);

    let mut scratch = FrameBatch::new();
    let mut rng = Xoshiro256StarStar::seed_from_u64(7);
    let batched_ns = bench("frame_sampler_batched_d5", 1, || {
        let mut fired = 0usize;
        for b in 0..batches {
            let mut rng_b = rng.fork(b as u64);
            let batch = sampler.sample_batch_with(&mut scratch, &mut rng_b);
            fired += batch
                .detectors
                .iter()
                .map(|m| m.count_ones() as usize)
                .sum::<usize>();
        }
        fired
    });

    let mut rng = Xoshiro256StarStar::seed_from_u64(7);
    let scalar_ns = bench("frame_sampler_per_shot_d5", 1, || {
        let mut fired = 0usize;
        for _ in 0..batches * 64 {
            fired += sampler.sample_shot(&mut rng).detectors.weight();
        }
        fired
    });

    let speedup = scalar_ns as f64 / batched_ns.max(1) as f64;
    emit(
        header("frame_sampler_speedup_batched_vs_per_shot", batches * 64, 1)
            .field("speedup", round1(speedup))
            .field("pass_10x", speedup >= 10.0),
    );
}

fn bench_dem() {
    let code = small_hyperbolic_code();
    let fpn = small_fpn(&code);
    let exp = memory_experiment(&code, &fpn, 1e-3);
    bench("dem_hyperbolic_30_fpn", 5, || {
        DetectorErrorModel::from_circuit(&exp.circuit)
            .mechanisms()
            .len()
    });
}

fn bench_decoding() {
    let code = small_hyperbolic_code();
    let fpn = small_fpn(&code);
    let noise = NoiseModel::new(1e-3);
    let exp = memory_experiment(&code, &fpn, 1e-3);
    let pipeline = DecodingPipeline::new(&code, &exp, DecoderKind::FlaggedMwpm, &noise);
    let sampler = FrameSampler::new(&exp.circuit);
    let mut rng = Xoshiro256StarStar::seed_from_u64(11);
    // Pre-sample shots that actually fire detectors.
    let mut shots = Vec::new();
    while shots.len() < 256 {
        let batch = sampler.sample_batch(&mut rng);
        for s in 0..64 {
            let d = batch.detector_bits(s);
            if !d.is_zero() {
                shots.push(d);
            }
        }
    }
    let mut i = 0usize;
    bench("flagged_mwpm_decode_shot", 256, || {
        let shot = &shots[i % shots.len()];
        i += 1;
        pipeline.decoder().decode(shot).weight()
    });
}

/// Runs the `run_ber` worker loop single-threaded against `decoder`,
/// timing each stage separately, and emits one JSON line:
/// `sample_ns` (batch sampling + bit extraction of the shots that fired
/// a detector), `decode_ns` (only those shots reach the decoder) and
/// `compare_ns` (prediction vs. actual observables, plus settling the
/// empty shots from the batch masks), all cumulative,
/// plus `decode_ns_per_shot` averaged over the decoded shots and the
/// decoder's give-up and path-tier counts for the run (attributed via
/// `DecoderStats::delta`, so a shared metrics registry does not bleed
/// earlier runs into this one).
fn stage_timings(
    workload: &str,
    name: &str,
    circuit: &Circuit,
    decoder: &dyn Decoder,
    shots: usize,
) {
    let _span = qec_obs::span_with(
        "bench.ber_stages",
        &[("workload", workload.into()), ("decoder", name.into())],
    );
    let sampler = FrameSampler::new(circuit);
    let batches = shots.div_ceil(64);
    let mut scratch = FrameBatch::new();
    let mut decode_scratch = DecodeScratch::new();
    let mut dets = BitVec::zeros(0);
    let mut actual = BitVec::zeros(0);
    let mut predicted = BitVec::zeros(0);
    let (mut sample_ns, mut decode_ns, mut compare_ns) = (0u128, 0u128, 0u128);
    let mut failures = 0usize;
    let mut decoded = 0usize;
    let stats_before = decoder.stats();
    for b in 0..batches {
        let mut rng = Xoshiro256StarStar::from_seed_stream(17, b as u64);
        let t = Instant::now();
        let batch = sampler.sample_batch_with(&mut scratch, &mut rng);
        sample_ns += t.elapsed().as_nanos();
        // `run_ber`'s empty-shot skip: empty shots are settled from the
        // batch masks, only fired shots are extracted and decoded.
        let t = Instant::now();
        let fired = batch.fired_shots();
        failures += (batch.flipped_shots() & !fired).count_ones() as usize;
        compare_ns += t.elapsed().as_nanos();
        let mut pending = fired;
        while pending != 0 {
            let shot = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            let t = Instant::now();
            batch.observable_bits_into(shot, &mut actual);
            batch.detector_bits_into(shot, &mut dets);
            sample_ns += t.elapsed().as_nanos();
            let t = Instant::now();
            decoder.decode_into(&dets, &mut decode_scratch, &mut predicted);
            decode_ns += t.elapsed().as_nanos();
            decoded += 1;
            let t = Instant::now();
            if predicted != actual {
                failures += 1;
            }
            compare_ns += t.elapsed().as_nanos();
        }
    }
    let delta = decoder.stats().delta(&stats_before);
    emit(
        header(&format!("ber_stages_{workload}"), batches * 64, 1)
            .field("decoder", name)
            .field("decoded", decoded)
            .field("failures", failures)
            .field("sample_ns", sample_ns)
            .field("decode_ns", decode_ns)
            .field("compare_ns", compare_ns)
            .field("decode_ns_per_shot", decode_ns / decoded.max(1) as u128)
            .field("giveups", delta.giveups())
            .field("oracle_hits", delta.oracle_hits)
            .field("sparse_hits", delta.sparse_hits)
            .field("oracle_misses", delta.oracle_misses),
    );
}

/// Per-stage BER timings of every decoder on its reference workload:
/// the three surface-code decoders on the d=5 planar memory experiment
/// and the restriction decoder on the 2-round toric color-code one.
fn bench_ber_stages(shots: usize) {
    let code = rotated_surface_code(5);
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
    let exp = memory_experiment(&code, &fpn, 1e-3);
    let dem = DetectorErrorModel::from_circuit(&exp.circuit);
    let pm = NoiseModel::new(1e-3).measurement_flip();
    let decoders: Vec<(&str, Box<dyn Decoder>)> = vec![
        (
            "plain_mwpm",
            Box::new(MwpmDecoder::new(&dem, MwpmConfig::unflagged())),
        ),
        (
            "flagged_mwpm",
            Box::new(MwpmDecoder::new(&dem, MwpmConfig::flagged(pm))),
        ),
        (
            "unionfind",
            Box::new(UnionFindDecoder::new(&dem, UnionFindConfig::unflagged())),
        ),
    ];
    for (name, decoder) in &decoders {
        stage_timings("d5_surface", name, &exp.circuit, decoder.as_ref(), shots);
    }

    let code = toric_color_code(2).expect("toric color code builds");
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
    let noise = NoiseModel::new(5e-4);
    let exp = build_memory_circuit(&code, &fpn, Some(&noise), 2, Basis::Z);
    let pipeline = DecodingPipeline::new(&code, &exp, DecoderKind::FlaggedRestriction, &noise);
    stage_timings(
        "toric_color",
        "flagged_restriction",
        &exp.circuit,
        pipeline.decoder(),
        shots,
    );
}

/// The batched Union-Find hot path against its own per-shot baseline
/// on the d=5 surface-code BER workload: same pre-extracted nonzero
/// syndromes through `decode` (allocating, full-edge scans) and
/// `decode_into` (scratch-reusing, frontier growth). The acceptance
/// target is a ≥ 2× lower decode time per shot, with bit-identical
/// corrections.
fn bench_unionfind_speedup(shots: usize) {
    let _span = qec_obs::span("bench.unionfind_speedup");
    let code = rotated_surface_code(5);
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
    let exp = memory_experiment(&code, &fpn, 1e-3);
    let dem = DetectorErrorModel::from_circuit(&exp.circuit);
    let decoder = UnionFindDecoder::new(&dem, UnionFindConfig::unflagged());
    let syndromes = collect_nonzero_syndromes(&exp.circuit, shots, 123);
    // Correctness first (untimed): both paths must agree bit-for-bit.
    let mut ds = DecodeScratch::new();
    let mut out = BitVec::zeros(0);
    let mut identical = true;
    for d in &syndromes {
        decoder.decode_into(d, &mut ds, &mut out);
        if out != decoder.decode(d) {
            identical = false;
        }
    }
    let mut checksum = 0usize;
    let t = Instant::now();
    for d in &syndromes {
        checksum = checksum.wrapping_add(decoder.decode(d).weight());
    }
    let per_shot_ns = t.elapsed().as_nanos();
    let mut batched_checksum = 0usize;
    let t = Instant::now();
    for d in &syndromes {
        decoder.decode_into(d, &mut ds, &mut out);
        batched_checksum = batched_checksum.wrapping_add(out.weight());
    }
    let batched_ns = t.elapsed().as_nanos();
    let n = syndromes.len().max(1) as u128;
    let speedup = per_shot_ns as f64 / batched_ns.max(1) as f64;
    emit(
        header("unionfind_decode_into_speedup_d5", syndromes.len(), 1)
            .field("per_shot_decode_ns", per_shot_ns / n)
            .field("batched_decode_ns", batched_ns / n)
            .field("speedup", round1(speedup))
            .field("pass_2x", speedup >= 2.0)
            .field("identical", identical && checksum == batched_checksum)
            .field("checksum", checksum),
    );
}

/// The oracle-backed MWPM `decode_into` hot path against the sparse
/// path tier (`oracle_node_limit = 0`) on the d=5 surface BER
/// workload: identical pre-extracted nonzero syndromes through both
/// decoders, corrections required bit-identical. The speedup is the
/// evidence for keeping the dense tier; it is reported without a gate
/// until its threshold has been measured. Oracle construction cost is
/// reported separately (it is paid once per DEM, amortized over every
/// shot of every `run_ber` worker).
fn bench_mwpm_oracle_speedup(shots: usize) {
    let _span = qec_obs::span("bench.mwpm_oracle_speedup");
    let code = rotated_surface_code(5);
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
    let exp = memory_experiment(&code, &fpn, 1e-3);
    let dem = DetectorErrorModel::from_circuit(&exp.circuit);

    let t = Instant::now();
    let oracle_decoder = MwpmDecoder::new(&dem, MwpmConfig::unflagged());
    let construct_oracle_ns = t.elapsed().as_nanos();
    let t = Instant::now();
    let sparse_decoder = MwpmDecoder::new(&dem, MwpmConfig::unflagged().with_oracle_node_limit(0));
    let construct_sparse_ns = t.elapsed().as_nanos();
    let oracle = oracle_decoder
        .path_oracle()
        .expect("d=5 surface graph fits the default oracle node limit");
    emit(
        header("mwpm_oracle_construction_d5", 0, 1)
            .field("construct_with_oracle_ns", construct_oracle_ns)
            .field("construct_sparse_ns", construct_sparse_ns)
            .field("oracle_nodes", oracle.num_nodes())
            .field("oracle_bytes", oracle.memory_bytes()),
    );

    let syndromes = collect_nonzero_syndromes(&exp.circuit, shots, 321);
    // Correctness first (untimed): both tiers must agree bit-for-bit.
    let mut ds = DecodeScratch::new();
    let mut out = BitVec::zeros(0);
    let mut reference = BitVec::zeros(0);
    let mut identical = true;
    for d in &syndromes {
        oracle_decoder.decode_into(d, &mut ds, &mut out);
        sparse_decoder.decode_into(d, &mut ds, &mut reference);
        if out != reference {
            identical = false;
        }
    }
    let mut sparse_checksum = 0usize;
    let t = Instant::now();
    for d in &syndromes {
        sparse_decoder.decode_into(d, &mut ds, &mut out);
        sparse_checksum = sparse_checksum.wrapping_add(out.weight());
    }
    let sparse_ns = t.elapsed().as_nanos();
    let mut oracle_checksum = 0usize;
    let t = Instant::now();
    for d in &syndromes {
        oracle_decoder.decode_into(d, &mut ds, &mut out);
        oracle_checksum = oracle_checksum.wrapping_add(out.weight());
    }
    let oracle_ns = t.elapsed().as_nanos();
    let stats = oracle_decoder.stats();
    let n = syndromes.len().max(1) as u128;
    let speedup = sparse_ns as f64 / oracle_ns.max(1) as f64;
    emit(
        header("mwpm_oracle_speedup_d5", syndromes.len(), 1)
            .field("sparse_decode_ns", sparse_ns / n)
            .field("oracle_decode_ns", oracle_ns / n)
            .field("speedup", round1(speedup))
            .field("identical", identical && oracle_checksum == sparse_checksum)
            .field("oracle_hits", stats.oracle_hits)
            .field("sparse_hits", sparse_decoder.stats().sparse_hits)
            .field("checksum", oracle_checksum),
    );
}

/// The two CSR matching routes on the same shots of the 1224-detector
/// {4,5} hyperbolic fixture at `p = 1e-3`, timed from public pieces:
/// the complete route prices every defect pair
/// ([`qec_decode::SparsePathFinder::matching_paths_into`]) and solves
/// the complete instance
/// ([`qec_decode::pooled_min_weight_perfect_matching_f64`]); the
/// graph-native route ([`qec_decode::sparse_graph_match`]) prices only
/// nearest neighbours and certifies the result. The gate
/// (`pass_sparse_blossom`) requires the graph-native route to be ≥ 2×
/// faster over all `p = 1e-3` shots (min of 5 interleaved repetitions),
/// and both routes must reach the same total matching weight on every
/// shot (`weights_equal`).
///
/// Every shot is also bucketed by defect count (≤ 4, 5–8, 9–16, > 16)
/// and each bucket reports ns/shot for both routes — the crossover
/// behind the engine's routing threshold (at ≤ 4 defects discovery
/// already prices every pair). Almost no `p = 1e-3` shot has fewer than
/// 9 defects, so a second draw of syndromes from the same fixture at
/// `p = 2e-4` (priced with the same `p = 1e-3` weights) fills the small
/// buckets; it does not enter the gate.
fn bench_mwpm_sparse_blossom_speedup(shots: usize) {
    use qec_decode::{
        pooled_min_weight_perfect_matching_f64, sparse_graph_match, BlossomScratch,
        SparseBlossomScratch, SparsePathScratch,
    };
    /// Upper defect count of each bucket, and its field suffix.
    const BUCKETS: [(usize, &str); 4] =
        [(4, "le4"), (8, "5_8"), (16, "9_16"), (usize::MAX, "gt16")];
    const REPS: usize = 5;
    let _span = qec_obs::span("bench.mwpm_sparse_blossom_speedup");
    let (_, exp, _) = qec_testkit::hyperbolic_memory_experiment_at(1e-3);
    let dem = DetectorErrorModel::from_circuit(&exp.circuit);
    let decoder = MwpmDecoder::new(&dem, MwpmConfig::unflagged());
    let finder = decoder.sparse_finder().expect("the fixture has vertices");
    let hypergraph = decoder.hypergraph();
    let num_check = hypergraph.num_check_detectors();
    // The MWPM decoding graph appends its boundary vertex after the checks.
    let boundary = (finder.num_nodes() > num_check).then_some(num_check);
    let weights = finder.class_weights();
    // `buckets[draw][b]`: draw 0 at p = 1e-3 (the gate), draw 1 at 2e-4.
    let (_, sparse_exp, _) = qec_testkit::hyperbolic_memory_experiment_at(2e-4);
    let mut buckets: [[Vec<Vec<usize>>; 4]; 2] = Default::default();
    for (draw, circuit) in [&exp.circuit, &sparse_exp.circuit].into_iter().enumerate() {
        for d in collect_nonzero_syndromes(circuit, shots, 321) {
            let (checks, _) = hypergraph.split_shot(&d);
            if !checks.is_empty() {
                let b = BUCKETS.iter().position(|&(hi, _)| checks.len() <= hi);
                buckets[draw][b.expect("last bucket is unbounded")].push(checks);
            }
        }
    }

    let (mut paths, mut complete_blossom) = (SparsePathScratch::new(), BlossomScratch::new());
    let (mut targets, mut edges) = (Vec::new(), Vec::new());
    let mut complete = |defects: &[usize]| {
        let s = defects.len();
        targets.clear();
        targets.extend_from_slice(defects);
        targets.extend(boundary);
        finder.matching_paths_into(defects, &targets, |c| weights[c], &mut paths);
        // The matching engine's instance: defect pairs and boundary legs
        // under its unreachable-edge filter, then the boundary clique.
        edges.clear();
        for i in 0..s {
            let legs = ((i + 1)..s).map(|j| (i, j, paths.dist(i, j)));
            let boundary_leg = boundary.map(|_| (i, s + i, paths.dist(i, s)));
            edges.extend(legs.chain(boundary_leg).filter(|e| e.2 < 1.0e8));
        }
        if boundary.is_some() {
            for i in 0..s {
                edges.extend(((i + 1)..s).map(|j| (s + i, s + j, 0.0)));
            }
        }
        let nodes = if boundary.is_some() { 2 * s } else { s };
        pooled_min_weight_perfect_matching_f64(nodes, &edges, &mut complete_blossom)
            .map(|m| m.weight())
    };
    let (mut sparse, mut graph_blossom) = (SparseBlossomScratch::new(), BlossomScratch::new());
    let mut pairs = Vec::new();
    let cw = |c: usize| weights[c];
    let mut graph = |defects: &[usize]| {
        sparse_graph_match(
            finder,
            defects,
            boundary,
            &cw,
            &mut sparse,
            &mut graph_blossom,
            &mut pairs,
        )
        .map(|o| o.weight)
    };

    // Correctness first (untimed): identical total weight on every shot.
    let mut weights_equal = true;
    let mut checksum = 0i64;
    for defects in buckets.iter().flatten().flatten() {
        let w = complete(defects);
        weights_equal &= graph(defects) == w;
        checksum = checksum.wrapping_add(w.unwrap_or(-1));
    }
    // Min-of-interleaved-reps per bucket: both routes see the same load
    // spikes, and the minima approximate unloaded steady state.
    let time = |route: &mut dyn FnMut(&[usize]) -> Option<i64>, shots: &[Vec<usize>]| {
        let t = Instant::now();
        for defects in shots {
            std::hint::black_box(route(defects));
        }
        t.elapsed().as_nanos()
    };
    let mut complete_ns = [[u128::MAX; 4]; 2];
    let mut graph_ns = [[u128::MAX; 4]; 2];
    for _ in 0..REPS {
        for (draw, draw_buckets) in buckets.iter().enumerate() {
            for (b, shots) in draw_buckets.iter().enumerate() {
                complete_ns[draw][b] = complete_ns[draw][b].min(time(&mut complete, shots));
                graph_ns[draw][b] = graph_ns[draw][b].min(time(&mut graph, shots));
            }
        }
    }
    let per_shot = |ns: u128, shots: usize| ns / shots.max(1) as u128;
    let n: usize = buckets[0].iter().map(Vec::len).sum();
    let complete_total: u128 = complete_ns[0].iter().sum();
    let graph_total: u128 = graph_ns[0].iter().sum();
    let speedup = complete_total as f64 / graph_total.max(1) as f64;
    let mut record = header("mwpm_sparse_blossom_speedup_hyperbolic", n, REPS)
        .field("complete_ns", per_shot(complete_total, n))
        .field("sparse_blossom_ns", per_shot(graph_total, n))
        .field("speedup", round1(speedup))
        .field("pass_sparse_blossom", speedup >= 2.0)
        .field("weights_equal", weights_equal);
    for (b, &(_, suffix)) in BUCKETS.iter().enumerate() {
        let shots = buckets[0][b].len() + buckets[1][b].len();
        let complete_b = complete_ns[0][b] + complete_ns[1][b];
        let graph_b = graph_ns[0][b] + graph_ns[1][b];
        record = record
            .field(&format!("shots_{suffix}"), shots)
            .field(
                &format!("complete_ns_{suffix}"),
                per_shot(complete_b, shots),
            )
            .field(
                &format!("sparse_blossom_ns_{suffix}"),
                per_shot(graph_b, shots),
            );
    }
    emit(record.field("checksum", checksum));
}

/// The qec-obs instrumentation overhead gate: the same decode workload
/// with and without per-batch tracing, on the *fastest* decode hot
/// path in the workspace (Union-Find `decode_into` on the d=5 surface
/// workload, ~1 µs/shot) — the most span-emissions-per-second any real
/// pipeline produces, so if the overhead clears the 10% ceiling here
/// it clears it everywhere. The traced pass mirrors exactly what
/// `run_ber` adds per 64-shot batch: one span open/close pair (written
/// to a real, buffered trace file) plus one histogram sample. Both
/// passes run 5 interleaved repetitions and the minima are compared
/// (`pass_obs_overhead`: traced ≤ 1.10 × untraced); corrections must
/// stay bit-identical, and the side trace must validate as well-formed
/// JSON lines with balanced span nesting.
fn bench_obs_overhead(shots: usize) {
    let _span = qec_obs::span("bench.obs_overhead");
    let code = rotated_surface_code(5);
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
    let exp = memory_experiment(&code, &fpn, 1e-3);
    let dem = DetectorErrorModel::from_circuit(&exp.circuit);
    let decoder = UnionFindDecoder::new(&dem, UnionFindConfig::unflagged());
    let syndromes = collect_nonzero_syndromes(&exp.circuit, shots.max(1000), 77);

    // A dedicated trace sink so the measurement is real span emission
    // (not a no-op when the run itself is untraced) without polluting
    // the run's own trace file.
    let side_path =
        std::env::temp_dir().join(format!("qec_obs_overhead_{}.jsonl", std::process::id()));
    let writer = qec_obs::TraceWriter::create(&side_path).expect("create overhead trace sink");
    let hist = qec_obs::global_registry().histogram("bench.obs_overhead.batch_ns");

    let mut ds = DecodeScratch::new();
    let mut out = BitVec::zeros(0);
    let mut untraced_checksum = 0usize;
    let mut traced_checksum = 0usize;
    let (mut untraced_ns, mut traced_ns) = (u128::MAX, u128::MAX);
    const REPS: usize = 5;
    for _ in 0..REPS {
        // Untraced pass: the bare decode loop.
        let mut checksum = 0usize;
        let t = Instant::now();
        for chunk in syndromes.chunks(64) {
            for d in chunk {
                decoder.decode_into(d, &mut ds, &mut out);
                checksum = checksum.wrapping_add(out.weight());
            }
        }
        untraced_ns = untraced_ns.min(t.elapsed().as_nanos());
        untraced_checksum = checksum;

        // Traced pass: identical loop plus the instrumentation run_ber
        // adds — span pairs at run/worker granularity and an Instant
        // pair + histogram sample per 64-shot batch (spans are kept off
        // the per-batch path on purpose: at ~450 ns/shot a span pair
        // per batch alone would eat the 10% budget).
        let mut checksum = 0usize;
        let t = Instant::now();
        {
            let _run_span = qec_obs::span_on(&writer, "bench.decode_run", &[]);
            let _worker_span = qec_obs::span_on(&writer, "bench.decode_worker", &[]);
            for chunk in syndromes.chunks(64) {
                let batch_start = Instant::now();
                for d in chunk {
                    decoder.decode_into(d, &mut ds, &mut out);
                    checksum = checksum.wrapping_add(out.weight());
                }
                hist.record(u64::try_from(batch_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
        }
        traced_ns = traced_ns.min(t.elapsed().as_nanos());
        traced_checksum = checksum;
    }
    writer.flush();
    let trace_ok = std::fs::read_to_string(&side_path)
        .map_err(|e| e.to_string())
        .and_then(|text| qec_obs::validate_trace(&text).map_err(|e| e.to_string()));
    let trace_events = match &trace_ok {
        Ok(summary) => summary.events,
        Err(err) => {
            eprintln!("obs overhead side trace invalid: {err}");
            0
        }
    };
    let _ = std::fs::remove_file(&side_path);

    let n = syndromes.len().max(1) as u128;
    let overhead = traced_ns as f64 / untraced_ns.max(1) as f64;
    emit(
        header("obs_overhead_d5_unionfind", syndromes.len(), REPS)
            .field("untraced_decode_ns_per_shot", untraced_ns / n)
            .field("traced_decode_ns_per_shot", traced_ns / n)
            .field("overhead_ratio", (overhead * 1000.0).round() / 1000.0)
            .field("trace_events", trace_events)
            .field(
                "identical",
                untraced_checksum == traced_checksum && trace_ok.is_ok(),
            )
            .field(
                "pass_obs_overhead",
                overhead <= 1.10 && untraced_checksum == traced_checksum && trace_ok.is_ok(),
            ),
    );
}

/// The live-telemetry overhead gate: the same Union-Find d=5 decode
/// workload with and without the windowed recording the qec-serve
/// worker adds per request. The telemetry pass treats each 64-shot
/// chunk as one request and performs exactly the serve hot-path ops:
/// a queue-depth window sample at submit; heartbeat + busy-since
/// stamps, a second depth sample and a queue-wait window sample at
/// pickup; an end-to-end window sample and the busy-since clear at
/// completion. Min-of-5 interleaved reps, each timing 8 sweeps of the
/// shot set so a single measurement is tens of milliseconds long — two ~500 µs
/// passes swing ±10% on scheduler jitter alone, which is the gate's
/// whole margin. `pass_telemetry_overhead` requires telemetry
/// ≤ 1.10 × bare with bit-identical corrections, and the windows must
/// actually have absorbed every request (no gating on dead code).
fn bench_telemetry_overhead(shots: usize) {
    let _span = qec_obs::span("bench.telemetry_overhead");
    let code = rotated_surface_code(5);
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
    let exp = memory_experiment(&code, &fpn, 1e-3);
    let dem = DetectorErrorModel::from_circuit(&exp.circuit);
    let decoder = UnionFindDecoder::new(&dem, UnionFindConfig::unflagged());
    let syndromes = collect_nonzero_syndromes(&exp.circuit, shots.max(1000), 78);

    let clock: Arc<dyn qec_obs::Clock> = Arc::new(qec_obs::MonotonicClock::new());
    let queue_depth = qec_obs::WindowedHistogram::new(Arc::clone(&clock));
    let queue_ns = qec_obs::WindowedHistogram::new(Arc::clone(&clock));
    let e2e_ns = qec_obs::WindowedHistogram::new(Arc::clone(&clock));
    let heartbeat = std::sync::atomic::AtomicU64::new(0);
    let busy_since = std::sync::atomic::AtomicU64::new(0);

    let mut ds = DecodeScratch::new();
    let mut out = BitVec::zeros(0);
    let mut bare_checksum = 0usize;
    let mut telemetry_checksum = 0usize;
    let (mut bare_ns, mut telemetry_ns) = (u128::MAX, u128::MAX);
    let mut requests = 0u64;
    const REPS: usize = 5;
    const SWEEPS: usize = 16;
    for _ in 0..REPS {
        // Bare pass: the decode loop a windowless service runs.
        let mut checksum = 0usize;
        let t = Instant::now();
        for _ in 0..SWEEPS {
            for chunk in syndromes.chunks(64) {
                for d in chunk {
                    decoder.decode_into(d, &mut ds, &mut out);
                    checksum = checksum.wrapping_add(out.weight());
                }
            }
        }
        bare_ns = bare_ns.min(t.elapsed().as_nanos());
        bare_checksum = checksum;

        // Telemetry pass: identical loop plus the per-request windowed
        // recording from `worker_loop` + `try_submit`.
        let mut checksum = 0usize;
        requests = 0;
        let t = Instant::now();
        for _ in 0..SWEEPS {
            for chunk in syndromes.chunks(64) {
                let submitted = Instant::now();
                queue_depth.record(1); // submit-side depth sample
                let now = clock.now_ns().max(1);
                heartbeat.store(now, std::sync::atomic::Ordering::Relaxed);
                busy_since.store(now, std::sync::atomic::Ordering::Relaxed);
                queue_depth.record(0); // pickup-side depth sample
                queue_ns.record(u64::try_from(submitted.elapsed().as_nanos()).unwrap_or(u64::MAX));
                for d in chunk {
                    decoder.decode_into(d, &mut ds, &mut out);
                    checksum = checksum.wrapping_add(out.weight());
                }
                e2e_ns.record(u64::try_from(submitted.elapsed().as_nanos()).unwrap_or(u64::MAX));
                busy_since.store(0, std::sync::atomic::Ordering::Relaxed);
                requests += 1;
            }
        }
        telemetry_ns = telemetry_ns.min(t.elapsed().as_nanos());
        telemetry_checksum = checksum;
    }
    // Liveness: the most recent rep's samples must be visible in the
    // 10 s window, or the gate would be timing dead code.
    let absorbed = e2e_ns.stats(qec_obs::WINDOW_10S).count >= requests;

    let n = (syndromes.len().max(1) * SWEEPS) as u128;
    let overhead = telemetry_ns as f64 / bare_ns.max(1) as f64;
    let identical = bare_checksum == telemetry_checksum && absorbed;
    emit(
        header("telemetry_overhead_d5_unionfind", syndromes.len(), REPS)
            .field("bare_decode_ns_per_shot", bare_ns / n)
            .field("telemetry_decode_ns_per_shot", telemetry_ns / n)
            .field("overhead_ratio", (overhead * 1000.0).round() / 1000.0)
            .field("window_requests", requests)
            .field("identical", identical)
            .field("pass_telemetry_overhead", overhead <= 1.10 && identical),
    );
}

/// Sustained throughput of the qec-serve streaming service on the
/// {4,5} hyperbolic fixture at its `p = 3e-4` operating point: a
/// 4-shard service behind a bounded 32-request queue, fed 16-shot
/// requests by a closed-loop client that reacts to `WouldBlock` by
/// draining its oldest in-flight response before retrying (the
/// intended backpressure discipline). Reports sustained shots/sec over
/// the submit-to-drain wall clock and the p50/p99/p999 end-to-end
/// request latency read from the service's `serve.e2e_ns` qec-obs
/// histogram. `pass_serve` requires corrections bit-identical to
/// offline `decode_into` on the same syndromes plus a conservative
/// throughput floor.
fn bench_serve_throughput(shots: usize) {
    let _span = qec_obs::span("bench.serve_throughput");
    let (_, exp, _) = qec_testkit::hyperbolic_memory_experiment_at(3e-4);
    let dem = DetectorErrorModel::from_circuit(&exp.circuit);
    let decoder: Arc<dyn Decoder + Send + Sync> =
        Arc::new(MwpmDecoder::new(&dem, MwpmConfig::unflagged()));
    let syndromes = collect_nonzero_syndromes(&exp.circuit, shots, 321);

    // Offline reference corrections first (untimed): the service must
    // reproduce these bit-for-bit.
    let mut ds = DecodeScratch::new();
    let mut out = BitVec::zeros(0);
    let mut reference = Vec::with_capacity(syndromes.len());
    for d in &syndromes {
        decoder.decode_into(d, &mut ds, &mut out);
        reference.push(out.clone());
    }

    const SHARDS: usize = 4;
    const REQUEST_SHOTS: usize = 16;
    let service = DecodeService::new(
        Arc::clone(&decoder),
        ServeConfig::new()
            .with_shards(SHARDS)
            .with_queue_capacity(32)
            .with_metrics(Registry::new()),
    );
    let mut pending: VecDeque<PendingResponse> = VecDeque::new();
    let mut served: Vec<BitVec> = Vec::with_capacity(reference.len());
    let t = Instant::now();
    for request in syndromes.chunks(REQUEST_SHOTS) {
        loop {
            match service.try_submit(request.to_vec()) {
                Ok(p) => {
                    pending.push_back(p);
                    break;
                }
                Err(SubmitError::WouldBlock) => {
                    // Queue full: drain the oldest in-flight response,
                    // then retry the same request.
                    let resp = pending
                        .pop_front()
                        .expect("a full queue implies in-flight work")
                        .wait()
                        .expect("no deadline set");
                    served.extend(resp.corrections);
                }
                Err(e) => panic!("serve submit failed: {e}"),
            }
        }
    }
    for p in pending {
        served.extend(p.wait().expect("no deadline set").corrections);
    }
    let total_ns = t.elapsed().as_nanos();

    let snap = service.metrics().snapshot();
    let e2e = snap
        .histogram("serve.e2e_ns")
        .expect("service records e2e latency");
    // `quantile` is None on an empty snapshot; the row would silently
    // report 0 ns latencies. The workload always completes requests, so
    // assert instead of defaulting.
    assert!(!e2e.is_empty(), "serve bench must complete requests");
    let q = |p: f64| e2e.quantile(p).expect("non-empty histogram has quantiles");
    let shots_per_sec = served.len() as f64 / (total_ns.max(1) as f64 / 1e9);
    let identical = served == reference;
    emit(
        header("serve_throughput_hyperbolic", served.len(), 1)
            .field("shards", SHARDS)
            .field("requests", e2e.count)
            .field("shots_per_sec", shots_per_sec.round())
            .field("e2e_p50_ns", q(0.5))
            .field("e2e_p99_ns", q(0.99))
            .field("e2e_p999_ns", q(0.999))
            .field("rejected", snap.counter("serve.rejected"))
            .field("identical", identical)
            .field("pass_serve", identical && shots_per_sec >= 500.0),
    );
}

/// The BP+OSD hypergraph tier against MWPM on the identical hyperbolic
/// DEM: logical failure counts on ground-truth circuit shots and
/// per-shot `decode_into` latency for both decoders. The gate
/// (`pass_bp_osd`) is the decoder's hard invariant — every correction
/// must exactly reproduce its syndrome (checked per shot via
/// `decode_detail`, not statistically) with zero give-ups; the
/// accuracy and latency fields are published for trend-watching, not
/// gated, because on a *matchable* DEM MWPM is the specialist and
/// BP+OSD the generalist.
fn bench_bp_osd_hyperbolic(shots: usize) {
    let _span = qec_obs::span("bench.bp_osd_hyperbolic");
    // OSD eliminations on the 1224-check matrix dominate worst-case
    // shots; cap the workload so the bench stays bounded at the
    // 10k-shot default configuration.
    let shots = shots.min(2_000);
    let (_, exp, _) = qec_testkit::hyperbolic_memory_experiment_at(1e-3);
    let dem = DetectorErrorModel::from_circuit(&exp.circuit);
    let bp = BpOsdDecoder::new(&dem, BpOsdConfig::unflagged());
    let mwpm = MwpmDecoder::new(&dem, MwpmConfig::unflagged());

    // Ground-truth workload: real sampled shots with their actual
    // observable flips, so both decoders' failures are counted against
    // the same truth (zero-syndrome shots included — they are free for
    // both decoders and keep the failure denominators honest).
    let sampler = FrameSampler::new(&exp.circuit);
    let mut frame_scratch = FrameBatch::new();
    let mut workload = Vec::with_capacity(shots);
    for b in 0..shots.div_ceil(64) as u64 {
        let mut rng = Xoshiro256StarStar::from_seed_stream(923, b);
        let batch = sampler.sample_batch_with(&mut frame_scratch, &mut rng);
        let mut dets = BitVec::zeros(0);
        let mut actual = BitVec::zeros(0);
        for s in 0..64 {
            if workload.len() == shots {
                break;
            }
            batch.detector_bits_into(s, &mut dets);
            batch.observable_bits_into(s, &mut actual);
            workload.push((dets.clone(), actual.clone()));
        }
    }

    // Correctness pass (untimed): the 100% validity invariant plus
    // both failure counts.
    let mut ds = DecodeScratch::new();
    let mut out = BitVec::zeros(0);
    let mut valid_shots = 0usize;
    let mut bp_failures = 0usize;
    let mut mwpm_failures = 0usize;
    for (dets, actual) in &workload {
        let outcome = bp.decode_detail(dets, &mut ds, &mut out);
        valid_shots += usize::from(outcome.valid);
        bp_failures += usize::from(out != *actual);
        mwpm.decode_into(dets, &mut ds, &mut out);
        mwpm_failures += usize::from(out != *actual);
    }
    let stats = bp.stats();
    let all_valid = valid_shots == workload.len() && stats.bp_giveups == 0;

    // Min-of-interleaved-reps latency on the nonzero shots (the work).
    let timed: Vec<&BitVec> = workload
        .iter()
        .map(|(d, _)| d)
        .filter(|d| !d.is_zero())
        .collect();
    const REPS: usize = 3;
    let (mut bp_ns, mut mwpm_ns) = (u128::MAX, u128::MAX);
    let mut checksum = 0usize;
    for _ in 0..REPS {
        let t = Instant::now();
        let mut sum = 0usize;
        for d in &timed {
            bp.decode_into(d, &mut ds, &mut out);
            sum = sum.wrapping_add(out.weight());
        }
        bp_ns = bp_ns.min(t.elapsed().as_nanos());
        checksum = sum;
        let t = Instant::now();
        for d in &timed {
            mwpm.decode_into(d, &mut ds, &mut out);
            sum = sum.wrapping_add(out.weight());
        }
        mwpm_ns = mwpm_ns.min(t.elapsed().as_nanos());
        checksum = checksum.wrapping_add(sum);
    }
    let n = timed.len().max(1) as u128;
    emit(
        header("bp_osd_hyperbolic", workload.len(), REPS)
            .field("bp_osd_decode_ns", bp_ns / n)
            .field("mwpm_decode_ns", mwpm_ns / n)
            .field(
                "latency_ratio",
                round1(bp_ns as f64 / mwpm_ns.max(1) as f64),
            )
            .field("valid_shots", valid_shots)
            .field("bp_failures", bp_failures)
            .field("mwpm_failures", mwpm_failures)
            .field("bp_converged", stats.bp_converged)
            .field("bp_osd_solves", stats.bp_osd_solves)
            .field("bp_giveups", stats.bp_giveups)
            .field("pass_bp_osd", all_valid)
            .field("checksum", checksum),
    );
}

fn bench_scheduling() {
    let code = small_hyperbolic_code();
    bench("greedy_schedule_30_8", 10, || {
        greedy_schedule(&code).makespan()
    });
}

fn bench_construction() {
    let pres = von_dyck(3, 5, &[]);
    bench("todd_coxeter_a5", 10, || {
        enumerate_cosets(&pres, &[], 1000).unwrap().num_cosets()
    });
    let code = small_hyperbolic_code();
    bench("fpn_build_30_8", 10, || {
        FlagProxyNetwork::build(&code, &FpnConfig::shared()).num_qubits()
    });
}

/// Parsed command-line options.
struct Options {
    /// Workload size (default 10 000; CI runs `--shots 1000`).
    shots: usize,
    /// Artifact destination (`--out`; default `BENCH_<PR>.json` at the
    /// repo root).
    out: Option<String>,
    /// Trace destination (`--trace`; `QEC_OBS=1` also works).
    trace: Option<String>,
}

/// Parses `--shots N`, `--out PATH` and `--trace PATH`.
fn parse_options() -> Options {
    let mut opts = Options {
        shots: 10_000,
        out: None,
        trace: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--shots" => {
                let v = args.next().expect("--shots needs a value");
                opts.shots = v.parse().expect("--shots takes an integer");
            }
            "--out" => opts.out = Some(args.next().expect("--out needs a path")),
            "--trace" => opts.trace = Some(args.next().expect("--trace needs a path")),
            other => panic!("unknown argument: {other}"),
        }
    }
    opts
}

fn main() {
    let opts = parse_options();
    match &opts.trace {
        Some(path) => {
            qec_obs::init_to_path(path).expect("create --trace file");
        }
        None => {
            qec_obs::init_from_env();
        }
    }
    {
        let _run = qec_obs::span_with("bench.run", &[("shots", opts.shots.into())]);
        bench_blossom();
        bench_sampling(opts.shots);
        bench_dem();
        bench_decoding();
        bench_ber_stages(opts.shots);
        bench_unionfind_speedup(opts.shots);
        bench_mwpm_oracle_speedup(opts.shots);
        bench_mwpm_sparse_blossom_speedup(opts.shots);
        bench_obs_overhead(opts.shots);
        bench_telemetry_overhead(opts.shots);
        bench_serve_throughput(opts.shots);
        bench_bp_osd_hyperbolic(opts.shots);
        bench_scheduling();
        bench_construction();
    }
    write_bench_json(opts.out.as_deref(), opts.shots);
    qec_obs::finish();
}
