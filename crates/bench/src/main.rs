//! `qec-bench`: the perf-gate runner. Each `gate_*` row runs an untimed
//! correctness pass, then times two implementations of the same work on
//! the same shots with [`measure`] and prints one JSON record whose
//! `pass_*` gate is judged on the ratio median. Component timings are
//! perfbench's per-layer metrics. Options: `--shots N` (default 10 000;
//! CI runs 1000), `--out PATH` (the JSON artifact; none without it) and
//! `--trace PATH` (a qec-obs trace; `QEC_OBS=1` works too).

use fpn_core::prelude::*;
use qec_math::rng::Xoshiro256StarStar;
use qec_math::BitVec;
use qec_obs::{JsonValue, Record};
use qec_sim::FrameBatch;
use qec_testkit::reference::{sample_shot, UnionFindReference};
use std::cell::RefCell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Record and artifact layout version (3: ratio quartiles, host header).
const BENCH_SCHEMA: u32 = 3;
/// Paired reps per measurement; odd, so the median ratio is one rep's.
const REPS: usize = 11;
/// Cheap rows repeat whole passes until each side has run this long in a
/// rep; rows whose pass takes longer time one disjoint slice per rep.
const MIN_SIDE_NS: f64 = 20e6;

/// A `decode_into` scratch and its output buffer.
type Scratch = (DecodeScratch, BitVec);
/// A gate row: workload size in, JSON record out.
type Gate = fn(usize) -> Record;
/// One side of a [`measure`]d comparison: a pass over some shots.
type Side<'a, T> = &'a mut dyn FnMut(&[T]) -> usize;

/// `(q1, median, q3)` of a sample set, linearly interpolated between
/// order statistics.
fn quartiles(mut samples: Vec<f64>) -> (f64, f64, f64) {
    samples.sort_by(f64::total_cmp);
    let last = samples.len() - 1;
    let at = |q: f64| {
        let (pos, lo) = (q * last as f64, (q * last as f64) as usize);
        samples[lo] + pos.fract() * (samples[(lo + 1).min(last)] - samples[lo])
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Each side's median ns per shot (`[a, b]`), the `(q1, median, q3)` of
/// the per-rep ratio a / b, and whether each rep timed its own slice.
struct Measurement {
    ns: [f64; 2],
    ratio: (f64, f64, f64),
    sliced: bool,
}

impl Measurement {
    /// A gate record: the shared header, the side medians as `a` and `b`,
    /// and the ratio as `ratio`, `<ratio>_q1` and `<ratio>_q3`.
    fn record(&self, component: &str, shots: usize, [a, b, ratio]: [&str; 3]) -> Record {
        let round3 = |x: f64| (x * 1000.0).round() / 1000.0;
        Record::new()
            .field("bench_schema", BENCH_SCHEMA)
            .field("component", component)
            .field("shots", shots)
            .field("reps", REPS)
            .field(a, self.ns[0].round())
            .field(b, self.ns[1].round())
            .field(ratio, round3(self.ratio.1))
            .field(&format!("{ratio}_q1"), round3(self.ratio.0))
            .field(&format!("{ratio}_q3"), round3(self.ratio.2))
            .field("sliced", self.sliced)
    }
}

/// Paired timing of side `a` against side `b` on `shots`. An untimed
/// warmup runs both sides on the first `1/REPS` of the shots and
/// estimates a full pass. Each of [`REPS`] reps times both sides on the
/// same input, and the side that goes first alternates between reps. If
/// a pass is cheaper than [`MIN_SIDE_NS`], a rep runs whole passes of both
/// sides, interleaved (the side with less timed work goes next), until
/// each has run that long; a drift in host speed then hits both sides
/// alike. Otherwise each rep times one disjoint `1/REPS` slice per side,
/// so the timed work stays about one pass per side. Each rep is one
/// `bench.rep` span carrying both sides' samples. The closures return a
/// checksum that is kept from the optimizer.
fn measure<T>(
    shots: &[T],
    mut a: impl FnMut(&[T]) -> usize,
    mut b: impl FnMut(&[T]) -> usize,
) -> Measurement {
    let n = shots.len();
    assert!(n > 0, "measure needs shots");
    let mut sides: [Side<T>; 2] = [&mut a, &mut b];
    let warm = &shots[..n.div_ceil(REPS)];
    let mut pass_ns = 0.0f64;
    for side in sides.iter_mut() {
        let t = Instant::now();
        black_box(side(warm));
        pass_ns = pass_ns.max(t.elapsed().as_nanos() as f64 * n as f64 / warm.len() as f64);
    }
    let sliced = n >= REPS && pass_ns >= MIN_SIDE_NS;
    let slice = |rep: usize| &shots[rep * n / REPS..(rep + 1) * n / REPS];
    let (mut samples, mut ratios) = ([vec![], vec![]], vec![]);
    for rep in 0..REPS {
        let input = if sliced { slice(rep) } else { shots };
        let mut span = qec_obs::span_with("bench.rep", &[("rep", rep.into())]);
        let (mut ns, mut passes) = ([0.0f64; 2], [0usize; 2]);
        loop {
            let pending = |s: usize| passes[s] == 0 || !sliced && ns[s] < MIN_SIDE_NS;
            let order = [rep % 2, 1 - rep % 2].into_iter().filter(|&s| pending(s));
            let Some(side) = order.min_by(|&x, &y| ns[x].total_cmp(&ns[y])) else {
                break;
            };
            let t = Instant::now();
            black_box(sides[side](input));
            ns[side] += t.elapsed().as_nanos() as f64;
            passes[side] += 1;
        }
        let per_shot = [0, 1].map(|s| ns[s] / (passes[s] * input.len()) as f64);
        for (side, name) in ["a", "b"].into_iter().enumerate() {
            span.field(&format!("{name}_passes"), passes[side]);
            span.field(&format!("{name}_ns_per_shot"), per_shot[side]);
            samples[side].push(per_shot[side]);
        }
        ratios.push(per_shot[0] / per_shot[1]);
    }
    let (ns, ratio) = (samples.map(|s| quartiles(s).1), quartiles(ratios));
    Measurement { ns, ratio, sliced }
}

/// `(detectors, observables)` of every shot of batches 0, 1, …, batch
/// `b` drawn from RNG stream `(seed, b)`.
fn sampled(circuit: &Circuit, seed: u64) -> impl Iterator<Item = (BitVec, BitVec)> + '_ {
    let sampler = FrameSampler::new(circuit);
    (0..).flat_map(move |b| {
        let batch = sampler.sample_batch(&mut Xoshiro256StarStar::from_seed_stream(seed, b));
        (0..64).map(move |s| (batch.detector_bits(s), batch.observable_bits(s)))
    })
}

/// The first `shots` syndromes that fire detectors, from at most
/// `4 * ⌈shots / 64⌉ + 64` batches.
fn nonzero_syndromes(circuit: &Circuit, shots: usize, seed: u64) -> Vec<BitVec> {
    let deep = sampled(circuit, seed).take(64 * (4 * shots.div_ceil(64) + 64));
    let fired = deep.map(|s| s.0).filter(|d| !d.is_zero());
    fired.take(shots).collect()
}

/// The d = 5 rotated surface code's 3-round memory-Z circuit at p = 1e-3
/// (every d5 row's workload), its DEM, and `shots` nonzero syndromes.
fn d5_surface(shots: usize, seed: u64) -> (Circuit, DetectorErrorModel, Vec<BitVec>) {
    let code = rotated_surface_code(5);
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
    let noise = NoiseModel::new(1e-3);
    let circuit = build_memory_circuit(&code, &fpn, Some(&noise), 3, Basis::Z).circuit;
    let dem = DetectorErrorModel::from_circuit(&circuit);
    let syndromes = nonzero_syndromes(&circuit, shots, seed);
    (circuit, dem, syndromes)
}

/// `decode_into` over `shots` with one reused scratch; returns the summed
/// correction weight.
fn replay(decoder: &dyn Decoder, shots: &[BitVec], (ds, out): &mut Scratch) -> usize {
    let mut weight = 0;
    for d in shots {
        decoder.decode_into(d, ds, out);
        weight += out.weight();
    }
    weight
}

/// Two decode loops that leave their last correction in the scratch and
/// return the summed weight: checked shot by shot for bit-identical
/// corrections (b starts from an emptied output, so it must write its
/// own), then timed. Both sides share one scratch, so neither gains from
/// a luckier memory layout. Returns the measurement, whether every
/// correction matched, and b's summed weight as the checksum.
fn compare(
    syndromes: &[BitVec],
    mut a: impl FnMut(&[BitVec], &mut Scratch) -> usize,
    mut b: impl FnMut(&[BitVec], &mut Scratch) -> usize,
) -> (Measurement, bool, usize) {
    let scratch = RefCell::new(Scratch::default());
    let (mut identical, mut checksum) = (true, 0);
    for d in syndromes {
        let (one, s) = (std::slice::from_ref(d), &mut *scratch.borrow_mut());
        let weight = a(one, s);
        let correction = std::mem::take(&mut s.1);
        let b_weight = b(one, s);
        identical &= b_weight == weight && s.1 == correction;
        checksum += b_weight;
    }
    let (a, b) = (
        |ss: &_| a(ss, &mut scratch.borrow_mut()),
        |ss: &_| b(ss, &mut scratch.borrow_mut()),
    );
    (measure(syndromes, a, b), identical, checksum)
}

/// `pass_10x` (≥ 10): the testkit's per-shot frame sampler against the
/// batched one on the d = 5 surface circuit, 64 shots per batch index
/// (the per-shot side draws a slice's shots from its first index's
/// stream).
fn gate_sampler(shots: usize) -> Record {
    let circuit = d5_surface(0, 0).0;
    let sampler = FrameSampler::new(&circuit);
    let batches: Vec<u64> = (0..shots.div_ceil(64) as u64).collect();
    let rng = |b| Xoshiro256StarStar::from_seed_stream(7, b);
    let mut scratch = FrameBatch::new();
    let mut batched = |bs: &[u64]| -> usize {
        let mut sample = |b| sampler.sample_batch_with(&mut scratch, &mut rng(b));
        bs.iter()
            .map(|&b| sample(b).fired_shots().count_ones() as usize)
            .sum()
    };
    let checksum = batched(&batches);
    let per_shot = |bs: &[u64]| {
        let mut r = rng(bs[0]);
        let fired = (0..64 * bs.len()).map(|_| sample_shot(&circuit, &mut r).detectors);
        fired.filter(|d| !d.is_zero()).count()
    };
    let mut m = measure(&batches, per_shot, batched);
    m.ns = m.ns.map(|ns| ns / 64.0);
    let (names, shots) = (["per_shot_ns", "batched_ns", "speedup"], 64 * batches.len());
    m.record("frame_sampler_speedup_batched_vs_per_shot", shots, names)
        .field("pass_10x", m.ratio.1 >= 10.0)
        .field("checksum", checksum)
}

/// `pass_2x` (≥ 2): the testkit's allocating Union-Find reference
/// against the production decoder's scratch-reusing `decode_into` on the
/// same d = 5 syndromes.
fn gate_unionfind(shots: usize) -> Record {
    let (_, dem, syndromes) = d5_surface(shots, 123);
    let uf = UnionFindDecoder::new(&dem, UnionFindConfig::unflagged());
    let reference = UnionFindReference::new(&dem, UnionFindConfig::unflagged());
    let decode = |ss: &[BitVec], (_, out): &mut Scratch| {
        let mut weight = 0;
        for d in ss {
            *out = reference.decode(d);
            weight += out.weight();
        }
        weight
    };
    let (m, identical, checksum) = compare(&syndromes, decode, |ss, s| replay(&uf, ss, s));
    let names = ["per_shot_decode_ns", "batched_decode_ns", "speedup"];
    m.record("unionfind_decode_into_speedup_d5", syndromes.len(), names)
        .field("pass_2x", m.ratio.1 >= 2.0)
        .field("identical", identical)
        .field("checksum", checksum)
}

/// `pass_oracle` (≥ 2): MWPM on the sparse path tier against the dense
/// `PathOracle`, which keeps its O(V²) index only while it wins.
fn gate_oracle(shots: usize) -> Record {
    let (_, dem, syndromes) = d5_surface(shots, 321);
    let oracle = MwpmDecoder::new(&dem, MwpmConfig::unflagged());
    let sparse = MwpmDecoder::new(&dem, MwpmConfig::unflagged().with_oracle_node_limit(0));
    let a = |ss: &[BitVec], s: &mut Scratch| replay(&sparse, ss, s);
    let (m, identical, checksum) = compare(&syndromes, a, |ss, s| replay(&oracle, ss, s));
    let names = ["sparse_decode_ns", "oracle_decode_ns", "speedup"];
    m.record("mwpm_oracle_speedup_d5", syndromes.len(), names)
        .field("pass_oracle", m.ratio.1 >= 2.0)
        .field("identical", identical)
        .field("checksum", checksum)
}

/// `pass_sparse_blossom` (≥ 2): complete pricing on the CSR graph
/// against graph-native matching on the {4,5} hyperbolic fixture at
/// p = 1e-3, with equal weight on every shot. Defect-count buckets,
/// filled out by a p = 2e-4 draw, show where certification pays.
fn gate_sparse_blossom(shots: usize) -> Record {
    use qec_decode::{complete_graph_match, sparse_graph_match};
    use qec_decode::{BlossomScratch, SparseBlossomScratch};
    const BUCKETS: [(usize, &str); 4] =
        [(4, "le4"), (8, "5_8"), (16, "9_16"), (usize::MAX, "gt16")];
    let circuit = |p| qec_testkit::hyperbolic_memory_experiment_at(p).1.circuit;
    let circuits = [circuit(1e-3), circuit(2e-4)];
    let dem = DetectorErrorModel::from_circuit(&circuits[0]);
    let decoder = MwpmDecoder::new(&dem, MwpmConfig::unflagged());
    let finder = decoder.sparse_finder().expect("the fixture has vertices");
    let hypergraph = decoder.hypergraph();
    // The MWPM decoding graph appends its boundary vertex after the checks.
    let num_check = hypergraph.num_check_detectors();
    let boundary = (finder.num_nodes() > num_check).then_some(num_check);
    let weights = finder.class_weights();
    let draws = circuits.map(|circuit| {
        let defects = nonzero_syndromes(&circuit, shots, 321).into_iter();
        let defects = defects.map(|d| hypergraph.split_shot(&d).0);
        defects.filter(|c| !c.is_empty()).collect::<Vec<_>>()
    });

    // Each route keeps its own scratch, as a decoder thread would.
    let scratch = || {
        (
            SparseBlossomScratch::new(),
            BlossomScratch::new(),
            Vec::new(),
        )
    };
    let (mut c, mut g) = (scratch(), scratch());
    let mut complete = |d: &[usize]| {
        let matched =
            complete_graph_match(finder, d, boundary, weights, &mut c.0, &mut c.1, &mut c.2);
        matched.map(|o| o.weight)
    };
    let mut graph = |d: &[usize]| {
        let matched =
            sparse_graph_match(finder, d, boundary, weights, &mut g.0, &mut g.1, &mut g.2);
        matched.map(|o| o.weight)
    };

    let (mut weights_equal, mut checksum) = (true, 0i64);
    for defects in draws.iter().flatten() {
        let w = complete(defects);
        weights_equal &= graph(defects) == w;
        checksum = checksum.wrapping_add(w.unwrap_or(-1));
    }
    let mut timed = |shots: &[Vec<usize>]| {
        let sum = |route: &mut dyn FnMut(&[usize]) -> Option<i64>, ss: &[Vec<usize>]| {
            ss.iter().map(|d| route(d).unwrap_or(0) as usize).sum()
        };
        measure(shots, |ss| sum(&mut complete, ss), |ss| sum(&mut graph, ss))
    };
    let m = timed(&draws[0]);
    let names = ["complete_ns", "sparse_blossom_ns", "speedup"];
    let component = "mwpm_sparse_blossom_speedup_hyperbolic";
    let mut record = m
        .record(component, draws[0].len(), names)
        .field("pass_sparse_blossom", m.ratio.1 >= 2.0)
        .field("weights_equal", weights_equal);
    let mut lo = 0;
    for (hi, suffix) in BUCKETS {
        let in_bucket = |d: &&Vec<usize>| (lo..=hi).contains(&d.len());
        let bucket: Vec<_> = draws.iter().flatten().filter(in_bucket).cloned().collect();
        lo = hi + 1;
        record.push(&format!("shots_{suffix}"), bucket.len());
        if !bucket.is_empty() {
            let m = timed(&bucket);
            record.push(&format!("complete_ns_{suffix}"), m.ns[0].round());
            record.push(&format!("sparse_blossom_ns_{suffix}"), m.ns[1].round());
        }
    }
    record.field("checksum", checksum)
}

/// `pass_obs_overhead` (≤ 1.10) on the fastest hot path, d = 5 Union-Find:
/// traced adds `run_ber`'s spans, written to a trace file that must
/// validate, and a histogram sample per 64-shot batch.
fn gate_obs_overhead(shots: usize) -> Record {
    let (_, dem, syndromes) = d5_surface(shots.max(1000), 77);
    let uf = UnionFindDecoder::new(&dem, UnionFindConfig::unflagged());
    // A dedicated sink, so spans are written even when the run itself is
    // untraced, without polluting the run's trace.
    let path = std::env::temp_dir().join(format!("qec_obs_overhead_{}.jsonl", std::process::id()));
    let writer = qec_obs::TraceWriter::create(&path).expect("create overhead trace sink");
    let hist = qec_obs::global_registry().histogram("bench.obs_overhead.batch_ns");
    let traced = |ss: &[BitVec], s: &mut Scratch| {
        let _run = qec_obs::span_on(&writer, "bench.decode_run", &[]);
        let _worker = qec_obs::span_on(&writer, "bench.decode_worker", &[]);
        let batch = |chunk| {
            let batch_start = Instant::now();
            let sum = replay(&uf, chunk, s);
            hist.record(u64::try_from(batch_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            sum
        };
        ss.chunks(64).map(batch).sum()
    };
    let (m, identical, _) = compare(&syndromes, traced, |ss, s| replay(&uf, ss, s));
    writer.flush();
    let trace = std::fs::read_to_string(&path).map_err(|e| e.to_string());
    let trace = trace.and_then(|text| qec_obs::validate_trace(&text).map_err(|e| e.to_string()));
    let _ = std::fs::remove_file(&path);
    if let Err(err) = &trace {
        eprintln!("obs overhead side trace invalid: {err}");
    }
    let identical = identical && trace.is_ok();
    let names = ["traced_decode_ns", "untraced_decode_ns", "overhead_ratio"];
    m.record("obs_overhead_d5_unionfind", syndromes.len(), names)
        .field("trace_events", trace.map_or(0, |summary| summary.events))
        .field("identical", identical)
        .field("pass_obs_overhead", m.ratio.1 <= 1.10 && identical)
}

/// `pass_telemetry_overhead` (≤ 1.10): the windowed recording a qec-serve
/// worker adds per request (each 64-shot chunk) against the bare d = 5
/// Union-Find loop. The windows must hold every request of the last pass.
fn gate_telemetry_overhead(shots: usize) -> Record {
    let (_, dem, syndromes) = d5_surface(shots.max(1000), 78);
    let uf = UnionFindDecoder::new(&dem, UnionFindConfig::unflagged());
    let clock: Arc<dyn qec_obs::Clock> = Arc::new(qec_obs::MonotonicClock::new());
    let window = || qec_obs::WindowedHistogram::new(Arc::clone(&clock));
    let (queue_depth, queue_ns, e2e_ns) = (window(), window(), window());
    let (heartbeat, busy_since) = (AtomicU64::new(0), AtomicU64::new(0));
    let elapsed_ns = |t: Instant| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let mut requests = 0u64;
    let telemetry = |ss: &[BitVec], s: &mut Scratch| {
        requests = 0;
        let request = |chunk| {
            // Submit, pickup and completion, as `try_submit` and `worker_loop`.
            let submitted = Instant::now();
            queue_depth.record(1);
            let now = clock.now_ns().max(1);
            heartbeat.store(now, Relaxed);
            busy_since.store(now, Relaxed);
            queue_depth.record(0);
            queue_ns.record(elapsed_ns(submitted));
            let sum = replay(&uf, chunk, s);
            e2e_ns.record(elapsed_ns(submitted));
            busy_since.store(0, Relaxed);
            requests += 1;
            sum
        };
        ss.chunks(64).map(request).sum()
    };
    let (m, identical, _) = compare(&syndromes, telemetry, |ss, s| replay(&uf, ss, s));
    let identical = identical && e2e_ns.stats(qec_obs::WINDOW_10S).count >= requests;
    let names = ["telemetry_decode_ns", "bare_decode_ns", "overhead_ratio"];
    m.record("telemetry_overhead_d5_unionfind", syndromes.len(), names)
        .field("window_requests", requests)
        .field("identical", identical)
        .field("pass_telemetry_overhead", m.ratio.1 <= 1.10 && identical)
}

/// `pass_bp_osd`: every flagged BP+OSD correction syndrome-valid with no
/// give-ups on the `[[96,12]]` {4,6} shared-flag color FPN (4 rounds,
/// p = 1e-3, memory-Z); failures and latency against flagged Restriction
/// are published, not gated.
fn gate_bp_osd(shots: usize) -> Record {
    // OSD eliminations dominate the worst shots; the cap keeps the
    // 10k-shot default bounded.
    let shots = shots.min(2_000);
    let code = hyperbolic_color_code(&COLOR_REGISTRY[0]).expect("registry code builds");
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::shared());
    let noise = NoiseModel::new(1e-3);
    let exp = build_memory_circuit(&code, &fpn, Some(&noise), 4, Basis::Z);
    let pipeline = DecodingPipeline::new(&code, &exp, DecoderKind::FlaggedRestriction, &noise);
    let restriction = pipeline.decoder();
    let bp = BpOsdDecoder::new(
        pipeline.dem(),
        BpOsdConfig::flagged(noise.measurement_flip()),
    );

    // Ground-truth shots, empty ones included: they are free for both
    // decoders and keep the failure denominators honest.
    let workload: Vec<_> = sampled(&exp.circuit, 923).take(shots).collect();
    let (mut valid_shots, mut bp_failures, mut restriction_failures) = (0, 0, 0);
    let (scratch, mut checksum) = (RefCell::new(Scratch::default()), 0);
    for (dets, actual) in &workload {
        let (ds, out) = &mut *scratch.borrow_mut();
        valid_shots += usize::from(bp.decode_detail(dets, ds, out).valid);
        bp_failures += usize::from(out != actual);
        checksum += out.weight();
        restriction.decode_into(dets, ds, out);
        restriction_failures += usize::from(out != actual);
    }
    let stats = bp.stats();
    let nonzero: Vec<_> = workload
        .into_iter()
        .map(|w| w.0)
        .filter(|d| !d.is_zero())
        .collect();
    let a = |ss: &[BitVec]| replay(&bp, ss, &mut scratch.borrow_mut());
    let b = |ss: &[BitVec]| replay(restriction, ss, &mut scratch.borrow_mut());
    let m = measure(&nonzero, a, b);
    let names = ["bp_osd_decode_ns", "restriction_decode_ns", "latency_ratio"];
    m.record("bp_osd_color_fpn", shots, names)
        .field("valid_shots", valid_shots)
        .field("bp_failures", bp_failures)
        .field("restriction_failures", restriction_failures)
        .field("bp_converged", stats.bp_converged)
        .field("bp_osd_solves", stats.bp_osd_solves)
        .field("bp_giveups", stats.bp_giveups)
        .field("pass_bp_osd", valid_shots == shots && stats.bp_giveups == 0)
        .field("checksum", checksum)
}

fn main() {
    let (mut shots, mut out, mut trace) = (10_000, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| panic!("{arg} needs a value"));
        match arg.as_str() {
            "--shots" => shots = value().parse().expect("--shots takes an integer"),
            "--out" => out = Some(value()),
            "--trace" => trace = Some(value()),
            _ => panic!("unknown argument {arg} (options: --shots N, --out PATH, --trace PATH)"),
        }
    }
    match &trace {
        Some(path) => drop(qec_obs::init_to_path(path).expect("create --trace file")),
        None => drop(qec_obs::init_from_env()),
    }
    let gates: [(&str, Gate); 7] = [
        ("sampler", gate_sampler),
        ("unionfind", gate_unionfind),
        ("oracle", gate_oracle),
        ("sparse_blossom", gate_sparse_blossom),
        ("obs_overhead", gate_obs_overhead),
        ("telemetry_overhead", gate_telemetry_overhead),
        ("bp_osd", gate_bp_osd),
    ];
    let run = qec_obs::span_with("bench.run", &[("shots", shots.into())]);
    let mut records = Vec::new();
    for (name, gate) in gates {
        let span = qec_obs::span_with("bench.gate", &[("gate", name.into())]);
        let record = gate(shots);
        drop(span);
        println!("{}", record.to_line());
        qec_obs::emit_record("bench_record", &record);
        records.push(record.into_value());
    }
    drop(run);
    if let Some(path) = out {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let model = cpuinfo
            .lines()
            .find_map(|l| Some(l.strip_prefix("model name")?.split_once(':')?.1));
        let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
        let artifact = Record::new()
            .field("bench_schema", BENCH_SCHEMA)
            .field("shots", shots)
            .field("available_parallelism", threads)
            .field("cpu_model", model.map_or("unknown", str::trim))
            .field("records", JsonValue::Array(records));
        std::fs::write(&path, artifact.to_line() + "\n").expect("write the --out artifact");
        eprintln!("wrote {path}");
    }
    qec_obs::finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_for_odd_and_even_counts() {
        assert_eq!(quartiles(vec![9.0, 1.0, 5.0, 3.0, 7.0]), (3.0, 5.0, 7.0));
        assert_eq!(quartiles(vec![4.0, 1.0, 3.0, 2.0]), (1.75, 2.5, 3.25));
        let reps = (0..REPS).rev().map(|x| x as f64).collect();
        assert_eq!(quartiles(reps), (2.5, 5.0, 7.5));
    }

    #[test]
    fn compare_rejects_a_side_that_leaves_the_output_untouched() {
        let shots: Vec<_> = (0..3).map(|i| BitVec::from_ones(4, [i])).collect();
        let copy = |ss: &[BitVec], (_, out): &mut Scratch| {
            for d in ss {
                *out = d.clone();
            }
            ss.iter().map(BitVec::weight).sum()
        };
        let stale = |ss: &[BitVec], (_, out): &mut Scratch| ss.len() * out.weight();
        assert!(compare(&shots, copy, copy).1);
        assert!(!compare(&shots, copy, stale).1);
    }

    /// [`measure`] with counting closures that log each call's side and
    /// input and sleep the input's values in milliseconds.
    fn logged(shots: &[u64]) -> (Measurement, Vec<(char, Vec<u64>)>) {
        let calls = RefCell::new(Vec::new());
        let side = |name| {
            let calls = &calls;
            move |ss: &[u64]| {
                calls.borrow_mut().push((name, ss.to_vec()));
                std::thread::sleep(std::time::Duration::from_millis(ss.iter().sum()));
                ss.len()
            }
        };
        let m = measure(shots, side('a'), side('b'));
        (m, calls.into_inner())
    }

    #[test]
    fn measure_alternates_sides_on_disjoint_slices_of_heavy_rows() {
        // 22 shots of 2 ms: the warmup estimates a 44 ms pass, above the floor.
        let shots = vec![2u64; 22];
        let (m, calls) = logged(&shots);
        assert!(m.sliced);
        assert_eq!(calls.len(), 2 * (REPS + 1), "a warmup and REPS reps");
        let mut covered = Vec::new();
        for (rep, pair) in calls[2..].chunks(2).enumerate() {
            let order = if rep % 2 == 0 { ('a', 'b') } else { ('b', 'a') };
            assert_eq!((pair[0].0, pair[1].0), order, "rep {rep}");
            assert_eq!(pair[0].1, pair[1].1, "both sides time the same slice");
            covered.extend_from_slice(&pair[0].1);
        }
        assert_eq!(covered, shots, "the slices are disjoint and cover all");
    }

    #[test]
    fn measure_interleaves_whole_passes_of_cheap_rows() {
        // Fewer shots than reps: never sliced, whatever a pass costs.
        let (m, calls) = logged(&[1]);
        assert!(!m.sliced);
        let count = |side| calls.iter().filter(|(s, _)| *s == side).count();
        assert!(count('a') > 2 * REPS && count('b') > 2 * REPS);
        let (q1, median, q3) = m.ratio;
        assert!(q1 <= median && median <= q3);
        // Equal passes interleave within a rep; back-to-back blocks of one
        // side per rep would switch sides only about 2 * REPS times.
        assert!(calls.chunk_by(|x, y| x.0 == y.0).count() > 4 * REPS);
    }
}
