//! End-to-end and per-layer benchmark of `run_ber` and `qec-serve` on
//! the paper's flag-proxy workloads. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! stamps the run with host facts and noise diagnostics. A failed output
//! check exits with code 1.

mod ber;
mod host;
mod report;
mod serve;
mod spans;
mod stats;
mod workload;

use qec_decode::{Decoder, DecoderStats, DecodingHypergraph};
use qec_obs::MetricSnapshot;
use qec_serve::{DecodeService, ServeConfig};
use report::{json_escape, Metric};
use spans::Spans;
use stats::{median, percentile, quartile_spread, window_medians};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{BuildTimes, Spec};

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <1..=60> --trace <0|1>";

/// Timed `run_ber` slices that always run; the failure check and
/// `logical_error_rate` cover exactly these, so both repeat for a seed.
const CHECKED_SLICES: usize = 10;
/// Both timing metrics are read in the slowest tenth of their windows
/// (slices, or runs of `LATENCY_WINDOW` requests): `shots_per_s` is the
/// rate sustained in 90% of windows, `e2e_us` the window latency that
/// 90% of windows beat. On a shared host the slow phases form a steady
/// floor while the fast phases come and go, so the floor repeats across
/// runs far better than a median or a mean over the whole run.
const SLOW_TENTH: f64 = 0.1;
/// Consecutive open-loop requests per latency window.
const LATENCY_WINDOW: usize = 500;
/// Requests in the serve pool (recycled round-robin).
const SERVE_POOL: usize = 512;
/// Open-loop rate of `serve_surface_d5`, in 64-shot requests per second.
const OPEN_LOOP_RATE: f64 = 5_000.0;
/// Closed-loop in-flight window and slice length.
const CLOSED_WINDOW: usize = 8;
const CLOSED_SLICE_REQUESTS: usize = 1_000;
/// Large enough that the open loop never fills it at the seed.
const QUEUE_CAPACITY: usize = 4_096;
/// Traced run: at most this many untraced/traced pairs, of at most this
/// many shots each.
const TRACE_PAIRS: usize = 16;
const TRACE_SLICE_SHOTS: usize = 256 * 64;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=60).contains(s))
                        .ok_or_else(|| format!("--seconds must be 1..=60, got {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        spec: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What a run reports: the result line plus diagnostics for the stamp.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// `(key, raw JSON value)` pairs for the stamp line.
    diagnostics: Vec<(&'static str, String)>,
    /// Failed output checks, one line each; the run is correct when
    /// there are none.
    problems: Vec<String>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let steal_before = host::steal_ticks();
    let load_before = host::load_average();
    let mut outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    for m in outcome.metrics.iter().filter(|m| !m.value.is_finite()) {
        outcome.problems.push(format!("{} is not finite", m.name));
    }
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    let mut stamp = vec![
        ("workload", format!("\"{}\"", args.spec.name)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("nproc", host::nproc().to_string()),
        (
            "rustc",
            format!("\"{}\"", json_escape(&host::rustc_version())),
        ),
        ("profile", format!("\"{}\"", host::build_profile())),
        ("git", format!("\"{}\"", json_escape(&host::git_revision()))),
        (
            "steal_ticks",
            host::steal_ticks().saturating_sub(steal_before).to_string(),
        ),
        ("loadavg_start", format!("\"{load_before}\"")),
        ("loadavg_end", format!("\"{}\"", host::load_average())),
    ];
    stamp.extend(outcome.diagnostics.iter().cloned());
    let body: Vec<String> = stamp.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("{{\"perfbench\": {{{}}}}}", body.join(", "));
    let correct = outcome.problems.is_empty();
    println!(
        "{}",
        report::result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A built workload ready to run: the experiment and its decoder.
struct Ready {
    exp: qec_sched::MemoryExperiment,
    decoder: Arc<dyn Decoder + Send + Sync>,
    service: Option<DecodeService>,
    mechanisms: usize,
    hypergraph: Option<DecodingHypergraph>,
}

fn spawn_service(decoder: &Arc<dyn Decoder + Send + Sync>) -> DecodeService {
    DecodeService::new(
        Arc::clone(decoder),
        ServeConfig::new()
            .with_shards(1)
            .with_queue_capacity(QUEUE_CAPACITY),
    )
}

/// One from-scratch build — the service too, for serve workloads — and
/// its set-up seconds.
fn build_ready(spec: &Spec, mut spans: Option<&mut Spans>) -> (Ready, f64, BuildTimes) {
    let (built, times) = workload::build(spec, spans.as_deref_mut());
    let mechanisms = built.pipeline.dem().mechanisms().len();
    let hypergraph = spans
        .is_some()
        .then(|| DecodingHypergraph::new(built.pipeline.dem()));
    let mut setup = times.total_s();
    let decoder = built.pipeline.into_shared_decoder();
    let service = spec.serve.then(|| {
        let t = Instant::now();
        let service = spawn_service(&decoder);
        setup += t.elapsed().as_secs_f64();
        service
    });
    let ready = Ready {
        exp: built.exp,
        decoder,
        service,
        mechanisms,
        hypergraph,
    };
    (ready, setup, times)
}

fn setup_metric(setup: &[f64]) -> Metric {
    Metric::new("setup_s", median(setup).unwrap_or(0.0), "s")
}

fn rss_metric() -> Metric {
    Metric::new("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0), "MB")
}

/// `k` logical failures in `n` shots is consistent with the reference
/// rate: within 5 binomial sigmas plus a 20% allowance for the
/// reference's own uncertainty.
fn failures_in_band(k: usize, n: usize, reference: f64) -> bool {
    let mean = n as f64 * reference;
    let sigma = (mean * (1.0 - reference)).sqrt();
    let slack = 5.0 * sigma + 0.2 * mean + 3.0;
    (k as f64 - mean).abs() <= slack
}

fn slow_rate(rates: &[f64]) -> f64 {
    percentile(rates, SLOW_TENTH).unwrap_or(0.0)
}

fn slow_time(times: &[f64]) -> f64 {
    percentile(times, 1.0 - SLOW_TENTH).unwrap_or(0.0)
}

fn spread(values: &[f64]) -> String {
    format!("{:?}", quartile_spread(values).unwrap_or(0.0))
}

/// The untraced run is `spec.setup_builds` rounds. Each round builds the
/// workload from scratch (one `setup_s` sample, replacing the previous
/// build), warms it untimed, then measures for its share of `--seconds`.
/// Spreading the builds over the run lets set-up and steady state see
/// the same host phases.
fn untraced(args: &Args) -> Outcome {
    if args.spec.serve {
        untraced_serve(args)
    } else {
        untraced_ber(args)
    }
}

fn round_budget(args: &Args) -> Duration {
    Duration::from_secs_f64(args.seconds as f64 / args.spec.setup_builds as f64)
}

fn untraced_ber(args: &Args) -> Outcome {
    let spec = args.spec;
    let mut setup = Vec::new();
    let mut slices: Vec<ber::Slice> = Vec::new();
    let mut ready = None;
    for round in 0..spec.setup_builds {
        drop(ready.take());
        let (built, setup_s, _) = build_ready(spec, None);
        setup.push(setup_s);
        let decoder: &(dyn Decoder + Send) = built.decoder.as_ref();
        let circuit = &built.exp.circuit;
        let warm_seed = ber::slice_seed(args.seed, u64::MAX - round as u64);
        ber::run_slice(circuit, decoder, spec.slice_shots, warm_seed);
        let start = Instant::now();
        loop {
            let i = slices.len() as u64;
            slices.push(ber::run_slice(
                circuit,
                decoder,
                spec.slice_shots,
                ber::slice_seed(args.seed, i),
            ));
            if start.elapsed() >= round_budget(args) {
                break;
            }
        }
        ready = Some(built);
    }
    let ready = ready.expect("at least one round");
    // The checked slices always run, whatever the host speed.
    while slices.len() < CHECKED_SLICES {
        let i = slices.len() as u64;
        slices.push(ber::run_slice(
            &ready.exp.circuit,
            ready.decoder.as_ref(),
            spec.slice_shots,
            ber::slice_seed(args.seed, i),
        ));
    }
    let shots_per_slice = spec.slice_shots.div_ceil(64) * 64;
    let rates: Vec<f64> = slices
        .iter()
        .map(|s| shots_per_slice as f64 / s.secs)
        .collect();
    let batch_us: Vec<f64> = slices
        .iter()
        .map(|s| s.secs * 1e6 / (shots_per_slice / 64) as f64)
        .collect();
    let checked = &slices[..CHECKED_SLICES];
    let checked_shots: usize = checked.iter().map(|s| s.shots).sum();
    let checked_failures: usize = checked.iter().map(|s| s.failures).sum();
    let shots: usize = slices.iter().map(|s| s.shots).sum();
    let giveups: usize = slices.iter().map(|s| s.giveups).sum();
    let mut problems = Vec::new();
    if !failures_in_band(checked_failures, checked_shots, spec.reference_ler) {
        problems.push(format!(
            "{checked_failures} logical failures in {checked_shots} shots is outside the band around {}",
            spec.reference_ler
        ));
    }
    Outcome {
        attempted: shots as u64,
        failed: giveups as u64,
        metrics: vec![
            setup_metric(&setup),
            Metric::new("shots_per_s", slow_rate(&rates), "shots/s"),
            rss_metric(),
            Metric::new("e2e_us", slow_time(&batch_us), "us"),
        ],
        diagnostics: vec![
            ("slices", slices.len().to_string()),
            ("slice_spread", spread(&rates)),
            ("setup_spread", spread(&setup)),
            (
                "logical_error_rate",
                format!("{:?}", ratio(checked_failures as f64, checked_shots as f64)),
            ),
            ("logical_failures", checked_failures.to_string()),
            ("checked_shots", checked_shots.to_string()),
            (
                "failed_share",
                format!("{:?}", ratio(giveups as f64, shots as f64)),
            ),
        ],
        problems,
    }
}

fn serve_problems(tally: &serve::Tally) -> Vec<String> {
    let mut problems = Vec::new();
    if tally.checked == 0 {
        problems.push("no serve response was checked".to_string());
    }
    if tally.mismatched != 0 {
        problems.push(format!(
            "{} of {} checked serve responses differ from offline decode_into",
            tally.mismatched, tally.checked
        ));
    }
    problems
}

/// Each round: build and spawn, warm, then half the round open loop and
/// half closed loop, so both phases see the same host.
fn untraced_serve(args: &Args) -> Outcome {
    let spec = args.spec;
    let mut setup = Vec::new();
    let mut pool = None;
    let mut open = serve::OpenLoop::default();
    let mut closed = serve::ClosedLoop::default();
    let mut ready = None;
    let half = round_budget(args) / 2;
    for _ in 0..spec.setup_builds {
        drop(ready.take());
        let (built, setup_s, _) = build_ready(spec, None);
        setup.push(setup_s);
        let pool = pool.get_or_insert_with(|| {
            serve::RequestPool::sample(
                &built.exp.circuit,
                built.decoder.as_ref(),
                SERVE_POOL,
                args.seed,
            )
        });
        let service = built
            .service
            .as_ref()
            .expect("serve workload has a service");
        serve::closed_loop(
            service,
            pool,
            CLOSED_WINDOW,
            CLOSED_SLICE_REQUESTS / 10,
            Duration::from_millis(50),
        );
        open.merge(serve::open_loop(service, pool, OPEN_LOOP_RATE, half));
        closed.merge(serve::closed_loop(
            service,
            pool,
            CLOSED_WINDOW,
            CLOSED_SLICE_REQUESTS,
            half,
        ));
        ready = Some(built);
    }
    let mut tally = open.tally;
    tally.add(&closed.tally);
    let shots_per_slice = (CLOSED_SLICE_REQUESTS * 64) as f64;
    let rates: Vec<f64> = closed
        .slice_secs
        .iter()
        .map(|s| shots_per_slice / s)
        .collect();
    Outcome {
        attempted: tally.submitted,
        failed: tally.failed(),
        metrics: vec![
            setup_metric(&setup),
            Metric::new("shots_per_s", slow_rate(&rates), "shots/s"),
            rss_metric(),
            Metric::new(
                "e2e_us",
                slow_time(&window_medians(&open.e2e_us, LATENCY_WINDOW)),
                "us",
            ),
        ],
        diagnostics: vec![
            (
                "e2e_p50_us",
                format!("{:?}", median(&open.e2e_us).unwrap_or(0.0)),
            ),
            (
                "e2e_p90_us",
                format!("{:?}", percentile(&open.e2e_us, 0.9).unwrap_or(0.0)),
            ),
            ("open_loop_requests", open.e2e_us.len().to_string()),
            ("open_loop_rate", format!("{OPEN_LOOP_RATE:?}")),
            ("closed_slices", closed.slice_secs.len().to_string()),
            ("slice_spread", spread(&rates)),
            ("setup_spread", spread(&setup)),
            (
                "gen_lateness_max_us",
                format!("{:?}", percentile(&open.lateness_us, 1.0).unwrap_or(0.0)),
            ),
            (
                "failed_share",
                format!("{:?}", ratio(tally.failed() as f64, tally.submitted as f64)),
            ),
            ("checked_responses", tally.checked.to_string()),
        ],
        problems: serve_problems(&tally),
    }
}

/// Replays one slice and adds the decoder's tier counters over it to
/// `tiers` (give-ups of every kind count as `giveups_stalled`).
fn counted_replay(
    spans: &mut Spans,
    ready: &Ready,
    hypergraph: &DecodingHypergraph,
    shots: usize,
    seed: u64,
    tiers: &mut DecoderStats,
) -> ber::Layers {
    let decoder: &(dyn Decoder + Send) = ready.decoder.as_ref();
    let before = decoder.stats();
    let layers = ber::replay(spans, &ready.exp.circuit, decoder, hypergraph, shots, seed);
    let d = decoder.stats().delta(&before);
    tiers.decodes += d.decodes;
    tiers.oracle_hits += d.oracle_hits;
    tiers.flag_oracle_hits += d.flag_oracle_hits;
    tiers.sparse_hits += d.sparse_hits;
    tiers.oracle_misses += d.oracle_misses;
    tiers.sparse_blossom += d.sparse_blossom;
    tiers.blossom_solves += d.blossom_solves;
    tiers.giveups_stalled += d.giveups();
    layers
}

/// Sum of the decoder's `build.*.bytes` gauges: the path indexes it
/// keeps resident.
fn index_bytes(decoder: &dyn Decoder) -> u64 {
    decoder.metrics().map_or(0, |registry| {
        registry
            .snapshot()
            .metrics
            .iter()
            .filter(|(name, _)| name.starts_with("build.") && name.ends_with(".bytes"))
            .map(|(_, value)| match value {
                MetricSnapshot::Gauge(v) => *v,
                _ => 0,
            })
            .sum()
    })
}

fn traced(args: &Args) -> Outcome {
    let spec = args.spec;
    let mut spans = Spans::new();
    let root = spans.enter("perfbench.traced");
    let mut builds = Vec::new();
    let mut ready = None;
    for _ in 0..spec.setup_builds {
        drop(ready.take());
        let (built, _, times) = build_ready(spec, Some(&mut spans));
        builds.push(times);
        ready = Some(built);
    }
    let ready = ready.expect("at least one build");
    let circuit = &ready.exp.circuit;
    let decoder: &(dyn Decoder + Send) = ready.decoder.as_ref();
    let hypergraph = ready
        .hypergraph
        .as_ref()
        .expect("traced builds keep the hypergraph");
    let layer = |f: fn(&BuildTimes) -> f64| {
        median(&builds.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };

    // Untraced run_ber and its traced replay on the same shots, in
    // alternating order so host drift hits both sides alike.
    let shots = spec.slice_shots.min(TRACE_SLICE_SHOTS);
    ber::run_slice(
        circuit,
        decoder,
        shots,
        ber::slice_seed(args.seed, u64::MAX),
    );
    let budget = Duration::from_secs_f64(args.seconds as f64 * 0.6);
    let start = Instant::now();
    let mut untraced_ns = 0u64;
    let mut layers = ber::Layers::default();
    let mut tiers = DecoderStats::default();
    let mut problems = Vec::new();
    let mut pairs = 0usize;
    while pairs < 2 || (pairs < TRACE_PAIRS && start.elapsed() < budget) {
        let seed = ber::slice_seed(args.seed, pairs as u64);
        let (u, t) = if pairs.is_multiple_of(2) {
            let u = ber::run_slice(circuit, decoder, shots, seed);
            (
                u,
                counted_replay(&mut spans, &ready, hypergraph, shots, seed, &mut tiers),
            )
        } else {
            let t = counted_replay(&mut spans, &ready, hypergraph, shots, seed, &mut tiers);
            (ber::run_slice(circuit, decoder, shots, seed), t)
        };
        if u.failures != t.failures {
            problems.push(format!(
                "replay of seed {seed} found {} failures, run_ber found {}",
                t.failures, u.failures
            ));
        }
        untraced_ns += (u.secs * 1e9) as u64;
        layers.add(&t);
        pairs += 1;
    }

    // The same decoder through qec-serve: the workload's own rate for a
    // serve workload, otherwise 30% of the replay's decode capacity.
    let decode_ns_per_shot = ratio(layers.decode_ns as f64, layers.shots as f64);
    let rate = if spec.serve {
        OPEN_LOOP_RATE
    } else {
        0.3 * ratio(1e9, decode_ns_per_shot * 64.0)
    };
    let open_span = spans.enter("serve.open_loop");
    let own_service;
    let service = match &ready.service {
        Some(service) => service,
        None => {
            own_service = spawn_service(&ready.decoder);
            &own_service
        }
    };
    let serve_secs = args.seconds as f64 * 0.25;
    let pool_size = ((rate * serve_secs).ceil() as usize).clamp(2, SERVE_POOL);
    let pool = serve::RequestPool::sample(circuit, ready.decoder.as_ref(), pool_size, args.seed);
    let open = serve::open_loop(service, &pool, rate, Duration::from_secs_f64(serve_secs));
    spans.close(open_span);
    problems.extend(serve_problems(&open.tally));
    spans.close(root);

    let trace_path = std::env::current_exe().ok().and_then(|exe| {
        exe.parent()
            .map(|dir| dir.join(format!("perfbench-trace-{}-{}.jsonl", spec.name, args.seed)))
    });
    if let Some(path) = &trace_path {
        match spans.write_jsonl(path) {
            Ok(()) => eprintln!("perfbench: trace written to {}", path.display()),
            Err(err) => eprintln!("perfbench: cannot write trace {}: {err}", path.display()),
        }
    }

    let decodes = tiers.decodes as f64;
    let shots_f = layers.shots as f64;
    let p50 = |v: &[f64]| median(v).unwrap_or(0.0);
    let p90 = |v: &[f64]| percentile(v, 0.9).unwrap_or(0.0);
    let metrics = vec![
        Metric::new(
            "core.layer_coverage",
            ratio(layers.layer_sum_ns() as f64, untraced_ns as f64),
            "ratio",
        ),
        Metric::new(
            "core.trace_overhead",
            ratio(layers.wall_ns as f64, untraced_ns as f64),
            "x",
        ),
        Metric::new(
            "core.compare_ns_per_shot",
            ratio(layers.compare_ns as f64, shots_f),
            "ns",
        ),
        Metric::new(
            "sim.sample_ns_per_shot",
            ratio(layers.sample_ns as f64, shots_f),
            "ns",
        ),
        Metric::new(
            "sim.extract_ns_per_shot",
            ratio(layers.extract_ns as f64, shots_f),
            "ns",
        ),
        Metric::new(
            "sim.empty_shot_share",
            ratio(layers.empty as f64, shots_f),
            "ratio",
        ),
        Metric::new("sim.dem_build_s", layer(|b| b.dem_s), "s"),
        Metric::new("sim.dem_mechanisms", ready.mechanisms as f64, "count"),
        Metric::new("code.build_s", layer(|b| b.code_s), "s"),
        Metric::new("arch.fpn_build_s", layer(|b| b.fpn_s), "s"),
        Metric::new("sched.circuit_build_s", layer(|b| b.circuit_s), "s"),
        Metric::new(
            "decode.build_s",
            layer(|b| (b.pipeline_s - b.dem_s).max(0.0)),
            "s",
        ),
        Metric::new("decode.index_bytes", index_bytes(decoder) as f64, "bytes"),
        Metric::new(
            "decode.ns_per_decoded_shot",
            ratio(layers.decode_ns as f64, layers.decoded as f64),
            "ns",
        ),
        Metric::new("decode.decodes", decodes, "count"),
        Metric::new(
            "decode.defects_mean",
            ratio(layers.defects as f64, layers.decoded as f64),
            "count",
        ),
        Metric::new(
            "decode.flagged_shot_share",
            ratio(layers.flagged as f64, layers.decoded as f64),
            "ratio",
        ),
        Metric::new(
            "decode.tier.oracle_share",
            ratio(tiers.oracle_hits as f64, decodes),
            "ratio",
        ),
        Metric::new(
            "decode.tier.flag_oracle_share",
            ratio(tiers.flag_oracle_hits as f64, decodes),
            "ratio",
        ),
        Metric::new(
            "decode.tier.sparse_share",
            ratio(tiers.sparse_hits as f64, decodes),
            "ratio",
        ),
        Metric::new(
            "decode.tier.dijkstra_share",
            ratio(tiers.oracle_misses as f64, decodes),
            "ratio",
        ),
        Metric::new(
            "decode.tier.sparse_blossom_share",
            ratio(tiers.sparse_blossom as f64, decodes),
            "ratio",
        ),
        Metric::new(
            "decode.blossom_solves_per_decode",
            ratio(tiers.blossom_solves as f64, decodes),
            "count",
        ),
        Metric::new("decode.giveups", tiers.giveups_stalled as f64, "count"),
        Metric::new("serve.queue_us_p50", p50(&open.queue_us), "us"),
        Metric::new("serve.queue_us_p90", p90(&open.queue_us), "us"),
        Metric::new("serve.decode_us_p50", p50(&open.decode_us), "us"),
        Metric::new("serve.overhead_us_p50", p50(&open.overhead_us), "us"),
        Metric::new(
            "serve.queue_depth_max",
            open.queue_depth_max as f64,
            "count",
        ),
        Metric::new("serve.rejected", open.tally.rejected as f64, "count"),
        Metric::new("serve.gen_lateness_us_p90", p90(&open.lateness_us), "us"),
    ];
    Outcome {
        attempted: layers.shots as u64 + open.tally.submitted,
        failed: tiers.giveups_stalled + open.tally.failed(),
        metrics,
        diagnostics: vec![
            ("pairs", pairs.to_string()),
            ("replay_shots", layers.shots.to_string()),
            ("replay_failures", layers.failures.to_string()),
            ("serve_rate", format!("{rate:?}")),
            ("serve_requests", open.e2e_us.len().to_string()),
            (
                "trace_file",
                format!(
                    "\"{}\"",
                    json_escape(&trace_path.map_or(String::new(), |p| p.display().to_string()))
                ),
            ),
        ],
        problems,
    }
}
