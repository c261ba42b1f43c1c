//! Differential tests: the streaming decode service (`qec-serve`)
//! against the offline batch path (`run_ber` / `decode_into`).
//!
//! The service's contract is that putting a queue, worker shards and
//! deadlines between a syndrome and its decoder changes *when* a
//! correction is produced, never *what* it is: corrections must be
//! bit-identical to offline `decode_into` on the same syndromes, and
//! replaying `run_ber`'s exact batch schedule through the service must
//! reproduce its failure count — for any shard count.

use fpn_repro::prelude::*;
use qec_math::rng::Xoshiro256StarStar;
use qec_math::BitVec;
use qec_obs::{JsonValue, Registry};
use qec_serve::{DecodeService, PendingResponse, ServeConfig, ServeError, SubmitError};
use qec_sim::FrameBatch;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Replays `run_ber`'s exact batch schedule: batch `b` draws from the
/// forked RNG stream `(seed, b)`, shots are extracted in batch order.
/// Returns every executed shot's (detectors, actual observables).
fn sample_shots(circuit: &Circuit, shots: usize, seed: u64) -> Vec<(BitVec, BitVec)> {
    let sampler = FrameSampler::new(circuit);
    let mut scratch = FrameBatch::new();
    let mut dets = BitVec::zeros(0);
    let mut actual = BitVec::zeros(0);
    let mut out = Vec::new();
    for b in 0..shots.div_ceil(64) {
        let mut rng = Xoshiro256StarStar::from_seed_stream(seed, b as u64);
        let batch = sampler.sample_batch_with(&mut scratch, &mut rng);
        for shot in 0..64 {
            batch.detector_bits_into(shot, &mut dets);
            batch.observable_bits_into(shot, &mut actual);
            out.push((dets.clone(), actual.clone()));
        }
    }
    out
}

/// The shared differential: `run_ber` offline vs the service replaying
/// the identical shots, across 1/2/4 shards.
fn assert_service_matches_offline(
    label: &str,
    circuit: &Circuit,
    decoder: Arc<dyn Decoder + Send + Sync>,
    shots: usize,
    seed: u64,
) {
    let offline = run_ber(circuit, decoder.as_ref(), shots, seed, 2);
    let per_shot = sample_shots(circuit, shots, seed);
    assert_eq!(per_shot.len(), offline.shots, "{label}: shot schedules");

    // Offline reference corrections for every decoded (nonzero) shot,
    // through the same decode_into hot path run_ber uses.
    let mut scratch = DecodeScratch::new();
    let mut out = BitVec::zeros(0);
    let mut reference = Vec::new();
    for (dets, _) in per_shot.iter().filter(|(d, _)| !d.is_zero()) {
        decoder.decode_into(dets, &mut scratch, &mut out);
        reference.push(out.clone());
    }
    assert!(
        !reference.is_empty(),
        "{label}: workload must decode something"
    );

    for shards in [1usize, 2, 4] {
        // A fresh registry per service so the serve.* assertions below
        // are per-configuration, not accumulated across shard counts.
        let service = DecodeService::new(
            Arc::clone(&decoder),
            ServeConfig::new()
                .with_shards(shards)
                .with_queue_capacity(64)
                .with_metrics(Registry::new()),
        );
        let mut pending: Vec<PendingResponse> = Vec::new();
        for request in per_shot
            .iter()
            .filter(|(d, _)| !d.is_zero())
            .map(|(d, _)| d.clone())
            .collect::<Vec<_>>()
            .chunks(16)
        {
            pending.push(
                service
                    .try_submit(request.to_vec())
                    .expect("queue sized for the whole replay"),
            );
        }
        let requests = pending.len();
        let mut served = Vec::new();
        for p in pending {
            let resp = p.wait().expect("no deadlines: every request completes");
            assert!(resp.shard < shards, "{label}: shard id in range");
            assert!(resp.timings.total_ns >= resp.timings.decode_ns);
            served.extend(resp.corrections);
        }
        assert_eq!(
            served, reference,
            "{label}: service corrections must be bit-identical to offline decode_into ({shards} shards)"
        );

        // Failure accounting under run_ber's rule (zero-syndrome shots
        // are never decoded; they fail iff an observable flipped).
        let mut failures = 0usize;
        let mut next = 0usize;
        for (dets, actual) in &per_shot {
            if dets.is_zero() {
                if !actual.is_zero() {
                    failures += 1;
                }
            } else {
                if &served[next] != actual {
                    failures += 1;
                }
                next += 1;
            }
        }
        assert_eq!(
            failures, offline.failures,
            "{label}: service replay must reproduce run_ber's failure count ({shards} shards)"
        );

        // Per-request SLO accounting: every completed request recorded
        // one sample in each latency histogram, and shot/request
        // counters reconcile exactly.
        let snap = service.metrics().snapshot();
        assert_eq!(snap.counter("serve.completed"), requests as u64);
        assert_eq!(snap.counter("serve.shots"), reference.len() as u64);
        assert_eq!(snap.counter("serve.rejected"), 0);
        assert_eq!(snap.counter("serve.deadline_misses"), 0);
        for hist in ["serve.queue_ns", "serve.decode_ns", "serve.e2e_ns"] {
            let h = snap.histogram(hist).expect("latency histogram exists");
            assert_eq!(h.count, requests as u64, "{label}: {hist} sample count");
            assert!(h.quantile(0.999) >= h.quantile(0.5), "{label}: {hist}");
        }
        // Every submitted request was picked up, so the depth gauge
        // must have reconciled back to zero after the drain.
        assert_eq!(
            snap.gauge("serve.queue_depth"),
            0,
            "{label}: queue depth must reconcile to zero after drain ({shards} shards)"
        );
    }
}

#[test]
fn service_matches_run_ber_on_d5_surface() {
    let code = rotated_surface_code(5);
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
    let noise = NoiseModel::new(1e-3);
    let exp = build_memory_circuit(&code, &fpn, Some(&noise), 3, Basis::Z);
    let decoder =
        DecodingPipeline::new(&code, &exp, DecoderKind::FlaggedMwpm, &noise).into_shared_decoder();
    assert_service_matches_offline("d5_surface", &exp.circuit, decoder, 256, 2027);
}

#[test]
fn service_matches_run_ber_on_hyperbolic_fixture() {
    // The 1224-detector {4,5} hyperbolic DEM — above the dense-oracle
    // guard, so the service exercises the sparse path tier. p = 3e-4
    // keeps defect density (and debug-mode runtime) moderate.
    let (code, exp, noise) = qec_testkit::hyperbolic_memory_experiment_at(3e-4);
    let decoder =
        DecodingPipeline::new(&code, &exp, DecoderKind::FlaggedMwpm, &noise).into_shared_decoder();
    assert_service_matches_offline("hyperbolic", &exp.circuit, decoder, 64, 4099);
}

#[test]
fn service_matches_run_ber_with_bp_osd_decoder() {
    // The BP+OSD tier behind the service: the queue/shard machinery
    // must be exactly as transparent for the hypergraph decoder as for
    // matching — same corrections, same failure count, any shard
    // count. Also pins that a shared `BpOsdScratch` inside each shard
    // worker reproduces the fresh-scratch corrections.
    let code = rotated_surface_code(3);
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
    let noise = NoiseModel::new(2e-3);
    let exp = build_memory_circuit(&code, &fpn, Some(&noise), 3, Basis::Z);
    let decoder =
        DecodingPipeline::new(&code, &exp, DecoderKind::PlainBpOsd, &noise).into_shared_decoder();
    assert_service_matches_offline("d3_surface_bp_osd", &exp.circuit, decoder, 256, 2029);
}

#[test]
fn service_backpressure_rejects_on_a_real_decoder() {
    // One shard, capacity 2: while a bulky request occupies the shard,
    // the queue can absorb exactly two more; further submissions must
    // be rejected with WouldBlock rather than buffered.
    let code = rotated_surface_code(5);
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
    let noise = NoiseModel::new(1e-3);
    let exp = build_memory_circuit(&code, &fpn, Some(&noise), 3, Basis::Z);
    let decoder =
        DecodingPipeline::new(&code, &exp, DecoderKind::FlaggedMwpm, &noise).into_shared_decoder();
    let busy: Vec<BitVec> = sample_shots(&exp.circuit, 512, 7)
        .into_iter()
        .filter(|(d, _)| !d.is_zero())
        .map(|(d, _)| d)
        .collect();
    assert!(busy.len() > 64);

    let service = DecodeService::new(
        Arc::clone(&decoder),
        ServeConfig::new()
            .with_shards(1)
            .with_queue_capacity(2)
            .with_metrics(Registry::new()),
    );
    let mut pending = vec![service.try_submit(busy.clone()).expect("bulky request")];
    let mut rejected = false;
    for _ in 0..8 {
        match service.try_submit(vec![busy[0].clone()]) {
            Ok(p) => pending.push(p),
            Err(e) => {
                assert_eq!(e, SubmitError::WouldBlock);
                rejected = true;
                break;
            }
        }
    }
    assert!(rejected, "bounded queue must reject, not grow");
    // Everything accepted still completes, and the rejection is
    // visible in the serve.rejected counter.
    for p in pending {
        p.wait().expect("accepted requests complete");
    }
    assert!(service.metrics().snapshot().counter("serve.rejected") >= 1);
}

#[test]
fn wrong_length_request_is_refused_and_the_shard_keeps_serving() {
    // One shard: a malformed syndrome reaching it would panic inside
    // the decoder and leave nothing to serve the next request.
    let code = rotated_surface_code(3);
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
    let noise = NoiseModel::new(2e-3);
    let exp = build_memory_circuit(&code, &fpn, Some(&noise), 3, Basis::Z);
    let decoder =
        DecodingPipeline::new(&code, &exp, DecoderKind::FlaggedMwpm, &noise).into_shared_decoder();
    let shots: Vec<BitVec> = sample_shots(&exp.circuit, 256, 11)
        .into_iter()
        .filter(|(d, _)| !d.is_zero())
        .map(|(d, _)| d)
        .collect();
    assert!(!shots.is_empty());
    let n = decoder.num_detectors();
    assert_eq!(shots[0].len(), n);
    let service = DecodeService::new(
        Arc::clone(&decoder),
        ServeConfig::new()
            .with_shards(1)
            .with_queue_capacity(8)
            .with_metrics(Registry::new()),
    );
    for bad in [BitVec::zeros(n + 1), BitVec::zeros(n - 1)] {
        // One malformed syndrome rejects the whole request.
        let err = service
            .try_submit(vec![shots[0].clone(), bad])
            .expect_err("wrong-length syndrome must be refused");
        assert_eq!(err, SubmitError::InvalidRequest);
    }
    let served = service
        .try_submit(shots.clone())
        .expect("valid request after a refusal")
        .wait()
        .expect("the shard is still alive");
    let mut scratch = DecodeScratch::new();
    let mut out = BitVec::zeros(0);
    assert_eq!(served.corrections.len(), shots.len());
    for (dets, got) in shots.iter().zip(&served.corrections) {
        decoder.decode_into(dets, &mut scratch, &mut out);
        assert_eq!(got, &out, "service diverged from offline decode_into");
    }
}

/// A real decoder that panics on one marked syndrome — the mock for a
/// decoder bug that only some inputs reach.
struct PanicsOnMarked {
    inner: Arc<dyn Decoder + Send + Sync>,
    marked: BitVec,
}

impl Decoder for PanicsOnMarked {
    fn decode_into(&self, detectors: &BitVec, scratch: &mut DecodeScratch, out: &mut BitVec) {
        assert!(detectors != &self.marked, "marked syndrome");
        self.inner.decode_into(detectors, scratch, out);
    }

    fn num_observables(&self) -> usize {
        self.inner.num_observables()
    }

    fn num_detectors(&self) -> usize {
        self.inner.num_detectors()
    }
}

#[test]
fn decoder_panic_fails_one_request_and_the_shard_keeps_serving() {
    let code = rotated_surface_code(3);
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
    let noise = NoiseModel::new(2e-3);
    let exp = build_memory_circuit(&code, &fpn, Some(&noise), 3, Basis::Z);
    let inner =
        DecodingPipeline::new(&code, &exp, DecoderKind::FlaggedMwpm, &noise).into_shared_decoder();
    let shots: Vec<BitVec> = sample_shots(&exp.circuit, 256, 13)
        .into_iter()
        .filter(|(d, _)| !d.is_zero())
        .map(|(d, _)| d)
        .collect();
    assert!(shots.len() > 1);
    let n = inner.num_detectors();
    let marked = BitVec::from_ones(n, 0..n);
    assert!(!shots.contains(&marked));
    let metrics = Registry::new();
    // One shard: if the panic killed it, nothing would serve the rest.
    let service = DecodeService::new(
        Arc::new(PanicsOnMarked {
            inner: Arc::clone(&inner),
            marked: marked.clone(),
        }),
        ServeConfig::new()
            .with_shards(1)
            .with_queue_capacity(8)
            .with_metrics(metrics.clone()),
    );
    // The panic strikes after the request's first shot has used the
    // shard's scratch.
    let failed = service
        .try_submit(vec![shots[0].clone(), marked])
        .expect("submit")
        .wait();
    assert_eq!(failed.unwrap_err(), ServeError::DecodeFailed);
    let served = service
        .try_submit(shots.clone())
        .expect("submit after a panic")
        .wait()
        .expect("the shard is still alive");
    let mut scratch = DecodeScratch::new();
    let mut out = BitVec::zeros(0);
    assert_eq!(served.corrections.len(), shots.len());
    for (dets, got) in shots.iter().zip(&served.corrections) {
        inner.decode_into(dets, &mut scratch, &mut out);
        assert_eq!(got, &out, "service diverged from offline decode_into");
    }
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("serve.decode_panics"), 1);
    assert_eq!(snap.counter("serve.completed"), 1);
    assert_eq!(
        snap.counter("serve.requests"),
        snap.counter("serve.completed")
            + snap.counter("serve.deadline_misses")
            + snap.counter("serve.decode_panics")
    );
}

// ---------------------------------------------------------------------------
// Live telemetry plane: /metrics, /healthz, /snapshot over real HTTP.
// ---------------------------------------------------------------------------

/// Minimal HTTP/1.1 GET (the tests' stand-in for `curl`): returns the
/// status code and the response body.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    http_request(addr, &format!("GET {path} HTTP/1.1\r\nHost: qec\r\n\r\n"))
}

fn http_request(addr: SocketAddr, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect telemetry endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream
        .write_all(request.as_bytes())
        .expect("write HTTP request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read HTTP response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("HTTP status line")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Polls `healthz` over HTTP until the verdict matches, or panics.
fn wait_for_status(addr: SocketAddr, want: &str) -> (u16, String) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let (code, body) = http_get(addr, "/healthz");
        let status = JsonValue::parse(&body)
            .expect("healthz is valid JSON")
            .get("status")
            .and_then(|v| v.as_str().map(str::to_string))
            .expect("healthz has a status key");
        if status == want {
            return (code, body);
        }
        assert!(
            std::time::Instant::now() < deadline,
            "healthz never reached {want:?}; last: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn telemetry_endpoints_serve_a_live_service_under_load() {
    let code = rotated_surface_code(3);
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
    let noise = NoiseModel::new(2e-3);
    let exp = build_memory_circuit(&code, &fpn, Some(&noise), 3, Basis::Z);
    let decoder =
        DecodingPipeline::new(&code, &exp, DecoderKind::FlaggedMwpm, &noise).into_shared_decoder();
    let service = DecodeService::new(
        Arc::clone(&decoder),
        ServeConfig::new()
            .with_shards(2)
            .with_queue_capacity(64)
            .with_metrics(Registry::new())
            .with_telemetry_addr("127.0.0.1:0"),
    );
    let addr = service.telemetry_addr().expect("telemetry listener bound");

    // Load the service, scraping while requests are in flight.
    let shots: Vec<BitVec> = sample_shots(&exp.circuit, 256, 97)
        .into_iter()
        .filter(|(d, _)| !d.is_zero())
        .map(|(d, _)| d)
        .collect();
    assert!(!shots.is_empty());
    let pending: Vec<PendingResponse> = shots
        .chunks(8)
        .map(|c| service.try_submit(c.to_vec()).expect("submit"))
        .collect();

    let (code_mid, _) = http_get(addr, "/healthz");
    assert_eq!(code_mid, 200, "health scrape mid-load answers");

    let offline = {
        let mut scratch = DecodeScratch::new();
        let mut out = BitVec::zeros(0);
        shots
            .iter()
            .map(|d| {
                decoder.decode_into(d, &mut scratch, &mut out);
                out.clone()
            })
            .collect::<Vec<_>>()
    };
    let mut served = Vec::new();
    for p in pending {
        served.extend(p.wait().expect("completes").corrections);
    }
    assert_eq!(
        served, offline,
        "corrections stay bit-identical with telemetry scraping in flight"
    );

    // /metrics: a valid exposition carrying both the cumulative
    // registry series and the rolling-window gauges.
    let (code, metrics) = http_get(addr, "/metrics");
    assert_eq!(code, 200);
    assert!(metrics.contains("# TYPE serve_requests counter"));
    assert!(metrics.contains("# TYPE serve_e2e_ns histogram"));
    assert!(metrics.contains("serve_e2e_ns_bucket{le=\"+Inf\"}"));
    assert!(metrics.contains("serve_completed_per_sec{window=\"10s\"}"));
    for line in metrics.lines().filter(|l| !l.starts_with('#')) {
        let (_, value) = line.rsplit_once(' ').expect("sample line");
        value.parse::<f64>().expect("sample value parses");
    }

    // /healthz: valid JSON, healthy verdict, all report keys present.
    let (code, health) = http_get(addr, "/healthz");
    assert_eq!(code, 200);
    let health = JsonValue::parse(&health).expect("healthz parses");
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    for key in [
        "stalled_shards",
        "shards",
        "queue_depth",
        "queue_depth_max_10s",
        "deadline_miss_per_sec_10s",
        "rejected_per_sec_10s",
        "uptime_ns",
    ] {
        assert!(health.get(key).is_some(), "healthz reports {key}");
    }
    assert_eq!(health.get("shards").unwrap().as_array().unwrap().len(), 2);
    // The queue gauge reconciled to zero after the drain, while the
    // windowed max remembers the burst that just passed through.
    assert_eq!(health.get("queue_depth").unwrap().as_u64(), Some(0));
    assert!(
        health.get("queue_depth_max_10s").unwrap().as_u64() >= Some(1),
        "rolling max must remember the burst: {health}"
    );

    // /snapshot: the full registry as JSON.
    let (code, snapshot) = http_get(addr, "/snapshot");
    assert_eq!(code, 200);
    let snapshot = JsonValue::parse(&snapshot).expect("snapshot parses");
    assert!(snapshot.get("serve.requests").is_some());
    assert!(snapshot.get("serve.e2e_ns").is_some());

    // Unknown paths and non-GET methods are refused, not crashed on.
    assert_eq!(http_get(addr, "/nope").0, 404);
    assert_eq!(
        http_request(addr, "POST /metrics HTTP/1.1\r\nHost: qec\r\n\r\n").0,
        405
    );
}

/// A decoder that blocks inside `decode` until its gate opens — the
/// mock for a wedged shard.
struct GatedDecoder {
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl Decoder for GatedDecoder {
    fn decode_into(&self, detectors: &BitVec, _: &mut DecodeScratch, out: &mut BitVec) {
        let (lock, cvar) = &*self.gate;
        let mut open = lock.lock().expect("gate lock");
        while !*open {
            open = cvar.wait(open).expect("gate lock");
        }
        out.copy_from(detectors);
    }

    fn num_observables(&self) -> usize {
        8
    }

    fn num_detectors(&self) -> usize {
        8
    }
}

fn open_gate(gate: &Arc<(Mutex<bool>, Condvar)>) {
    let (lock, cvar) = &**gate;
    *lock.lock().expect("gate lock") = true;
    cvar.notify_all();
}

#[test]
fn health_flips_degraded_on_a_stalled_shard_and_recovers() {
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let service = DecodeService::new(
        Arc::new(GatedDecoder {
            gate: Arc::clone(&gate),
        }),
        ServeConfig::new()
            .with_shards(2)
            .with_queue_capacity(8)
            .with_metrics(Registry::new())
            .with_stall_threshold(Duration::from_millis(25))
            .with_telemetry_addr("127.0.0.1:0"),
    );
    let addr = service.telemetry_addr().expect("telemetry listener bound");
    let (code, _) = wait_for_status(addr, "ok");
    assert_eq!(code, 200);

    // One shard wedges on a gated request; the other stays free, so
    // the verdict is degraded — still HTTP 200 (capacity reduced, not
    // gone).
    let wedged = service
        .try_submit(vec![BitVec::from_ones(8, [0])])
        .expect("submit");
    let (code, body) = wait_for_status(addr, "degraded");
    assert_eq!(code, 200, "degraded still answers 200: {body}");
    let parsed = JsonValue::parse(&body).unwrap();
    assert_eq!(parsed.get("stalled_shards").unwrap().as_u64(), Some(1));

    // Recovery: open the gate, the request completes, health returns
    // to ok.
    open_gate(&gate);
    wedged.wait().expect("wedged request completes");
    let (code, _) = wait_for_status(addr, "ok");
    assert_eq!(code, 200);
}

#[test]
fn health_reports_unhealthy_with_http_503_when_every_shard_stalls() {
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let service = DecodeService::new(
        Arc::new(GatedDecoder {
            gate: Arc::clone(&gate),
        }),
        ServeConfig::new()
            .with_shards(1)
            .with_queue_capacity(8)
            .with_metrics(Registry::new())
            .with_stall_threshold(Duration::from_millis(25))
            .with_telemetry_addr("127.0.0.1:0"),
    );
    let addr = service.telemetry_addr().expect("telemetry listener bound");
    let wedged = service
        .try_submit(vec![BitVec::from_ones(8, [1])])
        .expect("submit");
    // The only shard is wedged: nothing drains, so the verdict is
    // unhealthy and the endpoint answers 503 for load-balancer checks.
    let (code, _) = wait_for_status(addr, "unhealthy");
    assert_eq!(code, 503, "unhealthy must answer non-200");
    open_gate(&gate);
    wedged.wait().expect("wedged request completes");
    let (code, _) = wait_for_status(addr, "ok");
    assert_eq!(code, 200);
}
