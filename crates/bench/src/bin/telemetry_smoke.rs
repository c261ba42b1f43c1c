//! CI smoke for the qec-serve telemetry plane: starts a real
//! [`DecodeService`] with the HTTP endpoint on loopback, pushes a
//! decode workload through it, scrapes `/metrics`, `/healthz` and
//! `/snapshot` over actual TCP (no `curl` dependency), and validates
//! what comes back. Exits non-zero on any malformed exposition,
//! unparseable health JSON, missing report key, or an unhealthy
//! verdict — the zero-dep equivalent of
//! `curl -f localhost:PORT/healthz` in a deploy pipeline. With
//! `QEC_OBS=1` the run also writes a qec-obs trace carrying the
//! service's `serve.request` spans.

use fpn_core::prelude::*;
use qec_math::BitVec;
use qec_obs::{JsonValue, Registry};
use qec_serve::{DecodeService, ServeConfig};
use qec_sim::FrameBatch;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn http_get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: qec\r\n\r\n").as_bytes())
        .map_err(|e| format!("write {path}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read {path}: {e}"))?;
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{path}: malformed status line"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

fn run() -> Result<(), String> {
    // A small real decoding workload: d=3 surface code, flagged MWPM.
    let code = rotated_surface_code(3);
    let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
    let exp = build_memory_circuit(&code, &fpn, Some(&NoiseModel::new(2e-3)), 3, Basis::Z);
    let dem = DetectorErrorModel::from_circuit(&exp.circuit);
    let decoder: Arc<dyn Decoder + Send + Sync> =
        Arc::new(MwpmDecoder::new(&dem, MwpmConfig::unflagged()));

    let service = DecodeService::new(
        Arc::clone(&decoder),
        ServeConfig::new()
            .with_shards(2)
            .with_queue_capacity(32)
            .with_metrics(Registry::new())
            .with_telemetry_addr("127.0.0.1:0"),
    );
    let addr = service
        .telemetry_addr()
        .ok_or("telemetry listener did not bind")?;

    // Load: every nonzero syndrome from a few sampled batches.
    let sampler = FrameSampler::new(&exp.circuit);
    let mut scratch = FrameBatch::new();
    let mut dets = BitVec::zeros(0);
    let mut shots = Vec::new();
    for b in 0..8u64 {
        let mut rng = qec_math::rng::Xoshiro256StarStar::from_seed_stream(55, b);
        let batch = sampler.sample_batch_with(&mut scratch, &mut rng);
        for s in 0..64 {
            batch.detector_bits_into(s, &mut dets);
            if !dets.is_zero() {
                shots.push(dets.clone());
            }
        }
    }
    if shots.is_empty() {
        return Err("workload sampled no nonzero syndromes".to_string());
    }
    let pending: Vec<_> = shots
        .chunks(8)
        .map(|c| {
            service
                .try_submit(c.to_vec())
                .map_err(|e| format!("submit: {e}"))
        })
        .collect::<Result<_, _>>()?;
    for p in pending {
        p.wait().map_err(|e| format!("decode: {e}"))?;
    }

    // /metrics: status 200, parseable exposition with the serve series.
    let (status, metrics) = http_get(addr, "/metrics")?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    for needle in [
        "# TYPE serve_requests counter",
        "# TYPE serve_e2e_ns histogram",
        "serve_e2e_ns_bucket{le=\"+Inf\"}",
        "serve_completed_per_sec{window=\"10s\"}",
    ] {
        if !metrics.contains(needle) {
            return Err(format!("/metrics missing {needle:?}"));
        }
    }
    for line in metrics.lines().filter(|l| !l.starts_with('#')) {
        let value = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("/metrics malformed line {line:?}"))?
            .1;
        value
            .parse::<f64>()
            .map_err(|_| format!("/metrics non-numeric sample {line:?}"))?;
    }

    // /healthz: 200, valid JSON, ok verdict, report keys present.
    let (status, health) = http_get(addr, "/healthz")?;
    if status != 200 {
        return Err(format!("/healthz answered {status}: {health}"));
    }
    let health = JsonValue::parse(&health).map_err(|e| format!("/healthz not JSON: {e}"))?;
    if health.get("status").and_then(JsonValue::as_str) != Some("ok") {
        return Err(format!("/healthz not ok: {health}"));
    }
    for key in ["shards", "queue_depth", "deadline_miss_per_sec_10s"] {
        if health.get(key).is_none() {
            return Err(format!("/healthz missing {key:?}: {health}"));
        }
    }

    // /snapshot: 200, valid JSON carrying the serve series.
    let (status, snapshot) = http_get(addr, "/snapshot")?;
    if status != 200 {
        return Err(format!("/snapshot answered {status}"));
    }
    let snapshot = JsonValue::parse(&snapshot).map_err(|e| format!("/snapshot not JSON: {e}"))?;
    let completed = snapshot
        .get("serve.completed")
        .and_then(|v| v.get("value"))
        .and_then(JsonValue::as_u64)
        .or_else(|| snapshot.get("serve.completed").and_then(JsonValue::as_u64));
    if completed.unwrap_or(0) == 0 {
        return Err(format!("/snapshot shows no completed requests: {snapshot}"));
    }

    println!(
        "telemetry smoke ok: {} requests decoded, /metrics {} bytes, healthz ok ({addr})",
        shots.chunks(8).len(),
        metrics.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    qec_obs::init_from_env();
    let result = run();
    qec_obs::finish();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("telemetry_smoke: {err}");
            ExitCode::FAILURE
        }
    }
}
