//! The live telemetry plane: windowed SLO aggregates, shard health, and
//! the zero-dep HTTP endpoint (`/metrics`, `/healthz`, `/snapshot`).
//!
//! Everything here is observe-only: recording happens on the serve hot
//! path (gated by the `telemetry_overhead` bench at ≤ 1.10×), reading
//! happens on a dedicated listener thread, and nothing feeds back into
//! decode logic.
//!
//! ## Health verdict rules
//!
//! Each shard worker stamps two cells from the clock the service was
//! built with: `heartbeat_ns` at every queue pickup, and `busy_since_ns`
//! while a request is being decoded (cleared on completion). A shard is
//! **stalled** when it has held one request longer than the configured
//! stall threshold (`busy_since_ns != 0` and older than the threshold) —
//! an idle shard is never stalled, no matter how old its heartbeat, so a
//! quiet service stays healthy. The overall verdict is:
//!
//! * `ok` — no shard stalled;
//! * `degraded` — at least one shard stalled, but not all (capacity is
//!   reduced; requests still drain), served with HTTP 200;
//! * `unhealthy` — every shard stalled (nothing drains), served with
//!   HTTP 503 so load balancers eject the instance.
//!
//! `/healthz` additionally reports the instantaneous queue depth, the
//! rolling max queue depth (the inclusive log₂-bin upper bound over the
//! 10 s window — conservative, never an underestimate), and the rolling
//! deadline-miss / rejection rates, so an operator sees *why* a verdict
//! changed, not just that it did.

use qec_obs::window::{Clock, RateCounter, WindowedHistogram};
use qec_obs::{Record, Registry, WINDOW_10S, WINDOW_1S, WINDOW_60S};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-shard liveness cells, stamped by the worker from the service
/// clock: `heartbeat_ns` at every queue pickup, `busy_since_ns` while a
/// request is in flight (0 when idle).
#[derive(Debug, Default)]
pub(crate) struct ShardHealth {
    heartbeat_ns: AtomicU64,
    busy_since_ns: AtomicU64,
}

/// The rolling-window aggregates fed from the serve hot path.
#[derive(Debug)]
pub(crate) struct TelemetryWindows {
    /// Windowed twin of the cumulative `serve.e2e_ns` histogram.
    pub e2e_ns: WindowedHistogram,
    /// Windowed twin of the cumulative `serve.queue_ns` histogram.
    pub queue_ns: WindowedHistogram,
    /// Queue depth sampled at submit and at shard pickup
    /// (`serve.queue_depth_window`), so `/healthz` reports the rolling
    /// max instead of whatever the scrape instant happens to see.
    pub queue_depth: WindowedHistogram,
    /// Rolling deadline misses (submit-time and pickup-time).
    pub deadline_misses: RateCounter,
    /// Rolling queue-full rejections.
    pub rejected: RateCounter,
}

/// Shared observe-only state behind the telemetry endpoints.
#[derive(Debug)]
pub(crate) struct Telemetry {
    clock: Arc<dyn Clock>,
    stall_ns: u64,
    start_ns: u64,
    shards: Vec<ShardHealth>,
    windows: TelemetryWindows,
    metrics: Registry,
}

impl Telemetry {
    pub(crate) fn new(
        clock: Arc<dyn Clock>,
        shards: usize,
        stall_threshold: Duration,
        metrics: Registry,
    ) -> Self {
        let windows = TelemetryWindows {
            e2e_ns: WindowedHistogram::new(Arc::clone(&clock)),
            queue_ns: WindowedHistogram::new(Arc::clone(&clock)),
            queue_depth: WindowedHistogram::new(Arc::clone(&clock)),
            deadline_misses: RateCounter::new(Arc::clone(&clock)),
            rejected: RateCounter::new(Arc::clone(&clock)),
        };
        Telemetry {
            start_ns: clock.now_ns(),
            stall_ns: u64::try_from(stall_threshold.as_nanos()).unwrap_or(u64::MAX),
            clock,
            shards: (0..shards).map(|_| ShardHealth::default()).collect(),
            windows,
            metrics,
        }
    }

    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// A request entered the queue (called under the queue lock, depth
    /// is the post-push length).
    #[inline]
    pub(crate) fn on_submit(&self, depth: u64) {
        self.windows.queue_depth.record(depth);
    }

    /// A submission bounced off the full queue.
    #[inline]
    pub(crate) fn on_reject(&self) {
        self.windows.rejected.inc();
    }

    /// A deadline miss (either refused at submit or expired at pickup).
    #[inline]
    pub(crate) fn on_deadline_miss(&self) {
        self.windows.deadline_misses.inc();
    }

    /// Shard `shard` pulled a job off the queue: heartbeat + busy stamp,
    /// post-pop depth sample, queue-wait sample.
    #[inline]
    pub(crate) fn on_pickup(&self, shard: usize, depth: u64, queue_ns: u64) {
        let now = self.now_ns().max(1);
        self.shards[shard]
            .heartbeat_ns
            .store(now, Ordering::Relaxed);
        self.shards[shard]
            .busy_since_ns
            .store(now, Ordering::Relaxed);
        self.windows.queue_depth.record(depth);
        self.windows.queue_ns.record(queue_ns);
    }

    /// Shard `shard` finished (answered) the job it picked up.
    #[inline]
    pub(crate) fn on_done(&self, shard: usize, e2e_ns: Option<u64>) {
        self.shards[shard].busy_since_ns.store(0, Ordering::Relaxed);
        if let Some(e2e) = e2e_ns {
            self.windows.e2e_ns.record(e2e);
        }
    }

    fn stalled(&self, shard: &ShardHealth, now: u64) -> bool {
        let busy = shard.busy_since_ns.load(Ordering::Relaxed);
        busy != 0 && now.saturating_sub(busy) > self.stall_ns
    }

    /// The overall health verdict string and the shard stall count.
    fn verdict(&self, now: u64) -> (&'static str, usize) {
        let stalled = self.shards.iter().filter(|s| self.stalled(s, now)).count();
        let verdict = if stalled == 0 {
            "ok"
        } else if stalled < self.shards.len() {
            "degraded"
        } else {
            "unhealthy"
        };
        (verdict, stalled)
    }

    /// The `/healthz` response: HTTP status code plus a hand-rolled JSON
    /// body (built with [`qec_obs::Record`], parseable by
    /// [`qec_obs::JsonValue::parse`]).
    pub(crate) fn healthz(&self, queue_depth: u64) -> (u16, String) {
        let now = self.now_ns();
        let (verdict, stalled) = self.verdict(now);
        let shards: Vec<qec_obs::JsonValue> = self
            .shards
            .iter()
            .map(|s| {
                let heartbeat = s.heartbeat_ns.load(Ordering::Relaxed);
                let busy = s.busy_since_ns.load(Ordering::Relaxed);
                Record::new()
                    .field(
                        "heartbeat_age_ns",
                        if heartbeat == 0 {
                            qec_obs::JsonValue::Null
                        } else {
                            now.saturating_sub(heartbeat).into()
                        },
                    )
                    .field(
                        "busy_ns",
                        if busy == 0 {
                            0
                        } else {
                            now.saturating_sub(busy)
                        },
                    )
                    .field("stalled", self.stalled(s, now))
                    .into_value()
            })
            .collect();
        let w = &self.windows;
        let e2e = w.e2e_ns.stats(WINDOW_10S);
        let body = Record::new()
            .field("status", verdict)
            .field("stalled_shards", stalled)
            .field("shards", qec_obs::JsonValue::Array(shards))
            .field("queue_depth", queue_depth)
            .field("uptime_ns", now.saturating_sub(self.start_ns))
            .field("stall_threshold_ns", self.stall_ns)
            .field(
                "queue_depth_max_10s",
                // Inclusive log₂-bin upper bound over the window:
                // conservative (never underestimates the true max).
                w.queue_depth
                    .max_over(WINDOW_10S)
                    .map_or(qec_obs::JsonValue::Null, Into::into),
            )
            .field(
                "deadline_miss_per_sec_10s",
                w.deadline_misses.per_sec(WINDOW_10S),
            )
            .field("rejected_per_sec_10s", w.rejected.per_sec(WINDOW_10S))
            .field(
                "e2e_p99_ns_10s",
                e2e.p99.map_or(qec_obs::JsonValue::Null, Into::into),
            )
            .field("completed_per_sec_10s", e2e.per_sec);
        let status = if verdict == "unhealthy" { 503 } else { 200 };
        (status, body.to_line())
    }

    /// The `/metrics` response body: the full registry exposition plus
    /// rolling-window gauges for the serve SLO series.
    pub(crate) fn metrics_text(&self) -> String {
        let mut expo = qec_obs::Exposition::new();
        expo.registry(&self.metrics.snapshot());
        let w = &self.windows;
        for (label, window_ns) in [("1s", WINDOW_1S), ("10s", WINDOW_10S), ("60s", WINDOW_60S)] {
            let labels = [("window", label.to_string())];
            let e2e = w.e2e_ns.stats(window_ns);
            for (name, q) in [
                ("serve.e2e_p50_ns", e2e.p50),
                ("serve.e2e_p99_ns", e2e.p99),
                ("serve.e2e_p999_ns", e2e.p999),
            ] {
                if let Some(v) = q {
                    expo.labeled_gauge(name, &labels, v as f64);
                }
            }
            expo.labeled_gauge("serve.completed_per_sec", &labels, e2e.per_sec);
            if let Some(p99) = w.queue_ns.stats(window_ns).p99 {
                expo.labeled_gauge("serve.queue_p99_ns", &labels, p99 as f64);
            }
            if let Some(depth) = w.queue_depth.max_over(window_ns) {
                expo.labeled_gauge("serve.queue_depth_max", &labels, depth as f64);
            }
            expo.labeled_gauge(
                "serve.deadline_miss_per_sec",
                &labels,
                w.deadline_misses.per_sec(window_ns),
            );
            expo.labeled_gauge(
                "serve.rejected_per_sec",
                &labels,
                w.rejected.per_sec(window_ns),
            );
        }
        expo.finish()
    }

    /// The `/snapshot` response body: the full registry as JSON.
    pub(crate) fn snapshot_json(&self) -> String {
        self.metrics.snapshot().to_json().to_string()
    }
}

/// The blocking loopback HTTP listener serving the telemetry endpoints.
///
/// Speaks just enough HTTP/1.1 for `curl` and a Prometheus scraper:
/// request line + headers in, fixed `Content-Length` response out, one
/// request per connection. Dropping the server wakes the listener and
/// joins its thread.
pub(crate) struct TelemetryServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for TelemetryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TelemetryServer({})", self.addr)
    }
}

/// Everything the request handler needs to answer a scrape; the
/// queue-depth closure reads the live queue under its own lock.
pub(crate) struct TelemetryContext {
    pub telemetry: Arc<Telemetry>,
    pub queue_depth: Box<dyn Fn() -> u64 + Send + Sync>,
}

impl TelemetryServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and spawns the listener thread.
    pub(crate) fn start(addr: &str, context: TelemetryContext) -> std::io::Result<TelemetryServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("qec-serve-telemetry".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if flag.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        // One scrape at a time; a metrics endpoint does
                        // not need concurrency, and serial handling
                        // keeps the thread count fixed.
                        let _ = handle_connection(stream, &context);
                    }
                }
            })
            .expect("spawn telemetry listener");
        Ok(TelemetryServer {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (port resolved when binding `:0`).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Wake the blocking accept so the thread observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Reads one request, routes it, writes one response. Errors abort the
/// connection only — the listener keeps serving.
fn handle_connection(mut stream: TcpStream, context: &TelemetryContext) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    // Read until the header terminator; request bodies are ignored
    // (every endpoint is a GET).
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        if buf.len() > 8192 {
            return respond(&mut stream, 431, "text/plain", "header section too large\n");
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let text = String::from_utf8_lossy(&buf);
    let mut parts = text.lines().next().unwrap_or("").split_whitespace();
    let (method, target) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        return respond(&mut stream, 405, "text/plain", "only GET is supported\n");
    }
    // Strip any query string; the endpoints take no parameters.
    let path = target.split('?').next().unwrap_or(target);
    match path {
        "/metrics" => {
            let body = context.telemetry.metrics_text();
            respond(
                &mut stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        "/healthz" => {
            let (status, body) = context.telemetry.healthz((context.queue_depth)());
            respond(&mut stream, status, "application/json", &body)
        }
        "/snapshot" => {
            let body = context.telemetry.snapshot_json();
            respond(&mut stream, 200, "application/json", &body)
        }
        _ => respond(&mut stream, 404, "text/plain", "not found\n"),
    }
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec_obs::{JsonValue, ManualClock};

    fn telemetry(shards: usize) -> (Arc<ManualClock>, Telemetry) {
        let clock = Arc::new(ManualClock::new());
        clock.set(1_000);
        let t = Telemetry::new(
            Arc::clone(&clock) as Arc<dyn Clock>,
            shards,
            Duration::from_millis(100),
            Registry::new(),
        );
        (clock, t)
    }

    fn status_of(body: &str) -> String {
        JsonValue::parse(body)
            .expect("healthz body is valid JSON")
            .get("status")
            .and_then(|v| v.as_str().map(str::to_string))
            .expect("status key present")
    }

    #[test]
    fn verdict_walks_ok_degraded_unhealthy_and_back() {
        let (clock, t) = telemetry(2);
        // Idle shards are healthy no matter how much time passes.
        clock.advance(10 * WINDOW_1S);
        let (code, body) = t.healthz(0);
        assert_eq!((code, status_of(&body).as_str()), (200, "ok"));

        // Shard 0 picks up and sits on a request past the threshold.
        t.on_pickup(0, 3, 42);
        clock.advance(200_000_000);
        let (code, body) = t.healthz(3);
        assert_eq!((code, status_of(&body).as_str()), (200, "degraded"));
        let parsed = JsonValue::parse(&body).unwrap();
        assert_eq!(parsed.get("stalled_shards").unwrap().as_u64(), Some(1));
        let shards = parsed.get("shards").unwrap().as_array().unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].get("stalled").unwrap().as_bool(), Some(true));
        assert_eq!(shards[1].get("stalled").unwrap().as_bool(), Some(false));

        // Both shards stuck: unhealthy, HTTP 503.
        t.on_pickup(1, 2, 42);
        clock.advance(200_000_000);
        let (code, body) = t.healthz(5);
        assert_eq!((code, status_of(&body).as_str()), (503, "unhealthy"));

        // Both complete: healthy again.
        t.on_done(0, Some(400_000_000));
        t.on_done(1, Some(400_000_000));
        let (code, body) = t.healthz(0);
        assert_eq!((code, status_of(&body).as_str()), (200, "ok"));
        let parsed = JsonValue::parse(&body).unwrap();
        for key in [
            "queue_depth",
            "uptime_ns",
            "stall_threshold_ns",
            "queue_depth_max_10s",
            "deadline_miss_per_sec_10s",
            "rejected_per_sec_10s",
            "completed_per_sec_10s",
        ] {
            assert!(parsed.get(key).is_some(), "healthz reports {key}");
        }
    }

    #[test]
    fn a_busy_shard_inside_threshold_is_not_stalled() {
        let (clock, t) = telemetry(1);
        t.on_pickup(0, 0, 10);
        clock.advance(50_000_000); // half the 100 ms threshold
        let (code, body) = t.healthz(0);
        assert_eq!((code, status_of(&body).as_str()), (200, "ok"));
    }

    #[test]
    fn metrics_text_carries_registry_and_window_families() {
        let (_clock, t) = telemetry(1);
        t.metrics.counter("serve.requests").add(3);
        t.on_pickup(0, 7, 1_000);
        t.on_done(0, Some(2_000));
        let text = t.metrics_text();
        assert!(text.contains("# TYPE serve_requests counter"));
        assert!(text.contains("serve_requests 3"));
        assert!(text.contains("serve_e2e_p50_ns{window=\"1s\"}"));
        assert!(text.contains("serve_queue_depth_max{window=\"10s\"}"));
        assert!(text.contains("serve_rejected_per_sec{window=\"60s\"}"));
    }
}
