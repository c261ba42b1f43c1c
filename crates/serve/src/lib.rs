//! `qec-serve`: a long-lived streaming decode service.
//!
//! Every workload in the reproduction used to be an offline batch
//! (`run_ber` over a fixed shot count). This crate turns the same
//! decoders into an *online* service in the spirit of real-time decoder
//! pipelines: a [`DecodeService`] owns a pool of per-shard worker
//! threads, each with its own [`DecodeScratch`] and a shared
//! `Arc<dyn Decoder>`, fed from one **bounded** MPMC shot queue.
//!
//! Design points:
//!
//! * **Backpressure, not buffering.** The queue has a fixed capacity;
//!   [`DecodeService::try_submit`] returns
//!   [`SubmitError::WouldBlock`] when it is full instead of growing
//!   unboundedly. Rejections are counted (`serve.rejected`), so an
//!   overloaded service is visible, not silently slow.
//! * **Deadlines.** A request may carry a deadline; a request whose
//!   deadline has passed by the time a worker picks it up is answered
//!   with [`ServeError::DeadlineExceeded`] without decoding
//!   (`serve.deadline_misses`), exactly what a real-time pipeline wants
//!   from stale syndrome data.
//! * **Fault containment.** A decoder panic fails only the request it
//!   happened in: the shard answers it with
//!   [`ServeError::DecodeFailed`] (`serve.decode_panics`), replaces its
//!   scratch and keeps serving.
//! * **Per-request attribution.** Responses carry queue/decode/total
//!   timings measured on the request itself, and each request emits a
//!   `serve.request` span with the same fields. The service never uses
//!   lifetime-counter deltas for attribution (those are racy when two
//!   callers share one decoder — see `fpn_core::run_ber`).
//! * **SLO metrics.** The `serve.queue_depth` gauge tracks requests
//!   waiting in the queue (written under the queue lock at submit and
//!   shard pickup, reconciling to zero after a drain), and completed
//!   requests feed the `serve.queue_ns` /
//!   `serve.decode_ns` / `serve.e2e_ns` histograms in the service's
//!   [`Registry`] (shared with the decoder's registry when it has one),
//!   so p50/p99/p999 fall out of a registry snapshot via
//!   [`qec_obs::HistogramSnapshot::quantile`].
//! * **Bit-identical corrections.** Workers decode with
//!   [`Decoder::decode_into`] against per-shard scratch, which is
//!   pinned bit-identical to the offline path by the workspace's golden
//!   and differential tests; the service adds its own differential test
//!   replaying `run_ber` batches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod telemetry;

use qec_decode::{DecodeScratch, Decoder};
use qec_math::BitVec;
use qec_obs::window::MonotonicClock;
use qec_obs::{Counter, Gauge, Histogram, Registry};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::panic::AssertUnwindSafe;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use telemetry::{Telemetry, TelemetryContext, TelemetryServer};

/// Configuration for a [`DecodeService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker shards (0 = one per available core).
    pub shards: usize,
    /// Bounded queue capacity in *requests* (0 = [`DEFAULT_QUEUE_CAPACITY`]).
    pub queue_capacity: usize,
    /// Metrics registry for the `serve.*` series. When `None`, the
    /// decoder's own registry is used (so one snapshot covers both
    /// `decode.*` and `serve.*`), falling back to a fresh registry for
    /// decoders without one.
    pub metrics: Option<Registry>,
    /// Bind address for the telemetry HTTP endpoint (`/metrics`,
    /// `/healthz`, `/snapshot`), e.g. `"127.0.0.1:9464"` or
    /// `"127.0.0.1:0"` to let the OS pick a port (read it back with
    /// [`DecodeService::telemetry_addr`]). `None` (the default) starts
    /// no listener.
    pub telemetry_addr: Option<String>,
    /// How long one request may occupy a shard before the shard counts
    /// as stalled in the `/healthz` verdict. Defaults to
    /// [`DEFAULT_STALL_THRESHOLD`].
    pub stall_threshold: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 0,
            queue_capacity: 0,
            metrics: None,
            telemetry_addr: None,
            stall_threshold: DEFAULT_STALL_THRESHOLD,
        }
    }
}

/// Queue capacity when [`ServeConfig::queue_capacity`] is 0.
pub const DEFAULT_QUEUE_CAPACITY: usize = 128;

/// Stall threshold when [`ServeConfig::stall_threshold`] is left at its
/// default: one second holding a single request marks a shard stalled.
pub const DEFAULT_STALL_THRESHOLD: Duration = Duration::from_secs(1);

impl ServeConfig {
    /// Default configuration: one shard per core, default capacity,
    /// metrics shared with the decoder, no telemetry listener.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the bounded queue capacity (in requests).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Routes the `serve.*` metrics into `registry`.
    pub fn with_metrics(mut self, registry: Registry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Serves `/metrics`, `/healthz` and `/snapshot` on `addr`.
    pub fn with_telemetry_addr(mut self, addr: impl Into<String>) -> Self {
        self.telemetry_addr = Some(addr.into());
        self
    }

    /// Sets the per-shard stall threshold for the health verdict.
    pub fn with_stall_threshold(mut self, threshold: Duration) -> Self {
        self.stall_threshold = threshold;
        self
    }
}

/// Why a submission was refused synchronously.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — back off and retry (or drain a
    /// pending response first). Counted as `serve.rejected`.
    WouldBlock,
    /// The request's deadline had already passed at submission.
    /// Counted as `serve.deadline_misses`.
    DeadlineExceeded,
    /// The service is shutting down.
    ShuttingDown,
    /// A syndrome's length differs from the decoder's detector count;
    /// nothing was queued.
    InvalidRequest,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::WouldBlock => write!(f, "bounded queue full (backpressure)"),
            SubmitError::DeadlineExceeded => write!(f, "deadline already passed at submit"),
            SubmitError::ShuttingDown => write!(f, "service shutting down"),
            SubmitError::InvalidRequest => {
                write!(f, "syndrome length differs from the detector count")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an accepted request failed to produce corrections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The deadline passed while the request sat in the queue; it was
    /// answered without decoding. Carries the observed queue time.
    DeadlineExceeded {
        /// Nanoseconds between submission and the worker picking the
        /// request up.
        queue_ns: u64,
    },
    /// The service shut down before the request completed.
    ShuttingDown,
    /// The decoder panicked while decoding the request; no correction
    /// of the request is returned, and the shard keeps serving.
    DecodeFailed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::DeadlineExceeded { queue_ns } => {
                write!(f, "deadline exceeded after {queue_ns} ns in queue")
            }
            ServeError::ShuttingDown => write!(f, "service shut down before completion"),
            ServeError::DecodeFailed => write!(f, "decoder panicked while decoding the request"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Per-request wall-clock attribution, measured on the request itself
/// (never via decoder lifetime-counter deltas).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTimings {
    /// Submission → worker pickup.
    pub queue_ns: u64,
    /// Time spent in `decode_into` across the request's shots.
    pub decode_ns: u64,
    /// Submission → response ready (end-to-end).
    pub total_ns: u64,
}

/// A completed request's corrections plus its timing attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeResponse {
    /// One correction per submitted syndrome, in submission order —
    /// bit-identical to offline `decode_into` on the same syndromes.
    pub corrections: Vec<BitVec>,
    /// Which shard decoded the request.
    pub shard: usize,
    /// Queue/decode/total wall-clock times.
    pub timings: RequestTimings,
}

/// Result of waiting on a submitted request.
pub type ServeResult = Result<DecodeResponse, ServeError>;

/// Handle to one in-flight request; [`Self::wait`] blocks for the
/// response.
#[derive(Debug)]
pub struct PendingResponse {
    rx: mpsc::Receiver<ServeResult>,
}

impl PendingResponse {
    /// Blocks until the request completes (or the service shuts down).
    pub fn wait(self) -> ServeResult {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Non-blocking poll: `Some` once the response is ready.
    pub fn try_wait(&self) -> Option<ServeResult> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::ShuttingDown)),
        }
    }
}

struct Job {
    syndromes: Vec<BitVec>,
    deadline: Option<Instant>,
    submitted: Instant,
    reply: mpsc::Sender<ServeResult>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    available: Condvar,
}

impl Shared {
    /// Locks the queue. A thread that panicked while holding the lock
    /// leaves it poisoned, but every critical section below keeps the
    /// queue consistent at each step, so the state is recovered rather
    /// than turned into a panic of every later submitter, shard and
    /// `Drop`.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The service's interned `serve.*` metric handles.
#[derive(Clone)]
struct ServeCounters {
    requests: Counter,
    shots: Counter,
    completed: Counter,
    rejected: Counter,
    deadline_misses: Counter,
    decode_panics: Counter,
    queue_ns: Histogram,
    decode_ns: Histogram,
    e2e_ns: Histogram,
    /// Requests currently waiting in the bounded queue; written under
    /// the queue lock at submit and at shard pickup, so it reconciles
    /// to zero once the queue drains.
    queue_depth: Gauge,
}

impl ServeCounters {
    fn register(metrics: &Registry) -> Self {
        ServeCounters {
            requests: metrics.counter("serve.requests"),
            shots: metrics.counter("serve.shots"),
            completed: metrics.counter("serve.completed"),
            rejected: metrics.counter("serve.rejected"),
            deadline_misses: metrics.counter("serve.deadline_misses"),
            decode_panics: metrics.counter("serve.decode_panics"),
            queue_ns: metrics.histogram("serve.queue_ns"),
            decode_ns: metrics.histogram("serve.decode_ns"),
            e2e_ns: metrics.histogram("serve.e2e_ns"),
            queue_depth: metrics.gauge("serve.queue_depth"),
        }
    }
}

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A long-lived streaming decode service over a shared decoder.
///
/// Dropping the service initiates a graceful shutdown: already-queued
/// requests are drained (decoded and answered), new submissions are
/// refused with [`SubmitError::ShuttingDown`], and worker threads are
/// joined.
pub struct DecodeService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    counters: ServeCounters,
    metrics: Registry,
    shards: usize,
    queue_capacity: usize,
    /// Syndrome length every request must carry.
    num_detectors: usize,
    telemetry: Arc<Telemetry>,
    /// Joined in [`Drop`] *before* the worker drain, so a scrape never
    /// races a half-torn-down service.
    telemetry_server: Option<TelemetryServer>,
}

impl std::fmt::Debug for DecodeService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DecodeService({} shards, queue capacity {})",
            self.shards, self.queue_capacity
        )
    }
}

impl DecodeService {
    /// Spawns the worker shards and returns the ready service.
    ///
    /// Each shard owns one [`DecodeScratch`] (so steady-state decoding
    /// allocates nothing beyond the response vectors) and a clone of
    /// `decoder`.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread cannot be spawned, or if
    /// [`ServeConfig::telemetry_addr`] is set and the listener cannot
    /// bind it.
    pub fn new(decoder: Arc<dyn Decoder + Send + Sync>, config: ServeConfig) -> Self {
        let shards = if config.shards == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.shards
        };
        let queue_capacity = if config.queue_capacity == 0 {
            DEFAULT_QUEUE_CAPACITY
        } else {
            config.queue_capacity
        };
        let metrics = config
            .metrics
            .or_else(|| decoder.metrics().cloned())
            .unwrap_or_default();
        let counters = ServeCounters::register(&metrics);
        let telemetry = Arc::new(Telemetry::new(
            Arc::new(MonotonicClock::new()),
            shards,
            config.stall_threshold,
            metrics.clone(),
        ));
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::with_capacity(queue_capacity),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let workers = (0..shards)
            .map(|shard| {
                let shared = Arc::clone(&shared);
                let decoder = Arc::clone(&decoder);
                let counters = counters.clone();
                let telemetry = Arc::clone(&telemetry);
                std::thread::Builder::new()
                    .name(format!("qec-serve-{shard}"))
                    .spawn(move || {
                        worker_loop(shard, &shared, decoder.as_ref(), &counters, &telemetry)
                    })
                    .expect("spawn decode shard")
            })
            .collect();
        let telemetry_server = config.telemetry_addr.as_deref().map(|addr| {
            let shared = Arc::clone(&shared);
            let context = TelemetryContext {
                telemetry: Arc::clone(&telemetry),
                queue_depth: Box::new(move || shared.lock().jobs.len() as u64),
            };
            TelemetryServer::start(addr, context).expect("bind telemetry listener")
        });
        DecodeService {
            shared,
            workers,
            counters,
            metrics,
            shards,
            queue_capacity,
            num_detectors: decoder.num_detectors(),
            telemetry,
            telemetry_server,
        }
    }

    /// Submits a syndrome batch with no deadline. See
    /// [`Self::try_submit_with_deadline`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::InvalidRequest`] for a wrong-length syndrome,
    /// [`SubmitError::WouldBlock`] when the bounded queue is full,
    /// [`SubmitError::ShuttingDown`] after shutdown began.
    pub fn try_submit(&self, syndromes: Vec<BitVec>) -> Result<PendingResponse, SubmitError> {
        self.try_submit_with_deadline(syndromes, None)
    }

    /// Submits a syndrome batch, optionally with a deadline, without
    /// blocking: a full queue is a [`SubmitError::WouldBlock`]
    /// rejection (counted as `serve.rejected`), never an unbounded
    /// buffer.
    ///
    /// # Errors
    ///
    /// [`SubmitError::InvalidRequest`] when a syndrome's length differs
    /// from the decoder's detector count,
    /// [`SubmitError::WouldBlock`] on a full queue,
    /// [`SubmitError::DeadlineExceeded`] when `deadline` already
    /// passed, [`SubmitError::ShuttingDown`] after shutdown began.
    pub fn try_submit_with_deadline(
        &self,
        syndromes: Vec<BitVec>,
        deadline: Option<Instant>,
    ) -> Result<PendingResponse, SubmitError> {
        // Checked here, not on the shard: a malformed syndrome would
        // panic inside the decoder and take its shard thread down.
        if syndromes.iter().any(|s| s.len() != self.num_detectors) {
            return Err(SubmitError::InvalidRequest);
        }
        let submitted = Instant::now();
        if deadline.is_some_and(|d| submitted > d) {
            self.counters.deadline_misses.inc();
            self.telemetry.on_deadline_miss();
            return Err(SubmitError::DeadlineExceeded);
        }
        let (tx, rx) = mpsc::channel();
        {
            let mut state = self.shared.lock();
            if state.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            if state.jobs.len() >= self.queue_capacity {
                self.counters.rejected.inc();
                self.telemetry.on_reject();
                return Err(SubmitError::WouldBlock);
            }
            state.jobs.push_back(Job {
                syndromes,
                deadline,
                submitted,
                reply: tx,
            });
            let depth = state.jobs.len() as u64;
            self.counters.queue_depth.set(depth);
            self.telemetry.on_submit(depth);
        }
        self.shared.available.notify_one();
        Ok(PendingResponse { rx })
    }

    /// The registry carrying the `serve.*` series (plus the decoder's
    /// `decode.*` series when the registry is shared). Observe-only.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Worker shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Bounded queue capacity, in requests.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Where the telemetry endpoint is listening, when
    /// [`ServeConfig::telemetry_addr`] was set (the port is resolved,
    /// so binding `127.0.0.1:0` yields a concrete scrape target).
    pub fn telemetry_addr(&self) -> Option<SocketAddr> {
        self.telemetry_server.as_ref().map(TelemetryServer::addr)
    }

    /// The `/healthz` verdict without going through HTTP: the status
    /// code (`200` for `ok`/`degraded`, `503` for `unhealthy`) and the
    /// JSON body.
    pub fn healthz(&self) -> (u16, String) {
        let depth = self.shared.lock().jobs.len() as u64;
        self.telemetry.healthz(depth)
    }

    /// The `/metrics` exposition text without going through HTTP.
    pub fn metrics_text(&self) -> String {
        self.telemetry.metrics_text()
    }
}

impl Drop for DecodeService {
    fn drop(&mut self) {
        // Stop answering scrapes first: the telemetry thread reads the
        // queue and shard state that the drain below tears down.
        drop(self.telemetry_server.take());
        {
            self.shared.lock().shutdown = true;
        }
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(
    shard: usize,
    shared: &Shared,
    decoder: &dyn Decoder,
    counters: &ServeCounters,
    telemetry: &Telemetry,
) {
    let _shard_span = qec_obs::span_with("serve.shard", &[("shard", shard.into())]);
    let mut scratch = DecodeScratch::new();
    loop {
        let (job, depth) = {
            let mut state = shared.lock();
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    let depth = state.jobs.len() as u64;
                    counters.queue_depth.set(depth);
                    break (job, depth);
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .available
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let queue_ns = ns_since(job.submitted);
        counters.requests.inc();
        counters.queue_ns.record(queue_ns);
        telemetry.on_pickup(shard, depth, queue_ns);
        let mut span = qec_obs::span_with(
            "serve.request",
            &[
                ("shard", shard.into()),
                ("shots", job.syndromes.len().into()),
            ],
        );
        span.field("queue_ns", queue_ns);
        if job.deadline.is_some_and(|d| Instant::now() > d) {
            counters.deadline_misses.inc();
            telemetry.on_deadline_miss();
            telemetry.on_done(shard, None);
            span.field("deadline_missed", true);
            let _ = job
                .reply
                .send(Err(ServeError::DeadlineExceeded { queue_ns }));
            continue;
        }
        let decode_start = Instant::now();
        // One unwind guard per request: a panic fails this request only.
        let decoded = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut corrections = Vec::with_capacity(job.syndromes.len());
            for syndrome in &job.syndromes {
                let mut out = BitVec::zeros(0);
                decoder.decode_into(syndrome, &mut scratch, &mut out);
                corrections.push(out);
            }
            corrections
        }));
        let Ok(corrections) = decoded else {
            // The scratch may hold a half-decoded shot.
            scratch = DecodeScratch::new();
            counters.decode_panics.inc();
            telemetry.on_done(shard, None);
            span.field("decode_panicked", true);
            let _ = job.reply.send(Err(ServeError::DecodeFailed));
            continue;
        };
        let decode_ns = ns_since(decode_start);
        let total_ns = ns_since(job.submitted);
        counters.decode_ns.record(decode_ns);
        counters.e2e_ns.record(total_ns);
        counters.shots.add(corrections.len() as u64);
        counters.completed.inc();
        telemetry.on_done(shard, Some(total_ns));
        span.field("decode_ns", decode_ns);
        span.field("e2e_ns", total_ns);
        let _ = job.reply.send(Ok(DecodeResponse {
            corrections,
            shard,
            timings: RequestTimings {
                queue_ns,
                decode_ns,
                total_ns,
            },
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Parrot decoder: the "correction" is the syndrome itself, after
    /// an optional artificial delay. Enough to pin queue semantics
    /// without a real decoding graph.
    struct Parrot {
        delay: Duration,
    }

    impl Decoder for Parrot {
        fn decode_into(&self, detectors: &BitVec, _: &mut DecodeScratch, out: &mut BitVec) {
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
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

    fn syndrome(bit: usize) -> BitVec {
        BitVec::from_ones(8, [bit])
    }

    #[test]
    fn round_trips_corrections_in_submission_order() {
        let service = DecodeService::new(
            Arc::new(Parrot {
                delay: Duration::ZERO,
            }),
            ServeConfig::new().with_shards(2).with_queue_capacity(16),
        );
        let pending: Vec<PendingResponse> = (0..8)
            .map(|i| service.try_submit(vec![syndrome(i % 8)]).expect("submit"))
            .collect();
        for (i, p) in pending.into_iter().enumerate() {
            let resp = p.wait().expect("completes");
            assert_eq!(resp.corrections, vec![syndrome(i % 8)]);
            assert!(resp.timings.total_ns >= resp.timings.decode_ns);
            assert!(resp.timings.total_ns >= resp.timings.queue_ns);
            assert!(resp.shard < 2);
        }
        let snap = service.metrics().snapshot();
        assert_eq!(snap.counter("serve.completed"), 8);
        assert_eq!(snap.counter("serve.shots"), 8);
        assert_eq!(snap.counter("serve.rejected"), 0);
        assert_eq!(snap.histogram("serve.e2e_ns").unwrap().count, 8);
    }

    #[test]
    fn full_queue_rejects_with_would_block() {
        // One slow shard + capacity 2: the first request occupies the
        // shard, two more fill the queue, the fourth must bounce.
        let service = DecodeService::new(
            Arc::new(Parrot {
                delay: Duration::from_millis(50),
            }),
            ServeConfig::new().with_shards(1).with_queue_capacity(2),
        );
        let mut pending = vec![service.try_submit(vec![syndrome(0)]).expect("first")];
        // The worker may or may not have dequeued the first request
        // yet; keep submitting until we observe a rejection, which must
        // happen after at most capacity + 1 in-flight requests.
        let mut rejected = false;
        for i in 0..4 {
            match service.try_submit(vec![syndrome(i % 8)]) {
                Ok(p) => pending.push(p),
                Err(e) => {
                    assert_eq!(e, SubmitError::WouldBlock);
                    rejected = true;
                    break;
                }
            }
        }
        assert!(rejected, "bounded queue must reject, not grow");
        assert!(service.metrics().snapshot().counter("serve.rejected") >= 1);
        for p in pending {
            p.wait().expect("accepted requests still complete");
        }
    }

    #[test]
    fn expired_deadline_skips_decoding() {
        let service = DecodeService::new(
            Arc::new(Parrot {
                delay: Duration::from_millis(20),
            }),
            ServeConfig::new().with_shards(1).with_queue_capacity(8),
        );
        // Occupy the shard so the deadline request queues behind it.
        let busy = service.try_submit(vec![syndrome(0)]).expect("busy");
        // Valid at submit, but expires long before the 20 ms busy
        // request frees the only shard.
        let doomed = service
            .try_submit_with_deadline(
                vec![syndrome(1)],
                Some(Instant::now() + Duration::from_millis(2)),
            )
            .expect("accepted while queue has room");
        match doomed.wait() {
            Err(ServeError::DeadlineExceeded { .. }) => {}
            other => panic!("expected a deadline miss, got {other:?}"),
        }
        busy.wait().expect("busy request completes");
        let snap = service.metrics().snapshot();
        assert_eq!(snap.counter("serve.deadline_misses"), 1);
        // The doomed request was never decoded.
        assert_eq!(snap.counter("serve.shots"), 1);
        // A deadline already in the past is refused at submit time.
        assert_eq!(
            service
                .try_submit_with_deadline(
                    vec![syndrome(2)],
                    Some(Instant::now() - Duration::from_millis(1)),
                )
                .unwrap_err(),
            SubmitError::DeadlineExceeded
        );
        assert_eq!(
            service
                .metrics()
                .snapshot()
                .counter("serve.deadline_misses"),
            2
        );
    }

    #[test]
    fn drop_drains_queued_work_then_refuses() {
        let service = DecodeService::new(
            Arc::new(Parrot {
                delay: Duration::from_millis(5),
            }),
            ServeConfig::new().with_shards(1).with_queue_capacity(8),
        );
        let pending: Vec<PendingResponse> = (0..4)
            .map(|i| service.try_submit(vec![syndrome(i)]).expect("submit"))
            .collect();
        let metrics = service.metrics().clone();
        drop(service);
        // Graceful shutdown: everything accepted before drop completes.
        for p in pending {
            p.wait().expect("queued request drained on shutdown");
        }
        assert_eq!(metrics.snapshot().counter("serve.completed"), 4);
    }

    /// A thread that panics while holding the queue lock poisons it;
    /// submitters, the shard and `Drop` recover the queue instead of
    /// panicking.
    #[test]
    fn poisoned_queue_lock_keeps_serving_and_drops_cleanly() {
        let service = DecodeService::new(
            Arc::new(Parrot {
                delay: Duration::ZERO,
            }),
            ServeConfig::new().with_shards(1).with_queue_capacity(4),
        );
        let shared = Arc::clone(&service.shared);
        let poisoner = std::thread::spawn(move || {
            let _guard = shared.lock();
            panic!("poisoning the serve queue lock");
        });
        assert!(poisoner.join().is_err());
        assert!(service.shared.queue.is_poisoned());
        let reply = service
            .try_submit(vec![syndrome(3)])
            .expect("submit on a poisoned lock")
            .wait()
            .expect("the shard still serves");
        assert_eq!(reply.corrections, vec![syndrome(3)]);
        assert_eq!(service.healthz().0, 200);
        drop(service);
    }
}
