//! `qec-serve` driven by one generator thread: an open-loop phase at a
//! fixed request rate, then a closed-loop saturation phase.

use qec_decode::{DecodeScratch, Decoder};
use qec_math::rng::Xoshiro256StarStar;
use qec_math::BitVec;
use qec_serve::{DecodeService, PendingResponse, ServeResult, SubmitError};
use qec_sim::{Circuit, FrameBatch, FrameSampler};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// The first and then every this-many responses are compared bit for
/// bit with offline `decode_into`.
const CHECK_EVERY: usize = 8;

/// Requests of 64 seeded shots each, with their offline corrections.
pub struct RequestPool {
    pub requests: Vec<Vec<BitVec>>,
    pub expected: Vec<Vec<BitVec>>,
}

impl RequestPool {
    /// `size` requests: batch `i` of the run seeded `seed`, decoded
    /// offline with `decoder`.
    pub fn sample(circuit: &Circuit, decoder: &dyn Decoder, size: usize, seed: u64) -> Self {
        let sampler = FrameSampler::new(circuit);
        let mut scratch = FrameBatch::new();
        let mut decode_scratch = DecodeScratch::new();
        let mut requests = Vec::with_capacity(size);
        let mut expected = Vec::with_capacity(size);
        for i in 0..size {
            let mut rng = Xoshiro256StarStar::from_seed_stream(seed, i as u64);
            let batch = sampler.sample_batch_with(&mut scratch, &mut rng);
            let shots: Vec<BitVec> = (0..64).map(|s| batch.detector_bits(s)).collect();
            let corrections = shots
                .iter()
                .map(|d| {
                    let mut out = BitVec::zeros(0);
                    decoder.decode_into(d, &mut decode_scratch, &mut out);
                    out
                })
                .collect();
            requests.push(shots);
            expected.push(corrections);
        }
        RequestPool { requests, expected }
    }
}

/// Outcome counts shared by both phases.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
    pub errored: u64,
    pub checked: u64,
    pub mismatched: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.rejected + self.errored
    }

    pub fn add(&mut self, o: &Tally) {
        self.submitted += o.submitted;
        self.completed += o.completed;
        self.rejected += o.rejected;
        self.errored += o.errored;
        self.checked += o.checked;
        self.mismatched += o.mismatched;
    }

    /// Counts one reply; checks every `CHECK_EVERY`-th against the pool.
    /// Returns the timings of a successful reply.
    fn settle(
        &mut self,
        result: ServeResult,
        pool: &RequestPool,
        index: usize,
    ) -> Option<qec_serve::RequestTimings> {
        match result {
            Ok(response) => {
                if (self.completed as usize).is_multiple_of(CHECK_EVERY) {
                    self.checked += 1;
                    if response.corrections != pool.expected[index] {
                        self.mismatched += 1;
                    }
                }
                self.completed += 1;
                Some(response.timings)
            }
            Err(_) => {
                self.errored += 1;
                None
            }
        }
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Per-request samples of the open-loop phase, in microseconds.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Due time → response ready.
    pub e2e_us: Vec<f64>,
    pub queue_us: Vec<f64>,
    pub decode_us: Vec<f64>,
    /// Total − queue − decode, as the service measured it.
    pub overhead_us: Vec<f64>,
    /// Submit time − due time.
    pub lateness_us: Vec<f64>,
    pub queue_depth_max: u64,
    pub tally: Tally,
}

struct InFlight {
    pending: PendingResponse,
    late_ns: u64,
    index: usize,
}

/// Submits one request every `1/rate` seconds for `duration`, whatever
/// the replies do, and times each from when it was due.
pub fn open_loop(
    service: &DecodeService,
    pool: &RequestPool,
    rate: f64,
    duration: Duration,
) -> OpenLoop {
    let depth = service.metrics().gauge("serve.queue_depth");
    let mut out = OpenLoop::default();
    let mut in_flight: VecDeque<InFlight> = VecDeque::new();
    let start = Instant::now();
    let mut next = 0u64;
    loop {
        let due = start + Duration::from_secs_f64(next as f64 / rate);
        if due >= start + duration {
            break;
        }
        let now = Instant::now();
        if now >= due {
            let index = next as usize % pool.requests.len();
            let late_ns = u64::try_from((now - due).as_nanos()).unwrap_or(u64::MAX);
            out.tally.submitted += 1;
            match service.try_submit(pool.requests[index].clone()) {
                Ok(pending) => in_flight.push_back(InFlight {
                    pending,
                    late_ns,
                    index,
                }),
                Err(SubmitError::WouldBlock) => out.tally.rejected += 1,
                Err(_) => out.tally.errored += 1,
            }
            out.lateness_us.push(us(late_ns));
            out.queue_depth_max = out.queue_depth_max.max(depth.get());
            next += 1;
            continue;
        }
        // Settle replies while waiting for the next due time.
        match in_flight.front().and_then(|f| f.pending.try_wait()) {
            Some(result) => {
                let f = in_flight.pop_front().expect("front exists");
                out.record(result, pool, f.late_ns, f.index);
            }
            None => std::hint::spin_loop(),
        }
    }
    while let Some(f) = in_flight.pop_front() {
        let result = f.pending.wait();
        out.record(result, pool, f.late_ns, f.index);
    }
    out
}

impl OpenLoop {
    pub fn merge(&mut self, other: OpenLoop) {
        self.e2e_us.extend(other.e2e_us);
        self.queue_us.extend(other.queue_us);
        self.decode_us.extend(other.decode_us);
        self.overhead_us.extend(other.overhead_us);
        self.lateness_us.extend(other.lateness_us);
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        self.tally.add(&other.tally);
    }

    fn record(&mut self, result: ServeResult, pool: &RequestPool, late_ns: u64, index: usize) {
        if let Some(t) = self.tally.settle(result, pool, index) {
            self.e2e_us.push(us(late_ns + t.total_ns));
            self.queue_us.push(us(t.queue_ns));
            self.decode_us.push(us(t.decode_ns));
            self.overhead_us
                .push(us(t.total_ns.saturating_sub(t.queue_ns + t.decode_ns)));
        }
    }
}

/// The closed-loop phase: seconds per slice of `slice_requests`
/// completed requests.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    pub slice_secs: Vec<f64>,
    pub tally: Tally,
}

impl ClosedLoop {
    pub fn merge(&mut self, other: ClosedLoop) {
        self.slice_secs.extend(other.slice_secs);
        self.tally.add(&other.tally);
    }
}

/// Keeps `window` requests in flight for `duration`, submitting the next
/// as soon as the oldest replies. The generator polls for that reply, as
/// in the open loop, so the shard never pays to wake it.
pub fn closed_loop(
    service: &DecodeService,
    pool: &RequestPool,
    window: usize,
    slice_requests: usize,
    duration: Duration,
) -> ClosedLoop {
    let mut out = ClosedLoop::default();
    let mut in_flight: VecDeque<(PendingResponse, usize)> = VecDeque::new();
    let mut next = 0usize;
    let start = Instant::now();
    let mut slice_start = start;
    let mut in_slice = 0usize;
    while start.elapsed() < duration || in_slice != 0 {
        while in_flight.len() < window {
            let index = next % pool.requests.len();
            next += 1;
            out.tally.submitted += 1;
            match service.try_submit(pool.requests[index].clone()) {
                Ok(pending) => in_flight.push_back((pending, index)),
                Err(SubmitError::WouldBlock) => out.tally.rejected += 1,
                Err(_) => out.tally.errored += 1,
            }
        }
        let (pending, index) = in_flight.pop_front().expect("window is non-empty");
        let result = loop {
            match pending.try_wait() {
                Some(result) => break result,
                None => std::hint::spin_loop(),
            }
        };
        out.tally.settle(result, pool, index);
        in_slice += 1;
        if in_slice == slice_requests {
            out.slice_secs.push(slice_start.elapsed().as_secs_f64());
            slice_start = Instant::now();
            in_slice = 0;
        }
    }
    for (pending, index) in in_flight {
        out.tally.settle(pending.wait(), pool, index);
    }
    out
}
