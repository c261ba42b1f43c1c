//! `run_ber` timed in equal slices, and the traced replay of its
//! single-thread loop from public calls.

use crate::spans::Spans;
use fpn_core::run_ber;
use qec_decode::{DecodeScratch, Decoder, DecodingHypergraph};
use qec_math::rng::Xoshiro256StarStar;
use qec_math::BitVec;
use qec_sim::{Circuit, FrameBatch, FrameSampler};
use std::time::Instant;

/// The seed of slice `i` of a run seeded `seed` (splitmix64 finaliser,
/// so neighbouring seeds give unrelated slices).
pub fn slice_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One `run_ber` call on one worker thread.
pub struct Slice {
    pub secs: f64,
    pub shots: usize,
    pub failures: usize,
    pub giveups: usize,
}

pub fn run_slice(
    circuit: &Circuit,
    decoder: &(dyn Decoder + Send),
    shots: usize,
    seed: u64,
) -> Slice {
    let t = Instant::now();
    let stats = run_ber(circuit, decoder, shots, seed, 1);
    Slice {
        secs: t.elapsed().as_secs_f64(),
        shots: stats.shots,
        failures: stats.failures,
        giveups: stats.decode_giveups,
    }
}

/// Layer totals of a traced replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    pub sample_ns: u64,
    pub extract_ns: u64,
    pub decode_ns: u64,
    pub compare_ns: u64,
    /// Wall time of the replay's batches, sample start to compare end.
    pub wall_ns: u64,
    pub shots: usize,
    pub decoded: usize,
    pub empty: usize,
    pub flagged: usize,
    pub defects: usize,
    pub failures: usize,
}

impl Layers {
    pub fn layer_sum_ns(&self) -> u64 {
        self.sample_ns + self.extract_ns + self.decode_ns + self.compare_ns
    }

    pub fn add(&mut self, o: &Layers) {
        self.sample_ns += o.sample_ns;
        self.extract_ns += o.extract_ns;
        self.decode_ns += o.decode_ns;
        self.compare_ns += o.compare_ns;
        self.wall_ns += o.wall_ns;
        self.shots += o.shots;
        self.decoded += o.decoded;
        self.empty += o.empty;
        self.flagged += o.flagged;
        self.defects += o.defects;
        self.failures += o.failures;
    }
}

/// Replays `run_ber(circuit, decoder, shots, seed, 1)` batch by batch —
/// the same RNG streams, sampler, zero-syndrome shortcut and compare —
/// timing sample, extract, decode and compare per batch as spans. The
/// flag split for `decode.flagged_shot_share` runs outside the timed
/// batch.
pub fn replay(
    spans: &mut Spans,
    circuit: &Circuit,
    decoder: &(dyn Decoder + Send),
    hypergraph: &DecodingHypergraph,
    shots: usize,
    seed: u64,
) -> Layers {
    let mut layers = Layers::default();
    let sampler = FrameSampler::new(circuit);
    let mut scratch = FrameBatch::new();
    let mut decode_scratch = DecodeScratch::new();
    let mut dets: Vec<BitVec> = (0..64).map(|_| BitVec::zeros(0)).collect();
    let mut actual: Vec<BitVec> = (0..64).map(|_| BitVec::zeros(0)).collect();
    let mut predicted: Vec<BitVec> = (0..64).map(|_| BitVec::zeros(0)).collect();
    let mut checks = Vec::new();
    let mut flags = BitVec::zeros(0);
    let root = spans.enter("ber.replay");
    for b in 0..shots.div_ceil(64) {
        let batch_span = spans.enter("ber.batch");

        let open = spans.enter("sim.sample");
        let mut rng = Xoshiro256StarStar::from_seed_stream(seed, b as u64);
        let batch = sampler.sample_batch_with(&mut scratch, &mut rng);
        layers.sample_ns += spans.close(open);

        let open = spans.enter("sim.extract");
        for shot in 0..64 {
            batch.observable_bits_into(shot, &mut actual[shot]);
            batch.detector_bits_into(shot, &mut dets[shot]);
        }
        layers.extract_ns += spans.close(open);

        let open = spans.enter("decode.decode");
        for shot in 0..64 {
            if !dets[shot].is_zero() {
                decoder.decode_into(&dets[shot], &mut decode_scratch, &mut predicted[shot]);
            }
        }
        layers.decode_ns += spans.close(open);

        let open = spans.enter("core.compare");
        for shot in 0..64 {
            let failed = if dets[shot].is_zero() {
                !actual[shot].is_zero()
            } else {
                predicted[shot] != actual[shot]
            };
            layers.failures += usize::from(failed);
        }
        layers.compare_ns += spans.close(open);
        layers.wall_ns += spans.close(batch_span);

        for det in &dets {
            if det.is_zero() {
                layers.empty += 1;
                continue;
            }
            layers.decoded += 1;
            hypergraph.split_shot_into(det, &mut checks, &mut flags);
            layers.defects += checks.len();
            layers.flagged += usize::from(!flags.is_zero());
        }
        layers.shots += 64;
    }
    spans.close(root);
    layers
}
