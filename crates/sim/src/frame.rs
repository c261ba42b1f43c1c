//! Bit-parallel Pauli-frame sampling.
//!
//! The frame simulator tracks, for every qubit, whether each of 64
//! simultaneous shots currently differs from the noiseless reference
//! execution by an X and/or Z flip. The 64 shots live in the bits of
//! one `u64` word per qubit per basis, so Clifford gates map Pauli
//! frames to Pauli frames with pure bit operations and a batch of 64
//! shots costs barely more than one. This is the same strategy Stim
//! uses for sampling memory experiments.
//!
//! [`FrameSampler::sample_batch_with`] sweeps the instructions once per
//! 64 shots, writing into a caller-owned [`FrameBatch`] scratch so the
//! hot loop never reallocates frames. Each noise op injects faults
//! through a [`MaskRate`] precomputed in [`FrameSampler::new`],
//! bit-identical to calling [`sample_mask`] per location. The scalar
//! one-shot sampler it is benchmarked and cross-checked against lives
//! in `qec-testkit`'s `reference` module.
//!
//! Detectors must be deterministic under zero noise (checked in the
//! tests with `qec-testkit`'s tableau simulator); their sampled value
//! is then the XOR of the *flips* of their constituent measurements.

use crate::circuit::{Circuit, Op};
use qec_math::rng::Rng;
use qec_math::BitVec;
use std::collections::HashMap;

/// Results of one 64-shot batch.
#[derive(Debug, Clone)]
pub struct ShotBatch {
    /// One 64-bit mask per detector; bit `i` = detector fired in shot `i`.
    pub detectors: Vec<u64>,
    /// One 64-bit mask per observable; bit `i` = observable flipped.
    pub observables: Vec<u64>,
}

impl ShotBatch {
    /// Extracts the detector outcomes of one shot as a [`BitVec`].
    ///
    /// # Panics
    ///
    /// Panics if `shot >= 64`.
    pub fn detector_bits(&self, shot: usize) -> BitVec {
        let mut out = BitVec::zeros(0);
        self.detector_bits_into(shot, &mut out);
        out
    }

    /// Extracts the detector outcomes of one shot into `out`, reusing
    /// its storage (the scratch-reuse counterpart of
    /// [`detector_bits`](Self::detector_bits) for the decode hot loop).
    ///
    /// # Panics
    ///
    /// Panics if `shot >= 64`.
    pub fn detector_bits_into(&self, shot: usize, out: &mut BitVec) {
        assert!(shot < 64, "batch holds 64 shots");
        out.reset_zeros(self.detectors.len());
        for (d, &m) in self.detectors.iter().enumerate() {
            if (m >> shot) & 1 == 1 {
                out.set(d, true);
            }
        }
    }

    /// Extracts the observable flips of one shot.
    ///
    /// # Panics
    ///
    /// Panics if `shot >= 64`.
    pub fn observable_bits(&self, shot: usize) -> BitVec {
        let mut out = BitVec::zeros(0);
        self.observable_bits_into(shot, &mut out);
        out
    }

    /// Extracts the observable flips of one shot into `out`, reusing
    /// its storage.
    ///
    /// # Panics
    ///
    /// Panics if `shot >= 64`.
    pub fn observable_bits_into(&self, shot: usize, out: &mut BitVec) {
        assert!(shot < 64, "batch holds 64 shots");
        out.reset_zeros(self.observables.len());
        for (o, &m) in self.observables.iter().enumerate() {
            if (m >> shot) & 1 == 1 {
                out.set(o, true);
            }
        }
    }

    /// `true` if any shot in the batch fired any detector.
    pub fn any_detection(&self) -> bool {
        self.fired_shots() != 0
    }

    /// Bit `i` is set when shot `i` fired at least one detector. A
    /// shot whose bit is clear has an empty syndrome, so a decode loop
    /// can settle it from [`flipped_shots`](Self::flipped_shots) alone
    /// without extracting its bits.
    pub fn fired_shots(&self) -> u64 {
        self.detectors.iter().fold(0, |acc, &m| acc | m)
    }

    /// Bit `i` is set when shot `i` flipped at least one observable.
    pub fn flipped_shots(&self) -> u64 {
        self.observables.iter().fold(0, |acc, &m| acc | m)
    }
}

/// Reusable scratch space for batched sampling: the X/Z frame words and
/// the measurement-flip record. Allocate once per worker thread and
/// pass to [`FrameSampler::sample_batch_with`] so steady-state sampling
/// reuses frame and record storage across batches.
#[derive(Debug, Default, Clone)]
pub struct FrameBatch {
    x: Vec<u64>,
    z: Vec<u64>,
    record: Vec<u64>,
}

impl FrameBatch {
    /// Creates an empty scratch buffer; it sizes itself on first use.
    pub fn new() -> Self {
        FrameBatch::default()
    }

    fn reset_for(&mut self, num_qubits: usize, num_measurements: usize) {
        self.x.clear();
        self.z.clear();
        self.x.resize(num_qubits, 0);
        self.z.resize(num_qubits, 0);
        self.record.clear();
        self.record.reserve(num_measurements);
    }
}

/// Samples a 64-bit mask whose bits are independently 1 with
/// probability `p`, by geometric skipping.
///
/// Each call prices `ln(1 - p)` and then draws one uniform and one `ln`
/// per skip, so it costs about `2 + 64p` `ln` calls. The batched
/// sampler does not call it: [`FrameSampler::new`] precomputes the
/// per-probability constants once, and a location whose first draw
/// already skips all 64 lanes costs one draw and no `ln` at all. Both
/// forms run the same skip loop on the same draws, so they return the
/// same masks and leave the RNG in the same state.
///
/// This is the noise-injection primitive of the batched sampler; it is
/// public so statistical tests can validate its per-bit frequencies
/// directly against binomial bounds.
///
/// # Panics
///
/// Panics if `p` is NaN.
pub fn sample_mask(rng: &mut impl Rng, p: f64) -> u64 {
    if p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return !0u64;
    }
    let u = rng.gen_f64();
    skip_mask(rng, log_keep(p), u)
}

/// `ln(1 - p)`: the log-probability that one lane stays clear.
///
/// Where `1 - p` rounds to `1.0` (p below about 1.1e-16) that form is
/// `0.0`, every skip would divide to `-inf` and cast to 0, and the
/// fault would fire in every lane; only there is it priced as
/// `ln_1p(-p)`. Everywhere else it is exactly `(1 - p).ln()`, the value
/// the sampler golden fingerprints were pinned with.
fn log_keep(p: f64) -> f64 {
    assert!(!p.is_nan(), "noise probability is NaN");
    let keep = 1.0 - p;
    if keep < 1.0 {
        keep.ln()
    } else {
        (-p).ln_1p()
    }
}

/// Lanes skipped before the next fault, for a uniform draw `u`.
fn skip(u: f64, log_keep: f64) -> usize {
    ((1.0 - u).ln() / log_keep) as usize
}

/// The geometric skip loop shared by [`sample_mask`] and
/// [`MaskRate::sample`], starting from the already drawn uniform `u`.
fn skip_mask(rng: &mut impl Rng, log_keep: f64, mut u: f64) -> u64 {
    let mut mask = 0u64;
    let mut i: usize = 0;
    loop {
        i = i.saturating_add(skip(u, log_keep));
        if i >= 64 {
            return mask;
        }
        mask |= 1u64 << i;
        i += 1;
        u = rng.gen_f64();
    }
}

/// [`sample_mask`] for one probability, with its constants computed
/// once: what [`FrameSampler::new`] builds for each distinct noise
/// probability of a circuit.
///
/// [`sample`](Self::sample) returns the same mask as `sample_mask(rng,
/// p)` and leaves the RNG in the same state. It still draws the first
/// uniform `u` of every call; when `u` is at or above
/// [`zero_from`](Self::zero_from) the first skip already passes all 64
/// lanes, so it returns the empty mask without an `ln`. Otherwise it
/// runs [`sample_mask`]'s skip loop with the precomputed `ln(1 - p)`.
///
/// # Example
///
/// ```
/// use qec_math::rng::{Rng, Xoshiro256StarStar};
/// use qec_sim::{sample_mask, MaskRate};
///
/// let rate = MaskRate::new(1e-3);
/// let mut a = Xoshiro256StarStar::seed_from_u64(5);
/// let mut b = Xoshiro256StarStar::seed_from_u64(5);
/// for _ in 0..1000 {
///     assert_eq!(rate.sample(&mut a), sample_mask(&mut b, 1e-3));
/// }
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaskRate {
    p: f64,
    log_keep: f64,
    /// The smallest value `k·2⁻⁵³` on [`Rng::gen_f64`]'s grid whose
    /// skip reaches 64 lanes, or `1.0` (above every draw) when no draw
    /// does.
    zero_from: f64,
}

/// The spacing of [`Rng::gen_f64`]'s output grid.
const GRID: f64 = 1.0 / (1u64 << 53) as f64;

impl MaskRate {
    /// Precomputes the constants of probability `p`: one `ln` and a
    /// 53-step binary search.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN.
    pub fn new(p: f64) -> Self {
        if p <= 0.0 || p >= 1.0 {
            return MaskRate {
                p,
                log_keep: 0.0,
                zero_from: 0.0,
            };
        }
        let log_keep = log_keep(p);
        // `skip` never decreases as `u` grows (1 - u falls, ln is
        // monotone, log_keep < 0), so binary search the grid for the
        // first point that skips all 64 lanes. `hi = 2⁵³` stands for
        // "no such draw" and maps to 1.0.
        let (mut lo, mut hi) = (0u64, 1u64 << 53);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if skip(mid as f64 * GRID, log_keep) >= 64 {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        MaskRate {
            p,
            log_keep,
            zero_from: lo as f64 * GRID,
        }
    }

    /// The zero-mask threshold: a first draw `u >= zero_from` yields
    /// the empty mask. `None` for `p <= 0` and `p >= 1`, which draw
    /// nothing.
    pub fn zero_from(&self) -> Option<f64> {
        (self.p > 0.0 && self.p < 1.0).then_some(self.zero_from)
    }

    /// Samples one mask: the same value and RNG consumption as
    /// `sample_mask(rng, p)` for the `p` it was built with.
    #[inline]
    pub fn sample(&self, rng: &mut impl Rng) -> u64 {
        if self.p <= 0.0 {
            return 0;
        }
        if self.p >= 1.0 {
            return !0u64;
        }
        let u = rng.gen_f64();
        if u >= self.zero_from {
            return 0;
        }
        skip_mask(rng, self.log_keep, u)
    }
}

/// A Pauli-frame sampler over a fixed circuit.
///
/// The sampler is stateless between batches, so it can be shared across
/// threads (each thread brings its own RNG and [`FrameBatch`] scratch).
///
/// # Example
///
/// ```
/// use qec_sim::{Circuit, DetectorMeta, FrameSampler};
/// use qec_math::rng::Xoshiro256StarStar;
///
/// let mut c = Circuit::new(2);
/// c.reset(&[0, 1]);
/// c.x_error(&[0], 0.5);
/// c.cx(&[(0, 1)]);
/// let m = c.measure(&[1], 0.0);
/// c.add_detector(vec![m], DetectorMeta::check(0, 0));
/// let sampler = FrameSampler::new(&c);
/// let batch = sampler.sample_batch(&mut Xoshiro256StarStar::seed_from_u64(1));
/// // Roughly half the shots fire the detector.
/// let fired = batch.detectors[0].count_ones();
/// assert!(fired > 10 && fired < 54);
/// ```
#[derive(Debug)]
pub struct FrameSampler<'c> {
    circuit: &'c Circuit,
    /// One entry per op: the mask constants of its noise probability
    /// (the channel total for `PauliChannel1`); gates get a zero rate.
    rates: Vec<MaskRate>,
}

impl<'c> FrameSampler<'c> {
    /// Creates a sampler over `circuit`, computing the skip constants
    /// of each distinct noise probability once.
    pub fn new(circuit: &'c Circuit) -> Self {
        let mut cache: HashMap<u64, MaskRate> = HashMap::new();
        let rates = circuit
            .ops()
            .iter()
            .map(|op| {
                let p = op.noise_probability().unwrap_or(0.0);
                *cache.entry(p.to_bits()).or_insert_with(|| MaskRate::new(p))
            })
            .collect();
        FrameSampler { circuit, rates }
    }

    /// Runs 64 shots and returns their detector/observable outcomes,
    /// allocating fresh scratch. Convenience wrapper around
    /// [`sample_batch_with`](Self::sample_batch_with) for callers off
    /// the hot path.
    pub fn sample_batch(&self, rng: &mut impl Rng) -> ShotBatch {
        let mut scratch = FrameBatch::new();
        self.sample_batch_with(&mut scratch, rng)
    }

    /// Runs 64 shots using caller-owned scratch buffers.
    ///
    /// This is the hot path of every Monte-Carlo experiment: one
    /// instruction sweep advances all 64 shots, and `scratch` is reused
    /// across calls so steady-state sampling does not reallocate frame
    /// or record storage.
    pub fn sample_batch_with(&self, scratch: &mut FrameBatch, rng: &mut impl Rng) -> ShotBatch {
        let n = self.circuit.num_qubits();
        scratch.reset_for(n, self.circuit.num_measurements());
        let x = &mut scratch.x;
        let z = &mut scratch.z;
        let record = &mut scratch.record;
        for (op, rate) in self.circuit.ops().iter().zip(&self.rates) {
            match op {
                Op::H(targets) => {
                    for &q in targets {
                        std::mem::swap(&mut x[q], &mut z[q]);
                    }
                }
                Op::Cx(pairs) => {
                    for &(c, t) in pairs {
                        x[t] ^= x[c];
                        z[c] ^= z[t];
                    }
                }
                Op::Reset(targets) => {
                    for &q in targets {
                        x[q] = 0;
                        z[q] = 0;
                    }
                }
                Op::Measure { targets, .. } => {
                    for &q in targets {
                        let flips = rate.sample(rng);
                        record.push(x[q] ^ flips);
                    }
                }
                Op::XError { targets, .. } => {
                    for &q in targets {
                        x[q] ^= rate.sample(rng);
                    }
                }
                Op::ZError { targets, .. } => {
                    for &q in targets {
                        z[q] ^= rate.sample(rng);
                    }
                }
                Op::PauliChannel1 {
                    targets,
                    px,
                    py,
                    pz,
                } => {
                    let total = px + py + pz;
                    for &q in targets {
                        let mut m = rate.sample(rng);
                        while m != 0 {
                            let bit = m & m.wrapping_neg();
                            m &= m - 1;
                            let u: f64 = rng.gen_f64() * total;
                            if u < px + py {
                                x[q] ^= bit; // X or Y flips the X frame
                            }
                            if u >= *px {
                                z[q] ^= bit; // Y or Z flips the Z frame
                            }
                        }
                    }
                }
                Op::Depolarize1 { targets, .. } => {
                    for &q in targets {
                        let mut m = rate.sample(rng);
                        while m != 0 {
                            let bit = m & m.wrapping_neg();
                            m &= m - 1;
                            match rng.gen_range(0..3u8) {
                                0 => x[q] ^= bit,
                                1 => {
                                    x[q] ^= bit;
                                    z[q] ^= bit;
                                }
                                _ => z[q] ^= bit,
                            }
                        }
                    }
                }
                Op::Depolarize2 { pairs, .. } => {
                    for &(a, b) in pairs {
                        let mut m = rate.sample(rng);
                        while m != 0 {
                            let bit = m & m.wrapping_neg();
                            m &= m - 1;
                            // One of the 15 non-identity two-qubit Paulis.
                            let k = rng.gen_range(1..16u8);
                            let (pa, pb) = (k / 4, k % 4);
                            apply_pauli_bit(&mut x[a], &mut z[a], pa, bit);
                            apply_pauli_bit(&mut x[b], &mut z[b], pb, bit);
                        }
                    }
                }
                Op::Tick => {}
            }
        }
        let detectors = self
            .circuit
            .detectors()
            .iter()
            .map(|d| d.measurements.iter().fold(0u64, |acc, &m| acc ^ record[m]))
            .collect();
        let observables = self
            .circuit
            .observables()
            .iter()
            .map(|obs| obs.iter().fold(0u64, |acc, &m| acc ^ record[m]))
            .collect();
        ShotBatch {
            detectors,
            observables,
        }
    }
}

/// Applies Pauli code `code` (0 = I, 1 = X, 2 = Y, 3 = Z) to the given
/// frame bit.
fn apply_pauli_bit(x: &mut u64, z: &mut u64, code: u8, bit: u64) {
    match code {
        1 => *x ^= bit,
        2 => {
            *x ^= bit;
            *z ^= bit;
        }
        3 => *z ^= bit,
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::DetectorMeta;
    use qec_math::rng::Xoshiro256StarStar;

    #[test]
    fn sample_mask_density_matches_p() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(99);
        for &p in &[0.01f64, 0.1, 0.5, 0.9] {
            let mut ones = 0usize;
            let trials = 2000;
            for _ in 0..trials {
                ones += sample_mask(&mut rng, p).count_ones() as usize;
            }
            let freq = ones as f64 / (trials as f64 * 64.0);
            assert!((freq - p).abs() < 0.02, "p={p} measured {freq}");
        }
        assert_eq!(sample_mask(&mut rng, 0.0), 0);
        assert_eq!(sample_mask(&mut rng, 1.0), !0u64);
    }

    #[test]
    fn x_error_propagates_through_cx() {
        let mut c = Circuit::new(2);
        c.reset(&[0, 1]);
        c.x_error(&[0], 1.0);
        c.cx(&[(0, 1)]);
        let m = c.measure(&[0, 1], 0.0);
        c.add_detector(vec![m], DetectorMeta::check(0, 0));
        c.add_detector(vec![m + 1], DetectorMeta::check(1, 0));
        let batch = FrameSampler::new(&c).sample_batch(&mut Xoshiro256StarStar::seed_from_u64(3));
        assert_eq!(batch.detectors[0], !0u64); // control flipped
        assert_eq!(batch.detectors[1], !0u64); // propagated to target
    }

    #[test]
    fn z_error_invisible_to_z_measurement() {
        let mut c = Circuit::new(1);
        c.reset(&[0]);
        c.z_error(&[0], 1.0);
        let m = c.measure(&[0], 0.0);
        c.add_detector(vec![m], DetectorMeta::check(0, 0));
        let batch = FrameSampler::new(&c).sample_batch(&mut Xoshiro256StarStar::seed_from_u64(3));
        assert_eq!(batch.detectors[0], 0);
    }

    #[test]
    fn hadamard_exchanges_frames() {
        // Z error + H -> X error -> visible.
        let mut c = Circuit::new(1);
        c.reset(&[0]);
        c.z_error(&[0], 1.0);
        c.h(&[0]);
        let m = c.measure(&[0], 0.0);
        c.add_detector(vec![m], DetectorMeta::check(0, 0));
        let batch = FrameSampler::new(&c).sample_batch(&mut Xoshiro256StarStar::seed_from_u64(3));
        assert_eq!(batch.detectors[0], !0u64);
    }

    #[test]
    fn measurement_flip_probability_respected() {
        let mut c = Circuit::new(1);
        c.reset(&[0]);
        let m = c.measure(&[0], 0.25);
        c.add_detector(vec![m], DetectorMeta::check(0, 0));
        let sampler = FrameSampler::new(&c);
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        let mut fired = 0usize;
        for _ in 0..200 {
            fired += sampler.sample_batch(&mut rng).detectors[0].count_ones() as usize;
        }
        let freq = fired as f64 / (200.0 * 64.0);
        assert!((freq - 0.25).abs() < 0.02, "freq {freq}");
    }

    #[test]
    fn depolarize2_acts_on_both_qubits() {
        let mut c = Circuit::new(2);
        c.reset(&[0, 1]);
        c.depolarize2(&[(0, 1)], 1.0);
        let m = c.measure(&[0, 1], 0.0);
        c.add_detector(vec![m], DetectorMeta::check(0, 0));
        c.add_detector(vec![m + 1], DetectorMeta::check(1, 0));
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let sampler = FrameSampler::new(&c);
        let mut any0 = 0u64;
        let mut any1 = 0u64;
        for _ in 0..10 {
            let b = sampler.sample_batch(&mut rng);
            any0 |= b.detectors[0];
            any1 |= b.detectors[1];
        }
        // Both qubits experience X flips across shots (8/15 of cases each).
        assert!(any0.count_ones() > 20);
        assert!(any1.count_ones() > 20);
    }

    #[test]
    fn scratch_reuse_reproduces_fresh_allocation() {
        // Same RNG stream through reused scratch vs. fresh allocations
        // must be bit-identical.
        let mut c = Circuit::new(4);
        c.reset(&[0, 1, 2, 3]);
        c.depolarize1(&[0, 1, 2, 3], 0.2);
        c.cx(&[(0, 2), (1, 3)]);
        let m = c.measure(&[2, 3], 0.05);
        c.add_detector(vec![m], DetectorMeta::check(0, 0));
        c.add_detector(vec![m + 1], DetectorMeta::check(1, 0));
        let sampler = FrameSampler::new(&c);
        let mut scratch = FrameBatch::new();
        let mut rng_a = Xoshiro256StarStar::seed_from_u64(21);
        let mut rng_b = Xoshiro256StarStar::seed_from_u64(21);
        for _ in 0..16 {
            let a = sampler.sample_batch_with(&mut scratch, &mut rng_a);
            let b = sampler.sample_batch(&mut rng_b);
            assert_eq!(a.detectors, b.detectors);
            assert_eq!(a.observables, b.observables);
        }
    }
}
