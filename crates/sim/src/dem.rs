//! Detector error models: every independent fault mechanism of a noisy
//! circuit and the detectors/observables it flips.
//!
//! The model is computed with a single **backward sensitivity pass**:
//! walking the circuit in reverse while maintaining, for each qubit,
//! the set of detectors/observables an X (resp. Z) error at the current
//! position would flip. Each noise channel then emits one fault per
//! independent Pauli component, and each fault is folded into the
//! mechanism table as it is emitted, merging identical effects. Like
//! Stim's error analyzer (Gidney, arXiv:2103.02202), the pass keeps
//! nothing per raw fault: the only allocation in the walk is the key of
//! a mechanism seen for the first time.

use crate::circuit::{Circuit, DetectorMeta, Op};
use qec_math::rng::Rng;
use qec_math::{gf2, BitMatrix, BitVec};
use std::collections::HashMap;

/// One independent fault mechanism.
#[derive(Debug, Clone, PartialEq)]
pub struct Mechanism {
    /// Probability of this fault occurring per shot.
    pub probability: f64,
    /// Sorted indices of detectors it flips.
    pub detectors: Vec<u32>,
    /// Sorted indices of logical observables it flips.
    pub observables: Vec<u32>,
}

/// A circuit's detector error model.
///
/// # Example
///
/// ```
/// use qec_sim::{Circuit, DetectorMeta, DetectorErrorModel};
///
/// let mut c = Circuit::new(2);
/// c.reset(&[0, 1]);
/// c.x_error(&[0], 0.125);
/// c.cx(&[(0, 1)]);
/// let m = c.measure(&[1], 0.0);
/// c.add_detector(vec![m], DetectorMeta::check(0, 0));
/// let dem = DetectorErrorModel::from_circuit(&c);
/// assert_eq!(dem.mechanisms().len(), 1);
/// assert_eq!(dem.mechanisms()[0].detectors, vec![0]);
/// ```
#[derive(Debug, Clone)]
pub struct DetectorErrorModel {
    num_detectors: usize,
    num_observables: usize,
    detector_meta: Vec<DetectorMeta>,
    mechanisms: Vec<Mechanism>,
}

/// The mechanisms found so far, keyed by effect: sorted indices into
/// the `(detectors, observables)` bit space, observable `i` at `d + i`.
/// Each fault is folded in as the backward pass emits it, so no
/// per-fault effect is ever stored.
#[derive(Default)]
struct MergeTable {
    merged: HashMap<Vec<u32>, f64>,
    /// Reused key buffer: the effect being folded.
    key: Vec<u32>,
}

impl MergeTable {
    /// Merges a fault of probability `p` flipping `effect` into its
    /// mechanism: `p <- p1 (1 - p2) + p2 (1 - p1)` for independent
    /// faults. Faults that never occur or flip nothing are skipped.
    fn fold(&mut self, effect: &BitVec, p: f64) {
        if p <= 0.0 || effect.is_zero() {
            return;
        }
        self.key.clear();
        self.key.extend(effect.iter_ones().map(|bit| bit as u32));
        let entry = match self.merged.get_mut(self.key.as_slice()) {
            Some(entry) => entry,
            None => self.merged.entry(self.key.clone()).or_insert(0.0),
        };
        *entry = *entry * (1.0 - p) + p * (1.0 - *entry);
    }

    /// The merged mechanisms, detectors split from observables at
    /// index `d`, sorted by `(detectors, observables)`.
    fn into_mechanisms(self, d: usize) -> Vec<Mechanism> {
        let d = d as u32;
        let mut mechanisms: Vec<Mechanism> = self
            .merged
            .into_iter()
            .map(|(mut detectors, probability)| {
                let mut observables =
                    detectors.split_off(detectors.partition_point(|&bit| bit < d));
                for bit in &mut observables {
                    *bit -= d;
                }
                Mechanism {
                    probability,
                    detectors,
                    observables,
                }
            })
            .collect();
        mechanisms.sort_by(|a, b| {
            a.detectors
                .cmp(&b.detectors)
                .then(a.observables.cmp(&b.observables))
        });
        mechanisms
    }
}

impl DetectorErrorModel {
    /// Builds the detector error model of `circuit`.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let d = circuit.detectors().len();
        let o = circuit.observables().len();
        let width = d + o;
        // effects[m]: which detectors/observables contain measurement m.
        let mut effects = vec![BitVec::zeros(width); circuit.num_measurements()];
        for (di, det) in circuit.detectors().iter().enumerate() {
            for &m in &det.measurements {
                effects[m].flip(di);
            }
        }
        for (oi, obs) in circuit.observables().iter().enumerate() {
            for &m in obs {
                effects[m].flip(d + oi);
            }
        }
        let nq = circuit.num_qubits();
        let mut sens_x = vec![BitVec::zeros(width); nq];
        let mut sens_z = vec![BitVec::zeros(width); nq];
        // Reused scratch: the identity's empty effect, a CX operand,
        // the Y sensitivities of a channel's qubits and the XOR of a
        // two-qubit component.
        let zero = BitVec::zeros(width);
        let mut tmp = BitVec::zeros(width);
        let mut y_a = BitVec::zeros(width);
        let mut y_b = BitVec::zeros(width);
        let mut pair = BitVec::zeros(width);
        let mut table = MergeTable::default();
        // Walk measurement indices backward as we pass Measure ops.
        let mut next_meas = circuit.num_measurements();
        for op in circuit.ops().iter().rev() {
            match op {
                Op::H(ts) => {
                    for &q in ts {
                        std::mem::swap(&mut sens_x[q], &mut sens_z[q]);
                    }
                }
                Op::Cx(pairs) => {
                    // Forward: X_c -> X_c X_t, Z_t -> Z_t Z_c; backward
                    // sensitivities compose accordingly.
                    for &(c, t) in pairs.iter().rev() {
                        tmp.copy_from(&sens_x[t]);
                        sens_x[c].xor_assign(&tmp);
                        tmp.copy_from(&sens_z[c]);
                        sens_z[t].xor_assign(&tmp);
                    }
                }
                Op::Reset(ts) => {
                    for &q in ts {
                        sens_x[q].clear();
                        sens_z[q].clear();
                    }
                }
                Op::Measure {
                    targets,
                    flip_probability,
                } => {
                    for (k, &q) in targets.iter().enumerate().rev() {
                        let m = next_meas - (targets.len() - k);
                        if *flip_probability > 0.0 {
                            table.fold(&effects[m], *flip_probability);
                        }
                        sens_x[q].xor_assign(&effects[m]);
                    }
                    next_meas -= targets.len();
                }
                Op::XError { targets, p } => {
                    for &q in targets {
                        table.fold(&sens_x[q], *p);
                    }
                }
                Op::ZError { targets, p } => {
                    for &q in targets {
                        table.fold(&sens_z[q], *p);
                    }
                }
                Op::PauliChannel1 {
                    targets,
                    px,
                    py,
                    pz,
                } => {
                    for &q in targets {
                        if *px > 0.0 {
                            table.fold(&sens_x[q], *px);
                        }
                        if *py > 0.0 {
                            y_a.copy_from(&sens_x[q]);
                            y_a.xor_assign(&sens_z[q]);
                            table.fold(&y_a, *py);
                        }
                        if *pz > 0.0 {
                            table.fold(&sens_z[q], *pz);
                        }
                    }
                }
                Op::Depolarize1 { targets, p } => {
                    let pp = p / 3.0;
                    for &q in targets {
                        y_a.copy_from(&sens_x[q]);
                        y_a.xor_assign(&sens_z[q]);
                        table.fold(&sens_x[q], pp);
                        table.fold(&y_a, pp);
                        table.fold(&sens_z[q], pp);
                    }
                }
                Op::Depolarize2 { pairs, p } => {
                    let pp = p / 15.0;
                    for &(a, b) in pairs {
                        y_a.copy_from(&sens_x[a]);
                        y_a.xor_assign(&sens_z[a]);
                        y_b.copy_from(&sens_x[b]);
                        y_b.xor_assign(&sens_z[b]);
                        // Pauli code 0 = I, 1 = X, 2 = Y, 3 = Z.
                        let singles_a = [&zero, &sens_x[a], &y_a, &sens_z[a]];
                        let singles_b = [&zero, &sens_x[b], &y_b, &sens_z[b]];
                        for k in 1..16 {
                            pair.copy_from(singles_a[k / 4]);
                            pair.xor_assign(singles_b[k % 4]);
                            table.fold(&pair, pp);
                        }
                    }
                }
                Op::Tick => {}
            }
        }
        DetectorErrorModel {
            num_detectors: d,
            num_observables: o,
            detector_meta: circuit.detectors().iter().map(|dd| dd.meta).collect(),
            mechanisms: table.into_mechanisms(d),
        }
    }

    /// Number of detectors.
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Number of observables.
    pub fn num_observables(&self) -> usize {
        self.num_observables
    }

    /// Metadata of each detector, aligned with detector indices.
    pub fn detector_meta(&self) -> &[DetectorMeta] {
        &self.detector_meta
    }

    /// All fault mechanisms.
    pub fn mechanisms(&self) -> &[Mechanism] {
        &self.mechanisms
    }

    /// Mechanisms that flip an observable while flipping **no**
    /// detector: undetectable logical faults. A fault-tolerant circuit
    /// has none.
    pub fn undetectable_logical_mechanisms(&self) -> Vec<&Mechanism> {
        self.mechanisms
            .iter()
            .filter(|m| m.detectors.is_empty() && !m.observables.is_empty())
            .collect()
    }

    /// Estimates the **circuit-level distance**: the minimum number of
    /// fault mechanisms whose combined detector effect cancels while
    /// flipping at least one observable. This is the effective distance
    /// `d_eff` of §II-F. Uses randomized information-set decoding with
    /// `iterations` rounds; the result is an upper bound.
    ///
    /// Returns `usize::MAX` if no logical fault combination is found.
    pub fn estimate_circuit_distance(&self, iterations: usize, rng: &mut impl Rng) -> usize {
        let m = self.mechanisms.len();
        if m == 0 {
            return usize::MAX;
        }
        // det_matrix: D x m; obs_matrix: O x m.
        let mut det_matrix = BitMatrix::zeros(self.num_detectors, m);
        let mut obs_matrix = BitMatrix::zeros(self.num_observables, m);
        for (j, mech) in self.mechanisms.iter().enumerate() {
            for &di in &mech.detectors {
                det_matrix.set(di as usize, j, true);
            }
            for &oi in &mech.observables {
                obs_matrix.set(oi as usize, j, true);
            }
        }
        let kernel = gf2::nullspace(&det_matrix);
        let flips_logical = |v: &BitVec| !obs_matrix.mul_vec(v).is_zero();
        let mut best = usize::MAX;
        let consider = |v: &BitVec, best: &mut usize| {
            let w = v.weight();
            if w < *best && flips_logical(v) {
                *best = w;
            }
        };
        for row in kernel.iter_rows() {
            consider(row, &mut best);
        }
        let mut perm: Vec<usize> = (0..m).collect();
        for _ in 0..iterations {
            rng.shuffle(&mut perm);
            let mut permuted = BitMatrix::zeros(kernel.rows(), m);
            for (r, row) in kernel.iter_rows().enumerate() {
                for c in row.iter_ones() {
                    permuted.set(r, perm[c], true);
                }
            }
            let red = gf2::rref(&permuted);
            let mut inv = vec![0usize; m];
            for (i, &p) in perm.iter().enumerate() {
                inv[p] = i;
            }
            for row in red.matrix.iter_rows().take(red.rank()) {
                let back = BitVec::from_ones(m, row.iter_ones().map(|c| inv[c]));
                consider(&back, &mut best);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec_math::rng::Xoshiro256StarStar;

    #[test]
    fn propagation_error_shows_both_detectors() {
        // X on control propagates through CX to two measured qubits.
        let mut c = Circuit::new(2);
        c.reset(&[0, 1]);
        c.x_error(&[0], 0.1);
        c.cx(&[(0, 1)]);
        let m = c.measure(&[0, 1], 0.0);
        c.add_detector(vec![m], DetectorMeta::check(0, 0));
        c.add_detector(vec![m + 1], DetectorMeta::check(1, 0));
        let dem = DetectorErrorModel::from_circuit(&c);
        assert_eq!(dem.mechanisms().len(), 1);
        assert_eq!(dem.mechanisms()[0].detectors, vec![0, 1]);
        assert!((dem.mechanisms()[0].probability - 0.1).abs() < 1e-12);
    }

    #[test]
    fn reset_erases_earlier_errors() {
        let mut c = Circuit::new(1);
        c.x_error(&[0], 0.2);
        c.reset(&[0]);
        let m = c.measure(&[0], 0.0);
        c.add_detector(vec![m], DetectorMeta::check(0, 0));
        let dem = DetectorErrorModel::from_circuit(&c);
        assert!(dem.mechanisms().is_empty());
    }

    #[test]
    fn z_error_detected_after_hadamard() {
        let mut c = Circuit::new(1);
        c.reset(&[0]);
        c.h(&[0]);
        c.z_error(&[0], 0.3);
        c.h(&[0]);
        let m = c.measure(&[0], 0.0);
        c.add_detector(vec![m], DetectorMeta::check(0, 0));
        let dem = DetectorErrorModel::from_circuit(&c);
        assert_eq!(dem.mechanisms().len(), 1);
        assert_eq!(dem.mechanisms()[0].detectors, vec![0]);
    }

    #[test]
    fn identical_mechanisms_merge() {
        let mut c = Circuit::new(1);
        c.reset(&[0]);
        c.x_error(&[0], 0.1);
        c.x_error(&[0], 0.1);
        let m = c.measure(&[0], 0.0);
        c.add_detector(vec![m], DetectorMeta::check(0, 0));
        let dem = DetectorErrorModel::from_circuit(&c);
        assert_eq!(dem.mechanisms().len(), 1);
        // 0.1*0.9 + 0.9*0.1 = 0.18
        assert!((dem.mechanisms()[0].probability - 0.18).abs() < 1e-12);
    }

    #[test]
    fn measurement_flip_mechanism() {
        let mut c = Circuit::new(1);
        c.reset(&[0]);
        let m = c.measure(&[0], 0.05);
        c.add_detector(vec![m], DetectorMeta::check(0, 0));
        let dem = DetectorErrorModel::from_circuit(&c);
        assert_eq!(dem.mechanisms().len(), 1);
        assert!((dem.mechanisms()[0].probability - 0.05).abs() < 1e-12);
    }

    #[test]
    fn observable_effects_are_tracked() {
        let mut c = Circuit::new(1);
        c.reset(&[0]);
        c.x_error(&[0], 0.01);
        let m = c.measure(&[0], 0.0);
        let obs = c.add_observable();
        c.include_in_observable(obs, &[m]);
        let dem = DetectorErrorModel::from_circuit(&c);
        assert_eq!(dem.mechanisms().len(), 1);
        assert_eq!(dem.mechanisms()[0].observables, vec![0]);
        assert_eq!(dem.undetectable_logical_mechanisms().len(), 1);
    }

    #[test]
    fn depolarize2_distinct_components() {
        let mut c = Circuit::new(2);
        c.reset(&[0, 1]);
        c.depolarize2(&[(0, 1)], 0.15);
        let m = c.measure(&[0, 1], 0.0);
        c.add_detector(vec![m], DetectorMeta::check(0, 0));
        c.add_detector(vec![m + 1], DetectorMeta::check(1, 0));
        let dem = DetectorErrorModel::from_circuit(&c);
        // Z components are invisible; visible X-parts collapse to
        // {d0}, {d1}, {d0,d1}.
        assert_eq!(dem.mechanisms().len(), 3);
        // Each detector-set saw several of the 15 components merge:
        // e.g. {d0}: XI, XZ, YI, YZ, XI.. -> 4 components of p/15.
        let p15: f64 = 0.15 / 15.0;
        let merged4 = {
            let mut acc: f64 = 0.0;
            for _ in 0..4 {
                acc = acc * (1.0 - p15) + p15 * (1.0 - acc);
            }
            acc
        };
        for mech in dem.mechanisms() {
            assert!((mech.probability - merged4).abs() < 1e-9);
        }
    }

    #[test]
    fn circuit_distance_of_repetition_code() {
        // 3-bit repetition memory: two parity checks, observable on one
        // data qubit; single-qubit X noise on all three.
        let mut c = Circuit::new(5);
        c.reset(&[0, 1, 2, 3, 4]);
        c.x_error(&[0, 1, 2], 0.01);
        c.cx(&[(0, 3), (1, 3), (1, 4), (2, 4)]);
        let m = c.measure(&[3, 4], 0.0);
        c.add_detector(vec![m], DetectorMeta::check(0, 0));
        c.add_detector(vec![m + 1], DetectorMeta::check(1, 0));
        let md = c.measure(&[0, 1, 2], 0.0);
        // Final data measurements recheck the two parities.
        c.add_detector(vec![m, md, md + 1], DetectorMeta::check(0, 1));
        c.add_detector(vec![m + 1, md + 1, md + 2], DetectorMeta::check(1, 1));
        let obs = c.add_observable();
        c.include_in_observable(obs, &[md]);
        let dem = DetectorErrorModel::from_circuit(&c);
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        // Flipping the logical undetected needs all three X errors.
        assert_eq!(dem.estimate_circuit_distance(20, &mut rng), 3);
    }
}
