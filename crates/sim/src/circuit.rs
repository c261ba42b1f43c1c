//! Clifford + Pauli-noise circuit IR.

use std::fmt;

/// One circuit operation.
///
/// The gate set is the minimal Clifford set needed for CSS syndrome
/// extraction (H, CX, reset, Z-basis measurement) plus the Pauli noise
/// channels of the paper's error model. X-basis preparation and
/// measurement are expressed via H.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Hadamard on each target.
    H(Vec<usize>),
    /// Controlled-X on each `(control, target)` pair.
    Cx(Vec<(usize, usize)>),
    /// Reset each target to `|0⟩`.
    Reset(Vec<usize>),
    /// Z-basis measurement of each target, in order. Each outcome is
    /// classically flipped with probability `flip_probability`.
    Measure {
        /// Qubits to measure, each producing one record entry.
        targets: Vec<usize>,
        /// Classical readout-error probability.
        flip_probability: f64,
    },
    /// X error on each target independently with probability `p`.
    XError {
        /// Affected qubits.
        targets: Vec<usize>,
        /// Per-qubit error probability.
        p: f64,
    },
    /// Z error on each target independently with probability `p`.
    ZError {
        /// Affected qubits.
        targets: Vec<usize>,
        /// Per-qubit error probability.
        p: f64,
    },
    /// Independent single-qubit Pauli channel: X with `px`, Y with
    /// `py`, Z with `pz` (mutually exclusive outcomes).
    PauliChannel1 {
        /// Affected qubits.
        targets: Vec<usize>,
        /// X probability.
        px: f64,
        /// Y probability.
        py: f64,
        /// Z probability.
        pz: f64,
    },
    /// Single-qubit depolarizing: one of the 3 Paulis, each `p/3`.
    Depolarize1 {
        /// Affected qubits.
        targets: Vec<usize>,
        /// Total error probability.
        p: f64,
    },
    /// Two-qubit depolarizing on each pair: one of the 15 non-identity
    /// Pauli pairs, each `p/15`.
    Depolarize2 {
        /// Affected qubit pairs.
        pairs: Vec<(usize, usize)>,
        /// Total error probability.
        p: f64,
    },
    /// Timing marker separating layers (no semantic effect).
    Tick,
}

impl Op {
    /// The probability at which a noise op faults each target: the
    /// readout-flip probability of `Measure`, the channel total of
    /// `PauliChannel1`, `p` of the other channels; `None` for gates.
    pub fn noise_probability(&self) -> Option<f64> {
        match self {
            Op::Measure {
                flip_probability, ..
            } => Some(*flip_probability),
            Op::XError { p, .. }
            | Op::ZError { p, .. }
            | Op::Depolarize1 { p, .. }
            | Op::Depolarize2 { p, .. } => Some(*p),
            Op::PauliChannel1 { px, py, pz, .. } => Some(px + py + pz),
            Op::H(_) | Op::Cx(_) | Op::Reset(_) | Op::Tick => None,
        }
    }
}

/// Metadata attached to a detector, consumed by decoders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DetectorMeta {
    /// `true` for flag-qubit detectors, `false` for parity checks.
    pub is_flag: bool,
    /// Check index (within its code) or flag index.
    pub id: usize,
    /// Syndrome-extraction round the detector belongs to.
    pub round: usize,
    /// Plaquette color for color codes: 0 = red, 1 = green, 2 = blue.
    pub color: Option<u8>,
}

impl DetectorMeta {
    /// Metadata for a parity-check detector.
    pub fn check(id: usize, round: usize) -> Self {
        DetectorMeta {
            is_flag: false,
            id,
            round,
            color: None,
        }
    }

    /// Metadata for a colored parity-check detector (color codes).
    pub fn colored_check(id: usize, round: usize, color: u8) -> Self {
        DetectorMeta {
            is_flag: false,
            id,
            round,
            color: Some(color),
        }
    }

    /// Metadata for a flag-measurement detector.
    pub fn flag(id: usize, round: usize) -> Self {
        DetectorMeta {
            is_flag: true,
            id,
            round,
            color: None,
        }
    }
}

/// A detector: a parity of measurement outcomes that is deterministic
/// (always 0) in the absence of noise.
#[derive(Debug, Clone, PartialEq)]
pub struct Detector {
    /// Absolute measurement-record indices whose XOR forms the value.
    pub measurements: Vec<usize>,
    /// Decoder-facing metadata.
    pub meta: DetectorMeta,
}

/// A Clifford + Pauli-noise circuit with detectors and observables.
///
/// Measurement outcomes are indexed by their position in the global
/// measurement record, in program order.
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    num_qubits: usize,
    ops: Vec<Op>,
    num_measurements: usize,
    detectors: Vec<Detector>,
    observables: Vec<Vec<usize>>,
}

impl Circuit {
    /// Creates an empty circuit on `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            ..Circuit::default()
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Operations in program order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Total number of measurement-record entries.
    pub fn num_measurements(&self) -> usize {
        self.num_measurements
    }

    /// The detectors.
    pub fn detectors(&self) -> &[Detector] {
        &self.detectors
    }

    /// The observables, each a list of measurement indices.
    pub fn observables(&self) -> &[Vec<usize>] {
        &self.observables
    }

    fn check_targets(&self, targets: &[usize]) {
        for &t in targets {
            assert!(t < self.num_qubits, "qubit {t} out of range");
        }
    }

    fn check_probability(p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability {p} not in [0, 1]");
    }

    /// Appends Hadamards.
    ///
    /// # Panics
    ///
    /// Panics if a target is out of range.
    pub fn h(&mut self, targets: &[usize]) {
        self.check_targets(targets);
        self.ops.push(Op::H(targets.to_vec()));
    }

    /// Appends CNOTs.
    ///
    /// # Panics
    ///
    /// Panics if a qubit is out of range or a pair has equal elements.
    pub fn cx(&mut self, pairs: &[(usize, usize)]) {
        for &(c, t) in pairs {
            assert!(
                c < self.num_qubits && t < self.num_qubits,
                "qubit out of range"
            );
            assert_ne!(c, t, "CX control equals target");
        }
        self.ops.push(Op::Cx(pairs.to_vec()));
    }

    /// Appends resets to `|0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if a target is out of range.
    pub fn reset(&mut self, targets: &[usize]) {
        self.check_targets(targets);
        self.ops.push(Op::Reset(targets.to_vec()));
    }

    /// Appends Z-basis measurements with classical flip probability
    /// `flip_probability`, returning the record index of the **first**
    /// outcome (the rest follow consecutively).
    ///
    /// # Panics
    ///
    /// Panics if a target is out of range or `flip_probability` is not
    /// in `[0, 1]` (NaN included).
    pub fn measure(&mut self, targets: &[usize], flip_probability: f64) -> usize {
        self.check_targets(targets);
        Self::check_probability(flip_probability);
        let first = self.num_measurements;
        self.num_measurements += targets.len();
        self.ops.push(Op::Measure {
            targets: targets.to_vec(),
            flip_probability,
        });
        first
    }

    /// Appends an X-error channel.
    ///
    /// # Panics
    ///
    /// Panics if a target is out of range or `p` is not in `[0, 1]`.
    pub fn x_error(&mut self, targets: &[usize], p: f64) {
        self.check_targets(targets);
        Self::check_probability(p);
        self.ops.push(Op::XError {
            targets: targets.to_vec(),
            p,
        });
    }

    /// Appends a Z-error channel.
    ///
    /// # Panics
    ///
    /// Panics if a target is out of range or `p` is not in `[0, 1]`.
    pub fn z_error(&mut self, targets: &[usize], p: f64) {
        self.check_targets(targets);
        Self::check_probability(p);
        self.ops.push(Op::ZError {
            targets: targets.to_vec(),
            p,
        });
    }

    /// Appends a single-qubit Pauli channel.
    ///
    /// # Panics
    ///
    /// Panics if a target is out of range, or if `px`, `py`, `pz` or
    /// their total is not in `[0, 1]`.
    pub fn pauli_channel1(&mut self, targets: &[usize], px: f64, py: f64, pz: f64) {
        self.check_targets(targets);
        for p in [px, py, pz, px + py + pz] {
            Self::check_probability(p);
        }
        self.ops.push(Op::PauliChannel1 {
            targets: targets.to_vec(),
            px,
            py,
            pz,
        });
    }

    /// Appends single-qubit depolarizing noise.
    ///
    /// # Panics
    ///
    /// Panics if a target is out of range or `p` is not in `[0, 1]`.
    pub fn depolarize1(&mut self, targets: &[usize], p: f64) {
        self.check_targets(targets);
        Self::check_probability(p);
        self.ops.push(Op::Depolarize1 {
            targets: targets.to_vec(),
            p,
        });
    }

    /// Appends two-qubit depolarizing noise.
    ///
    /// # Panics
    ///
    /// Panics if a qubit is out of range, a pair has equal elements or
    /// `p` is not in `[0, 1]`.
    pub fn depolarize2(&mut self, pairs: &[(usize, usize)], p: f64) {
        Self::check_probability(p);
        for &(a, b) in pairs {
            assert!(
                a < self.num_qubits && b < self.num_qubits,
                "qubit out of range"
            );
            assert_ne!(a, b, "depolarize2 pair has equal qubits");
        }
        self.ops.push(Op::Depolarize2 {
            pairs: pairs.to_vec(),
            p,
        });
    }

    /// Appends a layer separator.
    pub fn tick(&mut self) {
        self.ops.push(Op::Tick);
    }

    /// Defines a detector over the given measurement indices.
    ///
    /// # Panics
    ///
    /// Panics if an index refers to a measurement that does not exist
    /// yet.
    pub fn add_detector(&mut self, measurements: Vec<usize>, meta: DetectorMeta) {
        for &m in &measurements {
            assert!(
                m < self.num_measurements,
                "measurement {m} not recorded yet"
            );
        }
        self.detectors.push(Detector { measurements, meta });
    }

    /// Creates a new observable and returns its index.
    pub fn add_observable(&mut self) -> usize {
        self.observables.push(Vec::new());
        self.observables.len() - 1
    }

    /// Adds measurement terms to an observable.
    ///
    /// # Panics
    ///
    /// Panics if the observable or a measurement index is invalid.
    pub fn include_in_observable(&mut self, observable: usize, measurements: &[usize]) {
        for &m in measurements {
            assert!(
                m < self.num_measurements,
                "measurement {m} not recorded yet"
            );
        }
        self.observables[observable].extend_from_slice(measurements);
    }

    /// Count of two-qubit gate pairs (for latency/size reporting).
    pub fn num_cx_pairs(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Cx(pairs) => pairs.len(),
                _ => 0,
            })
            .sum()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Circuit({} qubits, {} ops, {} measurements, {} detectors, {} observables)",
            self.num_qubits,
            self.ops.len(),
            self.num_measurements,
            self.detectors.len(),
            self.observables.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_indices_are_sequential() {
        let mut c = Circuit::new(3);
        let a = c.measure(&[0, 1], 0.0);
        let b = c.measure(&[2], 0.01);
        assert_eq!(a, 0);
        assert_eq!(b, 2);
        assert_eq!(c.num_measurements(), 3);
    }

    #[test]
    fn detector_validation() {
        let mut c = Circuit::new(1);
        let m = c.measure(&[0], 0.0);
        c.add_detector(vec![m], DetectorMeta::check(0, 0));
        assert_eq!(c.detectors().len(), 1);
        assert!(!c.detectors()[0].meta.is_flag);
    }

    #[test]
    #[should_panic(expected = "not recorded yet")]
    fn detector_on_future_measurement_panics() {
        let mut c = Circuit::new(1);
        c.add_detector(vec![0], DetectorMeta::check(0, 0));
    }

    #[test]
    #[should_panic(expected = "control equals target")]
    fn self_cx_panics() {
        let mut c = Circuit::new(2);
        c.cx(&[(1, 1)]);
    }

    #[test]
    fn every_noise_op_rejects_out_of_range_probabilities() {
        type Build = fn(&mut Circuit, f64);
        let builders: [Build; 6] = [
            |c, p| {
                c.measure(&[0], p);
            },
            |c, p| c.x_error(&[0], p),
            |c, p| c.z_error(&[0], p),
            |c, p| c.pauli_channel1(&[0], p, 0.0, 0.0),
            |c, p| c.depolarize1(&[0], p),
            |c, p| c.depolarize2(&[(0, 1)], p),
        ];
        for (i, build) in builders.iter().enumerate() {
            for p in [f64::NAN, -1e-9, 1.0 + 1e-9, f64::INFINITY] {
                let caught = std::panic::catch_unwind(|| build(&mut Circuit::new(2), p));
                assert!(caught.is_err(), "builder {i} accepted p = {p}");
            }
            for p in [0.0, 1e-17, 0.5, 1.0] {
                build(&mut Circuit::new(2), p);
            }
        }
        let caught =
            std::panic::catch_unwind(|| Circuit::new(1).pauli_channel1(&[0], 0.5, 0.5, 0.5));
        assert!(caught.is_err(), "pauli_channel1 accepted a total above 1");
    }

    #[test]
    fn observables_accumulate() {
        let mut c = Circuit::new(2);
        let m = c.measure(&[0, 1], 0.0);
        let obs = c.add_observable();
        c.include_in_observable(obs, &[m, m + 1]);
        assert_eq!(c.observables()[obs], vec![0, 1]);
    }

    #[test]
    fn cx_pair_count() {
        let mut c = Circuit::new(3);
        c.cx(&[(0, 1), (1, 2)]);
        c.cx(&[(0, 2)]);
        assert_eq!(c.num_cx_pairs(), 3);
    }
}
