//! The paper's circuit-level error model (§III-A).
//!
//! For a physical error rate `p`:
//!
//! 1. decoherence/dephasing at the start of each syndrome-extraction
//!    round, Pauli-twirled from `T1 = (1/p) µs`, `T2 = 0.5 T1` over the
//!    round latency (Eqs. 3–4);
//! 2. single-qubit gates: depolarizing `0.1 p`, latency 30 ns;
//! 3. two-qubit gates: two-qubit depolarizing `p`, latency 40 ns;
//! 4. measurement: flipped outcomes at rate `p`, latency 800 ns;
//! 5. reset: failure (X error) at rate `0.1 p`, latency 30 ns;
//! 6. idling during each two-qubit gate on uninvolved qubits: `0.1 p`.

/// Operation latencies in nanoseconds (§III-A of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latencies {
    /// Single-qubit gate (H) latency.
    pub single_qubit_ns: f64,
    /// Two-qubit gate (CX) latency.
    pub two_qubit_ns: f64,
    /// Measurement latency.
    pub measurement_ns: f64,
    /// Reset latency.
    pub reset_ns: f64,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            single_qubit_ns: 30.0,
            two_qubit_ns: 40.0,
            measurement_ns: 800.0,
            reset_ns: 30.0,
        }
    }
}

/// The circuit-level noise model parameterized by the physical error
/// rate `p`.
///
/// # Example
///
/// ```
/// use qec_sim::noise::NoiseModel;
///
/// let m = NoiseModel::new(1e-3);
/// assert!((m.two_qubit_depolarizing() - 1e-3).abs() < 1e-12);
/// let (px, py, pz) = m.idle_channel(1000.0); // 1 µs round
/// assert!(px > 0.0 && pz > px); // dephasing dominates (T2 < T1)
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    p: f64,
    latencies: Latencies,
}

impl NoiseModel {
    /// Creates the model for physical error rate `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "physical error rate must be in (0,1)");
        NoiseModel {
            p,
            latencies: Latencies::default(),
        }
    }

    /// A noiseless model stand-in is not representable (`p > 0`);
    /// callers wanting noiseless circuits simply skip noise insertion.
    /// This accessor returns the physical error rate.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Operation latencies.
    pub fn latencies(&self) -> &Latencies {
        &self.latencies
    }

    /// `T1` in nanoseconds: `(1/p) µs`.
    pub fn t1_ns(&self) -> f64 {
        1000.0 / self.p
    }

    /// `T2 = 0.5 T1` in nanoseconds.
    pub fn t2_ns(&self) -> f64 {
        0.5 * self.t1_ns()
    }

    /// Single-qubit gate depolarizing probability (`0.1 p`).
    pub fn single_qubit_depolarizing(&self) -> f64 {
        0.1 * self.p
    }

    /// Two-qubit gate depolarizing probability (`p`).
    pub fn two_qubit_depolarizing(&self) -> f64 {
        self.p
    }

    /// Measurement readout-flip probability (`p`).
    pub fn measurement_flip(&self) -> f64 {
        self.p
    }

    /// Reset failure probability (`0.1 p`).
    pub fn reset_failure(&self) -> f64 {
        0.1 * self.p
    }

    /// Idling error during a two-qubit gate on an uninvolved qubit
    /// (`0.1 p`, depolarizing).
    pub fn idle_during_gate(&self) -> f64 {
        0.1 * self.p
    }

    /// Pauli-twirled decoherence/dephasing channel over a duration of
    /// `t_ns` nanoseconds (Eqs. 3–4): returns `(pX, pY, pZ)`.
    pub fn idle_channel(&self, t_ns: f64) -> (f64, f64, f64) {
        pauli_twirl(t_ns, self.t1_ns(), self.t2_ns())
    }
}

/// The Pauli-twirling approximation of amplitude+phase damping over
/// time `t` with the given `T1`, `T2` (Eqs. 3 and 4 of the paper):
///
/// `pX = pY = (1 - e^{-t/T1}) / 4`,
/// `pZ = (1 - 2 e^{-t/T2} + e^{-t/T1}) / 4`.
pub fn pauli_twirl(t_ns: f64, t1_ns: f64, t2_ns: f64) -> (f64, f64, f64) {
    assert!(t_ns >= 0.0 && t1_ns > 0.0 && t2_ns > 0.0, "invalid times");
    let e1 = (-t_ns / t1_ns).exp();
    let e2 = (-t_ns / t2_ns).exp();
    let px = (1.0 - e1) / 4.0;
    let pz = (1.0 - 2.0 * e2 + e1) / 4.0;
    (px, px, pz.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twirl_limits() {
        // t = 0: no error.
        let (px, py, pz) = pauli_twirl(0.0, 1000.0, 500.0);
        assert_eq!((px, py, pz), (0.0, 0.0, 0.0));
        // t -> infinity: px = py = 1/4, pz -> 1/4.
        let (px, _, pz) = pauli_twirl(1e12, 1000.0, 500.0);
        assert!((px - 0.25).abs() < 1e-9);
        assert!((pz - 0.25).abs() < 1e-9);
    }

    #[test]
    fn doubling_latency_roughly_doubles_small_errors() {
        let m = NoiseModel::new(1e-3);
        let (px1, _, pz1) = m.idle_channel(1000.0);
        let (px2, _, pz2) = m.idle_channel(2000.0);
        assert!((px2 / px1 - 2.0).abs() < 0.01);
        assert!((pz2 / pz1 - 2.0).abs() < 0.05);
    }

    #[test]
    fn model_rates_match_paper() {
        let m = NoiseModel::new(2e-3);
        assert!((m.single_qubit_depolarizing() - 2e-4).abs() < 1e-15);
        assert!((m.reset_failure() - 2e-4).abs() < 1e-15);
        assert!((m.measurement_flip() - 2e-3).abs() < 1e-15);
        assert!((m.t1_ns() - 500_000.0).abs() < 1e-6);
        assert_eq!(m.latencies().measurement_ns, 800.0);
    }

    #[test]
    #[should_panic(expected = "physical error rate")]
    fn zero_rate_rejected() {
        NoiseModel::new(0.0);
    }
}
