//! Stabilizer-circuit simulation for the Flag-Proxy Networks
//! reproduction — a from-scratch substitute for Google's Stim.
//!
//! * [`Circuit`] — a Clifford + Pauli-noise circuit IR with measurement
//!   records, detectors (annotated with check/flag metadata) and
//!   logical observables.
//! * [`noise`] — the paper's circuit-level error model (§III-A):
//!   T1/T2 Pauli-twirled idle errors (Eqs. 3–4), depolarizing gate
//!   noise, measurement flips and reset failures, with the paper's
//!   operation latencies.
//! * [`FrameSampler`] — a bit-parallel (64 shots per batch) Pauli-frame
//!   sampler: the standard fast path for sampling detector outcomes of
//!   noisy memory circuits.
//! * [`DetectorErrorModel`] — enumeration of all independent fault
//!   mechanisms and the detectors/observables each flips, computed by a
//!   single backward sensitivity pass over the circuit.
//!
//! # Example
//!
//! ```
//! use qec_sim::{Circuit, DetectorMeta};
//!
//! // A 2-qubit repetition-style parity check.
//! let mut c = Circuit::new(3);
//! c.reset(&[0, 1, 2]);
//! c.cx(&[(0, 2), (1, 2)]);
//! let m = c.measure(&[2], 0.0);
//! c.add_detector(vec![m], DetectorMeta::check(0, 0));
//! assert_eq!(c.num_measurements(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circuit;
mod dem;
mod frame;
pub mod noise;

pub use circuit::{Circuit, DetectorMeta, Op};
pub use dem::{DetectorErrorModel, Mechanism};
pub use frame::{sample_mask, FrameBatch, FrameSampler, MaskRate, ShotBatch};
