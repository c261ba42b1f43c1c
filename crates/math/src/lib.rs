//! Mathematical substrates for quantum error correction.
//!
//! This crate provides the two foundations every other crate in the
//! Flag-Proxy Networks reproduction builds on:
//!
//! * **GF(2) linear algebra** ([`BitVec`], [`BitMatrix`], [`gf2`]):
//!   bit-packed vectors and matrices with rank, reduced row echelon form,
//!   nullspace extraction and linear solving. Parity-check matrices,
//!   stabilizer groups and logical operators are all GF(2) objects.
//! * **Graph algorithms** ([`graph`]): bipartiteness checks and an
//!   exact *O(V³)* blossom implementation of maximum-weight general
//!   matching (used for flag sharing), from which minimum-weight
//!   perfect matching (the reference the decoders' pooled solver is
//!   tested against) is derived.
//! * **Deterministic RNG** ([`rng`]): splitmix64 seeding and
//!   xoshiro256** generation with per-stream forking, so the workspace
//!   needs no external `rand` dependency and Monte-Carlo results are
//!   bit-reproducible across thread counts.
//!
//! # Example
//!
//! ```
//! use qec_math::{BitMatrix, gf2};
//!
//! // The repetition code's parity checks have rank 2 over GF(2).
//! let mut h = BitMatrix::zeros(2, 3);
//! h.set(0, 0, true); h.set(0, 1, true);
//! h.set(1, 1, true); h.set(1, 2, true);
//! assert_eq!(gf2::rank(&h), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmat;
mod bitvec;
pub mod gf2;
pub mod graph;
pub mod rng;

pub use bitmat::BitMatrix;
pub use bitvec::{BitVec, EliminationScratch};
pub use rng::{Rng, Xoshiro256StarStar};
