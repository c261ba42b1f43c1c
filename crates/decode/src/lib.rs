//! Decoders that leverage flag qubits — §VI of the paper.
//!
//! The decoding pipeline starts from a detector error model
//! ([`qec_sim::DetectorErrorModel`]):
//!
//! * [`DecodingHypergraph`] — fault mechanisms organized into **error
//!   equivalence classes** (§VI-B): hyperedges flipping the same parity
//!   detectors but different flag bits live in one class; at decode
//!   time a single representative is chosen per class given the
//!   observed flag syndrome, with mismatched flag bits priced as flag
//!   measurement errors (a localized form of Eq. 9).
//! * [`MwpmDecoder`] — the flagged minimum-weight perfect-matching
//!   decoder for (hyperbolic and planar) surface codes (§VI-C), with
//!   virtual-boundary support for planar codes. Configured with
//!   flag-conditioning disabled it is the PyMatching-equivalent
//!   baseline of §VI-F1.
//! * [`RestrictionDecoder`] — the flagged restriction decoder for color
//!   codes (§VI-D): matching on the `L_RG`, `L_RB` and `L_GB`
//!   restricted lattices, the twice-used-edge rule, and lifting at red plaquettes.
//!   With the twice-used-edge rule disabled it reproduces the
//!   Chamberland-style baseline of §VI-F2.
//!
//! * [`UnionFindDecoder`] — an almost-linear-time Union-Find decoder
//!   (Delfosse–Nickerson) over the same equivalence-class graph, used
//!   as a speed/accuracy ablation against MWPM.
//! * The matching decoders share one crate-private matching engine per
//!   decoding graph (MWPM: the full graph; Restriction: each restricted
//!   lattice). Its route rule (the crate-private `engine::Route`) sends
//!   each shot to one of three routes — oracle, complete or grown —
//!   each counted as one decoder tier. The oracle and complete routes
//!   solve the complete defect-pair instance with the pooled blossom
//!   solver ([`BlossomScratch`]), or, at most four defects with a
//!   unique cheapest matching, by enumeration. Every route unrolls the
//!   matched paths from one of two path indexes:
//!   * [`PathOracle`] — all-sources shortest paths precomputed once per
//!     decoding graph at construction, so shots without flag
//!     reweighting (the hot case) answer every defect-pair weight query
//!     of the complete instance and unroll every correction path
//!     without a search; only built below a configurable node limit
//!     (O(V²) memory guard).
//!   * [`SparsePathFinder`] — an O(V+E) CSR index, always built, that
//!     serves graphs above the oracle node limit (the paper's
//!     hyperbolic DEMs) and every flag-reweighted shot, on the complete
//!     route (every pair priced) or the grown route,
//!     [`sparse_graph_match`]: instead of pricing every defect pair, it
//!     grows a candidate instance outward from each defect with
//!     truncated searches, solves it, and *certifies* the result
//!     against all omitted pairs with dual-ball searches — total
//!     matching weight identical to the complete instance (bit-identical
//!     distances to the oracle), per-shot cost scaling with the touched
//!     graph region instead of defects². [`complete_graph_match`] prices
//!     every pair instead: the reference it is tested and measured
//!     against.
//!
//! * [`BpOsdDecoder`] — min-sum belief propagation with serial
//!   scheduling over the *undecomposed* hypergraph plus
//!   ordered-statistics (OSD-0/OSD-E) post-processing on a pooled GF(2)
//!   elimination scratch: the baseline for general quantum LDPC
//!   hypergraphs the matching decoders cannot represent, returning a
//!   syndrome-valid correction for every syndrome in the check matrix's
//!   column space.
//!
//! All decoders implement [`Decoder`], mapping a shot's detector bits
//! to predicted logical-observable flips.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blossom;
mod bp;
mod engine;
mod hypergraph;
mod mwpm;
mod osd;
mod paths;
mod restriction;
mod scratch;
mod sparse_blossom;
mod unionfind;

pub use blossom::{pooled_min_weight_perfect_matching_f64, BlossomScratch, PooledMatching};
pub use bp::{BpOsdConfig, BpOsdDecoder, BpOsdOutcome};
pub use hypergraph::{ClassMember, DecodingHypergraph, EquivClass};
pub use mwpm::{MwpmConfig, MwpmDecoder, TraceEdge};
pub use paths::{shortest_paths_from, PathOracle, SparsePathFinder, DEFAULT_ORACLE_NODE_LIMIT};
pub use restriction::{ColorCodeContext, RestrictionConfig, RestrictionDecoder, RestrictionEvent};
pub use scratch::{DecodeScratch, DecoderStats};
pub use sparse_blossom::{
    complete_graph_match, sparse_graph_match, SparseBlossomScratch, SparseSolveOutcome,
};
pub use unionfind::{UnionFindConfig, UnionFindDecoder};

use qec_math::BitVec;

/// A decoder: maps one shot's detector outcomes to the predicted set
/// of flipped logical observables.
pub trait Decoder: Sync {
    /// Decodes one shot into `out`, reusing `scratch` across calls.
    ///
    /// This is the batched hot path: per-thread work arrays survive
    /// between shots and are reset in *O(touched)*, so steady-state
    /// decoding allocates nothing.
    fn decode_into(&self, detectors: &BitVec, scratch: &mut DecodeScratch, out: &mut BitVec);

    /// Decodes one shot against a fresh [`DecodeScratch`]; the result is
    /// bit-identical to [`Decoder::decode_into`] (covered by property
    /// and golden tests).
    fn decode(&self, detectors: &BitVec) -> BitVec {
        let mut out = BitVec::zeros(0);
        self.decode_into(detectors, &mut DecodeScratch::new(), &mut out);
        out
    }

    /// Cumulative decode statistics (shot counts, Union-Find give-ups).
    ///
    /// The default implementation reports zeros; decoders that can
    /// abandon a shot keep real counters so `run_ber`, perfbench and
    /// `qec-bench`'s `pass_bp_osd` gate can surface silent give-ups.
    fn stats(&self) -> DecoderStats {
        DecoderStats::default()
    }

    /// The decoder's metrics registry (tier-hit counters, build-size
    /// gauges, size histograms), when it keeps one.
    ///
    /// Every in-tree decoder owns a [`qec_obs::Registry`] — private by
    /// default, or shared when constructed through a `with_metrics`
    /// constructor (how [`fpn_core`'s] BER sweep keeps one continuous
    /// counter series across its per-point decoders). Metrics are
    /// observe-only: nothing read from the registry ever influences
    /// decoding.
    ///
    /// [`fpn_core`'s]: ../fpn_core/harness/fn.ber_sweep.html
    fn metrics(&self) -> Option<&qec_obs::Registry> {
        None
    }

    /// Number of observables this decoder predicts.
    fn num_observables(&self) -> usize;

    /// Number of detectors a shot must carry; a syndrome of any other
    /// length is not a valid input.
    fn num_detectors(&self) -> usize;
}
