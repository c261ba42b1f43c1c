//! Reusable per-thread decoder scratch buffers and decoder statistics.
//!
//! [`DecodeScratch`] backs the zero-allocation batched decode path
//! ([`crate::Decoder::decode_into`]): one instance lives next to each
//! worker thread's frame-sampling scratch and is reset in *O(touched)*
//! between shots, so steady-state decoding never reallocates its work
//! arrays. The concrete buffers are private to this crate; callers only
//! create the scratch and hand it back to the decoder.

use crate::engine::Route;
use qec_math::BitVec;
use qec_obs::{Counter, Histogram, Registry};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Lifetime counters a decoder exposes through
/// [`crate::Decoder::stats`].
///
/// All counts are cumulative over the decoder's metrics [`Registry`] —
/// i.e. since construction, unless the decoder was built with a shared
/// registry (`with_metrics`), in which case they span every decoder
/// attached to it (this is how a BER sweep keeps one continuous series
/// across its per-point decoders). Callers that want per-run
/// numbers (e.g. `run_ber`) snapshot before/after and take
/// [`DecoderStats::delta`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecoderStats {
    /// Shots decoded (via `decode` or `decode_into`).
    pub decodes: u64,
    /// Union-Find shots abandoned because no cluster could grow
    /// (an odd cluster with no usable edges — a partial correction was
    /// returned).
    pub giveups_stalled: u64,
    /// Union-Find shots abandoned at the `4n`-round safety limit.
    pub giveups_round_limit: u64,
    /// Matching-decoder shots abandoned because a decoding graph had no
    /// perfect matching of the shot's defects (an odd component with no
    /// boundary to absorb it); the correction stays empty. A
    /// restriction-decoder shot counts once when any of its lattices
    /// gave up.
    pub giveups_unmatched: u64,
    /// Matching-decoder shots whose path queries were answered entirely
    /// by the precomputed [`crate::PathOracle`]. Every matching-decoder
    /// shot with a check defect counts in exactly one of `oracle_hits`
    /// and `sparse_blossom`; the route rule lives in the crate-private
    /// `engine::Route`.
    pub oracle_hits: u64,
    /// Retired: small shots off the oracle no longer price every defect
    /// pair but take the grown route (`sparse_blossom`), so this is
    /// always 0. Kept because perfbench reports it
    /// (`decode.tier.sparse_share`).
    pub sparse_hits: u64,
    /// Retired: the per-shot Dijkstra tier no longer exists, so this
    /// is always 0. Kept because perfbench reports it
    /// (`decode.tier.dijkstra_share`).
    pub oracle_misses: u64,
    /// Complete matching instances of `oracle_hits` shots handed to the
    /// pooled blossom solver ([`crate::BlossomScratch`]) because
    /// enumeration cannot decide them: more than four defects, or a tie
    /// among their cheapest matchings. The other complete instances are
    /// decided by enumeration and counted only in the registry's
    /// `decode.tier.enumerated`; an odd instance without a boundary
    /// runs neither and counts only as a give-up. MWPM runs at most one
    /// per shot; the restriction decoder one per non-empty restricted
    /// lattice. Grown-route (`sparse_blossom`) solves are not counted
    /// here.
    pub blossom_solves: u64,
    /// Retired: the single-flag secondary oracles no longer exist, so
    /// this is always 0. Kept because perfbench reports it
    /// (`decode.tier.flag_oracle_share`).
    pub flag_oracle_hits: u64,
    /// Matching-decoder shots on the matching engine's grown route,
    /// at every defect count: matched on the CSR graph of the
    /// [`crate::SparsePathFinder`] because the graph exceeded the
    /// dense-oracle node limit or raised flags reweighted it
    /// shot-locally. [`crate::sparse_graph_match`] grows their regions,
    /// solves the candidate instance of nearest partners and certifies
    /// it against every omitted pair with dual-ball searches. A
    /// restriction-decoder shot counts here when any of its lattices
    /// did.
    pub sparse_blossom: u64,
    /// BP+OSD shots whose belief-propagation stage converged (the hard
    /// decision reproduced the syndrome), skipping OSD unless the
    /// decoder is configured to always post-process.
    pub bp_converged: u64,
    /// BP+OSD shots that ran ordered-statistics post-processing.
    pub bp_osd_solves: u64,
    /// BP+OSD shots abandoned because the syndrome was outside the
    /// check-matrix column space (no correction can reproduce it); the
    /// BP hard decision was returned as a best effort.
    pub bp_giveups: u64,
}

impl DecoderStats {
    /// Total shots where the decoder gave up and returned a partial
    /// correction.
    pub fn giveups(&self) -> u64 {
        self.giveups_stalled + self.giveups_round_limit + self.giveups_unmatched + self.bp_giveups
    }

    /// Counts accumulated since `earlier` was snapshotted (saturating,
    /// so a stale or crossed snapshot can never underflow). This is the
    /// per-run / per-sweep-point attribution mechanism: snapshot before
    /// a run, snapshot after, and `after.delta(&before)` is exactly
    /// that run's work even though the underlying registry counters are
    /// lifetime atomics shared by every decoder built against them.
    pub fn delta(&self, earlier: &DecoderStats) -> DecoderStats {
        DecoderStats {
            decodes: self.decodes.saturating_sub(earlier.decodes),
            giveups_stalled: self.giveups_stalled.saturating_sub(earlier.giveups_stalled),
            giveups_round_limit: self
                .giveups_round_limit
                .saturating_sub(earlier.giveups_round_limit),
            giveups_unmatched: self
                .giveups_unmatched
                .saturating_sub(earlier.giveups_unmatched),
            oracle_hits: self.oracle_hits.saturating_sub(earlier.oracle_hits),
            sparse_hits: self.sparse_hits.saturating_sub(earlier.sparse_hits),
            oracle_misses: self.oracle_misses.saturating_sub(earlier.oracle_misses),
            blossom_solves: self.blossom_solves.saturating_sub(earlier.blossom_solves),
            flag_oracle_hits: self
                .flag_oracle_hits
                .saturating_sub(earlier.flag_oracle_hits),
            sparse_blossom: self.sparse_blossom.saturating_sub(earlier.sparse_blossom),
            bp_converged: self.bp_converged.saturating_sub(earlier.bp_converged),
            bp_osd_solves: self.bp_osd_solves.saturating_sub(earlier.bp_osd_solves),
            bp_giveups: self.bp_giveups.saturating_sub(earlier.bp_giveups),
        }
    }
}

/// The matching decoders' (MWPM and Restriction) counter handles into
/// their metrics [`Registry`]: shots decoded, path-tier tallies and
/// the defect-count histogram, exposed through
/// [`crate::Decoder::stats`] and the registry snapshot. Shots that
/// never reach the matching stage (empty check syndrome) count as
/// decodes but neither hit nor miss.
#[derive(Debug, Clone)]
pub(crate) struct MatchingCounters {
    pub(crate) decodes: Counter,
    pub(crate) oracle_hits: Counter,
    /// Calls of the pooled blossom solver on a complete instance.
    pub(crate) blossom_solves: Counter,
    /// Complete instances of at most four defects decided by
    /// enumeration (a unique minimum, or no perfect matching) without
    /// the pooled solver. Registry only (`decode.tier.enumerated`), not
    /// in [`DecoderStats`].
    pub(crate) enumerated: Counter,
    /// Shots on the grown route.
    pub(crate) sparse_blossom: Counter,
    /// Shots given up because a decoding graph had no perfect matching.
    pub(crate) giveups_unmatched: Counter,
    /// Log₂ histogram of flipped-check counts per decoded shot (defect
    /// density; size companion to the harness's per-batch latency
    /// histogram).
    pub(crate) defects: Histogram,
    /// Log₂ histogram of certify/repair rounds per certified solve.
    pub(crate) sparse_blossom_rounds: Histogram,
    /// Log₂ histogram of priced candidate pairs per certified solve
    /// (what complete pricing would have priced as defects²/2).
    pub(crate) sparse_blossom_edges: Histogram,
    /// Certified solves whose nearest-partner candidates had no perfect
    /// matching, so they re-grew with two partners per defect.
    pub(crate) sparse_blossom_widenings: Counter,
    /// Certified solves that fell back to complete pricing.
    pub(crate) sparse_blossom_escalations: Counter,
    /// Bounded pricing searches that drained before every target
    /// settled (see `SparseSolveOutcome::bound_misses`).
    pub(crate) sparse_blossom_bound_misses: Counter,
}

impl MatchingCounters {
    /// Interns the matching-decoder metric names in `metrics`. Calling
    /// this twice against the same registry yields handles to the same
    /// cells — that is what keeps one continuous counter series across
    /// pipeline rebuilds.
    pub(crate) fn register(metrics: &Registry) -> Self {
        MatchingCounters {
            decodes: metrics.counter("decode.decodes"),
            oracle_hits: metrics.counter("decode.tier.oracle_hits"),
            blossom_solves: metrics.counter("decode.tier.blossom"),
            enumerated: metrics.counter("decode.tier.enumerated"),
            sparse_blossom: metrics.counter("decode.tier.sparse_blossom"),
            giveups_unmatched: metrics.counter("decode.giveups.unmatched"),
            defects: metrics.histogram("decode.defects"),
            sparse_blossom_rounds: metrics.histogram("decode.sparse_blossom.rounds"),
            sparse_blossom_edges: metrics.histogram("decode.sparse_blossom.edges"),
            sparse_blossom_widenings: metrics.counter("decode.sparse_blossom.widenings"),
            sparse_blossom_escalations: metrics.counter("decode.sparse_blossom.escalations"),
            sparse_blossom_bound_misses: metrics.counter("decode.sparse_blossom.bound_misses"),
        }
    }

    /// Counts one decoded shot in the tier of the [`Route`] it took.
    pub(crate) fn count_tier(&self, route: Route) {
        match route {
            Route::Oracle => self.oracle_hits.inc(),
            Route::Grown => self.sparse_blossom.inc(),
        }
    }

    pub(crate) fn snapshot(&self) -> DecoderStats {
        DecoderStats {
            decodes: self.decodes.get(),
            oracle_hits: self.oracle_hits.get(),
            blossom_solves: self.blossom_solves.get(),
            sparse_blossom: self.sparse_blossom.get(),
            giveups_unmatched: self.giveups_unmatched.get(),
            ..DecoderStats::default()
        }
    }
}

/// The BP+OSD decoder's counter handles into its metrics [`Registry`]:
/// shots decoded, convergence/OSD/giveup tier tallies, the BP
/// iteration and OSD rank histograms and the shared defect-count
/// histogram. Shots with an empty check syndrome count as decodes but
/// advance no tier counter, matching [`MatchingCounters`].
#[derive(Debug, Clone)]
pub(crate) struct BpCounters {
    pub(crate) decodes: Counter,
    /// Shots where BP converged (hard decision reproduced the
    /// syndrome).
    pub(crate) converged: Counter,
    /// Shots that ran OSD post-processing.
    pub(crate) osd_solves: Counter,
    /// Shots with a syndrome outside the column space (gave up).
    pub(crate) giveups: Counter,
    /// Log₂ histogram of flipped-check counts per decoded shot.
    pub(crate) defects: Histogram,
    /// Log₂ histogram of BP sweeps executed per non-empty shot.
    pub(crate) iterations: Histogram,
    /// Log₂ histogram of the check-matrix rank per OSD solve.
    pub(crate) osd_rank: Histogram,
}

impl BpCounters {
    /// Interns the BP+OSD metric names in `metrics`; like
    /// [`MatchingCounters::register`], re-registering against the same
    /// registry continues the existing series.
    pub(crate) fn register(metrics: &Registry) -> Self {
        BpCounters {
            decodes: metrics.counter("decode.decodes"),
            converged: metrics.counter("decode.tier.bp_converged"),
            osd_solves: metrics.counter("decode.tier.bp_osd"),
            giveups: metrics.counter("decode.tier.bp_giveups"),
            defects: metrics.histogram("decode.defects"),
            iterations: metrics.histogram("decode.bp.iterations"),
            osd_rank: metrics.histogram("decode.bp.osd_rank"),
        }
    }

    pub(crate) fn snapshot(&self) -> DecoderStats {
        DecoderStats {
            decodes: self.decodes.get(),
            bp_converged: self.converged.get(),
            bp_osd_solves: self.osd_solves.get(),
            bp_giveups: self.giveups.get(),
            ..DecoderStats::default()
        }
    }
}

/// Work arrays of the BP+OSD decoder: shot splitting and flag
/// pricing (shared idiom with [`MatchingScratch`]), the per-edge
/// min-sum message state, posterior marginals, syndrome/residual bit
/// vectors and the pooled OSD elimination buffers. Buffers size
/// themselves on first use against a given decoder and are reused
/// allocation-free afterwards.
#[derive(Debug, Default)]
pub(crate) struct BpOsdScratch {
    pub(crate) checks: Vec<usize>,
    pub(crate) flags: BitVec,
    /// The shot's flag overrides of the class pricing.
    pub(crate) overrides: crate::engine::ClassOverrides,
    /// Per-shot effective class weights of a flag-reweighted shot.
    pub(crate) class_weights: Vec<f64>,
    /// Flag-reweighted per-variable prior log-likelihood ratios
    /// (flagged shots only; unflagged shots use the decoder's slice).
    pub(crate) llr: Vec<f64>,
    /// Flag-reweighted per-variable effective `-ln p` weights.
    pub(crate) weight: Vec<f64>,
    /// Per-variable posterior LLR, maintained incrementally across the
    /// serial sweep.
    pub(crate) posterior: Vec<f64>,
    /// Per-edge check→variable message, in check-CSR edge order.
    pub(crate) r_msg: Vec<f64>,
    /// Per-check local variable→check message buffer.
    pub(crate) q: Vec<f64>,
    /// Shot syndrome over the checks.
    pub(crate) syndrome: BitVec,
    /// Residual buffer for hard-decision validity checks.
    pub(crate) residual: BitVec,
    /// Variables set in the current BP hard decision.
    pub(crate) hard: Vec<u32>,
    /// OSD reliability order, elimination state and candidate buffers.
    pub(crate) osd: crate::osd::OsdBuffers,
}

/// Reusable scratch for [`crate::Decoder::decode_into`].
///
/// Holds the work arrays of every decoder kind (Union-Find cluster
/// state, pair-memo/matching buffers) so one scratch can serve whatever
/// decoder a pipeline selects. Allocate once per worker thread; buffers
/// size themselves on first use and are reset in *O(touched)* between
/// shots.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    pub(crate) uf: UfScratch,
    pub(crate) mwpm: MatchingScratch,
    pub(crate) restriction: MatchingScratch,
    pub(crate) bp: BpOsdScratch,
}

impl DecodeScratch {
    /// Creates an empty scratch; buffers size themselves on first use.
    pub fn new() -> Self {
        DecodeScratch::default()
    }

    /// The MWPM decoder's pooled blossom solver state (read-only; pool
    /// growth and dual-certificate inspection for tests and benches).
    pub fn mwpm_blossom(&self) -> &crate::BlossomScratch {
        &self.mwpm.engine.blossom
    }

    /// The restriction decoder's pooled blossom solver state.
    pub fn restriction_blossom(&self) -> &crate::BlossomScratch {
        &self.restriction.engine.blossom
    }

    /// The MWPM decoder's CSR matching state (read-only; pool growth
    /// and solve statistics for tests and benches).
    pub fn mwpm_sparse_blossom(&self) -> &crate::SparseBlossomScratch {
        &self.mwpm.engine.sparse_blossom
    }

    /// High-water footprint in bytes of the BP+OSD elimination pool —
    /// repeated decodes against one decoder must not regrow it.
    pub fn bp_osd_high_water_bytes(&self) -> usize {
        self.bp.osd.elim.high_water_bytes()
    }

    /// Times the BP+OSD elimination pool grew — flat after warmup;
    /// repeated same-shape OSD solves must not regrow it.
    pub fn bp_osd_generations(&self) -> u64 {
        self.bp.osd.elim.generations()
    }

    /// Verifies the dual certificates left by the most recent blossom
    /// solves in both matching scratches (see
    /// [`crate::BlossomScratch::verify_certificate`]).
    ///
    /// # Errors
    ///
    /// Returns the first violated feasibility or complementary-
    /// slackness condition.
    pub fn verify_blossom_certificates(&self) -> Result<(), String> {
        self.mwpm.engine.blossom.verify_certificate()?;
        self.restriction.engine.blossom.verify_certificate()
    }
}

/// Max-heap item for the scratch-reusing Dijkstra runs (ordering is
/// reversed on `dist` so the `BinaryHeap` pops the nearest node).
#[derive(Debug, PartialEq)]
pub(crate) struct HeapItem {
    pub(crate) dist: f64,
    pub(crate) node: usize,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Work arrays of the matching-based decoders (MWPM and restriction):
/// shot splitting, flag pricing and the shared
/// [`crate::engine::EngineScratch`]. The restriction decoder
/// additionally uses the lattice-source, matched-edge, reconciliation
/// and lifting buffers.
#[derive(Debug, Default)]
pub(crate) struct MatchingScratch {
    pub(crate) checks: Vec<usize>,
    pub(crate) flags: BitVec,
    /// The shot's flag overrides of the class pricing.
    pub(crate) overrides: crate::engine::ClassOverrides,
    /// Per-shot effective class weights of a flag-reweighted shot.
    pub(crate) weights: Vec<f64>,
    /// Pair memo, matching instance and blossom pools of the shot's
    /// [`crate::engine::MatchingEngine`] solves.
    pub(crate) engine: crate::engine::EngineScratch,
    /// Restriction only: sources of the current restricted lattice.
    pub(crate) sources: Vec<usize>,
    /// Restriction only: matched `(class, check_a, check_b)` edges.
    pub(crate) em: Vec<(usize, usize, usize)>,
    /// Restriction only: per-class edge-use counts (twice-used rule).
    pub(crate) counts: HashMap<usize, usize>,
    /// Restriction only: classes used by two or more matchings.
    pub(crate) twice: Vec<usize>,
    /// Restriction only: plaquette-space edge parities.
    pub(crate) flattened: HashMap<(usize, usize), usize>,
    /// Restriction only: odd edges grouped by incident red plaquette.
    pub(crate) at_red: HashMap<usize, Vec<usize>>,
}

/// Union-Find cluster state, kept alive across shots and reset in
/// *O(touched)*: every vertex whose parent/size/defect/degree was
/// modified is recorded in `touched`, every edge that entered the
/// frontier in `frontier`, and only those entries are restored to their
/// pristine values between shots.
#[derive(Debug, Default)]
pub(crate) struct UfScratch {
    pub(crate) checks: Vec<usize>,
    pub(crate) flags: BitVec,
    /// Per-edge `(class, member)` overrides from flag conditioning.
    pub(crate) overrides: HashMap<usize, (usize, usize)>,
    /// Union-Find parent array, identity outside touched vertices.
    pub(crate) parent: Vec<u32>,
    /// Union-Find size array, 1 outside touched vertices.
    pub(crate) size: Vec<u32>,
    /// Defect marks, false outside touched vertices.
    pub(crate) flipped: Vec<bool>,
    /// Per-root odd-parity marks of the current growth round.
    pub(crate) odd: Vec<bool>,
    /// Roots marked in `odd` this round (possibly with duplicates).
    pub(crate) odd_roots: Vec<usize>,
    /// Per-edge half-step growth, 0 outside the frontier.
    pub(crate) growth: Vec<u8>,
    /// Per-edge state bits (frontier/forest/removed), 0 outside the
    /// frontier.
    pub(crate) edge_state: Vec<u8>,
    /// Every edge ever marked in-frontier this shot (the reset list).
    pub(crate) frontier: Vec<usize>,
    /// Frontier edges still eligible for growth scanning.
    pub(crate) active: Vec<usize>,
    /// Edges admitted to the spanning forest.
    pub(crate) forest: Vec<usize>,
    /// Vertices whose cluster state was modified (the reset list).
    pub(crate) touched: Vec<usize>,
    /// Per-vertex forest degree, 0 outside touched vertices.
    pub(crate) degree: Vec<u32>,
    /// Peeling work stack.
    pub(crate) stack: Vec<usize>,
    /// Sorted unique forest endpoints used to seed the peel stack.
    pub(crate) peel_seed: Vec<usize>,
    /// Fully grown edges to merge this round.
    pub(crate) to_merge: Vec<usize>,
}

impl UfScratch {
    /// Grows the arrays to cover `n` vertices and `m` edges. Amortized
    /// O(1): after the first shot against a given decoder this is a
    /// pair of bounds checks.
    pub(crate) fn ensure(&mut self, n: usize, m: usize) {
        if self.parent.len() < n {
            let old = self.parent.len() as u32;
            self.parent.extend(old..n as u32);
            self.size.resize(n, 1);
            self.flipped.resize(n, false);
            self.odd.resize(n, false);
            self.degree.resize(n, 0);
        }
        if self.growth.len() < m {
            self.growth.resize(m, 0);
            self.edge_state.resize(m, 0);
        }
    }
}
