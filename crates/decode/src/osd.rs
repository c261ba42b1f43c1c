//! Ordered-statistics post-processing (OSD-0 / OSD-E) for the BP+OSD
//! decoder tier.
//!
//! When belief propagation fails to converge on a syndrome, OSD turns
//! the BP soft output into a guaranteed syndrome-valid correction:
//! sort the variables by reliability (most-likely-in-error first),
//! Gauss–Jordan-reduce the check matrix choosing pivots in
//! that order (the *most-likely information set*), and read off the
//! canonical solution with all free variables zero (**OSD-0**). Order-E
//! post-processing (**OSD-E**) additionally enumerates every
//! assignment of the `λ` most reliable-to-flip free columns — each
//! candidate is the base solution XOR the precomputed pivot-row toggle
//! masks of the flipped free columns, so one candidate costs
//! O(rank/64) words, not a fresh solve — and keeps the lightest
//! candidate under the effective `-ln p` class weights.
//!
//! Everything runs on the pooled [`EliminationScratch`] from
//! `qec-math` plus caller-owned buffers: steady-state OSD allocates
//! nothing. Determinism: the reliability sort is total (posterior
//! [`f64::total_cmp`], variable index tie-break), pivot selection
//! scans rows in a fixed order, and candidate enumeration walks
//! patterns in ascending integer order keeping the *first* minimum —
//! bit-identical across processes, thread counts and scratch reuse.

use qec_math::{BitVec, EliminationScratch};

/// Caller-owned OSD work buffers (embedded in the decode scratch).
#[derive(Debug, Default)]
pub(crate) struct OsdBuffers {
    /// Reliability permutation of the variable columns.
    pub(crate) order: Vec<u32>,
    /// The pooled GF(2) elimination state.
    pub(crate) elim: EliminationScratch,
    /// The `λ` free columns being enumerated, in reliability order.
    pub(crate) frees: Vec<u32>,
    /// Pivot-row toggle mask of each enumerated free column.
    pub(crate) masks: Vec<BitVec>,
    /// Canonical (all-free-zero) solution over pivot rows.
    pub(crate) base_sol: BitVec,
    /// Candidate under evaluation / best candidate, over pivot rows.
    pub(crate) cand: BitVec,
    pub(crate) best: BitVec,
    /// Chosen variable indices of the winning candidate.
    pub(crate) solution: Vec<u32>,
}

/// Outcome of one OSD run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OsdOutcome {
    /// Rank of the check matrix (pivot count).
    pub(crate) rank: usize,
    /// `false` when the syndrome is outside the column space — no
    /// correction can reproduce it and the caller must give up.
    pub(crate) consistent: bool,
    /// Total effective weight of the winning candidate.
    pub(crate) weight: f64,
}

/// OSD order `λ`: `2^λ` candidate patterns over the λ most
/// reliable-to-flip free columns are scored per shot.
const OSD_ORDER: usize = 4;

/// Runs OSD-0/OSD-E over the check rows of the check-CSR.
///
/// On success `buf.solution` holds the chosen variable columns.
pub(crate) fn osd_post_process(
    check_off: &[u32],
    check_var: &[u32],
    n: usize,
    syndrome: &BitVec,
    posterior: &[f64],
    weight: &[f64],
    buf: &mut OsdBuffers,
) -> OsdOutcome {
    let m = check_off.len() - 1;
    // Reliability order: lowest posterior marginal first (most likely
    // to be in error); variable index breaks exact ties.
    buf.order.clear();
    buf.order.extend(0..n as u32);
    buf.order.sort_unstable_by(|&a, &b| {
        posterior[a as usize]
            .total_cmp(&posterior[b as usize])
            .then(a.cmp(&b))
    });
    buf.elim.begin(m, n);
    for r in 0..m {
        for &v in &check_var[check_off[r] as usize..check_off[r + 1] as usize] {
            buf.elim.set(r, v as usize);
        }
    }
    for c in syndrome.iter_ones() {
        buf.elim.set_rhs(c);
    }
    let rank = buf.elim.eliminate(&buf.order);
    if !buf.elim.consistent() {
        return OsdOutcome {
            rank,
            consistent: false,
            weight: f64::INFINITY,
        };
    }
    // The λ most reliable-to-flip free columns.
    let lambda = OSD_ORDER.min(n - rank);
    buf.frees.clear();
    for &v in buf.order.iter() {
        if buf.frees.len() == lambda {
            break;
        }
        if !buf.elim.is_pivot_col(v as usize) {
            buf.frees.push(v);
        }
    }
    let lambda = buf.frees.len();
    buf.elim.pivot_solution_into(&mut buf.base_sol);
    while buf.masks.len() < lambda {
        buf.masks.push(BitVec::default());
    }
    for i in 0..lambda {
        buf.elim
            .column_into(buf.frees[i] as usize, &mut buf.masks[i]);
    }
    let pivot_cols = buf.elim.pivot_cols();
    let mut best_weight = f64::INFINITY;
    let mut best_pattern = 0u64;
    for pattern in 0..(1u64 << lambda) {
        buf.cand.copy_from(&buf.base_sol);
        let mut w = 0.0;
        for (i, &f) in buf.frees.iter().enumerate() {
            if pattern >> i & 1 == 1 {
                buf.cand.xor_assign(&buf.masks[i]);
                w += weight[f as usize];
            }
        }
        for r in buf.cand.iter_ones() {
            w += weight[pivot_cols[r] as usize];
        }
        // Strict improvement only: ties keep the earliest pattern
        // (OSD-0 first), the deterministic contract.
        if w < best_weight {
            best_weight = w;
            best_pattern = pattern;
            buf.best.copy_from(&buf.cand);
        }
    }
    buf.solution.clear();
    for r in buf.best.iter_ones() {
        buf.solution.push(pivot_cols[r]);
    }
    for (i, &f) in buf.frees.iter().enumerate() {
        if best_pattern >> i & 1 == 1 {
            buf.solution.push(f);
        }
    }
    OsdOutcome {
        rank,
        consistent: true,
        weight: best_weight,
    }
}
