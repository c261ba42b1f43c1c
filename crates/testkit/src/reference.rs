//! Reference implementations the production crates are checked and
//! benchmarked against.
//!
//! None of these runs in the BER or serving pipelines; each is an
//! independent, deliberately simple second implementation of something
//! production does faster:
//!
//! * [`TableauSimulator`] — an Aaronson–Gottesman stabilizer simulator,
//!   the ground truth that every detector and logical observable of a
//!   generated circuit is deterministic under zero noise (the
//!   precondition for Pauli-frame sampling) and the fault-injection
//!   oracle for the detector error model.
//! * [`sample_shot`] — a scalar one-shot Pauli-frame sampler (one
//!   `bool` per qubit per basis): the baseline `qec-bench`'s `pass_10x`
//!   gate times the batched `FrameSampler` against, and a cross-check
//!   of the batch semantics.
//! * [`UnionFindReference`] — the allocating Union-Find decoder that
//!   scans every edge each growth round: the oracle
//!   `UnionFindDecoder::decode_into` is pinned to bit for bit, and the
//!   slow side of `qec-bench`'s `pass_2x` gate.

use qec_decode::{DecodeScratch, Decoder, DecodingHypergraph, EquivClass, UnionFindConfig};
use qec_math::rng::Rng;
use qec_math::BitVec;
use qec_sim::{Circuit, DetectorErrorModel, Op};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// A Pauli operator label for fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pauli {
    /// Bit flip.
    X,
    /// Bit and phase flip.
    Y,
    /// Phase flip.
    Z,
}

/// A detector or logical observable whose parity a noiseless run did
/// not leave at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parity {
    /// Detector index.
    Detector(usize),
    /// Observable index.
    Observable(usize),
}

/// A stabilizer-state simulator in the Aaronson–Gottesman tableau
/// representation (destabilizers + stabilizers + signs).
///
/// # Example
///
/// ```
/// use qec_testkit::reference::TableauSimulator;
/// use qec_math::rng::Xoshiro256StarStar;
///
/// let mut sim = TableauSimulator::new(2);
/// let mut rng = Xoshiro256StarStar::seed_from_u64(0);
/// sim.h(0);
/// sim.cx(0, 1);
/// let a = sim.measure(0, &mut rng);
/// let b = sim.measure(1, &mut rng);
/// assert_eq!(a, b); // Bell pair: perfectly correlated
/// ```
#[derive(Debug, Clone)]
pub struct TableauSimulator {
    n: usize,
    /// Rows `0..n` are destabilizers, `n..2n` stabilizers.
    xs: Vec<BitVec>,
    zs: Vec<BitVec>,
    sign: Vec<bool>,
}

impl TableauSimulator {
    /// Creates the all-`|0⟩` state on `n` qubits.
    pub fn new(n: usize) -> Self {
        let mut xs = vec![BitVec::zeros(n); 2 * n];
        let mut zs = vec![BitVec::zeros(n); 2 * n];
        for i in 0..n {
            xs[i].set(i, true); // destabilizer X_i
            zs[n + i].set(i, true); // stabilizer Z_i
        }
        TableauSimulator {
            n,
            xs,
            zs,
            sign: vec![false; 2 * n],
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Applies a Hadamard.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn h(&mut self, q: usize) {
        assert!(q < self.n);
        for i in 0..2 * self.n {
            let (x, z) = (self.xs[i].get(q), self.zs[i].get(q));
            if x && z {
                self.sign[i] = !self.sign[i];
            }
            self.xs[i].set(q, z);
            self.zs[i].set(q, x);
        }
    }

    /// Applies a CNOT with control `c`, target `t`.
    ///
    /// # Panics
    ///
    /// Panics if out of range or `c == t`.
    pub fn cx(&mut self, c: usize, t: usize) {
        assert!(c < self.n && t < self.n && c != t);
        for i in 0..2 * self.n {
            let (xc, zc) = (self.xs[i].get(c), self.zs[i].get(c));
            let (xt, zt) = (self.xs[i].get(t), self.zs[i].get(t));
            if xc && zt && (xt == zc) {
                self.sign[i] = !self.sign[i];
            }
            self.xs[i].set(t, xt ^ xc);
            self.zs[i].set(c, zc ^ zt);
        }
    }

    /// Applies an X gate.
    pub fn x(&mut self, q: usize) {
        for i in 0..2 * self.n {
            if self.zs[i].get(q) {
                self.sign[i] = !self.sign[i];
            }
        }
    }

    /// Applies a Z gate.
    pub fn z(&mut self, q: usize) {
        for i in 0..2 * self.n {
            if self.xs[i].get(q) {
                self.sign[i] = !self.sign[i];
            }
        }
    }

    /// Injects a Pauli fault.
    pub fn apply_pauli(&mut self, q: usize, p: Pauli) {
        match p {
            Pauli::X => self.x(q),
            Pauli::Y => {
                self.x(q);
                self.z(q);
            }
            Pauli::Z => self.z(q),
        }
    }

    /// Multiplies row `i`'s Pauli into row `h`, tracking the sign
    /// through the per-qubit Levi-Civita-style phase function. `h` may
    /// be a scratch row beyond `2n`.
    fn row_mult(&mut self, h: usize, i: usize) {
        let n = self.n;
        let mut phase: i32 = 2 * (self.sign[h] as i32) + 2 * (self.sign[i] as i32);
        for q in 0..n {
            let (x1, z1) = (self.xs[i].get(q), self.zs[i].get(q));
            let (x2, z2) = (self.xs[h].get(q), self.zs[h].get(q));
            phase += match (x1, z1) {
                (false, false) => 0,
                (true, true) => (z2 as i32) - (x2 as i32), // Y
                (true, false) => (z2 as i32) * (2 * (x2 as i32) - 1), // X
                (false, true) => (x2 as i32) * (1 - 2 * (z2 as i32)), // Z
            };
        }
        debug_assert_eq!(phase.rem_euclid(4) % 2, 0, "phase must stay real");
        self.sign[h] = phase.rem_euclid(4) == 2;
        let (xi, zi) = (self.xs[i].clone(), self.zs[i].clone());
        self.xs[h].xor_assign(&xi);
        self.zs[h].xor_assign(&zi);
    }

    /// Measures qubit `q` in the Z basis.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn measure(&mut self, q: usize, rng: &mut impl Rng) -> bool {
        assert!(q < self.n);
        let n = self.n;
        if let Some(p) = (n..2 * n).find(|&p| self.xs[p].get(q)) {
            // Random outcome.
            let outcome = rng.gen_bool(0.5);
            for i in (0..2 * n).filter(|&i| i != p) {
                if self.xs[i].get(q) {
                    self.row_mult(i, p);
                }
            }
            // Destabilizer p-n := old stabilizer p; stabilizer p := ±Z_q.
            self.xs[p - n] = self.xs[p].clone();
            self.zs[p - n] = self.zs[p].clone();
            self.sign[p - n] = self.sign[p];
            self.xs[p] = BitVec::zeros(n);
            self.zs[p] = BitVec::zeros(n);
            self.zs[p].set(q, true);
            self.sign[p] = outcome;
            outcome
        } else {
            self.deterministic_outcome(q)
        }
    }

    /// Computes the deterministic Z-measurement outcome of `q` without
    /// disturbing the state.
    ///
    /// # Panics
    ///
    /// Panics if the outcome is not deterministic.
    pub fn deterministic_outcome(&self, q: usize) -> bool {
        let n = self.n;
        assert!(
            (n..2 * n).all(|p| !self.xs[p].get(q)),
            "measurement of qubit {q} is random"
        );
        // Accumulate product of stabilizers indicated by destabilizers
        // anticommuting with Z_q, on a scratch copy.
        let mut scratch = self.clone();
        scratch.xs.push(BitVec::zeros(n));
        scratch.zs.push(BitVec::zeros(n));
        scratch.sign.push(false);
        let h = 2 * n;
        for i in 0..n {
            if scratch.xs[i].get(q) {
                scratch.row_mult(h, i + n);
            }
        }
        scratch.sign[h]
    }

    /// Resets qubit `q` to `|0⟩` (measure, flip if 1).
    pub fn reset(&mut self, q: usize, rng: &mut impl Rng) {
        if self.measure(q, rng) {
            self.x(q);
        }
    }

    /// Runs a circuit (ignoring its noise channels), optionally
    /// injecting the given Paulis immediately **before** the op at
    /// `inject.0`. Returns the measurement record.
    pub fn run(
        circuit: &Circuit,
        inject: Option<(usize, &[(usize, Pauli)])>,
        rng: &mut impl Rng,
    ) -> Vec<bool> {
        let mut sim = TableauSimulator::new(circuit.num_qubits());
        let mut record = Vec::with_capacity(circuit.num_measurements());
        for (idx, op) in circuit.ops().iter().enumerate() {
            if let Some((at, paulis)) = inject {
                if at == idx {
                    for &(q, p) in paulis {
                        sim.apply_pauli(q, p);
                    }
                }
            }
            match op {
                Op::H(ts) => ts.iter().for_each(|&q| sim.h(q)),
                Op::Cx(ps) => ps.iter().for_each(|&(c, t)| sim.cx(c, t)),
                Op::Reset(ts) => ts.iter().for_each(|&q| sim.reset(q, rng)),
                Op::Measure { targets, .. } => {
                    for &q in targets {
                        record.push(sim.measure(q, rng));
                    }
                }
                // Noise channels are ignored: the tableau simulator is
                // the noiseless reference.
                _ => {}
            }
        }
        record
    }

    /// Checks that every detector and every logical observable of
    /// `circuit` is deterministic (value 0) under noiseless execution,
    /// across `trials` random runs (random X-check outcomes must cancel
    /// within each parity).
    ///
    /// Returns the first violating parity, detectors before observables.
    pub fn find_nondeterministic(
        circuit: &Circuit,
        trials: usize,
        rng: &mut impl Rng,
    ) -> Option<Parity> {
        for _ in 0..trials {
            let record = Self::run(circuit, None, rng);
            let odd = |ms: &[usize]| ms.iter().fold(false, |acc, &m| acc ^ record[m]);
            let detectors = circuit.detectors().iter();
            let mut observables = circuit.observables().iter();
            let bad = match detectors.map(|d| &d.measurements).position(|ms| odd(ms)) {
                Some(d) => Some(Parity::Detector(d)),
                None => observables.position(|ms| odd(ms)).map(Parity::Observable),
            };
            if bad.is_some() {
                return bad;
            }
        }
        None
    }
}

/// One shot sampled by [`sample_shot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShotRecord {
    /// Detector outcomes.
    pub detectors: BitVec,
    /// Observable flips.
    pub observables: BitVec,
}

/// Runs **one** shot of `circuit` with a scalar (non-bit-packed) frame:
/// one boolean X/Z pair per qubit, one Bernoulli draw per noise-channel
/// target.
///
/// This is the per-shot loop the batched `FrameSampler` replaces. It
/// consumes the RNG differently from the batched path, so identical
/// seeds do not reproduce identical shots across the two.
pub fn sample_shot(circuit: &Circuit, rng: &mut impl Rng) -> ShotRecord {
    let n = circuit.num_qubits();
    let mut x = vec![false; n];
    let mut z = vec![false; n];
    let mut record: Vec<bool> = Vec::with_capacity(circuit.num_measurements());
    for op in circuit.ops() {
        match op {
            Op::H(targets) => {
                for &q in targets {
                    let (xq, zq) = (x[q], z[q]);
                    x[q] = zq;
                    z[q] = xq;
                }
            }
            Op::Cx(pairs) => {
                for &(c, t) in pairs {
                    let (xc, zt) = (x[c], z[t]);
                    x[t] ^= xc;
                    z[c] ^= zt;
                }
            }
            Op::Reset(targets) => {
                for &q in targets {
                    x[q] = false;
                    z[q] = false;
                }
            }
            Op::Measure {
                targets,
                flip_probability,
            } => {
                for &q in targets {
                    record.push(x[q] ^ rng.gen_bool(*flip_probability));
                }
            }
            Op::XError { targets, p } => {
                for &q in targets {
                    x[q] ^= rng.gen_bool(*p);
                }
            }
            Op::ZError { targets, p } => {
                for &q in targets {
                    z[q] ^= rng.gen_bool(*p);
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
                    if rng.gen_bool(total) {
                        let u: f64 = rng.gen_f64() * total;
                        if u < px + py {
                            x[q] = !x[q];
                        }
                        if u >= *px {
                            z[q] = !z[q];
                        }
                    }
                }
            }
            Op::Depolarize1 { targets, p } => {
                for &q in targets {
                    if rng.gen_bool(*p) {
                        match rng.gen_range(0..3u8) {
                            0 => x[q] = !x[q],
                            1 => {
                                x[q] = !x[q];
                                z[q] = !z[q];
                            }
                            _ => z[q] = !z[q],
                        }
                    }
                }
            }
            Op::Depolarize2 { pairs, p } => {
                for &(a, b) in pairs {
                    if rng.gen_bool(*p) {
                        let k = rng.gen_range(1..16u8);
                        let (pa, pb) = (k / 4, k % 4);
                        apply_pauli_bool(&mut x[a], &mut z[a], pa);
                        apply_pauli_bool(&mut x[b], &mut z[b], pb);
                    }
                }
            }
            Op::Tick => {}
        }
    }
    let detectors = BitVec::from_ones(
        circuit.detectors().len(),
        circuit
            .detectors()
            .iter()
            .enumerate()
            .filter(|(_, d)| d.measurements.iter().fold(false, |acc, &m| acc ^ record[m]))
            .map(|(i, _)| i),
    );
    let observables = BitVec::from_ones(
        circuit.observables().len(),
        circuit
            .observables()
            .iter()
            .enumerate()
            .filter(|(_, obs)| obs.iter().fold(false, |acc, &m| acc ^ record[m]))
            .map(|(i, _)| i),
    );
    ShotRecord {
        detectors,
        observables,
    }
}

/// Applies Pauli code `code` (0 = I, 1 = X, 2 = Y, 3 = Z) to the given
/// scalar frame bits.
fn apply_pauli_bool(x: &mut bool, z: &mut bool, code: u8) {
    match code {
        1 => *x = !*x,
        2 => {
            *x = !*x;
            *z = !*z;
        }
        3 => *z = !*z,
        _ => {}
    }
}

/// A disjoint-set forest over `0..n` with path halving and union by
/// size.
#[derive(Debug, Clone)]
struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    /// Finds the representative of `x`'s set.
    ///
    /// # Panics
    ///
    /// Panics if `x >= n`.
    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were
    /// previously disjoint.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
        true
    }

    /// Returns `true` if `a` and `b` are in the same set.
    fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

/// The allocating Union-Find decoder: the same cluster growth and
/// peeling as `UnionFindDecoder`, but cluster parity lives in a
/// per-round `HashMap` and every growth round scans every edge.
///
/// Member selection is formulated independently of the decoder's class
/// pricing: classes on one vertex pair form an edge group, and each
/// group's member is chosen with [`EquivClass::representative`]. Since
/// classes are keyed by σ, every group holds one class. Edge groups are
/// built once, in [`UnionFindReference::new`], from the DEM's public
/// [`DecodingHypergraph`]; `decode` then does only the per-shot work.
#[derive(Debug)]
pub struct UnionFindReference {
    hypergraph: DecodingHypergraph,
    flag_conditioning: bool,
    minus_ln_pm: f64,
    /// Edge endpoints `(u, v)`; `v == boundary` marks boundary edges.
    edges: Vec<(usize, usize)>,
    /// Classes merged into each edge group, ascending class index.
    edge_classes: Vec<Vec<usize>>,
    /// Min-weight `(class, member)` per edge with no flags raised.
    base_member: Vec<(usize, usize)>,
    /// class index -> owning edge (None for non-graphlike classes).
    edge_of_class: Vec<Option<usize>>,
    boundary: usize,
}

impl UnionFindReference {
    /// Builds the reference decoder for `dem`.
    pub fn new(dem: &DetectorErrorModel, config: UnionFindConfig) -> Self {
        let hypergraph = DecodingHypergraph::new(dem);
        let minus_ln_pm = -config
            .measurement_error_probability
            .clamp(1e-12, 1.0 - 1e-12)
            .ln();
        let boundary = hypergraph.num_check_detectors();
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut edge_classes: Vec<Vec<usize>> = Vec::new();
        let mut edge_of_class: Vec<Option<usize>> = vec![None; hypergraph.classes().len()];
        let mut pair_index: HashMap<(usize, usize), usize> = HashMap::new();
        for (ci, class) in hypergraph.classes().iter().enumerate() {
            let pair = match class.sigma.len() {
                1 => (class.sigma[0] as usize, boundary),
                2 => (class.sigma[0] as usize, class.sigma[1] as usize),
                _ => continue,
            };
            let e = *pair_index.entry(pair).or_insert_with(|| {
                edges.push(pair);
                edge_classes.push(Vec::new());
                edges.len() - 1
            });
            edge_classes[e].push(ci);
            edge_of_class[ci] = Some(e);
        }
        let no_flags = BitVec::zeros(hypergraph.num_flag_detectors());
        let base_member = edge_classes
            .iter()
            .map(|group| {
                min_weight_member(&hypergraph, group, |c| {
                    if config.flag_conditioning {
                        c.representative(&no_flags, minus_ln_pm)
                    } else {
                        c.representative_unflagged()
                    }
                })
            })
            .collect();
        UnionFindReference {
            hypergraph,
            flag_conditioning: config.flag_conditioning,
            minus_ln_pm,
            edges,
            edge_classes,
            base_member,
            edge_of_class,
            boundary,
        }
    }

    /// Flag-conditioned `(class, member)` choices for every edge whose
    /// group has a raised flag in support.
    fn conditioned_overrides(&self, flags: &BitVec) -> HashMap<usize, (usize, usize)> {
        let mut overrides = HashMap::new();
        for f in flags.iter_ones() {
            for &class in self.hypergraph.classes_with_flag(f) {
                let Some(e) = self.edge_of_class[class] else {
                    continue;
                };
                if let Entry::Vacant(slot) = overrides.entry(e) {
                    slot.insert(min_weight_member(
                        &self.hypergraph,
                        &self.edge_classes[e],
                        |c| c.representative(flags, self.minus_ln_pm),
                    ));
                }
            }
        }
        overrides
    }
}

/// The overall min-weight `(class, member)` of the classes in `group`
/// under `selector`; the first (lowest class index) wins exact ties.
fn min_weight_member(
    hypergraph: &DecodingHypergraph,
    group: &[usize],
    selector: impl Fn(&EquivClass) -> (usize, f64),
) -> (usize, usize) {
    let mut best = (usize::MAX, usize::MAX, f64::INFINITY);
    for &ci in group {
        let (member, weight) = selector(&hypergraph.classes()[ci]);
        if weight < best.2 {
            best = (ci, member, weight);
        }
    }
    (best.0, best.1)
}

impl Decoder for UnionFindReference {
    fn decode(&self, detectors: &BitVec) -> BitVec {
        let mut correction = BitVec::zeros(self.hypergraph.num_observables());
        let (checks, flags) = self.hypergraph.split_shot(detectors);
        if checks.is_empty() {
            return correction;
        }
        let edge_override = if self.flag_conditioning && !flags.is_zero() {
            self.conditioned_overrides(&flags)
        } else {
            HashMap::new()
        };
        let n = self.boundary + 1;
        let mut flipped = vec![false; n];
        for &c in &checks {
            flipped[c] = true;
        }
        // Cluster growth: each edge has 2 half-steps; grow all odd
        // clusters simultaneously until every cluster is even or
        // contains the boundary.
        let mut uf = UnionFind::new(n);
        let mut growth = vec![0u8; self.edges.len()];
        let mut in_forest = vec![false; self.edges.len()];
        let mut rounds = 0usize;
        let mut gave_up = false;
        loop {
            // Compute cluster parity and boundary contact.
            let mut odd: HashMap<usize, bool> = HashMap::new();
            for (v, &flip) in flipped.iter().enumerate() {
                if flip {
                    let r = uf.find(v);
                    *odd.entry(r).or_insert(false) ^= true;
                }
            }
            let boundary_root = uf.find(self.boundary);
            odd.remove(&boundary_root);
            if odd.values().all(|&o| !o) {
                break;
            }
            rounds += 1;
            if rounds > 4 * n {
                // Round-limit safety net (should be unreachable on
                // connected graphs).
                gave_up = true;
                break;
            }
            // Grow every edge on the boundary of an odd cluster.
            let mut to_merge = Vec::new();
            let mut grew = false;
            for (e, &(u, v)) in self.edges.iter().enumerate() {
                if growth[e] >= 2 {
                    continue;
                }
                let ru = uf.find(u);
                let rv = uf.find(v);
                let grow_u = odd.get(&ru).copied().unwrap_or(false);
                let grow_v = odd.get(&rv).copied().unwrap_or(false);
                if grow_u || grow_v {
                    grew = true;
                    growth[e] += if grow_u && grow_v { 2 } else { 1 };
                    if growth[e] >= 2 {
                        growth[e] = 2;
                        to_merge.push(e);
                    }
                }
            }
            if !grew {
                // Isolated odd cluster with no usable edges: the
                // correction stays partial.
                gave_up = true;
                break;
            }
            for e in to_merge {
                let (u, v) = self.edges[e];
                if !uf.connected(u, v) {
                    uf.union(u, v);
                    in_forest[e] = true;
                }
            }
        }
        // Peeling: build the grown spanning forest and peel leaves.
        // Work on the forest edges only.
        let mut degree = vec![0usize; n];
        let mut incident: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (e, &(u, v)) in self.edges.iter().enumerate() {
            if in_forest[e] {
                degree[u] += 1;
                degree[v] += 1;
                incident[u].push(e);
                incident[v].push(e);
            }
        }
        let mut defect = flipped;
        let mut removed = vec![false; self.edges.len()];
        let mut stack: Vec<usize> = (0..n)
            .filter(|&v| degree[v] == 1 && v != self.boundary)
            .collect();
        while let Some(v) = stack.pop() {
            if degree[v] != 1 || v == self.boundary {
                continue;
            }
            let Some(&e) = incident[v].iter().find(|&&e| !removed[e]) else {
                continue;
            };
            removed[e] = true;
            let (a, b) = self.edges[e];
            let other = if a == v { b } else { a };
            degree[v] -= 1;
            degree[other] -= 1;
            if defect[v] {
                defect[v] = false;
                if other != self.boundary {
                    defect[other] = !defect[other];
                }
                let (class, member) = edge_override
                    .get(&e)
                    .copied()
                    .unwrap_or(self.base_member[e]);
                for &obs in &self.hypergraph.classes()[class].members[member].observables {
                    correction.flip(obs as usize);
                }
            }
            if degree[other] == 1 {
                stack.push(other);
            }
        }
        debug_assert!(
            gave_up
                || defect
                    .iter()
                    .enumerate()
                    .all(|(v, &d)| v == self.boundary || !d),
            "peeling left non-boundary defects unmatched without a give-up"
        );
        correction
    }

    fn decode_into(&self, detectors: &BitVec, _scratch: &mut DecodeScratch, out: &mut BitVec) {
        *out = self.decode(detectors);
    }

    fn num_observables(&self) -> usize {
        self.hypergraph.num_observables()
    }

    fn num_detectors(&self) -> usize {
        self.hypergraph.num_detectors()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec_math::rng::Xoshiro256StarStar;

    #[test]
    fn computational_basis_measurements() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0);
        let mut sim = TableauSimulator::new(2);
        assert!(!sim.measure(0, &mut rng));
        sim.x(0);
        assert!(sim.measure(0, &mut rng));
        assert!(!sim.measure(1, &mut rng));
    }

    #[test]
    fn bell_pair_correlations() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        for _ in 0..20 {
            let mut sim = TableauSimulator::new(2);
            sim.h(0);
            sim.cx(0, 1);
            let a = sim.measure(0, &mut rng);
            let b = sim.measure(1, &mut rng);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn plus_state_measurement_is_random() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let mut ones = 0;
        for _ in 0..100 {
            let mut sim = TableauSimulator::new(1);
            sim.h(0);
            if sim.measure(0, &mut rng) {
                ones += 1;
            }
        }
        assert!(ones > 20 && ones < 80);
    }

    #[test]
    fn ghz_parity_is_even_under_xx_measurement() {
        // Measure stabilizer X⊗X of a Bell pair via an ancilla.
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        for _ in 0..10 {
            let mut sim = TableauSimulator::new(3);
            sim.h(0);
            sim.cx(0, 1);
            // Ancilla-based X⊗X parity: H(anc), CX(anc,0), CX(anc,1), H(anc).
            sim.h(2);
            sim.cx(2, 0);
            sim.cx(2, 1);
            sim.h(2);
            assert!(!sim.measure(2, &mut rng), "Bell pair stabilizes XX");
        }
    }

    #[test]
    fn reset_returns_to_zero() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let mut sim = TableauSimulator::new(1);
        sim.h(0);
        sim.reset(0, &mut rng);
        assert!(!sim.measure(0, &mut rng));
    }

    #[test]
    fn y_injection_flips_both_frames() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let mut sim = TableauSimulator::new(1);
        sim.apply_pauli(0, Pauli::Y);
        assert!(sim.measure(0, &mut rng));
    }

    #[test]
    fn deterministic_outcome_respects_stabilizer_signs() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        let mut sim = TableauSimulator::new(2);
        sim.cx(0, 1);
        sim.x(0);
        sim.cx(0, 1); // net: X on 0 and 1
        assert!(sim.measure(0, &mut rng));
        assert!(sim.measure(1, &mut rng));
    }

    #[test]
    fn unions_merge_components() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 4));
        assert!(!uf.connected(3, 4));
    }
}
