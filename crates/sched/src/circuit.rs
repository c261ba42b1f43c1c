//! Memory-experiment circuit generation with the §III-A noise model.
//!
//! Three builders cover the paper's evaluated architectures:
//!
//! * **planar interleaved** — the standard rotated-surface-code round
//!   using the fault-tolerant Tomita–Svore CNOT ordering carried as
//!   [`qec_code::planar`] schedule hints;
//! * **direct greedy-scheduled** — parity qubits coupled straight to
//!   data qubits, CNOTs timed by Algorithm 1 (the PyMatching/Chromobius
//!   baseline architectures of §VI-F);
//! * **FPN phased** — flag/proxy syndrome extraction (§V-G): X checks
//!   and Z checks measured in separate phases so shared flag qubits can
//!   be reused serially; each flag performs its initialization and
//!   final CNOTs with the parity qubit and its middle CNOTs with its
//!   data pair; CNOTs between non-adjacent qubits are routed through
//!   proxy chains with the control-copying orientation of Fig. 6.
//!
//! Every builder produces one [`MemoryExperiment`]: a circuit with
//! per-round detectors for the memory-basis checks, one detector per
//! flag measurement, a final closure layer, and one observable per
//! logical qubit.

use qec_arch::{FlagProxyNetwork, Via};
use qec_code::{CssCode, PlaqColor};
use qec_sim::noise::NoiseModel;
use qec_sim::{Circuit, DetectorMeta};

use crate::greedy::greedy_schedule;

/// Memory-experiment basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Basis {
    /// Prepare `|+…+⟩`, protect against Z errors, read X checks.
    X,
    /// Prepare `|0…0⟩`, protect against X errors, read Z checks.
    Z,
}

/// A complete memory experiment: the noisy circuit plus its timing.
#[derive(Debug)]
pub struct MemoryExperiment {
    /// The generated circuit (detectors + observables included).
    pub circuit: Circuit,
    /// Latency of one syndrome-extraction round in nanoseconds.
    pub round_latency_ns: f64,
    /// Number of syndrome-extraction rounds.
    pub rounds: usize,
    /// Memory basis.
    pub basis: Basis,
    /// Number of flag-measurement slots per round.
    pub num_flag_usages: usize,
}

/// Tag identifying what a measurement slot within a round reads out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MeasTag {
    XCheck(usize),
    ZCheck(usize),
    FlagUsage(usize),
}

/// One step of the per-round plan.
#[derive(Debug, Clone)]
enum Step {
    Reset(Vec<usize>),
    Hadamard(Vec<usize>),
    CxMoment(Vec<(usize, usize)>),
    Measure(Vec<(usize, MeasTag)>),
}

#[derive(Debug, Clone)]
struct RoundPlan {
    steps: Vec<Step>,
    num_flag_usages: usize,
}

impl RoundPlan {
    fn latency_ns(&self, model: &NoiseModel) -> f64 {
        let lat = model.latencies();
        self.steps
            .iter()
            .map(|s| match s {
                Step::Reset(_) => lat.reset_ns,
                Step::Hadamard(_) => lat.single_qubit_ns,
                Step::CxMoment(_) => lat.two_qubit_ns,
                Step::Measure(_) => lat.measurement_ns + lat.reset_ns,
            })
            .sum()
    }

    fn measurements_per_round(&self) -> usize {
        self.steps
            .iter()
            .map(|s| match s {
                Step::Measure(targets) => targets.len(),
                _ => 0,
            })
            .sum()
    }
}

/// Builds the memory experiment for `code` realized by `fpn`.
///
/// Passing `noise = None` produces the noiseless circuit (used for
/// validating detector determinism). The architecture is selected by
/// the FPN: flag-bearing FPNs use phased extraction; direct FPNs use
/// the planar schedule hints when present, otherwise Algorithm 1.
///
/// # Panics
///
/// Panics if `rounds == 0` or the FPN does not match the code.
pub fn build_memory_circuit(
    code: &CssCode,
    fpn: &FlagProxyNetwork,
    noise: Option<&NoiseModel>,
    rounds: usize,
    basis: Basis,
) -> MemoryExperiment {
    assert!(rounds > 0, "need at least one round");
    let plan = if fpn.config().use_flags {
        plan_fpn(code, fpn)
    } else if let Some(hints) = code.schedule_hints() {
        plan_interleaved_from_orders(code, fpn, &hints.x_orders, &hints.z_orders)
    } else {
        let schedule = greedy_schedule(code);
        let to_orders = |times: &[Vec<usize>], supports: &dyn Fn(usize) -> Vec<usize>| {
            let depth = schedule.makespan();
            times
                .iter()
                .enumerate()
                .map(|(i, ts)| {
                    let support = supports(i);
                    let mut order = vec![usize::MAX; depth];
                    for (&q, &t) in support.iter().zip(ts) {
                        order[t - 1] = q;
                    }
                    order
                })
                .collect::<Vec<_>>()
        };
        let x_orders = to_orders(&schedule.x_times, &|i| code.x_support(i));
        let z_orders = to_orders(&schedule.z_times, &|i| code.z_support(i));
        plan_interleaved_from_orders(code, fpn, &x_orders, &z_orders)
    };

    let reference = NoiseModel::new(1e-3); // latency bookkeeping only
    let round_latency_ns = plan.latency_ns(noise.unwrap_or(&reference));
    let circuit = emit_experiment(code, fpn, &plan, noise, rounds, basis, round_latency_ns);
    MemoryExperiment {
        circuit,
        round_latency_ns,
        rounds,
        basis,
        num_flag_usages: plan.num_flag_usages,
    }
}

/// Builds a **code-capacity** memory experiment: independent
/// memory-basis errors on the data qubits at rate `p`, followed by one
/// *perfect* (noiseless) round of syndrome extraction and a perfect
/// transversal readout.
///
/// This is the idealized noise model of the paper's appendix (used
/// there to discuss which hyperbolic color codes the Restriction
/// decoder can handle at all); here it doubles as a decoder validation
/// mode, since failures then reflect the code distance alone.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1)`.
pub fn build_code_capacity_circuit(
    code: &CssCode,
    fpn: &FlagProxyNetwork,
    p: f64,
    basis: Basis,
) -> MemoryExperiment {
    assert!((0.0..1.0).contains(&p), "error rate must be in [0,1)");
    let noiseless = build_memory_circuit(code, fpn, None, 1, basis);
    let data_qubits: Vec<usize> = (0..code.n()).map(|q| fpn.data_qubit(q)).collect();
    // Re-emit the circuit with the data-error layer injected right
    // after the initial state preparation (Reset, plus H for basis X).
    let prep_len = if basis == Basis::X { 2 } else { 1 };
    let mut rebuilt = Circuit::new(noiseless.circuit.num_qubits());
    for (i, op) in noiseless.circuit.ops().iter().enumerate() {
        push_op(&mut rebuilt, op);
        if i + 1 == prep_len {
            match basis {
                Basis::Z => rebuilt.x_error(&data_qubits, p),
                Basis::X => rebuilt.z_error(&data_qubits, p),
            }
        }
    }
    for det in noiseless.circuit.detectors() {
        rebuilt.add_detector(det.measurements.clone(), det.meta);
    }
    for obs in noiseless.circuit.observables() {
        let o = rebuilt.add_observable();
        rebuilt.include_in_observable(o, obs);
    }
    MemoryExperiment {
        circuit: rebuilt,
        round_latency_ns: 0.0,
        rounds: 1,
        basis,
        num_flag_usages: noiseless.num_flag_usages,
    }
}

fn push_op(circuit: &mut Circuit, op: &qec_sim::Op) {
    use qec_sim::Op;
    match op {
        Op::H(ts) => circuit.h(ts),
        Op::Cx(ps) => circuit.cx(ps),
        Op::Reset(ts) => circuit.reset(ts),
        Op::Measure {
            targets,
            flip_probability,
        } => {
            circuit.measure(targets, *flip_probability);
        }
        // Code-capacity circuits are rebuilt from noiseless plans.
        _ => unreachable!("noiseless plan contains no noise ops"),
    }
}

/// The standard interleaved round: all parity ancillas run
/// simultaneously; `orders[check][t]` gives the data qubit touched at
/// CNOT moment `t` (or `usize::MAX` to idle).
fn plan_interleaved_from_orders(
    code: &CssCode,
    fpn: &FlagProxyNetwork,
    x_orders: &[Vec<usize>],
    z_orders: &[Vec<usize>],
) -> RoundPlan {
    let depth = x_orders
        .iter()
        .chain(z_orders.iter())
        .map(Vec::len)
        .max()
        .unwrap_or(0);
    let x_parities: Vec<usize> = (0..code.num_x_checks())
        .map(|i| fpn.x_parity_qubit(i))
        .collect();
    let z_parities: Vec<usize> = (0..code.num_z_checks())
        .map(|i| fpn.z_parity_qubit(i))
        .collect();
    let mut steps = Vec::new();
    let all_parities: Vec<usize> = x_parities
        .iter()
        .chain(z_parities.iter())
        .copied()
        .collect();
    steps.push(Step::Reset(all_parities));
    steps.push(Step::Hadamard(x_parities.clone()));
    for t in 0..depth {
        let mut pairs = Vec::new();
        for (i, order) in x_orders.iter().enumerate() {
            if let Some(&d) = order.get(t) {
                if d != usize::MAX {
                    pairs.push((x_parities[i], fpn.data_qubit(d)));
                }
            }
        }
        for (i, order) in z_orders.iter().enumerate() {
            if let Some(&d) = order.get(t) {
                if d != usize::MAX {
                    pairs.push((fpn.data_qubit(d), z_parities[i]));
                }
            }
        }
        if !pairs.is_empty() {
            steps.push(Step::CxMoment(pairs));
        }
    }
    steps.push(Step::Hadamard(x_parities.clone()));
    let mut meas: Vec<(usize, MeasTag)> = Vec::new();
    for (i, &p) in x_parities.iter().enumerate() {
        meas.push((p, MeasTag::XCheck(i)));
    }
    for (i, &p) in z_parities.iter().enumerate() {
        meas.push((p, MeasTag::ZCheck(i)));
    }
    steps.push(Step::Measure(meas));
    RoundPlan {
        steps,
        num_flag_usages: 0,
    }
}

/// Greedy assignment of CNOT moments given per-qubit availability;
/// routes non-adjacent CNOTs through proxy chains (control-copying
/// ladder, Fig. 6).
struct MomentAssigner<'f> {
    fpn: &'f FlagProxyNetwork,
    free: Vec<usize>,
    moments: Vec<Vec<(usize, usize)>>,
    /// Proxy re-initializations after each routed CNOT (Fig. 6: the
    /// proxy starts every use in |0⟩; without this, residual proxy
    /// errors propagate to a second data qubit — the Type 3 error of
    /// Fig. 9).
    resets: Vec<Vec<usize>>,
}

impl<'f> MomentAssigner<'f> {
    fn new(fpn: &'f FlagProxyNetwork) -> Self {
        MomentAssigner {
            fpn,
            free: vec![0; fpn.num_qubits()],
            moments: Vec::new(),
            resets: Vec::new(),
        }
    }

    fn place(&mut self, t: usize, pair: (usize, usize)) {
        while self.moments.len() <= t {
            self.moments.push(Vec::new());
            self.resets.push(Vec::new());
        }
        self.moments[t].push(pair);
    }

    fn place_reset(&mut self, t: usize, q: usize) {
        while self.moments.len() <= t {
            self.moments.push(Vec::new());
            self.resets.push(Vec::new());
        }
        self.resets[t].push(q);
    }

    /// Schedules a logical CNOT from `control` to `target` (through
    /// proxies if needed). Returns the first busy timestep.
    fn cx(&mut self, control: usize, target: usize) -> usize {
        let path = self.fpn.route(control, target);
        let hops = path.len() - 1;
        let start = path.iter().map(|&q| self.free[q]).max().unwrap_or(0);
        if hops == 1 {
            self.place(start, (control, target));
            self.free[control] = start + 1;
            self.free[target] = start + 1;
            return start;
        }
        // Copy the control value down the proxy chain, perform the
        // effective CNOT, then uncompute (2·hops − 1 timesteps).
        for i in 0..hops - 1 {
            self.place(start + i, (path[i], path[i + 1]));
        }
        self.place(start + hops - 1, (path[hops - 1], path[hops]));
        for i in (0..hops - 1).rev() {
            self.place(start + 2 * hops - 2 - i, (path[i], path[i + 1]));
        }
        let end = start + 2 * hops - 1;
        for &q in &path {
            self.free[q] = end;
        }
        // Re-initialize the interior proxies so residual errors cannot
        // leak into the next routed CNOT.
        for &q in &path[1..path.len() - 1] {
            self.place_reset(end, q);
            self.free[q] = end + 1;
        }
        start
    }
}

/// The FPN phased round (§V-G): X checks first, then Z checks.
fn plan_fpn(code: &CssCode, fpn: &FlagProxyNetwork) -> RoundPlan {
    let mut steps = Vec::new();
    let mut num_flag_usages = 0usize;

    // Enumerate flag usages stably: X checks then Z checks.
    let phase = |is_x: bool, steps: &mut Vec<Step>, usage_base: usize| -> usize {
        let num_checks = if is_x {
            code.num_x_checks()
        } else {
            code.num_z_checks()
        };
        let parity = |i: usize| {
            if is_x {
                fpn.x_parity_qubit(i)
            } else {
                fpn.z_parity_qubit(i)
            }
        };
        let segments = |i: usize| {
            if is_x {
                fpn.x_segments(i)
            } else {
                fpn.z_segments(i)
            }
        };
        // Collect flag instances: a flag shared by several checks in
        // this phase performs its data CNOTs ONCE, serving all of them
        // (the shared-flag equality constraint of Sec. V-G1); its
        // initialization and final CNOTs run against each parity qubit.
        let parities: Vec<usize> = (0..num_checks).map(parity).collect();
        let mut flag_qubits: Vec<usize> = Vec::new();
        // (flag qubit, data of the bridged pair, parity qubits served)
        let mut instances: Vec<(usize, Vec<usize>, Vec<usize>)> = Vec::new();
        for (i, &par) in parities.iter().enumerate() {
            for seg in segments(i) {
                if let Via::Flag(f) = seg.via {
                    let q = fpn.flags()[f].qubit;
                    if let Some(entry) = instances.iter_mut().find(|(fq, _, _)| *fq == q) {
                        entry.2.push(par);
                    } else {
                        instances.push((q, seg.data.clone(), vec![par]));
                        flag_qubits.push(q);
                    }
                }
            }
        }
        // Preparation: parities and flags reset; the superposition side
        // gets a Hadamard (X-check parity in |+>; Z-check flag in |+>).
        let mut reset_targets = parities.clone();
        reset_targets.extend(&flag_qubits);
        steps.push(Step::Reset(reset_targets));
        if is_x {
            steps.push(Step::Hadamard(parities.clone()));
        } else if !flag_qubits.is_empty() {
            steps.push(Step::Hadamard(flag_qubits.clone()));
        }
        // CNOT scheduling: initialization CNOTs with every served
        // parity, data CNOTs once, final CNOTs with every served parity.
        let mut assigner = MomentAssigner::new(fpn);
        for (fq, _, served) in &instances {
            for &p in served {
                if is_x {
                    assigner.cx(p, *fq);
                } else {
                    assigner.cx(*fq, p);
                }
            }
        }
        for (fq, data, _) in &instances {
            for &d in data {
                let dq = fpn.data_qubit(d);
                if is_x {
                    assigner.cx(*fq, dq);
                } else {
                    assigner.cx(dq, *fq);
                }
            }
        }
        for (i, &p) in parities.iter().enumerate() {
            for seg in segments(i) {
                if let Via::Direct = seg.via {
                    let dq = fpn.data_qubit(seg.data[0]);
                    if is_x {
                        assigner.cx(p, dq);
                    } else {
                        assigner.cx(dq, p);
                    }
                }
            }
        }
        for (fq, _, served) in &instances {
            for &p in served {
                if is_x {
                    assigner.cx(p, *fq);
                } else {
                    assigner.cx(*fq, p);
                }
            }
        }
        for (moment, resets) in assigner.moments.into_iter().zip(assigner.resets) {
            if !moment.is_empty() {
                steps.push(Step::CxMoment(moment));
            }
            if !resets.is_empty() {
                steps.push(Step::Reset(resets));
            }
        }
        // Basis rotation before measurement.
        if is_x {
            steps.push(Step::Hadamard(parities.clone()));
        } else if !flag_qubits.is_empty() {
            steps.push(Step::Hadamard(flag_qubits.clone()));
        }
        // Measure parities and one usage per flag instance.
        let mut meas: Vec<(usize, MeasTag)> = Vec::new();
        for (i, &p) in parities.iter().enumerate() {
            meas.push((
                p,
                if is_x {
                    MeasTag::XCheck(i)
                } else {
                    MeasTag::ZCheck(i)
                },
            ));
        }
        for (u, (fq, _, _)) in instances.iter().enumerate() {
            meas.push((*fq, MeasTag::FlagUsage(usage_base + u)));
        }
        steps.push(Step::Measure(meas));
        instances.len()
    };

    num_flag_usages += phase(true, &mut steps, num_flag_usages);
    num_flag_usages += phase(false, &mut steps, num_flag_usages);
    RoundPlan {
        steps,
        num_flag_usages,
    }
}

/// Emits the full experiment circuit from the per-round plan.
#[allow(clippy::too_many_arguments)]
fn emit_experiment(
    code: &CssCode,
    fpn: &FlagProxyNetwork,
    plan: &RoundPlan,
    noise: Option<&NoiseModel>,
    rounds: usize,
    basis: Basis,
    round_latency_ns: f64,
) -> Circuit {
    let nq = fpn.num_qubits();
    let mut circuit = Circuit::new(nq);
    let all_qubits: Vec<usize> = (0..nq).collect();
    let data_qubits: Vec<usize> = (0..code.n()).map(|q| fpn.data_qubit(q)).collect();

    let p1 = noise.map(|m| m.single_qubit_depolarizing());
    let p2 = noise.map(|m| m.two_qubit_depolarizing());
    let pm = noise.map_or(0.0, |m| m.measurement_flip());
    let pr = noise.map(|m| m.reset_failure());
    let pidle = noise.map(|m| m.idle_during_gate());
    let twirl = noise.map(|m| m.idle_channel(round_latency_ns));

    // Initial state preparation.
    circuit.reset(&all_qubits);
    if let Some(pr) = pr {
        circuit.x_error(&all_qubits, pr);
    }
    if basis == Basis::X {
        circuit.h(&data_qubits);
        if let Some(p1) = p1 {
            circuit.depolarize1(&data_qubits, p1);
        }
    }

    // meas_index[r][slot]: global record index of each per-round slot.
    let per_round = plan.measurements_per_round();
    let mut meas_index: Vec<Vec<usize>> = Vec::with_capacity(rounds);
    let mut tags: Vec<MeasTag> = Vec::with_capacity(per_round);
    let mut tags_recorded = false;

    for _ in 0..rounds {
        if let Some((px, py, pz)) = twirl {
            circuit.pauli_channel1(&all_qubits, px, py, pz);
        }
        let mut this_round: Vec<usize> = Vec::with_capacity(per_round);
        for step in &plan.steps {
            match step {
                Step::Reset(targets) => {
                    circuit.reset(targets);
                    if let Some(pr) = pr {
                        circuit.x_error(targets, pr);
                    }
                }
                Step::Hadamard(targets) => {
                    circuit.h(targets);
                    if let Some(p1) = p1 {
                        circuit.depolarize1(targets, p1);
                    }
                }
                Step::CxMoment(pairs) => {
                    circuit.cx(pairs);
                    if let Some(p2) = p2 {
                        circuit.depolarize2(pairs, p2);
                    }
                    if let Some(pidle) = pidle {
                        let mut busy = vec![false; nq];
                        for &(a, b) in pairs {
                            busy[a] = true;
                            busy[b] = true;
                        }
                        let idle: Vec<usize> = (0..nq).filter(|&q| !busy[q]).collect();
                        if !idle.is_empty() {
                            circuit.depolarize1(&idle, pidle);
                        }
                    }
                }
                Step::Measure(targets) => {
                    let qubits: Vec<usize> = targets.iter().map(|&(q, _)| q).collect();
                    let first = circuit.measure(&qubits, pm);
                    for (k, &(_, tag)) in targets.iter().enumerate() {
                        this_round.push(first + k);
                        if !tags_recorded {
                            tags.push(tag);
                        }
                    }
                    // Ancillas are reset for the next use.
                    circuit.reset(&qubits);
                    if let Some(pr) = pr {
                        circuit.x_error(&qubits, pr);
                    }
                }
            }
        }
        tags_recorded = true;
        meas_index.push(this_round);
    }

    // Final transversal data measurement.
    if basis == Basis::X {
        circuit.h(&data_qubits);
        if let Some(p1) = p1 {
            circuit.depolarize1(&data_qubits, p1);
        }
    }
    let final_first = circuit.measure(&data_qubits, pm);
    let data_meas = |q: usize| final_first + q;

    // Detectors.
    let colors = code.check_colors();
    let color_of = |i: usize| -> Option<u8> {
        colors.map(|cs| match cs[i] {
            PlaqColor::Red => 0,
            PlaqColor::Green => 1,
            PlaqColor::Blue => 2,
        })
    };
    let relevant = |tag: MeasTag| -> Option<usize> {
        match (tag, basis) {
            (MeasTag::XCheck(i), Basis::X) => Some(i),
            (MeasTag::ZCheck(i), Basis::Z) => Some(i),
            _ => None,
        }
    };
    for (slot, &tag) in tags.iter().enumerate() {
        if let MeasTag::FlagUsage(u) = tag {
            for (r, round_meas) in meas_index.iter().enumerate() {
                circuit.add_detector(vec![round_meas[slot]], DetectorMeta::flag(u, r));
            }
        }
        if let Some(i) = relevant(tag) {
            for r in 0..rounds {
                let mut meas = vec![meas_index[r][slot]];
                if r > 0 {
                    meas.push(meas_index[r - 1][slot]);
                }
                let meta = match color_of(i) {
                    Some(c) => DetectorMeta::colored_check(i, r, c),
                    None => DetectorMeta::check(i, r),
                };
                circuit.add_detector(meas, meta);
            }
            // Closure: last round vs. data readout.
            let support = match basis {
                Basis::X => code.x_support(i),
                Basis::Z => code.z_support(i),
            };
            let mut meas = vec![meas_index[rounds - 1][slot]];
            meas.extend(support.iter().map(|&q| data_meas(q)));
            let meta = match color_of(i) {
                Some(c) => DetectorMeta::colored_check(i, rounds, c),
                None => DetectorMeta::check(i, rounds),
            };
            circuit.add_detector(meas, meta);
        }
    }

    // Observables: one per logical qubit in the memory basis.
    let logicals = code.logicals();
    let ops = match basis {
        Basis::X => logicals.xs(),
        Basis::Z => logicals.zs(),
    };
    for row in ops.iter_rows() {
        let obs = circuit.add_observable();
        let meas: Vec<usize> = row.iter_ones().map(data_meas).collect();
        circuit.include_in_observable(obs, &meas);
    }
    circuit
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec_arch::FpnConfig;
    use qec_code::hyperbolic::{hyperbolic_surface_code, SURFACE_REGISTRY};
    use qec_code::planar::rotated_surface_code;
    use qec_math::rng::Xoshiro256StarStar;
    use qec_sim::FrameSampler;

    #[test]
    fn noiseless_sampling_fires_nothing() {
        let code = rotated_surface_code(3);
        let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
        let exp = build_memory_circuit(&code, &fpn, None, 3, Basis::Z);
        let sampler = FrameSampler::new(&exp.circuit);
        let batch = sampler.sample_batch(&mut Xoshiro256StarStar::seed_from_u64(3));
        assert!(!batch.any_detection());
        assert!(batch.observables.iter().all(|&m| m == 0));
    }

    #[test]
    fn planar_round_latency_about_one_microsecond() {
        let code = rotated_surface_code(5);
        let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
        let noise = NoiseModel::new(1e-3);
        let exp = build_memory_circuit(&code, &fpn, Some(&noise), 5, Basis::Z);
        // R + H + 4 CX + H + M + R = 30+30+160+30+800+30 = 1080 ns.
        assert!(
            (exp.round_latency_ns - 1080.0).abs() < 1.0,
            "latency {}",
            exp.round_latency_ns
        );
    }

    #[test]
    fn fpn_circuit_has_flag_detectors() {
        let code = hyperbolic_surface_code(&SURFACE_REGISTRY[12]).unwrap();
        let fpn = FlagProxyNetwork::build(&code, &FpnConfig::shared());
        let exp = build_memory_circuit(&code, &fpn, None, 2, Basis::Z);
        assert!(exp.num_flag_usages > 0);
        let flags = exp
            .circuit
            .detectors()
            .iter()
            .filter(|d| d.meta.is_flag)
            .count();
        assert_eq!(flags, exp.num_flag_usages * 2); // per round
        assert_eq!(exp.circuit.observables().len(), code.k());
    }

    #[test]
    fn proxies_are_reset_between_routed_cnots() {
        // A color-code FPN without sharing has proxies; the plan must
        // re-initialize each proxy after every routed CNOT (otherwise
        // residual proxy errors become Fig. 9 Type-3 propagation).
        use qec_code::hyperbolic::{hyperbolic_color_code, COLOR_REGISTRY};
        use qec_sim::Op;
        let code = hyperbolic_color_code(&COLOR_REGISTRY[0]).unwrap();
        let fpn = FlagProxyNetwork::build(&code, &FpnConfig::flags_only());
        let proxies: Vec<usize> = fpn
            .kinds()
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == qec_arch::QubitKind::Proxy)
            .map(|(q, _)| q)
            .collect();
        assert!(!proxies.is_empty());
        let exp = build_memory_circuit(&code, &fpn, None, 1, Basis::Z);
        // Count CX uses and resets per proxy: every pair of CXs through
        // a proxy is followed by a reset of that proxy.
        let mut cx_touch = vec![0usize; exp.circuit.num_qubits()];
        let mut resets = vec![0usize; exp.circuit.num_qubits()];
        for op in exp.circuit.ops() {
            match op {
                Op::Cx(pairs) => {
                    for &(a, b) in pairs {
                        cx_touch[a] += 1;
                        cx_touch[b] += 1;
                    }
                }
                Op::Reset(ts) => {
                    for &t in ts {
                        resets[t] += 1;
                    }
                }
                _ => {}
            }
        }
        for &p in &proxies {
            assert!(cx_touch[p] > 0, "proxy {p} unused");
            // control-copy uses the proxy in at least 2 CXs per route.
            assert!(
                resets[p] >= cx_touch[p] / 3,
                "proxy {p}: {} CXs but only {} resets",
                cx_touch[p],
                resets[p]
            );
        }
    }

    #[test]
    fn shared_flags_measure_once_per_phase() {
        use qec_code::hyperbolic::toric_color_code;
        // A flag shared by a plaquette's X and Z twins appears once in
        // the X-phase measurement and once in the Z phase, with its
        // data CNOTs executed once per phase.
        let code = toric_color_code(2).unwrap();
        let fpn = FlagProxyNetwork::build(&code, &FpnConfig::shared());
        let exp = build_memory_circuit(&code, &fpn, None, 1, Basis::Z);
        // Flag usages = unique flags used per phase, not per check.
        let per_phase: usize = fpn
            .flags()
            .iter()
            .map(|f| {
                let x: bool = f.checks.iter().any(|c| c.is_x);
                let z = f.checks.iter().any(|c| !c.is_x);
                usize::from(x) + usize::from(z)
            })
            .sum();
        assert_eq!(exp.num_flag_usages, per_phase);
    }

    #[test]
    fn noisy_sampling_fires_detectors() {
        let code = rotated_surface_code(3);
        let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
        let noise = NoiseModel::new(5e-3);
        let exp = build_memory_circuit(&code, &fpn, Some(&noise), 3, Basis::Z);
        let sampler = FrameSampler::new(&exp.circuit);
        let batch = sampler.sample_batch(&mut Xoshiro256StarStar::seed_from_u64(5));
        assert!(batch.any_detection());
    }
}
