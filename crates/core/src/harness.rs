//! Experiment harness: BER sweeps and table formatting for the
//! reproduction binaries (one per paper table/figure).

use crate::{run_ber, BerStats, DecoderKind, DecodingPipeline};
use qec_arch::FlagProxyNetwork;
use qec_code::CssCode;
use qec_obs::RegistrySnapshot;
use qec_sched::{build_memory_circuit, Basis};
use qec_sim::noise::NoiseModel;

fn basis_name(basis: Basis) -> &'static str {
    match basis {
        Basis::X => "X",
        Basis::Z => "Z",
    }
}

/// One point of a BER sweep.
#[derive(Debug, Clone, Copy)]
pub struct BerPoint {
    /// Physical error rate.
    pub p: f64,
    /// Memory basis.
    pub basis: Basis,
    /// Result.
    pub stats: BerStats,
    /// Syndrome-extraction rounds used.
    pub rounds: usize,
}

/// Result of a [`ber_sweep`]: the estimated points plus how many full
/// decoder constructions the sweep needed ([`DecodingPipeline`] keeps
/// the count — 1 when every point after the first merely repriced the
/// constructed decoder).
#[derive(Debug)]
pub struct BerSweep {
    /// One point per requested physical error rate, in order.
    pub points: Vec<BerPoint>,
    /// Full decoder constructions over the whole sweep.
    pub decoder_constructions: u64,
    /// Snapshot of the pipeline's metrics registry at the end of the
    /// sweep: lifetime decode/tier/give-up counters, build-size gauges
    /// and the per-batch latency histogram, covering every point (the
    /// registry survives retarget rebuilds). Feeds the experiment
    /// binaries' summary lines ([`print_sweep_summary`]).
    pub metrics: RegistrySnapshot,
}

/// Grows the shot count on an already-built pipeline until
/// `target_failures` failures or `max_shots` shots.
#[allow(clippy::too_many_arguments)]
fn run_point(
    pipeline: &DecodingPipeline,
    exp: &qec_sched::MemoryExperiment,
    k: usize,
    p: f64,
    rounds: usize,
    basis: Basis,
    max_shots: usize,
    target_failures: usize,
    seed: u64,
    threads: usize,
) -> BerPoint {
    let mut total = BerStats {
        shots: 0,
        requested_shots: 0,
        failures: 0,
        k,
        decode_giveups: 0,
        oracle_hits: 0,
        sparse_hits: 0,
        oracle_misses: 0,
    };
    let mut point_span = qec_obs::span_with(
        "ber.point",
        &[
            ("p", p.into()),
            ("basis", basis_name(basis).into()),
            ("rounds", rounds.into()),
        ],
    );
    let mut chunk = 4096.max(64 * threads);
    let mut round_seed = seed;
    while total.shots < max_shots && total.failures < target_failures {
        let remaining = max_shots - total.shots;
        let stats = run_ber(
            &exp.circuit,
            pipeline.decoder(),
            chunk.min(remaining),
            round_seed,
            threads,
        );
        total.shots += stats.shots;
        total.requested_shots += stats.requested_shots;
        total.failures += stats.failures;
        total.decode_giveups += stats.decode_giveups;
        total.oracle_hits += stats.oracle_hits;
        total.sparse_hits += stats.sparse_hits;
        total.oracle_misses += stats.oracle_misses;
        round_seed = round_seed.wrapping_add(0x9e3779b97f4a7c15);
        chunk = (chunk * 2).min(1 << 20);
    }
    point_span.field("shots", total.shots);
    point_span.field("failures", total.failures);
    point_span.field("giveups", total.decode_giveups);
    BerPoint {
        p,
        basis,
        stats: total,
        rounds,
    }
}

/// Runs a memory experiment at one physical error rate, growing the
/// shot count until `target_failures` failures or `max_shots` shots.
#[allow(clippy::too_many_arguments)]
pub fn ber_point(
    code: &CssCode,
    fpn: &FlagProxyNetwork,
    kind: DecoderKind,
    p: f64,
    rounds: usize,
    basis: Basis,
    max_shots: usize,
    target_failures: usize,
    seed: u64,
    threads: usize,
) -> BerPoint {
    let noise = NoiseModel::new(p);
    let exp = build_memory_circuit(code, fpn, Some(&noise), rounds, basis);
    let pipeline = DecodingPipeline::new(code, &exp, kind, &noise);
    run_point(
        &pipeline,
        &exp,
        code.k(),
        p,
        rounds,
        basis,
        max_shots,
        target_failures,
        seed,
        threads,
    )
}

/// Runs [`ber_point`]-equivalent estimations at every rate in `ps`,
/// **reusing one constructed decoder** across the sweep: a `p` change
/// moves mechanism probabilities but not the decoding-graph topology,
/// so each point after the first reprices the pipeline in place
/// ([`DecodingPipeline::retarget`]) instead of rebuilding its path
/// indexes. Every point uses the same `seed`, so each returned point
/// is bit-identical to a standalone [`ber_point`] call at that rate.
#[allow(clippy::too_many_arguments)]
pub fn ber_sweep(
    code: &CssCode,
    fpn: &FlagProxyNetwork,
    kind: DecoderKind,
    ps: &[f64],
    rounds: usize,
    basis: Basis,
    max_shots: usize,
    target_failures: usize,
    seed: u64,
    threads: usize,
) -> BerSweep {
    let _sweep_span = qec_obs::span_with(
        "ber.sweep",
        &[
            ("points", ps.len().into()),
            ("basis", basis_name(basis).into()),
            ("rounds", rounds.into()),
        ],
    );
    let mut points = Vec::with_capacity(ps.len());
    let mut pipeline: Option<DecodingPipeline> = None;
    for &p in ps {
        let noise = NoiseModel::new(p);
        let exp = build_memory_circuit(code, fpn, Some(&noise), rounds, basis);
        let pl = match pipeline.take() {
            None => DecodingPipeline::new(code, &exp, kind, &noise),
            Some(mut pl) => {
                pl.retarget(code, &exp, kind, &noise);
                pl
            }
        };
        points.push(run_point(
            &pl,
            &exp,
            code.k(),
            p,
            rounds,
            basis,
            max_shots,
            target_failures,
            seed,
            threads,
        ));
        pipeline = Some(pl);
    }
    let (decoder_constructions, metrics) = pipeline
        .map_or((0, RegistrySnapshot::default()), |pl| {
            (pl.constructions(), pl.metrics().snapshot())
        });
    BerSweep {
        points,
        decoder_constructions,
        metrics,
    }
}

/// Prints one sweep row in the paper's style.
pub fn print_ber_row(label: &str, point: &BerPoint) {
    let basis = basis_name(point.basis);
    println!(
        "{label:<42} p={:<8.1e} mem-{basis} rounds={:<2} shots={:<8} fails={:<6} BER={:.3e} BER/k={:.3e}",
        point.p,
        point.rounds,
        point.stats.shots,
        point.stats.failures,
        point.stats.ber(),
        point.stats.ber_norm(),
    );
}

/// Prints a sweep's one-line summary from its registry snapshot:
/// executed vs requested shot totals (the 64-shot batch padding made
/// visible), total decodes, decoder give-ups (silent partial
/// corrections, now visible), the two path-tier shares, and how many
/// times the decoder was actually constructed vs repriced.
pub fn print_sweep_summary(label: &str, sweep: &BerSweep) {
    let m = &sweep.metrics;
    let executed: usize = sweep.points.iter().map(|pt| pt.stats.shots).sum();
    let requested: usize = sweep.points.iter().map(|pt| pt.stats.requested_shots).sum();
    let decodes = m.counter("decode.decodes");
    let giveups = m.counter("decode.giveups.stalled")
        + m.counter("decode.giveups.round_limit")
        + m.counter("decode.giveups.unmatched")
        + m.counter("decode.tier.bp_giveups");
    let oracle = m.counter("decode.tier.oracle_hits");
    let sparse = m.counter("decode.tier.sparse_hits");
    let tier_total = (oracle + sparse).max(1) as f64;
    let pct = |n: u64| 100.0 * n as f64 / tier_total;
    println!(
        "{label:<42} summary: shots={executed} (requested {requested}) decodes={decodes} giveups={giveups} tiers: oracle={:.1}% sparse={:.1}% constructions={}",
        pct(oracle),
        pct(sparse),
        sweep.decoder_constructions,
    );
}

/// Number of worker threads to use (all cores, minimum 1).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec_arch::FpnConfig;
    use qec_code::planar::rotated_surface_code;

    /// A sweep must construct its decoder exactly once (later points
    /// reprice in place) and still return point-for-point identical
    /// statistics to standalone `ber_point` calls — the repriced
    /// decoder is bit-for-bit equivalent to a fresh build.
    #[test]
    fn ber_sweep_constructs_once_and_matches_standalone_points() {
        let code = rotated_surface_code(3);
        let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
        let ps = [1e-3, 2e-3, 3e-3];
        let sweep = ber_sweep(
            &code,
            &fpn,
            DecoderKind::FlaggedMwpm,
            &ps,
            3,
            Basis::Z,
            1024,
            usize::MAX,
            17,
            2,
        );
        assert_eq!(
            sweep.decoder_constructions, 1,
            "sweep points must reprice, not rebuild"
        );
        assert_eq!(sweep.points.len(), ps.len());
        for (point, &p) in sweep.points.iter().zip(&ps) {
            let solo = ber_point(
                &code,
                &fpn,
                DecoderKind::FlaggedMwpm,
                p,
                3,
                Basis::Z,
                1024,
                usize::MAX,
                17,
                2,
            );
            assert_eq!(
                point.stats, solo.stats,
                "sweep point at p={p} diverged from a standalone ber_point"
            );
        }
    }

    /// Per-sweep-point stats attribution: the decoder's counters are
    /// lifetime atomics shared across retarget rebuilds, so each
    /// point's `BerStats` must report that point's *delta*, not the
    /// accumulated totals. Pinned two ways: (a) each point's tier
    /// counts equal a standalone `ber_point`'s (whose decoder starts
    /// from zero), and (b) the per-point deltas sum back to the
    /// sweep-lifetime registry counters.
    #[test]
    fn sweep_points_report_per_point_tier_deltas() {
        let code = rotated_surface_code(3);
        let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
        let ps = [1e-3, 3e-3, 1e-2];
        let sweep = ber_sweep(
            &code,
            &fpn,
            DecoderKind::FlaggedMwpm,
            &ps,
            3,
            Basis::Z,
            512,
            usize::MAX,
            23,
            2,
        );
        let mut tier_sum = 0u64;
        for (point, &p) in sweep.points.iter().zip(&ps) {
            let tiers =
                point.stats.oracle_hits + point.stats.sparse_hits + point.stats.oracle_misses;
            assert!(
                tiers <= point.stats.shots,
                "point at p={p} reports more tier hits ({tiers}) than shots — \
                 accumulated lifetime counts leaked into the per-point stats"
            );
            let solo = ber_point(
                &code,
                &fpn,
                DecoderKind::FlaggedMwpm,
                p,
                3,
                Basis::Z,
                512,
                usize::MAX,
                23,
                2,
            );
            assert_eq!(
                (
                    point.stats.oracle_hits,
                    point.stats.sparse_hits,
                    point.stats.oracle_misses,
                    point.stats.decode_giveups,
                ),
                (
                    solo.stats.oracle_hits,
                    solo.stats.sparse_hits,
                    solo.stats.oracle_misses,
                    solo.stats.decode_giveups,
                ),
                "per-point tier counts at p={p} must match a fresh decoder's"
            );
            tier_sum += tiers as u64;
        }
        // The sweep's registry keeps the lifetime series: the sum of
        // the reported per-point deltas reassembles it exactly.
        let m = &sweep.metrics;
        assert_eq!(
            m.counter("decode.tier.oracle_hits") + m.counter("decode.tier.sparse_hits"),
            tier_sum,
            "per-point deltas must sum to the sweep-lifetime registry counters"
        );
        assert_eq!(m.counter("decoder.constructions"), 1);
        assert_eq!(m.counter("decoder.reprices"), ps.len() as u64 - 1);
        // At p-sweep rates some shots raise flags: the flagged decoder
        // must report both oracle-tier and sparse-tier activity, and
        // the decodes counter bounds the tier total.
        assert!(m.counter("decode.decodes") >= tier_sum);
    }
}
