//! Experiment harness: BER sweeps and table formatting for the
//! reproduction binaries (one per paper table/figure).

use crate::{run_ber, BerStats, DecoderKind, DecodingPipeline};
use qec_arch::FlagProxyNetwork;
use qec_code::CssCode;
use qec_obs::{Registry, RegistrySnapshot};
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

/// Result of a [`ber_sweep`]: the estimated points plus the metrics
/// their decoders recorded.
#[derive(Debug)]
pub struct BerSweep {
    /// One point per requested physical error rate, in order.
    pub points: Vec<BerPoint>,
    /// Snapshot of the sweep's metrics registry at its end: the
    /// decode/tier/give-up counters, build-size gauges and per-batch
    /// latency histogram of every point's decoder, one series per
    /// sweep. Feeds the experiment binaries' summary lines
    /// ([`sweep_summary`]).
    pub metrics: RegistrySnapshot,
}

/// Builds the pipeline for rate `p` with its decoder recording into
/// `metrics`, then grows the shot count until `target_failures`
/// failures or `max_shots` shots.
#[allow(clippy::too_many_arguments)]
fn run_point(
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
    metrics: Registry,
) -> BerPoint {
    let noise = NoiseModel::new(p);
    let exp = build_memory_circuit(code, fpn, Some(&noise), rounds, basis);
    let pipeline = DecodingPipeline::with_metrics(code, &exp, kind, &noise, metrics);
    let mut total = BerStats {
        shots: 0,
        requested_shots: 0,
        failures: 0,
        k: code.k(),
        decode_giveups: 0,
        oracle_hits: 0,
        sparse_hits: 0,
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
    run_point(
        code,
        fpn,
        kind,
        p,
        rounds,
        basis,
        max_shots,
        target_failures,
        seed,
        threads,
        Registry::new(),
    )
}

/// Runs [`ber_point`]-equivalent estimations at every rate in `ps`.
/// Each point builds its own pipeline
/// ([`DecodingPipeline::with_metrics`]) against one registry shared by
/// the whole sweep, so the tier counters form one series. Every point
/// uses the same `seed`, so each returned point is bit-identical to a
/// standalone [`ber_point`] call at that rate.
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
    let metrics = Registry::new();
    let points = ps
        .iter()
        .map(|&p| {
            run_point(
                code,
                fpn,
                kind,
                p,
                rounds,
                basis,
                max_shots,
                target_failures,
                seed,
                threads,
                metrics.clone(),
            )
        })
        .collect();
    BerSweep {
        points,
        metrics: metrics.snapshot(),
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

/// Tier counters per decoder family, each as `(label, counters)`: the
/// matching decoders' two path tiers and BP+OSD's two stages. Every
/// decoded shot advances exactly one entry of its family.
const TIER_FAMILIES: [[(&str, &[&str]); 2]; 2] = [
    [
        ("oracle", &["decode.tier.oracle_hits"]),
        ("sparse", &["decode.tier.sparse_blossom"]),
    ],
    [
        ("bp_converged", &["decode.tier.bp_converged"]),
        ("bp_osd", &["decode.tier.bp_osd"]),
    ],
];

/// A sweep's one-line summary from its registry snapshot: executed vs
/// requested shot totals (the 64-shot batch padding made visible),
/// total decodes, decoder give-ups, and the tier shares of the family
/// whose counters the sweep's decoder advanced.
pub fn sweep_summary(label: &str, sweep: &BerSweep) -> String {
    let m = &sweep.metrics;
    let executed: usize = sweep.points.iter().map(|pt| pt.stats.shots).sum();
    let requested: usize = sweep.points.iter().map(|pt| pt.stats.requested_shots).sum();
    let decodes = m.counter("decode.decodes");
    let giveups = m.counter("decode.giveups.stalled")
        + m.counter("decode.giveups.round_limit")
        + m.counter("decode.giveups.unmatched")
        + m.counter("decode.tier.bp_giveups");
    let mut line = format!(
        "{label:<42} summary: shots={executed} (requested {requested}) decodes={decodes} giveups={giveups} tiers:"
    );
    for family in &TIER_FAMILIES {
        let counts = family.map(|(_, names)| names.iter().map(|n| m.counter(n)).sum::<u64>());
        let total: u64 = counts.iter().sum();
        if total == 0 {
            continue;
        }
        for ((tier, _), n) in family.iter().zip(counts) {
            line += &format!(" {tier}={:.1}%", 100.0 * n as f64 / total as f64);
        }
    }
    line
}

/// Prints [`sweep_summary`].
pub fn print_sweep_summary(label: &str, sweep: &BerSweep) {
    println!("{}", sweep_summary(label, sweep));
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

    /// A sweep must return point-for-point identical statistics to
    /// standalone `ber_point` calls: sharing one registry across the
    /// points' decoders changes no decode and no per-point count.
    #[test]
    fn ber_sweep_matches_standalone_points() {
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
    /// atomics shared by every point's decoder, so each
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
            let tiers = point.stats.oracle_hits + point.stats.sparse_hits;
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
                    point.stats.decode_giveups,
                ),
                (
                    solo.stats.oracle_hits,
                    solo.stats.sparse_hits,
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
            m.counter("decode.tier.oracle_hits") + m.counter("decode.tier.sparse_blossom"),
            tier_sum,
            "per-point deltas must sum to the sweep-lifetime registry counters"
        );
        assert_eq!(m.counter("decoder.constructions"), ps.len() as u64);
        // At p-sweep rates some shots raise flags: the flagged decoder
        // must report both oracle-tier and sparse-tier activity, and
        // the decodes counter bounds the tier total.
        assert!(m.counter("decode.decodes") >= tier_sum);
    }

    /// A sweep's summary reports the tiers its decoder advanced: BP+OSD's
    /// two stages, never the matching tiers BP does not use, with shares
    /// summing to 100 %; a matching sweep reports the path tiers.
    #[test]
    fn sweep_summary_reports_the_decoders_own_tiers() {
        let code = rotated_surface_code(3);
        let fpn = FlagProxyNetwork::build(&code, &FpnConfig::direct());
        let sweep_line = |kind| {
            let sweep = ber_sweep(
                &code,
                &fpn,
                kind,
                &[1e-3, 3e-3],
                3,
                Basis::Z,
                512,
                usize::MAX,
                7,
                2,
            );
            sweep_summary("label", &sweep)
        };
        let share = |line: &str, tier: &str| -> f64 {
            let rest = line.split(&format!(" {tier}=")).nth(1).expect(tier);
            rest.split('%').next().unwrap().parse().unwrap()
        };
        let bp = sweep_line(DecoderKind::FlaggedBpOsd);
        assert!(!bp.contains("oracle=") && !bp.contains("sparse="), "{bp}");
        assert!(!bp.contains("constructions="), "{bp}");
        let sum = share(&bp, "bp_converged") + share(&bp, "bp_osd");
        assert!((sum - 100.0).abs() < 0.15, "{bp}");
        let mwpm = sweep_line(DecoderKind::FlaggedMwpm);
        assert!(!mwpm.contains("bp_"), "{mwpm}");
        let sum = share(&mwpm, "oracle") + share(&mwpm, "sparse");
        assert!((sum - 100.0).abs() < 0.15, "{mwpm}");
    }

    /// On the flagged shared-flag hyperbolic FPN nearly every decoded
    /// shot is certified on the CSR graph (`sparse_blossom`); the
    /// point's tier counts must still cover every shot the decoder
    /// matched, exactly once.
    #[test]
    fn ber_stats_count_every_csr_matched_shot() {
        use qec_code::hyperbolic::{hyperbolic_surface_code, SURFACE_REGISTRY};
        let code = hyperbolic_surface_code(&SURFACE_REGISTRY[2]).expect("registry code builds");
        let fpn = FlagProxyNetwork::build(&code, &FpnConfig::shared());
        let kind = DecoderKind::FlaggedMwpm;
        let sweep = ber_sweep(
            &code,
            &fpn,
            kind,
            &[1e-3],
            3,
            Basis::Z,
            128,
            usize::MAX,
            5,
            2,
        );
        let (stats, m) = (&sweep.points[0].stats, &sweep.metrics);
        assert!(m.counter("decode.tier.sparse_blossom") > 0);
        assert_eq!(
            (stats.oracle_hits + stats.sparse_hits) as u64,
            m.counter("decode.tier.oracle_hits") + m.counter("decode.tier.sparse_blossom"),
        );
    }
}
