#!/usr/bin/env bash
# Hermetic CI for the fpn-repro workspace.
#
# The workspace has zero external dependencies, so everything builds
# and tests with --offline: a network-less container is the expected
# environment, not a degraded one.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --workspace --all-targets -- -D warnings
cargo build --release --offline --workspace
# --workspace so every crate's unit tests run, not just the root
# package's integration tests.
cargo test -q --offline --workspace
# perfbench sits outside the workspace and builds against crates/* by
# path: building and testing it here catches a qec-sim or fpn-core API
# change that would break the benchmark.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Differential path-tier tests: the lazy SparsePathFinder must match
# the dense PathOracle and on-demand Dijkstra (the reference search)
# bitwise, and both path tiers must decode identically on every
# fixture DEM (including the hyperbolic one above the dense-oracle
# guard).
cargo test -q --offline --test properties sparse_finder_matches_oracle_and_dijkstra_on_random_graphs
cargo test -q --offline --test properties path_tiers_agree
# Differential matching-route test: shots priced on the CSR graph (the
# complete instance up to 4 defects, graph-native above) must decode
# exactly like the dense oracle's complete instances, and every decoded
# shot must advance exactly one tier counter.
cargo test -q --offline --test properties matching_routes_agree
cargo test -q --offline --test properties tier_counters_count_each_decoded_shot_once

# The paper's d_eff witnesses (Figs. 19/20) by single-fault injection:
# on the shared-flag FPNs flagged MWPM and flagged BP+OSD mis-correct no
# single fault and flagged Restriction at most two, while the unflagged
# and Chamberland baselines mis-correct many.
cargo test -q --offline --test pipeline flag_protocol_restores_effective_distance_surface
cargo test -q --offline --test pipeline flag_protocol_restores_effective_distance_color

# Differential streaming-service tests: qec-serve corrections must be
# bit-identical to offline decode_into and reproduce run_ber's failure
# counts on the d=5 surface and hyperbolic fixtures across 1/2/4
# shards, and the bounded queue must reject (WouldBlock) rather than
# grow under backpressure.
cargo test -q --offline --test serve

# Differential blossom fuzzing at the full release budget: 5k random
# matching instances (plus a second 2.5k stream) through the pooled
# incremental solver vs. the reference exact solver, with dual
# certificates checked after every solve and shrunk reproducers on
# failure (see crates/testkit/tests/blossom_fuzz.rs).
QEC_BLOSSOM_FUZZ_CASES=5000 cargo test -q --release --offline \
    -p qec-testkit --test blossom_fuzz

# Differential sparse-blossom fuzzing at the full release budget: 5k
# random CSR decoding graphs (path-derived, boundary-heavy and
# degenerate-tie shapes, plus a second 2.5k stream) through the
# graph-native sparse solver vs. the dense complete-pricing baseline,
# comparing total matching weight under the fixed-point quantization,
# with shrunk reproducers on failure (see
# crates/testkit/tests/sparse_blossom_fuzz.rs).
QEC_SPARSE_BLOSSOM_FUZZ_CASES=5000 cargo test -q --release --offline \
    -p qec-testkit --test sparse_blossom_fuzz

# Differential BP+OSD fuzzing at the full release budget: 2k random
# sparse hypergraphs (degenerate and disconnected shapes included, plus
# a second 1k stream) asserting that every correction
# exactly reproduces its syndrome and that the OSD solution's weight
# never exceeds the BP hard decision's, with shrunk reproducers on
# failure (see crates/testkit/tests/bp_osd_fuzz.rs).
QEC_BP_OSD_FUZZ_CASES=2000 cargo test -q --release --offline \
    -p qec-testkit --test bp_osd_fuzz

# Quick benchmark smoke run with qec-obs tracing enabled: exercises
# the batched decode hot path and the per-stage timing harness end to
# end (1k shots keeps it a few seconds; the JSON lines double as a CI
# artifact). The run must clear every perf gate — pass_2x
# (decode_into ≥2x vs decode) and pass_obs_overhead (per-batch tracing
# within 10% of the untraced decode stage), each with bit-identical
# corrections — and leave the BENCH_10.json artifact behind. The
# mwpm_oracle_speedup_d5 row reports the dense PathOracle's speedup
# over the sparse path tier without a gate (its threshold has not been
# measured), but its corrections must be identical. The
# pass_sparse_blossom gate requires the graph-native matching route to
# clear 2x over the complete-instance route on the CSR graph on the
# hyperbolic fixture's p = 1e-3 shots, and the pass_serve
# gate requires the streaming service to sustain the throughput floor
# on the hyperbolic fixture with corrections bit-identical to offline
# decode_into. The pass_bp_osd gate requires the BP+OSD hypergraph
# tier to return a syndrome-exact correction for 100% of the
# hyperbolic ground-truth shots with zero give-ups. The
# pass_telemetry_overhead gate requires the per-request windowed
# recording the serve worker performs (heartbeats + rolling-window
# samples) to stay within 10% of the bare decode loop with
# bit-identical corrections.
mkdir -p target
trace_file=target/obs_trace.jsonl
bench_out=$(cargo run --release --offline -p qec-bench -- \
    --shots 1000 --out BENCH_10.json --trace "$trace_file" | tee /dev/stderr)
grep -q '"pass_2x":true' <<<"$bench_out"
grep -q '"pass_sparse_blossom":true' <<<"$bench_out"
grep -q '"weights_equal":true' <<<"$bench_out"
grep -q '"pass_obs_overhead":true' <<<"$bench_out"
grep -q '"pass_serve":true' <<<"$bench_out"
grep -q '"pass_bp_osd":true' <<<"$bench_out"
grep -q '"pass_telemetry_overhead":true' <<<"$bench_out"
grep -q '"identical":true' <<<"$bench_out"
# Every gate must hold, including any added later: a record carrying
# any "pass_*":false fails CI outright (greps above pin the gates we
# know by name; this catches the ones we forgot to list).
if grep -E '"pass_[a-z0-9_]+":false' <<<"$bench_out"; then
    echo "ci.sh: benchmark gate failed (pass_* flag is false)" >&2
    exit 1
fi
# Records must carry the shared schema header.
if grep -vq '"bench_schema":' <<<"$bench_out"; then
    echo "ci.sh: bench record missing bench_schema header" >&2
    exit 1
fi
test -s BENCH_10.json

# The bench run's structured trace must be non-empty, well-formed
# JSON lines with balanced span enter/close nesting, must contain the
# service's per-request spans from the serve throughput bench, and
# must carry a sane minimum event count (a short-but-valid trace means
# instrumentation silently fell off a hot path).
test -s "$trace_file"
grep -q '"name":"serve.request"' "$trace_file"
cargo run --release --offline -p qec-obs --bin obs_validate -- \
    "$trace_file" --min-events 100

# Live telemetry plane smoke: a real DecodeService with the HTTP
# endpoint on loopback — scrape /metrics, /healthz and /snapshot over
# actual TCP and fail on malformed exposition, invalid health JSON or
# an unhealthy verdict (the zero-dep stand-in for curl in a deploy
# pipeline).
cargo run --release --offline -p qec-bench --bin telemetry_smoke

# The trace/bench analyzer must roll the smoke trace up (per-span-name
# table + critical path, and the flamegraph collapsed-stack form) and
# read the whole BENCH_*.json trajectory without choking; regression
# flags are informational, parse failures are not.
cargo run --release --offline -p qec-obs --bin obs_report -- \
    --trace "$trace_file" > /dev/null
cargo run --release --offline -p qec-obs --bin obs_report -- \
    --trace "$trace_file" --collapse > /dev/null
cargo run --release --offline -p qec-obs --bin obs_report -- \
    --bench BENCH_*.json
