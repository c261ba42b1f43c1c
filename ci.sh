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
# Rustdoc must stay warning-free: a doc link left pointing at a
# renamed or deleted item fails here instead of rotting.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps
cargo build --release --offline --workspace
# --workspace so every crate's unit tests run, not just the root
# package's integration tests.
cargo test -q --offline --workspace
# perfbench sits outside the workspace and builds against crates/* by
# path: building and testing it here catches a qec-sim or fpn-core API
# change that would break the benchmark.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Runs the tests of integration target $1 whose names match filter $2,
# and fails unless at least one ran: `cargo test <filter>` exits 0 when
# nothing matches, so a renamed test would otherwise turn its named
# step below into a silent no-op.
named_test() {
    local out
    out=$(cargo test -q --offline --test "$1" "$2" 2>&1) || { echo "$out"; exit 1; }
    echo "$out"
    if ! grep -Eq '^test result: ok\. [1-9][0-9]* passed' <<<"$out"; then
        echo "ci.sh: no test in --test $1 matches '$2'" >&2
        exit 1
    fi
}

# Differential path-tier tests: every pair complete_graph_match prices
# on the SparsePathFinder's CSR graph must match the dense PathOracle
# and on-demand Dijkstra (the reference search) bitwise, distances and
# hops, and both path tiers must decode identically on every fixture
# DEM (including the hyperbolic one above the dense-oracle guard).
named_test properties sparse_finder_matches_oracle_and_dijkstra_on_random_graphs
named_test properties path_tiers_agree
# Differential matching-route test: shots matched on the CSR graph by
# sparse_graph_match (complete instances up to 4 defects, certified
# above) must decode exactly like the dense oracle's complete
# instances, every decoded shot must advance exactly one tier counter,
# and the CSR matching pools must not regrow once warm.
named_test properties matching_routes_agree
named_test properties tier_counters_count_each_decoded_shot_once
named_test properties csr_match_pools_are_stable_after_warmup

# The paper's d_eff witnesses (Figs. 19/20) by single-fault injection:
# on the shared-flag FPNs flagged MWPM and flagged BP+OSD mis-correct no
# single fault and flagged Restriction at most two, while the unflagged
# and Chamberland baselines mis-correct many.
named_test pipeline flag_protocol_restores_effective_distance_surface
named_test pipeline flag_protocol_restores_effective_distance_color

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

# The perf-gate runner with qec-obs tracing enabled (1k shots, about
# half a minute). Every gate times both sides through one paired
# median/IQR helper (11 interleaved reps after a warmup) and is judged
# on the ratio median, after an untimed correctness pass:
#   pass_10x                 batched frame sampler ≥10x the per-shot one
#   pass_2x                  Union-Find decode_into ≥2x decode
#   pass_oracle              dense PathOracle ≥2x the sparse path tier
#   pass_sparse_blossom      graph-native matching ≥2x complete pricing
#                            (complete_graph_match) on the hyperbolic
#                            fixture, equal weights
#   pass_obs_overhead        per-batch tracing ≤1.10x the untraced decode
#   pass_telemetry_overhead  serve's windowed recording ≤1.10x bare decode
#   pass_bp_osd              flagged BP+OSD on the [[96,12]] color FPN:
#                            every correction syndrome-valid, no give-ups
# Every identical / weights_equal field must be true. The artifact goes to
# target/ (untracked), never over a committed file.
mkdir -p target
git_status() { git status --porcelain 2>/dev/null || true; }
status_before=$(git_status)
trace_file=target/obs_trace.jsonl
bench_out=$(cargo run --release --offline -p qec-bench -- \
    --shots 1000 --out target/bench.json --trace "$trace_file" | tee /dev/stderr)
grep -q '"pass_10x":true' <<<"$bench_out"
grep -q '"pass_2x":true' <<<"$bench_out"
grep -q '"pass_oracle":true' <<<"$bench_out"
grep -q '"pass_sparse_blossom":true' <<<"$bench_out"
grep -q '"weights_equal":true' <<<"$bench_out"
grep -q '"pass_obs_overhead":true' <<<"$bench_out"
grep -q '"pass_bp_osd":true' <<<"$bench_out"
grep -q '"pass_telemetry_overhead":true' <<<"$bench_out"
grep -q '"identical":true' <<<"$bench_out"
# Every gate must hold, including any added later: a record carrying
# any "pass_*":false fails CI outright (greps above pin the gates we
# know by name; this catches the ones we forgot to list). The same goes
# for every correctness field, not just the first one grep finds.
if grep -E '"pass_[a-z0-9_]+":false' <<<"$bench_out"; then
    echo "ci.sh: benchmark gate failed (pass_* flag is false)" >&2
    exit 1
fi
if grep -E '"(identical|weights_equal)":false' <<<"$bench_out"; then
    echo "ci.sh: benchmark correctness check failed" >&2
    exit 1
fi
# Records must carry the shared schema header.
if grep -vq '"bench_schema":' <<<"$bench_out"; then
    echo "ci.sh: bench record missing bench_schema header" >&2
    exit 1
fi
test -s target/bench.json

# The bench run's structured trace must be non-empty, well-formed
# JSON lines with balanced span enter/close nesting and a sane minimum
# event count (a short-but-valid trace means instrumentation silently
# fell off a hot path).
test -s "$trace_file"
cargo run --release --offline -p qec-obs --bin obs_validate -- \
    "$trace_file" --min-events 100

# Live telemetry plane smoke: a real DecodeService with the HTTP
# endpoint on loopback — scrape /metrics, /healthz and /snapshot over
# actual TCP and fail on malformed exposition, invalid health JSON or
# an unhealthy verdict (the zero-dep stand-in for curl in a deploy
# pipeline). Its trace must carry the service's per-request spans and
# validate.
serve_trace=target/serve_trace.jsonl
QEC_OBS=1 QEC_OBS_PATH="$serve_trace" \
    cargo run --release --offline -p qec-bench --bin telemetry_smoke
grep -q '"name":"serve.request"' "$serve_trace"
cargo run --release --offline -p qec-obs --bin obs_validate -- "$serve_trace"

# The trace/bench analyzer must roll the bench trace up (per-span-name
# table + critical path, and the flamegraph collapsed-stack form) and
# read the whole artifact trajectory without choking; regression flags
# are informational, parse failures are not.
cargo run --release --offline -p qec-obs --bin obs_report -- \
    --trace "$trace_file" > /dev/null
cargo run --release --offline -p qec-obs --bin obs_report -- \
    --trace "$trace_file" --collapse > /dev/null
cargo run --release --offline -p qec-obs --bin obs_report -- \
    --bench BENCH_*.json target/bench.json

# Nothing above may leave a new or modified file in the checkout.
if [[ "$(git_status)" != "$status_before" ]]; then
    echo "ci.sh: the bench run changed the checkout:" >&2
    git status --porcelain >&2
    exit 1
fi
