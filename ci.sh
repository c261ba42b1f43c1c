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

# Runs the tests of the cargo target that all but the last argument
# select (`--test <name>`, or `-p <crate> --lib`) whose names match the
# filter in the last argument, and fails unless at least one ran:
# `cargo test <filter>` exits 0 when nothing matches, so a renamed test
# would otherwise turn its named step below into a silent no-op.
named_test() {
    local filter=${*: -1}
    local target=("${@:1:$#-1}")
    local out
    out=$(cargo test -q --offline "${target[@]}" "$filter" 2>&1) || { echo "$out"; exit 1; }
    echo "$out"
    if ! grep -Eq '^test result: ok\. [1-9][0-9]* passed' <<<"$out"; then
        echo "ci.sh: no test in ${target[*]} matches '$filter'" >&2
        exit 1
    fi
}

# Differential path-tier tests: every pair complete_graph_match prices
# on the SparsePathFinder's CSR graph must match the dense PathOracle
# and on-demand Dijkstra (the reference search) bitwise, distances and
# hops, and both path tiers must decode identically on every fixture
# DEM (including the hyperbolic one above the dense-oracle guard).
named_test --test properties sparse_finder_matches_oracle_and_dijkstra_on_random_graphs
named_test --test properties path_tiers_agree
# Differential matching-route test: shots matched on the CSR graph
# (sparse_graph_match's certified grown route, at every defect count)
# must decode exactly like the dense oracle's complete instances, every
# decoded shot must advance exactly one tier counter (each decoder's
# counts pinned), and the CSR matching pools must not regrow once warm.
named_test --test properties matching_routes_agree
named_test --test properties tier_counters_count_each_decoded_shot_once
named_test --test properties csr_match_pools_are_stable_after_warmup
# On every 1-4-defect set of the d3 surface graph and a toric color
# lattice the grown route reaches the oracle route's weight and hops,
# and complete_graph_match's weight and pairs under seeded flag-shaped
# reweighting; the grown route's widening and escalation fallbacks are
# forced on small graphs and counted; and when every certification
# ball covers the graph, each pair is flagged once, so the pools stay
# O(n·s + s²).
named_test -p qec-decode --lib grown_route_matches_the_oracle_and_complete_pricing_on_small_shots
named_test -p qec-decode --lib sparse_fallbacks_are_counted
named_test -p qec-decode --lib covering_balls_keep_certification_memory_bounded
# Complete instances of at most four defects are decided by trying
# every defect-level perfect matching: a unique minimum must carry the
# pooled blossom's weight, pairs and hops on both routes (d3/d5 surface
# DEMs and the toric-color restricted lattices), a tie must fall back to
# the blossom, and a give-up must happen exactly when the blossom's does.
named_test -p qec-decode --lib enumeration_matches_the_pooled_blossom_on_surface_dems
named_test -p qec-decode --lib enumeration_matches_the_pooled_blossom_on_restricted_lattices
named_test -p qec-decode --lib enumeration_ties_fall_back_to_the_pooled_blossom
named_test -p qec-decode --lib enumeration_gives_up_exactly_when_the_pooled_blossom_does
# Certification's overlap scan finds each CSR neighbour's ledger run
# through a stamped run start; it must flag exactly the pairs of the
# binary-search reference, on the wheel and on random ledgers.
named_test -p qec-decode --lib flag_overlaps_matches_the_binary_search_reference
# Bounded searches: pricing capped by growth estimates must leave every
# priced pair's distance and hops bitwise as with the bounds lifted;
# bounds made too tight must only cost time (misses counted, complete
# weight reached); and balls that never push past their radius must
# leave a full Dijkstra's ledger, radii on a vertex's distance included.
named_test -p qec-decode --lib bounded_pricing_matches_unbounded
named_test -p qec-decode --lib too_tight_bounds_only_cost_time
named_test -p qec-decode --lib ball_ledger_matches_unpruned_reference
# Differential flag-pricing property: the flat class table and its
# dense per-shot override slots choose every class's (member, weight)
# bitwise like EquivClass::representative on the shared-flag surface
# and color FPN DEMs, across flagged, unflagged and disjoint-flag shots
# through one scratch.
named_test -p qec-decode --lib flat_pricing_matches_the_class_representative
# Flagged Union-Find against its allocating reference on the
# shared-flag surface DEM, bitwise on every single mechanism and on
# random syndromes; flag conditioning must change some correction.
named_test --test properties flagged_union_find_matches_reference_on_shared_flag_surface
# Classes are keyed by σ: on every testkit fixture DEM each σ strictly
# ascends and no two classes share one, so a graphlike class is one
# Union-Find edge.
named_test -p qec-decode --lib classes_have_unique_ascending_sigmas_on_every_fixture
# The Restriction trace lists its events in ascending order: repeated
# calls and separately built decoders give the same event sequence.
named_test -p qec-decode --lib trace_events_are_deterministic
# Differential DEM-builder property: the streaming
# DetectorErrorModel::from_circuit must equal qec-testkit's
# collect-then-merge reference (same mechanisms, same order,
# probabilities equal by to_bits) on seeded random circuits over every
# Op variant.
named_test --test properties dem_builder_matches_reference_on_random_circuits

# The paper's d_eff witnesses (Figs. 19/20) by single-fault injection:
# on the shared-flag FPNs flagged MWPM and flagged BP+OSD mis-correct no
# single fault and flagged Restriction at most two, while the unflagged
# and Chamberland baselines mis-correct many.
named_test --test pipeline flag_protocol_restores_effective_distance_surface
named_test --test pipeline flag_protocol_restores_effective_distance_color
# Golden for flagged MWPM corrections on the shared-flag [[180,20]]
# {4,5} FPN, the headline workload's decoder.
named_test --test pipeline flagged_mwpm_golden_hyperbolic_surface

# Differential streaming-service tests: qec-serve corrections must be
# bit-identical to offline decode_into and reproduce run_ber's failure
# counts on the d=5 surface and hyperbolic fixtures across 1/2/4
# shards, and the bounded queue must reject (WouldBlock) rather than
# grow under backpressure.
cargo test -q --offline --test serve
# A poisoned queue lock is recovered: submitters, the shard and Drop
# keep working instead of panicking.
named_test -p qec-serve --lib poisoned_queue_lock_keeps_serving_and_drops_cleanly

# Differential blossom fuzzing at the full release budget: 5k random
# matching instances (plus a second 2.5k stream) through the pooled
# incremental solver vs. the reference exact solver, with dual
# certificates checked after every solve and shrunk reproducers on
# failure (see crates/testkit/tests/blossom_fuzz.rs).
QEC_BLOSSOM_FUZZ_CASES=5000 cargo test -q --release --offline \
    -p qec-testkit --test blossom_fuzz

# Differential sparse-blossom fuzzing at the full release budget: 5k
# random CSR decoding graphs (path-derived, boundary-heavy,
# degenerate-tie and hop-dominated shapes, the last like flagged
# hyperbolic shots, plus a second 2.5k stream) through the
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
#   pass_10x                 batched frame sampler ≥10x qec-testkit's
#                            per-shot reference sampler
#   pass_2x                  Union-Find decode_into ≥2x qec-testkit's
#                            allocating reference decoder
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
# The records are echoed through the already-open stderr descriptor:
# `tee /dev/stderr` would reopen it and truncate a redirected log.
bench_out=$(cargo run --release --offline -p qec-bench -- \
    --shots 1000 --out target/bench.json --trace "$trace_file" | tee >(cat >&2))
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
