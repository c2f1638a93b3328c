#!/usr/bin/env bash
# Tier-1 verification plus the lint gate. Run from the repository root.
#
#   ./scripts/verify.sh
#
# 1. release build + full test suite (the ROADMAP tier-1 bar),
# 2. clippy with warnings denied on every target (libraries, bins, tests,
#    examples) — including `unwrap_used`/`expect_used` in the pipeline
#    crates (see [workspace.lints] in Cargo.toml; clippy.toml lets tests
#    use them),
# 3. rustfmt drift check (the tree is formatted; keep it that way),
# 4. rustdoc with warnings denied (every intra-doc link resolves to a
#    public item).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== lint gate: cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== format gate: cargo fmt --check =="
cargo fmt --check

echo "== doc gate: cargo doc --workspace --no-deps --lib, warnings denied =="
# A link to a deleted or private item fails here. `--lib` because the
# CLI's `lintra` bin and the `lintra` library would otherwise collide in
# the doc output (cargo issue 6313).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib

echo "== engine: differential + golden-snapshot tests =="
cargo test --release -p lintra-engine -q
# Both saturate the whole e-graph suite; like the e-graph harness below,
# a hang there is a bug, so they run under the same hard cap.
timeout --kill-after=10 900 cargo test --release -p lintra-bench \
  --test parallel_equivalence --test golden_tables -q

echo "== egraph: property + differential harness (release, hard timeout) =="
# The saturation search is budgeted, never unbounded — a hang here is a
# bug, so the harness runs under a hard wall-clock cap.
timeout --kill-after=10 900 cargo test --release -p lintra-egraph -q
timeout --kill-after=10 900 cargo test --release -p lintra \
  --test egraph_properties --test egraph_differential -q

echo "== mcm: counting scorer vs reference loop on every suite group (release, hard timeout) =="
# Ignored in tier-1 for its run time; every MCM group of the suite at
# 3.3 V and 5.0 V must get the same plan from both scorers.
timeout --kill-after=10 600 cargo test --release -p lintra \
  --test mcm_differential -q -- --include-ignored

echo "== benchmark: lintra-benchmark smoke (all four workloads) =="
# The one performance harness. Its smoke test runs paper_suite,
# synth_egraph, serve_light and routed_replicated end to end, including
# the golden-table and never-worse-than-the-script checks. The harness
# builds from its own committed Cargo.lock; lock-file drift fails here.
cargo test --release --offline --manifest-path lintra-benchmark/Cargo.toml -q
git diff --exit-code -- lintra-benchmark

echo "== simulation: fixed-seed swarm smoke =="
# 64 deterministic seeds of the replicated-cluster simulation; every
# event is virtual time, so the batch finishes in seconds. A failure
# prints the seed + fault trace and exits 5 (CNV-SIM-INVARIANT).
timeout --kill-after=10 30 ./target/release/lintra sim --seed 1 --swarm 64 \
  | tail -n 1

echo "== simulation: sharded swarms + deep swarm of 3000 seeds (hard timeouts) =="
# Both simulations run the shipping replication core, so these swarms
# put the server's own decisions through crashes, blackouts and
# partitions. Each 64-seed batch takes about a second of wall clock. The
# deep swarm sweeps 500 cluster seeds, 500 2-shard primary-crash seeds
# and 2000 2-shard blackout seeds, 17–26 s in release on a 2-vCPU host.
timeout --kill-after=10 30 ./target/release/lintra sim --shards 2 \
  --scenario primary-crash --swarm 64 | tail -n 1
timeout --kill-after=10 30 ./target/release/lintra sim --shards 2 \
  --scenario blackout --swarm 64 | tail -n 1
timeout --kill-after=10 600 cargo test --release -p lintra-sim --test sim -q \
  -- --ignored

echo "== parsers: deep fuzz sweep of JSON, wire and journal parsing (release, hard timeout) =="
# Random bytes, damaged wire lines and journal records, and nesting far
# past json::MAX_DEPTH: Json::parse, WireRequest::parse and journal::scan
# must return every time. 16–24 s in release on a 2-vCPU host; a hang
# or a stack overflow fails here.
timeout --kill-after=10 120 cargo test --release -p lintra-serve \
  --test parser_fuzz -q -- --ignored

echo "== service: scripts/chaos.sh =="
./scripts/chaos.sh

echo "== durability: scripts/crash.sh =="
./scripts/crash.sh

echo "== replication: scripts/failover.sh =="
./scripts/failover.sh

echo "== sharding: scripts/router_chaos.sh =="
./scripts/router_chaos.sh

echo "verify: all checks passed"
