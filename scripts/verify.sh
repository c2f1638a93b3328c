#!/usr/bin/env bash
# Tier-1 verification plus the lint gate. Run from the repository root.
#
#   ./scripts/verify.sh
#
# 1. release build + full test suite (the ROADMAP tier-1 bar),
# 2. clippy with warnings denied — including `unwrap_used`/`expect_used`
#    in the pipeline crates (see [workspace.lints] in Cargo.toml),
# 3. rustfmt drift check (the tree is formatted; keep it that way).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== lint gate: cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace -- -D warnings

echo "== format gate: cargo fmt --check =="
cargo fmt --check

echo "== engine: differential + golden-snapshot tests =="
cargo test --release -p lintra-engine -q
cargo test --release -p lintra-bench --test parallel_equivalence --test golden_tables -q

echo "== egraph: property + differential harness (release, hard timeout) =="
# The saturation search is budgeted, never unbounded — a hang here is a
# bug, so the harness runs under a hard wall-clock cap.
timeout --kill-after=10 900 cargo test --release -p lintra-egraph -q
timeout --kill-after=10 900 cargo test --release -p lintra \
  --test egraph_properties --test egraph_differential -q

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

echo "== service: scripts/chaos.sh =="
./scripts/chaos.sh

echo "== durability: scripts/crash.sh =="
./scripts/crash.sh

echo "== replication: scripts/failover.sh =="
./scripts/failover.sh

echo "== sharding: scripts/router_chaos.sh =="
./scripts/router_chaos.sh

echo "verify: all checks passed"
