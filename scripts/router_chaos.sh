#!/usr/bin/env bash
# Sharded-router gate: the in-process router suite, the deterministic
# shard simulation, and a real kill -9 of one shard's primary behind a
# live `lintra route` process.
#
#   ./scripts/router_chaos.sh
#
# 1. runs tests/router.rs and a fixed-seed `lintra sim --shards` sweep
#    over both outage shapes, then
# 2. drives the degradation/failover story with real processes:
#    a. start shard group 0 as a primary+follower pair and shard group 1
#       as a standalone server, with a router in front; keyed sweeps
#       through the router must land on both groups (checked against the
#       groups' journals);
#    b. SIGKILL group 0's primary mid-sweep: group 1's settled keys must
#       keep answering byte-identically through the router the whole
#       time (graceful partial degradation), and `cluster-status` must
#       call shard 0 DOWN while shard 1 stays healthy;
#    c. the follower promotes itself; the router's prober re-aims at it
#       and `cluster-status` reports shard 0 healthy again with the
#       follower as the preferred endpoint (convergence);
#    d. every request id sent through the router — group 0's included,
#       the in-flight ones included — is eventually served, and group
#       0's settled keys come back byte-identical across the failover.

# Hard wall-clock cap: a wedged router must fail this gate, not hang it.
if [ -z "${LINTRA_TIMEOUT_WRAPPED:-}" ]; then
    LINTRA_TIMEOUT_WRAPPED=1 exec timeout --kill-after=10 900 "$0" "$@"
fi
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== router: in-process integration suite =="
cargo test --release -p lintra-serve --test router -q

echo "== router: building the CLI =="
cargo build --release -p lintra-cli

LINTRA=target/release/lintra

echo "== router: deterministic shard-sim sweep (both outage shapes) =="
timeout --kill-after=10 60 "$LINTRA" sim --shards 3 --scenario primary-crash \
    --requests 16 --seed 1 --swarm 8 | tail -n 1
timeout --kill-after=10 60 "$LINTRA" sim --shards 3 --scenario blackout --group 1 \
    --requests 16 --seed 1 --swarm 8 | tail -n 1

PDIR="$(mktemp -d)"
FDIR="$(mktemp -d)"
SDIR="$(mktemp -d)"
PLOG="$(mktemp)"
FLOG="$(mktemp)"
SLOG="$(mktemp)"
RLOG="$(mktemp)"
OUT="$(mktemp -d)"
P_PID=""
F_PID=""
S_PID=""
R_PID=""
cleanup() {
    for pid in "$P_PID" "$F_PID" "$S_PID" "$R_PID"; do
        [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$PDIR" "$FDIR" "$SDIR" "$PLOG" "$FLOG" "$SLOG" "$RLOG" "$OUT"
}
trap cleanup EXIT

wait_for() { # <log> <grep pattern> <description>
    for _ in $(seq 1 600); do
        grep -q "$2" "$1" && return 0
        sleep 0.1
    done
    echo "router_chaos: FAIL — timed out waiting for $3" >&2
    cat "$1" >&2
    exit 1
}

addr_of() {
    sed -n 's/^listening on //p' "$1" | head -n1
}

# Polls `cluster-status` until a line matches, so the gate observes the
# router's own health view converging instead of guessing at timing.
wait_for_status() { # <grep pattern> <description>
    for _ in $(seq 1 600); do
        if "$LINTRA" cluster-status --addr "$RADDR" 2>/dev/null | grep -q "$1"; then
            return 0
        fi
        sleep 0.1
    done
    echo "router_chaos: FAIL — timed out waiting for $2" >&2
    "$LINTRA" cluster-status --addr "$RADDR" >&2 || true
    exit 1
}

echo "== router: two shard groups (replicated pair + standalone) =="
"$LINTRA" serve --addr 127.0.0.1:0 --jobs 2 --journal-dir "$PDIR" >"$PLOG" &
P_PID=$!
wait_for "$PLOG" '^listening on ' "group 0 primary's address"
PADDR="$(addr_of "$PLOG")"

"$LINTRA" serve --addr 127.0.0.1:0 --jobs 2 --journal-dir "$FDIR" \
    --replica-of "$PADDR" --failover-grace-ms 1000 --heartbeat-ms 100 >"$FLOG" &
F_PID=$!
wait_for "$FLOG" '^listening on ' "group 0 follower's address"
FADDR="$(addr_of "$FLOG")"
wait_for "$FLOG" '^replicating from ' "group 0 follower's hello"

"$LINTRA" serve --addr 127.0.0.1:0 --jobs 2 --journal-dir "$SDIR" >"$SLOG" &
S_PID=$!
wait_for "$SLOG" '^listening on ' "group 1's address"
SADDR="$(addr_of "$SLOG")"
echo "group 0: $PADDR (primary) + $FADDR (follower); group 1: $SADDR (standalone)"

"$LINTRA" route --shards "$PADDR,$FADDR;$SADDR" --probe-ms 100 >"$RLOG" &
R_PID=$!
wait_for "$RLOG" '^listening on ' "the router's address"
RADDR="$(addr_of "$RLOG")"
echo "router on $RADDR (pid $R_PID)"

wait_for_status '^shard 0: healthy' "shard 0 to probe healthy"
wait_for_status '^shard 1: healthy' "shard 1 to probe healthy"
echo "both shards probed healthy"

echo "== router: keyed sweeps spread across both groups =="
for n in $(seq 0 15); do
    "$LINTRA" request sweep iir10 --max 40 --addr "$RADDR" \
        --request-id "rc-k$n" >"$OUT/rc-k$n"
    grep -q '"rows"' "$OUT/rc-k$n"
done
# The ring decided each key's group; the journals reveal the mapping.
KEYS0=""
KEYS1=""
for n in $(seq 0 15); do
    if grep -q "rc-k$n" "$PDIR"/journal* 2>/dev/null; then
        KEYS0="$KEYS0 rc-k$n"
    elif grep -q "rc-k$n" "$SDIR"/journal* 2>/dev/null; then
        KEYS1="$KEYS1 rc-k$n"
    else
        echo "router_chaos: FAIL — rc-k$n landed in neither group's journal" >&2
        exit 1
    fi
done
if [ -z "$KEYS0" ] || [ -z "$KEYS1" ]; then
    echo "router_chaos: FAIL — 16 keys never split across both groups" >&2
    echo "group 0:$KEYS0 / group 1:$KEYS1" >&2
    exit 1
fi
echo "group 0 keys:$KEYS0"
echo "group 1 keys:$KEYS1"

echo "== router: kill -9 group 0's primary mid-sweep =="
INFLIGHT_PIDS=""
for n in 0 1 2 3; do
    "$LINTRA" request sweep iir10 --max 600 --addr "$RADDR" \
        --request-id "rc-inflight-$n" --retries 4 >"$OUT/rc-inflight-$n" 2>&1 &
    INFLIGHT_PIDS="$INFLIGHT_PIDS $!"
done
sleep 0.4
kill -9 "$P_PID"
wait "$P_PID" 2>/dev/null || true
P_PID=""
echo "group 0 primary killed with 4 sweeps in flight"

# The router's own health view must notice the outage (the prober runs
# every 100 ms; the follower answers its probe as a non-serving role
# until the failover grace expires)...
wait_for_status '^shard 0: DOWN' "cluster-status to mark shard 0 DOWN"
# Capture once and grep the capture: piping cluster-status into `grep -q`
# under pipefail fails when grep exits at the match before the status
# command has written its last line.
STATUS=$("$LINTRA" cluster-status --addr "$RADDR") || true
grep -q '^shard 1: healthy' <<<"$STATUS" || {
    echo "router_chaos: FAIL — shard 1 lost health during shard 0's outage" >&2
    echo "$STATUS" >&2
    exit 1
}
echo "cluster-status: shard 0 DOWN, shard 1 healthy (blast radius contained)"

# Graceful partial degradation: while group 0 is headless, group 1's
# settled keys keep answering through the router, byte-identically.
for key in $KEYS1; do
    "$LINTRA" request sweep iir10 --max 40 --addr "$RADDR" \
        --request-id "$key" >"$OUT/$key.outage"
    cmp "$OUT/$key" "$OUT/$key.outage" || {
        echo "router_chaos: FAIL — $key changed bytes during group 0's outage" >&2
        exit 1
    }
done
echo "group 1 keys served byte-identically through the outage window"

# ...and converge once the follower promotes itself.
wait_for "$FLOG" '^promoted: epoch 2' "group 0 follower's promotion"
wait_for_status "^shard 0: healthy.*preferred=$FADDR" \
    "the prober to re-aim shard 0 at the promoted follower"
echo "router converged: shard 0 healthy again, preferred=$FADDR"

echo "== router: every key is served across the failover =="
for pid in $INFLIGHT_PIDS; do
    wait "$pid" || true # a shed attempt exits nonzero; the retry below settles it
done
for n in 0 1 2 3; do
    "$LINTRA" request sweep iir10 --max 600 --addr "$RADDR" \
        --request-id "rc-inflight-$n" >"$OUT/rc-inflight-$n.retry"
    grep -q '"rows"' "$OUT/rc-inflight-$n.retry" || {
        echo "router_chaos: FAIL — rc-inflight-$n never settled after failover" >&2
        exit 1
    }
done
for key in $KEYS0; do
    "$LINTRA" request sweep iir10 --max 40 --addr "$RADDR" \
        --request-id "$key" >"$OUT/$key.retry"
    cmp "$OUT/$key" "$OUT/$key.retry" || {
        echo "router_chaos: FAIL — $key not byte-identical across the failover" >&2
        diff "$OUT/$key" "$OUT/$key.retry" >&2 || true
        exit 1
    }
done
echo "in-flight keys settled; group 0's settled keys byte-identical across failover"

echo "== router: drain =="
kill -TERM "$R_PID"
wait "$R_PID" || {
    echo "router_chaos: FAIL — router did not exit 0 after SIGTERM" >&2
    cat "$RLOG" >&2
    exit 1
}
R_PID=""
grep -q '^routed: ' "$RLOG" || {
    echo "router_chaos: FAIL — router never printed its drain summary" >&2
    cat "$RLOG" >&2
    exit 1
}
echo "router drain: $(grep '^routed:' "$RLOG")"

kill -TERM "$F_PID" "$S_PID" 2>/dev/null || true
wait "$F_PID" 2>/dev/null || true
wait "$S_PID" 2>/dev/null || true
F_PID=""
S_PID=""

echo "router_chaos: all checks passed"
