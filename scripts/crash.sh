#!/usr/bin/env bash
# Crash-recovery gate: the in-process durability suite plus a real
# kill -9 against a journaled server.
#
#   ./scripts/crash.sh
#
# 1. runs tests/crash_recovery.rs and tests/journal_properties.rs, then
# 2. drives the full crash story with real processes:
#    a. start `lintra serve --journal-dir`, put a keyed sweep in flight,
#       SIGKILL the server mid-sweep (no drain, no fsync beyond the
#       admit record);
#    b. restart on the same directory: the recovery report must show the
#       orphaned request replayed;
#    c. retry the same request_id: answered from the journal with zero
#       sweep recompute (dedup counter in the drain report);
#    d. corrupt a journal record in place, restart: the journal must be
#       quarantined (never a panic) and the server must still start.

# Hard wall-clock cap: a wedged server must fail this gate, not hang it.
if [ -z "${LINTRA_TIMEOUT_WRAPPED:-}" ]; then
    LINTRA_TIMEOUT_WRAPPED=1 exec timeout --kill-after=10 900 "$0" "$@"
fi
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== crash: in-process durability suites =="
cargo test --release -p lintra-serve --test crash_recovery -q
cargo test --release -p lintra-serve --test journal_properties -q

echo "== crash: building the CLI =="
cargo build --release -p lintra-cli

LINTRA=target/release/lintra
DIR="$(mktemp -d)"
LOG="$(mktemp)"
REQ_OUT="$(mktemp)"
SERVER_PID=""
cleanup() {
    rm -rf "$DIR" "$LOG" "$REQ_OUT"
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
}
trap cleanup EXIT

wait_for_addr() {
    ADDR=""
    for _ in $(seq 1 300); do
        ADDR="$(sed -n 's/^listening on //p' "$LOG" | head -n1)"
        [ -n "$ADDR" ] && break
        sleep 0.1
    done
    if [ -z "$ADDR" ]; then
        echo "crash: FAIL — server never reported its address" >&2
        cat "$LOG" >&2
        exit 1
    fi
}

echo "== crash: kill -9 mid-sweep =="
: >"$LOG"
"$LINTRA" serve --addr 127.0.0.1:0 --jobs 2 --journal-dir "$DIR" >"$LOG" &
SERVER_PID=$!
wait_for_addr
echo "server (life 1) on $ADDR (pid $SERVER_PID)"

# A keyed sweep big enough to still be running when the SIGKILL lands.
"$LINTRA" request sweep iir10 --max 1200 --addr "$ADDR" \
    --request-id crash-job-1 --retries 1 >"$REQ_OUT" 2>&1 &
REQ_PID=$!
sleep 0.4
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
wait "$REQ_PID" 2>/dev/null || true
SERVER_PID=""
echo "killed -9 mid-sweep; journal left behind:"
# Capture once and grep the capture: piping `recover` into `grep -q`
# under pipefail fails when grep exits at the match before recover has
# finished writing.
RECOVERED=$("$LINTRA" recover "$DIR")
sed 's/^/  /' <<<"$RECOVERED"
grep -q 'incomplete: crash-job-1' <<<"$RECOVERED" || {
    echo "crash: FAIL — the admitted request is not in the journal" >&2
    exit 1
}

echo "== crash: restart replays the orphaned request =="
: >"$LOG"
"$LINTRA" serve --addr 127.0.0.1:0 --jobs 2 --journal-dir "$DIR" >"$LOG" &
SERVER_PID=$!
wait_for_addr
echo "server (life 2) on $ADDR (pid $SERVER_PID)"
grep -q '^recovered: .* 1 replayed' "$LOG" || {
    echo "crash: FAIL — restart did not replay the orphaned request" >&2
    cat "$LOG" >&2
    exit 1
}
echo "recovery report: $(grep '^recovered:' "$LOG")"

# The retry must be served from the journal: same request_id, full
# payload back, and the drain report must count 1 dedup.
"$LINTRA" request sweep iir10 --max 1200 --addr "$ADDR" \
    --request-id crash-job-1 --retries 1 >"$REQ_OUT"
grep -q '"rows"' "$REQ_OUT" || {
    echo "crash: FAIL — retried request came back without its payload" >&2
    cat "$REQ_OUT" >&2
    exit 1
}
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || {
    echo "crash: FAIL — server did not exit 0 after SIGTERM" >&2
    cat "$LOG" >&2
    exit 1
}
SERVER_PID=""
grep -q '^drained: .* 1 deduped' "$LOG" || {
    echo "crash: FAIL — retry was recomputed instead of journal-served" >&2
    cat "$LOG" >&2
    exit 1
}
echo "retry served from the journal: $(grep '^drained:' "$LOG")"

echo "== crash: corrupt journal is quarantined, server still starts =="
# Damage one byte inside the last record's payload (in-place damage,
# not a torn tail): journal payloads are ASCII JSON, so 0xFF is always
# a change the CRC catches.
SIZE=$(wc -c <"$DIR/journal.log")
printf '\xff' | dd of="$DIR/journal.log" bs=1 seek=$((SIZE - 4)) conv=notrunc 2>/dev/null
: >"$LOG"
"$LINTRA" serve --addr 127.0.0.1:0 --jobs 2 --journal-dir "$DIR" >"$LOG" &
SERVER_PID=$!
wait_for_addr
echo "server (life 3) on $ADDR (pid $SERVER_PID)"
grep -q '^recovered: .* journal_quarantined=true' "$LOG" || {
    echo "crash: FAIL — corrupt journal was not quarantined" >&2
    cat "$LOG" >&2
    exit 1
}
ls "$DIR"/journal.log.quarantined-* >/dev/null 2>&1 || {
    echo "crash: FAIL — no quarantine file on disk" >&2
    ls -la "$DIR" >&2
    exit 1
}
# The server must still serve real work after quarantining.
"$LINTRA" request ping --addr "$ADDR" | grep -q '"pong"'
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || true
SERVER_PID=""
echo "corrupt journal quarantined; server served fine"

echo "crash: all checks passed"
