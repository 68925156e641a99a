#!/usr/bin/env bash
# dist_e2e.sh — end-to-end chaos test of accudist distributed execution.
#
# The contract under test is the coordinator's headline guarantee: the
# distributed result is bit-identical to a local uninterrupted
# `accurun -digest -out` of the same protocol, even when a worker is
# SIGKILLed mid-range and its lease has to expire and reassign, and even
# when the coordinator itself is SIGKILLed and restarted with -resume.
#
#   1. compute the reference digest and result JSON with
#      `accurun -digest -out -checkpoint` (no dist), journaling its cells
#   2. write the same parameters as a grid spec and start the coordinator
#      on it with small ranges and a short lease TTL
#   3. start two workers: wa throttled (the doomed straggler), wb free
#   4. kill -9 wa while it holds a lease with unfinished cells
#   5. wb inherits the expired lease; the grid completes
#   6. assert dist.ranges_reassigned >= 1 and digest == reference
#   7. assert the distributed per-policy results — Welford snapshots and
#      quantile sketches alike — are BYTE-identical to the local run's
#      (jq -S), independent of upload order and partition
#   8. on a fresh directory, SIGKILL the coordinator mid-grid, restart it
#      with -resume, finish the grid with a new worker, and assert 6–7's
#      digest and result equality again
#   9. on a fresh directory, post step 1's journal file whole as one cell
#      upload with curl (a journal is an upload body): every cell must be
#      accepted, and 6–7's digest and result equality must hold again
#
# Requires: curl, jq. Runs from anywhere inside the repo.
set -euo pipefail

cd "$(git rev-parse --show-toplevel 2>/dev/null || dirname "$0")/"

# Protocol parameters: the accurun reference flags and the coordinator's
# spec.json are both written from these.
PRESET=slashdot
SCALE=0.02
CAUTIOUS=10
POLICY=abm
K=20
SEED=11
RUNS=60            # 60 cells; ranges of 5 leave room for a mid-range kill
RANGE=5
LEASE=2s
KILL_AFTER_CELLS=5 # durable cells required before the kill

ADDR=127.0.0.1:8471
BASE="http://$ADDR"
WORK=$(mktemp -d)
COORD_PID=
WA_PID=
WB_PID=
WC_PID=

cleanup() {
    for pid in "$COORD_PID" "$WA_PID" "$WB_PID" "$WC_PID"; do
        [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

log() { echo "dist_e2e: $*"; }
fail() {
    log "FAIL: $*"
    [ -f "$WORK/coord.log" ] && tail -40 "$WORK/coord.log" >&2
    exit 1
}

log "building binaries"
go build -o "$WORK/accudist" ./cmd/accudist
go build -o "$WORK/accurun" ./cmd/accurun

log "computing reference digest and result with accurun (uninterrupted local run)"
"$WORK/accurun" -preset "$PRESET" -scale "$SCALE" -cautious "$CAUTIOUS" \
    -policy "$POLICY" -k "$K" -seed "$SEED" -runs "$RUNS" -digest \
    -out "$WORK/local.json" -checkpoint "$WORK/local.jsonl" \
    >"$WORK/reference.txt"
REF_DIGEST=$(awk '/^digest:/ {print $2}' "$WORK/reference.txt")
[ -n "$REF_DIGEST" ] || fail "no digest in accurun output"
[ -f "$WORK/local.json" ] || fail "accurun wrote no -out file"
log "reference digest: $REF_DIGEST"

cat >"$WORK/spec.json" <<JSON
{"preset": "$PRESET", "scale": $SCALE, "cautious": $CAUTIOUS,
 "policies": [{"name": "$POLICY"}],
 "networks": 1, "runs": $RUNS, "k": $K, "seed": $SEED}
JSON

start_coordinator() { # start_coordinator <dir> <out> [extra flags...]
    local dir=$1 out=$2
    shift 2
    "$WORK/accudist" -coordinator -addr "$ADDR" -spec "$WORK/spec.json" -dir "$dir" \
        -range "$RANGE" -lease "$LEASE" -out "$out" "$@" \
        >>"$WORK/coord.log" 2>&1 &
    COORD_PID=$!
    for _ in $(seq 1 100); do
        curl -sf "$BASE/healthz" >/dev/null 2>&1 && return 0
        kill -0 "$COORD_PID" 2>/dev/null || fail "coordinator exited during startup"
        sleep 0.1
    done
    fail "coordinator did not become healthy"
}

wait_coordinator() { # wait for the coordinator to finish and exit 0
    local ok=0 rc
    for _ in $(seq 1 1200); do
        if ! kill -0 "$COORD_PID" 2>/dev/null; then
            ok=1
            break
        fi
        sleep 0.1
    done
    [ "$ok" = 1 ] || fail "coordinator did not exit within 120s"
    wait "$COORD_PID" 2>/dev/null && rc=0 || rc=$?
    COORD_PID=
    [ "$rc" = 0 ] || fail "coordinator exited with code $rc"
}

check_result() { # check_result <out.json>: digest, records and policies match the local run
    local out=$1
    [ -f "$out" ] || fail "coordinator wrote no -out file"
    local digest records
    digest=$(jq -r '.result.digest' "$out")
    records=$(jq -r '.result.records' "$out")
    [ "$records" = "$RUNS" ] || fail "records=$records, want $RUNS"
    [ "$digest" = "$REF_DIGEST" ] || fail "digest mismatch: dist $digest != reference $REF_DIGEST — distributed result is not bit-identical"
    # Every per-policy field, the Welford snapshots as well as the
    # quantile sketches, is canonically serialized and compared.
    local local_pol dist_pol
    local_pol=$(jq -cS '.policies' "$WORK/local.json")
    dist_pol=$(jq -cS '.result.policies' "$out")
    [ "$dist_pol" = "$local_pol" ] || fail "distributed policies differ from local:
  dist:  $dist_pol
  local: $local_pol"
    log "digest $digest and policies byte-identical to the local run (mean $(echo "$local_pol" | jq -r '.[0].finalBenefit.mean'))"
}

log "starting coordinator (range=$RANGE lease=$LEASE)"
start_coordinator "$WORK/data" "$WORK/out.json"

log "starting workers: wa (throttled straggler) and wb"
"$WORK/accudist" -worker -join "$BASE" -id wa -throttle 150ms -poll 100ms \
    >>"$WORK/wa.log" 2>&1 &
WA_PID=$!
"$WORK/accudist" -worker -join "$BASE" -id wb -poll 100ms \
    >>"$WORK/wb.log" 2>&1 &
WB_PID=$!

log "waiting for $KILL_AFTER_CELLS durable cells and a mid-range wa lease, then SIGKILL wa"
KILLED=0
for _ in $(seq 1 600); do
    STATUS=$(curl -sf "$BASE/api/v1/dist/status" || echo '{}')
    COMMITTED=$(echo "$STATUS" | jq -r '.committed // 0')
    DONE=$(echo "$STATUS" | jq -r '.done // false')
    [ "$DONE" = true ] && break # grid outran the poll loop
    WA_MIDRANGE=$(echo "$STATUS" | jq -r '[.ranges[] | select(.worker == "wa" and .remaining > 0)] | length')
    if [ "$COMMITTED" -ge "$KILL_AFTER_CELLS" ] && [ "${WA_MIDRANGE:-0}" -ge 1 ]; then
        kill -9 "$WA_PID"
        wait "$WA_PID" 2>/dev/null || true
        WA_PID=
        KILLED=1
        log "killed wa after $COMMITTED/$RUNS cells, mid-range"
        break
    fi
    sleep 0.05
done
[ "$KILLED" = 1 ] || fail "never caught wa mid-range with >= $KILL_AFTER_CELLS cells durable; grid too small for the kill window"

log "waiting for the coordinator to finish (wb inherits wa's expired lease)"
wait_coordinator

REASSIGNED=$(jq -r '[.metrics.counters[]? | select(.name == "dist.ranges_reassigned") | .value] | add // 0' "$WORK/out.json")
log "$REASSIGNED range(s) reassigned"
[ "$REASSIGNED" -ge 1 ] || fail "dist.ranges_reassigned=$REASSIGNED; the killed worker's lease was never reassigned"
check_result "$WORK/out.json"

# wb should observe done=true on its next poll and exit 0 on its own.
wait "$WB_PID" 2>/dev/null && WB_RC=0 || WB_RC=$?
WB_PID=
[ "$WB_RC" = 0 ] || log "note: wb exited $WB_RC (coordinator shut down between polls); not fatal"

log "coordinator kill: fresh grid, throttled worker wc, SIGKILL the coordinator after $KILL_AFTER_CELLS durable cells"
start_coordinator "$WORK/data2" "$WORK/out2.json"
"$WORK/accudist" -worker -join "$BASE" -id wc -throttle 50ms -poll 100ms \
    >>"$WORK/wc.log" 2>&1 &
WC_PID=$!
KILLED=0
for _ in $(seq 1 600); do
    STATUS=$(curl -sf "$BASE/api/v1/dist/status" || echo '{}')
    COMMITTED=$(echo "$STATUS" | jq -r '.committed // 0')
    [ "$(echo "$STATUS" | jq -r '.done // false')" = true ] && break
    if [ "$COMMITTED" -ge "$KILL_AFTER_CELLS" ]; then
        kill -9 "$COORD_PID" "$WC_PID"
        wait "$COORD_PID" "$WC_PID" 2>/dev/null || true
        COORD_PID=
        WC_PID=
        KILLED=1
        log "killed the coordinator (and wc) after $COMMITTED/$RUNS cells"
        break
    fi
    sleep 0.05
done
[ "$KILLED" = 1 ] || fail "never caught the coordinator mid-grid with >= $KILL_AFTER_CELLS cells durable"

log "restarting the coordinator with -resume; worker wd finishes the grid"
start_coordinator "$WORK/data2" "$WORK/out2.json" -resume
grep -q "resuming [1-9][0-9]* completed cell" "$WORK/coord.log" || fail "restarted coordinator did not resume from its journal"
"$WORK/accudist" -worker -join "$BASE" -id wd -poll 100ms >>"$WORK/wd.log" 2>&1 &
WC_PID=$!
wait_coordinator
check_result "$WORK/out2.json"
wait "$WC_PID" 2>/dev/null || true
WC_PID=

log "journal upload: fresh grid, post the local run's journal file as one upload body"
start_coordinator "$WORK/data3" "$WORK/out3.json"
UPLOAD=$(curl -sf -H 'Content-Type: application/jsonl' --data-binary @"$WORK/local.jsonl" \
    "$BASE/api/v1/dist/cells?worker=journal") || fail "posting the local journal failed"
ACCEPTED=$(echo "$UPLOAD" | jq -r '.accepted')
[ "$ACCEPTED" = "$RUNS" ] || fail "journal upload accepted $ACCEPTED cells, want $RUNS: $UPLOAD"
wait_coordinator
check_result "$WORK/out3.json"

log "PASS: distributed results with a SIGKILLed worker and a SIGKILLed coordinator, and a local journal posted as one upload, are bit-identical to the uninterrupted local run"
