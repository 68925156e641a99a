#!/usr/bin/env bash
# dist_e2e.sh — end-to-end chaos test of accudist distributed execution.
#
# The contract under test is the coordinator's headline guarantee: the
# distributed result digest is bit-identical to a local uninterrupted
# `accurun -digest` of the same protocol, even when a worker is
# SIGKILLed mid-range and its lease has to expire and reassign.
#
#   1. compute the reference digest and result JSON with
#      `accurun -digest -out` (no dist)
#   2. write the same parameters as a grid spec and start the coordinator
#      on it with small ranges and a short lease TTL
#   3. start two workers: wa throttled (the doomed straggler), wb free
#   4. kill -9 wa while it holds a lease with unfinished cells
#   5. wb inherits the expired lease; the grid completes
#   6. assert dist.ranges_reassigned >= 1 and digest == reference
#   7. assert the distributed per-policy quantile-sketch snapshots are
#      BYTE-identical to the local run's (the sketch's canonical-merge
#      guarantee, independent of upload order and partition)
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

cleanup() {
    for pid in "$COORD_PID" "$WA_PID" "$WB_PID"; do
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
    -out "$WORK/local.json" \
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

log "starting coordinator (range=$RANGE lease=$LEASE)"
"$WORK/accudist" -coordinator -addr "$ADDR" -spec "$WORK/spec.json" -dir "$WORK/data" \
    -range "$RANGE" -lease "$LEASE" -out "$WORK/out.json" \
    >>"$WORK/coord.log" 2>&1 &
COORD_PID=$!
for _ in $(seq 1 100); do
    curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
    kill -0 "$COORD_PID" 2>/dev/null || fail "coordinator exited during startup"
    sleep 0.1
done
curl -sf "$BASE/healthz" >/dev/null || fail "coordinator did not become healthy"

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
WAIT_OK=0
for _ in $(seq 1 1200); do
    if ! kill -0 "$COORD_PID" 2>/dev/null; then
        WAIT_OK=1
        break
    fi
    sleep 0.1
done
[ "$WAIT_OK" = 1 ] || fail "coordinator did not exit within 120s of the kill"
wait "$COORD_PID" 2>/dev/null && RC=0 || RC=$?
COORD_PID=
[ "$RC" = 0 ] || fail "coordinator exited with code $RC"
[ -f "$WORK/out.json" ] || fail "coordinator wrote no -out file"

REASSIGNED=$(jq -r '[.metrics.counters[]? | select(.name == "dist.ranges_reassigned") | .value] | add // 0' "$WORK/out.json")
DIST_DIGEST=$(jq -r '.result.digest' "$WORK/out.json")
RECORDS=$(jq -r '.result.records' "$WORK/out.json")
log "dist digest:      $DIST_DIGEST ($RECORDS records, $REASSIGNED range(s) reassigned)"

[ "$REASSIGNED" -ge 1 ] || fail "dist.ranges_reassigned=$REASSIGNED; the killed worker's lease was never reassigned"
[ "$RECORDS" = "$RUNS" ] || fail "records=$RECORDS, want $RUNS"
[ "$DIST_DIGEST" = "$REF_DIGEST" ] || fail "digest mismatch: dist $DIST_DIGEST != reference $REF_DIGEST — distributed result is not bit-identical"

# The quantile sketches must survive the kill/reassign chaos byte for
# byte: for every policy, the distributed finalBenefitSketch snapshot is
# canonically serialized and compared against the local run's.
for policy in $(jq -r '.policies[].policy' "$WORK/local.json"); do
    LOCAL_SK=$(jq -cS ".policies[] | select(.policy == \"$policy\") | .finalBenefitSketch" "$WORK/local.json")
    DIST_SK=$(jq -cS ".result.policies[] | select(.policy == \"$policy\") | .finalBenefitSketch" "$WORK/out.json")
    [ -n "$LOCAL_SK" ] || fail "no local finalBenefitSketch for policy $policy"
    [ "$DIST_SK" = "$LOCAL_SK" ] || fail "policy $policy: distributed quantile sketch differs from local:
  dist:  $DIST_SK
  local: $LOCAL_SK"
    log "policy $policy: quantile sketch byte-identical (p50/p90/p99 $(echo "$LOCAL_SK" | jq -r '"\(.p50)/\(.p90)/\(.p99)"'))"
done

# wb should observe done=true on its next poll and exit 0 on its own.
wait "$WB_PID" 2>/dev/null && WB_RC=0 || WB_RC=$?
WB_PID=
[ "$WB_RC" = 0 ] || log "note: wb exited $WB_RC (coordinator shut down between polls); not fatal"

log "PASS: distributed result with a SIGKILLed worker is bit-identical to the uninterrupted local run"
