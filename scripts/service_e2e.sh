#!/usr/bin/env bash
# service_e2e.sh — end-to-end crash/resume test of the accuserv job service.
#
# The contract under test is the service's headline guarantee: a job's
# result is bit-identical to a local uninterrupted run of the same
# protocol, even when the serving process is SIGKILLed mid-grid and a new
# process resumes the job from its checkpoint journal.
#
#   1. compute the reference digest and result with `accurun -digest -out`
#      (no service)
#   2. start accuserv, submit the same protocol as a job over HTTP
#   3. poll the job's progress until a few cells are durable
#   4. kill -9 the server mid-grid
#   5. restart it on the same data dir; the job resumes automatically
#   6. assert the finished job's digest equals the reference digest and
#      its per-policy results (Welford snapshots and sketches) are
#      byte-identical to the reference's (jq -S)
#   7. drain the server with SIGTERM and require a clean exit
#
# Requires: curl, jq. Runs from anywhere inside the repo.
set -euo pipefail

cd "$(git rev-parse --show-toplevel 2>/dev/null || dirname "$0")/"

# Protocol parameters — must stay in lockstep between the accurun
# reference invocation and the submitted job spec.
PRESET=slashdot
SCALE=0.02
CAUTIOUS=10
POLICY=abm
K=30
SEED=7
RUNS=150           # wide enough that the kill lands mid-grid
KILL_AFTER_CELLS=5 # durable cells required before the kill

ADDR=127.0.0.1:8470
BASE="http://$ADDR"
WORK=$(mktemp -d)
DATA="$WORK/data"
JOB=e2e_resume
SERVER_PID=

cleanup() {
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

log() { echo "service_e2e: $*"; }
fail() {
    log "FAIL: $*"
    exit 1
}

log "building binaries"
go build -o "$WORK/accuserv" ./cmd/accuserv
go build -o "$WORK/accurun" ./cmd/accurun

log "computing reference digest and result with accurun (uninterrupted local run)"
"$WORK/accurun" -preset "$PRESET" -scale "$SCALE" -cautious "$CAUTIOUS" \
    -policy "$POLICY" -k "$K" -seed "$SEED" -runs "$RUNS" -digest \
    -out "$WORK/local.json" \
    >"$WORK/reference.txt"
REF_DIGEST=$(awk '/^digest:/ {print $2}' "$WORK/reference.txt")
[ -n "$REF_DIGEST" ] || fail "no digest in accurun output"
log "reference digest: $REF_DIGEST"

start_server() {
    "$WORK/accuserv" -addr "$ADDR" -data "$DATA" -drain-timeout 60s \
        >>"$WORK/server.log" 2>&1 &
    SERVER_PID=$!
    for _ in $(seq 1 100); do
        if curl -sf "$BASE/healthz" >/dev/null 2>&1; then
            return 0
        fi
        kill -0 "$SERVER_PID" 2>/dev/null || {
            cat "$WORK/server.log" >&2
            fail "server exited during startup"
        }
        sleep 0.1
    done
    fail "server did not become healthy"
}

job_field() { # job_field <jq-expr>
    curl -sf "$BASE/api/v1/jobs/$JOB" | jq -r "$1"
}

log "starting accuserv (pid will be SIGKILLed mid-grid)"
start_server

log "submitting job over HTTP"
SUBMIT_STATUS=$(curl -s -o "$WORK/submit.json" -w '%{http_code}' \
    -X POST "$BASE/api/v1/jobs" -H 'Content-Type: application/json' -d @- <<EOF
{
  "id": "$JOB",
  "spec": {
    "preset": "$PRESET",
    "scale": $SCALE,
    "cautious": $CAUTIOUS,
    "policies": [{"name": "$POLICY"}],
    "networks": 1,
    "runs": $RUNS,
    "k": $K,
    "seed": $SEED
  }
}
EOF
)
[ "$SUBMIT_STATUS" = 201 ] || {
    cat "$WORK/submit.json" >&2
    fail "submit returned HTTP $SUBMIT_STATUS"
}

log "waiting for $KILL_AFTER_CELLS durable cells, then SIGKILL"
KILLED=0
for _ in $(seq 1 600); do
    STATE=$(job_field .state)
    DONE=$(job_field .progress.done)
    if [ "$STATE" = done ]; then
        break # grid outran the poll loop; fall through to the check below
    fi
    if [ "${DONE:-0}" -ge "$KILL_AFTER_CELLS" ]; then
        kill -9 "$SERVER_PID"
        wait "$SERVER_PID" 2>/dev/null || true
        SERVER_PID=
        KILLED=1
        log "killed server after $DONE/$RUNS cells"
        break
    fi
    sleep 0.05
done
[ "$KILLED" = 1 ] || fail "never reached $KILL_AFTER_CELLS cells before completion (state $STATE); grid too small for the kill window"
[ "${DONE:-0}" -gt 0 ] || fail "polled progress.done was $DONE before the kill; progress never advanced"

log "restarting server on the same data dir"
start_server

log "waiting for the recovered job to finish"
for _ in $(seq 1 1200); do
    STATE=$(job_field .state)
    case "$STATE" in
    done) break ;;
    failed | cancelled) fail "recovered job ended $STATE: $(job_field .error)" ;;
    esac
    sleep 0.1
done
[ "$STATE" = done ] || fail "recovered job stuck in state $STATE"

RESUMED=$(job_field .progress.resumed)
[ "${RESUMED:-0}" -gt 0 ] || fail "job finished with progress.resumed=$RESUMED; it did not resume from the checkpoint"

curl -sf "$BASE/api/v1/jobs/$JOB/result" >"$WORK/job.json"
JOB_DIGEST=$(jq -r .digest "$WORK/job.json")
RECORDS=$(jq -r .records "$WORK/job.json")
log "job digest:       $JOB_DIGEST ($RECORDS records, $RESUMED resumed)"
[ "$RECORDS" = "$RUNS" ] || fail "records=$RECORDS, want $RUNS"
[ "$JOB_DIGEST" = "$REF_DIGEST" ] || fail "digest mismatch: job $JOB_DIGEST != reference $REF_DIGEST — resumed result is not bit-identical"
LOCAL_POL=$(jq -cS .policies "$WORK/local.json")
JOB_POL=$(jq -cS .policies "$WORK/job.json")
[ "$JOB_POL" = "$LOCAL_POL" ] || fail "job policies differ from the local run:
  job:   $JOB_POL
  local: $LOCAL_POL"
log "job policies byte-identical to the local run (mean $(echo "$LOCAL_POL" | jq -r '.[0].finalBenefit.mean'))"

log "graceful drain via SIGTERM"
kill -TERM "$SERVER_PID"
DRAIN_OK=0
for _ in $(seq 1 600); do
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        DRAIN_OK=1
        break
    fi
    sleep 0.1
done
[ "$DRAIN_OK" = 1 ] || fail "server did not exit within 60s of SIGTERM"
wait "$SERVER_PID" 2>/dev/null && RC=0 || RC=$?
SERVER_PID=
[ "$RC" = 0 ] || fail "server exited with code $RC after SIGTERM"

log "PASS: resumed service result is bit-identical to the uninterrupted local run"
