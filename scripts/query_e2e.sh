#!/usr/bin/env bash
# query_e2e.sh — end-to-end test of the columnar result store and the
# `accurun query` subcommand.
#
# The contract under test: a Monte-Carlo run that streams its records
# into a result store (-store) and writes its aggregated result (-out)
# can be re-aggregated offline by `accurun query`, reproducing the live
# run's quantile sketch BYTE for byte — the store holds exact float64
# benefits, so the replayed sketch is the live sketch.
#
#   1. accurun -runs N -store out.acs -out result.json
#   2. accurun query -store out.acs -json
#   3. assert the queried benefitSketch == the live finalBenefitSketch
#      (canonical jq -cS serialization) and the requested quantiles
#      match the snapshot's p50/p90/p99
#   4. assert the queried benefit and cautiousFriends Welford snapshots
#      equal the live run's byte for byte
#   5. assert a -where filter narrows the row count
#
# Requires: jq. Runs from anywhere inside the repo.
set -euo pipefail

cd "$(git rev-parse --show-toplevel 2>/dev/null || dirname "$0")/"

PRESET=slashdot
SCALE=0.02
CAUTIOUS=10
POLICY=abm
K=20
SEED=11
RUNS=40

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

log() { echo "query_e2e: $*"; }
fail() {
    log "FAIL: $*"
    exit 1
}

log "building accurun"
go build -o "$WORK/accurun" ./cmd/accurun

log "running $RUNS-realization grid with -store and -out"
"$WORK/accurun" -preset "$PRESET" -scale "$SCALE" -cautious "$CAUTIOUS" \
    -policy "$POLICY" -k "$K" -seed "$SEED" -runs "$RUNS" \
    -store "$WORK/out.acs" -out "$WORK/result.json" >"$WORK/run.txt"
[ -s "$WORK/out.acs" ] || fail "no result store written"
[ -s "$WORK/result.json" ] || fail "no result JSON written"

log "querying the store"
"$WORK/accurun" query -store "$WORK/out.acs" -policy "$POLICY" \
    -quantiles 0.5,0.9,0.99 -json >"$WORK/query.json"

ROWS=$(jq -r '.rows' "$WORK/query.json")
[ "$ROWS" = "$RUNS" ] || fail "query rows=$ROWS, want $RUNS"

LIVE_SK=$(jq -cS '.policies[] | select(.policy == "'"$POLICY"'") | .finalBenefitSketch' "$WORK/result.json")
QUERY_SK=$(jq -cS '.policies[] | select(.policy == "'"$POLICY"'") | .benefitSketch' "$WORK/query.json")
[ -n "$LIVE_SK" ] || fail "no live sketch in result.json"
[ "$QUERY_SK" = "$LIVE_SK" ] || fail "queried sketch differs from live run:
  query: $QUERY_SK
  live:  $LIVE_SK"
log "queried sketch byte-identical to live run"

# The Welford snapshots too: query folds the store's rows through the
# same order-free aggregator as the live run.
for pair in "benefit finalBenefit" "cautiousFriends cautiousFriends"; do
    set -- $pair
    QW=$(jq -cS '.policies[] | select(.policy == "'"$POLICY"'") | .'"$1" "$WORK/query.json")
    LW=$(jq -cS '.policies[] | select(.policy == "'"$POLICY"'") | .'"$2" "$WORK/result.json")
    [ "$QW" = "$LW" ] || fail "queried $1 differs from live $2:
  query: $QW
  live:  $LW"
done
log "queried Welford snapshots byte-identical to live run"

# The requested quantiles must equal the snapshot's own p50/p90/p99.
for pair in "0.5 p50" "0.9 p90" "0.99 p99"; do
    set -- $pair
    QV=$(jq -r '.policies[0].quantiles[] | select(.q == '"$1"') | .value' "$WORK/query.json")
    SV=$(echo "$LIVE_SK" | jq -r ".$2")
    [ "$QV" = "$SV" ] || fail "quantile q=$1: query $QV != snapshot .$2 $SV"
done
log "requested quantiles match snapshot p50/p90/p99"

# -where narrows the aggregation to matching rows.
FILTERED=$(jq -r '.rows' <<<"$("$WORK/accurun" query -store "$WORK/out.acs" -where run=0 -json)")
[ "$FILTERED" = 1 ] || fail "-where run=0 rows=$FILTERED, want 1"
log "-where filter narrows to $FILTERED row"

# The text table renders the quantile columns.
"$WORK/accurun" query -store "$WORK/out.acs" >"$WORK/query.txt"
grep -q "p50" "$WORK/query.txt" || fail "text table missing p50 column"
grep -q "$POLICY" "$WORK/query.txt" || fail "text table missing policy row"

log "PASS: offline store query reproduces the live run's quantile sketch byte for byte"
