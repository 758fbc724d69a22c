#!/usr/bin/env bash
# serve_smoke: boot `privbench -serve`, POST the same tiny Spec twice,
# and assert the second response is a cache hit with byte-identical row
# payloads, no second simulation, no store write and no point decoded
# (the server knows the point's bytes), that GET of the
# run replays the same row, and that the hash is over content:
# the same point spelled with its environment explicit is a cache hit,
# that a body followed by data is a 400, and that the server mounts no
# /progress (a 404).
# This is the end-to-end check of the content-addressed result path:
# Spec hashing, the resultstore round trip, and the server's cache/dedup
# accounting — through a real TCP listener instead of httptest. Then the two
# supervised points the harness itself runs — ftsweep's (pieglobals, fs,
# 120 ms) and elastic's (pieglobals, fs, spot-busy) — go through POST
# and through `privbench -spec`, each given the same request body, and
# the two doors must print the same row, supervised columns included;
# and the fault point filed under another checkpoint directory is a
# cache hit. Last, the server restarts on the same store and replays
# the first POST from its log.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="${SERVE_SMOKE_ADDR:-127.0.0.1:18091}"
WORKDIR="$(mktemp -d)"
LOG="$WORKDIR/serve.log"
SERVER_PID=""

cleanup() {
    if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
        # SIGTERM exercises the graceful-shutdown path on every run.
        kill -TERM "$SERVER_PID" 2>/dev/null || true
        wait "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

fail() {
    echo "serve-smoke: FAIL: $*" >&2
    echo "---- server log ----" >&2
    cat "$LOG" >&2 || true
    exit 1
}

echo "== build"
go build -o "$WORKDIR/privbench" ./cmd/privbench

start_server() {
    echo "== start server on $ADDR (store: $WORKDIR/store)"
    "$WORKDIR/privbench" -serve "$ADDR" -store "$WORKDIR/store" >>"$LOG" 2>&1 &
    SERVER_PID=$!
    for i in $(seq 1 50); do
        if curl -sf "http://$ADDR/v1/experiments" >/dev/null 2>&1; then
            break
        fi
        kill -0 "$SERVER_PID" 2>/dev/null || fail "server exited before accepting connections"
        sleep 0.1
    done
    curl -sf "http://$ADDR/v1/experiments" >/dev/null || fail "server never came up"
}

stop_server() {
    kill -TERM "$SERVER_PID"
    wait "$SERVER_PID" || fail "server exited non-zero after SIGTERM"
    SERVER_PID=""
}

start_server

# The tiny fig5-style point: the empty workload (init/finalize only).
SPEC='{"points":[{"workload":"empty","vps":4,"machine":{"nodes":2,"procs_per_node":1,"pes_per_proc":1},"method":"pieglobals"}]}'

# Store entries written so far, from the server's own metrics.
puts() {
    curl -sf "http://$ADDR/metrics" | sed -n 's/^resultstore_puts_total //p' | grep . \
        || fail "no resultstore_puts_total on /metrics"
}

# Request points decoded so far: a point whose bytes the server has seen
# is looked up, not decoded.
decoded() {
    curl -sf "http://$ADDR/metrics" | sed -n 's/^serve_points_decoded_total //p' | grep . \
        || fail "no serve_points_decoded_total on /metrics"
}

echo "== first POST (expect an execution)"
curl -sf -X POST -H 'Content-Type: application/json' -d "$SPEC" \
    "http://$ADDR/v1/runs" >"$WORKDIR/first.ndjson" || fail "first POST failed"
PUTS1="$(puts)"
DECODED1="$(decoded)"

echo "== second POST (expect a cache hit that writes nothing and decodes nothing)"
curl -sf -X POST -H 'Content-Type: application/json' -d "$SPEC" \
    "http://$ADDR/v1/runs" >"$WORKDIR/second.ndjson" || fail "second POST failed"
[[ "$(puts)" == "$PUTS1" ]] || fail "the replayed POST wrote to the store: resultstore_puts_total $PUTS1 -> $(puts)"
[[ "$(decoded)" == "$DECODED1" ]] || fail "the replayed POST decoded its point: serve_points_decoded_total $DECODED1 -> $(decoded)"

# Point lines carry `"cached":...` response metadata next to the row
# payload; strip everything up to the row to compare stored bytes only.
point_row() { grep '"row"' "$1" | sed 's/.*"row"://; s/}$//'; }
trailer()   { grep '"done":true' "$1"; }

ROW1="$(point_row "$WORKDIR/first.ndjson")"
ROW2="$(point_row "$WORKDIR/second.ndjson")"
[[ -n "$ROW1" ]] || fail "first response has no row: $(cat "$WORKDIR/first.ndjson")"
[[ "$ROW1" == "$ROW2" ]] || fail "row payloads differ:
  first:  $ROW1
  second: $ROW2"

trailer "$WORKDIR/first.ndjson" | grep -q '"executed":1' \
    || fail "first POST did not execute: $(trailer "$WORKDIR/first.ndjson")"
trailer "$WORKDIR/second.ndjson" | grep -q '"cached":1' \
    || fail "second POST was not a cache hit: $(trailer "$WORKDIR/second.ndjson")"
trailer "$WORKDIR/second.ndjson" | grep -q '"executed":0' \
    || fail "second POST re-executed: $(trailer "$WORKDIR/second.ndjson")"

# The run replays from the store: GET of the first POST's run hash
# serves the same row bytes, cached, and writes nothing either.
RUN="$(head -n 1 "$WORKDIR/first.ndjson" | sed 's/.*"run":"\([0-9a-f]*\)".*/\1/')"
echo "== GET /v1/runs/$RUN (expect the first POST's row, cached)"
curl -sf "http://$ADDR/v1/runs/$RUN" >"$WORKDIR/replay.ndjson" || fail "GET of run $RUN failed"
[[ "$(point_row "$WORKDIR/replay.ndjson")" == "$ROW1" ]] \
    || fail "replayed row differs: $(cat "$WORKDIR/replay.ndjson")"
trailer "$WORKDIR/replay.ndjson" | grep -q '"cached":1' \
    || fail "replay was not cached: $(trailer "$WORKDIR/replay.ndjson")"
[[ "$(puts)" == "$PUTS1" ]] || fail "the GET replay wrote to the store: resultstore_puts_total $PUTS1 -> $(puts)"

# The hash is over content, not spelling: the same point with the
# environment adjust resolves to, written out, is the same point.
EXPLICIT='{"points":[{"workload":"empty","vps":4,"machine":{"nodes":2,"procs_per_node":1,"pes_per_proc":1},"method":"pieglobals","env_policy":"explicit","toolchain":{"supports_tls_seg_refs":true,"pie":true},"os":{"kind":"linux","glibc":true,"shared_fs":true}}]}'
echo "== explicit-environment POST (expect the same hash, cached)"
curl -sf -X POST -H 'Content-Type: application/json' -d "$EXPLICIT" \
    "http://$ADDR/v1/runs" >"$WORKDIR/explicit.ndjson" || fail "explicit POST failed"
point_hash() { grep '"hash"' "$1" | sed 's/.*"hash":"\([0-9a-f]*\)".*/\1/'; }
HASH1="$(point_hash "$WORKDIR/first.ndjson")"
[[ -n "$HASH1" && "$HASH1" == "$(point_hash "$WORKDIR/explicit.ndjson")" ]] \
    || fail "explicit environment hashed differently: $(cat "$WORKDIR/explicit.ndjson")"
trailer "$WORKDIR/explicit.ndjson" | grep -q '"cached":1' \
    || fail "explicit POST was not a cache hit: $(trailer "$WORKDIR/explicit.ndjson")"
trailer "$WORKDIR/explicit.ndjson" | grep -q '"executed":0' \
    || fail "explicit POST re-executed: $(trailer "$WORKDIR/explicit.ndjson")"

echo "== two bodies in one POST (expect a 400: nothing after the body is ignored)"
TRAILING="$(curl -s -o "$WORKDIR/trailing.json" -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
    -d "$SPEC$SPEC" "http://$ADDR/v1/runs")"
[[ "$TRAILING" == "400" ]] || fail "a body followed by a second one answered $TRAILING, want 400: $(cat "$WORKDIR/trailing.json")"
grep -q 'data after the request body' "$WORKDIR/trailing.json" \
    || fail "the trailing-data 400 does not say why: $(cat "$WORKDIR/trailing.json")"

# Cross-check with the server's own metrics: exactly one simulation
# ever ran, and the cache hit was counted.
METRICS="$(curl -sf "http://$ADDR/metrics")" || fail "metrics scrape failed"
echo "$METRICS" | grep -q '^serve_points_executed_total 1$' \
    || fail "serve_points_executed_total != 1: $(echo "$METRICS" | grep serve_ || true)"
echo "$METRICS" | grep -q '^serve_cache_hits_total [1-9]' \
    || fail "no cache hits counted: $(echo "$METRICS" | grep serve_ || true)"

# No live-progress endpoint and no sweep_point* metrics: the NDJSON
# stream already reports each point.
PROGRESS="$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/progress")"
[[ "$PROGRESS" == "404" ]] || fail "GET /progress answered $PROGRESS, want 404: nothing serves live progress"
! echo "$METRICS" | grep -q '^sweep_point' || fail "/metrics carries sweep_point* families nothing feeds"

# One executor behind every door: a fault point and a churn point,
# served and run from the command line, give byte-identical rows.
FAULTS='{"machine":{"nodes":3,"procs_per_node":1,"pes_per_proc":2},"vps":6,"method":"pieglobals","workload":"checkpointed","checkpoint":{"target":"fs","dir":"/scratch/ftsweep","interval_ns":19576668},"faults":{"seed":11400706023115026965,"mtbf_ns":120000000,"horizon_ns":1150225316}}'
CHURN='{"machine":{"nodes":4,"procs_per_node":1,"pes_per_proc":2},"vps":8,"method":"pieglobals","workload":"checkpointed","checkpoint":{"target":"fs","dir":"/scratch/elastic","interval_ns":32000000},"churn":{"seed":20,"eviction_every_ns":80000000,"notice_ns":120000000,"horizon_ns":200000000,"max_events":2}}'
for point in FAULTS CHURN; do
    echo "== $point point: POST vs privbench -spec"
    BODY="{\"spec\":${!point}}"
    curl -sf -X POST -H 'Content-Type: application/json' -d "$BODY" \
        "http://$ADDR/v1/runs" >"$WORKDIR/$point.ndjson" || fail "$point POST failed"
    SERVED="$(point_row "$WORKDIR/$point.ndjson")"
    [[ -n "$SERVED" ]] || fail "$point POST has no row: $(cat "$WORKDIR/$point.ndjson")"
    echo "$SERVED" | grep -q '"attempts":' || fail "$point row lacks the supervised columns: $SERVED"
    PRINTED="$(printf '%s' "$BODY" | "$WORKDIR/privbench" -spec - | tail -n 1)" || fail "privbench -spec failed on the $point point"
    [[ "$SERVED" == "$PRINTED" ]] || fail "$point point: the server and privbench -spec disagree:
  POST:  $SERVED
  -spec: $PRINTED"
done

# The checkpoint directory is a label: filed elsewhere, the fault point
# is the same point.
MOVED="${FAULTS//\/scratch\/ftsweep/\/scratch\/elsewhere}"
[[ "$MOVED" != "$FAULTS" ]] || fail "the fault point names no checkpoint directory"
echo "== FAULTS point under another checkpoint directory (expect a cache hit)"
curl -sf -X POST -H 'Content-Type: application/json' -d "{\"spec\":$MOVED}" \
    "http://$ADDR/v1/runs" >"$WORKDIR/moved.ndjson" || fail "moved-directory POST failed"
trailer "$WORKDIR/moved.ndjson" | grep -q '"cached":1' \
    || fail "another checkpoint directory missed the cache: $(trailer "$WORKDIR/moved.ndjson")"
[[ "$(point_row "$WORKDIR/moved.ndjson")" == "$(point_row "$WORKDIR/FAULTS.ndjson")" ]] \
    || fail "another checkpoint directory served a different row"

# The store outlives the process: restarted on the same -store, the
# server replays the first body from its log and writes nothing.
echo "== graceful shutdown, restart on the same store"
stop_server
start_server
curl -sf -X POST -H 'Content-Type: application/json' -d "$SPEC" \
    "http://$ADDR/v1/runs" >"$WORKDIR/restarted.ndjson" || fail "POST after the restart failed"
! grep '"row"' "$WORKDIR/restarted.ndjson" | grep -qv '"cached":true' \
    || fail "a point missed the store after the restart: $(cat "$WORKDIR/restarted.ndjson")"
[[ "$(point_row "$WORKDIR/restarted.ndjson")" == "$ROW1" ]] \
    || fail "the restarted server served another row: $(cat "$WORKDIR/restarted.ndjson")"
[[ "$(puts)" == "0" ]] || fail "the replay after the restart wrote to the store: resultstore_puts_total $(puts)"

echo "== graceful shutdown"
stop_server

echo "serve-smoke: OK (row payload byte-identical, second and explicit-environment POSTs cached, 1 simulation total, replays write nothing, also after a restart on the same store; fault and churn points identical through POST and -spec; checkpoint directory not hashed; trailing data refused; no /progress)"
