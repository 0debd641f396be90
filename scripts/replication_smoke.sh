#!/usr/bin/env bash
# Two-process replication smoke test: start a durable leader and a durable
# follower, write on the leader, check the follower converges to identical
# query answers, then promote the follower and write to it. Exercises the
# real binaries over real HTTP — the in-process integration tests cover
# the hard interleavings; this catches wiring that only breaks end to end
# (flags, routes, process lifecycle).
set -euo pipefail

LEADER_PORT="${LEADER_PORT:-18080}"
FOLLOWER_PORT="${FOLLOWER_PORT:-18081}"
LEADER="http://127.0.0.1:${LEADER_PORT}"
FOLLOWER="http://127.0.0.1:${FOLLOWER_PORT}"

workdir="$(mktemp -d)"
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

die() { echo "replication_smoke: FAIL: $*" >&2; exit 1; }

# wait_until <deadline-seconds> <cmd...>: poll until cmd succeeds.
wait_until() {
  local deadline=$1; shift
  local start now
  start=$(date +%s)
  until "$@" >/dev/null 2>&1; do
    now=$(date +%s)
    (( now - start < deadline )) || die "timed out waiting for: $*"
    sleep 0.2
  done
}

echo "building cfpqd..."
go build -o "$workdir/cfpqd" ./cmd/cfpqd

echo "starting leader on :${LEADER_PORT}..."
"$workdir/cfpqd" -addr ":${LEADER_PORT}" -data-dir "$workdir/leader" >"$workdir/leader.log" 2>&1 &
pids+=($!)
wait_until 15 curl -sf "$LEADER/healthz"

echo "loading graph and grammar on the leader..."
printf 'alice\tknows\tbob\nbob\tknows\tcarol\ncarol\tknows\tdora\n' |
  curl -sf -X PUT --data-binary @- "$LEADER/v1/graphs/social" >/dev/null
curl -sf -X PUT --data-binary 'S -> knows | knows S' "$LEADER/v1/grammars/reach" >/dev/null

echo "starting follower on :${FOLLOWER_PORT}..."
"$workdir/cfpqd" -addr ":${FOLLOWER_PORT}" -data-dir "$workdir/follower" \
  -follow "$LEADER" -follower-id smoke >"$workdir/follower.log" 2>&1 &
pids+=($!)
wait_until 15 curl -sf "$FOLLOWER/readyz"

query='{"graph":"social","grammar":"reach","nonterminal":"S"}'
# Strip the stats object before comparing: duration_ns is wall time and
# legitimately differs between nodes answering the same query.
ask() { curl -sf -X POST -d "$query" "$1/v1/query" | sed 's/"stats":{[^}]*}//'; }

[ "$(ask "$LEADER")" = "$(ask "$FOLLOWER")" ] || die "bootstrap answers differ"

echo "opening a live subscription on the follower..."
curl -sNf -X POST -d "$query" "$FOLLOWER/v1/subscribe" >"$workdir/sse.log" 2>&1 &
pids+=($!)
wait_until 15 grep -q 'subscribed' "$workdir/sse.log"

echo "writing on the leader, waiting for the follower to converge..."
curl -sf -X POST -d '{"edges":[{"from":"dora","label":"knows","to":"alice"}]}' \
  "$LEADER/v1/graphs/social/edges" >/dev/null
converged() { [ "$(ask "$LEADER")" = "$(ask "$FOLLOWER")" ]; }
wait_until 15 converged

echo "checking the leader write reached the follower subscription..."
# The edge ships over the WAL, the follower's replicated apply patches its
# cached index, and the subscription pushes the patch's delta as an SSE
# pairs event — no polling, no full-result diffing.
sse_pushed() { grep -q 'event: pairs' "$workdir/sse.log" && grep -q '"from":"dora","to":"alice"' "$workdir/sse.log"; }
wait_until 15 sse_pushed

echo "scraping /metrics on both nodes..."
# The leader has served queries, so its scrape must carry the request
# latency histogram; the converged follower's replication lag gauge must
# read 0 records behind. Scrapes land in files first: under pipefail,
# `curl | grep -q` can fail spuriously when grep closes the pipe early.
curl -sf "$LEADER/metrics" >"$workdir/leader_metrics"
grep -q '^cfpqd_http_request_duration_seconds_bucket{' "$workdir/leader_metrics" ||
  die "leader /metrics missing request latency histogram"
grep -q '^cfpqd_build_info{' "$workdir/leader_metrics" ||
  die "leader /metrics missing build_info"
lag_zero() {
  curl -sf "$FOLLOWER/metrics" >"$workdir/follower_metrics" &&
    grep -q '^cfpqd_replication_lag_records 0$' "$workdir/follower_metrics"
}
wait_until 15 lag_zero
grep -q '^cfpqd_subscription_resyncs_total' "$workdir/follower_metrics" ||
  die "follower /metrics missing subscription resync counter"
grep -q '^cfpqd_subscriptions_active_entries 1$' "$workdir/follower_metrics" ||
  die "follower /metrics does not show its one live subscription"

echo "checking the follower's write gate and status..."
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  -d '{"edges":[{"from":"x","label":"knows","to":"y"}]}' "$FOLLOWER/v1/graphs/social/edges")
[ "$code" = "403" ] || die "follower write answered $code, want 403"
curl -sf "$FOLLOWER/v1/replication/status" | grep -q '"role":"follower"' ||
  die "follower status missing role=follower"
curl -sf "$LEADER/v1/replication/status" | grep -q '"role":"leader"' ||
  die "leader status missing role=leader"

echo "promoting the follower..."
curl -sf -X POST "$FOLLOWER/v1/promote" >/dev/null
curl -sf -X POST -d '{"edges":[{"from":"zed","label":"knows","to":"alice"}]}' \
  "$FOLLOWER/v1/graphs/social/edges" >/dev/null || die "promoted follower rejected a write"
wait_until 15 curl -sf "$FOLLOWER/readyz"

echo "replication_smoke: PASS"
