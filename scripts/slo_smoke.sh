#!/usr/bin/env bash
# SLO smoke: boot an ioserve replica behind iorouter with SLO tracking and
# fleet tracing on, and assert the observability contract end to end —
# nominal load meets the latency objective (ioload -expect-slo met), a
# stitched cross-process trace is retrievable over /v1/trace/{id} with the
# replica's own spans spliced in, and swapping the replica for one with
# injected latency burns the error budget (ioload -expect-slo burning).
#
# Knobs (env): ROUTER_ADDR, REPLICA_PORT.
source "$(dirname "$0")/lib.sh"

ROUTER_ADDR="${ROUTER_ADDR:-127.0.0.1:18090}"
REPLICA="127.0.0.1:${REPLICA_PORT:-18091}"
CONCURRENCY=4
# p99 target generous enough that loopback predicts never breach it, tight
# enough that the chaos phase's injected 500ms latency always does.
SLO_SPEC="predict:p99=150ms,avail=99"

build ioserve iorouter ioload

say "bootstrapping replica $REPLICA with tracing on"
start_ioserve "$REPLICA" "$workdir/replica.log" -bootstrap -jobs 600 -versions 1 -trace-sample 1
replica_pid="${pids[-1]}"
wait_healthz "$REPLICA" "replica" "$workdir/replica.log"

say "starting iorouter on $ROUTER_ADDR with -slo '$SLO_SPEC'"
start_iorouter "$workdir/iorouter.log" -replicas "http://$REPLICA" -slo "$SLO_SPEC" -trace-sample 1
wait_healthz "$ROUTER_ADDR" "iorouter" "$router_log"
wait_fleet_healthy 1

say "phase 1 — $REQUESTS nominal requests, objectives must be met"
run_load "$workdir/phase1.txt" -addr "http://$ROUTER_ADDR" -rate 0 -dup 0.5 -expect-slo met

say "fetching a stitched cross-process trace"
curl -fsS "http://$ROUTER_ADDR/v1/trace?limit=1" >"$workdir/traces.json"
trace_id="$(sed -n 's/.*"trace_id":"\([0-9a-f]\{16\}\)".*/\1/p' "$workdir/traces.json" | head -n 1)"
[ -n "$trace_id" ] || fail "router retained no traces despite -trace-sample 1" "$workdir/traces.json"
curl -fsS "http://$ROUTER_ADDR/v1/trace/$trace_id" >"$workdir/stitched.json"
for want in '"network"' '"replica request ' '"fanout"'; do
  grep -qF "$want" "$workdir/stitched.json" || fail "stitched trace $trace_id is missing $want" "$workdir/stitched.json"
done
say "trace $trace_id stitched with replica spans and network time"

say "SLO series must be on the router's /metrics"
curl -fsS "http://$ROUTER_ADDR/metrics" | grep -q '^iorouter_slo_requests_total' ||
  fail "/metrics lacks iorouter_slo_requests_total"

say "swapping in a replica with 500ms injected latency"
{ kill -9 "$replica_pid" && wait "$replica_pid"; } 2>/dev/null || true
wait_fleet_healthy 0
start_ioserve "$REPLICA" "$workdir/replica-chaos.log" -chaos 'latency=500ms:1'
wait_healthz "$REPLICA" "chaotic replica" "$workdir/replica-chaos.log"
wait_fleet_healthy 1

say "phase 2 — slow requests must burn the error budget"
run_load "$workdir/phase2.txt" -addr "http://$ROUTER_ADDR" -requests 40 -rate 0 -dup 0.5 -expect-slo burning

say "asking the router for graceful shutdown"
term_clean "$router_pid" "$router_log"

say "OK (objectives met, stitched trace, budget burn detected, clean drain)"
