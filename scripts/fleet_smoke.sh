#!/usr/bin/env bash
# Fleet smoke: boot three ioserve replicas over one shared registry tree,
# front them with iorouter, and assert the fleet contract end to end —
# traffic spreads across the fleet, killing a replica ejects it with zero
# request errors (the survivors absorb its arcs), a restart rejoins it,
# and SIGTERM drains the router to a clean exit.
#
# Knobs (env): ROUTER_ADDR, REPLICA_BASE_PORT.
source "$(dirname "$0")/lib.sh"

ROUTER_ADDR="${ROUTER_ADDR:-127.0.0.1:18070}"
BASE_PORT="${REPLICA_BASE_PORT:-18081}"
R1="127.0.0.1:$BASE_PORT"
R2="127.0.0.1:$((BASE_PORT + 1))"
R3="127.0.0.1:$((BASE_PORT + 2))"

build ioserve iorouter ioload

# Replica 1 bootstraps the shared tree; 2 and 3 load it once it exists.
say "bootstrapping the shared registry via replica 1 ($R1)"
start_ioserve "$R1" "$workdir/replica1.log" -bootstrap -jobs 600 -versions 1
wait_healthz "$R1" "replica 1" "$workdir/replica1.log"

say "starting replicas 2 ($R2) and 3 ($R3) over the same tree"
start_ioserve "$R2" "$workdir/replica2.log"
replica2_pid="${pids[-1]}"
start_ioserve "$R3" "$workdir/replica3.log"
wait_healthz "$R2" "replica 2" "$workdir/replica2.log"
wait_healthz "$R3" "replica 3" "$workdir/replica3.log"

say "starting iorouter on $ROUTER_ADDR"
start_iorouter "$workdir/iorouter.log" \
  -replicas "http://$R1,http://$R2,http://$R3" \
  -breaker-threshold 2 -breaker-cooldown 2s
wait_healthz "$ROUTER_ADDR" "iorouter" "$router_log"

say "phase 1 — $REQUESTS requests across the full fleet"
run_load "$workdir/phase1.txt" -addr "http://$ROUTER_ADDR" -rate 0 -dup 0.7
assert_zero_errors "$workdir/phase1.txt"
for r in "$R1" "$R2" "$R3"; do
  grep -q "$r" "$workdir/phase1.txt" || fail "replica $r served no rows in phase 1" "$workdir/phase1.txt"
done

say "killing replica 2 ($R2)"
{ kill -9 "$replica2_pid" && wait "$replica2_pid"; } 2>/dev/null || true
wait_fleet_healthy 2

say "phase 2 — $REQUESTS requests against the degraded fleet"
run_load "$workdir/phase2.txt" -addr "http://$ROUTER_ADDR" -rate 0 -dup 0.7
assert_zero_errors "$workdir/phase2.txt"
if grep "^replica rows" "$workdir/phase2.txt" | grep -q "$R2"; then
  fail "the ejected replica $R2 still received rows" "$workdir/phase2.txt"
fi

say "restarting replica 2 and waiting for rejoin"
start_ioserve "$R2" "$workdir/replica2b.log"
wait_healthz "$R2" "restarted replica 2" "$workdir/replica2b.log"
wait_fleet_healthy 3

say "asking the router for graceful shutdown"
term_clean "$router_pid" "$router_log"

say "OK (fleet spread, clean ejection, zero errors, rejoin, clean drain)"
