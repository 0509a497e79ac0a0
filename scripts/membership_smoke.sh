#!/usr/bin/env bash
# Membership smoke: the self-healing fleet lifecycle as a whole system.
# iorouter boots with ZERO replicas; three ioserve replicas self-register
# over the admin-gated registration plane and are admitted after their
# first health probe. Then the two exit paths: kill -9 one replica and
# require the router to forget it entirely via lease expiry (member gone
# from the fleet view, no ghost metric series), and SIGTERM another under
# live load requiring the coordinated drain handshake (deregister → arc
# handoff → local drain) to lose zero requests. Finally restart the router
# and require it to rebuild the surviving member from its membership
# snapshot, then drain everything to a clean final state.
#
# Knobs (env): ROUTER_ADDR, REPLICA_BASE_PORT.
source "$(dirname "$0")/lib.sh"

ROUTER_ADDR="${ROUTER_ADDR:-127.0.0.1:18170}"
BASE_PORT="${REPLICA_BASE_PORT:-18181}"
R1="127.0.0.1:$BASE_PORT"
R2="127.0.0.1:$((BASE_PORT + 1))"
R3="127.0.0.1:$((BASE_PORT + 2))"

build ioserve iorouter ioload

start_router() { # log
  start_iorouter "$1" -fleet-state "$workdir/membership.json" -lease-ttl 2s \
    -breaker-threshold 2 -breaker-cooldown 2s -admin-token "$ADMIN_TOKEN"
  # /healthz is a readiness probe, 503 while the ring is empty, so router
  # liveness is checked on the fleet view instead.
  poll 120 in_fleet '"healthy":' || fail "iorouter never came up" "$1"
}

start_member() { # addr log args...
  local addr=$1 log=$2
  shift 2
  start_ioserve "$addr" "$log" -router "http://$ROUTER_ADDR" \
    -admin-token "$ADMIN_TOKEN" -heartbeat-interval 500ms "$@"
  wait_healthz "$addr" "replica $addr" "$log"
}

gone() { ! in_fleet "\"name\":\"$1\""; }

wait_member_gone() { # addr
  poll 60 gone "$1" || { fleet_view >&2; fail "member $1 never left the fleet view"; }
}

router_event() { # event — the membership event must have been counted once
  curl -fsS "http://$ROUTER_ADDR/metrics" >"$workdir/metrics.txt"
  grep -q "iorouter_membership_events_total{event=\"$1\"} 1" "$workdir/metrics.txt" ||
    fail "no $1 membership event counted" "$workdir/metrics.txt"
}

say "booting iorouter with ZERO replicas"
start_router "$workdir/iorouter.log"
in_fleet '"healthy":0' || { fleet_view >&2; fail "zero-replica router does not report an empty fleet"; }

say "replica 1 ($R1) bootstraps the registry and self-registers"
start_member "$R1" "$workdir/replica1.log" -bootstrap -jobs 600 -versions 1
replica1_pid="${pids[-1]}"

say "replicas 2 ($R2) and 3 ($R3) join the fleet"
start_member "$R2" "$workdir/replica2.log"
replica2_pid="${pids[-1]}"
start_member "$R3" "$workdir/replica3.log"
replica3_pid="${pids[-1]}"
wait_fleet_healthy 3

say "phase 1 — $REQUESTS requests across the self-registered fleet"
run_load "$workdir/phase1.txt" -addr "http://$ROUTER_ADDR" -rate 0 -dup 0.7
assert_zero_errors "$workdir/phase1.txt"
for r in "$R1" "$R2" "$R3"; do
  grep -q "$r" "$workdir/phase1.txt" || fail "replica $r served no rows in phase 1" "$workdir/phase1.txt"
done

say "kill -9 replica 2 ($R2) — lease expiry must forget it"
{ kill -9 "$replica2_pid" && wait "$replica2_pid"; } 2>/dev/null || true
wait_member_gone "$R2"
wait_fleet_healthy 2
gone "$R2" || { fleet_view >&2; fail "expired member still in the fleet view"; }
router_event lease_expired
if grep "iorouter_replica_up" "$workdir/metrics.txt" | grep -q "$R2"; then
  fail "ghost iorouter_replica_up series for the expired member"
fi

say "phase 2 — SIGTERM replica 3 ($R3) under live load (coordinated drain)"
run_load "$workdir/phase2.txt" -addr "http://$ROUTER_ADDR" -rate 100 -dup 0.7 &
load_pid=$!
sleep 1
term_clean "$replica3_pid" "$workdir/replica3.log"
wait "$load_pid" || fail "load run failed during the graceful drain" "$workdir/phase2.txt"
assert_zero_errors "$workdir/phase2.txt"
grep -q "fleet drain confirmed" "$workdir/replica3.log" ||
  fail "replica 3 never confirmed its drain handshake" "$workdir/replica3.log"
wait_member_gone "$R3"
wait_fleet_healthy 1
router_event deregister

say "restarting the router — snapshot must rebuild the survivor"
term_clean "$router_pid" "$router_log"
grep -q "\"$R1\"" "$workdir/membership.json" ||
  fail "snapshot does not record the surviving member" "$workdir/membership.json"
start_router "$workdir/iorouter2.log"
grep -q "from snapshot" "$router_log" || fail "restarted router did not restore from its snapshot" "$router_log"
wait_fleet_healthy 1

say "phase 3 — $REQUESTS requests against the rebuilt fleet"
run_load "$workdir/phase3.txt" -addr "http://$ROUTER_ADDR" -rate 0 -dup 0.7
assert_zero_errors "$workdir/phase3.txt"

say "draining to a clean final state"
term_clean "$replica1_pid" "$workdir/replica1.log"
grep -q "fleet drain confirmed" "$workdir/replica1.log" ||
  fail "replica 1 never confirmed its final drain" "$workdir/replica1.log"
wait_fleet_healthy 0
term_clean "$router_pid" "$router_log"

say "OK (zero-replica boot, self-registration, lease-expiry ejection, zero-lost drain, snapshot recovery, clean final state)"
