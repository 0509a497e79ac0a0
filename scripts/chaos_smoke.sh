#!/usr/bin/env bash
# Chaos smoke: boot ioserve with fault injection and admission control,
# saturate it with ioload, and assert the resilience contract end to end —
# injected latency/errors/panics/registry corruption produce load shedding
# and retries but NO crash, and SIGTERM drains to a clean exit.
#
# Knob (env): ADDR.
source "$(dirname "$0")/lib.sh"

ADDR="${ADDR:-127.0.0.1:18080}"
CHAOS_SPEC="latency=5ms:0.5,error=0.05,panic=0.02,corrupt=0.2"
REQUESTS=400
CONCURRENCY=16

build ioserve ioload

say "starting ioserve with -chaos '$CHAOS_SPEC'"
start_ioserve "$ADDR" "$workdir/ioserve.log" \
  -bootstrap -jobs 800 -versions 1 \
  -chaos "$CHAOS_SPEC" \
  -admission-max-inflight 2 \
  -default-deadline 2s \
  -workers 1
server_pid="${pids[-1]}"
# Bootstrap trains models, so the health check's window is generous.
wait_healthz "$ADDR" "ioserve" "$workdir/ioserve.log"

say "driving $REQUESTS requests at concurrency $CONCURRENCY"
# -rate 0 is a closed loop: saturation is the point. -expect-chaos makes
# ioload itself assert sheds > 0, a live server, and some served traffic.
run_load "$workdir/load.txt" -addr "http://$ADDR" -rate 0 -expect-chaos

say "asking for graceful shutdown"
term_clean "$server_pid" "$workdir/ioserve.log"

say "OK (faults injected, load shed, zero crashes, clean drain)"
