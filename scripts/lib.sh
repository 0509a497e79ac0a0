# Shared mechanics of the smoke scenarios, sourced by scripts/*_smoke.sh:
# a work directory and every started process cleaned up on exit, the
# binaries built once, health and fleet waits, and the ioserve, iorouter,
# ioload and SIGTERM steps every scenario takes the same way. A scenario
# script keeps only its own steps and assertions.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

NAME="$(basename "$0" _smoke.sh)-smoke"
REQUESTS=150
CONCURRENCY=8
ADMIN_TOKEN="smoke-admin-token"

workdir="$(mktemp -d)"
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do
    # The braced wait keeps bash from printing "Killed" job notices.
    { kill -9 "$pid" && wait "$pid"; } 2>/dev/null || true
  done
  rm -rf "$workdir"
}
trap cleanup EXIT

say() { echo "$NAME: $*"; }

fail() { # message [file...] — report, dump the files, stop the scenario
  echo "$NAME: $1" >&2
  shift
  if [ $# -gt 0 ]; then cat "$@" >&2; fi
  exit 1
}

build() { # binary...
  say "building $*"
  go build -o "$workdir" "${@/#/./cmd/}"
}

poll() { # tries command... — once a second until the command succeeds
  local tries=$1
  shift
  for _ in $(seq 1 "$tries"); do
    if "$@"; then return 0; fi
    sleep 1
  done
  return 1
}

healthz() { curl -fsS "http://$1/healthz" >/dev/null 2>&1; }
fleet_view() { curl -fsS -H "X-Admin-Token: $ADMIN_TOKEN" "http://$ROUTER_ADDR/v1/fleet" 2>/dev/null || true; }
in_fleet() { fleet_view | grep -q "$1"; }
exited() { ! kill -0 "$1" 2>/dev/null; }

wait_healthz() { # addr name log
  poll 120 healthz "$1" || fail "$2 never became healthy" "$3"
}

wait_fleet_healthy() { # want
  poll 60 in_fleet "\"healthy\":$1" || { fleet_view >&2; fail "fleet never reached $1 healthy replicas" "$router_log"; }
}

assert_zero_errors() { # report
  grep -Eq "^requests +[0-9]+ \(0 errors\)$" "$1" || fail "load run reported request errors" "$1"
}

start_ioserve() { # addr log args... — the replica's pid is ${pids[-1]}
  local addr=$1 log=$2
  shift 2
  "$workdir/ioserve" -addr "$addr" -models "$workdir/registry" \
    -reload-interval 1s -shutdown-grace 10s "$@" >"$log" 2>&1 &
  pids+=($!)
}

start_iorouter() { # log args... — sets router_pid and router_log
  router_log=$1
  shift
  "$workdir/iorouter" -addr "$ROUTER_ADDR" -health-interval 250ms \
    -shutdown-grace 10s "$@" >"$router_log" 2>&1 &
  router_pid=$!
  pids+=("$router_pid")
}

run_load() { # out args... — the report goes to stdout and to out
  local out=$1
  shift
  "$workdir/ioload" -system theta -retries 3 \
    -requests "$REQUESTS" -concurrency "$CONCURRENCY" "$@" | tee "$out"
}

term_clean() { # pid log — SIGTERM, then a zero exit inside 20 s that logged its drain
  local who=${2##*/}
  kill -TERM "$1"
  poll 20 exited "$1" || fail "$who: no exit within 20s of SIGTERM" "$2"
  wait "$1" || fail "$who: non-zero exit after SIGTERM" "$2"
  grep -q "shutdown complete" "$2" || fail "$who: no clean-shutdown marker" "$2"
}
