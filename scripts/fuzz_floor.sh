#!/usr/bin/env bash
# Runs one fuzz target for 10 s and fails when its final `execs:` count is
# under the floor. Minimizing each new-coverage input is bounded to 100 calls
# of the fuzz function: unbounded (up to 60 s an input) a cold run can spend
# all its 10 s minimizing, and pass while testing almost nothing.
#
#   bash scripts/fuzz_floor.sh FuzzFlatCompile ./internal/gbt 20000
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target=$1 pkg=$2 floor=$3

log="$(mktemp)"
trap 'rm -f "$log"' EXIT
go test -fuzz="^$target\$" -fuzztime=10s -fuzzminimizetime=100x -run '^$' "$pkg" 2>&1 | tee "$log"
execs=$(grep -o 'execs: [0-9]*' "$log" | tail -n 1 | cut -d' ' -f2)
if [ "${execs:-0}" -lt "$floor" ]; then
  echo "$target: ${execs:-0} execs, under its floor of $floor" >&2
  exit 1
fi
echo "$target: $execs execs (floor $floor)"
