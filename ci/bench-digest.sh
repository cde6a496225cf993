#!/usr/bin/env bash
# Decision-digest gate for the scheduler benchmark (schedbench/).
#
# Runs each gated workload once at seed 1 and compares the printed
# `decision digest` with the value committed below. Every budget in the
# benchmark is a tick cap, so the digest (period, proven flag and outcome
# class of every problem) is the same on any machine and moves only when
# a scheduling decision does. A change meant to move decisions updates
# this table in the same commit and says why.
#
# Usage: ci/bench-digest.sh
set -euo pipefail
cd "$(dirname "$0")/.."

EXPECTED=(
  "table4 44cc71047d104219"
  "ilp-hard 03fea7e7401cd2ec"
  "sessions a70b523556829652"
)

status=0
for entry in "${EXPECTED[@]}"; do
  read -r workload want <<<"$entry"
  got="$(cargo run --release --offline --quiet --manifest-path schedbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0 |
    sed -n 's/^decision digest \([0-9a-f]*\) .*/\1/p')"
  if [ "$got" = "$want" ]; then
    echo "ok       $workload $got"
  else
    echo "MISMATCH $workload: got '${got}', committed $want" >&2
    status=1
  fi
done
exit "$status"
