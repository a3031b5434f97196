#!/usr/bin/env bash
# Smoke test of the benchmark: every workload on a tiny deployment
# (15 hosts), untraced and traced, one second each, with every output
# check the full runs make.  Exits non-zero on the first wrong output.
#
#   bash perfbench/smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
for workload in study cold hot stream; do
  for trace in 0 1; do
    last=$(bash perfbench/run.sh --workload "$workload" --seed 1 --seconds 1 --trace "$trace" \
      --size tiny | tail -n 1)
    case "$last" in
      '{"correct":true,'*) echo "ok   $workload trace=$trace" ;;
      *) echo "FAIL $workload trace=$trace: $last"; exit 1 ;;
    esac
  done
done
