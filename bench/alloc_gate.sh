#!/usr/bin/env bash
# The allocation gate of `make ci`. Minor-heap words allocated per
# packet repeat for a seed, so a rise in them is a change in the code,
# not noise on the host. This compares each workload named in the
# baseline file with its alloc_words_per_pkt median in a bench/perf
# JSON result, and fails when one rose by more than 2%, the bound
# BENCHMARK.json sets on that metric:
#
#   bash bench/perf/run.sh --quick --out /tmp/quick.json
#   bash bench/alloc_gate.sh /tmp/quick.json [BASELINE]
#
# BASELINE (default bench/alloc_baseline.txt) holds one "workload
# words/pkt" line per gated workload, measured with the same --quick
# run. Only workloads whose value repeats within 0.5% from run to run
# belong in it; the file says why each one left out is left out. Lower
# a value there when a change lowers the allocation for good.
set -euo pipefail

if [ $# -lt 1 ]; then
  echo "usage: bash bench/alloc_gate.sh RESULT.json [BASELINE]" >&2
  exit 2
fi
result=$1
baseline=${2:-$(dirname "$0")/alloc_baseline.txt}

# "workload median" for every workload in the result: workload names
# sit at the JSON printer's fourth column, metrics inside them deeper.
measured=$(awk '
  /^    "[A-Za-z0-9_]+": \{/ { w = $1; gsub(/[":]/, "", w) }
  /^ *"alloc_words_per_pkt": \{/ { grab = 1 }
  grab && /"median":/ { v = $2; sub(/,$/, "", v); print w, v; grab = 0 }
' "$result")

status=0
while read -r workload base; do
  case $workload in '' | '#'*) continue ;; esac
  value=$(awk -v w="$workload" '$1 == w { print $2 }' <<<"$measured")
  if [ -z "$value" ]; then
    echo "alloc gate: $workload: no alloc_words_per_pkt in $result" >&2
    status=1
    continue
  fi
  verdict=$(awk -v v="$value" -v b="$base" 'BEGIN { print (v > b * 1.02) ? "FAIL" : "ok" }')
  printf 'alloc gate: %-16s %10.2f words/pkt (baseline %.2f, limit +2%%)  %s\n' \
    "$workload" "$value" "$base" "$verdict"
  [ "$verdict" = ok ] || status=1
done <"$baseline"
exit $status
