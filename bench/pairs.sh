#!/usr/bin/env bash
# Paired benchmark runs: the working tree against a git revision.
#
#   bash bench/pairs.sh REV WORKLOAD N SEED
#   make bench-pairs BASE=REV W=e2_local N=10 SEED=5      (the same)
#
# Exports REV with `git archive` into a temporary directory (under
# $TMPDIR), builds the benchmark on both sides, then runs
# `bash bench/perf/run.sh --workload WORKLOAD --seed SEED` N times on
# each, in pairs, switching which side runs first from pair to pair so
# that a drift in the host's speed falls on both. Every run prints each
# end-to-end metric BENCHMARK.json lists, and correct; the end prints
# each side's median and quartiles of every metric (linear
# interpolation, as bench/perf computes them) and how many pairs the
# working tree won on throughput_pps. Exits 1 if any run reports
# correct: false.
set -euo pipefail

if [ $# -lt 1 ]; then
  echo "usage: bash bench/pairs.sh REV [WORKLOAD] [N] [SEED]" >&2
  exit 2
fi
rev=$1
workload=${2:-e2_local}
pairs=${3:-10}
seed=${4:-5}

cd "$(dirname "$0")/.."
change=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
base="$tmp/base"
mkdir "$base"
git archive "$rev" | tar -x -C "$base"

# build both sides first, so that a build error stops the script here
export DUNE_CACHE=disabled
if command -v dune >/dev/null 2>&1; then dune=(dune); else dune=(opam exec -- dune); fi
for dir in "$base" "$change"; do
  (cd "$dir" && "${dune[@]}" build --root . --display quiet ./bench/perf/perf.exe 1>&2)
done

metric() { sed -n "s/.*\"$1\": {\"value\": \([-0-9.eE+]*\).*/\1/p" <<<"$2"; }

# the end-to-end metrics, in BENCHMARK.json's order; throughput_pps first
read -r -a metrics <<<"$(sed -n '/"end_to_end"/,/\]/s/.*"name": "\([a-z0-9_]*\)".*/\1/p' \
  BENCHMARK.json | tr '\n' ' ')"

failed=0
run() {
  local side=$1 dir=$2 i=$3 line correct m v values=()
  line=$(bash "$dir/bench/perf/run.sh" --workload "$workload" --seed "$seed" \
    --out "$tmp/$side-$i.json" 2>/dev/null | tail -n 1) || true
  correct=$(sed -n 's/^{"correct": \([a-z]*\).*/\1/p' <<<"$line")
  [ "$correct" = true ] || failed=1
  printf '%-6s pair %2d' "$side" "$i"
  for m in "${metrics[@]}"; do
    v=$(metric "$m" "$line")
    values+=("${v:-0}")
    printf '  %s %.6g' "$m" "${v:-0}"
  done
  printf '  correct %s\n' "${correct:-missing}"
  echo "${values[*]}" >>"$tmp/$side.tsv"
}

echo "base = $rev ($(git rev-parse --short "$rev")), change = working tree; $workload, seed $seed, $pairs pairs"
for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    run base "$base" "$i"
    run change "$change" "$i"
  else
    run change "$change" "$i"
    run base "$base" "$i"
  fi
done

# median and quartiles of column $1 of a side's runs
summary() {
  cut -d ' ' -f "$1" "$tmp/$2.tsv" | sort -g | awk '
    { v[NR - 1] = $1 }
    function q(p,   r, i) {
      r = p * (NR - 1); i = int(r)
      return (i >= NR - 1) ? v[NR - 1] : v[i] + (r - i) * (v[i + 1] - v[i])
    }
    END { printf "median %12.6g  [q1 %12.6g, q3 %12.6g]", q(0.5), q(0.25), q(0.75) }'
}

echo
col=1
for m in "${metrics[@]}"; do
  for side in base change; do
    printf '%-22s %-6s %s\n' "$m" "$side" "$(summary $col $side)"
  done
  col=$((col + 1))
done
won=$(paste -d ' ' "$tmp/base.tsv" "$tmp/change.tsv" |
  awk -v k="${#metrics[@]}" '$(k + 1) > $1 { n++ } END { print n + 0 }')
echo "change won $won of $pairs pairs on throughput_pps"
exit $failed
