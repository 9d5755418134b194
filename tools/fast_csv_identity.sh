#!/usr/bin/env bash
# Bit-identity check for changes that must not move any experiment number.
#
#   tools/fast_csv_identity.sh <build-a> <build-b>
#
# Runs every e*/fig*/table* bench of both build trees with ANB_FAST=1
# ANB_NUM_THREADS=2, each build in its own fresh temporary working
# directory (the two runs of one bench go side by side), then cmp's every
# results/*.csv the runs wrote. Observability exports (*_metrics.csv, which
# carry timings, and trace files) are skipped.
#
# Exit status: 0 when every CSV is byte-identical; 1 on the first CSV that
# differs or exists on one side only; 2 on a usage error or a bench that
# fails. On failure the working directories (with each run's log) are kept
# and their path printed.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <build-a> <build-b>" >&2
  exit 2
fi
builds=()
for dir in "$1" "$2"; do
  if [[ ! -d "$dir/bench" ]]; then
    echo "$0: $dir has no bench/ directory (not a build tree?)" >&2
    exit 2
  fi
  builds+=("$(cd "$dir" && pwd)")
done

work=$(mktemp -d "${TMPDIR:-/tmp}/fast_csv_identity.XXXXXX")
mkdir "$work/a" "$work/b"
keep_work() { echo "working directories kept in $work" >&2; }

benches=()
for exe in "${builds[0]}"/bench/{e,fig,table}*; do
  if [[ -f "$exe" && -x "$exe" ]]; then benches+=("$(basename "$exe")"); fi
done
if [[ ${#benches[@]} -eq 0 ]]; then
  echo "$0: no e*/fig*/table* benches under ${builds[0]}/bench" >&2
  exit 2
fi

for name in "${benches[@]}"; do
  echo "running $name"
  pids=()
  for i in 0 1; do
    side=$([[ $i -eq 0 ]] && echo a || echo b)
    exe="${builds[$i]}/bench/$name"
    if [[ ! -x "$exe" ]]; then
      echo "$name: missing from ${builds[$i]}/bench" >&2
      keep_work
      exit 1
    fi
    (cd "$work/$side" &&
      env -u ANB_TRACE ANB_FAST=1 ANB_NUM_THREADS=2 "$exe" \
        > "$name.log" 2>&1) &
    pids+=($!)
  done
  for i in 0 1; do
    if ! wait "${pids[$i]}"; then
      echo "$name failed under ${builds[$i]} (see its .log)" >&2
      keep_work
      exit 2
    fi
  done
done

csvs=$( (cd "$work/a" && ls results/*.csv 2>/dev/null || true
         cd "$work/b" && ls results/*.csv 2>/dev/null || true) |
        grep -v '_metrics\.csv$' | sort -u)
count=0
for csv in $csvs; do
  if [[ ! -f "$work/a/$csv" || ! -f "$work/b/$csv" ]]; then
    echo "DIFFER: $csv written by only one build" >&2
    keep_work
    exit 1
  fi
  if ! cmp "$work/a/$csv" "$work/b/$csv"; then
    echo "DIFFER: $csv" >&2
    keep_work
    exit 1
  fi
  count=$((count + 1))
done
echo "identical: $count CSV(s) from ${#benches[@]} bench(es)"
rm -rf "$work"
