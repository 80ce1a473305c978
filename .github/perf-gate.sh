#!/usr/bin/env bash
# Same-host perf gate: runs perfbench's end-to-end workloads in a base tree
# and a head tree and fails when head is slower than the benchmark's bound
# or produces a wrong or failed run.
#
#   bash .github/perf-gate.sh BASE_DIR HEAD_DIR
#
# Every workload named in the base's BENCHMARK.json runs as 3 pairs of 5 s
# runs (--seed 1 --trace 0). The side that runs first alternates, and each
# side runs from its own tree, so each builds its own binary. The last
# output line of a run is its result. The gate fails when a head run is not
# correct, when head's failed/attempted is above base's, or when head's
# median ops_per_cpu_s is below (1 - bound) x base's, with the bound read
# from BENCHMARK.json. setup_s and peak_rss_mb are printed but not gated:
# over 5 s their run-to-run spread is wider than the bound. The verdicts
# are written to perf-gate.json in the current directory.
set -euo pipefail
if [ $# -ne 2 ]; then
  echo "usage: $0 BASE_DIR HEAD_DIR" >&2
  exit 2
fi
base="$(cd "$1" && pwd)"
head="$(cd "$2" && pwd)"
spec="$base/BENCHMARK.json"
bound="$(jq -e '.end_to_end[] | select(.name == "ops_per_cpu_s") | .bound' "$spec")"
runs="$(mktemp -d)"
trap 'rm -rf "$runs"' EXIT

run() { # run base|head WORKLOAD
  local dir="$base"
  [ "$1" = head ] && dir="$head"
  (cd "$dir" && bash perfbench/run.sh --workload "$2" --seed 1 --seconds 5 --trace 0) |
    tail -n 1 >>"$runs/$2.$1.jsonl" || { echo "perf-gate: $1 run of $2 failed" >&2; exit 1; }
}

for w in $(jq -r '.workloads[].name' "$spec"); do
  for pair in 1 2 3; do
    if [ $((pair % 2)) -eq 1 ]; then run base "$w"; run head "$w"; else run head "$w"; run base "$w"; fi
  done
  jq -n --arg w "$w" --argjson bound "$bound" \
    --slurpfile b "$runs/$w.base.jsonl" --slurpfile h "$runs/$w.head.jsonl" '
    def med(k): map(.metrics[k].value) | sort | .[length / 2 | floor];
    def side: {ops_per_cpu_s: med("ops_per_cpu_s"), setup_s: med("setup_s"),
      peak_rss_mb: med("peak_rss_mb"), failed: (map(.failed) | add),
      attempted: (map(.attempted) | add)};
    ($b | side) as $base | ($h | side) as $head
    | {workload: $w, bound: $bound, base: $base, head: $head, why: [
        if ($h | all(.correct == true)) then empty else "a head run is not correct" end,
        if $head.failed * $base.attempted > $base.failed * $head.attempted
          then "head failed/attempted is above base" else empty end,
        if $head.ops_per_cpu_s < (1 - $bound) * $base.ops_per_cpu_s
          then "ops_per_cpu_s below (1 - \($bound)) x base" else empty end]}
    | .pass = (.why == [])' >>"$runs/verdicts.jsonl"
  jq -r '"\(.workload): " + ([("ops_per_cpu_s", "setup_s", "peak_rss_mb") as $k
      | "\($k) \(.base[$k] * 1000 | round / 1000) -> \(.head[$k] * 1000 | round / 1000)"]
      | join(", ")) + ", failed \(.base.failed)/\(.base.attempted) -> \(.head.failed)/\(.head.attempted)"
      + if .pass then "  ok" else "  FAIL: " + (.why | join("; ")) end' "$runs/verdicts.jsonl" | tail -n 1
done

jq -s . "$runs/verdicts.jsonl" >perf-gate.json
failing="$(jq -r '[.[] | select(.pass | not) | .workload] | join(", ")' perf-gate.json)"
if [ -n "$failing" ]; then
  echo "perf-gate: head regresses on $failing" >&2
  exit 1
fi
echo "perf-gate: head within the ops_per_cpu_s bound $bound of base on every workload"
