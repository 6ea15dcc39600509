#!/bin/sh
# Perf-regression gate: run the repo benchmark (perfbench, BENCHMARK.json)
# once on each of its four workloads and compare every workload's
# sim_s_per_ref_s with the committed median in scripts/perf_baseline.json.
# The untraced runs also check each workload's simulated output against
# perfbench/expected/.  Fails, naming the worst workload, when perfbench's
# own output checks fail or when any workload falls below
# TOLERANCE x its committed value.
#
# Usage: perf_gate.sh [--tolerance RATIO]
#
#   --tolerance RATIO  min acceptable current/baseline ratio, in (0, 1]
#                      (default 0.75, i.e. fail on a >25% regression)
#
# After an intentional perf change, re-record the baseline from the medians
# that `dune exec perfbench/main.exe -- --repeats 5` prints, and name the
# commit and host in its "recorded" field.
set -eu

cd "$(dirname "$0")/.."

BASELINE=scripts/perf_baseline.json
TOLERANCE=0.75

while [ $# -gt 0 ]; do
  case "$1" in
    --tolerance) TOLERANCE="$2"; shift ;;
    *) echo "perf_gate.sh: unknown argument $1" >&2; exit 2 ;;
  esac
  shift
done

[ -f "$BASELINE" ] || { echo "perf_gate.sh: missing $BASELINE" >&2; exit 2; }
awk -v t="$TOLERANCE" 'BEGIN { exit !(t + 0 > 0 && t + 0 <= 1) }' || {
  echo "perf_gate.sh: --tolerance $TOLERANCE is not in (0, 1]" >&2
  exit 2
}

OUT=$(mktemp)
ERR=$(mktemp)
trap 'rm -f "$OUT" "$ERR"' EXIT

# perfbench exits non-zero when an output check fails, after printing its
# rows and the summary line; each of its "CHECK FAILED: <workload>: ..."
# lines on stderr names a workload.
status=0
dune exec perfbench/main.exe -- --repeats 1 > "$OUT" 2> "$ERR" || status=$?
grep -v '^{' "$OUT" || true
cat "$ERR" >&2
failed=$(sed -n 's/^CHECK FAILED: \([^:]*\):.*/\1/p' "$ERR" | sort -u | tr '\n' ' ')
summary=$(tail -n 1 "$OUT")
case "$summary" in
  '{'*) ;;
  *) echo "perf gate FAILED: perfbench printed no summary line (exit $status)" >&2; exit 1 ;;
esac

# One row per baseline workload: name, baseline, current, ratio.  A workload
# missing from the run reads 0, so it fails the gate by name.
rows=$(echo "$summary" | jq -r --slurpfile base "$BASELINE" '
  .metrics as $m
  | $base[0].sim_s_per_ref_s | to_entries[]
  | ($m[.key + ".sim_s_per_ref_s"].value // 0) as $now
  | "\(.key) \(.value) \($now) \($now / .value)"')

echo "$rows" | awk -v tol="$TOLERANCE" -v status="$status" -v failed="$failed" \
  -v correct="$(echo "$summary" | jq -r .correct)" '
  {
    printf "%-14s sim_s_per_ref_s %10.2f now, %10.2f baseline: %.3fx\n", $1, $3, $2, $4
    if (worst == "" || $4 < ratio) { worst = $1; ratio = $4 }
  }
  END {
    if (status != 0 || correct != "true") {
      printf "perf gate FAILED: perfbench output checks failed on %s(exit %d)\n", failed, status
      exit 1
    }
    if (ratio < tol) {
      printf "perf gate FAILED: %s at %.3fx its baseline sim_s_per_ref_s, below the %s floor\n", \
        worst, ratio, tol
      exit 1
    }
    printf "perf gate passed: worst workload %s at %.3fx baseline (floor %s)\n", worst, ratio, tol
  }'
