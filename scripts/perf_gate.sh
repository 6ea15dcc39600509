#!/bin/sh
# Perf-regression gate: run the repo benchmark (perfbench, BENCHMARK.json)
# three times on each of its four workloads and compare every workload's
# median sim_s_per_ref_s, setup_s and peak_rss_mb with the committed
# medians in scripts/perf_baseline.json.  The untraced runs also check each
# workload's simulated output against perfbench/expected/.  Fails, naming
# the worst workload, when perfbench's own output checks fail, when any
# workload falls below TOLERANCE x its committed sim_s_per_ref_s, when any
# workload's setup_s (trace generation) exceeds twice its committed
# median, whatever TOLERANCE says, or when any workload's peak_rss_mb
# exceeds its committed value by more than BENCHMARK.json's peak_rss_mb
# bound (0.15).  Peak RSS repeats to within ~0.25 MB run to run; setup_s
# does not: single-repeat ratios to its committed median spread from 0.45
# to 1.48, so the gate judges medians of three.  The throughput floor is
# looser still, because a repeat on a shared host is noisy.  A generator
# that builds a Zipf table per draw again read 3.0x v_lan_n100's
# committed setup_s in one run.
#
# Usage: perf_gate.sh [--tolerance RATIO]
#
#   --tolerance RATIO  min acceptable current/baseline sim_s_per_ref_s
#                      ratio, in (0, 1] (default 0.75, i.e. fail on a >25%
#                      regression)
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
dune exec perfbench/main.exe -- --repeats 3 > "$OUT" 2> "$ERR" || status=$?
grep -v '^{' "$OUT" || true
cat "$ERR" >&2
failed=$(sed -n 's/^CHECK FAILED: \([^:]*\):.*/\1/p' "$ERR" | sort -u | tr '\n' ' ')
summary=$(tail -n 1 "$OUT")
case "$summary" in
  '{'*) ;;
  *) echo "perf gate FAILED: perfbench printed no summary line (exit $status)" >&2; exit 1 ;;
esac

# Peak RSS may exceed its baseline by BENCHMARK.json's bound for the metric.
rss_bound=$(jq -r '.end_to_end[] | select(.name == "peak_rss_mb") | .bound' BENCHMARK.json)
case "$rss_bound" in
  ''|null) echo "perf_gate.sh: BENCHMARK.json has no peak_rss_mb bound" >&2; exit 2 ;;
esac

# One row per baseline metric and workload: metric, workload, baseline,
# current.  A workload missing from the run reads 0 throughput and an
# unbounded setup time and RSS, so it fails the gate by name.
rows=$(echo "$summary" | jq -r --slurpfile base "$BASELINE" '
  .metrics as $m
  | ($base[0].sim_s_per_ref_s | to_entries[]
     | "sim_s_per_ref_s \(.key) \(.value) \($m[.key + ".sim_s_per_ref_s"].value // 0)"),
    ($base[0].setup_s | to_entries[]
     | "setup_s \(.key) \(.value) \($m[.key + ".setup_s"].value // 1e300)"),
    ($base[0].peak_rss_mb | to_entries[]
     | "peak_rss_mb \(.key) \(.value) \($m[.key + ".peak_rss_mb"].value // 1e300)")')

echo "$rows" | awk -v tol="$TOLERANCE" -v rss="$rss_bound" -v status="$status" \
  -v failed="$failed" -v correct="$(echo "$summary" | jq -r .correct)" '
  {
    ratio = $4 / $3
    fmt = ($1 == "setup_s") ? "%-14s %-15s %10.4f now, %10.4f baseline: %.3fx\n" \
                            : "%-14s %-15s %10.2f now, %10.2f baseline: %.3fx\n"
    printf fmt, $2, $1, $4, $3, ratio
    if ($1 == "sim_s_per_ref_s") {
      if (slow == "" || ratio < low) { slow = $2; low = ratio }
    } else if ($1 == "setup_s") {
      if (late == "" || ratio > gen) { late = $2; gen = ratio }
    } else if (fat == "" || ratio > high) { fat = $2; high = ratio }
  }
  END {
    if (status != 0 || correct != "true") {
      printf "perf gate FAILED: perfbench output checks failed on %s(exit %d)\n", failed, status
      exit 1
    }
    if (low < tol) {
      printf "perf gate FAILED: %s at %.3fx its baseline sim_s_per_ref_s, below the %s floor\n", \
        slow, low, tol
      exit 1
    }
    if (gen > 2) {
      printf "perf gate FAILED: %s at %.3fx its baseline setup_s, above the 2.00 ceiling\n", \
        late, gen
      exit 1
    }
    if (high > 1 + rss) {
      printf "perf gate FAILED: %s at %.3fx its baseline peak_rss_mb, above the %.2f ceiling\n", \
        fat, high, 1 + rss
      exit 1
    }
    printf "perf gate passed: worst sim_s_per_ref_s %s at %.3fx baseline (floor %s), ", slow, low, tol
    printf "largest setup_s %s at %.3fx baseline (ceiling 2.00), ", late, gen
    printf "largest peak_rss_mb %s at %.3fx baseline (ceiling %.2f)\n", fat, high, 1 + rss
  }'
