#!/bin/sh
# Repo gate: build, full test suite, seeded-figures digest, the perfbench
# perf gate, then traced smokes.  Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== no polymorphic compare on the hot path (objdump of perfbench/main.exe) =="
# DESIGN.md section 13: the simulation libraries compare ints with int
# compares, never through caml_compare/caml_lessthan/... or Stdlib's
# out-of-line min/max/compare.  Fails naming each offending function, and
# fails when objdump is missing rather than skipping.
sh scripts/poly_compare_guard.sh _build/default/perfbench/main.exe

echo "== dune runtest =="
dune runtest

echo "== seeded figures gate (figures --quick vs scripts/figures_quick.md5) =="
# The seeded outputs are the spec: every experiment's quick-mode text must
# stay byte-identical unless a change says why.  A change that alters
# them on purpose re-records the digest in the same commit.
got=$(dune exec bin/figures.exe -- --quick | md5sum | cut -d' ' -f1)
want=$(cat scripts/figures_quick.md5)
if [ "$got" != "$want" ]; then
  echo "figures --quick output changed: MD5 $got, scripts/figures_quick.md5 has $want" >&2
  exit 1
fi

echo "== perf gate (perfbench vs scripts/perf_baseline.json) =="
# One untraced perfbench run of each benchmark workload at full size.  It
# checks every workload's simulated output against perfbench/expected/
# (the smoke run in dune runtest only sees the ~1 % shapes), and gates
# each workload's sim_s_per_ref_s at 0.25x the committed perfbench
# median: one repeat on a shared host is noisy, so CI floors at a quarter
# of baseline rather than the 0.75 a manual perf_gate.sh run uses.  On
# failure the gate names the worst workload.
sh scripts/perf_gate.sh --tolerance 0.25

echo "== traced smoke sim + invariant checker =="
# A short traced lease run must replay through the checker with zero
# violations; tracedump exits non-zero on any.
dune exec bin/simulate.exe -- -p leases -t 10 -n 4 -d 60 \
  --trace /tmp/leases_smoke.jsonl > /dev/null
dune exec bin/tracedump.exe -- /tmp/leases_smoke.jsonl --check-only

echo "== negative control: the checker flags a partitioned callback run =="
# A checker that never fires is untested.  Andrew-style callbacks give up
# on an unreachable holder after a transport timeout and commit anyway, so
# a partition leaves a stale window: tracedump must exit non-zero on that
# trace, naming the stale hits, and zero on leases run with the same flags.
nc_flags="-t 10 -w shared-heavy -n 4 -d 300 -s 3 --fault partition=0,100,60"
# shellcheck disable=SC2086 # word-split the shared flags
dune exec bin/simulate.exe -- -p callback $nc_flags \
  --trace /tmp/callback_partition.jsonl > /dev/null
if nc_out=$(dune exec bin/tracedump.exe -- /tmp/callback_partition.jsonl --check-only 2>&1); then
  echo "tracedump passed the partitioned callback trace; its stale window went unflagged" >&2
  exit 1
fi
echo "$nc_out" | grep -q "stale-hit" || {
  echo "tracedump failed the partitioned callback trace without naming a stale hit:" >&2
  echo "$nc_out" >&2
  exit 1
}
# shellcheck disable=SC2086
dune exec bin/simulate.exe -- -p leases $nc_flags \
  --trace /tmp/leases_partition.jsonl > /dev/null
dune exec bin/tracedump.exe -- /tmp/leases_partition.jsonl --check-only > /dev/null

echo "== telemetry residual gate =="
# A pinned steady-state no-fault run sampled every 30 s: the measured
# consistency load past the 300 s cold-cache warm-up must agree with the
# Section 3.1 analytic prediction within 25 % (the seeded run sits near
# +1.5 %; see EXPERIMENTS.md for the tolerance derivation), and a
# telemetry-enabled traced run must stay checker-clean — sampling may not
# perturb the protocol.
dune exec bin/simulate.exe -- -p leases -t 10 -n 1 -d 1500 -s 7 \
  --telemetry 30 --telemetry-out /tmp/leases_telemetry.json \
  --trace /tmp/leases_telemetry_smoke.jsonl > /dev/null
dune exec bin/tracedump.exe -- /tmp/leases_telemetry_smoke.jsonl --check-only
dune exec bin/telemetry_view.exe -- /tmp/leases_telemetry.json --gate-residual 0.25

echo "== latency conservation gate =="
# A seeded lossy run with the critical-path analyzer attached: every
# completed operation's attributed phases must sum to its client-observed
# latency within 1e-9 s (they telescope by construction, so any gap is an
# attribution bug), and the leases-latency/1 export must replay through
# leases-latency with the same verdict.
dune exec bin/simulate.exe -- -p leases -t 10 -n 6 -d 120 -s 3 --loss 0.05 \
  --latency --latency-out /tmp/leases_latency.json > /dev/null
dune exec bin/latency_view.exe -- /tmp/leases_latency.json --gate-conserve -q

echo "== sharded smoke sim + invariant checker =="
# A four-shard deployment with a shard failover mid-run must replay
# through the multi-server checker with zero violations; --map-seed
# mirrors the run's -s so tracedump rebuilds the same shard map.
dune exec bin/simulate.exe -- -p leases -t 10 -n 6 -d 120 -s 3 --shards 4 \
  --fault crash-shard=1,40,8 --trace /tmp/leases_shard_smoke.jsonl > /dev/null
dune exec bin/tracedump.exe -- /tmp/leases_shard_smoke.jsonl \
  --shards 4 --map-seed 3 --check-only

echo "== split-mode smoke sim + invariant checker =="
# The split deployment runs each shard as its own sub-simulation, here two
# at a time on parallel domains, with a telemetry sampler on every part.
# Through a shard crash and a client crash its merged trace must replay
# through the multi-server checker with zero violations.
dune exec bin/simulate.exe -- -p leases -t 10 -n 6 -d 120 -s 3 --shards 4 --domains 2 \
  --telemetry 10 --fault crash-shard=1,40,8 --fault crash-client=2,30,10 \
  --trace /tmp/leases_split_smoke.jsonl > /dev/null
dune exec bin/tracedump.exe -- /tmp/leases_split_smoke.jsonl \
  --shards 4 --map-seed 3 --check-only

echo "== fault campaign (25 seeded schedules) =="
# A pinned random fault campaign with the register oracle and the trace
# invariant checker armed on every schedule; leases-campaign exits
# non-zero if any schedule finds a safety violation, after shrinking it
# to a minimal reproducer command line.
dune exec bin/campaign.exe -- --seed 1 --schedules 25 --shrink

echo "== campaign reproducers replay through leases-sim =="
# Every schedule of the same campaign prints the leases-sim command that
# reproduces it.  Run each one, one-shard and sharded alike, and require
# the schedule's ops_issued, dropped_ops and commits back.
dune exec bin/campaign.exe -- --seed 1 --schedules 25 --json > /tmp/leases_campaign.json
jq -r '.results[].outcome | [.ops_issued, .dropped_ops, .commits, .schedule.command] | @tsv' \
  /tmp/leases_campaign.json > /tmp/leases_reproducers.tsv
tab=$(printf '\t')
replayed=0
mismatched=0
while IFS="$tab" read -r ops dropped commits cmd; do
  replayed=$((replayed + 1))
  out=$(eval "_build/default/bin/simulate.exe ${cmd#leases-sim } --json" 2>&1) || true
  got=$(printf '%s\n' "$out" | jq -r '[.ops_issued, .dropped_ops, .commits] | @tsv' 2>/dev/null) \
    || got=$out
  if [ "$got" != "$ops$tab$dropped$tab$commits" ]; then
    echo "reproducer does not replay: $cmd" >&2
    echo "  campaign: ops_issued dropped_ops commits = $ops $dropped $commits; leases-sim: $got" >&2
    mismatched=$((mismatched + 1))
  fi
done < /tmp/leases_reproducers.tsv
if [ "$replayed" -ne 25 ] || [ "$mismatched" -ne 0 ]; then
  echo "$mismatched of $replayed campaign reproducers failed to replay" >&2
  exit 1
fi
echo "$replayed reproducers replayed"

echo "== all checks passed =="
