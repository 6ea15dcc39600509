#!/bin/sh
# Repo gate: build, full test suite, seeded-figures digest, the perfbench
# perf gate, then traced smokes.  Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

# Every file the gate writes goes to one private directory, so concurrent
# runs (a parent and a change, say) never overwrite each other's traces.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

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

echo "== bad input fails loudly =="
# A NaN loss, a non-finite clock drift, a negative schedule count and a
# trace op on a file id outside the packed op's 26-bit field are bad
# input.  Each must exit 124 (the CLI's usage error) within 10 s with an
# error naming the value; unchecked, a NaN drift freezes a clock, a NaN
# loss or an infinite drift runs silently, a negative count never returns,
# file 10^8 costs the store's dense history ~780 MB and file 2^40 runs the
# process out of memory.
bad_input() {
  value=$1
  shift
  status=0
  err=$(timeout 10 "$@" 2>&1 > /dev/null) || status=$?
  if [ "$status" -eq 0 ]; then
    echo "accepted bad input $value: $*" >&2
    exit 1
  fi
  if [ "$status" -ne 124 ]; then
    echo "exit $status, not 124, on bad input $value: $*" >&2
    echo "$err" >&2
    exit 1
  fi
  case "$err" in
    *"$value"*) ;;
    *)
      echo "exit $status without an error naming $value: $*" >&2
      echo "$err" >&2
      exit 1
      ;;
  esac
}
sim="_build/default/bin/simulate.exe -p leases -t 10 -w shared-heavy -n 4 -d 300 -s 3"
# shellcheck disable=SC2086 # word-split the shared command
bad_input nan $sim --loss nan
# shellcheck disable=SC2086
bad_input nan $sim --fault client-drift=0,1,nan
# shellcheck disable=SC2086
bad_input inf $sim --fault server-drift=1,inf
bad_input -3 _build/default/bin/campaign.exe --schedules=-3
for file in 100000000 1099511627776; do
  printf '# one op on a file id beyond the packed field\n100 0 R %s\n' "$file" \
    > "$tmp/leases_bad_ops_$file.txt"
  # shellcheck disable=SC2086
  bad_input "line 2: Trace.Builder.add: file $file" $sim --ops "$tmp/leases_bad_ops_$file.txt"
done

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
# Three untraced perfbench runs of each benchmark workload at full size.
# They check every workload's simulated output against perfbench/expected/
# (the smoke run in dune runtest only sees the ~1 % shapes), and gate the
# median of each workload's sim_s_per_ref_s at 0.25x the committed
# perfbench median: a shared host is noisy, so CI floors at a quarter of
# baseline rather than the 0.75 a manual perf_gate.sh run uses.  Each
# workload's median setup_s (trace generation) may reach twice its
# committed median at most, whatever the tolerance, and its peak_rss_mb, which
# repeats to within ~0.25 MB, may exceed its committed median by
# BENCHMARK.json's 0.15 bound at most.  On failure the gate names the
# worst workload.
sh scripts/perf_gate.sh --tolerance 0.25

echo "== traced smoke sim + invariant checker =="
# A short traced lease run must replay through the checker with zero
# violations; tracedump exits non-zero on any.
dune exec bin/simulate.exe -- -p leases -t 10 -n 4 -d 60 \
  --trace "$tmp/leases_smoke.jsonl" > /dev/null
dune exec bin/tracedump.exe -- "$tmp/leases_smoke.jsonl" --check-only

echo "== negative controls: the checker flags partitioned callbacks and TTL hints =="
# A checker that never fires is untested.  Andrew-style callbacks give up
# on an unreachable holder after a transport timeout and commit anyway, so
# a partition leaves a stale window; a TTL hint is no promise at all, so a
# read inside the TTL after another client's write is stale.  tracedump
# must exit non-zero on each protocol's trace, naming the stale hits, and
# zero on leases run with the same flags.
nc_flags="-t 10 -w shared-heavy -n 4 -d 300 -s 3 --fault partition=0,100,60"
for proto in callback ttl; do
  # shellcheck disable=SC2086 # word-split the shared flags
  dune exec bin/simulate.exe -- -p "$proto" $nc_flags \
    --trace "$tmp/${proto}_partition.jsonl" > /dev/null
  if nc_out=$(dune exec bin/tracedump.exe -- "$tmp/${proto}_partition.jsonl" --check-only 2>&1)
  then
    echo "tracedump passed the partitioned $proto trace; its stale reads went unflagged" >&2
    exit 1
  fi
  echo "$nc_out" | grep -q "stale-hit" || {
    echo "tracedump failed the partitioned $proto trace without naming a stale hit:" >&2
    echo "$nc_out" >&2
    exit 1
  }
done
# shellcheck disable=SC2086
dune exec bin/simulate.exe -- -p leases $nc_flags \
  --trace "$tmp/leases_partition.jsonl" > /dev/null
dune exec bin/tracedump.exe -- "$tmp/leases_partition.jsonl" --check-only > /dev/null

echo "== telemetry residual gate =="
# A pinned steady-state no-fault run sampled every 30 s: the measured
# consistency load past the 300 s cold-cache warm-up must agree with the
# Section 3.1 analytic prediction within 25 % (the seeded run sits near
# +1.5 %; see EXPERIMENTS.md for the tolerance derivation), and a
# telemetry-enabled traced run must stay checker-clean — sampling may not
# perturb the protocol.
dune exec bin/simulate.exe -- -p leases -t 10 -n 1 -d 1500 -s 7 \
  --telemetry 30 --telemetry-out "$tmp/leases_telemetry.json" \
  --trace "$tmp/leases_telemetry_smoke.jsonl" > /dev/null
dune exec bin/tracedump.exe -- "$tmp/leases_telemetry_smoke.jsonl" --check-only
dune exec bin/telemetry_view.exe -- "$tmp/leases_telemetry.json" --gate-residual 0.25

echo "== latency conservation gate =="
# A seeded lossy run with the critical-path analyzer attached: every
# completed operation's attributed phases must sum to its client-observed
# latency within 1e-9 s (they telescope by construction, so any gap is an
# attribution bug), and the leases-latency/1 export must replay through
# leases-latency with the same verdict.
dune exec bin/simulate.exe -- -p leases -t 10 -n 6 -d 120 -s 3 --loss 0.05 \
  --latency --latency-out "$tmp/leases_latency.json" > /dev/null
dune exec bin/latency_view.exe -- "$tmp/leases_latency.json" --gate-conserve -q

# tracedump's full output on a sharded trace must also carry the lease
# lifecycle tables, which the multi-server fold reconstructs per shard.
sharded_tables() {
  out=$(dune exec bin/tracedump.exe -- "$1" --shards 4 --map-seed 3)
  case "$out" in
    *"== lease lifecycles"*) ;;
    *)
      echo "tracedump printed no lease lifecycle table for the sharded trace $1:" >&2
      echo "$out" >&2
      exit 1
      ;;
  esac
}

echo "== sharded smoke sim + invariant checker =="
# A four-shard deployment with a shard failover mid-run must replay
# through the multi-server checker with zero violations; --map-seed
# mirrors the run's -s so tracedump rebuilds the same shard map.
dune exec bin/simulate.exe -- -p leases -t 10 -n 6 -d 120 -s 3 --shards 4 \
  --fault crash-shard=1,40,8 --trace "$tmp/leases_shard_smoke.jsonl" > /dev/null
dune exec bin/tracedump.exe -- "$tmp/leases_shard_smoke.jsonl" \
  --shards 4 --map-seed 3 --check-only
sharded_tables "$tmp/leases_shard_smoke.jsonl"

echo "== split-mode smoke sim + invariant checker =="
# The split deployment runs each shard as its own sub-simulation, here two
# at a time on parallel domains, with a telemetry sampler on every part.
# Through a shard crash and a client crash its merged trace must replay
# through the multi-server checker with zero violations.
dune exec bin/simulate.exe -- -p leases -t 10 -n 6 -d 120 -s 3 --shards 4 --domains 2 \
  --telemetry 10 --fault crash-shard=1,40,8 --fault crash-client=2,30,10 \
  --trace "$tmp/leases_split_smoke.jsonl" > /dev/null
dune exec bin/tracedump.exe -- "$tmp/leases_split_smoke.jsonl" \
  --shards 4 --map-seed 3 --check-only
sharded_tables "$tmp/leases_split_smoke.jsonl"

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
dune exec bin/campaign.exe -- --seed 1 --schedules 25 --json > "$tmp/leases_campaign.json"
jq -r '.results[].outcome | [.ops_issued, .dropped_ops, .commits, .schedule.command] | @tsv' \
  "$tmp/leases_campaign.json" > "$tmp/leases_reproducers.tsv"
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
done < "$tmp/leases_reproducers.tsv"
if [ "$replayed" -ne 25 ] || [ "$mismatched" -ne 0 ]; then
  echo "$mismatched of $replayed campaign reproducers failed to replay" >&2
  exit 1
fi
echo "$replayed reproducers replayed"

echo "== written workload traces replay through leases-sim =="
# leases-sim -w, leases-tracegen -w and the campaign's schedules draw
# their traces from one table of workload kinds.  For each kind, the
# trace leases-tracegen writes must drive leases-sim --ops to exactly the
# metrics leases-sim prints when it generates the same kind itself.
for kind in poisson bursty shared-heavy; do
  _build/default/bin/tracegen.exe -w "$kind" -n 5 -d 400 -s 7 -o "$tmp/leases_$kind.ops" \
    2> "$tmp/leases_$kind.summary"
  from_file=$(_build/default/bin/simulate.exe -p leases -t 10 -n 5 -d 400 -s 7 \
    --ops "$tmp/leases_$kind.ops" --json)
  generated=$(_build/default/bin/simulate.exe -p leases -t 10 -w "$kind" -n 5 -d 400 -s 7 --json)
  if [ "$from_file" != "$generated" ]; then
    echo "leases-sim --ops on leases-tracegen -w $kind differs from leases-sim -w $kind:" >&2
    echo "  --ops: $from_file" >&2
    echo "  -w:    $generated" >&2
    exit 1
  fi
done
echo "3 workload kinds replayed"

echo "== all checks passed =="
