#!/bin/sh
# Repo gate: build, full test suite, then a quick perf-harness run so the
# bench entry point cannot rot.  Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

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

echo "== perf gate (bench_core --quick vs scripts/perf_baseline.json) =="
# Quick-mode end-to-end sweeps are noisy, so CI gates at a looser
# tolerance than the 0.75 default a manual perf_gate.sh run uses — but
# after the O(N^2) grant-path fix the headroom at every sweep point is
# large enough to tighten the floor to 0.25x baseline.  On failure the
# gate prints the worst regressing sweep point.
sh scripts/perf_gate.sh --tolerance 0.25

echo "== traced smoke sim + invariant checker =="
# A short traced lease run must replay through the checker with zero
# violations; tracedump exits non-zero on any.
dune exec bin/simulate.exe -- -p leases -t 10 -n 4 -d 60 \
  --trace /tmp/leases_smoke.jsonl > /dev/null
dune exec bin/tracedump.exe -- /tmp/leases_smoke.jsonl --check-only

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

echo "== fault campaign (25 seeded schedules) =="
# A pinned random fault campaign with the register oracle and the trace
# invariant checker armed on every schedule; leases-campaign exits
# non-zero if any schedule finds a safety violation, after shrinking it
# to a minimal reproducer command line.
dune exec bin/campaign.exe -- --seed 1 --schedules 25 --shrink

echo "== all checks passed =="
