#!/bin/sh
# Hot-path guard: no polymorphic comparison in the simulator's core.
#
# Disassembles the benchmark binary and fails, naming each function, when
# code from the simulation libraries (Leases, Shard, Simtime, Clock,
# Netsim, Vstore, Host, Int_tbl, Oracle, Prng, Stats, Workload) or from
# the observers a campaign runs on every event (Trace, Telemetry,
# Fault_campaign) calls the runtime's generic comparison (caml_compare,
# caml_equal, caml_notequal, caml_lessthan, caml_lessequal,
# caml_greaterthan, caml_greaterequal) or Stdlib's out-of-line
# polymorphic min, max or compare.  On ints these cost a C call where one
# machine compare would do: annotate the operands' type, or use Int.min /
# Int.max / Int.compare or the Time operators.
#
# It also fails, naming the library, when one of those libraries has no
# function in the binary: a renamed library would otherwise drop out of the
# check unnoticed.
#
# Usage: poly_compare_guard.sh [BINARY]
#   BINARY defaults to _build/default/perfbench/main.exe (build it first).
set -eu

cd "$(dirname "$0")/.."

BIN=${1:-_build/default/perfbench/main.exe}

command -v objdump > /dev/null 2>&1 || {
  echo "poly_compare_guard.sh: objdump not found; cannot inspect $BIN for polymorphic compares" >&2
  exit 1
}
[ -f "$BIN" ] || { echo "poly_compare_guard.sh: no binary at $BIN (run dune build)" >&2; exit 1; }

LIBS="Leases Shard Simtime Clock Netsim Vstore Host Int_tbl Oracle Prng Stats Workload Trace Telemetry Fault_campaign"

# One line per (function, callee): the call count, the function as
# Module.Sub.name, its symbol, and the callee.  Generic comparisons are
# reached through caml_c_call, so the callee shows up as the commented
# address operand of the preceding lea; Stdlib's min/max/compare are direct
# calls.  Then one line per library with no function at all.
hits=$(objdump -d "$BIN" | awk -v libs="$LIBS" '
  BEGIN { nlibs = split(libs, lib, " "); for (i = 1; i <= nlibs; i++) wanted[lib[i]] = 1 }
  /^[0-9a-f]+ <[^>]+>:$/ {
    fn = substr($2, 2, length($2) - 3)
    owner = ""
    if (fn ~ /^caml/) {
      owner = substr(fn, 5); sub(/(__|\.).*/, "", owner)
      if (owner in wanted) seen[owner] = 1; else owner = ""
    }
    next
  }
  owner != "" {
    if (match($0, /<(caml_(compare|equal|notequal|lessthan|lessequal|greaterthan|greaterequal)|camlStdlib\.(min|max|compare)_[0-9]+)>/))
      n[fn SUBSEP substr($0, RSTART + 1, RLENGTH - 2)]++
  }
  END {
    for (k in n) {
      split(k, p, SUBSEP)
      name = substr(p[1], 5); gsub(/__/, ".", name); sub(/_[0-9]+$/, "", name)
      callee = p[2]; sub(/_[0-9]+$/, "", callee)
      printf "%s (%s) calls %s x%d\n", name, p[1], callee, n[k]
    }
    for (i = 1; i <= nlibs; i++)
      if (!(lib[i] in seen)) printf "library %s has no function in the binary (caml%s prefix)\n", lib[i], lib[i]
  }' | sort)

if [ -n "$hits" ]; then
  echo "polymorphic compare on the hot path, or a library missing from the check, in $BIN:" >&2
  echo "$hits" | sed 's/^/  /' >&2
  exit 1
fi
echo "no polymorphic compare in the simulation libraries of $BIN ($LIBS)"
