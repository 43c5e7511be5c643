#!/bin/sh
# Runs both bench binaries: build/bench/figures (every paper figure and
# ablation phase, on the simulated clock) and build/bench/audit (exact
# persist, copy and allocator counts).  Host-time layer benchmarks live in
# perfbench/.
#
# Each bench runs with the persistency-order checker attached
# (PMEMCPY_PERSIST_CHECK=1) and tracing on
# (PMEMCPY_TRACE=<bench>.trace.json): each bench writes a Chrome
# trace_event JSON next to its binary plus a .stats.json, and the stats are
# echoed after the bench output.  Their counters carry the device's
# store/flush/fence traffic and the checker's lint tallies, so redundant
# CLWB/SFENCE traffic shows up next to the timing numbers it explains.
# With tracing on, figures also prints a phase,<write|read>,... line after
# each Figure 6/7-style write or read: the charge breakdown of the slowest
# rank.
PMEMCPY_PERSIST_CHECK=1
export PMEMCPY_PERSIST_CHECK
for b in build/bench/figures build/bench/audit; do
  echo "===================================================================="
  echo "== $b"
  echo "===================================================================="
  PMEMCPY_TRACE="$b.trace.json" "$b" || echo "BENCH FAILED: $b"
  if [ -f "$b.trace.json.stats.json" ]; then
    echo "-- trace stats ($b.trace.json.stats.json)"
    cat "$b.trace.json.stats.json"
    echo
  fi
  echo
done
