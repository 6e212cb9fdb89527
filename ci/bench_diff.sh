#!/usr/bin/env bash
# Bench trajectory gate: rerun every micro-bench suite and diff the
# fresh `results/BENCH_<suite>.json` reports against the committed
# baselines in `results/baselines/`.
#
#   ci/bench_diff.sh              # report only
#   ci/bench_diff.sh --fail-over 25   # exit 1 on any >25% regression
#
# Knobs pass through to the harness: WASLA_BENCH_SAMPLES,
# WASLA_BENCH_TARGET_MS (lower both for a quick smoke run) and
# WASLA_THREADS. Refresh the baselines after an intentional perf
# change with:
#
#   cp results/BENCH_*.json results/baselines/
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== rerun micro-bench suites (offline) =="
cargo bench --offline

echo
echo "== diff against results/baselines/ =="
cargo run --release --offline --bin repro -- bench-diff "$@"

# Gates compare two benches from the same fresh run, so machine drift
# cancels out. The harness emits "id" then "median_ns" lines per bench,
# so a small awk state machine pairs them up.
median_of() {
    awk -v want="\"$1\"" '
        /"id":/       { id = $2; sub(/,$/, "", id) }
        /"median_ns":/ && id == want { v = $2; sub(/,$/, "", v); print v; exit }
    ' "results/BENCH_$2.json"
}

echo
echo "== daemon tick-cost gate (no-drift tick vs full re-solve) =="
# The control loop's economics (DESIGN.md §14): a quiet tick is one
# EvalEngine pass over the deployed layout, a drifted tick pays for a
# warm-started solve. The cheap path must stay >= 50x cheaper than the
# full re-solve or the daemon's "probe every tick, solve rarely"
# design stops paying for itself. In-run comparison, so machine drift
# cancels out.
tick_ns=$(median_of "daemon/no_drift_tick" daemon)
resolve_ns=$(median_of "daemon/full_resolve" daemon)
if [ -z "$tick_ns" ] || [ -z "$resolve_ns" ]; then
    echo "error: daemon sweep missing from results/BENCH_daemon.json" >&2
    echo "(expected daemon/no_drift_tick and daemon/full_resolve)" >&2
    exit 1
fi
ratio=$(awk -v r="$resolve_ns" -v t="$tick_ns" 'BEGIN { printf "%.1f", r / t }')
echo "daemon: full_resolve ${resolve_ns} ns / no_drift_tick ${tick_ns} ns = ${ratio}x"
if awk -v r="$resolve_ns" -v t="$tick_ns" 'BEGIN { exit !(r / t >= 50.0) }'; then
    echo "daemon gate passed (no-drift tick >= 50x cheaper than re-solve)"
else
    echo "error: no-drift tick is only ${ratio}x cheaper than a full re-solve (gate: 50x)" >&2
    exit 1
fi

echo
echo "== stress admission-control gate (rejected tick vs served tick) =="
# Load shedding only defends the service if rejecting a request is
# nearly free: a shed slot must skip calibration, the trace run, and
# the solve entirely. The rejected tick must stay >= 50x cheaper than
# the served tick or admission control has become its own overload
# source. In-run comparison, so machine drift cancels out.
served_ns=$(median_of "stress/tick_served_b8" stress)
rejected_ns=$(median_of "stress/tick_rejected_b8" stress)
if [ -z "$served_ns" ] || [ -z "$rejected_ns" ]; then
    echo "error: stress sweep missing from results/BENCH_stress.json" >&2
    echo "(expected stress/tick_served_b8 and stress/tick_rejected_b8)" >&2
    exit 1
fi
ratio=$(awk -v s="$served_ns" -v r="$rejected_ns" 'BEGIN { printf "%.1f", s / r }')
echo "stress: tick_served ${served_ns} ns / tick_rejected ${rejected_ns} ns = ${ratio}x"
if awk -v s="$served_ns" -v r="$rejected_ns" 'BEGIN { exit !(s / r >= 50.0) }'; then
    echo "stress gate passed (rejection >= 50x cheaper than service)"
else
    echo "error: rejecting a request is only ${ratio}x cheaper than serving it (gate: 50x)" >&2
    exit 1
fi
