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
echo "== daemon re-plan gate (drifted-tick re-plan vs full re-solve) =="
# A drifted tick re-plans from three starts, each solved and
# regularized on its own (the rate-greedy initial layout, the deployed
# layout and SEE over the live targets; DESIGN.md §14), not the cold
# multistart plus the deployed layout. The re-plan, scheduler included, must stay
# <= 0.75x a cold recommend on the same problem, or the daemon is back
# to paying a full multistart per drifted tick. In-run comparison, so
# machine drift cancels out.
replan_ns=$(median_of "daemon/replan" daemon)
if [ -z "$replan_ns" ]; then
    echo "error: daemon/replan missing from results/BENCH_daemon.json" >&2
    exit 1
fi
ratio=$(awk -v p="$replan_ns" -v r="$resolve_ns" 'BEGIN { printf "%.2f", p / r }')
echo "daemon: replan ${replan_ns} ns / full_resolve ${resolve_ns} ns = ${ratio}x"
if awk -v p="$replan_ns" -v r="$resolve_ns" 'BEGIN { exit !(p / r <= 0.75) }'; then
    echo "daemon re-plan gate passed (re-plan <= 0.75x a full re-solve)"
else
    echo "error: a drifted-tick re-plan costs ${ratio}x a full re-solve (gate: 0.75x)" >&2
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

echo
echo "== stress warm-cache gate (1,000 cached fits vs a small cache) =="
# Batch workers share the session's cached values and merge back only
# the entries they added (DESIGN.md §9), so a tick's cost must not grow
# with the number of fits the session holds. The same 8-request tick
# against a fit cache already holding 1,000 entries must stay within
# 1.15x of the tick against its own 8. In-run comparison, so machine
# drift cancels out.
warm_ns=$(median_of "stress/tick_served_b8_warm1000" stress)
if [ -z "$warm_ns" ]; then
    echo "error: stress/tick_served_b8_warm1000 missing from results/BENCH_stress.json" >&2
    exit 1
fi
ratio=$(awk -v w="$warm_ns" -v s="$served_ns" 'BEGIN { printf "%.2f", w / s }')
echo "stress: tick_served_b8_warm1000 ${warm_ns} ns / tick_served_b8 ${served_ns} ns = ${ratio}x"
if awk -v w="$warm_ns" -v s="$served_ns" 'BEGIN { exit !(w / s <= 1.15) }'; then
    echo "warm-cache gate passed (a 1,000-fit session costs a tick <= 1.15x)"
else
    echo "error: a 1,000-fit session makes a tick ${ratio}x slower (gate: 1.15x)" >&2
    exit 1
fi

echo
echo "== calibration demand gate (demanded columns vs the whole grid) =="
# A cold advise calibrates only the (size, run) columns its fitted
# workloads can reach (DESIGN.md §9). The OLAP1-21 demand on four disks
# must stay <= 0.6x a whole default-grid calibration, or the demand has
# drifted back toward a full sweep. In-run comparison, so machine drift
# cancels out.
full_ns=$(median_of "calibrate_disk_default_full" models)
demanded_ns=$(median_of "calibrate_disk_default_demanded" models)
if [ -z "$full_ns" ] || [ -z "$demanded_ns" ]; then
    echo "error: calibration demand rows missing from results/BENCH_models.json" >&2
    echo "(expected calibrate_disk_default_full and calibrate_disk_default_demanded)" >&2
    exit 1
fi
ratio=$(awk -v d="$demanded_ns" -v f="$full_ns" 'BEGIN { printf "%.2f", d / f }')
echo "models: calibrate_disk_default_demanded ${demanded_ns} ns / calibrate_disk_default_full ${full_ns} ns = ${ratio}x"
if awk -v d="$demanded_ns" -v f="$full_ns" 'BEGIN { exit !(d / f <= 0.6) }'; then
    echo "calibration demand gate passed (demanded <= 0.6x the whole grid)"
else
    echo "error: the demanded calibration costs ${ratio}x the whole grid (gate: 0.6x)" >&2
    exit 1
fi

echo
echo "== gated-rebuild gate (half-gated vs dense full re-evaluation) =="
# A rebuild never fills or adds the scratch row of a gated fraction
# (DESIGN.md §10), and a gated cell skips its cost-model calls. With
# each row on two of four targets, a rebuild must stay <= 0.8x a dense
# one on the same problem size, or the rebuild has gone back to
# reducing every leaf. In-run comparison, so machine drift cancels out.
dense_ns=$(median_of "eval_rebuild/n40_m4" solver)
gated_ns=$(median_of "eval_rebuild/n40_m4_gated" solver)
if [ -z "$dense_ns" ] || [ -z "$gated_ns" ]; then
    echo "error: eval_rebuild rows missing from results/BENCH_solver.json" >&2
    echo "(expected eval_rebuild/n40_m4 and eval_rebuild/n40_m4_gated)" >&2
    exit 1
fi
ratio=$(awk -v g="$gated_ns" -v d="$dense_ns" 'BEGIN { printf "%.2f", g / d }')
echo "solver: eval_rebuild/n40_m4_gated ${gated_ns} ns / eval_rebuild/n40_m4 ${dense_ns} ns = ${ratio}x"
if awk -v g="$gated_ns" -v d="$dense_ns" 'BEGIN { exit !(g / d <= 0.8) }'; then
    echo "gated-rebuild gate passed (half-gated rebuild <= 0.8x a dense one)"
else
    echo "error: a half-gated rebuild costs ${ratio}x a dense one (gate: 0.8x)" >&2
    exit 1
fi
