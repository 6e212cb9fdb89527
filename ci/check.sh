#!/usr/bin/env bash
# Offline CI gate for the WASLA workspace.
#
# The build is hermetic by policy: every dependency is an in-tree path
# crate, so everything here must succeed with no network and no crate
# registry. Run from anywhere inside the repository.
set -euo pipefail

cd "$(dirname "$0")/.."

step() { echo; echo "== $* =="; }

step "dependency allowlist (path-only, no registry or git deps)"
# Any `version = "..."` or `git = "..."` dependency spec would reach
# outside the tree; `[workspace.dependencies]` may declare only
# `path = ...` entries and crates may only consume them.
if grep -RnE '\{[^}]*(version|git)[[:space:]]*=' Cargo.toml crates/*/Cargo.toml; then
    echo "error: non-path dependency found (see matches above)" >&2
    exit 1
fi
if grep -RnE '^[a-zA-Z0-9_-]+[[:space:]]*=[[:space:]]*"' Cargo.toml crates/*/Cargo.toml \
    | grep -vE '(name|version|edition|license|repository|rust-version|description|path|resolver)[[:space:]]*='; then
    echo "error: bare-version dependency found (see matches above)" >&2
    exit 1
fi

step "formatting"
cargo fmt --all --check

step "release build (offline)"
cargo build --release --offline --workspace

step "raw thread use confined to simlib::par"
# The concurrency policy (DESIGN.md) routes all parallelism through
# `wasla_simlib::par` so determinism is auditable in one place. Any
# other `std::thread` use (scoped pools, ad-hoc spawns) is a policy
# violation; `thread::sleep`-style uses would be too — simulators model
# time, they don't wait on it.
if grep -RnE 'std::thread|[^_a-zA-Z]thread::(spawn|scope|sleep|Builder)' crates/*/src \
    | grep -v 'crates/simlib/src/par.rs'; then
    echo "error: raw std::thread use outside crates/simlib/src/par.rs (see matches above)" >&2
    echo "route parallel work through wasla_simlib::par instead" >&2
    exit 1
fi

step "panic-site ratchet (library crates return typed errors)"
# The error policy (DESIGN.md §Error hierarchy) threads `WaslaError`
# through every public entry point; library code must not add new
# `unwrap()`/`panic!`-family sites. `ci/panic_budget.txt` grandfathers
# the existing ones per file; `#[cfg(test)]` modules (which sit at the
# end of each file, by convention) and the bench harness crate are
# exempt. The gate fails when a file exceeds its budget.
panic_sites() {
    # Non-test, non-comment panic-family sites in one source file.
    awk '/^#\[cfg\(test\)\]/{exit} {print}' "$1" \
        | grep -vE '^[[:space:]]*(//|#)' \
        | grep -cE '\.unwrap\(\)|panic!\(|\.expect\(|unreachable!\(|todo!\(|unimplemented!\(' \
        || true
}
ratchet_failed=0
for f in $(find crates/*/src -name '*.rs' | grep -v '^crates/bench/' | sort); do
    count=$(panic_sites "$f")
    budget=$(awk -v f="$f" '!/^#/ && $2 == f {print $1}' ci/panic_budget.txt)
    budget=${budget:-0}
    if [ "$count" -gt "$budget" ]; then
        echo "error: $f has $count panic-family sites (budget $budget)" >&2
        ratchet_failed=1
    elif [ "$count" -lt "$budget" ]; then
        echo "note: $f is under budget ($count < $budget) — tighten ci/panic_budget.txt"
    fi
done
if [ "$ratchet_failed" -ne 0 ]; then
    echo "return WaslaError (or the layer's typed error) instead of panicking," >&2
    echo "or move the site into a #[cfg(test)] module" >&2
    exit 1
fi

step "hot-loop allocation ratchet (solver closures and simulator hot path stay allocation-free)"
# The evaluation-engine work (DESIGN.md §10) hoisted every per-call
# allocation out of the solver's objective/gradient/constraint
# closures (and from the per-row simplex projection they call), and
# the simulator hot path (DESIGN.md §2) out of the storage system's
# per-request path (submit, try_start, finish_part, the advance loop)
# and the engine's `issue` and event loop. Those hot regions are
# fenced with `// hot-closure-begin` / `// hot-closure-end` markers.
# The gate extracts each fenced region and fails on allocation idioms
# creeping back in — and on a file losing its markers, so the fence
# can't be deleted to dodge the grep.
hot_files="crates/core/src/optimizer.rs crates/core/src/eval/engine.rs \
crates/core/src/eval/grad.rs crates/solver/src/auglag.rs crates/solver/src/simplex.rs \
crates/storage/src/system.rs crates/exec/src/engine.rs"
alloc_failed=0
for f in $hot_files; do
    begins=$(grep -c 'hot-closure-begin' "$f" || true)
    ends=$(grep -c 'hot-closure-end' "$f" || true)
    if [ "$begins" -eq 0 ] || [ "$begins" -ne "$ends" ]; then
        echo "error: $f has $begins hot-closure-begin / $ends hot-closure-end markers" >&2
        alloc_failed=1
        continue
    fi
    if awk '/hot-closure-begin/{inr=1} inr{print FILENAME":"FNR": "$0} /hot-closure-end/{inr=0}' "$f" \
        | grep -E 'Layout::from_flat|Vec::new\(|\.to_vec\(|vec!\['; then
        echo "error: allocation idiom inside a hot-closure region of $f (see matches above)" >&2
        alloc_failed=1
    fi
done
if [ "$alloc_failed" -ne 0 ]; then
    echo "hoist the allocation into a reusable scratch buffer (see crates/core/src/eval/)" >&2
    exit 1
fi

step "oracle ratchet (one evaluator, one gradient on the production surface)"
# Production runs one evaluator (EvalEngine), one gradient (grad_at)
# and one re-plan entry point (readvise_incremental); the equivalence
# oracles live in tests. Fail if a retired oracle path reappears, or
# if non-test code scores with the from-scratch UtilizationEstimator
# outside its own module and the crate-root re-export (the reference
# the engine is tested against; the experiment crate may use it).
# Like the panic-site ratchet, `#[cfg(test)]` cuts each file and
# comment lines are skipped.
if grep -RnwE 'EvalPath|GradPath|ScratchEval|DeltaOracle|EngineOracle|parse_grad_path' crates/*/src; then
    echo "error: a retired oracle path reappeared under crates/*/src (see matches above)" >&2
    echo "keep equivalence oracles in tests; production has one evaluator and one gradient" >&2
    exit 1
fi
oracle_sites=$(for f in $(find crates/*/src -name '*.rs' | sort); do
    case "$f" in
        crates/bench/*|crates/core/src/estimator.rs) continue ;;
    esac
    awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' "$f" \
        | grep -w 'UtilizationEstimator' \
        | grep -vE '^[^:]+:[0-9]+: [[:space:]]*//' \
        | grep -vE '^crates/core/src/lib\.rs:[0-9]+: pub use estimator::UtilizationEstimator;$' \
        || true
done)
if [ -n "$oracle_sites" ]; then
    echo "$oracle_sites" >&2
    echo "error: non-test code scores with UtilizationEstimator (see matches above)" >&2
    echo "score through wasla_core::EvalEngine (set_layout, committed_utilizations, committed_score)" >&2
    exit 1
fi

step "ingestion ratchet (the op-log is the only captured trace)"
# The execution engine captures one trace representation, the op-log,
# and `fit_oplog_streamed` is the one fit over it (DESIGN.md §12).
# Fail if the retired block-trace path or its salvage twin reappears.
if grep -RnwE 'BlockTraceRecord|fit_workloads|fit_workloads_lossy|SalvageReport|content_hash_damaged|capture_trace|as_block_record' crates/*/src \
    || grep -RnE '(^|[^_a-zA-Z0-9])to_trace\(' crates/*/src; then
    echo "error: a retired block-trace path reappeared under crates/*/src (see matches above)" >&2
    echo "capture and fit the op-log (wasla_trace::oplog) instead" >&2
    exit 1
fi

step "experiment ratchet (one solver; baselines live in wasla-bench)"
# Production runs one solver — projected gradient through
# `core::optimizer` — and the experiment-only baselines (the annealing
# solver, AutoAdmin, the configuration sweep, the analytic disk model,
# the open-loop driver, the one-shot wholesale `readvise`) live in the
# experiment crate next to the experiments that use them. Fail if the retired solver-selection layer
# or a moved baseline reappears in a production crate.
if grep -RnwE 'SolveMethod|solver_by_name|SOLVER_NAMES|AnnealSolver|ProjectedGradientSolver|SolveSpec|wants_smoothing|build_solver|autoadmin_layout|AutoAdminOptions|ResourcePool|AnalyticDiskModel|run_open_loop|OpenStream|ReadviseOutcome|readvise' crates/*/src \
    | grep -v '^crates/bench/'; then
    echo "error: an experiment-only name reappeared in a production crate (see matches above)" >&2
    echo "keep baselines and alternative solvers in crates/bench" >&2
    exit 1
fi

step "reporting ratchet (errors carry no JSON codec; no retired wrappers)"
# Errors are reported through `Display` and the CLI's exit codes and
# are never serialized, so no error enum carries a `ToJson`/`FromJson`
# pair. The session derives the calibration cache key itself and calls
# the fit and calibrate layers directly; fits are not cached at all (a
# key over the op-log costs more than the fit it would save), so no fit
# key, fit snapshot, prefix-fit cache path or damaged-log hash remains;
# the one solve-budget order is `SolverBudget`'s derived `Ord`; the
# latency histogram had no caller. Fail if a codec for an error type or
# a retired name reappears under crates/*/src.
if grep -RnE 'impl (ToJson|FromJson) for \w*Error' crates/*/src \
    || grep -RnwE 'FitStage|CalibrateStage|FitInput|CalibrateInput|STAGE_NAMES|budget_rank|Histogram' crates/*/src \
    || grep -RnwE 'fit_key|fits_cache|FITS_FILE|fit_prefix|trace_content_hash_damaged|get_or_insert_with' crates/*/src; then
    echo "error: an error-type JSON codec or a retired name reappeared under crates/*/src (see matches above)" >&2
    echo "report errors through Display and exit codes; key the calibration cache in session.rs; fit op-logs uncached" >&2
    exit 1
fi

step "coarse-grain parallelism ratchet (ingestion and generation stay serial)"
# `par` fans out only where the work per task pays for the pool: the
# multistart solve, the re-plan's candidates, calibration and the
# batch service. The op-log fit, the windowed fit and the synthetic
# tenant generator are serial folds; `par::task_seed` (a pure seed
# derivation) stays allowed. A grep, not a timing gate: identical
# serial code times ~15% apart at different pool widths on a noisy
# host, so a ratio gate would flake.
if grep -RnE 'par_map' crates/trace/src crates/workload/src; then
    echo "error: par_map under crates/trace/src or crates/workload/src (see matches above)" >&2
    echo "keep ingestion and tenant generation serial; parallelize at the coarse sites" >&2
    exit 1
fi

step "objective ratchet (max-utilization reductions live in core::eval)"
# The pluggable-objective refactor (DESIGN.md §13) funnels every
# max-utilization reduction through `core::eval` — `max_of`,
# `weighted_max`, and the `LayoutObjective` implementations — so no
# code path can silently hard-wire the min-max objective again. The
# idiomatic fold is the grep target; outside crates/core/src/eval/ it
# is a policy violation.
if grep -RnE 'fold\(0\.0,[[:space:]]*f64::max\)' crates/core/src | grep -v 'crates/core/src/eval/'; then
    echo "error: direct max-utilization fold outside crates/core/src/eval/ (see matches above)" >&2
    echo "route the reduction through wasla_core::eval (max_of / weighted_max / LayoutObjective)" >&2
    exit 1
fi

step "tests (offline)"
cargo test -q --offline --workspace

step "tests again on a 2-thread pool (offline)"
# Exercises the parallel code paths even on single-core CI machines;
# by the determinism contract every result must be unchanged.
WASLA_THREADS=2 cargo test -q --offline --workspace

step "objective-equivalence golden gate (WASLA_THREADS=1 and 8)"
# The pluggable-objective contract (DESIGN.md §13): the default MinMax
# objective routed through the LayoutObjective trait must reproduce
# the committed pre-refactor advisor reports bit-for-bit on both paper
# catalogs, at serial and wide pool widths alike.
for t in 1 8; do
    echo "-- WASLA_THREADS=$t --"
    WASLA_THREADS=$t cargo test -q --offline -p wasla --test objective_equivalence
done

step "solve-quality guard (WASLA_THREADS=1 and 8, byte-compared)"
# The cold-path quality guard for the solver's step rule (DESIGN.md
# §10): per-case final max utilization within its bounds of the
# recorded fixed-step values, and objective evaluations per gradient
# bounded. Its per-case lines (exact bits and counters) must be
# byte-identical at serial and wide pool widths: the spectral step's
# dot products run serially inside each solve.
quality_tmp=$(mktemp -d)
for t in 1 8; do
    echo "-- WASLA_THREADS=$t --"
    WASLA_THREADS=$t cargo test -q --offline -p wasla --test solve_quality -- --nocapture \
        > "$quality_tmp/run_t$t.txt"
    grep '^solve_quality ' "$quality_tmp/run_t$t.txt" > "$quality_tmp/cases_t$t.txt"
done
if [ ! -s "$quality_tmp/cases_t1.txt" ]; then
    echo "error: the solve-quality guard printed no case lines" >&2
    exit 1
fi
if ! cmp -s "$quality_tmp/cases_t1.txt" "$quality_tmp/cases_t8.txt"; then
    echo "error: solve-quality case output differs between WASLA_THREADS=1 and 8" >&2
    exit 1
fi
echo "solve-quality case output byte-identical at WASLA_THREADS=1/8"
rm -rf "$quality_tmp"

step "fault-injection env var confined to simlib::fault"
# The robustness policy (DESIGN.md §Fault model) reads the fault-plan
# environment variable in exactly one place — crates/simlib/src/fault.rs
# — so every consumer shares one deterministic plan and no crate can
# grow a private fault channel. Mention the variable elsewhere via
# `fault::ENV_VAR`, never by its literal name.
if grep -Rn 'WASLA_FAULTS' crates/*/src | grep -v 'crates/simlib/src/fault.rs'; then
    echo "error: the fault env var is named outside crates/simlib/src/fault.rs (see matches above)" >&2
    echo "query wasla_simlib::fault::plan() / refer to fault::ENV_VAR instead" >&2
    exit 1
fi

step "fault matrix (offline)"
# The graceful-degradation contract: under an active fault plan the
# fault-aware suites must still pass — typed errors and degradation
# notes, never panics, never silently wrong answers. Golden-result
# suites (determinism, pipeline) are exempt by design: faults change
# results, deterministically. The seed list is the chaos soak: eight
# fixed seeds spanning small, mid, and adversarial-looking values, so
# CI failures reproduce locally with the same plan. `oplog_stream`
# rides the matrix too — it covers the op-log corruption-salvage path,
# and all its assertions are equality claims that hold under faults.
# `objective_equivalence` rides it as well: its golden test self-skips
# under an active plan, and its warm≡cold per-objective assertions are
# pure equality claims that must hold on degraded answers too.
# `daemon` rides the matrix for the control loop's contracts (its
# restart test self-skips under a plan — prefix logs salvage
# differently — everything else must hold degraded), and the `repro
# drift` soak re-proves the budget/evacuation contract per seed.
# `gradient_equivalence` rides it because its claims are relational:
# analytic-vs-FD agreement and the zero-probe counters compare two
# computations over the *same* (possibly degraded) models, so they
# must hold whatever the fault plan did to calibration.
# `synth_stress` rides the matrix for the fleet-scale robustness
# contract: generator determinism is fault-blind, and the stress run's
# totality/thread-independence claims are made under an explicit inner
# plan, so an outer one must not break them. The small-tenant `repro
# stress` smoke re-proves the every-request-resolves contract
# end-to-end (CLI included) per seed, with admission control and
# brownout both engaged. `calibration_demand` rides it because its
# claim is relational: the demand-driven advise and the advise on
# whole tables see the same plan, so they must agree bit for bit on
# degraded answers and typed errors too.
for fault_seed in 7 11 23 42 99 1337 2024 31337; do
    echo "-- fault seed $fault_seed --"
    WASLA_FAULTS=$fault_seed cargo test -q --offline -p wasla \
        --test failure_modes --test error_paths \
        --test fault_injection --test batch_determinism \
        --test oplog_stream --test objective_equivalence \
        --test daemon --test gradient_equivalence \
        --test synth_stress --test calibration_demand
    WASLA_FAULTS=$fault_seed target/release/repro drift > /dev/null
    WASLA_FAULTS=$fault_seed target/release/repro stress \
        --tenants 48 --batch 16 --queue-cap 12 --brownout 8 > /dev/null
done

step "strict CLI flags (unknown flags are usage errors)"
# Subcommands accept only their declared flags: the retired `--grad`
# must exit 2 (usage) before any file is read, never run silently.
grad_exit=0
target/release/wasla-advisor advise --workloads w.json --targets t.json --grad fd \
    2> /dev/null || grad_exit=$?
if [ "$grad_exit" -ne 2 ]; then
    echo "error: 'advise ... --grad fd' exited $grad_exit, expected usage error 2" >&2
    exit 1
fi
echo "advise --grad fd is a usage error (exit 2)"

step "op-log replay-validation gate (streamed fit == committed golden)"
# The fit contract (DESIGN.md §12): the fit of a captured op-log is
# byte-identical at any pool width. Capture a small log with
# the release binary, check it is written in the current format (v2,
# bit-pattern times), fit it at WASLA_THREADS=1/2/8, and byte-compare
# every output against the committed golden fit; then check the replay
# report itself is byte-identical across pool widths. The golden
# round-trips (write → read → write vs the committed v1 and v2
# fixtures, plus their pinned content hashes) run as the named test
# suite.
advisor=target/release/wasla-advisor
oplog_tmp=$(mktemp -d)
"$advisor" capture --scenario tpch --scale 0.01 --out-dir "$oplog_tmp/cap"
oplog_header=$(head -n 1 "$oplog_tmp/cap/oplog.tsv")
if [ "$oplog_header" != "#wasla-oplog v2" ]; then
    echo "error: capture wrote the op-log header '$oplog_header', expected '#wasla-oplog v2'" >&2
    exit 1
fi
echo "capture writes a #wasla-oplog v2 log"
for t in 1 2 8; do
    WASLA_THREADS=$t "$advisor" fit --oplog "$oplog_tmp/cap/oplog.tsv" \
        --objects "$oplog_tmp/cap/objects.json" --out "$oplog_tmp/streamed_t$t.json"
    if ! cmp -s tests/fixtures/tpch_fit.golden.json "$oplog_tmp/streamed_t$t.json"; then
        echo "error: streamed fit at WASLA_THREADS=$t differs from tests/fixtures/tpch_fit.golden.json" >&2
        exit 1
    fi
done
echo "streamed fit == committed golden at WASLA_THREADS=1/2/8"
for t in 1 8; do
    WASLA_THREADS=$t "$advisor" replay --oplog "$oplog_tmp/cap/oplog.tsv" \
        --scenario tpch --coarse > "$oplog_tmp/replay_t$t.txt"
done
if ! cmp -s "$oplog_tmp/replay_t1.txt" "$oplog_tmp/replay_t8.txt"; then
    echo "error: replay report differs between WASLA_THREADS=1 and 8" >&2
    exit 1
fi
echo "replay report byte-identical at WASLA_THREADS=1/8"
# The daemon's decision log must be byte-identical across pool widths
# end-to-end (CLI included), same contract as the in-process test.
for t in 1 8; do
    WASLA_THREADS=$t "$advisor" serve --oplog "$oplog_tmp/cap/oplog.tsv" \
        --budget 16777216 --pane-s 2 --panes 2 --scenario tpch --coarse \
        --json > "$oplog_tmp/serve_t$t.json"
done
if ! cmp -s "$oplog_tmp/serve_t1.json" "$oplog_tmp/serve_t8.json"; then
    echo "error: daemon decision log differs between WASLA_THREADS=1 and 8" >&2
    exit 1
fi
echo "daemon decision log byte-identical at WASLA_THREADS=1/8"
# The stress report (tick stats + per-slot decision log) holds the
# same contract at fleet scale: stdout is a pure function of the spec
# and policy, byte-identical across pool widths, with admission
# control, brownout, and deadline classes all engaged.
for t in 1 8; do
    WASLA_THREADS=$t "$advisor" stress --tenants 96 --batch 32 \
        --queue-cap 24 --brownout 16 2> /dev/null > "$oplog_tmp/stress_t$t.txt"
done
if ! cmp -s "$oplog_tmp/stress_t1.txt" "$oplog_tmp/stress_t8.txt"; then
    echo "error: stress report differs between WASLA_THREADS=1 and 8" >&2
    exit 1
fi
echo "stress report byte-identical at WASLA_THREADS=1/8"
cargo test -q --offline -p wasla-trace --test golden_oplog
rm -rf "$oplog_tmp"

step "benches compile (offline)"
cargo bench --offline --no-run

step "end-to-end benchmark: tests plus a one-second traced pass per workload"
# The end-to-end benchmark (e2e_bench/, a workspace of its own) checks
# its outputs as it runs — traced_equals_untraced, not_worse_than_see,
# repeatable, parsed_log_hash among them — and exits 1 naming any check
# that fails. Running its tests and a short traced pass of each named
# workload here makes those checks gate every change to the crates it
# builds against, not only benchmark runs.
cargo test --release --offline --manifest-path e2e_bench/Cargo.toml
for workload in cold_sweep oplog_replay fleet daemon; do
    echo "-- $workload --"
    cargo run --release --offline --quiet --manifest-path e2e_bench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 1 > /dev/null
done

echo
echo "all checks passed"
