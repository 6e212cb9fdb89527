//! Analytic-gradient micro-benchmarks (DESIGN.md §15).
//!
//! * `gradient_analytic` — one `EvalEngine::grad_at` pass (chain rule
//!   through `cost_with_grad`, zero objective probes) on block-sparse
//!   problems across an N×M sweep;
//! * `gradient_solve` — complete `solve_nlp` runs, so the gradient's
//!   cost shows up end to end in the same report. The sweep problems
//!   take one gradient per temperature stage; `fitted_tpch` solves the
//!   problem fitted from a captured TPC-H-like op-log, whose solve runs
//!   multi-iteration line searches.

use std::hint::black_box;
use wasla::core::{initial_layout, solve_nlp, EvalEngine, LayoutProblem, SolverOptions};
use wasla::model::CalibrationGrid;
use wasla::pipeline::{assemble_problem, Scenario};
use wasla::workload::WorkloadSet;
use wasla::AdvisorSession;
use wasla_bench::harness::Harness;
use wasla_bench::sweep::sweep_problem;

const SWEEP_SIZES: [(usize, usize); 6] = [(8, 4), (8, 16), (32, 4), (32, 16), (128, 4), (128, 16)];
const SWEEP_TEMP: f64 = 0.05;

/// One full objective gradient per iteration. Each bench attaches the
/// `EvalStats` delta of one instrumented call: zero `column_probes`,
/// one analytic pass.
fn bench_gradient_sweep(c: &mut Harness) {
    let mut group = c.benchmark_group("gradient_analytic");
    for (n, m) in SWEEP_SIZES {
        let problem = sweep_problem(n, m);
        let x = vec![1.0 / m as f64; n * m];
        let mut engine = EvalEngine::new(&problem);
        engine.set_point(&x);
        let mut g = vec![0.0; n * m];
        let before = engine.stats;
        engine.grad_at(&x, SWEEP_TEMP, &mut g);
        let per_call = engine.stats.since(&before);
        group.bench_function(format!("n{n}_m{m}"), |b| {
            for (name, value) in per_call.entries() {
                b.counter(name, value as f64);
            }
            b.iter(|| {
                engine.grad_at(black_box(&x), SWEEP_TEMP, &mut g);
                black_box(g[0])
            })
        });
    }
    group.finish();
}

/// The problem `advise` assembles from `tests/fixtures/tpch_fit.golden.json`
/// (the fit of a `capture --scenario tpch --scale 0.01` op-log) on the
/// scenario's four disks, with whole tables on the default grid.
fn fitted_tpch_problem() -> LayoutProblem {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/tpch_fit.golden.json"
    );
    let text = std::fs::read_to_string(path).expect("read the fit fixture");
    let fitted: WorkloadSet = wasla::simlib::json::from_str(&text).expect("fit fixture parses");
    let scenario = Scenario::homogeneous_disks(4, 0.01);
    let models = AdvisorSession::new()
        .models_for(
            &scenario.targets,
            &CalibrationGrid::default(),
            scenario.seed,
        )
        .expect("targets calibrate");
    assemble_problem(&scenario, fitted, models, vec![])
}

/// End-to-end: a complete default solve on a mid-size and the
/// gradient-heavy sweep problem, and on the fitted TPC-H-like problem.
fn bench_solve_paths(c: &mut Harness) {
    let mut group = c.benchmark_group("gradient_solve");
    let problems = [(32usize, 4usize), (128, 16)]
        .map(|(n, m)| (format!("analytic_n{n}_m{m}"), sweep_problem(n, m)));
    let fitted = ("fitted_tpch".to_string(), fitted_tpch_problem());
    for (name, problem) in problems.into_iter().chain([fitted]) {
        let init = initial_layout(&problem).expect("the problem has ample capacity");
        let opts = SolverOptions::default();
        let stats = solve_nlp(&problem, &init, &opts).stats;
        group.bench_function(name, |b| {
            for (name, value) in stats.entries() {
                b.counter(name, value as f64);
            }
            b.iter(|| black_box(solve_nlp(&problem, &init, &opts).score))
        });
    }
    group.finish();
}

wasla_bench::bench_main!("gradient", bench_gradient_sweep, bench_solve_paths);
