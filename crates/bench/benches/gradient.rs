//! Analytic-gradient micro-benchmarks (DESIGN.md §15).
//!
//! * `gradient_analytic` — one `EvalEngine::grad_at` pass (chain rule
//!   through `cost_with_grad`, zero objective probes) on block-sparse
//!   problems across an N×M sweep;
//! * `gradient_solve` — complete `solve_nlp` runs, so the gradient's
//!   cost shows up end to end in the same report.

use std::hint::black_box;
use wasla::core::{initial_layout, solve_nlp, EvalEngine, SolverOptions};
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

/// End-to-end: a complete default solve on a mid-size and the
/// gradient-heavy sweep problem.
fn bench_solve_paths(c: &mut Harness) {
    let mut group = c.benchmark_group("gradient_solve");
    for (n, m) in [(32usize, 4usize), (128, 16)] {
        let problem = sweep_problem(n, m);
        let init = initial_layout(&problem).expect("sweep problem has ample capacity");
        let opts = SolverOptions::default();
        let stats = solve_nlp(&problem, &init, &opts).stats;
        group.bench_function(format!("analytic_n{n}_m{m}"), |b| {
            for (name, value) in stats.entries() {
                b.counter(name, value as f64);
            }
            b.iter(|| black_box(solve_nlp(&problem, &init, &opts).score))
        });
    }
    group.finish();
}

wasla_bench::bench_main!("gradient", bench_gradient_sweep, bench_solve_paths);
