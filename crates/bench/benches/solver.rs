//! Micro-benchmarks for the NLP toolkit.

use std::hint::black_box;
use std::sync::Arc;
use wasla::core::{EvalEngine, LayoutProblem, ScratchEval};
use wasla::model::CostModel;
use wasla::simlib::SimRng;
use wasla::solver::{anneal, lse_max, minimize, project_simplex, AnnealOptions, PgOptions};
use wasla::storage::IoKind;
use wasla::workload::{ObjectKind, WorkloadSet, WorkloadSpec};
use wasla_bench::harness::{BatchSize, Harness};

fn bench_simplex_projection(c: &mut Harness) {
    let mut group = c.benchmark_group("simplex_projection");
    for m in [4usize, 10, 40] {
        let mut rng = SimRng::new(7);
        let base: Vec<f64> = (0..m).map(|_| rng.uniform_range(-1.0, 2.0)).collect();
        group.bench_function(format!("m{m}"), |b| {
            b.iter_batched(
                || base.clone(),
                |mut row| {
                    project_simplex(&mut row);
                    black_box(row)
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_lse(c: &mut Harness) {
    let values: Vec<f64> = (0..40).map(|i| (i as f64 * 0.7).sin().abs()).collect();
    c.bench_function("lse_max_40", |b| {
        b.iter(|| black_box(lse_max(black_box(&values), 0.05)))
    });
}

fn bench_projected_gradient(c: &mut Harness) {
    // A simplex-constrained quadratic comparable to one solver stage of
    // a small layout problem.
    let n = 20;
    let target: Vec<f64> = (0..n).map(|i| ((i * 7) % n) as f64 / n as f64).collect();
    let f = move |x: &[f64]| -> f64 { x.iter().zip(&target).map(|(a, b)| (a - b) * (a - b)).sum() };
    let target2: Vec<f64> = (0..n).map(|i| ((i * 7) % n) as f64 / n as f64).collect();
    let grad = move |x: &[f64], g: &mut [f64]| {
        for i in 0..x.len() {
            g[i] = 2.0 * (x[i] - target2[i]);
        }
    };
    let x0 = vec![1.0 / n as f64; n];
    c.bench_function("pg_quadratic_n20", |b| {
        b.iter(|| {
            black_box(minimize(
                &f,
                &grad,
                |x: &mut [f64]| project_simplex(x),
                black_box(&x0),
                &PgOptions::default(),
            ))
        })
    });
}

fn bench_anneal(c: &mut Harness) {
    let f = |x: &[f64]| {
        x.iter()
            .enumerate()
            .map(|(i, v)| v * (i as f64))
            .sum::<f64>()
    };
    let x0 = vec![0.25; 4];
    let opts = AnnealOptions {
        steps: 1_000,
        ..AnnealOptions::default()
    };
    c.bench_function("anneal_1000_steps", |b| {
        b.iter(|| {
            black_box(anneal(
                f,
                |x: &mut [f64]| project_simplex(x),
                black_box(&x0),
                &opts,
            ))
        })
    });
}

/// Analytic cost model for the gradient sweep: contention-sensitive
/// and cheap, so the benchmark measures evaluation machinery rather
/// than model arithmetic.
struct SweepModel;
impl CostModel for SweepModel {
    fn request_cost(&self, kind: IoKind, size: f64, run: f64, chi: f64) -> f64 {
        let base = match kind {
            IoKind::Read => 0.004,
            IoKind::Write => 0.003,
        };
        base / run.max(1.0) + 0.002 * chi + size / 60e6 + 0.0002
    }
}

/// Block-sparse overlap structure: objects contend only within groups
/// of 8, the regime where the incremental engine's cached-µ reuse pays
/// off (each FD partial touches O(group) cells, not O(N)).
fn sweep_problem(n: usize, m: usize) -> LayoutProblem {
    const GROUP: usize = 8;
    let specs = (0..n)
        .map(|i| WorkloadSpec {
            read_size: 65536.0,
            write_size: 8192.0,
            read_rate: 20.0 + i as f64,
            write_rate: 2.0,
            run_count: 1.0 + (i % 7) as f64 * 9.0,
            overlaps: (0..n)
                .map(|k| {
                    if i != k && i / GROUP == k / GROUP {
                        0.5
                    } else {
                        0.0
                    }
                })
                .collect(),
        })
        .collect();
    LayoutProblem {
        workloads: WorkloadSet {
            names: (0..n).map(|i| format!("o{i}")).collect(),
            sizes: (0..n).map(|i| 1000 + 37 * i as u64).collect(),
            specs,
        },
        kinds: vec![ObjectKind::Table; n],
        capacities: vec![1 << 24; m],
        target_names: (0..m).map(|j| format!("t{j}")).collect(),
        models: (0..m).map(|_| Arc::new(SweepModel) as _).collect(),
        stripe_size: 1024.0 * 1024.0,
        constraints: vec![],
    }
}

const SWEEP_SIZES: [(usize, usize); 6] = [(8, 4), (8, 16), (32, 4), (32, 16), (128, 4), (128, 16)];
const SWEEP_TEMP: f64 = 0.05;
const SWEEP_FD: f64 = 1e-4;

/// N×M scaling sweep over the full LSE gradient (the solver's hot
/// loop): the incremental `EvalEngine` vs the from-scratch
/// `ScratchEval` path on the same problems, with `EvalStats` work
/// counters from one instrumented call attached to each result.
fn bench_nlp_gradient_sweep(c: &mut Harness) {
    {
        let mut group = c.benchmark_group("nlp_gradient_engine");
        for (n, m) in SWEEP_SIZES {
            let problem = sweep_problem(n, m);
            let x = vec![1.0 / m as f64; n * m];
            let mut engine = EvalEngine::new(&problem);
            engine.set_point(&x);
            let mut g = vec![0.0; n * m];
            let before = engine.stats;
            engine.lse_gradient(&x, SWEEP_TEMP, SWEEP_FD, &mut g);
            let per_call = engine.stats.since(&before);
            group.bench_function(format!("n{n}_m{m}"), |b| {
                for (name, value) in per_call.entries() {
                    b.counter(name, value as f64);
                }
                b.iter(|| {
                    engine.lse_gradient(black_box(&x), SWEEP_TEMP, SWEEP_FD, &mut g);
                    black_box(g[0])
                })
            });
        }
        group.finish();
    }
    {
        let mut group = c.benchmark_group("nlp_gradient_scratch");
        for (n, m) in SWEEP_SIZES {
            let problem = sweep_problem(n, m);
            let x = vec![1.0 / m as f64; n * m];
            let mut scratch = ScratchEval::new(&problem);
            let mut g = vec![0.0; n * m];
            let before = scratch.stats;
            scratch.lse_gradient(&x, SWEEP_TEMP, SWEEP_FD, &mut g);
            let per_call = scratch.stats.since(&before);
            group.bench_function(format!("n{n}_m{m}"), |b| {
                for (name, value) in per_call.entries() {
                    b.counter(name, value as f64);
                }
                b.iter(|| {
                    scratch.lse_gradient(black_box(&x), SWEEP_TEMP, SWEEP_FD, &mut g);
                    black_box(g[0])
                })
            });
        }
        group.finish();
    }
}

/// One full re-evaluation — the engine's rebuild path, which every
/// line-search trial point of the PG solver takes — alternating two
/// dense layouts that differ in every coordinate, so each call
/// recomputes all `N·M` competing sums and `µ` cells.
fn bench_eval_rebuild(c: &mut Harness) {
    let mut group = c.benchmark_group("eval_rebuild");
    for (n, m) in [(40usize, 4usize), (128, 16)] {
        let problem = sweep_problem(n, m);
        let mut rng = SimRng::new(19);
        let mut dense = || -> Vec<f64> {
            let mut x: Vec<f64> = (0..n * m).map(|_| rng.uniform_range(0.05, 1.0)).collect();
            for row in x.chunks_mut(m) {
                let s: f64 = row.iter().sum();
                row.iter_mut().for_each(|v| *v /= s);
            }
            x
        };
        let points = [dense(), dense()];
        let mut engine = EvalEngine::new(&problem);
        engine.set_point(&points[1]);
        let before = engine.stats;
        black_box(engine.lse_objective(&points[0], SWEEP_TEMP));
        let per_call = engine.stats.since(&before);
        let mut flip = 0;
        group.bench_function(format!("n{n}_m{m}"), |b| {
            for (name, value) in per_call.entries() {
                b.counter(name, value as f64);
            }
            b.iter(|| {
                flip ^= 1;
                black_box(engine.lse_objective(black_box(&points[flip]), SWEEP_TEMP))
            })
        });
    }
    group.finish();
}

wasla_bench::bench_main!(
    "solver",
    bench_simplex_projection,
    bench_lse,
    bench_projected_gradient,
    bench_anneal,
    bench_nlp_gradient_sweep,
    bench_eval_rebuild
);
