//! Micro-benchmarks for the NLP toolkit.

use std::hint::black_box;
use wasla::core::EvalEngine;
use wasla::simlib::SimRng;
use wasla::solver::{lse_max, minimize, project_simplex, PgOptions};
use wasla_bench::anneal::{anneal, AnnealOptions};
use wasla_bench::harness::{BatchSize, Group, Harness};
use wasla_bench::sweep::sweep_problem;

fn bench_simplex_projection(c: &mut Harness) {
    let mut group = c.benchmark_group("simplex_projection");
    for m in [4usize, 10, 40] {
        let mut rng = SimRng::new(7);
        let base: Vec<f64> = (0..m).map(|_| rng.uniform_range(-1.0, 2.0)).collect();
        let mut sorted = Vec::new();
        group.bench_function(format!("m{m}"), |b| {
            b.iter_batched(
                || base.clone(),
                |mut row| {
                    project_simplex(&mut row, &mut sorted);
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
                |x: &mut [f64]| project_simplex(x, &mut Vec::new()),
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
                |x: &mut [f64]| project_simplex(x, &mut Vec::new()),
                black_box(&x0),
                &opts,
            ))
        })
    });
}

const SWEEP_TEMP: f64 = 0.05;

/// One full re-evaluation — the engine's rebuild path, which every
/// line-search trial point of the PG solver takes — alternating two
/// layouts that differ in every coordinate, so each call recomputes all
/// `N·M` competing sums and `µ` cells.
fn bench_eval_rebuild(c: &mut Harness) {
    let mut group = c.benchmark_group("eval_rebuild");
    for (n, m) in [(40usize, 4usize), (128, 16)] {
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
        bench_rebuild_pair(&mut group, format!("n{n}_m{m}"), n, m, &points);
    }
    // Half-gated: each row keeps two of the four targets and the
    // other two fractions are exactly 0.0, the sparse iterates the PG
    // projection produces. The two layouts keep complementary target
    // pairs, so they still differ in every coordinate.
    let (n, m) = (40usize, 4usize);
    let mut rng = SimRng::new(23);
    let mut gated = |shift: usize| -> Vec<f64> {
        let mut x = vec![0.0; n * m];
        for (i, row) in x.chunks_mut(m).enumerate() {
            let a = rng.uniform_range(0.05, 0.95);
            row[(i + shift) % m] = a;
            row[(i + shift + 1) % m] = 1.0 - a;
        }
        x
    };
    let points = [gated(0), gated(2)];
    bench_rebuild_pair(&mut group, format!("n{n}_m{m}_gated"), n, m, &points);
    group.finish();
}

/// Times `lse_score` alternating between `points` on the sweep
/// problem of size `n × m`, asserting first that each call is exactly
/// one full rebuild (a pair differing in at most `m` coordinates
/// would time incremental commits instead).
fn bench_rebuild_pair(
    group: &mut Group<'_>,
    name: String,
    n: usize,
    m: usize,
    points: &[Vec<f64>; 2],
) {
    let problem = sweep_problem(n, m);
    let mut engine = EvalEngine::new(&problem);
    engine.set_point(&points[1]);
    let before = engine.stats;
    black_box(engine.lse_score(&points[0], SWEEP_TEMP));
    let per_call = engine.stats.since(&before);
    assert_eq!(
        per_call.full_rebuilds, 1,
        "{name}: each call must be one rebuild"
    );
    let mut flip = 0;
    group.bench_function(name, |b| {
        for (name, value) in per_call.entries() {
            b.counter(name, value as f64);
        }
        b.iter(|| {
            flip ^= 1;
            black_box(engine.lse_score(black_box(&points[flip]), SWEEP_TEMP))
        })
    });
}

wasla_bench::bench_main!(
    "solver",
    bench_simplex_projection,
    bench_lse,
    bench_projected_gradient,
    bench_anneal,
    bench_eval_rebuild
);
