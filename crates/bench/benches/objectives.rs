//! Micro-benchmarks for the pluggable layout objective: the solver's
//! analytic gradient and complete solves under every
//! `LayoutObjective`, on the same tiered problems.

use std::hint::black_box;
use std::sync::Arc;
use wasla::core::{
    initial_layout, solve_nlp, EvalEngine, LayoutProblem, ObjectiveKind, SolverOptions,
};
use wasla::model::CostModel;
use wasla::storage::{IoKind, Tier};
use wasla::workload::{ObjectKind, WorkloadSet, WorkloadSpec};
use wasla_bench::harness::Harness;

/// Analytic, contention-sensitive cost model carrying an explicit
/// tier, so the tier-weighted objectives see heterogeneous weights
/// while the arithmetic stays cheap enough to measure the evaluation
/// machinery rather than the model.
struct TieredSweepModel(Tier);
impl CostModel for TieredSweepModel {
    fn request_cost(&self, kind: IoKind, size: f64, run: f64, chi: f64) -> f64 {
        let base = match kind {
            IoKind::Read => 0.004,
            IoKind::Write => 0.003,
        };
        base / run.max(1.0) + 0.002 * chi + size / 60e6 + 0.0002
    }

    fn tier(&self) -> Tier {
        self.0.clone()
    }
}

/// Block-sparse overlap structure (groups of 8) on alternating
/// HDD/SSD targets — the same shape as the solver suite's sweep, with
/// tiers added so provision-cost and wear-blend weights differ per
/// target.
fn tiered_problem(n: usize, m: usize) -> LayoutProblem {
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
        models: (0..m)
            .map(|j| {
                let tier = if j % 2 == 0 { Tier::hdd() } else { Tier::ssd() };
                Arc::new(TieredSweepModel(tier)) as _
            })
            .collect(),
        stripe_size: 1024.0 * 1024.0,
        constraints: vec![],
    }
}

const SIZES: [(usize, usize); 2] = [(32, 4), (128, 4)];
const TEMP: f64 = 0.05;

/// The solver's hot loop: the weighted analytic LSE gradient under
/// every objective, same problem, same run.
fn bench_objective_gradient(c: &mut Harness) {
    let mut group = c.benchmark_group("objective_gradient");
    for (n, m) in SIZES {
        let problem = tiered_problem(n, m);
        let x = vec![1.0 / m as f64; n * m];
        let mut g = vec![0.0; n * m];
        for kind in ObjectiveKind::ALL {
            let mut engine = EvalEngine::with_objective(&problem, kind);
            engine.set_point(&x);
            group.bench_function(format!("{}_n{n}_m{m}", kind.name()), |b| {
                b.iter(|| {
                    engine.grad_at(black_box(&x), TEMP, &mut g);
                    black_box(g[0])
                })
            });
        }
    }
    group.finish();
}

/// Full NLP solves from the rate-greedy start under each objective —
/// the end-to-end cost an advisor run pays for picking a non-default
/// objective.
fn bench_objective_solve(c: &mut Harness) {
    let (n, m) = (32, 4);
    let problem = tiered_problem(n, m);
    let init = initial_layout(&problem).expect("initial layout");
    let mut group = c.benchmark_group("objective_solve");
    for kind in ObjectiveKind::ALL {
        let opts = SolverOptions {
            objective: kind,
            ..SolverOptions::default()
        };
        group.bench_function(format!("{}_n{n}_m{m}", kind.name()), |b| {
            b.iter(|| black_box(solve_nlp(&problem, black_box(&init), &opts)))
        });
    }
    group.finish();
}

wasla_bench::bench_main!(
    "objectives",
    bench_objective_gradient,
    bench_objective_solve
);
