//! Analytic-gradient equivalence contract (DESIGN.md §15).
//!
//! The solver's one gradient is analytic (`EvalEngine::grad_at`): one
//! chain-rule pass through the cost models' slopes, where the paper's
//! MINOS finite-differences the black-box cost functions. Finite
//! differences survive only here, as a test oracle
//! (`fd_lse_score_gradient`) that differences the Eq. 1
//! `UtilizationEstimator` directly. This suite pins the contract
//! between the two:
//!
//! * **O(h) agreement** — on random calibrated-table problems and on
//!   both paper catalogs, the structured-FD gradient converges to the
//!   analytic gradient as the step shrinks (the analytic value is the
//!   limit the FD scheme approximates, so the minimum error over a
//!   shrinking-h ladder must be small at generic interior points);
//! * **zero probes** — a solve performs no objective probes at all
//!   (`column_probes` zero, every gradient evaluation an analytic
//!   pass), asserted on counters rather than inferred from wall-clock.
//!
//! The analytic solve's outcomes themselves are pinned bit for bit by
//! `tests/fixtures/objective_reports.golden` and
//! `tests/fixtures/eval_determinism.golden`.
//!
//! Tolerance notes: FD checks use random *interior* points (simplex-
//! normalized, generically off every grid knot and layout-model branch
//! boundary). Exactly on kinks the two schemes legitimately disagree —
//! analytic pins a one-sided subgradient, FD averages the two cells —
//! which is why knot behaviour is pinned by unit tests in
//! `wasla-model` instead of here.

use std::sync::{Arc, OnceLock};
use wasla::core::{
    initial_layout, solve_nlp, EvalEngine, Layout, LayoutProblem, SolverOptions,
    UtilizationEstimator,
};
use wasla::model::{calibrate_device, CalibrationGrid, CostModel, TableModel};
use wasla::pipeline::{AdviseConfig, Scenario};
use wasla::simlib::proptest::prelude::*;
use wasla::simlib::SimRng;
use wasla::solver::softmax_weights;
use wasla::storage::{DeviceSpec, DiskParams};
use wasla::workload::{ObjectKind, SqlWorkload, WorkloadSet, WorkloadSpec};

/// One calibrated (grid-backed, clamping) disk table shared by every
/// random problem — calibration is deterministic, so sharing is safe,
/// and clamped tables are exactly what production problems
/// differentiate through.
fn disk_table() -> Arc<TableModel> {
    static TABLE: OnceLock<Arc<TableModel>> = OnceLock::new();
    TABLE
        .get_or_init(|| {
            Arc::new(calibrate_device(
                &DeviceSpec::Disk(DiskParams::scsi_15k(18 << 30)),
                &CalibrationGrid::coarse(),
                7,
            ))
        })
        .clone()
}

/// A random layout problem over the shared calibrated table. Rates,
/// sizes, and run counts are drawn off every calibration knot so FD
/// checks sit at generic points.
fn random_problem(n: usize, m: usize, seed: u64) -> LayoutProblem {
    let mut rng = SimRng::new(seed);
    let specs: Vec<WorkloadSpec> = (0..n)
        .map(|i| WorkloadSpec {
            read_size: rng.uniform_range(10_000.0, 120_000.0),
            write_size: rng.uniform_range(9_000.0, 20_000.0),
            read_rate: rng.uniform_range(5.0, 40.0),
            write_rate: rng.uniform_range(0.5, 5.0),
            run_count: rng.uniform_range(2.3, 40.0),
            overlaps: (0..n)
                .map(|k| {
                    if k == i {
                        0.0
                    } else {
                        rng.uniform_range(0.0, 1.0)
                    }
                })
                .collect(),
        })
        .collect();
    LayoutProblem {
        workloads: WorkloadSet {
            names: (0..n).map(|i| format!("o{i}")).collect(),
            sizes: vec![1 << 28; n],
            specs,
        },
        kinds: vec![ObjectKind::Table; n],
        capacities: vec![4 << 30; m],
        target_names: (0..m).map(|j| format!("t{j}")).collect(),
        models: (0..m).map(|_| disk_table() as Arc<dyn CostModel>).collect(),
        stripe_size: 256.0 * 1024.0,
        constraints: vec![],
    }
}

/// A random interior simplex point (each row normalized to sum 1).
fn random_point(n: usize, m: usize, seed: u64) -> Vec<f64> {
    let mut rng = SimRng::new(seed);
    let mut x = vec![0.0; n * m];
    for row in x.chunks_mut(m) {
        let mut s = 0.0;
        for v in row.iter_mut() {
            *v = rng.uniform_range(0.05, 1.0);
            s += *v;
        }
        for v in row.iter_mut() {
            *v /= s;
        }
    }
    x
}

/// The structured finite-difference gradient of the smoothed min-max
/// score `lse_max(µ(x), temp)`, differenced on the Eq. 1 estimator:
/// perturbing `xᵢⱼ` moves only `µⱼ`, so each partial is the softmax
/// weight of target `j` times a difference quotient of `µⱼ`. The down
/// step is one-sided at the simplex boundary (`h.min(x)`), so no probe
/// leaves the feasible orthant.
fn fd_lse_score_gradient(problem: &LayoutProblem, x: &[f64], temp: f64, h: f64) -> Vec<f64> {
    let (n, m) = (problem.n(), problem.m());
    let est = UtilizationEstimator::new(problem);
    let mut layout = Layout::from_flat(x, n, m);
    let mut smax = Vec::new();
    softmax_weights(&est.utilizations(&layout), temp, &mut smax);
    let mut g = vec![0.0; n * m];
    for i in 0..n {
        for j in 0..m {
            let orig = x[i * m + j];
            let (up_step, dn_step) = (h, h.min(orig));
            layout.set(i, j, orig + up_step);
            let up = est.target_utilization(&layout, j);
            layout.set(i, j, orig - dn_step);
            let dn = est.target_utilization(&layout, j);
            layout.set(i, j, orig);
            g[i * m + j] = smax[j] * (up - dn) / (up_step + dn_step);
        }
    }
    g
}

/// Asserts the shrinking-h contract at one point of one problem:
/// for every coordinate, the best FD approximation across the ladder
/// must approach the analytic partial. Returns the worst relative
/// error for diagnostics.
fn assert_fd_converges_to_analytic(problem: &LayoutProblem, x: &[f64], label: &str) -> f64 {
    let (n, m) = (problem.n(), problem.m());
    let temp = 0.05;
    let mut engine = EvalEngine::new(problem);
    let mut analytic = vec![0.0; n * m];
    engine.grad_at(x, temp, &mut analytic);
    let ladder = [1e-3, 1e-4, 1e-5, 1e-6];
    let fds: Vec<Vec<f64>> = ladder
        .iter()
        .map(|&h| fd_lse_score_gradient(problem, x, temp, h))
        .collect();
    let mut worst = 0.0f64;
    for c in 0..n * m {
        let a = analytic[c];
        let best = fds
            .iter()
            .map(|g| (g[c] - a).abs())
            .fold(f64::INFINITY, f64::min);
        let rel = best / (1.0 + a.abs());
        worst = worst.max(rel);
        assert!(
            rel < 1e-4,
            "{label}: coordinate {c}: analytic {a} vs best-FD error {best} (rel {rel})"
        );
    }
    worst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// FD converges to the analytic gradient on random calibrated
    /// problems at random interior points.
    #[test]
    fn fd_converges_on_random_problems(seed in 0u64..10_000, n in 3usize..8, m in 2usize..5) {
        let problem = random_problem(n, m, seed);
        let x = random_point(n, m, seed.wrapping_mul(0x9e37_79b9) + 1);
        assert_fd_converges_to_analytic(&problem, &x, "random");
    }

}

/// The paper catalogs: gradients agree through the full pipeline's
/// calibrated RAID/SSD target models, not just the synthetic table.
#[test]
fn fd_converges_on_paper_catalogs() {
    let olap_config = AdviseConfig::fast();
    let mut oltp_config = AdviseConfig::fast();
    oltp_config.trace_run.max_time = Some(60.0);
    let cases = [
        (
            "tpch-like",
            Scenario::homogeneous_disks(4, 0.01),
            vec![SqlWorkload::olap1_21(3)],
            olap_config,
        ),
        (
            "tpcc-like",
            Scenario::oltp_disks(0.01),
            vec![SqlWorkload::oltp()],
            oltp_config,
        ),
    ];
    for (name, scenario, workloads, config) in cases {
        let outcome = wasla::pipeline::advise(&scenario, &workloads, &config).expect("advise");
        let problem = &outcome.problem;
        let (n, m) = (problem.n(), problem.m());
        for point_seed in [3u64, 17] {
            let x = random_point(n, m, point_seed);
            assert_fd_converges_to_analytic(problem, &x, name);
        }
    }
}

/// An analytic solve spends zero probes on gradients: every gradient
/// evaluation is one analytic pass. The counters are the proof that
/// the hot path differentiates instead of differencing, independent of
/// wall-clock.
#[test]
fn analytic_solve_spends_zero_probes() {
    let problem = random_problem(6, 3, 42);
    let init = initial_layout(&problem).expect("ample capacity");
    let out = solve_nlp(&problem, &init, &SolverOptions::default());
    assert_eq!(out.stats.column_probes, 0, "column probes");
    assert!(
        out.stats.grad_analytic_passes > 0,
        "no analytic passes recorded"
    );
    assert_eq!(
        out.stats.gradient_evals, out.stats.grad_analytic_passes,
        "every gradient evaluation is one analytic pass"
    );
}
