//! Property tests for the advisor's invariants.

use std::sync::Arc;
use wasla_core::problem::EPS;
use wasla_core::{
    initial_layout, layout_model, regularize, solve_nlp, Layout, LayoutProblem, SolverOptions,
    UtilizationEstimator,
};
use wasla_model::grid::{Axis, Grid3};
use wasla_model::{CalibrationGrid, ColumnDemand, CostModel, TableModel, TargetCostModel};
use wasla_simlib::proptest::prelude::*;
use wasla_simlib::SimRng;
use wasla_storage::{DeviceSpec, DiskParams, IoKind, TargetConfig, Tier, GIB, KIB};
use wasla_workload::{ObjectKind, WorkloadSet, WorkloadSpec};

/// A simple but non-trivial cost model for property tests.
struct TestModel;
impl CostModel for TestModel {
    fn request_cost(&self, kind: IoKind, size: f64, run: f64, chi: f64) -> f64 {
        let base = match kind {
            IoKind::Read => 0.004,
            IoKind::Write => 0.003,
        };
        base / run.max(1.0) + 0.002 * chi + size / 60e6 + 0.0002
    }
}

/// Strategy for a random layout problem with loose capacity.
fn problem_strategy() -> Strategy<LayoutProblem> {
    (2usize..8, 2usize..5)
        .prop_flat_map(|(n, m)| {
            (
                proptest::collection::vec(0.0f64..200.0, n),   // rates
                proptest::collection::vec(1.0f64..128.0, n),   // run counts
                proptest::collection::vec(0.0f64..1.0, n * n), // overlaps
                proptest::collection::vec(1u64..200_000, n),   // sizes
                Just((n, m)),
            )
        })
        .prop_map(|(rates, runs, overlaps, sizes, (n, m))| {
            let specs = (0..n)
                .map(|i| WorkloadSpec {
                    read_size: 65536.0,
                    write_size: 8192.0,
                    read_rate: rates[i],
                    write_rate: rates[i] * 0.1,
                    run_count: runs[i],
                    overlaps: (0..n)
                        .map(|j| if i == j { 0.0 } else { overlaps[i * n + j] })
                        .collect(),
                })
                .collect();
            LayoutProblem {
                workloads: WorkloadSet {
                    names: (0..n).map(|i| format!("o{i}")).collect(),
                    sizes: sizes.clone(),
                    specs,
                },
                kinds: vec![ObjectKind::Table; n],
                capacities: vec![sizes.iter().sum::<u64>() * 2; m],
                target_names: (0..m).map(|j| format!("t{j}")).collect(),
                models: (0..m).map(|_| Arc::new(TestModel) as _).collect(),
                stripe_size: 1024.0 * 1024.0,
                constraints: vec![],
            }
        })
}

/// One random pricing situation for the calibration-demand property:
/// a workload, a target shape, the LVM stripe, and the fractions and
/// contention factors to price at.
#[derive(Clone, Debug)]
struct DemandCase {
    spec: WorkloadSpec,
    width: usize,
    stripe_unit: u64,
    stripe: f64,
    fractions: Vec<f64>,
    chis: Vec<f64>,
}

/// Log-uniform in `[lo, hi]`, or one of `knots` a quarter of the time
/// (brackets turn over at knots, so they get extra weight).
fn log_uniform_or_knot(rng: &mut SimRng, lo: f64, hi: f64, knots: &[f64]) -> f64 {
    if rng.chance(0.25) {
        *rng.choose(knots)
    } else {
        (lo.ln() + rng.uniform() * (hi.ln() - lo.ln())).exp()
    }
}

fn demand_case() -> Strategy<DemandCase> {
    Strategy::from_fn(|rng| {
        let grid = CalibrationGrid::default();
        let width = *rng.choose(&[1usize, 2, 3, 4, 6]);
        let stripe_unit = *rng.choose(&[64 * KIB, 256 * KIB]);
        // Request sizes straddle the stripe unit: whole stripe
        // multiples split across members.
        let mut size_knots = grid.sizes.clone();
        size_knots.extend([2.0, 3.0, 5.0].map(|k| k * stripe_unit as f64));
        let mut size = || log_uniform_or_knot(rng, 512.0, 2e6, &size_knots);
        let (read_size, write_size) = (size(), size());
        let mut rate = || match rng.index(3) {
            0 => 0.0,
            _ => rng.uniform_range(0.01, 200.0),
        };
        let (read_rate, write_rate) = (rate(), rate());
        let run_count = log_uniform_or_knot(rng, 1.0, 20_000.0, &grid.runs);
        let stripe = *rng.choose(&[256.0 * 1024.0, 1024.0 * 1024.0, 65536.0]);
        let fractions = (0..12)
            .map(|_| match rng.index(5) {
                0 => 0.0,
                1 => 1.0,
                2 => EPS * rng.uniform_range(0.5, 4.0),
                3 => (rng.uniform() * 1e-3_f64.ln()).exp(),
                _ => rng.uniform(),
            })
            .collect();
        let chis = (0..4).map(|_| rng.uniform_range(0.0, 24.0)).collect();
        DemandCase {
            spec: WorkloadSpec {
                read_size,
                write_size,
                read_rate,
                write_rate,
                run_count,
                overlaps: vec![],
            },
            width,
            stripe_unit,
            stripe,
            fractions,
            chis,
        }
    })
}

/// A member table holding finite values exactly on the demanded
/// columns and NaN everywhere else.
fn table_on(demand: &ColumnDemand, grid: &CalibrationGrid) -> TableModel {
    let kind_grid = |kind: IoKind| {
        let mut values = Vec::new();
        for si in 0..grid.sizes.len() {
            for ri in 0..grid.runs.len() {
                for ci in 0..grid.contentions.len() {
                    values.push(if demand.contains(kind, si, ri) {
                        1e-3 * (1 + si + 2 * ri + 3 * ci) as f64
                    } else {
                        f64::NAN
                    });
                }
            }
        }
        Grid3::new(
            Axis::new(grid.sizes.clone()),
            Axis::new(grid.runs.clone()),
            Axis::new(grid.contentions.clone()),
            values,
        )
    };
    TableModel {
        device: "disk".to_string(),
        tier: Tier::hdd(),
        reads: kind_grid(IoKind::Read),
        writes: kind_grid(IoKind::Write),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The initial layout is always valid when capacity is ample.
    #[test]
    fn initial_layout_valid(problem in problem_strategy()) {
        let layout = initial_layout(&problem).expect("ample capacity");
        prop_assert!(layout.is_valid(&problem.workloads.sizes, &problem.capacities));
        prop_assert!(layout.is_regular());
        // Every object on exactly one target (the §4.2 heuristic).
        for i in 0..problem.n() {
            prop_assert_eq!(layout.targets_of(i).len(), 1);
        }
    }

    /// Regularization of an arbitrary fractional layout yields a
    /// regular, valid layout.
    #[test]
    fn regularizer_output_regular_and_valid(
        problem in problem_strategy(),
        noise in proptest::collection::vec(0.01f64..1.0, 64),
    ) {
        let n = problem.n();
        let m = problem.m();
        // Build an arbitrary fractional (row-normalized) layout.
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let raw: Vec<f64> =
                    (0..m).map(|j| noise[(i * m + j) % noise.len()]).collect();
                let total: f64 = raw.iter().sum();
                raw.into_iter().map(|v| v / total).collect()
            })
            .collect();
        let fractional = Layout::from_rows(rows);
        let regular = regularize(&problem, &fractional).expect("ample capacity");
        prop_assert!(regular.is_regular());
        prop_assert!(regular.is_valid(&problem.workloads.sizes, &problem.capacities));
    }

    /// The solver's output satisfies the integrity constraint and never
    /// predicts worse than its starting point.
    #[test]
    fn solver_output_feasible_and_no_worse(problem in problem_strategy()) {
        let initial = initial_layout(&problem).expect("ample capacity");
        let est = UtilizationEstimator::new(&problem);
        let before = est.max_utilization(&initial);
        let mut opts = SolverOptions::default();
        opts.auglag.inner.max_iters = 15; // keep property runs quick
        opts.temperatures = vec![0.1];
        let out = solve_nlp(&problem, &initial, &opts);
        prop_assert!(out.layout.satisfies_integrity());
        prop_assert!(out.max_utilization <= before * (1.0 + 1e-6),
            "solver {} vs start {}", out.max_utilization, before);
    }

    /// Utilization is monotone in request rates: scaling every rate up
    /// cannot decrease any target's predicted utilization.
    #[test]
    fn utilization_monotone_in_rates(problem in problem_strategy(), factor in 1.0f64..4.0) {
        let layout = Layout::see(problem.n(), problem.m());
        let est = UtilizationEstimator::new(&problem);
        let base = est.utilizations(&layout);

        let mut scaled = LayoutProblem {
            workloads: problem.workloads.clone(),
            kinds: problem.kinds.clone(),
            capacities: problem.capacities.clone(),
            target_names: problem.target_names.clone(),
            models: problem.models.clone(),
            stripe_size: problem.stripe_size,
            constraints: vec![],
        };
        for spec in &mut scaled.workloads.specs {
            spec.read_rate *= factor;
            spec.write_rate *= factor;
        }
        let est2 = UtilizationEstimator::new(&scaled);
        let boosted = est2.utilizations(&layout);
        for (b, s) in base.iter().zip(&boosted) {
            prop_assert!(s >= b, "boosted {s} < base {b}");
        }
    }

    /// The Figure-7 run-count transformation stays within [1, Qᵢ].
    #[test]
    fn run_count_transformation_bounded(
        q in 1.0f64..100_000.0,
        size in 512.0f64..1e6,
        fraction in 0.0f64..1.0,
        stripe in 4096.0f64..1e7,
    ) {
        let spec = WorkloadSpec {
            read_size: size,
            write_size: size,
            read_rate: 10.0,
            write_rate: 0.0,
            run_count: q,
            overlaps: vec![],
        };
        let qij = layout_model::run_count(&spec, fraction, stripe);
        prop_assert!(qij >= 1.0 - 1e-12);
        prop_assert!(qij <= q + 1e-9, "qij {qij} > q {q}");
    }

    /// The contention factor is non-negative and zero for isolated
    /// objects.
    #[test]
    fn contention_nonnegative_and_zero_when_isolated(problem in problem_strategy()) {
        let est = UtilizationEstimator::new(&problem);
        let n = problem.n();
        let m = problem.m();
        // Isolated: object 0 alone on target 0, everything else on the
        // last target.
        let mut layout = Layout::zero(n, m);
        layout.set(0, 0, 1.0);
        for i in 1..n {
            layout.set(i, m - 1, 1.0);
        }
        let rate0 = problem.workloads.specs[0].total_rate();
        if rate0 > 0.0 {
            prop_assert_eq!(est.contention(&layout, 0, 0, rate0), 0.0);
        }
        let see = Layout::see(n, m);
        for i in 0..n {
            let rate = problem.workloads.specs[i].total_rate();
            if rate > 0.0 {
                prop_assert!(est.contention(&see, i, 0, rate / m as f64) >= 0.0);
            }
        }
    }

    /// `run_count_range` bounds the Figure 7 run count at every
    /// fraction in `(0, 1]`, and both ends are values it takes.
    #[test]
    fn run_count_range_bounds_every_fraction(
        q in 1.0f64..100_000.0,
        size in 512.0f64..1e6,
        stripe in 4096.0f64..1e7,
        fractions in proptest::collection::vec(0.0f64..1.0, 32),
    ) {
        let spec = WorkloadSpec {
            read_size: size,
            write_size: size,
            read_rate: 10.0,
            write_rate: 0.0,
            run_count: q,
            overlaps: vec![],
        };
        let (lo, hi) = layout_model::run_count_range(&spec, stripe);
        for f in fractions.into_iter().chain([1.0, f64::MIN_POSITIVE, EPS]) {
            if f <= 0.0 {
                continue;
            }
            let qij = layout_model::run_count(&spec, f, stripe);
            prop_assert!(lo <= qij && qij <= hi, "{qij} outside [{lo}, {hi}] at {f}");
        }
        prop_assert_eq!(hi, layout_model::run_count(&spec, 1.0, stripe).max(lo));
    }

    /// Every cell `request_cost` and `cost_with_grad` read — at the
    /// fractions the evaluation kernels price (a gated cell prices at
    /// `EPS` on the gradient path) and at any contention — lies inside
    /// the demand `add_calibration_demand` computed: the member table
    /// is NaN everywhere else, so one stray read makes a value or a
    /// partial non-finite.
    #[test]
    fn pricing_reads_only_demanded_columns(case in demand_case()) {
        let grid = CalibrationGrid::default();
        let disk = DeviceSpec::Disk(DiskParams::scsi_15k(18 * GIB));
        let config = if case.width == 1 {
            TargetConfig::single("t", disk)
        } else {
            TargetConfig::raid0("t", vec![disk; case.width], case.stripe_unit)
        };
        let mut demand = ColumnDemand::none(&grid);
        let specs = [case.spec.clone()];
        layout_model::add_calibration_demand(&mut demand, &config, &specs, case.stripe);
        let model = TargetCostModel::with_member(&config, table_on(&demand, &grid)).unwrap();
        for &f in &case.fractions {
            let f_eff = if f <= EPS { EPS } else { f };
            let w = layout_model::apply(&case.spec, f_eff, case.stripe);
            if w.total_rate() <= 0.0 {
                continue;
            }
            for &chi in &case.chis {
                for (kind, size) in [(IoKind::Read, w.read_size), (IoKind::Write, w.write_size)] {
                    let cost = model.request_cost(kind, size, w.run_count, chi);
                    let g = model.cost_with_grad(kind, size, w.run_count, chi);
                    prop_assert!(
                        cost.is_finite()
                            && g.value.is_finite()
                            && g.d_size.is_finite()
                            && g.d_run.is_finite()
                            && g.d_contention.is_finite(),
                        "{kind:?} size {size} run {} chi {chi} at L = {f}: {cost} {g:?}",
                        w.run_count
                    );
                }
            }
        }
    }
}
