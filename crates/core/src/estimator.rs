//! Storage-target utilization estimation (paper §5.2, Figure 6).
//!
//! Given a candidate layout, the estimator pipes each object's workload
//! through the layout model to get per-target workloads `Wᵢⱼ`, computes
//! the contention factor
//!
//! `χᵢⱼ = Σ_{k≠i} (λₖⱼᴿ + λₖⱼᵂ)·Oᵢⱼ[k] / (λᵢⱼᴿ + λᵢⱼᵂ)`   (Eq. 2)
//!
//! and asks the target's cost model for per-request costs, yielding
//!
//! `µᵢⱼ = λᵢⱼᴿ·Costⱼᴿ + λᵢⱼᵂ·Costⱼᵂ`                      (Eq. 1)
//!
//! The target's total utilization `µⱼ = Σᵢ µᵢⱼ` is what the layout
//! optimizer's min-max objective consumes.
//!
//! The estimator is also the from-scratch reference for the
//! incremental [`crate::eval::EvalEngine`]: the engine's utilizations,
//! scores and analytic gradient ([`UtilizationEstimator::lse_score_gradient`])
//! must equal the estimator's bit for bit (DESIGN.md §10, §15).

use crate::eval::grad::{self, CellGrad, CrossAdjacency};
use crate::eval::kernel::{self, RateTransform};
use crate::eval::EvalStats;
use crate::layout_model;
use crate::problem::{Layout, LayoutProblem, EPS};
use wasla_solver::softmax_weights;
use wasla_storage::IoKind;

/// Computes predicted target utilizations for candidate layouts.
pub struct UtilizationEstimator<'a> {
    problem: &'a LayoutProblem,
}

impl<'a> UtilizationEstimator<'a> {
    /// Creates an estimator over a problem.
    pub fn new(problem: &'a LayoutProblem) -> Self {
        UtilizationEstimator { problem }
    }

    /// The utilization `µⱼ` of one target under `layout`.
    pub fn target_utilization(&self, layout: &Layout, j: usize) -> f64 {
        let n = self.problem.n();
        (0..n)
            .map(|i| self.object_target_utilization(layout, i, j))
            .sum()
    }

    /// The utilization `µᵢⱼ` attributable to object `i` on target `j`.
    pub fn object_target_utilization(&self, layout: &Layout, i: usize, j: usize) -> f64 {
        let f = layout.get(i, j);
        if f <= EPS {
            return 0.0;
        }
        let spec = &self.problem.workloads.specs[i];
        let w = layout_model::apply(spec, f, self.problem.stripe_size);
        if w.total_rate() <= 0.0 {
            return 0.0;
        }
        let chi = self.contention(layout, i, j, w.total_rate());
        let model = &self.problem.models[j];
        w.read_rate * model.request_cost(IoKind::Read, w.read_size, w.run_count, chi)
            + w.write_rate * model.request_cost(IoKind::Write, w.write_size, w.run_count, chi)
    }

    /// The contention factor `χᵢⱼ` (Eq. 2): temporally-correlated
    /// competing requests per own request on target `j`. Folded through
    /// the canonical pairwise kernel so the result is bit-identical to
    /// the incremental engine's cached competing-rate trees.
    pub fn contention(&self, layout: &Layout, i: usize, j: usize, own_rate: f64) -> f64 {
        let specs = &self.problem.workloads.specs;
        let o_i = &specs[i].overlaps;
        kernel::contention(
            specs.len(),
            i,
            own_rate,
            RateTransform::Average,
            &|k| specs[k].total_rate(),
            &|k| layout.get(k, j),
            &|k| o_i[k],
        )
    }

    /// The competing-rate sum alone — the numerator of `χᵢⱼ` over the
    /// canonical pairwise association, bit-identical to the root of
    /// `EvalEngine`'s cached tree `(i, j)`. The analytic gradient's
    /// from-scratch path differentiates through this value.
    pub fn competing(&self, layout: &Layout, i: usize, j: usize) -> f64 {
        let specs = &self.problem.workloads.specs;
        let o_i = &specs[i].overlaps;
        kernel::competing_sum(
            specs.len(),
            i,
            RateTransform::Average,
            &|k| specs[k].total_rate(),
            &|k| layout.get(k, j),
            &|k| o_i[k],
        )
    }

    /// The contention factor computed from *busy-period* rates: each
    /// workload's average rate is divided by its duty cycle (fraction
    /// of time active) before entering Eq. 2. Rome's full language
    /// models ON/OFF burstiness; this variant prices interference at
    /// the intensity it actually occurs (used by the
    /// `ablation-contention` experiment; the default advisor follows
    /// the paper and uses average rates).
    pub fn contention_with_duty(
        &self,
        layout: &Layout,
        i: usize,
        j: usize,
        own_rate: f64,
        duty: &[f64],
    ) -> f64 {
        let specs = &self.problem.workloads.specs;
        let o_i = &specs[i].overlaps;
        kernel::contention(
            specs.len(),
            i,
            own_rate,
            RateTransform::BusyPeriod(duty),
            &|k| specs[k].total_rate(),
            &|k| layout.get(k, j),
            &|k| o_i[k],
        )
    }

    /// All target utilizations `µ₁..µ_M`.
    pub fn utilizations(&self, layout: &Layout) -> Vec<f64> {
        (0..self.problem.m())
            .map(|j| self.target_utilization(layout, j))
            .collect()
    }

    /// The objective `max_j µⱼ` (paper Definition 1).
    pub fn max_utilization(&self, layout: &Layout) -> f64 {
        crate::eval::max_of(&self.utilizations(layout))
    }

    /// The full `µᵢⱼ` matrix.
    pub fn mu_matrix(&self, layout: &Layout) -> Vec<Vec<f64>> {
        (0..self.problem.n())
            .map(|i| {
                (0..self.problem.m())
                    .map(|j| self.object_target_utilization(layout, i, j))
                    .collect()
            })
            .collect()
    }

    /// Total storage-system load of object `i` under `layout`
    /// (`Σⱼ µᵢⱼ`) — the regularizer's processing order key (§4.3).
    pub fn object_load(&self, layout: &Layout, i: usize) -> f64 {
        (0..self.problem.m())
            .map(|j| self.object_target_utilization(layout, i, j))
            .sum()
    }

    /// The analytic gradient of the smoothed score
    /// `lse_max(w·µ(L), temp)` with respect to every fraction `Lᵢⱼ`,
    /// row-major N×M, computed from scratch: the reference that
    /// `EvalEngine::grad_at` matches bit for bit. Each cell's slopes
    /// come from [`grad::cell_grad`] over this estimator's canonical
    /// competing sums, and cross terms accumulate through the same
    /// [`CrossAdjacency`] rows in the same order (DESIGN.md §15).
    /// `weights` are the objective's per-target penalty weights.
    pub fn lse_score_gradient(&self, layout: &Layout, weights: &[f64], temp: f64) -> Vec<f64> {
        let (n, m) = (self.problem.n(), self.problem.m());
        let specs = &self.problem.workloads.specs;
        let weighted: Vec<f64> = self
            .utilizations(layout)
            .iter()
            .zip(weights)
            .map(|(&mu, &w)| w * mu)
            .collect();
        let mut smax = Vec::with_capacity(m);
        softmax_weights(&weighted, temp, &mut smax);
        let cross = CrossAdjacency::build(specs);
        let mut stats = EvalStats::default();
        let mut g = vec![0.0; n * m];
        for j in 0..m {
            let cells: Vec<CellGrad> = (0..n)
                .map(|k| {
                    grad::cell_grad(
                        &*self.problem.models[j],
                        &specs[k],
                        layout.get(k, j),
                        self.competing(layout, k, j),
                        self.problem.stripe_size,
                        &mut stats,
                    )
                })
                .collect();
            let sw_j = smax[j] * weights[j];
            for i in 0..n {
                let mut cross_sum = 0.0;
                for &(k, rw) in cross.row(i) {
                    cross_sum += cells[k as usize].csens * rw;
                }
                g[i * m + j] = sw_j * (cells[i].du_own + cross_sum);
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::LayoutProblem;
    use std::sync::Arc;
    use wasla_model::CostModel;
    use wasla_workload::{ObjectKind, WorkloadSet, WorkloadSpec};

    /// A transparent cost model for hand-checkable tests: cost =
    /// base + penalty·χ + seq discount.
    struct ToyModel {
        base: f64,
        chi_penalty: f64,
    }

    impl CostModel for ToyModel {
        fn request_cost(&self, _kind: IoKind, _size: f64, run: f64, chi: f64) -> f64 {
            let seq_discount = 1.0 / run.max(1.0);
            self.base * seq_discount + self.chi_penalty * chi
        }
    }

    fn toy_problem(overlap: f64) -> LayoutProblem {
        let mk_spec = |rate: f64, run: f64, overlaps: Vec<f64>| WorkloadSpec {
            read_size: 8192.0,
            write_size: 8192.0,
            read_rate: rate,
            write_rate: 0.0,
            run_count: run,
            overlaps,
        };
        LayoutProblem {
            workloads: WorkloadSet {
                names: vec!["A".into(), "B".into()],
                sizes: vec![1000, 1000],
                specs: vec![
                    mk_spec(10.0, 1.0, vec![0.0, overlap]),
                    mk_spec(20.0, 1.0, vec![overlap, 0.0]),
                ],
            },
            kinds: vec![ObjectKind::Table, ObjectKind::Table],
            capacities: vec![10_000, 10_000],
            target_names: vec!["t0".into(), "t1".into()],
            models: vec![
                Arc::new(ToyModel {
                    base: 0.01,
                    chi_penalty: 0.001,
                }),
                Arc::new(ToyModel {
                    base: 0.01,
                    chi_penalty: 0.001,
                }),
            ],
            stripe_size: 1024.0 * 1024.0,
            constraints: vec![],
        }
    }

    #[test]
    fn separated_objects_no_contention() {
        let p = toy_problem(1.0);
        let est = UtilizationEstimator::new(&p);
        let l = Layout::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]);
        assert_eq!(est.contention(&l, 0, 0, 10.0), 0.0);
        let mu = est.utilizations(&l);
        // µ0 = 10 × 0.01 = 0.1; µ1 = 20 × 0.01 = 0.2.
        assert!((mu[0] - 0.1).abs() < 1e-12);
        assert!((mu[1] - 0.2).abs() < 1e-12);
        assert!((est.max_utilization(&l) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn colocated_overlapping_objects_contend() {
        let p = toy_problem(1.0);
        let est = UtilizationEstimator::new(&p);
        let l = Layout::from_rows(vec![vec![1.0, 0.0], vec![1.0, 0.0]]);
        // χ for A on t0: B's 20 req/s · O=1 / A's 10 = 2.
        assert!((est.contention(&l, 0, 0, 10.0) - 2.0).abs() < 1e-12);
        // χ for B: 10/20 = 0.5.
        assert!((est.contention(&l, 1, 0, 20.0) - 0.5).abs() < 1e-12);
        // µ0 = 10(0.01 + 0.002) + 20(0.01 + 0.0005) = 0.12 + 0.21.
        let mu = est.utilizations(&l);
        assert!((mu[0] - 0.33).abs() < 1e-12, "mu0 {}", mu[0]);
        assert_eq!(mu[1], 0.0);
    }

    #[test]
    fn zero_overlap_means_zero_contention() {
        let p = toy_problem(0.0);
        let est = UtilizationEstimator::new(&p);
        let l = Layout::from_rows(vec![vec![1.0, 0.0], vec![1.0, 0.0]]);
        assert_eq!(est.contention(&l, 0, 0, 10.0), 0.0);
        // Co-location without temporal overlap costs nothing extra.
        let mu = est.utilizations(&l);
        assert!((mu[0] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn striping_splits_rates() {
        let p = toy_problem(0.0);
        let est = UtilizationEstimator::new(&p);
        let l = Layout::see(2, 2);
        let mu = est.utilizations(&l);
        // Each target gets half of each object's rate: 5 + 10 = 15 req/s
        // at cost 0.01 → 0.15 per target.
        assert!((mu[0] - 0.15).abs() < 1e-12);
        assert!((mu[1] - 0.15).abs() < 1e-12);
    }

    #[test]
    fn mu_matrix_and_object_load_consistent() {
        let p = toy_problem(0.5);
        let est = UtilizationEstimator::new(&p);
        let l = Layout::from_rows(vec![vec![0.5, 0.5], vec![1.0, 0.0]]);
        let mu = est.mu_matrix(&l);
        let total_0: f64 = mu[0].iter().sum();
        assert!((est.object_load(&l, 0) - total_0).abs() < 1e-12);
        let by_target: Vec<f64> = (0..2).map(|j| mu[0][j] + mu[1][j]).collect();
        let direct = est.utilizations(&l);
        for (a, b) in by_target.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn sequential_workload_cheaper() {
        let mut p = toy_problem(0.0);
        p.workloads.specs[0].run_count = 100.0;
        // Short runs stay intact under striping (Q·B < stripe).
        let est = UtilizationEstimator::new(&p);
        let l = Layout::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]);
        let mu = est.utilizations(&l);
        assert!(mu[0] < 0.011, "sequential A should be cheap: {}", mu[0]);
    }
}
