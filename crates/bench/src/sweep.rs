//! The block-sparse sweep problems the `solver` and `gradient` bench
//! suites share.

use std::sync::Arc;
use wasla::core::LayoutProblem;
use wasla::model::{CostGrad, CostModel};
use wasla::storage::IoKind;
use wasla::workload::{ObjectKind, WorkloadSet, WorkloadSpec};

/// Analytic sweep cost model: contention-sensitive and cheap, so the
/// benchmarks measure the evaluation and gradient machinery rather
/// than model arithmetic. Its exact `cost_with_grad` override keeps
/// the default finite-difference fallback (six model calls per cell)
/// from burying the effect being measured.
pub struct SweepModel;

impl SweepModel {
    fn base(kind: IoKind) -> f64 {
        match kind {
            IoKind::Read => 0.004,
            IoKind::Write => 0.003,
        }
    }
}

impl CostModel for SweepModel {
    fn request_cost(&self, kind: IoKind, size: f64, run: f64, chi: f64) -> f64 {
        Self::base(kind) / run.max(1.0) + 0.002 * chi + size / 60e6 + 0.0002
    }

    fn cost_with_grad(&self, kind: IoKind, size: f64, run: f64, chi: f64) -> CostGrad {
        let base = Self::base(kind);
        CostGrad {
            value: self.request_cost(kind, size, run, chi),
            d_size: 1.0 / 60e6,
            // The run clamp pins the subgradient at the kink: open on
            // the differentiable side only (strictly above 1.0).
            d_run: if run > 1.0 { -base / (run * run) } else { 0.0 },
            d_contention: 0.002,
        }
    }
}

/// An `n`-object, `m`-target problem over [`SweepModel`] with
/// block-sparse overlap: objects contend only within groups of 8, so
/// cross-workload contention terms are sparse the way traced catalogs
/// are.
pub fn sweep_problem(n: usize, m: usize) -> LayoutProblem {
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
