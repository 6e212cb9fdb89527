//! Initial layout heuristic (paper §4.2).
//!
//! The paper found that starting MINOS from SEE often strands it in
//! that local minimum, so the advisor seeds the solver with a simple
//! rate-greedy packing instead: objects are placed one at a time in
//! decreasing order of total request rate, each going *entirely* to the
//! target with the lowest total assigned request rate among those with
//! enough remaining capacity. The heuristic ignores interference and
//! target performance — the solver fixes that.

use crate::problem::{AdminConstraint, Layout, LayoutProblem};

/// Why no initial layout could be constructed.
#[derive(Clone, Debug, PartialEq)]
pub enum InitialLayoutError {
    /// No target has room for this object (after honoring constraints).
    NoFit {
        /// The object that could not be placed.
        object: usize,
    },
}

impl std::fmt::Display for InitialLayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InitialLayoutError::NoFit { object } => {
                write!(f, "no target can hold object {object}")
            }
        }
    }
}

impl std::error::Error for InitialLayoutError {}

/// Builds the rate-greedy initial layout.
pub fn initial_layout(problem: &LayoutProblem) -> Result<Layout, InitialLayoutError> {
    let n = problem.n();
    let m = problem.m();
    let mut layout = Layout::zero(n, m);
    let mut remaining: Vec<f64> = problem.capacities.iter().map(|&c| c as f64).collect();
    let mut assigned_rate = vec![0.0f64; m];

    for &i in &problem.workloads.by_decreasing_rate() {
        let size = problem.workloads.sizes[i] as f64;
        let rate = problem.workloads.specs[i].total_rate();
        // Admin constraints narrow the candidate targets.
        let pinned = problem.constraints.iter().find_map(|c| match *c {
            AdminConstraint::PinTo { object, target } if object == i => Some(target),
            _ => None,
        });
        let allowed = |j: usize| {
            !problem.constraints.iter().any(|c| {
                matches!(*c, AdminConstraint::Forbid { object, target }
                    if object == i && target == j)
            })
        };
        let candidates: Vec<usize> = match pinned {
            Some(j) => vec![j],
            None => (0..m).filter(|&j| allowed(j)).collect(),
        };
        // Least assigned request rate among targets that fit.
        let best = candidates
            .into_iter()
            .filter(|&j| remaining[j] >= size)
            .min_by(|&a, &b| {
                assigned_rate[a]
                    .partial_cmp(&assigned_rate[b])
                    .expect("rates finite")
                    .then(a.cmp(&b))
            })
            .ok_or(InitialLayoutError::NoFit { object: i })?;
        layout.set(i, best, 1.0);
        remaining[best] -= size;
        assigned_rate[best] += rate;
    }
    Ok(layout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::LayoutProblem;
    use std::sync::Arc;
    use wasla_model::CostModel;
    use wasla_storage::IoKind;
    use wasla_workload::{ObjectKind, WorkloadSet, WorkloadSpec};

    struct Flat;
    impl CostModel for Flat {
        fn request_cost(&self, _: IoKind, _: f64, _: f64, _: f64) -> f64 {
            0.01
        }
    }

    fn problem(rates: &[f64], sizes: &[u64], capacities: &[u64]) -> LayoutProblem {
        let n = rates.len();
        LayoutProblem {
            workloads: WorkloadSet {
                names: (0..n).map(|i| format!("o{i}")).collect(),
                sizes: sizes.to_vec(),
                specs: rates
                    .iter()
                    .map(|&r| WorkloadSpec {
                        read_size: 8192.0,
                        write_size: 8192.0,
                        read_rate: r,
                        write_rate: 0.0,
                        run_count: 1.0,
                        overlaps: vec![0.0; n],
                    })
                    .collect(),
            },
            kinds: vec![ObjectKind::Table; n],
            capacities: capacities.to_vec(),
            target_names: (0..capacities.len()).map(|j| format!("t{j}")).collect(),
            models: capacities.iter().map(|_| Arc::new(Flat) as _).collect(),
            stripe_size: 1024.0 * 1024.0,
            constraints: vec![],
        }
    }

    #[test]
    fn balances_rates_greedily() {
        // Rates 40, 30, 20, 10 on two targets → {40,10} vs {30,20}.
        let p = problem(&[40.0, 30.0, 20.0, 10.0], &[1; 4], &[100, 100]);
        let l = initial_layout(&p).unwrap();
        assert!(l.satisfies_integrity());
        let rate_on = |j: usize| -> f64 {
            (0..4)
                .map(|i| l.get(i, j) * p.workloads.specs[i].total_rate())
                .sum()
        };
        assert_eq!(rate_on(0), 50.0);
        assert_eq!(rate_on(1), 50.0);
        // Each object entirely on one target.
        for i in 0..4 {
            assert_eq!(l.targets_of(i).len(), 1);
        }
    }

    #[test]
    fn respects_capacity() {
        // Target 0 too small for the hot object.
        let p = problem(&[100.0, 1.0], &[80, 10], &[50, 100]);
        let l = initial_layout(&p).unwrap();
        assert_eq!(l.get(0, 1), 1.0);
        assert!(l.satisfies_capacity(&p.workloads.sizes, &p.capacities));
    }

    #[test]
    fn infeasible_reports_object() {
        let p = problem(&[1.0], &[1000], &[10, 10]);
        let err = initial_layout(&p).unwrap_err();
        assert_eq!(err, InitialLayoutError::NoFit { object: 0 });
    }

    #[test]
    fn honors_pin_and_forbid() {
        let mut p = problem(&[50.0, 40.0], &[10, 10], &[100, 100]);
        p.constraints = vec![
            crate::problem::AdminConstraint::PinTo {
                object: 0,
                target: 1,
            },
            crate::problem::AdminConstraint::Forbid {
                object: 1,
                target: 0,
            },
        ];
        let l = initial_layout(&p).unwrap();
        assert_eq!(l.get(0, 1), 1.0);
        assert_eq!(l.get(1, 1), 1.0);
        assert!(p.satisfies_constraints(&l));
    }

    #[test]
    fn ties_break_deterministically() {
        let p = problem(&[10.0, 10.0, 10.0], &[1; 3], &[10, 10, 10]);
        let a = initial_layout(&p).unwrap();
        let b = initial_layout(&p).unwrap();
        assert_eq!(a, b);
    }
}
