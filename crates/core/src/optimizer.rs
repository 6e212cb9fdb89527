//! The NLP solve step (paper §4.1).
//!
//! The layout problem — minimize `max_j µⱼ(L)` subject to integrity and
//! capacity constraints — is a non-convex NLP whose objective calls
//! black-box cost models. The paper hands it to MINOS; we solve it with
//! projected-gradient descent:
//!
//! * each object's row lives on a probability simplex → exact
//!   projection handles the integrity constraint (pinned/forbidden
//!   targets are folded into the projection);
//! * the coupling capacity constraints go through an augmented-
//!   Lagrangian outer loop;
//! * the `max` is smoothed by log-sum-exp with an annealed temperature;
//! * gradients are analytic where MINOS finite-differences the
//!   black-box cost functions: one chain-rule pass through the cost
//!   models' per-cell slopes over the incremental [`EvalEngine`]'s
//!   cached state ([`EvalEngine::grad_at`], DESIGN.md §15).
//!
//! Every solve runs over one [`EvalEngine`], which backs the objective,
//! the gradient and the capacity constraints alike, and hands them to
//! [`wasla_solver::minimize_constrained`]. Projected gradient is the
//! only engine; the randomized-search comparison the paper's §7
//! suggests lives with the experiments (`wasla-bench`).

use crate::eval::{EvalEngine, EvalStats, ObjectiveKind};
use crate::problem::{AdminConstraint, Layout, LayoutProblem};
use std::cell::RefCell;
use std::sync::Mutex;
use wasla_simlib::par;
use wasla_solver::{minimize_constrained, project_simplex, AugLagOptions, Constraint, PgOptions};

/// Options for [`solve_nlp`].
#[derive(Clone, Debug)]
pub struct SolverOptions {
    /// LSE temperatures relative to the current max utilization,
    /// annealed in order.
    pub temperatures: Vec<f64>,
    /// Augmented-Lagrangian options (capacity constraints); the inner
    /// projected-gradient options are `auglag.inner`.
    pub auglag: AugLagOptions,
    /// The layout objective scored by the solve. The default
    /// `MinMax` is the paper's objective and routes through weights
    /// of exactly 1.0, bit-identical to the unweighted path.
    pub objective: ObjectiveKind,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            temperatures: vec![0.25, 0.08, 0.02],
            auglag: AugLagOptions {
                inner: PgOptions {
                    max_iters: 60,
                    tol: 1e-5,
                    ..PgOptions::default()
                },
                outer_iters: 4,
            },
            objective: ObjectiveKind::MinMax,
        }
    }
}

/// Failure modes of [`solve_multistart`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MultistartError {
    /// No starting layouts were supplied, so no solve ran.
    NoStarts,
}

impl std::fmt::Display for MultistartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultistartError::NoStarts => write!(f, "multistart needs at least one start"),
        }
    }
}

impl std::error::Error for MultistartError {}

/// Result of the NLP solve.
#[derive(Clone, Debug)]
pub struct NlpOutcome {
    /// The (generally non-regular) optimized layout.
    pub layout: Layout,
    /// Predicted per-target utilizations under that layout.
    pub utilizations: Vec<f64>,
    /// The raw maximum utilization `max_j µⱼ` (reported regardless of
    /// objective).
    pub max_utilization: f64,
    /// The objective score `max_j wⱼ·µⱼ` — what the solve minimized
    /// and what multistart winners are picked by. Bitwise equal to
    /// `max_utilization` under the default `MinMax` objective.
    pub score: f64,
    /// Whether the final stage converged.
    pub converged: bool,
    /// Work counters of the engine that drove the solve (objective
    /// evals, gradient passes, cost-model lookups, …).
    pub stats: EvalStats,
}

/// Builds the feasible-set projection for a problem: per-row simplex
/// projection with pinned rows fixed and forbidden entries zeroed.
pub fn make_projection(problem: &LayoutProblem) -> impl Fn(&mut [f64]) + '_ {
    let n = problem.n();
    let m = problem.m();
    // Precompute per-object pin target and forbidden mask.
    let mut pinned: Vec<Option<usize>> = vec![None; n];
    let mut forbidden = vec![vec![false; m]; n];
    for c in &problem.constraints {
        match *c {
            AdminConstraint::PinTo { object, target } => pinned[object] = Some(target),
            AdminConstraint::Forbid { object, target } => forbidden[object][target] = true,
        }
    }
    // Scratch the closure reuses on every call: the allowed
    // coordinates of a row with forbidden targets, and the sorted copy
    // the simplex projection walks.
    let scratch = RefCell::new((Vec::with_capacity(m), Vec::with_capacity(m)));
    move |x: &mut [f64]| {
        // hot-closure-begin: per-row projection, allocation-free.
        let mut guard = scratch.borrow_mut();
        let (allowed, sorted) = &mut *guard;
        for i in 0..n {
            let row = &mut x[i * m..(i + 1) * m];
            if let Some(t) = pinned[i] {
                row.fill(0.0);
                row[t] = 1.0;
                continue;
            }
            let banned = &forbidden[i];
            if banned.iter().any(|&b| b) {
                // Project the allowed coordinates only.
                allowed.clear();
                allowed.extend((0..m).filter(|&j| !banned[j]).map(|j| row[j]));
                project_simplex(allowed, sorted);
                let kept = row.iter_mut().zip(banned).filter(|(_, &b)| !b);
                for ((v, _), &a) in kept.zip(allowed.iter()) {
                    *v = a;
                }
                for (v, _) in row.iter_mut().zip(banned).filter(|(_, &b)| b) {
                    *v = 0.0;
                }
            } else {
                project_simplex(row, sorted);
            }
        }
        // hot-closure-end
    }
}

/// Solves the layout NLP from one initial layout.
pub fn solve_nlp(problem: &LayoutProblem, initial: &Layout, opts: &SolverOptions) -> NlpOutcome {
    let engine = RefCell::new(EvalEngine::with_objective(problem, opts.objective));
    solve_with_engine(problem, initial, opts, &engine)
}

/// [`solve_nlp`] over a caller-supplied engine, so multistart can
/// reuse one workspace across solves: builds the feasible-set
/// projection and capacity constraints, then runs the LSE temperature
/// schedule through the augmented-Lagrangian loop. The engine must
/// have been built for `opts.objective`.
fn solve_with_engine<'p>(
    problem: &'p LayoutProblem,
    initial: &Layout,
    opts: &SolverOptions,
    engine: &RefCell<EvalEngine<'p>>,
) -> NlpOutcome {
    debug_assert_eq!(engine.borrow().objective(), opts.objective);
    let project = make_projection(problem);
    let constraints = capacity_constraints(problem, engine);
    let mut x = initial.to_flat();
    project(&mut x);
    let mut converged = false;
    for &rel_temp in &opts.temperatures {
        let current_max = engine.borrow_mut().score_at(&x).max(1e-9);
        let temp = rel_temp * current_max;
        // hot-closure-begin: solver objective/gradient closures —
        // all scratch lives in the engine workspace. The gradient
        // is one exact chain-rule pass over the cached state.
        let f = |xv: &[f64]| engine.borrow_mut().lse_score(xv, temp);
        let grad = |xv: &[f64], g: &mut [f64]| engine.borrow_mut().grad_at(xv, temp, g);
        // hot-closure-end
        let result = minimize_constrained(f, grad, &constraints, &project, &x, &opts.auglag);
        x = result.x;
        converged = result.converged;
    }
    finish(problem, engine, x, converged)
}

/// Solves from several initial layouts and keeps the best (the
/// Figure 4 `repeat?` loop; extra starts are how domain experts inject
/// candidate layouts, §4.1), or [`MultistartError::NoStarts`] when no
/// starting layout was supplied.
///
/// The starts are independent, so they run concurrently on the
/// [`par`] pool; the winner is picked in start-index order (earliest
/// of equally-good outcomes), so the result is identical to the serial
/// loop at any `WASLA_THREADS` setting.
///
/// Each distinct start is solved once. A start whose rows are bitwise
/// equal (`f64::to_bits`) to an earlier start's would solve to a
/// bitwise-equal outcome, which the strict `<` pick never prefers
/// over the earlier twin, so skipping it leaves the result unchanged.
///
/// The solves draw from a shared pool of [`EvalEngine`] workspaces
/// instead of building a fresh engine per start: at most
/// `min(distinct starts, threads)` engines are ever built, and each is
/// [`EvalEngine::reset`] per start, so reuse is bit-equivalent to a
/// fresh build, counters included (asserted in
/// `tests/eval_determinism.rs`).
pub fn solve_multistart(
    problem: &LayoutProblem,
    starts: &[Layout],
    opts: &SolverOptions,
) -> Result<NlpOutcome, MultistartError> {
    let distinct: Vec<&Layout> = starts
        .iter()
        .enumerate()
        .filter(|&(k, s)| !starts[..k].iter().any(|earlier| earlier.same_bits(s)))
        .map(|(_, s)| s)
        .collect();
    let pool: Mutex<Vec<EvalEngine<'_>>> = Mutex::new(Vec::new());
    let outcomes = par::par_map(&distinct, |s| {
        // A poisoned pool only means another start panicked mid-solve;
        // parked engines are reset before use, so recover the guard
        // rather than propagating the panic.
        let mut engine = pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop()
            .unwrap_or_else(|| EvalEngine::with_objective(problem, opts.objective));
        // Each solve starts from the fresh all-zero state, so its work
        // and counters do not depend on which start the pool served
        // before.
        engine.reset();
        let cell = RefCell::new(engine);
        let outcome = solve_with_engine(problem, s, opts, &cell);
        pool.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(cell.into_inner());
        outcome
    });
    let mut best: Option<NlpOutcome> = None;
    for outcome in outcomes {
        let better = match &best {
            None => true,
            Some(b) => outcome.score < b.score,
        };
        if better {
            best = Some(outcome);
        }
    }
    best.ok_or(MultistartError::NoStarts)
}

/// Capacity constraints over the engine's cached column sums: each
/// evaluation is a bitwise diff against the committed point (a no-op
/// when unchanged) plus one cached read, instead of an O(N) refold.
fn capacity_constraints<'e, 'p: 'e>(
    problem: &'p LayoutProblem,
    engine: &'e RefCell<EvalEngine<'p>>,
) -> Vec<Constraint<'e>> {
    let n = problem.n();
    let m = problem.m();
    (0..m)
        .map(|j| {
            let sizes = &problem.workloads.sizes;
            let cap = problem.capacities[j] as f64;
            Constraint {
                g: Box::new(move |x: &[f64]| engine.borrow_mut().capacity_used(x, j) / cap - 1.0),
                grad: Box::new(move |_x: &[f64], g: &mut [f64]| {
                    g.fill(0.0);
                    for i in 0..n {
                        g[i * m + j] = sizes[i] as f64 / cap;
                    }
                }),
            }
        })
        .collect()
}

/// The outcome at `x`, read off the engine's committed state.
fn finish(
    problem: &LayoutProblem,
    engine: &RefCell<EvalEngine<'_>>,
    x: Vec<f64>,
    converged: bool,
) -> NlpOutcome {
    let mut e = engine.borrow_mut();
    e.set_point(&x);
    let utilizations = e.committed_utilizations().to_vec();
    let max_utilization = e.committed_max_utilization();
    let score = e.committed_score();
    NlpOutcome {
        layout: Layout::from_flat(&x, problem.n(), problem.m()),
        utilizations,
        max_utilization,
        score,
        converged,
        stats: e.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::UtilizationEstimator;
    use crate::initial::initial_layout;
    use std::sync::Arc;
    use wasla_model::CostModel;
    use wasla_storage::IoKind;
    use wasla_workload::{ObjectKind, WorkloadSet, WorkloadSpec};

    /// Cost model where contention is expensive: isolating overlapping
    /// objects is clearly optimal.
    struct ContentionModel;
    impl CostModel for ContentionModel {
        fn request_cost(&self, _: IoKind, _: f64, run: f64, chi: f64) -> f64 {
            0.005 / run.max(1.0) + 0.004 * chi + 0.005
        }
    }

    fn two_hot_objects(m: usize) -> LayoutProblem {
        // Two equally hot, fully-overlapping sequential objects.
        let spec = |other: usize| WorkloadSpec {
            read_size: 131072.0,
            write_size: 8192.0,
            read_rate: 50.0,
            write_rate: 0.0,
            run_count: 64.0,
            overlaps: {
                let mut o = vec![0.0; 2];
                o[other] = 1.0;
                o
            },
        };
        LayoutProblem {
            workloads: WorkloadSet {
                names: vec!["A".into(), "B".into()],
                sizes: vec![1 << 30, 1 << 30],
                specs: vec![spec(1), spec(0)],
            },
            kinds: vec![ObjectKind::Table; 2],
            capacities: vec![4 << 30; m],
            target_names: (0..m).map(|j| format!("t{j}")).collect(),
            models: (0..m).map(|_| Arc::new(ContentionModel) as _).collect(),
            stripe_size: 1024.0 * 1024.0,
            constraints: vec![],
        }
    }

    #[test]
    fn solver_separates_interfering_objects() {
        let p = two_hot_objects(2);
        let est = UtilizationEstimator::new(&p);
        let see = Layout::see(2, 2);
        let see_util = est.max_utilization(&see);
        let init = initial_layout(&p).unwrap();
        let out = solve_nlp(&p, &init, &SolverOptions::default());
        assert!(
            out.max_utilization < see_util,
            "solver {:.4} vs SEE {:.4}",
            out.max_utilization,
            see_util
        );
        // The optimum separates A and B entirely.
        let overlap: f64 = (0..2)
            .map(|j| out.layout.get(0, j).min(out.layout.get(1, j)))
            .sum();
        assert!(overlap < 0.1, "layout {:?}", out.layout.rows());
    }

    #[test]
    fn projection_enforces_constraints() {
        let mut p = two_hot_objects(3);
        p.constraints = vec![
            AdminConstraint::PinTo {
                object: 0,
                target: 2,
            },
            AdminConstraint::Forbid {
                object: 1,
                target: 0,
            },
        ];
        let project = make_projection(&p);
        let mut x = vec![0.4, 0.3, 0.3, 0.6, 0.2, 0.2];
        project(&mut x);
        assert_eq!(&x[0..3], &[0.0, 0.0, 1.0]);
        assert_eq!(x[3], 0.0);
        assert!((x[4] + x[5] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn solve_respects_admin_constraints() {
        let mut p = two_hot_objects(2);
        p.constraints = vec![AdminConstraint::PinTo {
            object: 0,
            target: 1,
        }];
        let init = initial_layout(&p).unwrap();
        let out = solve_nlp(&p, &init, &SolverOptions::default());
        assert!(p.satisfies_constraints(&out.layout));
        assert!(out.layout.get(0, 1) > 0.999);
    }

    #[test]
    fn capacity_constraint_respected() {
        let mut p = two_hot_objects(2);
        // Target 0 can hold only one object.
        p.capacities = vec![1 << 30, 4 << 30];
        let init = initial_layout(&p).unwrap();
        let out = solve_nlp(&p, &init, &SolverOptions::default());
        assert!(
            out.layout
                .satisfies_capacity(&p.workloads.sizes, &p.capacities),
            "layout {:?}",
            out.layout.rows()
        );
    }

    #[test]
    fn empty_starts_is_a_typed_error() {
        let p = two_hot_objects(2);
        let err = solve_multistart(&p, &[], &SolverOptions::default()).unwrap_err();
        assert_eq!(err, MultistartError::NoStarts);
        assert!(err.to_string().contains("at least one start"));
    }

    /// Every field of an outcome, bitwise.
    fn outcome_bits(o: &NlpOutcome) -> (Vec<u64>, Vec<u64>, u64, u64, bool, EvalStats) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        (
            bits(&o.layout.to_flat()),
            bits(&o.utilizations),
            o.max_utilization.to_bits(),
            o.score.to_bits(),
            o.converged,
            o.stats,
        )
    }

    #[test]
    fn duplicate_starts_do_not_change_the_outcome() {
        let p = two_hot_objects(3);
        let init = initial_layout(&p).unwrap();
        let see = Layout::see(2, 3);
        let opts = SolverOptions::default();
        // The two starts reach different scores, so in one of the
        // orders below the winner is not the first start.
        assert_ne!(
            solve_nlp(&p, &init, &opts).score.to_bits(),
            solve_nlp(&p, &see, &opts).score.to_bits()
        );
        for (starts, distinct) in [
            (
                vec![init.clone(), see.clone(), init.clone(), see.clone()],
                vec![init.clone(), see.clone()],
            ),
            (
                vec![see.clone(), see.clone(), init.clone(), see.clone()],
                vec![see.clone(), init.clone()],
            ),
        ] {
            // The serial definition: solve every start, duplicates
            // included, and keep the first strictly-best outcome.
            let serial = starts
                .iter()
                .map(|s| solve_nlp(&p, s, &opts))
                .reduce(|best, out| if out.score < best.score { out } else { best })
                .unwrap();
            let multi = solve_multistart(&p, &starts, &opts).unwrap();
            assert_eq!(outcome_bits(&multi), outcome_bits(&serial));
            let deduplicated = solve_multistart(&p, &distinct, &opts).unwrap();
            assert_eq!(outcome_bits(&multi), outcome_bits(&deduplicated));
        }
    }

    #[test]
    fn multistart_no_worse_than_single() {
        let p = two_hot_objects(2);
        let init = initial_layout(&p).unwrap();
        let opts = SolverOptions::default();
        let single = solve_nlp(&p, &init, &opts);
        let multi = solve_multistart(&p, &[init, Layout::see(2, 2)], &opts).unwrap();
        assert!(multi.max_utilization <= single.max_utilization + 1e-9);
    }
}
