//! Randomized local search (simulated annealing).
//!
//! The paper's related-work section (§7) observes that a DAD-style
//! randomized search over layouts "would be an alternative to the NLP
//! solver that we used". We implement that alternative so the
//! `ablation-solver` experiment can ablate the solver choice: perturb
//! the current point, project back onto the feasible set, and accept by
//! the Metropolis rule under a geometric cooling schedule.
//!
//! [`anneal`] is the generic search; [`anneal_layout`] drives it over a
//! layout problem with the advisor's own evaluation engine and
//! feasible-set projection, folding the capacity constraints into a
//! quadratic penalty `10 · max(0, used/cap − 1)²` per target.

use std::cell::RefCell;
use wasla::core::optimizer::make_projection;
use wasla::core::{EvalEngine, Layout, LayoutProblem, NlpOutcome, ObjectiveKind};
use wasla::simlib::SimRng;
use wasla::solver::PgResult;

/// Options for [`anneal`].
#[derive(Clone, Debug)]
pub struct AnnealOptions {
    /// Total proposal steps.
    pub steps: usize,
    /// Initial temperature (objective units).
    pub temp0: f64,
    /// Geometric cooling factor per step.
    pub cooling: f64,
    /// Proposal standard deviation (per coordinate, before projection).
    pub sigma: f64,
    /// Number of coordinates perturbed per proposal.
    pub moves_per_step: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnnealOptions {
    fn default() -> Self {
        AnnealOptions {
            steps: 5_000,
            temp0: 0.1,
            cooling: 0.999,
            sigma: 0.15,
            moves_per_step: 2,
            seed: 1,
        }
    }
}

impl AnnealOptions {
    /// The schedule the layout experiments run: 20,000 proposals with
    /// σ = 0.2.
    pub fn for_layouts() -> Self {
        AnnealOptions {
            steps: 20_000,
            sigma: 0.2,
            ..AnnealOptions::default()
        }
    }
}

/// Minimizes `f` over the set defined by `project` with simulated
/// annealing from `x0`. Returns the best point visited.
pub fn anneal<F, P>(f: F, project: P, x0: &[f64], opts: &AnnealOptions) -> PgResult
where
    F: Fn(&[f64]) -> f64,
    P: Fn(&mut [f64]),
{
    let mut rng = SimRng::new(opts.seed);
    let mut x = x0.to_vec();
    project(&mut x);
    let mut fx = f(&x);
    let mut best = x.clone();
    let mut fbest = fx;
    let mut temp = opts.temp0;
    let mut proposal = x.clone();
    for _ in 0..opts.steps {
        proposal.copy_from_slice(&x);
        for _ in 0..opts.moves_per_step {
            let i = rng.index(proposal.len());
            proposal[i] += rng.normal(0.0, opts.sigma);
        }
        project(&mut proposal);
        let fp = f(&proposal);
        let accept = fp <= fx || rng.chance(((fx - fp) / temp.max(1e-18)).exp());
        if accept {
            x.copy_from_slice(&proposal);
            fx = fp;
            if fx < fbest {
                best.copy_from_slice(&x);
                fbest = fx;
            }
        }
        temp *= opts.cooling;
    }
    PgResult {
        x: best,
        value: fbest,
        iters: opts.steps,
        converged: true,
    }
}

/// Penalty weight on squared capacity violation.
const CAPACITY_PENALTY_WEIGHT: f64 = 10.0;

/// Anneals the layout problem's min-max objective from `initial`, with
/// the capacity constraints as a quadratic penalty, and reports the
/// best layout visited the way the NLP solve reports its outcome.
pub fn anneal_layout(
    problem: &LayoutProblem,
    initial: &Layout,
    opts: &AnnealOptions,
) -> NlpOutcome {
    let engine = RefCell::new(EvalEngine::with_objective(problem, ObjectiveKind::MinMax));
    let project = make_projection(problem);
    let mut x = initial.to_flat();
    project(&mut x);
    let penalized = |xv: &[f64]| {
        let mut e = engine.borrow_mut();
        let mut v = e.score_at(xv);
        for (j, &cap) in problem.capacities.iter().enumerate() {
            let over = (e.capacity_used(xv, j) / cap as f64 - 1.0).max(0.0);
            v += CAPACITY_PENALTY_WEIGHT * over * over;
        }
        v
    };
    let result = anneal(penalized, &project, &x, opts);
    let mut e = engine.into_inner();
    e.set_point(&result.x);
    NlpOutcome {
        layout: Layout::from_flat(&result.x, problem.n(), problem.m()),
        utilizations: e.committed_utilizations().to_vec(),
        max_utilization: e.committed_max_utilization(),
        score: e.committed_score(),
        converged: result.converged,
        stats: e.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wasla::core::{initial_layout, UtilizationEstimator};
    use wasla::model::CostModel;
    use wasla::solver::project_simplex;
    use wasla::storage::IoKind;
    use wasla::workload::{ObjectKind, WorkloadSet, WorkloadSpec};

    #[test]
    fn solves_simplex_linear_program() {
        // min c·x on the simplex → vertex with the smallest coefficient.
        let c = [3.0, 0.5, 2.0];
        let f = move |x: &[f64]| x.iter().zip(&c).map(|(a, b)| a * b).sum::<f64>();
        let r = anneal(
            f,
            |x: &mut [f64]| project_simplex(x, &mut Vec::new()),
            &[1.0 / 3.0; 3],
            &AnnealOptions::default(),
        );
        assert!(r.value < 0.6, "value {}", r.value);
        assert!(r.x[1] > 0.9, "{:?}", r.x);
    }

    #[test]
    fn escapes_poor_local_minimum_sometimes() {
        // Double well with a tilted floor; start in the worse basin.
        let f = |x: &[f64]| {
            let t = x[0];
            (t * t - 1.0).powi(2) + 0.3 * t
        };
        let r = anneal(
            f,
            |x: &mut [f64]| x[0] = x[0].clamp(-2.0, 2.0),
            &[1.0],
            &AnnealOptions {
                steps: 20_000,
                temp0: 0.5,
                ..AnnealOptions::default()
            },
        );
        assert!(r.x[0] < 0.0, "stayed in the worse basin: {:?}", r.x);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let f = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let opts = AnnealOptions::default();
        let a = anneal(
            f,
            |x: &mut [f64]| project_simplex(x, &mut Vec::new()),
            &[0.5, 0.5],
            &opts,
        );
        let b = anneal(
            f,
            |x: &mut [f64]| project_simplex(x, &mut Vec::new()),
            &[0.5, 0.5],
            &opts,
        );
        assert_eq!(a.x, b.x);
        assert_eq!(a.value, b.value);
    }

    #[test]
    fn best_never_worse_than_start() {
        let f = |x: &[f64]| (x[0] - 0.5).powi(2);
        let start = [1.0, 0.0];
        let f0 = f(&start);
        let r = anneal(
            f,
            |x: &mut [f64]| project_simplex(x, &mut Vec::new()),
            &start,
            &AnnealOptions {
                steps: 100,
                ..AnnealOptions::default()
            },
        );
        assert!(r.value <= f0);
    }

    #[test]
    fn anneal_engine_penalizes_violation() {
        // Pull toward x0 = 1 with x0 ≤ 0.4 as a penalty: the annealer
        // must settle near the constraint boundary, not the pull.
        let f = |x: &[f64]| {
            let over = (x[0] - 0.4).max(0.0);
            (x[0] - 1.0).powi(2) + 100.0 * over * over
        };
        let r = anneal(
            f,
            |x: &mut [f64]| project_simplex(x, &mut Vec::new()),
            &[0.5, 0.5],
            &AnnealOptions::default(),
        );
        assert!(r.x[0] < 0.55, "x0 = {}", r.x[0]);
    }

    /// Cost model where contention is expensive: isolating overlapping
    /// objects is clearly optimal.
    struct ContentionModel;
    impl CostModel for ContentionModel {
        fn request_cost(&self, _: IoKind, _: f64, run: f64, chi: f64) -> f64 {
            0.005 / run.max(1.0) + 0.004 * chi + 0.005
        }
    }

    /// Two equally hot, fully-overlapping sequential objects.
    fn two_hot_objects(m: usize) -> LayoutProblem {
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
    fn anneal_method_also_separates() {
        let p = two_hot_objects(2);
        let init = initial_layout(&p).unwrap();
        let out = anneal_layout(&p, &init, &AnnealOptions::for_layouts());
        let est = UtilizationEstimator::new(&p);
        assert!(out.max_utilization <= est.max_utilization(&Layout::see(2, 2)) + 1e-9);
    }

    #[test]
    fn anneal_layout_penalizes_capacity_violation() {
        // Target 0 holds one object; the penalty must keep the best
        // layout within (a hair of) its capacity.
        let mut p = two_hot_objects(2);
        p.capacities = vec![1 << 30, 4 << 30];
        let out = anneal_layout(&p, &Layout::see(2, 2), &AnnealOptions::for_layouts());
        let used: f64 = (0..2)
            .map(|i| out.layout.get(i, 0) * p.workloads.sizes[i] as f64)
            .sum();
        assert!(used / p.capacities[0] as f64 <= 1.05, "used {used}");
    }
}
