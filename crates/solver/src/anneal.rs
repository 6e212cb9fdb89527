//! Randomized local search (simulated annealing).
//!
//! The paper's related-work section (§7) observes that a DAD-style
//! randomized search over layouts "would be an alternative to the NLP
//! solver that we used". We implement that alternative so the
//! benchmark suite can ablate the solver choice: perturb the current
//! point, project back onto the feasible set, and accept by the
//! Metropolis rule under a geometric cooling schedule.

use crate::pg::PgResult;
use wasla_simlib::SimRng;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::project_simplex;

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
}
