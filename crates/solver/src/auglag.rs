//! Augmented-Lagrangian handling of inequality constraints.
//!
//! The capacity constraints `Σᵢ sᵢ Lᵢⱼ ≤ cⱼ` couple the layout rows, so
//! they cannot be folded into the per-row simplex projection. We wrap
//! the projected-gradient inner solver in a standard augmented-
//! Lagrangian loop for inequalities `g_k(x) ≤ 0`:
//!
//! `L(x; λ, ρ) = f(x) + 1/(2ρ) Σ_k ( max(0, λ_k + ρ g_k(x))² − λ_k² )`
//!
//! with multiplier updates `λ_k ← max(0, λ_k + ρ g_k(x))` and penalty
//! growth when constraint violation stalls.

use crate::pg::{minimize, PgOptions, PgResult};

/// A boxed constraint-value oracle.
pub type ValueFn<'a> = Box<dyn Fn(&[f64]) -> f64 + 'a>;
/// A boxed constraint-gradient oracle.
pub type GradFn<'a> = Box<dyn Fn(&[f64], &mut [f64]) + 'a>;

/// One inequality constraint `g(x) ≤ 0` with its gradient.
pub struct Constraint<'a> {
    /// Constraint value; feasible when ≤ 0.
    pub g: ValueFn<'a>,
    /// Writes ∇g(x) into the slice.
    pub grad: GradFn<'a>,
}

/// Initial penalty ρ.
const RHO0: f64 = 10.0;

/// Penalty growth factor when violation does not shrink enough.
const RHO_GROWTH: f64 = 4.0;

/// Constraint tolerance: max violation below this counts feasible.
const FEAS_TOL: f64 = 1e-6;

/// Options for the augmented-Lagrangian outer loop.
#[derive(Clone, Debug)]
pub struct AugLagOptions {
    /// Inner projected-gradient options.
    pub inner: PgOptions,
    /// Outer iterations (multiplier updates).
    pub outer_iters: usize,
}

impl Default for AugLagOptions {
    fn default() -> Self {
        AugLagOptions {
            inner: PgOptions::default(),
            outer_iters: 10,
        }
    }
}

/// Minimizes `f` subject to `g_k(x) ≤ 0` and membership in the
/// projection set.
pub fn minimize_constrained<F, G, P>(
    f: F,
    grad_f: G,
    constraints: &[Constraint<'_>],
    project: P,
    x0: &[f64],
    opts: &AugLagOptions,
) -> PgResult
where
    F: Fn(&[f64]) -> f64,
    G: Fn(&[f64], &mut [f64]),
    P: Fn(&mut [f64]),
{
    if constraints.is_empty() {
        return minimize(f, grad_f, project, x0, &opts.inner);
    }
    let k = constraints.len();
    let mut lambda = vec![0.0f64; k];
    let mut rho = RHO0;
    let mut x = x0.to_vec();
    let mut best: Option<PgResult> = None;
    let mut prev_violation = f64::INFINITY;
    // Shared constraint-gradient buffer, hoisted out of the inner
    // closures: the AL gradient runs once per PG iteration and must
    // not pay an allocation per call.
    let gbuf = std::cell::RefCell::new(vec![0.0f64; x0.len()]);

    for _ in 0..opts.outer_iters {
        let lam = lambda.clone();
        // hot-closure-begin: the AL objective/gradient closures run in
        // the PG inner loop and must not allocate (ci/check.sh greps
        // this region for allocation idioms).
        let al = |x: &[f64]| {
            let mut v = f(x);
            for (c, &l) in constraints.iter().zip(&lam) {
                let t = (l + rho * (c.g)(x)).max(0.0);
                v += (t * t - l * l) / (2.0 * rho);
            }
            v
        };
        let result = {
            let grad_al = |x: &[f64], g: &mut [f64]| {
                grad_f(x, g);
                let mut buf = gbuf.borrow_mut();
                for (c, &l) in constraints.iter().zip(&lam) {
                    let t = (l + rho * (c.g)(x)).max(0.0);
                    if t > 0.0 {
                        (c.grad)(x, &mut buf);
                        for (gi, bi) in g.iter_mut().zip(buf.iter()) {
                            *gi += t * bi;
                        }
                    }
                }
            };
            minimize(al, grad_al, &project, &x, &opts.inner)
        };
        // hot-closure-end
        x.copy_from_slice(&result.x);
        // Multiplier update and violation tracking.
        let mut violation = 0.0f64;
        for (idx, c) in constraints.iter().enumerate() {
            let gv = (c.g)(&x);
            violation = violation.max(gv.max(0.0));
            lambda[idx] = (lambda[idx] + rho * gv).max(0.0);
        }
        let fx = f(&x);
        let record = PgResult {
            x: x.clone(),
            value: fx,
            iters: result.iters,
            converged: result.converged && violation <= FEAS_TOL,
        };
        let improves = match &best {
            None => true,
            Some(b) => violation <= FEAS_TOL && (fx < b.value || !b.converged),
        };
        if improves {
            best = Some(record);
        }
        if violation <= FEAS_TOL {
            if result.converged {
                break;
            }
        } else if violation > 0.5 * prev_violation {
            rho *= RHO_GROWTH;
        }
        prev_violation = violation;
    }
    best.unwrap_or(PgResult {
        x,
        value: f64::INFINITY,
        iters: 0,
        converged: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::project_simplex;

    #[test]
    fn unconstrained_passthrough() {
        let f = |x: &[f64]| (x[0] - 0.3).powi(2) + (x[1] - 0.7).powi(2);
        let grad = |x: &[f64], g: &mut [f64]| {
            g[0] = 2.0 * (x[0] - 0.3);
            g[1] = 2.0 * (x[1] - 0.7);
        };
        let r = minimize_constrained(
            f,
            grad,
            &[],
            |x: &mut [f64]| project_simplex(x, &mut Vec::new()),
            &[0.5, 0.5],
            &AugLagOptions::default(),
        );
        assert!((r.x[0] - 0.3).abs() < 1e-3);
    }

    #[test]
    fn capacity_like_constraint_binds() {
        // min (x0-1)^2 on the simplex, s.t. x0 ≤ 0.4 — optimum x0=0.4.
        let f = |x: &[f64]| (x[0] - 1.0).powi(2);
        let grad = |x: &[f64], g: &mut [f64]| {
            g[0] = 2.0 * (x[0] - 1.0);
            g[1] = 0.0;
        };
        let cons = [Constraint {
            g: Box::new(|x: &[f64]| x[0] - 0.4),
            grad: Box::new(|_x: &[f64], g: &mut [f64]| {
                g[0] = 1.0;
                g[1] = 0.0;
            }),
        }];
        let r = minimize_constrained(
            f,
            grad,
            &cons,
            |x: &mut [f64]| project_simplex(x, &mut Vec::new()),
            &[0.9, 0.1],
            &AugLagOptions::default(),
        );
        assert!(
            (r.x[0] - 0.4).abs() < 5e-3,
            "x0 = {} (expected 0.4)",
            r.x[0]
        );
    }

    #[test]
    fn inactive_constraint_ignored() {
        // Constraint x0 ≤ 10 never binds on the simplex.
        let f = |x: &[f64]| (x[0] - 0.5).powi(2) + (x[1] - 0.5).powi(2);
        let grad = |x: &[f64], g: &mut [f64]| {
            g[0] = 2.0 * (x[0] - 0.5);
            g[1] = 2.0 * (x[1] - 0.5);
        };
        let cons = [Constraint {
            g: Box::new(|x: &[f64]| x[0] - 10.0),
            grad: Box::new(|_x: &[f64], g: &mut [f64]| {
                g[0] = 1.0;
                g[1] = 0.0;
            }),
        }];
        let r = minimize_constrained(
            f,
            grad,
            &cons,
            |x: &mut [f64]| project_simplex(x, &mut Vec::new()),
            &[1.0, 0.0],
            &AugLagOptions::default(),
        );
        assert!((r.x[0] - 0.5).abs() < 1e-3, "{:?}", r.x);
    }

    #[test]
    fn two_constraints() {
        // min -(x0 + 2 x1) on simplex with x1 ≤ 0.6, x0 ≤ 0.9:
        // optimum x1 = 0.6, x0 = 0.4.
        let f = |x: &[f64]| -(x[0] + 2.0 * x[1]);
        let grad = |_x: &[f64], g: &mut [f64]| {
            g[0] = -1.0;
            g[1] = -2.0;
        };
        let cons = [
            Constraint {
                g: Box::new(|x: &[f64]| x[1] - 0.6),
                grad: Box::new(|_x: &[f64], g: &mut [f64]| {
                    g[0] = 0.0;
                    g[1] = 1.0;
                }),
            },
            Constraint {
                g: Box::new(|x: &[f64]| x[0] - 0.9),
                grad: Box::new(|_x: &[f64], g: &mut [f64]| {
                    g[0] = 1.0;
                    g[1] = 0.0;
                }),
            },
        ];
        let r = minimize_constrained(
            f,
            grad,
            &cons,
            |x: &mut [f64]| project_simplex(x, &mut Vec::new()),
            &[0.5, 0.5],
            &AugLagOptions::default(),
        );
        assert!((r.x[1] - 0.6).abs() < 5e-3, "{:?}", r.x);
        assert!((r.x[0] - 0.4).abs() < 5e-3, "{:?}", r.x);
    }
}
