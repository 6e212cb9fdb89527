//! Projected-gradient descent with Armijo backtracking.
//!
//! Minimizes `f(x)` over a convex feasible set given only (a) an
//! evaluation oracle, (b) a gradient oracle, and (c) a projection onto
//! the set. This is the workhorse the layout advisor uses in place of
//! MINOS: the feasible set is a product of simplices (one per object
//! row), whose projection is exact and cheap.

/// Options for [`minimize`].
#[derive(Clone, Debug)]
pub struct PgOptions {
    /// Maximum gradient iterations.
    pub max_iters: usize,
    /// Stop when the objective improves by less than this (relative).
    pub tol: f64,
    /// Initial step size for the line search.
    pub step0: f64,
    /// Armijo sufficient-decrease coefficient.
    pub armijo_c: f64,
    /// Backtracking factor.
    pub backtrack: f64,
    /// Maximum backtracking halvings per iteration.
    pub max_backtracks: usize,
}

impl Default for PgOptions {
    fn default() -> Self {
        PgOptions {
            max_iters: 200,
            tol: 1e-6,
            step0: 1.0,
            armijo_c: 1e-4,
            backtrack: 0.5,
            max_backtracks: 30,
        }
    }
}

/// Result of a projected-gradient run.
#[derive(Clone, Debug)]
pub struct PgResult {
    /// Final iterate (feasible).
    pub x: Vec<f64>,
    /// Final objective value.
    pub value: f64,
    /// Iterations taken.
    pub iters: usize,
    /// True if the tolerance was reached (vs. iteration cap).
    pub converged: bool,
}

/// Minimizes `f` over the set defined by `project`, starting from `x0`
/// (projected first if infeasible).
///
/// * `f` — objective;
/// * `grad` — writes ∇f(x) into its second argument;
/// * `project` — projects a point onto the feasible set in place.
pub fn minimize<F, G, P>(f: F, grad: G, project: P, x0: &[f64], opts: &PgOptions) -> PgResult
where
    F: Fn(&[f64]) -> f64,
    G: Fn(&[f64], &mut [f64]),
    P: Fn(&mut [f64]),
{
    let n = x0.len();
    let mut x = x0.to_vec();
    project(&mut x);
    let mut fx = f(&x);
    let mut g = vec![0.0; n];
    let mut candidate = vec![0.0; n];
    let mut converged = false;
    let mut iters = 0;
    for _ in 0..opts.max_iters {
        iters += 1;
        grad(&x, &mut g);
        // Backtracking over the projected-gradient arc.
        let mut step = opts.step0;
        let mut accepted = false;
        for _ in 0..=opts.max_backtracks {
            for i in 0..n {
                candidate[i] = x[i] - step * g[i];
            }
            project(&mut candidate);
            let fc = f(&candidate);
            // Armijo condition on the projected step: require decrease
            // proportional to the squared step distance.
            let dist2: f64 = candidate
                .iter()
                .zip(&x)
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            if fc <= fx - opts.armijo_c / step.max(1e-18) * dist2 && fc < fx {
                let improvement = (fx - fc) / fx.abs().max(1e-18);
                x.copy_from_slice(&candidate);
                fx = fc;
                accepted = true;
                if improvement < opts.tol {
                    converged = true;
                }
                break;
            }
            step *= opts.backtrack;
        }
        if !accepted {
            // No descent direction found: (approximate) stationarity.
            converged = true;
        }
        if converged {
            break;
        }
    }
    PgResult {
        x,
        value: fx,
        iters,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::project_simplex;

    /// Central-difference gradient of a black-box objective. `h` is the
    /// per-coordinate step; `scratch` is a caller-owned buffer of `x`'s
    /// length.
    fn fd_gradient<F: Fn(&[f64]) -> f64>(
        f: F,
        x: &[f64],
        h: f64,
        scratch: &mut [f64],
        grad: &mut [f64],
    ) {
        scratch.copy_from_slice(x);
        for i in 0..x.len() {
            let orig = scratch[i];
            scratch[i] = orig + h;
            let fp = f(scratch);
            scratch[i] = orig - h;
            let fm = f(scratch);
            scratch[i] = orig;
            grad[i] = (fp - fm) / (2.0 * h);
        }
    }

    #[test]
    fn fd_gradient_of_quadratic() {
        let f = |x: &[f64]| x[0] * x[0] + 3.0 * x[1];
        let mut g = vec![0.0; 2];
        let mut scratch = vec![0.0; 2];
        fd_gradient(f, &[2.0, 5.0], 1e-5, &mut scratch, &mut g);
        assert!((g[0] - 4.0).abs() < 1e-6);
        assert!((g[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn unconstrained_quadratic_converges() {
        // min (x-1)^2 + (y+2)^2 over a huge box (projection = clamp).
        let f = |x: &[f64]| (x[0] - 1.0).powi(2) + (x[1] + 2.0).powi(2);
        let grad = |x: &[f64], g: &mut [f64]| {
            g[0] = 2.0 * (x[0] - 1.0);
            g[1] = 2.0 * (x[1] + 2.0);
        };
        let project = |x: &mut [f64]| {
            for v in x.iter_mut() {
                *v = v.clamp(-100.0, 100.0);
            }
        };
        let r = minimize(f, grad, project, &[50.0, 50.0], &PgOptions::default());
        assert!(r.value < 1e-6, "value {}", r.value);
        assert!((r.x[0] - 1.0).abs() < 1e-3);
        assert!((r.x[1] + 2.0).abs() < 1e-3);
    }

    #[test]
    fn simplex_constrained_linear() {
        // min c·x over the simplex → all mass on the smallest
        // coefficient.
        let c = [3.0, 1.0, 2.0];
        let f = move |x: &[f64]| x.iter().zip(&c).map(|(a, b)| a * b).sum::<f64>();
        let grad = move |_x: &[f64], g: &mut [f64]| g.copy_from_slice(&c);
        let r = minimize(
            f,
            grad,
            |x: &mut [f64]| project_simplex(x, &mut Vec::new()),
            &[1.0 / 3.0; 3],
            &PgOptions::default(),
        );
        assert!((r.value - 1.0).abs() < 1e-6, "value {}", r.value);
        assert!(r.x[1] > 0.999);
    }

    #[test]
    fn black_box_with_fd_gradient() {
        let f = |x: &[f64]| (x[0] - 0.25).powi(2) + (x[1] - 0.75).powi(2);
        let scratch = std::cell::RefCell::new(vec![0.0; 2]);
        let grad = |x: &[f64], g: &mut [f64]| fd_gradient(f, x, 1e-6, &mut scratch.borrow_mut(), g);
        let r = minimize(
            f,
            grad,
            |x: &mut [f64]| project_simplex(x, &mut Vec::new()),
            &[0.9, 0.1],
            &PgOptions::default(),
        );
        // The unconstrained optimum (0.25, 0.75) lies on the simplex.
        assert!((r.x[0] - 0.25).abs() < 1e-3, "{:?}", r.x);
        assert!((r.x[1] - 0.75).abs() < 1e-3);
    }

    #[test]
    fn respects_iteration_cap() {
        let f = |x: &[f64]| x[0];
        let grad = |_: &[f64], g: &mut [f64]| {
            g[0] = 1.0;
        };
        let opts = PgOptions {
            max_iters: 3,
            tol: 0.0,
            ..PgOptions::default()
        };
        let r = minimize(
            f,
            grad,
            |x: &mut [f64]| x[0] = x[0].max(-1e12),
            &[0.0],
            &opts,
        );
        assert!(r.iters <= 3);
    }

    #[test]
    fn stationary_start_stops_immediately() {
        // Start at the constrained optimum: first line search fails to
        // find descent → converged after one iteration.
        let c = [1.0, 2.0];
        let f = move |x: &[f64]| x.iter().zip(&c).map(|(a, b)| a * b).sum::<f64>();
        let grad = move |_x: &[f64], g: &mut [f64]| g.copy_from_slice(&c);
        let r = minimize(
            f,
            grad,
            |x: &mut [f64]| project_simplex(x, &mut Vec::new()),
            &[1.0, 0.0],
            &PgOptions::default(),
        );
        assert!(r.converged);
        assert!(r.iters <= 2);
        assert!((r.value - 1.0).abs() < 1e-9);
    }
}
