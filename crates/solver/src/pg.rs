//! Projected-gradient descent with Armijo backtracking.
//!
//! Minimizes `f(x)` over a convex feasible set given only (a) an
//! evaluation oracle, (b) a gradient oracle, and (c) a projection onto
//! the set. This is the workhorse the layout advisor uses in place of
//! MINOS: the feasible set is a product of simplices (one per object
//! row), whose projection is exact and cheap.
//!
//! # Step rule
//!
//! Each iteration backtracks along the projected-gradient arc
//! `P(x − t·g)` from a first trial step `t`. The first iteration of a
//! call tries `step0`. Every later one tries the spectral
//! (Barzilai–Borwein) step `s·s / s·y`, with `s = xₖ − xₖ₋₁` and
//! `y = gₖ − gₖ₋₁`: the step of SPG (Birgin, Martínez and Raydan,
//! SIAM J. Optim. 2000). It is the inverse of the curvature measured
//! along the last move, so most searches accept their first trial,
//! where restarting at `step0` paid for a run of halvings on every
//! iteration.
//!
//! The spectral step is clamped to `[1e-12, step0]`. The cap matters
//! to the advisor: an uncapped step runs far along the arc and lands
//! on distant layouts. On the end-to-end benchmark's re-layout daemon
//! that multiplied the data the re-plans moved by 3.5 (209 → 723 MiB
//! in one 5 s run, seed 7).
//! When `s·y ≤ 0` (a concave or flat segment) or the ratio is not
//! finite (including an overflowing `s·y`), the trial falls back to
//! `min(step0, 2 × last accepted step)`. Either way, for a finite,
//! positive `step0`, the trial step is finite and positive, so every
//! trial point is `x` minus a finite multiple of the gradient.
//!
//! # Stationarity exit
//!
//! For a closed convex set, if `P(x − t·g) = x` holds for one `t > 0`
//! it holds for every `t > 0` (it says `−g` lies in the normal cone at
//! `x`). So when the first trial is rejected and its projected point is
//! `x` itself (`dist2 == 0`), no shorter step can descend: the search
//! stops there as converged, after one trial evaluation, instead of
//! halving `MAX_BACKTRACKS` more times to reach the same verdict.

/// Armijo sufficient-decrease coefficient.
const ARMIJO_C: f64 = 1e-4;

/// Factor each backtracking step shrinks the trial step by.
const BACKTRACK: f64 = 0.5;

/// Maximum backtracking halvings per iteration.
const MAX_BACKTRACKS: usize = 30;

/// Options for [`minimize`].
#[derive(Clone, Debug)]
pub struct PgOptions {
    /// Maximum gradient iterations.
    pub max_iters: usize,
    /// Stop when the objective improves by less than this (relative).
    pub tol: f64,
    /// The first iteration's trial step, and the cap on every later
    /// trial step (the spectral step and its fallback alike; see the
    /// module docs for why the cap stays).
    pub step0: f64,
}

impl Default for PgOptions {
    fn default() -> Self {
        PgOptions {
            max_iters: 200,
            tol: 1e-6,
            step0: 1.0,
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

/// Smallest spectral trial step.
const MIN_SPECTRAL_STEP: f64 = 1e-12;

/// The first trial step of an iteration after the first: the spectral
/// step `s·s / s·y` over the last move (`s = x − prev_x`,
/// `y = g − prev_g`) clamped to `[MIN_SPECTRAL_STEP, step0]`, or
/// `min(step0, 2 × last)` when `s·y` is not a finite positive number or
/// the ratio is not finite. The cap wins if `step0` is below the floor.
fn spectral_step(
    x: &[f64],
    prev_x: &[f64],
    g: &[f64],
    prev_g: &[f64],
    last: f64,
    step0: f64,
) -> f64 {
    let (mut ss, mut sy) = (0.0, 0.0);
    for i in 0..x.len() {
        let s = x[i] - prev_x[i];
        ss += s * s;
        sy += s * (g[i] - prev_g[i]);
    }
    let ratio = ss / sy;
    if sy > 0.0 && sy.is_finite() && ratio.is_finite() {
        ratio.max(MIN_SPECTRAL_STEP).min(step0)
    } else {
        (2.0 * last).min(step0)
    }
}

/// Minimizes `f` over the set defined by `project`, starting from `x0`
/// (projected first if infeasible).
///
/// * `f` — objective;
/// * `grad` — writes ∇f(x) into its second argument;
/// * `project` — projects a point onto the feasible set in place.
///
/// Each iteration's first trial step follows the module's step rule;
/// the backtracking, the Armijo test and the convergence test do not
/// depend on it.
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
    // The previous iterate and its gradient, for the spectral step.
    let mut prev_x = vec![0.0; n];
    let mut prev_g = vec![0.0; n];
    // The step the last iteration accepted; `None` on the first.
    let mut last_step = None;
    let mut converged = false;
    let mut iters = 0;
    for _ in 0..opts.max_iters {
        iters += 1;
        grad(&x, &mut g);
        // Backtracking over the projected-gradient arc.
        let mut step = match last_step {
            None => opts.step0,
            Some(last) => spectral_step(&x, &prev_x, &g, &prev_g, last, opts.step0),
        };
        let mut accepted = false;
        for trial in 0..=MAX_BACKTRACKS {
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
            if fc <= fx - ARMIJO_C / step.max(1e-18) * dist2 && fc < fx {
                let improvement = (fx - fc) / fx.abs().max(1e-18);
                prev_x.copy_from_slice(&x);
                prev_g.copy_from_slice(&g);
                x.copy_from_slice(&candidate);
                fx = fc;
                last_step = Some(step);
                accepted = true;
                if improvement < opts.tol {
                    converged = true;
                }
                break;
            }
            if trial == 0 && dist2 == 0.0 {
                // The projected arc does not leave `x` at this step, so
                // it leaves it at no step: stationary.
                break;
            }
            step *= BACKTRACK;
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
    use std::cell::{Cell, RefCell};

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
        // Start at the constrained optimum: the first trial projects
        // back onto the start, so the search stops there after one
        // trial evaluation instead of halving `MAX_BACKTRACKS` times.
        let c = [1.0, 2.0];
        let calls = Cell::new(0usize);
        let f = |x: &[f64]| {
            calls.set(calls.get() + 1);
            x.iter().zip(&c).map(|(a, b)| a * b).sum::<f64>()
        };
        let grad = move |_x: &[f64], g: &mut [f64]| g.copy_from_slice(&c);
        let r = minimize(
            f,
            grad,
            |x: &mut [f64]| project_simplex(x, &mut Vec::new()),
            &[1.0, 0.0],
            &PgOptions::default(),
        );
        assert!(r.converged);
        assert_eq!(r.iters, 1);
        assert!((r.value - 1.0).abs() < 1e-9);
        // The start's value plus exactly one trial.
        assert_eq!(calls.get(), 2);
    }

    /// The step rule this module replaced, kept as the oracle: every
    /// search restarts at `step0` and halves until Armijo holds, and a
    /// failed search always spends all `MAX_BACKTRACKS` halvings.
    fn minimize_fixed_step<F, G, P>(
        f: F,
        grad: G,
        project: P,
        x0: &[f64],
        opts: &PgOptions,
    ) -> PgResult
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
            let mut step = opts.step0;
            let mut accepted = false;
            for _ in 0..=MAX_BACKTRACKS {
                for i in 0..n {
                    candidate[i] = x[i] - step * g[i];
                }
                project(&mut candidate);
                let fc = f(&candidate);
                let dist2: f64 = candidate
                    .iter()
                    .zip(&x)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                if fc <= fx - ARMIJO_C / step.max(1e-18) * dist2 && fc < fx {
                    let improvement = (fx - fc) / fx.abs().max(1e-18);
                    x.copy_from_slice(&candidate);
                    fx = fc;
                    accepted = true;
                    if improvement < opts.tol {
                        converged = true;
                    }
                    break;
                }
                step *= BACKTRACK;
            }
            if !accepted {
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

    /// `f(x) = Σ dᵢ (xᵢ − cᵢ)²` with curvatures spanning three decades,
    /// on the box `[0, 1]⁴`; the last center lies outside the box, so
    /// its coordinate ends on the bound.
    const D: [f64; 4] = [1.0, 10.0, 100.0, 1000.0];
    const C: [f64; 4] = [0.2, 0.7, 0.4, 1.5];

    fn box_quadratic(x: &[f64]) -> f64 {
        x.iter()
            .zip(D.iter().zip(&C))
            .map(|(v, (d, c))| d * (v - c) * (v - c))
            .sum()
    }

    fn box_quadratic_grad(x: &[f64], g: &mut [f64]) {
        for i in 0..x.len() {
            g[i] = 2.0 * D[i] * (x[i] - C[i]);
        }
    }

    fn unit_box(x: &mut [f64]) {
        for v in x.iter_mut() {
            *v = v.clamp(0.0, 1.0);
        }
    }

    #[test]
    fn spectral_step_matches_fixed_step_optimum_with_fewer_evaluations() {
        let opts = PgOptions {
            max_iters: 100_000,
            tol: 0.0,
            ..PgOptions::default()
        };
        let x0 = [1.0, 0.0, 1.0, 0.0];
        fn counted(calls: &Cell<usize>) -> impl Fn(&[f64]) -> f64 + '_ {
            move |x: &[f64]| {
                calls.set(calls.get() + 1);
                box_quadratic(x)
            }
        }
        let (spectral_calls, fixed_calls) = (Cell::new(0), Cell::new(0));
        let spectral = minimize(
            counted(&spectral_calls),
            box_quadratic_grad,
            unit_box,
            &x0,
            &opts,
        );
        let fixed = minimize_fixed_step(
            counted(&fixed_calls),
            box_quadratic_grad,
            unit_box,
            &x0,
            &opts,
        );
        assert!(spectral.converged && fixed.converged);
        let optimum = [0.2, 0.7, 0.4, 1.0];
        for (r, name) in [(&spectral, "spectral"), (&fixed, "fixed")] {
            for (v, o) in r.x.iter().zip(&optimum) {
                assert!((v - o).abs() < 1e-6, "{name}: {:?}", r.x);
            }
        }
        assert!(
            spectral_calls.get() < fixed_calls.get(),
            "spectral {} f calls, fixed step {}",
            spectral_calls.get(),
            fixed_calls.get()
        );
    }

    #[test]
    fn concave_segment_falls_back_to_twice_the_last_step() {
        // Concave `−x²` below a wall at x = 3. From x = 1 with
        // step0 = 8, the first search rejects 17, 9, 5 and 3 and accepts
        // x = 2 at step 0.5. That move has s·y = 1 · (−4 + 2) < 0, so
        // the next search opens at min(8, 2 × 0.5) = 1: the point
        // 2 − 1 · (−4) = 6.
        let f = |x: &[f64]| if x[0] < 3.0 { -x[0] * x[0] } else { 100.0 };
        let grad = |x: &[f64], g: &mut [f64]| g[0] = -2.0 * x[0];
        let projected = RefCell::new(Vec::new());
        let project = |x: &mut [f64]| {
            projected.borrow_mut().push(x[0]);
            x[0] = x[0].clamp(0.0, 100.0);
        };
        let opts = PgOptions {
            step0: 8.0,
            ..PgOptions::default()
        };
        let r = minimize(f, grad, project, &[1.0], &opts);
        let projected = projected.into_inner();
        // The start, the first search's five trials, then the second
        // search's first trial.
        assert_eq!(projected[..6], [1.0, 17.0, 9.0, 5.0, 3.0, 2.0]);
        assert_eq!(projected[6], 6.0);
        assert!(r.value < -4.0 && r.x[0] < 3.0, "{:?}", r);
    }

    #[test]
    fn overflowing_curvature_falls_back_with_finite_trials() {
        // A steep kink: slope 1e305 above zero, 1 below, on
        // [−1000, 1000]. The first step crosses the whole box, so
        // s = −2000 and y ≈ −1e305, and s·y overflows to +inf (the
        // ratio s·s / s·y would read a finite 0). The second search
        // must open at the fallback min(1, 2 × 1) = 1, and no trial
        // point may be non-finite.
        let f = |x: &[f64]| 1e305 * x[0].max(0.0) + x[0].min(0.0);
        let grad = |x: &[f64], g: &mut [f64]| g[0] = if x[0] > 0.0 { 1e305 } else { 1.0 };
        let projected = RefCell::new(Vec::new());
        let evaluated = RefCell::new(Vec::new());
        let project = |x: &mut [f64]| {
            projected.borrow_mut().push(x[0]);
            x[0] = x[0].clamp(-1000.0, 1000.0);
        };
        let f_logged = |x: &[f64]| {
            evaluated.borrow_mut().push(x[0]);
            f(x)
        };
        let r = minimize(f_logged, grad, project, &[1000.0], &PgOptions::default());
        let (projected, evaluated) = (projected.into_inner(), evaluated.into_inner());
        assert_eq!(projected[..2], [1000.0, 1000.0 - 1e305]);
        assert_eq!(projected[2], -1001.0, "{projected:?}");
        assert!(projected.iter().chain(&evaluated).all(|v| v.is_finite()));
        // −1 points out of the box at its lower corner: stationary.
        assert!(r.converged);
        assert_eq!(r.x, vec![-1000.0]);
    }

    #[test]
    fn spectral_step_is_finite_and_capped() {
        let x = [1.0, 2.0];
        let prev = [0.0, 0.0];
        let step = |g: [f64; 2], prev_g: [f64; 2], last: f64| {
            spectral_step(&x, &prev, &g, &prev_g, last, 1.0)
        };
        // s·s = 5, s·y = 10: the spectral step 0.5.
        assert_eq!(step([4.0, 3.0], [0.0, 0.0], 0.1), 0.5);
        // A flat segment uses the fallback; the cap bounds both rules.
        assert_eq!(step([1.0, 1.0], [1.0, 1.0], 0.1), 0.2);
        assert_eq!(step([1.0, 1.0], [1.0, 1.0], 0.75), 1.0);
        assert_eq!(step([1e-3, 0.0], [0.0, 0.0], 0.1), 1.0);
        // Huge curvature clamps to the floor; non-finite gradients and
        // an overflowing s·y (finite gradients) fall back.
        assert_eq!(step([1e300, 0.0], [0.0, 0.0], 0.1), MIN_SPECTRAL_STEP);
        for g in [[f64::NAN, 0.0], [f64::INFINITY, 0.0], [1e308, 1e308]] {
            assert_eq!(step(g, [0.0, 0.0], 0.1), 0.2, "{g:?}");
        }
        // A cap below the floor still caps.
        assert_eq!(
            spectral_step(&x, &prev, &[4.0, 3.0], &[0.0, 0.0], 0.1, 1e-13),
            1e-13
        );
    }

    #[test]
    fn accepted_values_never_increase() {
        // Rosenbrock on a box: curved valley, so the spectral step
        // over- and under-shoots; every iterate the gradient is taken
        // at must score no worse than the one before.
        let f = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let iterates = RefCell::new(Vec::new());
        let grad = |x: &[f64], g: &mut [f64]| {
            iterates.borrow_mut().push(f(x));
            g[0] = -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]);
            g[1] = 200.0 * (x[1] - x[0] * x[0]);
        };
        let project = |x: &mut [f64]| {
            for v in x.iter_mut() {
                *v = v.clamp(-2.0, 2.0);
            }
        };
        let opts = PgOptions {
            max_iters: 5_000,
            tol: 0.0,
            ..PgOptions::default()
        };
        let r = minimize(f, grad, project, &[-1.5, 2.0], &opts);
        let values = iterates.into_inner();
        assert!(values.len() > 10);
        for w in values.windows(2) {
            assert!(w[1] < w[0], "value rose: {} → {}", w[0], w[1]);
        }
        assert!(r.value <= *values.last().unwrap());
        assert!(r.value < 1e-6, "{:?}", r);
    }
}
