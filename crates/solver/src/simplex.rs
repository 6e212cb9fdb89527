//! Euclidean projection onto the probability simplex.
//!
//! The layout problem's integrity constraint `Σⱼ Lᵢⱼ = 1, Lᵢⱼ ≥ 0`
//! puts each object's row on the probability simplex. Projected
//! gradient needs the exact Euclidean projection, computed with the
//! classic sort-and-threshold algorithm (Held/Wolfe/Crowder; see also
//! Duchi et al. 2008): find `θ` such that `Σⱼ max(xⱼ - θ, 0) = 1`.

/// Projects `x` in place onto the simplex `{ y : y ≥ 0, Σ y = s }`.
///
/// `s` must be positive. O(M log M) in the row length. `sorted` is
/// caller-owned scratch for the descending copy of `x` the threshold
/// search walks (its contents on entry are ignored); reusing one
/// buffer across calls keeps the projection free of allocations once
/// the buffer has grown to the longest row (the std stable sort keeps
/// its own scratch on the stack for rows of up to 512 entries).
pub fn project_scaled_simplex(x: &mut [f64], s: f64, sorted: &mut Vec<f64>) {
    debug_assert!(s > 0.0);
    debug_assert!(!x.is_empty());
    let n = x.len();
    // hot-closure-begin: runs once per row on every projection.
    // Sort a copy descending to find the threshold.
    sorted.clear();
    sorted.extend_from_slice(x);
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
    let mut cumsum = 0.0;
    let mut theta = 0.0;
    let mut rho = 0;
    for (k, &uk) in sorted.iter().enumerate() {
        cumsum += uk;
        let t = (cumsum - s) / (k + 1) as f64;
        if uk - t > 0.0 {
            theta = t;
            rho = k + 1;
        }
    }
    debug_assert!(rho > 0, "projection threshold not found for n={n}");
    for v in x.iter_mut() {
        *v = (*v - theta).max(0.0);
    }
    // hot-closure-end
}

/// Projects `x` in place onto the probability simplex (sum 1), with
/// `sorted` as scratch (see [`project_scaled_simplex`]).
pub fn project_simplex(x: &mut [f64], sorted: &mut Vec<f64>) {
    project_scaled_simplex(x, 1.0, sorted);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasla_simlib::SimRng;

    fn assert_on_simplex(x: &[f64]) {
        let sum: f64 = x.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        assert!(x.iter().all(|&v| v >= -1e-12));
    }

    #[test]
    fn already_on_simplex_unchanged() {
        let mut x = vec![0.2, 0.3, 0.5];
        let orig = x.clone();
        project_simplex(&mut x, &mut Vec::new());
        for (a, b) in x.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn uniform_from_equal_inputs() {
        let mut x = vec![5.0; 4];
        project_simplex(&mut x, &mut Vec::new());
        for &v in &x {
            assert!((v - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn negative_entries_clipped() {
        let mut x = vec![-1.0, 0.0, 2.0];
        project_simplex(&mut x, &mut Vec::new());
        assert_on_simplex(&x);
        assert_eq!(x[0], 0.0);
        assert!(x[2] > x[1]);
    }

    #[test]
    fn single_element() {
        let mut x = vec![17.0];
        project_simplex(&mut x, &mut Vec::new());
        assert!((x[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_simplex() {
        let mut x = vec![1.0, 2.0, 3.0];
        project_scaled_simplex(&mut x, 6.0, &mut Vec::new());
        let sum: f64 = x.iter().sum();
        assert!((sum - 6.0).abs() < 1e-9);
        assert!((x[0] - 1.0).abs() < 1e-9); // already feasible: unchanged
    }

    /// Brute-force check of optimality: the projection must be at least
    /// as close to the input as a dense sample of simplex points.
    #[test]
    fn projection_is_nearest_point() {
        let mut rng = SimRng::new(99);
        for _ in 0..50 {
            let x0: Vec<f64> = (0..3).map(|_| rng.uniform_range(-2.0, 2.0)).collect();
            let mut proj = x0.clone();
            project_simplex(&mut proj, &mut Vec::new());
            assert_on_simplex(&proj);
            let d_proj: f64 = proj.iter().zip(&x0).map(|(a, b)| (a - b) * (a - b)).sum();
            // Sample simplex points on a grid.
            let steps = 20;
            for i in 0..=steps {
                for j in 0..=(steps - i) {
                    let p = [
                        i as f64 / steps as f64,
                        j as f64 / steps as f64,
                        (steps - i - j) as f64 / steps as f64,
                    ];
                    let d: f64 = p.iter().zip(&x0).map(|(a, b)| (a - b) * (a - b)).sum();
                    assert!(
                        d_proj <= d + 1e-9,
                        "grid point {p:?} closer than projection {proj:?} to {x0:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn idempotent() {
        let mut rng = SimRng::new(7);
        for _ in 0..100 {
            let mut x: Vec<f64> = (0..6).map(|_| rng.uniform_range(-3.0, 3.0)).collect();
            project_simplex(&mut x, &mut Vec::new());
            let once = x.clone();
            project_simplex(&mut x, &mut Vec::new());
            for (a, b) in x.iter().zip(&once) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }
}
