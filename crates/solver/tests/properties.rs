//! Property tests for the NLP toolkit.

use wasla_simlib::proptest::prelude::*;
use wasla_solver::{lse_max, project_scaled_simplex, project_simplex, softmax_weights};

proptest! {
    /// Projection always lands on the simplex.
    #[test]
    fn projection_is_feasible(
        x in proptest::collection::vec(-10.0f64..10.0, 1..30),
    ) {
        let mut p = x.clone();
        project_simplex(&mut p, &mut Vec::new());
        let sum: f64 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-8, "sum {sum}");
        prop_assert!(p.iter().all(|&v| v >= -1e-12));
    }

    /// Projection is idempotent.
    #[test]
    fn projection_is_idempotent(
        x in proptest::collection::vec(-10.0f64..10.0, 1..30),
    ) {
        let mut once = x.clone();
        project_simplex(&mut once, &mut Vec::new());
        let mut twice = once.clone();
        project_simplex(&mut twice, &mut Vec::new());
        for (a, b) in once.iter().zip(&twice) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Projection preserves coordinate order: if x_i ≥ x_j then the
    /// projected values satisfy p_i ≥ p_j (the threshold shift is
    /// uniform).
    #[test]
    fn projection_preserves_order(
        x in proptest::collection::vec(-10.0f64..10.0, 2..30),
    ) {
        let mut p = x.clone();
        project_simplex(&mut p, &mut Vec::new());
        for i in 0..x.len() {
            for j in 0..x.len() {
                if x[i] >= x[j] {
                    prop_assert!(p[i] >= p[j] - 1e-9);
                }
            }
        }
    }

    /// The projection of a feasible point is itself.
    #[test]
    fn projection_fixes_feasible_points(
        raw in proptest::collection::vec(0.001f64..1.0, 1..30),
    ) {
        let total: f64 = raw.iter().sum();
        let feasible: Vec<f64> = raw.iter().map(|v| v / total).collect();
        let mut p = feasible.clone();
        project_simplex(&mut p, &mut Vec::new());
        for (a, b) in p.iter().zip(&feasible) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Scaled projection hits the requested sum.
    #[test]
    fn scaled_projection_sums(
        x in proptest::collection::vec(-5.0f64..5.0, 1..20),
        s in 0.1f64..50.0,
    ) {
        let mut p = x.clone();
        project_scaled_simplex(&mut p, s, &mut Vec::new());
        let sum: f64 = p.iter().sum();
        prop_assert!((sum - s).abs() < 1e-7 * s.max(1.0));
    }

    /// LSE is a tight upper bound on max: max ≤ lse ≤ max + τ·ln n.
    #[test]
    fn lse_bounds(
        values in proptest::collection::vec(-100.0f64..100.0, 1..50),
        temp in 0.001f64..10.0,
    ) {
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let s = lse_max(&values, temp);
        prop_assert!(s >= max - 1e-9);
        prop_assert!(s <= max + temp * (values.len() as f64).ln() + 1e-9);
    }

    /// Softmax weights form a probability distribution.
    #[test]
    fn softmax_is_distribution(
        values in proptest::collection::vec(-100.0f64..100.0, 1..50),
        temp in 0.001f64..10.0,
    ) {
        let mut w = Vec::new();
        softmax_weights(&values, temp, &mut w);
        let sum: f64 = w.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(w.iter().all(|&v| (0.0..=1.0 + 1e-12).contains(&v)));
    }
}
