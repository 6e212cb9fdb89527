//! Non-linear programming toolkit for the layout advisor.
//!
//! The paper formulates layout as a non-convex NLP and feeds it to a
//! generic solver (AMPL + MINOS, §4.1). This crate is our from-scratch
//! equivalent, shaped to the layout problem's structure while staying
//! generic:
//!
//! * [`simplex`] — exact Euclidean projection onto the probability
//!   simplex (the integrity constraint makes each object's layout row
//!   a point on a simplex);
//! * [`smoothing`] — log-sum-exp smoothing of the non-differentiable
//!   `max` objective, with softmax weights for gradients;
//! * [`pg`] — projected-gradient descent with Armijo backtracking;
//! * [`auglag`] — an augmented-Lagrangian outer loop for the coupling
//!   capacity constraints.
//!
//! Projected gradient is the only engine: `wasla_core::optimizer`
//! drives [`auglag::minimize_constrained`] directly with the
//! evaluation engine's objective and analytic gradient.

pub mod auglag;
pub mod pg;
pub mod simplex;
pub mod smoothing;

pub use auglag::{minimize_constrained, AugLagOptions, Constraint};
pub use pg::{minimize, PgOptions, PgResult};
pub use simplex::{project_scaled_simplex, project_simplex};
pub use smoothing::{lse_max, softmax_weights};
