//! The incremental utilization-evaluation engine.
//!
//! Every objective call of the layout NLP (paper §4.1) needs the
//! per-target utilizations `µⱼ(L)` of Eq. 1, each of which hides an
//! O(N) contention scan per `µᵢⱼ` cell (Eq. 2) — O(N²·M) per full
//! evaluation. This module makes re-evaluation *incremental* behind
//! one evaluator, [`EvalEngine`]:
//!
//! * [`kernel`] pins the one canonical summation shape (a fixed-shape
//!   pairwise reduction) that the engine and the paper's from-scratch
//!   [`UtilizationEstimator`](crate::estimator::UtilizationEstimator)
//!   share, so their results are **bit-identical** by construction,
//!   not by tolerance — the estimator is the reference the engine is
//!   tested against;
//! * [`EvalEngine`] caches per-solve invariants (rate-weighted overlap
//!   rows `Rᵢₖ = rateₖ·Oᵢ[k]`, layout-model memos, competing-rate
//!   trees, capacity column sums) and updates them per changed
//!   coordinate, making a single-coordinate probe an O(N) walk
//!   instead of an O(N²) re-evaluation;
//! * [`grad`] holds the analytic-gradient kernels behind
//!   [`EvalEngine::grad_at`], the solver's one gradient;
//! * [`EvalStats`] counts the work actually done (objective evals,
//!   probes, cost-model lookups, reused `µᵢⱼ` cells) so tests and
//!   benches can assert the cost claims instead of trusting
//!   wall-clock.
//! * [`objective`] hosts the pluggable [`LayoutObjective`] penalty
//!   transforms (`score = max_j wⱼ·µⱼ`); the engine scores through
//!   them, and the default [`MinMaxUtilization`] weights are exactly
//!   1.0, keeping the default bit-identical to the raw utilizations.
//!
//! See DESIGN.md §10 for the delta-update math and the argument for
//! why the summation order is pinned, and §13 for the objective-trait
//! contract.

pub mod engine;
pub mod grad;
pub mod kernel;
pub mod objective;
pub mod stats;

pub use engine::EvalEngine;
pub use grad::{cell_grad, CellGrad, CrossAdjacency};
pub use kernel::{pairwise_sum, RateTransform};
pub use objective::{
    max_of, weighted_max, LayoutObjective, MinMaxUtilization, ObjectiveKind, ProvisioningCost,
    WearBlend,
};
pub use stats::EvalStats;
