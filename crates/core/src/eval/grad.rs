//! Shared analytic-gradient kernels (DESIGN.md §15).
//!
//! The smoothed score `lse_max(w·µ, τ)` is differentiable through the
//! whole evaluation chain: trilinear cost tables are piecewise linear
//! (`CostModel::cost_with_grad` returns exact per-cell slopes), the
//! layout model's rate/run transforms are piecewise linear in the
//! fraction, and the contention factor is a rational function of the
//! fractions. One cell `(i, j)` influences the score two ways:
//!
//! * **own term** — `∂µᵢⱼ/∂xᵢⱼ`, through its rates `λᵢⱼ = λᵢ·f`, its
//!   run count `Qᵢⱼ(f)`, and its own contention `χᵢⱼ = Cᵢⱼ/(λᵢ·f)`
//!   (`Cᵢⱼ` does not depend on `xᵢⱼ`, so `f·∂χ/∂f = −χ`);
//! * **cross terms** — every other resident `k` of column `j` sees its
//!   competing sum `C_kj` move at rate `R_ki = λᵢ·O_k[i]`, scaled by
//!   that cell's contention sensitivity
//!   `∂µₖⱼ/∂C_kj = (λₖⱼᴿ·Cᵣ' + λₖⱼᵂ·C_w')/λₖⱼ`.
//!
//! [`cell_grad`] computes both factors for one cell; the engine and
//! the estimator's from-scratch reference gradient call it with
//! bit-identical inputs (committed fractions, canonical-kernel
//! competing sums) and accumulate the cross terms through one shared
//! [`CrossAdjacency`] shape, so the two produce bit-identical analytic
//! gradients — the same contract their utilizations satisfy.
//!
//! Subgradient pinning (kinks are measure-zero but tests land on
//! them): gated cells (`f ≤ EPS`) evaluate the own term as the
//! right-derivative at the gate boundary (`f_eff = EPS`), matching
//! what an FD up-probe from zero measures, and contribute zero
//! contention sensitivity (a gated cell's `µ` is identically zero no
//! matter how its neighbours move). Grid-knot subgradients are pinned
//! by `Axis::locate_with_deriv`; run-count branch kinks by
//! `layout_model::run_count_deriv`. At the `f = 1` clamp the analytic
//! path keeps the (feasible-side) left derivative.

use crate::eval::stats::EvalStats;
use crate::layout_model;
use crate::problem::EPS;
use wasla_model::CostModel;
use wasla_storage::IoKind;
use wasla_workload::WorkloadSpec;

/// The two per-cell factors of the analytic gradient.
#[derive(Clone, Copy, Debug)]
pub struct CellGrad {
    /// `∂µᵢⱼ/∂xᵢⱼ` — the cell's own-term derivative (right-derivative
    /// at the gate for `f ≤ EPS`).
    pub du_own: f64,
    /// `∂µᵢⱼ/∂Cᵢⱼ` — sensitivity of the cell's utilization to its
    /// competing-rate sum (zero for gated cells).
    pub csens: f64,
}

// hot-closure-begin: cell_grad runs inside solver gradient closures
// for every (object, target) cell and must not allocate (ci/check.sh
// greps this region for allocation idioms).

/// Differentiates one `µᵢⱼ` cell given its committed fraction and
/// competing-rate sum. Two `cost_with_grad` calls; no probes.
pub fn cell_grad(
    model: &dyn CostModel,
    spec: &WorkloadSpec,
    f: f64,
    competing: f64,
    stripe: f64,
    stats: &mut EvalStats,
) -> CellGrad {
    let gated = f <= EPS;
    let f_eff = if gated { EPS } else { f };
    let w = layout_model::apply(spec, f_eff, stripe);
    let own = w.total_rate();
    if own <= 0.0 {
        return CellGrad {
            du_own: 0.0,
            csens: 0.0,
        };
    }
    let chi = competing / own;
    stats.cost_model_calls += 2;
    let gr = model.cost_with_grad(IoKind::Read, w.read_size, w.run_count, chi);
    let gw = model.cost_with_grad(IoKind::Write, w.write_size, w.run_count, chi);
    let dq = layout_model::run_count_deriv(spec, f_eff, stripe);
    // d/df [λᴿ·f·Cᴿ(Q(f), χ(f))] = λᴿ·(Cᴿ + f·Cᴿ_run·Q' − Cᴿ_χ·χ),
    // using f·∂χ/∂f = −χ; same for writes.
    let du_own = spec.read_rate * (gr.value + f_eff * gr.d_run * dq - gr.d_contention * chi)
        + spec.write_rate * (gw.value + f_eff * gw.d_run * dq - gw.d_contention * chi);
    let csens = if gated {
        0.0
    } else {
        (w.read_rate * gr.d_contention + w.write_rate * gw.d_contention) / own
    };
    CellGrad { du_own, csens }
}

// hot-closure-end

/// Sparse transposed overlap structure for the cross-term
/// accumulation: row `i` lists every `(k, R_ki)` with
/// `R_ki = rateᵢ·Oₖ[i] ≠ 0` — the rate at which raising `xᵢⱼ` feeds
/// object `k`'s competing sum. Built once per problem; the engine and
/// the estimator's reference gradient iterate the same rows in the
/// same order, which is what makes their gradients bit-identical.
#[derive(Clone, Debug)]
pub struct CrossAdjacency {
    /// CSR row offsets, length `n + 1`.
    offsets: Vec<usize>,
    /// `(k, R_ki)` entries, rows concatenated in `k` order.
    entries: Vec<(u32, f64)>,
}

impl CrossAdjacency {
    /// Builds the adjacency from workload specs. Row `i` holds the
    /// nonzero off-diagonal entries of row `i` of `EvalEngine`'s
    /// transposed `rw_t` invariant, bit for bit (same operand order).
    pub fn build(specs: &[WorkloadSpec]) -> Self {
        let n = specs.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut entries = Vec::new();
        offsets.push(0);
        for i in 0..n {
            let rate_i = specs[i].total_rate();
            for (k, spec_k) in specs.iter().enumerate() {
                if k == i {
                    continue;
                }
                let rw = rate_i * spec_k.overlaps[i];
                if rw != 0.0 {
                    entries.push((k as u32, rw));
                }
            }
            offsets.push(entries.len());
        }
        CrossAdjacency { offsets, entries }
    }

    /// The `(k, R_ki)` entries of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[(u32, f64)] {
        &self.entries[self.offsets[i]..self.offsets[i + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(rate: f64, overlaps: Vec<f64>) -> WorkloadSpec {
        WorkloadSpec {
            read_size: 8192.0,
            write_size: 8192.0,
            read_rate: rate,
            write_rate: 0.0,
            run_count: 1.0,
            overlaps,
        }
    }

    #[test]
    fn adjacency_transposes_and_skips_zeros() {
        let specs = vec![
            spec(10.0, vec![0.0, 0.5, 0.0]),
            spec(20.0, vec![0.25, 0.0, 1.0]),
            spec(30.0, vec![0.0, 0.0, 0.0]),
        ];
        let adj = CrossAdjacency::build(&specs);
        // Row 0: k=1 has O_1[0]=0.25 → R_01 = 10·0.25; k=2 has O_2[0]=0.
        assert_eq!(adj.row(0), &[(1, 10.0 * 0.25)]);
        // Row 1: k=0 has O_0[1]=0.5 → R_11? = 20·0.5.
        assert_eq!(adj.row(1), &[(0, 20.0 * 0.5)]);
        // Row 2: only k=1 overlaps object 2.
        assert_eq!(adj.row(2), &[(1, 30.0 * 1.0)]);
    }

    #[test]
    fn zero_rate_spec_yields_empty_row() {
        let specs = vec![spec(0.0, vec![0.0, 1.0]), spec(5.0, vec![1.0, 0.0])];
        let adj = CrossAdjacency::build(&specs);
        assert!(adj.row(0).is_empty(), "rate 0 gates every product");
        assert_eq!(adj.row(1), &[(0, 5.0 * 1.0)]);
    }

    #[test]
    fn gated_cell_has_zero_csens_and_boundary_du() {
        struct Flat;
        impl CostModel for Flat {
            fn request_cost(&self, _: IoKind, _s: f64, _r: f64, _c: f64) -> f64 {
                0.01
            }
        }
        let s = spec(10.0, vec![0.0]);
        let mut stats = EvalStats::default();
        let g = cell_grad(&Flat, &s, 0.0, 0.0, 1e6, &mut stats);
        // A χ-independent model: du_own is just λᴿ·cost.
        assert!((g.du_own - 0.1).abs() < 1e-9, "{}", g.du_own);
        assert_eq!(g.csens, 0.0);
        assert_eq!(stats.cost_model_calls, 2);
        // Live cell: csens reflects the model's χ slope (zero here).
        let g = cell_grad(&Flat, &s, 0.5, 3.0, 1e6, &mut stats);
        assert_eq!(g.csens, 0.0);
        assert!((g.du_own - 0.1).abs() < 1e-9);
    }

    #[test]
    fn zero_rate_cell_is_fully_gated() {
        struct Flat;
        impl CostModel for Flat {
            fn request_cost(&self, _: IoKind, _s: f64, _r: f64, _c: f64) -> f64 {
                0.01
            }
        }
        let s = spec(0.0, vec![0.0]);
        let mut stats = EvalStats::default();
        let g = cell_grad(&Flat, &s, 0.5, 3.0, 1e6, &mut stats);
        assert_eq!(g.du_own, 0.0);
        assert_eq!(g.csens, 0.0);
        assert_eq!(stats.cost_model_calls, 0);
    }
}
