//! Work counters for the evaluation engine.

use wasla_simlib::impl_json_struct;

/// What one solve actually computed. Counters are cumulative over the
/// engine's lifetime; [`NlpOutcome`](crate::optimizer::NlpOutcome)
/// carries the totals of the winning solve and benches report them
/// per-call, which is how the "O(degree) work per probe" and "zero
/// probes per gradient" claims are asserted instead of inferred from
/// wall-clock.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EvalStats {
    /// Full objective evaluations (LSE, min-max, or utilization-vector
    /// requests at a committed point).
    pub objective_evals: u64,
    /// Gradient evaluations.
    pub gradient_evals: u64,
    /// Single-column perturbation probes.
    pub column_probes: u64,
    /// `CostModel::request_cost` invocations.
    pub cost_model_calls: u64,
    /// `µᵢⱼ` cells served from cache because their inputs were
    /// bit-unchanged (gated fraction, zero overlap, identical leaf).
    pub mu_reuses: u64,
    /// Interior tree-node recomputations (pairwise-sum path updates).
    pub term_updates: u64,
    /// Full from-scratch workspace rebuilds.
    pub full_rebuilds: u64,
    /// Incremental single-coordinate commits.
    pub coord_commits: u64,
    /// Whole-gradient analytic passes (`grad_at`), each covering all
    /// N·M partials with zero probes.
    pub grad_analytic_passes: u64,
}

impl_json_struct!(EvalStats {
    objective_evals,
    gradient_evals,
    column_probes,
    cost_model_calls,
    mu_reuses,
    term_updates,
    full_rebuilds,
    coord_commits,
    grad_analytic_passes,
});

impl EvalStats {
    /// Counter names and values, in declaration order, for bench
    /// reports.
    pub fn entries(&self) -> [(&'static str, u64); 9] {
        [
            ("objective_evals", self.objective_evals),
            ("gradient_evals", self.gradient_evals),
            ("column_probes", self.column_probes),
            ("cost_model_calls", self.cost_model_calls),
            ("mu_reuses", self.mu_reuses),
            ("term_updates", self.term_updates),
            ("full_rebuilds", self.full_rebuilds),
            ("coord_commits", self.coord_commits),
            ("grad_analytic_passes", self.grad_analytic_passes),
        ]
    }

    /// Counter-by-counter difference since `earlier` (saturating).
    pub fn since(&self, earlier: &EvalStats) -> EvalStats {
        EvalStats {
            objective_evals: self.objective_evals.saturating_sub(earlier.objective_evals),
            gradient_evals: self.gradient_evals.saturating_sub(earlier.gradient_evals),
            column_probes: self.column_probes.saturating_sub(earlier.column_probes),
            cost_model_calls: self
                .cost_model_calls
                .saturating_sub(earlier.cost_model_calls),
            mu_reuses: self.mu_reuses.saturating_sub(earlier.mu_reuses),
            term_updates: self.term_updates.saturating_sub(earlier.term_updates),
            full_rebuilds: self.full_rebuilds.saturating_sub(earlier.full_rebuilds),
            coord_commits: self.coord_commits.saturating_sub(earlier.coord_commits),
            grad_analytic_passes: self
                .grad_analytic_passes
                .saturating_sub(earlier.grad_analytic_passes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasla_simlib::json::{from_str, to_string_pretty, FromJson, ToJson};

    #[test]
    fn json_round_trip() {
        let s = EvalStats {
            objective_evals: 3,
            cost_model_calls: 42,
            ..EvalStats::default()
        };
        let text = to_string_pretty(&s.to_json());
        let back = EvalStats::from_json(&from_str(&text).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn since_subtracts() {
        let a = EvalStats {
            column_probes: 10,
            ..EvalStats::default()
        };
        let b = EvalStats {
            column_probes: 4,
            ..EvalStats::default()
        };
        assert_eq!(a.since(&b).column_probes, 6);
    }
}
