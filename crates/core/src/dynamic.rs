//! Incremental re-advising for dynamically growing storage
//! (paper §8 future work).
//!
//! The paper's conclusion sketches using the layout technique to guide
//! *dynamic* allocation decisions in systems like NetApp FlexVols,
//! where capacity is assigned as data grows rather than up front. This
//! module implements that direction as an online planning layer:
//!
//! * [`detect_drift`] scores how far a deployed layout has diverged
//!   from a freshly observed workload snapshot, using [`EvalEngine`]
//!   row probes only — no solve. A control loop runs this every tick
//!   and re-solves only when the score clears a threshold.
//! * [`plan_migration`] turns a desired layout into a
//!   [`MigrationPlan`]: an ordered list of per-object moves with byte
//!   costs, greedily admitted under a [`MigrationBudget`] while the
//!   projected utilization win covers `α ·` the movement cost (the
//!   charging rule of competitive online reorganization — benefit must
//!   pay for data moved). Unspent budget carries forward between
//!   rounds via [`MigrationPlan::budget_left`].
//! * [`readvise_incremental`] is the one re-plan entry point: a
//!   warm-started re-solve, then a budgeted [`MigrationPlan`] toward
//!   the solution. The re-solve ([`replan`]) runs the pipeline once
//!   per start — the paper's rate-greedy initial layout (§4.2), the
//!   deployed layout and SEE over the live targets — and keeps the
//!   best regularized result, rather than regularizing the winner of
//!   the cold multistart: a re-layout is a move away from what is
//!   deployed, the other two starts keep a way out of the deployed
//!   layout's basin, and comparing after regularization keeps a
//!   slightly better solver layout that regularizes badly from
//!   winning. Evacuation is the same call over [`problem_without`] under
//!   [`MigrationBudget::unbounded`]: moves off failed targets come back
//!   *forced* and bypass the budget.

use crate::advisor::{replan, AdvisorError, AdvisorOptions};
use crate::eval::EvalEngine;
use crate::problem::{AdminConstraint, Layout, LayoutProblem};
use wasla_simlib::impl_json_struct;

/// Options for [`readvise_incremental`].
#[derive(Clone, Debug)]
pub struct DynamicOptions {
    /// Minimum relative utilization improvement that justifies moving
    /// data (e.g. 0.1 = migrate only for a ≥10% better objective).
    pub migrate_threshold: f64,
}

impl_json_struct!(DynamicOptions { migrate_threshold });

impl Default for DynamicOptions {
    fn default() -> Self {
        DynamicOptions {
            migrate_threshold: 0.10,
        }
    }
}

/// Bytes object `i` moves when switching `from → to`:
/// `sᵢ · Σⱼ max(0, toᵢⱼ − fromᵢⱼ)`, rounded once for this object.
pub fn object_migration_bytes(from: &Layout, to: &Layout, i: usize, size: u64) -> u64 {
    let moved: f64 = (0..from.n_targets())
        .map(|j| (to.get(i, j) - from.get(i, j)).max(0.0))
        .sum();
    (moved * size as f64).round() as u64
}

/// Bytes moved between targets when switching `from → to`, given
/// object sizes: `Σᵢ sᵢ · Σⱼ max(0, toᵢⱼ − fromᵢⱼ)`.
///
/// Each object's contribution is rounded *individually* and the total
/// accumulated in integer arithmetic (saturating). Accumulating the
/// fractional contributions in one `f64` and rounding once — the old
/// behavior — silently absorbs small objects once the running total
/// exceeds 2⁵³ bytes, which multi-TiB fleets reach.
pub fn migration_bytes(from: &Layout, to: &Layout, sizes: &[u64]) -> u64 {
    sizes
        .iter()
        .enumerate()
        .take(from.n_objects())
        .fold(0u64, |total, (i, &size)| {
            total.saturating_add(object_migration_bytes(from, to, i, size))
        })
}

/// What [`detect_drift`] measured about a deployed layout against a
/// fresh workload snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct DriftReport {
    /// Max utilization of the deployed layout under the snapshot.
    pub current_max_utilization: f64,
    /// Max utilization the deployed layout scored when it was
    /// installed (the controller's recorded baseline).
    pub baseline_max_utilization: f64,
    /// Relative divergence: `(current − baseline) / baseline`.
    pub score: f64,
    /// Whether the deployed layout still satisfies the snapshot's
    /// sizes and capacities.
    pub still_fits: bool,
    /// True when a re-solve is warranted: the score cleared the
    /// threshold or the layout no longer fits.
    pub drifted: bool,
}

impl_json_struct!(DriftReport {
    current_max_utilization,
    baseline_max_utilization,
    score,
    still_fits,
    drifted,
});

/// Scores snapshot-vs-deployed divergence without solving anything.
///
/// One [`EvalEngine`] evaluation of the deployed point — O(N·M) model
/// probes — against the utilization the layout scored when installed.
/// Deterministic: same snapshot, same layout, same report at any
/// thread count.
pub fn detect_drift(
    problem: &LayoutProblem,
    deployed: &Layout,
    baseline_max: f64,
    threshold: f64,
) -> DriftReport {
    let mut engine = EvalEngine::new(problem);
    engine.set_layout(deployed);
    let current = engine.committed_max_utilization();
    let still_fits = deployed.is_valid(&problem.workloads.sizes, &problem.capacities);
    let score = (current - baseline_max) / baseline_max.max(1e-12);
    DriftReport {
        current_max_utilization: current,
        baseline_max_utilization: baseline_max,
        score,
        still_fits,
        drifted: !still_fits || score >= threshold,
    }
}

/// Movement budget for one planning round.
///
/// The charging rule is the competitive-ratio discipline of online
/// reorganization: a voluntary move is admitted only while its
/// projected utilization win is at least `alpha ·` its byte cost, and
/// cumulative voluntary bytes stay within `bytes + carry_in`. Budget
/// not spent this round is reported back as
/// [`MigrationPlan::budget_left`] for the caller to carry forward.
/// Forced moves (evacuations, capacity repair) are never charged.
#[derive(Clone, Debug, PartialEq)]
pub struct MigrationBudget {
    /// Voluntary movement allowance for this round, in bytes.
    pub bytes: u64,
    /// Unspent allowance carried in from earlier rounds.
    pub carry_in: u64,
    /// Required utilization win per byte moved (the charging rate).
    /// Zero admits any non-losing move the budget affords.
    pub alpha: f64,
}

impl_json_struct!(MigrationBudget {
    bytes,
    carry_in,
    alpha
});

impl MigrationBudget {
    /// No budget pressure at all: every non-losing move is admitted.
    pub fn unbounded() -> Self {
        MigrationBudget {
            bytes: u64::MAX,
            carry_in: 0,
            alpha: 0.0,
        }
    }

    /// Total voluntary bytes this round may admit.
    pub fn available(&self) -> u64 {
        self.bytes.saturating_add(self.carry_in)
    }
}

/// One per-object move in a [`MigrationPlan`].
#[derive(Clone, Debug, PartialEq)]
pub struct MigrationMove {
    /// The object whose placement row changes.
    pub object: usize,
    /// The row the object moves to (fractions per target).
    pub to: Vec<f64>,
    /// Bytes this move copies between targets.
    pub bytes: u64,
    /// Utilization win projected at admission time, from the partially
    /// migrated state the scheduler had already committed to.
    pub projected_win: f64,
    /// True for evacuation/repair moves admitted regardless of budget
    /// (mass on a zero-capacity target, or a capacity violation the
    /// voluntary moves alone could not clear).
    pub forced: bool,
}

impl_json_struct!(MigrationMove {
    object,
    to,
    bytes,
    projected_win,
    forced
});

/// An ordered, budget-filtered migration: which objects move, what it
/// costs, and what was deferred for a later round.
#[derive(Clone, Debug, PartialEq)]
pub struct MigrationPlan {
    /// Admitted moves, in admission order.
    pub moves: Vec<MigrationMove>,
    /// The deployed layout with the admitted moves applied.
    pub layout: Layout,
    /// Max utilization of the deployed layout before any move.
    pub current_max_utilization: f64,
    /// Max utilization of [`layout`](MigrationPlan::layout).
    pub new_max_utilization: f64,
    /// Voluntary bytes admitted (charged against the budget).
    pub admitted_bytes: u64,
    /// Forced bytes (evacuations/repair; not charged).
    pub forced_bytes: u64,
    /// Moves deferred to a later round.
    pub deferred_moves: usize,
    /// Bytes those deferred moves would have cost.
    pub deferred_bytes: u64,
    /// Unspent voluntary budget, for the caller to carry forward.
    pub budget_left: u64,
}

impl_json_struct!(MigrationPlan {
    moves,
    layout,
    current_max_utilization,
    new_max_utilization,
    admitted_bytes,
    forced_bytes,
    deferred_moves,
    deferred_bytes,
    budget_left,
});

impl MigrationPlan {
    /// Total bytes the plan moves (voluntary + forced).
    pub fn total_bytes(&self) -> u64 {
        self.admitted_bytes.saturating_add(self.forced_bytes)
    }

    /// An empty plan that keeps `deployed` as-is.
    fn keep(deployed: &Layout, current_max: f64, budget_left: u64) -> Self {
        MigrationPlan {
            moves: Vec::new(),
            layout: deployed.clone(),
            current_max_utilization: current_max,
            new_max_utilization: current_max,
            admitted_bytes: 0,
            forced_bytes: 0,
            deferred_moves: 0,
            deferred_bytes: 0,
            budget_left,
        }
    }
}

/// A move candidate during scheduling.
struct Candidate {
    object: usize,
    bytes: u64,
    forced: bool,
    ratio: f64,
}

/// Builds a budgeted [`MigrationPlan`] that walks `deployed` toward
/// `desired`.
///
/// Candidates are the objects whose rows differ. Each is scored with a
/// standalone [`EvalEngine`] row probe from the deployed point and
/// ordered by win-per-byte (forced evacuations first; ties broken by
/// object index, so the order is deterministic). The scheduler then
/// admits greedily from the *current* committed state: a voluntary
/// move is taken only while it fits the remaining budget and its
/// sequential win covers `alpha ·` its bytes. If the survivors are
/// jointly affordable and jointly worth their cost — moves that only
/// pay off together, like swapping two objects — they are admitted as
/// one block. Finally, if the partial layout violates a capacity that
/// full migration would have cleared, deferred moves are force-admitted
/// in order until it fits again.
pub fn plan_migration(
    problem: &LayoutProblem,
    deployed: &Layout,
    desired: &Layout,
    budget: &MigrationBudget,
) -> MigrationPlan {
    plan_with(
        &mut EvalEngine::new(problem),
        problem,
        deployed,
        desired,
        budget,
        true,
    )
}

/// [`plan_migration`] over a caller-supplied engine for `problem`,
/// re-pointed at `deployed` first. Engine caches are pure functions of
/// the committed point, so the plan is bit-identical to one over a
/// fresh engine whatever point the engine held before.
fn plan_with(
    engine: &mut EvalEngine,
    problem: &LayoutProblem,
    deployed: &Layout,
    desired: &Layout,
    budget: &MigrationBudget,
    voluntary: bool,
) -> MigrationPlan {
    let sizes = &problem.workloads.sizes;
    let m = deployed.n_targets();
    engine.set_layout(deployed);
    let current_max = engine.committed_max_utilization();

    let mut candidates: Vec<Candidate> = Vec::new();
    for i in 0..deployed.n_objects().min(desired.n_objects()) {
        let differs = (0..m).any(|j| (desired.get(i, j) - deployed.get(i, j)).abs() > 1e-12);
        if !differs {
            continue;
        }
        let bytes = object_migration_bytes(deployed, desired, i, sizes[i]);
        let forced = (0..m).any(|j| deployed.get(i, j) > 1e-12 && problem.capacities[j] == 0);
        let gain = current_max - engine.probe_row_max(i, desired.row(i));
        let ratio = if bytes == 0 {
            f64::INFINITY
        } else {
            gain / bytes as f64
        };
        candidates.push(Candidate {
            object: i,
            bytes,
            forced,
            ratio,
        });
    }
    if candidates.is_empty() {
        return MigrationPlan::keep(deployed, current_max, budget.available());
    }
    candidates.sort_by(|a, b| {
        b.forced
            .cmp(&a.forced)
            .then(b.ratio.total_cmp(&a.ratio))
            .then(a.object.cmp(&b.object))
    });

    let available = budget.available();
    let mut layout = deployed.clone();
    let mut moves: Vec<MigrationMove> = Vec::new();
    let mut admitted_bytes = 0u64;
    let mut forced_bytes = 0u64;
    let mut deferred: Vec<Candidate> = Vec::new();

    let admit = |c: &Candidate,
                 forced: bool,
                 engine: &mut EvalEngine,
                 layout: &mut Layout,
                 moves: &mut Vec<MigrationMove>| {
        let row = desired.row(c.object);
        let win = engine.committed_max_utilization() - engine.probe_row_max(c.object, row);
        engine.commit_row(c.object, row);
        *layout.row_mut(c.object) = row.to_vec();
        moves.push(MigrationMove {
            object: c.object,
            to: row.to_vec(),
            bytes: c.bytes,
            projected_win: win,
            forced,
        });
    };

    // Pass 1: greedy sequential admission under the charging rule.
    for c in candidates {
        if c.forced {
            forced_bytes = forced_bytes.saturating_add(c.bytes);
            admit(&c, true, engine, &mut layout, &mut moves);
            continue;
        }
        let remaining = available.saturating_sub(admitted_bytes);
        let win = engine.committed_max_utilization()
            - engine.probe_row_max(c.object, desired.row(c.object));
        let worth = win >= budget.alpha * c.bytes as f64;
        if voluntary && c.bytes <= remaining && worth {
            admitted_bytes = admitted_bytes.saturating_add(c.bytes);
            admit(&c, false, engine, &mut layout, &mut moves);
        } else {
            deferred.push(c);
        }
    }

    // Pass 2: block admission. Moves that only pay off together (e.g.
    // swapping two objects) all look losing one at a time; take the
    // whole remainder when it is jointly affordable and jointly worth
    // its cost.
    if voluntary && !deferred.is_empty() {
        let block_bytes = deferred.iter().fold(0u64, |t, c| t.saturating_add(c.bytes));
        let remaining = available.saturating_sub(admitted_bytes);
        let block_win =
            engine.committed_max_utilization() - engine.max_utilization_at(&desired.to_flat());
        if block_bytes <= remaining && block_win >= budget.alpha * block_bytes as f64 {
            for c in std::mem::take(&mut deferred) {
                admitted_bytes = admitted_bytes.saturating_add(c.bytes);
                admit(&c, false, engine, &mut layout, &mut moves);
            }
        }
    }

    // Pass 3: capacity repair. A partial migration can overpack a
    // target even when both endpoints fit; force-admit deferred moves
    // in order until the layout is implementable again.
    if !layout.is_valid(sizes, &problem.capacities) {
        let mut rest = Vec::new();
        for c in std::mem::take(&mut deferred) {
            if layout.is_valid(sizes, &problem.capacities) {
                rest.push(c);
                continue;
            }
            forced_bytes = forced_bytes.saturating_add(c.bytes);
            admit(&c, true, engine, &mut layout, &mut moves);
        }
        deferred = rest;
    }

    let deferred_bytes = deferred.iter().fold(0u64, |t, c| t.saturating_add(c.bytes));
    MigrationPlan {
        deferred_moves: deferred.len(),
        deferred_bytes,
        moves,
        layout,
        current_max_utilization: current_max,
        new_max_utilization: engine.committed_max_utilization(),
        admitted_bytes,
        forced_bytes,
        budget_left: available.saturating_sub(admitted_bytes),
    }
}

/// One online planning round: a warm-started re-solve, then a
/// budgeted [`MigrationPlan`] toward the solution.
///
/// The re-solve is [`replan`] — the rate-greedy initial layout, the
/// deployed layout and SEE over the live targets, each solved and
/// regularized alone, the best kept — not the cold multistart of
/// [`crate::advisor::recommend`]. Each candidate keeps the pipeline's
/// SEE sanity fallback and anytime budget chain.
///
/// The threshold gate: when the deployed layout still fits and full
/// migration would not improve max utilization by at least
/// `options.migrate_threshold`, voluntary moves are withheld
/// (their bytes are reported as deferred — the churn avoided); forced
/// evacuation/repair moves are planned regardless. The gate and the
/// scheduler share one [`EvalEngine`].
pub fn readvise_incremental(
    problem: &LayoutProblem,
    deployed: &Layout,
    advisor_options: &AdvisorOptions,
    options: &DynamicOptions,
    budget: &MigrationBudget,
) -> Result<MigrationPlan, AdvisorError> {
    let still_fits = deployed.is_valid(&problem.workloads.sizes, &problem.capacities);
    let rec = replan(problem, advisor_options, deployed)?;
    let desired = rec.final_layout();

    let mut engine = EvalEngine::new(problem);
    engine.set_layout(deployed);
    let current_max = engine.committed_max_utilization();
    let new_max = engine.max_utilization_at(&desired.to_flat());
    let improvement = (current_max - new_max) / current_max.max(1e-12);
    let voluntary = !still_fits || improvement >= options.migrate_threshold;
    Ok(plan_with(
        &mut engine,
        problem,
        deployed,
        desired,
        budget,
        voluntary,
    ))
}

/// The given problem with every failed target forbidden for every
/// object and its capacity zeroed. Callers that track failures across
/// planning rounds (the daemon control loop) apply this before drift
/// detection so deployed mass on a dead target reads as "no longer
/// fits".
pub fn problem_without(problem: &LayoutProblem, failed_targets: &[usize]) -> LayoutProblem {
    let mut constrained = problem.clone();
    for &target in failed_targets {
        if target >= constrained.capacities.len() {
            continue;
        }
        constrained.capacities[target] = 0;
        for object in 0..problem.workloads.names.len() {
            constrained
                .constraints
                .push(AdminConstraint::Forbid { object, target });
        }
    }
    constrained
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wasla_model::CostModel;
    use wasla_simlib::json::{from_str, to_string};
    use wasla_storage::IoKind;
    use wasla_workload::{ObjectKind, WorkloadSet, WorkloadSpec};

    struct ContentionModel;
    impl CostModel for ContentionModel {
        fn request_cost(&self, _: IoKind, _: f64, run: f64, chi: f64) -> f64 {
            0.004 / run.max(1.0) + 0.003 * chi + 0.004
        }
    }

    fn problem(sizes: Vec<u64>, rates: Vec<f64>) -> LayoutProblem {
        let n = sizes.len();
        LayoutProblem {
            workloads: WorkloadSet {
                names: (0..n).map(|i| format!("o{i}")).collect(),
                sizes,
                specs: rates
                    .into_iter()
                    .map(|r| WorkloadSpec {
                        read_size: 65536.0,
                        write_size: 8192.0,
                        read_rate: r,
                        write_rate: 0.0,
                        run_count: 16.0,
                        overlaps: vec![0.8; n],
                    })
                    .collect(),
            },
            kinds: vec![ObjectKind::Table; n],
            capacities: vec![1 << 30, 1 << 30],
            target_names: vec!["t0".into(), "t1".into()],
            models: vec![Arc::new(ContentionModel), Arc::new(ContentionModel)],
            stripe_size: 1024.0 * 1024.0,
            constraints: vec![],
        }
    }

    #[test]
    fn migration_bytes_counts_moved_fractions() {
        let from = Layout::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]);
        let to = Layout::from_rows(vec![vec![0.5, 0.5], vec![0.0, 1.0]]);
        assert_eq!(migration_bytes(&from, &to, &[1000, 400]), 500);
        assert_eq!(migration_bytes(&from, &from, &[1000, 400]), 0);
    }

    #[test]
    fn migration_bytes_rounds_per_object() {
        // Object 0 moves 2^60 bytes, object 1 moves 3. A single f64
        // accumulator absorbs the 3 (ulp at 2^60 is 256 bytes); the
        // per-object integer sum keeps it.
        let from = Layout::from_rows(vec![vec![1.0, 0.0], vec![1.0, 0.0]]);
        let to = Layout::from_rows(vec![vec![0.0, 1.0], vec![0.0, 1.0]]);
        assert_eq!(
            migration_bytes(&from, &to, &[1u64 << 60, 3]),
            (1u64 << 60) + 3
        );
    }

    #[test]
    fn migration_bytes_saturates_near_u64_max() {
        // Whole-fleet moves beyond u64::MAX clamp instead of wrapping
        // or going through float rounding.
        let from = Layout::from_rows(vec![vec![1.0, 0.0], vec![1.0, 0.0]]);
        let to = Layout::from_rows(vec![vec![0.0, 1.0], vec![0.0, 1.0]]);
        assert_eq!(migration_bytes(&from, &to, &[u64::MAX, u64::MAX]), u64::MAX);
        // A lone u64::MAX-adjacent object still reports its own size
        // (within float representability of u64::MAX).
        let one_from = Layout::from_rows(vec![vec![1.0, 0.0]]);
        let one_to = Layout::from_rows(vec![vec![0.0, 1.0]]);
        let got = migration_bytes(&one_from, &one_to, &[u64::MAX - 1024]);
        assert!(got >= u64::MAX - 2048, "got {got}");
    }

    /// The evacuation path the daemon runs: re-plan over the problem
    /// without the failed targets, under an unbounded budget.
    fn evacuate(
        p: &LayoutProblem,
        deployed: &Layout,
        failed: &[usize],
        options: &DynamicOptions,
    ) -> Result<MigrationPlan, AdvisorError> {
        let advisor = AdvisorOptions {
            regularize: true,
            ..AdvisorOptions::default()
        };
        readvise_incremental(
            &problem_without(p, failed),
            deployed,
            &advisor,
            options,
            &MigrationBudget::unbounded(),
        )
    }

    #[test]
    fn all_targets_failed_is_a_typed_error() {
        let p = problem(vec![1 << 20, 1 << 20], vec![50.0, 50.0]);
        let deployed = Layout::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]);
        let err = evacuate(&p, &deployed, &[0, 1], &DynamicOptions::default())
            .expect_err("an all-failed fleet cannot be re-advised");
        assert!(
            matches!(err, AdvisorError::InvalidProblem(ref msg) if msg.contains("capacity")),
            "got {err:?}"
        );
    }

    #[test]
    fn evacuation_moves_are_forced_and_uncharged() {
        let p = problem(vec![1 << 20, 1 << 20], vec![50.0, 50.0]);
        // Everything deployed on target 0, which then fails.
        let deployed = Layout::from_rows(vec![vec![1.0, 0.0], vec![1.0, 0.0]]);
        let plan = evacuate(
            &p,
            &deployed,
            &[0],
            &DynamicOptions {
                migrate_threshold: 10.0, // impossible threshold: failure must still force it
            },
        )
        .unwrap();
        assert!(
            !plan.moves.is_empty(),
            "a failed target must force migration"
        );
        assert!(
            plan.moves.iter().all(|m| m.forced),
            "evacuations are forced"
        );
        assert!(plan.forced_bytes > 0);
        assert_eq!(plan.admitted_bytes, 0, "evacuations are never charged");
        for mv in &plan.moves {
            assert!(mv.to[0] < 1e-3, "move must leave the failed target");
        }
        for i in 0..2 {
            assert!(
                plan.layout.get(i, 0) < 1e-3,
                "object {i} still has mass {} on the failed target",
                plan.layout.get(i, 0)
            );
        }
    }

    #[test]
    fn budget_caps_voluntary_moves_and_carries_the_rest() {
        let p = problem(vec![1 << 20, 1 << 20], vec![80.0, 80.0]);
        let deployed = Layout::from_rows(vec![vec![1.0, 0.0], vec![1.0, 0.0]]);
        let opts = AdvisorOptions {
            regularize: true,
            ..AdvisorOptions::default()
        };
        let unbounded = readvise_incremental(
            &p,
            &deployed,
            &opts,
            &DynamicOptions::default(),
            &MigrationBudget::unbounded(),
        )
        .unwrap();
        assert!(unbounded.admitted_bytes > 0, "drifted layout must migrate");
        assert_eq!(unbounded.deferred_moves, 0);

        // Half the needed budget: some moves must wait, and what they
        // would have cost is reported.
        let budget = MigrationBudget {
            bytes: unbounded.admitted_bytes / 2,
            carry_in: 0,
            alpha: 0.0,
        };
        let capped =
            readvise_incremental(&p, &deployed, &opts, &DynamicOptions::default(), &budget)
                .unwrap();
        assert!(capped.admitted_bytes <= budget.available());
        assert!(
            capped.deferred_moves > 0 || capped.admitted_bytes <= budget.available(),
            "undersized budget defers work"
        );
        assert_eq!(
            capped.budget_left,
            budget.available() - capped.admitted_bytes
        );

        // Carry-in makes the deferred move affordable next round.
        let next = MigrationBudget {
            bytes: budget.bytes,
            carry_in: capped.budget_left + budget.bytes,
            alpha: 0.0,
        };
        let caught_up =
            readvise_incremental(&p, &capped.layout, &opts, &DynamicOptions::default(), &next)
                .unwrap();
        assert!(caught_up.admitted_bytes <= next.available());
    }

    #[test]
    fn zero_budget_defers_everything_voluntary() {
        let p = problem(vec![1 << 20, 1 << 20], vec![80.0, 80.0]);
        let deployed = Layout::from_rows(vec![vec![1.0, 0.0], vec![1.0, 0.0]]);
        let plan = readvise_incremental(
            &p,
            &deployed,
            &AdvisorOptions {
                regularize: true,
                ..AdvisorOptions::default()
            },
            &DynamicOptions::default(),
            &MigrationBudget {
                bytes: 0,
                carry_in: 0,
                alpha: 0.0,
            },
        )
        .unwrap();
        assert_eq!(plan.admitted_bytes, 0);
        assert_eq!(plan.layout, deployed);
        assert!(plan.deferred_bytes > 0, "churn avoided must be visible");
    }

    #[test]
    fn incremental_plan_repairs_capacity_violations() {
        // The outgrown case through the planner: even with zero budget
        // the plan must end at an implementable layout.
        let p = problem(vec![700 << 20, 700 << 20], vec![10.0, 10.0]);
        let deployed = Layout::from_rows(vec![vec![1.0, 0.0], vec![1.0, 0.0]]);
        let plan = readvise_incremental(
            &p,
            &deployed,
            &AdvisorOptions {
                regularize: true,
                ..AdvisorOptions::default()
            },
            &DynamicOptions {
                migrate_threshold: 10.0,
            },
            &MigrationBudget {
                bytes: 0,
                carry_in: 0,
                alpha: 0.0,
            },
        )
        .unwrap();
        assert!(plan.layout.is_valid(&p.workloads.sizes, &p.capacities));
        assert!(
            plan.moves.iter().any(|m| m.forced),
            "repair moves are forced"
        );
    }

    #[test]
    fn reused_engine_plans_bit_identically() {
        let p = problem(vec![1 << 20, 1 << 20, 1 << 19], vec![80.0, 60.0, 20.0]);
        let deployed = Layout::from_rows(vec![vec![1.0, 0.0], vec![1.0, 0.0], vec![0.3, 0.7]]);
        let desired = Layout::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0], vec![0.6, 0.4]]);
        let budget = MigrationBudget {
            bytes: 1 << 20,
            carry_in: 0,
            alpha: 0.0,
        };
        let fresh = plan_migration(&p, &deployed, &desired, &budget);
        // An engine left committed at another point, as the threshold
        // gate in `readvise_incremental` leaves it.
        let mut engine = EvalEngine::new(&p);
        engine.set_layout(&desired);
        let reused = plan_with(&mut engine, &p, &deployed, &desired, &budget, true);
        assert_eq!(to_string(&reused), to_string(&fresh));
        assert!(!fresh.moves.is_empty());
    }

    #[test]
    fn drift_detector_flags_divergence_not_stability() {
        let calm = problem(vec![1 << 20, 1 << 20], vec![50.0, 50.0]);
        let deployed = Layout::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]);
        let baseline = detect_drift(&calm, &deployed, 0.0, 0.25);
        // Score the layout against its own utilization: no drift.
        let stable = detect_drift(&calm, &deployed, baseline.current_max_utilization, 0.25);
        assert!(
            !stable.drifted,
            "stable workload must not drift: {stable:?}"
        );
        assert!(stable.score.abs() < 1e-12);

        // Rates triple: the same layout now scores far above baseline.
        let hot = problem(vec![1 << 20, 1 << 20], vec![150.0, 150.0]);
        let drifted = detect_drift(&hot, &deployed, baseline.current_max_utilization, 0.25);
        assert!(drifted.drifted, "rate ramp must register: {drifted:?}");
        assert!(drifted.score > 0.25);
    }

    #[test]
    fn plan_and_outcome_round_trip_through_json() {
        let p = problem(vec![1 << 20, 1 << 20], vec![80.0, 80.0]);
        let deployed = Layout::from_rows(vec![vec![1.0, 0.0], vec![1.0, 0.0]]);
        let opts = AdvisorOptions {
            regularize: true,
            ..AdvisorOptions::default()
        };
        let plan = readvise_incremental(
            &p,
            &deployed,
            &opts,
            &DynamicOptions::default(),
            &MigrationBudget::unbounded(),
        )
        .unwrap();
        let back: MigrationPlan = from_str(&to_string(&plan)).unwrap();
        assert_eq!(back, plan);
    }
}
