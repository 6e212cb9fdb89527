//! Regularization of solver layouts (paper §4.3).
//!
//! Systems whose layout mechanism only supports even striping need
//! *regular* layouts. Rather than turning the continuous NLP into a
//! combinatorial one (up to `O(2^{MN})` layouts), the paper
//! post-processes: objects are regularized one at a time in decreasing
//! order of the total load `Σⱼ µᵢⱼ` they impose, so imbalances
//! introduced early can be corrected by later objects.
//!
//! For each object two candidate classes are generated (2M candidates):
//!
//! 1. **Consistent** — even spreads over the top-k targets of the
//!    solver's row, in decreasing-fraction order (ties broken by target
//!    id): the example row (47%, 35%, 18%) yields (100,0,0),
//!    (50,50,0), (33,33,33).
//! 2. **Balancing** — even spreads over the k least-loaded targets
//!    under the current layout (with the object itself removed), which
//!    tend to correct imbalances left by earlier regularizations.
//!
//! Candidates violating capacity or admin constraints are dropped; the
//! survivor minimizing `max_j µⱼ` wins. If every candidate for some
//! object is invalid the algorithm fails — the paper notes manual
//! intervention is then required, which we surface as a typed error.
//!
//! Two rules keep the scoring cheap, both exact:
//!
//! * **Probe memo.** Every candidate row is a spread of `1/k`
//!   fractions, so one object's candidates share (target, fraction)
//!   cells. Nothing is committed while an object is being placed, so
//!   a column probe is a pure function of `(j, v.to_bits())` and each
//!   is computed once per placement; the balancing candidates'
//!   zero-row probe seeds every `(j, 0.0)`.
//! * **Skip rule.** An object's best row depends only on the other
//!   rows (its candidates come from its solver row, the capacities and
//!   the other rows' loads; a probe replaces its row outright), so a
//!   refinement pass skips it when no row has changed since it was
//!   last placed: the call would recommit the row it already has.
//!
//! The test module keeps the plain per-candidate loop as a reference
//! and property-tests this one against it bit for bit.

use crate::eval::{weighted_max, EvalEngine, ObjectiveKind};
use crate::problem::{AdminConstraint, Layout, LayoutProblem, EPS};
use std::cmp::Ordering;

/// Regularization failure (paper §4.3's "manual intervention" case).
#[derive(Clone, Debug, PartialEq)]
pub enum RegularizeError {
    /// All 2M candidates for this object violate capacity or admin
    /// constraints.
    DeadEnd {
        /// The object that could not be regularized.
        object: usize,
    },
    /// The solver layout gives this object a non-finite fraction or
    /// total load, so there is no load order to regularize in.
    NonFinite {
        /// The first such object.
        object: usize,
    },
}

impl std::fmt::Display for RegularizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegularizeError::DeadEnd { object } => write!(
                f,
                "no regular candidate for object {object} satisfies the constraints"
            ),
            RegularizeError::NonFinite { object } => write!(
                f,
                "object {object} has a non-finite fraction or load in the solver layout"
            ),
        }
    }
}

impl std::error::Error for RegularizeError {}

/// Refinement passes after the greedy sweep. Each pass re-places every
/// object against the then-current layout, recovering balance the
/// one-shot greedy order could not; the loop stops early at a fixed
/// point.
const REFINE_PASSES: usize = 3;

/// Regularizes a solver layout under the default min-max objective.
pub fn regularize(problem: &LayoutProblem, solver: &Layout) -> Result<Layout, RegularizeError> {
    regularize_with(problem, solver, ObjectiveKind::MinMax)
}

/// Regularizes a solver layout, scoring candidates by `objective`.
///
/// Candidate scoring runs over an incremental [`EvalEngine`] kept
/// committed at the evolving layout: each candidate's `µⱼ` is an
/// [`EvalEngine::probe_coord`] of the one cell its row changes on
/// target `j`, memoized per placement, and the winner is committed
/// row-wise. A layout with a non-finite fraction or object load is
/// rejected up front ([`RegularizeError::NonFinite`]).
pub fn regularize_with(
    problem: &LayoutProblem,
    solver: &Layout,
    objective: ObjectiveKind,
) -> Result<Layout, RegularizeError> {
    let mut engine = EvalEngine::with_objective(problem, objective);
    regularize_in(problem, solver, &mut engine)
}

/// [`regularize_with`] over the caller's engine, built for the
/// objective, so tests can read its counters afterwards.
fn regularize_in<'p>(
    problem: &'p LayoutProblem,
    solver: &Layout,
    engine: &mut EvalEngine<'p>,
) -> Result<Layout, RegularizeError> {
    let n = problem.n();
    let non_finite = |row: &Vec<f64>| row.iter().any(|f| !f.is_finite());
    if let Some(object) = solver.rows().iter().position(non_finite) {
        return Err(RegularizeError::NonFinite { object });
    }
    engine.set_layout(solver);
    let loads: Vec<f64> = (0..n).map(|i| engine.object_load(i)).collect();
    if let Some(object) = loads.iter().position(|l| !l.is_finite()) {
        return Err(RegularizeError::NonFinite { object });
    }

    // Decreasing total-load order (§4.3).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| cmp_values(loads[b], loads[a]).then(a.cmp(&b)));

    let m = problem.m();
    let mut reg = Regularizer {
        problem,
        solver,
        weights: engine.objective().weights(problem),
        engine,
        current: solver.clone(),
        memo: vec![Vec::new(); m],
        mus: vec![0.0; m],
        changes: 0,
        placed_at: vec![None; n],
    };
    for &i in &order {
        reg.place(i)?;
    }
    // Refinement: greedy one-shot placement can strand load imbalances;
    // re-placing objects against the finished layout corrects them
    // while keeping every row regular.
    let mut best_score = reg.engine.committed_score();
    for _ in 0..REFINE_PASSES {
        for &i in &order {
            reg.place(i)?;
        }
        let now_score = reg.engine.committed_score();
        if now_score >= best_score - 1e-12 {
            break;
        }
        best_score = now_score;
    }
    debug_assert!(reg.current.is_regular());
    Ok(reg.current)
}

/// Orders two values as `partial_cmp` does on every non-NaN pair
/// (`-0.0 == +0.0`), but totally: adding `+0.0` maps `-0.0` to `+0.0`,
/// after which `total_cmp` and `partial_cmp` agree.
fn cmp_values(a: f64, b: f64) -> Ordering {
    (a + 0.0).total_cmp(&(b + 0.0))
}

/// One regularization run: the evolving layout, the engine committed
/// at it, and the bookkeeping behind the probe memo and the skip rule.
struct Regularizer<'e, 'p> {
    problem: &'p LayoutProblem,
    solver: &'e Layout,
    engine: &'e mut EvalEngine<'p>,
    current: Layout,
    /// The objective's per-target weights `wⱼ` (the engine's own).
    weights: Vec<f64>,
    /// Per target `j`, the probes `(v.to_bits(), µⱼ)` of the object
    /// being placed: nothing is committed during one placement, so a
    /// probe is a pure function of its key.
    memo: Vec<Vec<(u64, f64)>>,
    /// Scratch `µⱼ` vector of one candidate row.
    mus: Vec<f64>,
    /// Rows changed so far.
    changes: u64,
    /// Per object: `changes` right after its last placement.
    placed_at: Vec<Option<u64>>,
}

impl Regularizer<'_, '_> {
    /// Re-places object `i` with its best valid regular candidate,
    /// keeping the engine committed at `current`. Skipped when no row
    /// changed since `i` was last placed: the best row depends on the
    /// other rows only, so it would recommit the row `i` already has.
    fn place(&mut self, i: usize) -> Result<(), RegularizeError> {
        if self.placed_at[i] == Some(self.changes) {
            return Ok(());
        }
        let row = self.best_row(i)?;
        let same = row
            .iter()
            .zip(self.current.row(i))
            .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            self.engine.commit_row(i, &row);
            *self.current.row_mut(i) = row;
            self.changes += 1;
        }
        self.placed_at[i] = Some(self.changes);
        Ok(())
    }

    /// The best valid regular row for object `i` against the other
    /// rows of `current`: the first candidate with the lowest score.
    fn best_row(&mut self, i: usize) -> Result<Vec<f64>, RegularizeError> {
        let problem = self.problem;
        let m = problem.m();
        let pinned = problem.constraints.iter().find_map(|c| match *c {
            AdminConstraint::PinTo { object, target } if object == i => Some(target),
            _ => None,
        });
        let forbidden: Vec<bool> = (0..m)
            .map(|j| {
                problem.constraints.iter().any(|c| {
                    matches!(*c, AdminConstraint::Forbid { object, target }
                        if object == i && target == j)
                })
            })
            .collect();

        // Per-target usage without object i, for the capacity check and
        // capacity-adaptive candidate generation.
        let sizes = &problem.workloads.sizes;
        let mut used_without: Vec<f64> = vec![0.0; m];
        for (k, row) in self.current.rows().iter().enumerate() {
            if k == i {
                continue;
            }
            for (j, &f) in row.iter().enumerate() {
                used_without[j] += f * sizes[k] as f64;
            }
        }
        let remaining: Vec<f64> = (0..m)
            .map(|j| problem.capacities[j] as f64 * (1.0 + EPS) - used_without[j])
            .collect();

        for probes in &mut self.memo {
            probes.clear();
        }
        let candidates = if let Some(t) = pinned {
            let mut row = vec![0.0; m];
            row[t] = 1.0;
            vec![row]
        } else {
            let mut cands =
                consistent_candidates(self.solver.row(i), &forbidden, &remaining, sizes[i], m);
            // The loads with object i removed: the zero-row probe,
            // which also seeds the memo with every `(j, 0.0)`.
            let loads: Vec<f64> = (0..m).map(|j| self.probe(i, j, 0.0)).collect();
            cands.extend(balancing_candidates(
                &loads, &forbidden, &remaining, sizes[i], m,
            ));
            cands
        };

        let mut best: Option<(f64, Vec<f64>)> = None;
        for cand in candidates {
            // A candidate is acceptable if it does not push any target
            // over capacity *beyond what the other objects already
            // use*: targets overfilled by not-yet-regularized
            // fractional rows must not block this object's placement
            // elsewhere.
            let ok = (0..m).all(|j| {
                let add = cand[j] * sizes[i] as f64;
                add <= 0.0 || used_without[j] + add <= problem.capacities[j] as f64 * (1.0 + EPS)
            });
            if !ok {
                continue;
            }
            let score = self.score(i, &cand);
            if best.as_ref().map_or(true, |(s, _)| score < *s) {
                best = Some((score, cand));
            }
        }
        best.map(|(_, row)| row)
            .ok_or(RegularizeError::DeadEnd { object: i })
    }

    /// `max_j wⱼ·µⱼ` with row `i` replaced by `row`, without
    /// committing: the left fold `EvalEngine::probe_row_score` takes.
    fn score(&mut self, i: usize, row: &[f64]) -> f64 {
        for (j, &v) in row.iter().enumerate() {
            let mu = self.probe(i, j, v);
            self.mus[j] = mu;
        }
        weighted_max(&self.mus, &self.weights)
    }

    /// `µⱼ` with `xᵢⱼ := v`, without committing: the committed column
    /// when `v` is the committed fraction, else one
    /// [`EvalEngine::probe_coord`] per `(j, v.to_bits())` and
    /// placement.
    fn probe(&mut self, i: usize, j: usize, v: f64) -> f64 {
        if v.to_bits() == self.current.get(i, j).to_bits() {
            return self.engine.committed_utilizations()[j];
        }
        let key = v.to_bits();
        if let Some(&(_, mu)) = self.memo[j].iter().find(|&&(k, _)| k == key) {
            return mu;
        }
        let mu = self.engine.probe_coord(i, j, v);
        self.memo[j].push((key, mu));
        mu
    }
}

/// Class-1 candidates: even spreads over the top-k *allowed* targets
/// of the solver row, ordered by decreasing fraction (ties by target
/// id).
fn consistent_candidates(
    row: &[f64],
    forbidden: &[bool],
    remaining: &[f64],
    size: u64,
    m: usize,
) -> Vec<Vec<f64>> {
    let mut order: Vec<usize> = (0..m).filter(|&j| !forbidden[j]).collect();
    order.sort_by(|&a, &b| cmp_values(row[b], row[a]).then(a.cmp(&b)));
    spread_candidates(&order, remaining, size, m)
}

/// Class-2 candidates: even spreads over the k least-loaded allowed
/// targets, given each target's `loads` with the object removed.
fn balancing_candidates(
    loads: &[f64],
    forbidden: &[bool],
    remaining: &[f64],
    size: u64,
    m: usize,
) -> Vec<Vec<f64>> {
    let mut order: Vec<usize> = (0..m).filter(|&j| !forbidden[j]).collect();
    order.sort_by(|&a, &b| cmp_values(loads[a], loads[b]).then(a.cmp(&b)));
    spread_candidates(&order, remaining, size, m)
}

/// Builds the k-target even spreads for k = 1..len over a target order.
///
/// Capacity-adaptive: a target without room for `size / k` bytes is
/// skipped for that k (the next target in the order takes its slot), so
/// a small hot device (e.g. a nearly-full SSD) narrows the spread
/// instead of invalidating it — the paper's plain filter would discard
/// the whole candidate.
fn spread_candidates(order: &[usize], remaining: &[f64], size: u64, m: usize) -> Vec<Vec<f64>> {
    let mut out = Vec::new();
    let max_k = order.len();
    for k in 1..=max_k {
        let share = size as f64 / k as f64;
        let chosen: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&j| remaining[j] >= share)
            .take(k)
            .collect();
        if chosen.len() < k {
            continue; // not enough roomy targets for this k
        }
        let mut row = vec![0.0; m];
        for &j in &chosen {
            row[j] = 1.0 / k as f64;
        }
        out.push(row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wasla_model::CostModel;
    use wasla_simlib::proptest::prelude::*;
    use wasla_simlib::SimRng;
    use wasla_storage::{IoKind, Tier};
    use wasla_workload::{ObjectKind, WorkloadSet, WorkloadSpec};

    struct Flat;
    impl CostModel for Flat {
        fn request_cost(&self, _: IoKind, _: f64, _: f64, chi: f64) -> f64 {
            0.01 + 0.002 * chi
        }
    }

    fn problem(n: usize, m: usize, sizes: Vec<u64>, caps: Vec<u64>) -> LayoutProblem {
        LayoutProblem {
            workloads: WorkloadSet {
                names: (0..n).map(|i| format!("o{i}")).collect(),
                sizes,
                specs: (0..n)
                    .map(|_| WorkloadSpec {
                        read_size: 8192.0,
                        write_size: 8192.0,
                        read_rate: 10.0,
                        write_rate: 0.0,
                        run_count: 1.0,
                        overlaps: vec![0.5; n],
                    })
                    .collect(),
            },
            kinds: vec![ObjectKind::Table; n],
            capacities: caps,
            target_names: (0..m).map(|j| format!("t{j}")).collect(),
            models: (0..m).map(|_| Arc::new(Flat) as _).collect(),
            stripe_size: 1024.0 * 1024.0,
            constraints: vec![],
        }
    }

    #[test]
    fn consistent_candidates_match_paper_example() {
        // Solver row (47%, 35%, 18%) → (100,0,0), (50,50,0),
        // (33,33,33) in that target order.
        let cands = consistent_candidates(&[0.47, 0.35, 0.18], &[false; 3], &[1e12; 3], 100, 3);
        assert_eq!(cands.len(), 3);
        assert_eq!(cands[0], vec![1.0, 0.0, 0.0]);
        assert_eq!(cands[1], vec![0.5, 0.5, 0.0]);
        for v in &cands[2] {
            assert!((v - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn ties_broken_by_target_id() {
        let cands = consistent_candidates(&[0.5, 0.5, 0.0], &[false; 3], &[1e12; 3], 100, 3);
        assert_eq!(cands[0], vec![1.0, 0.0, 0.0]);
    }

    #[test]
    fn regularized_layout_is_regular_and_valid() {
        let p = problem(3, 3, vec![100; 3], vec![1000; 3]);
        let solver = Layout::from_rows(vec![
            vec![0.47, 0.35, 0.18],
            vec![0.1, 0.2, 0.7],
            vec![0.33, 0.33, 0.34],
        ]);
        let reg = regularize(&p, &solver).unwrap();
        assert!(reg.is_regular());
        assert!(reg.is_valid(&p.workloads.sizes, &p.capacities));
    }

    #[test]
    fn already_regular_stays_close() {
        let p = problem(2, 2, vec![100; 2], vec![1000; 2]);
        let solver = Layout::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]);
        let reg = regularize(&p, &solver).unwrap();
        // The isolated layout is optimal here (overlap 0.5, contention
        // costs); regularization must not disturb it.
        assert_eq!(reg.rows()[0], vec![1.0, 0.0]);
        assert_eq!(reg.rows()[1], vec![0.0, 1.0]);
    }

    #[test]
    fn tight_capacity_forces_dead_end() {
        // Objects of 100 bytes but targets of 10: nothing fits.
        let p = problem(1, 2, vec![100], vec![10, 10]);
        let solver = Layout::from_rows(vec![vec![0.5, 0.5]]);
        let err = regularize(&p, &solver).unwrap_err();
        assert_eq!(err, RegularizeError::DeadEnd { object: 0 });
    }

    #[test]
    fn pinned_object_stays_pinned() {
        let mut p = problem(2, 3, vec![100; 2], vec![1000; 3]);
        p.constraints = vec![AdminConstraint::PinTo {
            object: 0,
            target: 2,
        }];
        let solver = Layout::from_rows(vec![vec![0.0, 0.0, 1.0], vec![0.4, 0.4, 0.2]]);
        let reg = regularize(&p, &solver).unwrap();
        assert!(reg.get(0, 2) > 0.999);
        assert!(reg.is_regular());
    }

    #[test]
    fn forbidden_targets_avoided() {
        let mut p = problem(2, 2, vec![100; 2], vec![1000; 2]);
        p.constraints = vec![AdminConstraint::Forbid {
            object: 1,
            target: 0,
        }];
        let solver = Layout::from_rows(vec![vec![0.6, 0.4], vec![0.6, 0.4]]);
        let reg = regularize(&p, &solver).unwrap();
        assert!(reg.get(1, 0) < EPS);
        assert!(reg.is_regular());
    }

    #[test]
    fn balancing_candidates_prefer_idle_targets() {
        // Object 0 already loads target 0 heavily; balancing candidates
        // for object 1 must lead with target 1.
        let p = problem(2, 2, vec![100; 2], vec![1000; 2]);
        let current = Layout::from_rows(vec![vec![1.0, 0.0], vec![0.5, 0.5]]);
        let mut engine = EvalEngine::new(&p);
        engine.set_layout(&current);
        let mut loads = vec![0.0; 2];
        engine.probe_row(1, &[0.0, 0.0], &mut loads);
        let cands = balancing_candidates(&loads, &[false; 2], &[1e12; 2], 100, 2);
        assert_eq!(cands[0], vec![0.0, 1.0]);
    }

    #[test]
    fn non_finite_input_is_a_typed_error() {
        let p = problem(2, 2, vec![100; 2], vec![1000; 2]);
        for bad in [f64::NAN, f64::INFINITY] {
            let solver = Layout::from_rows(vec![vec![1.0, 0.0], vec![bad, 0.5]]);
            let err = regularize(&p, &solver).unwrap_err();
            assert_eq!(err, RegularizeError::NonFinite { object: 1 });
        }
        // A finite layout whose cost model prices to NaN: the loads
        // carry it.
        struct Nan;
        impl CostModel for Nan {
            fn request_cost(&self, _: IoKind, _: f64, _: f64, _: f64) -> f64 {
                f64::NAN
            }
        }
        let mut p = problem(2, 2, vec![100; 2], vec![1000; 2]);
        p.models = vec![Arc::new(Nan) as _, Arc::new(Flat) as _];
        let solver = Layout::from_rows(vec![vec![0.0, 1.0], vec![0.5, 0.5]]);
        let err = regularize(&p, &solver).unwrap_err();
        assert_eq!(err, RegularizeError::NonFinite { object: 1 });
    }

    #[test]
    fn cmp_values_is_partial_cmp_on_non_nan_values() {
        let values = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            1e-300,
            0.25,
            1.0,
            f64::INFINITY,
        ];
        for &a in &values {
            for &b in &values {
                assert_eq!(Some(cmp_values(a, b)), a.partial_cmp(&b), "{a} vs {b}");
            }
        }
    }

    /// Regularization without the probe memo and the skip rule: every
    /// candidate scored by `EvalEngine::probe_row_score`, the balancing
    /// loads by a zero-row `probe_row`, every object re-placed on every
    /// pass, and target orders sorted by `partial_cmp`. The oracle
    /// `regularize_with` must match bit for bit.
    mod reference {
        use super::super::*;

        pub(super) fn regularize_in<'p>(
            problem: &'p LayoutProblem,
            solver: &Layout,
            engine: &mut EvalEngine<'p>,
        ) -> Result<Layout, RegularizeError> {
            let n = problem.n();
            engine.set_layout(solver);
            let mut order: Vec<usize> = (0..n).collect();
            let loads: Vec<f64> = (0..n).map(|i| engine.object_load(i)).collect();
            order.sort_by(|&a, &b| {
                loads[b]
                    .partial_cmp(&loads[a])
                    .expect("loads finite")
                    .then(a.cmp(&b))
            });
            let mut current = solver.clone();
            for &i in &order {
                place_best(problem, engine, solver, &mut current, i)?;
            }
            let mut best_score = engine.committed_score();
            for _ in 0..REFINE_PASSES {
                for &i in &order {
                    place_best(problem, engine, solver, &mut current, i)?;
                }
                let now_score = engine.committed_score();
                if now_score >= best_score - 1e-12 {
                    break;
                }
                best_score = now_score;
            }
            Ok(current)
        }

        /// Allowed targets sorted by `key` (ascending, or descending
        /// when `descending`), ties by target id.
        fn sorted_targets(key: &[f64], forbidden: &[bool], descending: bool) -> Vec<usize> {
            let mut order: Vec<usize> = (0..key.len()).filter(|&j| !forbidden[j]).collect();
            order.sort_by(|&a, &b| {
                let (x, y) = if descending { (b, a) } else { (a, b) };
                key[x]
                    .partial_cmp(&key[y])
                    .expect("keys finite")
                    .then(a.cmp(&b))
            });
            order
        }

        fn place_best(
            problem: &LayoutProblem,
            engine: &mut EvalEngine<'_>,
            solver: &Layout,
            current: &mut Layout,
            i: usize,
        ) -> Result<(), RegularizeError> {
            let m = problem.m();
            let pinned = problem.constraints.iter().find_map(|c| match *c {
                AdminConstraint::PinTo { object, target } if object == i => Some(target),
                _ => None,
            });
            let forbidden: Vec<bool> = (0..m)
                .map(|j| {
                    problem.constraints.iter().any(|c| {
                        matches!(*c, AdminConstraint::Forbid { object, target }
                            if object == i && target == j)
                    })
                })
                .collect();
            let sizes = &problem.workloads.sizes;
            let mut used_without: Vec<f64> = vec![0.0; m];
            for (k, row) in current.rows().iter().enumerate() {
                if k == i {
                    continue;
                }
                for (j, &f) in row.iter().enumerate() {
                    used_without[j] += f * sizes[k] as f64;
                }
            }
            let remaining: Vec<f64> = (0..m)
                .map(|j| problem.capacities[j] as f64 * (1.0 + EPS) - used_without[j])
                .collect();
            let candidates = if let Some(t) = pinned {
                let mut row = vec![0.0; m];
                row[t] = 1.0;
                vec![row]
            } else {
                let top = sorted_targets(solver.row(i), &forbidden, true);
                let mut cands = spread_candidates(&top, &remaining, sizes[i], m);
                let mut loads = vec![0.0; m];
                engine.probe_row(i, &vec![0.0; m], &mut loads);
                let idle = sorted_targets(&loads, &forbidden, false);
                cands.extend(spread_candidates(&idle, &remaining, sizes[i], m));
                cands
            };
            let mut best: Option<(f64, Vec<f64>)> = None;
            for cand in candidates {
                let ok = (0..m).all(|j| {
                    let add = cand[j] * sizes[i] as f64;
                    add <= 0.0
                        || used_without[j] + add <= problem.capacities[j] as f64 * (1.0 + EPS)
                });
                if !ok {
                    continue;
                }
                let score = engine.probe_row_score(i, &cand);
                if best.as_ref().map_or(true, |(s, _)| score < *s) {
                    best = Some((score, cand));
                }
            }
            match best {
                Some((_, row)) => {
                    engine.commit_row(i, &row);
                    *current.row_mut(i) = row;
                    Ok(())
                }
                None => Err(RegularizeError::DeadEnd { object: i }),
            }
        }
    }

    /// A cost model with the slopes of a real table (cheaper runs,
    /// costlier contention and size) and a tier, so the tier-weighted
    /// objectives see distinct per-target weights.
    struct Tiered(Tier);
    impl CostModel for Tiered {
        fn request_cost(&self, kind: IoKind, size: f64, run: f64, chi: f64) -> f64 {
            let base = match kind {
                IoKind::Read => 0.004,
                IoKind::Write => 0.003,
            };
            base / run.max(1.0) + 0.002 * chi + size / 60e6 + 0.0002
        }

        fn tier(&self) -> Tier {
            self.0.clone()
        }
    }

    /// A random problem of `n` objects on `m` targets: random rates,
    /// run counts and overlaps (some zero), capacities from roomy down
    /// to too tight for any regular row, with random pins and forbids
    /// when `constrained`.
    fn random_problem(rng: &mut SimRng, n: usize, m: usize, constrained: bool) -> LayoutProblem {
        let sizes: Vec<u64> = (0..n).map(|_| 50 + rng.index(200) as u64).collect();
        let total: u64 = sizes.iter().sum();
        let slack = [0.8, 1.5, 2.5, 4.0][rng.index(4)];
        let capacities = (0..m)
            .map(|_| (total as f64 * slack * rng.uniform_range(0.5, 1.5) / m as f64) as u64)
            .collect();
        let specs = (0..n)
            .map(|i| {
                let rate = rng.uniform_range(0.0, 120.0);
                WorkloadSpec {
                    read_size: [8192.0, 65536.0, 262144.0][rng.index(3)],
                    write_size: 8192.0,
                    read_rate: rate,
                    write_rate: rate * rng.uniform_range(0.0, 0.5),
                    run_count: 1.0 + rng.index(64) as f64,
                    overlaps: (0..n)
                        .map(|k| {
                            if k == i || rng.chance(0.3) {
                                0.0
                            } else {
                                rng.uniform()
                            }
                        })
                        .collect(),
                }
            })
            .collect();
        let mut constraints = Vec::new();
        if constrained {
            for object in 0..n {
                if rng.chance(0.1) {
                    let target = rng.index(m);
                    constraints.push(AdminConstraint::PinTo { object, target });
                }
                for target in 0..m {
                    if rng.chance(0.1) {
                        constraints.push(AdminConstraint::Forbid { object, target });
                    }
                }
            }
        }
        LayoutProblem {
            workloads: WorkloadSet {
                names: (0..n).map(|i| format!("o{i}")).collect(),
                sizes,
                specs,
            },
            kinds: vec![ObjectKind::Table; n],
            capacities,
            target_names: (0..m).map(|j| format!("t{j}")).collect(),
            models: (0..m)
                .map(|j| {
                    let tier = if j % 2 == 0 { Tier::hdd() } else { Tier::ssd() };
                    Arc::new(Tiered(tier)) as _
                })
                .collect(),
            stripe_size: 1024.0 * 1024.0,
            constraints,
        }
    }

    /// A random fractional solver layout: rows with zeros, ties and
    /// the occasional already-regular row.
    fn random_solver(rng: &mut SimRng, n: usize, m: usize) -> Layout {
        let rows = (0..n)
            .map(|_| {
                let mut row: Vec<f64> = (0..m)
                    .map(|_| match rng.index(4) {
                        0 => 0.0,
                        1 => 0.5,
                        _ => rng.uniform(),
                    })
                    .collect();
                if row.iter().all(|&f| f == 0.0) {
                    row[rng.index(m)] = 1.0;
                }
                let total: f64 = row.iter().sum();
                row.iter().map(|f| f / total).collect()
            })
            .collect();
        Layout::from_rows(rows)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `regularize_with` equals the reference bit for bit, errors
        /// included, on random problems with pins, failed targets
        /// (`problem_without`), tight capacities and every objective.
        #[test]
        fn regularize_matches_reference(seed in any::<u64>()) {
            let mut rng = SimRng::new(seed);
            let (n, m) = (1 + rng.index(12), 1 + rng.index(5));
            let constrained = rng.chance(0.6);
            let mut p = random_problem(&mut rng, n, m, constrained);
            if m > 1 && rng.chance(0.3) {
                p = crate::dynamic::problem_without(&p, &[rng.index(m)]);
            }
            let solver = random_solver(&mut rng, n, m);
            let objective = ObjectiveKind::ALL[rng.index(ObjectiveKind::ALL.len())];
            let got = regularize_with(&p, &solver, objective);
            let mut engine = EvalEngine::with_objective(&p, objective);
            let want = reference::regularize_in(&p, &solver, &mut engine);
            match (&got, &want) {
                (Ok(a), Ok(b)) => prop_assert!(a.same_bits(b), "{:?} vs {:?}", a, b),
                _ => prop_assert_eq!(got, want),
            }
        }
    }

    /// On a daemon-shaped problem (20 objects, 4 targets, a solved
    /// fractional layout) the memo and the skip rule cut the column
    /// probes to at most 0.6× the reference's, with the same layout.
    #[test]
    fn memo_and_skip_cut_column_probes() {
        let mut rng = SimRng::new(0xda3);
        let p = random_problem(&mut rng, 20, 4, false);
        let solver = crate::optimizer::solve_nlp(
            &p,
            &random_solver(&mut rng, 20, 4),
            &crate::optimizer::SolverOptions::default(),
        )
        .layout;
        let mut fast = EvalEngine::new(&p);
        let got = regularize_in(&p, &solver, &mut fast).unwrap();
        let mut slow = EvalEngine::new(&p);
        let want = reference::regularize_in(&p, &solver, &mut slow).unwrap();
        assert!(got.same_bits(&want));
        let (fast, slow) = (fast.stats.column_probes, slow.stats.column_probes);
        assert!(
            fast as f64 <= 0.6 * slow as f64,
            "column probes {fast} vs reference {slow}"
        );
    }
}
