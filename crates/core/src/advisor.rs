//! The layout advisor façade (paper Figure 4).
//!
//! Ties the pipeline together: validate the problem, build the
//! rate-greedy initial layout, run the NLP solver (optionally from
//! extra expert-supplied starts), and — when the layout mechanism needs
//! it — regularize. Reports predicted utilizations at every stage (the
//! paper's Figure 13 shows exactly these four bars) plus wall-clock
//! timings (Figure 19 reports solver vs. regularization time).
//! [`replan`] is the online re-plan's variant of the pipeline: the
//! same stages run once per start (the rate-greedy layout, the deployed
//! layout, SEE), keeping the best regularized result.

use crate::baselines;
use crate::eval::{max_of, EvalEngine};
use crate::initial::{initial_layout, InitialLayoutError};
use crate::optimizer::{solve_multistart, MultistartError, NlpOutcome, SolverOptions};
use crate::problem::{Layout, LayoutProblem};
use crate::regularize::{regularize_with, RegularizeError};
use std::time::Instant;
use wasla_simlib::fault::{self, SolverBudget};
use wasla_simlib::impl_json_struct;
use wasla_simlib::json::{self, FromJson, Json, JsonError, ToJson};
use wasla_simlib::{par, SimRng};

/// Advisor configuration.
#[derive(Clone, Debug)]
pub struct AdvisorOptions {
    /// NLP solver options.
    pub solver: SolverOptions,
    /// Produce a regular layout (paper Figure 4's "looking for a
    /// regularized solution?" branch).
    pub regularize: bool,
    /// Additional initial layouts to multi-start from (§4.1: a way for
    /// domain experts to inject candidate layouts).
    pub extra_starts: Vec<Layout>,
    /// Automatically generated additional starts: one interference-
    /// aware greedy start (co-accessed objects separated) plus this
    /// many randomized single-assignment starts. The paper's Figure 4
    /// `repeat?` loop: more starts trade time for layout quality. Only
    /// the cold solve draws them; [`replan`] uses none.
    pub random_starts: usize,
    /// Seed for the randomized starts and for the fault plan's solver
    /// budget.
    pub seed: u64,
    /// Deliberate solve-budget ceiling (deadline-driven callers): the
    /// solve runs under the *tighter* of this and any fault-injected
    /// budget, degrading through the same anytime chain and recording
    /// the same [`SolveQuality`]. `None` (the default) leaves the
    /// budget entirely to the fault plan.
    pub solve_budget: Option<SolverBudget>,
}

impl Default for AdvisorOptions {
    fn default() -> Self {
        AdvisorOptions {
            solver: SolverOptions::default(),
            regularize: false,
            extra_starts: Vec::new(),
            random_starts: 2,
            seed: 0x5eed,
            solve_budget: None,
        }
    }
}

/// Severity order of solve budgets: a larger rank means a cheaper
/// (more constrained) solve. Used to combine a caller-requested budget
/// with a fault-injected one — the tighter of the two wins.
fn budget_rank(budget: Option<SolverBudget>) -> u8 {
    match budget {
        None => 0,
        Some(SolverBudget::Tight) => 1,
        Some(SolverBudget::PgOnly) => 2,
        Some(SolverBudget::GreedyOnly) => 3,
    }
}

/// An interference-aware greedy start: objects in decreasing rate
/// order, each placed whole on the target minimizing co-access weight
/// with already-placed objects (assigned rate as tie-break), capacity
/// permitting. This is the separation-flavoured counterpart of the
/// §4.2 rate-greedy start.
fn separation_start(problem: &LayoutProblem) -> Option<Layout> {
    let n = problem.n();
    let m = problem.m();
    let rate = |i: usize| problem.workloads.specs[i].total_rate();
    let mut layout = Layout::zero(n, m);
    let mut remaining: Vec<f64> = problem.capacities.iter().map(|&c| c as f64).collect();
    let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut load = vec![0.0f64; m];
    for &i in &problem.workloads.by_decreasing_rate() {
        let size = problem.workloads.sizes[i] as f64;
        let oi = &problem.workloads.specs[i].overlaps;
        let mut best: Option<(f64, f64, usize)> = None;
        for j in 0..m {
            if remaining[j] < size {
                continue;
            }
            let co: f64 = assigned[j]
                .iter()
                .map(|&k| rate(i) * oi[k] + rate(k) * problem.workloads.specs[k].overlaps[i])
                .sum();
            let key = (co, load[j], j);
            if best
                .map(|(bc, bl, bj)| (key.0, key.1, key.2) < (bc, bl, bj))
                .unwrap_or(true)
            {
                best = Some(key);
            }
        }
        let (_, _, j) = best?;
        layout.set(i, j, 1.0);
        assigned[j].push(i);
        load[j] += rate(i);
        remaining[j] -= size;
    }
    Some(layout)
}

/// A randomized single-assignment start: objects in random order, each
/// on a random target with room (largest-remaining as fallback).
fn random_start(problem: &LayoutProblem, rng: &mut SimRng) -> Option<Layout> {
    let n = problem.n();
    let m = problem.m();
    let mut layout = Layout::zero(n, m);
    let mut remaining: Vec<f64> = problem.capacities.iter().map(|&c| c as f64).collect();
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    for &i in &order {
        let size = problem.workloads.sizes[i] as f64;
        let fits: Vec<usize> = (0..m).filter(|&j| remaining[j] >= size).collect();
        let j = if fits.is_empty() {
            // Nothing fits whole; give up on this start (the rate-greedy
            // start covers tight-capacity cases with its own error).
            return None;
        } else {
            fits[rng.index(fits.len())]
        };
        layout.set(i, j, 1.0);
        remaining[j] -= size;
    }
    Some(layout)
}

/// SEE over the live targets: every object striped evenly across the
/// targets with capacity, so a failed target (capacity 0) gets none;
/// `None` when that layout does not fit or breaks a constraint.
fn live_see_start(problem: &LayoutProblem) -> Option<Layout> {
    let live: Vec<usize> = (0..problem.m())
        .filter(|&j| problem.capacities[j] > 0)
        .collect();
    let share = 1.0 / live.len() as f64;
    let mut layout = Layout::zero(problem.n(), problem.m());
    for i in 0..problem.n() {
        for &j in &live {
            layout.set(i, j, share);
        }
    }
    (layout.is_valid(&problem.workloads.sizes, &problem.capacities)
        && problem.satisfies_constraints(&layout))
    .then_some(layout)
}

/// Advisor failure modes.
#[derive(Clone, Debug, PartialEq)]
pub enum AdvisorError {
    /// The problem description is inconsistent.
    InvalidProblem(String),
    /// No valid initial layout exists (capacity too tight).
    Initial(InitialLayoutError),
    /// The multi-start solve could not run (no starting layouts).
    Multistart(MultistartError),
    /// Regularization dead-ended (§4.3's manual-intervention case).
    Regularize(RegularizeError),
}

impl ToJson for AdvisorError {
    fn to_json(&self) -> Json {
        match self {
            AdvisorError::InvalidProblem(msg) => json::variant("InvalidProblem", msg.to_json()),
            AdvisorError::Initial(e) => json::variant("Initial", e.to_json()),
            AdvisorError::Multistart(MultistartError::NoStarts) => {
                json::variant("Multistart", "NoStarts".to_json())
            }
            AdvisorError::Regularize(e) => json::variant("Regularize", e.to_json()),
        }
    }
}

impl FromJson for AdvisorError {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match json::untag(v)? {
            ("InvalidProblem", payload) => {
                String::from_json(payload).map(AdvisorError::InvalidProblem)
            }
            ("Initial", payload) => {
                InitialLayoutError::from_json(payload).map(AdvisorError::Initial)
            }
            ("Multistart", payload) => match String::from_json(payload)?.as_str() {
                "NoStarts" => Ok(AdvisorError::Multistart(MultistartError::NoStarts)),
                other => Err(JsonError::new(format!(
                    "unknown MultistartError variant: {other:?}"
                ))),
            },
            ("Regularize", payload) => {
                RegularizeError::from_json(payload).map(AdvisorError::Regularize)
            }
            (other, _) => Err(JsonError::new(format!(
                "unknown AdvisorError variant: {other:?}"
            ))),
        }
    }
}

impl std::fmt::Display for AdvisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdvisorError::InvalidProblem(msg) => write!(f, "invalid problem: {msg}"),
            AdvisorError::Initial(e) => write!(f, "initial layout: {e}"),
            AdvisorError::Multistart(e) => write!(f, "solve: {e}"),
            AdvisorError::Regularize(e) => write!(f, "regularization: {e}"),
        }
    }
}

impl std::error::Error for AdvisorError {}

/// How the solve stage arrived at its layout. Anything other than
/// [`SolveQuality::Full`] means the result is feasible but degraded —
/// the advisor never fails outright; it reports the quality instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveQuality {
    /// The configured solver ran with its normal budget.
    Full,
    /// A constrained (fault-injected) budget limited the solve: fewer
    /// iterations or outer passes, anytime best-so-far result.
    Budgeted,
    /// The configured solve failed; a projected-gradient-only retry
    /// produced the layout.
    FallbackPg,
    /// Every solver failed (or the budget allowed none); the
    /// rate-greedy initial layout was recommended as-is.
    FallbackGreedy,
}

impl SolveQuality {
    /// True unless the solve ran at full quality.
    pub fn degraded(self) -> bool {
        self != SolveQuality::Full
    }
}

/// Predicted utilizations at one stage of the pipeline (one group of
/// bars in the paper's Figure 13).
#[derive(Clone, Debug)]
pub struct StageReport {
    /// Stage name: "see", "initial", "solver", or "regular".
    pub stage: String,
    /// Predicted per-target utilizations.
    pub utilizations: Vec<f64>,
    /// The min-max objective value.
    pub max_utilization: f64,
}

impl_json_struct!(StageReport {
    stage,
    utilizations,
    max_utilization
});

/// Wall-clock costs of the advisor phases (paper Figure 19's columns).
#[derive(Clone, Copy, Debug, Default)]
pub struct Timings {
    /// Initial-layout construction (paper: "much less than a second").
    pub initial_s: f64,
    /// NLP solver time.
    pub solver_s: f64,
    /// Regularization post-processing time.
    pub regularize_s: f64,
}

impl_json_struct!(Timings {
    initial_s,
    solver_s,
    regularize_s
});

impl Timings {
    /// Total advisor time.
    pub fn total_s(&self) -> f64 {
        self.initial_s + self.solver_s + self.regularize_s
    }
}

/// The advisor's output.
#[derive(Clone, Debug)]
pub struct Recommendation {
    /// The solver's (generally non-regular) layout — implementable
    /// directly if the layout mechanism supports arbitrary fractions.
    pub solver_layout: Layout,
    /// The regularized layout, when requested.
    pub regular_layout: Option<Layout>,
    /// Predicted utilizations at each pipeline stage.
    pub stages: Vec<StageReport>,
    /// Phase timings.
    pub timings: Timings,
    /// Solver convergence flag.
    pub converged: bool,
    /// True when the pipeline's candidate predicted worse than plain
    /// SEE and the advisor recommended SEE instead. This happens when
    /// the workload leaves no room for improvement (e.g. uniformly
    /// random, overload-balanced workloads) — SEE is then a genuine
    /// local optimum, as the paper's §4.2 observes.
    pub fell_back_to_see: bool,
    /// How the solve stage arrived at the layout (full quality unless
    /// a budget or fallback degraded it).
    pub quality: SolveQuality,
}

impl Recommendation {
    /// The layout to implement: regular when available, else the
    /// solver's.
    pub fn final_layout(&self) -> &Layout {
        self.regular_layout.as_ref().unwrap_or(&self.solver_layout)
    }

    /// A stage report by name.
    pub fn stage(&self, name: &str) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.stage == name)
    }
}

/// What the solve stage of the pipeline produced: the solver's layout
/// plus the stage reports and timings accumulated so far. Feed it to
/// [`regularize_stage`] to finish the pipeline (or call [`recommend`],
/// which runs both).
#[derive(Clone, Debug)]
pub struct SolveOutcome {
    /// The multi-start NLP solver's (generally non-regular) layout.
    pub solver_layout: Layout,
    /// Solver convergence flag.
    pub converged: bool,
    /// Stage reports recorded so far: "see", "initial", "solver".
    pub stages: Vec<StageReport>,
    /// Initial-layout construction time.
    pub initial_s: f64,
    /// NLP solver time.
    pub solver_s: f64,
    /// How the solve arrived at the layout.
    pub quality: SolveQuality,
    /// Objective score `max_j wⱼ·µⱼ` of the SEE layout (the "see"
    /// stage), for the SEE sanity fallback.
    see_score: f64,
    /// Objective score of the solver layout (the "solver" stage).
    solver_score: f64,
}

/// Records one stage report and returns its objective score
/// `max_j wⱼ·µⱼ` under the engine's objective — under the default
/// objective the weights are 1.0 and this is the report's
/// `max_utilization`, bit for bit.
fn record_stage(
    engine: &mut EvalEngine,
    stages: &mut Vec<StageReport>,
    name: &str,
    layout: &Layout,
) -> f64 {
    engine.set_layout(layout);
    let utilizations = engine.committed_utilizations().to_vec();
    stages.push(StageReport {
        stage: name.to_string(),
        max_utilization: max_of(&utilizations),
        utilizations,
    });
    engine.committed_score()
}

/// The pipeline's solve stage: validates the problem, builds the
/// rate-greedy/separation/expert/random starting layouts, and runs the
/// multi-start NLP solver, recording "see"/"initial"/"solver" stage
/// reports along the way.
pub fn solve_stage(
    problem: &LayoutProblem,
    options: &AdvisorOptions,
) -> Result<SolveOutcome, AdvisorError> {
    solve_from(problem, options, |initial| {
        let mut starts = vec![initial.clone()];
        if let Some(sep) = separation_start(problem) {
            starts.push(sep);
        }
        // Expert-style start (§4.1): tables isolated on the largest target.
        if let Some(big) = (0..problem.m()).max_by_key(|&j| problem.capacities[j]) {
            let iso = baselines::isolate_tables(problem, big);
            if iso.is_valid(&problem.workloads.sizes, &problem.capacities)
                && problem.satisfies_constraints(&iso)
            {
                starts.push(iso);
            }
        }
        let mut rng = SimRng::new(options.seed);
        for _ in 0..options.random_starts {
            if let Some(r) = random_start(problem, &mut rng) {
                starts.push(r);
            }
        }
        starts.extend(options.extra_starts.iter().cloned());
        starts
    })
}

/// The online re-plan: the pipeline run once per start — the paper's
/// rate-greedy initial layout (§4.2), the deployed layout
/// (`incumbent`), SEE over the live targets when it fits, then
/// `options.extra_starts` — each start solved and regularized on its
/// own, keeping the recommendation whose final layout scores best
/// under the objective (ties go to the earlier start).
///
/// A re-layout is a move from the current layout, so the incumbent is
/// the warm start; the rate-greedy and SEE starts keep a way out of its
/// basin. Candidates are compared after regularization rather than by
/// solver score because regularization is not monotone in that score:
/// the start with the best solver layout can give a regular layout up
/// to 17% worse than another start's. No random starts are drawn, so
/// `options.seed` only feeds the fault plan's solver budget. Each
/// candidate runs [`solve_stage`]'s validation, stage reports and
/// anytime budget chain and [`regularize_stage`]'s SEE fallback; the
/// returned stages, timings and quality are the chosen candidate's.
pub fn replan(
    problem: &LayoutProblem,
    options: &AdvisorOptions,
    incumbent: &Layout,
) -> Result<Recommendation, AdvisorError> {
    // `None` stands for the rate-greedy initial layout, which the
    // solve stage builds itself.
    let run = |start: Option<&Layout>| -> Result<Recommendation, AdvisorError> {
        let solved = solve_from(problem, options, |initial| {
            vec![start.unwrap_or(initial).clone()]
        })?;
        regularize_stage(problem, options, solved)
    };

    let see = live_see_start(problem);
    let mut starts = vec![None, Some(incumbent)];
    starts.extend(see.as_ref().map(Some));
    starts.extend(options.extra_starts.iter().map(Some));

    // The candidates are independent, so they run concurrently on the
    // `par` pool; scoring and the pick run in start order, so the
    // result is the serial loop's at any thread count.
    let mut engine = EvalEngine::with_objective(problem, options.solver.objective);
    let mut best: Option<(f64, Recommendation)> = None;
    for candidate in par::par_map(&starts, |&start| run(start)) {
        let rec = candidate?;
        engine.set_layout(rec.final_layout());
        let score = engine.committed_score();
        if best.as_ref().map_or(true, |b| score < b.0) {
            best = Some((score, rec));
        }
    }
    best.map(|b| b.1)
        .ok_or(AdvisorError::Multistart(MultistartError::NoStarts))
}

/// The solve stage around a start list: validates the problem, builds
/// the rate-greedy initial layout, asks `starts` for the layouts to
/// multi-start from (given that initial layout), and solves them under
/// the anytime budget chain.
fn solve_from(
    problem: &LayoutProblem,
    options: &AdvisorOptions,
    starts: impl FnOnce(&Layout) -> Vec<Layout>,
) -> Result<SolveOutcome, AdvisorError> {
    problem.validate().map_err(AdvisorError::InvalidProblem)?;
    let mut engine = EvalEngine::with_objective(problem, options.solver.objective);
    let mut stages = Vec::new();

    let see_score = record_stage(&mut engine, &mut stages, "see", &baselines::see(problem));

    let t0 = Instant::now();
    let initial = initial_layout(problem).map_err(AdvisorError::Initial)?;
    let initial_s = t0.elapsed().as_secs_f64();
    record_stage(&mut engine, &mut stages, "initial", &initial);

    let t1 = Instant::now();
    let starts = starts(&initial);
    let fallback = initial;

    // Solver budget: a fault plan may constrain the solve (fewer
    // iterations, one outer pass, or none at all), and deadline-driven
    // callers may request a ceiling of their own via
    // `options.solve_budget`; the tighter of the two applies. The
    // contract is anytime: the solve stage always returns a feasible
    // layout, with `quality` recording how it got there.
    let injected = fault::plan().and_then(|p| p.solver_budget(options.seed));
    let budget = if budget_rank(options.solve_budget) >= budget_rank(injected) {
        options.solve_budget
    } else {
        injected
    };
    let mut solver_opts = options.solver.clone();
    let mut quality = SolveQuality::Full;
    match budget {
        None | Some(SolverBudget::GreedyOnly) => {}
        Some(SolverBudget::Tight) => {
            quality = SolveQuality::Budgeted;
            solver_opts.auglag.inner.max_iters = (solver_opts.auglag.inner.max_iters / 4).max(5);
            solver_opts.auglag.outer_iters = 1;
            solver_opts.temperatures.truncate(1);
        }
        Some(SolverBudget::PgOnly) => {
            quality = SolveQuality::Budgeted;
            solver_opts.auglag.outer_iters = 1;
        }
    }

    let good = |out: &NlpOutcome| {
        out.score.is_finite()
            && out.max_utilization.is_finite()
            && out.layout.rows().iter().flatten().all(|f| f.is_finite())
    };
    let (solver_layout, converged, quality) = if matches!(budget, Some(SolverBudget::GreedyOnly)) {
        // Budget allows no NLP at all: recommend the rate-greedy seed.
        (fallback, false, SolveQuality::FallbackGreedy)
    } else {
        match solve_multistart(problem, &starts, &solver_opts) {
            Ok(out) if good(&out) => (out.layout, out.converged, quality),
            _ => {
                // The configured solve failed (or went non-finite):
                // retry with a bare projected-gradient pass, and if
                // that also fails, fall back to the greedy seed — the
                // advisor degrades, it does not error out here.
                let mut pg_opts = options.solver.clone();
                pg_opts.auglag.outer_iters = 1;
                match solve_multistart(problem, &starts, &pg_opts) {
                    Ok(out) if good(&out) => (out.layout, out.converged, SolveQuality::FallbackPg),
                    _ => (fallback, false, SolveQuality::FallbackGreedy),
                }
            }
        }
    };
    let solver_s = t1.elapsed().as_secs_f64();
    let solver_score = record_stage(&mut engine, &mut stages, "solver", &solver_layout);

    Ok(SolveOutcome {
        solver_layout,
        converged,
        stages,
        initial_s,
        solver_s,
        quality,
        see_score,
        solver_score,
    })
}

/// The pipeline's regularize stage: optionally regularizes the solver
/// layout, applies the SEE sanity fallback, and assembles the final
/// [`Recommendation`]. The fallback compares the objective scores
/// `solved` carries, so pass the `options` its solve ran with.
pub fn regularize_stage(
    problem: &LayoutProblem,
    options: &AdvisorOptions,
    solved: SolveOutcome,
) -> Result<Recommendation, AdvisorError> {
    let SolveOutcome {
        solver_layout,
        converged,
        mut stages,
        initial_s,
        solver_s,
        quality,
        see_score,
        solver_score,
    } = solved;

    // The score the SEE fallback compares against: the regular
    // layout's when regularizing, else the solver layout's.
    let (mut regular_layout, final_score, regularize_s) = if options.regularize {
        let t2 = Instant::now();
        let reg = regularize_with(problem, &solver_layout, options.solver.objective)
            .map_err(AdvisorError::Regularize)?;
        let dt = t2.elapsed().as_secs_f64();
        let mut engine = EvalEngine::with_objective(problem, options.solver.objective);
        let reg_score = record_stage(&mut engine, &mut stages, "regular", &reg);
        (Some(reg), reg_score, dt)
    } else {
        (None, solver_score, 0.0)
    };

    // Never recommend a layout the model itself rates worse than the
    // trivial SEE default. (SEE can be a genuine local optimum; the
    // solver is only seeded away from it to escape when escape helps.)
    // The comparison runs in objective-score space — under the default
    // objective the weights are 1.0 and this is exactly the recorded
    // `max_utilization` comparison, bit for bit.
    let see_layout = baselines::see(problem);
    let mut solver_layout = solver_layout;
    let mut fell_back_to_see = false;
    if problem.satisfies_constraints(&see_layout)
        && see_layout.satisfies_capacity(&problem.workloads.sizes, &problem.capacities)
        && see_score < final_score
    {
        if options.regularize {
            regular_layout = Some(see_layout);
        } else {
            solver_layout = see_layout;
        }
        fell_back_to_see = true;
    }

    Ok(Recommendation {
        solver_layout,
        regular_layout,
        stages,
        timings: Timings {
            initial_s,
            solver_s,
            regularize_s,
        },
        converged,
        fell_back_to_see,
        quality,
    })
}

/// Runs the full advisor pipeline: [`solve_stage`] then
/// [`regularize_stage`].
pub fn recommend(
    problem: &LayoutProblem,
    options: &AdvisorOptions,
) -> Result<Recommendation, AdvisorError> {
    let solved = solve_stage(problem, options)?;
    regularize_stage(problem, options, solved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::UtilizationEstimator;
    use std::sync::Arc;
    use wasla_model::CostModel;
    use wasla_storage::IoKind;
    use wasla_workload::{ObjectKind, WorkloadSet, WorkloadSpec};

    struct ContentionModel;
    impl CostModel for ContentionModel {
        fn request_cost(&self, _: IoKind, _: f64, run: f64, chi: f64) -> f64 {
            0.004 / run.max(1.0) + 0.003 * chi + 0.004
        }
    }

    fn problem() -> LayoutProblem {
        let _n = 4;
        let spec = |rate: f64, run: f64, overlaps: Vec<f64>| WorkloadSpec {
            read_size: 65536.0,
            write_size: 8192.0,
            read_rate: rate,
            write_rate: rate * 0.1,
            run_count: run,
            overlaps,
        };
        LayoutProblem {
            workloads: WorkloadSet {
                names: vec!["L".into(), "O".into(), "I".into(), "T".into()],
                sizes: vec![4 << 28, 1 << 28, 1 << 27, 1 << 27],
                specs: vec![
                    spec(60.0, 32.0, vec![0.0, 0.9, 0.5, 0.2]),
                    spec(30.0, 32.0, vec![0.9, 0.0, 0.4, 0.1]),
                    spec(15.0, 4.0, vec![0.5, 0.4, 0.0, 0.3]),
                    spec(10.0, 16.0, vec![0.2, 0.1, 0.3, 0.0]),
                ],
            },
            kinds: vec![
                ObjectKind::Table,
                ObjectKind::Table,
                ObjectKind::Index,
                ObjectKind::TempSpace,
            ],
            capacities: vec![2 << 30; 4],
            target_names: (0..4).map(|j| format!("t{j}")).collect(),
            models: (0..4).map(|_| Arc::new(ContentionModel) as _).collect(),
            stripe_size: 1024.0 * 1024.0,
            constraints: vec![],
        }
    }

    #[test]
    fn full_pipeline_produces_all_stages() {
        let p = problem();
        let opts = AdvisorOptions {
            regularize: true,
            ..AdvisorOptions::default()
        };
        let rec = recommend(&p, &opts).unwrap();
        let names: Vec<&str> = rec.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(names, vec!["see", "initial", "solver", "regular"]);
        let reg = rec.regular_layout.as_ref().unwrap();
        assert!(reg.is_regular());
        assert!(reg.is_valid(&p.workloads.sizes, &p.capacities));
        assert_eq!(rec.final_layout(), reg);
    }

    #[test]
    fn solver_beats_see_and_initial() {
        let p = problem();
        let rec = recommend(
            &p,
            &AdvisorOptions {
                regularize: true,
                ..AdvisorOptions::default()
            },
        )
        .unwrap();
        let see = rec.stage("see").unwrap().max_utilization;
        let solver = rec.stage("solver").unwrap().max_utilization;
        let regular = rec.stage("regular").unwrap().max_utilization;
        assert!(solver < see, "solver {solver} vs see {see}");
        // Regularization may cost a little but not catastrophically.
        assert!(regular < see * 1.2, "regular {regular} vs see {see}");
    }

    #[test]
    fn replan_keeps_the_best_candidate_including_extra_starts() {
        let p = problem();
        let opts = AdvisorOptions {
            regularize: true,
            ..AdvisorOptions::default()
        };
        let est = UtilizationEstimator::new(&p);
        let incumbent = baselines::isolate_tables(&p, 0);
        let base = replan(&p, &opts, &incumbent).unwrap();
        let base_score = est.max_utilization(base.final_layout());
        assert!(base.final_layout().is_regular());
        assert!(base_score <= est.max_utilization(&incumbent));

        // An expert-injected start is one more candidate: the re-plan
        // with it scores exactly the better of the two.
        let extra = random_start(&p, &mut SimRng::new(7)).unwrap();
        let alone = solve_from(&p, &opts, |_| vec![extra.clone()]).unwrap();
        let alone = regularize_stage(&p, &opts, alone).unwrap();
        let with = replan(
            &p,
            &AdvisorOptions {
                extra_starts: vec![extra],
                ..opts.clone()
            },
            &incumbent,
        )
        .unwrap();
        assert_eq!(
            est.max_utilization(with.final_layout()).to_bits(),
            base_score
                .min(est.max_utilization(alone.final_layout()))
                .to_bits()
        );
    }

    #[test]
    fn solve_quality_is_full_without_fault_plan() {
        let p = problem();
        let rec = recommend(&p, &AdvisorOptions::default()).unwrap();
        assert_eq!(rec.quality, SolveQuality::Full);
        assert!(!rec.quality.degraded());
        assert!(SolveQuality::Budgeted.degraded());
        assert!(SolveQuality::FallbackGreedy.degraded());
    }

    #[test]
    fn requested_budget_degrades_through_the_anytime_chain() {
        let p = problem();
        for (budget, expect) in [
            (SolverBudget::Tight, SolveQuality::Budgeted),
            (SolverBudget::PgOnly, SolveQuality::Budgeted),
            (SolverBudget::GreedyOnly, SolveQuality::FallbackGreedy),
        ] {
            let rec = recommend(
                &p,
                &AdvisorOptions {
                    solve_budget: Some(budget),
                    ..AdvisorOptions::default()
                },
            )
            .unwrap();
            assert_eq!(rec.quality, expect, "budget {budget:?}");
            assert!(rec
                .final_layout()
                .is_valid(&p.workloads.sizes, &p.capacities));
        }
    }

    #[test]
    fn without_regularization_no_regular_stage() {
        let p = problem();
        let rec = recommend(&p, &AdvisorOptions::default()).unwrap();
        assert!(rec.regular_layout.is_none());
        assert!(rec.stage("regular").is_none());
        assert_eq!(rec.final_layout(), &rec.solver_layout);
    }

    #[test]
    fn invalid_problem_rejected() {
        let mut p = problem();
        p.capacities = vec![1; 4]; // can't hold the objects
        let err = recommend(&p, &AdvisorOptions::default()).unwrap_err();
        assert!(matches!(err, AdvisorError::InvalidProblem(_)));
    }

    #[test]
    fn timings_populated() {
        let p = problem();
        let rec = recommend(
            &p,
            &AdvisorOptions {
                regularize: true,
                ..AdvisorOptions::default()
            },
        )
        .unwrap();
        assert!(rec.timings.solver_s > 0.0);
        assert!(rec.timings.total_s() >= rec.timings.solver_s);
    }
}
