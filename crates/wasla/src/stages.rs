//! Pipeline stages with a [`Stage`] wrapper.
//!
//! Four of the advise pipeline's six stages — trace, solve,
//! regularize, place — have a thin typed wrapper here over the layer
//! that does the work, each lifting its layer's error into
//! [`WaslaError`]. [`AdvisorSession`](crate::session::AdvisorSession)
//! runs the trace stage through [`TraceStage`] and calls the other
//! layers directly; the end-to-end benchmark composes its traced pass
//! from these wrappers. Fit and calibrate, the two stages the session
//! memoizes, have no wrapper: the session owns their cache keys.

use crate::error::WaslaError;
use crate::pipeline::{self, RunSettings, Scenario, LVM_STRIPE};
use wasla_core::{
    AdvisorError, AdvisorOptions, Layout, LayoutProblem, Recommendation, SolveOutcome, Stage,
};
use wasla_exec::{Placement, RunOutcome};
use wasla_workload::SqlWorkload;

/// Input to [`TraceStage`]: the scenario and workload mix to trace.
pub struct TraceInput<'a> {
    /// The catalog/targets/scale under test.
    pub scenario: &'a Scenario,
    /// The SQL workloads to run.
    pub workloads: &'a [SqlWorkload],
}

/// Stage 1 — run the workload under the SEE baseline layout with
/// op-log capture on, producing the baseline [`RunOutcome`]: the run
/// report (whose `trace` carries the op-log) plus any device-fault
/// events the run observed.
pub struct TraceStage<'a> {
    /// Settings for the trace-collection run; `capture_oplog` is
    /// forced on.
    pub settings: &'a RunSettings,
}

impl<'a> Stage for TraceStage<'a> {
    type Input = TraceInput<'a>;
    type Output = RunOutcome;
    type Error = WaslaError;

    fn run(&self, input: &TraceInput<'a>) -> Result<RunOutcome, WaslaError> {
        let n = input.scenario.catalog.len();
        let m = input.scenario.targets.len();
        // Reject degenerate scenarios before handing them to the
        // execution engine, which assumes a populated inventory.
        if n == 0 {
            return Err(AdvisorError::InvalidProblem(
                "catalog is empty: nothing to trace or lay out".to_string(),
            )
            .into());
        }
        if m == 0 {
            return Err(AdvisorError::InvalidProblem(
                "scenario has no storage targets".to_string(),
            )
            .into());
        }
        let see = Layout::see(n, m);
        let mut settings = self.settings.clone();
        settings.capture_oplog = true;
        let outcome =
            pipeline::run_layout_observed(input.scenario, input.workloads, see.rows(), &settings)?;
        if outcome.report.trace.is_none() {
            return Err(WaslaError::Internal(
                "trace capture was requested but the run produced no trace".to_string(),
            ));
        }
        Ok(outcome)
    }
}

/// Stage 4 — the multi-start NLP solve over the assembled problem.
pub struct SolveStage<'a> {
    /// Advisor options (solver settings, starts, seed).
    pub options: &'a AdvisorOptions,
}

impl<'a> Stage for SolveStage<'a> {
    type Input = LayoutProblem;
    type Output = SolveOutcome;
    type Error = WaslaError;

    fn run(&self, input: &LayoutProblem) -> Result<SolveOutcome, WaslaError> {
        wasla_core::solve_stage(input, self.options).map_err(WaslaError::from)
    }
}

/// Input to [`RegularizeStage`]: the problem and the solve stage's
/// outcome.
pub struct RegularizeInput<'a> {
    /// The layout problem the solve ran over.
    pub problem: &'a LayoutProblem,
    /// The solve stage's outcome.
    pub solved: SolveOutcome,
}

/// Stage 5 — regularize the solver layout (when requested), apply the
/// SEE sanity fallback, and assemble the final [`Recommendation`].
pub struct RegularizeStage<'a> {
    /// Advisor options (regularization flag).
    pub options: &'a AdvisorOptions,
}

impl<'a> Stage for RegularizeStage<'a> {
    type Input = RegularizeInput<'a>;
    type Output = Recommendation;
    type Error = WaslaError;

    fn run(&self, input: &RegularizeInput<'a>) -> Result<Recommendation, WaslaError> {
        wasla_core::regularize_stage(input.problem, self.options, input.solved.clone())
            .map_err(WaslaError::from)
    }
}

/// Input to [`PlaceStage`]: a layout's rows and the physical shape to
/// realize them on.
pub struct PlaceInput<'a> {
    /// Layout matrix rows (N × M fractions).
    pub rows: &'a [Vec<f64>],
    /// Object sizes in bytes.
    pub sizes: &'a [u64],
    /// Raw target capacities in bytes.
    pub capacities: &'a [u64],
}

/// Stage 6 — realize a layout as concrete per-target extents.
///
/// The lifetime ties the stage to its borrowed [`PlaceInput`], like
/// every other stage in this module.
pub struct PlaceStage<'a> {
    /// LVM stripe size for striped rows.
    pub stripe: u64,
    _input: std::marker::PhantomData<&'a ()>,
}

impl<'a> PlaceStage<'a> {
    /// A place stage with the given stripe size.
    pub fn new(stripe: u64) -> Self {
        PlaceStage {
            stripe,
            _input: std::marker::PhantomData,
        }
    }
}

impl<'a> Default for PlaceStage<'a> {
    fn default() -> Self {
        PlaceStage::new(LVM_STRIPE)
    }
}

impl<'a> Stage for PlaceStage<'a> {
    type Input = PlaceInput<'a>;
    type Output = Placement;
    type Error = WaslaError;

    fn run(&self, input: &PlaceInput<'a>) -> Result<Placement, WaslaError> {
        Placement::build(input.rows, input.sizes, input.capacities, self.stripe)
            .map_err(WaslaError::from)
    }
}
