//! Daemon mode: the online re-layout control loop.
//!
//! [`Service::run_loop`] turns the one-shot advisor into a
//! long-running controller. The loop ticks on pane boundaries of the
//! simulated clock ([`wasla_simlib::time::SimTime`]): an op-log
//! stream is sliced into
//! pane-aligned sliding windows
//! ([`windowed_workloads`](wasla_trace::oplog::windowed_workloads)),
//! and every tick runs
//!
//! ```text
//! window snapshot ──► drift detect ──► (drifted?) plan ──► apply
//!                       │ cheap probes      │ budgeted
//!                       ▼                   ▼
//!                  TickDecision        MigrationPlan
//! ```
//!
//! * **Drift detect** scores the deployed layout against the window's
//!   fitted workloads with [`detect_drift`] — one `EvalEngine` pass,
//!   no solve. A tick re-plans only when the score clears
//!   [`DaemonConfig::drift_threshold`] or the deployed layout no
//!   longer fits (growth, failure).
//! * **Plan** runs [`readvise_incremental`]: a warm-started re-plan
//!   (no cold multistart) that solves and regularizes the rate-greedy
//!   initial layout, the deployed layout and SEE over the live targets
//!   each on its own and keeps the best, followed by the budgeted
//!   migration scheduler. Voluntary moves are
//!   charged against a per-tick byte allowance
//!   ([`DaemonConfig::budget_bytes_per_tick`]) under the
//!   `win ≥ α · bytes` rule; unspent allowance carries forward (capped
//!   at [`DaemonConfig::carry_cap_ticks`] ticks' worth). Evacuations
//!   off failed targets are forced and never charged.
//! * **Apply** commits the plan's layout as the new deployed layout
//!   and rolls the controller state forward.
//!
//! The controller state ([`ControllerState`]) checkpoints through
//! [`persist`](crate::persist) next to the stage caches: a restarted
//! daemon resumes at `next_tick` and reproduces the remaining
//! decisions byte-for-byte (restart-warm ≡ cold). A corrupt checkpoint
//! is quarantined and the controller restarts cold — never a panic.
//!
//! Determinism contract: pane boundaries depend only on record issue
//! times and the pane length, per-pane statistics merge in pane order,
//! and the per-tick advisor seed derives from
//! `par::task_seed(scenario.seed, tick)` — so decision logs are
//! byte-identical at any `WASLA_THREADS` setting and under any
//! fault plan (`simlib::fault::ENV_VAR`) replayed with the same seed.
//! A re-plan draws no random starts, so the tick seed only selects
//! the fault plan's solver budget for that tick.

use crate::error::WaslaError;
use crate::persist;
use crate::pipeline::{assemble_problem, AdviseConfig, DegradedNote, Scenario};
use crate::session::{fault_keep, Service};
use wasla_core::dynamic::{
    detect_drift, problem_without, readvise_incremental, DynamicOptions, MigrationBudget,
};
use wasla_core::Layout;
use wasla_simlib::json::to_string_pretty;
use wasla_simlib::{impl_json_struct, par};
use wasla_trace::oplog::{windowed_workloads, OpLog, WindowPlan};

/// A target failure injected into the control loop's timeline: from
/// `tick` onward the target is treated as dead — zero capacity,
/// forbidden for every object — and deployed mass there is evacuated
/// by forced (budget-exempt) moves.
#[derive(Clone, Debug, PartialEq)]
pub struct TargetFailure {
    /// First tick at which the target is dead.
    pub tick: u64,
    /// Index of the failed target in the scenario's target list.
    pub target: usize,
}

impl_json_struct!(TargetFailure { tick, target });

/// Knobs for one daemon run.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Pane length and sliding-window width; the pane length is the
    /// controller's tick period.
    pub window: WindowPlan,
    /// Relative drift score that triggers a re-plan (e.g. 0.10 =
    /// re-plan when the window's max utilization runs ≥10% above the
    /// baseline the deployed layout was accepted at).
    pub drift_threshold: f64,
    /// Voluntary migration allowance granted per tick, in bytes.
    pub budget_bytes_per_tick: u64,
    /// Required utilization win per byte moved (the charging rate
    /// passed to the migration scheduler).
    pub alpha: f64,
    /// Unspent allowance carries forward at most this many ticks'
    /// worth, bounding the burst a long quiet period can bankroll.
    pub carry_cap_ticks: u64,
    /// Injected target failures, by (tick, target index).
    pub target_failures: Vec<TargetFailure>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            window: WindowPlan::default(),
            drift_threshold: 0.10,
            budget_bytes_per_tick: 64 << 20,
            alpha: 0.0,
            carry_cap_ticks: 8,
            target_failures: Vec::new(),
        }
    }
}

/// The controller's persistent state: everything the loop needs to
/// resume after a restart and reproduce the decisions it would have
/// made without one.
#[derive(Clone, Debug, PartialEq)]
pub struct ControllerState {
    /// The layout currently deployed.
    pub deployed: Layout,
    /// Max utilization the deployed layout was accepted at; drift is
    /// scored relative to this. Meaningless until the first tick runs
    /// (`next_tick > 0`).
    pub baseline_max_utilization: f64,
    /// Unspent voluntary budget carried into the next tick.
    pub carry_bytes: u64,
    /// The next tick to process; ticks below this are already decided.
    pub next_tick: u64,
    /// Cumulative voluntary bytes admitted (budget-charged).
    pub admitted_bytes_total: u64,
    /// Cumulative forced bytes (evacuation/repair; uncharged).
    pub forced_bytes_total: u64,
    /// Targets currently treated as failed, in failure order.
    pub failed_targets: Vec<usize>,
}

impl_json_struct!(ControllerState {
    deployed,
    baseline_max_utilization,
    carry_bytes,
    next_tick,
    admitted_bytes_total,
    forced_bytes_total,
    failed_targets
});

impl ControllerState {
    /// A cold controller: the storage-everything-everywhere baseline
    /// deployed, nothing spent, nothing failed.
    pub fn cold(n_objects: usize, n_targets: usize) -> Self {
        ControllerState {
            deployed: Layout::see(n_objects, n_targets),
            baseline_max_utilization: 0.0,
            carry_bytes: 0,
            next_tick: 0,
            admitted_bytes_total: 0,
            forced_bytes_total: 0,
            failed_targets: Vec::new(),
        }
    }

    /// Whether this state matches a problem shape; a mismatched
    /// checkpoint (different catalog or target list) is discarded and
    /// the controller restarts cold.
    fn fits_shape(&self, n_objects: usize, n_targets: usize) -> bool {
        self.deployed.n_objects() == n_objects && self.deployed.n_targets() == n_targets
    }
}

/// One tick's decision record — the unit the daemon logs, diffs, and
/// proves deterministic.
#[derive(Clone, Debug, PartialEq)]
pub struct TickDecision {
    /// The tick index (the window's last pane).
    pub tick: u64,
    /// Op-log records observed inside the tick's window.
    pub records: u64,
    /// Max utilization of the deployed layout under the window's
    /// workloads.
    pub current_max_utilization: f64,
    /// Relative drift score vs the accepted baseline.
    pub drift_score: f64,
    /// Whether the deployed layout still fits sizes and capacities.
    pub still_fits: bool,
    /// Whether the drift detector triggered a re-plan.
    pub drifted: bool,
    /// Whether a full solve + migration plan ran this tick.
    pub resolved: bool,
    /// Moves admitted this tick.
    pub moves: u64,
    /// Voluntary bytes admitted (budget-charged) this tick.
    pub admitted_bytes: u64,
    /// Forced bytes (evacuation/repair) this tick.
    pub forced_bytes: u64,
    /// Bytes of moves deferred to a later tick.
    pub deferred_bytes: u64,
    /// Unspent budget carried out of this tick.
    pub carry_out: u64,
    /// Max utilization after this tick's admitted moves.
    pub new_max_utilization: f64,
    /// Degradation notes attached to this tick (rendered).
    pub notes: Vec<String>,
}

impl_json_struct!(TickDecision {
    tick,
    records,
    current_max_utilization,
    drift_score,
    still_fits,
    drifted,
    resolved,
    moves,
    admitted_bytes,
    forced_bytes,
    deferred_bytes,
    carry_out,
    new_max_utilization,
    notes
});

/// What one [`Service::run_loop`] call produced.
#[derive(Clone, Debug)]
pub struct DaemonReport {
    /// Per-tick decisions, in tick order (only ticks processed by this
    /// run — a resumed daemon reports from where it left off).
    pub decisions: Vec<TickDecision>,
    /// The controller state after the last processed tick (also
    /// checkpointed to the cache directory, when one is configured).
    pub state: ControllerState,
    /// Degradations observed during the run.
    pub degraded: Vec<DegradedNote>,
}

impl DaemonReport {
    /// The canonical decision log: pretty JSON over the decisions.
    /// Byte-compared across thread counts in tests.
    pub fn render_decisions(&self) -> String {
        to_string_pretty(&self.decisions)
    }

    /// The canonical controller-state rendering, byte-compared between
    /// warm-restarted and cold runs.
    pub fn render_state(&self) -> String {
        to_string_pretty(&self.state)
    }
}

/// The fault plan's trace-corruption roll applied at the log level:
/// the damaged tail is dropped and the valid prefix drives the loop,
/// at the same keep point one-shot ingestion salvages at
/// ([`fault_keep`]).
fn salvage_log(log: &OpLog, degraded: &mut Vec<DegradedNote>) -> OpLog {
    match fault_keep(log) {
        Some(keep) => {
            degraded.push(DegradedNote::TraceSalvaged {
                kept: keep,
                dropped: log.len() - keep,
            });
            log.prefix(keep)
        }
        None => log.clone(),
    }
}

impl Service {
    /// Runs the online re-layout control loop over an op-log stream.
    ///
    /// Processing starts at the checkpointed `next_tick` (tick 0 for a
    /// cold controller) and walks every pane window the stream covers:
    /// drift-detect, then — only when drifted — warm-started re-plan
    /// under the tick's migration budget, then apply. The final state
    /// is checkpointed to the service's cache directory, when one is
    /// configured, so a restarted daemon fed the same stream resumes
    /// seamlessly.
    ///
    /// Degradations (trace salvage, calibration faults, injected
    /// target failures, a quarantined checkpoint) surface as typed
    /// [`DegradedNote`]s on the report, never as panics.
    pub fn run_loop(
        &mut self,
        log: &OpLog,
        scenario: &Scenario,
        config: &AdviseConfig,
        daemon: &DaemonConfig,
    ) -> Result<DaemonReport, WaslaError> {
        let names = scenario.catalog.names();
        let sizes = scenario.catalog.sizes();
        let n = names.len();
        let m = scenario.targets.len();
        let mut degraded: Vec<DegradedNote> = Vec::new();

        let working = salvage_log(log, &mut degraded);
        let snapshots = windowed_workloads(&working, &names, &sizes, &config.fit, &daemon.window)?;

        let models =
            self.session_mut()
                .models_noting_faults(scenario, &config.grid, &mut degraded)?;

        let mut state = match self.cache_dir() {
            Some(dir) => {
                let (loaded, notes) = persist::load_controller(dir)?;
                degraded.extend(notes);
                match loaded {
                    Some(state) if state.fits_shape(n, m) => state,
                    _ => ControllerState::cold(n, m),
                }
            }
            None => ControllerState::cold(n, m),
        };

        let carry_cap = daemon
            .budget_bytes_per_tick
            .saturating_mul(daemon.carry_cap_ticks);
        // Once drift triggers a re-plan the detector is the hysteresis;
        // the scheduler's charging rule decides per-move worth, so the
        // plan itself runs with no extra improvement gate.
        let dynamic = DynamicOptions {
            migrate_threshold: 0.0,
        };
        let mut first_tick = state.next_tick == 0;
        let mut decisions: Vec<TickDecision> = Vec::new();

        let resume_at = state.next_tick;
        for snap in snapshots.iter().filter(|s| s.tick >= resume_at) {
            let tick = snap.tick;
            let mut notes: Vec<String> = Vec::new();

            for failure in &daemon.target_failures {
                if failure.tick <= tick
                    && failure.target < m
                    && !state.failed_targets.contains(&failure.target)
                {
                    state.failed_targets.push(failure.target);
                    let note = DegradedNote::DeviceFailed {
                        target: scenario.targets[failure.target].name.clone(),
                    };
                    notes.push(note.to_string());
                    degraded.push(note);
                }
            }

            let base = assemble_problem(
                scenario,
                snap.workloads.clone(),
                models.clone(),
                config.constraints.clone(),
            );
            let problem = if state.failed_targets.is_empty() {
                base
            } else {
                problem_without(&base, &state.failed_targets)
            };

            let mut drift = detect_drift(
                &problem,
                &state.deployed,
                state.baseline_max_utilization,
                daemon.drift_threshold,
            );
            if first_tick {
                // The first window defines the baseline: nothing to
                // drift from yet, but a layout that does not fit
                // (e.g. a target already failed) still re-plans.
                state.baseline_max_utilization = drift.current_max_utilization;
                drift.baseline_max_utilization = drift.current_max_utilization;
                drift.score = 0.0;
                drift.drifted = !drift.still_fits;
                first_tick = false;
            }

            let decision = if drift.drifted {
                let budget = MigrationBudget {
                    bytes: daemon.budget_bytes_per_tick,
                    carry_in: state.carry_bytes,
                    alpha: daemon.alpha,
                };
                let mut advisor = config.advisor.clone();
                advisor.seed = par::task_seed(scenario.seed, tick);
                let plan =
                    readvise_incremental(&problem, &state.deployed, &advisor, &dynamic, &budget)?;
                state.carry_bytes = plan.budget_left.min(carry_cap);
                state.admitted_bytes_total = state
                    .admitted_bytes_total
                    .saturating_add(plan.admitted_bytes);
                state.forced_bytes_total =
                    state.forced_bytes_total.saturating_add(plan.forced_bytes);
                state.deployed = plan.layout.clone();
                if plan.deferred_moves == 0 {
                    // Fully caught up: the achieved utilization is the
                    // new baseline. With moves still deferred the old
                    // baseline stands, so drift keeps firing and the
                    // carried budget finishes the migration.
                    state.baseline_max_utilization = plan.new_max_utilization;
                }
                TickDecision {
                    tick,
                    records: snap.records,
                    current_max_utilization: drift.current_max_utilization,
                    drift_score: drift.score,
                    still_fits: drift.still_fits,
                    drifted: true,
                    resolved: true,
                    moves: plan.moves.len() as u64,
                    admitted_bytes: plan.admitted_bytes,
                    forced_bytes: plan.forced_bytes,
                    deferred_bytes: plan.deferred_bytes,
                    carry_out: state.carry_bytes,
                    new_max_utilization: plan.new_max_utilization,
                    notes,
                }
            } else {
                state.carry_bytes = state
                    .carry_bytes
                    .saturating_add(daemon.budget_bytes_per_tick)
                    .min(carry_cap);
                TickDecision {
                    tick,
                    records: snap.records,
                    current_max_utilization: drift.current_max_utilization,
                    drift_score: drift.score,
                    still_fits: drift.still_fits,
                    drifted: false,
                    resolved: false,
                    moves: 0,
                    admitted_bytes: 0,
                    forced_bytes: 0,
                    deferred_bytes: 0,
                    carry_out: state.carry_bytes,
                    new_max_utilization: drift.current_max_utilization,
                    notes,
                }
            };
            decisions.push(decision);
            state.next_tick = tick + 1;
        }

        if let Some(dir) = self.cache_dir() {
            persist::save_controller(dir, &state)?;
        }
        Ok(DaemonReport {
            decisions,
            state,
            degraded,
        })
    }
}

/// A compact human-readable tick table for the CLI.
pub fn render_ticks(report: &DaemonReport) -> String {
    let mut out = String::new();
    out.push_str(
        "tick  records  util    drift    fits  act      moved(B)    forced(B)  deferred(B)  carry(B)\n",
    );
    for d in &report.decisions {
        let action = if d.resolved { "replan" } else { "hold" };
        out.push_str(&format!(
            "{:>4}  {:>7}  {:<6.4}  {:>+7.4}  {:>4}  {:<7}  {:>9}  {:>11}  {:>11}  {:>8}\n",
            d.tick,
            d.records,
            d.current_max_utilization,
            d.drift_score,
            if d.still_fits { "yes" } else { "NO" },
            action,
            d.admitted_bytes,
            d.forced_bytes,
            d.deferred_bytes,
            d.carry_out,
        ));
        for note in &d.notes {
            out.push_str(&format!("      note: {note}\n"));
        }
    }
    let s = &report.state;
    out.push_str(&format!(
        "total: {} voluntary B admitted, {} forced B, baseline util {:.4}, next tick {}\n",
        s.admitted_bytes_total, s.forced_bytes_total, s.baseline_max_utilization, s.next_tick
    ));
    out
}
