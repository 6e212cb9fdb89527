//! Capture/replay orchestration: the predict-vs-observe loop.
//!
//! The paper validates its advisor by implementing the recommended
//! layout and re-running the workload (§6). This module closes the
//! same loop without re-running the database at all: a captured
//! [`OpLog`] fixes the request schedule, and replaying it against the
//! baseline and advised layouts turns the cost model's utilization
//! predictions into observable completion-time numbers.
//!
//! * [`capture_oplog`] runs a workload mix through the trace stage
//!   (SEE baseline, op-log capture on) and returns the log plus the
//!   run report.
//! * [`replay_validate`] feeds a log through the streamed advise
//!   pipeline ([`AdvisorSession::advise_from_oplog`]), replays it
//!   against the SEE baseline and the advised layout, and pairs the
//!   model's predicted per-target utilizations with the replay's
//!   observed ones.
//! * [`render_validation`] formats the predicted-vs-observed report.

use crate::error::WaslaError;
use crate::pipeline::{AdviseConfig, RunSettings, Scenario, LVM_STRIPE};
use crate::session::{AdvisorSession, OpLogAdvice};
use crate::stages::{TraceInput, TraceStage};
use wasla_core::{EvalEngine, Layout, Stage};
use wasla_exec::{Placement, ReplayReport, RunReport};
use wasla_trace::oplog::OpLog;

/// What [`capture_oplog`] produced: the op-log plus the SEE baseline
/// run it was captured from.
pub struct CaptureOutcome {
    /// The captured op-log (issue/complete timestamps per request).
    pub log: OpLog,
    /// The capture run's report (the SEE baseline observation); its
    /// `trace` is `None`, the log having moved to [`log`](Self::log).
    pub report: RunReport,
}

/// Runs `workloads` through the [`TraceStage`] — the SEE baseline
/// layout with op-log capture on — and splits the captured log off the
/// run report: the capture half of the capture/replay pipeline, and
/// the same "operational system" observation `advise` fits from.
pub fn capture_oplog(
    scenario: &Scenario,
    workloads: &[wasla_workload::SqlWorkload],
    settings: &RunSettings,
) -> Result<CaptureOutcome, WaslaError> {
    let mut report = TraceStage { settings }
        .run(&TraceInput {
            scenario,
            workloads,
        })?
        .report;
    let log = report.trace.take().ok_or_else(|| {
        WaslaError::Internal("op-log capture was requested but the run produced no log".to_string())
    })?;
    Ok(CaptureOutcome { log, report })
}

/// One layout's predicted and observed side of a replay.
pub struct LayoutReplay {
    /// Layout label ("see" or "advised").
    pub label: &'static str,
    /// The cost model's predicted per-target utilizations.
    pub predicted_utilization: Vec<f64>,
    /// The replay's observation.
    pub observed: ReplayReport,
}

impl LayoutReplay {
    /// Predicted max-target utilization (the NLP objective).
    pub fn predicted_max(&self) -> f64 {
        self.predicted_utilization
            .iter()
            .cloned()
            .fold(0.0, f64::max)
    }

    /// Observed max-target utilization over the replay.
    pub fn observed_max(&self) -> f64 {
        self.observed
            .target_utilization
            .iter()
            .cloned()
            .fold(0.0, f64::max)
    }
}

/// The predicted-vs-observed comparison [`replay_validate`] builds.
pub struct ReplayValidation {
    /// What the streamed advise pipeline produced from the log.
    pub advice: OpLogAdvice,
    /// The SEE baseline's predicted and observed numbers.
    pub baseline: LayoutReplay,
    /// The advised layout's predicted and observed numbers.
    pub advised: LayoutReplay,
    /// Advised makespan the model predicts: the observed baseline
    /// makespan scaled by the predicted utilization ratio (utilization
    /// is the model's proxy for completion time, paper Eq. 1).
    pub predicted_advised_makespan: f64,
}

impl ReplayValidation {
    /// Observed replay speedup of the advised layout over baseline.
    pub fn observed_speedup(&self) -> f64 {
        self.baseline.observed.makespan / self.advised.observed.makespan.max(1e-9)
    }

    /// Speedup the model predicts (utilization ratio).
    pub fn predicted_speedup(&self) -> f64 {
        self.baseline.predicted_max() / self.advised.predicted_max().max(1e-9)
    }
}

/// Replays `log` against the layout given by `rows` on a fresh copy of
/// the scenario's storage.
pub fn replay_layout(
    log: &OpLog,
    scenario: &Scenario,
    rows: &[Vec<f64>],
) -> Result<ReplayReport, WaslaError> {
    let placement = Placement::build(
        rows,
        &scenario.catalog.sizes(),
        &scenario.capacities(),
        LVM_STRIPE,
    )?;
    let mut storage = scenario.storage();
    wasla_exec::replay_oplog(log, &placement, &mut storage, scenario.catalog.len())
        .map_err(WaslaError::from)
}

/// The full replay-validation loop: streamed advise from the log, then
/// replay against the SEE baseline and the advised layout, pairing
/// predictions with observations. Deterministic: same log, same
/// scenario, same config → byte-identical report at any
/// `WASLA_THREADS`.
pub fn replay_validate(
    session: &mut AdvisorSession,
    log: &OpLog,
    scenario: &Scenario,
    config: &AdviseConfig,
) -> Result<ReplayValidation, WaslaError> {
    let advice = session.advise_from_oplog(log, scenario, config)?;
    let n = scenario.catalog.len();
    let m = scenario.targets.len();
    let see = Layout::see(n, m);
    let advised = advice.recommendation.final_layout();

    let mut engine = EvalEngine::new(&advice.problem);
    let mut predict = |layout: &Layout| {
        engine.set_layout(layout);
        engine.committed_utilizations().to_vec()
    };
    let baseline = LayoutReplay {
        label: "see",
        predicted_utilization: predict(&see),
        observed: replay_layout(log, scenario, see.rows())?,
    };
    let advised_replay = LayoutReplay {
        label: "advised",
        predicted_utilization: predict(advised),
        observed: replay_layout(log, scenario, advised.rows())?,
    };

    let predicted_advised_makespan = baseline.observed.makespan
        * (advised_replay.predicted_max() / baseline.predicted_max().max(1e-9));
    Ok(ReplayValidation {
        advice,
        baseline,
        advised: advised_replay,
        predicted_advised_makespan,
    })
}

fn render_side(out: &mut String, side: &LayoutReplay, scenario: &Scenario, predicted_note: &str) {
    out.push_str(&format!(
        "{:<8} predicted max util {:.3}   observed max util {:.3}   \
makespan {:.2}s{}   mean response {:.4}s\n",
        side.label,
        side.predicted_max(),
        side.observed_max(),
        side.observed.makespan,
        predicted_note,
        side.observed.mean_response,
    ));
    for (i, target) in scenario.targets.iter().enumerate() {
        out.push_str(&format!(
            "  {:<12} predicted {:.3}   observed {:.3}\n",
            target.name,
            side.predicted_utilization.get(i).copied().unwrap_or(0.0),
            side.observed
                .target_utilization
                .get(i)
                .copied()
                .unwrap_or(0.0),
        ));
    }
}

/// Formats the predicted-vs-observed replay report.
pub fn render_validation(v: &ReplayValidation, scenario: &Scenario) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "replay: {} records over {:.2}s of captured I/O\n",
        v.baseline.observed.issued, v.baseline.observed.log_span
    ));
    render_side(&mut out, &v.baseline, scenario, "");
    let note = format!(" (predicted {:.2}s)", v.predicted_advised_makespan);
    render_side(&mut out, &v.advised, scenario, &note);
    out.push_str(&format!(
        "speedup: observed {:.2}x, predicted {:.2}x\n",
        v.observed_speedup(),
        v.predicted_speedup()
    ));
    for note in &v.advice.degraded {
        out.push_str(&format!("degraded: {note}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasla_workload::SqlWorkload;

    #[test]
    fn capture_replay_validate_round_trip() {
        let scenario = Scenario::homogeneous_disks(4, 0.01);
        let workloads = [SqlWorkload::olap1_21(3)];
        let captured =
            capture_oplog(&scenario, &workloads, &RunSettings::default()).expect("capture runs");
        assert!(!captured.log.is_empty());
        let mut session = AdvisorSession::new();
        let v = replay_validate(
            &mut session,
            &captured.log,
            &scenario,
            &AdviseConfig::fast(),
        )
        .expect("replay validates");
        assert_eq!(v.baseline.observed.issued, captured.log.len() as u64);
        assert_eq!(v.baseline.observed.completed, v.baseline.observed.issued);
        assert_eq!(v.advised.observed.completed, v.advised.observed.issued);
        assert!(v.baseline.predicted_max() > 0.0);
        assert!(v.predicted_advised_makespan > 0.0);
        let report = render_validation(&v, &scenario);
        assert!(report.contains("see"));
        assert!(report.contains("advised"));
        assert!(report.contains("speedup"));
    }

    #[test]
    fn capture_off_by_default_and_on_when_asked() {
        let scenario = Scenario::homogeneous_disks(2, 0.01);
        let workloads = [SqlWorkload::olap1_21(2)];
        let see = Layout::see(scenario.catalog.len(), scenario.targets.len());
        let plain = crate::pipeline::run_layout_observed(
            &scenario,
            &workloads,
            see.rows(),
            &RunSettings::default(),
        )
        .expect("plain run");
        assert!(plain.report.trace.is_none(), "capture must be opt-in");
        let captured =
            capture_oplog(&scenario, &workloads, &RunSettings::default()).expect("capture runs");
        // The log is the run's I/O: one record per physical request,
        // moved out of the report.
        let physical: u64 = plain.report.objects.iter().map(|o| o.physical()).sum();
        assert_eq!(captured.log.len() as u64, physical);
        assert!(captured.report.trace.is_none());
        assert_eq!(
            captured.report.queries_completed,
            plain.report.queries_completed
        );
    }
}
