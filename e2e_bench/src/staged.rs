//! The advise pipeline composed stage by stage, one span per layer
//! call. It makes the same calls, in the same order, as
//! `AdvisorSession::advise` on its fault-free path, so its outputs
//! must equal the untraced pass's bit for bit.

use crate::spans::Tracer;
use wasla::core::{LayoutProblem, Recommendation, Stage};
use wasla::exec::DeviceEvent;
use wasla::model::{calibration_fault, TargetCostModel};
use wasla::pipeline::{assemble_problem, AdviseConfig, DegradedNote, Scenario};
use wasla::stages::{RegularizeInput, RegularizeStage, SolveStage, TraceInput, TraceStage};
use wasla::workload::SqlWorkload;
use wasla::{AdvisorSession, WaslaError};

/// What the staged pipeline produced.
pub struct Staged {
    /// The assembled layout problem.
    pub problem: LayoutProblem,
    /// The recommendation.
    pub rec: Recommendation,
    /// Degradation notes, as `advise` would report them.
    pub notes: Vec<DegradedNote>,
    /// Block-trace records the trace-collection run produced.
    pub records: usize,
}

/// Notes for the calibration faults of `scenario`'s targets.
pub fn calibration_notes(
    scenario: &Scenario,
    notes: &mut Vec<DegradedNote>,
) -> Result<(), WaslaError> {
    for target in &scenario.targets {
        let spec = TargetCostModel::member_spec(target)?;
        if let Some(f) = calibration_fault(spec, scenario.seed) {
            notes.push(DegradedNote::CalibrationDegraded {
                device: target.name.clone(),
                factor: f.latency_factor(),
            });
        }
    }
    Ok(())
}

/// Solve then regularize `problem`, each in its own span.
pub fn solve_and_regularize(
    problem: &LayoutProblem,
    config: &AdviseConfig,
    tracer: &mut Tracer,
    notes: &mut Vec<DegradedNote>,
) -> Result<Recommendation, WaslaError> {
    let options = &config.advisor;
    let solved = tracer.time("solve", || SolveStage { options }.run(problem))?;
    let rec = tracer.time("regularize", || {
        RegularizeStage { options }.run(&RegularizeInput { problem, solved })
    })?;
    if rec.quality.degraded() {
        notes.push(DegradedNote::SolverDegraded {
            quality: rec.quality,
        });
    }
    Ok(rec)
}

/// trace → fit → calibrate → assemble → solve → regularize on
/// `session`, with a span around each layer call.
pub fn advise(
    session: &mut AdvisorSession,
    scenario: &Scenario,
    workloads: &[SqlWorkload],
    config: &AdviseConfig,
    tracer: &mut Tracer,
) -> Result<Staged, WaslaError> {
    let run = tracer.time("exec", || {
        TraceStage {
            settings: &config.trace_run,
        }
        .run(&TraceInput {
            scenario,
            workloads,
        })
    })?;
    let mut notes: Vec<DegradedNote> = run
        .device_events
        .iter()
        .map(|event| {
            let target = scenario.targets[event.target()].name.clone();
            match event {
                DeviceEvent::Degraded { factor, .. } => DegradedNote::DeviceDegraded {
                    target,
                    factor: *factor,
                },
                DeviceEvent::Failed { .. } => DegradedNote::DeviceFailed { target },
            }
        })
        .collect();
    let trace = run.report.trace.as_ref().ok_or_else(|| {
        WaslaError::Internal("trace stage returned a report without a trace".to_string())
    })?;
    let names = scenario.catalog.names();
    let sizes = scenario.catalog.sizes();
    let objective = config.advisor.solver.objective;
    let fitted = tracer.time("trace.fit", || {
        session.fit(trace, &names, &sizes, &config.fit, objective)
    })?;
    let models = tracer.time("model", || -> Result<_, WaslaError> {
        let models = session.models_for(&scenario.targets, &config.grid, scenario.seed)?;
        calibration_notes(scenario, &mut notes)?;
        Ok(models)
    })?;
    let problem = tracer.time("assemble", || {
        assemble_problem(scenario, fitted, models, config.constraints.clone())
    });
    let rec = solve_and_regularize(&problem, config, tracer, &mut notes)?;
    Ok(Staged {
        problem,
        rec,
        notes,
        records: trace.len(),
    })
}
