//! Sessioned advising: memoized calibration and the batch service loop.
//!
//! [`AdvisorSession`] runs the advise pipeline — trace, fit,
//! calibrate, solve, regularize — while memoizing the output of one
//! pure stage, calibration, in a [`StageCache`]. A table is keyed by
//! FNV-1a over `(DeviceSpec JSON, CalibrationGrid JSON, seed)`: it is
//! a pure function of the device, the grid and the measurement seed.
//! Calibration is the dominant cost of a cold advise. The advise path
//! asks only for the (size, run) columns its fitted workloads can
//! reach and extends a cached table when a later problem reaches
//! further; [`AdvisorSession::models_for`], the batch prewarm and the
//! daemon ask for whole tables.
//!
//! The other stages are not cached. The trace stage runs a simulation
//! whose cost *is* the measurement. The fit is one streamed pass over
//! the op-log ([`fit_oplog_streamed`]), cheaper than any key that could
//! name the log it reads. The solve chain is re-run per request (its
//! inputs embed freshly fitted workloads and per-request seeds).
//!
//! A warm session advising over a scenario whose device types it has
//! already calibrated skips recalibration entirely and produces a
//! recommendation byte-identical to the cold path (a cached table is
//! bit-identical to a freshly measured one; only wall-clock timings
//! differ).
//!
//! [`Service`] fans a batch of advise requests across the
//! deterministic [`par`] pool: distinct calibrations are prewarmed
//! serially first (each calibration is internally parallel, so this
//! avoids nested fan-out), then requests run concurrently, each against
//! a worker-local clone of the session that shares its cached tables,
//! and what each worker added merges back in request order — so batch
//! results are bit-identical at any `WASLA_THREADS` setting.

use crate::error::WaslaError;
use crate::persist;
use crate::pipeline::{
    assemble_problem, calibration_demands, AdviseConfig, AdviseOutcome, DegradedNote, Scenario,
};
use crate::stages::{TraceInput, TraceStage};
use std::path::PathBuf;
use std::sync::Arc;
use wasla_core::{
    regularize_stage, solve_stage, CacheMark, CacheStats, LayoutProblem, ObjectiveKind,
    Recommendation, SolveQuality, Stage, StageCache,
};
use wasla_exec::DeviceEvent;
use wasla_model::{
    calibrate_columns, calibration_fault, CalibrationGrid, ColumnDemand, TableModel,
    TargetCostModel,
};
use wasla_simlib::fault::{self, SolverBudget};
use wasla_simlib::hash::{hash_json, Fnv64};
use wasla_simlib::par;
use wasla_storage::{DeviceSpec, TargetConfig};
use wasla_trace::oplog::{fit_oplog_streamed, OpLog, OpLogSalvage};
use wasla_trace::{FitConfig, FitError};
use wasla_workload::{DeadlineClass, SqlWorkload, WorkloadSet};

/// Hit/miss counters for a session's stage cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Calibration-table cache counters.
    pub calibration: CacheStats,
    /// Always `CacheStats::default()`: fits are not cached. Kept only
    /// until the end-to-end benchmark stops reading it (ROADMAP item 9).
    pub fit: CacheStats,
}

/// The fault plan's trace-corruption roll for `log`: under an active
/// trace fault, how many leading records survive the torn tail
/// (`⌊len · keep_fraction⌋`); `None` when the plan leaves the log
/// clean. One-shot ingestion and the control loop both salvage at
/// this point.
pub(crate) fn fault_keep(log: &OpLog) -> Option<usize> {
    let tf = fault::plan()?.trace_fault(log.trace_content_hash())?;
    Some(((log.len() as f64) * tf.keep_fraction) as usize)
}

/// The calibration cache key of `(spec, grid, seed)`.
fn calibration_key(spec: &DeviceSpec, grid: &CalibrationGrid, seed: u64) -> u64 {
    Fnv64::new()
        .write_u64(hash_json(spec))
        .write_u64(hash_json(grid))
        .write_u64(seed)
        .finish()
}

/// The inputs behind a calibration cache key: what measures the rest
/// of a partial table.
#[derive(Clone, Debug)]
struct CalibrationSource {
    spec: DeviceSpec,
    grid: CalibrationGrid,
    seed: u64,
}

/// A stateful advisor: the staged pipeline plus memoized calibration
/// tables.
#[derive(Clone, Debug, Default)]
pub struct AdvisorSession {
    calibrations: StageCache<TableModel>,
    /// The source of every calibration entry that was cached as a
    /// partial table, by cache key (persistence completes them).
    sources: Vec<(u64, CalibrationSource)>,
}

impl AdvisorSession {
    /// A fresh session with an empty cache.
    pub fn new() -> Self {
        AdvisorSession::default()
    }

    /// Cache hit/miss counters so far.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            calibration: self.calibrations.stats(),
            fit: CacheStats::default(),
        }
    }

    /// Number of calibration tables held.
    pub fn calibrations_cached(&self) -> usize {
        self.calibrations.len()
    }

    /// Always 0: fits are not cached. Kept only until the end-to-end
    /// benchmark stops reading it (ROADMAP item 9).
    pub fn fits_cached(&self) -> usize {
        0
    }

    /// The calibration cache entries with every partial table
    /// completed, for a snapshot: the copy holds whole tables, as if
    /// every lookup had asked for all columns, while the session keeps
    /// its partial ones.
    pub(crate) fn complete_calibrations(&self) -> Vec<(u64, Arc<TableModel>)> {
        self.calibrations
            .entries()
            .iter()
            .map(|(key, table)| {
                let source = self.sources.iter().find(|(k, _)| k == key);
                let table = match source {
                    Some((_, s)) if !table.is_complete() => Arc::new(calibrate_columns(
                        &s.spec,
                        &s.grid,
                        s.seed,
                        &ColumnDemand::all(&s.grid),
                        Some(table),
                    )),
                    _ => Arc::clone(table),
                };
                (*key, table)
            })
            .collect()
    }

    /// Rebuilds a session around a restored calibration cache
    /// (counters start at zero: restored entries are warm data that has
    /// served nothing).
    pub(crate) fn from_calibrations(calibrations: StageCache<TableModel>) -> Self {
        AdvisorSession {
            calibrations,
            sources: Vec::new(),
        }
    }

    /// The calibration table for one target's member device, covering
    /// `demand`. A cached table that covers it is a hit; otherwise the
    /// missing columns are measured and the extended table replaces
    /// the cached one (a miss).
    fn member_table(
        &mut self,
        config: &TargetConfig,
        grid: &CalibrationGrid,
        seed: u64,
        demand: &ColumnDemand,
    ) -> Result<TableModel, WaslaError> {
        let spec = TargetCostModel::calibratable_spec(config, grid)?;
        let key = calibration_key(spec, grid, seed);
        let table = self
            .calibrations
            .get_or_update_with(
                key,
                |table| table.covers(demand),
                |cached| calibrate_columns(spec, grid, seed, demand, cached),
            )
            .clone();
        if !table.is_complete() && !self.sources.iter().any(|(k, _)| *k == key) {
            let source = CalibrationSource {
                spec: spec.clone(),
                grid: grid.clone(),
                seed,
            };
            self.sources.push((key, source));
        }
        Ok(table)
    }

    /// Target cost models for a scenario's targets, assembling each
    /// around a (possibly cached) member calibration table covering
    /// every column, so the models price any workload.
    pub fn models_for(
        &mut self,
        targets: &[TargetConfig],
        grid: &CalibrationGrid,
        seed: u64,
    ) -> Result<Vec<TargetCostModel>, WaslaError> {
        let all = ColumnDemand::all(grid);
        targets
            .iter()
            .map(|config| {
                let member = self.member_table(config, grid, seed, &all)?;
                TargetCostModel::with_member(config, member).map_err(WaslaError::from)
            })
            .collect()
    }

    /// Target cost models whose member tables cover only what pricing
    /// `fitted` can read under any layout ([`calibration_demands`]).
    /// Targets sharing a member spec share one demand, so the first of
    /// them measures and the rest hit.
    fn models_for_workloads(
        &mut self,
        targets: &[TargetConfig],
        grid: &CalibrationGrid,
        seed: u64,
        fitted: &WorkloadSet,
    ) -> Result<Vec<TargetCostModel>, WaslaError> {
        let demands = calibration_demands(targets, fitted, grid)?;
        targets
            .iter()
            .zip(&demands)
            .map(|(config, demand)| {
                let member = self.member_table(config, grid, seed, demand)?;
                TargetCostModel::with_member(config, member).map_err(WaslaError::from)
            })
            .collect()
    }

    /// [`models_for`](Self::models_for) a scenario's targets, noting
    /// each target whose calibration the active fault plan degraded.
    pub(crate) fn models_noting_faults(
        &mut self,
        scenario: &Scenario,
        grid: &CalibrationGrid,
        degraded: &mut Vec<DegradedNote>,
    ) -> Result<Vec<TargetCostModel>, WaslaError> {
        let models = self.models_for(&scenario.targets, grid, scenario.seed)?;
        note_calibration_faults(scenario, degraded)?;
        Ok(models)
    }

    /// Fitted workload descriptions for an op-log
    /// ([`fit_oplog_streamed`]). `_objective` is unused and kept only
    /// until the end-to-end benchmark stops passing it (ROADMAP item 9).
    pub fn fit(
        &mut self,
        trace: &OpLog,
        names: &[String],
        sizes: &[u64],
        config: &FitConfig,
        _objective: ObjectiveKind,
    ) -> Result<WorkloadSet, WaslaError> {
        Ok(fit_oplog_streamed(trace, names, sizes, config)?)
    }

    /// Fitted workload descriptions from a captured op-log: a
    /// [`fit`](AdvisorSession::fit) on a clean log. Under an active
    /// trace fault the log's torn tail is dropped and the valid prefix
    /// fitted (see [`fault_keep`] and [`fit_torn`]); the returned
    /// salvage is `Some` when records were dropped. `_objective` is
    /// unused and kept only until the end-to-end benchmark stops
    /// passing it (ROADMAP item 9).
    pub fn ingest_oplog(
        &mut self,
        log: &OpLog,
        names: &[String],
        sizes: &[u64],
        config: &FitConfig,
        _objective: ObjectiveKind,
    ) -> Result<(WorkloadSet, Option<OpLogSalvage>), WaslaError> {
        match fault_keep(log) {
            Some(keep) => fit_torn(log, keep, names, sizes, config),
            None => Ok((fit_oplog_streamed(log, names, sizes, config)?, None)),
        }
    }

    /// The advise pipeline fed from a captured op-log: ingest →
    /// calibrate → assemble → solve → regularize. No simulation runs;
    /// the log stands in for the operational system's observed I/O.
    pub fn advise_from_oplog(
        &mut self,
        log: &OpLog,
        scenario: &Scenario,
        config: &AdviseConfig,
    ) -> Result<OpLogAdvice, WaslaError> {
        let mut degraded: Vec<DegradedNote> = Vec::new();
        let names = scenario.catalog.names();
        let sizes = scenario.catalog.sizes();
        let (fitted, salvage) = self.ingest_oplog(
            log,
            &names,
            &sizes,
            &config.fit,
            config.advisor.solver.objective,
        )?;
        if let Some(s) = salvage {
            degraded.push(DegradedNote::TraceSalvaged {
                kept: s.kept,
                dropped: s.dropped,
            });
        }
        let models =
            self.models_for_workloads(&scenario.targets, &config.grid, scenario.seed, &fitted)?;
        note_calibration_faults(scenario, &mut degraded)?;
        let problem =
            assemble_problem(scenario, fitted.clone(), models, config.constraints.clone());
        let solved = solve_stage(&problem, &config.advisor)?;
        let recommendation = regularize_stage(&problem, &config.advisor, solved)?;
        if recommendation.quality.degraded() {
            degraded.push(DegradedNote::SolverDegraded {
                quality: recommendation.quality,
            });
        }
        Ok(OpLogAdvice {
            fitted,
            problem,
            recommendation,
            degraded,
        })
    }

    /// The full staged pipeline: the trace stage captures an op-log
    /// under SEE, then [`advise_from_oplog`](Self::advise_from_oplog)
    /// runs ingest → calibrate → assemble → solve → regularize on it,
    /// with calibration served from this session's cache.
    pub fn advise(
        &mut self,
        scenario: &Scenario,
        workloads: &[SqlWorkload],
        config: &AdviseConfig,
    ) -> Result<AdviseOutcome, WaslaError> {
        let trace_outcome = TraceStage {
            settings: &config.trace_run,
        }
        .run(&TraceInput {
            scenario,
            workloads,
        })?;
        let mut degraded: Vec<DegradedNote> = Vec::new();
        for event in &trace_outcome.device_events {
            let target = scenario.targets[event.target()].name.clone();
            degraded.push(match event {
                DeviceEvent::Degraded { factor, .. } => DegradedNote::DeviceDegraded {
                    target,
                    factor: *factor,
                },
                DeviceEvent::Failed { .. } => DegradedNote::DeviceFailed { target },
            });
        }
        let baseline_run = trace_outcome.report;
        let log = baseline_run.trace.as_ref().ok_or_else(|| {
            WaslaError::Internal("trace stage returned a report without a trace".to_string())
        })?;
        let advice = self.advise_from_oplog(log, scenario, config)?;
        degraded.extend(advice.degraded);
        Ok(AdviseOutcome {
            baseline_run,
            fitted: advice.fitted,
            problem: advice.problem,
            recommendation: advice.recommendation,
            degraded,
        })
    }

    /// Where this session's cache stands now (see [`CacheMark`]).
    fn mark(&self) -> CacheMark {
        self.calibrations.mark()
    }

    /// Folds a worker-local session, cloned from this one at `mark`,
    /// back into this session: the entries it added land
    /// first-write-wins in merge order, and its counter deltas are
    /// accumulated (see [`StageCache::absorb`]).
    fn absorb(&mut self, local: AdvisorSession, mark: CacheMark) {
        self.calibrations.absorb(local.calibrations, mark);
        for (key, source) in local.sources {
            if !self.sources.iter().any(|(k, _)| *k == key) {
                self.sources.push((key, source));
            }
        }
    }
}

/// Notes each target whose calibration the active fault plan
/// degraded. Calibration faults are applied inside the calibration
/// routine; this re-queries the plan (a cached table carries the
/// degradation with it).
fn note_calibration_faults(
    scenario: &Scenario,
    degraded: &mut Vec<DegradedNote>,
) -> Result<(), WaslaError> {
    for target in &scenario.targets {
        let spec = TargetCostModel::member_spec(target)?;
        if let Some(f) = calibration_fault(spec, scenario.seed) {
            degraded.push(DegradedNote::CalibrationDegraded {
                device: target.name.clone(),
                factor: f.latency_factor(),
            });
        }
    }
    Ok(())
}

/// Fits the first `keep` records of `log` — the valid prefix a torn
/// tail leaves. The salvage is `Some` when records were dropped.
///
/// A non-empty log with nothing kept has no signal left to degrade to:
/// its first record is already torn (stream id driven out of range),
/// so the fit fails with [`FitError::StreamOutOfRange`].
fn fit_torn(
    log: &OpLog,
    keep: usize,
    names: &[String],
    sizes: &[u64],
    config: &FitConfig,
) -> Result<(WorkloadSet, Option<OpLogSalvage>), WaslaError> {
    let keep = keep.min(log.len());
    if keep == 0 && !log.is_empty() {
        return Err(FitError::StreamOutOfRange {
            stream: u32::MAX,
            objects: names.len(),
        }
        .into());
    }
    let fitted = fit_oplog_streamed(&log.prefix(keep), names, sizes, config)?;
    let dropped = log.len() - keep;
    let salvage = OpLogSalvage {
        kept: keep,
        dropped,
        first_error: None,
    };
    Ok((fitted, (dropped > 0).then_some(salvage)))
}

/// What [`AdvisorSession::advise_from_oplog`] produced. Unlike
/// [`AdviseOutcome`] there is no baseline run report: the op-log *is*
/// the baseline observation.
pub struct OpLogAdvice {
    /// The fitted per-object workload descriptions.
    pub fitted: WorkloadSet,
    /// The assembled layout problem (with calibrated models).
    pub problem: LayoutProblem,
    /// The advisor's recommendation.
    pub recommendation: Recommendation,
    /// Degradations the pipeline worked around (empty on a clean run).
    pub degraded: Vec<DegradedNote>,
}

/// One request in a [`Service::advise_batch`] call.
#[derive(Clone)]
pub struct AdviseRequest {
    /// The scenario to advise.
    pub scenario: Scenario,
    /// The SQL workloads to trace and fit.
    pub workloads: Vec<SqlWorkload>,
    /// Pipeline configuration.
    pub config: AdviseConfig,
    /// Seed for the advisor's randomized starts. `None` derives a
    /// per-request seed from the service's base seed and the request
    /// index ([`par::task_seed`]), keeping batch results independent
    /// of thread count and batch composition order.
    pub seed: Option<u64>,
    /// The tenant's deadline class. `None` behaves like
    /// [`DeadlineClass::Standard`] for admission priority but imposes
    /// no solve-budget deadline at all (the historical behavior).
    pub deadline: Option<DeadlineClass>,
}

impl AdviseRequest {
    /// A request with the default (index-derived) seed and no
    /// deadline.
    pub fn new(scenario: Scenario, workloads: Vec<SqlWorkload>, config: AdviseConfig) -> Self {
        AdviseRequest {
            scenario,
            workloads,
            config,
            seed: None,
            deadline: None,
        }
    }

    /// The same request under a deadline class.
    pub fn with_deadline(mut self, deadline: DeadlineClass) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Admission, deadline, and retry policy for one
/// [`Service::advise_batch_with`] call.
///
/// The default policy reproduces the historical `advise_batch`
/// behavior byte-for-byte: unbounded admission, no brownout, and the
/// original retry budget of two attempts (one retry), deterministic by
/// request index.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchPolicy {
    /// Hard admission bound: requests whose admission position is at
    /// or past this capacity are rejected with
    /// [`WaslaError::Overloaded`] before any pipeline work runs.
    /// `None` admits everything.
    pub queue_capacity: Option<usize>,
    /// Soft admission bound (brownout): admitted requests at or past
    /// this position run at the cheapest solve rung (rate-greedy) and
    /// carry a [`DegradedNote::Shed`] instead of being rejected.
    /// `None` browns nothing out.
    pub brownout_threshold: Option<usize>,
    /// Total attempts per request under an active fault plan (the
    /// first try plus retries). The default of 2 is the historical
    /// single-retry budget. Values are clamped to at least 1.
    pub max_attempts: u32,
    /// Base virtual backoff (in abstract slots) before the first
    /// retry; doubles per attempt. Backoff is *virtual*: simulators
    /// model time rather than waiting on it, so the schedule is
    /// recorded in the decision log instead of slept.
    pub backoff_base: u64,
    /// Cap on the exponential backoff slot count.
    pub backoff_cap: u64,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            queue_capacity: None,
            brownout_threshold: None,
            max_attempts: 2,
            backoff_base: 1,
            backoff_cap: 8,
        }
    }
}

impl BatchPolicy {
    /// The deterministic virtual backoff taken after failed `attempt`
    /// (0-based): exponential in the attempt index, capped, plus
    /// bounded jitter derived from the request key via
    /// [`par::task_seed`] — so retry schedules are reproducible at any
    /// `WASLA_THREADS` and under any batch composition.
    pub fn backoff_slots(&self, request_key: u64, attempt: u32) -> u64 {
        let slot = self
            .backoff_base
            .saturating_mul(1u64 << attempt.min(16))
            .clamp(1, self.backoff_cap.max(1));
        slot + par::task_seed(request_key, attempt as u64 + 1) % slot
    }
}

/// The solve budget a deadline class grants on a given attempt. Each
/// consumed retry spends deadline in backoff, so the solve budget
/// tightens one rung per attempt — the request degrades through the
/// anytime chain (full → budgeted → PG-only → rate-greedy) instead of
/// failing. `Batch` has no deadline: full quality at any attempt.
fn deadline_budget(class: DeadlineClass, attempt: u32) -> Option<SolverBudget> {
    let base_rung = match class {
        DeadlineClass::Batch => return None,
        DeadlineClass::Standard => 0,
        DeadlineClass::Interactive => 1,
    };
    match base_rung + attempt.min(8) {
        0 => None,
        1 => Some(SolverBudget::Tight),
        2 => Some(SolverBudget::PgOnly),
        _ => Some(SolverBudget::GreedyOnly),
    }
}

/// Admission order of a batch: deadline priority first (interactive
/// before standard before batch; requests without a class rank as
/// standard), request index as the tie-break. A pure function of the
/// request list, so positions are identical at any thread count.
fn admission_order(requests: &[AdviseRequest]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by_key(|&i| {
        (
            requests[i]
                .deadline
                .map_or(DeadlineClass::Standard.priority(), |c| c.priority()),
            i,
        )
    });
    order
}

/// How one batch slot ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotDisposition {
    /// Admitted and advised at full quality with no degradations.
    Ok,
    /// Admitted and advised, but with typed degradation notes.
    Degraded,
    /// Admitted but ended in a typed error.
    Failed,
    /// Rejected by admission control ([`WaslaError::Overloaded`]).
    Rejected,
}

impl SlotDisposition {
    /// Stable lower-case label for the decision log.
    pub fn label(self) -> &'static str {
        match self {
            SlotDisposition::Ok => "ok",
            SlotDisposition::Degraded => "degraded",
            SlotDisposition::Failed => "failed",
            SlotDisposition::Rejected => "rejected",
        }
    }
}

/// The per-request decision record of one batch: admission outcome,
/// retry/backoff schedule, and final disposition. Every field is a
/// deterministic function of (requests, policy, fault plan), so the
/// rendered log is byte-identical at any `WASLA_THREADS`.
#[derive(Clone, Debug, PartialEq)]
pub struct SlotDecision {
    /// Request index in the batch.
    pub index: usize,
    /// The request's deadline class (`None` ranks as standard).
    pub class: Option<DeadlineClass>,
    /// Position in the admission order.
    pub position: usize,
    /// False when admission control rejected the request outright.
    pub admitted: bool,
    /// True when the request was browned out (cheapest-rung solve).
    pub shed: bool,
    /// Attempts used (faulted tries plus the one that ran; equals the
    /// policy budget when every attempt faulted).
    pub attempts: u32,
    /// Virtual backoff slots taken after each faulted attempt.
    pub backoff: Vec<u64>,
    /// Solve quality of the successful outcome, if any.
    pub quality: Option<SolveQuality>,
    /// How the slot ended.
    pub disposition: SlotDisposition,
}

/// Everything [`Service::advise_batch_with`] produced: the per-request
/// outcomes plus the decision log.
pub struct BatchReport {
    /// Per-request results, in request order.
    pub outcomes: Vec<Result<AdviseOutcome, WaslaError>>,
    /// Per-request decisions, in request order.
    pub decisions: Vec<SlotDecision>,
}

impl BatchReport {
    /// Renders the decision log in a stable line-per-slot text form
    /// (the `WASLA_THREADS` 1-vs-8 byte-compare target in CI).
    pub fn render_decisions(&self) -> String {
        render_decisions(&self.decisions)
    }
}

/// Renders slot decisions one line per slot, stable across runs.
pub fn render_decisions(decisions: &[SlotDecision]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for d in decisions {
        let backoff: Vec<String> = d.backoff.iter().map(|b| b.to_string()).collect();
        let quality = match d.quality {
            Some(q) => format!("{q:?}"),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "slot={} class={} pos={} admitted={} shed={} attempts={} backoff=[{}] quality={} disposition={}",
            d.index,
            d.class.map_or("default", |c| c.label()),
            d.position,
            if d.admitted { "yes" } else { "no" },
            if d.shed { "yes" } else { "no" },
            d.attempts,
            backoff.join(","),
            quality,
            d.disposition.label(),
        );
    }
    out
}

/// A long-lived advising service: one shared [`AdvisorSession`] plus a
/// deterministic batch loop, optionally backed by a crash-safe cache
/// directory.
pub struct Service {
    session: AdvisorSession,
    base_seed: u64,
    cache_dir: Option<PathBuf>,
}

impl Service {
    /// A service with an empty cache and the given base seed for
    /// per-request seed derivation.
    pub fn new(base_seed: u64) -> Self {
        Service {
            session: AdvisorSession::new(),
            base_seed,
            cache_dir: None,
        }
    }

    /// Opens a service backed by a persisted cache directory: the
    /// calibration tables saved by a previous
    /// [`persist`](Service::persist) are restored, so a restarted
    /// service starts warm and reproduces warm results byte-for-byte.
    /// A missing file means a cold start; a corrupt or version-skewed
    /// one is quarantined (renamed to
    /// `<file>.quarantined`, reported as a
    /// [`DegradedNote::CacheQuarantined`]) and the cache rebuilds
    /// transparently — never a panic, never a poisoned session.
    pub fn open(
        base_seed: u64,
        cache_dir: impl Into<PathBuf>,
    ) -> Result<(Service, Vec<DegradedNote>), WaslaError> {
        let cache_dir = cache_dir.into();
        let (session, notes) = persist::load_session(&cache_dir)?;
        Ok((
            Service {
                session,
                base_seed,
                cache_dir: Some(cache_dir),
            },
            notes,
        ))
    }

    /// Writes the session cache to the cache directory (versioned,
    /// checksummed, atomic rename-on-write). A no-op for services
    /// without a cache directory.
    pub fn persist(&self) -> Result<(), WaslaError> {
        match &self.cache_dir {
            Some(dir) => persist::save_session(dir, &self.session),
            None => Ok(()),
        }
    }

    /// The shared session (cache statistics, warm state).
    pub fn session(&self) -> &AdvisorSession {
        &self.session
    }

    /// Mutable access to the shared session, for direct stage work —
    /// op-log ingestion and replay advising run against the same
    /// cache [`advise_batch`](Service::advise_batch) warms and
    /// [`persist`](Service::persist) saves.
    pub fn session_mut(&mut self) -> &mut AdvisorSession {
        &mut self.session
    }

    /// The cache directory this service persists to, if any. The
    /// daemon loop stores its controller checkpoint alongside the
    /// calibration snapshot.
    pub(crate) fn cache_dir(&self) -> Option<&std::path::Path> {
        self.cache_dir.as_deref()
    }

    /// Advises every request under the default [`BatchPolicy`],
    /// fanning across the [`par`] pool.
    ///
    /// Distinct member calibrations are prewarmed serially first (each
    /// is internally parallel); the fan-out then runs against
    /// worker-local clones of the warm cache (sharing its tables),
    /// and what each worker added merges back into the shared session
    /// in request order.
    /// Results are bit-identical at any `WASLA_THREADS` setting, and a
    /// warm service returns byte-identical recommendations to a cold
    /// one (only wall-clock timings differ).
    pub fn advise_batch(
        &mut self,
        requests: &[AdviseRequest],
    ) -> Vec<Result<AdviseOutcome, WaslaError>> {
        self.advise_batch_with(requests, &BatchPolicy::default())
            .outcomes
    }

    /// [`advise_batch`](Service::advise_batch) under an explicit
    /// admission/deadline/retry policy, returning the decision log
    /// alongside the outcomes.
    ///
    /// Every request resolves to exactly one of: an [`AdviseOutcome`]
    /// (possibly with typed [`DegradedNote`]s), or a typed
    /// [`WaslaError`] ([`WaslaError::Overloaded`] for rejected
    /// requests, [`WaslaError::Fault`] for persistent injected
    /// faults) — never a panic. Admission positions, shed/brownout
    /// assignments, retry counts, and backoff schedules are pure
    /// functions of `(requests, policy, fault plan)`, so the whole
    /// report is byte-identical at any `WASLA_THREADS`.
    pub fn advise_batch_with(
        &mut self,
        requests: &[AdviseRequest],
        policy: &BatchPolicy,
    ) -> BatchReport {
        let n = requests.len();
        let order = admission_order(requests);
        let mut position = vec![0usize; n];
        for (pos, &i) in order.iter().enumerate() {
            position[i] = pos;
        }
        let admitted: Vec<bool> = (0..n)
            .map(|i| policy.queue_capacity.is_none_or(|c| position[i] < c))
            .collect();
        let shed: Vec<bool> = (0..n)
            .map(|i| admitted[i] && policy.brownout_threshold.is_some_and(|t| position[i] >= t))
            .collect();

        // Prewarm: every distinct (device, grid, seed) calibration the
        // admitted requests will need, whole, serially at this level
        // (each calibration is internally parallel). Whole tables cover
        // any demand, so the workers only hit and never replace an
        // entry. Rejected requests never touch the pipeline, so they
        // warm nothing. Modeling errors are left for the per-request
        // run to report.
        for (i, request) in requests.iter().enumerate() {
            if !admitted[i] {
                continue;
            }
            let all = ColumnDemand::all(&request.config.grid);
            for target in &request.scenario.targets {
                let _ = self.session.member_table(
                    target,
                    &request.config.grid,
                    request.scenario.seed,
                    &all,
                );
            }
        }

        let base_seed = self.base_seed;
        let attempts_budget = policy.max_attempts.max(1);
        let plan = fault::plan();
        let session = &self.session;
        let mark = session.mark();
        let indices: Vec<usize> = (0..n).collect();
        type SlotRun = (
            Result<AdviseOutcome, WaslaError>,
            SlotDecision,
            Option<AdvisorSession>,
        );
        let runs: Vec<SlotRun> = par::par_map(&indices, |&i| {
            let request = &requests[i];
            let mut decision = SlotDecision {
                index: i,
                class: request.deadline,
                position: position[i],
                admitted: admitted[i],
                shed: shed[i],
                attempts: 0,
                backoff: Vec::new(),
                quality: None,
                disposition: SlotDisposition::Rejected,
            };
            if !admitted[i] {
                // Typed load shedding: rejected before any work ran.
                let err = WaslaError::Overloaded {
                    position: position[i],
                    capacity: policy.queue_capacity.unwrap_or(0),
                };
                return (Err(err), decision, None);
            }
            // Clones share every cached value (see `StageCache`).
            let mut local = session.clone();
            let seed = request
                .seed
                .unwrap_or_else(|| par::task_seed(base_seed, i as u64));
            // Bounded deterministic retry with virtual backoff: an
            // injected request fault consumes an attempt and records
            // its backoff slots; attempts roll independently per
            // (request index, attempt), so a transient fault succeeds
            // on retry and a persistent one surfaces as a typed
            // per-request error — the rest of the batch is unaffected.
            // Under a deadline class, each consumed attempt tightens
            // the solve budget one rung (backoff spends deadline).
            let request_key = fault::request_key(base_seed, i as u64);
            let mut outcome = None;
            for attempt in 0..attempts_budget {
                if plan.is_some_and(|p| p.request_fault(request_key, attempt)) {
                    decision
                        .backoff
                        .push(policy.backoff_slots(request_key, attempt));
                    continue;
                }
                decision.attempts = attempt + 1;
                let mut config = request.config.clone();
                config.advisor.seed = seed;
                let budget = if shed[i] {
                    // Brownout: cheapest rung, unconditionally.
                    Some(SolverBudget::GreedyOnly)
                } else {
                    request.deadline.and_then(|c| deadline_budget(c, attempt))
                };
                config.advisor.solve_budget = config.advisor.solve_budget.max(budget);
                outcome = Some(local.advise(&request.scenario, &request.workloads, &config));
                break;
            }
            let outcome = outcome.unwrap_or_else(|| {
                decision.attempts = attempts_budget;
                Err(WaslaError::Fault {
                    attempts: attempts_budget,
                    detail: "injected request fault".to_string(),
                })
            });
            let outcome = outcome.map(|mut o| {
                if shed[i] {
                    o.degraded.push(DegradedNote::Shed {
                        position: position[i],
                        threshold: policy.brownout_threshold.unwrap_or(0),
                    });
                }
                o
            });
            decision.quality = outcome.as_ref().ok().map(|o| o.recommendation.quality);
            decision.disposition = match &outcome {
                Ok(o) if o.is_degraded() => SlotDisposition::Degraded,
                Ok(_) => SlotDisposition::Ok,
                Err(_) => SlotDisposition::Failed,
            };
            (outcome, decision, Some(local))
        });

        let mut outcomes = Vec::with_capacity(runs.len());
        let mut decisions = Vec::with_capacity(runs.len());
        for (outcome, decision, local) in runs {
            if let Some(local) = local {
                self.session.absorb(local, mark);
            }
            outcomes.push(outcome);
            decisions.push(decision);
        }
        BatchReport {
            outcomes,
            decisions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Scenario;
    use wasla_simlib::json::to_string;
    use wasla_simlib::SimTime;
    use wasla_storage::IoKind;
    use wasla_trace::oplog::OpRecord;

    /// A 30-record log alternating between two objects.
    fn two_object_log() -> (OpLog, Vec<String>, Vec<u64>) {
        let mut log = OpLog::new();
        for k in 0..30u64 {
            let t = SimTime::from_secs(k as f64 * 0.1);
            log.push(OpRecord {
                kind: IoKind::Read,
                stream: (k % 2) as u32,
                offset: k * 8192,
                len: 8192,
                issue: t,
                complete: t,
            });
        }
        (log, vec!["A".into(), "B".into()], vec![1 << 30, 1 << 30])
    }

    #[test]
    fn calibrate_cache_key_separates_spec_grid_and_seed() {
        use wasla_storage::{DiskParams, SsdParams};
        let grid_a = CalibrationGrid::coarse();
        let grid_b = CalibrationGrid::default();
        let disk = DeviceSpec::Disk(DiskParams::scsi_15k(1 << 30));
        let ssd = DeviceSpec::Ssd(SsdParams::sata_gen1(1 << 30));
        let base = calibration_key(&disk, &grid_a, 7);
        assert_eq!(
            base,
            calibration_key(&disk, &grid_a, 7),
            "key must be stable"
        );
        assert_ne!(
            base,
            calibration_key(&disk, &grid_b, 7),
            "grid must be in the key"
        );
        assert_ne!(
            base,
            calibration_key(&ssd, &grid_a, 7),
            "spec must be in the key"
        );
        assert_ne!(
            base,
            calibration_key(&disk, &grid_a, 8),
            "seed must be in the key"
        );
    }

    #[test]
    fn fault_prefix_fit_equals_the_clean_prefix_fit() {
        let (log, names, sizes) = two_object_log();
        let config = FitConfig::default();
        let (set, salvage) = fit_torn(&log, 20, &names, &sizes, &config).unwrap();
        assert_eq!(
            salvage,
            Some(OpLogSalvage {
                kept: 20,
                dropped: 10,
                first_error: None
            })
        );
        let clean = fit_oplog_streamed(&log.prefix(20), &names, &sizes, &config).unwrap();
        assert_eq!(to_string(&set), to_string(&clean));
    }

    #[test]
    fn fault_prefix_fit_of_the_whole_log_drops_nothing() {
        let (log, names, sizes) = two_object_log();
        let config = FitConfig::default();
        for keep in [log.len(), log.len() + 5] {
            let (set, salvage) = fit_torn(&log, keep, &names, &sizes, &config).unwrap();
            assert_eq!(salvage, None);
            // Keeping everything is the clean fit.
            let clean = fit_oplog_streamed(&log, &names, &sizes, &config).unwrap();
            assert_eq!(to_string(&set), to_string(&clean));
        }
    }

    #[test]
    fn fault_prefix_fit_with_nothing_kept_is_a_typed_error() {
        let (log, names, sizes) = two_object_log();
        let err = fit_torn(&log, 0, &names, &sizes, &FitConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            WaslaError::Fit(FitError::StreamOutOfRange {
                stream: u32::MAX,
                objects: 2
            })
        ));
        // An empty log has nothing to lose: it fits as all-idle.
        let (idle, salvage) =
            fit_torn(&OpLog::new(), 0, &names, &sizes, &FitConfig::default()).unwrap();
        assert_eq!(salvage, None);
        assert!(idle.specs.iter().all(|s| s.total_rate() == 0.0));
    }

    #[test]
    fn repeated_fits_recompute_and_report_no_fit_cache() {
        let (log, names, sizes) = two_object_log();
        let config = FitConfig::default();
        let mut session = AdvisorSession::new();
        let first = session
            .fit(&log, &names, &sizes, &config, ObjectiveKind::MinMax)
            .unwrap();
        let again = session
            .fit(&log, &names, &sizes, &config, ObjectiveKind::MinMax)
            .unwrap();
        assert_eq!(to_string(&first), to_string(&again));
        // The end-to-end benchmark still reads these two; they stay
        // constant now that nothing caches a fit.
        assert_eq!(session.fits_cached(), 0);
        assert_eq!(session.stats().fit, CacheStats::default());
    }

    #[test]
    fn warm_session_skips_recalibration_and_matches_cold() {
        let scenario = Scenario::homogeneous_disks(4, 0.01);
        let workloads = [SqlWorkload::olap1_21(3)];
        let config = AdviseConfig::fast();

        let mut session = AdvisorSession::new();
        let cold = session.advise(&scenario, &workloads, &config).unwrap();
        let after_cold = session.stats();
        // Four identical disks: one calibration, three hits.
        assert_eq!(after_cold.calibration.misses, 1);
        assert_eq!(after_cold.calibration.hits, 3);
        assert_eq!(session.calibrations_cached(), 1);

        let warm = session.advise(&scenario, &workloads, &config).unwrap();
        let after_warm = session.stats();
        assert_eq!(after_warm.calibration.misses, 1, "no recalibration");

        // Same pipeline, same seeds → byte-identical recommendation
        // (timings excluded: they are wall-clock).
        assert_eq!(
            cold.recommendation.solver_layout,
            warm.recommendation.solver_layout
        );
        assert_eq!(
            cold.recommendation.regular_layout,
            warm.recommendation.regular_layout
        );
        assert_eq!(cold.recommendation.converged, warm.recommendation.converged);
        assert_eq!(
            cold.recommendation.fell_back_to_see,
            warm.recommendation.fell_back_to_see
        );
    }

    #[test]
    fn session_matches_cold_pipeline_advise() {
        let scenario = Scenario::homogeneous_disks(4, 0.01);
        let workloads = [SqlWorkload::olap1_21(3)];
        let config = AdviseConfig::fast();
        let via_pipeline = crate::pipeline::advise(&scenario, &workloads, &config).unwrap();
        let mut session = AdvisorSession::new();
        let via_session = session.advise(&scenario, &workloads, &config).unwrap();
        assert_eq!(
            via_pipeline.recommendation.solver_layout,
            via_session.recommendation.solver_layout
        );
        assert_eq!(
            via_pipeline.recommendation.regular_layout,
            via_session.recommendation.regular_layout
        );
    }
}
