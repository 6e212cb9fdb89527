//! Sessioned advising: memoized stages and the batch service loop.
//!
//! [`AdvisorSession`] runs the staged pipeline (see
//! [`stages`](crate::stages)) while memoizing the outputs of the pure
//! stages in [`StageCache`]s:
//!
//! * calibration tables, keyed by `(DeviceSpec, CalibrationGrid,
//!   seed)` content hash — the dominant cost of a cold advise;
//! * fitted workload sets, keyed by `(op-log content hash, fit config,
//!   object inventory)`.
//!
//! A warm session advising over a scenario whose device types it has
//! already calibrated skips recalibration entirely and produces a
//! recommendation byte-identical to the cold path (cached stage
//! outputs are bit-identical to freshly computed ones; only wall-clock
//! timings differ).
//!
//! [`Service`] fans a batch of advise requests across the
//! deterministic [`par`] pool: distinct calibrations are prewarmed
//! serially first (each calibration is internally parallel, so this
//! avoids nested fan-out), then requests run concurrently against
//! worker-local snapshots of the session caches, and newly computed
//! stage outputs merge back in request order — so batch results are
//! bit-identical at any `WASLA_THREADS` setting.

use crate::error::WaslaError;
use crate::persist;
use crate::pipeline::{assemble_problem, AdviseConfig, AdviseOutcome, DegradedNote, Scenario};
use crate::stages::{
    CalibrateInput, CalibrateStage, FitInput, FitStage, RegularizeInput, RegularizeStage,
    SolveStage, TraceInput, TraceStage,
};
use std::path::PathBuf;
use wasla_core::{
    CacheStats, LayoutProblem, ObjectiveKind, Recommendation, SolveQuality, Stage, StageCache,
};
use wasla_exec::DeviceEvent;
use wasla_model::{calibration_fault, CalibrationGrid, TableModel, TargetCostModel};
use wasla_simlib::fault::{self, SolverBudget};
use wasla_simlib::par;
use wasla_storage::TargetConfig;
use wasla_trace::oplog::{OpLog, OpLogSalvage};
use wasla_trace::{FitConfig, FitError};
use wasla_workload::{DeadlineClass, SqlWorkload, WorkloadSet};

/// Hit/miss counters for a session's stage caches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Calibration-table cache counters.
    pub calibration: CacheStats,
    /// Workload-fit cache counters.
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

/// A stateful advisor: the staged pipeline plus memoized outputs of
/// the cacheable stages.
#[derive(Clone, Debug, Default)]
pub struct AdvisorSession {
    calibrations: StageCache<TableModel>,
    fits: StageCache<WorkloadSet>,
}

impl AdvisorSession {
    /// A fresh session with empty caches.
    pub fn new() -> Self {
        AdvisorSession::default()
    }

    /// Cache hit/miss counters so far.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            calibration: self.calibrations.stats(),
            fit: self.fits.stats(),
        }
    }

    /// Number of calibration tables held.
    pub fn calibrations_cached(&self) -> usize {
        self.calibrations.len()
    }

    /// Number of fitted workload sets held.
    pub fn fits_cached(&self) -> usize {
        self.fits.len()
    }

    /// The stage caches, borrowed (the persistence layer serializes
    /// them without draining the session).
    pub(crate) fn caches(&self) -> (&StageCache<TableModel>, &StageCache<WorkloadSet>) {
        (&self.calibrations, &self.fits)
    }

    /// Rebuilds a session around restored caches (counters start at
    /// zero: restored entries are warm data that has served nothing).
    pub(crate) fn from_caches(
        calibrations: StageCache<TableModel>,
        fits: StageCache<WorkloadSet>,
    ) -> Self {
        AdvisorSession { calibrations, fits }
    }

    /// The calibration table for one target's member device,
    /// computing it on a cache miss.
    fn member_table(
        &mut self,
        config: &TargetConfig,
        grid: &CalibrationGrid,
        seed: u64,
    ) -> Result<TableModel, WaslaError> {
        let spec = TargetCostModel::member_spec(config)?;
        let stage = CalibrateStage { grid };
        let input = CalibrateInput { spec, seed };
        let key = stage
            .cache_key(&input)
            .ok_or_else(|| WaslaError::Internal("calibrate stage must be cacheable".to_string()))?;
        Ok(self
            .calibrations
            .get_or_insert_with(key, || stage.table(&input))
            .clone())
    }

    /// Target cost models for a scenario's targets, assembling each
    /// around a (possibly cached) member calibration table.
    pub fn models_for(
        &mut self,
        targets: &[TargetConfig],
        grid: &CalibrationGrid,
        seed: u64,
    ) -> Result<Vec<TargetCostModel>, WaslaError> {
        targets
            .iter()
            .map(|config| {
                let member = self.member_table(config, grid, seed)?;
                TargetCostModel::with_member(config, member).map_err(WaslaError::from)
            })
            .collect()
    }

    /// [`models_for`](Self::models_for) a scenario's targets, noting
    /// each target whose calibration the active fault plan degraded.
    /// Calibration faults are applied inside `calibrate_device`; this
    /// re-queries the plan (the cached table carries the degradation
    /// with it).
    pub(crate) fn models_noting_faults(
        &mut self,
        scenario: &Scenario,
        grid: &CalibrationGrid,
        degraded: &mut Vec<DegradedNote>,
    ) -> Result<Vec<TargetCostModel>, WaslaError> {
        let models = self.models_for(&scenario.targets, grid, scenario.seed)?;
        for target in &scenario.targets {
            let spec = TargetCostModel::member_spec(target)?;
            if let Some(f) = calibration_fault(spec, scenario.seed) {
                degraded.push(DegradedNote::CalibrationDegraded {
                    device: target.name.clone(),
                    factor: f.latency_factor(),
                });
            }
        }
        Ok(models)
    }

    /// Fitted workload descriptions for an op-log, reusing the cache
    /// when the same log and inventory were fitted before (under the
    /// same layout objective — the objective id partitions the cache).
    pub fn fit(
        &mut self,
        trace: &OpLog,
        names: &[String],
        sizes: &[u64],
        config: &FitConfig,
        objective: ObjectiveKind,
    ) -> Result<WorkloadSet, WaslaError> {
        let stage = FitStage { config, objective };
        let input = FitInput {
            trace,
            names,
            sizes,
        };
        let key = stage
            .cache_key(&input)
            .ok_or_else(|| WaslaError::Internal("fit stage must be cacheable".to_string()))?;
        if let Some(cached) = self.fits.get(key) {
            return Ok(cached.clone());
        }
        let fitted = stage.run(&input)?;
        self.fits.insert(key, fitted.clone());
        Ok(fitted)
    }

    /// Fits the first `keep` records of `log` — the valid prefix a torn
    /// tail leaves — cached under the damaged log's content hash
    /// ([`OpLog::trace_content_hash_damaged`]), so warm and cold
    /// sessions agree byte-for-byte under the same fault plan. A cache
    /// hit answers without copying the prefix. The salvage is `Some`
    /// when records were dropped.
    ///
    /// A non-empty log with nothing kept has no signal left to degrade
    /// to: its first record is already torn (stream id driven out of
    /// range), so the fit fails with [`FitError::StreamOutOfRange`].
    fn fit_prefix(
        &mut self,
        log: &OpLog,
        keep: usize,
        names: &[String],
        sizes: &[u64],
        config: &FitConfig,
        objective: ObjectiveKind,
    ) -> Result<(WorkloadSet, Option<OpLogSalvage>), WaslaError> {
        let keep = keep.min(log.len());
        let stage = FitStage { config, objective };
        let key = stage.key_for_hash(log.trace_content_hash_damaged(keep), names, sizes);
        let fitted = match self.fits.get(key) {
            Some(cached) => cached.clone(),
            None => {
                if keep == 0 && !log.is_empty() {
                    return Err(FitError::StreamOutOfRange {
                        stream: u32::MAX,
                        objects: names.len(),
                    }
                    .into());
                }
                let prefix = log.prefix(keep);
                let fitted = stage.run(&FitInput {
                    trace: &prefix,
                    names,
                    sizes,
                })?;
                self.fits.insert(key, fitted.clone());
                fitted
            }
        };
        let dropped = log.len() - keep;
        let salvage = OpLogSalvage {
            kept: keep,
            dropped,
            first_error: None,
        };
        Ok((fitted, (dropped > 0).then_some(salvage)))
    }

    /// Fitted workload descriptions from a captured op-log: a cached
    /// [`fit`](AdvisorSession::fit) on a clean log. Under an active
    /// trace fault the log's torn tail is dropped and the valid prefix
    /// fitted (see [`fault_keep`]); the returned salvage is `Some` when
    /// records were dropped.
    pub fn ingest_oplog(
        &mut self,
        log: &OpLog,
        names: &[String],
        sizes: &[u64],
        config: &FitConfig,
        objective: ObjectiveKind,
    ) -> Result<(WorkloadSet, Option<OpLogSalvage>), WaslaError> {
        match fault_keep(log) {
            Some(keep) => self.fit_prefix(log, keep, names, sizes, config, objective),
            None => Ok((self.fit(log, names, sizes, config, objective)?, None)),
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
        let models = self.models_noting_faults(scenario, &config.grid, &mut degraded)?;
        let problem =
            assemble_problem(scenario, fitted.clone(), models, config.constraints.clone());
        let solve = SolveStage {
            options: &config.advisor,
        };
        let solved = solve.run(&problem)?;
        let finish = RegularizeStage {
            options: &config.advisor,
        };
        let recommendation = finish.run(&RegularizeInput {
            problem: &problem,
            solved,
        })?;
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
    /// with the pure stages served from this session's caches.
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

    /// Folds a worker-local session (started as a clone of this one)
    /// back into this session: new cache entries land first-write-wins
    /// in merge order, and the counter deltas relative to `baseline`
    /// are accumulated.
    fn absorb(&mut self, local: AdvisorSession, baseline: &SessionStats) {
        self.calibrations
            .add_stats(local.calibrations.stats().since(&baseline.calibration));
        self.fits.add_stats(local.fits.stats().since(&baseline.fit));
        for (key, table) in local.calibrations.into_entries() {
            self.calibrations.insert(key, table);
        }
        for (key, fitted) in local.fits.into_entries() {
            self.fits.insert(key, fitted);
        }
    }
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

/// The tighter (cheaper-solve) of two budgets.
fn tighter(a: Option<SolverBudget>, b: Option<SolverBudget>) -> Option<SolverBudget> {
    fn rank(x: Option<SolverBudget>) -> u8 {
        match x {
            None => 0,
            Some(SolverBudget::Tight) => 1,
            Some(SolverBudget::PgOnly) => 2,
            Some(SolverBudget::GreedyOnly) => 3,
        }
    }
    if rank(a) >= rank(b) {
        a
    } else {
        b
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
    /// A service with empty caches and the given base seed for
    /// per-request seed derivation.
    pub fn new(base_seed: u64) -> Self {
        Service {
            session: AdvisorSession::new(),
            base_seed,
            cache_dir: None,
        }
    }

    /// Opens a service backed by a persisted cache directory: stage
    /// caches saved by a previous [`persist`](Service::persist) are
    /// restored, so a restarted service starts warm and reproduces
    /// warm results byte-for-byte. Missing files mean a cold start;
    /// corrupt or version-skewed files are quarantined (renamed to
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

    /// Writes the session caches to the cache directory (versioned,
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
    /// caches [`advise_batch`](Service::advise_batch) warms and
    /// [`persist`](Service::persist) saves.
    pub fn session_mut(&mut self) -> &mut AdvisorSession {
        &mut self.session
    }

    /// The cache directory this service persists to, if any. The
    /// daemon loop stores its controller checkpoint alongside the
    /// stage caches.
    pub(crate) fn cache_dir(&self) -> Option<&std::path::Path> {
        self.cache_dir.as_deref()
    }

    /// Advises every request under the default [`BatchPolicy`],
    /// fanning across the [`par`] pool.
    ///
    /// Distinct member calibrations are prewarmed serially first (each
    /// is internally parallel); the fan-out then runs against
    /// worker-local snapshots of the warm caches, and anything newly
    /// computed merges back into the shared session in request order.
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
        // admitted requests will need, serially at this level (each
        // calibration is internally parallel). Rejected requests never
        // touch the pipeline, so they warm nothing. Modeling errors
        // are left for the per-request run to report.
        for (i, request) in requests.iter().enumerate() {
            if !admitted[i] {
                continue;
            }
            for target in &request.scenario.targets {
                let _ =
                    self.session
                        .member_table(target, &request.config.grid, request.scenario.seed);
            }
        }

        let base_seed = self.base_seed;
        let attempts_budget = policy.max_attempts.max(1);
        let plan = fault::plan();
        let snapshot = self.session.clone();
        let baseline = snapshot.stats();
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
            let mut local = snapshot.clone();
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
                config.advisor.solve_budget = tighter(config.advisor.solve_budget, budget);
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
                self.session.absorb(local, &baseline);
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
    fn fault_prefix_fit_equals_the_clean_prefix_fit() {
        let (log, names, sizes) = two_object_log();
        let config = FitConfig::default();
        let objective = ObjectiveKind::MinMax;
        let mut session = AdvisorSession::new();
        let (set, salvage) = session
            .fit_prefix(&log, 20, &names, &sizes, &config, objective)
            .unwrap();
        assert_eq!(
            salvage,
            Some(OpLogSalvage {
                kept: 20,
                dropped: 10,
                first_error: None
            })
        );
        let clean = AdvisorSession::new()
            .fit(&log.prefix(20), &names, &sizes, &config, objective)
            .unwrap();
        assert_eq!(to_string(&set), to_string(&clean));
        // The salvage is cached under the damaged log's own identity.
        let (again, again_salvage) = session
            .fit_prefix(&log, 20, &names, &sizes, &config, objective)
            .unwrap();
        assert_eq!(to_string(&again), to_string(&set));
        assert_eq!(again_salvage, salvage);
        assert_eq!(session.stats().fit.misses, 1);
    }

    #[test]
    fn fault_prefix_fit_of_the_whole_log_drops_nothing() {
        let (log, names, sizes) = two_object_log();
        let config = FitConfig::default();
        let objective = ObjectiveKind::MinMax;
        let mut session = AdvisorSession::new();
        let (set, salvage) = session
            .fit_prefix(&log, log.len(), &names, &sizes, &config, objective)
            .unwrap();
        assert_eq!(salvage, None);
        // Keeping everything is the clean fit, under the clean key.
        let clean = session
            .fit(&log, &names, &sizes, &config, objective)
            .unwrap();
        assert_eq!(to_string(&set), to_string(&clean));
        assert_eq!(session.stats().fit.misses, 1);
    }

    #[test]
    fn fault_prefix_fit_with_nothing_kept_is_a_typed_error() {
        let (log, names, sizes) = two_object_log();
        let err = AdvisorSession::new()
            .fit_prefix(
                &log,
                0,
                &names,
                &sizes,
                &FitConfig::default(),
                ObjectiveKind::MinMax,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            WaslaError::Fit(FitError::StreamOutOfRange {
                stream: u32::MAX,
                objects: 2
            })
        ));
        // An empty log has nothing to lose: it fits as all-idle.
        let (idle, salvage) = AdvisorSession::new()
            .fit_prefix(
                &OpLog::new(),
                0,
                &names,
                &sizes,
                &FitConfig::default(),
                ObjectiveKind::MinMax,
            )
            .unwrap();
        assert_eq!(salvage, None);
        assert!(idle.specs.iter().all(|s| s.total_rate() == 0.0));
    }

    #[test]
    fn warm_session_skips_recalibration_and_matches_cold() {
        let scenario = Scenario::homogeneous_disks(4, 0.01);
        let workloads = [SqlWorkload::olap1_21(3)];
        let config = AdviseConfig::fast();

        let mut session = AdvisorSession::new();
        let cold = session.advise(&scenario, &workloads, &config).unwrap();
        let after_cold = session.stats();
        // Four identical disks: one calibration, one fit, all misses.
        assert_eq!(after_cold.calibration.misses, 1);
        assert_eq!(after_cold.calibration.hits, 3);
        assert_eq!(session.calibrations_cached(), 1);

        let warm = session.advise(&scenario, &workloads, &config).unwrap();
        let after_warm = session.stats();
        assert_eq!(after_warm.calibration.misses, 1, "no recalibration");
        assert_eq!(after_warm.fit.misses, 1, "fit reused");

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
