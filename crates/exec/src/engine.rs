//! The closed-loop execution engine.
//!
//! Drives one or more SQL workloads against a storage system under a
//! placement, advancing simulated time until the run's stop condition:
//!
//! * OLAP workloads finish when their query sequence completes; the
//!   concurrency level is maintained closed-loop (paper Figure 10).
//! * OLTP workloads run terminals back-to-back; standalone OLTP runs
//!   stop at `max_time` or a transaction cap, while consolidated runs
//!   (paper §6.3) stop when the co-running OLAP workload finishes,
//!   exactly like the paper's measurement procedure.

use crate::cache::BufferPool;
use crate::placement::Placement;
use crate::report::{ObjectIoStats, RunReport};
use wasla_simlib::fault::{self, DeviceFault};
use wasla_simlib::{SimRng, SimTime};
use wasla_storage::{IoKind, StorageSystem, TargetIo};
use wasla_trace::oplog::{OpLog, OpRecord};
use wasla_workload::sql::SqlWorkloadKind;
use wasla_workload::{AccessKind, Catalog, SqlWorkload};

/// Completion tags are `((record + 1) << SHIFT) | step_slot` while an
/// op-log is being captured, and the bare step slot otherwise. 20 bits
/// of slot space is far beyond any realistic concurrent-step count, and
/// the `+ 1` keeps "no op-log record" distinguishable as all-zero high
/// bits.
const OPLOG_TAG_SHIFT: u32 = 20;
const OPLOG_TAG_MASK: u64 = (1 << OPLOG_TAG_SHIFT) - 1;

/// Engine tunables.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// RNG seed for request generation.
    pub seed: u64,
    /// Catalog scale factor; OLAP probe counts in templates are
    /// specified at scale 1.0 and shrink with the data. (OLTP per-
    /// transaction counts are absolute and not scaled.)
    pub scale: f64,
    /// Buffer-pool size in bytes (0 disables caching).
    pub pool_bytes: u64,
    /// Outstanding request depth for sequential streams (prefetch).
    pub scan_depth: usize,
    /// Outstanding request depth for random streams.
    pub rand_depth: usize,
    /// Hard stop for runs with no OLAP workload (seconds).
    pub max_time: Option<f64>,
    /// Stop OLTP-only runs after this many transactions.
    pub txn_cap: Option<u64>,
    /// Warm-up window excluded from the tpm computation (seconds; the
    /// paper excludes 1600 s).
    pub oltp_warmup: f64,
    /// Capture an op-log (issue *and* completion timestamps per
    /// physical request) for workload fitting and replay. It lands in
    /// [`RunReport::trace`].
    pub capture_oplog: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 42,
            scale: 1.0,
            pool_bytes: 2 * 1024 * 1024 * 1024,
            // OS/LVM readahead keeps a few requests in flight for a
            // sequential scan (a ~512 KiB readahead window).
            scan_depth: 2,
            rand_depth: 1,
            max_time: None,
            txn_cap: None,
            oltp_warmup: 0.0,
            capture_oplog: false,
        }
    }
}

/// Typed failures of the execution engine.
///
/// The slot variants replace the old `expect(...)` panics on the
/// step/query slab accessors: a storage completion carrying a bogus tag
/// (corrupted or fault-injected) now surfaces as an error the caller
/// can handle instead of aborting the process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The run has no stop condition: no OLAP workload ends it, and
    /// neither [`RunConfig::max_time`] nor [`RunConfig::txn_cap`]
    /// bounds its OLTP terminals, which would otherwise run (and grow
    /// the captured trace) until memory runs out.
    Unbounded,
    /// A completion or phase transition referenced a step slot with no
    /// live step.
    DeadStep {
        /// The offending slot index.
        slot: usize,
    },
    /// A step or phase transition referenced a query slot with no live
    /// query.
    DeadQuery {
        /// The offending slot index.
        slot: usize,
    },
    /// A template step names an object the catalog does not hold.
    /// Every step is resolved when the run starts, so this fails the
    /// run before any request is issued.
    UnknownObject {
        /// Index of the workload in the run.
        workload: usize,
        /// Index of the template within that workload.
        template: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Unbounded => write!(
                f,
                "engine error: OLTP-only run with neither max_time nor txn_cap never stops"
            ),
            EngineError::DeadStep { slot } => {
                write!(f, "engine error: no live step in slot {slot}")
            }
            EngineError::DeadQuery { slot } => {
                write!(f, "engine error: no live query in slot {slot}")
            }
            EngineError::UnknownObject { workload, template } => write!(
                f,
                "engine error: template {template} of workload {workload} names an object \
                 missing from the catalog"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// An injected device fault observed during a run. Reported
/// out-of-band from [`RunReport`], whose JSON shape the golden result
/// files pin.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeviceEvent {
    /// The target's member devices ran with service times scaled by
    /// `factor`.
    Degraded {
        /// Target index.
        target: usize,
        /// Service-time multiplier applied.
        factor: f64,
    },
    /// The target effectively failed (pathological latency factor).
    Failed {
        /// Target index.
        target: usize,
    },
}

impl DeviceEvent {
    /// The affected target.
    pub fn target(&self) -> usize {
        match *self {
            DeviceEvent::Degraded { target, .. } | DeviceEvent::Failed { target } => target,
        }
    }
}

/// A run's report plus the injected device faults that shaped it.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The ordinary run report.
    pub report: RunReport,
    /// Device faults applied during the run, in target order.
    pub device_events: Vec<DeviceEvent>,
}

/// Access pattern state of a running step.
enum Pattern {
    /// Sequential walk from `next`, wrapping within `[0, span)`.
    Seq { next: u64, span: u64 },
    /// Uniform random aligned offsets within `[0, span)`.
    Rand { span: u64 },
}

/// A template step with its object resolved against the catalog once,
/// when the run starts.
#[derive(Clone, Copy)]
struct ResolvedStep {
    object: usize,
    kind: AccessKind,
}

/// A template's steps, resolved, phase after phase: phase `p` is
/// `steps[phase_ends[p - 1]..phase_ends[p]]` (from 0 for `p = 0`).
struct ResolvedTemplate {
    steps: Vec<ResolvedStep>,
    phase_ends: Vec<usize>,
}

/// An OLTP workload's transaction mix split into template ids and
/// weights, so sampling a template allocates nothing. Empty for OLAP
/// workloads.
#[derive(Default)]
struct TxnMix {
    templates: Vec<usize>,
    weights: Vec<f64>,
}

/// A running access step.
struct StepRun {
    query: usize,
    object: usize,
    pattern: Pattern,
    request: u64,
    remaining: u64,
    outstanding: u32,
    is_write: bool,
    sequential: bool,
    depth: usize,
    scan_hit: f64,
    random_hit: f64,
}

impl StepRun {
    fn alive(&self) -> bool {
        self.remaining > 0 || self.outstanding > 0
    }
}

/// A running query (or transaction) instance.
struct QueryRun {
    workload: usize,
    template: usize,
    phase: usize,
    live_steps: usize,
    started: SimTime,
}

/// Per-workload progress.
enum WorkloadProgress {
    Olap {
        pos: usize,
        active: usize,
        completed: usize,
    },
    Oltp {
        txns: u64,
        txns_after_warmup: u64,
        by_template: Vec<u64>,
    },
}

/// The execution engine. Construct once per run.
pub struct Engine<'a> {
    catalog: &'a Catalog,
    workloads: &'a [SqlWorkload],
    placement: &'a Placement,
    storage: &'a mut StorageSystem,
    config: RunConfig,
    rng: SimRng,
    /// `[workload][template]`, filled when the run starts.
    templates: Vec<Vec<ResolvedTemplate>>,
    txn_mix: Vec<TxnMix>,
    steps: Vec<Option<StepRun>>,
    free_steps: Vec<usize>,
    queries: Vec<Option<QueryRun>>,
    free_queries: Vec<usize>,
    progress: Vec<WorkloadProgress>,
    object_stats: Vec<ObjectIoStats>,
    oplog: Option<OpLog>,
    /// Outstanding storage parts per op-log record; a record's
    /// completion timestamp is stamped when its count drains to zero.
    oplog_open: Vec<u32>,
    translate_buf: Vec<(usize, u64, u64)>,
    has_olap: bool,
    queries_completed: usize,
    query_latency: wasla_simlib::OnlineStats,
    txn_latency: wasla_simlib::OnlineStats,
}

impl<'a> Engine<'a> {
    /// Creates an engine over the given catalog, workloads, placement
    /// and storage system.
    pub fn new(
        catalog: &'a Catalog,
        workloads: &'a [SqlWorkload],
        placement: &'a Placement,
        storage: &'a mut StorageSystem,
        config: RunConfig,
    ) -> Self {
        assert!(!workloads.is_empty(), "no workloads");
        let has_olap = workloads
            .iter()
            .any(|w| matches!(w.kind, SqlWorkloadKind::Olap(_)));
        let progress = workloads
            .iter()
            .map(|w| match &w.kind {
                SqlWorkloadKind::Olap(_) => WorkloadProgress::Olap {
                    pos: 0,
                    active: 0,
                    completed: 0,
                },
                SqlWorkloadKind::Oltp(_) => WorkloadProgress::Oltp {
                    txns: 0,
                    txns_after_warmup: 0,
                    by_template: vec![0; w.templates.len()],
                },
            })
            .collect();
        let txn_mix = workloads
            .iter()
            .map(|w| match &w.kind {
                SqlWorkloadKind::Oltp(c) => TxnMix {
                    templates: c.mix.iter().map(|&(t, _)| t).collect(),
                    weights: c.mix.iter().map(|&(_, w)| w).collect(),
                },
                SqlWorkloadKind::Olap(_) => TxnMix::default(),
            })
            .collect();
        let oplog = config.capture_oplog.then(OpLog::new);
        let rng = SimRng::new(config.seed);
        Engine {
            catalog,
            workloads,
            placement,
            storage,
            config,
            rng,
            templates: Vec::new(),
            txn_mix,
            steps: Vec::new(),
            free_steps: Vec::new(),
            queries: Vec::new(),
            free_queries: Vec::new(),
            progress,
            object_stats: vec![ObjectIoStats::default(); catalog.len()],
            oplog,
            oplog_open: Vec::new(),
            translate_buf: Vec::new(),
            has_olap,
            queries_completed: 0,
            query_latency: wasla_simlib::OnlineStats::new(),
            txn_latency: wasla_simlib::OnlineStats::new(),
        }
    }

    /// Estimates relative logical request heat per object across all
    /// workloads (random, sequential), used to size the buffer-pool
    /// model.
    fn heat(&self) -> (Vec<f64>, Vec<f64>) {
        let mut random = vec![0.0f64; self.catalog.len()];
        let mut seq = vec![0.0f64; self.catalog.len()];
        for (w, templates) in self.workloads.iter().zip(&self.templates) {
            let weight = match &w.kind {
                // OLTP templates run continuously; weight them up so
                // their small per-txn footprints register.
                SqlWorkloadKind::Oltp(_) => 50_000.0,
                SqlWorkloadKind::Olap(_) => 1.0,
            };
            let counts: Box<dyn Iterator<Item = usize>> = match &w.kind {
                SqlWorkloadKind::Olap(c) => Box::new(c.sequence.iter().copied()),
                SqlWorkloadKind::Oltp(c) => Box::new(c.mix.iter().map(|&(t, _)| t)),
            };
            for t in counts {
                for step in &templates[t].steps {
                    let obj = step.object;
                    let size = self.catalog.object(obj).size as f64;
                    match step.kind {
                        AccessKind::SeqRead { fraction, request }
                        | AccessKind::SeqWrite { fraction, request } => {
                            seq[obj] += (fraction * size / request as f64).max(1.0) * weight;
                        }
                        AccessKind::RandRead { count, request: _ }
                        | AccessKind::RandWrite { count, request: _ } => {
                            random[obj] += (count * self.config.scale).max(1.0) * weight;
                        }
                    }
                }
            }
        }
        (random, seq)
    }

    /// Resolves every template step's object against the catalog.
    fn resolve_templates(&self) -> Result<Vec<Vec<ResolvedTemplate>>, EngineError> {
        self.workloads
            .iter()
            .enumerate()
            .map(|(workload, w)| {
                w.templates
                    .iter()
                    .enumerate()
                    .map(|(template, t)| {
                        let mut steps = Vec::new();
                        let mut phase_ends = Vec::with_capacity(t.phases.len());
                        for phase in &t.phases {
                            for step in phase {
                                let object = self
                                    .catalog
                                    .id_of(&step.object)
                                    .ok_or(EngineError::UnknownObject { workload, template })?;
                                steps.push(ResolvedStep {
                                    object,
                                    kind: step.kind,
                                });
                            }
                            phase_ends.push(steps.len());
                        }
                        Ok(ResolvedTemplate { steps, phase_ends })
                    })
                    .collect()
            })
            .collect()
    }

    /// Runs the workload(s) to completion and reports.
    pub fn run(self) -> Result<RunReport, EngineError> {
        self.run_observed().map(|o| o.report)
    }

    /// Like [`Engine::run`], but also applies the active fault plan's
    /// device faults (degraded or failed targets) before the run and
    /// reports them alongside the [`RunReport`]. With no plan (the
    /// default) the event list is empty and the run is bit-identical
    /// to [`Engine::run`].
    pub fn run_observed(mut self) -> Result<RunOutcome, EngineError> {
        if !self.has_olap && self.config.max_time.is_none() && self.config.txn_cap.is_none() {
            return Err(EngineError::Unbounded);
        }
        self.templates = self.resolve_templates()?;
        let mut device_events = Vec::new();
        if let Some(plan) = fault::plan() {
            for target in 0..self.storage.target_count() {
                let key = fault::device_key(self.config.seed, target as u64);
                let Some(f) = plan.device_fault(key) else {
                    continue;
                };
                self.storage.degrade_target(target, f.latency_factor());
                device_events.push(match f {
                    DeviceFault::Degraded { latency_factor } => DeviceEvent::Degraded {
                        target,
                        factor: latency_factor,
                    },
                    DeviceFault::Failed => DeviceEvent::Failed { target },
                });
            }
        }
        let pool = if self.config.pool_bytes > 0 {
            let (random, seq) = self.heat();
            BufferPool::new(self.catalog, &random, &seq, self.config.pool_bytes)
        } else {
            BufferPool::disabled(self.catalog.len())
        };
        // Kick off initial queries/terminals.
        let now = SimTime::ZERO;
        for widx in 0..self.workloads.len() {
            match &self.workloads[widx].kind {
                SqlWorkloadKind::Olap(c) => {
                    let launch = c.concurrency.min(c.sequence.len());
                    for _ in 0..launch {
                        self.start_next_olap_query(widx, now, &pool)?;
                    }
                }
                SqlWorkloadKind::Oltp(c) => {
                    for _ in 0..c.terminals {
                        let template = self.sample_txn_template(widx);
                        self.start_query(widx, template, now, &pool)?;
                    }
                }
            }
        }

        let mut last = now;
        let mut completions = Vec::new();
        // hot-closure-begin: the event loop
        loop {
            if self.stop_condition_met() {
                break;
            }
            let Some(t) = self.storage.next_event_time() else {
                // Nothing in flight: either all done or stalled.
                break;
            };
            if let Some(cap) = self.config.max_time {
                if !self.has_olap && t.as_secs() > cap {
                    last = SimTime::from_secs(cap);
                    break;
                }
            }
            completions.clear();
            self.storage.advance_until(t, &mut completions);
            last = t;
            for c in &completions {
                let sidx = self.note_oplog_completion(c.tag, c.finished);
                self.on_part_complete(sidx, c.finished, &pool)?;
            }
        }
        // hot-closure-end

        Ok(RunOutcome {
            report: self.build_report(last),
            device_events,
        })
    }

    fn stop_condition_met(&self) -> bool {
        if self.has_olap {
            // Consolidated and OLAP-only runs end when every OLAP
            // workload has finished its sequence.
            self.workloads
                .iter()
                .zip(&self.progress)
                .all(|(w, p)| match (&w.kind, p) {
                    (SqlWorkloadKind::Olap(c), WorkloadProgress::Olap { completed, .. }) => {
                        *completed >= c.sequence.len()
                    }
                    _ => true,
                })
        } else if let Some(cap) = self.config.txn_cap {
            self.progress.iter().all(|p| match p {
                WorkloadProgress::Oltp { txns, .. } => *txns >= cap,
                _ => true,
            })
        } else {
            false // rely on max_time
        }
    }

    /// Samples a transaction template from an OLTP workload's weighted
    /// mix.
    fn sample_txn_template(&mut self, widx: usize) -> usize {
        let mix = &self.txn_mix[widx];
        if mix.templates.len() == 1 {
            return mix.templates[0];
        }
        mix.templates[self.rng.weighted_index(&mix.weights)]
    }

    fn start_next_olap_query(
        &mut self,
        widx: usize,
        now: SimTime,
        pool: &BufferPool,
    ) -> Result<(), EngineError> {
        let workloads = self.workloads;
        let (SqlWorkloadKind::Olap(c), WorkloadProgress::Olap { pos, active, .. }) =
            (&workloads[widx].kind, &mut self.progress[widx])
        else {
            unreachable!("OLAP progress tracks an OLAP workload")
        };
        let Some(&template) = c.sequence.get(*pos) else {
            return Ok(());
        };
        *pos += 1;
        *active += 1;
        self.start_query(widx, template, now, pool)
    }

    fn alloc_query(&mut self, q: QueryRun) -> usize {
        if let Some(i) = self.free_queries.pop() {
            self.queries[i] = Some(q);
            i
        } else {
            self.queries.push(Some(q));
            self.queries.len() - 1
        }
    }

    fn alloc_step(&mut self, s: StepRun) -> usize {
        if let Some(i) = self.free_steps.pop() {
            self.steps[i] = Some(s);
            i
        } else {
            self.steps.push(Some(s));
            self.steps.len() - 1
        }
    }

    fn start_query(
        &mut self,
        widx: usize,
        template: usize,
        now: SimTime,
        pool: &BufferPool,
    ) -> Result<(), EngineError> {
        let qidx = self.alloc_query(QueryRun {
            workload: widx,
            template,
            phase: 0,
            live_steps: 0,
            started: now,
        });
        self.enter_phase(qidx, now, pool)
    }

    /// Starts the current phase's steps; if every phase completes
    /// instantly (all cached), advances through phases and finishes the
    /// query synchronously.
    fn enter_phase(
        &mut self,
        qidx: usize,
        now: SimTime,
        pool: &BufferPool,
    ) -> Result<(), EngineError> {
        loop {
            let (widx, template, phase) = {
                let q = self
                    .queries
                    .get(qidx)
                    .and_then(Option::as_ref)
                    .ok_or(EngineError::DeadQuery { slot: qidx })?;
                (q.workload, q.template, q.phase)
            };
            let phase_ends = &self.templates[widx][template].phase_ends;
            let Some(&end) = phase_ends.get(phase) else {
                return self.finish_query(qidx, now, pool);
            };
            let start = if phase == 0 { 0 } else { phase_ends[phase - 1] };
            let is_oltp = matches!(self.workloads[widx].kind, SqlWorkloadKind::Oltp(_));
            let mut live = 0usize;
            for s in start..end {
                let step = self.templates[widx][template].steps[s];
                if self.spawn_step(qidx, step, is_oltp, now, pool)? {
                    live += 1;
                }
            }
            let q = self
                .queries
                .get_mut(qidx)
                .and_then(Option::as_mut)
                .ok_or(EngineError::DeadQuery { slot: qidx })?;
            q.live_steps = live;
            if live > 0 {
                return Ok(());
            }
            q.phase += 1;
        }
    }

    /// Creates a step and issues its initial window. Returns whether
    /// the step is still live afterwards: a step that generates no
    /// requests at all, or whose whole window hit the buffer pool, is
    /// released at once.
    fn spawn_step(
        &mut self,
        qidx: usize,
        spec: ResolvedStep,
        is_oltp: bool,
        now: SimTime,
        pool: &BufferPool,
    ) -> Result<bool, EngineError> {
        let object = spec.object;
        let size = self.catalog.object(object).size;
        let (request, count, is_write, sequential) = match spec.kind {
            AccessKind::SeqRead { fraction, request } => {
                let req = request.min(size.max(1)).max(512);
                let n = ((fraction * size as f64) / req as f64).ceil().max(1.0) as u64;
                (req, n, false, true)
            }
            AccessKind::SeqWrite { fraction, request } => {
                let req = request.min(size.max(1)).max(512);
                let n = ((fraction * size as f64) / req as f64).ceil().max(1.0) as u64;
                (req, n, true, true)
            }
            AccessKind::RandRead { count, request } => {
                let req = request.min(size.max(1)).max(512);
                let expected = if is_oltp {
                    count
                } else {
                    count * self.config.scale
                };
                (req, self.stochastic_round(expected), false, false)
            }
            AccessKind::RandWrite { count, request } => {
                let req = request.min(size.max(1)).max(512);
                let expected = if is_oltp {
                    count
                } else {
                    count * self.config.scale
                };
                (req, self.stochastic_round(expected), true, false)
            }
        };
        if count == 0 {
            return Ok(false);
        }
        let span = (size - size % request).max(request);
        let pattern = if sequential {
            let slots = span / request;
            let start = self.rng.below(slots) * request;
            Pattern::Seq { next: start, span }
        } else {
            Pattern::Rand { span }
        };
        let policy = pool.policy(object);
        let depth = if sequential {
            self.config.scan_depth
        } else {
            self.config.rand_depth
        };
        let sidx = self.alloc_step(StepRun {
            query: qidx,
            object,
            pattern,
            request,
            remaining: count,
            outstanding: 0,
            is_write,
            sequential,
            depth: depth.max(1),
            scan_hit: policy.scan_hit,
            random_hit: policy.random_hit,
        });
        self.issue(sidx, now)?;
        let alive = self
            .steps
            .get(sidx)
            .and_then(Option::as_ref)
            .ok_or(EngineError::DeadStep { slot: sidx })?
            .alive();
        if !alive {
            self.release_step(sidx);
        }
        Ok(alive)
    }

    fn stochastic_round(&mut self, x: f64) -> u64 {
        let base = x.floor();
        let frac = x - base;
        base as u64 + u64::from(self.rng.chance(frac))
    }

    // hot-closure-begin: issuing a step's requests
    /// Issues logical requests for a step until its outstanding window
    /// is full or it runs out of requests. Cache hits complete
    /// synchronously and never reach storage.
    fn issue(&mut self, sidx: usize, now: SimTime) -> Result<(), EngineError> {
        loop {
            let step = self
                .steps
                .get_mut(sidx)
                .and_then(Option::as_mut)
                .ok_or(EngineError::DeadStep { slot: sidx })?;
            if step.remaining == 0 || step.outstanding as usize >= step.depth {
                return Ok(());
            }
            step.remaining -= 1;
            // Generate the next logical request.
            let offset = match &mut step.pattern {
                Pattern::Seq { next, span } => {
                    let o = *next;
                    *next = (*next + step.request) % *span;
                    o
                }
                Pattern::Rand { span } => {
                    let slots = *span / step.request;
                    self.rng.below(slots.max(1)) * step.request
                }
            };
            let len = step.request;
            let object = step.object;
            let is_write = step.is_write;
            let hit_prob = if is_write {
                0.0
            } else if step.sequential {
                step.scan_hit
            } else {
                step.random_hit
            };
            let stats = &mut self.object_stats[object];
            if is_write {
                stats.logical_writes += 1;
            } else {
                stats.logical_reads += 1;
            }
            if hit_prob > 0.0 && self.rng.chance(hit_prob) {
                continue; // served from the buffer pool
            }
            let stats = &mut self.object_stats[object];
            if is_write {
                stats.physical_writes += 1;
                stats.bytes_written += len;
            } else {
                stats.physical_reads += 1;
                stats.bytes_read += len;
            }
            self.translate_buf.clear();
            self.placement
                .translate(object, offset, len, &mut self.translate_buf);
            let parts = self.translate_buf.len() as u32;
            let step = self
                .steps
                .get_mut(sidx)
                .and_then(Option::as_mut)
                .ok_or(EngineError::DeadStep { slot: sidx })?;
            step.outstanding += parts;
            let kind = if is_write {
                IoKind::Write
            } else {
                IoKind::Read
            };
            // With op-log capture on, the completion tag carries the
            // record index so `run_observed` can stamp completion
            // times; otherwise it is the bare step slot, bit-identical
            // to the capture-off behaviour.
            let tag = if let Some(log) = &mut self.oplog {
                debug_assert!((sidx as u64) <= OPLOG_TAG_MASK, "step slab overflow");
                let rid = log.len() as u64;
                log.push(OpRecord {
                    kind,
                    stream: object as u32,
                    offset,
                    len,
                    issue: now,
                    complete: now,
                });
                self.oplog_open.push(parts);
                ((rid + 1) << OPLOG_TAG_SHIFT) | sidx as u64
            } else {
                sidx as u64
            };
            for &(target, toff, tlen) in &self.translate_buf {
                self.storage.submit(
                    now,
                    target,
                    TargetIo {
                        kind,
                        offset: toff,
                        len: tlen,
                        stream: object as u32,
                    },
                    tag,
                );
            }
        }
    }
    // hot-closure-end

    /// Decodes a completion tag: drains the part count of the op-log
    /// record it names (stamping the record's completion time when the
    /// last part lands) and returns the step slot.
    fn note_oplog_completion(&mut self, tag: u64, finished: SimTime) -> usize {
        let rid_plus_one = tag >> OPLOG_TAG_SHIFT;
        if rid_plus_one == 0 {
            return tag as usize;
        }
        let rid = (rid_plus_one - 1) as usize;
        if let Some(open) = self.oplog_open.get_mut(rid) {
            *open = open.saturating_sub(1);
            if *open == 0 {
                if let Some(log) = &mut self.oplog {
                    log.set_complete(rid, finished);
                }
            }
        }
        (tag & OPLOG_TAG_MASK) as usize
    }

    fn release_step(&mut self, sidx: usize) {
        self.steps[sidx] = None;
        self.free_steps.push(sidx);
    }

    fn on_part_complete(
        &mut self,
        sidx: usize,
        now: SimTime,
        pool: &BufferPool,
    ) -> Result<(), EngineError> {
        {
            let step = self
                .steps
                .get_mut(sidx)
                .and_then(Option::as_mut)
                .ok_or(EngineError::DeadStep { slot: sidx })?;
            debug_assert!(step.outstanding > 0);
            step.outstanding -= 1;
        }
        self.issue(sidx, now)?;
        let (alive, qidx) = {
            let step = self
                .steps
                .get(sidx)
                .and_then(Option::as_ref)
                .ok_or(EngineError::DeadStep { slot: sidx })?;
            (step.alive(), step.query)
        };
        if alive {
            return Ok(());
        }
        self.release_step(sidx);
        let q = self
            .queries
            .get_mut(qidx)
            .and_then(Option::as_mut)
            .ok_or(EngineError::DeadQuery { slot: qidx })?;
        q.live_steps -= 1;
        if q.live_steps == 0 {
            q.phase += 1;
            self.enter_phase(qidx, now, pool)?;
        }
        Ok(())
    }

    fn finish_query(
        &mut self,
        qidx: usize,
        now: SimTime,
        pool: &BufferPool,
    ) -> Result<(), EngineError> {
        let q = self
            .queries
            .get(qidx)
            .and_then(Option::as_ref)
            .ok_or(EngineError::DeadQuery { slot: qidx })?;
        let widx = q.workload;
        let tidx = q.template;
        let latency = (now - q.started).as_secs();
        self.queries[qidx] = None;
        self.free_queries.push(qidx);
        self.queries_completed += 1;
        match &mut self.progress[widx] {
            WorkloadProgress::Olap {
                active, completed, ..
            } => {
                self.query_latency.record(latency);
                *active -= 1;
                *completed += 1;
                self.start_next_olap_query(widx, now, pool)?;
            }
            WorkloadProgress::Oltp {
                txns,
                txns_after_warmup,
                by_template,
            } => {
                self.txn_latency.record(latency);
                *txns += 1;
                by_template[tidx] += 1;
                if now.as_secs() >= self.config.oltp_warmup {
                    *txns_after_warmup += 1;
                }
                let under_cap = self.config.txn_cap.map_or(true, |cap| *txns < cap);
                let under_time = self.config.max_time.map_or(true, |cap| now.as_secs() < cap);
                if under_cap && under_time {
                    let template = self.sample_txn_template(widx);
                    self.start_query(widx, template, now, pool)?;
                }
            }
        }
        Ok(())
    }

    fn build_report(self, last: SimTime) -> RunReport {
        let elapsed = if last > SimTime::ZERO {
            last
        } else {
            SimTime::from_secs(1e-9)
        };
        let target_stats = self.storage.target_stats(elapsed);
        let target_utilization = target_stats
            .iter()
            .map(|t| t.max_member_utilization)
            .collect();
        let storage_requests = self
            .storage
            .device_stats()
            .iter()
            .map(|d| d.requests())
            .sum();
        let mut txn_by_template = Vec::new();
        let (oltp_txns, tpm) = self
            .progress
            .iter()
            .zip(self.workloads)
            .find_map(|(p, w)| match p {
                WorkloadProgress::Oltp {
                    txns,
                    txns_after_warmup,
                    by_template,
                } => {
                    let window = (elapsed.as_secs() - self.config.oltp_warmup).max(1e-9);
                    txn_by_template = w
                        .templates
                        .iter()
                        .zip(by_template)
                        .map(|(t, &c)| (t.name.clone(), c))
                        .collect();
                    Some((*txns, *txns_after_warmup as f64 * 60.0 / window))
                }
                _ => None,
            })
            .unwrap_or((0, 0.0));
        RunReport {
            elapsed,
            target_stats,
            target_utilization,
            objects: self.object_stats,
            queries_completed: self.queries_completed,
            oltp_txns,
            tpm,
            storage_requests,
            query_latency: self.query_latency,
            txn_latency: self.txn_latency,
            txn_by_template,
            trace: self.oplog,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{see_rows, DEFAULT_STRIPE};
    use wasla_storage::{DeviceSpec, DiskParams, TargetConfig, GIB};
    use wasla_workload::SqlWorkload;

    fn four_disks() -> StorageSystem {
        StorageSystem::new(
            (0..4)
                .map(|i| {
                    TargetConfig::single(
                        format!("d{i}"),
                        DeviceSpec::Disk(DiskParams::scsi_15k(18 * GIB)),
                    )
                })
                .collect(),
            7,
        )
    }

    fn run_olap(scale: f64, workload: SqlWorkload, config: RunConfig) -> RunReport {
        let catalog = Catalog::tpch_like(scale);
        let mut storage = four_disks();
        let rows = see_rows(catalog.len(), 4);
        let placement = Placement::build(
            &rows,
            &catalog.sizes(),
            &storage.capacities(),
            DEFAULT_STRIPE,
        )
        .unwrap();
        let workloads = [workload];
        Engine::new(&catalog, &workloads, &placement, &mut storage, config)
            .run()
            .expect("run succeeds")
    }

    #[test]
    fn olap_run_completes_all_queries() {
        let report = run_olap(
            0.02,
            SqlWorkload::olap1_21(3),
            RunConfig {
                scale: 0.02,
                pool_bytes: 0,
                ..RunConfig::default()
            },
        );
        assert_eq!(report.queries_completed, 21);
        assert!(report.elapsed.as_secs() > 0.0);
        assert!(report.storage_requests > 1000);
        // Per-query latency statistics cover every completed query.
        assert_eq!(report.query_latency.count(), 21);
        assert!(report.query_latency.mean() > 0.0);
        assert_eq!(report.txn_latency.count(), 0);
        assert!(report.max_utilization() > 0.0);
        // LINEITEM must be the most-requested object.
        let catalog = Catalog::tpch_like(0.02);
        let li = catalog.expect_id("LINEITEM");
        let li_reqs = report.objects[li].physical();
        for (i, o) in report.objects.iter().enumerate() {
            if i != li {
                assert!(li_reqs >= o.physical(), "{} out-requests LINEITEM", i);
            }
        }
    }

    #[test]
    fn cache_reduces_physical_io() {
        let scale = 0.02;
        let cached = run_olap(
            scale,
            SqlWorkload::olap1_21(3),
            RunConfig {
                scale,
                pool_bytes: 64 * 1024 * 1024,
                ..RunConfig::default()
            },
        );
        let raw = run_olap(
            scale,
            SqlWorkload::olap1_21(3),
            RunConfig {
                scale,
                pool_bytes: 0,
                ..RunConfig::default()
            },
        );
        assert!(cached.storage_requests < raw.storage_requests);
        assert!(cached.elapsed < raw.elapsed);
    }

    #[test]
    fn concurrency_shortens_elapsed_time() {
        let scale = 0.02;
        let cfg = RunConfig {
            scale,
            pool_bytes: 0,
            ..RunConfig::default()
        };
        let c1 = run_olap(scale, SqlWorkload::olap1_63(5), cfg.clone());
        let c8 = run_olap(scale, SqlWorkload::olap8_63(5), cfg);
        assert_eq!(c1.queries_completed, 63);
        assert_eq!(c8.queries_completed, 63);
        // Concurrency overlaps I/O across targets: wall-clock drops even
        // though per-disk efficiency suffers.
        assert!(
            c8.elapsed < c1.elapsed,
            "c8 {:?} c1 {:?}",
            c8.elapsed,
            c1.elapsed
        );
    }

    #[test]
    fn oltp_run_reports_throughput() {
        let scale = 0.05;
        let catalog = Catalog::tpcc_like(scale);
        let mut storage = four_disks();
        let rows = see_rows(catalog.len(), 4);
        let placement = Placement::build(
            &rows,
            &catalog.sizes(),
            &storage.capacities(),
            DEFAULT_STRIPE,
        )
        .unwrap();
        let workloads = [SqlWorkload::oltp()];
        let report = Engine::new(
            &catalog,
            &workloads,
            &placement,
            &mut storage,
            RunConfig {
                scale,
                max_time: Some(60.0),
                oltp_warmup: 10.0,
                pool_bytes: 256 * 1024 * 1024,
                ..RunConfig::default()
            },
        )
        .run()
        .expect("run succeeds");
        assert!(report.oltp_txns > 10, "txns {}", report.oltp_txns);
        assert!(report.tpm > 0.0);
        assert_eq!(report.txn_latency.count(), report.oltp_txns);
        assert!(report.txn_latency.mean() > 0.0);
        assert!(report.elapsed.as_secs() <= 61.0);
    }

    #[test]
    fn full_tpcc_mix_runs_all_transaction_types() {
        let scale = 0.05;
        let catalog = Catalog::tpcc_like(scale);
        let mut storage = four_disks();
        let rows = see_rows(catalog.len(), 4);
        let placement = Placement::build(
            &rows,
            &catalog.sizes(),
            &storage.capacities(),
            DEFAULT_STRIPE,
        )
        .unwrap();
        let workloads = [SqlWorkload::oltp_full_mix()];
        let report = Engine::new(
            &catalog,
            &workloads,
            &placement,
            &mut storage,
            RunConfig {
                scale,
                max_time: Some(120.0),
                pool_bytes: 256 * 1024 * 1024,
                ..RunConfig::default()
            },
        )
        .run()
        .expect("run succeeds");
        assert!(report.oltp_txns > 100);
        // All five transaction types executed, with New-Order and
        // Payment dominating (45/43/4/4/4 mix).
        assert_eq!(report.txn_by_template.len(), 5);
        let count = |name: &str| {
            report
                .txn_by_template
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, c)| *c)
                .unwrap_or(0)
        };
        let no = count("NEW_ORDER");
        let pay = count("PAYMENT");
        let os = count("ORDER_STATUS");
        assert!(no > 0 && pay > 0 && os > 0, "{:?}", report.txn_by_template);
        assert!(no > 3 * os, "NEW_ORDER {no} vs ORDER_STATUS {os}");
        let total: u64 = report.txn_by_template.iter().map(|(_, c)| c).sum();
        assert_eq!(total, report.oltp_txns);
    }

    #[test]
    fn trace_capture_produces_records() {
        let report = run_olap(
            0.01,
            SqlWorkload::olap1_21(3),
            RunConfig {
                scale: 0.01,
                pool_bytes: 0,
                capture_oplog: true,
                ..RunConfig::default()
            },
        );
        let trace = report.trace.expect("trace requested");
        assert!(trace.len() > 100);
        // Trace must mention LINEITEM's stream, and every record
        // completes no earlier than it was issued.
        let catalog = Catalog::tpch_like(0.01);
        let li = catalog.expect_id("LINEITEM") as u32;
        assert!(trace.records().iter().any(|r| r.stream == li));
        assert!(trace.records().iter().all(|r| r.complete >= r.issue));
    }

    #[test]
    fn malformed_completion_tag_is_a_typed_error() {
        // A completion whose tag references no live step (corrupted or
        // fault-injected) must surface as EngineError, not a panic.
        let catalog = Catalog::tpch_like(0.01);
        let mut storage = four_disks();
        let rows = see_rows(catalog.len(), 4);
        let placement = Placement::build(
            &rows,
            &catalog.sizes(),
            &storage.capacities(),
            DEFAULT_STRIPE,
        )
        .unwrap();
        let workloads = [SqlWorkload::olap1_21(3)];
        let mut engine = Engine::new(
            &catalog,
            &workloads,
            &placement,
            &mut storage,
            RunConfig::default(),
        );
        let pool = BufferPool::disabled(engine.catalog.len());
        let err = engine
            .on_part_complete(99, SimTime::ZERO, &pool)
            .unwrap_err();
        assert_eq!(err, EngineError::DeadStep { slot: 99 });
        assert!(err.to_string().contains("slot 99"), "{err}");
        assert!(
            engine.enter_phase(7, SimTime::ZERO, &pool).unwrap_err()
                == EngineError::DeadQuery { slot: 7 }
        );
    }

    #[test]
    fn unknown_step_object_is_a_typed_error() {
        let catalog = Catalog::tpch_like(0.01);
        let mut storage = four_disks();
        let rows = see_rows(catalog.len(), 4);
        let placement = Placement::build(
            &rows,
            &catalog.sizes(),
            &storage.capacities(),
            DEFAULT_STRIPE,
        )
        .unwrap();
        let mut workload = SqlWorkload::olap1_21(3);
        workload.templates[5].phases[0][0].object = "NO_SUCH_TABLE".to_string();
        let workloads = [workload];
        let err = Engine::new(
            &catalog,
            &workloads,
            &placement,
            &mut storage,
            RunConfig::default(),
        )
        .run()
        .unwrap_err();
        assert_eq!(
            err,
            EngineError::UnknownObject {
                workload: 0,
                template: 5
            }
        );
        assert_eq!(
            err.to_string(),
            "engine error: template 5 of workload 0 names an object missing from the catalog"
        );
        // Resolution fails the run before any request reaches storage.
        assert!(storage.is_idle());
        assert!(storage.device_stats().iter().all(|d| d.requests() == 0));
    }

    #[test]
    fn deterministic_runs() {
        let cfg = RunConfig {
            scale: 0.01,
            pool_bytes: 0,
            ..RunConfig::default()
        };
        let a = run_olap(0.01, SqlWorkload::olap1_21(9), cfg.clone());
        let b = run_olap(0.01, SqlWorkload::olap1_21(9), cfg);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.storage_requests, b.storage_requests);
    }
}
