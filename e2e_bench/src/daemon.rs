//! `daemon`: seeded drifting op-logs through the re-layout loop.
//!
//! Each op runs `Service::run_loop` over one generated log on a
//! service that holds only the prewarmed calibrations, then places the
//! final deployed layout. The logs cover four drift shapes (hotspot
//! rotation, rate ramp, object growth, target failure) on the TPC-H and
//! TPC-C catalogs. This is the only workload where `core::dynamic`
//! runs: drift detection on every tick, a budgeted re-plan on the
//! ticks that drifted.
//!
//! The traced pass makes the loop's layer calls itself —
//! `windowed_workloads`, `detect_drift` per window, and
//! `readvise_incremental` on the ticks that re-plan — and must
//! reproduce the loop's decision log byte for byte.

use crate::harness::{
    end_to_end, ensure, ensure_traced_matches, place, run_cycles, serial_speedup, set_up, timed,
    CheckError, Ctx, LayerCounts, OpTime, Pass, Report, MIB, POOL,
};
use crate::inputs::hash_debug;
use crate::spans::Tracer;
use crate::staged;
use crate::stats;
use std::time::Duration;
use wasla::core::dynamic::{
    detect_drift, problem_without, readvise_incremental, DynamicOptions, MigrationBudget,
};
use wasla::core::CacheStats;
use wasla::daemon::{ControllerState, DaemonConfig, DaemonReport, TargetFailure, TickDecision};
use wasla::pipeline::{assemble_problem, AdviseConfig, DegradedNote, Scenario};
use wasla::simlib::hash::{hash_json, Fnv64};
use wasla::simlib::json::to_string_pretty;
use wasla::simlib::time::SimTime;
use wasla::simlib::{par, SimRng};
use wasla::storage::IoKind;
use wasla::trace::oplog::{windowed_workloads, OpLog, OpRecord, WindowPlan};
use wasla::{AdvisorSession, Service, WaslaError};

/// Worker threads for this workload.
pub const THREADS: usize = 1;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 25;

/// Logs in the pool.
const INPUTS: usize = 3 * POOL;

/// Database scale of both catalogs.
const SCALE: f64 = 0.05;

/// Pane length (the controller's tick period), seconds.
const PANE_S: f64 = 2.0;

/// Panes per log.
const PANES: usize = 120;

/// Hotspot rotation period, seconds.
const ROTATION_S: f64 = 24.0;

/// The drift shapes a log moves through.
#[derive(Clone, Copy, Debug)]
enum Shape {
    HotspotRotation,
    RateRamp,
    ObjectGrowth,
}

/// Every log holds one phase of each shape, in a seeded order, so the
/// loop's cost per log varies little from log to log and seed to seed.
const SHAPES: [Shape; 3] = [Shape::HotspotRotation, Shape::RateRamp, Shape::ObjectGrowth];

/// Every how-many-th log also loses a target mid-stream.
const FAILURE_EVERY: usize = 5;

/// One generated log with the loop configuration it runs under.
pub struct Input {
    label: String,
    scenario: Scenario,
    log: OpLog,
    daemon: DaemonConfig,
}

/// A synthetic stream of [`PANES`] panes: one equal phase per shape,
/// in the order given, around the given hot objects. Every fifth
/// request is an 8 KiB write, the rest 128 KiB reads.
fn synth(phases: &[Shape], hot: &[u64], sizes: &[u64]) -> OpLog {
    let n = sizes.len() as u64;
    let total_s = PANE_S * PANES as f64;
    let phase_s = total_s / phases.len() as f64;
    let mut log = OpLog::new();
    let (mut t, mut k) = (0.0f64, 0u64);
    while t < total_s {
        let phase = ((t / phase_s) as usize).min(phases.len() - 1);
        // Progress through the current phase, 0 → 1.
        let frac = (t - phase as f64 * phase_s) / phase_s;
        let (stream, span_frac, dt) = match phases[phase] {
            // The hotspot rotates through the hot list; steady 50 ops/s.
            Shape::HotspotRotation => {
                let h = hot[((t / ROTATION_S) as usize) % hot.len()];
                (if k % 4 == 0 { k % n } else { h }, 1.0, 0.020)
            }
            // A fixed hotspot while the interarrival shrinks 40 → 10 ms.
            Shape::RateRamp => (
                if k % 4 == 0 { k % n } else { hot[phase] },
                1.0,
                0.040 - 0.030 * frac,
            ),
            // One object takes a growing share of a growing span.
            Shape::ObjectGrowth => {
                let p10 = 1 + (8.0 * frac) as u64;
                (
                    if k % 10 < p10 { hot[phase] } else { k % n },
                    0.2 + 0.8 * frac,
                    0.020,
                )
            }
        };
        let size = sizes[stream as usize];
        let len = if k % 5 == 0 { 8192 } else { 131_072 };
        let span = ((size as f64 * span_frac) as u64)
            .min(size)
            .saturating_sub(len)
            .max(1);
        log.push(OpRecord {
            kind: if k % 5 == 0 {
                IoKind::Write
            } else {
                IoKind::Read
            },
            stream: stream as u32,
            offset: k.wrapping_mul(131_072) % span,
            len,
            issue: SimTime::from_secs(t),
            complete: SimTime::from_secs(t + 0.004),
        });
        t += dt;
        k += 1;
    }
    log
}

/// The pool: [`INPUTS`] logs alternating between the TPC-H and TPC-C
/// catalogs. Log `k`'s stream is fixed by `k` — its phase order and hot
/// objects — and so is, for every [`FAILURE_EVERY`]-th log, which
/// target fails; the seed sets the tick it fails at, within the middle
/// third of the stream. The loop's re-plan decisions react strongly to
/// small changes in the stream: with the seed also moving request
/// offsets, the median op time varied by a fifth from seed to seed, so
/// the seed is kept to the failure ticks; with failures anywhere from
/// tick 10 to 110 it still varied by a tenth.
pub fn generate(seed: u64) -> Vec<Input> {
    let catalogs = [
        ("tpch", Scenario::homogeneous_disks(4, SCALE)),
        ("tpcc", Scenario::oltp_disks(SCALE)),
    ];
    (0..INPUTS)
        .map(|k| {
            let (catalog, scenario) = &catalogs[k % catalogs.len()];
            let sizes = scenario.catalog.sizes();
            let n = sizes.len();
            let m = scenario.targets.len();
            // Loose enough that a move rarely waits many ticks for
            // budget, so re-plans follow the drift itself.
            let budget = (sizes.iter().sum::<u64>() / 8).max(1 << 20);
            let mut phases = SHAPES;
            phases.rotate_left(k % SHAPES.len());
            if (k / SHAPES.len()) % 2 == 1 {
                phases.swap(1, 2);
            }
            let hot: Vec<u64> = (0..8).map(|j| ((k + 3 * j) % n) as u64).collect();
            let log = synth(&phases, &hot, &sizes);
            let target_failures = if k % FAILURE_EVERY == FAILURE_EVERY - 1 {
                vec![TargetFailure {
                    tick: 40 + SimRng::new(par::task_seed(seed, k as u64)).below(40),
                    target: k % m,
                }]
            } else {
                Vec::new()
            };
            Input {
                label: format!("{catalog}#{k}{phases:?}"),
                scenario: scenario.clone(),
                log,
                daemon: DaemonConfig {
                    window: WindowPlan {
                        pane_s: PANE_S,
                        panes_per_window: 2,
                    },
                    drift_threshold: 0.10,
                    budget_bytes_per_tick: budget,
                    alpha: 0.0,
                    carry_cap_ticks: 8,
                    target_failures,
                },
            }
        })
        .collect()
}

/// Content hash of the pool: logs, scenarios and loop settings.
pub fn input_hash(pool: &[Input]) -> u64 {
    let mut h = Fnv64::new();
    for input in pool {
        hash_debug(&mut h, &input.scenario);
        hash_debug(&mut h, &input.daemon);
        h.write_u64(input.log.len() as u64)
            .write_u64(input.log.trace_content_hash());
    }
    h.finish()
}

/// A session holding the calibrations both catalogs need.
fn prewarm(pool: &[Input], config: &AdviseConfig) -> Result<AdvisorSession, WaslaError> {
    let mut session = AdvisorSession::new();
    for input in pool {
        let s = &input.scenario;
        session.models_for(&s.targets, &config.grid, s.seed)?;
    }
    Ok(session)
}

/// What one loop run produced.
struct LoopOut {
    decisions: Vec<TickDecision>,
    state: ControllerState,
    degraded: Vec<DegradedNote>,
    placement: Result<wasla::exec::Placement, WaslaError>,
}

/// Checks one loop run and reduces it to its metrics.
struct OpResult {
    digest: u64,
    max_util: f64,
    moved_mb: f64,
    degraded: bool,
    replans: u64,
    moves: u64,
    deferred_mb: f64,
}

fn check(input: &Input, out: LoopOut) -> Result<OpResult, CheckError> {
    let label = &input.label;
    let placement = out
        .placement
        .map_err(|e| CheckError::new("placeable", format!("{label}: {e}")))?;
    ensure(out.decisions.len() == PANES, "every_pane_decided", || {
        format!(
            "{label}: {} decisions for {PANES} panes",
            out.decisions.len()
        )
    })?;
    let budget = input.daemon.budget_bytes_per_tick;
    let mut admitted = 0u64;
    for (i, d) in out.decisions.iter().enumerate() {
        admitted += d.admitted_bytes;
        let granted = budget.saturating_mul(i as u64 + 1);
        ensure(admitted <= granted, "admitted_within_budget", || {
            format!(
                "{label}: tick {}: cumulative admitted {admitted} B over granted {granted} B",
                d.tick
            )
        })?;
    }
    for &target in &out.state.failed_targets {
        for i in 0..out.state.deployed.n_objects() {
            let mass = out.state.deployed.row(i)[target];
            ensure(mass <= 1e-9, "failed_target_evacuated", || {
                format!("{label}: object {i} keeps {mass} on failed target {target}")
            })?;
        }
    }
    let mut h = Fnv64::new();
    h.write_str(&to_string_pretty(&out.decisions))
        .write_str(&to_string_pretty(&out.state))
        .write_u64(hash_json(&placement));
    for note in &out.degraded {
        h.write_str(&note.to_string());
    }
    let util: Vec<f64> = out
        .decisions
        .iter()
        .map(|d| d.new_max_utilization)
        .collect();
    Ok(OpResult {
        digest: h.finish(),
        max_util: stats::mean(&util),
        moved_mb: (out.state.admitted_bytes_total + out.state.forced_bytes_total) as f64 / MIB,
        degraded: !out.degraded.is_empty(),
        replans: out.decisions.iter().filter(|d| d.resolved).count() as u64,
        moves: out.decisions.iter().map(|d| d.moves).sum(),
        deferred_mb: out.decisions.iter().map(|d| d.deferred_bytes).sum::<u64>() as f64 / MIB,
    })
}

fn place_deployed(
    input: &Input,
    state: &ControllerState,
) -> Result<wasla::exec::Placement, WaslaError> {
    place(
        &state.deployed,
        &input.scenario.catalog.sizes(),
        &input.scenario.capacities(),
    )
}

/// The untraced op: one `run_loop` over one log, then place.
fn op(
    input: &Input,
    warm: &AdvisorSession,
    config: &AdviseConfig,
) -> (Result<LoopOut, WaslaError>, OpTime) {
    let mut service = Service::new(input.scenario.seed);
    *service.session_mut() = warm.clone();
    timed(|| {
        let report: DaemonReport =
            service.run_loop(&input.log, &input.scenario, config, &input.daemon)?;
        let placement = place_deployed(input, &report.state);
        Ok(LoopOut {
            decisions: report.decisions,
            state: report.state,
            degraded: report.degraded,
            placement,
        })
    })
}

/// The traced op: the loop's layer calls, made here, in the loop's
/// order and with its state transitions.
fn traced_op(
    input: &Input,
    session: &mut AdvisorSession,
    config: &AdviseConfig,
    tracer: &mut Tracer,
) -> Result<LoopOut, WaslaError> {
    let scenario = &input.scenario;
    let daemon = &input.daemon;
    let names = scenario.catalog.names();
    let sizes = scenario.catalog.sizes();
    let (n, m) = (names.len(), scenario.targets.len());
    let mut degraded = Vec::new();
    let snapshots = tracer.time("trace.window", || {
        windowed_workloads(&input.log, &names, &sizes, &config.fit, &daemon.window)
    })?;
    let models = tracer.time("model", || -> Result<_, WaslaError> {
        let models = session.models_for(&scenario.targets, &config.grid, scenario.seed)?;
        staged::calibration_notes(scenario, &mut degraded)?;
        Ok(models)
    })?;
    let mut state = ControllerState::cold(n, m);
    let carry_cap = daemon
        .budget_bytes_per_tick
        .saturating_mul(daemon.carry_cap_ticks);
    let dynamic = DynamicOptions {
        migrate_threshold: 0.0,
    };
    let mut first_tick = true;
    let mut decisions = Vec::with_capacity(snapshots.len());
    for snap in &snapshots {
        let tick = snap.tick;
        let mut notes = Vec::new();
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
        let problem = tracer.time("assemble", || {
            let base = assemble_problem(
                scenario,
                snap.workloads.clone(),
                models.clone(),
                config.constraints.clone(),
            );
            if state.failed_targets.is_empty() {
                base
            } else {
                problem_without(&base, &state.failed_targets)
            }
        });
        let mut drift = tracer.time("dynamic.detect", || {
            detect_drift(
                &problem,
                &state.deployed,
                state.baseline_max_utilization,
                daemon.drift_threshold,
            )
        });
        if first_tick {
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
            let plan = tracer.time("dynamic.replan", || {
                readvise_incremental(&problem, &state.deployed, &advisor, &dynamic, &budget)
            })?;
            state.carry_bytes = plan.budget_left.min(carry_cap);
            state.admitted_bytes_total = state
                .admitted_bytes_total
                .saturating_add(plan.admitted_bytes);
            state.forced_bytes_total = state.forced_bytes_total.saturating_add(plan.forced_bytes);
            state.deployed = plan.layout.clone();
            if plan.deferred_moves == 0 {
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
    let placement = tracer.time("place", || place_deployed(input, &state));
    Ok(LoopOut {
        decisions,
        state,
        degraded,
        placement,
    })
}

/// Per-op dynamic-layer counts of one pass's first cycle.
#[derive(Default)]
struct DynamicCounts {
    replans: u64,
    moves: u64,
    deferred_mb: f64,
}

fn record(
    pass: &mut Pass,
    dyn_counts: &mut DynamicCounts,
    cycle: usize,
    i: usize,
    input: &Input,
    out: Result<LoopOut, WaslaError>,
) -> Result<(), CheckError> {
    pass.outcomes.attempted += 1;
    let digest = match out {
        Ok(out) => {
            let r = check(input, out)?;
            if cycle == 0 {
                pass.max_util.push(r.max_util);
                pass.moved_mb.push(r.moved_mb);
                dyn_counts.replans += r.replans;
                dyn_counts.moves += r.moves;
                dyn_counts.deferred_mb += r.deferred_mb;
            }
            pass.outcomes.degraded += r.degraded as u64;
            r.digest
        }
        Err(_) => {
            pass.outcomes.failed += 1;
            0
        }
    };
    pass.repeats.observe(cycle, i, digest, &input.label)
}

fn untraced_pass(
    pool: &[Input],
    warm: &AdvisorSession,
    config: &AdviseConfig,
    budget: Duration,
) -> Result<Pass, CheckError> {
    let mut pass = Pass::default();
    let mut dyn_counts = DynamicCounts::default();
    (pass.cycles, pass.peak_rss_mb) = run_cycles(budget, 1, |cycle| {
        for (i, input) in pool.iter().enumerate() {
            let (out, time) = op(input, warm, config);
            pass.ops.push(time);
            record(&mut pass, &mut dyn_counts, cycle, i, input, out)?;
        }
        Ok(())
    })?;
    Ok(pass)
}

/// Runs the workload and fills `report`.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), CheckError> {
    let config = AdviseConfig::fast();
    let ((pool, warm), setup_s) = set_up(SETUP_REPS, report, || {
        let pool = generate(ctx.seed);
        let warm = prewarm(&pool, &config).map_err(|e| CheckError::new("setup", e.to_string()))?;
        let hash = input_hash(&pool);
        Ok(((pool, warm), hash))
    })?;
    report.fact("pool_size", pool.len());
    report.fact("panes", PANES);

    if !ctx.trace {
        let pass = untraced_pass(&pool, &warm, &config, ctx.budget())?;
        report.fact("cycles", pass.cycles);
        end_to_end(report, &pass.measured(setup_s));
        return Ok(());
    }

    let untraced = untraced_pass(&pool, &warm, &config, ctx.budget() / 2)?;
    let mut tracer = Tracer::new();
    let mut traced = Pass {
        cycles: untraced.cycles,
        ..Pass::default()
    };
    let mut dyn_counts = DynamicCounts::default();
    let mut calib = CacheStats::default();
    for cycle in 0..untraced.cycles {
        for (i, input) in pool.iter().enumerate() {
            let mut session = warm.clone();
            let before = session.stats().calibration;
            let op = tracer.begin_op();
            let out = traced_op(input, &mut session, &config, &mut tracer);
            tracer.end(op);
            let after = session.stats().calibration;
            calib.hits += after.hits - before.hits;
            calib.misses += after.misses - before.misses;
            record(&mut traced, &mut dyn_counts, cycle, i, input, out)?;
        }
    }
    ensure_traced_matches(untraced.repeats.digests(), traced.repeats.digests())?;
    let ops = pool.len().max(1) as f64;
    let counts = LayerCounts {
        replans: dyn_counts.replans as f64 / ops,
        moves: dyn_counts.moves as f64 / ops,
        deferred_mb: dyn_counts.deferred_mb / ops,
        model_tables: calib.misses as f64 / traced.outcomes.attempted.max(1) as f64,
        calib_hit_ratio: stats::share(calib.hits, calib.lookups()),
        par_speedup: serial_speedup(&tracer, untraced.cycles, untraced.cycle_ms()),
        ..LayerCounts::default()
    };
    report.fact("cycles", untraced.cycles);
    report.attempted = traced.outcomes.attempted;
    report.failed = traced.outcomes.errors();
    crate::harness::per_layer(report, &tracer, &counts, &untraced.op_ms());
    report.spans = Some(tracer.to_jsonl());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        let a = input_hash(&generate(7));
        assert_eq!(a, input_hash(&generate(7)), "same seed, same inputs");
        assert_ne!(a, input_hash(&generate(8)), "another seed, other inputs");
    }

    #[test]
    fn logs_cover_every_pane() {
        for input in generate(7) {
            let span = input.log.span().as_secs();
            assert!(
                span > PANE_S * (PANES - 1) as f64,
                "{}: {span}",
                input.label
            );
            assert!(span < PANE_S * PANES as f64, "{}: {span}", input.label);
        }
    }
}
