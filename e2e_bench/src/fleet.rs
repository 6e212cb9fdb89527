//! `fleet`: seeded synthetic tenants through the batch service.
//!
//! A pass sends [`TENANTS`] tenants through
//! `Service::advise_batch_with` in ticks of [`BATCH`] and places every
//! returned layout; one op is one tick. The policy browns out slots at
//! admission positions at or beyond [`BROWNOUT`] and sets no hard queue
//! cap, so every slot is served. This is the only workload where the
//! coarse-grained `par` fan-out, admission, deadline budgets and the
//! session snapshot/merge run.
//!
//! The traced pass re-runs each tick's tenants serially through the
//! stage functions, with the per-request seed and solve budget the
//! batch service derives for each slot.

use crate::harness::{
    check_advice, end_to_end, ensure, ensure_traced_matches, growth, place, run_cycles,
    serial_speedup, set_up, timed, Advice, CheckError, Ctx, LayerCounts, Pass, Report,
};
use crate::inputs::hash_debug;
use crate::spans::Tracer;
use crate::staged;
use crate::stats;
use wasla::core::Recommendation;
use wasla::exec::Placement;
use wasla::pipeline::DegradedNote;
use wasla::simlib::fault::SolverBudget;
use wasla::simlib::hash::Fnv64;
use wasla::simlib::par;
use wasla::storage::TargetConfig;
use wasla::stress::{fleet, tenant_request};
use wasla::workload::{DeadlineClass, SynthSpec};
use wasla::{AdviseRequest, AdvisorSession, BatchPolicy, Service, SlotDisposition, WaslaError};

/// Worker threads for this workload.
pub const THREADS: usize = 2;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Tenants per pass.
pub const TENANTS: usize = 1000;

/// Tenants per tick (one `advise_batch_with` call).
pub const BATCH: usize = 8;

/// Admission position from which slots are browned out.
pub const BROWNOUT: usize = 6;

/// The generated fleet: tenant requests on a shared set of targets.
pub struct Input {
    spec: SynthSpec,
    targets: Vec<TargetConfig>,
    requests: Vec<AdviseRequest>,
    service_seed: u64,
    policy: BatchPolicy,
}

/// Generates the tenants from `seed`.
pub fn generate(seed: u64) -> Input {
    let spec = SynthSpec {
        tenants: TENANTS,
        seed: par::task_seed(seed, 1),
        ..SynthSpec::default()
    };
    let targets = fleet(&spec);
    let requests = (0..TENANTS as u64)
        .map(|i| tenant_request(&spec, &targets, i))
        .collect();
    Input {
        spec,
        targets,
        requests,
        service_seed: par::task_seed(seed, 2),
        policy: BatchPolicy {
            brownout_threshold: Some(BROWNOUT),
            queue_capacity: None,
            ..BatchPolicy::default()
        },
    }
}

/// Content hash of everything the service is handed.
pub fn input_hash(input: &Input) -> u64 {
    let mut h = Fnv64::new();
    hash_debug(&mut h, &input.spec);
    h.write_u64(input.service_seed);
    for r in &input.requests {
        hash_debug(&mut h, &r.scenario);
        hash_debug(&mut h, &r.workloads);
        hash_debug(&mut h, &r.deadline);
    }
    h.finish()
}

/// A session holding the fleet's calibration, and nothing else.
fn prewarm(input: &Input) -> Result<AdvisorSession, WaslaError> {
    let mut session = AdvisorSession::new();
    let r = &input.requests[0];
    session.models_for(&input.targets, &r.config.grid, r.scenario.seed)?;
    Ok(session)
}

fn place_final(request: &AdviseRequest, rec: &Recommendation) -> Result<Placement, WaslaError> {
    place(
        rec.final_layout(),
        &request.scenario.catalog.sizes(),
        &request.scenario.capacities(),
    )
}

/// One slot's output: its disposition label and, when served, advice.
type Slot = (SlotDisposition, Result<Advice, WaslaError>);

fn label(tick: usize, slot: usize) -> String {
    format!("tick {tick} slot {slot}")
}

/// Checks and records one tick's slots.
fn record(pass: &mut Pass, cycle: usize, tick: usize, slots: Vec<Slot>) -> Result<(), CheckError> {
    ensure(
        slots.len() == BATCH.min(TENANTS - tick * BATCH),
        "slots_accounted",
        || format!("tick {tick}: {} slots returned", slots.len()),
    )?;
    for (s, (disposition, advice)) in slots.into_iter().enumerate() {
        let index = tick * BATCH + s;
        let what = label(tick, s);
        let result = match (disposition, advice) {
            (SlotDisposition::Ok | SlotDisposition::Degraded, Ok(advice)) => {
                let degraded = !advice.notes.is_empty();
                ensure(
                    degraded == (disposition == SlotDisposition::Degraded),
                    "slots_accounted",
                    || {
                        format!(
                            "{what}: disposition {} disagrees with its notes",
                            disposition.label()
                        )
                    },
                )?;
                Some(check_advice(&what, advice, disposition.label())?)
            }
            (SlotDisposition::Failed | SlotDisposition::Rejected, Err(_)) => None,
            (d, r) => {
                return Err(CheckError::new(
                    "slots_accounted",
                    format!(
                        "{what}: disposition {} with outcome ok={}",
                        d.label(),
                        r.is_ok()
                    ),
                ))
            }
        };
        if disposition == SlotDisposition::Rejected {
            pass.outcomes.refused += 1;
            pass.outcomes.attempted += 1;
            pass.repeats.observe(cycle, index, 0, &what)?;
        } else {
            pass.record(cycle, index, &what, result)?;
        }
    }
    Ok(())
}

/// Per-pass service facts the traced run reports.
#[derive(Default)]
struct ServiceFacts {
    decision_log: String,
    shed: u64,
    rejected: u64,
    retries: u64,
    calib: wasla::core::CacheStats,
    fit: wasla::core::CacheStats,
    fits_cached: usize,
}

/// One untraced pass: a fresh service holding only the prewarmed
/// calibration, every tick timed with its placements.
fn service_pass(
    input: &Input,
    warm: &AdvisorSession,
    pass: &mut Pass,
    cycle: usize,
) -> Result<ServiceFacts, CheckError> {
    let mut service = Service::new(input.service_seed);
    *service.session_mut() = warm.clone();
    let mut facts = ServiceFacts::default();
    for (tick, requests) in input.requests.chunks(BATCH).enumerate() {
        let ((report, placements), time) = timed(|| {
            let report = service.advise_batch_with(requests, &input.policy);
            let placements: Vec<Option<Result<Placement, WaslaError>>> = report
                .outcomes
                .iter()
                .zip(requests)
                .map(|(o, r)| o.as_ref().ok().map(|o| place_final(r, &o.recommendation)))
                .collect();
            (report, placements)
        });
        pass.ops.push(time);

        facts.decision_log.push_str(&format!("tick={tick}\n"));
        facts.decision_log.push_str(&report.render_decisions());
        for d in &report.decisions {
            facts.shed += d.shed as u64;
            facts.rejected += (d.disposition == SlotDisposition::Rejected) as u64;
            facts.retries += d.backoff.len() as u64;
        }
        ensure(
            report.decisions.len() == report.outcomes.len(),
            "slots_accounted",
            || {
                format!(
                    "tick {tick}: {} decisions for {} outcomes",
                    report.decisions.len(),
                    report.outcomes.len()
                )
            },
        )?;
        let slots: Vec<Slot> = report
            .outcomes
            .into_iter()
            .zip(report.decisions)
            .zip(placements)
            .map(|((outcome, decision), placement)| {
                let advice = outcome.map(|o| Advice {
                    problem: o.problem,
                    rec: o.recommendation,
                    notes: o.degraded,
                    placement: placement
                        .unwrap_or_else(|| Err(WaslaError::Internal("no placement".to_string()))),
                });
                (decision.disposition, advice)
            })
            .collect();
        record(pass, cycle, tick, slots)?;
    }
    let stats = service.session().stats();
    facts.calib = stats.calibration;
    facts.fit = stats.fit;
    facts.fits_cached = service.session().fits_cached();
    Ok(facts)
}

/// Admission positions of one tick: by deadline priority, then index
/// (the batch service's admission order).
fn positions(requests: &[AdviseRequest]) -> Vec<usize> {
    let priority = |i: usize| {
        requests[i]
            .deadline
            .map_or(DeadlineClass::Standard.priority(), |c| c.priority())
    };
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by_key(|&i| (priority(i), i));
    let mut position = vec![0; requests.len()];
    for (pos, &i) in order.iter().enumerate() {
        position[i] = pos;
    }
    position
}

/// The first-attempt solve budget of a slot: the cheapest rung when
/// browned out, else its deadline class's rung.
fn budget(request: &AdviseRequest, shed: bool) -> Option<SolverBudget> {
    if shed {
        return Some(SolverBudget::GreedyOnly);
    }
    match request.deadline {
        Some(DeadlineClass::Interactive) => Some(SolverBudget::Tight),
        _ => None,
    }
}

/// The traced pass: every tick's slots serially through the stages.
fn traced_pass(
    input: &Input,
    warm: &AdvisorSession,
    tracer: &mut Tracer,
    counts: &mut LayerCounts,
) -> Result<Pass, CheckError> {
    let mut pass = Pass {
        cycles: 1,
        ..Pass::default()
    };
    let mut session = warm.clone();
    for (tick, requests) in input.requests.chunks(BATCH).enumerate() {
        let op = tracer.begin_op();
        let plan = tracer.time("admission", || {
            let position = positions(requests);
            requests
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let shed = position[i] >= BROWNOUT;
                    let mut config = r.config.clone();
                    config.advisor.seed = r
                        .seed
                        .unwrap_or_else(|| par::task_seed(input.service_seed, i as u64));
                    config.advisor.solve_budget = budget(r, shed);
                    (config, shed.then_some(position[i]))
                })
                .collect::<Vec<_>>()
        });
        let mut slots: Vec<Slot> = Vec::with_capacity(requests.len());
        for (r, (config, shed_at)) in requests.iter().zip(plan) {
            let staged = staged::advise(&mut session, &r.scenario, &r.workloads, &config, tracer);
            let advice = staged.map(|mut s| {
                if let Some(position) = shed_at {
                    s.notes.push(DegradedNote::Shed {
                        position,
                        threshold: BROWNOUT,
                    });
                }
                counts.exec_records += s.records as f64;
                let placement = tracer.time("place", || place_final(r, &s.rec));
                Advice {
                    problem: s.problem,
                    rec: s.rec,
                    notes: s.notes,
                    placement,
                }
            });
            let disposition = match &advice {
                Ok(a) if !a.notes.is_empty() => SlotDisposition::Degraded,
                Ok(_) => SlotDisposition::Ok,
                Err(_) => SlotDisposition::Failed,
            };
            slots.push((disposition, advice));
        }
        tracer.end(op);
        record(&mut pass, 0, tick, slots)?;
    }
    Ok(pass)
}

/// Runs the workload and fills `report`.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), CheckError> {
    let ((input, warm), setup_s) = set_up(SETUP_REPS, report, || {
        let input = generate(ctx.seed);
        let warm = prewarm(&input).map_err(|e| CheckError::new("setup", e.to_string()))?;
        let hash = input_hash(&input);
        Ok(((input, warm), hash))
    })?;
    report.fact("tenants", TENANTS);
    report.fact("batch", BATCH);
    report.fact("brownout_threshold", BROWNOUT);

    // Every pass runs on a fresh service; the decision logs of two
    // same-seed passes must be identical, so an untraced run makes at
    // least two. A traced run compares one pass with its traced pass.
    let mut pass = Pass::default();
    let mut first_pass_ms = Vec::new();
    let mut first_log: Option<String> = None;
    let mut first_facts = ServiceFacts::default();
    let (budget, min_passes) = if ctx.trace {
        (ctx.budget() / 2, 1)
    } else {
        (ctx.budget(), 2)
    };
    (pass.cycles, pass.peak_rss_mb) = run_cycles(budget, min_passes, |cycle| {
        let facts = service_pass(&input, &warm, &mut pass, cycle)?;
        match &first_log {
            None => {
                first_log = Some(facts.decision_log.clone());
                first_pass_ms = pass.op_ms();
                first_facts = facts;
            }
            Some(log) => ensure(*log == facts.decision_log, "decision_log_repeats", || {
                format!("pass {cycle} decision log differs from pass 0")
            })?,
        }
        Ok(())
    })?;
    report.fact("cycles", pass.cycles);
    report.fact(
        "decision_log_bytes",
        first_log.as_ref().map_or(0, |l| l.len()),
    );

    if !ctx.trace {
        end_to_end(report, &pass.measured(setup_s));
        return Ok(());
    }

    let mut tracer = Tracer::new();
    let mut counts = LayerCounts::default();
    let traced = traced_pass(&input, &warm, &mut tracer, &mut counts)?;
    ensure_traced_matches(pass.repeats.digests(), traced.repeats.digests())?;
    let ticks = first_pass_ms.len().max(1) as f64;
    counts.exec_records /= ticks;
    counts.solve_degraded = traced.solve_degraded as f64 / ticks;
    counts.calib_hit_ratio = stats::share(first_facts.calib.hits, first_facts.calib.lookups());
    counts.fit_hit_ratio = stats::share(first_facts.fit.hits, first_facts.fit.lookups());
    counts.fits_cached = first_facts.fits_cached as f64;
    counts.tick_growth = growth(&first_pass_ms);
    counts.shed = first_facts.shed as f64 / ticks;
    counts.rejected = first_facts.rejected as f64 / ticks;
    counts.retries = first_facts.retries as f64 / ticks;
    counts.par_speedup = serial_speedup(&tracer, 1, first_pass_ms.iter().sum());
    report.attempted = traced.outcomes.attempted;
    report.failed = traced.outcomes.errors();
    crate::harness::per_layer(report, &tracer, &counts, &first_pass_ms);
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
}
