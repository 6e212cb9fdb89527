//! `cold_sweep`: a capacity-planning sweep of one-shot cold advises.
//!
//! Each op advises one of the paper's target configurations from a
//! fresh session with the full-fidelity config, then places the
//! result. It is the only workload where calibration runs, and where
//! the fine-grained `par` fan-out (calibration grid points, solver
//! multistart) is on.

use crate::harness::{
    check_advice, end_to_end, ensure_traced_matches, place, run_cycles, serial_speedup, set_up,
    timed, Advice, CheckError, Ctx, LayerCounts, OpTime, Pass, Report, POOL,
};
use crate::inputs::hash_debug;
use crate::spans::Tracer;
use crate::staged;
use crate::stats;
use std::time::Duration;
use wasla::core::{CacheStats, Recommendation};
use wasla::exec::Placement;
use wasla::pipeline::{AdviseConfig, Scenario, SSD_BYTES};
use wasla::simlib::hash::Fnv64;
use wasla::simlib::SimRng;
use wasla::workload::SqlWorkload;
use wasla::{AdvisorSession, WaslaError};

/// Worker threads for this workload.
pub const THREADS: usize = 2;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Inputs in the pool.
const INPUTS: usize = 3 * POOL;

/// The paper's target configurations, visited in turn.
const CONFIGS: [&str; 4] = [
    "homogeneous_disks_4",
    "config_3_1",
    "config_2_1_1",
    "disks_plus_ssd",
];

/// Scale range of the sweep.
const SCALE_LO: f64 = 0.01;
const SCALE_HI: f64 = 0.05;

/// One generated sweep input.
pub struct Input {
    label: String,
    scenario: Scenario,
    workloads: Vec<SqlWorkload>,
}

/// The seeded pool. Input `k` takes configuration `k mod 4` and a
/// scale drawn inside the `k`-th of [`INPUTS`] equal strata of the scale
/// range, so every seed covers the whole range the same way; the
/// workload alternates between OLAP1-21 and OLAP8-63 with a seeded
/// query order.
pub fn generate(seed: u64) -> Vec<Input> {
    let mut rng = SimRng::new(seed);
    (0..INPUTS)
        .map(|k| {
            let config = CONFIGS[k % CONFIGS.len()];
            let u = rng.uniform();
            let scale = SCALE_LO + (SCALE_HI - SCALE_LO) * (k as f64 + u) / INPUTS as f64;
            let scenario = match config {
                "homogeneous_disks_4" => Scenario::homogeneous_disks(4, scale),
                "config_3_1" => Scenario::config_3_1(scale),
                "config_2_1_1" => Scenario::config_2_1_1(scale),
                _ => Scenario::disks_plus_ssd(scale, SSD_BYTES),
            };
            let wseed = rng.below(1 << 20);
            let workload = if (k + k / CONFIGS.len()).is_multiple_of(2) {
                SqlWorkload::olap1_21(wseed)
            } else {
                SqlWorkload::olap8_63(wseed)
            };
            Input {
                label: format!("{config}@{scale:.4}/{}#{wseed}", workload.name),
                scenario,
                workloads: vec![workload],
            }
        })
        .collect()
}

/// Content hash of a pool: everything the advisor is handed.
pub fn input_hash(pool: &[Input]) -> u64 {
    let mut h = Fnv64::new();
    for input in pool {
        hash_debug(&mut h, &input.scenario);
        hash_debug(&mut h, &input.workloads);
    }
    h.finish()
}

fn place_final(input: &Input, rec: &Recommendation) -> Result<Placement, WaslaError> {
    place(
        rec.final_layout(),
        &input.scenario.catalog.sizes(),
        &input.scenario.capacities(),
    )
}

/// The untraced op: a cold `advise` plus `PlaceStage`. Returns the
/// advice, the trace-collection run's record count, and the op time.
fn op(input: &Input, config: &AdviseConfig) -> (Result<(Advice, usize), WaslaError>, OpTime) {
    timed(|| {
        let outcome = AdvisorSession::new().advise(&input.scenario, &input.workloads, config)?;
        let placement = place_final(input, &outcome.recommendation);
        let records = outcome.baseline_run.trace.as_ref().map_or(0, |t| t.len());
        Ok((
            Advice {
                problem: outcome.problem,
                rec: outcome.recommendation,
                notes: outcome.degraded,
                placement,
            },
            records,
        ))
    })
}

fn record(
    pass: &mut Pass,
    cycle: usize,
    i: usize,
    input: &Input,
    advised: Result<(Advice, usize), WaslaError>,
) -> Result<(), CheckError> {
    // An op that errors is a failed op, not a failed check.
    let result = match advised {
        Ok((advice, records)) => Some(check_advice(&input.label, advice, &records.to_string())?),
        Err(_) => None,
    };
    pass.record(cycle, i, &input.label, result)
}

fn untraced_pass(
    pool: &[Input],
    config: &AdviseConfig,
    budget: Duration,
) -> Result<Pass, CheckError> {
    let mut pass = Pass::default();
    (pass.cycles, pass.peak_rss_mb) = run_cycles(budget, 1, |cycle| {
        for (i, input) in pool.iter().enumerate() {
            let (advised, time) = op(input, config);
            pass.ops.push(time);
            record(&mut pass, cycle, i, input, advised)?;
        }
        Ok(())
    })?;
    Ok(pass)
}

/// `cycles` traced cycles, each op on a fresh session composed stage
/// by stage.
fn traced_pass(
    pool: &[Input],
    config: &AdviseConfig,
    cycles: usize,
    tracer: &mut Tracer,
    counts: &mut LayerCounts,
) -> Result<Pass, CheckError> {
    let mut pass = Pass {
        cycles,
        ..Pass::default()
    };
    let (mut calib, mut fit) = (CacheStats::default(), CacheStats::default());
    for cycle in 0..cycles {
        for (i, input) in pool.iter().enumerate() {
            let mut session = AdvisorSession::new();
            let op = tracer.begin_op();
            let staged = staged::advise(
                &mut session,
                &input.scenario,
                &input.workloads,
                config,
                tracer,
            )
            .map(|s| {
                let placement = tracer.time("place", || place_final(input, &s.rec));
                let advice = Advice {
                    problem: s.problem,
                    rec: s.rec,
                    notes: s.notes,
                    placement,
                };
                (advice, s.records)
            });
            tracer.end(op);
            let stats = session.stats();
            if let Ok((_, records)) = &staged {
                counts.exec_records += *records as f64;
            }
            counts.model_tables += stats.calibration.misses as f64;
            counts.fits_cached += session.fits_cached() as f64;
            calib.hits += stats.calibration.hits;
            calib.misses += stats.calibration.misses;
            fit.hits += stats.fit.hits;
            fit.misses += stats.fit.misses;
            record(&mut pass, cycle, i, input, staged)?;
        }
    }
    let ops = pass.outcomes.attempted.max(1) as f64;
    counts.exec_records /= ops;
    counts.model_tables /= ops;
    counts.fits_cached /= ops;
    counts.solve_degraded = pass.solve_degraded as f64 / ops;
    counts.calib_hit_ratio = stats::share(calib.hits, calib.lookups());
    counts.fit_hit_ratio = stats::share(fit.hits, fit.lookups());
    Ok(pass)
}

/// Runs the workload and fills `report`.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), CheckError> {
    let config = AdviseConfig::full();
    let (pool, setup_s) = set_up(SETUP_REPS, report, || {
        let pool = generate(ctx.seed);
        // Warm-up: lazy allocation and first-touch costs are paid
        // before timing starts.
        let _ = op(&pool[0], &config);
        let hash = input_hash(&pool);
        Ok((pool, hash))
    })?;
    report.fact("pool_size", pool.len());

    if !ctx.trace {
        let pass = untraced_pass(&pool, &config, ctx.budget())?;
        report.fact("cycles", pass.cycles);
        end_to_end(report, &pass.measured(setup_s));
        return Ok(());
    }

    // Traced run: an untraced pass, the same cycles traced at this
    // workload's thread count, then one cycle traced on one thread to
    // measure what the fine-grained fan-out buys.
    let untraced = untraced_pass(&pool, &config, ctx.budget() / 3)?;
    let mut tracer = Tracer::new();
    let mut counts = LayerCounts::default();
    let traced = traced_pass(&pool, &config, untraced.cycles, &mut tracer, &mut counts)?;
    ensure_traced_matches(untraced.repeats.digests(), traced.repeats.digests())?;
    std::env::set_var("WASLA_THREADS", "1");
    let mut serial_tracer = Tracer::new();
    let serial = traced_pass(
        &pool,
        &config,
        1,
        &mut serial_tracer,
        &mut LayerCounts::default(),
    );
    std::env::set_var("WASLA_THREADS", THREADS.to_string());
    ensure_traced_matches(untraced.repeats.digests(), serial?.repeats.digests())?;
    counts.par_speedup = serial_speedup(&serial_tracer, 1, untraced.cycle_ms());
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
        let pool = generate(7);
        assert_eq!(pool.len(), INPUTS);
        for (k, input) in pool.iter().enumerate() {
            let lo = SCALE_LO + (SCALE_HI - SCALE_LO) * k as f64 / INPUTS as f64;
            let hi = SCALE_LO + (SCALE_HI - SCALE_LO) * (k + 1) as f64 / INPUTS as f64;
            assert!((lo..hi).contains(&input.scenario.scale), "{}", input.label);
        }
    }
}
