//! `oplog_replay`: a warm service advising from captured op-logs.
//!
//! Set-up captures a seeded pool of op-logs and renders them as TSV
//! text, then prewarms the calibrations. Each op parses one log,
//! advises from it and places the result, on a session that holds
//! only the prewarmed calibrations: every fit misses and every
//! calibration hits. No simulation, no calibration and no `par`
//! fan-out runs inside an op, so this workload is the control for
//! changes to those layers.

use crate::harness::{
    check_advice, end_to_end, ensure, ensure_traced_matches, place, run_cycles, serial_speedup,
    set_up, timed, Advice, CheckError, Ctx, LayerCounts, OpTime, Pass, Report,
};
use crate::spans::Tracer;
use crate::staged;
use crate::stats;
use std::time::Duration;
use wasla::core::{CacheStats, Recommendation};
use wasla::exec::Placement;
use wasla::pipeline::{assemble_problem, AdviseConfig, DegradedNote, RunSettings, Scenario};
use wasla::simlib::hash::Fnv64;
use wasla::simlib::SimRng;
use wasla::trace::oplog::OpLog;
use wasla::workload::SqlWorkload;
use wasla::{capture_oplog, AdvisorSession, WaslaError};

/// Worker threads for this workload.
pub const THREADS: usize = 1;

/// Set-up repetitions; `setup_s` is their median. Set-up runs the
/// capture simulations, so it is repeated fewer times than elsewhere.
const SETUP_REPS: usize = 3;

/// Logs in the pool: five of each kind, so the 90th percentile lands
/// on the middle log of the costliest kind rather than on one draw.
const INPUTS: usize = 25;

/// Database scale of every captured log.
const SCALE: f64 = 0.05;

/// Simulated-seconds cap on captures that run OLTP terminals: an
/// OLTP run has no natural end (see the benchmark notes).
const OLTP_MAX_TIME_S: f64 = 40.0;

/// One captured log, as the service receives it.
pub struct Source {
    label: &'static str,
    scenario: Scenario,
    text: String,
    /// `trace_content_hash` of the captured log.
    hash: u64,
}

/// The captured kinds, visited in turn: scan-heavy OLAP logs on three
/// target configurations, a write-heavy OLTP log, and a consolidated
/// OLAP + OLTP log.
const KINDS: [&str; 5] = [
    "olap8_63/disks4",
    "olap1_21/disks4",
    "olap1_21/config_2_1_1",
    "oltp_mix/tpcc_disks",
    "consolidation",
];

/// Captures the seeded pool: [`INPUTS`] logs, the kinds in turn, each
/// with its own seeded query order and request-generation seed.
pub fn capture(seed: u64) -> Result<Vec<Source>, WaslaError> {
    let mut rng = SimRng::new(seed);
    (0..INPUTS)
        .map(|k| {
            let label = KINDS[k % KINDS.len()];
            let query_seed = rng.below(1 << 20);
            let mut settings = RunSettings {
                seed: rng.below(1 << 20),
                ..RunSettings::default()
            };
            let (scenario, workloads) = match label {
                "olap8_63/disks4" => (
                    Scenario::homogeneous_disks(4, SCALE),
                    vec![SqlWorkload::olap8_63(query_seed)],
                ),
                "olap1_21/disks4" => (
                    Scenario::homogeneous_disks(4, SCALE),
                    vec![SqlWorkload::olap1_21(query_seed)],
                ),
                "olap1_21/config_2_1_1" => (
                    Scenario::config_2_1_1(SCALE),
                    vec![SqlWorkload::olap1_21(query_seed)],
                ),
                "oltp_mix/tpcc_disks" => {
                    settings.max_time = Some(OLTP_MAX_TIME_S);
                    (
                        Scenario::oltp_disks(SCALE),
                        vec![SqlWorkload::oltp_full_mix()],
                    )
                }
                _ => {
                    settings.max_time = Some(OLTP_MAX_TIME_S);
                    (
                        Scenario::consolidation(SCALE),
                        vec![
                            SqlWorkload::olap1_21(query_seed),
                            SqlWorkload::oltp().with_prefix("C_"),
                        ],
                    )
                }
            };
            let log = capture_oplog(&scenario, &workloads, &settings)?.log;
            Ok(Source {
                label,
                hash: log.trace_content_hash(),
                text: log.to_tsv(),
                scenario,
            })
        })
        .collect()
}

/// Content hash of the pool: the logs' text and their scenarios.
pub fn input_hash(pool: &[Source]) -> u64 {
    let mut h = Fnv64::new();
    for source in pool {
        crate::inputs::hash_debug(&mut h, &source.scenario);
        h.write_str(&source.text);
    }
    h.finish()
}

/// A session holding every calibration the pool needs, and nothing
/// else.
fn prewarm(pool: &[Source], config: &AdviseConfig) -> Result<AdvisorSession, WaslaError> {
    let mut session = AdvisorSession::new();
    for source in pool {
        let s = &source.scenario;
        session.models_for(&s.targets, &config.grid, s.seed)?;
    }
    Ok(session)
}

fn place_final(source: &Source, rec: &Recommendation) -> Result<Placement, WaslaError> {
    place(
        rec.final_layout(),
        &source.scenario.catalog.sizes(),
        &source.scenario.capacities(),
    )
}

/// One op's output: the parsed log and the advice.
type Advised = Result<(OpLog, Advice), WaslaError>;

fn record(
    pass: &mut Pass,
    cycle: usize,
    i: usize,
    source: &Source,
    advised: Advised,
) -> Result<(), CheckError> {
    let result = match advised {
        Ok((log, advice)) => {
            let log_hash = log.trace_content_hash();
            ensure(log_hash == source.hash, "parsed_log_hash", || {
                format!(
                    "{}: parsed log hashes to {log_hash:016x}, captured to {:016x}",
                    source.label, source.hash
                )
            })?;
            Some(check_advice(source.label, advice, "")?)
        }
        Err(_) => None,
    };
    pass.record(cycle, i, source.label, result)
}

/// The untraced op: parse, `advise_from_oplog`, place.
fn op(source: &Source, session: &mut AdvisorSession, config: &AdviseConfig) -> (Advised, OpTime) {
    let (advised, time) = timed(|| {
        let log = OpLog::parse_tsv(&source.text)?;
        let advice = session.advise_from_oplog(&log, &source.scenario, config)?;
        let placement = place_final(source, &advice.recommendation);
        Ok((log, advice, placement))
    });
    let advised = advised.map(|(log, advice, placement)| {
        (
            log,
            Advice {
                problem: advice.problem,
                rec: advice.recommendation,
                notes: advice.degraded,
                placement,
            },
        )
    });
    (advised, time)
}

/// The traced op: the same calls `advise_from_oplog` makes, one span
/// per layer call.
fn traced_op(
    source: &Source,
    session: &mut AdvisorSession,
    config: &AdviseConfig,
    tracer: &mut Tracer,
) -> Advised {
    let scenario = &source.scenario;
    let log = tracer.time("trace.parse", || OpLog::parse_tsv(&source.text))?;
    let names = scenario.catalog.names();
    let sizes = scenario.catalog.sizes();
    let objective = config.advisor.solver.objective;
    let (fitted, salvage) = tracer.time("trace.fit", || {
        session.ingest_oplog(&log, &names, &sizes, &config.fit, objective)
    })?;
    let mut notes: Vec<DegradedNote> = salvage
        .map(|s| DegradedNote::TraceSalvaged {
            kept: s.kept,
            dropped: s.dropped,
        })
        .into_iter()
        .collect();
    let models = tracer.time("model", || -> Result<_, WaslaError> {
        let models = session.models_for(&scenario.targets, &config.grid, scenario.seed)?;
        staged::calibration_notes(scenario, &mut notes)?;
        Ok(models)
    })?;
    let problem = tracer.time("assemble", || {
        assemble_problem(scenario, fitted, models, config.constraints.clone())
    });
    let rec = staged::solve_and_regularize(&problem, config, tracer, &mut notes)?;
    let placement = tracer.time("place", || place_final(source, &rec));
    Ok((
        log,
        Advice {
            problem,
            rec,
            notes,
            placement,
        },
    ))
}

fn untraced_pass(
    pool: &[Source],
    warm: &AdvisorSession,
    config: &AdviseConfig,
    budget: Duration,
) -> Result<Pass, CheckError> {
    let mut pass = Pass::default();
    (pass.cycles, pass.peak_rss_mb) = run_cycles(budget, 1, |cycle| {
        for (i, source) in pool.iter().enumerate() {
            let mut session = warm.clone();
            let (advised, time) = op(source, &mut session, config);
            pass.ops.push(time);
            record(&mut pass, cycle, i, source, advised)?;
        }
        Ok(())
    })?;
    Ok(pass)
}

/// Runs the workload and fills `report`.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), CheckError> {
    let config = AdviseConfig::full();
    let ((pool, warm), setup_s) = set_up(SETUP_REPS, report, || {
        let pool = capture(ctx.seed).map_err(|e| CheckError::new("setup", e.to_string()))?;
        let warm = prewarm(&pool, &config).map_err(|e| CheckError::new("setup", e.to_string()))?;
        let hash = input_hash(&pool);
        Ok(((pool, warm), hash))
    })?;
    report.fact("pool_size", pool.len());
    let log_bytes: Vec<usize> = pool.iter().map(|s| s.text.len()).collect();
    report.fact("log_bytes", format!("{log_bytes:?}"));

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
    let mut counts = LayerCounts::default();
    let (mut calib, mut fit) = (CacheStats::default(), CacheStats::default());
    for cycle in 0..untraced.cycles {
        for (i, source) in pool.iter().enumerate() {
            let mut session = warm.clone();
            let before = session.stats();
            let op = tracer.begin_op();
            let advised = traced_op(source, &mut session, &config, &mut tracer);
            tracer.end(op);
            let after = session.stats();
            counts.parse_bytes += source.text.len() as f64;
            counts.model_tables += (after.calibration.misses - before.calibration.misses) as f64;
            counts.fits_cached += session.fits_cached() as f64;
            calib.hits += after.calibration.hits - before.calibration.hits;
            calib.misses += after.calibration.misses - before.calibration.misses;
            fit.hits += after.fit.hits - before.fit.hits;
            fit.misses += after.fit.misses - before.fit.misses;
            record(&mut traced, cycle, i, source, advised)?;
        }
    }
    ensure_traced_matches(untraced.repeats.digests(), traced.repeats.digests())?;
    let ops = traced.outcomes.attempted.max(1) as f64;
    counts.parse_bytes /= ops;
    counts.model_tables /= ops;
    counts.fits_cached /= ops;
    counts.solve_degraded = traced.solve_degraded as f64 / ops;
    counts.calib_hit_ratio = stats::share(calib.hits, calib.lookups());
    counts.fit_hit_ratio = stats::share(fit.hits, fit.lookups());
    counts.par_speedup = serial_speedup(&tracer, untraced.cycles, untraced.cycle_ms());
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
        let a = input_hash(&capture(7).unwrap());
        assert_eq!(
            a,
            input_hash(&capture(7).unwrap()),
            "same seed, same inputs"
        );
        assert_ne!(
            a,
            input_hash(&capture(8).unwrap()),
            "another seed, other inputs"
        );
    }
}
