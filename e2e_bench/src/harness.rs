//! What every workload shares: the run context, the output checks,
//! the cycle loop, and the conversion of measurements into metrics.

use crate::reference;
use crate::spans::Tracer;
use crate::stats::{self, Outcomes};
use std::time::{Duration, Instant};
use wasla::core::dynamic::migration_bytes;
use wasla::core::{Layout, LayoutProblem, Recommendation, Stage, UtilizationEstimator};
use wasla::exec::Placement;
use wasla::pipeline::DegradedNote;
use wasla::simlib::hash::{hash_json, Fnv64};
use wasla::stages::{PlaceInput, PlaceStage};
use wasla::WaslaError;

/// Bytes per MiB; every `*_mb` metric is in MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Inputs in a generated pool (cold_sweep and daemon use three times
/// as many). Runs measure whole cycles over the pool, so each input
/// contributes a run of equally many samples; with 15, 25 or 45 inputs
/// the nearest-rank median and 90th percentile each fall in the middle
/// of one input's run rather than on the boundary between two, where
/// they would jump between inputs.
pub const POOL: usize = 15;

/// Runs `set_up` `reps` times (the last result is kept) and returns
/// it with each repetition's corrected wall time in seconds (see
/// [`corrected_ms`]), checking that every repetition generated
/// the same inputs.
pub fn set_up<T>(
    reps: usize,
    report: &mut Report,
    mut set_up: impl FnMut() -> Result<(T, u64), CheckError>,
) -> Result<(T, Vec<f64>), CheckError> {
    let mut times = Vec::with_capacity(reps);
    let mut hashes = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps.max(1) {
        let (result, time) = timed(&mut set_up);
        let (value, hash) = result?;
        times.push(time);
        hashes.push(hash);
        kept = Some(value);
    }
    ensure(
        hashes.windows(2).all(|w| w[0] == w[1]),
        "same_seed_same_inputs",
        || format!("set-up repetitions gave input hashes {hashes:?}"),
    )?;
    report.fact("input_hash", format!("\"{:016x}\"", hashes[0]));
    report.fact("setup_steal_share", stolen_share(&times));
    report.fact("setup_slowdown", slowdown(&times));
    let secs = corrected_ms(&times).iter().map(|ms| ms / 1e3).collect();
    Ok((kept.expect("set-up runs at least once"), secs))
}

/// The command-line arguments every workload receives.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Input seed: every input derives from it.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

impl Ctx {
    /// The measurement budget as a duration.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// A failed output check: the benchmark exits non-zero naming it.
#[derive(Debug)]
pub struct CheckError {
    /// Short check name, e.g. `placeable`.
    pub check: &'static str,
    /// What was observed.
    pub detail: String,
}

impl CheckError {
    /// A failed check.
    pub fn new(check: &'static str, detail: impl Into<String>) -> Self {
        CheckError {
            check,
            detail: detail.into(),
        }
    }
}

/// Fails check `check` unless `ok`.
pub fn ensure(
    ok: bool,
    check: &'static str,
    detail: impl FnOnce() -> String,
) -> Result<(), CheckError> {
    if ok {
        Ok(())
    } else {
        Err(CheckError::new(check, detail()))
    }
}

/// One named metric value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Units attempted in the reported pass.
    pub attempted: u64,
    /// Units that failed or were refused.
    pub failed: u64,
    /// The metrics for the requested pass.
    pub metrics: Vec<Metric>,
    /// Run facts, as `(key, JSON value)`.
    pub facts: Vec<(String, String)>,
    /// The traced pass's spans as JSON lines.
    pub spans: Option<String>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds a fact whose value is already JSON.
    pub fn fact(&mut self, key: &str, json: impl ToString) {
        self.facts.push((key.to_string(), json.to_string()));
    }
}

/// Runs whole cycles until `budget` has elapsed, and at least `min`
/// of them. Only whole cycles are measured, so every pool input is
/// sampled equally often and percentiles do not depend on where the
/// clock ran out. Returns the number of cycles run and the peak
/// resident set in MiB once the first cycle had seen every input:
/// later cycles repeat the same work, and what the allocator keeps
/// across them would make the peak depend on how many cycles fit.
pub fn run_cycles(
    budget: Duration,
    min: usize,
    mut cycle: impl FnMut(usize) -> Result<(), CheckError>,
) -> Result<(usize, f64), CheckError> {
    let start = Instant::now();
    let mut done = 0;
    let mut peak = 0.0;
    while done < min.max(1) || start.elapsed() < budget {
        cycle(done)?;
        if done == 0 {
            peak = peak_rss_mb();
        }
        done += 1;
    }
    Ok((done, peak))
}

/// One timed interval: its wall-clock ends, the machine's CPU tick
/// counters at each end, and the CPU time of the reference work run
/// right after it.
#[derive(Clone, Debug)]
pub struct OpTime {
    start: Instant,
    end: Instant,
    ticks0: Ticks,
    ticks1: Ticks,
    reference_ms: f64,
}

impl OpTime {
    /// Raw wall time, ms.
    pub fn ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// Runs `f` and returns its result with its timing. The reference
/// work runs after `f`, outside the timed interval (see
/// [`reference::sample`]).
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, OpTime) {
    let ticks0 = cpu_ticks();
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    let ticks1 = cpu_ticks();
    let reference_ms = reference::sample(end.duration_since(start));
    (
        out,
        OpTime {
            start,
            end,
            ticks0,
            ticks1,
            reference_ms,
        },
    )
}

/// Cumulative tick counters of each of this machine's CPUs, from the
/// `cpuN` lines of `/proc/stat` (empty where it cannot be read), as
/// `[stolen, busy, all]`. Stolen ticks are time the hypervisor ran
/// something else while that CPU had work ready.
#[derive(Clone, Debug, Default)]
struct Ticks(Vec<[u64; 3]>);

fn cpu_ticks() -> Ticks {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let per_cpu = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .map(|l| {
            let f: Vec<u64> = l
                .split_whitespace()
                .skip(1)
                .take(8)
                .filter_map(|x| x.parse().ok())
                .collect();
            let tick = |i: usize| f.get(i).copied().unwrap_or(0);
            // user, nice, system, idle, iowait, irq, softirq, steal.
            let busy = tick(0) + tick(1) + tick(2) + tick(5) + tick(6);
            [tick(7), busy, f.iter().sum()]
        })
        .collect();
    Ticks(per_cpu)
}

/// Span of the run over which an op's host speed is read: the ops
/// within half of it on each side. The tick counters advance 100 times
/// a second per CPU, so shorter spans are too coarse for the stolen
/// share; host speed held for stretches of several 100 ms ops, and
/// wider spans mix in the speed of other stretches.
const SPEED_WINDOW: Duration = Duration::from_millis(500);

/// Stolen share of CPU time between readings `a` and `b`: the larger
/// of the machine-wide stolen share of busy time, which is exact for
/// one busy thread wherever it ran, and the largest stolen share of a
/// single CPU's elapsed time, which bounds a fork-join op whose slowest
/// thread was the one stolen from.
fn share_between(a: &Ticks, b: &Ticks) -> f64 {
    let (mut stolen, mut busy, mut worst) = (0, 0, 0.0f64);
    for (k, end) in b.0.iter().enumerate() {
        let start = a.0.get(k).copied().unwrap_or_default();
        let d = |f: usize| end[f].saturating_sub(start[f]);
        stolen += d(0);
        busy += d(1);
        worst = worst.max(stats::share(d(0), d(2)));
    }
    stats::share(stolen, stolen + busy).max(worst)
}

/// Stolen share over all of `ops`.
pub fn stolen_share(ops: &[OpTime]) -> f64 {
    match (ops.first(), ops.last()) {
        (Some(first), Some(last)) => share_between(&first.ticks0, &last.ticks1),
        _ => 0.0,
    }
}

/// How much slower than nominal the CPUs ran the reference work after
/// `ops`: its mean CPU time over [`reference::NOMINAL_MS`].
pub fn slowdown(ops: &[OpTime]) -> f64 {
    let refs: Vec<f64> = ops.iter().map(|o| o.reference_ms).collect();
    stats::mean(&refs) / reference::NOMINAL_MS
}

/// Each op's wall time in ms with the host's share in it taken out:
/// scaled by the share of CPU time the hypervisor did not steal, and
/// divided by the [`slowdown`] of the CPUs themselves, both read over
/// the smallest run of neighbouring ops that reaches half of
/// [`SPEED_WINDOW`] on each side of the op (or the ends of `ops`). The
/// result is the op time at the reference work's nominal speed with
/// nothing stolen. Raw readings are reported beside the corrected
/// ones.
pub fn corrected_ms(ops: &[OpTime]) -> Vec<f64> {
    let half = SPEED_WINDOW / 2;
    (0..ops.len())
        .map(|i| {
            let (mut a, mut b) = (i, i);
            while a > 0 && ops[i].start.duration_since(ops[a].start) < half {
                a -= 1;
            }
            while b + 1 < ops.len() && ops[b].end.duration_since(ops[i].end) < half {
                b += 1;
            }
            let unstolen = 1.0 - share_between(&ops[a].ticks0, &ops[b].ticks1);
            ops[i].ms() * unstolen / slowdown(&ops[a..=b])
        })
        .collect()
}

/// Checks per-op output digests against the first cycle's: the same
/// input must give the same output on every pass.
#[derive(Default)]
pub struct Repeats {
    first: Vec<u64>,
}

impl Repeats {
    /// Records (first cycle) or checks (later cycles) op `index`.
    pub fn observe(
        &mut self,
        cycle: usize,
        index: usize,
        digest: u64,
        what: &str,
    ) -> Result<(), CheckError> {
        if cycle == 0 {
            debug_assert_eq!(index, self.first.len());
            self.first.push(digest);
            return Ok(());
        }
        ensure(self.first.get(index) == Some(&digest), "repeatable", || {
            format!("{what}: cycle {cycle} output differs from cycle 0")
        })
    }

    /// The first cycle's digests.
    pub fn digests(&self) -> &[u64] {
        &self.first
    }
}

/// Checks that a traced pass reproduced the untraced pass exactly.
pub fn ensure_traced_matches(untraced: &[u64], traced: &[u64]) -> Result<(), CheckError> {
    ensure(untraced == traced, "traced_equals_untraced", || {
        let first = untraced.iter().zip(traced).position(|(a, b)| a != b);
        format!(
            "{} untraced vs {} traced outputs; first difference at {:?}",
            untraced.len(),
            traced.len(),
            first
        )
    })
}

/// Places `layout` with the place stage.
pub fn place(
    layout: &Layout,
    sizes: &[u64],
    capacities: &[u64],
) -> Result<Placement, wasla::WaslaError> {
    PlaceStage::default().run(&PlaceInput {
        rows: layout.rows(),
        sizes,
        capacities,
    })
}

/// The quality figures of one final layout, checked against the SEE
/// baseline.
#[derive(Clone, Copy, Debug)]
pub struct LayoutScore {
    /// Predicted max target utilization.
    pub max_util: f64,
    /// MiB that deploying it from SEE would move.
    pub moved_mb: f64,
}

/// Scores `layout` with the public estimator, and checks that it is
/// no worse than SEE whenever SEE is itself feasible.
pub fn score_against_see(
    problem: &LayoutProblem,
    layout: &Layout,
    what: &str,
) -> Result<LayoutScore, CheckError> {
    let est = UtilizationEstimator::new(problem);
    let max_util = est.max_utilization(layout);
    let see = Layout::see(problem.n(), problem.m());
    let sizes = &problem.workloads.sizes;
    if see.is_valid(sizes, &problem.capacities) && problem.satisfies_constraints(&see) {
        let see_util = est.max_utilization(&see);
        ensure(
            max_util <= see_util * (1.0 + 1e-9) + 1e-12,
            "not_worse_than_see",
            || format!("{what}: predicted max utilization {max_util} above SEE's {see_util}"),
        )?;
    }
    Ok(LayoutScore {
        max_util,
        moved_mb: migration_bytes(&see, layout, sizes) as f64 / MIB,
    })
}

/// One advised layout, as an op hands it to the checks.
pub struct Advice {
    /// The layout problem the advisor solved.
    pub problem: LayoutProblem,
    /// The recommendation.
    pub rec: Recommendation,
    /// Degradation notes reported with it.
    pub notes: Vec<DegradedNote>,
    /// The place stage's result for the final layout.
    pub placement: Result<Placement, WaslaError>,
}

/// One checked op output, reduced to what the metrics need.
pub struct OpResult {
    /// Digest of everything the op returned.
    pub digest: u64,
    /// Predicted max utilization of the final layout.
    pub max_util: f64,
    /// MiB deploying the final layout from SEE moves.
    pub moved_mb: f64,
    /// Whether any degradation note came back.
    pub degraded: bool,
    /// Whether the solve ran degraded.
    pub solve_degraded: bool,
}

/// Checks one advised layout: it must place, and must not predict
/// worse than SEE. `extra` is mixed into the digest.
pub fn check_advice(label: &str, a: Advice, extra: &str) -> Result<OpResult, CheckError> {
    let placement = a
        .placement
        .map_err(|e| CheckError::new("placeable", format!("{label}: {e}")))?;
    let score = score_against_see(&a.problem, a.rec.final_layout(), label)?;
    let mut h = Fnv64::new();
    layout_digest(&mut h, &a.rec.solver_layout);
    layout_digest(&mut h, a.rec.final_layout());
    h.write_str(&format!(
        "{:?}|{}|{}|{extra}",
        a.rec.quality, a.rec.converged, a.rec.fell_back_to_see
    ));
    for note in &a.notes {
        h.write_str(&note.to_string());
    }
    h.write_u64(hash_json(&placement));
    Ok(OpResult {
        digest: h.finish(),
        max_util: score.max_util,
        moved_mb: score.moved_mb,
        degraded: !a.notes.is_empty(),
        solve_degraded: a.rec.quality.degraded(),
    })
}

/// One pass over whole pool cycles: per-op times, outcomes, and the
/// first cycle's outputs.
#[derive(Default)]
pub struct Pass {
    /// Per-op timings.
    pub ops: Vec<OpTime>,
    /// How the pass's units ended.
    pub outcomes: Outcomes,
    /// Output digests, checked across cycles.
    pub repeats: Repeats,
    /// First-cycle max utilization per unit.
    pub max_util: Vec<f64>,
    /// First-cycle MiB moved per unit.
    pub moved_mb: Vec<f64>,
    /// Units whose solve ran degraded.
    pub solve_degraded: u64,
    /// Whole cycles run.
    pub cycles: usize,
    /// Peak resident set after the first cycle, MiB.
    pub peak_rss_mb: f64,
}

impl Pass {
    /// Records unit `index` of cycle `cycle`; `None` is a failed unit.
    pub fn record(
        &mut self,
        cycle: usize,
        index: usize,
        label: &str,
        result: Option<OpResult>,
    ) -> Result<(), CheckError> {
        self.outcomes.attempted += 1;
        let digest = match result {
            Some(r) => {
                if cycle == 0 {
                    self.max_util.push(r.max_util);
                    self.moved_mb.push(r.moved_mb);
                }
                self.outcomes.degraded += r.degraded as u64;
                self.solve_degraded += r.solve_degraded as u64;
                r.digest
            }
            None => {
                self.outcomes.failed += 1;
                0
            }
        };
        self.repeats.observe(cycle, index, digest, label)
    }

    /// The end-to-end measurements of this pass.
    pub fn measured(self, setup_s: Vec<f64>) -> Measured {
        Measured {
            setup_s,
            peak_rss_mb: self.peak_rss_mb,
            ops: self.ops,
            outcomes: self.outcomes,
            max_util: stats::mean(&self.max_util),
            moved_mb: stats::mean(&self.moved_mb),
        }
    }

    /// Raw per-op wall times, ms.
    pub fn op_ms(&self) -> Vec<f64> {
        self.ops.iter().map(OpTime::ms).collect()
    }

    /// Mean raw wall time of one cycle, ms.
    pub fn cycle_ms(&self) -> f64 {
        self.op_ms().iter().sum::<f64>() / self.cycles.max(1) as f64
    }
}

/// FNV digest of a layout's exact values.
pub fn layout_digest(h: &mut Fnv64, layout: &Layout) {
    h.write_u64(layout.n_objects() as u64)
        .write_u64(layout.n_targets() as u64);
    for row in layout.rows() {
        for &v in row {
            h.write_f64(v);
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced pass's measurements, common to every workload.
pub struct Measured {
    /// Corrected set-up wall times, seconds.
    pub setup_s: Vec<f64>,
    /// Per-op timings.
    pub ops: Vec<OpTime>,
    /// Peak resident set after the first cycle, MiB.
    pub peak_rss_mb: f64,
    /// How the pass's units ended.
    pub outcomes: Outcomes,
    /// Mean predicted max utilization of the final layouts.
    pub max_util: f64,
    /// Mean MiB moved per op.
    pub moved_mb: f64,
}

/// Turns an untraced pass into the end-to-end metrics and their facts.
/// Op times are corrected for the host (see [`corrected_ms`]).
pub fn end_to_end(report: &mut Report, m: &Measured) {
    let raw: Vec<f64> = m.ops.iter().map(OpTime::ms).collect();
    let op_ms = corrected_ms(&m.ops);
    let p50 = stats::median(&op_ms).unwrap_or(0.0);
    let p90 = stats::percentile(&op_ms, 0.9).unwrap_or(0.0);
    let busy_s: f64 = op_ms.iter().sum::<f64>() / 1e3;
    report.metric("setup_s", stats::median(&m.setup_s).unwrap_or(0.0), "s");
    report.metric("op_p50_ms", p50, "ms");
    report.metric("op_p90_ms", p90, "ms");
    report.metric("ops_per_s", op_ms.len() as f64 / busy_s.max(1e-12), "ops/s");
    report.metric("ok_share", 1.0 - m.outcomes.error_share(), "share");
    report.metric("clean_share", 1.0 - m.outcomes.degraded_share(), "share");
    report.metric("max_util", m.max_util, "util");
    report.metric("moved_mb", m.moved_mb, "MiB");
    report.metric("peak_rss_mb", m.peak_rss_mb, "MiB");
    report.attempted = m.outcomes.attempted;
    report.failed = m.outcomes.errors();
    let n = op_ms.len();
    report.fact("op_samples", n);
    report.fact("p50_samples_beyond", stats::beyond(n, 0.5));
    report.fact("p90_samples_beyond", stats::beyond(n, 0.9));
    report.fact("p90_supported", stats::tail_supported(n, 0.9));
    report.fact("setup_reps", m.setup_s.len());
    report.fact("steal_share", stolen_share(&m.ops));
    report.fact("slowdown", slowdown(&m.ops));
    report.fact("raw_op_p50_ms", stats::median(&raw).unwrap_or(0.0));
    report.fact("raw_op_p90_ms", stats::percentile(&raw, 0.9).unwrap_or(0.0));
    report.fact("error_share", m.outcomes.error_share());
    report.fact("degraded_share", m.outcomes.degraded_share());
}

/// Per-layer counters a workload gathers beside its spans; every
/// field is a per-op mean unless its doc says otherwise.
#[derive(Clone, Debug, Default)]
pub struct LayerCounts {
    /// Calibration tables computed per op.
    pub model_tables: f64,
    /// Simulated I/O records per op.
    pub exec_records: f64,
    /// Op-log bytes parsed per op.
    pub parse_bytes: f64,
    /// Ops (or slots) whose solve ran degraded, per op.
    pub solve_degraded: f64,
    /// Calibration cache hits over lookups.
    pub calib_hit_ratio: f64,
    /// Fit cache hits over lookups.
    pub fit_hit_ratio: f64,
    /// Fitted workload sets the session holds at the end of the pass.
    pub fits_cached: f64,
    /// p50 of the last fifth of ops over p50 of the first fifth
    /// (fleet ticks; zero elsewhere).
    pub tick_growth: f64,
    /// Slots browned out per op.
    pub shed: f64,
    /// Slots rejected per op.
    pub rejected: f64,
    /// Retries (extra attempts) per op.
    pub retries: f64,
    /// Drift re-plans per op.
    pub replans: f64,
    /// Migration moves per op.
    pub moves: f64,
    /// Deferred migration MiB per op.
    pub deferred_mb: f64,
    /// Summed serial layer time over the untraced op wall time.
    pub par_speedup: f64,
}

/// Ratio of the last fifth's p50 to the first fifth's p50.
pub fn growth(samples: &[f64]) -> f64 {
    let fifth = samples.len() / 5;
    if fifth == 0 {
        return 0.0;
    }
    let first = stats::median(&samples[..fifth]).unwrap_or(0.0);
    let last = stats::median(&samples[samples.len() - fifth..]).unwrap_or(0.0);
    if first > 0.0 {
        last / first
    } else {
        0.0
    }
}

/// Turns a traced pass into the per-layer metrics.
pub fn per_layer(
    report: &mut Report,
    tracer: &Tracer,
    counts: &LayerCounts,
    untraced_op_ms: &[f64],
) {
    let ops = tracer.op_durations_ns().len().max(1) as f64;
    let self_ns = tracer.self_ns_by_name();
    let layer_ms = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6 / ops;
    let parse_ms = layer_ms("trace.parse");
    let traced_ms: Vec<f64> = tracer
        .op_durations_ns()
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let traced_p50 = stats::median(&traced_ms).unwrap_or(0.0);
    let untraced_p50 = stats::median(untraced_op_ms).unwrap_or(0.0);
    report.metric("model.calibrate_ms", layer_ms("model"), "ms");
    report.metric("model.tables", counts.model_tables, "count");
    report.metric("exec.ms", layer_ms("exec"), "ms");
    report.metric("exec.records", counts.exec_records, "count");
    report.metric("trace.parse_ms", parse_ms, "ms");
    report.metric(
        "trace.parse_mb_per_s",
        if parse_ms > 0.0 {
            counts.parse_bytes / MIB / (parse_ms / 1e3)
        } else {
            0.0
        },
        "MiB/s",
    );
    report.metric("trace.fit_ms", layer_ms("trace.fit"), "ms");
    report.metric("trace.window_ms", layer_ms("trace.window"), "ms");
    report.metric("assemble.ms", layer_ms("assemble"), "ms");
    report.metric("solve.ms", layer_ms("solve"), "ms");
    report.metric("solve.degraded", counts.solve_degraded, "count");
    report.metric("regularize.ms", layer_ms("regularize"), "ms");
    report.metric("place.ms", layer_ms("place"), "ms");
    report.metric("admission.ms", layer_ms("admission"), "ms");
    report.metric("session.calib_hit_ratio", counts.calib_hit_ratio, "ratio");
    report.metric("session.fit_hit_ratio", counts.fit_hit_ratio, "ratio");
    report.metric("session.fits_cached", counts.fits_cached, "count");
    report.metric("session.tick_growth", counts.tick_growth, "ratio");
    report.metric("admission.shed", counts.shed, "count");
    report.metric("admission.rejected", counts.rejected, "count");
    report.metric("admission.retries", counts.retries, "count");
    report.metric("par.speedup", counts.par_speedup, "ratio");
    report.metric("dynamic.detect_ms", layer_ms("dynamic.detect"), "ms");
    report.metric("dynamic.replan_ms", layer_ms("dynamic.replan"), "ms");
    report.metric("dynamic.replans", counts.replans, "count");
    report.metric("dynamic.moves", counts.moves, "count");
    report.metric("dynamic.deferred_mb", counts.deferred_mb, "MiB");
    report.metric("coverage", tracer.coverage(), "ratio");
    report.metric(
        "trace_overhead",
        if untraced_p50 > 0.0 {
            traced_p50 / untraced_p50 - 1.0
        } else {
            0.0
        },
        "ratio",
    );
    report.fact("traced_ops", traced_ms.len());
    report.fact("untraced_ops", untraced_op_ms.len());
}

/// Serial layer time per cycle — the summed self time of every span
/// except the op roots, over `traced_cycles` — divided by the untraced
/// wall time of one cycle: how much serial layer work one unit of
/// untraced wall time carried.
pub fn serial_speedup(tracer: &Tracer, traced_cycles: usize, untraced_cycle_ms: f64) -> f64 {
    let layer_ns: u64 = tracer
        .self_ns_by_name()
        .iter()
        .filter(|(name, _)| **name != crate::spans::OP)
        .map(|(_, ns)| ns)
        .sum();
    let layer_cycle_ms = layer_ns as f64 / 1e6 / traced_cycles.max(1) as f64;
    if untraced_cycle_ms > 0.0 {
        layer_cycle_ms / untraced_cycle_ms
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Back-to-back 100 ms ops; op `i` sees `stolen[i]` stolen and
    /// `busy[i]` busy ticks.
    fn ops(stolen: &[u64], busy: &[u64]) -> Vec<OpTime> {
        let epoch = Instant::now();
        let (mut s, mut b) = (0, 0);
        (0..stolen.len())
            .map(|i| {
                let t0 = Ticks(vec![[s, b, s + b]]);
                s += stolen[i];
                b += busy[i];
                OpTime {
                    start: epoch + Duration::from_millis(100 * i as u64),
                    end: epoch + Duration::from_millis(100 * (i as u64 + 1)),
                    ticks0: t0,
                    ticks1: Ticks(vec![[s, b, s + b]]),
                    reference_ms: reference::NOMINAL_MS,
                }
            })
            .collect()
    }

    #[test]
    fn steal_correction_scales_by_the_unstolen_share() {
        let clean = ops(&[0; 4], &[20; 4]);
        assert!(corrected_ms(&clean)
            .iter()
            .all(|ms| (ms - 100.0).abs() < 1e-9));
        // A quarter of the CPU time stolen throughout.
        let stolen = ops(&[5; 4], &[15; 4]);
        assert_eq!(stolen_share(&stolen), 0.25);
        assert!(corrected_ms(&stolen)
            .iter()
            .all(|ms| (ms - 75.0).abs() < 1e-9));
    }

    #[test]
    fn one_stolen_cpu_bounds_a_fork_join_op() {
        // Two busy CPUs over 100 ticks each; one lost 40 to steal.
        let a = Ticks(vec![[0, 0, 0], [0, 0, 0]]);
        let b = Ticks(vec![[40, 60, 100], [0, 100, 100]]);
        assert_eq!(share_between(&a, &b), 0.4);
        // One busy thread that moved between CPUs: the machine-wide
        // share counts all of its stolen time.
        let moved = Ticks(vec![[10, 40, 100], [10, 40, 100]]);
        assert_eq!(share_between(&a, &moved), 0.2);
    }

    #[test]
    fn steal_is_read_over_a_window_around_each_op() {
        // Twelve 100 ms ops; only the last six see steal. The window
        // spans 250 ms each side, so early ops are untouched and late
        // ops are scaled down.
        let mut stolen = vec![0; 6];
        stolen.extend([10; 6]);
        let corrected = corrected_ms(&ops(&stolen, &[10; 12]));
        assert_eq!(corrected[0], 100.0);
        assert_eq!(corrected[11], 50.0);
        assert!(corrected[5] > 50.0 && corrected[5] < 100.0);
    }

    #[test]
    fn slow_cpus_divide_the_op_time() {
        // Twelve clean 100 ms ops; the reference work after the last
        // six took twice its nominal CPU time. The window spans 250 ms
        // each side, so early ops are untouched, late ops are halved,
        // and the op at the change is between.
        let mut timings = ops(&[0; 12], &[10; 12]);
        for op in &mut timings[6..] {
            op.reference_ms = 2.0 * reference::NOMINAL_MS;
        }
        assert!((slowdown(&timings[6..]) - 2.0).abs() < 1e-12);
        let corrected = corrected_ms(&timings);
        assert!((corrected[0] - 100.0).abs() < 1e-9);
        assert!((corrected[11] - 50.0).abs() < 1e-9);
        assert!(corrected[5] > 50.0 && corrected[5] < 100.0);
    }

    #[test]
    fn growth_compares_last_and_first_fifths() {
        let samples: Vec<f64> = (0..10).map(|i| if i < 5 { 10.0 } else { 20.0 }).collect();
        assert_eq!(growth(&samples), 2.0);
        assert_eq!(growth(&[1.0; 4]), 0.0);
    }
}
