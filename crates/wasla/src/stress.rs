//! Fleet-scale stress driver: thousands of synthetic tenants through
//! [`Service::advise_batch_with`].
//!
//! The driver generates tenants with [`wasla_workload::synth`], maps
//! each onto a shared simulated disk fleet, and feeds them to the
//! batch service in ticks, accounting per tick for throughput and the
//! admission/degradation outcomes. Two kinds of output come back:
//!
//! * a **deterministic report** (tick stats + the full decision log) —
//!   a pure function of `(spec, policy, fault plan)`, byte-identical
//!   at any `WASLA_THREADS`, which CI byte-compares at 1 vs 8 threads;
//! * **wall-clock timings**, kept strictly out of the deterministic
//!   report (the CLIs print them to stderr).
//!
//! The robustness invariant proven here at scale: every request ends
//! in exactly one of ok / degraded-with-typed-notes / typed-error —
//! never a panic — under any fault plan.

use crate::cli::Flags;
use crate::error::WaslaError;
use crate::pipeline::{AdviseConfig, Scenario};
use crate::session::{AdviseRequest, BatchPolicy, Service, SlotDisposition};
use std::time::Instant;
use wasla_storage::{DeviceSpec, DiskParams, TargetConfig};
use wasla_workload::synth::{self, SynthSpec};

const MIB: f64 = 1024.0 * 1024.0;

/// Every flag [`StressOptions::from_args`] accepts; each takes a value.
const STRESS_FLAGS: &str = "--tenants --targets --zipf --objects-min --objects-max \
    --size-mib-min --size-mib-max --write-frac --burstiness --interactive-share --batch-share \
    --seed --batch --queue-cap --brownout --max-attempts --backoff-base --backoff-cap";

/// Everything one stress run needs: the generator spec, the batch
/// shape, and the admission policy.
#[derive(Clone, Debug, PartialEq)]
pub struct StressOptions {
    /// Tenant-population parameters (count, skew, sizes, deadlines).
    pub spec: SynthSpec,
    /// Tenants per tick (one `advise_batch_with` call per tick).
    pub batch: usize,
    /// Admission/deadline/retry policy applied to every tick.
    pub policy: BatchPolicy,
    /// Base seed for the advising service (per-request seeds derive
    /// from it via `par::task_seed`).
    pub service_seed: u64,
}

impl Default for StressOptions {
    fn default() -> Self {
        StressOptions {
            spec: SynthSpec::default(),
            batch: 128,
            policy: BatchPolicy::default(),
            service_seed: 0xF1EE7,
        }
    }
}

impl StressOptions {
    /// Validates the run shape (the spec validates itself).
    pub fn validate(&self) -> Result<(), WaslaError> {
        self.spec.validate().map_err(WaslaError::Usage)?;
        if self.batch == 0 {
            return Err(WaslaError::Usage("batch must be >= 1".to_string()));
        }
        if self.policy.max_attempts == 0 {
            return Err(WaslaError::Usage("max-attempts must be >= 1".to_string()));
        }
        Ok(())
    }

    /// Parses the shared `stress` CLI flag set (both `wasla-advisor
    /// stress` and `repro stress` route through here). Unknown flags,
    /// missing values, and malformed numbers are all
    /// [`WaslaError::Usage`] (exit 2).
    pub fn from_args(args: &[String]) -> Result<StressOptions, WaslaError> {
        let f = Flags::parse(args, "stress", STRESS_FLAGS, "")?;
        let mut opts = StressOptions::default();
        let spec = &mut opts.spec;
        f.number_into("--tenants", &mut spec.tenants)?;
        f.number_into("--targets", &mut spec.targets)?;
        f.number_into("--zipf", &mut spec.zipf_theta)?;
        f.number_into("--objects-min", &mut spec.objects_min)?;
        f.number_into("--objects-max", &mut spec.objects_max)?;
        f.number_into("--size-mib-min", &mut spec.size_mib_min)?;
        f.number_into("--size-mib-max", &mut spec.size_mib_max)?;
        f.number_into("--write-frac", &mut spec.write_fraction)?;
        f.number_into("--burstiness", &mut spec.burstiness)?;
        f.number_into("--interactive-share", &mut spec.interactive_share)?;
        f.number_into("--batch-share", &mut spec.batch_share)?;
        f.number_into("--seed", &mut spec.seed)?;
        f.number_into("--batch", &mut opts.batch)?;
        let policy = &mut opts.policy;
        policy.queue_capacity = f.number("--queue-cap")?.or(policy.queue_capacity);
        policy.brownout_threshold = f.number("--brownout")?.or(policy.brownout_threshold);
        f.number_into("--max-attempts", &mut policy.max_attempts)?;
        f.number_into("--backoff-base", &mut policy.backoff_base)?;
        f.number_into("--backoff-cap", &mut policy.backoff_cap)?;
        opts.validate()?;
        Ok(opts)
    }
}

/// The shared fleet every tenant is laid out on: identical simulated
/// disks sized so any single tenant fits (each advise places one
/// tenant's catalog across the whole fleet).
pub fn fleet(spec: &SynthSpec) -> Vec<TargetConfig> {
    let per_disk_mib = (spec.size_mib_max * (spec.objects_max as f64 + 1.0) / spec.targets as f64)
        .max(2.0 * spec.size_mib_max)
        .max(1024.0);
    let disk = DeviceSpec::Disk(DiskParams::scsi_15k((per_disk_mib * MIB) as u64));
    (0..spec.targets)
        .map(|j| TargetConfig::single(format!("fleet{j}"), disk.clone()))
        .collect()
}

/// The advise request for one tenant: its private catalog and
/// workload on the shared fleet, carrying its deadline class.
pub fn tenant_request(spec: &SynthSpec, targets: &[TargetConfig], index: u64) -> AdviseRequest {
    let tenant = synth::generate_tenant(spec, index);
    let pool_bytes = (tenant.catalog.total_size() / 8).max((16.0 * MIB) as u64);
    let scenario = Scenario {
        catalog: tenant.catalog,
        targets: targets.to_vec(),
        scale: 1.0,
        pool_bytes,
        seed: spec.seed,
    };
    AdviseRequest::new(scenario, vec![tenant.workload], AdviseConfig::fast())
        .with_deadline(tenant.deadline)
}

/// Outcome counters for one tick (one batch).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TickStats {
    /// Tick index.
    pub tick: usize,
    /// Requests in the tick.
    pub requests: usize,
    /// Clean outcomes.
    pub ok: usize,
    /// Outcomes with typed degradation notes.
    pub degraded: usize,
    /// Brownouts (cheapest-rung solves) among the admitted requests.
    pub shed: usize,
    /// Rejected by admission control (`WaslaError::Overloaded`).
    pub rejected: usize,
    /// Typed errors other than rejection.
    pub failed: usize,
    /// Wall-clock milliseconds (excluded from the deterministic
    /// report).
    pub wall_ms: f64,
}

impl TickStats {
    /// True when every request resolved to exactly one disposition.
    pub fn accounted(&self) -> bool {
        self.ok + self.degraded + self.rejected + self.failed == self.requests
    }
}

/// What a stress run produced.
pub struct StressOutcome {
    /// Tenants driven.
    pub tenants: usize,
    /// Per-tick counters.
    pub ticks: Vec<TickStats>,
    /// The concatenated per-tick decision logs (deterministic).
    pub decision_log: String,
}

impl StressOutcome {
    /// Aggregate counters over all ticks.
    pub fn totals(&self) -> TickStats {
        let mut total = TickStats::default();
        for t in &self.ticks {
            total.requests += t.requests;
            total.ok += t.ok;
            total.degraded += t.degraded;
            total.shed += t.shed;
            total.rejected += t.rejected;
            total.failed += t.failed;
            total.wall_ms += t.wall_ms;
        }
        total
    }

    /// The deterministic report: tick stats, totals, and the decision
    /// log — no wall-clock anywhere. CI byte-compares this across
    /// `WASLA_THREADS` settings.
    pub fn render_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "stress tenants={}", self.tenants);
        for t in &self.ticks {
            let _ = writeln!(
                out,
                "tick={} requests={} ok={} degraded={} shed={} rejected={} failed={}",
                t.tick, t.requests, t.ok, t.degraded, t.shed, t.rejected, t.failed
            );
        }
        let total = self.totals();
        let _ = writeln!(
            out,
            "total requests={} ok={} degraded={} shed={} rejected={} failed={}",
            total.requests, total.ok, total.degraded, total.shed, total.rejected, total.failed
        );
        out.push_str("decisions:\n");
        out.push_str(&self.decision_log);
        out
    }

    /// Wall-clock summary (stderr material; never byte-compared).
    pub fn render_timing(&self) -> String {
        let total = self.totals();
        let secs = total.wall_ms / 1000.0;
        let served = total.requests - total.rejected;
        let rate = if secs > 0.0 {
            served as f64 / secs
        } else {
            0.0
        };
        format!(
            "{} requests ({} served) in {:.2}s — {:.1} advises/s over {} ticks",
            total.requests,
            served,
            secs,
            rate,
            self.ticks.len()
        )
    }
}

/// Runs the stress scenario against a fresh [`Service`].
pub fn run_stress(opts: &StressOptions) -> Result<StressOutcome, WaslaError> {
    let mut service = Service::new(opts.service_seed);
    run_stress_with(&mut service, opts)
}

/// Runs the stress scenario against an existing service (its warm
/// calibration cache carries across ticks and across calls).
pub fn run_stress_with(
    service: &mut Service,
    opts: &StressOptions,
) -> Result<StressOutcome, WaslaError> {
    opts.validate()?;
    let targets = fleet(&opts.spec);
    let tenants = opts.spec.tenants;
    let mut ticks = Vec::new();
    let mut decision_log = String::new();
    let mut start = 0usize;
    let mut tick = 0usize;
    while start < tenants {
        let end = (start + opts.batch).min(tenants);
        let requests: Vec<AdviseRequest> = (start..end)
            .map(|i| tenant_request(&opts.spec, &targets, i as u64))
            .collect();
        let t0 = Instant::now();
        let report = service.advise_batch_with(&requests, &opts.policy);
        let wall_ms = t0.elapsed().as_secs_f64() * 1000.0;
        let mut stats = TickStats {
            tick,
            requests: requests.len(),
            wall_ms,
            ..TickStats::default()
        };
        for d in &report.decisions {
            match d.disposition {
                SlotDisposition::Ok => stats.ok += 1,
                SlotDisposition::Degraded => stats.degraded += 1,
                SlotDisposition::Rejected => stats.rejected += 1,
                SlotDisposition::Failed => stats.failed += 1,
            }
            if d.shed {
                stats.shed += 1;
            }
        }
        if !stats.accounted() {
            return Err(WaslaError::Internal(format!(
                "tick {tick}: {} requests but dispositions sum to {}",
                stats.requests,
                stats.ok + stats.degraded + stats.rejected + stats.failed
            )));
        }
        decision_log.push_str(&format!("tick={tick}\n"));
        decision_log.push_str(&report.render_decisions());
        ticks.push(stats);
        start = end;
        tick += 1;
    }
    Ok(StressOutcome {
        tenants,
        ticks,
        decision_log,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_args_parses_the_full_flag_set() {
        let args: Vec<String> = [
            "--tenants",
            "24",
            "--targets",
            "4",
            "--zipf",
            "0.5",
            "--batch",
            "8",
            "--queue-cap",
            "6",
            "--brownout",
            "4",
            "--max-attempts",
            "3",
            "--seed",
            "99",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = StressOptions::from_args(&args).unwrap();
        assert_eq!(opts.spec.tenants, 24);
        assert_eq!(opts.spec.targets, 4);
        assert_eq!(opts.batch, 8);
        assert_eq!(opts.policy.queue_capacity, Some(6));
        assert_eq!(opts.policy.brownout_threshold, Some(4));
        assert_eq!(opts.policy.max_attempts, 3);
        assert_eq!(opts.spec.seed, 99);
    }

    #[test]
    fn from_args_rejects_unknown_and_malformed() {
        for bad in [
            vec!["--tenants"],           // missing value
            vec!["--tenants", "many"],   // malformed number
            vec!["--frobnicate", "1"],   // unknown flag
            vec!["--tenants", "0"],      // fails spec validation
            vec!["--burstiness", "2.0"], // out of range
            vec!["--batch", "0"],        // run-shape validation
            vec!["--max-attempts", "0"], // policy validation
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            let err = StressOptions::from_args(&args).unwrap_err();
            assert!(matches!(err, WaslaError::Usage(_)), "{args:?}: {err}");
            assert_eq!(err.exit_code(), 2);
        }
    }

    #[test]
    fn fleet_disks_hold_any_single_tenant() {
        let spec = SynthSpec::default();
        let targets = fleet(&spec);
        assert_eq!(targets.len(), spec.targets);
        // Worst-case tenant: objects_max objects at size_mib_max plus
        // temp, all placed whole.
        let fleet_bytes: u64 = targets.iter().map(|t| t.capacity()).sum();
        let worst = ((spec.objects_max as f64 + 1.0) * spec.size_mib_max * MIB) as u64;
        assert!(fleet_bytes > worst);
    }
}
