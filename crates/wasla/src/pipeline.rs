//! End-to-end pipeline: the paper's full methodology as library calls.
//!
//! The paper's experimental loop (§5–§6) is:
//!
//! 1. run the SQL workload on the database under a baseline (SEE)
//!    layout and capture its block I/O as an op-log;
//! 2. fit Rome-style workload descriptions per object (Rubicon);
//! 3. calibrate cost models for the storage targets;
//! 4. run the layout advisor;
//! 5. implement the recommended layout and re-run the workload to
//!    measure the improvement.
//!
//! [`advise`] performs 1–4 and [`run_layout`] performs 5 against the
//! simulated substrate. [`Scenario`] bundles the catalog/targets/scale
//! configurations used by the paper's experiments (homogeneous disks,
//! the heterogeneous 3-1 and 2-1-1 RAID configurations, disks + SSD,
//! and the consolidation scenario).

//!
//! [`advise`] is the *cold* path: it delegates to a fresh
//! [`AdvisorSession`](crate::session::AdvisorSession), so one-shot
//! calls and sessioned calls share one code path and produce
//! byte-identical recommendations. Callers advising repeatedly over
//! shared device types or traces should hold a session (or a
//! [`Service`](crate::session::Service)) to reuse calibration tables
//! and workload fits.

use crate::error::WaslaError;
use crate::session::AdvisorSession;
use std::sync::Arc;
use wasla_core::layout_model::add_calibration_demand;
use wasla_core::{
    AdminConstraint, AdvisorOptions, Layout, LayoutProblem, ObjectiveKind, Recommendation,
    SolveQuality,
};
use wasla_exec::{Engine, Placement, RunConfig, RunOutcome, RunReport};
use wasla_model::{CalibrationGrid, ColumnDemand, ModelError, TargetCostModel};
use wasla_storage::{DeviceSpec, DiskParams, SsdParams, StorageSystem, TargetConfig};
use wasla_trace::FitConfig;
use wasla_workload::{Catalog, SqlWorkload, WorkloadSet};

/// Paper-equivalent disk capacity in bytes at scale 1.0 (18.4 GB).
pub const DISK_BYTES: f64 = 18.4e9;
/// Paper-equivalent SSD capacity in bytes at scale 1.0 (32 GB).
pub const SSD_BYTES: f64 = 32e9;
/// Paper-equivalent buffer pool at scale 1.0 (2 GB).
pub const POOL_BYTES: f64 = 2e9;
/// RAID-0 stripe unit used for grouped targets.
pub const RAID_STRIPE: u64 = 256 * 1024;
/// LVM stripe size used by placements and the advisor's layout model.
/// Period-accurate LVM configurations used small stripes; a small
/// stripe is also what makes co-located sequential streams genuinely
/// interleave on each member disk.
pub const LVM_STRIPE: u64 = 256 * 1024;

/// Parses a user-supplied objective name (the CLI's `--objective`
/// value) into an [`ObjectiveKind`]. Unknown names are
/// [`WaslaError::Usage`] (exit code 2) and list the valid names.
pub fn parse_objective(name: &str) -> Result<ObjectiveKind, WaslaError> {
    ObjectiveKind::from_name(name).ok_or_else(|| {
        let valid: Vec<&str> = ObjectiveKind::ALL.iter().map(|k| k.name()).collect();
        WaslaError::Usage(format!(
            "unknown objective {name:?} (valid: {})",
            valid.join(", ")
        ))
    })
}

/// One experimental setup: a database catalog on a set of storage
/// targets at a given scale.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The database objects.
    pub catalog: Catalog,
    /// The storage targets.
    pub targets: Vec<TargetConfig>,
    /// Scale factor relative to the paper's setup (1.0 = full size).
    pub scale: f64,
    /// Buffer-pool bytes for the execution simulator.
    pub pool_bytes: u64,
    /// Base RNG seed.
    pub seed: u64,
}

fn scaled_disk(scale: f64) -> DeviceSpec {
    DeviceSpec::Disk(DiskParams::scsi_15k((DISK_BYTES * scale) as u64))
}

impl Scenario {
    /// TPC-H-like catalog on `n` identical disks (the paper's
    /// homogeneous 1-1-1-1 setup when `n = 4`).
    pub fn homogeneous_disks(n: usize, scale: f64) -> Self {
        Scenario {
            catalog: Catalog::tpch_like(scale),
            targets: (0..n)
                .map(|i| TargetConfig::single(format!("disk{i}"), scaled_disk(scale)))
                .collect(),
            scale,
            pool_bytes: (POOL_BYTES * scale) as u64,
            seed: 42,
        }
    }

    /// TPC-H-like catalog on `n` identical SSDs — the all-flash
    /// counterpart of [`homogeneous_disks`](Self::homogeneous_disks),
    /// used by the objective ablation's target-mix sweep.
    pub fn homogeneous_ssds(n: usize, scale: f64) -> Self {
        Scenario {
            catalog: Catalog::tpch_like(scale),
            targets: (0..n)
                .map(|i| {
                    TargetConfig::single(
                        format!("ssd{i}"),
                        DeviceSpec::Ssd(SsdParams::sata_gen1((SSD_BYTES * scale) as u64)),
                    )
                })
                .collect(),
            scale,
            pool_bytes: (POOL_BYTES * scale) as u64,
            seed: 42,
        }
    }

    /// The heterogeneous "3-1" configuration: a 3-disk RAID-0 target
    /// plus one standalone disk (§6.4).
    pub fn config_3_1(scale: f64) -> Self {
        Scenario {
            catalog: Catalog::tpch_like(scale),
            targets: vec![
                TargetConfig::raid0("raid3x", vec![scaled_disk(scale); 3], RAID_STRIPE),
                TargetConfig::single("disk3", scaled_disk(scale)),
            ],
            scale,
            pool_bytes: (POOL_BYTES * scale) as u64,
            seed: 42,
        }
    }

    /// The heterogeneous "2-1-1" configuration: a 2-disk RAID-0 target
    /// plus two standalone disks (§6.4).
    pub fn config_2_1_1(scale: f64) -> Self {
        Scenario {
            catalog: Catalog::tpch_like(scale),
            targets: vec![
                TargetConfig::raid0("raid2x", vec![scaled_disk(scale); 2], RAID_STRIPE),
                TargetConfig::single("disk2", scaled_disk(scale)),
                TargetConfig::single("disk3", scaled_disk(scale)),
            ],
            scale,
            pool_bytes: (POOL_BYTES * scale) as u64,
            seed: 42,
        }
    }

    /// Four disks plus an SSD of the given capacity fraction of the
    /// paper's 32 GB (§6.4's SSD experiments vary 32/10/6/4 GB).
    pub fn disks_plus_ssd(scale: f64, ssd_bytes_at_scale1: f64) -> Self {
        let mut targets: Vec<TargetConfig> = (0..4)
            .map(|i| TargetConfig::single(format!("disk{i}"), scaled_disk(scale)))
            .collect();
        targets.push(TargetConfig::single(
            "ssd",
            DeviceSpec::Ssd(SsdParams::sata_gen1((ssd_bytes_at_scale1 * scale) as u64)),
        ));
        Scenario {
            catalog: Catalog::tpch_like(scale),
            targets,
            scale,
            pool_bytes: (POOL_BYTES * scale) as u64,
            seed: 42,
        }
    }

    /// The consolidation scenario: TPC-H + TPC-C catalogs (40 objects)
    /// on four disks (§6.3). Pool is 1.5 GB-equivalent, as the paper
    /// used for OLTP.
    pub fn consolidation(scale: f64) -> Self {
        Scenario {
            catalog: Catalog::consolidation(scale),
            targets: (0..4)
                .map(|i| TargetConfig::single(format!("disk{i}"), scaled_disk(scale)))
                .collect(),
            scale,
            pool_bytes: (1.5e9 * scale) as u64,
            seed: 42,
        }
    }

    /// TPC-C-like catalog on four disks (standalone OLTP runs).
    pub fn oltp_disks(scale: f64) -> Self {
        Scenario {
            catalog: Catalog::tpcc_like(scale),
            targets: (0..4)
                .map(|i| TargetConfig::single(format!("disk{i}"), scaled_disk(scale)))
                .collect(),
            scale,
            pool_bytes: (1.5e9 * scale) as u64,
            seed: 42,
        }
    }

    /// Target capacities in bytes.
    pub fn capacities(&self) -> Vec<u64> {
        self.targets.iter().map(|t| t.capacity()).collect()
    }

    /// A fresh storage system for this scenario.
    pub fn storage(&self) -> StorageSystem {
        StorageSystem::new(self.targets.clone(), self.seed)
    }
}

/// Execution settings for validation runs.
#[derive(Clone, Debug)]
pub struct RunSettings {
    /// Capture an op-log (per-request issue/complete timestamps) into
    /// the run report's `trace`, for fitting and replay.
    pub capture_oplog: bool,
    /// Hard stop for OLTP-only runs (simulated seconds).
    pub max_time: Option<f64>,
    /// Stop OLTP-only runs after this many transactions.
    pub txn_cap: Option<u64>,
    /// Warm-up excluded from tpm (simulated seconds).
    pub oltp_warmup: f64,
    /// RNG seed for request generation.
    pub seed: u64,
}

impl Default for RunSettings {
    fn default() -> Self {
        RunSettings {
            capture_oplog: false,
            max_time: None,
            txn_cap: None,
            oltp_warmup: 0.0,
            seed: 7,
        }
    }
}

/// Runs `workloads` under the layout given by `rows` and reports.
///
/// Fails with [`WaslaError::Placement`] when the layout cannot be
/// realized on the scenario's targets (bad rows, over capacity).
pub fn run_layout(
    scenario: &Scenario,
    workloads: &[SqlWorkload],
    rows: &[Vec<f64>],
    settings: &RunSettings,
) -> Result<RunReport, WaslaError> {
    run_layout_observed(scenario, workloads, rows, settings).map(|o| o.report)
}

/// Like [`run_layout`], but also reports the device faults the active
/// fault plan injected into the run (empty without an active plan;
/// see [`wasla_simlib::fault`]).
pub fn run_layout_observed(
    scenario: &Scenario,
    workloads: &[SqlWorkload],
    rows: &[Vec<f64>],
    settings: &RunSettings,
) -> Result<RunOutcome, WaslaError> {
    let placement = Placement::build(
        rows,
        &scenario.catalog.sizes(),
        &scenario.capacities(),
        LVM_STRIPE,
    )?;
    let mut storage = scenario.storage();
    let config = RunConfig {
        seed: settings.seed,
        scale: scenario.scale,
        pool_bytes: scenario.pool_bytes,
        max_time: settings.max_time,
        txn_cap: settings.txn_cap,
        oltp_warmup: settings.oltp_warmup,
        capture_oplog: settings.capture_oplog,
        ..RunConfig::default()
    };
    Ok(Engine::new(
        &scenario.catalog,
        workloads,
        &placement,
        &mut storage,
        config,
    )
    .run_observed()?)
}

/// Runs `workloads` under a [`Layout`].
pub fn run_with_layout(
    scenario: &Scenario,
    workloads: &[SqlWorkload],
    layout: &Layout,
    settings: &RunSettings,
) -> Result<RunReport, WaslaError> {
    run_layout(scenario, workloads, layout.rows(), settings)
}

/// Configuration of the advise pipeline.
#[derive(Clone, Debug)]
pub struct AdviseConfig {
    /// Calibration grid for target cost models.
    pub grid: CalibrationGrid,
    /// Advisor options (solver, regularization, extra starts).
    pub advisor: AdvisorOptions,
    /// Trace-fitting options.
    pub fit: FitConfig,
    /// Settings for the trace-collection run ([`TraceStage`] turns
    /// op-log capture on whatever `capture_oplog` says).
    ///
    /// [`TraceStage`]: crate::stages::TraceStage
    pub trace_run: RunSettings,
    /// Administrator placement constraints (pins, forbids) applied to
    /// the assembled layout problem.
    pub constraints: Vec<AdminConstraint>,
}

impl AdviseConfig {
    /// Full-fidelity settings (paper-equivalent).
    pub fn full() -> Self {
        AdviseConfig {
            grid: CalibrationGrid::default(),
            advisor: AdvisorOptions {
                regularize: true,
                ..AdvisorOptions::default()
            },
            fit: FitConfig::default(),
            trace_run: RunSettings::default(),
            constraints: Vec::new(),
        }
    }

    /// Coarse, fast settings for tests and doctests.
    pub fn fast() -> Self {
        let mut cfg = Self::full();
        cfg.grid = CalibrationGrid::coarse();
        cfg.advisor.solver.auglag.inner.max_iters = 25;
        cfg.advisor.solver.temperatures = vec![0.15, 0.03];
        cfg
    }
}

/// One graceful degradation the pipeline worked around instead of
/// failing on. Notes are typed so callers (and tests) can react to
/// specific degradations; `Display` renders them for operators.
///
/// Outside fault-injection testing the pipeline produces no notes
/// other than [`DegradedNote::CacheQuarantined`], which fires whenever
/// a persisted session cache arrives corrupt.
#[derive(Clone, Debug, PartialEq)]
pub enum DegradedNote {
    /// The captured op-log arrived damaged; the valid prefix was
    /// fitted and the torn tail discarded.
    TraceSalvaged {
        /// Records in the fitted prefix.
        kept: usize,
        /// Damaged-tail records discarded.
        dropped: usize,
    },
    /// A storage target answered slowly during the trace run.
    DeviceDegraded {
        /// The target's name.
        target: String,
        /// Service-time multiplier observed.
        factor: f64,
    },
    /// A storage target failed during the trace run; it was modeled as
    /// pathologically slow so the advisor steers load away.
    DeviceFailed {
        /// The target's name.
        target: String,
    },
    /// Calibration measurements for a target's member device came back
    /// degraded; its cost model overestimates service times.
    CalibrationDegraded {
        /// The target's name.
        device: String,
        /// Service-time multiplier baked into the model.
        factor: f64,
    },
    /// The NLP solve ran under an exhausted budget or fell down the
    /// fallback chain; the layout is feasible but possibly weaker.
    SolverDegraded {
        /// How the solve stage arrived at its layout.
        quality: SolveQuality,
    },
    /// A persisted session-cache file was corrupt or version-skewed;
    /// it was quarantined and the cache rebuilt cold.
    CacheQuarantined {
        /// Where the damaged file was moved.
        path: String,
    },
    /// Batch admission control browned this request out: it crossed
    /// the policy's soft queue bound, so the solve ran at the cheapest
    /// rung (rate-greedy) instead of being rejected outright.
    Shed {
        /// The request's position in the admission order.
        position: usize,
        /// The soft bound it crossed.
        threshold: usize,
    },
}

impl std::fmt::Display for DegradedNote {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradedNote::TraceSalvaged { kept, dropped } => {
                write!(
                    f,
                    "trace tail damaged: fitted {kept} records, dropped {dropped}"
                )
            }
            DegradedNote::DeviceDegraded { target, factor } => {
                write!(f, "target {target} degraded ({factor:.1}x service time)")
            }
            DegradedNote::DeviceFailed { target } => write!(f, "target {target} failed"),
            DegradedNote::CalibrationDegraded { device, factor } => {
                write!(f, "calibration of {device} degraded ({factor:.1}x)")
            }
            DegradedNote::SolverDegraded { quality } => {
                write!(f, "solver budget exhausted ({quality:?})")
            }
            DegradedNote::CacheQuarantined { path } => {
                write!(f, "corrupt session cache quarantined to {path}")
            }
            DegradedNote::Shed {
                position,
                threshold,
            } => {
                write!(
                    f,
                    "browned out at admission position {position} (soft bound {threshold}): cheapest-rung solve"
                )
            }
        }
    }
}

/// Everything the advise pipeline produced.
pub struct AdviseOutcome {
    /// The SEE trace-collection run (also the SEE baseline numbers).
    pub baseline_run: RunReport,
    /// The fitted per-object workload descriptions.
    pub fitted: WorkloadSet,
    /// The assembled layout problem (with calibrated models).
    ///
    /// Its member tables cover only the (size, run) columns the fitted
    /// workloads can reach ([`calibration_demands`]); every other cell
    /// is NaN. Re-solving with other object sizes or rates is fine when
    /// each object's rate-weighted mean request size is unchanged (as
    /// when every rate of an object scales alike). A caller that
    /// changes request sizes, run counts or that mix must rebuild the
    /// models with [`AdvisorSession::models_for`].
    pub problem: LayoutProblem,
    /// The advisor's recommendation.
    pub recommendation: Recommendation,
    /// Degradations the pipeline worked around (empty on a clean run).
    pub degraded: Vec<DegradedNote>,
}

impl AdviseOutcome {
    /// True when any stage degraded gracefully instead of failing.
    pub fn is_degraded(&self) -> bool {
        !self.degraded.is_empty()
    }
}

/// The calibration columns each target's member table must hold so
/// that pricing `fitted` on `targets` under any layout reads only
/// measured cells: per target, the union over every target built from
/// the same member spec (targets sharing a spec share one table), for
/// the LVM stripe [`assemble_problem`] lays objects out with. Fails
/// like [`TargetCostModel::calibratable_spec`] on the first target that
/// cannot be calibrated.
pub fn calibration_demands(
    targets: &[TargetConfig],
    fitted: &WorkloadSet,
    grid: &CalibrationGrid,
) -> Result<Vec<ColumnDemand>, ModelError> {
    let mut specs: Vec<(&DeviceSpec, ColumnDemand)> = Vec::new();
    let mut slots = Vec::with_capacity(targets.len());
    for config in targets {
        let spec = TargetCostModel::calibratable_spec(config, grid)?;
        let slot = specs
            .iter()
            .position(|(s, _)| *s == spec)
            .unwrap_or_else(|| {
                specs.push((spec, ColumnDemand::none(grid)));
                specs.len() - 1
            });
        add_calibration_demand(&mut specs[slot].1, config, &fitted.specs, LVM_STRIPE as f64);
        slots.push(slot);
    }
    Ok(slots
        .into_iter()
        .map(|slot| specs[slot].1.clone())
        .collect())
}

/// Assembles a [`LayoutProblem`] from a scenario, fitted workloads,
/// and already-built target cost models (the session layer supplies
/// models from its calibration cache; [`build_problem`] calibrates
/// fresh ones).
pub fn assemble_problem(
    scenario: &Scenario,
    fitted: WorkloadSet,
    models: Vec<TargetCostModel>,
    constraints: Vec<AdminConstraint>,
) -> LayoutProblem {
    // Reserve allocation slack on each target: striped placements round
    // every (object, target) extent up to whole stripes, so a layout
    // that packs a target to 100% of its fractional capacity may not be
    // implementable. One stripe per object bounds the rounding.
    let slack = scenario.catalog.len() as u64 * LVM_STRIPE;
    LayoutProblem {
        kinds: scenario.catalog.objects().iter().map(|o| o.kind).collect(),
        workloads: fitted,
        capacities: scenario
            .capacities()
            .into_iter()
            .map(|c| c.saturating_sub(slack).max(c / 2))
            .collect(),
        target_names: scenario.targets.iter().map(|t| t.name.clone()).collect(),
        models: models
            .into_iter()
            .map(|m| Arc::new(m) as Arc<dyn wasla_model::CostModel>)
            .collect(),
        stripe_size: LVM_STRIPE as f64,
        constraints,
    }
}

/// Builds a [`LayoutProblem`] from a scenario and fitted workloads,
/// calibrating target cost models.
pub fn build_problem(
    scenario: &Scenario,
    fitted: WorkloadSet,
    grid: &CalibrationGrid,
) -> Result<LayoutProblem, WaslaError> {
    let models = TargetCostModel::for_targets(&scenario.targets, grid, scenario.seed)?;
    Ok(assemble_problem(scenario, fitted, models, Vec::new()))
}

/// The full trace → fit → calibrate → advise pipeline. The trace is
/// collected under SEE (the natural "operational" baseline the paper
/// traces against).
///
/// This is the cold path: each call runs on a fresh
/// [`AdvisorSession`], so nothing is reused across calls. Hold a
/// session yourself to share calibration tables and workload fits.
pub fn advise(
    scenario: &Scenario,
    workloads: &[SqlWorkload],
    config: &AdviseConfig,
) -> Result<AdviseOutcome, WaslaError> {
    AdvisorSession::new().advise(scenario, workloads, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasla_workload::SqlWorkload;

    #[test]
    fn scenario_shapes() {
        let s = Scenario::homogeneous_disks(4, 0.01);
        assert_eq!(s.targets.len(), 4);
        assert_eq!(s.catalog.len(), 20);
        let h = Scenario::config_3_1(0.01);
        assert_eq!(h.targets.len(), 2);
        assert_eq!(h.targets[0].width(), 3);
        let c = Scenario::consolidation(0.01);
        assert_eq!(c.catalog.len(), 40);
        let ssd = Scenario::disks_plus_ssd(0.01, SSD_BYTES);
        assert_eq!(ssd.targets.len(), 5);
    }

    #[test]
    fn capacities_scale_with_scenario() {
        let small = Scenario::homogeneous_disks(4, 0.01);
        let large = Scenario::homogeneous_disks(4, 0.1);
        let cs = small.capacities()[0] as f64;
        let cl = large.capacities()[0] as f64;
        assert!((cl / cs - 10.0).abs() < 0.01, "ratio {}", cl / cs);
        // Data-to-capacity pressure is scale-invariant.
        let ps = small.catalog.total_size() as f64 / (4.0 * cs);
        let pl = large.catalog.total_size() as f64 / (4.0 * cl);
        assert!((ps - pl).abs() < 0.01);
    }

    #[test]
    fn build_problem_reserves_allocation_slack() {
        let scenario = Scenario::homogeneous_disks(4, 0.05);
        let workloads = [SqlWorkload::olap1_21(3)];
        let outcome = advise(&scenario, &workloads, &AdviseConfig::fast()).expect("advise runs");
        for (advisor_cap, raw_cap) in outcome.problem.capacities.iter().zip(scenario.capacities()) {
            assert!(*advisor_cap < raw_cap, "no slack reserved");
            assert!(*advisor_cap >= raw_cap / 2);
        }
    }

    #[test]
    fn see_run_and_fit_produce_consistent_problem() {
        let scenario = Scenario::homogeneous_disks(4, 0.01);
        let workloads = [SqlWorkload::olap1_21(3)];
        let outcome = advise(&scenario, &workloads, &AdviseConfig::fast()).expect("advise runs");
        assert_eq!(outcome.baseline_run.queries_completed, 21);
        assert_eq!(outcome.fitted.len(), 20);
        outcome.problem.validate().unwrap();
        let layout = outcome.recommendation.final_layout();
        assert!(layout.is_regular());
        assert!(layout.is_valid(
            &outcome.problem.workloads.sizes,
            &outcome.problem.capacities
        ));
    }

    #[test]
    fn optimized_layout_not_slower_than_see() {
        let scenario = Scenario::homogeneous_disks(4, 0.015);
        let workloads = [SqlWorkload::olap1_21(5)];
        let outcome = advise(&scenario, &workloads, &AdviseConfig::fast()).expect("advise runs");
        let optimized = run_with_layout(
            &scenario,
            &workloads,
            outcome.recommendation.final_layout(),
            &RunSettings::default(),
        )
        .expect("recommended layout is implementable");
        let speedup = optimized.speedup_vs(&outcome.baseline_run);
        assert!(
            speedup > 0.95,
            "optimized should not regress: speedup {speedup:.3}"
        );
    }

    #[test]
    fn run_layout_rejects_unimplementable_layouts() {
        let scenario = Scenario::homogeneous_disks(4, 0.01);
        let workloads = [SqlWorkload::olap1_21(3)];
        // Rows that don't sum to one violate the integrity constraint.
        let rows = vec![vec![0.5, 0.0, 0.0, 0.0]; scenario.catalog.len()];
        let err = run_layout(&scenario, &workloads, &rows, &RunSettings::default()).unwrap_err();
        assert!(matches!(
            err,
            crate::error::WaslaError::Placement(wasla_exec::PlacementError::BadRow { .. })
        ));
    }
}
