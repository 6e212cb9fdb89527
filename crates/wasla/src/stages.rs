//! Concrete pipeline stages.
//!
//! The facade's advise pipeline is the composition of six
//! [`Stage`]s — trace, fit, calibrate, solve, regularize, place —
//! each a thin typed wrapper over the layer that does the work. The
//! wrappers exist so [`AdvisorSession`](crate::session::AdvisorSession)
//! can treat the pipeline uniformly: every stage has a name, a typed
//! error (lifted into [`WaslaError`]), and — for the pure stages —
//! a content-hash cache key the session memoizes outputs under.
//!
//! Cache-key scheme (FNV-1a over canonical JSON and raw fields):
//!
//! * **calibrate** — `(DeviceSpec JSON, CalibrationGrid JSON, seed)`:
//!   a calibration table is a pure function of the device, the grid,
//!   and the measurement seed.
//! * **fit** — `(OpLog::trace_content_hash, FitConfig fields, object
//!   names, object sizes, objective id)`: a fitted workload set is a
//!   pure function of the op-log and the object inventory; the objective id
//!   partitions the cache per layout objective so a warm session
//!   answering for one objective never serves another (warm ≡ cold
//!   holds per objective).
//!
//! Trace, solve, regularize, and place are not cached: the trace stage
//! runs a simulation whose cost *is* the measurement, and the solve
//! chain is re-run per request (its inputs embed freshly fitted
//! workloads and per-request seeds).

use crate::error::WaslaError;
use crate::pipeline::{self, RunSettings, Scenario, LVM_STRIPE};
use wasla_core::{
    AdvisorError, AdvisorOptions, Layout, LayoutProblem, ObjectiveKind, Recommendation,
    SolveOutcome, Stage,
};
use wasla_exec::{Placement, RunOutcome};
use wasla_model::{calibrate_columns, CalibrationGrid, ColumnDemand, TableModel};
use wasla_simlib::hash::{hash_json, Fnv64};
use wasla_storage::DeviceSpec;
use wasla_trace::oplog::{fit_oplog_streamed, OpLog};
use wasla_trace::FitConfig;
use wasla_workload::SqlWorkload;

/// Input to [`TraceStage`]: the scenario and workload mix to trace.
pub struct TraceInput<'a> {
    /// The catalog/targets/scale under test.
    pub scenario: &'a Scenario,
    /// The SQL workloads to run.
    pub workloads: &'a [SqlWorkload],
}

/// Stage 1 — run the workload under the SEE baseline layout with
/// op-log capture on, producing the baseline [`RunOutcome`]: the run
/// report (whose `trace` carries the op-log) plus any device-fault
/// events the run observed.
pub struct TraceStage<'a> {
    /// Settings for the trace-collection run; `capture_oplog` is
    /// forced on.
    pub settings: &'a RunSettings,
}

impl<'a> Stage for TraceStage<'a> {
    type Input = TraceInput<'a>;
    type Output = RunOutcome;
    type Error = WaslaError;

    fn name(&self) -> &'static str {
        "trace"
    }

    fn run(&self, input: &TraceInput<'a>) -> Result<RunOutcome, WaslaError> {
        let n = input.scenario.catalog.len();
        let m = input.scenario.targets.len();
        // Reject degenerate scenarios before handing them to the
        // execution engine, which assumes a populated inventory.
        if n == 0 {
            return Err(AdvisorError::InvalidProblem(
                "catalog is empty: nothing to trace or lay out".to_string(),
            )
            .into());
        }
        if m == 0 {
            return Err(AdvisorError::InvalidProblem(
                "scenario has no storage targets".to_string(),
            )
            .into());
        }
        let see = Layout::see(n, m);
        let mut settings = self.settings.clone();
        settings.capture_oplog = true;
        let outcome =
            pipeline::run_layout_observed(input.scenario, input.workloads, see.rows(), &settings)?;
        if outcome.report.trace.is_none() {
            return Err(WaslaError::Internal(
                "trace capture was requested but the run produced no trace".to_string(),
            ));
        }
        Ok(outcome)
    }
}

/// Input to [`FitStage`]: an op-log plus the object inventory its
/// stream ids index into.
pub struct FitInput<'a> {
    /// The captured op-log.
    pub trace: &'a OpLog,
    /// Object names.
    pub names: &'a [String],
    /// Object sizes in bytes.
    pub sizes: &'a [u64],
}

/// Stage 2 — fit Rome-style workload descriptions from the op-log
/// (Rubicon). Pure in its inputs, so cacheable by log identity.
pub struct FitStage<'a> {
    /// Fitting tunables.
    pub config: &'a FitConfig,
    /// The layout objective the fitted workloads will be solved
    /// under. The fit itself is objective-independent, but the id
    /// participates in the cache key so each objective's warm path
    /// replays exactly the entries its own cold path wrote.
    pub objective: ObjectiveKind,
}

impl<'a> FitStage<'a> {
    /// The fit cache key for an op-log known only by its content hash.
    ///
    /// This is the single key scheme for every path into the fit
    /// cache: clean logs ([`Stage::cache_key`], keyed by
    /// [`OpLog::trace_content_hash`]) and fault-damaged salvage (keyed
    /// by [`OpLog::trace_content_hash_damaged`]).
    pub fn key_for_hash(&self, trace_hash: u64, names: &[String], sizes: &[u64]) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(trace_hash)
            .write_f64(self.config.window_s)
            .write_u64(self.config.gap_tolerance)
            .write_u64(names.len() as u64);
        for name in names {
            h.write_str(name);
        }
        for &size in sizes {
            h.write_u64(size);
        }
        h.write_str(self.objective.name());
        h.finish()
    }
}

impl<'a> Stage for FitStage<'a> {
    type Input = FitInput<'a>;
    type Output = wasla_workload::WorkloadSet;
    type Error = WaslaError;

    fn name(&self) -> &'static str {
        "fit"
    }

    fn run(&self, input: &FitInput<'a>) -> Result<wasla_workload::WorkloadSet, WaslaError> {
        fit_oplog_streamed(input.trace, input.names, input.sizes, self.config)
            .map_err(WaslaError::from)
    }

    fn cache_key(&self, input: &FitInput<'a>) -> Option<u64> {
        Some(self.key_for_hash(input.trace.trace_content_hash(), input.names, input.sizes))
    }
}

/// Input to [`CalibrateStage`]: a device spec and the measurement
/// seed.
pub struct CalibrateInput<'a> {
    /// The device type to calibrate.
    pub spec: &'a DeviceSpec,
    /// Base seed for the calibration measurements.
    pub seed: u64,
}

/// Stage 3 — calibrate a tabulated cost model for one device type.
/// Pure in `(spec, grid, seed)`, so cacheable; this is the expensive
/// stage warm sessions skip. [`Stage::run`] measures the whole grid;
/// the session's advise path measures only the columns its workloads
/// demand ([`CalibrateStage::columns`]), and every measured cell is
/// bit-identical either way.
pub struct CalibrateStage<'a> {
    /// The calibration grid.
    pub grid: &'a CalibrationGrid,
}

impl<'a> CalibrateStage<'a> {
    /// `base` (or an unmeasured table) plus every `demand` column it
    /// lacks (see [`calibrate_columns`]).
    pub fn columns(
        &self,
        input: &CalibrateInput<'a>,
        demand: &ColumnDemand,
        base: Option<&TableModel>,
    ) -> TableModel {
        calibrate_columns(input.spec, self.grid, input.seed, demand, base)
    }
}

impl<'a> Stage for CalibrateStage<'a> {
    type Input = CalibrateInput<'a>;
    type Output = TableModel;
    type Error = WaslaError;

    fn name(&self) -> &'static str {
        "calibrate"
    }

    fn run(&self, input: &CalibrateInput<'a>) -> Result<TableModel, WaslaError> {
        Ok(self.columns(input, &ColumnDemand::all(self.grid), None))
    }

    fn cache_key(&self, input: &CalibrateInput<'a>) -> Option<u64> {
        Some(
            Fnv64::new()
                .write_u64(hash_json(input.spec))
                .write_u64(hash_json(self.grid))
                .write_u64(input.seed)
                .finish(),
        )
    }
}

/// Stage 4 — the multi-start NLP solve over the assembled problem.
pub struct SolveStage<'a> {
    /// Advisor options (solver settings, starts, seed).
    pub options: &'a AdvisorOptions,
}

impl<'a> Stage for SolveStage<'a> {
    type Input = LayoutProblem;
    type Output = SolveOutcome;
    type Error = WaslaError;

    fn name(&self) -> &'static str {
        "solve"
    }

    fn run(&self, input: &LayoutProblem) -> Result<SolveOutcome, WaslaError> {
        wasla_core::solve_stage(input, self.options).map_err(WaslaError::from)
    }
}

/// Input to [`RegularizeStage`]: the problem and the solve stage's
/// outcome.
pub struct RegularizeInput<'a> {
    /// The layout problem the solve ran over.
    pub problem: &'a LayoutProblem,
    /// The solve stage's outcome.
    pub solved: SolveOutcome,
}

/// Stage 5 — regularize the solver layout (when requested), apply the
/// SEE sanity fallback, and assemble the final [`Recommendation`].
pub struct RegularizeStage<'a> {
    /// Advisor options (regularization flag).
    pub options: &'a AdvisorOptions,
}

impl<'a> Stage for RegularizeStage<'a> {
    type Input = RegularizeInput<'a>;
    type Output = Recommendation;
    type Error = WaslaError;

    fn name(&self) -> &'static str {
        "regularize"
    }

    fn run(&self, input: &RegularizeInput<'a>) -> Result<Recommendation, WaslaError> {
        wasla_core::regularize_stage(input.problem, self.options, input.solved.clone())
            .map_err(WaslaError::from)
    }
}

/// Input to [`PlaceStage`]: a layout's rows and the physical shape to
/// realize them on.
pub struct PlaceInput<'a> {
    /// Layout matrix rows (N × M fractions).
    pub rows: &'a [Vec<f64>],
    /// Object sizes in bytes.
    pub sizes: &'a [u64],
    /// Raw target capacities in bytes.
    pub capacities: &'a [u64],
}

/// Stage 6 — realize a layout as concrete per-target extents.
///
/// The lifetime ties the stage to its borrowed [`PlaceInput`], like
/// every other stage in this module.
pub struct PlaceStage<'a> {
    /// LVM stripe size for striped rows.
    pub stripe: u64,
    _input: std::marker::PhantomData<&'a ()>,
}

impl<'a> PlaceStage<'a> {
    /// A place stage with the given stripe size.
    pub fn new(stripe: u64) -> Self {
        PlaceStage {
            stripe,
            _input: std::marker::PhantomData,
        }
    }
}

impl<'a> Default for PlaceStage<'a> {
    fn default() -> Self {
        PlaceStage::new(LVM_STRIPE)
    }
}

impl<'a> Stage for PlaceStage<'a> {
    type Input = PlaceInput<'a>;
    type Output = Placement;
    type Error = WaslaError;

    fn name(&self) -> &'static str {
        "place"
    }

    fn run(&self, input: &PlaceInput<'a>) -> Result<Placement, WaslaError> {
        Placement::build(input.rows, input.sizes, input.capacities, self.stripe)
            .map_err(WaslaError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasla_storage::DiskParams;

    #[test]
    fn calibrate_cache_key_separates_spec_grid_and_seed() {
        let grid_a = CalibrationGrid::coarse();
        let grid_b = CalibrationGrid::default();
        let disk = DeviceSpec::Disk(DiskParams::scsi_15k(1 << 30));
        let ssd = DeviceSpec::Ssd(wasla_storage::SsdParams::sata_gen1(1 << 30));
        let key = |grid: &CalibrationGrid, spec: &DeviceSpec, seed: u64| {
            CalibrateStage { grid }
                .cache_key(&CalibrateInput { spec, seed })
                .unwrap()
        };
        let base = key(&grid_a, &disk, 7);
        assert_eq!(base, key(&grid_a, &disk, 7), "key must be stable");
        assert_ne!(base, key(&grid_b, &disk, 7), "grid must be in the key");
        assert_ne!(base, key(&grid_a, &ssd, 7), "spec must be in the key");
        assert_ne!(base, key(&grid_a, &disk, 8), "seed must be in the key");
    }

    #[test]
    fn fit_cache_key_tracks_trace_and_inventory() {
        use wasla_simlib::SimTime;
        use wasla_storage::IoKind;
        use wasla_trace::oplog::OpRecord;
        let record = |offset: u64| OpRecord {
            kind: IoKind::Read,
            stream: 0,
            offset,
            len: 8192,
            issue: SimTime::from_secs(0.5),
            complete: SimTime::from_secs(0.5),
        };
        let mut trace_a = OpLog::new();
        trace_a.push(record(0));
        let mut trace_b = OpLog::new();
        trace_b.push(record(8192));
        let config = FitConfig::default();
        let names = ["obj".to_string()];
        let key = |trace: &OpLog, sizes: &[u64], objective: ObjectiveKind| {
            FitStage {
                config: &config,
                objective,
            }
            .cache_key(&FitInput {
                trace,
                names: &names,
                sizes,
            })
            .unwrap()
        };
        let minmax = ObjectiveKind::MinMax;
        let base = key(&trace_a, &[1 << 20], minmax);
        assert_eq!(base, key(&trace_a, &[1 << 20], minmax));
        assert_ne!(
            base,
            key(&trace_b, &[1 << 20], minmax),
            "trace must be in the key"
        );
        assert_ne!(
            base,
            key(&trace_a, &[2 << 20], minmax),
            "inventory must be in the key"
        );
        // The objective id partitions the cache: each objective's warm
        // path only ever sees entries its own cold path wrote.
        for objective in [ObjectiveKind::ProvisioningCost, ObjectiveKind::WearBlend] {
            assert_ne!(
                base,
                key(&trace_a, &[1 << 20], objective),
                "objective {} must be in the key",
                objective.name()
            );
        }
        // The hash-first entry point is the same key scheme, so the
        // salvage path's damaged-hash keys live in the same cache.
        assert_eq!(
            base,
            FitStage {
                config: &config,
                objective: minmax,
            }
            .key_for_hash(trace_a.trace_content_hash(), &names, &[1 << 20])
        );
    }

    #[test]
    fn stage_names_match_the_core_vocabulary() {
        let settings = RunSettings::default();
        let fit_config = FitConfig::default();
        let grid = CalibrationGrid::coarse();
        let options = AdvisorOptions::default();
        let names = [
            TraceStage {
                settings: &settings,
            }
            .name(),
            FitStage {
                config: &fit_config,
                objective: ObjectiveKind::MinMax,
            }
            .name(),
            CalibrateStage { grid: &grid }.name(),
            SolveStage { options: &options }.name(),
            RegularizeStage { options: &options }.name(),
            PlaceStage::default().name(),
        ];
        for name in names {
            assert!(wasla_core::STAGE_NAMES.contains(&name), "unknown {name}");
        }
    }
}
