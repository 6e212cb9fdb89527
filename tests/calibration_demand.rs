//! Demand-driven calibration: a cold `advise` measures only the
//! (size, run) calibration columns its fitted workloads can reach, and
//! its answer is bit-identical to the same `advise` on a session whose
//! tables were calibrated whole beforehand.
//!
//! The cases cover the paper's four target configurations under
//! OLAP1-21 and OLAP8-63, the TPC-C-like OLTP mix and the consolidated
//! catalog, each at `WASLA_THREADS` 1 and 8, on the default
//! calibration grid (the coarse test grid has too few columns for a
//! demand to skip any). The suite rides the `ci/check.sh` fault matrix:
//! both sessions see the same plan, so the equality holds on degraded
//! answers and typed errors too.
//!
//! The tests mutate `WASLA_THREADS` and the fault plan, so they
//! serialize on [`ENV_LOCK`].

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};
use wasla::model::{
    calibrate_columns, calibrate_device, calibration_fault, CalibrationGrid, ColumnDemand,
    TableModel,
};
use wasla::persist::CALIBRATIONS_FILE;
use wasla::pipeline::{AdviseConfig, AdviseOutcome, Scenario, SSD_BYTES};
use wasla::simlib::fault::{self, FaultPlan};
use wasla::simlib::hash::hash_json;
use wasla::simlib::json::{self, FromJson, Json};
use wasla::storage::{DeviceSpec, DiskParams, IoKind, GIB};
use wasla::workload::SqlWorkload;
use wasla::{AdvisorSession, Service, WaslaError};

static ENV_LOCK: Mutex<()> = Mutex::new(());

fn env_lock() -> MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The fast solver settings on the default calibration grid.
fn config() -> AdviseConfig {
    let mut config = AdviseConfig::fast();
    config.grid = CalibrationGrid::default();
    config
}

fn cases() -> Vec<(String, Scenario, Vec<SqlWorkload>, AdviseConfig)> {
    let mut cases = Vec::new();
    for (name, scenario) in [
        ("disks4", Scenario::homogeneous_disks(4, 0.01)),
        ("3-1", Scenario::config_3_1(0.01)),
        ("2-1-1", Scenario::config_2_1_1(0.01)),
        ("disks+ssd", Scenario::disks_plus_ssd(0.01, SSD_BYTES)),
    ] {
        for workload in [SqlWorkload::olap1_21(3), SqlWorkload::olap8_63(5)] {
            let label = format!("{name}/{}", workload.name);
            cases.push((label, scenario.clone(), vec![workload], config()));
        }
    }
    // OLTP terminals run until a stop condition; bound the trace run
    // (under some fault plans the consolidated OLAP stream never ends
    // it either).
    let mut bounded = config();
    bounded.trace_run.max_time = Some(60.0);
    cases.push((
        "oltp".to_string(),
        Scenario::oltp_disks(0.01),
        vec![SqlWorkload::oltp()],
        bounded.clone(),
    ));
    cases.push((
        "consolidation".to_string(),
        Scenario::consolidation(0.01),
        vec![
            SqlWorkload::olap1_21(3),
            SqlWorkload::oltp().with_prefix("C_"),
        ],
        bounded,
    ));
    cases
}

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Everything deterministic about one advise, as exact bits.
fn render(outcome: &Result<AdviseOutcome, WaslaError>) -> String {
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => return format!("error {e}\n"),
    };
    let rec = &outcome.recommendation;
    let mut s = String::new();
    writeln!(
        s,
        "quality {:?} converged {} fell_back {}",
        rec.quality, rec.converged, rec.fell_back_to_see
    )
    .unwrap();
    for stage in &rec.stages {
        let utils: Vec<String> = stage.utilizations.iter().map(|&u| hex(u)).collect();
        writeln!(
            s,
            "stage {} max {} utils {}",
            stage.stage,
            hex(stage.max_utilization),
            utils.join(" ")
        )
        .unwrap();
    }
    let mut layouts = vec![("solver", &rec.solver_layout)];
    if let Some(regular) = &rec.regular_layout {
        layouts.push(("regular", regular));
    }
    for (label, layout) in layouts {
        for (i, row) in layout.rows().iter().enumerate() {
            let cells: Vec<String> = row.iter().map(|&v| hex(v)).collect();
            writeln!(s, "{label} row {i} {}", cells.join(" ")).unwrap();
        }
    }
    for note in &outcome.degraded {
        writeln!(s, "note {note}").unwrap();
    }
    s
}

/// Every case advised on the demand path, checked against the same
/// advise on a prewarmed session; returns the demand path's renders
/// and cache counters.
fn demand_runs() -> String {
    let mut all = String::new();
    for (label, scenario, workloads, config) in cases() {
        let mut demand = AdvisorSession::new();
        let on_demand = demand.advise(&scenario, &workloads, &config);
        let mut whole = AdvisorSession::new();
        // A model error surfaces from the advise below as well.
        let _ = whole.models_for(&scenario.targets, &config.grid, scenario.seed);
        let prewarmed = whole.advise(&scenario, &workloads, &config);
        let rendered = render(&on_demand);
        assert_eq!(
            rendered,
            render(&prewarmed),
            "{label}: demand ≠ whole tables"
        );
        let calibration = demand.stats().calibration;
        writeln!(
            all,
            "case {label} hits {} misses {}\n{rendered}",
            calibration.hits, calibration.misses
        )
        .unwrap();
    }
    all
}

#[test]
fn demand_driven_advise_equals_whole_tables_at_any_thread_count() {
    let _env = env_lock();
    std::env::set_var("WASLA_THREADS", "1");
    let one = demand_runs();
    std::env::set_var("WASLA_THREADS", "8");
    let eight = demand_runs();
    std::env::remove_var("WASLA_THREADS");
    assert_eq!(one, eight, "demand path depends on WASLA_THREADS");
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wasla-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A cold service whose only calibrations came from demand-driven
/// advises persists the same `calibrations.json` bytes as one whose
/// tables were calibrated whole first: a snapshot completes partial
/// tables.
#[test]
fn persisted_calibrations_are_whole_tables() {
    let _env = env_lock();
    let scenario = Scenario::config_2_1_1(0.01);
    let workloads = [SqlWorkload::olap8_63(5)];
    let config = config();
    let persist = |prewarm: bool, name: &str| {
        let dir = scratch_dir(name);
        let (mut service, _) = Service::open(7, &dir).expect("open");
        let session = service.session_mut();
        if prewarm {
            session
                .models_for(&scenario.targets, &config.grid, scenario.seed)
                .expect("calibrate");
        }
        session
            .advise(&scenario, &workloads, &config)
            .expect("advise");
        service.persist().expect("persist");
        let bytes = std::fs::read(dir.join(CALIBRATIONS_FILE)).expect("read snapshot");
        if !prewarm {
            // The session kept its partial table: asking for whole
            // tables now has to measure the rest.
            let session = service.session_mut();
            let before = session.stats().calibration.misses;
            session
                .models_for(&scenario.targets, &config.grid, scenario.seed)
                .expect("calibrate");
            assert!(session.stats().calibration.misses > before);
        }
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    };
    let demanded = persist(false, "demand-persist");
    let whole = persist(true, "whole-persist");
    assert!(demanded == whole, "calibrations.json differs");
}

/// Every cell of a table, reads then writes (`NaN` for unmeasured
/// cells), read back through the JSON codec.
fn cells(table: &TableModel) -> Vec<f64> {
    let doc = Json::parse(&json::to_string(table)).expect("table JSON");
    ["reads", "writes"]
        .iter()
        .flat_map(|grid| {
            let values = doc.field(grid).and_then(|g| g.field("values"));
            Vec::<f64>::from_json(values.expect("values")).expect("numbers")
        })
        .collect()
}

/// Under a calibration fault, every measured cell — of a whole table
/// or of a demanded one — is the clean cell times the fault's latency
/// factor.
#[test]
fn calibration_fault_scales_each_measured_cell() {
    let _env = env_lock();
    let outer = std::env::var(fault::ENV_VAR).ok();
    let spec = DeviceSpec::Disk(DiskParams::scsi_15k(18 * GIB));
    let grid = CalibrationGrid::coarse();
    let key = fault::calibration_key(42, hash_json(&spec));
    let seed = (0..100_000u64)
        .find(|&s| FaultPlan::from_seed(s).is_some_and(|p| p.device_fault(key).is_some()))
        .expect("some seed degrades this calibration");
    let mut demand = ColumnDemand::none(&grid);
    demand.add_query(IoKind::Read, 8192.0, 1.0, 4.0);

    std::env::remove_var(fault::ENV_VAR);
    let clean = cells(&calibrate_device(&spec, &grid, 42));
    std::env::set_var(fault::ENV_VAR, seed.to_string());
    let factor = calibration_fault(&spec, 42)
        .expect("fault")
        .latency_factor();
    let whole = cells(&calibrate_device(&spec, &grid, 42));
    let demanded = cells(&calibrate_columns(&spec, &grid, 42, &demand, None));
    match outer {
        Some(v) => std::env::set_var(fault::ENV_VAR, v),
        None => std::env::remove_var(fault::ENV_VAR),
    }

    assert!(factor != 1.0);
    for ((c, w), d) in clean.iter().zip(&whole).zip(&demanded) {
        assert_eq!(w.to_bits(), (c * factor).to_bits());
        assert!(d.is_nan() || d.to_bits() == w.to_bits());
    }
    assert!(demanded.iter().any(|d| d.is_nan()));
    assert!(demanded.iter().any(|d| !d.is_nan()));
}
