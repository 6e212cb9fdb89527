//! Micro-benchmarks for cost-model calibration and lookup.

use std::hint::black_box;
use wasla::model::{calibrate_columns, calibrate_device, CalibrationGrid, CostModel};
use wasla::pipeline::{calibration_demands, AdviseConfig, Scenario};
use wasla::storage::{DeviceSpec, DiskParams, IoKind, GIB};
use wasla::workload::SqlWorkload;
use wasla::AdvisorSession;
use wasla_bench::harness::Harness;

fn bench_calibration(c: &mut Harness) {
    let spec = DeviceSpec::Disk(DiskParams::scsi_15k(18 * GIB));
    let grid = CalibrationGrid::coarse();
    c.bench_function("calibrate_disk_coarse_grid", |b| {
        b.iter(|| black_box(calibrate_device(black_box(&spec), &grid, 7)))
    });
}

/// The default grid measured whole, and only the columns a cold
/// OLAP1-21 advise on four disks at scale 0.03 demands (ci/bench_diff.sh
/// gates the ratio of the two).
fn bench_calibration_demand(c: &mut Harness) {
    let scenario = Scenario::homogeneous_disks(4, 0.03);
    let config = AdviseConfig::full();
    let fitted = AdvisorSession::new()
        .advise(&scenario, &[SqlWorkload::olap1_21(3)], &config)
        .expect("advise")
        .fitted;
    let demands =
        calibration_demands(&scenario.targets, &fitted, &config.grid).expect("calibratable");
    let spec = &scenario.targets[0].members[0];
    c.bench_function("calibrate_disk_default_full", |b| {
        b.iter(|| black_box(calibrate_device(black_box(spec), &config.grid, 7)))
    });
    c.bench_function("calibrate_disk_default_demanded", |b| {
        b.iter(|| {
            black_box(calibrate_columns(
                black_box(spec),
                &config.grid,
                7,
                &demands[0],
                None,
            ))
        })
    });
}

fn bench_lookup(c: &mut Harness) {
    let spec = DeviceSpec::Disk(DiskParams::scsi_15k(18 * GIB));
    let model = calibrate_device(&spec, &CalibrationGrid::default(), 7);
    c.bench_function("table_model_interpolated_lookup", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            let size = 4096.0 + (k % 64) as f64 * 4096.0;
            let run = 1.0 + (k % 200) as f64;
            let chi = (k % 16) as f64 * 0.5;
            black_box(model.request_cost(IoKind::Read, size, run, chi))
        })
    });
}

fn bench_model_serialization(c: &mut Harness) {
    let spec = DeviceSpec::Disk(DiskParams::scsi_15k(18 * GIB));
    let model = calibrate_device(&spec, &CalibrationGrid::default(), 7);
    c.bench_function("table_model_json_roundtrip", |b| {
        b.iter(|| {
            let json = model.to_json();
            black_box(wasla::model::TableModel::from_json(&json).expect("round trip"))
        })
    });
}

wasla_bench::bench_main!(
    "models",
    bench_calibration,
    bench_calibration_demand,
    bench_lookup,
    bench_model_serialization
);
