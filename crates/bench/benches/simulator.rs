//! Micro-benchmarks for the storage simulator substrate.

use std::hint::black_box;
use wasla::exec::{see_rows, Engine, Placement, RunConfig};
use wasla::pipeline::{Scenario, LVM_STRIPE};
use wasla::simlib::{SimRng, SimTime};
use wasla::storage::{
    device::DeviceModel, disk::Disk, DeviceSpec, DiskParams, StorageSystem, TargetConfig, TargetIo,
    GIB,
};
use wasla::workload::SqlWorkload;
use wasla_bench::harness::{Harness, Throughput};

fn bench_disk_service_time(c: &mut Harness) {
    let mut group = c.benchmark_group("disk_service_time");
    group.bench_function("sequential", |b| {
        let mut disk = Disk::new(DiskParams::scsi_15k(18 * GIB));
        let mut rng = SimRng::new(1);
        let mut off = 0u64;
        b.iter(|| {
            let req = wasla::storage::request::DeviceIo {
                kind: wasla::storage::IoKind::Read,
                offset: off,
                len: 131072,
                stream: 0,
            };
            off = (off + 131072) % (17 * GIB);
            black_box(disk.service_time(&req, &mut rng))
        })
    });
    group.bench_function("random", |b| {
        let mut disk = Disk::new(DiskParams::scsi_15k(18 * GIB));
        let mut rng = SimRng::new(1);
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            let req = wasla::storage::request::DeviceIo {
                kind: wasla::storage::IoKind::Read,
                offset: (k * 7_919_999_983) % (17 * GIB),
                len: 8192,
                stream: 0,
            };
            black_box(disk.service_time(&req, &mut rng))
        })
    });
    group.finish();
}

fn bench_storage_system_throughput(c: &mut Harness) {
    let mut group = c.benchmark_group("storage_system");
    let batch = 10_000u64;
    group.throughput(Throughput::Elements(batch));
    group.bench_function("submit_drain_10k_requests_4_disks", |b| {
        b.iter(|| {
            let mut sys = StorageSystem::new(
                (0..4)
                    .map(|i| {
                        TargetConfig::single(
                            format!("d{i}"),
                            DeviceSpec::Disk(DiskParams::scsi_15k(18 * GIB)),
                        )
                    })
                    .collect(),
                7,
            );
            for k in 0..batch {
                sys.submit(
                    SimTime::ZERO,
                    (k % 4) as usize,
                    TargetIo::read((k * 1_000_003) % (17 * GIB), 8192, 0),
                    k,
                );
            }
            black_box(sys.drain(SimTime::ZERO))
        })
    });
    group.finish();
}

fn bench_raid_translation(c: &mut Harness) {
    let target = TargetConfig::raid0(
        "r4",
        vec![DeviceSpec::Disk(DiskParams::scsi_15k(18 * GIB)); 4],
        256 * 1024,
    );
    let io = TargetIo::read(1_000_000, 1_048_576, 3);
    c.bench_function("raid0_translate_1MiB", |b| {
        let mut parts = Vec::new();
        b.iter(|| {
            parts.clear();
            target.translate(black_box(&io), &mut parts);
            black_box(parts.len())
        })
    });
}

/// The traffic the advisor's trace stage generates: a full engine run
/// of OLAP8-63 under SEE on four disks with op-log capture on. Unlike
/// `submit_drain_10k_requests_4_disks`, which queues thousands of
/// requests per disk at t=0, the engine keeps a few requests per
/// stream in flight, so the event heap stays shallow and the per-part
/// costs (translation, slab slots, completion delivery) dominate.
/// `records` is the op-log length; divide the median by it for ns per
/// record.
fn bench_engine_trace_run(c: &mut Harness) {
    let scenario = Scenario::homogeneous_disks(4, 0.03);
    let workloads = [SqlWorkload::olap8_63(5)];
    let rows = see_rows(scenario.catalog.len(), scenario.targets.len());
    let placement = Placement::build(
        &rows,
        &scenario.catalog.sizes(),
        &scenario.capacities(),
        LVM_STRIPE,
    )
    .expect("SEE fits four disks");
    let config = RunConfig {
        seed: 7,
        scale: scenario.scale,
        pool_bytes: scenario.pool_bytes,
        capture_oplog: true,
        ..RunConfig::default()
    };
    let mut group = c.benchmark_group("engine");
    group.bench_function("trace_run_olap8_63_see4", |b| {
        let mut records = 0usize;
        b.iter(|| {
            let mut storage = scenario.storage();
            let outcome = Engine::new(
                &scenario.catalog,
                &workloads,
                &placement,
                &mut storage,
                config.clone(),
            )
            .run_observed()
            .expect("trace run succeeds");
            records = outcome.report.trace.as_ref().map_or(0, |t| t.len());
            black_box(outcome)
        });
        b.counter("records", records as f64);
    });
    group.finish();
}

wasla_bench::bench_main!(
    "simulator",
    bench_disk_service_time,
    bench_storage_system_throughput,
    bench_raid_translation,
    bench_engine_trace_run
);
