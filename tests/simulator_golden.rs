//! Simulator golden: SEE trace runs pinned by content hash.
//!
//! Every advise starts by tracing the workload under the SEE baseline
//! layout through the discrete-event simulator (`wasla-exec` driving
//! `wasla-storage`). That simulation is a pure function of its inputs,
//! so its outputs — the captured op-log and the run report — are pinned
//! here as FNV-1a hashes of their canonical renderings: the op-log's
//! `to_tsv()` (times as exact f64 bit patterns) and the report's JSON.
//! Any change to event order, service times, utilization sums or
//! request generation moves a hash.
//!
//! The cases cover each simulator path the advisor reaches: plain
//! disks, RAID-0 members, SSD channels (where service times tie
//! exactly and the event queue's FIFO tie-break decides the order),
//! an OLTP-only run stopped by `max_time`, a consolidated run, and a
//! target slowed by `StorageSystem::degrade_target`.
//!
//! Performance work on the simulator must leave these hashes alone; a
//! deliberate model change re-pins them, printing the new values with
//! `cargo test --test simulator_golden -- --nocapture`.

use wasla::exec::{see_rows, Engine, Placement, RunConfig};
use wasla::pipeline::{Scenario, LVM_STRIPE, SSD_BYTES};
use wasla::simlib::fault;
use wasla::simlib::hash::Fnv64;
use wasla::simlib::json;
use wasla::workload::SqlWorkload;

/// Runs `workloads` on `scenario` under SEE with op-log capture on,
/// optionally slowing one target, and returns (op-log hash, report
/// hash, op-log records).
fn see_trace(
    scenario: &Scenario,
    workloads: &[SqlWorkload],
    max_time: Option<f64>,
    degrade: Option<(usize, f64)>,
) -> (u64, u64, usize) {
    let rows = see_rows(scenario.catalog.len(), scenario.targets.len());
    let placement = Placement::build(
        &rows,
        &scenario.catalog.sizes(),
        &scenario.capacities(),
        LVM_STRIPE,
    )
    .expect("SEE fits every scenario");
    let mut storage = scenario.storage();
    if let Some((target, factor)) = degrade {
        storage.degrade_target(target, factor);
    }
    let config = RunConfig {
        seed: 7,
        scale: scenario.scale,
        pool_bytes: scenario.pool_bytes,
        max_time,
        capture_oplog: true,
        ..RunConfig::default()
    };
    let mut report = Engine::new(
        &scenario.catalog,
        workloads,
        &placement,
        &mut storage,
        config,
    )
    .run()
    .expect("SEE trace run succeeds");
    let log = report.trace.take().expect("capture was on");
    let log_hash = Fnv64::new().write_str(&log.to_tsv()).finish();
    let report_hash = Fnv64::new().write_str(&json::to_string(&report)).finish();
    (log_hash, report_hash, log.len())
}

fn check(name: &str, got: (u64, u64, usize), want: (u64, u64, usize)) {
    println!(
        "simulator_golden {name}: (0x{:016x}, 0x{:016x}, {})",
        got.0, got.1, got.2
    );
    assert_eq!(got.2, want.2, "{name}: op-log record count moved");
    assert_eq!(got.0, want.0, "{name}: op-log hash moved");
    assert_eq!(got.1, want.1, "{name}: report hash moved");
}

/// Device faults change results by design; the golden holds only
/// without an active fault plan.
fn fault_plan_active() -> bool {
    fault::plan().is_some()
}

#[test]
fn homogeneous_disks_olap8_63() {
    if fault_plan_active() {
        return;
    }
    let got = see_trace(
        &Scenario::homogeneous_disks(4, 0.01),
        &[SqlWorkload::olap8_63(5)],
        None,
        None,
    );
    check(
        "homogeneous_disks_olap8_63",
        got,
        (0x46dccb46a8b027fc, 0x7a48dcad06c690fd, 19872),
    );
}

#[test]
fn config_3_1_raid0_members() {
    if fault_plan_active() {
        return;
    }
    let got = see_trace(
        &Scenario::config_3_1(0.01),
        &[SqlWorkload::olap1_21(11)],
        None,
        None,
    );
    check(
        "config_3_1_raid0_members",
        got,
        (0x62058685cf1708c1, 0xf786a38537a91e29, 6626),
    );
}

#[test]
fn disks_plus_ssd_channels() {
    if fault_plan_active() {
        return;
    }
    let got = see_trace(
        &Scenario::disks_plus_ssd(0.01, SSD_BYTES),
        &[SqlWorkload::olap8_63(13)],
        None,
        None,
    );
    check(
        "disks_plus_ssd_channels",
        got,
        (0xc34a62a6861586e0, 0xebaee35f1b7e982d, 19863),
    );
}

#[test]
fn tpcc_full_mix_max_time() {
    if fault_plan_active() {
        return;
    }
    let got = see_trace(
        &Scenario::oltp_disks(0.02),
        &[SqlWorkload::oltp_full_mix()],
        Some(20.0),
        None,
    );
    check(
        "tpcc_full_mix_max_time",
        got,
        (0x9be16a7e9aa2a6a6, 0x8dc028edb52717b5, 22596),
    );
}

#[test]
fn consolidation_max_time() {
    if fault_plan_active() {
        return;
    }
    let got = see_trace(
        &Scenario::consolidation(0.01),
        &[
            SqlWorkload::olap1_21(3),
            SqlWorkload::oltp().with_prefix("C_"),
        ],
        Some(30.0),
        None,
    );
    check(
        "consolidation_max_time",
        got,
        (0xdc6b01416fa6c7a1, 0x98da1768e14f990c, 44194),
    );
}

#[test]
fn degraded_target() {
    if fault_plan_active() {
        return;
    }
    let got = see_trace(
        &Scenario::homogeneous_disks(4, 0.01),
        &[SqlWorkload::olap1_21(17)],
        None,
        Some((2, 3.5)),
    );
    check(
        "degraded_target",
        got,
        (0xeb44b1aa43a74929, 0x5d0e940226579718, 6614),
    );
}
