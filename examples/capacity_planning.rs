//! Capacity planning: which storage *configuration* should you build?
//!
//! ```text
//! cargo run --release -p wasla-bench --example capacity_planning
//! ```
//!
//! The paper's §8 sketches extending the advisor toward Minerva/DAD:
//! take unconfigured resources and recommend both the target grouping
//! and the layout. The experiment crate's `wasla_bench::configurator`
//! implements that sweep: it enumerates the RAID-0 groupings of a disk
//! pool, advises a layout for each, and ranks configurations by
//! predicted max utilization. The experiment crate's one-shot
//! `wasla_bench::dynamic::readvise` re-advises as objects grow
//! (FlexVol-style) — demonstrated at the end.

use wasla::core::dynamic::DynamicOptions;
use wasla::core::AdvisorOptions;
use wasla::model::CalibrationGrid;
use wasla::pipeline::{self, AdviseConfig, Scenario, DISK_BYTES, LVM_STRIPE};
use wasla::storage::{DeviceSpec, DiskParams};
use wasla::workload::{ObjectKind, SqlWorkload};
use wasla_bench::configurator::{configure, ResourcePool};
use wasla_bench::dynamic::readvise;

fn main() {
    let scale = 0.03;

    // Fit a workload first (the configurator consumes workload
    // descriptions, not SQL).
    let scenario = Scenario::homogeneous_disks(4, scale);
    let workloads = [SqlWorkload::olap8_63(7)];
    let outcome =
        pipeline::advise(&scenario, &workloads, &AdviseConfig::full()).expect("advise succeeds");
    let kinds: Vec<ObjectKind> = scenario.catalog.objects().iter().map(|o| o.kind).collect();

    // Sweep every way to group four identical disks into RAID-0
    // targets: [4], [3,1], [2,2], [2,1,1], [1,1,1,1].
    let pool = ResourcePool {
        disks: vec![DeviceSpec::Disk(DiskParams::scsi_15k((DISK_BYTES * scale) as u64)); 4],
        standalone: vec![],
        stripe_unit: 256 * 1024,
    };
    println!("sweeping disk groupings for the OLAP8-63 workload:");
    let outcomes = configure(
        &outcome.fitted,
        &kinds,
        &pool,
        &CalibrationGrid::default(),
        LVM_STRIPE as f64,
        &AdvisorOptions {
            regularize: true,
            ..AdvisorOptions::default()
        },
        vec![],
        7,
    );
    for o in &outcomes {
        println!(
            "  config {:10} → predicted max utilization {:.3}",
            o.label, o.predicted_max_utilization
        );
    }
    let best = outcomes.first().expect("at least one configuration");
    println!("best grouping: {}", best.label);

    // FlexVol-style growth: double the two biggest objects and ask
    // whether migrating to a fresh layout is worth it.
    println!("\nre-advising after data growth (dynamic allocation):");
    let mut grown = outcome.problem.workloads.clone();
    let mut order: Vec<usize> = (0..grown.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(grown.sizes[i]));
    for &i in order.iter().take(2) {
        grown.sizes[i] = (grown.sizes[i] as f64 * 1.6) as u64;
        println!("  {} grew to {} MB", grown.names[i], grown.sizes[i] >> 20);
    }
    let mut grown_problem = outcome.problem;
    grown_problem.workloads = grown;
    let deployed = outcome.recommendation.final_layout().clone();
    let decision = readvise(
        &grown_problem,
        &deployed,
        &AdvisorOptions {
            regularize: true,
            ..AdvisorOptions::default()
        },
        &DynamicOptions::default(),
    )
    .expect("readvise succeeds");
    println!(
        "  migrate: {} (predicted max utilization {:.3} → {:.3}, {} MB to move)",
        decision.migrate,
        decision.current_max_utilization,
        decision.new_max_utilization,
        decision.migration_bytes >> 20
    );
}
