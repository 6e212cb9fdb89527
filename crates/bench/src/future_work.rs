//! Experiments for the paper's §8 future-work directions: incremental
//! re-advising (`wasla-core::dynamic`) and the storage-configuration
//! sweep ([`crate::configurator`]).

use crate::common::{advise, advise_config, run_settings, ExpConfig, ExperimentResult, Row};
use crate::configurator::{configure, ResourcePool};
use wasla::core::dynamic::{readvise, DynamicOptions};
use wasla::core::AdvisorOptions;
use wasla::pipeline::{self, Scenario, DISK_BYTES, LVM_STRIPE};
use wasla::storage::{DeviceSpec, DiskParams};
use wasla::workload::{ObjectKind, SqlWorkload};

/// FlexVol-style dynamic allocation: objects grow over three steps;
/// the advisor re-optimizes warm-started from the deployed layout and
/// decides when migration pays (paper §8's "guide the storage system's
/// dynamic allocation decisions").
pub fn dynamic_growth(config: &ExpConfig) -> ExperimentResult {
    let scenario = Scenario::homogeneous_disks(4, config.scale);
    let workloads = [SqlWorkload::olap1_63(config.seed)];
    let outcome = advise(config, &scenario, &workloads);
    let rec = &outcome.recommendation;
    let mut problem = outcome.problem;
    let mut deployed = rec.final_layout().clone();
    let advisor_opts = AdvisorOptions {
        regularize: true,
        ..AdvisorOptions::default()
    };
    let mut rows = Vec::new();
    // Three growth steps: the two largest objects grow 40% per step —
    // eventually the deployed layout either becomes imbalanced or
    // stops fitting, and the advisor recommends a migration.
    for step in 1..=3 {
        let mut order: Vec<usize> = (0..problem.workloads.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(problem.workloads.sizes[i]));
        for &i in order.iter().take(2) {
            problem.workloads.sizes[i] = (problem.workloads.sizes[i] as f64 * 1.4) as u64;
            // Rates grow with the data too (more pages to scan).
            problem.workloads.specs[i].read_rate *= 1.4;
        }
        // A 5% predicted win justifies migration in this experiment
        // (the default 10% is deliberately conservative).
        let dyn_opts = DynamicOptions {
            migrate_threshold: 0.05,
        };
        let decision =
            readvise(&problem, &deployed, &advisor_opts, &dyn_opts).expect("readvise succeeds");
        rows.push(Row::new(
            format!("growth step {step}"),
            vec![
                ("migrate", f64::from(u8::from(decision.migrate))),
                ("migration_mb", decision.migration_bytes as f64 / 1e6),
                ("util_before", decision.current_max_utilization),
                ("util_after", decision.new_max_utilization),
            ],
        ));
        deployed = decision.layout;
    }
    ExperimentResult {
        id: "dynamic-growth".into(),
        title: "FlexVol-style incremental re-advising under data growth (§8)".into(),
        rows,
        text: String::new(),
    }
}

/// Configuration recommendation, validated: sweep the RAID groupings
/// of four disks for the OLAP8-63 workload, then *measure* the
/// advisor-predicted best and worst configurations in the simulator
/// (the step toward Minerva/DAD the paper sketches in §8).
pub fn config_sweep(config: &ExpConfig) -> ExperimentResult {
    let scenario = Scenario::homogeneous_disks(4, config.scale);
    let workloads = [SqlWorkload::olap8_63(config.seed)];
    let outcome = advise(config, &scenario, &workloads);
    let kinds: Vec<ObjectKind> = scenario.catalog.objects().iter().map(|o| o.kind).collect();
    let pool = ResourcePool {
        disks: vec![DeviceSpec::Disk(DiskParams::scsi_15k((DISK_BYTES * config.scale) as u64)); 4],
        standalone: vec![],
        stripe_unit: 256 * 1024,
    };
    let outcomes = configure(
        &outcome.fitted,
        &kinds,
        &pool,
        &advise_config(config).grid,
        LVM_STRIPE as f64,
        &AdvisorOptions {
            regularize: true,
            ..AdvisorOptions::default()
        },
        vec![],
        config.seed,
    );
    let mut rows = Vec::new();
    for (rank, o) in outcomes.iter().enumerate() {
        // Measure the first (predicted best) and last (predicted worst)
        // configurations; prediction-only for the middle ones.
        let measured = if rank == 0 || rank + 1 == outcomes.len() {
            let mut run_scenario = scenario.clone();
            run_scenario.targets = o.targets.clone();
            let report = pipeline::run_with_layout(
                &run_scenario,
                &workloads,
                o.recommendation.final_layout(),
                &run_settings(config.seed),
            )
            .expect("validation run succeeds");
            report.elapsed.as_secs()
        } else {
            f64::NAN
        };
        let mut metrics = vec![("predicted_max_util", o.predicted_max_utilization)];
        if measured.is_finite() {
            metrics.push(("measured_elapsed_s", measured));
        }
        rows.push(Row::new(format!("config {}", o.label), metrics));
    }
    let text = format!(
        "{} configurations evaluated; best and worst also measured by simulation.\n",
        outcomes.len()
    );
    ExperimentResult {
        id: "config-sweep".into(),
        title: "storage-configuration recommendation over RAID groupings (§8)".into(),
        rows,
        text,
    }
}
