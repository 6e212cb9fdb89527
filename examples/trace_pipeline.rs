//! The trace → fit → advise pipeline, step by step.
//!
//! ```text
//! cargo run --release --example trace_pipeline
//! ```
//!
//! The other examples use `pipeline::advise`, which hides the paper's
//! §5 machinery. This example performs each step explicitly so you can
//! see (and swap out) the moving parts: op-log capture, Rubicon-style
//! parameter fitting, cost-model calibration, problem assembly,
//! and the NLP solve — and prints the intermediate artifacts.

use wasla::core::{recommend, AdvisorOptions};
use wasla::exec::{see_rows, Engine, Placement, RunConfig};
use wasla::model::{CalibrationGrid, CostModel, TargetCostModel};
use wasla::pipeline::{build_problem, Scenario, LVM_STRIPE};
use wasla::storage::IoKind;
use wasla::trace::oplog::fit_oplog_streamed;
use wasla::trace::FitConfig;
use wasla::workload::SqlWorkload;

fn main() {
    let scale = 0.03;
    let scenario = Scenario::homogeneous_disks(4, scale);
    let workloads = [SqlWorkload::olap1_21(7)];

    // Step 1 — run the operational system under SEE, capturing its
    // block I/O as an op-log (the paper instruments the kernel; we ask
    // the engine).
    println!("step 1: trace the workload under SEE");
    let rows = see_rows(scenario.catalog.len(), scenario.targets.len());
    let placement = Placement::build(
        &rows,
        &scenario.catalog.sizes(),
        &scenario.capacities(),
        LVM_STRIPE,
    )
    .expect("SEE placement is valid");
    let mut storage = scenario.storage();
    let report = Engine::new(
        &scenario.catalog,
        &workloads,
        &placement,
        &mut storage,
        RunConfig {
            scale,
            pool_bytes: scenario.pool_bytes,
            capture_oplog: true,
            ..RunConfig::default()
        },
    )
    .run()
    .expect("engine run succeeds");
    let log = report.trace.expect("op-log requested");
    println!(
        "  {} block requests over {:.0} simulated seconds",
        log.len(),
        log.span().as_secs()
    );

    // Step 2 — fit Rome-style workload descriptions per object.
    println!("step 2: fit per-object workload descriptions (Rubicon)");
    let fitted = fit_oplog_streamed(
        &log,
        &scenario.catalog.names(),
        &scenario.catalog.sizes(),
        &FitConfig::default(),
    )
    .expect("fit succeeds");
    let mut hot: Vec<usize> = (0..fitted.len()).collect();
    hot.sort_by(|&a, &b| {
        fitted.specs[b]
            .total_rate()
            .total_cmp(&fitted.specs[a].total_rate())
    });
    println!("  object           rate(req/s)  run-count");
    for &i in hot.iter().take(5) {
        let s = &fitted.specs[i];
        println!(
            "  {:16} {:10.1} {:10.1}",
            fitted.names[i],
            s.total_rate(),
            s.run_count
        );
    }

    // Step 3 — calibrate a cost model for the disk type and inspect a
    // slice of it (the paper's Figure 8).
    println!("step 3: calibrate target cost models");
    let grid = CalibrationGrid::default();
    let models =
        TargetCostModel::for_targets(&scenario.targets, &grid, 7).expect("targets calibrate");
    let m = &models[0];
    println!(
        "  8 KiB read cost: sequential {:.2} ms, random {:.2} ms, sequential@chi=4 {:.2} ms",
        m.request_cost(IoKind::Read, 8192.0, 64.0, 0.0) * 1e3,
        m.request_cost(IoKind::Read, 8192.0, 1.0, 0.0) * 1e3,
        m.request_cost(IoKind::Read, 8192.0, 64.0, 4.0) * 1e3,
    );

    // Step 4 — assemble the layout problem and run the advisor.
    println!("step 4: solve the layout NLP and regularize");
    let problem = build_problem(&scenario, fitted, &grid).expect("problem builds");
    let rec = recommend(
        &problem,
        &AdvisorOptions {
            regularize: true,
            ..AdvisorOptions::default()
        },
    )
    .expect("advise succeeds");
    for stage in &rec.stages {
        println!(
            "  stage {:8}  max predicted utilization {:.3}",
            stage.stage, stage.max_utilization
        );
    }
    println!(
        "  final layout regular: {}, valid: {}",
        rec.final_layout().is_regular(),
        rec.final_layout()
            .is_valid(&problem.workloads.sizes, &problem.capacities)
    );
}
