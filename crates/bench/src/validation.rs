//! Model-validation experiments (beyond the paper's figures).
//!
//! * [`validate_eq1`] — checks the utilization law the whole advisor
//!   rests on (paper Eq. 1: `µ = λ · Cost`): drive a simulated disk
//!   open-loop at known rates/run counts and compare the measured busy
//!   fraction against the calibrated model's prediction.
//! * [`estimator_input`] — compares the paper's two input paths
//!   (§5.1): trace-and-fit (Rubicon) vs. the analytic storage-workload
//!   estimator (their citation \[19\], "may be less accurate"), by
//!   advising from each and measuring both recommendations.

use crate::common::{advise, advise_config, run_settings, ExpConfig, ExperimentResult, Row};
use crate::openloop::{run_open_loop, OpenStream};
use wasla::model::{calibrate_device, CostModel};
use wasla::pipeline::{self, Scenario, DISK_BYTES};
use wasla::storage::{DeviceSpec, DiskParams, IoKind, StorageSystem, TargetConfig};
use wasla::workload::estimator::{estimate, EstimatorConfig};
use wasla::workload::{SqlWorkload, WorkloadSpec};

/// Eq. 1 validation: predicted vs measured utilization for a single
/// uncontended stream across a (rate, run-count) grid.
pub fn validate_eq1(config: &ExpConfig) -> ExperimentResult {
    let capacity = (DISK_BYTES * config.scale.max(0.05)) as u64;
    let spec = DeviceSpec::Disk(DiskParams::scsi_15k(capacity));
    let model = calibrate_device(&spec, &advise_config(config).grid, config.seed);
    let mut rows = Vec::new();
    let mut total_abs_err = 0.0;
    let mut points = 0usize;
    for &run in &[1.0f64, 8.0, 64.0] {
        for &rate in &[20.0f64, 60.0, 120.0] {
            let size = if run > 1.0 { 131072.0 } else { 8192.0 };
            let wspec = WorkloadSpec {
                read_size: size,
                write_size: size,
                read_rate: rate,
                write_rate: 0.0,
                run_count: run,
                overlaps: vec![],
            };
            let predicted = (rate * model.request_cost(IoKind::Read, size, run, 0.0)).min(1.0);
            let mut storage =
                StorageSystem::new(vec![TargetConfig::single("d0", spec.clone())], config.seed);
            let streams = [OpenStream {
                spec: wspec,
                target: 0,
                start: 0,
                span: capacity - capacity / 8,
                stream: 0,
            }];
            let report = run_open_loop(&mut storage, &streams, 120.0, config.seed);
            let measured = report.target_utilization[0].min(1.0);
            let err = (predicted - measured).abs();
            total_abs_err += err;
            points += 1;
            rows.push(Row::new(
                format!("run{run:.0} rate{rate:.0}"),
                vec![
                    ("predicted_util", predicted),
                    ("measured_util", measured),
                    ("abs_err", err),
                ],
            ));
        }
    }
    let text = format!(
        "mean absolute utilization error over {points} grid points: {:.3}\n",
        total_abs_err / points as f64
    );
    ExperimentResult {
        id: "validate-eq1".into(),
        title: "utilization law µ = λ·Cost vs open-loop measurement".into(),
        rows,
        text,
    }
}

/// Page-granular consolidation: re-runs the paper's §6.3 scenario with
/// every request capped at the 8 KiB page size the paper's PostgreSQL
/// actually issued (no OS merging). This isolates the root cause of
/// the fig15 deviation documented in EXPERIMENTS.md: with page-granular
/// accounting, scan request *rates* are high enough for the min-max
/// utilization objective to see the scan/OLTP interference, and the
/// advisor separates LINEITEM from the TPC-C traffic as the paper's
/// Figure 16 does.
pub fn fig15_pagesize(config: &ExpConfig) -> ExperimentResult {
    let scenario = Scenario::consolidation(config.scale);
    let workloads = [
        SqlWorkload::olap1_21(config.seed).with_request_sizes(|r| r.min(8192)),
        SqlWorkload::oltp()
            .with_prefix("C_")
            .with_request_sizes(|r| r.min(8192)),
    ];
    let outcome = advise(config, &scenario, &workloads);
    let rec = &outcome.recommendation;
    let optimized = pipeline::run_with_layout(
        &scenario,
        &workloads,
        rec.final_layout(),
        &run_settings(config.seed),
    )
    .expect("validation run succeeds");
    let see_s = outcome.baseline_run.elapsed.as_secs();
    let opt_s = optimized.elapsed.as_secs();
    // LINEITEM / C_STOCK separation metric.
    let p = &outcome.problem;
    let li = p
        .workloads
        .names
        .iter()
        .position(|n| n == "LINEITEM")
        .expect("LINEITEM");
    let st = p
        .workloads
        .names
        .iter()
        .position(|n| n == "C_STOCK")
        .expect("C_STOCK");
    let layout = rec.final_layout();
    let shared: f64 = (0..p.m())
        .map(|j| layout.get(li, j).min(layout.get(st, j)))
        .sum();
    let rows = vec![
        Row::new(
            "SEE",
            vec![
                ("olap_elapsed_s", see_s),
                ("oltp_tpm", outcome.baseline_run.tpm),
            ],
        ),
        Row::new(
            "optimized",
            vec![
                ("olap_elapsed_s", opt_s),
                ("oltp_tpm", optimized.tpm),
                ("olap_speedup", see_s / opt_s),
                (
                    "tpm_ratio",
                    optimized.tpm / outcome.baseline_run.tpm.max(1e-9),
                ),
                ("lineitem_stock_shared", shared),
                (
                    "fell_back_to_see",
                    f64::from(u8::from(rec.fell_back_to_see)),
                ),
            ],
        ),
    ];
    ExperimentResult {
        id: "fig15-pagesize".into(),
        title: "consolidation with page-granular (8 KiB) I/O accounting".into(),
        rows,
        text: wasla::core::report::render_layout(&outcome.problem, rec.final_layout(), 12),
    }
}

/// §5.1 input-path comparison: trace-fitted vs analytically-estimated
/// workload descriptions, advising from each.
pub fn estimator_input(config: &ExpConfig) -> ExperimentResult {
    let scenario = Scenario::homogeneous_disks(4, config.scale);
    let workloads = [SqlWorkload::olap1_63(config.seed)];

    // Path A: trace and fit (the paper's primary path).
    let outcome = advise(config, &scenario, &workloads);
    let rec_trace = &outcome.recommendation;
    let run_trace = pipeline::run_with_layout(
        &scenario,
        &workloads,
        rec_trace.final_layout(),
        &run_settings(config.seed),
    )
    .expect("validation run succeeds");

    // Path B: analytic estimation from the catalog + SQL workload,
    // without running anything (the paper's [19]).
    let est_cfg = EstimatorConfig {
        scale: config.scale,
        ..EstimatorConfig::default()
    };
    let estimated = estimate(&scenario.catalog, &workloads[0], &est_cfg);
    let problem_b = pipeline::build_problem(&scenario, estimated, &advise_config(config).grid)
        .expect("problem builds");
    let rec_est = wasla::core::recommend(
        &problem_b,
        &wasla::core::AdvisorOptions {
            regularize: true,
            ..wasla::core::AdvisorOptions::default()
        },
    )
    .expect("estimator path succeeds");
    let run_est = pipeline::run_with_layout(
        &scenario,
        &workloads,
        rec_est.final_layout(),
        &run_settings(config.seed),
    )
    .expect("validation run succeeds");

    let see_s = outcome.baseline_run.elapsed.as_secs();
    let rows = vec![
        Row::new("SEE", vec![("elapsed_s", see_s)]),
        Row::new(
            "trace-fitted input",
            vec![
                ("elapsed_s", run_trace.elapsed.as_secs()),
                ("speedup", see_s / run_trace.elapsed.as_secs()),
            ],
        ),
        Row::new(
            "estimator input",
            vec![
                ("elapsed_s", run_est.elapsed.as_secs()),
                ("speedup", see_s / run_est.elapsed.as_secs()),
            ],
        ),
    ];
    let text = String::from(
        "paper §5.1: estimator-derived descriptions avoid tracing but \
         \"may be less accurate\"; compare the two speedups.\n",
    );
    ExperimentResult {
        id: "estimator-input".into(),
        title: "trace-fitted vs analytically-estimated workload inputs".into(),
        rows,
        text,
    }
}
