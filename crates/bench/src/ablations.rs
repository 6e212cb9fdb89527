//! Ablation experiments for the design choices DESIGN.md §5 calls out.

use crate::analytic::AnalyticDiskModel;
use crate::anneal::{anneal_layout, AnnealOptions};
use crate::common::{advise, advise_config, run_settings, ExpConfig, ExperimentResult, Row};
use std::sync::Arc;
use std::time::Instant;
use wasla::core::{
    initial_layout, recommend, solve_nlp, weighted_max, AdvisorOptions, NlpOutcome, ObjectiveKind,
    SolverOptions, UtilizationEstimator,
};
use wasla::pipeline::{self, Scenario, DISK_BYTES, SSD_BYTES};
use wasla::storage::DiskParams;
use wasla::workload::SqlWorkload;

/// Ablation: projected-gradient NLP solve vs the DAD-style randomized
/// local search the paper's §7 mentions as the alternative — layout
/// quality (predicted max utilization) and solve time.
pub fn ablation_solver(config: &ExpConfig) -> ExperimentResult {
    let scenario = Scenario::homogeneous_disks(4, config.scale);
    let workloads = [SqlWorkload::olap1_63(config.seed)];
    let outcome = advise(config, &scenario, &workloads);
    let problem = &outcome.problem;
    let initial = initial_layout(problem).expect("initial layout");
    let timed = |solve: &dyn Fn() -> NlpOutcome| {
        let t0 = Instant::now();
        let out = solve();
        (out, t0.elapsed().as_secs_f64())
    };
    let runs = [
        (
            "projected-gradient",
            timed(&|| solve_nlp(problem, &initial, &SolverOptions::default())),
        ),
        (
            "simulated-annealing",
            timed(&|| anneal_layout(problem, &initial, &AnnealOptions::for_layouts())),
        ),
    ];
    let rows = runs
        .into_iter()
        .map(|(name, (out, dt))| {
            Row::new(
                name,
                vec![
                    ("max_util", out.max_utilization),
                    ("solve_s", dt),
                    ("converged", f64::from(u8::from(out.converged))),
                ],
            )
        })
        .collect();
    ExperimentResult {
        id: "ablation-solver".into(),
        title: "NLP solve vs randomized local search".into(),
        rows,
        text: String::new(),
    }
}

/// Ablation: the multi-start policy. The paper's §4.2 observes SEE is
/// a local minimum the solver struggles to escape and seeds with the
/// rate-greedy layout instead; §4.1 sanctions repeating from multiple
/// starts.
pub fn ablation_starts(config: &ExpConfig) -> ExperimentResult {
    let scenario = Scenario::consolidation(config.scale);
    let workloads = [
        SqlWorkload::olap1_21(config.seed),
        SqlWorkload::oltp().with_prefix("C_"),
    ];
    let outcome = advise(config, &scenario, &workloads);
    let problem = &outcome.problem;
    let mut rows = Vec::new();
    for (name, random_starts, see_start) in [
        ("rate-greedy only", 0usize, false),
        ("rate-greedy + SEE", 0, true),
        ("full multistart", 2, false),
    ] {
        let mut opts = AdvisorOptions {
            regularize: true,
            random_starts,
            ..AdvisorOptions::default()
        };
        if see_start {
            opts.extra_starts
                .push(wasla::core::Layout::see(problem.n(), problem.m()));
        }
        let t0 = Instant::now();
        let rec = recommend(problem, &opts).expect("recommend succeeds");
        let dt = t0.elapsed().as_secs_f64();
        let final_max = rec.stages.last().expect("stages").max_utilization;
        rows.push(Row::new(
            name,
            vec![
                ("final_max_util", final_max),
                ("advise_s", dt),
                (
                    "fell_back_to_see",
                    f64::from(u8::from(rec.fell_back_to_see)),
                ),
            ],
        ));
    }
    ExperimentResult {
        id: "ablation-starts".into(),
        title: "initial-layout / multistart policy".into(),
        rows,
        text: String::new(),
    }
}

/// Ablation: the pluggable layout objective × target mix. Sweeps every
/// [`ObjectiveKind`] over three target mixes (all-HDD, all-SSD, and the
/// paper's 4-disks-plus-SSD two-tier setup) on both paper catalogs.
/// Each (catalog, mix) pair is traced/fitted/calibrated once; the
/// objectives then re-solve the same [`LayoutProblem`], so the rows
/// isolate what the objective changes: the weighted score it optimizes,
/// the raw max utilization it accepts in exchange, and solve time.
pub fn ablation_objectives(config: &ExpConfig) -> ExperimentResult {
    // Target mixes are catalog-independent: build them once from the
    // TPC-H constructors and graft them onto the OLTP scenario.
    let mixes = [
        (
            "all-hdd",
            Scenario::homogeneous_disks(4, config.scale).targets,
        ),
        (
            "all-ssd",
            Scenario::homogeneous_ssds(4, config.scale).targets,
        ),
        (
            "2-tier",
            Scenario::disks_plus_ssd(config.scale, SSD_BYTES).targets,
        ),
    ];
    let mut rows = Vec::new();
    for catalog in ["tpch", "tpcc"] {
        for (mix, targets) in &mixes {
            let (mut scenario, workloads) = match catalog {
                "tpch" => (
                    Scenario::homogeneous_disks(4, config.scale),
                    vec![SqlWorkload::olap1_21(config.seed)],
                ),
                _ => (
                    Scenario::oltp_disks(config.scale),
                    vec![SqlWorkload::oltp()],
                ),
            };
            scenario.targets = targets.clone();
            let mut cfg = advise_config(config);
            if catalog == "tpcc" {
                cfg.trace_run.max_time = Some(60.0);
            }
            let outcome = pipeline::advise(&scenario, &workloads, &cfg)
                .expect("experiment advise pipeline succeeds");
            let problem = &outcome.problem;
            let est = UtilizationEstimator::new(problem);
            for kind in ObjectiveKind::ALL {
                let opts = AdvisorOptions {
                    regularize: true,
                    solver: SolverOptions {
                        objective: kind,
                        ..SolverOptions::default()
                    },
                    ..AdvisorOptions::default()
                };
                let t0 = Instant::now();
                let rec = recommend(problem, &opts).expect("recommend succeeds");
                let dt = t0.elapsed().as_secs_f64();
                let layout = rec.final_layout();
                let utils = est.utilizations(layout);
                let weights = kind.weights(problem);
                rows.push(Row::new(
                    format!("{catalog}/{mix}/{}", kind.name()),
                    vec![
                        ("score", weighted_max(&utils, &weights)),
                        ("max_util", est.max_utilization(layout)),
                        ("solve_s", dt),
                        (
                            "fell_back_to_see",
                            f64::from(u8::from(rec.fell_back_to_see)),
                        ),
                    ],
                ));
            }
        }
    }
    ExperimentResult {
        id: "objectives".into(),
        title: "layout objective × target mix (both catalogs)".into(),
        rows,
        text: String::new(),
    }
}

/// Ablation: tabulated (calibrated) cost model vs the closed-form
/// analytic disk model — how well each predicts the utilizations the
/// simulator actually measures, under SEE and under the optimized
/// layout. The paper argues tabulation captures device behaviour that
/// analytic models miss (§5.2.2).
pub fn ablation_costmodel(config: &ExpConfig) -> ExperimentResult {
    let scenario = Scenario::homogeneous_disks(4, config.scale);
    let workloads = [SqlWorkload::olap1_63(config.seed)];
    let outcome = advise(config, &scenario, &workloads);
    let rec = &outcome.recommendation;

    // Analytic-model twin of the problem.
    let mut analytic = wasla::core::LayoutProblem {
        workloads: outcome.problem.workloads.clone(),
        kinds: outcome.problem.kinds.clone(),
        capacities: outcome.problem.capacities.clone(),
        target_names: outcome.problem.target_names.clone(),
        models: vec![],
        stripe_size: outcome.problem.stripe_size,
        constraints: vec![],
    };
    let disk = AnalyticDiskModel::new(DiskParams::scsi_15k((DISK_BYTES * config.scale) as u64));
    analytic.models = (0..4)
        .map(|_| Arc::new(disk.clone()) as Arc<dyn wasla::model::CostModel>)
        .collect();

    let mut rows = Vec::new();
    let see = wasla::core::Layout::see(outcome.problem.n(), 4);
    for (label, layout) in [("SEE", &see), ("optimized", rec.final_layout())] {
        let run =
            pipeline::run_with_layout(&scenario, &workloads, layout, &run_settings(config.seed))
                .expect("validation run succeeds");
        let measured = run.max_utilization();
        let tab = UtilizationEstimator::new(&outcome.problem).max_utilization(layout);
        let ana = UtilizationEstimator::new(&analytic).max_utilization(layout);
        rows.push(Row::new(
            label,
            vec![
                ("measured_max_util", measured),
                ("tabulated_pred", tab),
                ("analytic_pred", ana),
                ("tabulated_abs_err", (tab - measured).abs()),
                ("analytic_abs_err", (ana - measured).abs()),
            ],
        ));
    }
    ExperimentResult {
        id: "ablation-costmodel".into(),
        title: "tabulated vs analytic cost model: prediction accuracy".into(),
        rows,
        text: String::new(),
    }
}

/// Ablation: the Eq. 2 contention simplification — average-rate vs
/// busy-period-rate contention factors. The paper computes χ from
/// whole-trace average rates; for bursty workloads (an OLAP query mix
/// whose objects are idle most of the time) that misprices
/// interference. Rome's full language models burstiness; we fit duty
/// cycles from the trace and compare both χ variants for the hottest
/// co-located pairs under SEE in the consolidation scenario.
pub fn ablation_contention(config: &ExpConfig) -> ExperimentResult {
    use wasla::core::Layout;
    use wasla::trace::fit_duty_cycles;

    let scenario = Scenario::consolidation(config.scale);
    let workloads = [
        SqlWorkload::olap1_21(config.seed),
        SqlWorkload::oltp().with_prefix("C_"),
    ];
    // Re-run SEE with tracing to get both the fitted set and the trace.
    let mut settings = run_settings(config.seed);
    settings.capture_oplog = true;
    let rows_see = wasla::exec::see_rows(scenario.catalog.len(), scenario.targets.len());
    let report = pipeline::run_layout(&scenario, &workloads, &rows_see, &settings)
        .expect("validation run succeeds");
    let trace = report.trace.as_ref().expect("trace requested");
    let fitted = wasla::trace::oplog::fit_oplog_streamed(
        trace,
        &scenario.catalog.names(),
        &scenario.catalog.sizes(),
        &wasla::trace::FitConfig::default(),
    )
    .expect("fit succeeds");
    let duty = fit_duty_cycles(trace, scenario.catalog.len(), 5.0).expect("duty cycles fit");
    let problem = pipeline::build_problem(
        &scenario,
        fitted,
        &crate::common::advise_config(config).grid,
    )
    .expect("problem builds");
    let est = UtilizationEstimator::new(&problem);
    let see = Layout::see(problem.n(), problem.m());

    let mut rows = Vec::new();
    for name in ["LINEITEM", "ORDERS", "TEMP_SPACE", "C_STOCK", "C_CUSTOMER"] {
        let i = problem
            .workloads
            .names
            .iter()
            .position(|n| n == name)
            .expect("object exists");
        let spec = &problem.workloads.specs[i];
        let own = spec.total_rate() / problem.m() as f64;
        if own <= 0.0 {
            continue;
        }
        let avg = est.contention(&see, i, 0, own);
        let busy = est.contention_with_duty(&see, i, 0, own, &duty);
        rows.push(Row::new(
            name,
            vec![
                ("chi_avg_rates", avg),
                ("chi_busy_rates", busy),
                ("duty_cycle", duty[i]),
            ],
        ));
    }
    let text = String::from(
        "bursty OLAP objects (low duty) see *lower* busy-rate χ against          continuous OLTP traffic, and vice versa — the average-rate          simplification (paper Eq. 2) overweights rare co-activity.
",
    );
    ExperimentResult {
        id: "ablation-contention".into(),
        title: "Eq. 2 contention: average rates vs busy-period rates".into(),
        rows,
        text,
    }
}

/// Ablation: what regularization costs — predicted objective of the
/// solver's fractional layout vs the regularized layout, and the
/// measured execution time of both (non-regular layouts are
/// implementable by mechanisms that support arbitrary fractions,
/// paper §4.3).
pub fn ablation_regularization(config: &ExpConfig) -> ExperimentResult {
    let scenario = Scenario::homogeneous_disks(4, config.scale);
    let workloads = [SqlWorkload::olap1_63(config.seed)];
    let outcome = advise(config, &scenario, &workloads);
    let rec = &outcome.recommendation;
    let est = UtilizationEstimator::new(&outcome.problem);
    let mut rows = Vec::new();
    for (label, layout) in [
        ("solver (non-regular)", &rec.solver_layout),
        ("regularized", rec.final_layout()),
    ] {
        let run =
            pipeline::run_with_layout(&scenario, &workloads, layout, &run_settings(config.seed))
                .expect("validation run succeeds");
        rows.push(Row::new(
            label,
            vec![
                ("predicted_max_util", est.max_utilization(layout)),
                ("elapsed_s", run.elapsed.as_secs()),
                ("regular", f64::from(u8::from(layout.is_regular()))),
            ],
        ));
    }
    ExperimentResult {
        id: "ablation-regularization".into(),
        title: "cost of regularizing the solver's fractional layout".into(),
        rows,
        text: String::new(),
    }
}
