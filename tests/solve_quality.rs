//! Cold-path quality guard for the projected-gradient step rule.
//!
//! `wasla_solver::pg::minimize` opens each line search with the
//! spectral (Barzilai–Borwein) step capped at `step0`, where the older
//! rule restarted every search at `step0` and halved from there. The
//! guard advises the paper's four target configurations (1-1-1-1, 3-1,
//! 2-1-1, disks+SSD) under OLAP1-21, OLAP8-63 and the TPC-C-like OLTP
//! mix (its trace run bounded by `max_time`), cold, and compares the
//! maximum utilization of each final layout with the value the
//! fixed-step rule gave. Those values were recorded as exact bits in
//! `tests/fixtures/solve_quality.golden` before the spectral step
//! landed. The bounds were set before measuring: each case ≤ 1.02× its
//! recorded value, and the mean ratio ≤ 1.005.
//!
//! The guard also bounds the line search's work. Each case's assembled
//! problem is solved again by `solve_multistart`, once from the
//! rate-greedy start and once from SEE, and over all those solves
//! Σ `objective_evals` / Σ `gradient_evals` must stay ≤ 1.6. The
//! fixed-step rule read 2.0–2.9 on the end-to-end workloads. The
//! counters are deterministic, so host noise cannot trip the bound.
//!
//! Each case prints one `solve_quality ...` line with its bits and
//! counters; `ci/check.sh` byte-compares those lines at
//! `WASLA_THREADS` 1 and 8. Regenerating the fixture
//! (`WASLA_REGEN_FIXTURES=1`) makes the current solver the reference,
//! so do it only at the commit before a change to the step rule.

use std::fmt::Write as _;
use wasla::core::{initial_layout, solve_multistart, Layout};
use wasla::pipeline::{AdviseConfig, AdviseOutcome, Scenario, SSD_BYTES};
use wasla::simlib::fault;
use wasla::workload::{Catalog, SqlWorkload};
use wasla::AdvisorSession;

/// Per-case bound on the ratio to the recorded value.
const CASE_BOUND: f64 = 1.02;
/// Bound on the mean ratio over all cases.
const MEAN_BOUND: f64 = 1.005;
/// Bound on objective evaluations per gradient over the guard's solves.
const EVALS_PER_GRADIENT_BOUND: f64 = 1.6;

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/solve_quality.golden")
}

/// The paper's four configurations, each under OLAP1-21, OLAP8-63 and
/// OLTP. OLTP runs the TPC-C-like catalog on the same targets.
fn cases() -> Vec<(String, Scenario, Vec<SqlWorkload>, AdviseConfig)> {
    let scale = 0.01;
    let mut oltp_config = AdviseConfig::fast();
    oltp_config.trace_run.max_time = Some(60.0);
    let mut cases = Vec::new();
    for (name, scenario) in [
        ("1-1-1-1", Scenario::homogeneous_disks(4, scale)),
        ("3-1", Scenario::config_3_1(scale)),
        ("2-1-1", Scenario::config_2_1_1(scale)),
        ("disks+ssd", Scenario::disks_plus_ssd(scale, SSD_BYTES)),
    ] {
        for workload in [SqlWorkload::olap1_21(3), SqlWorkload::olap8_63(5)] {
            let label = format!("{name}/{}", workload.name);
            cases.push((
                label,
                scenario.clone(),
                vec![workload],
                AdviseConfig::fast(),
            ));
        }
        let oltp = Scenario {
            catalog: Catalog::tpcc_like(scale),
            pool_bytes: Scenario::oltp_disks(scale).pool_bytes,
            ..scenario
        };
        let label = format!("{name}/oltp");
        cases.push((label, oltp, vec![SqlWorkload::oltp()], oltp_config.clone()));
    }
    cases
}

/// The maximum utilization of the layout the advise recommends: the
/// regular layout's, or SEE's when the advisor fell back to it.
fn final_max_util(outcome: &AdviseOutcome) -> f64 {
    let rec = &outcome.recommendation;
    let stage = if rec.fell_back_to_see {
        "see"
    } else {
        "regular"
    };
    rec.stage(stage).expect("stage report").max_utilization
}

/// One case's guard line and its counters.
struct CaseRun {
    label: String,
    max_util: f64,
    objective_evals: u64,
    gradient_evals: u64,
}

fn run_case(
    label: String,
    scenario: &Scenario,
    workloads: &[SqlWorkload],
    config: &AdviseConfig,
) -> CaseRun {
    let outcome = AdvisorSession::new()
        .advise(scenario, workloads, config)
        .unwrap_or_else(|e| panic!("{label}: advise failed: {e}"));
    let problem = &outcome.problem;
    let starts = [
        initial_layout(problem).expect("initial layout"),
        Layout::see(problem.n(), problem.m()),
    ];
    let (mut objective_evals, mut gradient_evals) = (0, 0);
    for start in &starts {
        let solved = solve_multistart(problem, std::slice::from_ref(start), &config.advisor.solver)
            .expect("one start");
        objective_evals += solved.stats.objective_evals;
        gradient_evals += solved.stats.gradient_evals;
    }
    CaseRun {
        label,
        max_util: final_max_util(&outcome),
        objective_evals,
        gradient_evals,
    }
}

#[test]
fn spectral_step_keeps_cold_quality_and_cuts_evaluations() {
    // Defined fault-free, like the golden suites: a fault plan draws a
    // solver budget per solve, so the values would measure the plan.
    if fault::plan().is_some() {
        return;
    }
    let runs: Vec<CaseRun> = cases()
        .into_iter()
        .map(|(label, scenario, workloads, config)| run_case(label, &scenario, &workloads, &config))
        .collect();
    for run in &runs {
        println!(
            "solve_quality {} max_util {:016x} objective_evals {} gradient_evals {}",
            run.label,
            run.max_util.to_bits(),
            run.objective_evals,
            run.gradient_evals
        );
    }

    let rendered: String = runs
        .iter()
        .map(|run| {
            format!(
                "case {} max_util {:016x}\n",
                run.label,
                run.max_util.to_bits()
            )
        })
        .collect();
    let path = fixture_path();
    if std::env::var("WASLA_REGEN_FIXTURES").is_ok() {
        std::fs::write(&path, &rendered).expect("write fixture");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("read golden fixture");
    let recorded: Vec<(&str, f64)> = golden
        .lines()
        .map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            assert!(
                fields.len() == 4 && fields[0] == "case" && fields[2] == "max_util",
                "malformed fixture line {line:?}"
            );
            let bits = u64::from_str_radix(fields[3], 16).expect("hex bits");
            (fields[1], f64::from_bits(bits))
        })
        .collect();
    assert_eq!(recorded.len(), runs.len(), "the fixture lists other cases");

    let mut report = String::new();
    let mut failures = Vec::new();
    let mut ratio_sum = 0.0;
    for (run, &(label, reference)) in runs.iter().zip(&recorded) {
        assert_eq!(run.label, label, "the fixture lists other cases");
        let ratio = run.max_util / reference;
        ratio_sum += ratio;
        writeln!(
            report,
            "{label}: max_util {:.6} (recorded {reference:.6}), ratio {ratio:.5}",
            run.max_util
        )
        .unwrap();
        if ratio.is_nan() || ratio > CASE_BOUND {
            failures.push(format!("{label}: ratio {ratio:.5} > {CASE_BOUND}"));
        }
    }
    let mean = ratio_sum / runs.len() as f64;
    let objective_evals: u64 = runs.iter().map(|r| r.objective_evals).sum();
    let gradient_evals: u64 = runs.iter().map(|r| r.gradient_evals).sum();
    let per_gradient = objective_evals as f64 / gradient_evals as f64;
    writeln!(
        report,
        "mean ratio {mean:.5}; {objective_evals} objective evals / {gradient_evals} gradients = {per_gradient:.3}"
    )
    .unwrap();
    if mean.is_nan() || mean > MEAN_BOUND {
        failures.push(format!("mean ratio {mean:.5} > {MEAN_BOUND}"));
    }
    if per_gradient.is_nan() || per_gradient > EVALS_PER_GRADIENT_BOUND {
        failures.push(format!(
            "objective evals per gradient {per_gradient:.3} > {EVALS_PER_GRADIENT_BOUND}"
        ));
    }
    eprint!("{report}");
    assert!(failures.is_empty(), "{failures:?}\n{report}");
}
