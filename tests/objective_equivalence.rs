//! Objective-equivalence contract.
//!
//! The layout objective lives behind the `LayoutObjective` trait, and
//! the default (`MinMaxUtilization`) must be *byte-identical* to the
//! hard-wired min-max objective the advisor shipped with. This test
//! pins that contract with committed golden fixtures: full advisor
//! reports (stage utilizations, layouts, flags) on both paper
//! catalogs, rendered with exact `f64::to_bits` hex so any drift —
//! reordered summation, a stray `* weight`, a different fallback
//! branch — fails loudly rather than hiding inside a tolerance.
//!
//! The fixtures were generated *before* the objective refactor, so
//! they are the pre-refactor advisor's outputs verbatim. Regenerate
//! (only after an intentional output change) with:
//!
//! ```text
//! WASLA_REGEN_FIXTURES=1 WASLA_THREADS=1 cargo test --release --test objective_equivalence
//! ```
//!
//! The comparison must hold at any `WASLA_THREADS` setting;
//! `ci/check.sh` runs it at 1 and 8.

use std::fmt::Write as _;
use wasla::core::ObjectiveKind;
use wasla::pipeline::{self, AdviseConfig, Scenario};
use wasla::session::AdvisorSession;
use wasla::simlib::fault;
use wasla::workload::SqlWorkload;

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// The two paper catalogs under the fast advise configuration — the
/// same cases `repro replay` exercises.
fn cases() -> Vec<(&'static str, Scenario, Vec<SqlWorkload>, AdviseConfig)> {
    let olap_config = AdviseConfig::fast();
    let mut oltp_config = AdviseConfig::fast();
    oltp_config.trace_run.max_time = Some(60.0);
    vec![
        (
            "tpch-like",
            Scenario::homogeneous_disks(4, 0.01),
            vec![SqlWorkload::olap1_21(3)],
            olap_config,
        ),
        (
            "tpcc-like",
            Scenario::oltp_disks(0.01),
            vec![SqlWorkload::oltp()],
            oltp_config,
        ),
    ]
}

/// Renders one advisor run as exact bits: every stage report and every
/// layout cell, hex-encoded. Timings are excluded (wall-clock).
fn render_case(
    name: &str,
    scenario: &Scenario,
    workloads: &[SqlWorkload],
    config: &AdviseConfig,
) -> String {
    let outcome = pipeline::advise(scenario, workloads, config).expect("advise");
    let rec = &outcome.recommendation;
    let mut s = String::new();
    writeln!(s, "case {name}").unwrap();
    writeln!(s, "converged {}", rec.converged).unwrap();
    writeln!(s, "fell_back_to_see {}", rec.fell_back_to_see).unwrap();
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
    let mut layouts: Vec<(&str, &wasla::core::Layout)> = vec![("solver", &rec.solver_layout)];
    if let Some(reg) = &rec.regular_layout {
        layouts.push(("regular", reg));
    }
    for (label, layout) in layouts {
        for (i, row) in layout.rows().iter().enumerate() {
            let cells: Vec<String> = row.iter().map(|&v| hex(v)).collect();
            writeln!(s, "layout {label} row {i} {}", cells.join(" ")).unwrap();
        }
    }
    s
}

fn render_all() -> String {
    let mut s = String::new();
    for (name, scenario, workloads, config) in cases() {
        s.push_str(&render_case(name, &scenario, &workloads, &config));
    }
    s
}

/// The default-objective advisor must reproduce the committed
/// pre-refactor reports bit-for-bit, at any thread count.
#[test]
fn default_objective_reports_match_golden_fixture() {
    // Golden-result suites are exempt from the fault matrix by
    // design: faults change results, deterministically. The warm≡cold
    // test below is pure equality and holds under any plan.
    if fault::plan().is_some() {
        return;
    }
    let path = fixture_path("objective_reports.golden");
    let rendered = render_all();
    if std::env::var("WASLA_REGEN_FIXTURES").is_ok() {
        std::fs::write(&path, &rendered).expect("write fixture");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("read golden fixture");
    assert_eq!(
        rendered,
        golden,
        "advisor reports drifted from the pre-refactor golden fixture \
         ({}); if the change is intentional, regenerate with \
         WASLA_REGEN_FIXTURES=1",
        path.display()
    );
}

/// A recommendation as exact bits (timings excluded) for warm-vs-cold
/// byte comparisons.
fn render_recommendation(rec: &wasla::core::Recommendation) -> String {
    let mut s = String::new();
    writeln!(s, "converged {}", rec.converged).unwrap();
    writeln!(s, "fell_back_to_see {}", rec.fell_back_to_see).unwrap();
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
    let mut layouts: Vec<(&str, &wasla::core::Layout)> = vec![("solver", &rec.solver_layout)];
    if let Some(reg) = &rec.regular_layout {
        layouts.push(("regular", reg));
    }
    for (label, layout) in layouts {
        for (i, row) in layout.rows().iter().enumerate() {
            let cells: Vec<String> = row.iter().map(|&v| hex(v)).collect();
            writeln!(s, "layout {label} row {i} {}", cells.join(" ")).unwrap();
        }
    }
    s
}

/// Warm ≡ cold per objective: a session advising the same scenario
/// twice under each objective reproduces its cold answer byte-for-byte,
/// and one session shared by all objectives answers each exactly as a
/// session of its own. Every assertion is an equality claim, so this
/// rides the `ci/check.sh` fault matrix unchanged — under an active
/// plan warm and cold must agree on the *degraded* answer too.
#[test]
fn warm_equals_cold_for_every_objective() {
    let scenario = Scenario::homogeneous_disks(4, 0.01);
    let workloads = vec![SqlWorkload::olap1_21(3)];
    let config_for = |kind: ObjectiveKind| {
        let mut config = AdviseConfig::fast();
        config.advisor.solver.objective = kind;
        config
    };
    let mut cold_reports = Vec::new();
    for kind in ObjectiveKind::ALL {
        let config = config_for(kind);
        let mut session = AdvisorSession::new();
        let cold = session
            .advise(&scenario, &workloads, &config)
            .expect("cold advise");
        let warm = session
            .advise(&scenario, &workloads, &config)
            .expect("warm advise");
        let cold_report = render_recommendation(&cold.recommendation);
        assert_eq!(
            cold_report,
            render_recommendation(&warm.recommendation),
            "warm != cold under {}",
            kind.name()
        );
        cold_reports.push(cold_report);
    }

    // One shared session advising under all three objectives: no
    // objective's warm state may change another's answer.
    let mut shared = AdvisorSession::new();
    for (kind, cold_report) in ObjectiveKind::ALL.into_iter().zip(&cold_reports) {
        let outcome = shared
            .advise(&scenario, &workloads, &config_for(kind))
            .expect("shared advise");
        assert_eq!(
            &render_recommendation(&outcome.recommendation),
            cold_report,
            "shared session != own session under {}",
            kind.name()
        );
    }
}
