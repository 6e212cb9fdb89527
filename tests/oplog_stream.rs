//! Streaming op-log ingestion, end to end: capture equivalence with
//! `advise`, `fit` ≡ `ingest_oplog`, and replay-validation
//! determinism.
//!
//! This suite runs inside the `ci/check.sh` fault matrix, so every
//! assertion is an equality or determinism claim that holds under any
//! active fault plan — faults change *results*, deterministically, and
//! the salvage path fits the same prefix every time. The suite
//! never touches the fault-seed environment variable; it only observes
//! the plan through `fault::plan()`.

use wasla::core::ObjectiveKind;
use wasla::pipeline::{AdviseConfig, DegradedNote, RunSettings, Scenario};
use wasla::replay::{capture_oplog, replay_validate, CaptureOutcome};
use wasla::session::AdvisorSession;
use wasla::simlib::{fault, json};
use wasla::trace::FitConfig;
use wasla::workload::SqlWorkload;

fn scenario() -> Scenario {
    Scenario::homogeneous_disks(4, 0.01)
}

fn capture(settings: &RunSettings) -> CaptureOutcome {
    capture_oplog(&scenario(), &[SqlWorkload::olap1_21(3)], settings)
        .expect("capture must survive fault injection")
}

/// `advise` is the trace stage followed by op-log ingestion: its fitted
/// set equals capturing the log with the same run settings and
/// ingesting it on a fresh session — under a fault plan too, where
/// both sides salvage the same torn tail and `advise` notes it.
#[test]
fn advise_fit_equals_capture_then_ingest() {
    let s = scenario();
    let config = AdviseConfig::fast();
    let outcome = AdvisorSession::new()
        .advise(&s, &[SqlWorkload::olap1_21(3)], &config)
        .expect("advise must survive fault injection");
    let c = capture(&config.trace_run);
    let baseline_log = outcome.baseline_run.trace.as_ref().expect("log captured");
    assert_eq!(baseline_log.to_tsv(), c.log.to_tsv(), "same captured run");

    let (fitted, salvage) = AdvisorSession::new()
        .ingest_oplog(
            &c.log,
            &s.catalog.names(),
            &s.catalog.sizes(),
            &config.fit,
            config.advisor.solver.objective,
        )
        .expect("ingest");
    assert_eq!(json::to_string(&outcome.fitted), json::to_string(&fitted));
    let noted = outcome.degraded.iter().find_map(|note| match note {
        DegradedNote::TraceSalvaged { kept, dropped } => Some((*kept, *dropped)),
        _ => None,
    });
    assert_eq!(noted, salvage.map(|s| (s.kept, s.dropped)));
}

/// Both entry points to the same I/O give the same fit: re-ingesting
/// a log reproduces its first ingest (including the salvage path under
/// a fault plan), and on a clean plan `fit` equals `ingest_oplog`.
#[test]
fn fit_equals_ingest_oplog() {
    let c = capture(&RunSettings::default());
    let s = scenario();
    let names = s.catalog.names();
    let sizes = s.catalog.sizes();
    let config = FitConfig::default();

    let mut session = AdvisorSession::new();
    let (first, first_salvage) = session
        .ingest_oplog(&c.log, &names, &sizes, &config, ObjectiveKind::MinMax)
        .expect("ingest");
    let (again, again_salvage) = session
        .ingest_oplog(&c.log, &names, &sizes, &config, ObjectiveKind::MinMax)
        .expect("re-ingest");
    assert_eq!(json::to_string(&first), json::to_string(&again));
    assert_eq!(first_salvage, again_salvage);

    let clean = fault::plan()
        .and_then(|p| p.trace_fault(c.log.trace_content_hash()))
        .is_none();
    if clean {
        assert!(first_salvage.is_none(), "clean ingest must not salvage");
        let fitted = session
            .fit(&c.log, &names, &sizes, &config, ObjectiveKind::MinMax)
            .expect("fit");
        assert_eq!(json::to_string(&first), json::to_string(&fitted));
    } else {
        let salvage = first_salvage.expect("fault plan must damage the log");
        assert!(salvage.kept > 0, "engine-produced prefix salvages");
        assert!(salvage.dropped > 0, "damage drops the tail");
        let prefix = session
            .fit(
                &c.log.prefix(salvage.kept),
                &names,
                &sizes,
                &config,
                ObjectiveKind::MinMax,
            )
            .expect("fit of the kept prefix");
        assert_eq!(json::to_string(&first), json::to_string(&prefix));
    }
}

/// The replay-validation loop is complete (every captured op is issued
/// and, absent faults, completed) and deterministic: two sessions over
/// the same log render byte-identical reports.
#[test]
fn replay_validation_is_complete_and_deterministic() {
    let c = capture(&RunSettings::default());
    let s = scenario();
    let config = AdviseConfig::fast();

    let mut session = AdvisorSession::new();
    let v = replay_validate(&mut session, &c.log, &s, &config).expect("validate");
    assert_eq!(v.baseline.observed.issued, c.log.len() as u64);
    assert!(v.baseline.observed.completed <= v.baseline.observed.issued);
    if fault::plan().is_none() {
        assert_eq!(v.baseline.observed.completed, v.baseline.observed.issued);
        assert_eq!(v.advised.observed.completed, v.advised.observed.issued);
    }
    assert!(v.baseline.observed.makespan.is_finite());
    assert!(v.predicted_advised_makespan.is_finite());
    assert!(v.baseline.predicted_max() >= 0.0);

    let mut fresh = AdvisorSession::new();
    let w = replay_validate(&mut fresh, &c.log, &s, &config).expect("revalidate");
    assert_eq!(
        wasla::replay::render_validation(&v, &s),
        wasla::replay::render_validation(&w, &s),
        "same log, same scenario, same config → byte-identical report"
    );
}
