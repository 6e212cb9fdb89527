//! End-to-end error paths: malformed scenarios fed to the full
//! pipeline must surface as *typed* [`WaslaError`]s, never panics.
//!
//! Each case drives `pipeline::advise` (the cold path, which is a
//! fresh [`wasla::AdvisorSession`]) with a scenario broken in a
//! different stage: an empty catalog breaks problem validation, an
//! OLTP-only trace run with no stop condition is refused by the
//! execution engine, a zero-capacity target breaks SEE placement
//! inside the trace stage,
//! and unsatisfiable admin constraints dead-end the regularizer. The
//! last case opens a [`wasla::Service`] on a cache directory whose
//! damage cannot be quarantined — the one persistence failure that is
//! an error rather than a degradation. Batch admission control gets
//! the same treatment: a shed request is a typed
//! [`WaslaError::Overloaded`] (exit 5), and malformed stress CLI
//! flags are [`WaslaError::Usage`] (exit 2).

use wasla::core::{AdminConstraint, AdvisorError};
use wasla::exec::{EngineError, PlacementError};
use wasla::persist;
use wasla::pipeline::{self, AdviseConfig, Scenario};
use wasla::storage::{DeviceSpec, DiskParams, TargetConfig};
use wasla::workload::{Catalog, SqlWorkload};
use wasla::{Service, WaslaError};

fn workloads() -> [SqlWorkload; 1] {
    [SqlWorkload::olap1_21(3)]
}

#[test]
fn empty_catalog_is_a_typed_error() {
    let mut scenario = Scenario::homogeneous_disks(4, 0.01);
    scenario.catalog = Catalog::new();
    let err = pipeline::advise(&scenario, &workloads(), &AdviseConfig::fast())
        .err()
        .expect("advise should fail");
    assert!(
        matches!(err, WaslaError::Advisor(AdvisorError::InvalidProblem(_))),
        "empty catalog should fail problem validation, got {err:?}"
    );
    assert_eq!(err.exit_code(), 1);
}

#[test]
fn unbounded_oltp_run_is_a_typed_error() {
    // OLTP terminals alone never finish; with neither `max_time` nor
    // `txn_cap` the trace run must refuse to start, not grow forever.
    let err = pipeline::advise(
        &Scenario::oltp_disks(0.01),
        &[SqlWorkload::oltp()],
        &AdviseConfig::fast(),
    )
    .err()
    .expect("advise should fail");
    assert_eq!(err, WaslaError::Engine(EngineError::Unbounded));
    assert_eq!(err.exit_code(), 1);
}

#[test]
fn zero_capacity_target_is_a_typed_error() {
    let mut scenario = Scenario::homogeneous_disks(4, 0.01);
    // One dead disk: the SEE baseline stripes everything everywhere,
    // so placement must reject the zero-capacity member.
    scenario.targets[1] = TargetConfig::single(
        "dead".to_string(),
        DeviceSpec::Disk(DiskParams::scsi_15k(0)),
    );
    let err = pipeline::advise(&scenario, &workloads(), &AdviseConfig::fast())
        .err()
        .expect("advise should fail");
    assert!(
        matches!(
            err,
            WaslaError::Placement(PlacementError::OverCapacity { .. })
        ),
        "zero-capacity target should fail SEE placement, got {err:?}"
    );
}

#[test]
fn infeasible_constraints_are_a_typed_error() {
    let scenario = Scenario::homogeneous_disks(4, 0.01);
    let mut config = AdviseConfig::fast();
    config.advisor.regularize = true;
    // Forbid object 0 from every target: no regular layout can exist
    // (the paper's §4.3 manual-intervention case).
    config.constraints = (0..scenario.targets.len())
        .map(|target| AdminConstraint::Forbid { object: 0, target })
        .collect();
    let err = pipeline::advise(&scenario, &workloads(), &config)
        .err()
        .expect("advise should fail");
    assert!(
        matches!(err, WaslaError::Advisor(_)),
        "unsatisfiable constraints should surface from the advisor, got {err:?}"
    );
}

#[test]
fn unknown_objective_is_a_usage_error() {
    use wasla::core::ObjectiveKind;
    // The CLI's `--objective` values parse through this helper; an
    // unknown name is a usage error (exit code 2) listing the valid
    // names, and every valid name round-trips.
    let err = pipeline::parse_objective("throughput")
        .err()
        .expect("unknown objective should fail");
    assert!(
        matches!(err, WaslaError::Usage(_)),
        "unknown objective should be a usage error, got {err:?}"
    );
    assert_eq!(err.exit_code(), 2);
    let msg = err.to_string();
    for kind in ObjectiveKind::ALL {
        assert!(
            msg.contains(kind.name()),
            "usage error should list {:?}, got {msg}",
            kind.name()
        );
        assert_eq!(pipeline::parse_objective(kind.name()).unwrap(), kind);
    }
}

#[test]
fn unknown_grad_path_is_a_usage_error() {
    use wasla::core::GradPath;
    // The CLI's `--grad` values parse through this helper; an unknown
    // name is a usage error (exit code 2) listing the valid names, and
    // every valid name round-trips.
    let err = pipeline::parse_grad_path("autodiff")
        .err()
        .expect("unknown gradient path should fail");
    assert!(
        matches!(err, WaslaError::Usage(_)),
        "unknown gradient path should be a usage error, got {err:?}"
    );
    assert_eq!(err.exit_code(), 2);
    let msg = err.to_string();
    for path in GradPath::ALL {
        assert!(
            msg.contains(path.name()),
            "usage error should list {:?}, got {msg}",
            path.name()
        );
        assert_eq!(pipeline::parse_grad_path(path.name()).unwrap(), path);
    }
    // The long-form alias parses too.
    assert_eq!(
        pipeline::parse_grad_path("finite-difference").unwrap(),
        GradPath::Fd
    );
}

#[test]
fn admission_rejection_is_a_typed_overloaded_error() {
    use wasla::{AdviseRequest, BatchPolicy};
    // A zero-capacity queue rejects every request before any work:
    // each slot comes back as WaslaError::Overloaded (exit code 5),
    // never a panic, and the decision log records the rejection.
    let scenario = Scenario::homogeneous_disks(2, 0.01);
    let requests = vec![AdviseRequest::new(
        scenario,
        vec![SqlWorkload::olap1_21(3)],
        AdviseConfig::fast(),
    )];
    let policy = BatchPolicy {
        queue_capacity: Some(0),
        ..BatchPolicy::default()
    };
    let mut service = Service::new(0x5eed);
    let report = service.advise_batch_with(&requests, &policy);
    let err = report.outcomes[0]
        .as_ref()
        .err()
        .expect("zero-capacity queue should reject");
    assert!(
        matches!(err, WaslaError::Overloaded { capacity: 0, .. }),
        "expected Overloaded, got {err:?}"
    );
    assert_eq!(err.exit_code(), 5, "admission rejection must map to 5");
    assert!(
        report.render_decisions().contains("disposition=rejected"),
        "decision log must record the rejection"
    );
}

#[test]
fn malformed_stress_flags_are_usage_errors() {
    use wasla::StressOptions;
    // Both `repro stress` and `wasla-advisor stress` parse through
    // StressOptions::from_args: unknown flags, missing values,
    // malformed numbers, and out-of-range generator specs all map to
    // WaslaError::Usage (exit code 2).
    let argv = |raw: &[&str]| -> Vec<String> { raw.iter().map(|s| s.to_string()).collect() };
    for (case, raw) in [
        ("unknown flag", vec!["--tenant-count", "5"]),
        ("missing value", vec!["--tenants"]),
        ("malformed number", vec!["--zipf", "steep"]),
        ("zero tenants", vec!["--tenants", "0"]),
        (
            "inverted sizes",
            vec!["--size-mib-min", "64", "--size-mib-max", "8"],
        ),
        (
            "shares over 1",
            vec!["--interactive-share", "0.9", "--batch-share", "0.9"],
        ),
    ] {
        let err = StressOptions::from_args(&argv(&raw))
            .err()
            .unwrap_or_else(|| panic!("{case}: {raw:?} should fail"));
        assert!(
            matches!(err, WaslaError::Usage(_)),
            "{case}: expected Usage, got {err:?}"
        );
        assert_eq!(err.exit_code(), 2, "{case}");
    }
    // The happy path still parses.
    let opts = StressOptions::from_args(&argv(&["--tenants", "12", "--brownout", "4"]))
        .expect("valid flags parse");
    assert_eq!(opts.spec.tenants, 12);
    assert_eq!(opts.policy.brownout_threshold, Some(4));
}

#[test]
fn blocked_cache_quarantine_is_a_typed_io_error() {
    let dir = std::env::temp_dir().join(format!("wasla-error-paths-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // A corrupt snapshot would normally be quarantined and rebuilt,
    // but a non-empty directory squatting on the quarantine path
    // blocks the rename — the damage cannot be moved aside, so the
    // open must fail with an I/O error naming the quarantine path
    // (the CLI maps it to exit code 3).
    std::fs::write(dir.join(persist::CALIBRATIONS_FILE), "{torn write").unwrap();
    let blocker = dir.join("calibrations.json.quarantined");
    std::fs::create_dir_all(blocker.join("occupied")).unwrap();
    let err = Service::open(0x5eed, &dir).err().expect("open should fail");
    assert_eq!(err.exit_code(), 3, "blocked quarantine must map to I/O");
    assert!(
        matches!(&err, WaslaError::Io { path, .. }
            if path.ends_with("calibrations.json.quarantined")),
        "error must name the quarantine path, got {err:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn evacuating_with_every_target_failed_is_a_typed_error() {
    // A fleet-wide outage leaves nowhere to evacuate to; the planner
    // must refuse with a typed error instead of solving (or panicking
    // on) an all-zero-capacity problem.
    let scenario = Scenario::homogeneous_disks(3, 0.01);
    let outcome = pipeline::advise(&scenario, &workloads(), &AdviseConfig::fast())
        .expect("baseline advise succeeds");
    let deployed = outcome.recommendation.final_layout();
    let err: WaslaError = wasla::core::dynamic::readvise_around_failures(
        &outcome.problem,
        deployed,
        &[0, 1, 2],
        &Default::default(),
        &Default::default(),
    )
    .err()
    .expect("all targets failed should be an error")
    .into();
    assert!(
        matches!(err, WaslaError::Advisor(AdvisorError::InvalidProblem(_))),
        "expected a typed InvalidProblem, got {err:?}"
    );
    assert_eq!(err.exit_code(), 1);
}
