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
//! [`WaslaError::Overloaded`] (exit 5), and unknown or malformed CLI
//! flags — stress and every `wasla-advisor` subcommand — are
//! [`WaslaError::Usage`] (exit 2).

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

/// Runs `wasla-advisor` with a whitespace-separated command line,
/// returning its exit code and stderr.
fn advisor_cli(line: &str) -> (i32, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_wasla-advisor"))
        .args(line.split_whitespace())
        .output()
        .expect("spawn wasla-advisor");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code().expect("exited normally"), stderr)
}

#[test]
fn unknown_grad_path_is_a_usage_error() {
    // The solver has one gradient; `--grad` is no longer a flag of any
    // subcommand, so every spelling of it is rejected as a usage error
    // (exit code 2) naming the flag instead of silently running the
    // analytic gradient. Flags are checked before any file is read.
    for line in [
        "advise --workloads w.json --targets t.json --grad fd",
        "replay --oplog log.tsv --grad analytic",
        "serve --oplog log.tsv --budget 1 --grad fd",
        "demo --grad fd",
    ] {
        let (code, stderr) = advisor_cli(line);
        assert_eq!(code, 2, "{line}: stderr {stderr}");
        assert!(stderr.contains("--grad"), "{line}: stderr {stderr}");
    }
}

#[test]
fn unknown_flags_and_malformed_numbers_are_usage_errors() {
    // Every subcommand reads only its declared flags: an unknown flag,
    // a flag missing its value, or a malformed number exits 2 before
    // any work starts, never falls back to a default.
    for line in [
        "demo --scale abc",
        "demo --frobnicate",
        "fit --oplog log.tsv --objects o.json --window-s soon",
        "capture --out-dir cap --scale",
        "calibrate --device ssd --capacity-gb 4 --verbose",
        "serve --oplog log.tsv --budget lots",
        "advise --workloads w.json --targets t.json stray",
    ] {
        let (code, stderr) = advisor_cli(line);
        assert_eq!(code, 2, "{line}: stderr {stderr}");
        assert!(stderr.contains("usage:"), "{line}: stderr {stderr}");
    }
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
    // A fleet-wide outage leaves nowhere to evacuate to; the daemon's
    // evacuation path — re-plan over the problem without the failed
    // targets, under an unbounded budget — must refuse with a typed
    // error instead of solving (or panicking on) an all-zero-capacity
    // problem.
    use wasla::core::dynamic::{problem_without, readvise_incremental, MigrationBudget};
    let scenario = Scenario::homogeneous_disks(3, 0.01);
    let outcome = pipeline::advise(&scenario, &workloads(), &AdviseConfig::fast())
        .expect("baseline advise succeeds");
    let deployed = outcome.recommendation.final_layout();
    let err: WaslaError = readvise_incremental(
        &problem_without(&outcome.problem, &[0, 1, 2]),
        deployed,
        &Default::default(),
        &Default::default(),
        &MigrationBudget::unbounded(),
    )
    .expect_err("all targets failed should be an error")
    .into();
    assert!(
        matches!(err, WaslaError::Advisor(AdvisorError::InvalidProblem(_))),
        "expected a typed InvalidProblem, got {err:?}"
    );
    assert_eq!(err.exit_code(), 1);
}
