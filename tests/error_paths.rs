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
//! [`WaslaError::Usage`] (exit 2). A device below the calibration
//! grid's capacity floor is a usage error on the `calibrate` command
//! line and a typed model error (exit 1) in a target list.

use wasla::core::{AdminConstraint, AdvisorError};
use wasla::exec::{EngineError, PlacementError};
use wasla::model::{CalibrationGrid, ModelError, TargetCostModel};
use wasla::persist;
use wasla::pipeline::{self, AdviseConfig, Scenario};
use wasla::simlib::json;
use wasla::storage::{DeviceSpec, DiskParams, TargetConfig};
use wasla::workload::{Catalog, SqlWorkload, WorkloadSet, WorkloadSpec};
use wasla::{AdvisorSession, Service, WaslaError};

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
fn unknown_step_object_is_a_typed_error() {
    // A template step naming an object the catalog lacks fails the
    // trace run up front, naming the workload and template it sits in,
    // instead of panicking mid-simulation.
    let mut workload = SqlWorkload::olap1_21(3);
    workload.templates[2].phases[0][0].object = "NO_SUCH_TABLE".to_string();
    let err = pipeline::advise(
        &Scenario::homogeneous_disks(4, 0.01),
        &[workload],
        &AdviseConfig::fast(),
    )
    .err()
    .expect("advise should fail");
    assert_eq!(
        err,
        WaslaError::Engine(EngineError::UnknownObject {
            workload: 0,
            template: 2
        })
    );
    assert_eq!(err.exit_code(), 1);
    assert!(
        err.to_string().contains("template 2 of workload 0"),
        "{err}"
    );
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
fn undersized_calibration_device_is_a_usage_error() {
    // The default grid's largest request is 256 KiB, so calibration
    // needs at least 524,288 bytes: one byte less (or a non-finite,
    // zero or negative size) is a usage error (exit 2) raised before
    // any measurement, never a panic inside a calibration worker.
    for line in [
        "calibrate --device scsi15k --capacity-gb 0.000524287",
        "calibrate --device ssd --capacity-gb 0.000524287",
        "calibrate --device scsi15k --capacity-gb 0",
        "calibrate --device scsi15k --capacity-gb -1",
        "calibrate --device ssd --capacity-gb nan",
        "calibrate --device ssd --capacity-gb inf",
    ] {
        let (code, stderr) = advisor_cli(line);
        assert_eq!(code, 2, "{line}: stderr {stderr}");
        assert!(stderr.contains("--capacity-gb"), "{line}: stderr {stderr}");
    }
    // Exactly at the floor the device calibrates.
    let out = std::env::temp_dir().join(format!("wasla-floor-model-{}.json", std::process::id()));
    let line = format!(
        "calibrate --device ssd --capacity-gb 0.000524288 --out {}",
        out.display()
    );
    let (code, stderr) = advisor_cli(&line);
    assert_eq!(code, 0, "{line}: stderr {stderr}");
    std::fs::remove_file(&out).unwrap();
}

#[test]
fn undersized_target_member_is_a_typed_model_error() {
    // A target whose member device is below the calibration floor is
    // refused with a typed model error (exit 1) on every calibration
    // path: the library's batch calibration, a session, and the CLI.
    let tiny = vec![TargetConfig::single(
        "tiny".to_string(),
        DeviceSpec::Disk(DiskParams::scsi_15k(100_000)),
    )];
    let expected = ModelError::BelowCalibrationFloor {
        target: "tiny".to_string(),
        capacity: 100_000,
        floor: 524_288,
    };
    let grid = CalibrationGrid::default();
    assert_eq!(
        TargetCostModel::for_targets(&tiny, &grid, 7).err(),
        Some(expected.clone())
    );
    let err = AdvisorSession::new()
        .models_for(&tiny, &grid, 7)
        .err()
        .expect("session calibration should fail");
    assert_eq!(err, WaslaError::Model(expected));
    assert_eq!(err.exit_code(), 1);

    let dir = std::env::temp_dir().join(format!("wasla-tiny-target-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let workloads = WorkloadSet {
        names: vec!["t".to_string()],
        sizes: vec![4096],
        specs: vec![WorkloadSpec {
            read_size: 8192.0,
            write_size: 8192.0,
            read_rate: 10.0,
            write_rate: 0.0,
            run_count: 1.0,
            overlaps: vec![0.0],
        }],
    };
    let (w, t) = (dir.join("w.json"), dir.join("t.json"));
    std::fs::write(&w, json::to_string(&workloads)).unwrap();
    std::fs::write(&t, json::to_string(&tiny)).unwrap();
    let (code, stderr) = advisor_cli(&format!(
        "advise --workloads {} --targets {}",
        w.display(),
        t.display()
    ));
    assert_eq!(code, 1, "stderr {stderr}");
    assert!(
        stderr.contains("calibration needs at least 524288 bytes"),
        "stderr {stderr}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn retired_fit_flags_are_usage_errors() {
    // `fit` reads one representation, the op-log, through one fit:
    // `--trace` and `--materialized` are unknown flags (exit 2),
    // rejected before any file is read.
    for (line, flag) in [
        ("fit --trace x --objects o.json", "--trace"),
        (
            "fit --oplog log.tsv --objects o.json --materialized",
            "--materialized",
        ),
    ] {
        let (code, stderr) = advisor_cli(line);
        assert_eq!(code, 2, "{line}: stderr {stderr}");
        assert!(stderr.contains(flag), "{line}: stderr {stderr}");
    }
}

#[test]
fn epoch_stamped_oplog_is_a_typed_fit_error() {
    // A well-formed log stamped with epoch seconds puts its first pane
    // ~1.7e8 panes past t = 0; the control loop must refuse it with a
    // typed fit error (exit 1), not abort allocating a snapshot per
    // pane. Under a fault plan the salvaged one-record prefix is just
    // as far out, so the answer is the same.
    let dir = std::env::temp_dir().join(format!("wasla-epoch-oplog-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("log.tsv");
    std::fs::write(
        &log,
        "#wasla-oplog v1\n\
         R\t0\t0\t8192\t1700000000\t1700000000.001\n\
         R\t1\t0\t8192\t1700000001\t1700000001.001\n",
    )
    .unwrap();
    let (code, stderr) = advisor_cli(&format!("serve --oplog {} --budget 1000000", log.display()));
    assert_eq!(code, 1, "stderr {stderr}");
    assert!(stderr.contains("panes"), "stderr {stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fit_reads_v1_and_v2_oplogs_alike_and_rejects_bad_hex() {
    // `fit --oplog` on the committed v1 fixture and on its v2 rewrite
    // writes byte-identical fits: the reader picks the format from the
    // header and both spell the same f64 times. An uppercase hex digit
    // in a v2 time is a typed op-log error (exit 1), not a panic.
    let dir = std::env::temp_dir().join(format!("wasla-oplog-formats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures");
    let objects = dir.join("objects.json");
    let inventory: Vec<String> = (0..6)
        .map(|i| format!(r#"{{"name":"obj{i}","size":1073741824}}"#))
        .collect();
    std::fs::write(&objects, format!("[{}]", inventory.join(","))).unwrap();
    let fit = |log: &str, out: &str| {
        advisor_cli(&format!(
            "fit --oplog {fixtures}/{log} --objects {} --out {}",
            objects.display(),
            dir.join(out).display()
        ))
    };
    for (log, out) in [("golden.oplog", "v1.json"), ("golden_v2.oplog", "v2.json")] {
        let (code, stderr) = fit(log, out);
        assert_eq!(code, 0, "{log}: stderr {stderr}");
    }
    let v1 = std::fs::read(dir.join("v1.json")).unwrap();
    assert!(!v1.is_empty());
    assert_eq!(v1, std::fs::read(dir.join("v2.json")).unwrap());

    let v2 = std::fs::read_to_string(format!("{fixtures}/golden_v2.oplog")).unwrap();
    let upper = v2.replacen("3f75e3415c30c9ba", "3f75E3415c30c9ba", 1);
    assert_ne!(upper, v2, "fixture holds the time the test damages");
    let bad = dir.join("bad.oplog");
    std::fs::write(&bad, upper).unwrap();
    let (code, stderr) = advisor_cli(&format!(
        "fit --oplog {} --objects {}",
        bad.display(),
        objects.display()
    ));
    assert_eq!(code, 1, "stderr {stderr}");
    assert!(
        stderr.contains("line 2: unparsable complete field"),
        "stderr {stderr}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
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
