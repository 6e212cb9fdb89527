//! Daemon determinism and bounded-cost contracts.
//!
//! The online control loop must be reproducible and budget-safe:
//!
//! * decision logs are byte-identical at any `WASLA_THREADS` setting
//!   (the thread-equality test mutates the environment variable, so —
//!   like `tests/determinism.rs` — it relies on not racing other
//!   env-mutating tests in this binary; none here mutate it);
//! * a warm-restarted controller (checkpoint + remaining stream)
//!   produces byte-identical state and decisions to a cold controller
//!   fed the whole stream at once;
//! * cumulative voluntary migration bytes never exceed the granted
//!   budget, for every prefix of ticks — while evacuations off failed
//!   targets are always admitted, even at budget zero;
//! * a corrupt controller checkpoint is quarantined and the loop
//!   restarts cold, never panics;
//! * `MigrationPlan` JSON is pinned by a golden fixture (regenerate
//!   with `WASLA_REGEN_FIXTURES=1`).

use std::path::PathBuf;
use wasla::core::dynamic::{MigrationMove, MigrationPlan};
use wasla::core::Layout;
use wasla::daemon::{DaemonConfig, TargetFailure};
use wasla::pipeline::{AdviseConfig, DegradedNote, Scenario};
use wasla::simlib::fault;
use wasla::simlib::json::{to_string_pretty, FromJson, Json};
use wasla::simlib::time::SimTime;
use wasla::storage::IoKind;
use wasla::trace::oplog::{OpLog, OpRecord, WindowPlan};
use wasla::Service;

/// A deterministic drifting stream: the read hotspot rotates through
/// the catalog every `rotate_s`, with round-robin background traffic
/// and a write every fifth op. Records are issue-ordered.
fn synth_log(scenario: &Scenario, total_s: f64, rotate_s: f64) -> OpLog {
    let sizes = scenario.catalog.sizes();
    let n = sizes.len() as u64;
    let mut log = OpLog::new();
    let dt = 0.02;
    let mut k: u64 = 0;
    loop {
        let t = k as f64 * dt;
        if t >= total_s {
            break;
        }
        let hot = ((t / rotate_s) as u64) % n;
        let stream = if k % 4 == 0 { k % n } else { hot } as u32;
        let size = sizes[stream as usize];
        let len = if k % 5 == 0 { 8192 } else { 131072 };
        let offset = (k.wrapping_mul(131072)) % size.saturating_sub(len).max(1);
        log.push(OpRecord {
            kind: if k % 5 == 0 {
                IoKind::Write
            } else {
                IoKind::Read
            },
            stream,
            offset,
            len,
            issue: SimTime::from_secs(t),
            complete: SimTime::from_secs(t + 0.004),
        });
        k += 1;
    }
    log
}

fn daemon_config(budget: u64, failures: Vec<TargetFailure>) -> DaemonConfig {
    DaemonConfig {
        window: WindowPlan {
            pane_s: 2.0,
            panes_per_window: 2,
        },
        drift_threshold: 0.10,
        budget_bytes_per_tick: budget,
        alpha: 0.0,
        carry_cap_ticks: 8,
        target_failures: failures,
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wasla-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fixture_path(name: &str) -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

/// One full daemon run at a given pool width; fresh service, no cache.
fn run_at_threads(threads: usize, budget: u64) -> (String, String) {
    std::env::set_var("WASLA_THREADS", threads.to_string());
    let scenario = Scenario::homogeneous_disks(4, 0.01);
    let log = synth_log(&scenario, 24.0, 8.0);
    let mut service = Service::new(scenario.seed);
    let report = service
        .run_loop(
            &log,
            &scenario,
            &AdviseConfig::fast(),
            &daemon_config(budget, vec![]),
        )
        .expect("daemon run");
    std::env::remove_var("WASLA_THREADS");
    (report.render_decisions(), report.render_state())
}

#[test]
fn decision_log_is_byte_identical_at_any_thread_count() {
    let budget = 16 << 20;
    let (decisions_1, state_1) = run_at_threads(1, budget);
    let (decisions_8, state_8) = run_at_threads(8, budget);
    assert_eq!(
        decisions_1, decisions_8,
        "daemon decision log depends on WASLA_THREADS"
    );
    assert_eq!(
        state_1, state_8,
        "controller state depends on WASLA_THREADS"
    );
}

#[test]
fn restart_warm_equals_cold() {
    // Trace salvage keys off the log content hash, so a prefix log
    // salvages differently from the full stream; the restart contract
    // is defined (and tested) fault-free, like the golden suites.
    if fault::plan().is_some() {
        return;
    }
    let scenario = Scenario::homogeneous_disks(4, 0.01);
    let config = AdviseConfig::fast();
    let daemon = daemon_config(16 << 20, vec![]);
    let full = synth_log(&scenario, 24.0, 8.0);
    // Split exactly at a pane boundary (pane_s = 2.0), so the prefix
    // run sees the identical panes the cold run saw for those ticks.
    let split_s = 12.0;
    let mut prefix = OpLog::new();
    for rec in full.records() {
        if rec.issue.as_secs() < split_s {
            prefix.push(*rec);
        }
    }

    let cold_dir = scratch_dir("cold");
    let mut cold = Service::new(scenario.seed);
    // Cold: one uninterrupted run over the whole stream (no cache).
    let cold_report = cold
        .run_loop(&full, &scenario, &config, &daemon)
        .expect("cold run");

    // Warm: run the prefix, checkpoint, reopen, feed the full stream.
    let warm_dir = scratch_dir("warm");
    let mut warm = Service::open(scenario.seed, &warm_dir)
        .expect("open warm service")
        .0;
    let first_half = warm
        .run_loop(&prefix, &scenario, &config, &daemon)
        .expect("warm first half");
    warm.persist().expect("persist warm service");
    drop(warm);
    let (mut resumed, notes) = Service::open(scenario.seed, &warm_dir).expect("reopen");
    assert!(notes.is_empty(), "clean caches must not quarantine");
    let second_half = resumed
        .run_loop(&full, &scenario, &config, &daemon)
        .expect("warm second half");

    assert_eq!(
        cold_report.render_state(),
        second_half.render_state(),
        "restart-warm controller state must equal cold byte-for-byte"
    );
    let stitched: Vec<_> = first_half
        .decisions
        .iter()
        .chain(second_half.decisions.iter())
        .cloned()
        .collect();
    assert_eq!(
        cold_report.render_decisions(),
        to_string_pretty(&stitched),
        "restart-warm decisions must equal cold byte-for-byte"
    );
    std::fs::remove_dir_all(&cold_dir).unwrap();
    std::fs::remove_dir_all(&warm_dir).unwrap();
}

#[test]
fn voluntary_bytes_never_exceed_the_granted_budget() {
    let scenario = Scenario::homogeneous_disks(4, 0.01);
    let budget: u64 = 256 << 10;
    let log = synth_log(&scenario, 24.0, 6.0);
    let mut service = Service::new(scenario.seed);
    let report = service
        .run_loop(
            &log,
            &scenario,
            &AdviseConfig::fast(),
            &daemon_config(budget, vec![]),
        )
        .expect("daemon run");
    let mut admitted: u64 = 0;
    for (i, d) in report.decisions.iter().enumerate() {
        admitted += d.admitted_bytes;
        let granted = budget * (i as u64 + 1);
        assert!(
            admitted <= granted,
            "tick {}: cumulative voluntary bytes {admitted} exceed granted budget {granted}",
            d.tick
        );
    }
    if fault::plan().is_none() {
        assert!(
            report.decisions.iter().any(|d| d.deferred_bytes > 0),
            "a 256 KiB/tick budget should actually defer some moves"
        );
    }
}

#[test]
fn failed_target_is_evacuated_even_at_budget_zero() {
    let scenario = Scenario::homogeneous_disks(4, 0.01);
    let log = synth_log(&scenario, 20.0, 6.0);
    let mut service = Service::new(scenario.seed);
    let failures = vec![TargetFailure { tick: 1, target: 0 }];
    let report = service
        .run_loop(
            &log,
            &scenario,
            &AdviseConfig::fast(),
            &daemon_config(0, failures),
        )
        .expect("daemon run");
    assert!(
        report.state.next_tick > 1,
        "the stream must reach the failure tick"
    );
    for i in 0..report.state.deployed.n_objects() {
        assert!(
            report.state.deployed.row(i)[0] <= 1e-9,
            "object {i} still has mass on the failed target"
        );
    }
    assert!(
        report.state.forced_bytes_total > 0,
        "the evacuation must move bytes"
    );
    assert_eq!(
        report.state.admitted_bytes_total, 0,
        "budget zero admits no voluntary bytes"
    );
    assert!(
        report
            .degraded
            .iter()
            .any(|n| matches!(n, DegradedNote::DeviceFailed { .. })),
        "the injected failure must surface as a typed note"
    );
}

#[test]
fn corrupt_controller_checkpoint_is_quarantined() {
    let dir = scratch_dir("quarantine");
    std::fs::write(dir.join("controller.json"), "{torn checkpoint").unwrap();
    let scenario = Scenario::homogeneous_disks(4, 0.01);
    let log = synth_log(&scenario, 12.0, 6.0);
    let (mut service, open_notes) = Service::open(scenario.seed, &dir).expect("open");
    assert!(open_notes.is_empty(), "stage caches are intact");
    let report = service
        .run_loop(
            &log,
            &scenario,
            &AdviseConfig::fast(),
            &daemon_config(16 << 20, vec![]),
        )
        .expect("daemon run survives a corrupt checkpoint");
    assert!(
        report
            .degraded
            .iter()
            .any(|n| matches!(n, DegradedNote::CacheQuarantined { path }
                if path.ends_with("controller.json.quarantined"))),
        "expected a quarantine note, got {:?}",
        report.degraded
    );
    assert!(dir.join("controller.json.quarantined").exists());
    assert_eq!(
        report.decisions.first().map(|d| d.tick),
        Some(0),
        "a quarantined checkpoint restarts the controller cold"
    );
    // The fresh checkpoint written after the run must load cleanly.
    let (reloaded, notes) = wasla::persist::load_controller(&dir).expect("reload");
    assert!(notes.is_empty());
    assert_eq!(reloaded.expect("checkpoint present"), report.state);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A canonical hand-built value pinning the JSON schema of the
/// re-plan report. The golden file is committed; regenerate with
/// `WASLA_REGEN_FIXTURES=1` after an intentional schema change.
fn golden_plan() -> MigrationPlan {
    MigrationPlan {
        moves: vec![MigrationMove {
            object: 1,
            to: vec![1.0, 0.0],
            bytes: 1 << 20,
            projected_win: 0.25,
            forced: false,
        }],
        layout: Layout::from_rows(vec![vec![0.5, 0.5], vec![1.0, 0.0]]),
        current_max_utilization: 0.75,
        new_max_utilization: 0.5,
        admitted_bytes: 1 << 20,
        forced_bytes: 0,
        deferred_moves: 1,
        deferred_bytes: 8192,
        budget_left: 512,
    }
}

fn check_golden<T>(name: &str, value: &T)
where
    T: wasla::simlib::json::ToJson + FromJson + PartialEq + std::fmt::Debug,
{
    let rendered = to_string_pretty(value);
    let path = fixture_path(name);
    if std::env::var("WASLA_REGEN_FIXTURES").is_ok() {
        std::fs::write(&path, &rendered).expect("write fixture");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("read golden fixture");
    assert_eq!(
        rendered, golden,
        "{name} drifted from its golden fixture; if intentional, \
         regenerate with WASLA_REGEN_FIXTURES=1"
    );
    let parsed = T::from_json(&Json::parse(&golden).expect("parse fixture")).expect("decode");
    assert_eq!(&parsed, value, "{name} must round-trip through JSON");
}

#[test]
fn migration_plan_matches_golden_fixture() {
    check_golden("migration_plan.golden", &golden_plan());
}
