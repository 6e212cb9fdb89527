//! Crash-safe session persistence, end to end: a [`Service`] opened on
//! a cache directory restarts warm and reproduces warm results
//! byte-for-byte; a corrupted snapshot is quarantined and rebuilt
//! transparently; the op-log salvage path under a fault plan gives a
//! restarted service the same fit as a cold one; and a `fits.json`
//! left by an older build is ignored. The tests own their scratch
//! directories and edit the fault-seed environment variable, so they
//! serialize on [`ENV_LOCK`].

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};
use wasla::core::ObjectiveKind;
use wasla::persist;
use wasla::pipeline::{AdviseConfig, Scenario};
use wasla::session::{AdviseRequest, AdvisorSession, Service};
use wasla::simlib::fault::{self, FaultPlan};
use wasla::simlib::hash::Fnv64;
use wasla::simlib::json::{Json, ToJson};
use wasla::simlib::{json, SimTime};
use wasla::storage::IoKind;
use wasla::trace::oplog::{OpLog, OpRecord};
use wasla::trace::FitConfig;
use wasla::workload::SqlWorkload;
use wasla::DegradedNote;

/// Serializes the tests of this binary around their environment edits.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn env_lock() -> MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fresh scratch directory for one test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wasla-session-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn requests() -> Vec<AdviseRequest> {
    vec![
        AdviseRequest::new(
            Scenario::homogeneous_disks(4, 0.01),
            vec![SqlWorkload::olap1_21(3)],
            AdviseConfig::fast(),
        ),
        AdviseRequest::new(
            Scenario::homogeneous_disks(4, 0.01),
            vec![SqlWorkload::olap8_63(5)],
            AdviseConfig::fast(),
        ),
    ]
}

/// Layouts from a batch run, unwrapped (no faults are active here).
fn layouts(service: &mut Service) -> Vec<(Vec<Vec<f64>>, Vec<Vec<f64>>)> {
    service
        .advise_batch(&requests())
        .into_iter()
        .map(|outcome| {
            let outcome = outcome.expect("advise succeeds");
            (
                outcome.recommendation.solver_layout.rows().to_vec(),
                outcome.recommendation.final_layout().rows().to_vec(),
            )
        })
        .collect()
}

#[test]
fn service_restarts_warm_and_survives_cache_corruption() {
    let _env = env_lock();
    std::env::remove_var(fault::ENV_VAR);
    let dir = scratch_dir("persist");

    // Cold start: nothing on disk, no notes, empty caches.
    let (mut cold, notes) = Service::open(0xBA7C4, &dir).expect("cold open");
    assert!(notes.is_empty(), "cold open must be silent: {notes:?}");
    assert_eq!(cold.session().calibrations_cached(), 0);
    let cold_layouts = layouts(&mut cold);
    cold.persist().expect("persist after cold batch");
    assert!(dir.join(persist::CALIBRATIONS_FILE).exists());
    assert!(!dir.join("fits.json").exists(), "fits are not persisted");

    // Restart: caches restored, zero recomputation, byte-identical
    // results.
    let (mut warm, notes) = Service::open(0xBA7C4, &dir).expect("warm open");
    assert!(notes.is_empty(), "warm open must be silent: {notes:?}");
    assert_eq!(warm.session().calibrations_cached(), 1);
    let warm_layouts = layouts(&mut warm);
    assert_eq!(cold_layouts, warm_layouts, "warm must equal cold");
    let stats = warm.session().stats();
    assert_eq!(stats.calibration.misses, 0, "restored tables must serve");

    // Corrupt one snapshot: the open quarantines it, reports a typed
    // note, and the rebuilt service still reproduces the cold results.
    std::fs::write(dir.join(persist::CALIBRATIONS_FILE), "{torn write").unwrap();
    let (mut rebuilt, notes) = Service::open(0xBA7C4, &dir).expect("open past corruption");
    assert_eq!(notes.len(), 1, "expected one quarantine note: {notes:?}");
    assert!(
        matches!(&notes[0], DegradedNote::CacheQuarantined { path }
            if path.ends_with("calibrations.json.quarantined")),
        "got {:?}",
        notes[0]
    );
    assert!(dir.join("calibrations.json.quarantined").exists());
    assert_eq!(rebuilt.session().calibrations_cached(), 0, "rebuilt cold");
    let rebuilt_layouts = layouts(&mut rebuilt);
    assert_eq!(cold_layouts, rebuilt_layouts, "rebuild must equal cold");

    // And persisting again heals the directory for the next restart.
    rebuilt.persist().expect("persist after rebuild");
    let (healed, notes) = Service::open(0xBA7C4, &dir).expect("healed open");
    assert!(notes.is_empty(), "healed open must be silent: {notes:?}");
    assert_eq!(healed.session().calibrations_cached(), 1);
    drop(healed);

    // Op-log salvage, warm ≡ cold: under a fault plan that damages
    // this log, a restarted service salvages the same prefix and fits
    // it to the same bytes as the service that persisted.
    let log = synth_oplog();
    let names: Vec<String> = vec!["a".into(), "b".into(), "c".into()];
    let sizes = vec![1u64 << 30; 3];
    let fit_config = FitConfig::default();
    let seed = (1u64..50_000)
        .find(|&s| {
            FaultPlan::from_seed(s)
                .map(|p| p.trace_fault(log.trace_content_hash()).is_some())
                .unwrap_or(false)
        })
        .expect("no exhibit seed damages this log");
    std::env::set_var(fault::ENV_VAR, seed.to_string());

    let (mut cold, _) = Service::open(0xBA7C4, &dir).expect("open for salvage phase");
    let (cold_set, cold_salvage) = cold
        .session_mut()
        .ingest_oplog(&log, &names, &sizes, &fit_config, ObjectiveKind::MinMax)
        .expect("salvaged ingest");
    let cold_salvage = cold_salvage.expect("the fault plan must damage the log");
    assert!(cold_salvage.kept > 0 && cold_salvage.dropped > 0);
    cold.persist().expect("persist after the salvaged ingest");

    let (mut warm, _) = Service::open(0xBA7C4, &dir).expect("warm salvage open");
    let (warm_set, warm_salvage) = warm
        .session_mut()
        .ingest_oplog(&log, &names, &sizes, &fit_config, ObjectiveKind::MinMax)
        .expect("warm salvaged ingest");
    let warm_salvage = warm_salvage.expect("same plan, same damage");
    assert_eq!(
        json::to_string(&cold_set),
        json::to_string(&warm_set),
        "warm salvage must equal cold byte-for-byte"
    );
    assert_eq!(
        (cold_salvage.kept, cold_salvage.dropped),
        (warm_salvage.kept, warm_salvage.dropped)
    );

    std::env::remove_var(fault::ENV_VAR);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A `fits.json` snapshot in the format older builds wrote: one fit
/// of [`synth_oplog`], checksummed like every snapshot.
fn old_fits_snapshot() -> String {
    let names: Vec<String> = vec!["a".into(), "b".into(), "c".into()];
    let fitted = AdvisorSession::new()
        .fit(
            &synth_oplog(),
            &names,
            &[1u64 << 30; 3],
            &FitConfig::default(),
            ObjectiveKind::MinMax,
        )
        .expect("fit");
    let entries = Json::Arr(vec![Json::Arr(vec![
        0x0123_4567_89ab_cdefu64.to_json(),
        fitted.to_json(),
    ])]);
    let doc = Json::Obj(vec![
        ("version".to_string(), persist::CACHE_VERSION.to_json()),
        ("kind".to_string(), "fits".to_json()),
        (
            "checksum".to_string(),
            Fnv64::new()
                .write_str(&json::to_string(&entries))
                .finish()
                .to_json(),
        ),
        ("entries".to_string(), entries),
    ]);
    json::to_string(&doc)
}

/// Upgrade path: a cache dir that still holds a `fits.json` from an
/// older build — a valid snapshot or garbage — opens silently, restores
/// its calibrations with no calibration miss, and advises exactly like
/// a cold service. The stale file is left alone, and a persist into a
/// fresh dir writes `calibrations.json` and no `fits.json`.
#[test]
fn stale_fits_snapshot_is_ignored() {
    let _env = env_lock();
    std::env::remove_var(fault::ENV_VAR);
    let cold_layouts = layouts(&mut Service::new(0xBA7C4));
    let dir = scratch_dir("stale-fits");
    let (mut seeded, _) = Service::open(0xBA7C4, &dir).expect("open to seed");
    layouts(&mut seeded);
    seeded.persist().expect("persist calibrations");
    let calibrations = std::fs::read(dir.join(persist::CALIBRATIONS_FILE)).unwrap();
    let fresh = scratch_dir("stale-fits-fresh");

    for (label, stale) in [
        ("valid", old_fits_snapshot()),
        ("garbage", "{torn write".to_string()),
    ] {
        std::fs::write(dir.join(persist::CALIBRATIONS_FILE), &calibrations).unwrap();
        std::fs::write(dir.join("fits.json"), &stale).unwrap();
        let (mut service, notes) = Service::open(0xBA7C4, &dir).expect("open past fits.json");
        assert!(
            notes.is_empty(),
            "{label}: stale fits.json noted: {notes:?}"
        );
        assert_eq!(service.session().calibrations_cached(), 1, "{label}");
        assert_eq!(layouts(&mut service), cold_layouts, "{label}: warm != cold");
        assert_eq!(
            service.session().stats().calibration.misses,
            0,
            "{label}: restored tables must serve"
        );
        assert_eq!(
            std::fs::read_to_string(dir.join("fits.json")).unwrap(),
            stale,
            "{label}: fits.json must be left alone"
        );
        assert!(!dir.join("fits.json.quarantined").exists(), "{label}");

        let _ = std::fs::remove_dir_all(&fresh);
        persist::save_session(&fresh, service.session()).expect("persist into a fresh dir");
        assert!(fresh.join(persist::CALIBRATIONS_FILE).exists(), "{label}");
        assert!(
            !fresh.join("fits.json").exists(),
            "{label}: fits.json written"
        );
    }
    for d in [&dir, &fresh] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

/// A small deterministic op-log over three objects: enough records for
/// a meaningful salvage boundary, cheap enough to fit twice per run.
fn synth_oplog() -> OpLog {
    let mut log = OpLog::new();
    for k in 0..60u64 {
        let t = k as f64 * 0.05;
        log.push(OpRecord {
            kind: if k % 4 == 0 {
                IoKind::Write
            } else {
                IoKind::Read
            },
            stream: (k % 3) as u32,
            offset: (k / 3) * 131_072,
            len: 131_072,
            issue: SimTime::from_secs(t),
            complete: SimTime::from_secs(t + 0.004),
        });
    }
    log
}
