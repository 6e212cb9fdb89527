//! Batch-service determinism: `Service::advise_batch` produces
//! byte-identical reports at any `WASLA_THREADS` setting, and a warm
//! service (caches populated by a previous batch) matches a cold one.
//!
//! This is the sessioned pipeline's contract (DESIGN.md §Staged
//! advisor pipeline): cached stage outputs are bit-identical to
//! freshly computed ones, and per-request seeds derive from the
//! request *index*, not from scheduling order. Wall-clock timings are
//! excluded on purpose.
//!
//! The same contract extends to `advise_batch_with` under an explicit
//! `BatchPolicy`: admission rejections, brownout sheds, and deadline
//! budgets land on the same slots at any thread count, warm or cold,
//! including through a persist/reopen cycle.
//!
//! A second test pins the session a batch service is left with —
//! cache keys in insertion order, hit/miss counters and persisted
//! bytes — so the worker-cache merge stays first-write-wins in request
//! order.
//!
//! Both tests mutate process-wide environment variables
//! (`WASLA_THREADS`, the fault plan), so they serialize on
//! [`ENV_LOCK`].

use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError};
use wasla::persist::{CALIBRATIONS_FILE, FITS_FILE};
use wasla::pipeline::{AdviseConfig, AdviseOutcome, Scenario};
use wasla::simlib::fault::{self, FaultPlan};
use wasla::simlib::hash::Fnv64;
use wasla::simlib::json::{FromJson, Json};
use wasla::stress;
use wasla::workload::{SqlWorkload, SynthSpec};
use wasla::{AdviseRequest, BatchPolicy, Service, WaslaError};

/// Serializes the tests of this binary around their environment edits.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn env_lock() -> MutexGuard<'static, ()> {
    // A test that panicked while holding the lock restored nothing it
    // needs; the next test resets the variables it reads itself.
    ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn requests() -> Vec<AdviseRequest> {
    let scenario = Scenario::homogeneous_disks(4, 0.01);
    let config = AdviseConfig::fast();
    vec![
        AdviseRequest::new(
            scenario.clone(),
            vec![SqlWorkload::olap1_21(3)],
            config.clone(),
        ),
        AdviseRequest::new(scenario, vec![SqlWorkload::olap8_63(5)], config),
    ]
}

/// Everything deterministic about a batch, as bytes.
fn report(outcomes: &[Result<AdviseOutcome, WaslaError>]) -> String {
    let mut out = String::new();
    for outcome in outcomes {
        match outcome {
            Ok(outcome) => {
                let rec = &outcome.recommendation;
                out.push_str(&format!(
                    "solver={:?}\nregular={:?}\nstages={:?}\nconverged={:?} fell_back={:?}\n",
                    rec.solver_layout,
                    rec.regular_layout,
                    rec.stages,
                    rec.converged,
                    rec.fell_back_to_see
                ));
            }
            // Fault-injected request errors are part of the batch's
            // deterministic surface too.
            Err(e) => out.push_str(&format!("error={e}\n")),
        }
    }
    out
}

/// One cold and one warm batch at the given thread count.
fn cold_and_warm_at(threads: usize) -> (String, String) {
    std::env::set_var("WASLA_THREADS", threads.to_string());
    let mut service = Service::new(0xBA7C4);
    let cold = report(&service.advise_batch(&requests()));
    assert!(
        service.session().calibrations_cached() >= 1,
        "batch should have populated the calibration cache"
    );
    let misses_after_cold = service.session().stats().calibration.misses;
    let warm = report(&service.advise_batch(&requests()));
    assert_eq!(
        service.session().stats().calibration.misses,
        misses_after_cold,
        "warm batch must not recalibrate"
    );
    std::env::remove_var("WASLA_THREADS");
    (cold, warm)
}

#[test]
fn batches_are_identical_at_any_thread_count_and_temperature() {
    let _env = env_lock();
    std::env::remove_var(fault::ENV_VAR);
    let (cold_1, warm_1) = cold_and_warm_at(1);
    let (cold_8, warm_8) = cold_and_warm_at(8);
    assert_eq!(cold_1, cold_8, "batch results depend on WASLA_THREADS");
    assert_eq!(cold_1, warm_1, "warm session diverged from cold");
    assert_eq!(warm_1, warm_8, "warm batch depends on WASLA_THREADS");

    // Fault-injected batches hold the same contract: pick a plan that
    // persistently faults exactly one of the two request slots (both
    // retry attempts consumed). That slot must come back as the same
    // typed error at any thread count, warm or cold, while the other
    // slot still produces its recommendation.
    let persistent = |p: &FaultPlan, i: u64| {
        let key = fault::request_key(0xBA7C4, i);
        p.request_fault(key, 0) && p.request_fault(key, 1)
    };
    let seed = (1u64..50_000)
        .find(|&s| {
            FaultPlan::from_seed(s)
                .map(|p| (0..2).filter(|&i| persistent(&p, i)).count() == 1)
                .unwrap_or(false)
        })
        .expect("no persistent-request-fault seed found in range");
    std::env::set_var(fault::ENV_VAR, seed.to_string());
    let (fault_cold_1, fault_warm_1) = cold_and_warm_at(1);
    let (fault_cold_8, fault_warm_8) = cold_and_warm_at(8);
    std::env::remove_var(fault::ENV_VAR);
    assert!(
        fault_cold_1.contains("injected request fault"),
        "seed {seed}: the faulted slot should surface its error:\n{fault_cold_1}"
    );
    assert!(
        fault_cold_1.contains("solver="),
        "seed {seed}: the healthy slot should still succeed:\n{fault_cold_1}"
    );
    assert_eq!(
        fault_cold_1, fault_cold_8,
        "faulted batch depends on WASLA_THREADS"
    );
    assert_eq!(
        fault_cold_1, fault_warm_1,
        "faulted warm diverged from cold"
    );
    assert_eq!(
        fault_warm_1, fault_warm_8,
        "faulted warm depends on WASLA_THREADS"
    );

    // Stress-policy case: admission control, brownout shedding, and
    // deadline budgets produce the same slot-for-slot decision log at
    // any thread count, and a service restarted through persist()
    // re-derives it byte-for-byte.
    let spec = SynthSpec {
        tenants: 6,
        ..SynthSpec::default()
    };
    let policy = BatchPolicy {
        queue_capacity: Some(5),
        brownout_threshold: Some(3),
        max_attempts: 2,
        ..BatchPolicy::default()
    };
    let targets = stress::fleet(&spec);
    let stress_requests: Vec<AdviseRequest> = (0..spec.tenants as u64)
        .map(|i| stress::tenant_request(&spec, &targets, i))
        .collect();
    let policy_report = |service: &mut Service| {
        let report = service.advise_batch_with(&stress_requests, &policy);
        let mut out = report.render_decisions();
        for outcome in &report.outcomes {
            match outcome {
                Ok(o) => out.push_str(&format!("quality={:?}\n", o.recommendation.quality)),
                Err(e) => out.push_str(&format!("error={e}\n")),
            }
        }
        out
    };
    let policy_report_at = |threads: usize| {
        std::env::set_var("WASLA_THREADS", threads.to_string());
        let out = policy_report(&mut Service::new(0xBA7C4));
        std::env::remove_var("WASLA_THREADS");
        out
    };
    let stress_1 = policy_report_at(1);
    let stress_8 = policy_report_at(8);
    assert_eq!(
        stress_1, stress_8,
        "policy decisions depend on WASLA_THREADS"
    );
    assert!(
        stress_1.contains("disposition=rejected") && stress_1.contains("shed=yes"),
        "the policy case should exercise rejection and brownout:\n{stress_1}"
    );

    // Warm ≡ cold through persist: run once cold against a cache dir,
    // persist, reopen, and demand the identical decision log.
    let dir = std::path::PathBuf::from(std::env::temp_dir())
        .join(format!("wasla-batch-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut cold, _) = Service::open(0xBA7C4, &dir).expect("cold open");
    let stress_cold = policy_report(&mut cold);
    cold.persist().expect("persist after cold stress batch");
    let (mut warm, notes) = Service::open(0xBA7C4, &dir).expect("warm open");
    assert!(notes.is_empty(), "warm open must be silent: {notes:?}");
    let stress_warm = policy_report(&mut warm);
    assert_eq!(
        stress_cold, stress_warm,
        "warm stress batch diverged from cold"
    );
    assert_eq!(
        stress_cold, stress_1,
        "persisted path diverged from in-memory"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The keys of one persisted cache file in insertion order, and an
/// FNV-1a hash of its bytes.
fn persisted(path: &Path) -> (Vec<u64>, u64) {
    let raw = std::fs::read_to_string(path).expect("persisted cache file");
    let doc = Json::parse(&raw).expect("cache file parses");
    let Some(Json::Arr(rows)) = doc.field("entries") else {
        panic!("{}: no entries array", path.display());
    };
    let keys = rows
        .iter()
        .map(|row| match row {
            Json::Arr(pair) => u64::from_json(&pair[0]).expect("u64 key"),
            other => panic!("entry is not a [key, value] pair: {other:?}"),
        })
        .collect();
    (keys, Fnv64::new().write_str(&raw).finish())
}

/// Three ticks over six tenants. Tenant 0 repeats within the first
/// tick; tenants 0, 1 and 3 repeat across ticks.
const TICKS: [&[u64]; 3] = [&[0, 1, 0, 2], &[1, 3, 4, 0], &[5, 3, 3, 2]];

/// The session a service is left with after [`TICKS`], as text.
fn session_after_ticks(threads: usize) -> String {
    std::env::set_var("WASLA_THREADS", threads.to_string());
    let spec = SynthSpec {
        tenants: 6,
        ..SynthSpec::default()
    };
    let targets = stress::fleet(&spec);
    let dir = std::env::temp_dir().join(format!(
        "wasla-batch-merge-{}-t{threads}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut service, _) = Service::open(0x5E55, &dir).expect("open cache dir");
    for tick in TICKS {
        let requests: Vec<AdviseRequest> = tick
            .iter()
            .map(|&i| stress::tenant_request(&spec, &targets, i))
            .collect();
        service.advise_batch_with(&requests, &BatchPolicy::default());
    }
    service.persist().expect("persist");
    std::env::remove_var("WASLA_THREADS");
    let stats = service.session().stats();
    let (calibration_keys, calibration_bytes) = persisted(&dir.join(CALIBRATIONS_FILE));
    let (fit_keys, fit_bytes) = persisted(&dir.join(FITS_FILE));
    let _ = std::fs::remove_dir_all(&dir);
    let hex = |keys: &[u64]| {
        keys.iter()
            .map(|k| format!("{k:#018x}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    format!(
        "calibration keys: {}\nfit keys: {}\ncalibration: {:?}\nfit: {:?}\nfits_cached: {}\n\
         calibrations.json: {calibration_bytes:#018x}\nfits.json: {fit_bytes:#018x}\n",
        hex(&calibration_keys),
        hex(&fit_keys),
        stats.calibration,
        stats.fit,
        service.session().fits_cached(),
    )
}

/// Captured before worker caches shared their values: sharing must
/// not move a key, a counter or a persisted byte.
const SESSION_AFTER_TICKS: &str = "\
calibration keys: 0x4ddbdc0e6185080b
fit keys: 0xc472e147f08de293 0xf3050994a728dbde 0xaaf766d17900da41 0x9e89b44c70476ba9 \
0x7ce19120ee9e8c62 0x4980af1ad93fafd3
calibration: CacheStats { hits: 191, misses: 1 }
fit: CacheStats { hits: 5, misses: 7 }
fits_cached: 6
calibrations.json: 0xda795f5521954bb5
fits.json: 0x132abbdec364dfd5
";

#[test]
fn merged_session_is_pinned_at_any_thread_count() {
    let _env = env_lock();
    std::env::remove_var(fault::ENV_VAR);
    let serial = session_after_ticks(1);
    let wide = session_after_ticks(8);
    assert_eq!(serial, SESSION_AFTER_TICKS, "merged session moved");
    assert_eq!(
        wide, SESSION_AFTER_TICKS,
        "merged session depends on WASLA_THREADS"
    );
}
