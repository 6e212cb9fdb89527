//! Daemon tick-cost benchmarks: what a no-drift tick and a drifted
//! tick's re-plan cost versus a full cold re-solve, plus the per-tick
//! windowed-ingestion overhead.
//!
//! The control loop's economics rest on drift detection being cheap:
//! a quiet tick runs one `EvalEngine` pass over the deployed layout
//! (`detect_drift`), while a drifted tick pays for a warm-started
//! re-plan (`readvise_incremental`: the rate-greedy, deployed and SEE
//! starts each solved and regularized, the best kept, then the
//! budgeted scheduler).
//! `ci/bench_diff.sh` gates on the no-drift tick staying ≥50× cheaper
//! than the full re-solve, and on the re-plan staying ≤0.75× of it
//! (`results/BENCH_daemon.json`).

use std::hint::black_box;
use wasla::core::dynamic::{detect_drift, readvise_incremental, DynamicOptions, MigrationBudget};
use wasla::core::recommend;
use wasla::pipeline::{assemble_problem, AdviseConfig, Scenario};
use wasla::simlib::SimTime;
use wasla::storage::IoKind;
use wasla::trace::oplog::{fit_oplog_streamed, OpLog, OpRecord, WindowPlan, DEFAULT_CHUNK};
use wasla_bench::harness::Harness;

/// A drifting synthetic stream, sized like one daemon observation
/// window's worth of history (24 s at 50 ops/s).
fn sample_log(sizes: &[u64]) -> OpLog {
    let n = sizes.len() as u64;
    let mut log = OpLog::new();
    for k in 0..1200u64 {
        let t = k as f64 * 0.02;
        let hot = ((t / 8.0) as u64) % n;
        let stream = if k % 4 == 0 { k % n } else { hot } as u32;
        let len = if k % 5 == 0 { 8192 } else { 131072 };
        let size = sizes[stream as usize];
        log.push(OpRecord {
            kind: if k % 5 == 0 {
                IoKind::Write
            } else {
                IoKind::Read
            },
            stream,
            offset: (k.wrapping_mul(131072)) % size.saturating_sub(len).max(1),
            len,
            issue: SimTime::from_secs(t),
            complete: SimTime::from_secs(t + 0.004),
        });
    }
    log
}

fn bench_daemon(c: &mut Harness) {
    let scenario = Scenario::homogeneous_disks(4, 0.01);
    let config = AdviseConfig::fast();
    let names = scenario.catalog.names();
    let sizes = scenario.catalog.sizes();
    let log = sample_log(&sizes);
    let fitted = fit_oplog_streamed(&log, &names, &sizes, &config.fit, DEFAULT_CHUNK)
        .expect("synthetic log fits");
    let mut session = wasla::AdvisorSession::new();
    let models = session
        .models_for(&scenario.targets, &config.grid, scenario.seed)
        .expect("targets calibrate");
    let problem = assemble_problem(&scenario, fitted, models.clone(), vec![]);
    let advisor = config.advisor.clone();
    let rec = recommend(&problem, &advisor).expect("baseline solve");
    let deployed = rec.final_layout().clone();
    // Score the deployed layout once to anchor the drift baseline.
    let baseline = detect_drift(&problem, &deployed, 1.0, 0.10).current_max_utilization;

    let plan = WindowPlan {
        pane_s: 2.0,
        panes_per_window: 2,
    };
    // A drifted tick: the layout deployed for the stream's first
    // window, re-planned against the whole stream's workloads.
    let windows = wasla::trace::oplog::windowed_workloads(&log, &names, &sizes, &config.fit, &plan)
        .expect("windows fit");
    let early = assemble_problem(&scenario, windows[0].workloads.clone(), models, vec![]);
    let drifted = recommend(&early, &advisor)
        .expect("first-window solve")
        .final_layout()
        .clone();
    // The daemon's re-plan settings: the drift detector is the
    // hysteresis, so the plan runs with no extra improvement gate.
    let dynamic = DynamicOptions {
        migrate_threshold: 0.0,
    };
    let budget = MigrationBudget {
        bytes: 64 << 20,
        carry_in: 0,
        alpha: 0.0,
    };

    let mut group = c.benchmark_group("daemon");
    group.bench_function("no_drift_tick", |b| {
        b.iter(|| black_box(detect_drift(&problem, &deployed, baseline, 0.10)))
    });
    group.bench_function("full_resolve", |b| {
        b.iter(|| black_box(recommend(&problem, &advisor).expect("solve")))
    });
    group.bench_function("replan", |b| {
        b.iter(|| {
            black_box(
                readvise_incremental(&problem, &drifted, &advisor, &dynamic, &budget)
                    .expect("re-plan"),
            )
        })
    });
    group.bench_function("windowed_ingest", |b| {
        b.iter(|| {
            black_box(
                wasla::trace::oplog::windowed_workloads(&log, &names, &sizes, &config.fit, &plan)
                    .expect("windows fit"),
            )
        })
    });
    group.finish();
}

wasla_bench::bench_main!("daemon", bench_daemon);
