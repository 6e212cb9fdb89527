//! Solve determinism: `solve_nlp` and `solve_multistart` outcomes, and
//! those of the experiment crate's simulated-annealing baseline
//! (`wasla_bench::anneal`), are pinned by a committed golden fixture,
//! byte-identical at any `WASLA_THREADS` setting, and their
//! utilizations equal the Eq. 1 `UtilizationEstimator`'s bit for bit
//! (DESIGN.md §10). The fixture
//! was captured while a from-scratch solve path still ran beside the
//! incremental engine and matched it byte for byte. Work counters
//! (`NlpOutcome::stats`) measure the machinery, not the result, so
//! they are excluded.
//!
//! The whole check lives in ONE test function: it mutates the
//! `WASLA_THREADS` environment variable, which is only safe while no
//! other test in the same binary runs concurrently. Regenerate the
//! fixture (only for an intentional change to solve trajectories) with
//! `WASLA_REGEN_FIXTURES=1 cargo test -p wasla-bench --test eval_determinism`.

use std::path::PathBuf;
use std::sync::Arc;
use wasla::core::{
    initial_layout, solve_multistart, solve_nlp, Layout, LayoutProblem, NlpOutcome, SolverOptions,
    UtilizationEstimator,
};
use wasla::model::CostModel;
use wasla::storage::IoKind;
use wasla::workload::{ObjectKind, WorkloadSet, WorkloadSpec};
use wasla_bench::anneal::{anneal_layout, AnnealOptions};

/// Contention-sensitive analytic model: cheap, deterministic, and
/// enough structure that the solver meaningfully moves mass around.
struct ContentionModel;
impl CostModel for ContentionModel {
    fn request_cost(&self, _: IoKind, _: f64, run: f64, chi: f64) -> f64 {
        0.004 / run.max(1.0) + 0.003 * chi + 0.004
    }
}

fn problem(n: usize, m: usize) -> LayoutProblem {
    let spec = |i: usize| WorkloadSpec {
        read_size: 65536.0,
        write_size: 8192.0,
        read_rate: 20.0 + 5.0 * (i as f64),
        write_rate: 2.0,
        run_count: if i % 2 == 0 { 32.0 } else { 4.0 },
        overlaps: (0..n).map(|k| if k == i { 0.0 } else { 0.6 }).collect(),
    };
    LayoutProblem {
        workloads: WorkloadSet {
            names: (0..n).map(|i| format!("o{i}")).collect(),
            sizes: vec![1 << 28; n],
            specs: (0..n).map(spec).collect(),
        },
        kinds: vec![ObjectKind::Table; n],
        capacities: vec![2 << 30; m],
        target_names: (0..m).map(|j| format!("t{j}")).collect(),
        models: (0..m).map(|_| Arc::new(ContentionModel) as _).collect(),
        stripe_size: 1024.0 * 1024.0,
        constraints: vec![],
    }
}

/// The deterministic part of an outcome, as bytes (stats excluded).
/// Also checks the outcome's utilizations against the Eq. 1 reference
/// evaluator, bitwise.
fn outcome_bytes(p: &LayoutProblem, out: &NlpOutcome) -> String {
    let reference = UtilizationEstimator::new(p).utilizations(&out.layout);
    assert_eq!(
        out.utilizations
            .iter()
            .map(|u| u.to_bits())
            .collect::<Vec<_>>(),
        reference.iter().map(|u| u.to_bits()).collect::<Vec<_>>(),
        "solver-reported utilizations differ from UtilizationEstimator's"
    );
    format!(
        "layout={:?}\nutilizations={:?}\nmax={:?}\nscore={:?}\nconverged={:?}\n",
        out.layout, out.utilizations, out.max_utilization, out.score, out.converged
    )
}

/// `solve_multistart` reuses pooled `EvalEngine`s across starts; a
/// pooled engine must be indistinguishable from a freshly built one.
/// Compare against the pre-pooling semantics: one `solve_nlp` (fresh
/// engine) per start, winner picked by score in index order.
fn multistart_pool_matches_fresh_engines() {
    let p = problem(6, 3);
    let init = initial_layout(&p).expect("ample capacity");
    let see = Layout::see(6, 3);
    let blend = |lambda: f64| {
        Layout::from_rows(
            (0..6)
                .map(|i| {
                    (0..3)
                        .map(|j| lambda * init.get(i, j) + (1.0 - lambda) * see.get(i, j))
                        .collect()
                })
                .collect(),
        )
    };
    // Four starts so a single worker reuses one engine repeatedly.
    let starts = vec![init.clone(), see.clone(), blend(0.25), blend(0.75)];
    let opts = SolverOptions::default();
    let pooled = solve_multistart(&p, &starts, &opts).expect("starts supplied");
    let fresh = starts
        .iter()
        .map(|s| solve_nlp(&p, s, &opts))
        .reduce(|best, out| if out.score < best.score { out } else { best })
        .expect("at least one start");
    assert_eq!(
        outcome_bytes(&p, &pooled),
        outcome_bytes(&p, &fresh),
        "pooled multistart engines changed solve outcomes"
    );
}

/// Single-start and multistart outcomes at 6×3 of the NLP solve and
/// of the annealing baseline.
fn solve_report() -> String {
    let p = problem(6, 3);
    let init = initial_layout(&p).expect("ample capacity");
    let starts = [init.clone(), Layout::see(6, 3)];
    let opts = SolverOptions::default();
    let anneal = AnnealOptions::for_layouts();
    let runs = [
        ("pg", solve_nlp(&p, &init, &opts)),
        (
            "pg/multi",
            solve_multistart(&p, &starts, &opts).expect("starts supplied"),
        ),
        ("anneal", anneal_layout(&p, &init, &anneal)),
        (
            "anneal/multi",
            starts
                .iter()
                .map(|s| anneal_layout(&p, s, &anneal))
                .reduce(|best, out| if out.score < best.score { out } else { best })
                .expect("starts supplied"),
        ),
    ];
    runs.iter()
        .map(|(tag, out)| format!("[{tag}] {}", outcome_bytes(&p, out)))
        .collect()
}

fn at_threads(t: usize) -> String {
    std::env::set_var("WASLA_THREADS", t.to_string());
    let report = solve_report();
    multistart_pool_matches_fresh_engines();
    std::env::remove_var("WASLA_THREADS");
    report
}

#[test]
fn solve_report_matches_golden_at_any_thread_count() {
    let report_1 = at_threads(1);
    let report_8 = at_threads(8);
    assert_eq!(report_1, report_8, "solve outcomes depend on WASLA_THREADS");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/eval_determinism.golden");
    if std::env::var("WASLA_REGEN_FIXTURES").is_ok() {
        std::fs::write(&path, &report_1).expect("write fixture");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("read golden fixture");
    assert_eq!(
        report_1, golden,
        "solve outcomes drifted from the golden fixture; if intentional, \
         regenerate with WASLA_REGEN_FIXTURES=1"
    );
}
