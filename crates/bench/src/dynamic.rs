//! One-shot re-advising for the dynamic-growth experiment (paper §8):
//! re-optimize with the full cold multistart plus the deployed layout
//! as an extra start, and migrate wholesale only when the win clears a
//! threshold — reporting the new layout's predicted utilization even
//! when it declines to migrate. The advisor itself re-plans through
//! `wasla::core::dynamic::readvise_incremental`.

use wasla::core::dynamic::{migration_bytes, DynamicOptions};
use wasla::core::{
    recommend, AdvisorError, AdvisorOptions, Layout, LayoutProblem, UtilizationEstimator,
};
use wasla::simlib::impl_json_struct;

/// Outcome of one re-advising round.
#[derive(Clone, Debug, PartialEq)]
pub struct ReadviseOutcome {
    /// The layout to deploy going forward.
    pub layout: Layout,
    /// True if the advisor recommends migrating to a new layout;
    /// false if the deployed layout should be kept.
    pub migrate: bool,
    /// Bytes that the migration moves between targets.
    pub migration_bytes: u64,
    /// Bytes a migration *would* have moved when the advisor decided
    /// against it (`migrate == false`): the churn avoided. Zero when
    /// migrating.
    pub deferred_migration_bytes: u64,
    /// Predicted max utilization of the deployed layout (at the new
    /// sizes/workloads).
    pub current_max_utilization: f64,
    /// Predicted max utilization after migrating.
    pub new_max_utilization: f64,
}

impl_json_struct!(ReadviseOutcome {
    layout,
    migrate,
    migration_bytes,
    deferred_migration_bytes,
    current_max_utilization,
    new_max_utilization,
});

/// Re-advises a (possibly grown/drifted) problem given the currently
/// deployed layout.
///
/// The deployed layout is validated against the *new* sizes first; if
/// it no longer fits (an object outgrew its targets), migration is
/// forced regardless of the threshold. When the advisor decides
/// against migrating, the bytes the migration would have moved are
/// reported in `deferred_migration_bytes` instead of being discarded.
pub fn readvise(
    problem: &LayoutProblem,
    deployed: &Layout,
    advisor_options: &AdvisorOptions,
    options: &DynamicOptions,
) -> Result<ReadviseOutcome, AdvisorError> {
    let est = UtilizationEstimator::new(problem);
    let still_fits = deployed.is_valid(&problem.workloads.sizes, &problem.capacities);
    let current_max = est.max_utilization(deployed);

    // Warm-start the solver from the deployed layout alongside the
    // usual rate-greedy start.
    let mut opts = advisor_options.clone();
    opts.extra_starts.push(deployed.clone());
    let rec = recommend(problem, &opts)?;
    let new_layout = rec.final_layout().clone();
    let new_max = est.max_utilization(&new_layout);

    let improvement = (current_max - new_max) / current_max.max(1e-12);
    let migrate = !still_fits || improvement >= options.migrate_threshold;
    let bytes = migration_bytes(deployed, &new_layout, &problem.workloads.sizes);
    Ok(ReadviseOutcome {
        layout: if migrate {
            new_layout
        } else {
            deployed.clone()
        },
        migrate,
        migration_bytes: if migrate { bytes } else { 0 },
        deferred_migration_bytes: if migrate { 0 } else { bytes },
        current_max_utilization: current_max,
        new_max_utilization: new_max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wasla::core::dynamic::problem_without;
    use wasla::model::CostModel;
    use wasla::simlib::json::{to_string_pretty, FromJson, Json};
    use wasla::storage::IoKind;
    use wasla::workload::{ObjectKind, WorkloadSet, WorkloadSpec};

    struct ContentionModel;
    impl CostModel for ContentionModel {
        fn request_cost(&self, _: IoKind, _: f64, run: f64, chi: f64) -> f64 {
            0.004 / run.max(1.0) + 0.003 * chi + 0.004
        }
    }

    fn problem(sizes: Vec<u64>, rates: Vec<f64>) -> LayoutProblem {
        let n = sizes.len();
        LayoutProblem {
            workloads: WorkloadSet {
                names: (0..n).map(|i| format!("o{i}")).collect(),
                sizes,
                specs: rates
                    .into_iter()
                    .map(|r| WorkloadSpec {
                        read_size: 65536.0,
                        write_size: 8192.0,
                        read_rate: r,
                        write_rate: 0.0,
                        run_count: 16.0,
                        overlaps: vec![0.8; n],
                    })
                    .collect(),
            },
            kinds: vec![ObjectKind::Table; n],
            capacities: vec![1 << 30, 1 << 30],
            target_names: vec!["t0".into(), "t1".into()],
            models: vec![Arc::new(ContentionModel), Arc::new(ContentionModel)],
            stripe_size: 1024.0 * 1024.0,
            constraints: vec![],
        }
    }

    fn regularized() -> AdvisorOptions {
        AdvisorOptions {
            regularize: true,
            ..AdvisorOptions::default()
        }
    }

    #[test]
    fn keeps_good_deployed_layout() {
        let p = problem(vec![1 << 20, 1 << 20], vec![50.0, 50.0]);
        // Deploy the isolated layout, which is already near-optimal for
        // two overlapping objects.
        let deployed = Layout::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]);
        let out = readvise(&p, &deployed, &regularized(), &DynamicOptions::default()).unwrap();
        assert!(!out.migrate, "should keep the deployed layout");
        assert_eq!(out.layout, deployed);
        assert_eq!(out.migration_bytes, 0);
    }

    #[test]
    fn migrates_away_from_bad_layout() {
        let p = problem(vec![1 << 20, 1 << 20], vec![80.0, 80.0]);
        // Deployed: both hot, overlapping objects piled on one target.
        let deployed = Layout::from_rows(vec![vec![1.0, 0.0], vec![1.0, 0.0]]);
        let out = readvise(&p, &deployed, &regularized(), &DynamicOptions::default()).unwrap();
        assert!(out.migrate);
        assert!(out.new_max_utilization < out.current_max_utilization);
        assert!(out.migration_bytes > 0);
        assert_eq!(out.deferred_migration_bytes, 0);
    }

    #[test]
    fn declined_migration_reports_deferred_bytes() {
        let p = problem(vec![1 << 20, 1 << 20], vec![80.0, 80.0]);
        let deployed = Layout::from_rows(vec![vec![1.0, 0.0], vec![1.0, 0.0]]);
        let out = readvise(
            &p,
            &deployed,
            &regularized(),
            &DynamicOptions {
                migrate_threshold: 10.0, // impossible: migration declined
            },
        )
        .unwrap();
        assert!(!out.migrate);
        assert_eq!(out.migration_bytes, 0);
        assert!(
            out.deferred_migration_bytes > 0,
            "the would-be migration cost must be reported, not discarded"
        );
    }

    #[test]
    fn readvise_around_failures_evacuates_failed_target() {
        let p = problem(vec![1 << 20, 1 << 20], vec![50.0, 50.0]);
        // Everything deployed on target 0, which then fails.
        let deployed = Layout::from_rows(vec![vec![1.0, 0.0], vec![1.0, 0.0]]);
        let out = readvise(
            &problem_without(&p, &[0]),
            &deployed,
            &regularized(),
            &DynamicOptions {
                migrate_threshold: 10.0, // impossible threshold: failure must still force it
            },
        )
        .unwrap();
        assert!(out.migrate, "a failed target must force migration");
        for i in 0..2 {
            assert!(
                out.layout.get(i, 0) < 1e-3,
                "object {i} still has mass {} on the failed target",
                out.layout.get(i, 0)
            );
        }
        assert!(out.migration_bytes > 0);
    }

    #[test]
    fn outgrown_layout_forces_migration() {
        // Both objects grew to 0.7 GiB; together they no longer fit the
        // 1 GiB target they were deployed on (though each still fits a
        // target by itself).
        let p = problem(vec![700 << 20, 700 << 20], vec![10.0, 10.0]);
        let deployed = Layout::from_rows(vec![vec![1.0, 0.0], vec![1.0, 0.0]]);
        let out = readvise(
            &p,
            &deployed,
            &regularized(),
            &DynamicOptions {
                migrate_threshold: 10.0, // impossible threshold
            },
        )
        .unwrap();
        assert!(out.migrate, "capacity violation must force migration");
        assert!(out.layout.is_valid(&p.workloads.sizes, &p.capacities));
    }

    /// Pins the `ReadviseOutcome` JSON schema with a hand-built value
    /// and a committed golden file; regenerate with
    /// `WASLA_REGEN_FIXTURES=1` after an intentional schema change.
    #[test]
    fn readvise_outcome_matches_golden_fixture() {
        let value = ReadviseOutcome {
            layout: Layout::from_rows(vec![vec![0.5, 0.5], vec![1.0, 0.0]]),
            migrate: true,
            migration_bytes: 1 << 30,
            deferred_migration_bytes: 4096,
            current_max_utilization: 0.75,
            new_max_utilization: 0.5,
        };
        let rendered = to_string_pretty(&value);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures/readvise_outcome.golden");
        if std::env::var("WASLA_REGEN_FIXTURES").is_ok() {
            std::fs::write(&path, &rendered).expect("write fixture");
            return;
        }
        let golden = std::fs::read_to_string(&path).expect("read golden fixture");
        assert_eq!(
            rendered, golden,
            "ReadviseOutcome drifted from its golden fixture; if intentional, \
             regenerate with WASLA_REGEN_FIXTURES=1"
        );
        let parsed =
            ReadviseOutcome::from_json(&Json::parse(&golden).expect("parse fixture")).unwrap();
        assert_eq!(
            parsed, value,
            "ReadviseOutcome must round-trip through JSON"
        );
    }
}
