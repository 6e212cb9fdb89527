//! Storage-configuration recommendation (paper §8 future work).
//!
//! The paper's conclusion proposes extending the advisor to take
//! *unconfigured* storage resources and recommend both how to group
//! them into targets (e.g. RAID-0 groups) and how to lay objects out —
//! a step toward HP's Minerva and Disk Array Designer. This module
//! implements that sweep for the `config-sweep` experiment and the
//! `capacity_planning` example: it enumerates the ways a pool of identical disks
//! can be partitioned into RAID-0 groups (plus optional extra devices
//! such as an SSD as standalone targets), calibrates cost models for
//! each candidate configuration, runs the layout advisor, and ranks
//! configurations by predicted max utilization.

use std::sync::Arc;
use wasla::core::{recommend, AdminConstraint, AdvisorOptions, LayoutProblem, Recommendation};
use wasla::model::{CalibrationGrid, CostModel, TargetCostModel};
use wasla::simlib::par;
use wasla::storage::{DeviceSpec, TargetConfig};
use wasla::workload::{ObjectKind, WorkloadSet};

/// A pool of unconfigured storage resources.
#[derive(Clone, Debug)]
pub struct ResourcePool {
    /// Identical disks that may be grouped into RAID-0 targets.
    pub disks: Vec<DeviceSpec>,
    /// Devices that always become standalone targets (e.g. an SSD).
    pub standalone: Vec<DeviceSpec>,
    /// Stripe unit for RAID-0 groups.
    pub stripe_unit: u64,
}

/// One evaluated configuration.
pub struct ConfigOutcome {
    /// The target grouping ("3-1", "2-2", ...).
    pub label: String,
    /// The concrete target configurations.
    pub targets: Vec<TargetConfig>,
    /// The advisor's recommendation for this configuration.
    pub recommendation: Recommendation,
    /// Predicted max utilization of the final layout.
    pub predicted_max_utilization: f64,
}

/// Integer partitions of `n` in decreasing part order (e.g. 4 →
/// `[4]`, `[3,1]`, `[2,2]`, `[2,1,1]`, `[1,1,1,1]`).
pub fn partitions(n: usize) -> Vec<Vec<usize>> {
    fn go(n: usize, max: usize, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if n == 0 {
            out.push(prefix.clone());
            return;
        }
        for part in (1..=n.min(max)).rev() {
            prefix.push(part);
            go(n - part, part, prefix, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    go(n, n, &mut Vec::new(), &mut out);
    out
}

/// Builds the target list for one disk partition.
pub fn targets_for_partition(pool: &ResourcePool, partition: &[usize]) -> Vec<TargetConfig> {
    assert_eq!(partition.iter().sum::<usize>(), pool.disks.len());
    let mut targets = Vec::new();
    let mut next = 0usize;
    for (g, &width) in partition.iter().enumerate() {
        let members: Vec<DeviceSpec> = pool.disks[next..next + width].to_vec();
        next += width;
        if width == 1 {
            targets.push(TargetConfig::single(
                format!("disk{g}"),
                members.into_iter().next().expect("one member"),
            ));
        } else {
            targets.push(TargetConfig::raid0(
                format!("raid{width}x-{g}"),
                members,
                pool.stripe_unit,
            ));
        }
    }
    for (s, dev) in pool.standalone.iter().enumerate() {
        targets.push(TargetConfig::single(format!("extra{s}"), dev.clone()));
    }
    targets
}

/// Evaluates every configuration of the pool for the given workloads
/// and returns outcomes sorted best-first by predicted max utilization.
///
/// `kinds` parallels the workload set. Constraints are per-object and
/// reapplied to every configuration (they must reference targets by
/// index in the *configured* target list, so only object-independent
/// constraints make sense here; pass none for a pure sweep).
///
/// Candidate configurations are independent (each calibrates and
/// advises its own targets from the same base seed), so the sweep runs
/// them concurrently on the [`par`] pool; the final ranking sorts the
/// partition-ordered outcomes with a stable sort, keeping the result
/// deterministic at any thread count.
#[allow(clippy::too_many_arguments)]
pub fn configure(
    workloads: &WorkloadSet,
    kinds: &[ObjectKind],
    pool: &ResourcePool,
    grid: &CalibrationGrid,
    stripe_size: f64,
    advisor_options: &AdvisorOptions,
    constraints: Vec<AdminConstraint>,
    seed: u64,
) -> Vec<ConfigOutcome> {
    let candidates = partitions(pool.disks.len());
    let mut outcomes: Vec<ConfigOutcome> = par::par_map(&candidates, |partition| {
        let targets = targets_for_partition(pool, partition);
        let label = partition
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join("-");
        let models = TargetCostModel::for_targets(&targets, grid, seed).ok()?;
        let problem = LayoutProblem {
            workloads: workloads.clone(),
            kinds: kinds.to_vec(),
            capacities: targets.iter().map(|t| t.capacity()).collect(),
            target_names: targets.iter().map(|t| t.name.clone()).collect(),
            models: models
                .into_iter()
                .map(|m| Arc::new(m) as Arc<dyn CostModel>)
                .collect(),
            stripe_size,
            constraints: constraints.clone(),
        };
        if problem.validate().is_err() {
            return None; // configuration can't hold the data
        }
        let recommendation = recommend(&problem, advisor_options).ok()?;
        let predicted_max_utilization = recommendation
            .stages
            .last()
            .map(|s| s.max_utilization)
            .unwrap_or(f64::INFINITY);
        Some(ConfigOutcome {
            label,
            targets,
            recommendation,
            predicted_max_utilization,
        })
    })
    .into_iter()
    .flatten()
    .collect();
    outcomes.sort_by(|a, b| {
        a.predicted_max_utilization
            .partial_cmp(&b.predicted_max_utilization)
            .expect("finite predictions")
    });
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasla::storage::{DiskParams, GIB};
    use wasla::workload::WorkloadSpec;

    #[test]
    fn partitions_of_four() {
        let p = partitions(4);
        assert_eq!(
            p,
            vec![
                vec![4],
                vec![3, 1],
                vec![2, 2],
                vec![2, 1, 1],
                vec![1, 1, 1, 1]
            ]
        );
        assert_eq!(partitions(1), vec![vec![1]]);
        assert_eq!(partitions(3).len(), 3);
    }

    fn pool(disks: usize) -> ResourcePool {
        ResourcePool {
            disks: vec![DeviceSpec::Disk(DiskParams::scsi_15k(4 * GIB)); disks],
            standalone: vec![],
            stripe_unit: 256 * 1024,
        }
    }

    #[test]
    fn targets_for_partition_shapes() {
        let p = pool(4);
        let t = targets_for_partition(&p, &[3, 1]);
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].width(), 3);
        assert_eq!(t[1].width(), 1);
        assert_eq!(t[0].capacity(), 12 * GIB);
    }

    #[test]
    fn configure_ranks_configurations() {
        // Two hot overlapping sequential objects: configurations with
        // at least two targets should beat the single 2-disk RAID.
        let n = 2;
        let spec = |other: usize| {
            let mut o = vec![0.0; n];
            o[other] = 1.0;
            WorkloadSpec {
                read_size: 131072.0,
                write_size: 8192.0,
                read_rate: 40.0,
                write_rate: 0.0,
                run_count: 64.0,
                overlaps: o,
            }
        };
        let workloads = WorkloadSet {
            names: vec!["A".into(), "B".into()],
            sizes: vec![GIB, GIB],
            specs: vec![spec(1), spec(0)],
        };
        let outcomes = configure(
            &workloads,
            &[ObjectKind::Table; 2],
            &pool(2),
            &CalibrationGrid::coarse(),
            1024.0 * 1024.0,
            &AdvisorOptions {
                regularize: true,
                ..AdvisorOptions::default()
            },
            vec![],
            7,
        );
        assert_eq!(outcomes.len(), 2); // [2] and [1,1]
                                       // Best-first ordering.
        assert!(outcomes[0].predicted_max_utilization <= outcomes[1].predicted_max_utilization);
        // Separating the interfering scans should win.
        assert_eq!(outcomes[0].label, "1-1");
    }
}
