//! Results of a simulated workload run.

use wasla_simlib::impl_json_struct;
use wasla_simlib::SimTime;
use wasla_storage::TargetStats;
use wasla_trace::oplog::OpLog;

/// Per-object I/O accounting for one run.
#[derive(Clone, Debug, Default)]
pub struct ObjectIoStats {
    /// Logical read requests generated by queries.
    pub logical_reads: u64,
    /// Logical write requests.
    pub logical_writes: u64,
    /// Physical read requests submitted to storage (cache misses).
    pub physical_reads: u64,
    /// Physical write requests submitted to storage.
    pub physical_writes: u64,
    /// Physical bytes read.
    pub bytes_read: u64,
    /// Physical bytes written.
    pub bytes_written: u64,
}

impl_json_struct!(ObjectIoStats {
    logical_reads,
    logical_writes,
    physical_reads,
    physical_writes,
    bytes_read,
    bytes_written,
});

impl ObjectIoStats {
    /// Total physical requests.
    pub fn physical(&self) -> u64 {
        self.physical_reads + self.physical_writes
    }
}

/// The outcome of one simulated run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Wall-clock (simulated) completion time of the run.
    pub elapsed: SimTime,
    /// Per-target aggregated statistics.
    pub target_stats: Vec<TargetStats>,
    /// Per-target utilization over the run (busiest member device).
    pub target_utilization: Vec<f64>,
    /// Per-object I/O statistics.
    pub objects: Vec<ObjectIoStats>,
    /// OLAP queries completed.
    pub queries_completed: usize,
    /// OLTP transactions completed.
    pub oltp_txns: u64,
    /// OLTP throughput in transactions per minute, measured after the
    /// warm-up window (the paper's tpmC analog).
    pub tpm: f64,
    /// Simulation events processed (diagnostic).
    pub storage_requests: u64,
    /// Completion-time statistics of OLAP queries (seconds).
    pub query_latency: wasla_simlib::OnlineStats,
    /// Completion-time statistics of OLTP transactions (seconds).
    pub txn_latency: wasla_simlib::OnlineStats,
    /// OLTP transactions completed per template name (for weighted
    /// mixes; the paper's tpmC counts only New-Order).
    pub txn_by_template: Vec<(String, u64)>,
    /// The captured op-log, when [`RunConfig::capture_oplog`] was set.
    ///
    /// [`RunConfig::capture_oplog`]: crate::RunConfig::capture_oplog
    pub trace: Option<OpLog>,
}

impl_json_struct!(RunReport {
    elapsed,
    target_stats,
    target_utilization,
    objects,
    queries_completed,
    oltp_txns,
    tpm,
    storage_requests,
    query_latency,
    txn_latency,
    txn_by_template,
    trace,
});

impl RunReport {
    /// Highest per-target utilization — the quantity the advisor's
    /// min-max objective tries to minimize, measured rather than
    /// predicted.
    pub fn max_utilization(&self) -> f64 {
        self.target_utilization.iter().cloned().fold(0.0, f64::max)
    }

    /// Speedup of this run relative to a baseline run of the same
    /// workload (baseline elapsed / this elapsed).
    pub fn speedup_vs(&self, baseline: &RunReport) -> f64 {
        baseline.elapsed.as_secs() / self.elapsed.as_secs().max(1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(elapsed: f64, utils: Vec<f64>) -> RunReport {
        RunReport {
            elapsed: SimTime::from_secs(elapsed),
            target_stats: vec![],
            target_utilization: utils,
            objects: vec![],
            queries_completed: 0,
            oltp_txns: 0,
            tpm: 0.0,
            storage_requests: 0,
            query_latency: wasla_simlib::OnlineStats::new(),
            txn_latency: wasla_simlib::OnlineStats::new(),
            txn_by_template: vec![],
            trace: None,
        }
    }

    #[test]
    fn max_utilization_takes_the_busiest_target() {
        let r = report(10.0, vec![0.2, 0.9, 0.5]);
        assert_eq!(r.max_utilization(), 0.9);
        assert_eq!(report(1.0, vec![]).max_utilization(), 0.0);
    }

    #[test]
    fn speedup_is_baseline_over_this() {
        let fast = report(50.0, vec![]);
        let slow = report(100.0, vec![]);
        assert!((fast.speedup_vs(&slow) - 2.0).abs() < 1e-12);
        assert!((slow.speedup_vs(&fast) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn object_io_totals() {
        let o = ObjectIoStats {
            physical_reads: 3,
            physical_writes: 4,
            ..ObjectIoStats::default()
        };
        assert_eq!(o.physical(), 7);
    }
}
