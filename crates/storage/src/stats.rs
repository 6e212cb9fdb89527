//! Per-device and per-target runtime statistics.

use wasla_simlib::impl_json_struct;
use wasla_simlib::{OnlineStats, SimTime, TimeWeighted};

/// Statistics accumulated by one simulated device.
#[derive(Clone, Debug, Default)]
pub struct DeviceStats {
    /// Completed read requests.
    pub reads: u64,
    /// Completed write requests.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Time-weighted fraction of servers busy (utilization).
    pub busy: TimeWeighted,
}

impl DeviceStats {
    /// Total completed requests.
    pub fn requests(&self) -> u64 {
        self.reads + self.writes
    }

    /// Utilization over `[0, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.busy.mean_until(now)
    }

    /// Busy seconds over `[0, now]`.
    pub fn busy_seconds(&self, now: SimTime) -> f64 {
        self.busy.integral_until(now)
    }
}

impl_json_struct!(DeviceStats {
    reads,
    writes,
    bytes_read,
    bytes_written,
    busy,
});

/// Aggregated statistics for a target (over its member devices).
#[derive(Clone, Debug)]
pub struct TargetStats {
    /// Target name.
    pub name: String,
    /// Completed target-level requests.
    pub requests: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Target-level response time (submit to last part completion).
    pub response: OnlineStats,
    /// Utilization of the busiest member device.
    pub max_member_utilization: f64,
    /// Mean utilization across member devices.
    pub mean_member_utilization: f64,
}

impl_json_struct!(TargetStats {
    name,
    requests,
    bytes,
    response,
    max_member_utilization,
    mean_member_utilization,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_tracks_busy_signal() {
        let mut s = DeviceStats::default();
        s.busy.set(SimTime::ZERO, 1.0);
        s.busy.set(SimTime::from_secs(2.0), 0.0);
        assert!((s.utilization(SimTime::from_secs(4.0)) - 0.5).abs() < 1e-12);
        assert!((s.busy_seconds(SimTime::from_secs(4.0)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn request_counts() {
        let s = DeviceStats {
            reads: 3,
            writes: 4,
            ..DeviceStats::default()
        };
        assert_eq!(s.requests(), 7);
    }
}
