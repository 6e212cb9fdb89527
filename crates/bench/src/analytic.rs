//! Analytic disk cost model (the `ablation-costmodel` baseline).
//!
//! The paper observes that accurate analytic models are "possible, but
//! difficult" (§5.2.2, citing Uysal et al. and Varki et al.) and opts
//! for tabulation. We implement a first-order analytic model anyway so
//! the benchmark suite can ablate the choice: it captures the same
//! qualitative effects (sequential discount, contention-driven
//! collapse, queue-depth scheduling benefit) from closed-form terms.

use wasla::model::CostModel;
use wasla::storage::{DiskParams, IoKind};

/// Closed-form disk cost model derived from [`DiskParams`].
#[derive(Clone, Debug)]
pub struct AnalyticDiskModel {
    params: DiskParams,
}

impl AnalyticDiskModel {
    /// Creates the model for a disk.
    pub fn new(params: DiskParams) -> Self {
        AnalyticDiskModel { params }
    }

    /// Probability a request needs mechanical positioning: it starts a
    /// new run (`1/run`), or its readahead context was evicted by
    /// competing streams before reuse. With `s` context slots and χ
    /// competing requests interleaved per own request, eviction sets in
    /// quadratically and saturates once χ reaches the slot count.
    fn miss_probability(&self, run_count: f64, contention: f64) -> f64 {
        let new_run = 1.0 / run_count.max(1.0);
        let slots = self.params.readahead_streams.max(1) as f64;
        let evict = (contention / slots).powi(2).min(1.0);
        new_run + (1.0 - new_run) * evict
    }
}

impl CostModel for AnalyticDiskModel {
    fn request_cost(&self, kind: IoKind, size: f64, run_count: f64, contention: f64) -> f64 {
        let p = &self.params;
        // Average seek ≈ one third of the stroke (uniform random).
        let avg_seek = p.seek_s(p.capacity / 3);
        let avg_rotation = p.rotation_s() / 2.0;
        let mut positioning = avg_seek + avg_rotation;
        // SSTF head scheduling trims positioning as the queue deepens.
        positioning /= 1.0 + 0.08 * contention;
        if kind == IoKind::Write {
            positioning *= p.write_positioning_factor;
        }
        let p_miss = self.miss_probability(run_count, contention);
        p.settle_s + p_miss * positioning + size / p.transfer_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasla::storage::GIB;

    fn model() -> AnalyticDiskModel {
        AnalyticDiskModel::new(DiskParams::scsi_15k(18 * GIB))
    }

    #[test]
    fn sequential_discount() {
        let m = model();
        let seq = m.request_cost(IoKind::Read, 8192.0, 64.0, 0.0);
        let rand = m.request_cost(IoKind::Read, 8192.0, 1.0, 0.0);
        assert!(rand > 5.0 * seq);
    }

    #[test]
    fn contention_collapses_sequential_advantage() {
        let m = model();
        let lo = m.request_cost(IoKind::Read, 8192.0, 64.0, 0.0);
        let hi = m.request_cost(IoKind::Read, 8192.0, 64.0, 8.0);
        assert!(hi > 3.0 * lo);
    }

    #[test]
    fn random_cost_falls_slowly_with_queue_depth() {
        // The Figure 8 "disk head scheduling is more effective with a
        // larger request queue" effect.
        let m = model();
        let shallow = m.request_cost(IoKind::Read, 8192.0, 1.0, 0.0);
        let deep = m.request_cost(IoKind::Read, 8192.0, 1.0, 8.0);
        assert!(deep < shallow);
        assert!(deep > 0.5 * shallow);
    }

    #[test]
    fn writes_cheaper_positioning() {
        let m = model();
        let r = m.request_cost(IoKind::Read, 8192.0, 1.0, 0.0);
        let w = m.request_cost(IoKind::Write, 8192.0, 1.0, 0.0);
        assert!(w < r);
    }

    #[test]
    fn miss_probability_monotone() {
        let m = model();
        assert!(m.miss_probability(64.0, 0.0) < m.miss_probability(64.0, 2.0));
        assert!(m.miss_probability(64.0, 2.0) < m.miss_probability(64.0, 8.0));
        assert!(m.miss_probability(1.0, 0.0) > 0.99);
        assert!(m.miss_probability(8.0, 16.0) <= 1.0 + 1e-12);
    }
}
