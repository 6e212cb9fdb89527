//! The layout model (paper §5.2.1, Figure 7).
//!
//! Transforms an object's workload description `Wᵢ` into the per-target
//! workload `Wᵢⱼ` implied by a candidate layout, for an LVM that
//! round-robin stripes objects with a fixed stripe size:
//!
//! ```text
//! Bᵢⱼᴿ = Bᵢᴿ                    Bᵢⱼᵂ = Bᵢᵂ
//! λᵢⱼᴿ = λᵢᴿ Lᵢⱼ                λᵢⱼᵂ = λᵢᵂ Lᵢⱼ
//!        ⎧ Qᵢ                 if Qᵢ·Bᵢ < StripeSize
//! Qᵢⱼ =  ⎨ Qᵢ·Lᵢⱼ             if Qᵢ·Bᵢ > StripeSize / Lᵢⱼ
//!        ⎩ StripeSize / Bᵢ    otherwise
//! Oᵢⱼ[k] = Oᵢ[k] if Lᵢⱼ > 0 and Lₖⱼ > 0, else 0
//! ```
//!
//! Intuition for `Qᵢⱼ`: a run shorter than one stripe stays intact on a
//! single target; a run much longer than the object's per-target extent
//! interleaves across targets and each target sees a share `Lᵢⱼ` of it;
//! in between, runs are clipped at stripe boundaries.

use wasla_model::{ColumnDemand, TargetCostModel};
use wasla_storage::{IoKind, TargetConfig};
use wasla_workload::WorkloadSpec;

/// The per-target workload `Wᵢⱼ` of one object under a layout.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PerTargetWorkload {
    /// Read request rate on this target (`λᵢⱼᴿ`).
    pub read_rate: f64,
    /// Write request rate on this target (`λᵢⱼᵂ`).
    pub write_rate: f64,
    /// Read request size (`Bᵢⱼᴿ = Bᵢᴿ`).
    pub read_size: f64,
    /// Write request size (`Bᵢⱼᵂ = Bᵢᵂ`).
    pub write_size: f64,
    /// Per-target run count (`Qᵢⱼ`).
    pub run_count: f64,
}

impl PerTargetWorkload {
    /// Total request rate on this target.
    pub fn total_rate(&self) -> f64 {
        self.read_rate + self.write_rate
    }
}

/// Applies the Figure 7 layout model for one (object, target) pair.
///
/// `fraction` is `Lᵢⱼ`; `stripe_size` is the LVM stripe size in bytes.
/// Returns a zero-rate workload when `fraction` is 0.
pub fn apply(spec: &WorkloadSpec, fraction: f64, stripe_size: f64) -> PerTargetWorkload {
    // Finite-difference probes may step slightly outside [0, 1];
    // clamp rather than reject.
    debug_assert!(fraction.is_finite());
    let f = fraction.clamp(0.0, 1.0);
    PerTargetWorkload {
        read_rate: spec.read_rate * f,
        write_rate: spec.write_rate * f,
        read_size: spec.read_size,
        write_size: spec.write_size,
        run_count: run_count(spec, f, stripe_size),
    }
}

/// The `Qᵢⱼ` transformation from Figure 7.
pub fn run_count(spec: &WorkloadSpec, fraction: f64, stripe_size: f64) -> f64 {
    if fraction <= 0.0 {
        return 1.0;
    }
    let q = spec.run_count;
    let b = spec.mean_size().max(1.0);
    let run_bytes = q * b;
    if run_bytes < stripe_size {
        q
    } else if run_bytes > stripe_size / fraction {
        (q * fraction).max(1.0)
    } else {
        (stripe_size / b).max(1.0)
    }
}

/// The smallest and largest [`run_count`] over every fraction
/// `Lᵢⱼ ∈ (0, 1]`: the run counts a priced cell can see. (A cell at
/// `Lᵢⱼ = 0` is gated to zero utilization before any cost model is
/// read, so its run count of 1 is never priced.)
///
/// Below the smallest fraction that takes the long-run branch the run
/// clips at the stripe; from it on, the branch gives `(Qᵢ·Lᵢⱼ).max(1)`,
/// non-decreasing in `Lᵢⱼ`. That boundary fraction is found by
/// bisection over the floating-point values in `(0, 1]`, so both ends
/// are the exact values `run_count` returns, not a real-number
/// approximation of them.
pub fn run_count_range(spec: &WorkloadSpec, stripe_size: f64) -> (f64, f64) {
    let q = spec.run_count;
    let b = spec.mean_size().max(1.0);
    let run_bytes = q * b;
    if run_bytes < stripe_size {
        return (q, q);
    }
    let clipped = (stripe_size / b).max(1.0);
    // `stripe_size / f` is non-increasing in f, so the long-run
    // fractions form an upward-closed set. Positive doubles order like
    // their bit patterns: bisect on those.
    let long = |f: f64| run_bytes > stripe_size / f;
    if !long(1.0) {
        return (clipped, clipped);
    }
    let (mut lo, mut hi) = (0u64, 1.0f64.to_bits());
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if long(f64::from_bits(mid)) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let first_long = run_count(spec, f64::from_bits(hi), stripe_size);
    (clipped.min(first_long), clipped.max(q.max(1.0)))
}

/// Adds to `demand` every member-table column that pricing `specs` on
/// `target` can read under any layout: each active object's read and
/// write request sizes at every run count [`run_count_range`] allows,
/// pushed through the target's RAID transform. Both directions are
/// priced for every active object (a zero rate multiplies a cost that
/// is still read); idle objects are gated before any model is read.
pub fn add_calibration_demand(
    demand: &mut ColumnDemand,
    target: &TargetConfig,
    specs: &[WorkloadSpec],
    stripe_size: f64,
) {
    for spec in specs.iter().filter(|s| s.total_rate() > 0.0) {
        let (lo, hi) = run_count_range(spec, stripe_size);
        TargetCostModel::add_demand(demand, target, IoKind::Read, spec.read_size, lo, hi);
        TargetCostModel::add_demand(demand, target, IoKind::Write, spec.write_size, lo, hi);
    }
}

/// The derivative `dQᵢⱼ/dLᵢⱼ` of the Figure 7 run-count transform —
/// the piecewise slope matching [`run_count`] branch for branch:
/// `Qᵢⱼ` depends on the fraction only in the long-run branch, and
/// there only while `Qᵢ·Lᵢⱼ` is above the `max(·, 1.0)` clamp. Branch
/// boundaries are kinks; the subgradient takes each branch's own
/// slope, with the clamp pinned open only for strict `Qᵢ·Lᵢⱼ > 1`.
pub fn run_count_deriv(spec: &WorkloadSpec, fraction: f64, stripe_size: f64) -> f64 {
    if fraction <= 0.0 {
        return 0.0;
    }
    let q = spec.run_count;
    let b = spec.mean_size().max(1.0);
    let run_bytes = q * b;
    if run_bytes < stripe_size {
        0.0
    } else if run_bytes > stripe_size / fraction {
        if q * fraction > 1.0 {
            q
        } else {
            0.0
        }
    } else {
        0.0
    }
}

/// The overlap gate `Oᵢⱼ[k]` from Figure 7: object `k`'s workload
/// interferes with `i`'s on target `j` only if both are present there.
pub fn overlap_on_target(o_ik: f64, l_ij: f64, l_kj: f64) -> f64 {
    if l_ij > 0.0 && l_kj > 0.0 {
        o_ik
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(rate: f64, size: f64, run: f64) -> WorkloadSpec {
        WorkloadSpec {
            read_size: size,
            write_size: size,
            read_rate: rate,
            write_rate: 0.0,
            run_count: run,
            overlaps: vec![],
        }
    }

    const STRIPE: f64 = 1024.0 * 1024.0;

    #[test]
    fn rates_scale_with_fraction() {
        let s = spec(100.0, 8192.0, 4.0);
        let w = apply(&s, 0.25, STRIPE);
        assert_eq!(w.read_rate, 25.0);
        assert_eq!(w.write_rate, 0.0);
        assert_eq!(w.read_size, 8192.0);
        assert_eq!(w.total_rate(), 25.0);
    }

    #[test]
    fn zero_fraction_zero_rate() {
        let s = spec(100.0, 8192.0, 4.0);
        let w = apply(&s, 0.0, STRIPE);
        assert_eq!(w.total_rate(), 0.0);
        assert_eq!(w.run_count, 1.0);
    }

    #[test]
    fn short_runs_survive_striping() {
        // Qᵢ·Bᵢ = 4 × 8 KiB = 32 KiB < 1 MiB stripe → run intact.
        let s = spec(10.0, 8192.0, 4.0);
        assert_eq!(run_count(&s, 0.25, STRIPE), 4.0);
    }

    #[test]
    fn long_runs_scale_with_fraction() {
        // Qᵢ·Bᵢ = 4096 × 8 KiB = 32 MiB > 1 MiB / 0.25 → Qᵢⱼ = Qᵢ·Lᵢⱼ.
        let s = spec(10.0, 8192.0, 4096.0);
        assert_eq!(run_count(&s, 0.25, STRIPE), 1024.0);
    }

    #[test]
    fn intermediate_runs_clip_at_stripe() {
        // Qᵢ·Bᵢ = 256 × 8 KiB = 2 MiB; stripe 1 MiB; fraction 1.0:
        // 2 MiB > 1 MiB and 2 MiB > 1 MiB/1.0 → Q·L = 256... choose
        // fraction so the middle branch applies: need
        // stripe ≤ Q·B ≤ stripe / L. With L = 0.25: bounds 1 MiB..4 MiB.
        let s = spec(10.0, 8192.0, 256.0);
        let q = run_count(&s, 0.25, STRIPE);
        // StripeSize / Bᵢ = 1 MiB / 8 KiB = 128 requests.
        assert_eq!(q, 128.0);
    }

    #[test]
    fn run_count_never_below_one() {
        let s = spec(10.0, 8192.0, 4096.0);
        assert!(run_count(&s, 1e-6, STRIPE) >= 1.0);
    }

    #[test]
    fn full_assignment_keeps_long_run_structure() {
        // With L=1 and a very long run, Qᵢⱼ = Qᵢ (single target holds
        // the whole object; runs uninterrupted).
        let s = spec(10.0, 8192.0, 100_000.0);
        assert_eq!(run_count(&s, 1.0, STRIPE), 100_000.0);
    }

    #[test]
    fn overlap_gating() {
        assert_eq!(overlap_on_target(0.8, 0.5, 0.5), 0.8);
        assert_eq!(overlap_on_target(0.8, 0.0, 0.5), 0.0);
        assert_eq!(overlap_on_target(0.8, 0.5, 0.0), 0.0);
    }

    #[test]
    fn mixed_read_write_mean_size_drives_runs() {
        // mean_size is rate-weighted; ensure run_count uses it.
        let s = WorkloadSpec {
            read_size: 131072.0,
            write_size: 8192.0,
            read_rate: 10.0,
            write_rate: 0.0,
            run_count: 16.0,
            overlaps: vec![],
        };
        // Q·B = 16 × 128 KiB = 2 MiB > StripeSize / 0.9 → Qᵢⱼ = Qᵢ·Lᵢⱼ.
        let q = run_count(&s, 0.9, STRIPE);
        assert!((q - 14.4).abs() < 1e-9, "q {q}");
    }
}
