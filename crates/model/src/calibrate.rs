//! Calibration harness: builds [`TableModel`]s by measurement.
//!
//! The paper constructs its cost models "by subjecting the storage
//! targets to calibration workloads with known request sizes, run
//! counts, and degrees of contention and measuring the request service
//! times, which are then tabulated" (§5.2.2). This module does exactly
//! that against our simulated devices:
//!
//! For each grid point `(size, run count, χ)` we run a *primary*
//! stream — sequential runs of the given length at the given request
//! size, jumping to a random location between runs — interleaved with
//! χ competing random requests per primary request (the competing
//! traffic from temporally-correlated workloads that the contention
//! factor models). Requests are serviced in SSTF order, as a real
//! drive's queue would, and the mean *service time* of primary
//! requests is tabulated.
//!
//! Grid points are measured concurrently on the [`par`] pool: each
//! point's stream of simulated requests is driven by its own `SimRng`
//! whose seed is a fixed function of the base seed and the point's
//! grid coordinates ([`point_seed`]), so the tabulated values are
//! bit-identical at any `WASLA_THREADS` setting — and identical to
//! what the serial loop produced.

use crate::grid::{Axis, Grid3};
use crate::table::TableModel;
use crate::target::ModelError;
use wasla_simlib::fault::{self, DeviceFault};
use wasla_simlib::hash::hash_json;
use wasla_simlib::{par, SimRng};
use wasla_storage::device::DeviceSpec;
use wasla_storage::request::DeviceIo;
use wasla_storage::sched::SchedulerKind;
use wasla_storage::IoKind;

/// The calibration grid and sampling parameters.
#[derive(Clone, Debug)]
pub struct CalibrationGrid {
    /// Request sizes in bytes.
    pub sizes: Vec<f64>,
    /// Run counts (requests per sequential run).
    pub runs: Vec<f64>,
    /// Contention factors χ.
    pub contentions: Vec<f64>,
    /// Primary requests measured per grid point.
    pub samples: usize,
    /// Primary requests discarded before measuring (cache/position
    /// warm-up).
    pub warmup: usize,
}

impl Default for CalibrationGrid {
    fn default() -> Self {
        CalibrationGrid {
            sizes: vec![
                4096.0, 8192.0, 16384.0, 32768.0, 65536.0, 131072.0, 262144.0,
            ],
            runs: vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0],
            contentions: vec![0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0],
            samples: 160,
            warmup: 24,
        }
    }
}

wasla_simlib::impl_json_struct!(CalibrationGrid {
    sizes,
    runs,
    contentions,
    samples,
    warmup
});

impl CalibrationGrid {
    /// A small grid for tests.
    pub fn coarse() -> Self {
        CalibrationGrid {
            sizes: vec![8192.0, 131072.0],
            runs: vec![1.0, 8.0, 64.0],
            contentions: vec![0.0, 2.0, 8.0],
            samples: 80,
            warmup: 10,
        }
    }
}

/// The smallest device capacity `grid` can calibrate: room for two of
/// its largest requests (a primary run must be able to start at a
/// random request-aligned offset) and for one competing request.
pub fn capacity_floor(grid: &CalibrationGrid) -> u64 {
    let largest = grid.sizes.iter().fold(0u64, |acc, &s| acc.max(s as u64));
    largest.saturating_mul(2).max(COMPETITOR_SIZE)
}

/// Rejects a device below [`capacity_floor`] with a typed error naming
/// `target`. Every calibration path checks this before measuring: a
/// smaller device has no valid request offsets.
pub fn check_capacity(
    spec: &DeviceSpec,
    grid: &CalibrationGrid,
    target: &str,
) -> Result<(), ModelError> {
    let floor = capacity_floor(grid);
    let capacity = spec.capacity();
    if capacity < floor {
        return Err(ModelError::BelowCalibrationFloor {
            target: target.to_string(),
            capacity,
            floor,
        });
    }
    Ok(())
}

/// The fault-plan query for calibrating `spec` under `seed`, if the
/// plan injects one. Public so the session layer can re-query it to
/// record a degradation note alongside the (already scaled) tables.
pub fn calibration_fault(spec: &DeviceSpec, seed: u64) -> Option<DeviceFault> {
    fault::plan()?.device_fault(fault::calibration_key(seed, hash_json(spec)))
}

/// Calibrates a device spec into a tabulated cost model. The device
/// must pass [`check_capacity`].
///
/// When the active fault plan degrades this calibration run (see
/// [`calibration_fault`]), every tabulated service time is scaled by
/// the fault's latency factor — the table honestly describes the
/// slower device the advisor must plan around. With no plan or no
/// fault the values are untouched, bit-for-bit.
pub fn calibrate_device(spec: &DeviceSpec, grid: &CalibrationGrid, seed: u64) -> TableModel {
    let name = match spec {
        DeviceSpec::Disk(_) => "disk",
        DeviceSpec::Ssd(_) => "ssd",
    };
    let mut reads = calibrate_kind(spec, grid, IoKind::Read, seed);
    let mut writes = calibrate_kind(spec, grid, IoKind::Write, seed ^ 0x5eed);
    if let Some(f) = calibration_fault(spec, seed) {
        reads.scale_values(f.latency_factor());
        writes.scale_values(f.latency_factor());
    }
    TableModel {
        device: name.to_string(),
        tier: spec.tier(),
        reads,
        writes,
    }
}

/// The fixed (base seed, grid coordinates) → RNG seed map.
///
/// Every grid point derives its generator from the base seed and its
/// own coordinates only — the RNG is *point-indexed*, never threaded
/// sequentially from one measurement into the next — which is what
/// makes the parallel sweep observationally equivalent to the serial
/// one. The formula is the seed repository's original derivation, so
/// calibration tables also stay bit-identical across this refactor.
fn point_seed(seed: u64, si: usize, ri: usize, ci: usize) -> u64 {
    seed ^ ((si as u64) << 40) ^ ((ri as u64) << 20) ^ (ci as u64 + 1)
}

fn calibrate_kind(spec: &DeviceSpec, grid: &CalibrationGrid, kind: IoKind, seed: u64) -> Grid3 {
    let mut points =
        Vec::with_capacity(grid.sizes.len() * grid.runs.len() * grid.contentions.len());
    for (si, &size) in grid.sizes.iter().enumerate() {
        for (ri, &run) in grid.runs.iter().enumerate() {
            for (ci, &chi) in grid.contentions.iter().enumerate() {
                points.push((size, run, chi, point_seed(seed, si, ri, ci)));
            }
        }
    }
    let values = par::par_map(&points, |&(size, run, chi, point_seed)| {
        measure_point(spec, size as u64, run, chi, kind, grid, point_seed)
    });
    Grid3::new(
        Axis::new(grid.sizes.clone()),
        Axis::new(grid.runs.clone()),
        Axis::new(grid.contentions.clone()),
        values,
    )
}

/// Competing-request size (small random probes, as interfering
/// database traffic typically is).
const COMPETITOR_SIZE: u64 = 8192;

/// Measures the mean primary-request service time at one grid point.
fn measure_point(
    spec: &DeviceSpec,
    size: u64,
    run: f64,
    chi: f64,
    kind: IoKind,
    grid: &CalibrationGrid,
    seed: u64,
) -> f64 {
    let mut device = spec.build();
    let mut rng = SimRng::new(seed);
    let capacity = device.capacity();
    let span = capacity.saturating_sub(size).max(1);
    let run_len = run.round().max(1.0) as u64;

    let mut run_left = 0u64;
    let mut next_offset = 0u64;
    let mut total = 0.0;
    let mut measured = 0usize;
    let mut pending: Vec<DeviceIo> = Vec::new();

    for cycle in 0..(grid.warmup + grid.samples) {
        // Primary request: continue the current run or jump.
        if run_left == 0 {
            next_offset = rng.below(span / size.max(1)) * size;
            run_left = run_len;
        }
        let primary = DeviceIo {
            kind,
            offset: next_offset.min(capacity - size),
            len: size,
            stream: 0,
        };
        run_left -= 1;
        next_offset = primary.offset + size;
        if next_offset + size > capacity {
            run_left = 0;
        }
        // Competing random requests for this cycle: χ per primary in
        // expectation (fractional χ realized stochastically).
        let k = chi.floor() as usize + usize::from(rng.chance(chi.fract()));
        pending.clear();
        pending.push(primary);
        for c in 0..k {
            let off = rng.below(capacity / COMPETITOR_SIZE) * COMPETITOR_SIZE;
            pending.push(DeviceIo {
                kind: IoKind::Read,
                offset: off,
                len: COMPETITOR_SIZE,
                stream: 1 + c as u32,
            });
        }
        // Service the whole cycle's pool in SSTF order, so exactly χ
        // competing requests interleave between consecutive primary
        // requests (the definition of the contention factor, Eq. 2).
        while !pending.is_empty() {
            let pick = SchedulerKind::Sstf.pick(&pending, device.head_position());
            let req = pending.swap_remove(pick);
            let st = device.service_time(&req, &mut rng);
            if req.stream == 0 && cycle >= grid.warmup {
                total += st.as_secs();
                measured += 1;
            }
        }
    }
    total / measured.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::CostModel;
    use wasla_storage::{DiskParams, SsdParams, GIB};

    fn disk_model() -> TableModel {
        calibrate_device(
            &DeviceSpec::Disk(DiskParams::scsi_15k(18 * GIB)),
            &CalibrationGrid::coarse(),
            7,
        )
    }

    #[test]
    fn sequential_cheaper_than_random_at_low_contention() {
        let m = disk_model();
        let seq = m.request_cost(IoKind::Read, 8192.0, 64.0, 0.0);
        let rand = m.request_cost(IoKind::Read, 8192.0, 1.0, 0.0);
        assert!(rand > 5.0 * seq, "rand {rand:.6} should dwarf seq {seq:.6}");
    }

    #[test]
    fn sequential_advantage_collapses_under_contention() {
        // The Figure 8 effect: the sequential advantage shrinks
        // dramatically as χ grows.
        let m = disk_model();
        let seq_lo = m.request_cost(IoKind::Read, 8192.0, 64.0, 0.0);
        let seq_hi = m.request_cost(IoKind::Read, 8192.0, 64.0, 8.0);
        let rand_hi = m.request_cost(IoKind::Read, 8192.0, 1.0, 8.0);
        assert!(seq_hi > 3.0 * seq_lo, "lo {seq_lo:.6} hi {seq_hi:.6}");
        // Under heavy contention sequential ≈ random.
        assert!(seq_hi > 0.5 * rand_hi);
    }

    #[test]
    fn bigger_requests_cost_more_sequentially() {
        let m = disk_model();
        let small = m.request_cost(IoKind::Read, 8192.0, 64.0, 0.0);
        let big = m.request_cost(IoKind::Read, 131072.0, 64.0, 0.0);
        assert!(big > small);
    }

    #[test]
    fn ssd_flat_across_run_count_and_contention() {
        let m = calibrate_device(
            &DeviceSpec::Ssd(SsdParams::sata_gen1(32 * GIB)),
            &CalibrationGrid::coarse(),
            7,
        );
        let a = m.request_cost(IoKind::Read, 8192.0, 1.0, 0.0);
        let b = m.request_cost(IoKind::Read, 8192.0, 64.0, 8.0);
        assert!((a - b).abs() / a < 0.05, "a {a} b {b}");
        // And far cheaper than a disk's random read.
        let disk = disk_model();
        let d = disk.request_cost(IoKind::Read, 8192.0, 1.0, 0.0);
        assert!(d > 10.0 * a);
    }

    #[test]
    fn capacity_floor_is_twice_the_largest_request() {
        let grid = CalibrationGrid::default();
        assert_eq!(capacity_floor(&grid), 524_288);
        let disk = |bytes| DeviceSpec::Disk(DiskParams::scsi_15k(bytes));
        assert_eq!(check_capacity(&disk(524_288), &grid, "t"), Ok(()));
        assert_eq!(
            check_capacity(&disk(524_287), &grid, "t"),
            Err(ModelError::BelowCalibrationFloor {
                target: "t".to_string(),
                capacity: 524_287,
                floor: 524_288,
            })
        );
        // At the floor a device calibrates without panicking.
        calibrate_device(
            &disk(capacity_floor(&CalibrationGrid::coarse())),
            &CalibrationGrid::coarse(),
            7,
        );
    }

    #[test]
    fn calibration_deterministic() {
        let a = disk_model();
        let b = disk_model();
        assert_eq!(a, b);
    }
}
