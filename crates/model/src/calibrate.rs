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
//!
//! A calibration need not cover the whole grid. [`calibrate_columns`]
//! measures only the (size, run) columns a [`ColumnDemand`] names,
//! each across the whole χ axis, and can extend a partial table later;
//! [`calibrate_device`] is its all-columns demand. Because every cell
//! is point-seeded, a cell measured on demand is bit-identical to the
//! same cell of a full sweep.

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

/// Which (size, run) columns of a calibration grid to measure, per
/// request direction. A column always spans the whole contention axis:
/// the solver moves χ freely, while each object's request sizes and
/// run-count range are fixed once its workload is fitted.
#[derive(Clone, Debug)]
pub struct ColumnDemand {
    sizes: Axis,
    runs: Axis,
    /// Demanded flags for reads and writes, each row-major
    /// `[size][run]`.
    columns: [Vec<bool>; 2],
}

impl ColumnDemand {
    /// No column of `grid`.
    pub fn none(grid: &CalibrationGrid) -> Self {
        let cells = grid.sizes.len() * grid.runs.len();
        ColumnDemand {
            sizes: Axis::new(grid.sizes.clone()),
            runs: Axis::new(grid.runs.clone()),
            columns: [vec![false; cells], vec![false; cells]],
        }
    }

    /// Every column of `grid`, in both directions: a full calibration.
    pub fn all(grid: &CalibrationGrid) -> Self {
        let mut demand = ColumnDemand::none(grid);
        for columns in &mut demand.columns {
            columns.fill(true);
        }
        demand
    }

    /// Adds the columns an interpolated `kind` query reads at request
    /// size `size` and any run count in `[run_lo, run_hi]`. Each axis
    /// is bracketed by [`Axis::locate`], as [`Grid3::interpolate`]
    /// brackets it, and a bracket's upper neighbour is read even at
    /// weight 0. Brackets are monotone in the query, so the two ends
    /// of the run range bound every bracket in between.
    pub fn add_query(&mut self, kind: IoKind, size: f64, run_lo: f64, run_hi: f64) {
        let upper = |axis: &Axis, i: usize| (i + 1).min(axis.len() - 1);
        let (si, _) = self.sizes.locate(size);
        let (lo, _) = self.runs.locate(run_lo);
        let (hi, _) = self.runs.locate(run_hi);
        let (s_hi, r_hi) = (upper(&self.sizes, si), upper(&self.runs, hi));
        let nr = self.runs.len();
        let columns = &mut self.columns[kind_index(kind)];
        for s in si..=s_hi {
            columns[s * nr + lo..=s * nr + r_hi].fill(true);
        }
    }

    /// Whether the (size `si`, run `ri`) column of `kind` is demanded.
    pub fn contains(&self, kind: IoKind, si: usize, ri: usize) -> bool {
        self.columns[kind_index(kind)][si * self.runs.len() + ri]
    }
}

fn kind_index(kind: IoKind) -> usize {
    match kind {
        IoKind::Read => 0,
        IoKind::Write => 1,
    }
}

/// Calibrates a device spec into a fully tabulated cost model: the
/// all-columns demand of [`calibrate_columns`]. The device must pass
/// [`check_capacity`].
pub fn calibrate_device(spec: &DeviceSpec, grid: &CalibrationGrid, seed: u64) -> TableModel {
    calibrate_columns(spec, grid, seed, &ColumnDemand::all(grid), None)
}

/// The calibration routine: `base` (or, when `None`, a table with no
/// column measured) plus every column `demand` names that it has not
/// measured yet, each across the whole contention axis. Cells outside
/// the demand and outside `base` stay NaN. The device must pass
/// [`check_capacity`].
///
/// Every cell draws from its own point-indexed RNG ([`point_seed`]),
/// and when the active fault plan degrades this calibration run (see
/// [`calibration_fault`]) each new cell is scaled by the fault's
/// latency factor — the table honestly describes the slower device
/// the advisor must plan around. So every measured value is
/// bit-identical to the same cell of a full sweep, whatever the demand
/// and whatever `base` already held.
pub fn calibrate_columns(
    spec: &DeviceSpec,
    grid: &CalibrationGrid,
    seed: u64,
    demand: &ColumnDemand,
    base: Option<&TableModel>,
) -> TableModel {
    let mut table = match base {
        Some(table) => table.clone(),
        None => {
            let axes = || {
                Grid3::unmeasured(
                    Axis::new(grid.sizes.clone()),
                    Axis::new(grid.runs.clone()),
                    Axis::new(grid.contentions.clone()),
                )
            };
            TableModel {
                device: match spec {
                    DeviceSpec::Disk(_) => "disk",
                    DeviceSpec::Ssd(_) => "ssd",
                }
                .to_string(),
                tier: spec.tier(),
                reads: axes(),
                writes: axes(),
            }
        }
    };
    let mut points = Vec::new();
    for (kind, kind_seed) in [(IoKind::Read, seed), (IoKind::Write, seed ^ 0x5eed)] {
        let measured = table.grid(kind);
        for si in 0..grid.sizes.len() {
            for ri in 0..grid.runs.len() {
                if !demand.contains(kind, si, ri) || measured.column_measured(si, ri) {
                    continue;
                }
                for ci in 0..grid.contentions.len() {
                    points.push((kind, si, ri, ci, point_seed(kind_seed, si, ri, ci)));
                }
            }
        }
    }
    let values = par::par_map(&points, |&(kind, si, ri, ci, point_seed)| {
        let (size, run, chi) = (grid.sizes[si], grid.runs[ri], grid.contentions[ci]);
        measure_point(spec, size as u64, run, chi, kind, grid, point_seed)
    });
    let factor = calibration_fault(spec, seed).map(|f| f.latency_factor());
    for (&(kind, si, ri, ci, _), value) in points.iter().zip(values) {
        let value = factor.map_or(value, |f| value * f);
        table.grid_mut(kind).set(si, ri, ci, value);
    }
    table
}

/// The fixed (base seed, grid coordinates) → RNG seed map.
///
/// Every grid point derives its generator from the base seed and its
/// own coordinates only — the RNG is *point-indexed*, never threaded
/// sequentially from one measurement into the next — which is what
/// makes the parallel sweep observationally equivalent to the serial
/// one, and a column measured alone bit-identical to the same column
/// in a full sweep. The formula is the seed repository's original
/// derivation, so calibration tables also stay bit-identical across
/// refactors.
fn point_seed(seed: u64, si: usize, ri: usize, ci: usize) -> u64 {
    seed ^ ((si as u64) << 40) ^ ((ri as u64) << 20) ^ (ci as u64 + 1)
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
    fn demanded_columns_extend_to_the_full_sweep() {
        let spec = DeviceSpec::Disk(DiskParams::scsi_15k(18 * GIB));
        let grid = CalibrationGrid::coarse();
        let mut demand = ColumnDemand::none(&grid);
        demand.add_query(IoKind::Read, 8192.0, 1.0, 4.0);
        demand.add_query(IoKind::Write, 131072.0, 64.0, 64.0);
        let partial = calibrate_columns(&spec, &grid, 7, &demand, None);
        assert!(partial.covers(&demand));
        assert!(!partial.is_complete());
        assert!(!partial.covers(&ColumnDemand::all(&grid)));
        // Extending keeps the measured cells and measures the rest; the
        // result is the full sweep bit for bit, so the partial table's
        // cells were too.
        let all = ColumnDemand::all(&grid);
        let extended = calibrate_columns(&spec, &grid, 7, &all, Some(&partial));
        assert!(extended.is_complete());
        assert_eq!(extended, calibrate_device(&spec, &grid, 7));
    }

    #[test]
    fn calibration_deterministic() {
        let a = disk_model();
        let b = disk_model();
        assert_eq!(a, b);
    }
}
