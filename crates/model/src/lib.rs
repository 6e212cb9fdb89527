//! Storage target cost models (paper §5.2.2).
//!
//! A *target model* estimates the utilization a workload imposes on a
//! storage target: `µᵢⱼ = λᵢⱼᴿ · Costⱼᴿ + λᵢⱼᵂ · Costⱼᵂ` (paper Eq. 1),
//! where the per-request costs depend on the target's device type and
//! three workload parameters — request size, run count (sequentiality),
//! and the contention factor χ (Eq. 2).
//!
//! Following the paper, we do not build analytic models of the device's
//! full behaviour. Instead we **calibrate**: subject the (simulated)
//! device to calibration workloads with known request sizes, run
//! counts and degrees of contention, tabulate the measured mean service
//! times, and interpolate among nearby calibration points at query
//! time ([`TableModel`], built by [`calibrate::calibrate_device`]).
//! The analytic disk model the cost-model ablation compares against
//! lives with the experiments (`wasla-bench`).
//!
//! [`target::TargetCostModel`] lifts a per-device model to a whole
//! target (RAID-0 width, SSD channel parallelism), producing the
//! per-request *occupancy* of the target's bottleneck member, which is
//! what the min-max utilization objective needs.

pub mod calibrate;
pub mod grid;
pub mod table;
pub mod target;

pub use calibrate::{
    calibrate_columns, calibrate_device, calibration_fault, check_capacity, CalibrationGrid,
    ColumnDemand,
};
pub use table::{CostGrad, CostModel, TableModel};
pub use target::{ModelError, TargetCostModel};
