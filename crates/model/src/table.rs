//! Tabulated cost models with interpolation.

use crate::calibrate::ColumnDemand;
use crate::grid::Grid3;
use wasla_simlib::json::{self, FromJson, Json, JsonError, ToJson};
use wasla_storage::{IoKind, Tier};

/// Per-request cost plus its exact partial derivatives w.r.t. the
/// three query coordinates, returned by [`CostModel::cost_with_grad`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostGrad {
    /// The cost itself — bit-identical to `request_cost` at the same
    /// query by contract.
    pub value: f64,
    /// ∂cost/∂size.
    pub d_size: f64,
    /// ∂cost/∂run_count.
    pub d_run: f64,
    /// ∂cost/∂contention.
    pub d_contention: f64,
}

impl CostGrad {
    /// A zero cost with zero partials.
    pub const ZERO: CostGrad = CostGrad {
        value: 0.0,
        d_size: 0.0,
        d_run: 0.0,
        d_contention: 0.0,
    };
}

/// Finite-difference step used by the default `cost_with_grad`
/// implementation, relative to the coordinate magnitude.
const DEFAULT_GRAD_STEP: f64 = 1e-6;

/// A per-request cost model for one device or target type.
///
/// `request_cost` returns the expected *service occupancy* in seconds
/// that one request of the given kind imposes, as a function of the
/// three workload parameters the paper's models use: average request
/// size (bytes), run count (sequentiality), and contention factor χ.
pub trait CostModel: Send + Sync {
    /// Expected per-request cost in seconds.
    fn request_cost(&self, kind: IoKind, size: f64, run_count: f64, contention: f64) -> f64;

    /// Cost plus partial derivatives w.r.t. (size, run_count,
    /// contention), consumed by the solver's analytic gradient.
    ///
    /// The `value` field MUST be bit-identical to `request_cost` at
    /// the same query. The default implementation differences
    /// `request_cost` with a relative central step (clamped to keep
    /// probes non-negative), so external models keep working unchanged;
    /// tabulated models override it with exact per-cell slopes.
    fn cost_with_grad(&self, kind: IoKind, size: f64, run_count: f64, contention: f64) -> CostGrad {
        let value = self.request_cost(kind, size, run_count, contention);
        let partial = |axis: usize| {
            let mut hi = [size, run_count, contention];
            let mut lo = hi;
            let h = (hi[axis].abs() * DEFAULT_GRAD_STEP).max(DEFAULT_GRAD_STEP);
            hi[axis] += h;
            lo[axis] = (lo[axis] - h).max(0.0);
            let span = hi[axis] - lo[axis];
            (self.request_cost(kind, hi[0], hi[1], hi[2])
                - self.request_cost(kind, lo[0], lo[1], lo[2]))
                / span
        };
        CostGrad {
            value,
            d_size: partial(0),
            d_run: partial(1),
            d_contention: partial(2),
        }
    }

    /// The economic tier of the modeled target, consumed by the
    /// tier-aware layout objectives (`ProvisioningCost`, `WearBlend`).
    /// Defaults to the HDD tier, which every pre-tier model
    /// implicitly assumed.
    fn tier(&self) -> Tier {
        Tier::hdd()
    }
}

/// A black-box tabulated model: one 3-D grid per request direction,
/// built from calibration measurements and interpolated at query time
/// (paper §5.2.2, Figure 8 shows one slice of such a model).
///
/// A table may hold only the (size, run) columns a [`ColumnDemand`]
/// asked for ([`crate::calibrate_columns`]); its other cells are NaN,
/// and [`TableModel::covers`] tells which demands it can serve.
#[derive(Clone, Debug, PartialEq)]
pub struct TableModel {
    /// Device name the model was calibrated for (diagnostic).
    pub device: String,
    /// Economic tier of the calibrated device.
    pub tier: Tier,
    /// Read-request costs.
    pub reads: Grid3,
    /// Write-request costs.
    pub writes: Grid3,
}

impl ToJson for TableModel {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("device".to_string(), self.device.to_json()),
            ("tier".to_string(), self.tier.to_json()),
            ("reads".to_string(), self.reads.to_json()),
            ("writes".to_string(), self.writes.to_json()),
        ])
    }
}

// Hand-rolled so calibration tables persisted before the tier layer
// (session caches, committed model files) still parse: a missing
// `tier` defaults from the device name.
impl FromJson for TableModel {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let field = |name: &str| v.field(name).ok_or_else(|| JsonError::missing_field(name));
        let device = String::from_json(field("device")?)?;
        let tier = match v.field("tier") {
            Some(t) => Tier::from_json(t)?,
            None => Tier::for_device_name(&device),
        };
        let reads = Grid3::from_json(field("reads")?)?;
        let writes = Grid3::from_json(field("writes")?)?;
        Ok(TableModel {
            device,
            tier,
            reads,
            writes,
        })
    }
}

impl CostModel for TableModel {
    fn request_cost(&self, kind: IoKind, size: f64, run_count: f64, contention: f64) -> f64 {
        self.grid(kind).interpolate(size, run_count, contention)
    }

    fn cost_with_grad(&self, kind: IoKind, size: f64, run_count: f64, contention: f64) -> CostGrad {
        let (value, [d_size, d_run, d_contention]) = self
            .grid(kind)
            .interpolate_with_grad(size, run_count, contention);
        CostGrad {
            value,
            d_size,
            d_run,
            d_contention,
        }
    }

    fn tier(&self) -> Tier {
        self.tier.clone()
    }
}

impl TableModel {
    /// The grid for one request direction.
    pub(crate) fn grid(&self, kind: IoKind) -> &Grid3 {
        match kind {
            IoKind::Read => &self.reads,
            IoKind::Write => &self.writes,
        }
    }

    pub(crate) fn grid_mut(&mut self, kind: IoKind) -> &mut Grid3 {
        match kind {
            IoKind::Read => &mut self.reads,
            IoKind::Write => &mut self.writes,
        }
    }

    /// Whether every column `demand` names has been measured (the
    /// demand must be over this table's grid).
    pub fn covers(&self, demand: &ColumnDemand) -> bool {
        [IoKind::Read, IoKind::Write].into_iter().all(|kind| {
            let grid = self.grid(kind);
            (0..grid.sizes.len()).all(|si| {
                (0..grid.runs.len())
                    .all(|ri| !demand.contains(kind, si, ri) || grid.column_measured(si, ri))
            })
        })
    }

    /// Whether every column of both grids has been measured.
    pub fn is_complete(&self) -> bool {
        [&self.reads, &self.writes].into_iter().all(|grid| {
            (0..grid.sizes.len())
                .all(|si| (0..grid.runs.len()).all(|ri| grid.column_measured(si, ri)))
        })
    }

    /// Serializes the model to JSON (models are expensive to calibrate
    /// on real hardware; persisting them is standard practice).
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }

    /// Deserializes a model from JSON.
    pub fn from_json(json: &str) -> Result<Self, JsonError> {
        json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Axis;

    fn tiny_model() -> TableModel {
        let mk = |scale: f64| {
            let sizes = Axis::new(vec![4096.0, 131072.0]);
            let runs = Axis::new(vec![1.0, 64.0]);
            let cons = Axis::new(vec![0.0, 8.0]);
            let mut values = Vec::new();
            for &s in sizes.points() {
                for &r in runs.points() {
                    for &c in cons.points() {
                        values.push(scale * (s / 1e6 + 1.0 / r + c * 0.001));
                    }
                }
            }
            Grid3::new(sizes, runs, cons, values)
        };
        TableModel {
            device: "test".into(),
            tier: Tier::hdd(),
            reads: mk(1.0),
            writes: mk(2.0),
        }
    }

    #[test]
    fn read_write_grids_distinct() {
        let m = tiny_model();
        let r = m.request_cost(IoKind::Read, 8192.0, 4.0, 1.0);
        let w = m.request_cost(IoKind::Write, 8192.0, 4.0, 1.0);
        assert!(w > r);
    }

    #[test]
    fn table_grad_value_is_bitwise_request_cost() {
        let m = tiny_model();
        for (s, r, c) in [(8192.0, 4.0, 1.0), (4096.0, 1.0, 0.0), (2e5, 99.0, 9.0)] {
            for kind in [IoKind::Read, IoKind::Write] {
                let g = m.cost_with_grad(kind, s, r, c);
                assert_eq!(g.value.to_bits(), m.request_cost(kind, s, r, c).to_bits());
            }
        }
    }

    #[test]
    fn default_grad_impl_differences_request_cost() {
        // An analytic model without an override gets FD partials from
        // the trait default; on a smooth model they are near-exact.
        struct Smooth;
        impl CostModel for Smooth {
            fn request_cost(&self, _k: IoKind, s: f64, r: f64, c: f64) -> f64 {
                0.01 * s + 0.5 / r.max(1.0) + 0.003 * c * c
            }
        }
        let g = Smooth.cost_with_grad(IoKind::Read, 10.0, 4.0, 2.0);
        assert_eq!(
            g.value.to_bits(),
            Smooth.request_cost(IoKind::Read, 10.0, 4.0, 2.0).to_bits()
        );
        assert!((g.d_size - 0.01).abs() < 1e-6, "{}", g.d_size);
        assert!((g.d_run - (-0.5 / 16.0)).abs() < 1e-6, "{}", g.d_run);
        assert!((g.d_contention - 0.012).abs() < 1e-6, "{}", g.d_contention);
    }

    #[test]
    fn table_grad_matches_central_difference() {
        let m = tiny_model();
        // An interior point away from knots: the table is linear in
        // its cell, so a small central difference is exact.
        let (s, r, c) = (8192.0, 4.0, 1.0);
        let g = m.cost_with_grad(IoKind::Read, s, r, c);
        let fd = |ds: f64, dr: f64, dc: f64, h: f64| {
            (m.request_cost(IoKind::Read, s + ds * h, r + dr * h, c + dc * h)
                - m.request_cost(IoKind::Read, s - ds * h, r - dr * h, c - dc * h))
                / (2.0 * h)
        };
        assert!((g.d_size - fd(1.0, 0.0, 0.0, 1.0)).abs() < 1e-12);
        assert!((g.d_run - fd(0.0, 1.0, 0.0, 1e-3)).abs() < 1e-9);
        assert!((g.d_contention - fd(0.0, 0.0, 1.0, 1e-3)).abs() < 1e-9);
    }

    #[test]
    fn json_round_trip() {
        let m = tiny_model();
        let j = m.to_json();
        let back = TableModel::from_json(&j).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn pre_tier_table_json_defaults_from_device_name() {
        let mut m = tiny_model();
        m.device = "ssd".into();
        m.tier = Tier::ssd();
        let with_tier = m.to_json();
        let tier_fragment = format!("\"tier\":{},", json::to_string(&m.tier));
        let old = with_tier.replace(&tier_fragment, "");
        assert!(!old.contains("tier"), "tier stripped from {old}");
        let back = TableModel::from_json(&old).unwrap();
        assert_eq!(back.tier, Tier::ssd(), "tier inferred from device name");
        assert_eq!(back, m);
    }
}
