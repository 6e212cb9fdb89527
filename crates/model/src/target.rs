//! Target-level cost models.
//!
//! The advisor needs per-*target* request costs: the occupancy one
//! target-level request imposes on the target's bottleneck resource.
//! For a single-device target that is the device's service time
//! (divided by internal parallelism for SSD channels). For a RAID-0
//! group of `w` members, requests spread across members:
//!
//! * a request no larger than the stripe unit lands on exactly one
//!   member, so only `1/w` of the stream's requests occupy any given
//!   member — but the member-level run length also shrinks to `run/w`
//!   because consecutive stripes round-robin;
//! * a request spanning `k` stripes splits into `k` concurrent member
//!   pieces of `size/k` each.
//!
//! This mirrors how the paper's per-target models absorb RAID
//! configuration differences ("there may be a different model for each
//! target type", §5.2).

use crate::calibrate::{calibrate_device, check_capacity, CalibrationGrid, ColumnDemand};
use crate::table::{CostGrad, CostModel, TableModel};
use wasla_simlib::json::{FromJson, Json, JsonError, ToJson};
use wasla_storage::{IoKind, TargetConfig, Tier};

/// Why a target could not be modeled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelError {
    /// A target configuration lists no member devices.
    NoMembers {
        /// The offending target's name.
        target: String,
    },
    /// A RAID target mixes device types; calibration needs homogeneous
    /// members (as real RAID groups have).
    HeterogeneousRaid {
        /// The offending target's name.
        target: String,
    },
    /// A member device is too small for the calibration grid to
    /// measure (see [`crate::calibrate::capacity_floor`]).
    BelowCalibrationFloor {
        /// The offending target's name.
        target: String,
        /// The member device's capacity in bytes.
        capacity: u64,
        /// The smallest capacity the grid can calibrate, in bytes.
        floor: u64,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::NoMembers { target } => {
                write!(f, "target {target:?} has no member devices")
            }
            ModelError::HeterogeneousRaid { target } => write!(
                f,
                "target {target:?} mixes device types; RAID members must be homogeneous for calibration"
            ),
            ModelError::BelowCalibrationFloor {
                target,
                capacity,
                floor,
            } => write!(
                f,
                "target {target:?} has {capacity}-byte member devices; calibration needs at least {floor} bytes"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

/// A cost model for one storage target.
#[derive(Clone, Debug)]
pub struct TargetCostModel {
    /// Calibrated model of the member device type.
    pub member: TableModel,
    /// Number of member devices (RAID-0 width).
    pub width: usize,
    /// RAID-0 stripe unit in bytes.
    pub stripe_unit: u64,
    /// Internal parallelism of each member (SSD channels).
    pub parallelism: usize,
    /// Target name (diagnostic).
    pub name: String,
    /// Economic tier of the target (from its [`TargetConfig`]).
    pub tier: Tier,
}

impl ToJson for TargetCostModel {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            // Fully qualified: TableModel's inherent `to_json` is the
            // string-returning convenience, not the trait method.
            ("member".to_string(), ToJson::to_json(&self.member)),
            ("width".to_string(), self.width.to_json()),
            ("stripe_unit".to_string(), self.stripe_unit.to_json()),
            ("parallelism".to_string(), self.parallelism.to_json()),
            ("name".to_string(), self.name.to_json()),
            ("tier".to_string(), self.tier.to_json()),
        ])
    }
}

// Hand-rolled: `tier` is optional on parse (defaulting to the member
// table's tier) so model files written before the tier layer load.
impl FromJson for TargetCostModel {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let field = |name: &str| v.field(name).ok_or_else(|| JsonError::missing_field(name));
        let member = <TableModel as FromJson>::from_json(field("member")?)?;
        let width = usize::from_json(field("width")?)?;
        let stripe_unit = u64::from_json(field("stripe_unit")?)?;
        let parallelism = usize::from_json(field("parallelism")?)?;
        let name = String::from_json(field("name")?)?;
        let tier = match v.field("tier") {
            Some(t) => Tier::from_json(t)?,
            None => member.tier.clone(),
        };
        Ok(TargetCostModel {
            member,
            width,
            stripe_unit,
            parallelism,
            name,
            tier,
        })
    }
}

impl TargetCostModel {
    /// Checks a target configuration is modelable — at least one
    /// member, all members of one device type — and returns the member
    /// spec to calibrate. Session layers use this to key calibration
    /// caches by member spec.
    pub fn member_spec(config: &TargetConfig) -> Result<&wasla_storage::DeviceSpec, ModelError> {
        let first = config
            .members
            .first()
            .ok_or_else(|| ModelError::NoMembers {
                target: config.name.clone(),
            })?;
        if config.members.iter().any(|m| m != first) {
            return Err(ModelError::HeterogeneousRaid {
                target: config.name.clone(),
            });
        }
        Ok(first)
    }

    /// [`member_spec`](Self::member_spec), additionally checked against
    /// the calibration grid's capacity floor: the spec every calibration
    /// path measures.
    pub fn calibratable_spec<'c>(
        config: &'c TargetConfig,
        grid: &CalibrationGrid,
    ) -> Result<&'c wasla_storage::DeviceSpec, ModelError> {
        let spec = Self::member_spec(config)?;
        check_capacity(spec, grid, &config.name)?;
        Ok(spec)
    }

    /// Assembles the target model around an already-calibrated member
    /// table (the session layer calls this with cached tables).
    pub fn with_member(config: &TargetConfig, member: TableModel) -> Result<Self, ModelError> {
        let first = Self::member_spec(config)?;
        let parallelism = first.build().parallelism();
        Ok(TargetCostModel {
            member,
            width: config.members.len(),
            stripe_unit: config.stripe_unit,
            parallelism,
            name: config.name.clone(),
            tier: config.tier.clone(),
        })
    }

    /// Builds the model for a target by calibrating its member device
    /// type. Members must be homogeneous (as RAID groups are).
    pub fn from_target(
        config: &TargetConfig,
        grid: &CalibrationGrid,
        seed: u64,
    ) -> Result<Self, ModelError> {
        let first = Self::calibratable_spec(config, grid)?;
        let member = calibrate_device(first, grid, seed);
        Self::with_member(config, member)
    }

    /// Builds models for every target in a configuration list,
    /// calibrating each distinct member spec once.
    pub fn for_targets(
        configs: &[TargetConfig],
        grid: &CalibrationGrid,
        seed: u64,
    ) -> Result<Vec<Self>, ModelError> {
        let mut cache: Vec<(wasla_storage::DeviceSpec, TableModel)> = Vec::new();
        configs
            .iter()
            .map(|config| {
                let first = Self::calibratable_spec(config, grid)?;
                let member = match cache.iter().find(|(s, _)| s == first) {
                    Some((_, m)) => m.clone(),
                    None => {
                        let m = calibrate_device(first, grid, seed);
                        cache.push((first.clone(), m.clone()));
                        m
                    }
                };
                Self::with_member(config, member)
            })
            .collect()
    }
}

/// One target-level query mapped onto the member table.
#[derive(Clone, Copy, Debug)]
struct MemberQuery {
    /// Member-level request size.
    size: f64,
    /// Member-level run count.
    run: f64,
    /// Members one request splits across (`k`; 1 unless the request
    /// spans several stripes).
    pieces: f64,
    /// ∂(member run)/∂(target run); zero where the one-run clamp
    /// holds.
    run_slope: f64,
}

/// The RAID-0 split/run transform: how a request of `size` bytes at
/// target-level run count `run_count` reaches the members of a
/// `width`-wide group striped at `stripe_unit` bytes. The member run
/// count is non-decreasing in `run_count`.
fn member_query(width: usize, stripe_unit: u64, size: f64, run_count: f64) -> MemberQuery {
    if width == 1 {
        return MemberQuery {
            size,
            run: run_count,
            pieces: 1.0,
            run_slope: 1.0,
        };
    }
    let w = width as f64;
    let stripe = stripe_unit as f64;
    // A request no larger than the stripe unit lands on one member,
    // and round-robin shortens member runs; a larger one splits into
    // k concurrent pieces of size/k. The size sensitivity is then
    // only through the piece size (k is piecewise constant).
    let k = if size <= stripe {
        1.0
    } else {
        (size / stripe).ceil().min(w)
    };
    let scaled = run_count * k / w;
    MemberQuery {
        size: size / k,
        run: scaled.max(1.0),
        pieces: k,
        run_slope: if scaled > 1.0 { k / w } else { 0.0 },
    }
}

impl TargetCostModel {
    /// Adds to `demand` the member-table columns a target built from
    /// `config` reads when it prices `kind` requests of `size` bytes at
    /// any target-level run count in `[run_lo, run_hi]`. The member
    /// transform is monotone in the run count, so the two ends bound
    /// every query in between.
    pub fn add_demand(
        demand: &mut ColumnDemand,
        config: &TargetConfig,
        kind: IoKind,
        size: f64,
        run_lo: f64,
        run_hi: f64,
    ) {
        let (width, stripe_unit) = (config.members.len(), config.stripe_unit);
        let lo = member_query(width, stripe_unit, size, run_lo);
        let hi = member_query(width, stripe_unit, size, run_hi);
        demand.add_query(kind, lo.size, lo.run, hi.run);
    }

    /// The member-occupancy divisor: members times channels.
    fn divisor(&self) -> f64 {
        self.width as f64 * self.parallelism as f64
    }
}

impl CostModel for TargetCostModel {
    fn request_cost(&self, kind: IoKind, size: f64, run_count: f64, contention: f64) -> f64 {
        let q = member_query(self.width, self.stripe_unit, size, run_count);
        self.member.request_cost(kind, q.size, q.run, contention) * q.pieces / self.divisor()
    }

    fn cost_with_grad(&self, kind: IoKind, size: f64, run_count: f64, contention: f64) -> CostGrad {
        let q = member_query(self.width, self.stripe_unit, size, run_count);
        let g = self.member.cost_with_grad(kind, q.size, q.run, contention);
        let div = self.divisor();
        CostGrad {
            value: g.value * q.pieces / div,
            d_size: g.d_size / div,
            d_run: g.d_run * q.run_slope * q.pieces / div,
            d_contention: g.d_contention * q.pieces / div,
        }
    }

    fn tier(&self) -> Tier {
        self.tier.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasla_storage::{DeviceSpec, DiskParams, SsdParams, GIB, KIB};

    fn disk_spec() -> DeviceSpec {
        DeviceSpec::Disk(DiskParams::scsi_15k(18 * GIB))
    }

    #[test]
    fn raid_width_divides_small_request_cost() {
        let grid = CalibrationGrid::coarse();
        let single =
            TargetCostModel::from_target(&TargetConfig::single("d", disk_spec()), &grid, 3)
                .unwrap();
        let raid3 = TargetCostModel::from_target(
            &TargetConfig::raid0("r3", vec![disk_spec(); 3], 256 * KIB),
            &grid,
            3,
        )
        .unwrap();
        let c1 = single.request_cost(IoKind::Read, 8192.0, 1.0, 0.0);
        let c3 = raid3.request_cost(IoKind::Read, 8192.0, 1.0, 0.0);
        // Random 8 KiB on 3-wide RAID-0: one member busy per request,
        // 1/3 of requests per member.
        assert!((c3 - c1 / 3.0).abs() / c1 < 0.2, "c1 {c1} c3 {c3}");
    }

    #[test]
    fn ssd_channels_divide_cost() {
        let grid = CalibrationGrid::coarse();
        let ssd = TargetCostModel::from_target(
            &TargetConfig::single("ssd", DeviceSpec::Ssd(SsdParams::sata_gen1(32 * GIB))),
            &grid,
            3,
        )
        .unwrap();
        assert_eq!(ssd.parallelism, 4);
        let occupancy = ssd.request_cost(IoKind::Read, 8192.0, 1.0, 0.0);
        let service = ssd.member.request_cost(IoKind::Read, 8192.0, 1.0, 0.0);
        assert!((occupancy - service / 4.0).abs() < 1e-9);
    }

    #[test]
    fn large_requests_split_across_members() {
        let grid = CalibrationGrid::coarse();
        let raid4 = TargetCostModel::from_target(
            &TargetConfig::raid0("r4", vec![disk_spec(); 4], 64 * KIB),
            &grid,
            3,
        )
        .unwrap();
        // A 256 KiB sequential request spans 4 stripes: all members work.
        let split = raid4.request_cost(IoKind::Read, 262144.0, 64.0, 0.0);
        // Equivalent single-member cost for the whole request:
        let single =
            TargetCostModel::from_target(&TargetConfig::single("d", disk_spec()), &grid, 3)
                .unwrap();
        let whole = single.request_cost(IoKind::Read, 262144.0, 64.0, 0.0);
        assert!(split < whole, "split {split} whole {whole}");
    }

    #[test]
    fn shared_member_specs_calibrated_once() {
        let grid = CalibrationGrid::coarse();
        let configs = vec![
            TargetConfig::single("d0", disk_spec()),
            TargetConfig::single("d1", disk_spec()),
            TargetConfig::raid0("r", vec![disk_spec(); 2], 256 * KIB),
        ];
        let models = TargetCostModel::for_targets(&configs, &grid, 5).unwrap();
        assert_eq!(models.len(), 3);
        // Same member spec → identical tables.
        assert_eq!(models[0].member, models[1].member);
        assert_eq!(models[0].member, models[2].member);
        assert_eq!(models[2].width, 2);
    }

    #[test]
    fn heterogeneous_raid_rejected() {
        let grid = CalibrationGrid::coarse();
        let config = TargetConfig::raid0(
            "bad",
            vec![
                disk_spec(),
                DeviceSpec::Disk(DiskParams::nearline_7200(18 * GIB)),
            ],
            256 * KIB,
        );
        let err = TargetCostModel::from_target(&config, &grid, 1).unwrap_err();
        assert_eq!(
            err,
            ModelError::HeterogeneousRaid {
                target: "bad".to_string()
            }
        );
        assert!(err.to_string().contains("homogeneous"));
    }

    #[test]
    fn empty_target_rejected() {
        let grid = CalibrationGrid::coarse();
        let config = TargetConfig {
            name: "empty".to_string(),
            members: vec![],
            stripe_unit: 256 * KIB,
            scheduler: wasla_storage::SchedulerKind::Sstf,
            tier: Tier::hdd(),
        };
        let err = TargetCostModel::from_target(&config, &grid, 1).unwrap_err();
        assert_eq!(
            err,
            ModelError::NoMembers {
                target: "empty".to_string()
            }
        );
    }

    #[test]
    fn tier_identity_carried_end_to_end() {
        let grid = CalibrationGrid::coarse();
        let ssd = TargetCostModel::from_target(
            &TargetConfig::single("ssd", DeviceSpec::Ssd(SsdParams::sata_gen1(32 * GIB))),
            &grid,
            3,
        )
        .unwrap();
        assert_eq!(ssd.tier, Tier::ssd());
        assert_eq!(ssd.member.tier, Tier::ssd());
        assert_eq!(CostModel::tier(&ssd), Tier::ssd());
        let json = wasla_simlib::json::to_string(&ssd);
        let back: TargetCostModel = wasla_simlib::json::from_str(&json).unwrap();
        assert_eq!(back.tier, Tier::ssd());
        // A pre-tier model file (no top-level tier field) inherits the
        // member table's tier. The top-level tier is the final field,
        // so drop it by truncating at the last `,"tier":`.
        let pos = json.rfind(",\"tier\":").unwrap();
        let old = format!("{}}}", &json[..pos]);
        let back: TargetCostModel = wasla_simlib::json::from_str(&old).unwrap();
        assert_eq!(back.tier, back.member.tier);
    }

    #[test]
    fn target_grad_value_bitwise_and_fd_consistent() {
        let grid = CalibrationGrid::coarse();
        let models = [
            TargetCostModel::from_target(&TargetConfig::single("d", disk_spec()), &grid, 3)
                .unwrap(),
            TargetCostModel::from_target(
                &TargetConfig::raid0("r4", vec![disk_spec(); 4], 64 * KIB),
                &grid,
                3,
            )
            .unwrap(),
        ];
        // Queries covering all three width branches: single device,
        // sub-stripe, and stripe-spanning requests. `(8192,1,0)` sits
        // on bottom knots, where the pinned right-cell subgradient
        // legitimately differs from a clamp-straddling central
        // difference — it checks the bitwise-value contract only.
        let queries = [
            (8192.0, 1.0, 0.0, false),
            (12000.0, 12.0, 1.3, true),
            (262144.0, 40.0, 5.5, true),
        ];
        for m in &models {
            for &(s, r, c, check_fd) in &queries {
                for kind in [IoKind::Read, IoKind::Write] {
                    let g = m.cost_with_grad(kind, s, r, c);
                    assert_eq!(
                        g.value.to_bits(),
                        m.request_cost(kind, s, r, c).to_bits(),
                        "{} ({s},{r},{c})",
                        m.name
                    );
                    if !check_fd {
                        continue;
                    }
                    // Central differences away from knots and branch
                    // boundaries; generous tolerance since these
                    // queries were not chosen to dodge cell edges.
                    for (axis, analytic) in [(1, g.d_run), (2, g.d_contention)] {
                        let h = 1e-5 * [s, r, c][axis].max(1.0);
                        let probe = |delta: f64| {
                            let mut q = [s, r, c];
                            q[axis] += delta;
                            m.request_cost(kind, q[0], q[1], q[2])
                        };
                        let fd = (probe(h) - probe(-h)) / (2.0 * h);
                        let scale = analytic.abs().max(fd.abs()).max(1e-9);
                        assert!(
                            (fd - analytic).abs() <= 1e-3 * scale,
                            "{} axis {axis} ({s},{r},{c}): fd {fd} analytic {analytic}",
                            m.name
                        );
                    }
                }
            }
        }
    }
}
