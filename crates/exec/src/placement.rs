//! Object-to-target placement.
//!
//! A placement realizes a layout matrix `L` (N objects × M targets,
//! row sums 1) on concrete storage: it allocates byte extents on each
//! target and translates object-relative addresses to target addresses.
//!
//! Two mechanisms, mirroring the paper's §3 discussion:
//!
//! * **Striped** — when a row is *regular* (equal nonzero fractions),
//!   the object is striped round-robin across its targets with a fixed
//!   stripe size, exactly like the host LVM used in the paper's
//!   experiments (Figure 7's layout model describes this mechanism).
//! * **Chunked** — a general (non-regular) row is realized as
//!   contiguous per-target chunks sized by the fractions, the way a
//!   volume manager concatenates extents.

use wasla_simlib::impl_json_struct;
use wasla_simlib::json::{self, FromJson, Json, JsonError, ToJson};
use wasla_storage::TargetId;

/// Default LVM stripe size (bytes), matching the layout model's
/// `StripeSize` parameter.
pub const DEFAULT_STRIPE: u64 = 1024 * 1024;

/// Tolerance when deciding whether a row's nonzero fractions are equal.
const REGULAR_EPS: f64 = 1e-6;

/// Errors raised while building a placement.
#[derive(Clone, Debug, PartialEq)]
pub enum PlacementError {
    /// A row does not sum to 1 (integrity constraint violated).
    BadRow {
        /// Object index.
        object: usize,
        /// Actual row sum.
        sum: f64,
    },
    /// A target was assigned more bytes than its capacity.
    OverCapacity {
        /// Target index.
        target: TargetId,
        /// Bytes assigned.
        assigned: u64,
        /// Target capacity.
        capacity: u64,
    },
    /// Row length doesn't match the number of targets.
    ShapeMismatch,
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::BadRow { object, sum } => {
                write!(f, "layout row {object} sums to {sum}, expected 1")
            }
            PlacementError::OverCapacity {
                target,
                assigned,
                capacity,
            } => write!(
                f,
                "target {target} assigned {assigned} bytes > capacity {capacity}"
            ),
            PlacementError::ShapeMismatch => write!(f, "layout row length != target count"),
        }
    }
}

impl std::error::Error for PlacementError {}

/// How one object is mapped.
#[derive(Clone, Debug)]
pub enum ObjectMapping {
    /// Round-robin striping across `targets`; logical stripe `s` lives
    /// on `targets[s % k]` at byte `base[s % k] + (s / k) * stripe`.
    Striped {
        /// (target, base offset) pairs in stripe order.
        targets: Vec<(TargetId, u64)>,
        /// Stripe unit in bytes.
        stripe: u64,
    },
    /// Contiguous chunks: `(target, base, logical_start, len)`,
    /// ascending in `logical_start` and covering `[0, size)`.
    Chunked {
        /// The chunks.
        chunks: Vec<(TargetId, u64, u64, u64)>,
    },
}

impl ToJson for ObjectMapping {
    fn to_json(&self) -> Json {
        match self {
            ObjectMapping::Striped { targets, stripe } => json::variant(
                "Striped",
                Json::Obj(vec![
                    ("targets".to_string(), targets.to_json()),
                    ("stripe".to_string(), stripe.to_json()),
                ]),
            ),
            ObjectMapping::Chunked { chunks } => json::variant(
                "Chunked",
                Json::Obj(vec![("chunks".to_string(), chunks.to_json())]),
            ),
        }
    }
}

impl FromJson for ObjectMapping {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let (tag, payload) = json::untag(v)?;
        let get = |name: &str| {
            payload
                .field(name)
                .ok_or_else(|| JsonError::missing_field(name))
        };
        match tag {
            "Striped" => Ok(ObjectMapping::Striped {
                targets: FromJson::from_json(get("targets")?)?,
                stripe: u64::from_json(get("stripe")?)?,
            }),
            "Chunked" => Ok(ObjectMapping::Chunked {
                chunks: FromJson::from_json(get("chunks")?)?,
            }),
            other => Err(JsonError::new(format!(
                "unknown ObjectMapping variant: {other:?}"
            ))),
        }
    }
}

/// A realized placement of all objects onto targets.
#[derive(Clone, Debug)]
pub struct Placement {
    mappings: Vec<ObjectMapping>,
    sizes: Vec<u64>,
    per_target: Vec<u64>,
}

impl_json_struct!(Placement {
    mappings,
    sizes,
    per_target
});

impl Placement {
    /// Builds a placement from a layout matrix.
    ///
    /// * `rows[i][j]` — fraction of object `i` on target `j`;
    /// * `sizes[i]` — object sizes in bytes;
    /// * `capacities[j]` — target capacities in bytes;
    /// * `stripe` — stripe unit for regular rows.
    pub fn build(
        rows: &[Vec<f64>],
        sizes: &[u64],
        capacities: &[u64],
        stripe: u64,
    ) -> Result<Placement, PlacementError> {
        assert_eq!(rows.len(), sizes.len());
        let m = capacities.len();
        let mut cursors = vec![0u64; m];
        let mut mappings = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            if row.len() != m {
                return Err(PlacementError::ShapeMismatch);
            }
            let sum: f64 = row.iter().sum();
            if (sum - 1.0).abs() > 1e-3 {
                return Err(PlacementError::BadRow { object: i, sum });
            }
            let size = sizes[i];
            let nonzero: Vec<usize> = (0..m).filter(|&j| row[j] > REGULAR_EPS).collect();
            debug_assert!(!nonzero.is_empty());
            let first = row[nonzero[0]];
            let regular = nonzero
                .iter()
                .all(|&j| (row[j] - first).abs() < REGULAR_EPS);
            if regular {
                // Striped: each target holds ceil(size / k) rounded up
                // to a whole number of stripes.
                let k = nonzero.len() as u64;
                let stripes_total = size.div_ceil(stripe);
                let per_target_stripes = stripes_total.div_ceil(k);
                let per_target_bytes = per_target_stripes * stripe;
                let mut targets = Vec::with_capacity(nonzero.len());
                for &j in &nonzero {
                    targets.push((j, cursors[j]));
                    cursors[j] += per_target_bytes;
                }
                mappings.push(ObjectMapping::Striped { targets, stripe });
            } else {
                // Chunked: contiguous per-target chunks by fraction.
                let mut chunks = Vec::with_capacity(nonzero.len());
                let mut logical = 0u64;
                for (pos, &j) in nonzero.iter().enumerate() {
                    let len = if pos + 1 == nonzero.len() {
                        size - logical
                    } else {
                        ((row[j] / sum) * size as f64).round() as u64
                    };
                    if len == 0 {
                        continue;
                    }
                    chunks.push((j, cursors[j], logical, len));
                    cursors[j] += len;
                    logical += len;
                }
                mappings.push(ObjectMapping::Chunked { chunks });
            }
        }
        for (j, (&used, &cap)) in cursors.iter().zip(capacities).enumerate() {
            if used > cap {
                return Err(PlacementError::OverCapacity {
                    target: j,
                    assigned: used,
                    capacity: cap,
                });
            }
        }
        Ok(Placement {
            mappings,
            sizes: sizes.to_vec(),
            per_target: cursors,
        })
    }

    /// Bytes allocated on each target.
    pub fn bytes_per_target(&self) -> &[u64] {
        &self.per_target
    }

    /// The mapping of one object.
    pub fn mapping(&self, object: usize) -> &ObjectMapping {
        &self.mappings[object]
    }

    /// Translates an object-relative byte range into per-target
    /// `(target, offset, len)` pieces, appended to `out`.
    pub fn translate(
        &self,
        object: usize,
        offset: u64,
        len: u64,
        out: &mut Vec<(TargetId, u64, u64)>,
    ) {
        debug_assert!(offset + len <= self.sizes[object].max(offset + len));
        match &self.mappings[object] {
            ObjectMapping::Striped { targets, stripe } => {
                let k = targets.len() as u64;
                let mut off = offset;
                let mut remaining = len;
                while remaining > 0 {
                    let s = off / stripe;
                    let within = off % stripe;
                    let chunk = (stripe - within).min(remaining);
                    let (target, base) = targets[(s % k) as usize];
                    out.push((target, base + (s / k) * stripe + within, chunk));
                    off += chunk;
                    remaining -= chunk;
                }
            }
            ObjectMapping::Chunked { chunks } => {
                let mut off = offset;
                let mut remaining = len;
                for &(target, base, lstart, clen) in chunks {
                    if remaining == 0 {
                        break;
                    }
                    let lend = lstart + clen;
                    if off >= lend || off + remaining <= lstart {
                        continue;
                    }
                    let within = off - lstart;
                    let take = (clen - within).min(remaining);
                    out.push((target, base + within, take));
                    off += take;
                    remaining -= take;
                }
                debug_assert_eq!(remaining, 0, "range escaped chunk cover");
            }
        }
    }
}

/// Builds the stripe-everything-everywhere row set for `n` objects on
/// `m` targets — the paper's SEE baseline layout matrix.
pub fn see_rows(n: usize, m: usize) -> Vec<Vec<f64>> {
    vec![vec![1.0 / m as f64; m]; n]
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    #[test]
    fn striped_mapping_round_robins() {
        let rows = vec![vec![0.5, 0.5]];
        let p =
            Placement::build(&rows, &[4 * DEFAULT_STRIPE], &[GIB, GIB], DEFAULT_STRIPE).unwrap();
        let mut out = Vec::new();
        // Stripe 0 → target 0, stripe 1 → target 1, stripe 2 → target 0 …
        p.translate(0, 0, DEFAULT_STRIPE, &mut out);
        assert_eq!(out, vec![(0, 0, DEFAULT_STRIPE)]);
        out.clear();
        p.translate(0, DEFAULT_STRIPE, DEFAULT_STRIPE, &mut out);
        assert_eq!(out, vec![(1, 0, DEFAULT_STRIPE)]);
        out.clear();
        p.translate(0, 2 * DEFAULT_STRIPE, DEFAULT_STRIPE, &mut out);
        assert_eq!(out, vec![(0, DEFAULT_STRIPE, DEFAULT_STRIPE)]);
    }

    #[test]
    fn striped_request_spanning_stripes_splits() {
        let rows = vec![vec![0.5, 0.5]];
        let p =
            Placement::build(&rows, &[4 * DEFAULT_STRIPE], &[GIB, GIB], DEFAULT_STRIPE).unwrap();
        let mut out = Vec::new();
        p.translate(0, DEFAULT_STRIPE / 2, DEFAULT_STRIPE, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, 0);
        assert_eq!(out[1].0, 1);
        assert_eq!(out[0].2 + out[1].2, DEFAULT_STRIPE);
    }

    #[test]
    fn chunked_mapping_covers_object() {
        let rows = vec![vec![0.2, 0.3, 0.5]];
        let size = 1000 * 1000;
        let p = Placement::build(&rows, &[size], &[GIB, GIB, GIB], DEFAULT_STRIPE).unwrap();
        // Whole-object translation covers every byte exactly once.
        let mut out = Vec::new();
        p.translate(0, 0, size, &mut out);
        let total: u64 = out.iter().map(|(_, _, l)| l).sum();
        assert_eq!(total, size);
        assert_eq!(out.len(), 3);
        assert!((out[0].2 as f64 / size as f64 - 0.2).abs() < 0.01);
        assert!((out[2].2 as f64 / size as f64 - 0.5).abs() < 0.01);
        // A range inside the middle chunk maps to one target.
        out.clear();
        p.translate(0, 300_000, 10_000, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 1);
    }

    #[test]
    fn sequential_allocation_does_not_overlap() {
        // Two objects on the same target get disjoint extents.
        let rows = vec![vec![1.0, 0.0], vec![1.0, 0.0]];
        let p = Placement::build(&rows, &[GIB, GIB], &[4 * GIB, 4 * GIB], DEFAULT_STRIPE).unwrap();
        let mut a = Vec::new();
        let mut b = Vec::new();
        p.translate(0, 0, GIB, &mut a);
        p.translate(1, 0, GIB, &mut b);
        let (ta, oa, la) = a[0];
        let (tb, ob, _lb) = b[0];
        assert_eq!(ta, tb);
        assert!(ob >= oa + la, "extents overlap");
    }

    #[test]
    fn capacity_enforced() {
        let rows = vec![vec![1.0]];
        let err = Placement::build(&rows, &[2 * GIB], &[GIB], DEFAULT_STRIPE).unwrap_err();
        assert!(matches!(
            err,
            PlacementError::OverCapacity { target: 0, .. }
        ));
    }

    #[test]
    fn bad_row_rejected() {
        let rows = vec![vec![0.5, 0.3]];
        let err = Placement::build(&rows, &[GIB], &[GIB, GIB], DEFAULT_STRIPE).unwrap_err();
        assert!(matches!(err, PlacementError::BadRow { object: 0, .. }));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let rows = vec![vec![1.0]];
        let err = Placement::build(&rows, &[GIB], &[GIB, GIB], DEFAULT_STRIPE).unwrap_err();
        assert_eq!(err, PlacementError::ShapeMismatch);
    }

    #[test]
    fn see_rows_are_uniform() {
        let rows = see_rows(3, 4);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.len(), 4);
            for &v in row {
                assert!((v - 0.25).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn bytes_per_target_accounts_allocation() {
        let rows = vec![vec![1.0, 0.0], vec![0.5, 0.5]];
        let p =
            Placement::build(&rows, &[GIB, 2 * GIB], &[4 * GIB, 4 * GIB], DEFAULT_STRIPE).unwrap();
        let bt = p.bytes_per_target();
        assert!(bt[0] >= GIB + GIB); // object0 + half of object1
        assert!(bt[1] >= GIB);
    }
}
