//! The layout problem formulation (paper §3).

use std::sync::Arc;
use wasla_model::CostModel;
use wasla_simlib::impl_json_struct;
use wasla_simlib::json::{self, FromJson, Json, JsonError, ToJson};
use wasla_workload::{ObjectKind, WorkloadSet};

/// Tolerance for the integrity constraint (row sums) and regularity
/// checks.
pub const EPS: f64 = 1e-6;

/// A layout `L`: an N × M matrix where `L[i][j]` is the fraction of
/// object `i` assigned to target `j` (paper Definition 1's decision
/// variables).
#[derive(Clone, Debug, PartialEq)]
pub struct Layout {
    rows: Vec<Vec<f64>>,
    m: usize,
}

impl_json_struct!(Layout { rows, m });

impl Layout {
    /// An all-zero (invalid) layout to be filled in.
    pub fn zero(n: usize, m: usize) -> Self {
        assert!(m > 0);
        Layout {
            rows: vec![vec![0.0; m]; n],
            m,
        }
    }

    /// Builds a layout from rows (each of length `m`).
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        assert!(!rows.is_empty());
        let m = rows[0].len();
        assert!(m > 0);
        assert!(rows.iter().all(|r| r.len() == m), "ragged layout rows");
        Layout { rows, m }
    }

    /// The stripe-everything-everywhere layout (paper's SEE baseline):
    /// every object spread evenly across all targets.
    pub fn see(n: usize, m: usize) -> Self {
        Layout {
            rows: vec![vec![1.0 / m as f64; m]; n],
            m,
        }
    }

    /// Number of objects `N`.
    pub fn n_objects(&self) -> usize {
        self.rows.len()
    }

    /// Number of targets `M`.
    pub fn n_targets(&self) -> usize {
        self.m
    }

    /// One object's row.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.rows[i]
    }

    /// Mutable access to one object's row.
    pub fn row_mut(&mut self, i: usize) -> &mut Vec<f64> {
        &mut self.rows[i]
    }

    /// All rows.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// Whether both layouts have the same shape and bitwise-equal
    /// (`f64::to_bits`) fractions: the identity under which two starts
    /// solve to the same bits.
    pub fn same_bits(&self, other: &Layout) -> bool {
        self.rows.len() == other.rows.len()
            && self.rows.iter().zip(&other.rows).all(|(a, b)| {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            })
    }

    /// The fraction of object `i` on target `j`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.rows[i][j]
    }

    /// Sets one entry.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.rows[i][j] = v;
    }

    /// Flattens to a row-major variable vector for the NLP solver.
    pub fn to_flat(&self) -> Vec<f64> {
        self.rows.iter().flatten().copied().collect()
    }

    /// Rebuilds a layout from a flat variable vector.
    pub fn from_flat(x: &[f64], n: usize, m: usize) -> Self {
        assert_eq!(x.len(), n * m);
        Layout {
            rows: x.chunks(m).map(|c| c.to_vec()).collect(),
            m,
        }
    }

    /// Checks the integrity constraint: every row sums to 1 with
    /// non-negative entries (paper §3).
    pub fn satisfies_integrity(&self) -> bool {
        self.rows.iter().all(|r| {
            let sum: f64 = r.iter().sum();
            (sum - 1.0).abs() < 1e-3 && r.iter().all(|&v| v >= -EPS)
        })
    }

    /// Checks the capacity constraint `Σᵢ sᵢ Lᵢⱼ ≤ cⱼ` (paper §3).
    pub fn satisfies_capacity(&self, sizes: &[u64], capacities: &[u64]) -> bool {
        (0..self.m).all(|j| {
            let used: f64 = self
                .rows
                .iter()
                .zip(sizes)
                .map(|(r, &s)| r[j] * s as f64)
                .sum();
            used <= capacities[j] as f64 * (1.0 + EPS)
        })
    }

    /// A layout is *valid* if it satisfies both constraints.
    pub fn is_valid(&self, sizes: &[u64], capacities: &[u64]) -> bool {
        self.satisfies_integrity() && self.satisfies_capacity(sizes, capacities)
    }

    /// A layout is *regular* if every object is spread evenly over a
    /// subset of targets: for every pair of entries, `Lᵢⱼ = 0`,
    /// `Lᵢₖ = 0`, or `Lᵢⱼ = Lᵢₖ` (paper Definition 2).
    pub fn is_regular(&self) -> bool {
        self.rows.iter().all(|r| {
            let nz: Vec<f64> = r.iter().copied().filter(|&v| v > EPS).collect();
            nz.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-3) && !nz.is_empty()
        })
    }

    /// Bytes assigned to each target.
    pub fn bytes_per_target(&self, sizes: &[u64]) -> Vec<f64> {
        (0..self.m)
            .map(|j| {
                self.rows
                    .iter()
                    .zip(sizes)
                    .map(|(r, &s)| r[j] * s as f64)
                    .sum()
            })
            .collect()
    }

    /// The set of targets holding part of object `i`.
    pub fn targets_of(&self, i: usize) -> Vec<usize> {
        (0..self.m).filter(|&j| self.rows[i][j] > EPS).collect()
    }
}

/// Administrative placement constraints (paper §4.1: "if administrative
/// constraints require certain objects to be laid out onto particular
/// targets, we can easily add such constraints").
#[derive(Clone, Debug, PartialEq)]
pub enum AdminConstraint {
    /// Object `object` must be placed entirely on target `target`.
    PinTo {
        /// Object index.
        object: usize,
        /// Target index.
        target: usize,
    },
    /// Object `object` must not use target `target`.
    Forbid {
        /// Object index.
        object: usize,
        /// Target index.
        target: usize,
    },
}

// Externally tagged struct variants, matching the serde derive:
// `{"PinTo": {"object": 0, "target": 1}}`.
impl ToJson for AdminConstraint {
    fn to_json(&self) -> Json {
        let (tag, object, target) = match *self {
            AdminConstraint::PinTo { object, target } => ("PinTo", object, target),
            AdminConstraint::Forbid { object, target } => ("Forbid", object, target),
        };
        json::variant(
            tag,
            Json::Obj(vec![
                ("object".to_string(), object.to_json()),
                ("target".to_string(), target.to_json()),
            ]),
        )
    }
}

impl FromJson for AdminConstraint {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let (tag, payload) = json::untag(v)?;
        let get = |name: &str| {
            payload
                .field(name)
                .ok_or_else(|| JsonError::missing_field(name))
        };
        let object = usize::from_json(get("object")?)?;
        let target = usize::from_json(get("target")?)?;
        match tag {
            "PinTo" => Ok(AdminConstraint::PinTo { object, target }),
            "Forbid" => Ok(AdminConstraint::Forbid { object, target }),
            other => Err(JsonError::new(format!(
                "unknown AdminConstraint variant: {other:?}"
            ))),
        }
    }
}

/// The complete advisor input: `N` objects with workload descriptions,
/// `M` targets with capacities and performance models, and optional
/// administrative constraints (paper Figure 3's parameter table).
#[derive(Clone)]
pub struct LayoutProblem {
    /// Per-object workload descriptions, names and sizes.
    pub workloads: WorkloadSet,
    /// Per-object kinds (used by heuristic baselines and reports).
    pub kinds: Vec<ObjectKind>,
    /// Target capacities in bytes (`cⱼ`).
    pub capacities: Vec<u64>,
    /// Target names (diagnostics and reports).
    pub target_names: Vec<String>,
    /// Per-target performance models.
    pub models: Vec<Arc<dyn CostModel>>,
    /// The LVM stripe size used by the layout mechanism (paper
    /// Figure 7's `StripeSize`).
    pub stripe_size: f64,
    /// Administrative constraints.
    pub constraints: Vec<AdminConstraint>,
}

impl std::fmt::Debug for LayoutProblem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Cost models are opaque closures over calibration tables;
        // print the structural description only.
        f.debug_struct("LayoutProblem")
            .field("n", &self.n())
            .field("m", &self.m())
            .field("names", &self.workloads.names)
            .field("sizes", &self.workloads.sizes)
            .field("capacities", &self.capacities)
            .field("target_names", &self.target_names)
            .field("stripe_size", &self.stripe_size)
            .field("constraints", &self.constraints)
            .finish_non_exhaustive()
    }
}

impl LayoutProblem {
    /// Number of objects `N`.
    pub fn n(&self) -> usize {
        self.workloads.len()
    }

    /// Number of targets `M`.
    pub fn m(&self) -> usize {
        self.capacities.len()
    }

    /// Validates shape consistency and workload sanity.
    pub fn validate(&self) -> Result<(), String> {
        self.workloads.validate()?;
        let n = self.n();
        let m = self.m();
        if self.kinds.len() != n {
            return Err("kinds length mismatch".into());
        }
        if self.models.len() != m || self.target_names.len() != m {
            return Err("models/target_names length mismatch".into());
        }
        if self.stripe_size <= 0.0 {
            return Err("stripe size must be positive".into());
        }
        let total: u64 = self.workloads.sizes.iter().sum();
        let cap: u64 = self.capacities.iter().sum();
        if total > cap {
            return Err(format!(
                "objects ({total} bytes) exceed total capacity ({cap} bytes)"
            ));
        }
        for c in &self.constraints {
            let (i, j) = match *c {
                AdminConstraint::PinTo { object, target } => (object, target),
                AdminConstraint::Forbid { object, target } => (object, target),
            };
            if i >= n || j >= m {
                return Err(format!("constraint references object {i} / target {j}"));
            }
        }
        Ok(())
    }

    /// True if the layout obeys every admin constraint.
    pub fn satisfies_constraints(&self, layout: &Layout) -> bool {
        self.constraints.iter().all(|c| match *c {
            AdminConstraint::PinTo { object, target } => layout.get(object, target) > 1.0 - 1e-3,
            AdminConstraint::Forbid { object, target } => layout.get(object, target) < EPS,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn see_is_valid_and_regular() {
        let l = Layout::see(3, 4);
        assert!(l.satisfies_integrity());
        assert!(l.is_regular());
        assert_eq!(l.n_objects(), 3);
        assert_eq!(l.n_targets(), 4);
        for i in 0..3 {
            assert_eq!(l.targets_of(i), vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn integrity_violations_detected() {
        let mut l = Layout::see(2, 2);
        l.set(0, 0, 0.9); // row 0 now sums to 1.4
        assert!(!l.satisfies_integrity());
        let z = Layout::zero(1, 2);
        assert!(!z.satisfies_integrity());
    }

    #[test]
    fn capacity_check() {
        let l = Layout::from_rows(vec![vec![1.0, 0.0], vec![1.0, 0.0]]);
        let sizes = [600, 600];
        assert!(!l.satisfies_capacity(&sizes, &[1000, 1000]));
        assert!(l.satisfies_capacity(&sizes, &[1200, 0]));
        let spread = Layout::see(2, 2);
        assert!(spread.satisfies_capacity(&sizes, &[1000, 1000]));
    }

    #[test]
    fn regularity_definition() {
        // (50%, 50%, 0) regular; (47%, 35%, 18%) not.
        let r = Layout::from_rows(vec![vec![0.5, 0.5, 0.0]]);
        assert!(r.is_regular());
        let nr = Layout::from_rows(vec![vec![0.47, 0.35, 0.18]]);
        assert!(!nr.is_regular());
        let single = Layout::from_rows(vec![vec![0.0, 1.0, 0.0]]);
        assert!(single.is_regular());
    }

    #[test]
    fn flat_round_trip() {
        let l = Layout::from_rows(vec![vec![0.25, 0.75], vec![1.0, 0.0]]);
        let flat = l.to_flat();
        assert_eq!(flat, vec![0.25, 0.75, 1.0, 0.0]);
        let back = Layout::from_flat(&flat, 2, 2);
        assert_eq!(l, back);
    }

    #[test]
    fn bytes_per_target_weighted_by_size() {
        let l = Layout::from_rows(vec![vec![0.5, 0.5], vec![0.0, 1.0]]);
        let b = l.bytes_per_target(&[100, 50]);
        assert_eq!(b, vec![50.0, 100.0]);
    }
}
