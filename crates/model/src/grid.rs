//! Non-uniform grids and trilinear interpolation.

use wasla_simlib::impl_json_struct;

/// A sorted, strictly increasing axis of calibration points.
#[derive(Clone, Debug, PartialEq)]
pub struct Axis {
    points: Vec<f64>,
}

impl Axis {
    /// Creates an axis. Points must be strictly increasing and
    /// non-empty.
    pub fn new(points: Vec<f64>) -> Self {
        assert!(!points.is_empty());
        assert!(
            points.windows(2).all(|w| w[0] < w[1]),
            "axis points must be strictly increasing"
        );
        Axis { points }
    }

    /// The calibration points.
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the axis has a single point.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Finds the bracketing interval and interpolation weight for `x`,
    /// clamping outside the range: returns `(i, w)` such that the value
    /// is `v[i] * (1-w) + v[i+1] * w` (with `i+1` clamped).
    pub fn locate(&self, x: f64) -> (usize, f64) {
        let pts = &self.points;
        if x <= pts[0] || pts.len() == 1 {
            return (0, 0.0);
        }
        if x >= pts[pts.len() - 1] {
            return (pts.len() - 1, 0.0);
        }
        let i = count_le(pts, x) - 1;
        let w = (x - pts[i]) / (pts[i + 1] - pts[i]);
        (i, w)
    }

    /// [`Axis::locate`] plus the derivative `dw/dx` of the
    /// interpolation weight. `(i, w)` is bit-identical to `locate`.
    ///
    /// The interpolant is piecewise linear, so the derivative is a
    /// subgradient at kinks; the choice is pinned as follows and relied
    /// on by the analytic solver gradient:
    ///
    /// * strictly below the bottom knot, at/above the top knot, and on
    ///   single-point axes the interpolant is clamped flat → `0`;
    /// * exactly on the bottom knot or any interior knot → the
    ///   *right*-cell slope `1/(pts[i+1] - pts[i])` (matches a forward
    ///   difference stepping into the grid);
    /// * interior of a cell → `1/(pts[i+1] - pts[i])`.
    pub fn locate_with_deriv(&self, x: f64) -> (usize, f64, f64) {
        let pts = &self.points;
        if pts.len() == 1 || x < pts[0] {
            return (0, 0.0, 0.0);
        }
        if x == pts[0] {
            return (0, 0.0, 1.0 / (pts[1] - pts[0]));
        }
        if x >= pts[pts.len() - 1] {
            return (pts.len() - 1, 0.0, 0.0);
        }
        let i = count_le(pts, x) - 1;
        let denom = pts[i + 1] - pts[i];
        let w = (x - pts[i]) / denom;
        (i, w, 1.0 / denom)
    }
}

impl_json_struct!(Axis { points });

/// The number of points `≤ x`: on a strictly increasing axis, the same
/// index `partition_point(|&p| p <= x)` finds. The axes hold a handful
/// of points (7, 9 and 7 on the default grid), where a branchless count
/// costs less than a binary search's data-dependent branches.
#[inline]
fn count_le(pts: &[f64], x: f64) -> usize {
    pts.iter().map(|&p| usize::from(p <= x)).sum()
}

/// A dense 3-D table over (size, run count, contention) with trilinear
/// interpolation.
///
/// A table may be partly calibrated: the cells of a (size, run) column
/// are measured together across the whole contention axis, and the
/// cells of an unmeasured column hold NaN, so an interpolation that
/// reads one returns NaN (and trips a debug assertion) instead of a
/// plausible number.
#[derive(Clone, Debug, PartialEq)]
pub struct Grid3 {
    /// Request-size axis (bytes).
    pub sizes: Axis,
    /// Run-count axis (requests).
    pub runs: Axis,
    /// Contention-factor axis.
    pub contentions: Axis,
    /// Row-major values: `[size][run][contention]`.
    values: Vec<f64>,
}

impl_json_struct!(Grid3 {
    sizes,
    runs,
    contentions,
    values
});

impl Grid3 {
    /// Creates a grid from axes and a filled value table.
    pub fn new(sizes: Axis, runs: Axis, contentions: Axis, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), sizes.len() * runs.len() * contentions.len());
        Grid3 {
            sizes,
            runs,
            contentions,
            values,
        }
    }

    /// A grid over the given axes with no column measured yet: every
    /// cell is NaN.
    pub(crate) fn unmeasured(sizes: Axis, runs: Axis, contentions: Axis) -> Self {
        let cells = sizes.len() * runs.len() * contentions.len();
        Grid3::new(sizes, runs, contentions, vec![f64::NAN; cells])
    }

    #[inline]
    fn index(&self, i: usize, j: usize, k: usize) -> usize {
        (i * self.runs.len() + j) * self.contentions.len() + k
    }

    #[inline]
    fn at(&self, i: usize, j: usize, k: usize) -> f64 {
        self.values[self.index(i, j, k)]
    }

    /// Whether the (size `i`, run `j`) column has been measured. A
    /// column is measured whole, so its first cell decides.
    pub(crate) fn column_measured(&self, i: usize, j: usize) -> bool {
        !self.at(i, j, 0).is_nan()
    }

    /// Stores one measured cell.
    pub(crate) fn set(&mut self, i: usize, j: usize, k: usize, value: f64) {
        let idx = self.index(i, j, k);
        self.values[idx] = value;
    }

    /// Trilinear interpolation at (size, run, contention), clamped to
    /// the calibrated range.
    pub fn interpolate(&self, size: f64, run: f64, contention: f64) -> f64 {
        let (i, wi) = self.sizes.locate(size);
        let (j, wj) = self.runs.locate(run);
        let (k, wk) = self.contentions.locate(contention);
        let i1 = (i + 1).min(self.sizes.len() - 1);
        let j1 = (j + 1).min(self.runs.len() - 1);
        let k1 = (k + 1).min(self.contentions.len() - 1);
        let c000 = self.at(i, j, k);
        let c001 = self.at(i, j, k1);
        let c010 = self.at(i, j1, k);
        let c011 = self.at(i, j1, k1);
        let c100 = self.at(i1, j, k);
        let c101 = self.at(i1, j, k1);
        let c110 = self.at(i1, j1, k);
        let c111 = self.at(i1, j1, k1);
        let c00 = c000 * (1.0 - wk) + c001 * wk;
        let c01 = c010 * (1.0 - wk) + c011 * wk;
        let c10 = c100 * (1.0 - wk) + c101 * wk;
        let c11 = c110 * (1.0 - wk) + c111 * wk;
        let c0 = c00 * (1.0 - wj) + c01 * wj;
        let c1 = c10 * (1.0 - wj) + c11 * wj;
        let value = c0 * (1.0 - wi) + c1 * wi;
        debug_assert!(
            value.is_finite(),
            "interpolation at ({size}, {run}, {contention}) read an unmeasured cell"
        );
        value
    }

    /// Trilinear interpolation plus the exact gradient w.r.t.
    /// `(size, run, contention)`. The value is computed with the same
    /// lerp ordering as [`Grid3::interpolate`] and is bit-identical to
    /// it; the partials are the per-cell slopes of the piecewise-linear
    /// interpolant, with kink subgradients pinned by
    /// [`Axis::locate_with_deriv`] (clamped regions are flat, knots
    /// take the right-cell slope).
    pub fn interpolate_with_grad(&self, size: f64, run: f64, contention: f64) -> (f64, [f64; 3]) {
        let (i, wi, dwi) = self.sizes.locate_with_deriv(size);
        let (j, wj, dwj) = self.runs.locate_with_deriv(run);
        let (k, wk, dwk) = self.contentions.locate_with_deriv(contention);
        let i1 = (i + 1).min(self.sizes.len() - 1);
        let j1 = (j + 1).min(self.runs.len() - 1);
        let k1 = (k + 1).min(self.contentions.len() - 1);
        let c000 = self.at(i, j, k);
        let c001 = self.at(i, j, k1);
        let c010 = self.at(i, j1, k);
        let c011 = self.at(i, j1, k1);
        let c100 = self.at(i1, j, k);
        let c101 = self.at(i1, j, k1);
        let c110 = self.at(i1, j1, k);
        let c111 = self.at(i1, j1, k1);
        let c00 = c000 * (1.0 - wk) + c001 * wk;
        let c01 = c010 * (1.0 - wk) + c011 * wk;
        let c10 = c100 * (1.0 - wk) + c101 * wk;
        let c11 = c110 * (1.0 - wk) + c111 * wk;
        let c0 = c00 * (1.0 - wj) + c01 * wj;
        let c1 = c10 * (1.0 - wj) + c11 * wj;
        let value = c0 * (1.0 - wi) + c1 * wi;
        debug_assert!(
            value.is_finite(),
            "interpolation at ({size}, {run}, {contention}) read an unmeasured cell"
        );
        let d_size = (c1 - c0) * dwi;
        let d_run = ((c01 - c00) * (1.0 - wi) + (c11 - c10) * wi) * dwj;
        let d_con = (((c001 - c000) * (1.0 - wj) + (c011 - c010) * wj) * (1.0 - wi)
            + ((c101 - c100) * (1.0 - wj) + (c111 - c110) * wj) * wi)
            * dwk;
        (value, [d_size, d_run, d_con])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasla_simlib::proptest::prelude::*;

    #[test]
    fn locate_brackets_and_clamps() {
        let ax = Axis::new(vec![1.0, 2.0, 4.0]);
        assert_eq!(ax.locate(0.5), (0, 0.0));
        assert_eq!(ax.locate(1.0), (0, 0.0));
        let (i, w) = ax.locate(1.5);
        assert_eq!(i, 0);
        assert!((w - 0.5).abs() < 1e-12);
        let (i, w) = ax.locate(3.0);
        assert_eq!(i, 1);
        assert!((w - 0.5).abs() < 1e-12);
        assert_eq!(ax.locate(4.0), (2, 0.0));
        assert_eq!(ax.locate(99.0), (2, 0.0));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_axis_rejected() {
        Axis::new(vec![1.0, 1.0]);
    }

    fn linear_grid() -> Grid3 {
        // values = size + 10*run + 100*contention at grid points.
        let sizes = Axis::new(vec![1.0, 2.0]);
        let runs = Axis::new(vec![1.0, 3.0]);
        let cons = Axis::new(vec![0.0, 4.0]);
        let mut values = Vec::new();
        for &s in sizes.points() {
            for &r in runs.points() {
                for &c in cons.points() {
                    values.push(s + 10.0 * r + 100.0 * c);
                }
            }
        }
        Grid3::new(sizes, runs, cons, values)
    }

    #[test]
    fn interpolates_linear_function_exactly() {
        let g = linear_grid();
        for (s, r, c) in [
            (1.0, 1.0, 0.0),
            (1.5, 2.0, 2.0),
            (2.0, 3.0, 4.0),
            (1.25, 1.5, 1.0),
        ] {
            let expect = s + 10.0 * r + 100.0 * c;
            let got = g.interpolate(s, r, c);
            assert!((got - expect).abs() < 1e-9, "({s},{r},{c}) got {got}");
        }
    }

    #[test]
    fn clamps_outside_range() {
        let g = linear_grid();
        // Below and above the grid use edge values.
        assert!((g.interpolate(0.1, 1.0, 0.0) - 11.0).abs() < 1e-9);
        assert!((g.interpolate(5.0, 3.0, 4.0) - 432.0).abs() < 1e-9);
    }

    #[test]
    fn grad_of_linear_function_is_exact() {
        let g = linear_grid();
        for (s, r, c) in [(1.5, 2.0, 2.0), (1.25, 1.5, 1.0), (1.9, 2.9, 3.9)] {
            let (v, d) = g.interpolate_with_grad(s, r, c);
            assert_eq!(v.to_bits(), g.interpolate(s, r, c).to_bits());
            assert!((d[0] - 1.0).abs() < 1e-9, "d_size {}", d[0]);
            assert!((d[1] - 10.0).abs() < 1e-9, "d_run {}", d[1]);
            assert!((d[2] - 100.0).abs() < 1e-9, "d_con {}", d[2]);
        }
    }

    #[test]
    fn grad_is_zero_in_clamped_regions() {
        let g = linear_grid();
        // Strictly below the bottom knot and at/above the top knot the
        // interpolant is flat, so every clamped axis contributes zero.
        let (_, d) = g.interpolate_with_grad(0.1, 1.5, 1.0);
        assert_eq!(d[0], 0.0);
        assert!((d[1] - 10.0).abs() < 1e-9);
        let (_, d) = g.interpolate_with_grad(5.0, 9.0, 99.0);
        assert_eq!(d, [0.0, 0.0, 0.0]);
    }

    #[test]
    fn grad_on_knots_takes_right_cell_slope() {
        // Bottom and interior knots pin the subgradient to the
        // right-cell slope; the top knot is clamped flat.
        let ax = Axis::new(vec![1.0, 2.0, 4.0]);
        let (i, w, d) = ax.locate_with_deriv(1.0);
        assert_eq!((i, w), ax.locate(1.0));
        assert!((d - 1.0).abs() < 1e-12, "bottom knot: {d}");
        let (i, w, d) = ax.locate_with_deriv(2.0);
        assert_eq!((i, w), ax.locate(2.0));
        assert!((d - 0.5).abs() < 1e-12, "interior knot: {d}");
        let (i, w, d) = ax.locate_with_deriv(4.0);
        assert_eq!((i, w), ax.locate(4.0));
        assert_eq!(d, 0.0, "top knot clamps flat");
    }

    #[test]
    fn single_knot_axis_has_zero_derivative() {
        let sizes = Axis::new(vec![8.0]);
        let runs = Axis::new(vec![1.0, 2.0]);
        let cons = Axis::new(vec![0.5]);
        let g = Grid3::new(sizes, runs, cons, vec![3.0, 7.0]);
        let (v, d) = g.interpolate_with_grad(8.0, 1.5, 0.5);
        assert!((v - 5.0).abs() < 1e-12);
        assert_eq!(d[0], 0.0);
        assert!((d[1] - 4.0).abs() < 1e-12);
        assert_eq!(d[2], 0.0);
        // Degenerate queries off the single knot still clamp cleanly.
        let (_, d) = g.interpolate_with_grad(99.0, 1.5, -3.0);
        assert_eq!(d[0], 0.0);
        assert_eq!(d[2], 0.0);
    }

    fn curved_grid() -> Grid3 {
        // A non-linear table so the gradient actually varies per cell.
        let sizes = Axis::new(vec![1.0, 2.0, 4.0, 8.0]);
        let runs = Axis::new(vec![1.0, 3.0, 9.0]);
        let cons = Axis::new(vec![0.0, 1.0, 4.0]);
        let mut values = Vec::new();
        for &s in sizes.points() {
            for &r in runs.points() {
                for &c in cons.points() {
                    values.push(s * s + r * c + (s + r + c).sqrt());
                }
            }
        }
        Grid3::new(sizes, runs, cons, values)
    }

    /// The binary-search bracket `locate` and `locate_with_deriv` are
    /// checked against: `partition_point` over the axis.
    fn locate_oracle(ax: &Axis, x: f64) -> (usize, f64) {
        let pts = ax.points();
        if x <= pts[0] || pts.len() == 1 {
            return (0, 0.0);
        }
        if x >= pts[pts.len() - 1] {
            return (pts.len() - 1, 0.0);
        }
        let i = pts.partition_point(|&p| p <= x) - 1;
        (i, (x - pts[i]) / (pts[i + 1] - pts[i]))
    }

    fn locate_with_deriv_oracle(ax: &Axis, x: f64) -> (usize, f64, f64) {
        let pts = ax.points();
        if pts.len() == 1 || x < pts[0] {
            return (0, 0.0, 0.0);
        }
        if x == pts[0] {
            return (0, 0.0, 1.0 / (pts[1] - pts[0]));
        }
        if x >= pts[pts.len() - 1] {
            return (pts.len() - 1, 0.0, 0.0);
        }
        let i = pts.partition_point(|&p| p <= x) - 1;
        let denom = pts[i + 1] - pts[i];
        (i, (x - pts[i]) / denom, 1.0 / denom)
    }

    /// A strictly increasing axis from a start point and positive gaps.
    fn axis_from(start: f64, gaps: &[f64]) -> Axis {
        let mut points = vec![start];
        for g in gaps {
            let next = points[points.len() - 1] + g;
            points.push(next);
        }
        Axis::new(points)
    }

    proptest! {
        /// The branchless bracket equals the binary search bit for bit
        /// on random axes (one-point axes included): at random points,
        /// exactly on every knot, and below and above the range.
        #[test]
        fn locate_matches_partition_point_oracle(
            start in -50.0f64..50.0,
            gaps in collection::vec(0.001f64..20.0, 0usize..12),
            picks in collection::vec((0usize..4, 0.0f64..1.0), 1usize..16),
        ) {
            let ax = axis_from(start, &gaps);
            let pts = ax.points();
            let (lo, hi) = (pts[0], pts[pts.len() - 1]);
            for (mode, t) in picks {
                let x = match mode {
                    0 => lo + t * (hi - lo),
                    1 => pts[((t * pts.len() as f64) as usize).min(pts.len() - 1)],
                    2 => lo - 1.0 - t * 100.0,
                    _ => hi + 1.0 + t * 100.0,
                };
                let (i, w) = ax.locate(x);
                let (oi, ow) = locate_oracle(&ax, x);
                prop_assert_eq!((i, w.to_bits()), (oi, ow.to_bits()), "locate({})", x);
                let (i, w, d) = ax.locate_with_deriv(x);
                let (oi, ow, od) = locate_with_deriv_oracle(&ax, x);
                prop_assert_eq!(
                    (i, w.to_bits(), d.to_bits()),
                    (oi, ow.to_bits(), od.to_bits()),
                    "locate_with_deriv({})",
                    x
                );
            }
        }

        /// The value half of `interpolate_with_grad` is bit-identical
        /// to `interpolate` everywhere, including clamped queries.
        #[test]
        fn grad_value_matches_interpolate_bitwise(
            s in -1.0f64..10.0,
            r in -1.0f64..12.0,
            c in -1.0f64..6.0,
        ) {
            let g = curved_grid();
            let (v, _) = g.interpolate_with_grad(s, r, c);
            prop_assert_eq!(v.to_bits(), g.interpolate(s, r, c).to_bits());
        }

        /// Each partial matches a central difference of `interpolate`
        /// once the step is small enough that the bracket stays inside
        /// one grid cell (the interpolant is linear per cell, so the
        /// error vanishes with shrinking h except exactly on knots —
        /// measure zero for these draws).
        #[test]
        fn grad_matches_central_difference_with_shrinking_h(
            s in 1.01f64..7.9,
            r in 1.01f64..8.9,
            c in 0.01f64..3.9,
        ) {
            let g = curved_grid();
            let (_, d) = g.interpolate_with_grad(s, r, c);
            let x = [s, r, c];
            for axis in 0..3 {
                let fd = |h: f64| {
                    let mut hi = x;
                    let mut lo = x;
                    hi[axis] += h;
                    lo[axis] -= h;
                    (g.interpolate(hi[0], hi[1], hi[2]) - g.interpolate(lo[0], lo[1], lo[2]))
                        / (2.0 * h)
                };
                // Shrink h: the smallest error over the ladder must be
                // O(h) — brackets that cross a knot give O(1) error,
                // but some rung always fits inside the cell.
                let best = [1e-3, 1e-4, 1e-5, 1e-6]
                    .iter()
                    .map(|&h| (fd(h) - d[axis]).abs())
                    .fold(f64::INFINITY, f64::min);
                prop_assert!(
                    best < 1e-5 * (1.0 + d[axis].abs()),
                    "axis {axis} at {x:?}: analytic {} err {best}",
                    d[axis]
                );
            }
        }
    }
}
