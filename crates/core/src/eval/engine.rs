//! The incremental evaluation engine — the one evaluator production
//! code runs.
//!
//! [`EvalEngine`] holds one *committed point* `x` (the flat layout
//! vector) together with every derived quantity the NLP objective
//! needs, and keeps all of it consistent under single-coordinate
//! commits:
//!
//! * `w[i][j]` — the Figure 7 layout-model memo
//!   `apply(specᵢ, xᵢⱼ)`, keyed by the committed fraction;
//! * the competing sum of every `(i, j)` — the canonical pairwise sum
//!   of `(Rᵢₖ)·f_kj` over `k ≠ i` (see [`crate::eval::kernel`]), the
//!   numerator of `χᵢⱼ` — always current in `roots`;
//! * per column `j`, on demand, the heap-layout trees behind those
//!   sums, which single-coordinate commits and probes walk;
//! * `µ[i][j]` and the per-target folds `µⱼ`;
//! * capacity column sums `Σᵢ sᵢ·xᵢⱼ` for the AugLag constraints.
//!
//! A full rebuild computes every root of a column at once, leaf-major:
//! a reused `N×N` scratch whose row `l` holds leaf `l` of every tree of
//! the column (`Rᵀ` row `l` times `f_lj`, self slot zeroed), reduced
//! level by level with contiguous row adds in the canonical tree
//! shape. A row whose fraction is gated (`f ≤ EPS`) is all `+0.0` and
//! is never filled or added: a pair with one dead row takes the live
//! row as it is, a pair of dead rows stays dead, and the padding rows
//! `N..P` are always dead. Every leaf is `≥ +0.0` and `x + (+0.0) == x`
//! bitwise, so each root keeps the bits of `kernel::pairwise_sum`
//! (DESIGN.md §10). The rebuild writes no tree: most rebuilds (the
//! line search's trial points) are never followed by a commit or probe
//! before the next rebuild. A column's trees are materialized only
//! when a commit or probe first touches that column after a rebuild;
//! they reduce the same leaves in the same shape, so every root has
//! the same bits whichever path produced it.
//!
//! A *probe* asks for `µⱼ` with `xᵢⱼ := v` without committing: only
//! the trees of column `j` whose leaf `i` actually changes (bitwise)
//! are walked root-ward, and every other `µₖⱼ` cell is served from
//! cache — exact, because identical inputs into deterministic cost
//! models yield identical outputs. That makes a probe — the
//! regularizer's candidate rows and the re-layout planner's per-object
//! wins — O(N + d·(log N + model)) where `d` is object `i`'s overlap
//! degree, instead of the O(N²) of a from-scratch single-target
//! evaluation.
//!
//! The solver's gradient is analytic ([`EvalEngine::grad_at`]), one
//! chain-rule pass over the cached state with zero probes.
//! [`crate::estimator::UtilizationEstimator`] is the from-scratch
//! reference every cached value and the gradient are tested against,
//! bit for bit.
//!
//! Memory: the trees take `N·M · 2·P` f64s (`P = N` rounded up to a
//! power of two) — about 4 MiB at N=128, M=16 — the price of exact
//! O(log N) leaf replacement. The rebuild's leaf-major scratch takes
//! `N·N` f64s (128 KiB at N=128), plus `Rᵀ` at the same size.

use crate::eval::grad::{self, CrossAdjacency};
use crate::eval::objective::ObjectiveKind;
use crate::eval::stats::EvalStats;
use crate::layout_model::{self, PerTargetWorkload};
use crate::problem::{Layout, LayoutProblem, EPS};
use wasla_solver::{lse_max, softmax_weights};
use wasla_storage::IoKind;

/// A `node_rows` entry for a subtree whose every leaf is `+0.0`.
const DEAD: usize = usize::MAX;

/// Incremental evaluator for one [`LayoutProblem`].
pub struct EvalEngine<'a> {
    problem: &'a LayoutProblem,
    n: usize,
    m: usize,
    /// Leaf slots per competing-sum tree: `n` rounded up to a power of
    /// two (the fixed reduction shape of `kernel::pairwise_sum`).
    p: usize,
    stripe: f64,
    /// The rate-weighted overlaps `Rᵢₖ = rateₖ·Oᵢ[k]`, stored
    /// transposed: `rw_t[k*n + i] = Rᵢₖ`, so row `k` holds leaf `k` of
    /// every tree in a column (layout-independent).
    rw_t: Vec<f64>,
    /// Object sizes, pre-cast to f64.
    sizes: Vec<f64>,
    /// The committed point, row-major n×m.
    x: Vec<f64>,
    /// Layout-model memos for the committed fractions, row-major n×m.
    w: Vec<PerTargetWorkload>,
    /// Competing sums, column-major: `roots[j*n + i]` is the pairwise
    /// sum of tree `(i, j)` at the committed point, always current.
    roots: Vec<f64>,
    /// Heap-layout competing-sum trees: tree `(i, j)` occupies
    /// `[(j*n + i)*2p, (j*n + i + 1)*2p)`; node 1 is the root, leaves
    /// sit at `p..p+n`, and leaf `i` (the self slot) plus the padding
    /// leaves stay `+0.0`. Column `j`'s trees are valid only while
    /// `live[j]` holds.
    trees: Vec<f64>,
    /// Per column: are its trees materialized at the committed point?
    live: Vec<bool>,
    /// Leaf-major reduction scratch for one column, n×n: row `l`
    /// holds leaf `l` of every tree `(i, j)`.
    leaf_rows: Vec<f64>,
    /// Per heap node of the level being reduced: the scratch row that
    /// holds its partial sums, or [`DEAD`] when they are all `+0.0`
    /// (`p` slots).
    node_rows: Vec<usize>,
    /// Committed `µᵢⱼ` cells, row-major n×m.
    mu: Vec<f64>,
    /// Committed per-target utilizations `µⱼ` (left fold of `mu` in
    /// object order — same fold as `UtilizationEstimator`).
    mu_col: Vec<f64>,
    /// Committed capacity column sums `Σᵢ sᵢ·xᵢⱼ`.
    cap_used: Vec<f64>,
    /// Softmax scratch for the analytic gradient.
    smax: Vec<f64>,
    /// Scratch flat point for [`EvalEngine::set_layout`].
    xbuf: Vec<f64>,
    /// The objective this engine scores for.
    objective: ObjectiveKind,
    /// The objective's per-target penalty weights (layout-independent;
    /// exactly 1.0 under the default `MinMax` objective).
    obj_w: Vec<f64>,
    /// Scratch column for the weighted utilization vector `wⱼ·µⱼ`.
    wcol: Vec<f64>,
    /// Sparse transposed overlap rows for the analytic cross terms
    /// (layout-independent; the estimator's reference gradient builds
    /// the same rows).
    cross: CrossAdjacency,
    /// Scratch per-object own-term derivatives for one column.
    grad_du: Vec<f64>,
    /// Scratch per-object contention sensitivities for one column.
    grad_cs: Vec<f64>,
    /// Work counters (cumulative).
    pub stats: EvalStats,
}

impl<'a> EvalEngine<'a> {
    /// Builds the engine for the default min-max objective and commits
    /// the all-zero layout.
    pub fn new(problem: &'a LayoutProblem) -> Self {
        Self::with_objective(problem, ObjectiveKind::MinMax)
    }

    /// Builds the engine scoring for `objective` and commits the
    /// all-zero layout. The utilization caches are objective-agnostic;
    /// only the `score*` family applies the penalty weights.
    pub fn with_objective(problem: &'a LayoutProblem, objective: ObjectiveKind) -> Self {
        let n = problem.n();
        let m = problem.m();
        let p = n.next_power_of_two().max(1);
        let specs = &problem.workloads.specs;
        let rates: Vec<f64> = specs.iter().map(|s| s.total_rate()).collect();
        let mut rw_t = vec![0.0; n * n];
        for i in 0..n {
            for k in 0..n {
                rw_t[k * n + i] = rates[k] * specs[i].overlaps[k];
            }
        }
        // The memo of a zero fraction depends on the object alone.
        let mut zero_w = Vec::with_capacity(n * m);
        for spec in specs {
            let w = layout_model::apply(spec, 0.0, problem.stripe_size);
            zero_w.extend(std::iter::repeat(w).take(m));
        }
        // Every cache below is already what a rebuild at the all-zero
        // layout writes: a gated cell prices to 0 before any model is
        // read and every competing sum is +0.0.
        EvalEngine {
            problem,
            n,
            m,
            p,
            stripe: problem.stripe_size,
            rw_t,
            sizes: problem.workloads.sizes.iter().map(|&s| s as f64).collect(),
            x: vec![0.0; n * m],
            w: zero_w,
            roots: vec![0.0; n * m],
            trees: vec![0.0; m * n * 2 * p],
            live: vec![false; m],
            leaf_rows: vec![0.0; n * n],
            node_rows: vec![DEAD; p],
            mu: vec![0.0; n * m],
            mu_col: vec![0.0; m],
            cap_used: vec![0.0; m],
            smax: Vec::with_capacity(m),
            xbuf: vec![0.0; n * m],
            objective,
            obj_w: objective.weights(problem),
            wcol: vec![0.0; m],
            cross: CrossAdjacency::build(specs),
            grad_du: vec![0.0; n],
            grad_cs: vec![0.0; n],
            stats: EvalStats::default(),
        }
    }

    /// The objective this engine scores for.
    pub fn objective(&self) -> ObjectiveKind {
        self.objective
    }

    /// Restores the freshly built state in place, without
    /// reallocating: the all-zero layout committed, every tree stale
    /// and every counter zero. A reused engine then does exactly the
    /// work, counters included, that a new one would.
    pub fn reset(&mut self) {
        let m = self.m;
        let specs = &self.problem.workloads.specs;
        for (i, spec) in specs.iter().enumerate() {
            let w = layout_model::apply(spec, 0.0, self.stripe);
            self.w[i * m..(i + 1) * m].fill(w);
        }
        self.x.fill(0.0);
        self.roots.fill(0.0);
        self.live.fill(false);
        self.mu.fill(0.0);
        self.mu_col.fill(0.0);
        self.cap_used.fill(0.0);
        self.stats = EvalStats::default();
    }

    // hot-closure-begin: everything below runs inside solver
    // objective/gradient closures and must not allocate (ci/check.sh
    // greps this region for allocation idioms).

    /// Recomputes every cache from scratch at `x`, except the trees:
    /// each column's competing sums are reduced leaf-major in the
    /// scratch rows ([`Self::reduce_column`]), and every column's trees
    /// are left stale until [`Self::materialize`] needs them.
    fn rebuild(&mut self, x: &[f64]) {
        self.stats.full_rebuilds += 1;
        let (n, m) = (self.n, self.m);
        self.x.copy_from_slice(x);
        let specs = &self.problem.workloads.specs;
        for i in 0..n {
            for j in 0..m {
                self.w[i * m + j] = layout_model::apply(&specs[i], x[i * m + j], self.stripe);
            }
        }
        for j in 0..m {
            self.reduce_column(j);
            self.live[j] = false;
        }
        for i in 0..n {
            for j in 0..m {
                self.mu[i * m + j] = self.mu_committed(i, j);
            }
        }
        for j in 0..m {
            self.refold_column(j);
        }
    }

    /// Writes the competing sums of every tree `(i, j)` of column `j`
    /// at the committed point into `roots`, all at once: row `l` of
    /// the scratch holds leaf `l` of every tree, and heap node `v` of
    /// a level is the row-wise sum of its two children's rows — the
    /// operand pairs and tree shape of `kernel::pairwise_sum`, for
    /// `n` trees per row add. A gated row (`f_lj ≤ EPS`) and a padding
    /// row are all `+0.0`; they are never filled or added, since
    /// `x + (+0.0) == x` bitwise for every leaf `x ≥ +0.0`. The final
    /// `+ 0.0` maps a `-0.0` root (possible only from a `-0.0` leaf,
    /// which `pairwise_sum` would have added to a `+0.0`) to the
    /// `+0.0` the kernel returns, so the roots match it for any finite
    /// leaves.
    fn reduce_column(&mut self, j: usize) {
        let (n, m, p) = (self.n, self.m, self.p);
        let rows = &mut self.leaf_rows;
        let node = &mut self.node_rows;
        for l in 0..n {
            let f = self.x[l * m + j];
            if f <= EPS {
                node[l] = DEAD;
                continue;
            }
            let row = &mut rows[l * n..(l + 1) * n];
            for (leaf, &r) in row.iter_mut().zip(&self.rw_t[l * n..(l + 1) * n]) {
                *leaf = r * f;
            }
            row[l] = 0.0; // leaf l of tree (l, j) is its self slot
            node[l] = l;
        }
        node[n..p].fill(DEAD);
        // Level by level: node v of the half-width level is heap node
        // (width + v), the sum of its two children. The left child's
        // row always precedes the right child's, so the sum lands in
        // place in the left row.
        let mut width = p;
        while width > 1 {
            width /= 2;
            for v in 0..width {
                let (a, b) = (node[2 * v], node[2 * v + 1]);
                node[v] = if b == DEAD {
                    a
                } else if a == DEAD {
                    b
                } else {
                    let (left, right) = rows.split_at_mut(b * n);
                    for (s, &t) in left[a * n..(a + 1) * n].iter_mut().zip(&right[..n]) {
                        *s += t;
                    }
                    a
                };
            }
        }
        let roots = &mut self.roots[j * n..(j + 1) * n];
        match node[0] {
            DEAD => roots.fill(0.0),
            r => {
                for (root, &s) in roots.iter_mut().zip(&rows[r * n..(r + 1) * n]) {
                    *root = s + 0.0;
                }
            }
        }
    }

    /// Builds column `j`'s heap trees at the committed point, unless
    /// they are already current. Their roots equal the cached `roots`
    /// bitwise: same leaves, same reduction shape.
    fn materialize(&mut self, j: usize) {
        if self.live[j] {
            return;
        }
        let (n, m, p) = (self.n, self.m, self.p);
        for i in 0..n {
            let base = (j * n + i) * 2 * p;
            for l in 0..p {
                self.trees[base + p + l] = if l >= n || l == i {
                    0.0
                } else {
                    let f = self.x[l * m + j];
                    if f <= EPS {
                        0.0
                    } else {
                        self.rw_t[l * n + i] * f
                    }
                };
            }
            for v in (1..p).rev() {
                self.trees[base + v] = self.trees[base + 2 * v] + self.trees[base + 2 * v + 1];
            }
            debug_assert_eq!(
                self.trees[base + 1].to_bits(),
                self.roots[j * n + i].to_bits()
            );
        }
        self.live[j] = true;
    }

    /// `µᵢⱼ` from the committed fraction, memo, and competing sum.
    fn mu_committed(&mut self, i: usize, j: usize) -> f64 {
        let f = self.x[i * self.m + j];
        let w = self.w[i * self.m + j];
        let competing = self.roots[j * self.n + i];
        self.mu_value(j, f, &w, competing)
    }

    /// Eq. 1 for one cell given its fraction, layout-model memo, and
    /// competing-rate sum. Gate order matches
    /// `UtilizationEstimator::object_target_utilization` exactly.
    fn mu_value(&mut self, j: usize, f: f64, w: &PerTargetWorkload, competing: f64) -> f64 {
        if f <= EPS {
            return 0.0;
        }
        let own = w.total_rate();
        if own <= 0.0 {
            return 0.0;
        }
        let chi = competing / own;
        self.stats.cost_model_calls += 2;
        let model = &self.problem.models[j];
        w.read_rate * model.request_cost(IoKind::Read, w.read_size, w.run_count, chi)
            + w.write_rate * model.request_cost(IoKind::Write, w.write_size, w.run_count, chi)
    }

    /// Recomputes `µⱼ` and the capacity column sum of target `j` as
    /// fresh object-order left folds (the estimator's association).
    fn refold_column(&mut self, j: usize) {
        let mut mu_sum = 0.0;
        let mut used = 0.0;
        for i in 0..self.n {
            mu_sum += self.mu[i * self.m + j];
            used += self.sizes[i] * self.x[i * self.m + j];
        }
        self.mu_col[j] = mu_sum;
        self.cap_used[j] = used;
    }

    /// Commits `x` as the current point. Bit-unchanged coordinates
    /// cost nothing; at most `M` changed coordinates commit
    /// incrementally; more trigger a full rebuild. Caches are pure
    /// functions of the committed point, so both paths give the same
    /// bits.
    pub fn set_point(&mut self, x: &[f64]) {
        debug_assert_eq!(x.len(), self.n * self.m);
        let mut changed = 0usize;
        for (a, b) in x.iter().zip(&self.x) {
            if a.to_bits() != b.to_bits() {
                changed += 1;
            }
        }
        if changed == 0 {
            return;
        }
        // A rebuild costs 2·N·M model calls and a coordinate commit
        // about 2·N (plus materializing the column's stale trees), so
        // past about one changed coordinate per column the rebuild is
        // the cheaper way to the same caches.
        if changed > self.m {
            self.rebuild(x);
            return;
        }
        for c in 0..x.len() {
            if x[c].to_bits() != self.x[c].to_bits() {
                self.commit_coord(c / self.m, c % self.m, x[c]);
            }
        }
    }

    /// Commits a single coordinate `xᵢⱼ := v`, updating leaf `i` of
    /// every tree in column `j`, the affected `µ` cells, and the
    /// column folds. The resulting caches are bitwise identical to a
    /// full rebuild at the new point (caches are pure functions of the
    /// committed point; see DESIGN.md §10).
    fn commit_coord(&mut self, i: usize, j: usize, v: f64) {
        self.stats.coord_commits += 1;
        // The trees must reflect the point *before* this commit, so
        // the leaf comparison below sees the change.
        self.materialize(j);
        let (n, m, p) = (self.n, self.m, self.p);
        self.w[i * m + j] = layout_model::apply(&self.problem.workloads.specs[i], v, self.stripe);
        self.x[i * m + j] = v;
        for k in 0..n {
            if k == i {
                continue;
            }
            let base = (j * n + k) * 2 * p;
            let leaf = if v <= EPS {
                0.0
            } else {
                self.rw_t[i * n + k] * v
            };
            if leaf.to_bits() == self.trees[base + p + i].to_bits() {
                self.stats.mu_reuses += 1;
                continue; // χₖⱼ unchanged → µₖⱼ unchanged
            }
            let mut node = p + i;
            self.trees[base + node] = leaf;
            while node > 1 {
                let parent = node / 2;
                self.trees[base + parent] =
                    self.trees[base + 2 * parent] + self.trees[base + 2 * parent + 1];
                self.stats.term_updates += 1;
                node = parent;
            }
            self.roots[j * n + k] = self.trees[base + 1];
            self.mu[k * m + j] = self.mu_committed(k, j);
        }
        // Object i's own cell: its tree excludes leaf i, so the cached
        // root is still exact; only the memo and fraction changed.
        self.mu[i * m + j] = self.mu_committed(i, j);
        self.refold_column(j);
    }

    /// `µⱼ` with `xᵢⱼ := v`, *without* committing — the
    /// single-coordinate probe. O(N) scan over cached cells, plus an O(log N) root-path
    /// refold and two model calls per tree whose leaf actually changes.
    pub fn probe_coord(&mut self, i: usize, j: usize, v: f64) -> f64 {
        self.stats.column_probes += 1;
        let (n, m, p) = (self.n, self.m, self.p);
        if v.to_bits() == self.x[i * m + j].to_bits() {
            return self.mu_col[j];
        }
        self.materialize(j);
        let mut sum = 0.0;
        for k in 0..n {
            let mu_kj = if k == i {
                // Own cell under the perturbed fraction: the tree
                // `(i, j)` has no leaf i, so its cached root is the
                // competing sum of the perturbed layout too.
                if v <= EPS {
                    0.0
                } else {
                    let w = layout_model::apply(&self.problem.workloads.specs[i], v, self.stripe);
                    let competing = self.roots[j * n + i];
                    self.mu_value(j, v, &w, competing)
                }
            } else {
                let f_kj = self.x[k * m + j];
                let w = self.w[k * m + j];
                if f_kj <= EPS || w.total_rate() <= 0.0 {
                    self.stats.mu_reuses += 1;
                    self.mu[k * m + j] // gated: 0.0 regardless of χ
                } else {
                    let base = (j * n + k) * 2 * p;
                    let leaf = if v <= EPS {
                        0.0
                    } else {
                        self.rw_t[i * n + k] * v
                    };
                    if leaf.to_bits() == self.trees[base + p + i].to_bits() {
                        self.stats.mu_reuses += 1;
                        self.mu[k * m + j]
                    } else {
                        // Refold the root along leaf i's path, keeping
                        // every sibling in its original operand slot.
                        let mut node = p + i;
                        let mut val = leaf;
                        while node > 1 {
                            let sib = self.trees[base + (node ^ 1)];
                            val = if node & 1 == 0 { val + sib } else { sib + val };
                            self.stats.term_updates += 1;
                            node /= 2;
                        }
                        self.mu_value(j, f_kj, &w, val)
                    }
                }
            };
            sum += mu_kj;
        }
        sum
    }

    /// Per-target utilizations with row `i` replaced by `row`,
    /// without committing. Exact only when the candidate layout
    /// differs from the committed point in row `i` alone. The
    /// regularizer's reference scores with it.
    #[cfg(test)]
    pub(crate) fn probe_row(&mut self, i: usize, row: &[f64], out: &mut [f64]) {
        for j in 0..self.m {
            out[j] = if row[j].to_bits() == self.x[i * self.m + j].to_bits() {
                self.mu_col[j]
            } else {
                self.probe_coord(i, j, row[j])
            };
        }
    }

    /// `max_j µⱼ` with row `i` replaced by `row`, without committing.
    pub fn probe_row_max(&mut self, i: usize, row: &[f64]) -> f64 {
        let mut best = 0.0f64;
        for j in 0..self.m {
            let mu_j = if row[j].to_bits() == self.x[i * self.m + j].to_bits() {
                self.mu_col[j]
            } else {
                self.probe_coord(i, j, row[j])
            };
            best = best.max(mu_j);
        }
        best
    }

    /// Commits a whole row (bit-changed coordinates only).
    pub fn commit_row(&mut self, i: usize, row: &[f64]) {
        for j in 0..self.m {
            if row[j].to_bits() != self.x[i * self.m + j].to_bits() {
                self.commit_coord(i, j, row[j]);
            }
        }
    }

    /// Commits `x` and returns the raw objective `max_j µⱼ`.
    pub fn max_utilization_at(&mut self, x: &[f64]) -> f64 {
        self.set_point(x);
        self.stats.objective_evals += 1;
        self.committed_max_utilization()
    }

    /// `max_j µⱼ` at the committed point.
    pub fn committed_max_utilization(&self) -> f64 {
        self.mu_col.iter().cloned().fold(0.0, f64::max)
    }

    /// The utilization vector at the committed point.
    pub fn committed_utilizations(&self) -> &[f64] {
        &self.mu_col
    }

    /// Total load `Σⱼ µᵢⱼ` of object `i` at the committed point (the
    /// regularizer's ordering key, §4.3).
    pub fn object_load(&self, i: usize) -> f64 {
        (0..self.m).map(|j| self.mu[i * self.m + j]).sum()
    }

    /// Commits `x` and returns the cached capacity column sum
    /// `Σᵢ sᵢ·xᵢⱼ` — the AugLag constraint evaluations ride on this
    /// instead of refolding per call.
    pub fn capacity_used(&mut self, x: &[f64], j: usize) -> f64 {
        self.set_point(x);
        self.cap_used[j]
    }

    // --- objective-weighted scoring -------------------------------
    //
    // The `score*` family mirrors the raw max-utilization readers
    // with every µⱼ scaled by the objective's penalty weight wⱼ. The
    // weights are layout-independent, so every probe/commit law above
    // carries over; under the default MinMax objective wⱼ = 1.0 and
    // `x * 1.0` is bitwise `x`, so these paths are bit-identical to
    // the raw ones.

    /// Fills the weighted-utilization scratch from the committed
    /// columns.
    fn refill_wcol(&mut self) {
        for j in 0..self.m {
            self.wcol[j] = self.obj_w[j] * self.mu_col[j];
        }
    }

    /// Commits `x` and returns the smoothed score
    /// `lse_max(w·µ, temp)`.
    pub fn lse_score(&mut self, x: &[f64], temp: f64) -> f64 {
        self.set_point(x);
        self.stats.objective_evals += 1;
        self.refill_wcol();
        lse_max(&self.wcol, temp)
    }

    /// Commits `x` and returns the raw score `max_j wⱼ·µⱼ`.
    pub fn score_at(&mut self, x: &[f64]) -> f64 {
        self.set_point(x);
        self.stats.objective_evals += 1;
        self.committed_score()
    }

    /// `max_j wⱼ·µⱼ` at the committed point.
    pub fn committed_score(&self) -> f64 {
        self.mu_col
            .iter()
            .zip(&self.obj_w)
            .fold(0.0, |acc, (&mu, &w)| acc.max(w * mu))
    }

    /// The analytic gradient of the smoothed score at `x`: exact
    /// partials of `lse_max(w·µ, temp)` by the chain rule through the
    /// cost model's per-cell slopes ([`grad::cell_grad`]) — zero
    /// objective probes, O(N·M + nnz(overlap)·M) work. Matches the
    /// from-scratch reference `UtilizationEstimator::lse_score_gradient`
    /// bit-for-bit: both read the canonical competing sums and
    /// accumulate cross terms through the same [`CrossAdjacency`]
    /// rows. See DESIGN.md §15.
    pub fn grad_at(&mut self, x: &[f64], temp: f64, g: &mut [f64]) {
        self.set_point(x);
        self.stats.gradient_evals += 1;
        self.stats.grad_analytic_passes += 1;
        self.refill_wcol();
        softmax_weights(&self.wcol, temp, &mut self.smax);
        let (n, m) = (self.n, self.m);
        for j in 0..m {
            let sw_j = self.smax[j] * self.obj_w[j];
            for k in 0..n {
                let f = self.x[k * m + j];
                let competing = self.roots[j * n + k];
                let cg = grad::cell_grad(
                    &*self.problem.models[j],
                    &self.problem.workloads.specs[k],
                    f,
                    competing,
                    self.stripe,
                    &mut self.stats,
                );
                self.grad_du[k] = cg.du_own;
                self.grad_cs[k] = cg.csens;
            }
            for i in 0..n {
                let mut cross = 0.0;
                for &(k, rw) in self.cross.row(i) {
                    cross += self.grad_cs[k as usize] * rw;
                }
                g[i * m + j] = sw_j * (self.grad_du[i] + cross);
            }
        }
    }

    /// `max_j wⱼ·µⱼ` with row `i` replaced by `row`, without
    /// committing: the candidate score of the regularizer's reference,
    /// which production reproduces with memoized column probes.
    #[cfg(test)]
    pub(crate) fn probe_row_score(&mut self, i: usize, row: &[f64]) -> f64 {
        let mut best = 0.0f64;
        for j in 0..self.m {
            let mu_j = if row[j].to_bits() == self.x[i * self.m + j].to_bits() {
                self.mu_col[j]
            } else {
                self.probe_coord(i, j, row[j])
            };
            best = best.max(self.obj_w[j] * mu_j);
        }
        best
    }

    // hot-closure-end

    /// Commits a [`Layout`] (convenience for the regularizer).
    pub fn set_layout(&mut self, layout: &Layout) {
        let mut xb = std::mem::take(&mut self.xbuf);
        for i in 0..self.n {
            for j in 0..self.m {
                xb[i * self.m + j] = layout.get(i, j);
            }
        }
        self.set_point(&xb);
        self.xbuf = xb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::UtilizationEstimator;
    use std::sync::Arc;
    use wasla_model::CostModel;
    use wasla_workload::{ObjectKind, WorkloadSet, WorkloadSpec};

    struct ToyModel;
    impl CostModel for ToyModel {
        fn request_cost(&self, _: IoKind, size: f64, run: f64, chi: f64) -> f64 {
            0.01 / run.max(1.0) + 0.002 * chi + size / 1e8
        }
    }

    fn problem(n: usize, m: usize) -> LayoutProblem {
        let spec = |i: usize| WorkloadSpec {
            read_size: 65536.0,
            write_size: 8192.0,
            read_rate: 10.0 + i as f64,
            write_rate: 1.0,
            run_count: 8.0,
            overlaps: (0..n)
                .map(|k| {
                    if k == i {
                        0.0
                    } else {
                        0.3 + 0.1 * ((i + k) % 3) as f64
                    }
                })
                .collect(),
        };
        LayoutProblem {
            workloads: WorkloadSet {
                names: (0..n).map(|i| format!("o{i}")).collect(),
                sizes: (0..n).map(|i| 1000 + 100 * i as u64).collect(),
                specs: (0..n).map(spec).collect(),
            },
            kinds: vec![ObjectKind::Table; n],
            capacities: vec![1 << 20; m],
            target_names: (0..m).map(|j| format!("t{j}")).collect(),
            models: (0..m).map(|_| Arc::new(ToyModel) as _).collect(),
            stripe_size: 1024.0 * 1024.0,
            constraints: vec![],
        }
    }

    fn flat(n: usize, m: usize, seed: u64) -> Vec<f64> {
        let mut rng = wasla_simlib::SimRng::new(seed);
        let mut x = vec![0.0; n * m];
        for row in x.chunks_mut(m) {
            let mut s = 0.0;
            for v in row.iter_mut() {
                *v = rng.uniform_range(0.0, 1.0);
                s += *v;
            }
            for v in row.iter_mut() {
                *v /= s;
            }
        }
        x
    }

    #[test]
    fn fresh_engine_is_the_zero_layout_rebuild() {
        let p = problem(7, 3);
        let fresh = EvalEngine::new(&p);
        let mut rebuilt = EvalEngine::new(&p);
        rebuilt.rebuild(&vec![0.0; 7 * 3]);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fresh.roots), bits(&rebuilt.roots));
        assert_eq!(bits(&fresh.mu), bits(&rebuilt.mu));
        assert_eq!(
            bits(fresh.committed_utilizations()),
            bits(rebuilt.committed_utilizations())
        );
        assert_eq!(
            fresh.committed_score().to_bits(),
            rebuilt.committed_score().to_bits()
        );
        assert_eq!(fresh.stats, EvalStats::default());
    }

    #[test]
    fn committed_state_matches_estimator() {
        let p = problem(5, 3);
        let est = UtilizationEstimator::new(&p);
        let x = flat(5, 3, 11);
        let mut engine = EvalEngine::new(&p);
        engine.set_point(&x);
        let layout = Layout::from_flat(&x, 5, 3);
        let want = est.utilizations(&layout);
        for (a, b) in engine.committed_utilizations().iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            engine.committed_max_utilization().to_bits(),
            est.max_utilization(&layout).to_bits()
        );
        for i in 0..5 {
            assert_eq!(
                engine.object_load(i).to_bits(),
                est.object_load(&layout, i).to_bits()
            );
        }
    }

    #[test]
    fn incremental_commit_equals_rebuild() {
        let p = problem(6, 4);
        let mut a = EvalEngine::new(&p);
        let mut b = EvalEngine::new(&p);
        let x0 = flat(6, 4, 3);
        a.set_point(&x0);
        b.set_point(&x0);
        // Perturb one coordinate: `a` commits incrementally, `b` is
        // forced through a rebuild.
        let mut x1 = x0.clone();
        x1[7] = 0.42;
        a.set_point(&x1);
        b.rebuild(&x1);
        assert!(a.live[7 % 4], "the committed column was materialized");
        for j in 0..4 {
            a.materialize(j);
            b.materialize(j);
        }
        for (u, v) in a.mu.iter().zip(&b.mu) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        for (u, v) in a.mu_col.iter().zip(&b.mu_col) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        for (u, v) in a.roots.iter().zip(&b.roots) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        for (u, v) in a.trees.iter().zip(&b.trees) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        assert!(a.stats.coord_commits >= 1);
    }

    /// One fraction from a mix that exercises every gate: exact zeros,
    /// fractions at or below `EPS`, and ordinary values.
    fn gated_fraction(rng: &mut wasla_simlib::SimRng) -> f64 {
        match rng.next_u64() % 4 {
            0 => 0.0,
            1 => EPS * rng.uniform(),
            2 => EPS,
            _ => rng.uniform(),
        }
    }

    /// Asserts every committed cache of `e` against the from-scratch
    /// oracles at `x`: µ cells and columns against the estimator, each
    /// competing sum against `kernel::competing_sum`, materialized tree
    /// roots against those sums, and `grad_at` against the estimator's
    /// reference gradient.
    fn assert_committed_exact(e: &mut EvalEngine<'_>, x: &[f64], ctx: &str) {
        use crate::eval::kernel::{competing_sum, RateTransform};
        let p = e.problem;
        let (n, m) = (e.n, e.m);
        let est = UtilizationEstimator::new(p);
        let layout = Layout::from_flat(x, n, m);
        let specs = &p.workloads.specs;
        for j in 0..m {
            for i in 0..n {
                let want = competing_sum(
                    n,
                    i,
                    RateTransform::Average,
                    &|k| specs[k].total_rate(),
                    &|k| x[k * m + j],
                    &|k| specs[i].overlaps[k],
                );
                let root = e.roots[j * n + i];
                assert_eq!(root.to_bits(), want.to_bits(), "{ctx}: root ({i},{j})");
                if e.live[j] {
                    let tree_root = e.trees[(j * n + i) * 2 * e.p + 1];
                    assert_eq!(tree_root.to_bits(), want.to_bits(), "{ctx}: tree ({i},{j})");
                }
                let cell = est.object_target_utilization(&layout, i, j);
                assert_eq!(
                    e.mu[i * m + j].to_bits(),
                    cell.to_bits(),
                    "{ctx}: µ ({i},{j})"
                );
            }
            let col = est.target_utilization(&layout, j);
            assert_eq!(e.mu_col[j].to_bits(), col.to_bits(), "{ctx}: µ_{j}");
        }
        assert_grad_matches_reference(e, x, ctx);
    }

    #[test]
    fn lazy_trees_match_oracles_through_interleaved_steps() {
        let mut rng = wasla_simlib::SimRng::new(0x1a27);
        for n in [1, 3, 5, 8, 17] {
            let m = 1 + n % 4;
            let p = problem(n, m);
            let est = UtilizationEstimator::new(&p);
            let mut e = EvalEngine::new(&p);
            let mut x = vec![0.0; n * m];
            for step in 0..6 {
                let ctx = format!("n={n} step={step}");
                // Rebuild at a fresh point: every tree goes stale.
                for v in x.iter_mut() {
                    *v = gated_fraction(&mut rng);
                }
                e.rebuild(&x);
                assert!(e.live.iter().all(|&l| !l), "{ctx}: rebuild wrote trees");
                assert_committed_exact(&mut e, &x, &format!("{ctx} rebuild"));
                // Probe, commit, probe again — each on a random cell.
                for phase in ["probe", "commit", "probe"] {
                    let (i, j) = (rng.next_u64() as usize % n, rng.next_u64() as usize % m);
                    let v = gated_fraction(&mut rng);
                    let mut xv = x.clone();
                    xv[i * m + j] = v;
                    if phase == "probe" {
                        let got = e.probe_coord(i, j, v);
                        let want = est.target_utilization(&Layout::from_flat(&xv, n, m), j);
                        assert_eq!(got.to_bits(), want.to_bits(), "{ctx}: probe ({i},{j})={v}");
                    } else if v.to_bits() != x[i * m + j].to_bits() {
                        e.commit_coord(i, j, v);
                        x = xv;
                    }
                    assert_committed_exact(&mut e, &x, &format!("{ctx} {phase}"));
                }
            }
        }
    }

    /// `set_point` commits at most `m` changed coordinates one by one
    /// and rebuilds past that; either way, from a committed state with
    /// stale or live trees, every cache matches the oracles.
    #[test]
    fn set_point_branches_match_oracles_from_stale_and_live_trees() {
        let mut rng = wasla_simlib::SimRng::new(0x5e7);
        for n in [1, 3, 5, 8, 17] {
            let m = 1 + n % 4;
            let p = problem(n, m);
            let mut e = EvalEngine::new(&p);
            let mut x = vec![0.0; n * m];
            let mut moves = vec![1, m, m + 1, n * m / 4 + 1, n * m];
            moves.retain(|&k| k <= n * m);
            moves.dedup();
            for live in [false, true] {
                for &moved in &moves {
                    let ctx = format!("n={n} m={m} live={live} moved={moved}");
                    for v in x.iter_mut() {
                        *v = gated_fraction(&mut rng);
                    }
                    e.rebuild(&x);
                    if live {
                        (0..m).for_each(|j| e.materialize(j));
                    }
                    let mut coords: Vec<usize> = (0..n * m).collect();
                    rng.shuffle(&mut coords);
                    let mut xv = x.clone();
                    for &c in &coords[..moved] {
                        while xv[c].to_bits() == x[c].to_bits() {
                            xv[c] = gated_fraction(&mut rng);
                        }
                    }
                    let before = e.stats;
                    e.set_point(&xv);
                    let d = e.stats.since(&before);
                    let rebuilt = moved > m;
                    assert_eq!(d.full_rebuilds, u64::from(rebuilt), "{ctx}");
                    let commits = if rebuilt { 0 } else { moved as u64 };
                    assert_eq!(d.coord_commits, commits, "{ctx}");
                    assert_committed_exact(&mut e, &xv, &ctx);
                    x = xv;
                }
            }
        }
    }

    #[test]
    fn reset_restores_the_fresh_engine() {
        let p = problem(6, 3);
        let fresh = EvalEngine::new(&p);
        let mut used = EvalEngine::new(&p);
        used.set_point(&flat(6, 3, 41));
        used.probe_coord(2, 1, 0.3);
        used.commit_coord(4, 0, 0.7);
        used.reset();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&used.x), bits(&fresh.x));
        assert_eq!(used.w, fresh.w);
        assert_eq!(bits(&used.roots), bits(&fresh.roots));
        assert_eq!(bits(&used.mu), bits(&fresh.mu));
        assert_eq!(bits(&used.mu_col), bits(&fresh.mu_col));
        assert_eq!(bits(&used.cap_used), bits(&fresh.cap_used));
        assert_eq!(used.live, fresh.live);
        assert_eq!(used.stats, EvalStats::default());
        // From there a reset engine does a fresh engine's work.
        let mut fresh = fresh;
        let x = flat(6, 3, 43);
        used.set_point(&x);
        fresh.set_point(&x);
        assert_eq!(used.stats, fresh.stats);
        assert_committed_exact(&mut used, &x, "after reset");
    }

    /// Rebuild roots equal `kernel::competing_sum` bit for bit on both
    /// sides of every power-of-two edge of the reduction shape, for
    /// all-gated, single-live-row, dense and mixed columns, with gated
    /// fractions of exactly 0.0, below `EPS` and equal to `EPS`. The
    /// self variant gives every object a nonzero self-overlap, which
    /// the self slot must still exclude; the signed variant makes every
    /// overlap `-0.0`, so the lone live row's leaves are `-0.0` and a
    /// tree that skips its dead self row must still return the
    /// kernel's `+0.0`.
    #[test]
    fn rebuild_roots_match_kernel_across_power_of_two_edges() {
        use crate::eval::kernel::{competing_sum, RateTransform};
        let gated = [0.0, 0.5 * EPS, EPS];
        let mut rng = wasla_simlib::SimRng::new(0x9e37);
        for n in [1, 2, 3, 31, 32, 33, 64, 65] {
            for variant in ["plain", "self", "signed"] {
                let m = 4;
                let mut p = problem(n, m);
                for (i, spec) in p.workloads.specs.iter_mut().enumerate() {
                    match variant {
                        "self" => spec.overlaps[i] = 1.0,
                        "signed" => spec.overlaps.iter_mut().for_each(|o| *o = -0.0),
                        _ => {}
                    }
                }
                let specs = &p.workloads.specs;
                for live in [0, n / 2, n - 1] {
                    let ctx = format!("n={n} {variant} live={live}");
                    let mut x = vec![0.0; n * m];
                    for l in 0..n {
                        x[l * m] = gated[l % 3];
                        x[l * m + 1] = if l == live {
                            0.01 + rng.uniform()
                        } else {
                            gated[(l + 1) % 3]
                        };
                        x[l * m + 2] = 0.01 + rng.uniform();
                        x[l * m + 3] = gated_fraction(&mut rng);
                    }
                    let mut e = EvalEngine::new(&p);
                    e.rebuild(&x);
                    for j in 0..m {
                        e.materialize(j);
                        for i in 0..n {
                            let want = competing_sum(
                                n,
                                i,
                                RateTransform::Average,
                                &|k| specs[k].total_rate(),
                                &|k| x[k * m + j],
                                &|k| specs[i].overlaps[k],
                            );
                            let root = e.roots[j * n + i];
                            assert_eq!(root.to_bits(), want.to_bits(), "{ctx}: root ({i},{j})");
                            let tree_root = e.trees[(j * n + i) * 2 * e.p + 1];
                            assert_eq!(
                                tree_root.to_bits(),
                                want.to_bits(),
                                "{ctx}: tree ({i},{j})"
                            );
                        }
                    }
                    if variant != "signed" {
                        assert_committed_exact(&mut e, &x, &ctx);
                    }
                }
            }
        }
    }

    #[test]
    fn probe_matches_estimator_on_modified_layout() {
        let p = problem(5, 3);
        let est = UtilizationEstimator::new(&p);
        let x = flat(5, 3, 29);
        let mut engine = EvalEngine::new(&p);
        engine.set_point(&x);
        for (i, j, v) in [(0, 0, 0.9), (2, 1, 0.0), (4, 2, 1e-9), (3, 0, 0.33)] {
            let got = engine.probe_coord(i, j, v);
            let mut xm = x.clone();
            xm[i * 3 + j] = v;
            let lm = Layout::from_flat(&xm, 5, 3);
            let want = est.target_utilization(&lm, j);
            assert_eq!(got.to_bits(), want.to_bits(), "probe ({i},{j})={v}");
        }
        // Probing must not have disturbed the committed state.
        let layout = Layout::from_flat(&x, 5, 3);
        for (a, b) in engine
            .committed_utilizations()
            .iter()
            .zip(&est.utilizations(&layout))
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn probe_row_matches_estimator() {
        let p = problem(4, 3);
        let est = UtilizationEstimator::new(&p);
        let x = flat(4, 3, 5);
        let mut engine = EvalEngine::new(&p);
        engine.set_point(&x);
        let row = [0.2, 0.0, 0.8];
        let mut out = [0.0; 3];
        engine.probe_row(1, &row, &mut out);
        let mut xm = x.clone();
        xm[3..6].copy_from_slice(&row);
        let lm = Layout::from_flat(&xm, 4, 3);
        for (j, v) in out.iter().enumerate() {
            assert_eq!(v.to_bits(), est.target_utilization(&lm, j).to_bits());
        }
        assert_eq!(
            engine.probe_row_max(1, &row).to_bits(),
            est.max_utilization(&lm).to_bits()
        );
    }

    #[test]
    fn capacity_column_sum_matches_direct_fold() {
        let p = problem(4, 3);
        let x = flat(4, 3, 17);
        let mut engine = EvalEngine::new(&p);
        for j in 0..3 {
            let want: f64 = (0..4)
                .map(|i| p.workloads.sizes[i] as f64 * x[i * 3 + j])
                .sum();
            assert_eq!(engine.capacity_used(&x, j).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn scores_match_estimator_bitwise() {
        let p = problem(6, 4);
        let est = UtilizationEstimator::new(&p);
        let x = flat(6, 4, 77);
        let layout = Layout::from_flat(&x, 6, 4);
        let mus = est.utilizations(&layout);
        let mut engine = EvalEngine::new(&p);
        let temp = 0.05;
        assert_eq!(
            engine.lse_score(&x, temp).to_bits(),
            lse_max(&mus, temp).to_bits()
        );
        assert_eq!(
            engine.max_utilization_at(&x).to_bits(),
            est.max_utilization(&layout).to_bits()
        );
        assert_eq!(
            engine.score_at(&x).to_bits(),
            est.max_utilization(&layout).to_bits()
        );
    }

    /// Asserts `e.grad_at(x)` is finite and equals the estimator's
    /// from-scratch reference gradient bit for bit.
    fn assert_grad_matches_reference(e: &mut EvalEngine<'_>, x: &[f64], ctx: &str) {
        let (n, m) = (e.n, e.m);
        let mut g = vec![0.0; n * m];
        e.grad_at(x, 0.05, &mut g);
        let weights = e.objective().weights(e.problem);
        let reference = UtilizationEstimator::new(e.problem).lse_score_gradient(
            &Layout::from_flat(x, n, m),
            &weights,
            0.05,
        );
        for (c, (a, b)) in g.iter().zip(&reference).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: grad[{c}] {a} vs {b}");
            assert!(a.is_finite(), "{ctx}: grad[{c}] = {a}");
        }
    }

    #[test]
    fn analytic_gradient_matches_estimator_bitwise_and_probes_nothing() {
        for (n, m, seed) in [(6usize, 4usize, 77u64), (9, 3, 5), (5, 5, 1234)] {
            let p = problem(n, m);
            let mut engine = EvalEngine::new(&p);
            let ctx = format!("n={n} m={m} seed={seed}");
            assert_grad_matches_reference(&mut engine, &flat(n, m, seed), &ctx);
            // The analytic pass must not have spent any probes.
            assert_eq!(engine.stats.column_probes, 0);
            assert_eq!(engine.stats.grad_analytic_passes, 1);
            assert_eq!(engine.stats.gradient_evals, 1);
        }
    }

    #[test]
    fn analytic_gradient_handles_sparse_and_gated_layouts() {
        // Rows with zero cells (gated), a fully-empty column, and a
        // saturated cell — the subgradient pins must agree bitwise
        // with the reference on kinks too.
        let p = problem(4, 3);
        let x = vec![
            1.0, 0.0, 0.0, //
            0.0, 1.0, 0.0, //
            0.5, 0.5, 0.0, //
            0.0, 0.0, 1.0,
        ];
        assert_grad_matches_reference(&mut EvalEngine::new(&p), &x, "sparse");
    }
}
