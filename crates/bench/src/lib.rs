//! Experiment harness for the WASLA paper reproduction.
//!
//! Every table and figure of the paper's evaluation (§2, §6) has a
//! regenerating experiment here, invoked by the `repro` binary:
//!
//! | id      | paper artifact | module |
//! |---------|----------------|--------|
//! | `fig1`  | Figure 1 + §2 narrative | [`layouts`] |
//! | `fig8`  | Figure 8 cost-model slice | [`models`] |
//! | `fig11` | Figure 11 homogeneous execution times | [`runs`] |
//! | `fig12` | Figure 12 OLAP8-63 layout | [`layouts`] |
//! | `fig13` | Figure 13 stage utilizations | [`models`] |
//! | `fig14` | Figure 14 solver (non-regular) layouts | [`layouts`] |
//! | `fig15` | Figure 15 consolidation performance | [`runs`] |
//! | `fig16` | Figure 16 consolidation layout | [`layouts`] |
//! | `fig17` | Figure 17 heterogeneous targets | [`runs`] |
//! | `fig18` | Figure 18 SSD capacities | [`runs`] |
//! | `fig19` | Figure 19 advisor timing scaling | [`scaling`] |
//! | `fig20` | Figure 20 + §6.6 AutoAdmin comparison | [`autoadmin`] |
//!
//! plus the DESIGN.md §5 ablations in [`ablations`].
//!
//! The experiment-only baselines those experiments compare against
//! live here too, off the advisor's production surface:
//!
//! | module | baseline | experiments |
//! |--------|----------|-------------|
//! | [`mod@anneal`] | simulated-annealing solver (§7) | `ablation-solver` |
//! | [`autoadmin`] | the AutoAdmin layout tool (§6.6) | `fig20` |
//! | [`configurator`] | storage-configuration sweep (§8) | `config-sweep` |
//! | [`dynamic`] | one-shot wholesale re-advising (§8) | `dynamic-growth` |
//! | [`analytic`] | closed-form disk cost model (§5.2.2) | `ablation-costmodel` |
//! | [`openloop`] | open-loop Poisson driver (Eq. 1) | `validate-eq1` |
//!
//! Experiments run at a configurable scale (default 5% of the paper's
//! data sizes — the simulated *shapes* are scale-invariant, wall-clock
//! isn't). Results print as text tables and are returned as
//! serializable records so `repro all` can archive them.

pub mod ablations;
pub mod analytic;
pub mod anneal;
pub mod autoadmin;
pub mod common;
pub mod configurator;
pub mod diff;
pub mod drift;
pub mod dynamic;
pub mod future_work;
pub mod harness;
pub mod layouts;
pub mod models;
pub mod openloop;
pub mod runs;
pub mod scaling;
pub mod sweep;
pub mod validation;

pub use common::{ExpConfig, ExperimentResult, Row};
