//! Database execution simulator.
//!
//! This crate plays the role PostgreSQL played in the paper's
//! evaluation: it executes SQL workloads — as object-access profiles,
//! not SQL text — against a simulated [`wasla_storage::StorageSystem`]
//! under a given object placement, and reports wall-clock completion
//! time, per-target utilization, and OLTP throughput. The paper's
//! experiments all compare *workload execution time under layout A vs.
//! layout B*; this crate produces those numbers.
//!
//! Components:
//!
//! * [`Placement`] — maps each database object onto the storage targets
//!   according to a fractional layout row, using LVM-style round-robin
//!   striping for regular rows and contiguous chunks otherwise
//!   (paper §3 "a variety of mechanisms can be used to implement the
//!   layout").
//! * [`BufferPool`] — a coarse buffer-cache model: the hottest objects
//!   (by logical heat density) are cached; scans of objects that don't
//!   fit stream past the cache. This reproduces the paper's setup of a
//!   2 GB shared buffer absorbing index traffic while table scans hit
//!   the disks.
//! * [`Engine`] — the closed-loop driver: OLAP query sequences at a
//!   fixed concurrency level (a new query starts whenever one
//!   finishes), OLTP terminals running transactions back-to-back, and
//!   consolidation runs with both at once. Optionally captures an
//!   op-log ([`wasla_trace::oplog::OpLog`]: one record per physical
//!   request, with issue and completion times), the one trace the
//!   `wasla-trace` fit and the replay driver read.

pub mod cache;
pub mod engine;
pub mod placement;
pub mod replay;
pub mod report;

pub use cache::BufferPool;
pub use engine::{DeviceEvent, Engine, EngineError, RunConfig, RunOutcome};
pub use placement::{see_rows, ObjectMapping, Placement, PlacementError};
pub use replay::{replay_oplog, ReplayReport};
pub use report::{ObjectIoStats, RunReport};
