//! # WASLA — Workload-Aware Storage Layout Advisor
//!
//! A from-scratch Rust reproduction of *"Workload-Aware Storage Layout
//! for Database Systems"* (Ozmen, Salem, Schindler, Daniel — SIGMOD
//! 2010): a layout advisor that places database objects (tables,
//! indexes, logs, temp space) onto storage targets (disks, SSDs,
//! RAID-0 groups) by solving a min-max-utilization non-linear program
//! over Rome-style workload descriptions and calibrated target cost
//! models.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`simlib`] — discrete-event simulation kernel;
//! * [`storage`] — simulated disks/SSDs/RAID-0 targets;
//! * [`workload`] — workload descriptions, catalogs, SQL workloads;
//! * [`exec`] — database execution simulator (the "PostgreSQL" role);
//! * [`trace`] — Rubicon-style workload fitting from block traces;
//! * [`model`] — calibrated target cost models;
//! * [`solver`] — the NLP toolkit;
//! * [`core`] — the layout advisor itself;
//!
//! plus [`pipeline`], which wires the full paper methodology together:
//! run a workload under a baseline layout on the simulator, trace it,
//! fit workload descriptions, calibrate target models, advise, and
//! validate the recommended layout by re-running.
//!
//! ## Quickstart
//!
//! ```
//! use wasla::pipeline::{self, Scenario};
//! use wasla::workload::SqlWorkload;
//!
//! // A small TPC-H-like database on four simulated disks.
//! let scenario = Scenario::homogeneous_disks(4, 0.01);
//! let workload = SqlWorkload::olap1_21(7);
//! let outcome = pipeline::advise(&scenario, &[workload], &pipeline::AdviseConfig::fast())
//!     .expect("advise succeeded");
//! assert!(outcome.recommendation.final_layout().is_regular());
//! ```
//!
//! ## Sessioned advising
//!
//! Advising repeatedly — capacity planning sweeps, what-if batches —
//! recalibrates the same device types again and again. Hold a
//! [`session::Service`] instead: its [`advise_batch`]
//! (`session::Service::advise_batch`) loop memoizes calibration
//! tables and workload fits across requests and fans the batch over
//! the deterministic thread pool.
//!
//! ```
//! use wasla::pipeline::{AdviseConfig, Scenario};
//! use wasla::session::{AdviseRequest, Service};
//! use wasla::workload::SqlWorkload;
//!
//! let mut service = Service::new(0x5eed);
//! let requests: Vec<AdviseRequest> = [3u64, 5]
//!     .iter()
//!     .map(|&seed| AdviseRequest::new(
//!         Scenario::homogeneous_disks(4, 0.01),
//!         vec![SqlWorkload::olap1_21(seed)],
//!         AdviseConfig::fast(),
//!     ))
//!     .collect();
//! let outcomes = service.advise_batch(&requests);
//! assert!(outcomes.iter().all(|o| o.is_ok()));
//! // Four identical disks × two requests: calibrated exactly once.
//! assert_eq!(service.session().calibrations_cached(), 1);
//! ```

pub use wasla_core as core;
pub use wasla_exec as exec;
pub use wasla_model as model;
pub use wasla_simlib as simlib;
pub use wasla_solver as solver;
pub use wasla_storage as storage;
pub use wasla_trace as trace;
pub use wasla_workload as workload;

pub mod cli;
pub mod daemon;
pub mod error;
pub mod persist;
pub mod pipeline;
pub mod replay;
pub mod session;
pub mod stages;
pub mod stress;

pub use daemon::{ControllerState, DaemonConfig, DaemonReport, TargetFailure, TickDecision};
pub use error::WaslaError;
pub use pipeline::DegradedNote;
pub use replay::{capture_oplog, replay_validate, CaptureOutcome, ReplayValidation};
pub use session::{
    AdviseRequest, AdvisorSession, BatchPolicy, BatchReport, OpLogAdvice, Service, SlotDecision,
    SlotDisposition,
};
pub use stress::{StressOptions, StressOutcome};

/// Commonly used items in one import.
pub mod prelude {
    pub use crate::core::{
        recommend, AdminConstraint, AdvisorOptions, Layout, LayoutProblem, Recommendation,
    };
    pub use crate::error::WaslaError;
    pub use crate::exec::{Engine, Placement, RunConfig, RunReport};
    pub use crate::model::{CalibrationGrid, CostModel, TargetCostModel};
    pub use crate::pipeline::{self, AdviseConfig, Scenario};
    pub use crate::session::{AdviseRequest, AdvisorSession, BatchPolicy, Service};
    pub use crate::storage::{DeviceSpec, DiskParams, SsdParams, StorageSystem, TargetConfig};
    pub use crate::workload::{
        Catalog, DeadlineClass, SqlWorkload, SynthSpec, WorkloadSet, WorkloadSpec,
    };
}
