//! Storage substrate for WASLA: simulated disks, SSDs, and RAID-0
//! groups composed into *storage targets*, the unit the layout advisor
//! places database objects onto (paper §3).
//!
//! The simulator is event-driven and deterministic. It reproduces the
//! performance effects the paper's experiments depend on:
//!
//! * a large gap between sequential and random service times on disks
//!   (seek + rotational latency vs. streaming transfer);
//! * readahead that can track a *small* number of concurrent sequential
//!   streams, so modest interference preserves sequentiality while
//!   heavy interference collapses it (paper Figure 8);
//! * queue-depth-dependent head scheduling (SSTF/elevator), so random
//!   request cost *decreases* slowly as contention deepens the queue
//!   (also Figure 8);
//! * SSDs with near-uniform random/sequential cost and internal channel
//!   parallelism, much faster than disks for small random I/O;
//! * RAID-0 striping that splits requests across member devices.
//!
//! The main entry point is [`StorageSystem`]: callers submit tagged
//! [`TargetIo`] requests against targets and drain [`Completion`]s as
//! simulated time advances. The driver (the `wasla-exec` crate) owns
//! the outer event loop; the storage system exposes its next internal
//! event time so the two can be merged.

pub mod device;
pub mod disk;
pub mod request;
pub mod sched;
pub mod ssd;
pub mod stats;
pub mod system;
pub mod target;
pub mod tier;

pub use device::{DeviceKind, DeviceModel, DeviceSpec};
pub use disk::DiskParams;
pub use request::{IoKind, TargetIo};
pub use sched::SchedulerKind;
pub use ssd::SsdParams;
pub use stats::{DeviceStats, TargetStats};
pub use system::{Completion, StorageSystem};
pub use target::{TargetConfig, TargetId};
pub use tier::{Tier, TierClass};

/// One kibibyte in bytes.
pub const KIB: u64 = 1024;
/// One mebibyte in bytes.
pub const MIB: u64 = 1024 * KIB;
/// One gibibyte in bytes.
pub const GIB: u64 = 1024 * MIB;
