//! Discrete-event simulation kernel used by the WASLA storage simulator.
//!
//! This crate is intentionally small and dependency-light. It provides:
//!
//! * [`SimTime`] — a totally-ordered simulated-time type (seconds, `f64`).
//! * [`EventQueue`] — a deterministic future-event list with FIFO
//!   tie-breaking for events scheduled at the same instant.
//! * [`SimRng`] — a seedable, reproducible pseudo-random generator
//!   (xoshiro256++) with the sampling helpers the simulator needs
//!   (exponential inter-arrivals, bounded integers, shuffles, Zipf).
//! * [`par`] — a deterministic scoped-thread pool with an ordered
//!   [`par::par_map`]; the advisor's embarrassingly-parallel layers
//!   (multi-start solving, calibration, sweeps) all route through it.
//! * [`stats`] — online statistics accumulators (mean/variance and
//!   time-weighted averages for utilization).
//!
//! Determinism is a hard requirement: every experiment in the paper
//! reproduction must be re-runnable bit-for-bit from a seed, so all
//! randomness flows through [`SimRng`] and the event queue breaks ties
//! by insertion order rather than by heap internals.

pub mod events;
pub mod fault;
pub mod hash;
pub mod json;
pub mod par;
pub mod proptest;
pub mod rng;
pub mod stats;
pub mod time;

pub use events::EventQueue;
pub use rng::SimRng;
pub use stats::{OnlineStats, TimeWeighted};
pub use time::SimTime;
