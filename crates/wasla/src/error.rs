//! The unified error hierarchy for the facade crate.
//!
//! Every layer below owns a focused error enum — [`AdvisorError`]
//! (core), [`PlacementError`] (exec), [`FitError`] (trace),
//! [`ModelError`] (model), [`JsonError`] (simlib) — and the facade is
//! where those layers meet. [`WaslaError`] wraps each of them plus the
//! facade's own failure modes (file I/O, CLI usage, broken internal
//! invariants), so every public entry point in `wasla::pipeline`,
//! `wasla::session`, and the `wasla-advisor` binary returns one
//! `Result` type instead of panicking.
//!
//! The hierarchy follows the house error pattern: hand-rolled enum
//! with `Display`/`Error`/`From` impls. Errors are reported, never
//! serialized: the CLI prints the `Display` text and exits with
//! [`WaslaError::exit_code`].

use wasla_core::AdvisorError;
use wasla_exec::{EngineError, PlacementError};
use wasla_model::ModelError;
use wasla_simlib::json::JsonError;
use wasla_trace::oplog::OpLogError;
use wasla_trace::FitError;

/// Any failure the advise pipeline, session layer, or CLI can report.
#[derive(Clone, Debug, PartialEq)]
pub enum WaslaError {
    /// The layout advisor failed (invalid problem, no initial layout,
    /// no starts, regularization dead end).
    Advisor(AdvisorError),
    /// A layout could not be realized on the targets.
    Placement(PlacementError),
    /// The execution engine's bookkeeping failed mid-run (bad
    /// completion tag — corrupted or fault-injected).
    Engine(EngineError),
    /// An injected request fault persisted through every retry
    /// attempt (fault-injection testing only; never fires without an
    /// active fault plan — see [`wasla_simlib::fault`]).
    Fault {
        /// Retry attempts consumed before giving up.
        attempts: u32,
        /// Description of the injected failure.
        detail: String,
    },
    /// Workload fitting rejected the trace or object inventory.
    Fit(FitError),
    /// A captured op-log failed to parse (malformed or damaged file).
    OpLog(OpLogError),
    /// A target could not be modeled (empty or heterogeneous RAID).
    Model(ModelError),
    /// A JSON document failed to parse or decode.
    Json(JsonError),
    /// A file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The OS error message.
        detail: String,
    },
    /// Batch admission control rejected the request before any work
    /// ran: the bounded in-flight queue was full (load shedding; see
    /// `wasla::session::BatchPolicy`). Retry later or with a
    /// higher-priority deadline class.
    Overloaded {
        /// The request's position in the admission order.
        position: usize,
        /// The queue capacity that was exceeded.
        capacity: usize,
    },
    /// The caller misused the CLI (bad flags, unknown subcommand).
    Usage(String),
    /// An internal invariant broke; a bug, not a user error.
    Internal(String),
}

impl WaslaError {
    /// Wraps a `std::io::Error` with the path it concerns.
    pub fn io(path: impl Into<String>, err: &std::io::Error) -> Self {
        WaslaError::Io {
            path: path.into(),
            detail: err.to_string(),
        }
    }

    /// The process exit code the CLI maps this error to: `2` for
    /// usage errors, `3` for file I/O, `4` for malformed JSON, `5`
    /// for admission-control shedding (retryable overload), `1` for
    /// everything else (pipeline failures).
    pub fn exit_code(&self) -> i32 {
        match self {
            WaslaError::Usage(_) => 2,
            WaslaError::Io { .. } => 3,
            WaslaError::Json(_) => 4,
            WaslaError::Overloaded { .. } => 5,
            _ => 1,
        }
    }
}

impl From<AdvisorError> for WaslaError {
    fn from(e: AdvisorError) -> Self {
        WaslaError::Advisor(e)
    }
}

impl From<PlacementError> for WaslaError {
    fn from(e: PlacementError) -> Self {
        WaslaError::Placement(e)
    }
}

impl From<EngineError> for WaslaError {
    fn from(e: EngineError) -> Self {
        WaslaError::Engine(e)
    }
}

impl From<FitError> for WaslaError {
    fn from(e: FitError) -> Self {
        WaslaError::Fit(e)
    }
}

impl From<OpLogError> for WaslaError {
    fn from(e: OpLogError) -> Self {
        WaslaError::OpLog(e)
    }
}

impl From<ModelError> for WaslaError {
    fn from(e: ModelError) -> Self {
        WaslaError::Model(e)
    }
}

impl From<JsonError> for WaslaError {
    fn from(e: JsonError) -> Self {
        WaslaError::Json(e)
    }
}

impl std::fmt::Display for WaslaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaslaError::Advisor(e) => write!(f, "advisor: {e}"),
            WaslaError::Placement(e) => write!(f, "placement: {e}"),
            WaslaError::Engine(e) => write!(f, "engine: {e}"),
            WaslaError::Fault { attempts, detail } => {
                write!(f, "fault: {detail} (persisted through {attempts} attempts)")
            }
            WaslaError::Fit(e) => write!(f, "fit: {e}"),
            WaslaError::OpLog(e) => write!(f, "oplog: {e}"),
            WaslaError::Model(e) => write!(f, "model: {e}"),
            WaslaError::Json(e) => write!(f, "json: {e}"),
            WaslaError::Io { path, detail } => write!(f, "io: {path}: {detail}"),
            WaslaError::Overloaded { position, capacity } => write!(
                f,
                "overloaded: shed at admission position {position} (queue capacity {capacity})"
            ),
            WaslaError::Usage(msg) => write!(f, "usage: {msg}"),
            WaslaError::Internal(msg) => write!(f, "internal: {msg}"),
        }
    }
}

impl std::error::Error for WaslaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WaslaError::Advisor(e) => Some(e),
            WaslaError::Placement(e) => Some(e),
            WaslaError::Engine(e) => Some(e),
            WaslaError::Fit(e) => Some(e),
            WaslaError::OpLog(e) => Some(e),
            WaslaError::Model(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasla_core::RegularizeError;

    #[test]
    fn exit_codes_partition_failure_classes() {
        assert_eq!(WaslaError::Usage("u".into()).exit_code(), 2);
        assert_eq!(
            WaslaError::Io {
                path: "p".into(),
                detail: "d".into()
            }
            .exit_code(),
            3
        );
        assert_eq!(WaslaError::Json(JsonError::new("j")).exit_code(), 4);
        assert_eq!(
            WaslaError::Overloaded {
                position: 4,
                capacity: 4
            }
            .exit_code(),
            5
        );
        assert_eq!(
            WaslaError::Placement(PlacementError::ShapeMismatch).exit_code(),
            1
        );
        assert_eq!(
            WaslaError::Advisor(AdvisorError::InvalidProblem("x".into())).exit_code(),
            1
        );
        assert_eq!(
            WaslaError::Advisor(AdvisorError::Regularize(RegularizeError::NonFinite {
                object: 0
            }))
            .exit_code(),
            1
        );
        assert_eq!(WaslaError::Engine(EngineError::Unbounded).exit_code(), 1);
        assert_eq!(
            WaslaError::Engine(EngineError::UnknownObject {
                workload: 0,
                template: 2
            })
            .exit_code(),
            1
        );
    }

    #[test]
    fn display_prefixes_name_the_layer() {
        let e = WaslaError::Model(ModelError::NoMembers {
            target: "empty".into(),
        });
        assert!(e.to_string().starts_with("model: "));
        assert!(std::error::Error::source(&e).is_some());
    }
}
