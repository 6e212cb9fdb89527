//! Rubicon-style trace analysis (paper §5.1).
//!
//! The paper obtains workload descriptions by tracing the operational
//! database's block I/O, isolating each object's requests, and fitting
//! the Rome workload parameters to the observed characteristics using
//! HP's Rubicon tool. This crate is that fitting step for our
//! simulator's captured op-logs ([`oplog::OpLog`]):
//!
//! * request **rates** — per-object reads/writes divided by the log's
//!   issue-time span;
//! * request **sizes** — per-object mean request lengths;
//! * **run count** — the mean number of back-to-back sequential
//!   requests between non-sequential jumps, detected from object
//!   offsets;
//! * **overlap matrix** — time is cut into windows; `Oᵢ[j]` is the
//!   fraction of windows in which `i` is active where `j` is also
//!   active.
//!
//! There is one fit, [`oplog::fit_oplog_streamed`]: one serial pass
//! folds the log, in issue order, into per-object statistics
//! ([`oplog::ChunkStats`]). The control loop's per-tick snapshots
//! ([`oplog::windowed_workloads`]) accumulate the same statistics per
//! pane and merge them per window; the merge is exact, so a window
//! fits bit-identically to one pass over its records.

use oplog::{OpLog, OpRecord};
use wasla_simlib::json::{self, FromJson, Json, JsonError, ToJson};
use wasla_storage::IoKind;
use wasla_workload::WorkloadSpec;

pub mod oplog;

/// Failure modes of trace fitting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FitError {
    /// The object catalog is inconsistent: `names` and `sizes` disagree
    /// on the object count.
    ShapeMismatch {
        /// Number of object names supplied.
        names: usize,
        /// Number of object sizes supplied.
        sizes: usize,
    },
    /// A trace record names a stream outside the object catalog.
    StreamOutOfRange {
        /// The offending stream id.
        stream: u32,
        /// Number of objects in the catalog.
        objects: usize,
    },
    /// A windowed fit would cut the log into more panes than
    /// [`oplog::MAX_PANES`] (panes count from t = 0, so a log stamped
    /// with epoch seconds spans ~10^8 of them).
    TooManyPanes {
        /// Panes the log spans from t = 0 through its last record.
        panes: u64,
        /// The pane limit.
        max: u64,
    },
}

impl ToJson for FitError {
    fn to_json(&self) -> Json {
        match *self {
            FitError::ShapeMismatch { names, sizes } => json::variant(
                "ShapeMismatch",
                Json::Obj(vec![
                    ("names".to_string(), names.to_json()),
                    ("sizes".to_string(), sizes.to_json()),
                ]),
            ),
            FitError::StreamOutOfRange { stream, objects } => json::variant(
                "StreamOutOfRange",
                Json::Obj(vec![
                    ("stream".to_string(), stream.to_json()),
                    ("objects".to_string(), objects.to_json()),
                ]),
            ),
            FitError::TooManyPanes { panes, max } => json::variant(
                "TooManyPanes",
                Json::Obj(vec![
                    ("panes".to_string(), panes.to_json()),
                    ("max".to_string(), max.to_json()),
                ]),
            ),
        }
    }
}

impl FromJson for FitError {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let field = |payload: &Json, name: &str| -> Result<Json, JsonError> {
            payload
                .field(name)
                .cloned()
                .ok_or_else(|| JsonError::missing_field(name))
        };
        match json::untag(v)? {
            ("ShapeMismatch", payload) => Ok(FitError::ShapeMismatch {
                names: usize::from_json(&field(payload, "names")?)?,
                sizes: usize::from_json(&field(payload, "sizes")?)?,
            }),
            ("StreamOutOfRange", payload) => Ok(FitError::StreamOutOfRange {
                stream: u32::from_json(&field(payload, "stream")?)?,
                objects: usize::from_json(&field(payload, "objects")?)?,
            }),
            ("TooManyPanes", payload) => Ok(FitError::TooManyPanes {
                panes: u64::from_json(&field(payload, "panes")?)?,
                max: u64::from_json(&field(payload, "max")?)?,
            }),
            (other, _) => Err(JsonError::new(format!(
                "unknown FitError variant: {other:?}"
            ))),
        }
    }
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::ShapeMismatch { names, sizes } => write!(
                f,
                "object catalog mismatch: {names} names but {sizes} sizes"
            ),
            FitError::StreamOutOfRange { stream, objects } => write!(
                f,
                "trace stream {stream} out of range for {objects} objects"
            ),
            FitError::TooManyPanes { panes, max } => write!(
                f,
                "log spans {panes} panes from t = 0, over the limit of {max}"
            ),
        }
    }
}

impl std::error::Error for FitError {}

/// Tunables for parameter fitting.
#[derive(Clone, Debug)]
pub struct FitConfig {
    /// Width of the co-activity windows used for the overlap matrix,
    /// in seconds.
    pub window_s: f64,
    /// Maximum forward byte gap for a request to continue a sequential
    /// run (readahead absorbs small skips).
    pub gap_tolerance: u64,
}

impl Default for FitConfig {
    fn default() -> Self {
        FitConfig {
            window_s: 5.0,
            gap_tolerance: 256 * 1024,
        }
    }
}

/// Per-object accumulation state over a contiguous range of op-log
/// records: `first` remembers the shape of the object's first request
/// in the range so [`oplog::ChunkStats::merge`] can decide whether the
/// range boundary split a sequential run.
#[derive(Clone, Debug)]
struct Accum {
    reads: u64,
    writes: u64,
    read_bytes: u64,
    write_bytes: u64,
    runs: u64,
    /// `(offset, len)` of the object's first record in this
    /// accumulation range (used only when merging partials).
    first: Option<(u64, u64)>,
    next_expected: Option<u64>,
    windows: Vec<u32>,
}

impl Accum {
    fn new() -> Self {
        Accum {
            reads: 0,
            writes: 0,
            read_bytes: 0,
            write_bytes: 0,
            runs: 0,
            first: None,
            next_expected: None,
            windows: Vec::new(),
        }
    }

    fn requests(&self) -> u64 {
        self.reads + self.writes
    }
}

fn observe(a: &mut Accum, rec: &OpRecord, config: &FitConfig) {
    if a.first.is_none() {
        a.first = Some((rec.offset, rec.len));
    }
    match rec.kind {
        IoKind::Read => {
            a.reads += 1;
            a.read_bytes += rec.len;
        }
        IoKind::Write => {
            a.writes += 1;
            a.write_bytes += rec.len;
        }
    }
    let continues = a.next_expected.is_some_and(|next| {
        rec.offset >= next.saturating_sub(rec.len) && rec.offset <= next + config.gap_tolerance
    });
    if !continues {
        a.runs += 1;
    }
    a.next_expected = Some(rec.offset + rec.len);
}

fn build_spec(accums: &[Accum], i: usize, span: f64) -> WorkloadSpec {
    let n = accums.len();
    let a = &accums[i];
    if a.requests() == 0 {
        return WorkloadSpec::idle(n);
    }
    let read_size = if a.reads > 0 {
        a.read_bytes as f64 / a.reads as f64
    } else {
        8192.0
    };
    let write_size = if a.writes > 0 {
        a.write_bytes as f64 / a.writes as f64
    } else {
        8192.0
    };
    let run_count = if a.runs > 0 {
        (a.requests() as f64 / a.runs as f64).max(1.0)
    } else {
        1.0
    };
    let mut overlaps = vec![0.0; n];
    for (j, b) in accums.iter().enumerate() {
        if i == j || a.windows.is_empty() {
            continue;
        }
        overlaps[j] = intersect_sorted(&a.windows, &b.windows) as f64 / a.windows.len() as f64;
    }
    WorkloadSpec {
        read_size,
        write_size,
        read_rate: a.reads as f64 / span,
        write_rate: a.writes as f64 / span,
        run_count,
        overlaps,
    }
}

/// Fits per-object duty cycles: the fraction of the trace span during
/// which each object was active (had at least one request in the
/// window). Rome's full workload language models ON/OFF burstiness;
/// the duty cycle is its first moment, and dividing average rates by
/// it recovers busy-period rates (used by the busy-rate contention
/// variant in `wasla-core`).
pub fn fit_duty_cycles(log: &OpLog, n_objects: usize, window_s: f64) -> Result<Vec<f64>, FitError> {
    let span = log.span().as_secs().max(window_s);
    let total_windows = (span / window_s).ceil().max(1.0);
    let mut last_window: Vec<Option<u32>> = vec![None; n_objects];
    let mut active = vec![0u32; n_objects];
    for rec in log.records() {
        let i = rec.stream as usize;
        if i >= n_objects {
            return Err(FitError::StreamOutOfRange {
                stream: rec.stream,
                objects: n_objects,
            });
        }
        let w = (rec.issue.as_secs() / window_s) as u32;
        if last_window[i] != Some(w) {
            last_window[i] = Some(w);
            active[i] += 1;
        }
    }
    Ok(active
        .into_iter()
        .map(|a| {
            (a as f64 / total_windows)
                .clamp(0.0, 1.0)
                .max(if a > 0 { 1e-6 } else { 0.0 })
        })
        .collect())
}

/// Size of the intersection of two sorted, deduplicated slices.
fn intersect_sorted(a: &[u32], b: &[u32]) -> usize {
    let mut count = 0;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use oplog::fit_oplog_streamed as fit;
    use wasla_simlib::SimTime;

    fn rec(t: f64, stream: u32, kind: IoKind, offset: u64, len: u64) -> OpRecord {
        OpRecord {
            kind,
            stream,
            offset,
            len,
            issue: SimTime::from_secs(t),
            complete: SimTime::from_secs(t),
        }
    }

    fn two_obj_names() -> (Vec<String>, Vec<u64>) {
        (vec!["A".into(), "B".into()], vec![1 << 30, 1 << 30])
    }

    #[test]
    fn rates_and_sizes_fit() {
        let mut log = OpLog::new();
        // Object 0: 10 reads of 8 KiB over 10 seconds.
        for k in 0..10 {
            log.push(rec(k as f64, 0, IoKind::Read, k * 1_000_000, 8192));
        }
        // Span is 9 s (first to last record).
        let (names, sizes) = two_obj_names();
        let set = fit(&log, &names, &sizes, &FitConfig::default()).unwrap();
        let s = &set.specs[0];
        assert!((s.read_rate - 10.0 / 9.0).abs() < 1e-9);
        assert_eq!(s.read_size, 8192.0);
        assert_eq!(s.write_rate, 0.0);
        // Idle object gets the idle spec.
        assert_eq!(set.specs[1].total_rate(), 0.0);
        set.validate().unwrap();
    }

    #[test]
    fn sequential_run_detection() {
        let mut log = OpLog::new();
        // Two runs of 5 sequential requests each, separated by a jump.
        let mut off = 0u64;
        for k in 0..10u64 {
            if k == 5 {
                off = 500_000_000;
            }
            log.push(rec(k as f64 * 0.01, 0, IoKind::Read, off, 65536));
            off += 65536;
        }
        let (names, sizes) = two_obj_names();
        let set = fit(&log, &names, &sizes, &FitConfig::default()).unwrap();
        assert!((set.specs[0].run_count - 5.0).abs() < 1e-9);
    }

    #[test]
    fn random_workload_run_count_one() {
        let mut log = OpLog::new();
        for k in 0..20u64 {
            log.push(rec(
                k as f64 * 0.01,
                0,
                IoKind::Read,
                (k * 97_777_777) % (1 << 29),
                8192,
            ));
        }
        let (names, sizes) = two_obj_names();
        let set = fit(&log, &names, &sizes, &FitConfig::default()).unwrap();
        assert!(
            set.specs[0].run_count < 1.5,
            "run {}",
            set.specs[0].run_count
        );
    }

    #[test]
    fn overlap_matrix_reflects_co_activity() {
        let config = FitConfig {
            window_s: 1.0,
            ..FitConfig::default()
        };
        let mut log = OpLog::new();
        // Object 0 active in seconds 0-9; object 1 active only 0-4.
        // Mid-window timestamps avoid float truncation at boundaries.
        for k in 0..10u64 {
            log.push(rec(k as f64 + 0.4, 0, IoKind::Read, k * 8192, 8192));
            if k < 5 {
                log.push(rec(k as f64 + 0.5, 1, IoKind::Read, k * 8192, 8192));
            }
        }
        let (names, sizes) = two_obj_names();
        let set = fit(&log, &names, &sizes, &config).unwrap();
        // O_0[1] = 5/10; O_1[0] = 5/5.
        assert!((set.specs[0].overlaps[1] - 0.5).abs() < 1e-9);
        assert!((set.specs[1].overlaps[0] - 1.0).abs() < 1e-9);
        assert_eq!(set.specs[0].overlaps[0], 0.0);
    }

    #[test]
    fn mixed_read_write_sizes() {
        let mut log = OpLog::new();
        log.push(rec(0.0, 0, IoKind::Read, 0, 4096));
        log.push(rec(1.0, 0, IoKind::Write, 1 << 20, 16384));
        log.push(rec(2.0, 0, IoKind::Write, 2 << 20, 16384));
        let (names, sizes) = two_obj_names();
        let set = fit(&log, &names, &sizes, &FitConfig::default()).unwrap();
        let s = &set.specs[0];
        assert_eq!(s.read_size, 4096.0);
        assert_eq!(s.write_size, 16384.0);
        assert!((s.write_rate - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_all_idle() {
        let log = OpLog::new();
        let (names, sizes) = two_obj_names();
        let set = fit(&log, &names, &sizes, &FitConfig::default()).unwrap();
        assert!(set.specs.iter().all(|s| s.total_rate() == 0.0));
        set.validate().unwrap();
    }

    #[test]
    fn duty_cycles_measure_active_fractions() {
        let mut log = OpLog::new();
        // Object 0 active in every second 0..10; object 1 only 0..5;
        // object 2 never.
        for k in 0..10u64 {
            log.push(rec(k as f64 + 0.4, 0, IoKind::Read, k * 8192, 8192));
            if k < 5 {
                log.push(rec(k as f64 + 0.5, 1, IoKind::Read, k * 8192, 8192));
            }
        }
        let duty = fit_duty_cycles(&log, 3, 1.0).unwrap();
        assert!(duty[0] > 0.9, "duty0 {}", duty[0]);
        assert!((duty[1] - 0.5).abs() < 0.1, "duty1 {}", duty[1]);
        assert_eq!(duty[2], 0.0);
    }

    #[test]
    fn shape_mismatch_is_a_typed_error() {
        let log = OpLog::new();
        let err = fit(
            &log,
            &["a".into(), "b".into()],
            &[1 << 30],
            &FitConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, FitError::ShapeMismatch { names: 2, sizes: 1 });
        assert!(err.to_string().contains("2 names but 1 sizes"));
    }

    #[test]
    fn out_of_range_stream_is_a_typed_error() {
        let mut log = OpLog::new();
        log.push(rec(0.0, 7, IoKind::Read, 0, 8192));
        let (names, sizes) = two_obj_names();
        let err = fit(&log, &names, &sizes, &FitConfig::default()).unwrap_err();
        assert_eq!(
            err,
            FitError::StreamOutOfRange {
                stream: 7,
                objects: 2
            }
        );
        let err2 = fit_duty_cycles(&log, 2, 1.0).unwrap_err();
        assert_eq!(err, err2);
    }

    #[test]
    fn fit_error_json_round_trip() {
        use wasla_simlib::json::{from_str, to_string};
        for err in [
            FitError::ShapeMismatch { names: 3, sizes: 5 },
            FitError::StreamOutOfRange {
                stream: 9,
                objects: 4,
            },
            FitError::TooManyPanes {
                panes: 1 << 20,
                max: oplog::MAX_PANES,
            },
        ] {
            let back: FitError = from_str(&to_string(&err)).unwrap();
            assert_eq!(back, err);
        }
    }

    #[test]
    fn intersect_sorted_basics() {
        assert_eq!(intersect_sorted(&[1, 3, 5], &[3, 4, 5]), 2);
        assert_eq!(intersect_sorted(&[], &[1]), 0);
        assert_eq!(intersect_sorted(&[2], &[2]), 1);
        assert_eq!(intersect_sorted(&[1, 2], &[3, 4]), 0);
    }
}
