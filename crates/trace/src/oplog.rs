//! Streaming op-log capture/replay ingestion.
//!
//! The advisor is driven entirely by traces, but [`fit_workloads`]
//! wants the whole trace materialized in memory — a scaling wall for
//! production-length captures. This module adds a compact
//! line-oriented *op-log* format, a single-pass reader, and per-object
//! sufficient statistics that are **mergeable**, so fits stream through
//! [`wasla_simlib::par`] chunk by chunk and still come out bit-identical
//! to the materialized path at any `WASLA_THREADS` setting.
//!
//! # Record format (TSV, one op per line)
//!
//! ```text
//! #wasla-oplog v1
//! R<TAB>stream<TAB>offset<TAB>len<TAB>issue<TAB>complete
//! W<TAB>stream<TAB>offset<TAB>len<TAB>issue<TAB>complete
//! ```
//!
//! `R`/`W` is the op direction, `stream` the object id, `offset`/`len`
//! the object-relative byte range, and `issue`/`complete` the
//! submission and completion timestamps in seconds. Timestamps are
//! serialized with [`json::format_f64`] (shortest round-trip decimal),
//! so write → read → write is byte-identical. Records appear in issue
//! order; `complete ≥ issue` per record.
//!
//! # Mergeable sufficient statistics
//!
//! A [`ChunkStats`] is the per-object fitting state over one contiguous
//! record range: request/byte counters, the sequential-run count, the
//! trailing `next_expected` offset, the chunk's first request shape,
//! and the deduplicated activity-window list. Merging two adjacent
//! partials is exact:
//!
//! * counters add;
//! * the later chunk's run count is decremented iff its first request
//!   continues the earlier chunk's trailing run (same `continues`
//!   predicate as the serial pass);
//! * window lists concatenate with one boundary dedup;
//! * `next_expected` and the span endpoints carry over.
//!
//! Every operation is integer arithmetic (or an f64 carried verbatim),
//! so the merged state equals the serial single-pass state *bitwise*,
//! and the specs built from it are byte-identical to
//! [`fit_workloads`] on the materialized trace.

use crate::{build_spec, observe, Accum, FitConfig, FitError};
use wasla_simlib::impl_json_struct;
use wasla_simlib::json::{self, FromJson, Json, JsonError, ToJson};
use wasla_simlib::par;
use wasla_simlib::SimTime;
use wasla_storage::{BlockTraceRecord, IoKind, Trace};
use wasla_workload::WorkloadSet;

/// First line of every op-log file.
pub const FORMAT_HEADER: &str = "#wasla-oplog v1";

/// Records per chunk for the streamed fit. Chunk boundaries depend
/// only on this constant — never on the thread count — so the streamed
/// result is reproducible at any `WASLA_THREADS`.
pub const DEFAULT_CHUNK: usize = 4096;

/// Longest well-formed line (a full record is ≈100 bytes); anything
/// longer is corruption and is rejected before field parsing.
pub const MAX_LINE_BYTES: usize = 160;

/// One captured operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpRecord {
    /// Read or write.
    pub kind: IoKind,
    /// Stream (database object) identifier.
    pub stream: u32,
    /// Offset within the object, in bytes.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Submission time.
    pub issue: SimTime,
    /// Completion time (≥ `issue`).
    pub complete: SimTime,
}

impl OpRecord {
    /// The trace-record view of this op (the fit consumes submission
    /// times only).
    pub fn as_block_record(&self) -> BlockTraceRecord {
        BlockTraceRecord {
            time: self.issue,
            stream: self.stream,
            kind: self.kind,
            offset: self.offset,
            len: self.len,
        }
    }
}

/// A captured op-log: records in issue order.
#[derive(Clone, Debug, Default)]
pub struct OpLog {
    records: Vec<OpRecord>,
}

/// Typed op-log reader failures. Line numbers are 1-based and count
/// the header line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpLogError {
    /// The file does not start with [`FORMAT_HEADER`].
    MissingHeader,
    /// A record line has the wrong number of tab-separated fields.
    Truncated {
        /// Offending line.
        line: usize,
        /// Fields found (6 expected).
        fields: usize,
    },
    /// A field failed to parse (or holds a non-finite/negative time).
    BadField {
        /// Offending line.
        line: usize,
        /// Name of the field that failed.
        field: &'static str,
    },
    /// The op column is neither `R` nor `W`.
    UnknownOp {
        /// Offending line.
        line: usize,
    },
    /// Issue times went backwards, or a completion precedes its issue.
    NonMonotone {
        /// Offending line.
        line: usize,
    },
    /// A line exceeds [`MAX_LINE_BYTES`].
    Overlong {
        /// Offending line.
        line: usize,
        /// Observed byte length.
        len: usize,
    },
}

impl std::fmt::Display for OpLogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpLogError::MissingHeader => {
                write!(f, "op-log missing `{FORMAT_HEADER}` header")
            }
            OpLogError::Truncated { line, fields } => {
                write!(f, "op-log line {line}: {fields} fields, expected 6")
            }
            OpLogError::BadField { line, field } => {
                write!(f, "op-log line {line}: unparsable {field} field")
            }
            OpLogError::UnknownOp { line } => {
                write!(f, "op-log line {line}: op is neither R nor W")
            }
            OpLogError::NonMonotone { line } => {
                write!(f, "op-log line {line}: timestamps go backwards")
            }
            OpLogError::Overlong { line, len } => {
                write!(
                    f,
                    "op-log line {line}: {len} bytes exceeds the {MAX_LINE_BYTES}-byte limit"
                )
            }
        }
    }
}

impl std::error::Error for OpLogError {}

impl ToJson for OpLogError {
    fn to_json(&self) -> Json {
        let obj = |fields: Vec<(&str, Json)>| {
            Json::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        };
        match *self {
            OpLogError::MissingHeader => json::variant("MissingHeader", Json::Null),
            OpLogError::Truncated { line, fields } => json::variant(
                "Truncated",
                obj(vec![("line", line.to_json()), ("fields", fields.to_json())]),
            ),
            OpLogError::BadField { line, field } => json::variant(
                "BadField",
                obj(vec![
                    ("line", line.to_json()),
                    ("field", field.to_string().to_json()),
                ]),
            ),
            OpLogError::UnknownOp { line } => {
                json::variant("UnknownOp", obj(vec![("line", line.to_json())]))
            }
            OpLogError::NonMonotone { line } => {
                json::variant("NonMonotone", obj(vec![("line", line.to_json())]))
            }
            OpLogError::Overlong { line, len } => json::variant(
                "Overlong",
                obj(vec![("line", line.to_json()), ("len", len.to_json())]),
            ),
        }
    }
}

impl FromJson for OpLogError {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let field = |payload: &Json, name: &str| -> Result<Json, JsonError> {
            payload
                .field(name)
                .cloned()
                .ok_or_else(|| JsonError::missing_field(name))
        };
        let line = |payload: &Json| -> Result<usize, JsonError> {
            usize::from_json(&field(payload, "line")?)
        };
        match json::untag(v)? {
            ("MissingHeader", _) => Ok(OpLogError::MissingHeader),
            ("Truncated", payload) => Ok(OpLogError::Truncated {
                line: line(payload)?,
                fields: usize::from_json(&field(payload, "fields")?)?,
            }),
            ("BadField", payload) => Ok(OpLogError::BadField {
                line: line(payload)?,
                field: canonical_field(&String::from_json(&field(payload, "field")?)?),
            }),
            ("UnknownOp", payload) => Ok(OpLogError::UnknownOp {
                line: line(payload)?,
            }),
            ("NonMonotone", payload) => Ok(OpLogError::NonMonotone {
                line: line(payload)?,
            }),
            ("Overlong", payload) => Ok(OpLogError::Overlong {
                line: line(payload)?,
                len: usize::from_json(&field(payload, "len")?)?,
            }),
            (other, _) => Err(JsonError::new(format!(
                "unknown OpLogError variant: {other:?}"
            ))),
        }
    }
}

/// Maps a deserialized field name back onto the static name the parser
/// uses, so the error round-trips through JSON without leaking an
/// allocation into the `&'static str` slot.
fn canonical_field(name: &str) -> &'static str {
    for known in ["stream", "offset", "len", "issue", "complete"] {
        if name == known {
            return known;
        }
    }
    "unknown"
}

/// What the lossy reader salvaged from a damaged op-log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpLogSalvage {
    /// Records in the valid prefix that was kept.
    pub kept: usize,
    /// Record lines discarded from the first damaged line onward.
    pub dropped: usize,
    /// The error that ended the valid prefix (None when clean).
    pub first_error: Option<OpLogError>,
}

impl OpLogSalvage {
    /// True when anything was discarded.
    pub fn degraded(&self) -> bool {
        self.dropped > 0
    }
}

impl OpLog {
    /// An empty log.
    pub fn new() -> Self {
        OpLog {
            records: Vec::new(),
        }
    }

    /// Appends a record. Records must be appended in non-decreasing
    /// issue order (the capture hook guarantees this).
    pub fn push(&mut self, rec: OpRecord) {
        debug_assert!(
            self.records.last().map_or(true, |l| l.issue <= rec.issue),
            "op-log records out of issue order"
        );
        self.records.push(rec);
    }

    /// Stamps the completion time of record `idx` (no-op if out of
    /// range — the capture hook owns the indices).
    pub fn set_complete(&mut self, idx: usize, t: SimTime) {
        if let Some(rec) = self.records.get_mut(idx) {
            rec.complete = t;
        }
    }

    /// All records in issue order.
    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serializes the log to the TSV format. Reading the output back
    /// with [`OpLog::parse_tsv`] and re-serializing is byte-identical.
    pub fn to_tsv(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 48 + FORMAT_HEADER.len() + 1);
        out.push_str(FORMAT_HEADER);
        out.push('\n');
        for rec in &self.records {
            out.push(match rec.kind {
                IoKind::Read => 'R',
                IoKind::Write => 'W',
            });
            out.push('\t');
            out.push_str(&rec.stream.to_string());
            out.push('\t');
            out.push_str(&rec.offset.to_string());
            out.push('\t');
            out.push_str(&rec.len.to_string());
            out.push('\t');
            out.push_str(&json::format_f64(rec.issue.as_secs()));
            out.push('\t');
            out.push_str(&json::format_f64(rec.complete.as_secs()));
            out.push('\n');
        }
        out
    }

    /// Materializes the trace-equivalent of this log (issue times
    /// become trace timestamps).
    pub fn to_trace(&self) -> Trace {
        let mut trace = Trace::new();
        for rec in &self.records {
            trace.push(rec.as_block_record());
        }
        trace
    }

    /// Content hash of [`OpLog::to_trace`]'s result, computed without
    /// materializing the trace. Byte-for-byte the same key
    /// [`Trace::content_hash`] would produce, so a fit cached from a
    /// materialized trace serves the streamed path and vice versa.
    pub fn trace_content_hash(&self) -> u64 {
        let mut h = wasla_simlib::hash::Fnv64::new();
        h.write_u64(self.records.len() as u64);
        for r in &self.records {
            h.write_f64(r.issue.as_secs());
            h.write_u64(r.stream as u64);
            h.write_u64(match r.kind {
                IoKind::Read => 0,
                IoKind::Write => 1,
            });
            h.write_u64(r.offset);
            h.write_u64(r.len);
        }
        h.finish()
    }

    /// [`OpLog::trace_content_hash`] with every record past the first
    /// `keep` rewritten to stream `u32::MAX` — byte-for-byte what
    /// [`Trace::content_hash_damaged`] produces on the materialized
    /// trace, so a salvage cached from either representation serves
    /// both.
    pub fn trace_content_hash_damaged(&self, keep: usize) -> u64 {
        let mut h = wasla_simlib::hash::Fnv64::new();
        h.write_u64(self.records.len() as u64);
        for (i, r) in self.records.iter().enumerate() {
            let stream = if i < keep { r.stream } else { u32::MAX };
            h.write_f64(r.issue.as_secs());
            h.write_u64(stream as u64);
            h.write_u64(match r.kind {
                IoKind::Read => 0,
                IoKind::Write => 1,
            });
            h.write_u64(r.offset);
            h.write_u64(r.len);
        }
        h.finish()
    }

    /// Issue-time span from first to last record.
    pub fn span(&self) -> SimTime {
        match (self.records.first(), self.records.last()) {
            (Some(f), Some(l)) => l.issue - f.issue,
            _ => SimTime::ZERO,
        }
    }

    /// Strict reader: parses a TSV op-log, failing on the first
    /// malformed line with its typed error. Single-threaded and
    /// allocation-free per line (see [`OpLog::parse_tsv_lossy`]).
    pub fn parse_tsv(text: &str) -> Result<OpLog, OpLogError> {
        let (log, salvage) = Self::parse_tsv_lossy(text)?;
        match salvage.first_error {
            Some(err) => Err(err),
            None => Ok(log),
        }
    }

    /// Lossy reader: salvages the longest valid record prefix of a
    /// damaged op-log and reports what was dropped and why.
    ///
    /// A clean log parses fully with a zero-drop salvage. A log whose
    /// *first* record line is already damaged (or whose header is
    /// missing) has no salvageable prefix, so the typed error
    /// propagates — mirroring [`crate::fit_workloads_lossy`].
    ///
    /// One forward cursor walks the text, splitting lines exactly as
    /// [`str::lines`] does and parsing each regular record's fields in
    /// place. Any line the fast path does not accept is handed to the
    /// field-splitting reference parser, which decides the line's fate
    /// and its typed error, so results never depend on which path ran.
    pub fn parse_tsv_lossy(text: &str) -> Result<(OpLog, OpLogSalvage), OpLogError> {
        let (header, mut pos) = next_line(text, 0);
        if header != FORMAT_HEADER {
            return Err(OpLogError::MissingHeader);
        }

        // Captured records average ~50 bytes a line.
        let mut log = OpLog {
            records: Vec::with_capacity(text.len() / 48),
        };
        let mut first_error = None;
        let mut line = 1;
        while pos < text.len() {
            line += 1;
            let (rec, next) = match parse_record_fast(text, pos) {
                Some((rec, next)) => (Ok(rec), next),
                None => {
                    let (raw, next) = next_line(text, pos);
                    (parse_line(line, raw), next)
                }
            };
            pos = next;
            match rec {
                // Issue times never go backwards; the intra-record
                // ordering was already checked during field parsing.
                Ok(rec) if log.records.last().is_some_and(|l| rec.issue < l.issue) => {
                    first_error = Some(OpLogError::NonMonotone { line });
                    break;
                }
                Ok(rec) => log.records.push(rec),
                Err(err) => {
                    first_error = Some(err);
                    break;
                }
            }
        }

        let kept = log.records.len();
        if kept == 0 {
            if let Some(err) = first_error {
                // No salvageable prefix: keep the typed error strict.
                return Err(err);
            }
        }
        // The damaged line plus every line after it was dropped.
        let dropped = match first_error {
            Some(_) => 1 + count_lines(&text[pos..]),
            None => 0,
        };
        Ok((
            log,
            OpLogSalvage {
                kept,
                dropped,
                first_error,
            },
        ))
    }
}

/// The line starting at byte `start` and the byte offset just past its
/// terminator, with [`str::lines`] semantics: a line ends at `\n`, one
/// `\r` before that `\n` is stripped, and a final unterminated line
/// keeps any trailing `\r`. At the end of text the line is empty.
fn next_line(text: &str, start: usize) -> (&str, usize) {
    let rest = &text[start..];
    match rest.find('\n') {
        Some(nl) => {
            let raw = &rest[..nl];
            (raw.strip_suffix('\r').unwrap_or(raw), start + nl + 1)
        }
        None => (rest, text.len()),
    }
}

/// Number of lines [`str::lines`] yields for `text`.
fn count_lines(text: &str) -> usize {
    let newlines = text.bytes().filter(|&b| b == b'\n').count();
    newlines + usize::from(!text.is_empty() && !text.ends_with('\n'))
}

/// Parses a regular record line in place: `R`/`W`, three unsigned
/// decimal integers without sign, and two times, each field ended by a
/// tab and the line by `\n`, `\r\n` or the end of text. Returns the
/// record and the offset of the next line, or `None` for any line that
/// is not regular in this narrow sense — the caller then defers to
/// [`parse_line`]. Every line accepted here is accepted by
/// [`parse_line`] with the same record: the integers are the same
/// decimal values, and times go through the same [`parse_time`] over
/// the same substrings.
fn parse_record_fast(text: &str, start: usize) -> Option<(OpRecord, usize)> {
    let bytes = text.as_bytes();
    let kind = match bytes.get(start..start + 2)? {
        b"R\t" => IoKind::Read,
        b"W\t" => IoKind::Write,
        _ => return None,
    };
    let mut pos = start + 2;
    let stream = u32::try_from(parse_digits(bytes, &mut pos)?).ok()?;
    let offset = parse_digits(bytes, &mut pos)?;
    let len = parse_digits(bytes, &mut pos)?;

    let issue_start = pos;
    loop {
        match *bytes.get(pos)? {
            b'\t' => break,
            b'\n' => return None,
            _ => pos += 1,
        }
    }
    let issue_end = pos;
    pos += 1;
    let complete_start = pos;
    while pos < bytes.len() && bytes[pos] != b'\n' && bytes[pos] != b'\t' {
        pos += 1;
    }
    let (complete_end, next) = match bytes.get(pos) {
        None => (pos, pos),
        Some(b'\n') if bytes[pos - 1] == b'\r' => (pos - 1, pos + 1),
        Some(b'\n') => (pos, pos + 1),
        Some(_) => return None, // a seventh field
    };
    if complete_end - start > MAX_LINE_BYTES {
        return None;
    }
    // The line number only labels errors, and any error here falls
    // back to `parse_line`, which reports it with the right one.
    let issue = parse_time(0, "issue", &text[issue_start..issue_end]).ok()?;
    let complete = parse_time(0, "complete", &text[complete_start..complete_end]).ok()?;
    if complete < issue {
        return None;
    }
    Some((
        OpRecord {
            kind,
            stream,
            offset,
            len,
            issue,
            complete,
        },
        next,
    ))
}

/// Reads a non-empty run of ASCII digits ending in a tab at `*pos` as
/// a `u64`, leaving `*pos` past the tab. `None` on an empty field, any
/// other byte, or overflow.
fn parse_digits(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let start = *pos;
    let mut value = 0u64;
    loop {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        match b {
            b'0'..=b'9' => {
                value = value.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
            }
            b'\t' if *pos - 1 > start => return Some(value),
            _ => return None,
        }
    }
}

/// The reference line parser: splits `raw` on tabs and parses each
/// field with std, reporting the first failure as a typed error.
fn parse_line(line: usize, raw: &str) -> Result<OpRecord, OpLogError> {
    if raw.len() > MAX_LINE_BYTES {
        return Err(OpLogError::Overlong {
            line,
            len: raw.len(),
        });
    }
    let mut fields = [""; 6];
    let mut count = 0;
    for part in raw.split('\t') {
        if count < 6 {
            fields[count] = part;
        }
        count += 1;
    }
    if count != 6 {
        return Err(OpLogError::Truncated {
            line,
            fields: count,
        });
    }
    let kind = match fields[0] {
        "R" => IoKind::Read,
        "W" => IoKind::Write,
        _ => return Err(OpLogError::UnknownOp { line }),
    };
    let stream: u32 = fields[1].parse().map_err(|_| OpLogError::BadField {
        line,
        field: "stream",
    })?;
    let offset: u64 = fields[2].parse().map_err(|_| OpLogError::BadField {
        line,
        field: "offset",
    })?;
    let len: u64 = fields[3]
        .parse()
        .map_err(|_| OpLogError::BadField { line, field: "len" })?;
    let issue = parse_time(line, "issue", fields[4])?;
    let complete = parse_time(line, "complete", fields[5])?;
    if complete < issue {
        return Err(OpLogError::NonMonotone { line });
    }
    Ok(OpRecord {
        kind,
        stream,
        offset,
        len,
        issue,
        complete,
    })
}

fn parse_time(line: usize, field: &'static str, raw: &str) -> Result<SimTime, OpLogError> {
    let secs: f64 = raw
        .parse()
        .map_err(|_| OpLogError::BadField { line, field })?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(OpLogError::BadField { line, field });
    }
    Ok(SimTime::from_secs(secs))
}

/// Mergeable per-object fitting statistics over one contiguous record
/// range. See the module docs for the merge contract.
#[derive(Clone, Debug)]
pub struct ChunkStats {
    accums: Vec<Accum>,
    first_time: Option<SimTime>,
    last_time: Option<SimTime>,
}

impl ChunkStats {
    /// Empty statistics for `n_objects` objects.
    pub fn new(n_objects: usize) -> Self {
        ChunkStats {
            accums: vec![Accum::new(); n_objects],
            first_time: None,
            last_time: None,
        }
    }

    /// Folds one record into the statistics. Records must arrive in
    /// issue order. Fails on a stream id outside the catalog, exactly
    /// like the materialized fit.
    pub fn observe(&mut self, rec: &BlockTraceRecord, config: &FitConfig) -> Result<(), FitError> {
        let i = rec.stream as usize;
        if i >= self.accums.len() {
            return Err(FitError::StreamOutOfRange {
                stream: rec.stream,
                objects: self.accums.len(),
            });
        }
        let a = &mut self.accums[i];
        observe(a, rec, config);
        let w = (rec.time.as_secs() / config.window_s) as u32;
        if a.windows.last() != Some(&w) {
            a.windows.push(w);
        }
        if self.first_time.is_none() {
            self.first_time = Some(rec.time);
        }
        self.last_time = Some(rec.time);
        Ok(())
    }

    /// Merges the statistics of the *immediately following* record
    /// range into `self`. Exact: the result equals observing both
    /// ranges serially.
    pub fn merge(&mut self, later: &ChunkStats, config: &FitConfig) {
        for (a, b) in self.accums.iter_mut().zip(&later.accums) {
            if b.requests() == 0 {
                continue;
            }
            if a.requests() == 0 {
                *a = b.clone();
                continue;
            }
            // The later chunk counted its first request as a run start
            // (its local `next_expected` was None). Undo that iff the
            // request actually continues our trailing run.
            let continues = match (b.first, a.next_expected) {
                (Some((offset, len)), Some(next)) => {
                    offset >= next.saturating_sub(len) && offset <= next + config.gap_tolerance
                }
                _ => false,
            };
            a.reads += b.reads;
            a.writes += b.writes;
            a.read_bytes += b.read_bytes;
            a.write_bytes += b.write_bytes;
            a.runs += b.runs - u64::from(continues);
            a.next_expected = b.next_expected;
            let skip_dup = a.windows.last() == b.windows.first();
            a.windows
                .extend(b.windows.iter().skip(usize::from(skip_dup)).copied());
        }
        if self.first_time.is_none() {
            self.first_time = later.first_time;
        }
        if later.last_time.is_some() {
            self.last_time = later.last_time;
        }
    }

    /// Builds the fitted workload set from the accumulated statistics.
    /// Spec construction fans over [`par`], same as the materialized
    /// fit.
    pub fn finish(&self, names: &[String], sizes: &[u64]) -> Result<WorkloadSet, FitError> {
        if names.len() != sizes.len() || names.len() != self.accums.len() {
            return Err(FitError::ShapeMismatch {
                names: names.len(),
                sizes: sizes.len(),
            });
        }
        let span = match (self.first_time, self.last_time) {
            (Some(f), Some(l)) => (l - f).as_secs(),
            _ => 0.0,
        }
        .max(1e-9);
        let object_ids: Vec<usize> = (0..self.accums.len()).collect();
        let specs = par::par_map(&object_ids, |&i| build_spec(&self.accums, i, span));
        Ok(WorkloadSet {
            names: names.to_vec(),
            sizes: sizes.to_vec(),
            specs,
        })
    }
}

/// Streamed ingest: fits Rome workload descriptions directly from an
/// op-log by accumulating fixed-size record chunks in parallel and
/// merging the partial statistics in order.
///
/// Bit-identical to `fit_workloads(&log.to_trace(), ...)` at any
/// `WASLA_THREADS` setting: chunk boundaries depend only on
/// `chunk_records`, accumulation is integer-exact, and the merged
/// state equals the serial pass (see the module docs).
pub fn fit_oplog_streamed(
    log: &OpLog,
    names: &[String],
    sizes: &[u64],
    config: &FitConfig,
    chunk_records: usize,
) -> Result<WorkloadSet, FitError> {
    if names.len() != sizes.len() {
        return Err(FitError::ShapeMismatch {
            names: names.len(),
            sizes: sizes.len(),
        });
    }
    let n = names.len();
    let chunk = chunk_records.max(1);
    let records = log.records();
    let ranges: Vec<(usize, usize)> = (0..records.len())
        .step_by(chunk)
        .map(|start| (start, (start + chunk).min(records.len())))
        .collect();
    let partials: Vec<Result<ChunkStats, FitError>> = par::par_map(&ranges, |&(start, end)| {
        let mut stats = ChunkStats::new(n);
        for rec in &records[start..end] {
            stats.observe(&rec.as_block_record(), config)?;
        }
        Ok(stats)
    });
    let mut merged = ChunkStats::new(n);
    for partial in partials {
        merged.merge(&partial?, config);
    }
    merged.finish(names, sizes)
}

/// Sliding-window configuration for control-loop ingestion: the
/// stream is cut into fixed *panes* of `pane_s` seconds, and every
/// pane boundary (a controller tick) sees the statistics of the last
/// `panes_per_window` panes merged into one window.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowPlan {
    /// Pane length in seconds — the controller's tick period.
    pub pane_s: f64,
    /// Panes per sliding window (≥ 1). One pane means tumbling
    /// windows; more smooths the snapshot over recent history.
    pub panes_per_window: usize,
}

impl_json_struct!(WindowPlan {
    pane_s,
    panes_per_window
});

impl Default for WindowPlan {
    fn default() -> Self {
        WindowPlan {
            pane_s: 10.0,
            panes_per_window: 3,
        }
    }
}

/// One per-tick workload snapshot produced by [`windowed_workloads`].
#[derive(Clone, Debug)]
pub struct WindowSnapshot {
    /// The tick index — the window's last pane.
    pub tick: u64,
    /// Window start (inclusive; clamped to the stream origin).
    pub start: SimTime,
    /// Window end (exclusive): `(tick + 1) · pane_s`.
    pub end: SimTime,
    /// Records observed inside the window.
    pub records: u64,
    /// The fitted per-object workload descriptions for the window.
    /// Rates are normalized over the window's *observed* span (first
    /// to last record), exactly like the batch fit; objects silent in
    /// the window come back as idle specs.
    pub workloads: WorkloadSet,
}

/// Slices an op-log into pane-aligned sliding windows and fits a
/// [`WorkloadSet`] snapshot per tick, reusing the mergeable
/// [`ChunkStats`] machinery: each pane is accumulated once (panes fan
/// over [`par`]), and a tick's window is the in-order merge of its
/// panes — identical to observing the window's records serially.
///
/// Determinism contract: pane boundaries depend only on record issue
/// times and `plan.pane_s` — never on the thread count or on how the
/// stream was chunked on arrival — so the snapshot sequence is
/// byte-identical at any `WASLA_THREADS` setting.
pub fn windowed_workloads(
    log: &OpLog,
    names: &[String],
    sizes: &[u64],
    config: &FitConfig,
    plan: &WindowPlan,
) -> Result<Vec<WindowSnapshot>, FitError> {
    if names.len() != sizes.len() {
        return Err(FitError::ShapeMismatch {
            names: names.len(),
            sizes: sizes.len(),
        });
    }
    let records = log.records();
    if records.is_empty() {
        return Ok(Vec::new());
    }
    let n = names.len();
    let pane_s = plan.pane_s.max(1e-9);
    let width = plan.panes_per_window.max(1) as u64;
    let pane_of = |t: SimTime| (t.as_secs() / pane_s) as u64;
    let last_pane = pane_of(records[records.len() - 1].issue);

    // Contiguous record range per pane (records arrive in issue order).
    let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(last_pane as usize + 1);
    let mut cursor = 0usize;
    for pane in 0..=last_pane {
        let start = cursor;
        while cursor < records.len() && pane_of(records[cursor].issue) == pane {
            cursor += 1;
        }
        ranges.push((start, cursor));
    }

    let panes: Vec<Result<ChunkStats, FitError>> = par::par_map(&ranges, |&(start, end)| {
        let mut stats = ChunkStats::new(n);
        for rec in &records[start..end] {
            stats.observe(&rec.as_block_record(), config)?;
        }
        Ok(stats)
    });
    let mut pane_stats = Vec::with_capacity(panes.len());
    for pane in panes {
        pane_stats.push(pane?);
    }

    let mut snapshots = Vec::with_capacity(pane_stats.len());
    for tick in 0..=last_pane {
        let first_pane = (tick + 1).saturating_sub(width);
        let mut merged = ChunkStats::new(n);
        let mut in_window = 0u64;
        for pane in first_pane..=tick {
            merged.merge(&pane_stats[pane as usize], config);
            let (start, end) = ranges[pane as usize];
            in_window += (end - start) as u64;
        }
        snapshots.push(WindowSnapshot {
            tick,
            start: SimTime::from_secs(first_pane as f64 * pane_s),
            end: SimTime::from_secs((tick + 1) as f64 * pane_s),
            records: in_window,
            workloads: merged.finish(names, sizes)?,
        });
    }
    Ok(snapshots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit_workloads;
    use wasla_simlib::json::to_string;

    fn rec(t: f64, stream: u32, kind: IoKind, offset: u64, len: u64) -> OpRecord {
        OpRecord {
            kind,
            stream,
            offset,
            len,
            issue: SimTime::from_secs(t),
            complete: SimTime::from_secs(t + 0.002),
        }
    }

    fn sample_log(n: u64) -> OpLog {
        let mut log = OpLog::new();
        for k in 0..n {
            let stream = (k % 3) as u32;
            let kind = if k % 5 == 0 {
                IoKind::Write
            } else {
                IoKind::Read
            };
            // Stream 0 is sequential; the others jump around.
            let offset = if stream == 0 {
                k * 65536
            } else {
                (k * 97_777_777) % (1 << 29)
            };
            log.push(rec(
                k as f64 * 0.013,
                stream,
                kind,
                offset,
                8192 + (k % 3) * 4096,
            ));
        }
        log
    }

    fn catalog() -> (Vec<String>, Vec<u64>) {
        (
            vec!["A".into(), "B".into(), "C".into()],
            vec![1 << 30, 1 << 30, 1 << 30],
        )
    }

    #[test]
    fn tsv_round_trip_is_byte_identical() {
        let log = sample_log(200);
        let tsv = log.to_tsv();
        let back = OpLog::parse_tsv(&tsv).unwrap();
        assert_eq!(back.records(), log.records());
        assert_eq!(
            back.to_tsv(),
            tsv,
            "write -> read -> write must be identity"
        );
    }

    #[test]
    fn empty_log_round_trips() {
        let log = OpLog::new();
        let tsv = log.to_tsv();
        assert_eq!(tsv, format!("{FORMAT_HEADER}\n"));
        let back = OpLog::parse_tsv(&tsv).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn streamed_fit_matches_materialized_at_many_chunk_sizes() {
        let log = sample_log(500);
        let (names, sizes) = catalog();
        let config = FitConfig::default();
        let materialized = fit_workloads(&log.to_trace(), &names, &sizes, &config).unwrap();
        for chunk in [1, 2, 3, 7, 64, 499, 500, 5000] {
            let streamed = fit_oplog_streamed(&log, &names, &sizes, &config, chunk).unwrap();
            assert_eq!(
                to_string(&streamed),
                to_string(&materialized),
                "chunk={chunk}"
            );
        }
    }

    #[test]
    fn streamed_fit_of_empty_log_matches_materialized() {
        let log = OpLog::new();
        let (names, sizes) = catalog();
        let config = FitConfig::default();
        let streamed = fit_oplog_streamed(&log, &names, &sizes, &config, 16).unwrap();
        let materialized = fit_workloads(&log.to_trace(), &names, &sizes, &config).unwrap();
        assert_eq!(to_string(&streamed), to_string(&materialized));
    }

    #[test]
    fn merge_preserves_runs_split_across_chunks() {
        // One long sequential run split across a chunk boundary must
        // still count as a single run.
        let mut log = OpLog::new();
        for k in 0..10u64 {
            log.push(rec(k as f64 * 0.01, 0, IoKind::Read, k * 65536, 65536));
        }
        let (names, sizes) = catalog();
        let config = FitConfig::default();
        for chunk in [1, 3, 5] {
            let set = fit_oplog_streamed(&log, &names, &sizes, &config, chunk).unwrap();
            assert!(
                (set.specs[0].run_count - 10.0).abs() < 1e-9,
                "chunk={chunk} run_count={}",
                set.specs[0].run_count
            );
        }
    }

    #[test]
    fn trace_content_hash_matches_materialized_trace() {
        let log = sample_log(120);
        assert_eq!(log.trace_content_hash(), log.to_trace().content_hash());
        assert_eq!(
            OpLog::new().trace_content_hash(),
            Trace::new().content_hash()
        );
    }

    #[test]
    fn damaged_trace_content_hash_matches_materialized_damage() {
        let log = sample_log(40);
        for keep in [0, 17, 40] {
            assert_eq!(
                log.trace_content_hash_damaged(keep),
                log.to_trace().content_hash_damaged(keep),
                "keep={keep}"
            );
        }
        assert_eq!(log.trace_content_hash_damaged(40), log.trace_content_hash());
        assert_ne!(log.trace_content_hash_damaged(17), log.trace_content_hash());
    }

    #[test]
    fn streamed_fit_reports_stream_out_of_range() {
        let mut log = sample_log(10);
        log.push(rec(1.0, 99, IoKind::Read, 0, 8192));
        let (names, sizes) = catalog();
        let err = fit_oplog_streamed(&log, &names, &sizes, &FitConfig::default(), 4).unwrap_err();
        assert_eq!(
            err,
            FitError::StreamOutOfRange {
                stream: 99,
                objects: 3
            }
        );
    }

    #[test]
    fn missing_header_is_typed() {
        assert_eq!(
            OpLog::parse_tsv("R\t0\t0\t8192\t0\t0.1\n").unwrap_err(),
            OpLogError::MissingHeader
        );
        assert_eq!(OpLog::parse_tsv("").unwrap_err(), OpLogError::MissingHeader);
    }

    #[test]
    fn malformed_lines_are_typed() {
        let cases: Vec<(String, OpLogError)> = vec![
            (
                format!("{FORMAT_HEADER}\nR\t0\t0\t8192\t0\n"),
                OpLogError::Truncated { line: 2, fields: 5 },
            ),
            (
                format!("{FORMAT_HEADER}\nX\t0\t0\t8192\t0\t0.1\n"),
                OpLogError::UnknownOp { line: 2 },
            ),
            (
                format!("{FORMAT_HEADER}\nR\t-1\t0\t8192\t0\t0.1\n"),
                OpLogError::BadField {
                    line: 2,
                    field: "stream",
                },
            ),
            (
                format!("{FORMAT_HEADER}\nR\t0\t0\t8192\tnan\t0.1\n"),
                OpLogError::BadField {
                    line: 2,
                    field: "issue",
                },
            ),
            (
                format!("{FORMAT_HEADER}\nR\t0\t0\t8192\t5\t1\n"),
                OpLogError::NonMonotone { line: 2 },
            ),
            (
                format!("{FORMAT_HEADER}\nR\t0\t{}\t8192\t0\t0.1\n", "9".repeat(200)),
                OpLogError::Overlong { line: 2, len: 215 },
            ),
        ];
        for (text, want) in cases {
            assert_eq!(OpLog::parse_tsv(&text).unwrap_err(), want, "text={text:?}");
        }
    }

    /// What one reader input must produce: either a salvaged prefix
    /// (`kept`, `dropped`, the error that ended it) or, when no record
    /// line survives, the typed error itself.
    #[derive(Debug, PartialEq)]
    enum Want {
        Salvage(usize, usize, Option<OpLogError>),
        Fails(OpLogError),
    }

    /// Pins the reader's contract edge by edge: line splitting (CRLF,
    /// bare `\r`, empty lines, missing final newline), integer and time
    /// field syntax, the line-length limit, time monotonicity across a
    /// chunk boundary, and the salvage accounting. The strict reader
    /// must fail exactly when the lossy one records an error.
    #[test]
    fn reader_contract_table() {
        const R1: &str = "R\t0\t0\t8192\t0\t0.1";
        const R2: &str = "W\t1\t4096\t512\t0.5\t0.7";
        let h = |body: &str| format!("{FORMAT_HEADER}\n{body}");
        let bad = |line: usize, field: &'static str| OpLogError::BadField { line, field };
        // A valid record padded to exactly `len` bytes with leading
        // zeros in the offset field.
        let padded = |len: usize| {
            let short = "R\t0\t\t8192\t0\t0.1".len();
            format!("R\t0\t{}\t8192\t0\t0.1", "0".repeat(len - short))
        };
        let mut regress = String::new();
        for k in 0..4100u64 {
            let t = if k == 4096 { 0.0 } else { k as f64 * 1e-3 };
            let t = json::format_f64(t);
            regress.push_str(&format!("R\t0\t{k}\t8192\t{t}\t{t}\n"));
        }
        let cases: Vec<(&str, String, Want)> = vec![
            (
                "crlf",
                format!("{FORMAT_HEADER}\r\n{R1}\r\n{R2}\r\n"),
                Want::Salvage(2, 0, None),
            ),
            (
                "bare cr at eof",
                h(&format!("{R1}\n{R2}\r")),
                Want::Salvage(1, 1, Some(bad(3, "complete"))),
            ),
            (
                "bare cr after header",
                format!("{FORMAT_HEADER}\r"),
                Want::Fails(OpLogError::MissingHeader),
            ),
            (
                "plus-signed integers",
                h("R\t+3\t+0\t+8192\t0\t0.1\n"),
                Want::Salvage(1, 0, None),
            ),
            (
                "u32 max stream",
                h("R\t4294967295\t0\t8192\t0\t0.1\n"),
                Want::Salvage(1, 0, None),
            ),
            (
                "u32 overflow",
                h(&format!("{R1}\nR\t4294967296\t0\t8192\t1\t1.1\n")),
                Want::Salvage(1, 1, Some(bad(3, "stream"))),
            ),
            (
                "u64 overflow offset",
                h("R\t0\t18446744073709551616\t8192\t0\t0.1\n"),
                Want::Fails(bad(2, "offset")),
            ),
            (
                "u64 overflow len",
                h(&format!("{R1}\nR\t0\t0\t18446744073709551616\t1\t1.1\n")),
                Want::Salvage(1, 1, Some(bad(3, "len"))),
            ),
            (
                "u64 max offset",
                h("R\t0\t18446744073709551615\t8192\t0\t0.1\n"),
                Want::Salvage(1, 0, None),
            ),
            (
                "empty line mid-file",
                h(&format!("{R1}\n\n{R2}\n")),
                Want::Salvage(1, 2, Some(OpLogError::Truncated { line: 3, fields: 1 })),
            ),
            (
                "empty first line",
                h(&format!("\n{R1}\n")),
                Want::Fails(OpLogError::Truncated { line: 2, fields: 1 }),
            ),
            (
                "trailing tab",
                h(&format!("{R1}\t\n")),
                Want::Fails(OpLogError::Truncated { line: 2, fields: 7 }),
            ),
            (
                "160-byte line",
                h(&format!("{}\n", padded(160))),
                Want::Salvage(1, 0, None),
            ),
            (
                "161-byte line",
                h(&format!("{}\n", padded(161))),
                Want::Fails(OpLogError::Overlong { line: 2, len: 161 }),
            ),
            (
                "161-byte line after a record",
                h(&format!("{R1}\n{}\n{R2}\n", padded(161))),
                Want::Salvage(1, 2, Some(OpLogError::Overlong { line: 3, len: 161 })),
            ),
            (
                "nan issue",
                h("R\t0\t0\t8192\tnan\t0.1\n"),
                Want::Fails(bad(2, "issue")),
            ),
            (
                "inf complete",
                h("R\t0\t0\t8192\t0\tinf\n"),
                Want::Fails(bad(2, "complete")),
            ),
            (
                "negative issue",
                h("R\t0\t0\t8192\t-1\t0.1\n"),
                Want::Fails(bad(2, "issue")),
            ),
            (
                "exponent-form times",
                h("R\t0\t0\t8192\t1e-3\t2.5E-1\n"),
                Want::Salvage(1, 0, None),
            ),
            (
                "complete before issue",
                h("R\t0\t0\t8192\t5\t1\n"),
                Want::Fails(OpLogError::NonMonotone { line: 2 }),
            ),
            (
                "unknown op",
                h(&format!("{R1}\nX\t1\t2\t3\t4\t5\n{R2}\n\n{R2}")),
                Want::Salvage(1, 4, Some(OpLogError::UnknownOp { line: 3 })),
            ),
            (
                "equal issue times",
                h(&format!("{R1}\n{R1}\n")),
                Want::Salvage(2, 0, None),
            ),
            (
                "regression within a chunk",
                h(&format!("{R2}\n{R1}\n")),
                Want::Salvage(1, 1, Some(OpLogError::NonMonotone { line: 3 })),
            ),
            (
                "regression across a 4096-line boundary",
                h(&regress),
                Want::Salvage(4096, 4, Some(OpLogError::NonMonotone { line: 4098 })),
            ),
            (
                "header only",
                format!("{FORMAT_HEADER}\n"),
                Want::Salvage(0, 0, None),
            ),
            (
                "header without newline",
                FORMAT_HEADER.to_string(),
                Want::Salvage(0, 0, None),
            ),
            (
                "empty text",
                String::new(),
                Want::Fails(OpLogError::MissingHeader),
            ),
            (
                "missing final newline",
                h(&format!("{R1}\n{R2}")),
                Want::Salvage(2, 0, None),
            ),
        ];
        for (name, text, want) in cases {
            let got = match OpLog::parse_tsv_lossy(&text) {
                Ok((log, s)) => {
                    assert_eq!(log.len(), s.kept, "{name}: log length vs kept");
                    Want::Salvage(s.kept, s.dropped, s.first_error)
                }
                Err(e) => Want::Fails(e),
            };
            assert_eq!(got, want, "{name}");
            let strict = OpLog::parse_tsv(&text).map(|log| log.len());
            match want {
                Want::Salvage(kept, _, None) => assert_eq!(strict, Ok(kept), "{name}"),
                Want::Salvage(_, _, Some(e)) | Want::Fails(e) => {
                    assert_eq!(strict, Err(e), "{name}")
                }
            }
        }
    }

    #[test]
    fn reader_field_values_are_exact() {
        let log = OpLog::parse_tsv(&format!(
            "{FORMAT_HEADER}\r\nW\t+3\t007\t18446744073709551615\t1e-3\t2.5E-1\r\n\
             R\t4294967295\t0\t0\t0.25\t0.25"
        ))
        .unwrap();
        let want = [
            OpRecord {
                kind: IoKind::Write,
                stream: 3,
                offset: 7,
                len: u64::MAX,
                issue: SimTime::from_secs(1e-3),
                complete: SimTime::from_secs(0.25),
            },
            OpRecord {
                kind: IoKind::Read,
                stream: u32::MAX,
                offset: 0,
                len: 0,
                issue: SimTime::from_secs(0.25),
                complete: SimTime::from_secs(0.25),
            },
        ];
        assert_eq!(log.records(), &want);
    }

    /// A record drawn from the full field ranges: any stream id and
    /// byte range, and times spread over many decades so the shortest
    /// round-trip formatter emits both plain and exponent forms.
    fn wide_log(seed: u64, n: usize) -> OpLog {
        let mut rng = wasla_simlib::SimRng::new(seed);
        let mut log = OpLog::new();
        let mut t = 0.0f64;
        for _ in 0..n {
            t += match rng.next_u64() % 4 {
                0 => 0.0,
                1 => 10f64.powf(rng.uniform_range(-12.0, -3.0)),
                2 => rng.uniform(),
                _ => 10f64.powf(rng.uniform_range(0.0, 18.0)),
            };
            let service = 10f64.powf(rng.uniform_range(-9.0, 1.0));
            log.push(OpRecord {
                kind: if rng.chance(0.5) {
                    IoKind::Read
                } else {
                    IoKind::Write
                },
                stream: rng.next_u64() as u32 >> (rng.next_u64() % 32),
                offset: rng.next_u64() >> (rng.next_u64() % 64),
                len: rng.next_u64() >> (rng.next_u64() % 64),
                issue: SimTime::from_secs(t),
                complete: SimTime::from_secs(t + service),
            });
        }
        log
    }

    wasla_simlib::proptest! {
        /// `to_tsv` → `parse_tsv` → `to_tsv` is the identity on bytes
        /// over the whole field range.
        #[test]
        fn tsv_round_trip_over_wide_fields(seed in 0u64..1_000_000, n in 0usize..300) {
            let text = wide_log(seed, n).to_tsv();
            let back = OpLog::parse_tsv(&text).expect("serialized log parses");
            wasla_simlib::prop_assert_eq!(back.len(), n);
            wasla_simlib::prop_assert_eq!(back.to_tsv(), text);
        }
    }

    #[test]
    fn lossy_parse_salvages_valid_prefix() {
        let log = sample_log(20);
        let mut tsv = log.to_tsv();
        tsv.push_str("garbage line\n");
        tsv.push_str("R\t0\t0\t8192\t99\t99.1\n");
        let (salvaged, salvage) = OpLog::parse_tsv_lossy(&tsv).unwrap();
        assert_eq!(salvaged.records(), log.records());
        assert_eq!(salvage.kept, 20);
        assert_eq!(salvage.dropped, 2);
        assert!(salvage.degraded());
        assert_eq!(
            salvage.first_error,
            Some(OpLogError::Truncated {
                line: 22,
                fields: 1
            })
        );
    }

    #[test]
    fn lossy_parse_with_no_valid_prefix_keeps_the_typed_error() {
        let text = format!("{FORMAT_HEADER}\nnot a record\nR\t0\t0\t8192\t0\t0.1\n");
        let err = OpLog::parse_tsv_lossy(&text).unwrap_err();
        assert_eq!(err, OpLogError::Truncated { line: 2, fields: 1 });
    }

    #[test]
    fn lossy_parse_truncates_at_cross_chunk_time_regression() {
        let mut log = sample_log(5);
        log.records.push(rec(0.001, 0, IoKind::Read, 0, 8192)); // goes backwards
        let mut tsv = String::new();
        tsv.push_str(FORMAT_HEADER);
        tsv.push('\n');
        for r in log.records() {
            let mut one = OpLog::new();
            one.records.push(*r);
            tsv.push_str(one.to_tsv().lines().nth(1).unwrap());
            tsv.push('\n');
        }
        let (salvaged, salvage) = OpLog::parse_tsv_lossy(&tsv).unwrap();
        assert_eq!(salvaged.len(), 5);
        assert_eq!(
            salvage.first_error,
            Some(OpLogError::NonMonotone { line: 7 })
        );
    }

    #[test]
    fn oplog_error_json_round_trip() {
        use wasla_simlib::json::{from_str, to_string};
        for err in [
            OpLogError::MissingHeader,
            OpLogError::Truncated { line: 3, fields: 2 },
            OpLogError::BadField {
                line: 4,
                field: "issue",
            },
            OpLogError::UnknownOp { line: 5 },
            OpLogError::NonMonotone { line: 6 },
            OpLogError::Overlong { line: 7, len: 999 },
        ] {
            let back: OpLogError = from_str(&to_string(&err)).unwrap();
            assert_eq!(back, err);
        }
    }

    #[test]
    fn windows_match_serial_observation() {
        let (names, sizes) = catalog();
        let log = sample_log(400);
        let config = FitConfig::default();
        let plan = WindowPlan {
            pane_s: 0.7,
            panes_per_window: 3,
        };
        let snapshots = windowed_workloads(&log, &names, &sizes, &config, &plan).unwrap();
        assert!(!snapshots.is_empty());
        for snap in &snapshots {
            // Reference: observe exactly the window's records serially.
            let mut direct = ChunkStats::new(names.len());
            let mut count = 0u64;
            for rec in log.records() {
                if rec.issue >= snap.start && rec.issue < snap.end {
                    direct.observe(&rec.as_block_record(), &config).unwrap();
                    count += 1;
                }
            }
            assert_eq!(snap.records, count, "tick {}", snap.tick);
            let expected = direct.finish(&names, &sizes).unwrap();
            assert_eq!(
                to_string(&snap.workloads),
                to_string(&expected),
                "tick {} window diverges from the serial pass",
                snap.tick
            );
        }
        // The last tick covers the last record's pane.
        let last = log.records().last().unwrap().issue.as_secs();
        assert_eq!(snapshots.last().unwrap().tick, (last / plan.pane_s) as u64);
    }

    #[test]
    fn empty_panes_yield_idle_snapshots() {
        let (names, sizes) = catalog();
        let mut log = OpLog::new();
        log.push(rec(0.1, 0, IoKind::Read, 0, 8192));
        log.push(rec(5.1, 1, IoKind::Read, 65536, 8192));
        let plan = WindowPlan {
            pane_s: 1.0,
            panes_per_window: 1,
        };
        let snapshots =
            windowed_workloads(&log, &names, &sizes, &FitConfig::default(), &plan).unwrap();
        assert_eq!(snapshots.len(), 6, "one snapshot per pane, gaps included");
        for snap in &snapshots[1..5] {
            assert_eq!(snap.records, 0);
            let idle = snap
                .workloads
                .specs
                .iter()
                .all(|s| s.read_rate == 0.0 && s.write_rate == 0.0);
            assert!(idle, "tick {} must be idle", snap.tick);
        }
        assert_eq!(snapshots[0].records, 1);
        assert_eq!(snapshots[5].records, 1);
    }

    #[test]
    fn windows_slide_over_at_most_the_configured_panes() {
        let (names, sizes) = catalog();
        let log = sample_log(300);
        let plan = WindowPlan {
            pane_s: 0.5,
            panes_per_window: 4,
        };
        let snapshots =
            windowed_workloads(&log, &names, &sizes, &FitConfig::default(), &plan).unwrap();
        for snap in &snapshots {
            let spanned = (snap.end - snap.start).as_secs();
            assert!(
                spanned <= plan.pane_s * plan.panes_per_window as f64 + 1e-9,
                "tick {} window too wide: {spanned}",
                snap.tick
            );
            let start_pane = (snap.tick + 1).saturating_sub(plan.panes_per_window as u64);
            assert_eq!(snap.start.as_secs(), start_pane as f64 * plan.pane_s);
        }
    }

    #[test]
    fn empty_log_has_no_windows() {
        let (names, sizes) = catalog();
        let snapshots = windowed_workloads(
            &OpLog::new(),
            &names,
            &sizes,
            &FitConfig::default(),
            &WindowPlan::default(),
        )
        .unwrap();
        assert!(snapshots.is_empty());
    }
}
