//! Streaming op-log capture/replay ingestion.
//!
//! The op-log is the advisor's one captured trace: the execution
//! engine records it, the TSV reader below loads it from disk, and
//! every fit reads it. This module holds the compact line-oriented
//! *op-log* format, a single-pass reader, and per-object sufficient
//! statistics. The fit is one serial fold of the log into a
//! [`ChunkStats`]; the statistics are also **mergeable**, so the
//! windowed fit of the control loop accumulates each pane once and
//! builds every sliding window as an in-order merge of its panes.
//!
//! # Record format (TSV, one op per line)
//!
//! ```text
//! #wasla-oplog v2
//! R<TAB>stream<TAB>offset<TAB>len<TAB>issue<TAB>complete
//! W<TAB>stream<TAB>offset<TAB>len<TAB>issue<TAB>complete
//! ```
//!
//! `R`/`W` is the op direction, `stream` the object id, `offset`/`len`
//! the object-relative byte range (all three decimal, so rows still
//! diff by eye), and `issue`/`complete` the submission and completion
//! timestamps in seconds. A v2 time is the exact bit pattern of the
//! `f64`: [`f64::to_bits`] as exactly 16 lowercase hex digits
//! (`0.5` is `3fe0000000000000`). Lowercase is the only accepted form,
//! so write → read → write is byte-identical. Records appear in issue
//! order; `complete ≥ issue` per record, and a time must be finite and
//! not below zero.
//!
//! [`OpLog::to_tsv`] writes only v2. The reader picks the format from
//! the header line and still reads v1 logs ([`FORMAT_HEADER_V1`]),
//! whose times are decimal in the shortest round-trip form of
//! [`json::format_f64`](wasla_simlib::json::format_f64); std `f64`
//! parsing reads them back to the same `f64`s. Only the time-field decoder depends on the version: both
//! formats share one line cursor, one reference line parser, the
//! line-length limit, the typed errors and the salvage rules.
//!
//! # Mergeable sufficient statistics
//!
//! A [`ChunkStats`] is the per-object fitting state over one contiguous
//! record range: request/byte counters, the sequential-run count, the
//! trailing `next_expected` offset, the range's first request shape,
//! and the deduplicated activity-window list. Merging two adjacent
//! ranges is exact:
//!
//! * counters add;
//! * the later range's run count is decremented iff its first request
//!   continues the earlier range's trailing run (same `continues`
//!   predicate as the serial pass);
//! * window lists concatenate with one boundary dedup;
//! * `next_expected` and the span endpoints carry over.
//!
//! Every operation is integer arithmetic (or an f64 carried verbatim),
//! so the merged state equals the serial single-pass state *bitwise*,
//! and a window's specs are byte-identical to folding the window's
//! records into one [`ChunkStats`].

use crate::{build_spec, observe, Accum, FitConfig, FitError};
use wasla_simlib::impl_json_struct;
use wasla_simlib::SimTime;
use wasla_storage::IoKind;
use wasla_workload::WorkloadSet;

/// First line of every op-log [`OpLog::to_tsv`] writes: times are
/// 16-hex-digit `f64` bit patterns.
pub const FORMAT_HEADER: &str = "#wasla-oplog v2";

/// First line of a v1 op-log: times are shortest round-trip decimals.
/// Read, never written.
pub const FORMAT_HEADER_V1: &str = "#wasla-oplog v1";

/// Longest line the reader accepts; anything longer is corruption and
/// is rejected before field parsing. The longest record the writers
/// produce is 88 bytes in v2 and 102 in v1 (a 23-character decimal
/// time), so the limit leaves headroom for hand-edited v1 padding.
pub const MAX_LINE_BYTES: usize = 160;

/// How a log spells its two time fields, from its header line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TimeFormat {
    /// `#wasla-oplog v1`: shortest round-trip decimal.
    Decimal,
    /// `#wasla-oplog v2`: 16 lowercase hex digits of `f64::to_bits`.
    Bits,
}

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

/// A captured op-log: records in issue order.
#[derive(Clone, Debug, Default)]
pub struct OpLog {
    records: Vec<OpRecord>,
}

impl_json_struct!(OpRecord {
    kind,
    stream,
    offset,
    len,
    issue,
    complete
});
impl_json_struct!(OpLog { records });

/// Typed op-log reader failures. Line numbers are 1-based and count
/// the header line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpLogError {
    /// The file starts with neither [`FORMAT_HEADER`] nor
    /// [`FORMAT_HEADER_V1`].
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
                write!(
                    f,
                    "op-log missing `{FORMAT_HEADER}` or `{FORMAT_HEADER_V1}` header"
                )
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

    /// Serializes the log to the v2 TSV format, with no allocation
    /// per record. Reading the output back with [`OpLog::parse_tsv`]
    /// and re-serializing is byte-identical.
    pub fn to_tsv(&self) -> String {
        // Captured v2 records run ≈55 bytes a line.
        let mut out = Vec::with_capacity(self.records.len() * 64 + FORMAT_HEADER.len() + 1);
        out.extend_from_slice(FORMAT_HEADER.as_bytes());
        out.push(b'\n');
        for rec in &self.records {
            out.push(match rec.kind {
                IoKind::Read => b'R',
                IoKind::Write => b'W',
            });
            out.push(b'\t');
            push_decimal(&mut out, u64::from(rec.stream));
            out.push(b'\t');
            push_decimal(&mut out, rec.offset);
            out.push(b'\t');
            push_decimal(&mut out, rec.len);
            out.push(b'\t');
            push_bits(&mut out, rec.issue.as_secs().to_bits());
            out.push(b'\t');
            push_bits(&mut out, rec.complete.as_secs().to_bits());
            out.push(b'\n');
        }
        // Every byte above is ASCII, so the conversion never fails and
        // the lossy arm never runs.
        String::from_utf8(out)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }

    /// The log's first `keep` records (all of them when `keep`
    /// exceeds the length).
    pub fn prefix(&self, keep: usize) -> OpLog {
        OpLog {
            records: self.records[..keep.min(self.records.len())].to_vec(),
        }
    }

    /// A stable 64-bit content hash over every record's fit-relevant
    /// fields (issue time, stream, direction, offset, length), for use
    /// as a stage-cache key and as the fault plan's trace roll. Hashes
    /// the raw fields directly (not a JSON rendering) so keying a
    /// session cache stays cheap next to the fitting work it guards.
    /// Completion times are not hashed: the fit never reads them.
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
    /// `keep` rewritten to stream `u32::MAX` — the torn tail fault
    /// injection produces. Keys the fit of a damaged log's valid
    /// prefix without materializing the damaged copy.
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

    /// Strict reader: parses a v2 or v1 TSV op-log, failing on the
    /// first malformed line with its typed error. Single-threaded and
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
    /// propagates: there is no signal left to degrade to.
    ///
    /// The header line picks the time format (v2 or v1). One forward
    /// cursor walks the text, splitting lines exactly as [`str::lines`]
    /// does and parsing each regular record's fields in place. Any
    /// line the fast path does not accept is handed to the
    /// field-splitting reference parser, which decides the line's fate
    /// and its typed error, so results never depend on which path ran.
    pub fn parse_tsv_lossy(text: &str) -> Result<(OpLog, OpLogSalvage), OpLogError> {
        let (header, mut pos) = next_line(text, 0);
        let format = match header {
            FORMAT_HEADER => TimeFormat::Bits,
            FORMAT_HEADER_V1 => TimeFormat::Decimal,
            _ => return Err(OpLogError::MissingHeader),
        };

        // Captured records average ~50 bytes a line in either format.
        let mut log = OpLog {
            records: Vec::with_capacity(text.len() / 48),
        };
        let mut first_error = None;
        let mut line = 1;
        while pos < text.len() {
            line += 1;
            let (rec, next) = match parse_record_fast(text, pos, format) {
                Some((rec, next)) => (Ok(rec), next),
                None => {
                    let (raw, next) = next_line(text, pos);
                    (parse_line(line, raw, format), next)
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
fn parse_record_fast(text: &str, start: usize, format: TimeFormat) -> Option<(OpRecord, usize)> {
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
    let issue_end = time_field_end(bytes, issue_start, format)?;
    if bytes.get(issue_end) != Some(&b'\t') {
        return None;
    }
    let complete_start = issue_end + 1;
    let complete_end = time_field_end(bytes, complete_start, format)?;
    let next = match bytes.get(complete_end) {
        None => complete_end,
        Some(b'\n') => complete_end + 1,
        Some(b'\r') if bytes.get(complete_end + 1) == Some(&b'\n') => complete_end + 2,
        Some(_) => return None, // a seventh field, or a stray `\r`
    };
    if complete_end - start > MAX_LINE_BYTES {
        return None;
    }
    // The line number only labels errors, and any error here falls
    // back to `parse_line`, which reports it with the right one.
    let issue = parse_time(format, 0, "issue", text.get(issue_start..issue_end)?).ok()?;
    let complete = parse_time(
        format,
        0,
        "complete",
        text.get(complete_start..complete_end)?,
    )
    .ok()?;
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

/// Where the time field starting at byte `start` ends, if the line is
/// long enough to hold one. A v1 field runs to the next tab, `\r`,
/// `\n` or the end of text; a v2 field is exactly 16 bytes, so the
/// cursor finds its end without a scan and the caller checks the
/// delimiter after it. Either way the line is regular only if that
/// delimiter is where the field should end, and then the field is the
/// substring [`parse_line`] splits out.
fn time_field_end(bytes: &[u8], start: usize, format: TimeFormat) -> Option<usize> {
    match format {
        TimeFormat::Decimal => Some(
            bytes[start..]
                .iter()
                .position(|&b| matches!(b, b'\t' | b'\r' | b'\n'))
                .map_or(bytes.len(), |n| start + n),
        ),
        TimeFormat::Bits => Some(start + 16).filter(|&end| end <= bytes.len()),
    }
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
/// field with std (the times with [`parse_time`]), reporting the first
/// failure as a typed error.
fn parse_line(line: usize, raw: &str, format: TimeFormat) -> Result<OpRecord, OpLogError> {
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
    let issue = parse_time(format, line, "issue", fields[4])?;
    let complete = parse_time(format, line, "complete", fields[5])?;
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

/// Decodes one time field — the only step that depends on the format —
/// and accepts it if it is finite and not below zero (so `-0.0` passes,
/// as its v1 spelling `-0.0` always did).
fn parse_time(
    format: TimeFormat,
    line: usize,
    field: &'static str,
    raw: &str,
) -> Result<SimTime, OpLogError> {
    let secs = match format {
        TimeFormat::Decimal => raw.parse::<f64>().ok(),
        TimeFormat::Bits => decode_bits(raw.as_bytes()).map(f64::from_bits),
    };
    match secs {
        Some(secs) if secs.is_finite() && secs >= 0.0 => Ok(SimTime::from_secs(secs)),
        _ => Err(OpLogError::BadField { line, field }),
    }
}

/// The v2 time digits, by nibble value.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Flag [`HEX_VALUE`] sets for every byte that is not a lowercase hex
/// digit.
const NOT_HEX: u8 = 0x10;

/// Nibble value of each lowercase hex digit; [`NOT_HEX`] for every
/// other byte, uppercase included.
const HEX_VALUE: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut d = 0;
    while d < 16 {
        table[HEX_DIGITS[d] as usize] = d as u8;
        d += 1;
    }
    table
};

/// Reads exactly 16 lowercase hex digits as a `u64`. The digits of a
/// bit pattern are random, so the loop has no per-digit branch: it ORs
/// every table entry together and checks the [`NOT_HEX`] flag once.
fn decode_bits(raw: &[u8]) -> Option<u64> {
    let digits: &[u8; 16] = raw.try_into().ok()?;
    let mut bits = 0u64;
    let mut seen = 0u8;
    for &d in digits {
        let v = HEX_VALUE[usize::from(d)];
        seen |= v;
        bits = bits << 4 | u64::from(v & 0xf);
    }
    (seen & NOT_HEX == 0).then_some(bits)
}

/// Appends `bits` as 16 lowercase hex digits, most significant first.
fn push_bits(out: &mut Vec<u8>, bits: u64) {
    let mut buf = [0u8; 16];
    for (k, digit) in buf.iter_mut().enumerate() {
        *digit = HEX_DIGITS[(bits >> (60 - 4 * k)) as usize & 0xf];
    }
    out.extend_from_slice(&buf);
}

/// Appends `v` in decimal.
fn push_decimal(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20]; // u64::MAX has 20 digits
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
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
    /// issue order. Fails on a stream id outside the catalog.
    pub fn observe(&mut self, rec: &OpRecord, config: &FitConfig) -> Result<(), FitError> {
        let i = rec.stream as usize;
        if i >= self.accums.len() {
            return Err(FitError::StreamOutOfRange {
                stream: rec.stream,
                objects: self.accums.len(),
            });
        }
        let a = &mut self.accums[i];
        observe(a, rec, config);
        let w = (rec.issue.as_secs() / config.window_s) as u32;
        if a.windows.last() != Some(&w) {
            a.windows.push(w);
        }
        if self.first_time.is_none() {
            self.first_time = Some(rec.issue);
        }
        self.last_time = Some(rec.issue);
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
            // The later range counted its first request as a run start
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
    /// Each spec reads every object's window list (for its overlap
    /// row).
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
        let specs = (0..self.accums.len())
            .map(|i| build_spec(&self.accums, i, span))
            .collect();
        Ok(WorkloadSet {
            names: names.to_vec(),
            sizes: sizes.to_vec(),
            specs,
        })
    }
}

/// The fit: Rome workload descriptions from an op-log, by folding
/// every record, in issue order, into one [`ChunkStats`]. `names` and
/// `sizes` describe the objects; the log's stream ids index into them.
/// Objects with no logged requests get an idle spec. Fails on the
/// first record whose stream id is outside the catalog.
pub fn fit_oplog_streamed(
    log: &OpLog,
    names: &[String],
    sizes: &[u64],
    config: &FitConfig,
) -> Result<WorkloadSet, FitError> {
    if names.len() != sizes.len() {
        return Err(FitError::ShapeMismatch {
            names: names.len(),
            sizes: sizes.len(),
        });
    }
    let mut stats = ChunkStats::new(names.len());
    for rec in log.records() {
        stats.observe(rec, config)?;
    }
    stats.finish(names, sizes)
}

/// Most panes [`windowed_workloads`] will cut one log into. Panes count
/// from t = 0 and each one costs a [`ChunkStats`] plus a
/// [`WorkloadSet`] snapshot whose overlap matrix alone is `n²` f64s —
/// about 4 KiB with every per-object vector for the 20-object TPC-H
/// catalog, so 2^16 panes already hold ~256 MiB of snapshots. A log
/// stamped with epoch seconds would ask for ~10^8 panes and abort on
/// allocation; past this limit the fit fails with
/// [`FitError::TooManyPanes`] instead.
pub const MAX_PANES: u64 = 1 << 16;

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
/// [`ChunkStats`] machinery: one forward pass over the records
/// accumulates each pane once, and a tick's window is the in-order
/// merge of its panes — identical to observing the window's records
/// serially.
///
/// Pane boundaries depend only on record issue times and
/// `plan.pane_s`, never on how the stream was chunked on arrival.
///
/// Fails with [`FitError::TooManyPanes`] when the log reaches past
/// pane [`MAX_PANES`]` - 1`.
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
    if last_pane >= MAX_PANES {
        return Err(FitError::TooManyPanes {
            panes: last_pane.saturating_add(1),
            max: MAX_PANES,
        });
    }

    // One cursor cuts the panes (records arrive in issue order) and
    // folds each pane's records into its statistics.
    let mut panes: Vec<(ChunkStats, u64)> = Vec::with_capacity(last_pane as usize + 1);
    let mut cursor = 0usize;
    for pane in 0..=last_pane {
        let mut stats = ChunkStats::new(n);
        let start = cursor;
        while cursor < records.len() && pane_of(records[cursor].issue) == pane {
            stats.observe(&records[cursor], config)?;
            cursor += 1;
        }
        panes.push((stats, (cursor - start) as u64));
    }

    let mut snapshots = Vec::with_capacity(panes.len());
    for tick in 0..=last_pane {
        let first_pane = (tick + 1).saturating_sub(width);
        let mut merged = ChunkStats::new(n);
        let mut in_window = 0u64;
        for (stats, count) in &panes[first_pane as usize..=tick as usize] {
            merged.merge(stats, config);
            in_window += count;
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
use wasla_simlib::json;

#[cfg(test)]
#[path = "../tests/support/v1_writer.rs"]
mod v1_writer;

#[cfg(test)]
mod tests {
    use super::v1_writer::to_tsv_v1;
    use super::*;
    use wasla_simlib::json::to_string;

    /// A v2 time field: the 16 lowercase hex digits of `x`'s bits.
    fn bits(x: f64) -> String {
        format!("{:016x}", x.to_bits())
    }

    /// A TSV writer: `OpLog::to_tsv` (v2) or the v1 oracle.
    type Writer = fn(&OpLog) -> String;

    /// Both writers, each with the header its output starts with.
    fn writers() -> [(Writer, &'static str); 2] {
        [
            (OpLog::to_tsv, FORMAT_HEADER),
            (to_tsv_v1, FORMAT_HEADER_V1),
        ]
    }

    /// Observes the pieces `log[0..cuts[0]]`, `log[cuts[0]..cuts[1]]`,
    /// …, `log[cuts[last]..]` each on its own and merges them in order.
    /// `cuts` must be non-decreasing; repeated cuts give empty pieces.
    fn split_and_merge(log: &OpLog, cuts: &[usize], n: usize, config: &FitConfig) -> ChunkStats {
        let records = log.records();
        let mut merged = ChunkStats::new(n);
        let mut start = 0;
        for end in cuts.iter().copied().chain([records.len()]) {
            let mut piece = ChunkStats::new(n);
            for rec in &records[start..end] {
                piece.observe(rec, config).unwrap();
            }
            merged.merge(&piece, config);
            start = end;
        }
        merged
    }

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
        for (write, header) in writers() {
            let tsv = write(&log);
            assert_eq!(tsv, format!("{header}\n"));
            let back = OpLog::parse_tsv(&tsv).unwrap();
            assert!(back.is_empty());
        }
    }

    #[test]
    fn v2_times_are_bit_patterns() {
        let mut log = OpLog::new();
        log.push(rec(0.5, 7, IoKind::Write, 4096, 512));
        assert_eq!(
            log.to_tsv(),
            format!(
                "{FORMAT_HEADER}\nW\t7\t4096\t512\t3fe0000000000000\t{}\n",
                bits(0.502)
            )
        );
    }

    #[test]
    fn merge_of_random_splits_matches_serial_pass() {
        let log = sample_log(500);
        let (names, sizes) = catalog();
        let config = FitConfig::default();
        let serial = fit_oplog_streamed(&log, &names, &sizes, &config).unwrap();
        let mut rng = wasla_simlib::SimRng::new(17);
        for round in 0..40 {
            let pieces = 1 + rng.index(12);
            let mut cuts: Vec<usize> = (1..pieces).map(|_| rng.index(log.len() + 1)).collect();
            cuts.sort_unstable();
            let merged = split_and_merge(&log, &cuts, names.len(), &config)
                .finish(&names, &sizes)
                .unwrap();
            assert_eq!(
                to_string(&merged),
                to_string(&serial),
                "round {round}: cuts {cuts:?}"
            );
        }
    }

    #[test]
    fn streamed_fit_of_empty_log_matches_materialized() {
        let log = OpLog::new();
        let (names, sizes) = catalog();
        let config = FitConfig::default();
        let fitted = fit_oplog_streamed(&log, &names, &sizes, &config).unwrap();
        let merged = split_and_merge(&log, &[0, 0], names.len(), &config);
        assert_eq!(
            to_string(&fitted),
            to_string(&merged.finish(&names, &sizes).unwrap())
        );
        assert!(fitted.specs.iter().all(|s| s.total_rate() == 0.0));
    }

    #[test]
    fn merge_preserves_runs_split_across_chunks() {
        // One long sequential run split across piece boundaries must
        // still count as a single run.
        let mut log = OpLog::new();
        for k in 0..10u64 {
            log.push(rec(k as f64 * 0.01, 0, IoKind::Read, k * 65536, 65536));
        }
        let (names, sizes) = catalog();
        let config = FitConfig::default();
        for cuts in [vec![1, 2, 3, 4, 5, 6, 7, 8, 9], vec![3, 6, 9], vec![5]] {
            let set = split_and_merge(&log, &cuts, names.len(), &config)
                .finish(&names, &sizes)
                .unwrap();
            assert!(
                (set.specs[0].run_count - 10.0).abs() < 1e-9,
                "cuts={cuts:?} run_count={}",
                set.specs[0].run_count
            );
        }
    }

    #[test]
    fn trace_content_hash_matches_materialized_trace() {
        // The key persisted fit caches and fault seeds depend on: FNV
        // over the record count, then each record's (issue, stream,
        // direction, offset, len) — completion times excluded.
        let reference = |log: &OpLog| {
            let mut h = wasla_simlib::hash::Fnv64::new();
            h.write_u64(log.len() as u64);
            for r in log.records() {
                h.write_f64(r.issue.as_secs());
                h.write_u64(r.stream as u64);
                h.write_u64(u64::from(r.kind == IoKind::Write));
                h.write_u64(r.offset);
                h.write_u64(r.len);
            }
            h.finish()
        };
        let log = sample_log(120);
        assert_eq!(log.trace_content_hash(), reference(&log));
        assert_eq!(OpLog::new().trace_content_hash(), reference(&OpLog::new()));
        let mut late = log.clone();
        late.set_complete(3, SimTime::from_secs(99.0));
        assert_eq!(late.trace_content_hash(), log.trace_content_hash());
    }

    #[test]
    fn damaged_trace_content_hash_matches_materialized_damage() {
        let log = sample_log(40);
        for keep in [0, 17, 40] {
            let mut damaged = OpLog::new();
            for (i, rec) in log.records().iter().enumerate() {
                let mut rec = *rec;
                if i >= keep {
                    rec.stream = u32::MAX;
                }
                damaged.push(rec);
            }
            assert_eq!(
                log.trace_content_hash_damaged(keep),
                damaged.trace_content_hash(),
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
        let err = fit_oplog_streamed(&log, &names, &sizes, &FitConfig::default()).unwrap_err();
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
        // The same damage in each format: the header, then the times
        // 0, 0.1, NaN, 5 and 1 as that format spells them.
        let v1 = ["0", "0.1", "nan", "5", "1"].map(String::from);
        let v2 = [0.0, 0.1, f64::NAN, 5.0, 1.0].map(bits);
        for (header, [t0, t01, nan, t5, t1]) in [(FORMAT_HEADER_V1, v1), (FORMAT_HEADER, v2)] {
            let cases: Vec<(String, OpLogError)> = vec![
                (
                    format!("{header}\nR\t0\t0\t8192\t{t0}\n"),
                    OpLogError::Truncated { line: 2, fields: 5 },
                ),
                (
                    format!("{header}\nX\t0\t0\t8192\t{t0}\t{t01}\n"),
                    OpLogError::UnknownOp { line: 2 },
                ),
                (
                    format!("{header}\nR\t-1\t0\t8192\t{t0}\t{t01}\n"),
                    OpLogError::BadField {
                        line: 2,
                        field: "stream",
                    },
                ),
                (
                    format!("{header}\nR\t0\t0\t8192\t{nan}\t{t01}\n"),
                    OpLogError::BadField {
                        line: 2,
                        field: "issue",
                    },
                ),
                (
                    format!("{header}\nR\t0\t0\t8192\t{t5}\t{t1}\n"),
                    OpLogError::NonMonotone { line: 2 },
                ),
                (
                    format!("{header}\nR\t0\t{}\t8192\t0\t0.1\n", "9".repeat(200)),
                    OpLogError::Overlong { line: 2, len: 215 },
                ),
            ];
            for (text, want) in cases {
                assert_eq!(OpLog::parse_tsv(&text).unwrap_err(), want, "text={text:?}");
            }
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
        // v1 rows: decimal times.
        const R1: &str = "R\t0\t0\t8192\t0\t0.1";
        const R2: &str = "W\t1\t4096\t512\t0.5\t0.7";
        let h = |body: &str| format!("{FORMAT_HEADER_V1}\n{body}");
        // v2 rows: the same records with bit-pattern times.
        const V2R1: &str = "R\t0\t0\t8192\t0000000000000000\t3fb999999999999a";
        const V2R2: &str = "W\t1\t4096\t512\t3fe0000000000000\t3fe6666666666666";
        let h2 = |body: &str| format!("{FORMAT_HEADER}\n{body}");
        // A v2 record whose issue and complete fields are `issue` and
        // `complete` verbatim.
        let v2 = |issue: &str, complete: &str| h2(&format!("R\t0\t0\t8192\t{issue}\t{complete}\n"));
        const HALF: &str = "3fe0000000000000";
        let bad = |line: usize, field: &'static str| OpLogError::BadField { line, field };
        // A valid record padded to exactly `len` bytes with leading
        // zeros in the offset field.
        let padded = |len: usize| {
            let short = "R\t0\t\t8192\t0\t0.1".len();
            format!("R\t0\t{}\t8192\t0\t0.1", "0".repeat(len - short))
        };
        let padded_v2 = |len: usize| {
            let short = "R\t0\t\t8192\t0000000000000000\t3fb999999999999a".len();
            format!(
                "R\t0\t{}\t8192\t0000000000000000\t3fb999999999999a",
                "0".repeat(len - short)
            )
        };
        let mut regress = String::new();
        let mut regress_v2 = String::new();
        for k in 0..4100u64 {
            let t = if k == 4096 { 0.0 } else { k as f64 * 1e-3 };
            let (t, t2) = (json::format_f64(t), bits(t));
            regress.push_str(&format!("R\t0\t{k}\t8192\t{t}\t{t}\n"));
            regress_v2.push_str(&format!("R\t0\t{k}\t8192\t{t2}\t{t2}\n"));
        }
        let cases: Vec<(&str, String, Want)> = vec![
            (
                "crlf",
                format!("{FORMAT_HEADER_V1}\r\n{R1}\r\n{R2}\r\n"),
                Want::Salvage(2, 0, None),
            ),
            (
                "bare cr at eof",
                h(&format!("{R1}\n{R2}\r")),
                Want::Salvage(1, 1, Some(bad(3, "complete"))),
            ),
            (
                "bare cr after header",
                format!("{FORMAT_HEADER_V1}\r"),
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
                format!("{FORMAT_HEADER_V1}\n"),
                Want::Salvage(0, 0, None),
            ),
            (
                "header without newline",
                FORMAT_HEADER_V1.to_string(),
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
            (
                "negative zero time",
                h("R\t0\t0\t8192\t-0.0\t0.1\n"),
                Want::Salvage(1, 0, None),
            ),
            (
                "bit-pattern time under the v1 header",
                h(&format!("R\t0\t0\t8192\t{HALF}\t{HALF}\n")),
                Want::Fails(bad(2, "issue")),
            ),
            // v2: the cursor, the line-length limit and the salvage rules
            // are shared, so the same edges hold.
            (
                "v2 crlf",
                format!("{FORMAT_HEADER}\r\n{V2R1}\r\n{V2R2}\r\n"),
                Want::Salvage(2, 0, None),
            ),
            (
                "v2 bare cr at eof",
                h2(&format!("{V2R1}\n{V2R2}\r")),
                Want::Salvage(1, 1, Some(bad(3, "complete"))),
            ),
            (
                "v2 bare cr after header",
                format!("{FORMAT_HEADER}\r"),
                Want::Fails(OpLogError::MissingHeader),
            ),
            (
                "v2 missing final newline",
                h2(&format!("{V2R1}\n{V2R2}")),
                Want::Salvage(2, 0, None),
            ),
            (
                "v2 header only",
                format!("{FORMAT_HEADER}\n"),
                Want::Salvage(0, 0, None),
            ),
            (
                "v2 header without newline",
                FORMAT_HEADER.to_string(),
                Want::Salvage(0, 0, None),
            ),
            (
                "unknown version",
                "#wasla-oplog v3\n".to_string(),
                Want::Fails(OpLogError::MissingHeader),
            ),
            (
                "v2 plus-signed integers",
                h2("R\t+3\t+0\t+8192\t0000000000000000\t3fb999999999999a\n"),
                Want::Salvage(1, 0, None),
            ),
            (
                "v2 uppercase hex issue",
                v2("3FE0000000000000", HALF),
                Want::Fails(bad(2, "issue")),
            ),
            (
                "v2 one uppercase digit in complete",
                h2(&format!(
                    "{V2R1}\nR\t0\t0\t8192\t{HALF}\t3fe000000000000A\n{V2R2}\n"
                )),
                Want::Salvage(1, 2, Some(bad(3, "complete"))),
            ),
            (
                "v2 15 hex digits",
                v2("3fe000000000000", HALF),
                Want::Fails(bad(2, "issue")),
            ),
            (
                "v2 17 hex digits",
                v2(HALF, "3fe00000000000000"),
                Want::Fails(bad(2, "complete")),
            ),
            ("v2 empty time", v2("", HALF), Want::Fails(bad(2, "issue"))),
            (
                "v2 non-hex byte",
                v2("3fe00000000g0000", HALF),
                Want::Fails(bad(2, "issue")),
            ),
            (
                "v2 0x prefix",
                v2("0x3fe00000000000", HALF),
                Want::Fails(bad(2, "issue")),
            ),
            (
                "v2 plus-signed time",
                v2(HALF, "+3fe000000000000"),
                Want::Fails(bad(2, "complete")),
            ),
            (
                "v2 non-ascii byte",
                v2(HALF, "3fe00000000000é"),
                Want::Fails(bad(2, "complete")),
            ),
            (
                "v2 nan issue",
                v2("7ff8000000000000", HALF),
                Want::Fails(bad(2, "issue")),
            ),
            (
                "v2 signalling nan issue",
                v2("7ff0000000000001", HALF),
                Want::Fails(bad(2, "issue")),
            ),
            (
                "v2 inf complete",
                v2(HALF, "7ff0000000000000"),
                Want::Fails(bad(2, "complete")),
            ),
            (
                "v2 -inf issue",
                v2("fff0000000000000", HALF),
                Want::Fails(bad(2, "issue")),
            ),
            (
                "v2 negative issue",
                v2("bff0000000000000", HALF),
                Want::Fails(bad(2, "issue")),
            ),
            (
                "v2 smallest negative complete",
                v2("0000000000000000", "8000000000000001"),
                Want::Fails(bad(2, "complete")),
            ),
            (
                "v2 negative zero time",
                v2("8000000000000000", HALF),
                Want::Salvage(1, 0, None),
            ),
            (
                "v2 decimal time",
                h2("R\t0\t0\t8192\t0\t0.1\n"),
                Want::Fails(bad(2, "issue")),
            ),
            (
                "v2 complete before issue",
                v2("4014000000000000", "3ff0000000000000"),
                Want::Fails(OpLogError::NonMonotone { line: 2 }),
            ),
            (
                "v2 u32 overflow",
                h2(&format!("{V2R1}\nR\t4294967296\t0\t8192\t{HALF}\t{HALF}\n")),
                Want::Salvage(1, 1, Some(bad(3, "stream"))),
            ),
            (
                "v2 empty line mid-file",
                h2(&format!("{V2R1}\n\n{V2R2}\n")),
                Want::Salvage(1, 2, Some(OpLogError::Truncated { line: 3, fields: 1 })),
            ),
            (
                "v2 trailing tab",
                h2(&format!("{V2R1}\t\n")),
                Want::Fails(OpLogError::Truncated { line: 2, fields: 7 }),
            ),
            (
                "v2 160-byte line",
                h2(&format!("{}\n", padded_v2(160))),
                Want::Salvage(1, 0, None),
            ),
            (
                "v2 161-byte line after a record",
                h2(&format!("{V2R1}\n{}\n{V2R2}\n", padded_v2(161))),
                Want::Salvage(1, 2, Some(OpLogError::Overlong { line: 3, len: 161 })),
            ),
            (
                "v2 unknown op",
                h2(&format!(
                    "{V2R1}\nX\t1\t2\t3\t{HALF}\t{HALF}\n{V2R2}\n\n{V2R2}"
                )),
                Want::Salvage(1, 4, Some(OpLogError::UnknownOp { line: 3 })),
            ),
            (
                "v2 equal issue times",
                h2(&format!("{V2R1}\n{V2R1}\n")),
                Want::Salvage(2, 0, None),
            ),
            (
                "v2 regression within a chunk",
                h2(&format!("{V2R2}\n{V2R1}\n")),
                Want::Salvage(1, 1, Some(OpLogError::NonMonotone { line: 3 })),
            ),
            (
                "v2 regression across a 4096-line boundary",
                h2(&regress_v2),
                Want::Salvage(4096, 4, Some(OpLogError::NonMonotone { line: 4098 })),
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
        let v1 = OpLog::parse_tsv(&format!(
            "{FORMAT_HEADER_V1}\r\nW\t+3\t007\t18446744073709551615\t1e-3\t2.5E-1\r\n\
             R\t4294967295\t0\t0\t0.25\t0.25"
        ))
        .unwrap();
        let v2 = OpLog::parse_tsv(&format!(
            "{FORMAT_HEADER}\r\nW\t+3\t007\t18446744073709551615\t3f50624dd2f1a9fc\t3fd0000000000000\r\n\
             R\t4294967295\t0\t0\t3fd0000000000000\t3fd0000000000000"
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
        assert_eq!(v1.records(), &want);
        assert_eq!(v2.records(), &want);

        // A v2 time is the pattern itself, whatever the value: zero of
        // either sign, the smallest subnormal, the largest finite.
        let patterns = [
            0x8000_0000_0000_0000u64,
            0,
            1,
            0x3fe0_0000_0000_0000,
            0x7fef_ffff_ffff_ffff,
        ];
        let mut text = format!("{FORMAT_HEADER}\n");
        for p in patterns {
            text.push_str(&format!("W\t0\t0\t1\t{p:016x}\t7fefffffffffffff\n"));
        }
        let log = OpLog::parse_tsv(&text).unwrap();
        let got: Vec<u64> = log
            .records()
            .iter()
            .map(|r| r.issue.as_secs().to_bits())
            .collect();
        assert_eq!(got, patterns);
        assert_eq!(log.to_tsv(), text);
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

    /// One way to damage a v2 line's time fields, chosen by `pick`.
    fn mutate_v2_line(line: &str, pick: u64, rng: &mut wasla_simlib::SimRng) -> String {
        // Byte offset of the issue field: after the fourth tab.
        let issue = line.match_indices('\t').nth(3).map_or(0, |(i, _)| i + 1);
        let at = issue + rng.index(33); // a byte of either time or the tab between
        let mut bytes = line.as_bytes().to_vec();
        match pick % 8 {
            0 => bytes[at] = bytes[at].to_ascii_uppercase(),
            1 => {
                bytes.remove(at);
            }
            2 => bytes.insert(at, b"0123456789abcdef"[rng.index(16)]),
            3 => bytes[at] = 0x20 + rng.index(0x5f) as u8,
            4 => bytes[issue] = b"0123456789abcdef"[rng.index(16)],
            5 => bytes[at] = [b'\t', b'\r', b'-', b'+'][rng.index(4)],
            6 => {
                let special = ["7ff8000000000000", "7ff0000000000000", "fff0000000000000"];
                let p = special[rng.index(3)].as_bytes();
                let field = if rng.chance(0.5) { issue } else { issue + 17 };
                bytes[field..field + 16].copy_from_slice(p);
            }
            _ => bytes[issue] = b'8' + rng.index(8) as u8, // sign bit set
        }
        String::from_utf8(bytes).expect("mutations write ASCII")
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

        /// A v1 log and its v2 rewrite read to the same records, bit
        /// for bit, over the whole field range; rewriting either back
        /// reproduces both texts.
        #[test]
        fn v1_to_v2_keeps_every_record(seed in 0u64..1_000_000, n in 0usize..300) {
            let log = wide_log(seed, n);
            let v1 = to_tsv_v1(&log);
            let from_v1 = OpLog::parse_tsv(&v1).expect("v1 log parses");
            wasla_simlib::prop_assert_eq!(from_v1.records(), log.records());
            let v2 = from_v1.to_tsv();
            wasla_simlib::prop_assert_eq!(&v2, &log.to_tsv());
            let from_v2 = OpLog::parse_tsv(&v2).expect("v2 rewrite parses");
            wasla_simlib::prop_assert_eq!(from_v2.records(), log.records());
            wasla_simlib::prop_assert_eq!(from_v2.trace_content_hash(), log.trace_content_hash());
            wasla_simlib::prop_assert_eq!(to_tsv_v1(&from_v2), v1);
        }

        /// On v2 lines, clean or with damaged times, the fast path
        /// accepts a line only with the record the reference parser
        /// gives, and it accepts every clean line.
        #[test]
        fn v2_fast_path_matches_reference(seed in 0u64..1_000_000, n in 1usize..60) {
            let mut rng = wasla_simlib::SimRng::new(seed ^ 0x5eed);
            let text = wide_log(seed, n).to_tsv();
            for clean in text.lines().skip(1) {
                let pick = rng.next_u64();
                let line = if pick % 3 == 0 {
                    clean.to_string()
                } else {
                    mutate_v2_line(clean, pick / 3, &mut rng)
                };
                let reference = parse_line(2, &line, TimeFormat::Bits);
                for ending in ["\n", "\r\n", ""] {
                    let framed = format!("{line}{ending}");
                    match parse_record_fast(&framed, 0, TimeFormat::Bits) {
                        Some((rec, next)) => {
                            wasla_simlib::prop_assert_eq!(Ok(rec), reference);
                            wasla_simlib::prop_assert_eq!(next, framed.len());
                        }
                        None => wasla_simlib::prop_assert!(
                            line != clean,
                            "fast path refused a clean line {line:?}"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn lossy_parse_salvages_valid_prefix() {
        let log = sample_log(20);
        for (write, _) in writers() {
            let mut tsv = write(&log);
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
    }

    #[test]
    fn lossy_parse_with_no_valid_prefix_keeps_the_typed_error() {
        for (_, header) in writers() {
            let text = format!("{header}\nnot a record\nR\t0\t0\t8192\t0\t0.1\n");
            let err = OpLog::parse_tsv_lossy(&text).unwrap_err();
            assert_eq!(err, OpLogError::Truncated { line: 2, fields: 1 });
        }
    }

    #[test]
    fn lossy_parse_truncates_at_cross_chunk_time_regression() {
        let mut log = sample_log(5);
        log.records.push(rec(0.001, 0, IoKind::Read, 0, 8192)); // goes backwards
        for (write, header) in writers() {
            let mut tsv = String::new();
            tsv.push_str(header);
            tsv.push('\n');
            for r in log.records() {
                let mut one = OpLog::new();
                one.records.push(*r);
                tsv.push_str(write(&one).lines().nth(1).unwrap());
                tsv.push('\n');
            }
            let (salvaged, salvage) = OpLog::parse_tsv_lossy(&tsv).unwrap();
            assert_eq!(salvaged.len(), 5);
            assert_eq!(
                salvage.first_error,
                Some(OpLogError::NonMonotone { line: 7 })
            );
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
                    direct.observe(rec, &config).unwrap();
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
    fn epoch_stamped_log_is_too_many_panes() {
        let (names, sizes) = catalog();
        let mut log = OpLog::new();
        log.push(rec(1.7e9, 0, IoKind::Read, 0, 8192));
        log.push(rec(1.7e9 + 1.0, 1, IoKind::Read, 0, 8192));
        let plan = WindowPlan::default();
        let err =
            windowed_workloads(&log, &names, &sizes, &FitConfig::default(), &plan).unwrap_err();
        assert_eq!(
            err,
            FitError::TooManyPanes {
                panes: 170_000_001,
                max: MAX_PANES
            }
        );
        // The last pane under the limit still fits.
        let mut edge = OpLog::new();
        edge.push(rec(
            (MAX_PANES - 1) as f64 * plan.pane_s,
            0,
            IoKind::Read,
            0,
            8192,
        ));
        let snapshots =
            windowed_workloads(&edge, &names, &sizes, &FitConfig::default(), &plan).unwrap();
        assert_eq!(snapshots.len() as u64, MAX_PANES);
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
