//! The v1 op-log writer, kept only as a test oracle: the library reads
//! `#wasla-oplog v1` logs but writes only v2. This is the v1 `to_tsv`
//! byte for byte, so tests can render any log in both formats.
//!
//! Include it with `#[path = ".../v1_writer.rs"] mod v1_writer;` from a
//! module that has `OpLog`, `IoKind`, `FORMAT_HEADER_V1` and the
//! simlib `json` module in scope.

use super::{json, IoKind, OpLog, FORMAT_HEADER_V1};

/// `log` as a v1 TSV: decimal integers, and times in the shortest
/// round-trip decimal form of `json::format_f64`.
pub fn to_tsv_v1(log: &OpLog) -> String {
    let mut out = format!("{FORMAT_HEADER_V1}\n");
    for rec in log.records() {
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
