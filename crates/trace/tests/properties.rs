//! Property tests: synthetic op-logs with known parameters round-trip
//! through the fitter, and the op-log reader survives arbitrary damage
//! with typed errors (never a panic).

use wasla_simlib::proptest::prelude::*;
use wasla_simlib::{json, SimRng, SimTime};
use wasla_storage::IoKind;
use wasla_trace::oplog::{
    fit_oplog_streamed, ChunkStats, OpLog, OpLogError, OpRecord, FORMAT_HEADER, FORMAT_HEADER_V1,
};
use wasla_trace::{FitConfig, FitError};
use wasla_workload::WorkloadSet;

#[path = "support/v1_writer.rs"]
mod v1_writer;
use v1_writer::to_tsv_v1;

/// How one op-log format writes a log and spells a time field.
struct Format {
    header: &'static str,
    write: fn(&OpLog) -> String,
    time: fn(f64) -> String,
}

/// v2 (what `to_tsv` writes) and v1 (read-only; the test oracle
/// writer).
const FORMATS: [Format; 2] = [
    Format {
        header: FORMAT_HEADER,
        write: OpLog::to_tsv,
        time: |x| format!("{:016x}", x.to_bits()),
    },
    Format {
        header: FORMAT_HEADER_V1,
        write: to_tsv_v1,
        time: json::format_f64,
    },
];

/// One read or write at `t` seconds (completion equals issue: the fit
/// reads issue times only).
fn op(t: f64, stream: u32, kind: IoKind, offset: u64, len: u64) -> OpRecord {
    OpRecord {
        kind,
        stream,
        offset,
        len,
        issue: SimTime::from_secs(t),
        complete: SimTime::from_secs(t),
    }
}

fn fit(log: &OpLog, names: &[String], sizes: &[u64]) -> Result<WorkloadSet, FitError> {
    fit_oplog_streamed(log, names, sizes, &FitConfig::default())
}

proptest! {
    /// Rates and sizes are recovered exactly for a single uniform
    /// stream (the fitter's span is last-first, so rate = (n-1)/span
    /// requests per interval step).
    #[test]
    fn uniform_stream_rate_and_size_recovered(
        n in 10u64..500,
        interval_ms in 1u64..1000,
        len_kib in 1u64..512,
        is_write in any::<bool>(),
    ) {
        let mut log = OpLog::new();
        let kind = if is_write { IoKind::Write } else { IoKind::Read };
        for k in 0..n {
            let t = k as f64 * interval_ms as f64 / 1e3;
            log.push(op(t, 0, kind, k * 10_000_000, len_kib * 1024));
        }
        let set = fit(&log, &["a".into()], &[1 << 40]).unwrap();
        let spec = &set.specs[0];
        let span = (n - 1) as f64 * interval_ms as f64 / 1e3;
        let expected_rate = n as f64 / span;
        let (rate, size) = if is_write {
            (spec.write_rate, spec.write_size)
        } else {
            (spec.read_rate, spec.read_size)
        };
        prop_assert!((rate - expected_rate).abs() / expected_rate < 1e-9);
        prop_assert_eq!(size, (len_kib * 1024) as f64);
        set.validate().expect("fitted set valid");
    }

    /// Run counts are recovered for exact-run synthetic streams.
    #[test]
    fn run_count_recovered(
        runs in 2u64..50,
        run_len in 1u64..64,
        len_kib in 1u64..128,
    ) {
        let mut log = OpLog::new();
        let len = len_kib * 1024;
        let mut t = 0.0;
        for r in 0..runs {
            // Separate runs by far more than the fitter's gap tolerance.
            let base = r * ((run_len * len + 1) << 31);
            for k in 0..run_len {
                log.push(op(t, 0, IoKind::Read, base + k * len, len));
                t += 0.01;
            }
        }
        let set = fit(&log, &["a".into()], &[1 << 42]).unwrap();
        prop_assert!(
            (set.specs[0].run_count - run_len as f64).abs() < 1e-9,
            "fitted {} expected {}",
            set.specs[0].run_count,
            run_len
        );
    }

    /// Overlaps are symmetric for fully co-active streams and bounded
    /// in [0,1] always.
    #[test]
    fn overlaps_bounded_and_fully_coactive_streams_overlap(
        n in 10u64..200,
        streams in 2u32..5,
    ) {
        let mut log = OpLog::new();
        for k in 0..n {
            for s in 0..streams {
                log.push(op(k as f64, s, IoKind::Read, k * 8192, 8192));
            }
        }
        let names: Vec<String> = (0..streams).map(|s| format!("s{s}")).collect();
        let sizes = vec![1u64 << 30; streams as usize];
        let set = fit(&log, &names, &sizes).unwrap();
        for i in 0..streams as usize {
            for j in 0..streams as usize {
                let o = set.specs[i].overlaps[j];
                prop_assert!((0.0..=1.0).contains(&o));
                if i != j {
                    prop_assert!(o > 0.99, "O[{i}][{j}] = {o}");
                }
            }
        }
    }
}

/// Objects the synthetic logs below address.
const LOG_OBJECTS: u32 = 8;

/// A deterministic pseudo-random op-log: `seed` picks the stream, the
/// kinds, and the (monotone) issue schedule, so every property below
/// shrinks over two integers instead of a record vector.
fn synth_log(n: u64, seed: u64) -> OpLog {
    let mut log = OpLog::new();
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut t = 0.0f64;
    for _ in 0..n {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        t += ((s >> 45) % 1000) as f64 / 1e3;
        let service = ((s >> 21) % 500) as f64 / 1e3;
        log.push(OpRecord {
            kind: if s & 1 == 0 {
                IoKind::Read
            } else {
                IoKind::Write
            },
            stream: ((s >> 33) % LOG_OBJECTS as u64) as u32,
            offset: (s >> 7) % (1 << 30),
            len: 512 * (1 + ((s >> 17) % 128)),
            issue: SimTime::from_secs(t),
            complete: SimTime::from_secs(t + service),
        });
    }
    log
}

proptest! {
    /// Write → read → write is the identity on bytes for any valid
    /// log in either format, and the lossy reader agrees that nothing
    /// was dropped.
    #[test]
    fn oplog_roundtrip_is_byte_identical(n in 1u64..300, seed in 0u64..1_000_000) {
        let log = synth_log(n, seed);
        for format in &FORMATS {
            let text = (format.write)(&log);
            let parsed = OpLog::parse_tsv(&text).expect("serialized log parses");
            prop_assert_eq!((format.write)(&parsed), text.clone());
            prop_assert_eq!(parsed.records(), log.records());
            prop_assert_eq!(parsed.trace_content_hash(), log.trace_content_hash());
            let (lossy, salvage) = OpLog::parse_tsv_lossy(&text).expect("lossy parses");
            prop_assert_eq!(salvage.kept, n as usize);
            prop_assert_eq!(salvage.dropped, 0);
            prop_assert!(salvage.first_error.is_none());
            prop_assert_eq!((format.write)(&lossy), text);
        }
    }

    /// Cutting the file at an arbitrary byte never panics: the reader
    /// either salvages a valid prefix (which re-serializes cleanly) or
    /// returns a typed error.
    #[test]
    fn oplog_truncation_salvages_or_errors_typed(
        n in 2u64..150,
        seed in 0u64..1_000_000,
        cut_frac in 0u64..1000,
    ) {
        let log = synth_log(n, seed);
        for format in &FORMATS {
            let text = (format.write)(&log);
            let body_start = format.header.len() + 1;
            let pos = (cut_frac as usize * text.len()) / 1000;
            let cut = &text[..pos];
            // Strict parse: typed result either way, never a panic.
            let _ = OpLog::parse_tsv(cut);
            match OpLog::parse_tsv_lossy(cut) {
                Ok((log, salvage)) => {
                    prop_assert_eq!(salvage.kept, log.len());
                    let reparsed =
                        OpLog::parse_tsv(&log.to_tsv()).expect("salvaged prefix is valid");
                    prop_assert_eq!(reparsed.len(), log.len());
                }
                Err(OpLogError::MissingHeader) => {
                    // Only possible when the cut landed inside the header.
                    prop_assert!(pos < body_start);
                }
                Err(e) => {
                    // No salvageable prefix: the first record line itself
                    // was damaged. A cut mid-number can leave a `complete`
                    // that still parses but precedes its issue, so
                    // NonMonotone is reachable too.
                    prop_assert!(
                        matches!(e, OpLogError::Truncated { line: 2, .. }
                            | OpLogError::BadField { line: 2, .. }
                            | OpLogError::UnknownOp { line: 2 }
                            | OpLogError::NonMonotone { line: 2 }),
                        "unexpected prefix-free error {e:?}"
                    );
                }
            }
        }
    }

    /// Corrupting one record line — interleaved garbage, unknown op,
    /// an overlong line, an unparsable field, or a completion before
    /// its issue — yields exactly the expected typed error at the
    /// expected line, and the lossy reader keeps exactly the records
    /// before it.
    #[test]
    fn oplog_corruption_yields_typed_error(
        n in 1u64..120,
        seed in 0u64..1_000_000,
        at_frac in 0u64..1000,
        kind in 0usize..5,
    ) {
        let log = synth_log(n, seed);
        for format in &FORMATS {
            let text = (format.write)(&log);
            let t = format.time;
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            let i = (at_frac as usize * n as usize) / 1000; // record index
            let line_no = i + 2; // 1-based, counting the header
            let overlong = format!("R\t0\t0\t1\t0\t{}", "9".repeat(170));
            let expected = match kind {
                0 => {
                    lines[i + 1] = "!!interleaved garbage, no tabs!!".to_string();
                    OpLogError::Truncated { line: line_no, fields: 1 }
                }
                1 => {
                    lines[i + 1].replace_range(0..1, "X");
                    OpLogError::UnknownOp { line: line_no }
                }
                2 => {
                    let len = overlong.len();
                    lines[i + 1] = overlong;
                    OpLogError::Overlong { line: line_no, len }
                }
                3 => {
                    lines[i + 1] = format!("R\tnope\t0\t1\t{}\t{}", t(0.0), t(0.0));
                    OpLogError::BadField { line: line_no, field: "stream" }
                }
                _ => {
                    lines[i + 1] = format!("R\t0\t0\t1\t{}\t{}", t(5.0), t(1.0));
                    OpLogError::NonMonotone { line: line_no }
                }
            };
            let damaged = lines.join("\n") + "\n";
            prop_assert_eq!(OpLog::parse_tsv(&damaged).unwrap_err(), expected);
            if i == 0 {
                // No valid prefix: the lossy reader stays strict.
                prop_assert_eq!(OpLog::parse_tsv_lossy(&damaged).unwrap_err(), expected);
            } else {
                let (salvaged, salvage) =
                    OpLog::parse_tsv_lossy(&damaged).expect("prefix salvages");
                prop_assert_eq!(salvaged.len(), i);
                prop_assert_eq!(salvage.kept, i);
                prop_assert_eq!(salvage.dropped, n as usize - i);
                prop_assert_eq!(salvage.first_error, Some(expected));
                prop_assert_eq!(salvaged.records(), &log.records()[..i]);
            }
        }
    }

    /// Cutting the log at random points, observing each piece on its
    /// own and merging the pieces in order gives exactly the one-pass
    /// fit (the windowed fit builds every window this way).
    #[test]
    fn merge_of_random_splits_matches_serial_pass(
        n in 1u64..200,
        seed in 0u64..1_000_000,
        cut_seed in 0u64..1_000_000,
        pieces in 1usize..12,
    ) {
        let log = synth_log(n, seed);
        let names: Vec<String> = (0..LOG_OBJECTS).map(|k| format!("o{k}")).collect();
        let sizes = vec![1u64 << 30; LOG_OBJECTS as usize];
        let config = FitConfig::default();
        let serial = fit_oplog_streamed(&log, &names, &sizes, &config).unwrap();
        let mut rng = SimRng::new(cut_seed);
        let mut cuts: Vec<usize> = (1..pieces).map(|_| rng.index(log.len() + 1)).collect();
        cuts.sort_unstable();
        cuts.push(log.len());
        let mut merged = ChunkStats::new(names.len());
        let mut start = 0;
        for end in cuts {
            let mut piece = ChunkStats::new(names.len());
            for rec in &log.records()[start..end] {
                piece.observe(rec, &config).unwrap();
            }
            merged.merge(&piece, &config);
            start = end;
        }
        let merged = merged.finish(&names, &sizes).unwrap();
        prop_assert_eq!(json::to_string(&merged), json::to_string(&serial));
    }
}
