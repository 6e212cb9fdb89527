//! Op-log ingestion benchmarks: the fit at 1/2/4/8 threads, the
//! strict TSV reader on the same log in both formats, and the writer.
//!
//! The fit (`fit_oplog_streamed`, DESIGN.md §12) is one serial pass, so
//! its rows across the thread sweep should read flat: a row that moves
//! with the pool width means parallel work crept back into ingestion.
//! The suite records the wall-clock in `results/BENCH_ingest.json`. The
//! parse benches time the strict TSV reader, which is serial too, so
//! they run at one thread only: `oplog_parse_strict/v1` reads decimal
//! times, `oplog_parse_strict/v2` bit-pattern times, and
//! `ci/bench_diff.sh` gates v2 ≤ 0.6× v1 in the same run.
//! `oplog_write/v2` times `OpLog::to_tsv`.
//!
//! Thread counts are pinned by setting `WASLA_THREADS` around each
//! case (the bench main is single-threaded, so the writes cannot race
//! a reader), same as the `par` suite.

use std::hint::black_box;
use wasla::simlib::{json, SimTime};
use wasla::storage::{IoKind, GIB};
use wasla::trace::oplog::{fit_oplog_streamed, OpLog, OpRecord, FORMAT_HEADER_V1};
use wasla::trace::FitConfig;
use wasla_bench::harness::{Harness, Throughput};

// The v1 writer exists only as a test oracle; the library writes v2.
#[path = "../../trace/tests/support/v1_writer.rs"]
mod v1_writer;
use v1_writer::to_tsv_v1;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const RECORDS: u64 = 40_000;
const OBJECTS: usize = 20;

fn with_threads(t: usize, f: impl FnOnce()) {
    std::env::set_var("WASLA_THREADS", t.to_string());
    f();
    std::env::remove_var("WASLA_THREADS");
}

/// A deterministic synthetic log: every object alternates sequential
/// runs with strided jumps, so the fitter's run detection and window
/// bookkeeping both do real work. Issue gaps and service times are
/// irregular, so as in a captured log (`tests/fixtures/golden.oplog`)
/// most v1 times print with 16–17 significant digits.
fn sample_log() -> OpLog {
    let mut log = OpLog::new();
    let mut offsets = vec![0u64; OBJECTS];
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut uniform = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut t = 0.0;
    for k in 0..RECORDS {
        let stream = (k % OBJECTS as u64) as u32;
        let o = &mut offsets[stream as usize];
        *o = if k % 7 == 0 {
            (*o + 48 * 1024 * 1024) % (2 * GIB)
        } else {
            (*o + 65536) % (2 * GIB)
        };
        t += 0.002 * uniform();
        let issue = SimTime::from_secs(t);
        log.push(OpRecord {
            kind: if k % 5 == 0 {
                IoKind::Write
            } else {
                IoKind::Read
            },
            stream,
            offset: *o,
            len: 65536,
            issue,
            complete: SimTime::from_secs(t + 0.001 + 0.01 * uniform()),
        });
    }
    log
}

fn catalog() -> (Vec<String>, Vec<u64>) {
    (
        (0..OBJECTS).map(|i| format!("obj{i}")).collect(),
        vec![2 * GIB; OBJECTS],
    )
}

fn bench_streamed(c: &mut Harness) {
    let log = sample_log();
    let (names, sizes) = catalog();
    let config = FitConfig::default();
    let mut group = c.benchmark_group("oplog_ingest_streamed");
    for t in THREAD_COUNTS {
        with_threads(t, || {
            group.bench_function(format!("threads{t}"), |b| {
                b.iter(|| {
                    black_box(
                        fit_oplog_streamed(&log, &names, &sizes, &config)
                            .expect("streamed fit succeeds"),
                    )
                })
            });
        });
    }
    group.finish();
}

fn bench_parse(c: &mut Harness) {
    let log = sample_log();
    let mut group = c.benchmark_group("oplog_parse_strict");
    with_threads(1, || {
        for (format, text) in [("v1", to_tsv_v1(&log)), ("v2", log.to_tsv())] {
            group.throughput(Throughput::Bytes(text.len() as u64));
            group.bench_function(format, |b| {
                b.counter("bytes_per_record", text.len() as f64 / RECORDS as f64);
                b.iter(|| black_box(OpLog::parse_tsv(&text).expect("log parses")))
            });
        }
    });
    group.finish();
}

fn bench_write(c: &mut Harness) {
    let log = sample_log();
    let mut group = c.benchmark_group("oplog_write");
    group.throughput(Throughput::Elements(RECORDS));
    group.bench_function("v2", |b| b.iter(|| black_box(log.to_tsv())));
    group.finish();
}

wasla_bench::bench_main!("ingest", bench_streamed, bench_parse, bench_write);
