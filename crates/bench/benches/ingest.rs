//! Op-log ingestion benchmarks: the fit at 1/2/4/8 threads, plus the
//! strict TSV reader.
//!
//! The fit (`fit_oplog_streamed`, DESIGN.md §12) is one serial pass, so
//! its rows across the thread sweep should read flat: a row that moves
//! with the pool width means parallel work crept back into ingestion.
//! The suite records the wall-clock in `results/BENCH_ingest.json`. The
//! parse bench times the strict TSV reader, which is serial too, so it
//! runs at one thread only.
//!
//! Thread counts are pinned by setting `WASLA_THREADS` around each
//! case (the bench main is single-threaded, so the writes cannot race
//! a reader), same as the `par` suite.

use std::hint::black_box;
use wasla::simlib::SimTime;
use wasla::storage::{IoKind, GIB};
use wasla::trace::oplog::{fit_oplog_streamed, OpLog, OpRecord};
use wasla::trace::FitConfig;
use wasla_bench::harness::Harness;

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
/// bookkeeping both do real work.
fn sample_log() -> OpLog {
    let mut log = OpLog::new();
    let mut offsets = vec![0u64; OBJECTS];
    for k in 0..RECORDS {
        let stream = (k % OBJECTS as u64) as u32;
        let o = &mut offsets[stream as usize];
        *o = if k % 7 == 0 {
            (*o + 48 * 1024 * 1024) % (2 * GIB)
        } else {
            (*o + 65536) % (2 * GIB)
        };
        let issue = SimTime::from_secs(k as f64 * 0.001);
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
            complete: SimTime::from_secs(k as f64 * 0.001 + 0.004),
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
    let text = sample_log().to_tsv();
    let mut group = c.benchmark_group("oplog_parse_strict");
    with_threads(1, || {
        group.bench_function("threads1", |b| {
            b.iter(|| black_box(OpLog::parse_tsv(&text).expect("log parses")))
        });
    });
    group.finish();
}

wasla_bench::bench_main!("ingest", bench_streamed, bench_parse);
