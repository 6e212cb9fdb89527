//! Golden round-trip: the committed fixture `tests/fixtures/golden.oplog`
//! (the header plus the first 40 records of a real `wasla-advisor
//! capture` run) must survive write → read → write byte-for-byte.
//!
//! This pins the on-disk format: any change to the TSV layout, the
//! float formatting, or the header string shows up as a diff against
//! the fixture instead of silently breaking captured logs in the wild.
//! `ci/check.sh` runs this suite by name in its replay-validation gate.

use wasla_trace::oplog::{OpLog, FORMAT_HEADER};

const GOLDEN: &str = include_str!("../../../tests/fixtures/golden.oplog");

#[test]
fn golden_fixture_round_trips_byte_for_byte() {
    assert!(GOLDEN.starts_with(FORMAT_HEADER));
    let log = OpLog::parse_tsv(GOLDEN).expect("committed fixture parses");
    assert_eq!(log.len(), 40, "fixture holds 40 records");
    assert_eq!(
        log.to_tsv(),
        GOLDEN,
        "write→read→write must be the identity on the committed fixture"
    );
}

#[test]
fn golden_fixture_is_clean_for_the_lossy_reader() {
    let (log, salvage) = OpLog::parse_tsv_lossy(GOLDEN).expect("lossy parse succeeds");
    assert_eq!(salvage.kept, 40);
    assert_eq!(salvage.dropped, 0);
    assert!(salvage.first_error.is_none());
    assert_eq!(log.to_tsv(), GOLDEN);
}

#[test]
fn golden_fixture_hashes_are_pinned() {
    let log = OpLog::parse_tsv(GOLDEN).expect("fixture parses");
    // These 64-bit values key the persisted fit cache and seed the
    // fault plan's trace-corruption roll, so a change to the hashing
    // silently invalidates saved sessions and reshuffles which runs a
    // fault seed damages. Pin both the clean and the damaged form.
    assert_eq!(log.trace_content_hash(), 0x2e17_f7b8_77dd_9c8c);
    assert_eq!(log.trace_content_hash_damaged(17), 0x4e5e_148d_7eac_9fa9);
}
