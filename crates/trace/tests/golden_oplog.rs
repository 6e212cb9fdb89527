//! Golden round-trip: the committed fixtures `tests/fixtures/golden.oplog`
//! (the header plus the first 40 records of a real `wasla-advisor
//! capture` run, written as v1) and `tests/fixtures/golden_v2.oplog`
//! (the same records as v2) must read to the same records and survive
//! write → read → write byte-for-byte, each in its own format.
//!
//! This pins the on-disk formats: any change to the TSV layout, the
//! time encoding, or the header strings shows up as a diff against a
//! fixture instead of silently breaking captured logs in the wild.
//! `ci/check.sh` runs this suite by name in its replay-validation gate.

use wasla_simlib::json;
use wasla_storage::IoKind;
use wasla_trace::oplog::{OpLog, FORMAT_HEADER, FORMAT_HEADER_V1};

#[path = "support/v1_writer.rs"]
mod v1_writer;
use v1_writer::to_tsv_v1;

const GOLDEN: &str = include_str!("../../../tests/fixtures/golden.oplog");
const GOLDEN_V2: &str = include_str!("../../../tests/fixtures/golden_v2.oplog");

/// A TSV writer: `OpLog::to_tsv` (v2) or the v1 oracle.
type Writer = fn(&OpLog) -> String;

/// Each fixture with its header and the writer of its format.
fn fixtures() -> [(&'static str, &'static str, Writer); 2] {
    [
        (GOLDEN, FORMAT_HEADER_V1, to_tsv_v1),
        (GOLDEN_V2, FORMAT_HEADER, OpLog::to_tsv),
    ]
}

#[test]
fn golden_fixture_round_trips_byte_for_byte() {
    for (golden, header, write) in fixtures() {
        assert!(golden.starts_with(header));
        let log = OpLog::parse_tsv(golden).expect("committed fixture parses");
        assert_eq!(log.len(), 40, "fixture holds 40 records");
        assert_eq!(
            write(&log),
            golden,
            "write→read→write must be the identity on the committed fixture"
        );
        // Whichever format it was read from, `to_tsv` writes the v2
        // fixture, so both fixtures hold the same records, times bit
        // for bit.
        assert_eq!(log.to_tsv(), GOLDEN_V2);
    }
}

#[test]
fn golden_fixture_is_clean_for_the_lossy_reader() {
    for (golden, _, write) in fixtures() {
        let (log, salvage) = OpLog::parse_tsv_lossy(golden).expect("lossy parse succeeds");
        assert_eq!(salvage.kept, 40);
        assert_eq!(salvage.dropped, 0);
        assert!(salvage.first_error.is_none());
        assert_eq!(write(&log), golden);
    }
}

#[test]
fn golden_fixture_hashes_are_pinned() {
    for (golden, _, _) in fixtures() {
        let log = OpLog::parse_tsv(golden).expect("fixture parses");
        // This 64-bit value seeds the fault plan's trace-corruption
        // roll, so a change to the hashing silently reshuffles which
        // runs a fault seed damages.
        assert_eq!(log.trace_content_hash(), 0x2e17_f7b8_77dd_9c8c);
    }
}
