//! Golden segment fixture: the exact bytes a [`SegmentStore`] writes for
//! the two records of the wire fixture `record.jsonl`.
//!
//! `tests/golden/records.seg` pins the on-disk format.  The test puts the
//! records into a fresh store and compares the file byte for byte, then
//! reopens the fixture and checks that both records come back bit-exactly
//! (every f64 compared by its bits, so `-0.0` and subnormals count).

use std::path::PathBuf;

use srra_explore::{PointRecord, ResultStore, SegmentStore, StoreBase};

fn manifest_path(relative: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(relative)
}

/// The two records of the serve crate's `record.jsonl` wire fixture.
fn fixture_records() -> Vec<PointRecord> {
    let path = manifest_path("../serve/tests/golden/record.jsonl");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|err| panic!("fixture {}: {err}", path.display()));
    text.lines()
        .map(|line| PointRecord::from_json_line(line).expect("fixture record parses"))
        .collect()
}

fn assert_bit_exact(back: &PointRecord, expected: &PointRecord) {
    assert_eq!(back, expected);
    for (got, want) in [
        (back.clock_period_ns, expected.clock_period_ns),
        (back.execution_time_us, expected.execution_time_us),
    ] {
        assert_eq!(got.to_bits(), want.to_bits(), "{}", expected.canonical);
    }
}

#[test]
fn a_fresh_store_writes_the_fixture_bytes_and_reads_them_back_bit_exactly() {
    let records = fixture_records();
    assert_eq!(records.len(), 2);

    let dir = std::env::temp_dir().join(format!("srra-golden-seg-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let fresh = dir.join("records.seg");
    {
        let mut store = SegmentStore::open(&fresh).unwrap();
        for record in &records {
            assert!(store.put(record).unwrap());
        }
    }
    let golden = manifest_path("tests/golden/records.seg");
    let expected =
        std::fs::read(&golden).unwrap_or_else(|err| panic!("fixture {}: {err}", golden.display()));
    assert_eq!(
        std::fs::read(&fresh).unwrap(),
        expected,
        "segment bytes moved"
    );
    std::fs::remove_dir_all(&dir).unwrap();

    // Reopen a copy so the fixture itself is never opened for appending.
    let copy_dir = std::env::temp_dir().join(format!("srra-golden-seg-r-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&copy_dir);
    std::fs::create_dir_all(&copy_dir).unwrap();
    let copy = copy_dir.join("records.seg");
    std::fs::write(&copy, &expected).unwrap();
    let store = SegmentStore::open(&copy).unwrap();
    assert_eq!(store.len().unwrap(), records.len());
    for record in &records {
        let back = store
            .get(record.key, &record.canonical)
            .unwrap()
            .expect("fixture record resolves");
        assert_bit_exact(&back, record);
    }
    drop(store);
    assert_eq!(
        std::fs::read(&copy).unwrap(),
        expected,
        "reopen is read-only"
    );
    std::fs::remove_dir_all(&copy_dir).unwrap();
}
