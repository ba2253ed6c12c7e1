//! Migration coverage for the binary segment shards: a legacy JSONL cache
//! directory is refused untouched, `import_jsonl` copies its shard files
//! into a fresh segment directory bit-exactly, a restart over that
//! directory is byte-identical, and a torn or corrupt segment tail is
//! truncated, logged and counted instead of panicking.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use srra_explore::{fnv1a_64, import_jsonl, PointRecord, SegmentStore};
use srra_serve::{ShardError, ShardedStore};

const SHARDS: usize = 2;

/// Serializes the tests that read deltas of the process-global torn
/// counters.
static TORN_COUNTERS: Mutex<()> = Mutex::new(());

fn torn_counter(name: &str) -> u64 {
    srra_obs::Registry::global()
        .snapshot()
        .counter(name)
        .unwrap_or(0)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("srra-seg-migrate-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn record_for(index: u64) -> PointRecord {
    let canonical = format!("kernel=fir;algo=CPA-RA;budget={index};latency=2;device=XCV1000");
    PointRecord {
        key: fnv1a_64(canonical.as_bytes()),
        canonical,
        kernel: "fir".to_owned(),
        algorithm: "CPA-RA".to_owned(),
        version: "v3".to_owned(),
        budget: index,
        ram_latency: 2,
        device: "XCV1000-BG560".to_owned(),
        feasible: true,
        fits: true,
        registers_used: index + 1,
        total_cycles: index * 1000,
        compute_cycles: index * 900,
        memory_cycles: index * 90,
        transfer_cycles: index * 10,
        clock_period_ns: index as f64 + 0.5,
        execution_time_us: index as f64 * 3.25,
        slices: index * 7,
        block_rams: index % 5,
        distribution: format!("a:{index} b:1"),
    }
}

/// Writes `records` as a legacy JSONL shard directory, routed like the
/// sharded store routes (`key % SHARDS`).
fn write_legacy_dir(dir: &Path, records: &[PointRecord]) {
    std::fs::create_dir_all(dir).unwrap();
    let mut shards: Vec<String> = vec![String::new(); SHARDS];
    for record in records {
        let shard = (record.key % SHARDS as u64) as usize;
        record.write_json_line(&mut shards[shard]);
        shards[shard].push('\n');
    }
    for (index, text) in shards.iter().enumerate() {
        std::fs::write(dir.join(format!("shard-{index:03}.jsonl")), text).unwrap();
    }
}

fn shard_files(dir: &Path, suffix: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| {
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.starts_with("shard-") && name.ends_with(suffix))
        })
        .collect();
    files.sort();
    files
}

fn read_all(paths: &[PathBuf]) -> Vec<Vec<u8>> {
    paths
        .iter()
        .map(|path| std::fs::read(path).unwrap())
        .collect()
}

/// Every record resolves with the exact bytes and float bits it was stored
/// with, and a duplicate put dedupes.
fn assert_resolves_bit_exactly(store: &ShardedStore, records: &[PointRecord]) {
    for record in records {
        let found = store
            .get_record(record.key, &record.canonical)
            .unwrap()
            .expect("record resolves");
        assert_eq!(found.to_json_line(), record.to_json_line());
        assert_eq!(
            found.execution_time_us.to_bits(),
            record.execution_time_us.to_bits()
        );
        assert!(!store.put_record(record).unwrap());
    }
}

#[test]
fn legacy_jsonl_dirs_are_refused_untouched_and_import_into_segments_bit_exactly() {
    const RECORDS: u64 = 32;
    let dir = scratch_dir("legacy");
    let records: Vec<PointRecord> = (0..RECORDS).map(record_for).collect();
    write_legacy_dir(&dir, &records);
    let legacy = shard_files(&dir, ".jsonl");
    let legacy_before = read_all(&legacy);

    // Opening the old directory fails with a typed error naming the
    // converter, and writes nothing: no segment file, no lock file.
    match ShardedStore::open(&dir, SHARDS) {
        Err(err @ ShardError::Legacy(_)) => {
            assert!(err.to_string().contains("srra migrate"), "{err}");
        }
        other => panic!("expected ShardError::Legacy, got {other:?}"),
    }
    let mut listing: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    listing.sort();
    assert_eq!(listing, legacy, "open must create nothing in a legacy dir");
    assert_eq!(
        read_all(&legacy),
        legacy_before,
        "open must not touch JSONL"
    );

    // Importing each shard file into a fresh directory copies every record.
    let fresh = scratch_dir("legacy-fresh");
    {
        let mut store = ShardedStore::open(&fresh, SHARDS).unwrap();
        let migrated: usize = legacy
            .iter()
            .map(|path| {
                let done = import_jsonl(path, &mut store).unwrap();
                assert_eq!(done.duplicates, 0);
                done.migrated
            })
            .sum();
        assert_eq!(migrated, RECORDS as usize);
        assert_resolves_bit_exactly(&store, &records);
    }
    assert_eq!(
        read_all(&legacy),
        legacy_before,
        "import must not touch JSONL"
    );
    let segments = shard_files(&fresh, ".seg");
    assert_eq!(segments.len(), SHARDS);
    let seg_before = read_all(&segments);

    // Restart over the imported directory: every record resolves and the
    // segment files stay byte-identical (re-hydration is read-only).
    {
        let store = ShardedStore::open(&fresh, SHARDS).unwrap();
        assert_resolves_bit_exactly(&store, &records);
    }
    assert_eq!(
        read_all(&segments),
        seg_before,
        "restart must not rewrite segments"
    );

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&fresh).unwrap();
}

#[test]
fn a_torn_trailing_segment_is_truncated_and_counted_not_a_panic() {
    const RECORDS: u64 = 8;
    let dir = scratch_dir("torn");
    {
        let store = ShardedStore::open(&dir, SHARDS).unwrap();
        for index in 0..RECORDS {
            assert!(store.put_record(&record_for(index)).unwrap());
        }
    }

    // Tear the tail of shard 0: a record header promising more payload than
    // the file holds (a crash mid-append).
    let victim = dir.join("shard-000.seg");
    let clean_len = std::fs::metadata(&victim).unwrap().len();
    {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&victim)
            .unwrap();
        file.write_all(&200u32.to_le_bytes()).unwrap();
        file.write_all(&0xDEAD_BEEFu64.to_le_bytes()).unwrap();
        file.write_all(b"only a few payload bytes").unwrap();
    }

    let _serial = TORN_COUNTERS.lock().unwrap_or_else(|err| err.into_inner());
    let torn_before = torn_counter("store_torn_segments_total");
    let store = ShardedStore::open(&dir, SHARDS).unwrap();
    for index in 0..RECORDS {
        let expected = record_for(index);
        let found = store
            .get_record(expected.key, &expected.canonical)
            .unwrap()
            .expect("intact records survive the torn tail");
        assert_eq!(found.to_json_line(), expected.to_json_line());
    }
    let torn_after = torn_counter("store_torn_segments_total");
    assert_eq!(torn_after - torn_before, 1, "the torn record is counted");
    drop(store);

    // The torn bytes were truncated away: the file is back to its clean
    // length and a direct segment scan agrees nothing is torn any more.
    assert_eq!(std::fs::metadata(&victim).unwrap().len(), clean_len);
    let shard = SegmentStore::open(&victim).unwrap();
    assert_eq!(shard.torn_bytes(), None);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_corrupt_first_header_truncates_the_whole_shard_loudly() {
    let dir = scratch_dir("first-header");
    {
        let store = ShardedStore::open(&dir, 1).unwrap();
        for index in 0..3 {
            assert!(store.put_record(&record_for(index)).unwrap());
        }
    }
    // Flip one byte of the first record header's key: the scan cannot get
    // past it, so all three records are lost.
    let victim = dir.join("shard-000.seg");
    let mut bytes = std::fs::read(&victim).unwrap();
    let file_len = bytes.len() as u64;
    bytes[8 + 4] ^= 0xff;
    std::fs::write(&victim, &bytes).unwrap();

    // The segment store reports the dropped range (checked on a copy, since
    // opening truncates)...
    let copy = dir.join("copy.seg");
    std::fs::write(&copy, &bytes).unwrap();
    assert_eq!(
        SegmentStore::open(&copy).unwrap().torn_bytes(),
        Some(8..file_len)
    );

    // ...and the sharded store counts every dropped byte.
    let _serial = TORN_COUNTERS.lock().unwrap_or_else(|err| err.into_inner());
    let bytes_before = torn_counter("store_torn_bytes_total");
    let store = ShardedStore::open(&dir, 1).unwrap();
    assert_eq!(
        torn_counter("store_torn_bytes_total") - bytes_before,
        file_len - 8
    );
    assert_eq!(store.shard_sizes().unwrap(), vec![0]);
    drop(store);
    assert_eq!(std::fs::metadata(&victim).unwrap().len(), 8);

    std::fs::remove_dir_all(&dir).unwrap();
}
