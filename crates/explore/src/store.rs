//! Content-addressed result stores: the record type and its one codec shape
//! (a [`Fields`] impl that gives its JSON line and its binary payload), the
//! store traits, an in-memory map, and a read-only importer for JSON-lines
//! caches written by earlier versions.  The persistent backend is
//! [`crate::SegmentStore`].
//!
//! The layering follows the `StorageBase` / `Storage` split common in embedded
//! storage APIs: [`StoreBase`] carries the error type and the cheap queries,
//! [`ResultStore`] adds typed get/put.  Records are keyed by the FNV-1a hash of
//! the design point's canonical string, but every store indexes a *small vector*
//! of records per key and matches on the canonical string, so a (vanishingly
//! unlikely) hash collision stores both colliding records instead of silently
//! dropping — and forever re-evaluating — the second one.

use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt::Write as _;
use std::path::Path;

use crate::codec::{Decode, Encode, Fields, Reader, WireError, Writer};
use crate::json::JsonValue;

/// The persisted outcome of evaluating one design point.
///
/// `feasible` is `false` when the allocator rejected the point (register budget
/// below the kernel's reference count); all metric fields are zero in that
/// case.  `fits` records whether the design's slice and BlockRAM usage fits the
/// evaluated device.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// FNV-1a hash of `canonical` — the store key.
    pub key: u64,
    /// The canonical design-point string (see `DesignPoint::canonical`).
    pub canonical: String,
    /// Kernel name.
    pub kernel: String,
    /// Algorithm label (`FR-RA`, `PR-RA`, `CPA-RA`, ...).
    pub algorithm: String,
    /// Table 1 version name (`v1`, `v2`, `v3`, ...).
    pub version: String,
    /// Register budget the point was evaluated with.
    pub budget: u64,
    /// RAM access latency in cycles.
    pub ram_latency: u64,
    /// Device name.
    pub device: String,
    /// Whether the allocator accepted the point.
    pub feasible: bool,
    /// Whether the design fits on the device.
    pub fits: bool,
    /// Registers consumed by the allocation.
    pub registers_used: u64,
    /// Total execution cycles.
    pub total_cycles: u64,
    /// Datapath / loop-control cycles.
    pub compute_cycles: u64,
    /// Steady-state RAM access cycles (at `ram_latency`).
    pub memory_cycles: u64,
    /// Prologue/epilogue transfer cycles.
    pub transfer_cycles: u64,
    /// Achievable clock period in nanoseconds.
    pub clock_period_ns: f64,
    /// Wall-clock execution time in microseconds.
    pub execution_time_us: f64,
    /// Logic slices occupied.
    pub slices: u64,
    /// BlockRAMs occupied.
    pub block_rams: u64,
    /// Per-reference register distribution.
    pub distribution: String,
}

impl PointRecord {
    /// Encodes the record as one line of JSON (no trailing newline): its
    /// [`Fields`] in declaration order, so identical records encode to
    /// identical bytes.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write_json_line(&mut out);
        out
    }

    /// Appends the record's JSON line (no trailing newline) to `out` —
    /// the allocation-free twin of [`PointRecord::to_json_line`] for callers
    /// embedding records into a reused buffer.
    pub fn write_json_line(&self, out: &mut String) {
        self.render(out);
    }

    /// Decodes a record from one JSON line produced by
    /// [`PointRecord::to_json_line`].  Numbers keep their source text, so the
    /// f64 fields come back bit-exactly.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax problem or missing field.
    pub fn from_json_line(line: &str) -> Result<Self, String> {
        Self::from_json(&JsonValue::parse(line)?)
    }
}

/// A record's one shape, for its JSON line, both wire codecs and the
/// segment file payload.  `f64`s render as their shortest round-tripping
/// text in JSON and their bit pattern in binary.
impl Fields for PointRecord {
    const NAME: &'static str = "record";

    fn write_fields<W: Writer>(&self, w: &mut W) -> Result<(), WireError> {
        w.field("key", &HexKey(self.key))?;
        w.field("canonical", &self.canonical)?;
        w.field("kernel", &self.kernel)?;
        w.field("algorithm", &self.algorithm)?;
        w.field("version", &self.version)?;
        w.field("budget", &self.budget)?;
        w.field("ram_latency", &self.ram_latency)?;
        w.field("device", &self.device)?;
        w.field("feasible", &self.feasible)?;
        w.field("fits", &self.fits)?;
        w.field("registers_used", &self.registers_used)?;
        w.field("total_cycles", &self.total_cycles)?;
        w.field("compute_cycles", &self.compute_cycles)?;
        w.field("memory_cycles", &self.memory_cycles)?;
        w.field("transfer_cycles", &self.transfer_cycles)?;
        w.field("clock_period_ns", &self.clock_period_ns)?;
        w.field("execution_time_us", &self.execution_time_us)?;
        w.field("slices", &self.slices)?;
        w.field("block_rams", &self.block_rams)?;
        w.field("distribution", &self.distribution)
    }

    fn read_fields<R: Reader>(r: &mut R) -> Result<Self, WireError> {
        Ok(Self {
            key: r.field::<HexKey>("key")?.0,
            canonical: r.field("canonical")?,
            kernel: r.field("kernel")?,
            algorithm: r.field("algorithm")?,
            version: r.field("version")?,
            budget: r.field("budget")?,
            ram_latency: r.field("ram_latency")?,
            device: r.field("device")?,
            feasible: r.field("feasible")?,
            fits: r.field("fits")?,
            registers_used: r.field("registers_used")?,
            total_cycles: r.field("total_cycles")?,
            compute_cycles: r.field("compute_cycles")?,
            memory_cycles: r.field("memory_cycles")?,
            transfer_cycles: r.field("transfer_cycles")?,
            clock_period_ns: r.field("clock_period_ns")?,
            execution_time_us: r.field("execution_time_us")?,
            slices: r.field("slices")?,
            block_rams: r.field("block_rams")?,
            distribution: r.field("distribution")?,
        })
    }
}

/// The record key: a `"0x%016x"` string in JSON, a plain `u64` in binary.
struct HexKey(u64);

impl Encode for HexKey {
    fn render(&self, out: &mut String) {
        let _ = write!(out, "\"{:#018x}\"", self.0);
    }

    fn write(&self, out: &mut impl std::io::Write) -> Result<(), WireError> {
        self.0.write(out)
    }
}

impl Decode for HexKey {
    const KIND: &'static str = "a string";

    fn from_json(value: &JsonValue) -> Result<Self, String> {
        let text = value.as_str().ok_or("expected a string")?;
        let digits = text
            .strip_prefix("0x")
            .ok_or_else(|| format!("expected 0x prefix, got `{text}`"))?;
        u64::from_str_radix(digits, 16)
            .map(Self)
            .map_err(|err| err.to_string())
    }

    fn read(reader: &mut impl std::io::Read) -> Result<Self, WireError> {
        u64::read(reader).map(Self)
    }
}

/// Base layer of the store stack: the error type and cheap queries.
pub trait StoreBase {
    /// Errors the backend can produce.
    type Error: std::fmt::Debug;

    /// Whether a record for `key` exists.
    ///
    /// # Errors
    ///
    /// Backend-specific (I/O for persistent stores).
    fn contains(&self, key: u64) -> Result<bool, Self::Error>;

    /// Number of records held.
    ///
    /// # Errors
    ///
    /// Backend-specific (I/O for persistent stores).
    fn len(&self) -> Result<usize, Self::Error>;

    /// Whether the store holds no records.
    ///
    /// # Errors
    ///
    /// Backend-specific (I/O for persistent stores).
    fn is_empty(&self) -> Result<bool, Self::Error> {
        Ok(self.len()? == 0)
    }
}

/// Typed layer: content-addressed get/put of [`PointRecord`]s.
pub trait ResultStore: StoreBase {
    /// Looks up the record for `key`, verifying `canonical` to rule out hash
    /// collisions.
    ///
    /// # Errors
    ///
    /// Backend-specific (I/O for persistent stores).
    fn get(&self, key: u64, canonical: &str) -> Result<Option<PointRecord>, Self::Error>;

    /// Inserts a record; returns `false` if a record with the same canonical
    /// string was already present (the stored record wins — results are
    /// immutable).  A record whose key collides with a *different* canonical
    /// string is stored alongside the existing one, not dropped.
    ///
    /// # Errors
    ///
    /// Backend-specific (I/O for persistent stores).
    fn put(&mut self, record: &PointRecord) -> Result<bool, Self::Error>;
}

/// The shared per-key index of the in-memory backends: a small vector of
/// records per FNV key (almost always length 1; longer only under a genuine
/// 64-bit hash collision).
pub(crate) type KeyIndex = HashMap<u64, Vec<PointRecord>>;

/// Inserts into a [`KeyIndex`], deduplicating by canonical string; returns
/// whether the record was fresh.
pub(crate) fn index_insert(index: &mut KeyIndex, record: &PointRecord) -> bool {
    let bucket = index.entry(record.key).or_default();
    if bucket.iter().any(|held| held.canonical == record.canonical) {
        return false;
    }
    bucket.push(record.clone());
    true
}

/// Looks a canonical string up in a [`KeyIndex`].
pub(crate) fn index_get(index: &KeyIndex, key: u64, canonical: &str) -> Option<PointRecord> {
    index
        .get(&key)?
        .iter()
        .find(|record| record.canonical == canonical)
        .cloned()
}

/// A purely in-memory store.
#[derive(Debug, Default)]
pub struct MemoryStore {
    records: KeyIndex,
    count: usize,
}

impl MemoryStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Iterates over every held record (unspecified order).
    pub fn records(&self) -> impl Iterator<Item = &PointRecord> {
        self.records.values().flatten()
    }
}

impl StoreBase for MemoryStore {
    type Error = Infallible;

    fn contains(&self, key: u64) -> Result<bool, Infallible> {
        Ok(self.records.contains_key(&key))
    }

    fn len(&self) -> Result<usize, Infallible> {
        Ok(self.count)
    }
}

impl ResultStore for MemoryStore {
    fn get(&self, key: u64, canonical: &str) -> Result<Option<PointRecord>, Infallible> {
        Ok(index_get(&self.records, key, canonical))
    }

    fn put(&mut self, record: &PointRecord) -> Result<bool, Infallible> {
        let fresh = index_insert(&mut self.records, record);
        self.count += usize::from(fresh);
        Ok(fresh)
    }
}

/// Errors of the persistent backends.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// A file is not in the expected format, or a record does not encode.
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(err) => write!(f, "cache I/O error: {err}"),
            StoreError::Corrupt(message) => write!(f, "corrupt cache: {message}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(err: std::io::Error) -> Self {
        StoreError::Io(err)
    }
}

/// What [`import_jsonl`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Imported {
    /// Records put into the store.
    pub migrated: usize,
    /// Records the store already held (same canonical string).
    pub duplicates: usize,
}

/// Puts every record of a JSON-lines cache (one [`PointRecord::to_json_line`]
/// per line, as earlier versions wrote) into `store`; `path` is only read.
/// An unparseable last line without its newline — a killed writer's — is
/// skipped.
///
/// # Errors
///
/// Source I/O errors, [`StoreError::Corrupt`] naming the first bad line,
/// and the store's own errors.
pub fn import_jsonl<S>(path: impl AsRef<Path>, store: &mut S) -> Result<Imported, S::Error>
where
    S: ResultStore,
    S::Error: From<StoreError>,
{
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(StoreError::Io)?;
    let mut imported = Imported::default();
    for (number, line) in text.split_inclusive('\n').enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match PointRecord::from_json_line(line) {
            Ok(record) if store.put(&record)? => imported.migrated += 1,
            Ok(_) => imported.duplicates += 1,
            Err(_) if !line.ends_with('\n') => {}
            Err(message) => {
                let at = format!("`{}` line {}", path.display(), number + 1);
                return Err(StoreError::Corrupt(format!("{at}: {message}")).into());
            }
        }
    }
    Ok(imported)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SegmentStore;
    use std::path::PathBuf;

    fn sample_record(key: u64) -> PointRecord {
        PointRecord {
            key,
            canonical: format!("kernel=fir;algo=CPA-RA;budget={key};latency=2;device=XCV1000"),
            kernel: "fir".to_owned(),
            algorithm: "CPA-RA".to_owned(),
            version: "v3".to_owned(),
            budget: key,
            ram_latency: 2,
            device: "XCV1000-BG560".to_owned(),
            feasible: true,
            fits: true,
            registers_used: 32,
            total_cycles: 123_456,
            compute_cycles: 100_000,
            memory_cycles: 20_000,
            transfer_cycles: 3_456,
            clock_period_ns: 10.573,
            execution_time_us: 1_305.312_048,
            slices: 471,
            block_rams: 3,
            distribution: "a:30 b:1 \"c\":1".to_owned(),
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let record = sample_record(42);
        let line = record.to_json_line();
        let back = PointRecord::from_json_line(&line).expect("parses");
        assert_eq!(back, record);
        // Re-encoding is byte-identical.
        assert_eq!(back.to_json_line(), line);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(PointRecord::from_json_line("").is_err());
        assert!(PointRecord::from_json_line("{}").is_err());
        assert!(PointRecord::from_json_line("not json").is_err());
        assert!(PointRecord::from_json_line("{\"key\":\"0x1\"").is_err());
    }

    #[test]
    fn memory_store_is_content_addressed() {
        let mut store = MemoryStore::new();
        let record = sample_record(7);
        assert!(!store.contains(7).unwrap());
        assert!(store.put(&record).unwrap());
        assert!(!store.put(&record).unwrap(), "second put is a no-op");
        assert_eq!(store.len().unwrap(), 1);
        assert_eq!(
            store.get(7, &record.canonical).unwrap(),
            Some(record.clone())
        );
        // A colliding key with a different canonical string is a miss.
        assert_eq!(store.get(7, "other").unwrap(), None);
    }

    #[test]
    fn colliding_keys_store_both_records_instead_of_dropping_one() {
        // Two *distinct* design points whose canonical strings FNV-hash to the
        // same 64-bit key.  Before the key→vec index, the second `put`
        // returned Ok(false) without storing anything, so the point was
        // re-evaluated on every run.
        let first = sample_record(7);
        let mut second = sample_record(7);
        second.canonical = "kernel=mat;algo=FR-RA;budget=9;latency=1;device=XCV300".to_owned();
        second.total_cycles = 999;

        let mut memory = MemoryStore::new();
        assert!(memory.put(&first).unwrap());
        assert!(
            memory.put(&second).unwrap(),
            "a colliding key must not silently drop the record"
        );
        assert!(!memory.put(&second).unwrap(), "identical canonical dedupes");
        assert_eq!(memory.len().unwrap(), 2);
        assert_eq!(
            memory.get(7, &first.canonical).unwrap(),
            Some(first.clone())
        );
        assert_eq!(
            memory.get(7, &second.canonical).unwrap(),
            Some(second.clone())
        );
        assert_eq!(memory.records().count(), 2);

        // Same contract for the persistent backend, across a reopen.
        let dir = std::env::temp_dir().join(format!("srra-store-collide-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.seg");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = SegmentStore::open(&path).unwrap();
            assert!(store.put(&first).unwrap());
            assert!(store.put(&second).unwrap());
            assert!(!store.put(&second).unwrap());
        }
        let store = SegmentStore::open(&path).unwrap();
        assert_eq!(store.len().unwrap(), 2);
        assert_eq!(store.get(7, &first.canonical).unwrap(), Some(first));
        assert_eq!(store.get(7, &second.canonical).unwrap(), Some(second));
        std::fs::remove_file(&path).unwrap();
    }

    fn import_paths(tag: &str) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(format!("srra-import-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        (dir.join("cache.jsonl"), dir.join("cache.seg"))
    }

    #[test]
    fn import_jsonl_copies_records_dedupes_and_never_writes_the_source() {
        let (source, target) = import_paths("copy");
        let (first, second) = (sample_record(1), sample_record(2));
        // A duplicate line (as an old merge left behind) and a valid last
        // line whose newline never reached the disk.
        let text = format!(
            "{}\n{}\n\n{}",
            first.to_json_line(),
            first.to_json_line(),
            second.to_json_line()
        );
        std::fs::write(&source, &text).unwrap();
        let mut store = SegmentStore::open(&target).unwrap();
        let done = import_jsonl(&source, &mut store).unwrap();
        assert_eq!(
            done,
            Imported {
                migrated: 2,
                duplicates: 1
            }
        );
        assert_eq!(store.get(1, &first.canonical).unwrap(), Some(first));
        assert_eq!(store.get(2, &second.canonical).unwrap(), Some(second));
        let again = import_jsonl(&source, &mut store).unwrap();
        assert_eq!((again.migrated, again.duplicates), (0, 3));
        assert_eq!(std::fs::read_to_string(&source).unwrap(), text);
        std::fs::remove_dir_all(source.parent().unwrap()).unwrap();
    }

    #[test]
    fn import_jsonl_skips_a_torn_tail_and_reports_corrupt_lines() {
        let (source, target) = import_paths("torn");
        let half = sample_record(2).to_json_line();
        // A killed writer's half line at the end is skipped...
        std::fs::write(
            &source,
            format!(
                "{}\n{}",
                sample_record(1).to_json_line(),
                &half[..half.len() / 2]
            ),
        )
        .unwrap();
        let mut store = SegmentStore::open(&target).unwrap();
        assert_eq!(import_jsonl(&source, &mut store).unwrap().migrated, 1);
        assert_eq!(store.len().unwrap(), 1);
        // ...but a bad line with its newline is corruption, named by line.
        std::fs::write(
            &source,
            format!("{}\nnot json\n", sample_record(3).to_json_line()),
        )
        .unwrap();
        match import_jsonl(&source, &mut store) {
            Err(StoreError::Corrupt(message)) => assert!(message.contains("line 2"), "{message}"),
            other => panic!("expected a corrupt-line error, got {other:?}"),
        }
        std::fs::remove_dir_all(source.parent().unwrap()).unwrap();
    }
}
