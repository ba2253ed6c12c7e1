//! Fixed-header binary segment files: the one persistent store format,
//! whose re-hydration is a sequential scan, not a parse.
//!
//! A segment file holds [`PointRecord`]s in their [`crate::codec`] binary
//! encoding behind a fixed per-record header:
//!
//! ```text
//! file   := magic record*
//! magic  := "SRRASEG1"                 (8 bytes)
//! record := len:u32le key:u64le payload[len]
//! ```
//!
//! `len` is the payload byte count, `key` duplicates the record's FNV-1a
//! key so the startup scan can build the key index without decoding a
//! record it only needs to route, and `payload` is the binary encoding of
//! the record's [`Fields`](crate::codec::Fields) impl, the same bytes a
//! binary wire reply carries (its first field is the key — the scan
//! verifies the two agree, so a misaligned or corrupt record cannot be
//! silently indexed under the wrong key).
//!
//! Crash contract: appends write one header+payload and flush, so a killed
//! process loses at most the record being written.  On open, everything
//! from the first torn or corrupt header to the end of the file is
//! truncated away and reported as a byte range
//! ([`SegmentStore::torn_bytes`]) instead of failing the store.  The scan
//! cannot resynchronize, so a bad record mid-file also drops every record
//! after it — callers log the range so such a loss is never silent.
//!
//! JSON-lines caches of earlier versions are not opened here (their bytes
//! fail the magic check); [`crate::import_jsonl`] copies them in.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::codec::{from_bytes, Encode};
use crate::store::{index_get, index_insert, KeyIndex, PointRecord, StoreError};
use crate::store::{ResultStore, StoreBase};

/// The 8-byte file magic opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"SRRASEG1";

/// Largest payload a segment record header may claim (64 MiB); larger is
/// corruption, not data (a typical record payload is ~300 bytes).
pub const MAX_SEGMENT_RECORD_LEN: usize = 64 << 20;

/// A persistent [`ResultStore`] over one binary segment file.
///
/// `open` scans the segment file sequentially into an in-memory key index;
/// `put` appends one fixed-header record and flushes.
#[derive(Debug)]
pub struct SegmentStore {
    path: PathBuf,
    index: KeyIndex,
    count: usize,
    /// Raw records sitting in the segment file, duplicates included — what
    /// the opening scan saw plus every append since.
    scanned: usize,
    torn: Option<Range<u64>>,
    writer: BufWriter<File>,
    scratch: Vec<u8>,
}

impl SegmentStore {
    /// Opens (creating if needed) the segment store at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the file cannot be read or created and
    /// [`StoreError::Corrupt`] if the file does not start with the segment
    /// magic (for record-level corruption see [`SegmentStore::torn_bytes`],
    /// which is recovery, not an error).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut index = KeyIndex::new();
        let mut count = 0;
        let mut scanned = 0;
        let mut torn = None;
        if path.exists() {
            let data = std::fs::read(&path)?;
            // An empty file (e.g. created by a crashed run before the magic
            // landed) is adopted: the magic is (re)written below.
            if !data.is_empty() && !data.starts_with(SEGMENT_MAGIC) {
                return Err(StoreError::Corrupt(format!(
                    "`{}` is not a segment file (bad magic); convert a JSON-lines cache with `srra migrate`",
                    path.display()
                )));
            }
            let mut offset = SEGMENT_MAGIC.len().min(data.len());
            while offset < data.len() {
                let Some((record, consumed)) = scan_record(&data[offset..]) else {
                    // Torn or corrupt: truncate so future appends extend a
                    // consistent file, and report what was dropped.
                    OpenOptions::new()
                        .write(true)
                        .open(&path)?
                        .set_len(offset as u64)?;
                    torn = Some(offset as u64..data.len() as u64);
                    break;
                };
                count += usize::from(index_insert(&mut index, &record));
                scanned += 1;
                offset += consumed;
            }
        }

        let mut writer = BufWriter::new(OpenOptions::new().create(true).append(true).open(&path)?);
        if writer.get_ref().metadata()?.len() == 0 {
            writer.write_all(SEGMENT_MAGIC)?;
            writer.flush()?;
        }
        Ok(Self {
            path,
            index,
            count,
            scanned,
            torn,
            writer,
            scratch: Vec::with_capacity(512),
        })
    }

    /// Raw records in the segment file, duplicates included — what the
    /// opening scan saw plus every append since.  Equal to
    /// [`len`](StoreBase::len) unless the file holds duplicate records.
    pub fn segment_records(&self) -> usize {
        self.scanned
    }

    /// The segment file backing this store.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The byte range the opening scan truncated away, from the first torn
    /// or corrupt record header to the old end of file (`None` on a clean
    /// file).
    pub fn torn_bytes(&self) -> Option<Range<u64>> {
        self.torn.clone()
    }

    /// Iterates over every held record (unspecified order).
    pub fn records(&self) -> impl Iterator<Item = &PointRecord> {
        self.index.values().flatten()
    }
}

/// Decodes the record at the head of `bytes`; `None` means torn/corrupt.
fn scan_record(bytes: &[u8]) -> Option<(PointRecord, usize)> {
    let header = bytes.get(..12)?;
    let len = u32::from_le_bytes(header[..4].try_into().ok()?) as usize;
    if len > MAX_SEGMENT_RECORD_LEN {
        return None;
    }
    let key = u64::from_le_bytes(header[4..12].try_into().ok()?);
    let payload = bytes.get(12..12 + len)?;
    let record: PointRecord = from_bytes(payload).ok()?;
    if record.key != key {
        return None;
    }
    Some((record, 12 + len))
}

impl StoreBase for SegmentStore {
    type Error = StoreError;

    fn contains(&self, key: u64) -> Result<bool, StoreError> {
        Ok(self.index.contains_key(&key))
    }

    fn len(&self) -> Result<usize, StoreError> {
        Ok(self.count)
    }
}

impl ResultStore for SegmentStore {
    fn get(&self, key: u64, canonical: &str) -> Result<Option<PointRecord>, StoreError> {
        Ok(index_get(&self.index, key, canonical))
    }

    /// Appends one `[len][key][payload]` record and flushes.
    fn put(&mut self, record: &PointRecord) -> Result<bool, StoreError> {
        if index_get(&self.index, record.key, &record.canonical).is_some() {
            return Ok(false);
        }
        self.scratch.clear();
        record
            .write(&mut self.scratch)
            .map_err(|err| StoreError::Corrupt(format!("record does not encode: {err}")))?;
        let len = u32::try_from(self.scratch.len()).map_err(|_| {
            StoreError::Corrupt(format!(
                "record payload of {} bytes overflows the header",
                self.scratch.len()
            ))
        })?;
        self.writer.write_all(&len.to_le_bytes())?;
        self.writer.write_all(&record.key.to_le_bytes())?;
        self.writer.write_all(&self.scratch)?;
        self.writer.flush()?;
        index_insert(&mut self.index, record);
        self.count += 1;
        self.scanned += 1;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::to_bytes;

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

    fn scratch_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("srra-segment-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("shard.seg")
    }

    #[test]
    fn segment_store_persists_across_reopen() {
        let path = scratch_path("reopen");
        let _ = std::fs::remove_file(&path);
        let first = sample_record(1);
        let second = sample_record(2);
        {
            let mut store = SegmentStore::open(&path).unwrap();
            assert!(store.is_empty().unwrap());
            assert!(store.put(&first).unwrap());
            assert!(store.put(&second).unwrap());
            assert!(!store.put(&second).unwrap(), "dedupe by canonical");
        }
        let store = SegmentStore::open(&path).unwrap();
        assert_eq!(store.len().unwrap(), 2);
        assert_eq!(store.torn_bytes(), None);
        assert_eq!(store.get(1, &first.canonical).unwrap(), Some(first));
        assert_eq!(store.get(2, &second.canonical).unwrap(), Some(second));
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..8], SEGMENT_MAGIC);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_counted_not_a_panic() {
        let path = scratch_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = SegmentStore::open(&path).unwrap();
            assert!(store.put(&sample_record(1)).unwrap());
            assert!(store.put(&sample_record(2)).unwrap());
        }
        // Simulate a torn write: append half of a third record.
        let third = sample_record(3);
        let payload = to_bytes(&third).unwrap();
        let mut tail = Vec::new();
        tail.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        tail.extend_from_slice(&third.key.to_le_bytes());
        tail.extend_from_slice(&payload[..payload.len() / 2]);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        {
            use std::io::Write as _;
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            file.write_all(&tail).unwrap();
        }
        {
            let mut store = SegmentStore::open(&path).expect("opens despite torn tail");
            assert_eq!(store.len().unwrap(), 2);
            let torn_end = clean_len + tail.len() as u64;
            assert_eq!(store.torn_bytes(), Some(clean_len..torn_end));
            // The tail was truncated, so a fresh append lands cleanly.
            assert!(store.put(&third).unwrap());
        }
        let store = SegmentStore::open(&path).unwrap();
        assert_eq!(store.len().unwrap(), 3);
        assert_eq!(store.torn_bytes(), None);
        assert!(std::fs::metadata(&path).unwrap().len() > clean_len);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_key_mismatch_is_treated_as_corruption() {
        let path = scratch_path("mismatch");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = SegmentStore::open(&path).unwrap();
            assert!(store.put(&sample_record(1)).unwrap());
        }
        // Append a record whose header key disagrees with its payload.
        let bad = sample_record(9);
        let payload = to_bytes(&bad).unwrap();
        let clean_len = std::fs::metadata(&path).unwrap().len();
        {
            use std::io::Write as _;
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            file.write_all(&(payload.len() as u32).to_le_bytes())
                .unwrap();
            file.write_all(&777u64.to_le_bytes()).unwrap();
            file.write_all(&payload).unwrap();
        }
        let store = SegmentStore::open(&path).unwrap();
        assert_eq!(store.len().unwrap(), 1, "mismatched record dropped");
        let bad_len = 12 + payload.len() as u64;
        assert_eq!(store.torn_bytes(), Some(clean_len..clean_len + bad_len));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_segment_file_is_rejected_and_left_untouched() {
        let path = scratch_path("badmagic");
        let jsonl = format!("{}\n", sample_record(1).to_json_line());
        std::fs::write(&path, &jsonl).unwrap();
        match SegmentStore::open(&path) {
            Err(StoreError::Corrupt(message)) => {
                assert!(message.contains("bad magic"), "{message}");
                assert!(message.contains("srra migrate"), "{message}");
            }
            other => panic!("expected bad-magic error, got {other:?}"),
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), jsonl);
        std::fs::remove_file(&path).unwrap();
    }
}
