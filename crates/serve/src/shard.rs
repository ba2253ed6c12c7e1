//! [`ShardedStore`]: a result store split across N binary segment shard
//! files.
//!
//! Records are routed to shard `key % N`.  Each shard is an independent
//! [`SegmentStore`] behind its own **read/write lock**: lookups hit the
//! shard's in-memory key→records index under a shared read guard, so any
//! number of concurrent warm `get`s proceed in parallel without touching the
//! filesystem and without contending with each other; appends take the
//! exclusive write guard and tee the record to the shard's segment file
//! (fixed-header binary records — startup re-hydration is a sequential
//! scan, not a JSON parse).  A lock file in the cache directory keeps
//! concurrent *processes* from interleaving appends.  A directory still
//! holding JSON-lines shards of an earlier version is refused
//! ([`ShardError::Legacy`]) rather than opened as empty; `srra migrate`
//! copies such shards into a fresh directory.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use srra_explore::{fnv1a_64, PointRecord, ResultStore, SegmentStore, StoreBase, StoreError};
use srra_obs::{Counter, Histogram, Registry};

use crate::protocol::ShardDigest;

/// Handles into [`Registry::global`] for the shard-level instruments,
/// resolved once so the hot read path never takes the registry's name map.
struct ShardMetrics {
    reads: Arc<Counter>,
    writes: Arc<Counter>,
    read_wait: Arc<Histogram>,
    write_wait: Arc<Histogram>,
    /// Wall time of one full store open (all shards re-hydrated).
    rehydrate: Arc<Histogram>,
    /// Shards whose torn/corrupt tail was truncated away at open.
    torn_segments: Arc<Counter>,
    /// Bytes those truncations dropped.
    torn_bytes: Arc<Counter>,
}

fn shard_metrics() -> &'static ShardMetrics {
    static METRICS: OnceLock<ShardMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = Registry::global();
        ShardMetrics {
            reads: registry.counter("store_shard_reads_total"),
            writes: registry.counter("store_shard_writes_total"),
            read_wait: registry.histogram("store_shard_read_wait_us"),
            write_wait: registry.histogram("store_shard_write_wait_us"),
            rehydrate: registry.histogram("store_rehydrate_us"),
            torn_segments: registry.counter("store_torn_segments_total"),
            torn_bytes: registry.counter("store_torn_bytes_total"),
        }
    })
}

/// Errors of the sharded backend.
#[derive(Debug)]
pub enum ShardError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// A shard file failed to open or parse.
    Store(StoreError),
    /// The directory holds a JSON-lines shard file of an earlier version.
    Legacy(PathBuf),
    /// Another process holds the cache directory's lock file.
    Locked(PathBuf),
    /// The directory already holds a different number of shard files.
    ShardCount {
        /// Shard files found on disk.
        found: usize,
        /// Shard count requested by the caller.
        requested: usize,
    },
    /// A shard count of zero was requested.
    EmptyShardCount,
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Io(err) => write!(f, "shard I/O error: {err}"),
            ShardError::Store(err) => write!(f, "shard store error: {err}"),
            ShardError::Locked(path) => write!(
                f,
                "cache directory is locked by another process (remove `{}` if it is stale)",
                path.display()
            ),
            ShardError::ShardCount { found, requested } => write!(
                f,
                "cache directory holds {found} shard files but {requested} were requested"
            ),
            ShardError::Legacy(path) => write!(
                f,
                "`{}` is a JSON-lines shard of an earlier version; copy the directory's \
                 shard-*.jsonl files into a new --cache-dir with `srra migrate`",
                path.display()
            ),
            ShardError::EmptyShardCount => write!(f, "shard count must be at least 1"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<std::io::Error> for ShardError {
    fn from(err: std::io::Error) -> Self {
        ShardError::Io(err)
    }
}

impl From<StoreError> for ShardError {
    fn from(err: StoreError) -> Self {
        ShardError::Store(err)
    }
}

/// An exclusive lock on a cache directory, held for the lifetime of the value.
///
/// The lock is a `LOCK` file created with `create_new` (O_EXCL) semantics and
/// removed on drop, which is portable to every platform std supports.  A
/// crashed process leaves the file behind; the [`ShardError::Locked`] message
/// tells the operator which file to remove.
#[derive(Debug)]
struct DirLock {
    path: PathBuf,
}

impl DirLock {
    fn acquire(dir: &Path) -> Result<Self, ShardError> {
        let path = dir.join("LOCK");
        match OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut file) => {
                // Best-effort breadcrumb for the operator; the lock works
                // whether or not the write succeeds.
                let _ = writeln!(file, "{}", std::process::id());
                Ok(Self { path })
            }
            Err(err) if err.kind() == std::io::ErrorKind::AlreadyExists => {
                Err(ShardError::Locked(path))
            }
            Err(err) => Err(err.into()),
        }
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A [`ResultStore`] sharded over `N` binary segment files under one cache
/// directory.
///
/// Routing is `key % N`.  All read/write methods take `&self` (each shard sits
/// behind its own `RwLock`), so one `ShardedStore` can be shared across server
/// worker threads: reads of the same shard run concurrently against the
/// in-memory index, and only appends serialise against other users of that
/// shard.  The [`ResultStore`] impl forwards to the same methods, so the store
/// also drops into [`srra_explore::Explorer::explore`] unchanged.
#[derive(Debug)]
pub struct ShardedStore {
    dir: PathBuf,
    shards: Vec<RwLock<SegmentStore>>,
    _lock: DirLock,
}

/// SplitMix64-style finalizer applied to each record hash before the
/// commutative digest fold, so the fold discriminates record *sets* instead
/// of degenerating into a sum of correlated FNV values.
fn mix_digest(mut h: u64) -> u64 {
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Segment file name of shard `index`.
fn shard_file_name(index: usize) -> String {
    format!("shard-{index:03}.seg")
}

impl ShardedStore {
    /// Opens (creating if needed) a store of `shard_count` shards under `dir`.
    ///
    /// # Errors
    ///
    /// [`ShardError::Legacy`] if the directory holds a `shard-*.jsonl` file
    /// (checked before anything under `dir` is written),
    /// [`ShardError::Locked`] if another process holds the directory,
    /// [`ShardError::ShardCount`] if the directory already holds a different
    /// number of shard files, [`ShardError::EmptyShardCount`] for
    /// `shard_count == 0`, and I/O / parse errors from the shard files.
    ///
    /// A shard whose torn or corrupt tail is truncated away gets one stderr
    /// line naming the file and the dropped byte range.
    pub fn open(dir: impl AsRef<Path>, shard_count: usize) -> Result<Self, ShardError> {
        if shard_count == 0 {
            return Err(ShardError::EmptyShardCount);
        }
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let existing = Self::existing_shard_count(&dir)?;
        let lock = DirLock::acquire(&dir)?;
        if existing != 0 && existing != shard_count {
            return Err(ShardError::ShardCount {
                found: existing,
                requested: shard_count,
            });
        }
        let metrics = shard_metrics();
        let rehydrate_started = Instant::now();
        let mut shards = Vec::with_capacity(shard_count);
        for index in 0..shard_count {
            let store = SegmentStore::open(dir.join(shard_file_name(index)))?;
            if let Some(torn) = store.torn_bytes() {
                eprintln!(
                    "srra-serve: truncated corrupt shard tail `{}`: bytes {torn:?} dropped",
                    store.path().display()
                );
                metrics.torn_segments.inc();
                metrics.torn_bytes.add(torn.end - torn.start);
            }
            shards.push(RwLock::new(store));
        }
        metrics.rehydrate.record(rehydrate_started.elapsed());
        Ok(Self {
            dir,
            shards,
            _lock: lock,
        })
    }

    /// How many segment shard files `dir` already holds; a JSON-lines
    /// shard file is [`ShardError::Legacy`].
    fn existing_shard_count(dir: &Path) -> Result<usize, ShardError> {
        let mut found = 0;
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("shard-") && name.ends_with(".jsonl") {
                return Err(ShardError::Legacy(path));
            }
            found += usize::from(name.starts_with("shard-") && name.ends_with(".seg"));
        }
        Ok(found)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `key` routes to.
    pub fn route(&self, key: u64) -> usize {
        (key % self.shards.len() as u64) as usize
    }

    /// Shared read guard on the shard `key` routes to: concurrent with other
    /// readers of the same shard, excluded only by an in-flight append.
    fn shard_read(&self, key: u64) -> RwLockReadGuard<'_, SegmentStore> {
        let metrics = shard_metrics();
        let waited = Instant::now();
        let guard = self.shards[self.route(key)]
            .read()
            .expect("no shard user panics while holding the lock");
        metrics.read_wait.record(waited.elapsed());
        metrics.reads.inc();
        guard
    }

    /// Exclusive write guard on the shard `key` routes to.
    fn shard_write(&self, key: u64) -> RwLockWriteGuard<'_, SegmentStore> {
        let metrics = shard_metrics();
        let waited = Instant::now();
        let guard = self.shards[self.route(key)]
            .write()
            .expect("no shard user panics while holding the lock");
        metrics.write_wait.record(waited.elapsed());
        metrics.writes.inc();
        guard
    }

    /// Looks up the record for `key`, verifying `canonical` (shared-reference
    /// twin of [`ResultStore::get`], usable across threads).
    ///
    /// Served entirely from the shard's in-memory index under a read lock —
    /// warm lookups never touch the filesystem and never contend with other
    /// readers.
    ///
    /// # Errors
    ///
    /// Propagates shard I/O errors.
    pub fn get_record(&self, key: u64, canonical: &str) -> Result<Option<PointRecord>, ShardError> {
        Ok(self.shard_read(key).get(key, canonical)?)
    }

    /// [`Self::get_record`] plus how long the read-lock acquisition waited,
    /// for traced requests that attribute shard contention span by span.
    ///
    /// # Errors
    ///
    /// Propagates shard I/O errors.
    pub fn get_record_timed(
        &self,
        key: u64,
        canonical: &str,
    ) -> Result<(Option<PointRecord>, Duration), ShardError> {
        let waited = Instant::now();
        let guard = self.shard_read(key);
        let lock_wait = waited.elapsed();
        Ok((guard.get(key, canonical)?, lock_wait))
    }

    /// Inserts a record into its shard (shared-reference twin of
    /// [`ResultStore::put`]); returns whether the record was fresh.
    ///
    /// Takes the shard's write lock: the in-memory index and the segment file
    /// are updated together, so a reader sees either the old state or the new
    /// record, never a torn one.
    ///
    /// # Errors
    ///
    /// Propagates shard I/O errors.
    pub fn put_record(&self, record: &PointRecord) -> Result<bool, ShardError> {
        Ok(self.shard_write(record.key).put(record)?)
    }

    /// Record count per shard, in shard order.
    ///
    /// # Errors
    ///
    /// Propagates shard I/O errors.
    pub fn shard_sizes(&self) -> Result<Vec<usize>, ShardError> {
        self.shards
            .iter()
            .map(|shard| {
                Ok(shard
                    .read()
                    .expect("no shard user panics while holding the lock")
                    .len()?)
            })
            .collect()
    }

    /// Per-shard anti-entropy digests, in shard order.
    ///
    /// Each record contributes the FNV-1a hash of its JSONL line (the
    /// canonical byte encoding, identical on every node that holds the
    /// record) through a local bit-mixer into a commutative `wrapping_add`
    /// fold — so the digest is insensitive to insertion order but flips when
    /// any record's content differs.  Replicas compare these against the
    /// owner's to detect divergence without streaming records (the `digest`
    /// wire op; see `docs/cluster.md`).
    pub fn digests(&self) -> Vec<ShardDigest> {
        let mut line = String::new();
        self.shards
            .iter()
            .map(|slot| {
                let shard = slot
                    .read()
                    .expect("no shard user panics while holding the lock");
                let mut records = 0u64;
                let mut fold = 0u64;
                for record in shard.records() {
                    line.clear();
                    record.write_json_line(&mut line);
                    fold = fold.wrapping_add(mix_digest(fnv1a_64(line.as_bytes())));
                    records += 1;
                }
                ShardDigest { records, fold }
            })
            .collect()
    }

    /// One page of shard `shard`'s canonical strings: skips `offset` records,
    /// returns at most `limit` canonicals in the shard's stable store order,
    /// and whether the page reached the end of the shard (the `scan` wire
    /// op's storage half).
    ///
    /// # Panics
    ///
    /// If `shard >= self.shard_count()` — callers validate the index (the
    /// server answers an out-of-range shard with a protocol error).
    pub fn scan(&self, shard: usize, offset: usize, limit: usize) -> (Vec<String>, bool) {
        let guard = self.shards[shard]
            .read()
            .expect("no shard user panics while holding the lock");
        let mut canonicals = Vec::new();
        let mut done = true;
        for (index, record) in guard.records().enumerate() {
            if index < offset {
                continue;
            }
            if canonicals.len() == limit {
                done = false;
                break;
            }
            canonicals.push(record.canonical.clone());
        }
        (canonicals, done)
    }
}

impl StoreBase for ShardedStore {
    type Error = ShardError;

    fn contains(&self, key: u64) -> Result<bool, ShardError> {
        Ok(self.shard_read(key).contains(key)?)
    }

    fn len(&self) -> Result<usize, ShardError> {
        Ok(self.shard_sizes()?.iter().sum())
    }
}

impl ResultStore for ShardedStore {
    fn get(&self, key: u64, canonical: &str) -> Result<Option<PointRecord>, ShardError> {
        self.get_record(key, canonical)
    }

    fn put(&mut self, record: &PointRecord) -> Result<bool, ShardError> {
        self.put_record(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srra_explore::fnv1a_64;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "srra-shard-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record_for(canonical: &str) -> PointRecord {
        PointRecord {
            key: fnv1a_64(canonical.as_bytes()),
            canonical: canonical.to_owned(),
            kernel: "fir".to_owned(),
            algorithm: "CPA-RA".to_owned(),
            version: "v3".to_owned(),
            budget: 32,
            ram_latency: 2,
            device: "XCV1000-BG560".to_owned(),
            feasible: true,
            fits: true,
            registers_used: 17,
            total_cycles: 4242,
            compute_cycles: 4000,
            memory_cycles: 200,
            transfer_cycles: 42,
            clock_period_ns: 9.5,
            execution_time_us: 40.299,
            slices: 311,
            block_rams: 2,
            distribution: "a:16 b:1".to_owned(),
        }
    }

    #[test]
    fn records_route_by_key_modulo_shard_count() {
        let dir = scratch_dir("route");
        let store = ShardedStore::open(&dir, 4).unwrap();
        let mut per_shard = vec![0usize; 4];
        for i in 0..32 {
            let record = record_for(&format!("kernel=fir;algo=CPA-RA;budget={i}"));
            assert!(store.put_record(&record).unwrap());
            per_shard[(record.key % 4) as usize] += 1;
            assert_eq!(
                store.get_record(record.key, &record.canonical).unwrap(),
                Some(record)
            );
        }
        assert_eq!(store.shard_sizes().unwrap(), per_shard);
        assert_eq!(store.len().unwrap(), 32);
        drop(store);

        // Reopen: contents persist, routing unchanged.
        let store = ShardedStore::open(&dir, 4).unwrap();
        assert_eq!(store.len().unwrap(), 32);
        assert_eq!(store.shard_sizes().unwrap(), per_shard);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lock_file_guards_against_concurrent_openers() {
        let dir = scratch_dir("lock");
        let store = ShardedStore::open(&dir, 2).unwrap();
        match ShardedStore::open(&dir, 2) {
            Err(ShardError::Locked(path)) => assert!(path.ends_with("LOCK")),
            other => panic!("expected Locked, got {other:?}"),
        }
        drop(store);
        // The lock is released on drop, so a fresh open succeeds.
        let again = ShardedStore::open(&dir, 2).unwrap();
        drop(again);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_count_mismatch_is_rejected() {
        let dir = scratch_dir("count");
        drop(ShardedStore::open(&dir, 4).unwrap());
        match ShardedStore::open(&dir, 8) {
            Err(ShardError::ShardCount { found, requested }) => {
                assert_eq!((found, requested), (4, 8));
            }
            other => panic!("expected ShardCount, got {other:?}"),
        }
        assert!(matches!(
            ShardedStore::open(&dir, 0),
            Err(ShardError::EmptyShardCount)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn digests_are_order_insensitive_and_scan_pages_canonicals() {
        let records: Vec<PointRecord> = (0..9)
            .map(|i| record_for(&format!("kernel=fir;algo=CPA-RA;budget={i}")))
            .collect();
        let dir_a = scratch_dir("digest-a");
        let dir_b = scratch_dir("digest-b");
        let store_a = ShardedStore::open(&dir_a, 2).unwrap();
        let store_b = ShardedStore::open(&dir_b, 2).unwrap();
        for record in &records {
            store_a.put_record(record).unwrap();
        }
        for record in records.iter().rev() {
            store_b.put_record(record).unwrap();
        }
        // Same record set, different insertion order: identical digests.
        assert_eq!(store_a.digests(), store_b.digests());

        // One mutated payload flips its shard's fold but not its count.
        let mut mutated = records[0].clone();
        mutated.slices += 1;
        let dir_c = scratch_dir("digest-c");
        let store_c = ShardedStore::open(&dir_c, 2).unwrap();
        store_c.put_record(&mutated).unwrap();
        for record in &records[1..] {
            store_c.put_record(record).unwrap();
        }
        let (clean, dirty) = (store_a.digests(), store_c.digests());
        let shard = store_a.route(mutated.key);
        assert_eq!(clean[shard].records, dirty[shard].records);
        assert_ne!(clean[shard].fold, dirty[shard].fold);

        // Paging walks every canonical exactly once and flags the last page.
        for shard in 0..2 {
            let mut paged = Vec::new();
            let mut offset = 0;
            loop {
                let (page, done) = store_a.scan(shard, offset, 2);
                assert!(page.len() <= 2);
                offset += page.len();
                paged.extend(page);
                if done {
                    break;
                }
            }
            assert_eq!(paged.len() as u64, store_a.digests()[shard].records);
            // An offset past the end answers an empty, done page.
            assert_eq!(store_a.scan(shard, offset + 100, 2), (Vec::new(), true));
        }

        for dir in [dir_a, dir_b, dir_c] {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn sharded_store_drives_the_explorer_unchanged() {
        use srra_explore::{DesignSpace, Explorer};
        use srra_ir::examples::paper_example;

        let dir = scratch_dir("explorer");
        let space = DesignSpace::new()
            .with_kernel(paper_example())
            .with_budgets(&[16, 64]);
        let cold = {
            let mut store = ShardedStore::open(&dir, 4).unwrap();
            Explorer::new(2).explore(&space, &mut store).unwrap()
        };
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(cold.evaluated, space.len());
        let warm = {
            let mut store = ShardedStore::open(&dir, 4).unwrap();
            Explorer::new(2).explore(&space, &mut store).unwrap()
        };
        assert_eq!(warm.cache_hits, space.len());
        assert_eq!(warm.evaluated, 0);
        assert_eq!(warm.records, cold.records);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
