//! Out-of-core storage for sealed segments.
//!
//! A sealed segment is normally decoded into heap memory ([`crate::engine::Gph`]).
//! This module provides the *file-backed* alternative: the GPHE v3
//! container (see `FORMAT.md`) lays the dataset row slab and the CSR
//! postings arrays out as page-aligned, offset-addressed sections, so a
//! segment can answer probes and verification by paging fixed-size
//! blocks through a shared [`PageCache`] instead of holding the payload
//! resident.
//!
//! The pieces:
//!
//! * [`SegmentFile`] — a read-only handle to one container file, with
//!   bounds-checked positioned reads.
//! * [`PageCache`] — a clock-evicted page cache shared by every cold
//!   segment of an index (or of all shards), bounded by a byte budget.
//! * [`StorageMode`] — the configuration knob threaded through
//!   `SegmentConfig`, `ShardedIndex`, and `ServiceConfig`.
//! * [`SpillStore`] — the directory where seal/compaction spill freshly
//!   encoded segments when running file-backed.
//! * [`ColdSegment`] — the query backend itself: the same query
//!   pipeline as [`Gph`](crate::engine::Gph), run over a store that
//!   pages postings and rows in instead of holding them on the heap.
//!
//! A probe touches one key page. At open, each partition's sorted key
//! array is cut along the cache's page grid and the first key of every
//! page is kept in memory as a *fence* (16 bytes per key page); a
//! probe picks its page from the fences and binary-searches inside that
//! page only, where the resident store's prefix directory picks a cache
//! line. Fences are derived from the keys and the run-time page size,
//! never persisted, so the container format does not know about them.

use std::collections::HashMap;
use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hamming_core::error::{HammingError, Result};

// ---------------------------------------------------------------------------
// Positioned reads
// ---------------------------------------------------------------------------

#[cfg(unix)]
fn read_exact_at_impl(file: &File, offset: u64, buf: &mut [u8]) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
fn read_exact_at_impl(file: &File, offset: u64, buf: &mut [u8]) -> io::Result<()> {
    // No positioned-read primitive: serialize seek+read pairs so
    // concurrent readers cannot interleave and corrupt each other's
    // cursor. Cold reads on these targets are correct, just slower.
    use std::io::{Read, Seek, SeekFrom};
    static SEEK_LOCK: Mutex<()> = Mutex::new(());
    let _guard = SEEK_LOCK.lock().unwrap();
    let mut f = file;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

// ---------------------------------------------------------------------------
// SegmentFile
// ---------------------------------------------------------------------------

static NEXT_FILE_ID: AtomicU64 = AtomicU64::new(1);

/// A read-only handle to an offset-addressed container file.
///
/// Every handle gets a process-unique id used as the [`PageCache`] key
/// prefix, so two files never alias each other's pages. A handle opened
/// with `owns = true` deletes the underlying file when dropped — spill
/// files written during seal/compaction are cleaned up this way, while
/// snapshot files opened for a file-backed restore are left alone.
pub struct SegmentFile {
    file: File,
    path: PathBuf,
    len: u64,
    id: u64,
    owns: bool,
}

impl SegmentFile {
    /// Opens `path` read-only. `owns` transfers deletion responsibility
    /// to this handle (the file is removed when the handle drops).
    pub fn open(path: impl AsRef<Path>, owns: bool) -> Result<SegmentFile> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let len = file.metadata()?.len();
        let id = NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed);
        Ok(SegmentFile { file, path, len, id, owns })
    }

    /// File length in bytes, captured at open time.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Process-unique id used as the page-cache key prefix.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The path this handle was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads exactly `buf.len()` bytes starting at `offset`, rejecting
    /// reads past the end of the file as [`HammingError::Corrupt`]
    /// (a forged section offset must never turn into a panic or an
    /// unbounded read).
    pub fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let end = offset.checked_add(buf.len() as u64).filter(|&e| e <= self.len);
        if end.is_none() {
            return Err(HammingError::Corrupt(format!(
                "read of {} bytes at offset {} exceeds segment file of {} bytes",
                buf.len(),
                offset,
                self.len
            )));
        }
        read_exact_at_impl(&self.file, offset, buf)?;
        Ok(())
    }

    /// Reads section `slot` of the container that starts at byte `base`
    /// of this file with a direct (uncached) read, and verifies its
    /// CRC — how open paths load metadata without paging payload in.
    pub(crate) fn read_section(&self, base: u64, footer: &Footer, slot: usize) -> Result<Vec<u8>> {
        let s = footer.slot(slot)?;
        let mut buf = vec![0u8; s.len as usize];
        self.read_at(base + s.offset, &mut buf)?;
        if crc32(&buf) != s.crc {
            return Err(HammingError::Corrupt(format!("section {slot} checksum mismatch")));
        }
        Ok(buf)
    }
}

impl std::fmt::Debug for SegmentFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentFile")
            .field("path", &self.path)
            .field("len", &self.len)
            .field("id", &self.id)
            .field("owns", &self.owns)
            .finish()
    }
}

impl Drop for SegmentFile {
    fn drop(&mut self) {
        if self.owns {
            let _ = fs::remove_file(&self.path);
        }
    }
}

// ---------------------------------------------------------------------------
// PageCache
// ---------------------------------------------------------------------------

/// Default page size: 16 KiB, in the 4–64 KiB range the container's
/// 4 KiB section alignment supports.
pub const DEFAULT_PAGE_BYTES: usize = 16 * 1024;

/// Smallest / largest accepted page size (both powers of two).
pub const MIN_PAGE_BYTES: usize = 4 * 1024;
/// See [`MIN_PAGE_BYTES`].
pub const MAX_PAGE_BYTES: usize = 64 * 1024;

/// Counter snapshot returned by [`PageCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageCacheStats {
    /// Page lookups served from the cache.
    pub hits: u64,
    /// Page lookups that went to disk.
    pub misses: u64,
    /// Pages dropped by clock eviction.
    pub evictions: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
}

struct Slot {
    key: (u64, u64),
    data: Arc<Vec<u8>>,
    referenced: bool,
}

struct Inner {
    map: HashMap<(u64, u64), usize>,
    slots: Vec<Slot>,
    hand: usize,
    bytes: u64,
}

/// A shared page cache with clock (second-chance) eviction under a byte
/// budget.
///
/// All cold segments of an index — across shards, when the service
/// shares one store — read through a single `PageCache`, so the budget
/// bounds total paged-in bytes regardless of corpus size. Counters are
/// plain atomics so metric scrapes never contend with the read path.
///
/// ```
/// use gph::coldstore::{PageCache, SegmentFile};
///
/// let dir = std::env::temp_dir().join(format!("gph-doc-pc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir).unwrap();
/// let path = dir.join("blob.bin");
/// std::fs::write(&path, vec![7u8; 10_000]).unwrap();
///
/// let file = SegmentFile::open(&path, false).unwrap();
/// let cache = PageCache::new(64 * 1024);
/// let mut buf = [0u8; 16];
/// cache.read_into(&file, 4096, &mut buf).unwrap();
/// assert_eq!(buf, [7u8; 16]);
/// assert_eq!(cache.stats().misses, 1);
///
/// cache.read_into(&file, 4100, &mut buf).unwrap(); // same page: a hit
/// assert_eq!(cache.stats().hits, 1);
///
/// drop(file);
/// std::fs::remove_dir_all(&dir).unwrap();
/// ```
pub struct PageCache {
    budget: u64,
    page_size: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    resident: AtomicU64,
}

impl PageCache {
    /// Creates a cache bounded by `budget_bytes` with the default page
    /// size ([`DEFAULT_PAGE_BYTES`]). The cache always retains at least
    /// one page so progress is possible under any budget.
    pub fn new(budget_bytes: u64) -> PageCache {
        PageCache::with_page_size(budget_bytes, DEFAULT_PAGE_BYTES)
            .expect("default page size is valid")
    }

    /// Creates a cache with an explicit page size, which must be a
    /// power of two in `[MIN_PAGE_BYTES, MAX_PAGE_BYTES]`. Powers of
    /// two at least 4 KiB keep pages aligned with the container's
    /// section alignment, so fixed-width elements never straddle a
    /// page boundary.
    pub fn with_page_size(budget_bytes: u64, page_size: usize) -> Result<PageCache> {
        if !page_size.is_power_of_two() || !(MIN_PAGE_BYTES..=MAX_PAGE_BYTES).contains(&page_size) {
            return Err(HammingError::InvalidParameter(format!(
                "page size {page_size} must be a power of two in \
                 [{MIN_PAGE_BYTES}, {MAX_PAGE_BYTES}]"
            )));
        }
        Ok(PageCache {
            budget: budget_bytes,
            page_size,
            inner: Mutex::new(Inner { map: HashMap::new(), slots: Vec::new(), hand: 0, bytes: 0 }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            resident: AtomicU64::new(0),
        })
    }

    /// The configured page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// Snapshot of the hit/miss/eviction/residency counters.
    pub fn stats(&self) -> PageCacheStats {
        PageCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: self.resident.load(Ordering::Relaxed),
        }
    }

    /// Returns page `page_no` of `file`, loading and caching it on miss.
    /// The final page of a file may be shorter than the page size.
    fn page(&self, file: &SegmentFile, page_no: u64) -> Result<Arc<Vec<u8>>> {
        let key = (file.id(), page_no);
        let mut inner = self.inner.lock().unwrap();
        if let Some(&idx) = inner.map.get(&key) {
            inner.slots[idx].referenced = true;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(inner.slots[idx].data.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let off = page_no
            .checked_mul(self.page_size as u64)
            .filter(|&o| o < file.len())
            .ok_or_else(|| {
                HammingError::Corrupt(format!(
                    "page {page_no} out of range for segment file of {} bytes",
                    file.len()
                ))
            })?;
        let n = (file.len() - off).min(self.page_size as u64) as usize;
        let mut data = vec![0u8; n];
        file.read_at(off, &mut data)?;
        let data = Arc::new(data);

        let idx = inner.slots.len();
        inner.slots.push(Slot { key, data: data.clone(), referenced: true });
        inner.map.insert(key, idx);
        inner.bytes += n as u64;

        // Clock sweep: clear reference bits until an unreferenced slot
        // is found, evict it, repeat while over budget. At least one
        // page is always retained.
        while inner.bytes > self.budget && inner.slots.len() > 1 {
            let i = inner.hand % inner.slots.len();
            if inner.slots[i].referenced {
                inner.slots[i].referenced = false;
                inner.hand = i + 1;
                continue;
            }
            let victim = inner.slots.swap_remove(i);
            inner.map.remove(&victim.key);
            if i < inner.slots.len() {
                let moved = inner.slots[i].key;
                inner.map.insert(moved, i);
            }
            inner.bytes -= victim.data.len() as u64;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.resident.store(inner.bytes, Ordering::Relaxed);
        Ok(data)
    }

    /// Fills `out` from `file` starting at `offset`, paging blocks in
    /// as needed. Reads crossing page boundaries are stitched together;
    /// reads past the end of the file are [`HammingError::Corrupt`].
    pub fn read_into(&self, file: &SegmentFile, offset: u64, out: &mut [u8]) -> Result<()> {
        if offset.checked_add(out.len() as u64).filter(|&e| e <= file.len()).is_none() {
            return Err(HammingError::Corrupt(format!(
                "read of {} bytes at offset {} exceeds segment file of {} bytes",
                out.len(),
                offset,
                file.len()
            )));
        }
        let ps = self.page_size as u64;
        let mut off = offset;
        let mut pos = 0usize;
        while pos < out.len() {
            let page = self.page(file, off / ps)?;
            let in_page = (off % ps) as usize;
            if in_page >= page.len() {
                return Err(HammingError::Corrupt(format!(
                    "offset {off} points into truncated page of segment file"
                )));
            }
            let n = (out.len() - pos).min(page.len() - in_page);
            out[pos..pos + n].copy_from_slice(&page[in_page..in_page + n]);
            pos += n;
            off += n as u64;
        }
        Ok(())
    }

    /// Hands `f` the bytes `[offset, offset + len)` of `file` straight
    /// out of the cached page: one lookup, no copy. The range must lie
    /// inside one page; a range that leaves its page, or runs past a
    /// short final page, is [`HammingError::Corrupt`].
    pub fn with_page_range<R>(
        &self,
        file: &SegmentFile,
        offset: u64,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        let ps = self.page_size as u64;
        let in_page = (offset % ps) as usize;
        if len > self.page_size - in_page {
            return Err(HammingError::Corrupt(format!(
                "range of {len} bytes at offset {offset} leaves its {ps}-byte page"
            )));
        }
        let page = self.page(file, offset / ps)?;
        let bytes = page.get(in_page..in_page + len).ok_or_else(|| {
            HammingError::Corrupt(format!(
                "range of {len} bytes at offset {offset} runs past the end of segment file"
            ))
        })?;
        Ok(f(bytes))
    }

    /// Reads `n` little-endian `u32`s starting at `offset`.
    pub fn read_u32s(&self, file: &SegmentFile, offset: u64, n: usize) -> Result<Vec<u32>> {
        self.check_run(file, offset, n, 4)?;
        let mut bytes = vec![0u8; n * 4];
        self.read_into(file, offset, &mut bytes)?;
        Ok(bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect())
    }

    /// Reads `n` little-endian `u64`s starting at `offset`.
    pub fn read_u64s(&self, file: &SegmentFile, offset: u64, n: usize) -> Result<Vec<u64>> {
        self.check_run(file, offset, n, 8)?;
        let mut bytes = vec![0u8; n * 8];
        self.read_into(file, offset, &mut bytes)?;
        Ok(bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect())
    }

    /// Bounds-checks an `n × per_item` run *before* allocating for it,
    /// so a forged element count cannot trigger a huge allocation.
    fn check_run(&self, file: &SegmentFile, offset: u64, n: usize, per_item: usize) -> Result<()> {
        let total = (n as u64).checked_mul(per_item as u64);
        if total.and_then(|t| offset.checked_add(t)).filter(|&e| e <= file.len()).is_none() {
            return Err(HammingError::Corrupt(format!(
                "run of {n} x {per_item}-byte items at offset {offset} exceeds \
                 segment file of {} bytes",
                file.len()
            )));
        }
        Ok(())
    }
}

impl std::fmt::Debug for PageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageCache")
            .field("budget", &self.budget)
            .field("page_size", &self.page_size)
            .field("stats", &self.stats())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// StorageMode
// ---------------------------------------------------------------------------

/// Where sealed segments live.
///
/// `Resident` (the default) decodes every sealed segment fully into
/// heap. `FileBacked` keeps sealed segments as offset-addressed files
/// and serves probes/verification through a [`PageCache`] bounded by
/// `budget_bytes` — the corpus may then exceed RAM. Query *results* are
/// identical in both modes; only latency and memory footprint differ.
///
/// ```
/// use gph::coldstore::StorageMode;
///
/// assert_eq!(StorageMode::default(), StorageMode::Resident);
/// let cold = StorageMode::FileBacked { budget_bytes: 64 << 20 };
/// assert!(matches!(cold, StorageMode::FileBacked { budget_bytes } if budget_bytes == 64 << 20));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StorageMode {
    /// Sealed segments are decoded into heap memory (the historical
    /// behaviour).
    #[default]
    Resident,
    /// Sealed segments stay on disk; reads go through a shared
    /// [`PageCache`] holding at most `budget_bytes` of paged-in data.
    FileBacked {
        /// Page-cache byte budget shared by all cold segments.
        budget_bytes: u64,
    },
}

// ---------------------------------------------------------------------------
// SpillStore
// ---------------------------------------------------------------------------

static NEXT_SPILL_DIR: AtomicU64 = AtomicU64::new(0);

/// Directory + shared [`PageCache`] backing a file-backed index.
///
/// Seal and compaction write freshly encoded GPHE v3 blobs here
/// ("spill files") and immediately reopen them cold. A store created
/// with [`SpillStore::temp`] owns its directory and removes it on drop;
/// one created with [`SpillStore::at`] leaves the directory in place.
pub struct SpillStore {
    dir: PathBuf,
    owned: bool,
    cache: Arc<PageCache>,
    counter: AtomicU64,
}

impl SpillStore {
    /// Creates a store in a fresh process-unique temp directory, owned
    /// (removed on drop), with a cache bounded by `budget_bytes`.
    pub fn temp(budget_bytes: u64) -> Result<Arc<SpillStore>> {
        let dir = std::env::temp_dir().join(format!(
            "gph-spill-{}-{}",
            std::process::id(),
            NEXT_SPILL_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        SpillStore::create(dir, true, budget_bytes)
    }

    /// Creates (or reuses) a store at an explicit directory, not owned.
    pub fn at(dir: impl AsRef<Path>, budget_bytes: u64) -> Result<Arc<SpillStore>> {
        SpillStore::create(dir.as_ref().to_path_buf(), false, budget_bytes)
    }

    fn create(dir: PathBuf, owned: bool, budget_bytes: u64) -> Result<Arc<SpillStore>> {
        fs::create_dir_all(&dir)?;
        let cache = Arc::new(PageCache::new(budget_bytes));
        Ok(Arc::new(SpillStore { dir, owned, cache, counter: AtomicU64::new(0) }))
    }

    /// The shared page cache.
    pub fn cache(&self) -> &Arc<PageCache> {
        &self.cache
    }

    /// The spill directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes `bytes` as a new spill file and reopens it as an owned
    /// [`SegmentFile`] (deleted when the last handle drops).
    pub fn write_blob(&self, bytes: &[u8]) -> Result<SegmentFile> {
        let path =
            self.dir.join(format!("seg-{}.gphe", self.counter.fetch_add(1, Ordering::Relaxed)));
        fs::write(&path, bytes)?;
        SegmentFile::open(path, true)
    }
}

impl std::fmt::Debug for SpillStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillStore").field("dir", &self.dir).field("owned", &self.owned).finish()
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        if self.owned {
            let _ = fs::remove_dir_all(&self.dir);
        }
    }
}

// ---------------------------------------------------------------------------
// FlatCn — estimator fallback for cold segments
// ---------------------------------------------------------------------------

/// Closed-form CN estimator used when a cold segment's configured
/// estimator kind has no snapshot state (`Learned`, `SampleScan`) —
/// rebuilding those would require the full dataset, defeating the lazy
/// open. Models each partition as uniform random bits:
/// `CN(e) = n · P[Binom(width, 1/2) ≤ e]`. Thresholds derived from it
/// may differ from the resident engine's, but the pigeonhole filter is
/// exact under *any* valid allocation, so query results are unaffected.
pub(crate) struct FlatCn {
    n: usize,
    /// `cdf[part][e]`, clamped to `[0, 1]`, for `e ∈ 0..=min(width, tau_max)`.
    cdf: Vec<Vec<f64>>,
}

impl FlatCn {
    pub(crate) fn new(n: usize, widths: &[usize], tau_max: usize) -> FlatCn {
        let cdf = widths
            .iter()
            .map(|&w| {
                let cap = w.min(tau_max);
                let mut out = Vec::with_capacity(cap + 1);
                // term = C(w, j) / 2^w, iteratively; underflows to 0 for
                // very wide partitions, which still yields a valid
                // (monotone, clamped) estimate.
                let mut term = (-(w as f64)).exp2();
                let mut acc = term;
                out.push(acc.min(1.0));
                for j in 1..=cap {
                    term *= (w - j + 1) as f64 / j as f64;
                    acc += term;
                    out.push(acc.min(1.0));
                }
                out
            })
            .collect();
        FlatCn { n, cdf }
    }
}

impl crate::cn::CnEstimator for FlatCn {
    fn fill(&self, part: usize, _q_val: &[u64], tau: usize, out: &mut [f64]) {
        let cdf = &self.cdf[part];
        out[0] = 0.0;
        for e in 0..=tau {
            let p = cdf[e.min(cdf.len() - 1)];
            out[e + 1] = self.n as f64 * p;
        }
    }

    fn size_bytes(&self) -> usize {
        self.cdf.iter().map(|c| c.len() * 8).sum::<usize>() + 16
    }
}

// ---------------------------------------------------------------------------
// ColdSegment
// ---------------------------------------------------------------------------

use crate::cn::EstimatorKind;
use crate::cost::CostModel;
use crate::engine::SearchResult;
use crate::pipeline::{topk_by_escalation, Plan, Store};
use crate::snapshot::{
    decode_engine_meta, PartSpan, ENGINE_MAGIC, SLOT_IDS, SLOT_KEYS, SLOT_OFFS, SLOT_ROWS,
    SNAPSHOT_VERSION,
};
use hamming_core::io::{crc32, Footer, OFFSET_HEADER_LEN};
use hamming_core::{hamming, hamming_within, words_for, Projector};
use std::borrow::Cow;

/// Keys scanned per paged batch on the cold scan-fallback path.
const KEY_SCAN_BATCH: usize = 1024;

/// Panic message for an operating-system failure under a paged read.
const READ_FAILED: &str = "cold segment read failed mid-query (file truncated or I/O error)";

/// The first slot and the first key of one run of a partition's keys
/// that lies inside a single cache page.
struct Fence {
    slot: u64,
    key: u64,
}

/// Derives the fences of the `n_keys` keys at absolute offset `keys_at`
/// (8-byte aligned): one direct 8-byte read per key page, around the
/// cache, so an open leaves nothing resident. Runs follow the absolute
/// page grid, so a partition that starts mid-page starts with a short
/// run.
fn derive_fences(
    file: &SegmentFile,
    page_size: u64,
    keys_at: u64,
    n_keys: u64,
) -> Result<Vec<Fence>> {
    let mut fences = Vec::new();
    let mut slot = 0;
    while slot < n_keys {
        let at = keys_at + slot * 8;
        let mut key = [0u8; 8];
        file.read_at(at, &mut key)?;
        fences.push(Fence { slot, key: u64::from_le_bytes(key) });
        slot += (page_size - at % page_size) / 8;
    }
    Ok(fences)
}

/// The paged [`Store`]: the row slab and CSR arrays of one GPHE v3
/// blob, read through the shared [`PageCache`].
pub(crate) struct Paged {
    file: Arc<SegmentFile>,
    cache: Arc<PageCache>,
    wpv: usize,
    n_rows: usize,
    /// Absolute file offsets of the rows / keys / offs / ids sections.
    /// The footer bounds them and `decode_engine_meta` proved the
    /// per-partition spans tile them, so probe-time arithmetic on
    /// `section base + span offset` cannot escape the file.
    rows_base: u64,
    keys_base: u64,
    offs_base: u64,
    ids_base: u64,
    parts: Vec<PartSpan>,
    /// Per partition, the [`Fence`] of every key page, derived at open
    /// for the cache's page size and never persisted.
    fences: Vec<Vec<Fence>>,
}

impl Paged {
    fn pread(&self, offset: u64, out: &mut [u8]) {
        self.cache.read_into(&self.file, offset, out).expect(READ_FAILED)
    }

    /// Copies row `id` out of the paged row slab.
    fn row(&self, id: usize) -> Vec<u64> {
        assert!(id < self.n_rows, "row {id} out of range for {} rows", self.n_rows);
        let mut buf = vec![0u8; self.wpv * 8];
        self.pread(self.rows_base + (id * self.wpv * 8) as u64, &mut buf);
        buf.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect()
    }

    /// The slot of `key` in partition `part`'s paged keys array: the
    /// in-memory fences pick the one page the key can be on, and a
    /// binary search inside that page finds it — one page-cache lookup,
    /// none for a key below the first fence. Fence slots come from the
    /// page geometry, never from the payload, so unsorted (corrupt)
    /// keys can misdirect the search but never move a read off the
    /// keys array.
    fn find_key(&self, part: usize, key: u64) -> Option<u64> {
        let (span, fences) = (&self.parts[part], &self.fences[part]);
        let i = fences.partition_point(|f| f.key <= key).checked_sub(1)?;
        let lo = fences[i].slot;
        let hi = fences.get(i + 1).map_or(span.n_keys as u64, |f| f.slot);
        let at = self.keys_base + span.keys_off + lo * 8;
        let found = self
            .cache
            .with_page_range(&self.file, at, ((hi - lo) * 8) as usize, |run| {
                let key_at =
                    |j: usize| u64::from_le_bytes(run[j * 8..j * 8 + 8].try_into().unwrap());
                let (mut l, mut h) = (0, run.len() / 8);
                while l < h {
                    let mid = l + (h - l) / 2;
                    match key_at(mid).cmp(&key) {
                        std::cmp::Ordering::Less => l = mid + 1,
                        std::cmp::Ordering::Greater => h = mid,
                        std::cmp::Ordering::Equal => return Some(mid as u64),
                    }
                }
                None
            })
            .expect(READ_FAILED);
        found.map(|j| lo + j)
    }

    /// Reads the postings range of key slot `slot` and hands it to `f`.
    /// Range values come from the (deferred-CRC) payload, so they are
    /// checked, not trusted: a corrupt range is skipped instead of
    /// panicking or reading out of bounds (and the pipeline skips any
    /// id outside the row range).
    fn push_postings(&self, part: &PartSpan, slot: u64, f: impl FnOnce(&[u32])) {
        // `offs[slot]` and `offs[slot + 1]` in one read: one lookup
        // unless the pair straddles a page.
        let mut pair = [0u8; 8];
        self.pread(self.offs_base + part.offs_off + slot * 4, &mut pair);
        let start = u32::from_le_bytes(pair[..4].try_into().unwrap()) as u64;
        let end = u32::from_le_bytes(pair[4..].try_into().unwrap()) as u64;
        if start > end || end > self.n_rows as u64 {
            return;
        }
        let ids = self
            .cache
            .read_u32s(&self.file, self.ids_base + part.ids_off + start * 4, (end - start) as usize)
            .expect(READ_FAILED);
        f(&ids)
    }

    /// Scan fallback for narrow partitions: walk the distinct-keys
    /// array in paged batches, and take the postings of every key
    /// within `radius` of the query key.
    fn scan_keys(&self, part: &PartSpan, qk: u64, radius: usize, mut emit: impl FnMut(u32)) {
        let mut slot = 0u64;
        let (keys_at, n_keys) = (self.keys_base + part.keys_off, part.n_keys as u64);
        while slot < n_keys {
            let n = (n_keys - slot).min(KEY_SCAN_BATCH as u64) as usize;
            let keys = self.cache.read_u64s(&self.file, keys_at + slot * 8, n).expect(READ_FAILED);
            for (j, &k) in keys.iter().enumerate() {
                if (k ^ qk).count_ones() as usize <= radius {
                    self.push_postings(part, slot + j as u64, |ids| {
                        ids.iter().for_each(|&id| emit(id))
                    });
                }
            }
            slot += n as u64;
        }
    }
}

impl Store for Paged {
    fn len(&self) -> usize {
        self.n_rows
    }

    /// Probes one signature: find its key on the one page its fence
    /// names, then read the postings range.
    fn with_postings(&self, part: usize, key: u64, f: impl FnOnce(&[u32])) {
        if let Some(slot) = self.find_key(part, key) {
            self.push_postings(&self.parts[part], slot, f);
        }
    }

    /// The distinct-keys walk the resident store runs, over paged keys,
    /// for narrow partitions (key == projected value, and the postings
    /// of all matching keys are exactly the rows within `radius`). Wide
    /// partitions store hashed keys, so distance on keys is meaningless;
    /// projecting every row would page the whole slab in, so flood every
    /// row as a candidate instead and let verification (which is exact)
    /// keep the result set identical.
    fn scan_part(
        &self,
        _projector: &Projector,
        part: usize,
        q_proj: &[u64],
        radius: usize,
        emit: impl FnMut(u32),
    ) {
        let part = &self.parts[part];
        if part.width <= 64 {
            self.scan_keys(part, q_proj.first().copied().unwrap_or(0), radius, emit);
        } else {
            (0..self.n_rows as u32).for_each(emit);
        }
    }

    /// Candidates are verified in ascending id order for page locality;
    /// the result set is identical to the resident store's (same
    /// candidates, same exact distance test).
    fn verify(&self, query: &[u64], tau: u32, candidates: &mut Vec<u32>, out: &mut Vec<u32>) {
        candidates.sort_unstable();
        let mut row_buf = vec![0u8; self.wpv * 8];
        let mut row = vec![0u64; self.wpv];
        for &id in candidates.iter() {
            self.pread(self.rows_base + (id as usize * self.wpv * 8) as u64, &mut row_buf);
            for (w, c) in row.iter_mut().zip(row_buf.chunks_exact(8)) {
                *w = u64::from_le_bytes(c.try_into().unwrap());
            }
            if hamming_within(&row, query, tau).is_some() {
                out.push(id);
            }
        }
    }

    fn distance_to(&self, id: usize, query: &[u64]) -> u32 {
        hamming(&self.row(id), query)
    }
}

/// A sealed segment served directly from its offset-addressed GPHE v3
/// container, without decoding the payload into heap.
///
/// `open` reads and CRC-verifies the *metadata* sections (config,
/// partitioning, estimator, row/partition geometry — a few KiB) with
/// direct positional reads, plus one 8-byte key per key page to derive
/// the page fences that let a probe touch one page; the row slab and
/// CSR postings stay on disk and are paged in through the shared
/// [`PageCache`] as queries touch them. Opening therefore costs
/// O(key pages) small reads — 1/2048 of the key bytes at 16 KiB pages —
/// not strictly footer-only, and leaves no page resident. It is a thin
/// owner of a query plan and the paged store it runs over — the
/// pipeline itself is the one [`Gph`](crate::engine::Gph) runs, so
/// results are bit-identical to the resident engine's.
///
/// Payload CRCs are deliberately *deferred* (validating them would read
/// the whole file, defeating the lazy open); probe-time reads are
/// bounds-checked, and out-of-range values decoded from an unverified
/// payload are skipped rather than trusted. A mid-query I/O failure
/// from the operating system (e.g. the file truncated externally)
/// panics with context — the same contract as a faulted mmap.
pub struct ColdSegment {
    pub(crate) plan: Plan,
    pub(crate) store: Paged,
    blob_off: u64,
    blob_len: u64,
}

impl ColdSegment {
    /// Opens the GPHE v3 blob at `[blob_off, blob_off + blob_len)` of
    /// `file`: parses and CRC-verifies the footer and every metadata
    /// section, resolves section geometry to absolute offsets, restores
    /// the estimator, and derives each partition's page fences (the
    /// first key of every key page, for `cache`'s page size) with direct
    /// reads — without paging anything into the cache and without
    /// touching the row slab or the postings arrays.
    pub fn open(
        file: Arc<SegmentFile>,
        cache: Arc<PageCache>,
        blob_off: u64,
        blob_len: u64,
    ) -> Result<ColdSegment> {
        if blob_off.checked_add(blob_len).filter(|&e| e <= file.len()).is_none() {
            return Err(HammingError::Corrupt(format!(
                "engine blob {blob_off}+{blob_len} exceeds segment file of {} bytes",
                file.len()
            )));
        }
        // Footer first: it indexes everything else. Open-time metadata
        // uses direct reads (not the page cache) so a freshly restored
        // index starts with zero resident payload bytes.
        let tail_len = (Footer::MAX_LEN as u64).min(blob_len) as usize;
        let mut tail = vec![0u8; tail_len];
        file.read_at(blob_off + blob_len - tail_len as u64, &mut tail)?;
        let footer = Footer::parse(ENGINE_MAGIC, SNAPSHOT_VERSION, blob_len, &tail)?;
        if footer.version() < 3 {
            return Err(HammingError::Corrupt(format!(
                "version {} snapshots are not offset-addressed; load resident",
                footer.version()
            )));
        }
        // Header cross-check (Footer::parse only saw the tail).
        let mut header = [0u8; OFFSET_HEADER_LEN];
        file.read_at(blob_off, &mut header)?;
        if header[..4] != ENGINE_MAGIC
            || u32::from_le_bytes(header[4..8].try_into().unwrap()) != footer.version()
            || u32::from_le_bytes(header[8..12].try_into().unwrap()) != footer.n_slots() as u32
        {
            return Err(HammingError::Corrupt("header does not match footer".into()));
        }

        // Metadata sections: read directly, verify each CRC.
        let mut meta = decode_engine_meta(&footer, |slot| {
            file.read_section(blob_off, &footer, slot).map(Cow::Owned)
        })?;
        let section_off =
            |slot: usize| Ok::<u64, HammingError>(blob_off + footer.slot(slot)?.offset);
        let widths = meta.widths();
        let estimator =
            crate::cn::restore_estimator(&meta.estimator_kind, meta.est_state()?, &widths, || {
                Ok(Box::new(FlatCn::new(meta.n_rows, &widths, meta.cfg.tau_max)))
            })?;
        // Keys are 8 bytes on an 8-byte grid, so none straddles a page
        // and every fence run is whole keys (writers align to 4 KiB).
        let keys_base = section_off(SLOT_KEYS)?;
        if !keys_base.is_multiple_of(8) {
            return Err(HammingError::Corrupt(format!(
                "keys section at offset {keys_base} is not 8-byte aligned"
            )));
        }
        let parts = std::mem::take(&mut meta.parts);
        let page_size = cache.page_size() as u64;
        let fences = parts
            .iter()
            .map(|p| derive_fences(&file, page_size, keys_base + p.keys_off, p.n_keys as u64))
            .collect::<Result<_>>()?;
        let store = Paged {
            file,
            cache,
            wpv: words_for(meta.dim),
            n_rows: meta.n_rows,
            rows_base: section_off(SLOT_ROWS)?,
            keys_base,
            offs_base: section_off(SLOT_OFFS)?,
            ids_base: section_off(SLOT_IDS)?,
            parts,
            fences,
        };
        let plan = meta.into_plan(estimator);
        Ok(ColdSegment { plan, store, blob_off, blob_len })
    }

    /// Number of rows in the segment.
    pub fn len(&self) -> usize {
        self.store.n_rows
    }

    /// True when the segment holds no rows.
    pub fn is_empty(&self) -> bool {
        self.store.n_rows == 0
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.plan.partitioning.dim()
    }

    /// Largest supported query threshold.
    pub fn tau_max(&self) -> usize {
        self.plan.tau_max
    }

    /// The estimator kind the segment was built with.
    pub fn estimator_kind(&self) -> &EstimatorKind {
        &self.plan.estimator_kind
    }

    /// The cost model the segment was built with.
    pub fn cost_model(&self) -> &CostModel {
        &self.plan.cost_model
    }

    /// Resident heap footprint: metadata and page fences only — the
    /// payload lives in the shared page cache, accounted there.
    pub fn size_bytes(&self) -> usize {
        self.plan.estimator.size_bytes()
            + self.store.parts.len() * std::mem::size_of::<PartSpan>()
            + self.store.fences.iter().map(Vec::len).sum::<usize>() * std::mem::size_of::<Fence>()
            + 256
    }

    /// Counters of the page cache this segment reads through (shared
    /// with every other segment on the same [`SpillStore`]).
    pub fn cache_stats(&self) -> PageCacheStats {
        self.store.cache.stats()
    }

    /// The raw GPHE v3 blob, read back verbatim (for re-snapshotting a
    /// file-backed index without decoding it).
    pub fn engine_blob(&self) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; self.blob_len as usize];
        self.store.file.read_at(self.blob_off, &mut buf)?;
        Ok(buf)
    }

    /// Copies row `id` out of the paged row slab.
    pub fn row(&self, id: usize) -> Vec<u64> {
        self.store.row(id)
    }

    /// All vectors within `tau` of `query` (exact; ascending IDs).
    pub fn search(&self, query: &[u64], tau: u32) -> Vec<u32> {
        self.search_with_stats(query, tau).ids
    }

    /// Search with per-phase instrumentation — see
    /// [`Gph::search_with_stats`](crate::engine::Gph::search_with_stats).
    pub fn search_with_stats(&self, query: &[u64], tau: u32) -> SearchResult {
        self.plan.search_with_stats(&self.store, query, tau)
    }

    /// Estimated query cost — see
    /// [`Gph::estimate_cost`](crate::engine::Gph::estimate_cost).
    pub fn estimate_cost(&self, query: &[u64], tau: u32) -> f64 {
        self.plan.estimate_cost(query, tau)
    }

    /// Top-k within a capped escalation radius — see
    /// [`Gph::search_topk_within`](crate::engine::Gph::search_topk_within).
    pub fn search_topk_within(&self, query: &[u64], k: usize, tau_cap: u32) -> Vec<(u32, u32)> {
        self.plan.check_query(query, tau_cap);
        topk_by_escalation(k, tau_cap, |tau| self.plan.search_hits(&self.store, query, tau, true).0)
    }
}

impl std::fmt::Debug for ColdSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColdSegment")
            .field("path", &self.store.file.path())
            .field("rows", &self.store.n_rows)
            .field("dim", &self.dim())
            .field("blob_len", &self.blob_len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cn::CnEstimator;

    fn temp_file(name: &str, bytes: &[u8]) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gph-coldstore-test-{}-{name}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob.bin");
        fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn page_cache_reads_across_page_boundaries() {
        let bytes: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        let path = temp_file("boundaries", &bytes);
        let file = SegmentFile::open(&path, false).unwrap();
        let cache = PageCache::with_page_size(1 << 20, MIN_PAGE_BYTES).unwrap();

        // A read spanning three pages comes back stitched correctly.
        let mut buf = vec![0u8; 9000];
        cache.read_into(&file, 3000, &mut buf).unwrap();
        assert_eq!(&buf[..], &bytes[3000..12_000]);

        // Typed runs agree with a direct decode.
        let words = cache.read_u64s(&file, 4096, 512).unwrap();
        for (i, w) in words.iter().enumerate() {
            let off = 4096 + i * 8;
            assert_eq!(*w, u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()));
        }
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn page_ranges_stay_inside_one_page_or_are_corrupt() {
        // 10 000 bytes at 4 KiB pages: the final page holds 1808 bytes.
        let bytes: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let path = temp_file("page-range", &bytes);
        let file = SegmentFile::open(&path, false).unwrap();
        let cache = PageCache::with_page_size(1 << 20, MIN_PAGE_BYTES).unwrap();
        let read =
            |offset: u64, len: usize| cache.with_page_range(&file, offset, len, <[u8]>::to_vec);

        assert_eq!(read(4096 + 100, 3996).unwrap(), &bytes[4196..8192]);
        assert_eq!(read(9990, 10).unwrap(), &bytes[9990..]);
        assert_eq!(cache.stats().hits + cache.stats().misses, 2, "one lookup per range");
        for (offset, len) in [
            (4090, 8),         // leaves its page
            (0, 4097),         // longer than a page
            (9992, 16),        // past the short final page
            (12_288, 1),       // a page past the end of the file
            (u64::MAX - 2, 8), // offset arithmetic must not overflow
            (0, usize::MAX),   // nor length arithmetic
        ] {
            assert!(
                matches!(read(offset, len), Err(HammingError::Corrupt(_))),
                "offset {offset} len {len}"
            );
        }
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn page_cache_evicts_under_budget_and_counts() {
        let bytes = vec![3u8; 64 * 1024];
        let path = temp_file("evict", &bytes);
        let file = SegmentFile::open(&path, false).unwrap();
        // Budget of two 4 KiB pages; touch 16 distinct pages.
        let cache = PageCache::with_page_size(2 * 4096, MIN_PAGE_BYTES).unwrap();
        for p in 0..16u64 {
            let mut b = [0u8; 8];
            cache.read_into(&file, p * 4096, &mut b).unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.misses, 16);
        assert!(s.evictions >= 14, "evictions: {}", s.evictions);
        assert!(s.resident_bytes <= 2 * 4096, "resident: {}", s.resident_bytes);

        // Re-reading a recently touched page can hit.
        let mut b = [0u8; 8];
        cache.read_into(&file, 15 * 4096, &mut b).unwrap();
        assert!(cache.stats().hits >= 1);
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn reads_past_eof_are_corrupt_not_panics() {
        let path = temp_file("eof", &[1u8; 100]);
        let file = SegmentFile::open(&path, false).unwrap();
        let cache = PageCache::new(1 << 20);
        let mut buf = [0u8; 8];
        assert!(matches!(cache.read_into(&file, 96, &mut buf), Err(HammingError::Corrupt(_))));
        assert!(matches!(
            cache.read_into(&file, u64::MAX - 2, &mut buf),
            Err(HammingError::Corrupt(_))
        ));
        // A forged count cannot allocate before the bounds check.
        assert!(matches!(cache.read_u64s(&file, 0, usize::MAX / 2), Err(HammingError::Corrupt(_))));
        assert!(matches!(file.read_at(101, &mut []), Err(HammingError::Corrupt(_))));
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn owned_segment_files_are_deleted_on_drop() {
        let path = temp_file("owned", &[0u8; 10]);
        let file = SegmentFile::open(&path, true).unwrap();
        assert!(path.exists());
        drop(file);
        assert!(!path.exists());
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn spill_store_owns_its_temp_dir() {
        let store = SpillStore::temp(1 << 20).unwrap();
        let dir = store.dir().to_path_buf();
        let seg = store.write_blob(&[9u8; 128]).unwrap();
        assert!(dir.exists());
        assert_eq!(seg.len(), 128);
        let mut b = [0u8; 4];
        store.cache().read_into(&seg, 64, &mut b).unwrap();
        assert_eq!(b, [9u8; 4]);
        drop(seg);
        drop(store);
        assert!(!dir.exists());
    }

    #[test]
    fn page_size_validation() {
        assert!(PageCache::with_page_size(0, 4096).is_ok());
        assert!(PageCache::with_page_size(0, 5000).is_err());
        assert!(PageCache::with_page_size(0, 2048).is_err());
        assert!(PageCache::with_page_size(0, 128 * 1024).is_err());
    }

    #[test]
    fn flat_cn_is_monotone_and_clamped() {
        let est = FlatCn::new(1000, &[8, 64, 2000], 16);
        for part in 0..3 {
            let mut out = vec![0.0; 18];
            est.fill(part, &[0], 16, &mut out);
            assert_eq!(out[0], 0.0);
            for e in 1..out.len() {
                assert!(out[e] >= out[e - 1], "monotone at part {part} e {e}");
                assert!(out[e] <= 1000.0);
            }
        }
        // Width 8, tau 16: the CDF saturates at 1, so CN = n.
        let mut out = vec![0.0; 18];
        est.fill(0, &[0], 16, &mut out);
        assert!((out[17] - 1000.0).abs() < 1e-6);
    }

    use crate::engine::{Gph, GphConfig};
    use crate::partition_opt::PartitionStrategy;
    use hamming_core::{BitVector, Dataset};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_dataset(dim: usize, n: usize, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ds = Dataset::new(dim);
        for _ in 0..n {
            let v = BitVector::from_bits((0..dim).map(|_| rng.random_bool(0.4)));
            ds.push(&v).unwrap();
        }
        ds
    }

    /// Spill a built engine and reopen it cold under the given cache budget.
    fn spill(engine: &Gph, budget: u64) -> (Arc<SpillStore>, ColdSegment) {
        let store = SpillStore::temp(budget).unwrap();
        let file = Arc::new(store.write_blob(&engine.to_bytes()).unwrap());
        let len = file.len();
        let cold = ColdSegment::open(file, store.cache().clone(), 0, len).unwrap();
        (store, cold)
    }

    /// Both stores run the one pipeline, so they must agree on the
    /// result set always, and — when the estimator kind snapshots its
    /// state, so the cold side restores the identical tables — on every
    /// decision the plan makes.
    fn assert_cold_matches(engine: &Gph, cold: &ColdSegment, queries: &Dataset, taus: &[u32]) {
        let same_estimator = engine.plan.estimator.snapshot_state().is_some();
        for qi in 0..queries.len() {
            let q = queries.row(qi);
            for &tau in taus {
                let hot = engine.search_with_stats(q, tau);
                let chill = cold.search_with_stats(q, tau);
                assert_eq!(hot.ids, chill.ids, "qi={qi} tau={tau}");
                for st in [&hot.stats, &chill.stats] {
                    assert!(st.n_candidates <= st.sum_postings + st.n_scanned, "{st:?}");
                }
                if same_estimator {
                    let (h, c) = (&hot.stats, &chill.stats);
                    assert_eq!(h.thresholds, c.thresholds, "qi={qi} tau={tau}");
                    assert_eq!(h.estimated_cost, c.estimated_cost, "qi={qi} tau={tau}");
                    assert_eq!(h.n_signatures, c.n_signatures, "qi={qi} tau={tau}");
                    assert_eq!(h.n_results, c.n_results, "qi={qi} tau={tau}");
                }
            }
        }
    }

    #[test]
    fn visited_stamps_survive_an_epoch_wrap_on_both_stores() {
        // The dedup stamps are cleared by bumping a u32 epoch. After a
        // wrap, stamps must not hold a value a later epoch reaches:
        // otherwise, 2³² − 2 queries on, every untouched row reads as
        // "already a candidate" and is silently dropped.
        let ds = random_dataset(64, 400, 42);
        let mut cfg = GphConfig::new(4, 8);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 5 };
        let engine = Gph::build(ds.clone(), &cfg).unwrap();
        let (_store, cold) = spill(&engine, 1 << 20);
        let expect = ds.linear_scan(ds.row(200), 0);
        assert_eq!(expect, vec![200]);

        fn wrap_then_search(plan: &Plan, store: &impl Store, ds: &Dataset) -> Vec<u32> {
            plan.search_with_stats(store, ds.row(0), 0); // pools one scratch
            plan.set_pooled_epoch(u32::MAX);
            plan.search_with_stats(store, ds.row(0), 0); // wraps: stamps reset
            plan.set_pooled_epoch(u32::MAX - 1);
            // This query runs at epoch u32::MAX, over rows the two
            // queries above never stamped.
            plan.search_with_stats(store, ds.row(200), 0).ids
        }
        assert_eq!(wrap_then_search(&engine.plan, &engine.store, &ds), expect, "resident");
        assert_eq!(wrap_then_search(&cold.plan, &cold.store, &ds), expect, "paged");
    }

    #[test]
    fn cold_segment_answers_exactly_like_the_resident_engine() {
        let ds = random_dataset(64, 300, 41);
        let queries = random_dataset(64, 8, 42);
        let mut cfg = GphConfig::new(4, 8);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 5 };
        let engine = Gph::build(ds, &cfg).unwrap();
        // Budget of a single page forces constant eviction churn.
        let (_store, cold) = spill(&engine, DEFAULT_PAGE_BYTES as u64);
        assert_eq!(cold.len(), engine.data().len());
        assert_eq!(cold.dim(), 64);
        assert_eq!(cold.tau_max(), engine.tau_max());
        assert_cold_matches(&engine, &cold, &queries, &[0, 1, 3, 8]);
        // The default SubPartition estimator snapshots its state, so the
        // cold side restores the identical tables: cost estimates and
        // top-k agree too (`assert_cold_matches` compared thresholds).
        for qi in 0..queries.len() {
            let q = queries.row(qi);
            assert_eq!(engine.estimate_cost(q, 5), cold.estimate_cost(q, 5), "qi={qi}");
            assert_eq!(
                engine.search_topk_within(q, 3, 8),
                cold.search_topk_within(q, 3, 8),
                "qi={qi}"
            );
        }
        let stats = cold.cache_stats();
        assert!(stats.evictions > 0, "a 1-page budget must evict: {stats:?}");
        assert!(stats.resident_bytes <= DEFAULT_PAGE_BYTES as u64);
    }

    #[test]
    fn cold_segment_scan_fallback_matches_on_tiny_corpora() {
        // 40 rows with tau up to 8: every partition's signature ball
        // dwarfs the corpus, forcing the key-scan fallback.
        let ds = random_dataset(64, 40, 43);
        let queries = random_dataset(64, 6, 44);
        let mut cfg = GphConfig::new(4, 8);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 6 };
        let engine = Gph::build(ds, &cfg).unwrap();
        let (_store, cold) = spill(&engine, 1 << 20);
        assert_cold_matches(&engine, &cold, &queries, &[4, 8]);
    }

    #[test]
    fn cold_segment_wide_partitions_match() {
        // dim 160 over 2 parts: 80-bit partitions exercise the
        // multi-word enumeration path and the wide-scan candidate flood.
        let ds = random_dataset(160, 120, 45);
        let queries = random_dataset(160, 5, 46);
        let mut cfg = GphConfig::new(2, 6);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 7 };
        let engine = Gph::build(ds, &cfg).unwrap();
        let (_store, cold) = spill(&engine, 1 << 20);
        assert_cold_matches(&engine, &cold, &queries, &[1, 4, 6]);
    }

    #[test]
    fn cold_segment_single_partition_matches() {
        let ds = random_dataset(32, 150, 47);
        let queries = random_dataset(32, 5, 48);
        let mut cfg = GphConfig::new(1, 4);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 8 };
        let engine = Gph::build(ds, &cfg).unwrap();
        let (_store, cold) = spill(&engine, 1 << 20);
        assert_cold_matches(&engine, &cold, &queries, &[0, 2, 4]);
    }

    #[test]
    fn cold_segment_without_estimator_state_still_answers_exactly() {
        // SampleScan snapshots no state; the cold side falls back to the
        // closed-form FlatCn. Allocations may differ — results must not.
        let ds = random_dataset(64, 200, 49);
        let queries = random_dataset(64, 6, 50);
        let mut cfg = GphConfig::new(4, 6);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 9 };
        cfg.estimator = crate::cn::EstimatorKind::SampleScan { sample_cap: 64, seed: 3 };
        let engine = Gph::build(ds, &cfg).unwrap();
        let (_store, cold) = spill(&engine, 1 << 20);
        assert_cold_matches(&engine, &cold, &queries, &[0, 3, 6]);
    }

    #[test]
    fn cold_segment_round_trips_its_blob() {
        let ds = random_dataset(64, 100, 51);
        let mut cfg = GphConfig::new(4, 6);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 10 };
        let engine = Gph::build(ds, &cfg).unwrap();
        let bytes = engine.to_bytes();
        let (_store, cold) = spill(&engine, 1 << 20);
        assert_eq!(cold.engine_blob().unwrap(), bytes);
        let reloaded = Gph::from_bytes(&cold.engine_blob().unwrap()).unwrap();
        assert_eq!(reloaded.data().len(), engine.data().len());
        // Row reads come back verbatim.
        for id in [0usize, 57, 99] {
            assert_eq!(cold.row(id), reloaded.data().row(id));
        }
    }

    #[test]
    fn cold_open_rejects_corrupt_metadata() {
        let ds = random_dataset(64, 80, 52);
        let mut cfg = GphConfig::new(4, 6);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 11 };
        let engine = Gph::build(ds, &cfg).unwrap();
        let bytes = engine.to_bytes();
        let store = SpillStore::temp(1 << 20).unwrap();
        // Flip one byte in the partitioning section (slot 1): the cold
        // open CRC-checks every metadata slot even though payload slots
        // stay deferred.
        let foot = hamming_core::io::Footer::parse_bytes(
            crate::snapshot::ENGINE_MAGIC,
            crate::snapshot::SNAPSHOT_VERSION,
            &bytes,
        )
        .unwrap();
        let target = foot.slot(crate::snapshot::SLOT_PARTIT).unwrap().offset as usize;
        let mut bad = bytes.clone();
        bad[target] ^= 0x40;
        let file = Arc::new(store.write_blob(&bad).unwrap());
        let len = file.len();
        let err = ColdSegment::open(file, store.cache().clone(), 0, len).unwrap_err();
        assert!(matches!(err, HammingError::Corrupt(_)), "{err:?}");
        // Truncated files fail footer parsing, not panic.
        let file = Arc::new(store.write_blob(&bytes[..bytes.len() - 9]).unwrap());
        let len = file.len();
        assert!(ColdSegment::open(file, store.cache().clone(), 0, len).is_err());
    }

    /// Page-cache lookups (hits + misses) so far.
    fn lookups(cache: &PageCache) -> u64 {
        let s = cache.stats();
        s.hits + s.misses
    }

    /// Every partition's fences start at slot 0, ascend, and cut its
    /// keys into runs that each lie inside one page of the keys array.
    fn assert_fences_tile_pages(paged: &Paged) {
        let ps = paged.cache.page_size() as u64;
        for (span, fences) in paged.parts.iter().zip(&paged.fences) {
            let n = span.n_keys as u64;
            assert_eq!(fences.is_empty(), n == 0);
            for (i, f) in fences.iter().enumerate() {
                let hi = fences.get(i + 1).map_or(n, |next| next.slot);
                assert!(f.slot < hi && hi <= n, "fence {i}: {} .. {hi} of {n}", f.slot);
                let (first, last) = (f.slot * 8, hi * 8 - 1);
                let at = paged.keys_base + span.keys_off;
                assert_eq!((at + first) / ps, (at + last) / ps, "fence {i} leaves its page");
                assert!(i == 0 || (at + first).is_multiple_of(ps), "fence {i} starts mid-page");
            }
        }
    }

    /// A paged store over one hand-laid partition: `lead` filler bytes,
    /// then `keys`, their offsets (slot `s` posts the one id `s`) and
    /// the ids, read through a cache of `page_size` pages.
    fn paged_over(keys: &[u64], lead: u64, page_size: usize) -> (Arc<SpillStore>, Paged) {
        let n = keys.len() as u64;
        let mut bytes = vec![0xEE; lead as usize];
        bytes.extend(keys.iter().flat_map(|k| k.to_le_bytes()));
        bytes.extend((0..=n as u32).flat_map(u32::to_le_bytes));
        bytes.extend((0..n as u32).flat_map(u32::to_le_bytes));
        let store = SpillStore::temp(1 << 20).unwrap();
        let file = store.write_blob(&bytes).unwrap();
        let cache = PageCache::with_page_size(1 << 20, page_size).unwrap();
        let fences = vec![derive_fences(&file, page_size as u64, lead, n).unwrap()];
        let paged = Paged {
            file: Arc::new(file),
            cache: Arc::new(cache),
            wpv: 1,
            n_rows: keys.len(),
            rows_base: 0,
            keys_base: lead,
            offs_base: lead + 8 * n,
            ids_base: lead + 8 * n + 4 * (n + 1),
            parts: vec![PartSpan {
                width: 64,
                n_keys: keys.len(),
                keys_off: 0,
                offs_off: 0,
                ids_off: 0,
            }],
            fences,
        };
        (store, paged)
    }

    #[test]
    fn fences_find_what_a_whole_array_search_finds_at_the_edges() {
        for page_size in [MIN_PAGE_BYTES, DEFAULT_PAGE_BYTES] {
            let per_page = page_size / 8;
            for n in [0, 1, per_page, per_page + 1] {
                // Spread keys over the whole domain, first one above 0.
                let keys: Vec<u64> =
                    (0..n as u64).map(|i| (i + 1) * (u64::MAX / (n as u64 + 2))).collect();
                // Page-aligned, mid-page (so the first run is three
                // keys), and one key into a page.
                for lead in [0, page_size as u64 - 24, 8] {
                    let (_store, paged) = paged_over(&keys, lead, page_size);
                    assert_fences_tile_pages(&paged);
                    let mut probes = vec![0, 1, u64::MAX, u64::MAX - 1];
                    for &k in &keys {
                        probes.extend([k - 1, k, k + 1]);
                        probes.extend((0..64).step_by(9).map(|b| k ^ (1 << b)));
                    }
                    for probe in probes {
                        let before = lookups(&paged.cache);
                        let found = paged.find_key(0, probe);
                        let expect = keys.binary_search(&probe).ok().map(|s| s as u64);
                        assert_eq!(
                            found, expect,
                            "ps {page_size} n {n} lead {lead} key {probe:#x}"
                        );
                        let cost = lookups(&paged.cache) - before;
                        let below = keys.first().is_none_or(|&first| probe < first);
                        assert_eq!(cost, u64::from(!below), "lookups for key {probe:#x}");
                        if let Some(slot) = found {
                            let mut ids = Vec::new();
                            paged.with_postings(0, probe, |p| ids.extend_from_slice(p));
                            assert_eq!(ids, [slot as u32]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fences_match_the_whole_array_search_on_a_real_segment() {
        // 24k rows over four 24-bit partitions: nearly every key
        // distinct, so each partition's ~190 KiB of keys spans many
        // pages and partitions ≥ 1 start mid-page at every page size.
        let ds = random_dataset(96, 24_000, 53);
        let queries = random_dataset(96, 6, 54);
        let mut cfg = GphConfig::new(4, 8);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 12 };
        let engine = Gph::build(ds, &cfg).unwrap();
        let index = &engine.store.index;
        let store = SpillStore::temp(1 << 20).unwrap();
        let file = Arc::new(store.write_blob(&engine.to_bytes()).unwrap());
        let tau_max = engine.tau_max() as u32;
        for page_size in [MIN_PAGE_BYTES, DEFAULT_PAGE_BYTES, MAX_PAGE_BYTES] {
            let cache = Arc::new(PageCache::with_page_size(1 << 30, page_size).unwrap());
            let cold = ColdSegment::open(file.clone(), cache.clone(), 0, file.len()).unwrap();
            assert_eq!(lookups(&cache), 0, "open reads around the cache");
            assert_eq!(cache.stats().resident_bytes, 0);
            let paged = &cold.store;
            assert_fences_tile_pages(paged);
            let part1_at = paged.keys_base + paged.parts[1].keys_off;
            assert!(!part1_at.is_multiple_of(page_size as u64), "partition 1 starts mid-page");
            for p in 0..index.num_parts() {
                let keys = index.part_keys(p);
                assert!(paged.fences[p].len() >= 3, "ps {page_size} part {p}: too few pages");
                let whole = |k: u64| keys.binary_search(&k).ok().map(|s| s as u64);
                for (slot, &k) in keys.iter().enumerate() {
                    assert_eq!(paged.find_key(p, k), Some(slot as u64), "ps {page_size} part {p}");
                    if slot % 7 == 0 {
                        for b in 0..paged.parts[p].width.min(64) {
                            assert_eq!(paged.find_key(p, k ^ (1 << b)), whole(k ^ (1 << b)));
                        }
                    }
                }
                let (first, last) = (keys[0], keys[keys.len() - 1]);
                for probe in [first.wrapping_sub(1), last + 1, u64::MAX] {
                    assert_eq!(paged.find_key(p, probe), whole(probe), "ps {page_size} part {p}");
                }
            }
            // The same answers as the resident twin, at one page per
            // probed signature.
            let mut checked = 0;
            for qi in 0..queries.len() {
                let q = queries.row(qi);
                for tau in [0, tau_max / 2, tau_max] {
                    let before = lookups(&cache);
                    let chill = cold.search_with_stats(q, tau);
                    let cost = lookups(&cache) - before;
                    assert_eq!(
                        chill.ids,
                        engine.search(q, tau),
                        "ps {page_size} qi {qi} tau {tau}"
                    );
                    let st = &chill.stats;
                    if st.n_scanned == 0 {
                        let bound = 3 * st.n_signatures + st.n_candidates + 1;
                        assert!(
                            cost <= bound,
                            "ps {page_size} tau {tau}: {cost} > {bound}: {st:?}"
                        );
                        checked += 1;
                    }
                }
            }
            assert!(checked >= queries.len(), "too few index-only searches: {checked}");
        }
    }

    #[test]
    fn corrupt_keys_misdirect_probes_but_never_panic() {
        // Payload CRCs are deferred: flip bytes inside the keys slab so
        // keys and fences are no longer sorted. Geometry still bounds
        // every read, so queries may miss rows but return, and anything
        // they return is a true match (verification is exact).
        let ds = random_dataset(64, 6_000, 55);
        let queries = random_dataset(64, 6, 56);
        let mut cfg = GphConfig::new(4, 8);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 13 };
        let engine = Gph::build(ds.clone(), &cfg).unwrap();
        let mut bytes = engine.to_bytes();
        let foot = hamming_core::io::Footer::parse_bytes(
            crate::snapshot::ENGINE_MAGIC,
            crate::snapshot::SNAPSHOT_VERSION,
            &bytes,
        )
        .unwrap();
        let keys = foot.slot(crate::snapshot::SLOT_KEYS).unwrap();
        let (start, len) = (keys.offset as usize, keys.len as usize);
        // The top byte of every other page's first key (so fence keys
        // alternate high and low), and a spray of bytes in between.
        let slab = start..start + len - 7;
        for at in slab.clone().step_by(2 * 4096).chain(slab.step_by(331)) {
            bytes[at + 7] ^= 0xA5;
        }
        let store = SpillStore::temp(1 << 20).unwrap();
        let file = Arc::new(store.write_blob(&bytes).unwrap());
        let cache = Arc::new(PageCache::with_page_size(2 * 4096, MIN_PAGE_BYTES).unwrap());
        let cold = match ColdSegment::open(file.clone(), cache, 0, file.len()) {
            Ok(cold) => cold,
            Err(e) => return assert!(matches!(e, HammingError::Corrupt(_)), "{e:?}"),
        };
        assert_fences_tile_pages(&cold.store);
        let sorted = cold.store.fences.iter().all(|f| f.windows(2).all(|w| w[0].key < w[1].key));
        assert!(!sorted, "the flips must unsort some partition's fences");
        for qi in 0..queries.len() {
            let q = queries.row(qi);
            for tau in [0, 4, 8] {
                let truth = ds.linear_scan(q, tau);
                for id in cold.search(q, tau) {
                    assert!(truth.binary_search(&id).is_ok(), "qi {qi} tau {tau}: {id}");
                }
                cold.search_topk_within(q, 3, tau);
            }
        }
    }
}
