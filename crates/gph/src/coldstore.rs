//! Out-of-core storage for GPH segments: the file-backed
//! [`StorageMode`].
//!
//! A GPH segment is normally decoded into heap memory ([`crate::engine::Gph`]).
//! This module provides the *file-backed* alternative: the GPHE v4
//! container (see `FORMAT.md`) lays the dataset row slab and the CSR
//! postings arrays out as page-aligned, offset-addressed sections, so a
//! segment can answer probes and verification by paging fixed-size
//! blocks through a shared [`PageCache`] instead of holding the payload
//! resident. It is a storage mode, not a second engine: the public way
//! in is a [`crate::segment::SegmentedGph`] opened or created with a
//! [`SpillStore`], and the paged store runs the one query pipeline `Gph`
//! runs.
//!
//! The pieces:
//!
//! * [`SegmentFile`] — a read-only handle to one container file, with
//!   bounds-checked positioned reads.
//! * [`PageCache`] — a clock-evicted page cache bounded by a byte
//!   budget.
//! * [`SpillStore`] — a node's one spill directory and one page cache:
//!   every file-backed engine of the node (every shard of a
//!   `ShardedIndex`) holds the same store, pages through its cache and
//!   spills the GPH segments it builds into its directory.
//! * [`StorageMode`] — the operator's choice, made once per node: a
//!   file-backed restore makes one `SpillStore` at the whole budget.
//! * `ColdSegment` (crate-private) — one GPH segment opened from its
//!   blob: the query plan plus the paged store, which reads postings and
//!   rows through the cache instead of holding them on the heap. It
//!   opens its blob as a file region through the one container reader,
//!   [`hamming_core::io::Container`].
//!
//! The paged store reads its CSR arrays with the resident index's own
//! reader, [`hamming_core::invindex`]: each partition is a [`CsrPart`]
//! handing out little-endian runs of cached pages, keys at their
//! partition's width (4 bytes up to 32 bits, so an 8 KiB page holds
//! 2048 of them, else 8). Only the lookup is its own: at open, the
//! first key of every key page is kept as a *fence* (8 bytes per page,
//! derived for the run-time page size and never persisted; which slots
//! a fence covers is page geometry, not stored), so a probe reads one
//! key page and the key walk reads each key page once. A query's probe
//! loop reads a key page once per run of consecutive signatures that
//! fall on it ([`CsrPart::GROUP_PROBES`]).
//! A failed read is handled in one place, `read_ok`.

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
#[derive(Debug)]
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

    /// Reads exactly `buf.len()` bytes starting at `offset`, rejecting
    /// reads past the end of the file as [`HammingError::Corrupt`]
    /// (a forged section offset must never turn into a panic or an
    /// unbounded read).
    pub fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check_extent(offset, buf.len())?;
        Ok(read_exact_at_impl(&self.file, offset, buf)?)
    }

    /// `Corrupt` unless `[offset, offset + len)` lies inside the file.
    fn check_extent(&self, offset: u64, len: usize) -> Result<()> {
        match offset.checked_add(len as u64) {
            Some(end) if end <= self.len => Ok(()),
            _ => Err(HammingError::Corrupt(format!(
                "read of {len} bytes at offset {offset} exceeds segment file of {} bytes",
                self.len
            ))),
        }
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

/// Default page size: 8 KiB, in the 4–64 KiB range the container's
/// 4 KiB section alignment supports. A probe reads one key page per run
/// of signatures on it, so a smaller page costs few more lookups and
/// half the bytes per miss.
pub const DEFAULT_PAGE_BYTES: usize = 8 * 1024;

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
    data: Arc<Page>,
    referenced: bool,
}

/// One cached page, held as whole 8-byte words. Its first `len` bytes
/// are the file's (a final page may be short), the rest zeros.
struct Page {
    words: Vec<[u8; 8]>,
    len: usize,
}

/// Panic message for a cache whose lock a panicking thread held.
const POISONED: &str = "page cache lock poisoned by a panicked reader";

struct Inner {
    map: HashMap<(u64, u64), usize>,
    slots: Vec<Slot>,
    hand: usize,
    bytes: u64,
}

/// A shared page cache with clock (second-chance) eviction under a byte
/// budget.
///
/// Every cold segment of a node — all its shards' — reads through the
/// one `PageCache` of the node's [`SpillStore`], so the budget bounds
/// the node's paged-in bytes regardless of corpus size or shard count.
/// A budget below one page keeps none: every read then goes to the file
/// uncached, as a miss does whenever the budget is full. Counters are
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
    /// size ([`DEFAULT_PAGE_BYTES`]). The budget is a bound: under one
    /// page, the cache keeps nothing and every read goes to the file.
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
    ///
    /// A miss takes the lock before and after its read, never across
    /// it: it evicts down to the budget and reserves the page's bytes,
    /// reads into an evicted page's buffer (when no reader still holds
    /// it) unlocked, then inserts the page. Reserved bytes count as
    /// resident, so concurrent misses never take the cache past its
    /// budget: a miss that finds the budget held by other reads in
    /// flight reads its page without caching it. A page another miss
    /// inserted meanwhile is kept once, and a failed read releases its
    /// reservation.
    fn page(&self, file: &SegmentFile, page_no: u64) -> Result<Arc<Page>> {
        let key = (file.id, page_no);
        let (off, n, spare, reserved) = {
            let mut inner = self.inner.lock().expect(POISONED);
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
            let spare = self.evict_for(&mut inner, n as u64);
            let reserved = inner.bytes + n as u64 <= self.budget;
            if reserved {
                inner.bytes += n as u64;
                self.resident.store(inner.bytes, Ordering::Relaxed);
            }
            (off, n, spare, reserved)
        };

        let mut words = spare.unwrap_or_default();
        words.resize(n.div_ceil(8), [0; 8]);
        let bytes = words.as_flattened_mut();
        bytes[n..].fill(0);
        let read = file.read_at(off, &mut bytes[..n]);

        let page = Arc::new(Page { words, len: n });
        if !reserved {
            return read.map(|()| page);
        }
        let mut inner = self.inner.lock().expect(POISONED);
        let kept = match read {
            Ok(()) if !inner.map.contains_key(&key) => {
                let idx = inner.slots.len();
                inner.slots.push(Slot { key, data: page.clone(), referenced: true });
                inner.map.insert(key, idx);
                return Ok(page);
            }
            Ok(()) => Ok(inner.slots[inner.map[&key]].data.clone()),
            Err(e) => Err(e),
        };
        // Not inserted: release the reservation.
        inner.bytes -= n as u64;
        self.resident.store(inner.bytes, Ordering::Relaxed);
        kept
    }

    /// Clock sweep: clear reference bits until an unreferenced slot is
    /// found, evict it, repeat until `n` more bytes fit the budget or
    /// no page is left. Returns the first victim's buffer that no
    /// reader still holds, for the miss to read into.
    fn evict_for(&self, inner: &mut Inner, n: u64) -> Option<Vec<[u8; 8]>> {
        let mut spare = None;
        while inner.bytes + n > self.budget && !inner.slots.is_empty() {
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
            inner.bytes -= victim.data.len as u64;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            // A victim some reader still holds keeps its bytes.
            spare = spare.or(Arc::into_inner(victim.data).map(|page| page.words));
        }
        spare
    }

    /// Fills `out` from `file` starting at `offset`, paging blocks in
    /// as needed. Reads crossing page boundaries are stitched together;
    /// reads past the end of the file are [`HammingError::Corrupt`].
    pub fn read_into(&self, file: &SegmentFile, offset: u64, out: &mut [u8]) -> Result<()> {
        file.check_extent(offset, out.len())?;
        let mut filled = 0;
        self.for_each_run(file, offset, out.len(), |run| {
            out[filled..filled + run.len()].copy_from_slice(run);
            filled += run.len();
        })
    }

    /// Hands `f` the bytes `[offset, offset + len)` of `file` as
    /// in-page runs, in order, straight out of the cached pages.
    fn for_each_run(
        &self,
        file: &SegmentFile,
        offset: u64,
        len: usize,
        mut f: impl FnMut(&[u8]),
    ) -> Result<()> {
        let (mut at, mut left) = (offset, len);
        while left > 0 {
            let n = left.min(self.page_size - (at % self.page_size as u64) as usize);
            self.with_page_range(file, at, n, &mut f)?;
            (at, left) = (at + n as u64, left - n);
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
        let (page, at) = self.page_run(file, offset, len)?;
        Ok(f(&page.words.as_flattened()[at..at + len]))
    }

    /// The page holding `[offset, offset + len)` and the range's start in
    /// it, or `Corrupt` as [`PageCache::with_page_range`] says.
    fn page_run(&self, file: &SegmentFile, offset: u64, len: usize) -> Result<(Arc<Page>, usize)> {
        let ps = self.page_size as u64;
        let in_page = (offset % ps) as usize;
        if len > self.page_size - in_page {
            return Err(HammingError::Corrupt(format!(
                "range of {len} bytes at offset {offset} leaves its {ps}-byte page"
            )));
        }
        let page = self.page(file, offset / ps)?;
        if in_page + len > page.len {
            return Err(HammingError::Corrupt(format!(
                "range of {len} bytes at offset {offset} runs past the end of segment file"
            )));
        }
        Ok((page, in_page))
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

/// Where GPH segments live.
///
/// `Resident` (the default) decodes every GPH segment fully into heap.
/// `FileBacked` keeps GPH segments as offset-addressed files and serves
/// probes/verification through the node's one [`PageCache`] (in its
/// [`SpillStore`]), bounded by `budget_bytes` — the indexed corpus may
/// then exceed RAM. The memtable and row slabs are scanned rows and stay
/// resident in both modes. Query *results* are identical in both modes;
/// only latency and memory footprint differ.
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
    /// GPH segments are decoded into heap memory (the historical
    /// behaviour).
    #[default]
    Resident,
    /// GPH segments stay on disk; reads go through the node's one
    /// [`PageCache`], holding at most `budget_bytes` of paged-in data.
    FileBacked {
        /// Page-cache byte budget of the whole node, every shard's cold
        /// segments included.
        budget_bytes: u64,
    },
}

// ---------------------------------------------------------------------------
// SpillStore
// ---------------------------------------------------------------------------

static NEXT_SPILL_DIR: AtomicU64 = AtomicU64::new(0);

/// Directory + [`PageCache`] backing a node's file-backed engines: one
/// store per node, shared by every engine (every shard) that holds it.
///
/// An engine spills its GPH segments if and only if it holds a store.
/// Every GPH segment such an engine builds — by a merge that reaches the
/// crossover or a full compaction past it — is encoded to a GPHE v4 blob
/// here (a "spill file") and immediately reopened cold. A seal spills
/// nothing: it freezes a row slab, which stays resident like the
/// memtable. The store owns its directory and removes it on drop, after
/// the last engine holding it.
#[derive(Debug)]
pub struct SpillStore {
    dir: PathBuf,
    cache: Arc<PageCache>,
    counter: AtomicU64,
}

impl SpillStore {
    /// Creates a store in a fresh process-unique temp directory, with a
    /// cache bounded by `budget_bytes`.
    pub fn temp(budget_bytes: u64) -> Result<Arc<SpillStore>> {
        let dir = std::env::temp_dir().join(format!(
            "gph-spill-{}-{}",
            std::process::id(),
            NEXT_SPILL_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir)?;
        let cache = Arc::new(PageCache::new(budget_bytes));
        Ok(Arc::new(SpillStore { dir, cache, counter: AtomicU64::new(0) }))
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

impl Drop for SpillStore {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

// ---------------------------------------------------------------------------
// ColdSegment
// ---------------------------------------------------------------------------

use crate::pipeline::{Plan, ScratchPool, Store};
use crate::snapshot::{
    dataset_from_slab, decode_engine_meta, open_engine, PartSpan, SLOT_IDS, SLOT_KEYS, SLOT_OFFS,
    SLOT_ROWS,
};
use hamming_core::invindex::{CsrPart, KeyRun, SlotRun};
use hamming_core::io::Source;
use hamming_core::{hamming_within, words_for, Projector};
use std::borrow::Cow;
use std::convert::Infallible;
use std::ops::Range;

/// Panic message for an operating-system failure under a paged read.
const READ_FAILED: &str = "cold segment read failed mid-query (file truncated or I/O error)";

/// The one place a failed paged read is handled: a mid-query I/O
/// failure (say, the file truncated under the segment) panics with
/// context, the contract of a faulted mmap. Every read of a [`Paged`]
/// store, rows and CSR runs alike, passes through here.
fn read_ok<T>(read: Result<T>) -> T {
    read.expect(READ_FAILED)
}

/// A paged read, whose failure `read_ok` has handled.
type Read<T> = std::result::Result<T, Infallible>;

/// The first key of one run of a partition's keys that lies inside a
/// single cache page. Which slots the run holds is page geometry
/// ([`PageGrid`]), so a fence keeps only its key.
struct Fence {
    key: u64,
}

/// Where the page grid cuts one partition's keys (at an absolute
/// offset aligned to the span's key width) into runs: run `i` is the
/// partition's share of the `i`-th page its keys touch. Runs follow the
/// absolute grid, so a partition that starts mid-page starts with a
/// short run. The key width sets the keys per page: 2048 4-byte keys
/// or 1024 8-byte ones on an 8 KiB page.
#[derive(Clone, Copy)]
struct PageGrid {
    /// Keys per page.
    per_page: usize,
    /// Keys of the first page that lie before the partition's start.
    skew: usize,
    /// Keys in the partition.
    n_keys: usize,
}

impl PageGrid {
    fn new(page_size: usize, span: &PartSpan) -> PageGrid {
        let skew = (span.keys_off % page_size as u64) as usize / span.key_bytes;
        PageGrid { per_page: page_size / span.key_bytes, skew, n_keys: span.n_keys }
    }

    /// The slots of fence `i`'s run, empty past the last key.
    fn fence_run(self, i: usize) -> Range<usize> {
        let start = (i * self.per_page).saturating_sub(self.skew).min(self.n_keys);
        start..((i + 1) * self.per_page - self.skew).min(self.n_keys)
    }
}

/// Derives the fences of `span`'s keys: one direct read of one key (at
/// the span's key width) per key page, around the cache, so an open
/// leaves nothing resident.
fn derive_fences(file: &SegmentFile, page_size: usize, span: &PartSpan) -> Result<Vec<Fence>> {
    let (grid, kb) = (PageGrid::new(page_size, span), span.key_bytes);
    (0..)
        .map(|i| grid.fence_run(i).start)
        .take_while(|&slot| slot < span.n_keys)
        .map(|slot| {
            // Little-endian: a 4-byte key read into the low half.
            let mut key = [0u8; 8];
            file.read_at(span.keys_off + (slot * kb) as u64, &mut key[..kb])?;
            Ok(Fence { key: u64::from_le_bytes(key) })
        })
        .collect()
}

/// The paged [`Store`]: the row slab and CSR arrays of one GPHE v4
/// blob, read through the shared [`PageCache`].
pub(crate) struct Paged {
    file: Arc<SegmentFile>,
    cache: Arc<PageCache>,
    wpv: usize,
    n_rows: usize,
    /// Absolute file offset of the row slab.
    rows_at: u64,
    /// Per partition, its span with *absolute* file offsets. The footer
    /// bounds the sections and `decode_engine_meta` proved the spans
    /// tile them, so read arithmetic on them cannot escape the file.
    parts: Vec<PartSpan>,
    /// Per partition, the [`Fence`] of every key page, derived at open
    /// for the cache's page size and never persisted.
    fences: Vec<Vec<Fence>>,
    scratch_pool: ScratchPool,
}

impl Paged {
    /// Hands `f` the `len` bytes at absolute offset `at` as in-page
    /// runs, in order.
    fn read(&self, at: u64, len: usize, f: impl FnMut(&[u8])) {
        read_ok(self.cache.for_each_run(&self.file, at, len, f))
    }

    /// Decodes row `id` into `row` (`wpv` words).
    fn read_row(&self, id: usize, row: &mut [u64]) {
        assert!(id < self.n_rows, "row {id} out of range for {} rows", self.n_rows);
        let mut words = row.iter_mut();
        self.read(self.rows_at + (id * self.wpv * 8) as u64, self.wpv * 8, |run| {
            for (w, bytes) in words.by_ref().zip(run.chunks_exact(8)) {
                *w = u64::from_le_bytes(bytes.try_into().unwrap());
            }
        });
    }

    /// Copies row `id` out of the paged row slab.
    pub(crate) fn row(&self, id: usize) -> Vec<u64> {
        let mut row = vec![0; self.wpv];
        self.read_row(id, &mut row);
        row
    }
}

/// One partition of a [`Paged`] store, as the CSR reader sees it.
#[derive(Clone, Copy)]
pub(crate) struct PagedPart<'a> {
    paged: &'a Paged,
    span: &'a PartSpan,
    fences: &'a [Fence],
    grid: PageGrid,
}

impl CsrPart for PagedPart<'_> {
    type Error = Infallible;
    /// A run read is a page-cache lookup.
    const GROUP_PROBES: bool = true;

    fn n_ids(&self) -> usize {
        self.paged.n_rows
    }

    /// The fence run `key` can be on: one page, and no page at all for
    /// a key below the first fence. Fence slots come from the page
    /// geometry, never from the payload.
    fn bucket(&self, key: u64) -> SlotRun {
        match self.fences.partition_point(|f| f.key <= key).checked_sub(1) {
            Some(i) => self.grid.fence_run(i).into(),
            None => SlotRun::default(),
        }
    }

    /// The fence runs, one page each.
    fn runs(&self) -> impl Iterator<Item = SlotRun> {
        (0..self.fences.len()).map(move |i| self.grid.fence_run(i).into())
    }

    /// One page-cache lookup: a bucket or run lies inside one page, and
    /// keys sit on their own width's grid, so the run is whole keys of
    /// it: whole words for 8-byte keys, which are 8-aligned, and the
    /// run's bytes for 4-byte ones.
    fn with_keys<R>(&self, run: SlotRun, f: impl FnOnce(KeyRun<'_>) -> R) -> Read<R> {
        let (kb, slots) = (self.span.key_bytes, run.slots);
        let n = slots.len();
        let at = self.span.keys_off + (slots.start * kb) as u64;
        let (page, i) = read_ok(self.paged.cache.page_run(&self.paged.file, at, n * kb));
        Ok(f(match kb {
            4 => KeyRun::PagedNarrow(&page.words.as_flattened()[i..i + n * 4]),
            _ => KeyRun::Paged(&page.words[i / 8..i / 8 + n]),
        }))
    }

    /// Both entries in one read: one lookup unless the pair straddles
    /// a page.
    fn offsets_pair(&self, slot: usize) -> Read<(u32, u32)> {
        let (mut pair, at) = ([0u8; 8], self.span.offs_off + slot as u64 * 4);
        read_ok(self.paged.cache.read_into(&self.paged.file, at, &mut pair));
        let [start, end] = [0, 4].map(|i| u32::from_le_bytes(pair[i..i + 4].try_into().unwrap()));
        Ok((start, end))
    }

    /// Decodes the ids straight out of the cached pages.
    fn for_each_id(&self, ids: Range<usize>, mut emit: impl FnMut(u32)) -> Read<()> {
        let at = self.span.ids_off + ids.start as u64 * 4;
        self.paged.read(at, ids.len() * 4, |run| {
            run.chunks_exact(4).for_each(|id| emit(u32::from_le_bytes(id.try_into().unwrap())))
        });
        Ok(())
    }
}

impl Store for Paged {
    type Part<'a> = PagedPart<'a>;

    fn part(&self, part: usize) -> PagedPart<'_> {
        let span = &self.parts[part];
        let grid = PageGrid::new(self.cache.page_size(), span);
        PagedPart { paged: self, span, fences: &self.fences[part], grid }
    }

    fn len(&self) -> usize {
        self.n_rows
    }

    fn scratch_pool(&self) -> &ScratchPool {
        &self.scratch_pool
    }

    /// Projecting every row would page the whole slab in, so every row
    /// is flooded as a candidate instead; verification, which is exact,
    /// keeps the result set identical.
    fn scan_wide(
        &self,
        _projector: &Projector,
        _part: usize,
        _q_proj: &[u64],
        _radius: usize,
        emit: impl FnMut(u32),
    ) {
        (0..self.n_rows as u32).for_each(emit);
    }

    /// Candidates are verified in ascending id order for page locality;
    /// the result set is identical to the resident store's (same
    /// candidates, same exact distance test).
    fn verify(
        &self,
        query: &[u64],
        tau: u32,
        candidates: &mut Vec<u32>,
        out: &mut Vec<(u32, u32)>,
    ) {
        candidates.sort_unstable();
        let mut row = vec![0; self.wpv];
        for &id in candidates.iter() {
            self.read_row(id as usize, &mut row);
            if let Some(d) = hamming_within(&row, query, tau) {
                out.push((id, d));
            }
        }
    }
}

/// A GPH segment served directly from its offset-addressed GPHE v4
/// container, without decoding the payload into heap — the store behind
/// a file-backed segment of `SegmentedGph`: a query plan and the paged
/// store it runs over, through the pipeline [`Gph`](crate::engine::Gph)
/// runs, so its plans and results are bit-identical to the resident
/// engine's.
///
/// Opening reads and CRC-checks only the *metadata* sections (a few
/// KiB), the key padding, and one key per key page for the fences —
/// 1/2048 of the key bytes at 8 KiB pages (1/1024 where keys are 8
/// bytes) — with direct reads, leaving no page resident. The estimator
/// kinds that store no tables (`SampleScan`, `Learned`) also read the
/// row slab once, directly, to rebuild the estimator as a resident load
/// does; `Exact` and `SubPartition` restore their persisted tables.
/// Payload CRCs are deliberately *deferred* (checking them would read
/// the whole file): payload bytes are read under the CSR reader's trust
/// model (`hamming_core::invindex`), and a mid-query I/O failure (the
/// file truncated externally, say) panics with context in `read_ok`,
/// the contract of a faulted mmap.
pub(crate) struct ColdSegment {
    pub(crate) plan: Plan,
    pub(crate) store: Paged,
    blob_off: u64,
    blob_len: u64,
}

impl ColdSegment {
    /// Opens the GPHE v4 blob at `[blob_off, blob_off + blob_len)` of
    /// `file` (an extent the caller has bounded by the file) as a file
    /// region of the one container reader: header, footer and metadata
    /// are checked, the estimator restored, and the fences for `cache`'s
    /// page size derived, without paging anything into the cache.
    pub(crate) fn open(
        file: Arc<SegmentFile>,
        cache: Arc<PageCache>,
        blob_off: u64,
        blob_len: u64,
    ) -> Result<ColdSegment> {
        // Open-time reads go around the page cache, so a freshly
        // restored index starts with zero resident payload bytes.
        let read_at = |offset: u64, buf: &mut [u8]| file.read_at(blob_off + offset, buf);
        let c = open_engine(Source::Region { len: blob_len, read_at: &read_at })?;
        let mut meta = decode_engine_meta(&c)?;
        // The kinds without stored tables rebuild from the row slab, read
        // once, directly, as a resident load does.
        let estimator = meta.estimator(|| {
            let slab = c.section(SLOT_ROWS)?;
            Ok(Cow::Owned(dataset_from_slab(meta.dim, meta.n_rows, &slab)?))
        })?;
        // Every word sits on its own size's grid, so none straddles a
        // page and every fence run is whole keys (writers align to 4 KiB).
        let [rows_at, keys_at, offs_at, ids_at] =
            [SLOT_ROWS, SLOT_KEYS, SLOT_OFFS, SLOT_IDS].map(|slot| blob_off + c.slot(slot).offset);
        if [rows_at % 8, keys_at % 8, offs_at % 4, ids_at % 4] != [0; 4] {
            return Err(HammingError::Corrupt("a payload section is misaligned".into()));
        }
        let mut parts = std::mem::take(&mut meta.parts);
        for span in &mut parts {
            (span.keys_off, span.offs_off, span.ids_off) =
                (keys_at + span.keys_off, offs_at + span.offs_off, ids_at + span.ids_off);
        }
        let fences = parts
            .iter()
            .map(|p| derive_fences(&file, cache.page_size(), p))
            .collect::<Result<_>>()?;
        let store = Paged {
            file: Arc::clone(&file),
            cache,
            wpv: words_for(meta.dim),
            n_rows: meta.n_rows,
            rows_at,
            parts,
            fences,
            scratch_pool: Default::default(),
        };
        let plan = meta.into_plan(estimator);
        Ok(ColdSegment { plan, store, blob_off, blob_len })
    }

    /// Resident heap footprint: metadata and page fences only — the
    /// payload lives in the shared page cache, accounted there.
    pub(crate) fn size_bytes(&self) -> usize {
        self.plan.estimator.size_bytes()
            + self.store.parts.len() * std::mem::size_of::<PartSpan>()
            + self.store.fences.iter().map(Vec::len).sum::<usize>() * std::mem::size_of::<Fence>()
            + 256
    }

    /// The raw GPHE v4 blob, read back verbatim (for re-snapshotting a
    /// file-backed index without decoding it).
    pub(crate) fn engine_blob(&self) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; self.blob_len as usize];
        self.store.file.read_at(self.blob_off, &mut buf)?;
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamming_core::enumerate::for_each_in_ball_u64;
    use hamming_core::invindex::{for_each_posting, for_each_posting_of, slot_of};

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

        // Words read across a page boundary agree with a direct decode.
        let mut words = [0u8; 64 * 8];
        cache.read_into(&file, 4096 - 256, &mut words).unwrap();
        for (i, w) in words.chunks_exact(8).enumerate() {
            let off = 4096 - 256 + i * 8;
            assert_eq!(w, &bytes[off..off + 8]);
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
    fn a_miss_reuses_an_evicted_buffer_but_never_a_borrowed_one() {
        // 10 003 bytes at 4 KiB pages: the final page holds 1811 bytes,
        // so its last word is three bytes of file and five of padding.
        let bytes: Vec<u8> = (0..10_003u32).map(|i| (i % 251) as u8 | 1).collect();
        let path = temp_file("reuse", &bytes);
        let file = SegmentFile::open(&path, false).unwrap();
        // A one-page budget: every miss evicts the page before it.
        let cache = PageCache::with_page_size(4096, MIN_PAGE_BYTES).unwrap();
        // Page 1's buffer, released, is where page 2 is read: the short
        // page keeps a whole page's capacity, where a fresh buffer
        // would hold just its 227 words.
        cache.page(&file, 1).unwrap();
        let last = cache.page(&file, 2).unwrap();
        assert_eq!((last.len, last.words.len()), (1811, 227));
        assert_eq!(last.words.capacity(), 512, "the miss allocated instead of reusing");
        let flat = last.words.as_flattened();
        assert_eq!(&flat[..1811], &bytes[8192..]);
        assert!(flat[1811..].iter().all(|&b| b == 0), "stale bytes past the page's end");
        drop(last);
        let read =
            |offset: u64, len: usize| cache.with_page_range(&file, offset, len, <[u8]>::to_vec);
        assert_eq!(read(10_000, 3).unwrap(), &bytes[10_000..]);
        assert!(matches!(read(9_998, 8), Err(HammingError::Corrupt(_))));

        // A page borrowed while other reads evict it keeps its bytes:
        // its buffer is not reused, and every read under the borrow is
        // right too.
        let misses = cache.stats().misses;
        cache
            .with_page_range(&file, 0, 4096, |held| {
                for page_no in [1u64, 2, 0, 1] {
                    let at = page_no * 4096;
                    let mut got = vec![0u8; 1811];
                    cache.read_into(&file, at, &mut got).unwrap();
                    assert_eq!(got, &bytes[at as usize..at as usize + 1811], "page {page_no}");
                    assert_eq!(held, &bytes[..4096], "the borrowed page changed");
                }
            })
            .unwrap();
        let s = cache.stats();
        assert_eq!((s.misses - misses, s.resident_bytes), (5, 4096), "{s:?}");
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn concurrent_reads_get_the_files_bytes_within_the_budget() {
        // Twelve pages (the last one short) under a four-page budget,
        // read at random by four threads: misses of one page race each
        // other and every miss evicts, while reads run unlocked.
        let bytes: Vec<u8> = (0..11 * 4096 + 1811u32).map(|i| (i * 7 % 251) as u8).collect();
        let path = temp_file("threads", &bytes);
        let file = SegmentFile::open(&path, false).unwrap();
        let budget = 4 * 4096;
        let cache = PageCache::with_page_size(budget, MIN_PAGE_BYTES).unwrap();
        let per_thread = 3000;
        std::thread::scope(|s| {
            for seed in 0..4 {
                let (cache, file, bytes) = (&cache, &file, &bytes);
                s.spawn(move || {
                    let mut rng = ChaCha8Rng::seed_from_u64(seed);
                    for _ in 0..per_thread {
                        let at = rng.random_range(0..bytes.len());
                        let len = rng
                            .random_range(1..=64usize)
                            .min(4096 - at % 4096)
                            .min(bytes.len() - at);
                        let got = cache.with_page_range(file, at as u64, len, <[u8]>::to_vec);
                        assert_eq!(got.unwrap(), &bytes[at..at + len], "{len} bytes at {at}");
                        assert!(cache.stats().resident_bytes <= budget);
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 4 * per_thread, "{s:?}");
        assert!(s.misses > 12 && s.evictions > 0, "{s:?}");
        assert!(s.resident_bytes <= budget, "{s:?}");
        // No reservation outlives its read: what is resident is what is
        // cached.
        let inner = cache.inner.lock().unwrap();
        let cached: usize = inner.slots.iter().map(|slot| slot.data.len).sum();
        assert_eq!((inner.bytes, s.resident_bytes), (cached as u64, cached as u64));
        drop(inner);
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
    fn a_budget_below_one_page_keeps_no_page() {
        let page = DEFAULT_PAGE_BYTES;
        let bytes: Vec<u8> = (0..4 * page).map(|i| (i % 251) as u8).collect();
        let path = temp_file("bound", &bytes);
        let file = SegmentFile::open(&path, false).unwrap();
        let read = |cache: &PageCache, p: usize| {
            let mut b = [0u8; 16];
            cache.read_into(&file, (p * page + 8) as u64, &mut b).unwrap();
            assert_eq!(b[..], bytes[p * page + 8..][..16], "page {p}");
        };
        // One byte: every read is a miss, answered from the file and
        // kept nowhere.
        let tiny = PageCache::new(1);
        for p in [0, 1, 0, 3, 3] {
            read(&tiny, p);
            assert_eq!(tiny.stats().resident_bytes, 0);
        }
        let s = tiny.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (0, 5, 0));
        // One page: exactly one is held, each new page evicting the
        // last, and a read of the held page hits.
        let one = PageCache::new(page as u64);
        for p in 0..4 {
            read(&one, p);
            assert_eq!(one.stats().resident_bytes, page as u64);
        }
        read(&one, 3);
        let s = one.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 4, 3));
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
        // A forged run length is rejected before anything is allocated.
        let run = cache.with_page_range(&file, 0, usize::MAX / 2, |b| b.len());
        assert!(matches!(run, Err(HammingError::Corrupt(_))));
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

    use crate::engine::{Gph, GphConfig, SearchResult};
    use crate::partition_opt::PartitionStrategy;
    use crate::pipeline::set_pooled_epoch;
    use hamming_core::{BitVector, Dataset};
    use rand::seq::SliceRandom;
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

    /// Both stores run the one pipeline over the one CSR reader under
    /// the same estimator, so they must agree on the result set, on
    /// every decision the plan makes and on the work done: the same
    /// postings and scanned rows, and the same candidates unless a
    /// partition is wider than 64 bits (there the paged store floods
    /// every row where the resident one projects them).
    fn assert_cold_matches(engine: &Gph, cold: &ColdSegment, queries: &Dataset, taus: &[u32]) {
        let narrow = cold.store.parts.iter().all(|p| p.width <= 64);
        for qi in 0..queries.len() {
            let q = queries.row(qi);
            for &tau in taus {
                let hot = engine.search_with_stats(q, tau);
                let chill = SearchResult::from_hits(cold.plan.search(&cold.store, q, tau));
                assert_eq!(hot.ids, chill.ids, "qi={qi} tau={tau}");
                for st in [&hot.stats, &chill.stats] {
                    assert!(st.n_candidates <= st.sum_postings + st.n_scanned, "{st:?}");
                }
                let (h, c) = (&hot.stats, &chill.stats);
                assert_eq!(h.thresholds, c.thresholds, "qi={qi} tau={tau}");
                assert_eq!(h.estimated_cost, c.estimated_cost, "qi={qi} tau={tau}");
                assert_eq!(h.n_signatures, c.n_signatures, "qi={qi} tau={tau}");
                assert_eq!(h.n_results, c.n_results, "qi={qi} tau={tau}");
                assert_eq!(h.sum_postings, c.sum_postings, "qi={qi} tau={tau}");
                assert_eq!(h.n_scanned, c.n_scanned, "qi={qi} tau={tau}");
                if narrow {
                    assert_eq!(h.n_candidates, c.n_candidates, "qi={qi} tau={tau}");
                }
            }
        }
    }

    /// Top-k over the cold segment's plan and store, as `Gph` runs it.
    fn cold_topk(cold: &ColdSegment, q: &[u64], k: usize, tau_cap: u32) -> Vec<(u32, u32)> {
        crate::topk_by_escalation(k, tau_cap, |tau| cold.plan.search(&cold.store, q, tau).0)
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
            plan.search(store, ds.row(0), 0); // pools one scratch
            set_pooled_epoch(store, u32::MAX);
            plan.search(store, ds.row(0), 0); // wraps: stamps reset
            set_pooled_epoch(store, u32::MAX - 1);
            // This query runs at epoch u32::MAX, over rows the two
            // queries above never stamped.
            SearchResult::from_hits(plan.search(store, ds.row(200), 0)).ids
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
        assert_eq!(cold.store.len(), engine.data().len());
        assert_eq!(cold.plan.partitioning.dim(), 64);
        assert_eq!(cold.plan.tau_max, engine.tau_max());
        assert_cold_matches(&engine, &cold, &queries, &[0, 1, 3, 8]);
        // The default SubPartition estimator snapshots its state, so the
        // cold side restores the identical tables: cost estimates and
        // top-k agree too (`assert_cold_matches` compared thresholds).
        for qi in 0..queries.len() {
            let q = queries.row(qi);
            assert_eq!(engine.estimate_cost(q, 5), cold.plan.estimate_cost(q, 5), "qi={qi}");
            assert_eq!(engine.search_topk_within(q, 3, 8), cold_topk(&cold, q, 3, 8), "qi={qi}");
        }
        let stats = cold.store.cache.stats();
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
        // SampleScan snapshots no state; the cold open rebuilds it from
        // the row slab, so allocations agree as well as results.
        let ds = random_dataset(64, 200, 49);
        let queries = random_dataset(64, 6, 50);
        let mut cfg = GphConfig::new(4, 6);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 9 };
        cfg.estimator = crate::cn::EstimatorKind::SampleScan { sample_cap: 64, seed: 3 };
        let engine = Gph::build(ds, &cfg).unwrap();
        let (_store, cold) = spill(&engine, 1 << 20);
        assert_cold_matches(&engine, &cold, &queries, &[0, 3, 6]);
    }

    /// One saved engine plans one way: for every estimator kind, stored
    /// tables or rebuilt from seeds, a cold open and the resident engine
    /// choose bit-identical thresholds at bit-identical estimated cost.
    #[test]
    fn resident_and_cold_plans_agree_for_every_estimator_kind() {
        use crate::cn::learned::{LearnedParams, ModelKind};
        use crate::cn::EstimatorKind;
        let ds = random_dataset(48, 240, 52);
        let queries = random_dataset(48, 6, 53);
        let learned = LearnedParams { model: ModelKind::Rf, n_train: 64, ..Default::default() };
        let kinds = [
            EstimatorKind::Exact { max_width: 16 },
            EstimatorKind::SubPartition { sub_count: 2, paper_shift: false },
            EstimatorKind::SubPartition { sub_count: 2, paper_shift: true },
            EstimatorKind::SampleScan { sample_cap: 64, seed: 3 },
            EstimatorKind::Learned(learned),
        ];
        for kind in kinds {
            let mut cfg = GphConfig::new(4, 8);
            cfg.strategy = PartitionStrategy::RandomShuffle { seed: 12 };
            cfg.estimator = kind.clone();
            let engine = Gph::build(ds.clone(), &cfg).unwrap();
            let (_store, cold) = spill(&engine, 1 << 20);
            for qi in 0..queries.len() {
                let q = queries.row(qi);
                for tau in [0u32, 3, 8] {
                    let h = engine.search_with_stats(q, tau).stats;
                    let c = SearchResult::from_hits(cold.plan.search(&cold.store, q, tau)).stats;
                    assert_eq!(h.thresholds, c.thresholds, "{kind:?} qi={qi} tau={tau}");
                    let (he, ce) = (h.estimated_cost.to_bits(), c.estimated_cost.to_bits());
                    assert_eq!(he, ce, "{kind:?} qi={qi} tau={tau}");
                }
            }
        }
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
            assert_eq!(cold.store.row(id), reloaded.data().row(id));
        }
    }

    /// Engines whose partitions straddle the 4-byte key rule: GPH's
    /// equal widths at 33/32/32 and 33/32, two hashed 75-bit partitions,
    /// and, last, a hand-cut 31/40/80 whose run of 4-byte keys (301
    /// rows, so an odd number of distinct keys) is followed by 8-byte
    /// ones.
    fn mixed_width_engines() -> Vec<(Dataset, Gph)> {
        let cuts = [0..31, 31..71, 71..151].map(|dims| dims.collect::<Vec<u32>>());
        let fixed = hamming_core::Partitioning::new(151, cuts.to_vec()).unwrap();
        let shapes = [
            (97, 3, PartitionStrategy::Original),
            (65, 2, PartitionStrategy::Original),
            (150, 2, PartitionStrategy::Original),
            (151, 3, PartitionStrategy::Fixed(fixed)),
        ];
        (shapes.into_iter().enumerate())
            .map(|(i, (dim, m, strategy))| {
                let ds = random_dataset(dim, 301, 60 + i as u64);
                let cfg = GphConfig { strategy, ..GphConfig::new(m, 8) };
                (ds.clone(), Gph::build(ds, &cfg).unwrap())
            })
            .collect()
    }

    #[test]
    fn mixed_key_widths_answer_alike_at_every_page_size() {
        use hamming_core::invindex::key_bytes;
        for (ds, engine) in mixed_width_engines() {
            let widths = engine.partitioning().widths();
            assert!(widths.iter().any(|&w| w <= 32) || widths.iter().all(|&w| w > 64));
            let mut queries = random_dataset(ds.dim(), 3, 61);
            for id in [0, 150, 300] {
                queries.push_row(ds.row(id)).unwrap();
            }
            let taus = [0, 4, 8];
            for qi in 0..queries.len() {
                for tau in taus {
                    let q = queries.row(qi);
                    assert_eq!(engine.search(q, tau), ds.linear_scan(q, tau), "widths {widths:?}");
                }
            }
            let store = SpillStore::temp(1 << 20).unwrap();
            let file = Arc::new(store.write_blob(&engine.to_bytes()).unwrap());
            for page_size in [MIN_PAGE_BYTES, DEFAULT_PAGE_BYTES, MAX_PAGE_BYTES] {
                // A two-page budget: queries evict.
                let cache = PageCache::with_page_size(2 * page_size as u64, page_size).unwrap();
                let cold = ColdSegment::open(file.clone(), Arc::new(cache), 0, file.len()).unwrap();
                let stored: Vec<usize> = cold.store.parts.iter().map(|p| p.key_bytes).collect();
                assert_eq!(stored, widths.iter().map(|&w| key_bytes(w)).collect::<Vec<_>>());
                assert_fences_tile_pages(&cold.store);
                assert_cold_matches(&engine, &cold, &queries, &taus);
                for qi in 0..queries.len() {
                    let q = queries.row(qi);
                    let what = format!("widths {widths:?} ps {page_size} qi {qi}");
                    assert_eq!(
                        cold_topk(&cold, q, 5, 8),
                        engine.search_topk_within(q, 5, 8),
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    fn keys_are_stored_at_their_width_and_reencode_byte_identically() {
        let mut narrow_odd_then_wide = false;
        for (_, engine) in mixed_width_engines() {
            let bytes = engine.to_bytes();
            assert_eq!(Gph::from_bytes(&bytes).unwrap().to_bytes(), bytes);
            let c = open_engine(Source::Bytes(&bytes)).unwrap();
            let parts = decode_engine_meta(&c).unwrap().parts;
            let keys = c.section(SLOT_KEYS).unwrap();
            for (p, span) in parts.iter().enumerate() {
                let (kb, at) = (span.key_bytes, span.keys_off as usize);
                assert_eq!(kb, hamming_core::invindex::key_bytes(span.width));
                let end = at + span.n_keys * kb;
                let stored: Vec<u64> = (keys[at..end].chunks_exact(kb))
                    .map(|k| k.iter().rev().fold(0, |key, &b| key << 8 | u64::from(b)))
                    .collect();
                assert_eq!(stored, engine.store.index.part_keys(p).iter().collect::<Vec<_>>());
                // Zero padding to the next multiple of 8 bytes, where the
                // next partition's keys or the section's end follow.
                let next = parts.get(p + 1).map_or(keys.len(), |next| next.keys_off as usize);
                assert_eq!(next, end.next_multiple_of(8), "partition {p}");
                assert!(keys[end..next].iter().all(|&b| b == 0), "partition {p}");
                let wide_next = parts.get(p + 1).is_some_and(|next| next.key_bytes == 8);
                narrow_odd_then_wide |= kb == 4 && span.n_keys % 2 == 1 && wide_next;
            }
        }
        assert!(narrow_odd_then_wide, "no odd run of 4-byte keys before 8-byte ones");
    }

    /// `bytes`' GPHE container written again under `version`, with
    /// `edit` applied to each slot's payload (CRCs recomputed).
    fn reframe(bytes: &[u8], version: u32, edit: impl Fn(usize, &mut Vec<u8>)) -> Vec<u8> {
        let c = open_engine(Source::Bytes(bytes)).unwrap();
        let mut w = hamming_core::io::OffsetWriter::new(crate::snapshot::ENGINE_MAGIC, version);
        for slot in 0..crate::snapshot::N_ENGINE_SLOTS {
            let mut payload = c.section(slot).unwrap().into_owned();
            edit(slot, &mut payload);
            match slot >= SLOT_ROWS {
                true => w.aligned_section(&payload),
                false => w.section(&payload),
            };
        }
        w.finish()
    }

    #[test]
    fn nonzero_key_padding_and_a_version_3_header_are_corrupt_on_both_opens() {
        let (_, engine) = mixed_width_engines().pop().unwrap();
        let bytes = engine.to_bytes();
        let c = open_engine(Source::Bytes(&bytes)).unwrap();
        let span = &decode_engine_meta(&c).unwrap().parts[0];
        assert_eq!((span.key_bytes, span.n_keys % 2), (4, 1), "no padding to corrupt");
        let pad = span.keys_off as usize + span.n_keys * 4;
        assert_eq!(reframe(&bytes, crate::snapshot::SNAPSHOT_VERSION, |_, _| {}), bytes);
        let store = SpillStore::temp(1 << 20).unwrap();
        for (byte, needle) in
            (0..4).map(|i| (Some(pad + i), "key padding")).chain([(None, "version 3")])
        {
            let bad = match byte {
                Some(at) => reframe(&bytes, crate::snapshot::SNAPSHOT_VERSION, |slot, keys| {
                    if slot == SLOT_KEYS {
                        keys[at] = 0x01;
                    }
                }),
                // The v4 payload framed as a version-3 container.
                None => reframe(&bytes, 3, |_, _| {}),
            };
            let file = Arc::new(store.write_blob(&bad).unwrap());
            let cold = ColdSegment::open(file.clone(), store.cache().clone(), 0, file.len());
            for got in [Gph::from_bytes(&bad).map(|_| ()), cold.map(|_| ())] {
                match got {
                    Err(HammingError::Corrupt(msg)) => assert!(msg.contains(needle), "{msg}"),
                    other => panic!("{needle} at {byte:?}: expected Corrupt, got {other:?}"),
                }
            }
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
        let container = open_engine(Source::Bytes(&bytes)).unwrap();
        let target = container.slot(crate::snapshot::SLOT_PARTIT).offset as usize;
        let mut bad = bytes.clone();
        bad[target] ^= 0x40;
        let file = Arc::new(store.write_blob(&bad).unwrap());
        let len = file.len();
        let err = ColdSegment::open(file, store.cache().clone(), 0, len).err();
        assert!(matches!(err, Some(HammingError::Corrupt(_))), "{err:?}");
        // Truncated files fail footer parsing, not panic.
        let file = Arc::new(store.write_blob(&bytes[..bytes.len() - 9]).unwrap());
        let len = file.len();
        assert!(ColdSegment::open(file, store.cache().clone(), 0, len).is_err());
        // A flip anywhere in the header or the footer fails the cold
        // open and the resident decode alike.
        let footer_at = bytes.len() - hamming_core::io::footer_len(10); // GPHE has 10 slots
        for i in (0..hamming_core::io::OFFSET_HEADER_LEN).chain(footer_at..bytes.len()) {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            let file = Arc::new(store.write_blob(&bad).unwrap());
            let len = file.len();
            let cold = ColdSegment::open(file, store.cache().clone(), 0, len).err();
            assert!(matches!(cold, Some(HammingError::Corrupt(_))), "byte {i}: {cold:?}");
            let resident = Gph::from_bytes(&bad).err();
            assert!(matches!(resident, Some(HammingError::Corrupt(_))), "byte {i}: {resident:?}");
        }
    }

    /// Page-cache lookups (hits + misses) so far.
    fn lookups(cache: &PageCache) -> u64 {
        let s = cache.stats();
        s.hits + s.misses
    }

    /// Every partition's fence runs, as the page geometry computes
    /// them, tile its keys from slot 0 in order, each inside one page of
    /// the keys array and every one after the first from a page start;
    /// each fence is the first key of its run.
    fn assert_fences_tile_pages(paged: &Paged) {
        let ps = paged.cache.page_size() as u64;
        for (p, (span, fences)) in paged.parts.iter().zip(&paged.fences).enumerate() {
            let grid = paged.part(p).grid;
            let (n, at, kb) = (span.n_keys, span.keys_off, span.key_bytes as u64);
            assert_eq!(fences.is_empty(), n == 0);
            let mut next = 0;
            for (i, f) in fences.iter().enumerate() {
                let run = grid.fence_run(i);
                assert!(run.start == next && run.start < run.end, "fence {i}: {run:?} of {n}");
                next = run.end;
                let (first, last) = (at + run.start as u64 * kb, at + run.end as u64 * kb - 1);
                assert_eq!(first / ps, last / ps, "fence {i} leaves its page");
                assert!(i == 0 || first.is_multiple_of(ps), "fence {i} starts mid-page");
                let mut key = [0u8; 8];
                paged.file.read_at(first, &mut key[..kb as usize]).unwrap();
                assert_eq!(f.key, u64::from_le_bytes(key), "fence {i} is not its run's first key");
            }
            assert_eq!(next, n, "the fence runs leave keys uncovered");
            assert!(grid.fence_run(fences.len()).is_empty(), "a run past the last fence");
        }
    }

    /// A paged store over one hand-laid partition of `width` bits:
    /// `lead` filler bytes, then `keys` at the width's key size, padded
    /// to 8 bytes, their offsets (slot `s` posts the one id `s`) and the
    /// ids, read through a cache of `page_size` pages.
    fn paged_over(
        keys: &[u64],
        width: usize,
        lead: u64,
        page_size: usize,
    ) -> (Arc<SpillStore>, Paged) {
        let (n, kb) = (keys.len() as u64, hamming_core::invindex::key_bytes(width));
        let mut bytes = vec![0xEE; lead as usize];
        bytes.extend(keys.iter().flat_map(|k| k.to_le_bytes()[..kb].to_vec()));
        bytes.resize(lead as usize + (keys.len() * kb).next_multiple_of(8), 0);
        let offs_off = bytes.len() as u64;
        bytes.extend((0..=n as u32).flat_map(u32::to_le_bytes));
        bytes.extend((0..n as u32).flat_map(u32::to_le_bytes));
        let store = SpillStore::temp(1 << 20).unwrap();
        let file = store.write_blob(&bytes).unwrap();
        let cache = PageCache::with_page_size(1 << 20, page_size).unwrap();
        let span = PartSpan {
            width,
            key_bytes: kb,
            n_keys: keys.len(),
            keys_off: lead,
            offs_off,
            ids_off: offs_off + 4 * (n + 1),
        };
        let fences = vec![derive_fences(&file, page_size, &span).unwrap()];
        let paged = Paged {
            file: Arc::new(file),
            cache: Arc::new(cache),
            wpv: 1,
            n_rows: keys.len(),
            rows_at: 0,
            parts: vec![span],
            fences,
            scratch_pool: Default::default(),
        };
        (store, paged)
    }

    #[test]
    fn fences_find_what_a_whole_array_search_finds_at_the_edges() {
        // 4-byte keys of a 32-bit partition and 8-byte keys of a 64-bit
        // one.
        let widths = [(32, u64::from(u32::MAX)), (64, u64::MAX)];
        for ((width, max), page_size) in
            widths.into_iter().flat_map(|w| [MIN_PAGE_BYTES, DEFAULT_PAGE_BYTES].map(|ps| (w, ps)))
        {
            let per_page = page_size / hamming_core::invindex::key_bytes(width);
            for n in [0, 1, per_page, per_page + 1] {
                // Spread keys over the whole domain, first one above 0.
                let keys: Vec<u64> =
                    (0..n as u64).map(|i| (i + 1) * (max / (n as u64 + 2))).collect();
                // Page-aligned, mid-page (so the first run is the last
                // 24 bytes of the page), and one word into a page.
                for lead in [0, page_size as u64 - 24, 8] {
                    let (_store, paged) = paged_over(&keys, width, lead, page_size);
                    assert_fences_tile_pages(&paged);
                    let mut probes = vec![0, 1, u64::MAX, u64::MAX - 1];
                    for &k in &keys {
                        probes.extend([k - 1, k, k + 1]);
                        probes.extend((0..64).step_by(9).map(|b| k ^ (1 << b)));
                    }
                    let what = format!("width {width} ps {page_size} n {n} lead {lead}");
                    for probe in probes {
                        let before = lookups(&paged.cache);
                        let Ok(found) = slot_of(paged.part(0), probe);
                        let expect = keys.binary_search(&probe).ok();
                        assert_eq!(found, expect, "{what} key {probe:#x}");
                        let cost = lookups(&paged.cache) - before;
                        let below = keys.first().is_none_or(|&first| probe < first);
                        assert_eq!(cost, u64::from(!below), "{what}: lookups for key {probe:#x}");
                        if let Some(slot) = found {
                            let mut ids = Vec::new();
                            let Ok(n) = for_each_posting(paged.part(0), probe, |id| ids.push(id));
                            assert_eq!((n, ids), (1, vec![slot as u32]));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn grouped_probes_read_each_key_page_once_per_run_of_signatures() {
        // 40% of the 16-bit values: ~26k keys over several pages even at
        // 64 KiB, dense enough that a ball around a key finds many.
        let mut rng = ChaCha8Rng::seed_from_u64(57);
        let keys: Vec<u64> = (0..1u64 << 16).filter(|_| rng.random_bool(0.4)).collect();
        // On 4-byte key pages (a 32-bit partition) and on 8-byte ones.
        for (width, page_size) in [32, 64]
            .into_iter()
            .flat_map(|w| [MIN_PAGE_BYTES, DEFAULT_PAGE_BYTES, MAX_PAGE_BYTES].map(|ps| (w, ps)))
        {
            for lead in [0, page_size as u64 - 24] {
                let (_store, paged) = paged_over(&keys, width, lead, page_size);
                let part = paged.part(0);
                let centres = [keys[0], keys[keys.len() / 2], keys[keys.len() - 1], 0xBEEF];
                for centre in centres {
                    // Colex over 18 bits: flips of bits 16 and 17 land
                    // past the last key, on the last page.
                    let mut ball = Vec::new();
                    for_each_in_ball_u64(centre, 18, 3, |k| ball.push(k));
                    let mut shuffled = ball.clone();
                    shuffled.shuffle(&mut rng);
                    for (order, sigs) in [("colex", ball), ("shuffled", shuffled)] {
                        let what = format!(
                            "width {width} ps {page_size} lead {lead} centre {centre:#x} {order}"
                        );
                        let before = lookups(&paged.cache);
                        let (mut per_key, mut total) = (Vec::new(), 0);
                        for &k in &sigs {
                            let Ok(n) = for_each_posting(part, k, |id| per_key.push(id));
                            total += n;
                        }
                        let per_key_cost = lookups(&paged.cache) - before;
                        let before = lookups(&paged.cache);
                        let mut grouped = Vec::new();
                        let Ok(n) = for_each_posting_of(part, &sigs, |id| grouped.push(id));
                        let cost = lookups(&paged.cache) - before;
                        assert_eq!((n, &grouped), (total, &per_key), "{what}");
                        assert!(total > 0, "{what}: the ball found nothing");
                        // Per key, one key-page lookup per non-empty
                        // bucket; grouped, one per maximal run of equal
                        // ones. Offsets and ids cost what they did.
                        let buckets: Vec<_> = sigs.iter().map(|&k| part.bucket(k)).collect();
                        let probed = buckets.iter().filter(|b| !b.slots.is_empty()).count() as u64;
                        let runs = (0..buckets.len())
                            .filter(|&i| {
                                !buckets[i].slots.is_empty()
                                    && (i == 0 || buckets[i - 1] != buckets[i])
                            })
                            .count() as u64;
                        assert_eq!(cost, per_key_cost - probed + runs, "{what}");
                        if order == "colex" {
                            assert!(runs * 4 < probed, "{what}: {runs} runs of {probed} probes");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fences_match_the_whole_array_search_on_a_real_segment() {
        // 48k rows over four 24-bit partitions: nearly every key
        // distinct, so each partition's ~190 KiB of 4-byte keys spans
        // many pages and partitions ≥ 1 start mid-page at every page
        // size.
        let ds = random_dataset(96, 48_000, 53);
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
            let part1_at = paged.parts[1].keys_off;
            assert!(!part1_at.is_multiple_of(page_size as u64), "partition 1 starts mid-page");
            for p in 0..index.num_parts() {
                let keys: Vec<u64> = index.part_keys(p).iter().collect();
                assert!(paged.fences[p].len() >= 3, "ps {page_size} part {p}: too few pages");
                let whole = |k: u64| keys.binary_search(&k).ok();
                let find = |k: u64| {
                    let Ok(slot) = slot_of(paged.part(p), k);
                    slot
                };
                for (slot, &k) in keys.iter().enumerate() {
                    assert_eq!(find(k), Some(slot), "ps {page_size} part {p}");
                    if slot % 7 == 0 {
                        for b in 0..paged.parts[p].width.min(64) {
                            assert_eq!(find(k ^ (1 << b)), whole(k ^ (1 << b)));
                        }
                    }
                }
                let (first, last) = (keys[0], keys[keys.len() - 1]);
                for probe in [first.wrapping_sub(1), last + 1, u64::MAX] {
                    assert_eq!(find(probe), whole(probe), "ps {page_size} part {p}");
                }
            }
            // The same answers as the resident twin, at one page per
            // probed signature.
            let mut checked = 0;
            for qi in 0..queries.len() {
                let q = queries.row(qi);
                for tau in [0, tau_max / 2, tau_max] {
                    let before = lookups(&cache);
                    let chill = SearchResult::from_hits(cold.plan.search(&cold.store, q, tau));
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
    fn corrupt_keys_offs_and_ids_misdirect_probes_but_never_panic() {
        // Payload CRCs are deferred: flip bytes inside one CSR slab at a
        // time. Corrupt keys unsort keys and fences, corrupt offsets
        // make bad pairs, corrupt ids point anywhere. Geometry still
        // bounds every read, so the open succeeds or is `Corrupt`, and
        // queries may miss rows but return, and anything they return is
        // a true match (verification is exact).
        let ds = random_dataset(64, 6_000, 55);
        let queries = random_dataset(64, 6, 56);
        let mut cfg = GphConfig::new(4, 8);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 13 };
        let engine = Gph::build(ds.clone(), &cfg).unwrap();
        let clean = engine.to_bytes();
        for slot in [SLOT_KEYS, SLOT_OFFS, SLOT_IDS] {
            let mut bytes = clean.clone();
            let slab = open_engine(Source::Bytes(&bytes)).unwrap().slot(slot);
            let (start, len) = (slab.offset as usize, slab.len as usize);
            // The top byte of every other page's first key (so fence
            // keys alternate high and low; keys here are 4 bytes), and a
            // spray of bytes in between.
            let slab = start..start + len - 3;
            for at in slab.clone().step_by(2 * 4096).chain(slab.step_by(331)) {
                bytes[at + 3] ^= 0xA5;
            }
            let store = SpillStore::temp(1 << 20).unwrap();
            let file = Arc::new(store.write_blob(&bytes).unwrap());
            let cache = Arc::new(PageCache::with_page_size(2 * 4096, MIN_PAGE_BYTES).unwrap());
            let cold = match ColdSegment::open(file.clone(), cache, 0, file.len()) {
                Ok(cold) => cold,
                Err(e) => {
                    assert!(matches!(e, HammingError::Corrupt(_)), "slot {slot}: {e:?}");
                    continue;
                }
            };
            assert_fences_tile_pages(&cold.store);
            if slot == SLOT_KEYS {
                let fences = &cold.store.fences;
                let sorted = fences.iter().all(|f| f.windows(2).all(|w| w[0].key < w[1].key));
                assert!(!sorted, "the flips must unsort some partition's fences");
            }
            for qi in 0..queries.len() {
                let q = queries.row(qi);
                for tau in [0, 4, 8] {
                    let truth = ds.linear_scan(q, tau);
                    let range = SearchResult::from_hits(cold.plan.search(&cold.store, q, tau)).ids;
                    let topk = cold_topk(&cold, q, 3, tau).into_iter().map(|(id, _)| id);
                    for id in range.into_iter().chain(topk) {
                        assert!(truth.binary_search(&id).is_ok(), "slot {slot} qi {qi} tau {tau}");
                    }
                }
            }
        }
    }
}
