//! Live updates for GPH: an LSM-style segmented engine.
//!
//! [`crate::Gph`] is build-once: its postings reference dense row ids and
//! its partitioning is the product of an expensive offline optimization,
//! so per-insert rebuilds are untenable. [`SegmentedGph`] makes the
//! engine mutable the way log-structured stores do:
//!
//! * a mutable front **memtable** — rows appended to a [`Dataset`] with a
//!   [`Tombstones`] bitmap for deletes, answered by early-exit linear
//!   scan (exact, and cheap while the memtable is small);
//! * a list of sealed **immutable [`Gph`] segments**, each with its own
//!   id map and tombstone bitmap; deletes flip a bit, queries filter;
//! * a size-triggered **seal** (the flush): when the memtable reaches
//!   [`SegmentConfig::seal_rows`] live rows it is rebuilt into a sealed
//!   segment (dead rows dropped on the way). A flush *inherits* the
//!   partitioning of the engine's largest sealed segment — the
//!   partitioning is an offline artifact of the data distribution
//!   (§V–§VI), which a memtable's worth of new rows does not move, and
//!   any partitioning is exact (§III) — so it costs what its rows cost
//!   to index, not a run of the partition optimizer. Only the first
//!   flush into an engine with no sealed segment runs the configured
//!   strategy;
//! * a **compaction policy**: all-dead segments are dropped outright, and
//!   whenever more than [`SegmentConfig::max_sealed`] segments exist the
//!   two smallest are merged into one freshly built segment, bounding
//!   per-query segment fan-out the way LSM level merges bound sstable
//!   counts. Merges always run the configured strategy: flushes are
//!   cheap, merges are where re-optimisation happens;
//! * **one query walk**: a range search visits every sealed segment and
//!   then the memtable, drops tombstoned hits and maps local rows to
//!   external ids, in one place. Top-k is the shared escalation loop
//!   ([`crate::topk_by_escalation`]) over that walk, so it never sees a
//!   dead row and needs no per-segment over-fetch.
//!
//! Rows are addressed by caller-chosen `u32` ids, stable across seals and
//! compactions. Every query is **provably identical** to a fresh [`Gph`]
//! built over the surviving rows (the pigeonhole filter is exact for any
//! partitioning, and tombstone filtering removes exactly the dead rows);
//! `tests/segment_properties.rs` pins this over arbitrary
//! insert/delete/seal/compact interleavings, including through a
//! snapshot/restore round-trip.
//!
//! Where sealed segments live is [`SegmentConfig::storage`]: decoded on
//! the heap, or file-backed and paged on demand ([`crate::coldstore`]).
//! A snapshot (`GPHS`) restores one of two ways, both through the one
//! container reader ([`hamming_core::io::Container`]):
//! [`SegmentedGph::from_bytes`] decodes everything resident, and
//! [`SegmentedGph::load_with_storage`] is the one file-backed restore,
//! serving each sealed segment from its blob inside the snapshot file.

use crate::coldstore::{ColdSegment, PageCacheStats, SegmentFile, SpillStore, StorageMode};
use crate::engine::{Gph, GphConfig, QueryStats};
use crate::partition_opt::PartitionStrategy;
use crate::pipeline::{topk_by_escalation, Plan};
use crate::snapshot::{decode_gph_config, encode_gph_config};
use bytes::BufMut;
use gph_obs::{PhaseNanos, SegmentTrace};
use hamming_core::error::{HammingError, Result};
use hamming_core::io::{ByteReader, Container, OffsetWriter, Source, PAGE_SIZE};
use hamming_core::tombstone::Tombstones;
use hamming_core::{hamming_within, words_for, Dataset, Partitioning};
use std::collections::HashMap;
use std::sync::Arc;

/// Magic of a segmented-engine snapshot.
pub const SEGMENT_MAGIC: [u8; 4] = *b"GPHS";

/// Current (and only loadable) segmented-snapshot format version. It
/// shares its generation number with the other offset-addressed format
/// (GPHE) — see `FORMAT.md`; the tagged-section version 1 is retired
/// and rejected, and a version 2 never existed.
pub const SEGMENT_VERSION: u32 = 3;

// GPHS v3 slot indices (see `FORMAT.md`).
const SEG_SLOT_CONFIG: usize = 0;
const SEG_SLOT_SEGHDR: usize = 1;
const SEG_SLOT_MEMDATA: usize = 2;
const SEG_SLOT_MEMIDS: usize = 3;
const SEG_SLOT_MEMDEAD: usize = 4;
const SEG_SLOT_BLOBS: usize = 5;
const SEG_SLOT_SEGTAB: usize = 6;
const N_SEG_SLOTS: usize = 7;

/// Knobs of the segment lifecycle.
#[derive(Clone, Copy, Debug)]
pub struct SegmentConfig {
    /// Live memtable rows that trigger a seal (build into an immutable
    /// segment). Smaller values keep scans short but build more often.
    pub seal_rows: usize,
    /// Sealed segments tolerated before compaction merges the two
    /// smallest; bounds per-query fan-out.
    pub max_sealed: usize,
    /// Where sealed segments live: decoded on the heap
    /// ([`StorageMode::Resident`], the default) or paged on demand from
    /// their snapshot blobs ([`StorageMode::FileBacked`]). The memtable
    /// is always resident. Runtime policy, not persisted in snapshots.
    pub storage: StorageMode,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig { seal_rows: 4096, max_sealed: 6, storage: StorageMode::Resident }
    }
}

/// Where a live id currently resides.
#[derive(Clone, Copy, Debug)]
struct Loc {
    /// Sealed-segment index, or `usize::MAX` for the memtable.
    seg: usize,
    /// Row index within that segment's dataset.
    row: usize,
}

const MEMTABLE: usize = usize::MAX;

/// The mutable front segment.
struct Memtable {
    data: Dataset,
    ids: Vec<u32>,
    dead: Tombstones,
}

impl Memtable {
    fn new(dim: usize) -> Self {
        Memtable { data: Dataset::new(dim), ids: Vec::new(), dead: Tombstones::new() }
    }

    /// Early-exit scan: `(id, distance)` of every live row within `tau`
    /// of `query`.
    fn hits<'a>(&'a self, query: &'a [u64], tau: u32) -> impl Iterator<Item = (u32, u32)> + 'a {
        self.dead.iter_live().filter_map(move |row| {
            hamming_within(self.data.row(row), query, tau).map(|d| (self.ids[row], d))
        })
    }

    /// Appends every live row, and its id, to `data` / `ids`.
    fn append_live_to(&self, data: &mut Dataset, ids: &mut Vec<u32>) -> Result<()> {
        for row in self.dead.iter_live() {
            data.push_row_from(&self.data, row)?;
            ids.push(self.ids[row]);
        }
        Ok(())
    }
}

/// Where a sealed segment's engine actually lives: decoded on the heap,
/// or paged on demand from its GPHE v3 blob. Both answer every query
/// identically; `Cold` trades latency for a bounded memory footprint.
enum SegStore {
    Resident(Gph),
    Cold(ColdSegment),
}

impl SegStore {
    /// The storage-independent half: dimensions, `tau_max`, cost
    /// estimation.
    fn plan(&self) -> &Plan {
        match self {
            SegStore::Resident(g) => &g.plan,
            SegStore::Cold(c) => &c.plan,
        }
    }

    fn len(&self) -> usize {
        match self {
            SegStore::Resident(g) => g.data().len(),
            SegStore::Cold(c) => c.len(),
        }
    }

    fn size_bytes(&self) -> usize {
        match self {
            SegStore::Resident(g) => g.size_bytes(),
            SegStore::Cold(c) => c.size_bytes(),
        }
    }

    /// The segment's range search as `(local row, distance)` pairs —
    /// see [`Plan::search_hits`].
    fn search(&self, query: &[u64], tau: u32, distances: bool) -> (Vec<(u32, u32)>, QueryStats) {
        match self {
            SegStore::Resident(g) => g.plan.search_hits(&g.store, query, tau, distances),
            SegStore::Cold(c) => c.plan.search_hits(&c.store, query, tau, distances),
        }
    }

    /// The segment's local row `row`, owned (cold rows are copied out of
    /// the page cache).
    fn row_of(&self, row: usize) -> Vec<u64> {
        match self {
            SegStore::Resident(g) => g.data().row(row).to_vec(),
            SegStore::Cold(c) => c.row(row),
        }
    }

    /// Appends local row `row` to `ds` (the seal/compaction merge path).
    fn append_row_to(&self, ds: &mut Dataset, row: usize) -> Result<()> {
        match self {
            SegStore::Resident(g) => ds.push_row_from(g.data(), row).map(|_| ()),
            SegStore::Cold(c) => ds.push_row(&c.row(row)).map(|_| ()),
        }
    }

    /// The segment's GPHE snapshot blob. Resident engines encode; cold
    /// segments read their backing blob back verbatim.
    fn engine_bytes(&self) -> Result<Vec<u8>> {
        match self {
            SegStore::Resident(g) => Ok(g.to_bytes()),
            SegStore::Cold(c) => c.engine_blob(),
        }
    }
}

/// One sealed, immutable segment: a frozen engine (resident or
/// file-backed) plus the map from its dense local row ids to external
/// ids, and the tombstones accumulated since it was built.
struct Sealed {
    store: SegStore,
    ids: Vec<u32>,
    dead: Tombstones,
}

impl Sealed {
    /// Appends every live row, and its id, to `data` / `ids`.
    fn append_live_to(&self, data: &mut Dataset, ids: &mut Vec<u32>) -> Result<()> {
        for row in self.dead.iter_live() {
            self.store.append_row_to(data, row)?;
            ids.push(self.ids[row]);
        }
        Ok(())
    }
}

/// Segment-level diagnostics ([`SegmentedGph::segment_info`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Rows stored (live + tombstoned).
    pub rows: usize,
    /// Rows still live.
    pub live: usize,
    /// Whether this is the mutable memtable (always the last entry).
    pub memtable: bool,
}

/// A live-updatable GPH engine: a scan-served memtable in front of
/// sealed immutable [`Gph`] segments, merged at query time.
///
/// # Example
///
/// ```
/// use gph::engine::GphConfig;
/// use gph::partition_opt::PartitionStrategy;
/// use gph::segment::{SegmentConfig, SegmentedGph};
///
/// let mut cfg = GphConfig::new(2, 4);
/// cfg.strategy = PartitionStrategy::Original;
/// let seg_cfg = SegmentConfig { seal_rows: 2, max_sealed: 2, ..SegmentConfig::default() };
/// let mut engine = SegmentedGph::new(16, cfg, seg_cfg).unwrap();
///
/// // Insert rows under caller-chosen ids; seals happen automatically.
/// engine.insert(7, &[0b0000_0000_1111_0000]).unwrap();
/// engine.insert(3, &[0b0000_0000_1111_0001]).unwrap();
/// engine.insert(9, &[0b1111_0000_0000_0000]).unwrap();
/// assert_eq!(engine.search(&[0b0000_0000_1111_0000], 1), vec![3, 7]);
///
/// // Delete and upsert keep queries exact.
/// assert!(engine.delete(7));
/// engine.upsert(9, &[0b0000_0000_1111_0011]).unwrap();
/// assert_eq!(engine.search(&[0b0000_0000_1111_0000], 2), vec![3, 9]);
/// assert_eq!(engine.len(), 2);
/// ```
pub struct SegmentedGph {
    cfg: GphConfig,
    seg_cfg: SegmentConfig,
    dim: usize,
    words_per_vec: usize,
    mem: Memtable,
    sealed: Vec<Sealed>,
    /// External id → current location, live rows only.
    loc: HashMap<u32, Loc>,
    /// Spill directory + shared page cache for file-backed segments,
    /// created lazily on the first cold seal (or eagerly by a
    /// file-backed restore). `None` while fully resident.
    spill: Option<Arc<SpillStore>>,
}

impl SegmentedGph {
    /// Creates an empty engine for `dim`-dimensional rows.
    pub fn new(dim: usize, cfg: GphConfig, seg_cfg: SegmentConfig) -> Result<Self> {
        if dim == 0 {
            return Err(HammingError::InvalidParameter("zero-dimensional data".into()));
        }
        if seg_cfg.seal_rows == 0 || seg_cfg.max_sealed == 0 {
            return Err(HammingError::InvalidParameter(
                "seal_rows and max_sealed must be positive".into(),
            ));
        }
        Ok(SegmentedGph {
            cfg,
            seg_cfg,
            dim,
            words_per_vec: words_for(dim),
            mem: Memtable::new(dim),
            sealed: Vec::new(),
            loc: HashMap::new(),
            spill: None,
        })
    }

    /// Builds an engine whose initial contents are `data` under external
    /// ids `ids`, sealed immediately into one segment — the bulk-load
    /// path the serving layer uses when constructing a fleet from a
    /// frozen dataset.
    pub fn build_sealed(
        data: Dataset,
        ids: Vec<u32>,
        cfg: GphConfig,
        seg_cfg: SegmentConfig,
    ) -> Result<Self> {
        if data.len() != ids.len() {
            return Err(HammingError::InvalidParameter(format!(
                "{} rows but {} ids",
                data.len(),
                ids.len()
            )));
        }
        let mut out = SegmentedGph::new(data.dim(), cfg, seg_cfg)?;
        if !data.is_empty() {
            out.push_built_segment(data, ids)?;
        }
        Ok(out)
    }

    /// Builds a sealed segment over `data` without touching any engine
    /// state — the build-then-commit half of every seal/compaction, so a
    /// failed `Gph::build` (e.g. an invalid config) leaves the engine
    /// fully consistent. (Creating the spill store early is harmless on
    /// failure: it is just an empty temp directory.)
    ///
    /// `inherited` (a flush behind a sealed segment) replaces the
    /// configured partition strategy; the index and the estimator are
    /// built from `data` either way.
    fn build_segment(
        &mut self,
        data: Dataset,
        ids: Vec<u32>,
        inherited: Option<Partitioning>,
    ) -> Result<Sealed> {
        let n = data.len();
        let engine = match inherited {
            Some(p) => {
                let strategy = PartitionStrategy::Fixed(p);
                Gph::build(data, &GphConfig { strategy, ..self.cfg.clone() })?
            }
            None => Gph::build(data, &self.cfg)?,
        };
        let store = self.store_engine(engine)?;
        Ok(Sealed { store, ids, dead: Tombstones::all_live(n) })
    }

    /// Places a freshly built engine according to the configured
    /// [`StorageMode`]: kept resident, or encoded to a GPHE v3 blob in
    /// the spill store and reopened cold.
    fn store_engine(&mut self, engine: Gph) -> Result<SegStore> {
        let StorageMode::FileBacked { budget_bytes } = self.seg_cfg.storage else {
            return Ok(SegStore::Resident(engine));
        };
        if self.spill.is_none() {
            self.spill = Some(SpillStore::temp(budget_bytes)?);
        }
        let spill = self.spill.as_ref().expect("created above when missing");
        let file = Arc::new(spill.write_blob(&engine.to_bytes())?);
        let len = file.len();
        Ok(SegStore::Cold(ColdSegment::open(file, Arc::clone(spill.cache()), 0, len)?))
    }

    /// Page-cache counters when any segment is file-backed; `None` while
    /// fully resident.
    pub fn page_cache_stats(&self) -> Option<PageCacheStats> {
        self.spill.as_ref().map(|s| s.cache().stats())
    }

    /// Registers a built segment's ids in the location map (overwriting
    /// any stale entries, e.g. memtable rows that just sealed) and
    /// appends it.
    fn commit_segment(&mut self, seg: Sealed) {
        let seg_idx = self.sealed.len();
        for (row, &id) in seg.ids.iter().enumerate() {
            self.loc.insert(id, Loc { seg: seg_idx, row });
        }
        self.sealed.push(seg);
    }

    /// Builds a `Gph` over `data` and appends it as a sealed segment,
    /// registering its ids (which must be globally fresh and distinct).
    fn push_built_segment(&mut self, data: Dataset, ids: Vec<u32>) -> Result<()> {
        let mut seen = std::collections::HashSet::with_capacity(ids.len());
        for &id in &ids {
            if self.loc.contains_key(&id) || !seen.insert(id) {
                return Err(HammingError::InvalidParameter(format!("duplicate live id {id}")));
            }
        }
        let seg = self.build_segment(data, ids, None)?;
        self.commit_segment(seg);
        Ok(())
    }

    /// Dimensionality of every row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Words per row.
    pub fn words_per_vec(&self) -> usize {
        self.words_per_vec
    }

    /// Largest threshold the engine serves.
    pub fn tau_max(&self) -> usize {
        self.cfg.tau_max
    }

    /// The build configuration. Bulk loads and compactions use all of it;
    /// a flush behind a sealed segment takes that segment's partitioning
    /// in place of [`GphConfig::strategy`].
    pub fn config(&self) -> &GphConfig {
        &self.cfg
    }

    /// The segment-lifecycle knobs.
    pub fn segment_config(&self) -> SegmentConfig {
        self.seg_cfg
    }

    /// Live rows.
    pub fn len(&self) -> usize {
        self.loc.len()
    }

    /// Whether no live rows exist.
    pub fn is_empty(&self) -> bool {
        self.loc.is_empty()
    }

    /// Rows held in storage, including tombstoned ones awaiting
    /// compaction.
    pub fn stored_rows(&self) -> usize {
        self.mem.data.len() + self.sealed.iter().map(|s| s.ids.len()).sum::<usize>()
    }

    /// Whether `id` is live.
    pub fn contains(&self, id: u32) -> bool {
        self.loc.contains_key(&id)
    }

    /// The live ids, ascending.
    pub fn live_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.loc.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The stored row for a live `id`, owned (file-backed segments copy
    /// the row out of the page cache).
    pub fn get(&self, id: u32) -> Option<Vec<u64>> {
        let loc = self.loc.get(&id)?;
        Some(if loc.seg == MEMTABLE {
            self.mem.data.row(loc.row).to_vec()
        } else {
            self.sealed[loc.seg].store.row_of(loc.row)
        })
    }

    /// Per-segment diagnostics, sealed segments first, memtable last.
    pub fn segment_info(&self) -> Vec<SegmentInfo> {
        let mut out: Vec<SegmentInfo> = self
            .sealed
            .iter()
            .map(|s| SegmentInfo { rows: s.ids.len(), live: s.dead.live(), memtable: false })
            .collect();
        out.push(SegmentInfo {
            rows: self.mem.data.len(),
            live: self.mem.dead.live(),
            memtable: true,
        });
        out
    }

    /// Sealed segments currently held.
    pub fn num_sealed(&self) -> usize {
        self.sealed.len()
    }

    /// Heap size of all segment engines plus the memtable payload. For
    /// file-backed segments this counts only their resident metadata;
    /// paged bytes are accounted by the shared cache
    /// ([`SegmentedGph::page_cache_stats`]).
    pub fn size_bytes(&self) -> usize {
        self.mem.data.size_bytes() + self.sealed.iter().map(|s| s.store.size_bytes()).sum::<usize>()
    }

    fn assert_query(&self, query: &[u64], tau: u32) {
        assert!(
            tau as usize <= self.cfg.tau_max,
            "tau {tau} exceeds the configured tau_max {}",
            self.cfg.tau_max
        );
        assert_eq!(query.len(), self.words_per_vec, "query width mismatch with indexed data");
    }

    // -----------------------------------------------------------------
    // Mutations
    // -----------------------------------------------------------------

    /// Inserts `row` under `id`. Errors if `id` is already live (use
    /// [`SegmentedGph::upsert`] to replace) or the row is malformed. May
    /// trigger a seal (and then compaction) when the memtable fills; if
    /// that seal fails the error propagates but the inserted row stays
    /// live in the memtable and the engine remains consistent.
    pub fn insert(&mut self, id: u32, row: &[u64]) -> Result<()> {
        if self.loc.contains_key(&id) {
            return Err(HammingError::InvalidParameter(format!(
                "id {id} is already live; use upsert to replace it"
            )));
        }
        let slot = self.mem.data.push_row(row)? as usize;
        self.mem.ids.push(id);
        self.mem.dead.push_live();
        self.loc.insert(id, Loc { seg: MEMTABLE, row: slot });
        if self.mem.dead.live() >= self.seg_cfg.seal_rows {
            self.seal()?;
        }
        Ok(())
    }

    /// Tombstones `id`; returns whether it was live. All-dead segments
    /// are dropped immediately.
    pub fn delete(&mut self, id: u32) -> bool {
        let Some(loc) = self.loc.remove(&id) else {
            return false;
        };
        if loc.seg == MEMTABLE {
            let was_live = self.mem.dead.kill(loc.row);
            debug_assert!(was_live, "loc map pointed at a dead memtable row");
            if self.mem.dead.all_dead() {
                self.mem = Memtable::new(self.dim);
            }
        } else {
            let was_live = self.sealed[loc.seg].dead.kill(loc.row);
            debug_assert!(was_live, "loc map pointed at a dead sealed row");
            if self.sealed[loc.seg].dead.all_dead() {
                self.sealed.remove(loc.seg);
                // Removing a segment shifts the indices of its successors.
                for l in self.loc.values_mut() {
                    if l.seg != MEMTABLE && l.seg > loc.seg {
                        l.seg -= 1;
                    }
                }
            }
        }
        true
    }

    /// Inserts `row` under `id`, replacing any live row with that id.
    /// Returns whether a replacement happened.
    pub fn upsert(&mut self, id: u32, row: &[u64]) -> Result<bool> {
        // Validate before deleting so a malformed row cannot half-apply.
        if row.len() != self.words_per_vec {
            return Err(HammingError::InvalidParameter(format!(
                "row has {} words, {}-dimensional rows take {}",
                row.len(),
                self.dim,
                self.words_per_vec
            )));
        }
        let replaced = self.delete(id);
        self.insert(id, row)?;
        Ok(replaced)
    }

    /// Flushes the memtable into a sealed segment (dropping its dead
    /// rows) under the partitioning of the largest sealed segment — the
    /// configured strategy runs only when there is none yet — and runs
    /// the compaction policy. A no-op when the memtable holds no live
    /// rows. On error (a failing `Gph::build`) the engine is left
    /// untouched and fully consistent.
    pub fn seal(&mut self) -> Result<()> {
        if self.mem.dead.live() > 0 {
            let mut data = Dataset::with_capacity(self.dim, self.mem.dead.live());
            let mut ids = Vec::with_capacity(self.mem.dead.live());
            self.mem.append_live_to(&mut data, &mut ids)?;
            // The largest segment's partitioning was optimised over the
            // most rows (a bulk load or a merge).
            let largest = self.sealed.iter().max_by_key(|s| s.ids.len());
            let inherited = largest.map(|s| s.store.plan().partitioning.clone());
            // Build before mutating: commit_segment overwrites the ids'
            // memtable locations only once the segment exists.
            let seg = self.build_segment(data, ids, inherited)?;
            self.commit_segment(seg);
        }
        self.mem = Memtable::new(self.dim);
        self.maybe_compact()
    }

    /// Rebuilds everything — memtable and every sealed segment — into a
    /// single sealed segment over the live rows. The heavyweight path a
    /// deployment runs off-peak; [`SegmentedGph::seal`]'s incremental
    /// policy keeps day-to-day fan-out bounded without it.
    pub fn compact(&mut self) -> Result<()> {
        let mut data = Dataset::with_capacity(self.dim, self.len());
        let mut ids = Vec::with_capacity(self.len());
        for seg in &self.sealed {
            seg.append_live_to(&mut data, &mut ids)?;
        }
        self.mem.append_live_to(&mut data, &mut ids)?;
        // Build the merged segment before dropping anything, so a failed
        // build cannot lose rows.
        let merged =
            if data.is_empty() { None } else { Some(self.build_segment(data, ids, None)?) };
        self.sealed.clear();
        self.mem = Memtable::new(self.dim);
        self.loc.clear();
        if let Some(seg) = merged {
            self.commit_segment(seg);
        }
        Ok(())
    }

    /// The compaction policy: drop all-dead segments, then while more
    /// than `max_sealed` segments exist merge the two with the fewest
    /// live rows into one segment freshly built under the configured
    /// partition strategy. Merged segments are
    /// built before their sources are removed, so an error leaves every
    /// row reachable.
    fn maybe_compact(&mut self) -> Result<()> {
        let before = self.sealed.len();
        self.sealed.retain(|s| !s.dead.all_dead());
        let mut changed = self.sealed.len() != before;
        while self.sealed.len() > self.seg_cfg.max_sealed {
            let (a, b) = smallest_two(&self.sealed);
            let (hi, lo) = (a.max(b), a.min(b));
            let live = self.sealed[lo].dead.live() + self.sealed[hi].dead.live();
            let mut data = Dataset::with_capacity(self.dim, live);
            let mut ids = Vec::with_capacity(live);
            for idx in [lo, hi] {
                self.sealed[idx].append_live_to(&mut data, &mut ids)?;
            }
            let merged = self.build_segment(data, ids, None)?;
            // Remove the higher index first so the lower stays valid.
            self.sealed.remove(hi);
            self.sealed.remove(lo);
            self.sealed.push(merged);
            changed = true;
        }
        if changed {
            // Segment indices shifted; recompute every location once.
            self.rebuild_loc();
        }
        Ok(())
    }

    /// Recomputes the id → location map from the segments (used after
    /// compaction reshuffles segment indices).
    fn rebuild_loc(&mut self) {
        self.loc.clear();
        for (seg, s) in self.sealed.iter().enumerate() {
            for row in s.dead.iter_live() {
                self.loc.insert(s.ids[row], Loc { seg, row });
            }
        }
        for row in self.mem.dead.iter_live() {
            self.loc.insert(self.mem.ids[row], Loc { seg: MEMTABLE, row });
        }
    }

    // -----------------------------------------------------------------
    // Queries
    // -----------------------------------------------------------------

    /// All live rows within `tau` of `query` — external ids, ascending.
    /// Identical to a fresh [`Gph`] over the surviving rows.
    pub fn search(&self, query: &[u64], tau: u32) -> Vec<u32> {
        self.search_with_stats(query, tau).0
    }

    /// [`SegmentedGph::search`] with instrumentation summed across
    /// segments. `thresholds` is left empty: each segment allocates its
    /// own vector, so no single allocation describes the query.
    pub fn search_with_stats(&self, query: &[u64], tau: u32) -> (Vec<u32>, QueryStats) {
        self.search_with_trace(query, tau, None)
    }

    /// [`SegmentedGph::search_with_stats`] with an optional trace sink:
    /// when `sink` is `Some`, one [`SegmentTrace`] per sealed segment
    /// (plus one for the memtable scan, tagged
    /// [`gph_obs::trace::MEMTABLE_SEGMENT`]) is appended to it. The
    /// `None` path costs one branch per segment — tracing off is free.
    pub fn search_with_trace(
        &self,
        query: &[u64],
        tau: u32,
        sink: Option<&mut Vec<SegmentTrace>>,
    ) -> (Vec<u32>, QueryStats) {
        let (hits, stats) = self.walk(query, tau, sink, false);
        let mut ids: Vec<u32> = hits.into_iter().map(|(id, _)| id).collect();
        ids.sort_unstable();
        (ids, stats)
    }

    /// Live rows within `tau` of `query` as `(id, distance)` pairs,
    /// ascending by id — the range search top-k escalates over.
    pub fn search_with_distances(&self, query: &[u64], tau: u32) -> Vec<(u32, u32)> {
        let mut hits = self.walk(query, tau, None, true).0;
        hits.sort_unstable();
        hits
    }

    /// The one walk over the sealed segments and the memtable: every
    /// live row within `tau` of `query` as `(id, distance)`, unordered,
    /// with instrumentation summed across segments and, when `sink` is
    /// `Some`, traced per segment. Sealed hits carry their exact
    /// distance only when `distances` is set (0 otherwise); memtable
    /// hits always do, since the scan computes it anyway.
    fn walk(
        &self,
        query: &[u64],
        tau: u32,
        mut sink: Option<&mut Vec<SegmentTrace>>,
        distances: bool,
    ) -> (Vec<(u32, u32)>, QueryStats) {
        self.assert_query(query, tau);
        let mut hits = Vec::new();
        let mut agg = QueryStats::default();
        for (seg_idx, seg) in self.sealed.iter().enumerate() {
            let (local, st) = seg.store.search(query, tau, distances);
            agg.alloc_ns += st.alloc_ns;
            agg.enumerate_ns += st.enumerate_ns;
            agg.candgen_ns += st.candgen_ns;
            agg.verify_ns += st.verify_ns;
            agg.n_signatures += st.n_signatures;
            agg.sum_postings += st.sum_postings;
            agg.n_scanned += st.n_scanned;
            agg.n_candidates += st.n_candidates;
            agg.estimated_cost += st.estimated_cost;
            if let Some(traces) = sink.as_deref_mut() {
                traces.push(Self::trace_of(seg_idx as u32, seg.store.len(), &st));
            }
            let live = local.into_iter().filter(|&(row, _)| !seg.dead.is_dead(row as usize));
            hits.extend(live.map(|(row, d)| (seg.ids[row as usize], d)));
        }
        let t = std::time::Instant::now();
        // Memtable rows are found by scanning, not by index probes: they
        // count toward both `n_scanned` and `n_candidates`.
        let mem_rows = self.mem.dead.live() as u64;
        let sealed_results = hits.len();
        hits.extend(self.mem.hits(query, tau));
        let mem_results = (hits.len() - sealed_results) as u64;
        agg.n_scanned += mem_rows;
        agg.n_candidates += mem_rows;
        let scan_ns = t.elapsed().as_nanos() as u64;
        agg.verify_ns += scan_ns;
        if let Some(traces) = sink {
            traces.push(SegmentTrace {
                segment: gph_obs::trace::MEMTABLE_SEGMENT,
                rows: mem_rows,
                phases: PhaseNanos { scan_ns, ..PhaseNanos::default() },
                n_scanned: mem_rows,
                n_candidates: mem_rows,
                n_results: mem_results,
                ..SegmentTrace::default()
            });
        }
        agg.n_results = hits.len() as u64;
        (hits, agg)
    }

    /// Maps one sealed engine's [`QueryStats`] onto a trace entry. The
    /// engine's candidate-generation time (probe + dedup, or the scan
    /// fallback when the signature ball outgrows the segment) lands in
    /// `probe_ns`; memtable scans are traced separately under `scan_ns`.
    fn trace_of(segment: u32, rows: usize, st: &QueryStats) -> SegmentTrace {
        SegmentTrace {
            segment,
            rows: rows as u64,
            phases: PhaseNanos {
                alloc_ns: st.alloc_ns,
                enumerate_ns: st.enumerate_ns,
                probe_ns: st.candgen_ns,
                verify_ns: st.verify_ns,
                scan_ns: 0,
            },
            n_signatures: st.n_signatures,
            sum_postings: st.sum_postings,
            n_scanned: st.n_scanned,
            n_candidates: st.n_candidates,
            n_results: st.n_results,
        }
    }

    /// The `k` nearest live rows within `tau_max`, ties broken by id —
    /// identical to [`Gph::search_topk`] over the surviving rows.
    pub fn search_topk(&self, query: &[u64], k: usize) -> Vec<(u32, u32)> {
        self.search_topk_within(query, k, self.cfg.tau_max as u32)
    }

    /// [`SegmentedGph::search_topk`] with the escalation radius capped at
    /// `tau_cap` — identical to [`Gph::search_topk_within`] over the
    /// surviving rows. Escalation runs over the whole engine's live rows,
    /// so tombstones are filtered where every range search filters them.
    pub fn search_topk_within(&self, query: &[u64], k: usize, tau_cap: u32) -> Vec<(u32, u32)> {
        self.assert_query(query, tau_cap);
        topk_by_escalation(k, tau_cap, |tau| self.walk(query, tau, None, true).0)
    }

    /// Estimated query cost: the sealed engines' allocator estimates plus
    /// the memtable's scan cost (every live row is verified).
    pub fn estimate_cost(&self, query: &[u64], tau: u32) -> f64 {
        self.assert_query(query, tau);
        let sealed: f64 =
            self.sealed.iter().map(|s| s.store.plan().estimate_cost(query, tau)).sum();
        sealed + self.mem.dead.live() as f64 * self.cfg.cost_model.c_verify
    }

    /// Estimated cost of the *next* insert: the memtable append plus, if
    /// it would trigger a seal, the cost of building a segment over the
    /// memtable (every row indexed and verified once — a flush inherits
    /// its partitioning, so that is all it does). The admission
    /// controller prices mutations with this.
    pub fn next_insert_cost(&self) -> f64 {
        let base = self.cfg.cost_model.c_verify;
        if self.mem.dead.live() + 1 >= self.seg_cfg.seal_rows {
            base + self.seg_cfg.seal_rows as f64
                * (self.cfg.cost_model.c_access + self.cfg.cost_model.c_verify)
        } else {
            base
        }
    }

    /// Estimated cost of a delete (an id lookup plus a bit flip).
    pub fn delete_cost(&self) -> f64 {
        self.cfg.cost_model.c_access
    }

    // -----------------------------------------------------------------
    // Snapshots
    // -----------------------------------------------------------------

    /// Serializes the engine as a GPHS v3 offset-addressed container:
    /// the build config, the memtable (rows, ids, tombstones), every
    /// sealed segment's GPHE blob in a page-aligned blob arena, and a
    /// segment table mapping each segment to its arena extent plus its
    /// ids and tombstones. Pending tombstones round-trip; nothing is
    /// compacted away. See `FORMAT.md` for the byte-level layout.
    /// File-backed segments read their blob back from disk here; a blob
    /// that cannot be read back (the file truncated, an I/O error) is
    /// the error.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let blobs =
            self.sealed.iter().map(|s| s.store.engine_bytes()).collect::<Result<Vec<_>>>()?;
        // The arena is assembled first so the segment table can carry
        // arena-relative offsets. Each blob starts on a PAGE_SIZE
        // boundary; the arena section itself is page-aligned, so blob
        // starts are file-page-aligned too and a file-backed restore
        // can map them in place.
        let mut arena = Vec::new();
        let mut rel = Vec::with_capacity(blobs.len());
        for blob in &blobs {
            let pos = arena.len().next_multiple_of(PAGE_SIZE);
            arena.resize(pos, 0);
            rel.push(pos as u64);
            arena.extend_from_slice(blob);
        }
        let mut segtab = Vec::new();
        for (i, seg) in self.sealed.iter().enumerate() {
            segtab.put_u64_le(rel[i]);
            segtab.put_u64_le(blobs[i].len() as u64);
            segtab.put_u64_le(seg.ids.len() as u64);
            for &id in &seg.ids {
                segtab.put_u32_le(id);
            }
            let dead = seg.dead.encode();
            segtab.put_u64_le(dead.len() as u64);
            segtab.put_slice(&dead);
        }

        let mut w = OffsetWriter::new(SEGMENT_MAGIC, SEGMENT_VERSION);
        w.section(&encode_gph_config(&self.cfg));
        let mut hdr = Vec::with_capacity(32);
        hdr.put_u64_le(self.dim as u64);
        hdr.put_u64_le(self.seg_cfg.seal_rows as u64);
        hdr.put_u64_le(self.seg_cfg.max_sealed as u64);
        hdr.put_u64_le(self.sealed.len() as u64);
        w.section(&hdr);
        w.section(&hamming_core::io::encode_dataset(&self.mem.data));
        let mut mem_ids = Vec::with_capacity(8 + self.mem.ids.len() * 4);
        mem_ids.put_u64_le(self.mem.ids.len() as u64);
        for &id in &self.mem.ids {
            mem_ids.put_u32_le(id);
        }
        w.section(&mem_ids);
        w.section(&self.mem.dead.encode());
        w.aligned_section(&arena);
        w.section(&segtab);
        Ok(w.finish())
    }

    /// Restores an engine from [`SegmentedGph::to_bytes`] bytes, fully
    /// resident, every payload CRC verified up front. The restored
    /// engine is query-for-query identical to the saved one, and —
    /// because the build config travels with the data — behaves
    /// identically under further mutations too.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let c = Container::open(Source::Bytes(bytes), SEGMENT_MAGIC, SEGMENT_VERSION, N_SEG_SLOTS)?;
        let arena = c.section(SEG_SLOT_BLOBS)?;
        Self::restore(&c, StorageMode::Resident, |rel, len| {
            // `restore` bounds-checked the extent against the arena.
            Ok(SegStore::Resident(Gph::from_bytes(&arena[rel as usize..][..len])?))
        })
    }

    /// Rebuilds an engine from the GPHS container `c` — the one restore
    /// behind [`SegmentedGph::from_bytes`] and
    /// [`SegmentedGph::load_with_storage`]. `open_blob` materialises the
    /// sealed segment whose GPHE blob sits at `(offset, len)` of the
    /// blob arena.
    fn restore(
        c: &Container,
        storage: StorageMode,
        mut open_blob: impl FnMut(u64, usize) -> Result<SegStore>,
    ) -> Result<Self> {
        let cfg = decode_gph_config(&c.section(SEG_SLOT_CONFIG)?)?;
        let seghdr = c.section(SEG_SLOT_SEGHDR)?;
        let mut hr = ByteReader::new(&seghdr);
        let dim = hr.u64("dim")? as usize;
        let seal_rows = hr.u64("seal_rows")? as usize;
        let max_sealed = hr.u64("max_sealed")? as usize;
        let n_sealed = hr.u64("sealed segment count")? as usize;
        hr.finish("segment header")?;
        let mut out =
            SegmentedGph::new(dim, cfg, SegmentConfig { seal_rows, max_sealed, storage })?;
        out.mem = Self::decode_memtable(
            &c.section(SEG_SLOT_MEMDATA)?,
            &c.section(SEG_SLOT_MEMIDS)?,
            &c.section(SEG_SLOT_MEMDEAD)?,
            dim,
        )?;

        let arena_len = c.slot(SEG_SLOT_BLOBS).len;
        let segtab = c.section(SEG_SLOT_SEGTAB)?;
        let mut tr = ByteReader::new(&segtab);
        for i in 0..n_sealed {
            // Arena-relative blob extent, external ids, tombstones.
            let rel = tr.u64("blob offset")?;
            let blob_len = tr.u64("blob length")? as usize;
            let n = tr.len(4, "segment id count")?;
            let ids = tr.u32s(n, "segment ids")?;
            let dead_len = tr.len(1, "segment tombstone length")?;
            let dead = Tombstones::decode(tr.bytes(dead_len, "segment tombstones")?)?;
            if rel.checked_add(blob_len as u64).filter(|&e| e <= arena_len).is_none() {
                return Err(HammingError::Corrupt(format!(
                    "segment {i} blob extent exceeds the arena"
                )));
            }
            let store = open_blob(rel, blob_len)?;
            Self::check_segment(i, &store, &ids, &dead, dim, out.cfg.tau_max)?;
            out.sealed.push(Sealed { store, ids, dead });
        }
        tr.finish("segment table")?;
        out.finish_restore()
    }

    /// Decodes the three memtable sections and cross-checks their
    /// lengths.
    fn decode_memtable(data: &[u8], ids: &[u8], dead: &[u8], dim: usize) -> Result<Memtable> {
        let mem_data = hamming_core::io::decode_dataset(data)?;
        if mem_data.dim() != dim {
            return Err(HammingError::Corrupt(format!(
                "memtable holds {}-dimensional rows, header says {dim}",
                mem_data.dim()
            )));
        }
        let mut ir = ByteReader::new(ids);
        let n_ids = ir.len(4, "memtable id count")?;
        let mem_ids = ir.u32s(n_ids, "memtable ids")?;
        ir.finish("memtable ids")?;
        let mem_dead = Tombstones::decode(dead)?;
        if mem_ids.len() != mem_data.len() || mem_dead.len() != mem_data.len() {
            return Err(HammingError::Corrupt(format!(
                "memtable sections disagree: {} rows, {} ids, {} tombstone slots",
                mem_data.len(),
                mem_ids.len(),
                mem_dead.len()
            )));
        }
        Ok(Memtable { data: mem_data, ids: mem_ids, dead: mem_dead })
    }

    /// Cross-checks a restored segment against the container header.
    fn check_segment(
        i: usize,
        store: &SegStore,
        ids: &[u32],
        dead: &Tombstones,
        dim: usize,
        tau_max: usize,
    ) -> Result<()> {
        if store.len() != ids.len() || dead.len() != ids.len() {
            return Err(HammingError::Corrupt(format!(
                "segment {i} sections disagree: {} rows, {} ids, {} tombstone slots",
                store.len(),
                ids.len(),
                dead.len()
            )));
        }
        let plan = store.plan();
        if plan.partitioning.dim() != dim {
            return Err(HammingError::Corrupt(format!(
                "segment {i} indexes {}-dimensional rows, header says {dim}",
                plan.partitioning.dim()
            )));
        }
        if plan.tau_max != tau_max {
            return Err(HammingError::Corrupt(format!(
                "segment {i} serves tau_max {}, config says {tau_max}",
                plan.tau_max
            )));
        }
        Ok(())
    }

    /// Final restore validation shared by every decode path: rebuild the
    /// location map and require the distinct live ids to match the
    /// per-segment live sums (duplicates would collide in the map).
    fn finish_restore(mut self) -> Result<Self> {
        self.rebuild_loc();
        let live_sum =
            self.mem.dead.live() + self.sealed.iter().map(|s| s.dead.live()).sum::<usize>();
        if self.loc.len() != live_sum {
            return Err(HammingError::Corrupt(format!(
                "{} distinct live ids across segments, but {} live rows",
                self.loc.len(),
                live_sum
            )));
        }
        Ok(self)
    }

    /// Writes [`SegmentedGph::to_bytes`] to `path` atomically.
    pub fn save<P: AsRef<std::path::Path>>(&self, path: P) -> Result<()> {
        hamming_core::io::write_atomic(path.as_ref(), &self.to_bytes()?)
    }

    /// Reads an engine snapshot from `path`, fully resident.
    pub fn load<P: AsRef<std::path::Path>>(path: P) -> Result<Self> {
        SegmentedGph::from_bytes(&std::fs::read(path)?)
    }

    /// Reads an engine snapshot from `path` under an explicit
    /// [`StorageMode`] — the one file-backed restore.
    ///
    /// This is the out-of-core warm-start path: under
    /// [`StorageMode::FileBacked`] the snapshot is *mapped, not read* —
    /// its header, footer and metadata sections (config, memtable,
    /// segment table; a few KiB) are read directly and checked by the
    /// one container reader ([`Container`]), while every sealed
    /// segment's blob stays on disk, opened as a file region of the
    /// snapshot file itself, which reads one key per key page for its
    /// page fences. Restore time therefore grows only with the number
    /// of key pages (1/2048 of the key bytes at 16 KiB pages), and no
    /// blob byte is resident until a query pages it in. Blob-payload
    /// CRCs are deferred (see `FORMAT.md` §durability);
    /// [`SegmentedGph::load`] is the fully-verified alternative.
    ///
    /// The engine keeps the snapshot file open for paging. Replacing the
    /// snapshot via [`SegmentedGph::save`] is safe on platforms where
    /// rename unlinks (the open descriptor pins the old bytes), but the
    /// file must not be truncated or rewritten in place.
    pub fn load_with_storage<P: AsRef<std::path::Path>>(
        path: P,
        storage: StorageMode,
    ) -> Result<Self> {
        let StorageMode::FileBacked { budget_bytes } = storage else {
            return SegmentedGph::load(path);
        };
        let file = Arc::new(SegmentFile::open(path.as_ref(), false)?);
        let read_at = |offset: u64, buf: &mut [u8]| file.read_at(offset, buf);
        let region = Source::Region { len: file.len(), read_at: &read_at };
        let c = Container::open(region, SEGMENT_MAGIC, SEGMENT_VERSION, N_SEG_SLOTS)?;
        let arena_off = c.slot(SEG_SLOT_BLOBS).offset;
        // Snapshot-mapped segments and future seals share one spill
        // store: its page cache, and its byte budget. It exists even with
        // no sealed segment, so the page-cache counters do too.
        let spill = SpillStore::temp(budget_bytes)?;
        let mut out = Self::restore(&c, storage, |rel, len| {
            let cache = Arc::clone(spill.cache());
            let cold = ColdSegment::open(Arc::clone(&file), cache, arena_off + rel, len as u64)?;
            Ok(SegStore::Cold(cold))
        })?;
        out.spill = Some(spill);
        Ok(out)
    }
}

/// Indices of the two segments with the fewest live rows. Caller ensures
/// `sealed.len() >= 2`.
fn smallest_two(sealed: &[Sealed]) -> (usize, usize) {
    let mut order: Vec<usize> = (0..sealed.len()).collect();
    order.sort_by_key(|&i| (sealed[i].dead.live(), i));
    (order[0], order[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition_opt::PartitionStrategy;
    use hamming_core::BitVector;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn cfg() -> GphConfig {
        let mut cfg = GphConfig::new(3, 8);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 11 };
        cfg
    }

    fn seg_cfg() -> SegmentConfig {
        SegmentConfig { seal_rows: 8, max_sealed: 2, ..SegmentConfig::default() }
    }

    fn random_rows(dim: usize, n: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| BitVector::from_bits((0..dim).map(|_| rng.random_bool(0.4))).words().to_vec())
            .collect()
    }

    /// Reference: a fresh Gph over the surviving rows, ids mapped back.
    fn reference_search(eng: &SegmentedGph, query: &[u64], tau: u32) -> Vec<u32> {
        let ids = eng.live_ids();
        let mut ds = Dataset::new(eng.dim());
        for &id in &ids {
            ds.push_row(&eng.get(id).unwrap()).unwrap();
        }
        if ds.is_empty() {
            return Vec::new();
        }
        let fresh = Gph::build(ds, eng.config()).unwrap();
        fresh.search(query, tau).into_iter().map(|local| ids[local as usize]).collect()
    }

    #[test]
    fn inserts_seal_and_stay_exact() {
        let rows = random_rows(48, 40, 1);
        let mut eng = SegmentedGph::new(48, cfg(), seg_cfg()).unwrap();
        for (i, row) in rows.iter().enumerate() {
            eng.insert(i as u32 * 3, row).unwrap();
        }
        // 40 inserts at seal_rows=8 and max_sealed=2 forced seals and
        // compactions along the way.
        assert!(eng.num_sealed() >= 1 && eng.num_sealed() <= 2);
        assert_eq!(eng.len(), 40);
        for (qi, q) in rows.iter().enumerate().step_by(7) {
            for tau in [0u32, 3, 8] {
                assert_eq!(eng.search(q, tau), reference_search(&eng, q, tau), "qi={qi} tau={tau}");
            }
        }
    }

    #[test]
    fn delete_unknown_id_is_a_noop() {
        let mut eng = SegmentedGph::new(32, cfg(), seg_cfg()).unwrap();
        assert!(!eng.delete(99));
        eng.insert(1, &random_rows(32, 1, 2)[0]).unwrap();
        assert!(!eng.delete(2));
        assert_eq!(eng.len(), 1);
        assert!(eng.delete(1));
        assert!(!eng.delete(1), "second delete of the same id is a no-op");
    }

    #[test]
    fn delete_all_then_query_returns_nothing() {
        let rows = random_rows(32, 20, 3);
        let mut eng = SegmentedGph::new(32, cfg(), seg_cfg()).unwrap();
        for (i, row) in rows.iter().enumerate() {
            eng.insert(i as u32, row).unwrap();
        }
        eng.seal().unwrap();
        for i in 0..20 {
            assert!(eng.delete(i));
        }
        assert!(eng.is_empty());
        assert_eq!(eng.num_sealed(), 0, "all-dead segments are dropped");
        assert!(eng.search(&rows[0], 8).is_empty());
        assert!(eng.search_topk(&rows[0], 5).is_empty());
        // The engine keeps working after total deletion.
        eng.insert(7, &rows[7]).unwrap();
        assert_eq!(eng.search(&rows[7], 0), vec![7]);
    }

    #[test]
    fn insert_of_live_id_errors_and_upsert_replaces() {
        let rows = random_rows(32, 3, 4);
        let mut eng = SegmentedGph::new(32, cfg(), seg_cfg()).unwrap();
        eng.insert(5, &rows[0]).unwrap();
        assert!(eng.insert(5, &rows[1]).is_err(), "duplicate insert must error");
        assert!(eng.upsert(5, &rows[1]).unwrap(), "upsert of a live id replaces");
        assert_eq!(eng.len(), 1);
        assert_eq!(eng.get(5).unwrap(), rows[1].as_slice());
        assert_eq!(eng.search(&rows[0], 0), Vec::<u32>::new());
        assert_eq!(eng.search(&rows[1], 0), vec![5]);
        assert!(!eng.upsert(6, &rows[2]).unwrap(), "upsert of a fresh id inserts");
        assert_eq!(eng.len(), 2);
    }

    #[test]
    fn upsert_of_sealed_row_replaces_across_segments() {
        let rows = random_rows(32, 10, 5);
        let mut eng = SegmentedGph::new(32, cfg(), seg_cfg()).unwrap();
        for (i, row) in rows.iter().enumerate() {
            eng.insert(i as u32, row).unwrap();
        }
        eng.seal().unwrap();
        // id 3 now lives in a sealed segment; replace it.
        assert!(eng.upsert(3, &rows[9]).unwrap());
        let hits = eng.search(&rows[9], 0);
        assert!(hits.contains(&3));
        assert!(!eng.search(&rows[3], 0).contains(&3));
    }

    #[test]
    fn topk_filters_tombstones_exactly() {
        let rows = random_rows(32, 30, 6);
        let mut eng = SegmentedGph::new(32, cfg(), seg_cfg()).unwrap();
        for (i, row) in rows.iter().enumerate() {
            eng.insert(i as u32, row).unwrap();
        }
        eng.seal().unwrap();
        let q = rows[0].clone();
        // Delete the nearest rows so tombstoned hits would dominate a
        // naive per-segment top-k.
        let nearest = eng.search_topk(&q, 5);
        for &(id, _) in &nearest {
            eng.delete(id);
        }
        let got = eng.search_topk(&q, 5);
        let ids = eng.live_ids();
        let mut expect: Vec<(u32, u32)> = ids
            .iter()
            .map(|&id| (id, hamming_core::distance::hamming(&eng.get(id).unwrap(), &q)))
            .filter(|&(_, d)| d <= 8)
            .collect();
        expect.sort_unstable_by_key(|&(id, d)| (d, id));
        expect.truncate(5);
        assert_eq!(got, expect);
    }

    #[test]
    fn snapshot_with_pending_tombstones_roundtrips() {
        let rows = random_rows(48, 25, 7);
        let mut eng = SegmentedGph::new(48, cfg(), seg_cfg()).unwrap();
        for (i, row) in rows.iter().enumerate() {
            eng.insert(i as u32, row).unwrap();
        }
        // Leave tombstones pending in both a sealed segment and the
        // memtable (25 rows over seal_rows=8 leaves a partial memtable).
        eng.delete(2);
        eng.delete(24);
        let restored = SegmentedGph::from_bytes(&eng.to_bytes().unwrap()).unwrap();
        assert_eq!(restored.len(), eng.len());
        assert_eq!(restored.live_ids(), eng.live_ids());
        assert_eq!(restored.num_sealed(), eng.num_sealed());
        for q in rows.iter().step_by(5) {
            for tau in [0u32, 4, 8] {
                assert_eq!(restored.search(q, tau), eng.search(q, tau));
            }
            assert_eq!(restored.search_topk(q, 6), eng.search_topk(q, 6));
        }
        // Further mutations behave identically on both copies.
        let mut a = eng;
        let mut b = restored;
        let extra = random_rows(48, 10, 8);
        for (i, row) in extra.iter().enumerate() {
            a.upsert(100 + i as u32, row).unwrap();
            b.upsert(100 + i as u32, row).unwrap();
        }
        a.delete(5);
        b.delete(5);
        for q in extra.iter() {
            assert_eq!(a.search(q, 8), b.search(q, 8));
        }
    }

    #[test]
    fn corrupt_segment_snapshots_are_rejected() {
        let rows = random_rows(32, 12, 9);
        let mut eng = SegmentedGph::new(32, cfg(), seg_cfg()).unwrap();
        for (i, row) in rows.iter().enumerate() {
            eng.insert(i as u32, row).unwrap();
        }
        eng.delete(3);
        let bytes = eng.to_bytes().unwrap();
        assert!(SegmentedGph::from_bytes(&bytes).is_ok());
        for i in (0..bytes.len()).step_by(53) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            match SegmentedGph::from_bytes(&bad) {
                Err(HammingError::Corrupt(_)) => {}
                Err(other) => panic!("flip at {i}: unexpected error kind {other}"),
                Ok(_) => panic!("flip at {i} went undetected"),
            }
        }
        for cut in (0..bytes.len()).step_by(61) {
            assert!(SegmentedGph::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn explicit_compact_preserves_results() {
        let rows = random_rows(48, 30, 10);
        let mut eng = SegmentedGph::new(48, cfg(), seg_cfg()).unwrap();
        for (i, row) in rows.iter().enumerate() {
            eng.insert(i as u32, row).unwrap();
        }
        eng.delete(1);
        eng.delete(17);
        let before: Vec<Vec<u32>> = rows.iter().map(|q| eng.search(q, 6)).collect();
        eng.compact().unwrap();
        assert_eq!(eng.num_sealed(), 1);
        assert_eq!(eng.stored_rows(), eng.len(), "compaction drops dead rows");
        let after: Vec<Vec<u32>> = rows.iter().map(|q| eng.search(q, 6)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn failed_seal_leaves_engine_consistent() {
        // m > dim makes every Gph::build fail; the seal must error
        // without corrupting the location map or losing rows.
        let mut bad_cfg = GphConfig::new(64, 4);
        bad_cfg.strategy = PartitionStrategy::Original;
        let mut eng = SegmentedGph::new(
            16,
            bad_cfg,
            SegmentConfig { seal_rows: 2, max_sealed: 2, ..SegmentConfig::default() },
        )
        .unwrap();
        let rows = random_rows(16, 3, 11);
        eng.insert(1, &rows[0]).unwrap();
        // The second insert triggers a seal, which fails.
        assert!(eng.insert(2, &rows[1]).is_err());
        // Both rows stay live and addressable in the memtable; no panic,
        // no phantom segment.
        assert_eq!(eng.len(), 2);
        assert_eq!(eng.num_sealed(), 0);
        assert_eq!(eng.get(1).unwrap(), rows[0].as_slice());
        assert_eq!(eng.get(2).unwrap(), rows[1].as_slice());
        assert_eq!(eng.search(&rows[1], 0), vec![2]);
        assert!(eng.compact().is_err(), "compaction fails too, but harmlessly");
        assert_eq!(eng.len(), 2);
        assert!(eng.delete(2));
        assert_eq!(eng.len(), 1);
    }

    fn partitionings(eng: &SegmentedGph) -> Vec<Partitioning> {
        eng.sealed.iter().map(|s| s.store.plan().partitioning.clone()).collect()
    }

    /// What the configured strategy makes of sealed segment `seg`'s rows.
    fn configured(eng: &SegmentedGph, seg: usize) -> Partitioning {
        let mut ds = Dataset::new(eng.dim());
        for row in 0..eng.sealed[seg].ids.len() {
            eng.sealed[seg].store.append_row_to(&mut ds, row).unwrap();
        }
        crate::partition_opt::build_partitioning(&ds, eng.cfg.m, &eng.cfg.strategy, None).unwrap()
    }

    #[test]
    fn flush_inherits_the_partitioning_and_merges_reoptimise() {
        // OS arranges dimensions by their skew in the rows it is given,
        // so it tells one batch of rows from another.
        let mut os_cfg = GphConfig::new(3, 8);
        os_cfg.strategy = PartitionStrategy::Os;
        let rows = random_rows(48, 48, 30);
        for storage in [StorageMode::Resident, StorageMode::FileBacked { budget_bytes: 32 * 1024 }]
        {
            let seg_cfg = SegmentConfig { seal_rows: 8, max_sealed: 3, storage };
            let mut eng = SegmentedGph::new(48, os_cfg.clone(), seg_cfg).unwrap();
            let mut next = 0u32;
            let mut flush = |eng: &mut SegmentedGph| {
                for _ in 0..8 {
                    eng.insert(next, &rows[next as usize]).unwrap();
                    next += 1;
                }
            };
            // The first flush finds no sealed segment: configured strategy.
            flush(&mut eng);
            let first = partitionings(&eng)[0].clone();
            assert_eq!(first, configured(&eng, 0));
            // The next two inherit it, though OS would have chosen otherwise.
            flush(&mut eng);
            flush(&mut eng);
            assert_eq!(partitionings(&eng), vec![first.clone(); 3]);
            assert_ne!(configured(&eng, 1), first, "fixture: OS must tell the batches apart");

            // So does a flush after a snapshot round-trip; it is the
            // fourth segment, so the two smallest merge — under the
            // configured strategy.
            let path = std::env::temp_dir()
                .join(format!("gph-segtest-inherit-{}.gphs", std::process::id()));
            eng.save(&path).unwrap();
            let mut eng = SegmentedGph::load_with_storage(&path, storage).unwrap();
            flush(&mut eng);
            let sizes: Vec<usize> = eng.sealed.iter().map(|s| s.ids.len()).collect();
            assert_eq!(sizes, [8, 8, 16]);
            let merged = configured(&eng, 2);
            assert_ne!(merged, first, "fixture: the merge must re-optimise to something new");
            assert_eq!(partitionings(&eng), [first.clone(), first.clone(), merged.clone()]);

            // The largest segment is now the merged one: the next flush
            // takes its partitioning, not the oldest's or the newest's.
            flush(&mut eng);
            let merged_again = configured(&eng, 2);
            assert_eq!(partitionings(&eng), [merged.clone(), merged, merged_again]);

            for q in rows.iter().step_by(5) {
                for tau in [0u32, 4, 8] {
                    assert_eq!(eng.search(q, tau), reference_search(&eng, q, tau), "tau={tau}");
                }
            }
            // A full compaction re-optimises over everything.
            eng.compact().unwrap();
            assert_eq!(partitionings(&eng), [configured(&eng, 0)]);
            std::fs::remove_file(&path).ok();
        }
    }

    fn assert_same_answers(a: &SegmentedGph, b: &SegmentedGph, queries: &[Vec<u64>]) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.live_ids(), b.live_ids());
        for q in queries {
            for tau in [0u32, 4, 8] {
                assert_eq!(a.search(q, tau), b.search(q, tau), "tau={tau}");
                assert_eq!(
                    a.search_with_distances(q, tau),
                    b.search_with_distances(q, tau),
                    "tau={tau}"
                );
            }
            assert_eq!(a.search_topk(q, 6), b.search_topk(q, 6));
        }
        for id in a.live_ids() {
            assert_eq!(a.get(id), b.get(id), "id={id}");
        }
    }

    #[test]
    fn file_backed_engine_matches_resident_through_mutations() {
        let rows = random_rows(48, 40, 20);
        let mut cold_cfg = seg_cfg();
        cold_cfg.storage = StorageMode::FileBacked { budget_bytes: 32 * 1024 };
        let mut hot = SegmentedGph::new(48, cfg(), seg_cfg()).unwrap();
        let mut cold = SegmentedGph::new(48, cfg(), cold_cfg).unwrap();
        for (i, row) in rows.iter().enumerate() {
            hot.insert(i as u32, row).unwrap();
            cold.insert(i as u32, row).unwrap();
        }
        for id in [3u32, 17, 31] {
            assert_eq!(hot.delete(id), cold.delete(id));
        }
        hot.upsert(5, &rows[20]).unwrap();
        cold.upsert(5, &rows[20]).unwrap();
        assert!(cold.num_sealed() >= 1, "seals must have happened");
        assert_same_answers(&hot, &cold, &rows);
        let stats = cold.page_cache_stats().expect("file-backed engine has a page cache");
        assert!(stats.hits + stats.misses > 0, "queries must have paged: {stats:?}");
        assert!(hot.page_cache_stats().is_none());
        // Compaction merges cold segments by paging their rows back.
        cold.compact().unwrap();
        hot.compact().unwrap();
        assert_same_answers(&hot, &cold, &rows);
        // Snapshots of both modes are interchangeable.
        let path =
            std::env::temp_dir().join(format!("gph-segtest-modes-{}.gphs", std::process::id()));
        hot.save(&path).unwrap();
        assert_same_answers(
            &SegmentedGph::from_bytes(&cold.to_bytes().unwrap()).unwrap(),
            &SegmentedGph::load_with_storage(&path, cold_cfg.storage).unwrap(),
            &rows,
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retired_gphs_version_is_rejected_as_unsupported() {
        // A v1 file is a tagged-section container; the reader must name
        // the version, on the in-memory and the file-mapped path alike.
        let mut v1 = [&SEGMENT_MAGIC[..], &1u32.to_le_bytes()].concat();
        v1.extend_from_slice(b"whatever an old writer put here");
        let path = std::env::temp_dir().join(format!("gph-segtest-v1-{}.gphs", std::process::id()));
        std::fs::write(&path, &v1).unwrap();
        let cold = StorageMode::FileBacked { budget_bytes: 1 << 20 };
        for got in [SegmentedGph::from_bytes(&v1), SegmentedGph::load_with_storage(&path, cold)] {
            match got.map(|_| ()) {
                Err(HammingError::Corrupt(msg)) => {
                    assert!(msg.contains("unsupported version 1"), "{msg}")
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_with_storage_maps_blobs_lazily() {
        let rows = random_rows(48, 30, 22);
        let mut eng = SegmentedGph::new(48, cfg(), seg_cfg()).unwrap();
        for (i, row) in rows.iter().enumerate() {
            eng.insert(i as u32, row).unwrap();
        }
        eng.delete(4);
        eng.delete(19);
        let dir = std::env::temp_dir().join(format!("gph-segtest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.gphs");
        eng.save(&path).unwrap();

        let restored = SegmentedGph::load_with_storage(
            &path,
            StorageMode::FileBacked { budget_bytes: 1 << 20 },
        )
        .unwrap();
        // Open-time reads go around the page cache: nothing is resident
        // until the first query.
        let stats = restored.page_cache_stats().unwrap();
        assert_eq!(stats.resident_bytes, 0, "restore must not page blob bytes: {stats:?}");
        assert_same_answers(&eng, &restored, &rows);
        // An unmodified file-backed restore re-serializes byte-for-byte:
        // cold blobs are copied out verbatim.
        assert_eq!(restored.to_bytes().unwrap(), eng.to_bytes().unwrap());
        // Further mutations seal into the spill store and keep working.
        let mut restored = restored;
        let extra = random_rows(48, 12, 23);
        let mut model = eng;
        for (i, row) in extra.iter().enumerate() {
            restored.upsert(200 + i as u32, row).unwrap();
            model.upsert(200 + i as u32, row).unwrap();
        }
        assert_same_answers(&model, &restored, &extra);

        drop(restored);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn saving_a_truncated_mapped_snapshot_is_an_error_not_a_panic() {
        let rows = random_rows(48, 30, 24);
        let mut eng = SegmentedGph::new(48, cfg(), seg_cfg()).unwrap();
        for (i, row) in rows.iter().enumerate() {
            eng.insert(i as u32, row).unwrap();
        }
        let dir = std::env::temp_dir().join(format!("gph-segtest-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.gphs");
        eng.save(&path).unwrap();
        let mapped = SegmentedGph::load_with_storage(
            &path,
            StorageMode::FileBacked { budget_bytes: 1 << 20 },
        )
        .unwrap();
        assert!(mapped.num_sealed() > 0, "the blobs must be mapped from the file");
        // Cut the file inside the blob arena, which starts past the
        // first page: the blobs can no longer be read back.
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(PAGE_SIZE as u64)
            .unwrap();
        let copy = dir.join("copy.gphs");
        assert!(mapped.save(&copy).is_err());
        assert!(!copy.exists());
        drop(mapped);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_engine_serves_and_roundtrips() {
        let eng = SegmentedGph::new(32, cfg(), seg_cfg()).unwrap();
        assert!(eng.search(&[0u64], 4).is_empty());
        assert!(eng.search_topk(&[0u64], 3).is_empty());
        assert_eq!(eng.estimate_cost(&[0u64], 4), 0.0);
        let restored = SegmentedGph::from_bytes(&eng.to_bytes().unwrap()).unwrap();
        assert!(restored.is_empty());
    }
}
