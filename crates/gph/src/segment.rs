//! Live updates for GPH: an LSM-style segmented engine.
//!
//! [`crate::Gph`] is build-once: its postings reference dense row ids and
//! its partitioning is the product of an expensive offline optimization,
//! so per-insert rebuilds are untenable. [`SegmentedGph`] makes the
//! engine mutable the way log-structured stores do:
//!
//! * **one segment type**: rows, the external id of each row, and a
//!   [`Tombstones`] bitmap; deletes flip a bit, queries filter. Only how
//!   the rows are searched differs: scanned from a [`Dataset`], or
//!   probed through an immutable [`Gph`], resident or paged;
//! * a mutable front **memtable** — a scanned segment that rows are
//!   appended to — and a list of **sealed segments**, each either a
//!   **row slab** (the memtable's kind, frozen) or a GPH segment;
//! * a size-triggered **seal** (the flush): when the memtable reaches
//!   [`SegmentConfig::seal_rows`] live rows its live rows are frozen
//!   into a slab. A seal builds nothing: no partitioning, no index, no
//!   estimator. Eq. 1 prices probes and candidates, not an index's
//!   fixed cost, and below [`crossover_rows`] rows a scan answers more
//!   cheaply than that fixed cost buys;
//! * a **compaction policy**: all-dead segments are dropped outright, and
//!   whenever more than [`SegmentConfig::max_sealed`] segments exist the
//!   two smallest are merged into one, bounding per-query segment
//!   fan-out the way LSM level merges bound sstable counts. A merge is
//!   where indexing happens: when its live rows reach the crossover it
//!   builds a GPH segment under the configured strategy, and below it
//!   the merge output is another slab. Bulk loads
//!   ([`SegmentedGph::build_sealed`]) always build GPH;
//! * **one query walk**: every segment kind answers a range search the
//!   same way, with `(local row, distance)` hits whose distances its
//!   verification measured. The walk visits every sealed segment and
//!   then the memtable with one body: the kind's hits, the one tombstone
//!   filter (so every kind counts only live results), ids for local
//!   rows, the stats summed, a trace. Top-k is the
//!   shared escalation loop ([`crate::topk_by_escalation`]) over that
//!   walk, so it never sees a dead row and needs no per-segment
//!   over-fetch.
//!
//! Rows are addressed by caller-chosen `u32` ids, stable across seals and
//! compactions. Every query is **provably identical** to a fresh [`Gph`]
//! built over the surviving rows (the pigeonhole filter is exact for any
//! partitioning, a scan is trivially exact, and tombstone filtering
//! removes exactly the dead rows); `tests/segment_properties.rs` pins
//! this over arbitrary insert/delete/seal/compact interleavings,
//! including through a snapshot/restore round-trip, and
//! `tests/crossover_properties.rs` on both sides of the crossover,
//! resident and file-backed.
//!
//! Where GPH segments live is decided when an engine is made: an engine
//! spills its GPH segments if and only if it holds a [`SpillStore`] —
//! the node's one spill directory and page cache ([`crate::coldstore`])
//! — and then pages them on demand; otherwise it decodes them on the
//! heap. Slabs, like the memtable, are always resident. A snapshot
//! (`GPHS`) restores one of two ways, both through the one container
//! reader ([`hamming_core::io::Container`]): [`SegmentedGph::from_bytes`]
//! decodes everything resident, and [`SegmentedGph::open_file_backed`]
//! is the one file-backed restore, serving each GPH segment from its
//! blob inside the snapshot file through the store it is given.

use crate::coldstore::{ColdSegment, PageCacheStats, SegmentFile, SpillStore};
use crate::engine::{Gph, GphConfig, QueryStats};
use crate::pipeline::{topk_by_escalation, Hits, Plan, Store};
use crate::snapshot::{decode_gph_config, encode_gph_config};
use bytes::BufMut;
use gph_obs::{PhaseNanos, SegmentTrace};
use hamming_core::distance::verify_candidates;
use hamming_core::enumerate::ball_size;
use hamming_core::error::{HammingError, Result};
use hamming_core::io::{
    decode_dataset, encode_dataset, ByteReader, Container, OffsetWriter, Source, PAGE_SIZE,
};
use hamming_core::tombstone::Tombstones;
use hamming_core::{words_for, Dataset};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Magic of a segmented-engine snapshot.
pub const SEGMENT_MAGIC: [u8; 4] = *b"GPHS";

/// Current (and only loadable) segmented-snapshot format version: v4
/// tags each segment-table entry as an engine blob or a row slab. The
/// tagged-section version 1 and the blob-only version 3 are retired and
/// rejected, and a version 2 never existed — see `FORMAT.md`.
pub const SEGMENT_VERSION: u32 = 4;

// GPHS v4 slot indices (see `FORMAT.md`).
const SEG_SLOT_CONFIG: usize = 0;
const SEG_SLOT_SEGHDR: usize = 1;
const SEG_SLOT_MEMDATA: usize = 2;
const SEG_SLOT_MEMIDS: usize = 3;
const SEG_SLOT_MEMDEAD: usize = 4;
const SEG_SLOT_BLOBS: usize = 5;
const SEG_SLOT_SEGTAB: usize = 6;
const N_SEG_SLOTS: usize = 7;

/// GPHS v4: the head word of a row slab's segment-table entry. A GPH
/// segment's entry starts with its blob's arena offset instead, which
/// is page-aligned and so never this value. A GPH entry keeps v3's
/// layout, so a snapshot without slabs is as long as in v3.
const SLAB_MARK: u64 = u64::MAX;

/// The cost of one enumerated-and-probed signature, in rows of the
/// batched scan kernel — the one constant behind [`crossover_rows`].
///
/// Calibrated once, not measured at run time. On an x86-64 box with
/// AVX2, a traced `engine-range` run (400k rows × 128 bits, `m = 5`)
/// read `hamming-core.enumerate_ns_per_sig` 7.5 ns plus
/// `probe_ns_per_key` 40.8 ns per signature, against 3.1 ns per
/// candidate for the batched verify kernel (`verify_mcand_per_s` 318):
/// 15 rows per signature. The crossover concerns segments of a few
/// thousand rows, whose CSR arrays sit in cache: on a 50k-row segment
/// a signature cost ~28 ns at τ = 16, and the kernel scans a 128-bit
/// row in 2.4–3.1 ns, so 9–12 rows. Rounded toward indexing: 9.
///
/// Those figures predate the colex enumeration and the 4-byte keys,
/// which made a signature cheaper (the same run now reads 2.9 + 32.5
/// ns). The constant is held at 9 on purpose: `crossover_rows(128, 5,
/// 16)` stays 1197, so `serve-mixed`'s 880-row merges stay slabs.
/// Re-calibrating it belongs with the verify constant (ROADMAP item
/// 20(a)).
const SIG_COST_ROWS: u64 = 9;

/// Live rows from which a merge builds a GPH segment; below it the
/// merged rows stay a scanned slab.
///
/// A GPH read pays at least for its signatures, a scan for its rows.
/// The signatures are priced at Lemma 1's split for `τ_max / 2`: `m`
/// equi-width parts (widths `⌊dim/m⌋` or one more), each enumerated to
/// radius `⌊τ/m⌋`, every signature at `SIG_COST_ROWS` (9) rows. So the
/// crossover is `SIG_COST_ROWS × Σ ball_size(widthᵢ, ⌊τ/m⌋)` — at 128
/// bits, `m = 5`, `τ_max = 16` that is `9 × (3 × 27 + 2 × 26) = 1197`.
/// It never changes an answer (a slab and a GPH segment answer
/// identically), adds no configuration and is not persisted: restored
/// segments keep their kind. `m` is clamped to `1..=dim`, so an invalid
/// config still has a crossover (its builds fail as they always did).
pub fn crossover_rows(dim: usize, m: usize, tau_max: usize) -> usize {
    let dim = dim.max(1);
    let m = m.clamp(1, dim);
    let radius = (tau_max / 2) / m;
    let signatures: u64 = (0..m)
        .map(|i| ball_size(dim / m + usize::from(i < dim % m), radius))
        .fold(0u64, u64::saturating_add);
    SIG_COST_ROWS.saturating_mul(signatures).try_into().unwrap_or(usize::MAX)
}

/// Knobs of the segment lifecycle, both persisted in `GPHS` snapshots
/// and `GPHM` manifests. Where GPH segments live is the engine's store.
#[derive(Clone, Copy, Debug)]
pub struct SegmentConfig {
    /// Live memtable rows that trigger a seal (a freeze into a row
    /// slab). Smaller values keep the memtable's scans short but leave
    /// more, smaller segments for compaction to merge.
    pub seal_rows: usize,
    /// Sealed segments tolerated before compaction merges the two
    /// smallest; bounds per-query fan-out.
    pub max_sealed: usize,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig { seal_rows: 4096, max_sealed: 6 }
    }
}

/// Where a live id currently resides.
#[derive(Clone, Copy, Debug)]
struct Loc {
    /// Sealed-segment index, or [`MEMTABLE`] for the memtable.
    seg: usize,
    /// Row index within that segment.
    row: usize,
}

/// The memtable's segment index: the trace's memtable id, which no
/// sealed index reaches.
const MEMTABLE: usize = gph_obs::trace::MEMTABLE_SEGMENT as usize;

/// Rows per call of the batched kernel in [`scan`].
const SCAN_CHUNK: usize = 256;

/// Row offsets `0..SCAN_CHUNK`: the candidate list that turns the
/// batched verify kernel into a scan of one chunk of rows.
const CHUNK_ROWS: [u32; SCAN_CHUNK] = {
    let mut rows = [0u32; SCAN_CHUNK];
    let mut i = 0;
    while i < SCAN_CHUNK {
        rows[i] = i as u32;
        i += 1;
    }
    rows
};

/// How a segment's rows are searched: scanned (the memtable and every
/// row slab a seal freezes or a merge below the crossover writes), or
/// probed through a GPH index decoded on the heap or paged on demand
/// from its GPHE v4 blob. Boxed: an engine is several times a slab's
/// size. Every kind answers every query identically.
enum Rows {
    Scanned(Dataset),
    Resident(Box<Gph>),
    Paged(Box<ColdSegment>),
}

impl Rows {
    fn len(&self) -> usize {
        match self {
            Rows::Scanned(data) => data.len(),
            Rows::Resident(g) => g.data().len(),
            Rows::Paged(c) => c.store.len(),
        }
    }

    /// Heap bytes: a scanned segment's rows, a resident engine, or a
    /// paged segment's resident metadata.
    fn size_bytes(&self) -> usize {
        match self {
            Rows::Scanned(data) => data.size_bytes(),
            Rows::Resident(g) => g.size_bytes(),
            Rows::Paged(c) => c.size_bytes(),
        }
    }

    /// The index's storage-independent half (dimensions, `tau_max`,
    /// cost estimation); `None` for scanned rows.
    fn plan(&self) -> Option<&Plan> {
        match self {
            Rows::Scanned(_) => None,
            Rows::Resident(g) => Some(&g.plan),
            Rows::Paged(c) => Some(&c.plan),
        }
    }

    /// Dimensionality of the rows.
    fn dim(&self) -> usize {
        match self {
            Rows::Scanned(data) => data.dim(),
            Rows::Resident(g) => g.plan.partitioning.dim(),
            Rows::Paged(c) => c.plan.partitioning.dim(),
        }
    }

    /// Local row `row` (paged rows are copied out of the page cache).
    fn row(&self, row: usize) -> Cow<'_, [u64]> {
        match self {
            Rows::Scanned(data) => Cow::Borrowed(data.row(row)),
            Rows::Resident(g) => Cow::Borrowed(g.data().row(row)),
            Rows::Paged(c) => Cow::Owned(c.store.row(row)),
        }
    }
}

/// The one scan, as a scanned segment's range search: `(row, distance)`
/// of every row within `tau` of `query`, dead or live, ascending by row,
/// each chunk of rows through the batched verify kernel. Scanned rows
/// are found without index probes, so every stored row — the kernel
/// measures dead and live alike — counts toward both `n_scanned` and
/// `n_candidates`; the scan's time is its `verify_ns`.
fn scan(data: &Dataset, query: &[u64], tau: u32) -> Hits {
    let t = Instant::now();
    let wpv = data.words_per_vec();
    let (mut hits, mut near) = (Vec::new(), Vec::new());
    for start in (0..data.len()).step_by(SCAN_CHUNK) {
        let rows = (data.len() - start).min(SCAN_CHUNK);
        near.clear();
        let words = &data.words()[start * wpv..];
        verify_candidates(words, wpv, query, tau, &CHUNK_ROWS[..rows], &mut near);
        hits.extend(near.iter().map(|&(r, d)| (start as u32 + r, d)));
    }
    let stats = QueryStats {
        verify_ns: t.elapsed().as_nanos() as u64,
        n_scanned: data.len() as u64,
        n_candidates: data.len() as u64,
        ..QueryStats::default()
    };
    (hits, stats)
}

/// One segment, whatever its kind — the memtable, a row slab or a GPH
/// segment: its rows, the external id of each local row, and the
/// tombstones accumulated since it was written.
struct Segment {
    rows: Rows,
    ids: Vec<u32>,
    dead: Tombstones,
}

impl Segment {
    /// An empty memtable.
    fn memtable(dim: usize) -> Self {
        Segment { rows: Rows::Scanned(Dataset::new(dim)), ids: Vec::new(), dead: Tombstones::new() }
    }

    /// A segment of `rows` under `ids`, every row live.
    fn live(rows: Rows, ids: Vec<u32>) -> Self {
        let dead = Tombstones::all_live(ids.len());
        Segment { rows, ids, dead }
    }

    /// Rows, ids and tombstones decoded apart, cross-checked against
    /// each other and the engine's `dim` and `tau_max`; `what` names the
    /// segment in errors.
    fn decoded(
        rows: Rows,
        ids: Vec<u32>,
        dead: Tombstones,
        dim: usize,
        tau_max: usize,
        what: &str,
    ) -> Result<Self> {
        let corrupt = |msg: String| Err(HammingError::Corrupt(format!("{what} {msg}")));
        if rows.len() != ids.len() || dead.len() != ids.len() {
            return corrupt(format!(
                "sections disagree: {} rows, {} ids, {} tombstone slots",
                rows.len(),
                ids.len(),
                dead.len()
            ));
        }
        if rows.dim() != dim {
            return corrupt(format!("holds {}-dimensional rows, header says {dim}", rows.dim()));
        }
        if let Some(plan) = rows.plan().filter(|plan| plan.tau_max != tau_max) {
            return corrupt(format!("serves tau_max {}, config says {tau_max}", plan.tau_max));
        }
        Ok(Segment { rows, ids, dead })
    }

    /// Appends `row` under `id`, live: the memtable's insert, the one
    /// segment that grows.
    fn push(&mut self, id: u32, row: &[u64]) -> Result<usize> {
        let Rows::Scanned(data) = &mut self.rows else {
            unreachable!("only the memtable takes inserts, and it is scanned")
        };
        let slot = data.push_row(row)? as usize;
        self.ids.push(id);
        self.dead.push_live();
        Ok(slot)
    }

    /// Appends every live row, and its id, to `data` / `ids`.
    fn append_live_to(&self, data: &mut Dataset, ids: &mut Vec<u32>) -> Result<()> {
        for row in self.dead.iter_live() {
            data.push_row(&self.rows.row(row))?;
            ids.push(self.ids[row]);
        }
        Ok(())
    }

    /// The kind's range search: `(local row, distance)` of every row
    /// within `tau` of `query`, dead or live — neither a scan nor an
    /// index knows of tombstones — with the search's [`QueryStats`].
    fn search(&self, query: &[u64], tau: u32) -> Hits {
        match &self.rows {
            Rows::Scanned(data) => scan(data, query, tau),
            Rows::Resident(g) => g.plan.search(&g.store, query, tau),
            Rows::Paged(c) => c.plan.search(&c.store, query, tau),
        }
    }

    /// The segment's trace entry for a search that gave `st`. A GPH
    /// segment's candidate-generation time (probe + dedup, or the scan
    /// fallback when the signature ball outgrows the segment) lands in
    /// `probe_ns`; a scan's time lands in `scan_ns`. In every kind,
    /// `rows` counts the rows stored, dead or live.
    fn trace(&self, segment: u32, st: &QueryStats) -> SegmentTrace {
        let (verify_ns, scan_ns) = match self.rows {
            Rows::Scanned(_) => (0, st.verify_ns),
            _ => (st.verify_ns, 0),
        };
        SegmentTrace {
            segment,
            rows: self.rows.len() as u64,
            phases: PhaseNanos {
                alloc_ns: st.alloc_ns,
                enumerate_ns: st.enumerate_ns,
                probe_ns: st.candgen_ns,
                verify_ns,
                scan_ns,
            },
            n_signatures: st.n_signatures,
            sum_postings: st.sum_postings,
            n_scanned: st.n_scanned,
            n_candidates: st.n_candidates,
            n_results: st.n_results,
        }
    }
}

/// `n u64` then the `n` ids, little-endian: the memtable's id encoding.
fn encode_ids(ids: &[u32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + ids.len() * 4);
    buf.put_u64_le(ids.len() as u64);
    for &id in ids {
        buf.put_u32_le(id);
    }
    buf
}

/// Decodes [`encode_ids`] bytes, which must hold nothing else.
fn decode_ids(bytes: &[u8]) -> Result<Vec<u32>> {
    let mut r = ByteReader::new(bytes);
    let n = r.len(4, "id count")?;
    let ids = r.u32s(n, "ids")?;
    r.finish("ids")?;
    Ok(ids)
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
/// sealed segments (scanned row slabs and immutable [`Gph`] segments),
/// merged at query time.
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
/// let seg_cfg = SegmentConfig { seal_rows: 2, max_sealed: 2 };
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
    mem: Segment,
    sealed: Vec<Segment>,
    /// External id → current location, live rows only.
    loc: HashMap<u32, Loc>,
    /// The node's spill directory and page cache when file-backed: GPH
    /// segments this engine builds spill there and page through its
    /// cache. `None` for a resident engine.
    spill: Option<Arc<SpillStore>>,
}

impl SegmentedGph {
    /// Creates an empty resident engine for `dim`-dimensional rows.
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
            mem: Segment::memtable(dim),
            sealed: Vec::new(),
            loc: HashMap::new(),
            spill: None,
        })
    }

    /// Creates an empty file-backed engine: the GPH segments its merges
    /// build spill into `spill` and page through its cache, which every
    /// engine holding the same store shares.
    pub fn new_file_backed(
        dim: usize,
        cfg: GphConfig,
        seg_cfg: SegmentConfig,
        spill: Arc<SpillStore>,
    ) -> Result<Self> {
        Ok(SegmentedGph { spill: Some(spill), ..SegmentedGph::new(dim, cfg, seg_cfg)? })
    }

    /// Builds a resident engine whose initial contents are `data` under
    /// external ids `ids`, sealed immediately into one GPH segment,
    /// whatever its size — the bulk-load path the serving layer uses
    /// when constructing a fleet from a frozen dataset.
    pub fn build_sealed(
        data: Dataset,
        ids: Vec<u32>,
        cfg: GphConfig,
        seg_cfg: SegmentConfig,
    ) -> Result<Self> {
        SegmentedGph::new(data.dim(), cfg, seg_cfg)?.bulk_load(data, ids)
    }

    /// Seals `data` under `ids` into one GPH segment of this empty
    /// engine, placed as [`SegmentedGph::build_segment`] places it.
    fn bulk_load(mut self, data: Dataset, ids: Vec<u32>) -> Result<Self> {
        if data.len() != ids.len() {
            return Err(HammingError::InvalidParameter(format!(
                "{} rows but {} ids",
                data.len(),
                ids.len()
            )));
        }
        if !data.is_empty() {
            let mut seen = std::collections::HashSet::with_capacity(ids.len());
            if let Some(id) = ids.iter().find(|&&id| !seen.insert(id)) {
                return Err(HammingError::InvalidParameter(format!("duplicate live id {id}")));
            }
            let seg = self.build_segment(data, ids)?;
            self.commit_segment(seg);
        }
        Ok(self)
    }

    /// Builds a GPH segment over `data` under the configured strategy:
    /// kept resident, or — when the engine holds a spill store — encoded
    /// to a GPHE v4 blob there and reopened cold. It touches no engine
    /// state — the build-then-commit half of every bulk load and indexed
    /// merge, so a failed `Gph::build` (e.g. an invalid config) leaves
    /// the engine fully consistent.
    fn build_segment(&self, data: Dataset, ids: Vec<u32>) -> Result<Segment> {
        let engine = Gph::build(data, &self.cfg)?;
        let Some(spill) = &self.spill else {
            return Ok(Segment::live(Rows::Resident(Box::new(engine)), ids));
        };
        let file = Arc::new(spill.write_blob(&engine.to_bytes())?);
        let len = file.len();
        let cold = ColdSegment::open(file, Arc::clone(spill.cache()), 0, len)?;
        Ok(Segment::live(Rows::Paged(Box::new(cold)), ids))
    }

    /// The segment a merge of `data` makes: a GPH segment when its rows
    /// reach [`crossover_rows`], a slab below it.
    fn merged_segment(&self, data: Dataset, ids: Vec<u32>) -> Result<Segment> {
        if data.len() >= crossover_rows(self.dim, self.cfg.m, self.cfg.tau_max) {
            self.build_segment(data, ids)
        } else {
            Ok(Segment::live(Rows::Scanned(data), ids))
        }
    }

    /// The counters of the spill store's page cache — shared by every
    /// engine holding that store — for a file-backed engine; `None` for
    /// a resident one.
    pub fn page_cache_stats(&self) -> Option<PageCacheStats> {
        self.spill.as_ref().map(|s| s.cache().stats())
    }

    /// Registers a sealed segment's ids in the location map (overwriting
    /// any stale entries, e.g. memtable rows that just sealed) and
    /// appends it.
    fn commit_segment(&mut self, seg: Segment) {
        let seg_idx = self.sealed.len();
        for (row, &id) in seg.ids.iter().enumerate() {
            self.loc.insert(id, Loc { seg: seg_idx, row });
        }
        self.sealed.push(seg);
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

    /// The build configuration of every GPH segment: bulk loads and
    /// merges past [`crossover_rows`] use all of it.
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
        self.segments().map(|(_, s)| s.ids.len()).sum()
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
        let seg = if loc.seg == MEMTABLE { &self.mem } else { &self.sealed[loc.seg] };
        Some(seg.rows.row(loc.row).into_owned())
    }

    /// Per-segment diagnostics, sealed segments (slabs and GPH segments
    /// alike) first, memtable last.
    pub fn segment_info(&self) -> Vec<SegmentInfo> {
        let info = |(seg, s): (usize, &Segment)| SegmentInfo {
            rows: s.ids.len(),
            live: s.dead.live(),
            memtable: seg == MEMTABLE,
        };
        self.segments().map(info).collect()
    }

    /// Sealed segments currently held, slabs included.
    pub fn num_sealed(&self) -> usize {
        self.sealed.len()
    }

    /// Heap size of all GPH segment engines plus the memtable's and
    /// slabs' row payloads. For file-backed segments this counts only
    /// their resident metadata; paged bytes are accounted by the shared
    /// cache ([`SegmentedGph::page_cache_stats`]).
    pub fn size_bytes(&self) -> usize {
        self.segments().map(|(_, s)| s.rows.size_bytes()).sum()
    }

    /// Every segment with its index: the sealed ones in order, then the
    /// memtable under [`MEMTABLE`].
    fn segments(&self) -> impl Iterator<Item = (usize, &Segment)> {
        self.sealed.iter().enumerate().chain(std::iter::once((MEMTABLE, &self.mem)))
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
    /// a merge fails the error propagates, but the inserted row stays
    /// live and the engine remains consistent.
    pub fn insert(&mut self, id: u32, row: &[u64]) -> Result<()> {
        if self.loc.contains_key(&id) {
            return Err(HammingError::InvalidParameter(format!(
                "id {id} is already live; use upsert to replace it"
            )));
        }
        let slot = self.mem.push(id, row)?;
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
        let seg = if loc.seg == MEMTABLE { &mut self.mem } else { &mut self.sealed[loc.seg] };
        let was_live = seg.dead.kill(loc.row);
        debug_assert!(was_live, "loc map pointed at a dead row");
        if !seg.dead.all_dead() {
            return true;
        }
        if loc.seg == MEMTABLE {
            self.mem = Segment::memtable(self.dim);
        } else {
            self.sealed.remove(loc.seg);
            // Removing a segment shifts the indices of its successors.
            for l in self.loc.values_mut() {
                if l.seg != MEMTABLE && l.seg > loc.seg {
                    l.seg -= 1;
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

    /// Freezes the memtable's live rows into a row slab — a copy of the
    /// rows and a location update per row, no index build — and runs
    /// the compaction policy. The slab is committed before any merge,
    /// so only a merge's `Gph::build` can fail, and that leaves every
    /// row reachable.
    pub fn seal(&mut self) -> Result<()> {
        let live = self.mem.dead.live();
        if live > 0 {
            let mut data = Dataset::with_capacity(self.dim, live);
            let mut ids = Vec::with_capacity(live);
            self.mem.append_live_to(&mut data, &mut ids)?;
            self.commit_segment(Segment::live(Rows::Scanned(data), ids));
        }
        self.mem = Segment::memtable(self.dim);
        self.maybe_compact()
    }

    /// Rewrites everything — memtable and every sealed segment — into a
    /// single sealed segment over the live rows: a GPH segment under
    /// the configured strategy from [`crossover_rows`] rows on, a slab
    /// below. The heavyweight path a deployment runs off-peak;
    /// [`SegmentedGph::seal`]'s incremental policy keeps day-to-day
    /// fan-out bounded without it.
    pub fn compact(&mut self) -> Result<()> {
        let mut data = Dataset::with_capacity(self.dim, self.len());
        let mut ids = Vec::with_capacity(self.len());
        for (_, seg) in self.segments() {
            seg.append_live_to(&mut data, &mut ids)?;
        }
        // Build the merged segment before dropping anything, so a failed
        // build cannot lose rows.
        let merged = if data.is_empty() { None } else { Some(self.merged_segment(data, ids)?) };
        self.sealed.clear();
        self.mem = Segment::memtable(self.dim);
        self.loc.clear();
        if let Some(seg) = merged {
            self.commit_segment(seg);
        }
        Ok(())
    }

    /// The compaction policy: drop all-dead segments, then while more
    /// than `max_sealed` segments exist merge the two with the fewest
    /// live rows into one (see [`SegmentedGph::compact`] for what a
    /// merge makes). Merged segments are built before their sources are
    /// removed, so an error leaves every row reachable.
    fn maybe_compact(&mut self) -> Result<()> {
        let before = self.sealed.len();
        self.sealed.retain(|s| !s.dead.all_dead());
        let mut changed = self.sealed.len() != before;
        let result = loop {
            if self.sealed.len() <= self.seg_cfg.max_sealed {
                break Ok(());
            }
            let (a, b) = smallest_two(&self.sealed);
            let (hi, lo) = (a.max(b), a.min(b));
            let merged = match self.merge_pair(lo, hi) {
                Ok(seg) => seg,
                Err(e) => break Err(e),
            };
            // Remove the higher index first so the lower stays valid.
            self.sealed.remove(hi);
            self.sealed.remove(lo);
            self.sealed.push(merged);
            changed = true;
        };
        // Segment indices shifted — also before a merge that failed after
        // an earlier one — so recompute every location once.
        if changed {
            self.rebuild_loc();
        }
        result
    }

    /// The merge of sealed segments `lo` and `hi`, built beside them.
    fn merge_pair(&mut self, lo: usize, hi: usize) -> Result<Segment> {
        let live = self.sealed[lo].dead.live() + self.sealed[hi].dead.live();
        let mut data = Dataset::with_capacity(self.dim, live);
        let mut ids = Vec::with_capacity(live);
        for idx in [lo, hi] {
            self.sealed[idx].append_live_to(&mut data, &mut ids)?;
        }
        self.merged_segment(data, ids)
    }

    /// Recomputes the id → location map from the segments (used after
    /// compaction reshuffles segment indices).
    fn rebuild_loc(&mut self) {
        let mut loc = std::mem::take(&mut self.loc);
        loc.clear();
        for (seg, s) in self.segments() {
            loc.extend(s.dead.iter_live().map(|row| (s.ids[row], Loc { seg, row })));
        }
        self.loc = loc;
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
        let (hits, stats) = self.walk(query, tau, sink);
        let mut ids: Vec<u32> = hits.into_iter().map(|(id, _)| id).collect();
        ids.sort_unstable();
        (ids, stats)
    }

    /// Live rows within `tau` of `query` as `(id, distance)` pairs,
    /// ascending by id — the range search top-k escalates over.
    pub fn search_with_distances(&self, query: &[u64], tau: u32) -> Vec<(u32, u32)> {
        let mut hits = self.walk(query, tau, None).0;
        hits.sort_unstable();
        hits
    }

    /// The one walk over the sealed segments and the memtable: every
    /// live row within `tau` of `query` as `(id, distance)`, unordered,
    /// with instrumentation summed across segments and, when `sink` is
    /// `Some`, traced per segment. Every segment goes through the same
    /// body, whatever its kind: its hits, the one tombstone filter (so
    /// its `n_results` counts live hits), then its live hits mapped to
    /// ids.
    fn walk(&self, query: &[u64], tau: u32, mut sink: Option<&mut Vec<SegmentTrace>>) -> Hits {
        self.assert_query(query, tau);
        let mut hits = Vec::new();
        let mut agg = QueryStats::default();
        for (segment, seg) in self.segments() {
            let (mut live, mut st) = seg.search(query, tau);
            live.retain(|&(row, _)| !seg.dead.is_dead(row as usize));
            st.n_results = live.len() as u64;
            hits.extend(live.into_iter().map(|(row, d)| (seg.ids[row as usize], d)));
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
                traces.push(seg.trace(segment as u32, &st));
            }
        }
        agg.n_results = hits.len() as u64;
        (hits, agg)
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
        topk_by_escalation(k, tau_cap, |tau| self.walk(query, tau, None).0)
    }

    /// Estimated query cost: the GPH segments' allocator estimates plus
    /// the scan cost of the slabs and the memtable (every live row is
    /// verified).
    pub fn estimate_cost(&self, query: &[u64], tau: u32) -> f64 {
        self.assert_query(query, tau);
        let (mut scanned, mut indexed) = (0, 0.0);
        for (_, seg) in self.segments() {
            match seg.rows.plan() {
                Some(plan) => indexed += plan.estimate_cost(query, tau),
                None => scanned += seg.dead.live(),
            }
        }
        indexed + scanned as f64 * self.cfg.cost_model.c_verify
    }

    /// Estimated cost of the *next* insert: the memtable append plus, if
    /// it would trigger a seal, the freeze — one location update per
    /// sealed row, each priced as an access. The admission controller
    /// prices mutations with this.
    pub fn next_insert_cost(&self) -> f64 {
        let base = self.cfg.cost_model.c_verify;
        if self.mem.dead.live() + 1 >= self.seg_cfg.seal_rows {
            base + self.seg_cfg.seal_rows as f64 * self.cfg.cost_model.c_access
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

    /// Serializes the engine as a GPHS v4 offset-addressed container:
    /// the build config, the memtable (rows, ids, tombstones), every GPH
    /// segment's GPHE blob in a page-aligned blob arena, and a segment
    /// table holding, per sealed segment, either its arena extent or
    /// its slab rows, then its ids and tombstones. Pending tombstones
    /// round-trip; nothing is compacted away. See `FORMAT.md` for the
    /// byte-level layout. File-backed segments read their blob back
    /// from disk here; a blob that cannot be read back (the file
    /// truncated, an I/O error) is the error.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        // The arena is assembled first so the segment table can carry
        // arena-relative offsets. Each blob starts on a PAGE_SIZE
        // boundary; the arena section itself is page-aligned, so blob
        // starts are file-page-aligned too and a file-backed restore
        // can map them in place.
        let mut arena = Vec::new();
        let mut segtab = Vec::new();
        for seg in &self.sealed {
            // Cold segments read their backing blob back verbatim.
            let blob = match &seg.rows {
                Rows::Scanned(data) => {
                    let rows = encode_dataset(data);
                    segtab.put_u64_le(SLAB_MARK);
                    segtab.put_u64_le(rows.len() as u64);
                    segtab.put_slice(&rows);
                    None
                }
                Rows::Resident(g) => Some(g.to_bytes()),
                Rows::Paged(c) => Some(c.engine_blob()?),
            };
            if let Some(blob) = blob {
                let pos = arena.len().next_multiple_of(PAGE_SIZE);
                arena.resize(pos, 0);
                arena.extend_from_slice(&blob);
                segtab.put_u64_le(pos as u64);
                segtab.put_u64_le(blob.len() as u64);
            }
            segtab.put_slice(&encode_ids(&seg.ids));
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
        let Rows::Scanned(mem_rows) = &self.mem.rows else {
            unreachable!("the memtable is scanned")
        };
        w.section(&encode_dataset(mem_rows));
        w.section(&encode_ids(&self.mem.ids));
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
        Self::restore(&c, |rel, len| {
            // `restore` bounds-checked the extent against the arena.
            Ok(Rows::Resident(Box::new(Gph::from_bytes(&arena[rel as usize..][..len])?)))
        })
    }

    /// Rebuilds an engine from the GPHS container `c` — the one restore
    /// behind [`SegmentedGph::from_bytes`] and
    /// [`SegmentedGph::open_file_backed`]. Slabs are decoded from the
    /// segment table; `open_blob` materialises the GPH segment whose
    /// GPHE blob sits at `(offset, len)` of the blob arena.
    fn restore(
        c: &Container,
        mut open_blob: impl FnMut(u64, usize) -> Result<Rows>,
    ) -> Result<Self> {
        let cfg = decode_gph_config(&c.section(SEG_SLOT_CONFIG)?)?;
        let seghdr = c.section(SEG_SLOT_SEGHDR)?;
        let mut hr = ByteReader::new(&seghdr);
        let dim = hr.u64("dim")? as usize;
        let seal_rows = hr.u64("seal_rows")? as usize;
        let max_sealed = hr.u64("max_sealed")? as usize;
        let n_sealed = hr.u64("sealed segment count")? as usize;
        hr.finish("segment header")?;
        let mut out = SegmentedGph::new(dim, cfg, SegmentConfig { seal_rows, max_sealed })?;
        let tau_max = out.cfg.tau_max;
        out.mem = Segment::decoded(
            Rows::Scanned(decode_dataset(&c.section(SEG_SLOT_MEMDATA)?)?),
            decode_ids(&c.section(SEG_SLOT_MEMIDS)?)?,
            Tombstones::decode(&c.section(SEG_SLOT_MEMDEAD)?)?,
            dim,
            tau_max,
            "memtable",
        )?;

        let arena_len = c.slot(SEG_SLOT_BLOBS).len;
        let segtab = c.section(SEG_SLOT_SEGTAB)?;
        let mut tr = ByteReader::new(&segtab);
        for i in 0..n_sealed {
            // A slab's rows, or a GPH segment's blob extent; then the
            // external ids and tombstones.
            let head = tr.u64("blob offset or slab mark")?;
            let rows = if head == SLAB_MARK {
                let len = tr.len(1, "slab rows length")?;
                Rows::Scanned(decode_dataset(tr.bytes(len, "slab rows")?)?)
            } else {
                let blob_len = tr.u64("blob length")? as usize;
                if head.checked_add(blob_len as u64).filter(|&e| e <= arena_len).is_none() {
                    return Err(HammingError::Corrupt(format!(
                        "segment {i} blob extent exceeds the arena"
                    )));
                }
                open_blob(head, blob_len)?
            };
            let n = tr.len(4, "segment id count")?;
            let ids = tr.u32s(n, "segment ids")?;
            let dead_len = tr.len(1, "segment tombstone length")?;
            let dead = Tombstones::decode(tr.bytes(dead_len, "segment tombstones")?)?;
            let what = format!("segment {i}");
            out.sealed.push(Segment::decoded(rows, ids, dead, dim, tau_max, &what)?);
        }
        tr.finish("segment table")?;
        out.finish_restore()
    }

    /// Final restore validation shared by every decode path: rebuild the
    /// location map and require the distinct live ids to match the
    /// per-segment live sums (duplicates would collide in the map).
    fn finish_restore(mut self) -> Result<Self> {
        self.rebuild_loc();
        let live_sum: usize = self.segments().map(|(_, s)| s.dead.live()).sum();
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

    /// Opens an engine snapshot at `path` file-backed, paging through
    /// `spill`'s cache — the one file-backed restore. GPH segments that
    /// later merges build spill into `spill` too, so every engine given
    /// one store (every shard of a node) shares one page cache and its
    /// budget.
    ///
    /// This is the out-of-core warm-start path: the snapshot is *mapped,
    /// not read* — its header, footer and metadata sections (config,
    /// memtable, segment table with its slabs' rows) are read directly and
    /// checked by the one container reader ([`Container`]), while every
    /// GPH segment's blob stays on disk, opened as a file region of the
    /// snapshot file itself, which reads one key per key page for its
    /// page fences. Restore time therefore grows only with the resident
    /// rows and the number of key pages (1/2048 of the key bytes at
    /// 8 KiB pages where keys are 4 bytes, 1/1024 where they are 8) —
    /// plus one read of a segment's row slab when its estimator kind
    /// stores no tables (`SampleScan`, `Learned`) and is rebuilt — and
    /// no blob byte is resident until a query pages it in. Blob-payload
    /// CRCs are deferred (see `FORMAT.md`
    /// §durability); [`SegmentedGph::load`] is the fully-verified
    /// alternative.
    ///
    /// The engine keeps the snapshot file open for paging. Replacing the
    /// snapshot via [`SegmentedGph::save`] is safe on platforms where
    /// rename unlinks (the open descriptor pins the old bytes), but the
    /// file must not be truncated or rewritten in place.
    pub fn open_file_backed<P: AsRef<std::path::Path>>(
        path: P,
        spill: Arc<SpillStore>,
    ) -> Result<Self> {
        let file = Arc::new(SegmentFile::open(path.as_ref(), false)?);
        let read_at = |offset: u64, buf: &mut [u8]| file.read_at(offset, buf);
        let region = Source::Region { len: file.len(), read_at: &read_at };
        let c = Container::open(region, SEGMENT_MAGIC, SEGMENT_VERSION, N_SEG_SLOTS)?;
        let arena_off = c.slot(SEG_SLOT_BLOBS).offset;
        let mut out = Self::restore(&c, |rel, len| {
            let cache = Arc::clone(spill.cache());
            let cold = ColdSegment::open(Arc::clone(&file), cache, arena_off + rel, len as u64)?;
            Ok(Rows::Paged(Box::new(cold)))
        })?;
        out.spill = Some(spill);
        Ok(out)
    }
}

/// Indices of the two segments with the fewest live rows. Caller ensures
/// `sealed.len() >= 2`.
fn smallest_two(sealed: &[Segment]) -> (usize, usize) {
    let mut order: Vec<usize> = (0..sealed.len()).collect();
    order.sort_by_key(|&i| (sealed[i].dead.live(), i));
    (order[0], order[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition_opt::PartitionStrategy;
    use hamming_core::{BitVector, Partitioning};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn cfg() -> GphConfig {
        let mut cfg = GphConfig::new(3, 8);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 11 };
        cfg
    }

    fn seg_cfg() -> SegmentConfig {
        SegmentConfig { seal_rows: 8, max_sealed: 2 }
    }

    /// An empty engine, file-backed over a fresh store with a 32 KiB
    /// cache when `cold`, else resident.
    fn empty(dim: usize, cfg: GphConfig, seg_cfg: SegmentConfig, cold: bool) -> SegmentedGph {
        match cold {
            false => SegmentedGph::new(dim, cfg, seg_cfg).unwrap(),
            true => {
                let spill = SpillStore::temp(32 * 1024).unwrap();
                SegmentedGph::new_file_backed(dim, cfg, seg_cfg, spill).unwrap()
            }
        }
    }

    /// The snapshot at `path`, opened file-backed over a fresh store
    /// with a 32 KiB cache when `cold`, else decoded resident.
    fn reopen(path: &std::path::Path, cold: bool) -> SegmentedGph {
        match cold {
            false => SegmentedGph::load(path).unwrap(),
            true => {
                SegmentedGph::open_file_backed(path, SpillStore::temp(32 * 1024).unwrap()).unwrap()
            }
        }
    }

    fn random_rows(dim: usize, n: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| BitVector::from_bits((0..dim).map(|_| rng.random_bool(0.4))).words().to_vec())
            .collect()
    }

    /// An engine bulk-loaded with `rows` under ids `0..rows.len()`: one
    /// GPH segment, however few the rows, paged when `cold`.
    fn bulk(dim: usize, rows: &[Vec<u64>], cold: bool) -> SegmentedGph {
        let mut ds = Dataset::new(dim);
        for row in rows {
            ds.push_row(row).unwrap();
        }
        let ids = (0..rows.len() as u32).collect();
        empty(dim, cfg(), seg_cfg(), cold).bulk_load(ds, ids).unwrap()
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
        // m > dim makes every Gph::build fail. A seal freezes a slab
        // without building; the merge it then runs passes the crossover
        // and builds, so the seal errors — and must do so without
        // corrupting the location map or losing rows.
        let mut bad_cfg = GphConfig::new(64, 4);
        bad_cfg.strategy = PartitionStrategy::Original;
        let cross = crossover_rows(16, 64, 4);
        let seg_cfg = SegmentConfig { seal_rows: cross, max_sealed: 1 };
        let mut eng = SegmentedGph::new(16, bad_cfg, seg_cfg).unwrap();
        let rows = random_rows(16, 2 * cross, 11);
        for (i, row) in rows.iter().enumerate().take(2 * cross - 1) {
            eng.insert(i as u32, row).unwrap();
        }
        assert_eq!(eng.num_sealed(), 1, "the first seal froze a slab");
        // The last insert seals a second slab; merging both builds GPH,
        // which fails.
        let (last, last_row) = (2 * cross as u32 - 1, &rows[2 * cross - 1]);
        assert!(eng.insert(last, last_row).is_err());
        // Every row stays live and addressable; no panic, no phantom
        // merged segment.
        assert_eq!(eng.len(), 2 * cross);
        assert_eq!(eng.num_sealed(), 2);
        assert_eq!(eng.get(1).unwrap(), rows[1].as_slice());
        assert_eq!(eng.get(last).unwrap(), last_row.as_slice());
        let twins = (0..2 * cross as u32).filter(|&i| rows[i as usize] == *last_row);
        assert_eq!(eng.search(last_row, 0), twins.collect::<Vec<_>>());
        assert!(eng.compact().is_err(), "compaction fails too, but harmlessly");
        assert_eq!(eng.len(), 2 * cross);
        assert!(eng.delete(last));
        assert_eq!(eng.len(), 2 * cross - 1);
    }

    #[test]
    fn a_merge_failing_after_one_that_succeeded_keeps_every_location() {
        // As above, every build fails; seals happen only when called.
        let mut bad_cfg = GphConfig::new(64, 4);
        bad_cfg.strategy = PartitionStrategy::Original;
        let cross = crossover_rows(16, 64, 4);
        let seg_cfg = SegmentConfig { seal_rows: 10 * cross, max_sealed: 2 };
        let mut eng = SegmentedGph::new(16, bad_cfg, seg_cfg).unwrap();
        // Slabs P and Q hold two thirds of the crossover each, R half of
        // it, T a handful: R + P passes the crossover, T + R does not.
        let (p, r, t) = (2 * cross / 3, cross / 2, 4);
        let rows = random_rows(16, 2 * p + r + t, 12);
        let mut next = 0;
        let mut flush = |eng: &mut SegmentedGph, n: usize| {
            for _ in 0..n {
                eng.insert(next as u32, &rows[next]).unwrap();
                next += 1;
            }
            eng.seal()
        };
        flush(&mut eng, p).unwrap();
        flush(&mut eng, p).unwrap();
        assert!(flush(&mut eng, r).is_err(), "R + P builds");
        // T + R merges into a slab, shifting T's rows to a new segment;
        // then RT + P builds and fails.
        assert!(flush(&mut eng, t).is_err(), "RT + P builds");
        assert_eq!(eng.num_sealed(), 3);
        for (id, row) in rows.iter().enumerate() {
            assert_eq!(eng.get(id as u32).unwrap(), row.as_slice(), "id={id}");
        }
        for id in 0..rows.len() as u32 {
            assert!(eng.delete(id), "id={id}");
        }
        assert!(eng.is_empty());
        assert_eq!(eng.num_sealed(), 0);
    }

    #[test]
    fn crossover_prices_lemma_1_signatures() {
        // 128 bits at m = 5: widths 26, 26, 26, 25, 25, each enumerated to
        // radius ⌊8/5⌋ = 1 at τ_max = 16.
        assert_eq!(crossover_rows(128, 5, 16), 9 * (3 * 27 + 2 * 26));
        // τ_max / 2 below m: radius 0, one signature per part.
        assert_eq!(crossover_rows(16, 64, 4), 9 * 16);
        assert!(crossover_rows(128, 5, 32) > crossover_rows(128, 5, 16));
    }

    /// Each sealed segment's partitioning; `None` for a slab.
    fn partitionings(eng: &SegmentedGph) -> Vec<Option<Partitioning>> {
        eng.sealed.iter().map(|s| s.rows.plan().map(|plan| plan.partitioning.clone())).collect()
    }

    /// What the configured strategy makes of sealed segment `seg`'s rows.
    fn configured(eng: &SegmentedGph, seg: usize) -> Partitioning {
        let mut ds = Dataset::new(eng.dim());
        eng.sealed[seg].append_live_to(&mut ds, &mut Vec::new()).unwrap();
        crate::partition_opt::build_partitioning(&ds, eng.cfg.m, &eng.cfg.strategy, None).unwrap()
    }

    #[test]
    fn seals_freeze_and_merges_index_past_the_crossover() {
        // OS arranges dimensions by their skew in the rows it is given,
        // so it tells one batch of rows from another.
        let mut os_cfg = GphConfig::new(3, 8);
        os_cfg.strategy = PartitionStrategy::Os;
        // Two flushes of `half` rows reach the crossover; one does not.
        let half = crossover_rows(48, 3, 8) / 2 + 1;
        let rows = random_rows(48, 5 * half, 30);
        for cold in [false, true] {
            let seg_cfg = SegmentConfig { seal_rows: half, max_sealed: 2 };
            let mut eng = empty(48, os_cfg.clone(), seg_cfg, cold);
            let lookups = |eng: &SegmentedGph| eng.page_cache_stats().map(|s| s.hits + s.misses);
            let mut next = 0u32;
            let mut flush = |eng: &mut SegmentedGph| {
                for _ in 0..half {
                    eng.insert(next, &rows[next as usize]).unwrap();
                    next += 1;
                }
            };
            // Flushes freeze slabs: no partitioning, and no page lookups
            // whatever the engine holds.
            flush(&mut eng);
            flush(&mut eng);
            assert_eq!(partitionings(&eng), [None, None]);
            for q in rows.iter().step_by(37) {
                eng.search(q, 8);
            }
            assert_eq!(lookups(&eng), cold.then_some(0), "slabs stay resident");

            // The third is one too many: the two oldest merge past the
            // crossover, into GPH under the configured strategy.
            flush(&mut eng);
            let merged = configured(&eng, 1);
            assert_eq!(partitionings(&eng), [None, Some(merged.clone())]);
            eng.search(&rows[0], 8);
            assert_eq!(lookups(&eng).is_some_and(|n| n > 0), cold, "a file-backed build spills");

            // Through a snapshot round-trip, a fourth flush merges the
            // two slabs — past the crossover again.
            let path = std::env::temp_dir()
                .join(format!("gph-segtest-freeze-{}.gphs", std::process::id()));
            eng.save(&path).unwrap();
            let mut eng = reopen(&path, cold);
            flush(&mut eng);
            let sizes: Vec<usize> = eng.sealed.iter().map(|s| s.ids.len()).collect();
            assert_eq!(sizes, [2 * half, 2 * half]);
            let merged_again = configured(&eng, 1);
            assert_ne!(merged_again, merged, "fixture: OS must tell the batches apart");
            assert_eq!(partitionings(&eng), [Some(merged), Some(merged_again)]);
            for q in rows.iter().step_by(37) {
                for tau in [0u32, 4, 8] {
                    assert_eq!(eng.search(q, tau), reference_search(&eng, q, tau), "tau={tau}");
                }
            }

            // A full compaction re-optimises over everything.
            eng.compact().unwrap();
            assert_eq!(partitionings(&eng), [Some(configured(&eng, 0))]);
            // Below the crossover, a merge is a slab.
            for id in half as u32..next {
                eng.delete(id);
            }
            eng.compact().unwrap();
            assert_eq!(partitionings(&eng), [None]);
            assert_eq!(eng.len(), half);
            for q in rows.iter().step_by(37) {
                assert_eq!(eng.search(q, 8), reference_search(&eng, q, 8));
            }
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
        // A bulk-loaded GPH segment (paged when cold), then slabs.
        let mut hot = bulk(48, &rows[..20], false);
        let mut cold = bulk(48, &rows[..20], true);
        for (i, row) in rows.iter().enumerate().skip(20) {
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
            &reopen(&path, true),
            &rows,
        );
        std::fs::remove_file(&path).ok();
    }

    /// Distances cost a paged GPH segment no page reads of their own:
    /// verification reads each candidate row once and hands every hit
    /// its distance, so a range search with distances makes exactly the
    /// page-cache lookups the plain one makes.
    #[test]
    fn distances_cost_a_paged_segment_no_extra_lookups() {
        let rows = random_rows(48, 200, 31);
        let cold = bulk(48, &rows, true);
        let lookups = || {
            let st = cold.page_cache_stats().expect("file-backed engine has a page cache");
            st.hits + st.misses
        };
        for (qi, query) in rows.iter().enumerate().step_by(10) {
            let before = lookups();
            let ids = cold.search(query, 8);
            let plain = lookups() - before;
            let before = lookups();
            let hits = cold.search_with_distances(query, 8);
            let with_distances = lookups() - before;
            assert!(ids.contains(&(qi as u32)), "a row finds itself: qi={qi}");
            assert_eq!(hits.iter().map(|&(id, _)| id).collect::<Vec<_>>(), ids, "qi={qi}");
            for &(id, d) in &hits {
                assert_eq!(d, hamming_core::hamming(&rows[id as usize], query), "qi={qi}");
            }
            assert_eq!(with_distances, plain, "qi={qi}: {} results", ids.len());
        }
    }

    #[test]
    fn retired_gphs_version_is_rejected_as_unsupported() {
        // A v1 file is a tagged-section container, a v3 file an
        // offset-addressed one with an untagged segment table; the
        // reader must name the version, on the in-memory and the
        // file-mapped path alike.
        let mut v1 = [&SEGMENT_MAGIC[..], &1u32.to_le_bytes()].concat();
        v1.extend_from_slice(b"whatever an old writer put here");
        let v3 = OffsetWriter::new(SEGMENT_MAGIC, 3).finish();
        for (version, bytes) in [(1, v1), (3, v3)] {
            let path = std::env::temp_dir()
                .join(format!("gph-segtest-v{version}-{}.gphs", std::process::id()));
            std::fs::write(&path, &bytes).unwrap();
            let spill = SpillStore::temp(1 << 20).unwrap();
            for got in
                [SegmentedGph::from_bytes(&bytes), SegmentedGph::open_file_backed(&path, spill)]
            {
                match got.map(|_| ()) {
                    Err(HammingError::Corrupt(msg)) => {
                        assert!(msg.contains(&format!("unsupported version {version}")), "{msg}")
                    }
                    other => panic!("v{version}: expected Corrupt, got {other:?}"),
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn open_file_backed_maps_blobs_lazily() {
        let rows = random_rows(48, 30, 22);
        // A bulk-loaded GPH segment, whose blob the restore maps, then
        // slabs and a memtable.
        let mut eng = bulk(48, &rows[..15], false);
        for (i, row) in rows.iter().enumerate().skip(15) {
            eng.insert(i as u32, row).unwrap();
        }
        eng.delete(4);
        eng.delete(19);
        let dir = std::env::temp_dir().join(format!("gph-segtest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.gphs");
        eng.save(&path).unwrap();

        let restored =
            SegmentedGph::open_file_backed(&path, SpillStore::temp(1 << 20).unwrap()).unwrap();
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
        let mut eng = bulk(48, &rows[..15], false);
        for (i, row) in rows.iter().enumerate().skip(15) {
            eng.insert(i as u32, row).unwrap();
        }
        let dir = std::env::temp_dir().join(format!("gph-segtest-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.gphs");
        eng.save(&path).unwrap();
        let mapped =
            SegmentedGph::open_file_backed(&path, SpillStore::temp(1 << 20).unwrap()).unwrap();
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

    /// Every segment kind counts its results after the one tombstone
    /// filter. A GPH segment (resident, then paged), a slab and the
    /// memtable each hold a live and a tombstoned copy of the query: the
    /// traced per-segment `n_results` sum to the result count, and every
    /// other trace counter holds its pinned value.
    #[test]
    fn traced_results_count_only_live_hits_in_every_kind() {
        let rows = random_rows(48, 320, 40);
        let q = &rows[0];
        // GPH: ids 0..300, where 0 and 1 are the query. Slab: ids
        // 1000..1008, where 1000 and 1001 are. Memtable: ids 2000..2004,
        // where 2000 and 2001 are.
        let gph_rows = [&rows[..1], &rows[..1], &rows[1..299]].concat();
        let inserts: Vec<(u32, &Vec<u64>)> = [(1000, q), (1001, q)]
            .into_iter()
            .chain((1002..1008).zip(&rows[300..306]))
            .chain([(2000, q), (2001, q)])
            .chain((2002..2004).zip(&rows[306..308]))
            .collect();
        for cold in [false, true] {
            let mut eng = bulk(48, &gph_rows, cold);
            for &(id, row) in &inserts {
                eng.insert(id, row).unwrap();
            }
            assert_eq!(eng.num_sealed(), 2, "a GPH segment and a slab");
            for id in [1, 1001, 2001] {
                assert!(eng.delete(id));
            }
            let mut traces = Vec::new();
            let (ids, st) = eng.search_with_trace(q, 8, Some(&mut traces));
            for id in [0, 1000, 2000] {
                assert!(ids.contains(&id), "cold={cold}: live copy {id} found");
            }
            let per_segment: Vec<u64> = traces.iter().map(|t| t.n_results).collect();
            assert_eq!(per_segment.iter().sum::<u64>(), ids.len() as u64, "{per_segment:?}");
            assert_eq!(st.n_results, ids.len() as u64);
            // (segment, rows, signatures, postings, scanned, candidates).
            let counters: Vec<_> = traces
                .iter()
                .map(|t| {
                    let c = (t.n_signatures, t.sum_postings, t.n_scanned, t.n_candidates);
                    (t.segment, t.rows, c)
                })
                .collect();
            let memtable = gph_obs::trace::MEMTABLE_SEGMENT;
            assert_eq!(
                counters,
                [(0, 300, (411, 8, 0, 4)), (1, 8, (0, 0, 8, 8)), (memtable, 4, (0, 0, 4, 4))],
                "cold={cold}"
            );
            // A GPH segment's time is in its phases, a scan's in scan_ns.
            assert_eq!(traces[0].phases.scan_ns, 0);
            for t in &traces[1..] {
                assert_eq!(PhaseNanos { scan_ns: 0, ..t.phases }, PhaseNanos::default());
            }
        }
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
