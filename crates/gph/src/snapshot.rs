//! Versioned, checksummed engine snapshots.
//!
//! GPH's offline phase is the expensive side of the trade: the GR
//! partitioning heuristic dominates build time (Table IV's 5026 s
//! column), with estimator construction next (the +560 s GPH column). A
//! production deployment therefore builds once and reloads many times —
//! the model of MIH's shipped index files and Faiss's `write_index` /
//! `read_index`. This module is that path for this workspace.
//!
//! A version-3 snapshot is an **offset-addressed** container (magic
//! `GPHE`, version [`SNAPSHOT_VERSION`], written by
//! [`hamming_core::io::OffsetWriter`], normative spec in the repo-root
//! `FORMAT.md`): a fixed footer of `(offset, len, crc)` slots addresses
//! every section, and the three query-hot payload sections — the raw
//! dataset row slab and the CSR postings arrays — are zero-padded to
//! 4 KiB boundaries so a file-backed segment ([`crate::coldstore`]) can
//! serve probes and verification by paged positional reads without ever
//! decoding the file. The slots, in order:
//!
//! | slot | name       | payload |
//! |------|------------|---------|
//! | 0    | `config`   | `tau_max`, allocator, build stats, cost-model statistics |
//! | 1    | `partit`   | the partitioning ([`hamming_core::io::encode_partitioning`]) |
//! | 2    | `estkind`  | the [`crate::cn::EstimatorKind`] and its parameters |
//! | 3    | `eststate` | presence byte, then the built estimator tables if any |
//! | 4    | `rowmeta`  | `dim u64, n_rows u64` |
//! | 5    | `parttab`  | per partition: `width u64, n_keys u64, n_ids u64` |
//! | 6    | `rows`     | page-aligned: the row slab, `n_rows × words_for(dim)` LE u64 |
//! | 7    | `keys`     | page-aligned: concatenated per-partition CSR key arrays |
//! | 8    | `offs`     | page-aligned: concatenated per-partition offset arrays |
//! | 9    | `ids`      | page-aligned: concatenated per-partition postings arrays |
//!
//! Loading resident reconstructs the projector from the partitioning
//! and takes everything else verbatim; no projection of the rows is
//! made or kept, except a temporary one when an estimator kind that
//! stores no tables (`Learned`, `SampleScan`) is rebuilt from its
//! seeds. A loaded engine answers every query byte-identically to the
//! engine that was saved — the round-trip property test in
//! `tests/snapshot_roundtrip.rs` pins this down.
//!
//! **Version policy:** the reader loads version [`SNAPSHOT_VERSION`]
//! only. The tagged-section generations 1 and 2 are retired — nothing
//! was ever deployed on them — and are rejected up front with
//! [`HammingError::Corrupt`]`("unsupported version …")`, as are files
//! newer than this reader.

use crate::alloc::AllocatorKind;
use crate::cn::{
    build_estimator, decode_kind, encode_kind, restore_estimator, CnEstimator, EstimatorKind,
};
use crate::cost::CostModel;
use crate::engine::{BuildStats, Gph, GphConfig, Resident};
use crate::partition_opt::{HeuristicConfig, InitKind, PartitionStrategy, WorkloadSpec};
use crate::pipeline::Plan;
use bytes::BufMut;
use hamming_core::dataset::Dataset;
use hamming_core::error::{HammingError, Result};
use hamming_core::io::{
    decode_dataset, decode_partitioning, encode_dataset, encode_partitioning, ByteReader,
    Container, OffsetWriter, Source,
};
use hamming_core::project::{ProjectedDataset, Projector};
use hamming_core::{words_for, InvertedIndex, Partitioning};
use std::borrow::Cow;

/// Magic of a single-engine snapshot file.
pub const ENGINE_MAGIC: [u8; 4] = *b"GPHE";

/// Current (and only loadable) snapshot format version: the
/// offset-addressed layout (see the module docs and `FORMAT.md`).
pub const SNAPSHOT_VERSION: u32 = 3;

// Fixed slot indices of the v3 container (see the module-docs table).
// The cold open path (`crate::coldstore`) addresses sections by these.
pub(crate) const SLOT_CONFIG: usize = 0;
pub(crate) const SLOT_PARTIT: usize = 1;
pub(crate) const SLOT_ESTKIND: usize = 2;
pub(crate) const SLOT_ESTSTATE: usize = 3;
pub(crate) const SLOT_ROWMETA: usize = 4;
pub(crate) const SLOT_PARTTAB: usize = 5;
pub(crate) const SLOT_ROWS: usize = 6;
pub(crate) const SLOT_KEYS: usize = 7;
pub(crate) const SLOT_OFFS: usize = 8;
pub(crate) const SLOT_IDS: usize = 9;
const N_ENGINE_SLOTS: usize = 10;

fn encode_allocator(kind: AllocatorKind) -> u8 {
    match kind {
        AllocatorKind::Dp => 0,
        AllocatorKind::RoundRobin => 1,
        AllocatorKind::DpFlexible => 2,
        AllocatorKind::DpNonNegative => 3,
    }
}

fn decode_allocator(tag: u8) -> Result<AllocatorKind> {
    Ok(match tag {
        0 => AllocatorKind::Dp,
        1 => AllocatorKind::RoundRobin,
        2 => AllocatorKind::DpFlexible,
        3 => AllocatorKind::DpNonNegative,
        other => return Err(HammingError::Corrupt(format!("unknown allocator kind {other}"))),
    })
}

fn encode_cost_model(cm: &CostModel, buf: &mut Vec<u8>) {
    buf.put_u64_le(cm.c_access.to_bits());
    buf.put_u64_le(cm.c_verify.to_bits());
    buf.put_u64_le(cm.c_enum.to_bits());
    let alpha = cm.alpha_table();
    buf.put_u64_le(alpha.len() as u64);
    for &(tau, a) in alpha {
        buf.put_u32_le(tau);
        buf.put_u64_le(a.to_bits());
    }
}

fn decode_cost_model(r: &mut ByteReader) -> Result<CostModel> {
    let mut cost_model = CostModel::default();
    cost_model.c_access = r.f64("c_access")?;
    cost_model.c_verify = r.f64("c_verify")?;
    cost_model.c_enum = r.f64("c_enum")?;
    let n_alpha = r.len(12, "alpha table size")?;
    if n_alpha == 0 {
        return Err(HammingError::Corrupt("empty alpha table".into()));
    }
    let mut alpha = Vec::with_capacity(n_alpha);
    for _ in 0..n_alpha {
        let tau = r.u32("alpha tau")?;
        let a = r.f64("alpha value")?;
        if !a.is_finite() {
            return Err(HammingError::Corrupt(format!("non-finite alpha {a}")));
        }
        alpha.push((tau, a));
    }
    Ok(cost_model.with_alpha_table(alpha))
}

fn encode_config(g: &Gph) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.put_u64_le(g.plan.tau_max as u64);
    buf.put_u8(encode_allocator(g.plan.allocator));
    buf.put_u64_le(g.build_stats.partition_ms);
    buf.put_u64_le(g.build_stats.index_ms);
    buf.put_u64_le(g.build_stats.estimator_ms);
    encode_cost_model(&g.plan.cost_model, &mut buf);
    buf
}

pub(crate) struct DecodedConfig {
    pub(crate) tau_max: usize,
    pub(crate) allocator: AllocatorKind,
    pub(crate) build_stats: BuildStats,
    pub(crate) cost_model: CostModel,
}

fn decode_config(bytes: &[u8]) -> Result<DecodedConfig> {
    let mut r = ByteReader::new(bytes);
    let tau_max = r.u64("tau_max")? as usize;
    let allocator = decode_allocator(r.u8("allocator kind")?)?;
    let build_stats = BuildStats {
        partition_ms: r.u64("partition_ms")?,
        index_ms: r.u64("index_ms")?,
        estimator_ms: r.u64("estimator_ms")?,
    };
    let cost_model = decode_cost_model(&mut r)?;
    r.finish("engine config")?;
    Ok(DecodedConfig { tau_max, allocator, build_stats, cost_model })
}

// ---------------------------------------------------------------------
// Full build-config serialization (for engines that rebuild at runtime)
// ---------------------------------------------------------------------

fn encode_init(init: InitKind, buf: &mut Vec<u8>) {
    match init {
        InitKind::Greedy => buf.put_u8(0),
        InitKind::Original => buf.put_u8(1),
        InitKind::Random { seed } => {
            buf.put_u8(2);
            buf.put_u64_le(seed);
        }
    }
}

fn decode_init(r: &mut ByteReader) -> Result<InitKind> {
    Ok(match r.u8("init kind")? {
        0 => InitKind::Greedy,
        1 => InitKind::Original,
        2 => InitKind::Random { seed: r.u64("init seed")? },
        other => return Err(HammingError::Corrupt(format!("unknown init kind {other}"))),
    })
}

/// Serializes a full [`GphConfig`] — partitioning strategy, estimator
/// kind, allocator, cost model, and (when present) the workload. Frozen
/// engine snapshots don't need this (they never rebuild), but the
/// segmented engine does: after a restore it keeps sealing and
/// compacting, so the build recipe must travel with the data.
pub fn encode_gph_config(cfg: &GphConfig) -> Vec<u8> {
    let mut buf = Vec::with_capacity(128);
    buf.put_u64_le(cfg.m as u64);
    buf.put_u64_le(cfg.tau_max as u64);
    buf.put_u8(encode_allocator(cfg.allocator));
    encode_cost_model(&cfg.cost_model, &mut buf);
    let kind = encode_kind(&cfg.estimator);
    buf.put_u64_le(kind.len() as u64);
    buf.put_slice(&kind);
    match &cfg.strategy {
        PartitionStrategy::Original => buf.put_u8(0),
        PartitionStrategy::RandomShuffle { seed } => {
            buf.put_u8(1);
            buf.put_u64_le(*seed);
        }
        PartitionStrategy::Os => buf.put_u8(2),
        PartitionStrategy::Dd => buf.put_u8(3),
        PartitionStrategy::Heuristic(h) => {
            buf.put_u8(4);
            encode_init(h.init, &mut buf);
            buf.put_u64_le(h.max_iters as u64);
            match h.move_budget {
                Some(b) => {
                    buf.put_u8(1);
                    buf.put_u64_le(b as u64);
                }
                None => buf.put_u8(0),
            }
            buf.put_u64_le(h.sample_rows as u64);
            buf.put_u64_le(h.seed);
        }
        PartitionStrategy::Fixed(p) => {
            buf.put_u8(5);
            let bytes = encode_partitioning(p);
            buf.put_u64_le(bytes.len() as u64);
            buf.put_slice(&bytes);
        }
    }
    match &cfg.workload {
        None => buf.put_u8(0),
        Some(wl) => {
            buf.put_u8(1);
            let ds = encode_dataset(&wl.queries);
            buf.put_u64_le(ds.len() as u64);
            buf.put_slice(&ds);
            buf.put_u64_le(wl.taus.len() as u64);
            for &t in &wl.taus {
                buf.put_u32_le(t);
            }
        }
    }
    buf
}

/// Restores a [`GphConfig`] written by [`encode_gph_config`].
pub fn decode_gph_config(bytes: &[u8]) -> Result<GphConfig> {
    let mut r = ByteReader::new(bytes);
    let m = r.u64("config m")? as usize;
    let tau_max = r.u64("config tau_max")? as usize;
    let allocator = decode_allocator(r.u8("allocator kind")?)?;
    let cost_model = decode_cost_model(&mut r)?;
    let kind_len = r.len(1, "estimator kind length")?;
    let estimator = decode_kind(r.bytes(kind_len, "estimator kind")?)?;
    let strategy = match r.u8("strategy tag")? {
        0 => PartitionStrategy::Original,
        1 => PartitionStrategy::RandomShuffle { seed: r.u64("shuffle seed")? },
        2 => PartitionStrategy::Os,
        3 => PartitionStrategy::Dd,
        4 => {
            let init = decode_init(&mut r)?;
            let max_iters = r.u64("max_iters")? as usize;
            let move_budget = match r.u8("move budget flag")? {
                0 => None,
                1 => Some(r.u64("move budget")? as usize),
                other => {
                    return Err(HammingError::Corrupt(format!("bad move-budget flag {other}")))
                }
            };
            let sample_rows = r.u64("sample_rows")? as usize;
            let seed = r.u64("heuristic seed")?;
            PartitionStrategy::Heuristic(HeuristicConfig {
                init,
                max_iters,
                move_budget,
                sample_rows,
                seed,
            })
        }
        5 => {
            let len = r.len(1, "partitioning length")?;
            PartitionStrategy::Fixed(decode_partitioning(r.bytes(len, "fixed partitioning")?)?)
        }
        other => return Err(HammingError::Corrupt(format!("unknown strategy tag {other}"))),
    };
    let workload = match r.u8("workload flag")? {
        0 => None,
        1 => {
            let ds_len = r.len(1, "workload dataset length")?;
            let queries = decode_dataset(r.bytes(ds_len, "workload dataset")?)?;
            let n_taus = r.len(4, "workload tau count")?;
            if n_taus == 0 {
                return Err(HammingError::Corrupt("workload with no thresholds".into()));
            }
            Some(WorkloadSpec { queries, taus: r.u32s(n_taus, "workload taus")? })
        }
        other => return Err(HammingError::Corrupt(format!("bad workload flag {other}"))),
    };
    r.finish("gph config")?;
    Ok(GphConfig { m, tau_max, allocator, estimator, strategy, workload, cost_model })
}

/// Serializes a built engine in the offset-addressed v3 layout (see the
/// module docs for the slot table and `FORMAT.md` for the normative
/// byte-level spec).
pub(crate) fn encode_engine(g: &Gph) -> Vec<u8> {
    let (data, index) = (&g.store.data, &g.store.index);
    let mut w = OffsetWriter::new(ENGINE_MAGIC, SNAPSHOT_VERSION);
    w.section(&encode_config(g)); // SLOT_CONFIG
    w.section(&encode_partitioning(&g.plan.partitioning)); // SLOT_PARTIT
    w.section(&encode_kind(&g.plan.estimator_kind)); // SLOT_ESTKIND
    let est_state = match g.plan.estimator.snapshot_state() {
        Some(state) => {
            let mut b = Vec::with_capacity(1 + state.len());
            b.push(1u8);
            b.extend_from_slice(&state);
            b
        }
        None => vec![0u8],
    };
    w.section(&est_state); // SLOT_ESTSTATE
    let mut rowmeta = Vec::with_capacity(16);
    rowmeta.put_u64_le(data.dim() as u64);
    rowmeta.put_u64_le(data.len() as u64);
    w.section(&rowmeta); // SLOT_ROWMETA
    let mut parttab = Vec::with_capacity(index.num_parts() * 24);
    for p in 0..index.num_parts() {
        parttab.put_u64_le(index.part_width(p) as u64);
        parttab.put_u64_le(index.part_keys(p).len() as u64);
        parttab.put_u64_le(index.part_ids(p).len() as u64);
    }
    w.section(&parttab); // SLOT_PARTTAB

    let mut rows = Vec::with_capacity(data.words().len() * 8);
    for &word in data.words() {
        rows.put_u64_le(word);
    }
    w.aligned_section(&rows); // SLOT_ROWS
    let mut keys = Vec::new();
    let mut offs = Vec::new();
    let mut ids = Vec::new();
    for p in 0..index.num_parts() {
        for &k in index.part_keys(p) {
            keys.put_u64_le(k);
        }
        for &o in index.part_offsets(p) {
            offs.put_u32_le(o);
        }
        for &id in index.part_ids(p) {
            ids.put_u32_le(id);
        }
    }
    w.aligned_section(&keys); // SLOT_KEYS
    w.aligned_section(&offs); // SLOT_OFFS
    w.aligned_section(&ids); // SLOT_IDS
    w.finish()
}

/// Rebuilds a [`Dataset`] from the v3 raw row slab (`n_rows ×
/// words_for(dim)` little-endian u64), rejecting rows with bits set
/// beyond the dimensionality like [`decode_dataset`] does.
pub(crate) fn dataset_from_slab(dim: usize, n_rows: usize, slab: &[u8]) -> Result<Dataset> {
    let wpv = words_for(dim);
    let need = n_rows
        .checked_mul(wpv)
        .and_then(|w| w.checked_mul(8))
        .ok_or_else(|| HammingError::Corrupt("row slab size overflow".into()))?;
    if slab.len() != need {
        return Err(HammingError::Corrupt(format!(
            "row slab is {} bytes, expected {need} for {n_rows} rows of dim {dim}",
            slab.len()
        )));
    }
    let mut ds = Dataset::with_capacity(dim, n_rows);
    let mut row = vec![0u64; wpv];
    for chunk in slab.chunks_exact(wpv * 8) {
        for (w, b) in row.iter_mut().zip(chunk.chunks_exact(8)) {
            *w = u64::from_le_bytes(b.try_into().unwrap());
        }
        // `push_row` enforces the trailing-zero invariant.
        ds.push_row(&row).map_err(|e| HammingError::Corrupt(e.to_string()))?;
    }
    Ok(ds)
}

/// One partition's CSR geometry: its width and key count, and where
/// its keys / offsets / ids arrays start within their sections (byte
/// offsets relative to the section payload).
pub(crate) struct PartSpan {
    pub(crate) width: usize,
    pub(crate) n_keys: usize,
    pub(crate) keys_off: u64,
    pub(crate) offs_off: u64,
    pub(crate) ids_off: u64,
}

/// Everything a GPHE container says about its engine short of the
/// payload arrays, decoded and cross-validated once for both load
/// paths: the resident decode ([`decode_engine`]) and the cold open
/// (`coldstore::ColdSegment::open`) differ only in what they do with
/// the row slab and the CSR sections afterwards.
pub(crate) struct EngineMeta<'a> {
    pub(crate) cfg: DecodedConfig,
    pub(crate) partitioning: Partitioning,
    pub(crate) projector: Projector,
    pub(crate) estimator_kind: EstimatorKind,
    est_state: Cow<'a, [u8]>,
    pub(crate) dim: usize,
    pub(crate) n_rows: usize,
    pub(crate) parts: Vec<PartSpan>,
}

impl EngineMeta<'_> {
    /// The persisted estimator tables, if the kind snapshots any: the
    /// `eststate` payload is a presence byte, then the tables.
    pub(crate) fn est_state(&self) -> Result<Option<&[u8]>> {
        match self.est_state.split_first() {
            Some((0, [])) => Ok(None),
            Some((1, rest)) => Ok(Some(rest)),
            _ => Err(HammingError::Corrupt("malformed estimator-state presence flag".into())),
        }
    }

    /// Partition widths, in partition order.
    pub(crate) fn widths(&self) -> Vec<usize> {
        self.parts.iter().map(|p| p.width).collect()
    }

    /// Assembles the query plan around the restored `estimator`.
    pub(crate) fn into_plan(self, estimator: Box<dyn CnEstimator>) -> Plan {
        Plan {
            partitioning: self.partitioning,
            projector: self.projector,
            estimator,
            estimator_kind: self.estimator_kind,
            allocator: self.cfg.allocator,
            cost_model: self.cfg.cost_model,
            tau_max: self.cfg.tau_max,
        }
    }
}

/// Opens a GPHE container, resident or file-backed by the kind of
/// `source` (see [`Container`]).
pub(crate) fn open_engine(source: Source<'_>) -> Result<Container<'_>> {
    Container::open(source, ENGINE_MAGIC, SNAPSHOT_VERSION, N_ENGINE_SLOTS)
}

/// Decodes the metadata sections of the GPHE container `c` and checks
/// that they describe one consistent engine — every section CRC can be
/// intact while the sections belong to different engines, or while the
/// partition table disagrees with the payload sections it tiles. The
/// payload slots (rows, keys, offs, ids) are only measured, never read.
pub(crate) fn decode_engine_meta<'a>(c: &Container<'a>) -> Result<EngineMeta<'a>> {
    let cfg = decode_config(&c.section(SLOT_CONFIG)?)?;
    let partitioning = decode_partitioning(&c.section(SLOT_PARTIT)?)?;
    let estimator_kind = decode_kind(&c.section(SLOT_ESTKIND)?)?;
    let est_state = c.section(SLOT_ESTSTATE)?;
    let rowmeta = c.section(SLOT_ROWMETA)?;
    let mut r = ByteReader::new(&rowmeta);
    let dim = r.u64("row dim")? as usize;
    let n_rows = r.u64("row count")? as usize;
    r.finish("row metadata")?;
    let parttab = c.section(SLOT_PARTTAB)?;

    if dim == 0 {
        return Err(HammingError::Corrupt("snapshot declares dim 0".into()));
    }
    if partitioning.dim() != dim {
        return Err(HammingError::Corrupt(format!(
            "partitioning covers {} dims but the rows have {dim}",
            partitioning.dim()
        )));
    }
    if parttab.len() != partitioning.num_parts() * 24 {
        return Err(HammingError::Corrupt(format!(
            "partition table of {} bytes does not hold one 24-byte row for each of the \
             partitioning's {} parts",
            parttab.len(),
            partitioning.num_parts()
        )));
    }
    let expect_rows = (n_rows as u64)
        .checked_mul(words_for(dim) as u64)
        .and_then(|w| w.checked_mul(8))
        .ok_or_else(|| HammingError::Corrupt("row slab size overflow".into()))?;
    let rows_len = c.slot(SLOT_ROWS).len;
    if rows_len != expect_rows {
        return Err(HammingError::Corrupt(format!(
            "row slab is {rows_len} bytes, expected {expect_rows} for {n_rows} rows of dim {dim}"
        )));
    }

    // One `(width, n_keys, n_ids)` row per partition; together the
    // declared extents must tile each CSR section exactly.
    let projector = Projector::new(&partitioning);
    let sections = [SLOT_KEYS, SLOT_OFFS, SLOT_IDS].map(|slot| c.slot(slot).len);
    let mut at = [0u64; 3];
    let mut parts = Vec::with_capacity(partitioning.num_parts());
    let mut r = ByteReader::new(&parttab);
    for p in 0..partitioning.num_parts() {
        let width = r.u64("part width")? as usize;
        let n_keys = r.u64("part key count")?;
        let n_ids = r.u64("part id count")?;
        if width != projector.shape(p).width {
            return Err(HammingError::Corrupt(format!(
                "partition {p} width mismatch: table {width} vs partitioning {}",
                projector.shape(p).width
            )));
        }
        if n_ids != n_rows as u64 {
            return Err(HammingError::Corrupt(format!(
                "partition {p} posts {n_ids} ids for {n_rows} rows"
            )));
        }
        let [keys_off, offs_off, ids_off] = at;
        parts.push(PartSpan { width, n_keys: n_keys as usize, keys_off, offs_off, ids_off });
        // Bytes this partition takes of the keys, offs and ids sections.
        let takes = [
            n_keys.checked_mul(8),
            n_keys.checked_add(1).and_then(|k| k.checked_mul(4)),
            n_ids.checked_mul(4),
        ];
        for ((cursor, take), limit) in at.iter_mut().zip(takes).zip(sections) {
            *cursor = take
                .and_then(|bytes| cursor.checked_add(bytes))
                .filter(|&end| end <= limit)
                .ok_or_else(|| {
                    HammingError::Corrupt(format!("partition {p} extents exceed the CSR sections"))
                })?;
        }
    }
    if at != sections {
        return Err(HammingError::Corrupt(
            "CSR sections have trailing bytes beyond the partition table".into(),
        ));
    }
    Ok(EngineMeta { cfg, partitioning, projector, estimator_kind, est_state, dim, n_rows, parts })
}

/// Restores an engine from [`encode_engine`] bytes, every payload CRC
/// verified up front.
pub(crate) fn decode_engine(bytes: &[u8]) -> Result<Gph> {
    let c = open_engine(Source::Bytes(bytes))?;
    let meta = decode_engine_meta(&c)?;
    let n = meta.n_rows;
    let data = dataset_from_slab(meta.dim, n, &c.section(SLOT_ROWS)?)?;

    // `decode_engine_meta` proved the partition table tiles these
    // sections exactly, so reading them front to back consumes each.
    let (keys, offs, ids) = (c.section(SLOT_KEYS)?, c.section(SLOT_OFFS)?, c.section(SLOT_IDS)?);
    let (mut keys, mut offs, mut ids) =
        (ByteReader::new(&keys), ByteReader::new(&offs), ByteReader::new(&ids));
    let mut csr = Vec::with_capacity(meta.parts.len());
    for s in &meta.parts {
        csr.push((
            s.width,
            keys.u64s(s.n_keys, "posting keys")?,
            offs.u32s(s.n_keys + 1, "posting offsets")?,
            ids.u32s(n, "posting ids")?,
        ));
    }
    let index = InvertedIndex::from_csr(n, csr)?;
    // Only the kinds without stored tables need the rows projected, and
    // only for as long as their rebuild takes.
    let estimator =
        restore_estimator(&meta.estimator_kind, meta.est_state()?, &meta.widths(), || {
            let projected = ProjectedDataset::build(&data, &meta.projector);
            build_estimator(&meta.estimator_kind, &projected, meta.cfg.tau_max)
        })?;
    let build_stats = meta.cfg.build_stats;
    Ok(Gph { plan: meta.into_plan(estimator), store: Resident::new(data, index), build_stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cn::EstimatorKind;
    use crate::engine::GphConfig;
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

    fn assert_engines_agree(a: &Gph, b: &Gph, queries: &Dataset, taus: &[u32]) {
        for qi in 0..queries.len() {
            let q = queries.row(qi);
            for &tau in taus {
                let ra = a.search_with_stats(q, tau);
                let rb = b.search_with_stats(q, tau);
                assert_eq!(ra.ids, rb.ids, "qi={qi} tau={tau}");
                assert_eq!(ra.stats.thresholds, rb.stats.thresholds, "qi={qi} tau={tau}");
                assert_eq!(
                    a.estimate_cost(q, tau),
                    b.estimate_cost(q, tau),
                    "cost estimate diverged: qi={qi} tau={tau}"
                );
            }
        }
    }

    #[test]
    fn roundtrip_default_estimator_is_query_identical() {
        let ds = random_dataset(64, 300, 11);
        let queries = random_dataset(64, 8, 12);
        let mut cfg = GphConfig::new(4, 8);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 5 };
        let built = Gph::build(ds, &cfg).unwrap();
        let loaded = Gph::from_bytes(&built.to_bytes()).unwrap();
        assert_eq!(loaded.tau_max(), built.tau_max());
        assert_eq!(loaded.partitioning(), built.partitioning());
        assert_eq!(loaded.build_stats().index_ms, built.build_stats().index_ms);
        assert_engines_agree(&built, &loaded, &queries, &[0, 3, 8]);
    }

    #[test]
    fn roundtrip_covers_every_estimator_kind() {
        let ds = random_dataset(32, 150, 13);
        let queries = random_dataset(32, 5, 14);
        let kinds = [
            EstimatorKind::Exact { max_width: 16 },
            EstimatorKind::SubPartition { sub_count: 2, paper_shift: true },
            EstimatorKind::SampleScan { sample_cap: 64, seed: 7 },
            // No table snapshot exists for the learned kind; the load
            // path re-trains from the stored seed, which must reproduce
            // the saved estimator exactly.
            EstimatorKind::Learned(crate::cn::learned::LearnedParams {
                model: crate::cn::learned::ModelKind::Rf,
                n_train: 30,
                scan_cap: 150,
                seed: 21,
            }),
        ];
        for kind in kinds {
            let mut cfg = GphConfig::new(3, 6);
            cfg.strategy = PartitionStrategy::Original;
            cfg.estimator = kind.clone();
            let built = Gph::build(ds.clone(), &cfg).unwrap();
            let loaded = Gph::from_bytes(&built.to_bytes()).unwrap();
            assert_engines_agree(&built, &loaded, &queries, &[0, 2, 6]);
        }
    }

    #[test]
    fn save_load_via_file() {
        let ds = random_dataset(32, 80, 15);
        let cfg = GphConfig { strategy: PartitionStrategy::Original, ..GphConfig::new(2, 4) };
        let built = Gph::build(ds, &cfg).unwrap();
        let dir = std::env::temp_dir().join("gph_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.gphe");
        built.save(&path).unwrap();
        let loaded = Gph::load(&path).unwrap();
        let q = built.data().row(0).to_vec();
        assert_eq!(loaded.search(&q, 4), built.search(&q, 4));
        assert!(!path.with_extension("tmp").exists(), "atomic save leaves no temp file");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let ds = random_dataset(48, 120, 16);
        let mut cfg = GphConfig::new(3, 6);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 2 };
        let built = Gph::build(ds, &cfg).unwrap();
        let b1 = built.to_bytes();
        // A second encode of the same engine and an encode of the loaded
        // engine both reproduce the exact bytes, modulo build timings
        // (which are persisted verbatim, hence identical here too).
        assert_eq!(b1, built.to_bytes());
        assert_eq!(b1, Gph::from_bytes(&b1).unwrap().to_bytes());
    }

    #[test]
    fn corrupt_sections_are_rejected_not_panicking() {
        let ds = random_dataset(32, 60, 17);
        let cfg = GphConfig { strategy: PartitionStrategy::Original, ..GphConfig::new(2, 4) };
        let bytes = Gph::build(ds, &cfg).unwrap().to_bytes();
        // Every 37th byte flipped (cheap proxy; the proptest sweeps
        // random offsets) must produce Corrupt, never a panic.
        for i in (0..bytes.len()).step_by(37) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            match Gph::from_bytes(&bad) {
                Err(HammingError::Corrupt(_)) => {}
                Err(other) => panic!("flip at {i}: unexpected error kind {other}"),
                Ok(_) => panic!("flip at {i} went undetected"),
            }
        }
    }

    #[test]
    fn spliced_estimator_state_is_rejected() {
        // Every section CRC can be intact while the estimator state
        // belongs to a different partitioning; the cross-check must
        // reject the splice instead of letting a query panic.
        let ds = random_dataset(32, 80, 19);
        let build = |m: usize| {
            let cfg = GphConfig { strategy: PartitionStrategy::Original, ..GphConfig::new(m, 4) };
            Gph::build(ds.clone(), &cfg).unwrap().to_bytes()
        };
        let (a, b) = (build(2), build(4));
        let ca = open_engine(Source::Bytes(&a)).unwrap();
        let cb = open_engine(Source::Bytes(&b)).unwrap();
        // Engine B's container, slot for slot, with A's estimator state.
        let mut w = OffsetWriter::new(ENGINE_MAGIC, SNAPSHOT_VERSION);
        for slot in 0..N_ENGINE_SLOTS {
            let payload = match slot {
                SLOT_ESTSTATE => ca.section(slot).unwrap(),
                _ => cb.section(slot).unwrap(),
            };
            if slot >= SLOT_ROWS {
                w.aligned_section(&payload);
            } else {
                w.section(&payload);
            }
        }
        match Gph::from_bytes(&w.finish()) {
            Err(HammingError::Corrupt(msg)) => {
                assert!(msg.contains("partition"), "{msg}")
            }
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(engine) => {
                // Must never get here — but if it did, the panic the
                // check prevents would fire on this search.
                let _ = engine.search(&[0u64], 4);
                panic!("spliced estimator state went undetected");
            }
        }
    }

    #[test]
    fn gph_config_roundtrips_every_strategy_and_workload() {
        let ds = random_dataset(24, 30, 20);
        let strategies = [
            PartitionStrategy::Original,
            PartitionStrategy::RandomShuffle { seed: 77 },
            PartitionStrategy::Os,
            PartitionStrategy::Dd,
            PartitionStrategy::Heuristic(crate::partition_opt::HeuristicConfig {
                init: crate::partition_opt::InitKind::Random { seed: 5 },
                max_iters: 3,
                move_budget: None,
                sample_rows: 100,
                seed: 9,
            }),
            PartitionStrategy::Fixed(hamming_core::Partitioning::equi_width(24, 3).unwrap()),
        ];
        for (i, strategy) in strategies.into_iter().enumerate() {
            let mut cfg = GphConfig::new(3, 6);
            cfg.strategy = strategy;
            cfg.estimator = EstimatorKind::Exact { max_width: 12 };
            if i % 2 == 0 {
                cfg.workload =
                    Some(crate::partition_opt::WorkloadSpec::from_sample(&ds, 8, vec![2, 4, 6], 3));
            }
            let decoded = decode_gph_config(&encode_gph_config(&cfg)).unwrap();
            // The decoded config must drive an identical build.
            assert_eq!(decoded.m, cfg.m);
            assert_eq!(decoded.tau_max, cfg.tau_max);
            assert_eq!(decoded.allocator, cfg.allocator);
            assert_eq!(format!("{:?}", decoded.strategy), format!("{:?}", cfg.strategy));
            assert_eq!(format!("{:?}", decoded.estimator), format!("{:?}", cfg.estimator));
            match (&decoded.workload, &cfg.workload) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.taus, b.taus);
                    assert_eq!(a.queries.len(), b.queries.len());
                    for r in 0..a.queries.len() {
                        assert_eq!(a.queries.row(r), b.queries.row(r));
                    }
                }
                other => panic!("workload mismatch: {other:?}"),
            }
            let built = Gph::build(ds.clone(), &cfg).unwrap();
            let rebuilt = Gph::build(ds.clone(), &decoded).unwrap();
            let q = ds.row(0).to_vec();
            assert_eq!(built.search(&q, 6), rebuilt.search(&q, 6), "strategy #{i}");
        }
        // Truncated config bytes are rejected.
        let bytes = encode_gph_config(&GphConfig::new(2, 4));
        for cut in (0..bytes.len()).step_by(7) {
            assert!(decode_gph_config(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn retired_gphe_versions_are_rejected_as_unsupported() {
        // A v1/v2 file is a tagged-section container: all this reader
        // must recognise is the header, and say so — never misparse it —
        // whether it is decoded in memory or opened cold.
        let spill = crate::coldstore::SpillStore::temp(1 << 20).unwrap();
        for version in [1u32, 2] {
            let mut old = [&ENGINE_MAGIC[..], &version.to_le_bytes()].concat();
            old.extend_from_slice(b"whatever an old writer put here");
            let file = std::sync::Arc::new(spill.write_blob(&old).unwrap());
            let len = file.len();
            let cold = crate::coldstore::ColdSegment::open(file, spill.cache().clone(), 0, len);
            for got in [Gph::from_bytes(&old).map(|_| ()), cold.map(|_| ())] {
                match got {
                    Err(HammingError::Corrupt(msg)) => {
                        assert!(msg.contains(&format!("unsupported version {version}")), "{msg}")
                    }
                    other => panic!("v{version}: expected Corrupt, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn v3_sections_are_page_aligned_and_offset_addressed() {
        use hamming_core::io::PAGE_SIZE;
        let ds = random_dataset(64, 300, 33);
        let mut cfg = GphConfig::new(4, 8);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 5 };
        let built = Gph::build(ds, &cfg).unwrap();
        let bytes = built.to_bytes();
        let c = open_engine(Source::Bytes(&bytes)).unwrap();
        for slot in [SLOT_ROWS, SLOT_KEYS, SLOT_OFFS, SLOT_IDS] {
            assert_eq!(c.slot(slot).offset % PAGE_SIZE as u64, 0, "slot {slot} unaligned");
        }
        // The row slab is the dataset words verbatim: the whole point of
        // the layout is that a pager can read rows without decoding.
        let rows = c.section(SLOT_ROWS).unwrap();
        let wpv = built.data().words_per_vec();
        let row7 = built.data().row(7);
        let start = 7 * wpv * 8;
        for (w, chunk) in row7.iter().zip(rows[start..start + wpv * 8].chunks_exact(8)) {
            assert_eq!(*w, u64::from_le_bytes(chunk.try_into().unwrap()));
        }
    }

    #[test]
    fn truncated_snapshots_are_rejected() {
        let ds = random_dataset(32, 40, 18);
        let cfg = GphConfig { strategy: PartitionStrategy::Original, ..GphConfig::new(2, 4) };
        let bytes = Gph::build(ds, &cfg).unwrap().to_bytes();
        for cut in (0..bytes.len()).step_by(41) {
            assert!(Gph::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }
}
