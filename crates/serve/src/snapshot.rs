//! Persistent sharded-index snapshots: a manifest plus one segmented
//! engine snapshot file per shard, so a serving fleet warm-starts by
//! reloading — never by re-running partition optimization.
//!
//! Layout of a snapshot directory:
//!
//! ```text
//! <dir>/MANIFEST          GPHM container: fleet shape + per-shard entries
//! <dir>/shard-<slot>.gphs one SegmentedGph snapshot per non-empty slot
//! ```
//!
//! The manifest (format v3, two positional slots in the same
//! offset-addressed framing the shard files use, opened by the same one
//! reader, [`Container`]; the tagged-section v1/v2 are rejected by
//! version) records the shard count, the id-hash fingerprint (a probe
//! value through [`mix64`], so a changed hash function is detected
//! instead of silently misrouting records), the build config (so
//! restored shards keep sealing and compacting with the same recipe),
//! and for every non-empty shard slot its file's CRC-32 and live-row
//! count. Shard files carry their ids and tombstones themselves —
//! pending deletes round-trip — and restore verifies that every live id
//! actually hashes to the slot that stored it. Shard files are
//! checksummed section by section (see [`gph::segment`]), so corruption
//! anywhere surfaces as [`HammingError::Corrupt`]. A resident restore
//! decodes each shard file in memory ([`SegmentedGph::from_bytes`]); a
//! file-backed one maps it ([`SegmentedGph::load_with_storage`], the
//! one file-backed restore).

use crate::shard::ShardedIndex;
use bytes::BufMut;
use gph::coldstore::StorageMode;
use gph::segment::{SegmentConfig, SegmentedGph};
use gph::snapshot::{decode_gph_config, encode_gph_config};
use hamming_core::error::{HammingError, Result};
use hamming_core::io::{crc32, write_atomic, ByteReader, Container, OffsetWriter, Source};
use hamming_core::key::mix64;
use std::path::{Path, PathBuf};

/// Magic of the shard-manifest file.
pub const MANIFEST_MAGIC: [u8; 4] = *b"GPHM";

/// Current (and only loadable) manifest format version: the
/// offset-addressed layout. Versions 1 and 2 were tagged-section
/// containers and are rejected by version.
pub const MANIFEST_VERSION: u32 = 3;

// Fixed slot indices of the manifest container (see `FORMAT.md`).
const SLOT_SHARDS: usize = 0;
const SLOT_CONFIG: usize = 1;
const N_MANIFEST_SLOTS: usize = 2;

/// File name of the manifest inside a snapshot directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Fingerprint of the id-hash function: a fixed probe through the hash.
/// Recorded in every manifest and checked on restore, so changing
/// [`mix64`] (which would re-route every record) breaks loudly.
fn id_hash_fingerprint() -> u64 {
    mix64(0x6770_685F_7368_6172) // "gph_shar"
}

/// One shard's entry in a [`ShardManifest`].
#[derive(Clone, Debug)]
pub struct ShardEntry {
    /// Shard slot in `0..n_shards` (slots with no stored rows have no
    /// entry).
    pub slot: usize,
    /// Live records this shard holds.
    pub rows: usize,
    /// CRC-32 of the shard's snapshot file.
    pub crc: u32,
}

impl ShardEntry {
    /// File name of this shard's snapshot inside the directory.
    pub fn file_name(&self) -> String {
        format!("shard-{}.gphs", self.slot)
    }
}

/// The parsed manifest of a snapshot directory.
#[derive(Clone, Debug)]
pub struct ShardManifest {
    /// Shard count (including empty slots).
    pub n_shards: usize,
    /// Total live records across shards.
    pub len: usize,
    /// Dimensionality of the indexed vectors.
    pub dim: usize,
    /// Largest threshold the engines serve.
    pub tau_max: usize,
    /// Shards with stored rows, ascending by slot.
    pub shards: Vec<ShardEntry>,
}

fn encode_manifest(m: &ShardManifest, cfg: &gph::GphConfig, seg_cfg: SegmentConfig) -> Vec<u8> {
    let mut body = Vec::with_capacity(48 + m.shards.len() * 20);
    body.put_u64_le(m.n_shards as u64);
    body.put_u64_le(m.len as u64);
    body.put_u64_le(m.dim as u64);
    body.put_u64_le(m.tau_max as u64);
    body.put_u64_le(id_hash_fingerprint());
    body.put_u64_le(m.shards.len() as u64);
    for e in &m.shards {
        body.put_u64_le(e.slot as u64);
        body.put_u64_le(e.rows as u64);
        body.put_u32_le(e.crc);
    }
    let mut w = OffsetWriter::new(MANIFEST_MAGIC, MANIFEST_VERSION);
    w.section(&body);
    // The build recipe for empty slots (non-empty slots carry their own
    // config inside the shard file).
    let mut cfg_body = encode_gph_config(cfg);
    cfg_body.put_u64_le(seg_cfg.seal_rows as u64);
    cfg_body.put_u64_le(seg_cfg.max_sealed as u64);
    w.section(&cfg_body);
    w.finish()
}

/// Caps on the manifest's self-declared shape. Record IDs are `u32`
/// throughout the stack, and a fleet of more than ~a million shard
/// slots is nonsense; validating both before any per-slot allocation
/// keeps a forged or CRC-colliding manifest from driving huge
/// allocations — the same guard `decode_partitioning` applies to its
/// header fields.
const MAX_SHARD_SLOTS: u64 = 1 << 20;

fn decode_manifest(bytes: &[u8]) -> Result<(ShardManifest, gph::GphConfig, SegmentConfig)> {
    let c =
        Container::open(Source::Bytes(bytes), MANIFEST_MAGIC, MANIFEST_VERSION, N_MANIFEST_SLOTS)?;
    let shards_bytes = c.section(SLOT_SHARDS)?;
    let mut r = ByteReader::new(&shards_bytes);
    let n_shards_raw = r.u64("shard count")?;
    if n_shards_raw == 0 || n_shards_raw > MAX_SHARD_SLOTS {
        return Err(HammingError::Corrupt(format!(
            "manifest declares {n_shards_raw} shard slots (supported: 1..={MAX_SHARD_SLOTS})"
        )));
    }
    let n_shards = n_shards_raw as usize;
    let len_raw = r.u64("record count")?;
    if len_raw > u32::MAX as u64 {
        return Err(HammingError::Corrupt(format!(
            "manifest declares {len_raw} records; ids are u32"
        )));
    }
    let len = len_raw as usize;
    let dim = r.u64("dimensionality")? as usize;
    let tau_max = r.u64("tau_max")? as usize;
    let fingerprint = r.u64("id-hash fingerprint")?;
    if fingerprint != id_hash_fingerprint() {
        return Err(HammingError::Corrupt(format!(
            "id-hash fingerprint {fingerprint:#x} does not match this build \
             ({:#x}); records would be routed to different shards",
            id_hash_fingerprint()
        )));
    }
    let n_entries = r.len(20, "shard entry count")?;
    let mut shards = Vec::with_capacity(n_entries);
    for _ in 0..n_entries {
        let slot = r.u64("shard slot")? as usize;
        if slot >= n_shards {
            return Err(HammingError::Corrupt(format!(
                "shard slot {slot} out of range for {n_shards} shards"
            )));
        }
        if shards.last().is_some_and(|prev: &ShardEntry| prev.slot >= slot) {
            return Err(HammingError::Corrupt("shard slots not strictly ascending".into()));
        }
        let rows = r.u64("shard rows")? as usize;
        let crc = r.u32("shard file crc")?;
        shards.push(ShardEntry { slot, rows, crc });
    }
    r.finish("shard manifest")?;
    // Checked sum: wrap-around in release builds would let two absurd
    // row counts cancel out and satisfy the equality.
    let total = shards
        .iter()
        .try_fold(0usize, |acc, e| acc.checked_add(e.rows))
        .filter(|&t| t == len)
        .ok_or_else(|| {
            HammingError::Corrupt(format!("shard rows do not sum to the declared {len} records"))
        })?;
    debug_assert_eq!(total, len);
    let cfg_bytes = c.section(SLOT_CONFIG)?;
    if cfg_bytes.len() < 16 {
        return Err(HammingError::Corrupt("manifest config section truncated".into()));
    }
    let (gph_cfg_bytes, tail) = cfg_bytes.split_at(cfg_bytes.len() - 16);
    let cfg = decode_gph_config(gph_cfg_bytes)?;
    let mut tr = ByteReader::new(tail);
    let seal_rows = tr.u64("seal_rows")? as usize;
    let max_sealed = tr.u64("max_sealed")? as usize;
    if seal_rows == 0 || max_sealed == 0 {
        return Err(HammingError::Corrupt("zero segment-lifecycle knobs".into()));
    }
    let seg_cfg = SegmentConfig { seal_rows, max_sealed, ..SegmentConfig::default() };
    Ok((ShardManifest { n_shards, len, dim, tau_max, shards }, cfg, seg_cfg))
}

/// Reads and validates the manifest of a snapshot directory (without
/// loading any shard engines) — what `gph-store info` prints.
pub fn read_manifest<P: AsRef<Path>>(dir: P) -> Result<ShardManifest> {
    decode_manifest(&std::fs::read(dir.as_ref().join(MANIFEST_FILE))?).map(|(m, _, _)| m)
}

impl ShardedIndex {
    /// Persists the index into `dir` (created if missing): one
    /// checksummed segmented snapshot per shard slot with stored rows
    /// (pending tombstones included) plus the `MANIFEST`, written last
    /// and atomically so a crashed snapshot never yields a directory
    /// that restores partially.
    pub fn snapshot<P: AsRef<Path>>(&self, dir: P) -> Result<ShardManifest> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut entries = Vec::new();
        let mut cfg: Option<(gph::GphConfig, SegmentConfig)> = None;
        for (slot, shard) in self.shards.iter().enumerate() {
            let engine = shard.read();
            if cfg.is_none() {
                cfg = Some((engine.config().clone(), engine.segment_config()));
            }
            if engine.stored_rows() == 0 {
                continue;
            }
            let bytes = engine.to_bytes()?;
            let entry = ShardEntry { slot, rows: engine.len(), crc: crc32(&bytes) };
            write_atomic(&dir.join(entry.file_name()), &bytes)?;
            entries.push(entry);
        }
        let (cfg, seg_cfg) = cfg.expect("a sharded index always has at least one shard");
        let manifest = ShardManifest {
            n_shards: self.n_shards,
            len: entries.iter().map(|e| e.rows).sum(),
            dim: self.dim,
            tau_max: self.tau_max,
            shards: entries,
        };
        write_atomic(&dir.join(MANIFEST_FILE), &encode_manifest(&manifest, &cfg, seg_cfg))?;
        Ok(manifest)
    }

    /// Restores a sharded index from a [`ShardedIndex::snapshot`]
    /// directory: validates the manifest (shard count, id-hash
    /// fingerprint, per-file checksums), reloads all shard engines in
    /// parallel — no partition optimization, index build, or estimator
    /// training runs — and verifies every live id hashes to the slot
    /// that stored it. Slots without a file come back as empty engines
    /// ready to accept inserts.
    pub fn restore<P: AsRef<Path>>(dir: P) -> Result<Self> {
        Self::restore_with_storage(dir, StorageMode::Resident)
    }

    /// [`ShardedIndex::restore`] with an explicit [`StorageMode`].
    ///
    /// With [`StorageMode::FileBacked`] the shard files are *mapped*,
    /// not read: each shard validates its snapshot's header, footer and
    /// metadata checksums, then serves sealed segments by paging blocks
    /// from the file on demand. Beyond that, restore reads only one key per key
    /// page (each cold segment's page fences), so restore time and
    /// resident memory grow with the number of key pages, 8 bytes of
    /// memory each; the budget is split evenly across shard
    /// slots (each shard caps its own page cache at `budget / n_shards`).
    /// The manifest's whole-file CRC is deliberately *not* recomputed on
    /// this path — doing so would read every byte and defeat the lazy
    /// mapping; payload pages are instead covered by the per-section
    /// checksums described in `FORMAT.md`. The storage mode is a runtime
    /// policy, never persisted: the same directory restores either way.
    pub fn restore_with_storage<P: AsRef<Path>>(dir: P, storage: StorageMode) -> Result<Self> {
        let dir = dir.as_ref();
        let (manifest, cfg, seg_cfg) = decode_manifest(&std::fs::read(dir.join(MANIFEST_FILE))?)?;
        let shard_mode = split_budget(storage, manifest.n_shards);
        let seg_cfg = SegmentConfig { storage: shard_mode, ..seg_cfg };
        let manifest_ref = &manifest;
        let loaded: Vec<Result<SegmentedGph>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..manifest_ref.n_shards)
                .map(|slot| {
                    let entry = manifest_ref.shards.iter().find(|e| e.slot == slot);
                    let cfg = &cfg;
                    scope.spawn(move || match entry {
                        Some(entry) => {
                            let path: PathBuf = dir.join(entry.file_name());
                            load_shard(&path, entry, manifest_ref, shard_mode)
                        }
                        None => SegmentedGph::new(manifest_ref.dim, cfg.clone(), seg_cfg),
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard loaders never panic")).collect()
        });
        let shards = loaded.into_iter().collect::<Result<Vec<SegmentedGph>>>()?;
        for (slot, engine) in shards.iter().enumerate() {
            for id in engine.live_ids() {
                if ShardedIndex::shard_of(id, manifest.n_shards) != slot {
                    return Err(HammingError::Corrupt(format!(
                        "id {id} stored in shard slot {slot} but hashes to slot {}",
                        ShardedIndex::shard_of(id, manifest.n_shards)
                    )));
                }
            }
        }
        Ok(ShardedIndex::from_shards(shards, manifest.dim, manifest.tau_max))
    }
}

/// Splits a fleet-wide page-cache budget into a per-shard mode. Every
/// shard owns its own cache (shards are independently locked), so the
/// fleet's total stays at the configured budget.
fn split_budget(storage: StorageMode, n_shards: usize) -> StorageMode {
    match storage {
        StorageMode::Resident => StorageMode::Resident,
        StorageMode::FileBacked { budget_bytes } => {
            StorageMode::FileBacked { budget_bytes: (budget_bytes / n_shards.max(1) as u64).max(1) }
        }
    }
}

fn load_shard(
    path: &Path,
    entry: &ShardEntry,
    manifest: &ShardManifest,
    storage: StorageMode,
) -> Result<SegmentedGph> {
    let engine = match storage {
        StorageMode::Resident => {
            let bytes = std::fs::read(path)?;
            if crc32(&bytes) != entry.crc {
                return Err(HammingError::Corrupt(format!(
                    "checksum mismatch for {}",
                    entry.file_name()
                )));
            }
            SegmentedGph::from_bytes(&bytes)?
        }
        // File-backed restore maps the snapshot instead of reading it;
        // section checksums replace the whole-file CRC (see
        // `restore_with_storage`).
        StorageMode::FileBacked { .. } => SegmentedGph::load_with_storage(path, storage)?,
    };
    if engine.len() != entry.rows {
        return Err(HammingError::Corrupt(format!(
            "{} holds {} live rows, manifest says {}",
            entry.file_name(),
            engine.len(),
            entry.rows
        )));
    }
    if engine.dim() != manifest.dim {
        return Err(HammingError::Corrupt(format!(
            "{} indexes {}-dimensional vectors, manifest says {}",
            entry.file_name(),
            engine.dim(),
            manifest.dim
        )));
    }
    if engine.tau_max() != manifest.tau_max {
        return Err(HammingError::Corrupt(format!(
            "{} serves tau_max {}, manifest says {}",
            entry.file_name(),
            engine.tau_max(),
            manifest.tau_max
        )));
    }
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gph::engine::GphConfig;
    use gph::partition_opt::PartitionStrategy;
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

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gph_serve_snapshot_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn snapshot_restore_roundtrip_is_query_identical() {
        let ds = random_dataset(64, 250, 301);
        let mut cfg = GphConfig::new(4, 8);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 4 };
        let built = ShardedIndex::build(&ds, 3, &cfg).unwrap();
        let dir = tmp_dir("roundtrip");
        let manifest = built.snapshot(&dir).unwrap();
        assert_eq!(manifest.n_shards, 3);
        assert_eq!(manifest.len, 250);
        let restored = ShardedIndex::restore(&dir).unwrap();
        assert_eq!(restored.num_shards(), built.num_shards());
        assert_eq!(restored.shard_sizes(), built.shard_sizes());
        for qi in [0usize, 17, 101] {
            let q = ds.row(qi);
            for tau in [0u32, 4, 8] {
                assert_eq!(restored.search(q, tau), built.search(q, tau), "qi={qi} tau={tau}");
            }
            assert_eq!(restored.search_topk(q, 7), built.search_topk(q, 7), "qi={qi}");
            assert_eq!(restored.estimate_cost(q, 8), built.estimate_cost(q, 8), "qi={qi}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_roundtrips_pending_mutations() {
        let ds = random_dataset(48, 120, 305);
        let mut cfg = GphConfig::new(3, 8);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 6 };
        let built = ShardedIndex::build(&ds, 3, &cfg).unwrap();
        // Mutate: tombstones stay pending (no compaction forced).
        let extra = random_dataset(48, 3, 306);
        for id in [5u32, 60, 119] {
            assert!(built.delete(id));
        }
        built.insert(400, extra.row(0)).unwrap();
        built.upsert(10, extra.row(1)).unwrap();
        let dir = tmp_dir("pending");
        let manifest = built.snapshot(&dir).unwrap();
        assert_eq!(manifest.len, built.len());
        let restored = ShardedIndex::restore(&dir).unwrap();
        assert_eq!(restored.len(), built.len());
        for qi in [0usize, 10, 60] {
            let q = ds.row(qi);
            assert_eq!(restored.search(q, 8), built.search(q, 8), "qi={qi}");
        }
        // Mutations continue identically after restore.
        restored.insert(500, extra.row(2)).unwrap();
        built.insert(500, extra.row(2)).unwrap();
        assert_eq!(restored.search(extra.row(2), 2), built.search(extra.row(2), 2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_backed_restore_is_query_identical_and_pages_on_demand() {
        let ds = random_dataset(64, 220, 309);
        let mut cfg = GphConfig::new(4, 8);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 9 };
        let built = ShardedIndex::build(&ds, 3, &cfg).unwrap();
        let dir = tmp_dir("file_backed");
        built.snapshot(&dir).unwrap();
        let resident = ShardedIndex::restore(&dir).unwrap();
        let cold = ShardedIndex::restore_with_storage(
            &dir,
            StorageMode::FileBacked { budget_bytes: 64 * 1024 },
        )
        .unwrap();
        assert_eq!(cold.len(), resident.len());
        // Restore mapped the shard files without touching payloads.
        let fresh = cold.page_cache_stats().expect("file-backed shards report cache stats");
        assert_eq!(fresh.resident_bytes, 0, "restore reads no payload pages");
        assert!(resident.page_cache_stats().is_none(), "resident fleets have no page cache");
        for qi in [0usize, 33, 150] {
            let q = ds.row(qi);
            for tau in [0u32, 4, 8] {
                assert_eq!(cold.search(q, tau), resident.search(q, tau), "qi={qi} tau={tau}");
            }
            assert_eq!(cold.search_topk(q, 5), resident.search_topk(q, 5), "qi={qi}");
        }
        let used = cold.page_cache_stats().unwrap();
        assert!(used.hits + used.misses > 0, "queries page through the cache");
        // Mutations keep matching after a file-backed restore.
        let extra = random_dataset(64, 2, 310);
        cold.insert(900, extra.row(0)).unwrap();
        resident.insert(900, extra.row(0)).unwrap();
        assert_eq!(cold.delete(5), resident.delete(5));
        assert_eq!(cold.search(extra.row(0), 2), resident.search(extra.row(0), 2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_rejects_corrupt_shard_file() {
        let ds = random_dataset(32, 60, 302);
        let cfg = GphConfig { strategy: PartitionStrategy::Original, ..GphConfig::new(2, 4) };
        let built = ShardedIndex::build(&ds, 2, &cfg).unwrap();
        let dir = tmp_dir("corrupt_shard");
        let manifest = built.snapshot(&dir).unwrap();
        let victim = dir.join(manifest.shards[0].file_name());
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&victim, &bytes).unwrap();
        match ShardedIndex::restore(&dir) {
            Err(HammingError::Corrupt(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(_) => panic!("corrupt shard restored"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_rejects_corrupt_manifest_and_missing_files() {
        let ds = random_dataset(32, 50, 303);
        let cfg = GphConfig { strategy: PartitionStrategy::Original, ..GphConfig::new(2, 4) };
        let built = ShardedIndex::build(&ds, 2, &cfg).unwrap();
        let dir = tmp_dir("corrupt_manifest");
        let manifest = built.snapshot(&dir).unwrap();
        let mpath = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&mpath).unwrap();
        // Every byte is covered, header and footer included.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(matches!(decode_manifest(&bad), Err(HammingError::Corrupt(_))), "byte {i}");
        }
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&mpath, &bytes).unwrap();
        assert!(matches!(ShardedIndex::restore(&dir), Err(HammingError::Corrupt(_))));
        // Restore the good manifest but delete a shard file.
        built.snapshot(&dir).unwrap();
        std::fs::remove_file(dir.join(manifest.shards[1].file_name())).unwrap();
        assert!(ShardedIndex::restore(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retired_gphm_versions_are_rejected_as_unsupported() {
        // v1/v2 manifests were tagged-section containers: the reader
        // recognises the header and names the version.
        for version in [1u32, 2] {
            let mut old = [&MANIFEST_MAGIC[..], &version.to_le_bytes()].concat();
            old.extend_from_slice(b"whatever an old writer put here");
            match decode_manifest(&old).map(|_| ()) {
                Err(HammingError::Corrupt(msg)) => {
                    assert!(msg.contains(&format!("unsupported version {version}")), "{msg}")
                }
                other => panic!("v{version}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn snapshot_roundtrips_with_empty_slots() {
        // More shards than rows leaves empty slots with no files; they
        // restore as empty engines that accept inserts.
        let ds = random_dataset(32, 5, 304);
        let cfg = GphConfig { strategy: PartitionStrategy::Original, ..GphConfig::new(2, 4) };
        let built = ShardedIndex::build(&ds, 8, &cfg).unwrap();
        let dir = tmp_dir("sparse");
        let manifest = built.snapshot(&dir).unwrap();
        assert!(manifest.shards.len() < 8);
        let restored = ShardedIndex::restore(&dir).unwrap();
        assert_eq!(restored.num_shards(), 8);
        assert_eq!(restored.search(ds.row(0), 4), built.search(ds.row(0), 4));
        // An insert routed to a previously empty slot works.
        let extra = random_dataset(32, 40, 307);
        for id in 100..140u32 {
            restored.insert(id, extra.row((id - 100) as usize)).unwrap();
        }
        assert_eq!(restored.len(), 45);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_rejects_misrouted_ids() {
        // A shard file moved to the wrong slot passes its own CRC but
        // must fail the id-routing check.
        let ds = random_dataset(32, 60, 308);
        let cfg = GphConfig { strategy: PartitionStrategy::Original, ..GphConfig::new(2, 4) };
        let built = ShardedIndex::build(&ds, 2, &cfg).unwrap();
        let dir = tmp_dir("misrouted");
        let manifest = built.snapshot(&dir).unwrap();
        assert_eq!(manifest.shards.len(), 2);
        // Swap the two shard files and patch the manifest CRCs/rows to
        // match, leaving ids in slots they do not hash to.
        let a = std::fs::read(dir.join(manifest.shards[0].file_name())).unwrap();
        let b = std::fs::read(dir.join(manifest.shards[1].file_name())).unwrap();
        std::fs::write(dir.join(manifest.shards[0].file_name()), &b).unwrap();
        std::fs::write(dir.join(manifest.shards[1].file_name()), &a).unwrap();
        let mut swapped = manifest.clone();
        swapped.shards[0].crc = crc32(&b);
        swapped.shards[1].crc = crc32(&a);
        let rows0 = swapped.shards[0].rows;
        swapped.shards[0].rows = swapped.shards[1].rows;
        swapped.shards[1].rows = rows0;
        let engine0 = built.shards[0].read();
        std::fs::write(
            dir.join(MANIFEST_FILE),
            encode_manifest(&swapped, engine0.config(), engine0.segment_config()),
        )
        .unwrap();
        match ShardedIndex::restore(&dir) {
            Err(HammingError::Corrupt(msg)) => assert!(msg.contains("hashes to"), "{msg}"),
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(_) => panic!("misrouted ids restored"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
