//! Out-of-core correctness: a file-backed `SegmentedGph` — sealed
//! segments spilled to disk and served through an eviction-forcing page
//! cache — answers every query byte-identically to a fully resident
//! twin, across arbitrary interleavings of upsert / delete / seal /
//! compact and through a snapshot round-trip restored via the lazy
//! `load_with_storage` path.

use gph::coldstore::StorageMode;
use gph::engine::GphConfig;
use gph::partition_opt::PartitionStrategy;
use gph::segment::{crossover_rows, SegmentConfig, SegmentedGph};
use hamming_core::key::mix64;
use hamming_core::{BitVector, Dataset};
use proptest::prelude::*;

const DIM: usize = 40;
/// Ops draw ids from a small universe so deletes and upserts frequently
/// hit live rows (and frequently miss, exercising the no-op path).
const ID_UNIVERSE: u32 = 24;
/// 1-byte budget: the cache clamps to a single resident page, so any
/// sealed corpus beyond one page forces clock evictions mid-query.
const TINY_BUDGET: StorageMode = StorageMode::FileBacked { budget_bytes: 1 };

#[derive(Clone, Debug)]
enum Op {
    Upsert(u32, Vec<bool>),
    Delete(u32),
    Seal,
    Compact,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weighted choice via a selector: 0..5 upsert, 5..7 delete, 7 seal,
    // 8 compact.
    (0u8..9, 0..ID_UNIVERSE, prop::collection::vec(any::<bool>(), DIM)).prop_map(
        |(sel, id, bits)| match sel {
            0..=4 => Op::Upsert(id, bits),
            5 | 6 => Op::Delete(id),
            7 => Op::Seal,
            _ => Op::Compact,
        },
    )
}

fn cfg(seed: u64) -> GphConfig {
    let mut cfg = GphConfig::new(3, 8);
    cfg.strategy = PartitionStrategy::RandomShuffle { seed };
    cfg
}

fn words(bits: &[bool]) -> Vec<u64> {
    BitVector::from_bits(bits.iter().copied()).words().to_vec()
}

/// `n` pseudo-random `DIM`-bit rows drawn from `seed`.
fn bulk_rows(n: usize, seed: u64) -> Dataset {
    let row = |i: u64| (0..DIM as u64).map(move |b| mix64(seed ^ (i << 8 | b)) & 1 == 1);
    Dataset::from_vectors(DIM, (0..n as u64).map(|i| BitVector::from_bits(row(i))))
        .expect("well-formed rows")
}

/// Applies `op` to both engines and checks the mutation outcomes agree.
fn apply(hot: &mut SegmentedGph, cold: &mut SegmentedGph, op: &Op) {
    match op {
        Op::Upsert(id, bits) => {
            let row = words(bits);
            let a = hot.upsert(*id, &row).expect("resident upsert");
            let b = cold.upsert(*id, &row).expect("file-backed upsert");
            assert_eq!(a, b, "upsert({id}) outcome diverged");
        }
        Op::Delete(id) => {
            assert_eq!(hot.delete(*id), cold.delete(*id), "delete({id}) outcome diverged");
        }
        Op::Seal => {
            hot.seal().expect("resident seal");
            cold.seal().expect("file-backed seal");
        }
        Op::Compact => {
            hot.compact().expect("resident compact");
            cold.compact().expect("file-backed compact");
        }
    }
}

/// The file-backed engine must be indistinguishable from the resident
/// one through every read API.
fn assert_identical(hot: &SegmentedGph, cold: &SegmentedGph, queries: &[Vec<bool>]) {
    assert_eq!(cold.len(), hot.len());
    assert_eq!(cold.live_ids(), hot.live_ids());
    for id in hot.live_ids() {
        assert_eq!(cold.get(id), hot.get(id), "row {id} diverged");
    }
    for qbits in queries {
        let q = words(qbits);
        for tau in [0u32, 3, 8] {
            assert_eq!(cold.search(&q, tau), hot.search(&q, tau), "tau={tau}");
            assert_eq!(
                cold.search_with_distances(&q, tau),
                hot.search_with_distances(&q, tau),
                "tau={tau}"
            );
            assert_eq!(cold.estimate_cost(&q, tau), hot.estimate_cost(&q, tau), "tau={tau}");
        }
        for k in [1usize, 5] {
            assert_eq!(cold.search_topk(&q, k), hot.search_topk(&q, k), "k={k}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any interleaving of upsert/delete/seal/compact leaves a
    /// file-backed engine query-for-query equal to a resident one, even
    /// with the page cache squeezed to a single page.
    #[test]
    fn file_backed_engine_matches_resident(
        ops in prop::collection::vec(op_strategy(), 1..40),
        queries in prop::collection::vec(prop::collection::vec(any::<bool>(), DIM), 1..4),
        seal_rows in 1usize..6,
        max_sealed in 1usize..4,
        seed in any::<u64>(),
    ) {
        // Both engines start from one bulk-loaded GPH segment at the
        // crossover, which the ops never shrink (their ids lie below
        // it), so every merge into it stays GPH and there is always a
        // paged segment; the ops' own seals freeze slabs.
        let cfg = cfg(seed);
        let base = bulk_rows(crossover_rows(DIM, cfg.m, cfg.tau_max), seed);
        let ids: Vec<u32> = (ID_UNIVERSE..ID_UNIVERSE + base.len() as u32).collect();
        let mut hot = SegmentedGph::build_sealed(
            base.clone(),
            ids.clone(),
            cfg.clone(),
            SegmentConfig { seal_rows, max_sealed, ..SegmentConfig::default() },
        ).expect("resident engine");
        let mut cold = SegmentedGph::build_sealed(
            base,
            ids,
            cfg,
            SegmentConfig { seal_rows, max_sealed, storage: TINY_BUDGET },
        ).expect("file-backed engine");
        for op in &ops {
            apply(&mut hot, &mut cold, op);
        }
        assert_identical(&hot, &cold, &queries);
        let stats = cold.page_cache_stats().expect("sealed cold segments have a cache");
        prop_assert!(stats.hits + stats.misses > 0, "queries never paged");
    }

    /// The same equivalence holds when the file-backed engine is a lazy
    /// `load_with_storage` restore of the resident engine's snapshot —
    /// and keeps holding under further mutations, with the re-serialized
    /// snapshot staying byte-identical until the first mutation.
    #[test]
    fn lazily_restored_engine_matches_resident(
        ops_before in prop::collection::vec(op_strategy(), 1..25),
        ops_after in prop::collection::vec(op_strategy(), 0..15),
        queries in prop::collection::vec(prop::collection::vec(any::<bool>(), DIM), 1..3),
        seal_rows in 1usize..6,
        seed in any::<u64>(),
    ) {
        let cfg = cfg(seed);
        let seg_cfg = SegmentConfig { seal_rows, max_sealed: 2, ..SegmentConfig::default() };
        let mut hot = SegmentedGph::new(DIM, cfg, seg_cfg).expect("resident engine");
        // Drive the resident engine alone; the cold twin enters via the
        // snapshot below.
        for op in &ops_before {
            apply_single(&mut hot, op);
        }
        let path = std::env::temp_dir().join(format!(
            "gph-coldprop-{}-{}.gphs",
            std::process::id(),
            seed,
        ));
        hot.save(&path).expect("save snapshot");
        let mut cold = SegmentedGph::load_with_storage(&path, TINY_BUDGET)
            .expect("lazy file-backed restore");
        // Before any payload is paged, re-serialization must be
        // byte-identical to the file on disk (blobs stream verbatim).
        prop_assert_eq!(
            cold.to_bytes().expect("re-serialize"),
            std::fs::read(&path).expect("read snapshot back")
        );
        assert_identical(&hot, &cold, &queries);
        for op in &ops_after {
            apply(&mut hot, &mut cold, op);
        }
        assert_identical(&hot, &cold, &queries);
        std::fs::remove_file(&path).ok();
    }
}

/// Applies `op` to one engine (the resident driver of the restore test).
fn apply_single(engine: &mut SegmentedGph, op: &Op) {
    match op {
        Op::Upsert(id, bits) => {
            engine.upsert(*id, &words(bits)).expect("upsert");
        }
        Op::Delete(id) => {
            engine.delete(*id);
        }
        Op::Seal => engine.seal().expect("seal"),
        Op::Compact => engine.compact().expect("compact"),
    }
}

/// A tiny sealed snapshot plus the byte length of its footer (slot
/// table + trailer), read back from the trailer itself.
fn sealed_snapshot_bytes() -> (Vec<u8>, usize) {
    let mut cfg = GphConfig::new(3, 8);
    cfg.strategy = PartitionStrategy::RandomShuffle { seed: 11 };
    let mut eng = SegmentedGph::new(
        DIM,
        cfg,
        SegmentConfig { seal_rows: 4, max_sealed: 4, ..SegmentConfig::default() },
    )
    .expect("engine");
    for id in 0..12u32 {
        let bits: Vec<bool> = (0..DIM).map(|b| (id as usize + b).is_multiple_of(3)).collect();
        eng.upsert(id, &words(&bits)).expect("upsert");
    }
    eng.seal().expect("seal");
    let bytes = eng.to_bytes().expect("snapshot");
    // Trailer layout: version u32 | n_slots u32 | magic echo | crc | magic.
    let n_slots = u32::from_le_bytes(bytes[bytes.len() - 16..bytes.len() - 12].try_into().unwrap());
    let flen = hamming_core::io::footer_len(n_slots as usize);
    (bytes, flen)
}

/// Writes `bytes` to a temp file and attempts a file-backed load; the
/// file is removed either way.
fn try_cold_load(bytes: &[u8], tag: &str) -> Result<SegmentedGph, hamming_core::HammingError> {
    let path =
        std::env::temp_dir().join(format!("gph-coldcorrupt-{}-{tag}.gphs", std::process::id()));
    std::fs::write(&path, bytes).expect("write corrupted snapshot");
    let out = SegmentedGph::load_with_storage(&path, TINY_BUDGET);
    std::fs::remove_file(&path).ok();
    out
}

/// Exhaustive sweep: inverting any single byte of the v3 header or
/// footer makes the lazy (cold) open fail with `Corrupt` — never a
/// panic, a huge allocation, or a silently wrong mapping — as it does
/// the resident decode. The footer checksum covers the slot table and
/// the trailer fields, and the header must equal the footer's echo of
/// it, so no flip can hide.
#[test]
fn every_footer_byte_flip_is_rejected_by_the_cold_open() {
    let (bytes, flen) = sealed_snapshot_bytes();
    assert!(try_cold_load(&bytes, "pristine").is_ok(), "pristine snapshot must load");
    let header = 0..hamming_core::io::OFFSET_HEADER_LEN;
    for i in header.chain(bytes.len() - flen..bytes.len()) {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0xFF;
        for (path, got) in [
            ("cold", try_cold_load(&corrupt, "sweep")),
            ("resident", SegmentedGph::from_bytes(&corrupt)),
        ] {
            match got {
                Err(hamming_core::HammingError::Corrupt(_)) => {}
                Err(other) => panic!("{path} byte {i}: expected Corrupt, got {other}"),
                Ok(_) => panic!("{path} byte {i}: corruption loaded cleanly"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single-bit flips anywhere in the v3 footer are likewise rejected
    /// by the cold open (the byte sweep above inverts whole bytes; bit
    /// flips are the subtler corruption).
    #[test]
    fn footer_bit_flips_are_rejected_by_the_cold_open(pos in any::<u32>(), bit in 0u8..8) {
        let (bytes, flen) = sealed_snapshot_bytes();
        let i = bytes.len() - flen + (pos as usize % flen);
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 1 << bit;
        match try_cold_load(&corrupt, "bitflip") {
            Err(hamming_core::HammingError::Corrupt(_)) => {}
            Err(other) => panic!("footer byte {i} bit {bit}: expected Corrupt, got {other}"),
            Ok(_) => panic!("footer byte {i} bit {bit}: corruption loaded cleanly"),
        }
    }
}
