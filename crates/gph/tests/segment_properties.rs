//! Segmented-engine correctness: across arbitrary interleavings of
//! insert / delete / upsert / seal / compact — and through a
//! snapshot/restore round-trip — `SegmentedGph` answers every query
//! exactly like a fresh `Gph` built over the surviving rows.

use gph::engine::{Gph, GphConfig};
use gph::partition_opt::PartitionStrategy;
use gph::segment::{SegmentConfig, SegmentedGph};
use hamming_core::{hamming, BitVector, Dataset};
use proptest::prelude::*;
use std::collections::BTreeMap;

const DIM: usize = 40;
/// Ops draw ids from a small universe so deletes and upserts frequently
/// hit live rows (and frequently miss, exercising the no-op path).
const ID_UNIVERSE: u32 = 24;

#[derive(Clone, Debug)]
enum Op {
    Upsert(u32, Vec<bool>),
    Delete(u32),
    Seal,
    Compact,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weighted choice via a selector (the vendored proptest shim has no
    // prop_oneof!): 0..5 upsert, 5..7 delete, 7 seal, 8 compact.
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
    // RandomShuffle keeps build time trivial; exactness is
    // partitioning-independent so any strategy exercises the merge.
    cfg.strategy = PartitionStrategy::RandomShuffle { seed };
    cfg
}

fn words(bits: &[bool]) -> Vec<u64> {
    BitVector::from_bits(bits.iter().copied()).words().to_vec()
}

/// Applies `op` to both the engine and the reference model.
fn apply(engine: &mut SegmentedGph, model: &mut BTreeMap<u32, Vec<u64>>, op: &Op) {
    match op {
        Op::Upsert(id, bits) => {
            let row = words(bits);
            let replaced = engine.upsert(*id, &row).expect("upsert");
            assert_eq!(replaced, model.insert(*id, row).is_some());
        }
        Op::Delete(id) => {
            assert_eq!(engine.delete(*id), model.remove(id).is_some());
        }
        Op::Seal => engine.seal().expect("seal"),
        Op::Compact => engine.compact().expect("compact"),
    }
}

/// The reference: a fresh frozen engine over the model's surviving rows
/// (ascending id order), with local ids mapped back to external ids.
fn reference(model: &BTreeMap<u32, Vec<u64>>, cfg: &GphConfig) -> Option<(Gph, Vec<u32>)> {
    if model.is_empty() {
        return None;
    }
    let mut ds = Dataset::new(DIM);
    let mut ids = Vec::with_capacity(model.len());
    for (&id, row) in model {
        ds.push_row(row).expect("model rows are well-formed");
        ids.push(id);
    }
    Some((Gph::build(ds, cfg).expect("build reference"), ids))
}

fn assert_equivalent(
    engine: &SegmentedGph,
    model: &BTreeMap<u32, Vec<u64>>,
    cfg: &GphConfig,
    queries: &[Vec<bool>],
) {
    let fresh = reference(model, cfg);
    for qbits in queries {
        let q = words(qbits);
        for tau in [0u32, 3, 8] {
            let got = engine.search(&q, tau);
            let expect = match &fresh {
                None => Vec::new(),
                Some((g, ids)) => g.search(&q, tau).into_iter().map(|l| ids[l as usize]).collect(),
            };
            assert_eq!(got, expect, "tau={tau}");
        }
        for k in [0usize, 1, 5, model.len() + 1] {
            for cap in [0u32, 3, 8] {
                let got = engine.search_topk_within(&q, k, cap);
                assert_eq!(got, brute_force_topk(model, &q, k, cap), "k={k} cap={cap}");
            }
        }
    }
}

/// Top-k by brute force over the model: the live rows within `cap`,
/// sorted by `(distance, id)`, truncated to `k`.
fn brute_force_topk(
    model: &BTreeMap<u32, Vec<u64>>,
    q: &[u64],
    k: usize,
    cap: u32,
) -> Vec<(u32, u32)> {
    let mut hits: Vec<(u32, u32)> =
        model.iter().map(|(&id, row)| (id, hamming(row, q))).filter(|&(_, d)| d <= cap).collect();
    hits.sort_unstable_by_key(|&(id, d)| (d, id));
    hits.truncate(k);
    hits
}

/// One sealed segment with most of its rows tombstoned, and `k` above
/// its live rows: a top-k taken per segment would need to over-fetch
/// past the dead rows to find `k` live ones.
#[test]
fn topk_past_a_mostly_dead_segment_is_exact() {
    let cfg = cfg(7);
    let seg_cfg = SegmentConfig { seal_rows: 64, max_sealed: 4 };
    let mut engine = SegmentedGph::new(DIM, cfg.clone(), seg_cfg).expect("new engine");
    let mut model: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    // Row `id` lies `id % 8` bits from the query, inside every cap but
    // the smallest: 40 sealed rows, then 6 in the memtable.
    let q = words(&[false; DIM]);
    for id in 0..46u32 {
        let bits: Vec<bool> = (0..DIM).map(|b| b < id as usize % 8).collect();
        apply(&mut engine, &mut model, &Op::Upsert(id, bits));
        if id == 39 {
            apply(&mut engine, &mut model, &Op::Seal);
        }
    }
    // Kill 36 of the segment's 40 rows, nearest first, so the dead rows
    // would fill any per-segment top-k.
    let mut sealed: Vec<(u32, u32)> = (0..40u32).map(|id| (id, hamming(&model[&id], &q))).collect();
    sealed.sort_unstable_by_key(|&(id, d)| (d, id));
    for &(id, _) in &sealed[..36] {
        apply(&mut engine, &mut model, &Op::Delete(id));
    }
    assert_eq!(engine.num_sealed(), 1, "fixture: the segment keeps its 4 live rows");
    assert_eq!(engine.len(), 10);
    for k in [1usize, 4, 5, 8, 10, 11] {
        for cap in [0u32, 3, 8] {
            let got = engine.search_topk_within(&q, k, cap);
            assert_eq!(got, brute_force_topk(&model, &q, k, cap), "k={k} cap={cap}");
        }
    }
    assert_equivalent(&engine, &model, &cfg, &[vec![false; DIM], vec![true; DIM]]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any interleaving of upsert/delete/seal/compact leaves the engine
    /// query-for-query equal to a fresh frozen engine over the survivors.
    #[test]
    fn segmented_engine_matches_fresh_engine(
        ops in prop::collection::vec(op_strategy(), 1..40),
        queries in prop::collection::vec(prop::collection::vec(any::<bool>(), DIM), 1..4),
        seal_rows in 1usize..6,
        max_sealed in 1usize..4,
        seed in any::<u64>(),
    ) {
        let cfg = cfg(seed);
        let seg_cfg = SegmentConfig { seal_rows, max_sealed };
        let mut engine = SegmentedGph::new(DIM, cfg.clone(), seg_cfg).expect("new engine");
        let mut model: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for op in &ops {
            apply(&mut engine, &mut model, op);
        }
        assert_equivalent(&engine, &model, &cfg, &queries);
    }

    /// The same equivalence holds through a snapshot/restore round-trip
    /// taken mid-sequence (with whatever tombstones were pending), and
    /// the restored engine keeps behaving identically under the rest of
    /// the ops.
    #[test]
    fn segmented_engine_matches_after_snapshot_roundtrip(
        ops_before in prop::collection::vec(op_strategy(), 1..25),
        ops_after in prop::collection::vec(op_strategy(), 0..15),
        queries in prop::collection::vec(prop::collection::vec(any::<bool>(), DIM), 1..3),
        seal_rows in 1usize..6,
        seed in any::<u64>(),
    ) {
        let cfg = cfg(seed);
        let seg_cfg = SegmentConfig { seal_rows, max_sealed: 2 };
        let mut engine = SegmentedGph::new(DIM, cfg.clone(), seg_cfg).expect("new engine");
        let mut model: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for op in &ops_before {
            apply(&mut engine, &mut model, op);
        }
        let bytes = engine.to_bytes().expect("snapshot");
        let mut restored = SegmentedGph::from_bytes(&bytes).expect("snapshot round-trip");
        prop_assert_eq!(restored.len(), engine.len());
        prop_assert_eq!(restored.live_ids(), engine.live_ids());
        assert_equivalent(&restored, &model, &cfg, &queries);
        for op in &ops_after {
            apply(&mut restored, &mut model, op);
        }
        assert_equivalent(&restored, &model, &cfg, &queries);
    }
}
