//! The segment lifecycle on both sides of the crossover: seals freeze
//! row slabs, merges below `crossover_rows` write slabs and merges at or
//! above it build GPH segments. Whatever mix of slabs and GPH segments
//! that leaves — resident, file-backed, or restored from a snapshot
//! either way — every answer, distance and top-k equals a linear scan's.

use gph::coldstore::SpillStore;
use gph::engine::GphConfig;
use gph::partition_opt::PartitionStrategy;
use gph::segment::{crossover_rows, SegmentConfig, SegmentedGph};
use hamming_core::hamming;
use hamming_core::key::mix64;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const DIM: usize = 40;

/// A spill store whose page cache holds a few pages, so file-backed
/// reads evict.
fn cold_store() -> Arc<SpillStore> {
    SpillStore::temp(3 * 4096).expect("spill store")
}

/// `m = 8` parts of 5 bits and `τ_max = 8`: Lemma 1's split for
/// `τ_max / 2` probes one signature per part, so the crossover is a few
/// dozen rows and a short op stream crosses it both ways.
fn crossover_cfg(seed: u64) -> GphConfig {
    let mut cfg = GphConfig::new(8, 8);
    cfg.strategy = PartitionStrategy::RandomShuffle { seed };
    cfg
}

/// Every answer, distance and top-k of `engine` against a linear scan
/// of the model.
fn assert_matches_scan(
    engine: &SegmentedGph,
    model: &BTreeMap<u32, Vec<u64>>,
    queries: &[Vec<u64>],
    what: &str,
) {
    assert_eq!(engine.live_ids(), model.keys().copied().collect::<Vec<_>>(), "{what}");
    for q in queries {
        let near = |tau: u32| -> Vec<(u32, u32)> {
            let dist = model.iter().map(|(&id, row)| (id, hamming(row, q)));
            dist.filter(|&(_, d)| d <= tau).collect()
        };
        for tau in [0u32, 2, 5, 8] {
            let want = near(tau);
            let ids: Vec<u32> = want.iter().map(|&(id, _)| id).collect();
            assert_eq!(engine.search(q, tau), ids, "{what}: tau={tau}");
            assert_eq!(engine.search_with_distances(q, tau), want, "{what}: tau={tau}");
        }
        // Top-k within τ_max: the nearest by (distance, id).
        let mut ranked = near(8);
        ranked.sort_unstable_by_key(|&(id, d)| (d, id));
        for k in [1usize, 5, 20] {
            let want = &ranked[..k.min(ranked.len())];
            assert_eq!(engine.search_topk(q, k), want, "{what}: k={k}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Seals at any `seal_rows` up to the crossover, merges on both
    /// sides of it, deletes and explicit seals in between: resident and
    /// file-backed engines, and their snapshots restored resident and
    /// file-backed, all answer as a linear scan does — before and after
    /// a compaction past the crossover, and after one below it.
    #[test]
    fn seals_and_merges_across_the_crossover_match_linear_scan(
        seal_frac in 1usize..=8,
        max_sealed in 1usize..4,
        extra in 0usize..40,
        steps in prop::collection::vec(0u8..12, 200),
        seed in any::<u64>(),
    ) {
        let cfg = crossover_cfg(seed);
        let cross = crossover_rows(DIM, cfg.m, cfg.tau_max);
        let seal_rows = (cross * seal_frac / 8).max(1);
        let n = cross + cross / 2 + extra;
        // Rows near four centres, so range answers are not empty.
        let row = |i: usize| -> Vec<u64> {
            let centre = mix64(seed ^ (i % 4) as u64);
            let noise = mix64(seed.rotate_left(17) ^ i as u64) & mix64(i as u64 ^ 0x5EED);
            vec![(centre ^ (noise & mix64(noise))) & ((1 << DIM) - 1)]
        };
        let queries: Vec<Vec<u64>> = (0..6).map(|i| row(i * 13 + 1)).collect();
        let seg_cfg = SegmentConfig { seal_rows, max_sealed };
        let mut hot = SegmentedGph::new(DIM, cfg.clone(), seg_cfg).expect("resident engine");
        let mut cold = SegmentedGph::new_file_backed(DIM, cfg, seg_cfg, cold_store())
            .expect("file-backed engine");
        let mut model: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for i in 0..n {
            let id = i as u32;
            for engine in [&mut hot, &mut cold] {
                engine.insert(id, &row(i)).expect("insert");
            }
            model.insert(id, row(i));
            match steps[i % steps.len()] {
                0 => {
                    let victim = (i * 7 % (i + 1)) as u32;
                    let live = model.remove(&victim).is_some();
                    prop_assert_eq!(hot.delete(victim), live);
                    prop_assert_eq!(cold.delete(victim), live);
                }
                1 => {
                    hot.seal().expect("seal");
                    cold.seal().expect("seal");
                }
                _ => {}
            }
        }
        let check = |hot: &SegmentedGph, cold: &SegmentedGph, model: &BTreeMap<u32, Vec<u64>>| {
            assert_matches_scan(hot, model, &queries, "resident");
            assert_matches_scan(cold, model, &queries, "file-backed");
            let restored = SegmentedGph::from_bytes(&cold.to_bytes().expect("snapshot"));
            assert_matches_scan(&restored.expect("restore"), model, &queries, "from_bytes");
            let path = std::env::temp_dir()
                .join(format!("gph-crossprop-{}-{seed}.gphs", std::process::id()));
            hot.save(&path).expect("save");
            let mapped =
                SegmentedGph::open_file_backed(&path, cold_store()).expect("mapped restore");
            assert_matches_scan(&mapped, model, &queries, "open_file_backed");
            std::fs::remove_file(&path).ok();
        };
        check(&hot, &cold, &model);

        // At most a tenth of the rows were deleted: a full compaction
        // builds GPH, and the file-backed engine pages it.
        prop_assert!(model.len() >= cross);
        hot.compact().expect("compact");
        cold.compact().expect("compact");
        let lookups = |e: &SegmentedGph| e.page_cache_stats().map(|s| s.hits + s.misses);
        let before = lookups(&cold);
        cold.search(&queries[0], 8);
        prop_assert!(lookups(&cold) > before, "a GPH build past the crossover pages");
        check(&hot, &cold, &model);

        // Below the crossover a compaction leaves a slab.
        let doomed: Vec<u32> = model.keys().copied().skip(cross / 2).collect();
        for id in doomed {
            model.remove(&id);
            prop_assert!(hot.delete(id) && cold.delete(id));
        }
        hot.compact().expect("compact");
        cold.compact().expect("compact");
        check(&hot, &cold, &model);
    }
}
