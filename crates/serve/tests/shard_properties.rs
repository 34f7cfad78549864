//! Shard-merge correctness: scatter-gather over any shard count returns
//! exactly what one engine over the unsharded data returns.

use gph::engine::{Gph, GphConfig};
use gph::partition_opt::PartitionStrategy;
use gph_serve::ShardedIndex;
use hamming_core::{BitVector, Dataset};
use proptest::prelude::*;

const DIM: usize = 48;
/// The engines' `tau_max`: `search_topk`'s escalation cap.
const TAU_MAX: u32 = 10;

fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    prop::collection::vec(prop::collection::vec(any::<bool>(), DIM), 1..120).prop_map(|rows| {
        Dataset::from_vectors(DIM, rows.iter().map(|r| BitVector::from_bits(r.iter().copied())))
            .expect("uniform width")
    })
}

fn cfg(seed: u64) -> GphConfig {
    let mut cfg = GphConfig::new(3, TAU_MAX as usize);
    // RandomShuffle keeps build time trivial; exactness is
    // partitioning-independent so any strategy exercises the merge.
    cfg.strategy = PartitionStrategy::RandomShuffle { seed };
    cfg
}

/// Top-k by linear scan: every row within `cap`, sorted by
/// `(distance, id)`, truncated to `k`.
fn scan_topk(ds: &Dataset, q: &[u64], k: usize, cap: u32) -> Vec<(u32, u32)> {
    let mut hits: Vec<(u32, u32)> =
        ds.linear_scan(q, cap).into_iter().map(|id| (id, ds.distance_to(id as usize, q))).collect();
    hits.sort_unstable_by_key(|&(id, d)| (d, id));
    hits.truncate(k);
    hits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Range search over 1..=8 shards returns exactly the ID set of a
    /// single index on the same data.
    #[test]
    fn sharded_range_search_is_exact(
        ds in dataset_strategy(),
        n_shards in 1usize..=8,
        tau in 0u32..=10,
        qi in any::<prop::sample::Index>(),
        seed in any::<u64>(),
    ) {
        let single = Gph::build(ds.clone(), &cfg(seed)).expect("build single");
        let sharded = ShardedIndex::build(&ds, n_shards, &cfg(seed)).expect("build sharded");
        let q = ds.row(qi.index(ds.len())).to_vec();
        prop_assert_eq!(sharded.search(&q, tau), single.search(&q, tau));
    }

    /// Top-k over 1..=8 shards returns exactly the (id, distance) pairs
    /// of a single index — same members, same order, same tie-breaks —
    /// at the full escalation radius and at every degraded cap.
    #[test]
    fn sharded_topk_is_exact(
        ds in dataset_strategy(),
        n_shards in 1usize..=8,
        k in 0usize..=24,
        tau_cap in 0u32..=10,
        qi in any::<prop::sample::Index>(),
        seed in any::<u64>(),
    ) {
        let single = Gph::build(ds.clone(), &cfg(seed)).expect("build single");
        let sharded = ShardedIndex::build(&ds, n_shards, &cfg(seed)).expect("build sharded");
        let q = ds.row(qi.index(ds.len())).to_vec();
        prop_assert_eq!(sharded.search_topk(&q, k), single.search_topk(&q, k));
        prop_assert_eq!(
            sharded.search_topk_within(&q, k, tau_cap),
            single.search_topk_within(&q, k, tau_cap)
        );
        // The engine runs the same escalation loop; linear scan does not.
        prop_assert_eq!(sharded.search_topk(&q, k), scan_topk(&ds, &q, k, TAU_MAX));
        prop_assert_eq!(sharded.search_topk_within(&q, k, tau_cap), scan_topk(&ds, &q, k, tau_cap));
    }

    /// Perturbed (non-member) queries are exact too, including queries
    /// far from every record.
    #[test]
    fn sharded_search_is_exact_for_foreign_queries(
        ds in dataset_strategy(),
        n_shards in 2usize..=8,
        qbits in prop::collection::vec(any::<bool>(), DIM),
        tau in 0u32..=10,
        seed in any::<u64>(),
    ) {
        let single = Gph::build(ds.clone(), &cfg(seed)).expect("build single");
        let sharded = ShardedIndex::build(&ds, n_shards, &cfg(seed)).expect("build sharded");
        let q = BitVector::from_bits(qbits.iter().copied());
        prop_assert_eq!(sharded.search(q.words(), tau), single.search(q.words(), tau));
        prop_assert_eq!(sharded.search_topk(q.words(), 7), single.search_topk(q.words(), 7));
    }
}
