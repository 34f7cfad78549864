//! Row-sharded GPH: scatter-gather over `S` independent live-updatable
//! engines.
//!
//! [`ShardedIndex`] routes every record to one of `S` shards by a stable
//! hash of its ID and keeps one [`SegmentedGph`] per shard — so the fleet
//! serves `insert`/`delete`/`upsert` as well as queries. Each shard sits
//! behind its own `RwLock`: a query visits the shards in order on its own
//! thread under shared locks (different queries run on different cores —
//! the service's worker pool is where query parallelism is configured), a
//! mutation takes the write lock of exactly the one shard that owns the
//! ID. Range search merges trivially (shards partition the live rows,
//! so the gather is a sort). Top-k is the engine's one escalation loop
//! ([`gph::topk_by_escalation`]) over that same sharded range search:
//! τ grows until the shards together hold `k` rows, so results are
//! **identical** to a single engine over the surviving rows — the
//! shard-merge and mutation property tests pin this down.

use gph::coldstore::PageCacheStats;
use gph::engine::{GphConfig, QueryStats};
use gph::segment::{SegmentConfig, SegmentedGph};
use gph::topk_by_escalation;
use gph_obs::{QueryTrace, ShardTrace};
use hamming_core::error::{HammingError, Result};
use hamming_core::key::mix64;
use hamming_core::{words_for, Dataset};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Per-record shard members for a fleet of `(len, n_shards)` — the pure
/// function of the stable id hash that bulk build derives its row routing
/// from (record id = row index at build time).
pub(crate) fn shard_members(len: usize, n_shards: usize) -> Vec<Vec<u32>> {
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); n_shards];
    for id in 0..len {
        members[ShardedIndex::shard_of(id as u32, n_shards)].push(id as u32);
    }
    members
}

/// A GPH index sharded by record id, queried scatter-gather and mutated
/// one shard at a time.
pub struct ShardedIndex {
    /// One live-updatable engine per shard slot (empty slots hold empty
    /// engines so inserts can route anywhere).
    pub(crate) shards: Vec<RwLock<SegmentedGph>>,
    pub(crate) n_shards: usize,
    pub(crate) words_per_vec: usize,
    pub(crate) dim: usize,
    pub(crate) tau_max: usize,
    /// Live records, maintained by the mutation paths so `len()` never
    /// has to take all `S` shard locks just to sum counts.
    live: AtomicUsize,
}

/// What an insert or upsert did to the live set ([`ShardedIndex::write`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Written {
    /// The row went live.
    pub inserted: bool,
    /// A live row with that id stopped being live.
    pub removed: bool,
}

/// Scatter-gather search output: merged global IDs plus one aggregated
/// [`QueryStats`] per shard, in shard order.
#[derive(Clone, Debug)]
pub struct ShardedSearchResult {
    /// Matching global record IDs, ascending.
    pub ids: Vec<u32>,
    /// Per-shard instrumentation from the scatter phase (summed across
    /// each shard's segments).
    pub shard_stats: Vec<QueryStats>,
}

impl ShardedIndex {
    /// Shard assignment: stable splitmix64 hash of the record ID. Stable
    /// across runs and independent of insertion order, so a record always
    /// lands on the same shard for a fixed shard count.
    #[inline]
    pub fn shard_of(id: u32, n_shards: usize) -> usize {
        (mix64(id as u64) % n_shards.max(1) as u64) as usize
    }

    /// Splits `data` into `n_shards` shards (record id = row index) and
    /// bulk-builds one sealed [`SegmentedGph`] per shard in parallel.
    /// Every engine shares `cfg`, so `tau_max` and the allocation
    /// machinery are uniform across shards.
    pub fn build(data: &Dataset, n_shards: usize, cfg: &GphConfig) -> Result<Self> {
        Self::build_with_segments(data, n_shards, cfg, SegmentConfig::default())
    }

    /// [`ShardedIndex::build`] with explicit segment-lifecycle knobs
    /// (seal threshold and compaction fan-out) for the per-shard engines.
    pub fn build_with_segments(
        data: &Dataset,
        n_shards: usize,
        cfg: &GphConfig,
        seg_cfg: SegmentConfig,
    ) -> Result<Self> {
        let n_shards = n_shards.max(1);
        let members = shard_members(data.len(), n_shards);
        let mut subsets: Vec<(Dataset, Vec<u32>)> = Vec::with_capacity(n_shards);
        for ids in members {
            let mut sub = Dataset::with_capacity(data.dim(), ids.len());
            for &id in &ids {
                sub.push_row_from(data, id as usize)?;
            }
            subsets.push((sub, ids));
        }
        let built: Vec<Result<SegmentedGph>> = std::thread::scope(|scope| {
            let handles: Vec<_> = subsets
                .into_iter()
                .map(|(sub, global_ids)| {
                    scope.spawn(move || {
                        SegmentedGph::build_sealed(sub, global_ids, cfg.clone(), seg_cfg)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard builders never panic")).collect()
        });
        let engines = built.into_iter().collect::<Result<Vec<_>>>()?;
        let live = engines.iter().map(SegmentedGph::len).sum();
        Ok(ShardedIndex {
            shards: engines.into_iter().map(RwLock::new).collect(),
            n_shards,
            words_per_vec: data.words_per_vec(),
            dim: data.dim(),
            tau_max: cfg.tau_max,
            live: AtomicUsize::new(live),
        })
    }

    /// Assembles an index from pre-built shard engines (the restore
    /// path). Engines must agree on dimensionality and `tau_max`.
    pub(crate) fn from_shards(shards: Vec<SegmentedGph>, dim: usize, tau_max: usize) -> Self {
        let n_shards = shards.len();
        let live = shards.iter().map(SegmentedGph::len).sum();
        ShardedIndex {
            shards: shards.into_iter().map(RwLock::new).collect(),
            n_shards,
            words_per_vec: words_for(dim),
            dim,
            tau_max,
            live: AtomicUsize::new(live),
        }
    }

    /// Shard count.
    pub fn num_shards(&self) -> usize {
        self.n_shards
    }

    /// Live records across all shards (O(1): maintained by the mutation
    /// paths).
    pub fn len(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Whether the index holds no live records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of the indexed vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Largest threshold the engines serve.
    pub fn tau_max(&self) -> usize {
        self.tau_max
    }

    /// Live rows per shard slot.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.read().len()).collect()
    }

    /// Sealed-segment counts per shard slot (compaction diagnostics).
    pub fn segment_counts(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.read().num_sealed()).collect()
    }

    /// Summed heap size of all shard engines. Under
    /// [`gph::coldstore::StorageMode::FileBacked`] this excludes paged blob bytes, which
    /// [`ShardedIndex::page_cache_stats`] accounts separately.
    pub fn size_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.read().size_bytes()).sum()
    }

    /// Summed page-cache counters across all file-backed shards; `None`
    /// when every shard is fully resident.
    pub fn page_cache_stats(&self) -> Option<PageCacheStats> {
        let mut agg: Option<PageCacheStats> = None;
        for shard in &self.shards {
            if let Some(s) = shard.read().page_cache_stats() {
                let a = agg.get_or_insert_with(PageCacheStats::default);
                a.hits += s.hits;
                a.misses += s.misses;
                a.evictions += s.evictions;
                a.resident_bytes += s.resident_bytes;
            }
        }
        agg
    }

    /// Whether `id` is live.
    pub fn contains(&self, id: u32) -> bool {
        self.shards[Self::shard_of(id, self.n_shards)].read().contains(id)
    }

    // -----------------------------------------------------------------
    // Mutations
    // -----------------------------------------------------------------

    fn check_row(&self, row: &[u64]) -> Result<()> {
        if row.len() != self.words_per_vec {
            return Err(HammingError::InvalidParameter(format!(
                "row has {} words, {}-dimensional rows take {}",
                row.len(),
                self.dim,
                self.words_per_vec
            )));
        }
        Ok(())
    }

    /// Inserts `row` under `id` on its shard. Errors if `id` is live.
    pub fn insert(&self, id: u32, row: &[u64]) -> Result<()> {
        self.write(id, row, false).1
    }

    /// Tombstones `id`; returns whether it was live.
    pub fn delete(&self, id: u32) -> bool {
        let was_live = self.shards[Self::shard_of(id, self.n_shards)].write().delete(id);
        if was_live {
            self.live.fetch_sub(1, Ordering::Relaxed);
        }
        was_live
    }

    /// Inserts `row` under `id`, replacing any live row with that id.
    /// Returns whether a replacement happened.
    pub fn upsert(&self, id: u32, row: &[u64]) -> Result<bool> {
        let (written, result) = self.write(id, row, true);
        result.map(|()| written.removed)
    }

    /// The one insert (`replace == false`) / upsert path. Reports what
    /// the write did to the live set *beside* the engine's `Result`: a
    /// seal whose merge fails still leaves the row live — and, for an upsert, the
    /// old row tombstoned (the engine documents both) — so the live
    /// count here and the service's cache invalidation go by the engine's
    /// own state, read under the shard's write lock, not by the `Result`.
    pub(crate) fn write(&self, id: u32, row: &[u64], replace: bool) -> (Written, Result<()>) {
        if let Err(e) = self.check_row(row) {
            return (Written::default(), Err(e));
        }
        let mut engine = self.shards[Self::shard_of(id, self.n_shards)].write();
        let was_live = engine.contains(id);
        let result =
            if replace { engine.upsert(id, row).map(drop) } else { engine.insert(id, row) };
        // The row is well-formed, so an upsert tombstoned a live `id`
        // whatever happened next; and the row went live unless the engine
        // refused it outright (a plain insert of a live id).
        let removed = replace && was_live;
        let inserted = engine.contains(id) && (replace || !was_live);
        if inserted {
            self.live.fetch_add(1, Ordering::Relaxed);
        }
        if removed {
            self.live.fetch_sub(1, Ordering::Relaxed);
        }
        (Written { inserted, removed }, result)
    }

    /// Estimated cost of inserting `id` next (the owning shard's memtable
    /// append, plus a seal when one would trigger) — the admission
    /// controller's mutation-pricing signal.
    pub fn next_insert_cost(&self, id: u32) -> f64 {
        self.shards[Self::shard_of(id, self.n_shards)].read().next_insert_cost()
    }

    /// Estimated cost of deleting `id` (lookup + tombstone flip).
    pub fn delete_cost(&self, id: u32) -> f64 {
        self.shards[Self::shard_of(id, self.n_shards)].read().delete_cost()
    }

    // -----------------------------------------------------------------
    // Queries
    // -----------------------------------------------------------------

    /// All live global IDs within `tau` of `query`, ascending — identical
    /// to a single engine over the surviving rows.
    pub fn search(&self, query: &[u64], tau: u32) -> Vec<u32> {
        self.search_with_stats(query, tau).ids
    }

    /// Scatter-gather range search with per-shard instrumentation.
    pub fn search_with_stats(&self, query: &[u64], tau: u32) -> ShardedSearchResult {
        self.gather(query, tau, None)
    }

    /// [`ShardedIndex::search_with_stats`] plus a structured
    /// [`QueryTrace`]: per-phase wall time and counters for every
    /// segment of every shard, shard-local wall clocks, and the total
    /// scatter-gather wall clock. Both run the one gather; untraced, it
    /// pays one branch per shard for tracing, and reads no clock.
    pub fn search_traced(&self, query: &[u64], tau: u32) -> (ShardedSearchResult, QueryTrace) {
        let t0 = Instant::now();
        let mut shards = Vec::with_capacity(self.n_shards);
        let res = self.gather(query, tau, Some(&mut shards));
        let total_ns = t0.elapsed().as_nanos() as u64;
        (res, QueryTrace { tau, total_ns, shards, ..QueryTrace::default() })
    }

    /// The one range gather: each shard's search under its read lock, in
    /// shard order on the calling thread (spawning a thread per shard
    /// costs more than the tens-of-µs search it would parallelise, and
    /// the service's worker pool already runs different queries on
    /// different cores). Shards hold disjoint id sets, so the gather is
    /// a sort, not a dedup. With `traces`, each shard's segments are
    /// traced and its search timed into one [`ShardTrace`].
    fn gather(
        &self,
        query: &[u64],
        tau: u32,
        mut traces: Option<&mut Vec<ShardTrace>>,
    ) -> ShardedSearchResult {
        self.assert_query(query, tau as usize);
        let mut ids: Vec<u32> = Vec::new();
        let mut shard_stats = Vec::with_capacity(self.n_shards);
        for (shard, engine) in self.shards.iter().enumerate() {
            let engine = engine.read();
            let (shard_ids, stats) = match traces.as_deref_mut() {
                None => engine.search_with_stats(query, tau),
                Some(traces) => {
                    let t = Instant::now();
                    let mut segments = Vec::new();
                    let res = engine.search_with_trace(query, tau, Some(&mut segments));
                    let total_ns = t.elapsed().as_nanos() as u64;
                    traces.push(ShardTrace { shard: shard as u32, total_ns, segments });
                    res
                }
            };
            ids.extend(shard_ids);
            shard_stats.push(stats);
        }
        ids.sort_unstable();
        ShardedSearchResult { ids, shard_stats }
    }

    /// The `k` nearest live records by exact Hamming distance (ties
    /// broken by ID), considering records within `tau_max` — identical
    /// output to [`gph::Gph::search_topk`] on the surviving rows.
    ///
    /// [`gph::topk_by_escalation`] over the sharded range search with
    /// distances: each round gathers every shard's live rows within τ,
    /// and the first τ holding `k` of them holds the global top-`k`.
    pub fn search_topk(&self, query: &[u64], k: usize) -> Vec<(u32, u32)> {
        self.search_topk_within(query, k, self.tau_max as u32)
    }

    /// [`ShardedIndex::search_topk`] with the escalation radius capped at
    /// `tau_cap ≤ tau_max`. Admission control uses smaller caps as the
    /// degraded top-k mode.
    pub fn search_topk_within(&self, query: &[u64], k: usize, tau_cap: u32) -> Vec<(u32, u32)> {
        self.assert_query(query, tau_cap as usize);
        topk_by_escalation(k, tau_cap, |tau| {
            self.shards.iter().flat_map(|s| s.read().search_with_distances(query, tau)).collect()
        })
    }

    /// Summed per-shard cost estimate for `(query, tau)` — the admission
    /// controller's signal. Scatter-gather executes every shard, one
    /// after the other, so the service pays the *sum* of the shard costs.
    pub fn estimate_cost(&self, query: &[u64], tau: u32) -> f64 {
        self.assert_query(query, tau as usize);
        self.shards.iter().map(|s| s.read().estimate_cost(query, tau)).sum()
    }

    /// Panics unless `query` has the indexed width and `tau ≤ tau_max`.
    pub(crate) fn assert_query(&self, query: &[u64], tau: usize) {
        assert!(tau <= self.tau_max, "tau {tau} exceeds the configured tau_max {}", self.tau_max);
        assert_eq!(query.len(), self.words_per_vec, "query width mismatch with indexed data");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gph::engine::Gph;
    use gph::partition_opt::PartitionStrategy;
    use hamming_core::BitVector;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_dataset(dim: usize, n: usize, p: f64, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ds = Dataset::new(dim);
        for _ in 0..n {
            let v = BitVector::from_bits((0..dim).map(|_| rng.random_bool(p)));
            ds.push(&v).unwrap();
        }
        ds
    }

    fn test_cfg(m: usize, tau_max: usize) -> GphConfig {
        let mut cfg = GphConfig::new(m, tau_max);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 9 };
        cfg
    }

    #[test]
    fn shard_assignment_is_stable_and_total() {
        for n_shards in 1..=8 {
            let mut counts = vec![0usize; n_shards];
            for id in 0..1000u32 {
                let s = ShardedIndex::shard_of(id, n_shards);
                assert_eq!(s, ShardedIndex::shard_of(id, n_shards));
                counts[s] += 1;
            }
            assert_eq!(counts.iter().sum::<usize>(), 1000);
            if n_shards > 1 {
                // splitmix64 spreads ids; no shard should be empty at
                // 1000 records over ≤ 8 shards.
                assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
            }
        }
    }

    #[test]
    fn sharded_range_search_matches_single_index() {
        let ds = random_dataset(64, 400, 0.4, 101);
        let cfg = test_cfg(4, 8);
        let single = Gph::build(ds.clone(), &cfg).unwrap();
        for n_shards in [1usize, 3, 4, 7] {
            let sharded = ShardedIndex::build(&ds, n_shards, &cfg).unwrap();
            assert_eq!(sharded.len(), ds.len());
            for qi in [0usize, 17, 255] {
                let q = ds.row(qi);
                for tau in [0u32, 3, 8] {
                    assert_eq!(
                        sharded.search(q, tau),
                        single.search(q, tau),
                        "n_shards={n_shards} qi={qi} tau={tau}"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_topk_matches_single_index() {
        let ds = random_dataset(48, 300, 0.5, 102);
        let cfg = test_cfg(3, 12);
        let single = Gph::build(ds.clone(), &cfg).unwrap();
        for n_shards in [2usize, 5] {
            let sharded = ShardedIndex::build(&ds, n_shards, &cfg).unwrap();
            for qi in [1usize, 42] {
                let q = ds.row(qi);
                for k in [1usize, 4, 10, 50] {
                    assert_eq!(
                        sharded.search_topk(q, k),
                        single.search_topk(q, k),
                        "n_shards={n_shards} qi={qi} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn more_shards_than_rows() {
        let ds = random_dataset(32, 5, 0.5, 103);
        let cfg = test_cfg(2, 4);
        let sharded = ShardedIndex::build(&ds, 8, &cfg).unwrap();
        assert_eq!(sharded.num_shards(), 8);
        assert_eq!(sharded.shard_sizes().iter().sum::<usize>(), 5);
        let single = Gph::build(ds.clone(), &cfg).unwrap();
        assert_eq!(sharded.search(ds.row(0), 4), single.search(ds.row(0), 4));
        assert_eq!(sharded.search_topk(ds.row(0), 3), single.search_topk(ds.row(0), 3));
    }

    #[test]
    fn empty_dataset_serves_empty_results() {
        let ds = Dataset::new(32);
        let sharded = ShardedIndex::build(&ds, 4, &test_cfg(2, 4)).unwrap();
        assert!(sharded.is_empty());
        let q = vec![0u64; 1];
        assert!(sharded.search(&q, 4).is_empty());
        assert!(sharded.search_topk(&q, 3).is_empty());
        assert_eq!(sharded.estimate_cost(&q, 4), 0.0);
    }

    #[test]
    fn estimate_cost_sums_shards() {
        let ds = random_dataset(64, 500, 0.35, 104);
        let cfg = test_cfg(4, 8);
        let sharded = ShardedIndex::build(&ds, 3, &cfg).unwrap();
        let q = ds.row(0);
        let c = sharded.estimate_cost(q, 8);
        assert!(c.is_finite() && c >= 0.0);
        assert!(c >= sharded.estimate_cost(q, 2), "cost grows with tau");
    }

    #[test]
    fn mutations_route_to_the_owning_shard() {
        let ds = random_dataset(48, 120, 0.5, 105);
        let cfg = test_cfg(3, 8);
        let sharded = ShardedIndex::build(&ds, 4, &cfg).unwrap();
        let fresh = random_dataset(48, 3, 0.5, 106);
        // Insert three new records past the dense prefix.
        for (i, id) in [500u32, 501, 502].iter().enumerate() {
            sharded.insert(*id, fresh.row(i)).unwrap();
        }
        assert_eq!(sharded.len(), 123);
        assert!(sharded.contains(501));
        assert!(sharded.search(fresh.row(1), 0).contains(&501));
        // Delete one original and one new record.
        assert!(sharded.delete(0));
        assert!(sharded.delete(502));
        assert!(!sharded.delete(502), "second delete is a no-op");
        assert_eq!(sharded.len(), 121);
        assert!(!sharded.search(ds.row(0), 0).contains(&0));
        // Upsert replaces in place.
        assert!(sharded.upsert(501, fresh.row(2)).unwrap());
        assert!(sharded.search(fresh.row(2), 0).contains(&501));
        // Width mismatches error before touching any shard.
        assert!(sharded.insert(900, &[0u64; 3]).is_err());
        assert!(sharded.upsert(900, &[0u64; 3]).is_err());
    }

    #[test]
    fn mutated_index_matches_fresh_single_engine() {
        let ds = random_dataset(48, 150, 0.45, 107);
        let cfg = test_cfg(3, 8);
        let sharded = ShardedIndex::build(&ds, 3, &cfg).unwrap();
        // Delete a spread of ids, upsert a few, insert fresh ones.
        for id in [3u32, 50, 51, 149] {
            assert!(sharded.delete(id));
        }
        let extra = random_dataset(48, 4, 0.45, 108);
        sharded.upsert(10, extra.row(0)).unwrap();
        sharded.insert(300, extra.row(1)).unwrap();
        sharded.insert(301, extra.row(2)).unwrap();

        // Reference: a fresh engine over the surviving rows.
        let mut surviving = Vec::new();
        for id in 0..150u32 {
            if ![3u32, 50, 51, 149].contains(&id) {
                let row =
                    if id == 10 { extra.row(0).to_vec() } else { ds.row(id as usize).to_vec() };
                surviving.push((id, row));
            }
        }
        surviving.push((300, extra.row(1).to_vec()));
        surviving.push((301, extra.row(2).to_vec()));
        surviving.sort_by_key(|&(id, _)| id);
        let mut fresh_ds = Dataset::new(48);
        for (_, row) in &surviving {
            fresh_ds.push_row(row).unwrap();
        }
        let fresh = Gph::build(fresh_ds, &cfg).unwrap();
        let map: Vec<u32> = surviving.iter().map(|&(id, _)| id).collect();
        for qi in [0usize, 10, 77] {
            let q = ds.row(qi);
            for tau in [0u32, 4, 8] {
                let expect: Vec<u32> =
                    fresh.search(q, tau).into_iter().map(|l| map[l as usize]).collect();
                assert_eq!(sharded.search(q, tau), expect, "qi={qi} tau={tau}");
            }
            let expect_topk: Vec<(u32, u32)> =
                fresh.search_topk(q, 7).into_iter().map(|(l, d)| (map[l as usize], d)).collect();
            assert_eq!(sharded.search_topk(q, 7), expect_topk, "qi={qi} topk");
        }
    }

    #[test]
    fn mutation_costs_are_positive_and_seal_aware() {
        let ds = random_dataset(32, 40, 0.5, 109);
        let mut cfg = test_cfg(2, 4);
        cfg.strategy = PartitionStrategy::Original;
        let seg_cfg = SegmentConfig { seal_rows: 2, max_sealed: 4, ..SegmentConfig::default() };
        let sharded = ShardedIndex::build_with_segments(&ds, 2, &cfg, seg_cfg).unwrap();
        let id = 1000u32;
        let base = sharded.next_insert_cost(id);
        assert!(base > 0.0 && sharded.delete_cost(id) > 0.0);
        // Fill the owning shard's memtable to one row below the seal
        // threshold: the next insert must be priced at seal cost.
        let slot = ShardedIndex::shard_of(id, 2);
        let filler = (0..).map(|i| 2000 + i).find(|&i| ShardedIndex::shard_of(i, 2) == slot);
        sharded.insert(filler.unwrap(), ds.row(0)).unwrap();
        assert!(
            sharded.next_insert_cost(id) > base,
            "an insert that triggers a seal costs more than an append"
        );
    }
}
