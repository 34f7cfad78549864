//! Serve-layer mutation correctness: a `ShardedIndex` (and the
//! `QueryService` in front of it) under arbitrary interleaved
//! insert/delete/upsert streams answers every query exactly like a fresh
//! single `Gph` built over the surviving rows — including after a fleet
//! snapshot/restore round-trip. With the result cache on, every response
//! — hit or miss, single-threaded or beside a concurrent writer — is
//! held against a linear scan of a `BTreeMap` model of the live rows.

use gph::engine::{Gph, GphConfig};
use gph::partition_opt::PartitionStrategy;
use gph::segment::SegmentConfig;
use gph_serve::{MutationOutcome, Outcome, QueryService, Response, ServiceConfig, ShardedIndex};
use hamming_core::{hamming_within, BitVector, Dataset};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

const DIM: usize = 40;
const ID_UNIVERSE: u32 = 24;
const TAU_MAX: u32 = 8;

#[derive(Clone, Debug)]
enum Op {
    Upsert(u32, Vec<bool>),
    Delete(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weighted choice via a selector (the vendored proptest shim has no
    // prop_oneof!): 0..3 upsert, 3 delete.
    (0u8..4, 0..ID_UNIVERSE, prop::collection::vec(any::<bool>(), DIM)).prop_map(
        |(sel, id, bits)| match sel {
            0..=2 => Op::Upsert(id, bits),
            _ => Op::Delete(id),
        },
    )
}

fn cfg(seed: u64) -> GphConfig {
    let mut cfg = GphConfig::new(3, TAU_MAX as usize);
    cfg.strategy = PartitionStrategy::RandomShuffle { seed };
    cfg
}

fn words(bits: &[bool]) -> Vec<u64> {
    BitVector::from_bits(bits.iter().copied()).words().to_vec()
}

fn apply(index: &ShardedIndex, model: &mut BTreeMap<u32, Vec<u64>>, op: &Op) {
    match op {
        Op::Upsert(id, bits) => {
            let row = words(bits);
            let replaced = index.upsert(*id, &row).expect("upsert");
            assert_eq!(replaced, model.insert(*id, row).is_some());
        }
        Op::Delete(id) => {
            assert_eq!(index.delete(*id), model.remove(id).is_some());
        }
    }
}

fn assert_equivalent(index: &ShardedIndex, model: &BTreeMap<u32, Vec<u64>>, cfg: &GphConfig) {
    let fresh = if model.is_empty() {
        None
    } else {
        let mut ds = Dataset::new(DIM);
        let mut ids = Vec::with_capacity(model.len());
        for (&id, row) in model {
            ds.push_row(row).expect("model rows are well-formed");
            ids.push(id);
        }
        Some((Gph::build(ds, cfg).expect("build reference"), ids))
    };
    // Member queries (every surviving row) plus one foreign probe.
    let mut queries: Vec<Vec<u64>> = model.values().take(4).cloned().collect();
    queries.push(vec![0u64; hamming_core::words_for(DIM)]);
    for q in &queries {
        for tau in [0u32, 4, 8] {
            let expect: Vec<u32> = match &fresh {
                None => Vec::new(),
                Some((g, ids)) => g.search(q, tau).into_iter().map(|l| ids[l as usize]).collect(),
            };
            assert_eq!(index.search(q, tau), expect, "tau={tau}");
        }
        let expect_topk: Vec<(u32, u32)> = match &fresh {
            None => Vec::new(),
            Some((g, ids)) => {
                g.search_topk(q, 6).into_iter().map(|(l, d)| (ids[l as usize], d)).collect()
            }
        };
        assert_eq!(index.search_topk(q, 6), expect_topk);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Mutations through the sharded fleet keep scatter-gather exact for
    /// 1..=5 shards, including after a snapshot/restore round-trip.
    #[test]
    fn sharded_mutations_stay_exact(
        initial in prop::collection::vec(prop::collection::vec(any::<bool>(), DIM), 0..12),
        ops in prop::collection::vec(op_strategy(), 1..30),
        ops_after in prop::collection::vec(op_strategy(), 0..10),
        n_shards in 1usize..=5,
        seal_rows in 1usize..5,
        seed in any::<u64>(),
    ) {
        let cfg = cfg(seed);
        let seg_cfg = SegmentConfig { seal_rows, max_sealed: 2 };
        let mut ds = Dataset::new(DIM);
        let mut model: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for (i, bits) in initial.iter().enumerate() {
            let row = words(bits);
            ds.push_row(&row).expect("initial rows");
            model.insert(i as u32, row);
        }
        let index =
            ShardedIndex::build_with_segments(&ds, n_shards, &cfg, seg_cfg).expect("build");
        for op in &ops {
            apply(&index, &mut model, op);
        }
        assert_equivalent(&index, &model, &cfg);

        // Fleet snapshot with pending tombstones, restore, keep mutating.
        let dir = std::env::temp_dir()
            .join(format!("gph_mutation_props_{}_{seed:x}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        index.snapshot(&dir).expect("snapshot");
        let restored = ShardedIndex::restore(&dir).expect("restore");
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(restored.len(), index.len());
        assert_equivalent(&restored, &model, &cfg);
        for op in &ops_after {
            apply(&restored, &mut model, op);
        }
        assert_equivalent(&restored, &model, &cfg);
    }

    /// The service front end (cache + admission + worker pool) stays
    /// consistent with the index under interleaved queries and
    /// mutations: every response reflects exactly the live rows at the
    /// time it executes.
    #[test]
    fn service_mutations_keep_responses_fresh(
        initial in prop::collection::vec(prop::collection::vec(any::<bool>(), DIM), 1..10),
        ops in prop::collection::vec(op_strategy(), 1..15),
        seed in any::<u64>(),
    ) {
        let cfg = cfg(seed);
        let mut ds = Dataset::new(DIM);
        let mut model: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for (i, bits) in initial.iter().enumerate() {
            let row = words(bits);
            ds.push_row(&row).expect("initial rows");
            model.insert(i as u32, row);
        }
        let index = Arc::new(ShardedIndex::build(&ds, 2, &cfg).expect("build"));
        let service = QueryService::new(
            Arc::clone(&index),
            ServiceConfig { workers: 2, ..ServiceConfig::default() },
        );
        for op in &ops {
            // Query (and cache) before the mutation, mutate through the
            // service, then verify the post-mutation answer is fresh.
            let probe = words(op_row(op, &initial));
            let _ = service.query(&probe, 8);
            match op {
                Op::Upsert(id, bits) => {
                    let row = words(bits);
                    let resp = service.upsert(*id, &row).expect("upsert");
                    let applied =
                        matches!(resp.outcome, gph_serve::MutationOutcome::Applied { .. });
                    prop_assert!(applied);
                    model.insert(*id, row);
                }
                Op::Delete(id) => {
                    let was_live = model.remove(id).is_some();
                    let resp = service.delete(*id);
                    let applied =
                        matches!(resp.outcome, gph_serve::MutationOutcome::Applied { .. });
                    let not_found =
                        matches!(resp.outcome, gph_serve::MutationOutcome::NotFound);
                    let outcome_consistent = if was_live { applied } else { not_found };
                    prop_assert!(outcome_consistent);
                }
            }
            let expect = index.search(&probe, 8);
            let resp = service.query(&probe, 8);
            prop_assert_eq!(resp.ids().expect("range response"), expect.as_slice());
        }
        service.shutdown();
    }
}

/// A probe row related to the op: the upserted row, or (for deletes) the
/// first initial row, so cached answers overlapping the mutation are
/// exercised.
fn op_row<'a>(op: &'a Op, initial: &'a [Vec<bool>]) -> &'a [bool] {
    match op {
        Op::Upsert(_, bits) => bits,
        Op::Delete(_) => &initial[0],
    }
}

// ---------------------------------------------------------------------
// Cache on: every response against the model's linear scan
// ---------------------------------------------------------------------

type Model = BTreeMap<u32, Vec<u64>>;

/// The model's answer to a range query: ids ascending.
fn scan_range(model: &Model, q: &[u64], tau: u32) -> Vec<u32> {
    model
        .iter()
        .filter(|(_, row)| hamming_within(row, q, tau).is_some())
        .map(|(&id, _)| id)
        .collect()
}

/// The model's answer to a top-k query: `(id, distance)` within
/// `TAU_MAX`, ascending by `(distance, id)`.
fn scan_topk(model: &Model, q: &[u64], k: usize) -> Vec<(u32, u32)> {
    let mut hits: Vec<(u32, u32)> = model
        .iter()
        .filter_map(|(&id, row)| hamming_within(row, q, TAU_MAX).map(|d| (id, d)))
        .collect();
    hits.sort_unstable_by_key(|&(id, d)| (d, id));
    hits.truncate(k);
    hits
}

fn topk_hits(resp: &Response) -> &[(u32, u32)] {
    match &resp.outcome {
        Outcome::TopK { hits, degraded_cap: None } => hits,
        other => panic!("expected an undegraded top-k response, got {other:?}"),
    }
}

/// `probe` with the listed bit positions flipped (a position listed
/// twice flips back). Rows are written *near* the probes: a uniformly
/// random row lies ~20 bits from everything, outside every cached
/// radius, and the rule that decides which entries a write drops would
/// never fire.
fn near(probe: &[u64], flips: &[usize]) -> Vec<u64> {
    let mut row = probe.to_vec();
    for &bit in flips {
        row[bit / 64] ^= 1 << (bit % 64);
    }
    row
}

const PROBES: usize = 3;

#[derive(Clone, Debug)]
enum ServiceOp {
    Range { probe: usize, tau: u32 },
    TopK { probe: usize, k: usize },
    Insert { id: u32, probe: usize, flips: Vec<usize> },
    Upsert { id: u32, probe: usize, flips: Vec<usize> },
    Delete(u32),
}

fn service_op_strategy() -> impl Strategy<Value = ServiceOp> {
    (0u8..10, 0..ID_UNIVERSE, 0..PROBES, prop::collection::vec(0..DIM, 0..12), 0usize..4).prop_map(
        |(sel, id, probe, flips, knob)| match sel {
            0..=3 => ServiceOp::Range { probe, tau: [0, 3, 6, TAU_MAX][knob] },
            4 => ServiceOp::TopK { probe, k: [1, 3, 5, 30][knob] },
            5 => ServiceOp::Insert { id, probe, flips },
            6..=7 => ServiceOp::Upsert { id, probe, flips },
            _ => ServiceOp::Delete(id),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One caller, cache on, flushes and compactions mid-stream: every
    /// response, served from the cache or not, is the model's linear
    /// scan at that point — and some were served from the cache after a
    /// write, and some writes did drop entries, or the run proved
    /// nothing about which entries a write may keep.
    #[test]
    fn cached_service_matches_model_scan(
        probes in prop::collection::vec(prop::collection::vec(any::<bool>(), DIM), PROBES),
        initial in prop::collection::vec((0..PROBES, prop::collection::vec(0..DIM, 0..12)), 0..10),
        ops in prop::collection::vec(service_op_strategy(), 60..100),
        n_shards in 1usize..=3,
        seal_rows in 2usize..5,
        seed in any::<u64>(),
    ) {
        let probes: Vec<Vec<u64>> = probes.iter().map(|bits| words(bits)).collect();
        let mut ds = Dataset::new(DIM);
        let mut model = Model::new();
        for (i, (probe, flips)) in initial.iter().enumerate() {
            let row = near(&probes[*probe], flips);
            ds.push_row(&row).expect("initial rows");
            model.insert(i as u32, row);
        }
        let seg_cfg = SegmentConfig { seal_rows, max_sealed: 2 };
        let index = ShardedIndex::build_with_segments(&ds, n_shards, &cfg(seed), seg_cfg)
            .expect("build");
        let service =
            QueryService::new(Arc::new(index), ServiceConfig { workers: 2, ..ServiceConfig::default() });

        let (mut writes, mut hits_after_writes) = (0u32, 0u32);
        for op in &ops {
            match op {
                ServiceOp::Range { probe, tau } => {
                    let resp = service.query(&probes[*probe], *tau);
                    let expect = scan_range(&model, &probes[*probe], *tau);
                    prop_assert_eq!(resp.ids().expect("range response"), expect.as_slice());
                    hits_after_writes += u32::from(resp.from_cache && writes > 0);
                }
                ServiceOp::TopK { probe, k } => {
                    let resp = service.query_topk(&probes[*probe], *k);
                    let expect = scan_topk(&model, &probes[*probe], *k);
                    prop_assert_eq!(topk_hits(&resp), expect.as_slice());
                    hits_after_writes += u32::from(resp.from_cache && writes > 0);
                }
                ServiceOp::Insert { id, probe, flips } => {
                    let row = near(&probes[*probe], flips);
                    match service.insert(*id, &row) {
                        Ok(resp) => {
                            let applied = MutationOutcome::Applied { replaced: false };
                            prop_assert_eq!(resp.outcome, applied);
                            prop_assert!(model.insert(*id, row).is_none());
                            writes += 1;
                        }
                        Err(_) => prop_assert!(model.contains_key(id), "only a live id is refused"),
                    }
                }
                ServiceOp::Upsert { id, probe, flips } => {
                    let row = near(&probes[*probe], flips);
                    let resp = service.upsert(*id, &row).expect("upsert");
                    let replaced = model.insert(*id, row).is_some();
                    prop_assert_eq!(resp.outcome, MutationOutcome::Applied { replaced });
                    writes += 1;
                }
                ServiceOp::Delete(id) => {
                    let expect = match model.remove(id) {
                        Some(_) => MutationOutcome::Applied { replaced: true },
                        None => MutationOutcome::NotFound,
                    };
                    prop_assert_eq!(service.delete(*id).outcome, expect);
                    writes += u32::from(expect != MutationOutcome::NotFound);
                }
            }
        }
        prop_assert_eq!(service.index().len(), model.len());
        prop_assert_eq!(service.stats().mutations, u64::from(writes));
        prop_assert!(hits_after_writes > 0, "no cache hit after a write: nothing was tested");
        prop_assert!(service.cache_stats().invalidations > 0, "no write ever dropped an entry");
        service.shutdown();
    }
}

fn is_subset(small: &[u32], big: &[u32]) -> bool {
    let mut it = big.iter();
    small.iter().all(|s| it.any(|b| b == s))
}

/// One writer beside two readers, all through one cached service, then
/// quiesce. The writer inserts only fresh ids and deletes only initial
/// rows, each id once, so whatever the interleaving a read of `(q, tau)`
/// must hold every initial match that is never deleted and nothing
/// beyond the initial and inserted matches; once the writer is done,
/// every answer — computed or cached — is exactly the model's.
#[test]
fn concurrent_reads_stay_within_bounds_and_settle_exact() {
    const INITIAL: u32 = 60;
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0FFEE);
    let mut random_near = |probe: &[u64]| {
        let flips: Vec<usize> =
            (0..rng.random_range(0..12usize)).map(|_| rng.random_range(0..DIM)).collect();
        near(probe, &flips)
    };
    let probes: Vec<Vec<u64>> = [0x00FF_00FF_00FFu64, 0x00F0_F0F0_F0F0, 0x0034_5678_9ABC, 0]
        .iter()
        .map(|&w| vec![w])
        .collect();
    let mut ds = Dataset::new(DIM);
    let mut before = Model::new();
    for id in 0..INITIAL {
        let row = random_near(&probes[id as usize % probes.len()]);
        ds.push_row(&row).unwrap();
        before.insert(id, row);
    }
    // The write stream: two inserts of fresh ids, then one delete of an
    // initial row, 40 times over.
    let mut stream: Vec<(u32, Option<Vec<u64>>)> = Vec::new();
    for i in 0..40u32 {
        for fresh in [2 * i, 2 * i + 1] {
            let row = random_near(&probes[fresh as usize % probes.len()]);
            stream.push((1000 + fresh, Some(row)));
        }
        stream.push((i * 7 % INITIAL, None));
    }
    let mut after = before.clone();
    let mut never_deleted = before.clone();
    let mut ever_live = before.clone();
    for (id, row) in &stream {
        match row {
            Some(row) => {
                after.insert(*id, row.clone());
                ever_live.insert(*id, row.clone());
            }
            None => {
                assert!(after.remove(id).is_some(), "the stream deletes each initial row once");
                never_deleted.remove(id);
            }
        }
    }

    // Small segments: the writer flushes every 4 inserts per shard and
    // compacts past 2 segments, under the readers.
    let seg_cfg = SegmentConfig { seal_rows: 4, max_sealed: 2 };
    let index = ShardedIndex::build_with_segments(&ds, 2, &cfg(5), seg_cfg).unwrap();
    let service = QueryService::new(
        Arc::new(index),
        ServiceConfig { workers: 2, ..ServiceConfig::default() },
    );
    let taus = [2u32, 5, TAU_MAX];
    let (start, done) = (Barrier::new(3), AtomicBool::new(false));
    let reads: u64 = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2usize)
            .map(|r| {
                let (service, probes, start, done) = (&service, &probes, &start, &done);
                let (never_deleted, ever_live) = (&never_deleted, &ever_live);
                scope.spawn(move || {
                    start.wait();
                    let (mut reads, mut round) = (0u64, r);
                    // At least one read beside the writer, then until it is done.
                    while reads == 0 || !done.load(Ordering::Acquire) {
                        let q = &probes[round % probes.len()];
                        let tau = taus[round / probes.len() % taus.len()];
                        let resp = service.query(q, tau);
                        let ids = resp.ids().expect("range response");
                        let (lower, upper) =
                            (scan_range(never_deleted, q, tau), scan_range(ever_live, q, tau));
                        assert!(is_subset(&lower, ids), "lost a row no one deleted: {ids:?}");
                        assert!(is_subset(ids, &upper), "a row no one wrote: {ids:?}");
                        reads += 1;
                        round += 1;
                    }
                    reads
                })
            })
            .collect();
        start.wait();
        for (id, row) in &stream {
            let outcome = match row {
                Some(row) => service.insert(*id, row).expect("fresh id").outcome,
                None => service.delete(*id).outcome,
            };
            assert!(matches!(outcome, MutationOutcome::Applied { .. }));
        }
        done.store(true, Ordering::Release);
        readers.into_iter().map(|h| h.join().expect("reader")).sum()
    });
    assert!(reads >= 2);

    // Settled: exact, the first time (whether the entry survived the
    // writes or is computed now) and again from the cache.
    assert_eq!(service.index().len(), after.len());
    for q in &probes {
        for pass in 0..2 {
            for tau in taus {
                let resp = service.query(q, tau);
                assert_eq!(resp.ids().unwrap(), scan_range(&after, q, tau), "tau={tau}");
                assert!(pass == 0 || resp.from_cache);
            }
            let resp = service.query_topk(q, 7);
            assert_eq!(topk_hits(&resp), scan_topk(&after, q, 7));
            assert!(pass == 0 || resp.from_cache);
        }
    }
    service.shutdown();
}
