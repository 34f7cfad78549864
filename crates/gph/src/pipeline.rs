//! The query pipeline — §VI's online phase, written once.
//!
//! A query runs a [`Plan`] over a [`Store`]. The plan is everything
//! that decides *what* to probe and is independent of where bytes live:
//! the partitioning and its projector, the CN estimator, the threshold
//! allocator, the cost model. The store is where the bytes live: CSR
//! arrays that the one reader in [`hamming_core::invindex`] probes and
//! walks, rows, and the query scratch sized by them. Phases 2–4 are
//! one loop, [`probe_and_verify`], with three callers:
//! [`Plan::search`] over the resident store in
//! [`crate::engine`] (heap CSR + `Dataset`) and over the paged one in
//! [`crate::coldstore`] (reads through a page cache), and
//! `Resident::search_at`, which MIH runs at Lemma 1's vector. The loop
//! is generic over the store, so each store gets its own monomorphic
//! copy with no dynamic dispatch per key. `ARCHITECTURE.md` ("The query
//! pipeline") has the diagram.
//!
//! Verification measures every row it accepts, so a search answers
//! with [`Hits`]: each id within τ carries its exact distance, and
//! nothing downstream measures a row again. Top-k is written here once
//! too, as [`topk_by_escalation`]: a loop that grows τ over any
//! layer's range search. The engine, a cold segment, the segmented
//! engine and the sharded index each call it over their own.

use crate::alloc::{allocate, AllocatorKind};
use crate::cn::{CnEstimator, CnTable, EstimatorKind};
use crate::cost::CostModel;
use crate::engine::QueryStats;
use crate::pigeonhole::ThresholdVector;
use hamming_core::enumerate::{ball_size, for_each_in_ball_u64, for_each_in_ball_words};
use hamming_core::invindex::{for_each_posting_of, for_each_posting_within, CsrPart};
use hamming_core::key::key_of;
use hamming_core::project::Projector;
use hamming_core::{words_for, Partitioning, Visited};
use parking_lot::Mutex;
use std::time::Instant;

/// What the pipeline needs from wherever a segment's bytes live.
pub(crate) trait Store {
    /// A partition's CSR arrays. Reads cannot fail here: the paged
    /// source handles a failed read itself.
    type Part<'a>: CsrPart<Error = std::convert::Infallible>
    where
        Self: 'a;

    /// Partition `part`'s CSR arrays.
    fn part(&self, part: usize) -> Self::Part<'_>;

    /// Rows stored; ids are `0..len()`.
    fn len(&self) -> usize;

    /// The store's pool of query scratch, sized by its rows.
    fn scratch_pool(&self) -> &ScratchPool;

    /// Scan fallback for a partition wider than 64 bits, whose keys are
    /// hashes: emits a superset of the ids whose projection on `part`
    /// (by the plan's `projector`) lies within `radius` of `q_proj`.
    fn scan_wide(
        &self,
        projector: &Projector,
        part: usize,
        q_proj: &[u64],
        radius: usize,
        emit: impl FnMut(u32),
    );

    /// Appends to `out`, ascending by id, `(id, distance)` for every id
    /// of `candidates` (distinct) whose row is within `tau` of `query`.
    /// May reorder `candidates`.
    fn verify(&self, query: &[u64], tau: u32, candidates: &mut Vec<u32>, out: &mut Vec<(u32, u32)>);
}

/// A range search's answer: `(id, distance)` for every row within τ,
/// ascending by id, each distance the one verification measured, and
/// the query's instrumentation.
pub(crate) type Hits = (Vec<(u32, u32)>, QueryStats);

/// Query-time scratch, pooled per store to keep searches
/// allocation-free after warm-up.
pub(crate) struct Scratch {
    visited: Visited,
    candidates: Vec<u32>,
    keys: Vec<u64>,
}

/// A store's pool of [`Scratch`]; starts empty (`Default`).
pub(crate) type ScratchPool = Mutex<Vec<Scratch>>;

/// Phases 2–4 of §VI at `thresholds`: enumeration (or the scan
/// fallback), probing with dedup, verification. `q_proj` is `query`
/// projected on every partition; `stats` arrives with phase 1's fields.
pub(crate) fn probe_and_verify<S: Store>(
    store: &S,
    projector: &Projector,
    query: &[u64],
    tau: u32,
    q_proj: &[Vec<u64>],
    thresholds: ThresholdVector,
    mut stats: QueryStats,
) -> Hits {
    let n = store.len();

    // --- Phases 2+3: signature enumeration + candidate generation ------
    let pool = store.scratch_pool();
    let mut scratch = pool.lock().pop().unwrap_or_else(|| Scratch {
        visited: Visited::new(n),
        candidates: Vec::new(),
        keys: Vec::new(),
    });
    scratch.visited.clear();
    scratch.candidates.clear();
    // Ids outside `0..n` are skipped, not trusted: the reader hands ids
    // on as stored, and the paged store's payload CRCs are deferred
    // (resident indexes are validated when built or decoded, so the
    // branch never fires there).
    let mut admit = |id: u32| {
        if scratch.visited.insert(id) {
            scratch.candidates.push(id);
        }
    };

    for (i, &ti) in thresholds.0.iter().enumerate() {
        if ti < 0 {
            continue;
        }
        let width = projector.shape(i).width;
        let radius = (ti as usize).min(width);
        // When the signature ball outnumbers the data, scanning is
        // strictly cheaper than enumerating and probing; equivalent
        // output, bounded worst case.
        if ball_size(width, radius) > n as u64 && n > 0 {
            let t2 = Instant::now();
            stats.n_scanned += n as u64;
            if width <= 64 {
                let qk = q_proj[i].first().copied().unwrap_or(0);
                let Ok(()) = for_each_posting_within(store.part(i), qk, radius, &mut admit);
            } else {
                store.scan_wide(projector, i, &q_proj[i], radius, &mut admit);
            }
            stats.candgen_ns += t2.elapsed().as_nanos() as u64;
            continue;
        }
        // Enumerate signatures first (timed separately, as the paper
        // decomposes), then probe.
        let t1 = Instant::now();
        scratch.keys.clear();
        if width <= 64 {
            let center = q_proj[i].first().copied().unwrap_or(0);
            for_each_in_ball_u64(center, width, radius, |v| scratch.keys.push(v));
        } else {
            for_each_in_ball_words(&q_proj[i], width, radius, |w| {
                scratch.keys.push(key_of(w, width))
            });
        }
        stats.n_signatures += scratch.keys.len() as u64;
        stats.enumerate_ns += t1.elapsed().as_nanos() as u64;

        let t2 = Instant::now();
        let Ok(n) = for_each_posting_of(store.part(i), &scratch.keys, &mut admit);
        stats.sum_postings += n as u64;
        stats.candgen_ns += t2.elapsed().as_nanos() as u64;
    }
    stats.n_candidates = scratch.candidates.len() as u64;

    // --- Phase 4: verification -----------------------------------------
    let t3 = Instant::now();
    let mut hits = Vec::with_capacity(scratch.candidates.len());
    store.verify(query, tau, &mut scratch.candidates, &mut hits);
    stats.verify_ns = t3.elapsed().as_nanos() as u64;
    stats.n_results = hits.len() as u64;
    stats.thresholds = thresholds.0;

    pool.lock().push(scratch);
    (hits, stats)
}

/// The storage-independent half of a built engine: how a query is
/// turned into per-partition probes. Owns phase 1 (CN estimation and
/// threshold allocation) and cost estimation; phases 2–4 are
/// [`probe_and_verify`], and top-k is [`topk_by_escalation`] over its
/// search.
pub(crate) struct Plan {
    pub(crate) partitioning: Partitioning,
    pub(crate) projector: Projector,
    pub(crate) estimator: Box<dyn CnEstimator>,
    pub(crate) estimator_kind: EstimatorKind,
    pub(crate) allocator: AllocatorKind,
    pub(crate) cost_model: CostModel,
    pub(crate) tau_max: usize,
}

impl Plan {
    /// CN estimation + threshold allocation for `m ≥ 2` partitions: the
    /// chosen vector and its estimated `Σ CN`.
    fn allocate(&self, q_proj: &[Vec<u64>], tau: u32) -> (ThresholdVector, f64) {
        let cn = CnTable::compute(self.estimator.as_ref(), q_proj, tau as usize);
        let tv = allocate(self.allocator, &cn, tau);
        let cost = cn.sum_for(&tv);
        (tv, cost)
    }

    /// Panics unless `query` has the indexed width and `tau ≤ tau_max`.
    pub(crate) fn check_query(&self, query: &[u64], tau: u32) {
        assert!(
            tau as usize <= self.tau_max,
            "tau {tau} exceeds the configured tau_max {}",
            self.tau_max
        );
        assert_eq!(
            query.len(),
            words_for(self.partitioning.dim()),
            "query width mismatch with indexed data"
        );
    }

    /// Search with per-phase instrumentation: phase 1, then
    /// [`probe_and_verify`] at the allocated vector.
    pub(crate) fn search<S: Store>(&self, store: &S, query: &[u64], tau: u32) -> Hits {
        self.check_query(query, tau);
        let mut stats = QueryStats::default();

        // --- Phase 1: CN estimation + threshold allocation ------------
        let t0 = Instant::now();
        let q_proj = self.projector.project_all(query);
        let thresholds = if q_proj.len() == 1 {
            ThresholdVector(vec![tau as i32])
        } else {
            let (tv, cost) = self.allocate(&q_proj, tau);
            stats.estimated_cost = cost;
            tv
        };
        stats.alloc_ns = t0.elapsed().as_nanos() as u64;

        probe_and_verify(store, &self.projector, query, tau, &q_proj, thresholds, stats)
    }

    /// Estimated query-processing cost for `(query, tau)` without
    /// running the search — Equation 1 applied to the allocation the
    /// optimizer would choose. Needs no storage at all.
    pub(crate) fn estimate_cost(&self, query: &[u64], tau: u32) -> f64 {
        self.check_query(query, tau);
        let q_proj = self.projector.project_all(query);
        let sum_cn = if q_proj.len() == 1 {
            let mut row = vec![0.0; tau as usize + 2];
            self.estimator.fill(0, &q_proj[0], tau as usize, &mut row);
            row[tau as usize + 1]
        } else {
            self.allocate(&q_proj, tau).1
        };
        self.cost_model.query_cost(sum_cn, tau)
    }
}

/// Top-k by threshold escalation, the one top-k loop of every layer
/// (engine, cold segment, segmented engine, sharded index). `within(τ)`
/// is the layer's range search: every live `(id, distance)` within
/// `τ`, in any order. τ grows 0, 1, 2, 4, …
/// up to `tau_cap` and stops at the first τ holding at least `k` rows;
/// the `k` nearest of those, ties broken by id, are the `k` nearest
/// within `tau_cap`, since every row nearer than the k-th lies within
/// the same τ. `k == 0` returns nothing without searching.
pub fn topk_by_escalation(
    k: usize,
    tau_cap: u32,
    mut within: impl FnMut(u32) -> Vec<(u32, u32)>,
) -> Vec<(u32, u32)> {
    if k == 0 {
        return Vec::new();
    }
    let mut tau = 0u32;
    loop {
        let hits = within(tau);
        if hits.len() >= k || tau >= tau_cap {
            return merge_topk(hits, k);
        }
        tau = (tau * 2).max(tau + 1).min(tau_cap);
    }
}

/// The `k` nearest of `hits` by `(distance, id)`: the last step of
/// [`topk_by_escalation`], and the fleet's gather of its nodes' answers.
/// When the hits come from sources that partition the live rows and
/// each source contributed its exact top-`k`, this is the global
/// top-`k`: every true member beats the global k-th distance, so it
/// beats its own source's k-th and is among that source's hits.
pub fn merge_topk(hits: impl IntoIterator<Item = (u32, u32)>, k: usize) -> Vec<(u32, u32)> {
    let mut hits: Vec<(u32, u32)> = hits.into_iter().collect();
    hits.sort_unstable_by_key(|&(id, d)| (d, id));
    hits.truncate(k);
    hits
}

/// Test hook: overwrites the visited-set epoch of a store's one pooled
/// scratch, so a test can reach the wrap without running 2³² queries.
#[cfg(test)]
pub(crate) fn set_pooled_epoch(store: &impl Store, epoch: u32) {
    let mut pool = store.scratch_pool().lock();
    assert_eq!(pool.len(), 1, "expected exactly one pooled scratch");
    pool[0].visited.set_epoch(epoch);
}
