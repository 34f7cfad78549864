//! The GPH engine — §VI.
//!
//! Ties together the offline phase (partitioning → projection → inverted
//! index → CN estimator) and the online phase (CN estimation → threshold
//! allocation → signature enumeration → index probing → verification).
//! Per-query [`QueryStats`] decompose the time exactly as Fig. 2(a)
//! does: threshold allocation, signature enumeration, candidate
//! generation, verification.

use crate::alloc::AllocatorKind;
use crate::cn::{build_estimator, EstimatorKind};
use crate::cost::CostModel;
use crate::index::{InvertedIndex, PartIndex};
use crate::partition_opt::{build_partitioning, PartitionStrategy, WorkloadSpec};
use crate::pigeonhole::ThresholdVector;
use crate::pipeline::{probe_and_verify, topk_by_escalation, Hits, Plan, ScratchPool, Store};
use hamming_core::error::{HammingError, Result};
use hamming_core::project::{ProjectedDataset, Projector};
use hamming_core::{Dataset, Partitioning};
use std::time::Instant;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct GphConfig {
    /// Number of partitions `m` (the paper suggests `m ≈ n/24` as a
    /// starting point, Fig. 5).
    pub m: usize,
    /// Largest threshold the engine must serve (sizes the CN tables).
    pub tau_max: usize,
    /// Per-query threshold allocator.
    pub allocator: AllocatorKind,
    /// Candidate-number estimator.
    pub estimator: EstimatorKind,
    /// Offline partitioning strategy.
    pub strategy: PartitionStrategy,
    /// Workload for the GR strategy (auto-sampled from the data when
    /// `None` — the paper's fallback when no history is available).
    pub workload: Option<WorkloadSpec>,
    /// Cost model used for reported cost estimates.
    pub cost_model: CostModel,
}

impl GphConfig {
    /// Defaults per the paper: DP allocation, SP estimation with two
    /// sub-partitions, GR partitioning.
    pub fn new(m: usize, tau_max: usize) -> Self {
        GphConfig {
            m,
            tau_max,
            allocator: AllocatorKind::Dp,
            estimator: EstimatorKind::default(),
            strategy: PartitionStrategy::default(),
            workload: None,
            cost_model: CostModel::default(),
        }
    }

    /// Suggested partition count `m ≈ n/24` (§VII-D), clamped to `[1, n]`.
    pub fn suggested_m(dim: usize) -> usize {
        (dim / 24).clamp(1, dim.max(1))
    }
}

/// Offline build timings (Table IV decomposes partitioning vs indexing).
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildStats {
    /// Time spent choosing the partitioning (GR's 5026 s column).
    pub partition_ms: u64,
    /// Time spent projecting and building the inverted index.
    pub index_ms: u64,
    /// Time spent building the CN estimator (GPH's extra 560 s column).
    pub estimator_ms: u64,
}

/// Per-query instrumentation (Fig. 2's decomposition and Fig. 7's
/// candidate counts).
#[derive(Clone, Debug, Default)]
pub struct QueryStats {
    /// Allocated threshold vector.
    pub thresholds: Vec<i32>,
    /// Time estimating CN tables + running the allocator.
    pub alloc_ns: u64,
    /// Time enumerating signatures.
    pub enumerate_ns: u64,
    /// Time probing postings + deduplicating candidates.
    pub candgen_ns: u64,
    /// Time verifying candidates.
    pub verify_ns: u64,
    /// Signatures enumerated.
    pub n_signatures: u64,
    /// `Σ_s |I_s|` — postings touched (Fig. 2(b)'s upper bound). Only
    /// index probes count here; rows examined by the scan fallback are
    /// reported in [`QueryStats::n_scanned`] so this keeps its paper
    /// meaning.
    pub sum_postings: u64,
    /// Rows examined by the scan fallback (the path taken when a
    /// partition's signature ball outnumbers the data).
    /// Zero for queries answered purely through the index.
    pub n_scanned: u64,
    /// Distinct candidates verified (`|S_cand|`).
    pub n_candidates: u64,
    /// Results returned.
    pub n_results: u64,
    /// The optimizer's estimated `Σ CN` for the chosen allocation.
    pub estimated_cost: f64,
}

impl QueryStats {
    /// Total measured time.
    pub fn total_ns(&self) -> u64 {
        self.alloc_ns + self.enumerate_ns + self.candgen_ns + self.verify_ns
    }
}

/// IDs plus instrumentation.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// Matching vector IDs, ascending.
    pub ids: Vec<u32>,
    /// Query instrumentation.
    pub stats: QueryStats,
}

impl SearchResult {
    /// A search's hits with their distances dropped.
    pub(crate) fn from_hits((hits, stats): Hits) -> Self {
        SearchResult { ids: hits.into_iter().map(|(id, _)| id).collect(), stats }
    }
}

/// The resident store: rows, CSR postings and the query scratch, on
/// the heap. No projection of the rows is kept: the scan fallback of a
/// partition wider than a word projects rows as it goes. [`Gph`] runs
/// its allocated vectors over one, and `baselines::Mih` Lemma 1's.
pub struct Resident {
    pub(crate) data: Dataset,
    pub(crate) index: InvertedIndex,
    scratch_pool: ScratchPool,
}

impl Resident {
    /// A store over `data` and an index of its projections.
    pub fn new(data: Dataset, index: InvertedIndex) -> Self {
        Resident { data, index, scratch_pool: Default::default() }
    }

    /// Phases 2–4 of §VI at a caller's vector: [`Gph`]'s probe loop,
    /// counters and verification, probing partition `i` of `projector`
    /// (the index's partitioning) within `thresholds[i]`. Exact when
    /// `‖T‖₁ ≥ τ − m + 1` (Theorem 1), as Lemma 1's `[⌊τ/m⌋; m]` is.
    pub fn search_at(
        &self,
        projector: &Projector,
        query: &[u64],
        tau: u32,
        thresholds: ThresholdVector,
    ) -> SearchResult {
        assert_eq!(thresholds.len(), self.index.num_parts(), "one threshold per partition");
        let q_proj = projector.project_all(query);
        let stats = QueryStats::default();
        let hits = probe_and_verify(self, projector, query, tau, &q_proj, thresholds, stats);
        SearchResult::from_hits(hits)
    }

    /// The inverted index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }
}

impl Store for Resident {
    type Part<'a> = &'a PartIndex;

    fn part(&self, part: usize) -> &PartIndex {
        self.index.part(part)
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn scratch_pool(&self) -> &ScratchPool {
        &self.scratch_pool
    }

    /// Exactly the rows a full enumeration would have probed: each row
    /// is projected on the fly.
    fn scan_wide(
        &self,
        projector: &Projector,
        part: usize,
        q_proj: &[u64],
        radius: usize,
        emit: impl FnMut(u32),
    ) {
        projector.for_each_row_within(part, &self.data, q_proj, radius, emit);
    }

    /// The deduplicated candidate buffer goes to the batched kernel in
    /// one streaming pass (width-specialized, SIMD when enabled)
    /// instead of a per-candidate `hamming_within` call.
    fn verify(
        &self,
        query: &[u64],
        tau: u32,
        candidates: &mut Vec<u32>,
        out: &mut Vec<(u32, u32)>,
    ) {
        self.data.verify_candidates(query, tau, candidates, out);
        out.sort_unstable();
    }
}

/// The built GPH index.
///
/// A thin owner of a query plan and the resident store it runs over
/// (the one pipeline lives in `pipeline.rs`). Field visibility is
/// `pub(crate)` so the [`crate::snapshot`] module can persist and
/// restore engines without re-running the offline phase. The index is
/// frozen once built; for insert/delete/upsert workloads wrap it in
/// [`crate::segment::SegmentedGph`].
///
/// # Example
///
/// ```
/// use gph::engine::{Gph, GphConfig};
/// use gph::partition_opt::PartitionStrategy;
/// use hamming_core::{BitVector, Dataset};
///
/// // Index the four example vectors of the paper's Table I.
/// let rows = ["00000000", "00000111", "00001111", "10011111"];
/// let data =
///     Dataset::from_vectors(8, rows.iter().map(|s| BitVector::parse(s).unwrap())).unwrap();
/// let mut cfg = GphConfig::new(2, 4);
/// cfg.strategy = PartitionStrategy::Original;
/// let engine = Gph::build(data, &cfg).unwrap();
///
/// // Example 2 of the paper: q1 = 10000000 matches only x1 at tau = 2.
/// let q1 = BitVector::parse("10000000").unwrap();
/// assert_eq!(engine.search(q1.words(), 2), vec![0]);
/// // The two nearest rows, with exact distances.
/// assert_eq!(engine.search_topk(q1.words(), 2), vec![(0, 1), (1, 4)]);
/// ```
pub struct Gph {
    pub(crate) plan: Plan,
    pub(crate) store: Resident,
    pub(crate) build_stats: BuildStats,
}

impl Gph {
    /// Builds the index over `data` (offline phase of §VI).
    pub fn build(data: Dataset, cfg: &GphConfig) -> Result<Self> {
        if data.dim() == 0 {
            return Err(HammingError::InvalidParameter("zero-dimensional data".into()));
        }
        let mut stats = BuildStats::default();

        let t0 = Instant::now();
        let auto_wl;
        let workload = match (&cfg.workload, &cfg.strategy) {
            (Some(wl), _) => Some(wl),
            (None, PartitionStrategy::Heuristic(_)) => {
                // §V-B fallback: sample data objects as a surrogate
                // workload, spanning a range of thresholds.
                let taus: Vec<u32> = default_workload_taus(cfg.tau_max);
                auto_wl = WorkloadSpec::from_sample(&data, 50.min(data.len()), taus, 0xA11C);
                Some(&auto_wl)
            }
            _ => None,
        };
        let partitioning = build_partitioning(&data, cfg.m, &cfg.strategy, workload)?;
        stats.partition_ms = t0.elapsed().as_millis() as u64;

        let t1 = Instant::now();
        let projector = Projector::new(&partitioning);
        // Build-time only: the index and the estimator are made from it,
        // and it is dropped when they are.
        let projected = ProjectedDataset::build(&data, &projector);
        let index = InvertedIndex::build(&projected);
        stats.index_ms = t1.elapsed().as_millis() as u64;

        let t2 = Instant::now();
        let estimator = build_estimator(&cfg.estimator, &projected, cfg.tau_max)?;
        stats.estimator_ms = t2.elapsed().as_millis() as u64;
        drop(projected);

        let plan = Plan {
            partitioning,
            projector,
            estimator,
            estimator_kind: cfg.estimator.clone(),
            allocator: cfg.allocator,
            cost_model: cfg.cost_model.clone(),
            tau_max: cfg.tau_max,
        };
        Ok(Gph { plan, store: Resident::new(data, index), build_stats: stats })
    }

    /// Serializes the built engine into a checksummed snapshot: the
    /// dataset, the partitioning (the expensive GR artifact), the
    /// inverted index, the estimator state, and the cost-model
    /// statistics. See [`crate::snapshot`] for the format.
    pub fn to_bytes(&self) -> Vec<u8> {
        crate::snapshot::encode_engine(self)
    }

    /// Restores an engine from [`Gph::to_bytes`] bytes without re-running
    /// partition optimization, index construction, or (for the
    /// table-based kinds) estimator construction. The loaded engine is
    /// query-for-query identical to the engine that was saved.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        crate::snapshot::decode_engine(bytes)
    }

    /// Writes [`Gph::to_bytes`] to `path`.
    pub fn save<P: AsRef<std::path::Path>>(&self, path: P) -> Result<()> {
        hamming_core::io::write_atomic(path.as_ref(), &self.to_bytes())
    }

    /// Reads an engine snapshot from `path` — the warm-start path: every
    /// offline artifact is loaded, not rebuilt.
    pub fn load<P: AsRef<std::path::Path>>(path: P) -> Result<Self> {
        Gph::from_bytes(&std::fs::read(path)?)
    }

    /// All vectors within `tau` of `query` (exact; ascending IDs).
    pub fn search(&self, query: &[u64], tau: u32) -> Vec<u32> {
        self.search_with_stats(query, tau).ids
    }

    /// Search with per-phase instrumentation.
    pub fn search_with_stats(&self, query: &[u64], tau: u32) -> SearchResult {
        SearchResult::from_hits(self.plan.search(&self.store, query, tau))
    }

    /// Estimated query-processing cost for `(query, tau)` without running
    /// the search — Equation 1 applied to the allocation the DP would
    /// choose. §VI notes this enables service-level guarantees: the
    /// provider can predict response cost from the allocator alone.
    pub fn estimate_cost(&self, query: &[u64], tau: u32) -> f64 {
        self.plan.estimate_cost(query, tau)
    }

    /// Top-k search by threshold escalation ([`crate::topk_by_escalation`]):
    /// grows τ until at least `k` results exist (or `tau_max` is
    /// reached), then returns the `k` nearest by exact distance, ties
    /// broken by id. The common retrieval mode of MIH-style systems,
    /// reused by the image-retrieval example.
    pub fn search_topk(&self, query: &[u64], k: usize) -> Vec<(u32, u32)> {
        self.search_topk_within(query, k, self.plan.tau_max as u32)
    }

    /// Top-k with the escalation radius capped at `tau_cap ≤ tau_max`:
    /// the `k` nearest among records within `tau_cap` of `query`. With
    /// `tau_cap == tau_max` this is [`Gph::search_topk`]; smaller caps
    /// are the serving layer's degraded mode — admission control bounds
    /// the worst-case escalation cost by shrinking the radius.
    pub fn search_topk_within(&self, query: &[u64], k: usize, tau_cap: u32) -> Vec<(u32, u32)> {
        self.plan.check_query(query, tau_cap);
        topk_by_escalation(k, tau_cap, |tau| self.plan.search(&self.store, query, tau).0)
    }

    /// Similarity self-join: every unordered pair `(a, b)`, `a < b`, of
    /// indexed vectors with `H(a, b) ≤ tau` — the set-similarity-join
    /// workload PartAlloc was designed for, answered with the GPH index
    /// by querying each vector ([`Gph::par_search`] over `threads`
    /// workers) and keeping pairs `(id, hit)` with `hit > id`, ascending.
    pub fn self_join(&self, tau: u32, threads: usize) -> Vec<(u32, u32)> {
        let rows: Vec<&[u64]> =
            (0..self.store.data.len()).map(|id| self.store.data.row(id)).collect();
        let hits = self.par_search(&rows, tau, threads).into_iter().enumerate();
        let pairs = hits.flat_map(|(id, hits)| hits.into_iter().map(move |hit| (id as u32, hit)));
        pairs.filter(|&(id, hit)| hit > id).collect()
    }

    /// Batched parallel search over `queries` with `threads` workers
    /// (std scoped threads; each worker owns its scratch). Order of
    /// results matches query order. The paper lists the parallel case as
    /// future work — this is the straightforward data-parallel reading.
    pub fn par_search(&self, queries: &[&[u64]], tau: u32, threads: usize) -> Vec<Vec<u32>> {
        // Clamp before computing the chunk size: an empty batch would
        // otherwise give `chunk == 0`, which `chunks_mut` rejects, and
        // `threads > queries.len()` would strand workers on empty ranges.
        let threads = threads.max(1).min(queries.len());
        if threads <= 1 {
            return queries.iter().map(|q| self.search(q, tau)).collect();
        }
        let mut results: Vec<Vec<u32>> = vec![Vec::new(); queries.len()];
        let chunk = queries.len().div_ceil(threads);
        std::thread::scope(|scope| {
            // `chunks_mut` pairs each output chunk with its query range;
            // the final chunk carries the remainder (`len % chunk`), so
            // every query is covered exactly once.
            for (ci, out_chunk) in results.chunks_mut(chunk).enumerate() {
                let qs = &queries[ci * chunk..(ci * chunk + out_chunk.len())];
                scope.spawn(move || {
                    for (slot, q) in out_chunk.iter_mut().zip(qs) {
                        *slot = self.search(q, tau);
                    }
                });
            }
        });
        results
    }

    /// The partitioning in use.
    pub fn partitioning(&self) -> &Partitioning {
        &self.plan.partitioning
    }

    /// Largest threshold the engine serves.
    pub fn tau_max(&self) -> usize {
        self.plan.tau_max
    }

    /// The indexed data.
    pub fn data(&self) -> &Dataset {
        &self.store.data
    }

    /// Offline build timing decomposition.
    pub fn build_stats(&self) -> BuildStats {
        self.build_stats
    }

    /// Index + estimator heap size, and nothing else (Fig. 6 accounting:
    /// GPH is charged for its estimator state on top of the postings;
    /// the rows themselves are the corpus, not the index).
    pub fn size_bytes(&self) -> usize {
        self.store.index.size_bytes() + self.plan.estimator.size_bytes()
    }

    /// Size of the inverted index alone.
    pub fn index_size_bytes(&self) -> usize {
        self.store.index.size_bytes()
    }
}

/// Threshold spread used for auto-sampled workloads: covers
/// `{2, τ_max/4, τ_max/2, 3τ_max/4, τ_max}` so one partitioning serves
/// every runtime τ (§V-B).
pub fn default_workload_taus(tau_max: usize) -> Vec<u32> {
    let t = tau_max as u32;
    let mut v = vec![2.min(t), (t / 4).max(1), (t / 2).max(1), (3 * t / 4).max(1), t.max(1)];
    // `dedup` only removes *consecutive* duplicates; for small tau_max the
    // anchors are out of order (e.g. tau_max = 4 gives [2, 1, 2, 3, 4]),
    // so sort first to make deduplication total.
    v.sort_unstable();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_dataset(dim: usize, n: usize, p: f64, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ds = Dataset::new(dim);
        for _ in 0..n {
            let v = hamming_core::BitVector::from_bits((0..dim).map(|_| rng.random_bool(p)));
            ds.push(&v).unwrap();
        }
        ds
    }

    fn check_against_scan(cfg: &GphConfig, dim: usize, n: usize, taus: &[u32], seed: u64) {
        let ds = random_dataset(dim, n, 0.35, seed);
        let queries = random_dataset(dim, 12, 0.35, seed ^ 1);
        let gph = Gph::build(ds.clone(), cfg).unwrap();
        for tau in taus {
            for qi in 0..queries.len() {
                let q = queries.row(qi);
                let got = gph.search(q, *tau);
                let expect = ds.linear_scan(q, *tau);
                assert_eq!(got, expect, "tau={tau} qi={qi} cfg={cfg:?}");
            }
        }
    }

    #[test]
    fn exact_results_with_default_config() {
        let mut cfg = GphConfig::new(4, 8);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 5 };
        check_against_scan(&cfg, 64, 400, &[0, 1, 4, 8], 42);
    }

    #[test]
    fn exact_results_with_rr_allocator() {
        let mut cfg = GphConfig::new(4, 8);
        cfg.allocator = AllocatorKind::RoundRobin;
        cfg.strategy = PartitionStrategy::Original;
        check_against_scan(&cfg, 64, 300, &[3, 6], 43);
    }

    #[test]
    fn exact_results_with_heuristic_partitioning() {
        let mut cfg = GphConfig::new(4, 6);
        cfg.strategy = PartitionStrategy::Heuristic(crate::partition_opt::HeuristicConfig {
            max_iters: 3,
            move_budget: Some(64),
            sample_rows: 200,
            ..Default::default()
        });
        check_against_scan(&cfg, 48, 250, &[2, 6], 44);
    }

    #[test]
    fn exact_results_with_exact_estimator() {
        let mut cfg = GphConfig::new(4, 8);
        cfg.estimator = EstimatorKind::Exact { max_width: 16 };
        cfg.strategy = PartitionStrategy::Original;
        check_against_scan(&cfg, 48, 300, &[5], 45);
    }

    #[test]
    fn exact_results_single_partition() {
        let mut cfg = GphConfig::new(1, 4);
        cfg.strategy = PartitionStrategy::Original;
        check_against_scan(&cfg, 24, 150, &[0, 2, 4], 46);
    }

    #[test]
    fn stats_are_consistent() {
        let mut cfg = GphConfig::new(4, 8);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 7 };
        let ds = random_dataset(64, 500, 0.4, 47);
        let gph = Gph::build(ds.clone(), &cfg).unwrap();
        let q = ds.row(0).to_vec();
        let res = gph.search_with_stats(&q, 6);
        assert!(res.ids.contains(&0), "query is a data vector");
        let st = &res.stats;
        assert_eq!(st.thresholds.len(), 4);
        assert_eq!(st.thresholds.iter().map(|&t| t as i64).sum::<i64>(), 6 - 4 + 1);
        assert!(st.n_candidates <= st.sum_postings + st.n_scanned);
        assert!(st.n_results <= st.n_candidates);
        assert_eq!(st.n_results as usize, res.ids.len());
    }

    #[test]
    fn scan_fallback_reports_n_scanned_not_postings() {
        // A single wide partition at a large radius makes the signature
        // ball outnumber the data, forcing the scan fallback for every
        // query. Scanned rows must land in `n_scanned`; `sum_postings`
        // keeps its Σ|I_s| meaning (zero — no postings were probed).
        let ds = random_dataset(32, 60, 0.5, 54);
        let mut cfg = GphConfig::new(1, 12);
        cfg.strategy = PartitionStrategy::Original;
        let gph = Gph::build(ds.clone(), &cfg).unwrap();
        let q = ds.row(0).to_vec();
        let res = gph.search_with_stats(&q, 12);
        let st = &res.stats;
        assert_eq!(st.n_scanned, ds.len() as u64, "one full pass over the data");
        assert_eq!(st.sum_postings, 0, "no index probes on the fallback path");
        assert!(st.n_candidates <= st.sum_postings + st.n_scanned);
        assert_eq!(res.ids, ds.linear_scan(&q, 12), "fallback stays exact");
    }

    #[test]
    fn topk_returns_nearest() {
        let ds = random_dataset(32, 300, 0.5, 48);
        let mut cfg = GphConfig::new(2, 16);
        cfg.strategy = PartitionStrategy::Original;
        let gph = Gph::build(ds.clone(), &cfg).unwrap();
        let q = ds.row(5).to_vec();
        let top = gph.search_topk(&q, 3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0], (5, 0), "self is nearest");
        assert!(top[1].1 <= top[2].1);
        // Cross-check the 2nd nearest against a scan.
        let mut all: Vec<(u32, u32)> =
            (0..ds.len()).map(|i| (i as u32, ds.distance_to(i, &q))).collect();
        all.sort_by_key(|&(id, d)| (d, id));
        assert_eq!(top[1], all[1]);
    }

    #[test]
    fn topk_within_caps_the_radius() {
        let ds = random_dataset(32, 300, 0.5, 48);
        let mut cfg = GphConfig::new(2, 16);
        cfg.strategy = PartitionStrategy::Original;
        let gph = Gph::build(ds.clone(), &cfg).unwrap();
        let q = ds.row(5).to_vec();
        // Cap == tau_max is exactly search_topk.
        assert_eq!(gph.search_topk_within(&q, 4, 16), gph.search_topk(&q, 4));
        // A capped search never returns a hit beyond the cap, and within
        // the cap it is exhaustive (matches a brute-force scan).
        for cap in [0u32, 2, 7] {
            let got = gph.search_topk_within(&q, 10, cap);
            assert!(got.iter().all(|&(_, d)| d <= cap), "cap={cap} got={got:?}");
            let mut expect: Vec<(u32, u32)> = (0..ds.len())
                .map(|i| (i as u32, ds.distance_to(i, &q)))
                .filter(|&(_, d)| d <= cap)
                .collect();
            expect.sort_by_key(|&(id, d)| (d, id));
            expect.truncate(10);
            assert_eq!(got, expect, "cap={cap}");
        }
    }

    #[test]
    fn par_search_matches_serial() {
        let ds = random_dataset(64, 400, 0.45, 49);
        let queries = random_dataset(64, 9, 0.45, 50);
        let mut cfg = GphConfig::new(4, 6);
        cfg.strategy = PartitionStrategy::Original;
        let gph = Gph::build(ds, &cfg).unwrap();
        let qrefs: Vec<&[u64]> = (0..queries.len()).map(|i| queries.row(i)).collect();
        let par = gph.par_search(&qrefs, 5, 3);
        for (i, q) in qrefs.iter().enumerate() {
            assert_eq!(par[i], gph.search(q, 5), "query {i}");
        }
    }

    #[test]
    fn par_search_handles_empty_remainder_and_oversubscription() {
        let ds = random_dataset(32, 200, 0.5, 61);
        let queries = random_dataset(32, 5, 0.5, 62);
        let mut cfg = GphConfig::new(2, 6);
        cfg.strategy = PartitionStrategy::Original;
        let gph = Gph::build(ds, &cfg).unwrap();
        let qrefs: Vec<&[u64]> = (0..queries.len()).map(|i| queries.row(i)).collect();
        // No queries: must return an empty batch, not panic on a
        // zero-sized chunk.
        assert!(gph.par_search(&[], 4, 3).is_empty());
        // More threads than queries: clamped, every query answered.
        let serial: Vec<Vec<u32>> = qrefs.iter().map(|q| gph.search(q, 4)).collect();
        assert_eq!(gph.par_search(&qrefs, 4, 64), serial);
        // Remainder smaller than the chunk (5 queries over 2 workers →
        // chunks of 3 + 2): nothing dropped.
        assert_eq!(gph.par_search(&qrefs, 4, 2), serial);
        // threads == 0 degrades to serial.
        assert_eq!(gph.par_search(&qrefs, 4, 0), serial);
    }

    #[test]
    fn engine_is_send_and_sync() {
        // The serving layer (gph-serve) shares one engine across shard
        // builders and worker threads; this pins the auto-trait bounds so
        // a future field can't silently revoke them.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Gph>();
        assert_send_sync::<QueryStats>();
        assert_send_sync::<SearchResult>();
    }

    #[test]
    #[should_panic(expected = "exceeds the configured tau_max")]
    fn tau_above_max_panics() {
        let ds = random_dataset(32, 50, 0.5, 51);
        let cfg = GphConfig { strategy: PartitionStrategy::Original, ..GphConfig::new(2, 4) };
        let gph = Gph::build(ds, &cfg).unwrap();
        let q = vec![0u64; 1];
        let _ = gph.search(&q, 5);
    }

    #[test]
    fn build_stats_and_sizes_populated() {
        let ds = random_dataset(32, 200, 0.5, 52);
        let cfg = GphConfig { strategy: PartitionStrategy::Original, ..GphConfig::new(2, 4) };
        let gph = Gph::build(ds, &cfg).unwrap();
        assert!(gph.size_bytes() > 0);
        assert!(gph.index_size_bytes() <= gph.size_bytes());
    }

    #[test]
    fn size_bytes_is_the_index_plus_the_estimator_and_nothing_else() {
        // The benchmark's shape: 128 bits in partitions of 26, 26, 26,
        // 25 and 25 bits, tau_max 16, the default SP estimator. Each
        // partition splits into two sub-tables of 2^13 (or 2^12) values
        // × 7 radii (0..=6, the lower half of 13 or 12 bits): 516 096
        // counts whatever the row count, at 2 bytes each while no count
        // passes 65 535, as none does of 300 rows.
        let ds = random_dataset(128, 300, 0.5, 55);
        let cfg = GphConfig { strategy: PartitionStrategy::Original, ..GphConfig::new(5, 16) };
        let gph = Gph::build(ds, &cfg).unwrap();
        let widths: Vec<usize> = gph.partitioning().parts().iter().map(|p| p.len()).collect();
        assert_eq!(widths, [26, 26, 26, 25, 25]);
        let estimator = gph.plan.estimator.size_bytes();
        assert_eq!(estimator, 1_032_192);
        // No hidden copy of the rows rides along.
        assert_eq!(gph.size_bytes(), gph.index_size_bytes() + estimator);
    }

    #[test]
    fn self_join_matches_bruteforce() {
        let ds = random_dataset(32, 120, 0.5, 60);
        let mut cfg = GphConfig::new(2, 8);
        cfg.strategy = PartitionStrategy::Original;
        let gph = Gph::build(ds.clone(), &cfg).unwrap();
        let tau = 8u32;
        let got = gph.self_join(tau, 3);
        let mut expect = Vec::new();
        for a in 0..ds.len() {
            for b in (a + 1)..ds.len() {
                if hamming_core::distance::hamming(ds.row(a), ds.row(b)) <= tau {
                    expect.push((a as u32, b as u32));
                }
            }
        }
        assert_eq!(got, expect);
        // Single-threaded agrees.
        assert_eq!(gph.self_join(tau, 1), expect);
    }

    #[test]
    fn estimate_cost_tracks_candidate_work() {
        let ds = random_dataset(64, 800, 0.35, 53);
        let mut cfg = GphConfig::new(4, 16);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 3 };
        let gph = Gph::build(ds.clone(), &cfg).unwrap();
        let q = ds.row(0).to_vec();
        // Cost estimates grow with tau and are finite/non-negative.
        let c4 = gph.estimate_cost(&q, 4);
        let c16 = gph.estimate_cost(&q, 16);
        assert!(c4 >= 0.0 && c16.is_finite());
        assert!(c16 >= c4, "c4={c4} c16={c16}");
    }

    #[test]
    fn default_workload_taus_cover_range() {
        let taus = default_workload_taus(32);
        assert!(taus.contains(&2));
        assert!(taus.contains(&32));
        let taus1 = default_workload_taus(1);
        assert!(!taus1.is_empty());
    }

    #[test]
    fn default_workload_taus_sorted_and_distinct_for_small_tau_max() {
        for tau_max in 1..=5 {
            let taus = default_workload_taus(tau_max);
            assert!(!taus.is_empty(), "tau_max={tau_max} produced no taus");
            assert!(
                taus.windows(2).all(|w| w[0] < w[1]),
                "tau_max={tau_max} gave unsorted or duplicate thresholds: {taus:?}"
            );
            assert!(
                taus.iter().all(|&t| t >= 1 && t <= tau_max.max(1) as u32),
                "tau_max={tau_max} gave out-of-range thresholds: {taus:?}"
            );
            // The largest workload threshold is always tau_max itself.
            assert_eq!(taus.last(), Some(&(tau_max.max(1) as u32)));
        }
        // The regression the sort fixes: tau_max = 4 used to yield
        // [2, 1, 2, 3, 4] because dedup only removes adjacent repeats.
        assert_eq!(default_workload_taus(4), vec![1, 2, 3, 4]);
    }

    /// 128-bit rows in eight blocks of sixteen dimensions. Each block
    /// follows a latent bit of its own, and each dimension copies it
    /// with its own noise rate, so entropy, skew and correlation all
    /// vary across the dimensions.
    fn correlated_blocks(n: usize, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let noise: Vec<f64> =
            (0..128).map(|d| 0.02 + 0.4 * ((d * 37 % 128) as f64 / 128.0)).collect();
        let mut ds = Dataset::new(128);
        for _ in 0..n {
            let latent: Vec<bool> =
                (0..8).map(|b| rng.random_bool(0.2 + 0.08 * b as f64)).collect();
            let v = hamming_core::BitVector::from_bits(
                (0..128).map(|d| latent[d / 16] ^ rng.random_bool(noise[d])),
            );
            ds.push(&v).unwrap();
        }
        ds
    }

    #[test]
    fn built_bytes_are_pinned() {
        // The offline phase is deterministic: GR, the projection, the
        // CSR arrays and the SP tables of a seeded build are the same
        // bytes on every machine. Only the build timings vary, so they
        // are zeroed before the bytes are checksummed.
        use crate::partition_opt::{greedy_entropy_init, HeuristicConfig};
        let ds = correlated_blocks(3000, 41);
        let HeuristicConfig { sample_rows, seed, .. } = HeuristicConfig::default();
        for (m, want) in [(5, 0x7815_f867_u32), (7, 0xc420_db32)] {
            let mut g = Gph::build(ds.clone(), &GphConfig::new(m, 16)).unwrap();
            // The hill climb moved dimensions, so the pin covers it and
            // not only the initialisation.
            let init = greedy_entropy_init(&ds, m, sample_rows, seed).unwrap();
            assert_ne!(g.partitioning().assignment(), init.assignment(), "m = {m}");
            g.build_stats = BuildStats::default();
            assert_eq!(hamming_core::io::crc32(&g.to_bytes()), want, "m = {m}");
        }
    }
}
