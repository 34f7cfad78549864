//! The query service: a worker pool over a bounded MPMC queue.
//!
//! Every read — a range query, a batch of them, a top-k query, a traced
//! range query — takes one path: **cache lookup** (a hit returns
//! immediately; a traced read skips it) → **admission** (reject /
//! degrade / admit, from the cost estimate at the radius the read asks
//! for: τ for range, `tau_max` for top-k) → **enqueue** (bounded queue;
//! [`QueryService::try_submit_batch`] sheds load when full) → **worker**
//! runs the read on the [`ShardedIndex`], records metrics, and populates
//! the cache. A [`Ticket`] joins the immediate outcomes (cache hits,
//! rejections) with worker-produced responses in submission order.

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionDecision, AdmissionStats};
use crate::cache::{CacheKey, CacheStats, CachedResult, ResultCache};
use crate::shard::ShardedIndex;
use crate::stats::{ServiceMetrics, ServiceStats};
use crossbeam::channel;
use gph::coldstore::StorageMode;
use gph_obs::{Gauge, MetricsRegistry, QueryTrace, TraceConfig, Tracer};
use std::iter;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Service knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads draining the queue. 0 = one per available core
    /// (capped at 8).
    pub workers: usize,
    /// Bounded queue depth, in jobs (a batch is one job).
    pub queue_capacity: usize,
    /// LRU result-cache entries. 0 disables caching.
    pub cache_capacity: usize,
    /// Admission-control knobs.
    pub admission: AdmissionConfig,
    /// Query-tracing policy (sampling rate, slow-query ring).
    pub trace: TraceConfig,
    /// Where GPH segments live: [`StorageMode::Resident`] keeps every
    /// engine in memory; [`StorageMode::FileBacked`] serves GPH
    /// segments out-of-core from snapshot files through one page cache
    /// for the whole node, every shard's segments included, bounded by
    /// the budget. Row slabs (what a seal freezes, or a merge below the
    /// crossover writes) stay resident in either mode, as the memtable
    /// does. Applied by [`QueryService::warm_start`] at restore time,
    /// which makes the node's one spill store; GPH segments that merges
    /// build while serving spill into it.
    pub storage: StorageMode,
    /// Build/restore generation the operator stamps on this service
    /// (bumped per rebuild or warm restart). Reported verbatim by the
    /// network `Health` op so fleet clients can tell a restarted node
    /// from a stale one.
    pub generation: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            queue_capacity: 64,
            cache_capacity: 1024,
            admission: AdmissionConfig::default(),
            trace: TraceConfig::default(),
            storage: StorageMode::Resident,
            generation: 0,
        }
    }
}

/// One mutation's outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MutationOutcome {
    /// The mutation committed. `replaced` is true when an upsert
    /// displaced a live row (inserts report false, deletes true).
    Applied {
        /// Whether a live row was displaced or removed.
        replaced: bool,
    },
    /// A delete named an id that was not live.
    NotFound,
    /// Admission refused the mutation.
    Rejected {
        /// Estimated cost of the mutation.
        estimated_cost: f64,
        /// Budget it exceeded.
        budget: f64,
    },
}

/// One mutation's response.
#[derive(Clone, Copy, Debug)]
pub struct MutationResponse {
    /// What happened.
    pub outcome: MutationOutcome,
    /// Submit → commit latency in nanoseconds.
    pub latency_ns: u64,
}

/// One request's outcome.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Range search results.
    Ids {
        /// Matching global IDs, ascending (shared with the cache).
        ids: Arc<Vec<u32>>,
        /// Threshold actually executed.
        tau: u32,
        /// Set when admission degraded the query: the threshold the
        /// client asked for.
        degraded_from: Option<u32>,
    },
    /// Top-k results: `(id, distance)` ascending by `(distance, id)`.
    TopK {
        /// The hits (shared with the cache).
        hits: Arc<Vec<(u32, u32)>>,
        /// Set when admission degraded the query: the escalation cap the
        /// search actually ran (below the index's `tau_max`).
        degraded_cap: Option<u32>,
    },
    /// Admission refused the query.
    Rejected {
        /// Estimated cost at the requested threshold.
        estimated_cost: f64,
        /// Budget it exceeded.
        budget: f64,
    },
    /// Load-shed by [`QueryService::try_submit_batch`]: the queue was
    /// full, so the query was never executed.
    Overloaded,
    /// The service shut down before the request was executed.
    Dropped,
}

/// One request's response.
#[derive(Clone, Debug)]
pub struct Response {
    /// What happened.
    pub outcome: Outcome,
    /// Whether the result came from the cache.
    pub from_cache: bool,
    /// Submit → response latency in nanoseconds. Cache hits and
    /// rejections resolve inside `submit`, so theirs measures the
    /// lookup/admission path (sub-microsecond, but real).
    pub latency_ns: u64,
    /// Per-phase trace, present only for requests submitted through
    /// [`QueryService::submit_traced`] that reached the engine.
    pub trace: Option<Box<QueryTrace>>,
}

impl Response {
    /// The result IDs, if the request produced any.
    pub fn ids(&self) -> Option<&[u32]> {
        match &self.outcome {
            Outcome::Ids { ids, .. } => Some(ids),
            _ => None,
        }
    }
}

/// A queued read: the key it answers (and is cached under), the radius
/// admission lets it run at (τ for range, the escalation cap for
/// top-k), and whether its trace rides the response (set by
/// [`QueryService::submit_traced`]).
struct Read {
    key: CacheKey,
    radius: u32,
    traced: bool,
}

/// A read's query words and the radius it asks for: τ for range, the
/// full escalation radius `tau_max` for top-k. Admission prices the read
/// there, and its response reports a degrade against it.
fn asked(key: &CacheKey, tau_max: u32) -> (&[u64], u32) {
    match key {
        CacheKey::Range { query, tau } => (query, *tau),
        CacheKey::TopK { query, .. } => (query, tau_max),
    }
}

struct Job {
    reads: Vec<Read>,
    submitted: Instant,
    reply: channel::Sender<Vec<Response>>,
}

/// How each slot of a ticket resolves.
enum Slot {
    /// Resolved at submit time (cache hit or rejection).
    Ready(Response),
    /// The `i`-th response of the pending job.
    Pending(usize),
}

/// Handle to an in-flight submission; [`Ticket::wait`] blocks for the
/// responses, in the order the requests were submitted.
pub struct Ticket {
    slots: Vec<Slot>,
    rx: Option<channel::Receiver<Vec<Response>>>,
}

impl Ticket {
    /// The responses, if every request resolved at submit time (cache
    /// hits, admission rejections, shed load) so that nothing was
    /// queued; the ticket back otherwise. Never blocks.
    pub fn into_ready(self) -> Result<Vec<Response>, Ticket> {
        match self.rx {
            Some(_) => Err(self),
            None => Ok(self.wait()),
        }
    }

    /// Blocks until every request in the submission has a response.
    pub fn wait(self) -> Vec<Response> {
        let computed: Vec<Response> = match self.rx {
            Some(rx) => rx.recv().unwrap_or_default(),
            None => Vec::new(),
        };
        self.slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Ready(r) => r,
                Slot::Pending(i) => computed.get(i).cloned().unwrap_or(Response {
                    outcome: Outcome::Dropped,
                    from_cache: false,
                    latency_ns: 0,
                    trace: None,
                }),
            })
            .collect()
    }
}

/// Gauges refreshed at scrape time from the live snapshots, so the
/// exposition never lags the counters it sits next to.
struct ScrapeGauges {
    cache_hits: Gauge,
    cache_misses: Gauge,
    cache_invalidations: Gauge,
    cache_len: Gauge,
    cache_capacity: Gauge,
    admission_admitted: Gauge,
    admission_degraded: Gauge,
    admission_rejected: Gauge,
    index_rows: Gauge,
    index_shards: Gauge,
    pagecache_hits: Gauge,
    pagecache_misses: Gauge,
    pagecache_evictions: Gauge,
    pagecache_resident_bytes: Gauge,
}

impl ScrapeGauges {
    fn registered(registry: &MetricsRegistry) -> Self {
        let g = |name: &str, help: &str| registry.gauge(name, help, &[]);
        ScrapeGauges {
            cache_hits: g("gph_cache_hits", "Result-cache lookup hits."),
            cache_misses: g("gph_cache_misses", "Result-cache lookup misses."),
            cache_invalidations: g(
                "gph_cache_invalidations",
                "Cached results dropped because a mutation changed their answer.",
            ),
            cache_len: g("gph_cache_len", "Entries currently resident in the result cache."),
            cache_capacity: g("gph_cache_capacity", "Configured result-cache capacity."),
            admission_admitted: g("gph_admission_admitted", "Queries admitted at full threshold."),
            admission_degraded: g(
                "gph_admission_degraded",
                "Queries degraded to a cheaper threshold.",
            ),
            admission_rejected: g("gph_admission_rejected", "Queries rejected by admission."),
            index_rows: g("gph_index_rows", "Live rows across every shard."),
            index_shards: g("gph_index_shards", "Shards in the serving index."),
            pagecache_hits: g(
                "gph_pagecache_hits",
                "Page-cache hits across file-backed shards (0 when fully resident).",
            ),
            pagecache_misses: g(
                "gph_pagecache_misses",
                "Page-cache misses (each one is a block read from a segment file).",
            ),
            pagecache_evictions: g(
                "gph_pagecache_evictions",
                "Pages evicted to stay within the configured memory budget.",
            ),
            pagecache_resident_bytes: g(
                "gph_pagecache_resident_bytes",
                "Bytes of segment pages currently held in memory.",
            ),
        }
    }
}

struct Shared {
    index: Arc<ShardedIndex>,
    cache: ResultCache,
    admission: AdmissionController,
    metrics: ServiceMetrics,
    registry: Arc<MetricsRegistry>,
    tracer: Tracer,
    gauges: ScrapeGauges,
}

impl Shared {
    /// The response to an answered read, from the cache and from a
    /// worker alike: a degrade is reported against the radius the read
    /// `asked` for, and the response is counted.
    fn answered(
        &self,
        result: CachedResult,
        asked: u32,
        from_cache: bool,
        submitted: Instant,
        trace: Option<Box<QueryTrace>>,
    ) -> Response {
        let outcome = match result {
            CachedResult::Range { ids, effective_tau } => Outcome::Ids {
                ids,
                tau: effective_tau,
                degraded_from: (effective_tau != asked).then_some(asked),
            },
            CachedResult::TopK { hits, effective_cap } => Outcome::TopK {
                hits,
                degraded_cap: (effective_cap != asked).then_some(effective_cap),
            },
        };
        let latency_ns = submitted.elapsed().as_nanos() as u64;
        self.metrics.note_response(latency_ns);
        Response { outcome, from_cache, latency_ns, trace }
    }
}

/// The response to a read that admission refused or the full queue
/// shed: not counted as a response.
fn unanswered(outcome: Outcome, submitted: Instant) -> Response {
    Response {
        outcome,
        from_cache: false,
        latency_ns: submitted.elapsed().as_nanos() as u64,
        trace: None,
    }
}

/// The serving front end: admission control + result cache in front of a
/// worker pool scatter-gathering on a [`ShardedIndex`], with live
/// inserts/deletes/upserts applied directly to the owning shard.
///
/// # Example
///
/// ```
/// use gph::engine::GphConfig;
/// use gph::partition_opt::PartitionStrategy;
/// use gph_serve::{QueryService, ServiceConfig, ShardedIndex};
/// use hamming_core::{BitVector, Dataset};
/// use std::sync::Arc;
///
/// // Index a handful of 16-dimensional rows over 2 shards.
/// let rows = ["0000111100001111", "0000111100001010", "1111000011110000"];
/// let data =
///     Dataset::from_vectors(16, rows.iter().map(|s| BitVector::parse(s).unwrap())).unwrap();
/// let mut cfg = GphConfig::new(2, 4);
/// cfg.strategy = PartitionStrategy::Original;
/// let index = Arc::new(ShardedIndex::build(&data, 2, &cfg).unwrap());
///
/// let service = QueryService::new(index, ServiceConfig {
///     workers: 1,
///     ..ServiceConfig::default()
/// });
/// let q = BitVector::parse("0000111100001111").unwrap();
/// assert_eq!(service.query(q.words(), 3).ids().unwrap(), &[0, 1]);
///
/// // Live updates go through the same front end (and drop the cached
/// // answers they change).
/// service.delete(1);
/// assert_eq!(service.query(q.words(), 3).ids().unwrap(), &[0]);
/// service.shutdown();
/// ```
pub struct QueryService {
    shared: Arc<Shared>,
    tx: Option<channel::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    generation: u64,
    queue_capacity: usize,
}

impl QueryService {
    /// Spawns the worker pool over `index`.
    pub fn new(index: Arc<ShardedIndex>, cfg: ServiceConfig) -> Self {
        let workers = if cfg.workers > 0 {
            cfg.workers
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).min(8)
        };
        let registry = Arc::new(MetricsRegistry::new());
        let shared = Arc::new(Shared {
            index,
            cache: ResultCache::new(cfg.cache_capacity),
            admission: AdmissionController::new(cfg.admission),
            metrics: ServiceMetrics::registered(&registry),
            tracer: Tracer::new(cfg.trace, &registry),
            gauges: ScrapeGauges::registered(&registry),
            registry,
        });
        let (tx, rx) = channel::bounded::<Job>(cfg.queue_capacity.max(1));
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("gph-serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared, &rx))
                    .expect("spawning a worker thread")
            })
            .collect();
        QueryService {
            shared,
            tx: Some(tx),
            workers: handles,
            generation: cfg.generation,
            queue_capacity: cfg.queue_capacity.max(1),
        }
    }

    /// Warm-starts a service from a [`ShardedIndex::snapshot`]
    /// directory: restores every shard engine in parallel (no partition
    /// optimization, index construction, or estimator training) and
    /// spawns the worker pool over the restored fleet.
    ///
    /// [`ServiceConfig::storage`] picks the restore path. The default
    /// keeps everything resident. With [`StorageMode::FileBacked`] the
    /// shard snapshots are mapped rather than read — only headers,
    /// footers, metadata and one key per key page load eagerly, so
    /// startup grows only with the number of key pages, and every shard
    /// pages through the node's one cache, so the node serves corpora
    /// larger than the page-cache budget within that budget:
    ///
    /// ```
    /// use gph::coldstore::StorageMode;
    /// use gph::engine::GphConfig;
    /// use gph::partition_opt::PartitionStrategy;
    /// use gph_serve::{QueryService, ServiceConfig, ShardedIndex};
    /// use hamming_core::{BitVector, Dataset};
    ///
    /// let rows = ["0000111100001111", "0000111100001010", "1111000011110000"];
    /// let data =
    ///     Dataset::from_vectors(16, rows.iter().map(|s| BitVector::parse(s).unwrap())).unwrap();
    /// let mut cfg = GphConfig::new(2, 4);
    /// cfg.strategy = PartitionStrategy::Original;
    /// let index = ShardedIndex::build(&data, 2, &cfg).unwrap();
    /// let dir = std::env::temp_dir().join("gph-warm-start-doc");
    /// index.snapshot(&dir).unwrap();
    ///
    /// // Serve the same snapshot out-of-core: sealed segments page
    /// // through a 1 MiB cache instead of loading into memory.
    /// let service = QueryService::warm_start(&dir, ServiceConfig {
    ///     workers: 1,
    ///     storage: StorageMode::FileBacked { budget_bytes: 1 << 20 },
    ///     ..ServiceConfig::default()
    /// }).unwrap();
    /// let q = BitVector::parse("0000111100001111").unwrap();
    /// assert_eq!(service.query(q.words(), 3).ids().unwrap(), &[0, 1]);
    /// service.shutdown();
    /// std::fs::remove_dir_all(&dir).ok();
    /// ```
    pub fn warm_start<P: AsRef<std::path::Path>>(
        dir: P,
        cfg: ServiceConfig,
    ) -> hamming_core::error::Result<Self> {
        Ok(QueryService::new(Arc::new(ShardedIndex::restore_with_storage(dir, cfg.storage)?), cfg))
    }

    /// Submits one range query; blocks only if the queue is full.
    pub fn submit(&self, query: &[u64], tau: u32) -> Ticket {
        self.submit_reads(iter::once(CacheKey::Range { query: query.to_vec(), tau }), false, true)
    }

    /// Submits a batch of range queries at a shared threshold as one
    /// job — workers execute the whole batch back-to-back, amortizing
    /// dispatch. Blocks only if the queue is full.
    pub fn submit_batch(&self, queries: &[&[u64]], tau: u32) -> Ticket {
        self.submit_reads(
            queries.iter().map(|q| CacheKey::Range { query: q.to_vec(), tau }),
            false,
            true,
        )
    }

    /// Like [`QueryService::submit_batch`] but sheds load instead of
    /// blocking: when the queue is full, the queries that would have
    /// queued resolve to [`Outcome::Overloaded`] (cache hits and
    /// admission rejections still resolve normally).
    pub fn try_submit_batch(&self, queries: &[&[u64]], tau: u32) -> Ticket {
        self.submit_reads(
            queries.iter().map(|q| CacheKey::Range { query: q.to_vec(), tau }),
            false,
            false,
        )
    }

    /// Submits one top-k query. Admission prices it at the full
    /// escalation radius (`tau_max`, the cost ceiling threshold
    /// escalation can reach); over-budget queries are degraded to a
    /// smaller escalation cap or rejected per the configured policy.
    /// A `k` past `u32::MAX` runs (and is cached) as `u32::MAX`: every
    /// `k` at or past the row count returns the same rows.
    pub fn submit_topk(&self, query: &[u64], k: usize) -> Ticket {
        let k = u32::try_from(k).unwrap_or(u32::MAX);
        self.submit_reads(iter::once(CacheKey::TopK { query: query.to_vec(), k }), false, true)
    }

    /// Convenience: submit one range query and wait.
    pub fn query(&self, query: &[u64], tau: u32) -> Response {
        self.submit(query, tau).wait().pop().expect("single submission yields one response")
    }

    /// Convenience: submit one top-k query and wait.
    pub fn query_topk(&self, query: &[u64], k: usize) -> Response {
        self.submit_topk(query, k).wait().pop().expect("single submission yields one response")
    }

    /// Submits one range query that always runs the traced search and
    /// carries its own [`QueryTrace`] in [`Response::trace`]. The cache
    /// is bypassed on lookup (a hit would have no trace to return) but
    /// the result is still stored for later plain queries. Admission
    /// applies as usual; rejected queries have no trace.
    pub fn submit_traced(&self, query: &[u64], tau: u32) -> Ticket {
        self.submit_reads(iter::once(CacheKey::Range { query: query.to_vec(), tau }), true, true)
    }

    /// Convenience: submit one traced range query and wait.
    pub fn query_traced(&self, query: &[u64], tau: u32) -> Response {
        self.submit_traced(query, tau).wait().pop().expect("single submission yields one response")
    }

    /// Inserts `row` under `id`. Priced by the admission controller (an
    /// insert that triggers a segment flush costs that flush); an applied
    /// insert drops the cached answers within whose radius `row` lies.
    /// Errors if `id` is already live or the row is malformed.
    pub fn insert(&self, id: u32, row: &[u64]) -> hamming_core::error::Result<MutationResponse> {
        self.write(id, row, false)
    }

    /// Tombstones `id`; [`MutationOutcome::NotFound`] when it was not
    /// live. An applied delete drops the cached answers that held `id`.
    pub fn delete(&self, id: u32) -> MutationResponse {
        let submitted = Instant::now();
        if let Some(resp) = self.price_mutation(self.shared.index.delete_cost(id), submitted) {
            return resp;
        }
        let outcome = if self.shared.index.delete(id) {
            self.commit_mutation(None, Some(id));
            MutationOutcome::Applied { replaced: true }
        } else {
            MutationOutcome::NotFound
        };
        MutationResponse { outcome, latency_ns: submitted.elapsed().as_nanos() as u64 }
    }

    /// Inserts `row` under `id`, replacing any live row with that id.
    pub fn upsert(&self, id: u32, row: &[u64]) -> hamming_core::error::Result<MutationResponse> {
        self.write(id, row, true)
    }

    fn write(
        &self,
        id: u32,
        row: &[u64],
        replace: bool,
    ) -> hamming_core::error::Result<MutationResponse> {
        let submitted = Instant::now();
        if let Some(resp) = self.price_mutation(self.shared.index.next_insert_cost(id), submitted) {
            return Ok(resp);
        }
        let (written, result) = self.shared.index.write(id, row, replace);
        // Before the error propagates: when the flush behind a write
        // fails, the row is live all the same (and an upsert's old row
        // gone), so cached answers are as stale as after a clean write.
        if written.inserted || written.removed {
            self.commit_mutation(written.inserted.then_some(row), written.removed.then_some(id));
        }
        result?;
        Ok(MutationResponse {
            outcome: MutationOutcome::Applied { replaced: written.removed },
            latency_ns: submitted.elapsed().as_nanos() as u64,
        })
    }

    /// Runs admission on a mutation cost; `Some` is an early rejection.
    fn price_mutation(&self, cost: f64, submitted: Instant) -> Option<MutationResponse> {
        match self.shared.admission.evaluate_mutation(cost) {
            AdmissionDecision::Reject { estimated_cost, budget } => Some(MutationResponse {
                outcome: MutationOutcome::Rejected { estimated_cost, budget },
                latency_ns: submitted.elapsed().as_nanos() as u64,
            }),
            _ => None,
        }
    }

    /// Books a change of the live set: the cached answers it can have
    /// changed are dropped, and it counts as one mutation.
    fn commit_mutation(&self, inserted: Option<&[u64]>, removed: Option<u32>) {
        self.shared.cache.invalidate(inserted, removed);
        self.shared.metrics.note_mutation();
    }

    /// The one read path. Per read: a cache lookup (skipped when
    /// `traced`), then admission at the radius the read asks for; an
    /// admitted read queues at the radius admission allows. The queued
    /// reads go as one job, which a full queue sheds unless `block`.
    fn submit_reads(
        &self,
        keys: impl IntoIterator<Item = CacheKey>,
        traced: bool,
        block: bool,
    ) -> Ticket {
        let submitted = Instant::now();
        let shared = &*self.shared;
        let tau_max = shared.index.tau_max() as u32;
        let keys = keys.into_iter();
        let mut slots = Vec::with_capacity(keys.size_hint().0);
        let mut reads = Vec::new();
        for key in keys {
            let (query, asked) = asked(&key, tau_max);
            let hit = if traced { None } else { shared.cache.lookup(&key) };
            if let Some(hit) = hit {
                slots.push(Slot::Ready(shared.answered(hit, asked, true, submitted, None)));
                continue;
            }
            let radius = match shared.admission.evaluate(&shared.index, query, asked) {
                AdmissionDecision::Admit => asked,
                AdmissionDecision::Degrade { tau, .. } => tau,
                AdmissionDecision::Reject { estimated_cost, budget } => {
                    let refused = Outcome::Rejected { estimated_cost, budget };
                    slots.push(Slot::Ready(unanswered(refused, submitted)));
                    continue;
                }
            };
            slots.push(Slot::Pending(reads.len()));
            reads.push(Read { key, radius, traced });
        }
        if reads.is_empty() {
            return Ticket { slots, rx: None };
        }
        let (reply_tx, reply_rx) = channel::bounded(1);
        let job = Job { reads, submitted, reply: reply_tx };
        if block {
            self.send_blocking(job);
        } else if self.tx.as_ref().expect("service is live").try_send(job).is_err() {
            // Queue full: shed exactly the reads that would have queued;
            // already-resolved cache hits and rejections keep their
            // responses.
            for slot in &mut slots {
                if matches!(slot, Slot::Pending(_)) {
                    shared.metrics.note_queue_rejection();
                    *slot = Slot::Ready(unanswered(Outcome::Overloaded, submitted));
                }
            }
            return Ticket { slots, rx: None };
        }
        Ticket { slots, rx: Some(reply_rx) }
    }

    fn send_blocking(&self, job: Job) {
        // Workers outlive `tx` (joined only after it drops), so a send on
        // a live service cannot fail; a send after shutdown is a bug.
        self.tx
            .as_ref()
            .expect("service is live")
            .send(job)
            .unwrap_or_else(|_| panic!("worker pool disconnected while the service is live"));
    }

    /// The index being served.
    pub fn index(&self) -> &ShardedIndex {
        &self.shared.index
    }

    /// Service-level throughput/latency snapshot.
    pub fn stats(&self) -> ServiceStats {
        self.shared.metrics.snapshot()
    }

    /// Result-cache snapshot.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Admission-control snapshot.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.shared.admission.stats()
    }

    /// The build/restore generation stamped via
    /// [`ServiceConfig::generation`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Jobs currently queued ahead of the workers (one batch = one
    /// job). Cheap enough to serve from a health probe.
    pub fn queue_depth(&self) -> usize {
        self.tx.as_ref().map(|tx| tx.len()).unwrap_or(0)
    }

    /// The configured queue capacity, in jobs.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Whether the service is degraded: the worker queue is saturated,
    /// so new submissions will block or shed. Health probes report this
    /// so fleet clients can prefer a healthier replica.
    pub fn degraded(&self) -> bool {
        self.queue_depth() >= self.queue_capacity
    }

    /// The metrics registry every service counter/histogram lives in.
    /// Callers may register their own series alongside.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.shared.registry
    }

    /// The query tracer (sampling state + slow-query ring).
    pub fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    /// Renders the full Prometheus text exposition: refreshes the
    /// scrape-time gauges (cache, admission, index shape) from their
    /// live snapshots, then renders every registered series.
    pub fn metrics_text(&self) -> String {
        let cache = self.shared.cache.stats();
        self.shared.gauges.cache_hits.set(cache.hits);
        self.shared.gauges.cache_misses.set(cache.misses);
        self.shared.gauges.cache_invalidations.set(cache.invalidations);
        self.shared.gauges.cache_len.set(cache.len as u64);
        self.shared.gauges.cache_capacity.set(cache.capacity as u64);
        let admission = self.shared.admission.stats();
        self.shared.gauges.admission_admitted.set(admission.admitted);
        self.shared.gauges.admission_degraded.set(admission.degraded);
        self.shared.gauges.admission_rejected.set(admission.rejected);
        self.shared.gauges.index_rows.set(self.shared.index.len() as u64);
        self.shared.gauges.index_shards.set(self.shared.index.num_shards() as u64);
        let pc = self.shared.index.page_cache_stats().unwrap_or_default();
        self.shared.gauges.pagecache_hits.set(pc.hits);
        self.shared.gauges.pagecache_misses.set(pc.misses);
        self.shared.gauges.pagecache_evictions.set(pc.evictions);
        self.shared.gauges.pagecache_resident_bytes.set(pc.resident_bytes);
        self.shared.registry.render()
    }

    /// Drains the queue and joins the workers. Called automatically on
    /// drop.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        // Dropping the sender disconnects the channel once queued jobs
        // drain; workers then exit their recv loop.
        drop(self.tx.take());
        for handle in self.workers.drain(..) {
            handle.join().expect("worker threads never panic");
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn worker_loop(shared: &Shared, rx: &channel::Receiver<Job>) {
    let tau_max = shared.index.tau_max() as u32;
    for job in rx.iter() {
        shared.metrics.note_batch();
        let mut responses = Vec::with_capacity(job.reads.len());
        for Read { key, radius, traced } in job.reads {
            // Captured before the search: if a mutation is booked while
            // the search runs, the store below is dropped instead of
            // caching a result computed across it.
            let epoch = shared.cache.epoch();
            let (result, trace) = match &key {
                CacheKey::Range { query, .. } => {
                    // Traced either on request or by the sampler; the
                    // trace feeds the phase histograms and slow-query
                    // ring either way, but rides the response only when
                    // the client asked for it.
                    let (res, trace) = if traced || shared.tracer.should_sample() {
                        let (res, trace) = shared.index.search_traced(query, radius);
                        shared.tracer.record(&trace);
                        (res, traced.then(|| Box::new(trace)))
                    } else {
                        (shared.index.search_with_stats(query, radius), None)
                    };
                    let candidates: u64 = res.shard_stats.iter().map(|s| s.n_candidates).sum();
                    let scanned: u64 = res.shard_stats.iter().map(|s| s.n_scanned).sum();
                    shared.metrics.note_execution(candidates, scanned, res.ids.len() as u64);
                    (CachedResult::Range { ids: Arc::new(res.ids), effective_tau: radius }, trace)
                }
                CacheKey::TopK { query, k } => {
                    let hits = shared.index.search_topk_within(query, *k as usize, radius);
                    shared.metrics.note_execution(0, 0, hits.len() as u64);
                    (CachedResult::TopK { hits: Arc::new(hits), effective_cap: radius }, None)
                }
            };
            let (_, asked) = asked(&key, tau_max);
            shared.cache.store_if_current(epoch, key, result.clone());
            responses.push(shared.answered(result, asked, false, job.submitted, trace));
        }
        // The ticket may have been dropped without waiting; that's fine.
        let _ = job.reply.send(responses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::OverBudgetPolicy;
    use gph::engine::GphConfig;
    use gph::partition_opt::PartitionStrategy;
    use hamming_core::{BitVector, Dataset};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn fixture(n: usize, seed: u64) -> (Arc<ShardedIndex>, Dataset) {
        fixture_at(n, seed, 0.4)
    }

    /// `n` 64-bit rows whose bits are set with probability `density`,
    /// over 3 shards at `tau_max` 12.
    fn fixture_at(n: usize, seed: u64, density: f64) -> (Arc<ShardedIndex>, Dataset) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ds = Dataset::new(64);
        for _ in 0..n {
            let v = BitVector::from_bits((0..64).map(|_| rng.random_bool(density)));
            ds.push(&v).unwrap();
        }
        let mut cfg = GphConfig::new(4, 12);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 3 };
        (Arc::new(ShardedIndex::build(&ds, 3, &cfg).unwrap()), ds)
    }

    #[test]
    fn single_query_round_trip_matches_index() {
        let (index, ds) = fixture(400, 201);
        let service = QueryService::new(Arc::clone(&index), ServiceConfig::default());
        let q = ds.row(7);
        let resp = service.query(q, 6);
        assert!(!resp.from_cache);
        assert_eq!(resp.ids().unwrap(), index.search(q, 6).as_slice());
        assert!(matches!(resp.outcome, Outcome::Ids { degraded_from: None, .. }));
        service.shutdown();
    }

    #[test]
    fn repeat_query_hits_cache() {
        let (index, ds) = fixture(300, 202);
        let service = QueryService::new(index, ServiceConfig::default());
        let q = ds.row(3);
        let first = service.query(q, 5);
        let second = service.query(q, 5);
        assert!(!first.from_cache);
        assert!(second.from_cache);
        assert_eq!(first.ids().unwrap(), second.ids().unwrap());
        let cs = service.cache_stats();
        assert_eq!(cs.hits, 1);
        assert_eq!(cs.misses, 1);
        let st = service.stats();
        assert_eq!(st.responses, 2);
        assert_eq!(st.executed, 1);

        // A hit is resolved at submit time; a miss hands the ticket back,
        // and a batch is ready only when every entry is.
        let ready = service.submit(q, 5).into_ready().ok().expect("a hit queues nothing");
        assert_eq!(ready.len(), 1);
        assert!(ready[0].from_cache);
        assert_eq!(ready[0].ids().unwrap(), first.ids().unwrap());
        let Err(queued) = service.submit_batch(&[q, ds.row(4)], 5).into_ready() else {
            panic!("a batch with a miss has queued work");
        };
        let both = queued.wait();
        assert!(both[0].from_cache && !both[1].from_cache);
    }

    #[test]
    fn batch_preserves_submission_order() {
        let (index, ds) = fixture(300, 203);
        let service = QueryService::new(Arc::clone(&index), ServiceConfig::default());
        let queries: Vec<&[u64]> = (0..6).map(|i| ds.row(i * 10)).collect();
        let responses = service.submit_batch(&queries, 6).wait();
        assert_eq!(responses.len(), queries.len());
        for (q, resp) in queries.iter().zip(&responses) {
            assert_eq!(resp.ids().unwrap(), index.search(q, 6).as_slice());
        }
        assert_eq!(service.stats().batches, 1, "one batch = one job");
    }

    #[test]
    fn zero_budget_rejects_via_service() {
        let (index, ds) = fixture(300, 204);
        let cfg = ServiceConfig {
            admission: AdmissionConfig { cost_budget: 0.0, policy: OverBudgetPolicy::Reject },
            ..ServiceConfig::default()
        };
        let service = QueryService::new(index, cfg);
        let resp = service.query(ds.row(0), 12);
        assert!(matches!(resp.outcome, Outcome::Rejected { .. }));
        assert_eq!(service.admission_stats().rejected, 1);
        // Rejected responses are not counted as served.
        assert_eq!(service.stats().responses, 0);
    }

    #[test]
    fn degraded_query_notes_original_tau_and_caches() {
        let (index, ds) = fixture(500, 205);
        let q = ds.row(1);
        let lo = index.estimate_cost(q, 1);
        let hi = index.estimate_cost(q, 12);
        if hi <= lo {
            return; // degenerate fixture; covered by admission unit tests
        }
        let budget = (lo + hi) / 2.0;
        let cfg = ServiceConfig {
            admission: AdmissionConfig {
                cost_budget: budget,
                policy: OverBudgetPolicy::Degrade { min_tau: 0 },
            },
            ..ServiceConfig::default()
        };
        let service = QueryService::new(Arc::clone(&index), cfg);
        let resp = service.query(q, 12);
        match &resp.outcome {
            Outcome::Ids { ids, tau, degraded_from } => {
                assert_eq!(*degraded_from, Some(12));
                assert!(*tau < 12);
                assert_eq!(**ids, index.search(q, *tau));
            }
            other => panic!("expected degraded ids, got {other:?}"),
        }
        // The repeat hits the cache under the *requested* tau and keeps
        // the degradation marker.
        let again = service.query(q, 12);
        assert!(again.from_cache);
        assert!(matches!(again.outcome, Outcome::Ids { degraded_from: Some(12), .. }));
    }

    #[test]
    fn topk_round_trip_and_cache() {
        let (index, ds) = fixture(300, 206);
        let service = QueryService::new(Arc::clone(&index), ServiceConfig::default());
        let q = ds.row(2);
        let first = service.query_topk(q, 5);
        match &first.outcome {
            Outcome::TopK { hits, degraded_cap } => {
                assert_eq!(**hits, index.search_topk(q, 5));
                assert_eq!(*degraded_cap, None);
            }
            other => panic!("expected topk, got {other:?}"),
        }
        assert!(service.query_topk(q, 5).from_cache);
        // Different k is a different key.
        assert!(!service.query_topk(q, 4).from_cache);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn topk_k_past_u32_does_not_alias_a_small_k() {
        // Sparse rows lie within tau_max of one another, so a k past
        // every row returns them all; cached under a truncated k, that
        // answer would be served to the next small-k read.
        let (index, ds) = fixture_at(200, 211, 0.05);
        let service = QueryService::new(Arc::clone(&index), ServiceConfig::default());
        let q = ds.row(0);
        let all = service.query_topk(q, (1 << 32) + 1);
        assert!(matches!(all.outcome, Outcome::TopK { degraded_cap: None, .. }));
        let one = service.query_topk(q, 1);
        match &one.outcome {
            Outcome::TopK { hits, .. } => assert_eq!(**hits, index.search_topk(q, 1)),
            other => panic!("expected topk, got {other:?}"),
        }
    }

    #[test]
    fn topk_is_subject_to_admission() {
        let (index, ds) = fixture(500, 210);
        let q = ds.row(4);
        // Reject policy with a zero budget refuses top-k outright.
        let reject = QueryService::new(
            Arc::clone(&index),
            ServiceConfig {
                admission: AdmissionConfig { cost_budget: 0.0, policy: OverBudgetPolicy::Reject },
                ..ServiceConfig::default()
            },
        );
        assert!(matches!(reject.query_topk(q, 5).outcome, Outcome::Rejected { .. }));

        // Degrade policy caps the escalation radius instead; the result
        // matches the capped search and the repeat keeps the marker.
        let lo = index.estimate_cost(q, 1);
        let hi = index.estimate_cost(q, 12);
        if hi <= lo {
            return; // degenerate fixture; covered by admission unit tests
        }
        let degrade = QueryService::new(
            Arc::clone(&index),
            ServiceConfig {
                admission: AdmissionConfig {
                    cost_budget: (lo + hi) / 2.0,
                    policy: OverBudgetPolicy::Degrade { min_tau: 0 },
                },
                ..ServiceConfig::default()
            },
        );
        let resp = degrade.query_topk(q, 5);
        match &resp.outcome {
            Outcome::TopK { hits, degraded_cap: Some(cap) } => {
                assert!(*cap < 12);
                assert_eq!(**hits, index.search_topk_within(q, 5, *cap));
            }
            other => panic!("expected degraded topk, got {other:?}"),
        }
        let again = degrade.query_topk(q, 5);
        assert!(again.from_cache);
        assert!(matches!(again.outcome, Outcome::TopK { degraded_cap: Some(_), .. }));
    }

    #[test]
    fn concurrent_submissions_all_answered() {
        let (index, ds) = fixture(400, 207);
        let cfg = ServiceConfig { workers: 3, queue_capacity: 4, ..ServiceConfig::default() };
        let service = QueryService::new(Arc::clone(&index), cfg);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8usize)
                .map(|i| {
                    let service = &service;
                    let ds = &ds;
                    let index = &index;
                    scope.spawn(move || {
                        let q = ds.row(i * 13);
                        let resp = service.query(q, 6);
                        assert_eq!(resp.ids().unwrap(), index.search(q, 6).as_slice());
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        let st = service.stats();
        assert_eq!(st.responses, 8);
        assert!(st.latency_p99_ns >= st.latency_p50_ns);
        assert!(st.qps > 0.0);
    }

    #[test]
    fn try_submit_sheds_load_when_queue_full() {
        let (index, ds) = fixture(200, 208);
        // One worker, capacity-1 queue: saturate it, then try_submit must
        // resolve shed queries as Overloaded rather than blocking.
        let cfg = ServiceConfig { workers: 1, queue_capacity: 1, ..ServiceConfig::default() };
        let service = QueryService::new(index, cfg);
        let queries: Vec<&[u64]> = (0..40).map(|i| ds.row(i * 5)).collect();
        let tickets: Vec<Ticket> =
            queries.iter().map(|q| service.try_submit_batch(&[q], 8)).collect();
        let mut shed = 0u64;
        for t in tickets {
            for resp in t.wait() {
                match resp.outcome {
                    Outcome::Ids { .. } => assert!(resp.ids().is_some()),
                    Outcome::Overloaded => shed += 1,
                    ref other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert_eq!(service.stats().queue_rejections, shed);
    }

    #[test]
    fn try_submit_keeps_cache_hits_when_queue_full() {
        let (index, ds) = fixture(200, 211);
        let cfg = ServiceConfig { workers: 1, queue_capacity: 1, ..ServiceConfig::default() };
        let service = QueryService::new(index, cfg);
        let hot = ds.row(0);
        // Warm the cache, then flood: mixed batches must still resolve
        // the cached query even when their fresh queries are shed.
        let _ = service.query(hot, 8);
        let mut saw_shed_batch_with_hit = false;
        for i in 1..40usize {
            let batch: [&[u64]; 2] = [hot, ds.row(i * 5)];
            let responses = service.try_submit_batch(&batch, 8).wait();
            assert_eq!(responses.len(), 2);
            assert!(responses[0].from_cache, "hot query always resolves from cache");
            assert!(responses[0].ids().is_some());
            if matches!(responses[1].outcome, Outcome::Overloaded) {
                saw_shed_batch_with_hit = true;
            }
        }
        // With a capacity-1 queue and 39 rapid submissions, at least one
        // batch must have been shed while its cache hit resolved.
        assert!(saw_shed_batch_with_hit || service.stats().queue_rejections == 0);
    }

    /// `q` with its lowest `d` bits flipped: a row at distance exactly `d`.
    fn at_distance(q: &[u64], d: u32) -> Vec<u64> {
        vec![q[0] ^ ((1u64 << d) - 1)]
    }

    /// Reads `(q, tau)` and `(q, k)` once more, checks both answers
    /// against the index, and returns which of them came from the cache.
    fn reread(service: &QueryService, q: &[u64], tau: u32, k: usize) -> (bool, bool) {
        let (range, topk) = (service.query(q, tau), service.query_topk(q, k));
        assert_eq!(range.ids().unwrap(), service.index().search(q, tau).as_slice());
        match &topk.outcome {
            Outcome::TopK { hits, .. } => assert_eq!(**hits, service.index().search_topk(q, k)),
            other => panic!("expected topk, got {other:?}"),
        }
        (range.from_cache, topk.from_cache)
    }

    #[test]
    fn mutations_invalidate_the_cache() {
        let (index, ds) = fixture(300, 212);
        let service = QueryService::new(Arc::clone(&index), ServiceConfig::default());
        let (q, tau, k) = (ds.row(3), 6, 4);
        let applied = |replaced| MutationOutcome::Applied { replaced };
        assert_eq!(reread(&service, q, tau, k), (false, false));
        assert_eq!(reread(&service, q, tau, k), (true, true), "repeats hit the cache");

        // Writes that cannot change either answer leave both cached — and
        // both still exact: a row beyond every radius (tau_max is 12), an
        // upsert of it, and deletes of ids neither answer holds.
        let member = |id: u32| {
            index.search(q, tau).contains(&id)
                || index.search_topk(q, k).iter().any(|&(hit, _)| hit == id)
        };
        let bystander = (0..300).find(|&id| !member(id)).unwrap();
        assert_eq!(service.insert(9000, &at_distance(q, 40)).unwrap().outcome, applied(false));
        assert_eq!(service.upsert(9000, &at_distance(q, 41)).unwrap().outcome, applied(true));
        assert_eq!(service.delete(bystander).outcome, applied(true));
        assert_eq!(service.delete(9000).outcome, applied(true));
        assert_eq!(reread(&service, q, tau, k), (true, true), "far writes keep the cache");
        assert_eq!(service.cache_stats().invalidations, 0);
        assert_eq!(service.stats().mutations, 4);

        // A row between the two radii (6 < 9 <= 12) drops the top-k
        // entry — conservatively: it is not among the 4 nearest — and
        // leaves the range entry.
        assert_eq!(service.insert(9001, &at_distance(q, 9)).unwrap().outcome, applied(false));
        assert_eq!(reread(&service, q, tau, k), (true, false));
        assert_eq!(service.cache_stats().invalidations, 1);

        // A row inside the executed radius drops both, and both new
        // answers hold it.
        assert_eq!(service.insert(9002, &at_distance(q, 1)).unwrap().outcome, applied(false));
        assert_eq!(reread(&service, q, tau, k), (false, false));
        assert!(service.query(q, tau).ids().unwrap().contains(&9002));
        assert_eq!(service.cache_stats().invalidations, 3);

        // Deleting a member of both answers (the query's own row) drops
        // both; an upsert that moves a member out of range does too.
        assert_eq!(service.delete(3).outcome, applied(true));
        assert_eq!(reread(&service, q, tau, k), (false, false));
        assert!(!service.query(q, tau).ids().unwrap().contains(&3));
        assert_eq!(service.upsert(9002, &at_distance(q, 40)).unwrap().outcome, applied(true));
        assert_eq!(reread(&service, q, tau, k), (false, false));
        assert!(!service.query(q, tau).ids().unwrap().contains(&9002));
        assert_eq!(service.cache_stats().invalidations, 7);

        // Deleting an unknown id is NotFound, drops and counts nothing.
        let mutations = service.stats().mutations;
        assert_eq!(service.delete(3).outcome, MutationOutcome::NotFound);
        assert_eq!(reread(&service, q, tau, k), (true, true));
        assert_eq!(service.stats().mutations, mutations);
    }

    #[test]
    fn degraded_entries_are_judged_by_their_effective_radius() {
        let (index, ds) = fixture(500, 205);
        let q = ds.row(1);
        let (lo, hi) = (index.estimate_cost(q, 1), index.estimate_cost(q, 12));
        assert!(hi > lo, "fixture must price tau 12 above tau 1");
        let cfg = ServiceConfig {
            admission: AdmissionConfig {
                cost_budget: (lo + hi) / 2.0,
                policy: OverBudgetPolicy::Degrade { min_tau: 0 },
            },
            ..ServiceConfig::default()
        };
        let service = QueryService::new(Arc::clone(&index), cfg);
        let executed = |resp: &Response| match resp.outcome {
            Outcome::Ids { tau, degraded_from: Some(12), .. } => tau,
            ref other => panic!("expected a degraded answer, got {other:?}"),
        };
        let tau = executed(&service.query(q, 12));
        assert!(tau < 12);
        // Inside the requested radius, outside the executed one: the
        // entry answers `tau`, so the row cannot be in it.
        service.insert(9000, &at_distance(q, tau + 1)).unwrap();
        let again = service.query(q, 12);
        assert!(again.from_cache, "a row beyond the effective tau keeps the entry");
        assert_eq!(executed(&again), tau);
        assert_eq!(again.ids().unwrap(), index.search(q, tau).as_slice());
        // Inside the executed radius: dropped, and the fresh answer
        // (whatever threshold admission now affords) holds the row.
        service.insert(9001, q).unwrap();
        let fresh = service.query(q, 12);
        assert!(!fresh.from_cache);
        assert_eq!(fresh.ids().unwrap(), index.search(q, executed(&fresh)).as_slice());
        assert!(fresh.ids().unwrap().contains(&9001));
    }

    #[test]
    fn failed_seal_still_invalidates_and_counts() {
        // m > dim makes every `Gph::build` fail. Each insert seals a
        // one-row slab and, at max_sealed = 1, merges it at once; a seal
        // builds nothing, so only a merge reaching the crossover builds.
        // Filled to two rows short of it, the second insert's flush
        // errors with the row already live.
        let mut bad_cfg = GphConfig::new(64, 4);
        bad_cfg.strategy = PartitionStrategy::Original;
        let seg_cfg = gph::segment::SegmentConfig { seal_rows: 1, max_sealed: 1 };
        let index =
            ShardedIndex::build_with_segments(&Dataset::new(16), 1, &bad_cfg, seg_cfg).unwrap();
        let q = [0b1111u64];
        let fill = gph::segment::crossover_rows(16, 64, 4) - 2;
        for id in 100..100 + fill as u32 {
            index.insert(id, &at_distance(&q, 9)).unwrap();
        }
        let service = QueryService::new(Arc::new(index), ServiceConfig::default());
        service.insert(1, &at_distance(&q, 9)).unwrap();
        assert!(service.query(&q, 2).ids().unwrap().is_empty());
        assert!(service.query(&q, 2).from_cache);

        assert!(service.insert(2, &at_distance(&q, 1)).is_err(), "the flush must fail");
        let after = service.query(&q, 2);
        assert!(!after.from_cache, "the row went live, so the cached answer was stale");
        assert_eq!(after.ids().unwrap(), &[2]);
        assert_eq!((service.index().len(), service.stats().mutations), (fill + 2, 2));

        // An upsert whose flush fails has tombstoned the old row too.
        assert!(service.query(&q, 2).from_cache);
        assert!(service.upsert(2, &at_distance(&q, 8)).is_err());
        let after = service.query(&q, 2);
        assert!(!after.from_cache);
        assert!(after.ids().unwrap().is_empty());
        assert_eq!((service.index().len(), service.stats().mutations), (fill + 2, 3));

        // An insert refused before it touched the engine books nothing.
        assert!(service.insert(2, &q).is_err(), "id 2 is live");
        assert!(service.query(&q, 2).from_cache);
        assert_eq!(service.stats().mutations, 3);
    }

    #[test]
    fn insert_and_upsert_serve_immediately() {
        let (index, ds) = fixture(200, 213);
        let service = QueryService::new(Arc::clone(&index), ServiceConfig::default());
        let fresh = ds.row(0).to_vec();
        let resp = service.insert(9000, &fresh).unwrap();
        assert_eq!(resp.outcome, MutationOutcome::Applied { replaced: false });
        assert!(service.query(&fresh, 0).ids().unwrap().contains(&9000));
        assert!(service.insert(9000, &fresh).is_err(), "duplicate insert errors");
        let resp = service.upsert(9000, ds.row(1)).unwrap();
        assert_eq!(resp.outcome, MutationOutcome::Applied { replaced: true });
        assert!(!service.query(&fresh, 0).ids().unwrap().contains(&9000));
    }

    #[test]
    fn zero_budget_rejects_mutations() {
        let (index, ds) = fixture(200, 214);
        let cfg = ServiceConfig {
            admission: AdmissionConfig { cost_budget: 0.0, policy: OverBudgetPolicy::Reject },
            ..ServiceConfig::default()
        };
        let service = QueryService::new(Arc::clone(&index), cfg);
        let len_before = index.len();
        let resp = service.insert(9000, ds.row(0)).unwrap();
        assert!(matches!(resp.outcome, MutationOutcome::Rejected { .. }));
        assert!(matches!(service.delete(0).outcome, MutationOutcome::Rejected { .. }));
        assert_eq!(index.len(), len_before, "rejected mutations must not apply");
        assert_eq!(service.stats().mutations, 0);
    }

    #[test]
    fn shutdown_completes_queued_work() {
        let (index, ds) = fixture(200, 209);
        let service =
            QueryService::new(index, ServiceConfig { workers: 2, ..ServiceConfig::default() });
        let tickets: Vec<Ticket> = (0..10).map(|i| service.submit(ds.row(i * 7), 6)).collect();
        service.shutdown(); // queued jobs drain before workers exit
        for t in tickets {
            assert!(t.wait()[0].ids().is_some());
        }
    }

    #[test]
    fn traced_query_matches_plain_and_bounds_phase_sum() {
        let (index, ds) = fixture(400, 215);
        let service = QueryService::new(Arc::clone(&index), ServiceConfig::default());
        let q = ds.row(11);
        let resp = service.query_traced(q, 6);
        assert!(!resp.from_cache);
        assert_eq!(resp.ids().unwrap(), index.search(q, 6).as_slice());
        let trace = resp.trace.as_ref().expect("traced query carries its trace");
        assert_eq!(trace.tau, 6);
        assert_eq!(trace.shards.len(), index.num_shards());
        // Phase work happens inside the traced wall time, which happens
        // inside the submit → response latency.
        assert!(trace.phase_totals().total() <= trace.total_ns);
        assert!(trace.total_ns <= resp.latency_ns);
        // Plain queries never carry a trace, even after a traced one.
        assert!(service.query(ds.row(12), 6).trace.is_none());
    }

    #[test]
    fn traced_query_bypasses_cache_lookup_but_stores() {
        let (index, ds) = fixture(300, 216);
        let service = QueryService::new(index, ServiceConfig::default());
        let q = ds.row(2);
        assert!(!service.query(q, 5).from_cache);
        let traced = service.query_traced(q, 5);
        assert!(!traced.from_cache, "a cache hit would have no trace");
        assert!(traced.trace.is_some());
        assert!(service.query(q, 5).from_cache);
    }

    #[test]
    fn sampled_tracing_feeds_histograms_and_slow_ring() {
        let (index, ds) = fixture(300, 217);
        let cfg = ServiceConfig {
            trace: gph_obs::TraceConfig { sample_every: 1, slow_threshold_ns: 0, ring_capacity: 4 },
            cache_capacity: 0,
            ..ServiceConfig::default()
        };
        let service = QueryService::new(index, cfg);
        for i in 0..6 {
            assert!(service.query(ds.row(i), 5).trace.is_none(), "sampling is invisible");
        }
        let slow = service.tracer().slow_queries();
        assert_eq!(slow.len(), 4, "ring holds the most recent traces up to capacity");
        let text = service.metrics_text();
        assert!(text.contains("gph_query_phase_ns{phase=\"verify\",quantile=\"0.5\"}"));
    }

    #[test]
    fn metrics_text_reflects_live_state() {
        let (index, ds) = fixture(300, 218);
        let service = QueryService::new(Arc::clone(&index), ServiceConfig::default());
        service.query(ds.row(0), 5);
        service.query(ds.row(0), 5);
        let text = service.metrics_text();
        assert!(text.contains("\ngph_responses_total 2\n"), "exposition:\n{text}");
        assert!(text.contains("\ngph_executed_total 1\n"));
        assert!(text.contains("\ngph_cache_hits 1\n"));
        assert!(text.contains(&format!("\ngph_index_rows {}\n", index.len())));
        assert!(text.contains(&format!("\ngph_index_shards {}\n", index.num_shards())));
        // A fully resident fleet still exposes the page-cache series,
        // pinned at zero.
        assert!(text.contains("\ngph_pagecache_hits 0\n"));
        assert!(text.contains("\ngph_pagecache_resident_bytes 0\n"));
    }

    /// The exposition is the only road a server's numbers leave by, so
    /// every counter the typed snapshots report must be readable from it.
    #[test]
    fn exposition_carries_every_typed_counter() {
        let (index, ds) = fixture(500, 219);
        let (q, member, bystander) = (ds.row(1), 1u32, 40u32);
        let cheap = index.estimate_cost(q, 2).max(index.delete_cost(member));
        let dear = index.estimate_cost(q, 12);
        assert!(dear > cheap, "fixture must price tau 12 above tau 2 and a delete");
        let cfg = ServiceConfig {
            admission: AdmissionConfig {
                cost_budget: (cheap + dear) / 2.0,
                policy: OverBudgetPolicy::Reject,
            },
            ..ServiceConfig::default()
        };
        let service = QueryService::new(index, cfg);
        let first = service.query(q, 2);
        assert!(!first.from_cache && !first.ids().unwrap().contains(&bystander));
        assert!(service.query(q, 2).from_cache);
        assert_eq!(service.submit_batch(&[q, q], 1).wait().len(), 2);
        // A delete outside the cached answers leaves them hits; deleting
        // the query's own row drops the tau-2 and the tau-1 entry.
        assert_eq!(service.delete(bystander).outcome, MutationOutcome::Applied { replaced: true });
        assert!(service.query(q, 2).from_cache, "the answer does not hold the deleted id");
        assert_eq!(service.delete(member).outcome, MutationOutcome::Applied { replaced: true });
        let after = service.query(q, 2);
        assert!(!after.from_cache && !after.ids().unwrap().contains(&member));
        assert!(matches!(service.query(q, 12).outcome, Outcome::Rejected { .. }));

        let (st, cache, adm) = (service.stats(), service.cache_stats(), service.admission_stats());
        let exp = gph_obs::Exposition::parse(&service.metrics_text());
        let get = |series: &str| exp.value(series).unwrap_or_else(|| panic!("{series} missing"));
        for (series, typed) in [
            ("gph_responses_total", st.responses),
            ("gph_executed_total", st.executed),
            ("gph_batches_total", st.batches),
            ("gph_queue_rejections_total", st.queue_rejections),
            ("gph_mutations_total", st.mutations),
            ("gph_latency_ns{quantile=\"0.5\"}", st.latency_p50_ns),
            ("gph_latency_ns{quantile=\"0.95\"}", st.latency_p95_ns),
            ("gph_latency_ns{quantile=\"0.99\"}", st.latency_p99_ns),
            ("gph_latency_ns_count", st.responses),
            ("gph_cache_hits", cache.hits),
            ("gph_cache_misses", cache.misses),
            ("gph_cache_invalidations", cache.invalidations),
            ("gph_cache_len", cache.len as u64),
            ("gph_cache_capacity", cache.capacity as u64),
            ("gph_admission_admitted", adm.admitted),
            ("gph_admission_degraded", adm.degraded),
            ("gph_admission_rejected", adm.rejected),
        ] {
            assert_eq!(get(series), typed as f64, "{series}");
        }
        // The derived rows of `gph-store stats` are ratios of two series.
        let executed = get("gph_executed_total");
        for (series, denominator, typed) in [
            ("gph_latency_ns_sum", get("gph_latency_ns_count"), st.latency_mean_ns),
            ("gph_candidates_total", executed, st.candidates_per_query),
            ("gph_scanned_total", executed, st.scanned_per_query),
            ("gph_results_total", executed, st.results_per_query),
        ] {
            assert!((get(series) / denominator - typed).abs() < 1e-6, "{series}");
        }
        // The scenario reached every path it claims to.
        assert!(cache.hits >= 2 && cache.invalidations == 2 && st.mutations == 2);
        assert!(adm.rejected == 1 && adm.admitted >= 1 && st.batches >= 1);
    }
}
