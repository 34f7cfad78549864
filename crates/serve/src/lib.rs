//! # gph-serve
//!
//! Serving layer over the [`gph`] engine: the subsystem that turns the
//! paper's single in-process index into something shaped like a query
//! service. Multi-Index Hashing and FAISS both scale the same way — shard
//! the data, batch the queries, cache the answers — and this crate is
//! that path for GPH:
//!
//! ```text
//!                 ┌────────────────────── QueryService ─────────────────────┐
//!  submit ───────▶│ submit_reads, the one read path; per read:              │
//!  submit_batch ─▶│ result cache ──▶ admission control ──▶ bounded queue    │
//!  submit_topk ──▶│   (LRU, hit/      (cost at τ, or at     (MPMC,          │
//!  submit_traced ▶│    miss; traced    tau_max for top-k:    backpressure)  │
//!                 │    reads skip)     reject/degrade)          │           │
//!                 │        ▲                                    │           │
//!  insert/delete/ │ priced, applied, drops the entries     worker pool      │
//!  upsert ───────▶│ it changes                                  │           │
//!                 └─────────────────────────────────────────────┼───────────┘
//!                                                               ▼
//!                                ShardedIndex: gather over S × RwLock<SegmentedGph>
//! ```
//!
//! * [`ShardedIndex`] routes records to `S` shards by stable hash of the
//!   record ID and keeps one live-updatable [`gph::SegmentedGph`] per
//!   shard behind an `RwLock`, so the fleet serves
//!   `insert`/`delete`/`upsert` alongside queries. Scatter-gather answers
//!   `search`/`search_topk` with a merge that is provably identical to a
//!   single index over the surviving rows (top-k is the engine's one
//!   escalation loop, [`gph::topk_by_escalation`], over the sharded range
//!   search; property tests pin the equivalence down, including under
//!   interleaved mutations). [`merge_topk`], re-exported from `gph`,
//!   gathers the exact top-k answers of a fleet's nodes.
//! * [`QueryService`] runs a worker pool over a bounded MPMC queue,
//!   takes range (single or batched), top-k and traced reads through
//!   one cache → admission → queue path, applies cost-based admission
//!   control from [`gph::Gph::estimate_cost`] (reject or degrade
//!   over-budget queries), and aggregates per-shard [`gph::QueryStats`]
//!   into service-level stats — QPS, latency p50/p95/p99, candidates per
//!   query.
//! * [`ResultCache`] is an LRU keyed by `(query words, τ)` with hit/miss
//!   counters, checked before dispatch; a write drops only the entries
//!   whose answer it changes (the written row within their radius, or
//!   the removed id among their results).
//! * [`snapshot`] persists the whole fleet: one checksummed engine
//!   snapshot per shard plus a manifest, so
//!   [`QueryService::warm_start`] brings a service up from disk without
//!   re-running partition optimization.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod service;
pub mod shard;
pub mod snapshot;
pub mod stats;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionDecision, AdmissionStats, OverBudgetPolicy,
};
pub use cache::{CacheKey, CacheStats, CachedResult, LruCache, ResultCache};
pub use gph::merge_topk;
pub use service::{
    MutationOutcome, MutationResponse, Outcome, QueryService, Response, ServiceConfig, Ticket,
};
pub use shard::{ShardedIndex, ShardedSearchResult};
pub use snapshot::{read_manifest, ShardEntry, ShardManifest, MANIFEST_FILE};
pub use stats::ServiceStats;

#[cfg(test)]
mod tests {
    #[test]
    fn service_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::ShardedIndex>();
        assert_send_sync::<crate::QueryService>();
        assert_send_sync::<crate::ResultCache>();
    }
}
