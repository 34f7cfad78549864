//! # gph
//!
//! The primary contribution of *GPH: Similarity Search in Hamming Space*
//! (Qin et al., ICDE 2018): exact Hamming-threshold search built on the
//! **general pigeonhole principle** with per-query, cost-optimal threshold
//! allocation and data-aware dimension partitioning.
//!
//! ## Pipeline
//!
//! * Offline ([`engine::Gph::build`]):
//!   1. choose a [`hamming_core::Partitioning`] of the `n` dimensions into
//!      `m` parts — by default the paper's **GR** heuristic
//!      ([`partition_opt`]): entropy-minimizing greedy initialization
//!      (§V-C) refined by cost-driven hill climbing (Algorithm 2);
//!   2. build an inverted [`index::InvertedIndex`] mapping each partition
//!      projection of each data vector to its ID;
//!   3. build a candidate-number estimator ([`cn`]) used by the online
//!      optimizer: exact tables, sub-partition combination, or the learned
//!      regressors of §IV-C.
//! * Online ([`engine::Gph::search`]):
//!   1. estimate `CN(q_i, e)` for every partition and threshold;
//!   2. allocate the threshold vector `T` with `‖T‖₁ = τ − m + 1` by
//!      dynamic programming ([`alloc::allocate_dp`], Algorithm 1);
//!   3. enumerate signatures within `T[i]` of each partition projection
//!      (skipping partitions with `T[i] = −1`), probe the index, dedup;
//!   4. verify candidates with early-exit Hamming distance.
//!
//! The [`pigeonhole`] module states the paper's Lemmas 2–4 and Theorem 1
//! as executable predicates; property tests exercise them directly.
//!
//! ## Example
//!
//! ```
//! use gph::engine::{Gph, GphConfig};
//! use hamming_core::{BitVector, Dataset};
//!
//! // Index a few 16-dimensional vectors.
//! let rows = ["0000111100001111", "0000111100001010", "1111000011110000"];
//! let data = Dataset::from_vectors(
//!     16,
//!     rows.iter().map(|s| BitVector::parse(s).unwrap()),
//! )
//! .unwrap();
//! let engine = Gph::build(data, &GphConfig::new(2, 4)).unwrap();
//!
//! // Everything within Hamming distance 3 of the first row:
//! let q = BitVector::parse("0000111100001111").unwrap();
//! assert_eq!(engine.search(q.words(), 3), vec![0, 1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod cn;
pub mod coldstore;
pub mod cost;
pub mod engine;
pub mod partition_opt;
pub mod pigeonhole;
mod pipeline;
pub mod segment;
pub mod snapshot;

pub use alloc::{allocate_dp, allocate_round_robin, AllocatorKind};
pub use cn::{CnEstimator, CnTable, EstimatorKind};
pub use coldstore::{PageCache, PageCacheStats, SegmentFile, SpillStore, StorageMode};
pub use cost::CostModel;
pub use engine::{Gph, GphConfig, QueryStats, SearchResult};
pub use hamming_core::invindex as index;
pub use partition_opt::{HeuristicConfig, InitKind, PartitionStrategy, WorkloadSpec};
pub use pigeonhole::ThresholdVector;
pub use pipeline::{merge_topk, topk_by_escalation};
pub use segment::{SegmentConfig, SegmentedGph};
pub use snapshot::{ENGINE_MAGIC, SNAPSHOT_VERSION};
