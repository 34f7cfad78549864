//! # hamming-core
//!
//! Substrate library for similarity search in Hamming space, built for the
//! reproduction of *GPH: Similarity Search in Hamming Space* (ICDE 2018).
//!
//! This crate provides everything below the indexing algorithms themselves:
//!
//! * [`BitVector`] — an `n`-dimensional binary vector packed into 64-bit
//!   words, with trailing bits kept zero so word-wise operations are exact.
//! * [`Dataset`] — a flat, cache-friendly collection of equal-width vectors.
//! * [`distance`] — popcount Hamming distance, including the early-exit
//!   variant used during candidate verification.
//! * [`partition`] — dimension partitionings ([`Partitioning`]) and the
//!   rearrangement strategies compared in the paper (equi-width, random
//!   shuffle, OS, DD).
//! * [`project`] — pre-computed projections of a dataset onto a
//!   partitioning, the layout probed by every inverted-index method.
//! * [`enumerate`] — Hamming-ball signature enumeration (the "signature
//!   generation" step of filter-and-refine algorithms).
//! * [`stats`] — per-dimension skewness, entropy and correlation measures
//!   (Fig. 1 of the paper, and inputs to partitioning heuristics).
//! * [`io`] — a compact binary serialization for datasets.
//! * [`packed`] — fixed-width packed integers ([`PackedInts`]), the
//!   resident form of the inverted index's ids and offsets.
//! * [`tombstone`] — deletion bitmaps ([`Tombstones`]) that let immutable
//!   indexes serve deletes by filtering instead of rebuilding.
//! * [`visited`] — the epoch-stamped candidate set ([`Visited`]) every
//!   search dedups with.
//!
//! Every target but x86-64 is `#![forbid(unsafe_code)]`; all hot paths
//! rely on `u64::count_ones`. On x86-64 the distance and
//! batch-verification kernels additionally dispatch at run time (CPU
//! detection, cached) to `std::arch` AVX2/POPCNT implementations in the
//! one `unsafe`-allowed `simd` module, falling back to the portable
//! loops on a CPU without them.

#![cfg_attr(not(target_arch = "x86_64"), forbid(unsafe_code))]
#![cfg_attr(target_arch = "x86_64", deny(unsafe_code))]
#![warn(missing_docs)]

pub mod binomial;
pub mod bitvec;
pub mod dataset;
pub mod distance;
pub mod enumerate;
pub mod error;
pub mod invindex;
pub mod io;
pub mod key;
pub mod packed;
pub mod partition;
pub mod project;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod simd;
pub mod stats;
pub mod tombstone;
pub mod visited;

pub use binomial::BinomialTable;
pub use bitvec::BitVector;
pub use dataset::Dataset;
pub use distance::{hamming, hamming_within};
pub use error::HammingError;
pub use invindex::InvertedIndex;
pub use packed::PackedInts;
pub use partition::Partitioning;
pub use project::{PartitionShape, ProjectedDataset, Projector};
pub use tombstone::Tombstones;
pub use visited::Visited;

/// Number of 64-bit words needed to store `dim` bits.
#[inline]
pub const fn words_for(dim: usize) -> usize {
    dim.div_ceil(64)
}
