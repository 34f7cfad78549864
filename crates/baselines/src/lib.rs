//! # baselines
//!
//! Every comparator algorithm from the GPH paper's evaluation (§VII-A),
//! implemented from scratch on the same substrate as GPH so that index
//! sizes, candidate counts, and query times are directly comparable:
//!
//! * [`scan::LinearScan`] — the naïve exact algorithm (ground truth).
//! * [`mih::Mih`] — Multi-Index Hashing \[25\]: equi-width partitions,
//!   `⌊τ/m⌋` thresholds, query-side enumeration — GPH's own probe loop
//!   (`gph::engine::Resident::search_at`) run at Lemma 1's vector, so
//!   the two differ only in `m`, the vector and the partitioning.
//! * [`hmsearch::HmSearch`] — \[43\]: `⌊(τ+3)/2⌋` partitions, thresholds
//!   in {0, 1}, data-side 1-deletion variants, even-τ enhancement.
//! * [`partalloc::PartAlloc`] — \[11\] adapted to Hamming space: `τ + 1`
//!   partitions, greedy thresholds in {−1, 0, 1}, positional filter,
//!   deletion-variant index.
//! * [`lsh::MinHashLsh`] — approximate minhash LSH over the Hamming →
//!   Jaccard transform \[1\], k = 3, table count from a recall target.
//!
//! All exact methods return precisely the linear-scan result set; the
//! cross-algorithm property test in `/tests` enforces it. Every
//! candidate generator dedups with the one visited set,
//! [`hamming_core::Visited`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hmsearch;
pub mod lsh;
pub mod mih;
pub mod partalloc;
pub mod scan;
pub(crate) mod variants;

pub use hmsearch::HmSearch;
pub use lsh::MinHashLsh;
pub use mih::Mih;
pub use partalloc::PartAlloc;
pub use scan::LinearScan;

use gph::QueryStats;
use hamming_core::Dataset;

/// Candidate-level instrumentation shared by all engines (the quantities
/// Fig. 2(b) and Fig. 7 report).
#[derive(Clone, Copy, Debug, Default)]
pub struct CandidateStats {
    /// Signatures (index probes) issued.
    pub n_signatures: u64,
    /// Postings entries touched by index probes (`Σ_s |I_s|`).
    pub sum_postings: u64,
    /// Rows examined by a scan instead of index probes: every row for
    /// [`LinearScan`], and MIH's and GPH's scan fallback (taken when a
    /// partition's signature ball outnumbers the data).
    pub n_scanned: u64,
    /// Distinct candidates verified.
    pub n_candidates: u64,
    /// Results returned.
    pub n_results: u64,
}

/// GPH's counters and MIH's, which run the same loop, mean the same
/// thing: this is the one reading of a [`QueryStats`] as candidates.
impl From<&QueryStats> for CandidateStats {
    fn from(st: &QueryStats) -> Self {
        CandidateStats {
            n_signatures: st.n_signatures,
            sum_postings: st.sum_postings,
            n_scanned: st.n_scanned,
            n_candidates: st.n_candidates,
            n_results: st.n_results,
        }
    }
}

/// A built Hamming-threshold search index.
pub trait SearchIndex {
    /// Human-readable algorithm name (experiment tables).
    fn name(&self) -> &'static str;

    /// Exact or approximate range search.
    fn search_with_stats(&self, query: &[u64], tau: u32) -> (Vec<u32>, CandidateStats);

    /// IDs only.
    fn search(&self, query: &[u64], tau: u32) -> Vec<u32> {
        self.search_with_stats(query, tau).0
    }

    /// Heap footprint of the index structures (Fig. 6).
    fn size_bytes(&self) -> usize;
}

/// Phase-4 verification for the baselines that answer with ids only:
/// the `candidates` within `tau` of `query`, ascending, with the
/// distances the batched kernel measured dropped.
fn verified_ids(data: &Dataset, query: &[u64], tau: u32, candidates: &[u32]) -> Vec<u32> {
    let mut hits = Vec::with_capacity(candidates.len());
    data.verify_candidates(query, tau, candidates, &mut hits);
    let mut ids: Vec<u32> = hits.into_iter().map(|(id, _)| id).collect();
    ids.sort_unstable();
    ids
}
