//! # baselines
//!
//! Every comparator algorithm from the GPH paper's evaluation (§VII-A),
//! implemented from scratch on the same substrate as GPH so that index
//! sizes, candidate counts, and query times are directly comparable:
//!
//! * [`scan::LinearScan`] — the naïve exact algorithm (ground truth).
//! * [`mih::Mih`] — Multi-Index Hashing \[25\]: equi-width partitions,
//!   `⌊τ/m⌋` thresholds, query-side enumeration.
//! * [`hmsearch::HmSearch`] — \[43\]: `⌊(τ+3)/2⌋` partitions, thresholds
//!   in {0, 1}, data-side 1-deletion variants, even-τ enhancement.
//! * [`partalloc::PartAlloc`] — \[11\] adapted to Hamming space: `τ + 1`
//!   partitions, greedy thresholds in {−1, 0, 1}, positional filter,
//!   deletion-variant index.
//! * [`lsh::MinHashLsh`] — approximate minhash LSH over the Hamming →
//!   Jaccard transform \[1\], k = 3, table count from a recall target.
//!
//! All exact methods return precisely the linear-scan result set; the
//! cross-algorithm property test in `/tests` enforces it.

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

/// Candidate-level instrumentation shared by all engines (the quantities
/// Fig. 2(b) and Fig. 7 report).
#[derive(Clone, Copy, Debug, Default)]
pub struct CandidateStats {
    /// Signatures (index probes) issued.
    pub n_signatures: u64,
    /// Postings entries touched (`Σ_s |I_s|`).
    pub sum_postings: u64,
    /// Distinct candidates verified.
    pub n_candidates: u64,
    /// Results returned.
    pub n_results: u64,
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

/// Epoch-stamped visited set used by every candidate generator here.
pub(crate) struct Stamp {
    stamps: Vec<u32>,
    epoch: u32,
}

impl Stamp {
    pub(crate) fn new(n: usize) -> Self {
        Stamp { stamps: vec![0; n], epoch: 0 }
    }

    /// Starts a new generation; all marks are implicitly cleared.
    pub(crate) fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: refill with 0, the one value no live epoch takes.
            // Any other fill value is reached again by a later epoch, and
            // would then read every untouched id as already marked.
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `id`; returns true the first time within this epoch.
    #[inline]
    pub(crate) fn mark(&mut self, id: usize) -> bool {
        if self.stamps[id] != self.epoch {
            self.stamps[id] = self.epoch;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_marks_once_per_epoch() {
        let mut s = Stamp::new(4);
        s.next_epoch();
        assert!(s.mark(2));
        assert!(!s.mark(2));
        s.next_epoch();
        assert!(s.mark(2));
    }

    #[test]
    fn stamp_epoch_wraparound_resets() {
        let mut s = Stamp::new(2);
        s.epoch = u32::MAX;
        s.next_epoch(); // wraps to 0 -> resets to 1
        assert_eq!(s.epoch, 1);
        assert!(s.mark(0));
        assert!(!s.mark(0));
        // 2³² − 2 epochs on, id 1 has not been marked since the wrap: the
        // epoch that reaches u32::MAX must still see it as unmarked.
        s.epoch = u32::MAX - 1;
        s.next_epoch();
        assert_eq!(s.epoch, u32::MAX);
        assert!(s.mark(1), "an id untouched since the wrap reads as already seen");
        assert!(!s.mark(1));
    }
}
