//! The naïve exact algorithm: verify every vector.

use crate::{CandidateStats, SearchIndex};
use hamming_core::Dataset;

/// Linear scan — `O(N · n/64)` per query, zero index overhead. Every
/// other engine's output is defined as equal to this one's.
pub struct LinearScan {
    data: Dataset,
}

impl LinearScan {
    /// Wraps a dataset.
    pub fn build(data: Dataset) -> Self {
        LinearScan { data }
    }

    /// The wrapped data.
    pub fn data(&self) -> &Dataset {
        &self.data
    }
}

impl SearchIndex for LinearScan {
    fn name(&self) -> &'static str {
        "Scan"
    }

    fn search_with_stats(&self, query: &[u64], tau: u32) -> (Vec<u32>, CandidateStats) {
        let ids = self.data.linear_scan(query, tau);
        let stats = CandidateStats {
            n_signatures: 0,
            sum_postings: 0,
            n_scanned: self.data.len() as u64,
            n_candidates: self.data.len() as u64,
            n_results: ids.len() as u64,
        };
        (ids, stats)
    }

    fn size_bytes(&self) -> usize {
        0 // no structure beyond the data itself
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamming_core::BitVector;

    #[test]
    fn scan_finds_expected() {
        let ds = Dataset::from_vectors(
            8,
            ["00000000", "00000111", "00001111", "10011111"]
                .iter()
                .map(|s| BitVector::parse(s).unwrap()),
        )
        .unwrap();
        let scan = LinearScan::build(ds);
        let q = BitVector::parse("10000000").unwrap();
        let (ids, st) = scan.search_with_stats(q.words(), 2);
        assert_eq!(ids, vec![0]);
        assert_eq!(st.n_results, 1);
        assert_eq!(st.n_candidates, 4);
    }
}
