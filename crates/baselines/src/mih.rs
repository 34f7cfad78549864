//! Multi-Index Hashing (MIH) — Norouzi, Punjani & Fleet \[25\].
//!
//! The state-of-the-art baseline the paper builds on (§II-C): `m`
//! equi-width partitions, an inverted index per partition, and — by the
//! basic pigeonhole principle (Lemma 1) — a uniform per-partition
//! threshold `⌊τ/m⌋`. Signatures are enumerated on the query side only.
//! The index is τ-independent, so one build serves every threshold.
//!
//! MIH is GPH's online phase at one vector: phases 2–4 of §VI
//! (enumeration or the scan fallback, probe, dedup, verify) run by
//! [`Resident::search_at`] at [`ThresholdVector::basic`]. It builds no
//! estimator, cost model or allocator, and its counters are GPH's.

use crate::{CandidateStats, SearchIndex};
use gph::engine::Resident;
use gph::ThresholdVector;
use hamming_core::error::Result;
use hamming_core::project::{ProjectedDataset, Projector};
use hamming_core::{Dataset, InvertedIndex, Partitioning};

/// A built MIH index.
pub struct Mih {
    /// Rows, the inverted index and the pooled query scratch.
    store: Resident,
    projector: Projector,
}

impl Mih {
    /// Builds with `m` equi-width partitions over the original dimension
    /// order. (The paper tunes `m` per dataset; the experiment harness
    /// sweeps it and keeps the fastest, as §VII-A describes.)
    pub fn build(data: Dataset, m: usize) -> Result<Self> {
        let p = Partitioning::equi_width(data.dim(), m)?;
        Self::build_with_partitioning(data, p)
    }

    /// Builds over an explicit partitioning (the §VII-E runs equip
    /// baselines with the OS rearrangement).
    pub fn build_with_partitioning(data: Dataset, p: Partitioning) -> Result<Self> {
        let projector = Projector::new(&p);
        let index = InvertedIndex::build(&ProjectedDataset::build(&data, &projector));
        Ok(Mih { store: Resident::new(data, index), projector })
    }

    /// MIH's rule-of-thumb partition count `m ≈ n / log₂ N` (from \[25\]).
    pub fn suggested_m(dim: usize, n_rows: usize) -> usize {
        let lg = (n_rows.max(2) as f64).log2();
        ((dim as f64 / lg).round() as usize).clamp(1, dim.max(1))
    }
}

impl SearchIndex for Mih {
    fn name(&self) -> &'static str {
        "MIH"
    }

    fn search_with_stats(&self, query: &[u64], tau: u32) -> (Vec<u32>, CandidateStats) {
        let tv = ThresholdVector::basic(tau, self.projector.num_parts());
        let res = self.store.search_at(&self.projector, query, tau, tv);
        (res.ids, CandidateStats::from(&res.stats))
    }

    fn size_bytes(&self) -> usize {
        self.store.index().size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamming_core::BitVector;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_dataset(dim: usize, n: usize, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ds = Dataset::new(dim);
        for _ in 0..n {
            ds.push(&BitVector::from_bits((0..dim).map(|_| rng.random_bool(0.4)))).unwrap();
        }
        ds
    }

    #[test]
    fn mih_equals_scan() {
        let ds = random_dataset(64, 500, 1);
        let mih = Mih::build(ds.clone(), 4).unwrap();
        let queries = random_dataset(64, 10, 2);
        for tau in [0u32, 3, 8, 15] {
            for qi in 0..queries.len() {
                let q = queries.row(qi);
                assert_eq!(mih.search(q, tau), ds.linear_scan(q, tau), "tau={tau}");
            }
        }
    }

    #[test]
    fn scan_fallback_equals_linear_scan_at_every_partition_width() {
        // 60 rows: a partition's ball outnumbers them from radius 1 at
        // 64 and 80 bits and radius 2 at 32, so at these taus every
        // partition takes the fallback — the key walk at 32 and 64 bits,
        // the on-the-fly projection at 80.
        for (dim, m, taus) in
            [(32, 1, [2, 5]), (64, 1, [1, 3]), (80, 1, [1, 3]), (64, 2, [4, 6]), (160, 2, [2, 4])]
        {
            let ds = random_dataset(dim, 60, 5);
            let mih = Mih::build(ds.clone(), m).unwrap();
            let scan = crate::LinearScan::build(ds.clone());
            for tau in taus {
                // Every row in turn, so every key is some query's own.
                for qi in 0..ds.len() {
                    let q = ds.row(qi).to_vec();
                    let (ids, st) = mih.search_with_stats(&q, tau);
                    assert_eq!(ids, scan.search(&q, tau), "dim={dim} tau={tau} qi={qi}");
                    assert_eq!(st.n_signatures, 0, "dim={dim} tau={tau}: every partition scans");
                    assert!(st.n_candidates <= st.n_scanned);
                    if m == 1 {
                        // One partition is the row itself: the scan admits
                        // exactly the answer, and probes no postings.
                        assert!(
                            st.sum_postings == 0 && st.n_candidates == ids.len() as u64,
                            "dim={dim} tau={tau}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_partition_mih_degenerates_to_column_scan() {
        let ds = random_dataset(16, 100, 3);
        let mih = Mih::build(ds.clone(), 1).unwrap();
        let q = ds.row(0).to_vec();
        assert_eq!(mih.search(&q, 4), ds.linear_scan(&q, 4));
    }

    #[test]
    fn suggested_m_reasonable() {
        // 128 dims, 1M rows: 128 / 20 ≈ 6.
        assert_eq!(Mih::suggested_m(128, 1 << 20), 6);
        assert!(Mih::suggested_m(8, 4) >= 1);
    }

    #[test]
    fn stats_track_candidates() {
        let ds = random_dataset(32, 200, 4);
        let mih = Mih::build(ds.clone(), 2).unwrap();
        let q = ds.row(7).to_vec();
        let (ids, st) = mih.search_with_stats(&q, 4);
        assert!(ids.contains(&7));
        assert!(st.n_results <= st.n_candidates);
        assert!(st.n_candidates <= st.sum_postings);
    }
}
