//! Multi-Index Hashing (MIH) — Norouzi, Punjani & Fleet \[25\].
//!
//! The state-of-the-art baseline the paper builds on (§II-C): `m`
//! equi-width partitions, an inverted index per partition, and — by the
//! basic pigeonhole principle (Lemma 1) — a uniform per-partition
//! threshold `⌊τ/m⌋`. Signatures are enumerated on the query side only.
//! The index is τ-independent, so one build serves every threshold.

use crate::{CandidateStats, SearchIndex, Stamp};
use hamming_core::enumerate::{ball_size, for_each_in_ball_u64, for_each_in_ball_words};
use hamming_core::error::Result;
use hamming_core::key::key_of;
use hamming_core::project::{ProjectedDataset, Projector};
use hamming_core::{Dataset, Partitioning};
use parking_lot::Mutex;

/// A built MIH index.
pub struct Mih {
    data: Dataset,
    projector: Projector,
    index: hamming_core::InvertedIndex,
    m: usize,
    stamp: Mutex<Stamp>,
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
        let index = hamming_core::InvertedIndex::build(&ProjectedDataset::build(&data, &projector));
        let n = data.len();
        Ok(Mih { data, projector, index, m: p.num_parts(), stamp: Mutex::new(Stamp::new(n)) })
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
        let mut stats = CandidateStats::default();
        let tau_part = (tau as usize) / self.m; // ⌊τ/m⌋ (Lemma 1)
        let mut stamp = self.stamp.lock();
        stamp.next_epoch();
        let mut candidates: Vec<u32> = Vec::new();
        let mut keys: Vec<u64> = Vec::new();
        for i in 0..self.m {
            let shape = self.projector.shape(i);
            let width = shape.width;
            let radius = tau_part.min(width);
            let q_proj = self.projector.project(i, query);
            // Same guard and same scan as GPH's resident store: when the
            // ball outnumbers the data, walk the distinct keys (or, for
            // hashed keys wider than a word, project the rows on the fly)
            // instead of enumerating.
            if ball_size(width, radius) > self.data.len() as u64 && !self.data.is_empty() {
                let admit = |id: u32| {
                    stats.sum_postings += 1;
                    if stamp.mark(id as usize) {
                        candidates.push(id);
                    }
                };
                if width <= 64 {
                    let qk = q_proj.first().copied().unwrap_or(0);
                    self.index.for_each_posting_within(i, qk, radius, admit);
                } else {
                    self.projector.for_each_row_within(i, &self.data, &q_proj, radius, admit);
                }
                continue;
            }
            keys.clear();
            if width <= 64 {
                let center = q_proj.first().copied().unwrap_or(0);
                for_each_in_ball_u64(center, width, radius, |v| keys.push(v));
            } else {
                for_each_in_ball_words(&q_proj, width, radius, |w| keys.push(key_of(w, width)));
            }
            stats.n_signatures += keys.len() as u64;
            for &key in &keys {
                let postings = self.index.postings(i, key);
                stats.sum_postings += postings.len() as u64;
                for &id in postings {
                    if stamp.mark(id as usize) {
                        candidates.push(id);
                    }
                }
            }
        }
        stats.n_candidates = candidates.len() as u64;
        let mut ids: Vec<u32> = candidates
            .into_iter()
            .filter(|&id| {
                hamming_core::distance::hamming_within(self.data.row(id as usize), query, tau)
                    .is_some()
            })
            .collect();
        ids.sort_unstable();
        stats.n_results = ids.len() as u64;
        (ids, stats)
    }

    fn size_bytes(&self) -> usize {
        self.index.size_bytes()
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
                    assert!(st.n_candidates <= st.sum_postings);
                    if m == 1 {
                        // One partition is the row itself: the scan admits
                        // exactly the answer.
                        assert_eq!(st.sum_postings, ids.len() as u64, "dim={dim} tau={tau}");
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
