//! HmSearch — Zhang, Qin, Wang, Sun & Lu \[43\].
//!
//! Divides vectors into `m = ⌊(τ+3)/2⌋` equi-width partitions, so each
//! partition's basic-pigeonhole threshold is 0 or 1, answered without
//! enumeration through the 1-deletion variant index. Candidate rules:
//!
//! * **odd τ**: some partition has distance ≤ 1;
//! * **even τ**: some partition matches exactly, **or** at least two
//!   partitions have distance ≤ 1
//!
//! (if neither held, the total distance would exceed τ). The paper notes
//! this filter has multiple cases but is **not tight** — which is what
//! GPH improves on. The index depends on τ through `m`, so one build
//! serves a single `tau_build` (the experiment harness rebuilds per τ,
//! as the original system does).

use crate::variants::VariantIndex;
use crate::{CandidateStats, SearchIndex};
use hamming_core::error::{HammingError, Result};
use hamming_core::project::{ProjectedDataset, Projector};
use hamming_core::{Dataset, Partitioning, Visited};
use parking_lot::Mutex;

/// A built HmSearch index for a fixed `tau_build`.
pub struct HmSearch {
    data: Dataset,
    projector: Projector,
    parts: Vec<VariantIndex>,
    tau_build: u32,
    /// Scratch: (global candidate stamp, per-partition dedup stamp,
    /// per-id ≤1-partition counter, per-id exact flag).
    scratch: Mutex<(Visited, Visited, Vec<u8>, Vec<bool>)>,
}

/// HmSearch's partition count for a threshold.
pub fn hmsearch_m(tau: u32, dim: usize) -> usize {
    (((tau + 3) / 2) as usize).clamp(1, dim.max(1))
}

impl HmSearch {
    /// Builds for threshold `tau_build` with equi-width partitions.
    pub fn build(data: Dataset, tau_build: u32) -> Result<Self> {
        let m = hmsearch_m(tau_build, data.dim());
        let p = Partitioning::equi_width(data.dim(), m)?;
        Self::build_with_partitioning(data, p, tau_build)
    }

    /// Builds over an explicit partitioning with `m = ⌊(τ+3)/2⌋` parts
    /// (the §VII-E runs equip baselines with the OS rearrangement).
    pub fn build_with_partitioning(data: Dataset, p: Partitioning, tau_build: u32) -> Result<Self> {
        if p.num_parts() != hmsearch_m(tau_build, data.dim()) {
            return Err(HammingError::InvalidParameter(format!(
                "HmSearch at tau={tau_build} needs m={} partitions, got {}",
                hmsearch_m(tau_build, data.dim()),
                p.num_parts()
            )));
        }
        let projector = Projector::new(&p);
        let projected = ProjectedDataset::build(&data, &projector);
        let parts = (0..p.num_parts()).map(|i| VariantIndex::build(&projected, i)).collect();
        let n = data.len();
        Ok(HmSearch {
            data,
            projector,
            parts,
            tau_build,
            scratch: Mutex::new((Visited::new(n), Visited::new(n), vec![0; n], vec![false; n])),
        })
    }

    /// The threshold this index was built for.
    pub fn tau_build(&self) -> u32 {
        self.tau_build
    }
}

impl SearchIndex for HmSearch {
    fn name(&self) -> &'static str {
        "HmSearch"
    }

    fn search_with_stats(&self, query: &[u64], tau: u32) -> (Vec<u32>, CandidateStats) {
        assert!(
            tau <= self.tau_build,
            "HmSearch index built for tau={} cannot serve tau={tau}",
            self.tau_build
        );
        let mut stats = CandidateStats::default();
        let even = tau.is_multiple_of(2);
        let mut guard = self.scratch.lock();
        let (cand_stamp, part_stamp, counts, exacts) = &mut *guard;
        cand_stamp.clear();
        let mut candidates: Vec<u32> = Vec::new();
        // Per-id state is lazily reset via the candidate stamp's "touched"
        // trick: the `touched` list records which slots to clear after.
        let mut touched: Vec<u32> = Vec::new();

        for (i, vi) in self.parts.iter().enumerate() {
            let q_proj = self.projector.project(i, query);
            part_stamp.clear();
            // Exact postings: distance 0.
            let exact = vi.exact_postings(&q_proj);
            stats.n_signatures += 1;
            stats.sum_postings += exact.len() as u64;
            for &id in exact {
                let idu = id as usize;
                if part_stamp.insert(id) {
                    if counts[idu] == 0 && !exacts[idu] {
                        touched.push(id);
                    }
                    counts[idu] += 1;
                    exacts[idu] = true;
                }
            }
            // Deletion postings: distance ≤ 1.
            vi.for_deletion_postings(&q_proj, |ids| {
                stats.n_signatures += 1;
                stats.sum_postings += ids.len() as u64;
                for &id in ids {
                    let idu = id as usize;
                    if part_stamp.insert(id) {
                        if counts[idu] == 0 && !exacts[idu] {
                            touched.push(id);
                        }
                        counts[idu] += 1;
                    }
                }
            });
        }
        for &id in &touched {
            let idu = id as usize;
            let is_cand = if even { exacts[idu] || counts[idu] >= 2 } else { counts[idu] >= 1 };
            if is_cand && cand_stamp.insert(id) {
                candidates.push(id);
            }
            counts[idu] = 0;
            exacts[idu] = false;
        }
        stats.n_candidates = candidates.len() as u64;
        let ids = crate::verified_ids(&self.data, query, tau, &candidates);
        stats.n_results = ids.len() as u64;
        (ids, stats)
    }

    fn size_bytes(&self) -> usize {
        self.parts.iter().map(|p| p.size_bytes()).sum()
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
            ds.push(&BitVector::from_bits((0..dim).map(|_| rng.random_bool(0.35)))).unwrap();
        }
        ds
    }

    #[test]
    fn hmsearch_equals_scan_odd_and_even_tau() {
        let ds = random_dataset(48, 400, 1);
        let queries = random_dataset(48, 8, 2);
        for tau in [0u32, 1, 2, 3, 4, 5, 6, 7] {
            let hm = HmSearch::build(ds.clone(), tau).unwrap();
            for qi in 0..queries.len() {
                let q = queries.row(qi);
                assert_eq!(hm.search(q, tau), ds.linear_scan(q, tau), "tau={tau} qi={qi}");
            }
        }
    }

    #[test]
    fn partition_count_formula() {
        assert_eq!(hmsearch_m(0, 128), 1);
        assert_eq!(hmsearch_m(1, 128), 2);
        assert_eq!(hmsearch_m(6, 128), 4);
        assert_eq!(hmsearch_m(7, 128), 5);
        assert_eq!(hmsearch_m(100, 8), 8); // clamped to dim
    }

    #[test]
    fn serving_lower_tau_is_allowed() {
        let ds = random_dataset(32, 150, 3);
        let hm = HmSearch::build(ds.clone(), 5).unwrap();
        // Built for τ=5 (m=4): any τ ≤ 5 still satisfies the pigeonhole
        // bound ⌊τ/m⌋ ≤ 1, so results stay exact.
        for tau in [0u32, 2, 4, 5] {
            let q = ds.row(0).to_vec();
            assert_eq!(hm.search(&q, tau), ds.linear_scan(&q, tau), "tau={tau}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot serve")]
    fn serving_higher_tau_panics() {
        let ds = random_dataset(32, 50, 4);
        let hm = HmSearch::build(ds.clone(), 3).unwrap();
        let q = ds.row(0).to_vec();
        let _ = hm.search(&q, 9);
    }

    #[test]
    fn index_is_larger_than_mih() {
        let ds = random_dataset(64, 300, 5);
        let hm = HmSearch::build(ds.clone(), 6).unwrap();
        let mih = crate::mih::Mih::build(ds, 4).unwrap();
        // Deletion variants blow the index up — Fig. 6's qualitative gap.
        assert!(hm.size_bytes() > mih.size_bytes());
    }
}
