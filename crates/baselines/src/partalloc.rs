//! PartAlloc — Deng, Li, Wen & Feng \[11\], adapted from set similarity
//! join to Hamming distance search (as the paper's evaluation does via
//! the Jaccard ↔ Hamming conversion).
//!
//! `m = τ + 1` equi-width partitions; per-partition thresholds from
//! {−1, 0, 1} allocated **greedily** by estimated candidate counts, with
//! the general-budget constraint `‖T‖₁ = τ − m + 1 = 0` (#(+1) = #(−1)).
//! Signatures exist on both sides: the data side indexes exact values
//! *and* 1-deletion variants (hence the large index of Fig. 6), and a
//! positional filter (per-partition popcount difference) prunes
//! candidates before verification.

use crate::variants::VariantIndex;
use crate::{CandidateStats, SearchIndex};
use hamming_core::error::{HammingError, Result};
use hamming_core::project::{ProjectedDataset, Projector};
use hamming_core::{Dataset, Partitioning, Visited};
use parking_lot::Mutex;

/// A built PartAlloc index for a fixed `tau_build`.
pub struct PartAlloc {
    data: Dataset,
    projector: Projector,
    parts: Vec<VariantIndex>,
    /// Per-partition popcounts of every data vector (positional filter).
    weights: Vec<Vec<u16>>,
    tau_build: u32,
    scratch: Mutex<Visited>,
}

/// PartAlloc's partition count: `τ + 1`, clamped to the dimensionality.
pub fn partalloc_m(tau: u32, dim: usize) -> usize {
    ((tau + 1) as usize).clamp(1, dim.max(1))
}

impl PartAlloc {
    /// Builds for `tau_build` with equi-width partitions.
    pub fn build(data: Dataset, tau_build: u32) -> Result<Self> {
        let m = partalloc_m(tau_build, data.dim());
        let p = Partitioning::equi_width(data.dim(), m)?;
        Self::build_with_partitioning(data, p, tau_build)
    }

    /// Builds over an explicit partitioning with `τ + 1` parts.
    pub fn build_with_partitioning(data: Dataset, p: Partitioning, tau_build: u32) -> Result<Self> {
        if p.num_parts() != partalloc_m(tau_build, data.dim()) {
            return Err(HammingError::InvalidParameter(format!(
                "PartAlloc at tau={tau_build} needs m={} partitions, got {}",
                partalloc_m(tau_build, data.dim()),
                p.num_parts()
            )));
        }
        let projector = Projector::new(&p);
        let projected = ProjectedDataset::build(&data, &projector);
        let m = p.num_parts();
        let parts: Vec<VariantIndex> = (0..m).map(|i| VariantIndex::build(&projected, i)).collect();
        let mut weights = Vec::with_capacity(m);
        for i in 0..m {
            let col = projected.column(i);
            weights.push(
                (0..data.len())
                    .map(|id| col.value(id).iter().map(|w| w.count_ones()).sum::<u32>() as u16)
                    .collect(),
            );
        }
        let n = data.len();
        Ok(PartAlloc {
            data,
            projector,
            parts,
            weights,
            tau_build,
            scratch: Mutex::new(Visited::new(n)),
        })
    }

    /// The greedy {−1, 0, 1} allocation of \[11\]: start from all-zero
    /// (already a valid budget), then flip the cheapest (+1) / most
    /// expensive (−1) pairs while the estimated candidate total drops.
    fn greedy_allocation(&self, q_projs: &[Vec<u64>]) -> Vec<i8> {
        let m = self.parts.len();
        // Estimated candidates at threshold 0 and 1 per partition.
        let mut cost0 = vec![0f64; m];
        let mut cost1 = vec![0f64; m];
        for i in 0..m {
            let vi = &self.parts[i];
            let exact = vi.exact_postings(&q_projs[i]).len() as f64;
            cost0[i] = exact;
            let mut dels = 0f64;
            vi.for_deletion_postings(&q_projs[i], |ids| dels += ids.len() as f64);
            // Each distance-0 pair appears in every deletion slot; each
            // distance-1 pair appears once.
            cost1[i] = exact + (dels - exact * vi.width as f64).max(0.0);
        }
        let mut alloc = vec![0i8; m];
        if m < 2 {
            return alloc;
        }
        // Pair the largest cost0 (to drop) with the smallest marginal
        // cost1 − cost0 (to raise), while beneficial.
        let mut drop_order: Vec<usize> = (0..m).collect();
        drop_order.sort_by(|&a, &b| cost0[b].partial_cmp(&cost0[a]).expect("no NaN"));
        let mut raise_order: Vec<usize> = (0..m).collect();
        raise_order.sort_by(|&a, &b| {
            (cost1[a] - cost0[a]).partial_cmp(&(cost1[b] - cost0[b])).expect("no NaN")
        });
        let mut di = 0usize;
        let mut ri = 0usize;
        while di < drop_order.len() && ri < raise_order.len() {
            let d = drop_order[di];
            let r = raise_order[ri];
            if alloc[d] != 0 {
                di += 1;
                continue;
            }
            if alloc[r] != 0 || r == d {
                ri += 1;
                continue;
            }
            let gain = cost0[d];
            let pay = cost1[r] - cost0[r];
            if gain > pay {
                alloc[d] = -1;
                alloc[r] = 1;
                di += 1;
                ri += 1;
            } else {
                break;
            }
        }
        alloc
    }

    /// The threshold this index was built for.
    pub fn tau_build(&self) -> u32 {
        self.tau_build
    }
}

impl SearchIndex for PartAlloc {
    fn name(&self) -> &'static str {
        "PartAlloc"
    }

    fn search_with_stats(&self, query: &[u64], tau: u32) -> (Vec<u32>, CandidateStats) {
        assert!(
            tau <= self.tau_build,
            "PartAlloc index built for tau={} cannot serve tau={tau}",
            self.tau_build
        );
        let m = self.parts.len();
        let mut stats = CandidateStats::default();
        let q_projs: Vec<Vec<u64>> = (0..m).map(|i| self.projector.project(i, query)).collect();
        // Allocation is computed against tau_build's partition layout; a
        // smaller query τ only loosens the budget (τ − m + 1 shrinks), so
        // the all-zero base remains correct and the greedy pairs remain a
        // valid general-pigeonhole vector.
        let alloc = self.greedy_allocation(&q_projs);
        let q_weights: Vec<u16> =
            q_projs.iter().map(|v| v.iter().map(|w| w.count_ones()).sum::<u32>() as u16).collect();
        let mut stamp = self.scratch.lock();
        stamp.clear();
        let mut candidates: Vec<u32> = Vec::new();
        for i in 0..m {
            if alloc[i] < 0 {
                continue;
            }
            let vi = &self.parts[i];
            let exact = vi.exact_postings(&q_projs[i]);
            stats.n_signatures += 1;
            stats.sum_postings += exact.len() as u64;
            for &id in exact {
                if stamp.insert(id) {
                    candidates.push(id);
                }
            }
            if alloc[i] == 1 {
                vi.for_deletion_postings(&q_projs[i], |ids| {
                    stats.n_signatures += 1;
                    stats.sum_postings += ids.len() as u64;
                    for &id in ids {
                        if stamp.insert(id) {
                            candidates.push(id);
                        }
                    }
                });
            }
        }
        // Positional filter: Σᵢ |w(xᵢ) − w(qᵢ)| ≤ τ is necessary for
        // H(x, q) ≤ τ.
        let before = candidates.len() as u64;
        candidates.retain(|&id| {
            let mut acc = 0u32;
            for (wpart, &wq) in self.weights.iter().zip(&q_weights) {
                let wx = wpart[id as usize] as i32;
                acc += wx.abs_diff(wq as i32);
                if acc > tau {
                    return false;
                }
            }
            true
        });
        stats.n_candidates = before; // generated candidates (pre-filter)
        let ids = crate::verified_ids(&self.data, query, tau, &candidates);
        stats.n_results = ids.len() as u64;
        (ids, stats)
    }

    fn size_bytes(&self) -> usize {
        self.parts.iter().map(|p| p.size_bytes()).sum::<usize>()
            + self.weights.iter().map(|w| w.len() * 2).sum::<usize>()
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
            ds.push(&BitVector::from_bits((0..dim).map(|_| rng.random_bool(0.3)))).unwrap();
        }
        ds
    }

    #[test]
    fn partalloc_equals_scan() {
        let ds = random_dataset(48, 400, 1);
        let queries = random_dataset(48, 8, 2);
        for tau in [0u32, 1, 3, 5, 8] {
            let pa = PartAlloc::build(ds.clone(), tau).unwrap();
            for qi in 0..queries.len() {
                let q = queries.row(qi);
                assert_eq!(pa.search(q, tau), ds.linear_scan(q, tau), "tau={tau} qi={qi}");
            }
        }
    }

    #[test]
    fn allocation_is_balanced() {
        let ds = random_dataset(64, 300, 3);
        let pa = PartAlloc::build(ds.clone(), 7).unwrap();
        let q = ds.row(0);
        let q_projs: Vec<Vec<u64>> =
            (0..pa.parts.len()).map(|i| pa.projector.project(i, q)).collect();
        let alloc = pa.greedy_allocation(&q_projs);
        let plus: i32 = alloc.iter().filter(|&&a| a == 1).count() as i32;
        let minus: i32 = alloc.iter().filter(|&&a| a == -1).count() as i32;
        assert_eq!(plus, minus, "general budget must stay 0: {alloc:?}");
    }

    #[test]
    fn positional_filter_never_drops_results() {
        let ds = random_dataset(32, 250, 4);
        let pa = PartAlloc::build(ds.clone(), 4).unwrap();
        let queries = random_dataset(32, 6, 5);
        for qi in 0..queries.len() {
            let q = queries.row(qi);
            assert_eq!(pa.search(q, 4), ds.linear_scan(q, 4));
        }
    }

    #[test]
    fn index_includes_weights() {
        let ds = random_dataset(32, 100, 6);
        let pa = PartAlloc::build(ds, 3).unwrap();
        assert!(pa.size_bytes() > 0);
        assert_eq!(pa.weights.len(), 4);
        assert_eq!(pa.weights[0].len(), 100);
    }
}
