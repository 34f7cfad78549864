//! MinHash LSH — the approximate baseline of §VII-A.
//!
//! The Hamming constraint converts to Jaccard via the PartEnum-style
//! transform \[1\]: each vector maps to the n-element set
//! `{ 2i + x[i] : i < n }`, so `|S(x) ∩ S(y)| = n − H(x, y)` and
//! `J(x, y) = (n − H) / (n + H)`; threshold τ becomes
//! `t = (n − τ) / (n + τ)`. Following the paper: `k = 3` minhashes are
//! concatenated per signature and `l = ⌈log_{1−t^k}(1 − recall)⌉` tables
//! target 95 % recall. Results are verified with the exact Hamming
//! distance, so LSH returns a *subset* of the true results (no false
//! positives, possible misses).

use crate::{CandidateStats, SearchIndex};
use hamming_core::error::{HammingError, Result};
use hamming_core::invindex::PartIndex;
use hamming_core::key::mix64;
use hamming_core::{Dataset, Visited};
use parking_lot::Mutex;

/// One LSH table: `k` hash functions and the banded postings.
struct Table {
    /// Precomputed hash of element `2i + b` for function `f`:
    /// `elem_hash[f][2i + b]`.
    elem_hash: Vec<Vec<u64>>,
    /// Keyed by full 64-bit signatures.
    postings: PartIndex,
}

/// A built minhash LSH index for a fixed `tau_build`.
pub struct MinHashLsh {
    data: Dataset,
    tables: Vec<Table>,
    k: usize,
    tau_build: u32,
    scratch: Mutex<Visited>,
}

/// Number of tables for a recall target: `⌈log_{1−t^k}(1−recall)⌉`,
/// clamped to `[1, max_l]`.
pub fn table_count(n: usize, tau: u32, k: usize, recall: f64, max_l: usize) -> usize {
    let t = (n as f64 - tau as f64) / (n as f64 + tau as f64);
    let p_sig = t.powi(k as i32); // P[one signature collides]
    if p_sig >= 1.0 {
        return 1;
    }
    let l = (1.0 - recall).ln() / (1.0 - p_sig).ln();
    (l.ceil() as usize).clamp(1, max_l)
}

impl MinHashLsh {
    /// Builds with the paper's parameters (k = 3, recall 95 %).
    pub fn build(data: Dataset, tau_build: u32) -> Result<Self> {
        Self::build_with(data, tau_build, 3, 0.95, 256, 0x15AC)
    }

    /// Fully parameterized build.
    pub fn build_with(
        data: Dataset,
        tau_build: u32,
        k: usize,
        recall: f64,
        max_l: usize,
        seed: u64,
    ) -> Result<Self> {
        if data.dim() == 0 {
            return Err(HammingError::InvalidParameter("zero-dimensional data".into()));
        }
        if !(0.0..1.0).contains(&recall) {
            return Err(HammingError::InvalidParameter(format!(
                "recall must be in [0, 1), got {recall}"
            )));
        }
        let n = data.dim();
        let l = table_count(n, tau_build, k, recall, max_l);
        let mut tables = Vec::with_capacity(l);
        for li in 0..l {
            // Precompute per-function element hashes: h(2i + b).
            let elem_hash: Vec<Vec<u64>> = (0..k)
                .map(|f| {
                    let salt = mix64(seed ^ ((li * k + f) as u64) << 7);
                    (0..2 * n).map(|e| mix64(salt ^ e as u64)).collect()
                })
                .collect();
            // Signature per data vector.
            let mut pairs = Vec::with_capacity(data.len());
            for id in 0..data.len() {
                let sig = signature(data.row(id), n, &elem_hash);
                pairs.push((sig, id as u32));
            }
            tables.push(Table { elem_hash, postings: PartIndex::from_pairs(64, pairs) });
        }
        let n_rows = data.len();
        Ok(MinHashLsh { data, tables, k, tau_build, scratch: Mutex::new(Visited::new(n_rows)) })
    }

    /// Number of tables `l`.
    pub fn n_tables(&self) -> usize {
        self.tables.len()
    }

    /// Minhashes per signature `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The threshold this index targets.
    pub fn tau_build(&self) -> u32 {
        self.tau_build
    }
}

/// Concatenated-minhash signature of one vector under a table's hash
/// functions.
fn signature(row: &[u64], n: usize, elem_hash: &[Vec<u64>]) -> u64 {
    let mut sig = 0xCBF2_9CE4_8422_2325u64;
    for hashes in elem_hash {
        let mut min = u64::MAX;
        for i in 0..n {
            let b = (row[i / 64] >> (i % 64)) & 1;
            let h = hashes[2 * i + b as usize];
            if h < min {
                min = h;
            }
        }
        sig = mix64(sig ^ min);
    }
    sig
}

impl SearchIndex for MinHashLsh {
    fn name(&self) -> &'static str {
        "LSH"
    }

    fn search_with_stats(&self, query: &[u64], tau: u32) -> (Vec<u32>, CandidateStats) {
        let mut stats = CandidateStats::default();
        let n = self.data.dim();
        let mut stamp = self.scratch.lock();
        stamp.clear();
        let mut candidates: Vec<u32> = Vec::new();
        for table in &self.tables {
            let sig = signature(query, n, &table.elem_hash);
            stats.n_signatures += 1;
            let ids = table.postings.postings(sig);
            stats.sum_postings += ids.len() as u64;
            for id in ids {
                if stamp.insert(id) {
                    candidates.push(id);
                }
            }
        }
        stats.n_candidates = candidates.len() as u64;
        let ids = crate::verified_ids(&self.data, query, tau, &candidates);
        stats.n_results = ids.len() as u64;
        (ids, stats)
    }

    fn size_bytes(&self) -> usize {
        self.tables
            .iter()
            .map(|t| {
                t.postings.size_bytes() + t.elem_hash.iter().map(|h| h.len() * 8).sum::<usize>()
            })
            .sum()
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
            ds.push(&BitVector::from_bits((0..dim).map(|_| rng.random_bool(0.5)))).unwrap();
        }
        ds
    }

    #[test]
    fn table_count_behaviour() {
        // Tighter similarity thresholds (small τ) need fewer... actually:
        // t close to 1 -> p_sig close to 1 -> few tables.
        let small = table_count(128, 2, 3, 0.95, 256);
        let large = table_count(128, 32, 3, 0.95, 256);
        assert!(small <= large, "small-τ should need fewer tables");
        assert!(large >= 2);
        assert_eq!(table_count(128, 0, 3, 0.95, 256), 1);
        assert_eq!(table_count(128, 64, 3, 0.95, 4), 4); // clamped
    }

    #[test]
    fn lsh_returns_subset_with_high_recall() {
        let ds = random_dataset(64, 800, 1);
        // Plant near-duplicates of row 0 to guarantee hits.
        let mut ds2 = ds.clone();
        let base = ds.vector(0);
        for flip in 0..4usize {
            let mut v = base.clone();
            for f in 0..flip {
                v.flip(f);
            }
            ds2.push(&v).unwrap();
        }
        let lsh = MinHashLsh::build(ds2.clone(), 6).unwrap();
        let q = base.clone();
        let truth = ds2.linear_scan(q.words(), 6);
        let got = lsh.search(q.words(), 6);
        // Subset property (no false positives).
        for id in &got {
            assert!(truth.contains(id));
        }
        // Recall: at 95 % target over ≥5 planted neighbours we expect to
        // find most of them (deterministic seed keeps this stable).
        assert!(
            got.len() * 100 >= truth.len() * 60,
            "recall too low: {}/{}",
            got.len(),
            truth.len()
        );
    }

    #[test]
    fn exact_duplicates_always_found() {
        // J = 1 for identical vectors -> every table collides.
        let ds = random_dataset(32, 50, 3);
        let mut ds2 = ds.clone();
        ds2.push(&ds.vector(7)).unwrap(); // duplicate of id 7
        let lsh = MinHashLsh::build(ds2.clone(), 4).unwrap();
        let got = lsh.search(ds2.row(7), 0);
        assert!(got.contains(&7));
        assert!(got.contains(&(ds2.len() as u32 - 1)));
    }

    #[test]
    fn rejects_bad_recall() {
        let ds = random_dataset(16, 10, 4);
        assert!(MinHashLsh::build_with(ds, 2, 3, 1.5, 16, 0).is_err());
    }
}
