//! Shared deletion-variant index used by HmSearch and PartAlloc.
//!
//! Both methods index, for every data vector and partition, the exact
//! projected value **and** its 1-deletion variants (the value with one
//! position masked, tagged by the position). Two values within Hamming
//! distance 1 share either the exact key or a deletion key, so radius-1
//! lookups need no enumeration of the 2-neighbourhood — at the price of
//! an index `n+1` times larger than the data, which is exactly the
//! index-size gap Fig. 6 shows for these methods. Both postings sets
//! are [`PartIndex`]es, the CSR arrays GPH and MIH probe, so Fig. 6
//! counts every method's index in the same currency.

use hamming_core::invindex::{PartIndex, Postings};
use hamming_core::key::{key_of, mix64};
use hamming_core::project::ProjectedDataset;

/// Exact + 1-deletion postings for one partition.
pub(crate) struct VariantIndex {
    pub(crate) width: usize,
    words: usize,
    /// Keyed by the value's key, at the partition's width.
    exact: PartIndex,
    /// Keyed by full 64-bit [`deletion_key`] hashes.
    deletions: PartIndex,
}

/// Key for a masked value at `pos`: the masked value's key entangled with
/// the position. Collisions only merge postings (extra candidates, never
/// misses), so exactness is preserved by verification.
#[inline]
pub(crate) fn deletion_key(masked_key: u64, pos: usize) -> u64 {
    mix64(masked_key ^ (pos as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1E7)
}

impl VariantIndex {
    /// Builds the exact and deletion postings for partition `part`.
    pub(crate) fn build(pd: &ProjectedDataset, part: usize) -> Self {
        let col = pd.column(part);
        let width = col.width();
        let words = col.words().max(1);
        let n = pd.len();
        let mut exact_pairs = Vec::with_capacity(n);
        let mut del_pairs = Vec::with_capacity(n * width);
        let mut buf = vec![0u64; words];
        for id in 0..n {
            let v = col.value(id);
            exact_pairs.push((key_of(v, width), id as u32));
            buf.copy_from_slice(v);
            for pos in 0..width {
                let w = pos / 64;
                let mask = 1u64 << (pos % 64);
                let orig = buf[w];
                buf[w] &= !mask; // canonical masked form: bit cleared
                del_pairs.push((deletion_key(key_of(&buf, width), pos), id as u32));
                buf[w] = orig;
            }
        }
        VariantIndex {
            width,
            words,
            exact: PartIndex::from_pairs(width, exact_pairs),
            deletions: PartIndex::from_pairs(64, del_pairs),
        }
    }

    /// Postings with the exact query value (distance 0).
    #[inline]
    pub(crate) fn exact_postings(&self, q_val: &[u64]) -> Postings<'_> {
        self.exact.postings(key_of(q_val, self.width))
    }

    /// Calls `f(ids)` for each deletion slot of the query value; the
    /// union of these lists with the exact postings is the distance ≤ 1
    /// candidate set.
    pub(crate) fn for_deletion_postings<F: FnMut(Postings<'_>)>(&self, q_val: &[u64], mut f: F) {
        let mut buf = q_val[..self.words].to_vec();
        for pos in 0..self.width {
            let w = pos / 64;
            let mask = 1u64 << (pos % 64);
            let orig = buf[w];
            buf[w] &= !mask;
            f(self.deletions.postings(deletion_key(key_of(&buf, self.width), pos)));
            buf[w] = orig;
        }
    }

    pub(crate) fn size_bytes(&self) -> usize {
        self.exact.size_bytes() + self.deletions.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamming_core::project::Projector;
    use hamming_core::{BitVector, Dataset, Partitioning};
    use std::collections::HashSet;

    fn build_one(dim: usize, rows: &[&str]) -> (Dataset, VariantIndex) {
        let ds =
            Dataset::from_vectors(dim, rows.iter().map(|s| BitVector::parse(s).unwrap())).unwrap();
        let p = Partitioning::equi_width(dim, 1).unwrap();
        let pd = ProjectedDataset::build(&ds, &Projector::new(&p));
        let vi = VariantIndex::build(&pd, 0);
        (ds, vi)
    }

    /// Distance ≤ 1 candidate set from the variant index.
    fn leq1_set(vi: &VariantIndex, q: &BitVector) -> HashSet<u32> {
        let mut out: HashSet<u32> = vi.exact_postings(q.words()).into_iter().collect();
        vi.for_deletion_postings(q.words(), |ids| out.extend(ids));
        out
    }

    #[test]
    fn variant_lookup_finds_all_within_one() {
        let rows = ["0000", "0001", "0011", "1111", "1000"];
        let (ds, vi) = build_one(4, &rows);
        for qs in ["0000", "0101", "1111", "0010"] {
            let q = BitVector::parse(qs).unwrap();
            let got = leq1_set(&vi, &q);
            for id in 0..ds.len() {
                let d = hamming_core::distance::hamming(ds.row(id), q.words());
                if d <= 1 {
                    assert!(got.contains(&(id as u32)), "q={qs} id={id} d={d}");
                } else if d > 1 {
                    // No false positives for width ≤ 64 (keys collide only
                    // for wide partitions).
                    assert!(!got.contains(&(id as u32)), "q={qs} id={id} d={d}");
                }
            }
        }
    }

    #[test]
    fn exact_postings_only_distance_zero() {
        let rows = ["0000", "0001", "0000"];
        let (_, vi) = build_one(4, &rows);
        let q = BitVector::parse("0000").unwrap();
        assert_eq!(vi.exact_postings(q.words()), &[0, 2]);
    }

    #[test]
    fn deletion_keys_distinguish_positions() {
        assert_ne!(deletion_key(5, 0), deletion_key(5, 1));
        assert_ne!(deletion_key(5, 0), deletion_key(6, 0));
    }
}
