//! Flat storage for collections of equal-width binary vectors.

use crate::bitvec::BitVector;
use crate::error::{HammingError, Result};
use crate::words_for;

/// A collection of `n`-dimensional binary vectors stored contiguously.
///
/// Row `i` occupies `words_per_vec` consecutive `u64` words, making linear
/// scans and verification cache-friendly. Vector IDs are their insertion
/// order (`0..len`), matching the postings stored by every index in this
/// workspace.
#[derive(Clone, Debug)]
pub struct Dataset {
    dim: usize,
    words_per_vec: usize,
    words: Vec<u64>,
}

impl Dataset {
    /// Creates an empty dataset of `dim`-dimensional vectors.
    pub fn new(dim: usize) -> Self {
        Dataset { dim, words_per_vec: words_for(dim), words: Vec::new() }
    }

    /// Creates an empty dataset with storage reserved for `capacity` vectors.
    pub fn with_capacity(dim: usize, capacity: usize) -> Self {
        Dataset {
            dim,
            words_per_vec: words_for(dim),
            words: Vec::with_capacity(capacity * words_for(dim)),
        }
    }

    /// Builds a dataset from vectors, all of which must share `dim`.
    pub fn from_vectors<I: IntoIterator<Item = BitVector>>(dim: usize, vecs: I) -> Result<Self> {
        let mut ds = Dataset::new(dim);
        for v in vecs {
            ds.push(&v)?;
        }
        Ok(ds)
    }

    /// Appends a vector, returning its ID.
    pub fn push(&mut self, v: &BitVector) -> Result<u32> {
        if v.dim() != self.dim {
            return Err(HammingError::DimensionMismatch { expected: self.dim, actual: v.dim() });
        }
        let id = self.len() as u32;
        self.words.extend_from_slice(v.words());
        Ok(id)
    }

    /// Appends a row given as raw words (must satisfy the trailing-zero
    /// invariant; [`BitVector::from_words`] enforces it if unsure).
    pub(crate) fn push_words(&mut self, row: &[u64]) {
        debug_assert_eq!(row.len(), self.words_per_vec);
        self.words.extend_from_slice(row);
    }

    /// Appends a row given as raw words, validating the word count and
    /// the trailing-zero invariant — the checked entry point for callers
    /// holding query-shaped `&[u64]` slices (e.g. live-update inserts)
    /// rather than [`BitVector`]s.
    pub fn push_row(&mut self, row: &[u64]) -> Result<u32> {
        if row.len() != self.words_per_vec {
            return Err(HammingError::InvalidParameter(format!(
                "row has {} words, {}-dimensional rows take {}",
                row.len(),
                self.dim,
                self.words_per_vec
            )));
        }
        if !self.dim.is_multiple_of(64) {
            if let Some(&last) = row.last() {
                if last >> (self.dim % 64) != 0 {
                    return Err(HammingError::InvalidParameter(
                        "row has bits set beyond its dimensionality".into(),
                    ));
                }
            }
        }
        let id = self.len() as u32;
        self.words.extend_from_slice(row);
        Ok(id)
    }

    /// Number of vectors.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len().checked_div(self.words_per_vec).unwrap_or(0)
    }

    /// Whether the dataset holds no vectors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Dimensionality of every vector.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Words per row.
    #[inline]
    pub fn words_per_vec(&self) -> usize {
        self.words_per_vec
    }

    /// Raw words of row `id`.
    #[inline]
    pub fn row(&self, id: usize) -> &[u64] {
        let s = id * self.words_per_vec;
        &self.words[s..s + self.words_per_vec]
    }

    /// Materializes row `id` as a [`BitVector`].
    pub fn vector(&self, id: usize) -> BitVector {
        BitVector::from_words(self.dim, self.row(id).to_vec())
            .expect("dataset rows are well-formed by construction")
    }

    /// Iterates over rows as word slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[u64]> + '_ {
        self.words.chunks_exact(self.words_per_vec.max(1))
    }

    /// Hamming distance between stored row `id` and `query` words.
    #[inline]
    pub fn distance_to(&self, id: usize, query: &[u64]) -> u32 {
        crate::distance::hamming(self.row(id), query)
    }

    /// The flat word slab backing every row — row `id` occupies
    /// `words()[id * words_per_vec() ..][.. words_per_vec()]`. Exposed
    /// for streaming kernels that want one bounds-checked slice instead
    /// of a [`Dataset::row`] call per access.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Batched phase-4 verification: streams `candidates` against the
    /// row slab in one pass and appends `(id, distance)` for every ID
    /// within `tau` of `query` to `out` (input order preserved). See
    /// [`crate::distance::verify_candidates`]; candidate IDs must be
    /// valid row indices.
    #[inline]
    pub fn verify_candidates(
        &self,
        query: &[u64],
        tau: u32,
        candidates: &[u32],
        out: &mut Vec<(u32, u32)>,
    ) {
        assert_eq!(query.len(), self.words_per_vec, "query width mismatch");
        crate::distance::verify_candidates(
            &self.words,
            self.words_per_vec,
            query,
            tau,
            candidates,
            out,
        );
    }

    /// Exhaustive Hamming range search: IDs of all vectors within `tau` of
    /// `query`. This is the paper's naïve algorithm and the ground truth
    /// every index is tested against.
    pub fn linear_scan(&self, query: &[u64], tau: u32) -> Vec<u32> {
        assert_eq!(query.len(), self.words_per_vec, "query width mismatch");
        let mut out = Vec::new();
        for (id, row) in self.iter_rows().enumerate() {
            if crate::distance::hamming_within(row, query, tau).is_some() {
                out.push(id as u32);
            }
        }
        out
    }

    /// Total heap size of the vector payload in bytes.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Builds a new dataset keeping only the given dimensions (in the given
    /// order). Used by the "varying number of dimensions" experiment
    /// (Fig. 8(a)–(c)), which samples 25–100 % of the dimensions.
    pub fn select_dims(&self, dims: &[usize]) -> Result<Dataset> {
        for &d in dims {
            if d >= self.dim {
                return Err(HammingError::DimensionOutOfRange { index: d, dim: self.dim });
            }
        }
        let mut out = Dataset::with_capacity(dims.len(), self.len());
        let wpv = words_for(dims.len());
        let mut row_buf = vec![0u64; wpv];
        for row in self.iter_rows() {
            row_buf.iter_mut().for_each(|w| *w = 0);
            for (new_i, &old_i) in dims.iter().enumerate() {
                if (row[old_i / 64] >> (old_i % 64)) & 1 == 1 {
                    row_buf[new_i / 64] |= 1u64 << (new_i % 64);
                }
            }
            out.push_words(&row_buf);
        }
        Ok(out)
    }

    /// Appends row `id` of `other`, which must have the same
    /// dimensionality. Copies raw words without materializing a
    /// [`BitVector`] — the row-sharding path of the serving layer moves
    /// whole datasets this way.
    pub fn push_row_from(&mut self, other: &Dataset, id: usize) -> Result<u32> {
        if other.dim != self.dim {
            return Err(HammingError::DimensionMismatch { expected: self.dim, actual: other.dim });
        }
        let new_id = self.len() as u32;
        self.words.extend_from_slice(other.row(id));
        Ok(new_id)
    }

    /// Splits off the rows with the given IDs into a separate dataset and
    /// returns `(remaining, extracted)`. Used to carve query workloads out
    /// of a generated dataset, as the paper does (§VII-A).
    pub fn split_off(&self, ids: &[usize]) -> (Dataset, Dataset) {
        let mut take = vec![false; self.len()];
        for &id in ids {
            take[id] = true;
        }
        let mut kept = Dataset::with_capacity(self.dim, self.len() - ids.len());
        let mut extracted = Dataset::with_capacity(self.dim, ids.len());
        for (id, row) in self.iter_rows().enumerate() {
            if take[id] {
                extracted.push_words(row);
            } else {
                kept.push_words(row);
            }
        }
        (kept, extracted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        // The four vectors of Table I / Table II in the paper.
        let vs = ["00000000", "00000111", "00001111", "10011111"]
            .iter()
            .map(|s| BitVector::parse(s).unwrap());
        Dataset::from_vectors(8, vs).unwrap()
    }

    #[test]
    fn push_and_access() {
        let ds = tiny();
        assert_eq!(ds.len(), 4);
        assert_eq!(ds.dim(), 8);
        assert_eq!(ds.vector(3).to_string(), "10011111");
    }

    #[test]
    fn rejects_dim_mismatch() {
        let mut ds = Dataset::new(8);
        assert!(ds.push(&BitVector::zeros(9)).is_err());
    }

    #[test]
    fn linear_scan_matches_paper_example() {
        // q1 = 10000000, tau = 2 -> only x1 (id 0) qualifies (Example 2).
        let ds = tiny();
        let q1 = BitVector::parse("10000000").unwrap();
        assert_eq!(ds.linear_scan(q1.words(), 2), vec![0]);
        // tau = 4 admits x2 as well.
        assert_eq!(ds.linear_scan(q1.words(), 4), vec![0, 1]);
    }

    #[test]
    fn select_dims_projects_correctly() {
        let ds = tiny();
        // Keep the last two dimensions (6, 7): values 00, 11, 11, 11.
        let sub = ds.select_dims(&[6, 7]).unwrap();
        assert_eq!(sub.dim(), 2);
        assert_eq!(sub.vector(0).to_string(), "00");
        assert_eq!(sub.vector(1).to_string(), "11");
        assert!(ds.select_dims(&[8]).is_err());
    }

    #[test]
    fn split_off_partitions_rows() {
        let ds = tiny();
        let (kept, extracted) = ds.split_off(&[1, 3]);
        assert_eq!(kept.len(), 2);
        assert_eq!(extracted.len(), 2);
        assert_eq!(kept.vector(0).to_string(), "00000000");
        assert_eq!(extracted.vector(1).to_string(), "10011111");
    }

    #[test]
    fn push_row_from_copies_and_validates() {
        let ds = tiny();
        let mut out = Dataset::new(8);
        out.push_row_from(&ds, 2).unwrap();
        assert_eq!(out.vector(0).to_string(), "00001111");
        let mut wrong = Dataset::new(9);
        assert!(wrong.push_row_from(&ds, 0).is_err());
    }

    #[test]
    fn push_row_validates_width_and_trailing_bits() {
        let mut ds = Dataset::new(8);
        let id = ds.push_row(&[0b1010_0101]).unwrap();
        assert_eq!(id, 0);
        assert_eq!(ds.vector(0).to_string(), "10100101");
        assert!(ds.push_row(&[0, 0]).is_err(), "too many words");
        assert!(ds.push_row(&[1 << 8]).is_err(), "bit beyond dim 8");
        // Exact-multiple dims have no trailing bits to validate.
        let mut wide = Dataset::new(64);
        assert!(wide.push_row(&[u64::MAX]).is_ok());
    }

    #[test]
    fn multiword_rows() {
        let mut ds = Dataset::new(130);
        let mut v = BitVector::zeros(130);
        v.set(129, true);
        ds.push(&v).unwrap();
        assert_eq!(ds.words_per_vec(), 3);
        assert!(ds.vector(0).get(129));
        assert_eq!(ds.linear_scan(BitVector::zeros(130).words(), 0), Vec::<u32>::new());
        assert_eq!(ds.linear_scan(BitVector::zeros(130).words(), 1), vec![0]);
    }
}
