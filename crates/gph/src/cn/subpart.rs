//! The sub-partitioning CN approximation (**SP**, §IV-C).
//!
//! Each partition is split into `mi` equi-width sub-partitions with exact
//! tables. Assuming independence across sub-partitions, the paper
//! estimates
//!
//! ```text
//! ĈN(qᵢ, τᵢ) = Σ_{g ∈ G(mᵢ, τᵢ)} Π_j ( CN(q_ij, g[j]) − CN(q_ij, g[j]−1) )
//! ```
//!
//! where `G` contains threshold vectors with entries in `[−1, τᵢ]` summing
//! to at most `τᵢ − mᵢ + 1` (the general pigeonhole budget). Terms with
//! any `g[j] = −1` vanish, so the sum equals the CDF at `τᵢ − mᵢ + 1` of
//! the *convolution* of the sub-partitions' exact-distance distributions —
//! which is how we evaluate it: one convolution per partition per query
//! yields every `e` at once. For `mᵢ = 1` the estimate is exact. By
//! default the budget is **unshifted** (CDF at `τᵢ`), fixing the printed
//! formula's degeneracy at `τᵢ < mᵢ − 1`; `paper_shift` restores it.
//!
//! Each sub-table is an `ExactPart`, which stores exact-distance counts
//! (the upper half of the radii read from the complement row), so a
//! sub-partition's distribution is read straight from two rows. `fill`
//! convolves in its output row, allocating nothing per query.

use super::exact::ExactPart;
use super::CnEstimator;
use bytes::BufMut;
use hamming_core::error::{HammingError, Result};
use hamming_core::io::ByteReader;
use hamming_core::project::ProjectedDataset;

/// Widest exact sub-table we allow (`2^16` rows).
const MAX_SUB_WIDTH: usize = 16;

#[derive(Clone, Debug)]
struct SubSplit {
    /// Paper-faithful budget shift (see [`SubPartitionCn::build_with_shift`]).
    paper_shift: bool,
    /// Partition width.
    width: usize,
    /// Bit ranges `[start, end)` of each sub-partition within the
    /// partition's projected value.
    ranges: Vec<(usize, usize)>,
    /// Exact tables, one per sub-partition.
    tables: Vec<ExactPart>,
    /// Dataset cardinality (upper clamp).
    n: f64,
}

/// The SP estimator.
#[derive(Clone, Debug)]
pub struct SubPartitionCn {
    parts: Vec<SubSplit>,
}

impl SubPartitionCn {
    /// Builds with the default (unshifted) combination — see
    /// [`Self::build_with_shift`].
    pub fn build(pd: &ProjectedDataset, tau_max: usize, sub_count: usize) -> Result<Self> {
        Self::build_with_shift(pd, tau_max, sub_count, false)
    }

    /// Builds sub-tables with `sub_count` sub-partitions per partition
    /// (automatically increased where needed to keep every sub-table at
    /// most `MAX_SUB_WIDTH` (16) bits wide).
    ///
    /// `paper_shift` selects the combination budget. The paper's formula
    /// sums exact-distance products over `Σ g ≤ τᵢ − mᵢ + 1`; as printed
    /// it returns 0 for every `τᵢ < mᵢ − 1` (in particular `τᵢ = 0`),
    /// which misleads the DP into treating unselective partitions as
    /// free. The paper never hits this because its main experiments use
    /// the SVM estimator; since SP is this crate's default, the default
    /// here is the unshifted independence CDF (`Σ g ≤ τᵢ`), which agrees
    /// with the exact estimator when `mᵢ = 1` and is accurate at all
    /// thresholds. Set `paper_shift = true` to reproduce the printed
    /// formula (Table III's SP row reports both).
    pub fn build_with_shift(
        pd: &ProjectedDataset,
        tau_max: usize,
        sub_count: usize,
        paper_shift: bool,
    ) -> Result<Self> {
        if sub_count == 0 {
            return Err(HammingError::InvalidParameter("sub_count must be at least 1".into()));
        }
        let mut parts = Vec::with_capacity(pd.num_parts());
        for p in 0..pd.num_parts() {
            let col = pd.column(p);
            let width = col.width();
            let mi = sub_count.max(width.div_ceil(MAX_SUB_WIDTH)).max(1);
            let ranges = split_ranges(width, mi);
            let mut tables = Vec::with_capacity(ranges.len());
            for &(start, end) in &ranges {
                let sub_w = end - start;
                // Histogram of the sub-partition's values.
                let mut freqs = vec![0u64; 1usize << sub_w];
                if sub_w > 0 {
                    for value in col.iter() {
                        freqs[extract_bits(value, start, end) as usize] += 1;
                    }
                } else {
                    freqs[0] = pd.len() as u64;
                }
                tables.push(ExactPart::build_from_freqs(sub_w, &freqs, tau_max.min(sub_w)));
            }
            parts.push(SubSplit { paper_shift, width, ranges, tables, n: pd.len() as f64 });
        }
        Ok(SubPartitionCn { parts })
    }

    /// Snapshot encoding: per partition the split shape plus every
    /// sub-table, so a load skips the histogram + recurrence rebuild.
    pub(crate) fn encode_state(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u64_le(self.parts.len() as u64);
        for sp in &self.parts {
            buf.put_u8(u8::from(sp.paper_shift));
            buf.put_u64_le(sp.width as u64);
            buf.put_u64_le(sp.n.to_bits());
            buf.put_u64_le(sp.ranges.len() as u64);
            for &(start, end) in &sp.ranges {
                buf.put_u64_le(start as u64);
                buf.put_u64_le(end as u64);
            }
            for t in &sp.tables {
                t.encode_into(&mut buf);
            }
        }
        buf
    }

    /// Restores an estimator from [`SubPartitionCn::encode_state`]
    /// bytes. `widths` are the partitioning's per-partition widths; the
    /// split shapes must match them, or query-time bit extraction could
    /// index out of bounds.
    pub(crate) fn decode_state(bytes: &[u8], widths: &[usize]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let n_parts = r.len(25, "SP part count")?;
        if n_parts != widths.len() {
            return Err(HammingError::Corrupt(format!(
                "SP estimator covers {n_parts} partitions, partitioning has {}",
                widths.len()
            )));
        }
        let mut parts = Vec::with_capacity(n_parts);
        for (p, &expected_width) in widths.iter().enumerate() {
            let paper_shift = r.u8("SP shift flag")? != 0;
            let width = r.u64("SP width")? as usize;
            if width != expected_width {
                return Err(HammingError::Corrupt(format!(
                    "SP part {p} is {width} bits wide, partition is {expected_width}"
                )));
            }
            let n = r.f64("SP cardinality")?;
            let n_sub = r.len(16, "SP sub-partition count")?;
            let mut ranges = Vec::with_capacity(n_sub);
            for _ in 0..n_sub {
                let start = r.u64("SP range start")? as usize;
                let end = r.u64("SP range end")? as usize;
                if start > end || end > width {
                    return Err(HammingError::Corrupt(format!(
                        "SP part {p} range {start}..{end} outside width {width}"
                    )));
                }
                if end - start > MAX_SUB_WIDTH {
                    return Err(HammingError::Corrupt(format!(
                        "SP part {p} range {start}..{end} is wider than {MAX_SUB_WIDTH} bits"
                    )));
                }
                ranges.push((start, end));
            }
            let mut tables = Vec::with_capacity(n_sub);
            for (j, &(start, end)) in ranges.iter().enumerate() {
                let t = ExactPart::decode_from(&mut r)?;
                if t.width != end - start {
                    return Err(HammingError::Corrupt(format!(
                        "SP part {p} sub-table {j} width {} mismatches range {start}..{end}",
                        t.width
                    )));
                }
                tables.push(t);
            }
            parts.push(SubSplit { paper_shift, width, ranges, tables, n });
        }
        r.finish("SP estimator state")?;
        Ok(SubPartitionCn { parts })
    }
}

/// Equi-width split of `width` bits into `mi` contiguous ranges.
fn split_ranges(width: usize, mi: usize) -> Vec<(usize, usize)> {
    let mi = mi.min(width.max(1));
    let base = width / mi;
    let extra = width % mi;
    let mut out = Vec::with_capacity(mi);
    let mut at = 0usize;
    for j in 0..mi {
        let w = base + usize::from(j < extra);
        out.push((at, at + w));
        at += w;
    }
    out
}

/// Extracts bits `[start, end)` of a multi-word value as a u64
/// (`end - start <= 64`): one or two word shifts and a mask.
fn extract_bits(words: &[u64], start: usize, end: usize) -> u64 {
    let width = end - start;
    debug_assert!(width <= 64);
    if width == 0 {
        return 0;
    }
    let (w, shift) = (start / 64, start % 64);
    let mut v = words[w] >> shift;
    if shift + width > 64 {
        v |= words[w + 1] << (64 - shift);
    }
    if width < 64 {
        v & ((1 << width) - 1)
    } else {
        v
    }
}

impl CnEstimator for SubPartitionCn {
    fn fill(&self, part: usize, q_val: &[u64], tau: usize, out: &mut [f64]) {
        let sp = &self.parts[part];
        let mi = sp.tables.len();
        // Exact-distance distribution of each sub-partition at the query's
        // sub-values, then their convolution. The paper's product formula
        // treats sub-partitions as independent; products of *absolute*
        // counts overcount by N^(mi−1), so we normalize by that factor
        // (expected joint count under independence).
        let cap = tau + 1; // distances beyond τ never matter
                           // `out`'s `cap + 1` slots hold the convolution, then its CDF,
                           // then the estimates; one sub-partition's distribution is the
                           // only other buffer.
        let mut dist = [0.0f64; MAX_SUB_WIDTH + 1];
        let mut len = 1;
        out[0] = 1.0;
        let mut scale = 1.0f64;
        for (j, table) in sp.tables.iter().enumerate() {
            let (start, end) = sp.ranges[j];
            let dist = &mut dist[..=(end - start).min(cap)];
            table.exact_counts_into(extract_bits(q_val, start, end), dist);
            // Mass beyond `cap` is irrelevant: results there can never
            // contribute to CN at thresholds ≤ τ.
            let new_len = (len + dist.len() - 1).min(cap + 1);
            // In place from the far end: slot `s` reads slots `≤ s`, none
            // of them overwritten yet. It adds its terms from 0.0 in
            // ascending `a`, the order of a two-buffer convolution, so
            // every estimate is the same to the bit.
            for s in (0..new_len).rev() {
                let mut sum = 0.0f64;
                for a in s.saturating_sub(dist.len() - 1)..=s.min(len - 1) {
                    let ca = out[a];
                    if ca != 0.0 {
                        sum += ca * dist[s - a];
                    }
                }
                out[s] = sum;
            }
            len = new_len;
            if j > 0 {
                scale *= sp.n.max(1.0);
            }
        }
        // ĈN(qᵢ, e) = CDF of conv at (e − mᵢ + 1), normalized: after the
        // running sum, `out[d]` is the CDF at `d`.
        let mut cdf = 0.0f64;
        for c in &mut out[..len] {
            cdf += *c / scale;
            *c = cdf;
        }
        // From the far end again: `e` reads the CDF at a budget `≤ e` and
        // writes slot `e + 1`.
        for e in (-1..=(tau as i32)).rev() {
            let budget = if sp.paper_shift { e - mi as i32 + 1 } else { e };
            let v = if budget < 0 { 0.0 } else { out[(budget as usize).min(len - 1)] };
            out[(e + 1) as usize] = v.min(sp.n).max(0.0);
        }
        // e >= width means every vector qualifies; fix the tail exactly.
        for e in sp.width..=tau {
            out[e + 1] = sp.n;
        }
    }

    fn size_bytes(&self) -> usize {
        self.parts.iter().map(|sp| sp.tables.iter().map(|t| t.size_bytes()).sum::<usize>()).sum()
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        Some(self.encode_state())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamming_core::project::Projector;
    use hamming_core::{BitVector, Dataset, Partitioning};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_dataset(dim: usize, n: usize, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ds = Dataset::new(dim);
        for _ in 0..n {
            let v = BitVector::from_bits((0..dim).map(|_| rng.random_bool(0.3)));
            ds.push(&v).unwrap();
        }
        ds
    }

    #[test]
    fn single_subpartition_is_exact() {
        let ds = random_dataset(16, 200, 1);
        let p = Partitioning::equi_width(16, 2).unwrap(); // widths 8
        let proj = Projector::new(&p);
        let pd = ProjectedDataset::build(&ds, &proj);
        let sp = SubPartitionCn::build(&pd, 8, 1).unwrap();
        let exact = super::super::exact::ExactCn::build(&pd, 8, 16).unwrap();
        let q = BitVector::from_bits((0..16).map(|i| i % 3 == 0));
        for part in 0..2 {
            let qp = proj.project(part, q.words());
            let mut a = vec![0.0; 10];
            let mut b = vec![0.0; 10];
            sp.fill(part, &qp, 8, &mut a);
            exact.fill(part, &qp, 8, &mut b);
            assert_eq!(a, b, "part {part}");
        }
    }

    #[test]
    fn two_subpartitions_underestimate_but_track() {
        // Default (unshifted) SP: the independence-CDF estimate tracks
        // the exact value on independent data.
        let ds = random_dataset(16, 500, 2);
        let p = Partitioning::equi_width(16, 1).unwrap(); // one partition, width 16
        let proj = Projector::new(&p);
        let pd = ProjectedDataset::build(&ds, &proj);
        let sp = SubPartitionCn::build(&pd, 16, 2).unwrap();
        let exact = super::super::exact::ExactCn::build(&pd, 16, 16).unwrap();
        let q = BitVector::from_bits((0..16).map(|i| i % 5 == 0));
        let qp = proj.project(0, q.words());
        let mut a = vec![0.0; 18];
        let mut b = vec![0.0; 18];
        sp.fill(0, &qp, 16, &mut a);
        exact.fill(0, &qp, 16, &mut b);
        // At the full width the estimate must hit N exactly.
        assert_eq!(a[17], 500.0);
        // Estimates stay within a factor band of truth at mid thresholds.
        for e in 4..12usize {
            let (est, tru) = (a[e + 1], b[e + 1]);
            assert!(est <= tru * 1.6 + 5.0, "e={e} est={est} tru={tru}");
            assert!(est >= tru * 0.4 - 5.0, "e={e} est={est} tru={tru}");
        }
        // Monotone in e.
        for e in 0..16 {
            assert!(a[e + 1] <= a[e + 2] + 1e-9);
        }
    }

    #[test]
    fn auto_splits_wide_partitions() {
        let ds = random_dataset(40, 50, 3);
        let p = Partitioning::equi_width(40, 1).unwrap(); // width 40 > 16
        let pd = ProjectedDataset::build(&ds, &Projector::new(&p));
        let sp = SubPartitionCn::build(&pd, 8, 2).unwrap();
        // Must have auto-raised to >= ceil(40/16) = 3 sub-partitions.
        assert!(sp.parts[0].tables.len() >= 3);
        let mut out = vec![0.0; 10];
        sp.fill(0, &[0u64], 8, &mut out);
        assert!(out[9] <= 50.0);
    }

    #[test]
    fn extract_bits_works_across_words() {
        let words = [0xFF00_0000_0000_0000u64, 0x1];
        // bits 56..65 = 8 ones then the next word's bit 0 (=1).
        assert_eq!(extract_bits(&words, 56, 65), 0x1FF);
        assert_eq!(extract_bits(&words, 0, 8), 0);
    }

    #[test]
    fn extract_bits_matches_the_per_bit_loop() {
        // The reference: one shift and mask per bit.
        let per_bit = |words: &[u64], start: usize, end: usize| {
            (start..end)
                .enumerate()
                .fold(0u64, |v, (out, bit)| v | ((words[bit / 64] >> (bit % 64)) & 1) << out)
        };
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..8 {
            let words: Vec<u64> = (0..3).map(|_| rng.random()).collect();
            // Every range of up to 64 bits, those that cross a word
            // boundary included.
            for start in 0..192 {
                for end in start..=(start + 64).min(192) {
                    assert_eq!(
                        extract_bits(&words, start, end),
                        per_bit(&words, start, end),
                        "{start}..{end}"
                    );
                }
            }
        }
    }

    #[test]
    fn paper_shift_degenerates_at_small_e_but_unshifted_does_not() {
        let ds = random_dataset(16, 400, 9);
        let p = Partitioning::equi_width(16, 1).unwrap();
        let proj = Projector::new(&p);
        let pd = ProjectedDataset::build(&ds, &proj);
        let shifted = SubPartitionCn::build_with_shift(&pd, 8, 2, true).unwrap();
        let unshifted = SubPartitionCn::build_with_shift(&pd, 8, 2, false).unwrap();
        // Query = a data row: CN(q, 0) >= 1 in truth.
        let qp = proj.project(0, ds.row(0));
        let mut a = vec![0.0; 10];
        let mut b = vec![0.0; 10];
        shifted.fill(0, &qp, 8, &mut a);
        unshifted.fill(0, &qp, 8, &mut b);
        // The printed formula cannot see anything at e = 0 with mi = 2.
        assert_eq!(a[1], 0.0);
        // The unshifted CDF reports positive mass there.
        assert!(b[1] > 0.0);
        // And the shifted estimate is exactly the unshifted one at e-1.
        for e in 1..=8usize {
            assert!((a[e + 1] - b[e]).abs() < 1e-9, "e={e}");
        }
    }

    /// The two-buffer convolution `fill` ran before it worked in place,
    /// reading each count through `exact_count`.
    fn fill_with_buffers(sp: &SubSplit, q_val: &[u64], tau: usize, out: &mut [f64]) {
        let cap = tau + 1;
        let mut conv = vec![1.0f64];
        let mut scale = 1.0f64;
        for (j, table) in sp.tables.iter().enumerate() {
            let (start, end) = sp.ranges[j];
            let qv = extract_bits(q_val, start, end);
            let dist: Vec<f64> = (0..=(end - start).min(cap))
                .map(|e| table.exact_count(qv, e as i32) as f64)
                .collect();
            let new_len = (conv.len() + dist.len() - 1).min(cap + 1);
            let mut next = vec![0.0f64; new_len];
            for (a, &ca) in conv.iter().enumerate() {
                if ca == 0.0 {
                    continue;
                }
                for (b, &db) in dist.iter().enumerate() {
                    if a + b < new_len {
                        next[a + b] += ca * db;
                    }
                }
            }
            conv = next;
            if j > 0 {
                scale *= sp.n.max(1.0);
            }
        }
        let mut cdf = vec![0.0f64; conv.len() + 1];
        for (d, &c) in conv.iter().enumerate() {
            cdf[d + 1] = cdf[d] + c / scale;
        }
        for e in -1..=(tau as i32) {
            let budget = if sp.paper_shift { e - sp.tables.len() as i32 + 1 } else { e };
            let v = if budget < 0 { 0.0 } else { cdf[(budget as usize + 1).min(cdf.len() - 1)] };
            out[(e + 1) as usize] = v.min(sp.n).max(0.0);
        }
        for e in sp.width..=tau {
            out[e + 1] = sp.n;
        }
    }

    #[test]
    fn in_place_fill_is_bit_identical_to_the_buffered_one() {
        let ds = random_dataset(64, 700, 12);
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        for (parts, sub_count) in [(1, 1), (2, 2), (3, 3), (2, 4), (1, 6)] {
            let p = Partitioning::equi_width(64, parts).unwrap();
            let proj = Projector::new(&p);
            let pd = ProjectedDataset::build(&ds, &proj);
            for paper_shift in [false, true] {
                let sp = SubPartitionCn::build_with_shift(&pd, 24, sub_count, paper_shift).unwrap();
                for _ in 0..20 {
                    let q = BitVector::from_bits((0..64).map(|_| rng.random_bool(0.3)));
                    for part in 0..parts {
                        let qp = proj.project(part, q.words());
                        for tau in [0, 1, 3, 7, 12, 24] {
                            let (mut got, mut want) = (vec![0.0; tau + 2], vec![0.0; tau + 2]);
                            sp.fill(part, &qp, tau, &mut got);
                            fill_with_buffers(&sp.parts[part], &qp, tau, &mut want);
                            let bits =
                                |row: &[f64]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            assert_eq!(
                                bits(&got),
                                bits(&want),
                                "m={parts} mi={sub_count} tau={tau}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn decode_rejects_a_sub_table_wider_than_16_bits() {
        // One 17-bit partition kept whole: no build splits it so, and
        // `fill`'s distribution buffer holds 17 distances.
        let mut state = Vec::new();
        state.put_u64_le(1); // parts
        state.put_u8(0); // paper_shift
        state.put_u64_le(17); // width
        state.put_u64_le(10f64.to_bits()); // n
        state.put_u64_le(1); // one sub-partition, bits 0..17
        state.put_u64_le(0);
        state.put_u64_le(17);
        match SubPartitionCn::decode_state(&state, &[17]) {
            Err(HammingError::Corrupt(msg)) => assert!(msg.contains("wider than 16 bits"), "{msg}"),
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn rejects_zero_subcount() {
        let ds = random_dataset(8, 10, 4);
        let p = Partitioning::equi_width(8, 2).unwrap();
        let pd = ProjectedDataset::build(&ds, &Projector::new(&p));
        assert!(SubPartitionCn::build(&pd, 4, 0).is_err());
    }
}
