//! Exact CN tables over whole partitions.
//!
//! For a partition of width `w ≤ max_width`, stores `CN(v, e)` for **all**
//! `2^w` values `v` and `e ∈ 0..=e_max`, so query-time estimation is a
//! table lookup — the "exact algorithm" of §IV-C with `O(m·2^{n'}·τ)`
//! space, feasible only for small widths (which is precisely why the
//! paper introduces the SP and learned approximations).
//!
//! Construction avoids the naive `O(4^w)` pairwise sweep with the
//! Krawtchouk-style recurrence on exact-distance counts `t_k`:
//!
//! ```text
//! k · t_k(v) = Σ_j t_{k−1}(v ⊕ e_j) − (w − k + 2) · t_{k−2}(v)
//! ```
//!
//! which costs `O(w · 2^w)` per radius level.
//!
//! The recurrence runs in `u64`, but a table entry is a count of rows,
//! never more than `n`, and row ids are `u32` everywhere else — so
//! tables hold `u32` counts (half the bytes of the estimator, which on
//! small segments outweighs the index) and widen them on read. Snapshots
//! still write each count as a `u64` word; a decoder narrows it after
//! checking that it is at most `n` and that each row grows with `e`.

use super::CnEstimator;
use bytes::BufMut;
use hamming_core::error::{HammingError, Result};
use hamming_core::io::ByteReader;
use hamming_core::project::ProjectedDataset;

/// Exact tables for one partition.
#[derive(Clone, Debug)]
pub(crate) struct ExactPart {
    pub width: usize,
    pub e_max: usize,
    /// Rows counted; at most `u32::MAX`, like every row id.
    pub n: u64,
    /// Row-major `2^width × (e_max + 1)`: `table[v][e] = CN(v, e) ≤ n`.
    pub table: Vec<u32>,
}

/// Narrows a count of rows to the table's `u32`.
fn narrow(count: u64) -> u32 {
    u32::try_from(count).expect("a CN count never exceeds the row count, which fits a u32")
}

impl ExactPart {
    /// Builds cumulative ball-count tables from the value frequencies of
    /// one projected column.
    pub fn build_from_freqs(width: usize, freqs: &[u64], e_max: usize) -> Self {
        let size = 1usize << width;
        assert_eq!(freqs.len(), size);
        let n: u64 = freqs.iter().sum();
        let e_max = e_max.min(width);
        // Exact-distance levels t_{k-2}, t_{k-1} (rolling).
        let mut t_prev2: Vec<u64> = Vec::new(); // t_{k-2}
        let mut t_prev: Vec<u64> = freqs.to_vec(); // t_0
        let mut table = vec![0u32; size * (e_max + 1)];
        for v in 0..size {
            table[v * (e_max + 1)] = narrow(t_prev[v]); // CN(v, 0) = t_0(v)
        }
        for k in 1..=e_max {
            let mut t_k = vec![0u64; size];
            for (v, tk) in t_k.iter_mut().enumerate() {
                let mut s: u64 = 0;
                for j in 0..width {
                    s += t_prev[v ^ (1usize << j)];
                }
                if k >= 2 {
                    s -= (width - k + 2) as u64 * t_prev2[v];
                }
                debug_assert_eq!(s % k as u64, 0, "recurrence must divide evenly");
                *tk = s / k as u64;
            }
            for (v, &tk) in t_k.iter().enumerate() {
                let row = v * (e_max + 1);
                table[row + k] = narrow(u64::from(table[row + k - 1]) + tk);
            }
            t_prev2 = std::mem::replace(&mut t_prev, t_k);
        }
        ExactPart { width, e_max, n, table }
    }

    /// `CN(v, e)`; `e < 0` → 0, `e > e_max` → `N` if `e >= width` else the
    /// table edge (callers pass `e_max = min(τ_max, width)`, so the edge
    /// is only hit beyond the supported τ, where clamping is the
    /// documented behaviour).
    #[inline]
    pub fn cn(&self, v: u64, e: i32) -> u64 {
        if e < 0 {
            return 0;
        }
        let e = e as usize;
        if e >= self.width {
            return self.n;
        }
        let e = e.min(self.e_max);
        u64::from(self.table[v as usize * (self.e_max + 1) + e])
    }

    /// Exact-distance count `t_e(v) = CN(v, e) − CN(v, e−1)`.
    #[inline]
    pub fn exact_count(&self, v: u64, e: i32) -> u64 {
        if e < 0 {
            0
        } else {
            self.cn(v, e) - self.cn(v, e - 1)
        }
    }

    pub fn size_bytes(&self) -> usize {
        self.table.len() * 4
    }

    /// Appends this table's snapshot encoding: `width u64, e_max u64,
    /// n u64`, then the `2^width × (e_max + 1)` counts, one `u64` word
    /// each.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.put_u64_le(self.width as u64);
        buf.put_u64_le(self.e_max as u64);
        buf.put_u64_le(self.n);
        for &v in &self.table {
            buf.put_u64_le(u64::from(v));
        }
    }

    /// Decodes one table written by [`ExactPart::encode_into`],
    /// validating the declared shape before reading the table words and
    /// every word before narrowing it: a CRC-valid state spliced
    /// together from other bytes can declare `n > u32::MAX`, a count
    /// above `n`, or a row that shrinks as `e` grows — none of which a
    /// build can produce.
    pub(crate) fn decode_from(r: &mut ByteReader<'_>) -> Result<Self> {
        let width = r.u64("exact-table width")? as usize;
        if width >= usize::BITS as usize - 1 {
            return Err(HammingError::Corrupt(format!("exact-table width {width} is absurd")));
        }
        let e_max = r.u64("exact-table e_max")? as usize;
        if e_max > width {
            return Err(HammingError::Corrupt(format!(
                "exact-table e_max {e_max} exceeds width {width}"
            )));
        }
        let n = r.u64("exact-table n")?;
        if n > u64::from(u32::MAX) {
            return Err(HammingError::Corrupt(format!("exact-table n {n} exceeds u32::MAX")));
        }
        let table_len = (1usize << width)
            .checked_mul(e_max + 1)
            .filter(|&words| words <= r.remaining() / 8)
            .ok_or_else(|| {
                HammingError::Corrupt(format!(
                    "exact-table 2^{width}×{} exceeds the remaining bytes",
                    e_max + 1
                ))
            })?;
        let words = r.bytes(table_len * 8, "exact-table words")?;
        let count = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8 bytes"));
        // One branch-free pass narrows every count and notes whether any
        // row decreases or ends above `n` (a monotone row's largest count
        // is its last, so no other count can exceed `n` then).
        let mut table = Vec::with_capacity(table_len);
        let mut bad = false;
        for row in words.chunks_exact((e_max + 1) * 8) {
            let mut prev = 0;
            table.extend(row.chunks_exact(8).map(|w| {
                let c = count(w);
                bad |= c < prev;
                prev = c;
                c as u32
            }));
            bad |= prev > n;
        }
        if !bad {
            return Ok(ExactPart { width, e_max, n, table });
        }
        // Name the first bad count.
        let counts: Vec<u64> = words.chunks_exact(8).map(count).collect();
        let i = (0..table_len)
            .find(|&i| counts[i] > n || (i % (e_max + 1) > 0 && counts[i] < counts[i - 1]))
            .expect("a table that fails the check has a first bad count");
        let (v, e, c) = (i / (e_max + 1), i % (e_max + 1), counts[i]);
        Err(HammingError::Corrupt(if c > n {
            format!("exact-table CN({v}, {e}) = {c} exceeds n = {n}")
        } else {
            format!("exact-table CN({v}, {e}) = {c} is below CN({v}, {})", e - 1)
        }))
    }
}

/// Frequency histogram of a projected column with width ≤ 26 or so.
pub(crate) fn column_freqs(pd: &ProjectedDataset, part: usize) -> Vec<u64> {
    let col = pd.column(part);
    let width = col.width();
    assert!(width < usize::BITS as usize - 1, "width too large for table");
    let mut freqs = vec![0u64; 1usize << width];
    for id in 0..pd.len() {
        freqs[col.key(id) as usize] += 1;
    }
    freqs
}

/// The exact estimator: one table per partition.
#[derive(Clone, Debug)]
pub struct ExactCn {
    parts: Vec<ExactPart>,
}

impl ExactCn {
    /// Builds tables for every partition; errors if any partition exceeds
    /// `max_width` (the tables would need `> 2^max_width` rows).
    pub fn build(pd: &ProjectedDataset, tau_max: usize, max_width: usize) -> Result<Self> {
        let mut parts = Vec::with_capacity(pd.num_parts());
        for p in 0..pd.num_parts() {
            let width = pd.column(p).width();
            if width > max_width {
                return Err(HammingError::InvalidParameter(format!(
                    "exact CN tables need partition width <= {max_width}, got {width} \
                     (use the SP or learned estimator)"
                )));
            }
            let freqs = column_freqs(pd, p);
            parts.push(ExactPart::build_from_freqs(width, &freqs, tau_max));
        }
        Ok(ExactCn { parts })
    }

    /// Snapshot encoding of every per-partition table.
    pub(crate) fn encode_state(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u64_le(self.parts.len() as u64);
        for p in &self.parts {
            p.encode_into(&mut buf);
        }
        buf
    }

    /// Restores an estimator from [`ExactCn::encode_state`] bytes.
    /// `widths` are the partitioning's per-partition widths; each table
    /// must match, or query-time lookups could index out of bounds.
    pub(crate) fn decode_state(bytes: &[u8], widths: &[usize]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let n_parts = r.len(24, "exact-estimator part count")?;
        if n_parts != widths.len() {
            return Err(HammingError::Corrupt(format!(
                "exact estimator covers {n_parts} partitions, partitioning has {}",
                widths.len()
            )));
        }
        let mut parts = Vec::with_capacity(n_parts);
        for (i, &width) in widths.iter().enumerate() {
            let p = ExactPart::decode_from(&mut r)?;
            if p.width != width {
                return Err(HammingError::Corrupt(format!(
                    "exact table {i} is {} bits wide, partition is {width}",
                    p.width
                )));
            }
            parts.push(p);
        }
        r.finish("exact-estimator state")?;
        Ok(ExactCn { parts })
    }
}

impl CnEstimator for ExactCn {
    fn fill(&self, part: usize, q_val: &[u64], tau: usize, out: &mut [f64]) {
        let p = &self.parts[part];
        let v = if q_val.is_empty() { 0 } else { q_val[0] };
        for e in -1..=(tau as i32) {
            out[(e + 1) as usize] = p.cn(v, e) as f64;
        }
    }

    fn size_bytes(&self) -> usize {
        self.parts.iter().map(|p| p.size_bytes()).sum()
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

    /// Brute-force CN for cross-checking.
    fn brute_cn(freqs: &[u64], v: u64, e: i32) -> u64 {
        if e < 0 {
            return 0;
        }
        freqs
            .iter()
            .enumerate()
            .filter(|(u, _)| (*u as u64 ^ v).count_ones() as i32 <= e)
            .map(|(_, &f)| f)
            .sum()
    }

    #[test]
    fn recurrence_matches_bruteforce() {
        // Arbitrary frequency vector over width 6.
        let width = 6usize;
        let freqs: Vec<u64> = (0..(1u64 << width)).map(|v| (v * 7 + 3) % 11).collect();
        let part = ExactPart::build_from_freqs(width, &freqs, width);
        for v in 0..(1u64 << width) {
            for e in -1..=(width as i32) {
                assert_eq!(part.cn(v, e), brute_cn(&freqs, v, e), "v={v} e={e}");
            }
        }
    }

    #[test]
    fn e_beyond_width_returns_n() {
        let freqs = vec![2, 3, 0, 5];
        let part = ExactPart::build_from_freqs(2, &freqs, 2);
        assert_eq!(part.cn(1, 7), 10);
        assert_eq!(part.exact_count(0, 0), 2);
        assert_eq!(part.exact_count(0, 1), 3); // values 1 and 2
    }

    /// A one-partition exact-estimator state over width 2 (`e_max` 2),
    /// written by hand: the count `n`, then the table words.
    fn state(n: u64, words: &[u64]) -> Vec<u8> {
        let mut buf = Vec::new();
        for header in [1, 2, 2, n] {
            buf.put_u64_le(header); // parts, width, e_max, n
        }
        words.iter().for_each(|&w| buf.put_u64_le(w));
        buf
    }

    #[test]
    fn decode_rejects_counts_no_build_can_produce() {
        let built = ExactPart::build_from_freqs(2, &[2, 3, 0, 5], 2);
        let words: Vec<u64> = built.table.iter().map(|&c| u64::from(c)).collect();
        assert_eq!(words, [2, 5, 10, 3, 10, 10, 0, 7, 10, 5, 8, 10]);
        // Counts are stored in 32 bits and written as 64-bit words.
        assert_eq!(built.size_bytes(), 12 * 4);
        assert_eq!(ExactCn { parts: vec![built.clone()] }.encode_state(), state(10, &words));
        let decoded = ExactCn::decode_state(&state(10, &words), &[2]).unwrap();
        assert_eq!(decoded.parts[0].table, built.table);

        let reject = |n: u64, at: usize, word: u64, needle: &str| {
            let mut bad = words.clone();
            bad[at] = word;
            match ExactCn::decode_state(&state(n, &bad), &[2]) {
                Err(HammingError::Corrupt(msg)) => assert!(msg.contains(needle), "{msg}"),
                other => panic!("{needle}: expected Corrupt, got {:?}", other.map(|_| ())),
            }
        };
        // CN(1, 2) = 11 of 10 rows: still monotone, but above n.
        reject(10, 5, 11, "exceeds n = 10");
        // CN(0, 1) = 1 < CN(0, 0) = 2: a ball that loses rows as it grows.
        reject(10, 1, 1, "is below CN(0, 0)");
        // A count past u32::MAX would be truncated by the narrowing.
        reject(10, 2, 1 << 32, "exceeds n = 10");
        // So would an `n` past it, however consistent the table.
        reject(1 << 33, 2, 10, "exceeds u32::MAX");
    }

    #[test]
    fn estimator_on_table1() {
        let ds = Dataset::from_vectors(
            8,
            ["00000000", "00000111", "00001111", "10011111"]
                .iter()
                .map(|s| BitVector::parse(s).unwrap()),
        )
        .unwrap();
        let p = Partitioning::new(8, vec![(0..6).collect(), vec![6, 7]]).unwrap();
        let proj = Projector::new(&p);
        let pd = ProjectedDataset::build(&ds, &proj);
        let est = ExactCn::build(&pd, 8, 16).unwrap();
        // q2 = 10000011 -> partition 1 (dims 6,7) = "11" = 0b11.
        let q2 = BitVector::parse("10000011").unwrap();
        let q2p1 = proj.project(1, q2.words());
        let mut out = vec![0.0; 10];
        est.fill(1, &q2p1, 8, &mut out);
        // CN(q2_1, 0): x2,x3,x4 share "11" -> 3.
        assert_eq!(out[1], 3.0);
        // CN(q2_1, -1) = 0; CN at e >= 2 = 4.
        assert_eq!(out[0], 0.0);
        assert_eq!(out[3], 4.0);
    }

    #[test]
    fn build_rejects_wide_partitions() {
        let ds = Dataset::from_vectors(40, vec![BitVector::zeros(40)]).unwrap();
        let p = Partitioning::equi_width(40, 2).unwrap(); // widths 20 > 16
        let pd = ProjectedDataset::build(&ds, &Projector::new(&p));
        assert!(ExactCn::build(&pd, 4, 16).is_err());
    }
}
