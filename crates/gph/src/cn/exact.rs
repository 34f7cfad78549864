//! Exact CN tables over whole partitions.
//!
//! For a partition of width `w ≤ max_width`, answers `CN(v, e)` for
//! **all** `2^w` values `v` and `e ∈ 0..=e_max` from a table, so
//! query-time estimation is a row walk — the "exact algorithm" of §IV-C
//! with `O(m·2^{n'}·τ)` space, feasible only for small widths (which is
//! precisely why the paper introduces the SP and learned
//! approximations).
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
//! A table keeps only what its counts do not already imply, by three
//! rules of the data:
//!
//! * **Exact-distance counts.** It stores `t_e(v) = CN(v, e) − CN(v, e−1)`;
//!   `CN(v, e)` is their running sum.
//! * **The lower half of the columns.** Since `d(¬v, u) = w − d(v, u)`,
//!   `t_e(v) = t_{w−e}(¬v)`: a column above `⌊w/2⌋` is a lower one of
//!   the complement row. A table stores `e ∈ 0..=min(e_max, ⌊w/2⌋)`, and
//!   the recurrence stops at that level.
//! * **Narrow counts where they fit.** A count is at most `n`, and row
//!   ids are `u32` everywhere else, so counts are `u32` — or `u16` when
//!   the table's largest stored count is at most 65 535.
//!
//! Snapshots still write the cumulative `CN(v, e)` for every
//! `e ≤ e_max`, one `u64` word each. A decoder checks that each count
//! is at most `n`, that each row grows with `e` and that the words obey
//! the complement identity, then keeps the lower exact-distance half.

use super::CnEstimator;
use bytes::BufMut;
use hamming_core::error::{HammingError, Result};
use hamming_core::io::ByteReader;
use hamming_core::project::ProjectedDataset;

/// A table's stored counts, at the narrowest width that holds them all.
#[derive(Clone, Debug, PartialEq)]
enum Counts {
    U16(Vec<u16>),
    U32(Vec<u32>),
}

impl Counts {
    /// The `u16` form when every count fits it, else `counts` as they are.
    fn narrowest(counts: Vec<u32>) -> Self {
        if counts.iter().all(|&c| c <= u32::from(u16::MAX)) {
            Counts::U16(counts.iter().map(|&c| c as u16).collect())
        } else {
            Counts::U32(counts)
        }
    }

    #[inline]
    fn get(&self, i: usize) -> u64 {
        match self {
            Counts::U16(c) => u64::from(c[i]),
            Counts::U32(c) => u64::from(c[i]),
        }
    }

    fn size_bytes(&self) -> usize {
        match self {
            Counts::U16(c) => c.len() * 2,
            Counts::U32(c) => c.len() * 4,
        }
    }
}

/// Columns a table of `width` bits up to `e_max` stores per row:
/// `e ∈ 0..=min(e_max, ⌊width/2⌋)`.
fn stored_cols(width: usize, e_max: usize) -> usize {
    e_max.min(width / 2) + 1
}

/// Exact tables for one partition.
#[derive(Clone, Debug)]
pub(crate) struct ExactPart {
    pub width: usize,
    pub e_max: usize,
    /// Rows counted; at most `u32::MAX`, like every row id.
    pub n: u64,
    /// Row-major `2^width × stored_cols(width, e_max)`: `t_e(v) ≤ n`.
    counts: Counts,
}

/// Narrows a count of rows to `u32`.
fn narrow(count: u64) -> u32 {
    u32::try_from(count).expect("a CN count never exceeds the row count, which fits a u32")
}

impl ExactPart {
    /// Builds the exact-distance tables from the value frequencies of
    /// one projected column.
    pub fn build_from_freqs(width: usize, freqs: &[u64], e_max: usize) -> Self {
        let size = 1usize << width;
        assert_eq!(freqs.len(), size);
        let n: u64 = freqs.iter().sum();
        let e_max = e_max.min(width);
        let cols = stored_cols(width, e_max);
        let mut counts = vec![0u32; size * cols];
        // Exact-distance levels t_{k-2}, t_{k-1}, t_k (rolling).
        let mut t_prev2 = vec![0u64; size];
        let mut t_prev = freqs.to_vec(); // t_0
        let mut t_k = vec![0u64; size];
        for (v, &t0) in t_prev.iter().enumerate() {
            counts[v * cols] = narrow(t0);
        }
        for k in 1..cols {
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
                counts[v * cols + k] = narrow(*tk);
            }
            std::mem::swap(&mut t_prev2, &mut t_prev);
            std::mem::swap(&mut t_prev, &mut t_k);
        }
        ExactPart { width, e_max, n, counts: Counts::narrowest(counts) }
    }

    /// `t_e(v)` for `e ≤ min(e_max, width)`: a stored column, or above
    /// `⌊width/2⌋` column `width − e` of the complement row.
    #[inline]
    fn t(&self, v: usize, e: usize) -> u64 {
        let cols = stored_cols(self.width, self.e_max);
        if e < cols {
            self.counts.get(v * cols + e)
        } else {
            let complement = v ^ ((1usize << self.width) - 1);
            self.counts.get(complement * cols + self.width - e)
        }
    }

    /// `CN(v, e)`; `e < 0` → 0, `e > e_max` → `N` if `e >= width` else the
    /// table edge (callers pass `e_max = min(τ_max, width)`, so the edge
    /// is only hit beyond the supported τ, where clamping is the
    /// documented behaviour).
    pub fn cn(&self, v: u64, e: i32) -> u64 {
        if e < 0 {
            return 0;
        }
        let e = e as usize;
        if e >= self.width {
            return self.n;
        }
        (0..=e.min(self.e_max)).map(|k| self.t(v as usize, k)).sum()
    }

    /// Exact-distance count `t_e(v) = CN(v, e) − CN(v, e−1)`.
    pub fn exact_count(&self, v: u64, e: i32) -> u64 {
        if e < 0 {
            0
        } else if (e as usize) < self.width && e as usize <= self.e_max {
            self.t(v as usize, e as usize)
        } else {
            self.cn(v, e) - self.cn(v, e - 1)
        }
    }

    /// `out[e] = exact_count(v, e)` for every `e < out.len()`, from one
    /// pass over row `v` and row `¬v`.
    pub fn exact_counts_into(&self, v: u64, out: &mut [f64]) {
        for (e, slot) in out.iter_mut().enumerate() {
            *slot = if e < self.width && e <= self.e_max {
                self.t(v as usize, e)
            } else {
                self.exact_count(v, e as i32)
            } as f64;
        }
    }

    /// `out[e] = cn(v, e)` for every `e < out.len()`: a running sum of
    /// the row's exact-distance counts.
    pub fn cn_into(&self, v: u64, out: &mut [f64]) {
        let mut cn = 0;
        for (e, slot) in out.iter_mut().enumerate() {
            if e >= self.width {
                *slot = self.n as f64;
                continue;
            }
            if e <= self.e_max {
                cn += self.t(v as usize, e);
            }
            *slot = cn as f64;
        }
    }

    pub fn size_bytes(&self) -> usize {
        self.counts.size_bytes()
    }

    /// The cumulative counts `CN(v, e)` a snapshot holds, row by row for
    /// `e ∈ 0..=e_max`.
    pub(crate) fn cumulative(&self) -> impl Iterator<Item = u64> + '_ {
        (0..1usize << self.width).flat_map(move |v| {
            (0..=self.e_max).scan(0, move |cn, e| {
                *cn += self.t(v, e);
                Some(*cn)
            })
        })
    }

    /// Appends this table's snapshot encoding: `width u64, e_max u64,
    /// n u64`, then the `2^width × (e_max + 1)` cumulative counts, one
    /// `u64` word each.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.put_u64_le(self.width as u64);
        buf.put_u64_le(self.e_max as u64);
        buf.put_u64_le(self.n);
        buf.reserve((1usize << self.width) * (self.e_max + 1) * 8);
        for cn in self.cumulative() {
            buf.put_u64_le(cn);
        }
    }

    /// Decodes one table written by [`ExactPart::encode_into`],
    /// validating the declared shape before reading the table words and
    /// every word before keeping its row's lower exact-distance counts:
    /// a CRC-valid state spliced together from other bytes can declare
    /// `n > u32::MAX`, a count above `n`, a row that shrinks as `e`
    /// grows, or a dropped column that its complement row contradicts —
    /// none of which a build can produce.
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
        // One branch-free pass keeps each row's stored exact-distance
        // counts and notes whether any row decreases or ends above `n`
        // (a monotone row's largest count is its last, so no other count
        // can exceed `n` then).
        let stride = e_max + 1;
        let cols = stored_cols(width, e_max);
        let mut counts = Vec::with_capacity((1usize << width) * cols);
        let mut bad = false;
        for row in words.chunks_exact(stride * 8) {
            let (stored, dropped) = row.split_at(cols * 8);
            let mut prev = 0;
            for w in stored.chunks_exact(8) {
                let c = count(w);
                bad |= c < prev;
                counts.push(c.wrapping_sub(prev) as u32);
                prev = c;
            }
            for w in dropped.chunks_exact(8) {
                let c = count(w);
                bad |= c < prev;
                prev = c;
            }
            bad |= prev > n;
        }
        if bad {
            // Name the first bad count.
            let counts: Vec<u64> = words.chunks_exact(8).map(count).collect();
            let i = (0..table_len)
                .find(|&i| counts[i] > n || (i % stride > 0 && counts[i] < counts[i - 1]))
                .expect("a table that fails the check has a first bad count");
            let (v, e, c) = (i / stride, i % stride, counts[i]);
            return Err(HammingError::Corrupt(if c > n {
                format!("exact-table CN({v}, {e}) = {c} exceeds n = {n}")
            } else {
                format!("exact-table CN({v}, {e}) = {c} is below CN({v}, {})", e - 1)
            }));
        }
        // Every pair of columns `e` and `width − e` that both lie within
        // `e_max` — the dropped ones among them — must obey
        // `t_e(v) = t_{width−e}(¬v)`. A second branch-free pass reads
        // row `v`'s words against row `¬v`'s kept counts.
        let mask = (1usize << width) - 1;
        let lo = (width - e_max).max(width.div_ceil(2));
        let t = |v: usize, e: usize| {
            let at = |e: usize| count(&words[(v * stride + e) * 8..][..8]);
            at(e) - if e > 0 { at(e - 1) } else { 0 }
        };
        let mirror = |v: usize, e: usize| u64::from(counts[(v ^ mask) * cols + width - e]);
        let mut broken = false;
        for v in 0..=mask {
            for e in lo..=e_max {
                broken |= t(v, e) != mirror(v, e);
            }
        }
        if broken {
            // Name the first cell that breaks it.
            let (v, e) = (0..=mask)
                .flat_map(|v| (lo..=e_max).map(move |e| (v, e)))
                .find(|&(v, e)| t(v, e) != mirror(v, e))
                .expect("a table that fails the check has a first broken cell");
            return Err(HammingError::Corrupt(format!(
                "exact-table t_{e}({v}) = {} breaks the complement identity: t_{}({}) = {}",
                t(v, e),
                width - e,
                v ^ mask,
                mirror(v, e)
            )));
        }
        Ok(ExactPart { width, e_max, n, counts: Counts::narrowest(counts) })
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
        out[0] = 0.0; // CN(v, −1)
        p.cn_into(v, &mut out[1..=tau + 1]);
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
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

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
        let words: Vec<u64> = built.cumulative().collect();
        assert_eq!(words, [2, 5, 10, 3, 10, 10, 0, 7, 10, 5, 8, 10]);
        // The exact-distance counts t_0 and t_1 (⌊2/2⌋ = 1) are stored, in
        // 16 bits, and written as 64-bit cumulative words.
        assert_eq!(built.size_bytes(), 4 * 2 * 2);
        assert_eq!(ExactCn { parts: vec![built.clone()] }.encode_state(), state(10, &words));
        let decoded = ExactCn::decode_state(&state(10, &words), &[2]).unwrap();
        assert_eq!(decoded.parts[0].counts, built.counts);

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
        // CN(2, 1) = 8: monotone and at most n, but t_1(2) = 8 while its
        // complement's t_1(1) = 7, and the two count the same rows.
        reject(10, 7, 8, "exact-table t_1(1) = 7 breaks the complement identity: t_1(2) = 8");
        // CN(0, 2) = 9: its dropped column t_2(0) = 4 is not t_0(3) = 5.
        reject(10, 2, 9, "exact-table t_2(0) = 4 breaks the complement identity: t_0(3) = 5");
    }

    /// Reference `CN(v, e)` for every `v` and `e ∈ 0..=width`, row-major:
    /// `brute_cn` summed over the nonzero frequencies only, once per
    /// value and distance.
    fn brute_table(width: usize, freqs: &[u64]) -> Vec<u64> {
        let rows: Vec<(usize, u64)> =
            freqs.iter().enumerate().filter(|(_, &f)| f > 0).map(|(u, &f)| (u, f)).collect();
        let mut table = vec![0u64; (1 << width) * (width + 1)];
        for (v, row) in table.chunks_exact_mut(width + 1).enumerate() {
            for &(u, f) in &rows {
                row[(u ^ v).count_ones() as usize] += f;
            }
            for e in 1..=width {
                row[e] += row[e - 1];
            }
        }
        table
    }

    /// The compact form answers `cn` and `exact_count` as the full
    /// cumulative table did, writes its bytes, and takes
    /// `2^w × (min(e_max, ⌊w/2⌋) + 1)` counts of 2 or 4 bytes.
    #[test]
    fn compact_form_matches_the_cumulative_table() {
        let mut rng = ChaCha8Rng::seed_from_u64(55);
        for width in 0..=16usize {
            let size = 1usize << width;
            let mut cases: Vec<(&str, Vec<u64>)> = Vec::new();
            let mut random = vec![0u64; size];
            if width <= 8 {
                random.iter_mut().for_each(|f| *f = rng.random_range(0..5u64));
            } else {
                for _ in 0..48 {
                    random[rng.random_range(0..size)] += rng.random_range(1..1000u64);
                }
            }
            cases.push(("random", random));
            // Every value up to 12 bits; past that (a debug build walks
            // 2^16 values × 17 radii × 17 e_max slowly) 256 random ones
            // and both ends, and random frequencies only.
            let values: Vec<usize> = if width <= 12 {
                (0..size).collect()
            } else {
                (0..256).map(|_| rng.random_range(0..size)).chain([0, size - 1]).collect()
            };
            // Both sides of the u16 line: one value holding 65 535 rows,
            // then 65 536.
            for rows in [65_535, 65_536].into_iter().filter(|_| width <= 12) {
                let mut one = vec![0u64; size];
                one[rng.random_range(0..size)] = rows;
                cases.push(("one value", one));
            }
            // n = 80 000, but the largest stored count is 40 000: a value
            // and its complement count each other in the upper half only.
            if (1..=12).contains(&width) {
                let mut pair = vec![0u64; size];
                let v = rng.random_range(0..size);
                pair[v] = 40_000;
                pair[v ^ (size - 1)] = 40_000;
                cases.push(("complement pair", pair));
            }
            for (name, freqs) in &cases {
                let reference = brute_table(width, freqs);
                for v in [0, size / 3, size - 1] {
                    for e in 0..=width {
                        let at = reference[v * (width + 1) + e];
                        assert_eq!(at, brute_cn(freqs, v as u64, e as i32), "{name} w={width}");
                    }
                }
                let n: u64 = freqs.iter().sum();
                for e_max in 0..=width {
                    let part = ExactPart::build_from_freqs(width, freqs, e_max);
                    let label = format!("{name} w={width} e_max={e_max}");
                    // What the cumulative table answered: CN clamped to
                    // the table edge below the width, n at or past it.
                    let want = |v: usize, e: i32| -> u64 {
                        if e < 0 {
                            0
                        } else if e as usize >= width {
                            n
                        } else {
                            reference[v * (width + 1) + (e as usize).min(e_max)]
                        }
                    };
                    for &v in &values {
                        for e in -1..=(width as i32 + 2) {
                            let (got_cn, got_t) =
                                (part.cn(v as u64, e), part.exact_count(v as u64, e));
                            assert_eq!(got_cn, want(v, e), "{label} cn({v}, {e})");
                            assert_eq!(got_t, want(v, e) - want(v, e - 1), "{label} t({v}, {e})");
                        }
                    }
                    // The old writer: every CN(v, e) for e ≤ e_max.
                    let mut old = Vec::new();
                    for header in [width as u64, e_max as u64, n] {
                        old.put_u64_le(header);
                    }
                    for v in 0..size {
                        let row = &reference[v * (width + 1)..][..=e_max];
                        row.iter().for_each(|&cn| old.put_u64_le(cn));
                    }
                    let mut new = Vec::new();
                    part.encode_into(&mut new);
                    assert_eq!(new, old, "{label} bytes");
                    // And they decode back to the same table.
                    let back = ExactPart::decode_from(&mut ByteReader::new(&new)).unwrap();
                    assert_eq!(back.counts, part.counts, "{label} decoded");
                    let cols = e_max.min(width / 2) + 1;
                    let widest = (0..size)
                        .flat_map(|v| (0..cols).map(move |e| (v, e as i32)))
                        .map(|(v, e)| want(v, e) - want(v, e - 1))
                        .max()
                        .unwrap();
                    let bytes = if widest <= 65_535 { 2 } else { 4 };
                    assert_eq!(part.size_bytes(), size * cols * bytes, "{label} size");
                }
            }
        }
    }

    #[test]
    fn counts_take_32_bits_only_past_65_535() {
        // 65 536 rows share value 0 of a 4-bit partition: t_0(0) needs 32
        // bits, so every count of the table takes 4 bytes; one fewer row
        // keeps them at 2.
        let mut freqs = vec![0u64; 16];
        freqs[0] = 65_536;
        let wide = ExactPart::build_from_freqs(4, &freqs, 4);
        assert!(matches!(wide.counts, Counts::U32(_)));
        assert_eq!(wide.size_bytes(), 16 * 3 * 4);
        freqs[0] = 65_535;
        let narrow = ExactPart::build_from_freqs(4, &freqs, 4);
        assert!(matches!(narrow.counts, Counts::U16(_)));
        assert_eq!(narrow.size_bytes(), 16 * 3 * 2);
        assert_eq!(wide.cn(0, 4), 65_536);
        assert_eq!(wide.cn(15, 3), 0);
        assert_eq!(wide.exact_count(15, 4), 65_536);
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
