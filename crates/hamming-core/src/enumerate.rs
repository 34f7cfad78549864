//! Hamming-ball enumeration ("signature generation").
//!
//! Every filter-and-refine method in the paper enumerates, for a partition
//! of the query, all values within the partition's allocated threshold —
//! the *signatures* — and probes an inverted index with each. This module
//! provides that enumeration for single-word (≤ 64 dimensions, the common
//! case) and multi-word partitions.
//!
//! **Order.** Radius 0 first, then by distance; within a distance `k`
//! the flip masks — the `k`-bit subsets of the partition's bits — come
//! in *colex* order, which for a single word is increasing numeric
//! order. The single-word walk is iterative: Gosper's step turns one
//! `k`-bit mask into the next in a handful of word operations, so a
//! signature costs one step and one XOR. The multi-word walk keeps the
//! flipped positions instead and emits the same sequence.

/// Calls `f(s)` for every single-word value `s` with `width` significant
/// bits such that `H(s, value) <= radius`.
///
/// Enumeration order is by increasing distance (radius 0 first), matching
/// the description in §II-C, and within a distance by increasing flip
/// mask `s ^ value`. `value` must have no bits set at or above `width`.
/// The number of calls is `Σ_{k<=radius} C(width, k)`.
pub fn for_each_in_ball_u64<F: FnMut(u64)>(value: u64, width: usize, radius: usize, mut f: F) {
    debug_assert!(width <= 64);
    debug_assert!(width == 64 || value >> width == 0, "value has bits above width");
    f(value);
    for k in 1..=radius.min(width) {
        for_each_flip(width, k, |m| f(value ^ m));
    }
}

/// Calls `f(m)` for every `k`-bit subset `m` of the low `width` bits,
/// `1 <= k <= width <= 64`, in increasing numeric order.
#[inline]
fn for_each_flip(width: usize, k: usize, mut f: impl FnMut(u64)) {
    // The first subset is the low `k` bits, the last the top `k`.
    let mut m = u64::MAX >> (64 - k);
    let last = m << (width - k);
    loop {
        f(m);
        if m == last {
            return;
        }
        // Gosper's step: carry the lowest run of ones one place up and
        // drop the rest of the run back to the bottom. `m` is not the
        // last subset, so its lowest run ends below bit 63 and `m + c`
        // cannot overflow; the shift is split so that neither half
        // reaches 64.
        let c = m & m.wrapping_neg();
        let r = m + c;
        m = ((r ^ m) >> 2 >> c.trailing_zeros()) | r;
    }
}

/// Calls `f(words)` for every multi-word value with `width` significant
/// bits within `radius` of `value`, in the order of
/// [`for_each_in_ball_u64`]. `value.len()` must equal
/// `crate::words_for(width)`.
///
/// The buffer passed to `f` is reused between calls; callers must copy it
/// if they need to retain it (index probing hashes it immediately, so the
/// hot path never copies).
pub fn for_each_in_ball_words<F: FnMut(&[u64])>(
    value: &[u64],
    width: usize,
    radius: usize,
    mut f: F,
) {
    debug_assert_eq!(value.len(), crate::words_for(width));
    let mut buf = value.to_vec();
    f(&buf);
    let flip = |buf: &mut [u64], p: usize| buf[p / 64] ^= 1u64 << (p % 64);
    // `pos[0] < pos[1] < … < pos[k − 1]`: the flipped bits.
    let mut pos = Vec::with_capacity(radius.min(width));
    for k in 1..=radius.min(width) {
        pos.clear();
        pos.extend(0..k);
        pos.iter().for_each(|&p| flip(&mut buf, p));
        loop {
            f(&buf);
            // The colex successor moves up the lowest position that has
            // room above it and resets the ones below it to the bottom.
            let Some(i) = (0..k).find(|&i| pos[i] + 1 < pos.get(i + 1).map_or(width, |&p| p))
            else {
                break;
            };
            pos[..=i].iter().for_each(|&p| flip(&mut buf, p));
            pos[i] += 1;
            for (j, p) in pos[..i].iter_mut().enumerate() {
                *p = j;
            }
            pos[..=i].iter().for_each(|&p| flip(&mut buf, p));
        }
        pos.iter().for_each(|&p| flip(&mut buf, p));
    }
}

/// Number of signatures enumerated for a `(width, radius)` pair:
/// `Σ_{k=0}^{radius} C(width, k)`, saturating at `u64::MAX`.
///
/// Accumulation is done in `u128` so the result is *exact* for every sum
/// that fits in a `u64` — the previous u64 evaluation wrapped its
/// intermediate product near `width = 64` (e.g. `C(64, 31) * 34`
/// overflows even though `ball_size(64, 32)` is representable) and the
/// full-width ball `Σ C(64, k) = 2^64` must saturate, not wrap, or the
/// scan-vs-enumerate crossover in `Gph::search_with_stats` would pick
/// enumeration for the most expensive balls.
pub fn ball_size(width: usize, radius: usize) -> u64 {
    let mut total: u128 = 1; // k = 0
    let mut c: u128 = 1;
    for k in 1..=radius.min(width) {
        // c = C(width, k) built incrementally; the product is always
        // divisible by k, so the division is exact. `c <= total` held at
        // the previous check, so `c * width` stays far below u128::MAX.
        c = c * (width - k + 1) as u128 / k as u128;
        total += c;
        if total > u64::MAX as u128 {
            return u64::MAX;
        }
    }
    total as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn collect_u64(value: u64, width: usize, radius: usize) -> Vec<u64> {
        let mut out = Vec::new();
        for_each_in_ball_u64(value, width, radius, |v| out.push(v));
        out
    }

    #[test]
    fn radius_zero_is_identity() {
        assert_eq!(collect_u64(0b101, 3, 0), vec![0b101]);
    }

    #[test]
    fn counts_match_ball_size() {
        for width in [1usize, 3, 8, 12] {
            for radius in 0..=width {
                let got = collect_u64(0, width, radius);
                assert_eq!(got.len() as u64, ball_size(width, radius), "w={width} r={radius}");
                // All distinct, all within radius, all within width.
                let set: HashSet<u64> = got.iter().copied().collect();
                assert_eq!(set.len(), got.len());
                for v in got {
                    assert!(v.count_ones() as usize <= radius);
                    assert!(width == 64 || v >> width == 0);
                }
            }
        }
    }

    #[test]
    fn ball_is_centered_on_value() {
        let center = 0b0110_1001u64;
        for v in collect_u64(center, 8, 2) {
            assert!((v ^ center).count_ones() <= 2);
        }
        assert_eq!(collect_u64(center, 8, 8).len(), 256);
    }

    #[test]
    fn multiword_matches_singleword_when_narrow() {
        let center = 0x0F0Fu64;
        let mut multi = Vec::new();
        for_each_in_ball_words(&[center], 16, 2, |w| multi.push(w[0]));
        let single = collect_u64(center, 16, 2);
        assert_eq!(multi, single);
    }

    #[test]
    fn multiword_wide_partition() {
        // 70-bit value: ball of radius 1 has 71 members.
        let value = vec![u64::MAX, 0x3F]; // all 70 bits set
        let mut seen = HashSet::new();
        for_each_in_ball_words(&value, 70, 1, |w| {
            assert!(seen.insert(w.to_vec()));
        });
        assert_eq!(seen.len(), 71);
        // Flipping bit 69 must appear.
        assert!(seen.contains(&vec![u64::MAX, 0x3F ^ (1 << 5)]));
    }

    #[test]
    fn flips_reach_the_top_of_a_full_word() {
        // At width 64 the last subsets touch bit 63, where `m + c` would
        // overflow if the walk stepped past them.
        let walk = |k| {
            let mut out = Vec::new();
            for_each_flip(64, k, |m| out.push(m));
            out
        };
        assert_eq!(walk(64), [u64::MAX]);
        let all_but_one: Vec<u64> = (0..64).rev().map(|b| !(1u64 << b)).collect();
        assert_eq!(walk(63), all_but_one);
        assert_eq!(walk(1), (0..64).map(|b| 1u64 << b).collect::<Vec<_>>());
    }

    #[test]
    fn ball_size_saturates() {
        assert_eq!(ball_size(500, 250), u64::MAX);
        assert_eq!(ball_size(8, 100), 256);
        assert_eq!(ball_size(0, 0), 1);
    }

    #[test]
    fn ball_size_width_64_near_full_radius() {
        // Σ_{k=0}^{64} C(64, k) = 2^64: one past u64::MAX, must saturate.
        assert_eq!(ball_size(64, 64), u64::MAX);
        // Σ_{k=0}^{63} C(64, k) = 2^64 − 1 = u64::MAX exactly (no wrap).
        assert_eq!(ball_size(64, 63), u64::MAX);
        // Representable mid-radius values are exact, not prematurely
        // saturated: Σ_{k=0}^{32} C(64, k) = 2^63 + C(64, 32)/2.
        let c64_32: u128 = 1_832_624_140_942_590_534;
        assert_eq!(ball_size(64, 32) as u128, (1u128 << 63) + c64_32 / 2);
        // Saturation is monotone in the radius: once saturated, larger
        // radii stay saturated, and below it the count strictly grows.
        let mut prev = 0u64;
        for r in 0..=64 {
            let b = ball_size(64, r);
            assert!(b > prev || (b == u64::MAX && prev == u64::MAX), "r={r}");
            prev = b;
        }
    }

    #[test]
    fn enumeration_is_distance_ordered() {
        let got = collect_u64(0, 6, 3);
        let mut last = 0;
        for v in got {
            let d = v.count_ones();
            assert!(d >= last, "distance fell from {last} to {d}");
            last = d;
        }
        assert_eq!(last, 3);
    }
}
