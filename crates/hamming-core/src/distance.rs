//! Popcount-based Hamming distance kernels.
//!
//! These operate on raw word slices so that [`crate::Dataset`] rows and
//! [`crate::project::ProjectedDataset`] columns can be compared without
//! materializing [`crate::BitVector`] values.
//!
//! Three tiers serve the query hot path:
//!
//! * scalar kernels ([`hamming`], [`hamming_within`]) for one-off
//!   distances;
//! * the **batched verification kernel** ([`verify_candidates`]), which
//!   streams a candidate ID list against a flat row slab in one pass and
//!   hands back each accepted ID with its exact distance, so no caller
//!   measures a verified row twice; the common 1/2/4-word row widths
//!   (64/128/256-bit codes) are specialized so they avoid the generic
//!   slice loop entirely;
//! * on x86-64, `std::arch` AVX2/POPCNT kernels (the crate-private
//!   `simd` module) behind runtime detection, falling back to the
//!   portable word loop on any other hardware — results are
//!   bit-identical by property test.

/// Hamming distance between two equal-length word slices.
///
/// Both slices must follow the trailing-zero invariant (bits beyond the
/// logical dimensionality are zero), which every type in this crate
/// maintains. On x86-64, wide slices dispatch to the AVX2 kernel when
/// the CPU supports it.
#[inline]
pub fn hamming(a: &[u64], b: &[u64]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(d) = crate::simd::hamming(a, b) {
        return d;
    }
    hamming_portable(a, b)
}

/// The portable word-loop Hamming distance — the reference every
/// accelerated kernel is property-tested against.
#[inline]
pub fn hamming_portable(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    let mut d = 0u32;
    for (&x, &y) in a.iter().zip(b.iter()) {
        d += (x ^ y).count_ones();
    }
    d
}

/// Early-exit Hamming distance: returns `Some(distance)` if it is `<= tau`,
/// `None` as soon as the running distance exceeds `tau`.
///
/// This is the one-off verification kernel (`C_verify` in the paper's
/// cost model): most candidates fail verification, so aborting early on
/// wide vectors (e.g. PubChem's 881 dimensions = 14 words) saves most of
/// the popcounts. Batch workloads should prefer [`verify_candidates`],
/// which amortizes the per-call overhead across a whole candidate list.
#[inline]
pub fn hamming_within(a: &[u64], b: &[u64], tau: u32) -> Option<u32> {
    debug_assert_eq!(a.len(), b.len());
    let mut d = 0u32;
    for (&x, &y) in a.iter().zip(b.iter()) {
        d += (x ^ y).count_ones();
        if d > tau {
            return None;
        }
    }
    Some(d)
}

/// Hamming distance between two single-word values (partitions of up to 64
/// dimensions project to one word — the common case for every algorithm in
/// the paper).
#[inline]
pub fn hamming1(a: u64, b: u64) -> u32 {
    (a ^ b).count_ones()
}

// ---------------------------------------------------------------------
// Batched candidate verification
// ---------------------------------------------------------------------

/// Fixed-width 2-word distance (128-bit codes), branchless.
#[inline(always)]
fn dist2(a: &[u64], b: &[u64]) -> u32 {
    (a[0] ^ b[0]).count_ones() + (a[1] ^ b[1]).count_ones()
}

/// Fixed-width 4-word distance (256-bit codes), branchless.
#[inline(always)]
fn dist4(a: &[u64], b: &[u64]) -> u32 {
    (a[0] ^ b[0]).count_ones()
        + (a[1] ^ b[1]).count_ones()
        + (a[2] ^ b[2]).count_ones()
        + (a[3] ^ b[3]).count_ones()
}

/// Streams `candidates` against the flat row slab `words` (row `id`
/// occupies `words[id * wpv .. (id + 1) * wpv]`), appending
/// `(id, distance)` for every ID within Hamming distance `tau` of
/// `query` to `out` in input order.
///
/// This is the batch form of phase-4 verification: one pass over the
/// candidate list, no per-candidate call or bounds-check overhead, with
/// the 1/2/4-word row widths fully unrolled (branchless distance, one
/// compare per row) and the generic width falling back to an early-exit
/// word loop. Verifying a row measures it, so the exact distance of
/// every accepted row comes out with its ID. On an x86-64 CPU with AVX2
/// and POPCNT the whole batch runs on the `std::arch` kernels instead;
/// output is identical.
///
/// Panics if `query.len() != wpv` or a candidate ID is not a valid row
/// index.
pub fn verify_candidates(
    words: &[u64],
    wpv: usize,
    query: &[u64],
    tau: u32,
    candidates: &[u32],
    out: &mut Vec<(u32, u32)>,
) {
    assert_eq!(query.len(), wpv, "query width must equal the row width");
    if wpv == 0 {
        // Zero-width rows are all at distance 0.
        out.extend(candidates.iter().map(|&id| (id, 0)));
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if crate::simd::verify_candidates(words, wpv, query, tau, candidates, out) {
        return;
    }
    verify_candidates_portable(words, wpv, query, tau, candidates, out);
}

/// The portable batched verifier (see [`verify_candidates`]); the
/// reference the SIMD batch kernel is property-tested against.
pub fn verify_candidates_portable(
    words: &[u64],
    wpv: usize,
    query: &[u64],
    tau: u32,
    candidates: &[u32],
    out: &mut Vec<(u32, u32)>,
) {
    match wpv {
        0 => out.extend(candidates.iter().map(|&id| (id, 0))),
        1 => {
            let q = query[0];
            for &id in candidates {
                let d = (words[id as usize] ^ q).count_ones();
                if d <= tau {
                    out.push((id, d));
                }
            }
        }
        2 => {
            for &id in candidates {
                let row = &words[id as usize * 2..id as usize * 2 + 2];
                let d = dist2(row, query);
                if d <= tau {
                    out.push((id, d));
                }
            }
        }
        4 => {
            for &id in candidates {
                let row = &words[id as usize * 4..id as usize * 4 + 4];
                let d = dist4(row, query);
                if d <= tau {
                    out.push((id, d));
                }
            }
        }
        _ => {
            for &id in candidates {
                let s = id as usize * wpv;
                if let Some(d) = hamming_within(&words[s..s + wpv], query, tau) {
                    out.push((id, d));
                }
            }
        }
    }
}

/// Whether the accelerated `std::arch` kernels are compiled in (x86-64)
/// **and** usable on this CPU; `false` means every call takes the
/// portable loops.
pub fn simd_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        crate::simd::available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Tanimoto (Jaccard) similarity of two bit vectors:
/// `|x ∧ y| / |x ∨ y|` — the cheminformatics similarity the paper's §I
/// reduces to Hamming search. Returns 1.0 for two empty vectors.
pub fn tanimoto(a: &[u64], b: &[u64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut inter = 0u32;
    let mut union = 0u32;
    for (&x, &y) in a.iter().zip(b) {
        inter += (x & y).count_ones();
        union += (x | y).count_ones();
    }
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Hamming threshold equivalent to a Tanimoto threshold `t` for a query
/// of weight `w_q` (per \[43\]): with `a = |x|`, `b = |y|`,
/// `c = |x ∧ y|`, `T ≥ t` forces `b ≤ a/t` and
/// `H = a + b − 2c ≤ (1 − t)/(1 + t) · (a + b)`, so
/// `τ = ⌊(1 − t)/(1 + t) · (a + a/t)⌋` suffices. Candidates within τ are
/// then verified with the exact [`tanimoto`]. `t` must be in `(0, 1]`.
pub fn tanimoto_to_hamming_bound(w_q: u32, t: f64) -> u32 {
    assert!(t > 0.0 && t <= 1.0, "Tanimoto threshold must be in (0, 1]");
    let a = w_q as f64;
    ((1.0 - t) / (1.0 + t) * (a + a / t)).floor() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hamming_basic() {
        assert_eq!(hamming(&[0b1010], &[0b0110]), 2);
        assert_eq!(hamming(&[u64::MAX, 0], &[0, 0]), 64);
        assert_eq!(hamming(&[], &[]), 0);
    }

    #[test]
    fn within_matches_full_distance() {
        let a = [0xDEAD_BEEF_u64, 0x1234_5678];
        let b = [0xFEED_FACE_u64, 0x8765_4321];
        let d = hamming(&a, &b);
        assert_eq!(hamming_within(&a, &b, d), Some(d));
        assert_eq!(hamming_within(&a, &b, d + 1), Some(d));
        assert_eq!(hamming_within(&a, &b, d - 1), None);
    }

    #[test]
    fn within_early_exit_on_first_word() {
        // First word alone exceeds tau; the answer must still be None.
        let a = [u64::MAX, 0];
        let b = [0u64, 0];
        assert_eq!(hamming_within(&a, &b, 10), None);
    }

    #[test]
    fn within_exact_boundary() {
        // d == tau is a hit (the predicate is <=, not <), at every width.
        for w in [1usize, 2, 3, 4, 7] {
            let a = vec![0u64; w];
            let mut b = vec![0u64; w];
            b[w - 1] = 0b111; // distance exactly 3, in the last word
            assert_eq!(hamming_within(&a, &b, 3), Some(3), "w={w}");
            assert_eq!(hamming_within(&a, &b, 2), None, "w={w}");
        }
    }

    #[test]
    fn empty_slices_are_distance_zero() {
        assert_eq!(hamming(&[], &[]), 0);
        assert_eq!(hamming_portable(&[], &[]), 0);
        assert_eq!(hamming_within(&[], &[], 0), Some(0));
        let mut out = Vec::new();
        verify_candidates(&[], 0, &[], 0, &[0, 1, 2], &mut out);
        assert_eq!(out, vec![(0, 0), (1, 0), (2, 0)]);
    }

    #[test]
    fn single_word_kernel() {
        assert_eq!(hamming1(0, u64::MAX), 64);
        assert_eq!(hamming1(0b11, 0b10), 1);
    }

    #[test]
    fn batch_verify_matches_scalar_at_every_width() {
        // Deterministic pseudo-random slab; widths cover the specialized
        // fast paths (1, 2, 4) and the generic loop (3, 5).
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for wpv in [1usize, 2, 3, 4, 5] {
            let n = 257;
            let words: Vec<u64> = (0..n * wpv).map(|_| next()).collect();
            let query: Vec<u64> = (0..wpv).map(|_| next()).collect();
            let candidates: Vec<u32> = (0..n as u32).rev().collect();
            for tau in [0u32, 3, 31, 64 * wpv as u32] {
                let expect: Vec<(u32, u32)> = candidates
                    .iter()
                    .filter_map(|&id| {
                        let s = id as usize * wpv;
                        hamming_within(&words[s..s + wpv], &query, tau).map(|d| (id, d))
                    })
                    .collect();
                let mut got = Vec::new();
                verify_candidates(&words, wpv, &query, tau, &candidates, &mut got);
                assert_eq!(got, expect, "wpv={wpv} tau={tau}");
                let mut portable = Vec::new();
                verify_candidates_portable(&words, wpv, &query, tau, &candidates, &mut portable);
                assert_eq!(portable, expect, "portable wpv={wpv} tau={tau}");
            }
        }
    }

    #[test]
    fn batch_verify_empty_candidates() {
        let mut out = Vec::new();
        verify_candidates(&[0u64; 8], 2, &[0, 0], 5, &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn tanimoto_known_values() {
        assert_eq!(tanimoto(&[0b1100], &[0b1010]), 1.0 / 3.0);
        assert_eq!(tanimoto(&[0b11], &[0b11]), 1.0);
        assert_eq!(tanimoto(&[0], &[0]), 1.0);
        assert_eq!(tanimoto(&[0b1], &[0b10]), 0.0);
    }

    #[test]
    fn tanimoto_bound_is_safe() {
        // Any pair with T >= t must fall within the Hamming bound.
        // Exhaustive check over small vectors.
        for a_bits in 0u64..32 {
            for b_bits in 0u64..32 {
                let (a, b) = ([a_bits], [b_bits]);
                let t = 0.5;
                if tanimoto(&a, &b) >= t {
                    let tau = tanimoto_to_hamming_bound(a_bits.count_ones(), t);
                    assert!(
                        hamming(&a, &b) <= tau,
                        "a={a_bits:b} b={b_bits:b} H={} tau={tau}",
                        hamming(&a, &b)
                    );
                }
            }
        }
    }

    #[test]
    fn tanimoto_bound_tightens_with_t() {
        assert!(tanimoto_to_hamming_bound(100, 0.9) < tanimoto_to_hamming_bound(100, 0.5));
        assert_eq!(tanimoto_to_hamming_bound(100, 1.0), 0);
    }
}
