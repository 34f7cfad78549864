//! Property tests pinning every distance/verification kernel to the
//! portable reference loop.
//!
//! There is one build. On x86-64 it contains both paths: [`hamming`]
//! and [`verify_candidates`] dispatch at run time to the `std::arch`
//! AVX2/POPCNT kernels when the CPU has them, so these properties pin
//! the accelerated paths **bit-identical** to [`hamming_portable`] /
//! [`verify_candidates_portable`] over random widths — including the
//! specialized 1/2/4-word row paths and the generic fallback — and
//! both to the naive definition. On any other target or CPU the
//! dispatching entry points *are* the portable loops;
//! `simd_report_matches_compile_config` pins which case a build is in.

use hamming_core::distance::{
    hamming, hamming_portable, hamming_within, verify_candidates, verify_candidates_portable,
};
use proptest::prelude::*;

/// The definitional Hamming distance, written as naively as possible.
fn naive_hamming(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b).map(|(&x, &y)| (x ^ y).count_ones()).sum()
}

proptest! {
    /// `hamming` (whatever kernel it dispatches to) equals the naive
    /// definition over random word widths, including widths around the
    /// SIMD chunk boundary (0..=12 covers tails of every length).
    #[test]
    fn hamming_matches_naive(
        pairs in prop::collection::vec((any::<u64>(), any::<u64>()), 0..12)
    ) {
        let a: Vec<u64> = pairs.iter().map(|p| p.0).collect();
        let b: Vec<u64> = pairs.iter().map(|p| p.1).collect();
        let expect = naive_hamming(&a, &b);
        prop_assert_eq!(hamming(&a, &b), expect);
        prop_assert_eq!(hamming_portable(&a, &b), expect);
    }

    /// `hamming_within` agrees with the full distance at, below, and
    /// above the threshold — in particular at `d == tau` exactly.
    #[test]
    fn hamming_within_boundary_is_exact(
        pairs in prop::collection::vec((any::<u64>(), any::<u64>()), 1..10)
    ) {
        let a: Vec<u64> = pairs.iter().map(|p| p.0).collect();
        let b: Vec<u64> = pairs.iter().map(|p| p.1).collect();
        let d = naive_hamming(&a, &b);
        prop_assert_eq!(hamming_within(&a, &b, d), Some(d));
        prop_assert_eq!(hamming_within(&a, &b, d + 1), Some(d));
        if d > 0 {
            prop_assert_eq!(hamming_within(&a, &b, d - 1), None);
        }
    }

    /// The batched verifier (dispatched and portable) returns exactly
    /// the candidates the scalar early-exit kernel accepts, in input
    /// order, each paired with its naive distance, over random slabs,
    /// widths, thresholds, and candidate lists (with repeats and in
    /// arbitrary order).
    #[test]
    fn batch_verify_matches_scalar_reference(
        wpv in 1usize..6,
        n_rows in 1usize..50,
        tau in 0u32..80,
        seed in any::<u64>(),
        cand_seed in any::<u64>(),
    ) {
        // Deterministic slab from the seed (xorshift).
        let mut s = seed | 1;
        let mut next = move || { s ^= s << 13; s ^= s >> 7; s ^= s << 17; s };
        let words: Vec<u64> = (0..n_rows * wpv).map(|_| next()).collect();
        let query: Vec<u64> = (0..wpv).map(|_| next()).collect();
        let mut c = cand_seed | 1;
        let mut cnext = move || { c ^= c << 13; c ^= c >> 7; c ^= c << 17; c };
        let candidates: Vec<u32> =
            (0..n_rows * 2).map(|_| (cnext() % n_rows as u64) as u32).collect();

        let expect: Vec<(u32, u32)> = candidates
            .iter()
            .filter_map(|&id| {
                let row = &words[id as usize * wpv..(id as usize + 1) * wpv];
                hamming_within(row, &query, tau).is_some().then(|| (id, naive_hamming(row, &query)))
            })
            .collect();
        let mut got = Vec::new();
        verify_candidates(&words, wpv, &query, tau, &candidates, &mut got);
        prop_assert_eq!(&got, &expect);
        let mut portable = Vec::new();
        verify_candidates_portable(&words, wpv, &query, tau, &candidates, &mut portable);
        prop_assert_eq!(&portable, &expect);
    }
}

#[test]
fn empty_slices_and_empty_candidates() {
    assert_eq!(hamming(&[], &[]), 0);
    assert_eq!(hamming_within(&[], &[], 0), Some(0));
    let mut out = Vec::new();
    verify_candidates(&[1, 2, 3, 4], 2, &[0, 0], 128, &[], &mut out);
    assert!(out.is_empty());
}

/// Bad arguments from safe code end in a panic on every kernel, never in
/// an out-of-bounds read: an ID past the slab (at each specialized width
/// and the generic one) and a query narrower than the rows.
#[test]
fn invalid_ids_and_short_queries_panic_on_every_width() {
    for wpv in 1usize..=5 {
        let words = vec![0u64; 3 * wpv];
        let query = vec![0u64; wpv];
        let past_the_slab = std::panic::catch_unwind(|| {
            verify_candidates(&words, wpv, &query, 64, &[0, 3], &mut Vec::new())
        });
        assert!(past_the_slab.is_err(), "wpv={wpv}: id 3 of 3 rows must panic");
        let short_query = std::panic::catch_unwind(|| {
            verify_candidates(&words, wpv, &query[1..], 64, &[0], &mut Vec::new())
        });
        assert!(short_query.is_err(), "wpv={wpv}: a {}-word query must panic", wpv - 1);
    }
}

/// `simd_active()` is exactly "x86-64 build on an AVX2 + POPCNT CPU": a
/// build that silently stops compiling (or selecting) the kernels fails
/// here instead of passing the equality properties above vacuously.
#[test]
fn simd_report_matches_compile_config() {
    let active = hamming_core::distance::simd_active();
    #[cfg(target_arch = "x86_64")]
    let expect = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt");
    #[cfg(not(target_arch = "x86_64"))]
    let expect = false;
    assert_eq!(active, expect);
}
