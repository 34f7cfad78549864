//! `std::arch` x86-64 kernels behind runtime detection.
//!
//! Compiled only on x86-64. Every entry point
//! checks [`available`] (AVX2 + POPCNT, detected once and cached) and
//! reports "not handled" otherwise, so callers in [`crate::distance`]
//! fall back to the portable word loops on any other hardware. The
//! portable and accelerated kernels are pinned bit-identical by the
//! property tests in `tests/kernel_properties.rs`.
//!
//! Two techniques, both standard for binary codes (compare `rupphash`'s
//! word-transmuted popcount and Faiss's `hamming.h`):
//!
//! * scalar `POPCNT`: inside a `#[target_feature(enable = "popcnt")]`
//!   function, `u64::count_ones` compiles to the hardware instruction
//!   even though the crate's baseline target lacks the feature — this is
//!   where most of the win over the portable build comes from;
//! * vector AVX2: 256-bit XOR plus the `vpshufb` nibble-LUT popcount
//!   (`popcount_words`), folding four words per lane operation, used for
//!   4-word (256-bit) rows and as the inner loop for wider rows.
//!
//! Verification kernels also software-prefetch candidate rows a fixed
//! distance ahead: posting-driven row accesses are random, so the
//! hardware stride prefetcher cannot help, but the candidate list itself
//! tells us exactly which cache lines are needed next.

use std::arch::x86_64::{
    __m256i, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256, _mm256_castsi256_si128,
    _mm256_extracti128_si256, _mm256_loadu_si256, _mm256_sad_epu8, _mm256_set1_epi8,
    _mm256_setr_epi8, _mm256_setzero_si256, _mm256_shuffle_epi8, _mm256_srli_epi16,
    _mm256_xor_si256, _mm_add_epi64, _mm_cvtsi128_si64, _mm_extract_epi64, _mm_prefetch,
    _MM_HINT_T0,
};
use std::sync::atomic::{AtomicU8, Ordering};

/// Cached runtime detection: 0 = unknown, 1 = unavailable, 2 = available.
static DETECTED: AtomicU8 = AtomicU8::new(0);

/// True when the CPU supports AVX2 and POPCNT (cached after first call).
pub(crate) fn available() -> bool {
    match DETECTED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let ok = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt");
            DETECTED.store(if ok { 2 } else { 1 }, Ordering::Relaxed);
            ok
        }
    }
}

/// How many candidates ahead the verification kernels prefetch.
const PREFETCH_AHEAD: usize = 16;

/// Per-64-bit-lane popcount of a 256-bit vector via the `vpshufb`
/// nibble lookup table, horizontally folded by `vpsadbw`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn popcount_words(v: __m256i) -> __m256i {
    #[rustfmt::skip]
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low = _mm256_set1_epi8(0x0f);
    let lo = _mm256_and_si256(v, low);
    let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low);
    let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
    _mm256_sad_epu8(cnt, _mm256_setzero_si256())
}

/// Sums the four 64-bit lanes of `v`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hsum_epi64(v: __m256i) -> u64 {
    let s = _mm_add_epi64(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
    (_mm_cvtsi128_si64(s) as u64).wrapping_add(_mm_extract_epi64::<1>(s) as u64)
}

/// Full-width Hamming distance: AVX2 over 4-word chunks, scalar POPCNT
/// tail. No early exit — at these throughputs the branchless full
/// distance beats a per-word compare for every row the batch kernels
/// feed it.
#[target_feature(enable = "avx2,popcnt")]
unsafe fn hamming_avx2(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let chunks = n / 4;
    let mut acc = _mm256_setzero_si256();
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    for c in 0..chunks {
        // SAFETY: `c * 4 + 4 <= n`, so both unaligned 32-byte loads are
        // fully inside the slices.
        let va = _mm256_loadu_si256(pa.add(c * 4).cast());
        let vb = _mm256_loadu_si256(pb.add(c * 4).cast());
        acc = _mm256_add_epi64(acc, popcount_words(_mm256_xor_si256(va, vb)));
    }
    let mut d = hsum_epi64(acc);
    for i in chunks * 4..n {
        d += u64::from((a[i] ^ b[i]).count_ones());
    }
    d as u32
}

/// Accelerated [`crate::distance::hamming`]: `Some(distance)` when the
/// kernel ran, `None` when the slice is too narrow to pay for dispatch,
/// the lengths differ (a caller bug, left to the portable loop), or the
/// CPU lacks the features.
#[inline]
pub(crate) fn hamming(a: &[u64], b: &[u64]) -> Option<u32> {
    if a.len() >= 4 && a.len() == b.len() && available() {
        // SAFETY: AVX2 + POPCNT presence was verified by `available`, and
        // the equal lengths checked above are what keeps `hamming_avx2`'s
        // loads from `b` inside it.
        Some(unsafe { hamming_avx2(a, b) })
    } else {
        None
    }
}

#[target_feature(enable = "avx2,popcnt")]
unsafe fn verify_w1(
    words: &[u64],
    q: u64,
    tau: u32,
    candidates: &[u32],
    out: &mut Vec<(u32, u32)>,
) {
    for (i, &id) in candidates.iter().enumerate() {
        if let Some(&nid) = candidates.get(i + PREFETCH_AHEAD) {
            // SAFETY: prefetch is a hint with no memory effect, and
            // `wrapping_add` keeps even an out-of-range ID (which panics
            // on its own turn below) from forming an invalid offset.
            _mm_prefetch::<_MM_HINT_T0>(words.as_ptr().wrapping_add(nid as usize).cast());
        }
        let d = (words[id as usize] ^ q).count_ones();
        if d <= tau {
            out.push((id, d));
        }
    }
}

#[target_feature(enable = "avx2,popcnt")]
unsafe fn verify_w2(
    words: &[u64],
    query: &[u64],
    tau: u32,
    candidates: &[u32],
    out: &mut Vec<(u32, u32)>,
) {
    let (q0, q1) = (query[0], query[1]);
    for (i, &id) in candidates.iter().enumerate() {
        if let Some(&nid) = candidates.get(i + PREFETCH_AHEAD) {
            // SAFETY: as in `verify_w1`.
            _mm_prefetch::<_MM_HINT_T0>(words.as_ptr().wrapping_add(nid as usize * 2).cast());
        }
        let s = id as usize * 2;
        let d = (words[s] ^ q0).count_ones() + (words[s + 1] ^ q1).count_ones();
        if d <= tau {
            out.push((id, d));
        }
    }
}

#[target_feature(enable = "avx2,popcnt")]
unsafe fn verify_w4(
    words: &[u64],
    query: &[u64],
    tau: u32,
    candidates: &[u32],
    out: &mut Vec<(u32, u32)>,
) {
    // SAFETY: the dispatcher guarantees `query.len() == 4`.
    let q = _mm256_loadu_si256(query.as_ptr().cast());
    for (i, &id) in candidates.iter().enumerate() {
        if let Some(&nid) = candidates.get(i + PREFETCH_AHEAD) {
            // SAFETY: as in `verify_w1`.
            _mm_prefetch::<_MM_HINT_T0>(words.as_ptr().wrapping_add(nid as usize * 4).cast());
        }
        let s = id as usize * 4;
        // SAFETY: the slice index bounds-checks row `id` (panicking like
        // the portable kernel on an invalid ID), so the one 32-byte load
        // is inside `words`.
        let row = _mm256_loadu_si256(words[s..s + 4].as_ptr().cast());
        let d = hsum_epi64(popcount_words(_mm256_xor_si256(row, q))) as u32;
        if d <= tau {
            out.push((id, d));
        }
    }
}

#[target_feature(enable = "avx2,popcnt")]
unsafe fn verify_generic(
    words: &[u64],
    wpv: usize,
    query: &[u64],
    tau: u32,
    candidates: &[u32],
    out: &mut Vec<(u32, u32)>,
) {
    for (i, &id) in candidates.iter().enumerate() {
        if let Some(&nid) = candidates.get(i + PREFETCH_AHEAD) {
            // SAFETY: as in `verify_w1`.
            _mm_prefetch::<_MM_HINT_T0>(words.as_ptr().wrapping_add(nid as usize * wpv).cast());
        }
        let s = id as usize * wpv;
        let d = hamming_avx2(&words[s..s + wpv], query);
        if d <= tau {
            out.push((id, d));
        }
    }
}

/// Accelerated batch verification. Returns `false` (leaving `out`
/// untouched) when the CPU lacks AVX2/POPCNT, in which case the caller
/// runs the portable kernel.
pub(crate) fn verify_candidates(
    words: &[u64],
    wpv: usize,
    query: &[u64],
    tau: u32,
    candidates: &[u32],
    out: &mut Vec<(u32, u32)>,
) -> bool {
    if !available() {
        return false;
    }
    assert_eq!(query.len(), wpv, "query width must equal the row width");
    // SAFETY: AVX2 + POPCNT presence was verified by `available`; the
    // assert above makes `query` exactly one row wide, and each kernel
    // bounds-checks the row a candidate ID addresses before loading it.
    unsafe {
        match wpv {
            1 => verify_w1(words, query[0], tau, candidates, out),
            2 => verify_w2(words, query, tau, candidates, out),
            4 => verify_w4(words, query, tau, candidates, out),
            _ => verify_generic(words, wpv, query, tau, candidates, out),
        }
    }
    true
}
