//! Property tests pinning [`PackedInts`] to a plain `Vec<u32>`: at every
//! width from 0 to 32 bits and every length from 0 to 130 values (two
//! blocks of 64 and a tail), with both ends of the width's range among
//! the values, every `get`, every `iter` and every `for_each` run hands
//! out what the vector holds, and the array takes the bits of its
//! largest value in the bytes its padding rule gives.

use hamming_core::PackedInts;
use proptest::prelude::*;

/// All-ones over the low `width` bits.
fn top(width: u32) -> u32 {
    u32::MAX.checked_shr(32 - width).unwrap_or(0)
}

/// Xorshift stream; `seed | 1` keeps it off the zero fixed point.
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// `len` values of at most `width` bits: `2^width − 1` and 0 first
/// (where they fit), then a stream masked to the width.
fn values(width: u32, len: usize, seed: u64) -> Vec<u32> {
    let mut next = stream(seed);
    [top(width), 0]
        .into_iter()
        .chain(std::iter::repeat_with(|| next() as u32 & top(width)))
        .take(len)
        .collect()
}

/// The values of `packed` at `range` by `for_each`.
fn run(packed: &PackedInts, range: std::ops::Range<usize>) -> Vec<u32> {
    let mut out = Vec::new();
    packed.for_each(range, |v| out.push(v));
    out
}

/// Checks `packed` against `expect`: its width and bytes, every `get`,
/// and `iter`/`for_each` over every prefix and every suffix, so every
/// start and every end of a run, at every bit offset the width meets.
fn check(packed: &PackedInts, expect: &[u32]) -> Result<(), TestCaseError> {
    let len = expect.len();
    let width = expect.iter().max().map_or(0, |&v| 32 - v.leading_zeros());
    prop_assert_eq!(packed.len(), len);
    prop_assert_eq!(packed.width(), width);
    let bytes = if len == 0 { 0 } else { (len - 1) * width as usize / 8 + 8 };
    prop_assert_eq!(packed.size_bytes(), bytes);
    for (i, &v) in expect.iter().enumerate() {
        prop_assert_eq!(packed.get(i), v, "get {}", i);
    }
    for cut in 0..=len {
        prop_assert_eq!(run(packed, 0..cut), &expect[..cut], "for_each 0..{}", cut);
        prop_assert_eq!(run(packed, cut..len), &expect[cut..], "for_each {}..{}", cut, len);
        prop_assert_eq!(packed.iter(cut..len).len(), len - cut);
        prop_assert_eq!(packed.iter(cut..len).collect::<Vec<_>>(), &expect[cut..]);
    }
    Ok(())
}

#[test]
fn every_width_and_length_reads_back_what_went_in() {
    for width in 0..=32 {
        for len in 0..=130 {
            let expect = values(width, len, u64::from(width) << 8 | len as u64);
            check(&PackedInts::new(&expect), &expect).unwrap();
        }
        // Every run of the longest array: each start against each end.
        let expect = values(width, 130, !u64::from(width));
        let packed = PackedInts::new(&expect);
        for start in 0..=130 {
            for end in start..=130 {
                assert_eq!(run(&packed, start..end), &expect[start..end], "width {width}");
            }
        }
    }
}

#[test]
#[should_panic(expected = "of 3")]
fn a_run_past_the_end_panics() {
    PackedInts::new(&[1, 2, 3]).for_each(1..4, |_| {});
}

proptest! {
    /// Arbitrary values at any width up to 32 bits, at lengths past a
    /// few blocks, read back through any run.
    #[test]
    fn arbitrary_values_read_back_through_any_run(
        width in 0u32..=32,
        raw in prop::collection::vec(any::<u32>(), 0..300),
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let expect: Vec<u32> = raw.iter().map(|&v| v & top(width)).collect();
        let packed = PackedInts::new(&expect);
        check(&packed, &expect)?;
        let cuts = expect.len() as u64 + 1;
        let (a, b) = ((a % cuts) as usize, (b % cuts) as usize);
        let range = a.min(b)..a.max(b);
        prop_assert_eq!(run(&packed, range.clone()), &expect[range]);
    }
}
