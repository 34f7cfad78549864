//! Fixed-width packed unsigned integers: the resident form of the
//! inverted index's ids and offset deltas.
//!
//! Every value of one array takes the same `width` bits, the bits of
//! its largest value (at most 32, 0 when every value is 0): a rule of
//! the data, not an option. So a partition's ids, all below the row
//! count `n`, cost `⌈log₂ n⌉` bits each instead of 32, the bit-packed
//! postings of the Lucene indexes under FENSHSES (Mu et al., PAPERS.md).
//!
//! Value `i` sits little-endian at bits `i·width .. (i + 1)·width` of a
//! byte buffer. It starts at most 7 bits into byte `i·width / 8` and so
//! ends within that byte's first 39 bits: the buffer is padded to 8
//! bytes past the last value's first byte, so one 8-byte load, a shift
//! and a mask read any value, with no second load and no `unsafe`.

use std::ops::Range;

/// An array of unsigned integers, each held at the bits of the largest.
#[derive(Clone, Debug)]
pub struct PackedInts {
    /// The values, then padding (see the module doc).
    bytes: Vec<u8>,
    len: usize,
    width: u32,
}

/// Bytes that hold `len` values of `width` bits, padding included: 8
/// past the last value's first byte, none when there is no value.
fn padded_len(len: usize, width: u32) -> usize {
    match len {
        0 => 0,
        len => (len - 1) * width as usize / 8 + 8,
    }
}

impl PackedInts {
    /// Packs `values` at the bits of the largest of them, in one
    /// streaming pass that appends 4 bytes whenever 32 bits are filled.
    pub fn new(values: &[u32]) -> PackedInts {
        let width = values.iter().max().map_or(0, |&v| u32::BITS - v.leading_zeros());
        let padded = padded_len(values.len(), width);
        let mut bytes = Vec::with_capacity(padded);
        // Fewer than 32 bits wait in `acc` before each value is added.
        let (mut acc, mut filled) = (0u64, 0u32);
        for &v in values {
            acc |= u64::from(v) << filled;
            filled += width;
            if filled >= 32 {
                bytes.extend_from_slice(&(acc as u32).to_le_bytes());
                (acc, filled) = (acc >> 32, filled - 32);
            }
        }
        bytes.extend_from_slice(&acc.to_le_bytes()[..filled.div_ceil(8) as usize]);
        bytes.resize(padded, 0);
        PackedInts { bytes, len: values.len(), width }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there is no value.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits each value is held at.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The value starting at bit `bit`: one 8-byte load.
    #[inline]
    fn load(&self, bit: usize) -> u32 {
        let word = self.bytes[bit / 8..].first_chunk::<8>().expect("padded");
        (u64::from_le_bytes(*word) >> (bit % 8) & ((1 << self.width) - 1)) as u32
    }

    /// Value `i`.
    ///
    /// # Panics
    ///
    /// If `i` is not below [`PackedInts::len`].
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        assert!(i < self.len, "value {i} of {} packed", self.len);
        self.load(i * self.width as usize)
    }

    /// The values at `range`, in order.
    ///
    /// # Panics
    ///
    /// If `range` is reversed or ends past [`PackedInts::len`].
    #[inline]
    pub fn iter(&self, range: Range<usize>) -> Iter<'_> {
        assert!(range.start <= range.end && range.end <= self.len, "{range:?} of {}", self.len);
        Iter { packed: self, range }
    }

    /// Hands `emit` the values at `range`, in order: a run decode.
    ///
    /// # Panics
    ///
    /// As [`PackedInts::iter`].
    #[inline]
    pub fn for_each(&self, range: Range<usize>, emit: impl FnMut(u32)) {
        self.iter(range).for_each(emit);
    }

    /// Heap size in bytes, padding included.
    pub fn size_bytes(&self) -> usize {
        size_of_val(&self.bytes[..])
    }
}

/// The values of a range of a [`PackedInts`], decoded as they are
/// iterated.
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    packed: &'a PackedInts,
    /// Positions still to decode.
    range: Range<usize>,
}

impl Iterator for Iter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        let i = self.range.next()?;
        Some(self.packed.load(i * self.packed.width as usize))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_and_padding_follow_the_largest_value() {
        let cases: [(&[u32], u32, usize); 6] = [
            (&[], 0, 0),
            (&[0, 0, 0], 0, 8),
            (&[1], 1, 8),
            (&[5, 255, 3], 8, 10),
            (&[0, 256], 9, 9),
            (&[u32::MAX, 0, 7], 32, 16),
        ];
        for (values, width, bytes) in cases {
            let packed = PackedInts::new(values);
            assert_eq!((packed.width(), packed.size_bytes()), (width, bytes), "{values:?}");
            assert_eq!(packed.iter(0..values.len()).collect::<Vec<_>>(), values);
        }
    }

    #[test]
    #[should_panic(expected = "value 3 of 3 packed")]
    fn a_read_past_the_end_panics_even_inside_the_padding() {
        PackedInts::new(&[1, 2, 3]).get(3);
    }
}
