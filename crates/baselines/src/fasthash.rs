//! A fast `u64` hasher for the deletion-variant postings maps.
//!
//! Signature keys are already well-mixed (or identity) `u64` values; the
//! default SipHash is needless overhead on the lookup path of
//! HmSearch and PartAlloc. `FastMap` finalizes with splitmix64,
//! which is ample for hash-table bucketing and immune to the degenerate
//! identity-key clustering that `HashMap<u64, _, Identity>` would suffer
//! on low-entropy signatures.

use hamming_core::key::mix64;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher state: accumulates the written words, finalizes with splitmix64.
#[derive(Default)]
pub(crate) struct Mix64Hasher(u64);

impl Hasher for Mix64Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.0)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (rarely hit: keys here are u64/u32).
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.0 = mix64(self.0 ^ u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = self.0.rotate_left(29) ^ v;
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `HashMap` keyed by pre-mixed integers.
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<Mix64Hasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i * 64, i as u32); // low-entropy keys
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&640], 10);
    }

    #[test]
    fn hasher_differs_on_close_keys() {
        let h = |v: u64| {
            let mut hh = Mix64Hasher::default();
            hh.write_u64(v);
            hh.finish()
        };
        assert_ne!(h(1), h(2));
        assert_ne!(h(0), h(64));
    }
}
