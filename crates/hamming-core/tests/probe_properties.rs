//! Property tests pinning the direct-addressed probe
//! ([`InvertedIndex::postings`]: prefix directory, then a search inside
//! one bucket) to a search of the whole sorted key array, and the CSR
//! arrays an index exports — what a snapshot stores — to their
//! definition, so the directory can change how a key is found but never
//! what is found or what is written. Keys of partitions at most 32 bits
//! wide are held in 4 bytes, wider ones in 8: both sides of that line
//! answer and export alike.

use hamming_core::invindex::{for_each_posting_within, PartIndex};
use hamming_core::key::key_of;
use hamming_core::{BitVector, Dataset, InvertedIndex, Partitioning, ProjectedDataset, Projector};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One partition's `(width, keys, offsets, ids)`.
type CsrPart = (usize, Vec<u64>, Vec<u32>, Vec<u32>);

fn export(idx: &InvertedIndex) -> Vec<CsrPart> {
    (0..idx.num_parts())
        .map(|p| {
            (
                idx.part_width(p),
                idx.part_keys(p).iter().collect(),
                idx.part_offsets(p).to_vec(),
                idx.part_ids(p).to_vec(),
            )
        })
        .collect()
}

/// The canonical CSR layout by definition: distinct keys ascending, a
/// prefix sum of their posting counts, row ids ascending under each key.
fn canonical_csr(width: usize, key_of_row: &[u64]) -> CsrPart {
    let mut postings: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    for (id, &k) in key_of_row.iter().enumerate() {
        postings.entry(k).or_default().push(id as u32);
    }
    let mut offsets = vec![0u32];
    for ids in postings.values() {
        offsets.push(offsets.last().unwrap() + ids.len() as u32);
    }
    let keys = postings.keys().copied().collect();
    (width, keys, offsets, postings.into_values().flatten().collect())
}

/// The lookup the directory replaced: a search of the whole key array.
fn whole_array_search(idx: &InvertedIndex, p: usize, key: u64) -> &[u32] {
    let keys: Vec<u64> = idx.part_keys(p).iter().collect();
    match keys.binary_search(&key) {
        Ok(s) => {
            let offsets = idx.part_offsets(p);
            &idx.part_ids(p)[offsets[s] as usize..offsets[s + 1] as usize]
        }
        Err(_) => &[],
    }
}

/// All-ones over the low `bits` bits.
fn mask(bits: usize) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1 << bits) - 1
    }
}

/// Checks `postings` against [`whole_array_search`] on every stored
/// key, each of its 64 one-bit neighbours (flips above a narrow
/// partition's width leave its domain), the domain's two ends, and keys
/// outside the domain.
fn check_every_probe(idx: &InvertedIndex) -> Result<(), TestCaseError> {
    for p in 0..idx.num_parts() {
        let top = mask(idx.part_width(p));
        let mut probes = vec![0, top, top.wrapping_add(1), u64::MAX, 1 << 63];
        for k in idx.part_keys(p).iter() {
            probes.push(k);
            probes.extend((0..64).map(|bit| k ^ (1 << bit)));
        }
        for key in probes {
            prop_assert_eq!(
                idx.postings(p, key),
                whole_array_search(idx, p, key),
                "part {} key {:#x}",
                p,
                key
            );
        }
        let stored: usize = idx.part_keys(p).iter().map(|k| idx.postings(p, k).len()).sum();
        prop_assert_eq!(stored, idx.len(), "part {} postings do not cover every row", p);
    }
    Ok(())
}

/// How a corpus spreads its keys over the directory's buckets.
#[derive(Clone, Copy, Debug)]
enum Spread {
    /// Keys uniform over the domain: about eight per bucket.
    Uniform,
    /// Every key shares its top bits: one bucket holds them all and the
    /// lookup degrades to the whole-array search.
    SharedTop,
    /// Keys spaced evenly from the top bit down: as many non-empty
    /// buckets as the directory can have.
    DistinctTop,
}

fn spreads() -> impl Strategy<Value = Spread> {
    (0usize..3).prop_map(|s| [Spread::Uniform, Spread::SharedTop, Spread::DistinctTop][s])
}

/// Row counts 0, 1, and log-uniformly up to a few thousand.
fn row_counts() -> impl Strategy<Value = usize> {
    (0u32..13, any::<u64>()).prop_map(|(e, r)| (r % (1u64 << e)) as usize)
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

/// One `bits`-bit key per row, drawn with repeats from a pool shaped by
/// `spread`, so keys carry postings lists of mixed lengths.
fn keys_for_rows(bits: usize, rows: usize, spread: Spread, seed: u64) -> Vec<u64> {
    let mut next = stream(seed);
    let pool_len = (next() as usize % rows.max(1)) + 1;
    // Bits needed to number the pool, capped by what a key has.
    let index_bits = (usize::BITS - pool_len.leading_zeros()).min(bits as u32) as usize;
    let shared = next();
    let pool: Vec<u64> = (0..pool_len as u64)
        .map(|i| {
            let low = mask(bits - index_bits);
            match spread {
                Spread::Uniform => next() & mask(bits),
                Spread::SharedTop => {
                    ((shared & !mask(index_bits)) | (next() & mask(index_bits))) & mask(bits)
                }
                Spread::DistinctTop => {
                    ((i & mask(index_bits)) << (bits - index_bits)) | (next() & low)
                }
            }
        })
        .collect();
    (0..rows).map(|_| pool[next() as usize % pool_len]).collect()
}

proptest! {
    /// Over arbitrary key sets — including hashed (64-bit) keys of
    /// partitions wider than a word, which only `from_csr` can shape —
    /// the directory finds exactly what a whole-array search finds.
    #[test]
    fn directory_lookup_equals_whole_array_search(
        width in 1usize..=100,
        rows in row_counts(),
        spread in spreads(),
        seed in any::<u64>(),
    ) {
        let keys = keys_for_rows(width.min(64), rows, spread, seed);
        let idx = InvertedIndex::from_csr(rows, vec![canonical_csr(width, &keys)]).unwrap();
        check_every_probe(&idx)?;
    }

    /// `build` lays the arrays out exactly as the definition says (so a
    /// snapshot's bytes are what they were before the directory
    /// existed), an index reloaded from those arrays exports them again
    /// unchanged, and both answer every probe like a whole-array search.
    #[test]
    fn build_is_canonical_and_survives_a_reload(
        width in 1usize..=100,
        rows in row_counts(),
        spread in spreads(),
        seed in any::<u64>(),
    ) {
        // Partition 0 is the `width` dims under test — for `width` up
        // to 64 its key is the shaped value itself, beyond that a hash
        // of two words; partition 1 is three more dims.
        let low = keys_for_rows(width.min(64), rows, spread, seed);
        let high = keys_for_rows(width.saturating_sub(64), rows, Spread::Uniform, !seed);
        let tail = keys_for_rows(3, rows, Spread::Uniform, seed.rotate_left(17));
        let bit = |word: u64, i: usize| (word >> i) & 1 == 1;
        let data = Dataset::from_vectors(
            width + 3,
            (0..rows).map(|r| {
                BitVector::from_bits((0..width + 3).map(|d| match d {
                    d if d >= width => bit(tail[r], d - width),
                    d if d >= 64 => bit(high[r], d - 64),
                    d => bit(low[r], d),
                }))
            }),
        )
        .unwrap();
        let dims = |r: std::ops::Range<usize>| r.map(|d| d as u32).collect::<Vec<u32>>();
        let partitioning =
            Partitioning::new(width + 3, vec![dims(0..width), dims(width..width + 3)]).unwrap();
        let projector = Projector::new(&partitioning);
        let built = InvertedIndex::build(&ProjectedDataset::build(&data, &projector));

        let by_definition: Vec<CsrPart> = (0..2)
            .map(|p| {
                let w = projector.shape(p).width;
                let keys: Vec<u64> =
                    data.iter_rows().map(|row| key_of(&projector.project(p, row), w)).collect();
                canonical_csr(w, &keys)
            })
            .collect();
        prop_assert_eq!(&export(&built), &by_definition);
        if width <= 64 {
            prop_assert_eq!(&by_definition[0], &canonical_csr(width, &low));
        }

        let reloaded = InvertedIndex::from_csr(rows, export(&built)).unwrap();
        prop_assert_eq!(export(&reloaded), by_definition);
        prop_assert_eq!(reloaded.size_bytes(), built.size_bytes());
        check_every_probe(&built)?;
        check_every_probe(&reloaded)?;
    }

    /// At the key widths on both sides of the 4-byte/8-byte line, at
    /// both ends of a word and hashed: every probe equals a whole-array
    /// search, whether the partition came from CSR arrays or from
    /// unordered pairs; the distinct-key walk emits exactly the postings
    /// whose key is within the radius, in key order; and the exported
    /// keys are the `u64` keys that went in.
    #[test]
    fn narrow_and_wide_keys_probe_walk_and_export_alike(
        at in 0usize..7,
        rows in row_counts(),
        spread in spreads(),
        seed in any::<u64>(),
    ) {
        let width = [1, 31, 32, 33, 63, 64, 100][at];
        let keys = keys_for_rows(width.min(64), rows, spread, seed);
        let csr = canonical_csr(width, &keys);
        let idx = InvertedIndex::from_csr(rows, vec![csr.clone()]).unwrap();
        prop_assert_eq!(export(&idx), vec![csr]);
        check_every_probe(&idx)?;

        let pairs = keys.iter().enumerate().map(|(id, &k)| (k, id as u32)).rev().collect();
        let from_pairs = PartIndex::from_pairs(width, pairs);
        prop_assert_eq!(from_pairs.size_bytes(), idx.size_bytes());
        for k in idx.part_keys(0).iter() {
            for key in [k, k ^ 1, k ^ (1 << (width.min(64) - 1))] {
                prop_assert_eq!(from_pairs.postings(key), idx.postings(0, key), "key {:#x}", key);
            }
        }

        let mut next = stream(!seed);
        let centres = keys.iter().take(3).copied().chain([next() & mask(width.min(64))]);
        for qk in centres {
            for radius in [0, 1, 3, width.min(64) / 2] {
                let mut walked = Vec::new();
                let Ok(()) = for_each_posting_within(idx.part(0), qk, radius, |id| walked.push(id));
                let mut brute: Vec<(u64, u32)> = (0..rows as u32)
                    .map(|id| (keys[id as usize], id))
                    .filter(|&(k, _)| (k ^ qk).count_ones() as usize <= radius)
                    .collect();
                brute.sort_unstable();
                let brute: Vec<u32> = brute.into_iter().map(|(_, id)| id).collect();
                prop_assert_eq!(walked, brute, "qk {:#x} radius {}", qk, radius);
            }
        }
    }
}
