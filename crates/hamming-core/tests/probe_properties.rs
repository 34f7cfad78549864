//! Property tests pinning the direct-addressed probe
//! ([`InvertedIndex::postings`]: prefix directory, then a search inside
//! one bucket) to a search of the whole sorted key array, and the CSR
//! arrays an index exports — what a snapshot stores — to their
//! definition, so the directory can change how a key is found but never
//! what is found or what is written. Keys of partitions at most 32 bits
//! wide are held in 4 bytes, wider ones in 8, and ids and offsets are
//! packed at the bits of their largest: both sides of each line answer
//! and export alike. A list of signatures probed in one call hands out
//! what probing them one by one does.

use hamming_core::enumerate::for_each_in_ball_u64;
use hamming_core::invindex::{
    for_each_posting, for_each_posting_of, for_each_posting_within, PartIndex,
};
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
fn whole_array_search(idx: &InvertedIndex, p: usize, key: u64) -> Vec<u32> {
    let keys: Vec<u64> = idx.part_keys(p).iter().collect();
    match keys.binary_search(&key) {
        Ok(s) => {
            let offsets = idx.part_offsets(p);
            idx.part_ids(p)[offsets[s] as usize..offsets[s + 1] as usize].to_vec()
        }
        Err(_) => Vec::new(),
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

    /// At the same key widths: for signatures in any order — a colex
    /// ball around a stored key, stored keys and their neighbours in
    /// ascending, descending and scrambled order, keys outside the
    /// domain — one `for_each_posting_of` call hands out the postings
    /// sequence and total of probing the keys one by one.
    #[test]
    fn grouped_probes_equal_per_key_probes_in_any_order(
        at in 0usize..7,
        rows in row_counts(),
        spread in spreads(),
        seed in any::<u64>(),
    ) {
        let width = [1, 31, 32, 33, 63, 64, 100][at];
        let bits = width.min(64);
        let keys = keys_for_rows(bits, rows, spread, seed);
        let idx = InvertedIndex::from_csr(rows, vec![canonical_csr(width, &keys)]).unwrap();
        let part = idx.part(0);

        let mut ball = Vec::new();
        for_each_in_ball_u64(keys.first().copied().unwrap_or(0), bits, 2, |k| ball.push(k));
        let mut near: Vec<u64> = idx.part_keys(0).iter().flat_map(|k| [k, k ^ 1]).collect();
        near.extend([mask(bits), mask(bits).wrapping_add(1), u64::MAX]);
        near.sort_unstable();
        let mut descending = near.clone();
        descending.reverse();
        let mut next = stream(!seed);
        let mut scrambled = near.clone();
        for i in (1..scrambled.len()).rev() {
            scrambled.swap(i, next() as usize % (i + 1));
        }
        for (order, sigs) in
            [("ball", ball), ("ascending", near), ("descending", descending), ("scrambled", scrambled)]
        {
            let (mut one_by_one, mut total) = (Vec::new(), 0);
            for &k in &sigs {
                let Ok(n) = for_each_posting(part, k, |id| one_by_one.push(id));
                total += n;
            }
            let mut grouped = Vec::new();
            let Ok(n) = for_each_posting_of(part, &sigs, |id| grouped.push(id));
            prop_assert_eq!(n, total, "{} total", order);
            prop_assert_eq!(grouped, one_by_one, "{} postings", order);
        }
    }
}

/// The postings of `key` by a search of the whole exported key array.
fn search_export(csr: &CsrPart, key: u64) -> &[u32] {
    let (_, keys, offsets, ids) = csr;
    match keys.binary_search(&key) {
        Ok(s) => &ids[offsets[s] as usize..offsets[s + 1] as usize],
        Err(_) => &[],
    }
}

/// Bits of the largest of `values`.
fn bits_of(values: &[u32]) -> u32 {
    values.iter().max().map_or(0, |&v| 32 - v.leading_zeros())
}

/// Bytes `len` values packed at `bits` each take: 8 past the last
/// value's first byte, none for none.
fn packed_bytes(len: usize, bits: u32) -> usize {
    if len == 0 {
        0
    } else {
        (len - 1) * bits as usize / 8 + 8
    }
}

/// The bytes the resident index's rules say a partition holds: keys at
/// 2 bytes when its directory (`b = ⌊log₂ n_keys⌋ − 3` bits, clamped to
/// the key's) leaves at most 16 bits below its prefix, at
/// [`key_bytes`](hamming_core::invindex::key_bytes) otherwise; offsets
/// as one 4-byte base per block of 64 entries plus each entry's delta
/// from it, and ids, each packed at the bits of their largest; the
/// directory at 4.
fn rule_bytes(csr: &CsrPart) -> usize {
    let (_, keys, offsets, ids) = csr;
    let (key_size, delta_bits) = rule_forms(csr);
    let offsets_size = packed_bytes(offsets.len(), delta_bits) + 4 * offsets.len().div_ceil(64);
    let ids_size = packed_bytes(ids.len(), bits_of(ids));
    key_size * keys.len() + offsets_size + ids_size + 4 * ((1 << directory_bits(csr)) + 1)
}

/// The directory's prefix bits, `⌊log₂ n_keys⌋ − 3` clamped to the key's.
fn directory_bits(csr: &CsrPart) -> u32 {
    csr.1.len().max(1).ilog2().saturating_sub(3).min(csr.0.min(64) as u32)
}

/// The forms the rules pick for a partition: its key size, and the bits
/// of its offsets' deltas from their blocks' bases.
fn rule_forms(csr: &CsrPart) -> (usize, u32) {
    let (width, _, offsets, _) = csr;
    let shift = (*width).min(64) as u32 - directory_bits(csr);
    let key_size = if shift <= 16 { 2 } else { hamming_core::invindex::key_bytes(*width) };
    let deltas: Vec<u32> = offsets.chunks(64).flat_map(|b| b.iter().map(|&o| o - b[0])).collect();
    (key_size, bits_of(&deltas))
}

/// Checks partition `p` of `idx` against `csr`, the arrays it was
/// built from: the export is `csr`, the partition holds the bytes the
/// rules give, every stored key, its lowest and highest one-bit
/// neighbours and keys at and past the domain's ends probe like a
/// whole-array search, and walks of the distinct keys emit exactly the
/// postings within their radius, in key order.
fn check_against_export(idx: &InvertedIndex, p: usize, csr: &CsrPart) {
    let (width, keys, offsets, ids) = csr;
    assert_eq!(&idx.part_keys(p).iter().collect::<Vec<_>>(), keys, "width {width} keys");
    assert_eq!(&idx.part_offsets(p), offsets, "width {width} offsets");
    assert_eq!(idx.part_ids(p), &ids[..], "width {width} ids");
    assert_eq!(idx.part(p).size_bytes(), rule_bytes(csr), "width {width} bytes");
    let bits = (*width).min(64);
    let top = mask(bits);
    let ends = [0, top, top.wrapping_add(1), u64::MAX, 1 << 63];
    let near = keys.iter().flat_map(|&k| [k, k ^ 1, k ^ (1 << (bits - 1))]);
    for key in near.chain(ends) {
        assert_eq!(idx.postings(p, key), search_export(csr, key), "width {width} key {key:#x}");
    }
    let centres = keys.iter().step_by(keys.len() / 3 + 1).copied().chain([top / 3]);
    for qk in centres {
        for radius in [0, 1, 3] {
            let mut walked = Vec::new();
            let Ok(()) = for_each_posting_within(idx.part(p), qk, radius, |id| walked.push(id));
            let brute: Vec<u32> = (keys.iter().enumerate())
                .filter(|&(_, &k)| (k ^ qk).count_ones() as usize <= radius)
                .flat_map(|(s, _)| {
                    ids[offsets[s] as usize..offsets[s + 1] as usize].iter().copied()
                })
                .collect();
            assert_eq!(walked, brute, "width {width} qk {qk:#x} radius {radius}");
        }
    }
}

/// An index rebuilt by `from_csr` from `idx`'s export holds the same
/// bytes, exports the same arrays and answers every stored key alike.
fn check_reload(idx: &InvertedIndex) {
    let reloaded = InvertedIndex::from_csr(idx.len(), export(idx)).unwrap();
    assert_eq!(reloaded.size_bytes(), idx.size_bytes());
    assert_eq!(export(&reloaded), export(idx));
    for p in 0..idx.num_parts() {
        for k in idx.part_keys(p).iter() {
            assert_eq!(reloaded.postings(p, k), idx.postings(p, k), "part {p} key {k:#x}");
        }
    }
}

/// `n` distinct `width`-bit keys: the lower half dense from 0, so some
/// buckets fill and others stay empty, the upper half spread over the
/// rest of the domain.
fn mixed_keys(width: usize, n: usize) -> Vec<u64> {
    let dense = n / 2;
    let rest = (n - dense) as u64;
    let step = ((1u64 << width) - dense as u64) / rest.max(1);
    let mut jitter = stream(width as u64 ^ (n as u64) << 8);
    (0..dense as u64).chain((0..rest).map(|i| dense as u64 + i * step + jitter() % step)).collect()
}

/// At every width up to 32 and at key counts on both sides of the
/// 2-byte key line (`shift ≤ 16` from `2^(width − 13)` keys on, always
/// at 16 bits or fewer), with one or two postings a key: the export is
/// what went in, the partition holds the bytes the rules give, probes
/// and walks equal the whole-array reference, and an index rebuilt from
/// the export holds the same bytes and answers alike.
#[test]
fn every_narrow_width_probes_alike_on_both_sides_of_the_two_byte_line() {
    let mut sides = [0usize; 2];
    for width in 1..=32usize {
        let line = 1usize << width.saturating_sub(13);
        let full = if width <= 16 { Some(1 << width) } else { None };
        for n in [line - 1, line].into_iter().chain(full) {
            let keys = mixed_keys(width, n);
            // Every key holds one row; every third key a second one.
            let rows: Vec<u64> =
                keys.iter().copied().chain(keys.iter().step_by(3).copied()).collect();
            let csr = canonical_csr(width, &rows);
            let idx = InvertedIndex::from_csr(rows.len(), vec![csr.clone()]).unwrap();
            let short = width <= 16 || n >= line;
            // A block's 64 entries span at most 63 keys of 1 or 2 rows.
            let (key_size, delta_bits) = rule_forms(&csr);
            assert_eq!(key_size, if short { 2 } else { 4 }, "width {width} n {n}");
            assert!(delta_bits <= 7, "width {width} n {n}: {delta_bits}-bit deltas");
            sides[usize::from(short)] += 1;
            check_against_export(&idx, 0, &csr);
            check_reload(&idx);
        }
    }
    assert_eq!(sides, [16, 64]);
}

/// A key holding 66 000 of 70 000 rows, more than 16-bit deltas reach,
/// widens its partition's offset deltas to 17 bits, beside a partition
/// of the same width and a 40-bit one whose blocks span under a
/// thousand ids: each holds the bytes its forms give, every probe, walk
/// and export equals the whole-array reference, and an index rebuilt
/// from the export holds the same bytes and answers alike.
#[test]
fn a_key_past_65535_ids_widens_its_offset_deltas_beside_narrow_ones() {
    let rows = 70_000u64;
    let heavy: Vec<u64> = (0..rows).map(|r| if r < 66_000 { 5 } else { r }).collect();
    let spread: Vec<u64> = (0..rows).map(|r| (r * 7919 % 7000) * 149).collect();
    let wide: Vec<u64> = (0..rows).map(|r| (r % 5000) << 24 | 3).collect();
    let csr = vec![canonical_csr(20, &heavy), canonical_csr(20, &spread), canonical_csr(40, &wide)];
    assert_eq!(csr.iter().map(rule_forms).collect::<Vec<_>>(), [(2, 17), (2, 10), (8, 10)]);
    let idx = InvertedIndex::from_csr(rows as usize, csr.clone()).unwrap();
    for (p, c) in csr.iter().enumerate() {
        check_against_export(&idx, p, c);
    }
    check_reload(&idx);
}

/// At row counts whose largest id sits on both sides of a byte line
/// (8 and 9 bits, 16 and 17), over an 8-bit and a 4-bit partition, with
/// one key holding 65 536 postings once the rows allow it (17-bit
/// offset deltas): the build exports the arrays by definition, each
/// partition holds the bytes the rules give, every probe, walk and
/// export equals the whole-array reference, a partition built from
/// unordered pairs answers alike in as many bytes, and an index rebuilt
/// from the export holds the same bytes and answers alike.
#[test]
fn id_widths_on_both_sides_of_a_byte_line_probe_and_export_alike() {
    for rows in [255usize, 256, 257, 65_535, 65_536, 65_537] {
        let heavy = |r: usize| rows > 65_536 && r < 65_536;
        let key0: Vec<u64> =
            (0..rows).map(|r| if heavy(r) { 5 } else { (r * 37 % 251) as u64 }).collect();
        let key1: Vec<u64> = (0..rows).map(|r| (r * 7 % 13 % 16) as u64).collect();
        let data = Dataset::from_vectors(
            12,
            (0..rows).map(|r| {
                BitVector::from_bits(
                    (0..8)
                        .map(|d| (key0[r] >> d) & 1 == 1)
                        .chain((0..4).map(|d| (key1[r] >> d) & 1 == 1)),
                )
            }),
        )
        .unwrap();
        let dims = |r: std::ops::Range<u32>| r.collect::<Vec<u32>>();
        let partitioning = Partitioning::new(12, vec![dims(0..8), dims(8..12)]).unwrap();
        let idx =
            InvertedIndex::build(&ProjectedDataset::build(&data, &Projector::new(&partitioning)));
        let csr = [canonical_csr(8, &key0), canonical_csr(4, &key1)];
        assert_eq!(export(&idx), csr, "rows {rows}");
        let id_bits = bits_of(&csr[0].3);
        assert_eq!(id_bits, usize::BITS - (rows - 1).leading_zeros(), "rows {rows}");
        let delta_bits = rule_forms(&csr[0]).1;
        assert_eq!(delta_bits >= 17, rows > 65_536, "rows {rows}: {delta_bits}-bit deltas");
        for (p, c) in csr.iter().enumerate() {
            check_against_export(&idx, p, c);
            let pairs = c.3.iter().map(|&id| ([&key0, &key1][p][id as usize], id)).rev().collect();
            let from_pairs = PartIndex::from_pairs(c.0, pairs);
            assert_eq!(from_pairs.size_bytes(), idx.part(p).size_bytes(), "rows {rows} part {p}");
            for &k in &c.1 {
                assert_eq!(from_pairs.postings(k), idx.postings(p, k), "rows {rows} key {k}");
            }
        }
        check_reload(&idx);
    }
}
