//! Property-based tests for the hamming-core substrate.

use hamming_core::bitvec::BitVector;
use hamming_core::dataset::Dataset;
use hamming_core::distance::{hamming, hamming_within};
use hamming_core::enumerate::{ball_size, for_each_in_ball_u64, for_each_in_ball_words};
use hamming_core::invindex::InvertedIndex;
use hamming_core::io::{crc32, decode_dataset, encode_dataset, Crc32};
use hamming_core::key::key_of;
use hamming_core::partition::Partitioning;
use hamming_core::project::{ProjectedDataset, Projector};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Strategy: a bit vector of the given dimensionality as a Vec<bool>.
fn bits(dim: usize) -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), dim)
}

fn bv(b: &[bool]) -> BitVector {
    BitVector::from_bits(b.iter().copied())
}

/// The dims `0..dim` shuffled by `seed` and cut into parts: the first
/// `first` wide, the rest into up to three parts at seeded cuts.
fn cut_partitioning(dim: usize, first: usize, seed: u64) -> Partitioning {
    let mut dims: Vec<u32> = (0..dim as u32).collect();
    dims.sort_by_key(|&d| hamming_core::key::mix64(seed ^ d as u64));
    let mut parts = vec![dims[..first].to_vec()];
    let mut rest = &dims[first..];
    let mut s = seed;
    while !rest.is_empty() {
        s = hamming_core::key::mix64(s);
        let take = if parts.len() == 3 { rest.len() } else { 1 + s as usize % rest.len() };
        parts.push(rest[..take].to_vec());
        rest = &rest[take..];
    }
    Partitioning::new(dim, parts).unwrap()
}

proptest! {
    #[test]
    fn distance_equals_naive_count(a in bits(130), b in bits(130)) {
        let (va, vb) = (bv(&a), bv(&b));
        let naive = a.iter().zip(&b).filter(|(x, y)| x != y).count() as u32;
        prop_assert_eq!(va.distance(&vb), naive);
    }

    #[test]
    fn distance_is_a_metric(a in bits(96), b in bits(96), c in bits(96)) {
        let (va, vb, vc) = (bv(&a), bv(&b), bv(&c));
        // symmetry
        prop_assert_eq!(va.distance(&vb), vb.distance(&va));
        // identity
        prop_assert_eq!(va.distance(&va), 0);
        // triangle inequality
        prop_assert!(va.distance(&vc) <= va.distance(&vb) + vb.distance(&vc));
    }

    #[test]
    fn within_agrees_with_full(a in bits(200), b in bits(200), tau in 0u32..200) {
        let (va, vb) = (bv(&a), bv(&b));
        let d = hamming(va.words(), vb.words());
        let w = hamming_within(va.words(), vb.words(), tau);
        if d <= tau {
            prop_assert_eq!(w, Some(d));
        } else {
            prop_assert_eq!(w, None);
        }
    }

    #[test]
    fn ball_enumeration_matches_bruteforce(center in 0u64..256, radius in 0usize..=8) {
        let width = 8usize;
        let mut got = Vec::new();
        for_each_in_ball_u64(center, width, radius, |v| got.push(v));
        let mut expect: Vec<u64> = (0..(1u64 << width))
            .filter(|v| (v ^ center).count_ones() as usize <= radius)
            .collect();
        let mut got_sorted = got.clone();
        got_sorted.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got_sorted, expect);
        prop_assert_eq!(got.len() as u64, ball_size(width, radius));
    }

    #[test]
    fn multiword_ball_count(radius in 0usize..=2) {
        let width = 70usize;
        let mut count = 0u64;
        for_each_in_ball_words(&[0, 0], width, radius, |_| count += 1);
        prop_assert_eq!(count, ball_size(width, radius));
    }

    #[test]
    fn projection_preserves_distance_sum(
        rows in prop::collection::vec(bits(40), 2..6),
        m in 1usize..6,
        seed in any::<u64>(),
    ) {
        // Sum of per-partition Hamming distances equals the full distance
        // (partitions are disjoint and cover all dims) — the fact all
        // pigeonhole arguments in the paper rest on.
        let ds = Dataset::from_vectors(40, rows.iter().map(|r| bv(r))).unwrap();
        let p = Partitioning::random_shuffle(40, m, seed).unwrap();
        let proj = Projector::new(&p);
        let pd = ProjectedDataset::build(&ds, &proj);
        let full = hamming(ds.row(0), ds.row(1));
        let sum: u32 = (0..p.num_parts())
            .map(|i| hamming(pd.column(i).value(0), pd.column(i).value(1)))
            .sum();
        prop_assert_eq!(full, sum);
    }

    #[test]
    fn projected_build_matches_project_per_row(
        dim_at in 0usize..6,
        rows in prop::collection::vec(bits(130), 0..24),
        first in any::<usize>(),
        seed in any::<u64>(),
    ) {
        // The byte-table build against the per-dimension gather, over
        // `dim`s that are not multiples of 8 and, past 64 dims, a first
        // part wider than a word.
        let dim = [1, 7, 37, 64, 65, 130][dim_at];
        let first = if dim > 64 { 65 + first % (dim - 64) } else { 1 + first % dim };
        let ds = Dataset::from_vectors(dim, rows.iter().map(|r| bv(&r[..dim]))).unwrap();
        let proj = Projector::new(&cut_partitioning(dim, first, seed));
        let pd = ProjectedDataset::build(&ds, &proj);
        prop_assert_eq!(pd.len(), ds.len());
        for part in 0..proj.num_parts() {
            prop_assert_eq!(pd.column(part).width(), proj.shape(part).width);
            for (id, row) in ds.iter_rows().enumerate() {
                prop_assert_eq!(pd.column(part).value(id), &proj.project(part, row)[..]);
            }
        }
    }

    #[test]
    fn csr_build_matches_a_btreemap_reference(
        widths in (1usize..=32, 33usize..=64, 65usize..=70),
        pool in prop::collection::vec(bits(70), 1..8),
        picks in prop::collection::vec(any::<usize>(), 0..=300),
        seed in any::<u64>(),
    ) {
        // Rows drawn with repeats from a small pool, so keys carry long
        // postings lists, at a width on each key path — packed with the
        // id (≤ 32 bits), sorted as pairs (≤ 64) and hashed (> 64) —
        // and at both edges of each.
        let (a, b, c) = widths;
        for width in [a, b, c, 32, 33, 64, 65] {
            let ds = Dataset::from_vectors(
                width,
                picks.iter().map(|&i| bv(&pool[i % pool.len()][..width])),
            )
            .unwrap();
            let proj = Projector::new(&Partitioning::random_shuffle(width, 1, seed).unwrap());
            let idx = InvertedIndex::build(&ProjectedDataset::build(&ds, &proj));
            let mut reference: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
            for (id, row) in ds.iter_rows().enumerate() {
                reference.entry(key_of(&proj.project(0, row), width)).or_default().push(id as u32);
            }
            let keys: Vec<u64> = reference.keys().copied().collect();
            let mut offsets = vec![0u32];
            for ids in reference.values() {
                offsets.push(offsets.last().unwrap() + ids.len() as u32);
            }
            let ids: Vec<u32> = reference.into_values().flatten().collect();
            prop_assert_eq!(idx.part_keys(0), &keys[..], "width {}", width);
            prop_assert_eq!(idx.part_offsets(0), &offsets[..], "width {}", width);
            prop_assert_eq!(idx.part_ids(0), &ids[..], "width {}", width);
        }
    }

    #[test]
    fn linear_scan_is_sound_and_complete(
        rows in prop::collection::vec(bits(64), 1..20),
        q in bits(64),
        tau in 0u32..64,
    ) {
        let ds = Dataset::from_vectors(64, rows.iter().map(|r| bv(r))).unwrap();
        let qv = bv(&q);
        let res = ds.linear_scan(qv.words(), tau);
        for id in 0..ds.len() {
            let d = hamming(ds.row(id), qv.words());
            prop_assert_eq!(res.contains(&(id as u32)), d <= tau, "id={} d={} tau={}", id, d, tau);
        }
    }

    #[test]
    fn io_roundtrip(rows in prop::collection::vec(bits(77), 0..12)) {
        let ds = Dataset::from_vectors(77, rows.iter().map(|r| bv(r))).unwrap();
        let decoded = decode_dataset(&encode_dataset(&ds)).unwrap();
        prop_assert_eq!(decoded.len(), ds.len());
        for i in 0..ds.len() {
            prop_assert_eq!(decoded.row(i), ds.row(i));
        }
    }

    #[test]
    fn crc32_matches_the_bitwise_reference(
        data in prop::collection::vec(any::<u8>(), 0..300),
        cuts in (any::<usize>(), any::<usize>()),
        shift in 0usize..8,
    ) {
        // `shift` moves the slice start off the allocation's alignment;
        // the cuts split it into three streamed pieces.
        let mut buf = vec![0xA5u8; shift];
        buf.extend_from_slice(&data);
        let bytes = &buf[shift..];
        let want = crc32_bitwise(bytes);
        prop_assert_eq!(crc32(bytes), want);
        let (lo, hi) = {
            let (a, b) = (cuts.0 % (bytes.len() + 1), cuts.1 % (bytes.len() + 1));
            (a.min(b), a.max(b))
        };
        let streamed = Crc32::new()
            .update(&bytes[..lo])
            .update(&bytes[lo..hi])
            .update(&bytes[hi..])
            .finish();
        prop_assert_eq!(streamed, want, "cuts at {} and {}", lo, hi);
    }

    #[test]
    fn select_dims_then_distance_matches_projection(
        rows in prop::collection::vec(bits(30), 2..5),
        mask in prop::collection::vec(any::<bool>(), 30),
    ) {
        prop_assume!(mask.iter().any(|&b| b));
        let dims: Vec<usize> = mask.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
        let ds = Dataset::from_vectors(30, rows.iter().map(|r| bv(r))).unwrap();
        let sub = ds.select_dims(&dims).unwrap();
        let naive: u32 = dims
            .iter()
            .filter(|&&d| rows[0][d] != rows[1][d])
            .count() as u32;
        prop_assert_eq!(hamming(sub.row(0), sub.row(1)), naive);
    }
}

/// CRC-32 (IEEE 802.3, reflected) one bit at a time, with no table: the
/// reference the table-driven checksum is tested against.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    !crc
}
