//! The scan fallback, forced. When a partition's signature ball
//! outnumbers the rows, the resident store walks its index's distinct
//! keys (partitions up to 64 bits wide, whose keys are the projected
//! values) or projects the rows on the fly (wider partitions, whose keys
//! are hashes); it keeps no projected copy of the rows. Either way it
//! must admit exactly the rows a full enumeration would have — counted
//! here from a `ProjectedDataset` built inside the test — and return the
//! linear-scan answer, as must a file-backed segment built from the
//! same rows and config (which floods wide partitions instead of
//! projecting).

use gph::cn::EstimatorKind;
use gph::coldstore::SpillStore;
use gph::engine::{Gph, GphConfig};
use gph::partition_opt::PartitionStrategy;
use gph::segment::{SegmentConfig, SegmentedGph};
use hamming_core::distance::hamming;
use hamming_core::enumerate::ball_size;
use hamming_core::project::{ProjectedDataset, Projector};
use hamming_core::{BitVector, Dataset};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn random_dataset(dim: usize, n: usize, rng: &mut ChaCha8Rng) -> Dataset {
    let mut ds = Dataset::new(dim);
    for _ in 0..n {
        ds.push(&BitVector::from_bits((0..dim).map(|_| rng.random_bool(0.5)))).unwrap();
    }
    ds
}

/// Smallest radius whose ball in `width` bits outnumbers `n` rows.
fn first_scanning_radius(width: usize, n: usize) -> usize {
    (0..=width).find(|&r| ball_size(width, r) > n as u64).expect("fewer rows than values")
}

/// One partition width from each class the fallback treats apart:
/// narrow (≤ 32 bits), exactly one word, and hashed (> 64 bits).
fn width() -> impl Strategy<Value = usize> {
    (0usize..3, 0usize..36).prop_map(|(class, w)| match class {
        0 => 8 + w % 25,
        1 => 64,
        _ => 65 + w,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn forced_fallback_admits_the_ball_and_answers_exactly(
        width in width(),
        m in 1usize..=2,
        n in 20usize..60,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let dim = width * m;
        let ds = random_dataset(dim, n, &mut rng);
        // The allocation spends τ − m + 1 over m partitions, so some
        // partition gets at least the scanning radius r when τ = m·r.
        let tau = m * first_scanning_radius(width, n);
        let mut cfg = GphConfig::new(m, tau);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed };
        // An exact oracle that is cheap to build at every width.
        cfg.estimator = EstimatorKind::SampleScan { sample_cap: n, seed };
        let built = Gph::build(ds.clone(), &cfg).unwrap();
        let bytes = built.to_bytes();
        let loaded = Gph::from_bytes(&bytes).unwrap();
        // One file-backed sealed segment under ids 0..n, so its ids are
        // the rows' local ids: a bulk load's snapshot, mapped.
        let ids = (0..n as u32).collect();
        let bulk =
            SegmentedGph::build_sealed(ds.clone(), ids, cfg.clone(), SegmentConfig::default());
        let path = std::env::temp_dir()
            .join(format!("gph-scanfallback-{}-{seed}.gphs", std::process::id()));
        bulk.unwrap().save(&path).unwrap();
        let spill = SpillStore::temp(1 << 20).unwrap();
        let cold = SegmentedGph::open_file_backed(&path, spill).unwrap();

        let projector = Projector::new(built.partitioning());
        let pd = ProjectedDataset::build(&ds, &projector);
        for qi in 0..6 {
            // Rows with a few bits flipped, so answers are not empty.
            let mut q = ds.vector(rng.random_range(0..n));
            for _ in 0..qi {
                q.flip(rng.random_range(0..dim));
            }
            let q = q.words();
            let expect = ds.linear_scan(q, tau as u32);
            let res = built.search_with_stats(q, tau as u32);
            prop_assert_eq!(&res.ids, &expect);
            prop_assert_eq!(&loaded.search_with_stats(q, tau as u32).ids, &expect);
            prop_assert_eq!(&cold.search(q, tau as u32), &expect);

            // What the thresholds let in, from the projections.
            let st = &res.stats;
            let mut admitted = vec![false; n];
            let mut scanned = 0;
            for (i, &t) in st.thresholds.iter().enumerate() {
                if t < 0 {
                    continue;
                }
                let radius = (t as usize).min(width);
                if ball_size(width, radius) > n as u64 {
                    scanned += n as u64;
                }
                let qv = projector.project(i, q);
                for (id, slot) in admitted.iter_mut().enumerate() {
                    *slot |= hamming(pd.column(i).value(id), &qv) as usize <= radius;
                }
            }
            prop_assert!(scanned > 0, "the fallback was not forced: {:?}", st.thresholds);
            prop_assert_eq!(st.n_scanned, scanned);
            prop_assert_eq!(st.n_candidates, admitted.iter().filter(|&&a| a).count() as u64);
        }
        std::fs::remove_file(&path).ok();
    }
}
