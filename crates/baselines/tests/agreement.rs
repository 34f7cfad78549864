//! Cross-algorithm agreement: every exact engine returns exactly the
//! linear-scan result set, on random data and on the paper's skewed
//! profiles. This is the load-bearing correctness property of the whole
//! reproduction.

use baselines::{HmSearch, LinearScan, Mih, PartAlloc, SearchIndex};
use datagen::Profile;
use gph::engine::{Gph, GphConfig};
use gph::partition_opt::PartitionStrategy;
use hamming_core::{BitVector, Dataset};
use proptest::prelude::*;

fn bits(dim: usize) -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), dim)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn all_exact_engines_agree_random(
        rows in prop::collection::vec(bits(32), 5..40),
        q in bits(32),
        tau in 0u32..8,
    ) {
        let ds = Dataset::from_vectors(
            32,
            rows.iter().map(|r| BitVector::from_bits(r.iter().copied())),
        )
        .unwrap();
        let qv = BitVector::from_bits(q.iter().copied());
        let truth = ds.linear_scan(qv.words(), tau);

        let scan = LinearScan::build(ds.clone());
        prop_assert_eq!(scan.search(qv.words(), tau), truth.clone());

        let mih = Mih::build(ds.clone(), 4).unwrap();
        prop_assert_eq!(mih.search(qv.words(), tau), truth.clone());

        let hm = HmSearch::build(ds.clone(), tau).unwrap();
        prop_assert_eq!(hm.search(qv.words(), tau), truth.clone());

        let pa = PartAlloc::build(ds.clone(), tau).unwrap();
        prop_assert_eq!(pa.search(qv.words(), tau), truth.clone());

        let mut cfg = GphConfig::new(4, 8);
        cfg.strategy = PartitionStrategy::RandomShuffle { seed: 11 };
        let g = Gph::build(ds, &cfg).unwrap();
        prop_assert_eq!(g.search(qv.words(), tau), truth);
    }
}

/// Deterministic agreement run on each paper-profile generator, larger τ.
#[test]
fn engines_agree_on_paper_profiles() {
    for (profile, tau) in [
        (Profile::sift_like(), 10u32),
        (Profile::uqvideo_like(), 12),
        (Profile::synthetic_gamma(0.4), 8),
    ] {
        let ds = profile.generate(600, 99);
        let queries = profile.generate(5, 100);
        let mih = Mih::build(ds.clone(), 6).unwrap();
        let hm = HmSearch::build(ds.clone(), tau).unwrap();
        let pa = PartAlloc::build(ds.clone(), tau).unwrap();
        let mut cfg = GphConfig::new(6, tau as usize);
        cfg.strategy = PartitionStrategy::Os;
        let g = Gph::build(ds.clone(), &cfg).unwrap();
        for qi in 0..queries.len() {
            let q = queries.row(qi);
            let truth = ds.linear_scan(q, tau);
            assert_eq!(mih.search(q, tau), truth, "{} MIH qi={qi}", profile.name);
            assert_eq!(hm.search(q, tau), truth, "{} HmSearch qi={qi}", profile.name);
            assert_eq!(pa.search(q, tau), truth, "{} PartAlloc qi={qi}", profile.name);
            assert_eq!(g.search(q, tau), truth, "{} GPH qi={qi}", profile.name);
        }
    }
}

/// High-dimensional (multi-word partitions, 881 dims) agreement.
#[test]
fn engines_agree_on_pubchem_profile() {
    let profile = Profile::pubchem_like();
    let ds = profile.generate(300, 7);
    let queries = profile.generate(3, 8);
    let tau = 16u32;
    let mih = Mih::build(ds.clone(), 36).unwrap();
    let mut cfg = GphConfig::new(36, tau as usize);
    cfg.strategy = PartitionStrategy::Original;
    let g = Gph::build(ds.clone(), &cfg).unwrap();
    for qi in 0..queries.len() {
        let q = queries.row(qi);
        let truth = ds.linear_scan(q, tau);
        assert_eq!(mih.search(q, tau), truth, "MIH qi={qi}");
        assert_eq!(g.search(q, tau), truth, "GPH qi={qi}");
    }
}

/// At `m = 1` GPH's plan and Lemma 1's vector are both `[τ]`, and MIH
/// runs GPH's probe loop, so the two do the same work, not only return
/// the same rows: at τ = 1 they probe, past it (a 32-bit ball of radius
/// 2 outnumbers 60 rows) they take the scan fallback, which counts
/// scanned rows and no postings on both.
#[test]
fn gph_and_mih_do_the_same_work_at_one_partition() {
    use baselines::CandidateStats;
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(37);
    let rows = (0..60).map(|_| BitVector::from_bits((0..32).map(|_| rng.random_bool(0.5))));
    let ds = Dataset::from_vectors(32, rows).unwrap();
    let mih = Mih::build(ds.clone(), 1).unwrap();
    let mut cfg = GphConfig::new(1, 5);
    cfg.strategy = PartitionStrategy::Original;
    let g = Gph::build(ds.clone(), &cfg).unwrap();
    let work = |st: CandidateStats| {
        (st.n_signatures, st.sum_postings, st.n_scanned, st.n_candidates, st.n_results)
    };
    for tau in [1u32, 2, 5] {
        for qi in 0..ds.len() {
            let q = ds.row(qi);
            let (mih_ids, mih_stats) = mih.search_with_stats(q, tau);
            let gph = g.search_with_stats(q, tau);
            assert_eq!(mih_ids, gph.ids, "tau={tau} qi={qi}");
            assert_eq!(
                work(mih_stats),
                work(CandidateStats::from(&gph.stats)),
                "tau={tau} qi={qi}: (signatures, postings, scanned, candidates, results)"
            );
        }
    }
}
