//! Hot-path microbenchmark: verification-kernel throughput, probe cost
//! and end-to-end QPS, written to `BENCH_hotpath.json`.
//!
//! The query hot path spends its time in two places: probing postings
//! and verifying candidates. For the second, the same deduplicated
//! candidate buffer is verified twice against the reference 256-bit
//! profile ([`Profile::uqvideo_like`], 4 words per row):
//!
//! * **scalar** — the pre-refactor phase 4: one
//!   [`hamming_core::distance::hamming_within`] call per candidate;
//! * **batched** — [`Dataset::verify_candidates`], the streaming kernel
//!   the engine now uses (width-specialized, SIMD when the `simd`
//!   feature is on and the CPU has AVX2+POPCNT).
//!
//! Both passes produce identical result sets (asserted); the report
//! carries candidates-verified/sec for each, their ratio, whether the
//! SIMD kernels were live, and end-to-end engine QPS at the reference
//! threshold. For the first, a `probe` block times
//! [`InvertedIndex::postings`] over the engine's own partitioning — ns
//! per key on stored keys and on their one-bit neighbours (what
//! enumeration mostly asks for: misses) — and reports what share of the
//! index's bytes its prefix directory takes. CI runs this at
//! `--scale tiny --features simd` and uploads the JSON, making kernel
//! regressions a broken series rather than an anecdote.

use crate::util::{gph_config_for, prepare};
use crate::Scale;
use datagen::Profile;
use gph::engine::Gph;
use hamming_core::distance::{hamming_within, simd_active};
use hamming_core::{Dataset, InvertedIndex, ProjectedDataset, Projector};
use std::time::Instant;

/// Reference threshold: the middle of the uqvideo τ sweep.
const TAU: u32 = 32;
/// Minimum wall time per kernel measurement; rounds repeat until this
/// elapses so tiny scales still produce stable rates.
const MIN_MEASURE_S: f64 = 0.25;

/// Runs the hot-path benchmark and writes the JSON report (path from
/// `BENCH_HOTPATH_OUT`, default `BENCH_hotpath.json`).
pub fn run(scale: Scale) {
    let profile = Profile::uqvideo_like();
    let qs = prepare(&profile, scale, 0x407_0A74);
    run_inner(&qs.data, &qs.queries);
}

/// One timed pass of the scalar one-at-a-time baseline.
fn scalar_verify(data: &Dataset, query: &[u64], tau: u32, candidates: &[u32]) -> Vec<u32> {
    candidates
        .iter()
        .copied()
        .filter(|&id| hamming_within(data.row(id as usize), query, tau).is_some())
        .collect()
}

/// Times `body` over whole rounds until [`MIN_MEASURE_S`] elapses,
/// returning (total seconds, rounds run).
fn measure<F: FnMut()>(mut body: F) -> (f64, usize) {
    let mut rounds = 0usize;
    let t = Instant::now();
    loop {
        body();
        rounds += 1;
        let s = t.elapsed().as_secs_f64();
        if s >= MIN_MEASURE_S {
            return (s, rounds);
        }
    }
}

/// Keys timed per probe round, dealt round-robin over the partitions.
const PROBE_KEYS: usize = 4096;

/// The `probe` block: ns per [`InvertedIndex::postings`] call on stored
/// keys and on one-bit-off keys, and `directory_bytes / index_bytes`,
/// over an index of `data` under the engine's partitioning.
fn measure_probe(engine: &Gph, data: &Dataset) -> (f64, f64, f64) {
    let projector = Projector::new(engine.partitioning());
    let index = InvertedIndex::build(&ProjectedDataset::build(data, &projector));
    let m = index.num_parts();
    // Stored keys in a scattered order (Knuth's multiplicative hash of
    // the draw number), so a round does not walk `keys` sequentially.
    let stored: Vec<(usize, u64)> = (0..PROBE_KEYS)
        .map(|i| {
            let keys = index.part_keys(i % m);
            (i % m, keys[i.wrapping_mul(2_654_435_761) % keys.len()])
        })
        .collect();
    let near: Vec<(usize, u64)> = stored
        .iter()
        .enumerate()
        .map(|(i, &(p, k))| (p, k ^ (1 << (i % index.part_width(p).clamp(1, 64)))))
        .collect();
    assert!(
        stored.iter().all(|&(p, k)| !index.postings(p, k).is_empty()),
        "hotpath: a stored key has no postings"
    );
    let ns_per_key = |probes: &[(usize, u64)]| {
        let (s, rounds) = measure(|| {
            for &(p, k) in probes {
                std::hint::black_box(index.postings(p, k));
            }
        });
        s * 1e9 / (rounds * probes.len()) as f64
    };
    let csr_bytes: usize = (0..m)
        .map(|p| {
            size_of_val(index.part_keys(p))
                + size_of_val(index.part_offsets(p))
                + size_of_val(index.part_ids(p))
        })
        .sum();
    let directory_share = (index.size_bytes() - csr_bytes) as f64 / index.size_bytes() as f64;
    (ns_per_key(&stored), ns_per_key(&near), directory_share)
}

fn run_inner(data: &Dataset, queries: &Dataset) {
    let engine = Gph::build(data.clone(), &gph_config_for(data.dim(), TAU as usize))
        .expect("hotpath: build");

    // The candidate buffer each query hands to phase 4: every row id, the
    // worst case the verifier can face and the fairest apples-to-apples
    // input (no dependence on how selective the probe phase was).
    let candidates: Vec<u32> = (0..data.len() as u32).collect();
    let qrefs: Vec<&[u64]> = (0..queries.len()).map(|i| queries.row(i)).collect();

    // Agreement first: both kernels must accept exactly the same ids.
    let mut batched_out = Vec::with_capacity(candidates.len());
    for q in &qrefs {
        batched_out.clear();
        data.verify_candidates(q, TAU, &candidates, &mut batched_out);
        assert_eq!(
            batched_out,
            scalar_verify(data, q, TAU, &candidates),
            "hotpath: batched and scalar verification diverged"
        );
    }

    // Scalar one-at-a-time baseline (the pre-refactor phase 4).
    let (scalar_s, scalar_rounds) = measure(|| {
        for q in &qrefs {
            std::hint::black_box(scalar_verify(data, q, TAU, &candidates));
        }
    });
    // Batched streaming kernel (what the engine runs now).
    let mut out = Vec::with_capacity(candidates.len());
    let (batched_s, batched_rounds) = measure(|| {
        for q in &qrefs {
            out.clear();
            data.verify_candidates(q, TAU, &candidates, &mut out);
            std::hint::black_box(&out);
        }
    });

    let per_round = (qrefs.len() * candidates.len()) as f64;
    let scalar_cps = per_round * scalar_rounds as f64 / scalar_s;
    let batched_cps = per_round * batched_rounds as f64 / batched_s;
    let speedup = batched_cps / scalar_cps;

    // End-to-end QPS through the full engine (all four phases).
    let (serve_s, serve_rounds) = measure(|| {
        for q in &qrefs {
            std::hint::black_box(engine.search(q, TAU));
        }
    });
    let qps = qrefs.len() as f64 * serve_rounds as f64 / serve_s;
    let st = engine.search_with_stats(qrefs[0], TAU).stats;
    let (stored_ns, near_ns, directory_share) = measure_probe(&engine, data);

    let json = format!(
        "{{\n  \"experiment\": \"hotpath\",\n  \"rows\": {},\n  \"dims\": {},\n  \
         \"queries\": {},\n  \"tau\": {},\n  \"simd_active\": {},\n  \
         \"scalar_cands_per_s\": {:.0},\n  \"batched_cands_per_s\": {:.0},\n  \
         \"speedup\": {:.3},\n  \"qps\": {:.1},\n  \
         \"sum_postings\": {},\n  \"n_scanned\": {},\n  \"n_candidates\": {},\n  \
         \"probe\": {{\"stored_ns_per_key\": {:.1}, \"one_bit_off_ns_per_key\": {:.1}, \
         \"directory_bytes_over_index_bytes\": {:.4}}}\n}}\n",
        data.len(),
        data.dim(),
        qrefs.len(),
        TAU,
        simd_active(),
        scalar_cps,
        batched_cps,
        speedup,
        qps,
        st.sum_postings,
        st.n_scanned,
        st.n_candidates,
        stored_ns,
        near_ns,
        directory_share,
    );
    let out_path =
        std::env::var("BENCH_HOTPATH_OUT").unwrap_or_else(|_| "BENCH_hotpath.json".into());
    std::fs::write(&out_path, &json).expect("hotpath: write report");

    println!(
        "## hotpath ({} rows x {} dims, {} queries, tau = {TAU})\n",
        data.len(),
        data.dim(),
        qrefs.len()
    );
    println!("| metric | value |");
    println!("|---|---|");
    println!("| simd active | {} |", simd_active());
    println!("| scalar verify | {:.1} M cand/s |", scalar_cps / 1e6);
    println!("| batched verify | {:.1} M cand/s |", batched_cps / 1e6);
    println!("| speedup | {speedup:.2}x |");
    println!("| end-to-end QPS | {qps:.0} |");
    println!("| probe, stored key | {stored_ns:.1} ns |");
    println!("| probe, one bit off | {near_ns:.1} ns |");
    println!("| directory / index bytes | {:.2}% |", directory_share * 100.0);
    println!("\nreport written to {out_path}");
}
