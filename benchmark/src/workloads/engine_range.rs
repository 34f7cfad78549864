//! `engine-range`: the paper's own experiment. One client calls
//! `Gph::search` in-process; τ is drawn per query from [`TAUS`].
//! Allocation, enumeration, probing and verification do all the work;
//! serving, network and cold storage do none — so hot-path and
//! pipeline-unification changes show here and serving changes must not.

use crate::gen::{self, Fingerprint, Rng, TAUS, TAU_MAX};
use crate::harness::{
    mean_ns, mismatches_against_scan, p50_us, read_round, Answer, Layers, Mode, Opts, ReadOp,
    Round, Workload,
};
use crate::spans::{self, Span};
use crate::stats;
use baselines::{LinearScan, Mih, SearchIndex};
use gph::engine::{Gph, GphConfig};
use hamming_core::enumerate::for_each_in_ball_u64;
use hamming_core::{Dataset, InvertedIndex, Partitioning, ProjectedDataset, Projector};
use std::hint::black_box;

/// Corpus rows. `Gph::build` over them is the whole set-up.
const ROWS: usize = 400_000;
/// Reads per round: about a second of searches on the reference box.
const READS: usize = 5_000;
/// In the verifying warm-up round, every k-th answer is compared with a
/// linear scan (a scan of the corpus costs ~1 ms; the other answers are
/// pinned to these by the round digest, which must repeat).
const VERIFY_EVERY: usize = 16;

pub struct EngineRange {
    data: Dataset,
    queries: Dataset,
    ops: Vec<ReadOp>,
    cfg: GphConfig,
    fingerprint: u64,
}

impl EngineRange {
    pub fn generate(opts: &Opts) -> Self {
        let (rows, reads) = if opts.quick { (4_000, 200) } else { (ROWS, READS) };
        let data = gen::corpus(rows, opts.seed);
        let mut rng = Rng::new(opts.seed, 1);
        let queries = gen::queries(&data, rows, reads, &mut rng);
        let ops: Vec<ReadOp> =
            (0..reads as u32).map(|query| ReadOp { query, tau: rng.pick(&TAUS) }).collect();
        let mut f = Fingerprint::default();
        f.dataset(&data);
        f.dataset(&queries);
        ops.iter().for_each(|op| f.word(op.tau as u64));
        let cfg = GphConfig::new(GphConfig::suggested_m(data.dim()), TAU_MAX);
        EngineRange { data, queries, ops, cfg, fingerprint: f.value() }
    }

    fn query(&self, i: usize) -> (&[u64], u32) {
        let op = self.ops[i % self.ops.len()];
        (self.queries.row(op.query as usize), op.tau)
    }
}

impl Workload for EngineRange {
    type System = Gph;

    fn name(&self) -> &'static str {
        "engine-range"
    }

    fn nominal_round_s(&self) -> f64 {
        1.0
    }

    fn ops_per_round(&self) -> u64 {
        self.ops.len() as u64
    }

    fn clients(&self) -> usize {
        1
    }

    fn input_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn deterministic(&self) -> bool {
        true
    }

    fn notes(&self) -> Vec<String> {
        vec![format!(
            "{} rows x {} bits (synthetic gamma 0.25), m = {}, {} reads per round, tau in {TAUS:?}",
            self.data.len(),
            self.data.dim(),
            self.cfg.m,
            self.ops.len()
        )]
    }

    fn setup(&self) -> Result<Gph, String> {
        Gph::build(self.data.clone(), &self.cfg).map_err(|e| e.to_string())
    }

    fn teardown(&self, _sys: Gph) {}

    fn mem_amp(&self, sys: &Gph) -> f64 {
        sys.size_bytes() as f64 / self.data.size_bytes() as f64
    }

    fn round(&self, sys: &mut Gph, mode: Mode<'_>) -> Result<Round, String> {
        let (rec, keep) = match mode {
            Mode::Plain => (None, None),
            Mode::Verify => (None, Some(VERIFY_EVERY)),
            Mode::Traced(rec) => (Some(rec), None),
        };
        let traced = rec.is_some();
        let (mut round, kept) =
            read_round(&self.ops, &self.queries, "Gph::search", rec, keep, |q, tau| {
                if !traced {
                    return Ok(Answer::owned(sys.search(q, tau)));
                }
                // `search` is `search_with_stats(..).ids`: the traced
                // twin does the same work and keeps the phase clocks.
                let res = sys.search_with_stats(q, tau);
                let s = &res.stats;
                let phases = [
                    ("gph.alloc", s.alloc_ns),
                    ("gph.enumerate", s.enumerate_ns),
                    ("gph.probe", s.candgen_ns),
                    ("gph.verify", s.verify_ns),
                ];
                Ok(Answer { ids: crate::harness::Ids::Owned(res.ids), phases: Some(phases) })
            })?;
        round.failed += mismatches_against_scan(&self.data, &self.ops, &self.queries, &kept);
        Ok(round)
    }

    fn layers(
        &self,
        sys: &mut Gph,
        spans: &[Span],
        _rounds: usize,
        out: &mut Layers,
    ) -> Result<(), String> {
        // Phase shares and cover, from the traced rounds' spans.
        let totals = spans::self_times(spans);
        let call = totals.get("Gph::search").ok_or("no Gph::search spans")?;
        let phase = |name| totals.get(name).map_or(0, |t| t.total_ns) as f64;
        let call_ns = call.total_ns as f64;
        let phases = ["gph.alloc", "gph.enumerate", "gph.probe", "gph.verify"].map(phase);
        out.set("gph.alloc_share", phases[0] / call_ns);
        out.set("gph.enumerate_share", phases[1] / call_ns);
        out.set("gph.probe_share", phases[2] / call_ns);
        out.set("gph.verify_share", phases[3] / call_ns);
        out.set("gph.phase_cover", phases.iter().sum::<f64>() / call_ns);

        // Exact counts: one pass of the round's operations.
        let n = self.ops.len() as f64;
        let (mut sigs, mut postings, mut cands, mut scanned, mut results) = (0, 0, 0, 0, 0);
        let mut cost_ratio = Vec::new();
        for i in 0..self.ops.len() {
            let (q, tau) = self.query(i);
            let s = sys.search_with_stats(q, tau).stats;
            sigs += s.n_signatures;
            postings += s.sum_postings;
            cands += s.n_candidates;
            scanned += s.n_scanned;
            results += s.n_results;
            if s.estimated_cost > 0.0 {
                cost_ratio.push(s.n_candidates as f64 / s.estimated_cost);
            }
        }
        out.set("gph.signatures_per_op", sigs as f64 / n);
        out.set("gph.postings_per_op", postings as f64 / n);
        out.set("gph.candidates_per_op", cands as f64 / n);
        out.set("gph.scanned_per_op", scanned as f64 / n);
        out.set("gph.results_per_op", results as f64 / n);
        out.set("gph.candidate_precision", results as f64 / (cands as f64).max(1.0));
        out.set("gph.cost_model_ratio_p50", stats::median(&cost_ratio).unwrap_or(0.0));

        let probes = self.ops.len().min(1_000);
        out.set(
            "gph.search_us",
            p50_us(probes, |i| {
                let (q, tau) = self.query(i);
                black_box(sys.search(q, tau));
            }),
        );
        out.set(
            "gph.estimate_cost_us",
            p50_us(probes, |i| {
                let (q, tau) = self.query(i);
                black_box(sys.estimate_cost(q, tau));
            }),
        );
        out.set(
            "gph.topk10_us_p50",
            p50_us(probes.min(200), |i| {
                black_box(sys.search_topk(self.query(i).0, 10));
            }),
        );
        let b = sys.build_stats();
        out.set("gph.build_partition_ms", b.partition_ms as f64);
        out.set("gph.build_index_ms", b.index_ms as f64);
        out.set("gph.build_estimator_ms", b.estimator_ms as f64);

        self.hamming_core_layers(out)?;
        self.baseline_layers(sys, out)
    }
}

impl EngineRange {
    /// Direct calls into `hamming-core` on this workload's data: the
    /// kernels under enumerate, probe and verify.
    fn hamming_core_layers(&self, out: &mut Layers) -> Result<(), String> {
        let data = &self.data;
        // Enumeration: every key within radius 2 of a 24-bit centre.
        let (width, radius) = (24, 2);
        let mut n_sigs = 0u64;
        let per_ball = mean_ns(2_000, |i| {
            let centre = self.queries.row(i % self.queries.len())[0] & ((1 << width) - 1);
            for_each_in_ball_u64(centre, width, radius, |k| {
                n_sigs += 1;
                black_box(k);
            });
        });
        out.set("hamming-core.enumerate_ns_per_sig", per_ball * 2_000.0 / n_sigs as f64);

        // Probing: an MIH-style equal-width index, keys one bit away
        // from keys the queries project to.
        let m = self.cfg.m;
        let partitioning = Partitioning::equi_width(data.dim(), m).map_err(|e| e.to_string())?;
        let projector = Projector::new(&partitioning);
        let index = InvertedIndex::build(&ProjectedDataset::build(data, &projector));
        let keys: Vec<(usize, u64)> = (0..4_096)
            .map(|i| {
                let part = i % m;
                let q = self.queries.row(i % self.queries.len());
                let key = projector.project(part, q)[0] ^ (1 << (i % 16));
                (part, key)
            })
            .collect();
        let mut hits = 0u64;
        let reps = 50;
        let per_key = mean_ns(reps * keys.len(), |i| {
            let (part, key) = keys[i % keys.len()];
            hits += u64::from(!black_box(index.postings(part, key)).is_empty());
        });
        out.set("hamming-core.probe_ns_per_key", per_key);
        out.set("hamming-core.probe_hit_ratio", hits as f64 / (reps * keys.len()) as f64);

        // Verification: a 4096-candidate batch against one query.
        let verify_rate = |data: &Dataset, tau: u32| {
            let step = (data.len() / 4_096).max(1);
            let cands: Vec<u32> = (0..4_096.min(data.len())).map(|i| (i * step) as u32).collect();
            let mut ids = Vec::new();
            let reps = 200;
            let per_batch = mean_ns(reps, |i| {
                ids.clear();
                data.verify_candidates(data.row(i % data.len()), tau, &cands, &mut ids);
                black_box(ids.len());
            });
            cands.len() as f64 / per_batch * 1e3
        };
        out.set("hamming-core.verify_mcand_per_s", verify_rate(data, 16));
        // 256-bit codes (UQVideo-like): the wide case no workload covers.
        let wide = datagen::Profile::uqvideo_like().generate(16_384.min(data.len()), 1);
        out.set("hamming-core.verify256_mcand_per_s", verify_rate(&wide, 32));

        // Linear scan, which is also how memtables are searched.
        let scan_rows = data.len().min(100_000);
        let head = gen::slice(data, 0, scan_rows);
        let per_scan = mean_ns(20, |i| {
            black_box(head.linear_scan(self.queries.row(i), 8));
        });
        out.set("hamming-core.scan_mrows_per_s", scan_rows as f64 / per_scan * 1e3);
        Ok(())
    }

    /// Linear scan and MIH over the same corpus and the same queries:
    /// the floor GPH must beat (paper Fig. 7).
    fn baseline_layers(&self, gph: &Gph, out: &mut Layers) -> Result<(), String> {
        let n = self.ops.len().min(200);
        let scan = LinearScan::build(self.data.clone());
        out.set(
            "baselines.scan_us_p50",
            p50_us(n.min(40), |i| {
                let (q, tau) = self.query(i);
                black_box(scan.search(q, tau));
            }),
        );
        let m = Mih::suggested_m(self.data.dim(), self.data.len());
        let mih = Mih::build(scan.data().clone(), m).map_err(|e| e.to_string())?;
        for i in 0..n.min(20) {
            let (q, tau) = self.query(i);
            if mih.search(q, tau) != gph.search(q, tau) {
                return Err(format!("MIH and GPH disagree on query {i}"));
            }
        }
        let mih_us = p50_us(n, |i| {
            let (q, tau) = self.query(i);
            black_box(mih.search(q, tau));
        });
        let gph_us = p50_us(n, |i| {
            let (q, tau) = self.query(i);
            black_box(gph.search(q, tau));
        });
        out.set("baselines.mih_us_p50", mih_us);
        out.set("gph.speedup_over_mih", mih_us / gph_us);
        Ok(())
    }
}
