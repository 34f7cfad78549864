//! Shared experiment infrastructure: scales, dataset preparation, engine
//! adapters, timing.

use baselines::{CandidateStats, SearchIndex};
use datagen::{sample_queries, Profile, QuerySet};
use gph::engine::{Gph, GphConfig};
use gph::{AllocatorKind, EstimatorKind};
use hamming_core::Dataset;
use std::time::Instant;

/// Experiment scale: how many rows/queries to generate.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Base data cardinality for ≤ 512-dimensional profiles.
    pub base_rows: usize,
    /// Measured queries per point.
    pub n_queries: usize,
    /// Partitioning workload size (the paper uses 100).
    pub n_workload: usize,
}

impl Scale {
    /// CI-sized: seconds per experiment.
    pub fn tiny() -> Self {
        Scale { base_rows: 3_000, n_queries: 20, n_workload: 20 }
    }

    /// Default laptop scale (≈ minutes for the full suite).
    pub fn small() -> Self {
        Scale { base_rows: 20_000, n_queries: 50, n_workload: 40 }
    }

    /// Heavier runs for more stable timings.
    pub fn medium() -> Self {
        Scale { base_rows: 100_000, n_queries: 100, n_workload: 100 }
    }

    /// Parses `tiny|small|medium`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "tiny" => Some(Self::tiny()),
            "small" => Some(Self::small()),
            "medium" => Some(Self::medium()),
            _ => None,
        }
    }

    /// Rows for a given dimensionality (wide PubChem-like vectors get
    /// half the budget to keep memory flat across datasets).
    pub fn rows_for(&self, dim: usize) -> usize {
        if dim > 512 {
            self.base_rows / 2
        } else {
            self.base_rows
        }
    }
}

/// The τ sweep used for each paper dataset (§VII-A's settings, thinned to
/// five points per dataset).
pub fn tau_sweep(profile_name: &str) -> Vec<u32> {
    match profile_name {
        s if s.starts_with("sift") => vec![4, 8, 16, 24, 32],
        s if s.starts_with("gist") => vec![8, 16, 32, 48, 64],
        s if s.starts_with("pubchem") => vec![4, 8, 16, 24, 32],
        s if s.starts_with("fasttext") => vec![4, 8, 12, 16, 20],
        s if s.starts_with("uqvideo") => vec![8, 16, 32, 40, 48],
        _ => vec![3, 6, 9, 12],
    }
}

/// Generates a profile at scale and carves out query/workload sets.
pub fn prepare(profile: &Profile, scale: Scale, seed: u64) -> QuerySet {
    let rows = scale.rows_for(profile.dim) + scale.n_queries + scale.n_workload;
    let ds = profile.generate(rows, seed);
    sample_queries(&ds, scale.n_queries, scale.n_workload, seed ^ 0x51)
}

/// Per-point timing/candidate aggregates over a query batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    /// Mean wall time per query, milliseconds.
    pub mean_ms: f64,
    /// Mean distinct candidates per query.
    pub mean_candidates: f64,
    /// Mean `Σ|I_s|` per query.
    pub mean_postings: f64,
    /// Mean results per query.
    pub mean_results: f64,
}

/// Runs every query at `tau` against `engine` and averages.
pub fn time_queries(engine: &dyn SearchIndex, queries: &Dataset, tau: u32) -> Timing {
    let mut total_ns = 0u128;
    let mut stats_acc = CandidateStats::default();
    for qi in 0..queries.len() {
        let q = queries.row(qi);
        let t = Instant::now();
        let (_, st) = engine.search_with_stats(q, tau);
        total_ns += t.elapsed().as_nanos();
        stats_acc.n_candidates += st.n_candidates;
        stats_acc.sum_postings += st.sum_postings;
        stats_acc.n_results += st.n_results;
    }
    let nq = queries.len().max(1) as f64;
    Timing {
        mean_ms: total_ns as f64 / 1e6 / nq,
        mean_candidates: stats_acc.n_candidates as f64 / nq,
        mean_postings: stats_acc.sum_postings as f64 / nq,
        mean_results: stats_acc.n_results as f64 / nq,
    }
}

/// Recall of `engine` (approximate methods) against the linear scan.
pub fn measure_recall(
    engine: &dyn SearchIndex,
    data: &Dataset,
    queries: &Dataset,
    tau: u32,
) -> f64 {
    let mut found = 0usize;
    let mut truth_total = 0usize;
    for qi in 0..queries.len() {
        let q = queries.row(qi);
        let truth = data.linear_scan(q, tau);
        let got = engine.search(q, tau);
        truth_total += truth.len();
        found += got.len(); // exact-verified subset of truth
    }
    if truth_total == 0 {
        1.0
    } else {
        found as f64 / truth_total as f64
    }
}

/// GPH wrapped as a [`SearchIndex`] for uniform comparison.
pub struct GphEngine {
    engine: Gph,
}

impl GphEngine {
    /// Builds from an explicit config.
    pub fn build_with(data: Dataset, cfg: GphConfig) -> Self {
        let engine = Gph::build(data, &cfg).expect("GPH build failed");
        GphEngine { engine }
    }

    /// The inner engine (for stats-rich calls).
    pub fn inner(&self) -> &Gph {
        &self.engine
    }
}

impl SearchIndex for GphEngine {
    fn name(&self) -> &'static str {
        "GPH"
    }

    fn search_with_stats(&self, query: &[u64], tau: u32) -> (Vec<u32>, CandidateStats) {
        let res = self.engine.search_with_stats(query, tau);
        (res.ids, CandidateStats::from(&res.stats))
    }

    fn size_bytes(&self) -> usize {
        self.engine.size_bytes()
    }
}

/// Standard GPH configs used across experiments.
pub fn gph_config_for(dim: usize, tau_max: usize) -> GphConfig {
    let mut cfg = GphConfig::new(GphConfig::suggested_m(dim), tau_max);
    cfg.allocator = AllocatorKind::Dp;
    cfg.estimator = EstimatorKind::SubPartition { sub_count: 2, paper_shift: false };
    cfg
}

/// Picks MIH's fastest `m` among candidates on a query sample (the paper
/// "chose the fastest m setting on each dataset").
pub fn mih_best_m(data: &Dataset, queries: &Dataset, tau_mid: u32, candidates: &[usize]) -> usize {
    let probe = queries.len().min(8);
    let mut best = (f64::INFINITY, candidates[0]);
    for &m in candidates {
        if m == 0 || m > data.dim() {
            continue;
        }
        let mih = baselines::Mih::build(data.clone(), m).expect("valid m");
        let t = Instant::now();
        for qi in 0..probe {
            let _ = mih.search(queries.row(qi), tau_mid);
        }
        let el = t.elapsed().as_secs_f64();
        if el < best.0 {
            best = (el, m);
        }
    }
    best.1
}

/// Markdown table writer (prints to stdout).
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Adds one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Prints the table as markdown.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let padded: Vec<String> =
                cells.iter().zip(&widths).map(|(c, w)| format!("{c:<w$}")).collect();
            format!("| {} |", padded.join(" | "))
        };
        println!("{}", fmt_row(&self.header));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("{}", fmt_row(&sep));
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
        println!();
    }
}

/// Two-significant-digit milliseconds.
pub fn ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

/// Thousands-grouped integer-ish count.
pub fn count(v: f64) -> String {
    format!("{:.0}", v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gph::partition_opt::PartitionStrategy;

    #[test]
    fn scale_parsing_and_rows() {
        assert_eq!(Scale::parse("tiny").unwrap().base_rows, 3_000);
        assert!(Scale::parse("nope").is_none());
        let s = Scale::small();
        assert_eq!(s.rows_for(128), 20_000);
        assert_eq!(s.rows_for(881), 10_000);
    }

    #[test]
    fn tau_sweeps_match_paper_ranges() {
        assert_eq!(tau_sweep("sift-like").last(), Some(&32));
        assert_eq!(tau_sweep("gist-like").last(), Some(&64));
        assert_eq!(tau_sweep("fasttext-like").last(), Some(&20));
    }

    #[test]
    fn prepare_and_time_roundtrip() {
        let profile = Profile::uniform(32);
        let qs = prepare(&profile, Scale { base_rows: 300, n_queries: 5, n_workload: 5 }, 1);
        assert_eq!(qs.queries.len(), 5);
        let scan = baselines::LinearScan::build(qs.data.clone());
        let t = time_queries(&scan, &qs.queries, 3);
        assert!(t.mean_ms >= 0.0);
        assert!(t.mean_candidates > 0.0);
    }

    #[test]
    fn gph_engine_adapter_agrees_with_scan() {
        let profile = Profile::uniform(32);
        let qs = prepare(&profile, Scale { base_rows: 400, n_queries: 4, n_workload: 4 }, 2);
        let mut cfg = gph_config_for(32, 6);
        cfg.m = 2;
        cfg.strategy = PartitionStrategy::Original;
        let g = GphEngine::build_with(qs.data.clone(), cfg);
        for qi in 0..qs.queries.len() {
            let q = qs.queries.row(qi);
            assert_eq!(g.search(q, 5), qs.data.linear_scan(q, 5));
        }
    }

    #[test]
    fn table_prints_without_panic() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print();
    }
}
