//! Fig. 7 — the headline comparison: candidates and query time for GPH
//! vs MIH, HmSearch, PartAlloc, and LSH on all five datasets, plus a
//! linear scan of the same rows: the floor any index has to beat.
//!
//! Expected shapes (paper): GPH smallest candidate sets and fastest
//! everywhere (up to 22×/21×/135×/32×/8× over the runner-up on
//! SIFT/GIST/PubChem/FastText/UQVideo); PartAlloc trails MIH despite its
//! tight filter; LSH collapses on highly skewed data; on FastText at
//! large τ most of the dataset matches, so filtering saturates for
//! everyone.

use crate::util::{
    count, gph_config_for, measure_recall, mih_best_m, ms, prepare, tau_sweep, time_queries,
    GphEngine, Scale, Table,
};
use baselines::{HmSearch, LinearScan, Mih, MinHashLsh, PartAlloc, SearchIndex};
use datagen::Profile;
use gph::partition_opt::{PartitionStrategy, WorkloadSpec};

/// Runs the full comparison.
pub fn run(scale: Scale) {
    println!("## Fig. 7 — candidates & query time vs alternatives\n");
    let mut table = Table::new(&[
        "dataset",
        "tau",
        "metric",
        "GPH",
        "MIH",
        "HmSearch",
        "PartAlloc",
        "LSH",
        "Scan",
    ]);
    let mut recall_table = Table::new(&["dataset", "tau", "LSH recall"]);
    for profile in Profile::paper_suite() {
        let qs = prepare(&profile, scale, 0xF7);
        let taus = tau_sweep(&profile.name);
        let tau_max = *taus.last().expect("nonempty") as usize;

        let mut cfg = gph_config_for(profile.dim, tau_max);
        cfg.strategy = PartitionStrategy::default();
        cfg.workload = Some(WorkloadSpec::new(qs.workload.clone(), taus.clone()));
        let gph_engine = GphEngine::build_with(qs.data.clone(), cfg);

        let base_m = Mih::suggested_m(profile.dim, qs.data.len());
        let m = mih_best_m(
            &qs.data,
            &qs.queries,
            taus[taus.len() / 2],
            &[base_m.saturating_sub(base_m / 2).max(1), base_m, base_m * 2],
        );
        let mih = Mih::build(qs.data.clone(), m).expect("mih");
        let scan = LinearScan::build(qs.data.clone());

        for &tau in &taus {
            let hm = HmSearch::build(qs.data.clone(), tau).expect("hm");
            let pa = PartAlloc::build(qs.data.clone(), tau).expect("pa");
            let lsh = MinHashLsh::build(qs.data.clone(), tau).expect("lsh");
            let engines: [&dyn SearchIndex; 6] = [&gph_engine, &mih, &hm, &pa, &lsh, &scan];
            let timings: Vec<_> =
                engines.iter().map(|e| time_queries(*e, &qs.queries, tau)).collect();
            let mut cand_cells = vec![profile.name.clone(), tau.to_string(), "cands".into()];
            let mut time_cells = vec![profile.name.clone(), tau.to_string(), "ms".into()];
            for t in &timings {
                cand_cells.push(count(t.mean_candidates));
                time_cells.push(ms(t.mean_ms));
            }
            table.row(cand_cells);
            table.row(time_cells);
            recall_table.row(vec![
                profile.name.clone(),
                tau.to_string(),
                format!("{:.3}", measure_recall(&lsh, &qs.data, &qs.queries, tau)),
            ]);
        }
    }
    table.print();
    println!("LSH is approximate; its recall against the exact result set:");
    recall_table.print();
}
