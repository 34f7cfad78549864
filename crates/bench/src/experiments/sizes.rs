//! Fig. 6 (index sizes) and Table IV (index construction times).
//!
//! Expected shapes (paper): GPH and MIH are the smallest (query-side
//! enumeration only, and neither keeps a projected copy of the rows —
//! both count postings, with ids and offsets packed at their width,
//! plus prefix directories; GPH is larger than MIH by the CN estimator
//! charged to it, exact-distance counts in `u16` while the largest
//! count fits and in `u32` past it, so the row count sets their width);
//! HmSearch/PartAlloc are far larger (data-side 1-deletion variants);
//! LSH varies with τ through `l`.
//! Table IV: MIH builds fastest; GPH's partitioning dominates its build
//! but is τ-independent (computed once for all thresholds).

use crate::util::{gph_config_for, prepare, tau_sweep, GphEngine, Scale, Table};
use baselines::{HmSearch, Mih, MinHashLsh, PartAlloc, SearchIndex};
use datagen::Profile;
use gph::partition_opt::{PartitionStrategy, WorkloadSpec};
use std::time::Instant;

fn mb(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / 1e6)
}

/// Fig. 6: index sizes for every algorithm on all five datasets.
pub fn run_fig6(scale: Scale) {
    println!("## Fig. 6 — index sizes (MB)\n");
    let mut table =
        Table::new(&["dataset", "tau", "GPH", "GPH index", "MIH", "HmSearch", "PartAlloc", "LSH"]);
    for profile in Profile::paper_suite() {
        let qs = prepare(&profile, scale, 0xF6);
        let taus = tau_sweep(&profile.name);
        let tau_max = *taus.last().expect("nonempty") as usize;
        // τ-independent builds once:
        let mut cfg = gph_config_for(profile.dim, tau_max);
        cfg.strategy = PartitionStrategy::default();
        cfg.workload = Some(WorkloadSpec::new(qs.workload.clone(), taus.clone()));
        let gph_engine = GphEngine::build_with(qs.data.clone(), cfg);
        let mih = Mih::build(qs.data.clone(), Mih::suggested_m(profile.dim, qs.data.len()))
            .expect("mih build");
        for &tau in &taus {
            let hm = HmSearch::build(qs.data.clone(), tau).expect("hmsearch build");
            let pa = PartAlloc::build(qs.data.clone(), tau).expect("partalloc build");
            let lsh = MinHashLsh::build(qs.data.clone(), tau).expect("lsh build");
            table.row(vec![
                profile.name.clone(),
                tau.to_string(),
                mb(gph_engine.size_bytes()),
                mb(gph_engine.inner().index_size_bytes()),
                mb(mih.size_bytes()),
                mb(hm.size_bytes()),
                mb(pa.size_bytes()),
                mb(lsh.size_bytes()),
            ]);
        }
    }
    table.print();
    println!(
        "GPH and MIH indexes are τ-independent (built once per dataset); \
         HmSearch/PartAlloc/LSH sizes vary with τ by construction. GPH is \
         its index plus the CN estimator's tables; GPH index is the index \
         alone, the postings the other methods are charged for.\n"
    );
}

/// Table IV: index construction times on the GIST-like dataset.
pub fn run_table4(scale: Scale) {
    println!("## Table IV — index construction time on GIST-like (seconds)\n");
    let profile = Profile::gist_like();
    let qs = prepare(&profile, scale, 0xF6);
    let taus = [16u32, 32, 48, 64];
    let mut table =
        Table::new(&["tau", "MIH", "HmSearch", "PartAlloc", "LSH", "GPH (part + index)"]);
    // GPH: partitioning once (workload spans all τ), indexing once.
    let mut cfg = gph_config_for(profile.dim, 64);
    cfg.strategy = PartitionStrategy::default();
    cfg.workload = Some(WorkloadSpec::new(qs.workload.clone(), taus.to_vec()));
    let t = Instant::now();
    let gph_engine = GphEngine::build_with(qs.data.clone(), cfg);
    let _ = t.elapsed();
    let bs = gph_engine.inner().build_stats();
    let gph_cell = format!(
        "{:.1} + {:.1}",
        bs.partition_ms as f64 / 1e3,
        (bs.index_ms + bs.estimator_ms) as f64 / 1e3
    );
    for tau in taus {
        let time_of = |f: &dyn Fn() -> usize| {
            let t = Instant::now();
            let sz = f();
            (t.elapsed().as_secs_f64(), sz)
        };
        let (mih_s, _) = time_of(&|| {
            Mih::build(qs.data.clone(), Mih::suggested_m(profile.dim, qs.data.len()))
                .expect("mih")
                .size_bytes()
        });
        let (hm_s, _) =
            time_of(&|| HmSearch::build(qs.data.clone(), tau).expect("hm").size_bytes());
        let (pa_s, _) =
            time_of(&|| PartAlloc::build(qs.data.clone(), tau).expect("pa").size_bytes());
        let (lsh_s, _) =
            time_of(&|| MinHashLsh::build(qs.data.clone(), tau).expect("lsh").size_bytes());
        table.row(vec![
            tau.to_string(),
            format!("{mih_s:.1}"),
            format!("{hm_s:.1}"),
            format!("{pa_s:.1}"),
            format!("{lsh_s:.1}"),
            gph_cell.clone(),
        ]);
    }
    table.print();
    println!(
        "GPH's cell decomposes into offline partitioning + (indexing and \
         estimator build); both are computed once and reused for every τ, \
         matching the constant column of Table IV.\n"
    );
}
