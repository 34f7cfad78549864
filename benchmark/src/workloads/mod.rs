//! The four workloads. Each generates its inputs from the seed, then
//! hands itself to the shared round loop in [`crate::harness`].

mod cold_restart;
mod engine_range;
mod net_cached;
mod serve_mixed;

use crate::harness::{self, mean_ns, Opts, Report};
use gph_serve::{CacheKey, CachedResult, ResultCache};
use hamming_core::Dataset;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// Runs workload `name`; `tmp` is an existing directory for its
/// temporary files, removed by the caller.
pub fn run(name: &str, opts: &Opts, tmp: &Path) -> Result<Report, String> {
    match name {
        "engine-range" => harness::run(&engine_range::EngineRange::generate(opts), opts),
        "serve-mixed" => harness::run(&serve_mixed::ServeMixed::generate(opts, tmp), opts),
        "net-cached" => harness::run(&net_cached::NetCached::generate(opts), opts),
        "cold-restart" => harness::run(&cold_restart::ColdRestart::generate(opts, tmp), opts),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Nanoseconds per `ResultCache::lookup` hit, with `queries` resident:
/// the layer both served workloads' reads pass first.
fn cache_lookup_ns(queries: &Dataset) -> f64 {
    let cache = ResultCache::new(1024);
    let keys: Vec<CacheKey> = (0..queries.len().min(512))
        .map(|k| CacheKey::Range { query: queries.row(k).to_vec(), tau: 8 })
        .collect();
    let ids = Arc::new(vec![1, 2, 3]);
    for key in &keys {
        cache.store(key.clone(), CachedResult::Range { ids: Arc::clone(&ids), effective_tau: 8 });
    }
    mean_ns(200_000, |i| {
        black_box(cache.lookup(&keys[i % keys.len()]));
    })
}
