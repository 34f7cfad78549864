//! Service-level metrics: lock-free counters and the latency histogram
//! (both registered in a `gph-obs` [`MetricsRegistry`], whose rendering
//! is the only way they leave the process) and the in-process aggregate
//! snapshot (QPS, p50/p95/p99, candidates per query).

use gph_obs::{Counter, Histogram, MetricsRegistry};
use std::time::Instant;

/// Rolling counters owned by the service, aggregated across workers.
///
/// Every counter is a `gph-obs` handle registered by
/// [`ServiceMetrics::registered`], so the registry's Prometheus
/// rendering and [`ServiceMetrics::snapshot`] read the same cells.
pub struct ServiceMetrics {
    started: Instant,
    /// Responses produced (cache hits + engine executions; excludes
    /// rejections).
    responses: Counter,
    /// Queries executed on the engines (cache misses).
    executed: Counter,
    /// Batch jobs processed by workers.
    batches: Counter,
    /// Requests shed (resolved as `Overloaded`) on a full queue.
    queue_rejections: Counter,
    /// Mutations applied (inserts + deletes + upserts that changed data).
    mutations: Counter,
    /// Σ candidates verified across executed queries (summed over
    /// shards).
    candidates: Counter,
    /// Σ rows linear-scanned across executed queries (memtable scans +
    /// sealed-segment scan fallbacks, summed over shards).
    scanned: Counter,
    /// Σ results returned across executed queries.
    results: Counter,
    /// End-to-end latency (submit → response), including queue wait.
    pub(crate) latency: Histogram,
}

impl ServiceMetrics {
    /// Fresh metrics anchored at "now" (QPS denominators start here)
    /// whose counters and latency summary are registered in `registry`
    /// (series `gph_responses_total`, `gph_executed_total`, …,
    /// `gph_latency_ns`).
    pub fn registered(registry: &MetricsRegistry) -> Self {
        let c = |name, help| registry.counter(name, help, &[]);
        ServiceMetrics {
            started: Instant::now(),
            responses: c("gph_responses_total", "Responses produced (cache hits + executions)."),
            executed: c("gph_executed_total", "Queries executed on the engines (cache misses)."),
            batches: c("gph_batches_total", "Batch jobs processed by workers."),
            queue_rejections: c(
                "gph_queue_rejections_total",
                "Requests shed on a full worker queue.",
            ),
            mutations: c("gph_mutations_total", "Mutations applied (insert/delete/upsert)."),
            candidates: c("gph_candidates_total", "Candidates verified across executed queries."),
            scanned: c(
                "gph_scanned_total",
                "Rows linear-scanned across executed queries (memtable + fallback).",
            ),
            results: c("gph_results_total", "Results returned across executed queries."),
            latency: registry.histogram(
                "gph_latency_ns",
                "End-to-end response latency in nanoseconds (submit to response).",
                &[],
            ),
        }
    }

    pub(crate) fn note_response(&self, latency_ns: u64) {
        self.responses.inc();
        self.latency.record(latency_ns);
    }

    pub(crate) fn note_execution(&self, candidates: u64, scanned: u64, results: u64) {
        self.executed.inc();
        self.candidates.add(candidates);
        self.scanned.add(scanned);
        self.results.add(results);
    }

    pub(crate) fn note_batch(&self) {
        self.batches.inc();
    }

    pub(crate) fn note_queue_rejection(&self) {
        self.queue_rejections.inc();
    }

    pub(crate) fn note_mutation(&self) {
        self.mutations.inc();
    }

    /// Aggregate snapshot (see [`ServiceStats`] fields).
    pub fn snapshot(&self) -> ServiceStats {
        let responses = self.responses.get();
        let executed = self.executed.get();
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let per_query =
            |total: u64| if executed == 0 { 0.0 } else { total as f64 / executed as f64 };
        let latency = self.latency.inner();
        ServiceStats {
            responses,
            executed,
            batches: self.batches.get(),
            queue_rejections: self.queue_rejections.get(),
            mutations: self.mutations.get(),
            qps: responses as f64 / elapsed,
            latency_p50_ns: latency.quantile(0.50),
            latency_p95_ns: latency.quantile(0.95),
            latency_p99_ns: latency.quantile(0.99),
            latency_mean_ns: latency.mean(),
            latency_max_ns: latency.max(),
            candidates_per_query: per_query(self.candidates.get()),
            scanned_per_query: per_query(self.scanned.get()),
            results_per_query: per_query(self.results.get()),
        }
    }
}

/// Point-in-time service statistics (one row of a dashboard).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServiceStats {
    /// Responses produced (cache hits + executions; excludes rejects).
    pub responses: u64,
    /// Queries executed on the engines (cache misses).
    pub executed: u64,
    /// Batch jobs processed.
    pub batches: u64,
    /// Requests shed (resolved as `Overloaded`) on a full queue.
    pub queue_rejections: u64,
    /// Mutations applied (inserts + deletes + upserts that changed data).
    pub mutations: u64,
    /// Responses per second since service start.
    pub qps: f64,
    /// Median end-to-end latency (ns).
    pub latency_p50_ns: u64,
    /// 95th-percentile end-to-end latency (ns).
    pub latency_p95_ns: u64,
    /// 99th-percentile end-to-end latency (ns).
    pub latency_p99_ns: u64,
    /// Mean end-to-end latency (ns).
    pub latency_mean_ns: f64,
    /// Worst observed latency (ns).
    pub latency_max_ns: u64,
    /// Mean candidates verified per executed query (summed over shards).
    pub candidates_per_query: f64,
    /// Mean rows linear-scanned per executed query (memtable scans plus
    /// sealed-segment scan fallbacks, summed over shards).
    pub scanned_per_query: f64,
    /// Mean results returned per executed query.
    pub results_per_query: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_snapshot_math() {
        let m = ServiceMetrics::registered(&MetricsRegistry::new());
        m.note_response(1_000);
        m.note_response(2_000);
        m.note_execution(50, 10, 5);
        m.note_execution(150, 30, 15);
        m.note_batch();
        m.note_queue_rejection();
        m.note_mutation();
        let s = m.snapshot();
        assert_eq!(s.responses, 2);
        assert_eq!(s.executed, 2);
        assert_eq!(s.batches, 1);
        assert_eq!(s.queue_rejections, 1);
        assert_eq!(s.mutations, 1);
        assert!(s.qps > 0.0);
        assert!((s.candidates_per_query - 100.0).abs() < 1e-9);
        assert!((s.scanned_per_query - 20.0).abs() < 1e-9);
        assert!((s.results_per_query - 10.0).abs() < 1e-9);
    }

    #[test]
    fn registered_metrics_surface_in_the_registry() {
        let registry = MetricsRegistry::new();
        let m = ServiceMetrics::registered(&registry);
        m.note_response(5_000);
        m.note_execution(10, 3, 2);
        let text = registry.render();
        assert!(text.contains("\ngph_responses_total 1\n"), "got:\n{text}");
        assert!(text.contains("\ngph_candidates_total 10\n"));
        assert!(text.contains("\ngph_scanned_total 3\n"));
        assert!(text.contains("gph_latency_ns_count 1"));
    }
}
