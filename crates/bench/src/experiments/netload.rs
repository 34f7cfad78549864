//! Loopback network load benchmark: C client threads, each pipelining
//! `DEPTH` requests over its own `GPHN` connection against a
//! [`NetServer`], swept over at least two concurrency levels. Headline
//! numbers (QPS, client-side p50/p95/p99, bytes per query) are written
//! to `BENCH_net.json`.
//!
//! This pins the network path under several pipelining clients —
//! framing, per-connection read/write decoupling, and the
//! scatter-gather behind it.
//! One query per run is cross-checked against a brute-force scan so a
//! correctness regression fails the job rather than skewing a number.

use crate::util::prepare;
use crate::Scale;
use datagen::Profile;
use gph::engine::GphConfig;
use gph_net::{GphClient, NetServer, ServerConfig};
use gph_serve::{QueryService, ServiceConfig, ShardedIndex};
use hamming_core::Dataset;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Shards behind the server.
const SHARDS: usize = 2;
/// Threshold the query stream uses.
const TAU: u32 = 16;
/// Requests in flight per connection.
const DEPTH: usize = 8;
/// Client-thread counts swept (the acceptance floor is two levels).
const LEVELS: [usize; 2] = [2, 4];

/// Runs the sweep and writes the JSON report to `BENCH_NET_OUT`
/// (default `BENCH_net.json`); any failure panics, which is what the CI
/// job wants to fail on.
pub fn run(scale: Scale) {
    let profile = Profile::synthetic_gamma(0.25);
    let qs = prepare(&profile, scale, 0x6E7A11);
    run_inner(&qs.data, &qs.queries, scale);
}

struct LevelResult {
    clients: usize,
    queries: u64,
    qps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    bytes_per_query: f64,
}

fn run_inner(data: &Dataset, queries: &Dataset, scale: Scale) {
    let cfg = GphConfig::new(GphConfig::suggested_m(data.dim()), TAU as usize);
    let t_build = Instant::now();
    let index = Arc::new(ShardedIndex::build(data, SHARDS, &cfg).expect("netload: build"));
    let build_s = t_build.elapsed().as_secs_f64();
    // Caching off: a benchmark over a small repeated query set would
    // otherwise measure the LRU, not the network + engine path.
    let service = Arc::new(QueryService::new(
        Arc::clone(&index),
        ServiceConfig { cache_capacity: 0, ..ServiceConfig::default() },
    ));
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&service), ServerConfig::default())
        .expect("netload: bind loopback");
    let addr = server.local_addr();

    // Correctness gate before the clock starts: one networked query must
    // equal a brute-force scan.
    let probe = queries.row(0);
    let client = GphClient::connect(addr).expect("netload: connect");
    let got = client.search(probe, TAU).expect("netload: probe query").ids;
    let expect: Vec<u32> = (0..data.len())
        .filter(|&i| hamming_core::distance::hamming_within(data.row(i), probe, TAU).is_some())
        .map(|i| i as u32)
        .collect();
    assert_eq!(got, expect, "netload: network path diverged from the brute-force scan");
    drop(client);

    let total_queries = (scale.base_rows / 2).max(1_000) as u64;
    let mut levels = Vec::new();
    for &clients in &LEVELS {
        let before = server.stats();
        let per_thread = total_queries / clients as u64;
        let t0 = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let queries = queries.clone();
                std::thread::spawn(move || {
                    let client = GphClient::connect(addr).expect("netload: connect");
                    let mut latencies = Vec::with_capacity(per_thread as usize);
                    let mut inflight = VecDeque::new();
                    for i in 0..per_thread {
                        let qi = ((c as u64 * 131 + i) % queries.len() as u64) as usize;
                        let ticket =
                            client.submit_search(queries.row(qi), TAU).expect("netload: submit");
                        inflight.push_back((Instant::now(), ticket));
                        if inflight.len() >= DEPTH {
                            let (t_submit, ticket) = inflight.pop_front().unwrap();
                            ticket.wait().expect("netload: response");
                            latencies.push(t_submit.elapsed().as_nanos() as u64);
                        }
                    }
                    for (t_submit, ticket) in inflight {
                        ticket.wait().expect("netload: response");
                        latencies.push(t_submit.elapsed().as_nanos() as u64);
                    }
                    latencies
                })
            })
            .collect();
        let mut latencies: Vec<u64> = Vec::new();
        for h in handles {
            latencies.extend(h.join().expect("netload: client thread"));
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let after = server.stats();
        latencies.sort_unstable();
        let ran = latencies.len() as u64;
        let pct = |q: f64| latencies[((q * ran as f64) as usize).min(latencies.len() - 1)];
        let wire_bytes = (after.bytes_in - before.bytes_in) + (after.bytes_out - before.bytes_out);
        levels.push(LevelResult {
            clients,
            queries: ran,
            qps: ran as f64 / elapsed,
            p50_ms: pct(0.50) as f64 / 1e6,
            p95_ms: pct(0.95) as f64 / 1e6,
            p99_ms: pct(0.99) as f64 / 1e6,
            bytes_per_query: wire_bytes as f64 / ran as f64,
        });
    }
    let server_stats = server.shutdown();
    assert_eq!(server_stats.protocol_errors, 0, "netload: malformed traffic");

    let level_json: Vec<String> = levels
        .iter()
        .map(|l| {
            format!(
                "    {{\"clients\": {}, \"queries\": {}, \"qps\": {:.1}, \"p50_ms\": {:.4}, \
                 \"p95_ms\": {:.4}, \"p99_ms\": {:.4}, \"bytes_per_query\": {:.1}}}",
                l.clients, l.queries, l.qps, l.p50_ms, l.p95_ms, l.p99_ms, l.bytes_per_query
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"netload\",\n  \"rows\": {},\n  \"dims\": {},\n  \
         \"shards\": {},\n  \"tau\": {},\n  \"pipeline_depth\": {},\n  \"build_s\": {:.4},\n  \
         \"levels\": [\n{}\n  ]\n}}\n",
        data.len(),
        data.dim(),
        SHARDS,
        TAU,
        DEPTH,
        build_s,
        level_json.join(",\n"),
    );
    let out = std::env::var("BENCH_NET_OUT").unwrap_or_else(|_| "BENCH_net.json".into());
    std::fs::write(&out, &json).expect("netload: write report");

    println!("## netload ({} rows, depth {DEPTH}, loopback)\n", data.len());
    println!("| clients | queries | QPS | p50 (ms) | p95 (ms) | p99 (ms) | bytes/query |");
    println!("|---|---|---|---|---|---|---|");
    for l in &levels {
        println!(
            "| {} | {} | {:.0} | {:.3} | {:.3} | {:.3} | {:.0} |",
            l.clients, l.queries, l.qps, l.p50_ms, l.p95_ms, l.p99_ms, l.bytes_per_query
        );
    }
    println!("\nreport written to {out}");
}
