//! Network serving end to end in one process: build a sharded index,
//! put a [`NetServer`] in front of it on an ephemeral loopback port, and
//! drive it with four concurrent pipelined [`GphClient`]s — searches,
//! top-k, a batch, and live mutations (with the result cache's answer to
//! each) — then shut down gracefully.
//!
//! ```text
//! cargo run --release --example network_service
//! ```

use gph_suite::datagen::Profile;
use gph_suite::gph::engine::GphConfig;
use gph_suite::net::{GphClient, NetServer, ServerConfig, WireMutation};
use gph_suite::serve::{QueryService, ServiceConfig, ShardedIndex};
use std::sync::Arc;
use std::time::Instant;

const TAU: u32 = 12;
const CLIENTS: usize = 4;
const DEPTH: usize = 8;
const QUERIES_PER_CLIENT: usize = 250;

fn main() {
    // 1. Data and index: skewed 128-bit codes over 2 shards.
    let profile = Profile::synthetic_gamma(0.25);
    let data = profile.generate(8_000, 17);
    let cfg = GphConfig::new(GphConfig::suggested_m(data.dim()), 16);
    let t0 = Instant::now();
    let index = Arc::new(ShardedIndex::build(&data, 2, &cfg).expect("build shards"));
    println!("built {} rows over 2 shards in {:.1}s", index.len(), t0.elapsed().as_secs_f64());

    // 2. Service + TCP server on an ephemeral port.
    let service = Arc::new(QueryService::new(Arc::clone(&index), ServiceConfig::default()));
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&service), ServerConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr();
    println!("serving on {addr}");

    // 3. Four clients, each pipelining DEPTH searches at a time over its
    //    own connection, cross-checking against the local index.
    let t1 = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let data = data.clone();
            let index = Arc::clone(&index);
            std::thread::spawn(move || {
                let client = GphClient::connect(addr).expect("connect");
                let mut inflight = std::collections::VecDeque::new();
                let mut results = 0usize;
                for i in 0..QUERIES_PER_CLIENT {
                    let qi = (c * 31 + i * 7) % data.len();
                    inflight.push_back((qi, client.submit_search(data.row(qi), TAU).unwrap()));
                    if inflight.len() >= DEPTH {
                        let (qi, t) = inflight.pop_front().unwrap();
                        let got = t.wait().expect("pipelined response");
                        assert_eq!(got.ids, index.search(data.row(qi), TAU), "remote != local");
                        results += got.ids.len();
                    }
                }
                for (qi, t) in inflight {
                    let got = t.wait().expect("pipelined response");
                    assert_eq!(got.ids, index.search(data.row(qi), TAU), "remote != local");
                    results += got.ids.len();
                }
                // One top-k and one batch per client, same cross-check.
                let hits = client.topk(data.row(c), 5).expect("topk").hits;
                assert_eq!(hits, index.search_topk(data.row(c), 5));
                let refs: Vec<&[u64]> =
                    (0..16).map(|i| data.row((c + i * 11) % data.len())).collect();
                let entries = client.batch_search(&refs, TAU).expect("batch");
                assert_eq!(entries.len(), refs.len());
                results
            })
        })
        .collect();
    let total: usize = handles.into_iter().map(|h| h.join().expect("client thread")).sum();
    let elapsed = t1.elapsed().as_secs_f64();
    let n_queries = CLIENTS * (QUERIES_PER_CLIENT + 17);
    println!(
        "{CLIENTS} clients x {QUERIES_PER_CLIENT} pipelined queries (depth {DEPTH}): \
         {total} results in {elapsed:.2}s ({:.0} QPS over loopback)",
        n_queries as f64 / elapsed
    );

    // 4. Live mutations over the wire, and what they cost the result
    //    cache: a write drops only the cached answers it changes.
    let client = GphClient::connect(addr).expect("connect");
    let applied = |replaced| WireMutation::Applied { replaced };
    let q = data.row(0).to_vec();
    let first = client.search(&q, TAU).unwrap();
    assert!(client.search(&q, TAU).unwrap().from_cache, "a repeat is a cache hit");
    // A row 64 bits away and the delete of an id the answer does not
    // hold cannot change it: the third read is still served from cache.
    let (mut far, mut near) = (q.clone(), q.clone());
    far[0] = !far[0];
    near[0] ^= 1;
    let bystander = (0..data.len() as u32).find(|id| !first.ids.contains(id)).unwrap();
    assert_eq!(client.insert(900_000, &far).unwrap(), applied(false));
    assert_eq!(client.delete(bystander).unwrap(), applied(true));
    let third = client.search(&q, TAU).unwrap();
    assert!(third.from_cache && third.ids == first.ids, "far writes keep the cached answer");
    // A row one bit away lies inside the radius: the entry is dropped
    // and the fresh answer holds the new id.
    assert_eq!(client.insert(900_001, &near).unwrap(), applied(false));
    let fourth = client.search(&q, TAU).unwrap();
    assert!(!fourth.from_cache && fourth.ids.contains(&900_001), "a near write must be seen");
    assert_eq!(client.delete(900_001).unwrap(), applied(true));
    assert_eq!(client.delete(900_001).unwrap(), WireMutation::NotFound);
    println!("live writes round-tripped over the wire; only the near one cost a cached answer");

    // 5. What the server is (Health) and what it has counted (Metrics),
    //    then graceful shutdown (drains in-flight work).
    let health = client.health().expect("health");
    let exp = gph_suite::obs::Exposition::parse(&client.metrics().expect("metrics"));
    let val = |series: &str| exp.value(series).unwrap_or(0.0);
    let (hits, misses) = (val("gph_cache_hits"), val("gph_cache_misses"));
    println!(
        "server: {} rows x {} dims, p50 {:.2} ms, p95 {:.2} ms, cache hit rate {:.0}%",
        health.rows,
        health.dim,
        val("gph_latency_ns{quantile=\"0.5\"}") / 1e6,
        val("gph_latency_ns{quantile=\"0.95\"}") / 1e6,
        hits / (hits + misses).max(1.0) * 100.0
    );
    let stats = server.shutdown();
    println!(
        "shutdown: {} connections served, {} requests, {} B in, {} B out",
        stats.connections_opened, stats.requests, stats.bytes_in, stats.bytes_out
    );
}
