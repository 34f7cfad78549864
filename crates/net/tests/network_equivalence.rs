//! End-to-end network equivalence: a server on an ephemeral loopback
//! port, driven by 4 concurrent pipelined clients issuing
//! search/topk/batch/insert/delete/upsert, must answer every request
//! with exactly what the same call produces on the in-process
//! [`QueryService`].

use gph::engine::GphConfig;
use gph::partition_opt::PartitionStrategy;
use gph_net::protocol::{encode_request, read_frame, Message};
use gph_net::{
    BatchEntry, ClientConfig, GphClient, NetError, NetServer, Request, Response, SearchEntry,
    ServerConfig, WireError, WireMutation,
};
use gph_serve::{
    AdmissionConfig, Outcome, OverBudgetPolicy, QueryService, ServiceConfig, ShardedIndex,
};
use hamming_core::distance::hamming;
use hamming_core::{BitVector, Dataset};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

const DIM: usize = 64;
const TAU: u32 = 6;
const CLIENTS: usize = 4;
const DEPTH: usize = 8;

fn fixture(n: usize, seed: u64) -> (Arc<ShardedIndex>, Dataset) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut ds = Dataset::new(DIM);
    for _ in 0..n {
        let v = BitVector::from_bits((0..DIM).map(|_| rng.random_bool(0.4)));
        ds.push(&v).unwrap();
    }
    let mut cfg = GphConfig::new(4, 12);
    cfg.strategy = PartitionStrategy::RandomShuffle { seed: 7 };
    (Arc::new(ShardedIndex::build(&ds, 3, &cfg).unwrap()), ds)
}

/// The marker row each client mutates: high bit set plus the id in the
/// low word — far from every dataset row (asserted below), so mutations
/// cannot perturb concurrent searches at `TAU`.
fn marker_row(id: u32) -> Vec<u64> {
    vec![0x8000_0000_0000_0000u64 | id as u64]
}

#[test]
fn four_pipelined_clients_match_the_in_process_service() {
    let (index, ds) = fixture(400, 42);
    let service = Arc::new(QueryService::new(Arc::clone(&index), ServiceConfig::default()));
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&service), ServerConfig::default())
        .expect("bind ephemeral loopback port");
    let addr = server.local_addr();

    // Guard the concurrency design: every marker row must sit further
    // than TAU from every dataset row, so client mutations are invisible
    // to the other clients' searches.
    for t in 0..CLIENTS as u32 {
        for j in 0..40 {
            let row = marker_row(10_000 + t * 1_000 + j);
            for i in 0..ds.len() {
                assert!(hamming(&row, ds.row(i)) > TAU, "fixture violates isolation");
            }
        }
    }

    let threads: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let service = Arc::clone(&service);
            let ds = ds.clone();
            std::thread::spawn(move || {
                let client = GphClient::connect(addr).expect("connect");
                let base = 10_000 + t as u32 * 1_000;

                // Pipelined searches at depth DEPTH, compared
                // one-for-one with the in-process service.
                let queries: Vec<usize> = (0..32).map(|i| (t * 97 + i * 13) % ds.len()).collect();
                let mut tickets = std::collections::VecDeque::new();
                for &qi in &queries {
                    tickets.push_back((qi, client.submit_search(ds.row(qi), TAU).unwrap()));
                    if tickets.len() >= DEPTH {
                        let (qi, ticket) = tickets.pop_front().unwrap();
                        check_search(&service, &ds, qi, ticket.wait().unwrap());
                    }
                }
                for (qi, ticket) in tickets {
                    check_search(&service, &ds, qi, ticket.wait().unwrap());
                }

                // Top-k, remote vs in-process.
                for &qi in queries.iter().take(8) {
                    let remote = client.topk(ds.row(qi), 5).unwrap();
                    let direct = service.query_topk(ds.row(qi), 5);
                    match direct.outcome {
                        Outcome::TopK { hits, degraded_cap } => {
                            assert_eq!(remote.hits, *hits);
                            assert_eq!(remote.degraded_cap, degraded_cap);
                        }
                        other => panic!("unexpected direct outcome {other:?}"),
                    }
                }

                // A batch is one wire frame and one service job; entries
                // come back in submission order.
                let batch_refs: Vec<&[u64]> =
                    queries.iter().take(6).map(|&qi| ds.row(qi)).collect();
                let entries = client.batch_search(&batch_refs, TAU).unwrap();
                assert_eq!(entries.len(), batch_refs.len());
                for (&qi, entry) in queries.iter().zip(&entries) {
                    match entry {
                        BatchEntry::Ids(r) => {
                            assert_eq!(r.ids, index_search(&service, &ds, qi), "batch entry")
                        }
                        other => panic!("unexpected batch entry {other:?}"),
                    }
                }

                // Mutations on this client's private id range, pipelined,
                // each outcome equal to what the in-process call reports.
                for j in 0..20 {
                    let id = base + j;
                    let row = marker_row(id);
                    assert_eq!(
                        client.insert(id, &row).unwrap(),
                        WireMutation::Applied { replaced: false }
                    );
                    // tau=0 search sees exactly the inserted row.
                    let seen = client.search(&row, 0).unwrap();
                    assert_eq!(seen.ids, vec![id], "inserted row must be visible");
                    // Duplicate insert is an engine error remotely, an
                    // Err on the in-process service.
                    assert!(service.index().contains(id));
                    match client.insert(id, &row) {
                        Err(NetError::Remote(WireError::Engine(_))) => {}
                        other => panic!("duplicate insert gave {other:?}"),
                    }
                    assert_eq!(
                        client.upsert(id, &row).unwrap(),
                        WireMutation::Applied { replaced: true }
                    );
                    assert_eq!(
                        client.delete(id).unwrap(),
                        WireMutation::Applied { replaced: true }
                    );
                    assert_eq!(client.delete(id).unwrap(), WireMutation::NotFound);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client threads succeed");
    }

    // After the storm: the fleet holds exactly the original rows again,
    // and the remote shape (Health) and counters (Metrics) agree with
    // the in-process state.
    assert_eq!(service.index().len(), 400);
    let client = GphClient::connect(addr).unwrap();
    let remote = client.health().unwrap();
    assert_eq!(remote.rows, 400);
    assert_eq!(remote.dim, DIM as u32);
    assert_eq!(remote.tau_max, service.index().tau_max() as u32);
    let exposition = gph_obs::Exposition::parse(&client.metrics().unwrap());
    assert_eq!(exposition.value("gph_index_shards"), Some(3.0));
    assert!(exposition.value("gph_responses_total").unwrap() > 0.0);
    assert!(client.ping().is_ok());

    let stats = server.shutdown();
    assert!(stats.connections_opened > CLIENTS as u64);
    assert_eq!(stats.protocol_errors, 0, "no malformed traffic in this test");
    assert!(stats.requests > 0 && stats.responses > 0);
    assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
}

fn index_search(service: &QueryService, ds: &Dataset, qi: usize) -> Vec<u32> {
    match service.query(ds.row(qi), TAU).outcome {
        Outcome::Ids { ids, .. } => ids.as_ref().clone(),
        other => panic!("unexpected direct outcome {other:?}"),
    }
}

fn check_search(service: &QueryService, ds: &Dataset, qi: usize, remote: gph_net::RangeResult) {
    assert_eq!(remote.ids, index_search(service, ds, qi), "query {qi}");
    assert_eq!(remote.tau, TAU);
    assert_eq!(remote.degraded_from, None);
}

/// The ISSUE's acceptance check: a traced network query returns its own
/// per-phase trace whose phase-time sum fits inside the measured
/// end-to-end latency, and a Metrics scrape over the wire parses as
/// Prometheus text containing the core series.
#[test]
fn traced_search_and_metrics_over_the_wire() {
    let (index, ds) = fixture(400, 46);
    let service = Arc::new(QueryService::new(Arc::clone(&index), ServiceConfig::default()));
    let server =
        NetServer::bind("127.0.0.1:0", Arc::clone(&service), ServerConfig::default()).unwrap();
    let client = GphClient::connect(server.local_addr()).unwrap();

    for qi in [0usize, 31, 77] {
        let t0 = std::time::Instant::now();
        let traced = client.search_traced(ds.row(qi), TAU).unwrap();
        let e2e_ns = t0.elapsed().as_nanos() as u64;
        assert_eq!(traced.result.ids, index.search(ds.row(qi), TAU), "query {qi}");
        let trace = traced.trace.expect("executed traced searches carry a trace");
        assert_eq!(trace.tau, TAU);
        assert_eq!(trace.shards.len(), index.num_shards());
        let phase_sum = trace.phase_totals().total();
        assert!(
            phase_sum <= trace.total_ns && trace.total_ns <= e2e_ns,
            "phase sum {phase_sum} ≤ engine wall {} ≤ end-to-end {e2e_ns}",
            trace.total_ns
        );
    }
    // Traced searches bypass the cache on lookup but still store, so a
    // plain repeat of the same query is a hit.
    assert!(client.search(ds.row(0), TAU).unwrap().from_cache);

    let text = client.metrics().unwrap();
    for series in [
        "# TYPE gph_responses_total counter",
        "# TYPE gph_latency_ns summary",
        "# TYPE gph_cache_hits gauge",
        "gph_index_rows 400",
        "gph_index_shards 3",
        "gph_query_phase_ns{phase=\"verify\",quantile=\"0.99\"}",
    ] {
        assert!(text.contains(series), "exposition missing {series:?}:\n{text}");
    }
    // Every non-comment line is `name{labels} value` with a finite value.
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(value.parse::<f64>().unwrap().is_finite(), "bad sample line {line:?}");
    }
}

#[test]
fn admission_rejections_travel_as_typed_error_frames() {
    let (index, ds) = fixture(200, 43);
    let cfg = ServiceConfig {
        admission: AdmissionConfig { cost_budget: 0.0, policy: OverBudgetPolicy::Reject },
        ..ServiceConfig::default()
    };
    let service = Arc::new(QueryService::new(index, cfg));
    let server =
        NetServer::bind("127.0.0.1:0", Arc::clone(&service), ServerConfig::default()).unwrap();
    let client = GphClient::connect(server.local_addr()).unwrap();

    let direct = service.query(ds.row(0), TAU);
    let (direct_cost, direct_budget) = match direct.outcome {
        Outcome::Rejected { estimated_cost, budget } => (estimated_cost, budget),
        other => panic!("expected a rejection, got {other:?}"),
    };
    let err = client.search(ds.row(0), TAU).expect_err("zero budget rejects");
    let (cost, budget) = err.rejected().expect("typed rejection");
    assert_eq!((cost, budget), (direct_cost, direct_budget));

    // Mutations are priced too.
    let err = client.insert(99_999, &marker_row(99_999)).expect_err("zero budget");
    assert!(err.rejected().is_some());

    // Top-k rejections carry the same shape.
    let err = client.topk(ds.row(1), 3).expect_err("zero budget rejects top-k");
    assert!(err.rejected().is_some());
}

#[test]
fn structural_misuse_gets_unsupported_errors_and_the_connection_survives() {
    let (index, ds) = fixture(150, 44);
    let service = Arc::new(QueryService::new(index, ServiceConfig::default()));
    let server =
        NetServer::bind("127.0.0.1:0", Arc::clone(&service), ServerConfig::default()).unwrap();
    let client = GphClient::connect(server.local_addr()).unwrap();

    // Wrong word count.
    match client.search(&[1, 2, 3], TAU) {
        Err(NetError::Remote(WireError::Unsupported(_))) => {}
        other => panic!("wrong-width query gave {other:?}"),
    }
    // tau over the index ceiling.
    let too_big = service.index().tau_max() as u32 + 1;
    match client.search(ds.row(0), too_big) {
        Err(NetError::Remote(WireError::Unsupported(_))) => {}
        other => panic!("oversized tau gave {other:?}"),
    }
    // The connection is still usable afterwards: these were typed
    // errors, not framing failures.
    let ok = client.search(ds.row(0), TAU).unwrap();
    assert!(!ok.ids.is_empty());
    assert_eq!(server.stats().protocol_errors, 0);
}

#[test]
fn shutdown_drains_pipelined_work() {
    let (index, ds) = fixture(300, 45);
    let service = Arc::new(QueryService::new(index, ServiceConfig::default()));
    let server =
        NetServer::bind("127.0.0.1:0", Arc::clone(&service), ServerConfig::default()).unwrap();
    let client = GphClient::connect(server.local_addr()).unwrap();

    let tickets: Vec<_> =
        (0..24).map(|i| client.submit_search(ds.row(i * 7), TAU).unwrap()).collect();
    // Let the frames land in the server's per-connection queue, then
    // shut down while responses may still be in flight.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let stats = server.shutdown();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let got = ticket.wait().unwrap_or_else(|e| panic!("ticket {i} lost in shutdown: {e}"));
        assert_eq!(got.ids, index_search(&service, &ds, (i * 7) % ds.len()));
    }
    assert_eq!(stats.responses, 24, "every accepted request was answered");

    // New work after shutdown fails with a transport error.
    assert!(client.search(ds.row(0), TAU).is_err());
}

/// A reply that is ready when the request is decoded — a cache hit, a
/// batch of hits, an admission rejection — is answered by the event
/// worker itself and never visits the resolver pool; a miss does. Either
/// way responses leave in request order.
#[test]
fn ready_replies_skip_the_resolver_pool_and_keep_request_order() {
    let (index, ds) = fixture(300, 47);
    let service = Arc::new(QueryService::new(Arc::clone(&index), ServiceConfig::default()));
    let server =
        NetServer::bind("127.0.0.1:0", Arc::clone(&service), ServerConfig::default()).unwrap();
    let client = GphClient::connect(server.local_addr()).unwrap();
    let deferred = || server.stats().deferred;

    assert!(!client.search(ds.row(0), TAU).unwrap().from_cache);
    assert_eq!(deferred(), 1, "a miss waits on the resolver pool");

    // [miss, hit, miss, hit] pipelined on one raw socket: the wire order
    // itself is visible, not just what a ticket demultiplexes.
    let mut sock = std::net::TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let rows = [1usize, 0, 2, 0];
    let mut pipelined = Vec::new();
    for (i, &qi) in rows.iter().enumerate() {
        let req = Request::Search { tau: TAU, query: ds.row(qi).to_vec() };
        pipelined.extend_from_slice(&encode_request(i as u64 + 1, &req));
    }
    sock.write_all(&pipelined).unwrap();
    for (i, &qi) in rows.iter().enumerate() {
        let (id, msg, _) = read_frame(&mut sock).unwrap().expect("a response, not EOF");
        assert_eq!(id, i as u64 + 1, "responses leave in request order");
        match msg {
            Message::Response(Response::Search(SearchEntry::Ids { ids, from_cache, .. })) => {
                assert_eq!(ids, index.search(ds.row(qi), TAU), "request {id}");
                assert_eq!(from_cache, qi == 0, "request {id}");
            }
            other => panic!("request {id} got {other:?}"),
        }
    }
    assert_eq!(deferred(), 3, "the two misses moved it, the two hits did not");

    // A batch whose every entry is cached is ready as a whole.
    let batch: Vec<&[u64]> = (0..3).map(|qi| ds.row(qi)).collect();
    for (qi, entry) in client.batch_search(&batch, TAU).unwrap().into_iter().enumerate() {
        match entry {
            BatchEntry::Ids(r) => {
                assert!(r.from_cache);
                assert_eq!(r.ids, index.search(ds.row(qi), TAU));
            }
            other => panic!("batch entry {qi} was {other:?}"),
        }
    }
    assert_eq!(deferred(), 3);

    // Top-k: the first read runs the engine, the repeat is a lookup.
    let cold = client.topk(ds.row(5), 4).unwrap();
    assert!(!cold.from_cache);
    assert_eq!(deferred(), 4);
    let warm = client.topk(ds.row(5), 4).unwrap();
    assert!(warm.from_cache);
    assert_eq!(warm.hits, cold.hits);
    assert_eq!(deferred(), 4);
    let stats = server.shutdown();
    assert_eq!(stats.responses, stats.requests);

    // Rejections resolve at admission, before anything is queued.
    let cfg = ServiceConfig {
        admission: AdmissionConfig { cost_budget: 0.0, policy: OverBudgetPolicy::Reject },
        ..ServiceConfig::default()
    };
    let service = Arc::new(QueryService::new(index, cfg));
    let server = NetServer::bind("127.0.0.1:0", service, ServerConfig::default()).unwrap();
    let client = GphClient::connect(server.local_addr()).unwrap();
    assert!(client.search(ds.row(0), TAU).expect_err("zero budget").rejected().is_some());
    assert!(client.search_traced(ds.row(0), TAU).expect_err("zero budget").rejected().is_some());
    assert!(client.topk(ds.row(0), 3).expect_err("zero budget").rejected().is_some());
    let entries = client.batch_search(&[ds.row(0), ds.row(1)], TAU).unwrap();
    assert!(entries.iter().all(|e| matches!(e, BatchEntry::Rejected { .. })), "{entries:?}");
    let stats = server.shutdown();
    assert_eq!((stats.responses, stats.deferred), (4, 0));
}

/// Four threads pipelining on *one* socket: whichever of them is blocked
/// reads for all, and each still gets exactly its own answers.
#[test]
fn four_threads_sharing_one_connection_match_the_in_process_service() {
    let (index, ds) = fixture(400, 48);
    let service = Arc::new(QueryService::new(index, ServiceConfig::default()));
    let server =
        NetServer::bind("127.0.0.1:0", Arc::clone(&service), ServerConfig::default()).unwrap();
    let cfg = ClientConfig { connections: 1, ..ClientConfig::default() };
    let client = Arc::new(GphClient::connect_with(server.local_addr(), cfg).unwrap());

    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let (client, service, ds) = (&client, &service, &ds);
            scope.spawn(move || {
                let mut tickets = std::collections::VecDeque::new();
                for i in 0..64 {
                    let qi = (t * 101 + i * 7) % ds.len();
                    tickets.push_back((qi, client.submit_search(ds.row(qi), TAU).unwrap()));
                    if tickets.len() >= DEPTH {
                        let (qi, ticket) = tickets.pop_front().unwrap();
                        check_search(service, ds, qi, ticket.wait().unwrap());
                    }
                }
                for (qi, ticket) in tickets {
                    check_search(service, ds, qi, ticket.wait().unwrap());
                }
            });
        }
    });
    let stats = server.shutdown();
    assert_eq!(stats.connections_opened, 1);
    assert_eq!((stats.requests, stats.responses), (4 * 64, 4 * 64));
}

/// A client may submit everything before it waits on anything. Here that
/// is far more than both sockets' buffers and the server's write-buffer
/// cap hold, so the server stops reading until somebody drains its
/// responses and the client's `submit` is refused by its own socket: a
/// client that only read inside `wait` would sit there forever.
#[test]
fn pipelining_past_every_buffer_before_the_first_wait_still_completes() {
    const BATCHES: usize = 1000;
    const QUERIES: usize = 2048;
    let (index, _) = fixture(200, 49);
    let service = Arc::new(QueryService::new(index, ServiceConfig::default()));
    let cfg = ServerConfig { max_write_buffer: 16 * 1024, ..ServerConfig::default() };
    let server = NetServer::bind("127.0.0.1:0", service, cfg).unwrap();
    let client = GphClient::connect(server.local_addr()).unwrap();

    // One query, far from every row (no ids to carry) and cached after
    // the first read: the work is framing and buffering, not searching.
    let query = marker_row(7);
    assert!(client.search(&query, TAU).unwrap().ids.is_empty());

    let (finished, watchdog) = std::sync::mpsc::channel();
    let pipeliner = std::thread::spawn(move || {
        let batch = vec![query.as_slice(); QUERIES];
        let tickets: Vec<_> =
            (0..BATCHES).map(|_| client.submit_batch_search(&batch, TAU).unwrap()).collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let entries = ticket.wait().unwrap_or_else(|e| panic!("batch {i}: {e}"));
            assert_eq!(entries.len(), QUERIES, "batch {i}");
            let hit = |e: &BatchEntry| matches!(e, BatchEntry::Ids(r) if r.ids.is_empty());
            assert!(entries.iter().all(hit), "batch {i}");
        }
        finished.send(()).unwrap();
    });
    if watchdog.recv_timeout(Duration::from_secs(60)).is_err() {
        // Fail rather than hang: the server's graceful drain would wait
        // on the jammed connection as well.
        std::mem::forget(server);
        panic!("the pipelined exchange deadlocked (or a batch came back wrong)");
    }
    pipeliner.join().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.responses, BATCHES as u64 + 1);
    assert!(stats.backpressure_pauses > 0, "the server never hit its cap: {stats:?}");
}
