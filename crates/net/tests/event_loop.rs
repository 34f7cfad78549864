//! Event-loop mechanics under adversarial clients: slow readers hit the
//! write-buffer cap (backpressure, not unbounded memory), idle
//! connections get evicted, a thousand concurrent idle connections fit
//! on a handful of threads (no thread-per-connection), the connection
//! cap refuses with a typed frame, and garbage bytes produce a typed
//! error — never a panic or a hang.

use gph_net::protocol::{encode_request, encode_response, read_frame, Message};
use gph_net::{
    EventLoop, FleetManifest, FleetNode, GphClient, MetastoreServer, Reply, Request,
    RequestHandler, Response, ServerConfig, WireError,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A manifest whose encoding is large (~64 KiB): one node owning one
/// slot, with `fat` kilobyte-sized addresses. Lets tests generate big
/// responses from a metastore with no index behind it.
fn fat_manifest(version: u64, addrs: usize) -> FleetManifest {
    FleetManifest {
        version,
        n_shards: 1,
        nodes: vec![FleetNode {
            slots: vec![0],
            addrs: (0..addrs).map(|i| format!("{i:01024}")).collect(),
        }],
    }
}

fn await_active(stats: impl Fn() -> u64, want: u64, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while stats() != want {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn slow_reader_backpressure_respects_the_write_buffer_cap() {
    const CAP: usize = 64 * 1024;
    const REQUESTS: u64 = 300;
    let cfg = ServerConfig { max_write_buffer: CAP, ..ServerConfig::default() };
    let server = MetastoreServer::bind("127.0.0.1:0", cfg).unwrap();

    let manifest = fat_manifest(1, 64);
    let frame_len =
        encode_response(1, &Response::Manifest { manifest: Some(manifest.clone()) }).len();
    assert!(frame_len > CAP / 2, "fixture response must be cap-sized, got {frame_len}");
    GphClient::connect(server.local_addr()).unwrap().publish_manifest(&manifest).unwrap();

    // A raw client that floods requests and reads nothing.
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    for id in 1..=REQUESTS {
        sock.write_all(&encode_request(id, &Request::GetManifest)).unwrap();
    }
    // Let the server read, resolve, and jam against the cap while the
    // socket stays unread.
    std::thread::sleep(Duration::from_millis(400));
    let jammed = server.stats();
    assert!(
        jammed.backpressure_pauses > 0,
        "a never-reading client must trip backpressure: {jammed:?}"
    );
    assert!(
        (jammed.write_buffer_peak as usize) < CAP + frame_len,
        "write buffer may overshoot the cap by at most one frame: peak {} vs cap {CAP} + frame {frame_len}",
        jammed.write_buffer_peak
    );

    // Now drain: every response arrives complete and in request order.
    let drain_started = Instant::now();
    for id in 1..=REQUESTS {
        let (got_id, msg, _) =
            read_frame(&mut sock).expect("clean frame").expect("server still serving");
        assert_eq!(got_id, id);
        match msg {
            Message::Response(Response::Manifest { manifest: Some(m) }) => {
                assert_eq!(m, manifest, "response {id} truncated or corrupted")
            }
            other => panic!("response {id} was {other:?}"),
        }
    }
    // A reader that has recovered is served at socket speed, not one
    // write buffer per poll timeout (250 ms × 300 responses ≈ 75 s).
    let drain = drain_started.elapsed();
    assert!(drain < Duration::from_secs(10), "draining {REQUESTS} responses took {drain:?}");
    let stats = server.shutdown();
    assert_eq!(stats.responses, REQUESTS + 1, "all requests answered (plus the publish)");
    assert!((stats.write_buffer_peak as usize) < CAP + frame_len);
}

#[test]
fn idle_connections_are_evicted_on_schedule() {
    let cfg =
        ServerConfig { idle_timeout: Some(Duration::from_millis(80)), ..ServerConfig::default() };
    let server = MetastoreServer::bind("127.0.0.1:0", cfg).unwrap();
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // Activity resets the clock: a served request keeps the connection.
    sock.write_all(&encode_request(1, &Request::Ping)).unwrap();
    let (id, msg, _) = read_frame(&mut sock).unwrap().expect("pong");
    assert_eq!((id, matches!(msg, Message::Response(Response::Pong))), (1, true));

    // Then silence: the server must close from its side.
    let t0 = Instant::now();
    assert!(
        read_frame(&mut sock).expect("clean EOF, not an error").is_none(),
        "idle connection must be evicted"
    );
    assert!(t0.elapsed() >= Duration::from_millis(40), "eviction honors the idle window");
    let stats = server.shutdown();
    assert_eq!(stats.idle_evictions, 1);
}

#[test]
fn a_thousand_idle_connections_share_a_handful_of_threads() {
    polling::raise_nofile_limit(8192);
    const CONNS: usize = 1000;
    let cfg = ServerConfig { max_connections: CONNS + 8, workers: 2, ..ServerConfig::default() };
    let server = MetastoreServer::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();

    let mut socks: Vec<TcpStream> = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        socks.push(TcpStream::connect(addr).unwrap_or_else(|e| panic!("conn {i}: {e}")));
        if i % 128 == 127 {
            // Let the acceptor keep ahead of the listener backlog.
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    await_active(|| server.stats().connections_active, CONNS as u64, "1000 registrations");

    // The whole point of the event loop: connection count must not show
    // up in the thread count. /proc/self/task counts every thread in
    // the test process (harness, sibling tests, clients included), so
    // the bound is generous — but three orders of magnitude below
    // thread-per-connection.
    let threads = std::fs::read_dir("/proc/self/task").unwrap().count();
    assert!(
        threads < 100,
        "{CONNS} idle connections must not cost per-connection threads (saw {threads})"
    );

    // The multiplexer still serves requests on arbitrary connections.
    for i in [0usize, CONNS / 2, CONNS - 1] {
        let sock = &mut socks[i];
        sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        sock.write_all(&encode_request(7, &Request::Ping)).unwrap();
        let (id, msg, _) = read_frame(sock).unwrap().expect("pong");
        assert_eq!(id, 7, "conn {i}");
        assert!(matches!(msg, Message::Response(Response::Pong)), "conn {i}");
    }

    drop(socks);
    await_active(|| server.stats().connections_active, 0, "teardown of 1000 connections");
    let stats = server.shutdown();
    assert_eq!(stats.connections_opened, CONNS as u64);
    assert_eq!(stats.connections_refused, 0);
}

#[test]
fn the_connection_cap_refuses_with_a_typed_frame() {
    let cfg = ServerConfig { max_connections: 2, ..ServerConfig::default() };
    let server = MetastoreServer::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();

    let keep: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
    await_active(|| server.stats().connections_active, 2, "2 registrations");

    // Over the cap: a typed Overloaded frame on the reserved id, then EOF.
    let mut refused = TcpStream::connect(addr).unwrap();
    refused.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let (id, msg, _) = read_frame(&mut refused).unwrap().expect("refusal frame");
    assert_eq!(id, 0, "connection-level refusal uses the reserved id");
    assert!(
        matches!(msg, Message::Response(Response::Error(WireError::Overloaded))),
        "got {msg:?}"
    );
    assert!(read_frame(&mut refused).unwrap().is_none(), "refused connection is closed");
    assert!(server.stats().connections_refused >= 1);

    // Freeing a slot readmits new connections.
    drop(keep);
    await_active(|| server.stats().connections_active, 0, "slots freed");
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    sock.write_all(&encode_request(1, &Request::Ping)).unwrap();
    assert!(read_frame(&mut sock).unwrap().is_some(), "readmitted connection is served");
    server.shutdown();
}

/// The event-loop counters are real metrics, not a side channel: every
/// series shows up in the server's own `Metrics` exposition under the
/// `gph_net_` prefix, with values agreeing with the stats snapshot. The
/// metastore answers every op in place, so nothing it serves is
/// deferred.
#[test]
fn event_loop_counters_appear_in_the_metrics_exposition() {
    let server = MetastoreServer::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = GphClient::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
    client.metrics().unwrap();
    assert_eq!(client.get_manifest().unwrap(), None);
    assert_eq!(client.publish_manifest(&fat_manifest(1, 1)).unwrap(), 1);
    assert_eq!(client.get_manifest().unwrap(), Some(fat_manifest(1, 1)));

    // Trip one protocol error on a second connection.
    let mut bad = TcpStream::connect(server.local_addr()).unwrap();
    bad.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    bad.write_all(b"GPHX not a frame").unwrap();
    let (id, msg, _) = read_frame(&mut bad).unwrap().expect("error frame");
    assert_eq!(id, 0);
    assert!(matches!(msg, Message::Response(Response::Error(WireError::Malformed(_)))));

    let text = client.metrics().unwrap();
    let exp = gph_obs::Exposition::parse(&text);
    for series in [
        "gph_net_connections_opened_total",
        "gph_net_connections_active",
        "gph_net_connections_refused_total",
        "gph_net_requests_total",
        "gph_net_responses_total",
        "gph_net_errors_sent_total",
        "gph_net_deferred_total",
        "gph_net_protocol_errors_total",
        "gph_net_bytes_in_total",
        "gph_net_bytes_out_total",
        "gph_net_idle_evictions_total",
        "gph_net_backpressure_pauses_total",
        "gph_net_write_buffer_peak",
    ] {
        assert!(exp.value(series).is_some(), "series {series} missing from:\n{text}");
    }
    assert!(exp.value("gph_net_connections_opened_total").unwrap() >= 2.0);
    assert_eq!(exp.value("gph_net_protocol_errors_total"), Some(1.0));
    assert_eq!(exp.value("gph_net_errors_sent_total"), Some(1.0));
    assert_eq!(exp.value("gph_net_deferred_total"), Some(0.0));
    // Ping, metrics, three manifest ops, plus the metrics request itself
    // (reads are counted on arrival, before the response renders).
    assert!(exp.value("gph_net_requests_total").unwrap() >= 6.0);
    assert!(exp.value("gph_net_bytes_in_total").unwrap() > 0.0);

    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 1, "snapshot and exposition agree");
    assert_eq!(stats.deferred, 0);
}

/// Answers `Delete { id }` with `ManifestAck { version: id }`: odd ids
/// in place, even ids on the resolver pool — where each closure of a
/// window of [`Scripted::WINDOW`] consecutive ones returns only after
/// its successor has, so deferred replies resolve in *reverse* request
/// order while ready ones sit in between.
struct Scripted {
    /// `finished[k]`: the `k`-th deferred closure has returned.
    finished: Arc<(Mutex<Vec<bool>>, Condvar)>,
}

impl Scripted {
    /// As many closures as the pool has threads: a window's closures all
    /// run at once, so the chain of waits always has a free end.
    const WINDOW: usize = 8;
    const REQUESTS: u32 = 512;
}

impl RequestHandler for Scripted {
    fn handle(&self, req: Request) -> Reply {
        let Request::Delete { id } = req else {
            return Reply::Now(Response::Error(WireError::Unsupported("not scripted".into())));
        };
        let echo = Response::ManifestAck { version: id as u64 };
        if id % 2 == 1 {
            return Reply::Now(echo);
        }
        let k = id as usize / 2 - 1;
        let finished = Arc::clone(&self.finished);
        Reply::Later(Box::new(move || {
            let (done, changed) = &*finished;
            let mut done = done.lock().unwrap();
            if k % Scripted::WINDOW != Scripted::WINDOW - 1 {
                done = changed.wait_while(done, |done| !done[k + 1]).unwrap();
            }
            done[k] = true;
            changed.notify_all();
            echo
        }))
    }
}

/// The ordering `NetServer` leans on when it answers a cache hit in
/// place: responses leave in request order whatever mix of ready and
/// deferred replies produced them and whatever order the deferred ones
/// resolve in.
#[test]
fn ready_and_deferred_replies_leave_in_request_order() {
    let deferred = Scripted::REQUESTS as usize / 2;
    assert_eq!(deferred % Scripted::WINDOW, 0, "whole windows only");
    let handler = Arc::new(Scripted {
        finished: Arc::new((Mutex::new(vec![false; deferred]), Condvar::new())),
    });
    let cfg = ServerConfig { workers: 1, resolvers: Scripted::WINDOW, ..ServerConfig::default() };
    let registry = gph_obs::MetricsRegistry::new();
    let server = EventLoop::bind("127.0.0.1:0", handler, cfg, &registry).unwrap();

    // Everything is on the wire before the first response is read.
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut pipelined = Vec::new();
    for id in 1..=Scripted::REQUESTS {
        pipelined.extend_from_slice(&encode_request(1000 + id as u64, &Request::Delete { id }));
    }
    sock.write_all(&pipelined).unwrap();

    for id in 1..=Scripted::REQUESTS as u64 {
        let (got_id, msg, _) = read_frame(&mut sock).expect("clean frame").expect("not EOF yet");
        assert_eq!(got_id, 1000 + id, "responses leave in request order");
        match msg {
            Message::Response(Response::ManifestAck { version }) => assert_eq!(version, id),
            other => panic!("response {id} was {other:?}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.requests, Scripted::REQUESTS as u64);
    assert_eq!(stats.responses, stats.requests, "nothing lost, nothing extra");
    assert_eq!(stats.deferred, deferred as u64);
    assert_eq!(stats.errors_sent, 0);
}

#[test]
fn garbage_bytes_get_a_typed_error_and_a_close() {
    let server = MetastoreServer::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    sock.write_all(b"this is not a GPHN frame at all").unwrap();

    let (id, msg, _) = read_frame(&mut sock).unwrap().expect("error frame before close");
    assert_eq!(id, 0);
    assert!(
        matches!(msg, Message::Response(Response::Error(WireError::Malformed(_)))),
        "got {msg:?}"
    );
    assert!(read_frame(&mut sock).unwrap().is_none(), "desynced connection is closed");
    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 1);
}
