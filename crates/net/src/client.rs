//! The blocking client: [`GphClient`] pools TCP connections and mirrors
//! the in-process submit/wait [`gph_serve::Ticket`] API over the wire.
//!
//! Every connection runs a background reader thread that demultiplexes
//! response frames by request id, so any number of requests can be **in
//! flight at once** on one socket (`submit_*` returns a [`NetTicket`];
//! `wait` blocks for that request's response only). The convenience
//! wrappers (`search`, `topk`, `insert`, ...) are submit-then-wait.
//!
//! Errors are typed: a server-side admission rejection arrives as
//! [`NetError::Remote`]`(`[`WireError::Rejected`]`)` with the estimated
//! cost and budget, distinct from transport failures ([`NetError::Io`],
//! [`NetError::Closed`]) and framing corruption
//! ([`NetError::Protocol`]).

use crate::protocol::{
    encode_request, read_frame, FleetManifest, Message, NodeHealth, NodeScrape, Request, Response,
    SearchEntry, WireError, WireMutation,
};
use crate::NetError;
use crossbeam::channel;
use gph_obs::QueryTrace;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client knobs.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// TCP connections in the pool; requests round-robin across them.
    pub connections: usize,
    /// Disable Nagle's algorithm (recommended: frames are whole
    /// requests, batching them adds pure latency).
    pub nodelay: bool,
    /// Bound on each pooled connection's TCP connect; `None` (the
    /// default) uses the OS default. Scrapers and health probes set
    /// this so an unresponsive host costs a bounded wait.
    pub connect_timeout: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig { connections: 1, nodelay: true, connect_timeout: None }
    }
}

/// A range-search result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangeResult {
    /// Matching record ids, ascending.
    pub ids: Vec<u32>,
    /// Threshold actually executed.
    pub tau: u32,
    /// Set when admission degraded the query: the threshold asked for.
    pub degraded_from: Option<u32>,
    /// Whether the server answered from its result cache.
    pub from_cache: bool,
}

/// A top-k result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopKResult {
    /// `(id, distance)` ascending by `(distance, id)`.
    pub hits: Vec<(u32, u32)>,
    /// Set when admission degraded the query: the escalation cap run.
    pub degraded_cap: Option<u32>,
    /// Whether the server answered from its result cache.
    pub from_cache: bool,
}

/// One entry of a batch-search response (rejections and load shedding
/// are in-band here, unlike single searches where they are typed
/// errors).
#[derive(Clone, Debug, PartialEq)]
pub enum BatchEntry {
    /// The search ran.
    Ids(RangeResult),
    /// Admission refused this query.
    Rejected {
        /// Estimated cost at the requested threshold.
        estimated_cost: f64,
        /// Budget it exceeded.
        budget: f64,
    },
    /// The server shed this query under load.
    Overloaded,
}

/// A traced range-search result: the hits plus the query's own
/// per-phase execution trace.
#[derive(Clone, Debug, PartialEq)]
pub struct TracedResult {
    /// The search outcome.
    pub result: RangeResult,
    /// The query's per-phase trace. `None` only if the server elided it
    /// (current servers always attach one to executed searches).
    pub trace: Option<QueryTrace>,
}

/// A metastore's `AggregateMetrics` reply: the fleet-merged exposition
/// plus every node's individual scrape outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetMetrics {
    /// Merged Prometheus exposition over the metastore and every fresh
    /// node scrape.
    pub merged: String,
    /// Per-node outcomes; stale nodes carry their scrape error.
    pub nodes: Vec<NodeScrape>,
}

type ReplySender = channel::Sender<Result<Response, NetError>>;

/// State shared between a connection and its reader thread. The reader
/// holds only this (never the [`Conn`] itself), so dropping a client
/// can never make the reader thread try to join itself.
struct ConnState {
    pending: Mutex<HashMap<u64, ReplySender>>,
    broken: AtomicBool,
}

impl ConnState {
    /// Fails every in-flight request and marks the connection dead.
    fn fail_all(&self, why: &str) {
        self.broken.store(true, Ordering::SeqCst);
        let pending: Vec<ReplySender> = self.pending.lock().drain().map(|(_, tx)| tx).collect();
        for tx in pending {
            // Waiters may have dropped their tickets; that's fine.
            let _ = tx.send(Err(if why.is_empty() {
                NetError::Closed
            } else {
                NetError::Protocol(why.to_string())
            }));
        }
    }
}

struct Conn {
    /// Write half; the mutex makes each frame write atomic.
    writer: Mutex<TcpStream>,
    next_id: AtomicU64,
    state: Arc<ConnState>,
    reader: Option<JoinHandle<()>>,
}

impl Conn {
    fn open(addr: &std::net::SocketAddr, cfg: &ClientConfig) -> Result<Conn, NetError> {
        let stream = match cfg.connect_timeout {
            Some(t) => TcpStream::connect_timeout(addr, t)?,
            None => TcpStream::connect(addr)?,
        };
        if cfg.nodelay {
            let _ = stream.set_nodelay(true);
        }
        let read_half = stream.try_clone()?;
        let state = Arc::new(ConnState {
            pending: Mutex::new(HashMap::new()),
            broken: AtomicBool::new(false),
        });
        let reader = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("gph-net-client-reader".into())
                .spawn(move || reader_loop(read_half, &state))
                .expect("spawning the client reader thread")
        };
        Ok(Conn {
            writer: Mutex::new(stream),
            next_id: AtomicU64::new(1),
            state,
            reader: Some(reader),
        })
    }

    fn submit(
        &self,
        req: &Request,
    ) -> Result<channel::Receiver<Result<Response, NetError>>, NetError> {
        if self.state.broken.load(Ordering::SeqCst) {
            return Err(NetError::Closed);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel::bounded(1);
        self.state.pending.lock().insert(id, tx);
        let frame = encode_request(id, req);
        let write_result = {
            let mut stream = self.writer.lock();
            stream.write_all(&frame)
        };
        if let Err(e) = write_result {
            self.state.pending.lock().remove(&id);
            self.state.fail_all("");
            return Err(NetError::Io(e));
        }
        // The reader may have died between the broken check and the
        // pending insert; it will never drain an entry registered after
        // its fail_all, so re-check rather than hand back a ticket that
        // would block forever.
        if self.state.broken.load(Ordering::SeqCst) {
            self.state.pending.lock().remove(&id);
            return Err(NetError::Closed);
        }
        Ok(rx)
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        let _ = self.writer.lock().shutdown(Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

fn reader_loop(mut stream: TcpStream, state: &ConnState) {
    loop {
        match read_frame(&mut stream) {
            Ok(Some((id, Message::Response(resp), _))) => {
                let tx = state.pending.lock().remove(&id);
                match (tx, resp) {
                    (Some(tx), resp) => {
                        let _ = tx.send(Ok(resp));
                    }
                    // Servers report connection-level failures (e.g. an
                    // undecodable frame) on the reserved id 0, which
                    // matches no ticket: surface the server's reason to
                    // every waiter instead of a generic unknown-id error.
                    (None, Response::Error(e)) => {
                        state.fail_all(&format!("server closed the connection: {e}"));
                        return;
                    }
                    (None, _) => {
                        state.fail_all(&format!("response for unknown request id {id}"));
                        return;
                    }
                }
            }
            Ok(Some((_, Message::Request(_), _))) => {
                state.fail_all("received a request frame on the client");
                return;
            }
            Ok(None) => {
                state.fail_all("");
                return;
            }
            Err(e) => {
                state.fail_all(&e.to_string());
                return;
            }
        }
    }
}

/// Handle to one in-flight request; [`NetTicket::wait`] blocks for that
/// request's response only, so several tickets pipeline on one
/// connection.
pub struct NetTicket<T> {
    rx: channel::Receiver<Result<Response, NetError>>,
    map: fn(Response) -> Result<T, NetError>,
}

impl<T> NetTicket<T> {
    /// Blocks until the response arrives (or the connection dies).
    pub fn wait(self) -> Result<T, NetError> {
        let resp = self.rx.recv().map_err(|_| NetError::Closed)??;
        (self.map)(resp)
    }

    /// [`NetTicket::wait`] bounded by `timeout`: [`NetError::Timeout`]
    /// if no response lands in time (the request may still complete on
    /// the server — only retry operations that are idempotent).
    pub fn wait_timeout(self, timeout: Duration) -> Result<T, NetError> {
        use crossbeam::channel::RecvTimeoutError;
        let resp = match self.rx.recv_timeout(timeout) {
            Ok(resp) => resp?,
            Err(RecvTimeoutError::Timeout) => return Err(NetError::Timeout),
            Err(RecvTimeoutError::Disconnected) => return Err(NetError::Closed),
        };
        (self.map)(resp)
    }
}

fn unexpected<T>(resp: &Response) -> Result<T, NetError> {
    match resp {
        Response::Error(e) => Err(NetError::Remote(e.clone())),
        other => Err(NetError::Protocol(format!("unexpected response variant: {other:?}"))),
    }
}

fn range_result(entry: SearchEntry) -> Result<RangeResult, NetError> {
    match entry {
        SearchEntry::Ids { ids, tau, degraded_from, from_cache } => {
            Ok(RangeResult { ids, tau, degraded_from, from_cache })
        }
        SearchEntry::Rejected { estimated_cost, budget } => {
            Err(NetError::Remote(WireError::Rejected { estimated_cost, budget }))
        }
        SearchEntry::Overloaded => Err(NetError::Remote(WireError::Overloaded)),
    }
}

fn expect_pong(resp: Response) -> Result<(), NetError> {
    match resp {
        Response::Pong => Ok(()),
        other => unexpected(&other),
    }
}

fn expect_range(resp: Response) -> Result<RangeResult, NetError> {
    match resp {
        Response::Search(entry) => range_result(entry),
        other => unexpected(&other),
    }
}

fn expect_topk(resp: Response) -> Result<TopKResult, NetError> {
    match resp {
        Response::TopK { hits, degraded_cap, from_cache } => {
            Ok(TopKResult { hits, degraded_cap, from_cache })
        }
        other => unexpected(&other),
    }
}

fn expect_batch(resp: Response) -> Result<Vec<BatchEntry>, NetError> {
    match resp {
        Response::Batch(entries) => Ok(entries
            .into_iter()
            .map(|entry| match entry {
                SearchEntry::Ids { ids, tau, degraded_from, from_cache } => {
                    BatchEntry::Ids(RangeResult { ids, tau, degraded_from, from_cache })
                }
                SearchEntry::Rejected { estimated_cost, budget } => {
                    BatchEntry::Rejected { estimated_cost, budget }
                }
                SearchEntry::Overloaded => BatchEntry::Overloaded,
            })
            .collect()),
        other => unexpected(&other),
    }
}

fn expect_mutation(resp: Response) -> Result<WireMutation, NetError> {
    match resp {
        Response::Mutation(m) => Ok(m),
        other => unexpected(&other),
    }
}

fn expect_traced(resp: Response) -> Result<TracedResult, NetError> {
    match resp {
        Response::TracedSearch { entry, trace } => {
            Ok(TracedResult { result: range_result(entry)?, trace })
        }
        other => unexpected(&other),
    }
}

fn expect_metrics(resp: Response) -> Result<String, NetError> {
    match resp {
        Response::Metrics { text } => Ok(text),
        other => unexpected(&other),
    }
}

fn expect_health(resp: Response) -> Result<NodeHealth, NetError> {
    match resp {
        Response::Health(h) => Ok(h),
        other => unexpected(&other),
    }
}

fn expect_slow_queries(resp: Response) -> Result<Vec<QueryTrace>, NetError> {
    match resp {
        Response::SlowQueries { traces } => Ok(traces),
        other => unexpected(&other),
    }
}

fn expect_fleet_metrics(resp: Response) -> Result<FleetMetrics, NetError> {
    match resp {
        Response::AggregateMetrics { merged, nodes } => Ok(FleetMetrics { merged, nodes }),
        other => unexpected(&other),
    }
}

fn expect_manifest(resp: Response) -> Result<Option<FleetManifest>, NetError> {
    match resp {
        Response::Manifest { manifest } => Ok(manifest),
        other => unexpected(&other),
    }
}

fn expect_manifest_ack(resp: Response) -> Result<u64, NetError> {
    match resp {
        Response::ManifestAck { version } => Ok(version),
        other => unexpected(&other),
    }
}

/// A blocking `GPHN` client: a pool of pipelined connections to one
/// server. Cloneable across threads via `Arc`; all methods take `&self`.
pub struct GphClient {
    conns: Vec<Conn>,
    next: AtomicUsize,
}

impl GphClient {
    /// Connects one pooled connection to `addr`.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<GphClient, NetError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit knobs (pool size, Nagle).
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        cfg: ClientConfig,
    ) -> Result<GphClient, NetError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| NetError::Protocol("address resolved to nothing".into()))?;
        let n = cfg.connections.max(1);
        let conns = (0..n).map(|_| Conn::open(&addr, &cfg)).collect::<Result<Vec<_>, _>>()?;
        Ok(GphClient { conns, next: AtomicUsize::new(0) })
    }

    /// Connections in the pool.
    pub fn pool_size(&self) -> usize {
        self.conns.len()
    }

    fn conn(&self) -> &Conn {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.conns.len();
        &self.conns[i]
    }

    fn submit<T>(
        &self,
        req: &Request,
        map: fn(Response) -> Result<T, NetError>,
    ) -> Result<NetTicket<T>, NetError> {
        Ok(NetTicket { rx: self.conn().submit(req)?, map })
    }

    /// Pipelined liveness probe.
    pub fn submit_ping(&self) -> Result<NetTicket<()>, NetError> {
        self.submit(&Request::Ping, expect_pong)
    }

    /// Round-trips a ping and returns its latency.
    pub fn ping(&self) -> Result<Duration, NetError> {
        let t0 = Instant::now();
        self.submit_ping()?.wait()?;
        Ok(t0.elapsed())
    }

    /// Pipelined range search.
    pub fn submit_search(
        &self,
        query: &[u64],
        tau: u32,
    ) -> Result<NetTicket<RangeResult>, NetError> {
        self.submit(&Request::Search { tau, query: query.to_vec() }, expect_range)
    }

    /// Range search (submit + wait).
    pub fn search(&self, query: &[u64], tau: u32) -> Result<RangeResult, NetError> {
        self.submit_search(query, tau)?.wait()
    }

    /// Pipelined traced range search: the server always runs the traced
    /// engine path (bypassing its result cache) and returns the query's
    /// own per-phase [`QueryTrace`] with the hits.
    pub fn submit_search_traced(
        &self,
        query: &[u64],
        tau: u32,
    ) -> Result<NetTicket<TracedResult>, NetError> {
        self.submit_search_traced_hop(query, tau, 0)
    }

    /// [`GphClient::submit_search_traced`] carrying a distributed trace
    /// id: the server stamps `trace_id` (with its own node identity and
    /// start timestamp) into the returned trace's hop context, so a
    /// fleet client can correlate hops across nodes.
    pub fn submit_search_traced_hop(
        &self,
        query: &[u64],
        tau: u32,
        trace_id: u64,
    ) -> Result<NetTicket<TracedResult>, NetError> {
        self.submit(&Request::TracedSearch { tau, query: query.to_vec(), trace_id }, expect_traced)
    }

    /// Traced range search (submit + wait).
    pub fn search_traced(&self, query: &[u64], tau: u32) -> Result<TracedResult, NetError> {
        self.submit_search_traced(query, tau)?.wait()
    }

    /// Pipelined health probe: shard ownership, generation, queue
    /// occupancy, and the degraded flag, answered inline by the server
    /// (never queued behind engine work).
    pub fn submit_health(&self) -> Result<NetTicket<NodeHealth>, NetError> {
        self.submit(&Request::Health, expect_health)
    }

    /// Health probe (submit + wait).
    pub fn health(&self) -> Result<NodeHealth, NetError> {
        self.submit_health()?.wait()
    }

    /// Pipelined drain of the server's slow-query ring: up to `max`
    /// most recent retained traces (`0` = all).
    pub fn submit_slow_queries(&self, max: u32) -> Result<NetTicket<Vec<QueryTrace>>, NetError> {
        self.submit(&Request::SlowQueries { max }, expect_slow_queries)
    }

    /// Slow-query drain (submit + wait), most recent last.
    pub fn slow_queries(&self, max: u32) -> Result<Vec<QueryTrace>, NetError> {
        self.submit_slow_queries(max)?.wait()
    }

    /// Pipelined fleet-wide metrics aggregation (metastore servers
    /// only): the metastore scrapes every live node in its manifest and
    /// merges the expositions, reporting unreachable nodes as stale.
    pub fn submit_aggregate_metrics(&self) -> Result<NetTicket<FleetMetrics>, NetError> {
        self.submit(&Request::AggregateMetrics, expect_fleet_metrics)
    }

    /// Fleet-wide metrics aggregation (submit + wait).
    pub fn aggregate_metrics(&self) -> Result<FleetMetrics, NetError> {
        self.submit_aggregate_metrics()?.wait()
    }

    /// Pipelined top-k search.
    pub fn submit_topk(&self, query: &[u64], k: usize) -> Result<NetTicket<TopKResult>, NetError> {
        self.submit(&Request::TopK { k: k as u32, query: query.to_vec() }, expect_topk)
    }

    /// Top-k search (submit + wait).
    pub fn topk(&self, query: &[u64], k: usize) -> Result<TopKResult, NetError> {
        self.submit_topk(query, k)?.wait()
    }

    /// Pipelined batch of range searches at a shared threshold; the
    /// server runs the whole batch as one job. The wire format carries
    /// one width for the whole batch, so every query must have the same
    /// word count (and at least one word).
    pub fn submit_batch_search(
        &self,
        queries: &[&[u64]],
        tau: u32,
    ) -> Result<NetTicket<Vec<BatchEntry>>, NetError> {
        if let Some(first) = queries.first() {
            if first.is_empty() || queries.iter().any(|q| q.len() != first.len()) {
                return Err(NetError::Protocol(
                    "batch queries must share one nonzero word count".into(),
                ));
            }
        }
        let queries = queries.iter().map(|q| q.to_vec()).collect();
        self.submit(&Request::BatchSearch { tau, queries }, expect_batch)
    }

    /// Batch search (submit + wait), entries in submission order.
    pub fn batch_search(&self, queries: &[&[u64]], tau: u32) -> Result<Vec<BatchEntry>, NetError> {
        self.submit_batch_search(queries, tau)?.wait()
    }

    /// Pipelined insert of `row` under `id`.
    pub fn submit_insert(&self, id: u32, row: &[u64]) -> Result<NetTicket<WireMutation>, NetError> {
        self.submit(&Request::Insert { id, row: row.to_vec() }, expect_mutation)
    }

    /// Inserts `row` under `id` (errors if `id` is live remotely).
    pub fn insert(&self, id: u32, row: &[u64]) -> Result<WireMutation, NetError> {
        self.submit_insert(id, row)?.wait()
    }

    /// Pipelined delete.
    pub fn submit_delete(&self, id: u32) -> Result<NetTicket<WireMutation>, NetError> {
        self.submit(&Request::Delete { id }, expect_mutation)
    }

    /// Tombstones `id`; [`WireMutation::NotFound`] when it was not live.
    pub fn delete(&self, id: u32) -> Result<WireMutation, NetError> {
        self.submit_delete(id)?.wait()
    }

    /// Pipelined upsert.
    pub fn submit_upsert(&self, id: u32, row: &[u64]) -> Result<NetTicket<WireMutation>, NetError> {
        self.submit(&Request::Upsert { id, row: row.to_vec() }, expect_mutation)
    }

    /// Inserts `row` under `id`, replacing any live row with that id.
    pub fn upsert(&self, id: u32, row: &[u64]) -> Result<WireMutation, NetError> {
        self.submit_upsert(id, row)?.wait()
    }

    /// Pipelined fetch of the server's Prometheus text exposition.
    pub fn submit_metrics(&self) -> Result<NetTicket<String>, NetError> {
        self.submit(&Request::Metrics, expect_metrics)
    }

    /// Fetches the server's Prometheus text exposition.
    pub fn metrics(&self) -> Result<String, NetError> {
        self.submit_metrics()?.wait()
    }

    /// Pipelined manifest fetch (metastore servers only).
    pub fn submit_get_manifest(&self) -> Result<NetTicket<Option<FleetManifest>>, NetError> {
        self.submit(&Request::GetManifest, expect_manifest)
    }

    /// Fetches the metastore's current fleet manifest; `None` before
    /// the first publish.
    pub fn get_manifest(&self) -> Result<Option<FleetManifest>, NetError> {
        self.submit_get_manifest()?.wait()
    }

    /// Pipelined manifest publish (metastore servers only).
    pub fn submit_publish_manifest(
        &self,
        manifest: &FleetManifest,
    ) -> Result<NetTicket<u64>, NetError> {
        self.submit(&Request::PublishManifest { manifest: manifest.clone() }, expect_manifest_ack)
    }

    /// Publishes `manifest` and returns the installed version. The
    /// metastore only accepts strictly increasing versions; losing a
    /// race surfaces as [`WireError::ManifestStale`] with the version it
    /// kept.
    pub fn publish_manifest(&self, manifest: &FleetManifest) -> Result<u64, NetError> {
        self.submit_publish_manifest(manifest)?.wait()
    }
}
