//! The readiness-driven event loop every `GPHN` server runs on: a fixed
//! thread set multiplexing any number of nonblocking connections, so a
//! server can hold thousands of idle clients without a thread per
//! connection.
//!
//! Threads, all spawned at bind time and independent of connection
//! count:
//!
//! * one **acceptor** — polls the listener, applies the connection cap
//!   (over-cap accepts get a best-effort `Overloaded` frame and close),
//!   and deals new connections round-robin to the workers;
//! * [`ServerConfig::workers`] **workers** — each owns a set of
//!   connections and runs `poll(2)` over their sockets plus a
//!   [`polling::WakePipe`]. A worker reads each readable socket in one
//!   bounded burst into that connection's [`FrameReader`] (the decoder
//!   the client parses with too), pops every whole frame, and asks the
//!   server's [`RequestHandler`] for a [`Reply`]. A read error drops the
//!   connection; EOF closes its read side after the frames before it
//!   are served. A [`Reply::Now`] is encoded and
//!   written by the worker that decoded the request, in the same loop
//!   iteration — it crosses no thread; a [`Reply::Later`] ships to the
//!   resolver pool and lands back via a channel and the wake pipe (two
//!   crossings, counted by `gph_net_deferred_total`). Responses always
//!   leave in request order (per-connection sequence slots), whatever
//!   order they resolve in: a ready reply waits in its slot behind an
//!   earlier pending one.
//! * [`ServerConfig::resolvers`] **resolvers** — the threads meant to
//!   block, running [`Reply::Later`] closures. Engine ticket waits are
//!   the only ones: the metastore answers every op [`Reply::Now`], so
//!   its resolvers sit idle.
//!
//! A worker multiplexes every connection dealt to it, so whatever a
//! handler does inside [`RequestHandler::handle`] is time none of them
//! is served. [`crate::NetServer`] keeps that to lookups and encodes
//! for reads, but still runs mutations there (ROADMAP item 3(a)).
//!
//! Backpressure: a connection's write buffer is capped at
//! [`ServerConfig::max_write_buffer`]; when a slow reader fills it, the
//! worker parks further responses in their slots and stops polling the
//! socket for readability (also once [`ServerConfig::max_pipelined`]
//! responses are in flight), so one slow client bounds its own memory
//! instead of the server's. Idle connections are evicted after
//! [`ServerConfig::idle_timeout`]. Graceful [`EventLoop::shutdown`]
//! stops the acceptor, takes one final drain of every socket's already
//! arrived bytes, resolves and flushes everything in flight, then joins
//! all threads.

use crate::protocol::{encode_response, FrameReader, Message, Response, WireError};
use crossbeam::channel::{Receiver, Sender};
use gph_obs::{Counter, Gauge, MetricsRegistry};
use polling::{PollFd, WakePipe, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server knobs, shared by every event-loop server ([`crate::NetServer`]
/// and [`crate::MetastoreServer`]).
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Maximum simultaneously-open connections; further accepts are
    /// answered with a single `Overloaded` error frame and closed.
    pub max_connections: usize,
    /// Event-loop worker threads multiplexing the connections.
    pub workers: usize,
    /// Resolver threads that block on deferred replies (engine ticket
    /// waits); bounds how many slow queries resolve concurrently.
    pub resolvers: usize,
    /// Evict a connection with no traffic and nothing in flight for this
    /// long; `None` (the default) keeps idle connections forever.
    pub idle_timeout: Option<Duration>,
    /// Per-connection cap on buffered response bytes awaiting a slow
    /// reader; beyond it the worker stops encoding (and stops reading
    /// more requests) until the peer drains.
    pub max_write_buffer: usize,
    /// Per-connection cap on responses in flight (queued or resolving);
    /// at the cap the worker stops polling the socket for readability.
    pub max_pipelined: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            workers: 2,
            resolvers: 4,
            idle_timeout: None,
            max_write_buffer: 4 << 20,
            max_pipelined: 1024,
        }
    }
}

/// Point-in-time server counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections_opened: u64,
    /// Connections currently open.
    pub connections_active: u64,
    /// Connections refused because `max_connections` was reached.
    pub connections_refused: u64,
    /// Request frames decoded.
    pub requests: u64,
    /// Response frames written (errors included).
    pub responses: u64,
    /// Error frames among the responses.
    pub errors_sent: u64,
    /// Replies that crossed to the resolver pool ([`Reply::Later`]); the
    /// rest of the responses left on the worker that decoded them.
    pub deferred: u64,
    /// Inbound frames that failed to decode (each closes its connection).
    pub protocol_errors: u64,
    /// Bytes read off sockets (well-formed frames only).
    pub bytes_in: u64,
    /// Bytes written to sockets.
    pub bytes_out: u64,
    /// Connections evicted by [`ServerConfig::idle_timeout`].
    pub idle_evictions: u64,
    /// Times a connection hit [`ServerConfig::max_write_buffer`] and
    /// response encoding paused for a slow reader.
    pub backpressure_pauses: u64,
    /// Largest per-connection write buffer observed, in bytes (stays
    /// within [`ServerConfig::max_write_buffer`] plus one frame).
    pub write_buffer_peak: u64,
}

/// Event-loop counters, registered as `gph_net_*` series so the server's
/// network layer shows up in the same `Metrics` exposition as the engine
/// (and merges across the fleet in [`crate::FleetClient::metrics`] like
/// everything else).
struct Counters {
    connections_opened: Counter,
    connections_active: Gauge,
    connections_refused: Counter,
    requests: Counter,
    responses: Counter,
    errors_sent: Counter,
    deferred: Counter,
    protocol_errors: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    idle_evictions: Counter,
    backpressure_pauses: Counter,
    write_buffer_peak: Gauge,
}

impl Counters {
    fn register(reg: &MetricsRegistry) -> Counters {
        Counters {
            connections_opened: reg.counter(
                "gph_net_connections_opened_total",
                "Connections accepted over the server's lifetime.",
                &[],
            ),
            connections_active: reg.gauge(
                "gph_net_connections_active",
                "Connections currently open.",
                &[],
            ),
            connections_refused: reg.counter(
                "gph_net_connections_refused_total",
                "Connections refused at the max_connections cap.",
                &[],
            ),
            requests: reg.counter("gph_net_requests_total", "Request frames decoded.", &[]),
            responses: reg.counter(
                "gph_net_responses_total",
                "Response frames written (errors included).",
                &[],
            ),
            errors_sent: reg.counter(
                "gph_net_errors_sent_total",
                "Error frames among the responses.",
                &[],
            ),
            deferred: reg.counter(
                "gph_net_deferred_total",
                "Replies that crossed to the resolver pool.",
                &[],
            ),
            protocol_errors: reg.counter(
                "gph_net_protocol_errors_total",
                "Inbound frames that failed to decode (each closes its connection).",
                &[],
            ),
            bytes_in: reg.counter(
                "gph_net_bytes_in_total",
                "Bytes read off sockets (well-formed frames only).",
                &[],
            ),
            bytes_out: reg.counter("gph_net_bytes_out_total", "Bytes written to sockets.", &[]),
            idle_evictions: reg.counter(
                "gph_net_idle_evictions_total",
                "Connections evicted by the idle timeout.",
                &[],
            ),
            backpressure_pauses: reg.counter(
                "gph_net_backpressure_pauses_total",
                "Times response encoding paused for a slow reader at the write-buffer cap.",
                &[],
            ),
            write_buffer_peak: reg.gauge(
                "gph_net_write_buffer_peak",
                "Largest per-connection write buffer observed, in bytes.",
                &[],
            ),
        }
    }

    fn snapshot(&self) -> NetServerStats {
        NetServerStats {
            connections_opened: self.connections_opened.get(),
            connections_active: self.connections_active.get(),
            connections_refused: self.connections_refused.get(),
            requests: self.requests.get(),
            responses: self.responses.get(),
            errors_sent: self.errors_sent.get(),
            deferred: self.deferred.get(),
            protocol_errors: self.protocol_errors.get(),
            bytes_in: self.bytes_in.get(),
            bytes_out: self.bytes_out.get(),
            idle_evictions: self.idle_evictions.get(),
            backpressure_pauses: self.backpressure_pauses.get(),
            write_buffer_peak: self.write_buffer_peak.get(),
        }
    }

    fn note_write_buffer(&self, len: usize) {
        self.write_buffer_peak.set_max(len as u64);
    }
}

/// How a [`RequestHandler`] answers one request.
pub enum Reply {
    /// The response is ready; the worker that decoded the request
    /// encodes and writes it, behind any earlier reply of the same
    /// connection that is still pending.
    Now(Response),
    /// The response needs blocking work (an engine ticket wait); the
    /// closure runs on a resolver thread and its result is delivered in
    /// the request's original position.
    Later(Box<dyn FnOnce() -> Response + Send>),
}

/// What an event-loop server actually serves: one decoded request in,
/// one [`Reply`] out. `handle` runs on the event worker, which serves
/// no other connection of its set meanwhile: answer what is already
/// known as [`Reply::Now`] and return [`Reply::Later`] for anything
/// that waits.
pub trait RequestHandler: Send + Sync + 'static {
    /// Produces the reply for one request.
    fn handle(&self, req: crate::protocol::Request) -> Reply;
}

struct Shared {
    handler: Arc<dyn RequestHandler>,
    running: AtomicBool,
    counters: Counters,
    cfg: ServerConfig,
}

enum WorkerMsg {
    NewConn(TcpStream),
    // Boxed: a Response can be hundreds of bytes, and NewConn traffic
    // should not pay for it in channel-slot size.
    Resolved { conn: u64, seq: u64, response: Box<Response> },
}

struct ResolveJob {
    conn: u64,
    seq: u64,
    worker: usize,
    run: Box<dyn FnOnce() -> Response + Send>,
}

type WorkerPost = (Sender<WorkerMsg>, Arc<WakePipe>);

/// One queued response position. Requests claim a slot in arrival order;
/// the frame is encoded (and the slot retired) only once every earlier
/// slot has shipped, which is what keeps pipelined responses in request
/// order under out-of-order resolution.
struct Slot {
    seq: u64,
    request_id: u64,
    response: Option<Response>,
}

struct Conn {
    stream: TcpStream,
    frames: FrameReader,
    /// Encoded frames awaiting the socket; `write_pos..` is unsent.
    write_buf: Vec<u8>,
    write_pos: usize,
    out: VecDeque<Slot>,
    next_seq: u64,
    last_activity: Instant,
    /// No more reads will be parsed: EOF fully processed, framing lost
    /// to a protocol error, or server-side drain.
    read_closed: bool,
    /// In a backpressure pause (counted once per pause, not per byte).
    paused: bool,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            frames: FrameReader::default(),
            write_buf: Vec::new(),
            write_pos: 0,
            out: VecDeque::new(),
            next_seq: 0,
            last_activity: Instant::now(),
            read_closed: false,
            paused: false,
            dead: false,
        }
    }

    fn buffered_write(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// The queued slot holding `seq`, if it has not been retired. Slots
    /// are pushed with consecutive `seq` and popped from the front, so
    /// the position is the distance from the front slot's `seq`.
    fn slot_mut(&mut self, seq: u64) -> Option<&mut Slot> {
        let offset = seq.checked_sub(self.out.front()?.seq)?;
        let slot = self.out.get_mut(usize::try_from(offset).ok()?)?;
        debug_assert_eq!(slot.seq, seq, "slots hold consecutive sequence numbers");
        Some(slot)
    }

    /// All responses delivered and flushed after the peer (or shutdown)
    /// closed the read side — time to close.
    fn finished(&self) -> bool {
        self.read_closed && self.out.is_empty() && self.buffered_write() == 0
    }

    fn wants_read(&self, cfg: &ServerConfig) -> bool {
        !self.read_closed
            && !self.dead
            && self.out.len() < cfg.max_pipelined
            && self.buffered_write() < cfg.max_write_buffer
    }
}

/// A readiness-driven `GPHN` server front end: accepts connections and
/// feeds decoded requests to a [`RequestHandler`]. [`crate::NetServer`]
/// and [`crate::MetastoreServer`] are thin handlers over this loop.
pub struct EventLoop {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<WorkerHandle>,
    resolvers: Vec<JoinHandle<()>>,
    resolve_tx: Option<Sender<ResolveJob>>,
}

struct WorkerHandle {
    post: WorkerPost,
    handle: Option<JoinHandle<()>>,
}

impl EventLoop {
    /// Binds `addr` and starts the acceptor, worker, and resolver
    /// threads serving `handler`. The loop's counters register as
    /// `gph_net_*` series in `registry`, so they ride along in whatever
    /// `Metrics` exposition the server renders.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        handler: Arc<dyn RequestHandler>,
        cfg: ServerConfig,
        registry: &MetricsRegistry,
    ) -> std::io::Result<EventLoop> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            handler,
            running: AtomicBool::new(true),
            counters: Counters::register(registry),
            cfg,
        });

        let (resolve_tx, resolve_rx) = crossbeam::channel::unbounded::<ResolveJob>();
        let mut workers = Vec::new();
        let mut posts: Vec<WorkerPost> = Vec::new();
        for i in 0..cfg.workers.max(1) {
            let (tx, rx) = crossbeam::channel::unbounded::<WorkerMsg>();
            let wake = Arc::new(WakePipe::new()?);
            let post = (tx, Arc::clone(&wake));
            let handle = {
                let shared = Arc::clone(&shared);
                let resolve_tx = resolve_tx.clone();
                std::thread::Builder::new()
                    .name(format!("gph-net-worker-{i}"))
                    .spawn(move || worker_loop(i, &rx, &wake, &resolve_tx, &shared))
                    .expect("spawning an event-loop worker thread")
            };
            posts.push(post.clone());
            workers.push(WorkerHandle { post, handle: Some(handle) });
        }

        let resolvers = (0..cfg.resolvers.max(1))
            .map(|i| {
                let rx = resolve_rx.clone();
                let posts = posts.clone();
                std::thread::Builder::new()
                    .name(format!("gph-net-resolver-{i}"))
                    .spawn(move || resolver_loop(&rx, &posts))
                    .expect("spawning a resolver thread")
            })
            .collect();

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gph-net-accept".into())
                .spawn(move || accept_loop(&listener, &shared, &posts))
                .expect("spawning the accept thread")
        };

        Ok(EventLoop {
            shared,
            addr: local,
            acceptor: Some(acceptor),
            workers,
            resolvers,
            resolve_tx: Some(resolve_tx),
        })
    }

    /// The address the server is listening on (with the concrete port
    /// when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counter snapshot.
    pub fn stats(&self) -> NetServerStats {
        self.shared.counters.snapshot()
    }

    /// Stops accepting, drains every connection's already-received
    /// requests through the handler, flushes all in-flight responses,
    /// joins every thread, and returns the final counters.
    pub fn shutdown(mut self) -> NetServerStats {
        self.shutdown_in_place();
        self.stats()
    }

    fn shutdown_in_place(&mut self) {
        self.shared.running.store(false, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            h.join().expect("the accept thread never panics");
        }
        for w in &self.workers {
            w.post.1.wake();
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                h.join().expect("worker threads never panic");
            }
        }
        // Workers are gone; dropping the last job sender ends the
        // resolver pool (any jobs they already delivered went to worker
        // queues that no longer exist, which is fine — the workers only
        // exit once every slot they own has resolved and flushed).
        self.resolve_tx = None;
        for h in self.resolvers.drain(..) {
            h.join().expect("resolver threads never panic");
        }
    }
}

impl Drop for EventLoop {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.shutdown_in_place();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, posts: &[WorkerPost]) {
    let mut next_worker = 0usize;
    while shared.running.load(Ordering::SeqCst) {
        let mut fds = [PollFd::new(listener.as_raw_fd(), POLLIN)];
        let _ = polling::poll(&mut fds, 100);
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let c = &shared.counters;
                    if c.connections_active.get() >= shared.cfg.max_connections as u64 {
                        c.connections_refused.inc();
                        refuse(stream);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    c.connections_opened.inc();
                    c.connections_active.inc();
                    let (tx, wake) = &posts[next_worker % posts.len()];
                    next_worker += 1;
                    if tx.send(WorkerMsg::NewConn(stream)).is_err() {
                        c.connections_active.dec();
                        return; // workers are gone; so is the server
                    }
                    wake.wake();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(5));
                    break;
                }
            }
        }
    }
}

/// Best-effort `Overloaded` error frame to a connection over the cap.
fn refuse(mut stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let frame = encode_response(0, &Response::Error(WireError::Overloaded));
    let _ = stream.write_all(&frame);
    let _ = stream.flush();
}

fn resolver_loop(rx: &Receiver<ResolveJob>, posts: &[WorkerPost]) {
    for job in rx.iter() {
        let response = (job.run)();
        let (tx, wake) = &posts[job.worker];
        let response = Box::new(response);
        if tx.send(WorkerMsg::Resolved { conn: job.conn, seq: job.seq, response }).is_ok() {
            wake.wake();
        }
    }
}

fn worker_loop(
    worker_idx: usize,
    rx: &Receiver<WorkerMsg>,
    wake: &WakePipe,
    resolve_tx: &Sender<ResolveJob>,
    shared: &Arc<Shared>,
) {
    let cfg = shared.cfg;
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn_id = 0u64;
    let mut draining = false;
    // Reused across iterations: the poll set plus the conn id behind
    // each entry (entry 0 is the wake pipe).
    let mut fds: Vec<PollFd> = Vec::new();
    let mut fd_conns: Vec<u64> = Vec::new();

    loop {
        for msg in rx.try_iter() {
            match msg {
                WorkerMsg::NewConn(stream) => {
                    let id = next_conn_id;
                    next_conn_id += 1;
                    let mut conn = Conn::new(stream);
                    if draining {
                        // Late arrival during shutdown: serve whatever is
                        // already in its socket buffer, then drain out.
                        read_pump(id, &mut conn, worker_idx, resolve_tx, shared);
                        conn.read_closed = true;
                    }
                    conns.insert(id, conn);
                }
                WorkerMsg::Resolved { conn, seq, response } => {
                    if let Some(slot) = conns.get_mut(&conn).and_then(|c| c.slot_mut(seq)) {
                        slot.response = Some(*response);
                    }
                }
            }
        }

        if !draining && !shared.running.load(Ordering::SeqCst) {
            draining = true;
            // Final read drain: frames the client pipelined before
            // shutdown are already in socket buffers; serve them rather
            // than drop them, then stop reading.
            let ids: Vec<u64> = conns.keys().copied().collect();
            for id in ids {
                let mut conn = conns.remove(&id).expect("listed above");
                read_pump(id, &mut conn, worker_idx, resolve_tx, shared);
                conn.read_closed = true;
                conns.insert(id, conn);
            }
        }

        let now = Instant::now();
        conns.retain(|_, conn| {
            drain_out(conn, &shared.counters, &cfg);
            if conn.dead || conn.finished() {
                let _ = conn.stream.shutdown(Shutdown::Both);
                shared.counters.connections_active.dec();
                return false;
            }
            if let Some(limit) = cfg.idle_timeout {
                let idle = !conn.read_closed
                    && conn.out.is_empty()
                    && conn.buffered_write() == 0
                    && now.duration_since(conn.last_activity) >= limit;
                if idle {
                    shared.counters.idle_evictions.inc();
                    let _ = conn.stream.shutdown(Shutdown::Both);
                    shared.counters.connections_active.dec();
                    return false;
                }
            }
            true
        });

        if draining && conns.is_empty() {
            return;
        }

        fds.clear();
        fd_conns.clear();
        fds.push(PollFd::new(wake.read_fd(), POLLIN));
        for (&id, conn) in &conns {
            let mut events = 0i16;
            if conn.wants_read(&cfg) {
                events |= POLLIN;
            }
            if conn.buffered_write() > 0 {
                events |= POLLOUT;
            }
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
            fd_conns.push(id);
        }

        let timeout_ms = if draining {
            10
        } else if let Some(limit) = cfg.idle_timeout {
            // Wake in time for the nearest idle deadline.
            let nearest = conns
                .values()
                .map(|c| limit.saturating_sub(now.duration_since(c.last_activity)))
                .min()
                .unwrap_or(limit)
                .min(Duration::from_millis(250));
            nearest.as_millis().max(1) as i32
        } else {
            250
        };
        let _ = polling::poll(&mut fds, timeout_ms);

        if fds[0].revents & POLLIN != 0 {
            wake.drain();
        }
        for (i, &id) in fd_conns.iter().enumerate() {
            let revents = fds[i + 1].revents;
            if revents == 0 {
                continue;
            }
            let Some(mut conn) = conns.remove(&id) else { continue };
            if revents & POLLNVAL != 0 {
                conn.dead = true;
            } else {
                if revents & (POLLIN | POLLHUP | POLLERR) != 0 {
                    read_pump(id, &mut conn, worker_idx, resolve_tx, shared);
                }
                if revents & POLLOUT != 0 {
                    try_flush(&mut conn);
                }
            }
            conns.insert(id, conn);
        }
    }
}

/// Reads one bounded burst off the socket and dispatches every whole
/// frame through the handler. A read error drops the connection; EOF
/// closes the read side once the frames before it are served, with one
/// protocol error if it cut a frame short.
fn read_pump(
    id: u64,
    conn: &mut Conn,
    worker_idx: usize,
    resolve_tx: &Sender<ResolveJob>,
    shared: &Arc<Shared>,
) {
    if conn.read_closed || conn.dead {
        return;
    }
    let before = conn.frames.pending();
    let Ok(eof) = conn.frames.read_from(&conn.stream) else {
        conn.dead = true;
        return;
    };
    if conn.frames.pending() > before {
        conn.last_activity = Instant::now();
    }
    while !conn.read_closed {
        match conn.frames.pop() {
            Ok(None) => break, // header or payload still arriving
            Ok(Some((request_id, Message::Request(req), wire_len))) => {
                let c = &shared.counters;
                c.bytes_in.add(wire_len as u64);
                c.requests.inc();
                let seq = conn.next_seq;
                conn.next_seq += 1;
                match shared.handler.handle(req) {
                    Reply::Now(response) => {
                        conn.out.push_back(Slot { seq, request_id, response: Some(response) });
                    }
                    Reply::Later(run) => {
                        c.deferred.inc();
                        conn.out.push_back(Slot { seq, request_id, response: None });
                        let job = ResolveJob { conn: id, seq, worker: worker_idx, run };
                        resolve_tx.send(job).expect("the resolver pool outlives the workers");
                    }
                }
            }
            Ok(Some((request_id, Message::Response(_), _))) => {
                let msg = "received a response frame on the server".to_string();
                protocol_error(conn, &shared.counters, request_id, msg);
            }
            Err(e) => protocol_error(conn, &shared.counters, 0, e.to_string()),
        }
    }
    if eof && !conn.read_closed {
        if let Err(e) = conn.frames.finish() {
            protocol_error(conn, &shared.counters, 0, e.to_string());
        }
        conn.read_closed = true;
    }
}

/// The peer broke the protocol: count it, queue one `Malformed` reply
/// (on the reserved id 0 when framing is lost), and stop reading —
/// pending work still drains.
fn protocol_error(conn: &mut Conn, counters: &Counters, request_id: u64, msg: String) {
    counters.protocol_errors.inc();
    let seq = conn.next_seq;
    conn.next_seq += 1;
    let response = Some(Response::Error(WireError::Malformed(msg)));
    conn.out.push_back(Slot { seq, request_id, response });
    conn.read_closed = true;
}

/// Encodes resolved head-of-queue slots into the write buffer, stopping
/// at the backpressure cap (order is the slot queue's — request order).
fn pump_out(conn: &mut Conn, counters: &Counters, cfg: &ServerConfig) {
    loop {
        if conn.buffered_write() >= cfg.max_write_buffer {
            if conn.out.front().is_some_and(|s| s.response.is_some()) && !conn.paused {
                conn.paused = true;
                counters.backpressure_pauses.inc();
            }
            break;
        }
        let ready = conn.out.front().is_some_and(|s| s.response.is_some());
        if !ready {
            break;
        }
        conn.paused = false;
        let slot = conn.out.pop_front().expect("checked above");
        let response = slot.response.expect("checked above");
        let is_error = matches!(response, Response::Error(_));
        let frame = encode_response(slot.request_id, &response);
        conn.write_buf.extend_from_slice(&frame);
        counters.note_write_buffer(conn.buffered_write());
        counters.bytes_out.add(frame.len() as u64);
        counters.responses.inc();
        if is_error {
            counters.errors_sent.inc();
        }
    }
}

/// Encodes and writes resolved responses until the socket pushes back
/// or the head slot is still pending. One pump + flush is not enough:
/// when the flush empties the write buffer while [`pump_out`] had
/// stopped at the backpressure cap, resolved slots remain but nothing
/// is buffered, so the next poll would carry no `POLLOUT` and sleep out
/// its full timeout — a recovering slow reader would get one buffer's
/// worth per tick.
fn drain_out(conn: &mut Conn, counters: &Counters, cfg: &ServerConfig) {
    loop {
        pump_out(conn, counters, cfg);
        if conn.buffered_write() == 0 {
            break; // nothing resolved at the head of the queue
        }
        try_flush(conn);
        if conn.dead || conn.buffered_write() > 0 {
            break; // the socket pushed back; POLLOUT resumes the drain
        }
    }
}

/// Writes as much of the buffered output as the socket will take.
fn try_flush(conn: &mut Conn) {
    while conn.write_pos < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => conn.write_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    // Reclaim consumed space once it dominates the buffer (or all of it
    // went out) instead of shifting bytes on every write.
    if conn.write_pos == conn.write_buf.len() {
        conn.write_buf.clear();
        conn.write_pos = 0;
    } else if conn.write_pos > 64 * 1024 {
        conn.write_buf.drain(..conn.write_pos);
        conn.write_pos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_resolution_finds_its_slot_by_offset_and_a_stray_one_finds_nothing() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut conn = Conn::new(TcpStream::connect(listener.local_addr().unwrap()).unwrap());
        assert!(conn.slot_mut(0).is_none(), "nothing is queued");
        for seq in 5..9 {
            conn.out.push_back(Slot { seq, request_id: 100 + seq, response: None });
        }
        for seq in 5..9 {
            assert_eq!(conn.slot_mut(seq).expect("queued").request_id, 100 + seq);
        }
        assert!(conn.slot_mut(4).is_none(), "retired before the front slot");
        assert!(conn.slot_mut(9).is_none(), "never issued");
        assert!(conn.slot_mut(u64::MAX).is_none());
        conn.out.pop_front();
        assert!(conn.slot_mut(5).is_none(), "retired just now");
        assert_eq!(conn.slot_mut(6).expect("the new front").request_id, 106);
    }
}
