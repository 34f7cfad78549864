//! The blocking client: [`GphClient`] pools TCP connections and mirrors
//! the in-process submit/wait [`gph_serve::Ticket`] API over the wire.
//!
//! Any number of requests can be **in flight at once** on one socket:
//! `submit_*` writes the frame and returns a [`NetTicket`], `wait`
//! blocks for that request's response only, and responses are matched
//! to tickets by request id. The convenience wrappers (`search`, `topk`,
//! `insert`, ...) are submit-then-wait.
//!
//! # Who reads
//!
//! No thread belongs to a connection, and [`GphClient::connect`] spawns
//! none. A connection is a nonblocking socket plus an inbox (a slot per
//! outstanding request, and the bytes that are not a whole frame yet)
//! under one mutex, and **whichever thread is blocked on the connection
//! drives it**. A ticket that waits checks its slot; if nobody is
//! reading it becomes the reader — waits for the socket up to its
//! deadline, reads what is there, files every whole frame under its id,
//! wakes the others, checks again — and otherwise sleeps until the
//! reader files its frame or leaves, and then takes over. A synchronous
//! call is thus write, wait for readiness, read, all on the calling
//! thread: the response crosses no thread on this side of the socket.
//!
//! # Pipelining
//!
//! A caller may submit any number of requests before waiting on any of
//! them, from any number of threads. When it gets so far ahead that the
//! socket refuses a request's bytes (both socket buffers are full, and
//! the server has stopped reading because *its* responses have nowhere
//! to go), the `submit_*` that is stuck reads while it waits for space,
//! so the exchange always makes progress; the responses it collects
//! wait in the inbox for their tickets, which is the memory a caller
//! that pipelines without waiting asks for.
//!
//! The price of having no reader thread: a response nobody waits for
//! stays in the kernel's buffer until the next caller blocks on that
//! connection, and so does the news that the peer closed it. A
//! connection-level failure is reported by the next `submit_*` or
//! `wait` that touches the connection, not at the moment it happens.
//!
//! Errors are typed: a server-side admission rejection arrives as
//! [`NetError::Remote`]`(`[`WireError::Rejected`]`)` with the estimated
//! cost and budget, distinct from transport failures ([`NetError::Io`],
//! [`NetError::Closed`]) and framing corruption
//! ([`NetError::Protocol`]).

use crate::protocol::{
    decode_frame, encode_request, frame_len, FleetManifest, Message, NodeHealth, Request, Response,
    SearchEntry, WireError, WireMutation,
};
use crate::NetError;
use gph_obs::QueryTrace;
use polling::{PollFd, POLLIN, POLLOUT};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Client knobs.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// TCP connections in the pool; requests round-robin across them.
    /// Every connection disables Nagle's algorithm: frames are whole
    /// requests, and batching them would add pure latency.
    pub connections: usize,
    /// Bound on each pooled connection's TCP connect; `None` (the
    /// default) uses the OS default. [`crate::FleetClient`]'s sweeps
    /// bound it by their probe timeout, so an unresponsive host costs
    /// a bounded wait.
    pub connect_timeout: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig { connections: 1, connect_timeout: None }
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

/// One request's place in a connection's inbox.
enum Slot {
    /// Sent; a ticket will claim the response.
    Waiting,
    /// The ticket timed out or was dropped; the late response is
    /// discarded when it arrives.
    Abandoned,
    /// The response, waiting for its ticket.
    Arrived(Response),
}

/// Why a connection died. Kept as data rather than a [`NetError`]
/// (which holds an `io::Error` and cannot be cloned) so that every
/// ticket gets its own copy.
enum Broken {
    Closed,
    Protocol(String),
}

impl Broken {
    /// A socket error met on the read side.
    fn read_error(e: std::io::Error) -> Broken {
        Broken::Protocol(NetError::Io(e).to_string())
    }

    fn error(&self) -> NetError {
        match self {
            Broken::Closed => NetError::Closed,
            Broken::Protocol(why) => NetError::Protocol(why.clone()),
        }
    }
}

/// The read side of a connection: everything a response passes through
/// between the socket and its ticket.
struct Inbox {
    slots: HashMap<u64, Slot>,
    /// Bytes read off the socket that are not a whole frame yet.
    partial: Vec<u8>,
    /// A waiter is stationed in `poll` on the socket; the others sleep
    /// on [`Conn::arrived`] until it files their frame or leaves.
    reading: bool,
    /// Waiters asleep on [`Conn::arrived`] (a notify is a syscall even
    /// with nobody to wake, and the common case is nobody).
    parked: usize,
    /// Set once, by whichever thread saw the connection die; slots that
    /// had `Arrived` by then stay claimable.
    broken: Option<Broken>,
}

impl Inbox {
    fn fail(&mut self, why: Broken) {
        self.broken.get_or_insert(why);
    }

    /// Files every whole frame at the front of `partial` under its id.
    fn file_frames(&mut self) {
        let mut pos = 0;
        while self.broken.is_none() {
            let rest = &self.partial[pos..];
            let need = match frame_len(rest) {
                Ok(Some(need)) if need <= rest.len() => need,
                Ok(_) => break, // header or payload still arriving
                Err(e) => {
                    self.fail(Broken::Protocol(e.to_string()));
                    break;
                }
            };
            match decode_frame(&rest[..need]) {
                Ok((id, Message::Response(resp))) => match (self.slots.get_mut(&id), resp) {
                    (Some(slot @ Slot::Waiting), resp) => *slot = Slot::Arrived(resp),
                    (Some(Slot::Abandoned), _) => {
                        self.slots.remove(&id);
                    }
                    // Servers report connection-level failures (e.g. an
                    // undecodable frame) on the reserved id 0, which
                    // matches no ticket: surface the server's reason to
                    // every waiter instead of a generic unknown-id error.
                    (None, Response::Error(e)) => {
                        self.fail(Broken::Protocol(format!("server closed the connection: {e}")))
                    }
                    // Never issued, or answered twice.
                    (None | Some(Slot::Arrived(_)), _) => {
                        self.fail(Broken::Protocol(format!("response for unknown request id {id}")))
                    }
                },
                Ok((_, Message::Request(_))) => {
                    self.fail(Broken::Protocol("received a request frame on the client".into()))
                }
                Err(e) => self.fail(Broken::Protocol(e.to_string())),
            }
            pos += need;
        }
        self.partial.drain(..pos);
    }
}

/// How much one `read` asks the socket for. A burst of small responses
/// fits in one; a large response takes several, back to back.
const READ_CHUNK: usize = 16 * 1024;
/// Reads per [`Conn::fill`]: 1 MiB, then the inbox is unlocked.
const READS_PER_FILL: usize = 64;

/// How a connection's byte stream stopped.
enum Ended {
    Eof,
    Failed(std::io::Error),
}

/// One pooled connection: a nonblocking socket plus its [`Inbox`]. No
/// thread belongs to it — see the module docs for who reads.
struct Conn {
    stream: TcpStream,
    /// Held across one frame's write, so frames never interleave.
    writing: Mutex<()>,
    next_id: AtomicU64,
    inbox: Mutex<Inbox>,
    /// Signalled when frames were filed, the connection broke, or the
    /// stationed reader left while waiters are parked.
    arrived: Condvar,
}

impl Conn {
    fn open(addr: &std::net::SocketAddr, cfg: &ClientConfig) -> Result<Conn, NetError> {
        let stream = match cfg.connect_timeout {
            Some(t) => TcpStream::connect_timeout(addr, t)?,
            None => TcpStream::connect(addr)?,
        };
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            writing: Mutex::new(()),
            next_id: AtomicU64::new(1),
            inbox: Mutex::new(Inbox {
                slots: HashMap::new(),
                partial: Vec::new(),
                reading: false,
                parked: 0,
                broken: None,
            }),
            arrived: Condvar::new(),
        })
    }

    fn inbox(&self) -> MutexGuard<'_, Inbox> {
        // Every update leaves the inbox valid at every step (a slot is
        // one of three states, `partial` only ever loses whole frames),
        // so a panic elsewhere while it was held poisons nothing.
        self.inbox.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until the socket is ready for one of `events` or
    /// `timeout` passes, and returns what it is ready for (`0` on a
    /// timeout). Hang-ups and socket errors are reported whatever was
    /// asked for; the read that follows finds out which.
    fn ready(&self, events: i16, timeout: Option<Duration>) -> std::io::Result<i16> {
        // poll(2) counts in milliseconds: round up, or a wait that ends
        // inside the last one would spin.
        let timeout_ms = timeout
            .map_or(-1, |t| i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX));
        let mut fds = [PollFd::new(self.stream.as_raw_fd(), events)];
        polling::poll(&mut fds, timeout_ms)?;
        Ok(fds[0].revents)
    }

    /// Wakes the parked waiters so that each re-checks its slot, the
    /// connection's health and whether the read side is free. Called
    /// with the inbox locked, after any change they could be waiting on.
    fn wake_parked(&self, inbox: &Inbox) {
        if inbox.parked > 0 {
            self.arrived.notify_all();
        }
    }

    /// Reads what the socket holds right now (it is nonblocking) and
    /// files every whole frame; EOF and read errors break the
    /// connection *after* the frames that preceded them are filed.
    fn fill(&self, inbox: &mut Inbox) {
        let mut buf = [0u8; READ_CHUNK];
        let mut ended = None;
        // Bounded, so that a peer streaming at full speed cannot keep
        // the inbox locked (and undecoded bytes piling up) for as long
        // as it likes; `poll` is level-triggered and brings us back.
        for _ in 0..READS_PER_FILL {
            match (&self.stream).read(&mut buf) {
                Ok(0) => {
                    ended = Some(Ended::Eof);
                    break;
                }
                Ok(n) => {
                    inbox.partial.extend_from_slice(&buf[..n]);
                    if n < buf.len() {
                        break; // drained for now
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    ended = Some(Ended::Failed(e));
                    break;
                }
            }
        }
        inbox.file_frames();
        match ended {
            None => {}
            Some(Ended::Eof) if inbox.partial.is_empty() => inbox.fail(Broken::Closed),
            Some(Ended::Eof) => inbox.fail(Broken::Protocol(format!(
                "connection closed mid-frame ({} bytes)",
                inbox.partial.len()
            ))),
            Some(Ended::Failed(e)) => inbox.fail(Broken::read_error(e)),
        }
    }

    /// Registers a request and writes its frame; returns the id its
    /// response will carry.
    fn submit(&self, req: &Request) -> Result<u64, NetError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let frame = encode_request(id, req);
        {
            // Registered before the first byte leaves, so the response
            // can never find its id unknown.
            let mut inbox = self.inbox();
            if let Some(why) = &inbox.broken {
                return Err(why.error());
            }
            inbox.slots.insert(id, Slot::Waiting);
        }
        let written = {
            let _one_frame_at_a_time = self.writing.lock().unwrap_or_else(PoisonError::into_inner);
            self.write_frame(&frame)
        };
        if let Err(e) = written {
            // Part of a frame may be on the wire: framing is lost.
            let mut inbox = self.inbox();
            inbox.slots.remove(&id);
            inbox.fail(Broken::Closed);
            self.wake_parked(&inbox);
            return Err(e);
        }
        Ok(id)
    }

    /// Writes one frame. When the socket refuses bytes — the caller has
    /// pipelined past both socket buffers — this thread reads while it
    /// waits for space: the server may itself be stalled on *its* write
    /// buffer until somebody drains this end, and with the caller stuck
    /// here nobody else will.
    fn write_frame(&self, frame: &[u8]) -> Result<(), NetError> {
        let mut sent = 0;
        while sent < frame.len() {
            match (&self.stream).write(&frame[sent..]) {
                Ok(0) => return Err(NetError::Io(ErrorKind::WriteZero.into())),
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if self.ready(POLLIN | POLLOUT, None)? & !POLLOUT != 0 {
                        let mut inbox = self.inbox();
                        if inbox.broken.is_none() {
                            self.fill(&mut inbox);
                            self.wake_parked(&inbox);
                        }
                        if let Some(why) = &inbox.broken {
                            return Err(why.error());
                        }
                    }
                }
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        Ok(())
    }

    /// Blocks until request `id`'s response is in, the connection dies,
    /// or `deadline` passes. The slot is left for the ticket's drop to
    /// settle on every path but success.
    fn wait(&self, id: u64, deadline: Option<Instant>) -> Result<Response, NetError> {
        let mut inbox = self.inbox();
        loop {
            if let Some(Slot::Arrived(_)) = inbox.slots.get(&id) {
                let Some(Slot::Arrived(resp)) = inbox.slots.remove(&id) else { unreachable!() };
                return Ok(resp);
            }
            if let Some(why) = &inbox.broken {
                return Err(why.error());
            }
            let left = match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                Some(Duration::ZERO) => return Err(NetError::Timeout),
                left => left,
            };
            if inbox.reading {
                inbox.parked += 1;
                inbox = match left {
                    Some(left) => {
                        self.arrived
                            .wait_timeout(inbox, left)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0
                    }
                    None => self.arrived.wait(inbox).unwrap_or_else(PoisonError::into_inner),
                };
                inbox.parked -= 1;
                continue;
            }
            // Nobody is reading: this thread does, for everyone.
            inbox.reading = true;
            drop(inbox);
            let ready = self.ready(POLLIN, left);
            inbox = self.inbox();
            inbox.reading = false;
            match ready {
                Ok(revents) if revents != 0 && inbox.broken.is_none() => self.fill(&mut inbox),
                Ok(_) => {} // timed out, or closed under us meanwhile
                Err(e) => inbox.fail(Broken::read_error(e)),
            }
            // Frames may have been filed for them; and if this thread
            // now returns, one of them must take the read side over (if
            // it loops, `reading` is set again before they get the lock).
            self.wake_parked(&inbox);
        }
    }

    /// Settles the slot of a ticket that is going away: a response that
    /// already arrived is dropped with it, one still on its way is
    /// marked to be discarded on arrival.
    fn release(&self, id: u64) {
        let mut inbox = self.inbox();
        let dead = inbox.broken.is_some();
        match inbox.slots.get_mut(&id) {
            Some(slot @ Slot::Waiting) if !dead => *slot = Slot::Abandoned,
            Some(_) => {
                inbox.slots.remove(&id);
            }
            None => {} // claimed by `wait`
        }
    }

    /// Marks the connection dead and wakes everything blocked on it.
    fn close(&self) {
        let mut inbox = self.inbox();
        inbox.fail(Broken::Closed);
        self.wake_parked(&inbox);
        // Brings a reader stationed in `poll` back; it finds `broken`.
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// Handle to one in-flight request; [`NetTicket::wait`] blocks for that
/// request's response only, so several tickets pipeline on one
/// connection. A ticket that is dropped unwaited (or times out) has its
/// late response discarded.
pub struct NetTicket<T> {
    conn: Arc<Conn>,
    id: u64,
    map: fn(Response) -> Result<T, NetError>,
}

impl<T> NetTicket<T> {
    /// Blocks until the response arrives (or the connection dies).
    pub fn wait(self) -> Result<T, NetError> {
        (self.map)(self.conn.wait(self.id, None)?)
    }

    /// [`NetTicket::wait`] bounded by `timeout`: [`NetError::Timeout`]
    /// if no response lands in time (the request may still complete on
    /// the server — only retry operations that are idempotent).
    pub fn wait_timeout(self, timeout: Duration) -> Result<T, NetError> {
        // A timeout too large to add to the clock is no deadline.
        (self.map)(self.conn.wait(self.id, Instant::now().checked_add(timeout))?)
    }
}

impl<T> Drop for NetTicket<T> {
    fn drop(&mut self) {
        self.conn.release(self.id);
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
    conns: Vec<Arc<Conn>>,
    next: AtomicUsize,
}

impl GphClient {
    /// Connects one pooled connection to `addr`.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<GphClient, NetError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit knobs (pool size, connect timeout).
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        cfg: ClientConfig,
    ) -> Result<GphClient, NetError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| NetError::Protocol("address resolved to nothing".into()))?;
        let n = cfg.connections.max(1);
        let conns =
            (0..n).map(|_| Conn::open(&addr, &cfg).map(Arc::new)).collect::<Result<Vec<_>, _>>()?;
        Ok(GphClient { conns, next: AtomicUsize::new(0) })
    }

    /// Connections in the pool.
    pub fn pool_size(&self) -> usize {
        self.conns.len()
    }

    fn submit<T>(
        &self,
        req: &Request,
        map: fn(Response) -> Result<T, NetError>,
    ) -> Result<NetTicket<T>, NetError> {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.conns.len();
        let conn = Arc::clone(&self.conns[i]);
        let id = conn.submit(req)?;
        Ok(NetTicket { conn, id, map })
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

impl Drop for GphClient {
    /// Shuts every pooled socket; tickets still outstanding (they keep
    /// their connection alive) resolve to [`NetError::Closed`] unless
    /// their response had already been read.
    fn drop(&mut self) {
        for conn in &self.conns {
            conn.close();
        }
    }
}

#[cfg(test)]
mod tests {
    //! The connection core against a scripted peer: a thread that owns
    //! the accepted socket, reads request frames and writes chosen bytes.
    //! Interleavings are forced by channels and by watching the inbox's
    //! own state, never by hoping a sleep was long enough.

    use super::*;
    use crate::protocol::{encode_response, read_frame};
    use std::net::TcpListener;
    use std::sync::mpsc;

    /// Connects a client to a peer running `script` on the accepted
    /// socket; the closure returned waits for the script to run through.
    fn scripted(script: impl FnOnce(TcpStream) + Send + 'static) -> (GphClient, impl FnOnce()) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || script(listener.accept().unwrap().0));
        (GphClient::connect(addr).unwrap(), move || peer.join().expect("the script ran through"))
    }

    /// Reads one request frame off the peer's socket; returns its id.
    fn request_id(sock: &mut TcpStream) -> u64 {
        match read_frame(sock).unwrap().expect("a request, not EOF") {
            (id, Message::Request(_), _) => id,
            other => panic!("the client sent {other:?}"),
        }
    }

    /// A response whose content names the request it answers.
    fn named(id: u64) -> Vec<u8> {
        encode_response(id, &Response::Metrics { text: format!("the answer to request {id}") })
    }

    /// Spins until the inbox satisfies `pred`; the watchdog turns a
    /// state that never comes into a failure instead of a hang.
    fn until(conn: &Conn, what: &str, pred: impl Fn(&Inbox) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !pred(&conn.inbox()) {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn waiters_sharing_a_connection_get_their_own_responses_and_hand_the_read_side_on() {
        let (go, turn) = mpsc::channel::<()>();
        let (client, peer) = scripted(move |mut sock| {
            let ids: Vec<u64> = (0..3).map(|_| request_id(&mut sock)).collect();
            assert_eq!(ids, [1, 2, 3]);
            for id in [3, 1, 2] {
                turn.recv().unwrap();
                sock.write_all(&named(id)).unwrap();
            }
        });
        let conn = Arc::clone(&client.conns[0]);
        let mut waiters = Vec::new();
        for _ in 0..3 {
            let ticket = client.submit_metrics().unwrap();
            waiters.push(std::thread::spawn(move || ticket.wait().unwrap()));
            // The first to wait is stationed on the socket, the rest park.
            let parked = waiters.len() - 1;
            until(&conn, "the waiter is blocked", |i| i.reading && i.parked == parked);
        }
        let mut waiters = waiters.into_iter();
        let (first, second, third) =
            (waiters.next().unwrap(), waiters.next().unwrap(), waiters.next().unwrap());

        // Answered last-first: the stationed reader files a frame that
        // is not its own and stays where it is.
        go.send(()).unwrap();
        assert_eq!(third.join().unwrap(), "the answer to request 3");
        until(&conn, "the first waiter still reads", |i| i.reading && i.parked == 1);

        // The reader's own response: it leaves, and the parked waiter
        // must take the socket over rather than sleep forever.
        go.send(()).unwrap();
        assert_eq!(first.join().unwrap(), "the answer to request 1");
        until(&conn, "the second waiter reads", |i| i.reading && i.parked == 0);

        go.send(()).unwrap();
        assert_eq!(second.join().unwrap(), "the answer to request 2");
        assert!(conn.inbox().slots.is_empty());
        peer();
    }

    #[test]
    fn an_abandoned_tickets_late_response_is_discarded_and_the_connection_serves_on() {
        let (go, turn) = mpsc::channel::<()>();
        let (client, peer) = scripted(move |mut sock| {
            assert_eq!(request_id(&mut sock), 1);
            turn.recv().unwrap();
            sock.write_all(&named(1)).unwrap(); // after its ticket gave up
            assert_eq!(request_id(&mut sock), 2);
            assert_eq!(request_id(&mut sock), 3);
            sock.write_all(&named(2)).unwrap(); // nobody holds this ticket
            sock.write_all(&named(3)).unwrap();
        });
        let conn = Arc::clone(&client.conns[0]);

        let timed_out = client.submit_metrics().unwrap().wait_timeout(Duration::from_millis(30));
        assert!(matches!(timed_out, Err(NetError::Timeout)), "got {timed_out:?}");
        assert!(matches!(conn.inbox().slots.get(&1), Some(Slot::Abandoned)));
        go.send(()).unwrap();

        drop(client.submit_metrics().unwrap());
        assert!(matches!(conn.inbox().slots.get(&2), Some(Slot::Abandoned)));
        assert_eq!(client.metrics().unwrap(), "the answer to request 3");

        let inbox = conn.inbox();
        assert!(inbox.slots.is_empty(), "late responses are dropped, not kept");
        assert!(inbox.partial.is_empty() && inbox.broken.is_none());
        drop(inbox);
        peer();
    }

    #[test]
    fn a_frame_in_pieces_reassembles_and_a_timeout_mid_frame_loses_no_bytes() {
        let (go, turn) = mpsc::channel::<()>();
        let (wrote, written) = mpsc::channel::<()>();
        let (client, peer) = scripted(move |mut sock| {
            for id in 1..=3 {
                assert_eq!(request_id(&mut sock), id);
            }
            let frame = named(1);
            sock.write_all(&frame[..10]).unwrap(); // not even a header
            wrote.send(()).unwrap();
            turn.recv().unwrap();
            sock.write_all(&frame[10..30]).unwrap(); // header, some payload
            std::thread::sleep(Duration::from_millis(20));
            // The rest of frame 1, frame 2 and the head of frame 3 in
            // one write; frame 3's tail after another pause.
            let frame3 = named(3);
            sock.write_all(&[&frame[30..], &named(2)[..], &frame3[..7]].concat()).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            sock.write_all(&frame3[7..]).unwrap();
        });
        let conn = Arc::clone(&client.conns[0]);
        let one = client.submit_metrics().unwrap();
        let two = client.submit_metrics().unwrap();
        let three = client.submit_metrics().unwrap();

        written.recv().unwrap();
        let timed_out = one.wait_timeout(Duration::from_millis(30));
        assert!(matches!(timed_out, Err(NetError::Timeout)), "got {timed_out:?}");
        assert_eq!(conn.inbox().partial.len(), 10, "the piece read so far is kept");

        // The next waiter picks the frame up where the last one left it:
        // frame 1 completes (and is discarded), frame 2 is its own.
        go.send(()).unwrap();
        assert_eq!(two.wait().unwrap(), "the answer to request 2");
        assert_eq!(three.wait().unwrap(), "the answer to request 3");
        let inbox = conn.inbox();
        assert!(inbox.slots.is_empty() && inbox.partial.is_empty() && inbox.broken.is_none());
        drop(inbox);
        peer();
    }

    /// Runs one connection-fatal script: two tickets are outstanding
    /// when the peer writes `bytes` (and, for `then_eof`, closes); both
    /// must fail the way `expect` says, and so must the next submit.
    fn fatal(bytes: Vec<u8>, then_eof: bool, expect: impl Fn(&NetError) -> bool) {
        let (done, hold) = mpsc::channel::<()>();
        let (client, peer) = scripted(move |mut sock| {
            assert_eq!((request_id(&mut sock), request_id(&mut sock)), (1, 2));
            sock.write_all(&bytes).unwrap();
            if then_eof {
                drop(sock);
            }
            let _ = hold.recv(); // keep the socket open meanwhile
        });
        let tickets = [client.submit_ping().unwrap(), client.submit_ping().unwrap()];
        for ticket in tickets {
            let err = ticket.wait().expect_err("the connection is dead");
            assert!(expect(&err), "ticket failed with {err:?}");
        }
        let err = client.submit_ping().map(|_| ()).expect_err("and stays dead");
        assert!(expect(&err), "submit failed with {err:?}");
        assert!(client.conns[0].inbox().slots.is_empty());
        done.send(()).unwrap();
        peer();
    }

    fn protocol(needle: &'static str) -> impl Fn(&NetError) -> bool {
        move |e| matches!(e, NetError::Protocol(why) if why.contains(needle))
    }

    #[test]
    fn connection_level_failures_fail_every_outstanding_ticket() {
        let pong = |id| encode_response(id, &Response::Pong);
        fatal(pong(99), false, protocol("response for unknown request id 99"));
        fatal(
            encode_request(1, &Request::Ping),
            false,
            protocol("received a request frame on the client"),
        );
        let mut flipped = pong(1);
        flipped[20] ^= 0x40;
        fatal(flipped, false, protocol("checksum mismatch"));
        fatal(Vec::new(), true, |e| matches!(e, NetError::Closed));
        fatal(pong(1)[..10].to_vec(), true, protocol("connection closed mid-frame (10 bytes)"));
        // The server's own report of why it is hanging up, on the
        // reserved id 0, reaches the callers verbatim.
        let reason = WireError::Malformed("bad frame magic".into());
        fatal(
            encode_response(0, &Response::Error(reason)),
            true,
            protocol("server closed the connection: malformed frame: bad frame magic"),
        );
    }

    #[test]
    fn a_response_that_arrived_before_the_failure_is_still_delivered() {
        let (client, peer) = scripted(move |mut sock| {
            assert_eq!((request_id(&mut sock), request_id(&mut sock)), (1, 2));
            sock.write_all(&named(1)).unwrap();
        });
        let one = client.submit_metrics().unwrap();
        let two = client.submit_metrics().unwrap();
        peer(); // frame 1 and the EOF are both in
        assert!(matches!(two.wait(), Err(NetError::Closed)));
        assert_eq!(one.wait().unwrap(), "the answer to request 1");
    }

    #[test]
    fn dropping_the_client_wakes_its_waiters_with_closed() {
        let (done, hold) = mpsc::channel::<()>();
        let (client, peer) = scripted(move |mut sock| {
            assert_eq!((request_id(&mut sock), request_id(&mut sock)), (1, 2));
            let _ = hold.recv();
        });
        let conn = Arc::clone(&client.conns[0]);
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let ticket = client.submit_ping().unwrap();
                std::thread::spawn(move || ticket.wait())
            })
            .collect();
        until(&conn, "one waiter reads and one is parked", |i| i.reading && i.parked == 1);
        let dropped = Instant::now();
        drop(client);
        for waiter in waiters {
            assert!(matches!(waiter.join().unwrap(), Err(NetError::Closed)));
        }
        assert!(dropped.elapsed() < Duration::from_secs(5), "took {:?}", dropped.elapsed());
        done.send(()).unwrap();
        peer();
    }

    /// The `Threads:` line of `/proc/self/status`.
    #[cfg(target_os = "linux")]
    fn process_threads() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let line = status.lines().find_map(|l| l.strip_prefix("Threads:")).unwrap();
        line.trim().parse().unwrap()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn connecting_spawns_no_threads() {
        // Nobody accepts: the listener's backlog completes the
        // handshakes, so the only threads that could appear are ours.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let cfg = ClientConfig { connections: 64, ..ClientConfig::default() };
        // Sibling tests start and stop their own threads in this
        // process; a thread per connection would show as +64 on every
        // attempt, their comings and goings do not.
        let mut seen = Vec::new();
        for _ in 0..50 {
            let before = process_threads();
            let client = GphClient::connect_with(listener.local_addr().unwrap(), cfg).unwrap();
            let after = process_threads();
            assert_eq!(client.pool_size(), 64);
            if before == after {
                return;
            }
            seen.push((before, after));
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("64 connections never left the thread count alone: {seen:?}");
    }
}
