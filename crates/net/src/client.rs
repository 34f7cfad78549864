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
//! outstanding request, and a [`FrameReader`] holding the bytes that are
//! not a whole frame yet) under one mutex, and **whichever thread is
//! blocked on the connection drives it**. A ticket that waits checks its
//! slot; if nobody is reading it becomes the reader — waits for the
//! socket up to its deadline, reads what is there, files every whole
//! frame under its id, wakes the others, checks again — and otherwise
//! sleeps until the reader files its frame or leaves, and then takes
//! over. A synchronous call is thus write, wait for readiness, read, all
//! on the calling thread: the response crosses no thread on this side of
//! the socket.
//!
//! Each decision is a transition of the inbox, free of I/O: `wait`
//! (take the response, give up, park, or become the reader), `read` (the
//! reader is back from `poll`: read a burst, file, hand over), `fill`
//! (the same read for a `submit_*` waiting for write space), `release`
//! (abandon a slot), `fail` (the first reason the connection died
//! stands). Those that can change what a parked waiter sleeps on say
//! whether to wake it; the socket code keeps `poll`, `read`, `write` and
//! the condvar, and the unit tests run the inbox through every ordering
//! of up to three waiters.
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
    encode_request, FleetManifest, FrameReader, Message, NodeHealth, Request, Response,
    SearchEntry, WireError, WireMutation,
};
use crate::NetError;
use gph_obs::QueryTrace;
use polling::{PollFd, POLLIN, POLLOUT};
use std::collections::HashMap;
use std::io::{self, ErrorKind, Write};
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

/// What a waiter does next, as [`Inbox::wait`] decides it.
enum Step {
    /// The ticket is settled: its response, or why there is none.
    Done(Result<Response, NetError>),
    /// Sleep on [`Conn::arrived`] behind the stationed reader (up to the
    /// deadline), [`Inbox::unpark`], and ask again.
    Park,
    /// Become the reader: `poll` the socket up to the deadline, hand the
    /// outcome to [`Inbox::read`], and ask again.
    Read,
}

/// The read side of a connection: everything a response passes through
/// between the socket and its ticket, and every decision about who reads
/// it. Each method is one transition, taken with the inbox locked.
#[derive(Default)]
struct Inbox {
    slots: HashMap<u64, Slot>,
    /// Bytes read off the socket that are not a whole frame yet.
    frames: FrameReader,
    /// A waiter is stationed in `poll` on the socket; the others sleep
    /// on [`Conn::arrived`] until it files their frame or leaves.
    reading: bool,
    /// Waiters asleep on [`Conn::arrived`] (a notify is a syscall even
    /// with nobody to wake, and the common case is nobody).
    parked: usize,
    /// Set once, by whichever thread saw the connection die; slots that
    /// had `Arrived` by then stay claimable. Only ever `Closed` or
    /// `Protocol`, which [`Inbox::health`] can copy for every ticket.
    broken: Option<NetError>,
}

impl Inbox {
    fn health(&self) -> Result<(), NetError> {
        match &self.broken {
            None => Ok(()),
            Some(NetError::Protocol(why)) => Err(NetError::Protocol(why.clone())),
            Some(_) => Err(NetError::Closed),
        }
    }

    /// Registers request `id` before the first byte of its frame leaves,
    /// so that the response can never find its id unknown.
    fn submit(&mut self, id: u64) -> Result<(), NetError> {
        self.health()?;
        self.slots.insert(id, Slot::Waiting);
        Ok(())
    }

    /// Request `id`'s frame did not leave whole: part of it may be on the
    /// wire, so framing is lost.
    fn unsent(&mut self, id: u64) -> bool {
        self.slots.remove(&id);
        self.fail(NetError::Closed)
    }

    /// One turn of a waiter's loop: its response if it is in, else the
    /// connection's death, else the deadline (`expired`), else sleep
    /// behind the stationed reader or become it.
    fn wait(&mut self, id: u64, expired: bool) -> Step {
        if let Some(Slot::Arrived(_)) = self.slots.get(&id) {
            let Some(Slot::Arrived(resp)) = self.slots.remove(&id) else { unreachable!() };
            return Step::Done(Ok(resp));
        }
        if let Err(why) = self.health() {
            return Step::Done(Err(why));
        }
        if expired {
            return Step::Done(Err(NetError::Timeout));
        }
        if self.reading {
            self.parked += 1;
            Step::Park
        } else {
            self.reading = true;
            Step::Read
        }
    }

    fn unpark(&mut self) {
        self.parked -= 1;
    }

    /// The stationed reader is back from `poll` (`Ok(true)`: the socket
    /// has something) and gives up the read side, reading first if it
    /// can. The parked waiters are always woken: frames may have been
    /// filed for them, and if the reader now returns one of them must
    /// take the read side over (if it loops, it takes it back first).
    fn read(
        &mut self,
        polled: io::Result<bool>,
        read: impl FnOnce(&mut FrameReader) -> io::Result<bool>,
    ) -> bool {
        self.reading = false;
        match polled {
            Ok(true) => self.fill(read),
            Ok(false) => self.parked > 0, // timed out
            Err(e) => self.fail(NetError::Io(e)),
        }
    }

    /// Unless the connection is dead: reads one burst (`read` is
    /// [`FrameReader::read_from`] on the socket), files every whole frame
    /// under its id, and only then lets an EOF or a read error break the
    /// connection. Returns whether to wake the parked waiters.
    fn fill(&mut self, read: impl FnOnce(&mut FrameReader) -> io::Result<bool>) -> bool {
        if self.broken.is_none() {
            let ended = read(&mut self.frames);
            while self.broken.is_none() {
                match self.frames.pop() {
                    Ok(Some((id, message, _))) => self.file(id, message),
                    Ok(None) => break,
                    Err(e) => self.broken = Some(e),
                }
            }
            let ended = match ended {
                Ok(true) => self.frames.finish().and(Err(NetError::Closed)),
                Ok(false) => Ok(()),
                Err(e) => Err(NetError::Io(e)),
            };
            if let Err(why) = ended {
                self.fail(why);
            }
        }
        self.parked > 0
    }

    fn file(&mut self, id: u64, message: Message) {
        let why = match (message, self.slots.get_mut(&id)) {
            (Message::Response(resp), Some(slot @ Slot::Waiting)) => {
                *slot = Slot::Arrived(resp);
                return;
            }
            (Message::Response(_), Some(Slot::Abandoned)) => {
                self.slots.remove(&id);
                return;
            }
            // Servers report connection-level failures (e.g. an
            // undecodable frame) on the reserved id 0, which matches no
            // ticket: surface the server's reason to every waiter instead
            // of a generic unknown-id error.
            (Message::Response(Response::Error(e)), None) => {
                format!("server closed the connection: {e}")
            }
            // Never issued, or answered twice.
            (Message::Response(_), _) => format!("response for unknown request id {id}"),
            (Message::Request(_), _) => "received a request frame on the client".into(),
        };
        self.fail(NetError::Protocol(why));
    }

    /// Settles the slot of a ticket that is going away: a response that
    /// already arrived is dropped with it, one still on its way is
    /// marked to be discarded on arrival.
    fn release(&mut self, id: u64) {
        let dead = self.broken.is_some();
        match self.slots.get_mut(&id) {
            Some(slot @ Slot::Waiting) if !dead => *slot = Slot::Abandoned,
            Some(_) => {
                self.slots.remove(&id);
            }
            None => {} // claimed by `wait`
        }
    }

    /// Records why the connection died — the first reason stands — and
    /// returns whether to wake the parked waiters, who must all hear it.
    fn fail(&mut self, why: NetError) -> bool {
        self.broken.get_or_insert_with(|| match why {
            NetError::Closed | NetError::Protocol(_) => why,
            other => NetError::Protocol(other.to_string()),
        });
        self.parked > 0
    }
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
            inbox: Mutex::new(Inbox::default()),
            arrived: Condvar::new(),
        })
    }

    fn inbox(&self) -> MutexGuard<'_, Inbox> {
        // Every update leaves the inbox valid at every step (a slot is
        // one of three states, `frames` only ever loses whole frames),
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

    /// Wakes the parked waiters when an [`Inbox`] transition says so.
    /// Called with the inbox locked.
    fn wake(&self, parked: bool) {
        if parked {
            self.arrived.notify_all();
        }
    }

    /// Registers a request and writes its frame; returns the id its
    /// response will carry.
    fn submit(&self, req: &Request) -> Result<u64, NetError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let frame = encode_request(id, req);
        self.inbox().submit(id)?;
        let written = {
            let _one_frame_at_a_time = self.writing.lock().unwrap_or_else(PoisonError::into_inner);
            self.write_frame(&frame)
        };
        if written.is_err() {
            self.wake(self.inbox().unsent(id));
        }
        written.map(|()| id)
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
                        self.wake(inbox.fill(|frames| frames.read_from(&self.stream)));
                        inbox.health()?;
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
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            match inbox.wait(id, left == Some(Duration::ZERO)) {
                Step::Done(result) => return result,
                Step::Park => {
                    inbox = match left {
                        Some(left) => {
                            self.arrived
                                .wait_timeout(inbox, left)
                                .unwrap_or_else(PoisonError::into_inner)
                                .0
                        }
                        None => self.arrived.wait(inbox).unwrap_or_else(PoisonError::into_inner),
                    };
                    inbox.unpark();
                }
                Step::Read => {
                    drop(inbox);
                    let polled = self.ready(POLLIN, left).map(|revents| revents != 0);
                    inbox = self.inbox();
                    self.wake(inbox.read(polled, |frames| frames.read_from(&self.stream)));
                }
            }
        }
    }

    /// Marks the connection dead and wakes everything blocked on it.
    fn close(&self) {
        self.wake(self.inbox().fail(NetError::Closed));
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
        self.conn.inbox().release(self.id);
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
    //! own state, never by hoping a sleep was long enough. Then the inbox
    //! alone, under a depth-first scheduler that takes every ordering of
    //! its transitions instead of the few a real socket happens to show.

    use super::*;
    use crate::protocol::{encode_response, read_frame};
    use std::collections::HashSet;
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
        assert!(inbox.frames.pending() == 0 && inbox.broken.is_none());
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
        assert_eq!(conn.inbox().frames.pending(), 10, "the piece read so far is kept");

        // The next waiter picks the frame up where the last one left it:
        // frame 1 completes (and is discarded), frame 2 is its own.
        go.send(()).unwrap();
        assert_eq!(two.wait().unwrap(), "the answer to request 2");
        assert_eq!(three.wait().unwrap(), "the answer to request 3");
        let inbox = conn.inbox();
        assert!(inbox.slots.is_empty() && inbox.frames.pending() == 0 && inbox.broken.is_none());
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

    // -----------------------------------------------------------------
    // Every interleaving: the inbox's transitions under a depth-first
    // scheduler, with no socket and no threads.
    // -----------------------------------------------------------------

    /// Where a modelled waiter is. Waiter `w` holds the ticket of request
    /// `w + 1`.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum At {
        /// Holds a ticket it has not waited on.
        Holding,
        /// Asleep on the condvar; `woken` once a notify has reached it.
        Parked { woken: bool },
        /// Stationed in `poll` on the socket.
        Reading,
        /// Its `wait` returned.
        Done,
        /// Its ticket is dropped.
        Gone,
    }

    /// One thing the scheduler can make happen next. Each is one step
    /// `Conn` takes with the inbox locked, so the steps are atomic.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    enum Event {
        /// Waiter `w` calls `wait`, or wakes from the condvar after a
        /// notify, and asks the inbox what to do.
        Wait(usize),
        /// Waiter `w`'s deadline passes: a ticket not yet waited on is
        /// waited with none left, a parked waiter's condvar wait times
        /// out, a reader's `poll` returns empty.
        Timeout(usize),
        /// Waiter `w` drops its ticket, unwaited or after `wait` returned.
        Drop(usize),
        /// The reader's burst brings the response to request `id`.
        Bytes(u64),
        /// `poll` said readable, but the read would block.
        WouldBlock,
        /// The peer closes the connection.
        Eof,
        /// The peer sends its reason for hanging up on id 0, then the
        /// read fails.
        Error,
    }

    const GOODBYE: &str =
        "protocol error: server closed the connection: malformed frame: going away";

    /// One inbox, `n` waiters, and a peer that has answered every request:
    /// the answers sit in the socket until a reader's burst takes them.
    struct World {
        inbox: Inbox,
        at: Vec<At>,
        expired: Vec<bool>,
        /// Requests whose response is still in the socket.
        unread: Vec<u64>,
        would_block_left: bool,
        /// What every waiter and the next submit must hear once a
        /// connection-fatal event happened.
        fatal: Option<String>,
        trace: Vec<Event>,
    }

    impl World {
        fn new(n: usize) -> World {
            let mut inbox = Inbox::default();
            for id in 1..=n as u64 {
                inbox.submit(id).unwrap();
            }
            World {
                inbox,
                at: vec![At::Holding; n],
                expired: vec![false; n],
                unread: (1..=n as u64).collect(),
                would_block_left: true,
                fatal: None,
                trace: Vec::new(),
            }
        }

        fn broken(&self, property: u8, what: String) -> ! {
            let name = [
                "each ticket resolves exactly once",
                "a waiter is parked while bytes are pending only if someone is reading",
                "an abandoned response is never delivered",
                "a connection-fatal event reaches every waiter and the next submit",
            ][usize::from(property) - 1];
            panic!("property {property} ({name}) broken: {what}\n  after {:?}", self.trace)
        }

        fn reader(&self) -> Option<usize> {
            self.at.iter().position(|&at| at == At::Reading)
        }

        /// Every event that could happen next, in a fixed order.
        fn enabled(&self) -> Vec<Event> {
            let mut events = Vec::new();
            for (w, &at) in self.at.iter().enumerate() {
                match at {
                    At::Holding => {
                        events.extend([Event::Wait(w), Event::Timeout(w), Event::Drop(w)])
                    }
                    At::Parked { woken } => {
                        if woken {
                            events.push(Event::Wait(w));
                        }
                        events.push(Event::Timeout(w));
                    }
                    At::Reading => events.push(Event::Timeout(w)),
                    At::Done => events.push(Event::Drop(w)),
                    At::Gone => {}
                }
            }
            if self.reader().is_some() && self.fatal.is_none() {
                events.extend(self.unread.iter().map(|&id| Event::Bytes(id)));
                if self.would_block_left {
                    events.push(Event::WouldBlock);
                }
                events.extend([Event::Eof, Event::Error]);
            }
            events
        }

        fn apply(&mut self, event: Event) {
            self.trace.push(event);
            match event {
                Event::Wait(w) => {
                    if let At::Parked { .. } = self.at[w] {
                        self.inbox.unpark();
                    }
                    self.step(w);
                }
                Event::Timeout(w) => {
                    self.expired[w] = true;
                    match self.at[w] {
                        At::Parked { .. } => {
                            self.inbox.unpark();
                            self.step(w);
                        }
                        At::Reading => self.leave(Ok(false), |_| unreachable!("poll was empty")),
                        _ => self.step(w),
                    }
                }
                Event::Drop(w) => {
                    self.inbox.release(w as u64 + 1);
                    self.at[w] = At::Gone;
                }
                Event::Bytes(id) => {
                    self.unread.retain(|&unread| unread != id);
                    self.leave(Ok(true), |frames| {
                        frames.push(&named(id));
                        Ok(false)
                    });
                }
                Event::WouldBlock => {
                    self.would_block_left = false;
                    self.leave(Ok(true), |_| Ok(false));
                }
                Event::Eof => {
                    self.fatal = Some(NetError::Closed.to_string());
                    self.leave(Ok(true), |_| Ok(true));
                }
                Event::Error => {
                    self.fatal = Some(GOODBYE.into());
                    let why = WireError::Malformed("going away".into());
                    self.leave(Ok(true), |frames| {
                        frames.push(&encode_response(0, &Response::Error(why)));
                        Err(ErrorKind::ConnectionReset.into())
                    });
                }
            }
            self.check();
        }

        /// The stationed reader comes back from `poll` with `polled`, as
        /// `Conn::wait` does: the inbox reads through `read`, the condvar
        /// is notified if the inbox says so, and the reader asks again.
        fn leave(
            &mut self,
            polled: io::Result<bool>,
            read: impl FnOnce(&mut FrameReader) -> io::Result<bool>,
        ) {
            let w = self.reader().expect("a reader is stationed");
            if self.inbox.read(polled, read) {
                for at in &mut self.at {
                    if let At::Parked { woken } = at {
                        *woken = true;
                    }
                }
            }
            self.step(w);
        }

        fn step(&mut self, w: usize) {
            self.at[w] = match self.inbox.wait(w as u64 + 1, self.expired[w]) {
                Step::Done(result) => {
                    self.settled(w, result);
                    At::Done
                }
                Step::Park => At::Parked { woken: false },
                Step::Read => At::Reading,
            };
        }

        /// Waiter `w`'s `wait` returned `result`.
        fn settled(&self, w: usize, result: Result<Response, NetError>) {
            let id = w as u64 + 1;
            let in_socket = self.unread.contains(&id);
            match result {
                Ok(Response::Metrics { text }) if text == format!("the answer to request {id}") => {
                    if in_socket {
                        self.broken(1, format!("waiter {w} got a response nobody read"));
                    }
                }
                Ok(other) => self.broken(1, format!("waiter {w} got {other:?}")),
                Err(_) if !in_socket => {
                    self.broken(1, format!("waiter {w} lost the response that was read for it"))
                }
                Err(NetError::Timeout) if self.fatal.is_some() => {
                    self.broken(4, format!("waiter {w} timed out on a dead connection"))
                }
                Err(NetError::Timeout) if !self.expired[w] => {
                    self.broken(1, format!("waiter {w} timed out before its deadline"))
                }
                Err(NetError::Timeout) => {}
                Err(e) if self.fatal.as_deref() == Some(e.to_string().as_str()) => {}
                Err(e) => self.broken(4, format!("waiter {w} heard {e:?}, not {:?}", self.fatal)),
            }
        }

        /// The invariants every state must keep.
        fn check(&mut self) {
            let (reading, parked) = (
                self.at.iter().filter(|&&at| at == At::Reading).count(),
                self.at.iter().filter(|at| matches!(at, At::Parked { .. })).count(),
            );
            if self.inbox.reading != (reading == 1) || reading > 1 || self.inbox.parked != parked {
                self.broken(
                    2,
                    format!("the inbox counts {reading} readers and {parked} parked wrong"),
                );
            }
            if reading == 0 && self.at.contains(&At::Parked { woken: false }) {
                let pending = if self.unread.is_empty() { "" } else { " with bytes pending" };
                self.broken(2, format!("a waiter sleeps{pending} and nobody reads"));
            }
            for (w, &at) in self.at.iter().enumerate() {
                if at == At::Gone
                    && matches!(self.inbox.slots.get(&(w as u64 + 1)), Some(Slot::Arrived(_)))
                {
                    self.broken(3, format!("the response of dropped waiter {w} was filed"));
                }
            }
            if let Some(fatal) = &self.fatal {
                // Refused, so it leaves the inbox as it was.
                match self.inbox.submit(99) {
                    Err(e) if &e.to_string() == fatal => {}
                    other => self.broken(4, format!("the next submit got {other:?}, not {fatal}")),
                }
            }
        }

        /// Everything that decides what can happen next.
        fn key(&self) -> String {
            let mut slots: Vec<_> = (self.inbox.slots.iter())
                .map(|(id, slot)| {
                    (*id, matches!(slot, Slot::Abandoned), matches!(slot, Slot::Arrived(_)))
                })
                .collect();
            slots.sort_unstable();
            format!(
                "{:?} {:?} {:?} {} {:?} {slots:?} {} {} {:?} {}",
                self.at,
                self.expired,
                self.unread,
                self.would_block_left,
                self.fatal,
                self.inbox.reading,
                self.inbox.parked,
                self.inbox.broken,
                self.inbox.frames.pending(),
            )
        }

        /// What is left when every ticket is gone.
        fn finish(&self) {
            for (id, slot) in &self.inbox.slots {
                if !matches!(slot, Slot::Abandoned) || !self.unread.contains(id) {
                    self.broken(3, format!("slot {id} outlived its ticket"));
                }
            }
        }
    }

    /// Depth-first over every ordering of the enabled events, replaying
    /// `path` from the start to reach each state. An ordering that
    /// reaches a state already explored stops there: what can happen
    /// next, and every check made on it, depends on the state alone.
    fn explore(
        n: usize,
        path: &mut Vec<Event>,
        seen: &mut HashSet<String>,
        fired: &mut HashSet<std::mem::Discriminant<Event>>,
    ) {
        let mut world = World::new(n);
        for &event in path.iter() {
            world.apply(event);
        }
        if !seen.insert(world.key()) {
            return;
        }
        let events = world.enabled();
        if events.is_empty() {
            world.finish();
        }
        for event in events {
            fired.insert(std::mem::discriminant(&event));
            path.push(event);
            explore(n, path, seen, fired);
            path.pop();
        }
    }

    #[test]
    fn every_interleaving_of_up_to_three_waiters_keeps_the_inboxs_four_properties() {
        for n in 1..=3 {
            let (mut seen, mut fired) = (HashSet::new(), HashSet::new());
            explore(n, &mut Vec::new(), &mut seen, &mut fired);
            assert_eq!(fired.len(), 7, "{n} waiter(s): every kind of event happened somewhere");
        }
    }
}
