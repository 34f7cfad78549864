//! # gph-net
//!
//! Network serving for the GPH reproduction: the subsystem that turns
//! the in-process [`gph_serve::QueryService`] into an actual server —
//! and one server into a fleet.
//!
//! ```text
//!                       ┌───────────── one node ─────────────┐
//!   GphClient ──(GPHN)──▶ EventLoop: acceptor + W workers    │
//!      │                │   (nonblocking sockets, poll(2),   │
//!   connection pool,    │    per-conn buffers, backpressure, │
//!   submit/wait tickets,│    idle eviction, graceful drain)  │
//!   no thread: whoever  │    │ Reply::Now      │ Reply::Later│
//!   waits reads         │    │ (hits, pings)   ▼ (misses)    │
//!      │                │    │           resolver pool       │
//!   FleetClient         │    └──────────────┬▶ Arc<QueryService>
//!      │                └────────────────────────────────────┘
//!      │  scatter (search, topk, traced) ─ one request per group primary
//!      │  sweep (health, metrics)        ─ one request per address
//!      │  ladder (retries, mutations)    ─ one group's addresses in turn
//!      ├──▶ node group A (primary + replicas)   ─ slots {0,3,6}
//!      ├──▶ node group B                        ─ slots {1,4,7}
//!      ├──▶ node group C                        ─ slots {2,5}
//!      └──▶ MetastoreServer: versioned FleetManifest (shard→node map),
//!           every op answered Reply::Now
//! ```
//!
//! * [`protocol`] — the `GPHN` length-prefixed, versioned, CRC-32
//!   checksummed binary wire format, including the fleet metastore ops
//!   (`GetManifest`/`PublishManifest`) and the [`FleetManifest`] codec.
//!   Corruption anywhere in a frame is a typed error, never a panic.
//! * [`event`] — the readiness-driven [`EventLoop`]: one acceptor and a
//!   small worker set multiplex thousands of nonblocking connections
//!   (no per-connection threads); a reply that is ready leaves on the
//!   worker that decoded its request ([`Reply::Now`]), blocking query
//!   waits run on a separate resolver pool via [`Reply::Later`]. Write
//!   buffers are capped (backpressure pauses reading), idle connections
//!   can be evicted, and shutdown drains in-flight work.
//! * [`server`] — [`NetServer`]: the query-node [`RequestHandler`] over
//!   an [`EventLoop`] and an `Arc<QueryService>`; cache hits and
//!   admission rejections are answered in place, misses deferred.
//! * [`metastore`] — [`MetastoreServer`]: a tiny manifest server that
//!   versions the fleet's shard→node map (strictly increasing) and
//!   keeps nothing else; it never talks to a node.
//! * [`client`] — a blocking [`GphClient`] with connection pooling and
//!   pipelined `submit_*`/`wait` mirroring the in-process
//!   [`gph_serve::Ticket`] API. It owns no thread: the caller blocked in
//!   `wait` reads the socket, for itself and for every other waiter.
//! * [`fleet`] — [`FleetClient`]: routes by manifest with the same
//!   stable id hash the in-process shards use, scatter-gathers reads
//!   with the exact top-k merge, and retries idempotent reads across
//!   replicas with timeout and backoff. Traced fleet searches merge
//!   every node's hop trace into a [`gph_obs::FleetTrace`] (engine vs
//!   network + queue time per hop, straggler identification). One
//!   sweep over every manifest address, under one shared probe
//!   deadline, serves both `Health` probes — which demote saturated or
//!   unreachable replicas in the retry ladder — and fleet-wide metrics
//!   ([`FleetClient::metrics`]: merged exposition, stale nodes reported
//!   with their error).
//! * [`testing`] — a deterministic, seeded fault-injection proxy
//!   ([`FaultProxy`]) for exercising all of the above under partial
//!   writes, torn frames, stalls, resets, and delayed accepts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod event;
pub mod fleet;
pub mod metastore;
pub mod protocol;
pub mod server;
pub mod testing;

pub use client::{
    BatchEntry, ClientConfig, GphClient, NetTicket, RangeResult, TopKResult, TracedResult,
};
pub use event::{EventLoop, NetServerStats, Reply, RequestHandler, ServerConfig};
pub use fleet::{
    AddressHealth, FleetClient, FleetConfig, FleetMetrics, FleetSearch, FleetTopK,
    FleetTracedSearch, NodeScrape,
};
pub use metastore::MetastoreServer;
pub use protocol::{
    FleetManifest, FleetNode, Message, NodeHealth, Request, Response, SearchEntry, WireError,
    WireMutation,
};
pub use server::NetServer;
pub use testing::{FaultPlan, FaultProxy, FaultStats};

/// Errors produced by the wire protocol, the client, and the server.
#[derive(Debug)]
pub enum NetError {
    /// An underlying socket error.
    Io(std::io::Error),
    /// A frame failed to decode (bad magic, checksum mismatch,
    /// truncation, unknown opcode, ...). The connection is unusable
    /// afterwards because framing is lost.
    Protocol(String),
    /// The peer answered with a typed error frame.
    Remote(protocol::WireError),
    /// The connection closed before the response arrived.
    Closed,
    /// No response arrived within the caller's deadline. The request
    /// may still complete on the server — only retry idempotent ones.
    Timeout,
}

impl NetError {
    /// True when this is a remote admission rejection; returns the
    /// `(estimated_cost, budget)` the server reported.
    pub fn rejected(&self) -> Option<(f64, f64)> {
        match self {
            NetError::Remote(protocol::WireError::Rejected { estimated_cost, budget }) => {
                Some((*estimated_cost, *budget))
            }
            _ => None,
        }
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Protocol(m) => write!(f, "protocol error: {m}"),
            NetError::Remote(e) => write!(f, "remote error: {e}"),
            NetError::Closed => write!(f, "connection closed"),
            NetError::Timeout => write!(f, "timed out waiting for the response"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<hamming_core::HammingError> for NetError {
    fn from(e: hamming_core::HammingError) -> Self {
        match e {
            hamming_core::HammingError::Io(io) => NetError::Io(io),
            other => NetError::Protocol(other.to_string()),
        }
    }
}
