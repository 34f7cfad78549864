//! The `GPHN` wire protocol: a length-prefixed, versioned, CRC-32
//! checksummed binary frame format (see `crates/net/PROTOCOL.md` for the
//! normative spec).
//!
//! Every frame is:
//!
//! ```text
//! magic       [u8; 4] = b"GPHN"
//! version     u8      = 1
//! kind        u8        0 = request, 1 = response
//! opcode      u8
//! reserved    u8      = 0
//! request_id  u64     (LE; echoes the request on responses — pipelining)
//! payload_len u32     (LE; at most MAX_PAYLOAD)
//! crc32       u32     (LE; over version..payload_len ++ payload)
//! payload     [u8; payload_len]
//! ```
//!
//! The CRC covers every header byte after the magic plus the whole
//! payload, so any single-byte corruption anywhere in a frame is
//! detected (CRC-32 catches all burst errors up to 32 bits) and surfaces
//! as [`NetError::Protocol`] — never a panic, never silently wrong data.
//! Encoding is canonical: decoding a frame and re-encoding it reproduces
//! the input byte-for-byte, which the protocol property tests pin down.
//!
//! [`decode_frame`] decodes exactly one frame. Both ends of a socket —
//! the client's inbox and the server's event workers — parse a stream
//! with a [`FrameReader`], which sizes the frame at the front of its
//! buffer from the header and decodes it once whole; each end keeps its
//! own end-of-stream policy. [`read_frame`] is the blocking one-frame
//! case, for tests and tools.

use crate::NetError;
use gph_obs::QueryTrace;
use hamming_core::io::{ByteReader, Crc32};
use std::io::{ErrorKind, Read};

/// Frame magic.
pub const MAGIC: [u8; 4] = *b"GPHN";
/// Protocol version spoken by this build.
pub const VERSION: u8 = 1;
/// Fixed frame-header size in bytes.
pub const HEADER_LEN: usize = 24;
/// Ceiling on `payload_len` — rejects absurd lengths before allocating.
pub const MAX_PAYLOAD: u32 = 1 << 26;

/// Frame kind: request (client → server).
pub const KIND_REQUEST: u8 = 0;
/// Frame kind: response (server → client).
pub const KIND_RESPONSE: u8 = 1;

/// Op code for [`Request::Ping`] / [`Response::Pong`].
pub const OP_PING: u8 = 0x01;
/// Op code for [`Request::Search`] / [`Response::Search`].
pub const OP_SEARCH: u8 = 0x02;
/// Op code for [`Request::TopK`] / [`Response::TopK`].
pub const OP_TOPK: u8 = 0x03;
/// Op code for [`Request::BatchSearch`] / [`Response::Batch`].
pub const OP_BATCH: u8 = 0x04;
/// Op code for [`Request::Insert`].
pub const OP_INSERT: u8 = 0x05;
/// Op code for [`Request::Delete`].
pub const OP_DELETE: u8 = 0x06;
/// Op code for [`Request::Upsert`].
pub const OP_UPSERT: u8 = 0x07;
/// Op code for [`Response::Mutation`] (answers insert/delete/upsert).
pub const OP_MUTATION: u8 = 0x09;
/// Op code for [`Request::Metrics`] / [`Response::Metrics`].
pub const OP_METRICS: u8 = 0x0A;
/// Op code for [`Request::TracedSearch`] / [`Response::TracedSearch`].
pub const OP_TRACED_SEARCH: u8 = 0x0B;
/// Op code for [`Request::GetManifest`] / [`Response::Manifest`].
pub const OP_GET_MANIFEST: u8 = 0x0C;
/// Op code for [`Request::PublishManifest`] / [`Response::ManifestAck`].
pub const OP_PUBLISH_MANIFEST: u8 = 0x0D;
/// Op code for [`Request::Health`] / [`Response::Health`].
pub const OP_HEALTH: u8 = 0x0F;
/// Op code for [`Request::SlowQueries`] / [`Response::SlowQueries`].
pub const OP_SLOW_QUERIES: u8 = 0x10;
/// Op code for [`Response::Error`].
pub const OP_ERROR: u8 = 0x7F;

/// Ceiling on the shard-slot count a decoded manifest may claim, mirroring
/// the `GPHM` snapshot guard: stops a corrupt count from driving a huge
/// allocation before validation.
pub const MAX_MANIFEST_SLOTS: u32 = 1 << 20;

/// One serving node group in a [`FleetManifest`]: the shard slots it owns
/// and the addresses serving them. `addrs[0]` is the primary (the only
/// address that accepts mutations); any further addresses are replicas
/// serving the identical slot set, which clients may use for idempotent
/// read retries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetNode {
    /// Shard slots this group owns (each in `0..n_shards`).
    pub slots: Vec<u32>,
    /// `host:port` addresses; index 0 is the primary.
    pub addrs: Vec<String>,
}

/// The versioned shard→node map a metastore serves: which node group owns
/// which shard slots of a fleet-wide `ShardedIndex`-compatible layout.
/// Record ids route to slots by the same stable id hash the index uses
/// (`ShardedIndex::shard_of`), so the manifest never has to enumerate ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetManifest {
    /// Publication version; the metastore only accepts strictly
    /// increasing versions.
    pub version: u64,
    /// Total shard slots; a valid manifest's nodes partition
    /// `0..n_shards` exactly.
    pub n_shards: u32,
    /// The node groups.
    pub nodes: Vec<FleetNode>,
}

impl FleetManifest {
    /// Checks structural invariants: at least one shard slot (bounded by
    /// [`MAX_MANIFEST_SLOTS`]), every node has at least one address, and
    /// the nodes' slot sets partition `0..n_shards` exactly — no orphaned
    /// and no doubly-owned slot.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_shards == 0 {
            return Err("manifest has zero shard slots".into());
        }
        if self.n_shards > MAX_MANIFEST_SLOTS {
            return Err(format!(
                "manifest claims {} shard slots, ceiling is {MAX_MANIFEST_SLOTS}",
                self.n_shards
            ));
        }
        let mut owner = vec![None::<usize>; self.n_shards as usize];
        for (ni, node) in self.nodes.iter().enumerate() {
            if node.addrs.is_empty() {
                return Err(format!("node {ni} has no addresses"));
            }
            for &slot in &node.slots {
                if slot >= self.n_shards {
                    return Err(format!(
                        "node {ni} claims slot {slot}, but there are only {} slots",
                        self.n_shards
                    ));
                }
                if let Some(prev) = owner[slot as usize] {
                    return Err(format!("slot {slot} owned by both node {prev} and node {ni}"));
                }
                owner[slot as usize] = Some(ni);
            }
        }
        if let Some(slot) = owner.iter().position(Option::is_none) {
            return Err(format!("slot {slot} has no owner"));
        }
        Ok(())
    }

    /// The index into [`FleetManifest::nodes`] of the group owning
    /// `slot`, or `None` for an out-of-range or orphaned slot.
    pub fn node_for_slot(&self, slot: u32) -> Option<usize> {
        self.nodes.iter().position(|n| n.slots.contains(&slot))
    }

    /// Serializes the manifest (the shared payload grammar of
    /// [`Request::PublishManifest`] and [`Response::Manifest`]).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.version);
        put_u32(buf, self.n_shards);
        put_u32(buf, self.nodes.len() as u32);
        for node in &self.nodes {
            put_u32(buf, node.slots.len() as u32);
            for &slot in &node.slots {
                put_u32(buf, slot);
            }
            put_u32(buf, node.addrs.len() as u32);
            for addr in &node.addrs {
                put_str(buf, addr);
            }
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<FleetManifest, NetError> {
        let version = r.u64("manifest version")?;
        let n_shards = r.u32("manifest shard count")?;
        if n_shards > MAX_MANIFEST_SLOTS {
            return Err(proto_err(format!(
                "manifest claims {n_shards} shard slots, ceiling is {MAX_MANIFEST_SLOTS}"
            )));
        }
        // Each node costs at least 8 payload bytes (two u32 counts).
        let n_nodes = read_count(r, 8, "manifest node count")?;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let n_slots = read_count(r, 4, "manifest slot count")?;
            let mut slots = Vec::with_capacity(n_slots);
            for _ in 0..n_slots {
                slots.push(r.u32("manifest slot")?);
            }
            // Each address costs at least its 4-byte length prefix.
            let n_addrs = read_count(r, 4, "manifest address count")?;
            let mut addrs = Vec::with_capacity(n_addrs);
            for _ in 0..n_addrs {
                addrs.push(read_str(r, "manifest address")?);
            }
            nodes.push(FleetNode { slots, addrs });
        }
        Ok(FleetManifest { version, n_shards, nodes })
    }
}

/// A client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Range search at threshold `tau`.
    Search {
        /// Hamming threshold.
        tau: u32,
        /// The query's raw words.
        query: Vec<u64>,
    },
    /// Top-k search.
    TopK {
        /// Result count.
        k: u32,
        /// The query's raw words.
        query: Vec<u64>,
    },
    /// A batch of range searches at a shared threshold (one job
    /// server-side, amortizing dispatch).
    BatchSearch {
        /// Hamming threshold shared by the batch.
        tau: u32,
        /// The queries' raw words (uniform width).
        queries: Vec<Vec<u64>>,
    },
    /// Insert `row` under `id` (errors if `id` is live).
    Insert {
        /// Record id.
        id: u32,
        /// The row's raw words.
        row: Vec<u64>,
    },
    /// Tombstone `id`.
    Delete {
        /// Record id.
        id: u32,
    },
    /// Insert-or-replace `row` under `id`.
    Upsert {
        /// Record id.
        id: u32,
        /// The row's raw words.
        row: Vec<u64>,
    },
    /// Fetch the server's full Prometheus text exposition.
    Metrics,
    /// Range search that always runs traced and returns its own
    /// per-phase [`QueryTrace`] alongside the results.
    TracedSearch {
        /// Hamming threshold.
        tau: u32,
        /// The query's raw words.
        query: Vec<u64>,
        /// Distributed trace id the server stamps into the returned
        /// trace's hop context; `0` for an untracked local trace.
        trace_id: u64,
    },
    /// Cheap liveness + capacity probe, answered inline by the worker
    /// (never queued behind engine work).
    Health,
    /// Drain the server's slow-query ring: up to `max` most recent
    /// retained traces (`0` = all).
    SlowQueries {
        /// Ceiling on returned traces; `0` means no ceiling.
        max: u32,
    },
    /// Fetch the current fleet manifest (metastore servers only).
    GetManifest,
    /// Install a new fleet manifest (metastore servers only). Accepted
    /// only when its version strictly exceeds the current one; otherwise
    /// the server answers [`WireError::ManifestStale`].
    PublishManifest {
        /// The manifest to install.
        manifest: FleetManifest,
    },
}

/// One range-search outcome, used standalone ([`Response::Search`]) and
/// per-entry in [`Response::Batch`].
#[derive(Clone, Debug, PartialEq)]
pub enum SearchEntry {
    /// The search ran; matching ids ascending.
    Ids {
        /// Matching record ids.
        ids: Vec<u32>,
        /// Threshold actually executed.
        tau: u32,
        /// Set when admission degraded the query: the threshold asked for.
        degraded_from: Option<u32>,
        /// Whether the result came from the server's result cache.
        from_cache: bool,
    },
    /// Admission refused the query.
    Rejected {
        /// Estimated cost at the requested threshold.
        estimated_cost: f64,
        /// Budget it exceeded.
        budget: f64,
    },
    /// The server shed the query under load.
    Overloaded,
}

/// A mutation's outcome on the wire (admission rejections travel as
/// [`WireError::Rejected`] error frames instead).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireMutation {
    /// The mutation committed; `replaced` mirrors
    /// [`gph_serve::MutationOutcome::Applied`].
    Applied {
        /// Whether a live row was displaced or removed.
        replaced: bool,
    },
    /// A delete named an id that was not live.
    NotFound,
}

/// A node's answer to the `Health` probe: enough for a fleet client to
/// route around a saturated or restarted replica without waiting for a
/// timeout.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeHealth {
    /// Fleet shard slots this node was configured to own (empty for a
    /// standalone server that was never told its slots).
    pub slots: Vec<u32>,
    /// Build/restore generation the operator stamped on the service.
    pub generation: u64,
    /// Live rows in the node's index.
    pub rows: u64,
    /// Index dimensionality in bits.
    pub dim: u32,
    /// The index's maximum supported threshold.
    pub tau_max: u32,
    /// Jobs queued ahead of the engine workers.
    pub queue_depth: u32,
    /// Configured queue capacity.
    pub queue_capacity: u32,
    /// Whether the node considers itself degraded (worker queue
    /// saturated); healthy fleet clients demote such replicas.
    pub degraded: bool,
}

/// A typed error frame.
#[derive(Clone, Debug, PartialEq)]
pub enum WireError {
    /// The peer's frame could not be decoded; the connection closes.
    Malformed(String),
    /// The request is structurally valid but not serveable as asked
    /// (e.g. a query whose word count does not match the index).
    Unsupported(String),
    /// Admission control refused the request.
    Rejected {
        /// Estimated cost of the request.
        estimated_cost: f64,
        /// Budget it exceeded.
        budget: f64,
    },
    /// The server shed the request under load.
    Overloaded,
    /// The engine failed the request (e.g. duplicate insert id).
    Engine(String),
    /// The server is draining and no longer accepts work.
    ShuttingDown,
    /// A published manifest's version did not exceed the current one.
    ManifestStale {
        /// The version the metastore is keeping.
        current: u64,
    },
}

impl WireError {
    fn code(&self) -> u16 {
        match self {
            WireError::Malformed(_) => 1,
            WireError::Unsupported(_) => 2,
            WireError::Rejected { .. } => 3,
            WireError::Overloaded => 4,
            WireError::Engine(_) => 5,
            WireError::ShuttingDown => 6,
            WireError::ManifestStale { .. } => 7,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
            WireError::Unsupported(m) => write!(f, "unsupported request: {m}"),
            WireError::Rejected { estimated_cost, budget } => {
                write!(f, "admission rejected: cost {estimated_cost:.1} over budget {budget:.1}")
            }
            WireError::Overloaded => write!(f, "server overloaded"),
            WireError::Engine(m) => write!(f, "engine error: {m}"),
            WireError::ShuttingDown => write!(f, "server shutting down"),
            WireError::ManifestStale { current } => {
                write!(f, "manifest stale: the metastore is at version {current}")
            }
        }
    }
}

/// A server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Search`].
    Search(SearchEntry),
    /// Answer to [`Request::TopK`]: `(id, distance)` ascending by
    /// `(distance, id)`.
    TopK {
        /// The hits.
        hits: Vec<(u32, u32)>,
        /// Set when admission degraded the query: the escalation cap the
        /// search actually ran.
        degraded_cap: Option<u32>,
        /// Whether the result came from the server's result cache.
        from_cache: bool,
    },
    /// Answer to [`Request::BatchSearch`], in submission order.
    Batch(Vec<SearchEntry>),
    /// Answer to insert/delete/upsert.
    Mutation(WireMutation),
    /// Answer to [`Request::Metrics`]: the Prometheus text exposition.
    Metrics {
        /// Exposition-format metrics text.
        text: String,
    },
    /// Answer to [`Request::TracedSearch`].
    TracedSearch {
        /// The search outcome, as for [`Response::Search`].
        entry: SearchEntry,
        /// The query's own per-phase trace; present exactly when the
        /// search reached the engine ([`SearchEntry::Ids`]).
        trace: Option<QueryTrace>,
    },
    /// Answer to [`Request::Health`].
    Health(NodeHealth),
    /// Answer to [`Request::SlowQueries`]: the slow-query ring's
    /// retained traces, most recent last.
    SlowQueries {
        /// The drained traces.
        traces: Vec<QueryTrace>,
    },
    /// Answer to [`Request::GetManifest`].
    Manifest {
        /// The current manifest; `None` before the first publish.
        manifest: Option<FleetManifest>,
    },
    /// Answer to an accepted [`Request::PublishManifest`].
    ManifestAck {
        /// The version now current.
        version: u64,
    },
    /// A typed error.
    Error(WireError),
}

/// A decoded frame body: the kind byte selects which grammar the payload
/// was parsed under.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// `kind == KIND_REQUEST`.
    Request(Request),
    /// `kind == KIND_RESPONSE`.
    Response(Response),
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_words(buf: &mut Vec<u8>, words: &[u64]) {
    for &w in words {
        put_u64(buf, w);
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn request_opcode(req: &Request) -> u8 {
    match req {
        Request::Ping => OP_PING,
        Request::Search { .. } => OP_SEARCH,
        Request::TopK { .. } => OP_TOPK,
        Request::BatchSearch { .. } => OP_BATCH,
        Request::Insert { .. } => OP_INSERT,
        Request::Delete { .. } => OP_DELETE,
        Request::Upsert { .. } => OP_UPSERT,
        Request::Metrics => OP_METRICS,
        Request::TracedSearch { .. } => OP_TRACED_SEARCH,
        Request::Health => OP_HEALTH,
        Request::SlowQueries { .. } => OP_SLOW_QUERIES,
        Request::GetManifest => OP_GET_MANIFEST,
        Request::PublishManifest { .. } => OP_PUBLISH_MANIFEST,
    }
}

fn response_opcode(resp: &Response) -> u8 {
    match resp {
        Response::Pong => OP_PING,
        Response::Search(_) => OP_SEARCH,
        Response::TopK { .. } => OP_TOPK,
        Response::Batch(_) => OP_BATCH,
        Response::Mutation(_) => OP_MUTATION,
        Response::Metrics { .. } => OP_METRICS,
        Response::TracedSearch { .. } => OP_TRACED_SEARCH,
        Response::Health(_) => OP_HEALTH,
        Response::SlowQueries { .. } => OP_SLOW_QUERIES,
        Response::Manifest { .. } => OP_GET_MANIFEST,
        Response::ManifestAck { .. } => OP_PUBLISH_MANIFEST,
        Response::Error(_) => OP_ERROR,
    }
}

fn encode_request_payload(req: &Request, buf: &mut Vec<u8>) {
    match req {
        Request::Ping | Request::Metrics | Request::GetManifest | Request::Health => {}
        Request::PublishManifest { manifest } => manifest.encode_into(buf),
        Request::SlowQueries { max } => put_u32(buf, *max),
        Request::Search { tau, query } => {
            put_u32(buf, *tau);
            put_u32(buf, query.len() as u32);
            put_words(buf, query);
        }
        Request::TracedSearch { tau, query, trace_id } => {
            put_u32(buf, *tau);
            put_u64(buf, *trace_id);
            put_u32(buf, query.len() as u32);
            put_words(buf, query);
        }
        Request::TopK { k, query } => {
            put_u32(buf, *k);
            put_u32(buf, query.len() as u32);
            put_words(buf, query);
        }
        Request::BatchSearch { tau, queries } => {
            // The wire format carries one width for the whole batch;
            // mixed widths would re-chunk into different queries on the
            // far side (the client API validates this before encoding).
            let n_words = queries.first().map_or(0, Vec::len);
            debug_assert!(
                queries.iter().all(|q| q.len() == n_words && !q.is_empty()),
                "batch queries must share one nonzero word count"
            );
            put_u32(buf, *tau);
            put_u32(buf, queries.len() as u32);
            put_u32(buf, n_words as u32);
            for q in queries {
                put_words(buf, q);
            }
        }
        Request::Insert { id, row } | Request::Upsert { id, row } => {
            put_u32(buf, *id);
            put_u32(buf, row.len() as u32);
            put_words(buf, row);
        }
        Request::Delete { id } => put_u32(buf, *id),
    }
}

fn encode_search_entry(entry: &SearchEntry, buf: &mut Vec<u8>) {
    match entry {
        SearchEntry::Ids { ids, tau, degraded_from, from_cache } => {
            buf.push(0);
            let flags = u8::from(*from_cache) | (u8::from(degraded_from.is_some()) << 1);
            buf.push(flags);
            put_u32(buf, *tau);
            if let Some(from) = degraded_from {
                put_u32(buf, *from);
            }
            put_u32(buf, ids.len() as u32);
            for &id in ids {
                put_u32(buf, id);
            }
        }
        SearchEntry::Rejected { estimated_cost, budget } => {
            buf.push(1);
            put_f64(buf, *estimated_cost);
            put_f64(buf, *budget);
        }
        SearchEntry::Overloaded => buf.push(2),
    }
}

fn encode_response_payload(resp: &Response, buf: &mut Vec<u8>) {
    match resp {
        Response::Pong => {}
        Response::Search(entry) => encode_search_entry(entry, buf),
        Response::TopK { hits, degraded_cap, from_cache } => {
            let flags = u8::from(*from_cache) | (u8::from(degraded_cap.is_some()) << 1);
            buf.push(flags);
            if let Some(cap) = degraded_cap {
                put_u32(buf, *cap);
            }
            put_u32(buf, hits.len() as u32);
            for &(id, dist) in hits {
                put_u32(buf, id);
                put_u32(buf, dist);
            }
        }
        Response::Batch(entries) => {
            put_u32(buf, entries.len() as u32);
            for entry in entries {
                encode_search_entry(entry, buf);
            }
        }
        Response::Mutation(m) => match m {
            WireMutation::Applied { replaced } => {
                buf.push(0);
                buf.push(u8::from(*replaced));
            }
            WireMutation::NotFound => buf.push(1),
        },
        Response::Metrics { text } => put_str(buf, text),
        Response::Health(h) => {
            put_u32(buf, h.slots.len() as u32);
            for &slot in &h.slots {
                put_u32(buf, slot);
            }
            put_u64(buf, h.generation);
            put_u64(buf, h.rows);
            put_u32(buf, h.dim);
            put_u32(buf, h.tau_max);
            put_u32(buf, h.queue_depth);
            put_u32(buf, h.queue_capacity);
            buf.push(u8::from(h.degraded));
        }
        Response::SlowQueries { traces } => {
            put_u32(buf, traces.len() as u32);
            for t in traces {
                t.encode_into(buf);
            }
        }
        Response::Manifest { manifest } => match manifest {
            Some(m) => {
                buf.push(1);
                m.encode_into(buf);
            }
            None => buf.push(0),
        },
        Response::ManifestAck { version } => put_u64(buf, *version),
        Response::TracedSearch { entry, trace } => {
            encode_search_entry(entry, buf);
            match trace {
                Some(t) => {
                    buf.push(1);
                    t.encode_into(buf);
                }
                None => buf.push(0),
            }
        }
        Response::Error(err) => {
            buf.extend_from_slice(&err.code().to_le_bytes());
            match err {
                WireError::Malformed(m) | WireError::Unsupported(m) | WireError::Engine(m) => {
                    put_str(buf, m)
                }
                WireError::Rejected { estimated_cost, budget } => {
                    put_f64(buf, *estimated_cost);
                    put_f64(buf, *budget);
                }
                WireError::Overloaded | WireError::ShuttingDown => {}
                WireError::ManifestStale { current } => put_u64(buf, *current),
            }
        }
    }
}

fn encode_frame(kind: u8, opcode: u8, request_id: u64, payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_PAYLOAD as usize, "oversized frame payload");
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.push(kind);
    buf.push(opcode);
    buf.push(0); // reserved
    put_u64(&mut buf, request_id);
    put_u32(&mut buf, payload.len() as u32);
    let crc = Crc32::new().update(&buf[4..]).update(payload).finish();
    put_u32(&mut buf, crc);
    buf.extend_from_slice(payload);
    buf
}

/// Encodes a request frame.
pub fn encode_request(request_id: u64, req: &Request) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_request_payload(req, &mut payload);
    encode_frame(KIND_REQUEST, request_opcode(req), request_id, &payload)
}

/// Encodes a response frame.
pub fn encode_response(request_id: u64, resp: &Response) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_response_payload(resp, &mut payload);
    encode_frame(KIND_RESPONSE, response_opcode(resp), request_id, &payload)
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

fn proto_err(msg: impl Into<String>) -> NetError {
    NetError::Protocol(msg.into())
}

fn read_words(r: &mut ByteReader<'_>, n: usize, what: &str) -> Result<Vec<u64>, NetError> {
    Ok(r.u64s(n, what)?)
}

/// Reads a u32 item count and validates that at least `per_item` bytes
/// per item remain — the guard that stops a corrupt count from driving a
/// huge allocation.
fn read_count(r: &mut ByteReader<'_>, per_item: usize, what: &str) -> Result<usize, NetError> {
    let n = r.u32(what)? as usize;
    if n.checked_mul(per_item).is_none_or(|need| need > r.remaining()) {
        return Err(proto_err(format!(
            "{what}: {n} items exceed the {} remaining bytes",
            r.remaining()
        )));
    }
    Ok(n)
}

fn read_str(r: &mut ByteReader<'_>, what: &str) -> Result<String, NetError> {
    let len = read_count(r, 1, what)?;
    let bytes = r.bytes(len, what)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| proto_err(format!("{what}: invalid utf-8")))
}

fn decode_request_payload(opcode: u8, payload: &[u8]) -> Result<Request, NetError> {
    let mut r = ByteReader::new(payload);
    let req = match opcode {
        OP_PING => Request::Ping,
        OP_METRICS => Request::Metrics,
        OP_SEARCH => {
            let tau = r.u32("search tau")?;
            let n = r.u32("search words")? as usize;
            Request::Search { tau, query: read_words(&mut r, n, "search query")? }
        }
        OP_TRACED_SEARCH => {
            let tau = r.u32("search tau")?;
            let trace_id = r.u64("search trace id")?;
            let n = r.u32("search words")? as usize;
            Request::TracedSearch { tau, query: read_words(&mut r, n, "search query")?, trace_id }
        }
        OP_HEALTH => Request::Health,
        OP_SLOW_QUERIES => Request::SlowQueries { max: r.u32("slow query ceiling")? },
        OP_TOPK => {
            let k = r.u32("topk k")?;
            let n = r.u32("topk words")? as usize;
            Request::TopK { k, query: read_words(&mut r, n, "topk query")? }
        }
        OP_BATCH => {
            let tau = r.u32("batch tau")?;
            let n_queries = r.u32("batch size")? as usize;
            let n_words = r.u32("batch words")? as usize;
            if n_queries == 0 && n_words != 0 {
                return Err(proto_err("empty batch with nonzero word count"));
            }
            if n_queries != 0 && n_words == 0 {
                return Err(proto_err("batch queries must have at least one word"));
            }
            // Bound the outer allocation by the bytes actually present.
            if n_queries > r.remaining() / n_words.saturating_mul(8).max(1) {
                return Err(proto_err(format!(
                    "batch of {n_queries}x{n_words} words exceeds the {} remaining bytes",
                    r.remaining()
                )));
            }
            let mut queries = Vec::with_capacity(n_queries);
            for _ in 0..n_queries {
                queries.push(read_words(&mut r, n_words, "batch query")?);
            }
            Request::BatchSearch { tau, queries }
        }
        OP_INSERT | OP_UPSERT => {
            let id = r.u32("mutation id")?;
            let n = r.u32("mutation words")? as usize;
            let row = read_words(&mut r, n, "mutation row")?;
            if opcode == OP_INSERT {
                Request::Insert { id, row }
            } else {
                Request::Upsert { id, row }
            }
        }
        OP_DELETE => Request::Delete { id: r.u32("delete id")? },
        OP_GET_MANIFEST => Request::GetManifest,
        OP_PUBLISH_MANIFEST => {
            Request::PublishManifest { manifest: FleetManifest::decode_from(&mut r)? }
        }
        other => return Err(proto_err(format!("unknown request opcode {other:#04x}"))),
    };
    r.finish("request payload")?;
    Ok(req)
}

fn decode_search_entry(r: &mut ByteReader<'_>) -> Result<SearchEntry, NetError> {
    match r.u8("entry tag")? {
        0 => {
            let flags = r.u8("entry flags")?;
            if flags & !0b11 != 0 {
                return Err(proto_err(format!("unknown entry flags {flags:#04x}")));
            }
            let from_cache = flags & 1 != 0;
            let tau = r.u32("entry tau")?;
            let degraded_from =
                if flags & 2 != 0 { Some(r.u32("entry degraded tau")?) } else { None };
            let n = read_count(r, 4, "entry id count")?;
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                ids.push(r.u32("entry id")?);
            }
            Ok(SearchEntry::Ids { ids, tau, degraded_from, from_cache })
        }
        1 => Ok(SearchEntry::Rejected {
            estimated_cost: r.f64("entry cost")?,
            budget: r.f64("entry budget")?,
        }),
        2 => Ok(SearchEntry::Overloaded),
        other => Err(proto_err(format!("unknown search entry tag {other}"))),
    }
}

fn decode_response_payload(opcode: u8, payload: &[u8]) -> Result<Response, NetError> {
    let mut r = ByteReader::new(payload);
    let resp = match opcode {
        OP_PING => Response::Pong,
        OP_SEARCH => Response::Search(decode_search_entry(&mut r)?),
        OP_TOPK => {
            let flags = r.u8("topk flags")?;
            if flags & !0b11 != 0 {
                return Err(proto_err(format!("unknown topk flags {flags:#04x}")));
            }
            let from_cache = flags & 1 != 0;
            let degraded_cap = if flags & 2 != 0 { Some(r.u32("topk cap")?) } else { None };
            let n = read_count(&mut r, 8, "topk hit count")?;
            let mut hits = Vec::with_capacity(n);
            for _ in 0..n {
                let id = r.u32("topk id")?;
                let dist = r.u32("topk distance")?;
                hits.push((id, dist));
            }
            Response::TopK { hits, degraded_cap, from_cache }
        }
        OP_BATCH => {
            let n = read_count(&mut r, 1, "batch entry count")?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push(decode_search_entry(&mut r)?);
            }
            Response::Batch(entries)
        }
        OP_MUTATION => match r.u8("mutation tag")? {
            0 => {
                let replaced = match r.u8("mutation replaced")? {
                    0 => false,
                    1 => true,
                    other => return Err(proto_err(format!("bad replaced byte {other}"))),
                };
                Response::Mutation(WireMutation::Applied { replaced })
            }
            1 => Response::Mutation(WireMutation::NotFound),
            other => return Err(proto_err(format!("unknown mutation tag {other}"))),
        },
        OP_METRICS => Response::Metrics { text: read_str(&mut r, "metrics text")? },
        OP_HEALTH => {
            let n = read_count(&mut r, 4, "health slot count")?;
            let mut slots = Vec::with_capacity(n);
            for _ in 0..n {
                slots.push(r.u32("health slot")?);
            }
            let generation = r.u64("health generation")?;
            let rows = r.u64("health rows")?;
            let dim = r.u32("health dim")?;
            let tau_max = r.u32("health tau_max")?;
            let queue_depth = r.u32("health queue depth")?;
            let queue_capacity = r.u32("health queue capacity")?;
            let degraded = match r.u8("health degraded")? {
                0 => false,
                1 => true,
                other => return Err(proto_err(format!("bad degraded byte {other}"))),
            };
            Response::Health(NodeHealth {
                slots,
                generation,
                rows,
                dim,
                tau_max,
                queue_depth,
                queue_capacity,
                degraded,
            })
        }
        OP_SLOW_QUERIES => {
            // Each trace costs at least its version byte plus the hop
            // context and header fields.
            let n = read_count(&mut r, 16, "slow trace count")?;
            let mut traces = Vec::with_capacity(n);
            for _ in 0..n {
                traces.push(QueryTrace::decode_from(&mut r)?);
            }
            Response::SlowQueries { traces }
        }
        OP_GET_MANIFEST => {
            let manifest = match r.u8("manifest tag")? {
                0 => None,
                1 => Some(FleetManifest::decode_from(&mut r)?),
                other => return Err(proto_err(format!("unknown manifest tag {other}"))),
            };
            Response::Manifest { manifest }
        }
        OP_PUBLISH_MANIFEST => Response::ManifestAck { version: r.u64("ack version")? },
        OP_TRACED_SEARCH => {
            let entry = decode_search_entry(&mut r)?;
            let trace = match r.u8("trace tag")? {
                0 => None,
                1 => Some(QueryTrace::decode_from(&mut r)?),
                other => return Err(proto_err(format!("unknown trace tag {other}"))),
            };
            Response::TracedSearch { entry, trace }
        }
        OP_ERROR => {
            let code = u16::from_le_bytes([r.u8("error code")?, r.u8("error code")?]);
            let err = match code {
                1 => WireError::Malformed(read_str(&mut r, "error message")?),
                2 => WireError::Unsupported(read_str(&mut r, "error message")?),
                3 => WireError::Rejected {
                    estimated_cost: r.f64("error cost")?,
                    budget: r.f64("error budget")?,
                },
                4 => WireError::Overloaded,
                5 => WireError::Engine(read_str(&mut r, "error message")?),
                6 => WireError::ShuttingDown,
                7 => WireError::ManifestStale { current: r.u64("error version")? },
                other => return Err(proto_err(format!("unknown error code {other}"))),
            };
            Response::Error(err)
        }
        other => return Err(proto_err(format!("unknown response opcode {other:#04x}"))),
    };
    r.finish("response payload")?;
    Ok(resp)
}

fn parse_message(kind: u8, opcode: u8, payload: &[u8]) -> Result<Message, NetError> {
    match kind {
        KIND_REQUEST => Ok(Message::Request(decode_request_payload(opcode, payload)?)),
        KIND_RESPONSE => Ok(Message::Response(decode_response_payload(opcode, payload)?)),
        other => Err(proto_err(format!("unknown frame kind {other}"))),
    }
}

/// Sizes the frame at the front of `buf` without decoding it:
/// `Ok(None)` means the header is still incomplete, `Ok(Some(n))` that
/// the frame occupies the first `n` bytes (which may not all have
/// arrived yet). Bad magic and oversized payloads fail here, before any
/// allocation, so a desynced peer is detected from the first header.
fn frame_len(buf: &[u8]) -> Result<Option<usize>, NetError> {
    if !buf.is_empty() && buf[..buf.len().min(4)] != MAGIC[..buf.len().min(4)] {
        return Err(proto_err(format!("bad frame magic {:?}", &buf[..buf.len().min(4)])));
    }
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let payload_len = u32::from_le_bytes(buf[16..20].try_into().expect("4 bytes"));
    if payload_len > MAX_PAYLOAD {
        return Err(proto_err(format!("payload of {payload_len} bytes exceeds {MAX_PAYLOAD}")));
    }
    Ok(Some(HEADER_LEN + payload_len as usize))
}

/// Decodes exactly one frame from `bytes` (trailing bytes are an error).
/// Returns the request id and the parsed body.
pub fn decode_frame(bytes: &[u8]) -> Result<(u64, Message), NetError> {
    if frame_len(bytes)? != Some(bytes.len()) {
        return Err(proto_err(format!(
            "{} bytes are not the one frame the header sizes",
            bytes.len()
        )));
    }
    let mut r = ByteReader::new(&bytes[4..HEADER_LEN]);
    let version = r.u8("frame version")?;
    let kind = r.u8("frame kind")?;
    let opcode = r.u8("frame opcode")?;
    let reserved = r.u8("frame reserved")?;
    let request_id = r.u64("frame request id")?;
    r.u32("frame payload length")?; // checked by `frame_len`
    let crc = r.u32("frame crc")?;
    // CRC before the other fields: a corrupted opcode or version must
    // read as corruption, not as a confusing secondary error.
    let got = Crc32::new().update(&bytes[4..20]).update(&bytes[HEADER_LEN..]).finish();
    if got != crc {
        return Err(proto_err(format!("frame checksum mismatch ({got:#010x} != {crc:#010x})")));
    }
    if version != VERSION {
        return Err(proto_err(format!(
            "unsupported protocol version {version} (this build speaks {VERSION})"
        )));
    }
    if reserved != 0 {
        return Err(proto_err(format!("reserved header byte is {reserved:#04x}, want 0")));
    }
    Ok((request_id, parse_message(kind, opcode, &bytes[HEADER_LEN..])?))
}

fn closed_mid_frame(buffered: usize) -> NetError {
    proto_err(format!("connection closed mid-frame ({buffered} bytes)"))
}

/// Reads one frame from a blocking stream: exactly a header, then exactly
/// the rest of the frame it sizes, never a byte past it. Returns
/// `Ok(None)` on a clean EOF at a frame boundary; mid-frame EOF,
/// corruption, and oversized payloads are [`NetError`]s. On success also
/// returns the frame's total wire size.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<(u64, Message, usize)>, NetError> {
    let mut frame = Vec::with_capacity(HEADER_LEN);
    r.by_ref().take(HEADER_LEN as u64).read_to_end(&mut frame)?;
    if frame.is_empty() {
        return Ok(None);
    }
    // A header cut short sizes as a bare header, so the read below finds
    // the EOF and reports the truncation.
    let len = frame_len(&frame)?.unwrap_or(HEADER_LEN);
    r.by_ref().take((len - frame.len()) as u64).read_to_end(&mut frame)?;
    if frame.len() < len {
        return Err(closed_mid_frame(frame.len()));
    }
    let (request_id, message) = decode_frame(&frame)?;
    Ok(Some((request_id, message, len)))
}

/// Incremental `GPHN` parsing with no I/O of its own: bytes go in
/// ([`FrameReader::push`], or one bounded [`FrameReader::read_from`]
/// burst), whole frames come out ([`FrameReader::pop`]), and a frame
/// still arriving stays buffered in between. The first malformed frame
/// is the last thing it returns: framing is lost, so it drops what it
/// buffered and ignores later bytes.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Where the bytes not popped yet start; the next push drops the rest.
    start: usize,
    failed: bool,
}

impl FrameReader {
    /// Buffers bytes received from the peer.
    pub fn push(&mut self, bytes: &[u8]) {
        if !self.failed {
            self.buf.drain(..self.start);
            self.start = 0;
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Reads one bounded burst from `src` — 16 KiB at a time, at most 64
    /// reads, stopping early on a short read or `WouldBlock` — and buffers
    /// what arrived. `Ok(true)` means the stream ended. Bytes read before
    /// an error stay buffered, so the frames they complete still pop.
    /// The bound keeps a peer streaming at full speed from holding its
    /// reader (and what the reader has locked); a level-triggered `poll`
    /// brings the caller back for the rest.
    pub fn read_from(&mut self, mut src: impl Read) -> std::io::Result<bool> {
        let mut chunk = [0u8; 16 * 1024];
        for _ in 0..64 {
            match src.read(&mut chunk) {
                Ok(0) => return Ok(true),
                Ok(n) => {
                    self.push(&chunk[..n]);
                    if n < chunk.len() {
                        break; // drained for now
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(false)
    }

    /// Pops the next whole frame as `(request id, message, wire length)`;
    /// `Ok(None)` while it is still arriving. Bad magic and oversized
    /// length claims fail from the header, before the payload is waited
    /// for.
    pub fn pop(&mut self) -> Result<Option<(u64, Message, usize)>, NetError> {
        let rest = &self.buf[self.start..];
        let decoded = match frame_len(rest) {
            Ok(Some(len)) if len <= rest.len() => {
                decode_frame(&rest[..len]).map(|(id, message)| (id, message, len))
            }
            Ok(_) => return Ok(None),
            Err(e) => Err(e),
        };
        match decoded {
            Ok(frame) => {
                self.start += frame.2;
                Ok(Some(frame))
            }
            Err(e) => {
                *self = FrameReader { failed: true, ..FrameReader::default() };
                Err(e)
            }
        }
    }

    /// Bytes buffered and not popped yet.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// The end-of-stream check, once the peer has closed: anything still
    /// buffered is a frame cut short.
    pub fn finish(&self) -> Result<(), NetError> {
        match self.pending() {
            0 => Ok(()),
            buffered => Err(closed_mid_frame(buffered)),
        }
    }
}

/// The frame checksum: CRC-32 over the header bytes after the magic
/// (`version..payload_len`) followed by the payload. Public so tests and
/// tools can forge or verify frames without re-deriving the coverage.
pub fn frame_crc(header_tail: &[u8], payload: &[u8]) -> u32 {
    Crc32::new().update(header_tail).update(payload).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(id: u64, req: Request) {
        let bytes = encode_request(id, &req);
        let (got_id, msg) = decode_frame(&bytes).expect("decode");
        assert_eq!(got_id, id);
        assert_eq!(msg, Message::Request(req.clone()));
        // Canonical: re-encoding reproduces the bytes.
        assert_eq!(encode_request(id, &req), bytes);
    }

    fn roundtrip_response(id: u64, resp: Response) {
        let bytes = encode_response(id, &resp);
        let (got_id, msg) = decode_frame(&bytes).expect("decode");
        assert_eq!(got_id, id);
        assert_eq!(msg, Message::Response(resp.clone()));
        assert_eq!(encode_response(id, &resp), bytes);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(0, Request::Ping);
        roundtrip_request(1, Request::Search { tau: 8, query: vec![0xDEAD, 0xBEEF] });
        roundtrip_request(2, Request::TopK { k: 5, query: vec![1, 2, 3] });
        roundtrip_request(
            3,
            Request::BatchSearch { tau: 4, queries: vec![vec![1, 2], vec![3, 4], vec![5, 6]] },
        );
        roundtrip_request(4, Request::BatchSearch { tau: 4, queries: vec![] });
        roundtrip_request(5, Request::Insert { id: 42, row: vec![9] });
        roundtrip_request(6, Request::Delete { id: 42 });
        roundtrip_request(u64::MAX, Request::Upsert { id: 0, row: vec![] });
        roundtrip_request(8, Request::Metrics);
        roundtrip_request(
            9,
            Request::TracedSearch { tau: 8, query: vec![0xDEAD, 0xBEEF], trace_id: 0xFACADE },
        );
        roundtrip_request(10, Request::GetManifest);
        roundtrip_request(11, Request::PublishManifest { manifest: sample_manifest() });
        roundtrip_request(13, Request::Health);
        roundtrip_request(14, Request::SlowQueries { max: 0 });
        roundtrip_request(15, Request::SlowQueries { max: 32 });
    }

    fn sample_manifest() -> FleetManifest {
        FleetManifest {
            version: 7,
            n_shards: 4,
            nodes: vec![
                FleetNode {
                    slots: vec![0, 2],
                    addrs: vec!["127.0.0.1:9001".into(), "127.0.0.1:9002".into()],
                },
                FleetNode { slots: vec![1, 3], addrs: vec!["127.0.0.1:9003".into()] },
            ],
        }
    }

    #[test]
    fn manifest_frames_roundtrip() {
        roundtrip_response(20, Response::Manifest { manifest: None });
        roundtrip_response(21, Response::Manifest { manifest: Some(sample_manifest()) });
        roundtrip_response(22, Response::ManifestAck { version: u64::MAX });
        roundtrip_response(23, Response::Error(WireError::ManifestStale { current: 9 }));
    }

    #[test]
    fn manifest_validation_pins_exact_partition() {
        let m = sample_manifest();
        assert!(m.validate().is_ok());
        assert_eq!(m.node_for_slot(0), Some(0));
        assert_eq!(m.node_for_slot(3), Some(1));
        assert_eq!(m.node_for_slot(4), None);

        let mut orphaned = m.clone();
        orphaned.nodes[1].slots = vec![1];
        assert!(orphaned.validate().unwrap_err().contains("no owner"));

        let mut doubled = m.clone();
        doubled.nodes[1].slots = vec![1, 3, 0];
        assert!(doubled.validate().unwrap_err().contains("owned by both"));

        let mut out_of_range = m.clone();
        out_of_range.nodes[1].slots = vec![1, 9];
        assert!(out_of_range.validate().is_err());

        let mut addressless = m.clone();
        addressless.nodes[0].addrs.clear();
        assert!(addressless.validate().unwrap_err().contains("no addresses"));

        let mut empty = m;
        empty.n_shards = 0;
        empty.nodes.clear();
        assert!(empty.validate().is_err());
    }

    #[test]
    fn frame_len_sizes_partial_buffers() {
        let frame = encode_request(5, &Request::Search { tau: 2, query: vec![1, 2] });
        assert_eq!(frame_len(&[]).unwrap(), None);
        for cut in 1..HEADER_LEN {
            assert_eq!(frame_len(&frame[..cut]).unwrap(), None, "cut={cut}");
        }
        assert_eq!(frame_len(&frame).unwrap(), Some(frame.len()));
        // The header alone sizes the frame even before the payload lands.
        assert_eq!(frame_len(&frame[..HEADER_LEN]).unwrap(), Some(frame.len()));
        // Bad magic fails from the very first byte.
        assert!(frame_len(b"X").is_err());
        assert!(frame_len(b"GPHX").is_err());
        // Oversized payload claims fail before allocation.
        let mut big = frame;
        big[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(frame_len(&big).is_err());
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_response(0, Response::Pong);
        roundtrip_response(
            1,
            Response::Search(SearchEntry::Ids {
                ids: vec![1, 5, 9],
                tau: 6,
                degraded_from: None,
                from_cache: false,
            }),
        );
        roundtrip_response(
            2,
            Response::Search(SearchEntry::Ids {
                ids: vec![],
                tau: 3,
                degraded_from: Some(9),
                from_cache: true,
            }),
        );
        roundtrip_response(
            3,
            Response::Search(SearchEntry::Rejected { estimated_cost: 123.5, budget: 10.0 }),
        );
        roundtrip_response(4, Response::Search(SearchEntry::Overloaded));
        roundtrip_response(
            5,
            Response::TopK { hits: vec![(3, 0), (9, 2)], degraded_cap: Some(4), from_cache: true },
        );
        roundtrip_response(
            6,
            Response::Batch(vec![
                SearchEntry::Ids { ids: vec![2], tau: 1, degraded_from: None, from_cache: false },
                SearchEntry::Overloaded,
            ]),
        );
        roundtrip_response(7, Response::Mutation(WireMutation::Applied { replaced: true }));
        roundtrip_response(8, Response::Mutation(WireMutation::NotFound));
        roundtrip_response(
            11,
            Response::Metrics { text: "# HELP gph_up Up.\n# TYPE gph_up gauge\ngph_up 1\n".into() },
        );
        let trace = QueryTrace {
            trace_id: 0xFACADE,
            node: "127.0.0.1:7471".into(),
            started_unix_ns: 1_700_000_000_000_000_000,
            tau: 6,
            total_ns: 12_000,
            shards: vec![gph_obs::ShardTrace {
                shard: 0,
                total_ns: 9_000,
                segments: vec![gph_obs::SegmentTrace {
                    segment: 0,
                    rows: 128,
                    phases: gph_obs::PhaseNanos {
                        alloc_ns: 10,
                        verify_ns: 20,
                        ..Default::default()
                    },
                    n_candidates: 7,
                    n_results: 2,
                    ..Default::default()
                }],
            }],
        };
        roundtrip_response(
            12,
            Response::TracedSearch {
                entry: SearchEntry::Ids {
                    ids: vec![3, 8],
                    tau: 6,
                    degraded_from: None,
                    from_cache: false,
                },
                trace: Some(trace),
            },
        );
        roundtrip_response(
            13,
            Response::TracedSearch {
                entry: SearchEntry::Rejected { estimated_cost: 9.0, budget: 1.0 },
                trace: None,
            },
        );
        for err in [
            WireError::Malformed("bad".into()),
            WireError::Unsupported("dim".into()),
            WireError::Rejected { estimated_cost: 5.0, budget: 1.0 },
            WireError::Overloaded,
            WireError::Engine("dup".into()),
            WireError::ShuttingDown,
        ] {
            roundtrip_response(10, Response::Error(err));
        }
    }

    #[test]
    fn fleet_observability_frames_roundtrip() {
        roundtrip_response(
            30,
            Response::Health(NodeHealth {
                slots: vec![0, 3],
                generation: 7,
                rows: 1_000_000,
                dim: 128,
                tau_max: 16,
                queue_depth: 12,
                queue_capacity: 1024,
                degraded: false,
            }),
        );
        roundtrip_response(31, Response::Health(NodeHealth::default()));
        let slow = QueryTrace {
            trace_id: 9,
            node: "127.0.0.1:9001".into(),
            started_unix_ns: 1,
            tau: 8,
            total_ns: 5_000,
            shards: vec![],
        };
        roundtrip_response(34, Response::SlowQueries { traces: vec![slow.clone(), slow] });
        roundtrip_response(35, Response::SlowQueries { traces: vec![] });
    }

    #[test]
    fn rejects_basic_corruption() {
        let bytes = encode_request(3, &Request::Search { tau: 2, query: vec![7, 8] });
        assert!(decode_frame(&bytes[..HEADER_LEN - 1]).is_err(), "truncated header");
        assert!(decode_frame(&bytes[..bytes.len() - 1]).is_err(), "truncated payload");
        let mut magic = bytes.clone();
        magic[0] ^= 0xFF;
        assert!(decode_frame(&magic).is_err(), "bad magic");
        let mut crc = bytes.clone();
        let n = crc.len();
        crc[n - 1] ^= 0x01;
        assert!(decode_frame(&crc).is_err(), "payload flip");
        let mut trailing = bytes;
        trailing.push(0);
        assert!(decode_frame(&trailing).is_err(), "trailing bytes");
    }

    #[test]
    fn stream_reader_matches_buffer_decoder() {
        let a = encode_request(1, &Request::Ping);
        let b = encode_response(1, &Response::Pong);
        let mut stream: &[u8] = &[a.clone(), b.clone()].concat();
        let (id1, m1, n1) = read_frame(&mut stream).unwrap().unwrap();
        assert_eq!((id1, n1), (1, a.len()));
        assert_eq!(m1, Message::Request(Request::Ping));
        let (_, m2, n2) = read_frame(&mut stream).unwrap().unwrap();
        assert_eq!(m2, Message::Response(Response::Pong));
        assert_eq!(n2, b.len());
        assert!(read_frame(&mut stream).unwrap().is_none(), "clean EOF");
        // Mid-frame EOF is an error, not a silent None.
        let mut cut: &[u8] = &a[..a.len() - 1];
        assert!(read_frame(&mut cut).is_err());
    }

    #[test]
    fn oversized_payload_is_rejected_before_allocation() {
        let mut frame = encode_request(1, &Request::Ping);
        frame[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_frame(&frame).is_err());
        let mut stream: &[u8] = &frame;
        assert!(read_frame(&mut stream).is_err());
    }
}
