//! The TCP front end: a [`NetServer`] accepts `GPHN` connections and
//! serves them from an [`Arc<QueryService>`].
//!
//! The server is a [`RequestHandler`] plugged into the shared
//! readiness-driven [`EventLoop`] (see [`crate::event`]): a fixed
//! acceptor + worker + resolver thread set multiplexes every connection
//! over nonblocking sockets, so thousands of idle clients cost no
//! threads. What resolves inline on the event worker, as
//! [`Reply::Now`]: ping, health, metrics, validation errors, mutations
//! (see below) — and every read whose [`gph_serve::Ticket`] is ready
//! when the service returns it. Range, batch, top-k and traced reads
//! all take the service's one read path, so a ticket is ready when
//! each of its reads is a cache hit or an admission rejection. A cached
//! read therefore costs a lookup and never leaves the thread that read
//! its frame. Only a ticket with
//! queued engine work hands its wait to the resolver pool
//! ([`Reply::Later`]), so a slow query never stalls the socket —
//! pipelined requests keep flowing and responses still leave in request
//! order (a ready reply parks in its sequence slot behind an earlier
//! pending one).
//!
//! Mutations are the exception to "nothing slow runs on an event
//! worker": `Insert`/`Upsert`/`Delete` execute inline, so a write that
//! triggers a flush or a merge holds up every connection dealt to that
//! worker for as long as it takes. What that buys today is ordering —
//! an insert has executed before the next frame on its connection is
//! parsed, so a pipelined insert → search reads its own write — and
//! moving writes to the service's pool needs a rule that keeps it
//! (ROADMAP item 3(a)).
//!
//! Admission-control rejections surface as typed [`WireError::Rejected`]
//! error frames (in-band entries inside batch responses). Graceful
//! [`NetServer::shutdown`] stops the accept loop, drains every
//! connection's already-received requests through the engine, flushes
//! the responses, and joins the fixed thread set.

use crate::event::{EventLoop, Reply, RequestHandler};
use crate::protocol::{NodeHealth, Request, Response, SearchEntry, WireError, WireMutation};
use gph_serve::{MutationOutcome, Outcome, QueryService, Ticket};
use hamming_core::words_for;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::{Arc, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

pub use crate::event::{NetServerStats, ServerConfig};

/// A TCP server over a shared [`QueryService`]. Binding spawns the
/// event-loop threads; dropping (or [`NetServer::shutdown`]) drains
/// in-flight work and joins every thread.
pub struct NetServer {
    inner: EventLoop,
    service: Arc<QueryService>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections served from `service`.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        service: Arc<QueryService>,
        cfg: ServerConfig,
    ) -> std::io::Result<NetServer> {
        Self::bind_with_slots(addr, service, cfg, Vec::new())
    }

    /// [`NetServer::bind`] for a fleet node: `slots` are the manifest
    /// shard slots this node owns, reported verbatim by the `Health` op
    /// so fleet clients can check ownership without a metastore trip.
    pub fn bind_with_slots<A: ToSocketAddrs>(
        addr: A,
        service: Arc<QueryService>,
        cfg: ServerConfig,
        slots: Vec<u32>,
    ) -> std::io::Result<NetServer> {
        let index = service.index();
        let handler = Arc::new(ServiceHandler {
            service: Arc::clone(&service),
            expected_words: words_for(index.dim()),
            tau_max: index.tau_max() as u32,
            slots,
            node: OnceLock::new(),
        });
        let registry = Arc::clone(service.registry());
        let inner = EventLoop::bind(addr, Arc::clone(&handler) as _, cfg, &registry)?;
        // The concrete bound address (port 0 is resolved by now) is the
        // node identity stamped into traced-search hop contexts.
        let _ = handler.node.set(inner.local_addr().to_string());
        Ok(NetServer { inner, service })
    }

    /// The address the server is listening on (with the concrete port
    /// when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    /// The service being served.
    pub fn service(&self) -> &Arc<QueryService> {
        &self.service
    }

    /// Counter snapshot.
    pub fn stats(&self) -> NetServerStats {
        self.inner.stats()
    }

    /// Stops accepting, drains all in-flight work through the engine,
    /// joins every thread, and returns the final counters.
    pub fn shutdown(self) -> NetServerStats {
        self.inner.shutdown()
    }
}

/// The [`RequestHandler`] serving a [`QueryService`].
struct ServiceHandler {
    service: Arc<QueryService>,
    expected_words: usize,
    tau_max: u32,
    /// Manifest shard slots this node owns (empty outside a fleet).
    slots: Vec<u32>,
    /// This node's identity (its bound address), set right after bind;
    /// stamped into traced-search hop contexts and drained slow traces.
    node: OnceLock<String>,
}

impl ServiceHandler {
    fn node_name(&self) -> String {
        self.node.get().cloned().unwrap_or_default()
    }
}

/// Wall-clock nanoseconds since the UNIX epoch (0 if the clock is
/// before the epoch, which only a badly skewed host produces).
fn unix_now_ns() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos() as u64)
}

impl ServiceHandler {
    fn check_words(&self, what: &str, words: &[u64]) -> Result<(), String> {
        if words.len() != self.expected_words {
            return Err(format!(
                "{what} has {} words, index needs {}",
                words.len(),
                self.expected_words
            ));
        }
        Ok(())
    }

    fn check_tau(&self, tau: u32) -> Result<(), String> {
        if tau > self.tau_max {
            return Err(format!("tau {tau} exceeds the index tau_max {}", self.tau_max));
        }
        Ok(())
    }
}

fn unsupported(msg: String) -> Reply {
    Reply::Now(Response::Error(WireError::Unsupported(msg)))
}

/// The one place a ticket becomes a [`Reply`]: a ticket that resolved
/// at submit time (every entry a cache hit, an admission rejection or
/// shed load) is answered in place on the event worker; only one with
/// queued engine work defers its wait to the resolver pool.
fn reply(
    ticket: Ticket,
    resolve: impl FnOnce(Vec<gph_serve::Response>) -> Response + Send + 'static,
) -> Reply {
    match ticket.into_ready() {
        Ok(responses) => Reply::Now(resolve(responses)),
        Err(ticket) => Reply::Later(Box::new(move || resolve(ticket.wait()))),
    }
}

impl RequestHandler for ServiceHandler {
    fn handle(&self, req: Request) -> Reply {
        match req {
            Request::Ping => Reply::Now(Response::Pong),
            Request::Metrics => Reply::Now(Response::Metrics { text: self.service.metrics_text() }),
            Request::Search { tau, query } => {
                if let Err(msg) =
                    self.check_words("query", &query).and_then(|()| self.check_tau(tau))
                {
                    return unsupported(msg);
                }
                reply(
                    self.service.submit(&query, tau),
                    single(|r| Response::Search(range_entry(&r))),
                )
            }
            Request::TracedSearch { tau, query, trace_id } => {
                if let Err(msg) =
                    self.check_words("query", &query).and_then(|()| self.check_tau(tau))
                {
                    return unsupported(msg);
                }
                // Hop context: stamp the client's trace id, this node's
                // identity, and the arrival timestamp into the returned
                // trace, so a fleet client can merge hops across nodes.
                let node = self.node_name();
                let started = unix_now_ns();
                reply(
                    self.service.submit_traced(&query, tau),
                    single(move |r| Response::TracedSearch {
                        entry: range_entry(&r),
                        trace: r.trace.map(|mut t| {
                            t.trace_id = trace_id;
                            t.node = node;
                            t.started_unix_ns = started;
                            *t
                        }),
                    }),
                )
            }
            Request::Health => {
                let index = self.service.index();
                Reply::Now(Response::Health(NodeHealth {
                    slots: self.slots.clone(),
                    generation: self.service.generation(),
                    rows: index.len() as u64,
                    dim: index.dim() as u32,
                    tau_max: self.tau_max,
                    queue_depth: self.service.queue_depth() as u32,
                    queue_capacity: self.service.queue_capacity() as u32,
                    degraded: self.service.degraded(),
                }))
            }
            Request::SlowQueries { max } => {
                let mut traces = self.service.tracer().slow_queries();
                if max > 0 && traces.len() > max as usize {
                    traces.drain(..traces.len() - max as usize);
                }
                // Ring traces were recorded engine-side, before any hop
                // stamping; attach this node's identity on the way out.
                let node = self.node_name();
                for t in &mut traces {
                    if t.node.is_empty() {
                        t.node = node.clone();
                    }
                }
                Reply::Now(Response::SlowQueries { traces })
            }
            Request::TopK { k, query } => {
                if let Err(msg) = self.check_words("query", &query) {
                    return unsupported(msg);
                }
                reply(
                    self.service.submit_topk(&query, k as usize),
                    single(|r| match r.outcome {
                        Outcome::TopK { hits, degraded_cap } => Response::TopK {
                            hits: hits.as_ref().clone(),
                            degraded_cap,
                            from_cache: r.from_cache,
                        },
                        _ => unreachable!("top-k submissions answer with top-k outcomes"),
                    }),
                )
            }
            Request::BatchSearch { tau, queries } => {
                if let Some(q) = queries.iter().find(|q| q.len() != self.expected_words) {
                    return unsupported(format!(
                        "batch query has {} words, index needs {}",
                        q.len(),
                        self.expected_words
                    ));
                }
                if let Err(msg) = self.check_tau(tau) {
                    return unsupported(msg);
                }
                let refs: Vec<&[u64]> = queries.iter().map(Vec::as_slice).collect();
                reply(self.service.submit_batch(&refs, tau), |responses| {
                    Response::Batch(responses.iter().map(range_entry).collect())
                })
            }
            Request::Insert { id, row } => {
                if let Err(msg) = self.check_words("row", &row) {
                    return unsupported(msg);
                }
                Reply::Now(match self.service.insert(id, &row) {
                    Ok(resp) => mutation_response(resp),
                    Err(e) => Response::Error(WireError::Engine(e.to_string())),
                })
            }
            Request::Upsert { id, row } => {
                if let Err(msg) = self.check_words("row", &row) {
                    return unsupported(msg);
                }
                Reply::Now(match self.service.upsert(id, &row) {
                    Ok(resp) => mutation_response(resp),
                    Err(e) => Response::Error(WireError::Engine(e.to_string())),
                })
            }
            Request::Delete { id } => Reply::Now(mutation_response(self.service.delete(id))),
            Request::GetManifest | Request::PublishManifest { .. } => {
                unsupported("this server is a query node, not a metastore".into())
            }
        }
    }
}

/// Maps a service mutation response onto the wire.
fn mutation_response(resp: gph_serve::MutationResponse) -> Response {
    match resp.outcome {
        MutationOutcome::Applied { replaced } => {
            Response::Mutation(WireMutation::Applied { replaced })
        }
        MutationOutcome::NotFound => Response::Mutation(WireMutation::NotFound),
        MutationOutcome::Rejected { estimated_cost, budget } => {
            Response::Error(WireError::Rejected { estimated_cost, budget })
        }
    }
}

/// Maps one in-process range outcome onto a wire entry. `Dropped` (the
/// service died under us) and `Overloaded` both shed the query;
/// entries have a single variant for that.
fn range_entry(resp: &gph_serve::Response) -> SearchEntry {
    match &resp.outcome {
        Outcome::Ids { ids, tau, degraded_from } => SearchEntry::Ids {
            ids: ids.as_ref().clone(),
            tau: *tau,
            degraded_from: *degraded_from,
            from_cache: resp.from_cache,
        },
        Outcome::Rejected { estimated_cost, budget } => {
            SearchEntry::Rejected { estimated_cost: *estimated_cost, budget: *budget }
        }
        Outcome::Overloaded | Outcome::Dropped => SearchEntry::Overloaded,
        Outcome::TopK { .. } => {
            unreachable!("range submissions never produce top-k outcomes")
        }
    }
}

/// The resolver of every single-read ticket: `ok` builds the frame for
/// an answered read, and each way a read goes unanswered is one typed
/// error frame.
fn single(
    ok: impl FnOnce(gph_serve::Response) -> Response + Send + 'static,
) -> impl FnOnce(Vec<gph_serve::Response>) -> Response + Send + 'static {
    move |responses| {
        let Some(r) = responses.into_iter().next() else {
            return Response::Error(WireError::ShuttingDown);
        };
        match r.outcome {
            Outcome::Ids { .. } | Outcome::TopK { .. } => ok(r),
            Outcome::Rejected { estimated_cost, budget } => {
                Response::Error(WireError::Rejected { estimated_cost, budget })
            }
            Outcome::Overloaded => Response::Error(WireError::Overloaded),
            Outcome::Dropped => Response::Error(WireError::ShuttingDown),
        }
    }
}
