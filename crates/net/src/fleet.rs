//! Fleet routing: a [`FleetClient`] that serves searches across many
//! `GPHN` nodes as if they were one index.
//!
//! The fleet's layout comes from a [`FleetManifest`] fetched from a
//! metastore ([`crate::MetastoreServer`]): node groups own disjoint
//! shard-slot sets that partition `0..n_shards`, and record ids map to
//! slots by the **same** stable id hash the in-process
//! [`ShardedIndex`] uses ([`ShardedIndex::shard_of`]) — so a record
//! lives on exactly one group and routing never needs an id table.
//!
//! Reads scatter to every group and gather exactly:
//!
//! * range search — groups hold disjoint ids, so the union is a sort;
//! * top-k — each group answers its own exact top-`k`, and
//!   [`merge_topk`] (the last step of the engine's top-k loop)
//!   provably reconstructs the global top-`k` from those lists.
//!
//! Mutations route to the single group owning the id's slot, primary
//! address only. Idempotent reads retry on transport failures — first
//! across the owning group's addresses (primary, then replicas), with
//! exponential backoff between passes, and finally after re-fetching
//! the manifest from the metastore (which is how a client rides through
//! a rolling restart: the republished manifest points the slots at the
//! restarted or substitute address). Typed server answers
//! ([`NetError::Remote`]) are authoritative and never retried.
//!
//! Each job reaches the nodes one way:
//!
//! * `scatter` — one request per group primary, the retry ladder as the
//!   fallback; [`FleetClient::search`], [`FleetClient::topk`] and
//!   [`FleetClient::search_traced`];
//! * `sweep` — one request to *every* manifest address, primaries and
//!   replicas alike, answered or not by one shared
//!   [`FleetConfig::probe_timeout`] deadline;
//!   [`FleetClient::refresh_health`] and [`FleetClient::metrics`];
//! * `ladder` — the retry ladder: reads over the owning group's
//!   addresses, mutations over its primary alone.

use crate::client::{ClientConfig, GphClient, NetTicket};
use crate::protocol::{FleetManifest, NodeHealth, WireMutation};
use crate::NetError;
use gph_obs::{merge_expositions, FleetTrace, HopTrace};
use gph_serve::{merge_topk, ShardedIndex};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fleet-client knobs.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Passes over a group's address list before (and after) a manifest
    /// refresh; transport failures move to the next address, the next
    /// pass backs off.
    pub attempts: usize,
    /// Backoff after a failed pass, doubling per pass.
    pub backoff: Duration,
    /// Bound on each request's wait; a timeout counts as a transport
    /// failure and moves on (only idempotent requests are retried).
    pub request_timeout: Duration,
    /// Bound on a [`FleetClient::refresh_health`] or
    /// [`FleetClient::metrics`] sweep: an address that cannot answer
    /// this fast is demoted, or reported stale.
    pub probe_timeout: Duration,
    /// Per-node connection knobs.
    pub client: ClientConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            attempts: 3,
            backoff: Duration::from_millis(20),
            request_timeout: Duration::from_secs(10),
            probe_timeout: Duration::from_secs(1),
            client: ClientConfig::default(),
        }
    }
}

/// A fleet-wide range-search result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetSearch {
    /// Matching record ids across the whole fleet, ascending.
    pub ids: Vec<u32>,
    /// True when any group's admission control degraded its part of the
    /// search (the union may then miss ids near the requested radius).
    pub degraded: bool,
}

/// A fleet-wide top-k result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetTopK {
    /// `(id, distance)` ascending by `(distance, id)` across the fleet.
    pub hits: Vec<(u32, u32)>,
    /// True when any group's admission control capped its escalation.
    pub degraded: bool,
}

/// A fleet-wide traced range search: the merged hits plus a per-hop
/// [`FleetTrace`] attributing, for every node, engine time vs
/// network + queue time.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetTracedSearch {
    /// Matching record ids across the whole fleet, ascending.
    pub ids: Vec<u32>,
    /// True when any group's admission control degraded its part.
    pub degraded: bool,
    /// The merged distributed trace.
    pub trace: FleetTrace,
}

/// One address's outcome in a [`FleetClient::refresh_health`] sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AddressHealth {
    /// The probed address.
    pub addr: String,
    /// The node's answer; `None` when the probe failed in transport.
    pub health: Option<NodeHealth>,
    /// Whether the sweep demoted this address (unreachable or
    /// self-reported degraded).
    pub demoted: bool,
}

/// One address's outcome in a [`FleetClient::metrics`] sweep: either a
/// fresh exposition or a stale marker with the scrape error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeScrape {
    /// The scraped address (a primary or a replica).
    pub node: String,
    /// `Some` when the scrape failed — the node is reported stale
    /// rather than failing the whole scrape.
    pub error: Option<String>,
    /// The node's Prometheus exposition; empty when stale.
    pub text: String,
}

/// A fleet-wide metrics scrape: the merged exposition plus every
/// address's own outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetMetrics {
    /// [`merge_expositions`] over every fresh scrape; stale nodes add
    /// nothing.
    pub merged: String,
    /// One entry per manifest address, in manifest order.
    pub nodes: Vec<NodeScrape>,
}

/// One group's answer to a scatter.
struct Hop<T> {
    /// The address that answered (a replica, if the ladder moved on).
    addr: String,
    answer: T,
    /// From submitting the request that answered to its answer.
    elapsed: Duration,
}

/// Where the retry ladder may send a request.
#[derive(Clone, Copy)]
enum Route {
    /// An idempotent read for the group owning `slot`: any of its
    /// addresses, healthy ones first.
    Read { slot: u32 },
    /// A mutation of `id`: the owning group's primary, and only it.
    Write { id: u32 },
}

type Submit<'a, T> = &'a dyn Fn(&GphClient) -> Result<NetTicket<T>, NetError>;

struct State {
    manifest: FleetManifest,
    /// Pooled clients by address (fleet nodes and the metastore alike);
    /// transport failures evict, the next use reconnects.
    conns: HashMap<String, Arc<GphClient>>,
}

/// A client for a whole fleet: routes by manifest, scatter-gathers
/// reads, merges exactly, and retries idempotent reads across replicas.
pub struct FleetClient {
    metastore_addr: String,
    cfg: FleetConfig,
    state: Mutex<State>,
    /// Distributed trace ids handed out by [`FleetClient::search_traced`].
    next_trace_id: AtomicU64,
    /// Addresses the last health sweep demoted (unreachable or
    /// self-reported degraded); the retry ladder tries them last.
    demoted: Mutex<HashSet<String>>,
}

impl FleetClient {
    /// Fetches the manifest from the metastore at `metastore_addr` and
    /// builds a client routing by it. Errors if no manifest has been
    /// published yet.
    pub fn connect(metastore_addr: &str, cfg: FleetConfig) -> Result<FleetClient, NetError> {
        let client = FleetClient {
            metastore_addr: metastore_addr.to_string(),
            cfg,
            state: Mutex::new(State {
                manifest: FleetManifest { version: 0, n_shards: 1, nodes: Vec::new() },
                conns: HashMap::new(),
            }),
            next_trace_id: AtomicU64::new(1),
            demoted: Mutex::new(HashSet::new()),
        };
        let manifest = client.fetch_manifest()?;
        client.state.lock().manifest = manifest;
        Ok(client)
    }

    /// The manifest currently routing this client.
    pub fn manifest(&self) -> FleetManifest {
        self.state.lock().manifest.clone()
    }

    /// The shard slot `id` routes to — [`ShardedIndex::shard_of`] under
    /// the manifest's slot count, byte-identical to how every node's
    /// index routes the id internally.
    pub fn slot_of(&self, id: u32) -> u32 {
        ShardedIndex::shard_of(id, self.state.lock().manifest.n_shards as usize) as u32
    }

    /// The manifest node-group index owning `id`.
    pub fn node_for(&self, id: u32) -> Option<usize> {
        let st = self.state.lock();
        let slot = ShardedIndex::shard_of(id, st.manifest.n_shards as usize) as u32;
        st.manifest.node_for_slot(slot)
    }

    /// Re-fetches the manifest from the metastore, adopting it only if
    /// its version beats the current one (routing never goes backwards).
    /// Returns the version in effect afterwards.
    pub fn refresh_manifest(&self) -> Result<u64, NetError> {
        let fresh = self.fetch_manifest()?;
        let mut st = self.state.lock();
        if fresh.version > st.manifest.version {
            st.manifest = fresh;
        }
        Ok(st.manifest.version)
    }

    fn fetch_manifest(&self) -> Result<FleetManifest, NetError> {
        // One reconnect retry: the cached metastore connection may have
        // died since the last fetch.
        let mut last = NetError::Closed;
        for _ in 0..2 {
            let client = match self.client_for(&self.metastore_addr, None) {
                Ok(c) => c,
                Err(e) => {
                    last = e;
                    continue;
                }
            };
            match client
                .submit_get_manifest()
                .and_then(|t| t.wait_timeout(self.cfg.request_timeout))
            {
                Ok(Some(manifest)) => {
                    manifest.validate().map_err(NetError::Protocol)?;
                    return Ok(manifest);
                }
                Ok(None) => {
                    return Err(NetError::Protocol(
                        "the metastore has no published manifest yet".into(),
                    ))
                }
                Err(e @ NetError::Remote(_)) => return Err(e),
                Err(e) => {
                    self.evict(&self.metastore_addr);
                    last = e;
                }
            }
        }
        Err(last)
    }

    /// Fleet-wide range search at threshold `tau`: every group's ids,
    /// merged ascending (groups are disjoint, so the merge is a sort).
    pub fn search(&self, query: &[u64], tau: u32) -> Result<FleetSearch, NetError> {
        let hops = self.scatter(&|c| c.submit_search(query, tau))?;
        let degraded = hops.iter().any(|h| h.answer.degraded_from.is_some());
        let mut ids: Vec<u32> = hops.into_iter().flat_map(|h| h.answer.ids).collect();
        ids.sort_unstable();
        Ok(FleetSearch { ids, degraded })
    }

    /// Fleet-wide traced range search: scatters a `TracedSearch` (with
    /// one shared distributed trace id) to every node group, measures
    /// each hop's client-side end-to-end time, and merges the per-node
    /// [`gph_obs::QueryTrace`]s into a [`FleetTrace`] that attributes
    /// node-side engine time vs network + queue time per hop —
    /// including which hop was the straggler that bounded the tail.
    pub fn search_traced(&self, query: &[u64], tau: u32) -> Result<FleetTracedSearch, NetError> {
        let trace_id = self.next_trace_id.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let hops = self.scatter(&|c| c.submit_search_traced_hop(query, tau, trace_id))?;
        let mut ids = Vec::new();
        let mut degraded = false;
        let mut traces = Vec::with_capacity(hops.len());
        for Hop { addr, answer, elapsed } in hops {
            degraded |= answer.result.degraded_from.is_some();
            ids.extend(answer.result.ids);
            let trace = answer.trace.unwrap_or_default();
            // The server stamps its own bound address; fall back to the
            // address that answered if the hop came back without a trace.
            let node = if trace.node.is_empty() { addr } else { trace.node.clone() };
            traces.push(HopTrace { node, e2e_ns: elapsed.as_nanos() as u64, trace });
        }
        ids.sort_unstable();
        let total_ns = t0.elapsed().as_nanos() as u64;
        let trace = FleetTrace::merge(trace_id, tau, total_ns, traces);
        Ok(FleetTracedSearch { ids, degraded, trace })
    }

    /// Probes every address in the manifest with the cheap `Health` op
    /// (one sweep, bounded by [`FleetConfig::probe_timeout`]) and updates
    /// the demotion set: unreachable or self-reported-degraded addresses
    /// are tried **last** by the retry ladder until a later sweep clears
    /// them. Returns every address's outcome, in manifest order.
    pub fn refresh_health(&self) -> Vec<AddressHealth> {
        let swept = self.sweep(&|c| c.submit_health());
        let mut demoted = self.demoted.lock();
        swept
            .into_iter()
            .map(|(addr, probed)| {
                let health = probed.ok();
                let demote = health.as_ref().is_none_or(|h| h.degraded);
                if demote {
                    demoted.insert(addr.clone());
                } else {
                    demoted.remove(&addr);
                }
                AddressHealth { addr, health, demoted: demote }
            })
            .collect()
    }

    /// Addresses the last health sweep demoted.
    pub fn demoted(&self) -> HashSet<String> {
        self.demoted.lock().clone()
    }

    /// Scrapes every address in the manifest — replicas included — with
    /// the `Metrics` op (one sweep, bounded by
    /// [`FleetConfig::probe_timeout`]) and merges the fresh expositions
    /// with [`merge_expositions`]. An address that fails to answer is
    /// reported stale with its error; it never fails the scrape.
    pub fn metrics(&self) -> FleetMetrics {
        let nodes: Vec<NodeScrape> = self
            .sweep(&|c| c.submit_metrics())
            .into_iter()
            .map(|(node, scraped)| match scraped {
                Ok(text) => NodeScrape { node, error: None, text },
                Err(e) => NodeScrape { node, error: Some(e.to_string()), text: String::new() },
            })
            .collect();
        let fresh: Vec<&str> =
            nodes.iter().filter(|n| n.error.is_none()).map(|n| n.text.as_str()).collect();
        FleetMetrics { merged: merge_expositions(&fresh), nodes }
    }

    /// Fleet-wide exact top-k: each group answers its own exact top-`k`
    /// and [`merge_topk`] reconstructs the global list.
    pub fn topk(&self, query: &[u64], k: usize) -> Result<FleetTopK, NetError> {
        let hops = self.scatter(&|c| c.submit_topk(query, k))?;
        let degraded = hops.iter().any(|h| h.answer.degraded_cap.is_some());
        let hits = merge_topk(hops.into_iter().flat_map(|h| h.answer.hits), k);
        Ok(FleetTopK { hits, degraded })
    }

    /// Inserts `row` under `id` on the owning group's primary. Not
    /// retried across addresses (an insert is not idempotent); transport
    /// failures reconnect to the primary only.
    pub fn insert(&self, id: u32, row: &[u64]) -> Result<WireMutation, NetError> {
        self.ladder(Route::Write { id }, &|c| c.submit_insert(id, row)).map(|(_, m)| m)
    }

    /// Inserts-or-replaces `row` under `id` on the owning group's
    /// primary.
    pub fn upsert(&self, id: u32, row: &[u64]) -> Result<WireMutation, NetError> {
        self.ladder(Route::Write { id }, &|c| c.submit_upsert(id, row)).map(|(_, m)| m)
    }

    /// Tombstones `id` on the owning group's primary.
    pub fn delete(&self, id: u32) -> Result<WireMutation, NetError> {
        self.ladder(Route::Write { id }, &|c| c.submit_delete(id)).map(|(_, m)| m)
    }

    // -----------------------------------------------------------------
    // Routing machinery
    // -----------------------------------------------------------------

    /// The pooled client for `addr`, connecting if there is none. A new
    /// connection's TCP connect is bounded by `connect_within` as well
    /// as by [`ClientConfig::connect_timeout`].
    fn client_for(
        &self,
        addr: &str,
        connect_within: Option<Duration>,
    ) -> Result<Arc<GphClient>, NetError> {
        if let Some(c) = self.state.lock().conns.get(addr) {
            return Ok(Arc::clone(c));
        }
        // Connect outside the lock: a slow handshake must not stall
        // requests to other nodes on other threads.
        let connect_timeout =
            self.cfg.client.connect_timeout.into_iter().chain(connect_within).min();
        let cfg = ClientConfig { connect_timeout, ..self.cfg.client };
        let fresh = Arc::new(GphClient::connect_with(addr, cfg)?);
        Ok(Arc::clone(self.state.lock().conns.entry(addr.to_string()).or_insert(fresh)))
    }

    fn evict(&self, addr: &str) {
        self.state.lock().conns.remove(addr);
    }

    /// Scatters one read to every node group and gathers the answers in
    /// group order. The happy path pipelines the request to every
    /// group's primary at once; a group whose answer fails in transport
    /// falls back to the retry ladder, and its hop is then timed from
    /// the ladder's start.
    fn scatter<T>(&self, submit: Submit<'_, T>) -> Result<Vec<Hop<T>>, NetError> {
        let manifest = self.manifest();
        let pending: Vec<_> = manifest
            .nodes
            .iter()
            .map(|node| {
                let addr = node.addrs[0].clone();
                let submitted = Instant::now();
                let ticket = self.client_for(&addr, None).ok().and_then(|c| submit(&c).ok());
                (node.slots[0], addr, ticket, submitted)
            })
            .collect();
        pending
            .into_iter()
            .map(|(slot, addr, ticket, submitted)| {
                match ticket.map(|t| t.wait_timeout(self.cfg.request_timeout)) {
                    Some(Ok(answer)) => Ok(Hop { addr, answer, elapsed: submitted.elapsed() }),
                    // A typed server answer is authoritative; surface it.
                    Some(Err(e @ NetError::Remote(_))) => Err(e),
                    // Transport trouble: replicas, backoff, manifest refresh.
                    _ => {
                        self.evict(&addr);
                        let retried = Instant::now();
                        let (addr, answer) = self.ladder(Route::Read { slot }, submit)?;
                        Ok(Hop { addr, answer, elapsed: retried.elapsed() })
                    }
                }
            })
            .collect()
    }

    /// Sends one request to every address in the manifest, primaries
    /// and replicas alike, and collects the outcomes in manifest order.
    /// Every request is on the wire before the first wait, and the
    /// waits share one deadline, [`FleetConfig::probe_timeout`] after
    /// the last send — so stalled addresses cost one probe timeout
    /// between them, not one each. A connect is bounded by the probe
    /// timeout on its own. Failed addresses are evicted from the pool.
    fn sweep<T>(&self, submit: Submit<'_, T>) -> Vec<(String, Result<T, NetError>)> {
        let manifest = self.manifest();
        let pending: Vec<_> = manifest
            .nodes
            .iter()
            .flat_map(|node| &node.addrs)
            .map(|addr| {
                let ticket =
                    self.client_for(addr, Some(self.cfg.probe_timeout)).and_then(|c| submit(&c));
                (addr.clone(), ticket)
            })
            .collect();
        let deadline = Instant::now() + self.cfg.probe_timeout;
        pending
            .into_iter()
            .map(|(addr, ticket)| {
                // Past the deadline a wait still gets one poll: an answer
                // that arrived while an earlier address stalled sits
                // unread in the socket until somebody waits for it.
                let left = deadline.saturating_duration_since(Instant::now());
                let outcome =
                    ticket.and_then(|t| t.wait_timeout(left.max(Duration::from_millis(1))));
                if outcome.is_err() {
                    self.evict(&addr);
                }
                (addr, outcome)
            })
            .collect()
    }

    /// The retry ladder for one request on `route`: every address the
    /// route allows ([`Route::Read`]: the owning group's, demoted ones
    /// last; [`Route::Write`]: its primary alone),
    /// [`FleetConfig::attempts`] passes with doubling backoff, then one
    /// manifest refresh and the same ladder over the new owner. Returns
    /// the address that answered with the answer.
    fn ladder<T>(&self, route: Route, submit: Submit<'_, T>) -> Result<(String, T), NetError> {
        let passes = self.cfg.attempts.max(1);
        let mut last = NetError::Closed;
        for round in 0..2 {
            if round == 1 && self.refresh_manifest().is_err() {
                break;
            }
            let addrs = self.addresses(route)?;
            for pass in 0..passes {
                for addr in &addrs {
                    let answered = self
                        .client_for(addr, None)
                        .and_then(|c| submit(&c)?.wait_timeout(self.cfg.request_timeout));
                    match answered {
                        Ok(v) => return Ok((addr.clone(), v)),
                        Err(e @ NetError::Remote(_)) => return Err(e),
                        Err(e) => {
                            self.evict(addr);
                            last = e;
                        }
                    }
                }
                if pass + 1 < passes {
                    std::thread::sleep(self.cfg.backoff * (1 << pass.min(8)) as u32);
                }
            }
        }
        Err(last)
    }

    /// The addresses `route` may use under the current manifest, in the
    /// order the ladder tries them.
    fn addresses(&self, route: Route) -> Result<Vec<String>, NetError> {
        let mut addrs = {
            let st = self.state.lock();
            let slot = match route {
                Route::Read { slot } => slot,
                Route::Write { id } => {
                    ShardedIndex::shard_of(id, st.manifest.n_shards as usize) as u32
                }
            };
            let Some(ni) = st.manifest.node_for_slot(slot) else {
                return Err(NetError::Protocol(format!("no node owns shard slot {slot}")));
            };
            st.manifest.nodes[ni].addrs.clone()
        };
        match route {
            // A mutation is not idempotent: only the primary takes it.
            Route::Write { .. } => addrs.truncate(1),
            // Health-driven ordering: addresses the last sweep demoted
            // (unreachable or degraded) go last, so a healthy replica
            // answers before we burn a timeout on a sick primary. The
            // sort is stable, so primary-before-replica order survives
            // within each class.
            Route::Read { .. } => {
                let demoted = self.demoted.lock();
                if !demoted.is_empty() {
                    addrs.sort_by_key(|a| demoted.contains(a));
                }
            }
        }
        Ok(addrs)
    }
}
