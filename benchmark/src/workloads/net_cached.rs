//! `net-cached`: cached reads over loopback. One client, one request in
//! flight, `GphClient::search` → `NetServer` → `QueryService` with the
//! result cache on; 98% of reads come from a hot pool the cache holds,
//! 2% are misses that reach the engine. Framing, the event loop, the
//! queue hand-offs and the cache lookup do the work and the engine
//! almost none, so protocol and event-loop changes show here and are
//! invisible on `engine-range`.

use super::cache_lookup_ns;
use crate::gen::{self, Fingerprint, Rng, TAUS, TAU_MAX};
use crate::harness::{
    mean_ns, p50_us, read_round, Answer, Layers, Mode, Opts, ReadOp, Round, Workload,
};
use crate::spans::Span;
use gph::engine::GphConfig;
use gph_net::protocol::{decode_frame, encode_request, encode_response};
use gph_net::{
    FleetClient, FleetConfig, FleetManifest, FleetNode, GphClient, MetastoreServer, NetServer,
    NetServerStats, Request, Response, SearchEntry, ServerConfig,
};
use gph_serve::{CacheStats, QueryService, ServiceConfig, ShardedIndex};
use hamming_core::Dataset;
use std::hint::black_box;
use std::sync::Arc;

/// One shard: a miss runs its search on the service worker instead of
/// spawning a thread per shard (`ShardedIndex` does above 4096 rows per
/// shard), which on a 2-vCPU box is the noisiest thing a read can do.
/// `serve-mixed` keeps two shards and shows that cost.
const SHARDS: usize = 1;
const ROWS: usize = 200_000;
/// Distinct queries that make up 98% of the reads.
const HOT: usize = 256;
/// Reads per round: about a second over loopback on the reference box.
const READS: usize = 40_000;
/// Every 50th read is a query outside the hot pool. The slowest 1% of
/// reads is then the slower half of the misses and `lat_p99_us` the
/// *median* miss — the steadiest percentile of that population. (At the
/// issue's 5% it was the misses' 80th percentile, and moved by 15%
/// between seeds and 60% under a noisy neighbour.)
const MISS_EVERY: usize = 50;
/// Every miss asks this threshold: one population, not one cluster per
/// threshold.
const MISS_TAU: u32 = 12;

pub struct NetCached {
    data: Dataset,
    /// Rows `0..hot` are the hot pool, the rest the misses.
    queries: Dataset,
    /// Size of the hot pool.
    hot: usize,
    ops: Vec<ReadOp>,
    /// Linear-scan answer of every query.
    truth: Vec<Vec<u32>>,
    cfg: GphConfig,
    fingerprint: u64,
}

pub struct System {
    service: Arc<QueryService>,
    server: NetServer,
    client: GphClient,
    size_bytes: usize,
    /// Counter deltas over the traced rounds.
    net: NetServerStats,
    cache: CacheStats,
    traced_ops: u64,
}

fn server_config() -> ServerConfig {
    ServerConfig { workers: 1, resolvers: 1, ..ServerConfig::default() }
}

fn serve(
    index: ShardedIndex,
    cache_capacity: usize,
) -> Result<(Arc<QueryService>, NetServer), String> {
    let service = Arc::new(QueryService::new(
        Arc::new(index),
        ServiceConfig { workers: 1, cache_capacity, ..ServiceConfig::default() },
    ));
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&service), server_config())
        .map_err(|e| format!("bind loopback: {e}"))?;
    Ok((service, server))
}

impl NetCached {
    pub fn generate(opts: &Opts) -> Self {
        let (rows, hot, reads) = if opts.quick { (3_000, 32, 400) } else { (ROWS, HOT, READS) };
        let misses = reads / MISS_EVERY;
        let data = gen::corpus(rows, opts.seed);
        let mut rng = Rng::new(opts.seed, 4);
        let mut queries = Dataset::with_capacity(data.dim(), hot + misses);
        let mut seen = std::collections::HashSet::new();
        while queries.len() < hot + misses {
            let q = gen::perturbed(&data, rng.below(rows as u64) as usize, &mut rng);
            if seen.insert(q.clone()) {
                queries.push_row(&q).expect("same dimensionality");
            }
        }
        let tau = |query: usize| if query < hot { TAUS[query % TAUS.len()] } else { MISS_TAU };
        let mut next_miss = hot;
        let ops: Vec<ReadOp> = (0..reads)
            .map(|i| {
                let query = if i % MISS_EVERY == MISS_EVERY - 1 {
                    next_miss += 1;
                    next_miss - 1
                } else {
                    rng.below(hot as u64) as usize
                };
                ReadOp { query: query as u32, tau: tau(query) }
            })
            .collect();
        let truth = (0..queries.len()).map(|k| data.linear_scan(queries.row(k), tau(k))).collect();
        let mut f = Fingerprint::default();
        f.dataset(&data);
        f.dataset(&queries);
        ops.iter().for_each(|op| f.word((op.query as u64) << 8 | op.tau as u64));
        let cfg = GphConfig::new(GphConfig::suggested_m(data.dim()), TAU_MAX);
        NetCached { data, queries, hot, ops, truth, cfg, fingerprint: f.value() }
    }

    /// Result-cache entries: the hot pool plus half a round's misses. A
    /// round's misses come back next round (rounds are identical); by
    /// then that many newer misses have pushed each one out, while the
    /// hot entries, touched every few hundred reads, stay — so a miss
    /// stays a miss.
    fn cache_capacity(&self) -> usize {
        self.hot + (self.queries.len() - self.hot) / 2
    }

    fn search(client: &GphClient, q: &[u64], tau: u32) -> Result<Vec<u32>, String> {
        let r = client.search(q, tau).map_err(|e| e.to_string())?;
        match r.degraded_from {
            None => Ok(r.ids),
            Some(asked) => Err(format!("degraded from tau {asked} to {}", r.tau)),
        }
    }
}

impl Workload for NetCached {
    type System = System;

    fn name(&self) -> &'static str {
        "net-cached"
    }

    fn nominal_round_s(&self) -> f64 {
        1.0
    }

    fn ops_per_round(&self) -> u64 {
        self.ops.len() as u64
    }

    fn clients(&self) -> usize {
        1
    }

    fn input_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn deterministic(&self) -> bool {
        true
    }

    fn notes(&self) -> Vec<String> {
        vec![format!(
            "{} rows x {} bits in {SHARDS} shard behind NetServer (1 event-loop worker, 1 \
             resolver, 1 service worker) on loopback; 1 client, depth 1; {} reads per round, \
             98% from a hot pool of {}, cache capacity {}",
            self.data.len(),
            self.data.dim(),
            self.ops.len(),
            self.hot,
            self.cache_capacity()
        )]
    }

    fn setup(&self) -> Result<System, String> {
        let index =
            ShardedIndex::build(&self.data, SHARDS, &self.cfg).map_err(|e| e.to_string())?;
        let size_bytes = index.size_bytes();
        let (service, server) = serve(index, self.cache_capacity())?;
        let client = GphClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
        // First operation servable: a request has made the round trip.
        client.ping().map_err(|e| e.to_string())?;
        Ok(System {
            service,
            server,
            client,
            size_bytes,
            net: NetServerStats::default(),
            cache: CacheStats::default(),
            traced_ops: 0,
        })
    }

    fn teardown(&self, sys: System) {
        drop(sys.client);
        sys.server.shutdown();
    }

    fn mem_amp(&self, sys: &System) -> f64 {
        sys.size_bytes as f64 / self.data.size_bytes() as f64
    }

    fn round(&self, sys: &mut System, mode: Mode<'_>) -> Result<Round, String> {
        let (rec, keep) = match mode {
            Mode::Plain => (None, None),
            Mode::Verify => (None, Some(1)),
            Mode::Traced(rec) => (Some(rec), None),
        };
        let traced = rec.is_some();
        let (net0, cache0) = (sys.server.stats(), sys.service.cache_stats());
        let client = &sys.client;
        let (mut round, kept) =
            read_round(&self.ops, &self.queries, "GphClient::search", rec, keep, |q, tau| {
                Self::search(client, q, tau).map(Answer::owned)
            })?;
        round.failed += kept
            .iter()
            .filter(|(i, ids)| ids.as_slice() != self.truth[self.ops[*i].query as usize])
            .count() as u64;
        if traced {
            let (net1, cache1) = (sys.server.stats(), sys.service.cache_stats());
            sys.net.bytes_in += net1.bytes_in - net0.bytes_in;
            sys.net.bytes_out += net1.bytes_out - net0.bytes_out;
            sys.net.backpressure_pauses += net1.backpressure_pauses - net0.backpressure_pauses;
            sys.net.protocol_errors += net1.protocol_errors - net0.protocol_errors;
            sys.cache.hits += cache1.hits - cache0.hits;
            sys.cache.misses += cache1.misses - cache0.misses;
            sys.traced_ops += round.ops;
        }
        Ok(round)
    }

    fn layers(
        &self,
        sys: &mut System,
        _spans: &[Span],
        _rounds: usize,
        out: &mut Layers,
    ) -> Result<(), String> {
        let ops = sys.traced_ops as f64;
        out.set("net.bytes_per_op", (sys.net.bytes_in + sys.net.bytes_out) as f64 / ops);
        out.set("net.backpressure_pauses", sys.net.backpressure_pauses as f64);
        out.set("net.protocol_errors", sys.net.protocol_errors as f64);
        out.set("serve.cache_hit_ratio", sys.cache.hit_rate());
        out.set("serve.cache_lookup_ns", cache_lookup_ns(&self.queries));

        let client = &sys.client;
        let mut failed = None;
        out.set(
            "net.ping_rtt_us_p50",
            p50_us(2_000, |_| {
                if let Err(e) = client.ping() {
                    failed = Some(e.to_string());
                }
            }),
        );

        // Codec alone: a search request and its answer.
        let request = Request::Search { tau: 8, query: self.queries.row(0).to_vec() };
        out.set(
            "net.encode_request_ns",
            mean_ns(200_000, |i| {
                black_box(encode_request(i as u64, &request));
            }),
        );
        let frame = encode_response(
            7,
            &Response::Search(SearchEntry::Ids {
                ids: self.truth[0].clone(),
                tau: 8,
                degraded_from: None,
                from_cache: true,
            }),
        );
        out.set(
            "net.decode_frame_ns",
            mean_ns(200_000, |_| {
                black_box(decode_frame(black_box(&frame)).is_ok());
            }),
        );

        // Onion. Hot queries, which the cache holds after the rounds:
        // the wire on top of the service. Fresh queries, which it does
        // not: the service (queue, cache miss, admission) on top of the
        // sharded index.
        let n = self.hot.min(256);
        let hot = |i: usize| (self.queries.row(i % self.hot), TAUS[(i % self.hot) % TAUS.len()]);
        let over_wire = p50_us(4 * n, |i| {
            let (q, tau) = hot(i);
            if let Err(e) = Self::search(client, q, tau) {
                failed = Some(e);
            }
        });
        let in_process = p50_us(4 * n, |i| {
            let (q, tau) = hot(i);
            black_box(sys.service.query(q, tau));
        });
        out.set("net.wire_delta_us", over_wire - in_process);
        let mut rng = Rng::new(self.fingerprint, 5);
        let fresh = gen::queries(&self.data, self.data.len(), n, &mut rng);
        let tau = |i: usize| TAUS[i % TAUS.len()];
        // `ShardedIndex::search` does not fill the result cache, so the
        // same queries still miss it when the service sees them.
        let sharded = p50_us(n, |i| {
            black_box(sys.service.index().search(fresh.row(i), tau(i)));
        });
        let served = p50_us(n, |i| {
            black_box(sys.service.query(fresh.row(i), tau(i)));
        });
        out.set("serve.service_delta_us", served - sharded);
        if let Some(e) = failed {
            return Err(e);
        }
        out.set("fleet.scatter_delta_us", self.fleet_scatter_delta_us()?);
        Ok(())
    }
}

impl NetCached {
    /// `FleetClient::search` over two in-process `NetServer`s and a
    /// `MetastoreServer`, against one `GphClient` on one `NetServer`
    /// holding the same rows; caches off on both sides. Traced runs
    /// only: this is the one place the thread discipline is relaxed.
    fn fleet_scatter_delta_us(&self) -> Result<f64, String> {
        let rows = self.data.len().min(40_000);
        let whole = gen::slice(&self.data, 0, rows);
        let halves = [gen::slice(&self.data, 0, rows / 2), gen::slice(&self.data, rows / 2, rows)];
        let build = |d: &Dataset| ShardedIndex::build(d, 1, &self.cfg).map_err(|e| e.to_string());
        let (_single_service, single) = serve(build(&whole)?, 0)?;
        let nodes = [serve(build(&halves[0])?, 0)?, serve(build(&halves[1])?, 0)?];
        let metastore = MetastoreServer::bind("127.0.0.1:0", server_config())
            .map_err(|e| format!("bind metastore: {e}"))?;
        let manifest = FleetManifest {
            version: 1,
            n_shards: 2,
            nodes: nodes
                .iter()
                .enumerate()
                .map(|(slot, (_, server))| FleetNode {
                    slots: vec![slot as u32],
                    addrs: vec![server.local_addr().to_string()],
                })
                .collect(),
        };
        let net = |e: gph_net::NetError| e.to_string();
        GphClient::connect(metastore.local_addr())
            .map_err(net)?
            .publish_manifest(&manifest)
            .map_err(net)?;
        let fleet =
            FleetClient::connect(&metastore.local_addr().to_string(), FleetConfig::default())
                .map_err(net)?;
        let direct = GphClient::connect(single.local_addr()).map_err(net)?;

        // The halves number their rows from zero, so ids differ from the
        // whole's; the answers must still be equally many.
        let n = self.hot.min(256);
        let mut failed = None;
        for i in 0..n.min(32) {
            let q = self.queries.row(i);
            let a = fleet.search(q, 8).map_err(net)?.ids.len();
            let b = direct.search(q, 8).map_err(net)?.ids.len();
            if a != b {
                failed = Some(format!("fleet returned {a} ids where one node returns {b}"));
            }
        }
        let scattered = p50_us(n, |i| {
            if let Err(e) = fleet.search(self.queries.row(i), 8) {
                failed = Some(e.to_string());
            }
        });
        let one_hop = p50_us(n, |i| {
            if let Err(e) = direct.search(self.queries.row(i), 8) {
                failed = Some(e.to_string());
            }
        });
        drop((fleet, direct));
        metastore.shutdown();
        single.shutdown();
        for (_, server) in nodes {
            server.shutdown();
        }
        match failed {
            Some(e) => Err(e),
            None => Ok(scattered - one_hop),
        }
    }
}
