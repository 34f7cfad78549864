//! Fleet end-to-end under deterministic network faults: a 3-node fleet
//! plus metastore, fronted by seeded [`FaultProxy`]s, must answer every
//! search/top-k **response-identical** to a single in-process
//! [`QueryService`] over the same rows — or fail with a typed
//! [`NetError`] — and never hang, panic, or silently truncate a top-k.
//! A rolling restart (kill + warm-restart one node mid-load, metastore
//! republishing) must lose zero reads once retries are exhausted, with
//! the manifest version strictly increasing.

use gph::engine::GphConfig;
use gph::partition_opt::PartitionStrategy;
use gph_net::{
    FaultPlan, FaultProxy, FleetClient, FleetConfig, FleetManifest, FleetMetrics, FleetNode,
    GphClient, MetastoreServer, NetError, NetServer, ServerConfig, WireError, WireMutation,
};
use gph_serve::{Outcome, QueryService, ServiceConfig, ShardedIndex};
use hamming_core::{BitVector, Dataset};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIM: usize = 64;
const TAU: u32 = 6;
const ROWS: usize = 240;
const FLEET_SLOTS: u32 = 6;

/// Aborts the whole process if the test runs past `limit`: under fault
/// injection the failure mode to catch is a silent hang, which a plain
/// assert can never report.
struct Watchdog {
    cancel: Option<crossbeam::channel::Sender<()>>,
    label: &'static str,
}

impl Watchdog {
    fn arm(label: &'static str, limit: Duration) -> Watchdog {
        let (tx, rx) = crossbeam::channel::bounded::<()>(1);
        std::thread::spawn(move || {
            if let Err(crossbeam::channel::RecvTimeoutError::Timeout) = rx.recv_timeout(limit) {
                eprintln!("WATCHDOG: test {label:?} exceeded {limit:?}; aborting");
                std::process::abort();
            }
        });
        Watchdog { cancel: Some(tx), label }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        let _ = self.label;
        self.cancel.take();
    }
}

fn engine_cfg() -> GphConfig {
    let mut cfg = GphConfig::new(4, 12);
    cfg.strategy = PartitionStrategy::RandomShuffle { seed: 7 };
    cfg
}

fn dataset(seed: u64) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut ds = Dataset::new(DIM);
    for _ in 0..ROWS {
        let v = BitVector::from_bits((0..DIM).map(|_| rng.random_bool(0.4)));
        ds.push(&v).unwrap();
    }
    ds
}

fn reference(ds: &Dataset) -> Arc<QueryService> {
    let index = ShardedIndex::build(ds, 3, &engine_cfg()).unwrap();
    Arc::new(QueryService::new(Arc::new(index), ServiceConfig::default()))
}

/// A fleet node's service: an index holding exactly the rows whose
/// fleet slot (`shard_of(id, FLEET_SLOTS)`) is in `slots`, under their
/// **global** ids. The node re-shards internally however it likes — the
/// fleet partition and the node's internal partition are independent.
fn node_service(ds: &Dataset, slots: &[u32]) -> Arc<QueryService> {
    let index = ShardedIndex::build(&Dataset::new(DIM), 2, &engine_cfg()).unwrap();
    for id in 0..ds.len() as u32 {
        let slot = ShardedIndex::shard_of(id, FLEET_SLOTS as usize) as u32;
        if slots.contains(&slot) {
            index.insert(id, ds.row(id as usize)).unwrap();
        }
    }
    Arc::new(QueryService::new(Arc::new(index), ServiceConfig::default()))
}

const GROUP_SLOTS: [[u32; 2]; 3] = [[0, 3], [1, 4], [2, 5]];

fn manifest(version: u64, group_addrs: [Vec<SocketAddr>; 3]) -> FleetManifest {
    FleetManifest {
        version,
        n_shards: FLEET_SLOTS,
        nodes: GROUP_SLOTS
            .iter()
            .zip(group_addrs)
            .map(|(slots, addrs)| FleetNode {
                slots: slots.to_vec(),
                addrs: addrs.iter().map(|a| a.to_string()).collect(),
            })
            .collect(),
    }
}

fn expect_ids(service: &QueryService, query: &[u64], tau: u32) -> Vec<u32> {
    match service.query(query, tau).outcome {
        Outcome::Ids { ids, .. } => ids.as_ref().clone(),
        other => panic!("reference refused the query: {other:?}"),
    }
}

fn expect_topk(service: &QueryService, query: &[u64], k: usize) -> Vec<(u32, u32)> {
    match service.query_topk(query, k).outcome {
        Outcome::TopK { hits, degraded_cap } => {
            assert_eq!(degraded_cap, None, "fixture must not degrade");
            hits.as_ref().clone()
        }
        other => panic!("reference refused the top-k: {other:?}"),
    }
}

/// The acceptance test: the same fleet, driven through three distinct
/// seeded fault schedules, answers byte-identical to the in-process
/// service every time. Each node group lists the chaos proxy as its
/// primary address and the direct listener as the replica, so the retry
/// ladder always has a clean path once the proxy has misbehaved.
#[test]
fn three_fault_seeds_cannot_corrupt_fleet_answers() {
    let _watchdog = Watchdog::arm("three_fault_seeds", Duration::from_secs(240));
    let ds = dataset(42);
    let single = reference(&ds);
    let nodes: Vec<_> = GROUP_SLOTS
        .iter()
        .map(|slots| {
            NetServer::bind("127.0.0.1:0", node_service(&ds, slots), ServerConfig::default())
                .unwrap()
        })
        .collect();
    let metastore = MetastoreServer::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let deployer = GphClient::connect(metastore.local_addr()).unwrap();

    for (round, seed) in [0xA11CEu64, 0xB0B5ED, 0xC0FFEE].into_iter().enumerate() {
        let proxies: Vec<FaultProxy> = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                FaultProxy::launch(n.local_addr(), FaultPlan::chaos(seed.wrapping_add(i as u64)))
                    .unwrap()
            })
            .collect();
        let addrs = |i: usize| vec![proxies[i].local_addr(), nodes[i].local_addr()];
        let m = manifest(round as u64 + 1, [addrs(0), addrs(1), addrs(2)]);
        assert_eq!(deployer.publish_manifest(&m).unwrap(), round as u64 + 1);

        let fleet = FleetClient::connect(
            &metastore.local_addr().to_string(),
            FleetConfig {
                attempts: 3,
                backoff: Duration::from_millis(10),
                request_timeout: Duration::from_secs(2),
                ..FleetConfig::default()
            },
        )
        .unwrap();
        assert_eq!(fleet.manifest().version, round as u64 + 1);

        for qi in (0..ROWS).step_by(7) {
            let q = ds.row(qi);
            let got = fleet.search(q, TAU).unwrap_or_else(|e| {
                panic!("seed {seed:#x} query {qi}: reads must survive the schedule: {e}")
            });
            assert_eq!(got.ids, expect_ids(&single, q, TAU), "seed {seed:#x} query {qi}");
            assert!(!got.degraded);
        }
        for qi in (0..ROWS).step_by(23) {
            let q = ds.row(qi);
            let got = fleet.topk(q, 5).unwrap();
            assert_eq!(got.hits, expect_topk(&single, q, 5), "seed {seed:#x} top-k {qi}");
        }

        // The schedule must have had teeth, or this round proved nothing.
        let injected: u64 = proxies
            .iter()
            .map(|p| {
                let s = p.stats();
                s.partial_writes + s.stalls + s.torn_frames + s.resets + s.delayed_accepts
            })
            .sum();
        assert!(injected > 0, "seed {seed:#x} injected no faults");
        for p in proxies {
            p.stop();
        }
    }

    for n in nodes {
        n.shutdown();
    }
    metastore.shutdown();
}

/// Mutations route to the owner group's primary: after a fleet insert,
/// exactly the owning node's index holds the id, and it is visible to a
/// fleet-wide exact search.
#[test]
fn fleet_mutations_land_on_the_owning_node_only() {
    let _watchdog = Watchdog::arm("fleet_mutations", Duration::from_secs(120));
    let ds = dataset(43);
    let services: Vec<_> = GROUP_SLOTS.iter().map(|s| node_service(&ds, s)).collect();
    let nodes: Vec<_> = services
        .iter()
        .map(|s| NetServer::bind("127.0.0.1:0", Arc::clone(s), ServerConfig::default()).unwrap())
        .collect();
    let metastore = MetastoreServer::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let m = manifest(
        1,
        [vec![nodes[0].local_addr()], vec![nodes[1].local_addr()], vec![nodes[2].local_addr()]],
    );
    GphClient::connect(metastore.local_addr()).unwrap().publish_manifest(&m).unwrap();
    let fleet =
        FleetClient::connect(&metastore.local_addr().to_string(), FleetConfig::default()).unwrap();

    for j in 0..24u32 {
        let id = 50_000 + j * 101;
        let row = vec![0x8000_0000_0000_0000u64 | id as u64];
        assert_eq!(fleet.insert(id, &row).unwrap(), WireMutation::Applied { replaced: false });

        let holders: Vec<usize> = (0..3).filter(|&i| services[i].index().contains(id)).collect();
        assert_eq!(holders, vec![fleet.node_for(id).unwrap()], "id {id} owner");
        assert_eq!(fleet.search(&row, 0).unwrap().ids, vec![id], "id {id} visible fleet-wide");

        assert_eq!(fleet.delete(id).unwrap(), WireMutation::Applied { replaced: true });
        assert_eq!(fleet.delete(id).unwrap(), WireMutation::NotFound);
    }

    for n in nodes {
        n.shutdown();
    }
    metastore.shutdown();
}

/// Distributed tracing under faults: a traced fleet search through
/// seeded chaos proxies — with group 2 behind a proxy that stalls every
/// chunk, the deterministic straggler — still answers byte-identical to
/// the in-process reference, and the merged [`gph_obs::FleetTrace`]
/// holds the per-hop invariant
/// `sum(phases) ≤ node total ≤ hop e2e ≤ fleet total` on every hop.
#[test]
fn traced_fleet_search_holds_hop_invariants_under_faults() {
    let _watchdog = Watchdog::arm("traced_fleet", Duration::from_secs(240));
    let ds = dataset(45);
    let single = reference(&ds);
    let nodes: Vec<_> = GROUP_SLOTS
        .iter()
        .map(|slots| {
            NetServer::bind("127.0.0.1:0", node_service(&ds, slots), ServerConfig::default())
                .unwrap()
        })
        .collect();
    let stalled = FaultPlan {
        stall_prob: 1.0,
        stall: Duration::from_millis(100),
        ..FaultPlan::clean(0xD00F)
    };
    let proxies = [
        FaultProxy::launch(nodes[0].local_addr(), FaultPlan::chaos(0xFEED_0001)).unwrap(),
        FaultProxy::launch(nodes[1].local_addr(), FaultPlan::chaos(0xFEED_0002)).unwrap(),
        FaultProxy::launch(nodes[2].local_addr(), stalled).unwrap(),
    ];
    let metastore = MetastoreServer::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addrs = |i: usize| vec![proxies[i].local_addr(), nodes[i].local_addr()];
    let m = manifest(1, [addrs(0), addrs(1), addrs(2)]);
    GphClient::connect(metastore.local_addr()).unwrap().publish_manifest(&m).unwrap();
    let fleet = FleetClient::connect(
        &metastore.local_addr().to_string(),
        FleetConfig {
            attempts: 3,
            backoff: Duration::from_millis(10),
            request_timeout: Duration::from_secs(2),
            ..FleetConfig::default()
        },
    )
    .unwrap();

    let straggler_name = nodes[2].local_addr().to_string();
    let mut straggled = 0usize;
    let mut queries = 0usize;
    let mut prev_trace_id = 0u64;
    for qi in (0..ROWS).step_by(11) {
        let q = ds.row(qi);
        let got = fleet
            .search_traced(q, TAU)
            .unwrap_or_else(|e| panic!("traced query {qi}: reads must survive the schedule: {e}"));
        assert_eq!(got.ids, expect_ids(&single, q, TAU), "traced query {qi}");
        let t = &got.trace;
        assert_eq!(t.tau, TAU);
        assert!(t.trace_id > prev_trace_id, "trace ids must strictly increase");
        prev_trace_id = t.trace_id;
        assert_eq!(t.hops.len(), 3, "one hop per node group");
        assert!(t.hops.windows(2).all(|w| w[0].node <= w[1].node), "hops canonically ordered");
        for h in &t.hops {
            assert!(!h.node.is_empty(), "every hop carries a node identity");
            assert_eq!(h.trace.trace_id, t.trace_id, "hop {} lost the distributed id", h.node);
            assert!(h.trace.started_unix_ns > 0, "hop {} lost its arrival stamp", h.node);
            let phases = h.trace.phase_totals().total();
            assert!(
                phases <= h.trace.total_ns,
                "hop {}: phase sum {phases} exceeds node total {}",
                h.node,
                h.trace.total_ns
            );
            assert!(
                h.trace.total_ns <= h.e2e_ns,
                "hop {}: node total {} exceeds hop e2e {}",
                h.node,
                h.trace.total_ns,
                h.e2e_ns
            );
            assert!(
                h.e2e_ns <= t.total_ns,
                "hop {}: e2e {} exceeds fleet total {}",
                h.node,
                h.e2e_ns,
                t.total_ns
            );
            assert_eq!(h.network_ns(), h.e2e_ns - h.trace.total_ns);
        }
        queries += 1;
        if t.straggler().unwrap().node == straggler_name {
            straggled += 1;
        }
    }
    // The stalled node pays ≥200ms per round trip; chaos noise on the
    // other groups must not out-straggle it more than occasionally.
    assert!(straggled * 2 > queries, "stalled node was straggler only {straggled}/{queries} times");
    assert!(proxies[2].stats().stalls > 0, "the straggler schedule had no teeth");

    for p in proxies {
        p.stop();
    }
    for n in nodes {
        n.shutdown();
    }
    metastore.shutdown();
}

/// The merged value of `series` must be the sum over the fresh scrapes:
/// every live node's series survives into the merge, and nothing else
/// does.
fn assert_merged_sums_fresh(scrape: &FleetMetrics, series: &str) {
    let fresh: f64 = scrape
        .nodes
        .iter()
        .filter(|n| n.error.is_none())
        .map(|n| gph_obs::Exposition::parse(&n.text).value(series).unwrap())
        .sum();
    let merged = gph_obs::Exposition::parse(&scrape.merged).value(series);
    assert_eq!(merged, Some(fresh), "merged {series} sums the fresh scrapes");
}

/// Metrics federation: [`FleetClient::metrics`] scrapes every manifest
/// address — the replica included — and merges the expositions; killing
/// a node mid-fleet turns it into a **stale** entry (scrape error
/// attached, no text) without failing the scrape or dropping the other
/// nodes' series.
#[test]
fn metrics_federation_reports_killed_node_stale() {
    let _watchdog = Watchdog::arm("metrics_federation", Duration::from_secs(120));
    let ds = dataset(46);
    let services: Vec<_> = GROUP_SLOTS.iter().map(|s| node_service(&ds, s)).collect();
    let bind = |i: usize| {
        NetServer::bind("127.0.0.1:0", Arc::clone(&services[i]), ServerConfig::default()).unwrap()
    };
    let mut nodes: Vec<_> = (0..3).map(bind).collect();
    let replica0 = bind(0);
    let metastore = MetastoreServer::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let m = manifest(
        1,
        [
            vec![nodes[0].local_addr(), replica0.local_addr()],
            vec![nodes[1].local_addr()],
            vec![nodes[2].local_addr()],
        ],
    );
    GphClient::connect(metastore.local_addr()).unwrap().publish_manifest(&m).unwrap();
    let addrs: Vec<String> = m.nodes.iter().flat_map(|n| n.addrs.clone()).collect();
    let replica_addr = replica0.local_addr().to_string();

    // Put some traffic through so the expositions are non-trivial.
    let fleet =
        FleetClient::connect(&metastore.local_addr().to_string(), FleetConfig::default()).unwrap();
    for qi in (0..ROWS).step_by(31) {
        fleet.search(ds.row(qi), TAU).unwrap();
    }

    let all = fleet.metrics();
    let scraped: Vec<&str> = all.nodes.iter().map(|n| n.node.as_str()).collect();
    assert_eq!(scraped, addrs, "one scrape per manifest address, in manifest order");
    assert!(all.nodes.iter().all(|n| n.error.is_none()), "all nodes fresh: {:?}", all.nodes);
    assert!(all.nodes.iter().all(|n| n.text.contains("gph_net_requests_total")));
    assert_merged_sums_fresh(&all, "gph_net_requests_total");

    // Kill group 1 and scrape again: stale, not an error.
    let killed = nodes.remove(1);
    let killed_addr = killed.local_addr().to_string();
    killed.shutdown();
    let after = fleet.metrics();
    let scraped: Vec<&str> = after.nodes.iter().map(|n| n.node.as_str()).collect();
    assert_eq!(scraped, addrs, "stale nodes still appear in the scrape report");
    let stale: Vec<_> = after.nodes.iter().filter(|n| n.error.is_some()).collect();
    assert_eq!(stale.len(), 1, "exactly the killed node is stale: {:?}", after.nodes);
    assert_eq!(stale[0].node, killed_addr);
    assert!(stale[0].text.is_empty(), "a stale scrape carries no exposition");
    let replica = after.nodes.iter().find(|n| n.node == replica_addr).unwrap();
    assert!(replica.error.is_none(), "the replica is scraped fresh: {replica:?}");
    assert!(replica.text.contains("gph_net_requests_total"));
    assert_merged_sums_fresh(&after, "gph_net_requests_total");

    for n in nodes {
        n.shutdown();
    }
    replica0.shutdown();
    metastore.shutdown();
}

/// A sweep waits for all of its addresses under one deadline: with two
/// of four addresses behind proxies that hold every chunk for three
/// probe timeouts, `refresh_health` and `metrics` each come back within
/// one and a half probe timeouts — not one timeout per stalled address
/// — and report exactly the stalled addresses as demoted and stale.
#[test]
fn a_stalled_address_costs_one_probe_timeout() {
    let _watchdog = Watchdog::arm("stalled_sweep", Duration::from_secs(120));
    const PROBE: Duration = Duration::from_secs(1);
    let ds = dataset(48);
    let nodes: Vec<_> = GROUP_SLOTS
        .iter()
        .map(|slots| {
            NetServer::bind("127.0.0.1:0", node_service(&ds, slots), ServerConfig::default())
                .unwrap()
        })
        .collect();
    let stalled = |i: usize| {
        let plan = FaultPlan { stall_prob: 1.0, stall: 3 * PROBE, ..FaultPlan::clean(0x57A11) };
        FaultProxy::launch(nodes[i].local_addr(), plan).unwrap()
    };
    let proxies = [stalled(0), stalled(1)];
    let metastore = MetastoreServer::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let m = manifest(
        1,
        [
            vec![nodes[0].local_addr(), proxies[0].local_addr()],
            vec![proxies[1].local_addr()],
            vec![nodes[2].local_addr()],
        ],
    );
    GphClient::connect(metastore.local_addr()).unwrap().publish_manifest(&m).unwrap();
    let fleet = FleetClient::connect(
        &metastore.local_addr().to_string(),
        FleetConfig { probe_timeout: PROBE, ..FleetConfig::default() },
    )
    .unwrap();
    let stalled_addrs: HashSet<String> =
        proxies.iter().map(|p| p.local_addr().to_string()).collect();

    let t0 = Instant::now();
    let sweep = fleet.refresh_health();
    let took = t0.elapsed();
    assert!(took < PROBE * 3 / 2, "health sweep took {took:?} for two stalled addresses");
    assert_eq!(sweep.len(), 4);
    for entry in &sweep {
        let stalled = stalled_addrs.contains(&entry.addr);
        assert_eq!(entry.demoted, stalled, "{entry:?}");
        assert_eq!(entry.health.is_none(), stalled, "{entry:?}");
    }
    assert_eq!(fleet.demoted(), stalled_addrs);

    let t0 = Instant::now();
    let scrape = fleet.metrics();
    let took = t0.elapsed();
    assert!(took < PROBE * 3 / 2, "metrics sweep took {took:?} for two stalled addresses");
    assert_eq!(scrape.nodes.len(), 4);
    for node in &scrape.nodes {
        let stalled = stalled_addrs.contains(&node.node);
        assert_eq!(node.error.is_some(), stalled, "{node:?}");
        assert_eq!(node.text.is_empty(), stalled, "{node:?}");
    }
    assert!(proxies.iter().all(|p| p.stats().stalls > 0), "the stall schedule had no teeth");

    for p in proxies {
        p.stop();
    }
    for n in nodes {
        n.shutdown();
    }
    metastore.shutdown();
}

/// Health-driven routing: a health sweep reports every address's shard
/// ownership and load, and an unreachable primary is demoted so the
/// retry ladder prefers the healthy replica — reads keep answering.
#[test]
fn health_probes_demote_unreachable_primaries() {
    let _watchdog = Watchdog::arm("health_demotion", Duration::from_secs(120));
    let ds = dataset(47);
    let single = reference(&ds);
    let services: Vec<_> = GROUP_SLOTS.iter().map(|s| node_service(&ds, s)).collect();
    let bind = |i: usize| {
        NetServer::bind_with_slots(
            "127.0.0.1:0",
            Arc::clone(&services[i]),
            ServerConfig::default(),
            GROUP_SLOTS[i].to_vec(),
        )
        .unwrap()
    };
    let mut primary0 = Some(bind(0));
    let replica0 = bind(0); // same service, same rows
    let node1 = bind(1);
    let node2 = bind(2);
    let metastore = MetastoreServer::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let primary0_addr = primary0.as_ref().unwrap().local_addr().to_string();
    let m = manifest(
        1,
        [
            vec![primary0.as_ref().unwrap().local_addr(), replica0.local_addr()],
            vec![node1.local_addr()],
            vec![node2.local_addr()],
        ],
    );
    GphClient::connect(metastore.local_addr()).unwrap().publish_manifest(&m).unwrap();
    let fleet = FleetClient::connect(
        &metastore.local_addr().to_string(),
        FleetConfig {
            attempts: 2,
            backoff: Duration::from_millis(10),
            request_timeout: Duration::from_secs(2),
            ..FleetConfig::default()
        },
    )
    .unwrap();

    // Sweep 1: everyone answers; ownership and load are reported.
    let sweep = fleet.refresh_health();
    assert_eq!(sweep.len(), 4, "two addresses in group 0, one in each other group");
    let expect_group = [0usize, 0, 1, 2];
    for (entry, gi) in sweep.iter().zip(expect_group) {
        let h = entry.health.as_ref().unwrap_or_else(|| panic!("{} unreachable", entry.addr));
        assert_eq!(h.slots, GROUP_SLOTS[gi].to_vec(), "{} reports its slots", entry.addr);
        assert_eq!(h.rows, services[gi].index().len() as u64);
        assert!(!h.degraded, "{} idle, not degraded", entry.addr);
        assert!(h.queue_capacity > 0);
        assert!(!entry.demoted);
    }
    assert!(fleet.demoted().is_empty());

    // Kill group 0's primary; the next sweep demotes exactly it.
    primary0.take().unwrap().shutdown();
    let sweep = fleet.refresh_health();
    let down: Vec<_> = sweep.iter().filter(|e| e.demoted).collect();
    assert_eq!(down.len(), 1, "exactly the dead primary is demoted: {sweep:?}");
    assert_eq!(down[0].addr, primary0_addr);
    assert!(down[0].health.is_none());
    assert_eq!(fleet.demoted(), std::collections::HashSet::from([primary0_addr.clone()]));

    // Reads route around the demoted primary onto the replica.
    for qi in (0..ROWS).step_by(17) {
        let q = ds.row(qi);
        assert_eq!(fleet.search(q, TAU).unwrap().ids, expect_ids(&single, q, TAU), "query {qi}");
    }

    replica0.shutdown();
    node1.shutdown();
    node2.shutdown();
    metastore.shutdown();
}

/// Rolling restart: kill group 0's primary mid-load, republish pointing
/// at the replica, warm-restart a new primary, republish again. The
/// load thread must see **zero** failed reads (retries exhaust onto the
/// replica), and the manifest version must only ever go up — a stale
/// republish is refused with a typed error.
#[test]
fn rolling_restart_loses_no_reads_and_versions_only_increase() {
    let _watchdog = Watchdog::arm("rolling_restart", Duration::from_secs(240));
    let ds = dataset(44);
    let single = reference(&ds);
    let services: Vec<_> = GROUP_SLOTS.iter().map(|s| node_service(&ds, s)).collect();
    let bind = |svc: &Arc<QueryService>| {
        NetServer::bind("127.0.0.1:0", Arc::clone(svc), ServerConfig::default()).unwrap()
    };
    let mut primary0 = Some(bind(&services[0]));
    let replica0 = bind(&services[0]); // true replica: same service, same rows
    let node1 = bind(&services[1]);
    let node2 = bind(&services[2]);
    let metastore = MetastoreServer::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let deployer = GphClient::connect(metastore.local_addr()).unwrap();

    let m1 = manifest(
        1,
        [
            vec![primary0.as_ref().unwrap().local_addr(), replica0.local_addr()],
            vec![node1.local_addr()],
            vec![node2.local_addr()],
        ],
    );
    assert_eq!(deployer.publish_manifest(&m1).unwrap(), 1);

    let fleet = Arc::new(
        FleetClient::connect(
            &metastore.local_addr().to_string(),
            FleetConfig {
                attempts: 4,
                backoff: Duration::from_millis(10),
                request_timeout: Duration::from_secs(2),
                ..FleetConfig::default()
            },
        )
        .unwrap(),
    );

    // Precompute expected answers so the load thread only compares.
    let queries: Vec<(Vec<u64>, Vec<u32>)> = (0..ROWS)
        .step_by(6)
        .map(|qi| (ds.row(qi).to_vec(), expect_ids(&single, ds.row(qi), TAU)))
        .collect();

    let load = {
        let fleet = Arc::clone(&fleet);
        let queries = queries.clone();
        std::thread::spawn(move || {
            let mut served = 0u64;
            for round in 0..4 {
                for (i, (q, want)) in queries.iter().enumerate() {
                    let got = fleet
                        .search(q, TAU)
                        .unwrap_or_else(|e| panic!("read {round}/{i} failed after retries: {e}"));
                    assert_eq!(&got.ids, want, "read {round}/{i} answered wrong");
                    served += 1;
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            served
        })
    };

    // The restart choreography, mid-load.
    std::thread::sleep(Duration::from_millis(60));
    primary0.take().unwrap().shutdown(); // kill
    std::thread::sleep(Duration::from_millis(60));
    let m2 = manifest(
        2,
        [vec![replica0.local_addr()], vec![node1.local_addr()], vec![node2.local_addr()]],
    );
    assert_eq!(deployer.publish_manifest(&m2).unwrap(), 2);
    std::thread::sleep(Duration::from_millis(60));
    let restarted = bind(&services[0]); // warm restart: same rows, new port
    let m3 = manifest(
        3,
        [
            vec![restarted.local_addr(), replica0.local_addr()],
            vec![node1.local_addr()],
            vec![node2.local_addr()],
        ],
    );
    assert_eq!(deployer.publish_manifest(&m3).unwrap(), 3);

    let served = load.join().expect("load thread must not panic");
    assert_eq!(served, 4 * queries.len() as u64, "every read served exactly once");

    // Versions only increase: replaying an old manifest is refused.
    match deployer.publish_manifest(&m2) {
        Err(NetError::Remote(WireError::ManifestStale { current })) => assert_eq!(current, 3),
        other => panic!("stale republish gave {other:?}"),
    }
    assert_eq!(fleet.refresh_manifest().unwrap(), 3);
    assert_eq!(fleet.manifest().version, 3);

    // The restarted primary serves: route a read through the new map.
    let (q, want) = &queries[0];
    assert_eq!(&fleet.search(q, TAU).unwrap().ids, want);

    restarted.shutdown();
    replica0.shutdown();
    node1.shutdown();
    node2.shutdown();
    metastore.shutdown();
}
