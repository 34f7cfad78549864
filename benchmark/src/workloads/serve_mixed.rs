//! `serve-mixed`: writes beside reads. Two closed-loop clients each
//! replay a seeded 80/10/10 search/insert/delete stream through
//! `QueryService` (one worker) over a two-shard `ShardedIndex`. Reads
//! scan memtables, stall behind seals (a seal is a `Gph::build` under
//! the shard's write lock) and lose the result cache to every mutation
//! — so a read-side gain bought with write cost, or an off-lock seal,
//! moves `ops_per_s` here and nowhere else.
//!
//! Client `c` writes only ids that hash to shard `c`, and deletes only
//! rows of the initial corpus. Each shard therefore sees one client's
//! mutations in one fixed order, whatever the interleaving: the number
//! of seals, the segments at round end and the final live set are exact
//! and the same every round, and every seal is attributable to the
//! insert that triggered it.

use super::cache_lookup_ns;
use crate::gen::{self, Fingerprint, Rng, Zipf, TAUS, TAU_MAX};
use crate::harness::{p50_us, Layers, Mode, Opts, Round, Workload};
use crate::procstat::process_cpu_ns;
use crate::spans::{self, Recorder, Span};
use crate::stats;
use gph::engine::{Gph, GphConfig};
use gph::segment::{SegmentConfig, SegmentedGph};
use gph_serve::{
    AdmissionConfig, AdmissionController, CacheStats, MutationOutcome, Outcome, QueryService,
    ServiceConfig, ShardedIndex,
};
use hamming_core::Dataset;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Shards, and clients: client `c` owns the writes of shard `c`.
const SHARDS: usize = 2;
/// Rows indexed before the first operation.
const BASE_ROWS: usize = 100_000;
/// Operations per client per round: 80% reads, 10% inserts, 10% deletes.
const OPS_PER_CLIENT: usize = 5_000;
/// Live memtable rows that trigger a seal. A seal costs a third of a
/// second whatever its size (GR partition optimisation dominates
/// `Gph::build` on small inputs), so the threshold is set for one seal
/// per shard per round — two seals, a quarter of the round — rather than
/// at the issue's ~2048, which would need rounds of 80k operations.
const SEAL_ROWS: usize = 440;
/// Distinct queries reads are drawn from.
const POOL: usize = 512;
/// Zipf exponent of that draw. At s = 1 the ten most popular queries
/// are 43% of all reads and the latency percentiles are theirs, so they
/// would move with whichever ten rows a seed happens to pick; at 0.6
/// they are 16%.
const ZIPF_S: f64 = 0.6;
/// Pool queries answered once more, quiesced, after each round and
/// compared exactly.
const QUIESCED_CHECKS: usize = 64;

#[derive(Clone, Copy)]
enum Op {
    /// Index into the query pool.
    Read(u32),
    /// Id, and the row of `data` that holds its vector.
    Insert(u32, u32),
    Delete(u32),
}

struct Sizes {
    base_rows: usize,
    ops_per_client: usize,
    seal_rows: usize,
    pool: usize,
}

pub struct ServeMixed {
    sizes: Sizes,
    /// Base corpus (rows `0..base_rows`) followed by the rows inserted.
    data: Dataset,
    base: Dataset,
    pool: Dataset,
    pool_tau: Vec<u32>,
    streams: Vec<Vec<Op>>,
    /// Per pool query: ids every answer must contain / may contain
    /// during a round, and the exact answer once the round is over.
    lower: Vec<Vec<u32>>,
    upper: Vec<Vec<u32>>,
    settled: Vec<Vec<u32>>,
    live_at_end: usize,
    seals_per_round: usize,
    cfg: GphConfig,
    tmp: PathBuf,
    fingerprint: u64,
}

pub struct System {
    size_bytes: usize,
    /// A service over an index freshly restored from `snapshot`: the one
    /// `setup` left, or the last round's.
    service: Option<QueryService>,
    snapshot: PathBuf,
    /// Traced rounds: wall time, and cache counters at round end.
    traced_wall_ns: u64,
    cache: CacheStats,
    segments_end: usize,
}

fn is_subset(small: &[u32], big: &[u32]) -> bool {
    let mut it = big.iter();
    small.iter().all(|s| it.any(|b| b == s))
}

impl ServeMixed {
    pub fn generate(opts: &Opts, tmp: &Path) -> Self {
        let sizes = if opts.quick {
            Sizes { base_rows: 3_000, ops_per_client: 300, seal_rows: 24, pool: 64 }
        } else {
            Sizes {
                base_rows: BASE_ROWS,
                ops_per_client: OPS_PER_CLIENT,
                seal_rows: SEAL_ROWS,
                pool: POOL,
            }
        };
        let writes = sizes.ops_per_client / 10;
        let data = gen::corpus(sizes.base_rows + SHARDS * writes, opts.seed);
        let base = gen::slice(&data, 0, sizes.base_rows);

        let mut rng = Rng::new(opts.seed, 2);
        let pool = gen::queries(&base, sizes.base_rows, sizes.pool, &mut rng);
        // τ by popularity rank, cyclically: the mix of thresholds read
        // does not depend on the seed.
        let pool_tau: Vec<u32> = (0..sizes.pool).map(|k| TAUS[k % TAUS.len()]).collect();
        let zipf = Zipf::new(sizes.pool, ZIPF_S);

        // Fresh ids, dealt to the client whose shard they hash to.
        let mut fresh: Vec<Vec<u32>> = vec![Vec::new(); SHARDS];
        let mut id = sizes.base_rows as u32;
        while fresh.iter().any(|f| f.len() < writes) {
            let owner = &mut fresh[ShardedIndex::shard_of(id, SHARDS)];
            if owner.len() < writes {
                owner.push(id);
            }
            id += 1;
        }
        let mut next_row = sizes.base_rows as u32;
        let mut deleted = BTreeSet::new();
        let mut inserted = Vec::new();
        let streams: Vec<Vec<Op>> = (0..SHARDS)
            .map(|c| {
                let mut rng = Rng::new(opts.seed, 10 + c as u64);
                let mut kinds: Vec<u8> = (0..sizes.ops_per_client)
                    .map(|i| {
                        if i < writes {
                            1
                        } else if i < 2 * writes {
                            2
                        } else {
                            0
                        }
                    })
                    .collect();
                for i in (1..kinds.len()).rev() {
                    kinds.swap(i, rng.below(i as u64 + 1) as usize);
                }
                let mut fresh = fresh[c].iter();
                kinds
                    .into_iter()
                    .map(|kind| match kind {
                        0 => Op::Read(zipf.sample(&mut rng) as u32),
                        1 => {
                            let id = *fresh.next().expect("one fresh id per insert");
                            inserted.push((id, next_row));
                            next_row += 1;
                            Op::Insert(id, next_row - 1)
                        }
                        _ => loop {
                            let id = rng.below(sizes.base_rows as u64) as u32;
                            if ShardedIndex::shard_of(id, SHARDS) == c && deleted.insert(id) {
                                break Op::Delete(id);
                            }
                        },
                    })
                    .collect()
            })
            .collect();

        // Oracle: linear scans of the base corpus and of the inserted
        // rows, combined into the bounds a concurrent answer must
        // respect and the exact answer of the settled state.
        let (mut lower, mut upper, mut settled) = (Vec::new(), Vec::new(), Vec::new());
        for (k, &tau) in pool_tau.iter().enumerate() {
            let q = pool.row(k);
            let from_base = base.linear_scan(q, tau);
            let mut from_inserts: Vec<u32> = inserted
                .iter()
                .filter(|(_, row)| {
                    hamming_core::hamming_within(data.row(*row as usize), q, tau).is_some()
                })
                .map(|(id, _)| *id)
                .collect();
            from_inserts.sort_unstable();
            let survivors: Vec<u32> =
                from_base.iter().copied().filter(|id| !deleted.contains(id)).collect();
            // Inserted ids all exceed base ids, so concatenation sorts.
            upper.push([from_base.as_slice(), &from_inserts].concat());
            settled.push([survivors.as_slice(), &from_inserts].concat());
            lower.push(survivors);
        }

        let mut f = Fingerprint::default();
        f.dataset(&data);
        f.dataset(&pool);
        for op in streams.iter().flatten() {
            match *op {
                Op::Read(p) => f.word(p as u64),
                Op::Insert(id, row) => f.word(1 << 40 | (id as u64) << 20 | row as u64),
                Op::Delete(id) => f.word(2 << 40 | id as u64),
            }
        }
        let cfg = GphConfig::new(GphConfig::suggested_m(data.dim()), TAU_MAX);
        ServeMixed {
            live_at_end: sizes.base_rows - deleted.len() + inserted.len(),
            seals_per_round: SHARDS * (writes / sizes.seal_rows),
            sizes,
            data,
            base,
            pool,
            pool_tau,
            streams,
            lower,
            upper,
            settled,
            cfg,
            tmp: tmp.to_path_buf(),
            fingerprint: f.value(),
        }
    }

    fn segment_config(&self) -> SegmentConfig {
        SegmentConfig { seal_rows: self.sizes.seal_rows, ..SegmentConfig::default() }
    }

    fn service_config() -> ServiceConfig {
        ServiceConfig { workers: 1, ..ServiceConfig::default() }
    }

    /// One client's stream; returns its start, end, read latencies,
    /// reads (pool index, answer) and failures.
    fn client(
        &self,
        c: usize,
        service: &QueryService,
        start: &Barrier,
        mut rec: Option<&mut Recorder>,
    ) -> ClientLog {
        let ops = &self.streams[c];
        let mut log = ClientLog {
            started: Instant::now(),
            ended: Instant::now(),
            read_lat_ns: Vec::with_capacity(ops.len()),
            reads: Vec::with_capacity(ops.len()),
            failed: 0,
        };
        let mut inserts = 0;
        start.wait();
        log.started = Instant::now();
        for (i, op) in ops.iter().enumerate() {
            // Spans of the two clients share an op numbering by parity.
            let op_id = (i * SHARDS + c) as u32;
            let root = rec.as_deref_mut().map(|r| r.enter(op_id, "op"));
            match *op {
                Op::Read(p) => {
                    let span = rec.as_deref_mut().map(|r| r.enter(op_id, "QueryService::query"));
                    let t = Instant::now();
                    let resp = service.query(self.pool.row(p as usize), self.pool_tau[p as usize]);
                    log.read_lat_ns.push(t.elapsed().as_nanos() as u64);
                    if let (Some(r), Some(s)) = (rec.as_deref_mut(), span) {
                        r.exit(s);
                    }
                    match resp.outcome {
                        Outcome::Ids { ids, degraded_from: None, .. } => log.reads.push((p, ids)),
                        _ => log.failed += 1,
                    }
                }
                Op::Insert(id, row) => {
                    inserts += 1;
                    // Only this client writes to its shard and it deletes
                    // no memtable row, so the shard's memtable holds
                    // exactly its inserts since the last seal.
                    let name = if inserts % self.sizes.seal_rows == 0 {
                        "QueryService::insert+seal"
                    } else {
                        "QueryService::insert"
                    };
                    let span = rec.as_deref_mut().map(|r| r.enter(op_id, name));
                    let applied = matches!(
                        service.insert(id, self.data.row(row as usize)),
                        Ok(r) if r.outcome == MutationOutcome::Applied { replaced: false }
                    );
                    if let (Some(r), Some(s)) = (rec.as_deref_mut(), span) {
                        r.exit(s);
                    }
                    log.failed += u64::from(!applied);
                }
                Op::Delete(id) => {
                    let span = rec.as_deref_mut().map(|r| r.enter(op_id, "QueryService::delete"));
                    let outcome = service.delete(id).outcome;
                    if let (Some(r), Some(s)) = (rec.as_deref_mut(), span) {
                        r.exit(s);
                    }
                    log.failed += u64::from(outcome != MutationOutcome::Applied { replaced: true });
                }
            }
            if let (Some(r), Some(root)) = (rec.as_deref_mut(), root) {
                r.exit(root);
            }
        }
        log.ended = Instant::now();
        log
    }

    /// Answers that break the bounds, plus disagreements of the settled
    /// state with its exact answers.
    fn check(&self, logs: &[ClientLog], service: &QueryService) -> u64 {
        let mut failed = 0;
        for (p, ids) in logs.iter().flat_map(|l| &l.reads) {
            let (lower, upper) = (&self.lower[*p as usize], &self.upper[*p as usize]);
            failed += u64::from(!(is_subset(lower, ids) && is_subset(ids, upper)));
        }
        let step = (self.sizes.pool / QUIESCED_CHECKS).max(1);
        for p in (0..self.sizes.pool).step_by(step) {
            let resp = service.query(self.pool.row(p), self.pool_tau[p]);
            failed += u64::from(resp.ids() != Some(self.settled[p].as_slice()));
        }
        failed + u64::from(service.index().len() != self.live_at_end)
    }

    /// The snapshot's state, as every round starts.
    fn restore(&self, snapshot: &Path) -> Result<Arc<ShardedIndex>, String> {
        ShardedIndex::restore(snapshot).map(Arc::new).map_err(|e| e.to_string())
    }
}

struct ClientLog {
    started: Instant,
    ended: Instant,
    read_lat_ns: Vec<u64>,
    reads: Vec<(u32, Arc<Vec<u32>>)>,
    failed: u64,
}

impl Workload for ServeMixed {
    type System = System;

    fn name(&self) -> &'static str {
        "serve-mixed"
    }

    fn nominal_round_s(&self) -> f64 {
        3.0
    }

    fn ops_per_round(&self) -> u64 {
        (SHARDS * self.sizes.ops_per_client) as u64
    }

    fn clients(&self) -> usize {
        SHARDS
    }

    fn input_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn deterministic(&self) -> bool {
        // The two clients interleave freely; answers are checked against
        // bounds during the round and exactly once it has settled.
        false
    }

    fn notes(&self) -> Vec<String> {
        vec![
            format!(
                "{} base rows x {} bits over {SHARDS} shards, seal_rows = {}, service workers = 1, \
                 {SHARDS} clients x {} ops (80% reads / 10% inserts / 10% deletes)",
                self.sizes.base_rows,
                self.data.dim(),
                self.sizes.seal_rows,
                self.sizes.ops_per_client
            ),
            format!(
                "reads: Zipf(s = {ZIPF_S}) over a pool of {} queries; every round restores the \
                 snapshot taken after set-up, then seals {} times",
                self.sizes.pool, self.seals_per_round
            ),
        ]
    }

    /// Build, snapshot, restore, serve. The snapshot is the state every
    /// round restores, so the index that serves the first operation is a
    /// restored one, in set-up as in every round.
    fn setup(&self) -> Result<System, String> {
        let built =
            ShardedIndex::build_with_segments(&self.base, SHARDS, &self.cfg, self.segment_config())
                .map_err(|e| e.to_string())?;
        let snapshot = self.tmp.join("serve-mixed-snapshot");
        let _ = std::fs::remove_dir_all(&snapshot);
        built.snapshot(&snapshot).map_err(|e| e.to_string())?;
        let size_bytes = built.size_bytes();
        drop(built);
        let service = QueryService::new(self.restore(&snapshot)?, Self::service_config());
        Ok(System {
            size_bytes,
            service: Some(service),
            snapshot,
            traced_wall_ns: 0,
            cache: CacheStats::default(),
            segments_end: 0,
        })
    }

    fn teardown(&self, mut sys: System) {
        if let Some(service) = sys.service.take() {
            service.shutdown();
        }
        let _ = std::fs::remove_dir_all(&sys.snapshot);
    }

    fn mem_amp(&self, sys: &System) -> f64 {
        sys.size_bytes as f64 / self.base.size_bytes() as f64
    }

    fn round(&self, sys: &mut System, mode: Mode<'_>) -> Result<Round, String> {
        // Untimed: back to the starting state. Through files, because
        // `ShardedIndex` restores only from a directory; they were just
        // written and are read from the OS page cache.
        if let Some(service) = sys.service.take() {
            service.shutdown();
        }
        let service = QueryService::new(self.restore(&sys.snapshot)?, Self::service_config());

        let mut recs: Vec<Option<Recorder>> = match &mode {
            Mode::Traced(main) => {
                let epoch = main.epoch();
                (0..SHARDS)
                    .map(|_| Some(Recorder::new(epoch, self.sizes.ops_per_client * 2)))
                    .collect()
            }
            _ => (0..SHARDS).map(|_| None).collect(),
        };
        let start = Barrier::new(SHARDS);
        let cpu0 = process_cpu_ns()?;
        let logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = recs
                .iter_mut()
                .enumerate()
                .map(|(c, rec)| {
                    let (service, start) = (&service, &start);
                    scope.spawn(move || self.client(c, service, start, rec.as_mut()))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client threads do not panic")).collect()
        });
        let cpu_ns = process_cpu_ns()?.saturating_sub(cpu0);

        let started = logs.iter().map(|l| l.started).min().expect("two clients");
        let ended = logs.iter().map(|l| l.ended).max().expect("two clients");
        let mut round = Round {
            wall_ns: (ended - started).as_nanos() as u64,
            cpu_ns,
            ops: self.ops_per_round(),
            failed: logs.iter().map(|l| l.failed).sum(),
            read_lat_ns: logs.iter().flat_map(|l| l.read_lat_ns.iter().copied()).collect(),
            digest: 0,
        };
        round.failed += self.check(&logs, &service);
        let segments: usize = service.index().segment_counts().iter().sum();
        round.failed += u64::from(segments != SHARDS + self.seals_per_round);

        if let Mode::Traced(main) = mode {
            for rec in recs.into_iter().flatten() {
                main.append(rec);
            }
            sys.traced_wall_ns += round.wall_ns;
            sys.cache = service.cache_stats();
            sys.segments_end = segments;
        }
        sys.service = Some(service);
        Ok(round)
    }

    fn layers(
        &self,
        sys: &mut System,
        spans: &[Span],
        rounds: usize,
        out: &mut Layers,
    ) -> Result<(), String> {
        // From the traced rounds' spans and counters.
        let mut writes: Vec<f64> = Vec::new();
        let mut seals = Vec::new();
        let mut longest_read = 0;
        for s in spans {
            match s.name {
                "QueryService::query" => longest_read = longest_read.max(s.duration_ns()),
                "QueryService::insert" | "QueryService::delete" => {
                    writes.push(s.duration_ns() as f64 / 1e3)
                }
                "QueryService::insert+seal" => {
                    writes.push(s.duration_ns() as f64 / 1e3);
                    seals.push((s.start_ns, s.end_ns));
                }
                _ => {}
            }
        }
        out.set("segment.seals_per_round", seals.len() as f64 / rounds as f64);
        out.set("segment.segments_end", sys.segments_end as f64);
        out.set("serve.seal_share", spans::union_ns(seals) as f64 / sys.traced_wall_ns as f64);
        out.set("serve.write_lat_p50_us", stats::percentile(&writes, 50.0).unwrap_or(0.0));
        out.set("serve.write_lat_p99_us", stats::percentile(&writes, 99.0).unwrap_or(0.0));
        out.set("serve.read_stall_max_ms", longest_read as f64 / 1e6);
        out.set("serve.cache_hit_ratio", sys.cache.hit_rate());
        out.set(
            "serve.cache_invalidations_per_kop",
            sys.cache.invalidations as f64 * 1e3 / self.ops_per_round() as f64,
        );

        // Onion: one list of distinct queries (all cache misses) at
        // successive entry points over the same rows.
        if let Some(service) = sys.service.take() {
            service.shutdown();
        }
        let index = self.restore(&sys.snapshot)?;
        let service = QueryService::new(Arc::clone(&index), Self::service_config());
        let n = if self.sizes.base_rows < BASE_ROWS { 60 } else { 300 };
        let mut rng = Rng::new(self.fingerprint, 3);
        let probes = gen::queries(&self.base, self.sizes.base_rows, n, &mut rng);
        let tau = |i: usize| TAUS[i % TAUS.len()];
        let gph = Gph::build(self.base.clone(), &self.cfg).map_err(|e| e.to_string())?;
        let ids: Vec<u32> = (0..self.sizes.base_rows as u32).collect();
        let segmented = SegmentedGph::build_sealed(
            self.base.clone(),
            ids,
            self.cfg.clone(),
            self.segment_config(),
        )
        .map_err(|e| e.to_string())?;
        let l0 = p50_us(n, |i| {
            black_box(gph.search(probes.row(i), tau(i)));
        });
        let l1 = p50_us(n, |i| {
            black_box(segmented.search(probes.row(i), tau(i)));
        });
        let l2 = p50_us(n, |i| {
            black_box(service.index().search(probes.row(i), tau(i)));
        });
        let l3 = p50_us(n, |i| {
            black_box(service.query(probes.row(i), tau(i)));
        });
        out.set("gph.search_us", l0);
        out.set("segment.delta_us", l1 - l0);
        out.set("serve.shard_delta_us", l2 - l1);
        out.set("serve.service_delta_us", l3 - l2);
        drop((gph, segmented));

        // Admission pricing and the cost estimate under it.
        let admission = AdmissionController::new(AdmissionConfig::default());
        out.set(
            "serve.admission_eval_us",
            p50_us(n, |i| {
                black_box(admission.evaluate(service.index(), probes.row(i), tau(i)));
            }),
        );

        // Observability: each query once plain and once traced, through
        // a service without a result cache (so both reach the engine),
        // taking turns to go first; and a scrape.
        let uncached =
            QueryService::new(index, ServiceConfig { cache_capacity: 0, ..Self::service_config() });
        let (mut plain, mut traced) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for i in 0..n {
            let (q, tau_i) = (probes.row(i), tau(i));
            let time = |traced_call: bool| {
                let t = Instant::now();
                if traced_call {
                    black_box(uncached.query_traced(q, tau_i));
                } else {
                    black_box(uncached.query(q, tau_i));
                }
                t.elapsed().as_nanos() as f64
            };
            if i % 2 == 0 {
                plain.push(time(false));
                traced.push(time(true));
            } else {
                traced.push(time(true));
                plain.push(time(false));
            }
        }
        uncached.shutdown();
        let plain = stats::median(&plain).map_err(|e| e.to_string())?;
        let traced = stats::median(&traced).map_err(|e| e.to_string())?;
        out.set("obs.traced_overhead_pct", (traced - plain) / plain * 100.0);
        out.set(
            "obs.metrics_render_us",
            p50_us(50, |_| {
                black_box(service.metrics_text());
            }),
        );
        sys.service = Some(service);

        out.set("serve.cache_lookup_ns", cache_lookup_ns(&self.pool));
        self.segment_layers(out)
    }
}

impl ServeMixed {
    /// The LSM lifecycle on its own: insert into a memtable, scan it,
    /// seal it, compact two segments — each step timed directly on a
    /// `SegmentedGph` fed this workload's insert rows.
    fn segment_layers(&self, out: &mut Layers) -> Result<(), String> {
        let seal_rows = self.sizes.seal_rows;
        let fresh_rows = self.data.len() - self.sizes.base_rows;
        let row = |i: usize| self.data.row(self.sizes.base_rows + i % fresh_rows);
        let (mut insert_us, mut scan_us, mut seal_ms, mut compact_ms) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for _ in 0..2 {
            let mut engine =
                SegmentedGph::new(self.data.dim(), self.cfg.clone(), self.segment_config())
                    .map_err(|e| e.to_string())?;
            let mut next_id = 0u32;
            let mut insert = |engine: &mut SegmentedGph, n: usize| -> Result<f64, String> {
                let mut result = Ok(());
                let p50 = p50_us(n, |_| {
                    if let Err(e) = engine.insert(next_id, row(next_id as usize)) {
                        result = Err(e.to_string());
                    }
                    next_id += 1;
                });
                result.map(|()| p50)
            };
            // One short of the threshold: a memtable, no segment.
            insert_us.push(insert(&mut engine, seal_rows - 1)?);
            scan_us.push(p50_us(100, |i| {
                black_box(engine.search(self.pool.row(i % self.pool.len()), 8));
            }));
            let t = Instant::now();
            engine.seal().map_err(|e| e.to_string())?;
            seal_ms.push(t.elapsed().as_secs_f64() * 1e3);
            // A second segment (the last insert seals), then merge both.
            insert(&mut engine, seal_rows)?;
            if engine.num_sealed() != 2 {
                return Err(format!("expected 2 sealed segments, found {}", engine.num_sealed()));
            }
            let t = Instant::now();
            engine.compact().map_err(|e| e.to_string())?;
            compact_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let median = |v: &[f64]| stats::median(v).expect("two samples");
        out.set("segment.insert_us_p50", median(&insert_us));
        out.set("segment.memtable_scan_us", median(&scan_us));
        out.set("segment.seal_ms", median(&seal_ms));
        out.set("segment.compact_ms", median(&compact_ms));
        Ok(())
    }
}
