//! `cold-restart`: build → snapshot (fsynced) → file-backed warm start
//! with a page-cache budget of a tenth of the snapshot, then one client
//! calling `QueryService::query` with queries spread uniformly over the
//! corpus. The only working set larger than the program's own cache: it
//! runs the *second* copy of the pipeline (`ColdSegment`), `PageCache`
//! and footer parsing, and its `setup_s` is the restart an operator
//! pays. The result cache is off, or a repeated round would never
//! reach the page cache.
//!
//! Snapshot files were just written, so "disk" reads are served from
//! the operating system's page cache: latency here is the sandbox's,
//! not a device's.

use crate::gen::{self, Fingerprint, Rng, TAU_MAX};
use crate::harness::{
    mismatches_against_scan, p50_us, read_round, Answer, Ids, Layers, Mode, Opts, ReadOp, Round,
    Workload,
};
use crate::spans::Span;
use gph::coldstore::{PageCacheStats, StorageMode};
use gph::engine::GphConfig;
use gph_serve::{Outcome, QueryService, ServiceConfig, ShardedIndex};
use hamming_core::Dataset;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 2;
const ROWS: usize = 200_000;
/// Reads per round: a cold read pages postings and rows through the
/// cache and costs about 1.5 ms, so this is a round of 1.5 s.
const READS: usize = 1_000;
/// Thresholds drawn uniformly. τ = 16 is left out: cold, such a read
/// takes ~10 ms and a round would be four seconds of them. With three
/// equal classes the median read is a τ = 8 read.
const COLD_TAUS: [u32; 3] = [4, 8, 12];
/// The page cache holds this share of the snapshot's bytes.
const BUDGET_SHARE: u64 = 10;
const VERIFY_EVERY: usize = 8;

pub struct ColdRestart {
    data: Dataset,
    queries: Dataset,
    ops: Vec<ReadOp>,
    cfg: GphConfig,
    tmp: PathBuf,
    fingerprint: u64,
}

pub struct System {
    service: QueryService,
    snapshot: PathBuf,
    snapshot_bytes: u64,
    budget_bytes: u64,
    /// Set-up split: snapshot + fsync, and the file-backed warm start.
    snapshot_s: f64,
    restore_s: f64,
    /// Page-cache counter deltas over the traced rounds.
    paged: PageCacheStats,
    traced_ops: u64,
}

/// Flushes every file of `dir`, then `dir` itself, and returns the
/// files' total size: what a restart after power loss would find.
fn fsync_dir(dir: &Path) -> std::io::Result<u64> {
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir)? {
        let file = std::fs::File::open(entry?.path())?;
        file.sync_all()?;
        bytes += file.metadata()?.len();
    }
    std::fs::File::open(dir)?.sync_all()?;
    Ok(bytes)
}

fn service_config(storage: StorageMode) -> ServiceConfig {
    ServiceConfig { workers: 1, cache_capacity: 0, storage, ..ServiceConfig::default() }
}

fn query(service: &QueryService, q: &[u64], tau: u32) -> Result<Answer, String> {
    match service.query(q, tau).outcome {
        Outcome::Ids { ids, degraded_from: None, .. } => {
            Ok(Answer { ids: Ids::Shared(ids), phases: None })
        }
        other => Err(format!("{other:?}")),
    }
}

impl ColdRestart {
    pub fn generate(opts: &Opts, tmp: &Path) -> Self {
        let (rows, reads) = if opts.quick { (3_000, 100) } else { (ROWS, READS) };
        let data = gen::corpus(rows, opts.seed);
        let mut rng = Rng::new(opts.seed, 6);
        let queries = gen::queries(&data, rows, reads, &mut rng);
        let ops: Vec<ReadOp> =
            (0..reads as u32).map(|query| ReadOp { query, tau: rng.pick(&COLD_TAUS) }).collect();
        let mut f = Fingerprint::default();
        f.dataset(&data);
        f.dataset(&queries);
        ops.iter().for_each(|op| f.word(op.tau as u64));
        let cfg = GphConfig::new(GphConfig::suggested_m(data.dim()), TAU_MAX);
        ColdRestart { data, queries, ops, cfg, tmp: tmp.to_path_buf(), fingerprint: f.value() }
    }
}

impl Workload for ColdRestart {
    type System = System;

    fn name(&self) -> &'static str {
        "cold-restart"
    }

    fn nominal_round_s(&self) -> f64 {
        1.5
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
        vec![
            format!(
                "{} rows x {} bits over {SHARDS} shards, file-backed, page cache = 1/{BUDGET_SHARE} \
                 of the snapshot, result cache off, service workers = 1; {} reads per round, tau \
                 in {COLD_TAUS:?}",
                self.data.len(),
                self.data.dim(),
                self.ops.len()
            ),
            "snapshot files are read back from the OS page cache: latency is the sandbox's, not \
             a device's"
                .to_string(),
        ]
    }

    fn setup(&self) -> Result<System, String> {
        let snapshot = self.tmp.join("cold-restart-snapshot");
        let _ = std::fs::remove_dir_all(&snapshot);
        let built =
            ShardedIndex::build(&self.data, SHARDS, &self.cfg).map_err(|e| e.to_string())?;
        let t = Instant::now();
        built.snapshot(&snapshot).map_err(|e| e.to_string())?;
        let snapshot_bytes = fsync_dir(&snapshot).map_err(|e| e.to_string())?;
        let snapshot_s = t.elapsed().as_secs_f64();
        drop(built);
        let budget_bytes = snapshot_bytes / BUDGET_SHARE;
        let t = Instant::now();
        let service = QueryService::warm_start(
            &snapshot,
            service_config(StorageMode::FileBacked { budget_bytes }),
        )
        .map_err(|e| e.to_string())?;
        let restore_s = t.elapsed().as_secs_f64();
        Ok(System {
            service,
            snapshot,
            snapshot_bytes,
            budget_bytes,
            snapshot_s,
            restore_s,
            paged: PageCacheStats::default(),
            traced_ops: 0,
        })
    }

    fn teardown(&self, sys: System) {
        sys.service.shutdown();
        let _ = std::fs::remove_dir_all(&sys.snapshot);
    }

    fn mem_amp(&self, sys: &System) -> f64 {
        (sys.service.index().size_bytes() as u64 + sys.budget_bytes) as f64
            / self.data.size_bytes() as f64
    }

    fn round(&self, sys: &mut System, mode: Mode<'_>) -> Result<Round, String> {
        let (rec, keep) = match mode {
            Mode::Plain => (None, None),
            Mode::Verify => (None, Some(VERIFY_EVERY)),
            Mode::Traced(rec) => (Some(rec), None),
        };
        let traced = rec.is_some();
        let paged = |sys: &System| {
            sys.service.index().page_cache_stats().ok_or("a file-backed index has a page cache")
        };
        let before = paged(sys)?;
        let service = &sys.service;
        let (mut round, kept) =
            read_round(&self.ops, &self.queries, "QueryService::query", rec, keep, |q, tau| {
                query(service, q, tau)
            })?;
        round.failed += mismatches_against_scan(&self.data, &self.ops, &self.queries, &kept);
        let after = paged(sys)?;
        round.failed += u64::from(after.resident_bytes > sys.budget_bytes);
        if traced {
            sys.paged.hits += after.hits - before.hits;
            sys.paged.misses += after.misses - before.misses;
            sys.paged.evictions += after.evictions - before.evictions;
            sys.paged.resident_bytes = after.resident_bytes;
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
        let p = sys.paged;
        out.set("coldstore.hits_per_op", p.hits as f64 / ops);
        out.set("coldstore.misses_per_op", p.misses as f64 / ops);
        out.set("coldstore.evictions_per_op", p.evictions as f64 / ops);
        out.set("coldstore.hit_ratio", p.hits as f64 / ((p.hits + p.misses) as f64).max(1.0));
        out.set("coldstore.resident_bytes", p.resident_bytes as f64);
        out.set("coldstore.restore_ms", sys.restore_s * 1e3);
        out.set("snapshot.write_ms", sys.snapshot_s * 1e3);
        out.set("snapshot.bytes_per_row", sys.snapshot_bytes as f64 / self.data.len() as f64);

        // The same snapshot, resident: what paging costs.
        let n = self.ops.len().min(300);
        let op = |i: usize| (self.queries.row(self.ops[i].query as usize), self.ops[i].tau);
        let twin = ShardedIndex::restore(&sys.snapshot).map_err(|e| e.to_string())?;
        let twin = QueryService::new(Arc::new(twin), service_config(StorageMode::Resident));
        let p50_of = |service: &QueryService| {
            p50_us(n, |i| {
                let (q, tau) = op(i);
                black_box(service.query(q, tau));
            })
        };
        let resident = p50_of(&twin);
        twin.shutdown();
        out.set("coldstore.cold_over_resident", p50_of(&sys.service) / resident);
        Ok(())
    }
}
