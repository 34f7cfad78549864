//! `gph-store` — build, persist, and warm-start GPH indexes.
//!
//! The build-once / reload-many lifecycle of the snapshot subsystem:
//!
//! ```text
//! gph-store generate --profile gist --rows 20000 --out data.hamd [--seed s]
//! gph-store binarize --fvecs feats.fvecs --bits 128 --out data.hamd [--seed s]
//! gph-store build --profile sift --rows 20000 --shards 4 --tau-max 16 --out snap/
//! gph-store build --data data.hamd --shards 4 --tau-max 16 --out snap/
//! gph-store info  --index snap/
//! gph-store query --index snap/ --queries q.hamd --tau 8 [--topk k] [--trace]
//! gph-store query --connect 127.0.0.1:7471 --tau 8 [--sample n] [--topk k] [--trace]
//! gph-store serve --index snap/ --queries 2000 --tau 8 [--workers w]
//! gph-store serve --index snap/ --listen 127.0.0.1:7471 [--duration secs]
//! gph-store serve --index snap/ --queries 2000 --tau 8 --memory-budget 64m
//! ```
//!
//! `serve --memory-budget` serves the snapshot **out-of-core**: sealed
//! segments stay on disk and are paged through a cache capped at the
//! given budget, so a corpus much larger than RAM still serves exact
//! results (see `FORMAT.md` for the on-disk layout that makes the lazy
//! mapping possible). `generate` and `binarize` write the `HAMD` dataset
//! files (`hamming_core::io`) that `build --data` and `query --queries`
//! read: a synthetic profile, or `.fvecs` float features hashed with
//! random hyperplanes.
//!
//! ```text
//! gph-store stats --connect 127.0.0.1:7471
//! gph-store metrics --connect 127.0.0.1:7471
//! gph-store add   --index snap/ --id 42 --bits 0101... [--upsert]
//! gph-store del   --index snap/ --id 42
//! ```
//!
//! Fleet serving splits one corpus across node processes behind a
//! manifest server (see README § Fleet serving for the full walkthrough):
//!
//! ```text
//! gph-store build --profile sift --rows 20000 --out node0/ \
//!                 --fleet-slots 6 --owned 0,2,4
//! gph-store metastore --listen 127.0.0.1:7400
//! gph-store publish --metastore 127.0.0.1:7400 --version 1 --fleet-slots 6 \
//!                   --nodes "0,2,4@127.0.0.1:7471;1,3,5@127.0.0.1:7472"
//! gph-store manifest --metastore 127.0.0.1:7400
//! gph-store query --metastore 127.0.0.1:7400 --tau 8 --sample 5 [--topk k] [--trace]
//! gph-store metrics --metastore 127.0.0.1:7400
//! gph-store fleettop --metastore 127.0.0.1:7400 [--interval secs]
//! ```
//!
//! `build --fleet-slots/--owned` keeps only the rows whose fleet slot
//! (the same stable id-hash `FleetClient` routes by) is in the owned
//! set, under their **global** ids — so disjoint per-node snapshots
//! reassemble into exactly the single-index answer. `publish` versions
//! the shard→node map; `query --metastore` scatter-gathers across the
//! fleet with the exact top-k merge. `query --metastore --trace` merges
//! every node's hop trace into one distributed view (engine time vs
//! network + queue time per hop, straggler marked); `metrics
//! --metastore` reads the manifest, then scrapes and merges the
//! exposition of every address in it itself (unreachable nodes report
//! as stale); `fleettop` prints a one-shot per-node health summary from
//! two such scrapes.
//!
//! `build` runs the expensive offline phase (partition optimization,
//! index + estimator construction, one engine per shard) and snapshots
//! the fleet; every other command restores from the snapshot and never
//! re-optimizes. `add` and `del` mutate the restored fleet through the
//! segmented live-update path (memtable append / tombstone flip — at
//! most one segment build when a seal triggers) and re-snapshot in
//! place. `serve --listen` exposes the warm-started service over TCP
//! (the `GPHN` protocol); `query --connect`, `stats --connect`, and
//! `metrics --connect` talk to such a server from any machine. `query
//! --trace` prints a per-shard, per-segment phase breakdown of each
//! query; `metrics` prints the server's Prometheus text exposition.

use gph_suite::datagen::{binarize, Profile};
use gph_suite::gph::coldstore::StorageMode;
use gph_suite::gph::engine::GphConfig;
use gph_suite::hamming_core::io;
use gph_suite::hamming_core::Dataset;
use gph_suite::net::{
    FleetClient, FleetConfig, FleetManifest, FleetNode, GphClient, MetastoreServer, NetServer,
    ServerConfig,
};
use gph_suite::serve::{read_manifest, QueryService, ServiceConfig, ShardedIndex};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        usage();
        return ExitCode::FAILURE;
    };
    let mut opts: HashMap<String, String> = HashMap::new();
    let mut key: Option<String> = None;
    for a in args {
        if let Some(stripped) = a.strip_prefix("--") {
            if let Some(k) = key.take() {
                opts.insert(k, "true".into()); // boolean flag
            }
            key = Some(stripped.to_string());
        } else if let Some(k) = key.take() {
            opts.insert(k, a);
        } else {
            eprintln!("unexpected argument: {a}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(k) = key.take() {
        opts.insert(k, "true".into());
    }
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&opts),
        "binarize" => cmd_binarize(&opts),
        "build" => cmd_build(&opts),
        "info" => cmd_info(&opts),
        "query" => cmd_query(&opts),
        "serve" => cmd_serve(&opts),
        "stats" => cmd_stats(&opts),
        "metrics" => cmd_metrics(&opts),
        "add" => cmd_add(&opts),
        "del" => cmd_del(&opts),
        "metastore" => cmd_metastore(&opts),
        "fleettop" => cmd_fleettop(&opts),
        "publish" => cmd_publish(&opts),
        "manifest" => cmd_manifest(&opts),
        "--help" | "-h" | "help" => {
            usage();
            Ok(())
        }
        other => Err(format!("unknown command: {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "gph-store <command> [--opt value]...\n\
         commands:\n\
         \x20 generate --profile <name> --rows <n> --out <file.hamd> [--seed s]\n\
         \x20 binarize --fvecs <file.fvecs> --bits <n> --out <file.hamd> [--seed s]\n\
         \x20 build --out <dir> (--data <file.hamd> | --profile <name> --rows <n>)\n\
         \x20       [--shards s] [--m m] [--tau-max t] [--seed s]\n\
         \x20       [--fleet-slots n --owned <slot,slot,...>]\n\
         \x20 info  --index <dir>\n\
         \x20 query (--index <dir> | --connect <addr> | --metastore <addr>) --tau <t>\n\
         \x20       [--queries <file.hamd> | --sample n] [--topk k] [--trace]\n\
         \x20 serve --index <dir> --queries <n> --tau <t> [--workers w] [--batch b]\n\
         \x20       [--memory-budget <bytes|Nk|Nm|Ng>]\n\
         \x20 serve --index <dir> --listen <addr> [--workers w] [--duration secs]\n\
         \x20       [--memory-budget <bytes|Nk|Nm|Ng>]\n\
         \x20 stats --connect <addr>\n\
         \x20 metrics (--connect <addr> | --metastore <addr>)\n\
         \x20 fleettop --metastore <addr> [--interval secs]\n\
         \x20 add   --index <dir> --id <n> (--bits <01...> | --random-seed <s>)\n\
         \x20       [--upsert]\n\
         \x20 del   --index <dir> --id <n>\n\
         \x20 metastore --listen <addr> [--duration secs]\n\
         \x20 publish --metastore <addr> --version <v> --fleet-slots <n>\n\
         \x20       --nodes \"slots@addr[|replica...][;slots@addr...]\"\n\
         \x20 manifest --metastore <addr>\n\
         profiles: sift gist pubchem fasttext uqvideo uniform<d> gamma<g>"
    );
}

/// Rejects flags the command does not understand — a typo like
/// `--taumax` must fail loudly, not silently fall back to a default.
fn check_flags(opts: &HashMap<String, String>, allowed: &[&str]) -> Result<(), String> {
    for k in opts.keys() {
        if !allowed.contains(&k.as_str()) {
            return Err(format!(
                "unknown flag --{k} (this command accepts: {})",
                allowed.iter().map(|f| format!("--{f}")).collect::<Vec<_>>().join(" ")
            ));
        }
    }
    Ok(())
}

fn need<'a>(opts: &'a HashMap<String, String>, k: &str) -> Result<&'a str, String> {
    opts.get(k).map(|s| s.as_str()).ok_or_else(|| format!("missing --{k}"))
}

fn parse<T: std::str::FromStr>(opts: &HashMap<String, String>, k: &str) -> Result<T, String> {
    need(opts, k)?.parse().map_err(|_| format!("--{k} is not a valid value"))
}

fn parse_or<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    k: &str,
    default: T,
) -> Result<T, String> {
    match opts.get(k) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{k} is not a valid value")),
    }
}

/// The synthetic corpus `--profile <name> --rows <n> [--seed s]` names
/// (`generate` writes it to a file, `build` indexes it directly).
fn profile_dataset(opts: &HashMap<String, String>) -> Result<Dataset, String> {
    let name = need(opts, "profile")?;
    let profile = Profile::by_name(name).ok_or_else(|| format!("unknown profile {name}"))?;
    let rows: usize = parse(opts, "rows")?;
    let seed: u64 = parse_or(opts, "seed", 42)?;
    Ok(profile.generate(rows, seed))
}

/// `generate`: write a synthetic profile as a `HAMD` dataset file.
fn cmd_generate(opts: &HashMap<String, String>) -> Result<(), String> {
    check_flags(opts, &["profile", "rows", "seed", "out"])?;
    let out = need(opts, "out")?;
    let ds = profile_dataset(opts)?;
    io::write_dataset(&ds, out).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {} x {} dims to {out}", ds.len(), ds.dim());
    Ok(())
}

/// `binarize`: hash `.fvecs` float features to `--bits` binary codes with
/// random hyperplanes and write them as a `HAMD` dataset file.
fn cmd_binarize(opts: &HashMap<String, String>) -> Result<(), String> {
    check_flags(opts, &["fvecs", "bits", "seed", "out"])?;
    let fvecs = need(opts, "fvecs")?;
    let bits: usize = parse(opts, "bits")?;
    let seed: u64 = parse_or(opts, "seed", 7)?;
    let out = need(opts, "out")?;
    let x = binarize::read_fvecs(fvecs).map_err(|e| format!("reading {fvecs}: {e}"))?;
    let ds = binarize::RandomHyperplanes::new(x.dim, bits, seed).encode_all(&x);
    io::write_dataset(&ds, out).map_err(|e| format!("writing {out}: {e}"))?;
    println!("binarized {} x {}d floats into {} x {bits} bits -> {out}", x.len(), x.dim, ds.len());
    Ok(())
}

fn cmd_build(opts: &HashMap<String, String>) -> Result<(), String> {
    check_flags(
        opts,
        &[
            "out",
            "data",
            "profile",
            "rows",
            "seed",
            "shards",
            "m",
            "tau-max",
            "fleet-slots",
            "owned",
        ],
    )?;
    let out = need(opts, "out")?;
    let ds: Dataset = if let Some(path) = opts.get("data") {
        io::read_dataset(path).map_err(|e| format!("reading {path}: {e}"))?
    } else if opts.contains_key("profile") {
        profile_dataset(opts)?
    } else {
        return Err("need --data or --profile/--rows".into());
    };
    let shards: usize = parse_or(opts, "shards", 1)?;
    let m: usize = parse_or(opts, "m", GphConfig::suggested_m(ds.dim()))?;
    let tau_max: usize = parse_or(opts, "tau-max", 16)?;
    let cfg = GphConfig::new(m, tau_max);
    let t0 = Instant::now();
    let index = match (opts.get("fleet-slots"), opts.get("owned")) {
        (None, None) => ShardedIndex::build(&ds, shards, &cfg).map_err(|e| e.to_string())?,
        (Some(_), Some(owned)) => {
            // Fleet-node snapshot: keep only the rows whose fleet slot
            // (the id-hash FleetClient routes by) is owned, under their
            // global ids, so disjoint nodes reassemble the full corpus.
            let fleet_slots: u32 = parse(opts, "fleet-slots")?;
            if fleet_slots == 0 {
                return Err("--fleet-slots must be positive".into());
            }
            let owned = parse_slots(owned, fleet_slots)?;
            let index = ShardedIndex::build(&Dataset::new(ds.dim()), shards, &cfg)
                .map_err(|e| e.to_string())?;
            let mut kept = 0usize;
            for id in 0..ds.len() as u32 {
                let slot = ShardedIndex::shard_of(id, fleet_slots as usize) as u32;
                if owned.contains(&slot) {
                    index.insert(id, ds.row(id as usize)).map_err(|e| e.to_string())?;
                    kept += 1;
                }
            }
            eprintln!(
                "fleet mode: kept {kept} of {} rows (slots {:?} of {fleet_slots})",
                ds.len(),
                owned
            );
            index
        }
        _ => return Err("--fleet-slots and --owned must be given together".into()),
    };
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let manifest = index.snapshot(out).map_err(|e| e.to_string())?;
    println!(
        "built {} rows x {} dims over {} shard(s) in {build_s:.1}s \
         ({:.1} MB in memory), snapshotted to {out} in {:.2}s",
        index.len(),
        index.dim(),
        manifest.shards.len(),
        index.size_bytes() as f64 / 1e6,
        t1.elapsed().as_secs_f64(),
    );
    Ok(())
}

fn cmd_info(opts: &HashMap<String, String>) -> Result<(), String> {
    check_flags(opts, &["index"])?;
    let dir = need(opts, "index")?;
    let m = read_manifest(dir).map_err(|e| e.to_string())?;
    println!("snapshot:  {dir}");
    println!("records:   {}", m.len);
    println!("dims:      {}", m.dim);
    println!("tau_max:   {}", m.tau_max);
    println!("shards:    {} requested, {} non-empty", m.n_shards, m.shards.len());
    for e in &m.shards {
        println!(
            "  slot {:>3}: {:>8} rows  {}  crc32 {:08x}",
            e.slot,
            e.rows,
            e.file_name(),
            e.crc
        );
    }
    Ok(())
}

fn restore(opts: &HashMap<String, String>) -> Result<ShardedIndex, String> {
    let dir = need(opts, "index")?;
    let t0 = Instant::now();
    let index = ShardedIndex::restore(dir).map_err(|e| e.to_string())?;
    eprintln!(
        "restored {} rows over {} shard(s) in {:.2}s (no re-optimization)",
        index.len(),
        index.num_shards(),
        t0.elapsed().as_secs_f64()
    );
    Ok(index)
}

/// `query`: one loop over the queries, whichever target the flags name
/// — a restored snapshot (`--index`), one server (`--connect`) or a
/// fleet (`--metastore`) — printing each range or top-k answer, and
/// with `--trace` each range query's trace.
fn cmd_query(opts: &HashMap<String, String>) -> Result<(), String> {
    check_flags(
        opts,
        &["index", "connect", "metastore", "tau", "queries", "sample", "topk", "trace"],
    )?;
    let (target, dim, tau_max) = Target::open(opts)?;
    let (whose, kind) = target.names();
    let tau: u32 = parse(opts, "tau")?;
    if tau > tau_max {
        return Err(format!("--tau {tau} exceeds the {whose} tau_max {tau_max}"));
    }
    let queries = load_queries(opts, dim)?;
    let topk: usize = parse_or(opts, "topk", 0)?;
    let trace = opts.contains_key("trace");
    if trace && topk > 0 {
        return Err("--trace applies to range queries, not --topk".into());
    }
    let degraded_note = |degraded: bool| if degraded { "  (degraded)" } else { "" };
    let t0 = Instant::now();
    let mut total = 0usize;
    for qi in 0..queries.len() {
        if topk > 0 {
            let (hits, degraded) = target.topk(queries.row(qi), topk)?;
            total += hits.len();
            let shown = &hits[..hits.len().min(8)];
            println!("query {qi}: top-{topk} {shown:?}{}", degraded_note(degraded));
            continue;
        }
        let (ids, degraded, traced) = target.range(queries.row(qi), tau, trace)?;
        total += ids.len();
        let shown = &ids[..ids.len().min(16)];
        println!("query {qi}: {} results {shown:?}{}", ids.len(), degraded_note(degraded));
        match traced {
            None => {}
            Some(Trace::Query(Some(qt))) => print_trace(&qt),
            Some(Trace::Query(None)) => println!("  (server sent no trace)"),
            Some(Trace::Fleet(ft)) => print_fleet_trace(&ft),
        }
    }
    eprintln!(
        "{} {kind}queries, {total} results in {:.1} ms",
        queries.len(),
        t0.elapsed().as_secs_f64() * 1e3
    );
    Ok(())
}

/// Where `query` sends its queries.
enum Target {
    /// A snapshot restored in this process.
    Index(ShardedIndex),
    /// One server, over the wire.
    Server(GphClient),
    /// A fleet: scatter-gather over the manifest's nodes with the exact
    /// merge.
    Fleet(FleetClient),
}

/// A traced range query's trace, as its target sent it.
enum Trace {
    /// One index's trace; a server may elide it.
    Query(Option<gph_suite::obs::QueryTrace>),
    /// Every hop's trace, merged.
    Fleet(gph_suite::obs::FleetTrace),
}

impl Target {
    /// The target the flags name, with its rows' dimensionality and its
    /// `tau_max`.
    fn open(opts: &HashMap<String, String>) -> Result<(Target, usize, u32), String> {
        if let Some(addr) = opts.get("metastore") {
            if opts.contains_key("index") || opts.contains_key("connect") {
                return Err("--metastore excludes --index and --connect".into());
            }
            let fleet = connect_fleet(addr)?;
            let manifest = fleet.manifest();
            // Index shape comes from whichever address answers first
            // (the manifest only maps slots); the sweep also demotes
            // dead replicas before the first query has to find them.
            let remote =
                fleet.refresh_health().into_iter().find_map(|a| a.health).ok_or_else(|| {
                    format!("no address in manifest v{} answered Health", manifest.version)
                })?;
            eprintln!(
                "fleet manifest v{}: {} slot(s) over {} node group(s), {} dims",
                manifest.version,
                manifest.n_shards,
                manifest.nodes.len(),
                remote.dim
            );
            return Ok((Target::Fleet(fleet), remote.dim as usize, remote.tau_max));
        }
        if let Some(addr) = opts.get("connect") {
            if opts.contains_key("index") {
                return Err("--connect and --index are mutually exclusive".into());
            }
            let client =
                GphClient::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
            let remote = client.health().map_err(|e| format!("querying {addr} health: {e}"))?;
            eprintln!(
                "connected to {addr}: {} rows x {} dims, tau_max {}",
                remote.rows, remote.dim, remote.tau_max
            );
            return Ok((Target::Server(client), remote.dim as usize, remote.tau_max));
        }
        let index = restore(opts)?;
        let (dim, tau_max) = (index.dim(), index.tau_max() as u32);
        Ok((Target::Index(index), dim, tau_max))
    }

    /// Whose `tau_max` a too-large `--tau` exceeds, and the word the
    /// closing summary puts before "queries".
    fn names(&self) -> (&'static str, &'static str) {
        match self {
            Target::Index(_) => ("snapshot's", ""),
            Target::Server(_) => ("server's", "remote "),
            Target::Fleet(_) => ("fleet's", "fleet "),
        }
    }

    /// The `k` nearest hits, and whether the fleet degraded them.
    fn topk(&self, query: &[u64], k: usize) -> Result<(Vec<(u32, u32)>, bool), String> {
        Ok(match self {
            Target::Index(index) => (index.search_topk(query, k), false),
            Target::Server(client) => {
                (client.topk(query, k).map_err(|e| e.to_string())?.hits, false)
            }
            Target::Fleet(fleet) => {
                let res = fleet.topk(query, k).map_err(|e| e.to_string())?;
                (res.hits, res.degraded)
            }
        })
    }

    /// The ids within `tau`, whether the fleet degraded them, and, when
    /// `traced`, the query's trace.
    fn range(
        &self,
        query: &[u64],
        tau: u32,
        traced: bool,
    ) -> Result<(Vec<u32>, bool, Option<Trace>), String> {
        let err = |e: gph_suite::net::NetError| e.to_string();
        Ok(match (self, traced) {
            (Target::Index(index), false) => (index.search(query, tau), false, None),
            (Target::Index(index), true) => {
                let (res, qt) = index.search_traced(query, tau);
                (res.ids, false, Some(Trace::Query(Some(qt))))
            }
            (Target::Server(client), false) => {
                (client.search(query, tau).map_err(err)?.ids, false, None)
            }
            (Target::Server(client), true) => {
                let res = client.search_traced(query, tau).map_err(err)?;
                (res.result.ids, false, Some(Trace::Query(res.trace)))
            }
            (Target::Fleet(fleet), false) => {
                let res = fleet.search(query, tau).map_err(err)?;
                (res.ids, res.degraded, None)
            }
            (Target::Fleet(fleet), true) => {
                let res = fleet.search_traced(query, tau).map_err(err)?;
                (res.ids, res.degraded, Some(Trace::Fleet(res.trace)))
            }
        })
    }
}

/// Loads `--queries <file>` or samples `--sample n` uniform vectors at
/// the index's dimensionality.
fn load_queries(opts: &HashMap<String, String>, dim: usize) -> Result<Dataset, String> {
    let queries: Dataset = if let Some(path) = opts.get("queries") {
        io::read_dataset(path).map_err(|e| format!("reading {path}: {e}"))?
    } else {
        let n: usize = parse_or(opts, "sample", 10)?;
        Profile::uniform(dim).generate(n, 0x5EED)
    };
    if queries.dim() != dim {
        return Err(format!("query dim {} != index dim {dim}", queries.dim()));
    }
    Ok(queries)
}

/// `stats --connect`: one `Health` op (what the server is) plus one
/// `Metrics` op (what it has counted), printed as a dashboard row.
fn cmd_stats(opts: &HashMap<String, String>) -> Result<(), String> {
    check_flags(opts, &["connect"])?;
    let addr = need(opts, "connect")?;
    let client = GphClient::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let health = client.health().map_err(|e| e.to_string())?;
    let exp = gph_suite::obs::Exposition::parse(&client.metrics().map_err(|e| e.to_string())?);
    let val = |series: &str| exp.value(series).unwrap_or(0.0);
    let per = |total: f64, n: f64| if n > 0.0 { total / n } else { 0.0 };
    let ms = |series: &str| val(series) / 1e6;
    let executed = val("gph_executed_total");
    println!("server:     {addr}");
    println!(
        "index:      {} rows x {} dims, {:.0} shard(s), tau_max {}",
        health.rows,
        health.dim,
        val("gph_index_shards"),
        health.tau_max
    );
    println!(
        "responses:  {:.0} ({executed:.0} executed, {:.0} batches)",
        val("gph_responses_total"),
        val("gph_batches_total")
    );
    println!(
        "latency:    p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  mean {:.3} ms",
        ms("gph_latency_ns{quantile=\"0.5\"}"),
        ms("gph_latency_ns{quantile=\"0.95\"}"),
        ms("gph_latency_ns{quantile=\"0.99\"}"),
        per(val("gph_latency_ns_sum"), val("gph_latency_ns_count")) / 1e6,
    );
    println!(
        "mutations:  {:.0} applied, {:.0} shed on full queue",
        val("gph_mutations_total"),
        val("gph_queue_rejections_total")
    );
    let (hits, misses) = (val("gph_cache_hits"), val("gph_cache_misses"));
    println!(
        "cache:      {hits:.0} hits / {misses:.0} misses ({:.0}% hit rate), {:.0} entries dropped \
         by writes, {:.0}/{:.0} resident",
        per(hits, hits + misses) * 100.0,
        val("gph_cache_invalidations"),
        val("gph_cache_len"),
        val("gph_cache_capacity")
    );
    println!(
        "work:       {:.0} candidates, {:.0} scanned, {:.1} results per query",
        per(val("gph_candidates_total"), executed),
        per(val("gph_scanned_total"), executed),
        per(val("gph_results_total"), executed)
    );
    println!(
        "admission:  {:.0} admitted, {:.0} degraded, {:.0} rejected",
        val("gph_admission_admitted"),
        val("gph_admission_degraded"),
        val("gph_admission_rejected")
    );
    let (pc_hits, pc_misses) = (val("gph_pagecache_hits"), val("gph_pagecache_misses"));
    if pc_hits + pc_misses > 0.0 {
        println!(
            "pagecache:  {pc_hits:.0} hits / {pc_misses:.0} misses ({:.0}% hit rate), \
             {:.0} evictions, {:.1} MB resident",
            pc_hits / (pc_hits + pc_misses) * 100.0,
            val("gph_pagecache_evictions"),
            val("gph_pagecache_resident_bytes") / 1e6,
        );
    } else {
        println!("pagecache:  inactive (fully resident)");
    }
    println!(
        "tracing:    {:.0} sampled, {:.0} slow (ring-retained)",
        val("gph_trace_sampled_total"),
        val("gph_trace_slow_total"),
    );
    Ok(())
}

/// `metrics --connect`: one `Metrics` op; prints the server's Prometheus
/// text exposition verbatim (pipe it into a scrape file or `promtool`).
/// `metrics --metastore`: fetches the manifest, scrapes every address
/// in it (replicas included) through [`FleetClient::metrics`], prints
/// the merged exposition, and reports unreachable nodes as stale
/// (listed on stderr, with a one-line summary) instead of failing.
fn cmd_metrics(opts: &HashMap<String, String>) -> Result<(), String> {
    check_flags(opts, &["connect", "metastore"])?;
    if let Some(addr) = opts.get("metastore") {
        if opts.contains_key("connect") {
            return Err("--metastore excludes --connect".into());
        }
        let fleet = connect_fleet(addr)?.metrics();
        for node in &fleet.nodes {
            match &node.error {
                None => eprintln!("node {}: fresh", node.node),
                Some(e) => eprintln!("node {}: stale ({e})", node.node),
            }
        }
        let stale = fleet.nodes.iter().filter(|n| n.error.is_some()).count();
        eprintln!("scraped {} nodes, {stale} stale", fleet.nodes.len());
        print!("{}", fleet.merged);
        return Ok(());
    }
    let addr = need(opts, "connect").map_err(|_| "need --connect or --metastore".to_string())?;
    let client = GphClient::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let text = client.metrics().map_err(|e| e.to_string())?;
    print!("{text}");
    Ok(())
}

/// `fleettop --metastore`: a one-shot fleet health summary. Two
/// [`FleetClient::metrics`] scrapes `--interval` seconds apart give
/// per-node QPS (counter delta over the window); the rest of the row
/// reads straight from each node's latest exposition.
fn cmd_fleettop(opts: &HashMap<String, String>) -> Result<(), String> {
    check_flags(opts, &["metastore", "interval"])?;
    let addr = need(opts, "metastore")?;
    let interval: f64 = parse_or(opts, "interval", 1.0)?;
    if interval <= 0.0 || !interval.is_finite() {
        return Err("--interval must be positive".into());
    }
    let fleet = connect_fleet(addr)?;
    let first = fleet.metrics();
    std::thread::sleep(Duration::from_secs_f64(interval));
    let second = fleet.metrics();

    let before: HashMap<&str, gph_suite::obs::Exposition> = first
        .nodes
        .iter()
        .filter(|n| n.error.is_none())
        .map(|n| (n.node.as_str(), gph_suite::obs::Exposition::parse(&n.text)))
        .collect();
    println!(
        "{:<21} {:>8} {:>9} {:>10} {:>6} {:>13}",
        "node", "qps", "p99(ms)", "pagecache", "conns", "backpressure"
    );
    for node in &second.nodes {
        if let Some(e) = &node.error {
            println!("{:<21} stale: {e}", node.node);
            continue;
        }
        let exp = gph_suite::obs::Exposition::parse(&node.text);
        let val = |series: &str| exp.value(series).unwrap_or(0.0);
        let qps = before
            .get(node.node.as_str())
            .and_then(|b| b.value("gph_responses_total"))
            .map_or(0.0, |prev| (val("gph_responses_total") - prev).max(0.0) / interval);
        let (hits, misses) = (val("gph_pagecache_hits"), val("gph_pagecache_misses"));
        let pagecache = if hits + misses > 0.0 {
            format!("{:.0}%", hits / (hits + misses) * 100.0)
        } else {
            "-".to_string()
        };
        println!(
            "{:<21} {:>8.1} {:>9.3} {:>10} {:>6.0} {:>13.0}",
            node.node,
            qps,
            val("gph_latency_ns{quantile=\"0.99\"}") / 1e6,
            pagecache,
            val("gph_net_connections_active"),
            val("gph_net_backpressure_pauses_total"),
        );
    }
    Ok(())
}

/// Pretty-prints one query's phase trace, one line per shard and
/// indented lines per segment (the memtable scan prints last).
fn print_trace(qt: &gph_suite::obs::QueryTrace) {
    let p = qt.phase_totals();
    println!(
        "  trace: tau={} wall {:.3} ms (alloc {:.3} + enumerate {:.3} + probe {:.3} \
         + verify {:.3} + scan {:.3} ms across shards)",
        qt.tau,
        qt.total_ns as f64 / 1e6,
        p.alloc_ns as f64 / 1e6,
        p.enumerate_ns as f64 / 1e6,
        p.probe_ns as f64 / 1e6,
        p.verify_ns as f64 / 1e6,
        p.scan_ns as f64 / 1e6,
    );
    for shard in &qt.shards {
        println!("    shard {}: {:.3} ms", shard.shard, shard.total_ns as f64 / 1e6);
        for seg in &shard.segments {
            let name = if seg.segment == gph_suite::obs::trace::MEMTABLE_SEGMENT {
                "memtable".to_string()
            } else {
                format!("segment {}", seg.segment)
            };
            println!(
                "      {name}: {} rows, {} sigs, {} postings, {} scanned, \
                 {} candidates, {} results, {:.3} ms",
                seg.rows,
                seg.n_signatures,
                seg.sum_postings,
                seg.n_scanned,
                seg.n_candidates,
                seg.n_results,
                seg.phases.total() as f64 / 1e6,
            );
        }
    }
}

/// Pretty-prints a merged fleet trace: one line per hop attributing
/// node-side engine time vs network + queue time, straggler marked.
fn print_fleet_trace(ft: &gph_suite::obs::FleetTrace) {
    println!(
        "  fleet trace {:016x}: tau={} wall {:.3} ms over {} hop(s)",
        ft.trace_id,
        ft.tau,
        ft.total_ns as f64 / 1e6,
        ft.hops.len()
    );
    let straggler = ft.straggler().map(|h| h.node.as_str()).unwrap_or_default();
    for hop in &ft.hops {
        println!(
            "    {}: e2e {:.3} ms = engine {:.3} ms + network/queue {:.3} ms{}",
            hop.node,
            hop.e2e_ns as f64 / 1e6,
            hop.trace.total_ns as f64 / 1e6,
            hop.network_ns() as f64 / 1e6,
            if hop.node == straggler { "  <- straggler" } else { "" }
        );
    }
}

fn cmd_add(opts: &HashMap<String, String>) -> Result<(), String> {
    check_flags(opts, &["index", "id", "bits", "random-seed", "upsert"])?;
    let dir = need(opts, "index")?;
    let id: u32 = parse(opts, "id")?;
    let index = restore(opts)?;
    let row: Vec<u64> = if let Some(bits) = opts.get("bits") {
        if bits.len() != index.dim() {
            return Err(format!("--bits has {} digits, index dim is {}", bits.len(), index.dim()));
        }
        let v = gph_suite::hamming_core::BitVector::parse(bits)
            .map_err(|e| format!("parsing --bits: {e}"))?;
        v.words().to_vec()
    } else {
        let seed: u64 =
            parse(opts, "random-seed").map_err(|_| "need --bits or --random-seed".to_string())?;
        let sample = Profile::uniform(index.dim()).generate(1, seed);
        sample.row(0).to_vec()
    };
    if opts.contains_key("upsert") {
        let replaced = index.upsert(id, &row).map_err(|e| e.to_string())?;
        println!("{} id {id}", if replaced { "replaced" } else { "inserted" });
    } else {
        index.insert(id, &row).map_err(|e| e.to_string())?;
        println!("inserted id {id}");
    }
    index.snapshot(dir).map_err(|e| e.to_string())?;
    println!("{} live rows, snapshot updated at {dir}", index.len());
    Ok(())
}

fn cmd_del(opts: &HashMap<String, String>) -> Result<(), String> {
    check_flags(opts, &["index", "id"])?;
    let dir = need(opts, "index")?;
    let id: u32 = parse(opts, "id")?;
    let index = restore(opts)?;
    if !index.delete(id) {
        return Err(format!("id {id} is not live in this index"));
    }
    index.snapshot(dir).map_err(|e| e.to_string())?;
    println!("deleted id {id}; {} live rows, snapshot updated at {dir}", index.len());
    Ok(())
}

/// Parses a comma-separated slot list, bounds-checked against the fleet
/// slot count.
fn parse_slots(s: &str, fleet_slots: u32) -> Result<Vec<u32>, String> {
    let mut slots = Vec::new();
    for part in s.split(',') {
        let slot: u32 = part.trim().parse().map_err(|_| format!("bad slot {part:?} in {s:?}"))?;
        if slot >= fleet_slots {
            return Err(format!("slot {slot} is out of range for --fleet-slots {fleet_slots}"));
        }
        if !slots.contains(&slot) {
            slots.push(slot);
        }
    }
    if slots.is_empty() {
        return Err("the slot list is empty".into());
    }
    Ok(slots)
}

/// `metastore --listen`: run the manifest server until the optional
/// `--duration` elapses (0 = run until killed).
fn cmd_metastore(opts: &HashMap<String, String>) -> Result<(), String> {
    check_flags(opts, &["listen", "duration"])?;
    let listen = need(opts, "listen")?;
    let server = MetastoreServer::bind(listen, ServerConfig::default())
        .map_err(|e| format!("binding {listen}: {e}"))?;
    println!("metastore listening on {} (no manifest published yet)", server.local_addr());
    let duration: u64 = parse_or(opts, "duration", 0)?;
    if duration == 0 {
        eprintln!("serving until killed (pass --duration <secs> for a bounded run)");
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    std::thread::sleep(Duration::from_secs(duration));
    let version = server.manifest().map_or(0, |m| m.version);
    let stats = server.shutdown();
    println!(
        "served {} request(s) over {} connection(s) in {duration}s; \
         final manifest version {version}; drained and shut down",
        stats.requests, stats.connections_opened
    );
    Ok(())
}

/// Parses `--nodes "slots@addr[|replica...][;slots@addr...]"` into a
/// manifest's node list.
fn parse_nodes(s: &str, fleet_slots: u32) -> Result<Vec<FleetNode>, String> {
    let mut nodes = Vec::new();
    for group in s.split(';') {
        let (slots, addrs) = group
            .split_once('@')
            .ok_or_else(|| format!("node spec {group:?} is not slots@addr"))?;
        let addrs: Vec<String> =
            addrs.split('|').map(str::trim).filter(|a| !a.is_empty()).map(String::from).collect();
        if addrs.is_empty() {
            return Err(format!("node spec {group:?} has no addresses"));
        }
        nodes.push(FleetNode { slots: parse_slots(slots, fleet_slots)?, addrs });
    }
    Ok(nodes)
}

/// `publish --metastore`: install a new shard→node map. The metastore
/// rejects stale versions, so republishing requires a strictly larger
/// `--version`.
fn cmd_publish(opts: &HashMap<String, String>) -> Result<(), String> {
    check_flags(opts, &["metastore", "version", "fleet-slots", "nodes"])?;
    let addr = need(opts, "metastore")?;
    let version: u64 = parse(opts, "version")?;
    let fleet_slots: u32 = parse(opts, "fleet-slots")?;
    let manifest = FleetManifest {
        version,
        n_shards: fleet_slots,
        nodes: parse_nodes(need(opts, "nodes")?, fleet_slots)?,
    };
    manifest.validate().map_err(|e| format!("invalid manifest: {e}"))?;
    let client = GphClient::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let installed = client.publish_manifest(&manifest).map_err(|e| e.to_string())?;
    println!(
        "published manifest v{installed}: {} slot(s) over {} node group(s)",
        fleet_slots,
        manifest.nodes.len()
    );
    Ok(())
}

/// `manifest --metastore`: print the current shard→node map.
fn cmd_manifest(opts: &HashMap<String, String>) -> Result<(), String> {
    check_flags(opts, &["metastore"])?;
    let addr = need(opts, "metastore")?;
    let client = GphClient::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    match client.get_manifest().map_err(|e| e.to_string())? {
        None => println!("metastore {addr}: no manifest published yet"),
        Some(m) => {
            println!("metastore: {addr}");
            println!("version:   {}", m.version);
            println!("slots:     {}", m.n_shards);
            for (i, node) in m.nodes.iter().enumerate() {
                println!(
                    "  node {i}: slots {:?}  primary {}{}",
                    node.slots,
                    node.addrs[0],
                    if node.addrs.len() > 1 {
                        format!("  replicas {}", node.addrs[1..].join(" "))
                    } else {
                        String::new()
                    }
                );
            }
        }
    }
    Ok(())
}

/// A [`FleetClient`] routing by the manifest the metastore at `addr`
/// currently serves.
fn connect_fleet(addr: &str) -> Result<FleetClient, String> {
    FleetClient::connect(addr, FleetConfig::default())
        .map_err(|e| format!("connecting to metastore {addr}: {e}"))
}

/// Parses a byte count with an optional `k`/`m`/`g` suffix (`64m` =
/// 64 MiB).
fn parse_budget(s: &str) -> Result<u64, String> {
    let (digits, unit) = match s.char_indices().find(|(_, c)| !c.is_ascii_digit()) {
        None => (s, 1u64),
        Some((i, c)) => {
            let unit = match c.to_ascii_lowercase() {
                'k' => 1u64 << 10,
                'm' => 1 << 20,
                'g' => 1 << 30,
                _ => return Err(format!("--memory-budget {s}: expected bytes or k/m/g suffix")),
            };
            if i + c.len_utf8() != s.len() {
                return Err(format!("--memory-budget {s}: trailing characters after the unit"));
            }
            (&s[..i], unit)
        }
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("--memory-budget {s}: expected bytes or k/m/g suffix"))?;
    n.checked_mul(unit)
        .filter(|&b| b > 0)
        .ok_or_else(|| format!("--memory-budget {s}: not a positive byte count"))
}

fn cmd_serve(opts: &HashMap<String, String>) -> Result<(), String> {
    check_flags(
        opts,
        &["index", "queries", "tau", "workers", "batch", "listen", "duration", "memory-budget"],
    )?;
    let dir = need(opts, "index")?;
    let n_queries: usize = parse_or(opts, "queries", 1000)?;
    let workers: usize = parse_or(opts, "workers", 0)?;
    let batch: usize = parse_or(opts, "batch", 16)?;
    // `--memory-budget` flips the fleet to out-of-core serving: sealed
    // segments page from the snapshot files through a cache capped at
    // the given byte budget instead of loading resident.
    let storage = match opts.get("memory-budget") {
        None => StorageMode::Resident,
        Some(s) => StorageMode::FileBacked { budget_bytes: parse_budget(s)? },
    };
    let cfg = ServiceConfig { workers, storage, ..ServiceConfig::default() };
    let t0 = Instant::now();
    let service = QueryService::warm_start(dir, cfg).map_err(|e| e.to_string())?;
    match storage {
        StorageMode::Resident => {
            eprintln!("service warm-started from {dir} in {:.2}s", t0.elapsed().as_secs_f64());
        }
        StorageMode::FileBacked { budget_bytes } => eprintln!(
            "service warm-started from {dir} in {:.2}s \
             (file-backed, page-cache budget {budget_bytes} bytes)",
            t0.elapsed().as_secs_f64()
        ),
    }
    if let Some(listen) = opts.get("listen") {
        return serve_network(listen, service, opts);
    }
    let (dim, tau_max) = (service.index().dim(), service.index().tau_max());
    let tau: u32 = parse_or(opts, "tau", (tau_max / 2).max(1) as u32)?;
    if tau as usize > tau_max {
        return Err(format!("--tau {tau} exceeds the snapshot's tau_max {tau_max}"));
    }
    let queries = Profile::uniform(dim).generate(n_queries, 0xCAFE);
    let t1 = Instant::now();
    let mut tickets = Vec::new();
    for chunk_start in (0..queries.len()).step_by(batch.max(1)) {
        let chunk: Vec<&[u64]> = (chunk_start..(chunk_start + batch.max(1)).min(queries.len()))
            .map(|i| queries.row(i))
            .collect();
        tickets.push(service.submit_batch(&chunk, tau));
    }
    let mut results = 0usize;
    for t in tickets {
        for resp in t.wait() {
            results += resp.ids().map_or(0, <[u32]>::len);
        }
    }
    let elapsed = t1.elapsed().as_secs_f64();
    let st = service.stats();
    println!(
        "{n_queries} queries at tau={tau}: {results} results in {elapsed:.2}s \
         ({:.0} QPS, p50 {:.2} ms, p95 {:.2} ms, {:.0} candidates/query)",
        n_queries as f64 / elapsed,
        st.latency_p50_ns as f64 / 1e6,
        st.latency_p95_ns as f64 / 1e6,
        st.candidates_per_query,
    );
    Ok(())
}

/// `serve --listen`: expose the warm-started service over TCP until the
/// optional `--duration` elapses (0 = run until killed).
fn serve_network(
    listen: &str,
    service: QueryService,
    opts: &HashMap<String, String>,
) -> Result<(), String> {
    let service = Arc::new(service);
    let server = NetServer::bind(listen, Arc::clone(&service), ServerConfig::default())
        .map_err(|e| format!("binding {listen}: {e}"))?;
    let index = service.index();
    println!(
        "listening on {} — {} rows x {} dims over {} shard(s), tau_max {}",
        server.local_addr(),
        index.len(),
        index.dim(),
        index.num_shards(),
        index.tau_max()
    );
    let duration: u64 = parse_or(opts, "duration", 0)?;
    if duration == 0 {
        eprintln!("serving until killed (pass --duration <secs> for a bounded run)");
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    std::thread::sleep(Duration::from_secs(duration));
    let stats = server.shutdown();
    println!(
        "served {} request(s) over {} connection(s) in {duration}s \
         ({} responses, {} errors, {} B in, {} B out); drained and shut down",
        stats.requests,
        stats.connections_opened,
        stats.responses,
        stats.errors_sent,
        stats.bytes_in,
        stats.bytes_out
    );
    Ok(())
}
