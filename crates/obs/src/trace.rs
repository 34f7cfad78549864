//! Structured per-query traces.
//!
//! A [`QueryTrace`] records, for one query, the wall time and counters
//! of every engine phase — threshold allocation, signature enumeration,
//! postings probe (including candidate dedup), batched verification, and
//! memtable/fallback scan — broken down per segment and per shard. The
//! engines fill these through a caller-provided sink (an
//! `Option<&mut Vec<SegmentTrace>>` at the segment layer), so the
//! disabled path costs one branch.
//!
//! [`Tracer`] owns the runtime policy: a sampling counter (trace 1 in
//! `sample_every` queries), a fixed-size ring buffer of slow queries,
//! and per-phase histograms registered in a [`MetricsRegistry`].

use crate::registry::{Histogram, MetricsRegistry};
use hamming_core::error::Result;
use hamming_core::io::ByteReader;
use hamming_core::HammingError;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Wall time per engine phase, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// Threshold allocation: CN estimation + DP allocation lookup.
    pub alloc_ns: u64,
    /// Signature-ball enumeration.
    pub enumerate_ns: u64,
    /// Postings probe + candidate dedup (includes the sealed-segment
    /// scan fallback when the ball outgrows the segment).
    pub probe_ns: u64,
    /// Batched candidate verification.
    pub verify_ns: u64,
    /// Linear scan of a row slab or the memtable.
    pub scan_ns: u64,
}

impl PhaseNanos {
    /// Sum of all phases.
    pub fn total(&self) -> u64 {
        self.alloc_ns + self.enumerate_ns + self.probe_ns + self.verify_ns + self.scan_ns
    }

    /// Accumulates another breakdown into this one.
    pub fn add(&mut self, other: &PhaseNanos) {
        self.alloc_ns += other.alloc_ns;
        self.enumerate_ns += other.enumerate_ns;
        self.probe_ns += other.probe_ns;
        self.verify_ns += other.verify_ns;
        self.scan_ns += other.scan_ns;
    }
}

/// The sentinel segment id a memtable trace carries.
pub const MEMTABLE_SEGMENT: u32 = u32::MAX;

/// One segment's contribution to a query (a sealed segment, GPH or row
/// slab, or the memtable when `segment == MEMTABLE_SEGMENT`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SegmentTrace {
    /// Segment ordinal within its shard; [`MEMTABLE_SEGMENT`] for the
    /// memtable scan.
    pub segment: u32,
    /// Rows the segment held when the query ran.
    pub rows: u64,
    /// Per-phase wall time.
    pub phases: PhaseNanos,
    /// Signatures enumerated.
    pub n_signatures: u64,
    /// Σ postings-list lengths probed.
    pub sum_postings: u64,
    /// Rows examined by linear scan (fallback or memtable).
    pub n_scanned: u64,
    /// Distinct candidates verified.
    pub n_candidates: u64,
    /// Results produced.
    pub n_results: u64,
}

/// One shard's contribution: its segments plus the shard-local wall
/// time (which includes engine work the phases don't cover, e.g. result
/// sorting).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardTrace {
    /// Shard ordinal.
    pub shard: u32,
    /// Wall time of the whole shard-local search.
    pub total_ns: u64,
    /// Per-segment breakdown, memtable last.
    pub segments: Vec<SegmentTrace>,
}

/// A complete per-query trace.
///
/// Since codec v2 a trace also carries its **hop context** — which
/// distributed trace it belongs to ([`QueryTrace::trace_id`]), which
/// node produced it ([`QueryTrace::node`]), and when that node started
/// executing ([`QueryTrace::started_unix_ns`]) — so per-node traces can
/// be merged into a fleet-wide view (see [`crate::fleettrace`]). All
/// three default to "unset" (`0` / empty) for purely local traces.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryTrace {
    /// Distributed trace id shared by every hop of one fleet query;
    /// `0` when the trace never crossed a process boundary.
    pub trace_id: u64,
    /// Identity of the node that executed the query (its listen
    /// address); empty for purely local traces.
    pub node: String,
    /// Wall-clock nanoseconds since the UNIX epoch when the node
    /// started executing; `0` when unset. Clocks are per-node, so this
    /// orders hops only approximately — durations stay authoritative.
    pub started_unix_ns: u64,
    /// The threshold the query executed at.
    pub tau: u32,
    /// Wall time of the whole (scatter-gather) search.
    pub total_ns: u64,
    /// Per-shard breakdown.
    pub shards: Vec<ShardTrace>,
}

/// Codec version of the [`QueryTrace`] payload. v2 added the hop
/// context (trace id, node, start timestamp); v1 is rejected.
const TRACE_VERSION: u8 = 2;
/// Allocation guard: no real deployment has this many shards/segments.
const MAX_TRACE_ITEMS: u32 = 1 << 16;
/// Allocation guard on the node-identity string.
const MAX_NODE_LEN: u32 = 1 << 10;

fn read_count(r: &mut ByteReader<'_>, what: &str) -> Result<u32> {
    let n = r.u32(what)?;
    if n > MAX_TRACE_ITEMS {
        return Err(HammingError::Corrupt(format!("{what} count {n} implausible")));
    }
    Ok(n)
}

impl QueryTrace {
    /// Sum of the per-phase times across all shards and segments.
    pub fn phase_totals(&self) -> PhaseNanos {
        let mut acc = PhaseNanos::default();
        for sh in &self.shards {
            for seg in &sh.segments {
                acc.add(&seg.phases);
            }
        }
        acc
    }

    /// Encodes the trace (leading version byte, little-endian fields).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + 96 * self.shards.len());
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the encoding to `buf` (the composition point for wire
    /// payloads that embed a trace).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.push(TRACE_VERSION);
        buf.extend_from_slice(&self.trace_id.to_le_bytes());
        buf.extend_from_slice(&(self.node.len() as u32).to_le_bytes());
        buf.extend_from_slice(self.node.as_bytes());
        buf.extend_from_slice(&self.started_unix_ns.to_le_bytes());
        buf.extend_from_slice(&self.tau.to_le_bytes());
        buf.extend_from_slice(&self.total_ns.to_le_bytes());
        buf.extend_from_slice(&(self.shards.len() as u32).to_le_bytes());
        for sh in &self.shards {
            buf.extend_from_slice(&sh.shard.to_le_bytes());
            buf.extend_from_slice(&sh.total_ns.to_le_bytes());
            buf.extend_from_slice(&(sh.segments.len() as u32).to_le_bytes());
            for seg in &sh.segments {
                buf.extend_from_slice(&seg.segment.to_le_bytes());
                buf.extend_from_slice(&seg.rows.to_le_bytes());
                let p = &seg.phases;
                for v in [p.alloc_ns, p.enumerate_ns, p.probe_ns, p.verify_ns, p.scan_ns] {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                for v in [
                    seg.n_signatures,
                    seg.sum_postings,
                    seg.n_scanned,
                    seg.n_candidates,
                    seg.n_results,
                ] {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
    }

    /// Decodes a trace produced by [`QueryTrace::encode`], requiring
    /// full consumption of `bytes`.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let out = Self::decode_from(&mut r)?;
        r.finish("query trace")?;
        Ok(out)
    }

    /// Decodes a trace from the reader's current position; any version
    /// but the current one is a typed error.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self> {
        let version = r.u8("trace version")?;
        if version != TRACE_VERSION {
            return Err(HammingError::Corrupt(format!("unsupported trace version {version}")));
        }
        let trace_id = r.u64("trace id")?;
        let node_len = r.u32("trace node len")?;
        if node_len > MAX_NODE_LEN {
            return Err(HammingError::Corrupt(format!("trace node length {node_len} implausible")));
        }
        let node = String::from_utf8(r.bytes(node_len as usize, "trace node")?.to_vec())
            .map_err(|_| HammingError::Corrupt("trace node is not UTF-8".into()))?;
        let started_unix_ns = r.u64("trace started")?;
        let tau = r.u32("trace tau")?;
        let total_ns = r.u64("trace total")?;
        let n_shards = read_count(r, "trace shards")?;
        let mut shards = Vec::with_capacity(n_shards as usize);
        for _ in 0..n_shards {
            let shard = r.u32("shard id")?;
            let sh_total = r.u64("shard total")?;
            let n_segs = read_count(r, "trace segments")?;
            let mut segments = Vec::with_capacity(n_segs as usize);
            for _ in 0..n_segs {
                segments.push(SegmentTrace {
                    segment: r.u32("segment id")?,
                    rows: r.u64("segment rows")?,
                    phases: PhaseNanos {
                        alloc_ns: r.u64("alloc ns")?,
                        enumerate_ns: r.u64("enumerate ns")?,
                        probe_ns: r.u64("probe ns")?,
                        verify_ns: r.u64("verify ns")?,
                        scan_ns: r.u64("scan ns")?,
                    },
                    n_signatures: r.u64("n signatures")?,
                    sum_postings: r.u64("sum postings")?,
                    n_scanned: r.u64("n scanned")?,
                    n_candidates: r.u64("n candidates")?,
                    n_results: r.u64("n results")?,
                });
            }
            shards.push(ShardTrace { shard, total_ns: sh_total, segments });
        }
        Ok(QueryTrace { trace_id, node, started_unix_ns, tau, total_ns, shards })
    }
}

/// Runtime tracing policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Trace 1 in `sample_every` queries; `0` disables sampling
    /// entirely (explicitly requested traces still run).
    pub sample_every: u64,
    /// Traces whose total wall time is at least this enter the
    /// slow-query ring.
    pub slow_threshold_ns: u64,
    /// Capacity of the slow-query ring buffer.
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { sample_every: 0, slow_threshold_ns: 0, ring_capacity: 64 }
    }
}

/// Sampling + retention for query traces, with per-phase summaries
/// registered in a [`MetricsRegistry`].
pub struct Tracer {
    cfg: TraceConfig,
    tick: AtomicU64,
    sampled: crate::registry::Counter,
    slow: crate::registry::Counter,
    ring: Mutex<VecDeque<QueryTrace>>,
    phase_hists: [Histogram; 5],
}

const PHASE_NAMES: [&str; 5] = ["alloc", "enumerate", "probe", "verify", "scan"];

impl Tracer {
    /// Creates a tracer, registering its per-phase time summaries
    /// (`gph_query_phase_ns{phase=...}`) and recording counters
    /// (`gph_trace_sampled_total`, `gph_trace_slow_total`) in
    /// `registry`.
    pub fn new(cfg: TraceConfig, registry: &MetricsRegistry) -> Self {
        let phase_hists = PHASE_NAMES.map(|phase| {
            registry.histogram(
                "gph_query_phase_ns",
                "Per-phase wall time of traced queries.",
                &[("phase", phase)],
            )
        });
        Tracer {
            cfg,
            tick: AtomicU64::new(0),
            sampled: registry.counter(
                "gph_trace_sampled_total",
                "Query traces recorded (sampled or explicitly requested).",
                &[],
            ),
            slow: registry.counter(
                "gph_trace_slow_total",
                "Recorded traces that entered the slow-query ring.",
                &[],
            ),
            ring: Mutex::new(VecDeque::new()),
            phase_hists,
        }
    }

    /// The configured policy.
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// Whether this query should be traced by the sampling policy. One
    /// relaxed `fetch_add` when sampling is on; a constant `false` when
    /// it is off.
    pub fn should_sample(&self) -> bool {
        match self.cfg.sample_every {
            0 => false,
            1 => true,
            n => self.tick.fetch_add(1, Ordering::Relaxed).is_multiple_of(n),
        }
    }

    /// Traces recorded since start.
    pub fn sampled(&self) -> u64 {
        self.sampled.get()
    }

    /// Recorded traces that entered the slow-query ring since start.
    pub fn slow_total(&self) -> u64 {
        self.slow.get()
    }

    /// Records a completed trace: feeds the per-phase summaries and,
    /// when the query was slow enough, the ring buffer.
    pub fn record(&self, trace: &QueryTrace) {
        self.sampled.inc();
        let phases = trace.phase_totals();
        for (h, v) in self.phase_hists.iter().zip([
            phases.alloc_ns,
            phases.enumerate_ns,
            phases.probe_ns,
            phases.verify_ns,
            phases.scan_ns,
        ]) {
            h.record(v);
        }
        if self.cfg.ring_capacity > 0 && trace.total_ns >= self.cfg.slow_threshold_ns {
            self.slow.inc();
            let mut ring = self.ring.lock().unwrap();
            if ring.len() == self.cfg.ring_capacity {
                ring.pop_front();
            }
            ring.push_back(trace.clone());
        }
    }

    /// The retained slow queries, oldest first.
    pub fn slow_queries(&self) -> Vec<QueryTrace> {
        self.ring.lock().unwrap().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace(total_ns: u64) -> QueryTrace {
        QueryTrace {
            trace_id: 0xDEC0DE,
            node: "127.0.0.1:7471".into(),
            started_unix_ns: 1_700_000_000_000_000_000,
            tau: 8,
            total_ns,
            shards: vec![ShardTrace {
                shard: 1,
                total_ns,
                segments: vec![
                    SegmentTrace {
                        segment: 0,
                        rows: 1000,
                        phases: PhaseNanos {
                            alloc_ns: 10,
                            enumerate_ns: 20,
                            probe_ns: 30,
                            verify_ns: 40,
                            scan_ns: 0,
                        },
                        n_signatures: 5,
                        sum_postings: 50,
                        n_scanned: 0,
                        n_candidates: 12,
                        n_results: 2,
                    },
                    SegmentTrace {
                        segment: MEMTABLE_SEGMENT,
                        rows: 17,
                        phases: PhaseNanos { scan_ns: 7, ..PhaseNanos::default() },
                        n_scanned: 17,
                        n_candidates: 17,
                        n_results: 1,
                        ..SegmentTrace::default()
                    },
                ],
            }],
        }
    }

    #[test]
    fn trace_codec_roundtrip_is_canonical() {
        let t = sample_trace(123_456);
        let bytes = t.encode();
        let back = QueryTrace::decode(&bytes).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.encode(), bytes, "re-encoding must be byte-identical");
    }

    #[test]
    fn trace_codec_rejects_corruption() {
        let t = sample_trace(1);
        let bytes = t.encode();
        assert!(QueryTrace::decode(&bytes[..bytes.len() - 1]).is_err(), "truncated");
        for version in [1u8, 9] {
            let mut versioned = bytes.clone();
            versioned[0] = version;
            assert!(QueryTrace::decode(&versioned).is_err(), "version {version}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(QueryTrace::decode(&trailing).is_err(), "trailing bytes");
        // Implausible node length must fail before allocating.
        let mut long_node = bytes.clone();
        long_node[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(QueryTrace::decode(&long_node).is_err(), "implausible node length");
        // Implausible shard count must fail before allocating. Offset:
        // version + trace_id + node (len prefix + bytes) + started +
        // tau + total_ns.
        let off = 1 + 8 + 4 + t.node.len() + 8 + 4 + 8;
        let mut huge = bytes;
        huge[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(QueryTrace::decode(&huge).is_err(), "implausible count");
    }

    #[test]
    fn phase_totals_sum_segments() {
        let t = sample_trace(1);
        let p = t.phase_totals();
        assert_eq!(p.total(), 10 + 20 + 30 + 40 + 7);
    }

    #[test]
    fn sampler_rates() {
        let reg = MetricsRegistry::new();
        let off = Tracer::new(TraceConfig::default(), &reg);
        assert!(!off.should_sample());
        let always = Tracer::new(TraceConfig { sample_every: 1, ..TraceConfig::default() }, &reg);
        assert!(always.should_sample() && always.should_sample());
        let sparse = Tracer::new(TraceConfig { sample_every: 4, ..TraceConfig::default() }, &reg);
        let hits = (0..100).filter(|_| sparse.should_sample()).count();
        assert_eq!(hits, 25);
    }

    #[test]
    fn slow_ring_is_bounded_and_thresholded() {
        let reg = MetricsRegistry::new();
        let tracer = Tracer::new(
            TraceConfig { sample_every: 1, slow_threshold_ns: 100, ring_capacity: 3 },
            &reg,
        );
        for total in [50u64, 150, 250, 350, 450] {
            tracer.record(&sample_trace(total));
        }
        let slow = tracer.slow_queries();
        let totals: Vec<u64> = slow.iter().map(|t| t.total_ns).collect();
        assert_eq!(totals, vec![250, 350, 450], "fast query skipped, oldest slow evicted");
        assert_eq!(tracer.sampled(), 5);
        // The phase summaries saw every recorded trace.
        assert!(reg.render().contains("gph_query_phase_ns_count{phase=\"alloc\"} 5"));
    }
}
