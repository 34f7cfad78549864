//! The round loop every workload shares, and the report it produces.
//!
//! A run is: generate inputs from the seed → set up (three times from
//! scratch in an untraced run, the median is `setup_s`) → two discarded
//! warm-up rounds → N measured rounds. A round is a constant list of
//! operations replayed against the same starting state (noise rules 1
//! and 5), so `attempted` is a function of `(workload, seed, seconds)`
//! alone and each round's value is a repeat measurement. Every timing
//! is computed per round and reported as the median over measured
//! rounds with IQR/median beside it (rule 6).
//!
//! A traced run sets up once, then alternates untraced and traced
//! rounds (a quarter as many), so the tracing overhead is measured
//! inside one process against the same system, and finishes with the
//! workload's direct per-layer probes.

use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::procstat::process_cpu_ns;
use crate::spans::{self, Recorder};
use crate::stats;
use hamming_core::Dataset;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Discarded rounds before measuring: caches fill, scratch pools and
/// allocator arenas reach their steady size.
pub const WARMUP_ROUNDS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// A run whose measured rounds have taken this many times `--seconds`
/// (a box much slower than the reference) stops early rather than miss
/// the driver's cap; it says so (`truncated`) and `attempted` shrinks.
const DEADLINE_FACTOR: f64 = 1.5;
/// Measured rounds a truncated run still completes.
const MIN_MEASURED_ROUNDS: usize = 3;

pub struct Opts {
    pub seed: u64,
    /// Nominal measuring time; fixes the number of measured rounds.
    pub seconds: u32,
    pub trace: bool,
    /// Tiny corpus, two measured rounds: the smoke test's sizes.
    pub quick: bool,
    /// Result files, span files and every temporary file go here.
    pub out_dir: PathBuf,
}

/// A read's answer, owned or shared with the service's result cache.
pub enum Ids {
    Owned(Vec<u32>),
    Shared(Arc<Vec<u32>>),
}

impl Ids {
    pub fn as_slice(&self) -> &[u32] {
        match self {
            Ids::Owned(v) => v,
            Ids::Shared(v) => v,
        }
    }
}

/// One read of a single-client round.
#[derive(Clone, Copy)]
pub struct ReadOp {
    /// Row of the workload's query dataset.
    pub query: u32,
    pub tau: u32,
}

/// What one read returned, and (traced engine runs) the phase timings
/// the call reported about itself.
pub struct Answer {
    pub ids: Ids,
    pub phases: Option<[(&'static str, u64); 4]>,
}

impl Answer {
    pub fn owned(ids: Vec<u32>) -> Self {
        Answer { ids: Ids::Owned(ids), phases: None }
    }
}

/// How a round is to be run.
pub enum Mode<'a> {
    /// Untimed extras off: the measured configuration.
    Plain,
    /// As `Plain`, and afterwards (outside the timed window) compare
    /// answers against linear scan. The first warm-up round runs so.
    Verify,
    /// Record a span around every operation and every call it makes.
    Traced(&'a mut Recorder),
}

/// One round as the workload measured it.
#[derive(Default)]
pub struct Round {
    /// First operation issued → last operation answered.
    pub wall_ns: u64,
    /// Process CPU time across the same window.
    pub cpu_ns: u64,
    /// Operations attempted, reads and writes.
    pub ops: u64,
    /// Errors, rejections, degraded answers, answers that disagree with
    /// linear scan.
    pub failed: u64,
    /// Latency of every read, at the entry-point call.
    pub read_lat_ns: Vec<u64>,
    /// Fold of every read's ids, in operation order; 0 for a workload
    /// whose interleaving is not deterministic.
    pub digest: u64,
}

impl Round {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// Runs `ops` through `call`, one closed-loop client, timing each call.
/// With `keep_every = Some(k)` the answers of every k-th operation are
/// returned for checking after the clock has stopped.
pub fn read_round(
    ops: &[ReadOp],
    queries: &Dataset,
    call_name: &'static str,
    mut rec: Option<&mut Recorder>,
    keep_every: Option<usize>,
    mut call: impl FnMut(&[u64], u32) -> Result<Answer, String>,
) -> Result<(Round, Vec<(usize, Ids)>), String> {
    let mut round = Round { read_lat_ns: Vec::with_capacity(ops.len()), ..Round::default() };
    let mut kept = Vec::new();
    let mut digest = crate::gen::Fingerprint::default();
    let cpu0 = process_cpu_ns()?;
    let t0 = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let query = queries.row(op.query as usize);
        let spans = rec.as_deref_mut().map(|r| {
            let root = r.enter(i as u32, "op");
            (root, r.enter(i as u32, call_name))
        });
        let t = Instant::now();
        let answer = call(query, op.tau);
        round.read_lat_ns.push(t.elapsed().as_nanos() as u64);
        if let (Some(r), Some((_, call_span))) = (rec.as_deref_mut(), spans) {
            r.exit(call_span);
            if let Ok(Answer { phases: Some(p), .. }) = &answer {
                r.phases(call_span, p);
            }
        }
        match answer {
            Ok(a) => {
                digest.ids(a.ids.as_slice());
                if keep_every.is_some_and(|k| i % k == 0) {
                    kept.push((i, a.ids));
                }
            }
            Err(_) => round.failed += 1,
        }
        if let (Some(r), Some((root, _))) = (rec.as_deref_mut(), spans) {
            r.exit(root);
        }
    }
    round.wall_ns = t0.elapsed().as_nanos() as u64;
    round.cpu_ns = process_cpu_ns()?.saturating_sub(cpu0);
    round.ops = ops.len() as u64;
    round.digest = digest.value();
    Ok((round, kept))
}

/// Counts kept answers that differ from a linear scan of `data`.
pub fn mismatches_against_scan(
    data: &Dataset,
    ops: &[ReadOp],
    queries: &Dataset,
    kept: &[(usize, Ids)],
) -> u64 {
    kept.iter()
        .filter(|(i, ids)| {
            let op = ops[*i];
            data.linear_scan(queries.row(op.query as usize), op.tau) != ids.as_slice()
        })
        .count() as u64
}

/// A workload: seeded inputs (held by the implementor), a system built
/// from them, and a round that replays the same operations each time.
pub trait Workload {
    type System;

    fn name(&self) -> &'static str;
    /// Length of one round on the reference box; with `--seconds` it
    /// fixes how many rounds are measured.
    fn nominal_round_s(&self) -> f64;
    fn ops_per_round(&self) -> u64;
    /// Closed-loop client threads.
    fn clients(&self) -> usize;
    fn input_fingerprint(&self) -> u64;
    /// Whether every round must return the same ids in the same order
    /// (`result_digest` is then printed and compared across rounds).
    fn deterministic(&self) -> bool;
    /// Lines for the human-readable output: sizes, caveats.
    fn notes(&self) -> Vec<String>;

    /// Generated inputs in memory → first operation servable: whatever
    /// this workload's operator pays (build, snapshot, restore, bind,
    /// connect). Timed.
    fn setup(&self) -> Result<Self::System, String>;
    /// Stops threads, closes sockets, removes files. Untimed.
    fn teardown(&self, sys: Self::System);
    /// Bytes held to serve over raw corpus bytes.
    fn mem_amp(&self, sys: &Self::System) -> f64;
    /// Restores the round's starting state (untimed), then runs one
    /// round.
    fn round(&self, sys: &mut Self::System, mode: Mode<'_>) -> Result<Round, String>;
    /// Direct per-layer probes of a traced run; `spans` are those of
    /// its traced rounds, `rounds` their count.
    fn layers(
        &self,
        sys: &mut Self::System,
        spans: &[spans::Span],
        rounds: usize,
        out: &mut Layers,
    ) -> Result<(), String>;
}

/// Per-layer values of a traced run, keyed by names of
/// [`metrics::PER_LAYER`].
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|m| m.name == name), "{name} is not a per-layer metric");
        self.0.insert(name, value);
    }
}

/// One reported number.
pub struct MetricValue {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// IQR/median over the samples behind `value`; `None` for a number
    /// that is not a repeat measurement.
    pub spread: Option<f64>,
    pub bound: Option<f64>,
    /// The repeat measurements behind `value`, in the order taken.
    pub samples: Vec<f64>,
}

impl MetricValue {
    /// Spread wider than the metric's own bound: informational.
    pub fn noisy(&self) -> bool {
        matches!((self.spread, self.bound), (Some(s), Some(b)) if s > b)
    }
}

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
    pub quick: bool,
    pub clients: usize,
    pub warmup_rounds: usize,
    pub measured_rounds: usize,
    pub ops_per_round: u64,
    /// The deadline cut the run short of its planned rounds.
    pub truncated: bool,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub input_fingerprint: u64,
    pub result_digest: Option<u64>,
    pub metrics: Vec<MetricValue>,
    pub notes: Vec<String>,
    /// Traced runs: per span name, count / total / self time.
    pub span_totals: Vec<(&'static str, spans::NameTotals)>,
    pub span_file: Option<PathBuf>,
}

/// Measured rounds for `--seconds`: the nominal measuring time divided
/// by the workload's nominal round length.
pub fn measured_rounds(seconds: u32, nominal_round_s: f64, quick: bool) -> usize {
    if quick {
        return 2;
    }
    ((seconds as f64 / nominal_round_s).round() as usize).max(MIN_MEASURED_ROUNDS)
}

struct RoundStats {
    ops_per_s: f64,
    lat_p50_us: f64,
    lat_p99_us: f64,
    cpu_us_per_op: f64,
}

fn summarize(round: &mut Round) -> Result<RoundStats, String> {
    let pct = |lat: &mut [u64], p| {
        stats::percentile_ns(lat, p).map(|ns| ns as f64 / 1e3).map_err(|e| e.to_string())
    };
    Ok(RoundStats {
        ops_per_s: round.ops_per_s(),
        lat_p50_us: pct(&mut round.read_lat_ns, 50.0)?,
        lat_p99_us: pct(&mut round.read_lat_ns, 99.0)?,
        cpu_us_per_op: round.cpu_ns as f64 / 1e3 / round.ops as f64,
    })
}

/// Tallies shared by both kinds of run.
struct Tally {
    attempted: u64,
    failed: u64,
    /// Digest of the first round; later rounds must repeat it.
    digest: Option<u64>,
    digest_diverged: bool,
}

impl Tally {
    fn add(&mut self, round: &Round, deterministic: bool) {
        self.attempted += round.ops;
        self.failed += round.failed;
        if deterministic {
            match self.digest {
                None => self.digest = Some(round.digest),
                Some(d) if d != round.digest => self.digest_diverged = true,
                Some(_) => {}
            }
        }
    }
}

/// An end-to-end metric as the median of its repeat measurements
/// (`mem_amp` has one: its own median, spread 0).
fn e2e_value(name: &'static str, samples: &[f64]) -> MetricValue {
    let m = metrics::end_to_end(name).expect("a known end-to-end metric");
    MetricValue {
        name,
        unit: m.unit,
        value: stats::median(samples).expect("at least one sample"),
        spread: Some(stats::spread(samples).expect("at least one sample")),
        bound: Some(m.bound),
        samples: samples.to_vec(),
    }
}

pub fn run<W: Workload>(w: &W, opts: &Opts) -> Result<Report, String> {
    let planned = measured_rounds(opts.seconds, w.nominal_round_s(), opts.quick);
    let mut tally = Tally { attempted: 0, failed: 0, digest: None, digest_diverged: false };
    let mut report = Report {
        workload: w.name(),
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        quick: opts.quick,
        clients: w.clients(),
        warmup_rounds: WARMUP_ROUNDS,
        measured_rounds: 0,
        ops_per_round: w.ops_per_round(),
        truncated: false,
        attempted: 0,
        failed: 0,
        correct: false,
        input_fingerprint: w.input_fingerprint(),
        result_digest: None,
        metrics: Vec::new(),
        notes: w.notes(),
        span_totals: Vec::new(),
        span_file: None,
    };

    if opts.trace {
        run_traced(w, opts, planned, &mut tally, &mut report)?;
    } else {
        run_untraced(w, opts, planned, &mut tally, &mut report)?;
    }

    report.attempted = tally.attempted;
    report.failed = tally.failed + u64::from(tally.digest_diverged);
    report.result_digest = tally.digest;
    report.correct = report.failed == 0 && report.metrics.iter().all(|m| m.value.is_finite());
    Ok(report)
}

fn warm_up<W: Workload>(w: &W, sys: &mut W::System, tally: &mut Tally) -> Result<(), String> {
    for i in 0..WARMUP_ROUNDS {
        let mode = if i == 0 { Mode::Verify } else { Mode::Plain };
        tally.add(&w.round(sys, mode)?, w.deterministic());
    }
    Ok(())
}

fn run_untraced<W: Workload>(
    w: &W,
    opts: &Opts,
    planned: usize,
    tally: &mut Tally,
    report: &mut Report,
) -> Result<(), String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut sys = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(prev) = sys.take() {
            w.teardown(prev);
        }
        let t = Instant::now();
        sys = Some(w.setup()?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut sys = sys.expect("SETUP_REPEATS > 0");
    let mem_amp = w.mem_amp(&sys);

    warm_up(w, &mut sys, tally)?;
    let nominal = Duration::from_secs_f64(opts.seconds as f64 * DEADLINE_FACTOR);
    let started = Instant::now();
    let mut rounds = Vec::with_capacity(planned);
    for done in 0..planned {
        if done >= MIN_MEASURED_ROUNDS && !opts.quick && started.elapsed() > nominal {
            report.truncated = true;
            break;
        }
        let mut round = w.round(&mut sys, Mode::Plain)?;
        tally.add(&round, w.deterministic());
        rounds.push(summarize(&mut round)?);
    }
    w.teardown(sys);

    report.measured_rounds = rounds.len();
    let column = |f: fn(&RoundStats) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    report.metrics = vec![
        e2e_value("setup_s", &setup_s),
        e2e_value("ops_per_s", &column(|r| r.ops_per_s)),
        e2e_value("lat_p50_us", &column(|r| r.lat_p50_us)),
        e2e_value("lat_p99_us", &column(|r| r.lat_p99_us)),
        e2e_value("cpu_us_per_op", &column(|r| r.cpu_us_per_op)),
        e2e_value("mem_amp", &[mem_amp]),
    ];
    debug_assert!(report.metrics.iter().map(|m| m.name).eq(END_TO_END.iter().map(|m| m.name)));
    Ok(())
}

fn run_traced<W: Workload>(
    w: &W,
    opts: &Opts,
    planned: usize,
    tally: &mut Tally,
    report: &mut Report,
) -> Result<(), String> {
    let mut sys = w.setup()?;
    warm_up(w, &mut sys, tally)?;

    // A quarter of the rounds, each run twice: untraced, then traced.
    let pairs = if opts.quick { 1 } else { planned.div_ceil(4) };
    let mut rec = Recorder::new(Instant::now(), pairs * w.ops_per_round() as usize * 8);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        let round = w.round(&mut sys, Mode::Plain)?;
        tally.add(&round, w.deterministic());
        plain.push(round.ops_per_s());
        let round = w.round(&mut sys, Mode::Traced(&mut rec))?;
        tally.add(&round, w.deterministic());
        traced.push(round.ops_per_s());
    }
    report.measured_rounds = pairs * 2;

    let mut layers = Layers::default();
    let plain_med = stats::median(&plain).map_err(|e| e.to_string())?;
    let traced_med = stats::median(&traced).map_err(|e| e.to_string())?;
    layers.set("trace.overhead_pct", (plain_med - traced_med) / plain_med * 100.0);
    layers.set(
        "trace.spans_per_op",
        rec.spans().len() as f64 / (pairs as u64 * w.ops_per_round()) as f64,
    );
    w.layers(&mut sys, rec.spans(), pairs, &mut layers)?;
    w.teardown(sys);

    let path = opts.out_dir.join(format!("spans-{}-seed{}.jsonl", w.name(), opts.seed));
    rec.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    report.span_file = Some(path);
    report.span_totals = spans::self_times(rec.spans()).into_iter().collect();

    // Every per-layer metric is printed by every traced run; a layer
    // this workload leaves idle did no work and reports 0.
    report.metrics = PER_LAYER
        .iter()
        .map(|m| MetricValue {
            name: m.name,
            unit: m.unit,
            value: layers.0.get(m.name).copied().unwrap_or(0.0),
            spread: None,
            bound: None,
            samples: Vec::new(),
        })
        .collect();
    Ok(())
}

/// p50 latency, in microseconds, of `call` over `n` invocations.
pub fn p50_us(n: usize, mut call: impl FnMut(usize)) -> f64 {
    let mut lat: Vec<u64> = (0..n)
        .map(|i| {
            let t = Instant::now();
            call(i);
            t.elapsed().as_nanos() as u64
        })
        .collect();
    stats::percentile_ns(&mut lat, 50.0).expect("n > 0") as f64 / 1e3
}

/// Mean nanoseconds per iteration of `body` run `n` times back to back
/// (for calls too short to time one by one).
pub fn mean_ns(n: usize, mut body: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        body(i);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}
