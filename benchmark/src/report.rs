//! What a run prints and the result file it leaves for `compare`.
//!
//! Standard output ends with the one JSON object the driver reads
//! (`correct`, `attempted`, `failed`, `metrics`). Everything else a
//! reader wants — spread per metric, `noisy` flags, `fail_ratio`,
//! fingerprints, span self times — is printed above it and stored,
//! with the metrics, in `<out>/<workload>-seed<seed>-trace<t>-<pid>.json`.

use crate::harness::{MetricValue, Report};
use crate::json::quote;
use crate::metrics::{PER_LAYER, WORKLOADS};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The driver's line: exactly the four keys, every value with all its
/// digits (`{}` on an `f64` prints the shortest text that parses back
/// to the same number).
pub fn driver_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!("{}: {{\"value\": {}, \"unit\": {}}}", quote(m.name), m.value, quote(m.unit))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn metric_detail(m: &MetricValue) -> String {
    let mut s = format!(
        "{{\"name\": {}, \"unit\": {}, \"value\": {}, \"samples\": [{}]",
        quote(m.name),
        quote(m.unit),
        m.value,
        m.samples.iter().map(f64::to_string).collect::<Vec<_>>().join(", ")
    );
    if let Some(spread) = m.spread {
        let _ = write!(s, ", \"spread\": {spread}");
    }
    if let Some(bound) = m.bound {
        let _ = write!(s, ", \"bound\": {bound}, \"noisy\": {}", m.noisy());
    }
    s.push('}');
    s
}

/// The result file's content: one JSON object.
pub fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r.metrics.iter().map(metric_detail).collect();
    let spans: Vec<String> = r
        .span_totals
        .iter()
        .map(|(name, t)| {
            format!(
                "{{\"name\": {}, \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                quote(name),
                t.count,
                t.total_ns,
                t.self_ns
            )
        })
        .collect();
    let notes: Vec<String> = r.notes.iter().map(|n| quote(n)).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}, \
         \"clients\": {}, \"warmup_rounds\": {}, \"measured_rounds\": {}, \"ops_per_round\": {}, \
         \"truncated\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"fail_ratio\": {}, \"input_fingerprint\": {}, \"result_digest\": {}, \
         \"metrics\": [{}], \"span_self_times\": [{}], \"notes\": [{}]}}\n",
        quote(r.workload),
        r.seed,
        r.seconds,
        r.trace,
        r.quick,
        r.clients,
        r.warmup_rounds,
        r.measured_rounds,
        r.ops_per_round,
        r.truncated,
        r.correct,
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted.max(1) as f64,
        quote(&format!("{:016x}", r.input_fingerprint)),
        r.result_digest.map_or("null".to_string(), |d| quote(&format!("{d:016x}"))),
        metrics.join(", "),
        spans.join(", "),
        notes.join(", "),
    )
}

/// The human-readable block printed above the driver's line.
pub fn human(r: &Report) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# {} seed={} trace={} clients={} (closed loop) rounds={}+{} ops/round={}{}",
        r.workload,
        r.seed,
        u8::from(r.trace),
        r.clients,
        r.warmup_rounds,
        r.measured_rounds,
        r.ops_per_round,
        if r.truncated { " TRUNCATED by the deadline" } else { "" }
    );
    if let Some(w) = WORKLOADS.iter().find(|w| w.name == r.workload) {
        let _ = writeln!(s, "# why: {}", w.why);
    }
    for note in &r.notes {
        let _ = writeln!(s, "# {note}");
    }
    if r.trace {
        // Every per-layer metric is in the driver's line; the layers
        // this workload leaves idle read 0 and are left out here.
        let _ = writeln!(
            s,
            "{:<36} {:>16} {:<6} {:<7} should move",
            "metric", "value", "unit", "better"
        );
        for (m, layer) in r.metrics.iter().zip(&PER_LAYER).filter(|(m, _)| m.value != 0.0) {
            let _ = writeln!(
                s,
                "{:<36} {:>16.4} {:<6} {:<7} {}",
                m.name,
                m.value,
                m.unit,
                layer.better.as_str(),
                layer.moves
            );
        }
    } else {
        let _ = writeln!(
            s,
            "{:<36} {:>16} {:<6} {:>8} {:>6} {:>5}",
            "metric", "value", "unit", "spread", "bound", "noisy"
        );
        for m in &r.metrics {
            let _ = writeln!(
                s,
                "{:<36} {:>16.4} {:<6} {:>8.4} {:>6.2} {:>5}",
                m.name,
                m.value,
                m.unit,
                m.spread.unwrap_or(0.0),
                m.bound.unwrap_or(0.0),
                m.noisy()
            );
        }
    }
    if !r.span_totals.is_empty() {
        let _ = writeln!(s, "{:<36} {:>10} {:>14} {:>14}", "span", "count", "total_ms", "self_ms");
        for (name, t) in &r.span_totals {
            let _ = writeln!(
                s,
                "{:<36} {:>10} {:>14.3} {:>14.3}",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    let _ = writeln!(
        s,
        "fail_ratio {} ({} of {})",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    );
    let _ = writeln!(s, "input_fingerprint {:016x}", r.input_fingerprint);
    if let Some(d) = r.result_digest {
        let _ = writeln!(s, "result_digest {d:016x}");
    }
    if let Some(p) = &r.span_file {
        let _ = writeln!(s, "spans written to {}", p.display());
    }
    s
}

/// Writes the result file and returns its path.
pub fn write_result(r: &Report, out_dir: &Path) -> Result<PathBuf, String> {
    let path = out_dir.join(format!(
        "{}-seed{}-trace{}-{}.json",
        r.workload,
        r.seed,
        u8::from(r.trace),
        std::process::id()
    ));
    std::fs::write(&path, result_json(r)).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}
