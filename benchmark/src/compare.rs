//! `compare <dir-a> <dir-b>`: two sets of result files, each N untraced
//! runs of every workload, judged metric by metric against the bounds
//! of [`crate::metrics::END_TO_END`]. Set A is the base of every ratio.
//!
//! Per `(workload, metric)` the verdict is
//! * `unresolved` when either set's spread (IQR/median over its runs)
//!   is wider than the bound — unless every run of B reads better than
//!   every run of A, which no amount of noise explains away;
//! * `regressed` when B's median is worse than A's by more than the
//!   bound;
//! * `ok` otherwise.
//!
//! Runs of one `(workload, seed, seconds)` must also agree, across both
//! sets, on everything that is not a clock: `attempted`, the input
//! fingerprint, the result digest and `mem_amp`. A disagreement is
//! reported as `mismatch` and fails the comparison like a regression.

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END, WORKLOADS};
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

pub struct Outcome {
    pub table: String,
    /// Any `regressed` or `mismatch` row.
    pub regressed: bool,
}

struct Run {
    workload: String,
    /// `(seed, seconds)`.
    key: (u64, u64),
    /// What must repeat exactly for one `(workload, key)`.
    identity: String,
    metrics: BTreeMap<String, f64>,
}

fn load_run(doc: &Value) -> Option<Run> {
    if doc.get("trace")?.as_bool()? {
        return None;
    }
    let num = |key: &str| doc.get(key).and_then(Value::as_f64);
    let metrics: BTreeMap<String, f64> = doc
        .get("metrics")?
        .as_array()?
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?.to_string(), m.get("value")?.as_f64()?)))
        .collect();
    Some(Run {
        workload: doc.get("workload")?.as_str()?.to_string(),
        key: (num("seed")? as u64, num("seconds")? as u64),
        identity: format!(
            "attempted={} input_fingerprint={} result_digest={} mem_amp={}",
            num("attempted")?,
            doc.get("input_fingerprint")?.as_str()?,
            doc.get("result_digest")?.as_str().unwrap_or("-"),
            metrics.get("mem_amp")?
        ),
        metrics,
    })
}

/// The untraced result files of `dir`, skipping anything that is not
/// one (span files, traced runs, stray files).
fn load_set(dir: &Path) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        runs.extend(load_run(&doc));
    }
    if runs.is_empty() {
        return Err(format!("{}: no untraced result files", dir.display()));
    }
    Ok(runs)
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric: `a` and `b` are its values over the runs of each
/// set (both non-empty).
pub fn judge(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let spread = |v: &[f64]| stats::spread(v).expect("non-empty");
    if spread(a).max(spread(b)) > bound {
        let b_wins_every_pair = a.iter().all(|&x| b.iter().all(|&y| better.worsening(x, y) < 0.0));
        return if b_wins_every_pair { Verdict::Ok } else { Verdict::Unresolved };
    }
    let (ma, mb) = (stats::median(a).expect("non-empty"), stats::median(b).expect("non-empty"));
    if better.worsening(ma, mb) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn compare_sets(a: &[Run], b: &[Run]) -> Outcome {
    let mut table = String::new();
    let mut regressed = false;
    let _ = writeln!(
        table,
        "{:<13} {:<14} {:>3} {:>11} {:>23} {:>3} {:>11} {:>23} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "nA",
        "median A",
        "[q1, q3] A",
        "nB",
        "median B",
        "[q1, q3] B",
        "B/A",
        "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let values = |set: &[Run]| -> Vec<f64> {
                set.iter()
                    .filter(|r| r.workload == w.name)
                    .filter_map(|r| r.metrics.get(m.name).copied())
                    .collect()
            };
            let (va, vb) = (values(a), values(b));
            if va.is_empty() || vb.is_empty() {
                let _ = writeln!(table, "{:<13} {:<14} missing from a set", w.name, m.name);
                regressed = true;
                continue;
            }
            let verdict = judge(m.better, m.bound, &va, &vb);
            regressed |= verdict == Verdict::Regressed;
            let med = |v: &[f64]| stats::median(v).expect("non-empty");
            let quart = |v: &[f64]| {
                let (q1, q3) = stats::quartiles(v).expect("non-empty");
                format!("[{q1:.4}, {q3:.4}]")
            };
            let _ = writeln!(
                table,
                "{:<13} {:<14} {:>3} {:>11.4} {:>23} {:>3} {:>11.4} {:>23} {:>7.4} {:>6.2}  {}",
                w.name,
                m.name,
                va.len(),
                med(&va),
                quart(&va),
                vb.len(),
                med(&vb),
                quart(&vb),
                med(&vb) / med(&va),
                m.bound,
                verdict.as_str()
            );
        }
    }

    let mut identities: BTreeMap<(&str, (u64, u64)), &str> = BTreeMap::new();
    for run in a.iter().chain(b) {
        let first = identities.entry((&run.workload, run.key)).or_insert(&run.identity);
        if *first != run.identity {
            let _ = writeln!(
                table,
                "{:<13} seed {} seconds {}: mismatch\n    {}\n    {}",
                run.workload, run.key.0, run.key.1, first, run.identity
            );
            regressed = true;
        }
    }
    Outcome { table, regressed }
}

pub fn compare_dirs(a: &Path, b: &Path) -> Result<Outcome, String> {
    Ok(compare_sets(&load_set(a)?, &load_set(b)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let scale = |k: f64| steady.map(|v| v * k);
        // Lower is better, bound 7%.
        assert_eq!(judge(Better::Lower, 0.07, &steady, &scale(1.05)), Verdict::Ok);
        assert_eq!(judge(Better::Lower, 0.07, &steady, &scale(1.10)), Verdict::Regressed);
        assert_eq!(judge(Better::Lower, 0.07, &steady, &scale(0.80)), Verdict::Ok);
        // Higher is better: a drop regresses, a rise does not.
        assert_eq!(judge(Better::Higher, 0.07, &steady, &scale(0.90)), Verdict::Regressed);
        assert_eq!(judge(Better::Higher, 0.07, &steady, &scale(1.30)), Verdict::Ok);
        // A spread wider than the bound resolves nothing …
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(judge(Better::Lower, 0.07, &noisy, &steady), Verdict::Unresolved);
        assert_eq!(judge(Better::Lower, 0.07, &steady, &noisy), Verdict::Unresolved);
        // … unless every run of B beats every run of A.
        assert_eq!(judge(Better::Lower, 0.07, &noisy, &scale(0.5)), Verdict::Ok);
    }

    fn run(workload: &str, seed: u64, attempted: u64, ops_per_s: f64) -> Run {
        let doc = format!(
            r#"{{"workload": "{workload}", "seed": {seed}, "seconds": 16, "trace": false,
                "attempted": {attempted}, "input_fingerprint": "00ff", "result_digest": null,
                "metrics": [{{"name": "setup_s", "value": 1.0}},
                            {{"name": "ops_per_s", "value": {ops_per_s}}},
                            {{"name": "lat_p50_us", "value": 50.0}},
                            {{"name": "lat_p99_us", "value": 500.0}},
                            {{"name": "cpu_us_per_op", "value": 60.0}},
                            {{"name": "mem_amp", "value": 8.5}}]}}"#
        );
        load_run(&json::parse(&doc).unwrap()).unwrap()
    }

    fn set(ops_per_s: f64, attempted: u64) -> Vec<Run> {
        WORKLOADS
            .iter()
            .flat_map(|w| (0..5).map(move |s| run(w.name, s, attempted, ops_per_s + s as f64)))
            .collect()
    }

    #[test]
    fn identical_sets_pass_slower_set_regresses_changed_work_mismatches() {
        let same = compare_sets(&set(1000.0, 64), &set(1000.0, 64));
        assert!(!same.regressed, "{}", same.table);
        assert!(!same.table.contains("unresolved") && !same.table.contains("regressed"));

        let slower = compare_sets(&set(1000.0, 64), &set(700.0, 64));
        assert!(slower.regressed);
        assert_eq!(slower.table.matches("regressed").count(), WORKLOADS.len());

        let other_work = compare_sets(&set(1000.0, 64), &set(1000.0, 65));
        assert!(other_work.regressed);
        assert!(other_work.table.contains("mismatch"));
    }

    #[test]
    fn traced_results_are_not_compared() {
        let doc = json::parse(r#"{"trace": true, "workload": "engine-range"}"#).unwrap();
        assert!(load_run(&doc).is_none());
    }
}
