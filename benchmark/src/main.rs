//! The repository's benchmark. See `README.md` beside this crate.
//!
//! ```text
//! gph-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out <dir>]
//! gph-benchmark compare <dir-a> <dir-b>
//! ```

mod affinity;
mod compare;
mod gen;
mod harness;
mod json;
mod metrics;
mod procstat;
mod report;
mod spans;
mod stats;
mod workloads;

use harness::{Opts, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where result files, span files and temporary snapshots go unless
/// `--out` says otherwise: beside the benchmark's sources, relative to
/// the repository root the driver runs the command from.
const DEFAULT_OUT: &str = "benchmark/out";

const USAGE: &str = "usage:
  gph-benchmark --workload <engine-range|serve-mixed|net-cached|cold-restart>
                --seed <n> --seconds <1..60> --trace <0|1> [--quick] [--out <dir>]
  gph-benchmark compare <dir-a> <dir-b>";

fn parse_run_args(args: &[String]) -> Result<(String, Opts), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut quick = false;
    let mut out_dir = PathBuf::from(DEFAULT_OUT);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<u32>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be in 1..=60".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--quick" => quick = true,
            "--out" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let opts = Opts {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        quick,
        out_dir,
    };
    Ok((workload.ok_or("--workload is required")?, opts))
}

/// Temporary files of a run (snapshots, and the spill directories the
/// library creates under `TMPDIR`) live in `<out>/tmp-<pid>`, removed
/// when the guard drops — on success, on a failed check, on an error.
struct TmpDir(PathBuf);

impl TmpDir {
    fn create(out_dir: &Path) -> Result<Self, String> {
        let dir = out_dir.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let dir = dir.canonicalize().map_err(|e| format!("{}: {e}", dir.display()))?;
        // `gph::SpillStore::temp` asks `std::env::temp_dir()`; pointing
        // it here keeps every byte the run writes inside the out
        // directory. Set before any thread exists.
        std::env::set_var("TMPDIR", &dir);
        Ok(TmpDir(dir))
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(name: &str, opts: &Opts) -> Result<Report, String> {
    let tmp = TmpDir::create(&opts.out_dir)?;
    // Before any thread exists, so that all inherit it. A box that
    // refuses is measured unpinned, and the run says so.
    let pinned = affinity::pin_to_one_cpu();
    let mut report = workloads::run(name, opts, &tmp.0)?;
    report.notes.push(match pinned {
        Ok(cpu) => format!("process pinned to CPU {cpu}"),
        Err(e) => format!("process NOT pinned to one CPU ({e}): expect bimodal latencies"),
    });
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => match compare::compare_dirs(Path::new(a), Path::new(b)) {
                Ok(outcome) => {
                    print!("{}", outcome.table);
                    if outcome.regressed {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let (name, opts) = match parse_run_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&name, &opts) {
        Ok(report) => {
            print!("{}", report::human(&report));
            match report::write_result(&report, &opts.out_dir) {
                Ok(path) => println!("result written to {}", path.display()),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
            println!("{}", report::driver_line(&report));
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{name}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};

    fn quick(workload: &str, trace: bool, tag: &str) -> Report {
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{workload}-{}-{tag}", u8::from(trace)));
        std::fs::create_dir_all(&out_dir).unwrap();
        let opts = Opts { seed: 11, seconds: 1, trace, quick: true, out_dir: out_dir.clone() };
        // Not `run`: tests share a process, and `TMPDIR` with it.
        let tmp = out_dir.join("tmp");
        std::fs::create_dir_all(&tmp).unwrap();
        let report = workloads::run(workload, &opts, &tmp).unwrap();
        report::write_result(&report, &out_dir).unwrap();
        std::fs::remove_dir_all(&out_dir).unwrap();
        report
    }

    fn value(r: &Report, name: &str) -> f64 {
        r.metrics.iter().find(|m| m.name == name).unwrap().value
    }

    /// Every workload, tiny: nothing fails, the driver's line carries
    /// every end-to-end metric, and two invocations agree on everything
    /// that is not a clock.
    #[test]
    fn quick_smoke_of_every_workload_repeats() {
        for w in &WORKLOADS {
            let (a, b) = (quick(w.name, false, "a"), quick(w.name, false, "b"));
            for r in [&a, &b] {
                assert!(r.correct, "{}: {} of {} failed", w.name, r.failed, r.attempted);
                assert_eq!(r.failed, 0);
                assert!(r.metrics.iter().map(|m| m.name).eq(END_TO_END.iter().map(|m| m.name)));
                assert!(r.metrics.iter().all(|m| m.value > 0.0 && m.value.is_finite()));
                let line = json::parse(&report::driver_line(r)).unwrap();
                assert_eq!(line.as_object().unwrap().len(), 4);
                json::parse(&report::result_json(r)).unwrap();
            }
            assert_eq!(a.attempted, b.attempted, "{}", w.name);
            assert_eq!(a.input_fingerprint, b.input_fingerprint, "{}", w.name);
            assert_eq!(a.result_digest, b.result_digest, "{}", w.name);
            assert_eq!(value(&a, "mem_amp"), value(&b, "mem_amp"), "{}", w.name);
        }
    }

    /// Counts the traced run reports must repeat bit for bit.
    const EXACT: [&str; 10] = [
        "gph.signatures_per_op",
        "gph.postings_per_op",
        "gph.candidates_per_op",
        "gph.scanned_per_op",
        "gph.results_per_op",
        "gph.candidate_precision",
        "segment.seals_per_round",
        "segment.segments_end",
        "net.protocol_errors",
        "snapshot.bytes_per_row",
    ];

    #[test]
    fn quick_traced_runs_repeat_their_exact_counts() {
        for w in &WORKLOADS {
            let (a, b) = (quick(w.name, true, "a"), quick(w.name, true, "b"));
            for r in [&a, &b] {
                assert!(r.correct, "{}: {} of {} failed", w.name, r.failed, r.attempted);
                assert!(r.metrics.iter().map(|m| m.name).eq(PER_LAYER.iter().map(|m| m.name)));
                assert!(!r.span_totals.is_empty());
            }
            for name in EXACT {
                assert_eq!(value(&a, name), value(&b, name), "{} {name}", w.name);
            }
        }
        // The layers a workload leaves idle report no work.
        let engine = quick("engine-range", true, "idle");
        assert!(value(&engine, "gph.candidates_per_op") > 0.0);
        for idle in ["net.bytes_per_op", "coldstore.misses_per_op", "segment.seals_per_round"] {
            assert_eq!(value(&engine, idle), 0.0);
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let (name, opts) =
            parse_run_args(&args("--workload net-cached --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (name.as_str(), opts.seed, opts.seconds, opts.trace),
            ("net-cached", 3, 10, true)
        );
        assert_eq!(opts.out_dir, Path::new(DEFAULT_OUT));
        for bad in [
            "--workload x --seed 1 --seconds 10",
            "--workload x --seed 1 --seconds 0 --trace 0",
            "--workload x --seed 1 --seconds 61 --trace 0",
            "--workload x --seed 1 --seconds 10 --trace 2",
            "--workload x --seed -1 --seconds 10 --trace 0",
            "--workload x --seed 1 --seconds 10 --trace 0 --frobnicate",
            "--workload",
        ] {
            assert!(parse_run_args(&args(bad)).is_err(), "{bad}");
        }
        let opts = Opts { seed: 1, seconds: 1, trace: false, quick: true, out_dir: "x".into() };
        assert!(workloads::run("no-such-workload", &opts, Path::new("x")).is_err());
    }
}
