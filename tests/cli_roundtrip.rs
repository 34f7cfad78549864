//! Drives the real `gph-store` binary through its file-based lifecycle
//! — `generate` → `build --data` → `info` → `query --index --queries` —
//! and checks what it prints against `Dataset::linear_scan`, plus the two
//! argument errors a user is most likely to make: a `--tau` the snapshot
//! was not built for, and a misspelt flag.

use gph_suite::hamming_core::io::{read_dataset, write_dataset};
use gph_suite::hamming_core::Dataset;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch directory of this test's own, removed on drop (also when an
/// assertion fails).
struct TempDir(PathBuf);

impl TempDir {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("gph-store-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("creating the scratch directory");
        TempDir(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_str().expect("utf-8 temp path").to_string()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn gph_store(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gph-store")).args(args).output().expect("running gph-store")
}

fn stdout_of(args: &[&str]) -> String {
    let out = gph_store(args);
    assert!(
        out.status.success(),
        "gph-store {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Asserts a non-zero exit and returns stderr.
fn stderr_of_failure(args: &[&str]) -> String {
    let out = gph_store(args);
    assert!(!out.status.success(), "gph-store {args:?} should have failed");
    String::from_utf8(out.stderr).expect("utf-8 stderr")
}

/// Parses `query <qi>: <n> results [a, b, ...]` into `(n, printed ids)`;
/// the CLI prints at most the first 16 ids.
fn parse_query_line(line: &str) -> (usize, Vec<u32>) {
    let (_, rest) = line.split_once(": ").expect("query line has a colon");
    let (n, ids) = rest.split_once(" results ").expect("query line has a count");
    let ids = ids.trim().trim_start_matches('[').trim_end_matches(']');
    let ids = ids.split(", ").filter(|s| !s.is_empty()).map(|s| s.parse().expect("an id"));
    (n.parse().expect("a count"), ids.collect())
}

const ROWS: usize = 600;
const TAU_MAX: u32 = 8;

#[test]
fn generate_build_info_query_matches_linear_scan() {
    let dir = TempDir::new("roundtrip");
    let (data, queries, snap) = (dir.path("data.hamd"), dir.path("q.hamd"), dir.path("snap"));
    let out = stdout_of(&[
        "generate",
        "--profile",
        "gamma0.25",
        "--rows",
        &ROWS.to_string(),
        "--seed",
        "1",
        "--out",
        &data,
    ]);
    assert!(out.contains(&format!("wrote {ROWS} x 128 dims")), "{out}");
    let ds = read_dataset(&data).expect("generate wrote a readable HAMD file");
    assert_eq!((ds.len(), ds.dim()), (ROWS, 128));

    // Corpus rows with 0..5 low bits flipped: every query has at least
    // its own source row within tau >= 5.
    let mut qs = Dataset::new(ds.dim());
    for qi in 0..6 {
        let mut row = ds.row(qi * 97).to_vec();
        row[0] ^= (1u64 << qi) - 1;
        qs.push_row(&row).expect("same width");
    }
    write_dataset(&qs, &queries).expect("writing the query file");

    let out = stdout_of(&[
        "build",
        "--data",
        &data,
        "--out",
        &snap,
        "--shards",
        "2",
        "--tau-max",
        &TAU_MAX.to_string(),
    ]);
    assert!(out.contains(&format!("built {ROWS} rows x 128 dims over 2 shard(s)")), "{out}");

    let info = stdout_of(&["info", "--index", &snap]);
    assert!(info.contains(&format!("records:   {ROWS}")), "{info}");
    assert!(info.contains("dims:      128"), "{info}");
    assert!(info.contains(&format!("tau_max:   {TAU_MAX}")), "{info}");
    assert!(info.contains("shards:    2 requested, 2 non-empty"), "{info}");

    for tau in [0, 5, TAU_MAX] {
        let out = stdout_of(&[
            "query",
            "--index",
            &snap,
            "--queries",
            &queries,
            "--tau",
            &tau.to_string(),
        ]);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), qs.len(), "one line per query at tau={tau}: {out}");
        for (qi, line) in lines.iter().enumerate() {
            assert!(line.starts_with(&format!("query {qi}: ")), "{line}");
            let expect = ds.linear_scan(qs.row(qi), tau);
            let (n, printed) = parse_query_line(line);
            assert_eq!(n, expect.len(), "tau={tau} {line}");
            assert_eq!(printed, expect[..expect.len().min(16)], "tau={tau} {line}");
            if tau >= 5 {
                assert!(n >= 1, "query {qi} must find its source row at tau={tau}");
            }
        }
    }

    let beyond = (TAU_MAX + 1).to_string();
    let err =
        stderr_of_failure(&["query", "--index", &snap, "--queries", &queries, "--tau", &beyond]);
    assert!(err.contains("exceeds the snapshot's tau_max"), "{err}");
}

#[test]
fn unknown_flags_are_rejected_before_any_file_is_written() {
    let dir = TempDir::new("flags");
    let out = dir.path("never.hamd");
    let err = stderr_of_failure(&[
        "generate",
        "--profile",
        "gist",
        "--rows",
        "10",
        "--out",
        &out,
        "--sed",
        "1",
    ]);
    assert!(err.contains("unknown flag --sed"), "{err}");
    assert!(!Path::new(&out).exists(), "a rejected command must not write its output");
    let err = stderr_of_failure(&[
        "binarize", "--fvecs", "x.fvecs", "--bits", "64", "--out", &out, "--bit",
    ]);
    assert!(err.contains("unknown flag --bit"), "{err}");
}
