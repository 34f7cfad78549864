//! Experiment runner CLI.
//!
//! ```text
//! experiments <exp> [--scale tiny|small|medium]
//! ```

use bench::experiments::{dispatch, EXPERIMENTS};
use bench::Scale;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut exp: Option<String> = None;
    let mut scale = Scale::small();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| Scale::parse(s)) else {
                    eprintln!("--scale needs one of: tiny, small, medium");
                    return ExitCode::FAILURE;
                };
                scale = v;
            }
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other if exp.is_none() => exp = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument: {other}");
                usage();
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let Some(exp) = exp else {
        usage();
        return ExitCode::FAILURE;
    };
    println!("# GPH experiments — {exp} (rows≈{}, {} queries)\n", scale.base_rows, scale.n_queries);
    let t = std::time::Instant::now();
    if !dispatch(&exp, scale) {
        eprintln!("unknown experiment: {exp}");
        usage();
        return ExitCode::FAILURE;
    }
    println!("[done in {:.1}s]", t.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}

fn usage() {
    eprintln!("usage: experiments <exp> [--scale tiny|small|medium]");
    eprintln!("experiments: {}", EXPERIMENTS.join(" "));
}
