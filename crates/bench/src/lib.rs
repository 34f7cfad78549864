//! # bench
//!
//! Experiment harness regenerating every table and figure of the GPH
//! paper's evaluation (§VII) on the synthetic stand-in datasets. Timing
//! the stack itself is the job of the repository's `benchmark/` package,
//! not of this crate. Run via:
//!
//! ```text
//! cargo run --release -p bench --bin experiments -- <exp> [--scale tiny|small|medium]
//! ```
//!
//! where `<exp>` is one of `fig1 fig2a fig2b fig3 table3 fig4 fig5 fig6
//! table4 fig7 fig8abc fig8d fig8ef ablation scalecheck all`. Each runner
//! prints a markdown table with the same rows/series as the paper
//! artifact; the workspace-level `PAPER.md` maps every figure/table to
//! its experiment id and lists the known deviations.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod util;

pub use util::{GphEngine, Scale};
