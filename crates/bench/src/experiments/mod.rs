//! One module per paper artifact. Every `run(scale)` prints markdown
//! tables carrying the same rows/series the paper's figure or table
//! reports (see the workspace-level `PAPER.md` for the experiment
//! index and known deviations).

pub mod ablation;
pub mod allocation;
pub mod calibration;
pub mod comparison;
pub mod estimators;
pub mod msweep;
pub mod partitioning;
pub mod scalecheck;
pub mod scaling;
pub mod sizes;
pub mod skewprofile;

use crate::Scale;

/// Experiment ids accepted by [`dispatch`].
pub const EXPERIMENTS: &[&str] = &[
    "fig1",
    "fig2a",
    "fig2b",
    "fig3",
    "table3",
    "fig4",
    "fig5",
    "fig6",
    "table4",
    "fig7",
    "fig8abc",
    "fig8d",
    "fig8ef",
    "ablation",
    "scalecheck",
    "all",
];

/// Dispatches an experiment by id. Returns false for unknown ids.
pub fn dispatch(exp: &str, scale: Scale) -> bool {
    match exp {
        "fig1" => skewprofile::run(scale),
        "fig2a" => calibration::run_fig2a(scale),
        "fig2b" => calibration::run_fig2b(scale),
        "fig3" => allocation::run(scale),
        "table3" => estimators::run(scale),
        "fig4" => partitioning::run(scale),
        "fig5" => msweep::run(scale),
        "fig6" => sizes::run_fig6(scale),
        "table4" => sizes::run_table4(scale),
        "fig7" => comparison::run(scale),
        "fig8abc" => scaling::run_dims(scale),
        "fig8d" => scaling::run_skew(scale),
        "fig8ef" => scaling::run_workload_mismatch(scale),
        "ablation" => ablation::run(scale),
        "scalecheck" => scalecheck::run(scale),
        "all" => {
            for exp in EXPERIMENTS.iter().filter(|&&e| e != "all") {
                dispatch(exp, scale);
            }
        }
        _ => return false,
    }
    true
}
