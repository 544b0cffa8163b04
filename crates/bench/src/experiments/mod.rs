//! The experiment suite (E1–E13). Each module's `run` produces the report for
//! one EXPERIMENTS.md entry.

pub mod e10_substrates;
pub mod e11_induct;
pub mod e12_fuzz;
pub mod e13_symbolic;
pub mod e1_completeness;
pub mod e2_accuracy;
pub mod e3_handoff;
pub mod e4_flawed;
pub mod e5_trusting;
pub mod e6_fairness;
pub mod e7_explore;
pub mod e8_scale;
pub mod e9_ablation;

use crate::table::Report;
use crate::ExperimentConfig;

/// The experiment with the given id ("e1".."e13"), or `None` for an
/// unknown id.
pub fn by_id(id: &str) -> Option<fn(&ExperimentConfig) -> Report> {
    Some(match id {
        "e1" => e1_completeness::run,
        "e2" => e2_accuracy::run,
        "e3" => e3_handoff::run,
        "e4" => e4_flawed::run,
        "e5" => e5_trusting::run,
        "e6" => e6_fairness::run,
        "e7" => e7_explore::run,
        "e8" => e8_scale::run,
        "e9" => e9_ablation::run,
        "e10" => e10_substrates::run,
        "e11" => e11_induct::run,
        "e12" => e12_fuzz::run,
        "e13" => e13_symbolic::run,
        _ => return None,
    })
}

/// All experiment ids in order.
pub const ALL: &[&str] =
    &["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13"];
