//! E7 — mechanical checking of the paper's lemmas: exhaustive bounded
//! exploration (safety lemmas 2, 3, 4, 9 + the Theorem-1 closure) and
//! weakly-fair runs (liveness lemmas 7, 11, 12 + both theorems' limits).

use dinefd_explore::{explore, explore_composed, fair_run, ComposedConfig, ExploreConfig};
use dinefd_sim::MetricMap;

use crate::table::{Report, Table};
use crate::{timed, ExperimentConfig};

/// Runs E7 and returns the report.
pub fn run(cfg: &ExperimentConfig) -> Report {
    // The deepest rows are the depth frontier the fingerprinted store
    // opened up; see also E8's frontier sweep.
    let depths: &[u32] = if cfg.seeds <= 3 { &[20, 48, 60] } else { &[20, 60, 120, 200] };
    let mut safety = Table::new(
        "Exhaustive safety exploration of the pair model",
        &[
            "variant",
            "crashes",
            "depth",
            "states",
            "transitions",
            "violations",
            "deadlocks",
            "kstates/s",
        ],
    );
    let mut metrics = MetricMap::new();
    let mut states_total = 0u64;
    let mut transitions_total = 0u64;
    let mut rows_total = 0u64;
    for &strict in &[false, true] {
        for &allow_crash in &[true, false] {
            for &depth in depths {
                let base = ExploreConfig {
                    max_depth: depth,
                    max_states: 5_000_000,
                    strict_seq: strict,
                    allow_crash,
                    ..Default::default()
                };
                let (report, secs) = timed(|| explore(&base));
                states_total += report.states_visited as u64;
                transitions_total += report.transitions;
                rows_total += 1;
                safety.row(vec![
                    if strict { "hardened".into() } else { "paper".to_string() },
                    if allow_crash { "yes".into() } else { "no".to_string() },
                    depth.to_string(),
                    report.states_visited.to_string(),
                    report.transitions.to_string(),
                    report.violations.len().to_string(),
                    report.deadlocks.to_string(),
                    format!("{:.0}", report.states_visited as f64 / secs / 1_000.0),
                ]);
            }
        }
    }

    let composed_depths: &[u32] = if cfg.seeds <= 3 { &[10, 12] } else { &[10, 14, 16] };
    let mut composed = Table::new(
        "Exhaustive exploration of the reduction COMPOSED with the real fork algorithm",
        &[
            "crashes",
            "mistakes",
            "depth",
            "states",
            "transitions",
            "violations",
            "deadlocks",
            "kstates/s",
        ],
    );
    for &(allow_crash, allow_mistakes) in &[(false, false), (true, false), (true, true)] {
        for &depth in composed_depths {
            let base = ComposedConfig {
                max_depth: depth,
                max_states: 3_000_000,
                allow_crash,
                allow_mistakes,
                strict_seq: false,
                ..Default::default()
            };
            let (r, secs) = timed(|| explore_composed(&base));
            states_total += r.states_visited as u64;
            transitions_total += r.transitions;
            rows_total += 1;
            composed.row(vec![
                if allow_crash { "yes".into() } else { "no".to_string() },
                if allow_mistakes { "yes".into() } else { "no".to_string() },
                depth.to_string(),
                r.states_visited.to_string(),
                r.transitions.to_string(),
                r.violations.len().to_string(),
                r.deadlocks.to_string(),
                format!("{:.0}", r.states_visited as f64 / secs / 1_000.0),
            ]);
        }
    }

    let mut liveness = Table::new(
        "Weakly-fair runs of the pair model (liveness lemmas)",
        &[
            "variant",
            "scenario",
            "rounds",
            "w eats (0/1)",
            "s eats (0/1)",
            "alternating",
            "final output",
            "stabilized by",
        ],
    );
    for &strict in &[false, true] {
        let variant = if strict { "hardened" } else { "paper" };
        for (scenario, converge, crash) in [
            ("correct q, converge@50", 50u32, None),
            ("q crashes @120", 50, Some(120u32)),
            ("late convergence @500", 500, None),
        ] {
            let r = fair_run(800, converge, crash, strict);
            assert!(r.violations.is_empty(), "fair-run violations: {:?}", r.violations);
            liveness.row(vec![
                variant.to_string(),
                scenario.to_string(),
                r.rounds.to_string(),
                format!("{}/{}", r.witness_eats[0], r.witness_eats[1]),
                format!("{}/{}", r.subject_eats[0], r.subject_eats[1]),
                r.witnesses_alternate().to_string(),
                if r.final_suspects { "suspect".into() } else { "trust".to_string() },
                format!("round {}", r.stabilized_at()),
            ]);
        }
    }

    metrics.insert("states_total".into(), states_total);
    metrics.insert("transitions_total".into(), transitions_total);
    metrics.insert("exhaustive_rows".into(), rows_total);
    Report {
        title: "E7 — mechanical lemma checking (exhaustive + fair runs)".into(),
        preamble: "The corrigendum to this paper exists because message-regime proofs \
                   are delicate; here the safety lemmas (2, 3, 4, 9), the exclusive- \
                   regime soundness, and the Theorem-1 closure are checked over EVERY \
                   interleaving of the pair model up to the depth bound, for both the \
                   paper's algorithm and the hardened (sequence-tagged) variant. The \
                   liveness lemmas (7, 11, 12) and both theorems' limit behaviours \
                   are checked on weakly-fair schedules."
            .into(),
        tables: vec![safety, composed, liveness],
        notes: vec!["\"kstates/s\" is the breadth-first search's throughput on the \
                     calling thread; tests/reference_bfs.rs in crates/explore holds \
                     its figures to an independent reference search. See E8 for the \
                     depth frontier."
            .into()],
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_everything_clean() {
        let cfg = ExperimentConfig { seeds: 2 };
        let report = run(&cfg);
        for row in &report.tables[0].rows {
            assert_eq!(row[5], "0", "safety violations: {row:?}");
            assert_eq!(row[6], "0", "deadlocks: {row:?}");
        }
        for row in &report.tables[1].rows {
            assert_eq!(row[5], "0", "composed violations: {row:?}");
            assert_eq!(row[6], "0", "composed deadlocks: {row:?}");
        }
        for row in &report.tables[2].rows {
            assert_eq!(row[5], "true", "witnesses must alternate: {row:?}");
        }
        assert_eq!(report.metrics["exhaustive_rows"], 18, "12 pair rows and 6 composed rows");
        assert!(report.metrics["states_total"] > 0);
    }
}
