//! E7 — mechanical checking of the paper's lemmas: exhaustive bounded
//! exploration (safety lemmas 2, 3, 4, 9 + the Theorem-1 closure) and
//! weakly-fair runs (liveness lemmas 7, 11, 12 + both theorems' limits).

use dinefd_explore::{explore, explore_composed, fair_run, ComposedConfig, ExploreConfig};
use dinefd_sim::MetricMap;

use crate::table::{Report, Table};
use crate::{timed, ExperimentConfig};

/// Worker count of the cross-check column.
const PAR_THREADS: usize = 4;

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
            "par agree",
            "por agree",
        ],
    );
    let mut metrics = MetricMap::new();
    let mut states_total = 0u64;
    let mut transitions_total = 0u64;
    let mut rows_total = 0u64;
    let mut agree_total = 0u64;
    let mut por_agree_total = 0u64;
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
                // Cross-checks: several workers and the POR run must reach
                // the same verdict on the same configuration.
                let par = explore(&ExploreConfig { threads: PAR_THREADS, ..base });
                let por = explore(&ExploreConfig { por: true, ..base });
                let agree = par.states_visited == report.states_visited
                    && par.transitions == report.transitions
                    && par.clean() == report.clean()
                    && par.deadlocks == report.deadlocks;
                let por_agree = por.states_visited == report.states_visited
                    && por.transitions == report.transitions
                    && por.clean() == report.clean()
                    && por.deadlocks == report.deadlocks;
                states_total += report.states_visited as u64;
                transitions_total += report.transitions;
                rows_total += 1;
                agree_total += agree as u64;
                por_agree_total += por_agree as u64;
                safety.row(vec![
                    if strict { "hardened".into() } else { "paper".to_string() },
                    if allow_crash { "yes".into() } else { "no".to_string() },
                    depth.to_string(),
                    report.states_visited.to_string(),
                    report.transitions.to_string(),
                    report.violations.len().to_string(),
                    report.deadlocks.to_string(),
                    format!("{:.0}", report.states_visited as f64 / secs / 1_000.0),
                    if agree { "yes".into() } else { "NO".to_string() },
                    if por_agree { "yes".into() } else { "NO".to_string() },
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
            "par agree",
            "por agree",
            "por skips",
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
            let par = explore_composed(&ComposedConfig { threads: PAR_THREADS, ..base });
            let por = explore_composed(&ComposedConfig { por: true, ..base });
            let agree = par.states_visited == r.states_visited
                && par.transitions == r.transitions
                && par.clean() == r.clean()
                && par.deadlocks == r.deadlocks;
            let por_agree = por.states_visited == r.states_visited
                && por.transitions == r.transitions
                && por.clean() == r.clean()
                && por.deadlocks == r.deadlocks;
            states_total += r.states_visited as u64;
            transitions_total += r.transitions;
            rows_total += 1;
            agree_total += agree as u64;
            por_agree_total += por_agree as u64;
            composed.row(vec![
                if allow_crash { "yes".into() } else { "no".to_string() },
                if allow_mistakes { "yes".into() } else { "no".to_string() },
                depth.to_string(),
                r.states_visited.to_string(),
                r.transitions.to_string(),
                r.violations.len().to_string(),
                r.deadlocks.to_string(),
                format!("{:.0}", r.states_visited as f64 / secs / 1_000.0),
                if agree { "yes".into() } else { "NO".to_string() },
                if por_agree { "yes".into() } else { "NO".to_string() },
                por.stats.sleep_skips.get().to_string(),
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
    metrics.insert("par_agree_rows".into(), agree_total);
    metrics.insert("por_agree_rows".into(), por_agree_total);
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
        notes: vec![format!(
            "\"par agree\" re-runs each exhaustive row at {PAR_THREADS} workers \
             (sharded visited table) and \"por \
             agree\" with sleep-set POR, comparing states/transitions/clean/\
             deadlocks; \"kstates/s\" is the one-worker throughput. The \
             faithful pair wire is strictly sequential, so POR only finds \
             skippable interleavings on the composed model's fork traffic \
             (\"por skips\"). See E8 for the thread-scaling sweep and the \
             depth frontier."
        )],
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
            assert_eq!(row[8], "yes", "parallel disagreed with serial: {row:?}");
            assert_eq!(row[9], "yes", "POR disagreed with full exploration: {row:?}");
        }
        for row in &report.tables[1].rows {
            assert_eq!(row[5], "0", "composed violations: {row:?}");
            assert_eq!(row[6], "0", "composed deadlocks: {row:?}");
            assert_eq!(row[8], "yes", "parallel disagreed with serial: {row:?}");
            assert_eq!(row[9], "yes", "POR disagreed with full exploration: {row:?}");
        }
        for row in &report.tables[2].rows {
            assert_eq!(row[5], "true", "witnesses must alternate: {row:?}");
        }
        assert_eq!(report.metrics["par_agree_rows"], report.metrics["exhaustive_rows"]);
        assert_eq!(report.metrics["por_agree_rows"], report.metrics["exhaustive_rows"]);
        assert!(report.metrics["states_total"] > 0);
        // POR must actually fire somewhere in the composed sweep.
        assert!(
            report.tables[1].rows.iter().any(|r| r[10] != "0"),
            "composed POR never skipped anything"
        );
    }
}
