//! E3 — Fig. 1: the witness/subject hand-off structure in the exclusive
//! suffix. Reproduces the figure as an ASCII Gantt chart and checks its two
//! structural properties programmatically.

use dinefd_core::{record_extraction, BlackBox, OracleSpec, PairTimelines, Scenario};
use dinefd_sim::{ProcessId, Time};

use crate::table::{Report, Table};
use crate::{parallel_map, ExperimentConfig};

/// Runs E3 and returns the report.
pub fn run(cfg: &ExperimentConfig) -> Report {
    let t_wx = Time(2_000);
    let suffix_from = Time(6_000); // convergence + generous settling
    let mut table = Table::new(
        "Hand-off structure in the exclusive suffix (per seed)",
        &["seed", "w0/w1 sessions", "s0/s1 sessions", "hand-off violations (suffix)"],
    );
    let runs = parallel_map(0..cfg.seeds, move |seed| {
        let mut sc = Scenario::pair(BlackBox::WfDx, 3_000 + seed);
        sc.oracle =
            OracleSpec::DiamondP { lag: 20, convergence: t_wx, max_mistakes: 3, max_len: 150 };
        sc.horizon = Time(40_000);
        let (res, trace) = record_extraction(sc);
        let tl = PairTimelines::collect(&trace, ProcessId(0), ProcessId(1), res.horizon);
        let w = tl.witness_session_count();
        let s = tl.subject_session_count();
        let violations = tl.handoff_violations(suffix_from);
        (seed, w, s, violations, tl)
    });
    let mut notes = Vec::new();
    for (i, (seed, w, s, violations, tl)) in runs.iter().enumerate() {
        table.row(vec![
            seed.to_string(),
            format!("{}/{}", w[0], w[1]),
            format!("{}/{}", s[0], s[1]),
            violations.len().to_string(),
        ]);
        if i == 0 {
            // Render one Fig. 1 window from the exclusive suffix.
            let t0 = Time(20_000);
            let t1 = Time(21_600);
            notes.push(format!(
                "Fig. 1 reproduction (seed {seed}, window [{}, {}), one column ≈ {} ticks;\n\
                 t=thinking h=hungry E=eating x=exiting):\n\n```\n{}```",
                t0.ticks(),
                t1.ticks(),
                (t1 - t0) / 80,
                tl.ascii(t0, t1, 80)
            ));
        }
    }
    Report {
        title: "E3 — Fig. 1 hand-off structure".into(),
        preamble: "Paper claim (Fig. 1 + Lemmas 8, 12): in the exclusive suffix the \
                   subjects' eating sessions overlap pairwise (some subject is always \
                   eating) and a witness thread cannot eat twice in DX_i without the \
                   subject thread s_i eating in between. Measured: programmatic checks \
                   of both properties on the recorded suffix, plus a rendered timeline."
            .into(),
        tables: vec![table],
        notes,
        metrics: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_suffix_is_handoff_clean() {
        let cfg = ExperimentConfig { seeds: 2 };
        let report = run(&cfg);
        for row in &report.tables[0].rows {
            assert_eq!(row[3], "0", "hand-off violations in {row:?}");
        }
        assert!(report.notes[0].contains("p.w0"));
    }
}
