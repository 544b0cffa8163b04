//! E4 — the Section 3 separation: the contention-manager reduction of
//! reference \[8\] is not black-box portable; the paper's two-instance
//! reduction is.
//!
//! Both extractors run over the same pathological-but-legal black box
//! (`CoordDining` under `GrantRegime::DelayedConvergence`). The flawed extractor's monitored process
//! enters the critical section during the non-exclusive prefix and never
//! exits, so the box never reaches its exclusive regime and the watcher's
//! wrongful suspicions grow without bound; the paper's reduction converges
//! because its subject threads always exit (the hand-off throttles the
//! witness instead).

use dinefd_core::{run_extraction, run_flawed_pair, BlackBox, OracleSpec, Scenario};
use dinefd_sim::{CrashPlan, ProcessId, Time};

use crate::table::{Report, Table};
use crate::{parallel_map, ExperimentConfig};

/// Runs E4 and returns the report.
pub fn run(cfg: &ExperimentConfig) -> Report {
    let t_wx = Time(1_500);
    let horizons = [Time(10_000), Time(20_000), Time(40_000)];
    let mut table = Table::new(
        "Wrongful suspicions of a correct subject vs run length \
         (black box: delayed-convergence)",
        &[
            "horizon",
            "runs",
            "flawed [8]: mistakes (mean)",
            "flawed [8]: still flapping",
            "this paper: mistakes (mean)",
            "this paper: converged",
        ],
    );
    for horizon in horizons {
        let flawed = parallel_map(0..cfg.seeds, move |seed| {
            let h = run_flawed_pair(
                BlackBox::Delayed { convergence: t_wx },
                4_000 + seed,
                CrashPlan::none(),
                horizon,
            );
            let mistakes = h.mistake_intervals(ProcessId(0), ProcessId(1)) as u64;
            let last_change = h
                .timeline(ProcessId(0), ProcessId(1))
                .changes()
                .last()
                .map_or(Time::ZERO, |&(t, _)| t);
            // "Still flapping": the output changed in the last 10% of the run.
            let flapping = last_change.ticks() * 10 > horizon.ticks() * 9;
            (mistakes, flapping)
        });
        let ours = parallel_map(0..cfg.seeds, move |seed| {
            let mut sc = Scenario::pair(BlackBox::Delayed { convergence: t_wx }, 4_000 + seed);
            sc.oracle = OracleSpec::Perfect { lag: 20 };
            sc.horizon = horizon;
            let crashes = sc.crashes.clone();
            let res = run_extraction(sc);
            let mistakes = res.history.mistake_intervals(ProcessId(0), ProcessId(1)) as u64;
            let converged = res.history.eventual_strong_accuracy(&crashes).is_ok();
            (mistakes, converged)
        });
        let fm = flawed.iter().map(|&(m, _)| m as f64).sum::<f64>() / flawed.len() as f64;
        let ff = flawed.iter().filter(|&&(_, f)| f).count();
        let om = ours.iter().map(|&(m, _)| m as f64).sum::<f64>() / ours.len() as f64;
        let oc = ours.iter().filter(|&&(_, c)| c).count();
        table.row(vec![
            horizon.ticks().to_string(),
            cfg.seeds.to_string(),
            format!("{fm:.0}"),
            format!("{ff}/{}", flawed.len()),
            format!("{om:.1}"),
            format!("{oc}/{}", ours.len()),
        ]);
    }
    Report {
        title: "E4 — the [8] reduction is not black-box; this paper's is (§3)".into(),
        preamble: "Paper claim: there is a legal WF-◇WX implementation (the \
                   delayed-convergence service, modeled on [12]'s behaviour) on which \
                   the construction of [8] suspects a correct process infinitely \
                   often, while the two-instance reduction still extracts ◇P. \
                   Measured: the flawed extractor's mistake count grows roughly \
                   linearly with the horizon and keeps flapping to the end; the \
                   paper's reduction converges with a small constant mistake count."
            .into(),
        tables: vec![table],
        notes: vec![],
        metrics: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_separation_is_visible() {
        let cfg = ExperimentConfig { seeds: 2 };
        let report = run(&cfg);
        let rows = &report.tables[0].rows;
        // Flawed mistakes grow with horizon; ours stay small and converged.
        let flawed_first: f64 = rows[0][2].parse().unwrap();
        let flawed_last: f64 = rows[rows.len() - 1][2].parse().unwrap();
        assert!(flawed_last > flawed_first * 2.0, "no growth: {flawed_first} → {flawed_last}");
        // Our reduction's mistakes all happen during the finite non-exclusive
        // prefix: the count must NOT grow with the horizon.
        let ours_first: f64 = rows[0][4].parse().unwrap();
        let ours_last: f64 = rows[rows.len() - 1][4].parse().unwrap();
        assert!(
            ours_last <= ours_first * 1.5 + 10.0,
            "our mistakes grew with horizon: {ours_first} → {ours_last}"
        );
        for row in rows {
            crate::table::assert_frac_full(&row[5], "our reduction failed to converge", row);
        }
    }
}
