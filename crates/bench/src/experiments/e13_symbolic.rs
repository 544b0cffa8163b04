//! E13 — symbolic k-induction over the bit-blasted IR: the SAT engine must
//! (a) agree with the explicit enumerator byte-for-byte at the default wire
//! cap across the whole seeded-mutation matrix — verdicts, retained CTI
//! triples, and real/spurious classifications — and (b) discharge every
//! obligation at caps the enumerator cannot touch, with deterministic solver
//! statistics that double as perf-regression baselines.

use dinefd_analyze::induct::{run_induction, InductOptions, LEMMA_SPECS};
use dinefd_analyze::ir::{IrConfig, MAX_WIRE_CAP, MIN_WIRE_CAP};
use dinefd_analyze::kinduct::{agrees_with_explicit, run_kinduction, KinductOptions};
use dinefd_core::machines::SubjectMutation;
use dinefd_explore::ModelMutation;
use dinefd_sim::MetricMap;

use crate::table::{Report, Table};
use crate::ExperimentConfig;

/// Wire caps swept by the scaling table. Cap 2 is the agreement anchor;
/// caps 4 and 8 are beyond the explicit enumerator's practical range.
const CAPS: [u8; 3] = [MIN_WIRE_CAP, 4, MAX_WIRE_CAP];

/// The cap-2 agreement matrix: `(stable key, expectation, config)`, the same
/// eight configurations E11 enumerates. `expectation` is `true` when every
/// obligation must prove.
fn configs() -> Vec<(&'static str, bool, IrConfig)> {
    let faithful = IrConfig::faithful();
    vec![
        ("faithful", true, faithful),
        ("hardened", true, IrConfig { strict_seq: true, ..faithful }),
        ("no_crash", true, IrConfig { allow_crash: false, ..faithful }),
        (
            "skip_ping_disable",
            false,
            IrConfig { subject_mutation: SubjectMutation::SkipPingDisable, ..faithful },
        ),
        (
            "ignore_trigger_guard",
            false,
            IrConfig { subject_mutation: SubjectMutation::IgnoreTriggerGuard, ..faithful },
        ),
        (
            "stale_ack_replay",
            false,
            IrConfig { model_mutation: ModelMutation::StaleAckReplay, ..faithful },
        ),
        (
            "skip_trigger_update",
            true,
            IrConfig { subject_mutation: SubjectMutation::SkipTriggerUpdate, ..faithful },
        ),
        (
            "drop_ping_send",
            true,
            IrConfig { model_mutation: ModelMutation::DropPingSend, ..faithful },
        ),
    ]
}

/// Runs E13 and returns the report.
pub fn run(cfg: &ExperimentConfig) -> Report {
    let classify_opts = InductOptions {
        keep_ctis: 4,
        classify: if cfg.seeds <= 3 { 1 } else { 2 },
        ..InductOptions::default()
    };
    let kopts =
        KinductOptions { keep_ctis: 4, classify: classify_opts, ..KinductOptions::default() };

    let mut scaling = Table::new(
        "Symbolic k-induction across wire caps (faithful configuration)",
        &[
            "cap",
            "typed states",
            "lemmas",
            "closure",
            "vars",
            "clauses",
            "solves",
            "decisions",
            "conflicts",
            "verdict",
        ],
    );
    let mut metrics = MetricMap::new();

    for cap in CAPS {
        let ir_cfg = IrConfig { wire_cap: cap, ..IrConfig::faithful() };
        let run = run_kinduction(&ir_cfg, &kopts);
        let proved = run.lemmas.iter().filter(|v| v.proved()).count();
        scaling.row(vec![
            cap.to_string(),
            // 41472 machine/phase combinations × (cap+1)^4 wire valuations.
            (41_472u64 * (u64::from(cap) + 1).pow(4)).to_string(),
            format!("{proved}/{} proved", run.lemmas.len()),
            if run.closure_ok { "proved".into() } else { "FAILS".to_string() },
            run.vars.to_string(),
            run.clauses.to_string(),
            run.stats.solves.to_string(),
            run.stats.decisions.to_string(),
            run.stats.conflicts.to_string(),
            if run.all_proved() { "all proved".into() } else { "UNEXPECTED".to_string() },
        ]);
        metrics.insert(format!("cap{cap}_all_proved"), run.all_proved() as u64);
        metrics.insert(format!("cap{cap}_vars"), run.vars);
        metrics.insert(format!("cap{cap}_clauses"), run.clauses);
        metrics.insert(format!("cap{cap}_solves"), run.stats.solves);
        metrics.insert(format!("cap{cap}_decisions"), run.stats.decisions);
        metrics.insert(format!("cap{cap}_conflicts"), run.stats.conflicts);
        metrics.insert(format!("cap{cap}_learned"), run.stats.learned);
        for spec in &LEMMA_SPECS {
            let v = run.lemma(spec.name);
            metrics.insert(
                format!("cap{cap}_{}_proved_k", spec.name),
                u64::from(v.proved_k.unwrap_or(0)),
            );
        }
    }

    let mut agreement = Table::new(
        "Engine agreement at the default cap across the seeded-mutation matrix",
        &["config", "expect", "symbolic", "explicit", "CTIs", "agreement"],
    );
    let mut agree_ok = 0u64;
    let mut as_expected = 0u64;
    let results = crate::parallel_map(configs(), |(key, expect_proved, ir_cfg)| {
        let sym = run_kinduction(&ir_cfg, &kopts);
        let exp = run_induction(&ir_cfg, &kopts.classify);
        (key, expect_proved, sym, exp)
    });
    for (key, expect_proved, sym, exp) in results {
        let agrees = agrees_with_explicit(&sym, &exp).is_ok();
        let matches = sym.all_proved() == expect_proved;
        agree_ok += agrees as u64;
        as_expected += matches as u64;
        let ctis: u64 = sym.lemmas.iter().map(|v| v.ctis.len() as u64).sum();
        agreement.row(vec![
            key.to_string(),
            if expect_proved { "proved".into() } else { "CTI".to_string() },
            if sym.all_proved() { "proved".into() } else { "CTI".to_string() },
            if exp.all_inductive() { "inductive".into() } else { "CTI".to_string() },
            ctis.to_string(),
            if agrees && matches { "byte-identical".into() } else { "DISAGREE".to_string() },
        ]);
        metrics.insert(format!("{key}_agrees"), agrees as u64);
        metrics.insert(format!("{key}_all_proved"), sym.all_proved() as u64);
        metrics.insert(format!("{key}_as_expected"), matches as u64);
        metrics.insert(format!("{key}_ctis"), ctis);
    }

    let n = configs().len() as u64;
    metrics.insert("configs".into(), n);
    metrics.insert("configs_agree".into(), agree_ok);
    metrics.insert("configs_as_expected".into(), as_expected);

    Report {
        title: "E13 — symbolic k-induction (SAT over the bit-blasted IR)".into(),
        preamble: "E11's explicit sweep scales as (cap+1)^4 and is practical only at the \
                   default wire cap 2. Here each induction obligation is discharged as a \
                   SAT query over a Tseitin-encoded transition relation (self-contained \
                   deterministic CDCL solver, no external dependencies): the base and \
                   step cases go UNSAT exactly when the lemma is inductive, and SAT \
                   models decode to the same (pre, action, post) \
                   counterexamples-to-induction the enumerator retains. At cap 2 the two \
                   engines are byte-for-byte interchangeable — verdicts, retained CTI \
                   sets, and replay classifications; at caps 4 and 8 the symbolic engine \
                   proves the same lemmas over typed domains of up to 2.7e8 states in \
                   milliseconds. Solver statistics are deterministic and serve as \
                   perf-regression baselines."
            .into(),
        tables: vec![scaling, agreement],
        notes: vec!["\"byte-identical\" means `agrees_with_explicit` found no difference: \
             per-lemma verdicts, base-case results, retained CTI triples in \
             enumeration order, broken-clause sets, and real/spurious \
             classifications all match. The mutation expectations mirror E11: \
             SkipPingDisable, IgnoreTriggerGuard and StaleAckReplay must fail with \
             CTIs, the safety-silent mutations must still prove."
            .into()],
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e13_engines_agree_and_scale() {
        let report = run(&ExperimentConfig { seeds: 2 });
        assert_eq!(report.metrics["configs_agree"], report.metrics["configs"]);
        assert_eq!(report.metrics["configs_as_expected"], report.metrics["configs"]);
        for cap in CAPS {
            assert_eq!(report.metrics[&format!("cap{cap}_all_proved")], 1, "cap {cap}");
        }
        for row in &report.tables[1].rows {
            assert_eq!(row[5], "byte-identical", "{row:?}");
        }
        // Deterministic solver work strictly grows with the cap.
        assert!(report.metrics["cap2_clauses"] < report.metrics["cap8_clauses"]);
    }
}
