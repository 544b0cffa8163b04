//! E12 — coverage-guided schedule fuzzing over the seeded-mutation matrix:
//! the fuzzer must find a lemma-violating schedule (with a replay-confirmed,
//! ddmin-minimized prefix) for every safety-violating mutation within a
//! fixed deterministic iteration budget, stay silent on the safety-silent
//! controls and the faithful model, and produce byte-identical corpora and
//! metrics across reruns — every `e12.*` key below is diffed against the
//! committed baseline in CI.

use dinefd_fuzz::{replay, scenario_dsl, FuzzConfig, FuzzReport, Fuzzer};
use dinefd_sim::MetricMap;

use crate::table::{Report, Table};
use crate::ExperimentConfig;

/// The fuzzed configurations: `(stable key, expect a finding, [model] body)`.
fn configs() -> Vec<(&'static str, bool, &'static str)> {
    vec![
        ("faithful", false, ""),
        ("skip_ping_disable", true, "subject_mutation = skip-ping-disable"),
        ("ignore_trigger_guard", true, "subject_mutation = ignore-trigger-guard"),
        ("stale_ack_replay", true, "model_mutation = stale-ack-replay"),
        ("skip_trigger_update", false, "subject_mutation = skip-trigger-update"),
        ("drop_ping_send", false, "model_mutation = drop-ping-send"),
    ]
}

fn scenario_for(model_body: &str, iterations: u64) -> FuzzConfig {
    let text = format!(
        "[model]\n{model_body}\n\n[fuzz]\nseed = 1\niterations = {iterations}\n\
         max_steps = 40\ncorpus_seeds = 16\n"
    );
    scenario_dsl::parse(&text).expect("e12 scenario matrix parses")
}

fn campaign(model_body: &str, iterations: u64) -> FuzzReport {
    Fuzzer::new(scenario_for(model_body, iterations)).run()
}

/// Runs E12 and returns the report.
pub fn run(cfg: &ExperimentConfig) -> Report {
    // Budgets are iteration-counted (never wall-clock), so the whole
    // experiment — including the corpus digests — is a pure function of
    // the profile. Quick keeps an ~8x margin over the slowest observed
    // time-to-find; full roughly triples it.
    let iterations: u64 = if cfg.seeds <= 3 { 4_000 } else { 12_000 };

    let mut table = Table::new(
        "Coverage-guided schedule fuzzing per seeded mutation (seed 1)",
        &[
            "config",
            "expect",
            "found",
            "first find (iter)",
            "lemma",
            "raw / min steps",
            "coverage",
            "corpus",
            "verdict",
        ],
    );
    let mut metrics = MetricMap::new();
    let mut as_expected = 0u64;
    let mut safety_bugs_found = 0u64;
    let mut controls_silent = 0u64;

    for (key, expect_finding, model_body) in configs() {
        let report = campaign(model_body, iterations);
        let found = !report.findings.is_empty();
        let matches = found == expect_finding;
        as_expected += matches as u64;
        if expect_finding && found {
            safety_bugs_found += 1;
        }
        if !expect_finding && !found {
            controls_silent += 1;
        }

        // Replay-confirm every minimized prefix against the same scenario's
        // model — a finding that does not reproduce does not count.
        let explore_cfg = scenario_for(model_body, iterations).explore;
        let mut confirmed = 0u64;
        for f in &report.findings {
            let out = replay(&explore_cfg, &f.minimized)
                .unwrap_or_else(|| panic!("{key}: minimized prefix not replayable"));
            let (_, msg) =
                out.violation.unwrap_or_else(|| panic!("{key}: minimized prefix replays clean"));
            assert_eq!(dinefd_fuzz::lemma_key(&msg), f.lemma, "{key}: lemma drifted in replay");
            confirmed += 1;
        }

        let (lemma, raw_min) = match report.findings.first() {
            Some(f) => (f.lemma.clone(), format!("{} / {}", f.path.len(), f.minimized.len())),
            None => ("-".into(), "-".into()),
        };
        table.row(vec![
            key.to_string(),
            if expect_finding { "finding".into() } else { "silent".to_string() },
            found.to_string(),
            report.first_find_iter.map_or("-".into(), |i| i.to_string()),
            lemma,
            raw_min,
            report.coverage_states.to_string(),
            report.corpus_entries.to_string(),
            if matches { "as expected".into() } else { "UNEXPECTED".to_string() },
        ]);

        metrics.insert(format!("{key}_found"), found as u64);
        metrics.insert(format!("{key}_first_find_iter"), report.first_find_iter.unwrap_or(0));
        metrics.insert(format!("{key}_findings"), report.findings.len() as u64);
        metrics.insert(format!("{key}_confirmed"), confirmed);
        metrics.insert(format!("{key}_coverage_states"), report.coverage_states);
        metrics.insert(format!("{key}_corpus_entries"), report.corpus_entries);
        metrics.insert(format!("{key}_corpus_digest"), report.corpus_digest);
        metrics.insert(format!("{key}_executions"), report.executions);
        metrics.insert(format!("{key}_minimize_tests"), report.minimize_tests);
        metrics.insert(
            format!("{key}_minimized_len"),
            report.findings.iter().map(|f| f.minimized.len() as u64).sum(),
        );
        metrics.insert(format!("{key}_as_expected"), matches as u64);
    }

    // Coverage growth on the faithful model: deterministic sequential
    // execution means the k-iteration run IS the prefix of the full run,
    // so checkpoints come from independent (cheap) reruns.
    let mut curve = Table::new(
        "Coverage growth, faithful model (distinct states vs iterations)",
        &["iterations", "coverage", "corpus"],
    );
    for frac in [8u64, 4, 2, 1] {
        let iters = iterations / frac;
        let r = campaign("", iters);
        curve.row(vec![
            iters.to_string(),
            r.coverage_states.to_string(),
            r.corpus_entries.to_string(),
        ]);
        metrics.insert(format!("curve_{iters}_coverage"), r.coverage_states);
    }

    metrics.insert("configs".into(), configs().len() as u64);
    metrics.insert("configs_as_expected".into(), as_expected);
    metrics.insert("safety_bugs_found".into(), safety_bugs_found);
    metrics.insert("controls_silent".into(), controls_silent);
    metrics.insert("iterations_budget".into(), iterations);

    Report {
        title: "E12 — coverage-guided schedule fuzzing (seeded-mutation matrix)".into(),
        preamble: "A coverage-guided fuzzer mutates decision-word schedules against the \
                   closed pair model, using bit-packed state-codec fingerprints as the \
                   novelty signal and the safety lemmas as the oracle. Within a fixed \
                   deterministic iteration budget it must rediscover a violating \
                   schedule for every safety-violating seeded mutation — each shrunk by \
                   removal-only delta debugging to a locally-minimal prefix and \
                   replay-confirmed against the same scenario — while the safety-silent \
                   mutations and the faithful model stay finding-free. Identical seeds \
                   produce byte-identical corpora (the *_corpus_digest keys) and \
                   metrics."
            .into(),
        tables: vec![table, curve],
        notes: vec![
            "Ground truth matches E7/E11: SkipPingDisable, IgnoreTriggerGuard and \
             StaleAckReplay break a safety lemma (the fuzzer must find a schedule); \
             DropPingSend and SkipTriggerUpdate only hurt liveness, which no finite \
             safety-oracle run can flag. StaleAckReplay is attributed to Lemma 3 here \
             (the in-flight duplicate), the first lemma its incident trips."
                .into(),
            "All budgets are iteration-counted; wall-clock budgets exist only at the \
             CLI/CI layer and can only truncate, so every e12.* key is deterministic."
                .into(),
        ],
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e12_every_config_behaves_as_expected() {
        let report = run(&ExperimentConfig { seeds: 2 });
        for row in &report.tables[0].rows {
            assert_eq!(row[8], "as expected", "{row:?}");
        }
        assert_eq!(report.metrics["configs_as_expected"], report.metrics["configs"]);
        assert_eq!(report.metrics["safety_bugs_found"], 3);
        assert_eq!(report.metrics["controls_silent"], 3);
        // Every finding was replay-confirmed (asserted inside run as well).
        for key in ["skip_ping_disable", "ignore_trigger_guard", "stale_ack_replay"] {
            assert_eq!(report.metrics[&format!("{key}_confirmed")], 1, "{key}");
            assert!(report.metrics[&format!("{key}_minimized_len")] >= 1, "{key}");
        }
    }

    #[test]
    fn e12_metrics_are_rerun_identical() {
        let a = run(&ExperimentConfig { seeds: 2 });
        let b = run(&ExperimentConfig { seeds: 2 });
        assert_eq!(a.metrics, b.metrics);
    }
}
