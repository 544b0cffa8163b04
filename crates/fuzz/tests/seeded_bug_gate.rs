//! The fuzzer-side mutation gate (extends `crates/explore/tests/seeded_bugs.rs`):
//! under a fixed seed and a fixed iteration budget, the coverage-guided
//! fuzzer must *find* a lemma-violating schedule for every safety-violating
//! seeded mutation, must emit a minimized prefix that independently replays
//! to the same lemma, and must stay silent on the safety-silent controls.
//! A fuzzer that cannot re-find known bugs is a fuzzer whose findings on
//! the faithful model mean nothing.
//!
//! Every run here is driven through a scenario-DSL document — the same
//! kind of file `dinefd fuzz` and the CI job consume — so the gate also
//! exercises the DSL → engine plumbing end to end.

use dinefd_explore::{ExploreConfig, PairState, TransitionLabel};
use dinefd_fuzz::scenario_dsl::Scenario;
use dinefd_fuzz::{lemma_key, FuzzReport, Fuzzer};

/// The fixed gate budget. Empirically the slowest find (stale-ack-replay,
/// seed 1) lands around iteration 525; 4000 leaves an order-of-magnitude
/// margin while keeping the whole gate well under the CI time box.
const GATE: &str = "\n[fuzz]\nseed = 1\niterations = 4000\nmax_steps = 40\ncorpus_seeds = 16\n";

fn run_gate(mutation_key: &str, mutation: &str) -> FuzzReport {
    let text = format!("[model]\n{mutation_key} = {mutation}\n{GATE}");
    let doc = Scenario::parse(&text).expect("gate scenario parses");
    Fuzzer::new(doc.fuzz).run()
}

/// Independent replay harness (the `trace_replay` discipline): walk the
/// labels one edge at a time (`find_label`, then `apply`), demanding each
/// is enabled, and return the invariant/closure violation at the end of
/// the walk.
fn replay_violation(cfg: &ExploreConfig, path: &[TransitionLabel]) -> Option<String> {
    let mut state = PairState::initial(cfg);
    for (step, &label) in path.iter().enumerate() {
        let enabled = state.find_label(cfg, |l| l == label);
        assert_eq!(enabled, Some(label), "step {step}: label {label:?} not enabled during replay");
        let next = state.apply(label, cfg);
        if let Some(msg) = state.check_closure_step(&next) {
            assert_eq!(step, path.len() - 1, "violation before the end of the minimized prefix");
            return Some(msg);
        }
        state = next;
    }
    state.check_invariants().into_iter().next()
}

fn assert_finds(mutation_key: &str, mutation: &str, expect_lemma: &str) {
    let text = format!("[model]\n{mutation_key} = {mutation}\n{GATE}");
    let doc = Scenario::parse(&text).expect("gate scenario parses");
    let report = Fuzzer::new(doc.fuzz.clone()).run();
    assert!(
        report.findings.iter().any(|f| f.lemma.starts_with(expect_lemma)),
        "{mutation}: expected a {expect_lemma} finding, got {:?}",
        report.findings.iter().map(|f| f.lemma.clone()).collect::<Vec<_>>(),
    );
    assert!(report.first_find_iter.is_some(), "{mutation}: no find iteration recorded");

    let cfg = doc.fuzz.explore;
    for f in &report.findings {
        assert!(!f.minimized.is_empty(), "{mutation}: empty minimized prefix");
        assert!(f.minimized.len() <= f.path.len(), "{mutation}: minimizer grew the trace");
        let msg = replay_violation(&cfg, &f.minimized).unwrap_or_else(|| {
            panic!("{mutation}: minimized prefix replays clean: {:?}", f.minimized)
        });
        assert_eq!(
            lemma_key(&msg),
            f.lemma,
            "{mutation}: replayed violation changed lemma ({msg})"
        );
    }
}

#[test]
fn fuzzer_finds_skip_ping_disable() {
    assert_finds("subject_mutation", "skip-ping-disable", "Lemma 3");
}

#[test]
fn fuzzer_finds_ignore_trigger_guard() {
    assert_finds("subject_mutation", "ignore-trigger-guard", "Lemma 4");
}

#[test]
fn fuzzer_finds_stale_ack_replay() {
    // The in-flight duplicate trips Lemma 3 first (same incident the
    // explorer attributes to Lemmas 3/4; see `ModelMutation::StaleAckReplay`).
    assert_finds("model_mutation", "stale-ack-replay", "Lemma 3");
}

#[test]
fn fuzzer_is_silent_on_drop_ping_send() {
    let report = run_gate("model_mutation", "drop-ping-send");
    assert!(
        report.findings.is_empty(),
        "safety-silent control produced findings: {:?}",
        report.findings.iter().map(|f| f.message.clone()).collect::<Vec<_>>(),
    );
    assert_eq!(report.first_find_iter, None);
}

#[test]
fn fuzzer_is_silent_on_skip_trigger_update() {
    let report = run_gate("subject_mutation", "skip-trigger-update");
    assert!(report.findings.is_empty());
    assert_eq!(report.first_find_iter, None);
}

#[test]
fn fuzzer_is_silent_on_the_faithful_model() {
    let report = run_gate("subject_mutation", "none");
    assert!(report.findings.is_empty(), "faithful model violated: {:?}", report.findings);
    assert!(report.coverage_states > 100, "gate budget barely explored anything");
}

/// The acceptance-criteria determinism clause: identical seeds produce
/// byte-identical corpora and identical `fuzz.*` metrics across reruns.
#[test]
fn reruns_are_byte_identical() {
    for (key, mutation) in
        [("subject_mutation", "skip-ping-disable"), ("model_mutation", "stale-ack-replay")]
    {
        let a = run_gate(key, mutation);
        let b = run_gate(key, mutation);
        assert_eq!(a.corpus_digest, b.corpus_digest, "{mutation}: corpus diverged across reruns");
        assert_eq!(a.metrics(), b.metrics(), "{mutation}: metrics diverged across reruns");
        assert_eq!(
            a.findings.iter().map(|f| f.minimized.clone()).collect::<Vec<_>>(),
            b.findings.iter().map(|f| f.minimized.clone()).collect::<Vec<_>>(),
            "{mutation}: minimized prefixes diverged across reruns"
        );
    }
}
