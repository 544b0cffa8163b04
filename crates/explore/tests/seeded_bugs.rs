//! Mutation tests for the lemma checker: seed known bugs into the subject
//! machine and the wire, then assert the exhaustive search actually flags
//! them with lemma-attributed violations. A checker that stays green on a
//! broken subject is worthless — these are the tests of the tests.
//!
//! Two mutations are deliberately safety-silent (`DropPingSend`,
//! `SkipTriggerUpdate`): they starve the hand-off without ever entering a
//! lemma-violating state, so the exhaustive search *must* stay clean on
//! them and only the fair-run liveness harness may complain. Mutation
//! testing needs those negative controls as much as the positive ones.

use dinefd_explore::{
    explore, fair_run_mutated, ExploreConfig, ModelMutation, SubjectMutation, ViolationKind,
};

fn mutated(subject: SubjectMutation, model: ModelMutation, depth: u32) -> ExploreConfig {
    ExploreConfig {
        max_depth: depth,
        subject_mutation: subject,
        model_mutation: model,
        ..Default::default()
    }
}

/// Violations attributed to the given lemma.
fn lemma_hits(cfg: &ExploreConfig, lemma: &str) -> usize {
    explore(cfg).violations.iter().filter(|v| v.contains(lemma)).count()
}

#[test]
fn skip_ping_disable_breaks_lemma_3() {
    // The mutant forgets to disable ping after sending one, so a session can
    // put two pings in flight; the second one is still in transit after the
    // session ends, exactly what Lemma 3 forbids.
    let cfg = mutated(SubjectMutation::SkipPingDisable, ModelMutation::None, 12);
    assert!(lemma_hits(&cfg, "Lemma 3 violated") > 0, "search missed the seeded Lemma 3 bug");
}

#[test]
fn ignore_trigger_guard_breaks_lemma_4() {
    // The mutant lets s_1 go hungry out of turn (trigger still 0): the
    // literal negation of Lemma 4, reachable in one step.
    let cfg = mutated(SubjectMutation::IgnoreTriggerGuard, ModelMutation::None, 6);
    assert!(lemma_hits(&cfg, "Lemma 4 violated") > 0, "search missed the seeded Lemma 4 bug");
}

#[test]
fn stale_ack_replay_breaks_lemma_4_even_in_strict_mode() {
    // A duplicated in-flight ack survives into the next epoch and flips the
    // trigger while the wrong thread is hungry. The duplicate carries the
    // *current* sequence number, so strict sequence checking cannot save the
    // subject — this models an epoch bug, not a stale-seq bug.
    for strict in [false, true] {
        let cfg = ExploreConfig {
            strict_seq: strict,
            ..mutated(SubjectMutation::None, ModelMutation::StaleAckReplay, 16)
        };
        let hits = lemma_hits(&cfg, "Lemma 4 violated");
        assert!(hits > 0, "search missed the stale-ack bug (strict={strict})");
    }
}

#[test]
fn seeded_bug_violations_carry_replayable_paths() {
    let cfg = mutated(SubjectMutation::IgnoreTriggerGuard, ModelMutation::None, 8);
    let report = explore(&cfg);
    assert!(!report.records.is_empty());
    for r in &report.records {
        assert_eq!(r.kind, ViolationKind::StateInvariant);
        assert!(!r.path.is_empty(), "a non-initial violation must carry a path: {r:?}");
    }
}

#[test]
fn drop_ping_send_is_safety_silent_but_starves_the_handoff() {
    // Negative control: losing the ping on the wire never produces a
    // lemma-violating *state* (the subject just wedges mid-session), so the
    // exhaustive search must stay clean...
    let cfg = mutated(SubjectMutation::None, ModelMutation::DropPingSend, 14);
    let report = explore(&cfg);
    assert!(report.clean(), "unexpected safety violations: {:#?}", report.violations);

    // ...while the fair-run harness sees the liveness failure: the witness
    // never hears a ping, so it suspects a perfectly correct subject
    // forever, and the subject's second thread never eats.
    let r =
        fair_run_mutated(400, 50, None, false, SubjectMutation::None, ModelMutation::DropPingSend);
    assert!(r.violations.is_empty(), "mutant should be safety-silent: {:?}", r.violations);
    assert!(r.final_suspects, "dropped pings must leave the witness suspecting");
    assert_eq!(r.subject_eats[1], 0, "the hand-off must starve without acks");
}

#[test]
fn skip_trigger_update_is_safety_silent_but_starves_the_handoff() {
    // Negative control: never moving the trigger freezes the hand-off in a
    // lemma-consistent state (s_0 may eat forever; s_1 never goes hungry).
    let cfg = mutated(SubjectMutation::SkipTriggerUpdate, ModelMutation::None, 14);
    let report = explore(&cfg);
    assert!(report.clean(), "unexpected safety violations: {:#?}", report.violations);

    let r = fair_run_mutated(
        400,
        50,
        None,
        false,
        SubjectMutation::SkipTriggerUpdate,
        ModelMutation::None,
    );
    assert!(r.violations.is_empty(), "mutant should be safety-silent: {:?}", r.violations);
    assert!(r.final_suspects, "a wedged hand-off must leave the witness suspecting");
    assert_eq!(r.subject_eats[1], 0, "s_1 must starve when the trigger never moves");
}

#[test]
fn clean_model_stays_violation_free_at_the_same_depths() {
    // The positive tests above are only meaningful if the same searches on
    // the unmutated model are quiet.
    let report = explore(&ExploreConfig { max_depth: 16, ..Default::default() });
    assert!(report.clean(), "clean model flagged: {:#?}", report.violations);
}

/// The crate-level counterpart of the wire mutations: the paper's Section-3
/// flawed contention-manager extraction, run end-to-end. A benign black box
/// hides the flaw; the delayed-convergence box exposes unbounded wrongful
/// suspicion. (The simulation-level "seeded bug" predates the mutation
/// knobs and lives in `dinefd-core`; asserting it here keeps the whole
/// bug-detection story in one suite.)
#[test]
fn flawed_cm_construction_flaps_on_delayed_convergence_box() {
    use dinefd_core::flawed_cm::run_flawed_pair;
    use dinefd_core::scenario::BlackBox;
    use dinefd_sim::{CrashPlan, ProcessId, Time};

    let benign = run_flawed_pair(
        BlackBox::Abstract { convergence: Time(1_500) },
        11,
        CrashPlan::none(),
        Time(30_000),
    );
    assert!(benign.eventual_strong_accuracy(&CrashPlan::none()).is_ok());

    let flawed = run_flawed_pair(
        BlackBox::Delayed { convergence: Time(1_500) },
        11,
        CrashPlan::none(),
        Time(30_000),
    );
    let mistakes = flawed.mistake_intervals(ProcessId(0), ProcessId(1));
    assert!(mistakes > 20, "expected unbounded flapping, saw {mistakes} mistake intervals");
}
