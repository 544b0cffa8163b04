//! Trace-prefix regression tests: every violation the explorer reports must
//! carry a *replayable* counterexample path. Replaying the recorded labels
//! from the initial state, one `find_label` + `apply` edge at a time, must
//! (a) stay on enabled transitions the whole way and (b) land on a state
//! that actually exhibits the reported violation. A diagnostic that cannot
//! be replayed is a diagnostic that cannot be trusted.

use dinefd_explore::{
    explore, fmt_path, ExploreConfig, ModelMutation, PairState, SubjectMutation, TransitionLabel,
    ViolationKind, ViolationRecord,
};

/// Replays `path` from the initial state, panicking if any label is not
/// enabled where the trace says it fired.
fn replay(cfg: &ExploreConfig, path: &[TransitionLabel]) -> PairState {
    let mut state = PairState::initial(cfg);
    for (step, &label) in path.iter().enumerate() {
        state = step_by(&state, cfg, label)
            .unwrap_or_else(|| panic!("step {step}: label {label:?} not enabled during replay"));
    }
    state
}

/// One edge: the `label` successor of `state`, if `label` is enabled there.
fn step_by(state: &PairState, cfg: &ExploreConfig, label: TransitionLabel) -> Option<PairState> {
    state.find_label(cfg, |l| l == label).map(|l| state.apply(l, cfg))
}

/// Checks that one record reproduces its violation when replayed.
fn assert_replays(cfg: &ExploreConfig, r: &ViolationRecord<TransitionLabel>) {
    assert!(!fmt_path(&r.path, None).is_empty());
    match r.kind {
        ViolationKind::StateInvariant => {
            let end = replay(cfg, &r.path);
            let found = end.check_invariants().join("; ");
            assert!(
                found.contains(&r.message),
                "replayed state does not show the reported violation:\n  reported: {}\n  found: {}\n  path: {}",
                r.message,
                found,
                fmt_path(&r.path, None),
            );
        }
        ViolationKind::ClosureStep => {
            let (last, prefix) = r.path.split_last().expect("closure violations follow a step");
            let pre = replay(cfg, prefix);
            let post =
                step_by(&pre, cfg, *last).expect("violating step not enabled at its pre-state");
            let found = pre.check_closure_step(&post);
            assert_eq!(
                found.as_deref(),
                Some(r.message.as_str()),
                "closure violation did not reproduce"
            );
        }
    }
}

fn replay_all(cfg: &ExploreConfig, expect_lemma: &str) {
    let report = explore(cfg);
    assert!(
        report.records.iter().any(|r| r.message.contains(expect_lemma)),
        "no {expect_lemma} record to replay"
    );
    assert_eq!(report.records.len(), report.violations.len());
    for r in &report.records {
        // The mutated models only violate lemmas away from the initial
        // state, so every record here must have a real trace.
        assert!(!r.path.is_empty(), "empty path on {r:?}");
        assert_replays(cfg, r);
    }
}

#[test]
fn lemma_4_counterexamples_replay() {
    replay_all(
        &ExploreConfig {
            max_depth: 8,
            subject_mutation: SubjectMutation::IgnoreTriggerGuard,
            ..Default::default()
        },
        "Lemma 4",
    );
}

#[test]
fn lemma_3_counterexamples_replay() {
    replay_all(
        &ExploreConfig {
            max_depth: 12,
            subject_mutation: SubjectMutation::SkipPingDisable,
            ..Default::default()
        },
        "Lemma 3",
    );
}

#[test]
fn stale_ack_counterexamples_replay() {
    replay_all(
        &ExploreConfig {
            max_depth: 16,
            model_mutation: ModelMutation::StaleAckReplay,
            ..Default::default()
        },
        "Lemma 4",
    );
}

#[test]
fn clean_model_produces_no_records() {
    let report = explore(&ExploreConfig { max_depth: 14, ..Default::default() });
    assert!(report.records.is_empty());
    assert!(report.violations.is_empty());
}

/// The rendered string and the structured record must describe the same
/// incident: the string is exactly `"<message> (after <path>)"`.
#[test]
fn rendered_violations_match_their_records() {
    let cfg = ExploreConfig {
        max_depth: 8,
        subject_mutation: SubjectMutation::IgnoreTriggerGuard,
        ..Default::default()
    };
    let report = explore(&cfg);
    for (s, r) in report.violations.iter().zip(&report.records) {
        assert_eq!(*s, format!("{} (after {})", r.message, fmt_path(&r.path, None)));
    }
}
