//! Counterexample paths, pinned byte for byte. The visited store keeps each
//! state's tree edge as the ordinal of its label among the parent's labels,
//! and the engine rebuilds a violation's path once, at the end, by replaying
//! those ordinals from the root. These are the rendered violations (message
//! and path) of every seeded mutation that `seeded_bugs.rs` and
//! `trace_replay.rs` search. The search is breadth-first, so each path is
//! the first shortest one in the model's label order: a change to how paths
//! are stored or rebuilt, or to the search order, that alters one label
//! fails here.

use dinefd_explore::{explore, ExploreConfig, ModelMutation, SubjectMutation};

/// The violations of one mutated search, as `explore` renders them.
fn violations(
    subject_mutation: SubjectMutation,
    model_mutation: ModelMutation,
    max_depth: u32,
    strict_seq: bool,
) -> Vec<String> {
    let cfg = ExploreConfig {
        max_depth,
        subject_mutation,
        model_mutation,
        strict_seq,
        ..Default::default()
    };
    explore(&cfg).violations
}

#[test]
fn skip_ping_disable_at_depth_12() {
    let expected = [
        "Lemma 3 violated: s_0 not eating, ping_0 = true, yet a DX_0 message is in transit (after Subject(Hungry(0)) → GrantSubject(0) → Subject(Ping(0)) → Subject(Ping(0)) → DeliverPing(0) → DeliverAck(0) → Subject(Hungry(1)) → GrantSubject(1) → Subject(Exit(0)))",
    ];
    assert_eq!(
        violations(SubjectMutation::SkipPingDisable, ModelMutation::None, 12, false),
        expected
    );
}

#[test]
fn ignore_trigger_guard_at_depth_6() {
    let expected = [
        "Lemma 3 violated: s_1 not eating, ping_1 = true, yet a DX_1 message is in transit (after Subject(Hungry(0)) → Subject(Hungry(1)) → GrantSubject(1) → Subject(Ping(1)) → GrantSubject(0) → Subject(Exit(1)))",
        "Lemma 4 violated: s_1 hungry but trigger = 0 (after Subject(Hungry(1)))",
    ];
    assert_eq!(
        violations(SubjectMutation::IgnoreTriggerGuard, ModelMutation::None, 6, false),
        expected
    );
}

#[test]
fn ignore_trigger_guard_at_depth_8() {
    let expected = [
        "Lemma 3 violated: s_1 not eating, ping_1 = true, yet a DX_1 message is in transit (after Subject(Hungry(0)) → Subject(Hungry(1)) → GrantSubject(1) → Subject(Ping(1)) → GrantSubject(0) → Subject(Exit(1)))",
        "Lemma 4 violated: s_1 hungry but trigger = 0 (after Subject(Hungry(1)))",
    ];
    assert_eq!(
        violations(SubjectMutation::IgnoreTriggerGuard, ModelMutation::None, 8, false),
        expected
    );
}

#[test]
fn stale_ack_replay_at_depth_16() {
    let expected = [
        "Lemma 3 violated: s_0 not eating, ping_0 = true, yet a DX_0 message is in transit (after Subject(Hungry(0)) → GrantSubject(0) → Subject(Ping(0)) → DeliverPing(0) → DuplicateAck(0) → DeliverAck(0) → Subject(Hungry(1)) → GrantSubject(1) → Subject(Exit(0)))",
        "Lemma 3 violated: s_1 not eating, ping_1 = true, yet a DX_1 message is in transit (after Subject(Hungry(0)) → GrantSubject(0) → Subject(Ping(0)) → DeliverPing(0) → DeliverAck(0) → Subject(Hungry(1)) → GrantSubject(1) → Subject(Exit(0)) → Subject(Ping(1)) → DeliverPing(0) → DuplicateAck(0) → DeliverAck(0) → Subject(Hungry(0)) → GrantSubject(0) → Subject(Exit(1)))",
        "Lemma 4 violated: s_0 hungry but trigger = 1 (after Subject(Hungry(0)) → GrantSubject(0) → Subject(Ping(0)) → DeliverPing(0) → DuplicateAck(0) → DeliverAck(0) → Subject(Hungry(1)) → GrantSubject(1) → Subject(Exit(0)) → Subject(Ping(1)) → DeliverPing(0) → DeliverAck(1) → Subject(Hungry(0)) → DeliverAck(0))",
    ];
    assert_eq!(
        violations(SubjectMutation::None, ModelMutation::StaleAckReplay, 16, false),
        expected
    );
}

#[test]
fn stale_ack_replay_at_depth_16_strict() {
    let expected = [
        "Lemma 3 violated: s_0 not eating, ping_0 = true, yet a DX_0 message is in transit (after Subject(Hungry(0)) → GrantSubject(0) → Subject(Ping(0)) → DeliverPing(0) → DuplicateAck(0) → DeliverAck(0) → Subject(Hungry(1)) → GrantSubject(1) → Subject(Exit(0)))",
        "Lemma 3 violated: s_1 not eating, ping_1 = true, yet a DX_1 message is in transit (after Subject(Hungry(0)) → GrantSubject(0) → Subject(Ping(0)) → DeliverPing(0) → DeliverAck(0) → Subject(Hungry(1)) → GrantSubject(1) → Subject(Exit(0)) → Subject(Ping(1)) → DeliverPing(0) → DuplicateAck(0) → DeliverAck(0) → Subject(Hungry(0)) → GrantSubject(0) → Subject(Exit(1)))",
        "Lemma 4 violated: s_0 hungry but trigger = 1 (after Subject(Hungry(0)) → GrantSubject(0) → Subject(Ping(0)) → DeliverPing(0) → DuplicateAck(0) → DeliverAck(0) → Subject(Hungry(1)) → GrantSubject(1) → Subject(Exit(0)) → Subject(Ping(1)) → DeliverPing(0) → DeliverAck(1) → Subject(Hungry(0)) → DeliverAck(0))",
    ];
    assert_eq!(
        violations(SubjectMutation::None, ModelMutation::StaleAckReplay, 16, true),
        expected
    );
}

#[test]
fn drop_ping_send_at_depth_14() {
    let expected: [&str; 0] = [];
    assert_eq!(violations(SubjectMutation::None, ModelMutation::DropPingSend, 14, false), expected);
}

#[test]
fn skip_trigger_update_at_depth_14() {
    let expected: [&str; 0] = [];
    assert_eq!(
        violations(SubjectMutation::SkipTriggerUpdate, ModelMutation::None, 14, false),
        expected
    );
}
