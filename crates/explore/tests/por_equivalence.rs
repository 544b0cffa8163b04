//! Sleep-set POR must be *invisible* in every reported figure.
//!
//! The explorers' partial-order reduction (`dinefd_explore::por`) only skips
//! the encode/probe/queue work of delivery successors whose commuted order
//! was already explored — successor enumeration and every invariant/closure
//! check still run in full. This suite is the executable form of that
//! soundness claim: for every seeded bug the mutation-testing matrix knows
//! (subject-machine mutations × wire mutations × both sequence-number
//! modes), a POR run and a full run must agree on the state count, the
//! once-per-state transition count, the deadlock count, and the exact
//! violation message set. Only *representative counterexample paths* may
//! differ (both remain replayable), so the comparison is over `(kind,
//! message)` sets, not rendered strings.
//!
//! The faithful pair model never has a ping and an ack in flight together
//! (its handshake is strictly sequential), so POR finds nothing to skip
//! there — but a subject that keeps pinging (`SkipPingDisable` floods the
//! wire, so pings and acks coexist) and the composed model's fork traffic
//! do give it work, and those are exactly the configurations this suite
//! sweeps.

use dinefd_explore::{
    explore, explore_composed, ComposedConfig, ExploreConfig, ModelMutation, SubjectMutation,
    ViolationKind, ViolationRecord,
};

/// The schedule-independent part of a violation list (paths are
/// representative, not canonical).
fn message_set<L>(records: &[ViolationRecord<L>]) -> Vec<(ViolationKind, &str)> {
    records.iter().map(|r| (r.kind, r.message.as_str())).collect()
}

#[test]
fn por_matches_full_exploration_across_the_mutation_matrix() {
    let subjects = [
        SubjectMutation::None,
        SubjectMutation::SkipPingDisable,
        SubjectMutation::IgnoreTriggerGuard,
        SubjectMutation::SkipTriggerUpdate,
    ];
    let models = [ModelMutation::None, ModelMutation::DropPingSend, ModelMutation::StaleAckReplay];
    let mut total_skips = 0u64;
    for subject_mutation in subjects {
        for model_mutation in models {
            for strict_seq in [false, true] {
                let base = ExploreConfig {
                    max_depth: 10,
                    strict_seq,
                    subject_mutation,
                    model_mutation,
                    ..Default::default()
                };
                let full = explore(&base);
                let por = explore(&ExploreConfig { por: true, ..base });
                let ctx = format!("{subject_mutation:?}/{model_mutation:?}/strict={strict_seq}");
                assert!(!full.truncated && !por.truncated, "{ctx}: truncated");
                assert_eq!(full.states_visited, por.states_visited, "{ctx}: states");
                assert_eq!(full.transitions, por.transitions, "{ctx}: transitions");
                assert_eq!(full.deadlocks, por.deadlocks, "{ctx}: deadlocks");
                assert_eq!(
                    message_set(&full.records),
                    message_set(&por.records),
                    "{ctx}: violation sets"
                );
                assert_eq!(full.stats.sleep_skips.get(), 0, "{ctx}: full run must not sleep");
                total_skips += por.stats.sleep_skips.get();
            }
        }
    }
    // The sweep as a whole must exercise the reduction — a subject that
    // never disables its ping keeps pings and acks in flight together,
    // giving the sleep sets real work even though the faithful wire never
    // does.
    assert!(total_skips > 0, "POR never fired anywhere in the mutation matrix");
}

#[test]
fn por_skips_on_a_flooding_subject_specifically() {
    // `SkipPingDisable` lets `s_i` ping repeatedly per eating session, so a
    // ping and an ack coexist in flight — the cross-class independence POR
    // exploits. The verdict must still match the full run exactly.
    let base = ExploreConfig {
        max_depth: 12,
        subject_mutation: SubjectMutation::SkipPingDisable,
        ..Default::default()
    };
    let full = explore(&base);
    let por = explore(&ExploreConfig { por: true, ..base });
    assert!(por.stats.sleep_skips.get() > 0, "flooded wire must give POR work");
    assert_eq!(full.states_visited, por.states_visited);
    assert_eq!(full.transitions, por.transitions);
    assert_eq!(message_set(&full.records), message_set(&por.records));
}

#[test]
fn composed_por_matches_full_exploration_across_service_modes() {
    let mut total_skips = 0u64;
    for allow_crash in [false, true] {
        for allow_mistakes in [false, true] {
            for strict_seq in [false, true] {
                let base = ComposedConfig {
                    max_depth: 8,
                    allow_crash,
                    allow_mistakes,
                    strict_seq,
                    ..Default::default()
                };
                let full = explore_composed(&base);
                let por = explore_composed(&ComposedConfig { por: true, ..base });
                let ctx =
                    format!("crash={allow_crash}/mistakes={allow_mistakes}/strict={strict_seq}");
                assert!(!full.truncated && !por.truncated, "{ctx}: truncated");
                assert_eq!(full.states_visited, por.states_visited, "{ctx}: states");
                assert_eq!(full.transitions, por.transitions, "{ctx}: transitions");
                assert_eq!(full.deadlocks, por.deadlocks, "{ctx}: deadlocks");
                assert_eq!(
                    message_set(&full.records),
                    message_set(&por.records),
                    "{ctx}: violation sets"
                );
                total_skips += por.stats.sleep_skips.get();
            }
        }
    }
    // The composed model's dining traffic coexists with pings/acks, so the
    // reduction must fire across the sweep.
    assert!(total_skips > 0, "POR never fired on the composed model");
}
