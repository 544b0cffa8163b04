//! The search engine against an independent reference: a plain
//! breadth-first search that keeps every encoded state in a
//! `HashSet<Vec<u8>>` and walks the models' public `successors()`. It
//! shares no code with the engine's label walk, fingerprinted store,
//! depth-first order, max-remaining-depth pruning or POR.
//!
//! A state is within the bound when its shortest distance from the initial
//! state is at most the depth bound, and it is expanded when that distance
//! is below the bound. So the engine's figures must equal the reference's:
//! the distinct states; the transitions, as out-degree summed over the
//! expanded states; the deadlocks, as expanded states with no successor;
//! and the set of state-invariant messages over every state within the
//! bound. `max_states` stays at its default, far above every case here, so
//! no search is truncated.

use std::collections::{BTreeSet, HashSet};

use dinefd_explore::{
    explore, explore_composed, ComposedConfig, ComposedState, ExploreConfig, ModelMutation,
    PairState, SearchReport, StateCodec, SubjectMutation, ViolationKind,
};
use proptest::prelude::*;

/// What the reference and the engine must agree on.
#[derive(Debug, PartialEq, Eq)]
struct Figures {
    states: usize,
    transitions: u64,
    deadlocks: usize,
    messages: BTreeSet<String>,
}

/// Breadth-first search to `max_depth`, level by level.
fn reference<S: StateCodec>(
    initial: S,
    max_depth: u32,
    successors: impl Fn(&S) -> Vec<S>,
    invariants: impl Fn(&S) -> Vec<String>,
) -> Figures {
    let mut seen: HashSet<Vec<u8>> = HashSet::from([initial.encode()]);
    let mut messages: BTreeSet<String> = invariants(&initial).into_iter().collect();
    let (mut transitions, mut deadlocks) = (0, 0);
    let mut level = vec![initial];
    for _ in 0..max_depth {
        let mut next_level = Vec::new();
        for state in &level {
            let children = successors(state);
            transitions += children.len() as u64;
            deadlocks += children.is_empty() as usize;
            for child in children {
                if seen.insert(child.encode()) {
                    messages.extend(invariants(&child));
                    next_level.push(child);
                }
            }
        }
        level = next_level;
    }
    Figures { states: seen.len(), transitions, deadlocks, messages }
}

fn engine<L>(report: &SearchReport<L>) -> Figures {
    assert!(!report.truncated, "a reference case must not hit the state budget");
    Figures {
        states: report.states_visited,
        transitions: report.transitions,
        deadlocks: report.deadlocks,
        messages: report
            .records
            .iter()
            .filter(|r| r.kind == ViolationKind::StateInvariant)
            .map(|r| r.message.clone())
            .collect(),
    }
}

/// The faithful model and the three mutations that break a lemma.
const MUTATIONS: [(SubjectMutation, ModelMutation); 4] = [
    (SubjectMutation::None, ModelMutation::None),
    (SubjectMutation::SkipPingDisable, ModelMutation::None),
    (SubjectMutation::IgnoreTriggerGuard, ModelMutation::None),
    (SubjectMutation::None, ModelMutation::StaleAckReplay),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pair_search_matches_the_reference(
        depth in 6u32..12,
        strict in any::<bool>(),
        crash in any::<bool>(),
        converged in any::<bool>(),
        which in 0..MUTATIONS.len(),
    ) {
        let (subject_mutation, model_mutation) = MUTATIONS[which];
        let cfg = ExploreConfig {
            max_depth: depth,
            strict_seq: strict,
            allow_crash: crash,
            start_converged: converged,
            subject_mutation,
            model_mutation,
            ..Default::default()
        };
        let want = reference(
            PairState::initial(&cfg),
            depth,
            |s| s.successors(&cfg).into_iter().map(|(_, next)| next).collect(),
            PairState::check_invariants,
        );
        prop_assert_eq!(engine(&explore(&cfg)), want);
    }

    #[test]
    fn composed_search_matches_the_reference(
        depth in 5u32..9,
        crash in any::<bool>(),
        mistakes in any::<bool>(),
    ) {
        let cfg = ComposedConfig {
            max_depth: depth,
            allow_crash: crash,
            allow_mistakes: mistakes,
            ..Default::default()
        };
        let want = reference(
            ComposedState::initial(&cfg),
            depth,
            |s| s.successors(&cfg).into_iter().map(|(_, next)| next).collect(),
            ComposedState::check_invariants,
        );
        prop_assert_eq!(engine(&explore_composed(&cfg)), want);
    }
}

/// The reference is only worth something if it can disagree: a mutation
/// that breaks a lemma must show up in its message set too.
#[test]
fn the_reference_sees_a_seeded_violation() {
    let cfg = ExploreConfig {
        max_depth: 6,
        subject_mutation: SubjectMutation::IgnoreTriggerGuard,
        ..Default::default()
    };
    let want = reference(
        PairState::initial(&cfg),
        6,
        |s| s.successors(&cfg).into_iter().map(|(_, next)| next).collect(),
        PairState::check_invariants,
    );
    assert!(want.messages.iter().any(|m| m.contains("Lemma 4")), "{:?}", want.messages);
    assert_eq!(engine(&explore(&cfg)), want);
}
