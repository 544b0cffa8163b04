//! The search engine against an independent reference: a plain
//! breadth-first search that keeps every encoded state in a
//! `HashSet<Vec<u8>>` and walks the models' public `successors()`, level by
//! level. It shares no code with the engine's label walk, fingerprinted
//! store, or loop over the store's entries.
//!
//! A state is within the bound when its shortest distance from the initial
//! state is at most the depth bound, and it is expanded when that distance
//! is below the bound. So the engine's figures must equal the reference's:
//! the distinct states; the transitions, as out-degree summed over the
//! expanded states; the deadlocks, as expanded states with no successor;
//! and the state-invariant messages over every state within the bound, each
//! with the level at which the reference first meets it, which the length
//! of the engine's counterexample path must equal (a shortest path).
//! [`find_reachable`] is held to the same levels for a few predicates.
//! `max_states` stays at its default, far above every case here, so no
//! search is truncated.

use std::collections::{BTreeMap, HashSet};

use dinefd_dining::DinerPhase;
use dinefd_explore::{
    explore, explore_composed, find_reachable, ComposedConfig, ComposedState, ExploreConfig,
    ModelMutation, PairState, SearchReport, StateCodec, SubjectMutation, ViolationKind,
};
use proptest::prelude::*;

/// What the reference and the engine must agree on.
#[derive(Debug, PartialEq, Eq)]
struct Figures {
    states: usize,
    transitions: u64,
    deadlocks: usize,
    /// Each message, with the level at which it first appears.
    messages: BTreeMap<String, usize>,
}

/// Breadth-first search to `max_depth`, level by level.
fn reference<S: StateCodec>(
    initial: S,
    max_depth: u32,
    successors: impl Fn(&S) -> Vec<S>,
    invariants: impl Fn(&S) -> Vec<String>,
) -> Figures {
    let mut seen: HashSet<Vec<u8>> = HashSet::from([initial.encode()]);
    let mut messages: BTreeMap<String, usize> =
        invariants(&initial).into_iter().map(|m| (m, 0)).collect();
    let (mut transitions, mut deadlocks) = (0, 0);
    let mut level = vec![initial];
    for depth in 1..=max_depth as usize {
        let mut next_level = Vec::new();
        for state in &level {
            let children = successors(state);
            transitions += children.len() as u64;
            deadlocks += children.is_empty() as usize;
            for child in children {
                if seen.insert(child.encode()) {
                    for m in invariants(&child) {
                        messages.entry(m).or_insert(depth);
                    }
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
            .map(|r| (r.message.clone(), r.path.len()))
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
    assert!(want.messages.keys().any(|m| m.contains("Lemma 4")), "{:?}", want.messages);
    assert_eq!(engine(&explore(&cfg)), want);
}

/// A replayed stale ack leads to violations deep enough that a search which
/// does not expand states at their shortest distance reports longer paths
/// than it needs (20 labels for a message the reference meets at level 15).
#[test]
fn stale_ack_replay_paths_are_shortest_at_depth_16() {
    let cfg = ExploreConfig {
        max_depth: 16,
        model_mutation: ModelMutation::StaleAckReplay,
        ..Default::default()
    };
    let want = reference(
        PairState::initial(&cfg),
        16,
        |s| s.successors(&cfg).into_iter().map(|(_, next)| next).collect(),
        PairState::check_invariants,
    );
    let mut levels: Vec<usize> = want.messages.values().copied().collect();
    levels.sort_unstable();
    assert_eq!(levels, [9, 14, 15]);
    assert_eq!(engine(&explore(&cfg)), want);
}

/// The level at which the reference first meets a state satisfying `pred`.
fn first_level(cfg: &ExploreConfig, pred: impl Fn(&PairState) -> bool) -> Option<usize> {
    let pred = |s: &PairState| if pred(s) { vec![String::new()] } else { Vec::new() };
    let successors = |s: &PairState| s.successors(cfg).into_iter().map(|(_, n)| n).collect();
    let found = reference(PairState::initial(cfg), cfg.max_depth, successors, pred);
    found.messages.values().next().copied()
}

#[test]
fn find_reachable_returns_a_shortest_path_to_a_hit() {
    type Pred = fn(&PairState) -> bool;
    let preds: [(&str, Pred); 5] = [
        ("initial", |_| true),
        ("crashed with a ping in flight", |s| s.crashed && !s.pings.is_empty()),
        ("both subjects eating", |s| s.s_phase == [DinerPhase::Eating; 2]),
        ("an ack and a ping in flight", |s| !s.acks.is_empty() && !s.pings.is_empty()),
        ("two acks in flight", |s| s.acks.len() >= 2),
    ];
    let cfgs = [
        ExploreConfig { max_depth: 10, ..Default::default() },
        ExploreConfig {
            max_depth: 10,
            subject_mutation: SubjectMutation::SkipPingDisable,
            ..Default::default()
        },
        ExploreConfig {
            max_depth: 10,
            model_mutation: ModelMutation::StaleAckReplay,
            ..Default::default()
        },
    ];
    for cfg in &cfgs {
        for (name, pred) in preds {
            let ctx = format!("{name} under {:?}/{:?}", cfg.subject_mutation, cfg.model_mutation);
            let path = find_reachable(cfg, pred);
            assert_eq!(path.as_ref().map(Vec::len), first_level(cfg, pred), "{ctx}");
            if let Some(path) = path {
                let end = path.iter().fold(PairState::initial(cfg), |s, &l| s.apply(l, cfg));
                assert!(pred(&end), "{ctx}: the path does not end in a hit");
            }
        }
    }
}
