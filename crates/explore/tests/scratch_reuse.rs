//! The search engine builds every successor in one reused scratch state: it
//! lists a state's labels (`for_each_label`), then applies each one into the
//! scratch (`apply_into`) over whatever the scratch held last. This suite
//! walks every state of a depth-8 search of both models that way, the
//! scratch starting out as a different reachable state, and holds the walk
//! to `successors()`: the same labels in the same order, each successor
//! equal and encoded to the same bytes. A field that `apply_into` failed to
//! overwrite would carry an earlier state into a later one here.

use std::collections::HashSet;
use std::fmt::Debug;

use dinefd_explore::{
    ComposedConfig, ComposedState, ExploreConfig, ModelMutation, PairState, StateCodec,
};

/// Every state within `depth` steps of `initial`, in breadth-first order.
fn reachable<S: StateCodec, L>(
    initial: S,
    depth: u32,
    successors: impl Fn(&S) -> Vec<(L, S)>,
) -> Vec<S> {
    let mut seen = HashSet::from([initial.encode()]);
    let mut states = vec![initial];
    let mut level = 0..1;
    for _ in 0..depth {
        let start = states.len();
        for i in level {
            for (_, next) in successors(&states[i]) {
                if seen.insert(next.encode()) {
                    states.push(next);
                }
            }
        }
        level = start..states.len();
    }
    states
}

/// Holds the scratch walk over every state of `states` to `successors`.
fn assert_scratch_walk_is_successors<S, L>(
    states: &[S],
    successors: impl Fn(&S) -> Vec<(L, S)>,
    for_each_label: impl Fn(&S, &mut dyn FnMut(L)),
    apply_into: impl Fn(&S, L, &mut S),
) where
    S: Clone + PartialEq + Debug + StateCodec,
    L: Copy + PartialEq + Debug,
{
    assert!(states.len() > 1);
    for (i, state) in states.iter().enumerate() {
        // Dirty from the start, and never reset between labels.
        let mut scratch = states[(i + states.len() / 2) % states.len()].clone();
        let mut labels = Vec::new();
        for_each_label(state, &mut |l| labels.push(l));
        let expected = successors(state);
        let got: Vec<(L, Vec<u8>)> = labels
            .iter()
            .zip(&expected)
            .map(|(&label, (_, want))| {
                apply_into(state, label, &mut scratch);
                assert_eq!(&scratch, want, "state {i} --{label:?}-->");
                (label, scratch.encode())
            })
            .collect();
        let want: Vec<(L, Vec<u8>)> = expected.iter().map(|(l, s)| (*l, s.encode())).collect();
        assert_eq!(labels.len(), want.len(), "state {i}: {state:?}");
        assert_eq!(got, want, "state {i}: {state:?}");
    }
}

#[test]
fn pair_model_scratch_walk_is_successors() {
    for cfg in [
        ExploreConfig::default(),
        ExploreConfig { strict_seq: true, start_converged: true, ..Default::default() },
        ExploreConfig { model_mutation: ModelMutation::StaleAckReplay, ..Default::default() },
    ] {
        let states = reachable(PairState::initial(&cfg), 8, |s| s.successors(&cfg));
        assert_scratch_walk_is_successors(
            &states,
            |s| s.successors(&cfg),
            |s, push| s.for_each_label(&cfg, push),
            |s, label, next| s.apply_into(label, &cfg, next),
        );
    }
}

#[test]
fn composed_model_scratch_walk_is_successors() {
    for cfg in [
        ComposedConfig::default(),
        ComposedConfig { strict_seq: true, allow_mistakes: false, ..Default::default() },
    ] {
        let states = reachable(ComposedState::initial(&cfg), 8, |s| s.successors(&cfg));
        assert_scratch_walk_is_successors(
            &states,
            |s| s.successors(&cfg),
            |s, push| s.for_each_label(&cfg, push),
            |s, label, next| s.apply_into(label, next),
        );
    }
}
