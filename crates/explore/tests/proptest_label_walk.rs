//! Enumeration and application of pair-model transitions are split
//! (`for_each_label` yields labels, `apply` / `apply_into` build one
//! successor); `successors()` is their product. This suite pins the three
//! views to one another along random walks under every seeded mutation, so
//! a caller that walks one edge at a time — the schedule fuzzer — sees
//! exactly the transition relation the exhaustive explorers enumerate.

use dinefd_explore::{ExploreConfig, ModelMutation, PairState, SubjectMutation, TransitionLabel};
use proptest::prelude::*;

const SUBJECT_MUTATIONS: [SubjectMutation; 4] = [
    SubjectMutation::None,
    SubjectMutation::SkipPingDisable,
    SubjectMutation::IgnoreTriggerGuard,
    SubjectMutation::SkipTriggerUpdate,
];
const MODEL_MUTATIONS: [ModelMutation; 3] =
    [ModelMutation::None, ModelMutation::DropPingSend, ModelMutation::StaleAckReplay];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_edge_at_a_time_is_the_enumerated_relation(
        choices in prop::collection::vec(any::<u64>(), 1..60),
        strict_seq in any::<bool>(),
        start_converged in any::<bool>(),
    ) {
        for subject_mutation in SUBJECT_MUTATIONS {
            for model_mutation in MODEL_MUTATIONS {
                let cfg = ExploreConfig {
                    strict_seq,
                    start_converged,
                    subject_mutation,
                    model_mutation,
                    ..Default::default()
                };
                let mut state = PairState::initial(&cfg);
                // Deliberately dirty: the buffer `apply_into` writes through
                // starts as somebody else's state with long message pools,
                // and afterwards always holds the walk's previous state.
                let mut buffer = PairState::initial(&cfg);
                buffer.pings.extend((0..9).map(|k| (1, 1_000 + k)));
                buffer.acks.extend((0..9).map(|k| (0, 2_000 + k)));
                buffer.converged = true;
                buffer.crashed = true;
                for &c in &choices {
                    let succ = state.successors(&cfg);
                    let mut labels: Vec<TransitionLabel> = Vec::new();
                    state.for_each_label(&cfg, |l| labels.push(l));
                    let enumerated: Vec<TransitionLabel> = succ.iter().map(|&(l, _)| l).collect();
                    prop_assert_eq!(&labels, &enumerated);
                    for (label, next) in &succ {
                        prop_assert_eq!(&state.apply(*label, &cfg), next);
                        prop_assert_eq!(state.find_label(&cfg, |l| l == *label), Some(*label));
                    }
                    if succ.is_empty() {
                        break;
                    }
                    let (label, next) = &succ[(c % succ.len() as u64) as usize];
                    state.apply_into(*label, &cfg, &mut buffer);
                    prop_assert_eq!(&buffer, next);
                    std::mem::swap(&mut state, &mut buffer);
                }
            }
        }
    }
}
