//! Random deep walks through the composed model (reduction over the real
//! fork algorithm). The exhaustive DFS is depth-bounded; random walks reach
//! hundreds of steps, checking the same invariants far beyond that bound.

use dinefd_explore::composed::{ComposedConfig, ComposedState};
use proptest::prelude::*;

fn walk(cfg: &ComposedConfig, choices: &[u32]) -> Result<(u32, ComposedState), String> {
    let mut state = ComposedState::initial(cfg);
    if !state.check_invariants().is_empty() {
        return Err("initial state invalid".into());
    }
    let mut steps = 0;
    for &c in choices {
        let succ = state.successors(cfg);
        if succ.is_empty() {
            return Err(format!("deadlock after {steps} steps"));
        }
        let (label, next) = &succ[(c as usize) % succ.len()];
        // Exclusion discipline across the step.
        for i in 0..2 {
            if !state.overlapping(i) && next.overlapping(i) && !next_crashed(next) {
                let prior_tainted = state.prior_eater_tainted(i);
                if !next.mistake_active() && !prior_tainted {
                    return Err(format!(
                        "exclusion violated on DX_{i} via {label:?} after {steps} steps"
                    ));
                }
            }
        }
        let v = next.check_invariants();
        if !v.is_empty() {
            return Err(format!("{} after {steps} steps (via {label:?})", v.join("; ")));
        }
        state = next.clone();
        steps += 1;
    }
    Ok((steps, state))
}

fn next_crashed(s: &ComposedState) -> bool {
    s.is_crashed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn composed_invariants_hold_on_deep_random_walks(
        choices in prop::collection::vec(any::<u32>(), 0..500),
        allow_crash in any::<bool>(),
        allow_mistakes in any::<bool>(),
        strict in any::<bool>(),
    ) {
        let cfg = ComposedConfig {
            max_depth: 0,
            max_states: 0,
            allow_crash,
            allow_mistakes,
            strict_seq: strict,
            ..Default::default()
        };
        let r = walk(&cfg, &choices);
        prop_assert!(r.is_ok(), "{}", r.err().unwrap());
    }
}
