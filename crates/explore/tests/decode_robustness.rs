//! Robustness of every `StateCodec::decode` (`PairState` and
//! `ComposedState`): whatever bytes come in, the decoder returns `None` or a
//! state whose encoding is exactly those bytes — never a panic, never a
//! hang, never a state the bytes do not spell. The inputs are arbitrary byte
//! strings, and every truncation, one-byte extension and one-byte
//! substitution of real encodings: the states the searches reach, and the
//! states deep random walks reach, whose clocks and sequence numbers need
//! multi-byte varints.

use dinefd_explore::{ComposedConfig, ComposedState, ExploreConfig, PairState, StateCodec};
use dinefd_sim::SplitMix64;
use proptest::prelude::*;
use std::collections::HashSet;

/// Decodes `bytes` as `S`: `Ok(true)` for a state that re-encodes to
/// `bytes`, `Ok(false)` for `None`, and the evidence otherwise.
fn verdict<S: StateCodec + std::fmt::Debug>(bytes: &[u8]) -> Result<bool, String> {
    match S::decode(bytes) {
        None => Ok(false),
        Some(s) if s.encode() == bytes => Ok(true),
        Some(s) => Err(format!("{bytes:?} decodes to {s:?}, which encodes to {:?}", s.encode())),
    }
}

/// Breadth-first, the first `cap` distinct states from `initial`, and the
/// states of `walks` random walks of `steps` steps from it.
fn sample<S: StateCodec + Clone, L>(
    initial: S,
    successors: impl Fn(&S) -> Vec<(L, S)>,
    cap: usize,
    walks: usize,
    steps: usize,
) -> Vec<S> {
    let mut seen = HashSet::new();
    let mut states = vec![initial.clone()];
    seen.insert(initial.encode());
    let mut at = 0;
    while at < states.len() && states.len() < cap {
        for (_, next) in successors(&states[at]) {
            if seen.insert(next.encode()) {
                states.push(next);
            }
        }
        at += 1;
    }
    let mut rng = SplitMix64::new(7);
    for _ in 0..walks {
        let mut state = initial.clone();
        for _ in 0..steps {
            let mut succ = successors(&state);
            if succ.is_empty() {
                break;
            }
            let pick = rng.next_u64() as usize % succ.len();
            state = succ.swap_remove(pick).1;
        }
        states.push(state);
    }
    states
}

/// Every truncation, one-byte extension and one-byte substitution of each
/// state's encoding, decoded and checked. Returns how many were accepted.
fn mangle_all<S: StateCodec + std::fmt::Debug>(states: &[S]) -> usize {
    let mut accepted = 0;
    let mut check = |bytes: &[u8]| match verdict::<S>(bytes) {
        Ok(ok) => accepted += usize::from(ok),
        Err(e) => panic!("{e}"),
    };
    for s in states {
        let bytes = s.encode();
        for cut in 0..bytes.len() {
            check(&bytes[..cut]);
        }
        let mut long = bytes.clone();
        long.push(0);
        for b in 0..=255u8 {
            *long.last_mut().unwrap() = b;
            check(&long);
        }
        let mut mutant = bytes.clone();
        for pos in 0..bytes.len() {
            let flips = (0..8).map(|bit| bytes[pos] ^ 1 << bit);
            for b in flips.chain([0, 1, 2, 3, 0x7f, 0x80, 0xff]) {
                mutant[pos] = b;
                check(&mutant);
            }
            mutant[pos] = bytes[pos];
        }
    }
    accepted
}

fn composed_cfg() -> ComposedConfig {
    ComposedConfig { max_depth: 0, max_states: 0, ..Default::default() }
}

#[test]
fn mangled_pair_encodings_decode_to_none_or_to_themselves() {
    for cfg in [
        ExploreConfig::default(),
        ExploreConfig { strict_seq: true, start_converged: true, ..Default::default() },
    ] {
        let states = sample(PairState::initial(&cfg), |s| s.successors(&cfg), 400, 16, 300);
        let accepted = mangle_all(&states);
        // Some mangled encodings are other states' encodings: the check has
        // decodes to compare, not only refusals.
        assert!(accepted > states.len(), "only {accepted} accepted");
    }
}

#[test]
fn mangled_composed_encodings_decode_to_none_or_to_themselves() {
    let cfg = composed_cfg();
    let states = sample(ComposedState::initial(&cfg), |s| s.successors(&cfg), 400, 16, 300);
    let accepted = mangle_all(&states);
    assert!(accepted > states.len(), "only {accepted} accepted");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_bytes_decode_to_none_or_to_themselves(
        bytes in prop::collection::vec(any::<u8>(), 0..48),
    ) {
        let pair = verdict::<PairState>(&bytes);
        prop_assert!(pair.is_ok(), "{}", pair.unwrap_err());
        let composed = verdict::<ComposedState>(&bytes);
        prop_assert!(composed.is_ok(), "{}", composed.unwrap_err());
    }

    #[test]
    fn arbitrary_tails_after_a_real_prefix_decode_to_none_or_to_themselves(
        choices in prop::collection::vec(any::<u32>(), 0..40),
        cut in any::<u16>(),
        tail in prop::collection::vec(any::<u8>(), 0..24),
    ) {
        // A walk's encoding cut anywhere and finished with random bytes:
        // the decoder gets past real headers before it meets the noise.
        let cfg = composed_cfg();
        let mut state = ComposedState::initial(&cfg);
        for &c in &choices {
            let succ = state.successors(&cfg);
            state = succ[c as usize % succ.len()].1.clone();
        }
        let mut bytes = state.encode();
        bytes.truncate(usize::from(cut) % (bytes.len() + 1));
        bytes.extend_from_slice(&tail);
        let composed = verdict::<ComposedState>(&bytes);
        prop_assert!(composed.is_ok(), "{}", composed.unwrap_err());
    }
}
