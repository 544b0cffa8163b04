//! Property tests of the explorer state codec: `decode(encode(s)) == s`
//! exactly, and fingerprint equality implies byte equality over generated
//! states — the two facts the fingerprinted visited store leans on to stay
//! *exhaustive* (a fingerprint hit is only trusted after an exact byte
//! comparison, so a codec that conflated two states would be the only way
//! to lose a state silently).
//!
//! `PairState` has public fields, so it is generated directly — including
//! adversarial wire queues far larger and with far higher sequence numbers
//! than any reachable state carries. `ComposedState` keeps its fields
//! private; it is generated by random deep walks through the real
//! transition relation instead.

use dinefd_core::machines::{SubjectMachine, WitnessMachine};
use dinefd_dining::DinerPhase;
use dinefd_explore::{fingerprint, ComposedConfig, ComposedState, PairState, StateCodec};
use dinefd_sim::codec::put_varint;
use proptest::prelude::*;
use std::collections::HashMap;

fn phase_of(bits: u8) -> DinerPhase {
    match bits & 0b11 {
        0 => DinerPhase::Thinking,
        1 => DinerPhase::Hungry,
        2 => DinerPhase::Eating,
        _ => DinerPhase::Exiting,
    }
}

/// Rebuilds a `SubjectMachine` from raw packed parts via its own `unpack`
/// (the only public constructor covering every flag combination).
fn subject_of(flags: u8, seq: [u64; 2]) -> SubjectMachine {
    let mut buf = vec![flags & 0x3f];
    put_varint(&mut buf, seq[0]);
    put_varint(&mut buf, seq[1]);
    let mut cursor = buf.as_slice();
    SubjectMachine::unpack(&mut cursor).expect("packed subject parses")
}

/// An arbitrary in-flight ping/ack pool: `(instance, seq)` pairs. Sequence
/// numbers range to the codec's tagging limit, far beyond reachable values.
fn arb_queue() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0u8..2, 0u64..(u64::MAX / 2)), 0..12)
}

fn arb_pair_state() -> impl Strategy<Value = PairState> {
    (
        // Machines and phases: an arbitrary phase byte (four dining phases,
        // two bits each), the witness pack byte, subject flags + seqs.
        (any::<u8>(), 0u8..16, (0u8..64, any::<u64>(), any::<u64>())),
        // Wires and model flags.
        (arb_queue(), arb_queue(), any::<bool>(), any::<bool>()),
    )
        .prop_map(|((phases, w, (sf, s0, s1)), (pings, acks, converged, crashed))| PairState {
            witness: WitnessMachine::unpack(w).expect("4-bit codomain byte"),
            subject: subject_of(sf, [s0, s1]),
            w_phase: [phase_of(phases), phase_of(phases >> 2)],
            s_phase: [phase_of(phases >> 4), phase_of(phases >> 6)],
            pings,
            acks,
            converged,
            crashed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pair_state_round_trips_exactly(s in arb_pair_state()) {
        let bytes = s.encode();
        let decoded = PairState::decode(&bytes);
        prop_assert_eq!(decoded.as_ref(), Some(&s));
        // The encoding is canonical: re-encoding the decoded state is
        // byte-identical (no don't-care bits survive a round trip).
        prop_assert_eq!(decoded.unwrap().encode(), bytes);
    }

    #[test]
    fn pair_encode_into_appends_without_disturbing_prefix(
        s in arb_pair_state(),
        prefix in prop::collection::vec(any::<u8>(), 0..8),
    ) {
        // The engines encode into reused scratch buffers; appending must be
        // position-independent.
        let mut buf = prefix.clone();
        s.encode_into(&mut buf);
        let fresh = s.encode();
        prop_assert_eq!(&buf[..prefix.len()], prefix.as_slice());
        prop_assert_eq!(&buf[prefix.len()..], fresh.as_slice());
    }

    #[test]
    fn pair_fingerprint_equality_implies_byte_equality(
        a in arb_pair_state(),
        b in arb_pair_state(),
    ) {
        // The store's soundness contract, stated contrapositively: two
        // states sharing a 64-bit fingerprint must share their encoding
        // (distinct states colliding is a ~2^-64 event per pair; a codec
        // that dropped a field would fail this immediately).
        let (ea, eb) = (a.encode(), b.encode());
        if fingerprint(&ea) == fingerprint(&eb) {
            prop_assert_eq!(ea, eb);
        }
        if a == b {
            prop_assert_eq!(fingerprint(&a.encode()), fingerprint(&b.encode()), "determinism");
        }
    }

    #[test]
    fn pair_decode_rejects_mangled_buffers(
        s in arb_pair_state(),
        chop in 1usize..4,
    ) {
        let bytes = s.encode();
        let cut = bytes.len().saturating_sub(chop);
        prop_assert_eq!(PairState::decode(&bytes[..cut]), None, "truncation must fail");
        let mut long = bytes.clone();
        long.push(0);
        prop_assert_eq!(PairState::decode(&long), None, "trailing bytes must fail");
    }

    #[test]
    fn composed_states_round_trip_along_random_walks(
        choices in prop::collection::vec(any::<u32>(), 1..120),
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
        let mut state = ComposedState::initial(&cfg);
        // fingerprint → encoding, across every state on the walk: equal
        // fingerprints must carry equal bytes (the store's arena check).
        let mut seen: HashMap<u64, Vec<u8>> = HashMap::new();
        for &c in &choices {
            let bytes = state.encode();
            let decoded = ComposedState::decode(&bytes);
            prop_assert_eq!(decoded.as_ref(), Some(&state));
            let fp = fingerprint(&bytes);
            if let Some(prev) = seen.get(&fp) {
                prop_assert_eq!(prev, &bytes, "fingerprint collision with unequal bytes");
            } else {
                seen.insert(fp, bytes);
            }
            let succ = state.successors(&cfg);
            prop_assert!(!succ.is_empty(), "composed model deadlocked");
            state = succ[(c as usize) % succ.len()].1.clone();
        }
    }
}
