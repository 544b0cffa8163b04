//! Compact state codec for the explorers' visited stores.
//!
//! Both model states ([`PairState`] here, `ComposedState` in
//! [`crate::composed`]) implement [`StateCodec`]: a bit-packed, varint-backed
//! byte encoding plus its exact inverse. The search engine never keys a hash
//! map by a cloned state struct; it encodes each state once into a scratch
//! buffer and hands the bytes to the visited store (the private `visited`
//! module), which fingerprints them with [`fingerprint`] and interns them in
//! its arena. A fingerprint tag match is only trusted after a byte-for-byte
//! comparison against the interned encoding, so the search stays
//! **exhaustive** — this is compact hashing in the SPIN tradition, not lossy
//! bitstate hashing.
//!
//! Encodings pack the enum-like fields (dining phases, machine flags,
//! mistake lifecycles) into single bytes and use LEB128 varints for the
//! unbounded counters, so a typical [`PairState`] costs ~10 bytes against
//! several hundred for the in-memory struct. The composed encoding writes
//! only what varies: a fork endpoint's own id, its peer and edge count, the
//! ids in its session stamp and in a pending request, and the sender id of a
//! wire `Request` all follow from the slot the value sits in, so none is
//! written (28.5 bytes a state over the depth-18 search, from 51.1).
//!
//! `decode(encode(s)) == s` holds exactly (property-tested in
//! `tests/proptest_codec.rs`, and debug-asserted on every fresh insertion by
//! the engine), and decoding is strict: any byte string decodes to `None` or
//! to a state whose encoding is that byte string (`tests/decode_robustness.rs`
//! feeds it arbitrary, truncated, extended and mutated encodings). Unused
//! flag bits, unknown tags, non-minimal varints and trailing bytes are all
//! refused.

use dinefd_dining::DinerPhase;
use dinefd_sim::codec::{hash64, put_u8, put_varint, take_u8, take_varint};

use crate::pair_model::PairState;

/// A state with a compact, exactly-invertible byte encoding.
pub trait StateCodec: Sized {
    /// Appends the canonical encoding of `self` to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Decodes a state from exactly the bytes `encode_into` produced.
    /// `None` on any malformed input.
    fn decode(input: &[u8]) -> Option<Self>;

    /// Convenience: the canonical encoding as a fresh buffer.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_into(&mut out);
        out
    }
}

/// 64-bit fingerprint of an encoded state — the visited store's probe key.
/// Collisions are possible and are resolved by exact byte comparison, never
/// by trusting the fingerprint alone.
#[inline]
pub fn fingerprint(encoded: &[u8]) -> u64 {
    hash64(encoded)
}

/// Two-bit codes for [`DinerPhase`] (shared by both state encodings).
pub(crate) fn phase_bits(p: DinerPhase) -> u8 {
    match p {
        DinerPhase::Thinking => 0,
        DinerPhase::Hungry => 1,
        DinerPhase::Eating => 2,
        DinerPhase::Exiting => 3,
    }
}

/// Inverse of [`phase_bits`] (total on the low two bits).
pub(crate) fn phase_from_bits(b: u8) -> DinerPhase {
    match b & 0b11 {
        0 => DinerPhase::Thinking,
        1 => DinerPhase::Hungry,
        2 => DinerPhase::Eating,
        _ => DinerPhase::Exiting,
    }
}

/// Encodes one in-flight ping/ack `(instance, seq)` as a single varint
/// `seq << 1 | instance`. Sequence numbers are bounded by the exploration
/// depth, so the shift cannot overflow in any reachable state.
pub(crate) fn put_wire_msg(out: &mut Vec<u8>, (i, seq): (u8, u64)) {
    debug_assert!(i < 2, "instance index is 0 or 1");
    debug_assert!(seq <= u64::MAX >> 1, "seq too large to tag");
    put_varint(out, seq << 1 | u64::from(i));
}

/// Inverse of [`put_wire_msg`].
pub(crate) fn take_wire_msg(input: &mut &[u8]) -> Option<(u8, u64)> {
    let v = take_varint(input)?;
    Some(((v & 1) as u8, v >> 1))
}

/// Encodes a ping/ack pool: varint length, then each message.
pub(crate) fn put_wire_queue(out: &mut Vec<u8>, queue: &[(u8, u64)]) {
    put_varint(out, queue.len() as u64);
    for &m in queue {
        put_wire_msg(out, m);
    }
}

/// Inverse of [`put_wire_queue`]. A length longer than the bytes left is
/// malformed (every message takes at least one byte), so it is refused
/// before anything is allocated for it.
pub(crate) fn take_wire_queue(input: &mut &[u8]) -> Option<Vec<(u8, u64)>> {
    let n = usize::try_from(take_varint(input)?).ok().filter(|&n| n <= input.len())?;
    let mut queue = Vec::with_capacity(n);
    for _ in 0..n {
        queue.push(take_wire_msg(input)?);
    }
    Some(queue)
}

impl StateCodec for PairState {
    fn encode_into(&self, out: &mut Vec<u8>) {
        // Byte 0: all four dining phases, two bits each.
        put_u8(
            out,
            phase_bits(self.w_phase[0])
                | phase_bits(self.w_phase[1]) << 2
                | phase_bits(self.s_phase[0]) << 4
                | phase_bits(self.s_phase[1]) << 6,
        );
        // Byte 1: model flags.
        put_u8(out, self.converged as u8 | (self.crashed as u8) << 1);
        put_u8(out, self.witness.pack());
        self.subject.pack_into(out);
        put_wire_queue(out, &self.pings);
        put_wire_queue(out, &self.acks);
    }

    fn decode(mut input: &[u8]) -> Option<Self> {
        let input = &mut input;
        let phases = take_u8(input)?;
        let flags = take_u8(input)?;
        if flags & !0b11 != 0 {
            return None;
        }
        let state = PairState {
            w_phase: [phase_from_bits(phases), phase_from_bits(phases >> 2)],
            s_phase: [phase_from_bits(phases >> 4), phase_from_bits(phases >> 6)],
            converged: flags & 1 != 0,
            crashed: flags & 0b10 != 0,
            witness: dinefd_core::machines::WitnessMachine::unpack(take_u8(input)?)?,
            subject: dinefd_core::machines::SubjectMachine::unpack(input)?,
            pings: take_wire_queue(input)?,
            acks: take_wire_queue(input)?,
        };
        input.is_empty().then_some(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair_model::{ExploreConfig, TransitionLabel};

    #[test]
    fn initial_pair_state_round_trips_small() {
        let cfg = ExploreConfig::default();
        let s = PairState::initial(&cfg);
        let bytes = s.encode();
        assert!(bytes.len() <= 12, "initial state should be tiny, got {} bytes", bytes.len());
        assert_eq!(PairState::decode(&bytes), Some(s));
    }

    #[test]
    fn decode_rejects_truncated_and_trailing_bytes() {
        let s = PairState::initial(&ExploreConfig::default());
        let bytes = s.encode();
        assert_eq!(PairState::decode(&bytes[..bytes.len() - 1]), None, "truncation");
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(PairState::decode(&long), None, "trailing bytes");
    }

    #[test]
    fn a_queue_length_past_the_end_of_the_buffer_is_malformed() {
        // The initial state ends in two empty wire queues. Claim 2^35 and
        // then 2^60 pings with no bytes behind them: allocating for the
        // claim first would abort (512 GiB) or panic (capacity overflow).
        let bytes = PairState::initial(&ExploreConfig::default()).encode();
        assert!(bytes.ends_with(&[0, 0]));
        for n in [1u64 << 35, 1 << 60] {
            let mut crafted = bytes[..bytes.len() - 2].to_vec();
            put_varint(&mut crafted, n);
            assert_eq!(PairState::decode(&crafted), None, "{n} pings claimed");
        }
    }

    #[test]
    fn fingerprint_tracks_encoding_changes_along_a_walk() {
        // Walk a few transitions; every distinct state must keep a stable
        // fingerprint and round-trip exactly.
        let cfg = ExploreConfig::default();
        let mut s = PairState::initial(&cfg);
        for pick in [0usize, 0, 1, 2, 0, 1, 3, 0] {
            let succ = s.successors(&cfg);
            let (label, next) = succ.into_iter().cycle().nth(pick).expect("model never deadlocks");
            let bytes = next.encode();
            assert_eq!(PairState::decode(&bytes).as_ref(), Some(&next), "after {label:?}");
            assert_eq!(fingerprint(&bytes), fingerprint(&next.encode()));
            s = next;
        }
    }

    #[test]
    fn wire_queue_round_trips_with_high_seqs() {
        let queue = vec![(0u8, 0u64), (1, 1), (0, 300), (1, 12_345_678)];
        let mut buf = Vec::new();
        put_wire_queue(&mut buf, &queue);
        let mut cursor = buf.as_slice();
        assert_eq!(take_wire_queue(&mut cursor), Some(queue));
        assert!(cursor.is_empty());
    }

    #[test]
    fn labels_do_not_affect_encoding_determinism() {
        // Same state reached by different label orders encodes identically
        // (the codec sees only the state, not its history).
        let cfg = ExploreConfig::default();
        let s = PairState::initial(&cfg);
        let via = |labels: &[TransitionLabel]| {
            let mut cur = s.clone();
            for &l in labels {
                let (_, next) =
                    cur.successors(&cfg).into_iter().find(|&(x, _)| x == l).expect("enabled");
                cur = next;
            }
            cur.encode()
        };
        use dinefd_core::machines::{SubjectAction, WitnessAction};
        let a = via(&[
            TransitionLabel::Witness(WitnessAction::Hungry(0)),
            TransitionLabel::Subject(SubjectAction::Hungry(0)),
        ]);
        let b = via(&[
            TransitionLabel::Subject(SubjectAction::Hungry(0)),
            TransitionLabel::Witness(WitnessAction::Hungry(0)),
        ]);
        assert_eq!(a, b, "commuting prefix must reach one encoded state");
    }
}
