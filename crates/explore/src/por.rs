//! Sleep-set partial-order reduction over commuting message deliveries.
//!
//! The explorers enumerate every interleaving of machine actions and message
//! deliveries. Many of those interleavings are provably redundant: two
//! deliveries from *different* wire pools touch disjoint parts of the state
//! and commute, so exploring `DeliverPing(k); DeliverAck(j)` and
//! `DeliverAck(j); DeliverPing(k)` from the same state reaches the same
//! grandchild twice. Sleep sets (Godefroid) prune the second arrival's
//! re-exploration *work* without losing any reachable state.
//!
//! ## Which labels commute (the soundness argument)
//!
//! A label is assigned a [`DeliveryClass`] when it only removes one message
//! from one wire pool and feeds it to the receiving component:
//!
//! * **`Ping(k)`** — pair/composed `DeliverPing(k)`: removes `pings[k]`,
//!   steps the *witness* machine, may append one ack to the end of `acks`.
//! * **`Ack(j)`** — `DeliverAck(j)`: removes `acks[j]`, steps the *subject*
//!   machine.
//! * **`Dx(d)`** — composed `DeliverDx(d)`: removes `dx_wire[d]`, steps one
//!   *fork endpoint*.
//!
//! Two labels of **different** classes commute: their receiving components
//! are disjoint (witness vs subject vs fork layer), neither consumes the
//! message the other consumes, neither enables or disables the other, and
//! the only shared structure — a ping delivery *appending* an ack while an
//! ack delivery *removes* an earlier ack — commutes because removal at index
//! `j` and push-at-end are order-independent for `j` within the original
//! prefix. (The composed model's derived taints depend only on phases and
//! mistake flags, which single deliveries of different classes update
//! disjointly.)
//!
//! Two labels of the **same** class do *not* commute in general (two ping
//! deliveries race on witness ping-flags and on ack append order; two dx
//! deliveries race on one endpoint's clock), so same-class labels never
//! sleep each other. Every non-delivery label (machine actions, crashes,
//! ticks, flag flips, the composed `DuplicateAck` mistake) has class `None`
//! and conservatively resets the sleep mask.
//!
//! ## Mechanics
//!
//! A sleep mask is a `u32` with one bit per *pool index*: ping indices 0–9
//! map to bits 0–9, ack indices to bits 10–19, dx indices 0–11 to bits
//! 20–31. An index beyond its window gets no bit and is therefore never
//! slept — sound, merely unoptimized (the explorers' wire pools stay far
//! below these bounds at practical depths).
//!
//! During expansion the engine walks the successor list in order; for each
//! *explored* delivery label it adds the label's bit to an `earlier`
//! accumulator, and each successor inherits
//! `(parent_sleep | earlier) & survivors(class)` — i.e. a child may skip
//! re-exploring deliveries of *other* classes that an earlier sibling
//! already explored (the classic sleep-set recurrence restricted to the
//! proven-independent pairs). A successor whose own label's bit is already
//! set in the parent's sleep mask is **skipped** (counted in
//! `SearchStats::sleep_skips`): the state it leads to is reachable — and
//! reached — through the commuted order.
//!
//! Because independent permutations preserve path *length*, and the visited
//! store re-queues a state whenever it arrives with more remaining depth or
//! a strictly smaller sleep mask (intersection convergence, see the private
//! `visited` module), the POR-on search visits **exactly** the same state
//! set, transition count, deadlock set, and verdicts as the full search —
//! equivalence is asserted test-for-test across every seeded mutation in
//! `tests/por_equivalence.rs`. The savings show up as skipped
//! encode/probe/expand work, not as a smaller state count.

/// Classification of a transition label for sleep-set purposes: which wire
/// pool the label consumes from, if any.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryClass {
    /// Delivers `pings[k]` to the witness.
    Ping(usize),
    /// Delivers `acks[j]` to the subject.
    Ack(usize),
    /// Delivers `dx_wire[d]` to a fork endpoint (composed model only).
    Dx(usize),
}

const PING_BITS: u32 = 0x0000_03ff; // bits 0..10
const ACK_BITS: u32 = 0x000f_fc00; // bits 10..20
const DX_BITS: u32 = 0xfff0_0000; // bits 20..32

impl DeliveryClass {
    /// The label's own sleep bit, or 0 if its index is beyond the window
    /// (such a label can never be slept — sound, just unreduced).
    pub(crate) fn bit(self) -> u32 {
        match self {
            DeliveryClass::Ping(k) if k < 10 => 1 << k,
            DeliveryClass::Ack(j) if j < 10 => 1 << (10 + j),
            DeliveryClass::Dx(d) if d < 12 => 1 << (20 + d),
            _ => 0,
        }
    }

    /// Mask of sleep bits that *survive* executing this label: exactly the
    /// other classes' windows, since only cross-class pairs are proven
    /// independent.
    pub(crate) fn survivors(self) -> u32 {
        match self {
            DeliveryClass::Ping(_) => ACK_BITS | DX_BITS,
            DeliveryClass::Ack(_) => PING_BITS | DX_BITS,
            DeliveryClass::Dx(_) => PING_BITS | ACK_BITS,
        }
    }
}

/// Sleep mask a successor inherits: the parent's surviving sleeps plus the
/// earlier-explored siblings', restricted to classes independent of the
/// executed label. `None`-class labels reset the mask.
pub(crate) fn child_sleep(parent_sleep: u32, earlier: u32, class: Option<DeliveryClass>) -> u32 {
    match class {
        Some(c) => (parent_sleep | earlier) & c.survivors(),
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_are_disjoint_and_windowed() {
        let mut seen = 0u32;
        for k in 0..10 {
            let b = DeliveryClass::Ping(k).bit();
            assert_ne!(b, 0);
            assert_eq!(seen & b, 0);
            seen |= b;
            assert_eq!(b & PING_BITS, b);
        }
        for j in 0..10 {
            let b = DeliveryClass::Ack(j).bit();
            assert_ne!(b, 0);
            assert_eq!(seen & b, 0);
            seen |= b;
            assert_eq!(b & ACK_BITS, b);
        }
        for d in 0..12 {
            let b = DeliveryClass::Dx(d).bit();
            assert_ne!(b, 0);
            assert_eq!(seen & b, 0);
            seen |= b;
            assert_eq!(b & DX_BITS, b);
        }
        assert_eq!(seen, u32::MAX, "the three windows tile the u32 exactly");
        // Oversized indices are never sleepable.
        assert_eq!(DeliveryClass::Ping(10).bit(), 0);
        assert_eq!(DeliveryClass::Ack(10).bit(), 0);
        assert_eq!(DeliveryClass::Dx(12).bit(), 0);
    }

    #[test]
    fn same_class_never_sleeps_itself() {
        for (a, b) in [
            (DeliveryClass::Ping(0), DeliveryClass::Ping(3)),
            (DeliveryClass::Ack(1), DeliveryClass::Ack(2)),
            (DeliveryClass::Dx(0), DeliveryClass::Dx(5)),
        ] {
            assert_eq!(a.bit() & b.survivors(), 0, "{a:?} must not survive {b:?}");
            assert_eq!(a.bit() & a.survivors(), 0, "{a:?} must not survive itself");
        }
    }

    #[test]
    fn cross_class_sleeps_propagate() {
        // An explored ping sleeps in an ack-delivery child, and vice versa.
        let ping = DeliveryClass::Ping(2);
        let ack = DeliveryClass::Ack(4);
        let s = child_sleep(0, ping.bit(), Some(ack));
        assert_ne!(s & ping.bit(), 0);
        let s = child_sleep(0, ack.bit(), Some(ping));
        assert_ne!(s & ack.bit(), 0);
        // But a non-delivery step resets everything.
        assert_eq!(child_sleep(u32::MAX, u32::MAX, None), 0);
    }
}
