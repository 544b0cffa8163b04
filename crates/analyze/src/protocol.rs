//! The invariant clauses, over the one protocol text.
//!
//! The guards and updates of the closed pair model are written once, in
//! [`dinefd_core::protocol`], and re-exported here; this module adds what
//! only the analyzer reads over the same [`Algebra`]: every invariant
//! clause ([`clause`]) and the Theorem-1 completeness closure
//! ([`in_closure`], [`closure_step_faults`]). The concrete interpretation
//! runs them in [`Clause::holds`] and the enumerator, the circuit one in
//! [`encode_step`](crate::cnf::encode_step) and the k-induction engine, and
//! the printer ([`crate::tla`]) renders the `Inv` conjunction.

use crate::induct::Clause;
use dinefd_dining::DinerPhase::{Eating, Hungry, Thinking};

pub use dinefd_core::protocol::{guard, update, Algebra, Concrete, StateOf};

/// Some `DX_i` message (ping or ack) is in flight.
fn in_flight<A: Algebra>(a: &mut A, s: &StateOf<A>, i: usize) -> A::Bool {
    let ping = a.nonzero(&s.pings[i]);
    let ack = a.nonzero(&s.acks[i]);
    a.any(&[&ping, &ack])
}

/// The value of invariant clause `c` on `s` (see [`Clause`] for what each
/// one says and [`crate::induct`] for why the strengthening ones exist).
#[inline]
pub fn clause<A: Algebra>(a: &mut A, s: &StateOf<A>, c: Clause) -> A::Bool {
    match c {
        // Vacuous once q crashed: the corpse's frozen state is unconstrained.
        Clause::L2 => a.for_all(|a, i| {
            let eating = a.phase_is(&s.s_phase[i], Eating);
            a.any(&[&s.crashed, &eating, &s.ping_enabled[i]])
        }),
        Clause::L3 => a.for_all(|a, i| {
            let eating = a.phase_is(&s.s_phase[i], Eating);
            let spent = a.not(&s.ping_enabled[i]);
            let flying = in_flight(a, s, i);
            let quiet = a.not(&flying);
            a.any(&[&s.crashed, &eating, &spent, &quiet])
        }),
        Clause::L4 => a.for_all(|a, i| {
            let hungry = a.phase_is(&s.s_phase[i], Hungry);
            let not_hungry = a.not(&hungry);
            let regime = a.sel_is(&s.trigger, i);
            a.any(&[&s.crashed, &not_hungry, &regime])
        }),
        Clause::L9 => a.exists(|a, i| a.phase_is(&s.w_phase[i], Thinking)),
        Clause::Excl => a.for_all(|a, i| {
            let w_eating = a.phase_is(&s.w_phase[i], Eating);
            let s_eating = a.phase_is(&s.s_phase[i], Eating);
            let overlap = a.all(&[&w_eating, &s_eating]);
            let disjoint = a.not(&overlap);
            let early = a.not(&s.converged);
            a.any(&[&early, &s.crashed, &disjoint])
        }),
        // w_{1-switch} thinking: the instance whose turn it is not, idles.
        Clause::WTurn => a.exists(|a, i| {
            let others_turn = a.sel_is(&s.switch, 1 - i);
            let thinking = a.phase_is(&s.w_phase[i], Thinking);
            a.all(&[&others_turn, &thinking])
        }),
        Clause::R1 => a.for_all(|a, i| a.sum_le(&s.pings[i], &s.acks[i], 1)),
        Clause::R2 => a.for_all(|a, i| {
            let flying = in_flight(a, s, i);
            let quiet = a.not(&flying);
            let spent = a.not(&s.ping_enabled[i]);
            a.any(&[&quiet, &spent])
        }),
        Clause::RegimeTrig => a.for_all(|a, i| {
            let flying = in_flight(a, s, i);
            let quiet = a.not(&flying);
            let regime = a.sel_is(&s.trigger, i);
            a.any(&[&quiet, &regime])
        }),
        Clause::R6 => a.for_all(|a, i| {
            let spent = a.not(&s.ping_enabled[i]);
            let eating = a.phase_is(&s.s_phase[i], Eating);
            let not_eating = a.not(&eating);
            let regime = a.sel_is(&s.trigger, i);
            a.any(&[&s.crashed, &spent, &not_eating, &regime])
        }),
    }
}

/// Membership in the Theorem-1 completeness closure: `q` crashed, no pings
/// in flight, no banked ping. (Never printed, so it may name instances.)
pub fn in_closure<A: Algebra>(a: &mut A, s: &StateOf<A>) -> A::Bool {
    let flying = [a.nonzero(&s.pings[0]), a.nonzero(&s.pings[1])];
    let quiet = [a.not(&flying[0]), a.not(&flying[1])];
    let unbanked = [a.not(&s.haveping[0]), a.not(&s.haveping[1])];
    a.all(&[&s.crashed, &quiet[0], &quiet[1], &unbanked[0], &unbanked[1]])
}

/// The two ways a step out of a closure state can break Theorem 1's
/// completeness argument: `[escaped, regressed]` — the successor leaves the
/// closure, or suspicion of the crashed `q` falls back to trust.
pub fn closure_step_faults<A: Algebra>(
    a: &mut A,
    pre: &StateOf<A>,
    post: &StateOf<A>,
) -> [A::Bool; 2] {
    let inside = in_closure(a, post);
    let escaped = a.not(&inside);
    let trusting = a.not(&post.suspect);
    [escaped, a.all(&[&pre.suspect, &trusting])]
}
