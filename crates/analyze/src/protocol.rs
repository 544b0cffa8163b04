//! The protocol, written once.
//!
//! Every guard, every update and every invariant clause of the closed pair
//! model is defined here exactly once, from the paper's pseudocode, generic
//! over a small value [`Algebra`]: booleans, 3-valued dining phases, binary
//! selectors (`switch`, `trigger`) and saturating wire counters. Three
//! interpretations of that algebra turn the one definition into everything
//! the crate needs:
//!
//! * **concrete** ([`Concrete`]: `bool` / [`DinerPhase`] / `u8`) — what
//!   [`Ir::enabled`](crate::ir::Ir::enabled), [`Ir::fire`](crate::ir::Ir::fire)
//!   and [`Clause::holds`] run, and through them the enumerator and the
//!   lints. Monomorphised: no expression tree exists at run time.
//! * **circuit** (`impl Algebra for` [`CnfBuilder`](crate::cnf::CnfBuilder):
//!   `Bit` / `Bv`) — what [`encode_step`](crate::cnf::encode_step) and the
//!   k-induction engine run.
//! * **printer** ([`crate::tla`]) — TLA+ text: guards, primed updates,
//!   `UNCHANGED` frames and the `Inv` conjunction.
//!
//! Definitions are uniform in the dining instance: they mention instances
//! only as `i`, `1 - i`, or under [`Algebra::for_all`] / [`Algebra::exists`].
//! That is what lets the printer render instance 0 of a family with the
//! symbolic names `i` / `1 - i` and obtain the parametric TLA+ definition.

use crate::induct::Clause;
use crate::ir::{AbsState, ActionId, IrConfig};
use dinefd_core::machines::SubjectMutation;
use dinefd_dining::DinerPhase::{self, Eating, Hungry, Thinking};
use dinefd_explore::ModelMutation;

/// The value algebra the protocol is written over. `cap` parameters are the
/// configuration's wire cap ([`IrConfig::wire_cap`]).
pub trait Algebra {
    /// A truth value.
    type Bool: Clone;
    /// A dining phase (thinking / hungry / eating).
    type Phase: Clone;
    /// A binary selector naming one of the two dining instances.
    type Sel: Clone;
    /// A wire counter saturating at the cap.
    type Count: Clone;

    /// A configuration constant (folded away by every interpretation).
    fn constant(&mut self, v: bool) -> Self::Bool;
    /// Negation.
    fn not(&mut self, x: &Self::Bool) -> Self::Bool;
    /// Conjunction.
    fn all(&mut self, xs: &[&Self::Bool]) -> Self::Bool;
    /// Disjunction.
    fn any(&mut self, xs: &[&Self::Bool]) -> Self::Bool;
    /// `f` holds of both dining instances.
    fn for_all(&mut self, f: impl FnMut(&mut Self, usize) -> Self::Bool) -> Self::Bool;
    /// `f` holds of some dining instance.
    fn exists(&mut self, f: impl FnMut(&mut Self, usize) -> Self::Bool) -> Self::Bool;
    /// The constant phase `p`.
    fn phase(&mut self, p: DinerPhase) -> Self::Phase;
    /// `x = p`.
    fn phase_is(&mut self, x: &Self::Phase, p: DinerPhase) -> Self::Bool;
    /// The selector naming instance `i`.
    fn side(&mut self, i: usize) -> Self::Sel;
    /// `x = i`.
    fn sel_is(&mut self, x: &Self::Sel, i: usize) -> Self::Bool;
    /// The empty counter.
    fn zero(&mut self, cap: u8) -> Self::Count;
    /// `c > 0`.
    fn nonzero(&mut self, c: &Self::Count) -> Self::Bool;
    /// `a + b ≤ k`.
    fn sum_le(&mut self, a: &Self::Count, b: &Self::Count, k: u8) -> Self::Bool;
    /// Saturating increment: `cap` means "at least `cap`".
    fn sat_inc(&mut self, c: &Self::Count, cap: u8) -> Self::Count;
    /// Abstract decrement of a non-empty counter: exact below the cap; at
    /// the cap the true count is only known to be `≥ cap`, so the result is
    /// `cap - 1` or — when `choice` holds — still `cap`.
    fn sat_dec(&mut self, c: &Self::Count, cap: u8, choice: &Self::Bool) -> Self::Count;
    /// `cond ? then_c : else_c`.
    fn select(
        &mut self,
        cond: &Self::Bool,
        then_c: &Self::Count,
        else_c: &Self::Count,
    ) -> Self::Count;
}

/// The pair state as algebra `A` sees it.
pub type StateOf<A> = AbsState<
    <A as Algebra>::Bool,
    <A as Algebra>::Phase,
    <A as Algebra>::Sel,
    <A as Algebra>::Count,
>;

/// The guard of action `id`: Alg. 1 (witness), Alg. 2 (subject, under
/// `cfg`'s seeded mutation), and the model rules for the wire, the dining
/// service, convergence and crash.
#[inline]
pub fn guard<A: Algebra>(a: &mut A, cfg: &IrConfig, s: &StateOf<A>, id: ActionId) -> A::Bool {
    let live = a.not(&s.crashed);
    match id {
        // Alg.1 l.2 { w_i thinking ∧ w_{1-i} thinking ∧ switch = i }
        ActionId::WitnessHungry(i) => {
            let mine = a.phase_is(&s.w_phase[i], Thinking);
            let other = a.phase_is(&s.w_phase[1 - i], Thinking);
            let turn = a.sel_is(&s.switch, i);
            a.all(&[&mine, &other, &turn])
        }
        // Alg.1 l.3 { w_i eating }
        ActionId::WitnessExit(i) => a.phase_is(&s.w_phase[i], Eating),
        // Alg.2 l.2 { s_i thinking ∧ trigger = i } — IgnoreTriggerGuard
        // drops the second conjunct.
        ActionId::SubjectHungry(i) => {
            let thinking = a.phase_is(&s.s_phase[i], Thinking);
            let regime = if cfg.subject_mutation == SubjectMutation::IgnoreTriggerGuard {
                a.constant(true)
            } else {
                a.sel_is(&s.trigger, i)
            };
            a.all(&[&live, &thinking, &regime])
        }
        // Alg.2 l.3 { s_i eating ∧ s_{1-i} not eating ∧ ping_i }
        ActionId::SubjectPing(i) => {
            let eating = a.phase_is(&s.s_phase[i], Eating);
            let other = a.phase_is(&s.s_phase[1 - i], Eating);
            let other_idle = a.not(&other);
            a.all(&[&live, &eating, &other_idle, &s.ping_enabled[i]])
        }
        // Alg.2 l.8 { s_i eating ∧ s_{1-i} eating ∧ trigger = 1-i }
        ActionId::SubjectExit(i) => {
            let eating = a.phase_is(&s.s_phase[i], Eating);
            let other = a.phase_is(&s.s_phase[1 - i], Eating);
            let handed_over = a.sel_is(&s.trigger, 1 - i);
            a.all(&[&live, &eating, &other, &handed_over])
        }
        // A DX_i ping is in flight (the witness is always live).
        ActionId::DeliverPing(i) => a.nonzero(&s.pings[i]),
        // A DX_i ack is in flight and q is live to receive it.
        ActionId::DeliverAck(i) => {
            let some = a.nonzero(&s.acks[i]);
            a.all(&[&live, &some])
        }
        // Hardened mode only: same delivery, rejected by the receiver.
        ActionId::DeliverStaleAck(i) => {
            let mode = a.constant(cfg.strict_seq);
            let some = a.nonzero(&s.acks[i]);
            a.all(&[&mode, &live, &some])
        }
        // Seeded wire bug only.
        ActionId::DuplicateAck(i) => {
            let mode = a.constant(cfg.model_mutation == ModelMutation::StaleAckReplay);
            let some = a.nonzero(&s.acks[i]);
            a.all(&[&mode, &live, &some])
        }
        // Grants: unconstrained before convergence; exclusive per instance
        // afterwards; exclusion binds live neighbors only.
        ActionId::GrantWitness(i) => {
            let hungry = a.phase_is(&s.w_phase[i], Hungry);
            let s_eating = a.phase_is(&s.s_phase[i], Eating);
            let s_idle = a.not(&s_eating);
            let early = a.not(&s.converged);
            let free = a.any(&[&early, &s.crashed, &s_idle]);
            a.all(&[&hungry, &free])
        }
        ActionId::GrantSubject(i) => {
            let hungry = a.phase_is(&s.s_phase[i], Hungry);
            let w_eating = a.phase_is(&s.w_phase[i], Eating);
            let w_idle = a.not(&w_eating);
            let early = a.not(&s.converged);
            let free = a.any(&[&early, &w_idle]);
            a.all(&[&live, &hungry, &free])
        }
        // ◇WX's exclusive suffix cannot begin mid-overlap of live neighbors.
        ActionId::Converge => {
            let no_overlap = a.for_all(|a, i| {
                let w_eating = a.phase_is(&s.w_phase[i], Eating);
                let s_eating = a.phase_is(&s.s_phase[i], Eating);
                let overlap = a.all(&[&live, &w_eating, &s_eating]);
                a.not(&overlap)
            });
            let early = a.not(&s.converged);
            a.all(&[&early, &no_overlap])
        }
        ActionId::CrashSubject => {
            let mode = a.constant(cfg.allow_crash);
            a.all(&[&mode, &live])
        }
    }
}

/// The post-state of firing `id` from `s`. Fields an action leaves alone
/// are the pre-state's own values, which is what makes every
/// interpretation's frame condition exact. `choice` resolves the one
/// saturated decrement a delivery performs.
#[inline]
pub fn update<A: Algebra>(
    a: &mut A,
    cfg: &IrConfig,
    s: &StateOf<A>,
    id: ActionId,
    choice: &A::Bool,
) -> StateOf<A> {
    let cap = cfg.wire_cap;
    let mut t = s.clone();
    match id {
        // w_i becomes hungry in DX_i.
        ActionId::WitnessHungry(i) => t.w_phase[i] = a.phase(Hungry),
        // Alg.1 l.4-7: suspect_q ← ¬haveping_i; haveping_i ← false;
        // switch ← 1-i; w_i exits DX_i.
        ActionId::WitnessExit(i) => {
            t.suspect = a.not(&s.haveping[i]);
            t.haveping[i] = a.constant(false);
            t.switch = a.side(1 - i);
            t.w_phase[i] = a.phase(Thinking);
        }
        ActionId::SubjectHungry(i) => t.s_phase[i] = a.phase(Hungry),
        // Alg.2 l.4-5: ping to p.w_i; ping_i ← false — SkipPingDisable
        // forgets the disable, DropPingSend loses the send on the wire.
        ActionId::SubjectPing(i) => {
            if cfg.subject_mutation != SubjectMutation::SkipPingDisable {
                t.ping_enabled[i] = a.constant(false);
            }
            if cfg.model_mutation != ModelMutation::DropPingSend {
                t.pings[i] = a.sat_inc(&s.pings[i], cap);
            }
        }
        // Alg.2 l.9-10: ping_i ← true; s_i exits DX_i.
        ActionId::SubjectExit(i) => {
            t.ping_enabled[i] = a.constant(true);
            t.s_phase[i] = a.phase(Thinking);
        }
        // W_p(i): haveping_i ← true; ack to q.s_i — unless q is a corpse, in
        // which case the ack is dropped on the floor.
        ActionId::DeliverPing(i) => {
            t.haveping[i] = a.constant(true);
            let acked = a.sat_inc(&s.acks[i], cap);
            t.acks[i] = a.select(&s.crashed, &s.acks[i], &acked);
            t.pings[i] = a.sat_dec(&s.pings[i], cap, choice);
        }
        // S_a(i): trigger ← 1-i — SkipTriggerUpdate forgets it.
        ActionId::DeliverAck(i) => {
            if cfg.subject_mutation != SubjectMutation::SkipTriggerUpdate {
                t.trigger = a.side(1 - i);
            }
            t.acks[i] = a.sat_dec(&s.acks[i], cap, choice);
        }
        // Hardened S_a(i), sequence mismatch: consumed, ignored.
        ActionId::DeliverStaleAck(i) => t.acks[i] = a.sat_dec(&s.acks[i], cap, choice),
        ActionId::DuplicateAck(i) => t.acks[i] = a.sat_inc(&s.acks[i], cap),
        ActionId::GrantWitness(i) => t.w_phase[i] = a.phase(Eating),
        ActionId::GrantSubject(i) => t.s_phase[i] = a.phase(Eating),
        ActionId::Converge => t.converged = a.constant(true),
        // In-flight pings still arrive at the live witness; acks in flight
        // to q vanish.
        ActionId::CrashSubject => {
            t.crashed = a.constant(true);
            t.acks = [a.zero(cap), a.zero(cap)];
        }
    }
    t
}

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

/// The concrete interpretation: plain values, statically dispatched. The
/// connectives are branch-free on purpose — every operand is already
/// computed, and the enumerator runs them a few hundred million times.
#[derive(Clone, Copy, Debug, Default)]
pub struct Concrete {
    /// Set when a [`Algebra::sat_dec`] met a saturated counter, i.e. when
    /// the other value of `choice` yields a second successor.
    pub saturated: bool,
}

impl Algebra for Concrete {
    type Bool = bool;
    type Phase = DinerPhase;
    type Sel = u8;
    type Count = u8;

    #[inline]
    fn constant(&mut self, v: bool) -> bool {
        v
    }
    #[inline]
    fn not(&mut self, x: &bool) -> bool {
        !x
    }
    #[inline]
    fn all(&mut self, xs: &[&bool]) -> bool {
        xs.iter().fold(true, |acc, &&x| acc & x)
    }
    #[inline]
    fn any(&mut self, xs: &[&bool]) -> bool {
        xs.iter().fold(false, |acc, &&x| acc | x)
    }
    #[inline]
    fn for_all(&mut self, mut f: impl FnMut(&mut Self, usize) -> bool) -> bool {
        f(self, 0) & f(self, 1)
    }
    #[inline]
    fn exists(&mut self, mut f: impl FnMut(&mut Self, usize) -> bool) -> bool {
        f(self, 0) | f(self, 1)
    }
    #[inline]
    fn phase(&mut self, p: DinerPhase) -> DinerPhase {
        p
    }
    #[inline]
    fn phase_is(&mut self, x: &DinerPhase, p: DinerPhase) -> bool {
        *x == p
    }
    #[inline]
    fn side(&mut self, i: usize) -> u8 {
        i as u8
    }
    #[inline]
    fn sel_is(&mut self, x: &u8, i: usize) -> bool {
        usize::from(*x) == i
    }
    #[inline]
    fn zero(&mut self, _cap: u8) -> u8 {
        0
    }
    #[inline]
    fn nonzero(&mut self, c: &u8) -> bool {
        *c > 0
    }
    #[inline]
    fn sum_le(&mut self, a: &u8, b: &u8, k: u8) -> bool {
        a + b <= k
    }
    #[inline]
    fn sat_inc(&mut self, c: &u8, cap: u8) -> u8 {
        (c + 1).min(cap)
    }
    #[inline]
    fn sat_dec(&mut self, c: &u8, cap: u8, choice: &bool) -> u8 {
        debug_assert!(*c > 0, "delivering from an empty pool");
        self.saturated |= *c == cap;
        if *c == cap && *choice {
            cap
        } else {
            c - 1
        }
    }
    #[inline]
    fn select(&mut self, cond: &bool, then_c: &u8, else_c: &u8) -> u8 {
        if *cond {
            *then_c
        } else {
            *else_c
        }
    }
}
