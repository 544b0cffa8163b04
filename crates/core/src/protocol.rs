//! The protocol, written once.
//!
//! Every guard and every update of the closed pair model — Alg. 1 (the
//! witness), Alg. 2 (the subject), the wire, the dining service,
//! convergence and crash — is defined here exactly once, from the paper's
//! pseudocode, generic over a small value [`Algebra`]: booleans, dining
//! phases, binary selectors (`switch`, `trigger`) and saturating wire
//! counters. So is the safety argument: every invariant [`clause`] — Lemmas
//! 2, 3, 4 and 9, exclusion soundness and the inductive checker's
//! strengthening clauses — and Theorem 1's completeness closure
//! ([`in_closure`], [`closure_step_faults`]). Four interpretations of that
//! algebra turn the one definition into everything the workspace runs and
//! proves:
//!
//! * **machines** ([`crate::machines`]) — [`WitnessMachine`] and
//!   [`SubjectMachine`] read [`guard`] and [`update`] through [`Concrete`]
//!   on a view of their own fields, which is what `dinefd extract`, the
//!   live runtime, the explorer and the fuzzer execute;
//! * **concrete** ([`Concrete`]: `bool` / [`DinerPhase`] / `u8`) — the
//!   guarded-command IR of `dinefd-analyze` (`Ir::enabled`, `Ir::fire`),
//!   and through it the explicit enumerator and the lints; and the lemma
//!   checks of the explorer's models and the fuzzer, which evaluate
//!   [`clause_at`] on an [`AbsState`] view of their states;
//! * **circuit** (`dinefd-analyze`'s `CnfBuilder`) — the bit-blasted
//!   transition relation and invariant the k-induction engine solves;
//! * **printer** (`dinefd-analyze`'s `tla` module) — TLA+ text: guards,
//!   primed updates, `UNCHANGED` frames and the `Inv` conjunction.
//!
//! Definitions are uniform in the dining instance: they mention instances
//! only as `i`, `1 - i`, or under [`Algebra::for_all`] / [`Algebra::exists`].
//! That is what lets the printer render instance 0 of a family with the
//! symbolic names `i` / `1 - i` and obtain the parametric TLA+ definition.
//! (The closure alone names both instances; it is never printed.)
//!
//! [`WitnessMachine`]: crate::machines::WitnessMachine
//! [`SubjectMachine`]: crate::machines::SubjectMachine

use crate::machines::SubjectMutation;
use dinefd_dining::DinerPhase::{self, Eating, Hungry, Thinking};

/// Default saturation cap of the abstract wire counters: the value
/// `WIRE_CAP` denotes "at least `WIRE_CAP` messages in flight". `2`
/// distinguishes exactly the counts the lemma invariants and the
/// duplicate-suppression regime talk about: none, exactly one, more than
/// one. [`IrConfig::wire_cap`] lifts the cap to a per-run parameter
/// (validated range [`MIN_WIRE_CAP`]..=[`MAX_WIRE_CAP`]); this constant is
/// its default and the cap the explicit enumerator is tuned for.
pub const WIRE_CAP: u8 = 2;

/// Smallest admissible [`IrConfig::wire_cap`]: below 2 the abstraction
/// cannot distinguish "exactly one" from "more than one" in flight, which
/// the strengthening clauses rely on.
pub const MIN_WIRE_CAP: u8 = 2;

/// Largest admissible [`IrConfig::wire_cap`]: keeps counters within 4 bits
/// for the bit-blasted encoding and the packed [`AbsState::pack_key`].
pub const MAX_WIRE_CAP: u8 = 8;

/// Seeded bugs injected at the *model* level — the wire between the
/// machines — complementing the machine-level [`SubjectMutation`]s. Used by
/// the seeded-bug test suites to prove the checkers can see.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ModelMutation {
    /// The faithful wire.
    #[default]
    None,
    /// `S_p`'s ping is silently lost in transit (the machine still believes
    /// it sent one). Safety lemmas survive; the hand-off starves — only
    /// liveness checking (`dinefd_explore::fair_run`) catches it.
    DropPingSend,
    /// The wire may duplicate an in-flight ack, so a stale ack can survive
    /// into a later epoch and flip the trigger out of turn (breaks Lemma 4;
    /// the in-flight duplicate also breaks Lemma 3).
    StaleAckReplay,
}

impl ModelMutation {
    /// Each variant's spelling in `dinefd --model-mutation` and the
    /// scenario DSL's `model_mutation` key, in declaration order.
    pub const SPELLINGS: [(&'static str, ModelMutation); 3] = [
        ("none", ModelMutation::None),
        ("drop-ping-send", ModelMutation::DropPingSend),
        ("stale-ack-replay", ModelMutation::StaleAckReplay),
    ];

    /// This variant's entry in [`Self::SPELLINGS`].
    pub fn name(self) -> &'static str {
        Self::SPELLINGS[self as usize].0
    }
}

/// The configuration the guards and updates read: which machine variant
/// and which seeded bugs the action system models, plus the abstract wire
/// depth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IrConfig {
    /// Harden the subject with sequence-checked acks (ack deliveries gain a
    /// nondeterministic "stale, ignored" branch).
    pub strict_seq: bool,
    /// Allow the subject process `q` to crash.
    pub allow_crash: bool,
    /// Seeded machine-level bug (`None` = the faithful Alg. 2).
    pub subject_mutation: SubjectMutation,
    /// Seeded wire-level bug (`None` = the faithful wire).
    pub model_mutation: ModelMutation,
    /// Saturation cap of the abstract wire counters
    /// ([`MIN_WIRE_CAP`]..=[`MAX_WIRE_CAP`]). The typed domain grows as
    /// `(cap + 1)⁴`, so caps above [`WIRE_CAP`] are practical only through
    /// the symbolic engine.
    pub wire_cap: u8,
}

impl Default for IrConfig {
    fn default() -> Self {
        IrConfig {
            strict_seq: false,
            allow_crash: false,
            subject_mutation: SubjectMutation::default(),
            model_mutation: ModelMutation::default(),
            wire_cap: WIRE_CAP,
        }
    }
}

impl IrConfig {
    /// The faithful paper configuration (crash allowed, lenient acks).
    pub fn faithful() -> Self {
        IrConfig { allow_crash: true, ..Default::default() }
    }
}

/// One pair state: the two machines' fields, the four dining phases, the
/// model flags, and the abstract wire. The type parameters are the value
/// types of one [`Algebra`] (booleans, phases, selectors, counters); the
/// defaults are the concrete ones, so plain `AbsState` is the `Copy`, small
/// state the machines build their views in and the analyzer's typed domain
/// is enumerated in by value, and `dinefd-analyze`'s `SymState` wraps the
/// same record over circuit values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AbsState<B = bool, P = DinerPhase, S = u8, C = u8> {
    /// Phases of `p.w_0`, `p.w_1` (never `Exiting` in the typed domain).
    pub w_phase: [P; 2],
    /// Phases of `q.s_0`, `q.s_1`.
    pub s_phase: [P; 2],
    /// Alg. 1 `switch` (whose turn it is).
    pub switch: S,
    /// Alg. 1 `haveping_i`.
    pub haveping: [B; 2],
    /// Alg. 1 `suspect_q` — the witness's output.
    pub suspect: B,
    /// Alg. 2 `trigger`.
    pub trigger: S,
    /// Alg. 2 `ping_i`.
    pub ping_enabled: [B; 2],
    /// Whether ◇WX's exclusive suffix has begun.
    pub converged: B,
    /// Whether `q` has crashed.
    pub crashed: B,
    /// In-flight `DX_i` pings, saturating at the wire cap.
    pub pings: [C; 2],
    /// In-flight `DX_i` acks, saturating at the wire cap.
    pub acks: [C; 2],
}

impl AbsState {
    /// The model's initial state.
    pub fn initial() -> Self {
        AbsState {
            w_phase: [DinerPhase::Thinking; 2],
            s_phase: [DinerPhase::Thinking; 2],
            switch: 0,
            haveping: [false, false],
            suspect: true,
            trigger: 0,
            ping_enabled: [true, true],
            converged: false,
            crashed: false,
            pings: [0, 0],
            acks: [0, 0],
        }
    }

    /// Packs the state into one `u64` key, injective for wire caps up to
    /// [`MAX_WIRE_CAP`] (counters occupy 4 bits each). Used as the exact
    /// fingerprint for deduplicating CTI replay classification — in the
    /// spirit of the explorer's `StateCodec`, but lossless by construction
    /// so cache hits can never conflate two distinct pre-states.
    pub fn pack_key(&self) -> u64 {
        let phase = |p: DinerPhase| p as u64 & 0x3;
        let mut k = 0u64;
        for i in 0..2 {
            k = k << 2 | phase(self.w_phase[i]);
            k = k << 2 | phase(self.s_phase[i]);
        }
        k = k << 1 | u64::from(self.switch & 1);
        k = k << 1 | u64::from(self.haveping[0]);
        k = k << 1 | u64::from(self.haveping[1]);
        k = k << 1 | u64::from(self.suspect);
        k = k << 1 | u64::from(self.trigger & 1);
        k = k << 1 | u64::from(self.ping_enabled[0]);
        k = k << 1 | u64::from(self.ping_enabled[1]);
        k = k << 1 | u64::from(self.converged);
        k = k << 1 | u64::from(self.crashed);
        for i in 0..2 {
            k = k << 4 | u64::from(self.pings[i] & 0xf);
            k = k << 4 | u64::from(self.acks[i] & 0xf);
        }
        k
    }
}

/// Identifier of one guarded action. `usize` operands are instance indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ActionId {
    /// `W_h(i)` — Alg. 1 line 2.
    WitnessHungry(usize),
    /// `W_x(i)` — Alg. 1 lines 3–7 (the exit check, the output step).
    WitnessExit(usize),
    /// `S_h(i)` — Alg. 2 line 2.
    SubjectHungry(usize),
    /// `S_p(i)` — Alg. 2 lines 3–5.
    SubjectPing(usize),
    /// `S_x(i)` — Alg. 2 lines 8–10.
    SubjectExit(usize),
    /// Deliver one in-flight `DX_i` ping: the witness's `W_p(i)` handler
    /// (bank it, emit an ack unless the sender has crashed).
    DeliverPing(usize),
    /// Deliver one in-flight `DX_i` ack that the subject accepts: `S_a(i)`.
    DeliverAck(usize),
    /// Deliver one in-flight `DX_i` ack that a **strict** subject rejects
    /// (sequence mismatch): the ack is consumed, nothing else changes.
    DeliverStaleAck(usize),
    /// Seeded wire bug [`ModelMutation::StaleAckReplay`]: duplicate an
    /// in-flight `DX_i` ack.
    DuplicateAck(usize),
    /// The dining service grants the witness endpoint of `DX_i`.
    GrantWitness(usize),
    /// The dining service grants the subject endpoint of `DX_i`.
    GrantSubject(usize),
    /// ◇WX convergence occurs now.
    Converge,
    /// `q` crashes now.
    CrashSubject,
}

/// The value algebra the protocol is written over. `cap` parameters are the
/// configuration's wire cap ([`IrConfig::wire_cap`]).
pub trait Algebra {
    /// A truth value.
    type Bool: Clone;
    /// A dining phase.
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
#[inline(always)]
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
#[inline(always)]
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

/// One atomic clause of the safety argument: a lemma of the paper, the
/// exclusion soundness clause, or a strengthening clause the inductive
/// checker conjoins to make a lemma inductive (`dinefd-analyze`'s `induct`
/// module says why each one exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Clause {
    /// Lemma 2: `s_i` not eating ⇒ `ping_i`.
    L2,
    /// Lemma 3: `s_i` not eating ∧ `ping_i` ⇒ no `DX_i` message in transit.
    L3,
    /// Lemma 4: `s_i` hungry ⇒ `trigger = i`.
    L4,
    /// Lemma 9: some witness thread is thinking.
    L9,
    /// Exclusion soundness: after convergence, live endpoints never overlap.
    Excl,
    /// Strengthening: `w_{1-switch}` is thinking (witness alternation).
    WTurn,
    /// Strengthening: at most one `DX_i` message in flight, per instance.
    R1,
    /// Strengthening: a `DX_i` message in flight ⇒ `¬ping_i`.
    R2,
    /// Strengthening: a `DX_i` message in flight ⇒ `trigger = i`.
    RegimeTrig,
    /// Strengthening: live ∧ `ping_i` ∧ `s_i` eating ⇒ `trigger = i`.
    R6,
}

/// Every clause, in bit order (the order is part of the metric surface).
pub const ALL_CLAUSES: [Clause; 10] = [
    Clause::L2,
    Clause::L3,
    Clause::L4,
    Clause::L9,
    Clause::Excl,
    Clause::WTurn,
    Clause::R1,
    Clause::R2,
    Clause::RegimeTrig,
    Clause::R6,
];

impl Clause {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Clause::L2 => "L2",
            Clause::L3 => "L3",
            Clause::L4 => "L4",
            Clause::L9 => "L9",
            Clause::Excl => "EXCL",
            Clause::WTurn => "W_TURN",
            Clause::R1 => "R1",
            Clause::R2 => "R2",
            Clause::RegimeTrig => "REGIME_TRIG",
            Clause::R6 => "R6",
        }
    }

    /// The clause's bit: its position in [`ALL_CLAUSES`], which lists the
    /// clauses in declaration order.
    #[inline]
    pub fn bit(self) -> u16 {
        1 << self as u16
    }

    /// Whether the clause holds in `s`: the concrete reading of [`clause`].
    #[inline]
    pub fn holds(self, s: &AbsState) -> bool {
        clause(&mut Concrete::default(), s, self)
    }
}

/// Some `DX_i` message (ping or ack) is in flight.
fn in_flight<A: Algebra>(a: &mut A, s: &StateOf<A>, i: usize) -> A::Bool {
    let ping = a.nonzero(&s.pings[i]);
    let ack = a.nonzero(&s.acks[i]);
    a.any(&[&ping, &ack])
}

/// Clause `c` at dining instance `i`: [`clause`] is this body under
/// [`Algebra::exists`] for `L9` and `W_TURN` and under [`Algebra::for_all`]
/// for the rest, so a checker that reports per instance reads the same text.
#[inline(always)]
pub fn clause_at<A: Algebra>(a: &mut A, s: &StateOf<A>, c: Clause, i: usize) -> A::Bool {
    match c {
        // Vacuous once q crashed: the corpse's frozen state is unconstrained.
        Clause::L2 => {
            let eating = a.phase_is(&s.s_phase[i], Eating);
            a.any(&[&s.crashed, &eating, &s.ping_enabled[i]])
        }
        Clause::L3 => {
            let eating = a.phase_is(&s.s_phase[i], Eating);
            let spent = a.not(&s.ping_enabled[i]);
            let flying = in_flight(a, s, i);
            let quiet = a.not(&flying);
            a.any(&[&s.crashed, &eating, &spent, &quiet])
        }
        Clause::L4 => {
            let hungry = a.phase_is(&s.s_phase[i], Hungry);
            let not_hungry = a.not(&hungry);
            let regime = a.sel_is(&s.trigger, i);
            a.any(&[&s.crashed, &not_hungry, &regime])
        }
        // w_i thinking; some instance's suffices.
        Clause::L9 => a.phase_is(&s.w_phase[i], Thinking),
        Clause::Excl => {
            let w_eating = a.phase_is(&s.w_phase[i], Eating);
            let s_eating = a.phase_is(&s.s_phase[i], Eating);
            let overlap = a.all(&[&w_eating, &s_eating]);
            let disjoint = a.not(&overlap);
            let early = a.not(&s.converged);
            a.any(&[&early, &s.crashed, &disjoint])
        }
        // w_{1-switch} thinking: the instance whose turn it is not, idles.
        Clause::WTurn => {
            let others_turn = a.sel_is(&s.switch, 1 - i);
            let thinking = a.phase_is(&s.w_phase[i], Thinking);
            a.all(&[&others_turn, &thinking])
        }
        Clause::R1 => a.sum_le(&s.pings[i], &s.acks[i], 1),
        Clause::R2 => {
            let flying = in_flight(a, s, i);
            let quiet = a.not(&flying);
            let spent = a.not(&s.ping_enabled[i]);
            a.any(&[&quiet, &spent])
        }
        Clause::RegimeTrig => {
            let flying = in_flight(a, s, i);
            let quiet = a.not(&flying);
            let regime = a.sel_is(&s.trigger, i);
            a.any(&[&quiet, &regime])
        }
        Clause::R6 => {
            let spent = a.not(&s.ping_enabled[i]);
            let eating = a.phase_is(&s.s_phase[i], Eating);
            let not_eating = a.not(&eating);
            let regime = a.sel_is(&s.trigger, i);
            a.any(&[&s.crashed, &spent, &not_eating, &regime])
        }
    }
}

/// The value of invariant clause `c` on `s`: [`clause_at`] quantified over
/// both dining instances.
#[inline]
pub fn clause<A: Algebra>(a: &mut A, s: &StateOf<A>, c: Clause) -> A::Bool {
    match c {
        Clause::L9 | Clause::WTurn => a.exists(|a, i| clause_at(a, s, c, i)),
        _ => a.for_all(|a, i| clause_at(a, s, c, i)),
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
