//! The witness and subject action systems — the paper's Alg. 1 and Alg. 2 —
//! as *pure* guarded-command machines.
//!
//! A machine states no guard and no update of its own: it is one more
//! reading of the protocol text in [`crate::protocol`]. Each call builds a
//! [`Concrete`] view of the pair state from the machine's fields and the
//! phases it is handed (every field it does not own at its initial value,
//! one message in flight when one is being delivered), evaluates
//! [`protocol::guard`] or [`protocol::update`] on it, and copies back the
//! fields the update set. Only the hardened variant's sequence bookkeeping
//! is written here: counting pings, and telling a current ack from a stale
//! one. So the code that `dinefd extract`, the live runtime, the explorer
//! and the fuzzer run is the text the analyzer proves.
//!
//! Keeping the machines pure (no I/O, no simulator types beyond
//! [`DinerPhase`]) lets three different drivers share them:
//!
//! * the event-driven hosts in [`crate::host`] pump actions to fixpoint after
//!   every delivery;
//! * the exhaustive explorer in `dinefd-explore` fires one enabled action at
//!   a time along every interleaving;
//! * unit tests poke individual guards.
//!
//! ## Alg. 1 — witness `p.w_{i∈{0,1}}` (at the watcher `p`)
//!
//! ```text
//! var w_{0,1}.state ← thinking;  switch ← 0;  haveping_{0,1} ← false;
//!     suspect_q ← true
//! W_h(i): { w_i thinking ∧ w_{1-i} thinking ∧ switch = i } → w_i hungry in DX_i
//! W_x(i): { w_i eating } → suspect_q ← ¬haveping_i; haveping_i ← false;
//!                          switch ← 1-i; w_i exits DX_i
//! W_p(i): { upon ping from q.s_i } → haveping_i ← true; ack to q.s_i
//! ```
//!
//! ## Alg. 2 — subject `q.s_{i∈{0,1}}` (at the monitored process `q`)
//!
//! ```text
//! var s_{0,1}.state ← thinking;  trigger ← 0;  ping_{0,1} ← true
//! S_h(i): { s_i thinking ∧ trigger = i } → s_i hungry in DX_i
//! S_p(i): { s_i eating ∧ s_{1-i} not eating ∧ ping_i } → ping to p.w_i;
//!                                                         ping_i ← false
//! S_a(i): { upon ack from p.w_i } → trigger ← 1-i
//! S_x(i): { s_i eating ∧ s_{1-i} eating ∧ trigger = 1-i } → ping_i ← true;
//!                                                           s_i exits DX_i
//! ```
//!
//! ## Hardened variant (sequence-tagged ping/ack)
//!
//! The paper's Lemma 3 *proves* that no stale ping/ack can be in transit when
//! a subject is not eating; the corrigendum's existence is a reminder that
//! such message-regime lemmas are delicate. The hardened variant makes the
//! lemma true by construction: every ping carries a per-instance sequence
//! number, acks echo it, and a strict subject accepts only the ack matching
//! its outstanding ping. Both variants must satisfy ◇P (experiment E7 checks
//! them side by side).

use dinefd_dining::DinerPhase;
use dinefd_sim::codec;

use crate::protocol::{self, AbsState, ActionId, Concrete, IrConfig};

/// Index of a dining instance within a monitoring pair (`DX_0` / `DX_1`).
pub type Dx = usize;

/// What a machine — or any [`Side`](crate::host::Side) — has its host do:
/// one call on the black box of instance `i`, or one control message to the
/// pair's other side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Thread `i` becomes hungry in `DX_i`.
    Hungry(Dx),
    /// Thread `i` exits its eating session in `DX_i`.
    Exit(Dx),
    /// Thread `i` sends the other side its control message — a subject's
    /// ping, a witness's ack — carrying `seq`.
    Send(Dx, u64),
}

/// The state after firing the action `at(i)` names in the view it builds:
/// the machines' reading of [`protocol::update`]. A view holds at most one
/// message per class, so no counter is saturated and the choice is never
/// consulted.
///
/// `at` gets the instance as a constant in each arm. Indexed by a run-time
/// `i`, the update's one-byte write into a two-element array of the view,
/// and the copy-back's read of the whole array, are a store the load
/// cannot be forwarded from: it stalls for longer than the rest of the
/// call takes.
#[inline(always)]
fn fired(cfg: &IrConfig, i: Dx, at: impl Fn(Dx) -> (AbsState, ActionId)) -> AbsState {
    let update = |(s, id)| protocol::update(&mut Concrete::default(), cfg, &s, id, &false);
    match i {
        0 => update(at(0)),
        _ => update(at(1)),
    }
}

/// Identifiers of the witness's guarded actions (for the explorer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WitnessAction {
    /// `W_h(i)`.
    Hungry(Dx),
    /// `W_x(i)`.
    ExitCheck(Dx),
}

impl WitnessAction {
    /// The protocol action of this kind at instance `i`.
    fn at(self, i: Dx) -> ActionId {
        match self {
            WitnessAction::Hungry(_) => ActionId::WitnessHungry(i),
            WitnessAction::ExitCheck(_) => ActionId::WitnessExit(i),
        }
    }
}

/// Alg. 1: the two witness threads of one ordered monitoring pair.
///
/// ```
/// use dinefd_core::machines::{Step, WitnessAction, WitnessMachine};
/// use dinefd_dining::DinerPhase::{Eating, Thinking};
///
/// let mut w = WitnessMachine::new();
/// assert!(w.suspects()); // initially suspect q
/// // w_0's turn: become hungry in DX_0; suppose the box grants it.
/// assert_eq!(w.fire(WitnessAction::Hungry(0), [Thinking, Thinking]), Step::Hungry(0));
/// // A ping from q.s_0 arrives and is banked before w_0 exits…
/// w.on_ping(0, 1);
/// w.fire(WitnessAction::ExitCheck(0), [Eating, Thinking]);
/// // …so the exit check trusts q.
/// assert!(!w.suspects());
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct WitnessMachine {
    switch: u8,
    haveping: [bool; 2],
    suspect: bool,
}

impl Default for WitnessMachine {
    fn default() -> Self {
        Self::new()
    }
}

impl WitnessMachine {
    /// Initial state: witnesses thinking, `switch = 0`, no pings received,
    /// the subject initially suspected.
    pub fn new() -> Self {
        WitnessMachine { switch: 0, haveping: [false, false], suspect: true }
    }

    /// Constructs an arbitrary machine state from its components — the
    /// introspection hook the guarded-command IR (`dinefd-analyze`) and the
    /// lints use to sweep the whole 4-bit state domain.
    pub fn from_parts(switch: Dx, haveping: [bool; 2], suspect: bool) -> Self {
        debug_assert!(switch < 2, "switch is a thread index");
        WitnessMachine { switch: switch as u8, haveping, suspect }
    }

    /// The machine's current output: does `p` suspect `q`?
    pub fn suspects(&self) -> bool {
        self.suspect
    }

    /// Which witness thread's turn it is.
    pub fn switch(&self) -> usize {
        self.switch as usize
    }

    /// Whether a ping has been banked for `DX_i` since `w_i` last ate.
    pub fn haveping(&self, i: Dx) -> bool {
        self.haveping[i]
    }

    /// The pair state this machine stands for, its threads in `w_phase`.
    fn view(&self, w_phase: [DinerPhase; 2]) -> AbsState {
        let (switch, haveping, suspect) = (self.switch, self.haveping, self.suspect);
        AbsState { w_phase, switch, haveping, suspect, ..AbsState::initial() }
    }

    /// Copies back the witness's fields of `t`.
    fn absorb(&mut self, t: AbsState) {
        self.switch = t.switch;
        self.haveping = t.haveping;
        self.suspect = t.suspect;
    }

    /// Guarded actions currently enabled, given the witness threads' dining
    /// phases (`phases[i]` is `w_i`'s phase in `DX_i`).
    pub fn enabled(&self, phases: [DinerPhase; 2]) -> Vec<WitnessAction> {
        let mut out = Vec::with_capacity(2);
        self.for_each_enabled(phases, |a| out.push(a));
        out
    }

    /// Allocation-free form of [`WitnessMachine::enabled`]: invokes `f` for
    /// each enabled action, in the same order (the explorers' hot path).
    pub fn for_each_enabled(&self, phases: [DinerPhase; 2], mut f: impl FnMut(WitnessAction)) {
        let (cfg, s) = (IrConfig::default(), self.view(phases));
        for i in 0..2 {
            for a in [WitnessAction::Hungry(i), WitnessAction::ExitCheck(i)] {
                if protocol::guard(&mut Concrete::default(), &cfg, &s, a.at(i)) {
                    f(a);
                }
            }
        }
    }

    /// Fires one enabled action, returning the host command.
    ///
    /// The host must apply the command (and any resulting dining-phase
    /// change) before evaluating guards again.
    #[inline]
    pub fn fire(&mut self, action: WitnessAction, phases: [DinerPhase; 2]) -> Step {
        debug_assert!(self.enabled(phases).contains(&action), "firing disabled {action:?}");
        let (WitnessAction::Hungry(i) | WitnessAction::ExitCheck(i)) = action;
        let s = self.view(phases);
        self.absorb(fired(&IrConfig::default(), i, |i| (s, action.at(i))));
        match action {
            WitnessAction::Hungry(_) => Step::Hungry(i),
            WitnessAction::ExitCheck(_) => Step::Exit(i),
        }
    }

    /// `W_p(i)`: a ping from `q.s_i` arrived (message-triggered action).
    #[inline]
    pub fn on_ping(&mut self, i: Dx, seq: u64) -> Step {
        self.absorb(fired(&IrConfig::default(), i, |i| {
            let mut s = self.view([DinerPhase::Thinking; 2]);
            s.pings[i] = 1;
            (s, ActionId::DeliverPing(i))
        }));
        Step::Send(i, seq)
    }

    /// Bit-packs the whole machine into one byte (explorer state codec):
    /// bit 0 = `switch`, bits 1–2 = `haveping`, bit 3 = `suspect`.
    pub fn pack(&self) -> u8 {
        self.switch
            | (self.haveping[0] as u8) << 1
            | (self.haveping[1] as u8) << 2
            | (self.suspect as u8) << 3
    }

    /// Inverse of [`WitnessMachine::pack`]. The codomain is exactly the
    /// 4-bit range `0..16`: bytes with any of bits 4–7 set are **not** the
    /// image of any machine state and yield `None` (they used to be
    /// silently truncated, constructing a state whose `pack()` differed
    /// from the input byte — the codec-completeness lint in
    /// `dinefd-analyze` flags exactly that kind of hole).
    pub fn unpack(b: u8) -> Option<Self> {
        if b & 0xF0 != 0 {
            return None;
        }
        Some(WitnessMachine {
            switch: b & 1,
            haveping: [b & 0b10 != 0, b & 0b100 != 0],
            suspect: b & 0b1000 != 0,
        })
    }
}

/// Seeded bugs for mutation-testing the checkers (`dinefd-explore`'s
/// seeded-bug suite). Each variant disables one load-bearing line of Alg. 2;
/// a checker that cannot flag the mutated machine is itself broken.
///
/// The mutations live here (rather than in the explorer) so that the flaw is
/// injected at the machine level — the explorer then finds the consequences
/// without knowing where the bug is. Each is one `if` in
/// [`protocol::guard`] or [`protocol::update`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SubjectMutation {
    /// The faithful Alg. 2.
    #[default]
    None,
    /// `S_p(i)` forgets `ping_i ← false`: a session can ping repeatedly,
    /// leaving stale `DX_i` pings in transit after the session ends
    /// (breaks Lemma 3).
    SkipPingDisable,
    /// `S_h(i)` ignores the `trigger = i` conjunct: a subject may go hungry
    /// out of turn (breaks Lemma 4 immediately).
    IgnoreTriggerGuard,
    /// `S_a(i)` skips `trigger ← 1-i`: acks no longer schedule the sibling
    /// thread. Safety lemmas survive; the hand-off (and with it ◇P accuracy)
    /// dies — only liveness checking catches this one.
    SkipTriggerUpdate,
}

impl SubjectMutation {
    /// Each variant's spelling in `dinefd --subject-mutation` and the
    /// scenario DSL's `subject_mutation` key, in declaration order.
    pub const SPELLINGS: [(&'static str, SubjectMutation); 4] = [
        ("none", SubjectMutation::None),
        ("skip-ping-disable", SubjectMutation::SkipPingDisable),
        ("ignore-trigger-guard", SubjectMutation::IgnoreTriggerGuard),
        ("skip-trigger-update", SubjectMutation::SkipTriggerUpdate),
    ];

    /// This variant's entry in [`Self::SPELLINGS`].
    pub fn name(self) -> &'static str {
        Self::SPELLINGS[self as usize].0
    }
}

/// Identifiers of the subject's guarded actions (for the explorer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubjectAction {
    /// `S_h(i)`.
    Hungry(Dx),
    /// `S_p(i)`.
    Ping(Dx),
    /// `S_x(i)`.
    Exit(Dx),
}

impl SubjectAction {
    /// The protocol action of this kind at instance `i`.
    fn at(self, i: Dx) -> ActionId {
        match self {
            SubjectAction::Hungry(_) => ActionId::SubjectHungry(i),
            SubjectAction::Ping(_) => ActionId::SubjectPing(i),
            SubjectAction::Exit(_) => ActionId::SubjectExit(i),
        }
    }
}

/// Alg. 2: the two subject threads of one ordered monitoring pair.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SubjectMachine {
    trigger: u8,
    ping_enabled: [bool; 2],
    /// Sequence number of the most recent ping per instance (hardening).
    seq: [u64; 2],
    /// Strict mode: accept only the ack echoing the outstanding sequence.
    strict_seq: bool,
    /// Seeded bug for mutation testing ([`SubjectMutation::None`] = faithful).
    mutation: SubjectMutation,
}

impl SubjectMachine {
    /// Initial state per the paper: subjects thinking, `trigger = 0`
    /// (only `s_0` may become hungry), pings enabled.
    pub fn new(strict_seq: bool) -> Self {
        Self::with_mutation(strict_seq, SubjectMutation::None)
    }

    /// A machine carrying a seeded bug (for checker mutation tests).
    pub fn with_mutation(strict_seq: bool, mutation: SubjectMutation) -> Self {
        SubjectMachine { trigger: 0, ping_enabled: [true, true], seq: [0, 0], strict_seq, mutation }
    }

    /// Constructs an arbitrary machine state from its components — the
    /// introspection hook for the guarded-command IR (`dinefd-analyze`) and
    /// the lints.
    pub fn from_parts(
        trigger: Dx,
        ping_enabled: [bool; 2],
        seq: [u64; 2],
        strict_seq: bool,
        mutation: SubjectMutation,
    ) -> Self {
        debug_assert!(trigger < 2, "trigger is a thread index");
        SubjectMachine { trigger: trigger as u8, ping_enabled, seq, strict_seq, mutation }
    }

    /// Sequence number of the most recent ping sent for `DX_i`.
    pub fn seq(&self, i: Dx) -> u64 {
        self.seq[i]
    }

    /// The machine's packed flag byte (the first byte of
    /// [`SubjectMachine::pack_into`]): bit 0 = `trigger`, bits 1–2 =
    /// `ping_enabled`, bit 3 = `strict_seq`, bits 4–5 = the seeded
    /// mutation's index in [`SubjectMutation::SPELLINGS`]. Bits 6–7 are
    /// outside the codomain and always zero.
    pub fn flag_bits(&self) -> u8 {
        self.trigger
            | (self.ping_enabled[0] as u8) << 1
            | (self.ping_enabled[1] as u8) << 2
            | (self.strict_seq as u8) << 3
            | (self.mutation as u8) << 4
    }

    /// Which instance's subject is scheduled to become hungry next.
    pub fn trigger(&self) -> usize {
        self.trigger as usize
    }

    /// Whether `s_i` may send a ping in its current eating session.
    pub fn ping_enabled(&self, i: Dx) -> bool {
        self.ping_enabled[i]
    }

    /// The configuration this machine's variant and seeded bug stand for.
    fn config(&self) -> IrConfig {
        let (strict_seq, subject_mutation) = (self.strict_seq, self.mutation);
        IrConfig { strict_seq, subject_mutation, ..IrConfig::default() }
    }

    /// The pair state this machine stands for, its threads in `s_phase`.
    fn view(&self, s_phase: [DinerPhase; 2]) -> AbsState {
        let (trigger, ping_enabled) = (self.trigger, self.ping_enabled);
        AbsState { s_phase, trigger, ping_enabled, ..AbsState::initial() }
    }

    /// Copies back the subject's fields of `t`.
    fn absorb(&mut self, t: AbsState) {
        self.trigger = t.trigger;
        self.ping_enabled = t.ping_enabled;
    }

    /// Guarded actions currently enabled, given the subject threads' phases.
    pub fn enabled(&self, phases: [DinerPhase; 2]) -> Vec<SubjectAction> {
        let mut out = Vec::with_capacity(2);
        self.for_each_enabled(phases, |a| out.push(a));
        out
    }

    /// Allocation-free form of [`SubjectMachine::enabled`]: invokes `f` for
    /// each enabled action, in the same order (the explorers' hot path).
    pub fn for_each_enabled(&self, phases: [DinerPhase; 2], mut f: impl FnMut(SubjectAction)) {
        let (cfg, s) = (self.config(), self.view(phases));
        for i in 0..2 {
            for a in [SubjectAction::Hungry(i), SubjectAction::Ping(i), SubjectAction::Exit(i)] {
                if protocol::guard(&mut Concrete::default(), &cfg, &s, a.at(i)) {
                    f(a);
                }
            }
        }
    }

    /// Fires one enabled action, returning the host command. A ping carries
    /// the instance's next sequence number.
    #[inline]
    pub fn fire(&mut self, action: SubjectAction, phases: [DinerPhase; 2]) -> Step {
        debug_assert!(self.enabled(phases).contains(&action), "firing disabled {action:?}");
        use SubjectAction::{Exit, Hungry, Ping};
        let (Hungry(i) | Ping(i) | Exit(i)) = action;
        let s = self.view(phases);
        self.absorb(fired(&self.config(), i, |i| (s, action.at(i))));
        match action {
            Hungry(_) => Step::Hungry(i),
            Ping(_) => {
                self.seq[i] = self.seq[i].wrapping_add(1);
                Step::Send(i, self.seq[i])
            }
            Exit(_) => Step::Exit(i),
        }
    }

    /// `S_a(i)`: an ack from `p.w_i` arrived. In strict mode an ack that
    /// does not echo the outstanding sequence number is stale: consumed,
    /// ignored.
    #[inline]
    pub fn on_ack(&mut self, i: Dx, seq: u64) {
        let stale = self.strict_seq && seq != self.seq[i];
        self.absorb(fired(&self.config(), i, |i| {
            let mut s = self.view([DinerPhase::Thinking; 2]);
            s.acks[i] = 1;
            (s, if stale { ActionId::DeliverStaleAck(i) } else { ActionId::DeliverAck(i) })
        }));
    }

    /// Bit-packs the machine for the explorer state codec: one flag byte
    /// ([`SubjectMachine::flag_bits`]) followed by the two per-instance ping
    /// sequence counters as varints.
    pub fn pack_into(&self, out: &mut Vec<u8>) {
        codec::put_u8(out, self.flag_bits());
        codec::put_varint(out, self.seq[0]);
        codec::put_varint(out, self.seq[1]);
    }

    /// Inverse of [`SubjectMachine::pack_into`]; `None` on a malformed
    /// buffer. Flag bytes with bit 6 or 7 set are outside the codomain of
    /// [`SubjectMachine::flag_bits`] and are rejected rather than silently
    /// truncated (see the codec-completeness lint in `dinefd-analyze`).
    pub fn unpack(input: &mut &[u8]) -> Option<Self> {
        let b = codec::take_u8(input)?;
        if b & 0b1100_0000 != 0 {
            return None;
        }
        Some(SubjectMachine {
            trigger: b & 1,
            ping_enabled: [b & 0b10 != 0, b & 0b100 != 0],
            seq: [codec::take_varint(input)?, codec::take_varint(input)?],
            strict_seq: b & 0b1000 != 0,
            mutation: SubjectMutation::SPELLINGS[usize::from(b >> 4)].1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use DinerPhase::*;

    const TT: [DinerPhase; 2] = [Thinking, Thinking];

    #[test]
    fn subject_mutation_spellings_are_total_and_injective() {
        use SubjectMutation as M;
        // Walks every variant; the match is exhaustive, so a new variant
        // does not compile until it is listed here.
        let next = |m: M| match m {
            M::None => Some(M::SkipPingDisable),
            M::SkipPingDisable => Some(M::IgnoreTriggerGuard),
            M::IgnoreTriggerGuard => Some(M::SkipTriggerUpdate),
            M::SkipTriggerUpdate => None,
        };
        let variants: Vec<M> = std::iter::successors(Some(M::None), |&m| next(m)).collect();
        assert_eq!(M::SPELLINGS.len(), variants.len());
        for m in variants {
            let spelled: Vec<&str> =
                M::SPELLINGS.iter().filter(|(_, v)| *v == m).map(|(s, _)| *s).collect();
            assert_eq!(spelled, [m.name()], "{m:?} needs exactly one spelling");
            let found = M::SPELLINGS.iter().find(|(s, _)| *s == m.name()).map(|(_, v)| *v);
            assert_eq!(found, Some(m), "`{}` looks up another variant", m.name());
        }
    }

    #[test]
    fn witness_initially_enables_only_w0_hungry() {
        let w = WitnessMachine::new();
        assert!(w.suspects(), "paper: initially suspect q");
        assert_eq!(w.enabled(TT), vec![WitnessAction::Hungry(0)]);
    }

    #[test]
    fn witness_turn_taking() {
        let mut w = WitnessMachine::new();
        let cmd = w.fire(WitnessAction::Hungry(0), TT);
        assert_eq!(cmd, Step::Hungry(0));
        // w0 now eating (granted by DX_0): only W_x(0) enabled.
        let ph = [Eating, Thinking];
        assert_eq!(w.enabled(ph), vec![WitnessAction::ExitCheck(0)]);
        let cmd = w.fire(WitnessAction::ExitCheck(0), ph);
        assert_eq!(cmd, Step::Exit(0));
        // No ping was banked: suspect.
        assert!(w.suspects());
        // Turn passes to w1.
        assert_eq!(w.enabled(TT), vec![WitnessAction::Hungry(1)]);
    }

    #[test]
    fn witness_trusts_iff_ping_banked() {
        let mut w = WitnessMachine::new();
        w.fire(WitnessAction::Hungry(0), TT);
        let ack = w.on_ping(0, 7);
        assert_eq!(ack, Step::Send(0, 7));
        assert!(w.haveping(0));
        w.fire(WitnessAction::ExitCheck(0), [Eating, Thinking]);
        assert!(!w.suspects(), "banked ping ⇒ trust");
        assert!(!w.haveping(0), "haveping consumed");
        // Next eating session without a ping re-suspects.
        w.fire(WitnessAction::Hungry(1), TT);
        w.fire(WitnessAction::ExitCheck(1), [Thinking, Eating]);
        assert!(w.suspects());
    }

    #[test]
    fn witness_never_hungry_while_other_not_thinking() {
        let w = WitnessMachine::new();
        // w1 still exiting: W_h(0) disabled even on w0's turn.
        assert!(w.enabled([Thinking, Exiting]).is_empty());
        assert!(w.enabled([Thinking, Hungry]).is_empty());
    }

    #[test]
    fn subject_initially_enables_only_s0_hungry() {
        let s = SubjectMachine::new(false);
        assert_eq!(s.enabled(TT), vec![SubjectAction::Hungry(0)]);
        assert_eq!(s.trigger(), 0);
    }

    #[test]
    fn subject_ping_once_per_session() {
        let mut s = SubjectMachine::new(false);
        s.fire(SubjectAction::Hungry(0), TT);
        // s0 eating alone: S_p(0) enabled.
        let ph = [Eating, Thinking];
        assert_eq!(s.enabled(ph), vec![SubjectAction::Ping(0)]);
        let cmd = s.fire(SubjectAction::Ping(0), ph);
        assert_eq!(cmd, Step::Send(0, 1));
        // Ping disabled until exit; nothing enabled while awaiting ack.
        assert!(s.enabled(ph).is_empty());
    }

    #[test]
    fn subject_handoff_cycle() {
        let mut s = SubjectMachine::new(false);
        s.fire(SubjectAction::Hungry(0), TT);
        s.fire(SubjectAction::Ping(0), [Eating, Thinking]);
        // Ack arrives: trigger flips to 1, scheduling s1.
        s.on_ack(0, 1);
        assert_eq!(s.trigger(), 1);
        assert_eq!(s.enabled([Eating, Thinking]), vec![SubjectAction::Hungry(1)]);
        s.fire(SubjectAction::Hungry(1), [Eating, Thinking]);
        // s1 starts eating too: overlap. S_x(0) fires (trigger = 1 = 1-0).
        let both = [Eating, Eating];
        assert_eq!(s.enabled(both), vec![SubjectAction::Exit(0)]);
        let cmd = s.fire(SubjectAction::Exit(0), both);
        assert_eq!(cmd, Step::Exit(0));
        assert!(s.ping_enabled(0), "ping re-enabled at exit");
        // Now s1 eats alone: it pings with seq 1 of its own counter.
        let ph = [Thinking, Eating];
        assert_eq!(s.enabled(ph), vec![SubjectAction::Ping(1)]);
        assert_eq!(s.fire(SubjectAction::Ping(1), ph), Step::Send(1, 1));
        s.on_ack(1, 1);
        assert_eq!(s.trigger(), 0);
    }

    #[test]
    fn subject_does_not_exit_without_handoff() {
        let mut s = SubjectMachine::new(false);
        s.fire(SubjectAction::Hungry(0), TT);
        // Both eating but trigger still 0: S_x(0) requires trigger = 1.
        // (This state is unreachable in real runs, but the guard must hold.)
        assert!(!s.enabled([Eating, Eating]).contains(&SubjectAction::Exit(0)));
    }

    #[test]
    fn strict_subject_ignores_stale_ack() {
        let mut s = SubjectMachine::new(true);
        s.fire(SubjectAction::Hungry(0), TT);
        s.fire(SubjectAction::Ping(0), [Eating, Thinking]);
        s.on_ack(0, 99); // stale/forged
        assert_eq!(s.trigger(), 0, "stale ack must not flip the trigger");
        s.on_ack(0, 1);
        assert_eq!(s.trigger(), 1);
    }

    #[test]
    fn lenient_subject_accepts_any_ack() {
        let mut s = SubjectMachine::new(false);
        s.fire(SubjectAction::Hungry(0), TT);
        s.fire(SubjectAction::Ping(0), [Eating, Thinking]);
        s.on_ack(0, 99);
        assert_eq!(s.trigger(), 1, "paper's Alg. 2 has no sequence check");
    }

    #[test]
    fn ping_sequence_increments_per_session() {
        let mut s = SubjectMachine::new(true);
        s.fire(SubjectAction::Hungry(0), TT);
        assert_eq!(s.fire(SubjectAction::Ping(0), [Eating, Thinking]), Step::Send(0, 1));
        s.on_ack(0, 1);
        s.fire(SubjectAction::Hungry(1), [Eating, Thinking]);
        s.fire(SubjectAction::Exit(0), [Eating, Eating]);
        assert_eq!(s.fire(SubjectAction::Ping(1), [Thinking, Eating]), Step::Send(1, 1));
        s.on_ack(1, 1);
        s.fire(SubjectAction::Hungry(0), [Thinking, Eating]);
        s.fire(SubjectAction::Exit(1), [Eating, Eating]);
        assert_eq!(s.fire(SubjectAction::Ping(0), [Eating, Thinking]), Step::Send(0, 2));
    }

    #[test]
    fn mutant_skip_ping_disable_can_ping_twice_per_session() {
        let mut s = SubjectMachine::with_mutation(false, SubjectMutation::SkipPingDisable);
        s.fire(SubjectAction::Hungry(0), TT);
        let ph = [Eating, Thinking];
        assert_eq!(s.fire(SubjectAction::Ping(0), ph), Step::Send(0, 1));
        // The faithful machine disables S_p until exit; the mutant re-arms.
        assert_eq!(s.enabled(ph), vec![SubjectAction::Ping(0)]);
        assert_eq!(s.fire(SubjectAction::Ping(0), ph), Step::Send(0, 2));
    }

    #[test]
    fn mutant_ignore_trigger_guard_goes_hungry_out_of_turn() {
        let s = SubjectMachine::with_mutation(false, SubjectMutation::IgnoreTriggerGuard);
        // trigger = 0, yet S_h(1) is enabled too.
        assert_eq!(s.enabled(TT), vec![SubjectAction::Hungry(0), SubjectAction::Hungry(1)]);
    }

    #[test]
    fn mutant_skip_trigger_update_never_schedules_sibling() {
        let mut s = SubjectMachine::with_mutation(false, SubjectMutation::SkipTriggerUpdate);
        s.fire(SubjectAction::Hungry(0), TT);
        s.fire(SubjectAction::Ping(0), [Eating, Thinking]);
        s.on_ack(0, 1);
        assert_eq!(s.trigger(), 0, "mutant must not hand off to s_1");
    }

    #[test]
    fn paper_invariant_lemma2_shape() {
        // Lemma 2: (s_i not eating) ⇒ ping_i = true. Drive a full cycle and
        // spot-check at every non-eating point.
        let mut s = SubjectMachine::new(false);
        assert!(s.ping_enabled(0) && s.ping_enabled(1));
        s.fire(SubjectAction::Hungry(0), TT);
        assert!(s.ping_enabled(0)); // s0 hungry (not eating) — still true
        s.fire(SubjectAction::Ping(0), [Eating, Thinking]); // now false, but s0 IS eating
        s.on_ack(0, 1);
        s.fire(SubjectAction::Hungry(1), [Eating, Thinking]);
        s.fire(SubjectAction::Exit(0), [Eating, Eating]); // s0 leaves eating
        assert!(s.ping_enabled(0), "Lemma 2: re-enabled before exiting");
    }

    #[test]
    fn witness_pack_round_trips() {
        let mut w = WitnessMachine::new();
        assert_eq!(WitnessMachine::unpack(w.pack()), Some(w.clone()));
        w.fire(WitnessAction::Hungry(0), TT);
        w.on_ping(0, 1);
        w.fire(WitnessAction::ExitCheck(0), [Eating, Thinking]);
        w.on_ping(1, 1);
        assert_eq!(WitnessMachine::unpack(w.pack()), Some(w));
    }

    #[test]
    fn witness_unpack_codomain_is_exactly_four_bits() {
        // Every byte below 16 is the image of exactly one state; every byte
        // with a high bit set is rejected instead of silently truncated.
        for b in 0u8..16 {
            let w = WitnessMachine::unpack(b).expect("in-codomain byte");
            assert_eq!(w.pack(), b, "unpack must be a right inverse of pack");
        }
        for b in 16u8..=255 {
            assert_eq!(WitnessMachine::unpack(b), None, "byte {b:#04x} is out of codomain");
        }
    }

    #[test]
    fn subject_unpack_rejects_flag_bytes_outside_codomain() {
        // Bits 6-7 of the flag byte are never produced by flag_bits().
        for b in 0u8..=255 {
            let buf = [b, 0, 0]; // flag byte + two zero varint seqs
            let mut cursor = &buf[..];
            let decoded = SubjectMachine::unpack(&mut cursor);
            if b & 0b1100_0000 != 0 {
                assert_eq!(decoded, None, "flag byte {b:#04x} is out of codomain");
            } else {
                let s = decoded.expect("in-codomain flag byte");
                assert_eq!(s.flag_bits(), b, "unpack must be a right inverse of flag_bits");
            }
        }
    }

    #[test]
    fn from_parts_round_trips_through_pack() {
        let w = WitnessMachine::from_parts(1, [true, false], false);
        assert_eq!(WitnessMachine::unpack(w.pack()), Some(w));
        let s = SubjectMachine::from_parts(1, [false, true], [3, 7], true, SubjectMutation::None);
        assert_eq!(s.trigger(), 1);
        assert!(!s.ping_enabled(0) && s.ping_enabled(1));
        assert_eq!(s.flag_bits() & 0b1000, 0b1000, "strict");
        assert_eq!((s.seq(0), s.seq(1)), (3, 7));
        let mut buf = Vec::new();
        s.pack_into(&mut buf);
        let mut cursor = buf.as_slice();
        assert_eq!(SubjectMachine::unpack(&mut cursor), Some(s));
    }

    #[test]
    fn subject_pack_round_trips_all_mutations() {
        for strict in [false, true] {
            for mutation in [
                SubjectMutation::None,
                SubjectMutation::SkipPingDisable,
                SubjectMutation::IgnoreTriggerGuard,
                SubjectMutation::SkipTriggerUpdate,
            ] {
                let mut s = SubjectMachine::with_mutation(strict, mutation);
                s.fire(SubjectAction::Hungry(0), TT);
                s.fire(SubjectAction::Ping(0), [Eating, Thinking]);
                s.on_ack(0, 1);
                let mut buf = Vec::new();
                s.pack_into(&mut buf);
                let mut cursor = buf.as_slice();
                assert_eq!(SubjectMachine::unpack(&mut cursor), Some(s));
                assert!(cursor.is_empty());
            }
        }
    }
}
