//! The guarded-command intermediate representation of one monitoring pair.
//!
//! Every behavior of the closed pair model — the witness machine (Alg. 1),
//! the subject machine (Alg. 2, any [`SubjectMutation`]), the dining
//! service, convergence, crash, and the wire — is expressed as a **named
//! action**: a guard predicate plus an update function over [`AbsState`].
//! This module holds the state, the configuration and the per-config
//! action table; the guards and updates themselves are written once, from
//! the paper's pseudocode, in [`crate::protocol`], and [`Ir::enabled`] /
//! [`Ir::fire`] are their concrete reading. They are written independently
//! of the executable machines in `dinefd_core::machines`; the conformance
//! suite (`tests/ir_conformance.rs`) then proves the two agree bit-for-bit
//! on the machines' packed state bytes. That independence is the point: an
//! IR that merely called the machines could never catch a transcription bug
//! in either.
//!
//! ## The abstract wire
//!
//! The concrete explorer carries explicit in-flight message multisets with
//! unbounded sequence numbers, so its state space is infinite and it can
//! only check lemmas up to a depth bound. The IR abstracts the wire to one
//! **saturating counter per message class** (`pings[i]`, `acks[i]`, values
//! `0, 1, …, WIRE_CAP` where `WIRE_CAP` means "`≥ WIRE_CAP`"), and drops
//! sequence numbers entirely. Deliveries out of a saturated counter are
//! *nondeterministic* (the true count may or may not still exceed the cap),
//! and in `strict_seq` mode an ack delivery nondeterministically matches or
//! misses the outstanding sequence number. Both nondeterminisms
//! over-approximate the concrete system, so:
//!
//! * every concrete transition is simulated by some IR action
//!   (property-tested in the conformance suite), hence
//! * an invariant proved inductive over the **finite** abstract domain
//!   holds in every reachable concrete state, at *any* depth.
//!
//! The price of over-approximation is spurious counterexamples-to-induction
//! — see [`crate::induct`] for how those are classified and eliminated by
//! invariant strengthening.

use crate::protocol::{self, Concrete};
use dinefd_core::machines::SubjectMutation;
use dinefd_dining::DinerPhase;
use dinefd_explore::{ExploreConfig, ModelMutation, PairState};

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
/// for the bit-blasted encoding ([`crate::cnf`]) and the packed
/// [`AbsState::pack_key`].
pub const MAX_WIRE_CAP: u8 = 8;

/// Configuration of the IR: which machine variant and which seeded bugs the
/// action system models. Mirrors the knobs of
/// [`dinefd_explore::ExploreConfig`], plus the abstract wire depth.
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
    /// the symbolic engine ([`crate::kinduct`]).
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

    /// The corresponding bounded-explorer configuration (for classifying
    /// counterexamples-to-induction via reachability).
    pub fn explore_config(&self, max_depth: u32, max_states: usize) -> ExploreConfig {
        ExploreConfig {
            max_depth,
            max_states,
            strict_seq: self.strict_seq,
            allow_crash: self.allow_crash,
            subject_mutation: self.subject_mutation,
            model_mutation: self.model_mutation,
            ..Default::default()
        }
    }
}

/// One abstract pair state: the two machines' packed-domain bits, the four
/// dining phases, the model flags, and the abstract wire. The type
/// parameters are the value types of one [`crate::protocol::Algebra`]
/// (booleans, phases, selectors, counters); the defaults are the concrete
/// ones, so plain `AbsState` is the `Copy`, small state the typed domain is
/// enumerated in by value ([`crate::induct`]), and
/// [`crate::cnf::SymState`] is the same record over circuit values.
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
    /// The abstract image of the model's initial state.
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

    /// The abstraction function at the default cap: forgets message
    /// identities/sequence numbers, keeps per-class counts (saturated at
    /// [`WIRE_CAP`]).
    pub fn abstract_of(s: &PairState) -> Self {
        Self::abstract_of_with_cap(s, WIRE_CAP)
    }

    /// The abstraction function at an explicit saturation cap.
    pub fn abstract_of_with_cap(s: &PairState, cap: u8) -> Self {
        let count = |queue: &[(u8, u64)], i: u8| {
            (queue.iter().filter(|&&(j, _)| j == i).count() as u64).min(cap as u64) as u8
        };
        AbsState {
            w_phase: s.w_phase,
            s_phase: s.s_phase,
            switch: s.witness.switch() as u8,
            haveping: [s.witness.haveping(0), s.witness.haveping(1)],
            suspect: s.witness.suspects(),
            trigger: s.subject.trigger() as u8,
            ping_enabled: [s.subject.ping_enabled(0), s.subject.ping_enabled(1)],
            converged: s.converged,
            crashed: s.crashed,
            pings: [count(&s.pings, 0), count(&s.pings, 1)],
            acks: [count(&s.acks, 0), count(&s.acks, 1)],
        }
    }

    /// One concrete representative of this abstract state (sequence numbers
    /// synthesized), suitable for seeding the bounded explorer
    /// ([`dinefd_explore::explore_seeded`]) — the state-level lemma checks
    /// ignore sequence numbers, so any representative reproduces a
    /// state-invariant violation.
    pub fn concretize(&self, cfg: &IrConfig) -> PairState {
        use dinefd_core::machines::{SubjectMachine, WitnessMachine};
        let mut pings = Vec::new();
        let mut acks = Vec::new();
        for i in 0..2u8 {
            for k in 0..self.pings[i as usize] {
                pings.push((i, 1 + k as u64));
            }
            for k in 0..self.acks[i as usize] {
                acks.push((i, 1 + k as u64));
            }
        }
        PairState {
            witness: WitnessMachine::from_parts(self.switch as usize, self.haveping, self.suspect),
            subject: SubjectMachine::from_parts(
                self.trigger as usize,
                self.ping_enabled,
                [self.pings[0].max(self.acks[0]) as u64, self.pings[1].max(self.acks[1]) as u64],
                cfg.strict_seq,
                cfg.subject_mutation,
            ),
            w_phase: self.w_phase,
            s_phase: self.s_phase,
            pings,
            acks,
            converged: self.converged,
            crashed: self.crashed,
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

/// Static metadata of one action (for lints, CTIs, and docs).
#[derive(Clone, Copy, Debug)]
pub struct Action {
    /// The action's identifier.
    pub id: ActionId,
    /// Stable display name, e.g. `"S_p(0)"`.
    pub name: &'static str,
    /// Which algorithm line / model rule it transcribes.
    pub doc: &'static str,
}

/// Whether `id` is a *machine-local* subject action (used by the guard
/// overlap lint to group actions into families).
pub fn family(id: ActionId) -> &'static str {
    match id {
        ActionId::WitnessHungry(_) => "W_h",
        ActionId::WitnessExit(_) => "W_x",
        ActionId::SubjectHungry(_) => "S_h",
        ActionId::SubjectPing(_) => "S_p",
        ActionId::SubjectExit(_) => "S_x",
        ActionId::DeliverPing(_) => "deliver-ping",
        ActionId::DeliverAck(_) => "deliver-ack",
        ActionId::DeliverStaleAck(_) => "deliver-stale-ack",
        ActionId::DuplicateAck(_) => "duplicate-ack",
        ActionId::GrantWitness(_) => "grant-witness",
        ActionId::GrantSubject(_) => "grant-subject",
        ActionId::Converge => "converge",
        ActionId::CrashSubject => "crash",
    }
}

/// The guarded-command action system for one [`IrConfig`].
#[derive(Clone, Debug)]
pub struct Ir {
    /// The configuration the guards/updates are specialized to.
    pub cfg: IrConfig,
    actions: Vec<Action>,
}

impl Ir {
    /// Builds the action table for `cfg`. Mutation-only actions
    /// ([`ActionId::DuplicateAck`]) and mode-only actions
    /// ([`ActionId::DeliverStaleAck`]) appear only when the configuration
    /// enables them, so "every listed action is somewhere enabled" is a
    /// meaningful lint.
    ///
    /// Panics if `cfg.wire_cap` is outside
    /// [`MIN_WIRE_CAP`]..=[`MAX_WIRE_CAP`] (CLI callers validate first and
    /// exit 64 instead).
    pub fn new(cfg: IrConfig) -> Self {
        assert!(
            (MIN_WIRE_CAP..=MAX_WIRE_CAP).contains(&cfg.wire_cap),
            "wire_cap {} outside {MIN_WIRE_CAP}..={MAX_WIRE_CAP}",
            cfg.wire_cap
        );
        let mut actions = vec![
            Action { id: ActionId::WitnessHungry(0), name: "W_h(0)", doc: "Alg.1 l.2" },
            Action { id: ActionId::WitnessHungry(1), name: "W_h(1)", doc: "Alg.1 l.2" },
            Action { id: ActionId::WitnessExit(0), name: "W_x(0)", doc: "Alg.1 l.3-7" },
            Action { id: ActionId::WitnessExit(1), name: "W_x(1)", doc: "Alg.1 l.3-7" },
            Action { id: ActionId::SubjectHungry(0), name: "S_h(0)", doc: "Alg.2 l.2" },
            Action { id: ActionId::SubjectHungry(1), name: "S_h(1)", doc: "Alg.2 l.2" },
            Action { id: ActionId::SubjectPing(0), name: "S_p(0)", doc: "Alg.2 l.3-5" },
            Action { id: ActionId::SubjectPing(1), name: "S_p(1)", doc: "Alg.2 l.3-5" },
            Action { id: ActionId::SubjectExit(0), name: "S_x(0)", doc: "Alg.2 l.8-10" },
            Action { id: ActionId::SubjectExit(1), name: "S_x(1)", doc: "Alg.2 l.8-10" },
            Action { id: ActionId::DeliverPing(0), name: "deliver ping(0)", doc: "W_p(0)" },
            Action { id: ActionId::DeliverPing(1), name: "deliver ping(1)", doc: "W_p(1)" },
            Action { id: ActionId::DeliverAck(0), name: "deliver ack(0)", doc: "S_a(0)" },
            Action { id: ActionId::DeliverAck(1), name: "deliver ack(1)", doc: "S_a(1)" },
            Action { id: ActionId::GrantWitness(0), name: "grant w(0)", doc: "dining service" },
            Action { id: ActionId::GrantWitness(1), name: "grant w(1)", doc: "dining service" },
            Action { id: ActionId::GrantSubject(0), name: "grant s(0)", doc: "dining service" },
            Action { id: ActionId::GrantSubject(1), name: "grant s(1)", doc: "dining service" },
            Action { id: ActionId::Converge, name: "converge", doc: "◇WX suffix begins" },
        ];
        if cfg.strict_seq {
            actions.push(Action {
                id: ActionId::DeliverStaleAck(0),
                name: "deliver stale ack(0)",
                doc: "S_a(0), hardened: sequence mismatch",
            });
            actions.push(Action {
                id: ActionId::DeliverStaleAck(1),
                name: "deliver stale ack(1)",
                doc: "S_a(1), hardened: sequence mismatch",
            });
        }
        if cfg.model_mutation == ModelMutation::StaleAckReplay {
            actions.push(Action {
                id: ActionId::DuplicateAck(0),
                name: "duplicate ack(0)",
                doc: "seeded wire bug: StaleAckReplay",
            });
            actions.push(Action {
                id: ActionId::DuplicateAck(1),
                name: "duplicate ack(1)",
                doc: "seeded wire bug: StaleAckReplay",
            });
        }
        if cfg.allow_crash {
            actions.push(Action {
                id: ActionId::CrashSubject,
                name: "crash q",
                doc: "fault model: q may crash at any point",
            });
        }
        Ir { cfg, actions }
    }

    /// The action table (stable order).
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// The display name of `id` in this IR's table.
    pub fn name_of(&self, id: ActionId) -> &'static str {
        self.actions.iter().find(|a| a.id == id).map_or("<unlisted>", |a| a.name)
    }

    /// The guard predicate of `id` on `s`: the concrete reading of
    /// [`protocol::guard`].
    pub fn enabled(&self, s: &AbsState, id: ActionId) -> bool {
        protocol::guard(&mut Concrete::default(), &self.cfg, s, id)
    }

    /// The update function of `id`: appends every abstract successor of
    /// firing `id` in `s` to `out` — the concrete reading of
    /// [`protocol::update`]. Most actions are deterministic (one
    /// successor); a delivery out of a saturated counter yields the
    /// `choice`-resolved pair `cap - 1`, `cap`.
    ///
    /// Must only be called when [`Ir::enabled`] holds (checked in debug).
    pub fn fire(&self, s: &AbsState, id: ActionId, out: &mut Vec<AbsState>) {
        debug_assert!(self.enabled(s, id), "firing disabled {id:?}");
        let mut values = Concrete::default();
        out.push(protocol::update(&mut values, &self.cfg, s, id, &false));
        if values.saturated {
            out.push(protocol::update(&mut values, &self.cfg, s, id, &true));
        }
    }

    /// Invokes `f` for every enabled action (table order).
    pub fn for_each_enabled(&self, s: &AbsState, mut f: impl FnMut(ActionId)) {
        for a in &self.actions {
            if self.enabled(s, a.id) {
                f(a.id);
            }
        }
    }

    /// All `(action, successor)` pairs out of `s`, appended to `out`.
    pub fn successors_into(&self, s: &AbsState, out: &mut Vec<(ActionId, AbsState)>) {
        let mut succ = Vec::with_capacity(2);
        for a in &self.actions {
            if self.enabled(s, a.id) {
                succ.clear();
                self.fire(s, a.id, &mut succ);
                out.extend(succ.iter().map(|&t| (a.id, t)));
            }
        }
    }
}

/// The eight configurations of experiments E11/E13 at the default cap —
/// faithful, hardened, crash-free and the five seeded mutants — which the
/// interpretation tests sweep.
#[cfg(test)]
pub(crate) fn config_matrix() -> [IrConfig; 8] {
    let f = IrConfig::faithful();
    [
        f,
        IrConfig { strict_seq: true, ..f },
        IrConfig { allow_crash: false, ..f },
        IrConfig { subject_mutation: SubjectMutation::SkipPingDisable, ..f },
        IrConfig { subject_mutation: SubjectMutation::IgnoreTriggerGuard, ..f },
        IrConfig { subject_mutation: SubjectMutation::SkipTriggerUpdate, ..f },
        IrConfig { model_mutation: ModelMutation::DropPingSend, ..f },
        IrConfig { model_mutation: ModelMutation::StaleAckReplay, ..f },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_abstract_state_matches_concrete_initial() {
        let cfg = IrConfig::faithful();
        let concrete = PairState::initial(&cfg.explore_config(10, 1000));
        assert_eq!(AbsState::abstract_of(&concrete), AbsState::initial());
    }

    #[test]
    fn initial_enabled_set_matches_model_shape() {
        let ir = Ir::new(IrConfig::faithful());
        let mut ids = Vec::new();
        ir.for_each_enabled(&AbsState::initial(), |a| ids.push(a));
        assert!(ids.contains(&ActionId::WitnessHungry(0)));
        assert!(ids.contains(&ActionId::SubjectHungry(0)));
        assert!(ids.contains(&ActionId::Converge));
        assert!(ids.contains(&ActionId::CrashSubject));
        assert!(!ids.contains(&ActionId::WitnessHungry(1)), "switch = 0");
        assert!(!ids.contains(&ActionId::SubjectHungry(1)), "trigger = 0");
        assert!(!ids.iter().any(|a| matches!(a, ActionId::DeliverPing(_))), "empty wire");
    }

    #[test]
    fn saturated_delivery_is_nondeterministic() {
        let ir = Ir::new(IrConfig::faithful());
        let mut s = AbsState::initial();
        s.pings[0] = WIRE_CAP;
        let mut succ = Vec::new();
        ir.fire(&s, ActionId::DeliverPing(0), &mut succ);
        let counts: Vec<u8> = succ.iter().map(|t| t.pings[0]).collect();
        assert_eq!(counts, vec![WIRE_CAP - 1, WIRE_CAP]);
        assert!(succ.iter().all(|t| t.haveping[0] && t.acks[0] == 1));
    }

    #[test]
    fn concretize_inverts_abstract_of_on_small_counts() {
        let cfg = IrConfig::faithful();
        let mut s = AbsState::initial();
        s.s_phase[0] = DinerPhase::Eating;
        s.ping_enabled[0] = false;
        s.pings[0] = 1;
        let concrete = s.concretize(&cfg);
        assert_eq!(AbsState::abstract_of(&concrete), s);
    }

    #[test]
    fn crash_clears_acks_but_not_pings() {
        let ir = Ir::new(IrConfig::faithful());
        let mut s = AbsState::initial();
        s.pings[0] = 1;
        s.acks[1] = 1;
        let mut succ = Vec::new();
        ir.fire(&s, ActionId::CrashSubject, &mut succ);
        assert_eq!(succ.len(), 1);
        assert_eq!(succ[0].pings, [1, 0]);
        assert_eq!(succ[0].acks, [0, 0]);
    }

    #[test]
    fn stale_ack_branch_exists_only_in_strict_mode() {
        let mut s = AbsState::initial();
        s.acks[0] = 1;
        let lenient = Ir::new(IrConfig::faithful());
        assert!(!lenient.enabled(&s, ActionId::DeliverStaleAck(0)));
        let strict = Ir::new(IrConfig { strict_seq: true, ..IrConfig::faithful() });
        assert!(strict.enabled(&s, ActionId::DeliverStaleAck(0)));
        let mut succ = Vec::new();
        strict.fire(&s, ActionId::DeliverStaleAck(0), &mut succ);
        assert_eq!(succ.len(), 1);
        assert_eq!(succ[0].trigger, s.trigger, "a rejected ack must not flip the trigger");
        assert_eq!(succ[0].acks[0], 0);
    }
}
