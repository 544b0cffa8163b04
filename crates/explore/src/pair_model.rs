//! The closed nondeterministic model of one monitoring pair.

use dinefd_core::machines::{
    Step, SubjectAction, SubjectMachine, SubjectMutation, WitnessAction, WitnessMachine,
};
pub use dinefd_core::protocol::ModelMutation;
use dinefd_core::protocol::{in_closure, AbsState, Concrete, WIRE_CAP};
use dinefd_dining::DinerPhase;

/// Exploration parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Maximum interleaving depth.
    pub max_depth: u32,
    /// State-count budget (exploration reports truncation beyond it).
    pub max_states: usize,
    /// Harden the subject with sequence-checked acks.
    pub strict_seq: bool,
    /// Allow the subject process `q` to crash at any point.
    pub allow_crash: bool,
    /// Start in the exclusive regime (convergence already reached).
    pub start_converged: bool,
    /// Seeded machine-level bug (mutation testing; `None` = faithful).
    pub subject_mutation: SubjectMutation,
    /// Seeded wire-level bug (mutation testing; `None` = faithful).
    pub model_mutation: ModelMutation,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_depth: 14,
            max_states: 2_000_000,
            strict_seq: false,
            allow_crash: true,
            start_converged: false,
            subject_mutation: SubjectMutation::None,
            model_mutation: ModelMutation::None,
        }
    }
}

/// One transition choice of the explorer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransitionLabel {
    /// Fire a witness guarded action.
    Witness(WitnessAction),
    /// Fire a subject guarded action.
    Subject(SubjectAction),
    /// Deliver the in-flight ping at the given pool index.
    DeliverPing(usize),
    /// Deliver the in-flight ack at the given pool index.
    DeliverAck(usize),
    /// Duplicate the in-flight ack at the given pool index (only enabled
    /// under [`ModelMutation::StaleAckReplay`]).
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

/// A complete model state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PairState {
    /// Alg. 1 state at `p`.
    pub witness: WitnessMachine,
    /// Alg. 2 state at `q`.
    pub subject: SubjectMachine,
    /// Phases of `p.w_0`, `p.w_1` in their instances.
    pub w_phase: [DinerPhase; 2],
    /// Phases of `q.s_0`, `q.s_1`.
    pub s_phase: [DinerPhase; 2],
    /// In-flight pings `(instance, seq)`, ordered by send time (delivery may
    /// pick any — non-FIFO).
    pub pings: Vec<(u8, u64)>,
    /// In-flight acks `(instance, seq)`.
    pub acks: Vec<(u8, u64)>,
    /// Whether ◇WX has converged (grants now exclusive per instance).
    pub converged: bool,
    /// Whether `q` has crashed.
    pub crashed: bool,
}

impl PairState {
    /// The initial state.
    pub fn initial(cfg: &ExploreConfig) -> Self {
        PairState {
            witness: WitnessMachine::new(),
            subject: SubjectMachine::with_mutation(cfg.strict_seq, cfg.subject_mutation),
            w_phase: [DinerPhase::Thinking; 2],
            s_phase: [DinerPhase::Thinking; 2],
            pings: Vec::new(),
            acks: Vec::new(),
            converged: cfg.start_converged,
            crashed: false,
        }
    }

    fn both_endpoints_eating(&self, i: usize) -> bool {
        self.w_phase[i] == DinerPhase::Eating && self.s_phase[i] == DinerPhase::Eating
    }

    /// Applies one labelled transition, returning the successor. The label
    /// must be enabled here ([`PairState::for_each_label`] yields it).
    pub fn apply(&self, label: TransitionLabel, cfg: &ExploreConfig) -> PairState {
        let mut s = self.clone();
        s.fire(label, cfg);
        s
    }

    /// [`PairState::apply`] into a caller-owned buffer: `next` is
    /// overwritten field by field, the message pools through
    /// `Vec::clone_from`, so a walk that swaps two buffers stops allocating
    /// once both pools have grown to the walk's high-water mark. (The
    /// derived `Clone::clone_from` would drop and reallocate them.)
    pub fn apply_into(&self, label: TransitionLabel, cfg: &ExploreConfig, next: &mut PairState) {
        let PairState { witness, subject, w_phase, s_phase, pings, acks, converged, crashed } =
            self;
        next.witness = witness.clone();
        next.subject = subject.clone();
        (next.w_phase, next.s_phase) = (*w_phase, *s_phase);
        next.pings.clone_from(pings);
        next.acks.clone_from(acks);
        (next.converged, next.crashed) = (*converged, *crashed);
        next.fire(label, cfg);
    }

    /// The transition itself, in place.
    fn fire(&mut self, label: TransitionLabel, cfg: &ExploreConfig) {
        let s = self;
        match label {
            TransitionLabel::Witness(a) => match s.witness.fire(a, s.w_phase) {
                Step::Hungry(i) => s.w_phase[i] = DinerPhase::Hungry,
                Step::Exit(i) => s.w_phase[i] = DinerPhase::Thinking,
                Step::Send(..) => unreachable!("ack is message-triggered"),
            },
            TransitionLabel::Subject(a) => match s.subject.fire(a, s.s_phase) {
                Step::Hungry(i) => s.s_phase[i] = DinerPhase::Hungry,
                Step::Exit(i) => s.s_phase[i] = DinerPhase::Thinking,
                // Seeded wire bug: the send is silently lost (the machine
                // still believes it pinged).
                Step::Send(i, seq) => {
                    if cfg.model_mutation != ModelMutation::DropPingSend {
                        s.pings.push((i as u8, seq));
                    }
                }
            },
            TransitionLabel::DeliverPing(k) => {
                let (i, seq) = s.pings.remove(k);
                // Witness handles the ping: bank it and emit an ack.
                let Step::Send(i2, seq2) = s.witness.on_ping(i as usize, seq) else {
                    unreachable!()
                };
                if s.crashed {
                    // The ack would be delivered to a corpse: drop it.
                } else {
                    s.acks.push((i2 as u8, seq2));
                }
            }
            TransitionLabel::DeliverAck(k) => {
                let (i, seq) = s.acks.remove(k);
                debug_assert!(!s.crashed, "acks to a crashed q are not delivered");
                s.subject.on_ack(i as usize, seq);
            }
            TransitionLabel::DuplicateAck(k) => {
                debug_assert_eq!(cfg.model_mutation, ModelMutation::StaleAckReplay);
                let dup = s.acks[k];
                s.acks.push(dup);
            }
            TransitionLabel::GrantWitness(i) => {
                debug_assert_eq!(s.w_phase[i], DinerPhase::Hungry);
                s.w_phase[i] = DinerPhase::Eating;
            }
            TransitionLabel::GrantSubject(i) => {
                debug_assert_eq!(s.s_phase[i], DinerPhase::Hungry);
                s.s_phase[i] = DinerPhase::Eating;
            }
            TransitionLabel::Converge => s.converged = true,
            TransitionLabel::CrashSubject => {
                s.crashed = true;
                // In-flight pings were already sent; they still arrive at the
                // live witness. Acks in flight to q vanish.
                s.acks.clear();
            }
        }
    }

    /// Yields every enabled transition label, in the model's canonical
    /// order (the order [`PairState::successors`] lists them in). Builds no
    /// state: a caller that wants one edge applies only that label.
    pub fn for_each_label(&self, cfg: &ExploreConfig, mut push: impl FnMut(TransitionLabel)) {
        // Witness actions (p is always correct in this model).
        self.witness.for_each_enabled(self.w_phase, |a| push(TransitionLabel::Witness(a)));
        // Subject actions, if q lives.
        if !self.crashed {
            self.subject.for_each_enabled(self.s_phase, |a| push(TransitionLabel::Subject(a)));
        }
        // Non-FIFO delivery: any in-flight message.
        for k in 0..self.pings.len() {
            push(TransitionLabel::DeliverPing(k));
        }
        if !self.crashed {
            for k in 0..self.acks.len() {
                push(TransitionLabel::DeliverAck(k));
            }
            // Seeded wire bug: an adversarial wire may duplicate an
            // in-flight ack (bounded so the mutated state space stays
            // finite).
            if cfg.model_mutation == ModelMutation::StaleAckReplay && self.acks.len() < 3 {
                for k in 0..self.acks.len() {
                    push(TransitionLabel::DuplicateAck(k));
                }
            }
        }
        // Dining grants: unconstrained before convergence; exclusive within
        // each instance afterwards. Exclusion binds *live* neighbors only —
        // a subject that crashed mid-meal must not block the witness
        // (wait-freedom).
        for i in 0..2 {
            if self.w_phase[i] == DinerPhase::Hungry
                && (!self.converged || self.crashed || self.s_phase[i] != DinerPhase::Eating)
            {
                push(TransitionLabel::GrantWitness(i));
            }
            if !self.crashed
                && self.s_phase[i] == DinerPhase::Hungry
                && (!self.converged || self.w_phase[i] != DinerPhase::Eating)
            {
                push(TransitionLabel::GrantSubject(i));
            }
        }
        // Convergence may strike at any moment — but ◇WX's exclusive suffix
        // cannot begin while two live neighbors are mid-overlap.
        if !self.converged && !(0..2).any(|i| !self.crashed && self.both_endpoints_eating(i)) {
            push(TransitionLabel::Converge);
        }
        // q may crash at any moment.
        if cfg.allow_crash && !self.crashed {
            push(TransitionLabel::CrashSubject);
        }
    }

    /// The first enabled label, in canonical order, that satisfies `pred`.
    pub fn find_label(
        &self,
        cfg: &ExploreConfig,
        pred: impl Fn(TransitionLabel) -> bool,
    ) -> Option<TransitionLabel> {
        let mut hit = None;
        self.for_each_label(cfg, |l| {
            if hit.is_none() && pred(l) {
                hit = Some(l);
            }
        });
        hit
    }

    /// All enabled transitions with their successors, appended to `out`.
    /// The buffer's own storage is reused; each successor is still a fresh
    /// `PairState` clone (two `Vec`s), which is the right cost when every
    /// successor is kept and the wrong one when only one is (the search
    /// engine and the fuzzer walk labels instead).
    pub fn successors_into(
        &self,
        cfg: &ExploreConfig,
        out: &mut Vec<(TransitionLabel, PairState)>,
    ) {
        self.for_each_label(cfg, |l| out.push((l, self.apply(l, cfg))));
    }

    /// All enabled transitions with their successors, as a fresh vector
    /// (trace replay and property tests).
    pub fn successors(&self, cfg: &ExploreConfig) -> Vec<(TransitionLabel, PairState)> {
        let mut out = Vec::new();
        self.successors_into(cfg, &mut out);
        out
    }

    /// State-level invariant checks (the paper's safety lemmas): the
    /// protocol's clauses on [`abstract_of`] of this state, one message per
    /// violation: per instance Lemma 2, Lemma 4, Lemma 3 and exclusion
    /// soundness, then Lemma 9.
    pub fn check_invariants(&self) -> Vec<String> {
        crate::invariants::state_violations(&abstract_of(self), crate::invariants::PAIR_CLAUSES)
    }

    /// Membership in the Theorem-1 closure set: `q` crashed, no pings in
    /// flight, no banked ping.
    pub fn in_completeness_closure(&self) -> bool {
        in_closure(&mut Concrete::default(), &abstract_of(self))
    }

    /// Transition-level check for the Theorem-1 closure: from a closure
    /// state, every successor stays in the closure and suspicion is monotone.
    /// The closure requires `q` crashed, which [`abstract_of`] copies, so a
    /// pre-state with a live `q` is answered without building either view.
    pub fn check_closure_step(&self, succ: &PairState) -> Option<String> {
        if !self.crashed {
            return None;
        }
        crate::invariants::closure_step_violation(&abstract_of(self), &abstract_of(succ))
    }
}

/// The fields of an [`AbsState`] that the two machines and the wire hold,
/// counters saturated at `cap`; phases thinking and flags clear, for the
/// caller to fill from its own model.
#[inline]
pub(crate) fn machine_view(
    witness: &WitnessMachine,
    subject: &SubjectMachine,
    pings: &[(u8, u64)],
    acks: &[(u8, u64)],
    cap: u8,
) -> AbsState {
    let count = |queue: &[(u8, u64)], i: u8| {
        (queue.iter().filter(|&&(j, _)| j == i).count() as u64).min(cap as u64) as u8
    };
    AbsState {
        switch: witness.switch() as u8,
        haveping: [witness.haveping(0), witness.haveping(1)],
        suspect: witness.suspects(),
        trigger: subject.trigger() as u8,
        ping_enabled: [subject.ping_enabled(0), subject.ping_enabled(1)],
        pings: [count(pings, 0), count(pings, 1)],
        acks: [count(acks, 0), count(acks, 1)],
        ..AbsState::initial()
    }
}

/// The abstraction function at the default cap: forgets message
/// identities/sequence numbers, keeps per-class counts (saturated at
/// [`WIRE_CAP`]). It is the one map from the explorer's states to the
/// protocol's: the lemma checks read it, and so do the analyzer's
/// conformance suite and its CTI classification.
#[inline]
pub fn abstract_of(s: &PairState) -> AbsState {
    abstract_of_with_cap(s, WIRE_CAP)
}

/// The abstraction function at an explicit saturation cap.
#[inline]
pub fn abstract_of_with_cap(s: &PairState, cap: u8) -> AbsState {
    AbsState {
        w_phase: s.w_phase,
        s_phase: s.s_phase,
        converged: s.converged,
        crashed: s.crashed,
        ..machine_view(&s.witness, &s.subject, &s.pings, &s.acks, cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_is_clean() {
        let cfg = ExploreConfig::default();
        let s = PairState::initial(&cfg);
        assert!(s.check_invariants().is_empty());
        assert!(!s.in_completeness_closure());
    }

    #[test]
    fn model_mutation_spellings_are_total_and_injective() {
        use ModelMutation as M;
        // Walks every variant; the match is exhaustive, so a new variant
        // does not compile until it is listed here.
        let next = |m: M| match m {
            M::None => Some(M::DropPingSend),
            M::DropPingSend => Some(M::StaleAckReplay),
            M::StaleAckReplay => None,
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
    fn initial_transitions_include_expected_choices() {
        let cfg = ExploreConfig::default();
        let s = PairState::initial(&cfg);
        let succ = s.successors(&cfg);
        let labels: Vec<TransitionLabel> = succ.iter().map(|&(l, _)| l).collect();
        assert!(labels.contains(&TransitionLabel::Witness(WitnessAction::Hungry(0))));
        assert!(labels.contains(&TransitionLabel::Subject(SubjectAction::Hungry(0))));
        assert!(labels.contains(&TransitionLabel::Converge));
        assert!(labels.contains(&TransitionLabel::CrashSubject));
        // Nothing is hungry yet: no grants; no messages: no deliveries.
        assert!(!labels.iter().any(|l| matches!(l, TransitionLabel::GrantWitness(_))));
        assert!(!labels.iter().any(|l| matches!(l, TransitionLabel::DeliverPing(_))));
    }

    #[test]
    fn grant_respects_exclusive_regime() {
        let cfg = ExploreConfig { start_converged: true, ..Default::default() };
        let mut s = PairState::initial(&cfg);
        s.w_phase[0] = DinerPhase::Hungry;
        s.s_phase[0] = DinerPhase::Eating;
        let labels: Vec<TransitionLabel> = s.successors(&cfg).iter().map(|&(l, _)| l).collect();
        assert!(
            !labels.contains(&TransitionLabel::GrantWitness(0)),
            "exclusive regime must not double-grant DX_0"
        );
    }

    #[test]
    fn convergence_waits_for_overlap_to_clear() {
        let cfg = ExploreConfig::default();
        let mut s = PairState::initial(&cfg);
        s.w_phase[1] = DinerPhase::Eating;
        s.s_phase[1] = DinerPhase::Eating;
        let labels: Vec<TransitionLabel> = s.successors(&cfg).iter().map(|&(l, _)| l).collect();
        assert!(!labels.contains(&TransitionLabel::Converge));
    }

    #[test]
    fn crash_drops_acks_but_not_pings() {
        let cfg = ExploreConfig::default();
        let mut s = PairState::initial(&cfg);
        s.pings.push((0, 1));
        s.acks.push((1, 1));
        let (_, after) = s
            .successors(&cfg)
            .into_iter()
            .find(|(l, _)| *l == TransitionLabel::CrashSubject)
            .unwrap();
        assert_eq!(after.pings.len(), 1, "pings to the live witness survive");
        assert!(after.acks.is_empty(), "acks to the corpse vanish");
    }

    #[test]
    fn closure_is_detected() {
        let cfg = ExploreConfig::default();
        let mut s = PairState::initial(&cfg);
        s.crashed = true;
        assert!(s.in_completeness_closure());
        s.pings.push((0, 1));
        assert!(!s.in_completeness_closure());
    }
}
