//! Conformance of what the one protocol text does not settle by itself.
//!
//! The guards and updates of Alg. 1/Alg. 2 are written once, in
//! `dinefd_core::protocol`, and both the guarded-command IR and the
//! executable machines in `dinefd_core::machines` read them there, so the
//! two enable and update alike by construction. Two claims remain, and
//! these properties test them:
//!
//! * **stale-ack classification** — the one piece of the machines written
//!   by hand: a strict subject treats an ack that does not echo its
//!   outstanding ping as the IR's `DeliverStaleAck` (consumed, the trigger
//!   never flips), and a lenient one treats it as an accepted
//!   `DeliverAck`;
//! * **simulation** — along random walks of the *concrete* explorer model,
//!   whose wire, grants, convergence and crash are its own hand-written
//!   rules, every transition is matched by an IR action reproducing the
//!   abstracted post-state: the saturating wire really over-approximates
//!   the system, so inductive invariants transfer to all reachable concrete
//!   states. Along the same walks, the protocol's lemma clauses on the
//!   abstraction equal the hand-written predicates below on the concrete
//!   state.

use dinefd_analyze::induct::Clause;
use dinefd_analyze::ir::{abstract_of, explore_config, AbsState, ActionId, Ir, IrConfig, WIRE_CAP};
use dinefd_analyze::protocol::{self, Concrete};
use dinefd_core::machines::{SubjectAction, SubjectMachine, SubjectMutation, WitnessAction};
use dinefd_dining::DinerPhase;
use dinefd_explore::{ModelMutation, PairState, TransitionLabel};
use proptest::prelude::*;

// The reference oracle: the safety lemmas written by hand over the
// concrete explorer state, independently of the protocol text the
// checkers all read.

/// Whether any ping *or* ack of `DX_i` is in transit.
fn dx_in_transit(v: &PairState, i: usize) -> bool {
    v.pings.iter().any(|&(j, _)| j as usize == i) || v.acks.iter().any(|&(j, _)| j as usize == i)
}

/// Lemma 2: `(s_i.state ≠ eating) ⇒ ping_i` (vacuous once `q` crashed —
/// the corpse's frozen local state is no longer constrained).
fn lemma2_holds(v: &PairState) -> bool {
    (0..2).all(|i| v.crashed || v.s_phase[i] == DinerPhase::Eating || v.subject.ping_enabled(i))
}

/// Lemma 3: `(s_i ≠ eating ∧ ping_i) ⇒ no DX_i message in transit`.
fn lemma3_holds(v: &PairState) -> bool {
    (0..2).all(|i| {
        v.crashed
            || v.s_phase[i] == DinerPhase::Eating
            || !v.subject.ping_enabled(i)
            || !dx_in_transit(v, i)
    })
}

/// Lemma 4: `(s_i.state = hungry) ⇒ trigger = i`.
fn lemma4_holds(v: &PairState) -> bool {
    (0..2).all(|i| v.crashed || v.s_phase[i] != DinerPhase::Hungry || v.subject.trigger() == i)
}

/// Lemma 9: some witness thread is thinking.
fn lemma9_holds(v: &PairState) -> bool {
    v.w_phase[0] == DinerPhase::Thinking || v.w_phase[1] == DinerPhase::Thinking
}

/// Model soundness: after convergence the two *live* endpoints of an
/// instance never eat simultaneously (◇WX's exclusive suffix).
fn exclusion_holds(v: &PairState) -> bool {
    (0..2).all(|i| {
        !v.converged
            || v.crashed
            || !(v.w_phase[i] == DinerPhase::Eating && v.s_phase[i] == DinerPhase::Eating)
    })
}

fn arb_cfg() -> impl Strategy<Value = IrConfig> {
    (0usize..4, 0usize..3, any::<bool>(), any::<bool>()).prop_map(
        |(sm, mm, strict_seq, allow_crash)| {
            // The explorer's abstraction saturates at the default cap — the
            // IR's wider caps are covered by the CNF round-trip and
            // agreement suites instead.
            IrConfig {
                wire_cap: WIRE_CAP,
                strict_seq,
                allow_crash,
                subject_mutation: SubjectMutation::SPELLINGS[sm].1,
                model_mutation: ModelMutation::SPELLINGS[mm].1,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `S_a(i)` with an ack that does not echo the outstanding sequence
    /// number: the machine's hand-written classification against the IR's
    /// two ack deliveries.
    #[test]
    fn stale_acks_are_classified_as_the_ir_does(
        trigger in 0u8..2,
        pe0 in any::<bool>(),
        pe1 in any::<bool>(),
        cfg in arb_cfg(),
        i in 0usize..2,
    ) {
        let ir = Ir::new(cfg);
        let s = AbsState { trigger, ping_enabled: [pe0, pe1], acks: [1, 1], ..AbsState::initial() };
        let mut m = SubjectMachine::from_parts(
            trigger as usize,
            [pe0, pe1],
            [1, 1],
            cfg.strict_seq,
            cfg.subject_mutation,
        );
        m.on_ack(i, 99);
        // The rejected branch is its own action, existing only in strict mode.
        prop_assert_eq!(ir.enabled(&s, ActionId::DeliverStaleAck(i)), cfg.strict_seq);
        let id = if cfg.strict_seq { ActionId::DeliverStaleAck(i) } else { ActionId::DeliverAck(i) };
        let mut succ = Vec::new();
        ir.fire(&s, id, &mut succ);
        prop_assert_eq!(succ.len(), 1);
        let t = succ[0];
        prop_assert_eq!(m.trigger(), usize::from(t.trigger), "trigger after {:?}", id);
        prop_assert_eq!([m.ping_enabled(0), m.ping_enabled(1)], t.ping_enabled);
        if cfg.strict_seq {
            prop_assert_eq!(m.trigger(), usize::from(trigger), "a stale ack must not flip the trigger");
        }
    }

    /// Simulation: along random concrete walks, every model transition is
    /// matched by an IR action whose successor is the abstracted post-state.
    #[test]
    fn concrete_walks_are_simulated(
        choices in prop::collection::vec(any::<u32>(), 1..80),
        cfg in arb_cfg(),
    ) {
        let ecfg = explore_config(&cfg, 0, 0);
        let ir = Ir::new(cfg);
        let mut state = PairState::initial(&ecfg);
        for &c in &choices {
            let succ = state.successors(&ecfg);
            if succ.is_empty() {
                break;
            }
            let (label, post) = &succ[(c as usize) % succ.len()];
            let pre_abs = abstract_of(&state);
            let post_abs = abstract_of(post);

            // The protocol's clauses on the abstraction, which every checker
            // reads, against the reference predicates on the concrete state:
            // two independent definitions of the lemmas.
            for (clause, concrete) in [
                (Clause::L2, lemma2_holds(&state)),
                (Clause::L3, lemma3_holds(&state)),
                (Clause::L4, lemma4_holds(&state)),
                (Clause::L9, lemma9_holds(&state)),
                (Clause::Excl, exclusion_holds(&state)),
            ] {
                let text = protocol::clause(&mut Concrete::default(), &pre_abs, clause);
                prop_assert_eq!(text, concrete, "{:?} at {:?}", clause, state);
            }

            // The IR action(s) that may simulate this concrete label.
            let expected: Vec<ActionId> = match *label {
                TransitionLabel::Witness(WitnessAction::Hungry(i)) =>
                    vec![ActionId::WitnessHungry(i)],
                TransitionLabel::Witness(WitnessAction::ExitCheck(i)) =>
                    vec![ActionId::WitnessExit(i)],
                TransitionLabel::Subject(SubjectAction::Hungry(i)) =>
                    vec![ActionId::SubjectHungry(i)],
                TransitionLabel::Subject(SubjectAction::Ping(i)) =>
                    vec![ActionId::SubjectPing(i)],
                TransitionLabel::Subject(SubjectAction::Exit(i)) =>
                    vec![ActionId::SubjectExit(i)],
                TransitionLabel::DeliverPing(k) => {
                    let i = state.pings[k].0 as usize;
                    vec![ActionId::DeliverPing(i)]
                }
                TransitionLabel::DeliverAck(k) => {
                    let i = state.acks[k].0 as usize;
                    vec![ActionId::DeliverAck(i), ActionId::DeliverStaleAck(i)]
                }
                TransitionLabel::DuplicateAck(k) => {
                    let i = state.acks[k].0 as usize;
                    vec![ActionId::DuplicateAck(i)]
                }
                TransitionLabel::GrantWitness(i) => vec![ActionId::GrantWitness(i)],
                TransitionLabel::GrantSubject(i) => vec![ActionId::GrantSubject(i)],
                TransitionLabel::Converge => vec![ActionId::Converge],
                TransitionLabel::CrashSubject => vec![ActionId::CrashSubject],
            };

            let mut simulated = false;
            for &id in &expected {
                if !ir.enabled(&pre_abs, id) {
                    continue;
                }
                let mut out = Vec::new();
                ir.fire(&pre_abs, id, &mut out);
                if out.contains(&post_abs) {
                    simulated = true;
                    break;
                }
            }
            prop_assert!(
                simulated,
                "concrete {:?} not simulated: pre {:?} post {:?} (candidates {:?})",
                label, pre_abs, post_abs, expected
            );
            state = post.clone();
        }
    }
}
