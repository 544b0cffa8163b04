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
//!   states. Along the same walks, the explorer's lemma predicates on the
//!   concrete state equal the IR's clauses on its abstraction.

use dinefd_analyze::induct::Clause;
use dinefd_analyze::ir::{abstract_of, explore_config, AbsState, ActionId, Ir, IrConfig, WIRE_CAP};
use dinefd_core::machines::{SubjectAction, SubjectMachine, SubjectMutation, WitnessAction};
use dinefd_explore::{ModelMutation, PairState, TransitionLabel};
use proptest::prelude::*;

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

            // The explorer's own lemma oracle on the concrete state and the
            // IR's clauses on its abstraction are independent definitions.
            for (clause, concrete) in [
                (Clause::L2, dinefd_explore::lemma2_holds(&state)),
                (Clause::L3, dinefd_explore::lemma3_holds(&state)),
                (Clause::L4, dinefd_explore::lemma4_holds(&state)),
                (Clause::L9, dinefd_explore::lemma9_holds(&state)),
                (Clause::Excl, dinefd_explore::exclusion_holds(&state)),
            ] {
                prop_assert_eq!(clause.holds(&pre_abs), concrete, "{:?} at {:?}", clause, state);
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
