//! Differential conformance: the guarded-command IR against the executable
//! machines and the concrete explorer model.
//!
//! The IR transcribes Alg. 1/Alg. 2 *independently* of
//! `dinefd_core::machines`; these properties are what entitle the inductive
//! checker to speak about the real system:
//!
//! * **enabled-set agreement** — on every abstract state, the IR enables
//!   exactly the machine-local actions the machines enable (for every
//!   `SubjectMutation`, strictness, and crash flag);
//! * **fire agreement** — firing an agreed-enabled action leaves the
//!   machine's packed bits exactly where the IR's update says, and moves
//!   the dining phase the way the machine's host command says;
//! * **handler agreement** — `W_p`/`S_a` (message-triggered) match the
//!   IR's delivery actions, including strict-mode stale-ack rejection;
//! * **simulation** — along random walks of the *concrete* model, every
//!   transition is matched by an IR action reproducing the abstracted
//!   post-state: the abstraction really over-approximates the system, so
//!   inductive invariants transfer to all reachable concrete states;
//! * **lemma agreement** — along the same walks, the explorer's lemma
//!   predicates on the concrete state equal the IR's clauses on its
//!   abstraction.

use dinefd_analyze::induct::Clause;
use dinefd_analyze::ir::{AbsState, ActionId, Ir, IrConfig, WIRE_CAP};
use dinefd_core::machines::{
    SubjectAction, SubjectCmd, SubjectMachine, SubjectMutation, WitnessAction, WitnessCmd,
    WitnessMachine,
};
use dinefd_dining::DinerPhase;
use dinefd_explore::{ModelMutation, PairState, TransitionLabel};
use proptest::prelude::*;

fn phase_of(bits: u8) -> DinerPhase {
    match bits % 3 {
        0 => DinerPhase::Thinking,
        1 => DinerPhase::Hungry,
        _ => DinerPhase::Eating,
    }
}

fn arb_abs_state() -> impl Strategy<Value = AbsState> {
    (
        (any::<u8>(), 0u8..2, any::<bool>(), any::<bool>(), any::<bool>()),
        (0u8..2, any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
        (0u8..=WIRE_CAP, 0u8..=WIRE_CAP, 0u8..=WIRE_CAP, 0u8..=WIRE_CAP),
    )
        .prop_map(
            |(
                (phases, switch, hp0, hp1, suspect),
                (trigger, pe0, pe1, converged, crashed),
                (p0, p1, a0, a1),
            )| AbsState {
                w_phase: [phase_of(phases), phase_of(phases / 3)],
                s_phase: [phase_of(phases / 9), phase_of(phases / 27)],
                switch,
                haveping: [hp0, hp1],
                suspect,
                trigger,
                ping_enabled: [pe0, pe1],
                converged,
                crashed,
                pings: [p0, p1],
                acks: [a0, a1],
            },
        )
}

fn arb_cfg() -> impl Strategy<Value = IrConfig> {
    (0u8..4, 0u8..3, any::<bool>(), any::<bool>()).prop_map(|(sm, mm, strict_seq, allow_crash)| {
        // Conformance is stated against the executable machines, whose
        // abstraction saturates at the default cap — the IR's wider caps
        // are covered by the CNF round-trip and agreement suites instead.
        IrConfig {
            wire_cap: WIRE_CAP,
            strict_seq,
            allow_crash,
            subject_mutation: match sm {
                0 => SubjectMutation::None,
                1 => SubjectMutation::SkipPingDisable,
                2 => SubjectMutation::IgnoreTriggerGuard,
                _ => SubjectMutation::SkipTriggerUpdate,
            },
            model_mutation: match mm {
                0 => ModelMutation::None,
                1 => ModelMutation::DropPingSend,
                _ => ModelMutation::StaleAckReplay,
            },
        }
    })
}

/// The witness machine built from an abstract state's witness bits.
fn witness_of(s: &AbsState) -> WitnessMachine {
    WitnessMachine::from_parts(s.switch as usize, s.haveping, s.suspect)
}

/// The subject machine built from an abstract state's subject bits.
fn subject_of(s: &AbsState, cfg: &IrConfig) -> SubjectMachine {
    SubjectMachine::from_parts(
        s.trigger as usize,
        s.ping_enabled,
        [1, 1],
        cfg.strict_seq,
        cfg.subject_mutation,
    )
}

/// The unique successor of a deterministic IR action.
fn fire_one(ir: &Ir, s: &AbsState, id: ActionId) -> AbsState {
    let mut out = Vec::new();
    ir.fire(s, id, &mut out);
    assert!(!out.is_empty(), "{id:?} produced no successor");
    out[0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Enabled-set and fire agreement for the witness machine (Alg. 1).
    #[test]
    fn witness_conforms(s in arb_abs_state(), cfg in arb_cfg()) {
        let ir = Ir::new(cfg);
        let machine = witness_of(&s);

        let mut from_machine: Vec<ActionId> = machine
            .enabled(s.w_phase)
            .into_iter()
            .map(|a| match a {
                WitnessAction::Hungry(i) => ActionId::WitnessHungry(i),
                WitnessAction::ExitCheck(i) => ActionId::WitnessExit(i),
            })
            .collect();
        let mut from_ir: Vec<ActionId> = Vec::new();
        ir.for_each_enabled(&s, |id| {
            if matches!(id, ActionId::WitnessHungry(_) | ActionId::WitnessExit(_)) {
                from_ir.push(id);
            }
        });
        let key = |id: &ActionId| format!("{id:?}");
        from_machine.sort_by_key(key);
        from_ir.sort_by_key(key);
        prop_assert_eq!(&from_machine, &from_ir, "enabled sets differ at {:?}", s);

        for id in from_ir {
            let (action, i) = match id {
                ActionId::WitnessHungry(i) => (WitnessAction::Hungry(i), i),
                ActionId::WitnessExit(i) => (WitnessAction::ExitCheck(i), i),
                _ => unreachable!(),
            };
            let mut m = machine.clone();
            let cmd = m.fire(action, s.w_phase);
            let t = fire_one(&ir, &s, id);
            // Machine bits: bit-identical via the packed byte.
            prop_assert_eq!(m.pack(), witness_of(&t).pack(), "machine bits after {:?}", id);
            // Phase effect: the host command's phase change is the IR's.
            let expected_phase = match cmd {
                WitnessCmd::BecomeHungry(j) => {
                    prop_assert_eq!(j, i);
                    DinerPhase::Hungry
                }
                WitnessCmd::Exit(j) => {
                    prop_assert_eq!(j, i);
                    DinerPhase::Thinking
                }
                WitnessCmd::SendAck(..) => unreachable!("not a local action command"),
            };
            prop_assert_eq!(t.w_phase[i], expected_phase);
        }
    }

    /// Enabled-set and fire agreement for the subject machine (Alg. 2),
    /// under every seeded mutation. The machine is crash-oblivious (its
    /// host stops scheduling it); the IR folds `¬crashed` into the guards.
    #[test]
    fn subject_conforms(s in arb_abs_state(), cfg in arb_cfg()) {
        let ir = Ir::new(cfg);
        let machine = subject_of(&s, &cfg);

        let mut from_machine: Vec<ActionId> = if s.crashed {
            Vec::new()
        } else {
            machine
                .enabled(s.s_phase)
                .into_iter()
                .map(|a| match a {
                    SubjectAction::Hungry(i) => ActionId::SubjectHungry(i),
                    SubjectAction::Ping(i) => ActionId::SubjectPing(i),
                    SubjectAction::Exit(i) => ActionId::SubjectExit(i),
                })
                .collect()
        };
        let mut from_ir: Vec<ActionId> = Vec::new();
        ir.for_each_enabled(&s, |id| {
            if matches!(
                id,
                ActionId::SubjectHungry(_) | ActionId::SubjectPing(_) | ActionId::SubjectExit(_)
            ) {
                from_ir.push(id);
            }
        });
        let key = |id: &ActionId| format!("{id:?}");
        from_machine.sort_by_key(key);
        from_ir.sort_by_key(key);
        prop_assert_eq!(&from_machine, &from_ir, "enabled sets differ at {:?}", s);

        for id in from_ir {
            let (action, i) = match id {
                ActionId::SubjectHungry(i) => (SubjectAction::Hungry(i), i),
                ActionId::SubjectPing(i) => (SubjectAction::Ping(i), i),
                ActionId::SubjectExit(i) => (SubjectAction::Exit(i), i),
                _ => unreachable!(),
            };
            let mut m = machine.clone();
            let cmd = m.fire(action, s.s_phase);
            let t = fire_one(&ir, &s, id);
            prop_assert_eq!(
                m.flag_bits(),
                subject_of(&t, &cfg).flag_bits(),
                "machine bits after {:?}",
                id
            );
            match cmd {
                SubjectCmd::BecomeHungry(j) => {
                    prop_assert_eq!(j, i);
                    prop_assert_eq!(t.s_phase[i], DinerPhase::Hungry);
                }
                SubjectCmd::SendPing(j, _) => {
                    prop_assert_eq!(j, i);
                    prop_assert_eq!(t.s_phase[i], s.s_phase[i], "ping keeps the phase");
                    // The wire effect honors the model mutation.
                    let expect = if cfg.model_mutation == ModelMutation::DropPingSend {
                        s.pings[i]
                    } else {
                        (s.pings[i] + 1).min(WIRE_CAP)
                    };
                    prop_assert_eq!(t.pings[i], expect);
                }
                SubjectCmd::Exit(j) => {
                    prop_assert_eq!(j, i);
                    prop_assert_eq!(t.s_phase[i], DinerPhase::Thinking);
                }
            }
        }
    }

    /// The message-triggered handlers: `W_p` against `DeliverPing`, `S_a`
    /// against `DeliverAck` / `DeliverStaleAck`.
    #[test]
    fn handlers_conform(s in arb_abs_state(), cfg in arb_cfg(), i in 0usize..2) {
        let ir = Ir::new(cfg);

        if s.pings[i] > 0 {
            let mut m = witness_of(&s);
            let cmd = m.on_ping(i, 1);
            prop_assert_eq!(cmd, WitnessCmd::SendAck(i, 1));
            let mut succ = Vec::new();
            ir.fire(&s, ActionId::DeliverPing(i), &mut succ);
            for t in &succ {
                prop_assert_eq!(m.pack(), witness_of(t).pack());
                // The model drops the ack on the floor iff q is a corpse.
                let expect = if s.crashed { s.acks[i] } else { (s.acks[i] + 1).min(WIRE_CAP) };
                prop_assert_eq!(t.acks[i], expect);
            }
        }

        if !s.crashed && s.acks[i] > 0 {
            // A current-sequence ack: accepted in every mode.
            let mut m = subject_of(&s, &cfg);
            m.on_ack(i, 1); // matches the seq the machine was built with
            let mut succ = Vec::new();
            ir.fire(&s, ActionId::DeliverAck(i), &mut succ);
            for t in &succ {
                prop_assert_eq!(m.flag_bits(), subject_of(t, &cfg).flag_bits());
            }
            // A stale ack: rejected iff strict (the IR models the rejected
            // branch as its own action, existing only in strict mode).
            let mut stale = subject_of(&s, &cfg);
            stale.on_ack(i, 99);
            if cfg.strict_seq {
                prop_assert!(ir.enabled(&s, ActionId::DeliverStaleAck(i)));
                let mut succ = Vec::new();
                ir.fire(&s, ActionId::DeliverStaleAck(i), &mut succ);
                for t in &succ {
                    prop_assert_eq!(stale.flag_bits(), subject_of(t, &cfg).flag_bits());
                    prop_assert_eq!(t.trigger, s.trigger, "rejected ack must not flip trigger");
                }
            } else {
                prop_assert!(!ir.enabled(&s, ActionId::DeliverStaleAck(i)));
                prop_assert_eq!(stale.flag_bits(), m.flag_bits(), "lenient mode applies any seq");
            }
        }
    }

    /// Simulation: along random concrete walks, every model transition is
    /// matched by an IR action whose successor is the abstracted post-state.
    #[test]
    fn concrete_walks_are_simulated(
        choices in prop::collection::vec(any::<u32>(), 1..80),
        cfg in arb_cfg(),
    ) {
        let ecfg = cfg.explore_config(0, 0);
        let ir = Ir::new(cfg);
        let mut state = PairState::initial(&ecfg);
        for &c in &choices {
            let succ = state.successors(&ecfg);
            if succ.is_empty() {
                break;
            }
            let (label, post) = &succ[(c as usize) % succ.len()];
            let pre_abs = AbsState::abstract_of(&state);
            let post_abs = AbsState::abstract_of(post);

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
