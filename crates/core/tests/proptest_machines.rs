//! Property-based tests driving the pure witness/subject machines with
//! random (but legal) schedules, checking the paper's invariants along every
//! generated trajectory. These complement the exhaustive explorer in
//! `dinefd-explore`: random walks go much deeper than the bounded DFS.

use dinefd_core::machines::{Step, SubjectMachine, WitnessMachine};
use dinefd_dining::DinerPhase;
use proptest::prelude::*;

/// A tiny closed interpreter of the witness+subject pair with in-flight
/// message pools, driven by a random choice sequence.
struct Harness {
    witness: WitnessMachine,
    subject: SubjectMachine,
    w_phase: [DinerPhase; 2],
    s_phase: [DinerPhase; 2],
    pings: Vec<(usize, u64)>,
    acks: Vec<(usize, u64)>,
    converged: bool,
    witness_eats: [u32; 2],
    subject_eats: [u32; 2],
}

impl Harness {
    fn new(strict: bool) -> Self {
        Harness {
            witness: WitnessMachine::new(),
            subject: SubjectMachine::new(strict),
            w_phase: [DinerPhase::Thinking; 2],
            s_phase: [DinerPhase::Thinking; 2],
            pings: Vec::new(),
            acks: Vec::new(),
            converged: false,
            witness_eats: [0; 2],
            subject_eats: [0; 2],
        }
    }

    /// Executes one scheduler choice (mapped into the currently enabled
    /// options); returns false if nothing was enabled.
    fn step(&mut self, choice: u32) -> bool {
        // Enumerate options: witness actions, subject actions, deliveries,
        // grants, convergence.
        let mut options: Vec<u32> = Vec::new();
        let w_enabled = self.witness.enabled(self.w_phase);
        let s_enabled = self.subject.enabled(self.s_phase);
        for i in 0..w_enabled.len() {
            options.push(i as u32); // 0..: witness action i
        }
        for i in 0..s_enabled.len() {
            options.push(100 + i as u32);
        }
        for i in 0..self.pings.len() {
            options.push(200 + i as u32);
        }
        for i in 0..self.acks.len() {
            options.push(300 + i as u32);
        }
        for i in 0..2usize {
            if self.w_phase[i] == DinerPhase::Hungry
                && (!self.converged || self.s_phase[i] != DinerPhase::Eating)
            {
                options.push(400 + i as u32);
            }
            if self.s_phase[i] == DinerPhase::Hungry
                && (!self.converged || self.w_phase[i] != DinerPhase::Eating)
            {
                options.push(500 + i as u32);
            }
        }
        let overlap = (0..2).any(|i| {
            self.w_phase[i] == DinerPhase::Eating && self.s_phase[i] == DinerPhase::Eating
        });
        if !self.converged && !overlap {
            options.push(600);
        }
        if options.is_empty() {
            return false;
        }
        let pick = options[(choice as usize) % options.len()];
        match pick {
            0..=99 => {
                let a = w_enabled[pick as usize];
                match self.witness.fire(a, self.w_phase) {
                    Step::Hungry(i) => self.w_phase[i] = DinerPhase::Hungry,
                    Step::Exit(i) => self.w_phase[i] = DinerPhase::Thinking,
                    Step::Send(..) => unreachable!(),
                }
            }
            100..=199 => {
                let a = s_enabled[(pick - 100) as usize];
                match self.subject.fire(a, self.s_phase) {
                    Step::Hungry(i) => self.s_phase[i] = DinerPhase::Hungry,
                    Step::Exit(i) => self.s_phase[i] = DinerPhase::Thinking,
                    Step::Send(i, seq) => self.pings.push((i, seq)),
                }
            }
            200..=299 => {
                let (i, seq) = self.pings.remove((pick - 200) as usize);
                let Step::Send(i2, s2) = self.witness.on_ping(i, seq) else { unreachable!() };
                self.acks.push((i2, s2));
            }
            300..=399 => {
                let (i, seq) = self.acks.remove((pick - 300) as usize);
                self.subject.on_ack(i, seq);
            }
            400..=401 => {
                let i = (pick - 400) as usize;
                self.w_phase[i] = DinerPhase::Eating;
                self.witness_eats[i] += 1;
            }
            500..=501 => {
                let i = (pick - 500) as usize;
                self.s_phase[i] = DinerPhase::Eating;
                self.subject_eats[i] += 1;
            }
            600 => self.converged = true,
            other => panic!("bad pick {other}"),
        }
        true
    }

    /// The paper's safety lemmas as predicates on the harness state.
    fn check(&self) -> Result<(), String> {
        for i in 0..2 {
            // Lemma 2.
            if self.s_phase[i] != DinerPhase::Eating && !self.subject.ping_enabled(i) {
                return Err(format!("Lemma 2: s_{i} not eating, ping_{i} false"));
            }
            // Lemma 4.
            if self.s_phase[i] == DinerPhase::Hungry && self.subject.trigger() != i {
                return Err(format!("Lemma 4: s_{i} hungry, trigger {}", self.subject.trigger()));
            }
            // Lemma 3.
            if self.s_phase[i] != DinerPhase::Eating && self.subject.ping_enabled(i) {
                let transit = self.pings.iter().any(|&(j, _)| j == i)
                    || self.acks.iter().any(|&(j, _)| j == i);
                if transit {
                    return Err(format!("Lemma 3: DX_{i} message in transit"));
                }
            }
        }
        // Lemma 9.
        if self.w_phase[0] != DinerPhase::Thinking && self.w_phase[1] != DinerPhase::Thinking {
            return Err("Lemma 9: no witness thinking".to_string());
        }
        Ok(())
    }
}

#[allow(clippy::needless_range_loop)] // indices address parallel arrays
mod walks {
    use super::*;
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn safety_lemmas_hold_on_random_walks(
            strict in any::<bool>(),
            choices in prop::collection::vec(any::<u32>(), 0..400),
        ) {
            let mut h = Harness::new(strict);
            prop_assert!(h.check().is_ok());
            for &c in &choices {
                if !h.step(c) {
                    break;
                }
                if let Err(e) = h.check() {
                    prop_assert!(false, "{e} after {} steps", choices.len());
                }
            }
        }

        #[test]
        fn witness_turns_strictly_alternate(
            choices in prop::collection::vec(any::<u32>(), 0..600),
        ) {
            // Along any legal schedule, the order of witness eat-starts
            // alternates between the two instances (Lemma 12's shape).
            let mut h = Harness::new(false);
            let mut order: Vec<usize> = Vec::new();
            let mut last_counts = [0u32; 2];
            for &c in &choices {
                if !h.step(c) {
                    break;
                }
                for i in 0..2 {
                    if h.witness_eats[i] > last_counts[i] {
                        order.push(i);
                        last_counts[i] = h.witness_eats[i];
                    }
                }
            }
            prop_assert!(
                order.windows(2).all(|w| w[0] != w[1]),
                "witness eats did not alternate: {:?}", order
            );
        }

        #[test]
        fn subject_sessions_alternate_too(
            choices in prop::collection::vec(any::<u32>(), 0..600),
        ) {
            // Subjects hand off strictly: s_0, s_1, s_0, … (their sessions
            // overlap, but the *starts* alternate).
            let mut h = Harness::new(false);
            let mut order: Vec<usize> = Vec::new();
            let mut last_counts = [0u32; 2];
            for &c in &choices {
                if !h.step(c) {
                    break;
                }
                for i in 0..2 {
                    if h.subject_eats[i] > last_counts[i] {
                        order.push(i);
                        last_counts[i] = h.subject_eats[i];
                    }
                }
            }
            prop_assert!(
                order.windows(2).all(|w| w[0] != w[1]),
                "subject eats did not alternate: {:?}", order
            );
        }

        #[test]
        fn suspect_flips_only_at_witness_exits(
            choices in prop::collection::vec(any::<u32>(), 0..400),
        ) {
            // The output changes only when some witness exits an eating session
            // (action W_x) — never on pings alone.
            let mut h = Harness::new(false);
            let mut last = h.witness.suspects();
            let mut last_thinking = [true; 2];
            for &c in &choices {
                let before_phases = h.w_phase;
                if !h.step(c) {
                    break;
                }
                let now = h.witness.suspects();
                if now != last {
                    // Some witness moved Eating → Thinking in this step.
                    let exited = (0..2).any(|i| {
                        before_phases[i] == DinerPhase::Eating
                            && h.w_phase[i] == DinerPhase::Thinking
                    });
                    prop_assert!(exited, "output changed without a witness exit");
                }
                last = now;
                last_thinking = [h.w_phase[0] == DinerPhase::Thinking, h.w_phase[1] == DinerPhase::Thinking];
            }
            let _ = last_thinking;
        }
    }
}
