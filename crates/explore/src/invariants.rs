//! The lemma messages of the explorer's models and the fuzzer.
//!
//! The safety lemmas are stated once, as clauses of the protocol text
//! ([`clause_at`], [`closure_step_faults`] and the closure they start from,
//! all in [`dinefd_core::protocol`]). A model checks a state by evaluating
//! them under [`Concrete`] on an [`AbsState`] view of it — the pair model's
//! view is [`abstract_of`](crate::abstract_of) — and this module only names
//! what fails: a failing (clause, instance) pair maps to one message, in
//! report order (per instance Lemma 2, Lemma 4, Lemma 3 and exclusion
//! soundness, then Lemma 9), and each closure-step fault to one more. The
//! verdict comes first and a clean state formats nothing. The strings
//! are part of the repo's stable surface (the seeded-bug suite and the
//! BENCH baselines grep for them), so they are produced here and nowhere
//! else.

use dinefd_core::protocol::{
    clause, clause_at, closure_step_faults, in_closure, AbsState, Clause, Concrete,
};

/// The per-instance clauses the pair model reports, in report order.
pub(crate) const PAIR_CLAUSES: &[Clause] = &[Clause::L2, Clause::L4, Clause::L3, Clause::Excl];

/// The composed model's: it has no convergence point, so no exclusion
/// soundness clause (its fork and token checks stand in for it).
pub(crate) const COMPOSED_CLAUSES: &[Clause] = &[Clause::L2, Clause::L4, Clause::L3];

/// One message per violation in `s`: each of `per_instance` at each
/// instance, then Lemma 9. The verdict comes first: a state where every
/// clause holds formats nothing.
#[inline]
pub(crate) fn state_violations(s: &AbsState, per_instance: &[Clause]) -> Vec<String> {
    let a = &mut Concrete::default();
    let mut holds = clause(a, s, Clause::L9);
    for &c in per_instance {
        holds &= clause(a, s, c);
    }
    if holds {
        return Vec::new();
    }
    messages(s, per_instance)
}

#[cold]
fn messages(s: &AbsState, per_instance: &[Clause]) -> Vec<String> {
    let a = &mut Concrete::default();
    let mut out = Vec::new();
    for i in 0..2 {
        for &c in per_instance.iter().filter(|&&c| !clause_at(a, s, c, i)) {
            out.push(match c {
                Clause::L2 => format!("Lemma 2 violated: s_{i} not eating but ping_{i} = false"),
                Clause::L4 => format!("Lemma 4 violated: s_{i} hungry but trigger = {}", s.trigger),
                Clause::L3 => format!(
                    "Lemma 3 violated: s_{i} not eating, ping_{i} = true, \
                     yet a DX_{i} message is in transit"
                ),
                Clause::Excl => {
                    format!("model soundness violated: DX_{i} overlap after convergence")
                }
                c => format!("{} violated at DX_{i}", c.name()),
            });
        }
    }
    if !clause(a, s, Clause::L9) {
        out.push(format!("Lemma 9 violated: w_0 = {}, w_1 = {}", s.w_phase[0], s.w_phase[1]));
    }
    out
}

/// The message of a step between states whose views are `pre` and `post`,
/// if `pre` lies in the Theorem-1 closure and the step breaks the
/// completeness argument.
#[inline]
pub(crate) fn closure_step_violation(pre: &AbsState, post: &AbsState) -> Option<String> {
    let a = &mut Concrete::default();
    if !in_closure(a, pre) {
        return None;
    }
    match closure_step_faults(a, pre, post) {
        [true, _] => Some("completeness closure not invariant".to_string()),
        [_, true] => Some("suspicion of crashed q regressed to trust".to_string()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use crate::pair_model::{ExploreConfig, PairState};
    use dinefd_core::machines::SubjectMachine;
    use dinefd_dining::DinerPhase;

    #[test]
    fn initial_state_is_clean() {
        let s = PairState::initial(&ExploreConfig::default());
        assert!(s.check_invariants().is_empty());
    }

    #[test]
    fn each_violation_yields_exactly_one_message() {
        let cfg = ExploreConfig::default();
        // Lemma 9: both witnesses out of thinking.
        let mut s = PairState::initial(&cfg);
        s.w_phase = [DinerPhase::Eating, DinerPhase::Hungry];
        assert_eq!(s.check_invariants(), ["Lemma 9 violated: w_0 = eating, w_1 = hungry"]);

        // Lemma 4: s_1 hungry while the trigger points at 0.
        let mut s = PairState::initial(&cfg);
        s.s_phase[1] = DinerPhase::Hungry;
        assert_eq!(s.check_invariants(), ["Lemma 4 violated: s_1 hungry but trigger = 0"]);

        // Lemma 3: a stray DX_0 ping while s_0 thinks with ping_0 = true.
        let mut s = PairState::initial(&cfg);
        s.pings.push((0, 1));
        let out = s.check_invariants();
        assert_eq!(out.len(), 1);
        assert!(out[0].starts_with("Lemma 3 violated: s_0 "), "{out:?}");
    }

    #[test]
    fn messages_come_per_instance_then_lemma_9() {
        let cfg = ExploreConfig::default();
        let mut s = PairState::initial(&cfg);
        s.subject = SubjectMachine::from_parts(1, [true, true], [1, 0], false, Default::default());
        s.w_phase = [DinerPhase::Eating, DinerPhase::Eating];
        s.s_phase = [DinerPhase::Hungry, DinerPhase::Eating];
        s.converged = true;
        s.acks.push((0, 1));
        let out = s.check_invariants();
        let heads: Vec<&str> = out.iter().map(|m| m.split(':').next().unwrap_or("")).collect();
        assert_eq!(
            heads,
            [
                "Lemma 4 violated",
                "Lemma 3 violated",
                "model soundness violated",
                "Lemma 9 violated"
            ],
        );
        assert_eq!(out[0], "Lemma 4 violated: s_0 hungry but trigger = 1");
    }

    #[test]
    fn crash_vacates_the_subject_side_lemmas() {
        let cfg = ExploreConfig::default();
        let mut s = PairState::initial(&cfg);
        s.crashed = true;
        s.s_phase[1] = DinerPhase::Hungry; // would break Lemma 4 if live
        assert!(s.check_invariants().is_empty());
    }
}
