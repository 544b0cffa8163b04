//! The paper's safety-lemma predicates, stated over an [`InvariantView`] of
//! the concrete [`PairState`](crate::pair_model::PairState): the bounded
//! explorer ([`crate::search`]) and the schedule fuzzer evaluate them on
//! states with explicit in-flight message multisets.
//!
//! These are the explorer's *own* oracle. The inductive checker
//! (`dinefd-analyze`) states the same lemmas independently, as clauses over
//! its abstract IR, and its conformance suite compares the two along
//! concrete walks. The message strings are part of the repo's stable
//! surface (the seeded-bug suite and the BENCH baselines grep for them), so
//! they are produced here and nowhere else.

use dinefd_dining::DinerPhase;

/// The projection of a model state that the safety lemmas talk about.
///
/// `i` is always a dining-instance index (`0` or `1`). Implementations must
/// answer from the *current* state only — the predicates are state
/// predicates, not history predicates.
pub trait InvariantView {
    /// Phase of witness thread `w_i` in `DX_i`.
    fn w_phase(&self, i: usize) -> DinerPhase;
    /// Phase of subject thread `s_i` in `DX_i`.
    fn s_phase(&self, i: usize) -> DinerPhase;
    /// Alg. 2's `ping_i` flag.
    fn ping_enabled(&self, i: usize) -> bool;
    /// Alg. 2's `trigger` variable.
    fn trigger(&self) -> usize;
    /// Whether the subject process `q` has crashed.
    fn crashed(&self) -> bool;
    /// Whether ◇WX's exclusive suffix has begun.
    fn converged(&self) -> bool;
    /// Whether any ping *or* ack of `DX_i` is in transit.
    fn dx_in_transit(&self, i: usize) -> bool;
    /// Whether any ping (of either instance) is in transit.
    fn pings_in_transit(&self) -> bool;
    /// Alg. 1's `haveping_i` flag at the witness.
    fn haveping(&self, i: usize) -> bool;
    /// The witness's current output (does `p` suspect `q`?).
    fn suspects(&self) -> bool;
}

/// Lemma 2: `(s_i.state ≠ eating) ⇒ ping_i` (vacuous once `q` crashed —
/// the corpse's frozen local state is no longer constrained).
pub fn lemma2_holds<V: InvariantView>(v: &V) -> bool {
    (0..2).all(|i| v.crashed() || v.s_phase(i) == DinerPhase::Eating || v.ping_enabled(i))
}

/// Lemma 3: `(s_i ≠ eating ∧ ping_i) ⇒ no DX_i message in transit`.
pub fn lemma3_holds<V: InvariantView>(v: &V) -> bool {
    (0..2).all(|i| {
        v.crashed()
            || v.s_phase(i) == DinerPhase::Eating
            || !v.ping_enabled(i)
            || !v.dx_in_transit(i)
    })
}

/// Lemma 4: `(s_i.state = hungry) ⇒ trigger = i`.
pub fn lemma4_holds<V: InvariantView>(v: &V) -> bool {
    (0..2).all(|i| v.crashed() || v.s_phase(i) != DinerPhase::Hungry || v.trigger() == i)
}

/// Lemma 9: some witness thread is thinking.
pub fn lemma9_holds<V: InvariantView>(v: &V) -> bool {
    v.w_phase(0) == DinerPhase::Thinking || v.w_phase(1) == DinerPhase::Thinking
}

/// Model soundness: after convergence the two *live* endpoints of an
/// instance never eat simultaneously (◇WX's exclusive suffix).
pub fn exclusion_holds<V: InvariantView>(v: &V) -> bool {
    (0..2).all(|i| {
        !v.converged()
            || v.crashed()
            || !(v.w_phase(i) == DinerPhase::Eating && v.s_phase(i) == DinerPhase::Eating)
    })
}

/// Membership in the Theorem-1 closure set: `q` crashed, no pings in
/// flight, no banked ping.
pub fn in_completeness_closure<V: InvariantView>(v: &V) -> bool {
    v.crashed() && !v.pings_in_transit() && !v.haveping(0) && !v.haveping(1)
}

/// Evaluates every state-level lemma on `v`, appending one human-readable
/// message per violation (the strings the seeded-bug suite and the BENCH
/// baselines key on).
pub fn check_state<V: InvariantView>(v: &V, out: &mut Vec<String>) {
    for i in 0..2 {
        if !v.crashed() && v.s_phase(i) != DinerPhase::Eating && !v.ping_enabled(i) {
            out.push(format!("Lemma 2 violated: s_{i} not eating but ping_{i} = false"));
        }
        if !v.crashed() && v.s_phase(i) == DinerPhase::Hungry && v.trigger() != i {
            out.push(format!("Lemma 4 violated: s_{i} hungry but trigger = {}", v.trigger()));
        }
        if !v.crashed()
            && v.s_phase(i) != DinerPhase::Eating
            && v.ping_enabled(i)
            && v.dx_in_transit(i)
        {
            out.push(format!(
                "Lemma 3 violated: s_{i} not eating, ping_{i} = true, \
                 yet a DX_{i} message is in transit"
            ));
        }
        if v.converged()
            && !v.crashed()
            && v.w_phase(i) == DinerPhase::Eating
            && v.s_phase(i) == DinerPhase::Eating
        {
            out.push(format!("model soundness violated: DX_{i} overlap after convergence"));
        }
    }
    if !lemma9_holds(v) {
        out.push(format!("Lemma 9 violated: w_0 = {}, w_1 = {}", v.w_phase(0), v.w_phase(1)));
    }
}

/// Transition-level check for the Theorem-1 closure: from a closure state,
/// every successor stays in the closure and suspicion is monotone. Returns
/// the violation message, if any.
pub fn check_closure_step<V: InvariantView>(pre: &V, post: &V) -> Option<String> {
    if !in_completeness_closure(pre) {
        return None;
    }
    if !in_completeness_closure(post) {
        return Some("completeness closure not invariant".to_string());
    }
    if pre.suspects() && !post.suspects() {
        return Some("suspicion of crashed q regressed to trust".to_string());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair_model::{ExploreConfig, PairState};

    #[test]
    fn predicates_agree_with_check_state_on_initial() {
        let s = PairState::initial(&ExploreConfig::default());
        assert!(lemma2_holds(&s));
        assert!(lemma3_holds(&s));
        assert!(lemma4_holds(&s));
        assert!(lemma9_holds(&s));
        assert!(exclusion_holds(&s));
        let mut out = Vec::new();
        check_state(&s, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn each_violation_message_maps_to_exactly_one_false_predicate() {
        let cfg = ExploreConfig::default();
        // Lemma 9: both witnesses out of thinking.
        let mut s = PairState::initial(&cfg);
        s.w_phase = [DinerPhase::Eating, DinerPhase::Hungry];
        assert!(!lemma9_holds(&s));
        let mut out = Vec::new();
        check_state(&s, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].starts_with("Lemma 9 violated"), "{out:?}");

        // Lemma 4: s_1 hungry while the trigger points at 0.
        let mut s = PairState::initial(&cfg);
        s.s_phase[1] = DinerPhase::Hungry;
        assert!(!lemma4_holds(&s));
        let mut out = Vec::new();
        check_state(&s, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].starts_with("Lemma 4 violated"), "{out:?}");

        // Lemma 3: a stray DX_0 ping while s_0 thinks with ping_0 = true.
        let mut s = PairState::initial(&cfg);
        s.pings.push((0, 1));
        assert!(!lemma3_holds(&s));
        let mut out = Vec::new();
        check_state(&s, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].starts_with("Lemma 3 violated"), "{out:?}");
    }

    #[test]
    fn crash_vacates_the_subject_side_lemmas() {
        let cfg = ExploreConfig::default();
        let mut s = PairState::initial(&cfg);
        s.crashed = true;
        s.s_phase[1] = DinerPhase::Hungry; // would break Lemma 4 if live
        assert!(lemma4_holds(&s));
        let mut out = Vec::new();
        check_state(&s, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
