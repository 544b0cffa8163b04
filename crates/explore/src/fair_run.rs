//! Weakly-fair deterministic runs of the pair model — the liveness half of
//! the lemma suite.
//!
//! Exhaustive safety search cannot establish "infinitely often" claims, so
//! the liveness lemmas are checked on a deterministic schedule that is
//! weakly fair by construction: every round delivers all in-flight
//! messages, lets the subject fire all enabled actions, grants every
//! grantable endpoint (subject first), and lets the witness fire all enabled
//! actions. Over such runs the paper predicts:
//!
//! * **Lemma 7**: both subject threads eat over and over;
//! * **Lemma 11**: both witness threads eat over and over;
//! * **Lemma 12**: witness eating sessions strictly alternate `w_0, w_1, …`;
//! * **Theorem 2**: with a correct subject, after convergence the witness
//!   output stabilizes to *trust*;
//! * **Theorem 1**: after a crash, the output stabilizes to *suspect*.

use dinefd_core::machines::SubjectMutation;

use crate::pair_model::{ExploreConfig, ModelMutation, PairState, TransitionLabel};

/// Everything measured over one fair run.
#[derive(Clone, Debug)]
pub struct FairRunReport {
    /// Rounds executed.
    pub rounds: u32,
    /// Eating sessions started by each witness thread.
    pub witness_eats: [u32; 2],
    /// Eating sessions started by each subject thread.
    pub subject_eats: [u32; 2],
    /// Order in which witness threads started eating (instance indices).
    pub witness_eat_order: Vec<usize>,
    /// Suspicion output changes `(round, suspected)`.
    pub suspicion_changes: Vec<(u32, bool)>,
    /// Output at the end of the run.
    pub final_suspects: bool,
    /// Invariant violations observed along the way (must be empty).
    pub violations: Vec<String>,
}

impl FairRunReport {
    /// Whether witness sessions strictly alternate between the instances.
    pub fn witnesses_alternate(&self) -> bool {
        self.witness_eat_order.windows(2).all(|w| w[0] != w[1])
    }

    /// The round of the last suspicion change ([`u32::MAX`] if none).
    pub fn stabilized_at(&self) -> u32 {
        self.suspicion_changes.last().map_or(0, |&(r, _)| r)
    }
}

/// Fires the first enabled transition matching `pred`; returns whether one
/// fired.
fn fire_if(
    state: &mut PairState,
    cfg: &ExploreConfig,
    pred: impl Fn(TransitionLabel) -> bool,
) -> Option<TransitionLabel> {
    let label = state.find_label(cfg, pred)?;
    *state = state.apply(label, cfg);
    Some(label)
}

/// Runs the model for `rounds` weakly-fair rounds. `converge_at` injects the
/// ◇WX convergence; `crash_at` (optional) crashes the subject.
pub fn fair_run(
    rounds: u32,
    converge_at: u32,
    crash_at: Option<u32>,
    strict_seq: bool,
) -> FairRunReport {
    fair_run_mutated(
        rounds,
        converge_at,
        crash_at,
        strict_seq,
        SubjectMutation::None,
        ModelMutation::None,
    )
}

/// [`fair_run`] with seeded bugs: the liveness-side companion of the
/// mutation-testing suite. Safety-silent mutants (e.g. a dropped ping send)
/// betray themselves here as eventual wrongful suspicion or starved subject
/// threads.
pub fn fair_run_mutated(
    rounds: u32,
    converge_at: u32,
    crash_at: Option<u32>,
    strict_seq: bool,
    subject_mutation: SubjectMutation,
    model_mutation: ModelMutation,
) -> FairRunReport {
    let cfg = ExploreConfig {
        max_depth: 0,
        max_states: 0,
        strict_seq,
        allow_crash: true,
        start_converged: false,
        threads: 1,
        por: false,
        subject_mutation,
        model_mutation,
    };
    let mut state = PairState::initial(&cfg);
    let mut report = FairRunReport {
        rounds,
        witness_eats: [0; 2],
        subject_eats: [0; 2],
        witness_eat_order: Vec::new(),
        suspicion_changes: Vec::new(),
        final_suspects: true,
        violations: Vec::new(),
    };
    let mut last_suspect = state.witness.suspects();

    for round in 0..rounds {
        // 1. Drain the network (pings may generate acks; loop to fixpoint).
        for _ in 0..64 {
            let fired = fire_if(&mut state, &cfg, |l| {
                matches!(l, TransitionLabel::DeliverPing(_) | TransitionLabel::DeliverAck(_))
            });
            if fired.is_none() {
                break;
            }
        }
        // 2. Subject fires everything it can.
        for _ in 0..8 {
            if fire_if(&mut state, &cfg, |l| matches!(l, TransitionLabel::Subject(_))).is_none() {
                break;
            }
        }
        // 3. Grants: subject endpoints first, then witnesses.
        for i in 0..2 {
            if fire_if(&mut state, &cfg, |l| l == TransitionLabel::GrantSubject(i)).is_some() {
                report.subject_eats[i] += 1;
            }
        }
        for i in 0..2 {
            if fire_if(&mut state, &cfg, |l| l == TransitionLabel::GrantWitness(i)).is_some() {
                report.witness_eats[i] += 1;
                report.witness_eat_order.push(i);
            }
        }
        // 4. Witness fires everything it can.
        for _ in 0..8 {
            if fire_if(&mut state, &cfg, |l| matches!(l, TransitionLabel::Witness(_))).is_none() {
                break;
            }
        }
        // 5. Scheduled environment events.
        if round >= converge_at && !state.converged {
            let _ = fire_if(&mut state, &cfg, |l| l == TransitionLabel::Converge);
        }
        if crash_at == Some(round) {
            let _ = fire_if(&mut state, &cfg, |l| l == TransitionLabel::CrashSubject);
        }
        // Bookkeeping.
        let s = state.witness.suspects();
        if s != last_suspect {
            report.suspicion_changes.push((round, s));
            last_suspect = s;
        }
        for v in state.check_invariants() {
            report.violations.push(format!("round {round}: {v}"));
        }
    }
    report.final_suspects = state.witness.suspects();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_free_run_converges_to_trust() {
        for strict in [false, true] {
            let r = fair_run(400, 50, None, strict);
            assert!(r.violations.is_empty(), "violations: {:?}", r.violations);
            assert!(!r.final_suspects, "must trust a correct subject (strict={strict})");
            // Liveness lemmas: everyone eats repeatedly.
            assert!(r.witness_eats[0] > 5 && r.witness_eats[1] > 5, "{:?}", r.witness_eats);
            assert!(r.subject_eats[0] > 5 && r.subject_eats[1] > 5, "{:?}", r.subject_eats);
            // Lemma 12: witnesses alternate.
            assert!(r.witnesses_alternate(), "order: {:?}", r.witness_eat_order);
            // Theorem 2: finitely many mistakes, stabilization well before
            // the end.
            assert!(r.stabilized_at() < 300, "stabilized at {}", r.stabilized_at());
        }
    }

    #[test]
    fn crashed_subject_is_permanently_suspected() {
        for strict in [false, true] {
            let r = fair_run(400, 50, Some(120), strict);
            assert!(r.violations.is_empty(), "violations: {:?}", r.violations);
            assert!(r.final_suspects, "must suspect the crashed subject (strict={strict})");
            // And the last output change is to `suspected`.
            let last = r.suspicion_changes.last().copied();
            assert!(matches!(last, Some((_, true))), "changes: {:?}", r.suspicion_changes);
        }
    }

    #[test]
    fn early_crash_before_any_ping() {
        let r = fair_run(200, 20, Some(0), false);
        assert!(r.violations.is_empty());
        assert!(r.final_suspects);
        // Witness threads keep eating forever by wait-freedom.
        assert!(r.witness_eats[0] > 10 && r.witness_eats[1] > 10);
        // The crash lands at the end of round 0, after s_0's first grant;
        // s_1 never gets to eat.
        assert!(r.subject_eats[0] <= 1);
        assert_eq!(r.subject_eats[1], 0);
    }

    #[test]
    fn late_convergence_still_converges() {
        let r = fair_run(800, 500, None, false);
        assert!(r.violations.is_empty());
        assert!(!r.final_suspects);
        assert!(r.stabilized_at() >= 1, "some mistake phase expected");
    }

    #[test]
    fn mistake_count_is_finite_and_recorded() {
        let r = fair_run(600, 100, None, false);
        // The output starts suspected, so at least one change to trust.
        assert!(!r.suspicion_changes.is_empty());
        // After stabilization, no further changes — guaranteed by the check
        // that the last change round is well before the end combined with
        // final_suspects == false.
        assert!(!r.final_suspects);
    }
}
