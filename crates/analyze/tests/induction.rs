//! The inductive checker's acceptance gates.
//!
//! Positive direction: the faithful configuration (and the strict-seq and
//! safety-*silent* mutated variants) must pass induction for every lemma
//! with **zero** CTIs — the strengthened invariants really are inductive.
//!
//! Negative direction (the mutation-detection gate): each safety-violating
//! seeded mutation must produce at least one CTI whose pre-state the
//! concrete explorer can actually reach — a *real* counterexample with a
//! replayable path, not an abstraction artifact.

use dinefd_analyze::induct::{run_induction, CtiClass, InductOptions, LEMMA_SPECS};
use dinefd_analyze::ir::IrConfig;
use dinefd_core::machines::SubjectMutation;
use dinefd_explore::ModelMutation;

/// Positions of the message-regime obligations in [`LEMMA_SPECS`], the
/// order a run's verdicts come in.
const LEMMA3: usize = 1;
const LEMMA4: usize = 2;

fn opts() -> InductOptions {
    InductOptions { keep_ctis: 4, classify: 1, ..InductOptions::default() }
}

#[test]
fn faithful_configuration_is_inductive_for_every_lemma() {
    let run = run_induction(&IrConfig::faithful(), &InductOptions { classify: 0, ..opts() });
    for v in &run.lemmas {
        assert!(
            v.inductive(),
            "{} not inductive: {} CTIs\n{}",
            v.lemma,
            v.cti_count,
            dinefd_analyze::induct::render_summary(&run)
        );
    }
    assert!(run.closure.ok(), "{:?}", run.closure.violations);
    assert_eq!(run.states_total, 3_359_232);
}

#[test]
fn strict_seq_configuration_is_inductive_for_every_lemma() {
    let cfg = IrConfig { strict_seq: true, ..IrConfig::faithful() };
    let run = run_induction(&cfg, &InductOptions { classify: 0, ..opts() });
    assert!(run.all_inductive(), "{}", dinefd_analyze::induct::render_summary(&run));
}

#[test]
fn safety_silent_mutations_pass_induction() {
    // DropPingSend loses liveness (the witness starves of pings) and
    // SkipTriggerUpdate freezes the trigger (no second session ever starts);
    // neither can violate a safety lemma, and the checker must not cry wolf.
    let silent = [
        IrConfig { model_mutation: ModelMutation::DropPingSend, ..IrConfig::faithful() },
        IrConfig { subject_mutation: SubjectMutation::SkipTriggerUpdate, ..IrConfig::faithful() },
    ];
    for cfg in silent {
        let run = run_induction(&cfg, &InductOptions { classify: 0, ..opts() });
        assert!(
            run.all_inductive(),
            "{cfg:?} flagged:\n{}",
            dinefd_analyze::induct::render_summary(&run)
        );
    }
}

/// Asserts that `cfg` fails induction for obligation `k` of [`LEMMA_SPECS`]
/// with a simplest CTI that classification proves **real** (reachable
/// pre-state).
fn assert_real_cti(cfg: IrConfig, k: usize) {
    let run = run_induction(&cfg, &opts());
    let (lemma, v) = (LEMMA_SPECS[k].name, &run.lemmas[k]);
    assert!(v.cti_count > 0, "{cfg:?}: expected {lemma} CTIs, got none");
    let cti = &v.ctis[0];
    match &cti.class {
        Some(CtiClass::Real { confirmed, .. }) => {
            assert!(
                *confirmed,
                "{cfg:?}: seeded replay from the CTI pre-state found no concrete violation"
            );
        }
        other => panic!(
            "{cfg:?}: simplest {lemma} CTI should be real, got {other:?}\n{}",
            dinefd_analyze::induct::render_summary(&run)
        ),
    }
}

#[test]
fn skip_ping_disable_yields_a_real_cti() {
    // Forgetting `ping_i ← false` leaves the ping token live while a DX_i
    // exchange is in flight: the R2 clause of the Lemma-3 cluster breaks.
    let cfg =
        IrConfig { subject_mutation: SubjectMutation::SkipPingDisable, ..IrConfig::faithful() };
    assert_real_cti(cfg, LEMMA3);
}

#[test]
fn ignore_trigger_guard_yields_a_real_cti() {
    // Skipping the `trigger = i` hungry-guard lets s_i go hungry in the
    // wrong regime: Lemma 4 breaks directly.
    let cfg =
        IrConfig { subject_mutation: SubjectMutation::IgnoreTriggerGuard, ..IrConfig::faithful() };
    assert_real_cti(cfg, LEMMA4);
}

#[test]
fn stale_ack_replay_yields_a_real_cti() {
    // A replayed ack makes two DX_i messages coexist: the R1
    // (single-message-regime) clause breaks.
    let cfg = IrConfig { model_mutation: ModelMutation::StaleAckReplay, ..IrConfig::faithful() };
    assert_real_cti(cfg, LEMMA3);
}
