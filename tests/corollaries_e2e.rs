//! End-to-end tests of the paper's secondary results: the Section 3
//! separation, the Section 8 fairness corollary, the Section 9
//! T-extraction, and the full stack (a heartbeat ◇P feeding the diner).

use dinefd::core::fairness::run_fair_over_extraction;
use dinefd::dining::driver::{run_full_stack, Workload};
use dinefd::dining::wfdx::WfDxDining;
use dinefd::dining::ConflictGraph;
use dinefd::prelude::*;

// ---------------- Section 3 ----------------

#[test]
fn section3_flawed_reduction_is_not_black_box() {
    let bb = BlackBox::Delayed { convergence: Time(1_500) };
    // The flawed construction keeps flapping forever…
    let flawed = run_flawed_pair(bb, 41, CrashPlan::none(), Time(30_000));
    assert!(
        flawed.eventual_strong_accuracy(&CrashPlan::none()).is_err(),
        "the flawed extractor should NOT satisfy ◇P accuracy on this box"
    );
    // …while the paper's reduction converges on the very same box.
    let mut sc = Scenario::pair(bb, 41);
    sc.oracle = OracleSpec::Perfect { lag: 20 };
    sc.horizon = Time(30_000);
    let crashes = sc.crashes.clone();
    let ours = run_extraction(sc);
    assert!(ours.history.eventual_strong_accuracy(&crashes).is_ok());
}

#[test]
fn section3_flawed_reduction_is_fine_on_the_friendly_box() {
    // On the abstract box the straggler blocks the watcher instead, so [8]'s
    // construction happens to work — the point is non-universality, not
    // universal failure.
    let bb = BlackBox::Abstract { convergence: Time(1_500) };
    let h = run_flawed_pair(bb, 43, CrashPlan::none(), Time(30_000));
    assert!(h.eventual_strong_accuracy(&CrashPlan::none()).is_ok());
    let h = run_flawed_pair(bb, 43, CrashPlan::one(ProcessId(1), Time(5_000)), Time(30_000));
    assert!(h.strong_completeness(&CrashPlan::one(ProcessId(1), Time(5_000))).is_ok());
}

// ---------------- Section 8 ----------------

#[test]
fn section8_fairness_pipeline_on_a_clique() {
    let graph = ConflictGraph::clique(3);
    let res = run_fair_over_extraction(
        &graph,
        BlackBox::WfDx,
        OracleSpec::DiamondP { lag: 20, convergence: Time(1_500), max_mistakes: 2, max_len: 100 },
        47,
        DelayModel::default_async(),
        CrashPlan::none(),
        Time(50_000),
        Workload::relaxed(),
    );
    assert!(res.extracted.eventual_strong_accuracy(&res.crashes).is_ok());
    assert!(res.dining.wait_freedom(&res.crashes, 10_000).is_ok());
    let converged = res.dining.wx_converged_from(&graph, &res.crashes);
    let k = res.dining.max_overtaking(&graph, &res.crashes, converged.max(Time(12_000)));
    assert!(k <= 3, "suffix overtaking {k}");
    // On a clique, eventual k-fairness makes the schedule eventually
    // near-round-robin: session counts should be broadly balanced.
    let counts: Vec<usize> = (0..3).map(|i| res.dining.session_count(ProcessId(i))).collect();
    let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
    assert!(*min * 3 >= *max, "unbalanced sessions: {counts:?}");
}

// ---------------- Section 9 ----------------

#[test]
fn section9_perpetual_wx_extracts_trusting_oracle() {
    let mut sc = Scenario::pair(BlackBox::Ftme, 53);
    sc.oracle = OracleSpec::Perfect { lag: 20 };
    sc.crashes = CrashPlan::one(ProcessId(1), Time(9_000));
    sc.horizon = Time(50_000);
    let crashes = sc.crashes.clone();
    let res = run_extraction(sc);
    assert!(
        res.history.trusting_accuracy(&crashes).is_ok(),
        "FTME extraction must satisfy T: {:?}",
        res.history.trusting_accuracy(&crashes).err()
    );
    assert!(res.history.strong_completeness(&crashes).is_ok());
    let classes = res.history.classify(&crashes);
    assert!(classes.contains(&OracleClass::Trusting), "classes: {classes:?}");
}

#[test]
fn section9_control_eventual_exclusion_does_not_give_t() {
    // Over a merely eventually-exclusive box, wrongful suspicions of the
    // live subject occur during the prefix, which violates T's trusting
    // accuracy (a trust→suspect of a live process) in typical runs.
    let mut violated = 0;
    for seed in [59u64, 60, 61, 62] {
        let mut sc = Scenario::pair(BlackBox::Abstract { convergence: Time(4_000) }, seed);
        sc.oracle = OracleSpec::Perfect { lag: 20 };
        sc.horizon = Time(40_000);
        let crashes = sc.crashes.clone();
        let res = run_extraction(sc);
        // Still ◇P…
        assert!(res.history.eventual_strong_accuracy(&crashes).is_ok());
        // …but usually not T.
        if res.history.trusting_accuracy(&crashes).is_err() {
            violated += 1;
        }
    }
    assert!(violated >= 2, "expected T violations on most seeds, got {violated}/4");
}

#[test]
fn section9_t_oracle_under_ftme_also_works() {
    // The black box itself driven by an injected *trusting* oracle whose
    // initial distrust ends before the crash.
    let mut sc = Scenario::pair(BlackBox::Ftme, 67);
    sc.oracle = OracleSpec::Trusting { lag: 20, trust_by: Time(800) };
    sc.crashes = CrashPlan::one(ProcessId(1), Time(9_000));
    sc.horizon = Time(50_000);
    let crashes = sc.crashes.clone();
    let res = run_extraction(sc);
    assert!(res.history.trusting_accuracy(&crashes).is_ok());
    assert!(res.history.strong_completeness(&crashes).is_ok());
}

// ---------------- Full stack ----------------

#[test]
fn full_stack_ring_with_crash() {
    let graph = ConflictGraph::ring(4);
    let res = run_full_stack(
        &graph,
        |p, nbrs| Box::new(WfDxDining::new(p, nbrs)),
        31,
        Time(3_000),
        CrashPlan::one(ProcessId(2), Time(8_000)),
        Time(80_000),
        Workload::relaxed(),
    );
    // The heartbeat layer is a genuine ◇P in this run…
    let classes = res.fd.classify(&res.crashes);
    assert!(classes.contains(&OracleClass::EventuallyPerfect), "fd classes: {classes:?}");
    // …so the dining layer above it is wait-free and eventually exclusive.
    assert!(res.dining.legal_transitions().is_ok());
    assert!(res.dining.wait_freedom(&res.crashes, 15_000).is_ok());
    let converged = res.dining.wx_converged_from(&graph, &res.crashes);
    assert!(converged < Time(60_000), "exclusion violations persist: {converged:?}");
    for p in res.crashes.correct(4) {
        assert!(res.dining.session_count(p) > 10, "{p} barely ate");
    }
}

/// `seed: meals / sessions of p0..p3 / heartbeat changes` of the full stack
/// (the ◇P fork diner over a heartbeat ◇P, GST at t = 15000) on a 4-ring
/// whose p2 crashes at t = 8000. A meal is a session the diner finished (a
/// return to thinking); a session is one it started. The late GST makes the
/// heartbeat err and repent before it stabilises, so the diner's re-check on
/// a cleared suspicion runs too.
const FULL_STACK_GOLDEN: &str = "\
31: 1404 1567 55 1494 / 1405 1567 56 1494 / 7
32: 1411 1550 53 1543 / 1412 1550 53 1543 / 7
";

#[test]
fn full_stack_eats_and_suspects_what_it_did() {
    let graph = ConflictGraph::ring(4);
    let mut rows = String::new();
    for seed in [31u64, 32] {
        let res = run_full_stack(
            &graph,
            |p, nbrs| Box::new(WfDxDining::new(p, nbrs)),
            seed,
            Time(15_000),
            CrashPlan::one(ProcessId(2), Time(8_000)),
            Time(40_000),
            Workload::busy(),
        );
        let per_process = |count: &dyn Fn(ProcessId) -> usize| {
            ProcessId::all(4).map(|p| count(p).to_string()).collect::<Vec<_>>().join(" ")
        };
        let meals = per_process(&|p| {
            res.dining.phase_intervals(p, DinerPhase::Thinking, &res.crashes).len()
        });
        let sessions = per_process(&|p| res.dining.session_count(p));
        rows += &format!("{seed}: {meals} / {sessions} / {}\n", res.fd.change_count());
    }
    assert_eq!(rows, FULL_STACK_GOLDEN);
}
