//! What the reduction and its two one-instance ablations extract, pinned.
//!
//! E2/E4/E5/E6/E9 print what `run_extraction`, `run_flawed_pair`,
//! `run_single_pair` and `run_fair_over_extraction` return, but emit only
//! `metric_keys`, so nothing else in CI holds these histories still. Every
//! row was recorded on the one simulator engine (per-sender delay streams,
//! canonical-key tie-break): same seeds, same black boxes, same extraction.

use std::sync::Arc;

use dinefd_core::scenario::factory_for;
use dinefd_core::{
    run_extraction, run_fair_over_extraction, run_flawed_pair, run_single_pair, BlackBox,
    OracleSpec, RedObs, Scenario, SingleDxNode,
};
use dinefd_dining::driver::Workload;
use dinefd_dining::participant::NoOracle;
use dinefd_dining::{ConflictGraph, DiningHistory};
use dinefd_fd::SuspicionHistory;
use dinefd_sim::{CrashPlan, DelayModel, ProcessId, Time, World, WorldConfig};

const HORIZON: Time = Time(40_000);

/// `extractor box seed crash: mistake_intervals(p0, p1), time of the last
/// output change, eventual strong accuracy holds, strong completeness holds`.
const GOLDEN: &str = "\
single abstract 3 none: 600 39954 true true
single abstract 3 p1@5000: 96 5020 true true
single abstract 4 none: 605 39957 true true
single abstract 4 p1@5000: 101 5002 true true
single abstract 5 none: 621 39987 false true
single abstract 5 p1@5000: 113 5020 true true
single delayed 3 none: 602 39993 false true
single delayed 3 p1@5000: 97 5020 true true
single delayed 4 none: 605 39957 true true
single delayed 4 p1@5000: 101 5002 true true
single delayed 5 none: 621 39987 false true
single delayed 5 p1@5000: 113 5020 true true
single unfair 3 none: 191 39729 false true
single unfair 3 p1@5000: 70 4888 true true
single unfair 4 none: 191 39647 false true
single unfair 4 p1@5000: 70 4999 true true
single unfair 5 none: 193 39905 false true
single unfair 5 p1@5000: 73 4978 true true
single wfdx 3 none: 577 39979 false true
single wfdx 3 p1@5000: 72 5020 true true
single wfdx 4 none: 597 39971 false true
single wfdx 4 p1@5000: 67 4999 true true
single wfdx 5 none: 600 39979 false true
single wfdx 5 p1@5000: 77 5020 true true
flawed abstract 3 none: 94 1509 true true
flawed abstract 3 p1@5000: 95 5020 true true
flawed abstract 4 none: 94 1511 true true
flawed abstract 4 p1@5000: 95 5020 true true
flawed abstract 5 none: 93 1500 true true
flawed abstract 5 p1@5000: 94 5020 true true
flawed delayed 3 none: 2500 39998 false true
flawed delayed 3 p1@5000: 313 5001 true true
flawed delayed 4 none: 2500 39997 false true
flawed delayed 4 p1@5000: 313 5003 true true
flawed delayed 5 none: 2500 39992 false true
flawed delayed 5 p1@5000: 313 4999 true true
flawed unfair 3 none: 94 1509 true true
flawed unfair 3 p1@5000: 95 5020 true true
flawed unfair 4 none: 94 1511 true true
flawed unfair 4 p1@5000: 95 5020 true true
flawed unfair 5 none: 93 1500 true true
flawed unfair 5 p1@5000: 94 5020 true true
flawed wfdx 3 none: 1 24 true true
flawed wfdx 3 p1@5000: 2 5020 true true
flawed wfdx 4 none: 1 31 true true
flawed wfdx 4 p1@5000: 2 5020 true true
flawed wfdx 5 none: 1 24 true true
flawed wfdx 5 p1@5000: 2 5020 true true
";

type Extractor = fn(BlackBox, u64, CrashPlan, Time) -> SuspicionHistory;

#[test]
fn the_ablations_extract_what_they_did_on_their_own_hosts() {
    let convergence = Time(1_500);
    let extractors: [(&str, Extractor); 2] =
        [("single", run_single_pair), ("flawed", run_flawed_pair)];
    let boxes = [
        ("abstract", BlackBox::Abstract { convergence }),
        ("delayed", BlackBox::Delayed { convergence }),
        ("unfair", BlackBox::Unfair { convergence }),
        ("wfdx", BlackBox::WfDx),
    ];
    let (p0, p1) = (ProcessId(0), ProcessId(1));
    let mut rows = String::new();
    for (ename, extractor) in extractors {
        for (bname, black_box) in boxes {
            for seed in [3u64, 4, 5] {
                for (cname, plan) in
                    [("none", CrashPlan::none()), ("p1@5000", CrashPlan::one(p1, Time(5_000)))]
                {
                    let h = extractor(black_box, seed, plan.clone(), HORIZON);
                    let last = h.timeline(p0, p1).changes().last().map_or(0, |&(t, _)| t.0);
                    rows += &format!(
                        "{ename} {bname} {seed} {cname}: {} {last} {} {}\n",
                        h.mistake_intervals(p0, p1),
                        h.eventual_strong_accuracy(&plan).is_ok(),
                        h.strong_completeness(&plan).is_ok(),
                    );
                }
            }
        }
    }
    assert_eq!(rows, GOLDEN);
}

/// The paper's own reduction over each of the six boxes, in the row format
/// of [`GOLDEN`] (`pair` names the two-instance extractor).
const PAIR_GOLDEN: &str = "\
pair wfdx 3 none: 14 1638 true true
pair wfdx 3 p1@5000: 15 5020 true true
pair wfdx 4 none: 5 987 true true
pair wfdx 4 p1@5000: 6 5020 true true
pair wfdx 5 none: 5 1692 true true
pair wfdx 5 p1@5000: 6 5020 true true
pair hygienic 3 none: 1 41 true true
pair hygienic 3 p1@5000: 1 41 true false
pair hygienic 4 none: 1 67 true true
pair hygienic 4 p1@5000: 1 67 true false
pair hygienic 5 none: 1 56 true true
pair hygienic 5 p1@5000: 1 56 true false
pair delayed 3 none: 46 1538 true true
pair delayed 3 p1@5000: 47 5020 true true
pair delayed 4 none: 45 1631 true true
pair delayed 4 p1@5000: 46 5020 true true
pair delayed 5 none: 45 1542 true true
pair delayed 5 p1@5000: 46 5020 true true
pair abstract 3 none: 46 1538 true true
pair abstract 3 p1@5000: 47 5020 true true
pair abstract 4 none: 43 1532 true true
pair abstract 4 p1@5000: 44 5020 true true
pair abstract 5 none: 45 1542 true true
pair abstract 5 p1@5000: 46 5020 true true
pair ftme 3 none: 14 1638 true true
pair ftme 3 p1@5000: 15 5020 true true
pair ftme 4 none: 5 987 true true
pair ftme 4 p1@5000: 6 5020 true true
pair ftme 5 none: 5 1692 true true
pair ftme 5 p1@5000: 6 5020 true true
pair unfair 3 none: 46 1538 true true
pair unfair 3 p1@5000: 47 5020 true true
pair unfair 4 none: 43 1532 true true
pair unfair 4 p1@5000: 44 5020 true true
pair unfair 5 none: 45 1542 true true
pair unfair 5 p1@5000: 46 5020 true true
";

#[test]
fn the_reduction_extracts_what_it_did_from_every_box() {
    let convergence = Time(1_500);
    let boxes = [
        ("wfdx", BlackBox::WfDx),
        ("hygienic", BlackBox::Hygienic),
        ("delayed", BlackBox::Delayed { convergence }),
        ("abstract", BlackBox::Abstract { convergence }),
        ("ftme", BlackBox::Ftme),
        ("unfair", BlackBox::Unfair { convergence }),
    ];
    let (p0, p1) = (ProcessId(0), ProcessId(1));
    let mut rows = String::new();
    for (bname, black_box) in boxes {
        for seed in [3u64, 4, 5] {
            for (cname, plan) in
                [("none", CrashPlan::none()), ("p1@5000", CrashPlan::one(p1, Time(5_000)))]
            {
                let mut sc = Scenario::pair(black_box, seed);
                sc.crashes = plan.clone();
                let h = run_extraction(sc).history;
                let last = h.timeline(p0, p1).changes().last().map_or(0, |&(t, _)| t.0);
                rows += &format!(
                    "pair {bname} {seed} {cname}: {} {last} {} {}\n",
                    h.mistake_intervals(p0, p1),
                    h.eventual_strong_accuracy(&plan).is_ok(),
                    h.strong_completeness(&plan).is_ok(),
                );
            }
        }
    }
    assert_eq!(rows, PAIR_GOLDEN);
}

/// `seed: meals of p0..p4 / suffix max overtaking` of the Section 8
/// pipeline (fair diner over the reduction over the ◇P fork box) on a
/// 5-ring, recorded alongside [`PAIR_GOLDEN`].
const FAIR_GOLDEN: &str = "\
21: 1071 1057 1066 1052 1051 / 3
22: 1062 1063 1069 1059 1053 / 3
";

#[test]
fn the_fair_pipeline_eats_what_it_did() {
    let graph = ConflictGraph::ring(5);
    let mut rows = String::new();
    for seed in [21u64, 22] {
        let res = run_fair_over_extraction(
            &graph,
            BlackBox::WfDx,
            OracleSpec::DiamondP {
                lag: 20,
                convergence: Time(1_500),
                max_mistakes: 2,
                max_len: 100,
            },
            seed,
            DelayModel::default_async(),
            CrashPlan::none(),
            HORIZON,
            Workload::busy(),
        );
        let meals: Vec<String> =
            ProcessId::all(5).map(|p| res.dining.session_count(p).to_string()).collect();
        let from = res.dining.wx_converged_from(&graph, &res.crashes).max(Time(10_000));
        let k = res.dining.max_overtaking(&graph, &res.crashes, from);
        rows += &format!("{seed}: {} / {k}\n", meals.join(" "));
    }
    assert_eq!(rows, FAIR_GOLDEN);
}

#[test]
fn a_single_instance_run_reports_every_phase_its_threads_cross() {
    // The Abstract box can grant inside `hungry()`: a host that reports only
    // the phase a call ends in shows thinking -> eating. One thread per
    // process here, so the process id names the thread.
    let pairs = [(ProcessId(0), ProcessId(1))];
    let factory = factory_for(BlackBox::Abstract { convergence: Time(1_500) });
    let nodes: Vec<SingleDxNode> = ProcessId::all(2)
        .map(|me| SingleDxNode::new(me, &pairs, &factory, Arc::new(NoOracle(2))))
        .collect();
    let mut world = World::new(nodes, WorldConfig::new(3));
    world.run_until(Time(5_000));
    let mut threads = DiningHistory::new(2);
    for (at, pid, obs) in world.trace().observations() {
        if let RedObs::DxPhase { phase, .. } = obs {
            threads.record(at, pid, *phase);
        }
    }
    assert!(threads.session_count(ProcessId(0)) > 10 && threads.session_count(ProcessId(1)) > 10);
    assert_eq!(threads.legal_transitions(), Ok(()));
}
