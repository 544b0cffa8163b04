//! Adversarial schedules: scripted channel stalls, late convergence, crash
//! storms — the reduction must hold up everywhere the model allows.

use dinefd::prelude::*;
use dinefd::sim::net::ChannelStaller;
use std::sync::Arc;

#[test]
fn stalled_ping_channel_only_delays_convergence() {
    // The adversary holds every q→p message (pings, dining traffic from the
    // subject) until t=6000. The extracted detector may suspect q throughout
    // the stall — all mistakes — but must converge afterwards.
    let mut sc = Scenario::pair(BlackBox::WfDx, 71);
    sc.delays = DelayModel::Scripted(Arc::new(ChannelStaller {
        stalled: vec![(ProcessId(1), ProcessId(0))],
        release_at: Time(6_000),
        benign_hi: 8,
    }));
    sc.horizon = Time(50_000);
    let crashes = sc.crashes.clone();
    let res = run_extraction(sc);
    let acc = res.history.eventual_strong_accuracy(&crashes);
    assert!(acc.is_ok(), "accuracy after stall: {:?}", acc.err());
    let trusted_from = acc.unwrap()[0].trusted_from;
    assert!(
        trusted_from >= Time(5_000),
        "a 6000-tick stall cannot be trusted through: {trusted_from:?}"
    );
}

#[test]
fn stalled_ack_channel_is_symmetric() {
    // Holding p→q instead starves the subject's hand-off (no acks), which
    // stalls the subjects — the witness legitimately suspects until release.
    let mut sc = Scenario::pair(BlackBox::WfDx, 73);
    sc.delays = DelayModel::Scripted(Arc::new(ChannelStaller {
        stalled: vec![(ProcessId(0), ProcessId(1))],
        release_at: Time(6_000),
        benign_hi: 8,
    }));
    sc.horizon = Time(50_000);
    let crashes = sc.crashes.clone();
    let res = run_extraction(sc);
    assert!(res.history.eventual_strong_accuracy(&crashes).is_ok());
}

#[test]
fn crash_during_the_stall_is_still_detected() {
    let mut sc = Scenario::pair(BlackBox::WfDx, 79);
    sc.delays = DelayModel::Scripted(Arc::new(ChannelStaller {
        stalled: vec![(ProcessId(1), ProcessId(0))],
        release_at: Time(6_000),
        benign_hi: 8,
    }));
    sc.crashes = CrashPlan::one(ProcessId(1), Time(3_000)); // dies mid-stall
    sc.horizon = Time(50_000);
    let crashes = sc.crashes.clone();
    let res = run_extraction(sc);
    assert!(res.history.strong_completeness(&crashes).is_ok());
}

#[test]
fn very_late_black_box_convergence() {
    // The black box stays non-exclusive for most of the run; the extracted
    // detector converges only after it does — finitely many mistakes either
    // way.
    let mut sc = Scenario::pair(BlackBox::Delayed { convergence: Time(20_000) }, 83);
    sc.oracle = OracleSpec::Perfect { lag: 20 };
    sc.horizon = Time(80_000);
    let crashes = sc.crashes.clone();
    let res = run_extraction(sc);
    let acc = res.history.eventual_strong_accuracy(&crashes).unwrap();
    assert!(
        acc[0].trusted_from >= Time(10_000),
        "trust cannot stabilize long before the box converges: {:?}",
        acc[0].trusted_from
    );
}

#[test]
fn watcher_crash_leaves_system_consistent() {
    // The paper's Section 8 discussion: if the witness crashes, the subject
    // may eat forever in one instance — and that must not corrupt anything
    // (here: the run simply ends quiet; no panics, no illegal transitions).
    let mut sc = Scenario::all_pairs(3, BlackBox::WfDx, 89);
    sc.crashes = CrashPlan::one(ProcessId(0), Time(5_000)); // a watcher dies
    sc.horizon = Time(40_000);
    let crashes = sc.crashes.clone();
    let res = run_extraction(sc);
    // The surviving watchers' pairs still behave like ◇P.
    let acc = res.history.eventual_strong_accuracy(&crashes);
    assert!(acc.is_ok(), "{:?}", acc.err());
    let det = res.history.strong_completeness(&crashes);
    assert!(det.is_ok(), "{:?}", det.err());
}

#[test]
fn pair_timelines_stay_sane_under_harsh_delays() {
    let mut sc = Scenario::pair(BlackBox::WfDx, 97);
    sc.delays = DelayModel::harsh();
    sc.horizon = Time(40_000);
    let (res, trace) = record_extraction(sc);
    let tl = PairTimelines::collect(&trace, ProcessId(0), ProcessId(1), res.horizon);
    let w = tl.witness_session_count();
    let s = tl.subject_session_count();
    assert!(w[0] > 10 && w[1] > 10, "witness sessions: {w:?}");
    assert!(s[0] > 10 && s[1] > 10, "subject sessions: {s:?}");
    // Lemma 12's alternation implies the two witnesses' session counts can
    // differ by at most one.
    assert!(w[0].abs_diff(w[1]) <= 1, "witness counts unbalanced: {w:?}");
    assert!(s[0].abs_diff(s[1]) <= 1, "subject counts unbalanced: {s:?}");
    // Fig. 1 structure in the suffix.
    assert!(tl.handoff_violations(Time(8_000)).is_empty());
}
