//! Differential guarantees of extraction's one fold.
//!
//! 1. **The online fold ≡ its replay**: the per-shard
//!    [`dinefd_core::HistorySink`]s of [`run_extraction`], merged, must
//!    produce a [`SuspicionHistory`] byte-identical (serde_json) to
//!    replaying [`record_extraction`]'s recorded observations through one
//!    fold ([`suspicion_history`]) — at 1, 2 and 4 threads, across a seed ×
//!    black-box × delay-model matrix and under random scenarios (proptest).
//! 2. **Envelope batching is an encoding, not a semantics change**: with a
//!    fixed delay model (the only regime where batching draws the same
//!    delays as unbatched sends), batching on/off yields identical per-pair
//!    observation sequences and identical extracted histories. Under
//!    stochastic models batching consumes fewer RNG draws, so schedules
//!    legitimately differ; the deterministic metrics still account for
//!    every message.

use dinefd_core::{
    record_extraction, run_extraction, suspicion_history, BlackBox, RedObs, Scenario,
};
use dinefd_fd::SuspicionHistory;
use dinefd_sim::{CrashPlan, DelayModel, ProcessId, Time, Trace};
use proptest::prelude::*;

fn json(h: &SuspicionHistory) -> String {
    serde_json::to_string(h).expect("history serializes")
}

fn delay_model(kind: u8) -> DelayModel {
    match kind % 4 {
        0 => DelayModel::default_async(),
        1 => DelayModel::harsh(),
        2 => DelayModel::Fixed(3),
        _ => DelayModel::partially_synchronous(Time(5_000), 8),
    }
}

fn black_box(kind: u8) -> BlackBox {
    match kind % 3 {
        0 => BlackBox::WfDx,
        1 => BlackBox::Abstract { convergence: Time(2_500) },
        _ => BlackBox::Delayed { convergence: Time(2_500) },
    }
}

/// One scenario, built twice identically except for the toggle.
fn scenario(bb: u8, delays: u8, seed: u64, crash: bool, batch: bool) -> Scenario {
    let mut sc = Scenario::pair(black_box(bb), seed);
    sc.delays = delay_model(delays);
    if crash {
        sc.crashes = CrashPlan::one(ProcessId(1), Time(9_000));
    }
    sc.horizon = Time(25_000);
    sc.batch_envelopes = batch;
    sc
}

/// Runs `make`'s scenario recorded once and online at 1, 2 and 4 threads,
/// and checks that every online fold is the recording's replay: the same
/// history byte for byte and the same schedule (a sink never perturbs it).
/// Recorded at 2 and 4 threads too, the shards' recordings joined by
/// `Trace::merge` are the one-thread recording, event for event.
fn assert_online_fold_is_the_replay(make: impl Fn() -> Scenario, what: &str) {
    let pairs = make().pairs;
    let (recorded, trace) = record_extraction(make());
    assert!(trace.observations().count() > 0, "{what}: the recording holds observations");
    let replayed = json(&suspicion_history(recorded.n, &trace, &pairs));
    let events = format!("{:?}", trace.events());
    for threads in [1, 2, 4] {
        let mut sc = make();
        sc.threads = threads;
        let online = run_extraction(sc);
        assert_eq!(json(&online.history), replayed, "{what} threads={threads}");
        assert_eq!(online.metrics, recorded.metrics, "{what} threads={threads}");
        assert_eq!(online.steps, recorded.steps, "{what} threads={threads}");
        assert_eq!(online.history_changes, recorded.history_changes);
        if threads > 1 {
            let mut sc = make();
            sc.threads = threads;
            let (merged, merged_trace) = record_extraction(sc);
            assert_eq!(json(&merged.history), replayed, "{what} recorded threads={threads}");
            let merged_events = format!("{:?}", merged_trace.events());
            assert_eq!(merged_events, events, "{what} recorded threads={threads}");
        }
    }
}

#[test]
fn online_fold_matches_the_replay_of_its_recording_across_matrix() {
    for bb in 0..3u8 {
        for delays in 0..4u8 {
            for (seed, crash) in [(11u64, false), (42, true)] {
                let what = format!("bb={bb} delays={delays} seed={seed} crash={crash}");
                assert_online_fold_is_the_replay(
                    || scenario(bb, delays, seed, crash, false),
                    &what,
                );
            }
        }
    }
}

/// Observation sequences `(at, watcher, obs)` of a recording, in the merged
/// recording's `(at, pid)` order.
fn obs_sequences(trace: &Trace<RedObs>) -> Vec<(Time, ProcessId, RedObs)> {
    trace.observations().map(|(at, pid, obs)| (at, pid, *obs)).collect()
}

#[test]
fn envelope_batching_preserves_observation_sequences_under_fixed_delays() {
    for bb in 0..3u8 {
        for (seed, crash) in [(7u64, false), (23, true)] {
            let mut plain = scenario(bb, 2, seed, crash, false);
            let mut batched = scenario(bb, 2, seed, crash, true);
            assert!(matches!(plain.delays, DelayModel::Fixed(_)));
            plain.horizon = Time(20_000);
            batched.horizon = Time(20_000);
            let (plain, plain_trace) = record_extraction(plain);
            let (batched, batched_trace) = record_extraction(batched);
            assert_eq!(
                obs_sequences(&plain_trace),
                obs_sequences(&batched_trace),
                "bb={bb} seed={seed} crash={crash}"
            );
            assert_eq!(json(&plain.history), json(&batched.history));
            // Batching coalesced something (the reduction fans out to a peer
            // in bursts) and accounted for every message.
            assert!(batched.metrics["envelopes_sent"] <= batched.metrics["messages_sent"]);
            assert_eq!(
                batched.metrics["envelope_occupancy.count"],
                batched.metrics["envelopes_sent"]
            );
            assert_eq!(batched.metrics["messages_sent"], plain.metrics["messages_sent"]);
        }
    }
}

#[test]
fn envelope_batching_accounts_for_all_messages_under_stochastic_delays() {
    // Schedules differ under stochastic models (fewer delay draws), but the
    // envelope accounting invariants must still hold, and extraction must
    // still converge to a well-formed history.
    let res = run_extraction(scenario(0, 0, 99, false, true));
    assert!(res.metrics["envelopes_sent"] > 0);
    assert!(res.metrics["envelopes_sent"] <= res.metrics["messages_sent"]);
    assert_eq!(res.metrics["envelope_occupancy.count"], res.metrics["envelopes_sent"]);
    assert_eq!(res.metrics["envelope_occupancy.sum"], res.metrics["messages_sent"]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The online per-shard fold equals the replay of the recording on
    /// random scenarios, at 1, 2 and 4 threads.
    #[test]
    fn online_fold_equals_the_replay_on_random_scenarios(
        bb in 0u8..3,
        delays in 0u8..4,
        seed in any::<u64>(),
        crash in any::<bool>(),
        strict in any::<bool>(),
    ) {
        let make = || {
            let mut sc = scenario(bb, delays, seed, crash, false);
            sc.strict_seq = strict;
            sc.horizon = Time(12_000);
            sc
        };
        assert_online_fold_is_the_replay(make, "random scenario");
    }

    /// Satellite: batching on/off yields identical per-pair observation
    /// sequences (fixed delays: same draws either way).
    #[test]
    fn batching_equivalence_on_random_fixed_delay_scenarios(
        bb in 0u8..3,
        seed in any::<u64>(),
        crash in any::<bool>(),
    ) {
        let mut a = scenario(bb, 2, seed, crash, false);
        let mut b = scenario(bb, 2, seed, crash, true);
        a.horizon = Time(12_000);
        b.horizon = Time(12_000);
        let (plain, plain_trace) = record_extraction(a);
        let (batched, batched_trace) = record_extraction(b);
        prop_assert_eq!(obs_sequences(&plain_trace), obs_sequences(&batched_trace));
        prop_assert_eq!(json(&plain.history), json(&batched.history));
    }
}
