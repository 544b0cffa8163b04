//! The banks' two ways of holding a diner run the same run.
//!
//! [`run_extraction`] stores the WF-◇WX engine of the `WfDx` and `Ftme`
//! black boxes inline in each slot record; every other black box, and every
//! harness that wraps a box to probe it, goes through
//! `Box<dyn DiningParticipant>` from [`factory_for`]. For both inline boxes,
//! at the two shapes the benchmark's extraction workloads run (smoke-sized),
//! the inline run and the boxed run of one scenario must agree on steps,
//! messages, the simulator's metric export and the extracted history.
//!
//! The layout is also what `node-resident bytes` reports; the last test
//! holds the inline figure to its budget per monitored pair.

use dinefd_core::scenario::{factory_for, run_extraction_over};
use dinefd_core::{run_extraction, BlackBox, ExtractionResult, OracleSpec, Scenario};
use dinefd_sim::{CrashPlan, ProcessId, Time};

/// `extract_dense`: all pairs, four shards asked for (one held, on one
/// thread), streaming, batched, under a ◇P oracle that errs once per pair
/// before half time.
fn dense(black_box: BlackBox, seed: u64) -> Scenario {
    let (n, horizon) = (12, 96);
    let mut sc = Scenario::all_pairs(n, black_box, seed);
    sc.horizon = Time(horizon);
    sc.crashes = CrashPlan::one(ProcessId::from_index(n - 1), Time(horizon / 2));
    sc.oracle = OracleSpec::DiamondP {
        lag: 20,
        convergence: Time(horizon / 2),
        max_mistakes: 1,
        max_len: 16,
    };
    sc.streaming = true;
    sc.batch_envelopes = true;
    sc.shards = 4;
    sc
}

/// `extract_long`: all pairs on one shard, extracted post hoc from the
/// trace.
fn long(black_box: BlackBox, seed: u64) -> Scenario {
    let (n, horizon) = (4, 6_000);
    let mut sc = Scenario::all_pairs(n, black_box, seed);
    sc.horizon = Time(horizon);
    sc.crashes = CrashPlan::one(ProcessId::from_index(n - 1), Time(horizon / 2));
    sc
}

/// A benchmark shape: the scenario for a black box and a seed.
type Shape = fn(BlackBox, u64) -> Scenario;

fn history_json(res: &ExtractionResult) -> String {
    serde_json::to_string(&res.history).expect("history serializes")
}

#[test]
fn inline_and_boxed_diners_run_the_same_run() {
    let shapes: [(&str, Shape); 2] = [("dense", dense), ("long", long)];
    for black_box in [BlackBox::WfDx, BlackBox::Ftme] {
        for (shape, scenario) in shapes {
            for seed in [42, 7] {
                let inline = run_extraction(scenario(black_box, seed));
                let boxed = run_extraction_over(scenario(black_box, seed), &factory_for(black_box));
                let run = format!("{black_box:?} {shape} seed {seed}");
                assert!(inline.steps > 0, "{run}: nothing ran");
                assert_eq!(
                    (inline.steps, inline.messages_sent, inline.trace.len()),
                    (boxed.steps, boxed.messages_sent, boxed.trace.len()),
                    "{run}: steps, messages, trace events"
                );
                assert_eq!(inline.metrics, boxed.metrics, "{run}: metric export");
                assert!(history_json(&inline) == history_json(&boxed), "{run}: histories differ");
                assert!(
                    inline.node_resident_bytes < boxed.node_resident_bytes,
                    "inline slots must be the smaller layout"
                );
            }
        }
    }
}

/// A witness slot of 160 bytes and a subject slot of 184 (two 72-byte
/// WF-◇WX engines each, inline), the peers beside them and the routing
/// tables: at most 360 bytes per monitored pair at n = 64.
#[test]
fn node_resident_bytes_per_pair_stay_within_budget() {
    let mut sc = Scenario::all_pairs(64, BlackBox::WfDx, 42);
    sc.horizon = Time(8);
    let pairs = (64 * 63) as u64;
    let per_pair = run_extraction(sc).node_resident_bytes / pairs;
    assert!(per_pair <= 360, "{per_pair} node-resident bytes per pair at n = 64 (budget 360)");
}
