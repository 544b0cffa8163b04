//! The benchmark checks itself: the timing adapters and the explorer
//! replica measure the product without changing what it does, and every run
//! emits exactly the metric names `BENCHMARK.json` promises.
//!
//! Everything here runs at `Size::Smoke`; smoke numbers are labelled
//! non-comparable in the results they produce.

use std::collections::BTreeSet;
use std::process::Command;
use std::time::Instant;

use dinefd_benchmark::measure::{run, RunConfig};
use dinefd_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use dinefd_benchmark::trace::LayerAcc;
use dinefd_benchmark::workloads::explore::{bfs_replica, replica_config};
use dinefd_benchmark::workloads::extract::{timed_nodes, world_config};
use dinefd_benchmark::workloads::Size;
use dinefd_core::{run_extraction, BlackBox, Scenario};
use dinefd_explore::explore_composed;
use dinefd_sim::{CrashPlan, ProcessId, ShardedWorld, Time, World};

fn scenario(shards: usize, threads: usize) -> Scenario {
    let mut sc = Scenario::all_pairs(5, BlackBox::WfDx, 77);
    sc.horizon = Time(4_000);
    sc.crashes = CrashPlan::one(ProcessId(4), Time(2_000));
    sc.shards = shards;
    sc.threads = threads;
    sc
}

/// A world of `Timed` nodes (timed dining participants and a timed oracle
/// inside them) exports the same `metrics_map()` as the bare world
/// `run_extraction` builds — on the classic engine and on the sharded one,
/// sequential and on two worker threads.
#[test]
fn timed_adapters_do_not_perturb_the_schedule() {
    for (shards, threads) in [(0, 1), (2, 1), (2, 2)] {
        let bare = run_extraction(scenario(shards, threads));

        let sc = scenario(shards, threads);
        let (host, dining, fd) = (LayerAcc::shared(), LayerAcc::shared(), LayerAcc::shared());
        let nodes = timed_nodes(&sc, &host, &dining, &fd);
        let cfg = world_config(&sc);
        let (steps, sent, metrics) = if shards == 0 {
            let mut world = World::new(nodes, cfg);
            world.run_until(sc.horizon);
            (world.steps(), world.messages_sent(), world.metrics_map())
        } else {
            let mut world = ShardedWorld::new(nodes, cfg, shards);
            world.run_until(sc.horizon);
            (world.steps(), world.messages_sent(), world.metrics_map())
        };

        let context = format!("shards={shards} threads={threads}");
        assert_eq!(metrics, bare.metrics, "{context}");
        assert_eq!((steps, sent), (bare.steps, bare.messages_sent), "{context}");
        // The adapters did see the run: one host call per step, and the
        // dining and oracle layers nested inside it.
        assert_eq!(host.count(), steps, "{context}");
        assert!(dining.count() > 0 && fd.count() > 0, "{context}");
        assert!(host.ns() >= dining.ns() && dining.ns() >= fd.ns(), "{context}");
    }
}

/// The breadth-first replica visits exactly the states and transitions the
/// engine reports, so its spans are spans of the engine's own work.
#[test]
fn bfs_replica_matches_the_engine() {
    for depth in [10, 14] {
        let cfg = replica_config(depth);
        let engine = explore_composed(&cfg);
        let replica = bfs_replica(&cfg);
        assert_eq!(replica.states, engine.states_visited as u64, "depth {depth}");
        assert_eq!(replica.transitions, engine.transitions, "depth {depth}");
        assert_eq!(replica.invariants.count(), replica.states, "depth {depth}");
        assert_eq!(replica.codec.count(), replica.transitions, "depth {depth}");
    }
}

fn names<'a>(it: impl Iterator<Item = &'a str>) -> BTreeSet<String> {
    it.map(str::to_string).collect()
}

/// Every workload's plain run emits every end-to-end metric, its traced run
/// every per-layer metric, under exactly the catalog's names and units —
/// and passes its own checks while doing so, which for a traced run include
/// "the traced assembly's deterministic counters equal the plain run's".
#[test]
fn every_catalog_metric_is_emitted_by_every_workload() {
    for w in &WORKLOADS {
        for traced in [false, true] {
            let cfg = RunConfig {
                workload: w.name.to_string(),
                seed: 7,
                seconds: 0.2,
                size: Size::Smoke,
                traced,
            };
            let (result, trace) = run(&cfg, Instant::now()).expect("catalog workloads run");
            assert!(result.correct, "{} traced={traced}: {:?}", w.name, result.failures);
            assert!(result.attempted >= 1, "{}", w.name);
            assert_eq!(result.size, "smoke");
            assert_eq!(trace.is_some(), traced);

            let emitted = names(result.metrics.keys().map(String::as_str));
            if traced {
                assert_eq!(emitted, names(PER_LAYER.iter().map(|m| m.name)), "{}", w.name);
                for m in &PER_LAYER {
                    assert_eq!(result.metrics[m.name].unit, m.unit, "{}", m.name);
                    let off_path = !m.workloads.contains(&w.name);
                    assert!(
                        !(off_path && result.metrics[m.name].value != 0.0),
                        "{}: {} is off its path yet non-zero",
                        w.name,
                        m.name
                    );
                }
                let trace = trace.expect("traced runs return a trace");
                assert_eq!(trace.workload, w.name);
                assert_eq!(trace.spans[0].parent, None);
                assert!(trace.spans.iter().skip(1).all(|s| s.parent.is_some()));
            } else {
                assert_eq!(emitted, names(END_TO_END.iter().map(|m| m.name)), "{}", w.name);
                for m in &END_TO_END {
                    let v = &result.metrics[m.name];
                    assert_eq!(v.unit, m.unit, "{}", m.name);
                    assert!(
                        v.value > 0.0 && v.value.is_finite(),
                        "{}: {} = {}",
                        w.name,
                        m.name,
                        v.value
                    );
                }
            }
        }
    }
}

/// The set driver takes each workload's result from the file its child
/// process writes. A child that dies before writing must fail the set, not
/// leave an earlier run's file to be reported in its place.
#[test]
fn a_child_that_leaves_no_result_fails_the_set() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("stale-result");
    let _ = std::fs::remove_dir_all(&out);
    let set = || {
        Command::new(env!("CARGO_BIN_EXE_dinefd-benchmark"))
            .args(["--smoke", "--seconds", "0.1", "--seed", "7", "--trace", "1", "--out"])
            .arg(&out)
            .output()
            .expect("the benchmark binary runs")
    };

    let first = set();
    assert!(first.status.success(), "{}", String::from_utf8_lossy(&first.stderr));
    let stale = out.join("run-extract_dense-traced.json");
    assert!(stale.is_file() && out.join("results-traced.json").is_file());

    // Same request again, but the first child cannot write its trace file
    // (a directory is in the way), so it exits before its results file.
    let trace = out.join("trace-extract_dense.json");
    std::fs::remove_file(&trace).expect("the first set wrote the trace");
    std::fs::create_dir(&trace).expect("the out dir is writable");
    let second = set();
    assert_eq!(second.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(stderr.contains("extract_dense") && stderr.contains("left no"), "{stderr}");
    assert!(!stale.exists(), "the earlier run's file was left in place");

    std::fs::remove_dir_all(&out).expect("cleaning up the out dir");
}
