//! The benchmark's vocabulary: every workload and metric name, with units,
//! directions and regression bounds. `BENCHMARK.json` at the repository root
//! is this catalog written out; a test keeps the two identical (and prints
//! the file to write when they are not), so later issues can quote names
//! from either.

/// How long one run measures, in seconds (`run_seconds` of `BENCHMARK.json`
/// and the default of `--seconds`).
pub const RUN_SECONDS: u64 = 15;

/// One workload: its name, the operation its throughput counts, and why it
/// is in the set.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// What one operation is.
    pub op: &'static str,
    /// Why the workload exists (one line, ≤ 200 characters).
    pub why: &'static str,
}

/// The six workloads, in the order the full set runs them.
pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "extract_dense",
        op: "simulator step",
        why: "n=64 all-pairs extraction on the sharded streaming engine: 4k pairs, 5k-deep \
              queue, 36 MiB resident, far beyond the caches; the n-squared regime of queue, merge and banks",
    },
    WorkloadSpec {
        name: "extract_long",
        op: "simulator step",
        why: "n=8 extraction over a 50k-tick horizon on the classic engine with post-hoc \
              extraction: cache-resident state, the other engine twin, trace recording",
    },
    WorkloadSpec {
        name: "explore_composed",
        op: "distinct state",
        why: "exhaustive composed-model search to depth 18 (596,688 states): successor \
              generation, state codec and visited store with no simulator involved",
    },
    WorkloadSpec {
        name: "fuzz_pair",
        op: "schedule execution",
        why: "coverage-guided fuzzing of six pair-model configs, sixteen campaigns each: pair successors \
              and fingerprints, no visited store; corpus is the bottleneck on one config, idle on another",
    },
    WorkloadSpec {
        name: "analyze_sweep",
        op: "verdict run",
        why: "lints and SAT k-induction over 8 configs at wire caps 2 and 8, depths 1 and 8, then the \
              explicit enumerator on a mutant, about half the time each, so either engine regressing shows",
    },
    WorkloadSpec {
        name: "live_soak",
        op: "frame delivered",
        why: "back-to-back 500 ms trials of an 8-process heartbeat cluster on real threads and loopback \
              TCP, open loop at 56 links x 250 Hz, one crash per trial: the only workload on sockets",
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `second` is than `first`, as a share of `first`
    /// (negative when it is better).
    pub fn worsening(self, first: f64, second: f64) -> f64 {
        let change = (second - first) / first.abs();
        match self {
            Better::Lower => change,
            Better::Higher => -change,
        }
    }
}

/// An end-to-end metric: what a user of the system would see.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics every workload reports:
///
/// * `setup_s` — median over the set-up passes of input generation plus one
///   untimed warm-up repetition (the first pass is measured from process
///   start);
/// * `throughput_ops_s` — operations per second of wall time in the fastest
///   timed repetition, serial;
/// * `cpu_us_per_op` — process CPU time (user + system, all threads) per
///   operation in the cheapest timed repetition;
/// * `peak_rss_mib` — `VmHWM` of the workload's process when it ends.
///
/// The bounds sit above this host's measured run-to-run spread (see the
/// README); `setup_s` carries the largest, as the contract asks.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "throughput_ops_s", unit: "ops/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "cpu_us_per_op", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: Better::Lower, bound: 0.10 },
];

/// A metric of one layer, reported by the traced run. No bound: layer
/// numbers explain an end-to-end change, they do not gate one.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// Name, `layer.component.quantity`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The workloads whose traced run measures it (it reads 0 elsewhere).
    pub workloads: &'static [&'static str],
    /// The end-to-end metric it is expected to move on those workloads.
    pub moves: &'static str,
}

const DENSE: &[&str] = &["extract_dense"];
const LONG: &[&str] = &["extract_long"];
const EXTRACT: &[&str] = &["extract_dense", "extract_long"];
const EXPLORE: &[&str] = &["explore_composed"];
const FUZZ: &[&str] = &["fuzz_pair"];
const ANALYZE: &[&str] = &["analyze_sweep"];
const LIVE: &[&str] = &["live_soak"];
const ALL: &[&str] = &[
    "extract_dense",
    "extract_long",
    "explore_composed",
    "fuzz_pair",
    "analyze_sweep",
    "live_soak",
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workloads: &'static [&'static str],
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, workloads, moves }
}

use Better::{Higher, Lower};

/// The per-layer metrics, outside-in per subsystem.
pub const PER_LAYER: [PerLayer; 79] = [
    // sim
    layer("sim.engine.steps", "count", Lower, EXTRACT, "throughput_ops_s"),
    layer("sim.engine.instants", "count", Lower, DENSE, "throughput_ops_s"),
    layer("sim.engine.self_ns_per_step", "ns", Lower, EXTRACT, "throughput_ops_s"),
    layer("sim.engine.queue_depth_high_water", "count", Lower, EXTRACT, "peak_rss_mib"),
    layer("sim.engine.envelopes_per_step", "ratio", Lower, EXTRACT, "throughput_ops_s"),
    layer("sim.wheel.push_pop_ns", "ns", Lower, EXTRACT, "throughput_ops_s"),
    layer("sim.net.delay_draw_ns", "ns", Lower, EXTRACT, "throughput_ops_s"),
    layer("sim.net.delay_draws", "count", Lower, EXTRACT, "throughput_ops_s"),
    layer("sim.shard.par2_steps_per_s", "1/s", Higher, DENSE, "throughput_ops_s"),
    layer("sim.shard.par2_busy_share", "ratio", Higher, DENSE, "throughput_ops_s"),
    layer("sim.shard.par2_barrier_wait_share", "ratio", Lower, DENSE, "throughput_ops_s"),
    layer("sim.world.build_ms", "ms", Lower, EXTRACT, "setup_s"),
    layer("sim.trace.events", "count", Lower, LONG, "peak_rss_mib"),
    // core
    layer("core.host.calls", "count", Lower, EXTRACT, "throughput_ops_s"),
    layer("core.host.ns_per_call", "ns", Lower, EXTRACT, "throughput_ops_s"),
    layer("core.host.self_ns_per_call", "ns", Lower, EXTRACT, "throughput_ops_s"),
    layer("core.host.resident_bytes_per_pair", "B", Lower, EXTRACT, "peak_rss_mib"),
    layer("core.detector.observations", "count", Lower, EXTRACT, "throughput_ops_s"),
    layer("core.detector.sink_ns_per_obs", "ns", Lower, DENSE, "throughput_ops_s"),
    layer("core.detector.posthoc_ms", "ms", Lower, LONG, "throughput_ops_s"),
    layer("core.detector.history_changes", "count", Lower, EXTRACT, "peak_rss_mib"),
    layer("core.scenario.check_ms", "ms", Lower, EXTRACT, "throughput_ops_s"),
    // dining / fd
    layer("dining.wfdx.calls", "count", Lower, EXTRACT, "throughput_ops_s"),
    layer("dining.wfdx.ns_per_call", "ns", Lower, EXTRACT, "throughput_ops_s"),
    layer("fd.injected.queries", "count", Lower, EXTRACT, "throughput_ops_s"),
    layer("fd.injected.ns_per_query", "ns", Lower, EXTRACT, "throughput_ops_s"),
    // explore
    layer("explore.composed.states", "count", Lower, EXPLORE, "throughput_ops_s"),
    layer("explore.composed.transitions", "count", Lower, EXPLORE, "throughput_ops_s"),
    layer("explore.composed.successors_ns_per_state", "ns", Lower, EXPLORE, "throughput_ops_s"),
    layer("explore.codec.encode_ns_per_state", "ns", Lower, EXPLORE, "throughput_ops_s"),
    layer("explore.codec.bytes_per_state", "B", Lower, EXPLORE, "peak_rss_mib"),
    layer("explore.invariants.ns_per_state", "ns", Lower, EXPLORE, "throughput_ops_s"),
    layer("explore.search.self_ns_per_state", "ns", Lower, EXPLORE, "throughput_ops_s"),
    layer("explore.search.probes_per_state", "ratio", Lower, EXPLORE, "throughput_ops_s"),
    layer("explore.search.fp_collisions", "count", Lower, EXPLORE, "throughput_ops_s"),
    layer("explore.parallel.par2_states_per_s", "1/s", Higher, EXPLORE, "throughput_ops_s"),
    layer("explore.parallel.steals", "count", Lower, EXPLORE, "throughput_ops_s"),
    layer("explore.parallel.shard_conflicts", "count", Lower, EXPLORE, "throughput_ops_s"),
    layer("explore.pair.successors_ns_per_state", "ns", Lower, FUZZ, "throughput_ops_s"),
    // fuzz
    layer("fuzz.engine.execs", "count", Lower, FUZZ, "throughput_ops_s"),
    layer("fuzz.schedule.execute_ns_per_exec", "ns", Lower, FUZZ, "throughput_ops_s"),
    layer("fuzz.engine.self_ns_per_exec", "ns", Lower, FUZZ, "throughput_ops_s"),
    layer("fuzz.corpus.entries_max", "count", Lower, FUZZ, "peak_rss_mib"),
    layer("fuzz.engine.coverage_states", "count", Higher, FUZZ, "throughput_ops_s"),
    layer("fuzz.engine.first_find_iter_sum", "count", Lower, FUZZ, "throughput_ops_s"),
    layer("fuzz.minimize.tests", "count", Lower, FUZZ, "throughput_ops_s"),
    // analyze
    layer("analyze.lints.ms", "ms", Lower, ANALYZE, "throughput_ops_s"),
    layer("analyze.cnf.encode_ms", "ms", Lower, ANALYZE, "throughput_ops_s"),
    layer("analyze.cnf.vars", "count", Lower, ANALYZE, "throughput_ops_s"),
    layer("analyze.cnf.clauses", "count", Lower, ANALYZE, "throughput_ops_s"),
    layer("analyze.sat.solves", "count", Lower, ANALYZE, "throughput_ops_s"),
    layer("analyze.sat.conflicts", "count", Lower, ANALYZE, "throughput_ops_s"),
    layer("analyze.sat.propagations", "count", Lower, ANALYZE, "throughput_ops_s"),
    layer("analyze.sat.props_per_us", "1/us", Higher, ANALYZE, "throughput_ops_s"),
    layer("analyze.kinduct.ms_per_run", "ms", Lower, ANALYZE, "throughput_ops_s"),
    layer("analyze.kinduct.share_of_rep", "ratio", Lower, ANALYZE, "throughput_ops_s"),
    layer("analyze.induct.ms_per_run", "ms", Lower, ANALYZE, "throughput_ops_s"),
    layer("analyze.induct.typed_states_per_s", "1/s", Higher, ANALYZE, "throughput_ops_s"),
    // live / runtime
    layer("live.cluster.messages_sent", "count", Higher, LIVE, "throughput_ops_s"),
    layer("live.cluster.frames_delivered", "count", Higher, LIVE, "throughput_ops_s"),
    layer("live.cluster.delivered_share", "ratio", Higher, LIVE, "throughput_ops_s"),
    layer("live.cluster.sent_share_of_offered", "ratio", Higher, LIVE, "throughput_ops_s"),
    layer("live.cluster.trial_overhead_ms", "ms", Lower, LIVE, "setup_s"),
    layer("live.cluster.cpu_sys_us_per_frame", "us", Lower, LIVE, "cpu_us_per_op"),
    layer("live.cluster.cpu_user_us_per_frame", "us", Lower, LIVE, "cpu_us_per_op"),
    layer("live.frame.write_read_ns", "ns", Lower, LIVE, "cpu_us_per_op"),
    layer("runtime.wire.encode_decode_ns", "ns", Lower, LIVE, "cpu_us_per_op"),
    layer("fd.heartbeat.calls", "count", Lower, LIVE, "cpu_us_per_op"),
    layer("fd.heartbeat.ns_per_call", "ns", Lower, LIVE, "cpu_us_per_op"),
    layer("live.soak.detect_mean_ms", "ms", Lower, LIVE, "throughput_ops_s"),
    layer("live.soak.detect_p50_ticks", "ticks", Lower, LIVE, "throughput_ops_s"),
    layer("live.soak.detect_p90_ticks", "ticks", Lower, LIVE, "throughput_ops_s"),
    layer("live.soak.detect_max_ticks", "ticks", Lower, LIVE, "throughput_ops_s"),
    layer("live.soak.transient_mistakes", "count", Lower, LIVE, "throughput_ops_s"),
    layer("live.soak.retried_trials", "count", Lower, LIVE, "throughput_ops_s"),
    // the benchmark itself
    layer("bench.trace.overhead_share", "ratio", Lower, ALL, "throughput_ops_s"),
    layer("bench.setup.first_pass_ms", "ms", Lower, ALL, "setup_s"),
    layer("bench.rep.untraced_ms", "ms", Lower, ALL, "throughput_ops_s"),
    layer("bench.rep.traced_ms", "ms", Lower, ALL, "throughput_ops_s"),
];

/// The workload named `name`.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use serde::Value;

    use super::*;

    fn object(fields: Vec<(&str, Value)>) -> Value {
        Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    fn text(s: &str) -> Value {
        Value::Str(s.to_string())
    }

    /// `BENCHMARK.json` as the catalog defines it.
    fn benchmark_json() -> Value {
        let command = [
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
        ];
        object(vec![
            ("command", Value::Array(command.iter().map(|s| text(s)).collect())),
            ("paths", Value::Array(vec![text("benchmark")])),
            ("run_seconds", Value::UInt(RUN_SECONDS)),
            (
                "workloads",
                Value::Array(
                    WORKLOADS
                        .iter()
                        .map(|w| object(vec![("name", text(w.name)), ("why", text(w.why))]))
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Value::Array(
                    END_TO_END
                        .iter()
                        .map(|m| {
                            object(vec![
                                ("name", text(m.name)),
                                ("unit", text(m.unit)),
                                ("better", text(m.better.as_str())),
                                ("bound", Value::Float(m.bound)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Value::Array(
                    PER_LAYER
                        .iter()
                        .map(|m| {
                            object(vec![
                                ("name", text(m.name)),
                                ("unit", text(m.unit)),
                                ("better", text(m.better.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n:?}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(valid_unit(unit), "bad unit {unit:?}");
        }
    }

    #[test]
    fn counts_and_bounds_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound {}", m.name, m.bound);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        for w in &WORKLOADS {
            let why = w.why;
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{}: why is {} chars",
                w.name,
                why.len()
            );
        }
    }

    #[test]
    fn every_layer_metric_names_known_workloads_and_metrics() {
        for m in &PER_LAYER {
            assert!(!m.workloads.is_empty(), "{} is measured nowhere", m.name);
            for w in m.workloads {
                assert!(workload(w).is_some(), "{}: unknown workload {w}", m.name);
            }
            assert!(END_TO_END.iter().any(|e| e.name == m.moves), "{}: moves {}", m.name, m.moves);
        }
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk: Value = serde_json::from_str(
            &std::fs::read_to_string(path).expect("BENCHMARK.json exists at the repository root"),
        )
        .expect("BENCHMARK.json parses");
        let catalog = benchmark_json();
        // `assert!`, not `assert_eq!`: a diff of the two trees' debug output
        // helps nobody; the file to write does.
        assert!(
            on_disk == catalog,
            "BENCHMARK.json is stale; the catalog renders as:\n{}",
            serde_json::to_string_pretty(&catalog).expect("a Value tree always serializes")
        );
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((Better::Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worsening(10.0, 12.0) < 0.0);
    }
}
