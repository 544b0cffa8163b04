//! Machine-readable perf reports: the `BENCH_*.json` documents.
//!
//! Three documents, one schema ([`BenchDoc`]):
//!
//! * `BENCH_sim.json` — a fixed-seed simulator benchmark (all-pairs
//!   extraction over a few system sizes) with the full [`dinefd_sim`]
//!   metric export per size plus the simulate/extract phase split.
//! * `BENCH_explore.json` — the lemma explorer on a fixed state space, at
//!   one worker and at four, with their verdict agreement.
//! * `BENCH_experiments.json` — every experiment's seed-deterministic
//!   counters plus per-experiment wall-clock.
//!
//! Each document separates three key spaces so the determinism contract is
//! explicit: `metrics` is seed-deterministic (byte-identical across reruns
//! of the same profile on any machine), `wall` is wall-clock (never
//! comparable across runs), and `nondet` holds logically-meaningful but
//! schedule-dependent counters (the explorer's steals and shard conflicts).
//! All three serialize with sorted keys via `MetricMap`/`BTreeMap`.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use dinefd_core::{run_extraction, BlackBox, OracleSpec, Scenario};
use dinefd_explore::{explore, ExploreConfig, ExploreReport};
use dinefd_sim::stats::percentile;
use dinefd_sim::{CrashPlan, MetricMap, ProcessId, Time};
use serde::Serialize;

/// Schema tag stamped into every document; bump when keys change meaning.
pub const BENCH_SCHEMA: &str = "dinefd-bench/v1";

/// One machine-readable benchmark document (see module docs for the
/// determinism contract of each section).
#[derive(Clone, Debug, Serialize)]
pub struct BenchDoc {
    /// Schema tag ([`BENCH_SCHEMA`]).
    pub schema: String,
    /// Which knob profile produced it (`quick` or `full`).
    pub profile: String,
    /// Seed-deterministic counters: byte-identical across reruns.
    pub metrics: MetricMap,
    /// Wall-clock seconds per labeled phase; varies run to run.
    pub wall: BTreeMap<String, String>,
    /// Schedule-dependent (but logical) counters, e.g. steal counts.
    pub nondet: MetricMap,
}

impl BenchDoc {
    /// An empty document for `profile`.
    pub fn new(profile: &str) -> Self {
        BenchDoc {
            schema: BENCH_SCHEMA.to_string(),
            profile: profile.to_string(),
            metrics: MetricMap::new(),
            wall: BTreeMap::new(),
            nondet: MetricMap::new(),
        }
    }

    /// Records a wall-clock duration under `key`, formatted with fixed
    /// precision so the JSON is layout-stable (values still vary).
    pub fn wall_secs(&mut self, key: impl Into<String>, secs: f64) {
        self.wall.insert(key.into(), format!("{secs:.6}"));
    }

    /// Serializes to pretty JSON with a trailing newline. Key order is the
    /// `BTreeMap` sort order, so equal content means equal bytes.
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("BenchDoc serializes");
        s.push('\n');
        s
    }

    /// Writes the document to `path`.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Sizes the simulator benchmark sweeps per profile.
fn sim_sizes(quick: bool) -> &'static [usize] {
    if quick {
        &[2, 4, 8]
    } else {
        &[4, 8, 16]
    }
}

/// Sharded-frontier sizes for the scaling curves: `(n, horizon)`, horizons
/// shrinking with n² pair machinery (per-tick cost is what the curve
/// measures). Same rows in both profiles so the curves always reach
/// n = 1024; debug builds (the unit suite) run miniature rows — committed
/// baselines and CI curves are always release-generated.
fn shard_sizes(_quick: bool) -> &'static [(usize, u64)] {
    if cfg!(debug_assertions) {
        &[(8, 256), (12, 128)]
    } else {
        &[(128, 512), (256, 256), (512, 128), (1024, 64)]
    }
}

/// Parallel-frontier sizes for the thread-scaling curves: `(n, horizon)`.
/// A subset of [`shard_sizes`] — each row runs once per thread count, so
/// the smallest release row is dropped to keep the dump's wall-clock sane.
fn par_sizes(_quick: bool) -> &'static [(usize, u64)] {
    if cfg!(debug_assertions) {
        &[(8, 256), (12, 128)]
    } else {
        &[(256, 256), (512, 128), (1024, 64)]
    }
}

/// Thread counts swept by the parallel frontier.
const PAR_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Fixed-seed simulator benchmark: all-ordered-pairs ◇P extraction at a
/// few system sizes, full metric export per size, simulate/extract phase
/// split in `wall`; plus the sharded scale frontier (streaming pipeline on
/// 4-way sharded worlds up to n = 1024) with states/sec curves in `wall`
/// and layout-dependent bytes/pair curves in `nondet`; plus the parallel
/// frontier (`shard.par.t{1,2,4,8}` thread-scaling curves) where every
/// parallel row is asserted byte-identical to its sequential reference
/// in-process before its states/sec lands in `wall` and its per-worker
/// busy/barrier-wait micros land in `nondet`.
pub fn sim_bench(quick: bool) -> BenchDoc {
    let mut doc = BenchDoc::new(if quick { "quick" } else { "full" });
    for &n in sim_sizes(quick) {
        let mut sc = Scenario::all_pairs(n, BlackBox::WfDx, 42);
        sc.oracle = OracleSpec::DiamondP {
            lag: 20,
            convergence: Time(1_500),
            max_mistakes: 2,
            max_len: 100,
        };
        sc.horizon = Time(5_000);
        sc.crashes = CrashPlan::one(ProcessId::from_index(n - 1), Time(2_500));
        let res = run_extraction(sc);
        for (k, v) in &res.metrics {
            doc.metrics.insert(format!("n{n}.{k}"), *v);
        }
        let profile = res.profiler.report();
        for (phase, _) in &profile.phases {
            doc.wall_secs(format!("n{n}.{phase}_secs"), profile.phase_secs(phase));
        }
        doc.wall_secs(format!("n{n}.total_secs"), profile.total_secs());
    }
    for &(n, horizon) in shard_sizes(quick) {
        let mut sc = Scenario::all_pairs(n, BlackBox::WfDx, 42);
        sc.oracle = OracleSpec::DiamondP {
            lag: 20,
            convergence: Time(horizon / 2),
            max_mistakes: 1,
            max_len: 16,
        };
        sc.horizon = Time(horizon);
        sc.crashes = CrashPlan::one(ProcessId::from_index(n - 1), Time(horizon / 2));
        sc.streaming = true;
        sc.batch_envelopes = true;
        sc.shards = 4;
        let res = run_extraction(sc);
        for (k, v) in &res.metrics {
            doc.metrics.insert(format!("shard.n{n}.{k}"), *v);
        }
        doc.metrics.insert(format!("shard.n{n}.history_changes"), res.history_changes);
        let pairs = (n * (n - 1)) as u64;
        let profile = res.profiler.report();
        let sim_secs = profile.phase_secs("simulate");
        doc.wall_secs(format!("shard.n{n}.simulate_secs"), sim_secs);
        doc.wall_secs(format!("shard.n{n}.steps_per_sec"), res.steps as f64 / sim_secs);
        // Resident footprint is rustc-layout-dependent, so it lives in the
        // nondet section (meaningful, never baseline-diffed).
        doc.nondet.insert(format!("shard.n{n}.resident_bytes"), res.node_resident_bytes);
        doc.nondet.insert(format!("shard.n{n}.bytes_per_pair"), res.node_resident_bytes / pairs);
    }
    for &(n, horizon) in par_sizes(quick) {
        let run = |threads: usize| {
            let mut sc = Scenario::all_pairs(n, BlackBox::WfDx, 42);
            sc.oracle = OracleSpec::DiamondP {
                lag: 20,
                convergence: Time(horizon / 2),
                max_mistakes: 1,
                max_len: 16,
            };
            sc.horizon = Time(horizon);
            sc.crashes = CrashPlan::one(ProcessId::from_index(n - 1), Time(horizon / 2));
            sc.streaming = true;
            sc.batch_envelopes = true;
            sc.shards = 4;
            sc.threads = threads;
            run_extraction(sc)
        };
        let reference = run(1);
        // One copy of the deterministic keys per row — every thread count
        // below is asserted equal to it, so the curves never fork.
        doc.metrics.insert(format!("shard.par.n{n}.steps"), reference.steps);
        doc.metrics.insert(format!("shard.par.n{n}.messages_sent"), reference.messages_sent);
        doc.metrics.insert(format!("shard.par.n{n}.history_changes"), reference.history_changes);
        for threads in PAR_THREADS {
            let res = if threads == 1 { &reference } else { &run(threads) };
            assert_eq!(
                (res.steps, res.messages_sent, &res.metrics),
                (reference.steps, reference.messages_sent, &reference.metrics),
                "parallel run diverged from sequential at n={n} threads={threads}"
            );
            let sim_secs = res.profiler.report().phase_secs("simulate");
            doc.wall_secs(
                format!("shard.par.t{threads}.n{n}.states_per_sec"),
                res.steps as f64 / sim_secs,
            );
            let (busy, wait) = res.worker_stats.iter().fold((0u64, 0u64), |(b, w), s| {
                (b + s.busy_micros.sum(), w + s.barrier_wait_micros.sum())
            });
            doc.nondet.insert(format!("shard.par.t{threads}.n{n}.busy_micros"), busy);
            doc.nondet.insert(format!("shard.par.t{threads}.n{n}.barrier_wait_micros"), wait);
        }
    }
    doc
}

/// Repeats behind each `wall` pair of [`explore_bench`]. The searches take
/// milliseconds, so a single cold sample mostly times thread start-up and
/// first-touch page faults (one read 70× slower than the median).
const EXPLORE_WALL_REPEATS: usize = 5;

/// Runs `cfg` [`EXPLORE_WALL_REPEATS`] times: the first run's report (its
/// counters repeat exactly at one thread) and the median duration.
fn explore_timed(cfg: &ExploreConfig) -> (ExploreReport, f64) {
    let first = explore(cfg);
    let mut secs = vec![first.stats.duration_secs];
    secs.extend((1..EXPLORE_WALL_REPEATS).map(|_| explore(cfg).stats.duration_secs));
    secs.sort_by(f64::total_cmp);
    (first, percentile(&secs, 0.5))
}

/// Lemma-explorer benchmark: one fixed state space, searched by one worker,
/// by four, and by one under POR, verdicts cross-checked.
/// `states`/`transitions`/`deadlocks`/`par_agree`/`por_agree` are
/// deterministic and CI-gated (`perf-smoke`); steals/conflicts and the
/// codec counters are schedule-dependent and land in `nondet`; each `wall`
/// pair is the median of [`EXPLORE_WALL_REPEATS`] runs.
pub fn explore_bench(quick: bool) -> BenchDoc {
    let mut doc = BenchDoc::new(if quick { "quick" } else { "full" });
    let depth: u32 = if quick { 56 } else { 64 };
    let base = ExploreConfig { max_depth: depth, ..Default::default() };
    let (serial, serial_secs) = explore_timed(&base);
    let (par, par_secs) = explore_timed(&ExploreConfig { threads: 4, ..base });
    let (por, por_secs) = explore_timed(&ExploreConfig { por: true, ..base });
    doc.metrics.insert("depth".into(), depth as u64);
    doc.metrics.insert("states".into(), serial.states_visited as u64);
    doc.metrics.insert("transitions".into(), serial.transitions);
    doc.metrics.insert("violations".into(), serial.violations.len() as u64);
    doc.metrics.insert("deadlocks".into(), serial.deadlocks as u64);
    let agree = par.states_visited == serial.states_visited
        && par.transitions == serial.transitions
        && par.clean() == serial.clean()
        && par.deadlocks == serial.deadlocks;
    doc.metrics.insert("par_agree".into(), agree as u64);
    let por_agree = por.states_visited == serial.states_visited
        && por.transitions == serial.transitions
        && por.clean() == serial.clean()
        && por.deadlocks == serial.deadlocks;
    doc.metrics.insert("por_agree".into(), por_agree as u64);
    doc.metrics.insert("arena_bytes".into(), serial.stats.arena_bytes);
    serial.stats.export("serial", &mut doc.nondet);
    par.stats.export("par", &mut doc.nondet);
    por.stats.export("por", &mut doc.nondet);
    for (name, run, secs) in
        [("serial", &serial, serial_secs), ("par", &par, par_secs), ("por", &por, por_secs)]
    {
        doc.wall_secs(format!("{name}.secs"), secs);
        doc.wall_secs(format!("{name}.states_per_sec"), run.states_visited as f64 / secs);
    }
    doc
}

/// Folds finished experiment reports into one document: each experiment's
/// deterministic counters under an `eN.` prefix, its wall-clock in `wall`.
pub fn experiments_bench(quick: bool, entries: &[(String, MetricMap, f64)]) -> BenchDoc {
    let mut doc = BenchDoc::new(if quick { "quick" } else { "full" });
    for (id, metrics, secs) in entries {
        doc.metrics.insert(format!("{id}.metric_keys"), metrics.len() as u64);
        for (k, v) in metrics {
            doc.metrics.insert(format!("{id}.{k}"), *v);
        }
        doc.wall_secs(format!("{id}.secs"), *secs);
    }
    doc
}

/// Writes `doc` as `BENCH_<stem>.json` under `dir`, returning the path.
pub fn write_bench(dir: &Path, stem: &str, doc: &BenchDoc) -> io::Result<PathBuf> {
    let path = dir.join(format!("BENCH_{stem}.json"));
    doc.write(&path)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn as_object<'v>(v: &'v Value, field: &str) -> &'v [(String, Value)] {
        match v.field(field).expect("field exists") {
            Value::Object(fields) => fields,
            other => panic!("expected {field} to be an object, got {other:?}"),
        }
    }

    #[test]
    fn bench_doc_serializes_with_sorted_keys() {
        let mut doc = BenchDoc::new("quick");
        doc.metrics.insert("z.last".into(), 1);
        doc.metrics.insert("a.first".into(), 2);
        doc.wall_secs("b.secs", 0.25);
        let v: Value = serde_json::from_str(&doc.to_json()).expect("valid JSON");
        let keys: Vec<&str> = as_object(&v, "metrics").iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "metric keys must serialize sorted");
        assert_eq!(v.field("schema").unwrap(), &Value::Str(BENCH_SCHEMA.into()));
    }

    #[test]
    fn sim_bench_metrics_are_byte_identical_across_reruns() {
        let a = sim_bench(true);
        let b = sim_bench(true);
        assert_eq!(
            serde_json::to_string(&a.metrics).unwrap(),
            serde_json::to_string(&b.metrics).unwrap(),
            "fixed-seed sim metrics must be byte-identical"
        );
        assert!(a.metrics.keys().any(|k| k.ends_with(".steps")));
        assert!(a.metrics.keys().any(|k| k.contains(".delay_ticks.")));
        // Wall keys exist for every phase (values are free to differ).
        assert!(a.wall.keys().any(|k| k.ends_with(".simulate_secs")));
        assert!(a.wall.keys().any(|k| k.ends_with(".extract_secs")));
    }

    #[test]
    fn explore_bench_serial_and_parallel_agree() {
        let doc = explore_bench(true);
        assert_eq!(doc.metrics["par_agree"], 1, "thread counts must agree: {:?}", doc.metrics);
        assert_eq!(doc.metrics["por_agree"], 1, "POR must change nothing: {:?}", doc.metrics);
        assert!(doc.metrics["states"] > 0);
        assert!(doc.metrics["arena_bytes"] > 0);
        assert_eq!(doc.nondet["serial.threads"], 1);
        assert_eq!(doc.nondet["par.threads"], 4);
        assert!(doc.nondet["serial.fp_confirms"] > 0, "revisits must be byte-confirmed");
    }

    #[test]
    fn experiments_bench_prefixes_and_round_trips() {
        let mut m = MetricMap::new();
        m.insert("runs".into(), 7);
        let doc = experiments_bench(true, &[("e1".into(), m, 1.5)]);
        assert_eq!(doc.metrics["e1.runs"], 7);
        assert_eq!(doc.metrics["e1.metric_keys"], 1);
        // Round-trip through the vendored serde: the metric map must come
        // back exactly.
        let v: Value = serde_json::from_str(&doc.to_json()).unwrap();
        let back: MetricMap = serde::Deserialize::deserialize(v.field("metrics").unwrap())
            .expect("metrics deserialize");
        assert_eq!(back, doc.metrics);
    }
}
