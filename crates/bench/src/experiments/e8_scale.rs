//! E8 — engineering cost of the reduction at scale (not a paper table; the
//! paper is proof-only). All-ordered-pairs monitoring over `n` processes:
//! message/step cost and convergence latency as `n` grows.

use dinefd_core::{
    record_extraction, run_extraction, BlackBox, ExtractionResult, OracleSpec, Scenario,
};
use dinefd_explore::{explore, ExploreConfig};
use dinefd_sim::{CrashPlan, MetricMap, ProcessId, Time};

use crate::table::{Report, Table};
use crate::{parallel_map, timed, ExperimentConfig};

/// Sizes from which the scale sweep stops recording and folds the history
/// online, with envelope batching: beyond here a full recording would
/// dominate memory, which is exactly what the online fold removes. Rows
/// below it replay a recording, as post-hoc analysis does.
const STREAM_FROM: usize = 32;

/// The scale frontier: `(n, horizon)` rows. Horizons shrink as n²
/// pair machinery grows so every row stays inside the sweep's time box;
/// the per-tick cost curves are what the frontier measures, not
/// convergence (which the main table already certifies at smaller n).
/// Debug builds (the test suites) run miniature rows — the committed
/// baselines and the CI `e8.n128`–`e8.n1024` keys are release-generated.
fn frontier_sizes() -> &'static [(usize, u64)] {
    if cfg!(debug_assertions) {
        &[(8, 256), (16, 128)]
    } else {
        &[(128, 512), (256, 256), (512, 128), (1024, 64)]
    }
}

/// The smallest frontier row the parallel frontier re-runs at 2, 4 and 8
/// threads (its threads = 1 row is the frontier's own streamed run).
/// Skipping the smallest release row keeps the sweep's wall-clock sane;
/// debug builds run every miniature row.
fn par_from() -> usize {
    if cfg!(debug_assertions) {
        0
    } else {
        256
    }
}

/// Runs E8 and returns the report.
pub fn run(cfg: &ExperimentConfig) -> Report {
    let sizes: &[usize] =
        if cfg.seeds <= 3 { &[2, 4, 8, 32, 64] } else { &[2, 4, 8, 12, 16, 32, 64] };
    let mut metrics = MetricMap::new();
    let table = scale_table(cfg, sizes, STREAM_FROM, &mut metrics);
    let (sharded, parallel) = frontier_tables(frontier_sizes(), par_from(), &mut metrics);
    explorer_figures(cfg, &mut metrics);
    let frontier = depth_frontier(cfg, &mut metrics);

    Report {
        title: "E8 — cost of all-pairs extraction at scale".into(),
        preamble: "Engineering profile (the paper has no evaluation section): the \
                   reduction runs two dining instances per ordered pair, so n \
                   processes imply 2·n·(n-1) concurrent instances. Measured: \
                   per-pair message rate (≈ constant — each pair's machinery is \
                   independent), correctness at every size, convergence latency, \
                   peak resident extraction state, and wall-clock cost of the \
                   simulation. Rows at n ≥ 32 fold the history online, one \
                   history sink per shard, record nothing and batch \
                   envelopes, so their resident state is O(pairs) history \
                   entries; rows below n = 32 record every observation and \
                   crash, one recording sink per shard, and replay the \
                   recording through the same fold, as post-hoc analysis \
                   does. \
                   The frontier table pushes to n = 1024 on one thread (one \
                   shard, timer-wheel queue) and differentially re-runs \
                   every row recorded: replaying the recording through the \
                   fold must give the online history byte for byte. The parallel-frontier \
                   table re-runs the larger rows on the shard-worker pool \
                   at 2, 4 and 8 threads, one shard per worker; the \
                   last table pushes the lemma explorer's search to deeper \
                   bounds."
            .into(),
        tables: vec![table, sharded, parallel, frontier],
        notes: vec![
            "\"peak resident (entries)\" counts the extraction-side state the run \
             must hold: recorded events (observations and crashes) for post-hoc \
             rows, n² timelines + \
             recorded suspicion changes for streaming (online-only) rows. \"env occ (mean)\" is \
             messages per wire envelope (streamed rows batch each step's sends \
             per destination under one delay draw); \"-\" = batching off."
                .into(),
            "Frontier rows run shorter horizons as n grows (512 ticks at n=128 \
             down to 64 at n=1024): the quantity under test is per-tick cost \
             and memory at scale, not convergence latency. \"bytes/pair\" is \
             the construction-time resident estimate of the reduction nodes' \
             pair state (one slot record per pair side, its two WF-◇WX diners \
             inline) — \
             layout-dependent, so it stays out of the deterministic metric \
             keys."
                .into(),
            "Parallel-frontier rows run the same scenario on the shard-worker \
             pool with one shard per worker thread; the threads=1 row is the \
             frontier table's streamed run itself (one shard), and every \
             parallel row is asserted byte-identical to it in-process (steps, messages, metric export, \
             extracted history) before its throughput is reported. \"ksteps/s\" \
             and \"speedup\" time the whole extraction call, here and in the \
             frontier table. \"barrier %\" is barrier-wait as a share of total \
             worker wall-clock — on a single-core host expect speedup < 1x and \
             a high barrier share; the determinism columns are the part that \
             must hold everywhere."
                .into(),
            "The depth frontier sweeps the explorer's search to increasing bounds; \
             \"arena KiB\" is the resident footprint of the entire visited state \
             set under the compact codec (the figure that used to be a cloned \
             struct per HashMap key)."
                .into(),
        ],
        metrics,
    }
}

/// Everything one extraction run of the scale sweep reports back.
struct ScaleRun {
    accurate: bool,
    complete: bool,
    messages: u64,
    steps: u64,
    stabilized: Time,
    wall_ms: f64,
    /// Extraction-side resident state in logical entries: trace events for
    /// recorded runs, n² timelines + suspicion changes for online-only runs.
    peak_resident: u64,
    envelopes: u64,
    history_changes: u64,
    /// The simulator's metric export of the run.
    sim: MetricMap,
}

/// The all-pairs extraction sweep over `sizes`; rows below `stream_from`
/// record the trace (their resident state is its length), rows at and
/// beyond it record nothing, batch envelopes and run fewer seeds (they are
/// per-run expensive but per-run deterministic).
fn scale_table(
    cfg: &ExperimentConfig,
    sizes: &[usize],
    stream_from: usize,
    metrics: &mut MetricMap,
) -> Table {
    let horizon = Time(10_000);
    let mut table = Table::new(
        "All-pairs extraction cost vs system size (horizon 10k ticks)",
        &[
            "n",
            "pairs",
            "runs",
            "mode",
            "accurate",
            "complete",
            "msgs/pair/ktick",
            "steps (mean)",
            "trust stabilized by (max)",
            "peak resident (entries)",
            "env occ (mean)",
            "wall ms/run",
        ],
    );
    for &n in sizes {
        let streaming = n >= stream_from;
        let seeds = if streaming { cfg.seeds.min(2) } else { cfg.seeds.min(4) };
        let results = parallel_map(0..seeds, move |seed| {
            let mut sc = Scenario::all_pairs(n, BlackBox::WfDx, 8_000 + seed);
            sc.oracle = OracleSpec::DiamondP {
                lag: 20,
                convergence: Time(1_500),
                max_mistakes: 2,
                max_len: 100,
            };
            sc.horizon = horizon;
            sc.crashes = CrashPlan::one(ProcessId::from_index(n - 1), Time(4_000));
            sc.batch_envelopes = streaming;
            let crashes = sc.crashes.clone();
            let ((res, recording), secs) = timed(|| {
                if streaming {
                    (run_extraction(sc), None)
                } else {
                    let (res, trace) = record_extraction(sc);
                    (res, Some(trace.len() as u64))
                }
            });
            let acc = res.history.eventual_strong_accuracy(&crashes);
            let complete = res.history.strong_completeness(&crashes).is_ok();
            let stabilized = acc
                .as_ref()
                .ok()
                .and_then(|rows| rows.iter().map(|r| r.trusted_from).max())
                .unwrap_or(Time::INFINITY);
            let peak_resident = recording.unwrap_or((res.n * res.n) as u64 + res.history_changes);
            ScaleRun {
                accurate: acc.is_ok(),
                complete,
                messages: res.messages_sent,
                steps: res.steps,
                stabilized,
                wall_ms: secs * 1_000.0,
                peak_resident,
                envelopes: res.metrics.get("envelopes_sent").copied().unwrap_or(0),
                history_changes: res.history_changes,
                sim: res.metrics,
            }
        });
        let pairs = n * (n - 1);
        let acc = results.iter().filter(|r| r.accurate).count();
        let comp = results.iter().filter(|r| r.complete).count();
        let runs = results.len() as f64;
        let msgs = results.iter().map(|r| r.messages as f64).sum::<f64>() / runs;
        let steps = results.iter().map(|r| r.steps as f64).sum::<f64>() / runs;
        // n=2 with one crash has no correct-correct pair: no trust datum.
        let stab = results
            .iter()
            .map(|r| r.stabilized)
            .filter(|&t| t != Time::INFINITY)
            .map(|t| t.ticks())
            .max();
        let wall = results.iter().map(|r| r.wall_ms).sum::<f64>() / runs;
        let peak = results.iter().map(|r| r.peak_resident).max().unwrap_or(0);
        let envelopes: u64 = results.iter().map(|r| r.envelopes).sum();
        let messages: u64 = results.iter().map(|r| r.messages).sum();
        metrics.insert(format!("n{n}.messages_sent_total"), messages);
        metrics.insert(format!("n{n}.sim_steps_total"), results.iter().map(|r| r.steps).sum());
        metrics.insert(
            format!("n{n}.history_changes_total"),
            results.iter().map(|r| r.history_changes).sum(),
        );
        metrics.insert(format!("n{n}.envelopes_sent_total"), envelopes);
        metrics.insert(format!("n{n}.peak_resident_entries_max"), peak);
        metrics.insert(format!("n{n}.streaming"), streaming as u64);
        insert_sim(metrics, n, &results[0].sim);
        table.row(vec![
            n.to_string(),
            pairs.to_string(),
            results.len().to_string(),
            if streaming { "streaming+batch".into() } else { "post-hoc".to_string() },
            format!("{acc}/{}", results.len()),
            format!("{comp}/{}", results.len()),
            format!("{:.0}", msgs / pairs as f64 / (horizon.ticks() as f64 / 1_000.0)),
            format!("{steps:.0}"),
            stab.map_or("-".into(), |s| s.to_string()),
            peak.to_string(),
            if streaming && envelopes > 0 {
                format!("{:.1}", messages as f64 / envelopes as f64)
            } else {
                "-".to_string()
            },
            format!("{wall:.0}"),
        ]);
    }
    table
}

/// Records a run's simulator metric export under `n{n}.sim.`.
fn insert_sim(metrics: &mut MetricMap, n: usize, sim: &MetricMap) {
    for (k, v) in sim {
        metrics.insert(format!("n{n}.sim.{k}"), *v);
    }
}

/// Whether two extraction runs are the same run: step and message counts,
/// the metric export, and the extracted history.
fn same_run(a: &ExtractionResult, b: &ExtractionResult) -> bool {
    a.steps == b.steps
        && a.messages_sent == b.messages_sent
        && a.metrics == b.metrics
        && format!("{:?}", a.history) == format!("{:?}", b.history)
}

/// The n ≥ 128 frontier and its thread-scaling table. One seed per size
/// (each run is expensive but deterministic), the online fold with
/// envelope batching on one thread, and a full differential at every size
/// against a recorded re-run: the two runs must agree on step and message
/// counts and the metric export, and replaying the recording through the
/// fold must give the online history. Rows from `par_from` up then
/// re-run the streamed world on the shard-worker pool at 2, 4 and 8
/// threads, one shard per worker, each asserted identical to the streamed
/// run, which is the parallel table's threads = 1 row.
fn frontier_tables(
    sizes: &[(usize, u64)],
    par_from: usize,
    metrics: &mut MetricMap,
) -> (Table, Table) {
    let mut sharded = Table::new(
        "Scale frontier (one thread, one shard; timer-wheel queue)",
        &[
            "n",
            "pairs",
            "horizon",
            "steps",
            "msgs/pair",
            "ksteps/s",
            "bytes/pair",
            "peak resident (entries)",
            "stream≡post-hoc",
            "wall ms",
        ],
    );
    let mut parallel = Table::new(
        "Parallel shard-worker frontier (one shard per worker, thread-scaling)",
        &["n", "threads", "steps", "ksteps/s", "speedup", "barrier %", "identical"],
    );
    for &(n, horizon) in sizes {
        let scenario = |threads: usize| {
            let mut sc = Scenario::all_pairs(n, BlackBox::WfDx, 8_000);
            sc.oracle = OracleSpec::DiamondP {
                lag: 20,
                convergence: Time(horizon / 2),
                max_mistakes: 1,
                max_len: 16,
            };
            sc.horizon = Time(horizon);
            sc.crashes = CrashPlan::one(ProcessId::from_index(n - 1), Time(horizon / 2));
            sc.batch_envelopes = true;
            sc.threads = threads;
            sc
        };
        let run = |threads: usize| timed(|| run_extraction(scenario(threads)));
        let (streamed, secs) = run(1);
        // The recorded run's history is its recording's replay, made after
        // its world is dropped; the recording itself is dropped unread,
        // before `same_run` compares that history with the online fold's.
        let recorded = record_extraction(scenario(1)).0;
        let differential_ok = same_run(&streamed, &recorded);
        drop(recorded);
        assert!(differential_ok, "n={n}: the online fold and the recording's replay diverged");
        let pairs = (n * (n - 1)) as u64;
        let peak_resident = (n * n) as u64 + streamed.history_changes;
        metrics.insert(format!("n{n}.sim_steps_total"), streamed.steps);
        metrics.insert(format!("n{n}.messages_sent_total"), streamed.messages_sent);
        metrics.insert(
            format!("n{n}.envelopes_sent_total"),
            streamed.metrics.get("envelopes_sent").copied().unwrap_or(0),
        );
        metrics.insert(format!("n{n}.history_changes_total"), streamed.history_changes);
        metrics.insert(format!("n{n}.peak_resident_entries_max"), peak_resident);
        metrics.insert(format!("n{n}.streaming"), 1);
        metrics.insert(format!("n{n}.differential_ok"), differential_ok as u64);
        insert_sim(metrics, n, &streamed.metrics);
        sharded.row(vec![
            n.to_string(),
            pairs.to_string(),
            horizon.to_string(),
            streamed.steps.to_string(),
            format!("{:.1}", streamed.messages_sent as f64 / pairs as f64),
            format!("{:.0}", streamed.steps as f64 / secs / 1_000.0),
            format!("{:.0}", streamed.node_resident_bytes as f64 / pairs as f64),
            peak_resident.to_string(),
            if differential_ok { "yes".into() } else { "NO".to_string() },
            format!("{:.0}", secs * 1_000.0),
        ]);
        if n < par_from {
            continue;
        }
        for threads in [1usize, 2, 4, 8] {
            let rerun = (threads > 1).then(|| run(threads));
            let (res, res_secs) = rerun.as_ref().map_or((&streamed, secs), |(r, t)| (r, *t));
            let identical = rerun.is_none() || same_run(res, &streamed);
            assert!(identical, "n={n} threads={threads}: parallel run diverged from sequential");
            metrics.insert(format!("par.t{threads}.n{n}.identical"), identical as u64);
            let (busy, wait) = res.worker_stats.iter().fold((0u64, 0u64), |(b, w), s| {
                (b + s.busy_micros.sum(), w + s.barrier_wait_micros.sum())
            });
            let barrier_pct = if busy + wait > 0 {
                format!("{:.0}%", 100.0 * wait as f64 / (busy + wait) as f64)
            } else {
                "-".into()
            };
            parallel.row(vec![
                n.to_string(),
                threads.to_string(),
                res.steps.to_string(),
                format!("{:.0}", res.steps as f64 / res_secs / 1_000.0),
                format!("{:.2}x", secs / res_secs),
                barrier_pct,
                if identical { "yes".into() } else { "NO".to_string() },
            ]);
        }
    }
    (sharded, parallel)
}

/// One search of the pair model at a fixed depth; its state and transition
/// counts land in `metrics`.
fn explorer_figures(cfg: &ExperimentConfig, metrics: &mut MetricMap) {
    let depth: u32 = if cfg.seeds <= 3 { 40 } else { 60 };
    let r = explore(&ExploreConfig { max_depth: depth, ..Default::default() });
    assert!(r.clean(), "pair model at depth {depth} found violations: {:?}", r.violations);
    metrics.insert("explorer.states".into(), r.states_visited as u64);
    metrics.insert("explorer.transitions".into(), r.transitions);
}

/// Depth-frontier sweep: how deep the search pushes the pair model
/// and what the visited set costs, row per depth bound. States, transitions,
/// and arena bytes are deterministic; throughput is wall-clock.
fn depth_frontier(cfg: &ExperimentConfig, metrics: &mut MetricMap) -> Table {
    let depths: &[u32] = if cfg.seeds <= 3 { &[32, 48, 56] } else { &[32, 48, 64, 80] };
    let mut table = Table::new(
        "Serial explorer depth frontier (pair model, fingerprinted store)",
        &["depth", "states", "transitions", "kstates/s", "arena KiB", "bytes/state"],
    );
    for &depth in depths {
        let (r, secs) =
            timed(|| explore(&ExploreConfig { max_depth: depth, ..Default::default() }));
        assert!(r.clean(), "frontier row at depth {depth} found violations: {:?}", r.violations);
        metrics.insert(format!("frontier.d{depth}.states"), r.states_visited as u64);
        metrics.insert(format!("frontier.d{depth}.transitions"), r.transitions);
        metrics.insert(format!("frontier.d{depth}.arena_bytes"), r.stats.arena_bytes);
        table.row(vec![
            depth.to_string(),
            r.states_visited.to_string(),
            r.transitions.to_string(),
            format!("{:.0}", r.states_visited as f64 / secs / 1_000.0),
            format!("{:.1}", r.stats.arena_bytes as f64 / 1024.0),
            format!("{:.1}", r.stats.arena_bytes as f64 / r.states_visited as f64),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::parse_frac;

    #[test]
    fn e8_small_sizes_correct() {
        // Exercise both row modes at debug-friendly sizes: recorded
        // (post-hoc) below the threshold, online-only with batching at and
        // above it (the release-profile sweep raises the threshold to
        // n=32/64).
        let cfg = ExperimentConfig { seeds: 2 };
        let mut metrics = MetricMap::new();
        let table = scale_table(&cfg, &[2, 4, 8], 8, &mut metrics);
        for row in &table.rows {
            let (a, t) = parse_frac(&row[4]);
            assert_eq!(a, t, "accuracy failed at scale: {row:?}");
            let (c, t) = parse_frac(&row[5]);
            assert_eq!(c, t, "completeness failed at scale: {row:?}");
        }
        assert_eq!(table.rows[0][3], "post-hoc");
        assert_eq!(table.rows[2][3], "streaming+batch");
        assert!(metrics.keys().any(|k| k.ends_with(".sim_steps_total")));
        assert!(metrics.keys().any(|k| k.ends_with(".peak_resident_entries_max")));
        assert_eq!(metrics["n8.streaming"], 1);
        assert_eq!(metrics["n2.streaming"], 0);
        assert!(metrics["n8.envelopes_sent_total"] > 0);
        assert_eq!(metrics["n2.envelopes_sent_total"], metrics["n2.messages_sent_total"]);
    }

    #[test]
    fn e8_streaming_rows_hold_less_than_a_trace() {
        // At the same size, the streaming row's resident entries must be far
        // below the post-hoc row's trace length — the pipeline's whole point.
        let cfg = ExperimentConfig { seeds: 1 };
        let mut m_posthoc = MetricMap::new();
        let mut m_stream = MetricMap::new();
        let posthoc = scale_table(&cfg, &[8], 9, &mut m_posthoc);
        let streamed = scale_table(&cfg, &[8], 8, &mut m_stream);
        let peak = |t: &Table| t.rows[0][9].parse::<u64>().unwrap();
        assert!(
            peak(&streamed) * 10 < peak(&posthoc),
            "streaming {} vs post-hoc {} resident entries",
            peak(&streamed),
            peak(&posthoc)
        );
        // Streaming resident state is O(pairs + changes), not O(horizon).
        assert_eq!(
            m_stream["n8.peak_resident_entries_max"],
            64 + m_stream["n8.history_changes_total"]
        );
    }

    #[test]
    fn e8_frontier_differential_and_parallel_rows_hold_at_debug_sizes() {
        // Same machinery as the release-profile n≤1024 frontier, at sizes a
        // debug test can afford. Every row asserts internally that the online
        // fold equals the replay of a recorded re-run and that each
        // parallel rerun reproduces the streamed run; here we also pin the
        // exported keyspace the CI baseline diff consumes, and that the
        // parallel table's threads = 1 row is the frontier's own run.
        let mut metrics = MetricMap::new();
        let (sharded, parallel) = frontier_tables(&[(8, 256), (12, 128)], 12, &mut metrics);
        assert_eq!(sharded.rows.len(), 2);
        for row in &sharded.rows {
            assert_eq!(row[8], "yes", "differential column: {row:?}");
        }
        for n in [8usize, 12] {
            assert_eq!(metrics[&format!("n{n}.differential_ok")], 1);
            assert_eq!(metrics[&format!("n{n}.streaming")], 1);
            assert_eq!(
                metrics[&format!("n{n}.sim.steps")],
                metrics[&format!("n{n}.sim_steps_total")]
            );
            assert!(
                metrics[&format!("n{n}.peak_resident_entries_max")] >= (n * n) as u64,
                "peak resident must count the n² timelines"
            );
        }
        // Only the n = 12 row reaches `par_from`: one row per thread count.
        let threads: Vec<&str> = parallel.rows.iter().map(|r| r[1].as_str()).collect();
        assert_eq!(threads, ["1", "2", "4", "8"]);
        for row in &parallel.rows {
            assert_eq!((row[0].as_str(), row[6].as_str()), ("12", "yes"), "{row:?}");
            assert_eq!(row[2], sharded.rows[1][3], "steps diverged: {row:?}");
        }
        // steps and ksteps/s of the threads = 1 row are the frontier row's.
        assert_eq!(parallel.rows[0][3], sharded.rows[1][5]);
        for t in [1u64, 2, 4, 8] {
            assert_eq!(metrics[&format!("par.t{t}.n12.identical")], 1);
            assert!(!metrics.contains_key(&format!("par.t{t}.n8.identical")));
        }
        assert!(!metrics.keys().any(|k| k.starts_with("par.n")), "no duplicate totals");
    }

    #[test]
    fn e8_depth_frontier_grows_monotonically() {
        let mut metrics = MetricMap::new();
        let table = depth_frontier(&ExperimentConfig { seeds: 2 }, &mut metrics);
        assert_eq!(table.rows.len(), 3);
        let states: Vec<u64> = table.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(states.windows(2).all(|w| w[0] < w[1]), "deeper must see more: {states:?}");
        assert!(metrics.keys().any(|k| k.ends_with(".arena_bytes")));
    }
}
