//! Ready-made scenario assembly: pick a black box, an underlying oracle, a
//! fault/delay environment — get back the extracted detector's history.
//!
//! This is the API the examples, integration tests, and the experiment
//! harness (`dinefd-bench`) all drive.

use std::sync::Arc;

use dinefd_dining::coord::{CoordDining, GrantRegime};
use dinefd_dining::hygienic::HygienicDining;
use dinefd_dining::wfdx::WfDxDining;
use dinefd_dining::DiningParticipant;
use dinefd_fd::{InjectedOracle, SuspicionHistory};
use dinefd_sim::shard::shard_count;
use dinefd_sim::{
    CrashPlan, DelayModel, MetricMap, Node, ObsSink, ProcessId, QueueBackend, ShardedWorld,
    SplitMix64, Time, Trace, WorkerStats, World, WorldConfig,
};

use crate::detector::{suspicion_history, HistorySink};
use crate::host::{DiningFactory, DxEndpoint, Oracle, RedMsg, RedObs, ReductionNode, Resident};

/// Which WF-◇WX (or WX) black box the reduction runs against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlackBox {
    /// The ◇P fork algorithm (\[12\]-style) — the canonical WF-◇WX solution.
    WfDx,
    /// Crash-oblivious Chandy–Misra (NOT wait-free; negative baselines).
    Hygienic,
    /// The Section 3 pathological-but-legal service; exclusivity starts only
    /// after `convergence` *and* after all pre-convergence eaters exit.
    Delayed {
        /// Modelled internal-◇P convergence instant.
        convergence: Time,
    },
    /// Spec-constrained adversarial service; exclusive from `convergence`.
    Abstract {
        /// Modelled internal-◇P convergence instant.
        convergence: Time,
    },
    /// Perpetual-WX (FTME) service — for the Section 9 T-extraction.
    Ftme,
    /// Legal service with escalating unfairness toward the watcher (the
    /// §5.1 remark; used by the single-instance ablation, E9).
    Unfair {
        /// Modelled internal-◇P convergence instant.
        convergence: Time,
    },
}

/// Which oracle the *black box* consumes (the reduction itself is
/// oracle-free).
#[derive(Clone, Copy, Debug)]
pub enum OracleSpec {
    /// Perfect detector with the given detection lag.
    Perfect {
        /// Ticks between a crash and its detection.
        lag: u64,
    },
    /// ◇P with random mistakes before `convergence`.
    DiamondP {
        /// Detection lag for real crashes.
        lag: u64,
        /// No wrongful suspicions at or after this instant.
        convergence: Time,
        /// Max wrongful-suspicion intervals per ordered pair.
        max_mistakes: u64,
        /// Max length of each interval.
        max_len: u64,
    },
    /// Trusting oracle: initial distrust ending by `trust_by`, then accurate.
    Trusting {
        /// Detection lag for real crashes.
        lag: u64,
        /// All initial distrust ends by this instant.
        trust_by: Time,
    },
}

impl OracleSpec {
    /// Materializes the oracle for a run.
    pub fn build(self, n: usize, crashes: CrashPlan, rng: &mut SplitMix64) -> InjectedOracle {
        match self {
            OracleSpec::Perfect { lag } => InjectedOracle::perfect(n, crashes, lag),
            OracleSpec::DiamondP { lag, convergence, max_mistakes, max_len } => {
                InjectedOracle::diamond_p(n, crashes, lag, convergence, max_mistakes, max_len, rng)
            }
            OracleSpec::Trusting { lag, trust_by } => {
                InjectedOracle::trusting(n, crashes, lag, trust_by, rng)
            }
        }
    }
}

/// The largest system size an all-pairs extraction is built for: its
/// n(n−1) monitored pairs are about 16.8 million here.
pub const MAX_N: usize = 4096;

/// Full description of one extraction run.
#[derive(Debug)]
pub struct Scenario {
    /// System size.
    pub n: usize,
    /// Ordered monitoring pairs; empty = all ordered pairs.
    pub pairs: Vec<(ProcessId, ProcessId)>,
    /// The black box under the reduction.
    pub black_box: BlackBox,
    /// The oracle consumed by the black box.
    pub oracle: OracleSpec,
    /// Root seed.
    pub seed: u64,
    /// Channel delays.
    pub delays: DelayModel,
    /// Crash schedule.
    pub crashes: CrashPlan,
    /// Run length.
    pub horizon: Time,
    /// Use the hardened (sequence-tagged) ping/ack variant.
    pub strict_seq: bool,
    /// Self-tick period of the reduction nodes (scheduling granularity).
    pub tick_every: u64,
    /// Ignored: extraction always folds the suspicion history online, one
    /// [`HistorySink`] per shard, and [`record_extraction`] is the run that
    /// records instead and replays the recording. Kept because the
    /// `benchmark/` harness still sets it.
    pub streaming: bool,
    /// Give each step's messages to one destination a single delay draw,
    /// as one envelope: they arrive at one instant, as adjacent steps of
    /// the receiver in send order. Off by default — it changes delay
    /// sampling, hence schedules, under stochastic delay models.
    pub batch_envelopes: bool,
    /// Ignored: the world holds one shard per worker thread
    /// ([`Scenario::threads`]). Kept because the `benchmark/` harness still
    /// names it.
    pub shards: usize,
    /// The event queue, which is always the timer wheel. Kept because the
    /// `benchmark/` harness still names it.
    pub queue: QueueBackend,
    /// Worker threads, one shard each ([`dinefd_sim::shard::shard_count`]):
    /// with `threads ≥ 2` the run executes on the simulator's shard-worker
    /// pool behind its deterministic barrier merge (byte-identical results
    /// for any thread count), and extraction folds one [`HistorySink`] per
    /// shard, merged deterministically at the end.
    pub threads: usize,
}

impl Scenario {
    /// A single-pair scenario (`p0` watches `p1`) with sensible defaults.
    pub fn pair(black_box: BlackBox, seed: u64) -> Self {
        Scenario {
            n: 2,
            pairs: vec![(ProcessId(0), ProcessId(1))],
            black_box,
            oracle: OracleSpec::DiamondP {
                lag: 20,
                convergence: Time(2_000),
                max_mistakes: 3,
                max_len: 150,
            },
            seed,
            delays: DelayModel::default_async(),
            crashes: CrashPlan::none(),
            horizon: Time(40_000),
            strict_seq: false,
            tick_every: 4,
            streaming: false,
            batch_envelopes: false,
            shards: 1,
            queue: QueueBackend::default(),
            threads: 1,
        }
    }

    /// An all-ordered-pairs scenario over `n` processes.
    pub fn all_pairs(n: usize, black_box: BlackBox, seed: u64) -> Self {
        let mut sc = Scenario::pair(black_box, seed);
        sc.n = n;
        sc.pairs = all_ordered_pairs(n);
        sc
    }
}

/// All ordered pairs `(w, s)`, `w ≠ s`, over `n` processes.
pub fn all_ordered_pairs(n: usize) -> Vec<(ProcessId, ProcessId)> {
    let mut out = Vec::with_capacity(n * (n - 1));
    for w in ProcessId::all(n) {
        for s in ProcessId::all(n) {
            if w != s {
                out.push((w, s));
            }
        }
    }
    out
}

/// Everything measured in one extraction run.
#[derive(Debug)]
pub struct ExtractionResult {
    /// The extracted detector's suspicion history.
    pub history: SuspicionHistory,
    /// Logical resident size of the extracted history in timeline entries
    /// ([`SuspicionHistory::change_count`]); with `n²` initial outputs this
    /// is the whole memory footprint of extraction.
    pub history_changes: u64,
    /// The run's crash plan (for the spec checkers).
    pub crashes: CrashPlan,
    /// System size.
    pub n: usize,
    /// Run length.
    pub horizon: Time,
    /// Total atomic steps executed.
    pub steps: u64,
    /// Total messages sent.
    pub messages_sent: u64,
    /// Estimated resident bytes of the reduction nodes' pair state at
    /// construction (summed [`ReductionNode::resident_bytes`]); divide by
    /// the pair count for the bytes/pair scaling curves. Layout-dependent,
    /// so report it outside any determinism-diffed section.
    pub node_resident_bytes: u64,
    /// Full simulator metric export for the run (counters, queue-depth
    /// high-water, delay histogram), key-sorted and seed-deterministic.
    pub metrics: MetricMap,
    /// Per-worker busy/barrier-wait wall-clock from parallel runs; empty
    /// for sequential ones. Wall-clock is inherently
    /// nondeterministic — report it outside any determinism-diffed section.
    pub worker_stats: Vec<WorkerStats>,
}

/// The dining-participant factory implementing a [`BlackBox`] choice.
pub fn factory_for(black_box: BlackBox) -> impl Fn(DxEndpoint) -> Box<dyn DiningParticipant> {
    move |ep: DxEndpoint| -> Box<dyn DiningParticipant> {
        let (regime, convergence) = match black_box {
            BlackBox::WfDx => return Box::new(WfDxDining::new(ep.me, &[ep.peer])),
            BlackBox::Hygienic => return Box::new(HygienicDining::new(ep.me, &[ep.peer])),
            BlackBox::Ftme => return Box::new(WfDxDining::trust_gated(ep.me, &[ep.peer])),
            BlackBox::Delayed { convergence } => (GrantRegime::DelayedConvergence, convergence),
            BlackBox::Abstract { convergence } => (GrantRegime::SwitchAtConvergence, convergence),
            BlackBox::Unfair { convergence } => (GrantRegime::SelfBiased, convergence),
        };
        // Coordinator at the watcher: the pair's output is only consumed
        // while the watcher lives, so a watcher-side coordinator keeps every
        // meaningful instance live.
        Box::new(CoordDining::new(ep.me, ep.watcher, convergence, regime))
    }
}

/// Runs one extraction scenario to its horizon, folding the extracted
/// detector's history online: one [`HistorySink`] per simulator shard, and
/// nothing recorded.
///
/// The banks hold the WF-◇WX engine of `WfDx` and `Ftme` inline, as the
/// same endpoints [`factory_for`] boxes, and every other black box boxed;
/// the reduction sees [`DiningParticipant`] either way.
///
/// ```
/// use dinefd_core::{run_extraction, BlackBox, Scenario};
/// use dinefd_sim::{CrashPlan, ProcessId, Time};
///
/// let mut sc = Scenario::pair(BlackBox::WfDx, 7);
/// sc.crashes = CrashPlan::one(ProcessId(1), Time(8_000));
/// let crashes = sc.crashes.clone();
/// let res = run_extraction(sc);
/// // The extracted detector permanently suspects the crashed subject…
/// assert!(res.history.strong_completeness(&crashes).is_ok());
/// // …after finitely many mistakes while it was alive.
/// assert!(res.history.mistake_intervals(ProcessId(0), ProcessId(1)) >= 1);
/// ```
pub fn run_extraction(sc: Scenario) -> ExtractionResult {
    extract(sc, HistorySink::new, fold_shards).0
}

/// [`run_extraction`] with every observation and crash recorded in the
/// returned trace — the material of [`crate::PairTimelines::collect`]. The
/// run is the same run as [`run_extraction`]'s; its history is the
/// recording's replay through [`suspicion_history`], made after the
/// world and its nodes are dropped, so no online fold is held beside the
/// recording.
///
/// ```
/// use dinefd_core::{record_extraction, run_extraction, BlackBox, Scenario};
///
/// let (recorded, trace) = record_extraction(Scenario::pair(BlackBox::WfDx, 7));
/// let streamed = run_extraction(Scenario::pair(BlackBox::WfDx, 7));
/// assert_eq!(format!("{:?}", recorded.history), format!("{:?}", streamed.history));
/// assert!(trace.observations().count() > 0);
/// ```
pub fn record_extraction(sc: Scenario) -> (ExtractionResult, Trace<RedObs>) {
    extract(
        sc,
        |_, _| Trace::default(),
        |parts, n, pairs| {
            let trace = Trace::merge(parts);
            (suspicion_history(n, &trace, pairs), trace)
        },
    )
}

/// Reassembles the per-shard folds of a run. Shard `s` folded exactly the
/// watchers `pid % k == s`, so adopting each later shard's watcher rows
/// into shard 0's history reassembles the sequential history row for row
/// (see `SuspicionHistory::adopt_watcher_rows`).
fn fold_shards(
    sinks: Vec<HistorySink>,
    n: usize,
    pairs: &[(ProcessId, ProcessId)],
) -> (SuspicionHistory, ()) {
    let k = sinks.len();
    let mut parts = sinks.into_iter().map(HistorySink::finish);
    let mut history = parts.next().unwrap_or_else(|| HistorySink::new(n, pairs).finish());
    for (s, part) in (1..k).zip(parts) {
        history.adopt_watcher_rows(&part, (s..n).step_by(k).map(ProcessId::from_index));
    }
    (history, ())
}

/// The one extraction run behind [`run_extraction`] and
/// [`record_extraction`]: `sink(n, pairs)` on every shard, and `fold` to
/// turn the sinks, handed back once the world is dropped, into the history
/// and whatever else the caller keeps.
fn extract<S: ObsSink<RedObs> + Send, R>(
    sc: Scenario,
    sink: impl Fn(usize, &[(ProcessId, ProcessId)]) -> S,
    fold: impl FnOnce(Vec<S>, usize, &[(ProcessId, ProcessId)]) -> (SuspicionHistory, R),
) -> (ExtractionResult, R) {
    match sc.black_box {
        BlackBox::WfDx => extract_over(sc, &|ep| WfDxDining::new(ep.me, &[ep.peer]), sink, fold),
        BlackBox::Ftme => {
            extract_over(sc, &|ep| WfDxDining::trust_gated(ep.me, &[ep.peer]), sink, fold)
        }
        other => extract_over(sc, &factory_for(other), sink, fold),
    }
}

/// [`run_extraction`] over `factory`'s endpoints, stored as `D`.
pub fn run_extraction_over<D: Resident>(
    sc: Scenario,
    factory: &DiningFactory<'_, D>,
) -> ExtractionResult {
    extract_over(sc, factory, HistorySink::new, fold_shards).0
}

/// [`extract`] over `factory`'s endpoints, stored as `D`.
fn extract_over<D: Resident, S: ObsSink<RedObs> + Send, R>(
    sc: Scenario,
    factory: &DiningFactory<'_, D>,
    sink: impl Fn(usize, &[(ProcessId, ProcessId)]) -> S,
    fold: impl FnOnce(Vec<S>, usize, &[(ProcessId, ProcessId)]) -> (SuspicionHistory, R),
) -> (ExtractionResult, R) {
    let Scenario {
        n,
        pairs,
        black_box: _,
        oracle,
        seed,
        delays,
        crashes,
        horizon,
        strict_seq,
        tick_every,
        streaming: _,
        batch_envelopes,
        shards: _,
        queue: _,
        threads,
    } = sc;
    let pairs = if pairs.is_empty() { all_ordered_pairs(n) } else { pairs };
    let mut rng = SplitMix64::new(seed ^ 0xD1CE_F00D);
    let oracle: Oracle = Arc::new(oracle.build(n, crashes.clone(), &mut rng));
    // Pre-group the pair list once (O(P)) instead of letting every node
    // rescan it (O(n·P) ≈ O(n³) total for all-pairs systems — ruinous at
    // n ≥ 1024).
    let mut watch: Vec<Vec<ProcessId>> = vec![Vec::new(); n];
    let mut watched_by: Vec<Vec<ProcessId>> = vec![Vec::new(); n];
    for &(w, s) in &pairs {
        if w != s {
            if w.index() < n {
                watch[w.index()].push(s);
            }
            if s.index() < n {
                watched_by[s.index()].push(w);
            }
        }
    }
    let nodes: Vec<ReductionNode<D>> = ProcessId::all(n)
        .map(|me| {
            let mut node = ReductionNode::from_groups(
                me,
                &watch[me.index()],
                &watched_by[me.index()],
                factory,
                Arc::clone(&oracle),
                strict_seq,
            );
            node.set_tick_every(tick_every);
            node
        })
        .collect();
    let node_resident_bytes: u64 = nodes.iter().map(|nd| nd.resident_bytes() as u64).sum();
    let mut cfg = WorldConfig::new(seed).delays(delays).crashes(crashes.clone()).threads(threads);
    if batch_envelopes {
        cfg = cfg.batch_envelopes();
    }
    let sinks = (0..shard_count(threads, n)).map(|_| sink(n, &pairs)).collect();
    let mut world = ShardedWorld::new_with_shard_sinks(nodes, cfg, sinks);
    world.run_until(horizon);
    let worker_stats = world.worker_stats().to_vec();
    let (steps, messages_sent, metrics) =
        (world.steps(), world.messages_sent(), world.metrics_map());
    let (history, kept) = fold(world.into_sinks(), n, &pairs);
    let history_changes = history.change_count();
    let res = ExtractionResult {
        history,
        history_changes,
        crashes,
        n,
        horizon,
        steps,
        messages_sent,
        node_resident_bytes,
        metrics,
        worker_stats,
    };
    (res, kept)
}

/// The run the two one-instance ablations share: `make`'s nodes for
/// `(p0, p1)` monitored over `black_box`, whose dining instances read a
/// perfect detector (lag 20) seeded from `seed ^ oracle_salt`, on a
/// one-shard world to `horizon`; returns the extracted suspicion history.
pub(crate) fn run_one_pair<N: Node<Msg = RedMsg, Obs = RedObs>>(
    black_box: BlackBox,
    seed: u64,
    oracle_salt: u64,
    crashes: CrashPlan,
    horizon: Time,
    make: impl Fn(ProcessId, &[(ProcessId, ProcessId)], &DiningFactory<'_>, Oracle) -> N,
) -> SuspicionHistory {
    let pairs = [(ProcessId(0), ProcessId(1))];
    let mut rng = SplitMix64::new(seed ^ oracle_salt);
    let oracle: Oracle =
        Arc::new(OracleSpec::Perfect { lag: 20 }.build(2, crashes.clone(), &mut rng));
    let factory = factory_for(black_box);
    let nodes = ProcessId::all(2).map(|me| make(me, &pairs, &factory, Arc::clone(&oracle)));
    let mut world = World::new(nodes.collect(), WorldConfig::new(seed).crashes(crashes));
    world.run_until(horizon);
    suspicion_history(2, &world.into_trace(), &pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinefd_fd::OracleClass;

    #[test]
    fn all_ordered_pairs_counts() {
        assert_eq!(all_ordered_pairs(2).len(), 2);
        assert_eq!(all_ordered_pairs(4).len(), 12);
    }

    #[test]
    fn extraction_over_wfdx_failure_free_converges_to_trust() {
        let sc = Scenario::pair(BlackBox::WfDx, 11);
        let crashes = sc.crashes.clone();
        let res = run_extraction(sc);
        let acc = res.history.eventual_strong_accuracy(&crashes);
        assert!(acc.is_ok(), "accuracy: {:?}", acc.err());
        let acc = acc.unwrap();
        let pair = acc.iter().find(|a| a.watcher == ProcessId(0)).unwrap();
        assert!(pair.trusted_from < res.horizon);
    }

    #[test]
    fn extraction_carries_metrics() {
        let sc = Scenario::pair(BlackBox::WfDx, 19);
        let res = run_extraction(sc);
        assert_eq!(res.metrics["steps"], res.steps);
        assert_eq!(res.metrics["messages_sent"], res.messages_sent);
        assert!(res.metrics.keys().any(|k| k.starts_with("delay_ticks.")));
    }

    #[test]
    fn extraction_metrics_deterministic_across_reruns() {
        let run = |seed| {
            let mut sc = Scenario::pair(BlackBox::WfDx, seed);
            sc.crashes = CrashPlan::one(ProcessId(1), Time(8_000));
            run_extraction(sc).metrics
        };
        assert_eq!(run(31), run(31));
    }

    #[test]
    fn extraction_over_wfdx_detects_crash() {
        let mut sc = Scenario::pair(BlackBox::WfDx, 13);
        sc.crashes = CrashPlan::one(ProcessId(1), Time(8_000));
        let crashes = sc.crashes.clone();
        let res = run_extraction(sc);
        let det = res.history.strong_completeness(&crashes).unwrap();
        assert_eq!(det.len(), 1);
        assert!(det[0].detected_from > det[0].crashed_at);
    }

    #[test]
    fn sharded_fold_matches_the_replay_of_its_recording() {
        // The online per-shard folds merge into the history a replay of the
        // same run's recorded observation stream through one fold builds —
        // on one shard, and on two and three, which run on the pool.
        for threads in [1, 2, 3] {
            let make = || {
                let mut sc = Scenario::all_pairs(3, BlackBox::WfDx, 29);
                sc.horizon = Time(6_000);
                sc.crashes = CrashPlan::one(ProcessId(1), Time(3_000));
                sc.threads = threads;
                sc
            };
            let pairs = make().pairs;
            let online = run_extraction(make());
            let workers = if threads == 1 { 0 } else { threads };
            assert_eq!(online.worker_stats.len(), workers, "threads={threads}: shards on the pool");
            let (_, trace) = record_extraction(make());
            assert!(trace.observations().count() > 0, "threads={threads}: nothing recorded");
            let replayed = suspicion_history(3, &trace, &pairs);
            assert_eq!(
                format!("{:?}", online.history),
                format!("{replayed:?}"),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_extraction_is_byte_identical_to_sequential() {
        // The shard-worker pool's barrier merge must make thread count
        // unobservable end to end: history, counters, and the exported
        // metric map of a parallel extraction reproduce the sequential
        // one-shard run byte-for-byte, through the per-shard sinks, whether
        // or not the run records its observations. `Scenario::shards` and
        // `Scenario::streaming` are ignored.
        for record in [false, true] {
            let run = |threads: usize, shards: usize, streaming: bool| {
                let mut sc = Scenario::all_pairs(4, BlackBox::WfDx, 47);
                sc.horizon = Time(6_000);
                sc.crashes = CrashPlan::one(ProcessId(3), Time(3_000));
                sc.shards = shards;
                sc.threads = threads;
                sc.streaming = streaming;
                let res = if record { record_extraction(sc).0 } else { run_extraction(sc) };
                let workers = res.worker_stats.len();
                (workers, (res.steps, res.messages_sent, format!("{:?}", res.history), res.metrics))
            };
            let (workers, reference) = run(1, 1, false);
            assert_eq!(workers, 0, "one thread runs sequentially");
            assert_eq!(run(1, 4, true), (0, reference.clone()), "record={record}: shards=4");
            for (threads, workers) in [(2, 2), (4, 4), (8, 4)] {
                assert_eq!(
                    run(threads, 1, false),
                    (workers, reference.clone()),
                    "record={record} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn parallel_extraction_reports_worker_stats() {
        let run = |threads: usize| {
            let mut sc = Scenario::all_pairs(4, BlackBox::WfDx, 53);
            sc.horizon = Time(4_000);
            sc.threads = threads;
            run_extraction(sc).worker_stats
        };
        assert!(run(1).is_empty(), "sequential runs carry no worker stats");
        let stats = run(4);
        assert_eq!(stats.len(), 4);
        assert!(stats.iter().all(|w| w.instants.get() > 0));
    }

    #[test]
    fn extraction_reports_resident_bytes() {
        let small = run_extraction(Scenario::pair(BlackBox::WfDx, 41));
        let mut large_sc = Scenario::all_pairs(4, BlackBox::WfDx, 41);
        large_sc.horizon = Time(4_000);
        let large = run_extraction(large_sc);
        assert!(small.node_resident_bytes > 0);
        assert!(large.node_resident_bytes > small.node_resident_bytes);
    }

    #[test]
    fn extraction_over_abstract_box_is_diamond_p() {
        let mut sc = Scenario::all_pairs(3, BlackBox::Abstract { convergence: Time(3_000) }, 17);
        sc.crashes = CrashPlan::one(ProcessId(2), Time(6_000));
        sc.horizon = Time(60_000);
        let crashes = sc.crashes.clone();
        let res = run_extraction(sc);
        let classes = res.history.classify(&crashes);
        assert!(
            classes.contains(&OracleClass::EventuallyPerfect),
            "extracted classes: {classes:?}"
        );
    }
}
