//! Ready-made scenario assembly: pick a black box, an underlying oracle, a
//! fault/delay environment — get back the extracted detector's history.
//!
//! This is the API the examples, integration tests, and the experiment
//! harness (`dinefd-bench`) all drive.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use dinefd_dining::coord::{CoordDining, GrantRegime};
use dinefd_dining::hygienic::HygienicDining;
use dinefd_dining::wfdx::WfDxDining;
use dinefd_dining::DiningParticipant;
use dinefd_fd::SuspicionHistory as FdHistory;
use dinefd_fd::{InjectedOracle, SuspicionHistory};
use dinefd_sim::{
    CrashPlan, DelayModel, MetricMap, Node, ProcessId, QueueBackend, ShardedWorld, SplitMix64,
    Time, Trace, WorkerStats, World, WorldConfig,
};

use crate::detector::{suspicion_history, HistorySink, PairTimelines};
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
    /// Fold the suspicion history online through a
    /// [`crate::detector::HistorySink`] instead of materializing
    /// observation events in the trace: `O(pairs + changes)` resident
    /// memory, but [`ExtractionResult::pair_timelines`] becomes empty.
    pub streaming: bool,
    /// Give each step's messages to one destination a single delay draw,
    /// as one envelope: they arrive at one instant, as adjacent steps of
    /// the receiver in send order. Off by default — it changes delay
    /// sampling, hence schedules, under stochastic delay models.
    pub batch_envelopes: bool,
    /// Shards of the [`ShardedWorld`] the run executes on (default 1; `0`
    /// counts as 1). The schedule is the same for every shard count, and
    /// shards only partition processes among `threads` workers: with fewer
    /// than two threads the world holds one.
    pub shards: usize,
    /// The event queue, which is always the timer wheel. Kept because the
    /// `benchmark/` harness still names it.
    pub queue: QueueBackend,
    /// Worker threads: with `threads ≥ 2` and `shards ≥ 2` the run executes
    /// on the simulator's shard-worker pool behind its deterministic
    /// barrier merge (byte-identical results for any thread count), and
    /// streaming extraction folds one [`HistorySink`] per shard, merged
    /// deterministically at the end.
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
    /// The raw trace. In post-hoc mode observations are always present; in
    /// streaming mode they are folded into `history` as they happen and the
    /// trace carries none (so [`ExtractionResult::pair_timelines`] is empty).
    pub trace: Trace<RedMsg, RedObs>,
    /// Whether the history was folded online (see [`Scenario::streaming`]).
    pub streaming: bool,
    /// Logical resident size of the extracted history in timeline entries
    /// ([`SuspicionHistory::change_count`]); with `n²` initial outputs this
    /// is the whole streaming-mode memory footprint of extraction.
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

impl ExtractionResult {
    /// Thread timelines of one pair (Fig. 1 material).
    pub fn pair_timelines(&self, watcher: ProcessId, subject: ProcessId) -> PairTimelines {
        PairTimelines::collect(&self.trace, watcher, subject, self.horizon)
    }
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

/// Runs one extraction scenario to its horizon.
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
    match sc.black_box {
        BlackBox::WfDx => {
            run_extraction_over(sc, &|ep: DxEndpoint| WfDxDining::new(ep.me, &[ep.peer]))
        }
        BlackBox::Ftme => {
            run_extraction_over(sc, &|ep: DxEndpoint| WfDxDining::trust_gated(ep.me, &[ep.peer]))
        }
        other => run_extraction_over(sc, &factory_for(other)),
    }
}

/// [`run_extraction`] over `factory`'s endpoints, stored as `D`.
pub fn run_extraction_over<D: Resident>(
    sc: Scenario,
    factory: &DiningFactory<'_, D>,
) -> ExtractionResult {
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
        streaming,
        batch_envelopes,
        shards,
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
    let new_sink = || HistorySink::new(n, &pairs);
    let fold = if !streaming {
        Fold::PostHoc
    } else if shards >= 2 && threads >= 2 {
        Fold::PerShard((0..shards).map(|_| Arc::new(Mutex::new(new_sink()))).collect())
    } else {
        Fold::Online(Rc::new(RefCell::new(new_sink())))
    };
    if streaming {
        // Keep the trace free of observation events so the run's resident
        // footprint is O(pairs + suspicion changes), not O(run length).
        cfg = cfg.observation_events_off();
    }
    let mut world = match &fold {
        Fold::PostHoc => ShardedWorld::new(nodes, cfg, shards),
        Fold::Online(sink) => {
            ShardedWorld::new_with_sink(nodes, cfg, shards, Box::new(Rc::clone(sink)))
        }
        Fold::PerShard(sinks) => {
            let sinks = sinks.iter().map(|s| Box::new(Arc::clone(s)) as _).collect();
            ShardedWorld::new_with_shard_sinks(nodes, cfg, shards, sinks)
        }
    };
    world.run_until(horizon);
    let worker_stats = world.worker_stats().to_vec();
    let (steps, messages_sent, metrics) =
        (world.steps(), world.messages_sent(), world.metrics_map());
    let trace = world.into_trace();
    let history = match fold {
        Fold::PostHoc => suspicion_history(n, &trace, &pairs),
        Fold::Online(sink) => {
            Rc::try_unwrap(sink).expect("world dropped its sink handle").into_inner().finish()
        }
        Fold::PerShard(sinks) => {
            let mut merged = FdHistory::new(n, true);
            merged.restrict_to(&pairs);
            for (s, sink) in sinks.into_iter().enumerate() {
                let sink = Arc::try_unwrap(sink)
                    .expect("world dropped its sink handles")
                    .into_inner()
                    .expect("sink lock poisoned");
                merged.adopt_watcher_rows(
                    &sink.finish(),
                    (s..n).step_by(shards).map(ProcessId::from_index),
                );
            }
            merged
        }
    };
    let history_changes = history.change_count();
    ExtractionResult {
        history,
        trace,
        streaming,
        history_changes,
        crashes,
        n,
        horizon,
        steps,
        messages_sent,
        node_resident_bytes,
        metrics,
        worker_stats,
    }
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

/// Where a run's observations become the suspicion history.
enum Fold {
    /// After the run, from the observation events the trace recorded.
    PostHoc,
    /// Online, as the simulator routes them, through one sink on the world.
    Online(Rc<RefCell<HistorySink>>),
    /// Online in a parallel sharded run: one sink per shard travels with
    /// its worker thread and folds that shard's watcher rows; the merge
    /// afterwards reassembles the sequential history row for row (see
    /// `SuspicionHistory::adopt_watcher_rows`).
    PerShard(Vec<Arc<Mutex<HistorySink>>>),
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
    fn sharded_extraction_is_shard_count_invariant() {
        // The schedule must not depend on the shard count: 1 shard is the
        // reference, and every k must reproduce its history, step/message
        // counts, and metric export byte-for-byte. Two threads, so that a
        // world asked for k ≥ 2 shards holds them; the two workers it
        // reports show that it did.
        let run = |shards: usize| {
            let mut sc = Scenario::all_pairs(3, BlackBox::WfDx, 23);
            sc.horizon = Time(6_000);
            sc.crashes = CrashPlan::one(ProcessId(2), Time(3_000));
            sc.shards = shards;
            sc.threads = 2;
            let res = run_extraction(sc);
            let workers = res.worker_stats.len();
            (workers, (res.steps, res.messages_sent, format!("{:?}", res.history), res.metrics))
        };
        let (workers, reference) = run(1);
        assert_eq!(workers, 0, "one shard runs sequentially");
        for shards in [2, 4] {
            let (workers, run) = run(shards);
            assert_eq!(workers, 2, "shards={shards} must run on the pool");
            assert_eq!(run, reference, "shards={shards}");
        }
    }

    #[test]
    fn sharded_streaming_matches_sharded_post_hoc() {
        // Streaming folds the same observation stream the post-hoc trace
        // carries, so the extracted histories must agree exactly — also on
        // sharded worlds, which hold two shards only on two threads.
        let run = |streaming: bool| {
            let mut sc = Scenario::all_pairs(3, BlackBox::WfDx, 29);
            sc.horizon = Time(6_000);
            sc.crashes = CrashPlan::one(ProcessId(1), Time(3_000));
            sc.shards = 2;
            sc.threads = 2;
            sc.streaming = streaming;
            let res = run_extraction(sc);
            assert_eq!(res.worker_stats.len(), 2, "streaming={streaming}: two shards on the pool");
            (res.steps, res.messages_sent, format!("{:?}", res.history))
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn parallel_extraction_is_byte_identical_to_sequential() {
        // The shard-worker pool's barrier merge must make thread count
        // unobservable end to end: history, counters, and the exported
        // metric map of a parallel extraction reproduce the sequential
        // sharded run byte-for-byte — on both extraction paths, including
        // the per-shard streaming sinks.
        for streaming in [false, true] {
            let run = |shards: usize, threads: usize| {
                let mut sc = Scenario::all_pairs(4, BlackBox::WfDx, 47);
                sc.horizon = Time(6_000);
                sc.crashes = CrashPlan::one(ProcessId(3), Time(3_000));
                sc.shards = shards;
                sc.threads = threads;
                sc.streaming = streaming;
                let res = run_extraction(sc);
                (res.steps, res.messages_sent, format!("{:?}", res.history), res.metrics)
            };
            for shards in [2, 4] {
                let reference = run(shards, 1);
                for threads in [2, 4] {
                    assert_eq!(
                        run(shards, threads),
                        reference,
                        "streaming={streaming} shards={shards} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_extraction_reports_worker_stats() {
        let run = |threads: usize| {
            let mut sc = Scenario::all_pairs(4, BlackBox::WfDx, 53);
            sc.horizon = Time(4_000);
            sc.shards = 4;
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
