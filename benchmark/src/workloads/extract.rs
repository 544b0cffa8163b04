//! `extract_dense` and `extract_long`: ◇P extraction on the simulator, the
//! work `dinefd extract` does, in the two regimes that stress it most
//! differently.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dinefd_core::scenario::factory_for;
use dinefd_core::{
    run_extraction, suspicion_history, BlackBox, DxEndpoint, HistorySink, OracleSpec,
    ReductionNode, Scenario,
};
use dinefd_dining::DiningParticipant;
use dinefd_fd::{FdQuery, SuspicionHistory};
use dinefd_sim::event::{EventKind, EventQueue};
use dinefd_sim::{
    CrashPlan, DelayModel, MetricMap, ProcessId, ShardedWorld, SplitMix64, Time, TimerId, World,
    WorldConfig,
};

use super::{counter_diff, repeat_for, Layers, Rep, Size, Traced, Workload};
use crate::host;
use crate::timed::Timed;
use crate::trace::{mean_ns, ms, ratio, LayerAcc, Recorder};

/// Which of the two regimes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Regime {
    /// Many pairs, short horizon, sharded streaming engine.
    Dense,
    /// Few pairs, long horizon, classic engine, post-hoc extraction.
    Long,
}

/// An extraction workload with its scenario parameters fixed.
#[derive(Debug)]
pub struct Extract {
    regime: Regime,
    seed: u64,
    n: usize,
    horizon: u64,
}

/// Threads of the parallel variant measured beside `extract_dense`.
const PAR_THREADS: usize = 2;

impl Extract {
    /// n = 64 all-pairs (4,032 pairs), horizon 384: ≈290k steps with a
    /// ≈5k-deep queue and 46 MiB resident — well beyond the caches, yet a
    /// repetition short enough (≈0.25 s) that a run holds dozens of them.
    /// Larger n is deliberately left out: on the hosts this was sized on the
    /// same work spreads 17% between runs at n = 128 (9% at n = 64, measured
    /// interleaved) and swings 2× between fresh processes at n = 256.
    pub fn dense(seed: u64, size: Size) -> Self {
        let (n, horizon) = match size {
            Size::Full => (64, 384),
            Size::Smoke => (12, 96),
        };
        Extract { regime: Regime::Dense, seed, n, horizon }
    }

    /// n = 8, horizon 50,000: ≈525k steps over cache-resident state with a
    /// ≈100-deep queue, every observation recorded in the trace (≈0.9M
    /// events).
    pub fn long(seed: u64, size: Size) -> Self {
        let (n, horizon) = match size {
            Size::Full => (8, 50_000),
            Size::Smoke => (4, 6_000),
        };
        Extract { regime: Regime::Long, seed, n, horizon }
    }

    fn scenario(&self, threads: usize) -> Scenario {
        let mut sc = Scenario::all_pairs(self.n, BlackBox::WfDx, self.seed);
        sc.horizon = Time(self.horizon);
        sc.crashes = CrashPlan::one(ProcessId::from_index(self.n - 1), Time(self.horizon / 2));
        if self.regime == Regime::Dense {
            sc.oracle = OracleSpec::DiamondP {
                lag: 20,
                convergence: Time(self.horizon / 2),
                max_mistakes: 1,
                max_len: 16,
            };
            sc.streaming = true;
            sc.batch_envelopes = true;
            sc.shards = 4;
            sc.threads = threads;
        }
        sc
    }

    /// The spec checks of the regime, as failure lines on `rep`.
    fn check(&self, rep: &mut Rep, history: &SuspicionHistory, crashes: &CrashPlan) {
        let complete = history.strong_completeness(crashes);
        rep.check(complete.is_ok(), || format!("strong completeness: {:?}", complete.err()));
        if self.regime == Regime::Long {
            let accurate = history.eventual_strong_accuracy(crashes);
            rep.check(accurate.is_ok(), || {
                format!("eventual strong accuracy: {:?}", accurate.err())
            });
        }
    }

    fn rep_with_threads(&self, threads: usize) -> (Rep, dinefd_core::ExtractionResult) {
        let sc = self.scenario(threads);
        let crashes = sc.crashes.clone();
        let res = run_extraction(sc);
        let mut rep = counted(res.steps, res.messages_sent, res.history_changes, &res.metrics);
        self.check(&mut rep, &res.history, &crashes);
        (rep, res)
    }
}

/// A [`Rep`] carrying the run's deterministic counters: the step and message
/// totals, the history size, and the simulator's whole metric export.
fn counted(steps: u64, messages_sent: u64, history_changes: u64, metrics: &MetricMap) -> Rep {
    let mut rep = Rep { ops: steps, ..Rep::default() };
    rep.count("steps", steps);
    rep.count("messages_sent", messages_sent);
    rep.count("history_changes", history_changes);
    for (k, v) in metrics {
        rep.count(&format!("sim.{k}"), *v);
    }
    rep
}

/// The per-layer accumulators of one traced repetition.
#[derive(Debug)]
struct Accs {
    engine: Arc<LayerAcc>,
    host: Arc<LayerAcc>,
    dining: Arc<LayerAcc>,
    fd: Arc<LayerAcc>,
    sink: Arc<LayerAcc>,
}

impl Accs {
    fn new() -> Self {
        Accs {
            engine: LayerAcc::shared(),
            host: LayerAcc::shared(),
            dining: LayerAcc::shared(),
            fd: LayerAcc::shared(),
            sink: LayerAcc::shared(),
        }
    }
}

/// The reduction nodes of `sc` with every layer boundary wrapped in a
/// [`Timed`] adapter — the assembly `run_extraction` performs, repeated here
/// from the same public constructors (including its oracle seed derivation;
/// the traced run's counters are compared with the plain run's, so drift
/// between the two assemblies is caught, not silently measured).
pub fn timed_nodes(
    sc: &Scenario,
    host: &Arc<LayerAcc>,
    dining: &Arc<LayerAcc>,
    fd: &Arc<LayerAcc>,
) -> Vec<Timed<ReductionNode>> {
    let n = sc.n;
    let mut rng = SplitMix64::new(sc.seed ^ 0xD1CE_F00D);
    let oracle: Arc<dyn FdQuery + Send + Sync> =
        Arc::new(sc.oracle.build(n, sc.crashes.clone(), &mut rng));
    let oracle: Arc<dyn FdQuery + Send + Sync> = Arc::new(Timed::new(oracle, fd));
    let bare = factory_for(sc.black_box);
    let factory =
        |ep: DxEndpoint| -> Box<dyn DiningParticipant> { Box::new(Timed::new(bare(ep), dining)) };
    let mut watch: Vec<Vec<ProcessId>> = vec![Vec::new(); n];
    let mut watched_by: Vec<Vec<ProcessId>> = vec![Vec::new(); n];
    for &(w, s) in &sc.pairs {
        watch[w.index()].push(s);
        watched_by[s.index()].push(w);
    }
    ProcessId::all(n)
        .map(|me| {
            let mut node = ReductionNode::from_groups(
                me,
                &watch[me.index()],
                &watched_by[me.index()],
                &factory,
                Arc::clone(&oracle),
                sc.strict_seq,
            );
            node.set_tick_every(sc.tick_every);
            Timed::new(node, host)
        })
        .collect()
}

/// The world configuration `run_extraction` derives from `sc`.
pub fn world_config(sc: &Scenario) -> WorldConfig {
    let delays = sc.delays.try_clone().expect("benchmark scenarios use cloneable delay models");
    let mut cfg = WorldConfig::new(sc.seed)
        .delays(delays)
        .crashes(sc.crashes.clone())
        .queue_backend(sc.queue)
        .threads(sc.threads);
    if sc.batch_envelopes {
        cfg = cfg.batch_envelopes();
    }
    if sc.streaming {
        cfg = cfg.observation_events_off();
    }
    cfg
}

/// The engine of a traced repetition, with the streaming sink's recovery
/// handle where there is one. One lives on the stack per traced repetition,
/// so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum Engine {
    Sharded(ShardedWorld<Timed<ReductionNode>>, Rc<RefCell<HistorySink>>),
    Classic(World<Timed<ReductionNode>>),
}

impl Workload for Extract {
    fn seed_used(&self) -> bool {
        true
    }

    fn rep(&mut self) -> Rep {
        self.rep_with_threads(1).0
    }

    fn traced_rep(&mut self, rec: &mut Recorder) -> Traced {
        let sc = self.scenario(1);
        let (n, horizon, pairs, crashes) = (sc.n, sc.horizon, sc.pairs.clone(), sc.crashes.clone());
        let accs = Accs::new();
        let mut layers = Layers::new();
        let mut instants = 0u64;

        // build: nodes, world, and the start steps the constructor runs.
        let ((mut engine, resident_bytes), build_ns) = rec.span("build", |_| {
            let nodes = timed_nodes(&sc, &accs.host, &accs.dining, &accs.fd);
            let bytes: u64 = nodes.iter().map(|nd| nd.inner().resident_bytes() as u64).sum();
            let cfg = world_config(&sc);
            let engine = match self.regime {
                Regime::Dense => {
                    let sink = Rc::new(RefCell::new(HistorySink::new(n, &pairs)));
                    let timed_sink = Box::new(Timed::new(Rc::clone(&sink), &accs.sink));
                    Engine::Sharded(
                        ShardedWorld::new_with_sink(nodes, cfg, sc.shards, timed_sink),
                        sink,
                    )
                }
                Regime::Long => Engine::Classic(World::new(nodes, cfg)),
            };
            (engine, bytes)
        });
        let (host_at_build, sink_at_build) = (accs.host.ns(), accs.sink.ns());

        // simulate: the engine loop, one per-call span per instant where the
        // engine exposes instants, one for the whole run where it does not.
        let (_, simulate_ns) = rec.span("simulate", |_| match &mut engine {
            Engine::Sharded(world, _) => {
                while world.peek_time().is_some_and(|t| t <= horizon) {
                    accs.engine.time(|| world.step_instant());
                    instants += 1;
                }
            }
            Engine::Classic(world) => accs.engine.time(|| world.run_until(horizon)),
        });

        // extract: finish the streaming fold, or replay the recorded trace.
        let ((steps, sent, metrics, history, trace_events), extract_ns) =
            rec.span("extract", |_| match engine {
                Engine::Sharded(world, sink) => {
                    let (steps, sent, metrics) =
                        (world.steps(), world.messages_sent(), world.metrics_map());
                    drop(world);
                    let sink = Rc::try_unwrap(sink).expect("the world dropped its sink handle");
                    (steps, sent, metrics, sink.into_inner().finish(), 0)
                }
                Engine::Classic(world) => {
                    let (steps, sent, metrics) =
                        (world.steps(), world.messages_sent(), world.metrics_map());
                    let trace = world.into_trace();
                    let history = suspicion_history(n, &trace, &pairs);
                    (steps, sent, metrics, history, trace.len() as u64)
                }
            });

        let mut rep = counted(steps, sent, history.change_count(), &metrics);
        let (_, check_ns) = rec.span("check", |_| self.check(&mut rep, &history, &crashes));

        let host_run = accs.host.ns() - host_at_build;
        let sink_run = accs.sink.ns() - sink_at_build;
        let stepsf = steps as f64;
        layers.insert("sim.engine.steps", stepsf);
        layers.insert("sim.engine.instants", instants as f64);
        layers.insert(
            "sim.engine.self_ns_per_step",
            ratio(simulate_ns.saturating_sub(host_run + sink_run) as f64, stepsf),
        );
        layers
            .insert("sim.engine.queue_depth_high_water", metrics["queue_depth_high_water"] as f64);
        layers.insert(
            "sim.engine.envelopes_per_step",
            ratio(metrics["envelopes_sent"] as f64, stepsf),
        );
        let draws = metrics
            .iter()
            .find(|(k, _)| k.starts_with("delay_ticks.") && k.ends_with(".count"))
            .map_or(0, |(_, v)| *v);
        layers.insert("sim.net.delay_draws", draws as f64);
        layers.insert("sim.world.build_ms", ms(build_ns));
        layers.insert("sim.trace.events", trace_events as f64);
        layers.insert("core.host.calls", accs.host.count() as f64);
        layers.insert("core.host.ns_per_call", accs.host.ns_per_call());
        layers.insert(
            "core.host.self_ns_per_call",
            ratio(accs.host.ns().saturating_sub(accs.dining.ns()) as f64, accs.host.count() as f64),
        );
        layers.insert(
            "core.host.resident_bytes_per_pair",
            ratio(resident_bytes as f64, pairs.len() as f64),
        );
        layers.insert("core.detector.observations", metrics["observations"] as f64);
        layers.insert("core.detector.history_changes", history.change_count() as f64);
        match self.regime {
            Regime::Dense => {
                layers.insert("core.detector.sink_ns_per_obs", accs.sink.ns_per_call());
            }
            Regime::Long => {
                layers.insert("core.detector.posthoc_ms", ms(extract_ns));
            }
        }
        layers.insert("core.scenario.check_ms", ms(check_ns));
        layers.insert("dining.wfdx.calls", accs.dining.count() as f64);
        layers.insert("dining.wfdx.ns_per_call", accs.dining.ns_per_call());
        layers.insert("fd.injected.queries", accs.fd.count() as f64);
        layers.insert("fd.injected.ns_per_query", accs.fd.ns_per_call());

        let calls = vec![
            ("sim.engine", "simulate", accs.engine.count(), accs.engine.ns()),
            ("core.host", "sim.engine", accs.host.count(), accs.host.ns()),
            ("core.detector.sink", "sim.engine", accs.sink.count(), accs.sink.ns()),
            ("dining.wfdx", "core.host", accs.dining.count(), accs.dining.ns()),
            ("fd.injected", "dining.wfdx", accs.fd.count(), accs.fd.ns()),
        ];
        Traced { rep, layers, calls }
    }

    fn beside(
        &mut self,
        rec: &mut Recorder,
        reference: &Rep,
        budget: Duration,
        layers: &mut Layers,
    ) -> Vec<String> {
        let mut failures = Vec::new();
        let depth = reference.counters.get("sim.queue_depth_high_water").copied().unwrap_or(1_000);

        let (draw_ns, _) = rec.span("replay.delay", |_| delay_draw_ns(self.seed));
        layers.insert("sim.net.delay_draw_ns", draw_ns);
        rec.span("replay.wheel", |_| {
            layers.insert("sim.wheel.push_pop_ns", wheel_push_pop_ns(self.seed, depth, draw_ns));
        });

        // The same scenario on the shard-worker pool: byte-identical output
        // is part of the contract, speed is what is measured.
        if self.regime == Regime::Dense && host::nproc() >= PAR_THREADS {
            rec.span("par2", |_| {
                let runs = repeat_for(budget, 3, || {
                    let t0 = Instant::now();
                    let (rep, res) = self.rep_with_threads(PAR_THREADS);
                    (t0.elapsed(), rep, res.worker_stats)
                });
                let mut best = 0f64;
                let (mut busy, mut wait) = (0u64, 0u64);
                for (wall, rep, stats) in &runs {
                    best = best.max(rep.ops as f64 / wall.as_secs_f64());
                    failures.extend(rep.failures.iter().map(|f| format!("par2: {f}")));
                    failures.extend(counter_diff("par2 vs serial", reference, rep));
                    for w in stats {
                        busy += w.busy_micros.sum();
                        wait += w.barrier_wait_micros.sum();
                    }
                }
                layers.insert("sim.shard.par2_steps_per_s", best);
                layers
                    .insert("sim.shard.par2_busy_share", ratio(busy as f64, (busy + wait) as f64));
                layers.insert(
                    "sim.shard.par2_barrier_wait_share",
                    ratio(wait as f64, (busy + wait) as f64),
                );
            });
        }
        failures
    }
}

/// Draws per replay loop below.
const REPLAY_OPS: u64 = 2_000_000;

/// Nanoseconds per push+pop pair of a standalone [`EventQueue`] held at
/// `depth` pending events whose due times follow the workloads' delay
/// distribution (uniform 1..=16 ticks ahead) — the queue's cost with no node
/// or routing work around it. The replay draws one delay per pair; `draw_ns`
/// (what a draw costs alone) is taken off.
fn wheel_push_pop_ns(seed: u64, depth: u64, draw_ns: f64) -> f64 {
    let mut rng = SplitMix64::new(seed);
    let mut delays = DelayModel::default_async();
    let (p, q) = (ProcessId(0), ProcessId(1));
    let mut queue: EventQueue<()> = EventQueue::new();
    let timer = || EventKind::Timer { pid: p, id: TimerId(0) };
    for _ in 0..depth.max(1) {
        queue.push(Time(delays.sample(p, q, Time::ZERO, &mut rng)), timer());
    }
    let with_draws = mean_ns(REPLAY_OPS, || {
        let ev = queue.pop().expect("the queue is held at a constant depth");
        queue.push(ev.at + delays.sample(p, q, ev.at, &mut rng), timer());
    });
    std::hint::black_box(queue.len());
    (with_draws - draw_ns).max(0.0)
}

/// Nanoseconds per [`DelayModel::sample`] of the workloads' delay model.
fn delay_draw_ns(seed: u64) -> f64 {
    let mut rng = SplitMix64::new(seed);
    let mut delays = DelayModel::default_async();
    let (p, q) = (ProcessId(0), ProcessId(1));
    let (mut sum, mut now) = (0u64, 0u64);
    let ns = mean_ns(REPLAY_OPS, || {
        sum = sum.wrapping_add(delays.sample(p, q, Time(now), &mut rng));
        now += 1;
    });
    std::hint::black_box(sum);
    ns
}
