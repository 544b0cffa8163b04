//! The simulated world: processes + channels + faults + global clock.
//!
//! [`World`] is the classic simulator family: one global event queue
//! popped in `(time, scheduling order)`, one global delay stream. What a
//! popped event *does* — the atomic step, crash discard (including the
//! dead-from-birth rule for crashes at `Time::ZERO`), counters, routing —
//! is the step executor in `step.rs`, shared with
//! [`crate::shard::ShardedWorld`]; this module only wires it up.

use crate::event::{EventKind, EventQueue, QueueBackend};
use crate::fault::CrashPlan;
use crate::id::ProcessId;
use crate::metrics::SimMetrics;
use crate::net::DelayModel;
use crate::node::Node;
use crate::rng::SplitMix64;
use crate::step::{Executor, Fabric};
use crate::time::Time;
use crate::trace::{Trace, TraceEvent};

/// A streaming consumer of observations.
///
/// Attached via [`World::new_with_sink`], the sink sees every observation
/// *as its emitting step's effects are routed* — in exactly the order the
/// trace would record them — so consumers can fold run output online
/// instead of materializing the full event log and replaying it through
/// [`World::into_trace`]. Combined with
/// [`WorldConfig::observation_events_off`], a run's resident footprint
/// becomes whatever the sink keeps, independent of run length.
///
/// Sinks are observers only: they cannot influence the run, and attaching
/// one never changes the schedule (no RNG draws, no event reordering).
pub trait ObsSink<O> {
    /// Called once per observation, in dispatch order.
    fn on_obs(&mut self, at: Time, pid: ProcessId, obs: &O);
}

/// Shared-handle convenience: a `Rc<RefCell<S>>` sink lets the caller keep
/// a handle while the world owns the boxed clone (the usual pattern for
/// recovering the folded state after the run).
impl<O, S: ObsSink<O>> ObsSink<O> for std::rc::Rc<std::cell::RefCell<S>> {
    fn on_obs(&mut self, at: Time, pid: ProcessId, obs: &O) {
        self.borrow_mut().on_obs(at, pid, obs);
    }
}

/// `Send`-able shared-handle convenience, for sinks that cross a thread
/// boundary (the per-shard sinks of a parallel
/// [`crate::shard::ShardedWorld`]). Each such sink is owned by exactly one
/// shard worker, so the mutex is uncontended; it exists only to let the
/// caller keep a recovery handle.
impl<O, S: ObsSink<O>> ObsSink<O> for std::sync::Arc<std::sync::Mutex<S>> {
    fn on_obs(&mut self, at: Time, pid: ProcessId, obs: &O) {
        self.lock().expect("sink poisoned").on_obs(at, pid, obs);
    }
}

/// Configuration of one run.
#[derive(Debug)]
pub struct WorldConfig {
    /// Root seed; all stochastic choices derive from it.
    pub seed: u64,
    /// Channel delay policy.
    pub delays: DelayModel,
    /// Crash schedule.
    pub crashes: CrashPlan,
    /// Record `Send`/`Deliver` events in the trace. Off by default: long
    /// sweeps only need observations.
    pub record_messages: bool,
    /// Record `Obs` events in the trace. On by default; streaming consumers
    /// turn it off and attach an [`ObsSink`] instead, so the trace no longer
    /// grows with the observation count.
    pub record_observations: bool,
    /// Coalesce all messages one atomic step sends to the same destination
    /// into a single wire envelope with a single delay draw (FIFO within
    /// the envelope). Off by default — the paper's model puts every message
    /// on the wire alone; batching is a throughput knob whose occupancy is
    /// measured by [`SimMetrics::envelope_occupancy`].
    pub batch_envelopes: bool,
    /// Which data structure backs the event queue. The timer wheel is the
    /// default; the heap is kept for differential runs (the two are
    /// asserted pop-identical, so this knob never changes a schedule).
    pub queue: QueueBackend,
    /// Worker threads for [`crate::shard::ShardedWorld::run_until`]: with
    /// `threads ≥ 2` *and* at least two shards, instants execute on a
    /// persistent shard-worker pool behind a deterministic barrier merge —
    /// byte-identical to the sequential run, so this knob only buys
    /// wall-clock. The classic [`World`] ignores it. `1` (the default)
    /// means fully sequential.
    pub threads: usize,
}

impl WorldConfig {
    /// A failure-free, moderately asynchronous configuration.
    pub fn new(seed: u64) -> Self {
        WorldConfig {
            seed,
            delays: DelayModel::default_async(),
            crashes: CrashPlan::none(),
            record_messages: false,
            record_observations: true,
            batch_envelopes: false,
            queue: QueueBackend::default(),
            threads: 1,
        }
    }

    /// Sets the delay model (builder style).
    pub fn delays(mut self, delays: DelayModel) -> Self {
        self.delays = delays;
        self
    }

    /// Sets the crash plan (builder style).
    pub fn crashes(mut self, crashes: CrashPlan) -> Self {
        self.crashes = crashes;
        self
    }

    /// Enables message recording (builder style).
    pub fn record_messages(mut self) -> Self {
        self.record_messages = true;
        self
    }

    /// Disables observation recording in the trace (builder style) — for
    /// streaming runs where an [`ObsSink`] consumes observations online.
    pub fn observation_events_off(mut self) -> Self {
        self.record_observations = false;
        self
    }

    /// Enables envelope batching (builder style).
    pub fn batch_envelopes(mut self) -> Self {
        self.batch_envelopes = true;
        self
    }

    /// Selects the event-queue backend (builder style).
    pub fn queue_backend(mut self, queue: QueueBackend) -> Self {
        self.queue = queue;
        self
    }

    /// Sets the sharded-world worker-thread count (builder style). Clamped
    /// to at least 1.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// A complete simulated system executing one run.
///
/// The world advances by draining a deterministic event queue. Each popped
/// event triggers one atomic step of one node, executed by the step
/// executor both simulator families share (`step.rs`); this type adds the
/// classic family's wiring — one global queue, one global delay stream,
/// emissions straight into the trace and sink.
pub struct World<N: Node> {
    exec: Executor<N>,
    now: Time,
    fabric: Classic<N>,
}

/// The classic family's [`Fabric`]: state of process `p` at slot `p`,
/// scheduled events ordered by one global [`EventQueue`], every delay drawn
/// from one global stream in dispatch order, trace events and observations
/// emitted inline.
struct Classic<N: Node> {
    queue: EventQueue<N::Msg>,
    delays: DelayModel,
    rng: SplitMix64,
    trace: Trace<N::Msg, N::Obs>,
    record_observations: bool,
    obs_sink: Option<Box<dyn ObsSink<N::Obs>>>,
}

impl<N: Node> Fabric<N> for Classic<N> {
    #[inline]
    fn slot(&self, pid: ProcessId) -> usize {
        pid.index()
    }

    #[inline]
    fn emit(&mut self, ev: TraceEvent<N::Msg, N::Obs>) {
        self.trace.push(ev);
    }

    #[inline]
    fn observe(&mut self, at: Time, pid: ProcessId, obs: N::Obs) {
        if let Some(sink) = self.obs_sink.as_mut() {
            sink.on_obs(at, pid, &obs);
        }
        if self.record_observations {
            self.trace.push(TraceEvent::Obs { at, pid, obs });
        }
    }

    #[inline]
    fn delay(&mut self, _slot: usize, from: ProcessId, to: ProcessId, now: Time) -> u64 {
        self.delays.sample(from, to, now, &mut self.rng)
    }

    #[inline]
    fn schedule(
        &mut self,
        _slot: usize,
        _source: ProcessId,
        _dest: ProcessId,
        at: Time,
        kind: EventKind<N::Msg>,
    ) {
        self.queue.push(at, kind);
    }
}

impl<N: Node> std::fmt::Debug for World<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("nodes", &self.len())
            .field("crashed", &self.exec.crashed())
            .field("now", &self.now)
            .field("queue_len", &self.fabric.queue.len())
            .finish_non_exhaustive()
    }
}

impl<N: Node> World<N> {
    /// Builds a world over `nodes` and delivers every node's `on_start` step
    /// at time zero.
    pub fn new(nodes: Vec<N>, cfg: WorldConfig) -> Self {
        Self::build(nodes, cfg, None)
    }

    /// Builds a world with a streaming [`ObsSink`] attached. The sink must
    /// be present from construction because the `on_start` steps run inside
    /// it — attaching a sink after `new` would miss their observations.
    pub fn new_with_sink(nodes: Vec<N>, cfg: WorldConfig, sink: Box<dyn ObsSink<N::Obs>>) -> Self {
        Self::build(nodes, cfg, Some(sink))
    }

    fn build(nodes: Vec<N>, cfg: WorldConfig, obs_sink: Option<Box<dyn ObsSink<N::Obs>>>) -> Self {
        let n = nodes.len();
        let mut rng = SplitMix64::new(cfg.seed);
        let mut exec = Executor::new(n, cfg.record_messages, cfg.batch_envelopes);
        for node in nodes {
            exec.push(node, rng.fork());
        }
        let fabric = Classic {
            queue: EventQueue::with_backend(cfg.queue),
            delays: cfg.delays,
            rng,
            trace: Trace::new(cfg.record_messages),
            record_observations: cfg.record_observations,
            obs_sink,
        };
        let mut world = World { exec, now: Time::ZERO, fabric };
        for &(pid, at) in cfg.crashes.crashes() {
            assert!(pid.index() < n, "crash plan names unknown process {pid}");
            if at == Time::ZERO {
                // Dead from birth: takes effect before the start steps.
                world.exec.execute(at, EventKind::Crash { pid }, &mut world.fabric);
            } else {
                world.fabric.queue.push(at, EventKind::Crash { pid });
            }
        }
        // Start steps run immediately, in id order, before any event.
        for i in 0..n {
            world.exec.start(ProcessId::from_index(i), &mut world.fabric);
        }
        world.exec.metrics.queue_depth.set(world.fabric.queue.len() as u64);
        world
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.exec.nodes().len()
    }

    /// Whether the system is empty (it never is in practice).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current global time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total atomic steps dispatched so far.
    pub fn steps(&self) -> u64 {
        self.exec.metrics.steps.get()
    }

    /// Total messages sent so far (counted even when the trace does not
    /// record message events).
    pub fn messages_sent(&self) -> u64 {
        self.exec.metrics.messages_sent.get()
    }

    /// Total messages delivered to live processes so far.
    pub fn messages_delivered(&self) -> u64 {
        self.exec.metrics.messages_delivered.get()
    }

    /// The full metric set of this run (counters, queue-depth gauge, delay
    /// histogram). All values are logical quantities: reruns of the same
    /// seed produce identical metrics.
    pub fn metrics(&self) -> &SimMetrics {
        &self.exec.metrics
    }

    /// Flattened, key-sorted metric export; the delay histogram is labeled
    /// with this world's [`DelayModel`] variant.
    pub fn metrics_map(&self) -> crate::metrics::MetricMap {
        self.exec.metrics.export(self.fabric.delays.kind())
    }

    /// Read access to a node's state (for assertions and extraction).
    pub fn node(&self, pid: ProcessId) -> &N {
        &self.exec.nodes()[pid.index()]
    }

    /// Whether `pid` has crashed already.
    pub fn is_crashed(&self, pid: ProcessId) -> bool {
        self.exec.crashed()[pid.index()]
    }

    /// The recorded trace so far.
    pub fn trace(&self) -> &Trace<N::Msg, N::Obs> {
        &self.fabric.trace
    }

    /// Consumes the world, returning the trace. Any attached [`ObsSink`] is
    /// dropped here; keep a shared handle (see the `Rc<RefCell<_>>` blanket
    /// impl) or call [`World::take_obs_sink`] first to recover its state.
    pub fn into_trace(self) -> Trace<N::Msg, N::Obs> {
        self.fabric.trace
    }

    /// Detaches and returns the streaming sink, if one was attached. Later
    /// observations are no longer streamed anywhere.
    pub fn take_obs_sink(&mut self) -> Option<Box<dyn ObsSink<N::Obs>>> {
        self.fabric.obs_sink.take()
    }

    /// Number of events still pending.
    pub fn pending_events(&self) -> usize {
        self.fabric.queue.len()
    }

    /// Executes the next event, if any. Returns `false` when the queue is
    /// exhausted (the system is quiescent).
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.fabric.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time must not run backwards");
        self.now = ev.at;
        self.exec.execute(ev.at, ev.kind, &mut self.fabric);
        // Executing an event only pushes, so the backlog peaks here.
        self.exec.metrics.queue_depth.set(self.fabric.queue.len() as u64);
        true
    }

    /// Runs until the queue is empty or global time exceeds `deadline`.
    pub fn run_until(&mut self, deadline: Time) {
        while let Some(t) = self.fabric.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs for `d` more ticks of virtual time.
    pub fn run_for(&mut self, d: u64) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }
}

impl<N: Node> dinefd_runtime::Runtime<N> for World<N> {
    /// The simulated backend of the runtime contract: `on_start` steps were
    /// already dispatched at construction, so this drains the event queue to
    /// `horizon` (virtual ticks) and projects the observation events out of
    /// the recorded trace. Requires observation recording to be on (the
    /// [`WorldConfig`] default).
    fn run_to_horizon(&mut self, horizon: Time) -> Vec<dinefd_runtime::ObsRecord<N::Obs>> {
        self.run_until(horizon);
        self.trace()
            .observations()
            .map(|(at, who, obs)| dinefd_runtime::ObsRecord { at, who, obs: obs.clone() })
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::node::{Context, TimerId};

    /// A node that floods a token around a ring `k` times (also the
    /// `ShardedWorld` unit tests' workload).
    #[derive(Debug)]
    pub(crate) struct RingNode {
        n: usize,
        hops_left: u32,
        received: u32,
    }

    impl Node for RingNode {
        type Msg = u32;
        type Obs = u32;

        fn on_start(&mut self, ctx: &mut Context<'_, u32, u32>) {
            if ctx.me() == ProcessId(0) {
                let next = ProcessId::from_index((ctx.me().index() + 1) % self.n);
                ctx.send(next, self.hops_left);
            }
        }

        fn on_message(&mut self, ctx: &mut Context<'_, u32, u32>, _from: ProcessId, msg: u32) {
            self.received += 1;
            ctx.observe(msg);
            if msg > 0 {
                let next = ProcessId::from_index((ctx.me().index() + 1) % self.n);
                ctx.send(next, msg - 1);
            }
        }
    }

    pub(crate) fn ring(n: usize, hops: u32) -> Vec<RingNode> {
        (0..n).map(|_| RingNode { n, hops_left: hops, received: 0 }).collect()
    }

    #[test]
    fn token_circulates_until_exhausted() {
        let mut w = World::new(ring(4, 11), WorldConfig::new(3).record_messages());
        while w.step() {}
        // 12 deliveries total (hops 11..=0).
        assert_eq!(w.trace().delivered_count(), 12);
        let total: u32 = (0..4).map(|i| w.node(ProcessId(i)).received).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn same_seed_same_run() {
        let run = |seed: u64| {
            let mut w = World::new(ring(5, 40), WorldConfig::new(seed).record_messages());
            while w.step() {}
            (w.now(), w.trace().len())
        };
        assert_eq!(run(77), run(77));
        // Different seeds virtually always give different schedules.
        assert_ne!(run(77).0, run(78).0);
    }

    #[test]
    fn crashed_process_stops_participating() {
        let cfg = WorldConfig::new(5)
            .crashes(CrashPlan::one(ProcessId(1), Time(1)))
            .delays(DelayModel::Fixed(10))
            .record_messages();
        let mut w = World::new(ring(3, 30), cfg);
        while w.step() {}
        // p1 crashes at t=1 before the token (sent at t=0, arriving t=10)
        // reaches it, so the token dies at p1: only p0's initial send exists.
        assert_eq!(w.trace().sent_count(), 1);
        assert_eq!(w.trace().delivered_count(), 0);
        assert!(w.is_crashed(ProcessId(1)));
        assert!(!w.is_crashed(ProcessId(0)));
    }

    #[test]
    fn metrics_mirror_legacy_accessors() {
        let mut w = World::new(ring(4, 25), WorldConfig::new(3).record_messages());
        while w.step() {}
        let m = w.metrics();
        assert_eq!(m.steps.get(), w.steps());
        assert_eq!(m.messages_sent.get(), w.messages_sent());
        assert_eq!(m.messages_delivered.get(), w.messages_delivered());
        assert_eq!(m.delay_ticks.count(), w.messages_sent(), "every send samples one delay");
        assert!(m.queue_depth.high_water() >= 1);
        assert_eq!(m.queue_depth.get(), 0, "drained world has an empty queue");
        let map = w.metrics_map();
        assert_eq!(map["steps"], w.steps());
        assert!(map.contains_key("delay_ticks.uniform.count"), "histogram labeled by model");
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut w = World::new(ring(4, 1000), WorldConfig::new(9));
        w.run_until(Time(50));
        assert!(w.now() >= Time(50));
        let before = w.trace().observations().count();
        w.run_for(200);
        assert!(w.trace().observations().count() > before);
    }

    #[test]
    fn observations_are_chronological() {
        let mut w = World::new(ring(3, 100), WorldConfig::new(11));
        while w.step() {}
        let times: Vec<Time> = w.trace().observations().map(|(t, _, _)| t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    /// A node that re-arms a timer a fixed number of times.
    #[derive(Debug)]
    struct TimerNode {
        fired: u32,
        limit: u32,
    }

    impl Node for TimerNode {
        type Msg = ();
        type Obs = u32;

        fn on_start(&mut self, ctx: &mut Context<'_, (), u32>) {
            ctx.set_timer(5, TimerId(0));
        }

        fn on_message(&mut self, _ctx: &mut Context<'_, (), u32>, _from: ProcessId, _msg: ()) {}

        fn on_timer(&mut self, ctx: &mut Context<'_, (), u32>, id: TimerId) {
            assert_eq!(id, TimerId(0));
            self.fired += 1;
            ctx.observe(self.fired);
            if self.fired < self.limit {
                ctx.set_timer(5, TimerId(0));
            }
        }
    }

    #[test]
    fn timers_fire_and_rearm() {
        let mut w = World::new(vec![TimerNode { fired: 0, limit: 7 }], WorldConfig::new(1));
        while w.step() {}
        assert_eq!(w.node(ProcessId(0)).fired, 7);
        assert_eq!(w.now(), Time(35));
    }

    /// A sink that keeps every observation it is shown.
    #[derive(Debug, Default)]
    pub(crate) struct FoldSink {
        pub(crate) seen: Vec<(Time, ProcessId, u32)>,
    }

    impl ObsSink<u32> for FoldSink {
        fn on_obs(&mut self, at: Time, pid: ProcessId, obs: &u32) {
            self.seen.push((at, pid, *obs));
        }
    }

    #[test]
    fn obs_sink_attachment_does_not_change_the_schedule() {
        let bare = {
            let mut w = World::new(ring(5, 40), WorldConfig::new(77));
            while w.step() {}
            (w.now(), w.steps(), w.messages_sent())
        };
        let sunk = {
            let sink = std::rc::Rc::new(std::cell::RefCell::new(FoldSink::default()));
            let mut w = World::new_with_sink(ring(5, 40), WorldConfig::new(77), Box::new(sink));
            while w.step() {}
            (w.now(), w.steps(), w.messages_sent())
        };
        assert_eq!(bare, sunk);
    }

    /// A node that sends a burst of messages to one peer per timer fire —
    /// the shape envelope batching coalesces.
    #[derive(Debug)]
    struct Burst {
        rounds_left: u32,
        burst: u32,
        received: Vec<u32>,
    }

    impl Node for Burst {
        type Msg = u32;
        type Obs = u32;

        fn on_start(&mut self, ctx: &mut Context<'_, u32, u32>) {
            if ctx.me() == ProcessId(0) {
                ctx.set_timer(5, TimerId(0));
            }
        }

        fn on_message(&mut self, ctx: &mut Context<'_, u32, u32>, _from: ProcessId, msg: u32) {
            self.received.push(msg);
            ctx.observe(msg);
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, u32, u32>, _id: TimerId) {
            for k in 0..self.burst {
                ctx.send(ProcessId(1), self.rounds_left * 100 + k);
            }
            if self.rounds_left > 0 {
                self.rounds_left -= 1;
                ctx.set_timer(5, TimerId(0));
            }
        }
    }

    fn burst_nodes(rounds: u32, burst: u32) -> Vec<Burst> {
        (0..2).map(|_| Burst { rounds_left: rounds, burst, received: Vec::new() }).collect()
    }

    #[test]
    fn envelope_batching_coalesces_per_step_sends_with_one_delay_draw() {
        let cfg = WorldConfig::new(3).batch_envelopes();
        let mut w = World::new(burst_nodes(9, 4), cfg);
        while w.step() {}
        let m = w.metrics();
        assert_eq!(m.messages_sent.get(), 40, "10 timer fires x 4 msgs");
        assert_eq!(m.envelopes_sent.get(), 10, "one envelope per bursting step");
        assert_eq!(m.delay_ticks.count(), 10, "one delay draw per envelope");
        assert_eq!(m.envelope_occupancy.count(), 10);
        assert_eq!(m.envelope_occupancy.max(), 4);
        assert_eq!(m.envelope_occupancy.sum(), m.messages_sent.get());
        assert_eq!(m.messages_delivered.get(), 40, "every message still delivered");
    }

    #[test]
    fn envelope_batching_off_matches_on_under_fixed_delays() {
        // With a deterministic delay model the single envelope draw equals
        // every per-message draw, so the two schedules are identical up to
        // within-instant interleaving across *different* destinations —
        // for a single destination the runs must agree exactly.
        let run = |batch: bool| {
            let cfg = WorldConfig::new(8).delays(DelayModel::Fixed(7));
            let cfg = if batch { cfg.batch_envelopes() } else { cfg };
            let mut w = World::new(burst_nodes(7, 3), cfg);
            while w.step() {}
            (w.now(), w.node(ProcessId(1)).received.clone())
        };
        assert_eq!(run(false), run(true));
    }

    /// Tentpole differential: the timer wheel and the binary heap must
    /// produce byte-identical runs — same final clock, same trace, same
    /// metrics — across delay models, batching, and crashes.
    #[test]
    fn wheel_and_heap_worlds_are_byte_identical() {
        let delay_models: [fn() -> DelayModel; 3] =
            [DelayModel::default_async, DelayModel::harsh, || DelayModel::Fixed(3)];
        let run = |backend: QueueBackend, delays: fn() -> DelayModel, batch: bool| {
            let cfg = WorldConfig::new(41)
                .delays(delays())
                .crashes(CrashPlan::one(ProcessId(2), Time(60)))
                .record_messages()
                .queue_backend(backend);
            let cfg = if batch { cfg.batch_envelopes() } else { cfg };
            let mut w = World::new(ring(5, 200), cfg);
            while w.step() {}
            (w.now(), w.metrics_map(), format!("{:?}", w.trace().events()))
        };
        for batch in [false, true] {
            for delays in delay_models {
                let wheel = run(QueueBackend::Wheel, delays, batch);
                let heap = run(QueueBackend::Heap, delays, batch);
                assert_eq!(wheel, heap, "backend divergence (batch={batch})");
            }
        }
    }
}
