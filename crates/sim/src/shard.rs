//! The simulator: pair partitions with a deterministic cross-shard
//! schedule, runnable sequentially or on a pool of shard-worker threads.
//!
//! A [`ShardedWorld`] runs its processes over `k` shards, one per worker
//! thread ([`shard_count`]: `k` is [`crate::world::WorldConfig::threads`]
//! clamped to `1..=n`). Shard `s` owns the processes with
//! `pid.index() % k == s` and a private [`TimerWheel`] of their pending
//! events; [`crate::world::World`] is the same engine at `k = 1`, whatever
//! its thread count. Shards exchange only cross-shard messages; everything
//! else (timers, same-shard sends) stays local. The extraction host
//! partitions pairs by the `witness_by_subject` index key — the witness
//! pid — so `pid % k` is exactly a pair partition there.
//!
//! ## The cross-shard `seq` merge rule
//!
//! A global scheduling counter would be meaningless across shards, where
//! each queue counts alone. Instead every event carries a **canonical key**
//! `(time, class, source pid, source seq)`:
//!
//! * `class 0` — crash-plan events; `source seq` is the plan index;
//! * `class 1` — node effects (deliveries, timers); `source seq` is a
//!   per-source-pid monotone effect counter. A batched step schedules its
//!   messages to one destination at one instant with consecutive seqs, so
//!   they run as adjacent steps of the receiver, in send order.
//!
//! Keys are unique (per-source counters never repeat), so ordering by key
//! is a total order — and because it never mentions shards, the schedule is
//! **independent of the shard count**: the same seed produces the same
//! steps of every process and a byte-identical metric set for any `k`,
//! hence for any thread count. The per-instant barrier is sound because every delay and timer
//! is at least one tick ([`crate::net::DelayModel::sample`] and
//! [`crate::node::Context::set_timer`] both clamp), so executing an instant
//! can only create strictly-later events.
//!
//! Shard-count independence also requires the *randomness* to be
//! per-process rather than global: each process gets its own delay-model
//! copy ([`crate::net::DelayModel::fresh`]) and its own forked
//! delay-RNG, so the draws a sender makes never depend on how senders are
//! interleaved across shards.
//!
//! ## One step, one output
//!
//! What an event does — the atomic step — is the step executor in
//! `step.rs`; a shard is that executor over its slice of the processes plus
//! the wiring this module adds (per-sender delay streams, canonical-key
//! stamping, the wheel, the outbox and the sink). The dead-from-birth rule
//! for crashes at `Time::ZERO` is documented there too.
//!
//! Every event's *effects* are confined to the shard that executes it (a
//! delivery steps the destination, a timer or crash its owner, and all of
//! a step's metrics, RNG draws, effect counters and outputs belong to that
//! same pid), so a shard executes its slice of an instant **locally, in
//! local key order**, without observing any other shard — one loop over
//! the shards by hand, one worker per shard in parallel. The world keeps no
//! record of its own: a run's crashes and observations leave the engine
//! only through the executing shard's own [`ObsSink`], as they happen, in
//! local key order — the sequential stream's projection onto the shard's
//! processes — and [`ShardedWorld::into_sinks`] hands the sinks back in
//! shard order. A recording is a [`crate::Trace`] sink per shard, joined
//! by [`crate::Trace::merge`]. Sameness across shard and thread counts is
//! pinned by the determinism matrix tests below, on a workload with several
//! shards due in most instants. Only the parallel runner asks the node
//! type to be `Send`.
//!
//! ## The instant-barrier protocol
//!
//! With two or more shards, [`ShardedWorld::run_until`] moves each shard's
//! state onto its own scoped worker thread ([`crate::pool`]): worker `s`
//! owns shard `s`. Per simulated instant the coordinator:
//!
//! 1. computes the global minimum pending time over every shard's reported
//!    wheel minimum *and* the not-yet-delivered cross-shard inbox entries;
//! 2. sends each worker a step message carrying that instant plus its
//!    shard's pending inbox entries (whatever their delivery time — the
//!    worker folds them into its wheel);
//! 3. workers execute their shards concurrently — cross-shard effects go
//!    to per-destination outboxes, crashes and observations to the shard's
//!    sink — and reply with the outbox and the wheel's new minimum;
//! 4. the coordinator routes outboxes into inboxes and updates the depth
//!    gauges.
//!
//! Dropping the step channels shuts the workers down; each returns its
//! shard state (reinstalled in the world) and a [`WorkerStats`] of
//! busy/barrier-wait wall-clock. Those stats are *deliberately not* part of
//! [`ShardedWorld::metrics_map`], which stays byte-identical across thread
//! counts; read them via [`ShardedWorld::worker_stats`].
//!
//! ## Queue-depth accounting
//!
//! The backlog counts pending events: crashes, timers and deliveries, one
//! per message, batched or not. Per-shard `queue_depth` gauges meter each
//! shard's own backlog, but the *sum of their high-water marks* is not
//! shard-count invariant (the peaks need not coincide in time). The world
//! therefore also tracks a global gauge of the instantaneous total backlog
//! across shards, updated every instant; its high water is what
//! [`ShardedWorld::metrics_map`] exports as `queue_depth_high_water`, and
//! it is byte-identical across shard counts. It never exceeds the summed
//! per-shard marks — a pinned test invariant. In parallel runs the
//! coordinator maintains shadow gauges (a shard's depth is its wheel length
//! plus its undelivered inbox entries — exactly its sequential wheel
//! length) and writes them back on shutdown.

use std::sync::mpsc;
use std::sync::Arc;

use crate::clock::{Clock, MonotonicClock};
use crate::event::EventKind;
use crate::id::ProcessId;
use crate::metrics::{Gauge, MetricMap, SimMetrics, WorkerStats};
use crate::net::DelayModel;
use crate::node::Node;
use crate::pool;
use crate::rng::SplitMix64;
use crate::step::{Executor, Fabric};
use crate::time::Time;
use crate::wheel::TimerWheel;
use crate::world::{ObsSink, WorldConfig};

/// Crash-plan events sort before node effects at the same instant.
const CLASS_CRASH: u8 = 0;
/// Node effects (deliveries, timers).
const CLASS_EFFECT: u8 = 1;

/// One pending event with its canonical merge key minus the time (which
/// the wheels key).
type Pending<M> = (u8, u32, u64, EventKind<M>);

/// A cross-shard effect: destination shard, delivery instant, event.
type OutboxEntry<M> = (usize, Time, Pending<M>);

/// Cross-shard effects the coordinator holds for one destination shard.
type Inbox<M> = Vec<(Time, Pending<M>)>;

/// One shard's complete execution state — the unit a worker thread owns:
/// the step executor over its slice of the processes (slot
/// `pid.index() / k`) and the wiring around it.
struct ShardState<N: Node, S> {
    exec: Executor<N>,
    wire: Wiring<N, S>,
    /// The due events of the instant being executed, in *descending* key
    /// order, so `pop` yields the next one.
    batch_buf: Vec<Pending<N::Msg>>,
}

/// What the engine decides around the shared step: per-sender delay
/// streams and effect counters, the shard's event wheel, and its sink.
struct Wiring<N: Node, S> {
    idx: usize,
    k: usize,
    send_rngs: Vec<SplitMix64>,
    send_delays: Vec<DelayModel>,
    /// Per-process monotone effect counters (the canonical-key `seq`).
    effect_seq: Vec<u64>,
    queue: TimerWheel<Pending<N::Msg>>,
    /// The shard's sink, the only output of its steps: sees this shard's
    /// crashes and observations in local execution order (the sequential
    /// stream's projection onto the shard).
    sink: S,
}

/// A shard's [`Fabric`]: its wiring and the cross-shard outbox.
struct Lane<'a, N: Node, S> {
    wire: &'a mut Wiring<N, S>,
    outbox: &'a mut Vec<OutboxEntry<N::Msg>>,
}

impl<N: Node, S: ObsSink<N::Obs>> Fabric<N> for Lane<'_, N, S> {
    #[inline]
    fn slot(&self, pid: ProcessId) -> usize {
        let Wiring { idx, k, .. } = *self.wire;
        debug_assert_eq!(pid.index() % k, idx, "{pid} does not live on shard {idx}");
        pid.index() / k
    }

    #[inline]
    fn sink(&mut self) -> &mut impl ObsSink<N::Obs> {
        &mut self.wire.sink
    }

    /// The sender's own delay model and stream, so its draws never depend
    /// on how senders interleave across shards.
    #[inline]
    fn delay(&mut self, slot: usize, from: ProcessId, to: ProcessId, now: Time) -> u64 {
        self.wire.send_delays[slot].sample(from, to, now, &mut self.wire.send_rngs[slot])
    }

    /// Stamps the effect with its canonical key, then routes it: the own
    /// wheel when `dest` lives here (timers always do), the outbox otherwise.
    #[inline]
    fn schedule(
        &mut self,
        slot: usize,
        source: ProcessId,
        dest: ProcessId,
        at: Time,
        kind: EventKind<N::Msg>,
    ) {
        let seq = self.wire.effect_seq[slot];
        self.wire.effect_seq[slot] = seq + 1;
        let pending = (CLASS_EFFECT, source.0, seq, kind);
        let shard = dest.index() % self.wire.k;
        if shard == self.wire.idx {
            self.wire.queue.push(at, pending);
        } else {
            self.outbox.push((shard, at, pending));
        }
    }
}

impl<N: Node, S: ObsSink<N::Obs>> ShardState<N, S> {
    /// A shard's side of an instant: moves the owned events due at `t` into
    /// `batch_buf`, sorted so that `pop` yields them in key order (keys are
    /// unique, so the sort need not be stable), and executes them, routing
    /// cross-shard effects to `outbox`. Shard-local key order is a slice of
    /// the global one. A shard with nothing due at `t` runs nothing.
    fn run_instant(&mut self, t: Time, outbox: &mut Vec<OutboxEntry<N::Msg>>) {
        debug_assert!(self.batch_buf.is_empty());
        self.wire.queue.pop_instant(t, &mut self.batch_buf);
        self.batch_buf.sort_unstable_by_key(|p| std::cmp::Reverse((p.0, p.1, p.2)));
        let mut lane = Lane { wire: &mut self.wire, outbox };
        while let Some((_, _, _, kind)) = self.batch_buf.pop() {
            self.exec.execute(t, kind, &mut lane);
        }
    }
}

/// One instant's marching orders for a worker: the instant to execute and
/// every pending cross-shard delivery for its shard (any delivery time).
struct StepMsg<M> {
    t: Time,
    inbox: Inbox<M>,
}

/// A worker's report back to the coordinator after an instant.
struct ShardReport<M> {
    qlen: usize,
    qmin: Option<Time>,
    outbox: Vec<OutboxEntry<M>>,
}

/// The worker side of the instant barrier: fold the handed-over inbox
/// entries into the shard's wheel, execute the shard's slice of the
/// instant, report. Exits when the step channel closes (coordinator
/// shutdown) and returns the shard state with its wall-clock accounting.
fn worker_loop<N: Node, S: ObsSink<N::Obs>>(
    mut st: ShardState<N, S>,
    step_rx: mpsc::Receiver<StepMsg<N::Msg>>,
    done_tx: mpsc::Sender<ShardReport<N::Msg>>,
    clock: Arc<dyn Clock>,
) -> (ShardState<N, S>, WorkerStats) {
    let mut stats = WorkerStats::new();
    loop {
        let waiting = clock.elapsed_micros();
        let Ok(StepMsg { t, inbox }) = step_rx.recv() else { break };
        stats.barrier_wait_micros.record(clock.elapsed_micros().saturating_sub(waiting));
        let busy = clock.elapsed_micros();
        for (at, p) in inbox {
            st.wire.queue.push(at, p);
        }
        let mut outbox = Vec::new();
        st.run_instant(t, &mut outbox);
        let report =
            ShardReport { qlen: st.wire.queue.len(), qmin: st.wire.queue.peek_time(), outbox };
        stats.instants.inc();
        stats.busy_micros.record(clock.elapsed_micros().saturating_sub(busy));
        if done_tx.send(report).is_err() {
            break;
        }
    }
    (st, stats)
}

/// The shard count of a world of `n` processes run on `threads` worker
/// threads: one shard per worker, at least one, and no more shards than
/// processes.
pub fn shard_count(threads: usize, n: usize) -> usize {
    threads.min(n).max(1)
}

/// The simulated world, partitioned into shards; see the module docs for
/// what sharding changes (and what it provably doesn't: the schedule).
///
/// Each shard owns one sink of type `S`, which sees that shard's crashes
/// and observations as they happen and is the run's only output.
/// [`ShardedWorld::new`] attaches none (the no-op `()`); the default `S` is
/// the boxed sink of [`ShardedWorld::new_with_sink`].
pub struct ShardedWorld<N: Node, S = Box<dyn ObsSink<<N as Node>::Obs>>> {
    shards: Vec<ShardState<N, S>>,
    n: usize,
    now: Time,
    /// Variant label of the configured delay model, for metric export.
    delay_kind: &'static str,
    /// Instantaneous total backlog across all shards (the shard-count
    /// invariant depth gauge; see the module docs).
    global_depth: Gauge,
    /// Per-worker wall-clock stats from parallel runs (empty otherwise).
    worker_stats: Vec<WorkerStats>,
    /// Wall-clock source for worker accounting; injectable for tests so the
    /// simulator itself contains no ad-hoc `Instant::now()` reads.
    clock: Arc<dyn Clock>,
    /// Reusable cross-shard outbox of the sequential path.
    outbox_buf: Vec<OutboxEntry<N::Msg>>,
}

impl<N: Node, S: ObsSink<N::Obs>> std::fmt::Debug for ShardedWorld<N, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedWorld")
            .field("nodes", &self.n)
            .field("shards", &self.shards.len())
            .field("now", &self.now)
            .field("pending", &self.pending_events())
            .finish_non_exhaustive()
    }
}

impl<N: Node> ShardedWorld<N, ()> {
    /// Builds a world of one shard per worker thread ([`shard_count`] of
    /// `cfg.threads`) and no sink over `nodes`, and delivers every node's
    /// `on_start` step at time zero. `_shards` is ignored: the `benchmark/`
    /// harness still passes a count.
    pub fn new(nodes: Vec<N>, cfg: WorldConfig, _shards: usize) -> Self {
        let k = shard_count(cfg.threads, nodes.len());
        Self::build(nodes, cfg, vec![(); k])
    }
}

impl<N: Node, S: ObsSink<N::Obs>> ShardedWorld<N, S> {
    /// Builds a one-shard world whose shard owns `sink`, which therefore
    /// sees the whole output stream in execution order, whatever
    /// `cfg.threads` says. Kept because the `benchmark/` harness names it
    /// (and passes one thread); `_shards` is ignored, as in
    /// [`ShardedWorld::new`]. Per-shard sinks are
    /// [`ShardedWorld::new_with_shard_sinks`].
    pub fn new_with_sink(nodes: Vec<N>, cfg: WorldConfig, _shards: usize, sink: S) -> Self {
        Self::build(nodes, cfg, vec![sink])
    }

    /// Builds a world with one sink *per shard*, [`shard_count`] of them:
    /// `sinks[s]` travels with shard `s` onto its worker thread and
    /// receives exactly the crashes and observations of processes
    /// `pid % k == s`, in that shard's execution order — which is the
    /// sequential stream's projection onto those processes. Sinks must be
    /// present from construction because the `on_start` steps already
    /// observe; [`ShardedWorld::into_sinks`] hands them back after the run.
    pub fn new_with_shard_sinks(nodes: Vec<N>, cfg: WorldConfig, sinks: Vec<S>) -> Self {
        let k = shard_count(cfg.threads, nodes.len());
        assert_eq!(sinks.len(), k, "one shard sink per worker thread");
        Self::build(nodes, cfg, sinks)
    }

    /// A world of one shard per sink; [`crate::world::World`] builds it with
    /// one.
    pub(crate) fn build(nodes: Vec<N>, cfg: WorldConfig, sinks: Vec<S>) -> Self {
        let (n, k) = (nodes.len(), sinks.len());
        let mut rng = SplitMix64::new(cfg.seed);
        // Fork order is load-bearing: node RNGs first, then one delay RNG
        // per process, all in pid order — then distributed round-robin so
        // the streams are shard-count invariant.
        let node_rngs: Vec<SplitMix64> = (0..n).map(|_| rng.fork()).collect();
        let send_rngs: Vec<SplitMix64> = (0..n).map(|_| rng.fork()).collect();
        let mut states: Vec<ShardState<N, S>> = sinks
            .into_iter()
            .enumerate()
            .map(|(idx, sink)| ShardState {
                exec: Executor::new(n, cfg.batch_envelopes),
                wire: Wiring {
                    idx,
                    k,
                    send_rngs: Vec::new(),
                    send_delays: Vec::new(),
                    effect_seq: Vec::new(),
                    queue: TimerWheel::new(),
                    sink,
                },
                batch_buf: Vec::new(),
            })
            .collect();
        for (i, (node, (nr, sr))) in
            nodes.into_iter().zip(node_rngs.into_iter().zip(send_rngs)).enumerate()
        {
            let st = &mut states[i % k];
            st.exec.push(node, nr);
            st.wire.send_rngs.push(sr);
            st.wire.send_delays.push(cfg.delays.fresh());
            st.wire.effect_seq.push(0);
        }
        let mut world = ShardedWorld {
            shards: states,
            n,
            now: Time::ZERO,
            delay_kind: cfg.delays.kind(),
            global_depth: Gauge::new(),
            worker_stats: Vec::new(),
            clock: Arc::new(MonotonicClock::new()),
            outbox_buf: Vec::new(),
        };
        for (plan_idx, &(pid, at)) in cfg.crashes.crashes().iter().enumerate() {
            assert!(pid.index() < n, "crash plan names unknown process {pid}");
            let kind = EventKind::Crash { pid };
            if at == Time::ZERO {
                // Dead from birth: takes effect before the start steps.
                world.run_at_zero(pid, |exec, lane| exec.execute(at, kind, lane));
            } else {
                let pending = (CLASS_CRASH, pid.0, plan_idx as u64, kind);
                world.shards[pid.index() % k].wire.queue.push(at, pending);
            }
        }
        world.update_depth_gauges();
        // Start steps in pid order, each routed at once.
        for i in 0..n {
            let pid = ProcessId::from_index(i);
            world.run_at_zero(pid, |exec, lane| exec.start(pid, lane));
        }
        world
    }

    /// Runs one construction-time step of `pid`'s shard at `Time::ZERO`
    /// (a dead-from-birth crash or a start step), routing its cross-shard
    /// effects at once.
    fn run_at_zero(
        &mut self,
        pid: ProcessId,
        f: impl FnOnce(&mut Executor<N>, &mut Lane<'_, N, S>),
    ) {
        let k = self.shards.len();
        let st = &mut self.shards[pid.index() % k];
        let mut lane = Lane { wire: &mut st.wire, outbox: &mut self.outbox_buf };
        f(&mut st.exec, &mut lane);
        self.route_outbox();
    }

    /// Moves the sequential path's cross-shard effects into their
    /// destination wheels; each is due strictly after the instant that
    /// made it.
    fn route_outbox(&mut self) {
        for (dest, at, p) in self.outbox_buf.drain(..) {
            self.shards[dest].wire.queue.push(at, p);
        }
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the system is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of shards, which is the number of worker threads
    /// [`ShardedWorld::run_until`] runs them on.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Current global time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total atomic steps dispatched, across all shards.
    pub fn steps(&self) -> u64 {
        self.shards.iter().map(|s| s.exec.metrics.steps.get()).sum()
    }

    /// Total messages sent, across all shards.
    pub fn messages_sent(&self) -> u64 {
        self.shards.iter().map(|s| s.exec.metrics.messages_sent.get()).sum()
    }

    /// Read access to a node's state.
    pub fn node(&self, pid: ProcessId) -> &N {
        let k = self.shards.len();
        &self.shards[pid.index() % k].exec.nodes()[pid.index() / k]
    }

    /// Whether `pid` has crashed already.
    pub fn is_crashed(&self, pid: ProcessId) -> bool {
        let k = self.shards.len();
        self.shards[pid.index() % k].exec.crashed()[pid.index() / k]
    }

    /// Shard `s`'s sink, as the run has fed it so far.
    pub(crate) fn sink(&self, s: usize) -> &S {
        &self.shards[s].wire.sink
    }

    /// Consumes the world, returning its sinks in shard order (shard `s`
    /// saw the processes `pid % k == s`).
    pub fn into_sinks(self) -> Vec<S> {
        self.shards.into_iter().map(|st| st.wire.sink).collect()
    }

    /// Events still pending, summed across shards.
    pub fn pending_events(&self) -> usize {
        self.shards.iter().map(|s| s.wire.queue.len()).sum()
    }

    /// One shard's metric set (per-shard backlog, sender- and
    /// executor-side counters).
    pub fn shard_metrics(&self, shard: usize) -> &SimMetrics {
        &self.shards[shard].exec.metrics
    }

    /// The shard-count-invariant global backlog gauge (see module docs).
    pub fn global_queue_depth(&self) -> &Gauge {
        &self.global_depth
    }

    /// Per-worker busy/barrier-wait wall-clock from parallel runs; empty
    /// when every run so far was sequential. Wall-clock is inherently
    /// nondeterministic, which is why these never enter
    /// [`ShardedWorld::metrics_map`].
    pub fn worker_stats(&self) -> &[WorkerStats] {
        &self.worker_stats
    }

    /// Replaces the wall-clock source used for worker accounting.
    ///
    /// Tests inject a [`crate::ManualClock`] here to make the recorded
    /// [`WorkerStats`] durations exact; production code keeps the default
    /// [`MonotonicClock`].
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }

    /// The run's metric set (counters, queue-depth gauge, delay histogram):
    /// counters and histograms are exact sums over shards, and the queue
    /// depth is the global gauge, so the whole set is byte-identical across
    /// shard counts — and thread counts — for a fixed seed.
    pub fn metrics(&self) -> SimMetrics {
        let mut merged = SimMetrics::new();
        for s in &self.shards {
            merged.absorb(&s.exec.metrics);
        }
        merged.queue_depth = self.global_depth;
        merged
    }

    /// Flattened, key-sorted [`ShardedWorld::metrics`]; the delay histogram
    /// is labeled with the configured [`crate::net::DelayModel`] variant.
    pub fn metrics_map(&self) -> MetricMap {
        self.metrics().export(self.delay_kind)
    }

    fn update_depth_gauges(&mut self) {
        let mut total = 0u64;
        for s in &mut self.shards {
            let depth = s.wire.queue.len() as u64;
            s.exec.metrics.queue_depth.set(depth);
            total += depth;
        }
        self.global_depth.set(total);
    }

    /// Executes every event due at the earliest pending instant, each
    /// shard's slice in canonical-key order, one shard after another, as
    /// the workers would. Returns `false` when all queues are empty.
    pub fn step_instant(&mut self) -> bool {
        let Some(t) = self.peek_time() else {
            return false;
        };
        debug_assert!(t >= self.now, "time must not run backwards");
        self.now = t;
        debug_assert!(self.outbox_buf.is_empty());
        for st in &mut self.shards {
            st.run_instant(t, &mut self.outbox_buf);
        }
        self.route_outbox();
        self.update_depth_gauges();
        true
    }

    /// Earliest pending instant across all shards.
    pub fn peek_time(&self) -> Option<Time> {
        self.shards.iter().filter_map(|s| s.wire.queue.peek_time()).min()
    }

    /// Runs until all queues are empty or global time exceeds `deadline`.
    ///
    /// With two or more shards the instants execute on the shard-worker
    /// pool (byte-identical results; see the module docs), which is why
    /// this — unlike
    /// [`ShardedWorld::step_instant`] — asks the node type to be `Send`.
    /// Nodes that are not `Send` run through [`crate::World`], whose
    /// drivers are sequential.
    pub fn run_until(&mut self, deadline: Time)
    where
        N: Send,
        N::Msg: Send,
        N::Obs: Send,
        S: Send,
    {
        if self.shards.len() >= 2 {
            self.run_parallel(deadline);
        }
        self.run_sequential(deadline);
    }

    /// Runs for `d` more ticks of virtual time (see [`ShardedWorld::run_until`]).
    pub fn run_for(&mut self, d: u64)
    where
        N: Send,
        N::Msg: Send,
        N::Obs: Send,
        S: Send,
    {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Runs one instant at a time on the calling thread until all queues
    /// are empty or global time exceeds `deadline`.
    pub(crate) fn run_sequential(&mut self, deadline: Time) {
        while self.peek_time().is_some_and(|t| t <= deadline) {
            self.step_instant();
        }
        self.now = self.now.max(deadline);
    }

    /// The parallel driver: moves each shard's state onto its own pool
    /// worker and runs the instant-barrier protocol from the module docs until the
    /// deadline passes or the system drains, then reinstalls the states.
    fn run_parallel(&mut self, deadline: Time)
    where
        N: Send,
        N::Msg: Send,
        N::Obs: Send,
        S: Send,
    {
        match self.peek_time() {
            Some(t) if t <= deadline => {}
            _ => return,
        }
        let k = self.shards.len();
        let mut qmin: Vec<Option<Time>> = Vec::with_capacity(k);
        let mut qlen: Vec<usize> = Vec::with_capacity(k);
        let mut depth_shadow: Vec<Gauge> = Vec::with_capacity(k);
        let mut step_txs = Vec::with_capacity(k);
        let mut done_rxs = Vec::with_capacity(k);
        let mut tasks: Vec<pool::WorkerFn<'_, (ShardState<N, S>, WorkerStats)>> =
            Vec::with_capacity(k);
        for st in self.shards.drain(..) {
            qmin.push(st.wire.queue.peek_time());
            qlen.push(st.wire.queue.len());
            depth_shadow.push(st.exec.metrics.queue_depth);
            let (step_tx, step_rx) = mpsc::channel::<StepMsg<N::Msg>>();
            let (done_tx, done_rx) = mpsc::channel::<ShardReport<N::Msg>>();
            step_txs.push(step_tx);
            done_rxs.push(done_rx);
            let clock = Arc::clone(&self.clock);
            tasks.push(Box::new(move || worker_loop(st, step_rx, done_tx, clock)));
        }
        let mut inbox: Vec<Inbox<N::Msg>> = (0..k).map(|_| Vec::new()).collect();
        let mut global_shadow = self.global_depth;
        let now = &mut self.now;
        let (results, (inbox, depth_shadow, global_shadow)) =
            pool::run_with_coordinator(tasks, move || {
                'run: loop {
                    // The effective shard minimum counts undelivered inbox
                    // entries — they are wheel entries the worker just has
                    // not folded in yet.
                    let t = (0..k)
                        .filter_map(|s| {
                            let inbox_min = inbox[s].iter().map(|&(at, _)| at).min();
                            match (qmin[s], inbox_min) {
                                (Some(a), Some(b)) => Some(a.min(b)),
                                (a, b) => a.or(b),
                            }
                        })
                        .min();
                    let Some(t) = t else { break };
                    if t > deadline {
                        break;
                    }
                    *now = t;
                    for (s, tx) in step_txs.iter().enumerate() {
                        let inbox = std::mem::take(&mut inbox[s]);
                        if tx.send(StepMsg { t, inbox }).is_err() {
                            break 'run;
                        }
                    }
                    for (s, rx) in done_rxs.iter().enumerate() {
                        let Ok(rep) = rx.recv() else { break 'run };
                        qmin[s] = rep.qmin;
                        qlen[s] = rep.qlen;
                        for (dest, at, p) in rep.outbox {
                            inbox[dest].push((at, p));
                        }
                    }
                    // Depth accounting identical to the sequential path: a
                    // shard's undelivered inbox entries are part of its
                    // backlog.
                    let mut total = 0u64;
                    for s in 0..k {
                        let depth = (qlen[s] + inbox[s].len()) as u64;
                        depth_shadow[s].set(depth);
                        total += depth;
                    }
                    global_shadow.set(total);
                }
                drop(step_txs);
                (inbox, depth_shadow, global_shadow)
            });
        if self.worker_stats.len() < k {
            self.worker_stats.resize_with(k, WorkerStats::new);
        }
        for (s, ((st, stats), entries)) in results.into_iter().zip(inbox).enumerate() {
            self.worker_stats[s].absorb(&stats);
            self.shards.push(st);
            for (at, p) in entries {
                self.shards[s].wire.queue.push(at, p);
            }
        }
        debug_assert_eq!(self.shards.len(), k, "workers return every shard");
        for (s, g) in depth_shadow.into_iter().enumerate() {
            self.shards[s].exec.metrics.queue_depth = g;
        }
        self.global_depth = global_shadow;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::CrashPlan;
    use crate::net::ChannelStaller;
    use crate::node::{Context, TimerId};
    use crate::recorded::{self, Rec, Recorded};
    use crate::trace::Trace;
    use crate::world::World;

    /// A node that floods a token around a ring `k` times.
    #[derive(Debug)]
    struct RingNode {
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

    fn ring(n: usize, hops: u32) -> Vec<RingNode> {
        (0..n).map(|_| RingNode { n, hops_left: hops, received: 0 }).collect()
    }

    /// A sink that keeps every observation it is shown.
    #[derive(Debug, Default)]
    struct FoldSink {
        seen: Vec<(Time, ProcessId, u32)>,
    }

    impl ObsSink<u32> for FoldSink {
        fn on_obs(&mut self, at: Time, pid: ProcessId, obs: &u32) {
            self.seen.push((at, pid, *obs));
        }
    }

    fn cfg(seed: u64, n: usize, batch: bool) -> WorldConfig {
        let cfg = WorldConfig::new(seed)
            .delays(DelayModel::harsh())
            .crashes(CrashPlan::one(ProcessId((n - 1) as u32), Time(150)));
        if batch {
            cfg.batch_envelopes()
        } else {
            cfg
        }
    }

    /// A node that, each round, sends `copies` messages to every other
    /// process (peer by peer, copy after copy) and observes every receipt:
    /// most instants have several shards due, so their slices must
    /// interleave by key.
    #[derive(Debug)]
    struct AllToAll {
        n: usize,
        rounds_left: u32,
        copies: u32,
    }

    impl Node for AllToAll {
        type Msg = u32;
        type Obs = u32;

        fn on_start(&mut self, ctx: &mut Context<'_, u32, u32>) {
            ctx.set_timer(1 + ctx.me().index() as u64 % 3, TimerId(0));
        }

        fn on_message(&mut self, ctx: &mut Context<'_, u32, u32>, from: ProcessId, msg: u32) {
            ctx.observe(from.0 * 1000 + msg);
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, u32, u32>, _id: TimerId) {
            let me = ctx.me().index();
            for c in 0..self.copies {
                for p in (0..self.n).filter(|&p| p != me) {
                    ctx.send(ProcessId::from_index(p), self.rounds_left * 10 + c);
                }
            }
            if self.rounds_left > 0 {
                self.rounds_left -= 1;
                ctx.set_timer(2, TimerId(0));
            }
        }
    }

    /// A world of `nodes`, wrapped to record their sends and deliveries,
    /// with a recording sink on each of its `threads` shards.
    type Recording<N> = ShardedWorld<Recorded<N>, Trace<Rec<u32, u32>>>;

    fn recording<N: Node<Msg = u32, Obs = u32>>(nodes: Vec<N>, cfg: WorldConfig) -> Recording<N> {
        let sinks = (0..shard_count(cfg.threads, nodes.len())).map(|_| Trace::default()).collect();
        ShardedWorld::new_with_shard_sinks(Recorded::all(nodes), cfg, sinks)
    }

    /// The shards' recordings joined by [`Trace::merge`]: every process's
    /// crash, sends, deliveries and observations in the order its shard
    /// recorded them, which the shard count must not change.
    fn merged<N: Node<Msg = u32, Obs = u32>>(w: Recording<N>) -> String {
        format!("{:?}", Trace::merge(w.into_sinks()).events())
    }

    /// What a run must reproduce at every shard and thread count: clock,
    /// the merged recording, and the metric export.
    type Run = (Time, MetricMap, String);

    /// A drained all-to-all run of 7 processes on `threads` shards,
    /// recording sends, deliveries, observations and one mid-run crash:
    /// drained by hand or through `run_until` (on the worker pool when
    /// `threads` ≥ 2), then run to the same deadline.
    fn all_to_all(seed: u64, threads: usize, batch: bool, by_hand: bool) -> Run {
        let n = 7;
        let nodes = (0..n).map(|_| AllToAll { n, rounds_left: 12, copies: 1 }).collect();
        let cfg = cfg(seed, n, batch).crashes(CrashPlan::one(ProcessId(4), Time(20)));
        let mut w = recording(nodes, cfg.threads(threads));
        assert_eq!(w.shards(), threads);
        if by_hand {
            while w.step_instant() {}
        }
        w.run_until(Time(1_000_000));
        (w.now(), w.metrics_map(), merged(w))
    }

    /// A ring run of 6 processes on `threads` shards, stepped by hand.
    fn run(seed: u64, threads: usize, batch: bool) -> Run {
        let n = 6;
        let mut w = recording(ring(n, 300), cfg(seed, n, batch).threads(threads));
        assert_eq!(w.shards(), threads);
        while w.step_instant() {}
        (w.now(), w.metrics_map(), merged(w))
    }

    /// The shard-count determinism matrix: same seed ⇒ the same merged
    /// recording and byte-identical metrics for 1, 2, 4 and 6 shards,
    /// including the exported `queue_depth_high_water`, each world stepped
    /// by hand. The ring has one token, so one shard is due per instant;
    /// the all-to-all rows put several shards in most instants.
    #[test]
    fn shard_count_never_changes_the_run() {
        for batch in [false, true] {
            let reference = run(90, 1, batch);
            for shards in [2, 4, 6] {
                let got = run(90, shards, batch);
                assert_eq!(got, reference, "shards={shards} batch={batch} diverged");
            }
            let reference = all_to_all(90, 1, batch, true);
            for shards in 2..=4 {
                let got = all_to_all(90, shards, batch, true);
                assert!(got == reference, "all-to-all shards={shards} batch={batch} diverged");
            }
        }
    }

    /// One shard per worker thread, at most one per process; `World` is
    /// one shard whatever its thread count, and the count passed to `new`
    /// is ignored.
    #[test]
    fn a_world_runs_one_shard_per_worker_thread() {
        for (threads, shards) in [(1, 1), (2, 2), (4, 4), (16, 6)] {
            let w = ShardedWorld::new(ring(6, 10), WorldConfig::new(1).threads(threads), 3);
            assert_eq!(w.shards(), shards, "threads={threads}");
        }
        assert_eq!(World::new(ring(6, 10), WorldConfig::new(1).threads(4)).shards(), 1);
        assert_eq!(shard_count(0, 5), 1);
        assert_eq!(shard_count(3, 0), 1);
    }

    /// The batched schedule, pinned. Every step sends each peer two
    /// messages, peer by peer, so grouping decides it: one delay draw per
    /// destination in first-occurrence order, and a destination's messages
    /// delivered as adjacent steps in send order. The digest of the run's
    /// `Send`/`Deliver` records was taken when a destination's messages
    /// still travelled as one envelope event; drawing a delay per message,
    /// or scheduling in send order across destinations, moves it.
    #[test]
    fn batched_schedule_is_pinned() {
        let n = 5;
        let nodes = (0..n).map(|_| AllToAll { n, rounds_left: 6, copies: 2 });
        let cfg = cfg(41, n, true).crashes(CrashPlan::one(ProcessId(3), Time(6)));
        let mut w = World::new(Recorded::all(nodes), cfg);
        while w.step_instant() {}
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut records = 0;
        for (_, _, rec) in w.trace().observations() {
            if rec.is_wire() {
                for b in format!("{rec:?}").bytes() {
                    digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
                records += 1;
            }
        }
        assert_eq!((records, digest), (440, 0x0f03_42cc_755b_8ef9));
        let m = w.metrics();
        assert_eq!((m.messages_sent.get(), m.envelopes_sent.get()), (248, 124));
        assert_eq!(m.delay_ticks.count(), 124, "one delay draw per destination");
    }

    #[test]
    fn different_seeds_still_diverge() {
        assert_ne!(run(90, 4, false).2, run(91, 4, false).2);
    }

    /// Drives the ring run through `run_until` on `threads` workers; the
    /// deadline drains the workload completely, so the artifacts are
    /// comparable across thread counts.
    fn run_threaded(seed: u64, threads: usize, batch: bool) -> Run {
        let n = 6;
        let mut w = recording(ring(n, 300), cfg(seed, n, batch).threads(threads));
        w.run_until(Time(1_000_000));
        (w.now(), w.metrics_map(), merged(w))
    }

    /// The thread-count determinism matrix: the parallel instant-barrier
    /// run equals the sequential one — the merged recording, metrics,
    /// and the exported depth gauges — at 2, 4 and 8 threads (8 clamps to
    /// the ring's 6 processes), including a mid-run crash and envelope
    /// batching. The all-to-all rows run 1 to 4 shards stepped by hand, and
    /// 2 to 4 on the worker pool.
    #[test]
    fn parallel_run_is_byte_identical_to_sequential() {
        for batch in [false, true] {
            let reference = run_threaded(90, 1, batch);
            for threads in [2, 4, 8] {
                let got = run_threaded(90, threads, batch);
                assert_eq!(got, reference, "threads={threads} batch={batch}");
            }
            let reference = all_to_all(90, 1, batch, false);
            let by_hand = (1..=4).map(|t| (t, true));
            let pooled = (2..=4).map(|t| (t, false));
            for (threads, by_hand) in by_hand.chain(pooled) {
                let got = all_to_all(90, threads, batch, by_hand);
                assert!(
                    got == reference,
                    "all-to-all threads={threads} by_hand={by_hand} batch={batch} diverged"
                );
            }
        }
    }

    /// Deadline-bounded parallel runs resume exactly like sequential ones:
    /// pending cross-shard inbox entries are flushed back into the wheels
    /// at shutdown, so a later run continues the same schedule.
    #[test]
    fn parallel_resume_matches_sequential() {
        let drive = |threads: usize| {
            let mut w = recording(ring(6, 300), cfg(11, 6, false).threads(threads));
            w.run_until(Time(120));
            w.run_until(Time(720));
            (w.now(), w.metrics_map(), merged(w))
        };
        assert_eq!(drive(4), drive(1));
    }

    #[test]
    fn parallel_runs_record_worker_stats() {
        let mut w = ShardedWorld::new(ring(6, 300), cfg(90, 6, false).threads(4), 4);
        w.run_until(Time(1_000_000));
        assert_eq!(w.worker_stats().len(), 4);
        let instants: u64 = w.worker_stats().iter().map(|s| s.instants.get()).sum();
        assert!(instants > 0, "workers must have stepped instants");
        // Sequential runs leave no worker stats.
        let mut seq = ShardedWorld::new(ring(6, 300), cfg(90, 6, false), 1);
        seq.run_until(Time(1_000_000));
        assert!(seq.worker_stats().is_empty());
        // Nor does the one-shard `World`, whatever the thread budget.
        let mut one = World::new(ring(6, 300), cfg(90, 6, false).threads(4));
        one.run_until(Time(1_000_000));
        assert!(one.worker_stats().is_empty());
    }

    /// More threads than processes: the world clamps to one shard (and one
    /// worker) per process, the run still drains, and the artifacts stay
    /// byte-identical to sequential.
    #[test]
    fn more_threads_than_processes_clamps_to_one_shard_each() {
        let mut w = recording(ring(6, 300), cfg(90, 6, false).threads(16));
        w.run_until(Time(1_000_000));
        assert_eq!(w.worker_stats().len(), 6, "worker pool must clamp to the process count");
        let got = (w.now(), w.metrics_map(), merged(w));
        assert_eq!(got, run_threaded(90, 1, false));
    }

    /// The worker wall-clock accounting reads the injected [`Clock`]: with
    /// a frozen [`crate::ManualClock`] every recorded duration is exactly
    /// zero while the sample counts still advance.
    #[test]
    fn worker_stats_read_the_injected_clock() {
        let mut w = ShardedWorld::new(ring(6, 300), cfg(90, 6, false).threads(2), 2);
        w.set_clock(Arc::new(crate::ManualClock::new()));
        w.run_until(Time(1_000_000));
        assert_eq!(w.worker_stats().len(), 2);
        for s in w.worker_stats() {
            assert!(s.instants.get() > 0, "workers must have stepped instants");
            assert!(s.busy_micros.count() > 0);
            assert_eq!(s.busy_micros.sum(), 0, "frozen clock ⇒ zero busy time");
            assert_eq!(s.barrier_wait_micros.sum(), 0, "frozen clock ⇒ zero wait time");
        }
    }

    #[test]
    fn global_high_water_is_bounded_by_summed_shard_marks() {
        let n = 6;
        let mut w = ShardedWorld::new(ring(n, 300), cfg(5, n, false).threads(4), 4);
        assert_eq!(w.shards(), 4);
        while w.step_instant() {}
        let summed: u64 =
            (0..w.shards()).map(|s| w.shard_metrics(s).queue_depth.high_water()).sum();
        let global = w.global_queue_depth().high_water();
        assert!(global >= 1);
        assert!(
            global <= summed,
            "global high water {global} must not exceed summed shard marks {summed}"
        );
        // And the export carries the global mark, not the sum.
        assert_eq!(w.metrics_map()["queue_depth_high_water"], global);
    }

    #[test]
    fn counters_sum_exactly_across_shards() {
        let n = 6;
        let mut w = ShardedWorld::new(ring(n, 200), cfg(7, n, false).threads(4), 4);
        assert_eq!(w.shards(), 4);
        while w.step_instant() {}
        let m = w.metrics_map();
        assert_eq!(m["messages_sent"], w.messages_sent());
        assert_eq!(m["steps"], w.steps());
        assert_eq!(
            m["messages_delivered"] + m["messages_dropped"],
            m["messages_sent"],
            "every sent message is delivered or dropped once the run drains"
        );
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut w = ShardedWorld::new(ring(4, 1000), WorldConfig::new(9).threads(2), 2);
        w.run_until(Time(50));
        assert!(w.now() >= Time(50));
        let before = w.steps();
        w.run_for(400);
        assert!(w.steps() > before);
    }

    /// A scripted adversary is shared by every sender's copy of the delay
    /// model, so a stalled-channel run is one run at any shard count.
    #[test]
    fn a_channel_staller_run_is_shard_count_invariant() {
        let run = |threads: usize| {
            let staller = ChannelStaller {
                stalled: vec![(ProcessId(1), ProcessId(2)), (ProcessId(3), ProcessId(4))],
                release_at: Time(200),
                benign_hi: 8,
            };
            let cfg = WorldConfig::new(17)
                .delays(DelayModel::Scripted(Arc::new(staller)))
                .crashes(CrashPlan::one(ProcessId(5), Time(300)))
                .threads(threads);
            let mut w = recording(ring(6, 120), cfg);
            w.run_until(Time(1_000_000));
            (w.now(), w.metrics_map(), merged(w))
        };
        let reference = run(1);
        assert!(reference.1["delay_ticks.scripted.max"] >= 190, "the stall must bite");
        for threads in [2, 4] {
            assert_eq!(run(threads), reference, "threads={threads}");
        }
    }

    /// Per-shard sinks riding worker threads each see exactly the
    /// sequential observation stream's projection onto their shard's pids,
    /// and come back in shard order.
    #[test]
    fn shard_sinks_see_their_pids_in_trace_order() {
        let shards = 3;
        let sinks = (0..shards).map(|_| FoldSink::default()).collect();
        let cfg = WorldConfig::new(9).threads(shards);
        let mut w = ShardedWorld::new_with_shard_sinks(ring(4, 23), cfg, sinks);
        w.run_until(Time(1_000_000));
        let sinks = w.into_sinks();
        assert_eq!(sinks.len(), shards);
        let mut one = World::new(ring(4, 23), WorldConfig::new(9));
        one.run_until(Time(1_000_000));
        let trace = one.into_trace();
        let mut total = 0;
        for (s, sink) in sinks.iter().enumerate() {
            let expect: Vec<(Time, ProcessId, u32)> = trace
                .observations()
                .filter(|(_, p, _)| p.index() % shards == s)
                .map(|(t, p, &o)| (t, p, o))
                .collect();
            assert_eq!(sink.seen, expect, "shard {s} projection diverged");
            total += sink.seen.len();
        }
        assert!(total > 0, "the workload must observe something");
    }

    #[test]
    fn token_circulates_until_exhausted() {
        let mut w = World::new(Recorded::all(ring(4, 11)), WorldConfig::new(3));
        while w.step_instant() {}
        // 12 deliveries total (hops 11..=0).
        assert_eq!(recorded::delivered(w.trace()), 12);
        let total: u32 = (0..4).map(|i| w.node(ProcessId(i)).inner().received).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn crashed_process_stops_participating() {
        let cfg = WorldConfig::new(5)
            .crashes(CrashPlan::one(ProcessId(1), Time(1)))
            .delays(DelayModel::Fixed(10));
        let mut w = World::new(Recorded::all(ring(3, 30)), cfg);
        while w.step_instant() {}
        // p1 crashes at t=1 before the token (sent at t=0, arriving t=10)
        // reaches it, so the token dies at p1: only p0's initial send exists.
        assert_eq!(recorded::sent(w.trace()), 1);
        assert_eq!(recorded::delivered(w.trace()), 0);
        assert_eq!(w.trace().crashes().collect::<Vec<_>>(), [(Time(1), ProcessId(1))]);
        assert!(w.is_crashed(ProcessId(1)));
        assert!(!w.is_crashed(ProcessId(0)));
    }

    #[test]
    fn metrics_mirror_the_accessors() {
        let mut w = World::new(Recorded::all(ring(4, 25)), WorldConfig::new(3));
        while w.step_instant() {}
        let m = w.metrics();
        assert_eq!(m.steps.get(), w.steps());
        assert_eq!(m.messages_sent.get(), w.messages_sent());
        assert_eq!(m.messages_sent.get(), recorded::sent(w.trace()) as u64);
        assert_eq!(m.messages_delivered.get(), recorded::delivered(w.trace()) as u64);
        assert_eq!(m.delay_ticks.count(), w.messages_sent(), "every send samples one delay");
        assert!(m.queue_depth.high_water() >= 1);
        assert_eq!(m.queue_depth.get(), 0, "drained world has an empty queue");
        let map = w.metrics_map();
        assert_eq!(map["steps"], w.steps());
        assert!(map.contains_key("delay_ticks.uniform.count"), "histogram labeled by model");
    }

    #[test]
    fn observations_are_chronological() {
        let mut w = World::new(ring(3, 100), WorldConfig::new(11));
        while w.step_instant() {}
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
        while w.step_instant() {}
        assert_eq!(w.node(ProcessId(0)).fired, 7);
        assert_eq!(w.now(), Time(35));
    }

    #[test]
    fn obs_sink_attachment_does_not_change_the_schedule() {
        let bare = {
            let mut w = World::new(ring(5, 40), WorldConfig::new(77));
            while w.step_instant() {}
            (w.now(), w.steps(), w.messages_sent())
        };
        let sunk = {
            let mut w = ShardedWorld::new_with_sink(
                ring(5, 40),
                WorldConfig::new(77),
                1,
                FoldSink::default(),
            );
            while w.step_instant() {}
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
        while w.step_instant() {}
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
        // every per-message draw, so for a single destination the two
        // schedules must agree exactly.
        let run = |batch: bool| {
            let cfg = WorldConfig::new(8).delays(DelayModel::Fixed(7));
            let cfg = if batch { cfg.batch_envelopes() } else { cfg };
            let mut w = World::new(burst_nodes(7, 3), cfg);
            while w.step_instant() {}
            (w.now(), w.node(ProcessId(1)).received.clone())
        };
        assert_eq!(run(false), run(true));
    }
}
