//! Sharded worlds: pair partitions with a deterministic cross-shard merge,
//! runnable sequentially or on a pool of shard-worker threads.
//!
//! A [`ShardedWorld`] runs the same discrete-event semantics as
//! [`crate::world::World`] over `k` shards, each owning the processes with
//! `pid.index() % k == shard` and a private [`TimerWheel`] of their pending
//! events. Shards exchange only cross-shard messages; everything else
//! (timers, same-shard sends) stays local. The extraction host partitions
//! pairs by the `witness_by_subject` index key — the witness pid — so
//! `pid % k` is exactly a pair partition there.
//!
//! ## The cross-shard `seq` merge rule
//!
//! A single `World` tie-breaks same-instant events by its global scheduling
//! counter `seq` — meaningless across shards, where each queue counts
//! alone. Instead every event carries a **canonical key**
//! `(time, class, source pid, source seq)`:
//!
//! * `class 0` — crash-plan events; `source seq` is the plan index;
//! * `class 1` — node effects (sends, envelopes, timers); `source seq` is a
//!   per-source-pid monotone effect counter.
//!
//! Keys are unique (per-source counters never repeat), so ordering by key
//! is a total order — and because it never mentions shards, the schedule is
//! **independent of the shard count**: the same seed produces a
//! byte-identical trace and metric set for any `k`. The per-instant barrier
//! is sound because every delay and timer is at least one tick
//! ([`crate::net::DelayModel::sample`] and
//! [`crate::node::Context::set_timer`] both clamp), so executing an instant
//! can only create strictly-later events.
//!
//! Shard-count independence also requires the *randomness* to be
//! per-process rather than global: each process gets its own delay-model
//! clone ([`crate::net::DelayModel::try_clone`]) and its own forked
//! delay-RNG, so the draws a sender makes never depend on how senders are
//! interleaved across shards.
//!
//! ## One engine, two drivers
//!
//! What an event does — the atomic step — is the step executor in
//! `step.rs`, the same one [`crate::world::World`] drives; a shard is that
//! executor over its slice of the processes plus the wiring this module
//! adds (per-sender delay streams, canonical-key stamping, the wheel and
//! the outbox). The dead-from-birth rule for crashes at `Time::ZERO` is
//! documented there too.
//!
//! Every event's *state effects* are confined to the shard that executes it
//! (a delivery steps the destination, a timer or crash its owner, and all
//! of a step's metrics, RNG draws, and effect counters belong to that same
//! pid), so a shard can execute its slice of an instant **locally, in local
//! key order**, without observing any other shard. The only globally
//! ordered artifacts — trace events and streamed observations — are not
//! emitted inline but appended to a per-shard **emission log** tagged with
//! the executing event's canonical key. After every instant the coordinator
//! concatenates the shard logs (in shard order), stably sorts by key, and
//! replays: because keys are unique per event and one event's emissions are
//! contiguous in a single shard's log, the replay reproduces exactly the
//! order a single global key-sorted execution would have produced.
//!
//! Both the sequential [`ShardedWorld::step_instant`] and the parallel
//! runner drive this *same* engine, so parallel determinism is structural
//! rather than a discipline over duplicated code.
//!
//! ## The instant-barrier protocol
//!
//! With [`crate::world::WorldConfig::threads`] ≥ 2 (and ≥ 2 shards),
//! [`ShardedWorld::run_until`] moves the shard states onto a pool of
//! scoped worker threads ([`crate::pool`]); worker `w` owns shards
//! `s % workers == w`. Per simulated instant the coordinator:
//!
//! 1. computes the global minimum pending time over every shard's reported
//!    wheel minimum *and* the not-yet-delivered cross-shard inbox entries;
//! 2. sends each worker a step message carrying that instant plus all
//!    pending inbox entries for its shards (whatever their delivery time —
//!    the worker folds them into its wheels);
//! 3. workers execute due shards concurrently — cross-shard effects go to
//!    per-destination outboxes, emissions to the per-shard log — and reply
//!    with logs, outboxes, and new queue minima;
//! 4. the coordinator routes outboxes into inboxes, merges and replays the
//!    logs exactly as in the sequential path, and updates the depth gauges.
//!
//! Dropping the step channels shuts the workers down; each returns its
//! shard states (reinstalled in the world) and a [`WorkerStats`] of
//! busy/barrier-wait wall-clock. Those stats are *deliberately not* part of
//! [`ShardedWorld::metrics_map`], which stays byte-identical across thread
//! counts; read them via [`ShardedWorld::worker_stats`].
//!
//! ## Queue-depth accounting
//!
//! Per-shard `queue_depth` gauges meter each shard's own backlog, but the
//! *sum of their high-water marks* is not shard-count invariant (the peaks
//! need not coincide in time). The coordinator therefore also tracks a
//! global gauge of the instantaneous total backlog across shards, updated
//! every instant; its high water is what [`ShardedWorld::metrics_map`]
//! exports as `queue_depth_high_water`, and it is byte-identical across
//! shard counts. It never exceeds the summed per-shard marks — a pinned
//! test invariant. In parallel runs the coordinator maintains shadow
//! gauges (a shard's depth is its wheel length plus its undelivered inbox
//! entries — exactly its sequential wheel length) and writes them back on
//! shutdown.

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
use crate::trace::{Trace, TraceEvent};
use crate::wheel::TimerWheel;
use crate::world::{ObsSink, WorldConfig};

/// Crash-plan events sort before node effects at the same instant.
const CLASS_CRASH: u8 = 0;
/// Node effects (sends, envelopes, timers).
const CLASS_EFFECT: u8 = 1;

/// The canonical merge key minus the time (which the wheels key).
type MergeKey = (u8, u32, u64);

/// One pending event with its canonical merge key (minus the time).
type Pending<M> = (u8, u32, u64, EventKind<M>);

/// A globally ordered emission produced while executing one event: a trace
/// record, or an observation bound for the coordinator-side sink.
#[derive(Debug)]
enum Emit<M, O> {
    Trace(TraceEvent<M, O>),
    Obs(ProcessId, O),
}

/// One emission-log entry: the executing event's key plus the emission.
type LogEntry<M, O> = (MergeKey, Emit<M, O>);

/// A cross-shard effect: destination shard, delivery instant, event.
type OutboxEntry<M> = (usize, Time, Pending<M>);

/// Cross-shard effects the coordinator holds for one destination shard.
type Inbox<M> = Vec<(Time, Pending<M>)>;

/// Why a [`ShardedWorld`] could not be constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardBuildError {
    /// `shards == 0` was requested.
    NoShards,
    /// The configured delay model has no per-process clone
    /// ([`DelayModel::try_clone`] returned `None` — it is
    /// [`DelayModel::Scripted`]).
    UncloneableDelayModel,
}

impl std::fmt::Display for ShardBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardBuildError::NoShards => f.write_str("a sharded world needs at least one shard"),
            ShardBuildError::UncloneableDelayModel => f.write_str(
                "sharded worlds need a cloneable delay model (Scripted is not; \
                 use a World or a deterministic model instead)",
            ),
        }
    }
}

impl std::error::Error for ShardBuildError {}

/// One shard's complete execution state — the unit a worker thread owns:
/// the step executor over its slice of the processes (slot
/// `pid.index() / k`) and the sharded family's wiring around it.
struct ShardState<N: Node> {
    exec: Executor<N>,
    wire: Wiring<N>,
    batch_buf: Vec<Pending<N::Msg>>,
}

/// What the sharded family decides around the shared step: per-sender delay
/// streams and effect counters, the shard's event wheel, and its optional
/// streaming sink.
struct Wiring<N: Node> {
    idx: usize,
    k: usize,
    send_rngs: Vec<SplitMix64>,
    send_delays: Vec<DelayModel>,
    /// Per-process monotone effect counters (the canonical-key `seq`).
    effect_seq: Vec<u64>,
    queue: TimerWheel<Pending<N::Msg>>,
    /// Per-shard streaming sink; sees this shard's observations in local
    /// execution order (the sequential stream's projection onto the shard).
    sink: Option<Box<dyn ObsSink<N::Obs> + Send>>,
    /// Whether observations must be logged for coordinator replay (trace
    /// recording or a global sink is active).
    log_obs: bool,
    /// Canonical key of the event currently executing; tags log entries.
    cur_key: MergeKey,
}

/// A shard's [`Fabric`] for the span of one event: its wiring plus the
/// coordinator's emission log and cross-shard outbox.
struct Lane<'a, N: Node> {
    wire: &'a mut Wiring<N>,
    log: &'a mut Vec<LogEntry<N::Msg, N::Obs>>,
    outbox: &'a mut Vec<OutboxEntry<N::Msg>>,
}

impl<N: Node> Fabric<N> for Lane<'_, N> {
    #[inline]
    fn slot(&self, pid: ProcessId) -> usize {
        let Wiring { idx, k, .. } = *self.wire;
        debug_assert_eq!(pid.index() % k, idx, "{pid} does not live on shard {idx}");
        pid.index() / k
    }

    #[inline]
    fn emit(&mut self, ev: TraceEvent<N::Msg, N::Obs>) {
        self.log.push((self.wire.cur_key, Emit::Trace(ev)));
    }

    #[inline]
    fn observe(&mut self, at: Time, pid: ProcessId, obs: N::Obs) {
        if let Some(sink) = self.wire.sink.as_mut() {
            sink.on_obs(at, pid, &obs);
        }
        if self.wire.log_obs {
            self.log.push((self.wire.cur_key, Emit::Obs(pid, obs)));
        }
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

impl<N: Node> ShardState<N> {
    /// Executes every owned event due at instant `t`, in canonical-key
    /// order, appending emissions to `log` and cross-shard effects to
    /// `outbox`. The caller guarantees `t` is this shard's wheel minimum.
    fn run_instant(
        &mut self,
        t: Time,
        log: &mut Vec<LogEntry<N::Msg, N::Obs>>,
        outbox: &mut Vec<OutboxEntry<N::Msg>>,
    ) {
        debug_assert!(self.batch_buf.is_empty());
        while self.wire.queue.peek_time() == Some(t) {
            self.batch_buf.push(self.wire.queue.pop().expect("peeked event exists").1);
        }
        // Local slice of the deterministic merge: keys are unique, so
        // shard-by-shard key order composes to the global key order.
        self.batch_buf.sort_by_key(|a| (a.0, a.1, a.2));
        let mut lane = Lane { wire: &mut self.wire, log, outbox };
        for (class, source, seq, kind) in self.batch_buf.drain(..) {
            lane.wire.cur_key = (class, source, seq);
            self.exec.execute(t, kind, &mut lane);
        }
    }
}

/// Replays one merged emission on the coordinator: trace events verbatim,
/// observations through the global sink first and then (if recorded) into
/// the trace — the exact order the sequential inline path used.
fn replay_entry<M, O>(
    trace: &mut Trace<M, O>,
    obs_sink: &mut Option<Box<dyn ObsSink<O>>>,
    record_observations: bool,
    at: Time,
    e: Emit<M, O>,
) {
    match e {
        Emit::Trace(ev) => trace.push(ev),
        Emit::Obs(pid, obs) => {
            if let Some(sink) = obs_sink.as_mut() {
                sink.on_obs(at, pid, &obs);
            }
            if record_observations {
                trace.push(TraceEvent::Obs { at, pid, obs });
            }
        }
    }
}

/// One instant's marching orders for a worker: the instant to execute and
/// every pending cross-shard delivery for its shards (any delivery time).
struct StepMsg<M> {
    t: Time,
    inboxes: Vec<(usize, Inbox<M>)>,
}

/// One shard's report back to the coordinator after an instant.
struct ShardReport<M, O> {
    shard: usize,
    qlen: usize,
    qmin: Option<Time>,
    log: Vec<LogEntry<M, O>>,
    outbox: Vec<OutboxEntry<M>>,
}

/// What a worker hands back on shutdown: the shard states it owned
/// (slot-tagged) and its wall-clock accounting.
type WorkerReturn<N> = (Vec<(usize, ShardState<N>)>, WorkerStats);

/// The worker side of the instant barrier: fold handed-over inbox entries
/// into the owned wheels, execute due shards, report. Exits when the step
/// channel closes (coordinator shutdown) and returns its shard states.
fn worker_loop<N: Node>(
    mut owned: Vec<(usize, ShardState<N>)>,
    step_rx: mpsc::Receiver<StepMsg<N::Msg>>,
    done_tx: mpsc::Sender<Vec<ShardReport<N::Msg, N::Obs>>>,
    clock: Arc<dyn Clock>,
) -> WorkerReturn<N> {
    let mut stats = WorkerStats::new();
    loop {
        let waiting = clock.elapsed_micros();
        let Ok(StepMsg { t, inboxes }) = step_rx.recv() else { break };
        stats.barrier_wait_micros.record(clock.elapsed_micros().saturating_sub(waiting));
        let busy = clock.elapsed_micros();
        for (s, entries) in inboxes {
            let st =
                &mut owned.iter_mut().find(|(i, _)| *i == s).expect("inbox for an owned shard").1;
            for (at, p) in entries {
                st.wire.queue.push(at, p);
            }
        }
        let mut reports = Vec::with_capacity(owned.len());
        for (s, st) in owned.iter_mut() {
            let mut log = Vec::new();
            let mut outbox = Vec::new();
            if st.wire.queue.peek_time() == Some(t) {
                st.run_instant(t, &mut log, &mut outbox);
            }
            reports.push(ShardReport {
                shard: *s,
                qlen: st.wire.queue.len(),
                qmin: st.wire.queue.peek_time(),
                log,
                outbox,
            });
        }
        stats.instants.inc();
        stats.busy_micros.record(clock.elapsed_micros().saturating_sub(busy));
        if done_tx.send(reports).is_err() {
            break;
        }
    }
    (owned, stats)
}

/// A sharded simulated world. Construction, stepping, and observation
/// mirror [`crate::world::World`]; see the module docs for what sharding
/// changes (and what it provably doesn't: the schedule).
pub struct ShardedWorld<N: Node> {
    shards: Vec<ShardState<N>>,
    n: usize,
    now: Time,
    /// Worker threads `run_until` may use (from [`WorldConfig::threads`]).
    threads: usize,
    /// Variant label of the configured delay model, for metric export.
    delay_kind: &'static str,
    trace: Trace<N::Msg, N::Obs>,
    record_observations: bool,
    obs_sink: Option<Box<dyn ObsSink<N::Obs>>>,
    /// Instantaneous total backlog across all shards (the shard-count
    /// invariant depth gauge; see the module docs).
    global_depth: Gauge,
    /// Per-worker wall-clock stats from parallel runs (empty otherwise).
    worker_stats: Vec<WorkerStats>,
    /// Wall-clock source for worker accounting; injectable for tests so the
    /// simulator itself contains no ad-hoc `Instant::now()` reads.
    clock: Arc<dyn Clock>,
    // Reusable merge buffers for the sequential path.
    log_buf: Vec<LogEntry<N::Msg, N::Obs>>,
    outbox_buf: Vec<OutboxEntry<N::Msg>>,
}

impl<N: Node> std::fmt::Debug for ShardedWorld<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedWorld")
            .field("nodes", &self.n)
            .field("shards", &self.shards.len())
            .field("threads", &self.threads)
            .field("now", &self.now)
            .field("pending", &self.pending_events())
            .finish_non_exhaustive()
    }
}

impl<N: Node> ShardedWorld<N> {
    /// Builds a `k`-shard world over `nodes` and delivers every node's
    /// `on_start` step at time zero.
    ///
    /// # Panics
    ///
    /// On any [`ShardBuildError`]; use [`ShardedWorld::try_new`] to handle
    /// those as values.
    pub fn new(nodes: Vec<N>, cfg: WorldConfig, shards: usize) -> Self {
        Self::try_new(nodes, cfg, shards).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`ShardedWorld::new`]: rejects `shards == 0` and delay
    /// models without a per-process clone instead of panicking.
    pub fn try_new(
        nodes: Vec<N>,
        cfg: WorldConfig,
        shards: usize,
    ) -> Result<Self, ShardBuildError> {
        Self::build(nodes, cfg, shards, None, None)
    }

    /// Builds a sharded world with a streaming [`ObsSink`] attached (the
    /// `on_start` observations stream through it, as in
    /// [`crate::world::World::new_with_sink`]).
    ///
    /// # Panics
    ///
    /// On any [`ShardBuildError`]; see [`ShardedWorld::try_new_with_sink`].
    pub fn new_with_sink(
        nodes: Vec<N>,
        cfg: WorldConfig,
        shards: usize,
        sink: Box<dyn ObsSink<N::Obs>>,
    ) -> Self {
        Self::try_new_with_sink(nodes, cfg, shards, sink).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`ShardedWorld::new_with_sink`].
    pub fn try_new_with_sink(
        nodes: Vec<N>,
        cfg: WorldConfig,
        shards: usize,
        sink: Box<dyn ObsSink<N::Obs>>,
    ) -> Result<Self, ShardBuildError> {
        Self::build(nodes, cfg, shards, Some(sink), None)
    }

    /// Builds a sharded world with one `Send` streaming sink *per shard*:
    /// `sinks[s]` travels with shard `s` onto its worker thread and
    /// receives exactly the observations of processes `pid % shards == s`,
    /// in that shard's execution order — which is the sequential stream's
    /// projection onto those processes. This is the parallel-extraction
    /// hook: per-shard folds merged deterministically afterwards.
    pub fn try_new_with_shard_sinks(
        nodes: Vec<N>,
        cfg: WorldConfig,
        shards: usize,
        sinks: Vec<Box<dyn ObsSink<N::Obs> + Send>>,
    ) -> Result<Self, ShardBuildError> {
        assert_eq!(sinks.len(), shards, "one shard sink per shard");
        Self::build(nodes, cfg, shards, None, Some(sinks))
    }

    fn build(
        nodes: Vec<N>,
        cfg: WorldConfig,
        shards: usize,
        obs_sink: Option<Box<dyn ObsSink<N::Obs>>>,
        shard_sinks: Option<Vec<Box<dyn ObsSink<N::Obs> + Send>>>,
    ) -> Result<Self, ShardBuildError> {
        if shards == 0 {
            return Err(ShardBuildError::NoShards);
        }
        if cfg.delays.try_clone().is_none() {
            return Err(ShardBuildError::UncloneableDelayModel);
        }
        let n = nodes.len();
        let k = shards;
        let mut rng = SplitMix64::new(cfg.seed);
        // Fork order is load-bearing: node RNGs first (matching `World`),
        // then one delay RNG per process, all in pid order — then
        // distributed round-robin so the streams are shard-count invariant.
        let node_rngs: Vec<SplitMix64> = (0..n).map(|_| rng.fork()).collect();
        let send_rngs: Vec<SplitMix64> = (0..n).map(|_| rng.fork()).collect();
        let log_obs = cfg.record_observations || obs_sink.is_some();
        let mut sinks = shard_sinks.map(Vec::into_iter);
        let mut states: Vec<ShardState<N>> = (0..k)
            .map(|idx| ShardState {
                exec: Executor::new(n, cfg.record_messages, cfg.batch_envelopes),
                wire: Wiring {
                    idx,
                    k,
                    send_rngs: Vec::new(),
                    send_delays: Vec::new(),
                    effect_seq: Vec::new(),
                    queue: TimerWheel::new(),
                    sink: sinks.as_mut().and_then(Iterator::next),
                    log_obs,
                    cur_key: (CLASS_EFFECT, 0, 0),
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
            st.wire.send_delays.push(cfg.delays.try_clone().expect("cloneability checked above"));
            st.wire.effect_seq.push(0);
        }
        let mut world = ShardedWorld {
            shards: states,
            n,
            now: Time::ZERO,
            threads: cfg.threads.max(1),
            delay_kind: cfg.delays.kind(),
            trace: Trace::new(cfg.record_messages),
            record_observations: cfg.record_observations,
            obs_sink,
            global_depth: Gauge::new(),
            worker_stats: Vec::new(),
            clock: Arc::new(MonotonicClock::new()),
            log_buf: Vec::new(),
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
        // Start steps in pid order, each settled at once, reproducing
        // exactly the emissions of a sequential inline run.
        for i in 0..n {
            let pid = ProcessId::from_index(i);
            world.run_at_zero(pid, |exec, lane| exec.start(pid, lane));
        }
        Ok(world)
    }

    /// Runs one construction-time step of `pid`'s shard at `Time::ZERO`
    /// (a dead-from-birth crash or a start step) and settles it at once.
    fn run_at_zero(&mut self, pid: ProcessId, f: impl FnOnce(&mut Executor<N>, &mut Lane<'_, N>)) {
        let k = self.shards.len();
        let st = &mut self.shards[pid.index() % k];
        st.wire.cur_key = (CLASS_EFFECT, pid.0, 0);
        let mut lane =
            Lane { wire: &mut st.wire, log: &mut self.log_buf, outbox: &mut self.outbox_buf };
        f(&mut st.exec, &mut lane);
        self.settle(Time::ZERO);
    }

    /// Closes the instant `t` whose shard slices just ran: routes the
    /// outbox into the destination wheels, then merges and replays the
    /// emission log.
    fn settle(&mut self, t: Time) {
        for (dest, at, p) in self.outbox_buf.drain(..) {
            self.shards[dest].wire.queue.push(at, p);
        }
        // The deterministic merge: stable-sorting the shard-ordered log
        // concatenation by the unique canonical keys reproduces the order
        // a single global key-sorted execution would emit.
        self.log_buf.sort_by_key(|e| e.0);
        for (_, e) in self.log_buf.drain(..) {
            replay_entry(&mut self.trace, &mut self.obs_sink, self.record_observations, t, e);
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

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Worker-thread budget for [`ShardedWorld::run_until`].
    pub fn threads(&self) -> usize {
        self.threads
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

    /// The recorded trace so far.
    pub fn trace(&self) -> &Trace<N::Msg, N::Obs> {
        &self.trace
    }

    /// Consumes the world, returning the trace.
    pub fn into_trace(self) -> Trace<N::Msg, N::Obs> {
        self.trace
    }

    /// Detaches and returns the streaming sink, if one was attached.
    pub fn take_obs_sink(&mut self) -> Option<Box<dyn ObsSink<N::Obs>>> {
        self.obs_sink.take()
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

    /// Merged metric export. Counters and histograms are exact sums over
    /// shards; `queue_depth_high_water` / `queue_depth_final` come from
    /// the global gauge, so the whole map is byte-identical across shard
    /// counts — and thread counts — for a fixed seed.
    pub fn metrics_map(&self) -> MetricMap {
        let mut merged = SimMetrics::new();
        for s in &self.shards {
            merged.absorb(&s.exec.metrics);
        }
        merged.queue_depth = self.global_depth;
        merged.export(self.delay_kind)
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

    /// Executes every event due at the earliest pending instant, in
    /// canonical-key order. Returns `false` when all queues are empty.
    pub fn step_instant(&mut self) -> bool {
        let Some(t) = self.peek_time() else {
            return false;
        };
        debug_assert!(t >= self.now, "time must not run backwards");
        self.now = t;
        debug_assert!(self.log_buf.is_empty() && self.outbox_buf.is_empty());
        for s in &mut self.shards {
            if s.wire.queue.peek_time() == Some(t) {
                s.run_instant(t, &mut self.log_buf, &mut self.outbox_buf);
            }
        }
        self.settle(t);
        self.update_depth_gauges();
        true
    }

    /// Earliest pending instant across all shards.
    pub fn peek_time(&self) -> Option<Time> {
        self.shards.iter().filter_map(|s| s.wire.queue.peek_time()).min()
    }

    /// Runs until all queues are empty or global time exceeds `deadline`.
    ///
    /// With [`WorldConfig::threads`] ≥ 2 and at least two shards the
    /// instants execute on the shard-worker pool (byte-identical results;
    /// see the module docs), which is why this — unlike
    /// [`ShardedWorld::step_instant`] — asks the node type to be `Send`.
    pub fn run_until(&mut self, deadline: Time)
    where
        N: Send,
        N::Msg: Send,
        N::Obs: Send,
    {
        if self.threads >= 2 && self.shards.len() >= 2 {
            self.run_parallel(deadline);
        } else {
            while let Some(t) = self.peek_time() {
                if t > deadline {
                    break;
                }
                self.step_instant();
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs for `d` more ticks of virtual time (see [`ShardedWorld::run_until`]).
    pub fn run_for(&mut self, d: u64)
    where
        N: Send,
        N::Msg: Send,
        N::Obs: Send,
    {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// The parallel driver: moves the shard states onto pool workers and
    /// runs the instant-barrier protocol from the module docs until the
    /// deadline passes or the system drains, then reinstalls the states.
    fn run_parallel(&mut self, deadline: Time)
    where
        N: Send,
        N::Msg: Send,
        N::Obs: Send,
    {
        match self.peek_time() {
            Some(t) if t <= deadline => {}
            _ => return,
        }
        let k = self.shards.len();
        let workers = self.threads.min(k);
        let mut qmin: Vec<Option<Time>> = Vec::with_capacity(k);
        let mut qlen: Vec<usize> = Vec::with_capacity(k);
        let mut depth_shadow: Vec<Gauge> = Vec::with_capacity(k);
        let mut states: Vec<Option<ShardState<N>>> = Vec::with_capacity(k);
        for s in self.shards.drain(..) {
            qmin.push(s.wire.queue.peek_time());
            qlen.push(s.wire.queue.len());
            depth_shadow.push(s.exec.metrics.queue_depth);
            states.push(Some(s));
        }
        let mut step_txs = Vec::with_capacity(workers);
        let mut done_rxs = Vec::with_capacity(workers);
        let mut tasks: Vec<pool::WorkerFn<'_, WorkerReturn<N>>> = Vec::with_capacity(workers);
        for w in 0..workers {
            let (step_tx, step_rx) = mpsc::channel::<StepMsg<N::Msg>>();
            let (done_tx, done_rx) = mpsc::channel::<Vec<ShardReport<N::Msg, N::Obs>>>();
            step_txs.push(step_tx);
            done_rxs.push(done_rx);
            let owned: Vec<(usize, ShardState<N>)> = (w..k)
                .step_by(workers)
                .map(|s| (s, states[s].take().expect("each shard assigned to one worker")))
                .collect();
            let clock = Arc::clone(&self.clock);
            tasks.push(Box::new(move || worker_loop(owned, step_rx, done_tx, clock)));
        }
        let mut inbox: Vec<Inbox<N::Msg>> = (0..k).map(|_| Vec::new()).collect();
        let mut global_shadow = self.global_depth;
        let now = &mut self.now;
        let trace = &mut self.trace;
        let obs_sink = &mut self.obs_sink;
        let record_observations = self.record_observations;
        let (results, (inbox, depth_shadow, global_shadow)) =
            pool::run_with_coordinator(tasks, move || {
                let mut logs_by_shard: Vec<Vec<LogEntry<N::Msg, N::Obs>>> =
                    (0..k).map(|_| Vec::new()).collect();
                let mut merged: Vec<LogEntry<N::Msg, N::Obs>> = Vec::new();
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
                    for (w, tx) in step_txs.iter().enumerate() {
                        let mut inboxes = Vec::new();
                        for s in (w..k).step_by(workers) {
                            if !inbox[s].is_empty() {
                                inboxes.push((s, std::mem::take(&mut inbox[s])));
                            }
                        }
                        if tx.send(StepMsg { t, inboxes }).is_err() {
                            break 'run;
                        }
                    }
                    for rx in &done_rxs {
                        let Ok(reports) = rx.recv() else { break 'run };
                        for rep in reports {
                            qmin[rep.shard] = rep.qmin;
                            qlen[rep.shard] = rep.qlen;
                            logs_by_shard[rep.shard] = rep.log;
                            for (dest, at, p) in rep.outbox {
                                inbox[dest].push((at, p));
                            }
                        }
                    }
                    for shard_log in &mut logs_by_shard {
                        merged.append(shard_log);
                    }
                    merged.sort_by_key(|e| e.0);
                    for (_, e) in merged.drain(..) {
                        replay_entry(trace, obs_sink, record_observations, t, e);
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
        let mut slots: Vec<Option<ShardState<N>>> = (0..k).map(|_| None).collect();
        for (w, (owned, stats)) in results.into_iter().enumerate() {
            if self.worker_stats.len() <= w {
                self.worker_stats.resize_with(w + 1, WorkerStats::new);
            }
            self.worker_stats[w].absorb(&stats);
            for (s, st) in owned {
                slots[s] = Some(st);
            }
        }
        self.shards = slots.into_iter().map(|s| s.expect("workers returned every shard")).collect();
        for (s, entries) in inbox.into_iter().enumerate() {
            for (at, p) in entries {
                self.shards[s].wire.queue.push(at, p);
            }
        }
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
    use crate::world::tests::{ring, FoldSink};

    fn cfg(seed: u64, n: usize, batch: bool) -> WorldConfig {
        let cfg = WorldConfig::new(seed)
            .delays(DelayModel::harsh())
            .crashes(CrashPlan::one(ProcessId((n - 1) as u32), Time(150)))
            .record_messages();
        if batch {
            cfg.batch_envelopes()
        } else {
            cfg
        }
    }

    fn run(seed: u64, shards: usize, batch: bool) -> (Time, String, MetricMap) {
        let n = 6;
        let mut w = ShardedWorld::new(ring(n, 300), cfg(seed, n, batch), shards);
        while w.step_instant() {}
        (w.now(), format!("{:?}", w.trace().events()), w.metrics_map())
    }

    /// The ISSUE 7 determinism matrix: same seed ⇒ byte-identical trace
    /// and metrics for shards ∈ {1, 2, 4, 8}, including the exported
    /// `queue_depth_high_water`.
    #[test]
    fn shard_count_never_changes_the_run() {
        for batch in [false, true] {
            let reference = run(90, 1, batch);
            for shards in [2, 4, 8] {
                let got = run(90, shards, batch);
                assert_eq!(got, reference, "shards={shards} batch={batch} diverged");
            }
        }
    }

    #[test]
    fn different_seeds_still_diverge() {
        assert_ne!(run(90, 4, false).1, run(91, 4, false).1);
    }

    /// Drives the run through `run_until` with a thread budget; the
    /// deadline drains the ring workload completely, so the artifacts are
    /// comparable across shard *and* thread counts.
    fn run_threaded(
        seed: u64,
        shards: usize,
        threads: usize,
        batch: bool,
    ) -> (Time, String, MetricMap) {
        let n = 6;
        let mut w = ShardedWorld::new(ring(n, 300), cfg(seed, n, batch).threads(threads), shards);
        w.run_until(Time(1_000_000));
        (w.now(), format!("{:?}", w.trace().events()), w.metrics_map())
    }

    /// The ISSUE 8 determinism matrix: the parallel instant-barrier run is
    /// byte-identical to the sequential one — trace, metrics, and the
    /// exported depth gauges — for every thread × shard combination,
    /// including a mid-run crash (t=150) and envelope batching.
    #[test]
    fn parallel_run_is_byte_identical_to_sequential() {
        for batch in [false, true] {
            let reference = run_threaded(90, 4, 1, batch);
            for threads in [2, 4, 8] {
                for shards in [2, 4, 8] {
                    let got = run_threaded(90, shards, threads, batch);
                    assert_eq!(got, reference, "threads={threads} shards={shards} batch={batch}");
                }
            }
        }
    }

    /// Deadline-bounded parallel runs resume exactly like sequential ones:
    /// pending cross-shard inbox entries are flushed back into the wheels
    /// at shutdown, so a later `run_for` continues the same schedule.
    #[test]
    fn parallel_resume_matches_sequential() {
        let drive = |threads: usize| {
            let mut w = ShardedWorld::new(ring(6, 300), cfg(11, 6, false).threads(threads), 4);
            w.run_until(Time(120));
            w.run_for(600);
            (w.now(), format!("{:?}", w.trace().events()), w.metrics_map())
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
        let mut seq = ShardedWorld::new(ring(6, 300), cfg(90, 6, false), 4);
        seq.run_until(Time(1_000_000));
        assert!(seq.worker_stats().is_empty());
    }

    /// More threads than shards: `run_until` clamps the worker pool to the
    /// shard count (a shard is never split across workers), the run still
    /// drains, and the artifacts stay byte-identical to sequential.
    #[test]
    fn more_threads_than_shards_clamps_to_shard_count() {
        let mut w = ShardedWorld::new(ring(6, 300), cfg(90, 6, false).threads(16), 2);
        w.run_until(Time(1_000_000));
        assert_eq!(w.worker_stats().len(), 2, "worker pool must clamp to shard count");
        let got = (w.now(), format!("{:?}", w.trace().events()), w.metrics_map());
        assert_eq!(got, run_threaded(90, 2, 1, false));
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
        let mut w = ShardedWorld::new(ring(n, 300), cfg(5, n, false), 4);
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
        let mut w = ShardedWorld::new(ring(n, 200), cfg(7, n, false), 4);
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
        let mut w = ShardedWorld::new(ring(4, 1000), WorldConfig::new(9), 2);
        w.run_until(Time(50));
        assert!(w.now() >= Time(50));
        let before = w.trace().observations().count();
        w.run_for(400);
        assert!(w.trace().observations().count() > before);
    }

    #[test]
    #[should_panic(expected = "cloneable delay model")]
    fn scripted_delays_are_rejected() {
        use crate::net::ChannelStaller;
        let staller = ChannelStaller { stalled: vec![], release_at: Time(1), benign_hi: 1 };
        let cfg = WorldConfig::new(1).delays(DelayModel::Scripted(Box::new(staller)));
        ShardedWorld::new(ring(2, 1), cfg, 2);
    }

    /// The fallible constructors surface the same conditions as values.
    #[test]
    fn try_new_reports_build_errors() {
        use crate::net::ChannelStaller;
        assert_eq!(
            ShardedWorld::try_new(ring(2, 1), WorldConfig::new(1), 0).err(),
            Some(ShardBuildError::NoShards)
        );
        let staller = ChannelStaller { stalled: vec![], release_at: Time(1), benign_hi: 1 };
        let cfg = WorldConfig::new(1).delays(DelayModel::Scripted(Box::new(staller)));
        assert_eq!(
            ShardedWorld::try_new(ring(2, 1), cfg, 2).err(),
            Some(ShardBuildError::UncloneableDelayModel)
        );
    }

    /// Per-shard sinks riding worker threads each see exactly the
    /// sequential observation stream's projection onto their shard's pids.
    #[test]
    fn shard_sinks_see_their_pids_in_trace_order() {
        use std::sync::{Arc, Mutex};
        let shards = 3;
        let handles: Vec<Arc<Mutex<FoldSink>>> =
            (0..shards).map(|_| Arc::new(Mutex::new(FoldSink::default()))).collect();
        let sinks: Vec<Box<dyn ObsSink<u32> + Send>> = handles
            .iter()
            .map(|h| Box::new(Arc::clone(h)) as Box<dyn ObsSink<u32> + Send>)
            .collect();
        let mut w = ShardedWorld::try_new_with_shard_sinks(
            ring(4, 23),
            WorldConfig::new(9).threads(2),
            shards,
            sinks,
        )
        .expect("buildable");
        w.run_until(Time(1_000_000));
        let mut total = 0;
        for (s, handle) in handles.iter().enumerate() {
            let expect: Vec<(Time, ProcessId, u32)> = w
                .trace()
                .observations()
                .filter(|(_, p, _)| p.index() % shards == s)
                .map(|(t, p, &o)| (t, p, o))
                .collect();
            let seen = &handle.lock().expect("sink").seen;
            assert_eq!(seen, &expect, "shard {s} projection diverged");
            total += seen.len();
        }
        assert!(total > 0, "the workload must observe something");
    }
}
