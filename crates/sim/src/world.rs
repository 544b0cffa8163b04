//! The simulated world: processes + channels + faults + global clock.
//!
//! There is one simulator, [`crate::shard::ShardedWorld`]; this module holds
//! what configures and observes a run of it ([`WorldConfig`], [`ObsSink`])
//! and [`World`], the engine at one shard under the name most callers use.

use std::ops::{Deref, DerefMut};

use crate::event::QueueBackend;
use crate::fault::CrashPlan;
use crate::id::ProcessId;
use crate::net::DelayModel;
use crate::node::Node;
use crate::shard::ShardedWorld;
use crate::time::Time;
use crate::trace::Trace;

/// A streaming consumer of observations.
///
/// Attached via [`ShardedWorld::new_with_sink`], the sink sees every
/// observation *as its emitting step's effects are routed* — in exactly the
/// order the trace would record them — so consumers can fold run output
/// online instead of materializing the full event log and replaying it
/// through [`ShardedWorld::into_trace`]. Combined with
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
    /// Give all messages one atomic step sends to the same destination a
    /// single delay draw, as one envelope: they are delivered at one
    /// instant, as adjacent steps of the receiver in send order. Off by
    /// default — the paper's model puts every message on the wire alone;
    /// batching is a throughput knob whose occupancy is measured by
    /// [`crate::SimMetrics::envelope_occupancy`].
    pub batch_envelopes: bool,
    /// Worker threads for [`ShardedWorld::run_until`]: with
    /// `threads ≥ 2` *and* at least two shards, instants execute on a
    /// persistent shard-worker pool behind a deterministic barrier merge —
    /// byte-identical to the sequential run, so this knob only buys
    /// wall-clock. `1` (the default) means fully sequential, and a
    /// [`ShardedWorld`] built so holds one shard whatever count it is
    /// given (unless it feeds per-shard sinks).
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

    /// A no-op: the timer wheel is the only event queue. Kept only because
    /// the `benchmark/` harness names it.
    pub fn queue_backend(self, _queue: QueueBackend) -> Self {
        self
    }

    /// Sets the sharded-world worker-thread count (builder style). Clamped
    /// to at least 1.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// The simulator at one shard: a [`ShardedWorld`] with `k = 1`, which it
/// dereferences to for stepping and reading the run. A wrapper rather than
/// a type alias because the two names' `new`s differ in arity, and because
/// its drivers are sequential: one shard never uses the worker pool, so
/// [`World::run_until`] does not ask the node type to be `Send` (nodes that
/// share state through `Rc` run here).
pub struct World<N: Node>(ShardedWorld<N>);

impl<N: Node> World<N> {
    /// Builds a one-shard world over `nodes` and delivers every node's
    /// `on_start` step at time zero.
    pub fn new(nodes: Vec<N>, cfg: WorldConfig) -> Self {
        World(ShardedWorld::new(nodes, cfg, 1))
    }

    /// Runs until the queue is empty or global time exceeds `deadline`.
    pub fn run_until(&mut self, deadline: Time) {
        self.0.run_sequential(deadline);
    }

    /// Runs for `d` more ticks of virtual time (see [`World::run_until`]).
    pub fn run_for(&mut self, d: u64) {
        let deadline = self.now() + d;
        self.run_until(deadline);
    }

    /// Consumes the world, returning the trace.
    pub fn into_trace(self) -> Trace<N::Msg, N::Obs> {
        self.0.into_trace()
    }
}

impl<N: Node> dinefd_runtime::Runtime<N> for World<N> {
    /// The simulated backend of the runtime contract: `on_start` steps were
    /// already dispatched at construction, so this drains the event queue
    /// to `horizon` (virtual ticks) and projects the observation events out
    /// of the recorded trace. Requires observation recording to be on (the
    /// [`WorldConfig`] default).
    fn run_to_horizon(&mut self, horizon: Time) -> Vec<dinefd_runtime::ObsRecord<N::Obs>> {
        self.run_until(horizon);
        self.trace()
            .observations()
            .map(|(at, who, obs)| dinefd_runtime::ObsRecord { at, who, obs: obs.clone() })
            .collect()
    }
}

impl<N: Node> Deref for World<N> {
    type Target = ShardedWorld<N>;

    fn deref(&self) -> &ShardedWorld<N> {
        &self.0
    }
}

impl<N: Node> DerefMut for World<N> {
    fn deref_mut(&mut self) -> &mut ShardedWorld<N> {
        &mut self.0
    }
}

impl<N: Node> std::fmt::Debug for World<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}
