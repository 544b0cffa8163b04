//! The simulated world: processes + channels + faults + global clock.
//!
//! There is one simulator, [`crate::shard::ShardedWorld`]; this module holds
//! what configures and observes a run of it ([`WorldConfig`], [`ObsSink`])
//! and [`World`], the engine at one shard recording into a [`Trace`], under
//! the name most callers use.

use std::ops::{Deref, DerefMut};

use crate::event::QueueBackend;
use crate::fault::CrashPlan;
use crate::id::ProcessId;
use crate::net::DelayModel;
use crate::node::Node;
use crate::shard::ShardedWorld;
use crate::time::Time;
use crate::trace::Trace;

/// An online consumer of one shard's output.
///
/// Each shard of a [`ShardedWorld`] owns one sink
/// ([`ShardedWorld::new_with_shard_sinks`]), which sees every crash and
/// observation of the shard's processes *as its step runs*, in the shard's
/// execution order — the sequential stream's projection onto those
/// processes. A shard's sink is the only way a run's output leaves the
/// engine: consumers fold it online ([`ObsSink::on_obs`]), or record it
/// with a [`Trace`], and the world hands the sinks back by value
/// ([`ShardedWorld::into_sinks`]).
///
/// Sinks are observers only: they cannot influence the run, and attaching
/// one never changes the schedule (no RNG draws, no event reordering).
pub trait ObsSink<O> {
    /// Called once per observation, in dispatch order.
    fn on_obs(&mut self, at: Time, pid: ProcessId, obs: &O);

    /// Called when `pid` crashes at `at`; ignored unless the sink records.
    #[inline]
    fn on_crash(&mut self, _at: Time, _pid: ProcessId) {}
}

/// The absent sink, of a world built by [`ShardedWorld::new`].
impl<O> ObsSink<O> for () {
    #[inline]
    fn on_obs(&mut self, _at: Time, _pid: ProcessId, _obs: &O) {}
}

/// A boxed sink, [`ShardedWorld`]'s default sink type.
impl<O, S: ObsSink<O> + ?Sized> ObsSink<O> for Box<S> {
    fn on_obs(&mut self, at: Time, pid: ProcessId, obs: &O) {
        (**self).on_obs(at, pid, obs);
    }

    fn on_crash(&mut self, at: Time, pid: ProcessId) {
        (**self).on_crash(at, pid);
    }
}

/// Shared-handle convenience: a `Rc<RefCell<S>>` sink lets the caller keep
/// a handle while the world owns the boxed clone.
impl<O, S: ObsSink<O>> ObsSink<O> for std::rc::Rc<std::cell::RefCell<S>> {
    fn on_obs(&mut self, at: Time, pid: ProcessId, obs: &O) {
        self.borrow_mut().on_obs(at, pid, obs);
    }

    fn on_crash(&mut self, at: Time, pid: ProcessId) {
        self.borrow_mut().on_crash(at, pid);
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
    /// Give all messages one atomic step sends to the same destination a
    /// single delay draw, as one envelope: they are delivered at one
    /// instant, as adjacent steps of the receiver in send order. Off by
    /// default — the paper's model puts every message on the wire alone;
    /// batching is a throughput knob whose occupancy is measured by
    /// [`crate::SimMetrics::envelope_occupancy`].
    pub batch_envelopes: bool,
    /// Worker threads of a [`ShardedWorld`], which holds one shard per
    /// thread (at most one per process): with `threads ≥ 2`,
    /// [`ShardedWorld::run_until`] executes instants on a persistent
    /// shard-worker pool behind a deterministic barrier merge —
    /// byte-identical to the sequential run, so this knob only buys
    /// wall-clock. `1` (the default) means one shard, fully sequential;
    /// [`World`] is one shard whatever this says.
    pub threads: usize,
}

impl WorldConfig {
    /// A failure-free, moderately asynchronous configuration.
    pub fn new(seed: u64) -> Self {
        WorldConfig {
            seed,
            delays: DelayModel::default_async(),
            crashes: CrashPlan::none(),
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

    /// A no-op: the world records nothing of its own, so there is no
    /// observation recording to switch off. Kept only because the
    /// `benchmark/` harness names it.
    pub fn observation_events_off(self) -> Self {
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

/// The simulator at one shard, recording: a [`ShardedWorld`] with `k = 1`
/// whatever [`WorldConfig::threads`] says, whose one sink is a [`Trace`],
/// and which it dereferences to for stepping and reading the run. A
/// wrapper rather than a type alias because the two names' `new`s differ in
/// arity, and because its drivers are sequential: one shard never uses the
/// worker pool, so [`World::run_until`] does not ask the node type to be
/// `Send` (nodes that share state through `Rc` run here).
pub struct World<N: Node>(ShardedWorld<N, Trace<N::Obs>>);

impl<N: Node> World<N> {
    /// Builds a one-shard world over `nodes` and delivers every node's
    /// `on_start` step at time zero.
    pub fn new(nodes: Vec<N>, cfg: WorldConfig) -> Self {
        World(ShardedWorld::build(nodes, cfg, vec![Trace::default()]))
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

    /// The recording so far: every crash and observation, in execution
    /// order.
    pub fn trace(&self) -> &Trace<N::Obs> {
        self.0.sink(0)
    }

    /// Consumes the world, returning its recording.
    pub fn into_trace(self) -> Trace<N::Obs> {
        self.0.into_sinks().pop().unwrap_or_default()
    }
}

impl<N: Node> dinefd_runtime::Runtime<N> for World<N> {
    /// The simulated backend of the runtime contract: `on_start` steps were
    /// already dispatched at construction, so this drains the event queue
    /// to `horizon` (virtual ticks) and projects the observation events out
    /// of the recording.
    fn run_to_horizon(&mut self, horizon: Time) -> Vec<dinefd_runtime::ObsRecord<N::Obs>> {
        self.run_until(horizon);
        self.trace()
            .observations()
            .map(|(at, who, obs)| dinefd_runtime::ObsRecord { at, who, obs: obs.clone() })
            .collect()
    }
}

impl<N: Node> Deref for World<N> {
    type Target = ShardedWorld<N, Trace<N::Obs>>;

    fn deref(&self) -> &ShardedWorld<N, Trace<N::Obs>> {
        &self.0
    }
}

impl<N: Node> DerefMut for World<N> {
    fn deref_mut(&mut self) -> &mut ShardedWorld<N, Trace<N::Obs>> {
        &mut self.0
    }
}

impl<N: Node> std::fmt::Debug for World<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}
