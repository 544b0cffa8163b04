//! The atomic step, stated once.
//!
//! The paper's model has a single notion of execution: in each step a
//! process receives a message (or a timer it set fires), makes a state
//! transition, and sends messages. [`Executor`] is that step — crash
//! discard, the [`Context`] handed to the node, every per-step counter, the
//! send-target and clock-horizon checks, the destination grouping of a
//! batched step's sends — and every [`crate::shard::ShardedWorld`] shard
//! owns one executor over its slice of the processes. What the shard
//! decides around the step is named by [`Fabric`] and nothing else: where a
//! pid's state lives, where crashes and observations go, which random
//! stream prices a channel, and where a scheduled event is queued.
//!
//! ## Crash semantics at time zero
//!
//! A process whose crash is scheduled at `Time::ZERO` is *dead from
//! birth*: it takes no steps at all — in particular its `on_start` step is
//! suppressed, so it can neither send messages nor arm timers. The engine
//! therefore executes the t=0 entries of the crash plan *before*
//! calling [`Executor::start`], which skips crashed processes (a t=0 crash
//! left in the event queue would pop only after the start steps, letting a
//! dead process speak). This matches the paper's model, where a faulty
//! process "ceases execution without warning" — a process that crashes at
//! the initial instant never executed at all.

use crate::event::EventKind;
use crate::id::ProcessId;
use crate::metrics::SimMetrics;
use crate::node::{Context, Node, TimerId};
use crate::rng::SplitMix64;
use crate::time::Time;
use crate::world::ObsSink;

/// The decisions a shard makes around the shared step.
pub(crate) trait Fabric<N: Node> {
    /// Index of `pid`'s state in the executor driving this fabric.
    fn slot(&self, pid: ProcessId) -> usize;

    /// The shard's sink, the only output of an event: its crash, or the
    /// observations of its step.
    fn sink(&mut self) -> &mut impl ObsSink<N::Obs>;

    /// Draws the channel delay of one wire item `from → to` sent at `now`;
    /// `slot` is the sender's.
    fn delay(&mut self, slot: usize, from: ProcessId, to: ProcessId, now: Time) -> u64;

    /// Enqueues `kind`, an effect of `source`'s step (state at `slot`), for
    /// execution at `at` by whichever executor owns `dest`.
    fn schedule(
        &mut self,
        slot: usize,
        source: ProcessId,
        dest: ProcessId,
        at: Time,
        kind: EventKind<N::Msg>,
    );
}

/// Process state plus the one definition of what an event does to it.
pub(crate) struct Executor<N: Node> {
    nodes: Vec<N>,
    crashed: Vec<bool>,
    node_rngs: Vec<SplitMix64>,
    pub(crate) metrics: SimMetrics,
    /// Process count of the whole run; send targets are checked against it.
    n_total: usize,
    batch_envelopes: bool,
    // Reusable effect buffers (avoid per-step allocation).
    sends_buf: Vec<(ProcessId, N::Msg)>,
    timers_buf: Vec<(u64, TimerId)>,
    obs_buf: Vec<N::Obs>,
    /// A batched step's destinations in first-occurrence order, each with
    /// its one delivery instant and its message count.
    dests_buf: Vec<(ProcessId, Time, u64)>,
}

impl<N: Node> Executor<N> {
    /// An executor owning no process yet, for a run of `n_total` processes.
    pub(crate) fn new(n_total: usize, batch_envelopes: bool) -> Self {
        Executor {
            nodes: Vec::new(),
            crashed: Vec::new(),
            node_rngs: Vec::new(),
            metrics: SimMetrics::new(),
            n_total,
            batch_envelopes,
            sends_buf: Vec::new(),
            timers_buf: Vec::new(),
            obs_buf: Vec::new(),
            dests_buf: Vec::new(),
        }
    }

    /// Takes ownership of one more process; its slot is the push order.
    pub(crate) fn push(&mut self, node: N, rng: SplitMix64) {
        self.nodes.push(node);
        self.crashed.push(false);
        self.node_rngs.push(rng);
    }

    /// The owned nodes, by slot.
    pub(crate) fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Which owned processes have crashed, by slot.
    pub(crate) fn crashed(&self) -> &[bool] {
        &self.crashed
    }

    /// The `on_start` step of `pid` at time zero — unless it is dead from
    /// birth (see the module docs).
    pub(crate) fn start(&mut self, pid: ProcessId, fabric: &mut impl Fabric<N>) {
        if !self.crashed[fabric.slot(pid)] {
            self.step(Time::ZERO, pid, fabric, |node, ctx| node.on_start(ctx));
        }
    }

    /// Applies one scheduled event at instant `now`.
    pub(crate) fn execute(
        &mut self,
        now: Time,
        kind: EventKind<N::Msg>,
        fabric: &mut impl Fabric<N>,
    ) {
        match kind {
            EventKind::Crash { pid } => {
                let slot = fabric.slot(pid);
                if !self.crashed[slot] {
                    self.crashed[slot] = true;
                    self.metrics.crash_events.inc();
                    fabric.sink().on_crash(now, pid);
                }
            }
            EventKind::Timer { pid, id } => {
                if !self.crashed[fabric.slot(pid)] {
                    self.metrics.timer_fires.inc();
                    self.step(now, pid, fabric, |node, ctx| node.on_timer(ctx, id));
                }
            }
            EventKind::Deliver { from, to, msg } => {
                if !self.crashed[fabric.slot(to)] {
                    self.metrics.messages_delivered.inc();
                    self.step(now, to, fabric, |node, ctx| node.on_message(ctx, from, msg));
                } else {
                    // Messages to crashed processes vanish: the reliability
                    // axiom only covers messages sent to correct processes.
                    self.metrics.messages_dropped.inc();
                }
            }
        }
    }

    /// One atomic step of `pid`: run `handler` against buffered effects,
    /// then route them — observations, sends, timers, in that order.
    fn step(
        &mut self,
        now: Time,
        pid: ProcessId,
        fabric: &mut impl Fabric<N>,
        handler: impl FnOnce(&mut N, &mut Context<'_, N::Msg, N::Obs>),
    ) {
        let slot = fabric.slot(pid);
        let mut ctx = Context::new(
            pid,
            now,
            &mut self.sends_buf,
            &mut self.timers_buf,
            &mut self.obs_buf,
            &mut self.node_rngs[slot],
        );
        handler(&mut self.nodes[slot], &mut ctx);
        self.metrics.steps.inc();
        for obs in self.obs_buf.drain(..) {
            self.metrics.observations.inc();
            fabric.sink().on_obs(now, pid, &obs);
        }
        if self.batch_envelopes {
            self.send_batched(now, slot, pid, fabric);
        } else {
            for (to, msg) in self.sends_buf.drain(..) {
                assert!(to.index() < self.n_total, "send to unknown process {to}");
                self.metrics.messages_sent.inc();
                self.metrics.envelopes_sent.inc();
                let d = fabric.delay(slot, pid, to, now);
                self.metrics.delay_ticks.record(d);
                let at = due(now, d, "delivery");
                fabric.schedule(slot, pid, to, at, EventKind::Deliver { from: pid, to, msg });
            }
        }
        for (delay, id) in self.timers_buf.drain(..) {
            self.metrics.timers_set.inc();
            let at = due(now, delay, "timer");
            fabric.schedule(slot, pid, pid, at, EventKind::Timer { pid, id });
        }
    }

    /// Envelope batching: this step's sends grouped by destination —
    /// first-occurrence order, one delay draw per destination, counted as
    /// one envelope of however many messages went there. Each message is
    /// still its own delivery, due at its destination's instant. They are
    /// scheduled destination by destination, in send order within one, so
    /// their effect seqs are consecutive and the receiver takes them as
    /// adjacent steps: delivering k messages is k consecutive steps in the
    /// model. A step names few destinations, so grouping is a linear scan.
    fn send_batched(
        &mut self,
        now: Time,
        slot: usize,
        pid: ProcessId,
        fabric: &mut impl Fabric<N>,
    ) {
        for &(to, _) in &self.sends_buf {
            assert!(to.index() < self.n_total, "send to unknown process {to}");
            self.metrics.messages_sent.inc();
            match self.dests_buf.iter_mut().find(|(t, _, _)| *t == to) {
                Some((_, _, count)) => *count += 1,
                None => {
                    let d = fabric.delay(slot, pid, to, now);
                    self.metrics.delay_ticks.record(d);
                    self.dests_buf.push((to, due(now, d, "envelope"), 1));
                }
            }
        }
        if self.dests_buf.len() > 1 {
            // Stable: send order survives within each destination.
            let dests = &self.dests_buf;
            self.sends_buf.sort_by_key(|(to, _)| dests.iter().position(|(t, _, _)| t == to));
        }
        let mut sends = self.sends_buf.drain(..);
        for (to, at, count) in self.dests_buf.drain(..) {
            self.metrics.envelopes_sent.inc();
            self.metrics.envelope_occupancy.record(count);
            for (_, msg) in sends.by_ref().take(count as usize) {
                fabric.schedule(slot, pid, to, at, EventKind::Deliver { from: pid, to, msg });
            }
        }
    }
}

/// Resolves the absolute instant of an effect scheduled `delay` ticks from
/// `now`, treating clock-horizon overflow as a hard error: a saturated
/// instant would park the event at [`Time::INFINITY`] forever and livelock
/// `run_until(Time::INFINITY)` (see [`Time::checked_add`]).
#[inline]
fn due(now: Time, delay: u64, what: &str) -> Time {
    match now.checked_add(delay) {
        Some(at) => at,
        None => panic!("{what} scheduled past the clock horizon (t{now} + {delay} ticks)"),
    }
}
