//! `Recorded<N>`: a test-side node wrapper that records a node's wire
//! traffic as observations.
//!
//! The simulator records only what processes output (crashes and
//! observations), so a test that checks sends and deliveries wraps its
//! nodes: each delivery is observed on entry to the step, and each send
//! after the inner node's step, so a step's records read delivery, the
//! inner node's observations, then its sends in send order. The wrapper
//! changes no schedule (it draws from the node's own random stream for the
//! inner node only, and forwards every send and timer in order); only the
//! `observations` counter counts its records too.
//!
//! Included by `#[path]` from the simulator's unit and integration tests
//! and from `dinefd-core`'s `tick_promise.rs`; the including module brings
//! `Context`, `Node`, `ProcessId`, `Time`, `TimerId` and `Trace` into scope.

#![allow(dead_code)]

use super::{Context, Node, ProcessId, Time, TimerId, Trace};

/// One record of a [`Recorded`] node's step: a send or delivery, or the
/// inner node's own observation.
#[derive(Clone, Debug, PartialEq)]
pub enum Rec<M, O> {
    /// A message left `from` bound for `to`.
    Send { at: Time, from: ProcessId, to: ProcessId, msg: M },
    /// A message was delivered (the receiver's step consumed it).
    Deliver { at: Time, from: ProcessId, to: ProcessId, msg: M },
    /// An observation of the inner node.
    Obs(O),
}

impl<M, O> Rec<M, O> {
    /// Whether this is a send or a delivery.
    pub fn is_wire(&self) -> bool {
        !matches!(self, Rec::Obs(_))
    }
}

/// `N`, with its sends and deliveries recorded as observations.
#[derive(Debug)]
pub struct Recorded<N: Node> {
    inner: N,
    sends: Vec<(ProcessId, N::Msg)>,
    timers: Vec<(u64, TimerId)>,
    obs: Vec<N::Obs>,
}

impl<N: Node> Recorded<N> {
    /// Wraps `inner`.
    pub fn new(inner: N) -> Self {
        Recorded { inner, sends: Vec::new(), timers: Vec::new(), obs: Vec::new() }
    }

    /// Wraps every node of `nodes`.
    pub fn all(nodes: impl IntoIterator<Item = N>) -> Vec<Self> {
        nodes.into_iter().map(Self::new).collect()
    }

    /// The wrapped node.
    pub fn inner(&self) -> &N {
        &self.inner
    }

    /// Runs `f` against the inner node with a context of its own, then
    /// forwards its effects: observations, then each send (recorded, then
    /// sent), then timers.
    fn step(
        &mut self,
        ctx: &mut Context<'_, N::Msg, Rec<N::Msg, N::Obs>>,
        f: impl FnOnce(&mut N, &mut Context<'_, N::Msg, N::Obs>),
    ) {
        let (me, at) = (ctx.me(), ctx.now());
        let mut inner =
            Context::new(me, at, &mut self.sends, &mut self.timers, &mut self.obs, ctx.rng());
        f(&mut self.inner, &mut inner);
        for obs in self.obs.drain(..) {
            ctx.observe(Rec::Obs(obs));
        }
        for (to, msg) in self.sends.drain(..) {
            ctx.observe(Rec::Send { at, from: me, to, msg: msg.clone() });
            ctx.send(to, msg);
        }
        for (delay, id) in self.timers.drain(..) {
            ctx.set_timer(delay, id);
        }
    }
}

impl<N: Node> Node for Recorded<N> {
    type Msg = N::Msg;
    type Obs = Rec<N::Msg, N::Obs>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Obs>) {
        self.step(ctx, |node, ctx| node.on_start(ctx));
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Self::Msg, Self::Obs>,
        from: ProcessId,
        msg: Self::Msg,
    ) {
        let (at, to) = (ctx.now(), ctx.me());
        ctx.observe(Rec::Deliver { at, from, to, msg: msg.clone() });
        self.step(ctx, |node, ctx| node.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Obs>, timer: TimerId) {
        self.step(ctx, |node, ctx| node.on_timer(ctx, timer));
    }
}

/// Sends recorded in `trace`.
pub fn sent<M, O>(trace: &Trace<Rec<M, O>>) -> usize {
    trace.observations().filter(|(_, _, r)| matches!(r, Rec::Send { .. })).count()
}

/// Deliveries recorded in `trace`.
pub fn delivered<M, O>(trace: &Trace<Rec<M, O>>) -> usize {
    trace.observations().filter(|(_, _, r)| matches!(r, Rec::Deliver { .. })).count()
}
