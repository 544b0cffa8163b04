//! Benchmark-side adapters that time every call through a public trait.
//!
//! [`Timed`] wraps a value and forwards the product's own trait to it,
//! adding one [`LayerAcc`] update per call. The adapters hold no other
//! state, draw no randomness and reorder nothing, so a world built from
//! wrapped parts runs the same schedule as one built from bare parts — the
//! package's tests pin that by comparing `metrics_map()` byte for byte.

use std::sync::Arc;

use dinefd_dining::participant::{DiningIo, DiningMsg};
use dinefd_dining::{DinerPhase, DiningParticipant};
use dinefd_fd::FdQuery;
use dinefd_runtime::{Context, Node, ProcessId, Time, TimerId};
use dinefd_sim::ObsSink;

use crate::trace::LayerAcc;

/// `inner`, with every call through the implemented trait timed into `acc`.
#[derive(Debug)]
pub struct Timed<T> {
    inner: T,
    acc: Arc<LayerAcc>,
}

impl<T> Timed<T> {
    /// Wraps `inner`; calls accumulate into `acc`.
    pub fn new(inner: T, acc: &Arc<LayerAcc>) -> Self {
        Timed { inner, acc: Arc::clone(acc) }
    }

    /// The wrapped value.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<N: Node> Node for Timed<N> {
    type Msg = N::Msg;
    type Obs = N::Obs;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Obs>) {
        self.acc.time(|| self.inner.on_start(ctx));
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Self::Msg, Self::Obs>,
        from: ProcessId,
        msg: Self::Msg,
    ) {
        self.acc.time(|| self.inner.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Obs>, timer: TimerId) {
        self.acc.time(|| self.inner.on_timer(ctx, timer));
    }
}

impl DiningParticipant for Timed<Box<dyn DiningParticipant>> {
    fn hungry(&mut self, io: &mut DiningIo<'_>) {
        self.acc.time(|| self.inner.hungry(io));
    }

    fn exit_eating(&mut self, io: &mut DiningIo<'_>) {
        self.acc.time(|| self.inner.exit_eating(io));
    }

    fn on_message(&mut self, io: &mut DiningIo<'_>, from: ProcessId, msg: DiningMsg) {
        self.acc.time(|| self.inner.on_message(io, from, msg));
    }

    fn on_tick(&mut self, io: &mut DiningIo<'_>) {
        self.acc.time(|| self.inner.on_tick(io));
    }

    // A field read the host polls after every call; timing it would cost
    // more than it does.
    fn phase(&self) -> DinerPhase {
        self.inner.phase()
    }
}

impl FdQuery for Timed<Arc<dyn FdQuery + Send + Sync>> {
    fn suspected(&self, watcher: ProcessId, subject: ProcessId, now: Time) -> bool {
        self.acc.time(|| self.inner.suspected(watcher, subject, now))
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

impl<O, S: ObsSink<O>> ObsSink<O> for Timed<S> {
    fn on_obs(&mut self, at: Time, pid: ProcessId, obs: &O) {
        self.acc.time(|| self.inner.on_obs(at, pid, obs));
    }
}
