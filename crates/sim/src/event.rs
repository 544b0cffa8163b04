//! Scheduled events and a standalone event queue.
//!
//! [`EventKind`] is what the simulator schedules. [`EventQueue`] is a
//! [`TimerWheel`] of them popped by `(time, push order)`; the simulator
//! itself keys its per-shard wheels by a canonical merge key instead
//! (`crate::shard`), so the queue serves code that wants the wheel with
//! events in it and nothing else.

use crate::id::ProcessId;
use crate::node::TimerId;
use crate::time::Time;
use crate::wheel::TimerWheel;

/// What happens at a scheduled instant.
#[derive(Clone, Debug)]
pub enum EventKind<M> {
    /// Delivery of a message on the channel `from → to`.
    Deliver {
        /// Sender.
        from: ProcessId,
        /// Receiver.
        to: ProcessId,
        /// Payload.
        msg: M,
    },
    /// Delivery of a batched envelope on the channel `from → to`: every
    /// message some step flushed toward `to`, coalesced under one delay
    /// draw. Messages are dispatched in send order (FIFO within the
    /// envelope), each as its own atomic step of the receiver.
    Envelope {
        /// Sender.
        from: ProcessId,
        /// Receiver.
        to: ProcessId,
        /// Payloads, in send order.
        msgs: Vec<M>,
    },
    /// A local timer of `pid` fires.
    Timer {
        /// Owner of the timer.
        pid: ProcessId,
        /// Which timer.
        id: TimerId,
    },
    /// `pid` crashes (ceases execution permanently).
    Crash {
        /// The process that crashes.
        pid: ProcessId,
    },
}

/// A popped event.
#[derive(Clone, Debug)]
pub struct Event<M> {
    /// When the event occurs.
    pub at: Time,
    /// The effect.
    pub kind: EventKind<M>,
}

/// Which data structure backs the event queue: the timer wheel, the only
/// one. Kept only because the `benchmark/` harness names it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueBackend {
    /// Hierarchical timer wheel ([`crate::wheel`]).
    #[default]
    Wheel,
}

/// Event queue over a [`TimerWheel`]: pops strictly by `(time, push order)`.
#[derive(Debug)]
pub struct EventQueue<M>(TimerWheel<EventKind<M>>);

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        EventQueue(TimerWheel::new())
    }
}

impl<M> EventQueue<M> {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// If `at` lies before an already-popped instant (the simulation clock
    /// never runs backwards).
    pub fn push(&mut self, at: Time, kind: EventKind<M>) {
        self.0.push(at, kind);
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event<M>> {
        self.0.pop().map(|(at, kind)| Event { at, kind })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_by_time_then_push_order() {
        let mut q: EventQueue<()> = EventQueue::new();
        for (at, pid) in [(30, 0), (10, 1), (20, 2), (10, 3)] {
            q.push(Time(at), EventKind::Crash { pid: ProcessId(pid) });
        }
        let order: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Crash { pid } => (e.at.ticks(), pid.0),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, [(10, 1), (10, 3), (20, 2), (30, 0)]);
        assert!(q.is_empty());
    }
}
