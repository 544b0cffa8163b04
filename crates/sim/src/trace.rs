//! Run traces: the raw material for every property checker and experiment.
//!
//! A post-hoc run keeps one [`TraceEvent`] per observation, so the event's
//! size is most of the trace's memory. Message events box their payload:
//! a protocol message is often wider than everything else in an event
//! (the reduction's is 40 bytes), and only tests record messages, so a
//! payload stored inline would size every observation for a variant that
//! product runs never write.

use crate::id::ProcessId;
use crate::time::Time;

/// One recorded occurrence in a run. `Send`/`Deliver` box their payload
/// (see the module docs), so an event is as wide as its observation
/// variant.
#[derive(Clone, Debug)]
pub enum TraceEvent<M, O> {
    /// A message left `from` bound for `to`.
    Send {
        /// Instant of the send.
        at: Time,
        /// Sender.
        from: ProcessId,
        /// Receiver.
        to: ProcessId,
        /// Payload, boxed (see the module docs).
        msg: Box<M>,
    },
    /// A message was delivered (the receiver's step consumed it).
    Deliver {
        /// Instant of the delivery.
        at: Time,
        /// Sender.
        from: ProcessId,
        /// Receiver.
        to: ProcessId,
        /// Payload, boxed (see the module docs).
        msg: Box<M>,
    },
    /// A process crashed.
    Crash {
        /// Instant of the crash.
        at: Time,
        /// The crashed process.
        pid: ProcessId,
    },
    /// An application-level observation emitted via
    /// [`crate::node::Context::observe`].
    Obs {
        /// Instant of the observation.
        at: Time,
        /// The observing process.
        pid: ProcessId,
        /// The observation payload.
        obs: O,
    },
}

impl<M, O> TraceEvent<M, O> {
    /// The instant of the event.
    pub fn at(&self) -> Time {
        match self {
            TraceEvent::Send { at, .. }
            | TraceEvent::Deliver { at, .. }
            | TraceEvent::Crash { at, .. }
            | TraceEvent::Obs { at, .. } => *at,
        }
    }
}

/// The full recorded history of one run, in chronological order.
#[derive(Clone, Debug)]
pub struct Trace<M, O> {
    events: Vec<TraceEvent<M, O>>,
    /// Whether `Send`/`Deliver` events were recorded (they can be voluminous;
    /// observation-only tracing is the default for long experiment sweeps).
    pub records_messages: bool,
}

impl<M, O> Trace<M, O> {
    /// Empty trace.
    pub fn new(records_messages: bool) -> Self {
        Trace { events: Vec::new(), records_messages }
    }

    pub(crate) fn push(&mut self, e: TraceEvent<M, O>) {
        debug_assert!(
            self.events.last().is_none_or(|last| last.at() <= e.at()),
            "trace must be chronological"
        );
        self.events.push(e);
    }

    /// All events, chronological.
    pub fn events(&self) -> &[TraceEvent<M, O>] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterator over `(time, pid, observation)` triples.
    pub fn observations(&self) -> impl Iterator<Item = (Time, ProcessId, &O)> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Obs { at, pid, obs } => Some((*at, *pid, obs)),
            _ => None,
        })
    }

    /// Crash instants recorded in this run.
    pub fn crashes(&self) -> impl Iterator<Item = (Time, ProcessId)> + '_ {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Crash { at, pid } => Some((*at, *pid)),
            _ => None,
        })
    }

    /// Count of messages delivered (0 unless message recording is on).
    pub fn delivered_count(&self) -> usize {
        self.events.iter().filter(|e| matches!(e, TraceEvent::Deliver { .. })).count()
    }

    /// Count of messages sent (0 unless message recording is on).
    pub fn sent_count(&self) -> usize {
        self.events.iter().filter(|e| matches!(e, TraceEvent::Send { .. })).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type T = Trace<&'static str, u32>;

    #[test]
    fn push_and_filter() {
        let mut t: T = Trace::new(true);
        t.push(TraceEvent::Send {
            at: Time(1),
            from: ProcessId(0),
            to: ProcessId(1),
            msg: "m".into(),
        });
        t.push(TraceEvent::Deliver {
            at: Time(3),
            from: ProcessId(0),
            to: ProcessId(1),
            msg: "m".into(),
        });
        t.push(TraceEvent::Obs { at: Time(4), pid: ProcessId(1), obs: 42 });
        t.push(TraceEvent::Crash { at: Time(9), pid: ProcessId(0) });
        assert_eq!(t.len(), 4);
        assert_eq!(t.sent_count(), 1);
        assert_eq!(t.delivered_count(), 1);
        let obs: Vec<_> = t.observations().collect();
        assert_eq!(obs, vec![(Time(4), ProcessId(1), &42)]);
        let crashes: Vec<_> = t.crashes().collect();
        assert_eq!(crashes, vec![(Time(9), ProcessId(0))]);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn non_chronological_push_is_rejected() {
        let mut t: T = Trace::new(false);
        t.push(TraceEvent::Crash { at: Time(5), pid: ProcessId(0) });
        t.push(TraceEvent::Crash { at: Time(4), pid: ProcessId(1) });
    }
}
