//! Run recordings: the raw material for every property checker and
//! experiment.
//!
//! A [`Trace`] is a recording sink: attached to a shard, it keeps every
//! crash and observation of the shard's processes as they happen, in the
//! shard's execution order. [`crate::World`]'s one shard records into one,
//! so its recording is chronological and in global execution order; the
//! recordings of a world's shards are joined by [`Trace::merge`] into one
//! that does not depend on the shard count. Messages
//! are not recorded: the paper's properties are read from what processes
//! output, never from the wire.

use crate::id::ProcessId;
use crate::time::Time;
use crate::world::ObsSink;

/// One recorded occurrence in a run.
#[derive(Clone, Debug)]
pub enum TraceEvent<O> {
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

impl<O> TraceEvent<O> {
    /// The instant of the event.
    pub fn at(&self) -> Time {
        match self {
            TraceEvent::Crash { at, .. } | TraceEvent::Obs { at, .. } => *at,
        }
    }

    /// The process the event happened at.
    pub fn pid(&self) -> ProcessId {
        match self {
            TraceEvent::Crash { pid, .. } | TraceEvent::Obs { pid, .. } => *pid,
        }
    }
}

/// The recorded crashes and observations of one run (or of one shard of
/// it), in chronological order.
#[derive(Clone, Debug)]
pub struct Trace<O> {
    events: Vec<TraceEvent<O>>,
}

/// The empty trace.
impl<O> Default for Trace<O> {
    fn default() -> Self {
        Trace { events: Vec::new() }
    }
}

impl<O> Trace<O> {
    fn push(&mut self, e: TraceEvent<O>) {
        debug_assert!(
            self.events.last().is_none_or(|last| last.at() <= e.at()),
            "trace must be chronological"
        );
        self.events.push(e);
    }

    /// Joins the recordings of a world's shards into one, stably sorted by
    /// `(at, pid)`: each process's events keep the order its shard recorded
    /// them (a process lives on one shard), so the join is the same for any
    /// shard count — and is the order the live runtime gives its
    /// observation log.
    pub fn merge(parts: Vec<Trace<O>>) -> Trace<O> {
        let mut events: Vec<TraceEvent<O>> = parts.into_iter().flat_map(|t| t.events).collect();
        events.sort_by_key(|e| (e.at(), e.pid()));
        Trace { events }
    }

    /// All events, chronological.
    pub fn events(&self) -> &[TraceEvent<O>] {
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
            TraceEvent::Crash { .. } => None,
        })
    }

    /// Crash instants recorded in this run.
    pub fn crashes(&self) -> impl Iterator<Item = (Time, ProcessId)> + '_ {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Crash { at, pid } => Some((*at, *pid)),
            TraceEvent::Obs { .. } => None,
        })
    }
}

/// The recording sink: keeps a copy of every observation and every crash.
impl<O: Clone> ObsSink<O> for Trace<O> {
    #[inline]
    fn on_obs(&mut self, at: Time, pid: ProcessId, obs: &O) {
        self.push(TraceEvent::Obs { at, pid, obs: obs.clone() });
    }

    #[inline]
    fn on_crash(&mut self, at: Time, pid: ProcessId) {
        self.push(TraceEvent::Crash { at, pid });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type T = Trace<u32>;

    #[test]
    fn record_and_filter() {
        let mut t: T = Trace::default();
        t.on_obs(Time(4), ProcessId(1), &42);
        t.on_crash(Time(9), ProcessId(0));
        assert_eq!(t.len(), 2);
        let obs: Vec<_> = t.observations().collect();
        assert_eq!(obs, vec![(Time(4), ProcessId(1), &42)]);
        let crashes: Vec<_> = t.crashes().collect();
        assert_eq!(crashes, vec![(Time(9), ProcessId(0))]);
    }

    /// Parts interleave by `(at, pid)`, each process's events in their
    /// recorded order; one part is ordered the same way, so the join does
    /// not depend on how processes were split into parts.
    #[test]
    fn merge_orders_by_instant_then_process_and_keeps_each_process_in_order() {
        let mut a: T = Trace::default();
        a.on_obs(Time(1), ProcessId(2), &1);
        a.on_crash(Time(3), ProcessId(2));
        a.on_obs(Time(3), ProcessId(0), &2);
        a.on_obs(Time(3), ProcessId(0), &3);
        let mut b: T = Trace::default();
        b.on_obs(Time(1), ProcessId(1), &4);
        b.on_obs(Time(3), ProcessId(1), &5);
        let keys = |t: &T| t.events().iter().map(|e| (e.at().0, e.pid().0)).collect::<Vec<_>>();
        let merged = Trace::merge(vec![a, b]);
        assert_eq!(keys(&merged), [(1, 1), (1, 2), (3, 0), (3, 0), (3, 1), (3, 2)]);
        let zero: Vec<u32> = merged.observations().filter(|e| e.1 .0 == 0).map(|e| *e.2).collect();
        assert_eq!(zero, [2, 3]);
        // The same run recorded on one shard, in its execution order.
        let mut one: T = Trace::default();
        one.on_obs(Time(1), ProcessId(2), &1);
        one.on_obs(Time(1), ProcessId(1), &4);
        one.on_crash(Time(3), ProcessId(2));
        one.on_obs(Time(3), ProcessId(1), &5);
        one.on_obs(Time(3), ProcessId(0), &2);
        one.on_obs(Time(3), ProcessId(0), &3);
        let one = Trace::merge(vec![one]);
        assert_eq!(format!("{:?}", one.events()), format!("{:?}", merged.events()));
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn non_chronological_recording_is_rejected() {
        let mut t: T = Trace::default();
        t.on_crash(Time(5), ProcessId(0));
        t.on_crash(Time(4), ProcessId(1));
    }
}
