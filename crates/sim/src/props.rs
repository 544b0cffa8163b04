//! Temporal-property utilities over recorded runs.
//!
//! Almost every specification in the paper has the shape "there exists a time
//! after which …" (eventual weak exclusion, eventual strong accuracy,
//! eventual `k`-fairness). Over a *finite* recorded run, the honest checkable
//! version is: the property holds on a suffix of the recording, and the
//! violation count before the suffix is finite by construction. The helpers
//! here compute convergence instants and pre-suffix violation counts, which
//! the experiment tables report directly.

use serde::{Deserialize, Serialize};

use crate::time::Time;

/// A boolean signal over time, represented by its change points.
///
/// The signal starts at `initial` and flips at each recorded instant.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BoolTimeline {
    initial: bool,
    /// Change points `(time, new_value)`, chronological; redundant sets are
    /// dropped at insertion.
    changes: Vec<(Time, bool)>,
}

impl BoolTimeline {
    /// A signal with the given initial value and no changes yet.
    pub fn new(initial: bool) -> Self {
        BoolTimeline { initial, changes: Vec::new() }
    }

    /// Records the signal value at `at`. Non-changes are dropped.
    pub fn set(&mut self, at: Time, v: bool) {
        let cur = self.value_at_end();
        debug_assert!(
            self.changes.last().is_none_or(|&(t, _)| t <= at),
            "timeline updates must be chronological"
        );
        if v != cur {
            self.changes.push((at, v));
        }
    }

    /// The signal's value before any recorded change.
    pub fn initial(&self) -> bool {
        self.initial
    }

    /// The signal's value after all recorded changes.
    pub fn value_at_end(&self) -> bool {
        self.changes.last().map_or(self.initial, |&(_, v)| v)
    }

    /// The signal's value at instant `t` (just after any change at `t`).
    pub fn value_at(&self, t: Time) -> bool {
        match self.changes.iter().rev().find(|&&(ct, _)| ct <= t) {
            Some(&(_, v)) => v,
            None => self.initial,
        }
    }

    /// If the signal ends `true`, the instant from which it stayed `true`
    /// (i.e. the last `false→true` transition, or [`Time::ZERO`] if it was
    /// always true). `None` if it ends `false`.
    pub fn true_from(&self) -> Option<Time> {
        if !self.value_at_end() {
            return None;
        }
        match self.changes.last() {
            None => Some(Time::ZERO),
            Some(&(t, v)) => {
                debug_assert!(v);
                Some(t)
            }
        }
    }

    /// Number of maximal `false` intervals (the "mistake count" when the
    /// signal encodes "the spec holds right now").
    pub fn false_intervals(&self) -> usize {
        let mut count = 0;
        let mut cur = self.initial;
        if !cur {
            count += 1;
        }
        for &(_, v) in &self.changes {
            if !v && cur {
                count += 1;
            }
            cur = v;
        }
        count
    }

    /// All change points (for rendering timelines).
    pub fn changes(&self) -> &[(Time, bool)] {
        &self.changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_tracks_value() {
        let mut tl = BoolTimeline::new(false);
        tl.set(Time(5), true);
        tl.set(Time(9), true); // no-op
        tl.set(Time(12), false);
        tl.set(Time(20), true);
        assert!(!tl.value_at(Time(0)));
        assert!(tl.value_at(Time(5)));
        assert!(tl.value_at(Time(11)));
        assert!(!tl.value_at(Time(12)));
        assert!(tl.value_at(Time(25)));
        assert_eq!(tl.true_from(), Some(Time(20)));
        assert_eq!(tl.false_intervals(), 2);
        assert_eq!(tl.changes().len(), 3);
    }

    #[test]
    fn always_true_signal_converges_at_zero() {
        let tl = BoolTimeline::new(true);
        assert_eq!(tl.true_from(), Some(Time::ZERO));
        assert_eq!(tl.false_intervals(), 0);
    }

    #[test]
    fn ending_false_never_converges() {
        let mut tl = BoolTimeline::new(true);
        tl.set(Time(3), false);
        assert_eq!(tl.true_from(), None);
        assert_eq!(tl.false_intervals(), 1);
    }
}
