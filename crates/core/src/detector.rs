//! Turning reduction traces into failure-detector histories.

use dinefd_dining::DiningHistory;
use dinefd_fd::SuspicionHistory;
use dinefd_sim::{ObsSink, ProcessId, Time, Trace};

use crate::host::{RedObs, Role};

/// The one fold from Alg. 1's outputs to the extracted detector: an
/// [`ObsSink`] that records each [`RedObs::Suspicion`] observation into a
/// [`SuspicionHistory`] as it arrives. The initial output is "suspected"
/// (Alg. 1 initializes `suspect_q ← true`).
///
/// Extraction runs one per simulator shard, fed live
/// ([`dinefd_sim::ShardedWorld::new_with_shard_sinks`]), so it needs
/// `O(pairs + changes)` resident memory instead of a full recording; a
/// recording is replayed through the same fold by [`suspicion_history`].
#[derive(Clone, Debug)]
pub struct HistorySink {
    history: SuspicionHistory,
}

impl HistorySink {
    /// An empty sink over `n` processes monitoring `pairs`, with the
    /// reduction's pessimistic initial output.
    pub fn new(n: usize, pairs: &[(ProcessId, ProcessId)]) -> Self {
        let mut history = SuspicionHistory::new(n, true);
        history.restrict_to(pairs);
        HistorySink { history }
    }

    /// Consumes the sink, yielding the finished history.
    pub fn finish(self) -> SuspicionHistory {
        self.history
    }
}

impl ObsSink<RedObs> for HistorySink {
    #[inline]
    fn on_obs(&mut self, at: Time, pid: ProcessId, obs: &RedObs) {
        if let RedObs::Suspicion { subject, suspected } = *obs {
            self.history.record(at, pid, subject, suspected);
        }
    }
}

/// Builds the extracted detector's [`SuspicionHistory`] from a recorded
/// reduction run: a replay of its observations, in recording order,
/// through [`HistorySink`].
pub fn suspicion_history(
    n: usize,
    trace: &Trace<RedObs>,
    pairs: &[(ProcessId, ProcessId)],
) -> SuspicionHistory {
    let mut sink = HistorySink::new(n, pairs);
    for (at, pid, obs) in trace.observations() {
        sink.on_obs(at, pid, obs);
    }
    sink.finish()
}

/// The four threads of one monitoring pair, as phase timelines — the raw
/// material for the paper's Fig. 1.
#[derive(Clone, Debug)]
pub struct PairTimelines {
    /// Witness threads `w_0`, `w_1` (each a [`DiningHistory`] with a single
    /// virtual diner 0).
    pub witness: [DiningHistory; 2],
    /// Subject threads `s_0`, `s_1`.
    pub subject: [DiningHistory; 2],
    horizon: Time,
}

impl PairTimelines {
    /// Collects the thread timelines of pair `(watcher, subject)`.
    pub fn collect(
        trace: &Trace<RedObs>,
        watcher: ProcessId,
        subject: ProcessId,
        horizon: Time,
    ) -> Self {
        let mut tl = PairTimelines {
            witness: [DiningHistory::new(1), DiningHistory::new(1)],
            subject: [DiningHistory::new(1), DiningHistory::new(1)],
            horizon,
        };
        for (at, _pid, obs) in trace.observations() {
            if let RedObs::DxPhase { watcher: w, subject: s, role, instance, phase } = *obs {
                if w == watcher && s == subject {
                    let h = match role {
                        Role::Witness => &mut tl.witness[instance as usize],
                        Role::Subject => &mut tl.subject[instance as usize],
                    };
                    h.record(at, ProcessId(0), phase);
                }
            }
        }
        for h in tl.witness.iter_mut().chain(tl.subject.iter_mut()) {
            h.set_horizon(horizon);
        }
        tl
    }

    /// Eating sessions of thread `w_i` (truncation-free: threads of a pair
    /// live exactly as long as their host, and the caller passes a horizon).
    pub fn witness_sessions(&self, i: usize) -> Vec<(Time, Time)> {
        self.witness[i].eating_sessions(ProcessId(0), &dinefd_sim::CrashPlan::none())
    }

    /// Eating sessions of thread `s_i`.
    pub fn subject_sessions(&self, i: usize) -> Vec<(Time, Time)> {
        self.subject[i].eating_sessions(ProcessId(0), &dinefd_sim::CrashPlan::none())
    }

    /// Checks the Fig. 1 hand-off structure on the suffix after `after`:
    ///
    /// 1. **Subject overlap** (Lemma 8's suffix invariant): at every instant
    ///    of the suffix covered by subject activity, some subject is eating —
    ///    i.e. consecutive subject sessions overlap.
    /// 2. **Witness throttling** (Lemma 12 + the hand-off): between two
    ///    consecutive eating sessions of `w_i`, subject `s_i` eats at least
    ///    once.
    ///
    /// Returns the list of violated checks (empty = Fig. 1 holds).
    pub fn handoff_violations(&self, after: Time) -> Vec<String> {
        let mut violations = Vec::new();
        // (1) union of subject sessions covers the suffix contiguously.
        let mut all: Vec<(Time, Time)> = self
            .subject_sessions(0)
            .into_iter()
            .chain(self.subject_sessions(1))
            .filter(|&(_, e)| e > after)
            .collect();
        all.sort_unstable();
        for pair in all.windows(2) {
            let (prev, next) = (pair[0], pair[1]);
            if next.0 > prev.1 && prev.1 > after {
                violations.push(format!(
                    "subject eating gap: [{}, {}) uncovered",
                    prev.1.ticks(),
                    next.0.ticks()
                ));
            }
        }
        // (2) between consecutive w_i sessions, s_i eats at least once.
        for i in 0..2 {
            let ws = self.witness_sessions(i);
            let ss = self.subject_sessions(i);
            for pair in ws.windows(2) {
                let (w_prev, w_next) = (pair[0], pair[1]);
                if w_prev.1 <= after {
                    continue;
                }
                // s_i must have an eating session intersecting
                // (w_prev.start, w_next.start): the subject ate "since w_i
                // last started eating".
                let fed = ss.iter().any(|&(s0, s1)| s1 > w_prev.0 && s0 < w_next.0);
                if !fed {
                    violations.push(format!(
                        "w_{i} ate twice ([{}..{}) then [{}..{})) without s_{i} eating",
                        w_prev.0.ticks(),
                        w_prev.1.ticks(),
                        w_next.0.ticks(),
                        w_next.1.ticks()
                    ));
                }
            }
        }
        violations
    }

    /// Renders the Fig. 1 style four-row timeline.
    pub fn ascii(&self, t0: Time, t1: Time, cols: usize) -> String {
        let mut out = String::new();
        let rows: [(&str, &DiningHistory); 4] = [
            ("p.w0", &self.witness[0]),
            ("p.w1", &self.witness[1]),
            ("q.s0", &self.subject[0]),
            ("q.s1", &self.subject[1]),
        ];
        let span = t1 - t0;
        for (label, h) in rows {
            out.push_str(&format!("{label:>6} |"));
            for c in 0..cols {
                let t = Time(t0.ticks() + span * c as u64 / cols as u64);
                out.push(h.phase_at(ProcessId(0), t).code());
            }
            out.push('\n');
        }
        out
    }

    /// The recording horizon.
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// Convenience: does `w_i` have at least `k` eating sessions?
    pub fn witness_session_count(&self) -> [usize; 2] {
        [self.witness[0].session_count(ProcessId(0)), self.witness[1].session_count(ProcessId(0))]
    }

    /// Count of subject eating sessions per instance.
    pub fn subject_session_count(&self) -> [usize; 2] {
        [self.subject[0].session_count(ProcessId(0)), self.subject[1].session_count(ProcessId(0))]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinefd_dining::DinerPhase;

    #[test]
    fn pair_timelines_handoff_check_flags_gap() {
        let mut tl = PairTimelines {
            witness: [DiningHistory::new(1), DiningHistory::new(1)],
            subject: [DiningHistory::new(1), DiningHistory::new(1)],
            horizon: Time(100),
        };
        let p0 = ProcessId(0);
        // Subject sessions with a gap 20..30.
        tl.subject[0].record(Time(5), p0, DinerPhase::Hungry);
        tl.subject[0].record(Time(10), p0, DinerPhase::Eating);
        tl.subject[0].record(Time(20), p0, DinerPhase::Exiting);
        tl.subject[0].record(Time(21), p0, DinerPhase::Thinking);
        tl.subject[1].record(Time(25), p0, DinerPhase::Hungry);
        tl.subject[1].record(Time(30), p0, DinerPhase::Eating);
        tl.subject[1].record(Time(60), p0, DinerPhase::Exiting);
        tl.subject[1].record(Time(61), p0, DinerPhase::Thinking);
        for h in tl.subject.iter_mut().chain(tl.witness.iter_mut()) {
            h.set_horizon(Time(100));
        }
        let v = tl.handoff_violations(Time::ZERO);
        assert!(v.iter().any(|s| s.contains("gap")), "violations: {v:?}");
    }

    #[test]
    fn pair_timelines_handoff_check_flags_unfed_witness() {
        let mut tl = PairTimelines {
            witness: [DiningHistory::new(1), DiningHistory::new(1)],
            subject: [DiningHistory::new(1), DiningHistory::new(1)],
            horizon: Time(100),
        };
        let p0 = ProcessId(0);
        // w_0 eats twice with no s_0 session in between.
        for (h0, e0, x0) in [(2u64, 4u64, 6u64), (40, 44, 48)] {
            tl.witness[0].record(Time(h0), p0, DinerPhase::Hungry);
            tl.witness[0].record(Time(e0), p0, DinerPhase::Eating);
            tl.witness[0].record(Time(x0), p0, DinerPhase::Exiting);
            tl.witness[0].record(Time(x0 + 1), p0, DinerPhase::Thinking);
        }
        for h in tl.subject.iter_mut().chain(tl.witness.iter_mut()) {
            h.set_horizon(Time(100));
        }
        let v = tl.handoff_violations(Time::ZERO);
        assert!(v.iter().any(|s| s.contains("w_0 ate twice")), "violations: {v:?}");
    }
}
