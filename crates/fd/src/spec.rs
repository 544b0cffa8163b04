//! Trace-level checkers for failure-detector specifications.
//!
//! A finite recorded run cannot literally certify an "eventually permanently"
//! property; the standard finite-run reading used throughout this repository
//! is: *the property holds on the recorded suffix*, i.e. the suspicion signal
//! has stabilized to the required value by the end of the recording, and the
//! checkers report the stabilization instant plus how many violations (e.g.
//! wrongful-suspicion intervals) occurred before it. Experiments then show
//! these instants are insensitive to the horizon, which is the empirical
//! counterpart of "eventually".

use std::fmt;

use serde::{Deserialize, Serialize};

use dinefd_sim::{BoolTimeline, CrashPlan, ProcessId, Time};

use crate::class::OracleClass;

/// The complete suspicion history of a run: one boolean timeline per ordered
/// `(watcher, subject)` pair.
///
/// ```
/// use dinefd_fd::{OracleClass, SuspicionHistory};
/// use dinefd_sim::{CrashPlan, ProcessId, Time};
///
/// let (p0, p1) = (ProcessId(0), ProcessId(1));
/// let plan = CrashPlan::one(p1, Time(50));
/// let mut h = SuspicionHistory::new(2, true); // the reduction starts suspecting
/// h.record(Time(5), p0, p1, false);           // first trust
/// h.record(Time(20), p0, p1, true);           // a wrongful flap…
/// h.record(Time(25), p0, p1, false);          // …corrected
/// h.record(Time(60), p0, p1, true);           // the crash, detected forever
/// h.record(Time(5), p1, p0, false);
///
/// assert_eq!(h.mistake_intervals(p0, p1), 3); // initial + flap + (post-crash interval)
/// let det = h.strong_completeness(&plan).unwrap();
/// assert_eq!(det[0].detected_from, Time(60));
/// assert!(h.classify(&plan).contains(&OracleClass::EventuallyPerfect));
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SuspicionHistory {
    n: usize,
    timelines: Vec<BoolTimeline>,
    /// `monitored[w*n+s]`: whether the pair `(w, s)` is part of the detector
    /// under test. Checkers skip unmonitored pairs (a scenario may monitor a
    /// subset of ordered pairs).
    monitored: Vec<bool>,
}

/// A violation of a failure-detector specification found in a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FdViolation {
    /// A crashed subject is not permanently suspected by a correct watcher at
    /// the end of the recording (strong completeness fails).
    NotPermanentlySuspected {
        /// The correct watcher.
        watcher: ProcessId,
        /// The crashed subject.
        subject: ProcessId,
    },
    /// A correct subject is still suspected by a correct watcher at the end
    /// of the recording (eventual strong accuracy fails).
    StillSuspected {
        /// The correct watcher.
        watcher: ProcessId,
        /// The correct subject.
        subject: ProcessId,
    },
    /// A correct subject was suspected at some point (perpetual strong
    /// accuracy fails).
    EverSuspected {
        /// The watcher.
        watcher: ProcessId,
        /// The correct subject.
        subject: ProcessId,
        /// First wrongful-suspicion instant.
        at: Time,
    },
    /// A watcher stopped trusting a subject that had not crashed (trusting
    /// accuracy fails).
    UntrustedWhileLive {
        /// The watcher.
        watcher: ProcessId,
        /// The live subject.
        subject: ProcessId,
        /// The trust→suspect transition instant.
        at: Time,
    },
    /// No correct process is never-suspected (perpetual weak accuracy fails).
    NoImmuneProcess,
}

impl fmt::Display for FdViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FdViolation::NotPermanentlySuspected { watcher, subject } => {
                write!(f, "{watcher} does not permanently suspect crashed {subject}")
            }
            FdViolation::StillSuspected { watcher, subject } => {
                write!(f, "{watcher} still suspects correct {subject} at end of run")
            }
            FdViolation::EverSuspected { watcher, subject, at } => {
                write!(f, "{watcher} suspected correct {subject} at {at:?}")
            }
            FdViolation::UntrustedWhileLive { watcher, subject, at } => {
                write!(f, "{watcher} stopped trusting live {subject} at {at:?}")
            }
            FdViolation::NoImmuneProcess => {
                write!(f, "no correct process escapes suspicion by every live process")
            }
        }
    }
}

/// Per-pair accuracy data for a correct watcher/correct subject pair.
#[derive(Clone, Copy, Debug)]
pub struct PairAccuracy {
    /// The watcher.
    pub watcher: ProcessId,
    /// The subject.
    pub subject: ProcessId,
    /// Number of wrongful-suspicion intervals.
    pub mistakes: usize,
    /// Instant from which the subject is permanently trusted.
    pub trusted_from: Time,
}

/// Per-pair completeness data for a correct watcher/faulty subject pair.
#[derive(Clone, Copy, Debug)]
pub struct PairDetection {
    /// The watcher.
    pub watcher: ProcessId,
    /// The crashed subject.
    pub subject: ProcessId,
    /// Crash instant.
    pub crashed_at: Time,
    /// Instant from which the subject is permanently suspected.
    pub detected_from: Time,
}

impl SuspicionHistory {
    /// An empty history over `n` processes; every pair starts with the given
    /// initial output (`true` = suspected, matching the paper's reduction,
    /// which initializes `suspect_q` to true; heartbeat detectors start
    /// trusting instead).
    pub fn new(n: usize, initially_suspected: bool) -> Self {
        SuspicionHistory {
            n,
            timelines: (0..n * n).map(|_| BoolTimeline::new(initially_suspected)).collect(),
            monitored: vec![true; n * n],
        }
    }

    /// Restricts the checkers to the given ordered pairs; all other pairs
    /// are treated as out of scope.
    pub fn restrict_to(&mut self, pairs: &[(ProcessId, ProcessId)]) {
        self.monitored = vec![false; self.n * self.n];
        for &(w, s) in pairs {
            self.monitored[w.index() * self.n + s.index()] = true;
        }
    }

    /// Whether the checkers consider the ordered pair `(w, s)`.
    pub fn is_monitored(&self, w: ProcessId, s: ProcessId) -> bool {
        w != s && self.monitored[w.index() * self.n + s.index()]
    }

    /// Records an output change.
    pub fn record(&mut self, at: Time, watcher: ProcessId, subject: ProcessId, suspected: bool) {
        self.timelines[watcher.index() * self.n + subject.index()].set(at, suspected);
    }

    /// Adopts the full timeline rows of the given watchers from `other`,
    /// replacing this history's rows wholesale (monitored flags are left
    /// untouched — they describe the query restriction, not the data).
    ///
    /// This is the deterministic merge for *partitioned* folds: when each
    /// partition has recorded exactly its own watchers' outputs (every
    /// extraction: one `HistorySink` per simulation shard, where a
    /// watcher's observations all surface on its own shard), adopting each
    /// partition's watcher
    /// rows reassembles the sequential history row for row — rows a
    /// partition never recorded are still at their initial state on both
    /// sides, so wholesale replacement is exact.
    pub fn adopt_watcher_rows(
        &mut self,
        other: &SuspicionHistory,
        watchers: impl IntoIterator<Item = ProcessId>,
    ) {
        assert_eq!(self.n, other.n, "histories must agree on system size");
        for w in watchers {
            let base = w.index() * self.n;
            self.timelines[base..base + self.n]
                .clone_from_slice(&other.timelines[base..base + self.n]);
        }
    }

    /// System size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the system is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The suspicion timeline of an ordered pair.
    pub fn timeline(&self, watcher: ProcessId, subject: ProcessId) -> &BoolTimeline {
        &self.timelines[watcher.index() * self.n + subject.index()]
    }

    /// Total number of recorded output changes across all pairs.
    ///
    /// Together with `len()²` this is the history's logical resident size:
    /// a streamed extraction holds `O(n² + change_count)` timeline entries
    /// and nothing else, however long the run was.
    pub fn change_count(&self) -> u64 {
        self.timelines.iter().map(|tl| tl.changes().len() as u64).sum()
    }

    /// Number of wrongful-suspicion intervals of `watcher` about `subject`
    /// (every suspicion interval of a correct subject is wrongful).
    pub fn mistake_intervals(&self, watcher: ProcessId, subject: ProcessId) -> usize {
        // A suspicion interval is a maximal `true` interval; count the
        // rising edges, plus the initial interval if the signal starts true.
        let tl = self.timeline(watcher, subject);
        let mut count = 0;
        let mut cur = tl.initial();
        if cur {
            count += 1;
        }
        for &(_, v) in tl.changes() {
            if v && !cur {
                count += 1;
            }
            cur = v;
        }
        count
    }

    /// **Strong completeness**: every crashed process is (by the end of the
    /// recording) permanently suspected by every correct process.
    pub fn strong_completeness(
        &self,
        plan: &CrashPlan,
    ) -> Result<Vec<PairDetection>, Vec<FdViolation>> {
        let mut detections = Vec::new();
        let mut violations = Vec::new();
        for w in ProcessId::all(self.n) {
            if plan.is_faulty(w) {
                continue;
            }
            for s in ProcessId::all(self.n) {
                if !self.is_monitored(w, s) {
                    continue;
                }
                let Some(crashed_at) = plan.crash_time(s) else { continue };
                match self.timeline(w, s).true_from() {
                    Some(detected_from) => detections.push(PairDetection {
                        watcher: w,
                        subject: s,
                        crashed_at,
                        detected_from,
                    }),
                    None => violations
                        .push(FdViolation::NotPermanentlySuspected { watcher: w, subject: s }),
                }
            }
        }
        if violations.is_empty() {
            Ok(detections)
        } else {
            Err(violations)
        }
    }

    /// **Eventual strong accuracy**: there is a time after which no correct
    /// process is suspected by any correct process. Returns per-pair mistake
    /// counts and trust-stabilization instants.
    pub fn eventual_strong_accuracy(
        &self,
        plan: &CrashPlan,
    ) -> Result<Vec<PairAccuracy>, Vec<FdViolation>> {
        let mut pairs = Vec::new();
        let mut violations = Vec::new();
        for w in ProcessId::all(self.n) {
            if plan.is_faulty(w) {
                continue;
            }
            for s in ProcessId::all(self.n) {
                if !self.is_monitored(w, s) || plan.is_faulty(s) {
                    continue;
                }
                let tl = self.timeline(w, s);
                if tl.value_at_end() {
                    violations.push(FdViolation::StillSuspected { watcher: w, subject: s });
                } else {
                    let trusted_from = tl.changes().last().map_or(Time::ZERO, |&(t, _)| t);
                    pairs.push(PairAccuracy {
                        watcher: w,
                        subject: s,
                        mistakes: self.mistake_intervals(w, s),
                        trusted_from,
                    });
                }
            }
        }
        if violations.is_empty() {
            Ok(pairs)
        } else {
            Err(violations)
        }
    }

    /// **Perpetual strong accuracy** (the `P` accuracy): no process is
    /// suspected *before it crashes* (Chandra–Toueg: false positives are
    /// forbidden even about a process that later turns out to be faulty).
    pub fn perpetual_strong_accuracy(&self, plan: &CrashPlan) -> Result<(), Vec<FdViolation>> {
        let mut violations = Vec::new();
        for w in ProcessId::all(self.n) {
            for s in ProcessId::all(self.n) {
                if !self.is_monitored(w, s) {
                    continue;
                }
                let crash = plan.crash_time(s).unwrap_or(Time::INFINITY);
                let tl = self.timeline(w, s);
                if tl.initial() && crash > Time::ZERO {
                    violations.push(FdViolation::EverSuspected {
                        watcher: w,
                        subject: s,
                        at: Time::ZERO,
                    });
                } else if let Some(&(t, _)) = tl.changes().iter().find(|&&(t, v)| v && t < crash) {
                    violations.push(FdViolation::EverSuspected { watcher: w, subject: s, at: t });
                }
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }

    /// **Perpetual weak accuracy** (the `S` accuracy): some correct process
    /// is never suspected by any live process. Returns such a process.
    pub fn perpetual_weak_accuracy(&self, plan: &CrashPlan) -> Result<ProcessId, FdViolation> {
        'candidate: for s in ProcessId::all(self.n) {
            if plan.is_faulty(s) {
                continue;
            }
            for w in ProcessId::all(self.n) {
                if !self.is_monitored(w, s) {
                    continue;
                }
                let w_crash = plan.crash_time(w).unwrap_or(Time::INFINITY);
                let tl = self.timeline(w, s);
                // Any suspicion interval beginning before the watcher's crash
                // counts as suspicion "by a live process".
                let suspected_while_live =
                    tl.initial() || tl.changes().iter().any(|&(t, v)| v && t < w_crash);
                if suspected_while_live {
                    continue 'candidate;
                }
            }
            return Ok(s);
        }
        Err(FdViolation::NoImmuneProcess)
    }

    /// **Eventual weak accuracy** (the ◇S accuracy): eventually some
    /// correct process is no longer suspected by any correct process — on a
    /// finite recording: some correct process whose timelines at all correct
    /// monitored watchers end in "trusted". Returns such a process.
    pub fn eventual_weak_accuracy(&self, plan: &CrashPlan) -> Result<ProcessId, FdViolation> {
        'candidate: for s in ProcessId::all(self.n) {
            if plan.is_faulty(s) {
                continue;
            }
            for w in ProcessId::all(self.n) {
                if !self.is_monitored(w, s) || plan.is_faulty(w) {
                    continue;
                }
                if self.timeline(w, s).value_at_end() {
                    continue 'candidate;
                }
            }
            return Ok(s);
        }
        Err(FdViolation::NoImmuneProcess)
    }

    /// **Trusting accuracy** (the `T` accuracy): (a) every correct process is
    /// eventually permanently trusted by every correct process; (b) whenever
    /// a watcher transitions from trusting to suspecting a subject, the
    /// subject has already crashed.
    pub fn trusting_accuracy(&self, plan: &CrashPlan) -> Result<(), Vec<FdViolation>> {
        let mut violations = Vec::new();
        // (a) is exactly eventual strong accuracy's end condition.
        if let Err(mut v) = self.eventual_strong_accuracy(plan) {
            violations.append(&mut v);
        }
        // (b) trust→suspect transitions only about already-crashed subjects.
        for w in ProcessId::all(self.n) {
            for s in ProcessId::all(self.n) {
                if !self.is_monitored(w, s) {
                    continue;
                }
                let crash = plan.crash_time(s).unwrap_or(Time::INFINITY);
                let tl = self.timeline(w, s);
                // A trust→suspect transition is a change to `true` whose
                // predecessor value was `false`; initial suspicion is not a
                // transition (the oracle never *trusted* yet).
                let mut prev = tl.initial();
                for &(t, v) in tl.changes() {
                    // A change at time zero establishes the detector's
                    // initial output; it is not a trust→suspect transition.
                    if v && !prev && t < crash && t > Time::ZERO {
                        violations.push(FdViolation::UntrustedWhileLive {
                            watcher: w,
                            subject: s,
                            at: t,
                        });
                    }
                    prev = v;
                }
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }

    /// Which oracle classes this recorded run is consistent with.
    pub fn classify(&self, plan: &CrashPlan) -> Vec<OracleClass> {
        let mut classes = Vec::new();
        let complete = self.strong_completeness(plan).is_ok();
        if !complete {
            return classes;
        }
        if self.perpetual_strong_accuracy(plan).is_ok() {
            classes.push(OracleClass::Perfect);
        }
        if self.eventual_strong_accuracy(plan).is_ok() {
            classes.push(OracleClass::EventuallyPerfect);
        }
        if self.perpetual_weak_accuracy(plan).is_ok() {
            classes.push(OracleClass::Strong);
        }
        if self.eventual_weak_accuracy(plan).is_ok() {
            classes.push(OracleClass::EventuallyStrong);
        }
        if self.trusting_accuracy(plan).is_ok() {
            classes.push(OracleClass::Trusting);
        }
        classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    /// p0 watches p1 (faulty, crashes at 50): suspicion flaps twice, then
    /// permanent from t=60.
    fn completeness_history() -> (SuspicionHistory, CrashPlan) {
        let mut h = SuspicionHistory::new(2, true);
        h.record(Time(5), p(0), p(1), false);
        h.record(Time(10), p(0), p(1), true);
        h.record(Time(12), p(0), p(1), false);
        h.record(Time(60), p(0), p(1), true);
        (h, CrashPlan::one(p(1), Time(50)))
    }

    #[test]
    fn strong_completeness_detects_permanence() {
        let (h, plan) = completeness_history();
        let report = h.strong_completeness(&plan).unwrap();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].detected_from, Time(60));
        assert_eq!(report[0].crashed_at, Time(50));
    }

    #[test]
    fn strong_completeness_fails_if_trusting_at_end() {
        let mut h = SuspicionHistory::new(2, true);
        h.record(Time(70), p(0), p(1), false);
        let plan = CrashPlan::one(p(1), Time(50));
        let errs = h.strong_completeness(&plan).unwrap_err();
        assert_eq!(
            errs,
            vec![FdViolation::NotPermanentlySuspected { watcher: p(0), subject: p(1) }]
        );
    }

    #[test]
    fn eventual_strong_accuracy_counts_mistakes() {
        // Both correct; p0 wrongfully suspects p1 twice (initial + one flap).
        let mut h = SuspicionHistory::new(2, true);
        h.record(Time(5), p(0), p(1), false);
        h.record(Time(10), p(0), p(1), true);
        h.record(Time(20), p(0), p(1), false);
        h.record(Time(3), p(1), p(0), false);
        let plan = CrashPlan::none();
        let report = h.eventual_strong_accuracy(&plan).unwrap();
        let a01 = report.iter().find(|r| r.watcher == p(0)).unwrap();
        assert_eq!(a01.mistakes, 2);
        assert_eq!(a01.trusted_from, Time(20));
        let a10 = report.iter().find(|r| r.watcher == p(1)).unwrap();
        assert_eq!(a10.mistakes, 1); // just the initial suspicion
        assert_eq!(a10.trusted_from, Time(3));
    }

    #[test]
    fn eventual_strong_accuracy_fails_when_suspicion_persists() {
        let mut h = SuspicionHistory::new(2, true);
        h.record(Time(3), p(1), p(0), false);
        // p0 never stops suspecting p1.
        let errs = h.eventual_strong_accuracy(&CrashPlan::none()).unwrap_err();
        assert_eq!(errs, vec![FdViolation::StillSuspected { watcher: p(0), subject: p(1) }]);
    }

    #[test]
    fn perpetual_strong_accuracy_requires_zero_mistakes() {
        // Initially trusting, never suspects: P-accurate.
        let h = SuspicionHistory::new(2, false);
        assert!(h.perpetual_strong_accuracy(&CrashPlan::none()).is_ok());
        // One wrongful suspicion breaks it.
        let mut h = SuspicionHistory::new(2, false);
        h.record(Time(4), p(0), p(1), true);
        h.record(Time(6), p(0), p(1), false);
        let errs = h.perpetual_strong_accuracy(&CrashPlan::none()).unwrap_err();
        assert_eq!(
            errs,
            vec![FdViolation::EverSuspected { watcher: p(0), subject: p(1), at: Time(4) }]
        );
    }

    #[test]
    fn perpetual_strong_accuracy_allows_suspecting_faulty() {
        let mut h = SuspicionHistory::new(2, false);
        h.record(Time(60), p(0), p(1), true);
        let plan = CrashPlan::one(p(1), Time(50));
        assert!(h.perpetual_strong_accuracy(&plan).is_ok());
    }

    #[test]
    fn perpetual_strong_accuracy_rejects_suspicion_before_crash() {
        // Chandra–Toueg strong accuracy: no process is suspected BEFORE it
        // crashes — even a process that does crash later.
        let mut h = SuspicionHistory::new(2, false);
        h.record(Time(40), p(0), p(1), true);
        let plan = CrashPlan::one(p(1), Time(50));
        let errs = h.perpetual_strong_accuracy(&plan).unwrap_err();
        assert_eq!(
            errs,
            vec![FdViolation::EverSuspected { watcher: p(0), subject: p(1), at: Time(40) }]
        );
    }

    #[test]
    fn weak_accuracy_finds_immune_process() {
        // 3 processes, all correct; everyone suspects p1 once, nobody ever
        // suspects p2... but p0 is suspected by p1.
        let mut h = SuspicionHistory::new(3, false);
        h.record(Time(2), p(0), p(1), true);
        h.record(Time(4), p(1), p(0), true);
        assert_eq!(h.perpetual_weak_accuracy(&CrashPlan::none()).unwrap(), p(2));
    }

    #[test]
    fn weak_accuracy_fails_when_everyone_suspected() {
        let mut h = SuspicionHistory::new(2, false);
        h.record(Time(2), p(0), p(1), true);
        h.record(Time(4), p(1), p(0), true);
        assert_eq!(
            h.perpetual_weak_accuracy(&CrashPlan::none()),
            Err(FdViolation::NoImmuneProcess)
        );
    }

    #[test]
    fn trusting_accuracy_rejects_untrust_of_live_process() {
        // Trust then suspect a live process: T violation even if it later
        // re-trusts permanently.
        let mut h = SuspicionHistory::new(2, false);
        h.record(Time(5), p(0), p(1), true);
        h.record(Time(9), p(0), p(1), false);
        h.record(Time(2), p(1), p(0), false);
        let errs = h.trusting_accuracy(&CrashPlan::none()).unwrap_err();
        assert!(errs.contains(&FdViolation::UntrustedWhileLive {
            watcher: p(0),
            subject: p(1),
            at: Time(5)
        }));
    }

    #[test]
    fn trusting_accuracy_allows_untrust_after_crash() {
        let mut h = SuspicionHistory::new(2, false);
        h.record(Time(60), p(0), p(1), true);
        let plan = CrashPlan::one(p(1), Time(50));
        assert!(h.trusting_accuracy(&plan).is_ok());
    }

    #[test]
    fn trusting_accuracy_allows_initial_suspicion() {
        // Starting suspected and then trusting forever is T-consistent:
        // the initial suspicion is not a trust→suspect transition.
        let mut h = SuspicionHistory::new(2, true);
        h.record(Time(5), p(0), p(1), false);
        h.record(Time(5), p(1), p(0), false);
        assert!(h.trusting_accuracy(&CrashPlan::none()).is_ok());
    }

    #[test]
    fn classify_diamond_p_run() {
        // Finite mistakes then convergence, completeness on faulty process.
        let mut h = SuspicionHistory::new(3, true);
        let plan = CrashPlan::one(p(2), Time(40));
        // Correct pair (0,1): initial suspicion cleared, one flap.
        h.record(Time(5), p(0), p(1), false);
        h.record(Time(8), p(0), p(1), true);
        h.record(Time(11), p(0), p(1), false);
        h.record(Time(5), p(1), p(0), false);
        // Faulty subject p2: permanently suspected after crash.
        h.record(Time(6), p(0), p(2), false);
        h.record(Time(45), p(0), p(2), true);
        h.record(Time(6), p(1), p(2), false);
        h.record(Time(50), p(1), p(2), true);
        let classes = h.classify(&plan);
        assert!(classes.contains(&OracleClass::EventuallyPerfect));
        assert!(!classes.contains(&OracleClass::Perfect)); // flap at t=8
        assert!(!classes.contains(&OracleClass::Trusting)); // flap = untrust while live
    }

    #[test]
    fn classify_perfect_run() {
        let mut h = SuspicionHistory::new(2, false);
        let plan = CrashPlan::one(p(1), Time(40));
        h.record(Time(45), p(0), p(1), true);
        let classes = h.classify(&plan);
        assert!(classes.contains(&OracleClass::Perfect));
        assert!(classes.contains(&OracleClass::EventuallyPerfect));
        assert!(classes.contains(&OracleClass::Trusting));
        assert!(classes.contains(&OracleClass::Strong));
    }

    #[test]
    fn mistake_intervals_counts_initial_interval() {
        let mut h = SuspicionHistory::new(2, true);
        h.record(Time(5), p(0), p(1), false);
        assert_eq!(h.mistake_intervals(p(0), p(1)), 1);
        h.record(Time(7), p(0), p(1), true);
        h.record(Time(9), p(0), p(1), false);
        assert_eq!(h.mistake_intervals(p(0), p(1)), 2);
    }
}
