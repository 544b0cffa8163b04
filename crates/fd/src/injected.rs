//! Scripted ("injected") failure-detector oracles.
//!
//! The necessity reduction treats the dining layer as a black box over *some*
//! system where WF-◇WX is solvable; the sufficiency results \[12, 13\] build
//! that layer from ◇P. For experiments we therefore need a ◇P (or P, or T)
//! module underneath the dining implementations whose mistake behaviour we
//! fully control: an [`InjectedOracle`] knows the run's crash plan and a
//! per-pair schedule of wrongful-suspicion intervals, and answers queries as
//! a local detector module would. Because the mistake schedule is an input,
//! experiments can drive worst-case finite prefixes (adversarial flapping,
//! long initial distrust) rather than hoping a heartbeat implementation
//! happens to misbehave.

use std::fmt;

use dinefd_sim::{CrashPlan, ProcessId, SplitMix64, Time};

/// Read-only query interface of a local failure-detector module, as seen by
/// the protocols that consume it.
///
/// `now` is threaded through because the injected oracle is an omniscient
/// *model* of a detector module: the real artifact it stands for (see
/// [`crate::heartbeat`]) evolves with local steps; its simulated stand-in
/// indexes a precomputed timeline by global time instead.
pub trait FdQuery: fmt::Debug {
    /// Does `watcher`'s module currently suspect `subject`?
    fn suspected(&self, watcher: ProcessId, subject: ProcessId, now: Time) -> bool;

    /// Once [`FdQuery::suspected`] has answered `false` for this pair at
    /// `now`: an instant after `now` before which it keeps answering `false`,
    /// so a caller polling the pair may skip the queries until then. The
    /// default, `now + 1`, promises nothing past `now`; an adapter that does
    /// not forward this method therefore stays correct, only unhinted.
    fn unsuspected_until(&self, _watcher: ProcessId, _subject: ProcessId, now: Time) -> Time {
        now + 1
    }

    /// System size.
    fn len(&self) -> usize;

    /// True when the system is empty (never, in practice).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Wrongful-suspicion schedule of one ordered `(watcher, subject)` pair:
/// half-open intervals `[start, end)` during which the watcher wrongfully
/// suspects the (live) subject.
#[derive(Clone, Debug, Default)]
pub struct MistakePlan {
    intervals: Vec<(Time, Time)>,
}

impl MistakePlan {
    /// No mistakes ever.
    pub fn none() -> Self {
        MistakePlan::default()
    }

    /// A plan from explicit half-open intervals (must be chronological and
    /// disjoint).
    pub fn from_intervals(intervals: Vec<(Time, Time)>) -> Self {
        debug_assert!(
            intervals.windows(2).all(|w| w[0].1 <= w[1].0),
            "intervals must be sorted/disjoint"
        );
        debug_assert!(intervals.iter().all(|&(s, e)| s < e), "intervals must be nonempty");
        MistakePlan { intervals }
    }

    /// Random finite mistakes: up to `max_mistakes` intervals of length in
    /// `[1, max_len]`, all contained in `[0, before)`.
    pub fn random(rng: &mut SplitMix64, before: Time, max_mistakes: u64, max_len: u64) -> Self {
        if before == Time::ZERO || max_mistakes == 0 {
            return MistakePlan::none();
        }
        let k = rng.below(max_mistakes + 1);
        let mut starts: Vec<u64> = (0..k).map(|_| rng.below(before.ticks())).collect();
        starts.sort_unstable();
        let mut intervals = Vec::with_capacity(starts.len());
        let mut cursor = 0u64;
        for s in starts {
            let s = s.max(cursor);
            if s >= before.ticks() {
                break;
            }
            let e = (s + rng.range(1, max_len.max(1))).min(before.ticks());
            if s < e {
                intervals.push((Time(s), Time(e)));
                cursor = e;
            }
        }
        MistakePlan { intervals }
    }

    /// Whether the plan says "suspect" at instant `t`.
    pub fn active_at(&self, t: Time) -> bool {
        self.intervals.iter().any(|&(s, e)| s <= t && t < e)
    }

    /// The scheduled intervals.
    pub fn intervals(&self) -> &[(Time, Time)] {
        &self.intervals
    }

    /// The start of the first interval not over by `t` ([`Time::INFINITY`]
    /// if none): the plan says "trust" from `t` until then.
    fn next_mistake(&self, t: Time) -> Time {
        self.intervals.iter().find(|&&(_, e)| t < e).map_or(Time::INFINITY, |&(s, _)| s)
    }

    /// The end of the last mistake interval ([`Time::ZERO`] if none).
    pub fn quiet_from(&self) -> Time {
        self.intervals.last().map_or(Time::ZERO, |&(_, e)| e)
    }
}

/// An omniscient scripted oracle: per-pair mistakes before convergence,
/// permanent suspicion of crashed processes after a detection lag.
#[derive(Clone, Debug)]
pub struct InjectedOracle {
    n: usize,
    crashes: CrashPlan,
    detection_lag: u64,
    mistakes: Vec<MistakePlan>,
}

impl InjectedOracle {
    /// A perfect detector (`P`): zero mistakes, crashed processes suspected
    /// `detection_lag` ticks after crashing.
    pub fn perfect(n: usize, crashes: CrashPlan, detection_lag: u64) -> Self {
        InjectedOracle { n, crashes, detection_lag, mistakes: vec![MistakePlan::none(); n * n] }
    }

    /// An eventually perfect detector (`◇P`): every ordered pair gets a
    /// random finite mistake schedule contained in `[0, convergence)`.
    pub fn diamond_p(
        n: usize,
        crashes: CrashPlan,
        detection_lag: u64,
        convergence: Time,
        max_mistakes: u64,
        max_len: u64,
        rng: &mut SplitMix64,
    ) -> Self {
        let mut oracle = InjectedOracle::perfect(n, crashes, detection_lag);
        for w in 0..n {
            for s in 0..n {
                if w != s {
                    oracle.mistakes[w * n + s] =
                        MistakePlan::random(rng, convergence, max_mistakes, max_len);
                }
            }
        }
        oracle
    }

    /// A trusting detector (`T`): each pair starts suspected for a random
    /// prefix (the pre-first-trust phase, during which T's accuracy permits
    /// suspicion), then trusts until the subject actually crashes.
    pub fn trusting(
        n: usize,
        crashes: CrashPlan,
        detection_lag: u64,
        trust_by: Time,
        rng: &mut SplitMix64,
    ) -> Self {
        let mut oracle = InjectedOracle::perfect(n, crashes, detection_lag);
        for w in 0..n {
            for s in 0..n {
                if w != s && trust_by > Time::ZERO {
                    let until = Time(rng.range(1, trust_by.ticks()));
                    oracle.mistakes[w * n + s] =
                        MistakePlan::from_intervals(vec![(Time::ZERO, until)]);
                }
            }
        }
        oracle
    }

    /// Overrides the mistake plan of one ordered pair (adversarial setups).
    pub fn set_mistakes(&mut self, watcher: ProcessId, subject: ProcessId, plan: MistakePlan) {
        assert_ne!(watcher, subject);
        self.mistakes[watcher.index() * self.n + subject.index()] = plan;
    }

    /// The mistake plan of one ordered pair.
    pub fn mistakes(&self, watcher: ProcessId, subject: ProcessId) -> &MistakePlan {
        &self.mistakes[watcher.index() * self.n + subject.index()]
    }

    /// The instant from which the oracle makes no further wrongful
    /// suspicions (its ◇P convergence time).
    pub fn convergence_time(&self) -> Time {
        self.mistakes.iter().map(MistakePlan::quiet_from).max().unwrap_or(Time::ZERO)
    }

    /// The crash plan this oracle is scripted against.
    pub fn crash_plan(&self) -> &CrashPlan {
        &self.crashes
    }
}

impl FdQuery for InjectedOracle {
    fn suspected(&self, watcher: ProcessId, subject: ProcessId, now: Time) -> bool {
        if watcher == subject {
            return false;
        }
        if let Some(t) = self.crashes.crash_time(subject) {
            if now.ticks() >= t.ticks().saturating_add(self.detection_lag) {
                return true;
            }
        }
        self.mistakes[watcher.index() * self.n + subject.index()].active_at(now)
    }

    /// The earlier of the subject's detection (crash plus lag) and the start
    /// of the pair's next mistake.
    fn unsuspected_until(&self, watcher: ProcessId, subject: ProcessId, now: Time) -> Time {
        if watcher == subject {
            return Time::INFINITY;
        }
        let detected =
            self.crashes.crash_time(subject).map_or(Time::INFINITY, |t| t + self.detection_lag);
        detected.min(self.mistakes[watcher.index() * self.n + subject.index()].next_mistake(now))
    }

    fn len(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    #[test]
    fn perfect_never_wrongfully_suspects() {
        let o = InjectedOracle::perfect(3, CrashPlan::one(p(2), Time(100)), 10);
        for t in [0u64, 50, 99, 105, 1000] {
            assert!(!o.suspected(p(0), p(1), Time(t)));
        }
        assert!(!o.suspected(p(0), p(2), Time(100)));
        assert!(!o.suspected(p(0), p(2), Time(109)));
        assert!(o.suspected(p(0), p(2), Time(110)));
        assert!(o.suspected(p(0), p(2), Time(100_000)));
    }

    #[test]
    fn never_suspects_self() {
        let o = InjectedOracle::perfect(2, CrashPlan::one(p(0), Time(1)), 0);
        assert!(!o.suspected(p(0), p(0), Time(100)));
    }

    #[test]
    fn diamond_p_mistakes_end_by_convergence() {
        let mut rng = SplitMix64::new(9);
        let o = InjectedOracle::diamond_p(4, CrashPlan::none(), 5, Time(500), 6, 40, &mut rng);
        assert!(o.convergence_time() <= Time(500));
        for w in 0..4u32 {
            for s in 0..4u32 {
                for t in [500u64, 600, 10_000] {
                    assert!(!o.suspected(p(w), p(s), Time(t)));
                }
            }
        }
    }

    #[test]
    fn diamond_p_makes_some_mistakes() {
        let mut rng = SplitMix64::new(10);
        let o = InjectedOracle::diamond_p(4, CrashPlan::none(), 5, Time(500), 6, 40, &mut rng);
        let any = (0..4)
            .flat_map(|w| (0..4).map(move |s| (w, s)))
            .filter(|&(w, s)| w != s)
            .any(|(w, s)| !o.mistakes(p(w as u32), p(s as u32)).intervals().is_empty());
        assert!(any, "expected at least one scheduled mistake");
    }

    #[test]
    fn trusting_suspects_only_initially_or_after_crash() {
        let mut rng = SplitMix64::new(11);
        let plan = CrashPlan::one(p(1), Time(800));
        let o = InjectedOracle::trusting(3, plan, 7, Time(100), &mut rng);
        // After the trust deadline and before any crash: everyone trusted.
        assert!(!o.suspected(p(0), p(2), Time(100)));
        assert!(!o.suspected(p(2), p(0), Time(400)));
        // Crashed process suspected after lag.
        assert!(o.suspected(p(0), p(1), Time(807)));
        // Initial suspicion phase exists for at least one pair.
        let any_initial = !o.mistakes(p(0), p(2)).intervals().is_empty()
            || !o.mistakes(p(2), p(0)).intervals().is_empty()
            || !o.mistakes(p(0), p(1)).intervals().is_empty();
        assert!(any_initial);
    }

    #[test]
    fn explicit_mistake_plan_is_honoured() {
        let mut o = InjectedOracle::perfect(2, CrashPlan::none(), 0);
        o.set_mistakes(
            p(0),
            p(1),
            MistakePlan::from_intervals(vec![(Time(10), Time(20)), (Time(30), Time(35))]),
        );
        assert!(!o.suspected(p(0), p(1), Time(9)));
        assert!(o.suspected(p(0), p(1), Time(10)));
        assert!(o.suspected(p(0), p(1), Time(19)));
        assert!(!o.suspected(p(0), p(1), Time(20)));
        assert!(o.suspected(p(0), p(1), Time(34)));
        assert!(!o.suspected(p(0), p(1), Time(35)));
        assert_eq!(o.convergence_time(), Time(35));
    }

    #[test]
    fn random_plans_are_disjoint_and_sorted() {
        let mut rng = SplitMix64::new(12);
        for _ in 0..200 {
            let plan = MistakePlan::random(&mut rng, Time(300), 8, 50);
            let iv = plan.intervals();
            assert!(iv.iter().all(|&(s, e)| s < e && e <= Time(300)));
            assert!(iv.windows(2).all(|w| w[0].1 <= w[1].0));
        }
    }

    /// Wherever `suspected` answers `false`, `unsuspected_until` lies after
    /// `now` and every instant before it answers `false` too; for these
    /// oracles it is exact, the first instant answering `true`. Covers
    /// `watcher == subject` and a subject that crashes.
    #[test]
    fn unsuspected_until_is_after_now_and_no_suspicion_comes_before_it() {
        const END: u64 = 700;
        let crashes = CrashPlan::one(p(2), Time(300));
        let mut rng = SplitMix64::new(13);
        let oracles = [
            ("P", InjectedOracle::perfect(4, crashes.clone(), 10)),
            ("◇P", InjectedOracle::diamond_p(4, crashes.clone(), 10, Time(400), 6, 40, &mut rng)),
            ("T", InjectedOracle::trusting(4, crashes, 10, Time(200), &mut rng)),
        ];
        let (mut hinted, mut open_ended) = (0, 0);
        for (name, o) in &oracles {
            for (w, s) in (0..4).flat_map(|w| (0..4).map(move |s| (p(w), p(s)))) {
                let answers: Vec<bool> = (0..END).map(|t| o.suspected(w, s, Time(t))).collect();
                for now in (0..END).filter(|&t| !answers[t as usize]) {
                    let until = o.unsuspected_until(w, s, Time(now));
                    let what = format!("{name} {w}->{s} at {now}: {until:?}");
                    assert!(until > Time(now), "{what}");
                    match (now..END).find(|&t| answers[t as usize]) {
                        Some(first) => assert_eq!(until, Time(first), "{what}"),
                        None => assert!(until >= Time(END), "{what}"),
                    }
                    hinted += 1;
                    open_ended += usize::from(until == Time::INFINITY);
                }
            }
        }
        assert!(hinted > 10_000 && open_ended > 1_000, "{hinted} hints, {open_ended} open-ended");
    }
}
