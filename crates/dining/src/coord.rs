//! `CoordDining` — the coordinator-based WF-◇WX services: one grant queue at
//! a designated coordinator, three [`GrantRegime`]s.
//!
//! Participants send `Request` to the coordinator when hungry and `Release`
//! when they exit; the coordinator answers with `Grant`. Before the run's
//! `convergence` instant every regime grants every request immediately —
//! concurrent eating, as ◇WX permits finitely often. The regime decides when
//! grants become exclusive (one eater at a time), which waiter an exclusive
//! grant serves, and whether the coordinator's own exit pumps the queue.
//!
//! Crash tolerance: the coordinator consults the local ◇P module and treats
//! currently-suspected eaters as departed, which preserves wait-freedom for
//! live requesters (wrongful suspicions can produce extra concurrent grants,
//! which ◇WX permits finitely often). The coordinator itself must be a
//! correct process for the instance to be live — reduction experiments place
//! it at the witness, whose crash makes the instance moot anyway.
//!
//! The coordinator reads `io.now()` to compare against its convergence
//! parameter: legitimate here because `convergence` *models* the instant at
//! which the box's internal ◇P happens to converge in this run — an artifact
//! of the model, not information a protocol could use.

use std::collections::VecDeque;

use dinefd_sim::{ProcessId, Time};

use crate::participant::{DiningIo, DiningMsg, DiningParticipant};
use crate::state::DinerPhase;

/// Messages of the coordinator protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CoordMsg {
    /// "I am hungry" — participant → coordinator.
    Request,
    /// "You may eat" — coordinator → participant.
    Grant,
    /// "I have exited" — participant → coordinator.
    Release,
}

/// When and to whom the coordinator grants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GrantRegime {
    /// The legal-but-pathological service at the heart of the paper's
    /// Section 3.
    ///
    /// The ◇P-based solution of the paper's reference \[12\] guarantees an
    /// exclusive suffix only after **(1)** the underlying ◇P has stopped
    /// making mistakes *and* **(2)** every process that entered its critical
    /// section before that point has exited. This regime reproduces that:
    /// grants stay non-exclusive while `now < convergence` *or* while any
    /// (unsuspected) pre-convergence eater is still eating; once both
    /// conditions hold, grants become exclusive, FIFO.
    ///
    /// Fed to the flawed contention-manager reduction of the paper's
    /// reference \[8\] — where the monitored process enters its critical
    /// section during the non-exclusive prefix and *never exits* — this
    /// service never reaches the exclusive regime, the monitoring process
    /// keeps being granted, and the extracted "◇P" suspects a correct
    /// process infinitely often. The paper's own reduction is immune
    /// (experiment E4 demonstrates both).
    DelayedConvergence,
    /// A spec-constrained "most adversarial legal" service.
    ///
    /// The necessity proof quantifies over *every* black box solving
    /// WF-◇WX, so experiments exercise a service that does nothing beyond
    /// what the specification forces: non-exclusive strictly before
    /// `convergence`, exclusive and FIFO from it on, waiting for *all*
    /// current eaters (including pre-convergence stragglers) to leave.
    ///
    /// Unlike [`GrantRegime::DelayedConvergence`], a straggler that never
    /// exits makes this service block later requesters forever. That is
    /// legal — wait-freedom is conditional on correct processes eating for
    /// finite time — and it is the *other* failure mode a correct reduction
    /// must tolerate (the flawed construction of reference \[8\] happens to
    /// survive this one and break on the delayed-convergence one).
    SwitchAtConvergence,
    /// A legal service with **escalating unfairness**, built to exercise the
    /// paper's Section 5.1 remark:
    ///
    /// > "WF-◇WX does not guarantee fairness insofar as it is possible for
    /// > `p` to eat an unbounded number of times between each time `q` eats;
    /// > this allows `p` to suspect `q` infinitely often."
    ///
    /// Exclusivity switches on at `convergence` as under
    /// [`GrantRegime::SwitchAtConvergence`], but the exclusive regime serves
    /// the **coordinator's own requests** `k` consecutive times before
    /// serving the longest-waiting remote request once, with `k` escalating
    /// after every remote grant; and the coordinator's own exit does not
    /// pump, so an immediately re-hungry coordinator contends. Every hungry
    /// process still eats after finitely many grants (wait-freedom holds),
    /// and exclusivity holds from convergence (◇WX holds), yet between two
    /// consecutive meals of the remote peer the coordinator may eat
    /// unboundedly many times.
    ///
    /// Fed to a **single-instance** necessity reduction (see
    /// `dinefd_core::single_dx`), this box produces infinitely many wrongful
    /// suspicions: the witness's extra meals find no banked ping. The
    /// paper's two-instance reduction is immune — its subject threads are
    /// *always eating* in the exclusive suffix (Lemma 8), so no grant bias
    /// can slip the witness in twice. Experiment E9 measures the separation.
    SelfBiased,
}

/// One endpoint of a coordinator-based dining service.
#[derive(Clone, Debug)]
pub struct CoordDining {
    me: ProcessId,
    coordinator: ProcessId,
    phase: DinerPhase,
    convergence: Time,
    regime: GrantRegime,
    // Coordinator-only state.
    eating: Vec<ProcessId>,
    pre_conv_eaters: Vec<ProcessId>,
    waiting: VecDeque<ProcessId>,
    grants_issued: u64,
    /// How many consecutive self-grants the coordinator may take before it
    /// must serve a remote waiter (escalates forever; read by `SelfBiased`).
    bias_level: u64,
    /// Self-grants taken since the last remote grant.
    self_streak: u64,
}

impl CoordDining {
    /// Endpoint for `me`; `coordinator` hosts the grant queue; `convergence`
    /// models the instant the box's internal ◇P converges in this run.
    pub fn new(
        me: ProcessId,
        coordinator: ProcessId,
        convergence: Time,
        regime: GrantRegime,
    ) -> Self {
        CoordDining {
            me,
            coordinator,
            phase: DinerPhase::Thinking,
            convergence,
            regime,
            eating: Vec::new(),
            pre_conv_eaters: Vec::new(),
            waiting: VecDeque::new(),
            grants_issued: 0,
            bias_level: 1,
            self_streak: 0,
        }
    }

    /// Total grants issued so far (meaningful at the coordinator).
    pub fn grants_issued(&self) -> u64 {
        self.grants_issued
    }

    /// The current unfairness level (meaningful at a `SelfBiased`
    /// coordinator).
    pub fn bias_level(&self) -> u64 {
        self.bias_level
    }

    fn is_coord(&self) -> bool {
        self.me == self.coordinator
    }

    /// Live members of `set`, as far as the coordinator's ◇P can tell.
    fn live(&self, set: &[ProcessId], io: &DiningIo<'_>) -> usize {
        set.iter().filter(|&&q| q == self.me || !io.suspected(q)).count()
    }

    fn non_exclusive(&self, io: &DiningIo<'_>) -> bool {
        if io.now() < self.convergence {
            return true;
        }
        match self.regime {
            GrantRegime::DelayedConvergence => self.live(&self.pre_conv_eaters, io) > 0,
            GrantRegime::SwitchAtConvergence | GrantRegime::SelfBiased => false,
        }
    }

    /// Index in `waiting` of the waiter an exclusive grant serves next.
    fn next_waiter(&self) -> usize {
        match self.regime {
            GrantRegime::DelayedConvergence | GrantRegime::SwitchAtConvergence => 0,
            // Prefer self while the streak budget lasts, else the
            // longest-waiting remote request; the front when no waiter of
            // the preferred kind exists.
            GrantRegime::SelfBiased => {
                let prefer_self = self.self_streak < self.bias_level;
                self.waiting.iter().position(|&q| (q == self.me) == prefer_self).unwrap_or(0)
            }
        }
    }

    fn issue_grant(&mut self, io: &mut DiningIo<'_>, q: ProcessId) {
        self.grants_issued += 1;
        self.eating.push(q);
        if io.now() < self.convergence {
            self.pre_conv_eaters.push(q);
        }
        if q == self.me {
            debug_assert_eq!(self.phase, DinerPhase::Hungry);
            self.phase = DinerPhase::Eating;
            self.self_streak += 1;
        } else {
            io.send(q, DiningMsg::Coord(CoordMsg::Grant));
            // Serving a remote waiter resets the streak and escalates the bias.
            self.self_streak = 0;
            self.bias_level += 1;
        }
    }

    /// Grants whatever the current regime allows.
    fn pump(&mut self, io: &mut DiningIo<'_>) {
        if !self.is_coord() {
            return;
        }
        if self.non_exclusive(io) {
            while let Some(q) = self.waiting.pop_front() {
                self.issue_grant(io, q);
            }
        } else {
            while self.live(&self.eating, io) == 0 {
                let Some(q) = self.waiting.remove(self.next_waiter()) else { break };
                self.issue_grant(io, q);
            }
        }
    }

    fn depart(&mut self, q: ProcessId) {
        self.eating.retain(|&e| e != q);
        self.pre_conv_eaters.retain(|&e| e != q);
    }
}

impl DiningParticipant for CoordDining {
    fn hungry(&mut self, io: &mut DiningIo<'_>) {
        assert_eq!(self.phase, DinerPhase::Thinking, "hungry() while {}", self.phase);
        self.phase = DinerPhase::Hungry;
        if self.is_coord() {
            self.waiting.push_back(self.me);
            self.pump(io);
        } else {
            io.send(self.coordinator, DiningMsg::Coord(CoordMsg::Request));
        }
    }

    fn exit_eating(&mut self, io: &mut DiningIo<'_>) {
        assert_eq!(self.phase, DinerPhase::Eating, "exit_eating() while {}", self.phase);
        self.phase = DinerPhase::Exiting;
        if self.is_coord() {
            self.depart(self.me);
            self.phase = DinerPhase::Thinking;
            // A self-biased coordinator deliberately does NOT pump here: its
            // next hungry() (or the next tick, which bounds the delay and
            // preserves wait-freedom) runs the pump, letting an immediately
            // re-hungry coordinator contend — that is what makes the bias
            // bite.
            if self.regime != GrantRegime::SelfBiased {
                self.pump(io);
            }
        } else {
            io.send(self.coordinator, DiningMsg::Coord(CoordMsg::Release));
            self.phase = DinerPhase::Thinking;
        }
    }

    fn on_message(&mut self, io: &mut DiningIo<'_>, from: ProcessId, msg: DiningMsg) {
        let DiningMsg::Coord(m) = msg else {
            debug_assert!(false, "foreign message {msg:?}");
            return;
        };
        match m {
            CoordMsg::Request => {
                debug_assert!(self.is_coord(), "request routed to non-coordinator");
                self.waiting.push_back(from);
                self.pump(io);
            }
            CoordMsg::Grant => {
                debug_assert!(!self.is_coord());
                if self.phase == DinerPhase::Hungry {
                    self.phase = DinerPhase::Eating;
                }
            }
            CoordMsg::Release => {
                debug_assert!(self.is_coord(), "release routed to non-coordinator");
                self.depart(from);
                self.pump(io);
            }
        }
    }

    fn on_tick(&mut self, io: &mut DiningIo<'_>) {
        // Regime flips (time passing, suspicion changes) unblock waiters.
        self.pump(io);
    }

    fn phase(&self) -> DinerPhase {
        self.phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::participant::NoOracle;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    fn coord(convergence: u64, regime: GrantRegime) -> CoordDining {
        CoordDining::new(p(0), p(0), Time(convergence), regime)
    }

    const REQUEST: DiningMsg = DiningMsg::Coord(CoordMsg::Request);
    const RELEASE: DiningMsg = DiningMsg::Coord(CoordMsg::Release);

    // --- DelayedConvergence -------------------------------------------------

    #[test]
    fn pre_convergence_grants_are_concurrent() {
        let fd = NoOracle(2);
        let mut coord = coord(1000, GrantRegime::DelayedConvergence);
        let mut io = DiningIo::new(p(0), Time(1), &fd);
        coord.hungry(&mut io);
        assert_eq!(coord.phase(), DinerPhase::Eating);
        // A remote request while the coordinator eats is still granted.
        let mut io = DiningIo::new(p(0), Time(2), &fd);
        coord.on_message(&mut io, p(1), REQUEST);
        let fx = io.finish();
        assert_eq!(fx.sends.len(), 1);
        assert!(matches!(fx.sends[0], (pid, DiningMsg::Coord(CoordMsg::Grant)) if pid == p(1)));
        assert_eq!(coord.grants_issued(), 2);
    }

    #[test]
    fn exclusive_after_convergence_and_drain() {
        let fd = NoOracle(2);
        let mut coord = coord(10, GrantRegime::DelayedConvergence);
        // p1 granted pre-convergence and keeps eating.
        let mut io = DiningIo::new(p(0), Time(1), &fd);
        coord.on_message(&mut io, p(1), REQUEST);
        assert_eq!(io.finish().sends.len(), 1);
        // Past convergence, but p1 (pre-conv eater) still eating: the
        // coordinator's own request is STILL granted immediately — this is
        // the Section 3 vulnerability window.
        let mut io = DiningIo::new(p(0), Time(50), &fd);
        coord.hungry(&mut io);
        assert_eq!(coord.phase(), DinerPhase::Eating);
        let mut io = DiningIo::new(p(0), Time(51), &fd);
        coord.exit_eating(&mut io);
        // Once p1 releases, the exclusive regime begins.
        let mut io = DiningIo::new(p(0), Time(60), &fd);
        coord.on_message(&mut io, p(1), RELEASE);
        let mut io = DiningIo::new(p(0), Time(61), &fd);
        coord.hungry(&mut io);
        assert_eq!(coord.phase(), DinerPhase::Eating, "sole eater is granted");
        // Now a second request must wait.
        let mut io = DiningIo::new(p(0), Time(62), &fd);
        coord.on_message(&mut io, p(1), REQUEST);
        assert!(io.finish().sends.is_empty(), "exclusive regime must queue");
        // And is granted on exit.
        let mut io = DiningIo::new(p(0), Time(63), &fd);
        coord.exit_eating(&mut io);
        let fx = io.finish();
        assert_eq!(fx.sends.len(), 1);
        assert!(matches!(fx.sends[0], (_, DiningMsg::Coord(CoordMsg::Grant))));
    }

    #[test]
    fn suspected_eater_is_treated_as_departed() {
        use dinefd_fd::InjectedOracle;
        use dinefd_sim::CrashPlan;
        let oracle = InjectedOracle::perfect(2, CrashPlan::one(p(1), Time(20)), 5);
        let mut coord = coord(10, GrantRegime::DelayedConvergence);
        // p1 granted pre-convergence, then crashes while eating.
        let mut io = DiningIo::new(p(0), Time(1), &oracle);
        coord.on_message(&mut io, p(1), REQUEST);
        // Coordinator hungry post-convergence: p1 is a live pre-conv eater
        // until suspected, so the grant is immediate (non-exclusive)...
        let mut io = DiningIo::new(p(0), Time(25), &oracle);
        coord.hungry(&mut io);
        assert_eq!(coord.phase(), DinerPhase::Eating);
        let mut io = DiningIo::new(p(0), Time(26), &oracle);
        coord.exit_eating(&mut io);
        // ...and once p1 is suspected (t ≥ 25), the exclusive regime applies
        // and the coordinator still makes progress: wait-freedom preserved.
        let mut io = DiningIo::new(p(0), Time(30), &oracle);
        coord.hungry(&mut io);
        assert_eq!(coord.phase(), DinerPhase::Eating);
    }

    // --- SwitchAtConvergence ------------------------------------------------

    #[test]
    fn pre_convergence_is_maximally_non_exclusive() {
        let fd = NoOracle(3);
        let mut coord = coord(100, GrantRegime::SwitchAtConvergence);
        let mut io = DiningIo::new(p(0), Time(1), &fd);
        coord.hungry(&mut io);
        assert_eq!(coord.phase(), DinerPhase::Eating);
        let mut io = DiningIo::new(p(0), Time(2), &fd);
        coord.on_message(&mut io, p(1), REQUEST);
        assert_eq!(io.finish().sends.len(), 1);
        let mut io = DiningIo::new(p(0), Time(3), &fd);
        coord.on_message(&mut io, p(2), REQUEST);
        assert_eq!(io.finish().sends.len(), 1);
        assert_eq!(coord.grants_issued(), 3);
    }

    #[test]
    fn straggler_blocks_post_convergence_requests() {
        let fd = NoOracle(2);
        let mut coord = coord(10, GrantRegime::SwitchAtConvergence);
        // p1 granted pre-convergence, never releases.
        let mut io = DiningIo::new(p(0), Time(1), &fd);
        coord.on_message(&mut io, p(1), REQUEST);
        // Post-convergence the coordinator's own hunger must WAIT — unlike
        // the delayed-convergence regime.
        let mut io = DiningIo::new(p(0), Time(50), &fd);
        coord.hungry(&mut io);
        assert_eq!(coord.phase(), DinerPhase::Hungry);
        // When the straggler finally releases, the grant arrives.
        let mut io = DiningIo::new(p(0), Time(60), &fd);
        coord.on_message(&mut io, p(1), RELEASE);
        assert_eq!(coord.phase(), DinerPhase::Eating);
    }

    #[test]
    fn exclusive_fifo_after_convergence() {
        let fd = NoOracle(3);
        let mut coord = coord(0, GrantRegime::SwitchAtConvergence);
        let mut io = DiningIo::new(p(0), Time(5), &fd);
        coord.on_message(&mut io, p(1), REQUEST);
        assert_eq!(io.finish().sends.len(), 1, "first request granted");
        let mut io = DiningIo::new(p(0), Time(6), &fd);
        coord.on_message(&mut io, p(2), REQUEST);
        assert!(io.finish().sends.is_empty(), "second request queued");
        let mut io = DiningIo::new(p(0), Time(7), &fd);
        coord.on_message(&mut io, p(1), RELEASE);
        let fx = io.finish();
        assert_eq!(fx.sends.len(), 1);
        assert!(matches!(fx.sends[0], (pid, DiningMsg::Coord(CoordMsg::Grant)) if pid == p(2)));
    }

    // --- SelfBiased ---------------------------------------------------------

    #[test]
    fn exclusive_regime_prefers_coordinator_with_escalation() {
        let fd = NoOracle(2);
        let mut c = coord(0, GrantRegime::SelfBiased);
        // Remote request queued first; coordinator becomes hungry.
        let mut io = DiningIo::new(p(0), Time(5), &fd);
        c.on_message(&mut io, p(1), REQUEST);
        let fx = io.finish();
        // Queue was [p1], no self request: remote is served (bias escalates
        // to 2 afterwards).
        assert_eq!(fx.sends.len(), 1);
        assert_eq!(c.bias_level(), 2);
        let mut io = DiningIo::new(p(0), Time(6), &fd);
        c.on_message(&mut io, p(1), RELEASE);
        // Both now compete: the coordinator becomes hungry first, then the
        // remote's request arrives; the coordinator jumps the queue
        // bias_level (= 2) times before the remote is served.
        let mut io = DiningIo::new(p(0), Time(8), &fd);
        c.hungry(&mut io);
        assert_eq!(c.phase(), DinerPhase::Eating, "self-grant jumps the queue");
        let mut io = DiningIo::new(p(0), Time(9), &fd);
        c.on_message(&mut io, p(1), REQUEST);
        assert!(io.finish().sends.is_empty(), "remote queued while coordinator eats");
        let mut io = DiningIo::new(p(0), Time(10), &fd);
        c.exit_eating(&mut io);
        assert!(io.finish().sends.is_empty(), "exit does not pump");
        // Second self-grant within the streak.
        let mut io = DiningIo::new(p(0), Time(11), &fd);
        c.hungry(&mut io);
        assert_eq!(c.phase(), DinerPhase::Eating, "second self-grant within streak");
        let mut io = DiningIo::new(p(0), Time(12), &fd);
        c.exit_eating(&mut io);
        let _ = io.finish();
        // Streak exhausted: the pump triggered by the coordinator's own
        // hunger serves the REMOTE first, leaving the coordinator waiting.
        let mut io = DiningIo::new(p(0), Time(13), &fd);
        c.hungry(&mut io);
        assert_eq!(c.phase(), DinerPhase::Hungry, "bias exhausted: remote first");
        let fx = io.finish();
        assert_eq!(fx.sends.len(), 1, "streak exhausted: remote served at last");
        assert!(matches!(fx.sends[0], (_, DiningMsg::Coord(CoordMsg::Grant))));
    }

    #[test]
    fn remote_always_eventually_served() {
        // Wait-freedom sanity: across many cycles the remote gets grants.
        let fd = NoOracle(2);
        let mut c = coord(0, GrantRegime::SelfBiased);
        let mut remote_grants = 0;
        let mut io = DiningIo::new(p(0), Time(1), &fd);
        c.on_message(&mut io, p(1), REQUEST);
        remote_grants += io.finish().sends.len();
        for t in 0..200u64 {
            let now = Time(10 + t * 3);
            if c.phase() == DinerPhase::Thinking {
                let mut io = DiningIo::new(p(0), now, &fd);
                c.hungry(&mut io);
                remote_grants += io.finish().sends.len();
            } else if c.phase() == DinerPhase::Eating {
                let mut io = DiningIo::new(p(0), now, &fd);
                c.exit_eating(&mut io);
                remote_grants += io.finish().sends.len();
            }
            if t % 7 == 3 {
                // Remote releases and re-requests.
                let mut io = DiningIo::new(p(0), now + 1, &fd);
                c.on_message(&mut io, p(1), RELEASE);
                remote_grants += io.finish().sends.len();
                let mut io = DiningIo::new(p(0), now + 2, &fd);
                c.on_message(&mut io, p(1), REQUEST);
                remote_grants += io.finish().sends.len();
            }
        }
        assert!(remote_grants >= 3, "remote starved: {remote_grants}");
    }

    #[test]
    fn pre_convergence_grants_everyone() {
        let fd = NoOracle(2);
        let mut c = coord(1_000, GrantRegime::SelfBiased);
        let mut io = DiningIo::new(p(0), Time(1), &fd);
        c.hungry(&mut io);
        assert_eq!(c.phase(), DinerPhase::Eating);
        let mut io = DiningIo::new(p(0), Time(2), &fd);
        c.on_message(&mut io, p(1), REQUEST);
        assert_eq!(io.finish().sends.len(), 1, "concurrent grant pre-convergence");
    }
}
