//! The earlier ◇P-extraction of the paper's reference \[8\] (Guerraoui et al.,
//! "boosting obstruction-freedom"), reproduced faithfully so its
//! vulnerability can be demonstrated (the paper's Section 3, experiment E4).
//!
//! Construction, per ordered pair `(p, q)`:
//!
//! * `q` sends heartbeats to `p` at regular intervals; at start-up `q`
//!   requests permission from a **single** wait-free contention-manager
//!   instance (here: any [`dinefd_dining::DiningParticipant`] black box) and,
//!   once granted, enters its critical section and **never exits**;
//! * `p`, upon receiving a heartbeat, trusts `q` and requests permission
//!   itself; once granted, it enters and immediately exits its critical
//!   section, **suspects** `q`, and waits for the next heartbeat.
//!
//! The intended argument: if `q` is correct, the CM eventually serializes
//! access, `q` occupies the critical section forever, `p` is locked out
//! forever and trusts forever; if `q` crashes, heartbeats stop and
//! wait-freedom lets `p` in, so `p` suspects permanently.
//!
//! The flaw the paper identifies: a legal WF-◇WX service only promises an
//! exclusive suffix under conditions a never-exiting `q` can defeat. Against
//! the coordinator under [`GrantRegime::DelayedConvergence`] — whose
//! exclusivity additionally waits for every pre-convergence eater to exit —
//! a correct `q` that entered during the prefix and never exits keeps the
//! service non-exclusive forever, `p` keeps being granted, and `p` suspects a
//! correct process infinitely often: the extracted oracle is **not** ◇P.
//! The paper's two-instance reduction is immune (its subjects always exit;
//! the hand-off is what throttles the witness instead).
//!
//! The file holds the construction and nothing else: two [`Side`]s at
//! `K = 1` (one contention-manager instance per pair) on the same
//! [`PairNode`] host as the paper's reduction, plus the one thing \[8\] has
//! that the host does not — `q`'s free-running heartbeat timer. A heartbeat
//! travels as `RedMsg::Ping { instance: 0, seq: 0 }`: it is the subject's
//! control message to the witness, and the witness never acks it.
//!
//! [`GrantRegime::DelayedConvergence`]: dinefd_dining::coord::GrantRegime::DelayedConvergence

use dinefd_dining::DinerPhase;
use dinefd_sim::{Context, CrashPlan, Node, ProcessId, Time, TimerId};

use crate::host::{DiningFactory, Oracle, PairNode, RedMsg, RedObs, Role, Side, Step};
use crate::scenario::{run_one_pair, BlackBox};

/// `p`'s side: a heartbeat means trust, and a request for the critical
/// section; once inside, leave at once and suspect `q` (the \[8\] cycle).
#[derive(Clone, Copy, Debug)]
pub struct FlawedWitness {
    suspect: bool,
}

impl Side<1> for FlawedWitness {
    const ROLE: Role = Role::Witness;

    fn step(&mut self, [phase]: [DinerPhase; 1]) -> Option<Step> {
        (phase == DinerPhase::Eating).then(|| {
            self.suspect = true;
            Step::Exit(0)
        })
    }

    fn on_control(&mut self, i: usize, _seq: u64, [phase]: [DinerPhase; 1]) -> Option<Step> {
        self.suspect = false;
        (phase == DinerPhase::Thinking).then_some(Step::Hungry(i))
    }

    fn suspects(&self) -> Option<bool> {
        Some(self.suspect)
    }
}

/// `q`'s side: request once; once eating, never exit.
#[derive(Clone, Copy, Debug)]
pub struct FlawedSubject {
    requested: bool,
}

impl Side<1> for FlawedSubject {
    const ROLE: Role = Role::Subject;

    fn step(&mut self, [phase]: [DinerPhase; 1]) -> Option<Step> {
        (!self.requested && phase == DinerPhase::Thinking).then(|| {
            self.requested = true;
            Step::Hungry(0)
        })
    }

    fn on_control(&mut self, _i: usize, _seq: u64, _phases: [DinerPhase; 1]) -> Option<Step> {
        None
    }

    fn suspects(&self) -> Option<bool> {
        None
    }
}

const HEARTBEAT: TimerId = TimerId(1);
const HEARTBEAT_EVERY: u64 = 16;

/// One physical process of the flawed construction: the shared host plus
/// the heartbeat timer of every pair this process is the subject of.
#[derive(Debug)]
pub struct FlawedCmNode(PairNode<FlawedWitness, FlawedSubject, 1>);

impl FlawedCmNode {
    /// Builds the node for `me` over the given ordered pairs and CM factory
    /// (one dining instance per pair — `instance` is always 0).
    pub fn new(
        me: ProcessId,
        pairs: &[(ProcessId, ProcessId)],
        factory: &DiningFactory<'_>,
        fd: Oracle,
    ) -> Self {
        let sides = (FlawedWitness { suspect: true }, FlawedSubject { requested: false });
        FlawedCmNode(PairNode::over_pairs(me, pairs, factory, fd, sides))
    }
}

impl Node for FlawedCmNode {
    type Msg = RedMsg;
    type Obs = RedObs;

    fn on_start(&mut self, ctx: &mut Context<'_, RedMsg, RedObs>) {
        self.0.on_start(ctx);
        if !self.0.watched_by().is_empty() {
            ctx.set_timer(HEARTBEAT_EVERY, HEARTBEAT);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, RedMsg, RedObs>, from: ProcessId, msg: RedMsg) {
        self.0.on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, RedMsg, RedObs>, timer: TimerId) {
        if timer != HEARTBEAT {
            return self.0.on_timer(ctx, timer);
        }
        let subject = ctx.me();
        for &watcher in self.0.watched_by() {
            ctx.send(watcher, RedMsg::Ping { watcher, subject, instance: 0, seq: 0 });
        }
        ctx.set_timer(HEARTBEAT_EVERY, HEARTBEAT);
    }
}

/// Runs the flawed construction over one monitored pair `(p0, p1)` on the
/// given black box; returns the extracted suspicion history.
pub fn run_flawed_pair(
    black_box: BlackBox,
    seed: u64,
    crashes: CrashPlan,
    horizon: Time,
) -> dinefd_fd::SuspicionHistory {
    run_one_pair(black_box, seed, 0xBAD, crashes, horizon, FlawedCmNode::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::BlackBox;
    use dinefd_sim::CrashPlan;

    #[test]
    fn flawed_construction_works_on_benign_box() {
        // Against the Abstract box (exclusive after convergence, stragglers
        // block), the [8] construction behaves: q locks the CS and p is
        // locked out, trusting forever.
        let h = run_flawed_pair(
            BlackBox::Abstract { convergence: Time(1_500) },
            3,
            CrashPlan::none(),
            Time(40_000),
        );
        let acc = h.eventual_strong_accuracy(&CrashPlan::none());
        assert!(acc.is_ok(), "accuracy violated on benign box: {:?}", acc.err());
    }

    #[test]
    fn flawed_construction_detects_crash() {
        let plan = CrashPlan::one(ProcessId(1), Time(5_000));
        let h = run_flawed_pair(
            BlackBox::Abstract { convergence: Time(1_500) },
            4,
            plan.clone(),
            Time(40_000),
        );
        assert!(h.strong_completeness(&plan).is_ok());
    }

    #[test]
    fn flawed_construction_breaks_on_delayed_convergence_box() {
        // The Section 3 counterexample: q enters during the non-exclusive
        // prefix and never exits ⇒ exclusivity never starts ⇒ p is granted,
        // and hence suspects correct q, over and over.
        let h = run_flawed_pair(
            BlackBox::Delayed { convergence: Time(1_500) },
            5,
            CrashPlan::none(),
            Time(40_000),
        );
        let mistakes = h.mistake_intervals(ProcessId(0), ProcessId(1));
        assert!(
            mistakes > 50,
            "expected unbounded flapping, saw only {mistakes} mistake intervals"
        );
        // And the flapping persists to the end of the recording: the run is
        // NOT consistent with eventual strong accuracy having converged.
        let last_change = h.timeline(ProcessId(0), ProcessId(1)).changes().last().copied();
        let (t, _) = last_change.expect("output changed");
        assert!(t > Time(35_000), "suspicion flapping stopped early at {t:?}");
    }
}
