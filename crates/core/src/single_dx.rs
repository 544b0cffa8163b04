//! The **single-instance ablation** of the paper's reduction — why two
//! dining instances are necessary.
//!
//! This is the "obvious" one-instance design: per ordered pair `(p, q)`,
//! ONE dining instance in which `p`'s lone witness thread cycles
//! hungry→eat→check→exit, and `q`'s lone subject thread cycles
//! hungry→eat→ping→await-ack→exit. Unlike the flawed construction of
//! reference \[8\] (which this repository reproduces in
//! [`crate::flawed_cm`]), the subject here *does* exit, so the §3
//! never-exiting trap does not apply.
//!
//! It is still wrong, for the reason the paper's Section 5.1 spells out:
//! WF-◇WX guarantees no fairness, so a legal black box may grant the witness
//! unboundedly many meals between consecutive subject meals (see the
//! coordinator under [`GrantRegime::SelfBiased`]); each extra meal finds no
//! banked ping and wrongfully suspects the correct subject — infinitely often. The
//! paper's two-instance hand-off closes exactly this hole: in the exclusive
//! suffix some subject thread is *always eating* (Lemma 8), so exclusion
//! itself throttles each witness thread between subject meals, no fairness
//! needed. Experiment E9 measures the separation.
//!
//! The file holds the design and nothing else: two [`Side`]s at `K = 1`
//! (`K` is the number of dining instances per pair), hosted by the same
//! [`PairNode`] — bank, routing, tick promise, phase reports — that hosts
//! the paper's two-instance machines, so E9's rows differ in the extractor's
//! logic only.
//!
//! [`GrantRegime::SelfBiased`]: dinefd_dining::coord::GrantRegime::SelfBiased

use dinefd_dining::{DinerPhase, DiningParticipant};
use dinefd_sim::{CrashPlan, ProcessId, Time};

use crate::host::{DiningFactory, Oracle, PairNode, Role, Side};
use crate::machines::Step;
use crate::scenario::{run_one_pair, BlackBox};

/// The lone witness thread: hungry when thinking; when eating, trust iff a
/// ping was banked since the last meal, then exit.
#[derive(Clone, Copy, Debug)]
pub struct SingleWitness {
    haveping: bool,
    suspect: bool,
}

impl Side<1> for SingleWitness {
    const ROLE: Role = Role::Witness;

    fn step(&mut self, [phase]: [DinerPhase; 1]) -> Option<Step> {
        match phase {
            DinerPhase::Thinking => Some(Step::Hungry(0)),
            DinerPhase::Eating => {
                self.suspect = !std::mem::take(&mut self.haveping);
                Some(Step::Exit(0))
            }
            _ => None,
        }
    }

    fn on_control(&mut self, i: usize, seq: u64, _phases: [DinerPhase; 1]) -> Option<Step> {
        self.haveping = true;
        Some(Step::Send(i, seq))
    }

    fn suspects(&self) -> Option<bool> {
        Some(self.suspect)
    }
}

/// The lone subject thread: hungry when thinking; one ping per meal; exit on
/// its ack.
#[derive(Clone, Copy, Debug)]
pub struct SingleSubject {
    /// Ping sent this session and ack still pending.
    awaiting_ack: bool,
}

impl Side<1> for SingleSubject {
    const ROLE: Role = Role::Subject;

    fn step(&mut self, [phase]: [DinerPhase; 1]) -> Option<Step> {
        match phase {
            DinerPhase::Thinking => Some(Step::Hungry(0)),
            DinerPhase::Eating if !self.awaiting_ack => {
                self.awaiting_ack = true;
                Some(Step::Send(0, 0))
            }
            _ => None,
        }
    }

    fn on_control(&mut self, i: usize, _seq: u64, [phase]: [DinerPhase; 1]) -> Option<Step> {
        if self.awaiting_ack && phase == DinerPhase::Eating {
            self.awaiting_ack = false;
            Some(Step::Exit(i))
        } else {
            None
        }
    }

    fn suspects(&self) -> Option<bool> {
        None
    }
}

/// One physical process of the single-instance reduction.
pub type SingleDxNode = PairNode<SingleWitness, SingleSubject, Box<dyn DiningParticipant>, 1>;

impl SingleDxNode {
    /// Builds the node for `me` over the given ordered pairs (one dining
    /// instance per pair; `instance` is always 0 in the factory endpoint).
    pub fn new(
        me: ProcessId,
        pairs: &[(ProcessId, ProcessId)],
        factory: &DiningFactory<'_>,
        fd: Oracle,
    ) -> Self {
        let sides = (
            SingleWitness { haveping: false, suspect: true },
            SingleSubject { awaiting_ack: false },
        );
        Self::over_pairs(me, pairs, factory, fd, sides)
    }
}

/// Runs the single-instance reduction over one monitored pair `(p0, p1)`,
/// returning the extracted suspicion history.
pub fn run_single_pair(
    black_box: BlackBox,
    seed: u64,
    crashes: CrashPlan,
    horizon: Time,
) -> dinefd_fd::SuspicionHistory {
    run_one_pair(black_box, seed, 0x51D, crashes, horizon, SingleDxNode::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::BlackBox;
    use dinefd_sim::CrashPlan;

    #[test]
    fn single_instance_works_on_fair_boxes() {
        // On the FIFO-fair abstract box the one-instance design happens to
        // behave: alternation keeps the witness throttled.
        let h = run_single_pair(
            BlackBox::Abstract { convergence: Time(1_500) },
            3,
            CrashPlan::none(),
            Time(40_000),
        );
        let acc = h.eventual_strong_accuracy(&CrashPlan::none());
        assert!(acc.is_ok(), "accuracy on fair box: {:?}", acc.err());
    }

    #[test]
    fn single_instance_detects_crash() {
        let plan = CrashPlan::one(ProcessId(1), Time(5_000));
        let h = run_single_pair(
            BlackBox::Abstract { convergence: Time(1_500) },
            4,
            plan.clone(),
            Time(40_000),
        );
        assert!(h.strong_completeness(&plan).is_ok());
    }

    #[test]
    fn single_instance_breaks_on_unfair_box() {
        // The §5.1 remark realized: escalating-but-legal unfairness lets the
        // witness eat many times between subject meals; each extra meal is a
        // wrongful suspicion. Mistakes never stop.
        let h = run_single_pair(
            BlackBox::Unfair { convergence: Time(1_500) },
            5,
            CrashPlan::none(),
            Time(40_000),
        );
        let mistakes = h.mistake_intervals(ProcessId(0), ProcessId(1));
        assert!(mistakes > 20, "expected persistent flapping, saw {mistakes}");
        let last = h
            .timeline(ProcessId(0), ProcessId(1))
            .changes()
            .last()
            .map(|&(t, _)| t)
            .unwrap_or(Time::ZERO);
        assert!(last > Time(30_000), "flapping stopped early at {last:?}");
    }

    #[test]
    fn paper_reduction_survives_the_unfair_box() {
        // The control: the two-instance reduction converges on the same box.
        let mut sc =
            crate::scenario::Scenario::pair(BlackBox::Unfair { convergence: Time(1_500) }, 5);
        sc.oracle = crate::scenario::OracleSpec::Perfect { lag: 20 };
        sc.horizon = Time(40_000);
        let crashes = sc.crashes.clone();
        let res = crate::scenario::run_extraction(sc);
        let acc = res.history.eventual_strong_accuracy(&crashes);
        assert!(acc.is_ok(), "two-instance reduction must converge: {:?}", acc.err());
    }
}
