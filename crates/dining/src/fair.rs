//! `FairWfDxDining` — WF-◇WX dining with **eventual 2-fairness** (the
//! paper's Section 8 and its reference \[13\]).
//!
//! Eventual k-fairness: every run has a suffix in which no process enters
//! its critical section more than `k` consecutive times while a correct
//! neighbor remains hungry. The paper's secondary result is that *any*
//! WF-◇WX black box can be upgraded to an eventually 2-fair one by
//! extracting ◇P (this repository's `dinefd-core`) and re-running the
//! \[13\]-style construction; this module is that construction's target
//! algorithm.
//!
//! Mechanism: the ◇P fork algorithm of [`crate::wfdx`] (its traffic travels
//! as [`DiningMsg::WfDx`]), plus hunger bookkeeping. Diners announce
//! `Hungry` on becoming hungry and `Done` when they exit; a diner also infers
//! hunger from an incoming fork request. A diner whose *overtake counter*
//! against some announced-hungry, currently unsuspected neighbor has reached
//! 2 closes its own eating gate until that neighbor eats (its `Done` resets
//! the counter). Suspected neighbors waive the gate, preserving
//! wait-freedom; ◇P's eventual accuracy means the gate is eventually
//! honoured exactly for live neighbors, giving the 2-fair suffix.
//! Announcement latency can let an extra overtake slip through at a spell
//! boundary; experiment E6 measures the achieved suffix bound.

use dinefd_sim::ProcessId;

use crate::participant::{DiningIo, DiningMsg, DiningParticipant};
use crate::state::DinerPhase;
use crate::wfdx::{WfDxDining, WxMsg};

/// Hunger announcements of the fair algorithm (its fork traffic is
/// [`DiningMsg::WfDx`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FairMsg {
    /// "I have become hungry."
    Hungry,
    /// "I have eaten and exited."
    Done,
}

/// How many consecutive overtakes the gate permits.
pub const OVERTAKE_LIMIT: u32 = 2;

#[derive(Clone, Copy, Debug)]
struct PeerFairness {
    peer: ProcessId,
    /// The peer has announced hunger (or requested a fork) and has not
    /// announced `Done` since.
    hungry: bool,
    /// My eating sessions started while `hungry` was set.
    overtakes: u32,
}

/// WF-◇WX dining with an eventual 2-fairness gate.
#[derive(Clone, Debug)]
pub struct FairWfDxDining {
    core: WfDxDining,
    peers: Vec<PeerFairness>,
}

impl FairWfDxDining {
    /// Endpoint for `me` with the given instance neighbors.
    pub fn new(me: ProcessId, neighbors: &[ProcessId]) -> Self {
        FairWfDxDining {
            core: WfDxDining::new(me, neighbors),
            peers: neighbors
                .iter()
                .map(|&peer| PeerFairness { peer, hungry: false, overtakes: 0 })
                .collect(),
        }
    }

    /// Current overtake counter against `peer` (for tests and experiments).
    pub fn overtakes_against(&self, peer: ProcessId) -> u32 {
        self.peers.iter().find(|p| p.peer == peer).map_or(0, |p| p.overtakes)
    }

    /// Runs `step` on the fork diner behind a freshly computed eating gate,
    /// bumping the overtake counters if it started an eating session.
    fn gated(
        &mut self,
        io: &mut DiningIo<'_>,
        step: impl FnOnce(&mut WfDxDining, &mut DiningIo<'_>),
    ) {
        self.core.gate_open = !self
            .peers
            .iter()
            .any(|p| p.hungry && p.overtakes >= OVERTAKE_LIMIT && !io.suspected(p.peer));
        let was = self.core.phase();
        step(&mut self.core, io);
        if was != DinerPhase::Eating && self.core.phase() == DinerPhase::Eating {
            for p in &mut self.peers {
                if p.hungry {
                    p.overtakes += 1;
                }
            }
        }
    }

    fn broadcast(&self, io: &mut DiningIo<'_>, msg: FairMsg) {
        for p in &self.peers {
            io.send(p.peer, DiningMsg::Fair(msg));
        }
    }
}

impl DiningParticipant for FairWfDxDining {
    fn hungry(&mut self, io: &mut DiningIo<'_>) {
        self.broadcast(io, FairMsg::Hungry);
        self.gated(io, |core, io| core.hungry(io));
    }

    fn exit_eating(&mut self, io: &mut DiningIo<'_>) {
        self.broadcast(io, FairMsg::Done);
        self.core.exit_eating(io);
    }

    fn on_message(&mut self, io: &mut DiningIo<'_>, from: ProcessId, msg: DiningMsg) {
        let Some(peer) = self.peers.iter_mut().find(|p| p.peer == from) else {
            debug_assert!(false, "message from non-neighbor {from:?}");
            return;
        };
        match msg {
            DiningMsg::Fair(FairMsg::Hungry) => peer.hungry = true,
            DiningMsg::Fair(FairMsg::Done) => {
                peer.hungry = false;
                peer.overtakes = 0;
                // The gate may have just opened; re-evaluate eating.
                self.gated(io, |core, io| core.on_tick(io));
            }
            DiningMsg::WfDx(m) => {
                // A fork request is hunger evidence — it beats the separate
                // announcement when channel delays reorder them.
                peer.hungry |= matches!(m, WxMsg::Request(_));
                self.gated(io, |core, io| core.on_message(io, from, msg));
            }
            _ => debug_assert!(false, "foreign message {msg:?}"),
        }
    }

    fn on_tick(&mut self, io: &mut DiningIo<'_>) {
        self.gated(io, |core, io| core.on_tick(io));
    }

    fn phase(&self) -> DinerPhase {
        self.core.phase()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::participant::NoOracle;
    use crate::wfdx::Ts;
    use dinefd_sim::Time;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    /// Drives p0 (fork holder) through `n` meals while p1 is hungry.
    fn eat_n_meals(d: &mut FairWfDxDining, fd: &NoOracle, n: usize) -> usize {
        let mut meals = 0;
        for i in 0..n {
            let t = Time(10 * (i as u64 + 1));
            let mut io = DiningIo::new(p(0), t, fd);
            d.hungry(&mut io);
            if d.phase() == DinerPhase::Eating {
                meals += 1;
                let mut io = DiningIo::new(p(0), t + 1, fd);
                d.exit_eating(&mut io);
            } else {
                // Blocked by the gate: abort the attempt (stay hungry).
                break;
            }
        }
        meals
    }

    #[test]
    fn gate_closes_after_two_overtakes() {
        let fd = NoOracle(2);
        let mut d0 = FairWfDxDining::new(p(0), &[p(1)]);
        // p1 announces hunger but cannot eat (p0 holds the fork). Note: no
        // fork request reaches p0 in this unit test, so the fork stays put.
        let mut io = DiningIo::new(p(0), Time(1), &fd);
        d0.on_message(&mut io, p(1), DiningMsg::Fair(FairMsg::Hungry));
        let meals = eat_n_meals(&mut d0, &fd, 5);
        assert_eq!(meals, OVERTAKE_LIMIT as usize, "gate must close after {OVERTAKE_LIMIT} meals");
        assert_eq!(d0.overtakes_against(p(1)), OVERTAKE_LIMIT);
        assert_eq!(d0.phase(), DinerPhase::Hungry, "third attempt blocked");
    }

    #[test]
    fn done_reopens_gate_and_resets_counter() {
        let fd = NoOracle(2);
        let mut d0 = FairWfDxDining::new(p(0), &[p(1)]);
        let mut io = DiningIo::new(p(0), Time(1), &fd);
        d0.on_message(&mut io, p(1), DiningMsg::Fair(FairMsg::Hungry));
        let _ = eat_n_meals(&mut d0, &fd, 3); // ends blocked hungry
        assert_eq!(d0.phase(), DinerPhase::Hungry);
        let mut io = DiningIo::new(p(0), Time(100), &fd);
        d0.on_message(&mut io, p(1), DiningMsg::Fair(FairMsg::Done));
        assert_eq!(d0.overtakes_against(p(1)), 0);
        assert_eq!(d0.phase(), DinerPhase::Eating, "gate reopened, pending hunger served");
    }

    #[test]
    fn suspected_neighbor_does_not_block() {
        use dinefd_fd::{InjectedOracle, MistakePlan};
        use dinefd_sim::CrashPlan;
        let mut oracle = InjectedOracle::perfect(2, CrashPlan::none(), 0);
        oracle.set_mistakes(p(0), p(1), MistakePlan::from_intervals(vec![(Time(0), Time(1_000))]));
        let mut d0 = FairWfDxDining::new(p(0), &[p(1)]);
        let mut io = DiningIo::new(p(0), Time(1), &oracle);
        d0.on_message(&mut io, p(1), DiningMsg::Fair(FairMsg::Hungry));
        // Even with a large overtake count, a suspected peer never gates.
        for i in 0..6u64 {
            let mut io = DiningIo::new(p(0), Time(10 + i * 10), &oracle);
            d0.hungry(&mut io);
            assert_eq!(d0.phase(), DinerPhase::Eating, "meal {i} must be granted");
            let mut io = DiningIo::new(p(0), Time(11 + i * 10), &oracle);
            d0.exit_eating(&mut io);
        }
    }

    #[test]
    fn fork_request_counts_as_hunger_evidence() {
        let fd = NoOracle(2);
        let mut d0 = FairWfDxDining::new(p(0), &[p(1)]);
        // No Hungry announcement, just a fork request (it carries the token;
        // p0's fork is dirty+thinking so it is yielded immediately).
        let mut io = DiningIo::new(p(0), Time(1), &fd);
        d0.on_message(&mut io, p(1), DiningMsg::WfDx(WxMsg::Request(Ts { clock: 1, id: 1 })));
        let fx = io.finish();
        assert!(matches!(fx.sends[0], (_, DiningMsg::WfDx(WxMsg::Fork { .. }))));
        assert!(d0.overtakes_against(p(1)) == 0);
        // The hunger flag is set, so subsequent meals are counted.
        let mut io = DiningIo::new(p(0), Time(2), &fd);
        d0.hungry(&mut io);
        // p0 no longer holds the fork, so it requests and waits.
        assert_eq!(d0.phase(), DinerPhase::Hungry);
    }
}
