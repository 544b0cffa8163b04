//! The Chandy–Misra *hygienic* dining algorithm — the crash-oblivious
//! baseline.
//!
//! One fork per edge; forks are *clean* or *dirty*; the fork/request-token
//! pair of an edge always has the fork at one endpoint and the token at the
//! other (or in transit). A hungry diner spends its token to request a
//! missing fork; a diner yields a requested fork iff the fork is dirty and it
//! is not eating (dirty = "I ate since you last had it" = lower priority).
//! Forks become dirty when their holder starts eating. The initial
//! orientation (lower id holds a dirty fork) is acyclic, which gives
//! deadlock- and starvation-freedom in failure-free runs.
//!
//! **This algorithm is not wait-free**: a diner that crashes while holding a
//! fork starves its neighbor forever. Experiment E2/E4 baselines use it to
//! show exactly that, motivating the ◇P-based algorithm in [`crate::wfdx`].

use dinefd_sim::ProcessId;

use crate::participant::{DiningIo, DiningMsg, DiningParticipant};
use crate::state::DinerPhase;

/// Hygienic-algorithm messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HyMsg {
    /// The request token, spent to ask for the edge's fork.
    ForkRequest,
    /// The fork itself (arrives clean).
    Fork,
}

/// Per-neighbor edge state.
#[derive(Clone, Copy, Debug)]
struct Edge {
    peer: ProcessId,
    has_fork: bool,
    dirty: bool,
    has_token: bool,
}

/// One diner's endpoint of a hygienic dining instance.
#[derive(Clone, Debug)]
pub struct HygienicDining {
    me: ProcessId,
    phase: DinerPhase,
    edges: Vec<Edge>,
}

impl HygienicDining {
    /// Creates the endpoint for `me` with the given neighbors, using the
    /// standard acyclic initialization: the lower id starts with a dirty
    /// fork, the higher id with the request token.
    pub fn new(me: ProcessId, neighbors: &[ProcessId]) -> Self {
        let edges = neighbors
            .iter()
            .map(|&peer| {
                debug_assert_ne!(peer, me);
                let holds_fork = me < peer;
                Edge { peer, has_fork: holds_fork, dirty: holds_fork, has_token: !holds_fork }
            })
            .collect();
        HygienicDining { me, phase: DinerPhase::Thinking, edges }
    }

    /// The diner this endpoint belongs to.
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// Whether this diner currently holds the fork of edge `(me, peer)`.
    pub fn holds_fork(&self, peer: ProcessId) -> bool {
        self.edges.iter().any(|e| e.peer == peer && e.has_fork)
    }

    fn request_missing_forks(&mut self, io: &mut DiningIo<'_>) {
        for e in &mut self.edges {
            if !e.has_fork && e.has_token {
                e.has_token = false;
                io.send(e.peer, DiningMsg::Hygienic(HyMsg::ForkRequest));
            }
        }
    }

    fn try_eat(&mut self) {
        if self.phase == DinerPhase::Hungry && self.edges.iter().all(|e| e.has_fork) {
            self.phase = DinerPhase::Eating;
            for e in &mut self.edges {
                e.dirty = true;
            }
        }
    }
}

impl DiningParticipant for HygienicDining {
    fn hungry(&mut self, io: &mut DiningIo<'_>) {
        assert_eq!(self.phase, DinerPhase::Thinking, "hungry() while {}", self.phase);
        self.phase = DinerPhase::Hungry;
        self.request_missing_forks(io);
        self.try_eat();
    }

    fn exit_eating(&mut self, io: &mut DiningIo<'_>) {
        assert_eq!(self.phase, DinerPhase::Eating, "exit_eating() while {}", self.phase);
        self.phase = DinerPhase::Exiting;
        // Honour requests deferred during the meal: a held token next to a
        // (necessarily dirty) fork is a pending request.
        for e in &mut self.edges {
            if e.has_token && e.has_fork {
                e.has_fork = false;
                io.send(e.peer, DiningMsg::Hygienic(HyMsg::Fork));
            }
        }
        self.phase = DinerPhase::Thinking;
    }

    fn on_message(&mut self, io: &mut DiningIo<'_>, from: ProcessId, msg: DiningMsg) {
        let DiningMsg::Hygienic(msg) = msg else {
            debug_assert!(false, "foreign message {msg:?}");
            return;
        };
        let Some(e) = self.edges.iter_mut().find(|e| e.peer == from) else {
            debug_assert!(false, "message from non-neighbor {from:?}");
            return;
        };
        match msg {
            HyMsg::ForkRequest => {
                debug_assert!(!e.has_token, "duplicate request token on one edge");
                e.has_token = true;
                if e.has_fork && e.dirty && self.phase != DinerPhase::Eating {
                    // Yield the dirty fork; if hungry, immediately re-request.
                    e.has_fork = false;
                    io.send(from, DiningMsg::Hygienic(HyMsg::Fork));
                    if self.phase == DinerPhase::Hungry {
                        e.has_token = false;
                        io.send(from, DiningMsg::Hygienic(HyMsg::ForkRequest));
                    }
                }
            }
            HyMsg::Fork => {
                debug_assert!(!e.has_fork, "duplicate fork on one edge");
                e.has_fork = true;
                e.dirty = false;
                self.try_eat();
            }
        }
    }

    // The tick is the trait's no-op: it acts in no phase at all.
    fn ticks_only_while_suspecting(&self) -> bool {
        true
    }

    fn phase(&self) -> DinerPhase {
        self.phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::participant::NoOracle;
    use dinefd_sim::Time;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    fn io(fd: &NoOracle, me: ProcessId) -> DiningIo<'_> {
        DiningIo::new(me, Time(0), fd)
    }

    #[test]
    fn lower_id_starts_with_dirty_fork() {
        let d = HygienicDining::new(p(0), &[p(1)]);
        assert!(d.holds_fork(p(1)));
        let d = HygienicDining::new(p(1), &[p(0)]);
        assert!(!d.holds_fork(p(0)));
    }

    #[test]
    fn holder_of_all_forks_eats_immediately() {
        let fd = NoOracle(2);
        let mut d = HygienicDining::new(p(0), &[p(1)]);
        let mut i = io(&fd, p(0));
        d.hungry(&mut i);
        assert_eq!(d.phase(), DinerPhase::Eating);
        assert!(i.finish().sends.is_empty());
    }

    #[test]
    fn token_holder_requests_then_eats_on_fork() {
        let fd = NoOracle(2);
        let mut d = HygienicDining::new(p(1), &[p(0)]);
        let mut i = io(&fd, p(1));
        d.hungry(&mut i);
        assert_eq!(d.phase(), DinerPhase::Hungry);
        let fx = i.finish();
        assert_eq!(fx.sends.len(), 1);
        assert!(
            matches!(fx.sends[0], (pid, DiningMsg::Hygienic(HyMsg::ForkRequest)) if pid == p(0))
        );
        let mut i = io(&fd, p(1));
        d.on_message(&mut i, p(0), DiningMsg::Hygienic(HyMsg::Fork));
        assert_eq!(d.phase(), DinerPhase::Eating);
    }

    #[test]
    fn dirty_fork_yielded_to_requester_when_not_eating() {
        let fd = NoOracle(2);
        let mut d = HygienicDining::new(p(0), &[p(1)]); // thinking, dirty fork
        let mut i = io(&fd, p(0));
        d.on_message(&mut i, p(1), DiningMsg::Hygienic(HyMsg::ForkRequest));
        let fx = i.finish();
        assert_eq!(fx.sends.len(), 1);
        assert!(matches!(fx.sends[0], (_, DiningMsg::Hygienic(HyMsg::Fork))));
        assert!(!d.holds_fork(p(1)));
    }

    #[test]
    fn request_deferred_while_eating_served_at_exit() {
        let fd = NoOracle(2);
        let mut d = HygienicDining::new(p(0), &[p(1)]);
        let mut i = io(&fd, p(0));
        d.hungry(&mut i); // eats immediately
        let mut i = io(&fd, p(0));
        d.on_message(&mut i, p(1), DiningMsg::Hygienic(HyMsg::ForkRequest));
        assert!(i.finish().sends.is_empty(), "must not yield while eating");
        assert!(d.holds_fork(p(1)));
        let mut i = io(&fd, p(0));
        d.exit_eating(&mut i);
        assert_eq!(d.phase(), DinerPhase::Thinking);
        let fx = i.finish();
        assert_eq!(fx.sends.len(), 1);
        assert!(matches!(fx.sends[0], (_, DiningMsg::Hygienic(HyMsg::Fork))));
    }

    #[test]
    fn hungry_yielder_rerequests_immediately() {
        let fd = NoOracle(2);
        // p0 holds a dirty fork and is hungry... but p0 with the fork eats
        // immediately; so set the scene at p2 in a path 1-2-3 where p2 is
        // hungry waiting for the fork of edge (1,2) while holding the dirty
        // fork of edge (2,3).
        let mut d = HygienicDining::new(p(2), &[p(1), p(3)]);
        let mut i = io(&fd, p(2));
        d.hungry(&mut i); // requests fork from p1; holds dirty fork for p3
        assert_eq!(d.phase(), DinerPhase::Hungry);
        let _ = i.finish();
        // p3 requests the (2,3) fork: p2 yields (dirty, not eating) and
        // immediately re-requests it.
        let mut i = io(&fd, p(2));
        d.on_message(&mut i, p(3), DiningMsg::Hygienic(HyMsg::ForkRequest));
        let fx = i.finish();
        assert_eq!(fx.sends.len(), 2);
        assert!(matches!(fx.sends[0], (pid, DiningMsg::Hygienic(HyMsg::Fork)) if pid == p(3)));
        assert!(
            matches!(fx.sends[1], (pid, DiningMsg::Hygienic(HyMsg::ForkRequest)) if pid == p(3))
        );
    }

    #[test]
    fn clean_fork_not_yielded_while_hungry() {
        let fd = NoOracle(3);
        // p1 hungry on path 0-1-2: requests fork from p0, receives it
        // (clean), still waiting for p2's fork... p1 starts with token for
        // edge (0,1) and fork for edge (1,2).
        // Scenario: p1 yields its dirty (1,2) fork to p2 first, so that the
        // (0,1) fork arrives while p1 is hungry and stays clean.
        let mut d = HygienicDining::new(p(1), &[p(0), p(2)]);
        let mut i = io(&fd, p(1));
        d.hungry(&mut i);
        let _ = i.finish();
        let mut i = io(&fd, p(1));
        d.on_message(&mut i, p(2), DiningMsg::Hygienic(HyMsg::ForkRequest));
        let _ = i.finish(); // yielded + re-requested
                            // Now the clean (0,1) fork arrives; p1 is hungry with a clean fork.
        let mut i = io(&fd, p(1));
        d.on_message(&mut i, p(0), DiningMsg::Hygienic(HyMsg::Fork));
        let _ = i.finish();
        assert_eq!(d.phase(), DinerPhase::Hungry);
        // p0 requests it back: clean + hungry ⇒ keep it (priority).
        let mut i = io(&fd, p(1));
        d.on_message(&mut i, p(0), DiningMsg::Hygienic(HyMsg::ForkRequest));
        assert!(i.finish().sends.is_empty());
        assert!(d.holds_fork(p(0)));
    }
}
