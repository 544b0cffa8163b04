//! The black-box interface over which the necessity reduction quantifies.
//!
//! The paper's reduction works with *any* solution to WF-◇WX; this module
//! pins down the corresponding Rust interface. A [`DiningParticipant`] is one
//! diner's endpoint of one dining instance. The host (a workload driver, or
//! the witness/subject machinery of `dinefd-core`) invokes it with a
//! [`DiningIo`] capability and routes the messages it emits to the peer
//! participants of the same instance.
//!
//! ## Host contract
//!
//! * `hungry` may only be called when [`DiningParticipant::phase`] is
//!   `Thinking`; afterwards the phase is `Hungry` (or already `Eating` if the
//!   protocol granted immediately).
//! * `exit_eating` may only be called when the phase is `Eating`; afterwards
//!   the phase is `Exiting` or already `Thinking`.
//! * Every message emitted must be delivered to the addressed peer of the
//!   *same instance* (the host wraps messages with an instance tag).
//! * `on_tick` must be invoked infinitely often for every live participant
//!   that has not promised otherwise (it is where suspicion-driven protocols
//!   re-evaluate their failure detector). For a participant whose
//!   [`DiningParticipant::ticks_only_while_suspecting`] is `true`,
//!   infinitely often *while its phase is `Hungry` and the detector suspects
//!   an instance neighbour* suffices: a host may skip every other tick. A
//!   host that knows from [`FdQuery::unsuspected_until`] that no neighbour
//!   can be suspected before some instant need not even ask until then.
//!
//! Phase changes are the protocol's own doing; hosts detect them by
//! comparing `phase()` before and after each call.

use std::fmt;

use dinefd_fd::FdQuery;
use dinefd_sim::{ProcessId, Time};

use crate::coord::CoordMsg;
use crate::fair::FairMsg;
use crate::hygienic::HyMsg;
use crate::state::DinerPhase;
use crate::wfdx::WxMsg;

/// Union of the message types of every dining protocol in this crate: one
/// variant per protocol, not per service.
///
/// Using one concrete message enum (rather than an associated type) keeps
/// participants object-safe, so hosts and the experiment harness can treat a
/// `Box<dyn DiningParticipant>` as the literal black box of the paper.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum DiningMsg {
    /// Chandy–Misra hygienic algorithm traffic.
    Hygienic(HyMsg),
    /// Fork traffic of the ◇P-based wait-free ◇WX algorithm, in all its
    /// uses: plain, trust-gated (FTME) and under the fairness gate.
    WfDx(WxMsg),
    /// Coordinator-protocol traffic (every [`crate::coord::GrantRegime`]).
    Coord(CoordMsg),
    /// Hunger announcements of the eventually-2-fair algorithm.
    Fair(FairMsg),
}

/// Effects collected from one participant invocation.
#[derive(Debug, Default)]
pub struct DiningEffects {
    /// Messages to deliver to peer participants of the same instance.
    pub sends: Vec<(ProcessId, DiningMsg)>,
}

/// The capability a participant has during one invocation: send messages to
/// instance peers and query the local failure-detector module.
pub struct DiningIo<'a> {
    me: ProcessId,
    now: Time,
    fd: &'a dyn FdQuery,
    sends: Vec<(ProcessId, DiningMsg)>,
}

impl<'a> DiningIo<'a> {
    /// Builds the capability for one invocation.
    pub fn new(me: ProcessId, now: Time, fd: &'a dyn FdQuery) -> Self {
        DiningIo { me, now, fd, sends: Vec::new() }
    }

    /// Builds the capability reusing a caller-owned send buffer (cleared
    /// here), so hosts invoking participants in a hot loop allocate nothing
    /// per invocation: drain [`DiningEffects::sends`] after
    /// [`DiningIo::finish`] and hand the vector back next time.
    pub fn with_scratch(
        me: ProcessId,
        now: Time,
        fd: &'a dyn FdQuery,
        mut scratch: Vec<(ProcessId, DiningMsg)>,
    ) -> Self {
        scratch.clear();
        DiningIo { me, now, fd, sends: scratch }
    }

    /// The hosting process.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Current global time.
    ///
    /// For *model artifacts only*: the coordinator-based services compare it
    /// against their scripted convergence parameter (which stands for "the
    /// instant this box's internal ◇P happens to converge in this run").
    /// Genuine protocol logic never branches on it.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Queries the local failure-detector module about `q`.
    pub fn suspected(&self, q: ProcessId) -> bool {
        self.fd.suspected(self.me, q, self.now)
    }

    /// Sends `msg` to the participant of the same instance at `to`.
    pub fn send(&mut self, to: ProcessId, msg: DiningMsg) {
        self.sends.push((to, msg));
    }

    /// Finishes the invocation, yielding the buffered effects.
    pub fn finish(self) -> DiningEffects {
        DiningEffects { sends: self.sends }
    }
}

impl fmt::Debug for DiningIo<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiningIo")
            .field("me", &self.me)
            .field("pending_sends", &self.sends.len())
            .finish()
    }
}

/// One diner's endpoint of one dining instance — the paper's black box.
///
/// `Send` is a supertrait so that reduction hosts holding boxed
/// participants can ride the parallel shard workers of
/// `dinefd_sim::ShardedWorld`; participants are self-contained state
/// machines, so the bound costs implementations nothing.
pub trait DiningParticipant: fmt::Debug + Send {
    /// The local client became hungry.
    fn hungry(&mut self, io: &mut DiningIo<'_>);

    /// The local client finished its critical section.
    fn exit_eating(&mut self, io: &mut DiningIo<'_>);

    /// A message from the peer participant `from` of the same instance.
    fn on_message(&mut self, io: &mut DiningIo<'_>, from: ProcessId, msg: DiningMsg);

    /// Periodic re-evaluation hook (failure-detector polling).
    fn on_tick(&mut self, _io: &mut DiningIo<'_>) {}

    /// A promise to the host: `on_tick` changes nothing a later call or the
    /// host can observe — no message, no phase change, no state another
    /// method reads — unless the phase is `Hungry` *and* the detector
    /// suspects an instance neighbour at that instant, so every other tick
    /// may be skipped. `false` (the default) promises nothing; an adapter
    /// that does not forward this method therefore stays correct, only
    /// unskipped.
    fn ticks_only_while_suspecting(&self) -> bool {
        false
    }

    /// Current phase of this diner in this instance.
    fn phase(&self) -> DinerPhase;
}

/// A boxed participant is the participant it holds. Every method forwards,
/// the tick promise included, so a host may keep its diners boxed or
/// inline and sees the same black box either way.
impl<P: DiningParticipant + ?Sized> DiningParticipant for Box<P> {
    fn hungry(&mut self, io: &mut DiningIo<'_>) {
        (**self).hungry(io);
    }

    fn exit_eating(&mut self, io: &mut DiningIo<'_>) {
        (**self).exit_eating(io);
    }

    fn on_message(&mut self, io: &mut DiningIo<'_>, from: ProcessId, msg: DiningMsg) {
        (**self).on_message(io, from, msg);
    }

    fn on_tick(&mut self, io: &mut DiningIo<'_>) {
        (**self).on_tick(io);
    }

    fn ticks_only_while_suspecting(&self) -> bool {
        (**self).ticks_only_while_suspecting()
    }

    fn phase(&self) -> DinerPhase {
        (**self).phase()
    }
}

/// A failure detector that never suspects anyone — for protocols that do not
/// consult an oracle (the crash-oblivious baseline) and for tests.
#[derive(Clone, Copy, Debug)]
pub struct NoOracle(
    /// System size.
    pub usize,
);

impl FdQuery for NoOracle {
    fn suspected(&self, _watcher: ProcessId, _subject: ProcessId, _now: Time) -> bool {
        false
    }

    fn len(&self) -> usize {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn io_buffers_sends_and_queries_fd() {
        let fd = NoOracle(3);
        let mut io = DiningIo::new(ProcessId(0), Time(5), &fd);
        assert_eq!(io.me(), ProcessId(0));
        assert!(!io.suspected(ProcessId(1)));
        io.send(ProcessId(1), DiningMsg::Hygienic(HyMsg::ForkRequest));
        io.send(ProcessId(2), DiningMsg::Hygienic(HyMsg::Fork));
        let fx = io.finish();
        assert_eq!(fx.sends.len(), 2);
        assert_eq!(fx.sends[0].0, ProcessId(1));
    }

    #[test]
    fn no_oracle_reports_size() {
        let fd = NoOracle(7);
        assert_eq!(fd.len(), 7);
        assert!(!fd.is_empty());
    }

    /// Counts each call it gets, in a tally the test keeps, and promises
    /// what it is told to.
    #[derive(Debug)]
    struct Probe {
        calls: Arc<[AtomicU32; 6]>,
        promise: bool,
    }

    impl Probe {
        fn count(&self, method: usize) {
            self.calls[method].fetch_add(1, Ordering::Relaxed);
        }
    }

    impl DiningParticipant for Probe {
        fn hungry(&mut self, _io: &mut DiningIo<'_>) {
            self.count(0);
        }

        fn exit_eating(&mut self, _io: &mut DiningIo<'_>) {
            self.count(1);
        }

        fn on_message(&mut self, io: &mut DiningIo<'_>, from: ProcessId, msg: DiningMsg) {
            self.count(2);
            io.send(from, msg);
        }

        fn on_tick(&mut self, _io: &mut DiningIo<'_>) {
            self.count(3);
        }

        fn ticks_only_while_suspecting(&self) -> bool {
            self.count(4);
            self.promise
        }

        fn phase(&self) -> DinerPhase {
            self.count(5);
            DinerPhase::Eating
        }
    }

    /// Every call through the box reaches the value inside, and a boxed
    /// participant keeps its tick promise: a forwarding impl that fell back
    /// on the trait's default `false` would put every bank holding boxes
    /// back on ticking everything.
    #[test]
    fn a_box_forwards_every_method_to_its_participant() {
        let fd = NoOracle(2);
        let fork = DiningMsg::Hygienic(HyMsg::Fork);
        for promise in [false, true] {
            let calls = Arc::new(std::array::from_fn(|_| AtomicU32::new(0)));
            let probe = Probe { calls: Arc::clone(&calls), promise };
            // Twice boxed too, as a host holding `Box<dyn …>` values sees them.
            let mut boxed: Box<Box<dyn DiningParticipant>> = Box::new(Box::new(probe));
            let mut io = DiningIo::new(ProcessId(0), Time(3), &fd);
            boxed.hungry(&mut io);
            boxed.exit_eating(&mut io);
            boxed.on_message(&mut io, ProcessId(1), fork.clone());
            boxed.on_tick(&mut io);
            assert_eq!(boxed.ticks_only_while_suspecting(), promise);
            assert_eq!(boxed.phase(), DinerPhase::Eating);
            assert_eq!(io.finish().sends, vec![(ProcessId(1), fork.clone())]);
            let tally: Vec<u32> = calls.iter().map(|c| c.load(Ordering::Relaxed)).collect();
            assert_eq!(tally, [1; 6], "calls per method, promise {promise}");
        }
    }

    /// Every queued event and trace entry of a reduction run carries one.
    /// With one variant per protocol no enum nests a second copy of the fork
    /// messages, so the `Request` stamp alone sets the size.
    #[test]
    fn a_dining_msg_is_24_bytes() {
        assert_eq!(std::mem::size_of::<DiningMsg>(), 24);
    }

    /// A message from outside the neighbour set is a host bug: it trips a
    /// `debug_assert!` and, optimized, is dropped without touching the diner.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "message from non-neighbor"))]
    fn a_message_from_a_non_neighbor_is_dropped() {
        use crate::fair::FairWfDxDining;
        use crate::hygienic::HygienicDining;
        use crate::wfdx::{Ts, WfDxDining};

        let fd = NoOracle(4);
        let (me, stranger, nbrs) = (ProcessId(1), ProcessId(3), [ProcessId(0), ProcessId(2)]);
        let request = DiningMsg::WfDx(WxMsg::Request(Ts { clock: 9, id: 3 }));
        let fork = DiningMsg::WfDx(WxMsg::Fork { clock: 9 });
        // Hungry first, so a misattributed fork could start a meal.
        let hungry = |d: &mut dyn DiningParticipant| d.hungry(&mut DiningIo::new(me, Time(1), &fd));
        let dropped = |d: &mut dyn DiningParticipant, msg: &DiningMsg| {
            let before = d.phase();
            let mut io = DiningIo::new(me, Time(5), &fd);
            d.on_message(&mut io, stranger, msg.clone());
            assert!(io.finish().sends.is_empty(), "{msg:?} from a stranger sent something");
            assert_eq!(d.phase(), before, "{msg:?} from a stranger moved the phase");
        };
        let packed = |d: &WfDxDining| {
            let mut out = Vec::new();
            d.pack_into(&mut out);
            out
        };
        for mut d in [WfDxDining::new(me, &nbrs), WfDxDining::trust_gated(me, &nbrs)] {
            hungry(&mut d);
            let before = packed(&d);
            for msg in [&request, &fork] {
                dropped(&mut d, msg);
            }
            assert_eq!(packed(&d), before, "a stranger's message changed the packed state");
        }
        let mut d = HygienicDining::new(me, &nbrs);
        hungry(&mut d);
        for msg in [HyMsg::ForkRequest, HyMsg::Fork] {
            dropped(&mut d, &DiningMsg::Hygienic(msg));
        }
        let mut d = FairWfDxDining::new(me, &nbrs);
        hungry(&mut d);
        for msg in [&request, &fork, &DiningMsg::Fair(FairMsg::Hungry)] {
            dropped(&mut d, msg);
        }
    }
}
