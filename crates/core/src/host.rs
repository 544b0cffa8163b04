//! The event-driven host that runs an extractor over black-box dining
//! instances inside the simulator.
//!
//! For every ordered monitoring pair `(p, q)` an extractor instantiates `K`
//! dining instances `DX_0 … DX_{K-1}`, each a 2-diner conflict graph between
//! a thread at the watcher `p` and a thread at the subject `q`. What an
//! extractor *is* — when a thread goes hungry, when it exits, what it sends
//! the other side and what it concludes — is a pair of [`Side`]s: one side
//! of one pair, a pure state machine over its threads' dining phases. The
//! paper's reduction is [`WitnessMachine`] and [`SubjectMachine`] at
//! `K = 2`; the two ablations in [`crate::single_dx`] and
//! [`crate::flawed_cm`] are four small sides at `K = 1`.
//!
//! Everything else is stated here once, for all of them. A [`Bank`] holds
//! every pair one process takes one side of: it calls the black boxes,
//! tags and forwards what they send, reports the phases they cross and the
//! output changes of the side, and keeps the tick promise. A [`PairNode`]
//! is one physical process — a witness bank, a subject bank and the routing
//! between them; [`ReductionNode`] is that node over the paper's machines.
//! `K` is fixed by the extractor's type; nothing sets it at run time.

use std::sync::Arc;

use dinefd_dining::{DinerPhase, DiningIo, DiningMsg, DiningParticipant};
use dinefd_fd::FdQuery;
use dinefd_sim::{Context, Node, ProcessId, Time, TimerId};

use crate::machines::{SubjectAction, SubjectCmd, SubjectMachine, WitnessCmd, WitnessMachine};

/// Which side of a monitoring pair a dining endpoint belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The watcher's side (`p.w_i`).
    Witness,
    /// The monitored side (`q.s_i`).
    Subject,
}

/// Messages of the reduction layer, tagged with their monitoring pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RedMsg {
    /// Traffic of dining instance `DX_instance` of pair `(watcher, subject)`.
    Dx {
        /// The pair's watcher.
        watcher: ProcessId,
        /// The pair's subject.
        subject: ProcessId,
        /// 0 or 1.
        instance: u8,
        /// The black-box dining message.
        inner: DiningMsg,
    },
    /// A subject's ping (Alg. 2, action `S_p`).
    Ping {
        /// The pair's watcher (the destination).
        watcher: ProcessId,
        /// The pair's subject (the origin).
        subject: ProcessId,
        /// Which instance's subject thread pinged.
        instance: u8,
        /// Hardening sequence number.
        seq: u64,
    },
    /// A witness's ack (Alg. 1, action `W_p`).
    Ack {
        /// The pair's watcher (the origin).
        watcher: ProcessId,
        /// The pair's subject (the destination).
        subject: ProcessId,
        /// Which instance is being acked.
        instance: u8,
        /// Echoed sequence number.
        seq: u64,
    },
}

/// Observations emitted by reduction nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RedObs {
    /// The extracted detector output of this (watcher) node changed.
    Suspicion {
        /// The monitored process.
        subject: ProcessId,
        /// New output.
        suspected: bool,
    },
    /// A witness/subject thread changed dining phase (Fig. 1 material).
    DxPhase {
        /// The pair's watcher.
        watcher: ProcessId,
        /// The pair's subject.
        subject: ProcessId,
        /// Which side of the pair this thread is.
        role: Role,
        /// 0 or 1.
        instance: u8,
        /// The new phase.
        phase: DinerPhase,
    },
}

/// Identity of one dining endpoint handed to a [`DiningFactory`].
#[derive(Clone, Copy, Debug)]
pub struct DxEndpoint {
    /// The process hosting this endpoint.
    pub me: ProcessId,
    /// The instance peer (the other endpoint's process).
    pub peer: ProcessId,
    /// The pair's watcher.
    pub watcher: ProcessId,
    /// The pair's subject.
    pub subject: ProcessId,
    /// 0 or 1.
    pub instance: u8,
}

/// Builds the local participant of one dining instance — this closure *is*
/// the black box the reduction quantifies over.
pub type DiningFactory<'a> = dyn Fn(DxEndpoint) -> Box<dyn DiningParticipant> + 'a;

/// The oracle handle a node passes to its black boxes (NOT to the extractor
/// itself — the reduction is oracle-free, that is the whole point).
pub type Oracle = Arc<dyn FdQuery + Send + Sync>;

/// Effect collector shared by the components of one node invocation.
///
/// The hot loop never allocates: a [`PairNode`] pools a single `Out`
/// across its [`Node`] handler invocations (and callers of the context-free
/// `handle_*_into` methods are expected to do the same), so after warm-up
/// the send/obs vectors only ever reuse their high-water capacity, and the
/// machines pick each action through `for_each_enabled`, never through the
/// `Vec`-returning `enabled` (`ci/guards.sh`, guard 4).
#[derive(Debug, Default)]
pub struct Out {
    /// Outgoing reduction messages.
    pub sends: Vec<(ProcessId, RedMsg)>,
    /// Observations (suspicion changes, thread phases).
    pub obs: Vec<RedObs>,
}

impl Out {
    /// Empties both buffers, keeping their capacity for reuse.
    pub fn clear(&mut self) {
        self.sends.clear();
        self.obs.clear();
    }
}

/// What a [`Side`] has its host do: one call on the black box of instance
/// `i`, or one control message to the pair's other side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Thread `i` becomes hungry in `DX_i`.
    Hungry(usize),
    /// Thread `i` exits its eating session in `DX_i`.
    Exit(usize),
    /// Thread `i` sends the other side its control message — a subject's
    /// ping, a witness's ack — carrying `seq`.
    Send(usize, u64),
}

/// One side of one monitoring pair: the `K` threads an extractor runs at the
/// watcher (or at the subject), as a state machine over their dining phases.
/// A side changes state only inside these calls, and its enabledness depends
/// only on its state and the phases — which is what lets a [`Bank`] skip a
/// slot nothing has touched.
pub trait Side<const K: usize>: Clone {
    /// Which side this is: decides which end of the pair the hosting process
    /// is, and whether [`Step::Send`] is an ack or a ping.
    const ROLE: Role;

    /// Fires the action a pump takes next, if one is enabled.
    fn step(&mut self, phases: [DinerPhase; K]) -> Option<Step>;

    /// The other side's control message for thread `i` arrived.
    fn on_control(&mut self, i: usize, seq: u64, phases: [DinerPhase; K]) -> Option<Step>;

    /// The extracted output, for a side that has one.
    fn suspects(&self) -> Option<bool>;
}

impl From<WitnessCmd> for Step {
    fn from(cmd: WitnessCmd) -> Step {
        match cmd {
            WitnessCmd::BecomeHungry(i) => Step::Hungry(i),
            WitnessCmd::Exit(i) => Step::Exit(i),
            WitnessCmd::SendAck(i, seq) => Step::Send(i, seq),
        }
    }
}

impl From<SubjectCmd> for Step {
    fn from(cmd: SubjectCmd) -> Step {
        match cmd {
            SubjectCmd::BecomeHungry(i) => Step::Hungry(i),
            SubjectCmd::Exit(i) => Step::Exit(i),
            SubjectCmd::SendPing(i, seq) => Step::Send(i, seq),
        }
    }
}

/// Alg. 1: the first enabled action; a ping is acked at once.
impl Side<2> for WitnessMachine {
    const ROLE: Role = Role::Witness;

    fn step(&mut self, phases: [DinerPhase; 2]) -> Option<Step> {
        let mut first = None;
        self.for_each_enabled(phases, |a| first = first.or(Some(a)));
        Some(self.fire(first?, phases).into())
    }

    fn on_control(&mut self, i: usize, seq: u64, _phases: [DinerPhase; 2]) -> Option<Step> {
        Some(self.on_ping(i, seq).into())
    }

    fn suspects(&self) -> Option<bool> {
        Some(WitnessMachine::suspects(self))
    }
}

/// Alg. 2: pings before hunger, so a lone eater's ping is never starved by
/// the other thread's bookkeeping; otherwise the first enabled action.
impl Side<2> for SubjectMachine {
    const ROLE: Role = Role::Subject;

    fn step(&mut self, phases: [DinerPhase; 2]) -> Option<Step> {
        let (mut ping, mut first) = (None, None);
        self.for_each_enabled(phases, |a| {
            if matches!(a, SubjectAction::Ping(_)) {
                ping = ping.or(Some(a));
            }
            first = first.or(Some(a));
        });
        Some(self.fire(ping.or(first)?, phases).into())
    }

    fn on_control(&mut self, i: usize, seq: u64, _phases: [DinerPhase; 2]) -> Option<Step> {
        self.on_ack(i, seq);
        None
    }

    fn suspects(&self) -> Option<bool> {
        None
    }
}

/// Maximum side actions fired per pump. Grant-immediately black boxes can
/// keep a witness cycling hungry→eating→exit endlessly; bounding the pump
/// turns that cycle into one action per atomic step, exactly as the paper's
/// interleaving semantics intend.
const PUMP_BUDGET: usize = 4;

/// Every pair one process takes side `S` of, laid out struct-of-arrays:
/// parallel vectors indexed by a dense pair slot, so the tick loop walking
/// every pair streams each field contiguously instead of hopping across
/// per-pair structs, and one scratch buffer serves every slot.
///
/// A tick polls what can move, not every pair. While every participant
/// promises [`DiningParticipant::ticks_only_while_suspecting`], `on_tick`
/// reaches only the endpoints `last_phase` shows hungry, and only while the
/// detector suspects their slot's peer, the one instance neighbour. A slot
/// is pumped only if one of them was ticked or its last pump is still
/// pending: every handler that touches a slot ends in `pump`, so nothing
/// else can have become enabled since. Each slot remembers until when
/// [`FdQuery::unsuspected_until`] said its peer stays trusted and is not
/// asked again before then, and the bank remembers the earliest instant any
/// of that can change — a hungry slot's peer may be suspected, or a pump is
/// pending — so a tick before it returns at once. One participant that does
/// not promise puts the whole bank back on ticking and pumping everything.
/// Ticks must come in time order.
pub struct Bank<S, const K: usize> {
    me: ProcessId,
    /// The other end of each slot's pair.
    peers: Vec<ProcessId>,
    sides: Vec<S>,
    dx: Vec<[Box<dyn DiningParticipant>; K]>,
    /// Each endpoint's phase as of its last call; a box changes phase
    /// nowhere else.
    last_phase: Vec<[DinerPhase; K]>,
    /// Whether the slot's last pump stopped on [`PUMP_BUDGET`] instead of on
    /// "nothing enabled" (or has yet to run), so the next tick must pump.
    pump_pending: Vec<bool>,
    /// Before this instant the detector trusts the slot's peer
    /// ([`Time::ZERO`] until first asked).
    trusted_until: Vec<Time>,
    /// No tick before this instant can move anything: the earliest
    /// `trusted_until` of a slot with a hungry endpoint, [`Time::ZERO`] while
    /// a pump is pending. Lowered as slots change, recomputed by each tick
    /// that walks the bank.
    quiet_until: Time,
    /// AND of the participants' `ticks_only_while_suspecting`, taken at
    /// `push`.
    skip_idle_ticks: bool,
    // One reused DiningIo send buffer for the whole bank (hot-loop
    // allocation hygiene).
    scratch: Vec<(ProcessId, DiningMsg)>,
}

impl<S, const K: usize> std::fmt::Debug for Bank<S, K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bank").field("me", &self.me).field("pairs", &self.peers.len()).finish()
    }
}

impl<S: Side<K>, const K: usize> Bank<S, K> {
    fn new(me: ProcessId) -> Self {
        Bank {
            me,
            peers: Vec::new(),
            sides: Vec::new(),
            dx: Vec::new(),
            last_phase: Vec::new(),
            pump_pending: Vec::new(),
            trusted_until: Vec::new(),
            quiet_until: Time::ZERO,
            skip_idle_ticks: true,
            scratch: Vec::new(),
        }
    }

    /// `(watcher, subject)` of the pair this bank's process forms with `peer`.
    fn pair(&self, peer: ProcessId) -> (ProcessId, ProcessId) {
        match S::ROLE {
            Role::Witness => (self.me, peer),
            Role::Subject => (peer, self.me),
        }
    }

    fn push(&mut self, peer: ProcessId, side: S, factory: &DiningFactory<'_>) {
        debug_assert_ne!(peer, self.me, "self-pairs must be pre-filtered");
        let (me, (watcher, subject)) = (self.me, self.pair(peer));
        let dx: [Box<dyn DiningParticipant>; K] = std::array::from_fn(|i| {
            factory(DxEndpoint { me, peer, watcher, subject, instance: i as u8 })
        });
        self.skip_idle_ticks &= dx.iter().all(|p| p.ticks_only_while_suspecting());
        self.peers.push(peer);
        self.sides.push(side);
        self.dx.push(dx);
        self.last_phase.push([DinerPhase::Thinking; K]);
        self.pump_pending.push(true);
        self.trusted_until.push(Time::ZERO);
    }

    /// Number of pairs in the bank.
    fn len(&self) -> usize {
        self.peers.len()
    }

    /// Estimated resident bytes of this bank's pair state (SoA vectors +
    /// the boxed dining participants behind them).
    fn resident_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        self.peers.len()
            * (size_of::<ProcessId>()
                + size_of::<S>()
                + size_of::<[Box<dyn DiningParticipant>; K]>()
                + size_of::<[DinerPhase; K]>()
                + size_of::<bool>()
                + size_of::<Time>())
            + self.dx.iter().flatten().map(|p| size_of_val(&**p)).sum::<usize>()
    }

    /// The one place a black box is called: runs `f` on endpoint `i` of
    /// `slot`, tags and forwards what it sent, and reports each phase it
    /// crossed (a participant can cross several inside one invocation).
    fn invoke_dx(
        &mut self,
        slot: usize,
        i: usize,
        now: Time,
        fd: &dyn FdQuery,
        out: &mut Out,
        f: impl FnOnce(&mut dyn DiningParticipant, &mut DiningIo<'_>),
    ) {
        let mut io = DiningIo::with_scratch(self.me, now, fd, std::mem::take(&mut self.scratch));
        f(&mut *self.dx[slot][i], &mut io);
        let peer = self.peers[slot];
        let ((watcher, subject), instance) = (self.pair(peer), i as u8);
        let mut fx = io.finish();
        for (to, inner) in fx.sends.drain(..) {
            debug_assert_eq!(to, peer);
            out.sends.push((to, RedMsg::Dx { watcher, subject, instance, inner }));
        }
        self.scratch = fx.sends;
        let (role, now_phase) = (S::ROLE, self.dx[slot][i].phase());
        let last = &mut self.last_phase[slot][i];
        while *last != now_phase {
            *last = last.next();
            out.obs.push(RedObs::DxPhase { watcher, subject, role, instance, phase: *last });
        }
        if now_phase == DinerPhase::Hungry {
            self.quiet_until = self.quiet_until.min(self.trusted_until[slot]);
        }
    }

    /// One call into the slot's side: applies the step it asks for, then
    /// reports its output if the call changed it. Whether it asked for one.
    fn fire(
        &mut self,
        slot: usize,
        now: Time,
        fd: &dyn FdQuery,
        out: &mut Out,
        call: impl FnOnce(&mut S, [DinerPhase; K]) -> Option<Step>,
    ) -> bool {
        let side = &mut self.sides[slot];
        let before = side.suspects();
        let step = call(side, self.last_phase[slot]);
        let after = side.suspects();
        let peer = self.peers[slot];
        match step {
            Some(Step::Hungry(i)) => self.invoke_dx(slot, i, now, fd, out, |p, io| p.hungry(io)),
            Some(Step::Exit(i)) => self.invoke_dx(slot, i, now, fd, out, |p, io| p.exit_eating(io)),
            Some(Step::Send(i, seq)) => {
                let ((watcher, subject), instance) = (self.pair(peer), i as u8);
                let msg = match S::ROLE {
                    Role::Witness => RedMsg::Ack { watcher, subject, instance, seq },
                    Role::Subject => RedMsg::Ping { watcher, subject, instance, seq },
                };
                out.sends.push((peer, msg));
            }
            None => {}
        }
        if let (true, Some(suspected)) = (after != before, after) {
            out.obs.push(RedObs::Suspicion { subject: peer, suspected });
        }
        step.is_some()
    }

    /// Fires enabled actions of the slot's side (bounded).
    fn pump(&mut self, slot: usize, now: Time, fd: &dyn FdQuery, out: &mut Out) {
        self.pump_pending[slot] = true;
        for _ in 0..PUMP_BUDGET {
            if !self.fire(slot, now, fd, out, S::step) {
                self.pump_pending[slot] = false;
                return;
            }
        }
        self.quiet_until = Time::ZERO;
    }

    #[allow(clippy::too_many_arguments)] // slot-addressed bank entry point
    fn on_dx_message(
        &mut self,
        slot: usize,
        i: usize,
        from: ProcessId,
        inner: DiningMsg,
        now: Time,
        fd: &dyn FdQuery,
        out: &mut Out,
    ) {
        self.invoke_dx(slot, i, now, fd, out, |p, io| p.on_message(io, from, inner));
        self.pump(slot, now, fd, out);
    }

    fn on_control(
        &mut self,
        slot: usize,
        i: usize,
        seq: u64,
        now: Time,
        fd: &dyn FdQuery,
        out: &mut Out,
    ) {
        self.fire(slot, now, fd, out, |side, phases| side.on_control(i, seq, phases));
        self.pump(slot, now, fd, out);
    }

    fn hungry(&self, slot: usize) -> bool {
        self.last_phase[slot].contains(&DinerPhase::Hungry)
    }

    /// Whether the detector suspects the slot's peer now, asked only once
    /// the last answer's [`FdQuery::unsuspected_until`] has passed.
    fn peer_suspected(&mut self, slot: usize, now: Time, fd: &dyn FdQuery) -> bool {
        if now < self.trusted_until[slot] {
            return false;
        }
        let (me, peer) = (self.me, self.peers[slot]);
        let suspected = fd.suspected(me, peer, now);
        if !suspected {
            self.trusted_until[slot] = fd.unsuspected_until(me, peer, now);
        }
        suspected
    }

    /// The bank's periodic step: ticks what the promise leaves to tick and
    /// pumps the slots that may have moved.
    fn on_tick(&mut self, now: Time, fd: &dyn FdQuery, out: &mut Out) {
        if !self.skip_idle_ticks {
            for slot in 0..self.len() {
                for i in 0..K {
                    self.invoke_dx(slot, i, now, fd, out, |p, io| p.on_tick(io));
                }
                self.pump(slot, now, fd, out);
            }
            return;
        }
        if now < self.quiet_until {
            return;
        }
        self.quiet_until = Time::INFINITY;
        for slot in 0..self.len() {
            let mut pump = self.pump_pending[slot];
            if self.hungry(slot) && self.peer_suspected(slot, now, fd) {
                for i in 0..K {
                    if self.last_phase[slot][i] == DinerPhase::Hungry {
                        self.invoke_dx(slot, i, now, fd, out, |p, io| p.on_tick(io));
                    }
                }
                pump = true;
            }
            if pump {
                self.pump(slot, now, fd, out);
            }
            if self.hungry(slot) {
                self.quiet_until = self.quiet_until.min(self.trusted_until[slot]);
            }
        }
    }
}

const TICK: TimerId = TimerId(0);

/// Sentinel for "this node hosts no component for that peer".
const NO_COMPONENT: u32 = u32::MAX;

/// The slot `table` holds for `peer`, if any.
fn slot_of(table: &[u32], peer: ProcessId) -> Option<usize> {
    table.get(peer.index()).filter(|&&i| i != NO_COMPONENT).map(|&i| i as usize)
}

/// One physical process of an extractor with witness side `W`, subject side
/// `S` and `K` dining instances per pair: all of its pair state (two
/// struct-of-arrays banks) plus message routing.
///
/// Routing is O(1) per message: two peer-indexed tables map a message's
/// pair tag straight to the owning bank slot, so a node watching (or being
/// watched by) hundreds of peers never scans its pair lists on the hot
/// path.
pub struct PairNode<W, S, const K: usize> {
    me: ProcessId,
    witnesses: Bank<W, K>,
    subjects: Bank<S, K>,
    /// `witness_by_subject[q]` = slot in `witnesses` of the pair watching
    /// `q`, or [`NO_COMPONENT`].
    witness_by_subject: Vec<u32>,
    /// `subject_by_watcher[w]` = slot in `subjects` of the pair monitored
    /// by `w`, or [`NO_COMPONENT`].
    subject_by_watcher: Vec<u32>,
    fd: Oracle,
    tick_every: u64,
    /// Pooled effect buffers for the [`Node`] handlers (see [`Out`]).
    out_buf: Out,
}

/// One physical process of the paper's reduction: Alg. 1 and Alg. 2 over
/// two dining instances per pair.
pub type ReductionNode = PairNode<WitnessMachine, SubjectMachine, 2>;

impl<W, S, const K: usize> std::fmt::Debug for PairNode<W, S, K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PairNode")
            .field("me", &self.me)
            .field("witnesses", &self.witnesses.peers.len())
            .field("subjects", &self.subjects.peers.len())
            .finish()
    }
}

/// The subjects `me` watches and the watchers monitoring `me` in `pairs`,
/// both in pair-list order, self-pairs dropped.
fn group(me: ProcessId, pairs: &[(ProcessId, ProcessId)]) -> (Vec<ProcessId>, Vec<ProcessId>) {
    let others = pairs.iter().filter(|&&(w, s)| w != s);
    let watch = others.clone().filter(|&&(w, _)| w == me).map(|&(_, s)| s).collect();
    let watched_by = others.filter(|&&(_, s)| s == me).map(|&(w, _)| w).collect();
    (watch, watched_by)
}

impl ReductionNode {
    /// Builds the node for `me` given the full list of ordered monitoring
    /// pairs, the black-box dining factory, and the oracle handle consumed by
    /// the dining implementations.
    ///
    /// This scans `pairs` once per call; when constructing many nodes over
    /// one shared pair list, pre-group it and use
    /// [`ReductionNode::from_groups`] instead, which turns the O(n · P)
    /// total construction scan into O(P).
    pub fn new(
        me: ProcessId,
        pairs: &[(ProcessId, ProcessId)],
        factory: &DiningFactory<'_>,
        fd: Oracle,
        strict_seq: bool,
    ) -> Self {
        let (watch, watched_by) = group(me, pairs);
        Self::from_groups(me, &watch, &watched_by, factory, fd, strict_seq)
    }

    /// Builds the node for `me` from pre-grouped pair lists: the subjects
    /// `me` watches and the watchers monitoring `me`, both in pair-list
    /// order. Self-pairs must already be filtered out.
    pub fn from_groups(
        me: ProcessId,
        watch: &[ProcessId],
        watched_by: &[ProcessId],
        factory: &DiningFactory<'_>,
        fd: Oracle,
        strict_seq: bool,
    ) -> Self {
        let sides = (WitnessMachine::new(), SubjectMachine::new(strict_seq));
        Self::with_sides(me, watch, watched_by, factory, fd, sides)
    }
}

impl<W: Side<K>, S: Side<K>, const K: usize> PairNode<W, S, K> {
    /// Builds the node for `me` over `pairs`, every pair starting from a
    /// copy of `sides`.
    pub fn over_pairs(
        me: ProcessId,
        pairs: &[(ProcessId, ProcessId)],
        factory: &DiningFactory<'_>,
        fd: Oracle,
        sides: (W, S),
    ) -> Self {
        let (watch, watched_by) = group(me, pairs);
        Self::with_sides(me, &watch, &watched_by, factory, fd, sides)
    }

    fn with_sides(
        me: ProcessId,
        watch: &[ProcessId],
        watched_by: &[ProcessId],
        factory: &DiningFactory<'_>,
        fd: Oracle,
        (witness, subject): (W, S),
    ) -> Self {
        let mut witnesses = Bank::new(me);
        for &s in watch {
            witnesses.push(s, witness.clone(), factory);
        }
        let mut subjects = Bank::new(me);
        for &w in watched_by {
            subjects.push(w, subject.clone(), factory);
        }
        // Peer-indexed routing tables, sized by the largest process id the
        // grouped lists name (plus `me` itself).
        let table_len =
            watch.iter().chain(watched_by).map(|p| p.index()).fold(me.index(), usize::max) + 1;
        let table = |peers: &[ProcessId]| {
            let mut table = vec![NO_COMPONENT; table_len];
            for (slot, p) in peers.iter().enumerate() {
                table[p.index()] = slot as u32;
            }
            table
        };
        PairNode {
            me,
            witness_by_subject: table(watch),
            subject_by_watcher: table(watched_by),
            witnesses,
            subjects,
            fd,
            tick_every: 4,
            out_buf: Out::default(),
        }
    }

    /// Overrides the self-tick period (scheduling-granularity ablation).
    ///
    /// A period of `0` is silently clamped to `1`: the reduction's liveness
    /// arguments need the node to keep taking spontaneous steps, and a zero
    /// period would ask the simulator for a timer that never advances time
    /// (the simulator itself clamps timer delays to ≥ 1 tick, so the clamp
    /// here just makes the node's own notion of its period honest).
    pub fn set_tick_every(&mut self, ticks: u64) {
        self.tick_every = ticks.max(1);
    }

    /// The effective self-tick period (post-clamp; see
    /// [`PairNode::set_tick_every`]).
    pub fn tick_every(&self) -> u64 {
        self.tick_every
    }

    /// The watchers monitoring this process, in slot order.
    pub(crate) fn watched_by(&self) -> &[ProcessId] {
        &self.subjects.peers
    }

    /// The extracted detector output of this node: does `me` suspect `q`?
    ///
    /// Returns `true` for any pair this node does not watch — including
    /// `q == me` and peers outside the monitored pair set. This is the
    /// reduction's *pessimistic initialization* contract (Alg. 1 starts
    /// every `suspect_q` at `true`): an output only ever becomes
    /// trustworthy through a witness component's evidence, so a pair with
    /// no witness stays at its initial "suspected" value forever. Callers
    /// restricting monitoring to a pair subset must therefore not read
    /// unwatched pairs as detector claims.
    pub fn suspects(&self, q: ProcessId) -> bool {
        slot_of(&self.witness_by_subject, q)
            .and_then(|slot| self.witnesses.sides[slot].suspects())
            .unwrap_or(true)
    }

    /// Estimated resident bytes of this node's pair state (both banks plus
    /// the routing tables). A deliberately coarse footprint figure for the
    /// bytes/pair scaling curves — it counts the SoA vectors and the boxed
    /// dining participants, not allocator slack.
    pub fn resident_bytes(&self) -> usize {
        self.witnesses.resident_bytes()
            + self.subjects.resident_bytes()
            + (self.witness_by_subject.len() + self.subject_by_watcher.len())
                * std::mem::size_of::<u32>()
    }

    /// Context-free start step (for composition with other layers),
    /// appending effects to a caller-pooled buffer. The caller is
    /// responsible for scheduling the recurring tick.
    pub fn handle_start_into(&mut self, now: Time, out: &mut Out) {
        for slot in 0..self.witnesses.len() {
            self.witnesses.pump(slot, now, &*self.fd, out);
        }
        for slot in 0..self.subjects.len() {
            self.subjects.pump(slot, now, &*self.fd, out);
        }
    }

    /// Context-free message step, appending effects to a caller-pooled
    /// buffer.
    ///
    /// The whole tag is checked before a bank is touched: a frame is for the
    /// witness side iff this process is its `watcher` and it came from its
    /// `subject`, for the subject side iff the reverse; pings go to
    /// witnesses and acks to subjects only; the instance and the peer must
    /// exist here. Anything else is a foreign frame — a bug in a simulated
    /// run, bytes off a socket in a live one — and reaches no black box.
    pub fn handle_message_into(&mut self, from: ProcessId, msg: RedMsg, now: Time, out: &mut Out) {
        let (RedMsg::Dx { watcher, subject, instance, .. }
        | RedMsg::Ping { watcher, subject, instance, .. }
        | RedMsg::Ack { watcher, subject, instance, .. }) = msg;
        let i = instance as usize;
        let for_side = |end: ProcessId, other: ProcessId, table: &[u32]| {
            if end == self.me && from == other && i < K {
                slot_of(table, other)
            } else {
                None
            }
        };
        let witness_slot = for_side(watcher, subject, &self.witness_by_subject);
        let subject_slot = for_side(subject, watcher, &self.subject_by_watcher);
        let fd = &*self.fd;
        match (msg, witness_slot, subject_slot) {
            (RedMsg::Dx { inner, .. }, Some(slot), _) => {
                self.witnesses.on_dx_message(slot, i, from, inner, now, fd, out);
            }
            (RedMsg::Dx { inner, .. }, None, Some(slot)) => {
                self.subjects.on_dx_message(slot, i, from, inner, now, fd, out);
            }
            (RedMsg::Ping { seq, .. }, Some(slot), _) => {
                self.witnesses.on_control(slot, i, seq, now, fd, out);
            }
            (RedMsg::Ack { seq, .. }, _, Some(slot)) => {
                self.subjects.on_control(slot, i, seq, now, fd, out);
            }
            (msg, ..) => debug_assert!(false, "{} got a foreign {msg:?} from {from}", self.me),
        }
    }

    /// Context-free tick step, appending effects to a caller-pooled buffer.
    pub fn handle_tick_into(&mut self, now: Time, out: &mut Out) {
        self.witnesses.on_tick(now, &*self.fd, out);
        self.subjects.on_tick(now, &*self.fd, out);
    }

    /// Convenience wrapper over [`PairNode::handle_start_into`]
    /// allocating a fresh buffer.
    pub fn handle_start(&mut self, now: Time) -> Out {
        let mut out = Out::default();
        self.handle_start_into(now, &mut out);
        out
    }

    /// Convenience wrapper over [`PairNode::handle_message_into`]
    /// allocating a fresh buffer.
    pub fn handle_message(&mut self, from: ProcessId, msg: RedMsg, now: Time) -> Out {
        let mut out = Out::default();
        self.handle_message_into(from, msg, now, &mut out);
        out
    }

    /// Convenience wrapper over [`PairNode::handle_tick_into`]
    /// allocating a fresh buffer.
    pub fn handle_tick(&mut self, now: Time) -> Out {
        let mut out = Out::default();
        self.handle_tick_into(now, &mut out);
        out
    }

    /// Runs one context-free step through the pooled buffer and drains its
    /// effects into the step context, which may be a composed node's.
    pub(crate) fn with_pooled_out<M: From<RedMsg>, O: From<RedObs>>(
        &mut self,
        ctx: &mut Context<'_, M, O>,
        handle: impl FnOnce(&mut Self, Time, &mut Out),
    ) {
        let mut out = std::mem::take(&mut self.out_buf);
        out.clear();
        handle(self, ctx.now(), &mut out);
        for (to, msg) in out.sends.drain(..) {
            ctx.send(to, msg.into());
        }
        for obs in out.obs.drain(..) {
            ctx.observe(obs.into());
        }
        self.out_buf = out;
    }
}

/// The extracted detector as an oracle another protocol in this process
/// can read (`watcher` is by construction `me`), answering as
/// [`PairNode::suspects`] does. Its size is the span of the routing tables:
/// `n` for a node over all ordered pairs of `n` processes.
impl<W: Side<K>, S: Side<K>, const K: usize> FdQuery for PairNode<W, S, K> {
    fn suspected(&self, _watcher: ProcessId, subject: ProcessId, _now: Time) -> bool {
        self.suspects(subject)
    }

    fn len(&self) -> usize {
        self.witness_by_subject.len()
    }
}

impl<W: Side<K>, S: Side<K>, const K: usize> Node for PairNode<W, S, K> {
    type Msg = RedMsg;
    type Obs = RedObs;

    fn on_start(&mut self, ctx: &mut Context<'_, RedMsg, RedObs>) {
        self.with_pooled_out(ctx, Self::handle_start_into);
        ctx.set_timer(self.tick_every, TICK);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, RedMsg, RedObs>, from: ProcessId, msg: RedMsg) {
        self.with_pooled_out(ctx, |node, now, out| node.handle_message_into(from, msg, now, out));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, RedMsg, RedObs>, timer: TimerId) {
        debug_assert_eq!(timer, TICK);
        self.with_pooled_out(ctx, Self::handle_tick_into);
        ctx.set_timer(self.tick_every, TICK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{all_ordered_pairs, factory_for, BlackBox};
    use dinefd_dining::participant::NoOracle;

    fn node_for(me: u32, pairs: &[(ProcessId, ProcessId)]) -> ReductionNode {
        let factory = factory_for(BlackBox::WfDx);
        ReductionNode::new(ProcessId(me), pairs, &factory, Arc::new(NoOracle(8)), false)
    }

    #[test]
    fn suspects_is_pessimistic_for_unwatched_pairs() {
        // Node 1 in a 3-process all-pairs system watches 0 and 2 but never
        // itself; a pair set restricted to (1,0) leaves 2 unwatched too.
        let node = node_for(1, &all_ordered_pairs(3));
        assert!(node.suspects(ProcessId(1)), "q == me is never watched: stays suspected");

        let restricted = node_for(1, &[(ProcessId(1), ProcessId(0))]);
        assert!(restricted.suspects(ProcessId(1)));
        assert!(restricted.suspects(ProcessId(2)), "unwatched peer stays suspected");
        assert!(restricted.suspects(ProcessId(7)), "peer outside the table stays suspected");
        // The one watched pair starts suspected as well (pessimistic init),
        // so everything is uniform at time zero.
        assert!(restricted.suspects(ProcessId(0)));
    }

    #[test]
    fn set_tick_every_zero_clamps_to_one() {
        let mut node = node_for(0, &all_ordered_pairs(2));
        assert_eq!(node.tick_every(), 4, "default period");
        node.set_tick_every(0);
        assert_eq!(node.tick_every(), 1, "zero silently clamps to one");
        node.set_tick_every(9);
        assert_eq!(node.tick_every(), 9);
    }

    #[test]
    fn indexed_routing_matches_component_lists() {
        // Sparse, shuffled pair set: the index tables must route exactly the
        // pairs the component vectors hold, and nothing else.
        let pairs = [
            (ProcessId(2), ProcessId(5)),
            (ProcessId(4), ProcessId(2)),
            (ProcessId(2), ProcessId(0)),
            (ProcessId(6), ProcessId(2)),
            (ProcessId(0), ProcessId(4)),
        ];
        let node = node_for(2, &pairs);
        assert_eq!(node.witnesses.len(), 2);
        assert_eq!(node.subjects.len(), 2);
        let slot = |table: &[u32], peer: u32| slot_of(table, ProcessId(peer)).expect("routed");
        let w5 = slot(&node.witness_by_subject, 5);
        let w0 = slot(&node.witness_by_subject, 0);
        assert_eq!(node.witnesses.peers[w5], ProcessId(5));
        assert_eq!(node.witnesses.peers[w0], ProcessId(0));
        let s4 = slot(&node.subject_by_watcher, 4);
        let s6 = slot(&node.subject_by_watcher, 6);
        assert_eq!(node.subjects.peers[s4], ProcessId(4));
        assert_eq!(node.subjects.peers[s6], ProcessId(6));
        // Every unwatched peer (including out-of-range ids) reads as
        // pessimistically suspected.
        for q in [1u32, 3, 4, 6, 7, 99] {
            assert!(node.suspects(ProcessId(q)));
        }
    }

    #[test]
    fn a_misaddressed_message_reaches_no_black_box() {
        use dinefd_dining::wfdx::WxMsg;
        // p2 watches p0 and p1 and is watched by p0. At start its subject
        // thread for p0 is hungry without the fork (p2 > p0), so a fork that
        // reached it would show in the next tick.
        let p = ProcessId;
        let pairs = [(p(0), p(2)), (p(2), p(0)), (p(2), p(1))];
        let fork = || DiningMsg::WfDx(WxMsg::Fork { clock: 1 });
        let dx =
            |watcher, subject, instance| RedMsg::Dx { watcher, subject, instance, inner: fork() };
        let ping = |watcher, subject| RedMsg::Ping { watcher, subject, instance: 0, seq: 1 };
        let ack = |watcher, subject| RedMsg::Ack { watcher, subject, instance: 0, seq: 1 };
        let foreign = [
            ("third-party Dx from a process that watches us", p(0), dx(p(0), p(1), 0)),
            ("Ping for the pair we are the subject of", p(0), ping(p(0), p(2))),
            ("Ping naming another watcher", p(1), ping(p(0), p(1))),
            ("Ack for the pair we are the witness of", p(0), ack(p(2), p(0))),
            ("Dx of a pair with an unknown peer", p(3), dx(p(2), p(3), 0)),
            ("Ping from a peer beyond the table", p(9), ping(p(2), p(9))),
            ("Ack from a watcher we do not have", p(1), ack(p(1), p(2))),
            ("Dx not from the pair's other end", p(1), dx(p(2), p(0), 0)),
            ("Dx of an instance the extractor does not run", p(0), dx(p(2), p(0), 2)),
        ];
        let ticks = |node: &mut ReductionNode| {
            let outs: Vec<Out> = (1..=3).map(|t| node.handle_tick(Time(4 * t))).collect();
            format!("{outs:?}")
        };
        for (what, from, msg) in foreign {
            let (mut node, mut twin) = (node_for(2, &pairs), node_for(2, &pairs));
            node.handle_start(Time(0));
            twin.handle_start(Time(0));
            let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let out = node.handle_message(from, msg, Time(2));
                (out, ticks(&mut node))
            }));
            if cfg!(debug_assertions) {
                assert!(got.is_err(), "{what}: a debug build must flag it");
            } else {
                let (out, after) = got.expect("a release build drops it");
                assert!(out.sends.is_empty() && out.obs.is_empty(), "{what}: {out:?}");
                assert_eq!(after, ticks(&mut twin), "{what}: it reached a black box");
            }
        }
        // The same fork, addressed properly, is not dropped.
        let mut node = node_for(2, &pairs);
        node.handle_start(Time(0));
        assert!(!node.handle_message(p(0), dx(p(0), p(2), 0), Time(2)).obs.is_empty());
    }

    #[test]
    fn grouped_constructor_matches_pair_list_constructor() {
        // `new` over a pair list and `from_groups` over its pre-grouped form
        // must build behaviourally identical nodes.
        let pairs = all_ordered_pairs(4);
        let factory = factory_for(BlackBox::WfDx);
        let me = ProcessId(1);
        let watch: Vec<ProcessId> =
            pairs.iter().filter(|&&(w, s)| w == me && s != me).map(|&(_, s)| s).collect();
        let watched_by: Vec<ProcessId> =
            pairs.iter().filter(|&&(w, s)| s == me && w != me).map(|&(w, _)| w).collect();
        let mut a = node_for(1, &pairs);
        let mut b = ReductionNode::from_groups(
            me,
            &watch,
            &watched_by,
            &factory,
            Arc::new(NoOracle(8)),
            false,
        );
        assert_eq!(a.witnesses.len(), b.witnesses.len());
        assert_eq!(a.subjects.len(), b.subjects.len());
        assert_eq!(a.resident_bytes(), b.resident_bytes());
        let (oa, ob) = (a.handle_start(Time(0)), b.handle_start(Time(0)));
        assert_eq!(format!("{:?}", oa.sends), format!("{:?}", ob.sends));
        assert_eq!(format!("{:?}", oa.obs), format!("{:?}", ob.obs));
        let (oa, ob) = (a.handle_tick(Time(4)), b.handle_tick(Time(4)));
        assert_eq!(format!("{:?}", oa.sends), format!("{:?}", ob.sends));
        assert_eq!(format!("{:?}", oa.obs), format!("{:?}", ob.obs));
    }

    #[test]
    fn resident_bytes_grows_with_pair_count() {
        let small = node_for(0, &all_ordered_pairs(2));
        let large = node_for(0, &all_ordered_pairs(8));
        assert!(small.resident_bytes() > 0);
        assert!(
            large.resident_bytes() > small.resident_bytes(),
            "more pairs must mean more resident state ({} vs {})",
            large.resident_bytes(),
            small.resident_bytes()
        );
    }

    #[test]
    fn pooled_handlers_match_allocating_wrappers() {
        // Drive two identical nodes through the same step sequence, one via
        // the allocating wrappers and one via the pooled `_into` variants
        // with a single reused buffer; effects must be identical.
        let pairs = all_ordered_pairs(3);
        let mut a = node_for(1, &pairs);
        let mut b = node_for(1, &pairs);
        let mut pooled = Out::default();

        let wrapped = a.handle_start(Time(0));
        pooled.clear();
        b.handle_start_into(Time(0), &mut pooled);
        assert_eq!(format!("{:?}", wrapped.sends), format!("{:?}", pooled.sends));
        assert_eq!(format!("{:?}", wrapped.obs), format!("{:?}", pooled.obs));

        // Replay the start-step sends of witness components back as if the
        // peers acked: a tick step on both nodes must also agree.
        let wrapped = a.handle_tick(Time(4));
        pooled.clear();
        b.handle_tick_into(Time(4), &mut pooled);
        assert_eq!(format!("{:?}", wrapped.sends), format!("{:?}", pooled.sends));
        assert_eq!(format!("{:?}", wrapped.obs), format!("{:?}", pooled.obs));
        assert!(!pooled.sends.is_empty() || !pooled.obs.is_empty() || wrapped.sends.is_empty());
    }
}
