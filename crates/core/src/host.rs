//! Event-driven hosts that run the witness/subject machines over black-box
//! dining instances inside the simulator.
//!
//! For every ordered monitoring pair `(p, q)` the reduction instantiates two
//! dining instances `DX_0`, `DX_1`, each a 2-diner conflict graph between
//! `p`'s witness thread `w_i` and `q`'s subject thread `s_i`. A single
//! physical process may simultaneously host many witness components (one per
//! process it watches) and many subject components (one per process watching
//! it); a [`ReductionNode`] bundles them and routes the tagged messages.

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

/// Effect collector shared by the components of one node invocation.
///
/// The hot loop never allocates: [`ReductionNode`] pools a single `Out`
/// across its [`Node`] handler invocations (and callers of the context-free
/// `handle_*_into` methods are expected to do the same), so after warm-up
/// the send/obs vectors only ever reuse their high-water capacity, and the
/// banks pick each action through the machines' `for_each_enabled`, never
/// through the `Vec`-returning `enabled` (`ci/guards.sh`, guard 4).
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

/// Maximum machine actions fired per pump. Grant-immediately black boxes can
/// keep a witness cycling hungry→eating→exit endlessly; bounding the pump
/// turns that cycle into one action per atomic step, exactly as the paper's
/// interleaving semantics intend.
const PUMP_BUDGET: usize = 4;

/// Emits the observation chain implied by a phase jump (a participant can
/// cross several phases inside one invocation).
fn emit_phase_chain(
    out: &mut Out,
    watcher: ProcessId,
    subject: ProcessId,
    role: Role,
    instance: u8,
    from: DinerPhase,
    to: DinerPhase,
) {
    let mut phase = from;
    while phase != to {
        phase = match phase {
            DinerPhase::Thinking => DinerPhase::Hungry,
            DinerPhase::Hungry => DinerPhase::Eating,
            DinerPhase::Eating => DinerPhase::Exiting,
            DinerPhase::Exiting => DinerPhase::Thinking,
        };
        out.obs.push(RedObs::DxPhase { watcher, subject, role, instance, phase });
    }
}

/// The watcher-side pair state of one node, laid out struct-of-arrays:
/// parallel vectors indexed by a dense pair slot, so the tick loop walking
/// every pair streams each field contiguously instead of hopping across
/// per-pair structs, and one scratch buffer serves every slot.
///
/// A tick polls what can move, not every pair. While every participant
/// promises [`DiningParticipant::ticks_only_while_hungry`], only the
/// endpoints `last_phase` shows hungry get `on_tick`, and a slot is pumped
/// only if one of them was ticked or its last pump is still pending: every
/// handler that touches a slot ends in `pump`, so nothing else can have
/// become enabled since. One participant that does not promise puts the
/// whole bank back on ticking and pumping everything.
pub struct WitnessBank {
    watcher: ProcessId,
    subjects: Vec<ProcessId>,
    machines: Vec<WitnessMachine>,
    dx: Vec<[Box<dyn DiningParticipant>; 2]>,
    last_phase: Vec<[DinerPhase; 2]>,
    last_suspect: Vec<bool>,
    /// Whether the slot's last pump stopped on [`PUMP_BUDGET`] instead of on
    /// "nothing enabled" (or has yet to run), so the next tick must pump.
    pump_pending: Vec<bool>,
    /// AND of the participants' `ticks_only_while_hungry`, taken at `push`.
    skip_idle_ticks: bool,
    // One reused DiningIo send buffer for the whole bank (hot-loop
    // allocation hygiene).
    scratch: Vec<(ProcessId, DiningMsg)>,
}

impl std::fmt::Debug for WitnessBank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WitnessBank")
            .field("watcher", &self.watcher)
            .field("pairs", &self.subjects.len())
            .finish()
    }
}

impl WitnessBank {
    fn new(watcher: ProcessId) -> Self {
        WitnessBank {
            watcher,
            subjects: Vec::new(),
            machines: Vec::new(),
            dx: Vec::new(),
            last_phase: Vec::new(),
            last_suspect: Vec::new(),
            pump_pending: Vec::new(),
            skip_idle_ticks: true,
            scratch: Vec::new(),
        }
    }

    fn push(&mut self, subject: ProcessId, factory: &DiningFactory<'_>) {
        let watcher = self.watcher;
        let mk = |instance: u8| {
            factory(DxEndpoint { me: watcher, peer: subject, watcher, subject, instance })
        };
        self.subjects.push(subject);
        self.machines.push(WitnessMachine::new());
        let dx = [mk(0), mk(1)];
        self.skip_idle_ticks &= dx.iter().all(|p| p.ticks_only_while_hungry());
        self.dx.push(dx);
        self.last_phase.push([DinerPhase::Thinking; 2]);
        self.last_suspect.push(true);
        self.pump_pending.push(true);
    }

    /// Number of pairs in the bank.
    pub fn len(&self) -> usize {
        self.subjects.len()
    }

    /// Whether the bank holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.subjects.is_empty()
    }

    /// Current extracted output for pair slot `slot`.
    pub fn suspects(&self, slot: usize) -> bool {
        self.machines[slot].suspects()
    }

    /// Estimated resident bytes of this bank's pair state (SoA vectors +
    /// the boxed dining participants behind them).
    pub fn resident_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        self.subjects.len()
            * (size_of::<ProcessId>()
                + size_of::<WitnessMachine>()
                + size_of::<[usize; 2]>() // the two fat pointers
                + size_of::<[DinerPhase; 2]>()
                + size_of::<[bool; 2]>()) // last_suspect, pump_pending
            + self.dx.iter().flatten().map(|p| size_of_val(&**p)).sum::<usize>()
    }

    fn invoke_dx(
        &mut self,
        slot: usize,
        i: usize,
        now: Time,
        fd: &dyn FdQuery,
        out: &mut Out,
        f: impl FnOnce(&mut dyn DiningParticipant, &mut DiningIo<'_>),
    ) {
        let mut io =
            DiningIo::with_scratch(self.watcher, now, fd, std::mem::take(&mut self.scratch));
        f(&mut *self.dx[slot][i], &mut io);
        let (watcher, subject) = (self.watcher, self.subjects[slot]);
        let mut fx = io.finish();
        for (to, msg) in fx.sends.drain(..) {
            debug_assert_eq!(to, subject);
            out.sends.push((to, RedMsg::Dx { watcher, subject, instance: i as u8, inner: msg }));
        }
        self.scratch = fx.sends;
        let ph = self.dx[slot][i].phase();
        emit_phase_chain(
            out,
            watcher,
            subject,
            Role::Witness,
            i as u8,
            self.last_phase[slot][i],
            ph,
        );
        self.last_phase[slot][i] = ph;
    }

    fn note_suspicion(&mut self, slot: usize, out: &mut Out) {
        let s = self.machines[slot].suspects();
        if s != self.last_suspect[slot] {
            self.last_suspect[slot] = s;
            out.obs.push(RedObs::Suspicion { subject: self.subjects[slot], suspected: s });
        }
    }

    /// Fires enabled witness actions (bounded) and applies their commands.
    fn pump(&mut self, slot: usize, now: Time, fd: &dyn FdQuery, out: &mut Out) {
        self.pump_pending[slot] = true;
        for _ in 0..PUMP_BUDGET {
            let phases = [self.dx[slot][0].phase(), self.dx[slot][1].phase()];
            let mut first = None;
            self.machines[slot].for_each_enabled(phases, |a| first = first.or(Some(a)));
            let Some(action) = first else {
                self.pump_pending[slot] = false;
                break;
            };
            match self.machines[slot].fire(action, phases) {
                WitnessCmd::BecomeHungry(i) => {
                    self.invoke_dx(slot, i, now, fd, out, |p, io| p.hungry(io));
                }
                WitnessCmd::Exit(i) => {
                    self.invoke_dx(slot, i, now, fd, out, |p, io| p.exit_eating(io));
                }
                WitnessCmd::SendAck(..) => unreachable!("acks are message-triggered"),
            }
            self.note_suspicion(slot, out);
        }
    }

    #[allow(clippy::too_many_arguments)] // slot-addressed bank entry point
    fn on_dx_message(
        &mut self,
        slot: usize,
        instance: u8,
        from: ProcessId,
        inner: DiningMsg,
        now: Time,
        fd: &dyn FdQuery,
        out: &mut Out,
    ) {
        let f =
            |p: &mut dyn DiningParticipant, io: &mut DiningIo<'_>| p.on_message(io, from, inner);
        self.invoke_dx(slot, instance as usize, now, fd, out, f);
        self.pump(slot, now, fd, out);
    }

    fn on_ping(
        &mut self,
        slot: usize,
        instance: u8,
        seq: u64,
        now: Time,
        fd: &dyn FdQuery,
        out: &mut Out,
    ) {
        let WitnessCmd::SendAck(i, seq) = self.machines[slot].on_ping(instance as usize, seq)
        else {
            unreachable!()
        };
        out.sends.push((
            self.subjects[slot],
            RedMsg::Ack {
                watcher: self.watcher,
                subject: self.subjects[slot],
                instance: i as u8,
                seq,
            },
        ));
        self.pump(slot, now, fd, out);
    }

    fn on_tick(&mut self, slot: usize, now: Time, fd: &dyn FdQuery, out: &mut Out) {
        let mut pump = self.pump_pending[slot];
        for i in 0..2 {
            if !self.skip_idle_ticks || self.last_phase[slot][i] == DinerPhase::Hungry {
                self.invoke_dx(slot, i, now, fd, out, |p, io| p.on_tick(io));
                pump = true;
            }
        }
        if pump {
            self.pump(slot, now, fd, out);
        }
    }
}

/// The monitored-side pair state of one node, struct-of-arrays like
/// [`WitnessBank`].
pub struct SubjectBank {
    subject: ProcessId,
    watchers: Vec<ProcessId>,
    machines: Vec<SubjectMachine>,
    dx: Vec<[Box<dyn DiningParticipant>; 2]>,
    last_phase: Vec<[DinerPhase; 2]>,
    /// As in [`WitnessBank`].
    pump_pending: Vec<bool>,
    /// As in [`WitnessBank`].
    skip_idle_ticks: bool,
    scratch: Vec<(ProcessId, DiningMsg)>,
}

impl std::fmt::Debug for SubjectBank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubjectBank")
            .field("subject", &self.subject)
            .field("pairs", &self.watchers.len())
            .finish()
    }
}

impl SubjectBank {
    fn new(subject: ProcessId) -> Self {
        SubjectBank {
            subject,
            watchers: Vec::new(),
            machines: Vec::new(),
            dx: Vec::new(),
            last_phase: Vec::new(),
            pump_pending: Vec::new(),
            skip_idle_ticks: true,
            scratch: Vec::new(),
        }
    }

    fn push(&mut self, watcher: ProcessId, strict_seq: bool, factory: &DiningFactory<'_>) {
        let subject = self.subject;
        let mk = |instance: u8| {
            factory(DxEndpoint { me: subject, peer: watcher, watcher, subject, instance })
        };
        self.watchers.push(watcher);
        self.machines.push(SubjectMachine::new(strict_seq));
        let dx = [mk(0), mk(1)];
        self.skip_idle_ticks &= dx.iter().all(|p| p.ticks_only_while_hungry());
        self.dx.push(dx);
        self.last_phase.push([DinerPhase::Thinking; 2]);
        self.pump_pending.push(true);
    }

    /// Number of pairs in the bank.
    pub fn len(&self) -> usize {
        self.watchers.len()
    }

    /// Whether the bank holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.watchers.is_empty()
    }

    /// Estimated resident bytes of this bank's pair state.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        self.watchers.len()
            * (size_of::<ProcessId>()
                + size_of::<SubjectMachine>()
                + size_of::<[usize; 2]>()
                + size_of::<[DinerPhase; 2]>()
                + size_of::<bool>())
            + self.dx.iter().flatten().map(|p| size_of_val(&**p)).sum::<usize>()
    }

    fn invoke_dx(
        &mut self,
        slot: usize,
        i: usize,
        now: Time,
        fd: &dyn FdQuery,
        out: &mut Out,
        f: impl FnOnce(&mut dyn DiningParticipant, &mut DiningIo<'_>),
    ) {
        let mut io =
            DiningIo::with_scratch(self.subject, now, fd, std::mem::take(&mut self.scratch));
        f(&mut *self.dx[slot][i], &mut io);
        let (watcher, subject) = (self.watchers[slot], self.subject);
        let mut fx = io.finish();
        for (to, msg) in fx.sends.drain(..) {
            debug_assert_eq!(to, watcher);
            out.sends.push((to, RedMsg::Dx { watcher, subject, instance: i as u8, inner: msg }));
        }
        self.scratch = fx.sends;
        let ph = self.dx[slot][i].phase();
        emit_phase_chain(
            out,
            watcher,
            subject,
            Role::Subject,
            i as u8,
            self.last_phase[slot][i],
            ph,
        );
        self.last_phase[slot][i] = ph;
    }

    fn pump(&mut self, slot: usize, now: Time, fd: &dyn FdQuery, out: &mut Out) {
        self.pump_pending[slot] = true;
        for _ in 0..PUMP_BUDGET {
            let phases = [self.dx[slot][0].phase(), self.dx[slot][1].phase()];
            // Prefer pings over hunger so a lone eater's ping is never
            // starved by the other thread's bookkeeping.
            let (mut ping, mut first) = (None, None);
            self.machines[slot].for_each_enabled(phases, |a| {
                if matches!(a, SubjectAction::Ping(_)) {
                    ping = ping.or(Some(a));
                }
                first = first.or(Some(a));
            });
            let Some(action) = ping.or(first) else {
                self.pump_pending[slot] = false;
                break;
            };
            match self.machines[slot].fire(action, phases) {
                SubjectCmd::BecomeHungry(i) => {
                    self.invoke_dx(slot, i, now, fd, out, |p, io| p.hungry(io));
                }
                SubjectCmd::Exit(i) => {
                    self.invoke_dx(slot, i, now, fd, out, |p, io| p.exit_eating(io));
                }
                SubjectCmd::SendPing(i, seq) => {
                    out.sends.push((
                        self.watchers[slot],
                        RedMsg::Ping {
                            watcher: self.watchers[slot],
                            subject: self.subject,
                            instance: i as u8,
                            seq,
                        },
                    ));
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // slot-addressed bank entry point
    fn on_dx_message(
        &mut self,
        slot: usize,
        instance: u8,
        from: ProcessId,
        inner: DiningMsg,
        now: Time,
        fd: &dyn FdQuery,
        out: &mut Out,
    ) {
        let f =
            |p: &mut dyn DiningParticipant, io: &mut DiningIo<'_>| p.on_message(io, from, inner);
        self.invoke_dx(slot, instance as usize, now, fd, out, f);
        self.pump(slot, now, fd, out);
    }

    fn on_ack(
        &mut self,
        slot: usize,
        instance: u8,
        seq: u64,
        now: Time,
        fd: &dyn FdQuery,
        out: &mut Out,
    ) {
        self.machines[slot].on_ack(instance as usize, seq);
        self.pump(slot, now, fd, out);
    }

    fn on_tick(&mut self, slot: usize, now: Time, fd: &dyn FdQuery, out: &mut Out) {
        let mut pump = self.pump_pending[slot];
        for i in 0..2 {
            if !self.skip_idle_ticks || self.last_phase[slot][i] == DinerPhase::Hungry {
                self.invoke_dx(slot, i, now, fd, out, |p, io| p.on_tick(io));
                pump = true;
            }
        }
        if pump {
            self.pump(slot, now, fd, out);
        }
    }
}

const TICK: TimerId = TimerId(0);

/// Sentinel for "this node hosts no component for that peer".
const NO_COMPONENT: u32 = u32::MAX;

/// One physical process of the reduction: all of its witness and subject
/// pair state (struct-of-arrays banks) plus message routing.
///
/// Routing is O(1) per message: two peer-indexed tables map a message's
/// pair tag straight to the owning bank slot, so a node watching (or being
/// watched by) hundreds of peers never scans its pair lists on the hot
/// path.
pub struct ReductionNode {
    me: ProcessId,
    witnesses: WitnessBank,
    subjects: SubjectBank,
    /// `witness_by_subject[q]` = slot in `witnesses` of the pair watching
    /// `q`, or [`NO_COMPONENT`].
    witness_by_subject: Vec<u32>,
    /// `subject_by_watcher[w]` = slot in `subjects` of the pair monitored
    /// by `w`, or [`NO_COMPONENT`].
    subject_by_watcher: Vec<u32>,
    fd: Arc<dyn FdQuery + Send + Sync>,
    tick_every: u64,
    /// Pooled effect buffers for the [`Node`] handlers (see [`Out`]).
    out_buf: Out,
}

impl std::fmt::Debug for ReductionNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReductionNode")
            .field("me", &self.me)
            .field("witnesses", &self.witnesses.len())
            .field("subjects", &self.subjects.len())
            .finish()
    }
}

impl ReductionNode {
    /// Builds the node for `me` given the full list of ordered monitoring
    /// pairs, the black-box dining factory, and the oracle handle consumed by
    /// the dining implementations (NOT by the reduction itself — the
    /// reduction is oracle-free, that is the whole point).
    ///
    /// This scans `pairs` once per call; when constructing many nodes over
    /// one shared pair list, pre-group it and use
    /// [`ReductionNode::from_groups`] instead, which turns the O(n · P)
    /// total construction scan into O(P).
    pub fn new(
        me: ProcessId,
        pairs: &[(ProcessId, ProcessId)],
        factory: &DiningFactory<'_>,
        fd: Arc<dyn FdQuery + Send + Sync>,
        strict_seq: bool,
    ) -> Self {
        let watch: Vec<ProcessId> =
            pairs.iter().filter(|&&(w, s)| w == me && s != me).map(|&(_, s)| s).collect();
        let watched_by: Vec<ProcessId> =
            pairs.iter().filter(|&&(w, s)| s == me && w != me).map(|&(w, _)| w).collect();
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
        fd: Arc<dyn FdQuery + Send + Sync>,
        strict_seq: bool,
    ) -> Self {
        let mut witnesses = WitnessBank::new(me);
        for &s in watch {
            debug_assert_ne!(s, me, "self-pairs must be pre-filtered");
            witnesses.push(s, factory);
        }
        let mut subjects = SubjectBank::new(me);
        for &w in watched_by {
            debug_assert_ne!(w, me, "self-pairs must be pre-filtered");
            subjects.push(w, strict_seq, factory);
        }
        // Peer-indexed routing tables, sized by the largest process id the
        // grouped lists name (plus `me` itself).
        let table_len = watch
            .iter()
            .chain(watched_by.iter())
            .map(|p| p.index())
            .chain(std::iter::once(me.index()))
            .max()
            .unwrap_or(0)
            + 1;
        let mut witness_by_subject = vec![NO_COMPONENT; table_len];
        for (i, s) in witnesses.subjects.iter().enumerate() {
            witness_by_subject[s.index()] = i as u32;
        }
        let mut subject_by_watcher = vec![NO_COMPONENT; table_len];
        for (i, w) in subjects.watchers.iter().enumerate() {
            subject_by_watcher[w.index()] = i as u32;
        }
        ReductionNode {
            me,
            witnesses,
            subjects,
            witness_by_subject,
            subject_by_watcher,
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
    /// [`ReductionNode::set_tick_every`]).
    pub fn tick_every(&self) -> u64 {
        self.tick_every
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
        match self.witness_by_subject.get(q.index()) {
            Some(&i) if i != NO_COMPONENT => self.witnesses.suspects(i as usize),
            _ => true,
        }
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

    fn witness_slot(&self, subject: ProcessId) -> usize {
        let i = self.witness_by_subject.get(subject.index()).copied().unwrap_or(NO_COMPONENT);
        assert!(i != NO_COMPONENT, "message for unknown witness pair");
        i as usize
    }

    fn subject_slot(&self, watcher: ProcessId) -> usize {
        let i = self.subject_by_watcher.get(watcher.index()).copied().unwrap_or(NO_COMPONENT);
        assert!(i != NO_COMPONENT, "message for unknown subject pair");
        i as usize
    }

    /// Context-free start step (for composition with other layers),
    /// appending effects to a caller-pooled buffer. The caller is
    /// responsible for scheduling the recurring tick.
    pub fn handle_start_into(&mut self, now: Time, out: &mut Out) {
        let fd = Arc::clone(&self.fd);
        for slot in 0..self.witnesses.len() {
            self.witnesses.pump(slot, now, &*fd, out);
        }
        for slot in 0..self.subjects.len() {
            self.subjects.pump(slot, now, &*fd, out);
        }
    }

    /// Context-free message step, appending effects to a caller-pooled
    /// buffer.
    pub fn handle_message_into(&mut self, from: ProcessId, msg: RedMsg, now: Time, out: &mut Out) {
        let fd = Arc::clone(&self.fd);
        match msg {
            RedMsg::Dx { watcher, subject, instance, inner } => {
                if watcher == self.me {
                    let slot = self.witness_slot(subject);
                    self.witnesses.on_dx_message(slot, instance, from, inner, now, &*fd, out);
                } else {
                    debug_assert_eq!(subject, self.me);
                    let slot = self.subject_slot(watcher);
                    self.subjects.on_dx_message(slot, instance, from, inner, now, &*fd, out);
                }
            }
            RedMsg::Ping { watcher, subject, instance, seq } => {
                debug_assert_eq!(watcher, self.me);
                let slot = self.witness_slot(subject);
                self.witnesses.on_ping(slot, instance, seq, now, &*fd, out);
            }
            RedMsg::Ack { watcher, subject, instance, seq } => {
                debug_assert_eq!(subject, self.me);
                let slot = self.subject_slot(watcher);
                self.subjects.on_ack(slot, instance, seq, now, &*fd, out);
            }
        }
    }

    /// Context-free tick step, appending effects to a caller-pooled buffer.
    pub fn handle_tick_into(&mut self, now: Time, out: &mut Out) {
        let fd = Arc::clone(&self.fd);
        for slot in 0..self.witnesses.len() {
            self.witnesses.on_tick(slot, now, &*fd, out);
        }
        for slot in 0..self.subjects.len() {
            self.subjects.on_tick(slot, now, &*fd, out);
        }
    }

    /// Convenience wrapper over [`ReductionNode::handle_start_into`]
    /// allocating a fresh buffer.
    pub fn handle_start(&mut self, now: Time) -> Out {
        let mut out = Out::default();
        self.handle_start_into(now, &mut out);
        out
    }

    /// Convenience wrapper over [`ReductionNode::handle_message_into`]
    /// allocating a fresh buffer.
    pub fn handle_message(&mut self, from: ProcessId, msg: RedMsg, now: Time) -> Out {
        let mut out = Out::default();
        self.handle_message_into(from, msg, now, &mut out);
        out
    }

    /// Convenience wrapper over [`ReductionNode::handle_tick_into`]
    /// allocating a fresh buffer.
    pub fn handle_tick(&mut self, now: Time) -> Out {
        let mut out = Out::default();
        self.handle_tick_into(now, &mut out);
        out
    }

    /// Drains a pooled buffer into the step context.
    fn flush(out: &mut Out, ctx: &mut Context<'_, RedMsg, RedObs>) {
        for (to, msg) in out.sends.drain(..) {
            ctx.send(to, msg);
        }
        for obs in out.obs.drain(..) {
            ctx.observe(obs);
        }
    }
}

impl Node for ReductionNode {
    type Msg = RedMsg;
    type Obs = RedObs;

    fn on_start(&mut self, ctx: &mut Context<'_, RedMsg, RedObs>) {
        let mut out = std::mem::take(&mut self.out_buf);
        out.clear();
        self.handle_start_into(ctx.now(), &mut out);
        Self::flush(&mut out, ctx);
        self.out_buf = out;
        ctx.set_timer(self.tick_every, TICK);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, RedMsg, RedObs>, from: ProcessId, msg: RedMsg) {
        let mut out = std::mem::take(&mut self.out_buf);
        out.clear();
        self.handle_message_into(from, msg, ctx.now(), &mut out);
        Self::flush(&mut out, ctx);
        self.out_buf = out;
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, RedMsg, RedObs>, timer: TimerId) {
        debug_assert_eq!(timer, TICK);
        let mut out = std::mem::take(&mut self.out_buf);
        out.clear();
        self.handle_tick_into(ctx.now(), &mut out);
        Self::flush(&mut out, ctx);
        self.out_buf = out;
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
        let w5 = node.witness_slot(ProcessId(5));
        let w0 = node.witness_slot(ProcessId(0));
        assert_eq!(node.witnesses.subjects[w5], ProcessId(5));
        assert_eq!(node.witnesses.subjects[w0], ProcessId(0));
        let s4 = node.subject_slot(ProcessId(4));
        let s6 = node.subject_slot(ProcessId(6));
        assert_eq!(node.subjects.watchers[s4], ProcessId(4));
        assert_eq!(node.subjects.watchers[s6], ProcessId(6));
        // Every unwatched peer (including out-of-range ids) reads as
        // pessimistically suspected.
        for q in [1u32, 3, 4, 6, 7, 99] {
            assert!(node.suspects(ProcessId(q)));
        }
    }

    #[test]
    #[should_panic(expected = "unknown witness pair")]
    fn routing_panics_for_unknown_witness_pair() {
        let node = node_for(0, &[(ProcessId(0), ProcessId(1))]);
        node.witness_slot(ProcessId(3));
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
