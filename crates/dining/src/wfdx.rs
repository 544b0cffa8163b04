//! `WfDxDining` — wait-free dining under eventual weak exclusion, driven by a
//! ◇P module, in the style of the paper's reference \[12\] (Pike & Song).
//!
//! The algorithm combines two mechanisms:
//!
//! * **Fork/timestamp priority** for liveness among live diners: one fork and
//!   one request token per edge; a hungry diner stamps its session with a
//!   Lamport timestamp and spends the token to request missing forks. A
//!   holder yields a requested fork unless it is eating or is itself hungry
//!   with an *older* session. Session timestamps `(clock, id)` are totally
//!   ordered and strictly increase per diner, so the waits-for relation
//!   always follows the timestamp order — acyclic by construction — and the
//!   globally oldest hungry diner is never refused: deadlock-free and
//!   starvation-free.
//!
//!   (An earlier revision used Chandy–Misra clean/dirty priority here;
//!   property testing found that suspicion-eats — eating without holding all
//!   forks — break the hygienic acyclicity argument and can deadlock a cycle
//!   of hungry clean-fork holders. Timestamp priority is immune: eating
//!   never reorders outstanding sessions.)
//!
//! * **Suspicion override** for crash tolerance: a hungry diner eats when,
//!   per edge, it holds the fork *or* its local ◇P module suspects the
//!   neighbor. A crashed fork-holder is eventually permanently suspected
//!   (strong completeness), so wait-freedom survives crashes; once ◇P stops
//!   making mistakes, a suspected neighbor is really crashed and two *live*
//!   neighbors can only eat via the single shared fork — eventual weak
//!   exclusion. Wrongful suspicions before convergence cause exactly the
//!   finitely many scheduling mistakes ◇WX permits.
//!
//! Fork state is never fabricated on a suspicion-eat: if the neighbor was
//! wrongly suspected nothing is corrupted; if it really crashed the fork is
//! stranded at the corpse while suspicion satisfies the edge forever. The
//! fork-uniqueness invariant (at most one endpoint holds each edge's fork)
//! holds in all runs.
//!
//! The same machinery under a trust-gated suspicion policy
//! ([`WfDxDining::trust_gated`]) is the perpetual-exclusion (FTME) service
//! of the paper's Section 9; [`crate::fair`] wraps it in a fairness gate.

use dinefd_sim::{codec, ProcessId};

use crate::participant::{DiningIo, DiningMsg, DiningParticipant};
use crate::state::DinerPhase;

/// A session timestamp: Lamport clock value plus diner id as tie-breaker.
/// Total order; smaller = older = higher priority.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ts {
    /// Lamport clock at session start.
    pub clock: u64,
    /// The requesting diner (tie-breaker).
    pub id: u32,
}

/// Messages of the ◇P-based algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WxMsg {
    /// The request token, stamped with the requester's session timestamp.
    Request(Ts),
    /// The fork. Carries the sender's Lamport clock.
    Fork {
        /// Sender's clock at yield time (Lamport maintenance).
        clock: u64,
    },
    /// The bare token, returned when fork and token would otherwise rest
    /// idle at the same endpoint. An endpoint holding both (with no pending
    /// request) leaves its peer unable to ever signal hunger — the capture
    /// state behind several starvations found by property testing. Sending
    /// the token home restores the invariant "whoever lacks the fork can
    /// request it".
    TokenReturn {
        /// Sender's clock (Lamport maintenance).
        clock: u64,
    },
}

impl WxMsg {
    /// Packs a message on a one-peer wire, whose sender the reader knows:
    /// one byte holding `head` (up to six bits the caller places there, such
    /// as which instance and direction the message travels) above the
    /// two-bit kind, then the clock. A `Request` carries its sender's own
    /// session stamp, so its id is not written; [`WxMsg::unpack_pair`]
    /// takes it from the sender.
    pub fn pack_pair_into(&self, head: u8, out: &mut Vec<u8>) {
        debug_assert!(head < 64, "head {head} does not fit six bits");
        let (kind, clock) = match *self {
            WxMsg::Request(ts) => (0, ts.clock),
            WxMsg::Fork { clock } => (1, clock),
            WxMsg::TokenReturn { clock } => (2, clock),
        };
        codec::put_u8(out, head << 2 | kind);
        codec::put_varint(out, clock);
    }

    /// Inverse of [`WxMsg::pack_pair_into`] for a message `sender` sent:
    /// the caller's head and the message, or `None` on a malformed buffer.
    pub fn unpack_pair(sender: ProcessId, input: &mut &[u8]) -> Option<(u8, WxMsg)> {
        let b = codec::take_u8(input)?;
        let clock = codec::take_varint(input)?;
        let msg = match b & 0b11 {
            0 => WxMsg::Request(Ts { clock, id: sender.0 }),
            1 => WxMsg::Fork { clock },
            2 => WxMsg::TokenReturn { clock },
            _ => return None,
        };
        Some((b >> 2, msg))
    }
}

/// Two-bit [`DinerPhase`] codes for the packed encodings below.
fn phase_bits(p: DinerPhase) -> u8 {
    match p {
        DinerPhase::Thinking => 0,
        DinerPhase::Hungry => 1,
        DinerPhase::Eating => 2,
        DinerPhase::Exiting => 3,
    }
}

fn phase_from_bits(b: u8) -> DinerPhase {
    match b & 0b11 {
        0 => DinerPhase::Thinking,
        1 => DinerPhase::Hungry,
        2 => DinerPhase::Eating,
        _ => DinerPhase::Exiting,
    }
}

/// How suspicion satisfies an edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum SuspicionPolicy {
    /// `suspected(q)` alone satisfies the edge — correct for ◇P (mistakes
    /// cause only finitely many exclusion violations).
    Direct,
    /// Suspicion counts only after `q` has been trusted at least once —
    /// correct for a trusting oracle T, whose post-trust suspicions imply a
    /// real crash (perpetual exclusion, used by FTME).
    TrustGated,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Edge {
    peer: ProcessId,
    has_fork: bool,
    has_token: bool,
    /// Whether this diner has an unanswered Request out on this edge for its
    /// current session (prevents duplicate same-stamp requests, which can go
    /// stale and mis-credit the peer).
    requested: bool,
    /// Timestamp of the peer's outstanding (deferred) request, if any.
    pending: Option<Ts>,
    ever_trusted: bool,
}

impl Edge {
    fn new(me: ProcessId, peer: ProcessId) -> Self {
        debug_assert_ne!(peer, me);
        let holds_fork = me < peer;
        Edge {
            peer,
            has_fork: holds_fork,
            has_token: !holds_fork,
            requested: false,
            pending: None,
            ever_trusted: false,
        }
    }
}

/// An endpoint's edges, read as a slice. Every reduction endpoint and every
/// explorer endpoint has exactly one peer, so that edge is held inline and
/// cloning the endpoint allocates nothing; two or more neighbours (or none)
/// live in a `Vec`. One edge is always `One`, so derived equality and
/// hashing see one representation per edge set.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Edges {
    One(Edge),
    Many(Vec<Edge>),
}

impl From<Vec<Edge>> for Edges {
    fn from(edges: Vec<Edge>) -> Self {
        match <[Edge; 1]>::try_from(edges) {
            Ok([e]) => Edges::One(e),
            Err(edges) => Edges::Many(edges),
        }
    }
}

impl std::ops::Deref for Edges {
    type Target = [Edge];

    fn deref(&self) -> &[Edge] {
        match self {
            Edges::One(e) => std::slice::from_ref(e),
            Edges::Many(v) => v,
        }
    }
}

impl std::ops::DerefMut for Edges {
    fn deref_mut(&mut self) -> &mut [Edge] {
        match self {
            Edges::One(e) => std::slice::from_mut(e),
            Edges::Many(v) => v,
        }
    }
}

/// ◇P-based wait-free ◇WX dining (the paper's reference \[12\], in spirit)
/// or, built by [`WfDxDining::trust_gated`], the perpetual-WX (FTME) service.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct WfDxDining {
    me: ProcessId,
    phase: DinerPhase,
    edges: Edges,
    policy: SuspicionPolicy,
    /// Lamport clock (bumped on session start and on message receipt).
    clock: u64,
    /// Timestamp of the current hungry/eating session.
    session: Ts,
    /// Count of eating sessions entered while lacking at least one fork
    /// (i.e. justified by suspicion).
    suspicion_eats: u64,
    /// Fairness gate: when `false`, the diner refrains from starting to eat
    /// even if the resource condition holds (used by [`crate::fair`] to
    /// bound overtaking). Resource state still evolves normally.
    pub(crate) gate_open: bool,
}

impl WfDxDining {
    /// Endpoint for `me` with the given instance neighbors.
    pub fn new(me: ProcessId, neighbors: &[ProcessId]) -> Self {
        Self::with_policy(me, neighbors, SuspicionPolicy::Direct)
    }

    /// Endpoint of wait-free dining under **perpetual** weak exclusion (WX),
    /// the Fault-Tolerant Mutual Exclusion setting of Delporte-Gallet et al.
    /// (the paper's reference \[4\] and its Section 9).
    ///
    /// Same fork machinery, but suspicion satisfies an edge only under the
    /// **trust-gated** policy: a suspicion of `q` counts only after `q` has
    /// been observed trusted at least once. With a trusting oracle T, a
    /// trust→suspect transition implies `q` really crashed, so a
    /// suspicion-eat can never violate exclusion against a live neighbor —
    /// exclusion is *perpetual*, not merely eventual.
    ///
    /// Two model notes, both visible in experiment E5:
    ///
    /// * The paper (and \[4\]) show **T alone is insufficient** for wait-free
    ///   WX: if `q` crashes before the oracle ever trusted it, the gate never
    ///   opens and a neighbor waiting on `q`'s fork starves. The sufficient
    ///   oracle is the composition T+S. Experiments therefore drive this
    ///   service either with an injected *perfect* oracle (P implies T+S, and
    ///   "suspected ⇒ crashed" holds from time zero) or with an injected T
    ///   whose initial distrust ends before any crash. What Section 9
    ///   actually claims — and what E5 checks — is about the *output* of the
    ///   reduction applied to this black box: it satisfies the trusting
    ///   accuracy of T.
    /// * Run on a clique, this service is exactly fault-tolerant mutual
    ///   exclusion.
    pub fn trust_gated(me: ProcessId, neighbors: &[ProcessId]) -> Self {
        Self::with_policy(me, neighbors, SuspicionPolicy::TrustGated)
    }

    fn with_policy(me: ProcessId, neighbors: &[ProcessId], policy: SuspicionPolicy) -> Self {
        let edges = neighbors.iter().map(|&peer| Edge::new(me, peer)).collect::<Vec<_>>();
        WfDxDining {
            me,
            phase: DinerPhase::Thinking,
            edges: Edges::from(edges),
            policy,
            clock: 0,
            session: Ts { clock: 0, id: me.0 },
            suspicion_eats: 0,
            gate_open: true,
        }
    }

    /// Whether this endpoint holds the fork shared with `peer`.
    pub fn holds_fork(&self, peer: ProcessId) -> bool {
        self.edges.iter().any(|e| e.peer == peer && e.has_fork)
    }

    /// Whether this endpoint holds the request token shared with `peer`.
    pub fn holds_token(&self, peer: ProcessId) -> bool {
        self.edges.iter().any(|e| e.peer == peer && e.has_token)
    }

    /// The request `peer` is waiting on this endpoint to serve, if any.
    pub fn pending_request(&self, peer: ProcessId) -> Option<Ts> {
        self.edges.iter().find(|e| e.peer == peer)?.pending
    }

    /// The diner this endpoint belongs to.
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// How many eating sessions were justified by suspicion rather than a
    /// full fork set.
    pub fn suspicion_eats(&self) -> u64 {
        self.suspicion_eats
    }

    /// The timestamp of the current hungry/eating session.
    pub fn session(&self) -> Ts {
        self.session
    }

    /// Packs a one-peer endpoint for a reader that knows its position, so
    /// that `me`, the edge count and the peer, and the ids of the session
    /// stamp (always `me`) and of a pending request (always the peer) go
    /// unwritten: one flag byte (phase, policy, gate, and the edge's fork,
    /// token, requested and trusted bits), the clock, the session clock
    /// shifted above a has-pending bit, the suspicion-eat count and, when
    /// present, the pending request's clock. [`WfDxDining::unpack_pair`] is
    /// the exact inverse.
    pub fn pack_pair_into(&self, out: &mut Vec<u8>) {
        let e = &self.edges[0];
        debug_assert!(
            self.edges.len() == 1
                && self.session.id == self.me.0
                && e.pending.is_none_or(|ts| ts.id == e.peer.0),
            "not a one-peer endpoint whose stamps its position fixes: {self:?}"
        );
        debug_assert!(self.session.clock <= u64::MAX >> 1, "session clock too large to tag");
        let policy = matches!(self.policy, SuspicionPolicy::TrustGated) as u8;
        codec::put_u8(
            out,
            phase_bits(self.phase)
                | policy << 2
                | (self.gate_open as u8) << 3
                | (e.has_fork as u8) << 4
                | (e.has_token as u8) << 5
                | (e.requested as u8) << 6
                | (e.ever_trusted as u8) << 7,
        );
        codec::put_varint(out, self.clock);
        codec::put_varint(out, self.session.clock << 1 | e.pending.is_some() as u64);
        codec::put_varint(out, self.suspicion_eats);
        if let Some(ts) = e.pending {
            codec::put_varint(out, ts.clock);
        }
    }

    /// Inverse of [`WfDxDining::pack_pair_into`] for the endpoint of `me`
    /// whose one edge leads to `peer`; `None` on a malformed buffer.
    pub fn unpack_pair(me: ProcessId, peer: ProcessId, input: &mut &[u8]) -> Option<Self> {
        let b = codec::take_u8(input)?;
        let clock = codec::take_varint(input)?;
        let session = codec::take_varint(input)?;
        let suspicion_eats = codec::take_varint(input)?;
        let pending = if session & 1 != 0 {
            Some(Ts { clock: codec::take_varint(input)?, id: peer.0 })
        } else {
            None
        };
        let policy =
            if b & 0b100 != 0 { SuspicionPolicy::TrustGated } else { SuspicionPolicy::Direct };
        Some(WfDxDining {
            me,
            phase: phase_from_bits(b),
            edges: Edges::One(Edge {
                peer,
                has_fork: b & 0b1_0000 != 0,
                has_token: b & 0b10_0000 != 0,
                requested: b & 0b100_0000 != 0,
                pending,
                ever_trusted: b & 0b1000_0000 != 0,
            }),
            policy,
            clock,
            session: Ts { clock: session >> 1, id: me.0 },
            suspicion_eats,
            gate_open: b & 0b1000 != 0,
        })
    }

    fn observe_clock(&mut self, c: u64) {
        self.clock = self.clock.max(c) + 1;
    }

    /// Whether the oracle's answer about `e.peer` stands in for `e`'s fork.
    fn suspicion_satisfies(policy: SuspicionPolicy, e: &Edge, suspected: bool) -> bool {
        match policy {
            SuspicionPolicy::Direct => suspected,
            SuspicionPolicy::TrustGated => suspected && e.ever_trusted,
        }
    }

    fn refresh_trust(&mut self, io: &DiningIo<'_>) {
        for e in self.edges.iter_mut() {
            if !io.suspected(e.peer) {
                e.ever_trusted = true;
            }
        }
    }

    /// Whether this diner currently outranks a request stamped `ts`.
    fn outranks(&self, ts: Ts) -> bool {
        self.phase == DinerPhase::Hungry && self.session < ts
    }

    /// Yields the fork of `edges[k]` to its pending requester if the yield
    /// rules allow it right now; re-requests immediately when hungry.
    fn maybe_yield(&mut self, k: usize, io: &mut DiningIo<'_>) {
        let e = &self.edges[k];
        let Some(ts) = e.pending else { return };
        if !e.has_fork || self.phase == DinerPhase::Eating || self.outranks(ts) {
            return;
        }
        // Note: we may no longer hold the token here — `hungry()` is allowed
        // to re-spend a parked token for its own request while the parked
        // request stays pending. The fork settles the debt either way.
        let peer = e.peer;
        let clock = self.clock;
        let e = &mut self.edges[k];
        e.has_fork = false;
        e.pending = None;
        io.send(peer, DiningMsg::WfDx(WxMsg::Fork { clock }));
        if self.phase == DinerPhase::Hungry && self.edges[k].has_token && !self.edges[k].requested {
            let session = self.session;
            let e = &mut self.edges[k];
            e.has_token = false;
            e.requested = true;
            io.send(peer, DiningMsg::WfDx(WxMsg::Request(session)));
        }
    }

    /// Restores the "fork here ⇒ token there" resting invariant: a
    /// non-competing endpoint holding both fork and token with nothing
    /// pending sends the token home so the peer can request again.
    fn settle(&mut self, k: usize, io: &mut DiningIo<'_>) {
        let e = &self.edges[k];
        if (self.phase == DinerPhase::Thinking || self.phase == DinerPhase::Exiting)
            && e.has_fork
            && e.has_token
            && e.pending.is_none()
        {
            let peer = e.peer;
            let clock = self.clock;
            self.edges[k].has_token = false;
            io.send(peer, DiningMsg::WfDx(WxMsg::TokenReturn { clock }));
        }
    }

    fn try_eat(&mut self, io: &mut DiningIo<'_>) {
        if self.phase != DinerPhase::Hungry || !self.gate_open {
            return;
        }
        let satisfied = |e: &Edge| {
            e.has_fork || Self::suspicion_satisfies(self.policy, e, io.suspected(e.peer))
        };
        if self.edges.iter().all(satisfied) {
            self.start_eating();
        }
    }

    fn start_eating(&mut self) {
        if self.edges.iter().any(|e| !e.has_fork) {
            self.suspicion_eats += 1;
        }
        self.phase = DinerPhase::Eating;
    }
}

impl DiningParticipant for WfDxDining {
    fn hungry(&mut self, io: &mut DiningIo<'_>) {
        assert_eq!(self.phase, DinerPhase::Thinking, "hungry() while {}", self.phase);
        self.refresh_trust(io);
        self.phase = DinerPhase::Hungry;
        self.clock += 1;
        self.session = Ts { clock: self.clock, id: self.me.0 };
        let session = self.session;
        for e in self.edges.iter_mut() {
            e.requested = false;
            if !e.has_fork && e.has_token {
                e.has_token = false;
                e.requested = true;
                io.send(e.peer, DiningMsg::WfDx(WxMsg::Request(session)));
            }
        }
        self.try_eat(io);
    }

    fn exit_eating(&mut self, io: &mut DiningIo<'_>) {
        assert_eq!(self.phase, DinerPhase::Eating, "exit_eating() while {}", self.phase);
        self.phase = DinerPhase::Exiting;
        self.phase = DinerPhase::Thinking;
        // Serve the requests deferred during the session, then send home any
        // token resting idly next to a fork.
        for k in 0..self.edges.len() {
            self.maybe_yield(k, io);
        }
        for k in 0..self.edges.len() {
            self.settle(k, io);
        }
    }

    fn on_message(&mut self, io: &mut DiningIo<'_>, from: ProcessId, msg: DiningMsg) {
        let DiningMsg::WfDx(msg) = msg else {
            debug_assert!(false, "foreign message {msg:?}");
            return;
        };
        let Some(k) = self.edges.iter().position(|e| e.peer == from) else {
            debug_assert!(false, "message from non-neighbor {from:?}");
            return;
        };
        self.refresh_trust(io);
        match msg {
            WxMsg::Request(ts) => {
                self.observe_clock(ts.clock);
                let phase = self.phase;
                let session = self.session;
                let e = &mut self.edges[k];
                debug_assert!(!e.has_token, "duplicate request token on one edge");
                // A leftover pending can exist if the peer's previous session
                // ended by suspicion-eating before we served it (the newer
                // stamp supersedes it), and an equal stamp can legitimately
                // arrive twice when a stale service let the peer yield and
                // re-request within one session.
                debug_assert!(
                    e.pending.is_none_or(|old| old <= ts),
                    "request stamps regress: pending={:?} incoming={:?} me={:?} from={from:?}",
                    e.pending,
                    ts,
                    self.me
                );
                e.has_token = true;
                // Record the request and serve it when the rules allow —
                // immediately if we hold the fork and are not entitled to
                // keep it, or later (fork arrival / our exit) otherwise.
                e.pending = Some(ts);
                if !e.has_fork && phase == DinerPhase::Hungry && !e.requested {
                    // Hungry and fork-less with no request of our own in
                    // flight (our session began while the token was away):
                    // spend the token now or we would wait forever. The
                    // `requested` flag caps this at one Request per session —
                    // unconditional re-spending duplicates the same stamp,
                    // and a stale duplicate can hand the peer both fork and
                    // token permanently (found by property testing).
                    e.has_token = false;
                    e.requested = true;
                    io.send(from, DiningMsg::WfDx(WxMsg::Request(session)));
                }
                self.maybe_yield(k, io);
            }
            WxMsg::TokenReturn { clock } => {
                self.observe_clock(clock);
                debug_assert!(!self.edges[k].has_token, "duplicate token on one edge");
                self.edges[k].has_token = true;
                let e = &mut self.edges[k];
                if !e.has_fork && self.phase == DinerPhase::Hungry && !e.requested {
                    // The returned token lets our stranded hunger signal.
                    e.has_token = false;
                    e.requested = true;
                    let session = self.session;
                    io.send(from, DiningMsg::WfDx(WxMsg::Request(session)));
                } else {
                    self.settle(k, io);
                }
            }
            WxMsg::Fork { clock } => {
                self.observe_clock(clock);
                debug_assert!(!self.edges[k].has_fork, "duplicate fork on one edge");
                self.edges[k].has_fork = true;
                self.edges[k].requested = false;
                // An outranking (or any, if we are not hungry) parked request
                // is served before we consider eating: oldest session first.
                self.maybe_yield(k, io);
                self.try_eat(io);
                self.settle(k, io);
            }
        }
    }

    /// The tick-time `refresh_trust` + `try_eat`, asking the oracle once per
    /// edge and using the answer for both.
    ///
    /// Under `SuspicionPolicy::Direct` a diner that is not hungry returns
    /// before touching the oracle: it cannot start eating, and no transition
    /// of that policy reads the `ever_trusted` bits the queries would refresh
    /// (they do show in `==` and the packed state, so two endpoints compare
    /// equal only if ticked alike — the explorer ticks hungry endpoints only).
    fn on_tick(&mut self, io: &mut DiningIo<'_>) {
        let hungry = self.phase == DinerPhase::Hungry;
        if !hungry && self.policy == SuspicionPolicy::Direct {
            return;
        }
        let mut satisfied = true;
        for e in self.edges.iter_mut() {
            let suspected = io.suspected(e.peer);
            e.ever_trusted |= !suspected;
            satisfied &= e.has_fork || Self::suspicion_satisfies(self.policy, e, suspected);
        }
        if hungry && self.gate_open && satisfied {
            self.start_eating();
        }
    }

    // Under `SuspicionPolicy::Direct`, `on_tick` returns at once unless
    // hungry, and a hungry diner whose gate is open lacks a fork after every
    // call (one that holds them all eats inside the call that brought the
    // last), so only a suspicion can let a tick start a meal. The trust bits
    // the tick refreshes are read by `TrustGated` only, which refreshes them
    // in every phase and promises nothing.
    fn ticks_only_while_suspecting(&self) -> bool {
        self.policy == SuspicionPolicy::Direct
    }

    fn phase(&self) -> DinerPhase {
        self.phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::participant::NoOracle;
    use dinefd_fd::{FdQuery, InjectedOracle};
    use dinefd_sim::{CrashPlan, SplitMix64, Time};

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    fn request(clock: u64, id: u32) -> DiningMsg {
        DiningMsg::WfDx(WxMsg::Request(Ts { clock, id }))
    }

    fn fork(clock: u64) -> DiningMsg {
        DiningMsg::WfDx(WxMsg::Fork { clock })
    }

    #[test]
    fn pair_packs_round_trip_through_a_session() {
        let fd = NoOracle(2);
        let mut d = WfDxDining::new(p(1), &[p(0)]);
        let pair_rt = |d: &WfDxDining| {
            let mut buf = Vec::new();
            d.pack_pair_into(&mut buf);
            let mut cursor = buf.as_slice();
            assert_eq!(WfDxDining::unpack_pair(p(1), p(0), &mut cursor).as_ref(), Some(d));
            assert!(cursor.is_empty(), "trailing bytes after decode");
            buf.len()
        };
        // Flags, clock, session clock and suspicion eats: no id is written.
        assert_eq!(pair_rt(&d), 4);
        let mut io = DiningIo::new(p(1), Time(0), &fd);
        d.hungry(&mut io); // requested = true, session stamped
        let _ = io.finish();
        pair_rt(&d);
        let mut io = DiningIo::new(p(1), Time(1), &fd);
        d.on_message(&mut io, p(0), fork(3)); // eating, clocks advanced
        let _ = io.finish();
        pair_rt(&d);
        // A deferred peer request, whose stamp's id is the peer's: one more
        // byte, its clock.
        let mut io = DiningIo::new(p(1), Time(2), &fd);
        d.on_message(&mut io, p(0), request(9, 0));
        let _ = io.finish();
        assert!(d.pending_request(p(0)).is_some());
        assert_eq!(pair_rt(&d), 5);
        pair_rt(&WfDxDining::trust_gated(p(1), &[p(0)]));
    }

    #[test]
    fn wx_msg_pair_packs_round_trip_with_the_senders_id() {
        for (head, m) in [
            (0, WxMsg::Request(Ts { clock: 300, id: 7 })),
            (63, WxMsg::Fork { clock: 0 }),
            (2, WxMsg::TokenReturn { clock: 129 }),
        ] {
            let mut buf = Vec::new();
            m.pack_pair_into(head, &mut buf);
            let mut cursor = buf.as_slice();
            assert_eq!(WxMsg::unpack_pair(p(7), &mut cursor), Some((head, m)));
            assert!(cursor.is_empty());
        }
        let mut bad: &[u8] = &[3, 0];
        assert_eq!(WxMsg::unpack_pair(p(0), &mut bad), None, "kind 3 is no message");
    }

    #[test]
    fn token_holder_requests_then_eats_on_fork() {
        let fd = NoOracle(2);
        let mut d = WfDxDining::new(p(1), &[p(0)]);
        let mut io = DiningIo::new(p(1), Time(0), &fd);
        d.hungry(&mut io);
        assert_eq!(d.phase(), DinerPhase::Hungry);
        let fx = io.finish();
        assert_eq!(fx.sends.len(), 1);
        assert!(matches!(fx.sends[0], (_, DiningMsg::WfDx(WxMsg::Request(_)))));
        let mut io = DiningIo::new(p(1), Time(1), &fd);
        d.on_message(&mut io, p(0), fork(3));
        assert_eq!(d.phase(), DinerPhase::Eating);
        assert_eq!(d.suspicion_eats(), 0);
    }

    #[test]
    fn thinking_holder_yields_immediately() {
        let fd = NoOracle(2);
        let mut d = WfDxDining::new(p(0), &[p(1)]); // thinking, holds fork
        let mut io = DiningIo::new(p(0), Time(0), &fd);
        d.on_message(&mut io, p(1), request(1, 1));
        let fx = io.finish();
        assert_eq!(fx.sends.len(), 1);
        assert!(matches!(fx.sends[0], (_, DiningMsg::WfDx(WxMsg::Fork { .. }))));
        assert!(!d.holds_fork(p(1)));
    }

    #[test]
    fn eating_holder_defers_until_exit() {
        let fd = NoOracle(2);
        let mut d = WfDxDining::new(p(0), &[p(1)]);
        let mut io = DiningIo::new(p(0), Time(0), &fd);
        d.hungry(&mut io); // holds the fork → eats immediately
        assert_eq!(d.phase(), DinerPhase::Eating);
        let mut io = DiningIo::new(p(0), Time(1), &fd);
        d.on_message(&mut io, p(1), request(5, 1));
        assert!(io.finish().sends.is_empty(), "no yield while eating");
        let mut io = DiningIo::new(p(0), Time(2), &fd);
        d.exit_eating(&mut io);
        assert_eq!(d.phase(), DinerPhase::Thinking);
        let fx = io.finish();
        assert_eq!(fx.sends.len(), 1);
        assert!(matches!(fx.sends[0], (_, DiningMsg::WfDx(WxMsg::Fork { .. }))));
    }

    #[test]
    fn older_hungry_holder_keeps_fork_younger_request_defers() {
        let fd = NoOracle(3);
        // Middle diner p1 (neighbors p0, p2): holds fork(1,2), requests
        // fork(0,1) — it stays hungry with session (1, 1).
        let mut d = WfDxDining::new(p(1), &[p(0), p(2)]);
        let mut io = DiningIo::new(p(1), Time(0), &fd);
        d.hungry(&mut io);
        assert_eq!(d.phase(), DinerPhase::Hungry);
        let _ = io.finish();
        // A YOUNGER request (larger ts) for the held fork is deferred.
        let mut io = DiningIo::new(p(1), Time(1), &fd);
        d.on_message(&mut io, p(2), request(9, 2));
        assert!(io.finish().sends.is_empty(), "older hungry holder must keep the fork");
        assert!(d.holds_fork(p(2)));
    }

    #[test]
    fn older_request_pries_fork_from_hungry_holder() {
        let fd = NoOracle(3);
        let mut d = WfDxDining::new(p(1), &[p(0), p(2)]);
        let mut io = DiningIo::new(p(1), Time(0), &fd);
        d.hungry(&mut io); // session clock 1, id 1
        let _ = io.finish();
        // Request stamped (1, 0) < (1, 1): the requester is older.
        let mut io = DiningIo::new(p(1), Time(1), &fd);
        d.on_message(&mut io, p(2), request(1, 0));
        let fx = io.finish();
        assert_eq!(fx.sends.len(), 2, "yield + re-request, got {fx:?}");
        assert!(matches!(fx.sends[0], (_, DiningMsg::WfDx(WxMsg::Fork { .. }))));
        assert!(matches!(fx.sends[1], (_, DiningMsg::WfDx(WxMsg::Request(_)))));
        assert!(!d.holds_fork(p(2)));
    }

    #[test]
    fn suspicion_substitutes_for_missing_fork() {
        let fd = InjectedOracle::perfect(2, CrashPlan::one(p(0), Time(0)), 5);
        let mut d = WfDxDining::new(p(1), &[p(0)]);
        let mut io = DiningIo::new(p(1), Time(2), &fd);
        d.hungry(&mut io); // not yet suspected (lag 5)
        assert_eq!(d.phase(), DinerPhase::Hungry);
        let _ = io.finish();
        let mut io = DiningIo::new(p(1), Time(10), &fd);
        d.on_tick(&mut io);
        assert_eq!(d.phase(), DinerPhase::Eating);
        assert_eq!(d.suspicion_eats(), 1);
        let mut io = DiningIo::new(p(1), Time(12), &fd);
        d.exit_eating(&mut io);
        assert_eq!(d.phase(), DinerPhase::Thinking);
        assert!(!d.holds_fork(p(0)), "the stranded fork is never fabricated");
    }

    #[test]
    fn wrongful_suspicion_can_cause_concurrent_eating() {
        let mut oracle = InjectedOracle::perfect(2, CrashPlan::none(), 5);
        oracle.set_mistakes(
            p(1),
            p(0),
            dinefd_fd::MistakePlan::from_intervals(vec![(Time(0), Time(100))]),
        );
        let mut d0 = WfDxDining::new(p(0), &[p(1)]);
        let mut d1 = WfDxDining::new(p(1), &[p(0)]);
        let mut io = DiningIo::new(p(0), Time(1), &oracle);
        d0.hungry(&mut io);
        assert_eq!(d0.phase(), DinerPhase::Eating);
        let mut io = DiningIo::new(p(1), Time(1), &oracle);
        d1.hungry(&mut io);
        assert_eq!(d1.phase(), DinerPhase::Eating);
        assert_eq!(d1.suspicion_eats(), 1);
    }

    #[test]
    fn trust_gated_policy_ignores_pre_trust_suspicion() {
        let mut oracle = InjectedOracle::perfect(2, CrashPlan::none(), 5);
        oracle.set_mistakes(
            p(1),
            p(0),
            dinefd_fd::MistakePlan::from_intervals(vec![(Time(0), Time(100))]),
        );
        let mut core = WfDxDining::trust_gated(p(1), &[p(0)]);
        let mut io = DiningIo::new(p(1), Time(1), &oracle);
        core.hungry(&mut io);
        assert_eq!(core.phase(), DinerPhase::Hungry, "pre-trust suspicion must not grant");
        let mut io = DiningIo::new(p(1), Time(150), &oracle);
        core.on_tick(&mut io);
        assert_eq!(core.phase(), DinerPhase::Hungry);
        assert!(!oracle.suspected(p(1), p(0), Time(150)));
        let oracle2 = InjectedOracle::perfect(2, CrashPlan::one(p(0), Time(200)), 5);
        let mut io = DiningIo::new(p(1), Time(300), &oracle2);
        core.on_tick(&mut io);
        assert_eq!(core.phase(), DinerPhase::Eating);
    }

    #[test]
    fn pre_trust_suspicion_never_grants() {
        // The oracle suspects p0 from the start (legal for T before first
        // trust); the trust gate must keep p1 hungry.
        let mut oracle = InjectedOracle::perfect(2, CrashPlan::none(), 0);
        oracle.set_mistakes(
            p(1),
            p(0),
            dinefd_fd::MistakePlan::from_intervals(vec![(Time(0), Time(50))]),
        );
        let mut d = WfDxDining::trust_gated(p(1), &[p(0)]);
        let mut io = DiningIo::new(p(1), Time(1), &oracle);
        d.hungry(&mut io);
        assert_eq!(d.phase(), DinerPhase::Hungry);
        let mut io = DiningIo::new(p(1), Time(40), &oracle);
        d.on_tick(&mut io);
        assert_eq!(d.phase(), DinerPhase::Hungry);
    }

    #[test]
    fn post_trust_crash_suspicion_grants() {
        let oracle = InjectedOracle::perfect(2, CrashPlan::one(p(0), Time(100)), 10);
        let mut d = WfDxDining::trust_gated(p(1), &[p(0)]);
        // Establish trust before the crash.
        let mut io = DiningIo::new(p(1), Time(5), &oracle);
        d.hungry(&mut io);
        assert_eq!(d.phase(), DinerPhase::Hungry);
        let mut io = DiningIo::new(p(1), Time(50), &oracle);
        d.on_tick(&mut io);
        assert_eq!(d.phase(), DinerPhase::Hungry);
        // After the crash is detected, the gate is open and the edge is
        // satisfied by (crash-implied) suspicion.
        let mut io = DiningIo::new(p(1), Time(120), &oracle);
        d.on_tick(&mut io);
        assert_eq!(d.phase(), DinerPhase::Eating);
    }

    #[test]
    fn fork_flow_matches_wfdx() {
        let oracle = InjectedOracle::perfect(2, CrashPlan::none(), 0);
        let mut d = WfDxDining::trust_gated(p(1), &[p(0)]);
        let mut io = DiningIo::new(p(1), Time(0), &oracle);
        d.hungry(&mut io);
        let fx = io.finish();
        assert!(matches!(fx.sends[0], (_, DiningMsg::WfDx(WxMsg::Request(_)))));
        let mut io = DiningIo::new(p(1), Time(1), &oracle);
        d.on_message(&mut io, p(0), fork(3));
        assert_eq!(d.phase(), DinerPhase::Eating);
        assert!(d.holds_fork(p(0)));
        // Only the Direct policy promises tick-skipping.
        assert!(!d.ticks_only_while_suspecting());
        assert!(WfDxDining::new(p(1), &[p(0)]).ticks_only_while_suspecting());
    }

    /// Counts the queries it answers (never suspecting).
    #[derive(Debug)]
    struct CountingOracle(std::cell::Cell<u32>);

    impl FdQuery for CountingOracle {
        fn suspected(&self, _watcher: ProcessId, _subject: ProcessId, _now: Time) -> bool {
            self.0.set(self.0.get() + 1);
            false
        }

        fn len(&self) -> usize {
            3
        }
    }

    #[test]
    fn a_tick_asks_the_oracle_once_per_edge_and_not_at_all_when_it_cannot_matter() {
        let fd = CountingOracle(std::cell::Cell::new(0));
        let queries = |core: &mut WfDxDining| {
            let before = fd.0.get();
            core.on_tick(&mut DiningIo::new(p(1), Time(1), &fd));
            fd.0.get() - before
        };
        let mut direct = WfDxDining::new(p(1), &[p(0), p(2)]);
        assert_eq!(queries(&mut direct), 0, "thinking under Direct: nothing to re-check");
        direct.hungry(&mut DiningIo::new(p(1), Time(0), &fd));
        assert_eq!(direct.phase(), DinerPhase::Hungry);
        assert_eq!(queries(&mut direct), 2, "hungry: one query per edge");
        // A trust-gated diner reads its trust bits later, so it keeps
        // refreshing them in every phase — still once per edge.
        let mut gated = WfDxDining::trust_gated(p(1), &[p(0), p(2)]);
        assert_eq!(queries(&mut gated), 2);
        assert!(gated.edges.iter().all(|e| e.ever_trusted));
    }

    #[test]
    fn fork_arriving_after_suspicion_eat_is_yielded_on_request() {
        let mut oracle = InjectedOracle::perfect(2, CrashPlan::none(), 0);
        oracle.set_mistakes(
            p(1),
            p(0),
            dinefd_fd::MistakePlan::from_intervals(vec![(Time(0), Time(10))]),
        );
        // p1 requests, eats via suspicion, exits; then the fork arrives
        // while thinking; a request must pry it loose.
        let mut d1 = WfDxDining::new(p(1), &[p(0)]);
        let mut io = DiningIo::new(p(1), Time(1), &oracle);
        d1.hungry(&mut io);
        assert_eq!(d1.phase(), DinerPhase::Eating);
        let _ = io.finish();
        let mut io = DiningIo::new(p(1), Time(2), &oracle);
        d1.exit_eating(&mut io);
        let _ = io.finish();
        let fd = NoOracle(2);
        let mut io = DiningIo::new(p(1), Time(20), &fd);
        d1.on_message(&mut io, p(0), fork(7));
        assert!(d1.holds_fork(p(0)));
        let mut io = DiningIo::new(p(1), Time(21), &fd);
        d1.on_message(&mut io, p(0), request(9, 0));
        let fx = io.finish();
        assert_eq!(fx.sends.len(), 1);
        assert!(matches!(fx.sends[0], (_, DiningMsg::WfDx(WxMsg::Fork { .. }))));
    }

    #[test]
    fn pending_request_served_when_fork_arrives_while_thinking() {
        // p1 requests (token spent), eats via suspicion, exits. p0 yields
        // the fork and re-requests; the Request overtakes the Fork on the
        // non-FIFO channel and lands while p1 is thinking and fork-less.
        // When the fork finally arrives, it must be forwarded to p0.
        let mut oracle = InjectedOracle::perfect(2, CrashPlan::none(), 0);
        oracle.set_mistakes(
            p(1),
            p(0),
            dinefd_fd::MistakePlan::from_intervals(vec![(Time(0), Time(10))]),
        );
        let mut d = WfDxDining::new(p(1), &[p(0)]);
        let mut io = DiningIo::new(p(1), Time(0), &oracle);
        d.hungry(&mut io); // spends token, eats via suspicion
        assert_eq!(d.phase(), DinerPhase::Eating);
        let _ = io.finish();
        let mut io = DiningIo::new(p(1), Time(1), &oracle);
        d.exit_eating(&mut io);
        let _ = io.finish();
        // p0's re-request overtakes the yielded fork.
        let fd = NoOracle(2);
        let mut io = DiningIo::new(p(1), Time(2), &fd);
        d.on_message(&mut io, p(0), request(4, 0));
        assert!(io.finish().sends.is_empty(), "nothing to yield yet");
        let mut io = DiningIo::new(p(1), Time(3), &fd);
        d.on_message(&mut io, p(0), fork(5));
        let fx = io.finish();
        assert_eq!(fx.sends.len(), 1, "fork forwarded to the pending requester");
        assert!(matches!(fx.sends[0], (_, DiningMsg::WfDx(WxMsg::Fork { .. }))));
        assert!(!d.holds_fork(p(0)));
    }

    #[test]
    fn hungry_forkless_token_is_parked_and_served_at_fork_arrival() {
        let fd = NoOracle(2);
        let mut d = WfDxDining::new(p(1), &[p(0)]);
        let mut io = DiningIo::new(p(1), Time(0), &fd);
        d.hungry(&mut io); // session (1,1); spends token
        let _ = io.finish();
        // The peer's OLDER request arrives while we are hungry and
        // fork-less: the token is parked (no bounce — a duplicate of our
        // own request could go stale and starve us).
        let mut io = DiningIo::new(p(1), Time(1), &fd);
        d.on_message(&mut io, p(0), request(1, 0)); // (1,0) < (1,1): older
        assert!(io.finish().sends.is_empty(), "token parked, nothing sent");
        // When the fork arrives, the older parked request is served at once
        // (with our re-request, since we are still hungry).
        let mut io = DiningIo::new(p(1), Time(2), &fd);
        d.on_message(&mut io, p(0), fork(3));
        let fx = io.finish();
        assert_eq!(fx.sends.len(), 2, "yield to older + re-request: {fx:?}");
        assert!(matches!(fx.sends[0], (_, DiningMsg::WfDx(WxMsg::Fork { .. }))));
        assert!(matches!(fx.sends[1], (_, DiningMsg::WfDx(WxMsg::Request(_)))));
    }

    #[test]
    fn hungry_forkless_parked_token_younger_request_waits_until_exit() {
        let fd = NoOracle(2);
        let mut d = WfDxDining::new(p(1), &[p(0)]);
        let mut io = DiningIo::new(p(1), Time(0), &fd);
        d.hungry(&mut io); // session (1,1)
        let _ = io.finish();
        // A YOUNGER request parks; the fork arrives; we outrank → we eat.
        let mut io = DiningIo::new(p(1), Time(1), &fd);
        d.on_message(&mut io, p(0), request(9, 0));
        assert!(io.finish().sends.is_empty());
        let mut io = DiningIo::new(p(1), Time(2), &fd);
        d.on_message(&mut io, p(0), fork(3));
        assert_eq!(d.phase(), DinerPhase::Eating);
        // At exit the parked request is finally honoured.
        let mut io = DiningIo::new(p(1), Time(3), &fd);
        d.exit_eating(&mut io);
        let fx = io.finish();
        assert_eq!(fx.sends.len(), 1);
        assert!(matches!(fx.sends[0], (_, DiningMsg::WfDx(WxMsg::Fork { .. }))));
    }

    #[test]
    fn session_timestamps_strictly_increase() {
        let fd = NoOracle(2);
        let mut d = WfDxDining::new(p(0), &[p(1)]);
        let mut last = Ts { clock: 0, id: 0 };
        for t in 0..5u64 {
            let mut io = DiningIo::new(p(0), Time(t * 10), &fd);
            d.hungry(&mut io);
            assert_eq!(d.phase(), DinerPhase::Eating);
            let s = d.session();
            assert!(s > last, "session ts must increase: {last:?} → {s:?}");
            last = s;
            let mut io = DiningIo::new(p(0), Time(t * 10 + 1), &fd);
            d.exit_eating(&mut io);
        }
    }

    /// Answers every query with a fresh coin flip.
    #[derive(Debug)]
    struct CoinOracle(std::cell::RefCell<SplitMix64>);

    impl FdQuery for CoinOracle {
        fn suspected(&self, _watcher: ProcessId, _subject: ProcessId, _now: Time) -> bool {
            self.0.borrow_mut().below(2) == 0
        }

        fn len(&self) -> usize {
            3
        }
    }

    /// What `ticks_only_while_suspecting` rests on: whatever the schedule
    /// and whatever the oracle answers, a `Direct` diner that a call leaves
    /// hungry with its gate open lacks a fork — one that holds them all has
    /// eaten inside the call — so its tick can start a meal only through a
    /// suspicion.
    #[test]
    fn a_hungry_direct_diner_with_its_gate_open_lacks_a_fork_after_every_call() {
        let ids = [p(0), p(1), p(2)];
        let mut checked = 0;
        for seed in 0..64 {
            let mut rng = SplitMix64::new(seed);
            let fd = CoinOracle(std::cell::RefCell::new(SplitMix64::new(!seed)));
            let mut diners: Vec<WfDxDining> = ids
                .iter()
                .map(|&me| {
                    let nbrs: Vec<ProcessId> = ids.into_iter().filter(|&q| q != me).collect();
                    WfDxDining::new(me, &nbrs)
                })
                .collect();
            // In flight, delivered in any order: (from, to, message).
            let mut wire: Vec<(ProcessId, ProcessId, DiningMsg)> = Vec::new();
            for step in 0..400 {
                let k = if !wire.is_empty() && rng.below(2) == 0 {
                    let (from, to, msg) = wire.swap_remove(rng.below(wire.len() as u64) as usize);
                    let mut io = DiningIo::new(to, Time(step), &fd);
                    diners[to.index()].on_message(&mut io, from, msg);
                    wire.extend(io.finish().sends.into_iter().map(|(q, m)| (to, q, m)));
                    to.index()
                } else {
                    let k = rng.below(3) as usize;
                    let (d, mut io) = (&mut diners[k], DiningIo::new(ids[k], Time(step), &fd));
                    match d.phase() {
                        _ if rng.below(4) == 0 => d.on_tick(&mut io),
                        DinerPhase::Thinking => d.hungry(&mut io),
                        DinerPhase::Eating => d.exit_eating(&mut io),
                        _ => d.on_tick(&mut io),
                    }
                    wire.extend(io.finish().sends.into_iter().map(|(q, m)| (ids[k], q, m)));
                    k
                };
                let d = &diners[k];
                if d.phase() == DinerPhase::Hungry && d.gate_open {
                    checked += 1;
                    assert!(d.edges.iter().any(|e| !e.has_fork), "seed {seed}, step {step}: {d:?}");
                }
            }
        }
        assert!(checked > 1_000, "only {checked} calls left a diner hungry");
    }
}
