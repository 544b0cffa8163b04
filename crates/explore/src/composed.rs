//! Exhaustive exploration of the **composed** system: the paper's reduction
//! running over the *actual* timestamped fork algorithm (`WfDxDining`), not
//! over a spec-level abstraction.
//!
//! The abstract pair model in [`crate::pair_model`] grants eating by fiat;
//! here eating emerges from the fork/token protocol itself, so this model
//! additionally checks the *dining algorithm's* structural theorems over
//! every interleaving:
//!
//! * **fork conservation** — each instance's fork exists exactly once,
//!   counting both endpoints and in-flight `Fork` messages (forks in flight
//!   to a crashed endpoint are considered destroyed with it);
//! * **token conservation** — likewise for the request token (in `Request`
//!   and `TokenReturn` messages);
//! * **emergent exclusion** — with an accurate detector (no wrongful
//!   suspicion active), the two endpoints of an instance never *start*
//!   overlapping eating sessions; with `allow_mistakes`, overlaps may begin
//!   only while a wrongful-suspicion flag is raised;
//! * the reduction's own safety lemmas (2, 3, 4, 9): the protocol's
//!   clauses, read on the same view of the machines and the wire as in the
//!   abstract model, with the same messages.
//!
//! Wrongful suspicions are modeled as explorer-controlled flags, one per
//! direction, each allowed to rise and fall once (a minimal "finitely many
//! mistakes" adversary — enough to exercise the mistake paths without
//! blowing up the state space).

use dinefd_core::machines::{Step, SubjectMachine, WitnessMachine};
use dinefd_core::protocol::{AbsState, WIRE_CAP};
use dinefd_dining::wfdx::{WfDxDining, WxMsg};
use dinefd_dining::{DinerPhase, DiningIo, DiningMsg, DiningParticipant};
use dinefd_fd::FdQuery;
use dinefd_sim::{ProcessId, Time};

use crate::engine::{search, SearchModel, SearchReport};
use crate::pair_model::machine_view;

const P: ProcessId = ProcessId(0); // watcher
const Q: ProcessId = ProcessId(1); // subject

/// Mistake-flag lifecycle: never raised → active → spent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mistake {
    /// Not yet raised.
    Fresh,
    /// Currently suspecting a live process.
    Active,
    /// Raised and lowered; may not rise again (finitely many mistakes).
    Spent,
}

/// The detector each fork endpoint queries: real crashes plus the
/// explorer-controlled wrongful flag for its direction.
#[derive(Debug)]
struct ModelFd {
    crashed_q: bool,
    wrongful_pq: bool,
    wrongful_qp: bool,
}

impl FdQuery for ModelFd {
    fn suspected(&self, watcher: ProcessId, subject: ProcessId, _now: Time) -> bool {
        if watcher == subject {
            return false;
        }
        if subject == Q {
            self.crashed_q || self.wrongful_pq
        } else {
            self.wrongful_qp
        }
    }

    fn len(&self) -> usize {
        2
    }
}

/// The `n`-th action `for_each` yields: the one a `WitnessAct(n)` or
/// `SubjectAct(n)` label fires.
fn nth_action<A>(n: usize, for_each: impl FnOnce(&mut dyn FnMut(A))) -> Option<A> {
    let (mut seen, mut hit) = (0, None);
    for_each(&mut |a| {
        if seen == n {
            hit = Some(a);
        }
        seen += 1;
    });
    hit
}

/// Parameters of a composed exploration.
#[derive(Clone, Copy, Debug)]
pub struct ComposedConfig {
    /// Interleaving depth bound.
    pub max_depth: u32,
    /// State budget.
    pub max_states: usize,
    /// Allow `q` to crash.
    pub allow_crash: bool,
    /// Allow one wrongful-suspicion episode per direction.
    pub allow_mistakes: bool,
    /// Harden the subject machine (sequence-checked acks).
    pub strict_seq: bool,
    /// Ignored: the search runs on the calling thread. Kept only because
    /// `benchmark/` names it.
    pub threads: usize,
    /// Ignored: the search has no partial-order reduction. Kept only because
    /// `benchmark/` names it.
    pub por: bool,
}

impl Default for ComposedConfig {
    fn default() -> Self {
        ComposedConfig {
            max_depth: 12,
            max_states: 2_000_000,
            allow_crash: true,
            allow_mistakes: true,
            strict_seq: false,
            threads: 1,
            por: false,
        }
    }
}

/// One in-flight dining message: `(instance, to_subject, payload)`.
type DxWire = (u8, bool, DiningMsg);

/// Complete state of the composed model.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ComposedState {
    witness: WitnessMachine,
    subject: SubjectMachine,
    /// Witness-side fork endpoints of DX_0, DX_1 (at `p`).
    w_dx: [WfDxDining; 2],
    /// Subject-side fork endpoints (at `q`).
    s_dx: [WfDxDining; 2],
    dx_wire: Vec<DxWire>,
    pings: Vec<(u8, u64)>,
    acks: Vec<(u8, u64)>,
    crashed: bool,
    mistake_pq: Mistake,
    mistake_qp: Mistake,
    /// Whether each endpoint's *current* eating session is "tainted": it
    /// began while a wrongful-suspicion flag was active, or without holding
    /// the fork. ◇WX permits overlaps involving tainted sessions even after
    /// the mistake ends — exclusivity resumes once mistake-era eaters exit
    /// (exactly the \[12\] behaviour the paper's §3 discusses).
    w_taint: [bool; 2],
    s_taint: [bool; 2],
}

/// Explorer transition labels (diagnostics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ComposedLabel {
    /// Fire the witness machine's `n`-th enabled action.
    WitnessAct(usize),
    /// Fire the subject machine's `n`-th enabled action.
    SubjectAct(usize),
    /// Deliver `dx_wire[k]`.
    DeliverDx(usize),
    /// Deliver `pings[k]`.
    DeliverPing(usize),
    /// Deliver `acks[k]`.
    DeliverAck(usize),
    /// Tick a hungry fork endpoint (0..2 = witness side, 2..4 = subject).
    Tick(usize),
    /// Crash `q`.
    Crash,
    /// Raise/lower a wrongful-suspicion flag (direction, raise?).
    Flag(bool, bool),
}

impl ComposedState {
    /// Initial state.
    pub fn initial(cfg: &ComposedConfig) -> Self {
        ComposedState {
            witness: WitnessMachine::new(),
            subject: SubjectMachine::new(cfg.strict_seq),
            w_dx: [WfDxDining::new(P, &[Q]), WfDxDining::new(P, &[Q])],
            s_dx: [WfDxDining::new(Q, &[P]), WfDxDining::new(Q, &[P])],
            dx_wire: Vec::new(),
            pings: Vec::new(),
            acks: Vec::new(),
            crashed: false,
            mistake_pq: Mistake::Fresh,
            mistake_qp: Mistake::Fresh,
            w_taint: [false; 2],
            s_taint: [false; 2],
        }
    }

    /// Recomputes session taints across a transition: an eating session
    /// keeps its taint until it ends; a session starting now is tainted if a
    /// mistake is active or the eater lacks the fork.
    fn update_taints(prev: &ComposedState, next: &mut ComposedState) {
        for i in 0..2 {
            // Witness side.
            let was = prev.w_dx[i].phase() == DinerPhase::Eating;
            let is = next.w_dx[i].phase() == DinerPhase::Eating;
            next.w_taint[i] = match (was, is) {
                (true, true) => prev.w_taint[i],
                (false, true) => next.mistake_active() || !next.w_dx[i].holds_fork(Q),
                (_, false) => false,
            };
            let was = prev.s_dx[i].phase() == DinerPhase::Eating;
            let is = next.s_dx[i].phase() == DinerPhase::Eating;
            next.s_taint[i] = match (was, is) {
                (true, true) => prev.s_taint[i],
                (false, true) => next.mistake_active() || !next.s_dx[i].holds_fork(P),
                (_, false) => false,
            };
        }
    }

    fn fd(&self) -> ModelFd {
        ModelFd {
            crashed_q: self.crashed,
            wrongful_pq: self.mistake_pq == Mistake::Active,
            wrongful_qp: self.mistake_qp == Mistake::Active,
        }
    }

    fn w_phases(&self) -> [DinerPhase; 2] {
        [self.w_dx[0].phase(), self.w_dx[1].phase()]
    }

    fn s_phases(&self) -> [DinerPhase; 2] {
        [self.s_dx[0].phase(), self.s_dx[1].phase()]
    }

    /// Invokes a fork endpoint and routes its sends onto the wire.
    fn invoke_dx(
        &mut self,
        witness_side: bool,
        i: usize,
        f: impl FnOnce(&mut WfDxDining, &mut DiningIo<'_>),
    ) {
        let fd = self.fd();
        let me = if witness_side { P } else { Q };
        let mut io = DiningIo::new(me, Time::ZERO, &fd);
        let core = if witness_side { &mut self.w_dx[i] } else { &mut self.s_dx[i] };
        f(core, &mut io);
        for (_to, msg) in io.finish().sends {
            // Messages travel toward the other side of the same instance.
            self.dx_wire.push((i as u8, witness_side, msg));
        }
    }

    /// Yields every enabled transition label, in the model's canonical
    /// order (the order [`ComposedState::successors`] lists them in). Builds
    /// no state: the search engine applies each label into one scratch
    /// state with [`ComposedState::apply_into`].
    pub fn for_each_label(&self, cfg: &ComposedConfig, mut push: impl FnMut(ComposedLabel)) {
        // Machine actions, numbered in enabled order.
        let mut n = 0;
        self.witness.for_each_enabled(self.w_phases(), |_| {
            push(ComposedLabel::WitnessAct(n));
            n += 1;
        });
        if !self.crashed {
            let mut n = 0;
            self.subject.for_each_enabled(self.s_phases(), |_| {
                push(ComposedLabel::SubjectAct(n));
                n += 1;
            });
        }
        // Deliveries, non-FIFO: any index. Acks to a crashed q are gone.
        (0..self.dx_wire.len()).for_each(|k| push(ComposedLabel::DeliverDx(k)));
        (0..self.pings.len()).for_each(|k| push(ComposedLabel::DeliverPing(k)));
        if !self.crashed {
            (0..self.acks.len()).for_each(|k| push(ComposedLabel::DeliverAck(k)));
        }
        // Ticks: only useful for hungry endpoints (suspicion re-check).
        for slot in 0..4usize {
            let (witness_side, i) = (slot < 2, slot % 2);
            if !witness_side && self.crashed {
                continue;
            }
            let phase = if witness_side { self.w_dx[i].phase() } else { self.s_dx[i].phase() };
            if phase == DinerPhase::Hungry {
                push(ComposedLabel::Tick(slot));
            }
        }
        // Environment: crash and mistake flags.
        if cfg.allow_crash && !self.crashed {
            push(ComposedLabel::Crash);
        }
        if cfg.allow_mistakes {
            for (pq, state) in [(true, self.mistake_pq), (false, self.mistake_qp)] {
                match state {
                    Mistake::Fresh => push(ComposedLabel::Flag(pq, true)),
                    Mistake::Active => push(ComposedLabel::Flag(pq, false)),
                    Mistake::Spent => {}
                }
            }
        }
    }

    /// Applies one labelled transition, returning the successor. The label
    /// must be enabled here ([`ComposedState::for_each_label`] yields it).
    pub fn apply(&self, label: ComposedLabel) -> ComposedState {
        let mut next = self.clone();
        next.fire(label);
        Self::update_taints(self, &mut next);
        next
    }

    /// [`ComposedState::apply`] into a caller-owned state: `next` is
    /// overwritten field by field — the wires through `Vec::clone_from`,
    /// which keeps their storage — and the transition then fires in place.
    /// The search engine builds every successor this way in one scratch
    /// state and copies out only those its visited store keeps.
    pub fn apply_into(&self, label: ComposedLabel, next: &mut ComposedState) {
        let ComposedState {
            witness,
            subject,
            w_dx,
            s_dx,
            dx_wire,
            pings,
            acks,
            crashed,
            mistake_pq,
            mistake_qp,
            w_taint,
            s_taint,
        } = self;
        next.witness = witness.clone();
        next.subject = subject.clone();
        next.w_dx.clone_from(w_dx);
        next.s_dx.clone_from(s_dx);
        next.dx_wire.clone_from(dx_wire);
        next.pings.clone_from(pings);
        next.acks.clone_from(acks);
        (next.crashed, next.mistake_pq, next.mistake_qp) = (*crashed, *mistake_pq, *mistake_qp);
        (next.w_taint, next.s_taint) = (*w_taint, *s_taint);
        next.fire(label);
        Self::update_taints(self, next);
    }

    /// The transition itself, in place; the caller then settles the session
    /// taints against the state it started from.
    fn fire(&mut self, label: ComposedLabel) {
        let s = self;
        match label {
            ComposedLabel::WitnessAct(n) => {
                let phases = s.w_phases();
                let Some(a) = nth_action(n, |f| s.witness.for_each_enabled(phases, f)) else {
                    unreachable!("WitnessAct({n}) is not enabled");
                };
                match s.witness.fire(a, phases) {
                    Step::Hungry(i) => s.invoke_dx(true, i, |c, io| c.hungry(io)),
                    Step::Exit(i) => s.invoke_dx(true, i, |c, io| c.exit_eating(io)),
                    Step::Send(..) => unreachable!(),
                }
            }
            ComposedLabel::SubjectAct(n) => {
                let phases = s.s_phases();
                let Some(a) = nth_action(n, |f| s.subject.for_each_enabled(phases, f)) else {
                    unreachable!("SubjectAct({n}) is not enabled");
                };
                match s.subject.fire(a, phases) {
                    Step::Hungry(i) => s.invoke_dx(false, i, |c, io| c.hungry(io)),
                    Step::Exit(i) => s.invoke_dx(false, i, |c, io| c.exit_eating(io)),
                    Step::Send(i, seq) => s.pings.push((i as u8, seq)),
                }
            }
            ComposedLabel::DeliverDx(k) => {
                let (i, to_subject, msg) = s.dx_wire.remove(k);
                // A message to the corpse vanishes.
                if !(to_subject && s.crashed) {
                    let from = if to_subject { P } else { Q };
                    s.invoke_dx(!to_subject, i as usize, |c, io| c.on_message(io, from, msg));
                }
            }
            ComposedLabel::DeliverPing(k) => {
                let (i, seq) = s.pings.remove(k);
                let Step::Send(i2, s2) = s.witness.on_ping(i as usize, seq) else { unreachable!() };
                if !s.crashed {
                    s.acks.push((i2 as u8, s2));
                }
            }
            ComposedLabel::DeliverAck(k) => {
                let (i, seq) = s.acks.remove(k);
                s.subject.on_ack(i as usize, seq);
            }
            ComposedLabel::Tick(slot) => s.invoke_dx(slot < 2, slot % 2, |c, io| c.on_tick(io)),
            ComposedLabel::Crash => {
                // In-flight q-bound dining messages stay queued; delivery
                // drops them.
                s.crashed = true;
                s.acks.clear();
            }
            ComposedLabel::Flag(pq, raise) => {
                let m = if pq { &mut s.mistake_pq } else { &mut s.mistake_qp };
                *m = if raise { Mistake::Active } else { Mistake::Spent };
            }
        }
    }

    /// Enumerates successors into `out`: every label of
    /// [`ComposedState::for_each_label`], applied. Eat-start overlap
    /// legality is checked by the caller comparing phases across the
    /// transition.
    pub fn successors_into(
        &self,
        cfg: &ComposedConfig,
        out: &mut Vec<(ComposedLabel, ComposedState)>,
    ) {
        self.for_each_label(cfg, |l| out.push((l, self.apply(l))));
    }

    /// Enumerates successors as a fresh vector (trace replay and property
    /// tests; the search engine walks labels instead).
    pub fn successors(&self, cfg: &ComposedConfig) -> Vec<(ComposedLabel, ComposedState)> {
        let mut out = Vec::new();
        self.successors_into(cfg, &mut out);
        out
    }

    /// Whether `q` has crashed.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Whether the endpoint of instance `i` that is currently eating is in a
    /// tainted (mistake-era or fork-less) session.
    pub fn prior_eater_tainted(&self, i: usize) -> bool {
        (self.w_dx[i].phase() == DinerPhase::Eating && self.w_taint[i])
            || (self.s_dx[i].phase() == DinerPhase::Eating && self.s_taint[i])
    }

    /// Whether any wrongful-suspicion flag is active.
    pub fn mistake_active(&self) -> bool {
        self.mistake_pq == Mistake::Active || self.mistake_qp == Mistake::Active
    }

    /// Overlap (both endpoints of instance `i` eating).
    pub fn overlapping(&self, i: usize) -> bool {
        self.w_dx[i].phase() == DinerPhase::Eating && self.s_dx[i].phase() == DinerPhase::Eating
    }

    /// State-level invariants.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut v = Vec::new();
        for i in 0..2 {
            // Fork conservation.
            let wire_forks = self
                .dx_wire
                .iter()
                .filter(|&&(j, _to_s, ref m)| {
                    // Forks bound for a corpse still "exist" until dropped.
                    j as usize == i && matches!(m, DiningMsg::WfDx(WxMsg::Fork { .. }))
                })
                .count();
            let w_has = self.w_dx[i].holds_fork(Q) as usize;
            let s_has = self.s_dx[i].holds_fork(P) as usize;
            let forks = w_has + s_has + wire_forks;
            // While q lives the fork exists exactly once; a crash can destroy
            // it (stranded at the corpse = frozen state still counts; only
            // delivery-to-corpse removes it), never duplicate it.
            let ok = if self.crashed { forks <= 1 } else { forks == 1 };
            if !ok {
                v.push(format!(
                    "fork conservation broken on DX_{i}: endpoints {w_has}+{s_has}, wire {wire_forks}, crashed {}",
                    self.crashed
                ));
            }
            // Token conservation.
            let wire_tokens = self
                .dx_wire
                .iter()
                .filter(|&&(j, _, ref m)| {
                    j as usize == i
                        && matches!(
                            m,
                            DiningMsg::WfDx(WxMsg::Request(_))
                                | DiningMsg::WfDx(WxMsg::TokenReturn { .. })
                        )
                })
                .count();
            let w_tok = self.w_dx[i].holds_token(Q) as usize;
            let s_tok = self.s_dx[i].holds_token(P) as usize;
            let tokens = w_tok + s_tok + wire_tokens;
            let ok = if self.crashed { tokens <= 1 } else { tokens == 1 };
            if !ok {
                v.push(format!(
                    "token conservation broken on DX_{i}: endpoints {w_tok}+{s_tok}, wire {wire_tokens}, crashed {}",
                    self.crashed
                ));
            }
        }
        // The reduction's lemmas, as in the abstract model.
        v.extend(crate::invariants::state_violations(
            &self.view(),
            crate::invariants::COMPOSED_CLAUSES,
        ));
        v
    }

    /// The protocol's view of this state: the machines, the four threads'
    /// phases and the ping/ack wire. There is no convergence point here, so
    /// `converged` stays false (no exclusion clause is checked on it).
    fn view(&self) -> AbsState {
        AbsState {
            w_phase: self.w_phases(),
            s_phase: self.s_phases(),
            crashed: self.crashed,
            ..machine_view(&self.witness, &self.subject, &self.pings, &self.acks, WIRE_CAP)
        }
    }
}

/// The codec writes what a slot's position leaves open and nothing else:
/// each fork endpoint through [`WfDxDining::pack_pair_into`] (its `me` and
/// peer follow from its side), and each wire message through
/// [`WxMsg::pack_pair_into`] with its instance and direction as the head (the
/// direction names the sender of a `Request`).
impl crate::codec::StateCodec for ComposedState {
    fn encode_into(&self, out: &mut Vec<u8>) {
        use dinefd_sim::codec::{put_u8, put_varint};
        put_u8(out, self.witness.pack());
        self.subject.pack_into(out);
        for dx in self.w_dx.iter().chain(self.s_dx.iter()) {
            dx.pack_pair_into(out);
        }
        put_varint(out, self.dx_wire.len() as u64);
        for &(i, to_subject, ref msg) in &self.dx_wire {
            match msg {
                DiningMsg::WfDx(m) => m.pack_pair_into(i | (to_subject as u8) << 1, out),
                other => unreachable!("composed wire carries only WfDx traffic, got {other:?}"),
            }
        }
        crate::codec::put_wire_queue(out, &self.pings);
        crate::codec::put_wire_queue(out, &self.acks);
        let mistake_bits = |m: Mistake| match m {
            Mistake::Fresh => 0u8,
            Mistake::Active => 1,
            Mistake::Spent => 2,
        };
        put_u8(
            out,
            self.crashed as u8
                | mistake_bits(self.mistake_pq) << 1
                | mistake_bits(self.mistake_qp) << 3,
        );
        put_u8(
            out,
            self.w_taint[0] as u8
                | (self.w_taint[1] as u8) << 1
                | (self.s_taint[0] as u8) << 2
                | (self.s_taint[1] as u8) << 3,
        );
    }

    fn decode(mut input: &[u8]) -> Option<Self> {
        use dinefd_sim::codec::{take_u8, take_varint};
        let input = &mut input;
        let witness = WitnessMachine::unpack(take_u8(input)?)?;
        let subject = SubjectMachine::unpack(input)?;
        let w0 = WfDxDining::unpack_pair(P, Q, input)?;
        let w1 = WfDxDining::unpack_pair(P, Q, input)?;
        let s0 = WfDxDining::unpack_pair(Q, P, input)?;
        let s1 = WfDxDining::unpack_pair(Q, P, input)?;
        // Every wire message takes at least one byte: a longer length is
        // malformed, and refused before anything is allocated for it.
        let n = usize::try_from(take_varint(input)?).ok().filter(|&n| n <= input.len())?;
        let mut dx_wire = Vec::with_capacity(n);
        for _ in 0..n {
            // The sender's side is the one the message travels away from,
            // which `head`'s direction bit names; peek it before decoding.
            let head = *input.first()? >> 2;
            let to_subject = head & 0b10 != 0;
            let (head, msg) = WxMsg::unpack_pair(if to_subject { P } else { Q }, input)?;
            if head > 0b11 {
                return None;
            }
            dx_wire.push((head & 1, to_subject, DiningMsg::WfDx(msg)));
        }
        let pings = crate::codec::take_wire_queue(input)?;
        let acks = crate::codec::take_wire_queue(input)?;
        let flags = take_u8(input)?;
        let mistake_from = |b: u8| match b & 0b11 {
            0 => Some(Mistake::Fresh),
            1 => Some(Mistake::Active),
            2 => Some(Mistake::Spent),
            _ => None,
        };
        let taints = take_u8(input)?;
        if flags & 0b1110_0000 != 0 || taints & 0b1111_0000 != 0 {
            return None;
        }
        let state = ComposedState {
            witness,
            subject,
            w_dx: [w0, w1],
            s_dx: [s0, s1],
            dx_wire,
            pings,
            acks,
            crashed: flags & 1 != 0,
            mistake_pq: mistake_from(flags >> 1)?,
            mistake_qp: mistake_from(flags >> 3)?,
            w_taint: [taints & 1 != 0, taints & 0b10 != 0],
            s_taint: [taints & 0b100 != 0, taints & 0b1000 != 0],
        };
        input.is_empty().then_some(state)
    }
}

/// Emergent-exclusion check across one transition: an overlap may only
/// BEGIN while a wrongful-suspicion flag is active, or when the endpoint
/// that was already eating is in a tainted (mistake-era) session. Crashed
/// subjects are exempt: exclusion binds live neighbors.
fn exclusion_step_violations(state: &ComposedState, next: &ComposedState) -> Vec<String> {
    let mut v = Vec::new();
    for i in 0..2 {
        if !state.overlapping(i)
            && next.overlapping(i)
            && !next.crashed
            && !next.mistake_active()
            && !state.prior_eater_tainted(i)
        {
            v.push(format!("exclusion violated on DX_{i} without mistake or taint"));
        }
    }
    v
}

/// Result of a composed exploration (replay `records` with
/// [`ComposedState::successors`]).
pub type ComposedReport = SearchReport<ComposedLabel>;

/// The composed model seen through the engine's eyes.
struct ComposedSearch<'a>(&'a ComposedConfig);

impl SearchModel for ComposedSearch<'_> {
    type State = ComposedState;
    type Label = ComposedLabel;

    fn for_each_label(&self, s: &ComposedState, push: impl FnMut(ComposedLabel)) {
        s.for_each_label(self.0, push);
    }

    fn apply_into(&self, s: &ComposedState, label: ComposedLabel, next: &mut ComposedState) {
        s.apply_into(label, next);
    }

    fn state_violations(&self, s: &ComposedState) -> Vec<String> {
        s.check_invariants()
    }

    fn step_violations(
        &self,
        s: &ComposedState,
        _label: ComposedLabel,
        next: &ComposedState,
    ) -> Vec<String> {
        exclusion_step_violations(s, next)
    }
}

/// Depth-bounded exhaustive exploration of the composed model, through the
/// same engine and the same fingerprinted visited store as
/// [`crate::explore`].
pub fn explore_composed(cfg: &ComposedConfig) -> ComposedReport {
    let initial = ComposedState::initial(cfg);
    search(&ComposedSearch(cfg), initial, cfg.max_depth, cfg.max_states)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composed_model_clean_no_faults() {
        let cfg = ComposedConfig {
            max_depth: 12,
            allow_crash: false,
            allow_mistakes: false,
            ..Default::default()
        };
        let r = explore_composed(&cfg);
        assert!(r.clean(), "violations: {:#?}", r.violations);
        assert!(r.states_visited > 100, "only {} states", r.states_visited);
        assert!(!r.truncated);
    }

    #[test]
    fn composed_model_clean_with_crashes() {
        let cfg = ComposedConfig {
            max_depth: 10,
            allow_crash: true,
            allow_mistakes: false,
            ..Default::default()
        };
        let r = explore_composed(&cfg);
        assert!(r.clean(), "violations: {:#?}", r.violations);
    }

    #[test]
    fn composed_model_clean_with_mistakes() {
        let cfg = ComposedConfig {
            max_depth: 9,
            allow_crash: true,
            allow_mistakes: true,
            ..Default::default()
        };
        let r = explore_composed(&cfg);
        assert!(r.clean(), "violations: {:#?}", r.violations);
    }

    #[test]
    fn composed_state_codec_round_trips_along_a_walk() {
        use crate::codec::StateCodec;
        let cfg = ComposedConfig::default();
        let mut s = ComposedState::initial(&cfg);
        for pick in [0usize, 1, 0, 2, 1, 0, 3, 2] {
            let succ = s.successors(&cfg);
            assert!(!succ.is_empty());
            let (label, next) = succ.into_iter().cycle().nth(pick).unwrap();
            let bytes = next.encode();
            assert_eq!(ComposedState::decode(&bytes).as_ref(), Some(&next), "after {label:?}");
            s = next;
        }
    }

    #[test]
    fn deep_walks_round_trip_through_pending_and_wire_requests() {
        // The states where the codec's dropped ids matter: a request parked
        // at either side, a `Request` on the wire either way, and clocks
        // past one varint byte.
        use crate::codec::StateCodec;
        let cfg = ComposedConfig::default();
        let mut rng = dinefd_sim::SplitMix64::new(3);
        let mut seen = [0usize; 4];
        let mut max_clock = 0;
        for _ in 0..48 {
            let mut s = ComposedState::initial(&cfg);
            for _ in 0..400 {
                let bytes = s.encode();
                assert_eq!(ComposedState::decode(&bytes).as_ref(), Some(&s), "{bytes:?}");
                seen[0] += s.w_dx.iter().any(|d| d.pending_request(Q).is_some()) as usize;
                seen[1] += s.s_dx.iter().any(|d| d.pending_request(P).is_some()) as usize;
                for &(_, to_subject, ref msg) in &s.dx_wire {
                    if let DiningMsg::WfDx(WxMsg::Request(_)) = msg {
                        seen[2 + to_subject as usize] += 1;
                    }
                }
                for d in s.w_dx.iter().chain(&s.s_dx) {
                    max_clock = max_clock.max(d.session().clock);
                }
                let mut succ = s.successors(&cfg);
                let pick = rng.next_u64() as usize % succ.len();
                s = succ.swap_remove(pick).1;
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "walks missed a kind of request: {seen:?}");
        assert!(max_clock >= 64, "session clocks stayed below two varint bytes: {max_clock}");
    }

    #[test]
    fn a_wire_length_past_the_end_of_the_buffer_is_malformed() {
        use crate::codec::StateCodec;
        // The initial state ends in three empty wires and two flag bytes.
        // Claim 2^35 and then 2^60 fork messages with no bytes behind them.
        let bytes = ComposedState::initial(&ComposedConfig::default()).encode();
        assert!(bytes.ends_with(&[0; 5]));
        for n in [1u64 << 35, 1 << 60] {
            let mut crafted = bytes[..bytes.len() - 5].to_vec();
            dinefd_sim::codec::put_varint(&mut crafted, n);
            assert_eq!(ComposedState::decode(&crafted), None, "{n} messages claimed");
        }
    }

    #[test]
    fn composed_model_clean_hardened() {
        let cfg = ComposedConfig {
            max_depth: 10,
            strict_seq: true,
            allow_crash: true,
            allow_mistakes: false,
            ..Default::default()
        };
        let r = explore_composed(&cfg);
        assert!(r.clean(), "violations: {:#?}", r.violations);
    }
}
