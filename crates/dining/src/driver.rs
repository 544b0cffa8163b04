//! Workload driver: hosts one [`DiningParticipant`] per process inside the
//! simulator and plays a think/eat client against it, over the failure
//! detector the participant queries.
//!
//! The driver is the "application layer" of a dining experiment: it
//! decides *when* to become hungry and *how long* to eat (both sampled from
//! the node-local deterministic RNG), while the participant decides
//! *whether* eating may start. Phase changes are recorded as
//! [`DiningObs`] observations, from which [`collect_history`] rebuilds a
//! [`DiningHistory`] for the spec checkers.
//!
//! The client itself is [`Client`]: the timers it arms, the meals it counts
//! and the phase walk it observes. [`DiningDriverNode`] is the one host of a
//! diner and its client, generic over the [`DetectorLayer`] beneath the
//! diner: a fixed oracle handle (an injected ◇P, or none), a
//! [`HeartbeatFd`] under partial synchrony ([`run_full_stack`]), or
//! `dinefd-core`'s all-pairs reduction, whose extracted ◇P feeds the
//! Section 8 fair diner. The layer steps its own detector; the host builds
//! the diner's [`DiningIo`], routes its sends, reconciles the client's
//! phase and owns the diner tick.

use std::convert::Infallible;
use std::rc::Rc;

use dinefd_fd::heartbeat::{Alive, HbObs};
use dinefd_fd::{FdQuery, HeartbeatConfig, HeartbeatFd, SuspicionHistory};
use dinefd_sim::{
    Context, CrashPlan, DelayModel, Node, ProcessId, Time, TimerId, Trace, World, WorldConfig,
};

use crate::participant::{DiningIo, DiningMsg, DiningParticipant};
use crate::spec::DiningHistory;
use crate::state::{DinerPhase, DiningObs};

/// Client behaviour: how long to think and eat, and how many meals to seek.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Thinking duration, uniform in `[think_lo, think_hi]`.
    pub think_lo: u64,
    /// Upper bound of thinking duration.
    pub think_hi: u64,
    /// Eating duration, uniform in `[eat_lo, eat_hi]`.
    pub eat_lo: u64,
    /// Upper bound of eating duration.
    pub eat_hi: u64,
    /// Meals after which the client thinks forever (`None` = insatiable).
    pub meals: Option<u64>,
}

impl Workload {
    /// A busy default: short thinks, short meals, insatiable.
    pub fn busy() -> Self {
        Workload { think_lo: 1, think_hi: 10, eat_lo: 1, eat_hi: 8, meals: None }
    }

    /// A leisurely workload.
    pub fn relaxed() -> Self {
        Workload { think_lo: 20, think_hi: 100, eat_lo: 5, eat_hi: 20, meals: None }
    }
}

/// A call the client asks its host to make on the participant.
pub type ClientCall = fn(&mut dyn DiningParticipant, &mut DiningIo<'_>);

/// The think/eat client of one diner: it asks for a meal after a think,
/// ends the meal after an eat, and records every phase the diner crosses.
///
/// The client owns timers [`Client::GET_HUNGRY`] and [`Client::STOP_EATING`];
/// its host keeps every other id for itself and calls
/// [`Client::sync_phase`] after each call into the participant.
#[derive(Clone, Copy, Debug)]
pub struct Client {
    workload: Workload,
    meals_eaten: u64,
    last_phase: DinerPhase,
}

impl Client {
    /// Fires when the think is over.
    pub const GET_HUNGRY: TimerId = TimerId(1);
    /// Fires when the meal is over.
    pub const STOP_EATING: TimerId = TimerId(2);

    /// A client that has eaten nothing, over a thinking diner.
    pub fn new(workload: Workload) -> Self {
        Client { workload, meals_eaten: 0, last_phase: DinerPhase::Thinking }
    }

    /// Meals completed.
    pub fn meals_eaten(&self) -> u64 {
        self.meals_eaten
    }

    /// Arms the first think.
    pub fn on_start<M, O>(&self, ctx: &mut Context<'_, M, O>) {
        let d = ctx.rng().range(self.workload.think_lo, self.workload.think_hi);
        ctx.set_timer(d, Self::GET_HUNGRY);
    }

    /// One of the client's timers fired while the diner is in `phase`: the
    /// call to make on the participant, if any.
    pub fn on_timer<M, O>(
        &self,
        ctx: &mut Context<'_, M, O>,
        timer: TimerId,
        phase: DinerPhase,
    ) -> Option<ClientCall> {
        match (timer, phase) {
            (Self::GET_HUNGRY, DinerPhase::Thinking) => Some(|p, io| p.hungry(io)),
            // A protocol with a non-immediate exit: try again shortly.
            (Self::GET_HUNGRY, DinerPhase::Exiting) => {
                ctx.set_timer(1, Self::GET_HUNGRY);
                None
            }
            (Self::STOP_EATING, DinerPhase::Eating) => Some(|p, io| p.exit_eating(io)),
            _ => None,
        }
    }

    /// Observes (through `wrap_obs`) each phase the diner crossed since the
    /// last call — a participant can move several steps within one
    /// invocation, e.g. hungry→eating or eating→exiting→thinking — and
    /// schedules the client's next move for the phase it arrived in.
    pub fn sync_phase<M, O>(
        &mut self,
        ctx: &mut Context<'_, M, O>,
        phase: DinerPhase,
        wrap_obs: impl Fn(DiningObs) -> O,
    ) {
        if phase == self.last_phase {
            return;
        }
        while self.last_phase != phase {
            self.last_phase = self.last_phase.next();
            ctx.observe(wrap_obs(DiningObs { instance: 0, phase: self.last_phase }));
        }
        match phase {
            DinerPhase::Eating => {
                let d = ctx.rng().range(self.workload.eat_lo, self.workload.eat_hi);
                ctx.set_timer(d, Self::STOP_EATING);
            }
            DinerPhase::Thinking => {
                self.meals_eaten += 1;
                if self.workload.meals.is_none_or(|m| self.meals_eaten < m) {
                    let d = ctx.rng().range(self.workload.think_lo, self.workload.think_hi);
                    ctx.set_timer(d, Self::GET_HUNGRY);
                }
            }
            _ => {}
        }
    }
}

/// A hosted process's message or observation: the detector layer's, or
/// the diner's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layered<F, D> {
    /// The detector layer's.
    Fd(F),
    /// The diner's.
    Dine(D),
}

impl<F, D> From<F> for Layered<F, D> {
    fn from(f: F) -> Self {
        Layered::Fd(f)
    }
}

/// The messages of a host whose detector layer sends `M`.
pub type HostMsg<M> = Layered<M, DiningMsg>;
/// The observations of a host whose detector layer observes `O`.
pub type HostObs<O> = Layered<O, DiningObs>;
/// The step context of a host over layer `L`.
pub type LayerCtx<'a, L> =
    Context<'a, HostMsg<<L as DetectorLayer>::Msg>, HostObs<<L as DetectorLayer>::Obs>>;

/// The failure-detector layer beneath a hosted diner: it steps its own
/// detector and hands the diner the [`FdQuery`] it reads.
///
/// In a step that runs both, the layer runs first, so the diner reads the
/// detector as that step left it. A layer sends and observes through
/// [`Layered::Fd`]; its own timers take ids 3 and up (0 is the diner tick,
/// 1 and 2 are the client's). Each hook's place in the host's step is part
/// of the run: effects leave a step in push order.
pub trait DetectorLayer {
    /// The layer's own messages.
    type Msg: Clone + std::fmt::Debug;
    /// The layer's own observations.
    type Obs: Clone + std::fmt::Debug;
    /// Re-arm the diner tick before the diner's tick step instead of after
    /// it (a tick and a client timer due at one instant fire in arming
    /// order).
    const TICK_FIRST: bool = false;

    /// The detector the diner queries.
    fn fd(&self) -> &dyn FdQuery;

    /// The layer's start step; the host then arms the diner tick and the
    /// client's first think.
    fn on_start(&mut self, _ctx: &mut LayerCtx<'_, Self>) {}

    /// A layer message arrived; `true` asks the host to re-tick the diner.
    fn on_message(&mut self, ctx: &mut LayerCtx<'_, Self>, from: ProcessId, msg: Self::Msg)
        -> bool;

    /// The diner tick is due: the layer's step before the diner's.
    fn on_tick(&mut self, _ctx: &mut LayerCtx<'_, Self>) {}

    /// One of the layer's own timers fired.
    fn on_timer(&mut self, _ctx: &mut LayerCtx<'_, Self>, _timer: TimerId) {}
}

/// A fixed oracle handle: no traffic and no step of its own. The diner
/// tick is re-armed before the diner steps.
impl DetectorLayer for Rc<dyn FdQuery> {
    type Msg = Infallible;
    type Obs = Infallible;
    const TICK_FIRST: bool = true;

    fn fd(&self) -> &dyn FdQuery {
        &**self
    }

    fn on_message(&mut self, _: &mut LayerCtx<'_, Self>, _: ProcessId, msg: Infallible) -> bool {
        match msg {}
    }
}

const HB_TICK: TimerId = TimerId(3);

/// A heartbeat ◇P: the diner reads the module's own output, and re-checks
/// whenever an `Alive` clears a suspicion.
impl DetectorLayer for HeartbeatFd {
    type Msg = Alive;
    type Obs = HbObs;

    fn fd(&self) -> &dyn FdQuery {
        self
    }

    fn on_start(&mut self, ctx: &mut LayerCtx<'_, Self>) {
        beat(self, ctx);
    }

    fn on_message(&mut self, ctx: &mut LayerCtx<'_, Self>, from: ProcessId, _: Alive) -> bool {
        self.handle_alive(from).map(|obs| ctx.observe(Layered::Fd(obs))).is_some()
    }

    fn on_timer(&mut self, ctx: &mut LayerCtx<'_, Self>, _: TimerId) {
        for obs in self.handle_period(ctx.me()) {
            ctx.observe(Layered::Fd(obs));
        }
        beat(self, ctx);
    }
}

/// Broadcasts `Alive` and arms the next period.
fn beat(hb: &HeartbeatFd, ctx: &mut LayerCtx<'_, HeartbeatFd>) {
    let me = ctx.me();
    for q in hb.peers(me) {
        ctx.send(q, Layered::Fd(Alive));
    }
    ctx.set_timer(hb.period(), HB_TICK);
}

const TICK: TimerId = TimerId(0);
const TICK_EVERY: u64 = 4;

/// One process: a dining participant and its driving client, over the
/// detector layer `L` the participant queries.
pub struct DiningDriverNode<L = Rc<dyn FdQuery>> {
    layer: L,
    participant: Box<dyn DiningParticipant>,
    client: Client,
}

impl<L> std::fmt::Debug for DiningDriverNode<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiningDriverNode")
            .field("participant", &self.participant)
            .field("meals_eaten", &self.client.meals_eaten())
            .finish()
    }
}

impl DiningDriverNode {
    /// Hosts `participant` with the given oracle handle and client workload.
    pub fn new(
        participant: Box<dyn DiningParticipant>,
        fd: Rc<dyn FdQuery>,
        workload: Workload,
    ) -> Self {
        DiningDriverNode::over(fd, participant, workload)
    }
}

impl<L: DetectorLayer> DiningDriverNode<L> {
    /// Hosts `participant` over `layer`, with a client playing `workload`.
    pub fn over(layer: L, participant: Box<dyn DiningParticipant>, workload: Workload) -> Self {
        DiningDriverNode { layer, participant, client: Client::new(workload) }
    }

    /// Meals completed by this client.
    pub fn meals_eaten(&self) -> u64 {
        self.client.meals_eaten()
    }

    /// Read access to the hosted participant.
    pub fn participant(&self) -> &dyn DiningParticipant {
        &*self.participant
    }

    /// Runs `f` against the participant with a fresh `DiningIo` over the
    /// layer's detector, then routes the sends and lets the client
    /// reconcile the phase.
    fn invoke(
        &mut self,
        ctx: &mut LayerCtx<'_, L>,
        f: impl FnOnce(&mut dyn DiningParticipant, &mut DiningIo<'_>),
    ) {
        let mut io = DiningIo::new(ctx.me(), ctx.now(), self.layer.fd());
        f(&mut *self.participant, &mut io);
        for (to, msg) in io.finish().sends {
            ctx.send(to, Layered::Dine(msg));
        }
        self.client.sync_phase(ctx, self.participant.phase(), Layered::Dine);
    }
}

impl<L: DetectorLayer> Node for DiningDriverNode<L> {
    type Msg = HostMsg<L::Msg>;
    type Obs = HostObs<L::Obs>;

    fn on_start(&mut self, ctx: &mut LayerCtx<'_, L>) {
        self.layer.on_start(ctx);
        ctx.set_timer(TICK_EVERY, TICK);
        self.client.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut LayerCtx<'_, L>, from: ProcessId, msg: HostMsg<L::Msg>) {
        match msg {
            Layered::Fd(m) => {
                if self.layer.on_message(ctx, from, m) {
                    self.invoke(ctx, |p, io| p.on_tick(io));
                }
            }
            Layered::Dine(m) => self.invoke(ctx, |p, io| p.on_message(io, from, m)),
        }
    }

    fn on_timer(&mut self, ctx: &mut LayerCtx<'_, L>, timer: TimerId) {
        match timer {
            TICK => {
                if L::TICK_FIRST {
                    ctx.set_timer(TICK_EVERY, TICK);
                }
                self.layer.on_tick(ctx);
                self.invoke(ctx, |p, io| p.on_tick(io));
                if !L::TICK_FIRST {
                    ctx.set_timer(TICK_EVERY, TICK);
                }
            }
            Client::GET_HUNGRY | Client::STOP_EATING => {
                if let Some(call) = self.client.on_timer(ctx, timer, self.participant.phase()) {
                    self.invoke(ctx, call);
                }
            }
            timer => self.layer.on_timer(ctx, timer),
        }
    }
}

/// Rebuilds the dining history of instance `instance` from a hosted run's
/// recording.
pub fn collect_history<O>(n: usize, trace: &Trace<HostObs<O>>, instance: u32) -> DiningHistory {
    let mut h = DiningHistory::new(n);
    for (at, pid, obs) in trace.observations() {
        if let Layered::Dine(d) = obs {
            if d.instance == instance {
                h.record(at, pid, d.phase);
            }
        }
    }
    h
}

/// Runs `nodes` under `cfg` until `horizon` and folds the trace into the
/// diner's phase history and the detector layer's suspicion history, whose
/// changes `suspicion` reads off the layer's observations.
pub fn run_hosted<L: DetectorLayer>(
    nodes: Vec<DiningDriverNode<L>>,
    cfg: WorldConfig,
    horizon: Time,
    initially_suspected: bool,
    suspicion: impl Fn(&L::Obs) -> Option<(ProcessId, bool)>,
) -> (DiningHistory, SuspicionHistory) {
    let n = nodes.len();
    let mut world = World::new(nodes, cfg);
    world.run_until(horizon);
    let mut dining = collect_history(n, world.trace(), 0);
    dining.set_horizon(horizon);
    let mut fd = SuspicionHistory::new(n, initially_suspected);
    for (at, pid, obs) in world.trace().observations() {
        if let Some((subject, suspected)) = match obs {
            Layered::Fd(o) => suspicion(o),
            Layered::Dine(_) => None,
        } {
            fd.record(at, pid, subject, suspected);
        }
    }
    (dining, fd)
}

/// Result of a full-stack run.
#[derive(Debug)]
pub struct FullStackResult {
    /// The dining layer's phase history.
    pub dining: DiningHistory,
    /// The heartbeat layer's suspicion history.
    pub fd: SuspicionHistory,
    /// The run's crash plan.
    pub crashes: CrashPlan,
    /// Run length.
    pub horizon: Time,
}

/// Runs the full stack on `graph`: a heartbeat ◇P, correct under partial
/// synchrony with stabilisation at `gst`, feeding the diners `mk` builds.
/// This is the sufficiency direction of the paper's equivalence with no
/// injected oracle; the reduction of `dinefd-core` applied to such a diner
/// extracts ◇P again (the `full_stack` example shows the chain).
pub fn run_full_stack(
    graph: &crate::ConflictGraph,
    mk: impl Fn(ProcessId, &[ProcessId]) -> Box<dyn DiningParticipant>,
    seed: u64,
    gst: Time,
    crashes: CrashPlan,
    horizon: Time,
    workload: Workload,
) -> FullStackResult {
    let n = graph.len();
    let nodes = ProcessId::all(n)
        .map(|p| {
            let hb = HeartbeatFd::new(HeartbeatConfig::new(n));
            DiningDriverNode::over(hb, mk(p, graph.neighbors(p)), workload)
        })
        .collect();
    let cfg = WorldConfig::new(seed)
        .delays(DelayModel::partially_synchronous(gst, 6))
        .crashes(crashes.clone());
    let (dining, fd) = run_hosted(nodes, cfg, horizon, false, |o| Some((o.subject, o.suspected)));
    FullStackResult { dining, fd, crashes, horizon }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ConflictGraph;
    use crate::hygienic::HygienicDining;
    use crate::participant::NoOracle;
    use crate::wfdx::WfDxDining;
    use dinefd_fd::InjectedOracle;
    use dinefd_sim::{CrashPlan, DelayModel, SplitMix64, Time, World, WorldConfig};

    fn run_ring<F>(n: usize, seed: u64, crashes: CrashPlan, horizon: Time, mk: F) -> DiningHistory
    where
        F: Fn(ProcessId, &[ProcessId]) -> Box<dyn DiningParticipant>,
    {
        let graph = ConflictGraph::ring(n);
        let fd: Rc<dyn FdQuery> = Rc::new(NoOracle(n));
        let nodes: Vec<DiningDriverNode> = ProcessId::all(n)
            .map(|p| {
                DiningDriverNode::new(mk(p, graph.neighbors(p)), Rc::clone(&fd), Workload::busy())
            })
            .collect();
        let cfg = WorldConfig::new(seed).crashes(crashes);
        let mut world = World::new(nodes, cfg);
        world.run_until(horizon);
        let mut h = collect_history(n, world.trace(), 0);
        h.set_horizon(horizon);
        h
    }

    #[test]
    fn hygienic_ring_failure_free_is_exclusive_and_live() {
        let n = 5;
        let h = run_ring(n, 42, CrashPlan::none(), Time(20_000), |p, nbrs| {
            Box::new(HygienicDining::new(p, nbrs))
        });
        assert!(h.legal_transitions().is_ok());
        let g = ConflictGraph::ring(n);
        assert!(
            h.exclusion_violations(&g, &CrashPlan::none()).is_empty(),
            "hygienic must be perpetually exclusive"
        );
        assert!(h.wait_freedom(&CrashPlan::none(), 2_000).is_ok());
        for p in ProcessId::all(n) {
            assert!(h.session_count(p) > 10, "{p} ate only {} times", h.session_count(p));
        }
    }

    #[test]
    fn hygienic_is_not_wait_free_under_crash() {
        // p0 crashes while (probably) holding forks; some neighbor starves.
        let n = 4;
        let plan = CrashPlan::one(ProcessId(0), Time(500));
        let h = run_ring(n, 7, plan.clone(), Time(30_000), |p, nbrs| {
            Box::new(HygienicDining::new(p, nbrs))
        });
        // Either a neighbor starves, or (rarely) the crash missed every fork;
        // across a few seeds starvation must appear.
        let starved_here = h.wait_freedom(&plan, 5_000).is_err();
        let mut starved_any = starved_here;
        for seed in [8, 9, 10, 11] {
            let plan = CrashPlan::one(ProcessId(0), Time(500));
            let h = run_ring(n, seed, plan.clone(), Time(30_000), |p, nbrs| {
                Box::new(HygienicDining::new(p, nbrs))
            });
            starved_any |= h.wait_freedom(&plan, 5_000).is_err();
        }
        assert!(starved_any, "crash-oblivious dining should starve someone in some run");
    }

    #[test]
    fn wfdx_ring_with_crash_is_wait_free_and_converges() {
        let n = 5;
        let plan = CrashPlan::one(ProcessId(2), Time(1_000));
        let graph = ConflictGraph::ring(n);
        let mut rng = SplitMix64::new(99);
        let oracle = InjectedOracle::diamond_p(n, plan.clone(), 50, Time(3_000), 4, 200, &mut rng);
        let fd: Rc<dyn FdQuery> = Rc::new(oracle);
        let nodes: Vec<DiningDriverNode> = ProcessId::all(n)
            .map(|p| {
                DiningDriverNode::new(
                    Box::new(WfDxDining::new(p, graph.neighbors(p))),
                    Rc::clone(&fd),
                    Workload::busy(),
                )
            })
            .collect();
        let cfg = WorldConfig::new(5).crashes(plan.clone()).delays(DelayModel::harsh());
        let mut world = World::new(nodes, cfg);
        world.run_until(Time(60_000));
        let mut h = collect_history(n, world.trace(), 0);
        h.set_horizon(Time(60_000));
        assert!(h.legal_transitions().is_ok());
        assert!(h.wait_freedom(&plan, 10_000).is_ok(), "wfdx must be wait-free");
        // ◇WX: violations (if any) must end well before the horizon.
        let converged = h.wx_converged_from(&graph, &plan);
        assert!(converged < Time(20_000), "exclusion violations persist too long: {converged:?}");
        for p in plan.correct(n) {
            assert!(h.session_count(p) > 10, "{p} ate only {} times", h.session_count(p));
        }
    }
}
