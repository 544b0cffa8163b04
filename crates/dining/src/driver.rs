//! Workload driver: hosts one [`DiningParticipant`] per process inside the
//! simulator and plays a think/eat client against it.
//!
//! The driver is the "application layer" of a standalone dining experiment:
//! it decides *when* to become hungry and *how long* to eat (both sampled
//! from the node-local deterministic RNG), while the participant decides
//! *whether* eating may start. Phase changes are recorded as
//! [`DiningObs`] observations, from which [`collect_history`] rebuilds a
//! [`DiningHistory`] for the spec checkers.
//!
//! The client itself is [`Client`]: the timers it arms, the meals it counts
//! and the phase walk it observes, generic over the hosting node's message
//! and observation types. [`DiningDriverNode`] hosts it over a bare
//! participant; `dinefd-core`'s Section 8 node hosts the same client over a
//! fair diner fed by the extracted detector, and the root crate's full
//! stack over a diner fed by a heartbeat detector.

use std::rc::Rc;

use dinefd_fd::FdQuery;
use dinefd_sim::{Context, Node, ProcessId, TimerId, Trace};

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
/// the hosting node keeps every other id (its periodic tick) for itself and
/// calls [`Client::sync_phase`] after each call into the participant.
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
            (Self::GET_HUNGRY | Self::STOP_EATING, _) => None,
            (other, _) => {
                debug_assert!(false, "unknown timer {other:?}");
                None
            }
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

const TICK: TimerId = TimerId(0);

/// One process: a dining participant plus its driving client.
pub struct DiningDriverNode {
    participant: Box<dyn DiningParticipant>,
    fd: Rc<dyn FdQuery>,
    client: Client,
    tick_every: u64,
}

impl std::fmt::Debug for DiningDriverNode {
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
        DiningDriverNode { participant, fd, client: Client::new(workload), tick_every: 4 }
    }

    /// Meals completed by this client.
    pub fn meals_eaten(&self) -> u64 {
        self.client.meals_eaten()
    }

    /// Read access to the hosted participant.
    pub fn participant(&self) -> &dyn DiningParticipant {
        &*self.participant
    }

    /// Runs `f` against the participant with a fresh `DiningIo`, then routes
    /// the sends and lets the client reconcile the phase.
    fn invoke(
        &mut self,
        ctx: &mut Context<'_, DiningMsg, DiningObs>,
        f: impl FnOnce(&mut dyn DiningParticipant, &mut DiningIo<'_>),
    ) {
        let mut io = DiningIo::new(ctx.me(), ctx.now(), &*self.fd);
        f(&mut *self.participant, &mut io);
        for (to, msg) in io.finish().sends {
            ctx.send(to, msg);
        }
        self.client.sync_phase(ctx, self.participant.phase(), |obs| obs);
    }
}

impl Node for DiningDriverNode {
    type Msg = DiningMsg;
    type Obs = DiningObs;

    fn on_start(&mut self, ctx: &mut Context<'_, DiningMsg, DiningObs>) {
        ctx.set_timer(self.tick_every, TICK);
        self.client.on_start(ctx);
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, DiningMsg, DiningObs>,
        from: ProcessId,
        msg: DiningMsg,
    ) {
        self.invoke(ctx, |p, io| p.on_message(io, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, DiningMsg, DiningObs>, timer: TimerId) {
        if timer == TICK {
            ctx.set_timer(self.tick_every, TICK);
            self.invoke(ctx, |p, io| p.on_tick(io));
        } else if let Some(call) = self.client.on_timer(ctx, timer, self.participant.phase()) {
            self.invoke(ctx, call);
        }
    }
}

/// Rebuilds the dining history of instance `instance` from a run trace.
pub fn collect_history(
    n: usize,
    trace: &Trace<DiningMsg, DiningObs>,
    instance: u32,
) -> DiningHistory {
    let mut h = DiningHistory::new(n);
    for (at, pid, obs) in trace.observations() {
        if obs.instance == instance {
            h.record(at, pid, obs.phase);
        }
    }
    h
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
