//! Full-stack composition: a *real* heartbeat ◇P (correct under partial
//! synchrony) feeding the ◇P-based dining layer — the sufficiency direction
//! of the paper's equivalence, built end-to-end without any injected oracle.
//!
//! Each [`HeartbeatDiningNode`] hosts:
//!
//! 1. a [`HeartbeatFd`] module broadcasting `Alive` and adapting timeouts;
//! 2. a [`SharedSuspicion`] cell mirroring the module's current output;
//! 3. any [`DiningParticipant`] whose oracle queries read that cell;
//! 4. the think/eat [`Client`] driving the participant.
//!
//! Run under [`DelayModel::partially_synchronous`], the heartbeat layer is a
//! genuine ◇P, so the dining layer above it satisfies WF-◇WX — and applying
//! the reduction of `dinefd-core` to *that* dining service would extract ◇P
//! again, closing the paper's equivalence loop (the `full_stack` example
//! demonstrates the chain).

use dinefd_core::SharedSuspicion;
use dinefd_dining::driver::{Client, Workload};
use dinefd_dining::{
    ConflictGraph, DiningHistory, DiningIo, DiningMsg, DiningObs, DiningParticipant,
};
use dinefd_fd::heartbeat::{Alive, HbObs};
use dinefd_fd::{HeartbeatConfig, HeartbeatFd, SuspicionHistory};
use dinefd_sim::{
    Context, CrashPlan, DelayModel, Node, ProcessId, Time, TimerId, World, WorldConfig,
};

/// Messages of the composed stack.
#[derive(Clone, Debug)]
pub enum FsMsg {
    /// Heartbeat-layer traffic.
    Hb(Alive),
    /// Dining-layer traffic.
    Dine(DiningMsg),
}

/// Observations of the composed stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsObs {
    /// Heartbeat-layer output change.
    Fd(HbObs),
    /// Dining-layer phase change.
    Dine(DiningObs),
}

// Ids 1 and 2 are the client's.
const HB_TICK: TimerId = TimerId(0);
const DINE_TICK: TimerId = TimerId(3);

/// One process: heartbeat ◇P + dining participant + client.
pub struct HeartbeatDiningNode {
    hb: HeartbeatFd,
    cell: SharedSuspicion,
    dining: Box<dyn DiningParticipant>,
    client: Client,
}

impl std::fmt::Debug for HeartbeatDiningNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeartbeatDiningNode")
            .field("dining", &self.dining)
            .field("meals_eaten", &self.client.meals_eaten())
            .finish()
    }
}

impl HeartbeatDiningNode {
    /// Composes a heartbeat module (over `n` processes) with a dining
    /// participant and a client workload. The heartbeat initially trusts
    /// everyone, and so does the cell.
    pub fn new(
        n: usize,
        hb_cfg: HeartbeatConfig,
        dining: Box<dyn DiningParticipant>,
        workload: Workload,
    ) -> Self {
        let cell = SharedSuspicion::new(n);
        for q in ProcessId::all(n) {
            cell.set(q, false); // heartbeat detectors start trusting
        }
        HeartbeatDiningNode {
            hb: HeartbeatFd::new(hb_cfg),
            cell,
            dining,
            client: Client::new(workload),
        }
    }

    /// Meals completed by the client.
    pub fn meals_eaten(&self) -> u64 {
        self.client.meals_eaten()
    }

    /// The heartbeat module (for timeout inspection).
    pub fn heartbeat(&self) -> &HeartbeatFd {
        &self.hb
    }

    fn apply_fd_obs(&mut self, obs: HbObs, ctx: &mut Context<'_, FsMsg, FsObs>) {
        self.cell.set(obs.subject, obs.suspected);
        ctx.observe(FsObs::Fd(obs));
    }

    fn invoke_dining(
        &mut self,
        ctx: &mut Context<'_, FsMsg, FsObs>,
        f: impl FnOnce(&mut dyn DiningParticipant, &mut DiningIo<'_>),
    ) {
        let mut io = DiningIo::new(ctx.me(), ctx.now(), &self.cell);
        f(&mut *self.dining, &mut io);
        for (to, msg) in io.finish().sends {
            ctx.send(to, FsMsg::Dine(msg));
        }
        self.client.sync_phase(ctx, self.dining.phase(), FsObs::Dine);
    }
}

impl Node for HeartbeatDiningNode {
    type Msg = FsMsg;
    type Obs = FsObs;

    fn on_start(&mut self, ctx: &mut Context<'_, FsMsg, FsObs>) {
        let me = ctx.me();
        let peers: Vec<ProcessId> = self.hb.peers(me).collect();
        for q in peers {
            ctx.send(q, FsMsg::Hb(Alive));
        }
        ctx.set_timer(self.hb.period(), HB_TICK);
        ctx.set_timer(4, DINE_TICK);
        self.client.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, FsMsg, FsObs>, from: ProcessId, msg: FsMsg) {
        match msg {
            FsMsg::Hb(Alive) => {
                if let Some(obs) = self.hb.handle_alive(from) {
                    self.apply_fd_obs(obs, ctx);
                    // Suspicion cleared: the dining layer should re-check.
                    self.invoke_dining(ctx, |p, io| p.on_tick(io));
                }
            }
            FsMsg::Dine(m) => {
                self.invoke_dining(ctx, |p, io| p.on_message(io, from, m));
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, FsMsg, FsObs>, timer: TimerId) {
        match timer {
            HB_TICK => {
                let me = ctx.me();
                for obs in self.hb.handle_period(me) {
                    self.apply_fd_obs(obs, ctx);
                }
                let peers: Vec<ProcessId> = self.hb.peers(me).collect();
                for q in peers {
                    ctx.send(q, FsMsg::Hb(Alive));
                }
                ctx.set_timer(self.hb.period(), HB_TICK);
            }
            DINE_TICK => {
                self.invoke_dining(ctx, |p, io| p.on_tick(io));
                ctx.set_timer(4, DINE_TICK);
            }
            timer => {
                if let Some(call) = self.client.on_timer(ctx, timer, self.dining.phase()) {
                    self.invoke_dining(ctx, call);
                }
            }
        }
    }
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

/// Runs the full stack (heartbeat ◇P under partial synchrony → ◇P-based
/// dining) on `graph` using the given participant factory.
pub fn run_full_stack(
    graph: &ConflictGraph,
    mk: impl Fn(ProcessId, &[ProcessId]) -> Box<dyn DiningParticipant>,
    seed: u64,
    gst: Time,
    crashes: CrashPlan,
    horizon: Time,
    workload: Workload,
) -> FullStackResult {
    let n = graph.len();
    let hb_cfg = HeartbeatConfig::new(n);
    let nodes: Vec<HeartbeatDiningNode> = ProcessId::all(n)
        .map(|p| HeartbeatDiningNode::new(n, hb_cfg, mk(p, graph.neighbors(p)), workload))
        .collect();
    let cfg = WorldConfig::new(seed)
        .delays(DelayModel::partially_synchronous(gst, 6))
        .crashes(crashes.clone());
    let mut world = World::new(nodes, cfg);
    world.run_until(horizon);
    let trace = world.into_trace();
    let mut dining = DiningHistory::new(n);
    let mut fd = SuspicionHistory::new(n, false);
    for (at, pid, obs) in trace.observations() {
        match obs {
            FsObs::Dine(d) => dining.record(at, pid, d.phase),
            FsObs::Fd(h) => fd.record(at, pid, h.subject, h.suspected),
        }
    }
    dining.set_horizon(horizon);
    FullStackResult { dining, fd, crashes, horizon }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinefd_dining::wfdx::WfDxDining;
    use dinefd_fd::OracleClass;

    #[test]
    fn full_stack_ring_with_crash() {
        let graph = ConflictGraph::ring(4);
        let res = run_full_stack(
            &graph,
            |p, nbrs| Box::new(WfDxDining::new(p, nbrs)),
            31,
            Time(3_000),
            CrashPlan::one(ProcessId(2), Time(8_000)),
            Time(80_000),
            Workload::relaxed(),
        );
        // The heartbeat layer is a genuine ◇P in this run…
        let classes = res.fd.classify(&res.crashes);
        assert!(classes.contains(&OracleClass::EventuallyPerfect), "fd classes: {classes:?}");
        // …so the dining layer above it is wait-free and eventually exclusive.
        assert!(res.dining.legal_transitions().is_ok());
        assert!(res.dining.wait_freedom(&res.crashes, 15_000).is_ok());
        let converged = res.dining.wx_converged_from(&graph, &res.crashes);
        assert!(converged < Time(60_000), "exclusion violations persist: {converged:?}");
        for p in res.crashes.correct(4) {
            assert!(res.dining.session_count(p) > 10, "{p} barely ate");
        }
    }
}
