//! The Section 8 corollary: any WF-◇WX black box can be upgraded to
//! **eventually 2-fair** dining by (1) extracting ◇P with the reduction and
//! (2) feeding the extracted detector to a ◇P-based fair dining algorithm
//! (the paper's reference \[13\]; here
//! [`dinefd_dining::fair::FairWfDxDining`]).
//!
//! [`FairOverExtractionNode`] realizes the composition *online* inside one
//! process: it hosts the full reduction machinery (all monitoring pairs this
//! process participates in), mirrors every extracted suspicion change into a
//! [`SharedSuspicion`] cell, and runs a fair dining participant (plus a
//! think/eat client) whose failure-detector queries read that cell. The
//! fair dining layer therefore consumes exactly the oracle the reduction
//! produces — no injected detector is visible to it.

use std::sync::Arc;

use dinefd_dining::driver::{Client, Workload};
use dinefd_dining::fair::FairWfDxDining;
use dinefd_dining::{
    ConflictGraph, DiningHistory, DiningIo, DiningMsg, DiningObs, DiningParticipant,
};
use dinefd_fd::SuspicionHistory;
use dinefd_sim::{
    Context, CrashPlan, DelayModel, Node, ProcessId, SplitMix64, Time, TimerId, World, WorldConfig,
};

use crate::detector::SharedSuspicion;
use crate::host::{Oracle, Out, RedMsg, RedObs, ReductionNode};
use crate::scenario::{all_ordered_pairs, factory_for, BlackBox, OracleSpec};

/// Messages of the composed system.
#[derive(Clone, Debug)]
pub enum FoeMsg {
    /// Reduction-layer traffic.
    Red(RedMsg),
    /// Fair-dining-layer traffic.
    Dine(DiningMsg),
}

/// Observations of the composed system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FoeObs {
    /// Reduction-layer observation.
    Red(RedObs),
    /// Fair-dining-layer observation.
    Dine(DiningObs),
}

const TICK: TimerId = TimerId(0);

/// One process of the composed system: reduction + extracted-◇P-driven fair
/// dining + client workload.
pub struct FairOverExtractionNode {
    red: ReductionNode,
    cell: SharedSuspicion,
    dining: FairWfDxDining,
    client: Client,
    tick_every: u64,
    /// Pooled reduction-effect buffer (see [`Out`]): reused across steps so
    /// the composed hot loop stays allocation-free.
    red_out: Out,
}

impl std::fmt::Debug for FairOverExtractionNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FairOverExtractionNode")
            .field("red", &self.red)
            .field("meals_eaten", &self.client.meals_eaten())
            .finish()
    }
}

impl FairOverExtractionNode {
    /// Builds the node for `me`: full all-pairs reduction over `black_box`
    /// (whose dining instances consume `oracle`), and a fair dining
    /// participant on `graph` consuming the *extracted* detector.
    pub fn new(
        me: ProcessId,
        n: usize,
        graph: &ConflictGraph,
        black_box: BlackBox,
        oracle: Oracle,
        workload: Workload,
        strict_seq: bool,
    ) -> Self {
        let pairs = all_ordered_pairs(n);
        let factory = factory_for(black_box);
        let red = ReductionNode::new(me, &pairs, &factory, oracle, strict_seq);
        FairOverExtractionNode {
            red,
            cell: SharedSuspicion::new(n),
            dining: FairWfDxDining::new(me, graph.neighbors(me)),
            client: Client::new(workload),
            tick_every: 4,
            red_out: Out::default(),
        }
    }

    /// Runs one reduction step through the pooled effect buffer and routes
    /// the effects into the context, updating the shared suspicion cell on
    /// the way.
    fn step_red(
        &mut self,
        ctx: &mut Context<'_, FoeMsg, FoeObs>,
        f: impl FnOnce(&mut ReductionNode, &mut Out),
    ) {
        let mut out = std::mem::take(&mut self.red_out);
        out.clear();
        f(&mut self.red, &mut out);
        for (to, msg) in out.sends.drain(..) {
            ctx.send(to, FoeMsg::Red(msg));
        }
        for obs in out.obs.drain(..) {
            if let RedObs::Suspicion { subject, suspected } = obs {
                self.cell.set(subject, suspected);
            }
            ctx.observe(FoeObs::Red(obs));
        }
        self.red_out = out;
    }

    /// Runs `f` against the fair diner, whose oracle is the extracted one,
    /// then routes the sends and lets the client reconcile the phase.
    fn invoke_dining(
        &mut self,
        ctx: &mut Context<'_, FoeMsg, FoeObs>,
        f: impl FnOnce(&mut dyn DiningParticipant, &mut DiningIo<'_>),
    ) {
        let mut io = DiningIo::new(ctx.me(), ctx.now(), &self.cell);
        f(&mut self.dining, &mut io);
        for (to, msg) in io.finish().sends {
            ctx.send(to, FoeMsg::Dine(msg));
        }
        self.client.sync_phase(ctx, self.dining.phase(), FoeObs::Dine);
    }
}

impl Node for FairOverExtractionNode {
    type Msg = FoeMsg;
    type Obs = FoeObs;

    fn on_start(&mut self, ctx: &mut Context<'_, FoeMsg, FoeObs>) {
        let now = ctx.now();
        self.step_red(ctx, |red, out| red.handle_start_into(now, out));
        ctx.set_timer(self.tick_every, TICK);
        self.client.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, FoeMsg, FoeObs>, from: ProcessId, msg: FoeMsg) {
        match msg {
            FoeMsg::Red(m) => {
                let now = ctx.now();
                self.step_red(ctx, |red, out| red.handle_message_into(from, m, now, out));
            }
            FoeMsg::Dine(m) => self.invoke_dining(ctx, |p, io| p.on_message(io, from, m)),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, FoeMsg, FoeObs>, timer: TimerId) {
        if timer == TICK {
            let now = ctx.now();
            self.step_red(ctx, |red, out| red.handle_tick_into(now, out));
            self.invoke_dining(ctx, |p, io| p.on_tick(io));
            ctx.set_timer(self.tick_every, TICK);
        } else if let Some(call) = self.client.on_timer(ctx, timer, self.dining.phase()) {
            self.invoke_dining(ctx, call);
        }
    }
}

/// Result of a fairness-composition run.
#[derive(Debug)]
pub struct FairnessResult {
    /// Phase history of the fair dining layer.
    pub dining: DiningHistory,
    /// The extracted detector's history (from the embedded reduction).
    pub extracted: SuspicionHistory,
    /// Crash plan of the run.
    pub crashes: CrashPlan,
    /// Run length.
    pub horizon: Time,
}

/// Runs the full Section 8 pipeline: reduction over `black_box` → extracted
/// ◇P → eventually-2-fair dining on `graph`.
#[allow(clippy::too_many_arguments)]
pub fn run_fair_over_extraction(
    graph: &ConflictGraph,
    black_box: BlackBox,
    oracle: OracleSpec,
    seed: u64,
    delays: DelayModel,
    crashes: CrashPlan,
    horizon: Time,
    workload: Workload,
) -> FairnessResult {
    let n = graph.len();
    let mut rng = SplitMix64::new(seed ^ 0xFA1F);
    let oracle: Oracle = Arc::new(oracle.build(n, crashes.clone(), &mut rng));
    let nodes: Vec<FairOverExtractionNode> = ProcessId::all(n)
        .map(|me| {
            FairOverExtractionNode::new(
                me,
                n,
                graph,
                black_box,
                Arc::clone(&oracle),
                workload,
                false,
            )
        })
        .collect();
    let cfg = WorldConfig::new(seed).delays(delays).crashes(crashes.clone());
    let mut world = World::new(nodes, cfg);
    world.run_until(horizon);
    let trace = world.into_trace();
    let mut dining = DiningHistory::new(n);
    let mut extracted = SuspicionHistory::new(n, true);
    for (at, pid, obs) in trace.observations() {
        match obs {
            FoeObs::Dine(d) => dining.record(at, pid, d.phase),
            FoeObs::Red(RedObs::Suspicion { subject, suspected }) => {
                extracted.record(at, pid, *subject, *suspected);
            }
            FoeObs::Red(_) => {}
        }
    }
    dining.set_horizon(horizon);
    FairnessResult { dining, extracted, crashes, horizon }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_over_extraction_is_live_fair_and_eventually_exclusive() {
        let graph = ConflictGraph::ring(4);
        let res = run_fair_over_extraction(
            &graph,
            BlackBox::WfDx,
            OracleSpec::DiamondP {
                lag: 20,
                convergence: Time(1_500),
                max_mistakes: 2,
                max_len: 100,
            },
            21,
            DelayModel::default_async(),
            CrashPlan::none(),
            Time(40_000),
            Workload::busy(),
        );
        // The extracted detector converged to trust (failure-free run).
        assert!(res.extracted.eventual_strong_accuracy(&res.crashes).is_ok());
        // The fair dining layer is live and legal.
        assert!(res.dining.legal_transitions().is_ok());
        assert!(res.dining.wait_freedom(&res.crashes, 8_000).is_ok());
        // Eventually exclusive...
        let converged = res.dining.wx_converged_from(&graph, &res.crashes);
        assert!(converged < Time(30_000), "dining violations persist: {converged:?}");
        // ...and eventually 2-fair (allow the announcement-latency slack of
        // one extra overtake at a spell boundary).
        let k = res.dining.max_overtaking(&graph, &res.crashes, converged.max(Time(10_000)));
        assert!(k <= 3, "suffix overtaking {k} exceeds bound");
        for p in ProcessId::all(4) {
            assert!(res.dining.session_count(p) > 5, "{p} barely ate");
        }
    }

    #[test]
    fn fair_over_extraction_tolerates_crash() {
        let graph = ConflictGraph::ring(4);
        let res = run_fair_over_extraction(
            &graph,
            BlackBox::WfDx,
            OracleSpec::DiamondP {
                lag: 20,
                convergence: Time(1_500),
                max_mistakes: 2,
                max_len: 100,
            },
            23,
            DelayModel::default_async(),
            CrashPlan::one(ProcessId(1), Time(5_000)),
            Time(50_000),
            Workload::busy(),
        );
        assert!(res.extracted.strong_completeness(&res.crashes).is_ok());
        assert!(
            res.dining.wait_freedom(&res.crashes, 10_000).is_ok(),
            "crash must not starve the fair layer"
        );
    }
}
