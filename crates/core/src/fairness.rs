//! The Section 8 corollary: any WF-◇WX black box can be upgraded to
//! **eventually 2-fair** dining by (1) extracting ◇P with the reduction and
//! (2) feeding the extracted detector to a ◇P-based fair dining algorithm
//! (the paper's reference \[13\]; here
//! [`dinefd_dining::fair::FairWfDxDining`]).
//!
//! The composition runs *online* inside each process: the all-pairs
//! [`ReductionNode`] is the [`DetectorLayer`] beneath a fair diner hosted
//! by [`DiningDriverNode`]. The reduction steps on the diner's tick, before
//! the diner, and the diner's failure-detector queries read the
//! reduction's own output ([`ReductionNode::suspects`]) — no injected
//! detector is visible to it.

use std::sync::Arc;

use dinefd_dining::driver::{run_hosted, DetectorLayer, DiningDriverNode, LayerCtx, Workload};
use dinefd_dining::fair::FairWfDxDining;
use dinefd_dining::{ConflictGraph, DiningHistory};
use dinefd_fd::{FdQuery, SuspicionHistory};
use dinefd_sim::{CrashPlan, DelayModel, ProcessId, SplitMix64, Time, WorldConfig};

use crate::host::{Oracle, RedMsg, RedObs, ReductionNode};
use crate::scenario::{all_ordered_pairs, factory_for, BlackBox, OracleSpec};

/// The reduction beneath a diner: its traffic and observations pass
/// through the host, and it takes one tick step per diner tick.
impl DetectorLayer for ReductionNode {
    type Msg = RedMsg;
    type Obs = RedObs;

    fn fd(&self) -> &dyn FdQuery {
        self
    }

    fn on_start(&mut self, ctx: &mut LayerCtx<'_, Self>) {
        self.with_pooled_out(ctx, Self::handle_start_into);
    }

    fn on_message(&mut self, ctx: &mut LayerCtx<'_, Self>, from: ProcessId, msg: RedMsg) -> bool {
        self.with_pooled_out(ctx, |red, now, out| red.handle_message_into(from, msg, now, out));
        false
    }

    fn on_tick(&mut self, ctx: &mut LayerCtx<'_, Self>) {
        self.with_pooled_out(ctx, Self::handle_tick_into);
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
    let (pairs, factory) = (all_ordered_pairs(n), factory_for(black_box));
    let nodes = ProcessId::all(n)
        .map(|me| {
            let red = ReductionNode::new(me, &pairs, &factory, Arc::clone(&oracle), false);
            let fair = FairWfDxDining::new(me, graph.neighbors(me));
            DiningDriverNode::over(red, Box::new(fair), workload)
        })
        .collect();
    let cfg = WorldConfig::new(seed).delays(delays).crashes(crashes.clone());
    let (dining, extracted) = run_hosted(nodes, cfg, horizon, true, |obs| match obs {
        RedObs::Suspicion { subject, suspected } => Some((*subject, *suspected)),
        _ => None,
    });
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
