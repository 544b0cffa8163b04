//! Chandra–Toueg rotating-coordinator consensus over an unreliable failure
//! detector — the paper's flagship citation for what ◇P enables.
//!
//! The classical algorithm (Chandra & Toueg 1996, specialized here to a
//! ◇P-class module and majority quorums):
//!
//! * rounds rotate the coordinator `c = r mod n`;
//! * entering round `r`, every process sends its current estimate (tagged
//!   with the round in which it was last adopted) to `c`;
//! * `c` collects a majority of estimates, picks the one with the highest
//!   adoption round ("locked" values win), and proposes it;
//! * a participant waiting in round `r` either receives the proposal —
//!   adopts it, acks, and moves on — or comes to suspect `c` and nacks;
//! * if `c` gathers a majority of acks it reliably broadcasts `Decide`;
//!   everyone who receives `Decide` re-broadcasts it once and decides.
//!
//! **Agreement** comes from quorum intersection: a decided value was adopted
//! by a majority at round `r`, so every later coordinator's majority
//! contains a witness whose estimate carries adoption round ≥ `r`, and the
//! max-adoption-round pick preserves the value. **Validity** is immediate
//! (estimates start as inputs). **Termination** needs the detector: after
//! ◇P's accuracy converges, no correct coordinator is nacked, so the first
//! correct coordinator's round decides. Majorities must be correct — with
//! `n = 2f+1` the algorithm tolerates `f` crashes, and that bound is tight
//! (the paper's model is asynchronous; FLP applies without the oracle).

use std::collections::BTreeMap;
use std::rc::Rc;

use dinefd_fd::FdQuery;
use dinefd_sim::{Context, Node, ProcessId, TimerId};

/// Consensus protocol messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CMsg {
    /// Round-entry estimate sent to the round's coordinator.
    Estimate {
        /// The round this estimate is for.
        round: u64,
        /// The proposer's current estimate.
        est: u64,
        /// The round in which `est` was last adopted (0 = initial value).
        adopted: u64,
    },
    /// The coordinator's proposal for a round.
    Propose {
        /// The round.
        round: u64,
        /// The proposed value.
        est: u64,
    },
    /// Positive reply to a proposal.
    Ack {
        /// The acked round.
        round: u64,
    },
    /// Negative reply (the coordinator was suspected).
    Nack {
        /// The nacked round.
        round: u64,
    },
    /// Reliable-broadcast decision.
    Decide {
        /// The decided value.
        value: u64,
    },
}

/// Observation: this process decided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConsensusObs {
    /// The decided value.
    pub value: u64,
    /// The participant round at which the decision was learned.
    pub round: u64,
}

const POLL: TimerId = TimerId(0);

/// What the participant side of the process is waiting for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Waiting {
    /// Waiting for the current round's proposal.
    Proposal,
    /// Already replied (ack/nack); round advance is in `advance()`.
    Nothing,
}

/// One process of the consensus protocol.
pub struct ConsensusNode {
    me: ProcessId,
    n: usize,
    fd: Rc<dyn FdQuery>,
    majority: usize,
    poll_every: u64,
    // Participant state.
    round: u64,
    est: u64,
    adopted: u64,
    waiting: Waiting,
    decided: Option<u64>,
    /// Proposals for rounds this process has not entered yet, taken up on
    /// entry (a coordinator can gather its majority before it gets there).
    early: BTreeMap<u64, u64>,
    // Coordinator state, per round this process coordinates.
    estimates: BTreeMap<u64, Vec<(u64, u64)>>,
    proposed: BTreeMap<u64, u64>,
    acks: BTreeMap<u64, usize>,
    aborted: BTreeMap<u64, bool>,
}

impl std::fmt::Debug for ConsensusNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConsensusNode")
            .field("me", &self.me)
            .field("round", &self.round)
            .field("est", &self.est)
            .field("decided", &self.decided)
            .finish()
    }
}

impl ConsensusNode {
    /// New process with the given input value.
    pub fn new(me: ProcessId, n: usize, input: u64, fd: Rc<dyn FdQuery>) -> Self {
        ConsensusNode {
            me,
            n,
            fd,
            majority: n / 2 + 1,
            poll_every: 4,
            round: 0,
            est: input,
            adopted: 0,
            waiting: Waiting::Proposal,
            decided: None,
            early: BTreeMap::new(),
            estimates: BTreeMap::new(),
            proposed: BTreeMap::new(),
            acks: BTreeMap::new(),
            aborted: BTreeMap::new(),
        }
    }

    /// The decision, once taken.
    pub fn decision(&self) -> Option<u64> {
        self.decided
    }

    /// Current participant round (diagnostics).
    pub fn round(&self) -> u64 {
        self.round
    }

    fn coordinator(&self, round: u64) -> ProcessId {
        ProcessId::from_index((round % self.n as u64) as usize)
    }

    fn send_estimate(&mut self, ctx: &mut Context<'_, CMsg, ConsensusObs>) {
        let c = self.coordinator(self.round);
        let msg = CMsg::Estimate { round: self.round, est: self.est, adopted: self.adopted };
        self.waiting = Waiting::Proposal;
        if c == self.me {
            self.collect_estimate(ctx, self.round, self.est, self.adopted);
        } else {
            ctx.send(c, msg);
        }
        if let Some(est) = self.early.remove(&self.round) {
            self.handle_proposal(ctx, self.round, est);
        }
    }

    fn advance(&mut self, ctx: &mut Context<'_, CMsg, ConsensusObs>) {
        self.round += 1;
        self.send_estimate(ctx);
    }

    /// Coordinator side: fold in one estimate; propose on majority.
    fn collect_estimate(
        &mut self,
        ctx: &mut Context<'_, CMsg, ConsensusObs>,
        round: u64,
        est: u64,
        adopted: u64,
    ) {
        if self.decided.is_some() || self.proposed.contains_key(&round) {
            return;
        }
        let entry = self.estimates.entry(round).or_default();
        entry.push((adopted, est));
        if entry.len() >= self.majority {
            // Highest adoption round wins (the "locked" value).
            let &(_, pick) = entry.iter().max_by_key(|&&(a, _)| a).expect("majority nonempty");
            self.proposed.insert(round, pick);
            for q in ProcessId::all(self.n) {
                if q == self.me {
                    self.handle_proposal(ctx, round, pick);
                } else {
                    ctx.send(q, CMsg::Propose { round, est: pick });
                }
            }
        }
    }

    /// Participant side: the current round's proposal arrived.
    fn handle_proposal(&mut self, ctx: &mut Context<'_, CMsg, ConsensusObs>, round: u64, est: u64) {
        if round > self.round {
            self.early.insert(round, est);
            return;
        }
        if self.decided.is_some() || round != self.round || self.waiting != Waiting::Proposal {
            return;
        }
        self.est = est;
        self.adopted = round;
        self.waiting = Waiting::Nothing;
        let c = self.coordinator(round);
        if c == self.me {
            self.collect_ack(ctx, round);
        } else {
            ctx.send(c, CMsg::Ack { round });
        }
        self.advance(ctx);
    }

    /// Coordinator side: one ack for `round`.
    fn collect_ack(&mut self, ctx: &mut Context<'_, CMsg, ConsensusObs>, round: u64) {
        if self.decided.is_some() || *self.aborted.get(&round).unwrap_or(&false) {
            return;
        }
        let count = self.acks.entry(round).or_insert(0);
        *count += 1;
        if *count >= self.majority {
            let value = self.proposed[&round];
            self.decide(ctx, value);
        }
    }

    /// Reliable-broadcast decide: adopt, re-broadcast once, observe.
    fn decide(&mut self, ctx: &mut Context<'_, CMsg, ConsensusObs>, value: u64) {
        if self.decided.is_some() {
            return;
        }
        self.decided = Some(value);
        for q in ProcessId::all(self.n) {
            if q != self.me {
                ctx.send(q, CMsg::Decide { value });
            }
        }
        ctx.observe(ConsensusObs { value, round: self.round });
    }
}

impl Node for ConsensusNode {
    type Msg = CMsg;
    type Obs = ConsensusObs;

    fn on_start(&mut self, ctx: &mut Context<'_, CMsg, ConsensusObs>) {
        self.send_estimate(ctx);
        ctx.set_timer(self.poll_every, POLL);
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, CMsg, ConsensusObs>,
        _from: ProcessId,
        msg: CMsg,
    ) {
        if let Some(value) = self.decided {
            // Still help latecomers decide.
            if let CMsg::Estimate { .. } = msg {
                // A latecomer is still running: short-circuit it.
                ctx.send(_from, CMsg::Decide { value });
            }
            return;
        }
        match msg {
            CMsg::Estimate { round, est, adopted } => {
                self.collect_estimate(ctx, round, est, adopted);
            }
            CMsg::Propose { round, est } => {
                self.handle_proposal(ctx, round, est);
            }
            CMsg::Ack { round } => {
                self.collect_ack(ctx, round);
            }
            CMsg::Nack { round } => {
                self.aborted.insert(round, true);
            }
            CMsg::Decide { value } => {
                self.decide(ctx, value);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, CMsg, ConsensusObs>, timer: TimerId) {
        debug_assert_eq!(timer, POLL);
        if self.decided.is_none() && self.waiting == Waiting::Proposal {
            let c = self.coordinator(self.round);
            if c != self.me && self.fd.suspected(self.me, c, ctx.now()) {
                let round = self.round;
                ctx.send(c, CMsg::Nack { round });
                self.waiting = Waiting::Nothing;
                self.advance(ctx);
            }
        }
        if self.decided.is_none() {
            ctx.set_timer(self.poll_every, POLL);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinefd_fd::InjectedOracle;
    use dinefd_sim::{CrashPlan, DelayModel, SplitMix64, Time, World, WorldConfig};

    struct Outcome {
        decisions: Vec<Option<u64>>,
        rounds: Vec<u64>,
    }

    fn run(
        inputs: &[u64],
        seed: u64,
        crashes: CrashPlan,
        delays: DelayModel,
        horizon: Time,
    ) -> Outcome {
        let n = inputs.len();
        let mut rng = SplitMix64::new(seed);
        let oracle =
            InjectedOracle::diamond_p(n, crashes.clone(), 40, Time(1_500), 2, 120, &mut rng);
        let fd: Rc<dyn FdQuery> = Rc::new(oracle);
        let nodes: Vec<ConsensusNode> = inputs
            .iter()
            .enumerate()
            .map(|(i, &v)| ConsensusNode::new(ProcessId::from_index(i), n, v, Rc::clone(&fd)))
            .collect();
        let cfg = WorldConfig::new(seed).crashes(crashes.clone()).delays(delays);
        let mut world = World::new(nodes, cfg);
        world.run_until(horizon);
        Outcome {
            decisions: (0..n).map(|i| world.node(ProcessId::from_index(i)).decision()).collect(),
            rounds: (0..n).map(|i| world.node(ProcessId::from_index(i)).round()).collect(),
        }
    }

    fn assert_uniform_valid(out: &Outcome, inputs: &[u64], plan: &CrashPlan) {
        let mut value = None;
        for p in plan.correct(inputs.len()) {
            let d = out.decisions[p.index()]
                .unwrap_or_else(|| panic!("{p} undecided (rounds: {:?})", out.rounds));
            match value {
                None => value = Some(d),
                Some(v) => assert_eq!(v, d, "disagreement"),
            }
        }
        let v = value.expect("some correct process");
        assert!(inputs.contains(&v), "decided {v} not an input of {inputs:?}");
        // Crashed processes that decided must agree too (uniform agreement).
        for (i, d) in out.decisions.iter().enumerate() {
            if let Some(d) = d {
                assert_eq!(*d, v, "p{i} decided differently");
            }
        }
    }

    #[test]
    fn failure_free_consensus_decides_quickly() {
        let inputs = [30, 10, 20, 40, 50];
        let out = run(&inputs, 1, CrashPlan::none(), DelayModel::default_async(), Time(20_000));
        assert_uniform_valid(&out, &inputs, &CrashPlan::none());
        assert!(out.rounds.iter().all(|&r| r <= 3), "rounds: {:?}", out.rounds);
    }

    #[test]
    fn coordinator_crash_rotates_past_it() {
        let inputs = [7, 8, 9, 10, 11];
        let plan = CrashPlan::one(ProcessId(0), Time(10));
        let out = run(&inputs, 2, plan.clone(), DelayModel::default_async(), Time(40_000));
        assert_uniform_valid(&out, &inputs, &plan);
    }

    #[test]
    fn tolerates_max_minority_crashes() {
        let inputs = [5, 6, 7, 8, 9];
        // n = 5 tolerates f = 2.
        let plan = CrashPlan::one(ProcessId(1), Time(300)).and(ProcessId(3), Time(900));
        let out = run(&inputs, 3, plan.clone(), DelayModel::harsh(), Time(60_000));
        assert_uniform_valid(&out, &inputs, &plan);
    }

    #[test]
    fn agreement_holds_across_many_seeds() {
        let inputs = [100, 200, 300, 400, 500];
        for seed in 0..12u64 {
            let crash = ProcessId::from_index((seed % 5) as usize);
            let plan = CrashPlan::one(crash, Time(200 + seed * 137));
            let out = run(&inputs, seed, plan.clone(), DelayModel::default_async(), Time(60_000));
            assert_uniform_valid(&out, &inputs, &plan);
        }
    }

    /// Delivers `msg` from `from` to `node` as one step; returns its sends
    /// and observations.
    fn deliver(
        node: &mut ConsensusNode,
        from: ProcessId,
        msg: CMsg,
    ) -> (Vec<(ProcessId, CMsg)>, Vec<ConsensusObs>) {
        let (mut sends, mut timers, mut obs) = (Vec::new(), Vec::new(), Vec::new());
        let mut rng = SplitMix64::new(0);
        let mut ctx = Context::new(node.me, Time(1), &mut sends, &mut timers, &mut obs, &mut rng);
        node.on_message(&mut ctx, from, msg);
        (sends, obs)
    }

    /// A coordinator that gathers its round-1 majority while still in round
    /// 0 keeps its own proposal until it enters round 1, then adopts it and
    /// decides on the first ack from a peer (its own ack is the second).
    #[test]
    fn a_proposal_for_a_future_round_is_taken_up_on_entry() {
        let (p0, p1, p2) = (ProcessId(0), ProcessId(1), ProcessId(2));
        let oracle = InjectedOracle::diamond_p(
            3,
            CrashPlan::none(),
            40,
            Time(1_500),
            2,
            120,
            &mut SplitMix64::new(0),
        );
        let mut node = ConsensusNode::new(p1, 3, 11, Rc::new(oracle));
        deliver(&mut node, p0, CMsg::Estimate { round: 1, est: 10, adopted: 0 });
        let (sends, _) = deliver(&mut node, p2, CMsg::Estimate { round: 1, est: 12, adopted: 0 });
        assert_eq!(node.round(), 0, "the majority arrived before round 1 began");
        assert!(sends.contains(&(p0, CMsg::Propose { round: 1, est: 12 })), "{sends:?}");
        let (sends, _) = deliver(&mut node, p0, CMsg::Propose { round: 0, est: 10 });
        assert!(sends.contains(&(p0, CMsg::Ack { round: 0 })), "{sends:?}");
        assert_eq!(node.round(), 2, "entering round 1 took up its own proposal");
        assert_eq!(node.decision(), None);
        let (_, obs) = deliver(&mut node, p0, CMsg::Ack { round: 1 });
        assert_eq!(node.decision(), Some(12));
        assert_eq!(obs, vec![ConsensusObs { value: 12, round: 2 }]);
    }

    #[test]
    fn three_processes_one_crash() {
        let inputs = [1, 2, 3];
        let plan = CrashPlan::one(ProcessId(2), Time(100));
        let out = run(&inputs, 5, plan.clone(), DelayModel::default_async(), Time(40_000));
        assert_uniform_valid(&out, &inputs, &plan);
    }
}
