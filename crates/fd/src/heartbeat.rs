//! A message-passing ◇P: heartbeats with adaptive timeouts.
//!
//! This is the classical construction showing ◇P is *implementable* under
//! partial synchrony (the paper's Section 2 motivates exactly this setting):
//! every process periodically broadcasts `Alive`; each watcher counts its own
//! periods since it last heard from each peer and suspects peers that exceed
//! a per-peer timeout. On discovering a false suspicion (an `Alive` from a
//! suspected peer) the watcher raises that peer's timeout, so after the
//! global stabilization time the timeout eventually exceeds the real delay
//! bound and mistakes stop — eventual strong accuracy. A crashed peer stops
//! sending forever, so its counter grows without bound — strong completeness.
//!
//! The timeout adaptation is **measured**, not merely doubled: each watcher
//! tracks the largest inter-arrival gap (in its own periods) it has ever
//! observed per peer, and a false-suspicion recovery jumps the timeout to at
//! least that measured gap plus slack. Under the simulator the "measurement"
//! is of the `World`'s drawn delays; on the live transport it is of real
//! socket latency — the identical code measures whichever asynchrony it is
//! actually running under, which is what lets one logic core converge on
//! both runtimes (the Kompics-style increasing-timeout ◇P).
//!
//! The node never reads global time: it counts its *own* timer firings,
//! which is legitimate local step-counting.

use dinefd_sim::{
    Context, Node, ProcessId, Time, TimerId, Wire, WireError, WireReader, WireWriter,
};

use crate::injected::FdQuery;

/// Message type: a heartbeat.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Alive;

/// Wire tag of [`Alive`] frames on the live transport.
const ALIVE_TAG: u8 = 0xA1;

impl Wire for Alive {
    fn encode(&self, w: &mut WireWriter) {
        w.u8(ALIVE_TAG);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            ALIVE_TAG => Ok(Alive),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// Observation emitted whenever the local output changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HbObs {
    /// The peer whose suspicion status changed.
    pub subject: ProcessId,
    /// The new status.
    pub suspected: bool,
}

/// Static parameters of the heartbeat detector.
#[derive(Clone, Copy, Debug)]
pub struct HeartbeatConfig {
    /// System size.
    pub n: usize,
    /// Ticks between heartbeat broadcasts (and timeout checks).
    pub period: u64,
    /// Initial per-peer timeout, in periods.
    pub initial_timeout_periods: u64,
}

impl HeartbeatConfig {
    /// A reasonable default: period 8, initial timeout 4 periods.
    pub fn new(n: usize) -> Self {
        HeartbeatConfig { n, period: 8, initial_timeout_periods: 4 }
    }
}

const TICK: TimerId = TimerId(0);

/// Extra periods added on top of the measured gap when a false-suspicion
/// recovery re-seeds the timeout from measurement.
const MEASURED_SLACK_PERIODS: u64 = 1;

/// One process's heartbeat-◇P module.
#[derive(Clone, Debug)]
pub struct HeartbeatFd {
    cfg: HeartbeatConfig,
    /// Periods elapsed since the last `Alive` from each peer.
    periods_since_heard: Vec<u64>,
    /// Current per-peer timeout, in periods.
    timeout_periods: Vec<u64>,
    /// Largest inter-arrival gap (periods) ever measured per peer — the
    /// watcher's local estimate of the channel's worst observed asynchrony.
    measured_gap_periods: Vec<u64>,
    /// Current output.
    suspected: Vec<bool>,
}

impl HeartbeatFd {
    /// Fresh module; initially trusts everyone.
    pub fn new(cfg: HeartbeatConfig) -> Self {
        HeartbeatFd {
            periods_since_heard: vec![0; cfg.n],
            timeout_periods: vec![cfg.initial_timeout_periods.max(1); cfg.n],
            measured_gap_periods: vec![0; cfg.n],
            suspected: vec![false; cfg.n],
            cfg,
        }
    }

    /// Current output: is `q` suspected?
    pub fn suspects(&self, q: ProcessId) -> bool {
        self.suspected[q.index()]
    }

    /// The current adaptive timeout (periods) for `q`.
    pub fn timeout_of(&self, q: ProcessId) -> u64 {
        self.timeout_periods[q.index()]
    }

    /// The largest inter-arrival gap (periods) measured for `q` so far.
    pub fn measured_gap_of(&self, q: ProcessId) -> u64 {
        self.measured_gap_periods[q.index()]
    }

    /// All peers this module heartbeats to.
    pub fn peers(&self, me: ProcessId) -> impl Iterator<Item = ProcessId> + '_ {
        ProcessId::all(self.cfg.n).filter(move |&q| q != me)
    }

    /// The broadcast period, in ticks.
    pub fn period(&self) -> u64 {
        self.cfg.period
    }

    /// Context-free handler: an `Alive` from `from` arrived. Returns the
    /// output change, if any.
    pub fn handle_alive(&mut self, from: ProcessId) -> Option<HbObs> {
        let i = from.index();
        // The gap that just closed is a *measurement* of the channel's real
        // asynchrony (drawn delays under sim, socket latency under live).
        self.measured_gap_periods[i] =
            self.measured_gap_periods[i].max(self.periods_since_heard[i]);
        self.periods_since_heard[i] = 0;
        if self.suspected[i] {
            // False suspicion discovered: repent and be more patient — at
            // least double (the classical ◇P guarantee of unbounded growth),
            // and at least the worst asynchrony actually measured plus
            // slack, so one bad pre-GST spike is absorbed in a single jump
            // instead of O(log spike) repeated mistakes.
            self.suspected[i] = false;
            self.timeout_periods[i] = self.timeout_periods[i]
                .saturating_mul(2)
                .max(self.measured_gap_periods[i].saturating_add(MEASURED_SLACK_PERIODS));
            Some(HbObs { subject: from, suspected: false })
        } else {
            None
        }
    }

    /// Context-free handler: one local period elapsed. Returns output
    /// changes. The caller must also broadcast `Alive` to [`Self::peers`]
    /// and re-arm its period timer.
    pub fn handle_period(&mut self, me: ProcessId) -> Vec<HbObs> {
        let mut out = Vec::new();
        for q in ProcessId::all(self.cfg.n) {
            if q == me {
                continue;
            }
            self.periods_since_heard[q.index()] += 1;
            if !self.suspected[q.index()]
                && self.periods_since_heard[q.index()] > self.timeout_periods[q.index()]
            {
                self.suspected[q.index()] = true;
                out.push(HbObs { subject: q, suspected: true });
            }
        }
        out
    }

    fn broadcast(&self, ctx: &mut Context<'_, Alive, HbObs>) {
        let me = ctx.me();
        for q in self.peers(me) {
            ctx.send(q, Alive);
        }
    }
}

/// The module's current output as an oracle another protocol in the same
/// process can read: `watcher` is by construction the host.
impl FdQuery for HeartbeatFd {
    fn suspected(&self, _watcher: ProcessId, subject: ProcessId, _now: Time) -> bool {
        self.suspects(subject)
    }

    fn len(&self) -> usize {
        self.cfg.n
    }
}

impl Node for HeartbeatFd {
    type Msg = Alive;
    type Obs = HbObs;

    fn on_start(&mut self, ctx: &mut Context<'_, Alive, HbObs>) {
        self.broadcast(ctx);
        ctx.set_timer(self.cfg.period, TICK);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Alive, HbObs>, from: ProcessId, _msg: Alive) {
        if let Some(obs) = self.handle_alive(from) {
            ctx.observe(obs);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Alive, HbObs>, timer: TimerId) {
        debug_assert_eq!(timer, TICK);
        for obs in self.handle_period(ctx.me()) {
            ctx.observe(obs);
        }
        self.broadcast(ctx);
        ctx.set_timer(self.cfg.period, TICK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SuspicionHistory;
    use crate::OracleClass;
    use dinefd_sim::{CrashPlan, DelayModel, Time, World, WorldConfig};

    fn run_system(
        n: usize,
        seed: u64,
        crashes: CrashPlan,
        delays: DelayModel,
        horizon: Time,
    ) -> (SuspicionHistory, CrashPlan) {
        let cfg = HeartbeatConfig::new(n);
        let nodes: Vec<HeartbeatFd> = (0..n).map(|_| HeartbeatFd::new(cfg)).collect();
        let wcfg = WorldConfig::new(seed).delays(delays).crashes(crashes.clone());
        let mut world = World::new(nodes, wcfg);
        world.run_until(horizon);
        let mut hist = SuspicionHistory::new(n, false);
        for (at, pid, obs) in world.trace().observations() {
            hist.record(at, pid, obs.subject, obs.suspected);
        }
        (hist, crashes)
    }

    #[test]
    fn failure_free_synchronous_run_is_perfect() {
        let (hist, plan) = run_system(3, 1, CrashPlan::none(), DelayModel::Fixed(2), Time(5_000));
        assert!(hist.perpetual_strong_accuracy(&plan).is_ok());
    }

    #[test]
    fn crash_is_detected_permanently() {
        let plan = CrashPlan::one(ProcessId(2), Time(500));
        let (hist, plan) = run_system(3, 2, plan, DelayModel::Fixed(2), Time(10_000));
        let detections = hist.strong_completeness(&plan).unwrap();
        assert_eq!(detections.len(), 2); // two correct watchers
        for d in detections {
            assert!(d.detected_from > d.crashed_at);
        }
    }

    #[test]
    fn partially_synchronous_run_is_eventually_perfect() {
        // Harsh delays before GST can cause false suspicions; the adaptive
        // timeout must absorb them after GST.
        let plan = CrashPlan::one(ProcessId(3), Time(4_000));
        let delays = DelayModel::partially_synchronous(Time(3_000), 6);
        let (hist, plan) = run_system(4, 3, plan, delays, Time(60_000));
        let acc = hist.eventual_strong_accuracy(&plan);
        assert!(acc.is_ok(), "accuracy violated: {:?}", acc.err());
        assert!(hist.strong_completeness(&plan).is_ok());
        let classes = hist.classify(&plan);
        assert!(classes.contains(&OracleClass::EventuallyPerfect), "classes: {classes:?}");
    }

    #[test]
    fn harsh_prefix_actually_produces_mistakes_some_seed() {
        // Sanity that the test above is non-vacuous: some seed exhibits at
        // least one wrongful suspicion before convergence (at this system
        // size about one seed in five does).
        let mut total_mistakes = 0;
        for seed in 0..32 {
            let delays = DelayModel::partially_synchronous(Time(3_000), 6);
            let (hist, _) = run_system(4, seed, CrashPlan::none(), delays, Time(30_000));
            for w in ProcessId::all(4) {
                for s in ProcessId::all(4) {
                    if w != s {
                        total_mistakes += hist.mistake_intervals(w, s);
                    }
                }
            }
        }
        assert!(total_mistakes > 0, "no seed produced any false suspicion");
    }

    #[test]
    fn alive_roundtrips_on_the_wire() {
        let bytes = Alive.to_bytes();
        assert_eq!(bytes.len(), 1);
        assert_eq!(Alive::from_bytes(&bytes).unwrap(), Alive);
        assert!(Alive::from_bytes(&[0x00]).is_err());
        assert!(Alive::from_bytes(&[]).is_err());
    }

    #[test]
    fn recovery_timeout_jumps_to_the_measured_gap() {
        // Watcher 0, peer 1, initial timeout 4 periods. Let 20 silent
        // periods elapse (suspicion fires after period 5), then deliver the
        // late Alive: the measured gap is 20, so the recovered timeout must
        // be ≥ 21 — one jump, not ceil(log2(20/4)) = 3 successive doublings.
        let cfg = HeartbeatConfig::new(2);
        let mut fd = HeartbeatFd::new(cfg);
        let me = ProcessId(0);
        let peer = ProcessId(1);
        let mut suspected_at = None;
        for p in 1..=20u64 {
            for obs in fd.handle_period(me) {
                assert_eq!(obs.subject, peer);
                assert!(obs.suspected);
                suspected_at = Some(p);
            }
        }
        assert_eq!(suspected_at, Some(cfg.initial_timeout_periods + 1));
        assert!(fd.suspects(peer));
        let obs = fd.handle_alive(peer).expect("false suspicion must surface");
        assert!(!obs.suspected);
        assert_eq!(fd.measured_gap_of(peer), 20);
        assert!(
            fd.timeout_of(peer) >= 21,
            "timeout {} must clear the measured 20-period gap",
            fd.timeout_of(peer)
        );
        // A second, *smaller* spike is now absorbed without any mistake.
        for _ in 0..20 {
            assert!(fd.handle_period(me).is_empty(), "measured timeout must hold");
        }
        assert!(fd.handle_alive(peer).is_none());
    }

    #[test]
    fn measured_gap_tracks_the_worst_interarrival_only() {
        let mut fd = HeartbeatFd::new(HeartbeatConfig::new(2));
        let me = ProcessId(0);
        let peer = ProcessId(1);
        for gap in [3u64, 1, 2] {
            for _ in 0..gap {
                let _ = fd.handle_period(me);
            }
            let _ = fd.handle_alive(peer);
        }
        assert_eq!(fd.measured_gap_of(peer), 3, "max of 3,1,2 gaps");
    }

    #[test]
    fn timeouts_grow_on_false_suspicion() {
        let delays = DelayModel::partially_synchronous(Time(2_000), 6);
        let cfg = HeartbeatConfig::new(2);
        let nodes: Vec<HeartbeatFd> = (0..2).map(|_| HeartbeatFd::new(cfg)).collect();
        let mut world = World::new(nodes, WorldConfig::new(11).delays(delays));
        world.run_until(Time(30_000));
        // If any false suspicion happened, the timeout must exceed initial.
        let n0 = world.node(ProcessId(0));
        let had_mistake = world
            .trace()
            .observations()
            .any(|(_, pid, o)| pid == ProcessId(0) && o.subject == ProcessId(1) && o.suspected);
        if had_mistake {
            assert!(n0.timeout_of(ProcessId(1)) > cfg.initial_timeout_periods);
        }
    }
}
