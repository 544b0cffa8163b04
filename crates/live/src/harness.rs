//! The differential convergence harness: one logic core, two runtimes.
//!
//! A [`DiffScenario`] describes a heartbeat-◇P system abstractly — size,
//! seed, one optional crash, a GST, and a pre-GST delay profile — in units
//! that mean *ticks* under the simulator and *milliseconds* under the live
//! transport (the live runtime's 1 tick = 1 ms convention). The harness
//! runs the **identical** [`HeartbeatFd`] node on both substrates:
//!
//! * deterministic discrete-event [`World`] with a mirrored
//!   [`DelayModel`] (fixed or ramping pre-GST delay, bounded after), and
//! * [`LiveCluster`] over loopback TCP with the matching [`LinkFault`]
//!   schedule in every link's reader,
//!
//! then reduces each run to a timing-free [`Verdict`]: the final suspicion
//! set of every correct watcher plus the extraction checks (eventual
//! strong accuracy, strong completeness, ◇P classification). The two
//! runtimes schedule events in completely unrelated orders, so raw traces
//! can never match — but the verdicts must: that is what "one logic core,
//! converging on whichever asynchrony it actually measures" means, and
//! [`DiffReport::assert_converged`] enforces it.

use dinefd_fd::{HeartbeatConfig, HeartbeatFd, OracleClass, SuspicionHistory};
use dinefd_runtime::{ProcessId, Runtime, SplitMix64, Time};
use dinefd_sim::{Adversary, CrashPlan, DelayModel, World, WorldConfig};

use crate::cluster::{LiveCluster, LiveConfig, LiveStats};
use crate::fault::LinkFault;

/// Post-GST delay bound mirrored on the sim side (the live loopback is
/// sub-millisecond after its links go clean, i.e. ≤ 1 tick).
const POST_GST_BOUND: u64 = 2;

/// One cell of the crash × delay × GST matrix. All times are in virtual
/// ticks ≡ live milliseconds.
#[derive(Clone, Copy, Debug)]
pub struct DiffScenario {
    /// System size.
    pub n: usize,
    /// Seed for both runtimes' randomness.
    pub seed: u64,
    /// Heartbeat broadcast period (ticks / ms).
    pub period: u64,
    /// Optional single crash `(process, at)`.
    pub crash: Option<(ProcessId, u64)>,
    /// Global stabilization time; 0 means well-behaved from the start.
    pub gst: u64,
    /// Pre-GST per-message delay (ticks / ms); 0 means no added delay.
    pub delay: u64,
    /// If true the pre-GST delay ramps down linearly to zero at GST;
    /// otherwise it is fixed until GST.
    pub ramping: bool,
    /// Pre-GST per-frame drop probability on the live links, per mille.
    /// The simulator's channels are reliable by the paper's model, so this
    /// perturbs only the live side — legitimate pre-GST arbitrariness that
    /// the verdict must be insensitive to (heartbeats are idempotent).
    pub drop_per_mille: u16,
    /// Pre-GST one-slot reorder probability on the live links, per
    /// mille. The simulator is already non-FIFO, so no mirror is needed.
    pub reorder_per_mille: u16,
    /// Run length (ticks / ms).
    pub horizon: u64,
}

impl DiffScenario {
    /// A benign default cell: 3 processes, no crash, no pre-GST chaos.
    pub fn new(n: usize, seed: u64) -> Self {
        DiffScenario {
            n,
            seed,
            period: 8,
            crash: None,
            gst: 0,
            delay: 0,
            ramping: false,
            drop_per_mille: 0,
            reorder_per_mille: 0,
            horizon: 600,
        }
    }

    /// The crash plan this scenario induces.
    pub fn crash_plan(&self) -> CrashPlan {
        match self.crash {
            Some((pid, at)) => CrashPlan::one(pid, Time(at)),
            None => CrashPlan::none(),
        }
    }
}

/// The timing-free outcome both runtimes must agree on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// Per correct watcher: the sorted set of peers it suspects at the end.
    pub final_suspicions: Vec<(ProcessId, Vec<ProcessId>)>,
    /// Did the run satisfy eventual strong accuracy?
    pub accuracy_ok: bool,
    /// Did the run satisfy strong completeness?
    pub completeness_ok: bool,
    /// Did the extraction classify the history as ◇P?
    pub eventually_perfect: bool,
}

/// Everything one runtime produced for a scenario.
#[derive(Clone, Debug)]
pub struct RuntimeOutcome {
    /// The timing-free summary used for convergence comparison.
    pub verdict: Verdict,
    /// The full suspicion history (timing-dependent; informational).
    pub history: SuspicionHistory,
    /// Wrongful-suspicion intervals summed over correct pairs.
    pub mistakes: usize,
}

/// The sim and live outcomes of one scenario, side by side.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// The scenario that was run.
    pub scenario: DiffScenario,
    /// Outcome under the deterministic simulator.
    pub sim: RuntimeOutcome,
    /// Outcome under the live loopback-TCP runtime.
    pub live: RuntimeOutcome,
    /// Transport counters of the live run.
    pub live_stats: LiveStats,
}

impl DiffReport {
    /// Whether the two runtimes reached the same verdict.
    pub fn converged(&self) -> bool {
        self.sim.verdict == self.live.verdict
    }

    /// Panics with a side-by-side diff if the runtimes diverged or either
    /// failed its extraction checks.
    pub fn assert_converged(&self) {
        assert!(
            self.converged(),
            "sim and live diverged on {:?}\n  sim:  {:?}\n  live: {:?}",
            self.scenario,
            self.sim.verdict,
            self.live.verdict,
        );
        assert!(
            self.sim.verdict.accuracy_ok
                && self.sim.verdict.completeness_ok
                && self.sim.verdict.eventually_perfect,
            "converged, but on a failing verdict: {:?} for {:?}",
            self.sim.verdict,
            self.scenario,
        );
    }
}

/// Sim-side mirror of [`LinkFault::ramping_delay`]: delay shrinks linearly
/// from `delay` at t=0 to the post-GST bound at GST.
#[derive(Debug)]
struct RampAdversary {
    gst: u64,
    delay: u64,
}

impl Adversary for RampAdversary {
    fn delay(&mut self, _: ProcessId, _: ProcessId, now: Time, rng: &mut SplitMix64) -> u64 {
        if now.0 >= self.gst {
            return 1 + rng.below(POST_GST_BOUND);
        }
        let remaining = self.gst - now.0;
        (self.delay.saturating_mul(remaining) / self.gst.max(1)).max(1)
    }
}

fn delay_model(s: &DiffScenario) -> DelayModel {
    if s.gst == 0 || s.delay == 0 {
        return DelayModel::Fixed(1);
    }
    if s.ramping {
        DelayModel::Scripted(Box::new(RampAdversary { gst: s.gst, delay: s.delay }))
    } else {
        DelayModel::PartialSync {
            gst: Time(s.gst),
            pre: Box::new(DelayModel::Fixed(s.delay)),
            bound: POST_GST_BOUND,
        }
    }
}

fn link_fault(s: &DiffScenario) -> LinkFault {
    let mut fault = if s.gst == 0 || s.delay == 0 {
        LinkFault::clean()
    } else if s.ramping {
        LinkFault::ramping_delay(s.gst, s.delay)
    } else {
        LinkFault::fixed_delay(s.gst, s.delay)
    };
    if s.drop_per_mille > 0 || s.reorder_per_mille > 0 {
        fault.gst_ms = fault.gst_ms.max(s.gst);
        fault.drop_per_mille = s.drop_per_mille;
        fault.reorder_per_mille = s.reorder_per_mille;
    }
    fault
}

fn nodes_for(s: &DiffScenario) -> Vec<HeartbeatFd> {
    let cfg = HeartbeatConfig { n: s.n, period: s.period, initial_timeout_periods: 4 };
    (0..s.n).map(|_| HeartbeatFd::new(cfg)).collect()
}

fn verdict_of(
    s: &DiffScenario,
    history: SuspicionHistory,
    suspects: impl Fn(ProcessId, ProcessId) -> bool,
) -> RuntimeOutcome {
    let plan = s.crash_plan();
    let mut final_suspicions = Vec::new();
    for w in plan.correct(s.n) {
        let suspected: Vec<ProcessId> =
            ProcessId::all(s.n).filter(|&q| q != w && suspects(w, q)).collect();
        final_suspicions.push((w, suspected));
    }
    let accuracy = history.eventual_strong_accuracy(&plan);
    let completeness = history.strong_completeness(&plan);
    let classes = history.classify(&plan);
    let mut mistakes = 0;
    for w in plan.correct(s.n) {
        for q in plan.correct(s.n) {
            if w != q {
                mistakes += history.mistake_intervals(w, q);
            }
        }
    }
    RuntimeOutcome {
        verdict: Verdict {
            final_suspicions,
            accuracy_ok: accuracy.is_ok(),
            completeness_ok: completeness.is_ok(),
            eventually_perfect: classes.contains(&OracleClass::EventuallyPerfect),
        },
        history,
        mistakes,
    }
}

/// Runs the scenario under the deterministic simulator.
pub fn run_sim(s: &DiffScenario) -> RuntimeOutcome {
    let wcfg = WorldConfig::new(s.seed).delays(delay_model(s)).crashes(s.crash_plan());
    let mut world = World::new(nodes_for(s), wcfg);
    world.run_until(Time(s.horizon));
    let mut history = SuspicionHistory::new(s.n, false);
    for (at, pid, obs) in world.trace().observations() {
        history.record(at, pid, obs.subject, obs.suspected);
    }
    verdict_of(s, history, |w, q| world.node(w).suspects(q))
}

/// Runs the scenario on the live loopback-TCP runtime.
pub fn run_live(s: &DiffScenario) -> (RuntimeOutcome, LiveStats) {
    let mut cfg = LiveConfig::new(s.seed).fault(link_fault(s));
    if let Some((pid, at)) = s.crash {
        cfg = cfg.crash(pid, at);
    }
    let mut cluster = LiveCluster::new(nodes_for(s), cfg);
    let obs = cluster.run_to_horizon(Time(s.horizon));
    let mut history = SuspicionHistory::new(s.n, false);
    for rec in &obs {
        history.record(rec.at, rec.who, rec.obs.subject, rec.obs.suspected);
    }
    let stats = *cluster.stats();
    (verdict_of(s, history, |w, q| cluster.node(w).suspects(q)), stats)
}

/// Runs one scenario on both runtimes and pairs up the outcomes.
pub fn run_differential(s: &DiffScenario) -> DiffReport {
    let sim = run_sim(s);
    let (live, live_stats) = run_live(s);
    DiffReport { scenario: *s, sim, live, live_stats }
}
