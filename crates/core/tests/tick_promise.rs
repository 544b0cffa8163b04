//! The tick promise (`DiningParticipant::ticks_only_while_hungry`) and what
//! the reduction host does with it.
//!
//! 1. **The promise is unobservable.** A run whose participants promise and
//!    the same run with the promise hidden behind an adapter — so the banks
//!    tick and pump everything, as they did before the promise existed —
//!    have identical traces and metrics, on both engine families — for the
//!    paper's reduction and for the two one-instance ablations, which run
//!    on the same host.
//! 2. **The skip skips, and keeps what it must.** Counted at the black-box
//!    boundary: which endpoints a tick reaches, and that a slot whose pump
//!    ran out of budget is pumped again with nothing ticked.

use std::sync::{Arc, Mutex};

use dinefd_core::host::{DiningFactory, Oracle};
use dinefd_core::scenario::{all_ordered_pairs, factory_for};
use dinefd_core::{
    BlackBox, DxEndpoint, FlawedCmNode, OracleSpec, RedMsg, RedObs, ReductionNode, SingleDxNode,
};
use dinefd_dining::participant::NoOracle;
use dinefd_dining::wfdx::WxMsg;
use dinefd_dining::{DinerPhase, DiningIo, DiningMsg, DiningParticipant};
use dinefd_fd::FdQuery;
use dinefd_sim::{
    CrashPlan, MetricMap, Node, ProcessId, ShardedWorld, SplitMix64, Time, World, WorldConfig,
};

/// `(watcher, subject, hosting process, instance)` of one endpoint.
type EndpointId = (ProcessId, ProcessId, ProcessId, u8);

/// The `on_tick` calls that reached the black boxes: which endpoint, and the
/// phase it was in.
type TickLog = Arc<Mutex<Vec<(EndpointId, DinerPhase)>>>;

/// A participant behind the five methods the trait had before the promise —
/// the shape of the benchmark's `Timed` adapter — logging every tick that
/// gets through. The promise is passed on only if `forward_promise`.
#[derive(Debug)]
struct Probe {
    inner: Box<dyn DiningParticipant>,
    id: EndpointId,
    forward_promise: bool,
    ticks: TickLog,
}

impl DiningParticipant for Probe {
    fn hungry(&mut self, io: &mut DiningIo<'_>) {
        self.inner.hungry(io);
    }

    fn exit_eating(&mut self, io: &mut DiningIo<'_>) {
        self.inner.exit_eating(io);
    }

    fn on_message(&mut self, io: &mut DiningIo<'_>, from: ProcessId, msg: DiningMsg) {
        self.inner.on_message(io, from, msg);
    }

    fn on_tick(&mut self, io: &mut DiningIo<'_>) {
        self.ticks.lock().unwrap().push((self.id, self.inner.phase()));
        self.inner.on_tick(io);
    }

    fn ticks_only_while_hungry(&self) -> bool {
        self.forward_promise && self.inner.ticks_only_while_hungry()
    }

    fn phase(&self) -> DinerPhase {
        self.inner.phase()
    }
}

/// `make`'s participants inside [`Probe`]s sharing `ticks`.
fn probed<'a>(
    make: impl Fn(DxEndpoint) -> Box<dyn DiningParticipant> + 'a,
    forward_promise: impl Fn(DxEndpoint) -> bool + 'a,
    ticks: &'a TickLog,
) -> impl Fn(DxEndpoint) -> Box<dyn DiningParticipant> + 'a {
    move |ep| {
        Box::new(Probe {
            inner: make(ep),
            id: (ep.watcher, ep.subject, ep.me, ep.instance),
            forward_promise: forward_promise(ep),
            ticks: Arc::clone(ticks),
        })
    }
}

fn p(i: u32) -> ProcessId {
    ProcessId(i)
}

/// The reduction nodes of an all-pairs system of `n` (`ReductionNode::new`
/// groups the pair list and hands it to `from_groups`).
fn nodes(
    n: usize,
    factory: &dyn Fn(DxEndpoint) -> Box<dyn DiningParticipant>,
    oracle: &Arc<dyn FdQuery + Send + Sync>,
    strict_seq: bool,
) -> Vec<ReductionNode> {
    let pairs = all_ordered_pairs(n);
    ProcessId::all(n)
        .map(|me| ReductionNode::new(me, &pairs, factory, Arc::clone(oracle), strict_seq))
        .collect()
}

/// What a run leaves behind that anything downstream can read.
struct RunRecord {
    trace: String,
    metrics: MetricMap,
    steps: u64,
}

/// Runs `nodes` to `horizon` on the classic world (`shards == 0`) or the
/// sharded one, messages recorded.
fn run<N: Node<Msg = RedMsg, Obs = RedObs> + Send>(
    nodes: Vec<N>,
    cfg: WorldConfig,
    shards: usize,
    horizon: Time,
) -> RunRecord {
    let cfg = cfg.record_messages();
    if shards == 0 {
        let mut world = World::new(nodes, cfg);
        world.run_until(horizon);
        let (metrics, steps) = (world.metrics_map(), world.steps());
        RunRecord { trace: format!("{:?}", world.into_trace().events()), metrics, steps }
    } else {
        let mut world = ShardedWorld::new(nodes, cfg, shards);
        world.run_until(horizon);
        let (metrics, steps) = (world.metrics_map(), world.steps());
        RunRecord { trace: format!("{:?}", world.into_trace().events()), metrics, steps }
    }
}

const N: usize = 4;
const HORIZON: Time = Time(700);

/// The check every row shares: `make`'s nodes over `black_box`, once with
/// the promise kept and once with it hidden, leave the same trace, metrics
/// and step count on the engine `shards` selects — having gone through
/// different tick loops wherever the box promises, and only there.
fn assert_the_promise_is_unobservable<N: Node<Msg = RedMsg, Obs = RedObs> + Send>(
    what: &str,
    black_box: BlackBox,
    cfg: &dyn Fn() -> WorldConfig,
    shards: usize,
    make: &dyn Fn(&DiningFactory<'_>) -> Vec<N>,
) {
    let (kept_ticks, hidden_ticks) = (TickLog::default(), TickLog::default());
    let kept = probed(factory_for(black_box), |_| true, &kept_ticks);
    let hidden = probed(factory_for(black_box), |_| false, &hidden_ticks);
    let kept = run(make(&kept), cfg(), shards, HORIZON);
    let hidden = run(make(&hidden), cfg(), shards, HORIZON);
    assert!(kept.steps > 500, "{what}: the run is too short to mean anything");
    assert_eq!(kept.metrics, hidden.metrics, "{what}");
    assert!(kept.trace == hidden.trace, "{what}: traces differ");
    assert_eq!(kept.steps, hidden.steps, "{what}");
    let (kept, hidden) = (kept_ticks.lock().unwrap().len(), hidden_ticks.lock().unwrap().len());
    if black_box == BlackBox::WfDx {
        assert!(kept < hidden, "{what}: {kept} ticks kept, {hidden} hidden");
    } else {
        assert_eq!(kept, hidden, "{what}");
    }
}

#[test]
fn hiding_the_promise_changes_nothing_observable() {
    let convergence = Time(300);
    let boxes = [
        BlackBox::WfDx,
        BlackBox::Hygienic,
        BlackBox::Delayed { convergence },
        BlackBox::Abstract { convergence },
        BlackBox::Ftme,
        BlackBox::Unfair { convergence },
    ];
    let oracles = [
        OracleSpec::Perfect { lag: 10 },
        OracleSpec::DiamondP { lag: 10, convergence, max_mistakes: 3, max_len: 60 },
    ];
    let crash_plans =
        [CrashPlan::none(), CrashPlan::one(p(3), Time::ZERO), CrashPlan::one(p(3), Time(350))];
    let mut case = 0u64;
    for black_box in boxes {
        for oracle in oracles {
            for crashes in &crash_plans {
                for strict_seq in [false, true] {
                    case += 1;
                    let seed = 0x71C4 + case;
                    let fd: Oracle =
                        Arc::new(oracle.build(N, crashes.clone(), &mut SplitMix64::new(seed)));
                    for shards in [0, 1, 4] {
                        let what = format!(
                            "{black_box:?} / {oracle:?} / {crashes:?} / strict_seq={strict_seq} / \
                             shards={shards}"
                        );
                        assert_the_promise_is_unobservable(
                            &what,
                            black_box,
                            &|| WorldConfig::new(seed).crashes(crashes.clone()),
                            shards,
                            &|factory| nodes(N, factory, &fd, strict_seq),
                        );
                    }
                }
            }
        }
    }
    assert_eq!(case, 72);
}

/// The same check with the two one-instance ablations in the reduction's
/// place: they run on its host, so they keep its promise.
#[test]
fn hiding_the_promise_changes_nothing_the_one_instance_extractors_show() {
    type Make<N> = fn(ProcessId, &[(ProcessId, ProcessId)], &DiningFactory<'_>, Oracle) -> N;
    fn check<N: Node<Msg = RedMsg, Obs = RedObs> + Send>(extractor: &str, make: Make<N>) {
        let convergence = Time(300);
        let pairs = all_ordered_pairs(N);
        let mut case = 0u64;
        for black_box in [
            BlackBox::WfDx,
            BlackBox::Delayed { convergence },
            BlackBox::Abstract { convergence },
            BlackBox::Unfair { convergence },
        ] {
            for crashes in [CrashPlan::none(), CrashPlan::one(p(3), Time(350))] {
                case += 1;
                let seed = 0x51D0 + case;
                let fd: Oracle = Arc::new(OracleSpec::Perfect { lag: 10 }.build(
                    N,
                    crashes.clone(),
                    &mut SplitMix64::new(seed),
                ));
                for shards in [0, 4] {
                    assert_the_promise_is_unobservable(
                        &format!("{extractor} / {black_box:?} / {crashes:?} / shards={shards}"),
                        black_box,
                        &|| WorldConfig::new(seed).crashes(crashes.clone()),
                        shards,
                        &|factory| {
                            let node = |me| make(me, &pairs, factory, Arc::clone(&fd));
                            ProcessId::all(N).map(node).collect()
                        },
                    );
                }
            }
        }
    }
    check("single_dx", SingleDxNode::new);
    check("flawed_cm", FlawedCmNode::new);
}

/// The ticks `ticks` holds for endpoint `id`, as the phases they found.
fn phases_ticked(ticks: &TickLog, id: EndpointId) -> Vec<DinerPhase> {
    ticks.lock().unwrap().iter().filter(|(at, _)| *at == id).map(|&(_, ph)| ph).collect()
}

fn no_oracle() -> Arc<dyn FdQuery + Send + Sync> {
    Arc::new(NoOracle(8))
}

#[test]
fn a_promising_endpoint_is_ticked_once_per_period_while_hungry_and_never_otherwise() {
    // p1 is watched by p0. At start its subject thread s_0 turns hungry
    // (no fork: p1 > p0) and s_1 stays thinking until s_0's ack.
    let ticks = TickLog::default();
    let factory = probed(factory_for(BlackBox::WfDx), |_| true, &ticks);
    let mut node = ReductionNode::from_groups(p(1), &[], &[p(0)], &factory, no_oracle(), false);
    node.handle_start(Time(0));
    let (s0, s1) = ((p(0), p(1), p(1), 0), (p(0), p(1), p(1), 1));
    for t in 1..=3 {
        node.handle_tick(Time(4 * t));
    }
    assert_eq!(phases_ticked(&ticks, s0), [DinerPhase::Hungry; 3], "hungry: one tick a period");
    assert_eq!(phases_ticked(&ticks, s1), [], "thinking: none");

    // The fork arrives: s_0 eats (and pings), s_1 still thinks.
    let fork = DiningMsg::WfDx(WxMsg::Fork { clock: 1 });
    let out = node.handle_message(
        p(0),
        RedMsg::Dx { watcher: p(0), subject: p(1), instance: 0, inner: fork },
        Time(13),
    );
    assert!(out.sends.iter().any(|(_, m)| matches!(m, RedMsg::Ping { instance: 0, .. })));
    ticks.lock().unwrap().clear();
    for t in 4..=6 {
        let out = node.handle_tick(Time(4 * t));
        assert!(out.sends.is_empty() && out.obs.is_empty());
    }
    assert_eq!(ticks.lock().unwrap().len(), 0, "eating and thinking: no tick gets through");
}

#[test]
fn a_box_that_does_not_promise_gets_both_ticks_of_every_slot_every_period() {
    // Ftme shares WfDx's fork core but reads its trust bits: it promises
    // nothing, and neither does a WfDx whose adapter hides the promise.
    for (black_box, forward_promise) in [(BlackBox::Ftme, true), (BlackBox::WfDx, false)] {
        let ticks = TickLog::default();
        let factory = probed(factory_for(black_box), |_| forward_promise, &ticks);
        let peers = [p(1), p(2), p(3)];
        let mut node =
            ReductionNode::from_groups(p(0), &peers, &peers, &factory, no_oracle(), false);
        node.handle_start(Time(0));
        for t in 1..=5 {
            node.handle_tick(Time(4 * t));
        }
        // 3 witness slots + 3 subject slots, 2 endpoints each, 5 periods.
        assert_eq!(ticks.lock().unwrap().len(), 6 * 2 * 5, "{black_box:?}");
        for peer in peers {
            for instance in 0..2 {
                let (witness, subject) =
                    ((p(0), peer, p(0), instance), (peer, p(0), p(0), instance));
                assert_eq!(phases_ticked(&ticks, witness).len(), 5);
                assert_eq!(phases_ticked(&ticks, subject).len(), 5);
            }
        }
    }
}

#[test]
fn one_box_that_does_not_promise_puts_its_whole_bank_back_on_full_ticks() {
    // The promise of one endpoint of the witness bank is hidden; the subject
    // bank of the same node still holds only promising boxes.
    let ticks = TickLog::default();
    let odd_one_out = |ep: DxEndpoint| ep.watcher == p(0) && ep.subject == p(2) && ep.instance == 1;
    let factory = probed(factory_for(BlackBox::WfDx), |ep| !odd_one_out(ep), &ticks);
    let peers = [p(1), p(2), p(3)];
    let mut node = ReductionNode::from_groups(p(0), &peers, &peers, &factory, no_oracle(), false);
    node.handle_start(Time(0));
    ticks.lock().unwrap().clear();
    node.handle_tick(Time(4));
    let log = ticks.lock().unwrap().clone();
    // p0 holds every fork it shares (lowest id), so no endpoint of its is
    // ever left hungry: whatever was ticked was ticked by the full loop.
    assert!(log.iter().all(|&(_, phase)| phase != DinerPhase::Hungry), "{log:?}");
    assert_eq!(log.len(), 3 * 2, "the witness bank's six endpoints, the subject bank's none");
}

/// Grants at once and promises: a witness over two of these cycles
/// hungry → eating → exit for as long as it is pumped.
#[derive(Debug)]
struct GrantNow(DinerPhase);

impl DiningParticipant for GrantNow {
    fn hungry(&mut self, _io: &mut DiningIo<'_>) {
        self.0 = DinerPhase::Eating;
    }

    fn exit_eating(&mut self, _io: &mut DiningIo<'_>) {
        self.0 = DinerPhase::Thinking;
    }

    fn on_message(&mut self, _io: &mut DiningIo<'_>, _from: ProcessId, _msg: DiningMsg) {}

    fn ticks_only_while_hungry(&self) -> bool {
        true
    }

    fn phase(&self) -> DinerPhase {
        self.0
    }
}

#[test]
fn a_pump_that_ran_out_of_budget_resumes_on_the_next_tick_with_nothing_ticked() {
    let ticks = TickLog::default();
    let grant_now =
        |_: DxEndpoint| Box::new(GrantNow(DinerPhase::Thinking)) as Box<dyn DiningParticipant>;
    let factory = probed(grant_now, |_| true, &ticks);
    let mut node = ReductionNode::from_groups(p(0), &[p(1)], &[], &factory, no_oracle(), false);
    // One pump fires four actions — w_0 hungry, w_0 exit, w_1 hungry, w_1
    // exit — each crossing two phases, and stops on the budget with the
    // next action already enabled.
    let phase_changes = |obs: &[RedObs]| {
        obs.iter().filter(|o| matches!(o, RedObs::DxPhase { watcher: ProcessId(0), .. })).count()
    };
    assert_eq!(phase_changes(&node.handle_start(Time(0)).obs), 8);
    for t in 1..=3 {
        assert_eq!(phase_changes(&node.handle_tick(Time(4 * t)).obs), 8, "tick {t} pumps on");
    }
    assert_eq!(ticks.lock().unwrap().len(), 0, "never hungry at a tick: nothing to poll");
}

/// Sizing probe, not a check of behaviour: `on_tick` calls that reach the
/// black boxes at the two extract workload shapes of `benchmark/`, seed 42,
/// with the promise hidden (every endpoint ticked: the host's loop before
/// the promise) and with it honoured. Run with
/// `cargo test --release -p dinefd-core --test tick_promise -- --ignored --nocapture`.
#[test]
#[ignore = "sizing probe: a few seconds in release"]
fn tick_deliveries_at_the_benchmark_shapes() {
    let count = |n: usize, horizon: u64, oracle: OracleSpec, dense: bool, forward_promise: bool| {
        let crashes = CrashPlan::one(ProcessId::from_index(n - 1), Time(horizon / 2));
        let oracle: Arc<dyn FdQuery + Send + Sync> =
            Arc::new(oracle.build(n, crashes.clone(), &mut SplitMix64::new(42 ^ 0xD1CE_F00D)));
        let counter = TickLog::default();
        let factory = probed(factory_for(BlackBox::WfDx), |_| forward_promise, &counter);
        let mut cfg = WorldConfig::new(42).crashes(crashes);
        if dense {
            cfg = cfg.batch_envelopes().observation_events_off();
        }
        let nodes = nodes(n, &factory, &oracle, false);
        if dense {
            ShardedWorld::new(nodes, cfg, 4).run_until(Time(horizon));
        } else {
            World::new(nodes, cfg).run_until(Time(horizon));
        }
        let ticks = counter.lock().unwrap();
        (ticks.len(), ticks.iter().filter(|&&(_, phase)| phase == DinerPhase::Hungry).count())
    };
    let long =
        OracleSpec::DiamondP { lag: 20, convergence: Time(2_000), max_mistakes: 3, max_len: 150 };
    let dense =
        OracleSpec::DiamondP { lag: 20, convergence: Time(192), max_mistakes: 1, max_len: 16 };
    for (shape, n, horizon, oracle, is_dense) in
        [("extract_long", 8, 50_000, long, false), ("extract_dense", 64, 384, dense, true)]
    {
        let (all, all_hungry) = count(n, horizon, oracle, is_dense, false);
        let (kept, kept_hungry) = count(n, horizon, oracle, is_dense, true);
        println!("{shape}: {all} on_tick deliveries with the promise hidden, {kept} honoured");
        assert_eq!(kept, all_hungry, "exactly the ticks to hungry endpoints survive");
        assert_eq!(kept, kept_hungry);
    }
}
