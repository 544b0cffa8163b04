//! The tick promise (`DiningParticipant::ticks_only_while_suspecting`), the
//! detector's hint (`FdQuery::unsuspected_until`) and what the reduction
//! host does with them.
//!
//! 1. **The promise and the hint are unobservable.** Three runs of one
//!    scenario — the promise hidden behind an adapter, so the banks tick and
//!    pump everything as they did before the promise existed; the promise
//!    kept but the hint hidden, so a bank asks the detector about every
//!    hungry slot at every tick; both kept — have identical traces and
//!    metrics, at one shard and at four, for the paper's reduction and for
//!    the two one-instance ablations, which run on the same host.
//! 2. **The skip skips, and keeps what it must.** Counted at the black-box
//!    boundary: which endpoints a tick reaches, and that a slot whose pump
//!    ran out of budget is pumped again with nothing ticked.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dinefd_core::host::{DiningFactory, Oracle};
use dinefd_core::scenario::{all_ordered_pairs, factory_for};
use dinefd_core::{
    BlackBox, DxEndpoint, FlawedCmNode, OracleSpec, RedMsg, RedObs, ReductionNode, Role,
    SingleDxNode,
};
use dinefd_dining::participant::NoOracle;
use dinefd_dining::{DinerPhase, DiningIo, DiningMsg, DiningParticipant};
use dinefd_fd::{FdQuery, InjectedOracle, MistakePlan};
use dinefd_sim::shard::shard_count;
use dinefd_sim::{
    Context, CrashPlan, MetricMap, Node, ProcessId, ShardedWorld, SplitMix64, Time, TimerId, Trace,
    WorldConfig,
};

#[path = "../../sim/tests/support/recorded.rs"]
mod recorded;
use recorded::Recorded;

/// `(watcher, subject, hosting process, instance)` of one endpoint.
type EndpointId = (ProcessId, ProcessId, ProcessId, u8);

/// One `on_tick` call that reached a black box: which endpoint, the phase it
/// was in, and whether the call acted — sent a message or moved the phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Tick {
    at: EndpointId,
    phase: DinerPhase,
    acted: bool,
}

/// The `on_tick` calls that reached the black boxes.
type TickLog = Arc<Mutex<Vec<Tick>>>;

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
        // `DiningIo` shows its pending send count only through `Debug`.
        let (phase, sends) = (self.inner.phase(), format!("{io:?}"));
        self.inner.on_tick(io);
        let acted = self.inner.phase() != phase || format!("{io:?}") != sends;
        self.ticks.lock().unwrap().push(Tick { at: self.id, phase, acted });
    }

    fn ticks_only_while_suspecting(&self) -> bool {
        self.forward_promise && self.inner.ticks_only_while_suspecting()
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

/// A detector behind the two methods `FdQuery` had before the hint,
/// counting the queries it answers. The hint is passed on only if
/// `forward_hint`.
#[derive(Debug)]
struct Counted {
    inner: Oracle,
    forward_hint: bool,
    queries: AtomicU64,
}

impl Counted {
    fn new(inner: &Oracle, forward_hint: bool) -> Arc<Counted> {
        Arc::new(Counted { inner: Arc::clone(inner), forward_hint, queries: AtomicU64::new(0) })
    }
}

impl FdQuery for Counted {
    fn suspected(&self, watcher: ProcessId, subject: ProcessId, now: Time) -> bool {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.inner.suspected(watcher, subject, now)
    }

    fn unsuspected_until(&self, watcher: ProcessId, subject: ProcessId, now: Time) -> Time {
        if self.forward_hint {
            self.inner.unsuspected_until(watcher, subject, now)
        } else {
            now + 1
        }
    }

    fn len(&self) -> usize {
        self.inner.len()
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

/// Runs `nodes` to `horizon` over `shards` shards, one per worker thread,
/// each shard recording its processes' sends, deliveries, observations and
/// crashes.
fn run<N: Node<Msg = RedMsg, Obs = RedObs> + Send>(
    nodes: Vec<N>,
    cfg: WorldConfig,
    shards: usize,
    horizon: Time,
) -> RunRecord {
    let sinks = (0..shard_count(shards, nodes.len())).map(|_| Trace::default()).collect();
    let mut world =
        ShardedWorld::new_with_shard_sinks(Recorded::all(nodes), cfg.threads(shards), sinks);
    assert_eq!(world.shards(), shards, "one shard per worker thread");
    world.run_until(horizon);
    let (metrics, steps) = (world.metrics_map(), world.steps());
    let trace = Trace::merge(world.into_sinks());
    RunRecord { trace: format!("{:?}", trace.events()), metrics, steps }
}

const N: usize = 4;
const HORIZON: Time = Time(700);

/// The check every row shares: `make`'s nodes over `black_box` and `fd`
/// leave the same trace, metrics and step count on the engine `shards`
/// selects with the promise hidden, with the promise kept but the hint
/// hidden, and with both kept — having gone through different tick loops
/// wherever the box promises, and only there. The hint changes which
/// queries a bank makes, never which ticks it delivers.
fn assert_the_promise_is_unobservable<N: Node<Msg = RedMsg, Obs = RedObs> + Send>(
    what: &str,
    black_box: BlackBox,
    fd: &Oracle,
    cfg: &dyn Fn() -> WorldConfig,
    shards: usize,
    make: &dyn Fn(&DiningFactory<'_>, Oracle) -> Vec<N>,
) {
    let variant = |forward_promise: bool, forward_hint: bool| {
        let (ticks, fd) = (TickLog::default(), Counted::new(fd, forward_hint));
        let factory = probed(factory_for(black_box), |_| forward_promise, &ticks);
        let record = run(make(&factory, fd.clone()), cfg(), shards, HORIZON);
        let mut ticks = ticks.lock().unwrap().clone();
        if shards > 1 {
            // The workers append concurrently, so only each endpoint's own
            // ticks — all on its process, hence on one shard — keep an order.
            ticks.sort_by_key(|t| t.at);
        }
        (record, ticks, fd.queries.load(Ordering::Relaxed))
    };
    let (hidden, hidden_ticks, _) = variant(false, false);
    let (unhinted, unhinted_ticks, unhinted_queries) = variant(true, false);
    let (kept, kept_ticks, kept_queries) = variant(true, true);
    assert!(kept.steps > 500, "{what}: the run is too short to mean anything");
    for (other, name) in [(&hidden, "promise hidden"), (&unhinted, "hint hidden")] {
        assert_eq!(kept.metrics, other.metrics, "{what}: {name}");
        assert!(kept.trace == other.trace, "{what}: traces differ, {name}");
        assert_eq!(kept.steps, other.steps, "{what}: {name}");
    }
    assert!(kept_ticks == unhinted_ticks, "{what}: the hint changed the ticks delivered");
    let (kept, hidden) = (kept_ticks.len(), hidden_ticks.len());
    if matches!(black_box, BlackBox::WfDx | BlackBox::Hygienic) {
        assert!(kept < hidden, "{what}: {kept} ticks kept, {hidden} hidden");
        assert!(kept_queries < unhinted_queries, "{what}: the hint saved no query");
    } else {
        assert_eq!(kept, hidden, "{what}");
        assert_eq!(kept_queries, unhinted_queries, "{what}");
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
                    for shards in [1, 4] {
                        let what = format!(
                            "{black_box:?} / {oracle:?} / {crashes:?} / strict_seq={strict_seq} / \
                             shards={shards}"
                        );
                        assert_the_promise_is_unobservable(
                            &what,
                            black_box,
                            &fd,
                            &|| WorldConfig::new(seed).crashes(crashes.clone()),
                            shards,
                            &|factory, fd| nodes(N, factory, &fd, strict_seq),
                        );
                    }
                }
            }
        }
    }
    assert_eq!(case, 72);
}

/// The same check with the two one-instance ablations in the reduction's
/// place: they run on its host, so they keep its promise and use its hint.
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
                for shards in [1, 4] {
                    assert_the_promise_is_unobservable(
                        &format!("{extractor} / {black_box:?} / {crashes:?} / shards={shards}"),
                        black_box,
                        &fd,
                        &|| WorldConfig::new(seed).crashes(crashes.clone()),
                        shards,
                        &|factory, fd| {
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
    ticks.lock().unwrap().iter().filter(|t| t.at == id).map(|t| t.phase).collect()
}

fn no_oracle() -> Arc<dyn FdQuery + Send + Sync> {
    Arc::new(NoOracle(8))
}

#[test]
fn a_promising_endpoint_is_ticked_only_while_hungry_and_its_peer_is_suspected() {
    // p1 is watched by p0, and p1's detector wrongly suspects p0 over
    // [18, 30). At start p1's subject thread s_0 turns hungry (no fork:
    // p1 > p0) and s_1 stays thinking until s_0's ack.
    let mut oracle = InjectedOracle::perfect(2, CrashPlan::none(), 0);
    oracle.set_mistakes(p(1), p(0), MistakePlan::from_intervals(vec![(Time(18), Time(30))]));
    let ticks = TickLog::default();
    let factory = probed(factory_for(BlackBox::WfDx), |_| true, &ticks);
    let mut node =
        ReductionNode::from_groups(p(1), &[], &[p(0)], &factory, Arc::new(oracle), false);
    node.handle_start(Time(0));
    let (s0, s1) = ((p(0), p(1), p(1), 0), (p(0), p(1), p(1), 1));
    for t in 1..=4 {
        let out = node.handle_tick(Time(4 * t));
        assert!(out.sends.is_empty() && out.obs.is_empty());
    }
    assert_eq!(phases_ticked(&ticks, s0), [], "hungry, peer trusted: no tick");

    // The first tick inside the window reaches s_0, which eats on the
    // suspicion and pings; s_1 still thinks.
    let out = node.handle_tick(Time(20));
    assert_eq!(phases_ticked(&ticks, s0), [DinerPhase::Hungry], "one tick, in the window");
    assert!(ticks.lock().unwrap()[0].acted);
    let eating = RedObs::DxPhase {
        watcher: p(0),
        subject: p(1),
        role: Role::Subject,
        instance: 0,
        phase: DinerPhase::Eating,
    };
    assert!(out.obs.contains(&eating), "{out:?}");
    assert!(out.sends.iter().any(|(_, m)| matches!(m, RedMsg::Ping { instance: 0, .. })));

    // Eating and thinking, inside the window and after it: nothing more.
    for t in 6..=10 {
        let out = node.handle_tick(Time(4 * t));
        assert!(out.sends.is_empty() && out.obs.is_empty());
    }
    assert_eq!(phases_ticked(&ticks, s0), [DinerPhase::Hungry]);
    assert_eq!(phases_ticked(&ticks, s1), [], "thinking: none");
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
    assert!(log.iter().all(|t| t.phase != DinerPhase::Hungry), "{log:?}");
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

    fn ticks_only_while_suspecting(&self) -> bool {
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

/// A counter gate on the host's tick loop: `on_tick` calls that reach the
/// black boxes at the two extract workload shapes of `benchmark/`, seed 42.
/// Pinned are the deliveries with the promise hidden (every endpoint ticked,
/// the host's loop before any promise), how many of those found their
/// endpoint hungry, and the deliveries with promise and hint kept — every
/// one of which must act. A few seconds in release:
/// `cargo test --release -p dinefd-core --test tick_promise -- --ignored --nocapture`.
#[test]
#[ignore = "counter gate at the benchmark shapes: a few seconds in release"]
fn tick_deliveries_at_the_benchmark_shapes() {
    let ticks = |n: usize, horizon: u64, oracle: OracleSpec, dense: bool, forward_promise: bool| {
        let crashes = CrashPlan::one(ProcessId::from_index(n - 1), Time(horizon / 2));
        let oracle: Oracle =
            Arc::new(oracle.build(n, crashes.clone(), &mut SplitMix64::new(42 ^ 0xD1CE_F00D)));
        let log = TickLog::default();
        let factory = probed(factory_for(BlackBox::WfDx), |_| forward_promise, &log);
        let mut cfg = WorldConfig::new(42).crashes(crashes);
        if dense {
            cfg = cfg.batch_envelopes();
        }
        ShardedWorld::new(nodes(n, &factory, &oracle, false), cfg, 1).run_until(Time(horizon));
        let ticks = log.lock().unwrap().clone();
        ticks
    };
    let long =
        OracleSpec::DiamondP { lag: 20, convergence: Time(2_000), max_mistakes: 3, max_len: 150 };
    let dense =
        OracleSpec::DiamondP { lag: 20, convergence: Time(192), max_mistakes: 1, max_len: 16 };
    for (shape, n, horizon, oracle, is_dense, pinned) in [
        ("extract_long", 8, 50_000, long, false, [2_624_972, 916_559, 122]),
        ("extract_dense", 64, 384, dense, true, [1_535_940, 558_458, 2_515]),
    ] {
        let (hidden, kept) =
            (ticks(n, horizon, oracle, is_dense, false), ticks(n, horizon, oracle, is_dense, true));
        let hungry = hidden.iter().filter(|t| t.phase == DinerPhase::Hungry).count();
        println!(
            "{shape}: {} on_tick deliveries with the promise hidden, {hungry} of them to hungry \
             endpoints, {} kept",
            hidden.len(),
            kept.len()
        );
        assert_eq!([hidden.len(), hungry, kept.len()], pinned, "{shape}");
        assert!(kept.iter().all(|t| t.acted), "{shape}: a delivered tick did nothing");
    }
}
