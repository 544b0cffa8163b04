//! One conformance table over the simulator's engine rows.
//!
//! Every behaviour here is *schedule-independent* — it follows from the
//! model (crash discard, envelope FIFO, the clock horizon, the sink
//! contract), not from how the events are ordered or the channels priced —
//! so it must hold verbatim on each engine row: `ShardedWorld` on one
//! thread (one shard), on two, and on three, stepped by hand or run on the
//! worker pool (one shard per thread). Public API only: the table sees the
//! engine exactly as downstream crates do.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dinefd_sim::shard::shard_count;
use dinefd_sim::{
    Context, CrashPlan, DelayModel, Node, ObsSink, ProcessId, ShardedWorld, Time, TimerId, Trace,
    World, WorldConfig,
};

#[path = "support/recorded.rs"]
mod recorded;
use recorded::Recorded;

/// One engine configuration of the table.
#[derive(Clone, Copy, Debug)]
struct Row {
    threads: usize,
    /// Step instant by instant instead of calling `run_until`.
    by_hand: bool,
}

const ROWS: [Row; 4] = [
    Row { threads: 1, by_hand: false },
    Row { threads: 2, by_hand: false },
    Row { threads: 3, by_hand: true },
    Row { threads: 3, by_hand: false },
];

/// Builds `row`'s engine over `nodes` (which runs the start steps), with
/// no sink.
fn build<N: Node>(row: Row, nodes: Vec<N>, cfg: WorldConfig) -> ShardedWorld<N, ()> {
    ShardedWorld::new(nodes, cfg.threads(row.threads), row.threads)
}

/// Builds `row`'s engine with a fresh `S` on every shard.
fn build_with_sinks<N: Node, S: ObsSink<N::Obs>>(
    row: Row,
    nodes: Vec<N>,
    cfg: WorldConfig,
    sink: impl Fn() -> S,
) -> ShardedWorld<N, S> {
    let sinks = (0..shard_count(row.threads, nodes.len())).map(|_| sink()).collect();
    ShardedWorld::new_with_shard_sinks(nodes, cfg.threads(row.threads), sinks)
}

/// Runs `w` to `deadline` the way `row` drives it.
fn run_to<N: Node + Send, S: ObsSink<N::Obs> + Send>(
    row: Row,
    w: &mut ShardedWorld<N, S>,
    deadline: Time,
) where
    N::Msg: Send,
    N::Obs: Send,
{
    if row.by_hand {
        while w.peek_time().is_some_and(|t| t <= deadline) {
            w.step_instant();
        }
    }
    w.run_until(deadline);
}

/// Far past the end of every finite workload below.
const DRAINED: Time = Time(1_000_000);

/// The message of the panic `f` must raise.
fn panic_message(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload.downcast::<&str>().map_or_else(|_| "?".into(), |s| s.to_string()),
    }
}

/// A node that floods a token around a ring, observing every hop.
#[derive(Debug)]
struct RingNode {
    n: usize,
    hops: u32,
}

impl Node for RingNode {
    type Msg = u32;
    type Obs = u32;

    fn on_start(&mut self, ctx: &mut Context<'_, u32, u32>) {
        if ctx.me() == ProcessId(0) {
            ctx.send(ProcessId::from_index(1 % self.n), self.hops);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, u32, u32>, _from: ProcessId, msg: u32) {
        ctx.observe(msg);
        if msg > 0 {
            ctx.send(ProcessId::from_index((ctx.me().index() + 1) % self.n), msg - 1);
        }
    }
}

fn ring(n: usize, hops: u32) -> Vec<RingNode> {
    (0..n).map(|_| RingNode { n, hops }).collect()
}

/// A node that re-arms a 5-tick timer until it has fired `limit` times.
#[derive(Debug)]
struct TimerNode {
    fired: u32,
    limit: u32,
}

impl Node for TimerNode {
    type Msg = ();
    type Obs = u32;

    fn on_start(&mut self, ctx: &mut Context<'_, (), u32>) {
        ctx.set_timer(5, TimerId(0));
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, (), u32>, _from: ProcessId, _msg: ()) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, (), u32>, _id: TimerId) {
        self.fired += 1;
        ctx.observe(self.fired);
        if self.fired < self.limit {
            ctx.set_timer(5, TimerId(0));
        }
    }
}

/// `p0` sends a burst of `burst` messages to `p1` per timer fire — the
/// shape envelope batching coalesces.
#[derive(Debug)]
struct Burst {
    rounds_left: u32,
    burst: u32,
    received: Vec<u32>,
}

impl Node for Burst {
    type Msg = u32;
    type Obs = u32;

    fn on_start(&mut self, ctx: &mut Context<'_, u32, u32>) {
        if ctx.me() == ProcessId(0) {
            ctx.set_timer(5, TimerId(0));
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, u32, u32>, _from: ProcessId, msg: u32) {
        self.received.push(msg);
        ctx.observe(msg);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, u32, u32>, _id: TimerId) {
        for k in 0..self.burst {
            ctx.send(ProcessId(1), self.rounds_left * 100 + k);
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            ctx.set_timer(5, TimerId(0));
        }
    }
}

fn burst_nodes(rounds: u32, burst: u32) -> Vec<Burst> {
    (0..2).map(|_| Burst { rounds_left: rounds, burst, received: Vec::new() }).collect()
}

/// A process whose crash is planned at t = 0 is dead from birth: no start
/// step, so no send and no timer, yet the crash itself is recorded.
#[test]
fn a_crash_at_time_zero_suppresses_the_start_step_and_its_timers() {
    for row in ROWS {
        // p0 is the ring initiator: without its start step no message exists.
        let cfg = WorldConfig::new(3).crashes(CrashPlan::one(ProcessId(0), Time::ZERO));
        let mut w = build_with_sinks(row, Recorded::all(ring(3, 10)), cfg, Trace::default);
        assert!(w.is_crashed(ProcessId(0)), "{row:?}: effective before the starts");
        run_to(row, &mut w, DRAINED);
        assert_eq!(w.metrics_map()["steps"], 2, "{row:?}: only the two live processes start");
        let trace = Trace::merge(w.into_sinks());
        assert_eq!(recorded::sent(&trace), 0, "{row:?}: a dead process must not send");
        let crashes: Vec<_> = trace.crashes().collect();
        assert_eq!(crashes, [(Time::ZERO, ProcessId(0))], "{row:?}: the crash stays visible");

        let cfg = WorldConfig::new(2).crashes(CrashPlan::one(ProcessId(0), Time::ZERO));
        let mut w = build(row, vec![TimerNode { fired: 0, limit: 5 }], cfg);
        run_to(row, &mut w, DRAINED);
        assert_eq!(w.node(ProcessId(0)).fired, 0, "{row:?}");
        assert_eq!(w.pending_events(), 0, "{row:?}: the start timer was never armed");
        assert_eq!(w.metrics_map()["timers_set"], 0, "{row:?}");
    }
}

/// An envelope addressed to a crashed receiver vanishes whole: none of its
/// messages is delivered and `messages_dropped` grows by its occupancy.
#[test]
fn an_envelope_to_a_crashed_receiver_is_dropped_whole() {
    for row in ROWS {
        let cfg = WorldConfig::new(4)
            .batch_envelopes()
            .delays(DelayModel::Fixed(10))
            .crashes(CrashPlan::one(ProcessId(1), Time(1)));
        let mut w = build(row, burst_nodes(2, 5), cfg);
        run_to(row, &mut w, DRAINED);
        let m = w.metrics_map();
        assert_eq!(m["envelopes_sent"], 3, "{row:?}: one envelope per bursting step");
        assert_eq!(m["messages_delivered"], 0, "{row:?}");
        assert_eq!(m["messages_dropped"], m["envelope_occupancy.sum"], "{row:?}");
        assert_eq!(m["messages_dropped"], 15, "{row:?}: three envelopes of five");
        assert!(w.node(ProcessId(1)).received.is_empty(), "{row:?}");
    }
}

/// Messages of one step to one destination share an envelope's delay
/// draw and run as adjacent steps of the receiver, so they are received in
/// send order whatever the delay model draws.
#[test]
fn messages_inside_an_envelope_are_received_in_send_order() {
    for row in ROWS {
        let mut w = build(row, burst_nodes(5, 6), WorldConfig::new(5).batch_envelopes());
        run_to(row, &mut w, DRAINED);
        let received = &w.node(ProcessId(1)).received;
        assert_eq!(received.len(), 36, "{row:?}");
        for chunk in received.chunks(6) {
            let ks: Vec<u32> = chunk.iter().map(|m| m % 100).collect();
            assert_eq!(ks, [0, 1, 2, 3, 4, 5], "{row:?}: envelope order broken: {received:?}");
        }
        assert_eq!(w.metrics_map()["envelope_occupancy.max"], 6, "{row:?}");
    }
}

#[test]
fn timers_of_a_crashed_process_never_fire() {
    for row in ROWS {
        let cfg = WorldConfig::new(1).crashes(CrashPlan::one(ProcessId(0), Time(12)));
        let mut w = build(row, vec![TimerNode { fired: 0, limit: 100 }], cfg);
        run_to(row, &mut w, DRAINED);
        // Fires at t=5 and t=10; the crash at t=12 silences the rest.
        assert_eq!(w.node(ProcessId(0)).fired, 2, "{row:?}");
        assert_eq!(w.metrics_map()["timer_fires"], 2, "{row:?}");
        assert_eq!(w.pending_events(), 0, "{row:?}: the t=15 timer was discarded, not kept");
    }
}

/// A node that jumps to the clock horizon and re-arms there.
#[derive(Debug)]
struct HorizonNode;

impl Node for HorizonNode {
    type Msg = ();
    type Obs = ();

    fn on_start(&mut self, ctx: &mut Context<'_, (), ()>) {
        // t=0 + u64::MAX lands exactly on Time::INFINITY — legal.
        ctx.set_timer(u64::MAX, TimerId(0));
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, (), ()>, _from: ProcessId, _msg: ()) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, (), ()>, _id: TimerId) {
        ctx.set_timer(1, TimerId(0));
    }
}

/// Regression (ISSUE 7): a saturating clock used to pin past-horizon events
/// at `Time::INFINITY`, so this node re-fired at the same instant forever
/// and `run_until(Time::INFINITY)` never returned. It is a hard error.
#[test]
fn rearming_past_the_clock_horizon_panics_instead_of_livelocking() {
    for row in ROWS {
        let mut w = build(row, vec![HorizonNode], WorldConfig::new(1));
        let message = panic_message(|| run_to(row, &mut w, Time::INFINITY));
        assert!(message.contains("timer scheduled past the clock horizon"), "{row:?}: {message}");
    }
}

/// A node that sends one message to a process that does not exist.
#[derive(Debug)]
struct StraySender;

impl Node for StraySender {
    type Msg = ();
    type Obs = ();

    fn on_start(&mut self, ctx: &mut Context<'_, (), ()>) {
        ctx.send(ProcessId(99), ());
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, (), ()>, _from: ProcessId, _msg: ()) {}
}

/// Regression (ISSUE 7): the unknown-destination guard is an `assert!` in
/// every build profile and on both routing paths (CI runs this suite under
/// `--release` too), not a `debug_assert!` a release build would skip.
#[test]
fn a_send_to_an_unknown_process_panics_batched_and_unbatched() {
    for row in ROWS {
        for batch in [false, true] {
            let cfg = WorldConfig::new(1);
            let cfg = if batch { cfg.batch_envelopes() } else { cfg };
            let message = panic_message(|| drop(build(row, vec![StraySender], cfg)));
            assert!(message.contains("send to unknown process p99"), "{row:?} {batch}: {message}");
        }
    }
}

/// A sink that keeps everything it is shown.
#[derive(Debug, Default)]
struct FoldSink {
    seen: Vec<(Time, ProcessId, u32)>,
}

impl ObsSink<u32> for FoldSink {
    fn on_obs(&mut self, at: Time, pid: ProcessId, obs: &u32) {
        self.seen.push((at, pid, *obs));
    }
}

/// The observations of the one-shard recording of the ring run below.
fn recorded_ring_observations() -> Vec<(Time, ProcessId, u32)> {
    let mut w = World::new(ring(4, 23), WorldConfig::new(9));
    w.run_until(DRAINED);
    w.trace().observations().map(|(t, p, &o)| (t, p, o)).collect()
}

/// Each shard's sink sees exactly the one-shard recording's observation
/// stream projected onto the shard's processes, start steps included, in
/// the recording's order.
#[test]
fn the_sink_stream_equals_the_traces_observations() {
    let from_trace = recorded_ring_observations();
    assert_eq!(from_trace.len(), 24, "hops 23..=0");
    for row in ROWS {
        let mut w = build_with_sinks(row, ring(4, 23), WorldConfig::new(9), FoldSink::default);
        run_to(row, &mut w, DRAINED);
        assert_eq!(w.metrics_map()["observations"], 24, "{row:?}");
        let sinks = w.into_sinks();
        let k = sinks.len();
        assert_eq!(k, shard_count(row.threads, 4), "{row:?}: one sink per shard, handed back");
        for (s, sink) in sinks.iter().enumerate() {
            let projection: Vec<_> =
                from_trace.iter().copied().filter(|&(_, p, _)| p.index() % k == s).collect();
            assert_eq!(sink.seen, projection, "{row:?}: shard {s}'s sink must mirror the trace");
        }
    }
}

/// `new_with_sink` builds one shard whatever the thread count, so its one
/// sink sees the whole sequential stream.
#[test]
fn new_with_sink_feeds_its_one_sink_the_whole_stream() {
    let from_trace = recorded_ring_observations();
    for row in ROWS {
        let cfg = WorldConfig::new(9).threads(row.threads);
        let mut w = ShardedWorld::new_with_sink(ring(4, 23), cfg, row.threads, FoldSink::default());
        assert_eq!(w.shards(), 1, "{row:?}");
        run_to(row, &mut w, DRAINED);
        let sinks = w.into_sinks();
        assert_eq!(sinks.len(), 1, "{row:?}");
        assert_eq!(sinks[0].seen, from_trace, "{row:?}: the one sink sees every observation");
    }
}
