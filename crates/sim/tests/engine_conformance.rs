//! One conformance table over the simulator's engine rows.
//!
//! Every behaviour here is *schedule-independent* — it follows from the
//! model (crash discard, envelope FIFO, the clock horizon, the sink
//! contract), not from how the events are ordered or the channels priced —
//! so it must hold verbatim on each engine row: `ShardedWorld` at one
//! shard (built for one thread or two), and at three shards, stepped by
//! hand or run on the worker pool. Public API only: the table sees the
//! engine exactly as downstream crates do.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use dinefd_sim::{
    Context, CrashPlan, DelayModel, Node, ObsSink, ProcessId, ShardedWorld, Time, TimerId,
    TraceEvent, WorldConfig,
};

/// One engine configuration of the table.
#[derive(Clone, Copy, Debug)]
struct Row {
    shards: usize,
    threads: usize,
    /// Step instant by instant instead of calling `run_until`.
    by_hand: bool,
}

const ROWS: [Row; 4] = [
    Row { shards: 1, threads: 1, by_hand: false },
    Row { shards: 1, threads: 2, by_hand: false },
    Row { shards: 3, threads: 2, by_hand: true },
    Row { shards: 3, threads: 2, by_hand: false },
];

type Sink<O> = Option<Box<dyn ObsSink<O>>>;

/// Builds `row`'s engine over `nodes` (which runs the start steps).
fn build<N: Node>(
    row: Row,
    nodes: Vec<N>,
    cfg: WorldConfig,
    sink: Sink<N::Obs>,
) -> ShardedWorld<N> {
    let cfg = cfg.threads(row.threads);
    match sink {
        None => ShardedWorld::new(nodes, cfg, row.shards),
        Some(sink) => ShardedWorld::new_with_sink(nodes, cfg, row.shards, sink),
    }
}

/// Runs `w` to `deadline` the way `row` drives it.
fn run_to<N: Node + Send>(row: Row, w: &mut ShardedWorld<N>, deadline: Time)
where
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
/// step, so no send and no timer, yet the crash itself is in the trace.
#[test]
fn a_crash_at_time_zero_suppresses_the_start_step_and_its_timers() {
    for row in ROWS {
        // p0 is the ring initiator: without its start step no message exists.
        let cfg =
            WorldConfig::new(3).crashes(CrashPlan::one(ProcessId(0), Time::ZERO)).record_messages();
        let mut w = build(row, ring(3, 10), cfg, None);
        assert!(w.is_crashed(ProcessId(0)), "{row:?}: effective before the starts");
        run_to(row, &mut w, DRAINED);
        assert_eq!(w.trace().sent_count(), 0, "{row:?}: a dead process must not send");
        assert_eq!(w.metrics_map()["steps"], 2, "{row:?}: only the two live processes start");
        let is_the_crash = |e: &TraceEvent<u32, u32>| {
            matches!(e, TraceEvent::Crash { at: Time::ZERO, pid: ProcessId(0) })
        };
        let traced = w.trace().events().iter().any(is_the_crash);
        assert!(traced, "{row:?}: the crash stays visible to the spec checkers");

        let cfg = WorldConfig::new(2).crashes(CrashPlan::one(ProcessId(0), Time::ZERO));
        let mut w = build(row, vec![TimerNode { fired: 0, limit: 5 }], cfg, None);
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
        let mut w = build(row, burst_nodes(2, 5), cfg, None);
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
        let mut w = build(row, burst_nodes(5, 6), WorldConfig::new(5).batch_envelopes(), None);
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
        let mut w = build(row, vec![TimerNode { fired: 0, limit: 100 }], cfg, None);
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
        let mut w = build(row, vec![HorizonNode], WorldConfig::new(1), None);
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
            let message = panic_message(|| drop(build(row, vec![StraySender], cfg, None)));
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

/// The sink sees exactly the trace's observation stream, start steps
/// included, in the trace's order.
#[test]
fn the_sink_stream_equals_the_traces_observations() {
    for row in ROWS {
        let sink = Rc::new(RefCell::new(FoldSink::default()));
        let handle: Sink<u32> = Some(Box::new(Rc::clone(&sink)));
        let mut w = build(row, ring(4, 23), WorldConfig::new(9), handle);
        run_to(row, &mut w, DRAINED);
        let from_trace: Vec<(Time, ProcessId, u32)> =
            w.trace().observations().map(|(t, p, &o)| (t, p, o)).collect();
        assert_eq!(from_trace.len(), 24, "{row:?}: hops 23..=0");
        assert_eq!(sink.borrow().seen, from_trace, "{row:?}: sink must mirror the trace");
        assert_eq!(w.metrics_map()["observations"], 24, "{row:?}");
    }
}

#[test]
fn observation_events_off_keeps_the_sink_fed_and_the_trace_lean() {
    for row in ROWS {
        let sink = Rc::new(RefCell::new(FoldSink::default()));
        let handle: Sink<u32> = Some(Box::new(Rc::clone(&sink)));
        let cfg = WorldConfig::new(9).observation_events_off();
        let mut w = build(row, ring(4, 23), cfg, handle);
        run_to(row, &mut w, DRAINED);
        assert_eq!(w.trace().len(), 0, "{row:?}: no observations, and messages are off too");
        assert_eq!(sink.borrow().seen.len(), 24, "{row:?}");
        assert_eq!(w.metrics_map()["observations"], 24, "{row:?}");
    }
}
