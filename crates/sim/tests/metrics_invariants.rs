//! Invariant tests tying the run metrics to the recording (the sends and
//! deliveries of nodes wrapped in `Recorded`, the world's crashes), plus
//! determinism of the metric export.

use dinefd_sim::{
    Context, CrashPlan, DelayModel, Node, ProcessId, Time, TimerId, Trace, World, WorldConfig,
};

#[path = "support/recorded.rs"]
mod recorded;
use recorded::Recorded;

/// A chatty node: gossips to a random peer on every timer tick.
#[derive(Debug)]
struct Gossip {
    n: usize,
    rounds_left: u32,
}

impl Node for Gossip {
    type Msg = u64;
    type Obs = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, u64, u64>) {
        ctx.set_timer(3, TimerId(0));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, u64, u64>, _from: ProcessId, msg: u64) {
        ctx.observe(msg);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, u64, u64>, _id: TimerId) {
        let peer = ProcessId::from_index(ctx.rng().range(0, self.n as u64 - 1) as usize);
        let peer = if peer == ctx.me() { ProcessId::from_index(self.n - 1) } else { peer };
        ctx.send(peer, u64::from(self.rounds_left));
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            ctx.set_timer(3, TimerId(0));
        }
    }
}

fn gossip_world(seed: u64, crashes: CrashPlan) -> World<Recorded<Gossip>> {
    let n = 5;
    let nodes = (0..n).map(|_| Gossip { n, rounds_left: 40 });
    let cfg = WorldConfig::new(seed).delays(DelayModel::harsh()).crashes(crashes);
    World::new(Recorded::all(nodes), cfg)
}

#[test]
fn messages_sent_equals_recorded_send_events() {
    let mut w = gossip_world(11, CrashPlan::none());
    while w.step_instant() {}
    let sends = recorded::sent(w.trace()) as u64;
    assert_eq!(w.metrics().messages_sent.get(), sends);
    assert_eq!(w.messages_sent(), sends);
}

#[test]
fn delivers_never_exceed_sends_and_drops_close_the_gap() {
    let mut w = gossip_world(13, CrashPlan::one(ProcessId(2), Time(60)));
    while w.step_instant() {}
    let m = w.metrics();
    assert!(m.messages_delivered.get() <= m.messages_sent.get());
    // A drained queue means every send was either delivered or dropped at
    // a crashed receiver.
    assert_eq!(
        m.messages_delivered.get() + m.messages_dropped.get(),
        m.messages_sent.get(),
        "drained world must account for every send"
    );
    assert_eq!(m.messages_delivered.get(), recorded::delivered(w.trace()) as u64);
}

#[test]
fn queue_high_water_bounds_pending_at_every_observation() {
    let mut w = gossip_world(17, CrashPlan::none());
    // Stop mid-run so the queue is non-empty.
    w.run_until(Time(40));
    let m = w.metrics();
    assert!(m.queue_depth.high_water() >= m.queue_depth.get());
    assert!(m.queue_depth.high_water() >= w.pending_events() as u64);
    while w.step_instant() {}
    assert_eq!(w.metrics().queue_depth.get(), 0);
}

#[test]
fn crash_and_timer_counters_match_trace() {
    let plan = CrashPlan::one(ProcessId(0), Time(50)).and(ProcessId(1), Time(70));
    let mut w = gossip_world(19, plan);
    while w.step_instant() {}
    let m = w.metrics();
    assert_eq!(m.crash_events.get(), w.trace().crashes().count() as u64);
    assert_eq!(m.crash_events.get(), 2);
    assert!(m.timer_fires.get() <= m.timers_set.get(), "crashes may silence armed timers");
    // Every delay sample came from exactly one send.
    assert_eq!(m.delay_ticks.count(), m.messages_sent.get());
    assert_eq!(recorded::sent(w.trace()) as u64, m.messages_sent.get());
}

#[test]
fn metrics_are_identical_across_reruns_of_the_same_seed() {
    let run = |seed: u64| {
        let mut w = gossip_world(seed, CrashPlan::one(ProcessId(3), Time(55)));
        while w.step_instant() {}
        w.metrics_map()
    };
    let a = run(23);
    let b = run(23);
    assert_eq!(a, b, "same seed must export byte-identical metrics");
    // And the export genuinely reflects the run: different seeds diverge.
    let c = run(24);
    assert_ne!(a, c, "different seeds virtually always differ somewhere");
}
