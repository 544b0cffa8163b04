//! Property-based tests for the simulation substrate.

use dinefd_sim::{
    BoolTimeline, Context, CrashPlan, DelayModel, Node, ProcessId, SplitMix64, Summary, Time,
    Trace, World, WorldConfig,
};
use proptest::prelude::*;

proptest! {
    // ---------------- SplitMix64 ----------------

    #[test]
    fn rng_below_always_in_range(seed in any::<u64>(), n in 1u64..=u64::MAX) {
        let mut r = SplitMix64::new(seed);
        for _ in 0..16 {
            prop_assert!(r.below(n) < n);
        }
    }

    #[test]
    fn rng_range_inclusive(seed in any::<u64>(), lo in 0u64..1000, span in 0u64..1000) {
        let mut r = SplitMix64::new(seed);
        let hi = lo + span;
        for _ in 0..16 {
            let v = r.range(lo, hi);
            prop_assert!(v >= lo && v <= hi);
        }
    }

    #[test]
    fn rng_streams_are_reproducible(seed in any::<u64>()) {
        let mut a = SplitMix64::new(seed);
        let mut b = SplitMix64::new(seed);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        prop_assert_eq!(xs, ys);
    }

    #[test]
    fn rng_shuffle_is_permutation(seed in any::<u64>(), len in 0usize..64) {
        let mut r = SplitMix64::new(seed);
        let mut xs: Vec<usize> = (0..len).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..len).collect::<Vec<usize>>());
    }

    // ---------------- BoolTimeline ----------------

    #[test]
    fn timeline_value_matches_replay(
        initial in any::<bool>(),
        updates in prop::collection::vec((0u64..10_000, any::<bool>()), 0..40),
    ) {
        let mut sorted = updates.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut tl = BoolTimeline::new(initial);
        for &(t, v) in &sorted {
            tl.set(Time(t), v);
        }
        // Replay: the value at any probe time equals the last update ≤ t.
        for probe in [0u64, 17, 999, 5_000, 10_000, 20_000] {
            let expect = sorted
                .iter()
                .rev()
                .find(|&&(t, _)| t <= probe)
                .map_or(initial, |&(_, v)| v);
            prop_assert_eq!(tl.value_at(Time(probe)), expect, "probe {}", probe);
        }
        prop_assert_eq!(tl.value_at_end(), sorted.last().map_or(initial, |&(_, v)| v));
    }

    #[test]
    fn timeline_false_intervals_counts_falling_edges(
        updates in prop::collection::vec((0u64..10_000, any::<bool>()), 0..40),
    ) {
        let mut sorted = updates.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut tl = BoolTimeline::new(true);
        for &(t, v) in &sorted {
            tl.set(Time(t), v);
        }
        // Reference: compress consecutive duplicates, count true→false edges.
        let mut compressed = vec![true];
        for &(_, v) in &sorted {
            if *compressed.last().unwrap() != v {
                compressed.push(v);
            }
        }
        let expect = compressed.windows(2).filter(|w| w[0] && !w[1]).count();
        prop_assert_eq!(tl.false_intervals(), expect);
    }

    // ---------------- Summary ----------------

    #[test]
    fn summary_bounds_hold(values in prop::collection::vec(0u64..1_000_000, 1..100)) {
        let s = Summary::of_u64(&values).unwrap();
        let min = *values.iter().min().unwrap() as f64;
        let max = *values.iter().max().unwrap() as f64;
        prop_assert_eq!(s.min, min);
        prop_assert_eq!(s.max, max);
        prop_assert!(s.mean >= min && s.mean <= max);
        prop_assert!(s.p50 >= min && s.p50 <= max);
        prop_assert!(s.p95 >= min && s.p95 <= max);
        prop_assert!(s.p50 <= s.p95 + 1e-9);
    }
}

// ---------------- World determinism ----------------

/// A node that gossips random numbers for a while.
#[derive(Debug)]
struct Gossip {
    n: usize,
    budget: u32,
}

impl Node for Gossip {
    type Msg = u64;
    type Obs = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, u64, u64>) {
        let n = self.n;
        let to = ProcessId::from_index(ctx.rng().below(n as u64) as usize);
        if to != ctx.me() {
            ctx.send(to, 1);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, u64, u64>, _from: ProcessId, msg: u64) {
        ctx.observe(msg);
        if self.budget > 0 {
            self.budget -= 1;
            let n = self.n;
            let to = ProcessId::from_index(ctx.rng().below(n as u64) as usize);
            if to != ctx.me() {
                ctx.send(to, msg + 1);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn world_runs_are_deterministic(seed in any::<u64>(), n in 2usize..6, crash in 0u64..500) {
        let run = || {
            let nodes: Vec<Gossip> = (0..n).map(|_| Gossip { n, budget: 50 }).collect();
            let cfg = WorldConfig::new(seed)
                .delays(DelayModel::harsh())
                .crashes(CrashPlan::one(ProcessId(0), Time(crash)));
            let mut w = World::new(nodes, cfg);
            w.run_until(Time(5_000));
            (w.steps(), w.messages_sent(), w.metrics().messages_delivered.get(), w.trace().len())
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn world_never_delivers_more_than_sent(seed in any::<u64>(), n in 2usize..6) {
        let nodes: Vec<Gossip> = (0..n).map(|_| Gossip { n, budget: 30 }).collect();
        let mut w = World::new(nodes, WorldConfig::new(seed));
        w.run_until(Time(5_000));
        prop_assert!(w.metrics().messages_delivered.get() <= w.messages_sent());
    }
}

// ---------------- Parallel sharded worlds ----------------

/// A gossiping node that also runs a periodic timer, so parallel runs
/// exercise every merge class: deliveries, timer fires, and crashes.
#[derive(Debug)]
struct TimedGossip {
    n: usize,
    budget: u32,
}

impl Node for TimedGossip {
    type Msg = u64;
    type Obs = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, u64, u64>) {
        let n = self.n;
        let to = ProcessId::from_index(ctx.rng().below(n as u64) as usize);
        if to != ctx.me() {
            ctx.send(to, 1);
        }
        ctx.set_timer(7, dinefd_sim::TimerId(0));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, u64, u64>, _from: ProcessId, msg: u64) {
        ctx.observe(msg);
        if self.budget > 0 {
            self.budget -= 1;
            let n = self.n;
            // Fan out two sends so same-instant envelope batching has
            // something to coalesce.
            for bump in 1..=2u64 {
                let to = ProcessId::from_index(ctx.rng().below(n as u64) as usize);
                if to != ctx.me() {
                    ctx.send(to, msg + bump);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, u64, u64>, _timer: dinefd_sim::TimerId) {
        let n = self.n;
        let to = ProcessId::from_index(ctx.rng().below(n as u64) as usize);
        if to != ctx.me() {
            ctx.send(to, 100);
        }
        ctx.set_timer(7, dinefd_sim::TimerId(0));
    }
}

fn delay_for(choice: u8) -> DelayModel {
    match choice % 5 {
        0 => DelayModel::Fixed(3),
        1 => DelayModel::default_async(),
        2 => DelayModel::harsh(),
        3 => DelayModel::partially_synchronous(Time(300), 4),
        _ => DelayModel::fifo(DelayModel::harsh()),
    }
}

/// One run on `threads` shards folded to comparable bytes: final clock,
/// the shards' recordings joined by `Trace::merge`, and the exported
/// metric map. Stepped by hand, a multi-shard
/// world runs its shards one after another on the calling thread; through
/// `run_until`, on the worker pool.
fn sharded_fingerprint(
    seed: u64,
    n: usize,
    threads: usize,
    by_hand: bool,
    delay: u8,
    batch: bool,
    crash: u64,
) -> (Time, String, Vec<(String, u64)>) {
    let nodes: Vec<TimedGossip> = (0..n).map(|_| TimedGossip { n, budget: 40 }).collect();
    let mut cfg = WorldConfig::new(seed)
        .delays(delay_for(delay))
        .crashes(CrashPlan::one(ProcessId(0), Time(crash)))
        .threads(threads);
    if batch {
        cfg = cfg.batch_envelopes();
    }
    let sinks = (0..dinefd_sim::shard::shard_count(threads, n)).map(|_| Trace::default());
    let mut w = dinefd_sim::ShardedWorld::new_with_shard_sinks(nodes, cfg, sinks.collect());
    if by_hand {
        while w.peek_time().is_some_and(|t| t <= Time(3_000)) {
            w.step_instant();
        }
    }
    w.run_until(Time(3_000));
    let metrics: Vec<(String, u64)> = w.metrics_map().into_iter().collect();
    let now = w.now();
    (now, format!("{:?}", Trace::merge(w.into_sinks()).events()), metrics)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sharded simulator's contract: for any seed, shard count, delay
    /// model, batching mode, and mid-run crash, a world of `shards` shards
    /// stepped by hand and a parallel run (t ∈ {2, 4, 8}) equal the
    /// one-shard sequential run — clock, the merged recording, and metric
    /// export.
    #[test]
    fn parallel_shard_runs_match_sequential(
        seed in any::<u64>(),
        n in 4usize..10,
        shards in 2usize..9,
        delay in 0u8..5,
        batch in any::<bool>(),
        crash in 1u64..2_500,
    ) {
        let reference = sharded_fingerprint(seed, n, 1, false, delay, batch, crash);
        let by_hand = sharded_fingerprint(seed, n, shards, true, delay, batch, crash);
        prop_assert_eq!(&by_hand, &reference, "shards={} by hand", shards);
        for threads in [2usize, 4, 8] {
            let par = sharded_fingerprint(seed, n, threads, false, delay, batch, crash);
            prop_assert_eq!(&par, &reference, "threads={}", threads);
        }
    }
}
