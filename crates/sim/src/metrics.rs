//! Run-level metrics: counters, gauges and fixed-bucket histograms.
//!
//! Everything here is a plain struct owned by whatever is being measured —
//! no globals, no atomics, no allocation on the hot path — so the serial
//! simulator loop pays one integer update per recorded event and the whole
//! set can be snapshotted, diffed, and serialized to the
//! `BENCH_experiments.json` golden (see `EXPERIMENTS.md`).
//!
//! Determinism: every type in this module except [`WorkerStats`] measures
//! *logical* quantities (event counts, queue depths, virtual-time delays),
//! so two runs of the same seed produce byte-identical exports. This module
//! reads no clock: a caller that wants a run's wall-clock times the call.

use std::collections::BTreeMap;

/// A flattened, key-sorted export of a metric set. Keys are
/// `dotted.snake_case` paths; values are exact integers, so serializing a
/// `MetricMap` with the vendored `serde_json` is byte-stable across reruns
/// of the same seed.
pub type MetricMap = BTreeMap<String, u64>;

/// A monotonic event counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

impl From<u64> for Counter {
    fn from(n: u64) -> Self {
        Counter(n)
    }
}

/// An instantaneous level that remembers its high-water mark (e.g. event
/// queue depth).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gauge {
    current: u64,
    high_water: u64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the current level, updating the high-water mark.
    #[inline]
    pub fn set(&mut self, v: u64) {
        self.current = v;
        if v > self.high_water {
            self.high_water = v;
        }
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> u64 {
        self.current
    }

    /// Largest level ever set.
    #[inline]
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Merges another gauge into this one: levels add (the combined level
    /// of two disjoint backlogs is their sum), and the high-water mark is
    /// the max of the two marks — a *lower bound* on the true high water of
    /// the combined level, since the two peaks need not coincide in time.
    /// Callers needing the exact combined high water must track a combined
    /// gauge live (see `crate::shard::ShardedWorld`'s global depth gauge).
    pub fn absorb(&mut self, other: &Gauge) {
        self.current += other.current;
        self.high_water = self.high_water.max(other.high_water);
    }
}

/// Number of finite histogram buckets: bucket `i` counts values
/// `v ≤ 2^i` (not already counted by a smaller bucket); one extra overflow
/// bucket collects everything above the largest bound.
pub const HISTOGRAM_BUCKETS: usize = 13;

/// A fixed-bucket power-of-two histogram for latency/delay-like `u64`
/// samples. Bucketing is O(1) (a leading-zeros computation), so recording
/// is cheap enough for the simulator's per-send hot path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS + 1],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram { counts: [0; HISTOGRAM_BUCKETS + 1], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Upper bound (inclusive) of finite bucket `i`.
    pub fn bucket_bound(i: usize) -> u64 {
        1u64 << i
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        // ceil(log2(v)) for v ≥ 1; zero lands in the first bucket.
        let idx = if v <= 1 { 0 } else { (64 - (v - 1).leading_zeros()) as usize };
        self.counts[idx.min(HISTOGRAM_BUCKETS)] += 1;
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// `(upper_bound, count)` per non-empty bucket; the overflow bucket
    /// reports `u64::MAX` as its bound.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| {
            let bound = if i < HISTOGRAM_BUCKETS { Histogram::bucket_bound(i) } else { u64::MAX };
            (bound, c)
        })
    }

    /// Merges another histogram into this one — bucket-wise addition, so
    /// `a.absorb(&b)` equals the histogram of the concatenated sample
    /// streams exactly (counts, sum, min, max, and every bucket).
    pub fn absorb(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Flattens into `prefix.count`, `prefix.sum`, `prefix.min`,
    /// `prefix.max`, and one `prefix.le_N` / `prefix.inf` key per
    /// non-empty bucket.
    pub fn export(&self, prefix: &str, out: &mut MetricMap) {
        out.insert(format!("{prefix}.count"), self.count);
        out.insert(format!("{prefix}.sum"), self.sum);
        out.insert(format!("{prefix}.min"), self.min());
        out.insert(format!("{prefix}.max"), self.max);
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let key = if i < HISTOGRAM_BUCKETS {
                format!("{prefix}.le_{}", Histogram::bucket_bound(i))
            } else {
                format!("{prefix}.inf")
            };
            out.insert(key, c);
        }
    }
}

/// Everything one simulated run counts.
///
/// Each shard's step executor owns one, updated inline on its event loop;
/// read the merged set through [`crate::shard::ShardedWorld::metrics`]. All
/// fields are logical quantities, so equal seeds produce equal metric sets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimMetrics {
    /// Atomic steps dispatched (start + message + timer steps).
    pub steps: Counter,
    /// Messages handed to the network.
    pub messages_sent: Counter,
    /// Messages delivered to live processes.
    pub messages_delivered: Counter,
    /// Messages that vanished because the receiver had crashed.
    pub messages_dropped: Counter,
    /// Crash events that took effect.
    pub crash_events: Counter,
    /// Timer events dispatched to live processes.
    pub timer_fires: Counter,
    /// Timers armed by nodes.
    pub timers_set: Counter,
    /// Application-level observations emitted by nodes (counted whatever
    /// the shards' sinks do with them).
    pub observations: Counter,
    /// Wire envelopes: one per destination of a batched step (its messages
    /// share one delay draw), one per message otherwise (then equal to
    /// `messages_sent`: every message rides alone).
    pub envelopes_sent: Counter,
    /// Messages per envelope. Only populated when envelope batching is on;
    /// with batching off the histogram stays empty (occupancy is trivially
    /// 1 and recording it would cost the default hot path).
    pub envelope_occupancy: Histogram,
    /// Event-queue depth, one entry per pending crash, timer or message
    /// (high-water mark is the backlog measure).
    pub queue_depth: Gauge,
    /// Sampled delivery delays, in virtual ticks — one sample per delay
    /// draw, i.e. per message without batching and per envelope with it.
    pub delay_ticks: Histogram,
}

impl SimMetrics {
    /// A zeroed metric set.
    pub fn new() -> Self {
        SimMetrics::default()
    }

    /// Merges a shard's metrics into this set: counters and histograms add
    /// exactly; the queue-depth gauge adds levels and takes the max of
    /// high-water marks (see [`Gauge::absorb`] for why that is a lower
    /// bound rather than the true combined peak).
    pub fn absorb(&mut self, other: &SimMetrics) {
        self.steps.add(other.steps.get());
        self.messages_sent.add(other.messages_sent.get());
        self.messages_delivered.add(other.messages_delivered.get());
        self.messages_dropped.add(other.messages_dropped.get());
        self.crash_events.add(other.crash_events.get());
        self.timer_fires.add(other.timer_fires.get());
        self.timers_set.add(other.timers_set.get());
        self.observations.add(other.observations.get());
        self.envelopes_sent.add(other.envelopes_sent.get());
        self.envelope_occupancy.absorb(&other.envelope_occupancy);
        self.queue_depth.absorb(&other.queue_depth);
        self.delay_ticks.absorb(&other.delay_ticks);
    }

    /// Flattens into a key-sorted map. `delay_model` labels the delay
    /// histogram with the [`crate::net::DelayModel`] variant that produced
    /// it.
    pub fn export(&self, delay_model: &str) -> MetricMap {
        let mut out = MetricMap::new();
        out.insert("steps".into(), self.steps.get());
        out.insert("messages_sent".into(), self.messages_sent.get());
        out.insert("messages_delivered".into(), self.messages_delivered.get());
        out.insert("messages_dropped".into(), self.messages_dropped.get());
        out.insert("crash_events".into(), self.crash_events.get());
        out.insert("timer_fires".into(), self.timer_fires.get());
        out.insert("timers_set".into(), self.timers_set.get());
        out.insert("observations".into(), self.observations.get());
        out.insert("envelopes_sent".into(), self.envelopes_sent.get());
        out.insert("queue_depth_high_water".into(), self.queue_depth.high_water());
        out.insert("queue_depth_final".into(), self.queue_depth.get());
        self.envelope_occupancy.export("envelope_occupancy", &mut out);
        self.delay_ticks.export(&format!("delay_ticks.{delay_model}"), &mut out);
        out
    }
}

/// Wall-clock accounting of one parallel shard worker: how long it spent
/// executing shard instants (`busy`) versus blocked at the per-instant
/// barrier waiting for the coordinator (`barrier_wait`), one sample per
/// instant, in microseconds.
///
/// **Wall-clock, never deterministic** — this type is deliberately *not*
/// part of [`SimMetrics`] (whose export is byte-diffed across reruns by the
/// perf-smoke gate). Only the engine can see a barrier wait, so it keeps
/// these; the E8 parallel-frontier table's "barrier %" column reads them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Microseconds spent executing shard instants, one sample per instant.
    pub busy_micros: Histogram,
    /// Microseconds spent blocked at the instant barrier, one sample per
    /// wait.
    pub barrier_wait_micros: Histogram,
    /// Shard-instants this worker executed.
    pub instants: Counter,
}

impl WorkerStats {
    /// A zeroed stat set.
    pub fn new() -> Self {
        WorkerStats::default()
    }

    /// Merges another worker's samples into this set (exact).
    pub fn absorb(&mut self, other: &WorkerStats) {
        self.busy_micros.absorb(&other.busy_micros);
        self.barrier_wait_micros.absorb(&other.barrier_wait_micros);
        self.instants.add(other.instants.get());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let mut g = Gauge::new();
        g.set(3);
        g.set(9);
        g.set(2);
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_water(), 9);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 5, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1_000_000);
        let buckets: Vec<(u64, u64)> = h.buckets().collect();
        // 0 and 1 → le_1; 2 → le_2; 3, 4 → le_4; 5 → le_8; 1e6 → overflow.
        assert_eq!(buckets, vec![(1, 2), (2, 1), (4, 2), (8, 1), (u64::MAX, 1)]);
        let total: u64 = buckets.iter().map(|(_, c)| c).sum();
        assert_eq!(total, h.count());
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive() {
        // Exact powers of two must land in their own bucket, not the next.
        for i in 0..HISTOGRAM_BUCKETS {
            let mut h = Histogram::new();
            h.record(Histogram::bucket_bound(i));
            let buckets: Vec<(u64, u64)> = h.buckets().collect();
            assert_eq!(buckets, vec![(Histogram::bucket_bound(i), 1)]);
        }
    }

    #[test]
    fn empty_histogram_is_inert() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.buckets().count(), 0);
    }

    #[test]
    fn histogram_absorb_equals_concatenated_stream() {
        let (mut a, mut b, mut whole) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [1u64, 7, 900, 3] {
            a.record(v);
            whole.record(v);
        }
        for v in [2u64, 40_000, 5] {
            b.record(v);
            whole.record(v);
        }
        a.absorb(&b);
        assert_eq!(a, whole);
        // Absorbing an empty histogram changes nothing (min stays intact).
        let snapshot = a.clone();
        a.absorb(&Histogram::new());
        assert_eq!(a, snapshot);
    }

    #[test]
    fn gauge_absorb_adds_levels_and_maxes_high_water() {
        let mut a = Gauge::new();
        a.set(10);
        a.set(4);
        let mut b = Gauge::new();
        b.set(7);
        b.set(5);
        a.absorb(&b);
        assert_eq!(a.get(), 9, "levels add");
        assert_eq!(a.high_water(), 10, "high water is the max of marks");
    }

    #[test]
    fn sim_metrics_absorb_sums_counters() {
        let mut a = SimMetrics::new();
        a.steps.add(3);
        a.messages_sent.add(2);
        a.delay_ticks.record(4);
        let mut b = SimMetrics::new();
        b.steps.add(5);
        b.observations.add(1);
        b.delay_ticks.record(9);
        a.absorb(&b);
        assert_eq!(a.steps.get(), 8);
        assert_eq!(a.messages_sent.get(), 2);
        assert_eq!(a.observations.get(), 1);
        assert_eq!(a.delay_ticks.count(), 2);
        assert_eq!(a.delay_ticks.sum(), 13);
    }

    #[test]
    fn sim_metrics_export_is_sorted_and_labeled() {
        let mut m = SimMetrics::new();
        m.steps.add(10);
        m.messages_sent.add(4);
        m.delay_ticks.record(3);
        m.queue_depth.set(7);
        m.queue_depth.set(2);
        let map = m.export("uniform");
        assert_eq!(map["steps"], 10);
        assert_eq!(map["messages_sent"], 4);
        assert_eq!(map["queue_depth_high_water"], 7);
        assert_eq!(map["delay_ticks.uniform.count"], 1);
        assert_eq!(map["delay_ticks.uniform.le_4"], 1);
        let keys: Vec<&String> = map.keys().collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "BTreeMap export must iterate sorted");
    }
}
