//! A hierarchical timer wheel — the simulator's event queue.
//!
//! A simulated run schedules almost everything *near* the current instant:
//! message delays are small (the delay models top out at a few hundred
//! ticks) and node self-ticks are single digits, so a binary heap's
//! `O(log n)` per operation — with its cache-hostile percolation over a
//! million pending events at `n = 1024` — buys generality the workload
//! never uses. The wheel splits the horizon into two levels:
//!
//! * **near**: a fixed ring of [`NEAR_SLOTS`] one-tick slots covering the
//!   window `[window_start, window_start + NEAR_SLOTS)`, with a bitmap of
//!   occupied slots so finding the next non-empty instant is a couple of
//!   `trailing_zeros` instructions. Push and pop are `O(1)`.
//! * **far**: a `BTreeMap` keyed by exact instant for the rare event beyond
//!   the window (GST-scale delays, late crash plans). When the near window
//!   drains, the wheel jumps straight to the window containing the earliest
//!   far instant and moves every bucket that now fits into the ring.
//!
//! ## Ordering contract
//!
//! [`TimerWheel::pop`] yields items in ascending `(time, insertion order)`
//! — the order of a binary heap keyed by `(time, push counter)`. Within a
//! slot the wheel appends on push and pops from the front; far buckets
//! preserve append order and whole buckets move into the ring at window
//! roll, so insertion order survives every path. [`TimerWheel::pop_instant`]
//! hands over a whole instant in the same order. The tests below pin the
//! wheel against exactly such a heap.
//!
//! ## Memory
//!
//! A drained slot gives its buffer back: both pops move it out of the ring
//! onto a spare list of at most `SPARE_SLOTS` buffers, and a push into a
//! slot without one takes a spare before it allocates. So the ring holds
//! buffers only for the instants that are live, however long the run: a
//! run shorter than the ring would otherwise leave one grown buffer behind
//! per instant it ever used, and a longer one one per slot.

use std::collections::{BTreeMap, VecDeque};

use crate::time::Time;

/// Size of the near ring in one-tick slots. Covers every delay the stock
/// models draw in the common case (uniform/heavy-tail common range ≤ 16,
/// spikes to 400 occasionally go far). Must be a power of two.
pub const NEAR_SLOTS: usize = 512;

const WORDS: usize = NEAR_SLOTS / 64;

/// Most drained slot buffers the wheel keeps for reuse. Over a run pops
/// drain as many slots as pushes open, but not instant by instant: the
/// spare count wanders, and each time it hits zero a push grows a buffer
/// from empty, each time it hits the cap a drained buffer is freed. At 2
/// that churn cost the benchmark's `extract_long` (n = 8, horizon 50k)
/// about 2 % of its throughput on a 2-vCPU host; a cap of 16 makes it
/// rare.
const SPARE_SLOTS: usize = 16;

/// A two-level timer wheel holding values of type `V`, popped in ascending
/// `(time, insertion order)`. See the module docs for the ordering contract.
#[derive(Debug)]
pub struct TimerWheel<V> {
    /// One-tick slots; slot `t % NEAR_SLOTS` holds the events of instant
    /// `t` while `t` lies inside the current window.
    slots: Vec<VecDeque<V>>,
    /// Occupancy bitmap over `slots` (bit set ⇔ slot non-empty).
    occupied: [u64; WORDS],
    /// First instant of the near window; always `≡ 0 (mod NEAR_SLOTS)`.
    window_start: u64,
    /// Lower bound on the next pop's instant (the scan cursor). Invariant:
    /// `window_start <= cursor < window_start + NEAR_SLOTS`.
    cursor: u64,
    /// Events beyond the near window, keyed by exact instant; bucket order
    /// is append order.
    far: BTreeMap<u64, Vec<V>>,
    /// Empty buffers of drained slots, at most `SPARE_SLOTS`.
    spare: Vec<VecDeque<V>>,
    len: usize,
}

impl<V> Default for TimerWheel<V> {
    fn default() -> Self {
        TimerWheel {
            slots: (0..NEAR_SLOTS).map(|_| VecDeque::new()).collect(),
            occupied: [0; WORDS],
            window_start: 0,
            cursor: 0,
            far: BTreeMap::new(),
            spare: Vec::new(),
            len: 0,
        }
    }
}

impl<V> TimerWheel<V> {
    /// An empty wheel with its window at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no items are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// End of the near window, `None` when the window touches the horizon.
    #[inline]
    fn window_end(&self) -> Option<u64> {
        self.window_start.checked_add(NEAR_SLOTS as u64)
    }

    #[inline]
    fn mark(&mut self, slot: usize) {
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    #[inline]
    fn unmark(&mut self, slot: usize) {
        self.occupied[slot / 64] &= !(1 << (slot % 64));
    }

    /// The buffer of `slot`, given a spare first if it holds none.
    #[inline]
    fn fill(&mut self, slot: usize) -> &mut VecDeque<V> {
        if self.slots[slot].capacity() == 0 {
            if let Some(spare) = self.spare.pop() {
                self.slots[slot] = spare;
            }
        }
        &mut self.slots[slot]
    }

    /// Marks the drained `slot` empty and moves its buffer out of the ring,
    /// onto the spare list while that has room.
    #[inline]
    fn release(&mut self, slot: usize) {
        debug_assert!(self.slots[slot].is_empty());
        self.unmark(slot);
        let buf = std::mem::take(&mut self.slots[slot]);
        if self.spare.len() < SPARE_SLOTS {
            self.spare.push(buf);
        }
    }

    /// Schedules `v` at absolute instant `at`.
    ///
    /// # Panics
    ///
    /// If `at` lies before an already-popped instant — the simulation clock
    /// never runs backwards, so such a push is a caller bug.
    pub fn push(&mut self, at: Time, v: V) {
        let t = at.ticks();
        assert!(t >= self.cursor, "wheel push at t{t} behind the cursor t{}", self.cursor);
        if self.window_end().is_some_and(|end| t < end) {
            let slot = (t % NEAR_SLOTS as u64) as usize;
            self.fill(slot).push_back(v);
            self.mark(slot);
        } else {
            self.far.entry(t).or_default().push(v);
        }
        self.len += 1;
    }

    /// First occupied slot index at or after `from_slot`, if any.
    fn scan_from(&self, from_slot: usize) -> Option<usize> {
        let (mut word, bit) = (from_slot / 64, from_slot % 64);
        let mut bits = self.occupied[word] & (!0u64 << bit);
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word == WORDS {
                return None;
            }
            bits = self.occupied[word];
        }
    }

    /// Rolls the window forward to the one containing the earliest far
    /// instant and moves every bucket that now fits into the ring. Requires
    /// the ring to be empty and `far` non-empty.
    fn roll(&mut self) {
        debug_assert!(self.scan_from(0).is_none(), "roll with a non-empty ring");
        let &earliest = self.far.keys().next().expect("roll with an empty far level");
        self.window_start = earliest - (earliest % NEAR_SLOTS as u64);
        self.cursor = earliest;
        match self.window_end() {
            Some(end) => {
                let beyond = self.far.split_off(&end);
                let within = std::mem::replace(&mut self.far, beyond);
                for (t, bucket) in within {
                    let slot = (t % NEAR_SLOTS as u64) as usize;
                    self.fill(slot).extend(bucket);
                    self.mark(slot);
                }
            }
            None => {
                // The window touches the horizon: everything left fits.
                for (t, bucket) in std::mem::take(&mut self.far) {
                    let slot = (t % NEAR_SLOTS as u64) as usize;
                    self.fill(slot).extend(bucket);
                    self.mark(slot);
                }
            }
        }
    }

    /// Advances the cursor to the next non-empty instant. Requires
    /// `len > 0`. Returns the slot holding it.
    fn seek(&mut self) -> usize {
        debug_assert!(self.len > 0);
        // The cursor may lag arbitrarily (pops drain slots lazily), so scan
        // the ring from it; if the rest of the window is empty, the
        // remaining events are all far.
        let from = (self.cursor % NEAR_SLOTS as u64) as usize;
        // A slot below `from` can only belong to a *later* window lap; the
        // ring never holds two laps at once because `push` bounds near
        // times to the current window. So scanning upward is complete.
        if let Some(slot) = self.scan_from(from) {
            self.cursor = self.window_start + slot as u64;
            return slot;
        }
        self.roll();
        (self.cursor % NEAR_SLOTS as u64) as usize
    }

    /// Instant of the earliest pending item.
    ///
    /// Non-mutating by design: a peek commits to nothing, so a caller
    /// coordinating several wheels (e.g. [`crate::shard::ShardedWorld`])
    /// may peek a wheel arbitrarily far ahead of the instants it will
    /// still push into. Only [`TimerWheel::pop`] advances the cursor and
    /// rolls windows. The min is cheap without mutation because far keys
    /// are always `≥` the near window's end: if the ring is non-empty its
    /// first occupied slot is the min, otherwise the first far key is.
    pub fn peek_time(&self) -> Option<Time> {
        if self.len == 0 {
            return None;
        }
        let from = (self.cursor % NEAR_SLOTS as u64) as usize;
        if let Some(slot) = self.scan_from(from) {
            return Some(Time(self.window_start + slot as u64));
        }
        self.far.keys().next().map(|&t| Time(t))
    }

    /// Moves every item due at `t` onto the end of `out`, in insertion
    /// order, when `t` is the earliest pending instant; otherwise does
    /// nothing. One scan for the whole instant, where a `peek_time`/`pop`
    /// loop scans twice per item. A miss leaves the cursor where it was, so
    /// a caller coordinating several wheels may ask each for the global
    /// minimum instant and still push later items into every one of them.
    pub fn pop_instant(&mut self, t: Time, out: &mut Vec<V>) {
        if self.peek_time() != Some(t) {
            return;
        }
        if self.window_end().is_some_and(|end| t.ticks() >= end) {
            // `t` is the minimum yet beyond the window: the ring is empty
            // and `t` is the first far key, so the roll lands on it.
            self.roll();
        }
        self.cursor = t.ticks();
        let slot = (t.ticks() % NEAR_SLOTS as u64) as usize;
        self.len -= self.slots[slot].len();
        out.extend(self.slots[slot].drain(..));
        self.release(slot);
    }

    /// Removes and returns the earliest item with its instant.
    pub fn pop(&mut self) -> Option<(Time, V)> {
        if self.len == 0 {
            return None;
        }
        let slot = self.seek();
        let v = self.slots[slot].pop_front().expect("seek found an occupied slot");
        if self.slots[slot].is_empty() {
            self.release(slot);
        }
        self.len -= 1;
        Some((Time(self.cursor), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn pops_in_time_order_across_levels() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.push(Time(30), 0);
        w.push(Time(10), 1);
        w.push(Time(100_000), 2); // far
        w.push(Time(20), 3);
        let order: Vec<(u64, u32)> =
            std::iter::from_fn(|| w.pop()).map(|(t, v)| (t.ticks(), v)).collect();
        assert_eq!(order, vec![(10, 1), (20, 3), (30, 0), (100_000, 2)]);
        assert!(w.is_empty());
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        for i in 0..100 {
            w.push(Time(7), i);
        }
        let popped: Vec<u32> = std::iter::from_fn(|| w.pop()).map(|(_, v)| v).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn far_buckets_preserve_insertion_order_through_a_roll() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let far_t = Time(10 * NEAR_SLOTS as u64 + 3);
        for i in 0..10 {
            w.push(far_t, i);
        }
        w.push(Time(1), 99);
        assert_eq!(w.pop(), Some((Time(1), 99)));
        let popped: Vec<u32> = std::iter::from_fn(|| w.pop()).map(|(_, v)| v).collect();
        assert_eq!(popped, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_at_the_cursor_instant() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.push(Time(5), 0);
        assert_eq!(w.pop(), Some((Time(5), 0)));
        // Same-instant push after a pop is legal and pops next.
        w.push(Time(5), 1);
        w.push(Time(6), 2);
        assert_eq!(w.pop(), Some((Time(5), 1)));
        assert_eq!(w.pop(), Some((Time(6), 2)));
    }

    #[test]
    #[should_panic(expected = "behind the cursor")]
    fn pushing_into_the_past_is_rejected() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.push(Time(50), 0);
        w.pop();
        w.push(Time(49), 1);
    }

    #[test]
    fn window_rolls_skip_empty_space() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        // Several rolls' worth of sparse far events.
        let times = [3u64, 700, 45_000, 46_000, 9_000_000];
        for (i, &t) in times.iter().enumerate() {
            w.push(Time(t), i as u32);
        }
        let popped: Vec<u64> = std::iter::from_fn(|| w.pop()).map(|(t, _)| t.ticks()).collect();
        assert_eq!(popped, times.to_vec());
    }

    #[test]
    fn horizon_instants_are_reachable() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.push(Time::INFINITY, 1);
        w.push(Time(u64::MAX - 1), 0);
        assert_eq!(w.peek_time(), Some(Time(u64::MAX - 1)));
        assert_eq!(w.pop(), Some((Time(u64::MAX - 1), 0)));
        assert_eq!(w.pop(), Some((Time::INFINITY, 1)));
        assert_eq!(w.pop(), None);
    }

    /// Randomized differential against the reference queue, a
    /// `BinaryHeap` keyed by `(time, push counter)`: interleaved push/pop
    /// workloads whose delays mix same-instant ties, the near window and
    /// far spikes must pop identically.
    #[test]
    fn wheel_and_heap_pop_identically() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut rng = SplitMix64::new(0xD1FF);
        for trial in 0..20 {
            let mut w: TimerWheel<u64> = TimerWheel::new();
            let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut now = 0u64;
            for id in 0..2_000u64 {
                if rng.chance(3, 5) || heap.is_empty() {
                    let delay = match rng.below(5) {
                        0 => rng.below(8),
                        1 => rng.range(1, 16),
                        2 => rng.range(1, 2 * NEAR_SLOTS as u64),
                        3 => rng.range(1, 50_000),
                        _ => rng.range(1, 5_000_000),
                    };
                    w.push(Time(now + delay), id);
                    heap.push(Reverse((now + delay, id)));
                } else {
                    assert_eq!(w.peek_time(), heap.peek().map(|r| Time(r.0 .0)), "trial {trial}");
                    let (t, v) = w.pop().expect("heap non-empty");
                    let Reverse((ht, hv)) = heap.pop().expect("heap non-empty");
                    assert_eq!((t.ticks(), v), (ht, hv), "trial {trial} pop order");
                    now = t.ticks();
                }
            }
            while let Some(Reverse((ht, hv))) = heap.pop() {
                assert_eq!(w.pop().map(|(t, v)| (t.ticks(), v)), Some((ht, hv)), "trial {trial}");
            }
            assert!(w.is_empty());
        }
    }

    /// `pop_instant` against the same heap oracle: each round takes the
    /// heap's whole earliest instant and must get it from the wheel, in
    /// insertion order, while far spikes force window rolls.
    #[test]
    fn pop_instant_matches_the_heap_across_rolls() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut rng = SplitMix64::new(0x1257);
        let mut rolled = 0;
        for trial in 0..20 {
            let mut w: TimerWheel<u64> = TimerWheel::new();
            let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut now = 0u64;
            let mut next_id = 0u64;
            let mut got = Vec::new();
            for _ in 0..400 {
                for _ in 0..rng.range(1, 6) {
                    let delay = match rng.below(4) {
                        0 => rng.range(1, 4),
                        1 => rng.range(1, 16),
                        2 => rng.range(1, 2 * NEAR_SLOTS as u64),
                        _ => rng.range(1, 50_000),
                    };
                    // Same-instant ties from several pushes per round.
                    w.push(Time(now + delay), next_id);
                    heap.push(Reverse((now + delay, next_id)));
                    next_id += 1;
                }
                let Some(&Reverse((t, _))) = heap.peek() else { break };
                let mut want = Vec::new();
                while heap.peek().is_some_and(|r| r.0 .0 == t) {
                    want.extend(heap.pop().map(|r| r.0 .1));
                }
                if t >= (now / NEAR_SLOTS as u64 + 1) * NEAR_SLOTS as u64 {
                    rolled += 1;
                }
                got.clear();
                w.pop_instant(Time(t), &mut got);
                assert_eq!(got, want, "trial {trial} instant t{t}");
                assert_eq!(w.len(), heap.len(), "trial {trial}");
                now = t;
            }
        }
        assert!(rolled > 0, "the workload must cross window boundaries");
    }

    impl<V> TimerWheel<V> {
        /// Slot buffers holding an allocation, in the ring or spare.
        fn buffers_held(&self) -> usize {
            self.slots.iter().chain(&self.spare).filter(|q| q.capacity() > 0).count()
        }
    }

    /// At constant depth the wheel holds a buffer for each instant of the
    /// live window and at most [`SPARE_SLOTS`] more, through both pops, for
    /// several laps of the ring. A wheel whose drained slots keep their
    /// buffers holds one per slot it ever used: all of them after one lap.
    #[test]
    fn drained_slot_buffers_are_recycled() {
        const MAX_DELAY: u64 = 16;
        for whole_instants in [true, false] {
            let mut rng = SplitMix64::new(0xB0F);
            let mut w: TimerWheel<u64> = TimerWheel::new();
            for id in 0..64 {
                w.push(Time(rng.range(1, MAX_DELAY)), id);
            }
            let mut got = Vec::new();
            for _ in 0..4 * NEAR_SLOTS {
                let t = w.peek_time().expect("the depth stays constant");
                got.clear();
                if whole_instants {
                    w.pop_instant(t, &mut got);
                } else {
                    while w.peek_time() == Some(t) {
                        got.extend(w.pop().map(|(_, v)| v));
                    }
                }
                for &id in &got {
                    w.push(Time(t.ticks() + rng.range(1, MAX_DELAY)), id);
                }
                assert_eq!(w.len(), 64);
                let held = w.buffers_held();
                assert!(
                    held <= MAX_DELAY as usize + SPARE_SLOTS,
                    "{held} buffers held at t{} (pop_instant: {whole_instants})",
                    t.ticks()
                );
            }
        }
    }

    /// Asking for an instant before the wheel's minimum takes nothing and
    /// keeps the cursor, so items may still be pushed between the two.
    #[test]
    fn pop_instant_before_the_minimum_is_a_no_op() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let far = 3 * NEAR_SLOTS as u64;
        w.push(Time(far), 0);
        let mut got = Vec::new();
        w.pop_instant(Time(5), &mut got);
        assert!(got.is_empty());
        w.push(Time(6), 1);
        w.pop_instant(Time(6), &mut got);
        assert_eq!(got, vec![1]);
        w.pop_instant(Time(far), &mut got);
        assert_eq!(got, vec![1, 0]);
        assert!(w.is_empty());
    }
}
