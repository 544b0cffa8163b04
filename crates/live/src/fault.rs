//! Per-link fault schedules, applied by the event loop that reads the link.
//!
//! An ordered link `(i → j)` can misbehave until its *global stabilization
//! time* and must behave afterwards — the partial-synchrony contract the
//! heartbeat ◇P is built for. A frame may be dropped, held back one slot
//! (reorder), and delayed: the delay line is a series of release instants,
//! `t + delay_at(t)` for a frame reaching it at `t = max(now, line_free)`,
//! never a sleep, so a slow link holds back only its own frames.

use std::collections::VecDeque;
use std::time::Duration;

use dinefd_runtime::SplitMix64;

/// What one link does to frames before GST.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkFault {
    /// Global stabilization time of this link, in ms since cluster start.
    /// Zero means the link is well-behaved from the outset.
    pub gst_ms: u64,
    /// Added per-frame delay before GST, in ms.
    pub delay_ms: u64,
    /// If true the pre-GST delay *ramps down* linearly as GST approaches
    /// (full `delay_ms` at t=0, zero at GST); if false it stays fixed.
    pub ramping: bool,
    /// Per-frame drop probability before GST, in per-mille (0..=1000).
    /// Dropping is only sound for idempotent traffic (heartbeats); token
    /// protocols need lossless links even before GST.
    pub drop_per_mille: u16,
    /// Per-frame probability of holding a frame back one slot (swapping it
    /// with its successor), in per-mille.
    pub reorder_per_mille: u16,
}

impl LinkFault {
    /// A link that never misbehaves.
    pub fn clean() -> Self {
        LinkFault {
            gst_ms: 0,
            delay_ms: 0,
            ramping: false,
            drop_per_mille: 0,
            reorder_per_mille: 0,
        }
    }

    /// Fixed `delay_ms` per frame until `gst_ms`.
    pub fn fixed_delay(gst_ms: u64, delay_ms: u64) -> Self {
        LinkFault { gst_ms, delay_ms, ..Self::clean() }
    }

    /// Delay ramping down from `delay_ms` to zero at `gst_ms`.
    pub fn ramping_delay(gst_ms: u64, delay_ms: u64) -> Self {
        LinkFault { gst_ms, delay_ms, ramping: true, ..Self::clean() }
    }

    /// The delay to apply to a frame observed at `now_ms`.
    pub fn delay_at(&self, now_ms: u64) -> Duration {
        if now_ms >= self.gst_ms || self.delay_ms == 0 {
            return Duration::ZERO;
        }
        let ms = if self.ramping {
            // Linear ramp: full delay at t=0, zero at GST.
            let remaining = self.gst_ms - now_ms;
            self.delay_ms.saturating_mul(remaining) / self.gst_ms.max(1)
        } else {
            self.delay_ms
        };
        Duration::from_millis(ms)
    }

    /// Whether to drop a frame observed at `now_ms`.
    pub fn drops(&self, now_ms: u64, rng: &mut SplitMix64) -> bool {
        now_ms < self.gst_ms
            && self.drop_per_mille > 0
            && rng.below(1000) < u64::from(self.drop_per_mille)
    }

    /// Whether to hold a frame back one slot at `now_ms`.
    pub fn reorders(&self, now_ms: u64, rng: &mut SplitMix64) -> bool {
        now_ms < self.gst_ms
            && self.reorder_per_mille > 0
            && rng.below(1000) < u64::from(self.reorder_per_mille)
    }
}

/// The receiving end of one ordered link: its schedule and random stream,
/// the one-slot hold-back, and the delay line of `(release ms, frame)`.
#[derive(Debug)]
pub(crate) struct LinkFilter<M> {
    fault: LinkFault,
    rng: SplitMix64,
    held: Option<M>,
    line: VecDeque<(u64, M)>,
    /// Frames let through (the held one once it is released) and dropped.
    pub(crate) forwarded: u64,
    pub(crate) dropped: u64,
}

impl<M> LinkFilter<M> {
    pub(crate) fn new(fault: LinkFault, rng: SplitMix64) -> Self {
        LinkFilter { fault, rng, held: None, line: VecDeque::new(), forwarded: 0, dropped: 0 }
    }

    /// Passes a frame read at `now_ms` through the schedule, drawing when
    /// it reaches the line.
    pub(crate) fn admit(&mut self, now_ms: u64, msg: M) {
        let t = self.line_free(now_ms);
        if self.fault.drops(t, &mut self.rng) {
            self.dropped += 1;
        } else if self.held.is_none() && self.fault.reorders(t, &mut self.rng) {
            self.held = Some(msg);
        } else {
            self.forwarded += 1;
            self.line.push_back((t + self.fault.delay_at(t).as_millis() as u64, msg));
            // The held-back frame follows its successor: a one-slot reorder.
            self.end(t);
        }
    }

    /// The link's end of stream: the held frame, if any, goes on the line.
    pub(crate) fn end(&mut self, now_ms: u64) {
        if let Some(held) = self.held.take() {
            self.forwarded += 1;
            self.line.push_back((self.line_free(now_ms), held));
        }
    }

    /// The next frame due by `now_ms`.
    pub(crate) fn release(&mut self, now_ms: u64) -> Option<M> {
        self.line.pop_front_if(|(at, _)| *at <= now_ms).map(|(_, msg)| msg)
    }

    /// When a frame reaching the line at `now_ms` gets to its front.
    fn line_free(&self, now_ms: u64) -> u64 {
        self.line.back().map_or(now_ms, |&(at, _)| at.max(now_ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_link_never_misbehaves() {
        let f = LinkFault::clean();
        let mut rng = SplitMix64::new(1);
        for t in [0u64, 1, 1000] {
            assert_eq!(f.delay_at(t), Duration::ZERO);
            assert!(!f.drops(t, &mut rng));
            assert!(!f.reorders(t, &mut rng));
        }
    }

    #[test]
    fn fixed_delay_stops_exactly_at_gst() {
        let f = LinkFault::fixed_delay(100, 40);
        assert_eq!(f.delay_at(0), Duration::from_millis(40));
        assert_eq!(f.delay_at(99), Duration::from_millis(40));
        assert_eq!(f.delay_at(100), Duration::ZERO);
        assert_eq!(f.delay_at(10_000), Duration::ZERO);
    }

    #[test]
    fn ramping_delay_decays_to_zero() {
        let f = LinkFault::ramping_delay(100, 40);
        assert_eq!(f.delay_at(0), Duration::from_millis(40));
        assert_eq!(f.delay_at(50), Duration::from_millis(20));
        assert!(f.delay_at(99) <= Duration::from_millis(1));
        assert_eq!(f.delay_at(100), Duration::ZERO);
    }

    #[test]
    fn drops_and_reorders_only_before_gst() {
        let f = LinkFault {
            gst_ms: 50,
            drop_per_mille: 1000,
            reorder_per_mille: 1000,
            ..LinkFault::clean()
        };
        let mut rng = SplitMix64::new(2);
        assert!(f.drops(0, &mut rng));
        assert!(f.reorders(49, &mut rng));
        for _ in 0..100 {
            assert!(!f.drops(50, &mut rng));
            assert!(!f.reorders(50, &mut rng));
        }
    }

    /// Everything `f` releases at each of `instants`, tagged with the instant.
    fn releases(f: &mut LinkFilter<u32>, instants: &[u64]) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        for &t in instants {
            while let Some(m) = f.release(t) {
                out.push((t, m));
            }
        }
        out
    }

    #[test]
    fn delay_line_releases_at_serial_instants() {
        let mut f = LinkFilter::new(LinkFault::fixed_delay(100, 40), SplitMix64::new(3));
        for (at, m) in [(0, 1), (5, 2), (10, 3)] {
            f.admit(at, m);
        }
        // 0 + 40, then max(5, 40) + 40, then max(10, 80) + 40 = 120 ≥ GST.
        assert_eq!(releases(&mut f, &[39, 40, 79, 80, 119, 120]), [(40, 1), (80, 2), (120, 3)]);
        // Past GST the line is clean: a frame goes out the instant it is read.
        f.admit(130, 4);
        assert_eq!(f.release(130), Some(4));
        assert_eq!((f.forwarded, f.dropped), (4, 0));
    }

    #[test]
    fn held_frame_follows_its_successor_or_the_end_of_stream() {
        let fault = LinkFault { gst_ms: u64::MAX, reorder_per_mille: 1000, ..LinkFault::clean() };
        let mut f = LinkFilter::new(fault, SplitMix64::new(4));
        for m in 1..=3 {
            f.admit(0, m);
        }
        assert_eq!(releases(&mut f, &[0]), [(0, 2), (0, 1)]);
        assert_eq!(f.forwarded, 2, "the third is still held");
        f.end(7);
        assert_eq!(releases(&mut f, &[7]), [(7, 3)]);
        assert_eq!(f.forwarded, 3);
    }
}
