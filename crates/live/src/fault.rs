//! Per-link fault schedules, applied in the link's reader.
//!
//! Each ordered link `(i → j)` of a live cluster is one TCP connection; the
//! reader thread on `j`'s side passes every frame through the link's
//! schedule before it reaches `j`'s inbox. The link can misbehave until its
//! *global stabilization time* and must behave afterwards — the
//! partial-synchrony contract the heartbeat ◇P is built for. Faults
//! compose: a frame may be dropped, held back one slot (reorder), and
//! delayed; after GST every frame is delivered promptly and in order.

use std::time::Duration;

use dinefd_runtime::SplitMix64;

/// What one link's reader does to frames before GST.
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
}
