//! Channel delay models — where the model's asynchrony lives.
//!
//! The paper assumes reliable non-FIFO channels with *unbounded* (but finite)
//! message delay. A [`DelayModel`] decides, per send, how many ticks the
//! message spends in transit. Because consecutive sends on the same channel
//! may receive wildly different delays, channels are naturally non-FIFO; the
//! event queue guarantees every message is eventually delivered, so they are
//! reliable.
//!
//! The `PartialSync` model implements the classical *global stabilization
//! time* (GST) formulation of partial synchrony: before GST delays follow an
//! arbitrary (heavy-tailed) model; from GST on, delays are bounded by a
//! constant `bound`. This is the environment in which the heartbeat ◇P of
//! `dinefd-fd` is correct, matching the paper's remark that sensor-network
//! style environments "are often partially synchronous".

use std::collections::HashMap;
use std::sync::Arc;

use crate::id::ProcessId;
use crate::rng::SplitMix64;
use crate::time::Time;

/// A scripted adversary choosing message delays.
///
/// Implementations can starve particular channels for long finite prefixes,
/// reorder aggressively, or correlate delays across channels — anything goes
/// as long as the returned delay is finite, which the trait cannot violate.
///
/// An adversary is a pure function of the send and the sender's random
/// stream (`&self`), so one instance is shared by every sender's copy of
/// the [`DelayModel`]; `Send + Sync` lets those copies move into the
/// shard-worker threads of [`crate::shard::ShardedWorld`].
pub trait Adversary: std::fmt::Debug + Send + Sync {
    /// Delay, in ticks, for a message sent `from → to` at time `now`.
    fn delay(&self, from: ProcessId, to: ProcessId, now: Time, rng: &mut SplitMix64) -> u64;
}

/// Per-message delivery-delay policy.
#[derive(Debug)]
pub enum DelayModel {
    /// Every message takes exactly `d` ticks (a synchronous network).
    Fixed(u64),
    /// Uniform over the inclusive range `[lo, hi]`.
    Uniform {
        /// Minimum delay in ticks.
        lo: u64,
        /// Maximum delay in ticks.
        hi: u64,
    },
    /// Mostly-uniform `[lo, hi]`, but with probability `spike_num/spike_den`
    /// the delay spikes uniformly into `[hi, spike_hi]` — a heavy tail that
    /// exercises non-FIFO reordering hard.
    HeavyTail {
        /// Minimum common-case delay.
        lo: u64,
        /// Maximum common-case delay.
        hi: u64,
        /// Spike probability numerator.
        spike_num: u64,
        /// Spike probability denominator.
        spike_den: u64,
        /// Maximum spiked delay.
        spike_hi: u64,
    },
    /// Arbitrary (heavy-tailed) before `gst`, bounded by `bound` after.
    PartialSync {
        /// The global stabilization time.
        gst: Time,
        /// Pre-GST behaviour.
        pre: Box<DelayModel>,
        /// Post-GST delay bound (delays are uniform in `[1, bound]`).
        bound: u64,
    },
    /// Fully scripted adversary.
    Scripted(Arc<dyn Adversary>),
    /// Per-channel FIFO discipline on top of any inner model: a message
    /// never overtakes an earlier message on the same ordered channel.
    ///
    /// The paper's model is explicitly non-FIFO, and the reduction must not
    /// rely on ordering either way — experiments run under both disciplines
    /// to show it doesn't. (The hardened sequence-tagged ping/ack variant
    /// exists precisely because non-FIFO channels permit stale messages.)
    ///
    /// When the inner model is [`DelayModel::PartialSync`], the GST
    /// contract takes precedence over ordering: sends at or after GST are
    /// delivered within `bound` even if a pre-GST straggler is still in
    /// flight on the channel (see [`DelayModel::post_gst_bound`]).
    Fifo {
        /// The delay model whose samples are clamped to preserve order.
        inner: Box<DelayModel>,
        /// Latest scheduled delivery per ordered channel (internal state).
        floors: HashMap<(u32, u32), u64>,
    },
}

impl DelayModel {
    /// A convenient moderately-asynchronous default: uniform `\[1, 16\]`.
    pub fn default_async() -> DelayModel {
        DelayModel::Uniform { lo: 1, hi: 16 }
    }

    /// A harsh heavy-tail model: usually `\[1, 16\]`, 5% spikes up to 400.
    pub fn harsh() -> DelayModel {
        DelayModel::HeavyTail { lo: 1, hi: 16, spike_num: 1, spike_den: 20, spike_hi: 400 }
    }

    /// Partially synchronous: harsh until `gst`, then bounded by `bound`.
    pub fn partially_synchronous(gst: Time, bound: u64) -> DelayModel {
        DelayModel::PartialSync { gst, pre: Box::new(DelayModel::harsh()), bound }
    }

    /// Wraps a model with per-channel FIFO ordering.
    pub fn fifo(inner: DelayModel) -> DelayModel {
        DelayModel::Fifo { inner: Box::new(inner), floors: HashMap::new() }
    }

    /// Short variant label, used to tag metric exports (e.g. the delay
    /// histogram of a run). Wrappers expose the wrapped variant too.
    pub fn kind(&self) -> &'static str {
        match self {
            DelayModel::Fixed(_) => "fixed",
            DelayModel::Uniform { .. } => "uniform",
            DelayModel::HeavyTail { .. } => "heavy_tail",
            DelayModel::PartialSync { .. } => "partial_sync",
            DelayModel::Scripted(_) => "scripted",
            DelayModel::Fifo { inner, .. } => match inner.as_ref() {
                DelayModel::Fixed(_) => "fifo_fixed",
                DelayModel::Uniform { .. } => "fifo_uniform",
                DelayModel::HeavyTail { .. } => "fifo_heavy_tail",
                DelayModel::PartialSync { .. } => "fifo_partial_sync",
                DelayModel::Scripted(_) => "fifo_scripted",
                DelayModel::Fifo { .. } => "fifo_fifo",
            },
        }
    }

    /// The delivery bound this model guarantees for a message sent at
    /// `now`, if any: `Some(bound)` iff the model is (or wraps) a
    /// [`DelayModel::PartialSync`] whose GST has passed. Wrappers such as
    /// [`DelayModel::Fifo`] must not weaken this bound.
    pub fn post_gst_bound(&self, now: Time) -> Option<u64> {
        match self {
            DelayModel::PartialSync { gst, bound, .. } if now >= *gst => Some((*bound).max(1)),
            DelayModel::Fifo { inner, .. } => inner.post_gst_bound(now),
            _ => None,
        }
    }

    /// [`DelayModel::fresh`], which never fails. Kept because the
    /// `benchmark/` harness still calls it.
    pub fn try_clone(&self) -> Option<DelayModel> {
        Some(self.fresh())
    }

    /// A fresh, state-independent copy of this model; a scripted model
    /// shares its adversary.
    ///
    /// "Fresh" matters for [`DelayModel::Fifo`]: the copy starts with empty
    /// per-channel floors, so it is only equivalent to the original *before
    /// any sample is drawn*. [`crate::shard::ShardedWorld`] copies the
    /// configured model once per process at construction — giving every
    /// sender its own delay state is what makes the schedule independent of
    /// the shard count.
    pub fn fresh(&self) -> DelayModel {
        match self {
            DelayModel::Fixed(d) => DelayModel::Fixed(*d),
            DelayModel::Uniform { lo, hi } => DelayModel::Uniform { lo: *lo, hi: *hi },
            DelayModel::HeavyTail { lo, hi, spike_num, spike_den, spike_hi } => {
                DelayModel::HeavyTail {
                    lo: *lo,
                    hi: *hi,
                    spike_num: *spike_num,
                    spike_den: *spike_den,
                    spike_hi: *spike_hi,
                }
            }
            DelayModel::PartialSync { gst, pre, bound } => {
                DelayModel::PartialSync { gst: *gst, pre: Box::new(pre.fresh()), bound: *bound }
            }
            DelayModel::Scripted(adv) => DelayModel::Scripted(Arc::clone(adv)),
            DelayModel::Fifo { inner, .. } => {
                DelayModel::Fifo { inner: Box::new(inner.fresh()), floors: HashMap::new() }
            }
        }
    }

    /// Samples a delay for one message. Always at least 1 tick.
    pub fn sample(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        now: Time,
        rng: &mut SplitMix64,
    ) -> u64 {
        let d = match self {
            DelayModel::Fixed(d) => *d,
            DelayModel::Uniform { lo, hi } => rng.range(*lo, *hi),
            DelayModel::HeavyTail { lo, hi, spike_num, spike_den, spike_hi } => {
                if rng.chance(*spike_num, *spike_den) {
                    rng.range(*hi, *spike_hi)
                } else {
                    rng.range(*lo, *hi)
                }
            }
            DelayModel::PartialSync { gst, pre, bound } => {
                if now < *gst {
                    pre.sample(from, to, now, rng)
                } else {
                    rng.range(1, (*bound).max(1))
                }
            }
            DelayModel::Scripted(adv) => adv.delay(from, to, now, rng),
            DelayModel::Fifo { inner, floors } => {
                // Regression (ISSUE 2): the per-channel floor used to lift
                // *post-GST* deliveries arbitrarily — one pre-GST
                // heavy-tail spike raised the floor past `gst + bound`,
                // and every later send on that channel inherited it,
                // silently voiding the PartialSync contract ("messages
                // sent after GST are delivered within `bound`"). The GST
                // guarantee takes precedence over FIFO ordering: a
                // post-GST send is capped at `now + bound`, even if that
                // means overtaking a still-in-flight pre-GST straggler.
                // FIFO order among post-GST sends is preserved (up to
                // same-tick ties, which the event queue resolves in send
                // order).
                let cap = inner.post_gst_bound(now);
                let d = inner.sample(from, to, now, rng).max(1);
                let floor = floors.entry((from.0, to.0)).or_insert(0);
                let mut deliver_at = (now.ticks() + d).max(*floor + 1);
                if let Some(bound) = cap {
                    deliver_at = deliver_at.min(now.ticks() + bound);
                }
                *floor = (*floor).max(deliver_at);
                return deliver_at - now.ticks();
            }
        };
        d.max(1)
    }
}

/// An adversary that delays messages on selected ordered channels by a large
/// constant until a release time, and is benign elsewhere — handy for
/// constructing worst-case finite prefixes (e.g. making a failure detector
/// look bad for as long as the model permits).
#[derive(Debug)]
pub struct ChannelStaller {
    /// Ordered pairs whose messages are stalled.
    pub stalled: Vec<(ProcessId, ProcessId)>,
    /// Messages sent before this time on stalled channels are held until
    /// (roughly) this time.
    pub release_at: Time,
    /// Benign delay bound used otherwise.
    pub benign_hi: u64,
}

impl Adversary for ChannelStaller {
    fn delay(&self, from: ProcessId, to: ProcessId, now: Time, rng: &mut SplitMix64) -> u64 {
        if now < self.release_at && self.stalled.contains(&(from, to)) {
            // Hold until just past the release point, with jitter so that
            // simultaneously-stalled messages arrive in a scrambled order.
            self.release_at.since(now) + rng.range(1, 8)
        } else {
            rng.range(1, self.benign_hi.max(1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    #[test]
    fn fixed_is_fixed_and_at_least_one() {
        let mut m = DelayModel::Fixed(0);
        let mut rng = SplitMix64::new(1);
        assert_eq!(m.sample(p(0), p(1), Time(0), &mut rng), 1);
        let mut m = DelayModel::Fixed(9);
        assert_eq!(m.sample(p(0), p(1), Time(0), &mut rng), 9);
    }

    #[test]
    fn uniform_within_bounds() {
        let mut m = DelayModel::Uniform { lo: 3, hi: 9 };
        let mut rng = SplitMix64::new(2);
        for _ in 0..500 {
            let d = m.sample(p(0), p(1), Time(0), &mut rng);
            assert!((3..=9).contains(&d));
        }
    }

    #[test]
    fn heavy_tail_spikes_sometimes() {
        let mut m =
            DelayModel::HeavyTail { lo: 1, hi: 4, spike_num: 1, spike_den: 4, spike_hi: 100 };
        let mut rng = SplitMix64::new(3);
        let mut spiked = 0;
        for _ in 0..1000 {
            let d = m.sample(p(0), p(1), Time(0), &mut rng);
            assert!(d <= 100);
            if d > 4 {
                spiked += 1;
            }
        }
        assert!((100..500).contains(&spiked), "spiked {spiked} times");
    }

    #[test]
    fn partial_sync_bounds_after_gst() {
        let mut m = DelayModel::partially_synchronous(Time(1000), 5);
        let mut rng = SplitMix64::new(4);
        for _ in 0..500 {
            let d = m.sample(p(0), p(1), Time(2000), &mut rng);
            assert!((1..=5).contains(&d));
        }
        // Pre-GST delays may exceed the bound.
        let mut saw_big = false;
        for _ in 0..2000 {
            if m.sample(p(0), p(1), Time(0), &mut rng) > 5 {
                saw_big = true;
            }
        }
        assert!(saw_big);
    }

    #[test]
    fn fifo_wrapper_preserves_per_channel_order() {
        let mut m = DelayModel::fifo(DelayModel::HeavyTail {
            lo: 1,
            hi: 4,
            spike_num: 1,
            spike_den: 3,
            spike_hi: 200,
        });
        let mut rng = SplitMix64::new(6);
        // Successive sends at increasing times on one channel must be
        // delivered in strictly increasing order.
        let mut last_delivery = 0u64;
        for t in 0..200u64 {
            let now = Time(t * 2);
            let d = m.sample(p(0), p(1), now, &mut rng);
            let delivery = now.ticks() + d;
            assert!(delivery > last_delivery, "FIFO violated: {delivery} after {last_delivery}");
            last_delivery = delivery;
        }
        // Other channels are tracked independently.
        let d = m.sample(p(1), p(0), Time(0), &mut rng);
        assert!(d <= 200 + 1);
    }

    /// Regression (ISSUE 2): a pre-GST heavy-tail spike used to raise the
    /// FIFO floor so high that *post-GST* deliveries exceeded the
    /// `PartialSync` bound — the wrapper quietly weakened the GST
    /// guarantee the heartbeat ◇P depends on.
    #[test]
    fn fifo_floor_does_not_lift_post_gst_delays_above_bound() {
        let gst = Time(1_000);
        let bound = 5;
        // Scripted spike: every pre-GST message takes exactly 600 ticks.
        let mut m = DelayModel::fifo(DelayModel::PartialSync {
            gst,
            pre: Box::new(DelayModel::Fixed(600)),
            bound,
        });
        let mut rng = SplitMix64::new(7);
        // Spike just before GST: floor jumps to 990 + 600 = 1590 > gst+bound.
        let d = m.sample(p(0), p(1), Time(990), &mut rng);
        assert_eq!(d, 600);
        // Every post-GST send on the channel must meet the bound.
        let mut last_delivery = 0u64;
        for t in [1_100u64, 1_101, 1_120, 1_500] {
            let d = m.sample(p(0), p(1), Time(t), &mut rng);
            assert!(d >= 1 && d <= bound, "post-GST send at t={t} got delay {d} > bound {bound}");
            // FIFO among post-GST sends still holds (non-decreasing).
            let delivery = t + d;
            assert!(
                delivery >= last_delivery,
                "post-GST FIFO broken: {delivery} < {last_delivery}"
            );
            last_delivery = delivery;
        }
        // A fresh channel post-GST is bounded too.
        let d = m.sample(p(1), p(0), Time(2_000), &mut rng);
        assert!(d <= bound);
    }

    #[test]
    fn post_gst_bound_sees_through_fifo_wrapper() {
        let m = DelayModel::fifo(DelayModel::partially_synchronous(Time(100), 7));
        assert_eq!(m.post_gst_bound(Time(99)), None);
        assert_eq!(m.post_gst_bound(Time(100)), Some(7));
        assert_eq!(DelayModel::harsh().post_gst_bound(Time(0)), None);
    }

    #[test]
    fn kind_labels_variants_and_wrappers() {
        assert_eq!(DelayModel::Fixed(1).kind(), "fixed");
        assert_eq!(DelayModel::default_async().kind(), "uniform");
        assert_eq!(DelayModel::harsh().kind(), "heavy_tail");
        assert_eq!(DelayModel::partially_synchronous(Time(1), 1).kind(), "partial_sync");
        assert_eq!(DelayModel::fifo(DelayModel::harsh()).kind(), "fifo_heavy_tail");
    }

    #[test]
    fn fresh_copies_sample_like_the_original() {
        let models = [
            DelayModel::Fixed(3),
            DelayModel::default_async(),
            DelayModel::harsh(),
            DelayModel::partially_synchronous(Time(100), 5),
            DelayModel::fifo(DelayModel::harsh()),
            DelayModel::Scripted(Arc::new(ChannelStaller {
                stalled: vec![(p(0), p(1))],
                release_at: Time(300),
                benign_hi: 9,
            })),
        ];
        for m in models {
            let mut clone = m.fresh();
            assert_eq!(clone.kind(), m.kind());
            // A fresh copy samples identically to the original under the
            // same RNG stream (no hidden state carried over).
            let mut orig = m.fresh();
            let (mut r1, mut r2) = (SplitMix64::new(9), SplitMix64::new(9));
            for t in 0..200u64 {
                assert_eq!(
                    orig.sample(p(0), p(1), Time(t * 3), &mut r1),
                    clone.sample(p(0), p(1), Time(t * 3), &mut r2),
                    "{} clone diverged",
                    m.kind()
                );
            }
        }
    }

    #[test]
    fn staller_holds_selected_channel() {
        let adv =
            ChannelStaller { stalled: vec![(p(0), p(1))], release_at: Time(500), benign_hi: 4 };
        let mut rng = SplitMix64::new(5);
        let d = adv.delay(p(0), p(1), Time(10), &mut rng);
        assert!(d >= 490);
        let d = adv.delay(p(1), p(0), Time(10), &mut rng);
        assert!(d <= 4);
        let d = adv.delay(p(0), p(1), Time(600), &mut rng);
        assert!(d <= 4);
    }
}
