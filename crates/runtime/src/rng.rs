//! Deterministic pseudo-randomness for reproducible runs.
//!
//! Every stochastic choice in a simulation (message delays, workload think
//! times, oracle mistake schedules, crash instants in randomized sweeps)
//! flows from a single seed through [`SplitMix64`], so a `(seed, parameters)`
//! pair identifies a run exactly. The generator is Steele et al.'s SplitMix64,
//! chosen for speed, full 64-bit state, and the ability to *fork* statistically
//! independent substreams — one per channel or per process — without the
//! substreams interfering with each other's consumption order.

/// A SplitMix64 pseudo-random generator.
///
/// ```
/// use dinefd_runtime::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// assert!(a.below(10) < 10);
/// let mut child = a.fork();               // independent substream
/// let _ = child.range(3, 7);
/// ```
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Forks a statistically independent substream.
    ///
    /// The fork consumes one output from `self`, so forking the same parent at
    /// the same point always yields the same child.
    #[inline]
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64() ^ 0x6A09_E667_F3BC_C909)
    }

    /// Uniform value in `[0, n)`. `n` must be nonzero.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "below(0) is meaningless");
        // Fast path for powers of two.
        if n.is_power_of_two() {
            return self.next_u64() & (n - 1);
        }
        let threshold = n.wrapping_neg() % n;
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        if lo == hi {
            return lo;
        }
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli trial with probability `num / den`.
    #[inline]
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        debug_assert!(den > 0 && num <= den);
        self.below(den) < num
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(7);
        for n in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(r.below(n) < n);
            }
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = SplitMix64::new(9);
        let mut counts = [0u32; 8];
        for _ in 0..8000 {
            counts[r.below(8) as usize] += 1;
        }
        for c in counts {
            assert!((700..1300).contains(&c), "count {c} far from uniform");
        }
    }

    #[test]
    fn range_inclusive_endpoints_reachable() {
        let mut r = SplitMix64::new(13);
        let (mut saw_lo, mut saw_hi) = (false, false);
        for _ in 0..2000 {
            match r.range(3, 5) {
                3 => saw_lo = true,
                5 => saw_hi = true,
                4 => {}
                other => panic!("range produced {other}"),
            }
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(17);
        for _ in 0..100 {
            assert!(r.chance(1, 1));
            assert!(!r.chance(0, 1));
        }
    }

    #[test]
    fn fork_is_reproducible_and_independent() {
        let mut parent1 = SplitMix64::new(5);
        let mut parent2 = SplitMix64::new(5);
        let mut c1 = parent1.fork();
        let mut c2 = parent2.fork();
        for _ in 0..50 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
        // Child stream differs from the parent continuation.
        let mut p = SplitMix64::new(5);
        let mut c = p.fork();
        let same = (0..64).filter(|_| p.next_u64() == c.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SplitMix64::new(23);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }
}
