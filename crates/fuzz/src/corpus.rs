//! The corpus: schedules that earned their keep, and the coverage set.
//!
//! A schedule joins the corpus when its execution visits at least one
//! state fingerprint no earlier execution visited — novelty is the sole
//! admission ticket (violating schedules are reported as findings, not
//! hoarded). Entries are stored in insertion order and the coverage set is
//! only ever probed, never iterated, so the whole structure is a pure
//! function of the seed: [`Corpus::digest`] over two same-seed runs is
//! byte-for-byte identical, and the determinism gate in CI holds it to
//! that.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use crate::schedule::Schedule;
use dinefd_sim::codec::hash64;

/// Hasher of the coverage set: a state fingerprint already *is* a 64-bit
/// hash, so it is its own hash value. Nothing observable depends on this —
/// the set is probed, never iterated.
#[derive(Clone, Copy, Debug, Default)]
struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
    fn write_u64(&mut self, fp: u64) {
        self.0 = fp;
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// One retained schedule.
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    /// The schedule itself.
    pub schedule: Schedule,
    /// How many fingerprints were new to the coverage set when this entry
    /// was admitted (its "energy": higher-novelty entries are picked more).
    pub novelty: u32,
    /// The iteration that produced it (0 = initial seeding).
    pub iteration: u64,
    /// Whether the entry's execution ended in a violation.
    pub violating: bool,
}

/// Insertion-ordered corpus plus the global fingerprint coverage set.
#[derive(Debug, Default)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
    /// `cumulative[i]` = total pick weight of `entries[..=i]`.
    cumulative: Vec<u64>,
    coverage: HashSet<u64, BuildHasherDefault<FingerprintHasher>>,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Corpus::default()
    }

    /// Folds `fingerprints` into the coverage set, returning how many were
    /// novel. (Pure set arithmetic — no iteration-order dependence.)
    pub fn absorb_coverage(&mut self, fingerprints: &[u64]) -> u32 {
        let mut novel = 0;
        for &fp in fingerprints {
            if self.coverage.insert(fp) {
                novel += 1;
            }
        }
        novel
    }

    /// Admits a schedule to the corpus.
    pub fn admit(&mut self, schedule: Schedule, novelty: u32, iteration: u64, violating: bool) {
        let below = self.cumulative.last().copied().unwrap_or(0);
        self.cumulative.push(below + 1 + u64::from(novelty));
        self.entries.push(CorpusEntry { schedule, novelty, iteration, violating });
    }

    /// Distinct states covered so far.
    pub fn coverage_states(&self) -> u64 {
        self.coverage.len() as u64
    }

    /// Number of retained schedules.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The retained schedules, in admission order.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Picks a parent entry for mutation, biased toward novelty: an entry's
    /// weight is `1 + novelty`, accumulated in admission order, so the
    /// draw is deterministic in (`corpus contents`, `roll`).
    pub fn pick(&self, roll: u64) -> Option<&CorpusEntry> {
        let target = roll % self.cumulative.last()?;
        self.entries.get(self.cumulative.partition_point(|&below| below <= target))
    }

    /// Order-sensitive digest of every retained schedule's canonical byte
    /// encoding. Two corpora are digest-equal iff they retain the same
    /// schedules in the same order — the "byte-identical corpus across
    /// reruns" acceptance gate hashes exactly this.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.entries.len() * 64);
        for e in &self.entries {
            bytes.extend_from_slice(&e.schedule.encode());
            bytes.push(u8::from(e.violating));
        }
        hash64(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_counts_novel_fingerprints_once() {
        let mut c = Corpus::new();
        assert_eq!(c.absorb_coverage(&[1, 2, 2, 3]), 3);
        assert_eq!(c.absorb_coverage(&[2, 3, 4]), 1);
        assert_eq!(c.coverage_states(), 4);
    }

    #[test]
    fn coverage_matches_a_std_set_when_low_bits_collide() {
        // The set's hasher passes fingerprints through, so fingerprints
        // that agree in their low (bucket) or high (control-byte) bits all
        // collide; membership must still be exact.
        let fps: Vec<u64> = (0..4_000u64)
            .map(|k| match k % 4 {
                0 => k << 32,             // low 32 bits all zero
                1 => (k << 20) | 0xfffff, // low 20 bits all one
                2 => k,                   // high bits all zero
                _ => (k / 8) << 32,       // repeats: each value four times
            })
            .collect();
        let mut corpus = Corpus::new();
        let mut oracle = std::collections::HashSet::<u64>::new();
        for batch in fps.chunks(41) {
            let expect = batch.iter().filter(|&&fp| oracle.insert(fp)).count() as u32;
            assert_eq!(corpus.absorb_coverage(batch), expect);
        }
        assert_eq!(corpus.coverage_states(), oracle.len() as u64);
    }

    #[test]
    fn pick_equals_the_linear_scan_for_every_roll() {
        /// The definition `pick` must keep: walk the entries in admission
        /// order, subtracting each weight `1 + novelty` from `roll % total`.
        fn linear_scan(entries: &[CorpusEntry], roll: u64) -> Option<usize> {
            let total: u64 = entries.iter().map(|e| 1 + u64::from(e.novelty)).sum();
            let mut target = roll.checked_rem(total)?;
            entries.iter().position(|e| {
                let w = 1 + u64::from(e.novelty);
                let hit = target < w;
                target = target.wrapping_sub(w);
                hit
            })
        }
        let mut c = Corpus::new();
        for (k, novelty) in [0u32, 0, 7, 0, 1, 40, 0, 0, 3, 0].into_iter().enumerate() {
            c.admit(Schedule { words: vec![k as u64] }, novelty, k as u64, false);
            let total: u64 = c.entries().iter().map(|e| 1 + u64::from(e.novelty)).sum();
            for roll in (0..3 * total).chain([u64::MAX]) {
                let picked = c.pick(roll).map(|e| e.schedule.words[0] as usize);
                assert_eq!(picked, linear_scan(c.entries(), roll), "roll {roll} of {total}");
            }
        }
    }

    #[test]
    fn digest_depends_on_content_and_order() {
        let mk = |words: Vec<u64>| Schedule { words };
        let mut a = Corpus::new();
        a.admit(mk(vec![1, 2]), 1, 0, false);
        a.admit(mk(vec![3]), 1, 1, false);
        let mut b = Corpus::new();
        b.admit(mk(vec![3]), 1, 0, false);
        b.admit(mk(vec![1, 2]), 1, 1, false);
        assert_ne!(a.digest(), b.digest(), "order must matter");
        let mut c = Corpus::new();
        c.admit(mk(vec![1, 2]), 9, 5, false);
        c.admit(mk(vec![3]), 0, 7, false);
        assert_eq!(a.digest(), c.digest(), "digest covers schedules, not metadata");
    }

    #[test]
    fn pick_is_deterministic_and_novelty_weighted() {
        let mut c = Corpus::new();
        assert!(c.pick(0).is_none());
        c.admit(Schedule { words: vec![1] }, 0, 0, false); // weight 1
        c.admit(Schedule { words: vec![2] }, 9, 0, false); // weight 10
        let hits = (0..11u64).filter(|&r| c.pick(r).unwrap().schedule.words == [2]).count();
        assert_eq!(hits, 10, "weights are 1 vs 10 over an 11-roll cycle");
    }
}
