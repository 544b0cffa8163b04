//! Schedules: decision words and their concrete execution.
//!
//! A schedule does not name transitions directly — it is a sequence of
//! unconstrained `u64` decision words, and word `k` picks among the
//! transitions *enabled* at step `k` by `word % out_degree`. Interpreting
//! words modulo the out-degree keeps the representation total: any byte
//! soup is a runnable schedule, so mutation operators never have to
//! repair anything. (This is the classic decision-string trick from
//! generator-based fuzzing, applied to model-checker interleavings.)

use dinefd_explore::{fingerprint, ExploreConfig, PairState, StateCodec, TransitionLabel};
use dinefd_sim::SplitMix64;

/// A fuzzable schedule: one decision word per execution step.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    /// The decision words, interpreted modulo the out-degree at each step.
    pub words: Vec<u64>,
}

impl Schedule {
    /// A uniformly random schedule of `len` words.
    pub fn random(rng: &mut SplitMix64, len: u32) -> Self {
        Schedule { words: (0..len).map(|_| rng.next_u64()).collect() }
    }

    /// The canonical byte encoding (varint per word) — the unit the corpus
    /// digest is computed over.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.words.len() * 2 + 4);
        dinefd_sim::codec::put_varint(&mut out, self.words.len() as u64);
        for &w in &self.words {
            dinefd_sim::codec::put_varint(&mut out, w);
        }
        out
    }

    /// Derives a mutated child schedule. All choices come from `rng`, so a
    /// fixed seed yields a fixed mutation sequence. `splice_donor` is
    /// another corpus entry's word list (may be empty).
    pub fn mutate(&self, rng: &mut SplitMix64, splice_donor: &[u64], max_len: u32) -> Self {
        let mut words = self.words.clone();
        let max_len = max_len.max(1) as usize;
        // 1–4 stacked havoc operations, AFL-style.
        let ops = 1 + rng.below(4);
        for _ in 0..ops {
            match rng.below(6) {
                // Replace one word with fresh randomness.
                0 if !words.is_empty() => {
                    let i = rng.below(words.len() as u64) as usize;
                    words[i] = rng.next_u64();
                }
                // Nudge one word by a small signed delta: out-degrees are
                // small, so ±1..8 flips exactly one local decision.
                1 if !words.is_empty() => {
                    let i = rng.below(words.len() as u64) as usize;
                    let delta = rng.range(1, 8);
                    words[i] = if rng.chance(1, 2) {
                        words[i].wrapping_add(delta)
                    } else {
                        words[i].wrapping_sub(delta)
                    };
                }
                // Copy a block from the donor (crossover).
                2 if !splice_donor.is_empty() && !words.is_empty() => {
                    let from = rng.below(splice_donor.len() as u64) as usize;
                    let to = rng.below(words.len() as u64) as usize;
                    let len = (1 + rng.below(8) as usize)
                        .min(splice_donor.len() - from)
                        .min(words.len() - to);
                    words[to..to + len].copy_from_slice(&splice_donor[from..from + len]);
                }
                // Swap two words (reorder two decisions).
                3 if words.len() >= 2 => {
                    let i = rng.below(words.len() as u64) as usize;
                    let j = rng.below(words.len() as u64) as usize;
                    words.swap(i, j);
                }
                // Truncate the tail (shorter schedules minimize better).
                4 if words.len() > 1 => {
                    let keep = 1 + rng.below((words.len() - 1) as u64) as usize;
                    words.truncate(keep);
                }
                // Extend with fresh words (reach deeper states).
                _ => {
                    let extra = 1 + rng.below(8);
                    for _ in 0..extra {
                        if words.len() >= max_len {
                            break;
                        }
                        words.push(rng.next_u64());
                    }
                    if words.is_empty() {
                        words.push(rng.next_u64());
                    }
                }
            }
        }
        if words.len() > max_len {
            words.truncate(max_len);
        }
        Schedule { words }
    }
}

/// What one concrete execution of a schedule did.
#[derive(Clone, Debug)]
pub struct ExecOutcome {
    /// The transition labels actually taken, in order. When `violation` is
    /// set, the path ends at the violating state, so it is directly a
    /// replayable counterexample prefix.
    pub path: Vec<TransitionLabel>,
    /// First invariant/closure violation message, if any. Execution stops
    /// at the first violation.
    pub violation: Option<String>,
    /// Fingerprints of every state visited (initial state included), in
    /// visit order, duplicates possible.
    pub fingerprints: Vec<u64>,
    /// The run ended in a state with no enabled transitions.
    pub deadlock: bool,
}

/// The one walk of the pair model this crate makes: start at the initial
/// state, advance by one label at a time, and after every step run the
/// closure-step check, then the state invariants. [`execute`] picks each
/// label with a decision word, [`crate::minimize::replay`] reads it off a
/// recorded path; what a step *checks* is stated here only. Two state
/// buffers swap per step, so a warm walk allocates nothing.
#[derive(Debug)]
pub(crate) struct Walk<'a> {
    cfg: &'a ExploreConfig,
    state: PairState,
    prev: PairState,
}

impl<'a> Walk<'a> {
    /// A walk standing at the initial state, with that state's first
    /// invariant violation, if it has one.
    pub(crate) fn start(cfg: &'a ExploreConfig) -> (Self, Option<String>) {
        let state = PairState::initial(cfg);
        let violation = state.check_invariants().into_iter().next();
        (Walk { cfg, prev: state.clone(), state }, violation)
    }

    /// The state the walk stands at.
    pub(crate) fn state(&self) -> &PairState {
        &self.state
    }

    /// Ends the walk, keeping the state it stands at.
    pub(crate) fn into_state(self) -> PairState {
        self.state
    }

    /// Takes the `label` edge (which must be enabled) and returns the first
    /// violation the step trips: closure-step check first, then the new
    /// state's invariants.
    pub(crate) fn advance(&mut self, label: TransitionLabel) -> Option<String> {
        std::mem::swap(&mut self.state, &mut self.prev);
        self.prev.apply_into(label, self.cfg, &mut self.state);
        self.prev
            .check_closure_step(&self.state)
            .or_else(|| self.state.check_invariants().into_iter().next())
    }
}

/// Runs `schedule` against the pair model from the initial state. Each
/// decision word selects the `word % out_degree`-th enabled label (in
/// `PairState::for_each_label` order) and only that transition is applied;
/// the walk stops at the first invariant or closure violation, at a
/// deadlock, or when the words run out.
pub fn execute(cfg: &ExploreConfig, schedule: &Schedule) -> ExecOutcome {
    let mut scratch = Vec::with_capacity(32);
    let mut fp = |s: &PairState| {
        scratch.clear();
        s.encode_into(&mut scratch);
        fingerprint(&scratch)
    };
    let (mut walk, violation) = Walk::start(cfg);
    let mut out = ExecOutcome {
        path: Vec::with_capacity(schedule.words.len()),
        violation,
        fingerprints: Vec::with_capacity(schedule.words.len() + 1),
        deadlock: false,
    };
    out.fingerprints.push(fp(walk.state()));
    let mut labels = Vec::with_capacity(8);
    for &word in &schedule.words {
        if out.violation.is_some() {
            break;
        }
        labels.clear();
        walk.state().for_each_label(cfg, |l| labels.push(l));
        if labels.is_empty() {
            out.deadlock = true;
            break;
        }
        let label = labels[(word % labels.len() as u64) as usize];
        out.violation = walk.advance(label);
        out.path.push(label);
        out.fingerprints.push(fp(walk.state()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execution_is_deterministic() {
        let cfg = ExploreConfig::default();
        let mut rng = SplitMix64::new(7);
        let s = Schedule::random(&mut rng, 30);
        let a = execute(&cfg, &s);
        let b = execute(&cfg, &s);
        assert_eq!(a.path, b.path);
        assert_eq!(a.fingerprints, b.fingerprints);
        assert_eq!(a.violation, b.violation);
    }

    #[test]
    fn faithful_model_never_violates_under_random_schedules() {
        let cfg = ExploreConfig::default();
        let mut rng = SplitMix64::new(99);
        for _ in 0..200 {
            let s = Schedule::random(&mut rng, 40);
            let out = execute(&cfg, &s);
            assert_eq!(out.violation, None, "faithful model violated on {s:?}");
            assert_eq!(out.fingerprints.len(), out.path.len() + 1);
        }
    }

    #[test]
    fn mutation_respects_the_length_cap_and_seed() {
        let mut rng_a = SplitMix64::new(5);
        let mut rng_b = SplitMix64::new(5);
        let base = Schedule::random(&mut rng_a, 20);
        let base_b = Schedule::random(&mut rng_b, 20);
        assert_eq!(base, base_b);
        let donor: Vec<u64> = (0..10).collect();
        for _ in 0..100 {
            let a = base.mutate(&mut rng_a, &donor, 25);
            let b = base_b.mutate(&mut rng_b, &donor, 25);
            assert_eq!(a, b, "mutation must be seed-deterministic");
            assert!(!a.words.is_empty() && a.words.len() <= 25);
        }
    }

    #[test]
    fn encoding_is_prefix_free_on_length() {
        let s1 = Schedule { words: vec![1, 2] };
        let s2 = Schedule { words: vec![1, 2, 0] };
        assert_ne!(s1.encode(), s2.encode());
    }
}
