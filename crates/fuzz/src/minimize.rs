//! Delta-debugging trace minimization.
//!
//! The fuzzer's raw counterexamples are whatever schedule happened to
//! trip a lemma — typically padded with irrelevant deliveries and grants.
//! [`minimize`] shrinks the *label path* (not the decision words: labels
//! are the replayable artifact the `trace_replay` harness consumes) with
//! removal-only ddmin:
//!
//! 1. replay the candidate label subsequence, skipping nothing — a label
//!    that is no longer enabled kills the candidate;
//! 2. a candidate *reproduces* when some replayed prefix violates a lemma
//!    with the same key (`"Lemma 4"`, `"Lemma 3"`, "model soundness", …)
//!    as the original; the kept path is truncated at that violation;
//! 3. chunk sizes sweep `len/2, len/4, …, 1`, and whole sweeps repeat
//!    until one completes with no change.
//!
//! The three properties the unit suite pins follow by construction:
//! removal-only + truncation means `minimized.len() ≤ original.len()`;
//! the reproduction predicate fixes the lemma key, so the minimized
//! prefix violates the *same* lemma; and running to a no-change fixpoint
//! over a deterministic test function makes minimization idempotent.

use dinefd_explore::{ExploreConfig, PairState, TransitionLabel};

use crate::schedule::Walk;

/// The lemma key of a violation message: the text before the first `:`
/// (e.g. `"Lemma 4 violated"`), which is stable across counterexamples of
/// the same lemma while the suffix carries state-specific detail.
pub fn lemma_key(message: &str) -> &str {
    message.split(':').next().unwrap_or(message).trim()
}

/// The result of replaying a label sequence from the initial state.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// The state after the last successfully replayed label.
    pub end: PairState,
    /// First violation hit while replaying: `(index of the label that led
    /// into the violating state, message)`. For a violation in the initial
    /// state the index is 0 with an empty prefix.
    pub violation: Option<(usize, String)>,
}

/// Replays `path` label-by-label along the crate's one [`Walk`]. Returns
/// `None` if some label is not enabled where the path says it fired (the
/// sequence is not a real trace of the model). Stops early at the first
/// invariant or closure violation.
pub fn replay(cfg: &ExploreConfig, path: &[TransitionLabel]) -> Option<ReplayOutcome> {
    let (mut walk, mut violation) = Walk::start(cfg);
    let mut at = 0;
    while violation.is_none() && at < path.len() {
        let label = walk.state().find_label(cfg, |l| l == path[at])?;
        violation = walk.advance(label);
        at += 1;
    }
    Some(ReplayOutcome { end: walk.into_state(), violation: violation.map(|msg| (at, msg)) })
}

/// A minimized counterexample.
#[derive(Clone, Debug)]
pub struct MinimizeResult {
    /// The locally-minimal replayable label prefix. Its replay violates
    /// the same lemma as the original trace, at its final step.
    pub path: Vec<TransitionLabel>,
    /// The violation message at the end of the minimized replay.
    pub message: String,
    /// The shared lemma key (see [`lemma_key`]).
    pub lemma: String,
    /// How many candidate replays the search spent.
    pub tests_run: u64,
}

/// Replays `candidate` and, if it violates the target lemma anywhere,
/// returns the path truncated at that violation plus the message.
fn reproduces(
    cfg: &ExploreConfig,
    candidate: &[TransitionLabel],
    lemma: &str,
    tests_run: &mut u64,
) -> Option<(Vec<TransitionLabel>, String)> {
    *tests_run += 1;
    let out = replay(cfg, candidate)?;
    let (at, msg) = out.violation?;
    if lemma_key(&msg) != lemma {
        return None;
    }
    Some((candidate[..at].to_vec(), msg))
}

/// Shrinks a lemma-violating label path to a locally-minimal replayable
/// prefix with removal-only delta debugging, run to fixpoint. Returns
/// `None` when the input path does not replay to a violation at all.
pub fn minimize(cfg: &ExploreConfig, path: &[TransitionLabel]) -> Option<MinimizeResult> {
    let (at, message) = replay(cfg, path)?.violation?;
    // Truncate to the violating step first — everything past it is dead.
    Some(shrink(cfg, &path[..at], message))
}

/// [`minimize`] from a violation already in hand: walking `path` trips
/// `message` at its last step. That walk — the engine's own execution, or
/// `minimize`'s replay — was the search's first test and is counted as
/// such, so a finding costs the same `tests_run` however it arrived.
pub(crate) fn shrink(
    cfg: &ExploreConfig,
    path: &[TransitionLabel],
    message: String,
) -> MinimizeResult {
    let lemma = lemma_key(&message).to_string();
    let (mut best, mut message, mut tests_run) = (path.to_vec(), message, 1u64);

    loop {
        let mut changed = false;
        let mut chunk = (best.len() / 2).max(1);
        while chunk >= 1 {
            let mut start = 0;
            while start < best.len() && best.len() > 1 {
                let end = (start + chunk).min(best.len());
                let mut candidate = Vec::with_capacity(best.len() - (end - start));
                candidate.extend_from_slice(&best[..start]);
                candidate.extend_from_slice(&best[end..]);
                if let Some((shrunk, msg)) = reproduces(cfg, &candidate, &lemma, &mut tests_run) {
                    best = shrunk;
                    message = msg;
                    changed = true;
                    // Re-test the same start: the window now holds new labels.
                } else {
                    start = end;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
        if !changed {
            break;
        }
    }

    MinimizeResult { path: best, message, lemma, tests_run }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinefd_explore::SubjectMutation;

    fn violating_cfg() -> ExploreConfig {
        ExploreConfig {
            subject_mutation: SubjectMutation::IgnoreTriggerGuard,
            ..Default::default()
        }
    }

    /// Finds some violating path by greedy walk (first successor whose
    /// subtree shows a violation within a few random probes).
    fn find_violating_path(cfg: &ExploreConfig) -> Vec<TransitionLabel> {
        use crate::schedule::{execute, Schedule};
        let mut rng = dinefd_sim::SplitMix64::new(11);
        for _ in 0..2_000 {
            let s = Schedule::random(&mut rng, 30);
            let out = execute(cfg, &s);
            if out.violation.is_some() {
                return out.path;
            }
        }
        panic!("no violating schedule found for the seeded bug");
    }

    #[test]
    fn minimization_contracts_and_preserves_the_lemma() {
        let cfg = violating_cfg();
        let path = find_violating_path(&cfg);
        let min = minimize(&cfg, &path).expect("violating path must minimize");
        assert!(min.path.len() <= path.len());
        assert_eq!(min.lemma, "Lemma 4 violated");
        // The minimized prefix replays to the same-lemma violation at its end.
        let out = replay(&cfg, &min.path).expect("minimized path must replay");
        let (at, msg) = out.violation.expect("minimized path must violate");
        assert_eq!(at, min.path.len(), "violation must be at the prefix end");
        assert_eq!(lemma_key(&msg), min.lemma);
    }

    #[test]
    fn minimization_is_idempotent() {
        let cfg = violating_cfg();
        let path = find_violating_path(&cfg);
        let once = minimize(&cfg, &path).unwrap();
        let twice = minimize(&cfg, &once.path).unwrap();
        assert_eq!(once.path, twice.path);
        assert_eq!(once.message, twice.message);
    }

    #[test]
    fn clean_paths_do_not_minimize() {
        let cfg = ExploreConfig::default();
        assert!(minimize(&cfg, &[]).is_none());
    }

    #[test]
    fn lemma_key_strips_detail() {
        assert_eq!(lemma_key("Lemma 4 violated: s_0 hungry but trigger = 1"), "Lemma 4 violated");
        assert_eq!(lemma_key("no colon"), "no colon");
    }
}
