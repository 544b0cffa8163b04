//! Depth-bounded exhaustive search over the pair model.
//!
//! [`explore`] hands the pair model to the one engine in [`crate::engine`],
//! which runs on the calling thread in one fixed breadth-first order: every
//! figure repeats, and every counterexample path is a shortest one.
//! [`find_reachable`] asks the same engine a reachability question instead.

use crate::engine::{search, SearchModel, SearchReport};
use crate::pair_model::{ExploreConfig, PairState, TransitionLabel};

/// Outcome of one exhaustive exploration of the pair model (replay
/// `records` with [`PairState::successors`]).
pub type ExploreReport = SearchReport<TransitionLabel>;

/// The pair model seen through the engine's eyes.
struct PairSearch<'a>(&'a ExploreConfig);

impl SearchModel for PairSearch<'_> {
    type State = PairState;
    type Label = TransitionLabel;

    fn for_each_label(&self, s: &PairState, push: impl FnMut(TransitionLabel)) {
        s.for_each_label(self.0, push);
    }

    fn apply_into(&self, s: &PairState, label: TransitionLabel, next: &mut PairState) {
        s.apply_into(label, self.0, next);
    }

    fn state_violations(&self, s: &PairState) -> Vec<String> {
        s.check_invariants()
    }

    fn step_violations(
        &self,
        s: &PairState,
        _label: TransitionLabel,
        next: &PairState,
    ) -> Vec<String> {
        s.check_closure_step(next).into_iter().collect()
    }
}

/// Exhaustively explores all interleavings up to `cfg.max_depth`, checking
/// the paper's safety lemmas at every state and the Theorem-1 closure across
/// every transition.
///
/// Each state is expanded once, at its shortest distance from the initial
/// state, so each violation comes back with a shortest path to it.
///
/// ```
/// use dinefd_explore::{explore, ExploreConfig};
///
/// let report = explore(&ExploreConfig { max_depth: 12, ..Default::default() });
/// assert!(report.clean(), "lemma violations: {:?}", report.violations);
/// assert!(report.states_visited > 100);
/// ```
pub fn explore(cfg: &ExploreConfig) -> ExploreReport {
    explore_seeded(PairState::initial(cfg), cfg)
}

/// Like [`explore`], but starts from an arbitrary **seed state** instead of
/// the model's initial state — the replay entry point the inductive checker
/// (`dinefd-analyze`) uses to hand a counterexample-to-induction back to the
/// explorer: seeding the search at the CTI's post-state makes the violated
/// lemma fire on the very first state checked, confirming that the abstract
/// counterexample denotes a state this engine also rejects.
///
/// All engine guarantees (determinism, exhaustiveness up to the depth bound,
/// budget semantics) are unchanged; only the root differs.
pub fn explore_seeded(seed: PairState, cfg: &ExploreConfig) -> ExploreReport {
    search(&PairSearch(cfg), seed, cfg.max_depth, cfg.max_states)
}

/// The pair model asking whether a state satisfying `pred` is reachable: its
/// one check is the predicate, and the engine stops at the first hit.
struct Reach<'a, F>(&'a ExploreConfig, F);

impl<F: Fn(&PairState) -> bool> SearchModel for Reach<'_, F> {
    type State = PairState;
    type Label = TransitionLabel;
    const FIRST_HIT: bool = true;

    fn for_each_label(&self, s: &PairState, push: impl FnMut(TransitionLabel)) {
        s.for_each_label(self.0, push);
    }

    fn apply_into(&self, s: &PairState, label: TransitionLabel, next: &mut PairState) {
        s.apply_into(label, self.0, next);
    }

    fn state_violations(&self, s: &PairState) -> Vec<String> {
        if (self.1)(s) {
            vec![String::new()]
        } else {
            Vec::new()
        }
    }

    fn step_violations(&self, _: &PairState, _: TransitionLabel, _: &PairState) -> Vec<String> {
        Vec::new()
    }
}

/// Breadth-first reachability probe: searches from the model's initial
/// state for any state satisfying `pred`, returning a **shortest** label
/// path to the first hit (deterministic: the engine's breadth-first order
/// over the model's label order). `None` when no matching state exists
/// within `cfg.max_depth` / `cfg.max_states`.
///
/// This is the classification oracle for counterexamples-to-induction: a
/// CTI whose pre-state is reachable is a *real* bug witness, one that is
/// not (within the bound) is spurious and calls for invariant
/// strengthening.
pub fn find_reachable(
    cfg: &ExploreConfig,
    pred: impl Fn(&PairState) -> bool,
) -> Option<Vec<TransitionLabel>> {
    let report = search(&Reach(cfg, pred), PairState::initial(cfg), cfg.max_depth, cfg.max_states);
    report.records.into_iter().next().map(|r| r.path)
}

/// Renders a transition path for diagnostics (`"initial state"` when empty).
pub fn fmt_path<L: std::fmt::Debug + Copy>(path: &[L], extra: Option<L>) -> String {
    let mut parts: Vec<String> = path.iter().map(|l| format!("{l:?}")).collect();
    if let Some(l) = extra {
        parts.push(format!("{l:?}"));
    }
    if parts.is_empty() {
        "initial state".to_string()
    } else {
        parts.join(" → ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shallow_exploration_is_clean_lenient() {
        let cfg = ExploreConfig { max_depth: 40, ..Default::default() };
        let report = explore(&cfg);
        assert!(report.clean(), "violations: {:#?}", report.violations);
        assert!(report.states_visited > 3_000, "only {} states", report.states_visited);
        assert!(!report.truncated);
    }

    #[test]
    fn shallow_exploration_is_clean_strict() {
        let cfg = ExploreConfig { max_depth: 40, strict_seq: true, ..Default::default() };
        let report = explore(&cfg);
        assert!(report.clean(), "violations: {:#?}", report.violations);
    }

    #[test]
    fn converged_start_is_clean() {
        let cfg = ExploreConfig {
            max_depth: 11,
            start_converged: true,
            allow_crash: true,
            ..Default::default()
        };
        let report = explore(&cfg);
        assert!(report.clean(), "violations: {:#?}", report.violations);
    }

    #[test]
    fn crash_free_exploration_is_clean_and_smaller() {
        let with = explore(&ExploreConfig { max_depth: 9, ..Default::default() });
        let without =
            explore(&ExploreConfig { max_depth: 9, allow_crash: false, ..Default::default() });
        assert!(with.clean() && without.clean());
        assert!(without.states_visited < with.states_visited);
    }

    #[test]
    fn state_budget_truncates_gracefully() {
        let cfg = ExploreConfig { max_depth: 200, max_states: 2_000, ..Default::default() };
        let report = explore(&cfg);
        assert!(report.truncated);
        assert!(report.violations.is_empty());
    }

    #[test]
    fn minimal_state_budget_is_enforced() {
        // `max_states: 1` must truncate before the first expansion — the
        // budget is checked when a state comes up for expansion, not after
        // its successors have been interned.
        let report = explore(&ExploreConfig { max_depth: 50, max_states: 1, ..Default::default() });
        assert!(report.truncated);
        assert_eq!(report.states_visited, 1);
        assert_eq!(report.transitions, 0);
    }

    #[test]
    fn stats_are_populated() {
        let r = explore(&ExploreConfig { max_depth: 10, ..Default::default() });
        assert!(r.stats.fp_confirms.get() > 0, "revisits must be byte-confirmed");
        assert!(r.stats.arena_bytes > 0);
        assert_eq!((r.stats.steals.get(), r.stats.shard_conflicts.get()), (0, 0));
    }

    #[test]
    fn fmt_path_renders_empty_and_chains() {
        assert_eq!(fmt_path::<TransitionLabel>(&[], None), "initial state");
        let p = [TransitionLabel::Converge, TransitionLabel::CrashSubject];
        let s = fmt_path(&p, None);
        assert!(s.contains("Converge") && s.contains("→"), "{s}");
    }
}
