//! Depth-bounded exhaustive search over the pair model.
//!
//! [`explore`] hands the pair model to the one engine in
//! [`crate::parallel`]; [`ExploreConfig::threads`] is how many workers run
//! its loop (`1`: the calling thread alone). All deterministic figures
//! (`states_visited`, `transitions`, `clean()`, `deadlocks`, the violation
//! message set) agree across thread counts and [`ExploreConfig::por`]
//! whenever the search is not truncated (see the determinism notes on
//! [`crate::parallel`]).

use crate::pair_model::{ExploreConfig, PairState, TransitionLabel};
use crate::parallel::{search, SearchModel, SearchReport};
use crate::por::DeliveryClass;

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

    fn delivery_class(&self, label: TransitionLabel) -> Option<DeliveryClass> {
        // Only the two plain delivery labels are classified: they consume
        // one message from one pool and step disjoint machines, the
        // independence proven in `crate::por`. `DuplicateAck` (the seeded
        // wire bug) and every machine/service action stay unclassified and
        // are never slept.
        match label {
            TransitionLabel::DeliverPing(k) => Some(DeliveryClass::Ping(k)),
            TransitionLabel::DeliverAck(k) => Some(DeliveryClass::Ack(k)),
            _ => None,
        }
    }

    fn por(&self) -> bool {
        self.0.por
    }
}

/// Exhaustively explores all interleavings up to `cfg.max_depth`, checking
/// the paper's safety lemmas at every state and the Theorem-1 closure across
/// every transition.
///
/// The visited store remembers the largest remaining depth each state was
/// expanded with, so re-entering a state with less budget is pruned soundly.
/// With `cfg.threads >= 2` that many workers share the search; the verdict
/// (`clean()`, `states_visited`, `transitions`, `deadlocks`) is
/// schedule-independent.
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
    search(&PairSearch(cfg), seed, cfg.max_depth, cfg.max_states, cfg.threads)
}

/// Breadth-first reachability probe: searches from the model's initial
/// state for any state satisfying `pred`, returning a **shortest** label
/// path to the first hit (deterministic: BFS over the deterministic
/// successor order). `None` when no matching state exists within
/// `cfg.max_depth` / `cfg.max_states`.
///
/// This is the classification oracle for counterexamples-to-induction: a
/// CTI whose pre-state is reachable is a *real* bug witness, one that is
/// not (within the bound) is spurious and calls for invariant
/// strengthening.
pub fn find_reachable(
    cfg: &ExploreConfig,
    pred: impl Fn(&PairState) -> bool,
) -> Option<Vec<TransitionLabel>> {
    use std::collections::HashMap;
    use std::collections::VecDeque;

    use crate::codec::StateCodec;

    let initial = PairState::initial(cfg);
    // nodes[i] = (state, parent index + incoming label); parent chain
    // reconstructs the path without storing one per node.
    let mut nodes: Vec<(PairState, Option<(usize, TransitionLabel)>)> = Vec::new();
    let mut seen: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut queue: VecDeque<(usize, u32)> = VecDeque::new();

    let path_to = |nodes: &[(PairState, Option<(usize, TransitionLabel)>)], mut at: usize| {
        let mut labels = Vec::new();
        while let Some((parent, label)) = nodes[at].1 {
            labels.push(label);
            at = parent;
        }
        labels.reverse();
        labels
    };

    seen.insert(initial.encode(), 0);
    nodes.push((initial, None));
    if pred(&nodes[0].0) {
        return Some(Vec::new());
    }
    queue.push_back((0, 0));
    let mut succ = Vec::new();
    while let Some((at, depth)) = queue.pop_front() {
        if depth >= cfg.max_depth || nodes.len() >= cfg.max_states {
            continue;
        }
        succ.clear();
        nodes[at].0.successors_into(cfg, &mut succ);
        for (label, next) in succ.drain(..) {
            let key = next.encode();
            if seen.contains_key(&key) {
                continue;
            }
            let idx = nodes.len();
            seen.insert(key, idx);
            let hit = pred(&next);
            nodes.push((next, Some((at, label))));
            if hit {
                return Some(path_to(&nodes, idx));
            }
            queue.push_back((idx, depth + 1));
        }
    }
    None
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
    fn minimal_state_budget_is_enforced_in_both_engines() {
        // `max_states: 1` must truncate before the first expansion at one
        // worker and at several — the budget is checked when a state comes
        // up for expansion, not after its successors have been interned.
        for threads in [1, 4] {
            let cfg = ExploreConfig { max_depth: 50, max_states: 1, threads, ..Default::default() };
            let report = explore(&cfg);
            assert!(report.truncated, "threads={threads}");
            assert_eq!(report.states_visited, 1, "threads={threads}");
            assert_eq!(report.transitions, 0, "threads={threads}");
        }
    }

    #[test]
    fn parallel_agrees_with_serial_on_all_variants() {
        for (strict, crash, converged) in
            [(false, true, false), (true, true, false), (false, false, false), (false, true, true)]
        {
            let base = ExploreConfig {
                max_depth: 12,
                strict_seq: strict,
                allow_crash: crash,
                start_converged: converged,
                ..Default::default()
            };
            let serial = explore(&base);
            let parallel = explore(&ExploreConfig { threads: 4, ..base });
            assert_eq!(
                serial.states_visited, parallel.states_visited,
                "state count diverged (strict={strict} crash={crash} conv={converged})"
            );
            assert_eq!(
                serial.transitions, parallel.transitions,
                "transition count diverged (strict={strict} crash={crash} conv={converged})"
            );
            assert_eq!(serial.clean(), parallel.clean());
            assert_eq!(serial.deadlocks, parallel.deadlocks);
            assert!(!parallel.truncated);
            assert_eq!(parallel.stats.threads, 4);
        }
    }

    #[test]
    fn por_agrees_with_full_exploration() {
        // POR must change no reported figure — it only skips probe work
        // (visible in `sleep_skips`). In the *faithful* pair model the
        // ping/ack handshake is strictly sequential (no reachable state has
        // a ping and an ack in flight together), so cross-class sleeps have
        // zero opportunities and the skip counter stays 0 — POR earns its
        // keep on the composed model's fork traffic and on mutated wires
        // (see `tests/por_equivalence.rs`).
        let base = ExploreConfig { max_depth: 16, ..Default::default() };
        let full = explore(&base);
        let por = explore(&ExploreConfig { por: true, ..base });
        assert_eq!(full.states_visited, por.states_visited);
        assert_eq!(full.transitions, por.transitions);
        assert_eq!(full.deadlocks, por.deadlocks);
        assert_eq!(full.violations, por.violations);
        assert_eq!(full.stats.sleep_skips.get(), 0);
        assert_eq!(por.stats.sleep_skips.get(), 0, "the faithful pair wire is sequential");
    }

    #[test]
    fn parallel_budget_truncates_gracefully() {
        let cfg =
            ExploreConfig { max_depth: 200, max_states: 2_000, threads: 4, ..Default::default() };
        let report = explore(&cfg);
        assert!(report.truncated);
        assert!(report.violations.is_empty());
    }

    #[test]
    fn stats_are_populated_in_both_modes() {
        let serial = explore(&ExploreConfig { max_depth: 10, ..Default::default() });
        assert_eq!(serial.stats.threads, 1);
        assert_eq!(serial.stats.shards, 1);
        assert!(serial.stats.fp_confirms.get() > 0, "revisits must be byte-confirmed");
        let par = explore(&ExploreConfig { max_depth: 10, threads: 3, ..Default::default() });
        assert_eq!(par.stats.threads, 3);
        assert_eq!(par.stats.shards, crate::parallel::N_SHARDS);
    }

    #[test]
    fn fmt_path_renders_empty_and_chains() {
        assert_eq!(fmt_path::<TransitionLabel>(&[], None), "initial state");
        let p = [TransitionLabel::Converge, TransitionLabel::CrashSubject];
        let s = fmt_path(&p, None);
        assert!(s.contains("Converge") && s.contains("→"), "{s}");
    }
}
