//! The search engine behind [`crate::explore`] and
//! [`crate::explore_composed`]: one depth-first loop, on the calling thread,
//! over a fingerprinted visited store.
//!
//! One engine serves both models through the private `SearchModel` trait. The
//! design:
//!
//! * **Probe before copying** — a model is searched as a label walk:
//!   `SearchModel::for_each_label` lists a state's transitions and
//!   `SearchModel::apply_into` builds one successor into a state the caller
//!   owns. The loop builds every successor in one reused scratch state,
//!   runs the step checks on it, encodes it and probes the store with it;
//!   only a child the store keeps (fresh, or re-queued with more depth or a
//!   smaller sleep mask) is cloned into a task. On the composed model about
//!   two thirds of all successors are pruned, and none of those is copied.
//! * **Fingerprinted visited store** — states are never used as hash-map
//!   keys. Each state is encoded once ([`crate::codec::StateCodec`]) into a
//!   scratch buffer and handed to an open-addressing arena store (the
//!   private `visited` module), which fingerprints it and whose index slots
//!   carry fingerprint tags, so most probes for a fresh state never leave
//!   the index; tag hits are confirmed by exact byte comparison, so the
//!   search stays exhaustive.
//! * **Parent-chain paths** — tasks carry no path vector. The store records,
//!   per state, the tree edge that first interned it, as the parent's id and
//!   the edge label's ordinal among the parent's labels. Violations are held
//!   as entry ids during the search; once it ends, the shortest per message
//!   is picked by parent-chain depth, and only those paths are rebuilt, by
//!   replaying the ordinals forward from the root through
//!   `SearchModel::for_each_label` and `SearchModel::apply_into`.
//! * **One LIFO stack** — a plain `Vec` (LIFO keeps the search depth-first
//!   and the frontier small).
//! * **Termination** — the search is over when the stack is empty. A store
//!   that can intern no more states (its `u32` entry ids or arena offsets
//!   are used up), or a state with more edges than a `u16` ordinal numbers,
//!   ends the search as the state budget does: truncated. A panic in a
//!   model or a codec unwinds to the caller.
//! * **Optional sleep-set POR** ([`crate::por`]) — when the model opts in,
//!   deliveries whose commuted order was already explored skip the
//!   encode/probe/queue work ([`SearchStats::sleep_skips`]). Successor
//!   *enumeration* and every invariant/closure check remain exhaustive, so
//!   all reported figures are identical with POR on or off.
//!
//! ## Determinism
//!
//! The expansion order is fixed (depth-first, last successor first), so
//! every figure repeats: the report, the representative path of each
//! violation, and every counter in [`SearchStats`]. When the search is not
//! truncated by `max_states`, the figures are also properties of the graph:
//! the depth stored for a state only increases and its sleep mask only
//! shrinks, so `states_visited`, `transitions` (each state's out-degree,
//! counted on its first expansion), `deadlocks` (distinct dead states) and
//! the violation message set are equal with POR on or off.

use dinefd_sim::metrics::Counter;

use crate::codec::StateCodec;
use crate::por::{child_sleep, DeliveryClass};
use crate::search::fmt_path;
use crate::visited::{Probe, ProbeOutcome, StoreFull, VisitedStore, NO_PARENT};

/// A state graph the engine can search.
pub(crate) trait SearchModel {
    /// Model state. Identity is its [`StateCodec`] encoding; `PartialEq` is
    /// only used to debug-assert codec round-trips on fresh insertions.
    type State: Clone + PartialEq + std::fmt::Debug + StateCodec;
    /// Transition label (small and copyable).
    type Label: Copy + std::fmt::Debug;

    /// Yields every transition enabled in `s`, in the model's canonical
    /// order. Builds no state.
    fn for_each_label(&self, s: &Self::State, push: impl FnMut(Self::Label));
    /// Overwrites `next` with the successor of `s` under `label` (one that
    /// `for_each_label` yielded). `next` still holds whatever successor was
    /// built into it last, so implementations must overwrite every field.
    fn apply_into(&self, s: &Self::State, label: Self::Label, next: &mut Self::State);
    /// State-level invariant violations (core messages, no path suffix).
    fn state_violations(&self, s: &Self::State) -> Vec<String>;
    /// Transition-level violations for `s --label--> next`.
    fn step_violations(
        &self,
        s: &Self::State,
        label: Self::Label,
        next: &Self::State,
    ) -> Vec<String>;
    /// POR classification of `label`: which wire pool it consumes from, or
    /// `None` for everything that must never be slept. The default opts
    /// every label out.
    fn delivery_class(&self, _label: Self::Label) -> Option<DeliveryClass> {
        None
    }
    /// Whether sleep-set POR is enabled for this run (default off).
    fn por(&self) -> bool {
        false
    }
}

/// Which check produced a violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolationKind {
    /// A state-level invariant (the paper's safety lemmas) failed.
    StateInvariant,
    /// A transition-level check (Theorem-1 closure / emergent exclusion)
    /// failed.
    ClosureStep,
}

/// One violation with a replayable counterexample path.
#[derive(Clone, Debug)]
pub struct ViolationRecord<L> {
    /// Which checker flagged it.
    pub kind: ViolationKind,
    /// The core diagnostic, e.g. `"Lemma 4 violated: …"`.
    pub message: String,
    /// Transition labels from the initial state to the violating state (for
    /// [`ViolationKind::ClosureStep`], the last label is the violating
    /// step). Replaying these labels through the model's `successors`
    /// reproduces the violation.
    pub path: Vec<L>,
}

/// Codec and reduction figures of one search run, built on the shared
/// [`dinefd_sim::metrics`] primitives so the explorer reports through the
/// same observability layer as the simulator. The search reads no clock: a
/// caller that wants its throughput times the call.
#[derive(Clone, Copy, Debug)]
pub struct SearchStats {
    /// Always 0: the search runs on one thread, which steals from nobody.
    /// Kept only because `benchmark/` reads it.
    pub steals: Counter,
    /// Always 0: the visited store has no locks to contend for. Kept only
    /// because `benchmark/` reads it.
    pub shard_conflicts: Counter,
    /// Index tag hits confirmed equal by exact byte comparison (every
    /// re-visit of a seen state costs exactly one).
    pub fp_confirms: Counter,
    /// Tag hits whose bytes differed although their whole 64-bit
    /// fingerprints are equal — true 64-bit collisions, resolved exactly by
    /// further probing (expected ≈ 0 at explorable state counts). The store
    /// keeps no fingerprint; it re-fingerprints the interned bytes only on a
    /// tag hit whose bytes differ, and a match on the 32-bit tag alone is
    /// not counted.
    pub fp_collisions: Counter,
    /// Successor edges skipped by sleep-set POR (0 unless the model opts
    /// in). Skips save probe work only; they never hide a state or a check.
    pub sleep_skips: Counter,
    /// Bytes of encoded state interned in the visited-store arena — the
    /// resident footprint of the state set itself.
    pub arena_bytes: u64,
}

/// Outcome of one exhaustive search, over either model
/// ([`crate::ExploreReport`] and [`crate::ComposedReport`] are this type at
/// the model's label).
#[derive(Clone, Debug)]
pub struct SearchReport<L> {
    /// Distinct states visited.
    pub states_visited: usize,
    /// Transitions traversed: each visited state's out-degree, counted
    /// exactly once on the state's first expansion. Equal with POR on or
    /// off.
    pub transitions: u64,
    /// Violations found (empty = every check held in the explored region),
    /// one line each: the message and the path that leads to it.
    /// Deduplicated by `(kind, message)` and sorted.
    pub violations: Vec<String>,
    /// The same incidents, structured, with replayable counterexample paths
    /// (replay them through the model's `successors`).
    pub records: Vec<ViolationRecord<L>>,
    /// States with no outgoing transition (there should be none).
    pub deadlocks: usize,
    /// Whether the search hit its state budget before exhausting the
    /// depth-bounded region.
    pub truncated: bool,
    /// Codec and reduction counters of this run.
    pub stats: SearchStats,
}

impl<L> SearchReport<L> {
    /// True when every checked property held everywhere explored.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.deadlocks == 0
    }
}

/// A queued unit of work: the state itself (kept decoded so expansion never
/// re-decodes), its store entry id (for parent links and the expanded
/// flag), and the depth/sleep metadata it was queued with.
struct Task<S> {
    state: S,
    entry: u32,
    remaining: u32,
    sleep: u32,
}

/// A violation captured mid-search: the path is rebuilt from `entry`'s parent
/// chain only once the search has finished.
struct PendingViolation<L> {
    kind: ViolationKind,
    message: String,
    entry: u32,
    extra: Option<L>,
}

/// The search's running tallies.
struct Tally<L> {
    transitions: u64,
    deadlocks: usize,
    sleep_skips: u64,
    pending: Vec<PendingViolation<L>>,
}

/// The loop's reusable buffers: the labels of the state being expanded, the
/// successor being built (a clone of the first state expanded, then always
/// the last successor built), and that successor's encoding.
struct Scratch<S, L> {
    labels: Vec<L>,
    next: Option<S>,
    buf: Vec<u8>,
}

/// Interns and checks the initial state, returning its root task.
fn seed_root<M: SearchModel>(
    model: &M,
    initial: M::State,
    max_depth: u32,
    store: &mut VisitedStore,
    buf: &mut Vec<u8>,
    tally: &mut Tally<M::Label>,
) -> Result<Task<M::State>, StoreFull> {
    buf.clear();
    initial.encode_into(buf);
    let Probe { outcome, entry, .. } = store.probe(buf, max_depth, 0, NO_PARENT, 0)?;
    debug_assert_eq!(outcome, ProbeOutcome::Fresh, "seeding into a non-empty store");
    for message in model.state_violations(&initial) {
        tally.pending.push(PendingViolation {
            kind: ViolationKind::StateInvariant,
            message,
            entry,
            extra: None,
        });
    }
    Ok(Task { state: initial, entry, remaining: max_depth, sleep: 0 })
}

/// Expands one task: lists its labels, builds each child in the scratch
/// state, runs the once-per-state checks, probes the child, and hands a
/// clone of each fresh or upgraded child to `push`. This single function
/// defines the expansion semantics — the once-per-state
/// `transitions`/`deadlocks` figures, the once-per-state closure checks, the
/// once-per-insertion invariant checks, and the POR skip rule. Fails only
/// when the store cannot intern a fresh child, or cannot number the task's
/// edges with `u16` ordinals.
fn expand_task<M: SearchModel>(
    model: &M,
    task: &Task<M::State>,
    store: &mut VisitedStore,
    scratch: &mut Scratch<M::State, M::Label>,
    tally: &mut Tally<M::Label>,
    mut push: impl FnMut(Task<M::State>),
) -> Result<(), StoreFull> {
    let first_expansion = store.mark_expanded(task.entry);
    let Scratch { labels, next, buf } = scratch;
    labels.clear();
    model.for_each_label(&task.state, |l| labels.push(l));
    if labels.is_empty() {
        if first_expansion {
            tally.deadlocks += 1;
        }
        return Ok(());
    }
    if labels.len() > usize::from(u16::MAX) + 1 {
        return Err(StoreFull);
    }
    if first_expansion {
        // Out-degree is counted in full even under POR — enumeration (and
        // with it every check below) is never reduced, only probe work is.
        tally.transitions += labels.len() as u64;
    }
    let next = next.get_or_insert_with(|| task.state.clone());
    let remaining = task.remaining - 1;
    let por = model.por();
    // Sleep bits of delivery labels already probed at *this* expansion;
    // later independent siblings inherit them (the sleep-set recurrence).
    let mut earlier = 0u32;
    for (ordinal, &label) in (0..=u16::MAX).zip(labels.iter()) {
        model.apply_into(&task.state, label, next);
        if first_expansion {
            for message in model.step_violations(&task.state, label, next) {
                tally.pending.push(PendingViolation {
                    kind: ViolationKind::ClosureStep,
                    message,
                    entry: task.entry,
                    extra: Some(label),
                });
            }
        }
        let class = if por { model.delivery_class(label) } else { None };
        if let Some(c) = class {
            let bit = c.bit();
            if bit != 0 && task.sleep & bit != 0 {
                // A commuted order through an earlier-explored independent
                // delivery reaches the same child; skip the probe.
                tally.sleep_skips += 1;
                continue;
            }
        }
        buf.clear();
        next.encode_into(buf);
        let sleep = if por { child_sleep(task.sleep, earlier, class) } else { 0 };
        if let Some(c) = class {
            earlier |= c.bit();
        }
        let Probe { outcome, entry, remaining: up_remaining, sleep: up_sleep } =
            store.probe(buf, remaining, sleep, task.entry, ordinal)?;
        match outcome {
            ProbeOutcome::Pruned => continue,
            ProbeOutcome::Requeue => {}
            ProbeOutcome::Fresh => {
                debug_assert_eq!(
                    M::State::decode(buf).as_ref(),
                    Some(&*next),
                    "codec round-trip failed on a fresh insertion"
                );
                for message in model.state_violations(next) {
                    tally.pending.push(PendingViolation {
                        kind: ViolationKind::StateInvariant,
                        message,
                        entry,
                        extra: None,
                    });
                }
            }
        }
        push(Task { state: next.clone(), entry, remaining: up_remaining, sleep: up_sleep });
    }
    Ok(())
}

/// Depth-bounded exhaustive search from `initial`, on the calling thread.
pub(crate) fn search<M: SearchModel>(
    model: &M,
    initial: M::State,
    max_depth: u32,
    max_states: usize,
) -> SearchReport<M::Label> {
    search_in(model, initial, max_depth, max_states, VisitedStore::new())
}

/// Rebuilds the labels of a tree path from the root: at each step, the
/// `ordinal`-th label the model lists for the state reached so far, applied.
/// The model is deterministic, so this retraces the edges the search took.
fn replay<M: SearchModel>(model: &M, root: &M::State, ordinals: &[u16]) -> Vec<M::Label> {
    let mut path = Vec::with_capacity(ordinals.len() + 1);
    let (mut state, mut next) = (root.clone(), root.clone());
    for &ordinal in ordinals {
        let (mut k, mut hit) = (0, None);
        model.for_each_label(&state, |l| {
            if k == usize::from(ordinal) {
                hit = Some(l);
            }
            k += 1;
        });
        let Some(label) = hit else {
            debug_assert!(false, "ordinal {ordinal} of {k} labels: the model is not deterministic");
            break;
        };
        model.apply_into(&state, label, &mut next);
        std::mem::swap(&mut state, &mut next);
        path.push(label);
    }
    path
}

/// [`search`] over a caller-supplied (empty) store: the loop pops a task,
/// tests the budget, expands it and pushes its children.
fn search_in<M: SearchModel>(
    model: &M,
    initial: M::State,
    max_depth: u32,
    max_states: usize,
    mut store: VisitedStore,
) -> SearchReport<M::Label> {
    let root = initial.clone();
    let mut tally = Tally { transitions: 0, deadlocks: 0, sleep_skips: 0, pending: Vec::new() };
    let mut scratch = Scratch { labels: Vec::new(), next: None, buf: Vec::with_capacity(64) };
    let mut stack: Vec<Task<M::State>> = Vec::new();
    let mut truncated = false;
    match seed_root(model, initial, max_depth, &mut store, &mut scratch.buf, &mut tally) {
        Ok(task) => stack.push(task),
        Err(StoreFull) => truncated = true,
    }
    while let Some(task) = stack.pop() {
        // The budget is tested when a state comes up for expansion, so the
        // store may overshoot `max_states` by at most one expansion's
        // successors. Once it trips, the queued tasks are dropped unexpanded.
        if store.len() >= max_states {
            truncated = true;
            break;
        }
        if task.remaining == 0 {
            continue;
        }
        if expand_task(model, &task, &mut store, &mut scratch, &mut tally, |t| stack.push(t))
            .is_err()
        {
            // The store can intern no more states: stop as the budget does.
            truncated = true;
            break;
        }
    }

    let records = shortest_per_message(tally.pending, |p| {
        store.ordinals_to(p.entry).len() + usize::from(p.extra.is_some())
    })
    .into_iter()
    .map(|p| {
        let mut path = replay(model, &root, &store.ordinals_to(p.entry));
        path.extend(p.extra);
        ViolationRecord { kind: p.kind, message: p.message, path }
    })
    .collect::<Vec<_>>();
    let store_stats = store.stats();
    SearchReport {
        states_visited: store.len(),
        transitions: tally.transitions,
        violations: records
            .iter()
            .map(|r| format!("{} (after {})", r.message, fmt_path(&r.path, None)))
            .collect(),
        records,
        deadlocks: tally.deadlocks,
        truncated,
        stats: SearchStats {
            steals: Counter::new(),
            shard_conflicts: Counter::new(),
            fp_confirms: Counter::from(store_stats.confirms),
            fp_collisions: Counter::from(store_stats.collisions),
            sleep_skips: Counter::from(tally.sleep_skips),
            arena_bytes: store.arena_bytes() as u64,
        },
    }
}

/// Dedups by `(kind, message)`, keeping the one with the shortest path (the
/// first one found among equals), and sorts.
fn shortest_per_message<L>(
    pending: Vec<PendingViolation<L>>,
    path_len: impl Fn(&PendingViolation<L>) -> usize,
) -> Vec<PendingViolation<L>> {
    let mut by_key: std::collections::BTreeMap<(ViolationKind, String), (usize, _)> =
        std::collections::BTreeMap::new();
    for p in pending {
        let len = path_len(&p);
        match by_key.entry((p.kind, p.message.clone())) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert((len, p));
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                // Prefer the shortest representative path — nicer
                // counterexamples.
                if len < e.get().0 {
                    e.insert((len, p));
                }
            }
        }
    }
    by_key.into_values().map(|(_, p)| p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    impl StateCodec for u32 {
        fn encode_into(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.to_le_bytes());
        }

        fn decode(input: &[u8]) -> Option<Self> {
            Some(u32::from_le_bytes(input.try_into().ok()?))
        }
    }

    /// A graph over `u32` states given by its successor function (a label is
    /// the successor's position). Counts the expansions of states 0..8 and
    /// panics when asked to expand `poison`.
    /// Flags the step `violation` as a closure violation.
    struct Toy {
        edges: fn(u32) -> Vec<u32>,
        poison: Option<u32>,
        violation: Option<(u32, u32)>,
        expansions: [Cell<usize>; 8],
    }

    impl Toy {
        fn new(edges: fn(u32) -> Vec<u32>) -> Self {
            Toy { edges, poison: None, violation: None, expansions: Default::default() }
        }
    }

    impl SearchModel for Toy {
        type State = u32;
        type Label = u32;

        fn for_each_label(&self, s: &u32, push: impl FnMut(u32)) {
            if self.poison == Some(*s) {
                panic!("toy model poisoned at {s}");
            }
            if let Some(n) = self.expansions.get(*s as usize) {
                n.set(n.get() + 1);
            }
            (0..(self.edges)(*s).len() as u32).for_each(push);
        }

        fn apply_into(&self, s: &u32, label: u32, next: &mut u32) {
            *next = (self.edges)(*s)[label as usize];
        }

        fn state_violations(&self, _: &u32) -> Vec<String> {
            Vec::new()
        }

        fn step_violations(&self, s: &u32, _: u32, next: &u32) -> Vec<String> {
            match self.violation {
                Some((from, to)) if (*s, *next) == (from, to) => vec![format!("{from} → {to}")],
                _ => Vec::new(),
            }
        }
    }

    /// The infinite binary tree in heap numbering, cut off well inside `u32`.
    fn tree(n: u32) -> Vec<u32> {
        if n < 1 << 24 {
            vec![2 * n + 1, 2 * n + 2]
        } else {
            Vec::new()
        }
    }

    /// 0 → {1, 2}, 1 → 4, 2 → 3 → 4, 4 → 5, 5 dead: the search takes the last
    /// successor first, so it reaches 4 over the long side first.
    fn diamond(n: u32) -> Vec<u32> {
        match n {
            0 => vec![1, 2],
            1 | 3 => vec![4],
            2 => vec![3],
            4 => vec![5],
            _ => Vec::new(),
        }
    }

    #[test]
    fn a_model_panic_comes_back_as_that_panic() {
        // 2^19 states within the bound; the poisoned one is an inner node a
        // few thousand expansions in.
        let model = Toy { poison: Some(5000), ..Toy::new(tree) };
        let payload = catch_unwind(AssertUnwindSafe(|| search(&model, 0, 18, usize::MAX)))
            .expect_err("the poisoned state is within the bound");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("toy model poisoned at 5000")
        );
    }

    #[test]
    fn the_smallest_searches_terminate() {
        let depth0 = search(&Toy::new(tree), 0, 0, usize::MAX);
        assert_eq!((depth0.states_visited, depth0.transitions), (1, 0));
        assert!(depth0.clean() && !depth0.truncated);

        let one_state = search(&Toy::new(|_| vec![0]), 0, 50, usize::MAX);
        assert_eq!((one_state.states_visited, one_state.transitions), (1, 1));
        assert!(one_state.clean() && !one_state.truncated);

        let budget1 = search(&Toy::new(tree), 0, 50, 1);
        assert_eq!((budget1.states_visited, budget1.transitions), (1, 0));
        assert!(budget1.truncated);
    }

    #[test]
    fn a_store_that_cannot_intern_another_state_truncates_the_search() {
        let r =
            search_in(&Toy::new(tree), 0, 50, usize::MAX, VisitedStore::with_limits(100, u32::MAX));
        assert!(r.truncated, "a full store ends the search as truncated");
        assert_eq!(r.states_visited, 100);
    }

    #[test]
    fn an_out_degree_past_u16_ordinals_truncates_the_search() {
        // The root has 2^16 + 1 successors: the last one has no `u16`
        // ordinal, so the root cannot be expanded at all.
        let wide = |n: u32| if n == 0 { (1..=65_537).collect() } else { Vec::new() };
        let r = search(&Toy::new(wide), 0, 3, usize::MAX);
        assert!(r.truncated, "an edge the store cannot number ends the search");
        assert_eq!(r.states_visited, 1);
        // 2^16 successors number 0..=u16::MAX and are all searched.
        let widest = |n: u32| if n == 0 { (1..=65_536).collect() } else { Vec::new() };
        let r = search(&Toy::new(widest), 0, 3, usize::MAX);
        assert!(!r.truncated);
        assert_eq!((r.states_visited, r.deadlocks), (65_537, 65_536));
    }

    #[test]
    fn paths_are_replayed_from_the_ordinals() {
        // Over the diamond, 4 is first reached over 2 and 3 (last successor
        // first): the edge 4 → 5 is found at the end of 0 → 2 → 3 → 4, and
        // the tree path to 4 replays as labels 1, 0, 0.
        let model = Toy { violation: Some((4, 5)), ..Toy::new(diamond) };
        let r = search(&model, 0, 5, usize::MAX);
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.records[0].path, vec![1, 0, 0, 0]);
        assert_eq!(r.violations, vec!["4 → 5 (after 1 → 0 → 0 → 0)".to_string()]);
    }

    #[test]
    fn a_state_reached_again_with_more_depth_is_re_expanded_but_counted_once() {
        let model = Toy::new(diamond);
        let r = search(&model, 0, 5, usize::MAX);
        assert_eq!((r.states_visited, r.transitions, r.deadlocks), (6, 6, 1));
        assert!(r.violations.is_empty() && !r.truncated);
        // Over 2 and 3, states 4 and 5 come up with 2 and 1 steps left; over
        // 1 they come up again with 3 and 2.
        assert_eq!((model.expansions[4].get(), model.expansions[5].get()), (2, 2));
    }
}
