//! The search engine behind [`crate::explore`], [`crate::explore_composed`]
//! and [`crate::find_reachable`]: one breadth-first loop, on the calling
//! thread, whose queue is the fingerprinted visited store itself.
//!
//! One engine serves every model through the private `SearchModel` trait.
//! The design:
//!
//! * **The store is the queue** — the visited store hands out entry ids in
//!   discovery order, so the states of one breadth-first layer hold one run
//!   of consecutive ids. The loop expands ids 0, 1, 2, … in turn: it decodes
//!   each state from the store's arena (the codec round-trips exactly, which
//!   every fresh insertion debug-asserts) and counts depth at the layer
//!   boundaries. Each state is expanded exactly once, at its shortest
//!   distance from the root, and nothing besides the store is queued.
//! * **Probe before copying** — a model is searched as a label walk:
//!   `SearchModel::for_each_label` lists a state's transitions and
//!   `SearchModel::apply_into` builds one successor into a state the caller
//!   owns. The loop builds every successor in one reused scratch state,
//!   runs the step checks on it, encodes it and probes the store with it;
//!   a successor is never cloned, and a fresh one lives on only as its
//!   encoding.
//! * **Fingerprinted visited store** — states are never used as hash-map
//!   keys. Each state is encoded once ([`crate::codec::StateCodec`]) into a
//!   scratch buffer and handed to an open-addressing arena store (the
//!   private `visited` module), which fingerprints it and whose index slots
//!   carry fingerprint tags, so most probes for a fresh state never leave
//!   the index; tag hits are confirmed by exact byte comparison, so the
//!   search stays exhaustive.
//! * **Parent-chain paths** — the store records, per state, the tree edge
//!   that first interned it, as the parent's id and the edge label's ordinal
//!   among the parent's labels. Violations are held as entry ids during the
//!   search; once it ends, the first one found per message is kept, and only
//!   those paths are rebuilt, by replaying the ordinals forward from the
//!   root through `SearchModel::for_each_label` and
//!   `SearchModel::apply_into`. A breadth-first tree path is a shortest
//!   path, and violations are found in order of path length, so every
//!   counterexample is a shortest one.
//! * **Termination** — the search is over when every state within the depth
//!   bound has been expanded. A store that can intern no more states (its
//!   `u32` entry ids or arena offsets are used up), a state with more edges
//!   than a `u16` ordinal numbers, or an interned encoding that does not
//!   decode ends the search as the state budget does: truncated. A model
//!   that asks a reachability question (`SearchModel::FIRST_HIT`) ends it
//!   after the expansion that records its first violation. A panic in a
//!   model or a codec unwinds to the caller.
//!
//! ## Determinism
//!
//! The expansion order is fixed (breadth-first, successors in the model's
//! label order), so every figure repeats: the report, the representative
//! path of each violation, and every counter in [`SearchStats`]. When the
//! search is not truncated by `max_states`, the figures are also properties
//! of the graph: `states_visited` is the states within `max_depth` steps,
//! `transitions` the out-degree summed over those within fewer steps,
//! `deadlocks` the latter with no successor, and every violation path is as
//! short as the violation allows.

use dinefd_sim::metrics::Counter;

use crate::codec::StateCodec;
use crate::search::fmt_path;
use crate::visited::{StoreFull, VisitedStore, NO_PARENT};

/// A state graph the engine can search.
pub(crate) trait SearchModel {
    /// Model state. Identity is its [`StateCodec`] encoding; `PartialEq` is
    /// only used to debug-assert codec round-trips on fresh insertions.
    type State: Clone + PartialEq + std::fmt::Debug + StateCodec;
    /// Transition label (small and copyable).
    type Label: Copy + std::fmt::Debug;
    /// Whether the model asks a reachability question: the search ends after
    /// the expansion that records its first violation (a hit of the root
    /// ends it before any expansion).
    const FIRST_HIT: bool = false;

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

/// Codec figures of one search run, built on the shared
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
    /// Index tag hits confirmed equal by exact byte comparison: one per
    /// probed edge that leads to a seen state, so an untruncated search
    /// reads `transitions + 1 - states_visited`.
    pub fp_confirms: Counter,
    /// Tag hits whose bytes differed although their whole 64-bit
    /// fingerprints are equal — true 64-bit collisions, resolved exactly by
    /// further probing (expected ≈ 0 at explorable state counts). The store
    /// keeps no fingerprint; it re-fingerprints the interned bytes only on a
    /// tag hit whose bytes differ, and a match on the 32-bit tag alone is
    /// not counted.
    pub fp_collisions: Counter,
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
    /// Transitions traversed: the out-degree of every expanded state (each
    /// state is expanded once).
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
    /// Codec counters of this run.
    pub stats: SearchStats,
}

impl<L> SearchReport<L> {
    /// True when every checked property held everywhere explored.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.deadlocks == 0
    }
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
    pending: Vec<PendingViolation<L>>,
}

/// The loop's reusable buffers: the labels of the state being expanded, the
/// successor being built (the last one built, or the root before the first),
/// and that successor's encoding.
struct Scratch<S, L> {
    labels: Vec<L>,
    next: S,
    buf: Vec<u8>,
}

/// Records `state`'s invariant violations against its store entry.
fn check_state<M: SearchModel>(
    model: &M,
    state: &M::State,
    entry: u32,
    tally: &mut Tally<M::Label>,
) {
    for message in model.state_violations(state) {
        tally.pending.push(PendingViolation {
            kind: ViolationKind::StateInvariant,
            message,
            entry,
            extra: None,
        });
    }
}

/// Expands store entry `id`, decoded as `state`: lists its labels, builds
/// each child in the scratch state, runs the step checks, probes the child,
/// and checks the invariants of each fresh one. This single function defines
/// the expansion semantics — the `transitions`/`deadlocks` figures and the
/// once-per-edge and once-per-state checks. Fails only when the store cannot
/// intern a fresh child, or cannot number the state's edges with `u16`
/// ordinals.
fn expand_entry<M: SearchModel>(
    model: &M,
    id: u32,
    state: &M::State,
    store: &mut VisitedStore,
    scratch: &mut Scratch<M::State, M::Label>,
    tally: &mut Tally<M::Label>,
) -> Result<(), StoreFull> {
    let Scratch { labels, next, buf } = scratch;
    labels.clear();
    model.for_each_label(state, |l| labels.push(l));
    if labels.is_empty() {
        tally.deadlocks += 1;
        return Ok(());
    }
    if labels.len() > usize::from(u16::MAX) + 1 {
        return Err(StoreFull);
    }
    tally.transitions += labels.len() as u64;
    for (ordinal, &label) in (0..=u16::MAX).zip(labels.iter()) {
        model.apply_into(state, label, next);
        for message in model.step_violations(state, label, next) {
            tally.pending.push(PendingViolation {
                kind: ViolationKind::ClosureStep,
                message,
                entry: id,
                extra: Some(label),
            });
        }
        buf.clear();
        next.encode_into(buf);
        if let Some(entry) = store.probe(buf, id, ordinal)? {
            debug_assert_eq!(
                M::State::decode(buf).as_ref(),
                Some(&*next),
                "codec round-trip failed on a fresh insertion"
            );
            check_state(model, next, entry, tally);
        }
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

/// [`search`] over a caller-supplied (empty) store: the loop walks the
/// store's entries in id order, testing the budget and the depth before
/// expanding each.
fn search_in<M: SearchModel>(
    model: &M,
    initial: M::State,
    max_depth: u32,
    max_states: usize,
    mut store: VisitedStore,
) -> SearchReport<M::Label> {
    let mut tally = Tally { transitions: 0, deadlocks: 0, pending: Vec::new() };
    let mut scratch =
        Scratch { labels: Vec::new(), next: initial.clone(), buf: Vec::with_capacity(64) };
    initial.encode_into(&mut scratch.buf);
    let mut truncated = false;
    match store.probe(&scratch.buf, NO_PARENT, 0) {
        Ok(Some(root)) => check_state(model, &initial, root, &mut tally),
        _ => truncated = true,
    }
    // Entry `id` lies `depth` steps from the root; that layer's ids end
    // before `layer_end`.
    let (mut id, mut depth, mut layer_end) = (0u32, 0u32, 1u32);
    while (id as usize) < store.len() {
        if M::FIRST_HIT && !tally.pending.is_empty() {
            break;
        }
        // The budget is tested when a state comes up for expansion, so the
        // store may overshoot `max_states` by at most one expansion's
        // successors.
        if store.len() >= max_states {
            truncated = true;
            break;
        }
        if id == layer_end {
            // The layer before is expanded, so this one is fully interned.
            depth += 1;
            layer_end = store.len() as u32;
        }
        if depth >= max_depth {
            break;
        }
        let Some(state) = M::State::decode(store.bytes(id)) else {
            debug_assert!(false, "entry {id} does not decode");
            truncated = true;
            break;
        };
        if expand_entry(model, id, &state, &mut store, &mut scratch, &mut tally).is_err() {
            // The store can intern no more states: stop as the budget does.
            truncated = true;
            break;
        }
        id += 1;
    }

    let records = first_per_message(tally.pending)
        .into_iter()
        .map(|p| {
            let mut path = replay(model, &initial, &store.ordinals_to(p.entry));
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
            arena_bytes: store.arena_bytes() as u64,
        },
    }
}

/// Dedups by `(kind, message)`, keeping the first one found (in breadth-first
/// order, one with a shortest path), and sorts.
fn first_per_message<L>(pending: Vec<PendingViolation<L>>) -> Vec<PendingViolation<L>> {
    let mut by_key = std::collections::BTreeMap::new();
    for p in pending {
        by_key.entry((p.kind, p.message.clone())).or_insert(p);
    }
    by_key.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
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
    /// the successor's position). Counts the expansions of states 0..8,
    /// panics when asked to expand `poison`, flags the step `violation` as a
    /// closure violation and the state `bad` as an invariant violation. With
    /// `HIT`, it asks whether `bad` is reachable.
    struct Toy<const HIT: bool = false> {
        edges: fn(u32) -> Vec<u32>,
        poison: Option<u32>,
        violation: Option<(u32, u32)>,
        bad: Option<u32>,
        expansions: [Cell<usize>; 8],
        /// The state whose labels were listed last, with its successors, so
        /// that applying its labels does not rebuild them one edge at a time.
        listed: RefCell<(u32, Vec<u32>)>,
    }

    impl Toy {
        fn new(edges: fn(u32) -> Vec<u32>) -> Self {
            Toy {
                edges,
                poison: None,
                violation: None,
                bad: None,
                expansions: Default::default(),
                listed: RefCell::new((u32::MAX, Vec::new())),
            }
        }
    }

    /// Asks whether `bad` is reachable over `edges`.
    fn reach(edges: fn(u32) -> Vec<u32>, bad: u32) -> Toy<true> {
        let Toy { poison, violation, expansions, listed, .. } = Toy::new(edges);
        Toy { edges, poison, violation, bad: Some(bad), expansions, listed }
    }

    impl<const HIT: bool> SearchModel for Toy<HIT> {
        type State = u32;
        type Label = u32;
        const FIRST_HIT: bool = HIT;

        fn for_each_label(&self, s: &u32, push: impl FnMut(u32)) {
            if self.poison == Some(*s) {
                panic!("toy model poisoned at {s}");
            }
            if let Some(n) = self.expansions.get(*s as usize) {
                n.set(n.get() + 1);
            }
            let successors = (self.edges)(*s);
            (0..successors.len() as u32).for_each(push);
            *self.listed.borrow_mut() = (*s, successors);
        }

        fn apply_into(&self, s: &u32, label: u32, next: &mut u32) {
            let listed = self.listed.borrow();
            *next = if listed.0 == *s {
                listed.1[label as usize]
            } else {
                (self.edges)(*s)[label as usize]
            };
        }

        fn state_violations(&self, s: &u32) -> Vec<String> {
            if self.bad == Some(*s) {
                vec![format!("bad {s}")]
            } else {
                Vec::new()
            }
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

    /// 0 → {2, 1}, 2 → 3 → 4, 1 → 4, 4 → 5, 5 dead: 4 is first reached from
    /// 1, the second successor of the root, and lies two steps from it.
    fn diamond(n: u32) -> Vec<u32> {
        match n {
            0 => vec![2, 1],
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
    fn the_depth_bound_counts_layers() {
        // Depth 3 over the binary tree: 1 + 2 + 4 + 8 states, the 7 within
        // two steps expanded.
        let r = search(&Toy::new(tree), 0, 3, usize::MAX);
        assert_eq!((r.states_visited, r.transitions, r.stats.fp_confirms.get()), (15, 14, 0));
        assert!(r.clean() && !r.truncated);
        // A budget reached exactly by the last layer truncates, as when the
        // state that fills it comes up for expansion.
        assert!(search(&Toy::new(tree), 0, 3, 15).truncated);
        assert!(!search(&Toy::new(tree), 0, 3, 16).truncated);
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
    fn paths_are_shortest_and_replayed_from_the_ordinals() {
        // 4 is first interned as the child of 1 (ordinal 0), and 1 is the
        // root's second child (ordinal 1): the edge 4 → 5 is found at the end
        // of 0 → 1 → 4, not of the longer 0 → 2 → 3 → 4.
        let model = Toy { violation: Some((4, 5)), bad: Some(5), ..Toy::new(diamond) };
        let r = search(&model, 0, 5, usize::MAX);
        let paths: Vec<_> = r.records.iter().map(|r| (r.kind, r.path.clone())).collect();
        assert_eq!(
            paths,
            [
                (ViolationKind::StateInvariant, vec![1, 0, 0]),
                (ViolationKind::ClosureStep, vec![1, 0, 0])
            ]
        );
        assert_eq!(r.violations[1], "4 → 5 (after 1 → 0 → 0)");
    }

    #[test]
    fn every_state_is_expanded_once() {
        let model = Toy::new(diamond);
        let r = search(&model, 0, 5, usize::MAX);
        assert_eq!((r.states_visited, r.transitions, r.deadlocks), (6, 6, 1));
        assert!(r.violations.is_empty() && !r.truncated);
        assert!(model.expansions.iter().take(6).all(|n| n.get() == 1));
        // Every edge into a seen state is confirmed once: 4 over 3.
        assert_eq!(r.stats.fp_confirms.get(), r.transitions + 1 - r.states_visited as u64);
    }

    #[test]
    fn a_reachability_model_stops_after_its_first_hit() {
        // Node 5 is the third state of layer 2. The search finishes the
        // expansion of 2 that finds it, and goes no further.
        let r = search(&reach(tree, 5), 0, 40, usize::MAX);
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.records[0].path, vec![1, 0]);
        assert_eq!(r.states_visited, 7, "the root, 1 and 2 expanded");
        assert!(!r.truncated);
        // A hit at the root expands nothing.
        let r = search(&reach(tree, 0), 0, 40, usize::MAX);
        assert_eq!((r.states_visited, r.records[0].path.len()), (1, 0));
    }

    #[test]
    fn an_entry_that_does_not_decode_ends_the_search() {
        // A state whose encoding decodes to nothing: release builds end the
        // search as truncated, debug builds stop at the round-trip assert.
        #[derive(Clone, Debug, PartialEq)]
        struct Lossy(u32);
        impl StateCodec for Lossy {
            fn encode_into(&self, out: &mut Vec<u8>) {
                self.0.encode_into(out);
            }

            fn decode(input: &[u8]) -> Option<Self> {
                u32::decode(input).filter(|&n| n != 2).map(Lossy)
            }
        }
        struct LossyTree;
        impl SearchModel for LossyTree {
            type State = Lossy;
            type Label = u32;

            fn for_each_label(&self, s: &Lossy, push: impl FnMut(u32)) {
                (0..tree(s.0).len() as u32).for_each(push);
            }

            fn apply_into(&self, s: &Lossy, label: u32, next: &mut Lossy) {
                next.0 = tree(s.0)[label as usize];
            }

            fn state_violations(&self, _: &Lossy) -> Vec<String> {
                Vec::new()
            }

            fn step_violations(&self, _: &Lossy, _: u32, _: &Lossy) -> Vec<String> {
                Vec::new()
            }
        }
        let run = catch_unwind(|| search(&LossyTree, Lossy(0), 5, usize::MAX));
        if cfg!(debug_assertions) {
            assert!(run.is_err(), "the round-trip assert stops a debug build");
        } else {
            let r = run.expect("a release build ends the search");
            assert!(r.truncated);
            assert_eq!(r.states_visited, 5, "0, 1, 2 and 1's children; 2 never expands");
        }
    }
}
