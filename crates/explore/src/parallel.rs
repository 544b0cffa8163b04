//! The search engine behind [`crate::explore`] and
//! [`crate::explore_composed`]: one worker loop, run on the calling thread
//! or on several, over a fingerprinted visited store.
//!
//! One engine serves both models through the [`SearchModel`] trait. The
//! design:
//!
//! * **Probe before copying** — a model is searched as a label walk:
//!   `SearchModel::for_each_label` lists a state's transitions and
//!   `SearchModel::apply_into` builds one successor into a state the caller
//!   owns. A worker builds every successor in one reused scratch state,
//!   runs the step checks on it, encodes it and probes the store with it;
//!   only a child the store keeps (fresh, or re-queued with more depth or a
//!   smaller sleep mask) is cloned into a task. On the composed model about
//!   two thirds of all successors are pruned, and none of those is copied.
//! * **Fingerprinted visited store** — states are never used as hash-map
//!   keys. Each state is encoded once ([`crate::codec::StateCodec`]) into a
//!   per-worker scratch buffer, fingerprinted, and interned in an
//!   open-addressing arena store ([`crate::visited`]) whose index slots
//!   carry fingerprint tags, so most probes for a fresh state never leave
//!   the index; fingerprint hits are confirmed by exact byte comparison, so
//!   the search stays exhaustive. With two or more workers the store is
//!   striped across [`N_SHARDS`] mutexes selected by the low fingerprint
//!   bits; workers `try_lock` first and count the misses
//!   ([`SearchStats::shard_conflicts`]). One worker uses a single store and
//!   no lock.
//! * **Parent-chain paths** — tasks carry no path vector. The store records,
//!   per state, the tree edge that first interned it; violations are held as
//!   entry references during the search and resolved to label paths once,
//!   at the end, by walking parent links.
//! * **One LIFO stack per worker** — a plain `Vec` (LIFO keeps the search
//!   depth-first-ish and the frontier small). A worker that runs dry waits
//!   on the one shared pool (a `Mutex<Vec<_>>` and a `Condvar`); a busy
//!   worker that sees someone waiting sets aside the *older* half of its
//!   stack there, which hands over the widest subtrees. With one worker
//!   nobody ever waits, so the pool is locked once, at the end.
//! * **Termination** — the search is over when every worker is waiting on
//!   the empty pool. A worker that unwinds is counted as waiting for good
//!   and tells the others to stop expanding, so a panic in a model or a
//!   codec ends the search and is re-raised by [`dinefd_sim::pool`] instead
//!   of leaving the other workers waiting for it. A store that can intern
//!   no more states (its `u32` entry ids or arena offsets are used up) ends
//!   the search as the state budget does: truncated.
//! * **Optional sleep-set POR** ([`crate::por`]) — when the model opts in,
//!   deliveries whose commuted order was already explored skip the
//!   encode/probe/queue work ([`SearchStats::sleep_skips`]). Successor
//!   *enumeration* and every invariant/closure check remain exhaustive, so
//!   all reported figures are identical with POR on or off.
//!
//! ## Determinism
//!
//! The visited store converges to a schedule-independent fixpoint: the
//! depth stored for a state only increases (and its sleep mask only
//! shrinks), a state is (re-)queued exactly when that metadata improves,
//! and the final values are properties of the graph, not of the schedule.
//! Hence, when the search is not truncated by `max_states`:
//!
//! * `states_visited` is deterministic and equal at every thread count and
//!   with POR on or off;
//! * the set of states whose invariants are checked (every visited state,
//!   checked exactly once, on first insertion) is deterministic, so
//!   `clean()` and the deduplicated violation *messages* are deterministic;
//! * `deadlocks` counts *distinct* dead states — deterministic;
//! * `transitions` counts each state's out-degree exactly once, on its
//!   first expansion — deterministic and thread-count-independent.
//!
//! With one worker the expansion order itself is fixed (depth-first, last
//! successor first), so every figure in [`SearchStats`] repeats exactly.
//! With more, the *representative path* attached to each violation
//! (whichever worker reached the state first) and the [`SearchStats`]
//! figures are schedule-dependent. When the search
//! *is* truncated, the subset of states visited before the budget tripped
//! depends on expansion order.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use dinefd_sim::metrics::Counter;
use dinefd_sim::pool::{self, WorkerFn};

use crate::codec::{fingerprint, StateCodec};
use crate::por::{child_sleep, DeliveryClass};
use crate::search::fmt_path;
use crate::visited::{
    path_through, Probe, ProbeOutcome, ShardedVisitedStore, StoreAccess, StoreFull, VisitedStore,
    NO_PARENT,
};

/// Number of lock stripes in the visited store that two or more workers
/// share. Power of two; generous relative to any plausible worker count so
/// that uniformly-fingerprinted states rarely collide on a stripe.
pub const N_SHARDS: usize = 64;

/// A state graph the engine can search. Implementations must be cheap to
/// share across threads (`&self` methods are called concurrently).
pub(crate) trait SearchModel: Sync {
    /// Model state. Identity is its [`StateCodec`] encoding; `PartialEq` is
    /// only used to debug-assert codec round-trips on fresh insertions.
    type State: Clone + Send + PartialEq + std::fmt::Debug + StateCodec;
    /// Transition label (small and copyable).
    type Label: Copy + Send + std::fmt::Debug;

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

/// Contention and codec figures of one search run, built on the shared
/// [`dinefd_sim::metrics`] primitives so the explorer reports through the
/// same observability layer as the simulator. The search reads no clock: a
/// caller that wants its throughput times the call.
#[derive(Clone, Copy, Debug)]
pub struct SearchStats {
    /// Workers used (1 = the calling thread alone; nothing is spawned).
    pub threads: usize,
    /// Visited-store stripes (1 with one worker, [`N_SHARDS`] otherwise).
    pub shards: usize,
    /// Tasks a worker that ran dry took over from a busy one (through the
    /// shared pool; always 0 with one worker).
    pub steals: Counter,
    /// Visited-store `try_lock` misses that had to fall back to a blocking
    /// lock — the contention measure of the sharding.
    pub shard_conflicts: Counter,
    /// Fingerprint hits confirmed equal by exact byte comparison (every
    /// re-visit of a seen state costs exactly one).
    pub fp_confirms: Counter,
    /// Fingerprint hits whose interned bytes differed — true 64-bit
    /// collisions, resolved exactly by further probing (expected ≈ 0 at
    /// explorable state counts).
    pub fp_collisions: Counter,
    /// Successor edges skipped by sleep-set POR (0 unless the model opts
    /// in). Skips save probe work only; they never hide a state or a check.
    pub sleep_skips: Counter,
    /// Bytes of encoded state interned in the visited-store arena(s) — the
    /// resident footprint of the state set itself. Deterministic when the
    /// search is not truncated.
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
    /// exactly once on the state's first expansion. Deterministic and equal
    /// at every thread count and with POR on or off.
    pub transitions: u64,
    /// Violations found (empty = every check held in the explored region),
    /// one line each: the message and the path that leads to it.
    /// Deduplicated by `(kind, message)` and sorted — deterministic up to
    /// the representative paths.
    pub violations: Vec<String>,
    /// The same incidents, structured, with replayable counterexample paths
    /// (replay them through the model's `successors`).
    pub records: Vec<ViolationRecord<L>>,
    /// States with no outgoing transition (there should be none).
    pub deadlocks: usize,
    /// Whether the search hit its state budget before exhausting the
    /// depth-bounded region.
    pub truncated: bool,
    /// Contention and codec counters of this run.
    pub stats: SearchStats,
}

impl<L> SearchReport<L> {
    /// True when every checked property held everywhere explored.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.deadlocks == 0
    }
}

/// A queued unit of work: the state itself (kept decoded so expansion never
/// re-decodes), its store entry reference (for parent links and the
/// expanded flag), and the depth/sleep metadata it was queued with.
struct Task<S> {
    state: S,
    entry: u64,
    remaining: u32,
    sleep: u32,
}

/// A violation captured mid-search: the path is reconstructed from `entry`'s
/// parent chain only once the search has finished.
struct PendingViolation<L> {
    kind: ViolationKind,
    message: String,
    entry: u64,
    extra: Option<L>,
}

/// Per-worker tallies, merged once every worker has returned.
struct Tally<L> {
    transitions: u64,
    deadlocks: usize,
    steals: u64,
    sleep_skips: u64,
    pending: Vec<PendingViolation<L>>,
}

impl<L> Tally<L> {
    fn new() -> Self {
        Tally { transitions: 0, deadlocks: 0, steals: 0, sleep_skips: 0, pending: Vec::new() }
    }
}

/// A worker's reusable buffers: the labels of the state being expanded, the
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
    store: &mut impl StoreAccess<M::Label>,
    buf: &mut Vec<u8>,
    tally: &mut Tally<M::Label>,
) -> Result<Task<M::State>, StoreFull> {
    buf.clear();
    initial.encode_into(buf);
    let Probe { outcome, entry, .. } =
        store.probe(fingerprint(buf), buf, max_depth, 0, NO_PARENT, None)?;
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

/// Expands one task: lists its labels, builds each child in the worker's
/// scratch state, runs the once-per-state checks, probes the child, and
/// hands a clone of each fresh or upgraded child to `push`. This single
/// function defines the expansion semantics — the once-per-state
/// `transitions`/`deadlocks` figures, the once-per-state closure checks, the
/// once-per-insertion invariant checks, and the POR skip rule. Fails only
/// when the store cannot intern a fresh child.
fn expand_task<M: SearchModel>(
    model: &M,
    task: &Task<M::State>,
    store: &mut impl StoreAccess<M::Label>,
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
    for &label in labels.iter() {
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
            store.probe(fingerprint(buf), buf, remaining, sleep, task.entry, Some(label))?;
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

/// What the workers of one search share: the pool through which a busy
/// worker hands tasks to one that ran dry, and the two signals that end the
/// search.
struct Frontier<S> {
    /// Tasks set aside for waiting workers.
    pool: Mutex<Vec<Task<S>>>,
    /// Signalled when `pool` gains tasks and when the search is over.
    wake: Condvar,
    /// Workers waiting on `pool`; all of them ⇒ the frontier is exhausted
    /// everywhere. Written only under the pool's lock, which is what orders
    /// it for the waiters; busy workers read it as a hint, so `Relaxed`.
    waiting: AtomicUsize,
    /// Expand nothing more: the state budget tripped, or a worker is
    /// unwinding (then no report is built — its panic is re-raised).
    halt: AtomicBool,
    workers: usize,
}

impl<S> Frontier<S> {
    fn new(workers: usize) -> Self {
        Frontier {
            pool: Mutex::new(Vec::new()),
            wake: Condvar::new(),
            waiting: AtomicUsize::new(0),
            halt: AtomicBool::new(false),
            workers,
        }
    }

    /// The pool is poisoned only by a worker that died holding it; `halt`
    /// is set by then and whatever the pool holds is dropped unexpanded, so
    /// the guard is recovered rather than unwrapped.
    fn lock_pool(&self) -> MutexGuard<'_, Vec<Task<S>>> {
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hands the older half of `stack` (the widest subtrees) to the waiting
    /// workers, unless the previous hand-off is still lying in the pool.
    fn set_aside(&self, stack: &mut Vec<Task<S>>) {
        let mut pool = self.lock_pool();
        if pool.is_empty() {
            pool.extend(stack.drain(..stack.len().div_ceil(2)));
            drop(pool);
            self.wake.notify_one();
        }
    }

    /// Called by a worker whose stack is empty: blocks until the pool has
    /// tasks, moves them all into `stack` and returns how many — or returns
    /// 0 once every worker is waiting, which ends the search.
    fn refill(&self, stack: &mut Vec<Task<S>>) -> usize {
        let mut pool = self.lock_pool();
        self.waiting.fetch_add(1, Ordering::Relaxed);
        loop {
            if !pool.is_empty() {
                self.waiting.fetch_sub(1, Ordering::Relaxed);
                stack.append(&mut pool);
                return stack.len();
            }
            if self.waiting.load(Ordering::Relaxed) >= self.workers {
                self.wake.notify_all();
                return 0;
            }
            pool = self.wake.wait(pool).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Held by a worker while it runs (and forgotten when it returns): if the
/// worker unwinds instead, the others stop expanding and count it as
/// waiting for good, so the search still ends and the panic surfaces.
struct Unwinding<'a, S>(&'a Frontier<S>);

impl<S> Drop for Unwinding<'_, S> {
    fn drop(&mut self) {
        self.0.halt.store(true, Ordering::SeqCst);
        let _pool = self.0.lock_pool();
        self.0.waiting.fetch_add(1, Ordering::Relaxed);
        self.0.wake.notify_all();
    }
}

/// The worker loop: pop, test the budget, expand, push the children; hand
/// tasks over when someone waits, wait when the stack is empty. `root` is
/// `Some` for exactly one worker, which seeds the store with it.
fn worker<M: SearchModel>(
    model: &M,
    root: Option<M::State>,
    max_depth: u32,
    max_states: usize,
    store: &mut impl StoreAccess<M::Label>,
    frontier: &Frontier<M::State>,
) -> Tally<M::Label> {
    let unwinding = Unwinding(frontier);
    let mut tally: Tally<M::Label> = Tally::new();
    let mut scratch = Scratch { labels: Vec::new(), next: None, buf: Vec::with_capacity(64) };
    let mut stack: Vec<Task<M::State>> = Vec::new();
    if let Some(initial) = root {
        match seed_root(model, initial, max_depth, store, &mut scratch.buf, &mut tally) {
            Ok(task) => stack.push(task),
            Err(StoreFull) => frontier.halt.store(true, Ordering::SeqCst),
        }
    }
    loop {
        let Some(task) = stack.pop() else {
            match frontier.refill(&mut stack) {
                0 => break,
                taken => tally.steals += taken as u64,
            }
            continue;
        };
        // The budget is tested when a state comes up for expansion, so the
        // store may overshoot `max_states` by at most one expansion's
        // successors per worker. Once it trips (or a worker unwinds) queued
        // tasks drain unexpanded, here and in every other worker.
        if frontier.halt.load(Ordering::Relaxed) || store.len() >= max_states {
            frontier.halt.store(true, Ordering::SeqCst);
            stack.clear();
            continue;
        }
        if task.remaining == 0 {
            continue;
        }
        if frontier.waiting.load(Ordering::Relaxed) > 0 && !stack.is_empty() {
            frontier.set_aside(&mut stack);
        }
        let expanded =
            expand_task(model, &task, store, &mut scratch, &mut tally, |t| stack.push(t));
        if expanded.is_err() {
            // The store can intern no more states: stop as the budget does.
            frontier.halt.store(true, Ordering::SeqCst);
        }
    }
    std::mem::forget(unwinding);
    tally
}

/// Depth-bounded exhaustive search from `initial`. `threads <= 1` runs the
/// worker loop on the calling thread over one unlocked store; `threads >= 2`
/// runs that many of it through [`dinefd_sim::pool`] over the striped store.
pub(crate) fn search<M: SearchModel>(
    model: &M,
    initial: M::State,
    max_depth: u32,
    max_states: usize,
    threads: usize,
) -> SearchReport<M::Label> {
    let threads = threads.max(1);
    let frontier: Frontier<M::State> = Frontier::new(threads);
    let (tallies, stores, conflicts) = if threads == 1 {
        let mut store: VisitedStore<M::Label> = VisitedStore::new();
        let tally = worker(model, Some(initial), max_depth, max_states, &mut store, &frontier);
        (vec![tally], vec![store], 0)
    } else {
        let visited: ShardedVisitedStore<M::Label> = ShardedVisitedStore::new();
        let mut root = Some(initial);
        // The shared pool joins every worker and re-raises the first panic.
        let workers: Vec<WorkerFn<'_, Tally<M::Label>>> = (0..threads)
            .map(|_| {
                let (root, mut store, frontier) = (root.take(), &visited, &frontier);
                Box::new(move || worker(model, root, max_depth, max_states, &mut store, frontier))
                    as WorkerFn<'_, Tally<M::Label>>
            })
            .collect();
        let tallies = pool::run_each(workers);
        let conflicts = visited.conflicts();
        (tallies, visited.into_stores(), conflicts)
    };

    let states_visited: usize = stores.iter().map(|s| s.len()).sum();
    let transitions = tallies.iter().map(|t| t.transitions).sum();
    let deadlocks = tallies.iter().map(|t| t.deadlocks).sum();
    let steals: u64 = tallies.iter().map(|t| t.steals).sum();
    let sleep_skips: u64 = tallies.iter().map(|t| t.sleep_skips).sum();
    let records =
        merge_violations(tallies.into_iter().flat_map(|t| t.pending).map(|p| ViolationRecord {
            kind: p.kind,
            message: p.message,
            path: path_through(p.entry, p.extra, |shard| &stores[shard]),
        }));
    SearchReport {
        states_visited,
        transitions,
        violations: records
            .iter()
            .map(|r| format!("{} (after {})", r.message, fmt_path(&r.path, None)))
            .collect(),
        records,
        deadlocks,
        truncated: frontier.halt.load(Ordering::SeqCst),
        stats: SearchStats {
            threads,
            shards: stores.len(),
            steals: Counter::from(steals),
            shard_conflicts: Counter::from(conflicts),
            fp_confirms: Counter::from(stores.iter().map(|s| s.stats().confirms).sum::<u64>()),
            fp_collisions: Counter::from(stores.iter().map(|s| s.stats().collisions).sum::<u64>()),
            sleep_skips: Counter::from(sleep_skips),
            arena_bytes: stores.iter().map(|s| s.arena_bytes() as u64).sum(),
        },
    }
}

/// Dedups by `(kind, message)` keeping one representative path, and sorts —
/// the resulting *set* is schedule-independent.
fn merge_violations<L>(
    records: impl Iterator<Item = ViolationRecord<L>>,
) -> Vec<ViolationRecord<L>> {
    let mut by_key: std::collections::BTreeMap<(ViolationKind, String), ViolationRecord<L>> =
        std::collections::BTreeMap::new();
    for r in records {
        match by_key.entry((r.kind, r.message.clone())) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(r);
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                // Prefer the shortest representative path — nicer
                // counterexamples (the choice among equals stays
                // schedule-dependent; only the (kind, message) set is
                // guaranteed deterministic).
                if r.path.len() < e.get().path.len() {
                    e.insert(r);
                }
            }
        }
    }
    by_key.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

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
    struct Toy {
        edges: fn(u32) -> Vec<u32>,
        poison: Option<u32>,
        expansions: [AtomicUsize; 8],
    }

    impl Toy {
        fn new(edges: fn(u32) -> Vec<u32>) -> Self {
            Toy { edges, poison: None, expansions: Default::default() }
        }
    }

    impl SearchModel for Toy {
        type State = u32;
        type Label = u8;

        fn for_each_label(&self, s: &u32, push: impl FnMut(u8)) {
            if self.poison == Some(*s) {
                panic!("toy model poisoned at {s}");
            }
            if let Some(n) = self.expansions.get(*s as usize) {
                n.fetch_add(1, Ordering::Relaxed);
            }
            (0..(self.edges)(*s).len() as u8).for_each(push);
        }

        fn apply_into(&self, s: &u32, label: u8, next: &mut u32) {
            *next = (self.edges)(*s)[label as usize];
        }

        fn state_violations(&self, _: &u32) -> Vec<String> {
            Vec::new()
        }

        fn step_violations(&self, _: &u32, _: u8, _: &u32) -> Vec<String> {
            Vec::new()
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
    /// successor first, so one worker reaches 4 over the long side first.
    fn diamond(n: u32) -> Vec<u32> {
        match n {
            0 => vec![1, 2],
            1 | 3 => vec![4],
            2 => vec![3],
            4 => vec![5],
            _ => Vec::new(),
        }
    }

    const THREADS: [usize; 3] = [1, 2, 8];

    /// Runs the search on a thread of its own and returns its report, or the
    /// message of the panic it raised; a search that does neither in time
    /// (workers left waiting for one that is gone) fails the test here.
    fn run(
        model: &Arc<Toy>,
        max_depth: u32,
        max_states: usize,
        threads: usize,
    ) -> Result<SearchReport<u8>, String> {
        let (tx, rx) = mpsc::channel();
        let model = Arc::clone(model);
        std::thread::spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                search(&*model, 0, max_depth, max_states, threads)
            }));
            let _ =
                tx.send(outcome.map_err(|payload| {
                    payload.downcast_ref::<String>().cloned().unwrap_or_default()
                }));
        });
        rx.recv_timeout(Duration::from_secs(60)).unwrap_or_else(|_| {
            panic!("threads={threads}: the search neither returned nor panicked")
        })
    }

    #[test]
    fn a_model_panic_comes_back_as_that_panic() {
        // 2^19 states within the bound; the poisoned one is an inner node a
        // few thousand expansions in.
        for threads in THREADS {
            let model = Arc::new(Toy { poison: Some(5000), ..Toy::new(tree) });
            let message = run(&model, 18, usize::MAX, threads).map(|r| r.states_visited);
            assert_eq!(message, Err("toy model poisoned at 5000".to_string()), "threads={threads}");
        }
    }

    #[test]
    fn more_workers_than_tasks_terminate() {
        for threads in THREADS {
            let depth0 = run(&Arc::new(Toy::new(tree)), 0, usize::MAX, threads).unwrap();
            assert_eq!((depth0.states_visited, depth0.transitions), (1, 0), "threads={threads}");
            assert!(depth0.clean() && !depth0.truncated, "threads={threads}");

            let one_state = run(&Arc::new(Toy::new(|_| vec![0])), 50, usize::MAX, threads).unwrap();
            assert_eq!((one_state.states_visited, one_state.transitions), (1, 1));
            assert!(one_state.clean() && !one_state.truncated, "threads={threads}");

            let budget1 = run(&Arc::new(Toy::new(tree)), 50, 1, threads).unwrap();
            assert_eq!((budget1.states_visited, budget1.transitions), (1, 0), "threads={threads}");
            assert!(budget1.truncated, "threads={threads}");
        }
    }

    #[test]
    fn a_store_that_cannot_intern_another_state_truncates_the_search() {
        let model = Toy::new(tree);
        let frontier = Frontier::new(1);
        let mut store = VisitedStore::with_limits(100, u32::MAX);
        worker(&model, Some(0), 50, usize::MAX, &mut store, &frontier);
        assert!(frontier.halt.load(Ordering::SeqCst), "a full store ends the search as truncated");
        assert_eq!(store.len(), 100);
    }

    #[test]
    fn a_state_reached_again_with_more_depth_is_re_expanded_but_counted_once() {
        for threads in THREADS {
            let model = Arc::new(Toy::new(diamond));
            let r = run(&model, 5, usize::MAX, threads).unwrap();
            assert_eq!(r.states_visited, 6, "threads={threads}");
            assert_eq!(r.transitions, 6, "threads={threads}");
            assert_eq!(r.deadlocks, 1, "threads={threads}");
            assert!(r.violations.is_empty() && !r.truncated, "threads={threads}");
            assert_eq!(r.stats.threads, threads);
            assert_eq!(r.stats.shards, if threads == 1 { 1 } else { N_SHARDS });
            let expansions = |s: usize| model.expansions[s].load(Ordering::Relaxed);
            if threads == 1 {
                // Over 2 and 3, states 4 and 5 come up with 2 and 1 steps
                // left; over 1 they come up again with 3 and 2.
                assert_eq!((expansions(4), expansions(5)), (2, 2));
                assert_eq!((r.stats.steals.get(), r.stats.shard_conflicts.get()), (0, 0));
            } else {
                assert!((1..=2).contains(&expansions(4)) && (1..=2).contains(&expansions(5)));
            }
        }
    }
}
