//! The fingerprinted, arena-backed visited store behind the search engine.
//!
//! The first engines kept `HashMap<State, u32>` — every insertion cloned the
//! full state struct (two machines, fork endpoints, several `Vec`s) to use
//! as a key, and every lookup re-hashed it with SipHash. This store keeps a
//! state as:
//!
//! * its compact encoding ([`crate::codec::StateCodec`]), interned once in a
//!   per-store byte **arena**;
//! * a 64-bit **fingerprint** of that encoding, kept whole in the state's
//!   entry and, as a 32-bit tag, in an open-addressing (linear-probe) index.
//!
//! ## The index
//!
//! An index slot is one `u64`: a **tag** — the fingerprint's top 32 bits —
//! above a 32-bit entry id. A table of `2^b` slots homes a fingerprint at
//! its top `b` bits, which are the top of its own tag, and probes linearly
//! from there. A slot whose tag differs is passed over without reading the
//! entries or the arena, so a probe for a fresh state usually ends in the
//! index's own cache line (an id-only index costs three dependent misses —
//! index, entry, arena — for every occupied slot it passes). A tag match is
//! confirmed by the entry's full fingerprint, and a fingerprint match by
//! exact byte comparison against the interned encoding
//! ([`StoreStats::confirms`] counts the comparisons that matched,
//! [`StoreStats::collisions`] the 64-bit fingerprint matches whose bytes
//! differed). A collision therefore costs one extra probe step — it can
//! never produce a false "seen" verdict, so the search remains exhaustive
//! rather than a bitstate approximation.
//!
//! The table doubles before an insertion would take it past 3/4 load.
//! Because a slot's home is read off its own tag, growth re-places the old
//! slots from the old index alone, without reading an entry.
//!
//! ## Entries
//!
//! Each entry also carries the search metadata the engine needs:
//!
//! * `remaining` — the largest remaining depth the state was queued with
//!   (the classic pruning rule: re-entering with less budget is redundant);
//! * `sleep` — the partial-order-reduction sleep mask ([`crate::por`]);
//!   entries converge by *intersection*, mirroring how `remaining` converges
//!   by maximum, so the POR fixpoint is schedule-independent too;
//! * `parent` + `label` — the tree edge that first inserted the state.
//!   Violation paths are reconstructed by walking parent links, which frees
//!   the hot loop from cloning a path `Vec` into every queued task;
//! * `expanded` — whether some expansion already counted this state's
//!   out-degree/deadlock contribution (the once-per-state figures).
//!
//! Entries are append-only and identified by dense `u32` ids, so a parent
//! reference is stable across table growth. A fresh state whose id or arena
//! span would not fit in `u32` is not interned: the probe answers
//! [`StoreFull`] and the search ends as truncated, as it does at its state
//! budget. Two or more workers share [`N_SHARDS`] of these stores, selecting
//! a stripe by the *low* fingerprint bits, which neither a tag nor a home
//! slot reads, so striping does not correlate with probe clustering.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};

use crate::parallel::N_SHARDS;

/// Sentinel parent reference of the root state.
pub(crate) const NO_PARENT: u64 = u64::MAX;

/// Empty index slot. No filled slot equals it: entry ids stay below
/// `u32::MAX`.
const EMPTY: u64 = u64::MAX;

/// The index stops growing at `2^32` slots, the most a 32-bit tag can home.
const MAX_INDEX_BITS: u32 = 32;

/// The fingerprint bits an index slot keeps: the top 32. Applied to a slot,
/// it reads the slot's tag back.
fn tag_of(fp: u64) -> u32 {
    (fp >> 32) as u32
}

/// Home slot of `tag` in an index of `2^bits` slots: the tag's top `bits`.
fn home(tag: u32, bits: u32) -> usize {
    (u64::from(tag) >> (32 - bits)) as usize
}

/// Codec observability counters of one store (summed across shards;
/// exported through `SearchStats`).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct StoreStats {
    /// Fingerprint hits confirmed equal by exact byte comparison.
    pub confirms: u64,
    /// Fingerprint hits whose interned bytes differed (true collisions).
    pub collisions: u64,
}

/// A fresh state the store could not intern: its entry id or its arena span
/// would not fit in `u32`. The search stops there, as truncated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct StoreFull;

struct Entry<L> {
    fp: u64,
    off: u32,
    len: u32,
    remaining: u32,
    sleep: u32,
    parent: u64,
    label: Option<L>,
    expanded: bool,
}

/// What a [`VisitedStore::probe`] concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ProbeOutcome {
    /// Never seen: interned, must be checked and queued.
    Fresh,
    /// Seen, but this arrival carries more depth or a smaller sleep mask:
    /// the stored entry was upgraded and the state must be re-queued.
    Requeue,
    /// Seen with at least this much depth and no sleep shrink: redundant.
    Pruned,
}

/// Result of one probe: the verdict plus the entry's post-update metadata
/// (the values a re-queued task should run with).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Probe {
    pub outcome: ProbeOutcome,
    /// The entry, as an [`entry_ref`].
    pub entry: u64,
    pub remaining: u32,
    pub sleep: u32,
}

/// What the search loop asks of its visited store: the single
/// [`VisitedStore`] (one worker; its entry references are shard 0) or the
/// striped [`ShardedVisitedStore`] (several).
pub(crate) trait StoreAccess<L: Copy> {
    /// Distinct states interned so far (what `max_states` bounds).
    fn len(&self) -> usize;

    /// Looks up `bytes` (pre-fingerprinted as `fp`), arriving with
    /// `remaining` depth and POR mask `sleep` via `parent --label-->`.
    /// Interns on miss, or answers [`StoreFull`] when it cannot; upgrades
    /// `remaining` (max) and `sleep` (intersection) on hit.
    fn probe(
        &mut self,
        fp: u64,
        bytes: &[u8],
        remaining: u32,
        sleep: u32,
        parent: u64,
        label: Option<L>,
    ) -> Result<Probe, StoreFull>;

    /// Marks `entry` expanded; true iff this is the first expansion.
    fn mark_expanded(&mut self, entry: u64) -> bool;
}

/// One open-addressing visited store (one worker uses one; several share
/// [`N_SHARDS`] of them, striped).
pub(crate) struct VisitedStore<L> {
    /// Linear-probe index of `2^b` slots: `tag << 32 | entry id`, or
    /// [`EMPTY`].
    index: Vec<u64>,
    entries: Vec<Entry<L>>,
    arena: Vec<u8>,
    /// Entry ids stay below this: `u32::MAX`, which keeps every filled slot
    /// distinct from [`EMPTY`].
    max_entries: u32,
    /// Arena bytes the `u32` offsets address.
    max_arena: u32,
    stats: StoreStats,
}

impl<L: Copy> VisitedStore<L> {
    pub fn new() -> Self {
        VisitedStore {
            index: vec![EMPTY; 1024],
            entries: Vec::new(),
            arena: Vec::new(),
            max_entries: u32::MAX,
            max_arena: u32::MAX,
            stats: StoreStats::default(),
        }
    }

    /// A store that interns at most `max_entries` states and `max_arena`
    /// bytes, so that a test can fill it.
    #[cfg(test)]
    pub(crate) fn with_limits(max_entries: u32, max_arena: u32) -> Self {
        VisitedStore { max_entries, max_arena, ..Self::new() }
    }

    /// Bytes interned in the arena (a memory figure, not a state count).
    pub fn arena_bytes(&self) -> usize {
        self.arena.len()
    }

    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The tree edge that first interned entry `index`.
    pub fn parent_of(&self, index: u32) -> (u64, Option<L>) {
        let e = &self.entries[index as usize];
        (e.parent, e.label)
    }

    /// log2 of the index length.
    fn bits(&self) -> u32 {
        self.index.len().trailing_zeros()
    }

    /// Doubles the index, re-placing each slot at its tag's new home.
    fn grow(&mut self) {
        let new_len = self.index.len() * 2;
        let (bits, mask) = (new_len.trailing_zeros(), new_len - 1);
        let mut index = vec![EMPTY; new_len];
        for &slot in self.index.iter().filter(|&&slot| slot != EMPTY) {
            let mut pos = home(tag_of(slot), bits);
            while index[pos] != EMPTY {
                pos = (pos + 1) & mask;
            }
            index[pos] = slot;
        }
        self.index = index;
    }

    /// Appends an entry for `bytes` and returns its id, or `None` when the
    /// id or the arena span would not fit.
    fn intern(
        &mut self,
        fp: u64,
        bytes: &[u8],
        remaining: u32,
        sleep: u32,
        parent: u64,
        label: Option<L>,
    ) -> Option<u32> {
        let id = u32::try_from(self.entries.len()).ok().filter(|&id| id < self.max_entries)?;
        let off = u32::try_from(self.arena.len()).ok()?;
        let len = u32::try_from(bytes.len()).ok()?;
        off.checked_add(len).filter(|&end| end <= self.max_arena)?;
        self.arena.extend_from_slice(bytes);
        self.entries.push(Entry { fp, off, len, remaining, sleep, parent, label, expanded: false });
        Some(id)
    }
}

impl<L: Copy> StoreAccess<L> for VisitedStore<L> {
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn probe(
        &mut self,
        fp: u64,
        bytes: &[u8],
        remaining: u32,
        sleep: u32,
        parent: u64,
        label: Option<L>,
    ) -> Result<Probe, StoreFull> {
        if (self.entries.len() + 1) * 4 > self.index.len() * 3 && self.bits() < MAX_INDEX_BITS {
            self.grow();
        }
        let (tag, mask) = (tag_of(fp), self.index.len() - 1);
        let mut pos = home(tag, self.bits());
        loop {
            let slot = self.index[pos];
            if slot == EMPTY {
                let id =
                    self.intern(fp, bytes, remaining, sleep, parent, label).ok_or(StoreFull)?;
                self.index[pos] = (u64::from(tag) << 32) | u64::from(id);
                let entry = entry_ref(0, id);
                return Ok(Probe { outcome: ProbeOutcome::Fresh, entry, remaining, sleep });
            }
            if tag_of(slot) == tag {
                let id = slot as u32;
                let e = &mut self.entries[id as usize];
                if e.fp == fp {
                    let interned = &self.arena[e.off as usize..][..e.len as usize];
                    if interned == bytes {
                        self.stats.confirms += 1;
                        let up_remaining = e.remaining.max(remaining);
                        let up_sleep = e.sleep & sleep;
                        let outcome = if up_remaining == e.remaining && up_sleep == e.sleep {
                            ProbeOutcome::Pruned
                        } else {
                            e.remaining = up_remaining;
                            e.sleep = up_sleep;
                            ProbeOutcome::Requeue
                        };
                        return Ok(Probe {
                            outcome,
                            entry: entry_ref(0, id),
                            remaining: up_remaining,
                            sleep: up_sleep,
                        });
                    }
                    self.stats.collisions += 1;
                }
            }
            pos = (pos + 1) & mask;
        }
    }

    fn mark_expanded(&mut self, entry: u64) -> bool {
        let index = split_ref(entry).1 as usize;
        !std::mem::replace(&mut self.entries[index].expanded, true)
    }
}

/// Packs a (shard, entry-index) pair into the engine's 64-bit entry
/// reference. The single store is always shard 0.
pub(crate) fn entry_ref(shard: usize, index: u32) -> u64 {
    debug_assert!(shard < N_SHARDS);
    ((shard as u64) << 32) | u64::from(index)
}

fn split_ref(r: u64) -> (usize, u32) {
    ((r >> 32) as usize, r as u32)
}

/// The stripe a fingerprint lives in: its low bits, which neither an index
/// tag nor a home slot reads.
fn shard_of(fp: u64) -> usize {
    fp as usize & (N_SHARDS - 1)
}

/// Reconstructs the label path from the root to entry `r` by walking parent
/// links through `store_of(shard)`; `extra` appends a final (step) label.
pub(crate) fn path_through<'a, L: Copy + 'a>(
    mut r: u64,
    extra: Option<L>,
    store_of: impl Fn(usize) -> &'a VisitedStore<L>,
) -> Vec<L> {
    let mut path: Vec<L> = Vec::new();
    while r != NO_PARENT {
        let (shard, index) = split_ref(r);
        let (parent, label) = store_of(shard).parent_of(index);
        if let Some(l) = label {
            path.push(l);
        }
        r = parent;
    }
    path.reverse();
    path.extend(extra);
    path
}

/// The lock-striped wrapper several workers share: [`N_SHARDS`] independent
/// stores, selected by the low fingerprint bits. `try_lock` misses are
/// counted as shard conflicts.
pub(crate) struct ShardedVisitedStore<L> {
    shards: Vec<Mutex<VisitedStore<L>>>,
    /// Distinct states interned across all shards (a statistic the budget
    /// test reads without taking 64 locks; it publishes nothing).
    len: AtomicUsize,
    conflicts: AtomicU64,
}

impl<L: Copy> ShardedVisitedStore<L> {
    pub fn new() -> Self {
        ShardedVisitedStore {
            shards: (0..N_SHARDS).map(|_| Mutex::new(VisitedStore::new())).collect(),
            len: AtomicUsize::new(0),
            conflicts: AtomicU64::new(0),
        }
    }

    /// A shard is poisoned only by a worker that panicked inside it. That
    /// search builds no report (the panic is re-raised once the others have
    /// drained), so the guard is recovered for them rather than unwrapped.
    fn lock_counting(&self, shard: usize) -> MutexGuard<'_, VisitedStore<L>> {
        let m = &self.shards[shard];
        match m.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.conflicts.fetch_add(1, Ordering::Relaxed);
                m.lock().unwrap_or_else(PoisonError::into_inner)
            }
        }
    }

    pub fn conflicts(&self) -> u64 {
        self.conflicts.load(Ordering::Relaxed)
    }

    /// The shards, in entry-reference order, once the workers are done with
    /// the locks: what [`path_through`] and the final figures read.
    pub fn into_stores(self) -> Vec<VisitedStore<L>> {
        self.shards
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect()
    }
}

impl<L: Copy> StoreAccess<L> for &ShardedVisitedStore<L> {
    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    fn probe(
        &mut self,
        fp: u64,
        bytes: &[u8],
        remaining: u32,
        sleep: u32,
        parent: u64,
        label: Option<L>,
    ) -> Result<Probe, StoreFull> {
        let shard = shard_of(fp);
        let p = self.lock_counting(shard).probe(fp, bytes, remaining, sleep, parent, label)?;
        if p.outcome == ProbeOutcome::Fresh {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Probe { entry: entry_ref(shard, split_ref(p.entry).1), ..p })
    }

    fn mark_expanded(&mut self, entry: u64) -> bool {
        self.lock_counting(split_ref(entry).0).mark_expanded(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinefd_sim::codec::hash64;

    /// Probes `bytes` under its own fingerprint, from the root.
    fn probe(store: &mut impl StoreAccess<u8>, bytes: &[u8], remaining: u32, sleep: u32) -> Probe {
        store.probe(hash64(bytes), bytes, remaining, sleep, NO_PARENT, None).unwrap()
    }

    /// Mean probe length of a lookup that finds its entry: each filled
    /// slot's distance from its home, plus one, averaged.
    fn mean_probe_len<L>(store: &VisitedStore<L>) -> f64 {
        let (len, bits) = (store.index.len(), store.index.len().trailing_zeros());
        let lengths: Vec<usize> = (0..len)
            .filter(|&pos| store.index[pos] != EMPTY)
            .map(|pos| (pos + len - home(tag_of(store.index[pos]), bits)) % len + 1)
            .collect();
        lengths.iter().sum::<usize>() as f64 / lengths.len() as f64
    }

    #[test]
    fn fresh_then_pruned_then_requeued_on_deeper_arrival() {
        let mut store: VisitedStore<u8> = VisitedStore::new();
        let bytes = b"state-a";
        let p = probe(&mut store, bytes, 5, 0);
        assert_eq!(p.outcome, ProbeOutcome::Fresh);
        assert_eq!(store.len(), 1);
        // Same depth or shallower: pruned; store remembers the max.
        assert_eq!(probe(&mut store, bytes, 5, 0).outcome, ProbeOutcome::Pruned);
        assert_eq!(probe(&mut store, bytes, 3, 0).outcome, ProbeOutcome::Pruned);
        // Deeper: requeue with the upgraded budget.
        let p = probe(&mut store, bytes, 9, 0);
        assert_eq!(p.outcome, ProbeOutcome::Requeue);
        assert_eq!(p.remaining, 9);
        assert_eq!(store.len(), 1, "no duplicate interning");
        assert!(store.stats().confirms >= 3);
    }

    #[test]
    fn sleep_masks_converge_by_intersection() {
        let mut store: VisitedStore<u8> = VisitedStore::new();
        let bytes = b"state-b";
        probe(&mut store, bytes, 4, 0b1100);
        // Same depth, overlapping mask: shrinks to the intersection.
        let p = probe(&mut store, bytes, 4, 0b0110);
        assert_eq!(p.outcome, ProbeOutcome::Requeue);
        assert_eq!(p.sleep, 0b0100);
        // Arriving with a superset mask adds nothing.
        let p = probe(&mut store, bytes, 4, 0b1110);
        assert_eq!(p.outcome, ProbeOutcome::Pruned);
        assert_eq!(p.sleep, 0b0100);
    }

    #[test]
    fn fingerprint_collisions_are_resolved_exactly() {
        let mut store: VisitedStore<u8> = VisitedStore::new();
        // Force a collision by probing two different byte strings under the
        // same fingerprint (the store trusts the caller's fp).
        let fp = 0x42;
        let mut at = |bytes: &[u8], remaining| {
            store.probe(fp, bytes, remaining, 0, NO_PARENT, None).unwrap().outcome
        };
        assert_eq!(at(b"first", 3), ProbeOutcome::Fresh);
        assert_eq!(at(b"second", 3), ProbeOutcome::Fresh);
        // Each still resolves to its own entry.
        assert_eq!(at(b"first", 3), ProbeOutcome::Pruned);
        assert_eq!(at(b"second", 2), ProbeOutcome::Pruned);
        assert_eq!(store.len(), 2, "colliding states must both be interned");
        // "second" passed "first" on its way in and on its way back.
        assert_eq!(store.stats().collisions, 2);
    }

    #[test]
    fn a_shared_tag_with_another_fingerprint_is_no_collision() {
        let mut store: VisitedStore<u8> = VisitedStore::new();
        // Equal top halves: one tag, one home slot, two fingerprints.
        let (a, b) = (0xABCD_1234_0000_0001, 0xABCD_1234_0000_0002);
        for fp in [a, b, a, b] {
            store.probe(fp, &fp.to_le_bytes(), 1, 0, NO_PARENT, None).unwrap();
        }
        assert_eq!(store.len(), 2);
        let stats = store.stats();
        assert_eq!((stats.confirms, stats.collisions), (2, 0), "a tag match alone is no collision");
    }

    #[test]
    fn growth_preserves_every_entry() {
        let mut store: VisitedStore<u8> = VisitedStore::new();
        let n = 5_000u64; // forces several grow() rehashes past the 1024 seed
        for i in 0..n {
            assert_eq!(probe(&mut store, &i.to_le_bytes(), 1, 0).outcome, ProbeOutcome::Fresh);
        }
        assert_eq!(store.len(), n as usize);
        assert_eq!(store.arena_bytes(), n as usize * 8, "one 8-byte encoding per entry");
        assert_eq!(store.index.len(), 8192, "5,000 entries fit 8,192 slots at 3/4 load");
        for i in 0..n {
            let p = probe(&mut store, &i.to_le_bytes(), 1, 0);
            assert_eq!(p.outcome, ProbeOutcome::Pruned, "entry {i} lost in growth");
        }
    }

    #[test]
    fn a_full_store_refuses_a_fresh_state_instead_of_wrapping() {
        let fresh = |store: &mut VisitedStore<u8>, i: u64| {
            let bytes = i.to_le_bytes();
            store.probe(hash64(&bytes), &bytes, 1, 0, NO_PARENT, None).map(|p| p.outcome)
        };
        // Out of entry ids: three states fit, the fourth does not.
        let mut store = VisitedStore::with_limits(3, u32::MAX);
        for i in 0..3 {
            assert_eq!(fresh(&mut store, i), Ok(ProbeOutcome::Fresh));
        }
        assert_eq!(fresh(&mut store, 3), Err(StoreFull));
        assert_eq!(store.len(), 3, "nothing interned for the refused state");
        // A seen state still resolves.
        assert_eq!(fresh(&mut store, 0), Ok(ProbeOutcome::Pruned));
        // Out of arena: two 8-byte states fit in 20 bytes, a third does not.
        let mut store = VisitedStore::with_limits(u32::MAX, 20);
        assert!(fresh(&mut store, 0).is_ok() && fresh(&mut store, 1).is_ok());
        assert_eq!(fresh(&mut store, 2), Err(StoreFull));
        assert_eq!((store.len(), store.arena_bytes()), (2, 16));
    }

    #[test]
    fn parent_links_reconstruct_paths() {
        let mut store: VisitedStore<char> = VisitedStore::new();
        let mut at = |bytes: &[u8], parent, label| {
            store.probe(hash64(bytes), bytes, 9, 0, parent, label).unwrap().entry
        };
        let root = at(b"r", NO_PARENT, None);
        let a = at(b"a", root, Some('a'));
        let b = at(b"b", a, Some('b'));
        let path = path_through(b, Some('c'), |_| &store);
        assert_eq!(path, vec!['a', 'b', 'c']);
        let root_path = path_through(root, None, |_| &store);
        assert!(root_path.is_empty());
    }

    #[test]
    fn stripes_probe_as_short_as_one_store() {
        // A stripe selector that shared bits with the home slot would crowd
        // each stripe's states into a sliver of its table.
        let n = 100_000u64;
        let mut single: VisitedStore<u8> = VisitedStore::new();
        let sharded: ShardedVisitedStore<u8> = ShardedVisitedStore::new();
        let mut striped = &sharded;
        for i in 0..n {
            probe(&mut single, &i.to_le_bytes(), 1, 0);
            probe(&mut striped, &i.to_le_bytes(), 1, 0);
        }
        let one = mean_probe_len(&single);
        for (k, stripe) in sharded.into_stores().iter().enumerate() {
            let mean = mean_probe_len(stripe);
            assert!(mean <= 2.0 * one, "stripe {k}: mean probe {mean:.2} vs one store's {one:.2}");
        }
    }

    #[test]
    fn sharded_store_routes_and_counts() {
        let sharded: ShardedVisitedStore<u8> = ShardedVisitedStore::new();
        let mut store = &sharded;
        for i in 0..500u64 {
            assert_eq!(probe(&mut store, &i.to_le_bytes(), 2, 0).outcome, ProbeOutcome::Fresh);
        }
        assert_eq!(store.len(), 500);
        let p = probe(&mut store, &0u64.to_le_bytes(), 2, 0);
        assert_eq!(p.outcome, ProbeOutcome::Pruned);
        assert!(store.mark_expanded(p.entry));
        assert!(!store.mark_expanded(p.entry), "second expansion is not first");
        assert_eq!(store.len(), 500, "a pruned probe interns nothing");
        let stores = sharded.into_stores();
        assert_eq!(stores.len(), N_SHARDS);
        assert_eq!(stores.iter().map(|s| s.len()).sum::<usize>(), 500);
        assert!(stores.iter().map(|s| s.stats().confirms).sum::<u64>() >= 1);
    }
}
