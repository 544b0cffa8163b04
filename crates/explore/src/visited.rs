//! The fingerprinted, arena-backed visited store behind the search engine.
//!
//! The first engines kept `HashMap<State, u32>` — every insertion cloned the
//! full state struct (two machines, fork endpoints, several `Vec`s) to use
//! as a key, and every lookup re-hashed it with SipHash. This store keeps a
//! state as:
//!
//! * its compact encoding ([`crate::codec::StateCodec`]), interned once in a
//!   per-store byte **arena**;
//! * a 64-bit **fingerprint** of that encoding, which drives an
//!   open-addressing (linear-probe) index table.
//!
//! A probe walks the index by fingerprint; on a fingerprint match the
//! interned bytes are compared exactly before the entry is trusted
//! ([`StoreStats::confirms`] counts the comparisons,
//! [`StoreStats::collisions`] the fingerprint matches whose bytes differed).
//! A collision therefore costs one extra probe step — it can never produce a
//! false "seen" verdict, so the search remains exhaustive rather than a
//! bitstate approximation.
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
//! Entries are append-only and identified by dense indices, so a parent
//! reference is stable across table growth. Two or more workers share
//! [`N_SHARDS`] of these stores, selecting a shard by the *top* fingerprint
//! bits (the index table uses the low bits — independent, so shard striping
//! does not correlate with probe clustering).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};

use crate::parallel::N_SHARDS;

/// Sentinel parent reference of the root state.
pub(crate) const NO_PARENT: u64 = u64::MAX;

/// Empty index-table slot.
const EMPTY: u32 = u32::MAX;

/// Codec observability counters of one store (summed across shards;
/// exported through `SearchStats`).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct StoreStats {
    /// Fingerprint hits confirmed equal by exact byte comparison.
    pub confirms: u64,
    /// Fingerprint hits whose interned bytes differed (true collisions).
    pub collisions: u64,
}

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
    /// Interns on miss; upgrades `remaining` (max) and `sleep`
    /// (intersection) on hit.
    fn probe(
        &mut self,
        fp: u64,
        bytes: &[u8],
        remaining: u32,
        sleep: u32,
        parent: u64,
        label: Option<L>,
    ) -> Probe;

    /// Marks `entry` expanded; true iff this is the first expansion.
    fn mark_expanded(&mut self, entry: u64) -> bool;
}

/// One open-addressing visited store (one worker uses one; several share
/// [`N_SHARDS`] of them, striped).
pub(crate) struct VisitedStore<L> {
    /// Linear-probe index: slot → entry index (or [`EMPTY`]).
    index: Vec<u32>,
    entries: Vec<Entry<L>>,
    arena: Vec<u8>,
    stats: StoreStats,
}

impl<L: Copy> VisitedStore<L> {
    pub fn new() -> Self {
        VisitedStore {
            index: vec![EMPTY; 1024],
            entries: Vec::new(),
            arena: Vec::new(),
            stats: StoreStats::default(),
        }
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

    fn grow(&mut self) {
        let new_len = self.index.len() * 2;
        let mask = new_len - 1;
        let mut index = vec![EMPTY; new_len];
        for (id, e) in self.entries.iter().enumerate() {
            let mut slot = (e.fp as usize) & mask;
            while index[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            index[slot] = id as u32;
        }
        self.index = index;
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
    ) -> Probe {
        if (self.entries.len() + 1) * 2 > self.index.len() {
            self.grow();
        }
        let mask = self.index.len() - 1;
        let mut slot = (fp as usize) & mask;
        loop {
            match self.index[slot] {
                EMPTY => {
                    let index = self.entries.len() as u32;
                    let off = self.arena.len() as u32;
                    self.arena.extend_from_slice(bytes);
                    self.entries.push(Entry {
                        fp,
                        off,
                        len: bytes.len() as u32,
                        remaining,
                        sleep,
                        parent,
                        label,
                        expanded: false,
                    });
                    self.index[slot] = index;
                    let entry = entry_ref(0, index);
                    return Probe { outcome: ProbeOutcome::Fresh, entry, remaining, sleep };
                }
                id => {
                    let e = &mut self.entries[id as usize];
                    if e.fp == fp {
                        let interned = &self.arena[e.off as usize..(e.off + e.len) as usize];
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
                            return Probe {
                                outcome,
                                entry: entry_ref(0, id),
                                remaining: up_remaining,
                                sleep: up_sleep,
                            };
                        }
                        self.stats.collisions += 1;
                    }
                    slot = (slot + 1) & mask;
                }
            }
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

/// The stripe a fingerprint lives in: its top bits.
fn shard_of(fp: u64) -> usize {
    (fp >> 56) as usize & (N_SHARDS - 1)
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
/// stores, selected by the top fingerprint bits. `try_lock` misses are
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
    ) -> Probe {
        let shard = shard_of(fp);
        let p = self.lock_counting(shard).probe(fp, bytes, remaining, sleep, parent, label);
        if p.outcome == ProbeOutcome::Fresh {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
        Probe { entry: entry_ref(shard, split_ref(p.entry).1), ..p }
    }

    fn mark_expanded(&mut self, entry: u64) -> bool {
        self.lock_counting(split_ref(entry).0).mark_expanded(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinefd_sim::codec::hash64;

    #[test]
    fn fresh_then_pruned_then_requeued_on_deeper_arrival() {
        let mut store: VisitedStore<u8> = VisitedStore::new();
        let bytes = b"state-a";
        let fp = hash64(bytes);
        let p = store.probe(fp, bytes, 5, 0, NO_PARENT, None);
        assert_eq!(p.outcome, ProbeOutcome::Fresh);
        assert_eq!(store.len(), 1);
        // Same depth or shallower: pruned; store remembers the max.
        assert_eq!(store.probe(fp, bytes, 5, 0, NO_PARENT, None).outcome, ProbeOutcome::Pruned);
        assert_eq!(store.probe(fp, bytes, 3, 0, NO_PARENT, None).outcome, ProbeOutcome::Pruned);
        // Deeper: requeue with the upgraded budget.
        let p = store.probe(fp, bytes, 9, 0, NO_PARENT, None);
        assert_eq!(p.outcome, ProbeOutcome::Requeue);
        assert_eq!(p.remaining, 9);
        assert_eq!(store.len(), 1, "no duplicate interning");
        assert!(store.stats().confirms >= 3);
    }

    #[test]
    fn sleep_masks_converge_by_intersection() {
        let mut store: VisitedStore<u8> = VisitedStore::new();
        let bytes = b"state-b";
        let fp = hash64(bytes);
        store.probe(fp, bytes, 4, 0b1100, NO_PARENT, None);
        // Same depth, overlapping mask: shrinks to the intersection.
        let p = store.probe(fp, bytes, 4, 0b0110, NO_PARENT, None);
        assert_eq!(p.outcome, ProbeOutcome::Requeue);
        assert_eq!(p.sleep, 0b0100);
        // Arriving with a superset mask adds nothing.
        let p = store.probe(fp, bytes, 4, 0b1110, NO_PARENT, None);
        assert_eq!(p.outcome, ProbeOutcome::Pruned);
        assert_eq!(p.sleep, 0b0100);
    }

    #[test]
    fn fingerprint_collisions_are_resolved_exactly() {
        let mut store: VisitedStore<u8> = VisitedStore::new();
        // Force a collision by probing two different byte strings under the
        // same fingerprint (the store trusts the caller's fp).
        let fp = 0x42;
        assert_eq!(store.probe(fp, b"first", 3, 0, NO_PARENT, None).outcome, ProbeOutcome::Fresh);
        assert_eq!(store.probe(fp, b"second", 3, 0, NO_PARENT, None).outcome, ProbeOutcome::Fresh);
        assert_eq!(store.len(), 2, "colliding states must both be interned");
        assert_eq!(store.stats().collisions, 1);
        // Each still resolves to its own entry.
        assert_eq!(store.probe(fp, b"first", 3, 0, NO_PARENT, None).outcome, ProbeOutcome::Pruned);
        assert_eq!(store.probe(fp, b"second", 2, 0, NO_PARENT, None).outcome, ProbeOutcome::Pruned);
    }

    #[test]
    fn growth_preserves_every_entry() {
        let mut store: VisitedStore<u8> = VisitedStore::new();
        let n = 5_000u64; // forces several grow() rehashes past the 1024 seed
        for i in 0..n {
            let bytes = i.to_le_bytes();
            let p = store.probe(hash64(&bytes), &bytes, 1, 0, NO_PARENT, None);
            assert_eq!(p.outcome, ProbeOutcome::Fresh);
        }
        assert_eq!(store.len(), n as usize);
        assert_eq!(store.arena_bytes(), n as usize * 8, "one 8-byte encoding per entry");
        for i in 0..n {
            let bytes = i.to_le_bytes();
            let p = store.probe(hash64(&bytes), &bytes, 1, 0, NO_PARENT, None);
            assert_eq!(p.outcome, ProbeOutcome::Pruned, "entry {i} lost in growth");
        }
    }

    #[test]
    fn parent_links_reconstruct_paths() {
        let mut store: VisitedStore<char> = VisitedStore::new();
        let root = store.probe(hash64(b"r"), b"r", 9, 0, NO_PARENT, None);
        let a = store.probe(hash64(b"a"), b"a", 8, 0, root.entry, Some('a'));
        let b = store.probe(hash64(b"b"), b"b", 7, 0, a.entry, Some('b'));
        let path = path_through(b.entry, Some('c'), |_| &store);
        assert_eq!(path, vec!['a', 'b', 'c']);
        let root_path = path_through(root.entry, None, |_| &store);
        assert!(root_path.is_empty());
    }

    #[test]
    fn sharded_store_routes_and_counts() {
        let sharded: ShardedVisitedStore<u8> = ShardedVisitedStore::new();
        let mut store = &sharded;
        for i in 0..500u64 {
            let bytes = i.to_le_bytes();
            let p = store.probe(hash64(&bytes), &bytes, 2, 0, NO_PARENT, None);
            assert_eq!(p.outcome, ProbeOutcome::Fresh);
        }
        assert_eq!(store.len(), 500);
        let p =
            store.probe(hash64(&0u64.to_le_bytes()), &0u64.to_le_bytes(), 2, 0, NO_PARENT, None);
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
