//! The fingerprinted, arena-backed visited store behind the search engine.
//!
//! The first engines kept `HashMap<State, u32>` — every insertion cloned the
//! full state struct (two machines, fork endpoints, several `Vec`s) to use
//! as a key, and every lookup re-hashed it with SipHash. This store keeps a
//! state as:
//!
//! * its compact encoding ([`crate::codec::StateCodec`]), interned once in a
//!   per-store byte **arena**;
//! * a 32-bit **tag** — the top half of the encoding's 64-bit fingerprint —
//!   in an open-addressing (linear-probe) index. The entry keeps no
//!   fingerprint: the tag picks candidates, and the bytes decide.
//!
//! ## The index
//!
//! An index slot is one `u64`: the tag above a 32-bit entry id. A table of
//! `2^b` slots homes a fingerprint at its top `b` bits, which are the top of
//! its own tag, and probes linearly from there. A slot whose tag differs is
//! passed over without reading the entries or the arena, so a probe for a
//! fresh state usually ends in the index's own cache line (an id-only index
//! costs three dependent misses — index, entry, arena — for every occupied
//! slot it passes). A tag match is settled by exact byte comparison against
//! the interned encoding ([`StoreStats::confirms`] counts the comparisons
//! that matched). When the bytes differ, the store fingerprints the interned
//! ones again to tell a true 64-bit collision ([`StoreStats::collisions`])
//! from a mere tag match; that costs a hash only on the rare tag-only
//! match. Either way it costs one extra probe step and can never produce a
//! false "seen" verdict, so the search remains exhaustive rather than a
//! bitstate approximation.
//!
//! The table doubles before an insertion would take it past 3/4 load.
//! Because a slot's home is read off its own tag, growth re-places the old
//! slots from the old index alone, without reading an entry.
//!
//! ## Entries
//!
//! An entry is 24 bytes: where its encoding lies in the arena, plus the
//! search metadata the engine needs:
//!
//! * `remaining` — the largest remaining depth the state was queued with
//!   (the classic pruning rule: re-entering with less budget is redundant);
//! * `sleep` — the partial-order-reduction sleep mask ([`crate::por`]);
//!   entries converge by *intersection*, mirroring how `remaining` converges
//!   by maximum, so the POR fixpoint is order-independent too;
//! * `parent` + `ordinal` — the tree edge that first inserted the state: the
//!   parent's id, and the position of the edge's label among the labels the
//!   model lists for the parent. The engine rebuilds a violation's path once,
//!   at the end, by replaying the ordinals forward from the root, which
//!   frees the hot loop from cloning a path `Vec` into every queued task and
//!   the entry from holding a label;
//! * `expanded` — whether some expansion already counted this state's
//!   out-degree/deadlock contribution (the once-per-state figures).
//!
//! Entries are append-only and identified by dense `u32` ids, so a parent
//! reference is stable across table growth. Ids stay below `u32::MAX`,
//! which is therefore free to mark the root's missing parent
//! ([`NO_PARENT`]).
//!
//! ## Pages
//!
//! The entries and the arena grow by whole pages ([`ENTRY_PAGE`] entries,
//! [`ARENA_PAGE`] bytes), each allocated once at full capacity and never
//! moved, so growth copies nothing and never holds an old and a new buffer
//! at once. An encoding never straddles two arena pages. A fresh state whose
//! id, arena span or length (`u16`) does not fit is not interned: the probe
//! answers [`StoreFull`] and the search ends as truncated, as it does at its
//! state budget.

use crate::codec::fingerprint;

/// Sentinel parent id of the root state. No entry has it: ids stay below
/// `u32::MAX`.
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// Empty index slot. No filled slot equals it: entry ids stay below
/// `u32::MAX`.
const EMPTY: u64 = u64::MAX;

/// The index stops growing at `2^32` slots, the most a 32-bit tag can home.
const MAX_INDEX_BITS: u32 = 32;

/// log2 of [`ENTRY_PAGE`].
const ENTRY_PAGE_BITS: u32 = 16;

/// Entries per entry page (64 Ki, 1.5 MiB).
const ENTRY_PAGE: usize = 1 << ENTRY_PAGE_BITS;

/// Bytes per arena page (1 MiB).
const ARENA_PAGE: usize = 1 << 20;

/// The fingerprint bits an index slot keeps: the top 32. Applied to a slot,
/// it reads the slot's tag back.
fn tag_of(fp: u64) -> u32 {
    (fp >> 32) as u32
}

/// Home slot of `tag` in an index of `2^bits` slots: the tag's top `bits`.
fn home(tag: u32, bits: u32) -> usize {
    (u64::from(tag) >> (32 - bits)) as usize
}

/// Codec observability counters of the store (exported through
/// `SearchStats`).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct StoreStats {
    /// Tag matches confirmed equal by exact byte comparison.
    pub confirms: u64,
    /// Tag matches whose bytes differed although their whole 64-bit
    /// fingerprints are equal (true collisions). A match on the tag alone
    /// is not counted.
    pub collisions: u64,
}

/// The store could not record a state: a fresh state's entry id, arena span
/// or length would not fit, or an expanded state has more edges than a `u16`
/// ordinal can number. The search stops there, as truncated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct StoreFull;

/// One interned state (24 bytes).
struct Entry {
    /// Arena offset: page index times [`ARENA_PAGE`], plus the offset in the
    /// page.
    off: u32,
    remaining: u32,
    sleep: u32,
    parent: u32,
    /// Position of the tree edge's label among the parent's labels.
    ordinal: u16,
    len: u16,
    expanded: bool,
}

const _: () = assert!(std::mem::size_of::<Entry>() <= 24, "an entry outgrew 24 bytes");

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
    /// The entry's id.
    pub entry: u32,
    pub remaining: u32,
    pub sleep: u32,
}

/// The open-addressing visited store of one search.
pub(crate) struct VisitedStore {
    /// Linear-probe index of `2^b` slots: `tag << 32 | entry id`, or
    /// [`EMPTY`].
    index: Vec<u64>,
    /// Entry pages; entry `id` is `entries[id >> 16][id & 0xffff]`.
    entries: Vec<Vec<Entry>>,
    /// Arena pages; every page but the last is closed.
    arena: Vec<Vec<u8>>,
    /// Bytes of encoding interned (the pages' unused tails not counted).
    arena_bytes: usize,
    /// Entry ids stay below this: `u32::MAX`, which keeps every filled slot
    /// distinct from [`EMPTY`].
    max_entries: u32,
    /// Arena offsets (interned span ends) stay within this.
    max_arena: u32,
    /// The probe key of an encoding: [`fingerprint`], or a test's stand-in.
    hash: fn(&[u8]) -> u64,
    stats: StoreStats,
}

impl VisitedStore {
    pub fn new() -> Self {
        VisitedStore {
            index: vec![EMPTY; 1024],
            entries: Vec::new(),
            arena: Vec::new(),
            arena_bytes: 0,
            max_entries: u32::MAX,
            max_arena: u32::MAX,
            hash: fingerprint,
            stats: StoreStats::default(),
        }
    }

    /// A store that interns at most `max_entries` states and `max_arena`
    /// bytes of arena span, so that a test can fill it.
    #[cfg(test)]
    pub(crate) fn with_limits(max_entries: u32, max_arena: u32) -> Self {
        VisitedStore { max_entries, max_arena, ..Self::new() }
    }

    /// Distinct states interned so far (what `max_states` bounds).
    pub fn len(&self) -> usize {
        self.entries.last().map_or(0, |page| (self.entries.len() - 1) * ENTRY_PAGE + page.len())
    }

    /// Bytes of encoding interned in the arena (a memory figure, not a
    /// state count).
    pub fn arena_bytes(&self) -> usize {
        self.arena_bytes
    }

    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// log2 of the index length.
    fn bits(&self) -> u32 {
        self.index.len().trailing_zeros()
    }

    fn entry(&self, id: u32) -> &Entry {
        &self.entries[(id >> ENTRY_PAGE_BITS) as usize][id as usize & (ENTRY_PAGE - 1)]
    }

    fn entry_mut(&mut self, id: u32) -> &mut Entry {
        &mut self.entries[(id >> ENTRY_PAGE_BITS) as usize][id as usize & (ENTRY_PAGE - 1)]
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
    /// id, the length or the arena span would not fit. Opens a new page
    /// when the last one is full.
    fn intern(
        &mut self,
        bytes: &[u8],
        remaining: u32,
        sleep: u32,
        parent: u32,
        ordinal: u16,
    ) -> Option<u32> {
        let id = u32::try_from(self.len()).ok().filter(|&id| id < self.max_entries)?;
        let len = u16::try_from(bytes.len()).ok()?;
        // The last page takes the encoding if it has room, a new one if not.
        let (page, in_page) = match self.arena.last() {
            Some(last) if last.len() + bytes.len() <= ARENA_PAGE => {
                (self.arena.len() - 1, last.len())
            }
            _ => (self.arena.len(), 0),
        };
        let off = u32::try_from(page * ARENA_PAGE + in_page).ok()?;
        off.checked_add(u32::from(len)).filter(|&end| end <= self.max_arena)?;
        if page == self.arena.len() {
            self.arena.push(Vec::with_capacity(ARENA_PAGE));
        }
        self.arena[page].extend_from_slice(bytes);
        self.arena_bytes += bytes.len();
        if self.entries.last().is_none_or(|page| page.len() == ENTRY_PAGE) {
            self.entries.push(Vec::with_capacity(ENTRY_PAGE));
        }
        let entry = Entry { off, remaining, sleep, parent, ordinal, len, expanded: false };
        self.entries.last_mut()?.push(entry);
        Some(id)
    }

    /// Looks up `bytes`, arriving with `remaining` depth and POR mask `sleep`
    /// over the `ordinal`-th edge out of `parent`. Interns on miss, or
    /// answers [`StoreFull`] when it cannot; upgrades `remaining` (max) and
    /// `sleep` (intersection) on hit.
    pub fn probe(
        &mut self,
        bytes: &[u8],
        remaining: u32,
        sleep: u32,
        parent: u32,
        ordinal: u16,
    ) -> Result<Probe, StoreFull> {
        if (self.len() + 1) * 4 > self.index.len() * 3 && self.bits() < MAX_INDEX_BITS {
            self.grow();
        }
        let fp = (self.hash)(bytes);
        let (tag, mask) = (tag_of(fp), self.index.len() - 1);
        let mut pos = home(tag, self.bits());
        loop {
            let slot = self.index[pos];
            if slot == EMPTY {
                let id = self.intern(bytes, remaining, sleep, parent, ordinal).ok_or(StoreFull)?;
                self.index[pos] = (u64::from(tag) << 32) | u64::from(id);
                return Ok(Probe { outcome: ProbeOutcome::Fresh, entry: id, remaining, sleep });
            }
            if tag_of(slot) == tag {
                let id = slot as u32;
                let e = self.entry(id);
                let page = &self.arena[e.off as usize / ARENA_PAGE];
                let interned = &page[e.off as usize % ARENA_PAGE..][..usize::from(e.len)];
                if interned == bytes {
                    self.stats.confirms += 1;
                    let e = self.entry_mut(id);
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
                        entry: id,
                        remaining: up_remaining,
                        sleep: up_sleep,
                    });
                }
                if (self.hash)(interned) == fp {
                    self.stats.collisions += 1;
                }
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Marks `entry` expanded; true iff this is the first expansion.
    pub fn mark_expanded(&mut self, entry: u32) -> bool {
        !std::mem::replace(&mut self.entry_mut(entry).expanded, true)
    }

    /// The tree path from the root to `entry`, as label ordinals read off
    /// the parent links.
    pub fn ordinals_to(&self, mut entry: u32) -> Vec<u16> {
        let mut ordinals = Vec::new();
        while entry != NO_PARENT {
            let e = self.entry(entry);
            if e.parent != NO_PARENT {
                ordinals.push(e.ordinal);
            }
            entry = e.parent;
        }
        ordinals.reverse();
        ordinals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Probes `bytes` from the root.
    fn probe(store: &mut VisitedStore, bytes: &[u8], remaining: u32, sleep: u32) -> Probe {
        store.probe(bytes, remaining, sleep, NO_PARENT, 0).unwrap()
    }

    #[test]
    fn an_entry_takes_at_most_24_bytes() {
        assert!(std::mem::size_of::<Entry>() <= 24, "{} B", std::mem::size_of::<Entry>());
    }

    #[test]
    fn fresh_then_pruned_then_requeued_on_deeper_arrival() {
        let mut store = VisitedStore::new();
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
        let mut store = VisitedStore::new();
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
        // Force a collision: a store whose fingerprint is constant.
        let mut store = VisitedStore { hash: |_| 0x42, ..VisitedStore::new() };
        let mut at = |bytes: &[u8], remaining| probe(&mut store, bytes, remaining, 0).outcome;
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
        // Equal top halves: one tag, one home slot, two fingerprints.
        let hash = |bytes: &[u8]| 0xABCD_1234_0000_0000 | u64::from(bytes[0]);
        let mut store = VisitedStore { hash, ..VisitedStore::new() };
        for bytes in [b"a", b"b", b"a", b"b"] {
            probe(&mut store, bytes, 1, 0);
        }
        assert_eq!(store.len(), 2);
        let stats = store.stats();
        assert_eq!((stats.confirms, stats.collisions), (2, 0), "a tag match alone is no collision");
    }

    #[test]
    fn growth_preserves_every_entry() {
        let mut store = VisitedStore::new();
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
    fn pages_are_allocated_once_and_never_move() {
        // 200,000 entries of 12 bytes: four entry pages and three arena
        // pages, with encodings that do not divide a page evenly.
        let mut store = VisitedStore::new();
        let pages = |store: &VisitedStore| {
            let entries = store.entries.iter().map(|p| (p.as_ptr() as usize, p.capacity()));
            let arena = store.arena.iter().map(|p| (p.as_ptr() as usize, p.capacity()));
            (entries.collect::<Vec<_>>(), arena.collect::<Vec<_>>())
        };
        let mut seen = (Vec::new(), Vec::new());
        let n = 200_000u32;
        for i in 0..n {
            let bytes = [&i.to_le_bytes()[..], &[7; 8]].concat();
            assert_eq!(probe(&mut store, &bytes, 1, 0).outcome, ProbeOutcome::Fresh);
            let now = pages(&store);
            // Every page seen before is where it was, at the size it had.
            assert!(now.0.starts_with(&seen.0) && now.1.starts_with(&seen.1), "entry {i}");
            seen = now;
        }
        assert_eq!((seen.0.len(), seen.1.len()), (4, 3));
        assert!(seen.0.iter().all(|&(_, cap)| cap == ENTRY_PAGE));
        assert!(seen.1.iter().all(|&(_, cap)| cap == ARENA_PAGE));
        // No encoding straddles a page: each closed page holds a whole
        // number of them, and every state still resolves.
        let per_page = ARENA_PAGE / 12;
        assert!(store.arena[..2].iter().all(|p| p.len() == per_page * 12));
        assert_eq!(store.arena_bytes(), n as usize * 12);
        for i in (0..n).step_by(997) {
            let bytes = [&i.to_le_bytes()[..], &[7; 8]].concat();
            assert_eq!(probe(&mut store, &bytes, 1, 0).outcome, ProbeOutcome::Pruned);
        }
    }

    #[test]
    fn a_full_store_refuses_a_fresh_state_instead_of_wrapping() {
        let fresh = |store: &mut VisitedStore, i: u64| -> Result<ProbeOutcome, StoreFull> {
            Ok(store.probe(&i.to_le_bytes(), 1, 0, NO_PARENT, 0)?.outcome)
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
        // An encoding whose length does not fit a `u16`.
        let mut store = VisitedStore::new();
        let long = vec![0; usize::from(u16::MAX) + 1];
        assert!(store.probe(&long, 1, 0, NO_PARENT, 0).is_err());
        assert_eq!((store.len(), store.arena_bytes()), (0, 0));
    }

    #[test]
    fn parent_links_give_the_ordinal_path() {
        let mut store = VisitedStore::new();
        let mut at = |bytes: &[u8], parent, ordinal| {
            store.probe(bytes, 9, 0, parent, ordinal).unwrap().entry
        };
        let root = at(b"r", NO_PARENT, 0);
        let a = at(b"a", root, 3);
        let b = at(b"b", a, 0);
        assert_eq!(store.ordinals_to(b), vec![3, 0]);
        assert!(store.ordinals_to(root).is_empty());
    }

    #[test]
    fn only_the_first_expansion_counts() {
        let mut store = VisitedStore::new();
        let p = probe(&mut store, b"state-c", 2, 0);
        assert!(store.mark_expanded(p.entry));
        assert!(!store.mark_expanded(p.entry), "second expansion is not first");
        let p = probe(&mut store, b"state-c", 2, 0);
        assert_eq!(p.outcome, ProbeOutcome::Pruned);
        assert!(!store.mark_expanded(p.entry), "a re-probe does not reset the flag");
        assert_eq!(store.len(), 1, "a pruned probe interns nothing");
    }
}
