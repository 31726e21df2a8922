//! The bag arena: an interner mapping every distinct vertex/edge set to a
//! dense [`BagId`], with word-level set algebra on the interned storage.
//!
//! All decomposition solvers in this workspace operate on *sets over one
//! fixed universe* (the vertices or edges of a single hypergraph). The
//! seed implementation deduplicated candidate bags with
//! `FxHashSet<BitSet>`, allocating and hashing a fresh boxed bitset per
//! candidate. The arena replaces that with:
//!
//! - one flat `Vec<u64>` holding every distinct bag back to back
//!   (`words` blocks per bag), so interning never allocates per bag and
//!   equal bags share one id;
//! - an open-addressing id table (no key duplication — probes compare
//!   against the flat storage directly);
//! - subset / intersection / cardinality tests directly on the packed
//!   words, so the solver hot loops never materialise a [`BitSet`].
//!
//! Ids are dense `u32`s in insertion order, which makes per-bag side
//! tables plain `Vec`s instead of hash maps (see `softhw_core::ctd`).

use crate::bitset::{BitIter, BitSet};

/// Dense identifier of an interned bag within one [`BagArena`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BagId(pub u32);

impl BagId {
    /// The id as a usize index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

const EMPTY_SLOT: u32 = u32::MAX;

#[cfg(test)]
thread_local! {
    /// Stored rows compared against a probed one, for the clustering
    /// test: the probe cost, counted rather than timed.
    static ROW_COMPARES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// An interner for sets over a fixed universe, with word-level algebra.
#[derive(Clone)]
pub struct BagArena {
    universe: usize,
    words: usize,
    storage: Vec<u64>,
    /// Open-addressing table of ids; `EMPTY_SLOT` marks a free slot.
    table: Vec<u32>,
    mask: usize,
    /// `64 - log2(table.len())`: a set's home slot is the top bits of its
    /// mixed hash (see [`BagArena::home`]).
    shift: u32,
}

impl BagArena {
    /// Creates an arena for sets over `0..universe`.
    pub fn new(universe: usize) -> Self {
        let cap: usize = 64;
        BagArena {
            universe,
            words: universe.div_ceil(64).max(1),
            storage: Vec::new(),
            table: vec![EMPTY_SLOT; cap],
            mask: cap - 1,
            shift: 64 - cap.trailing_zeros(),
        }
    }

    /// The universe size this arena was created for.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of `u64` words per bag.
    #[inline]
    pub fn words_per_bag(&self) -> usize {
        self.words
    }

    /// Number of distinct bags interned so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.storage.len() / self.words
    }

    /// True iff no bag has been interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.storage.is_empty()
    }

    /// The packed words of bag `id`.
    #[inline]
    pub fn words(&self, id: BagId) -> &[u64] {
        let start = id.idx() * self.words;
        &self.storage[start..start + self.words]
    }

    /// The home slot of a set: the top bits of its Fx hash after a
    /// murmur3 finalizer. The last Fx step is a multiply, and a product's
    /// low bits depend only on its operand's low bits, so `hash & mask`
    /// piles sets that differ only in high words into one probe run; the
    /// product's top bits are not uniform either over sets of a few small
    /// elements. The finalizer spreads every bit of the hash over the top
    /// ones.
    #[inline]
    fn home(&self, words: &[u64]) -> usize {
        let mut h = crate::fxhash::hash_u64s(words);
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        (h >> self.shift) as usize
    }

    /// Whether stored bag `id` is `words`.
    #[inline]
    fn row_is(&self, id: u32, words: &[u64]) -> bool {
        #[cfg(test)]
        ROW_COMPARES.with(|n| n.set(n.get() + 1));
        self.words(BagId(id)) == words
    }

    /// Interns raw words (must be `words_per_bag` long); returns the id,
    /// allocating a new one only for unseen content.
    pub fn intern_words(&mut self, words: &[u64]) -> BagId {
        debug_assert_eq!(words.len(), self.words);
        if self.len() * 2 >= self.table.len() {
            self.grow();
        }
        let mut slot = self.home(words);
        loop {
            let id = self.table[slot];
            if id == EMPTY_SLOT {
                let new_id = self.len() as u32;
                self.storage.extend_from_slice(words);
                self.table[slot] = new_id;
                return BagId(new_id);
            }
            if self.row_is(id, words) {
                return BagId(id);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Interns a [`BitSet`] (must be over this arena's universe).
    pub fn intern(&mut self, set: &BitSet) -> BagId {
        self.intern_words(set.blocks())
    }

    /// Looks a set up without interning it.
    pub fn lookup_words(&self, words: &[u64]) -> Option<BagId> {
        debug_assert_eq!(words.len(), self.words);
        let mut slot = self.home(words);
        loop {
            let id = self.table[slot];
            if id == EMPTY_SLOT {
                return None;
            }
            if self.row_is(id, words) {
                return Some(BagId(id));
            }
            slot = (slot + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        self.grow_to(self.table.len() * 2);
    }

    fn grow_to(&mut self, cap: usize) {
        debug_assert!(cap.is_power_of_two());
        self.mask = cap - 1;
        self.shift = 64 - cap.trailing_zeros();
        let mut table = vec![EMPTY_SLOT; cap];
        for id in 0..self.len() as u32 {
            let mut slot = self.home(self.words(BagId(id)));
            while table[slot] != EMPTY_SLOT {
                slot = (slot + 1) & self.mask;
            }
            table[slot] = id;
        }
        self.table = table;
    }

    /// Pre-sizes the arena for about `additional` more bags: reserves the
    /// packed storage and grows the intern table to its final
    /// power-of-two size up front, so a bulk enumeration (e.g. the
    /// `|E|^k`-scale separator sweep of the Soft builder) never rehashes
    /// mid-loop.
    pub fn reserve(&mut self, additional: usize) {
        self.storage.reserve(additional.saturating_mul(self.words));
        let needed = (self.len() + additional).saturating_mul(2);
        if needed > self.table.len() {
            self.grow_to(needed.next_power_of_two());
        }
    }

    /// Materialises bag `id` as a [`BitSet`] view.
    pub fn to_bitset(&self, id: BagId) -> BitSet {
        BitSet::from_blocks(self.words(id))
    }

    /// `a ⊆ b`, word-level.
    #[inline]
    pub fn is_subset(&self, a: BagId, b: BagId) -> bool {
        words_subset(self.words(a), self.words(b))
    }

    /// `a ∩ b ≠ ∅`, word-level.
    #[inline]
    pub fn intersects(&self, a: BagId, b: BagId) -> bool {
        words_intersect(self.words(a), self.words(b))
    }

    /// Cardinality of bag `id`.
    #[inline]
    pub fn card(&self, id: BagId) -> usize {
        self.words(id).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True iff bag `id` is the empty set.
    #[inline]
    pub fn bag_is_empty(&self, id: BagId) -> bool {
        self.words(id).iter().all(|&w| w == 0)
    }

    /// Interns `a ∪ b`.
    pub fn union(&mut self, a: BagId, b: BagId) -> BagId {
        let mut buf = self.words(a).to_vec();
        words_union_into(self.words(b), &mut buf);
        self.intern_words(&buf)
    }

    /// Interns `a ∩ b`.
    pub fn intersection(&mut self, a: BagId, b: BagId) -> BagId {
        let mut buf = self.words(a).to_vec();
        words_intersect_into(self.words(b), &mut buf);
        self.intern_words(&buf)
    }

    /// Unions bag `id` into `buf` (which must be `words_per_bag` long).
    #[inline]
    pub fn union_into(&self, id: BagId, buf: &mut [u64]) {
        words_union_into(self.words(id), buf);
    }

    /// Interns the empty set.
    pub fn empty_bag(&mut self) -> BagId {
        let buf = vec![0u64; self.words];
        self.intern_words(&buf)
    }

    /// Iterates the elements of bag `id` in ascending order.
    pub fn iter(&self, id: BagId) -> BitIter<'_> {
        words_iter(self.words(id))
    }

    /// Compares two bags by content (same order as [`BitSet`]'s `Ord`).
    #[inline]
    pub fn cmp_bags(&self, a: BagId, b: BagId) -> std::cmp::Ordering {
        self.words(a).cmp(self.words(b))
    }

    /// A serialisable snapshot of this arena: universe size plus the flat
    /// word storage (bags back to back in id order). Ids are dense and
    /// assigned in insertion order, so the snapshot *is* the id table —
    /// bag `i` lives at words `[i·wpb, (i+1)·wpb)`. This is what makes
    /// decomposition state cheap to frame onto a wire: no pointer
    /// chasing, no per-bag headers.
    pub fn snapshot(&self) -> ArenaSnapshot {
        ArenaSnapshot {
            universe: self.universe,
            storage: self.storage.clone(),
        }
    }

    /// [`BagArena::snapshot`] without a copy, for a caller that only
    /// reads bags from here on: the probe table is dropped, the storage
    /// moves.
    pub fn into_snapshot(self) -> ArenaSnapshot {
        ArenaSnapshot {
            universe: self.universe,
            storage: self.storage,
        }
    }

    /// Rebuilds an arena from a snapshot, re-deriving the probe table.
    /// Ids are preserved exactly: bag `i` of the snapshot is bag `i` of
    /// the rebuilt arena. Returns `None` if the storage length is not a
    /// multiple of the word width (a corrupt frame).
    pub fn from_snapshot(snap: &ArenaSnapshot) -> Option<BagArena> {
        let mut arena = BagArena::new(snap.universe);
        if !snap.storage.len().is_multiple_of(arena.words) {
            return None;
        }
        for chunk in snap.storage.chunks_exact(arena.words) {
            arena.intern_words(chunk);
        }
        // Duplicate chunks would have collapsed to one id, breaking the
        // id-preservation contract — a snapshot of a real arena never
        // contains duplicates, so treat that as corruption too.
        if arena.storage.len() != snap.storage.len() {
            return None;
        }
        Some(arena)
    }
}

/// A flat, serialisable image of a [`BagArena`]: the universe size plus
/// every interned bag's words back to back in id order. See
/// [`BagArena::snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArenaSnapshot {
    /// The universe size the arena was created for.
    pub universe: usize,
    /// Flat bag storage, `words_per_bag` words per bag, id order.
    pub storage: Vec<u64>,
}

impl ArenaSnapshot {
    /// Words per bag for this snapshot's universe.
    pub fn words_per_bag(&self) -> usize {
        self.universe.div_ceil(64).max(1)
    }

    /// Number of bags in the snapshot.
    pub fn len(&self) -> usize {
        self.storage.len() / self.words_per_bag()
    }

    /// True iff the snapshot holds no bags.
    pub fn is_empty(&self) -> bool {
        self.storage.is_empty()
    }

    /// The words of bag `i`.
    pub fn words(&self, i: usize) -> &[u64] {
        let wpb = self.words_per_bag();
        &self.storage[i * wpb..(i + 1) * wpb]
    }
}

/// A dense membership set over [`BagId`]s of one arena — the "have I
/// already emitted this bag" structure of the enumeration loops. Ids are
/// dense and monotonically assigned, so a growable bool vector beats a
/// hash set: the common case (a bag new to the arena) is a push past the
/// end, no hashing at all.
#[derive(Default)]
pub struct IdSet {
    flags: Vec<bool>,
}

impl IdSet {
    /// An empty set.
    pub fn new() -> Self {
        IdSet::default()
    }

    /// An empty set with room for ids up to about `n` before the flag
    /// vector reallocates.
    pub fn with_capacity(n: usize) -> Self {
        IdSet {
            flags: Vec::with_capacity(n),
        }
    }

    /// Inserts `id`; returns `true` iff it was not present.
    #[inline]
    pub fn insert(&mut self, id: BagId) -> bool {
        let i = id.idx();
        if i >= self.flags.len() {
            self.flags.resize(i + 1, false);
        }
        if self.flags[i] {
            false
        } else {
            self.flags[i] = true;
            true
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: BagId) -> bool {
        self.flags.get(id.idx()).copied().unwrap_or(false)
    }
}

/// `a ⊆ b` on raw word slices.
#[inline]
pub fn words_subset(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).all(|(x, y)| x & !y == 0)
}

/// `a ∩ b ≠ ∅` on raw word slices.
#[inline]
pub fn words_intersect(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// `dst |= src` on raw word slices.
#[inline]
pub fn words_union_into(src: &[u64], dst: &mut [u64]) {
    debug_assert_eq!(src.len(), dst.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// `dst &= src` on raw word slices.
#[inline]
pub fn words_intersect_into(src: &[u64], dst: &mut [u64]) {
    debug_assert_eq!(src.len(), dst.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d &= s;
    }
}

/// True iff all words are zero.
#[inline]
pub fn words_empty(words: &[u64]) -> bool {
    words.iter().all(|&w| w == 0)
}

/// Population count over raw words.
#[inline]
pub fn words_card(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// The bits of word `wi` that index elements below `universe`.
#[inline]
pub fn word_tail_mask(universe: usize, wi: usize) -> u64 {
    let bits = universe.saturating_sub(wi * 64).min(64);
    if bits == 64 {
        !0
    } else {
        (1u64 << bits) - 1
    }
}

/// Iterates set bits of raw words in ascending order.
pub fn words_iter(words: &[u64]) -> BitIter<'_> {
    BitIter::over(words)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups() {
        let mut a = BagArena::new(100);
        let s1 = BitSet::from_iter(100, [1, 64, 99]);
        let s2 = BitSet::from_iter(100, [1, 64, 99]);
        let s3 = BitSet::from_iter(100, [2]);
        let i1 = a.intern(&s1);
        let i2 = a.intern(&s2);
        let i3 = a.intern(&s3);
        assert_eq!(i1, i2);
        assert_ne!(i1, i3);
        assert_eq!(a.len(), 2);
        assert_eq!(a.to_bitset(i1), s1);
    }

    #[test]
    fn ids_are_dense_and_stable_across_growth() {
        let mut a = BagArena::new(256);
        let mut ids = Vec::new();
        for i in 0..500 {
            let s = BitSet::from_iter(256, [i % 256, (i * 7) % 256]);
            ids.push((a.intern(&s), s));
        }
        for (id, s) in &ids {
            assert_eq!(&a.to_bitset(*id), s);
            assert_eq!(a.lookup_words(s.blocks()), Some(*id));
        }
    }

    #[test]
    fn word_ops_match_bitset_ops() {
        let mut a = BagArena::new(70);
        let x = BitSet::from_iter(70, [0, 3, 65]);
        let y = BitSet::from_iter(70, [3, 65, 69]);
        let (ix, iy) = (a.intern(&x), a.intern(&y));
        assert!(!a.is_subset(ix, iy));
        assert!(a.intersects(ix, iy));
        assert_eq!(a.card(ix), 3);
        let u = a.union(ix, iy);
        assert_eq!(a.to_bitset(u), x.union(&y));
        let i = a.intersection(ix, iy);
        assert_eq!(a.to_bitset(i), x.intersection(&y));
        let sub = a.intern(&BitSet::from_iter(70, [3]));
        assert!(a.is_subset(sub, ix));
    }

    #[test]
    fn empty_bag_and_iter() {
        let mut a = BagArena::new(10);
        let e = a.empty_bag();
        assert!(a.bag_is_empty(e));
        let s = a.intern(&BitSet::from_iter(10, [2, 5, 9]));
        assert_eq!(a.iter(s).collect::<Vec<_>>(), vec![2, 5, 9]);
    }

    /// The vertex sets of every λ of at most two edges, in `(i, j)`
    /// order: the `k = 2` separators the soft-bag sweep interns.
    fn k2_separators(h: &crate::Hypergraph) -> Vec<Vec<u64>> {
        let m = h.num_edges();
        let pairs = (0..m).flat_map(|i| (i..m).map(move |j| (i, j)));
        pairs
            .map(|(i, j)| {
                let mut row = h.edge(i).blocks().to_vec();
                words_union_into(h.edge(j).blocks(), &mut row);
                row
            })
            .collect()
    }

    #[test]
    fn similar_sets_do_not_cluster_in_the_intern_table() {
        // Grid separators differ from each other in a few bits of one
        // word: homed on the low bits of their Fx hashes, these 16 290
        // interns piled into probe runs of about 200 row compares each.
        // Homed on the top bits of the mixed hash, they make 13 720.
        let h = crate::named::grid(10, 10);
        let rows = k2_separators(&h);
        let mut arena = BagArena::new(h.num_vertices());
        let before = ROW_COMPARES.with(|n| n.get());
        let ids: Vec<BagId> = rows.iter().map(|r| arena.intern_words(r)).collect();
        let compares = ROW_COMPARES.with(|n| n.get()) - before;
        assert!(
            compares <= 2 * rows.len() as u64,
            "{compares} row compares for {} interns",
            rows.len()
        );
        // Ids are still dense and in insertion order.
        let mut seen = IdSet::new();
        let mut next = 0;
        for (row, id) in rows.iter().zip(&ids) {
            if seen.insert(*id) {
                assert_eq!(id.0, next);
                next += 1;
            }
            assert_eq!(arena.words(*id), &row[..]);
        }
        assert_eq!(next as usize, arena.len());
    }

    #[test]
    fn snapshot_roundtrips_preserving_ids() {
        let mut a = BagArena::new(130);
        let mut ids = Vec::new();
        for i in 0..60 {
            let s = BitSet::from_iter(130, [i, (i * 11) % 130]);
            ids.push((a.intern(&s), s));
        }
        let snap = a.snapshot();
        assert_eq!(snap.len(), a.len());
        let b = BagArena::from_snapshot(&snap).expect("valid snapshot");
        assert_eq!(b.len(), a.len());
        for (id, s) in &ids {
            assert_eq!(&b.to_bitset(*id), s, "ids must be preserved");
            assert_eq!(b.lookup_words(s.blocks()), Some(*id));
        }
        // Corrupt frames are rejected, not mis-decoded.
        let mut bad = snap.clone();
        bad.storage.pop();
        assert!(BagArena::from_snapshot(&bad).is_none());
        let mut dup = snap.clone();
        let first: Vec<u64> = dup.words(0).to_vec();
        dup.storage.extend_from_slice(&first);
        assert!(BagArena::from_snapshot(&dup).is_none());
    }
}
