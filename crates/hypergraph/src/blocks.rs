//! The shared block index: per-hypergraph memoisation of the
//! `[S]`-connectivity quantities every solver recomputes.
//!
//! All of the paper's algorithms repeatedly ask the same two questions
//! about separators `S ⊆ V(H)`:
//!
//! 1. what are the `[S]`-components (as vertex sets)?
//! 2. what is `⋃C`, the union of the vertices of the edges touching a
//!    component — the `U`-side of Definition 3, and (standing in for the
//!    touching-edge list) the block's coverage obligation in Algorithm 1?
//!
//! The [`BlockIndex`] interns every separator and component into a
//! [`BagArena`] and answers both questions with one cached pass per
//! separator ([`BlockIndex::block_rows`]), keyed by [`BagId`], so a
//! (hypergraph, k)-sweep — or a whole `shw` search across all `k` —
//! computes each of them exactly once.
//!
//! ## Parent-derived rows
//!
//! A pass never starts from the whole graph. The rows of `sep` are
//! derived from the cached rows of a `parent ⊆ sep`
//! ([`BlockIndex::block_rows_from`]; [`BlockIndex::block_rows`] is the
//! same routine with `parent = ∅`, whose own rows — the connected
//! components of `H` — are the base case). With `δ = sep ∖ parent`:
//!
//! - a parent component disjoint from `δ` is a `[sep]`-component as it
//!   stands: its `(component, cover)` ids are copied, nothing is explored
//!   or interned;
//! - a touched component `P` is re-explored by the frontier BFS, seeded
//!   at the smallest unexplored vertex of `R = N(δ ∩ P) ∩ (P ∖ δ)`.
//!   `P` is `[parent]`-connected, so every `[sep]`-component inside it has
//!   a neighbour in `δ`, i.e. contains a vertex of `R`; the BFS therefore
//!   **stops as soon as `R` is exhausted** — the component in hand then
//!   owns all of `P` that is still unexplored. Its cover is
//!   `C ∪ {s ∈ sep : N[s] ∩ C ≠ ∅}`, read off the few separator vertices
//!   `P`'s own cover names instead of off the unexplored vertices.
//!
//! A pass thus costs what `δ` changes — a handful of frontier rounds on
//! the instances that matter, independent of `|V|`
//! ([`BlockIndexStats::rounds`] counts them) — where a whole-graph BFS
//! walks every vertex for every separator.
//!
//! The row table is append-only, so cached ranges stay valid as the index
//! grows.

use crate::arena::{
    word_tail_mask, words_intersect, words_iter, words_union_into, BagArena, BagId,
};
use crate::bitset::BitSet;
use crate::hypergraph::Hypergraph;
use std::sync::Arc;

/// A `(start, len)` range into the index's append-only row table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SliceRange {
    start: u32,
    len: u32,
}

impl SliceRange {
    /// Marks a separator no pass has run for; never a real range, whose
    /// `start + len` fits a `u32`.
    const UNCACHED: SliceRange = SliceRange {
        start: u32::MAX,
        len: u32::MAX,
    };

    #[inline]
    fn of(start: usize, len: usize) -> Self {
        SliceRange {
            start: start as u32,
            len: len as u32,
        }
    }

    /// Number of entries in the range.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True iff the range is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Cache statistics (exposed for tests and the bench harness).
#[derive(Clone, Copy, Debug, Default)]
pub struct BlockIndexStats {
    /// Separator queries answered from the row cache.
    pub hits: u64,
    /// Separator queries that ran a fresh component pass. `hits` and
    /// `misses` count *queries*: the parent lookup inside a derived pass
    /// is neither.
    pub misses: u64,
    /// Frontier expansions run by all component passes so far — a
    /// clock-free count of the BFS work, `rounds / misses` being the
    /// rounds an average separator costs.
    pub rounds: u64,
}

/// Per-hypergraph cache of block rows — the `[S]`-components of a
/// separator paired with their coverage unions — keyed on interned
/// [`BagId`]s.
///
/// The index *owns* its hypergraph (as an [`Arc`], shared with every
/// solver instance built from it), so it has no borrow lifetime and can
/// outlive the call that created it — which is what lets `softhw-core`'s
/// cross-query `DecompCache` keep one warm index per structurally
/// distinct hypergraph across solver calls.
pub struct BlockIndex {
    h: Arc<Hypergraph>,
    /// Arena over the vertex universe; owns every separator, component,
    /// cover, and candidate bag this index has seen.
    pub arena: BagArena,
    /// The empty separator, interned at construction.
    empty: BagId,
    /// The closed-neighbourhood rows `N[v]`, flat (`words_per_bag` words
    /// per vertex) so the component pass reads one contiguous table
    /// instead of chasing a boxed bitset per vertex.
    adj: Vec<u64>,
    /// Flat storage of cached block rows: `(component, coverage union)`
    /// per component of a separator, in component order.
    row_data: Vec<(BagId, BagId)>,
    /// Separator id → its block rows, [`SliceRange::UNCACHED`] until a
    /// pass has run: arena ids are dense, so the map is a flat vector
    /// grown on demand.
    row_cache: Vec<SliceRange>,
    /// Reusable buffers of the component pass.
    scratch: PassScratch,
    stats: BlockIndexStats,
}

/// Buffers of one component pass ([`BlockIndex::derive`]), each word
/// buffer `words_per_bag` long for the life of the index — the per-bag
/// probes of instance build are hot enough that per-call allocation shows
/// up.
struct PassScratch {
    /// Separator plus every vertex explored so far.
    seen: Vec<u64>,
    /// `δ = sep ∖ parent`.
    delta: Vec<u64>,
    /// The parent component `P` being re-explored.
    region: Vec<u64>,
    /// `R`: the vertices of `P ∖ δ` with a neighbour in `δ ∩ P`.
    seeds: Vec<u64>,
    /// The separator vertices `P`'s cover names — the only ones that can
    /// neighbour a component inside `P`.
    cand: Vec<u64>,
    /// The component being grown.
    comp: Vec<u64>,
    /// Vertices added in the previous round.
    frontier: Vec<u64>,
    /// `⋃ N[v]` over the component's expanded vertices; ends as its cover.
    acc: Vec<u64>,
    /// The rows of the separator in hand, keyed by smallest vertex until
    /// they are sorted into the row table.
    pending: Vec<(u32, BagId, BagId)>,
}

impl PassScratch {
    fn new(words: usize) -> Self {
        let buf = || vec![0u64; words];
        PassScratch {
            seen: buf(),
            delta: buf(),
            region: buf(),
            seeds: buf(),
            cand: buf(),
            comp: buf(),
            frontier: buf(),
            acc: buf(),
            pending: Vec::new(),
        }
    }
}

/// The smallest element of a non-empty set given as words.
#[inline]
fn first_vertex(words: &[u64]) -> u32 {
    words_iter(words).next().unwrap_or(0) as u32
}

/// The one BFS kernel of the index: appends to `s.pending` the
/// `[sep]`-components inside `s.region`, each with its cover. `s.seen`
/// holds the separator and everything explored so far, `s.seeds` the
/// vertices a component may start from — every component inside the
/// region must contain one — and `s.cand` the separator vertices that can
/// neighbour the region.
///
/// A component grows a frontier at a time: OR the `N[v]` rows of the
/// frontier into `acc`, then `new = acc & !seen` word-wise. A BFS that
/// runs dry has `acc = ⋃C`. One that exhausts the seeds first stops
/// there: every other component of the region is complete, so what is
/// left of the region is its own, and its cover is
/// `C ∪ {s ∈ cand : N[s] ∩ C ≠ ∅}`.
fn explore(adj: &[u64], arena: &mut BagArena, s: &mut PassScratch, rounds: &mut u64) {
    let words = s.seen.len();
    let mut wi = 0;
    while wi < words {
        // Smallest unexplored seed; `seen` only grows, so `wi` never
        // has to move back.
        let free = s.seeds[wi] & !s.seen[wi];
        if free == 0 {
            wi += 1;
            continue;
        }
        let seed = free & free.wrapping_neg();
        s.comp.fill(0);
        s.acc.fill(0);
        s.frontier.fill(0);
        s.seen[wi] |= seed;
        s.comp[wi] = seed;
        s.frontier[wi] = seed;
        loop {
            *rounds += 1;
            for (fi, &fw) in s.frontier.iter().enumerate() {
                let mut bits = fw;
                while bits != 0 {
                    let v = fi * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    words_union_into(&adj[v * words..(v + 1) * words], &mut s.acc);
                }
            }
            let (mut any, mut seeds_left) = (0u64, 0u64);
            for i in 0..words {
                let new = s.acc[i] & !s.seen[i];
                s.seen[i] |= new;
                s.comp[i] |= new;
                s.frontier[i] = new;
                any |= new;
                seeds_left |= s.seeds[i] & !s.seen[i];
            }
            if any == 0 {
                break;
            }
            if seeds_left == 0 {
                // At least two vertices are in hand, so every vertex of
                // the component lies on an edge and `C ⊆ ⋃C`.
                for i in 0..words {
                    let rest = s.region[i] & !s.seen[i];
                    s.seen[i] |= rest;
                    s.comp[i] |= rest;
                }
                s.acc.copy_from_slice(&s.comp);
                for (ci, &cw) in s.cand.iter().enumerate() {
                    let mut bits = cw;
                    while bits != 0 {
                        let v = ci * 64 + bits.trailing_zeros() as usize;
                        if words_intersect(&adj[v * words..(v + 1) * words], &s.comp) {
                            s.acc[ci] |= bits & bits.wrapping_neg();
                        }
                        bits &= bits - 1;
                    }
                }
                break;
            }
        }
        let (comp, cover) = (arena.intern_words(&s.comp), arena.intern_words(&s.acc));
        s.pending.push((first_vertex(&s.comp), comp, cover));
    }
}

impl BlockIndex {
    /// Creates an empty index for a clone of `h`.
    pub fn new(h: &Hypergraph) -> Self {
        Self::from_arc(Arc::new(h.clone()))
    }

    /// Creates an empty index sharing ownership of `h` (no clone).
    pub fn from_arc(h: Arc<Hypergraph>) -> Self {
        let mut arena = BagArena::new(h.num_vertices());
        let empty = arena.empty_bag();
        let words = arena.words_per_bag();
        let mut adj = vec![0u64; h.num_vertices() * words];
        for (v, row) in adj.chunks_exact_mut(words).enumerate() {
            row.copy_from_slice(h.closed_neighbourhood(v).blocks());
        }
        BlockIndex {
            h,
            arena,
            empty,
            adj,
            row_data: Vec::new(),
            row_cache: Vec::new(),
            scratch: PassScratch::new(words),
            stats: BlockIndexStats::default(),
        }
    }

    /// The hypergraph this index serves.
    #[inline]
    pub fn hypergraph(&self) -> &Hypergraph {
        &self.h
    }

    /// Shared ownership of the hypergraph, for solver instances that must
    /// outlive a `&mut` borrow of the index.
    #[inline]
    pub fn hypergraph_arc(&self) -> &Arc<Hypergraph> {
        &self.h
    }

    /// Cache statistics so far.
    #[inline]
    pub fn stats(&self) -> BlockIndexStats {
        self.stats
    }

    /// The block rows of separator `sep`: one `(component, coverage
    /// union)` pair per `[sep]`-component, in ascending order of the
    /// components' smallest vertices — exactly the data a solver needs to
    /// materialise the blocks headed by `sep`, and the `U`-side of
    /// Definition 3 when `sep` is a λ2 union. Computed once per distinct
    /// separator; returns a range to resolve with [`BlockIndex::rows`].
    ///
    /// The coverage union is `⋃_{v ∈ C} N[v]`, i.e. the union of the
    /// vertex sets of all edges intersecting `C` (empty for a single
    /// edgeless vertex). It stands in for the touching-edge list: "every
    /// touching edge inside the witness union" is equivalent to "`⋃C`
    /// inside the witness union", and at `k = 2` HyperBench scale those
    /// lists run to hundreds of millions of entries where the union is
    /// one interned row.
    ///
    /// This is [`BlockIndex::block_rows_from`] with `parent = ∅`.
    pub fn block_rows(&mut self, sep: BagId) -> SliceRange {
        self.block_rows_from(self.empty, sep)
    }

    /// [`BlockIndex::block_rows`] for a caller that knows a separator
    /// `parent ⊆ sep` — the λ2 sweep of Definition 3 holds the union one
    /// edge up. The rows are the same whatever `parent` is (a `parent`
    /// that is not a subset of `sep` is read as `∅`); only the work
    /// differs, which is what `δ = sep ∖ parent` changes (see the module
    /// documentation).
    pub fn block_rows_from(&mut self, parent: BagId, sep: BagId) -> SliceRange {
        if let Some(r) = self.cached(sep) {
            self.stats.hits += 1;
            return r;
        }
        self.stats.misses += 1;
        self.derive(parent, sep)
    }

    /// The component pass: derives the (uncached) rows of `sep` from the
    /// rows of `parent`, computing those first — from `∅` — if nobody has
    /// asked for them yet. The recursion ends at `sep = ∅`, whose one
    /// "parent component" is all of `V` with every vertex a seed.
    fn derive(&mut self, parent: BagId, sep: BagId) -> SliceRange {
        let empty = self.empty;
        let parent_rows = if sep == empty {
            None
        } else {
            let usable = parent != sep && self.arena.is_subset(parent, sep);
            let parent = if usable { parent } else { empty };
            let cached = self.cached(parent);
            Some((parent, cached.unwrap_or_else(|| self.derive(empty, parent))))
        };
        let n = self.h.num_vertices();
        let words = self.arena.words_per_bag();
        let s = &mut self.scratch;
        s.seen.copy_from_slice(self.arena.words(sep));
        s.pending.clear();
        match parent_rows {
            None => {
                for (wi, (r, sd)) in s.region.iter_mut().zip(&mut s.seeds).enumerate() {
                    *r = word_tail_mask(n, wi);
                    *sd = *r;
                }
                s.cand.fill(0);
                explore(&self.adj, &mut self.arena, s, &mut self.stats.rounds);
            }
            Some((parent, r)) => {
                let parent_words = self.arena.words(parent);
                for (d, (&sw, &pw)) in s.delta.iter_mut().zip(s.seen.iter().zip(parent_words)) {
                    *d = sw & !pw;
                }
                for row in r.start..r.start + r.len {
                    let (p, p_cover) = self.row_data[row as usize];
                    let p_words = self.arena.words(p);
                    if !words_intersect(p_words, &s.delta) {
                        s.pending.push((first_vertex(p_words), p, p_cover));
                        continue;
                    }
                    s.region.copy_from_slice(p_words);
                    // `N(δ ∩ P) ∖ sep` lies inside `P`: a neighbour of a
                    // `[parent]`-component is in it or in `parent`.
                    s.seeds.fill(0);
                    for (wi, (&pw, &dw)) in p_words.iter().zip(&s.delta).enumerate() {
                        let mut bits = pw & dw;
                        while bits != 0 {
                            let v = wi * 64 + bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            words_union_into(&self.adj[v * words..(v + 1) * words], &mut s.seeds);
                        }
                    }
                    let (sep_words, cover_words) =
                        (self.arena.words(sep), self.arena.words(p_cover));
                    for i in 0..words {
                        s.seeds[i] &= !sep_words[i];
                        s.cand[i] = cover_words[i] & sep_words[i];
                    }
                    explore(&self.adj, &mut self.arena, s, &mut self.stats.rounds);
                }
            }
        }
        s.pending.sort_unstable_by_key(|&(first, _, _)| first);
        let start = self.row_data.len();
        self.row_data
            .extend(s.pending.iter().map(|&(_, c, u)| (c, u)));
        let r = SliceRange::of(start, self.row_data.len() - start);
        if self.row_cache.len() <= sep.idx() {
            self.row_cache
                .resize(self.arena.len(), SliceRange::UNCACHED);
        }
        self.row_cache[sep.idx()] = r;
        r
    }

    /// The cached rows of `sep`, if a pass has run for it.
    #[inline]
    fn cached(&self, sep: BagId) -> Option<SliceRange> {
        let r = *self.row_cache.get(sep.idx())?;
        (r != SliceRange::UNCACHED).then_some(r)
    }

    /// Resolves a block-row range returned by [`BlockIndex::block_rows`]
    /// into `(component, coverage union)` pairs.
    #[inline]
    pub fn rows(&self, r: SliceRange) -> &[(BagId, BagId)] {
        &self.row_data[r.start as usize..(r.start + r.len) as usize]
    }

    /// The arena alone, for a caller done with the index that still reads
    /// the sets it interned: the block rows, their cache and the
    /// adjacency go with the rest of the index.
    pub fn into_arena(self) -> BagArena {
        self.arena
    }

    /// Interns a [`BitSet`] into the index's arena.
    #[inline]
    pub fn intern(&mut self, set: &BitSet) -> BagId {
        self.arena.intern(set)
    }

    /// The empty separator.
    #[inline]
    pub fn empty(&self) -> BagId {
        self.empty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::named;
    use crate::random::{random_hypergraph, RandomConfig};
    use proptest::prelude::*;

    /// A row range resolved to bitsets.
    fn resolve(idx: &BlockIndex, r: SliceRange) -> Vec<(BitSet, BitSet)> {
        idx.rows(r)
            .iter()
            .map(|&(c, u)| (idx.arena.to_bitset(c), idx.arena.to_bitset(u)))
            .collect()
    }

    /// `block_rows_from(parent, sep)` resolved to bitsets.
    fn resolved_rows_from(
        idx: &mut BlockIndex,
        parent: &BitSet,
        sep: &BitSet,
    ) -> Vec<(BitSet, BitSet)> {
        let (pid, sid) = (idx.intern(parent), idx.intern(sep));
        let r = idx.block_rows_from(pid, sid);
        resolve(idx, r)
    }

    /// `block_rows(sep)` resolved to bitsets.
    fn resolved_rows(idx: &mut BlockIndex, sep: &BitSet) -> Vec<(BitSet, BitSet)> {
        let empty = idx.hypergraph().empty_vertex_set();
        resolved_rows_from(idx, &empty, sep)
    }

    /// The rows by definition: `[sep]`-components paired with the union
    /// of the edges touching them.
    fn rows_by_definition(h: &Hypergraph, sep: &BitSet) -> Vec<(BitSet, BitSet)> {
        h.vertex_components(sep)
            .into_iter()
            .map(|c| {
                let cover = h.union_of_edge_set(&h.edges_touching(&c));
                (c, cover)
            })
            .collect()
    }

    #[test]
    fn cached_rows_equal_fresh_ones() {
        let h = named::h2();
        let mut idx = BlockIndex::new(&h);
        for e in 0..h.num_edges() {
            let sep = h.edge(e).clone();
            assert_eq!(
                resolved_rows(&mut idx, &sep),
                rows_by_definition(&h, &sep),
                "separator {}",
                h.render_vertex_set(&sep)
            );
        }
    }

    #[test]
    fn second_query_hits_cache() {
        let h = named::cycle(6);
        let mut idx = BlockIndex::new(&h);
        let sep = idx.intern(&h.vset(&["v0", "v3"]));
        let r1 = idx.block_rows(sep);
        let before = idx.stats();
        let r2 = idx.block_rows(sep);
        let after = idx.stats();
        assert_eq!(r1, r2);
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses);
        assert_eq!(after.rounds, before.rounds);
    }

    #[test]
    fn covers_match_edge_component_unions() {
        let h = named::h2();
        let mut idx = BlockIndex::new(&h);
        let sep = h.union_of_edges([0, 1]);
        let mut unions: Vec<BitSet> = resolved_rows(&mut idx, &sep)
            .into_iter()
            .map(|(_, u)| u)
            .collect();
        unions.sort_unstable();
        let mut fresh: Vec<BitSet> = h
            .edge_components(&sep)
            .iter()
            .map(|c| h.union_of_edge_set(c))
            .collect();
        fresh.sort_unstable();
        assert_eq!(unions, fresh);
    }

    #[test]
    fn empty_separator_of_a_cycle_is_one_block_covering_everything() {
        let h = named::cycle(5);
        let mut idx = BlockIndex::new(&h);
        let rows = resolved_rows(&mut idx, &h.empty_vertex_set());
        assert_eq!(rows, vec![(h.all_vertices(), h.all_vertices())]);
    }

    /// A path `a - b - c`, a separate edge `d - e`, and an edgeless `z`.
    fn path_edge_and_isolated_vertex() -> Hypergraph {
        let mut b = crate::HypergraphBuilder::new();
        b.edge("ab", &["a", "b"]);
        b.edge("bc", &["b", "c"]);
        b.edge("de", &["d", "e"]);
        b.vertex("z");
        b.build_allow_isolated()
    }

    #[test]
    fn a_delta_swallowing_a_component_drops_it_and_keeps_the_rest_by_id() {
        let h = path_edge_and_isolated_vertex();
        let mut idx = BlockIndex::new(&h);
        let parent = idx.intern(&h.vset(&["b"]));
        let parent_rows = {
            let r = idx.block_rows(parent);
            idx.rows(r).to_vec()
        };
        // {a}, {c}, {d, e}, {z}
        assert_eq!(parent_rows.len(), 4);
        let interned = idx.arena.len();
        let rounds = idx.stats().rounds;
        let sep = idx.intern(&h.vset(&["b", "d", "e"]));
        let r = idx.block_rows_from(parent, sep);
        // `δ = {d, e}` is a whole parent component: nothing is explored
        // or interned, the other rows keep their ids.
        let untouched = [parent_rows[0], parent_rows[1], parent_rows[3]];
        assert_eq!(idx.rows(r), &untouched[..]);
        assert_eq!(idx.arena.len(), interned + 1, "only `sep` itself is new");
        assert_eq!(idx.stats().rounds, rounds);
        assert_eq!(
            resolved_rows(&mut idx, &h.vset(&["b", "d", "e"])),
            rows_by_definition(&h, &h.vset(&["b", "d", "e"]))
        );
    }

    #[test]
    fn a_delta_touching_one_component_re_explores_only_that_one() {
        let h = path_edge_and_isolated_vertex();
        let mut idx = BlockIndex::new(&h);
        let parent = idx.intern(&h.vset(&["b"]));
        let parent_rows = {
            let r = idx.block_rows(parent);
            idx.rows(r).to_vec()
        };
        let sep_set = h.vset(&["b", "d"]);
        let sep = idx.intern(&sep_set);
        let r = idx.block_rows_from(parent, sep);
        let rows = idx.rows(r).to_vec();
        assert_eq!(rows.len(), 4);
        assert_eq!(
            [rows[0], rows[1], rows[3]],
            [parent_rows[0], parent_rows[1], parent_rows[3]]
        );
        assert_eq!(idx.arena.to_bitset(rows[2].0), h.vset(&["e"]));
        assert_eq!(idx.arena.to_bitset(rows[2].1), h.vset(&["d", "e"]));
        assert_eq!(
            resolved_rows(&mut idx, &sep_set),
            rows_by_definition(&h, &sep_set)
        );
    }

    #[test]
    fn the_full_separator_has_no_rows_and_isolated_vertices_cover_nothing() {
        let h = path_edge_and_isolated_vertex();
        let mut idx = BlockIndex::new(&h);
        let z = h.vset(&["z"]);
        let root = resolved_rows(&mut idx, &h.empty_vertex_set());
        assert_eq!(root, rows_by_definition(&h, &h.empty_vertex_set()));
        assert_eq!(root.last(), Some(&(z.clone(), h.empty_vertex_set())));
        // Through a chain that first leaves `z` alone, then takes it.
        let (s1, s2) = (h.vset(&["a", "d"]), h.vset(&["a", "d", "z"]));
        let rows1 = resolved_rows_from(&mut idx, &h.empty_vertex_set(), &s1);
        assert_eq!(rows1, rows_by_definition(&h, &s1));
        assert_eq!(rows1.last(), Some(&(z, h.empty_vertex_set())));
        assert_eq!(
            resolved_rows_from(&mut idx, &s1, &s2),
            rows_by_definition(&h, &s2)
        );
        assert_eq!(resolved_rows_from(&mut idx, &s2, &h.all_vertices()), vec![]);
        assert_eq!(
            resolved_rows(&mut BlockIndex::new(&h), &h.all_vertices()),
            vec![]
        );
    }

    #[test]
    fn the_same_separator_through_different_parents_has_the_same_rows() {
        let h = named::grid(4, 4);
        for e1 in 0..h.num_edges() {
            for e2 in e1 + 1..h.num_edges() {
                let sep = h.union_of_edges([e1, e2]);
                let expect = rows_by_definition(&h, &sep);
                // From either edge, from itself, from `∅`, and from a set
                // that is no subset of `sep` (read as `∅`): each on its
                // own index, where the parent's rows were never asked for.
                for parent in [
                    h.edge(e1).clone(),
                    h.edge(e2).clone(),
                    sep.clone(),
                    h.empty_vertex_set(),
                    h.all_vertices(),
                ] {
                    let mut idx = BlockIndex::new(&h);
                    assert_eq!(resolved_rows_from(&mut idx, &parent, &sep), expect);
                    let st = idx.stats();
                    assert_eq!((st.hits, st.misses), (0, 1), "one query, one probe");
                }
            }
        }
    }

    /// Frontier rounds per separator over the λ2 sweep of Definition 3 at
    /// `k = 2` on the `side × side` grid, every row checked against the
    /// definition on the way.
    fn sweep_rounds_per_separator(side: usize, check: bool) -> f64 {
        let h = named::grid(side, side);
        let mut idx = BlockIndex::new(&h);
        let empty = idx.empty();
        idx.block_rows(empty);
        for e1 in 0..h.num_edges() {
            let s1 = idx.intern(h.edge(e1));
            idx.block_rows_from(empty, s1);
            for e2 in e1 + 1..h.num_edges() {
                let sep = h.union_of_edges([e1, e2]);
                let s2 = idx.intern(&sep);
                let r = idx.block_rows_from(s1, s2);
                if check {
                    assert_eq!(
                        resolve(&idx, r),
                        rows_by_definition(&h, &sep),
                        "edges {e1}, {e2}"
                    );
                }
            }
        }
        let st = idx.stats();
        st.rounds as f64 / st.misses as f64
    }

    /// The clock-free form of "a pass costs what `δ` changes": rounds per
    /// separator stay put as the grid grows, where a whole-graph BFS
    /// needs about `2 · side` of them.
    #[test]
    fn rounds_per_separator_do_not_grow_with_the_grid() {
        let small = sweep_rounds_per_separator(6, true);
        let large = sweep_rounds_per_separator(10, false);
        assert!(large <= 8.0, "{large} rounds per separator on grid(10, 10)");
        assert!(
            (large - small).abs() <= 1.0,
            "grid(6, 6): {small}, grid(10, 10): {large}"
        );
    }

    /// A deterministic pseudo-random vertex subset.
    fn derive_set(universe: usize, seed: u64) -> BitSet {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        BitSet::from_iter(
            universe,
            (0..universe).filter(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state.is_multiple_of(3)
            }),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The pass against the definition, on hypergraphs that are
        /// disconnected, that span more than one word of vertices and
        /// that have edgeless vertices; for the empty and the full
        /// separator; and along chains `∅ ⊂ S1 ⊂ S2 ⊂ S3`, each link
        /// derived from the one before.
        #[test]
        fn block_rows_match_definition(
            n in 2usize..90,
            m in 1usize..24,
            seed in 0u64..10_000,
            parts in 1usize..4,
        ) {
            // `parts` vertex-disjoint random hypergraphs side by side.
            let mut b = crate::HypergraphBuilder::new();
            for p in 0..parts {
                let cfg = RandomConfig {
                    num_vertices: n,
                    num_edges: m,
                    min_arity: 1,
                    max_arity: 3.min(n),
                    connect: false,
                };
                let piece = random_hypergraph(&cfg, seed + p as u64);
                for e in 0..piece.num_edges() {
                    let names: Vec<String> =
                        piece.edge(e).iter().map(|v| format!("p{p}v{v}")).collect();
                    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                    b.edge(&format!("p{p}e{e}"), &refs);
                }
                if seed % 2 == 0 {
                    b.vertex(&format!("p{p}lone"));
                }
            }
            let h = b.build_allow_isolated();
            let nv = h.num_vertices();
            let mut idx = BlockIndex::new(&h);
            let mut seps = vec![h.empty_vertex_set(), h.all_vertices()];
            seps.extend((0..4).map(|i| derive_set(nv, seed.wrapping_add(i * 131))));
            seps.extend((0..h.num_edges().min(4)).map(|e| h.edge(e).clone()));
            for sep in &seps {
                let rows = resolved_rows(&mut idx, sep);
                prop_assert_eq!(&rows, &rows_by_definition(&h, sep));
                // Ascending smallest vertex.
                let firsts: Vec<usize> =
                    rows.iter().map(|(c, _)| c.first().expect("non-empty")).collect();
                prop_assert!(firsts.windows(2).all(|w| w[0] < w[1]));
                // A repeat probe is a hit returning the same range.
                let sid = idx.intern(sep);
                let before = idx.stats();
                let first = idx.block_rows(sid);
                let again = idx.block_rows(sid);
                prop_assert_eq!(first, again);
                prop_assert_eq!(idx.stats().hits, before.hits + 2);
                prop_assert_eq!(idx.stats().misses, before.misses);
            }
            // Chains: each link adds a random edge or a sparse random
            // vertex set. `chained` derives every link from its
            // predecessor; `cold` is asked for the last link only, from a
            // parent whose rows it has to compute on the way.
            for chain in 0..4u64 {
                let mut chained = BlockIndex::new(&h);
                let mut links = vec![h.empty_vertex_set()];
                for step in 0..3u64 {
                    let pick = seed.wrapping_add(chain * 7 + step * 3);
                    let mut next = links[links.len() - 1].clone();
                    if pick % 2 == 0 {
                        next.union_with(h.edge(pick as usize % h.num_edges()));
                    } else {
                        let mut sparse = derive_set(nv, pick);
                        sparse.intersect_with(&derive_set(nv, pick.wrapping_add(977)));
                        next.union_with(&sparse);
                    }
                    links.push(next);
                }
                let mut queries = 0;
                for link in links.windows(2) {
                    let rows = resolved_rows_from(&mut chained, &link[0], &link[1]);
                    queries += 1;
                    prop_assert_eq!(&rows, &rows_by_definition(&h, &link[1]));
                    prop_assert_eq!(&rows, &resolved_rows(&mut BlockIndex::new(&h), &link[1]));
                    let firsts: Vec<usize> =
                        rows.iter().map(|(c, _)| c.first().expect("non-empty")).collect();
                    prop_assert!(firsts.windows(2).all(|w| w[0] < w[1]));
                }
                // One probe per query, however the parent was found.
                let st = chained.stats();
                prop_assert_eq!(st.hits + st.misses, queries);
                let mut cold = BlockIndex::new(&h);
                prop_assert_eq!(
                    resolved_rows_from(&mut cold, &links[2], &links[3]),
                    rows_by_definition(&h, &links[3])
                );
                let st = cold.stats();
                prop_assert_eq!((st.hits, st.misses), (0, 1));
            }
        }
    }
}
