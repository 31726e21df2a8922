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
//! The seed recomputed these per solver call — `shw` at width `k+1`
//! re-derived every component it already knew at width `k`, and
//! `component_unions` re-ran a BFS per λ2 subset even across solvers. The
//! [`BlockIndex`] interns every separator and component into a
//! [`BagArena`] and answers both questions with one cached pass per
//! separator ([`BlockIndex::block_rows`]), keyed by [`BagId`], so a
//! (hypergraph, k)-sweep — or a whole `shw` search across all `k` —
//! computes each of them exactly once.
//!
//! The row table is append-only, so cached ranges stay valid as the index
//! grows.

use crate::arena::{word_tail_mask, words_union_into, BagArena, BagId};
use crate::bitset::BitSet;
use crate::fxhash::FxHashMap;
use crate::hypergraph::Hypergraph;
use std::sync::Arc;

/// A `(start, len)` range into the index's append-only row table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SliceRange {
    start: u32,
    len: u32,
}

impl SliceRange {
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
    /// Separator probes answered from the row cache.
    pub hits: u64,
    /// Separator probes that ran a fresh component pass.
    pub misses: u64,
}

/// Per-hypergraph cache of block rows — the `[S]`-components of a
/// separator paired with their coverage unions — keyed on interned
/// [`BagId`]s.
///
/// The index *owns* its hypergraph (as an [`Arc`], shared with every
/// solver instance built from it), so it has no borrow lifetime and can
/// outlive the call that created it — which is what lets the cross-query
/// [`crate::cache::IndexCache`] keep one warm index per structurally
/// distinct hypergraph across solver calls.
pub struct BlockIndex {
    h: Arc<Hypergraph>,
    /// Arena over the vertex universe; owns every separator, component,
    /// closure, and candidate bag this index has seen.
    pub arena: BagArena,
    /// The closed-neighbourhood rows `N[v]`, flat (`words_per_bag` words
    /// per vertex) so the component pass reads one contiguous table
    /// instead of chasing a boxed bitset per vertex.
    adj: Vec<u64>,
    /// Flat storage of cached block rows: `(component, coverage union)`
    /// per component of a separator, in component order.
    row_data: Vec<(BagId, BagId)>,
    /// separator id → its block rows.
    row_cache: FxHashMap<BagId, SliceRange>,
    /// Reusable buffers of the component pass — the per-bag probes of
    /// instance build are hot enough that per-call allocation shows up.
    scratch: PassScratch,
    stats: BlockIndexStats,
}

/// Word buffers of [`BlockIndex::block_rows`]' component pass.
#[derive(Default)]
struct PassScratch {
    /// Separator plus every vertex explored so far.
    seen: Vec<u64>,
    /// The component being grown.
    comp: Vec<u64>,
    /// Vertices added in the previous round.
    frontier: Vec<u64>,
    /// `⋃ N[v]` over the component's expanded vertices.
    acc: Vec<u64>,
}

impl BlockIndex {
    /// Creates an empty index for a clone of `h`.
    pub fn new(h: &Hypergraph) -> Self {
        Self::from_arc(Arc::new(h.clone()))
    }

    /// Creates an empty index sharing ownership of `h` (no clone).
    pub fn from_arc(h: Arc<Hypergraph>) -> Self {
        let arena = BagArena::new(h.num_vertices());
        let words = arena.words_per_bag();
        let mut adj = vec![0u64; h.num_vertices() * words];
        for (v, row) in adj.chunks_exact_mut(words).enumerate() {
            row.copy_from_slice(h.closed_neighbourhood(v).blocks());
        }
        BlockIndex {
            h,
            arena,
            adj,
            row_data: Vec::new(),
            row_cache: FxHashMap::default(),
            scratch: PassScratch::default(),
            stats: BlockIndexStats::default(),
        }
    }

    /// Approximate heap footprint in bytes: the owned hypergraph, the
    /// arena, the flat adjacency, the block-row table and the pass
    /// scratch. The row map is estimated at its entry payload plus one
    /// word of table overhead per entry. Feeds the service's
    /// `bytes_per_cached_schema` stat.
    pub fn approx_bytes(&self) -> u64 {
        let s = &self.scratch;
        let words = self.adj.capacity()
            + s.seen.capacity()
            + s.comp.capacity()
            + s.frontier.capacity()
            + s.acc.capacity();
        let rows = self.row_data.capacity() * std::mem::size_of::<(BagId, BagId)>()
            + self.row_cache.len() * (std::mem::size_of::<(BagId, SliceRange)>() + 8);
        self.h.approx_bytes() + self.arena.approx_bytes() + (words * 8 + rows) as u64
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
    /// One pass yields both columns: the BFS grows a component a frontier
    /// at a time — OR the `N[v]` rows of the frontier into an
    /// accumulator, then `new = acc & !seen` word-wise — and the
    /// accumulator it ends with *is* `⋃C`.
    pub fn block_rows(&mut self, sep: BagId) -> SliceRange {
        if let Some(&r) = self.row_cache.get(&sep) {
            self.stats.hits += 1;
            return r;
        }
        self.stats.misses += 1;
        let n = self.h.num_vertices();
        let words = self.arena.words_per_bag();
        let PassScratch {
            seen,
            comp,
            frontier,
            acc,
        } = &mut self.scratch;
        // `seen` starts as the separator: separator vertices are never
        // explored, and every explored vertex is marked here.
        seen.clear();
        seen.extend_from_slice(self.arena.words(sep));
        for buf in [&mut *comp, &mut *frontier, &mut *acc] {
            buf.resize(words, 0);
        }
        let start = self.row_data.len();
        for wi in 0..words {
            let live = word_tail_mask(n, wi);
            loop {
                // Smallest unexplored vertex: components come out in
                // ascending order of their smallest vertex.
                let free = !seen[wi] & live;
                if free == 0 {
                    break;
                }
                let seed = free & free.wrapping_neg();
                comp.fill(0);
                acc.fill(0);
                frontier.fill(0);
                seen[wi] |= seed;
                comp[wi] = seed;
                frontier[wi] = seed;
                loop {
                    for (fi, &fw) in frontier.iter().enumerate() {
                        let mut bits = fw;
                        while bits != 0 {
                            let v = fi * 64 + bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            words_union_into(&self.adj[v * words..(v + 1) * words], acc);
                        }
                    }
                    let mut any = 0u64;
                    for i in 0..words {
                        let new = acc[i] & !seen[i];
                        seen[i] |= new;
                        comp[i] |= new;
                        frontier[i] = new;
                        any |= new;
                    }
                    if any == 0 {
                        break;
                    }
                }
                let row = (self.arena.intern_words(comp), self.arena.intern_words(acc));
                self.row_data.push(row);
            }
        }
        let r = SliceRange::of(start, self.row_data.len() - start);
        self.row_cache.insert(sep, r);
        r
    }

    /// Resolves a block-row range returned by [`BlockIndex::block_rows`]
    /// into `(component, coverage union)` pairs.
    #[inline]
    pub fn rows(&self, r: SliceRange) -> &[(BagId, BagId)] {
        &self.row_data[r.start as usize..(r.start + r.len) as usize]
    }

    /// Interns a [`BitSet`] into the index's arena.
    #[inline]
    pub fn intern(&mut self, set: &BitSet) -> BagId {
        self.arena.intern(set)
    }

    /// Interns the empty separator.
    #[inline]
    pub fn empty(&mut self) -> BagId {
        self.arena.empty_bag()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::named;
    use crate::random::{random_hypergraph, RandomConfig};
    use proptest::prelude::*;

    /// `block_rows(sep)` resolved to bitsets.
    fn resolved_rows(idx: &mut BlockIndex, sep: &BitSet) -> Vec<(BitSet, BitSet)> {
        let sid = idx.intern(sep);
        let r = idx.block_rows(sid);
        idx.rows(r)
            .iter()
            .map(|&(c, u)| (idx.arena.to_bitset(c), idx.arena.to_bitset(u)))
            .collect()
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

        /// The fused pass against the definition, on hypergraphs that
        /// are disconnected, that span more than one word of vertices,
        /// and for the empty and the full separator.
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
            }
            let h = b.build();
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
        }
    }
}
