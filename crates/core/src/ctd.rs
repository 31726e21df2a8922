//! The `CandidateTD` problem and **Algorithm 1** of the paper
//! (Section 3): given a hypergraph `H` and a set `S` of candidate bags,
//! decide whether a CompNF tree decomposition using only bags from `S`
//! exists — and, going beyond the paper's decision version, extract one.
//!
//! Terminology (paper, Section 3):
//! - a **block** is a pair `(S, C)` with `C` a maximal set of
//!   `[S]`-connected vertices (or `C = ∅`, which is trivially satisfied and
//!   never materialised here);
//! - `(X, Y) ≤ (S, C)` iff `X ∪ Y ⊆ S ∪ C` and `Y ⊆ C`;
//! - a bag `X ≠ S` is a **basis** of `(S, C)` if, with `(X, Y_1..Y_ℓ)` the
//!   blocks headed by `X` that are `≤ (S, C)`: (1) `C ⊆ X ∪ ⋃Y_i`,
//!   (2) every edge intersecting `C` is inside `X ∪ ⋃Y_i`, and (3) every
//!   `(X, Y_i)` is satisfied. (Condition (1) follows from (2) since the
//!   hypergraph has no isolated vertices.)
//!
//! Instances are built from a shared [`BlockIndex`], so the
//! `[S]`-components of every candidate bag are computed once per
//! hypergraph — not once per solver call (see [`CtdInstance::build`]) —
//! and so that nothing is hashed twice: the index has already interned
//! every bag, cover and `req`, and its ids are distinct exactly when the
//! contents are. The instance therefore deduplicates through a dense
//! remap keyed by index id and copies each distinct row once into flat,
//! exactly-sized storage (or, from an index handed over to it, gathers
//! the rows in place); it owns no hash table, because
//! nothing is interned into an instance after it is built. The
//! satisfaction DP is a flat `Vec` over block ids, and the hot
//! subset/union checks run word-level on the packed rows.
//!
//! **A block stores no component.** A [`Block`] is `(S, ⋃C, req)` with
//! `req = ⋃C ∩ S`, as the index's rows are: `C` is maximal
//! `[S]`-connected, so every vertex of `⋃C` outside `C` lies in `S`, and
//! every vertex of `C` lies on an edge, so `C = ⋃C ∖ S = ⋃C ∖ req`
//! ([`CtdInstance::component`]). An edgeless vertex `v`, whose `⋃C` is
//! empty, has `{v}` as its cover row instead, which keeps the identity
//! and, since the witness union holds `C`, every coverage test below. So
//! `X ⊆ S ∪ C` is `X ⊆ S ∪ ⋃C`, the readers below take `C` as
//! `⋃C ∖ req` word by word, and blocks share `C` exactly when they share
//! the `(cover, req)` rows, `C` determining both. Most `req`s are the
//! head itself, a bag row already, so beside the bags an instance holds
//! little more than the distinct covers.
//!
//! ## The satisfaction engine
//!
//! The basis conditions split into a *state-independent* part — `X ≠ S`,
//! `X ⊆ S ∪ C`, and the edge-coverage condition (2) — and a *state-
//! dependent* part, condition (3): every child block satisfied. The
//! state-independent part needs no table. With `req = cover ∖ C`, the
//! vertices outside `C` that share an edge with it (a row of the block),
//! condition (2) holds iff `X ⊇ req`. A bag missing a `req` vertex cannot cover it, because
//! child components only hold vertices of `C`. And with `req ⊆ X`, every
//! `[X]`-component that meets `C` stays inside `C`, because leaving `C`
//! means stepping onto a vertex of `req`; so `X` with those components
//! covers `C ∪ req = cover`. A block's **viable candidates** are
//! therefore the bags holding `req`, found through an inverted vertex →
//! bags index (`VertexBags`), less `S` and the bags outside `S ∪ ⋃C`
//! (`x & !(s | cover) == 0` over the three rows). A candidate's children
//! are the blocks it heads whose component meets `C`: one bit test of
//! `cover ∖ req` on the component's smallest vertex.
//!
//! **Children are smaller, so one pass settles every block.** A child
//! `(X, Y)` of a viable candidate of `(S, C)` has `Y ⊆ C`. If `Y = C`,
//! then `X` misses `C` (a component misses its separator), so `X ⊆ S ∪ C`
//! gives `X ⊆ S`, and `X ≠ S` gives `X ⊊ S`. Every child is therefore
//! strictly smaller in `(|C|, |S|)`, and a pass over the blocks in
//! ascending `(|C|, C, |S|)` (`CtdInstance::pass_order`, `C` by its
//! `(req, cover)` rows and `|C| = |cover| − |req|`) reads only children
//! it has already settled — the shape of Moll,
//! Tazari and Thurley's exact-width dynamic programs, where each state is
//! finalised from strictly smaller ones.
//!
//! **A bag that misses `C` is never a first choice.** Such a viable
//! candidate `X` of `(S, C)` lies inside `S`, and with `req ⊆ X` the one
//! `[X]`-component that meets `C` is `C` itself: `X` has the child
//! `(X, C)`. That child's basis `Z` meets `C`, lies inside `X ∪ C ⊆ S ∪
//! C`, is not `S` (which `X ∪ C` does not hold), and has the same
//! children under `(S, C)` as under `(X, C)`, since children depend on
//! the bag and `C` alone. So `Z` is viable for `(S, C)` at the child's
//! wave, below `X`'s, and a rule that judges a candidate by its bag, its
//! children and their values alone takes it there as it did for the
//! child. The first-accept pass therefore drops the bags that miss `C`,
//! and every candidate it keeps has children with `|Y| < |C|` only. A
//! pass that ranks keeps them: under a negative node cost, `X` over
//! `(X, C)` is strictly better than `(X, C)`'s own best candidate.
//!
//! **One read per component.** Blocks that share `C` share `req`, the
//! bags holding it and each such bag's children, and the pass order keeps
//! them together. The pass reads a component once, when it settles its
//! blocks (`CtdInstance::read_component`): one `req` AND, then the bags
//! that meet `C` and lie inside `C ∪ ⋃S` over the blocks' heads `S`, each
//! with its children and its wave, into buffers it reuses from component
//! to component; a pass that ranks also keeps the bags inside the heads
//! that miss `C`. So an instance holds its rows, its blocks and that
//! index, and no per-block table. Sampling and enumeration need a
//! block's whole viable set, and read it per block
//! (`CtdInstance::read_candidates`) through the same AND.
//!
//! The pass gives each block the Jacobi *wave* it would be satisfied in:
//! 0 if a viable candidate has no children, otherwise `1 + max child
//! wave` minimised over viable candidates; its basis is the least bag
//! index that reaches that wave, and its timestamp its rank by (wave,
//! block id). Those are exactly the bases and timestamps of the retained
//! Jacobi reference ([`CtdInstance::satisfy_jacobi`]), where round `r`
//! satisfies, in block order, the unsatisfied blocks with a viable
//! candidate whose children were all satisfied by round `r − 1`. Per
//! component, the pass gives each block the least candidate in (wave,
//! bag) order inside its `S ∪ C` that the rule takes. It reads a
//! candidate's wave off its children when a block first needs it,
//! stops at a child that rules the candidate out, and asks the rule
//! about each bag at most once.
//!
//! Algorithm 2 ([`crate::ctd_opt`]) is this pass for every evaluator,
//! with the evaluator's value in place of the satisfied bit. Under one
//! that does not rank (`Trivial`, `ConCov`) it asks about one candidate
//! at a time in (wave, bag) order until one passes. Under one that ranks,
//! it values each candidate of a run once, from its children's *final*
//! values, and each block keeps the candidate no other one is `better`
//! than, the least in (wave, bag) order among equals. Under the paper's
//! strong monotonicity that value is already optimal, so no block is
//! revisited, and with `better ≡ false` it is the first-accept choice.
//! A bag `X` that misses `C` is read only for a block whose `S ∪ C`
//! holds it and `S ≠ X`: its one child `(X, C)` is then settled, earlier
//! in the run since `|X| < |S|`.
//!
//! Both algorithms read their witness off the basis column with
//! `CtdInstance::extract_tree`, which never places a block twice: every
//! child of a basis is strictly smaller, and the children of one basis
//! have disjoint components. So a revisit means a table from another
//! instance: an error, not an endless recursion.

use crate::budget::Budget;
use crate::error::DecompError;
use crate::soft::LimitExceeded;
use crate::td::TreeDecomposition;
use softhw_hypergraph::arena::{
    word_tail_mask, words_card, words_first_difference, words_iter, words_subset, words_union_into,
};
use softhw_hypergraph::blocks::SliceRange;
use softhw_hypergraph::{BagId, BitSet, BlockIndex, BlockRow, Hypergraph};
use std::sync::{Arc, OnceLock};

/// One materialised block `(S, C)` with `C ≠ ∅`, in 12 bytes. The
/// component is not stored: it is `C = cover ∖ req`
/// ([`CtdInstance::component`]; see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Block {
    /// Index of the head bag, [`NO_HEAD`] for the `∅` head (see
    /// [`Block::head`]).
    head: u32,
    /// `⋃C = C ∪ ⋃{e : e ∩ C ≠ ∅}`, a row of the instance
    /// ([`CtdInstance::words`]) — the block's coverage obligation folded
    /// into one set (`C` itself for the component of an edgeless vertex).
    /// Condition (2) ("every edge intersecting `C` lies inside the
    /// witness union `u`") is equivalent to `cover ⊆ u` whenever
    /// `C ⊆ u`, which every coverage test here guarantees by construction
    /// (the witness union includes all child components, which partition
    /// `C ∖ X`). Storing the union instead of the touching-edge list is
    /// what keeps `k = 2` HyperBench instances in memory: the per-block
    /// edge lists total hundreds of millions of entries, the unions a few
    /// thousand distinct rows.
    pub cover: BagId,
    /// `req = cover ∩ S = cover ∖ C`, a row of the instance: the head's
    /// vertices that share an edge with `C`, most often the head itself.
    pub req: BagId,
}

/// [`Block::head`] of a root block: bag indices are `u32`s below this.
const NO_HEAD: u32 = u32::MAX;

impl Block {
    /// Index of the head bag, or `None` for the `∅` head.
    #[inline]
    pub fn head(&self) -> Option<usize> {
        (self.head != NO_HEAD).then_some(self.head as usize)
    }

    /// Whether bag `x` is this block's head.
    #[inline]
    fn is_headed_by(&self, x: usize) -> bool {
        self.head as usize == x
    }
}

/// The instance's vertex sets — candidate bags, covers and `req`s —
/// as fixed-width rows of one flat vector, addressed by dense [`BagId`]s.
/// Rows `0..num_bags` are the candidate bags in bag order. Equal sets
/// share a row (so id equality is set equality), which the build gets
/// from the index's interning rather than from a table of its own.
struct Rows {
    /// Words per row.
    words: usize,
    data: Vec<u64>,
}

impl Rows {
    #[inline]
    fn get(&self, id: BagId) -> &[u64] {
        &self.data[id.idx() * self.words..(id.idx() + 1) * self.words]
    }
}

/// The row id of candidate bag `x`.
#[inline]
fn bag_row(x: usize) -> BagId {
    BagId(x as u32)
}

/// Converts a table length to the `u32` the block table stores offsets
/// and block ids in. An instance past that is a blown limit, not a wrap.
#[inline]
fn offset(n: usize) -> Result<u32, DecompError> {
    u32::try_from(n).map_err(|_| {
        LimitExceeded {
            what: "block table offsets",
        }
        .into()
    })
}

/// The wave of a candidate [`CtdInstance::ordered_pass`] cannot take: a
/// child is unsatisfied, or the pass's rule turned the candidate down.
const NO_WAVE: u32 = u32::MAX;

/// A candidate's wave before [`CtdInstance::ordered_pass`] reads it off
/// the candidate's children: no pass has that many waves.
const UNREAD: u32 = NO_WAVE - 1;

/// The strict preference [`CtdInstance::ordered_pass`] ranks values by.
pub(crate) type Better<'a, S> = &'a dyn Fn(&S, &S) -> bool;

/// Candidate `i`'s wave off the settled `basis`: `1 +` its children's
/// greatest (0 without children), `NO_WAVE` if a child is unsatisfied,
/// and `UNREAD` once a child puts it at `bound` or above.
fn wave_below(read: &Candidates, basis: &[Basis], i: usize, bound: u32) -> u32 {
    let mut w = 0;
    for &c in read.get(i).1 {
        match basis[c as usize].get() {
            None => return NO_WAVE,
            Some((_, cw)) if cw + 1 < bound => w = w.max(cw + 1),
            Some(_) => return UNREAD,
        }
    }
    w
}

/// `ids` stably sorted by `key`, every key below `n`: a counting sort.
fn sorted_by_key(
    ids: impl Iterator<Item = u32> + Clone,
    n: usize,
    key: impl Fn(u32) -> usize,
) -> Vec<u32> {
    let mut start = vec![0u32; n + 1];
    for b in ids.clone() {
        start[key(b) + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut out = vec![0u32; start[n] as usize];
    for b in ids {
        let slot = &mut start[key(b)];
        out[*slot as usize] = b;
        *slot += 1;
    }
    out
}

/// Clock-free work counts of the candidate reads one pass of Algorithm 1
/// makes, one per component ([`CtdInstance::scan_stats`]; exposed for
/// tests, like [`softhw_hypergraph::blocks::BlockIndexStats::rounds`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Blocks settled.
    pub blocks: u64,
    /// Components read: runs of blocks that share one.
    pub components: u64,
    /// Blocks whose component's `req` was as large as the largest bag:
    /// no candidate, and no index word read.
    pub direct: u64,
    /// Words of the vertex × bag table the other components read.
    pub row_words: u64,
    /// Candidates kept: per component, the bags holding `req` that meet
    /// the component and lie inside it and its blocks' heads.
    pub candidates: u64,
    /// Child blocks of those candidates.
    pub children: u64,
}

/// Row words per summary word of [`VertexBags`]: one per summary bit.
const SUMMARY_SPAN: usize = u64::BITS as usize;

/// The inverted vertex → bags index, two levels deep: "bags ⊇ req" is
/// an AND over `req`'s rows instead of a subset test per bag, and the
/// AND first runs on one summary word per [`SUMMARY_SPAN`] row words so
/// it only ever touches the words of a row in which every `req` vertex
/// has a bag at all. Built once per instance; both candidate readers
/// run on it ([`CtdInstance::holders`]).
struct VertexBags {
    /// Vertex × bag bitmask (`xwords` words per row): bit `x` of row `v`
    /// is set iff vertex `v` ∈ bag `x`.
    rows: Vec<u64>,
    /// Per vertex, one word per [`SUMMARY_SPAN`] row words: bit `j` of
    /// summary word `i` is set iff row word `i * SUMMARY_SPAN + j` is
    /// non-zero.
    summary: Vec<u64>,
    /// Words per row.
    xwords: usize,
    /// The largest bag cardinality. No bag holds a `req` larger than
    /// this, and a `req` this large is held only by the bag equal to it.
    max_card: usize,
}

impl VertexBags {
    /// Summary words per row.
    #[inline]
    fn swords(&self) -> usize {
        self.xwords.div_ceil(SUMMARY_SPAN)
    }

    /// Indexes the `num_bags` bag rows over `nv` vertices, both levels in
    /// one pass.
    fn new(nv: usize, rows: &Rows, num_bags: usize) -> Self {
        let xwords = num_bags.div_ceil(64).max(1);
        let swords = xwords.div_ceil(SUMMARY_SPAN);
        let mut vrows = vec![0u64; nv * xwords];
        let mut summary = vec![0u64; nv * swords];
        let mut max_card = 0;
        for x in 0..num_bags {
            let w = x / 64;
            let bag = rows.get(bag_row(x));
            max_card = max_card.max(words_card(bag));
            for v in words_iter(bag) {
                vrows[v * xwords + w] |= 1u64 << (x % 64);
                summary[v * swords + w / SUMMARY_SPAN] |= 1u64 << (w % SUMMARY_SPAN);
            }
        }
        VertexBags {
            rows: vrows,
            summary,
            xwords,
            max_card,
        }
    }
}

/// A prepared `CandidateTD` instance: deduplicated bags, the full block
/// table and the inverted vertex → bags index its passes read candidates
/// through. Shared by
/// Algorithm 1 ([`CtdInstance::decide`]) and the constrained/preference
/// variants in [`crate::ctd_opt`]. Owns its hypergraph (shared [`Arc`])
/// and every row it refers to, so it borrows nothing from the
/// index it was built from. [`CtdInstance::build`] leaves that index to
/// the caller and copies the rows; a cold decision hands its index over
/// instead ([`crate::shw::soft_instance`]), and the build releases
/// everything but the index's rows once the blocks are derived, and
/// gathers the instance rows in place out of those.
pub struct CtdInstance {
    /// The hypergraph.
    pub h: Arc<Hypergraph>,
    /// Bags, covers and `req`s; rows `0..num_bags` are the
    /// deduplicated, non-empty candidate bags.
    rows: Rows,
    /// Lazily materialised views of the bags (for evaluator callbacks and
    /// decomposition output). The table is allocated on the first
    /// [`CtdInstance::bag`] call — a rejected decision makes none — and a
    /// bag is materialised on first access: a width sweep only ever
    /// touches the handful of bags its final witness uses.
    bag_sets: OnceLock<Box<[OnceLock<BitSet>]>>,
    /// All blocks with non-empty component. Root blocks come first, then
    /// each bag's blocks in bag order.
    pub blocks: Vec<Block>,
    /// For each bag index, the `(first block, count)` range of the
    /// blocks it heads — a bag's blocks are appended consecutively, so
    /// the adjacency is two `u32`s per bag instead of a heap list.
    pub blocks_by_head: Vec<(u32, u32)>,
    /// Blocks headed by `∅` — one per connected component of `H`.
    pub root_blocks: Vec<usize>,
    /// Bags by vertex, the index every candidate read runs on.
    vertex_bags: VertexBags,
}

/// Result of the satisfaction DP of Algorithm 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Satisfaction {
    /// For each block, its basis bag and the timestamp it was satisfied
    /// at, if it was ([`Basis::get`]).
    pub basis: Vec<Basis>,
    /// Whether all root blocks are satisfied (the "Accept" of Algorithm 1).
    pub accept: bool,
}

/// One block's entry of a [`Satisfaction`] table in 8 bytes: a basis bag
/// index and a timestamp, or nothing.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Basis {
    /// The basis bag index; `u32::MAX` in [`Basis::NONE`].
    pub(crate) bag: u32,
    /// The timestamp the block was satisfied at.
    pub(crate) at: u32,
}

impl Basis {
    /// The entry of an unsatisfied block.
    pub const NONE: Basis = Basis {
        bag: u32::MAX,
        at: 0,
    };

    /// `(basis bag index, timestamp)` if the block is satisfied.
    #[inline]
    pub fn get(self) -> Option<(usize, u32)> {
        (self != Basis::NONE).then_some((self.bag as usize, self.at))
    }
}

impl std::fmt::Debug for Basis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.get().fmt(f)
    }
}

/// An extracted tree over candidate bag indices, before
/// [`CtdInstance::materialise`] turns it into a [`TreeDecomposition`].
pub(crate) struct TdNode {
    pub(crate) bag: usize,
    pub(crate) children: Vec<TdNode>,
}

/// The candidates one read leaves, each with its child blocks, and the
/// buffers it reads them with: a block's viable candidates
/// ([`CtdInstance::read_candidates`]) or the candidates a component's
/// blocks share ([`CtdInstance::read_component`]). A pass keeps one and
/// reuses it from read to read, so the reads allocate nothing once the
/// buffers have grown.
#[derive(Default)]
pub(crate) struct Candidates {
    /// The `req` vertices.
    req: Vec<usize>,
    /// Surviving summary words of the whole row.
    summary: Vec<u64>,
    /// The component read, `C = cover ∖ req`.
    comp: Vec<u64>,
    /// The component with its blocks' heads, `C ∪ ⋃S`.
    closure: Vec<u64>,
    /// The candidate bags, ascending.
    xs: Vec<u32>,
    /// Per candidate, where its children end in `children`; they start
    /// where the previous candidate's end.
    ends: Vec<u32>,
    /// Child block ids, concatenated.
    children: Vec<u32>,
    /// What the reads cost so far.
    stats: ScanStats,
}

impl Candidates {
    /// Candidate `i`, ascending in bag index, with its child blocks.
    fn get(&self, i: usize) -> (usize, &[u32]) {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        (
            self.xs[i] as usize,
            &self.children[start..self.ends[i] as usize],
        )
    }

    /// The candidates with their child blocks, ascending in bag index.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &[u32])> {
        (0..self.xs.len()).map(|i| self.get(i))
    }

    /// Empties the candidate lists for the next read.
    fn clear(&mut self) {
        self.xs.clear();
        self.ends.clear();
        self.children.clear();
    }
}

/// `dst &= src`, returning whether any bit survived.
#[inline]
fn and_into_any(src: &[u64], dst: &mut [u64]) -> bool {
    let mut any = 0u64;
    for (d, &s) in dst.iter_mut().zip(src) {
        *d &= s;
        any |= *d;
    }
    any != 0
}

/// Resolves the block rows of the bags `seps` against the shared index:
/// the component passes of an instance build, run ahead of block
/// derivation so they are attributed to their own span.
fn resolve_rows(
    index: &mut BlockIndex,
    seps: &[BagId],
    budget: &Budget,
) -> Result<Vec<SliceRange>, DecompError> {
    let _span = softhw_obs::span(softhw_obs::stage::COMPONENTS);
    let mut rows = Vec::with_capacity(seps.len());
    for &sep in seps {
        budget.tick()?;
        rows.push(index.block_rows(sep));
    }
    Ok(rows)
}

/// The first half of an instance build: the blocks, their rows still in
/// the index ([`Layout::derive`]).
struct Layout {
    h: Arc<Hypergraph>,
    blocks: Vec<Block>,
    blocks_by_head: Vec<(u32, u32)>,
    root_blocks: Vec<usize>,
}

impl Layout {
    /// Derives the blocks of the bags `bags` (empty bags dropped,
    /// duplicates merged) off the index, with the index id of every
    /// instance row, in row order: the bags, then the covers and `req`s
    /// in first-block order (a `req` equal to its head is the head's
    /// row).
    fn derive(
        index: &mut BlockIndex,
        bags: &[BagId],
        budget: &Budget,
    ) -> Result<(Layout, Vec<BagId>), DecompError> {
        // Index id → instance row, `NO_ROW` until the id is first seen;
        // `order` lists the index ids in row order. Index ids are
        // distinct exactly when their contents are, so this is the whole
        // of deduplication.
        const NO_ROW: u32 = u32::MAX;
        fn row_of(remap: &mut [u32], order: &mut Vec<BagId>, id: BagId) -> BagId {
            let slot = &mut remap[id.idx()];
            if *slot == NO_ROW {
                *slot = order.len() as u32;
                order.push(id);
            }
            BagId(*slot)
        }
        let mut remap: Vec<u32> = vec![NO_ROW; index.arena.len()];
        // Bags first, so bag `x` is row `x`: dedup and drop empties,
        // preserving first-occurrence order.
        let mut order: Vec<BagId> = Vec::new();
        for &b in bags {
            if !index.arena.bag_is_empty(b) {
                row_of(&mut remap, &mut order, b);
            }
        }
        let num_bags = order.len();
        let empty = index.empty();
        let root_rows = index.block_rows(empty);
        let bag_rows = resolve_rows(index, &order, budget)?;
        // The passes interned the covers and `req`s new to the index.
        remap.resize(index.arena.len(), NO_ROW);
        let mut blocks = Vec::with_capacity(
            root_rows.len() + bag_rows.iter().map(SliceRange::len).sum::<usize>(),
        );
        let mut block = |head: u32, row: BlockRow| Block {
            head,
            cover: row_of(&mut remap, &mut order, row.cover),
            req: row_of(&mut remap, &mut order, row.req),
        };
        let mut root_blocks = Vec::with_capacity(root_rows.len());
        for &row in index.rows(root_rows) {
            root_blocks.push(blocks.len());
            blocks.push(block(NO_HEAD, row));
        }
        let mut blocks_by_head: Vec<(u32, u32)> = Vec::with_capacity(num_bags);
        for (sid, &rows_r) in bag_rows.iter().enumerate() {
            budget.tick()?;
            blocks_by_head.push((offset(blocks.len())?, offset(rows_r.len())?));
            for &row in index.rows(rows_r) {
                blocks.push(block(sid as u32, row));
            }
        }
        // Block ids are stored as `u32` from here on.
        offset(blocks.len())?;
        let layout = Layout {
            h: index.hypergraph_arc().clone(),
            blocks,
            blocks_by_head,
            root_blocks,
        };
        Ok((layout, order))
    }
}

/// Copies the rows `order` names, in that order: `row` gives the `words`
/// words of an index id.
fn copy_rows<'a>(order: Vec<BagId>, words: usize, row: impl Fn(BagId) -> &'a [u64]) -> Rows {
    let mut data: Vec<u64> = Vec::with_capacity(order.len() * words);
    for id in order {
        data.extend_from_slice(row(id));
    }
    Rows { words, data }
}

/// The rows `order` names, in that order, gathered in place out of
/// `data`, the arena's storage (`words` words per arena row), which is
/// then cut to them: what [`copy_rows`] makes, with no second copy alive.
/// `order` names each arena row at most once, so moving every row to its
/// place is a set of chains and cycles, followed with one carried row
/// over an arena row → instance row map.
fn gather_rows(mut data: Vec<u64>, order: Vec<BagId>, words: usize) -> Rows {
    const STAYS: u32 = u32::MAX;
    // Arena row → the instance row its words move to; `STAYS` for a row
    // no instance row wants, or one already moved.
    let mut to = vec![STAYS; data.len() / words];
    for (row, id) in order.iter().enumerate() {
        to[id.idx()] = row as u32;
    }
    let n = order.len();
    drop(order);
    let mut carried = vec![0u64; words];
    for start in 0..to.len() {
        if to[start] == STAYS {
            continue;
        }
        // Carry `start`'s words to their row, pick up the words there if
        // they still have to move, and so on until a row takes them that
        // has nothing left to give.
        carried.copy_from_slice(&data[start * words..(start + 1) * words]);
        let mut at = start;
        loop {
            let dst = std::mem::replace(&mut to[at], STAYS) as usize;
            let row = &mut data[dst * words..(dst + 1) * words];
            if to[dst] == STAYS {
                row.copy_from_slice(&carried);
                break;
            }
            row.swap_with_slice(&mut carried);
            at = dst;
        }
    }
    data.truncate(n * words);
    data.shrink_to_fit();
    Rows { words, data }
}

impl CtdInstance {
    /// Builds the block table for hypergraph `h` and candidate bag set
    /// `bags` (empty bags are dropped, duplicates merged) using a private
    /// [`BlockIndex`]. Prefer [`CtdInstance::build`] with a shared index
    /// when decomposing the same hypergraph repeatedly, as the exact `shw`
    /// sweep of [`crate::solve`] does across its widths.
    pub fn new(h: &Hypergraph, bags: &[BitSet]) -> Self {
        let mut index = BlockIndex::new(h);
        let ids: Vec<BagId> = bags.iter().map(|b| index.arena.intern(b)).collect();
        Self::build(&mut index, &ids)
    }

    /// Builds an instance from bags interned in a shared [`BlockIndex`].
    /// Each bag's components and coverage unions come from the index's
    /// row cache ([`BlockIndex::block_rows`]), so consecutive instances
    /// over the same hypergraph (e.g. the `shw` width sweep, or repeated
    /// constrained queries) only pay for bags never seen before.
    pub fn build(index: &mut BlockIndex, bags: &[BagId]) -> Self {
        Self::build_budgeted(index, bags, &Budget::unlimited())
            .expect("the unlimited budget cannot trip")
    }

    /// [`CtdInstance::build`] with a cooperative [`Budget`], checked per
    /// candidate bag. On a budget error the
    /// partially built instance is dropped; the shared index keeps only
    /// fully-computed cache entries, so a retry is safe and produces an
    /// instance bit-identical to a never-interrupted build.
    pub fn build_budgeted(
        index: &mut BlockIndex,
        bags: &[BagId],
        budget: &Budget,
    ) -> Result<Self, DecompError> {
        let _span = softhw_obs::span(softhw_obs::stage::INSTANCE_BUILD);
        let (layout, order) = Layout::derive(index, bags, budget)?;
        let arena = &index.arena;
        let rows = copy_rows(order, arena.words_per_bag(), |id| arena.words(id));
        Ok(Self::assemble(layout, rows))
    }

    /// [`CtdInstance::build_budgeted`] on an index the caller is done
    /// with, which it releases as soon as the build has read what it
    /// needs: all but the arena's rows once the blocks are derived (the
    /// row cache, the adjacency and the intern table), and the arena
    /// rows the instance does not use once the others are gathered in
    /// place ([`gather_rows`]). The instance rows never sit beside a
    /// second copy, and nothing but them is alive when the inverted index
    /// is sized. The instance is the one the borrowing build makes.
    pub(crate) fn build_owned(
        mut index: BlockIndex,
        bags: &[BagId],
        budget: &Budget,
    ) -> Result<Self, DecompError> {
        let _span = softhw_obs::span(softhw_obs::stage::INSTANCE_BUILD);
        let (layout, order) = Layout::derive(&mut index, bags, budget)?;
        let arena = index.into_arena().into_snapshot();
        let words = arena.words_per_bag();
        let rows = gather_rows(arena.storage, order, words);
        Ok(Self::assemble(layout, rows))
    }

    /// The second half of a build: the inverted vertex → bags index over
    /// the instance's rows.
    fn assemble(layout: Layout, rows: Rows) -> Self {
        let Layout {
            h,
            blocks,
            blocks_by_head,
            root_blocks,
        } = layout;
        let vertex_bags = {
            let _span = softhw_obs::span(softhw_obs::stage::DEPS_SCAN);
            VertexBags::new(h.num_vertices(), &rows, blocks_by_head.len())
        };
        CtdInstance {
            h,
            rows,
            bag_sets: OnceLock::new(),
            blocks,
            blocks_by_head,
            root_blocks,
            vertex_bags,
        }
    }

    /// Number of (deduplicated, non-empty) candidate bags.
    #[inline]
    pub fn num_bags(&self) -> usize {
        self.blocks_by_head.len()
    }

    /// What the candidate reads of one pass of Algorithm 1 cost: one
    /// `CtdInstance::read_component` per run of blocks that share a
    /// component, in pass order.
    pub fn scan_stats(&self) -> ScanStats {
        let mut read = Candidates::default();
        for run in self.runs(&self.pass_order()) {
            self.read_component(run, false, &mut read);
        }
        read.stats
    }

    /// Heap bytes this instance holds: the capacities of its vectors,
    /// counted and not walked, and the slot table of the bag views once
    /// a bag was asked for (not the few views materialised in it).
    pub fn heap_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let views = (self.bag_sets.get()).map_or(0, |views| std::mem::size_of_val(&**views));
        bytes(&self.rows.data)
            + bytes(&self.blocks)
            + bytes(&self.blocks_by_head)
            + bytes(&self.root_blocks)
            + bytes(&self.vertex_bags.rows)
            + bytes(&self.vertex_bags.summary)
            + views
    }

    /// Materialised view of bag `x` (built on first access, then
    /// cached; the accessor stays `&self` for evaluator callbacks and
    /// instances shared across service workers).
    #[inline]
    pub fn bag(&self, x: usize) -> &BitSet {
        let views = self
            .bag_sets
            .get_or_init(|| (0..self.num_bags()).map(|_| OnceLock::new()).collect());
        views[x].get_or_init(|| BitSet::from_blocks(self.rows.get(bag_row(x))))
    }

    /// The packed words of row `id` — a [`Block`]'s `cover` or `req` —
    /// for word-level algebra over blocks.
    #[inline]
    pub fn words(&self, id: BagId) -> &[u64] {
        self.rows.get(id)
    }

    /// The packed words of block `b`'s component, `C = cover ∖ req`.
    pub fn component(&self, b: usize) -> Vec<u64> {
        let mut comp = Vec::new();
        self.load_component(&self.blocks[b], &mut comp);
        comp
    }

    /// Loads bag `x` into a scratch buffer for incremental union building.
    #[inline]
    pub fn load_bag(&self, x: usize, buf: &mut Vec<u64>) {
        buf.clear();
        buf.extend_from_slice(self.rows.get(bag_row(x)));
    }

    /// `X ⊆ S ∪ C` for bag `x` and block `blk = (S, C)`, straight off the
    /// three rows as `X ⊆ S ∪ ⋃C`: `⋃C ∖ C = req` lies inside `S`.
    #[inline]
    fn in_closure(&self, x: usize, blk: &Block) -> bool {
        let (xw, cw) = (self.rows.get(bag_row(x)), self.rows.get(blk.cover));
        match blk.head() {
            Some(s) => {
                let sw = self.rows.get(bag_row(s));
                xw.iter()
                    .zip(sw.iter().zip(cw))
                    .all(|(x, (s, c))| x & !(s | c) == 0)
            }
            None => words_subset(xw, cw),
        }
    }

    /// Checks the basis conditions of bag `x` for block `b` from first
    /// principles, given the current satisfaction state. This is the
    /// reference predicate of the Jacobi engine; the one pass answers
    /// the same question from the candidates it reads.
    /// `buf` is caller-provided scratch (cleared here) so round-scans
    /// don't allocate per check.
    pub fn is_basis_with(
        &self,
        b: usize,
        x: usize,
        satisfied: &[bool],
        buf: &mut Vec<u64>,
    ) -> bool {
        let blk = &self.blocks[b];
        if blk.is_headed_by(x) {
            return false; // X ≠ S
        }
        if !self.in_closure(x, blk) {
            return false;
        }
        self.load_bag(x, buf);
        let (cover, req) = (self.rows.get(blk.cover), self.rows.get(blk.req));
        let (hb_start, hb_len) = self.blocks_by_head[x];
        // The range is over block *ids* (a bag's blocks are contiguous),
        // not positions in one slice.
        #[allow(clippy::needless_range_loop)]
        for b2 in hb_start as usize..(hb_start + hb_len) as usize {
            let child = &self.blocks[b2];
            let (cc, cq) = (self.rows.get(child.cover), self.rows.get(child.req));
            // `C2 ⊆ C`, with `C2 = cc ∖ cq` and `C = cover ∖ req`.
            let inside = (cc.iter().zip(cq).zip(cover.iter().zip(req)))
                .all(|((c2, q2), (c, q))| c2 & !q2 & !(c & !q) == 0);
            if inside {
                if !satisfied[b2] {
                    return false;
                }
                for (w, (c2, q2)) in buf.iter_mut().zip(cc.iter().zip(cq)) {
                    *w |= c2 & !q2;
                }
            }
        }
        // Condition (2): with all child components in `buf`, `C ⊆ buf`,
        // so "every touching edge inside `buf`" is exactly `cover ⊆ buf`.
        words_subset(self.rows.get(blk.cover), buf)
    }

    /// The AND kernel of both candidate readers: sets `out`'s candidates
    /// to the bags holding block `blk`'s `req = cover ∖ C` that `keep`
    /// keeps, ascending and without children yet, and returns `false`
    /// when no index word needs reading.
    ///
    /// `req ⊆ S`: a vertex outside `C` that shares an edge with `C` would
    /// belong to `C` were it not in `S`. So when `|req|` equals the
    /// largest bag cardinality, `S = req` is the one bag holding `req`
    /// (a root block's `req` is empty, as large only without bags), and
    /// no block of the component has a candidate: the kernel reads
    /// nothing. Otherwise the bags holding `req` come from the inverted
    /// index, top level first: the AND of the `req` vertices' summary
    /// rows names the row words in which every `req` vertex has a bag at
    /// all, and the row AND then reads exactly those words. That costs
    /// `|req| × bags / 4096` summary words plus at most `|req|` words per
    /// surviving row word ([`ScanStats::row_words`] counts them), where a
    /// flat AND reads `|req| × bags / 64` words.
    fn holders(
        &self,
        blk: &Block,
        out: &mut Candidates,
        mut keep: impl FnMut(usize) -> bool,
    ) -> bool {
        out.clear();
        let vb = &self.vertex_bags;
        let Candidates {
            req,
            summary,
            xs,
            stats,
            ..
        } = out;
        req.clear();
        req.extend(words_iter(self.rows.get(blk.req)));
        if req.len() == vb.max_card {
            return false;
        }
        // Top level: the row words in which every `req` vertex has some bag.
        let (xwords, swords) = (vb.xwords, vb.swords());
        summary.clear();
        summary.extend((0..swords).map(|si| word_tail_mask(xwords, si)));
        for &v in req.iter() {
            if !and_into_any(&vb.summary[v * swords..(v + 1) * swords], summary) {
                return true;
            }
        }
        for (si, &live) in summary.iter().enumerate() {
            let mut live_words = live;
            while live_words != 0 {
                let w = si * SUMMARY_SPAN + live_words.trailing_zeros() as usize;
                live_words &= live_words - 1;
                // Only the last row word is partial.
                let mut bits = word_tail_mask(self.num_bags(), w);
                for &v in req.iter() {
                    stats.row_words += 1;
                    bits &= vb.rows[v * xwords + w];
                    if bits == 0 {
                        break;
                    }
                }
                while bits != 0 {
                    let x = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if keep(x) {
                        xs.push(x as u32);
                    }
                }
            }
        }
        true
    }

    /// Loads block `blk`'s component `C = cover ∖ req` into `comp`.
    fn load_component(&self, blk: &Block, comp: &mut Vec<u64>) {
        let (cover, req) = (self.rows.get(blk.cover), self.rows.get(blk.req));
        comp.clear();
        comp.extend(cover.iter().zip(req).map(|(&c, &q)| c & !q));
    }

    /// Lists each of `out`'s candidates' children in the component
    /// `out.comp`, and counts the read.
    fn read_children(&self, out: &mut Candidates) {
        for &x in &out.xs {
            self.blocks_meeting(x as usize, &out.comp, &mut out.children);
            out.ends.push(out.children.len() as u32);
        }
        out.stats.candidates += out.xs.len() as u64;
        out.stats.children += out.children.len() as u64;
    }

    /// Reads the viable candidates of block `b = (S, C)` into `out`,
    /// ascending in bag index, each with its child blocks (see the module
    /// docs): the bags holding `req` ([`CtdInstance::holders`])
    /// that are not `S` and lie inside `S ∪ C`, and per candidate the
    /// blocks it heads whose component meets `C`. A viable `x` is a basis
    /// iff all its children are satisfied. Sampling and enumeration read
    /// through this; the one pass of Algorithms 1 and 2 reads a component
    /// at a time ([`CtdInstance::read_component`]).
    pub(crate) fn read_candidates(&self, b: usize, out: &mut Candidates) {
        out.stats.blocks += 1;
        let blk = &self.blocks[b];
        let viable = |x| !blk.is_headed_by(x) && self.in_closure(x, blk);
        if !self.holders(blk, out, viable) {
            out.stats.direct += 1;
            return;
        }
        self.load_component(blk, &mut out.comp);
        self.read_children(out);
    }

    /// Reads the candidates the blocks of `run` share into `out`,
    /// ascending in bag index, each with its child blocks: `run` is a run
    /// of [`CtdInstance::pass_order`] whose blocks `(S, C)` share `C`, so
    /// they share `req` and one AND ([`CtdInstance::holders`]) serves them
    /// all. Of the bags holding `req`, it keeps those that lie inside
    /// `C ∪ ⋃S = ⋃C ∪ ⋃S` and, unless `missing`, meet `C` (the others are
    /// never a first choice; see the module docs). A kept bag other than
    /// `S` is a viable candidate of each block whose `S ∪ C` holds it,
    /// with the same children in all of them.
    pub(crate) fn read_component(&self, run: &[u32], missing: bool, out: &mut Candidates) {
        out.stats.blocks += run.len() as u64;
        out.stats.components += 1;
        let blk = &self.blocks[run[0] as usize];
        let (mut comp, mut closure) = (
            std::mem::take(&mut out.comp),
            std::mem::take(&mut out.closure),
        );
        self.load_component(blk, &mut comp);
        closure.clear();
        closure.extend_from_slice(self.rows.get(blk.cover));
        for &b in run {
            if let Some(s) = self.blocks[b as usize].head() {
                words_union_into(self.rows.get(bag_row(s)), &mut closure);
            }
        }
        let kept = |x| {
            let (mut meets, mut outside) = (0, 0);
            for ((&w, &c), &k) in self.rows.get(bag_row(x)).iter().zip(&comp).zip(&closure) {
                meets |= w & c;
                outside |= w & !k;
            }
            (missing || meets != 0) && outside == 0
        };
        let read = self.holders(blk, out, kept);
        (out.comp, out.closure) = (comp, closure);
        if !read {
            out.stats.direct += run.len() as u64;
            return;
        }
        self.read_children(out);
    }

    /// Appends to `out` the blocks bag `x` heads whose component meets
    /// the vertex set `c`, in block order. For the component `c` of a
    /// block whose `req` `x` holds, those are exactly the blocks whose
    /// component lies inside `c` (see the module docs), and the
    /// component's smallest vertex decides. A block `x` heads has the
    /// component `cover ∖ x`, its `req` lying in `x`, so the scan reads
    /// one cover row per block beside `x`'s own.
    fn blocks_meeting(&self, x: usize, c: &[u64], out: &mut Vec<u32>) {
        let bag = self.rows.get(bag_row(x));
        let (start, len) = self.blocks_by_head[x];
        for b2 in start..start + len {
            let cover = self.rows.get(self.blocks[b2 as usize].cover);
            let v = words_first_difference(cover, bag).expect("a component is not empty");
            if c[v / 64] >> (v % 64) & 1 != 0 {
                out.push(b2);
            }
        }
    }

    /// The viable candidates of block `b` with their child blocks,
    /// ascending in bag index, read into buffers of their own
    /// (`CtdInstance::read_candidates`).
    pub fn viable_candidates(&self, b: usize) -> impl Iterator<Item = (usize, Vec<u32>)> {
        let mut read = Candidates::default();
        self.read_candidates(b, &mut read);
        let owned: Vec<_> = read.iter().map(|(x, kids)| (x, kids.to_vec())).collect();
        owned.into_iter()
    }

    /// The child blocks bag `x` offers block `b = (S, C)`: the blocks `x`
    /// heads whose component lies inside `C`, when `x` holds `b`'s `req` —
    /// exactly when `x` with those blocks covers `b`'s coverage union —
    /// and none otherwise.
    pub fn child_blocks(&self, b: usize, x: usize) -> Vec<u32> {
        let blk = &self.blocks[b];
        let mut out = Vec::new();
        if words_subset(self.rows.get(blk.req), self.rows.get(bag_row(x))) {
            self.blocks_meeting(x, &self.component(b), &mut out);
        }
        out
    }

    /// Every block id in ascending `(|C|, C, |S|)`, `C` by its
    /// `(req, cover)` rows and a root block's `S` being `∅`: every child
    /// of a viable candidate comes before its parent (see the module
    /// docs), and the blocks that share a component are one run
    /// ([`CtdInstance::runs`]). `req` leads so that runs reading the same
    /// `req` rows of the inverted index follow each other. Ties, which are
    /// never parent and child, keep block order. Four counting sorts,
    /// least significant key first, each reading its key off the rows,
    /// `|C|` as `|cover| − |req|`: `O(blocks + rows + |V|)`, and no table
    /// beside two orders.
    pub(crate) fn pass_order(&self) -> Vec<u32> {
        let card = |row: BagId| words_card(self.rows.get(row));
        let blk = |b: u32| &self.blocks[b as usize];
        let head = |b: u32| blk(b).head().map_or(0, |s| card(bag_row(s)));
        let comp_card = |b: u32| card(blk(b).cover) - card(blk(b).req);
        let n = self.h.num_vertices() + 1;
        let rows = self.rows.data.len() / self.rows.words.max(1);
        let by_head = sorted_by_key(0..self.blocks.len() as u32, n, head);
        let by_cover = sorted_by_key(by_head.iter().copied(), rows, |b| blk(b).cover.idx());
        drop(by_head);
        let by_req = sorted_by_key(by_cover.iter().copied(), rows, |b| blk(b).req.idx());
        drop(by_cover);
        sorted_by_key(by_req.iter().copied(), n, comp_card)
    }

    /// The runs of `order` (a [`CtdInstance::pass_order`]) whose blocks
    /// share one component: one `(cover, req)` pair, since `C` determines
    /// both and `C = cover ∖ req`.
    fn runs<'a>(&'a self, order: &'a [u32]) -> impl Iterator<Item = &'a [u32]> {
        let comp = |b: u32| {
            let blk = &self.blocks[b as usize];
            (blk.cover, blk.req)
        };
        order.chunk_by(move |&a, &b| comp(a) == comp(b))
    }

    /// The one pass of Algorithms 1 and 2: the blocks in
    /// [`CtdInstance::pass_order`], each settled once, a component's run
    /// of blocks together. The run's candidates are read once
    /// ([`CtdInstance::read_component`]), and a candidate's wave is taken
    /// off its children, all settled before the block that asks, when a
    /// block of the run first needs it. `accept(x, children, values)`
    /// gives the value of a node with bag `x` over those child blocks
    /// (`None`: the candidate is out), and is asked about each candidate
    /// at most once per run, so it must depend on its arguments alone.
    /// Without `better`, each block takes the least candidate in (wave,
    /// bag) order inside its `S ∪ C` that `accept` passes. With it, each
    /// block takes the candidate no other one is `better` than, the least
    /// in (wave, bag) order among equals; the read then keeps the bags
    /// that miss `C` too. The candidate's wave is the block's, and a
    /// block's timestamp is its rank by (wave, block id). The budget is
    /// ticked per block, and per rejection or, with `better`, per
    /// candidate valued; all state lives in locals, so a trip leaves
    /// nothing behind.
    pub(crate) fn ordered_pass<S: Clone>(
        &self,
        budget: &Budget,
        better: Option<Better<'_, S>>,
        mut accept: impl FnMut(usize, &[u32], &[Option<S>]) -> Result<Option<S>, DecompError>,
    ) -> Result<(Vec<Basis>, Vec<Option<S>>), DecompError> {
        // The order first: its sort's scratch is gone before the tables
        // are allocated.
        let order = self.pass_order();
        let nb = self.blocks.len();
        // A settled block's timestamp holds its wave until the pass ends.
        let mut basis = vec![Basis::NONE; nb];
        let mut value: Vec<Option<S>> = vec![None; nb];
        let mut waves = 0;
        let mut read = Candidates::default();
        // Per run: each candidate's wave once read (`UNREAD` before,
        // `NO_WAVE` while a child is unsatisfied or once `accept` turned
        // it down), and the value `accept` gave it.
        let (mut waves_of, mut values) = (Vec::new(), Vec::<Option<S>>::new());
        for run in self.runs(&order) {
            self.read_component(run, better.is_some(), &mut read);
            waves_of.clear();
            waves_of.resize(read.xs.len(), UNREAD);
            values.clear();
            values.resize(read.xs.len(), None);
            for &b in run {
                let b = b as usize;
                budget.tick()?;
                let blk = &self.blocks[b];
                let chosen = match better {
                    None => loop {
                        let mut least: Option<usize> = None;
                        for i in 0..waves_of.len() {
                            if waves_of[i] == UNREAD {
                                // A candidate beats `least` only below its
                                // wave: stop reading children at one that
                                // rules it out, and read it again later.
                                let bound = least.map_or(NO_WAVE, |j| waves_of[j]);
                                match wave_below(&read, &basis, i, bound) {
                                    UNREAD => continue,
                                    w => waves_of[i] = w,
                                }
                            }
                            // The read kept only bags inside a lone block's
                            // `S ∪ C`.
                            let w = waves_of[i];
                            if w == NO_WAVE
                                || least.is_some_and(|j| waves_of[j] <= w)
                                || (run.len() > 1 && !self.in_closure(read.xs[i] as usize, blk))
                            {
                                continue;
                            }
                            least = Some(i);
                            if w == 0 {
                                break;
                            }
                        }
                        let Some(i) = least else { break None };
                        if values[i].is_none() {
                            let (x, children) = read.get(i);
                            values[i] = accept(x, children, &value)?;
                            if values[i].is_none() {
                                budget.tick()?;
                                waves_of[i] = NO_WAVE;
                                continue;
                            }
                        }
                        break Some(i);
                    },
                    Some(better) => {
                        let mut best: Option<usize> = None;
                        for i in 0..waves_of.len() {
                            // `X ≠ S` and `X ⊆ S ∪ C` before the wave: a
                            // bag `X` that misses `C` has the one child
                            // `(X, C)`, settled before exactly the blocks
                            // of the run whose `S ∪ C` holds `X`.
                            let (x, children) = read.get(i);
                            if blk.is_headed_by(x) || (run.len() > 1 && !self.in_closure(x, blk)) {
                                continue;
                            }
                            if waves_of[i] == UNREAD {
                                waves_of[i] = wave_below(&read, &basis, i, NO_WAVE);
                            }
                            if waves_of[i] == NO_WAVE {
                                continue;
                            }
                            if values[i].is_none() {
                                budget.tick()?;
                                values[i] = accept(x, children, &value)?;
                            }
                            let Some(new) = &values[i] else {
                                waves_of[i] = NO_WAVE;
                                continue;
                            };
                            // Candidates come in bag order, so among equals
                            // only a lower wave displaces the one held.
                            let beats = best.is_none_or(|j| {
                                values[j].as_ref().is_none_or(|old| {
                                    better(new, old)
                                        || (!better(old, new) && waves_of[i] < waves_of[j])
                                })
                            });
                            if beats {
                                best = Some(i);
                            }
                        }
                        best
                    }
                };
                if let Some(i) = chosen {
                    let w = waves_of[i];
                    basis[b] = Basis {
                        bag: read.xs[i],
                        at: w,
                    };
                    value[b] = values[i].clone();
                    waves = waves.max(w as usize + 1);
                }
            }
        }
        let settled = (0..nb as u32).filter(|&b| basis[b as usize].get().is_some());
        let by_wave = sorted_by_key(settled, waves, |b| basis[b as usize].at as usize);
        for (at, b) in by_wave.into_iter().enumerate() {
            basis[b as usize].at = at as u32;
        }
        Ok((basis, value))
    }

    /// Runs the satisfaction DP of Algorithm 1 in one pass over the
    /// blocks (`CtdInstance::ordered_pass`, every candidate accepted):
    /// each block is settled once, from its already settled children, with
    /// the bases and timestamps of the Jacobi reference
    /// ([`CtdInstance::satisfy_jacobi`]).
    pub fn satisfy(&self) -> Satisfaction {
        self.satisfy_budgeted(&Budget::unlimited())
            .expect("the unlimited budget cannot trip")
    }

    /// [`CtdInstance::satisfy`] with a cooperative [`Budget`], ticked per
    /// block. The DP state lives in locals, so an abort leaves the
    /// instance untouched — a retry recomputes from scratch and is
    /// bit-identical to a never-interrupted run.
    pub fn satisfy_budgeted(&self, budget: &Budget) -> Result<Satisfaction, DecompError> {
        let _span = softhw_obs::span(softhw_obs::stage::SATISFY);
        let (basis, satisfied) = self.ordered_pass(budget, None, |_, _, _| Ok(Some(())))?;
        let accept = self.root_blocks.iter().all(|&b| satisfied[b].is_some());
        Ok(Satisfaction { basis, accept })
    }

    /// The seed's Jacobi-round satisfaction DP, retained as the reference
    /// the one pass is property-tested against: each round rescans every
    /// unsatisfied block against every bag with
    /// [`CtdInstance::is_basis_with`]. Produces bit-identical
    /// [`Satisfaction`] tables to [`CtdInstance::satisfy`]: round `r`
    /// satisfies exactly the blocks of wave `r`.
    pub fn satisfy_jacobi(&self) -> Satisfaction {
        let nb = self.blocks.len();
        let mut satisfied = vec![false; nb];
        let mut basis = vec![Basis::NONE; nb];
        let mut clock: u32 = 0;
        loop {
            let snapshot = &satisfied;
            let mut buf: Vec<u64> = Vec::new();
            let round: Vec<Option<usize>> = (0..nb)
                .map(|b| {
                    if snapshot[b] {
                        return None;
                    }
                    (0..self.num_bags()).find(|&x| self.is_basis_with(b, x, snapshot, &mut buf))
                })
                .collect();
            let mut changed = false;
            for (b, found) in round.into_iter().enumerate() {
                if satisfied[b] {
                    continue;
                }
                if let Some(x) = found {
                    satisfied[b] = true;
                    basis[b] = Basis {
                        bag: x as u32,
                        at: clock,
                    };
                    clock += 1;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let accept = self.root_blocks.iter().all(|&b| satisfied[b]);
        Satisfaction { basis, accept }
    }

    /// Extracts the tree decomposition certified by a satisfaction table.
    /// Returns `Ok(None)` if the instance was rejected, and
    /// [`DecompError::Internal`] if the table is inconsistent with this
    /// instance (an accepted or referenced block without a basis, a basis
    /// bag the instance does not have, a block reached twice, or a table
    /// of the wrong size — e.g. a satisfaction from a different instance)
    /// instead of panicking. For disconnected hypergraphs, the
    /// per-component subtrees are chained under the first component's
    /// root (bags of distinct components are vertex-disjoint, so validity
    /// is preserved).
    pub fn try_extract(
        &self,
        sat: &Satisfaction,
    ) -> Result<Option<TreeDecomposition>, DecompError> {
        if !sat.accept || self.root_blocks.is_empty() {
            return Ok(None);
        }
        let inconsistent =
            || DecompError::internal("satisfaction table inconsistent with this instance");
        let nb = self.blocks.len();
        if sat.basis.len() != nb {
            return Err(inconsistent());
        }
        let mut td = None;
        let mut basis = |b: usize| sat.basis[b].get().map(|(x, _)| x);
        for &rb in &self.root_blocks {
            let root = (self.extract_tree(rb, &mut basis, &mut vec![false; nb]))
                .ok_or_else(inconsistent)?;
            self.materialise(&root, &mut td);
        }
        Ok(td)
    }

    /// [`CtdInstance::try_extract`], panicking on an inconsistent
    /// satisfaction table. Kept for callers that just computed `sat` via
    /// [`CtdInstance::satisfy`] on the same instance, for which the
    /// consistency invariants hold by construction; service and cache
    /// paths use the fallible form and degrade instead.
    pub fn extract(&self, sat: &Satisfaction) -> Option<TreeDecomposition> {
        self.try_extract(sat)
            .expect("satisfaction table consistent with this instance")
    }

    /// The one tree reader of Algorithms 1 and 2, of random sampling and
    /// of the ranked enumeration:
    /// the tree below block `b` in which `choose` names each block's bag,
    /// each block's subtrees those of its bag's child blocks. `None` if
    /// `choose` names no bag for a block on the way, or one this instance
    /// does not have, or a block is met a second time, which a choice of
    /// viable candidates never makes (see the module docs).
    pub(crate) fn extract_tree(
        &self,
        b: usize,
        choose: &mut impl FnMut(usize) -> Option<usize>,
        visited: &mut [bool],
    ) -> Option<TdNode> {
        if visited[b] {
            return None;
        }
        let x = choose(b).filter(|&x| x < self.num_bags())?;
        visited[b] = true;
        let children = (self.child_blocks(b, x).into_iter())
            .map(|b2| self.extract_tree(b2 as usize, choose, visited))
            .collect::<Option<_>>()?;
        Some(TdNode { bag: x, children })
    }

    /// Adds the tree `node` to `td`: as the whole decomposition if `td`
    /// is empty, otherwise under its root — how the per-component trees
    /// of a disconnected hypergraph are chained.
    pub(crate) fn materialise(&self, node: &TdNode, td: &mut Option<TreeDecomposition>) {
        fn rec(inst: &CtdInstance, node: &TdNode, td: &mut TreeDecomposition, parent: usize) {
            let id = td.add_child(parent, inst.bag(node.bag).clone());
            for c in &node.children {
                rec(inst, c, td, id);
            }
        }
        match td {
            Some(t) => {
                let root = t.root();
                rec(self, node, t, root);
            }
            None => {
                let t = td.insert(TreeDecomposition::new(self.bag(node.bag).clone()));
                let root = t.root();
                for c in &node.children {
                    rec(self, c, t, root);
                }
            }
        }
    }

    /// Algorithm 1 end-to-end: decide and extract.
    pub fn decide(&self) -> Option<TreeDecomposition> {
        let sat = self.satisfy();
        self.extract(&sat)
    }

    /// [`CtdInstance::decide`] with a cooperative [`Budget`] and through
    /// the fallible extraction path: the pass checks the budget at every
    /// block and every rejected candidate, the extraction itself is
    /// output-linear and runs to completion once the DP accepted, and an
    /// inconsistent DP result surfaces as [`DecompError::Internal`] rather
    /// than a panic. (With a freshly computed table the invariants hold by
    /// construction, so this only errs on memory corruption or a bug — but
    /// a service must not die on either.)
    pub fn try_decide_budgeted(
        &self,
        budget: &Budget,
    ) -> Result<Option<TreeDecomposition>, DecompError> {
        let sat = self.satisfy_budgeted(budget)?;
        self.try_extract(&sat)
    }
}

/// Convenience wrapper: does a CompNF candidate tree decomposition of `h`
/// with bags from `bags` exist? Returns the witness decomposition.
pub fn candidate_td(h: &Hypergraph, bags: &[BitSet]) -> Option<TreeDecomposition> {
    CtdInstance::new(h, bags).decide()
}

/// Verifies that `td` is a valid tree decomposition of `h` whose bags all
/// come from `bags`. Used to machine-check explicit decompositions from
/// the paper on hypergraphs too large for full search.
pub fn is_candidate_td(h: &Hypergraph, td: &TreeDecomposition, bags: &[BitSet]) -> bool {
    if td.validate(h).is_err() {
        return false;
    }
    td.bags().iter().all(|b| bags.contains(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soft::soft_bags;
    use softhw_hypergraph::named;

    #[test]
    fn trivial_single_bag() {
        let h = named::cycle(4);
        let bags = vec![h.all_vertices()];
        let td = candidate_td(&h, &bags).expect("the full bag always works");
        assert_eq!(td.num_nodes(), 1);
        assert_eq!(td.validate(&h), Ok(()));
    }

    #[test]
    fn rejects_when_bags_insufficient() {
        let h = named::cycle(4);
        // Only tiny bags: no decomposition can cover all edges.
        let bags = vec![h.vset(&["v0", "v1"]), h.vset(&["v2", "v3"])];
        assert!(candidate_td(&h, &bags).is_none());
    }

    #[test]
    fn path_decomposes_with_edge_bags() {
        let h = named::cycle(6);
        // For a cycle, pairs of opposite-ish edges are needed; for the
        // simple smoke test give it the Soft bags of width 2.
        let bags = soft_bags(&h, 2);
        let td = candidate_td(&h, &bags).expect("shw(C6) = 2");
        assert_eq!(td.validate(&h), Ok(()));
        assert!(td.is_comp_nf(&h));
    }

    #[test]
    fn h2_soft_bags_admit_ctd_at_k2() {
        // Example 1: shw(H2) = 2.
        let h = named::h2();
        let bags = soft_bags(&h, 2);
        let td = candidate_td(&h, &bags).expect("shw(H2) = 2 per Example 1");
        assert_eq!(td.validate(&h), Ok(()));
        assert!(td.is_comp_nf(&h));
        // every bag must have an edge cover with at most 2 edges
        for bag in td.bags() {
            assert!(crate::cover::find_cover(&h, bag, 2).is_some());
        }
    }

    #[test]
    fn h2_soft_bags_reject_at_k1() {
        let h = named::h2();
        let bags = soft_bags(&h, 1);
        assert!(candidate_td(&h, &bags).is_none());
    }

    #[test]
    fn extraction_timestamps_guard() {
        // Exercised implicitly by all successful extractions (debug_assert).
        let h = named::h2();
        let inst = CtdInstance::new(&h, &soft_bags(&h, 2));
        let sat = inst.satisfy();
        assert!(sat.accept);
        let td = inst.extract(&sat).unwrap();
        assert_eq!(td.validate(&h), Ok(()));
    }

    #[test]
    fn a_foreign_satisfaction_is_an_error_not_a_panic() {
        let (grid, cycle) = (named::grid(3, 3), named::cycle(5));
        let big = CtdInstance::new(&grid, &soft_bags(&grid, 2));
        let small = CtdInstance::new(&cycle, &soft_bags(&cycle, 2));
        assert_eq!((big.num_bags(), big.blocks.len()), (141, 188));
        assert_eq!((small.num_bags(), small.blocks.len()), (30, 41));
        let (foreign, own) = (big.satisfy(), small.satisfy());
        assert!(foreign.accept && own.accept);
        let is_internal = |sat: &Satisfaction| {
            let got = small.try_extract(sat);
            assert!(matches!(got, Err(DecompError::Internal { .. })), "{got:?}");
        };
        // A table from a different instance.
        is_internal(&foreign);
        // A truncated table.
        let mut truncated = own.clone();
        truncated.basis.pop();
        is_internal(&truncated);
        // An accepted root without a basis.
        let root = small.root_blocks[0];
        let mut rootless = own.clone();
        rootless.basis[root] = Basis::NONE;
        is_internal(&rootless);
        // A basis bag the instance does not have.
        let mut stray = own.clone();
        stray.basis[root] = Basis { bag: 30, at: 0 };
        is_internal(&stray);
        // A block reached a second time is a revisit.
        let (x, _) = own.basis[root].get().unwrap();
        let child = small.child_blocks(root, x)[0] as usize;
        let mut placed = vec![false; small.blocks.len()];
        placed[child] = true;
        let mut basis = |b: usize| own.basis[b].get().map(|(x, _)| x);
        assert!(small.extract_tree(root, &mut basis, &mut placed).is_none());
        // The instance's own table still extracts.
        let td = small.try_extract(&own).unwrap().expect("C5 has shw 2");
        assert_eq!(td.validate(&cycle), Ok(()));
    }

    #[test]
    fn one_pass_agrees_with_jacobi_reference() {
        // Full table equality — bases and timestamps, not just accept.
        for (h, k) in [
            (named::h2(), 1),
            (named::h2(), 2),
            (named::cycle(6), 2),
            (named::grid(3, 3), 2),
            (named::triangle_star(3), 2),
        ] {
            let inst = CtdInstance::new(&h, &soft_bags(&h, k));
            let fast = inst.satisfy();
            let slow = inst.satisfy_jacobi();
            assert_eq!(fast, slow, "k = {k}");
        }
    }

    #[test]
    fn viable_candidates_match_first_principles() {
        let h = named::h2();
        let inst = CtdInstance::new(&h, &soft_bags(&h, 2));
        let all_true = vec![true; inst.blocks.len()];
        let mut buf = Vec::new();
        for b in 0..inst.blocks.len() {
            let viable: Vec<usize> = inst.viable_candidates(b).map(|(x, _)| x).collect();
            let direct: Vec<usize> = (0..inst.num_bags())
                .filter(|&x| inst.is_basis_with(b, x, &all_true, &mut buf))
                .collect();
            assert_eq!(viable, direct, "block {b}");
            for (x, kids) in inst.viable_candidates(b) {
                assert_eq!(inst.child_blocks(b, x), kids);
            }
        }
    }

    #[test]
    fn disconnected_hypergraph_handled() {
        let mut b = softhw_hypergraph::HypergraphBuilder::new();
        b.edge("e1", &["a", "b"]);
        b.edge("e2", &["c", "d"]);
        let h = b.build();
        let bags = vec![h.vset(&["a", "b"]), h.vset(&["c", "d"])];
        let td = candidate_td(&h, &bags).expect("two isolated edges");
        assert_eq!(td.validate(&h), Ok(()));
        assert_eq!(td.num_nodes(), 2);
    }

    #[test]
    fn is_candidate_td_checks_bag_membership() {
        let h = named::h2();
        let bags = soft_bags(&h, 2);
        let (h2, td) = crate::td::tests::h2_soft_td();
        assert_eq!(h.num_edges(), h2.num_edges());
        assert!(is_candidate_td(&h2, &td, &bags));
        // With a restricted bag list the same TD is not a CTD.
        let few = vec![h.all_vertices()];
        assert!(!is_candidate_td(&h2, &td, &few));
    }

    #[test]
    fn dedup_drops_duplicates_and_empties() {
        let h = named::cycle(4);
        let bags = vec![
            h.empty_vertex_set(),
            h.all_vertices(),
            h.all_vertices(),
            h.vset(&["v0", "v1"]),
        ];
        let inst = CtdInstance::new(&h, &bags);
        assert_eq!(inst.num_bags(), 2);
    }

    /// Everything an instance tabulates, with row ids resolved to words:
    /// bags, blocks, head ranges, roots, and per block the viable
    /// candidates with their children.
    #[allow(clippy::type_complexity)]
    fn tables(
        inst: &CtdInstance,
    ) -> (
        Vec<BitSet>,
        Vec<(Option<usize>, Vec<u64>, Vec<u64>)>,
        Vec<(u32, u32)>,
        Vec<usize>,
        Vec<Vec<(usize, Vec<u32>)>>,
    ) {
        let bags = (0..inst.num_bags()).map(|x| inst.bag(x).clone()).collect();
        let blocks = inst
            .blocks
            .iter()
            .map(|b| {
                (
                    b.head(),
                    inst.words(b.cover).to_vec(),
                    inst.words(b.req).to_vec(),
                )
            })
            .collect();
        let viable = (0..inst.blocks.len())
            .map(|b| {
                inst.viable_candidates(b)
                    .map(|(x, kids)| (x, kids.to_vec()))
                    .collect()
            })
            .collect();
        (
            bags,
            blocks,
            inst.blocks_by_head.clone(),
            inst.root_blocks.clone(),
            viable,
        )
    }

    #[test]
    fn remapped_build_dedups_by_index_id_and_shares_rows() {
        // On C6 the bag {v0, v3} has the components {v1, v2} and
        // {v4, v5}; the first is also a candidate bag, listed twice, next
        // to an empty bag and a repeated {v0, v3}.
        let h = named::cycle(6);
        let pair = h.vset(&["v0", "v3"]);
        let inner = h.vset(&["v1", "v2"]);
        let upper = h.vset(&["v0", "v1", "v2", "v3"]);
        let lower = h.vset(&["v3", "v4", "v5", "v0"]);
        let listed = [
            pair.clone(),
            inner.clone(),
            h.empty_vertex_set(),
            pair.clone(),
            upper.clone(),
            lower.clone(),
            inner.clone(),
        ];
        let mut index = BlockIndex::new(&h);
        let ids: Vec<BagId> = listed.iter().map(|b| index.intern(b)).collect();
        let inst = CtdInstance::build(&mut index, &ids);
        assert_eq!(inst.num_bags(), 4);
        // One row serves the bag {v0, v3} and the `req` of its
        // components {v1, v2} and {v4, v5}, and one the bag {v0, .., v3}
        // and the cover of {v1, v2}.
        let (first, count) = inst.blocks_by_head[0];
        assert_eq!(count, 2);
        let blk = inst.blocks[first as usize];
        assert_eq!((blk.cover, blk.req), (bag_row(2), bag_row(0)));
        assert_eq!(inst.component(first as usize), inner.blocks());
        assert_eq!(inst.bag(1), &inner);
        // Equal to an instance over the list a caller deduplicated.
        let clean = CtdInstance::new(&h, &[pair, inner, upper, lower]);
        assert_eq!(tables(&inst), tables(&clean));
        assert_eq!(inst.satisfy(), clean.satisfy());
        assert!(inst.satisfy().accept);
        // The tables answer what the first-principles predicate answers.
        let all_true = vec![true; inst.blocks.len()];
        let mut buf = Vec::new();
        for b in 0..inst.blocks.len() {
            let viable: Vec<usize> = inst.viable_candidates(b).map(|(x, _)| x).collect();
            let direct: Vec<usize> = (0..inst.num_bags())
                .filter(|&x| inst.is_basis_with(b, x, &all_true, &mut buf))
                .collect();
            assert_eq!(viable, direct, "block {b}");
        }
    }

    /// The clock-free form of "the read does not search for supersets
    /// of a head that can have none": on the `side × side` grid at
    /// `k = 2` a growing share of the blocks has a four-vertex `req` and
    /// reads no index word, so the row words read per block stay put as
    /// the grid — and with it every row of the index — grows.
    #[test]
    fn row_reads_per_block_do_not_grow_with_the_grid() {
        let pinned = [
            (6, (3_278, 1_581, 99_005)),
            (8, (9_208, 5_859, 304_782)),
            (10, (21_042, 15_529, 724_838)),
        ];
        for (side, counts) in pinned {
            let mut index = BlockIndex::new(&named::grid(side, side));
            let ids = crate::soft::soft_bag_ids(&mut index, 2, &crate::soft::SoftLimits::default())
                .unwrap();
            let scan = CtdInstance::build(&mut index, &ids).scan_stats();
            let got = (scan.blocks, scan.direct, scan.row_words);
            assert_eq!(got, counts, "grid({side}, {side})");
            assert!(scan.row_words < 36 * scan.blocks, "grid({side}, {side})");
        }
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn offsets_past_u32_are_a_limit_not_a_wrap() {
        assert_eq!(offset(0), Ok(0));
        assert_eq!(offset(u32::MAX as usize), Ok(u32::MAX));
        for n in [u32::MAX as usize + 1, usize::MAX] {
            assert_eq!(
                offset(n),
                Err(DecompError::Limit(LimitExceeded {
                    what: "block table offsets"
                }))
            );
        }
    }

    #[test]
    fn shared_index_instances_agree_with_fresh_ones() {
        // Building many instances off one index must give the same
        // accept/reject and valid decompositions as isolated builds.
        let h = named::h2();
        let mut index = BlockIndex::new(&h);
        for k in 1..=3 {
            let ids = crate::soft::soft_bag_ids(&mut index, k, &crate::soft::SoftLimits::default())
                .unwrap();
            let via_index = CtdInstance::build(&mut index, &ids).decide();
            let via_fresh = candidate_td(&h, &soft_bags(&h, k));
            assert_eq!(via_index.is_some(), via_fresh.is_some(), "k = {k}");
            if let Some(td) = via_index {
                assert_eq!(td.validate(&h), Ok(()));
                assert!(td.is_comp_nf(&h));
            }
        }
    }
}
