//! Generation of the candidate bag set `Soft_{H,k}` (Definition 3):
//!
//! ```text
//! Soft_{H,k} = { (⋃λ1) ∩ (⋃C) | C a [λ2]-component of H,
//!                               λ1, λ2 ⊆ E(H), |λ1| ≤ k, |λ2| ≤ k }
//! ```
//!
//! The definition has two sides — the `W` side (`⋃λ1`, all unions of up
//! to `k` edges) and the `U` side (`⋃C` over all `[λ2]`-components, λ2
//! ranging over up to `k` edges *including the empty set*, which yields
//! `⋃C = V(H)` on connected hypergraphs) — but with the edge pool of
//! Definition 3 they are not independent: the non-empty separators `⋃λ2`
//! the `U`-side walk visits *are* the `⋃λ1`. [`soft_bag_ids_budgeted`]
//! therefore makes **one λ walk**, which hands back the distinct `⋃C`
//! and its distinct non-empty separators, and uses the latter as the `W`
//! side. One DFS over `λ ⊆ pool, 1 ≤ |λ| ≤ k` serves every λ walk: this
//! one over `E(H)`, and the `W` side of the iterated pools of Definition 6
//! (`crate::soft_iter`), whose `λ1` elements are subedges. Both sides are
//! deduplicated before the `W × U` stage, which Definitions 3 and 6 share
//! (Definition 6 also builds `E^(i+1) = E^(i) ⋂× Soft^i` with it) and
//! which visits
//! **proper intersections only**: per-vertex masks over the `U` side
//! ("which `⋃C` contain `v`") turn "some `⋃C ⊇ w`" into an AND and "which
//! `⋃C` meet `w` without containing it" into an OR-minus-AND over `w`'s
//! vertices, so `w` is emitted once by the former and intersected +
//! interned only against the latter — the pairs that can yield a bag
//! other than `w` or `∅`.
//!
//! Deduplication and storage route through the
//! [`BagArena`]/[`BlockIndex`] of `softhw-hypergraph`: candidate bags are
//! emitted as dense [`BagId`]s, dedup is arena interning (word-level, no
//! per-candidate boxed allocation), and the `U`-side's components and
//! component unions are answered from the index's cache — shared across
//! widths `k` and across solver calls on the same hypergraph. Both
//! sides and the `W × U` intersection enumerate straight into the one
//! shared arena, so a [`BagId`] is a dense index into it from the first
//! intern on and nothing is re-interned afterwards.
//!
//! The seed's direct `FxHashSet<BitSet>` generator is preserved verbatim
//! in [`mod@reference`] as the cross-check and benchmark baseline, and as
//! the move spaces of the robber-and-marshals games (`crate::games`).

use crate::budget::Budget;
use crate::error::DecompError;
use softhw_hypergraph::arena::{
    words_empty, words_intersect_into, words_iter, words_union_into, IdSet,
};
use softhw_hypergraph::{BagArena, BagId, BitSet, BlockIndex, Hypergraph};

/// Guards against combinatorial blow-up of candidate-bag generation.
#[derive(Clone, Debug)]
pub struct SoftLimits {
    /// Upper bound on the number of λ-subsets enumerated per side (one
    /// global counter per side).
    pub max_lambda_sets: usize,
    /// Upper bound on the number of distinct candidate bags produced.
    pub max_bags: usize,
}

impl Default for SoftLimits {
    fn default() -> Self {
        SoftLimits {
            max_lambda_sets: 2_000_000,
            max_bags: 1_000_000,
        }
    }
}

/// Error raised when [`SoftLimits`] are exceeded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LimitExceeded {
    /// Which guard tripped.
    pub what: &'static str,
}

impl std::fmt::Display for LimitExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "soft bag generation limit exceeded: {}", self.what)
    }
}

impl std::error::Error for LimitExceeded {}

/// Maps a [`DecompError`] raised under the *unlimited* budget back to
/// the pre-budget `LimitExceeded` signature of the public generators.
/// The unlimited budget cannot trip, so every error reaching here is a
/// limit; a non-limit error degrades to a generic limit rather than
/// panicking.
pub(crate) fn demote(e: DecompError) -> LimitExceeded {
    match e {
        DecompError::Limit(l) => l,
        _ => LimitExceeded {
            what: "non-limit error under unlimited budget",
        },
    }
}

/// The one DFS over the subsets `λ` of a pool of `n` elements with
/// `1 ≤ |λ| ≤ k`, in lexicographic pre-order: Definition 3's walk over
/// `E(H)` and Definition 6's `W` side over `E^(i)` are its two callers.
/// `unions` holds the running union `⋃λ` per depth (depth 0 is `∅`). A
/// node hands `visit` its parent's value, the element it adds and a copy
/// of its parent's union, which `visit` extends by that element; what
/// `visit` returns is the parent value of the node's children. Every
/// node ticks `budget` and charges one of `max_lambda_sets`, one global
/// counter per walk. A λ never repeats an element, so the walk is at
/// most `min(k, n)` deep, and its scratch is sized by that, not by `k`.
fn walk_lambdas<T: Copy>(
    n: usize,
    k: usize,
    words: usize,
    root: T,
    limits: &SoftLimits,
    budget: &Budget,
    mut visit: impl FnMut(T, usize, &mut [u64]) -> T,
) -> Result<(), DecompError> {
    let depth = k.min(n);
    let mut unions = vec![0u64; words * (depth + 1)];
    // `stack[d]`: the value of the node at depth `d` on the current path
    // and the next element its children add.
    let mut stack: Vec<(T, usize)> = Vec::with_capacity(depth + 1);
    if depth > 0 {
        stack.push((root, 0));
    }
    let mut sets = limits.max_lambda_sets;
    while let Some(top) = stack.last_mut() {
        let (parent, e) = *top;
        if e == n {
            stack.pop();
            continue;
        }
        top.1 += 1;
        budget.tick()?;
        if sets == 0 {
            return Err(LimitExceeded {
                what: "max_lambda_sets",
            }
            .into());
        }
        sets -= 1;
        let d = stack.len();
        let (prev, next) = unions.split_at_mut(d * words);
        let buf = &mut next[..words];
        buf.copy_from_slice(&prev[(d - 1) * words..]);
        let value = visit(parent, e, buf);
        if d < depth {
            stack.push((value, e + 1));
        }
    }
    Ok(())
}

/// Enumerates all distinct unions of 1..=`k` bags drawn from `elements`
/// (the `⋃λ1` side of Definition 6 over `E^(i)`), interned into `arena`
/// and returned in content order: one walk of [`walk_lambdas`], whose
/// per-node cost is one pooled word-union plus one intern probe.
pub(crate) fn lambda_union_ids(
    arena: &mut BagArena,
    elements: &[BagId],
    k: usize,
    limits: &SoftLimits,
) -> Result<Vec<BagId>, LimitExceeded> {
    let mut out: Vec<BagId> = Vec::new();
    let mut seen = IdSet::new();
    let (words, unlimited) = (arena.words_per_bag(), Budget::unlimited());
    let visit = |(), i: usize, buf: &mut [u64]| {
        arena.union_into(elements[i], buf);
        let id = arena.intern_words(buf);
        if seen.insert(id) {
            out.push(id);
        }
    };
    walk_lambdas(elements.len(), k, words, (), limits, &unlimited, visit).map_err(demote)?;
    out.sort_unstable_by(|&a, &b| arena.cmp_bags(a, b));
    Ok(out)
}

/// Number of edge subsets of size `0..=k` out of `n` edges — the exact
/// count of λ2 candidates the sweep below visits — saturating at
/// `usize::MAX` so callers can feed it straight into capacity hints.
fn lambda_count_bound(n: usize, k: usize) -> usize {
    let mut total: usize = 1;
    let mut term: usize = 1;
    for i in 1..=k {
        if i > n {
            break;
        }
        term = term.saturating_mul(n - i + 1) / i;
        total = total.saturating_add(term);
    }
    total
}

/// What one λ2 walk over the edge subsets of size `0..=k` yields.
/// Every separator's components and unions come from — and stay in —
/// the index's cache, so repeated walks across widths and solvers only
/// pay for separators never seen before; an abort leaves that cache
/// holding only fully-computed entries, which a retry reuses.
pub(crate) struct LambdaWalk {
    /// The distinct `⋃C` over every `[λ2]`-component, in content order:
    /// the `U` side.
    pub(crate) unions: Vec<BagId>,
    /// The distinct non-empty separators `⋃λ2`, in first-visit order. The
    /// walk ranges over the very edge subsets `λ1` does, so with `E(H)`
    /// as the `λ1` pool this is the `W` side.
    pub(crate) seps: Vec<BagId>,
}

/// Definition 3's walk: [`walk_lambdas`] over `E(H)` plus `λ2 = ∅`.
pub(crate) fn lambda_walk(
    index: &mut BlockIndex,
    k: usize,
    limits: &SoftLimits,
    budget: &Budget,
) -> Result<LambdaWalk, DecompError> {
    let _span = softhw_obs::span(softhw_obs::stage::COMPONENTS);
    let num_edges = index.hypergraph().num_edges();
    let words = index.arena.words_per_bag();
    // `|E|^k`-scale pre-sizing: the sweep interns about one separator per
    // λ2 subset (components and unions share the same id table), so grow
    // the arena's intern table and the dedup sets to their final size up
    // front instead of rehashing repeatedly through the loop.
    let est = lambda_count_bound(num_edges, k).min(limits.max_lambda_sets.saturating_add(1));
    index.arena.reserve(est);
    let mut unions: Vec<BagId> = Vec::new();
    let mut seen = IdSet::with_capacity(est);
    // Distinct λ2 subsets frequently produce the same separator union
    // (overlapping edges); a repeated separator has nothing new to
    // offer, so it is deduplicated *before* the component BFS / cache
    // probes rather than per component behind them.
    let mut sep_seen = IdSet::with_capacity(est);
    let mut seps: Vec<BagId> = Vec::with_capacity(est.saturating_sub(1));
    // One cached pass per separator yields its blocks' rows; only the
    // unions are wanted here: the covers, read as `∅` for an edgeless
    // vertex's stand-in. The pass starts from the rows of `parent`, the
    // union one edge up the DFS, so it pays for what the added edge
    // changes rather than for a BFS of the whole graph.
    let mut collect = |index: &mut BlockIndex, parent: BagId, sep: BagId| {
        let r = index.block_rows_from(parent, sep);
        for &row in index.rows(r) {
            if seen.insert(row.cover) {
                let u = index.component_union(row);
                if u == row.cover || seen.insert(u) {
                    unions.push(u);
                }
            }
        }
    };

    // λ2 = ∅ first.
    let empty = index.empty();
    sep_seen.insert(empty);
    collect(index, empty, empty);
    let visit = |parent: BagId, e: usize, buf: &mut [u64]| {
        words_union_into(index.hypergraph().edge(e).blocks(), buf);
        let sep = index.arena.intern_words(buf);
        // A repeated separator union contributes nothing new, but a
        // *deeper* subset extending it still can — skip only the
        // component queries, not the descent.
        if sep_seen.insert(sep) {
            seps.push(sep);
            collect(index, parent, sep);
        }
        sep
    };
    walk_lambdas(num_edges, k, words, empty, limits, budget, visit)?;
    unions.sort_unstable_by(|&a, &b| index.arena.cmp_bags(a, b));
    Ok(LambdaWalk { unions, seps })
}

/// The `W × U` stage of Definition 3: the distinct non-empty `w ∩ u`, in
/// content order, and — a clock-free count of the stage's work — the
/// number of pairs it intersected.
///
/// Row `v` of `hit` says which `u` contain vertex `v` (one bit per `u`,
/// as many words as `|U|` needs). ANDed over `w`'s vertices that is the
/// `u ⊇ w`, whose intersection is `w` itself, emitted once; ORed it is
/// the `u` meeting `w`. Only the pairs in the OR and not in the AND are
/// intersected and interned: the others yield `w` or `∅`.
pub(crate) fn intersect_sides(
    arena: &mut BagArena,
    w_side: &[BagId],
    u_side: &[BagId],
    limits: &SoftLimits,
    budget: &Budget,
) -> Result<(Vec<BagId>, u64), DecompError> {
    let uwords = u_side.len().div_ceil(64);
    let mut hit = vec![0u64; arena.universe() * uwords];
    for (j, &u) in u_side.iter().enumerate() {
        for v in arena.iter(u) {
            hit[v * uwords + j / 64] |= 1u64 << (j % 64);
        }
    }
    // Most `w` lie inside some `u`, so the output is about `|W|` long,
    // and every id seen is below the arena's length plus what the loop
    // interns.
    let mut out: Vec<BagId> = Vec::with_capacity(w_side.len());
    let mut seen = IdSet::with_capacity(arena.len() + w_side.len());
    let mut emit = |id: BagId| -> Result<(), DecompError> {
        if seen.insert(id) {
            out.push(id);
            if out.len() > limits.max_bags {
                return Err(LimitExceeded { what: "max_bags" }.into());
            }
        }
        Ok(())
    };
    let (mut all, mut any) = (vec![0u64; uwords], vec![0u64; uwords]);
    let mut buf = vec![0u64; arena.words_per_bag()];
    let mut pairs = 0u64;
    for &w in w_side {
        budget.tick()?;
        if arena.bag_is_empty(w) {
            continue; // an empty element yields only empty intersections
        }
        // The first row ANDed in clears the bits past `|U|`.
        all.fill(!0);
        any.fill(0);
        for v in arena.iter(w) {
            let row = &hit[v * uwords..(v + 1) * uwords];
            for (&r, (a, o)) in row.iter().zip(all.iter_mut().zip(&mut any)) {
                *a &= r;
                *o |= r;
            }
        }
        // w ⊆ u ⇒ w ∩ u = w, already interned: no probe.
        if !words_empty(&all) {
            emit(w)?;
        }
        for (o, &a) in any.iter_mut().zip(&all) {
            *o &= !a;
        }
        for j in words_iter(&any) {
            pairs += 1;
            buf.copy_from_slice(arena.words(w));
            words_intersect_into(arena.words(u_side[j]), &mut buf);
            emit(arena.intern_words(&buf))?;
        }
    }
    out.sort_unstable_by(|&a, &b| arena.cmp_bags(a, b));
    Ok((out, pairs))
}

/// `Soft_{H,k}` as interned ids, with the `λ1` pool being `E(H)` itself.
pub fn soft_bag_ids(
    index: &mut BlockIndex,
    k: usize,
    limits: &SoftLimits,
) -> Result<Vec<BagId>, LimitExceeded> {
    soft_bag_ids_budgeted(index, k, limits, &Budget::unlimited()).map_err(demote)
}

/// [`soft_bag_ids`] with a cooperative [`Budget`] — the budgeted entry
/// point the deadline-aware solvers call. One λ walk feeds both sides:
/// its distinct non-empty separators are the `⋃λ1` over `E(H)`.
pub fn soft_bag_ids_budgeted(
    index: &mut BlockIndex,
    k: usize,
    limits: &SoftLimits,
    budget: &Budget,
) -> Result<Vec<BagId>, DecompError> {
    let _span = softhw_obs::span(softhw_obs::stage::ENUMERATE);
    let LambdaWalk { unions, seps } = lambda_walk(index, k, limits, budget)?;
    intersect_sides(&mut index.arena, &seps, &unions, limits, budget).map(|(bags, _)| bags)
}

/// Enumerates all unions of between 1 and `k` sets drawn from `elements`,
/// deduplicated, in content order: the λ walk of Definition 6's `W` side
/// over a fresh arena, as [`BitSet`]s.
pub fn lambda_unions(
    universe: usize,
    elements: &[BitSet],
    k: usize,
    limits: &SoftLimits,
) -> Result<Vec<BitSet>, LimitExceeded> {
    let mut arena = BagArena::new(universe);
    let ids: Vec<BagId> = elements.iter().map(|e| arena.intern(e)).collect();
    let out = lambda_union_ids(&mut arena, &ids, k, limits)?;
    Ok(out.into_iter().map(|id| arena.to_bitset(id)).collect())
}

/// Enumerates all distinct `⋃C` for `C` a `[λ2]`-component of `h`, with
/// `λ2` ranging over edge subsets of size 0..=`k` (the `⋃C` side of
/// Definition 3), in content order.
pub fn component_unions(
    h: &Hypergraph,
    k: usize,
    limits: &SoftLimits,
) -> Result<Vec<BitSet>, LimitExceeded> {
    let mut index = BlockIndex::new(h);
    let walk = lambda_walk(&mut index, k, limits, &Budget::unlimited()).map_err(demote)?;
    Ok(walk
        .unions
        .into_iter()
        .map(|id| index.arena.to_bitset(id))
        .collect())
}

/// `Soft_{H,k}` per Definition 3, with default limits. Panics if the
/// default limits are exceeded; use [`soft_bags_with`] for explicit
/// handling.
pub fn soft_bags(h: &Hypergraph, k: usize) -> Vec<BitSet> {
    soft_bags_with(h, k, &SoftLimits::default()).expect("Soft_{H,k} generation exceeded limits")
}

/// The *cover bags*: the distinct unions `⋃λ` of 1..k edges — the
/// candidate set the paper's prototype enumerates ("the possible covers,
/// i.e., hypertree nodes", Appendix C.1), whose sizes are what Table 1
/// reports as `|Soft_{H,k}|`. This is the subset of `Soft_{H,k}`
/// obtained with `λ2 = ∅` on connected hypergraphs.
///
/// With `drop_edge_subsumed`, bags strictly contained in a single edge of
/// `H` are removed (the prototype's treatment of subsumed atoms such as
/// `customer_address` in `q_ds`).
pub fn cover_bags(h: &Hypergraph, k: usize, drop_edge_subsumed: bool) -> Vec<BitSet> {
    let mut bags = lambda_unions(h.num_vertices(), h.edges(), k, &SoftLimits::default())
        .expect("cover bag generation exceeded limits");
    if drop_edge_subsumed {
        bags.retain(|b| !h.edges().iter().any(|e| b.is_subset(e) && b != e));
    }
    bags
}

/// `Soft_{H,k}` per Definition 3 with explicit limits: [`soft_bag_ids`],
/// the one λ walk the solvers run, as [`BitSet`]s.
pub fn soft_bags_with(
    h: &Hypergraph,
    k: usize,
    limits: &SoftLimits,
) -> Result<Vec<BitSet>, LimitExceeded> {
    let mut index = BlockIndex::new(h);
    let out = soft_bag_ids(&mut index, k, limits)?;
    Ok(out
        .into_iter()
        .map(|id| index.arena.to_bitset(id))
        .collect())
}

/// Checks whether `bag ∈ Soft_{H,k}` and returns a witness
/// `(λ1, ⋃C)` when it is, `λ1` as edge ids. Definition 6 makes
/// `Soft^0_{H,k} = Soft_{H,k}`, so this is
/// [`crate::soft_iter::soft_i_witness`] at level 0, whose `λ1` elements
/// are the distinct edges: each maps back to the first edge with its
/// vertex set. The search short-circuits on the target bag, so it works
/// on hypergraphs where full generation would be too big. A tripped
/// limit is the error, never a "not a member".
pub fn soft_witness(
    h: &Hypergraph,
    k: usize,
    bag: &BitSet,
    limits: &SoftLimits,
) -> Result<Option<(Vec<usize>, BitSet)>, LimitExceeded> {
    let Some(w) = crate::soft_iter::soft_i_witness(h, k, 0, bag, limits)? else {
        return Ok(None);
    };
    let edge_of = |s: &BitSet| {
        h.edges()
            .iter()
            .position(|e| e == s)
            .expect("a level-0 subedge is an edge")
    };
    Ok(Some((
        w.lambda1.iter().map(edge_of).collect(),
        w.component_union,
    )))
}

/// The seed's direct `FxHashSet<BitSet>`-based generator, kept as the
/// cross-validation oracle for the arena path (property tests assert the
/// two agree), as the benchmark baseline the arena speedup is measured
/// against, and as the games' move spaces. Not used by any solver.
pub mod reference {
    use super::{LimitExceeded, SoftLimits};
    use softhw_hypergraph::{BitSet, FxHashSet, Hypergraph};

    /// Pre-arena λ-union enumeration (fresh `BitSet` per node, hash-set
    /// dedup).
    pub fn lambda_unions(
        universe: usize,
        elements: &[BitSet],
        k: usize,
        limits: &SoftLimits,
    ) -> Result<Vec<BitSet>, LimitExceeded> {
        let mut seen: FxHashSet<BitSet> = FxHashSet::default();
        let mut budget = limits.max_lambda_sets;
        fn rec(
            elements: &[BitSet],
            start: usize,
            depth_left: usize,
            current: &BitSet,
            seen: &mut FxHashSet<BitSet>,
            budget: &mut usize,
        ) -> Result<(), LimitExceeded> {
            for i in start..elements.len() {
                if *budget == 0 {
                    return Err(LimitExceeded {
                        what: "max_lambda_sets",
                    });
                }
                *budget -= 1;
                let u = current.union(&elements[i]);
                seen.insert(u.clone());
                if depth_left > 1 {
                    rec(elements, i + 1, depth_left - 1, &u, seen, budget)?;
                }
            }
            Ok(())
        }
        if k > 0 {
            rec(
                elements,
                0,
                k,
                &BitSet::empty(universe),
                &mut seen,
                &mut budget,
            )?;
        }
        let mut out: Vec<BitSet> = seen.into_iter().collect();
        out.sort_unstable();
        Ok(out)
    }

    /// Pre-arena `⋃C` enumeration (components recomputed per separator).
    pub fn component_unions(
        h: &Hypergraph,
        k: usize,
        limits: &SoftLimits,
    ) -> Result<Vec<BitSet>, LimitExceeded> {
        let mut seen: FxHashSet<BitSet> = FxHashSet::default();
        let mut budget = limits.max_lambda_sets;
        for comp in h.edge_components(&h.empty_vertex_set()) {
            seen.insert(h.union_of_edge_set(&comp));
        }
        fn rec(
            h: &Hypergraph,
            start: usize,
            depth_left: usize,
            sep: &BitSet,
            seen: &mut FxHashSet<BitSet>,
            budget: &mut usize,
        ) -> Result<(), LimitExceeded> {
            for e in start..h.num_edges() {
                if *budget == 0 {
                    return Err(LimitExceeded {
                        what: "max_lambda_sets",
                    });
                }
                *budget -= 1;
                let s = sep.union(h.edge(e));
                for comp in h.edge_components(&s) {
                    seen.insert(h.union_of_edge_set(&comp));
                }
                if depth_left > 1 {
                    rec(h, e + 1, depth_left - 1, &s, seen, budget)?;
                }
            }
            Ok(())
        }
        if k > 0 {
            rec(h, 0, k, &h.empty_vertex_set(), &mut seen, &mut budget)?;
        }
        let mut out: Vec<BitSet> = seen.into_iter().collect();
        out.sort_unstable();
        Ok(out)
    }

    /// Pre-arena `Soft_{H,k}` generation.
    pub fn soft_bags_with(
        h: &Hypergraph,
        k: usize,
        limits: &SoftLimits,
    ) -> Result<Vec<BitSet>, LimitExceeded> {
        let w_side = lambda_unions(h.num_vertices(), h.edges(), k, limits)?;
        let u_side = component_unions(h, k, limits)?;
        let mut seen: FxHashSet<BitSet> = FxHashSet::default();
        for w in &w_side {
            for u in &u_side {
                let b = w.intersection(u);
                if !b.is_empty() {
                    seen.insert(b);
                    if seen.len() > limits.max_bags {
                        return Err(LimitExceeded { what: "max_bags" });
                    }
                }
            }
        }
        let mut out: Vec<BitSet> = seen.into_iter().collect();
        out.sort_unstable();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softhw_hypergraph::named;

    #[test]
    fn soft_contains_all_small_unions() {
        // Every union of up to k edges is in Soft_{H,k} (λ2 = ∅ gives
        // ⋃C = V on connected H).
        let h = named::cycle(5);
        let bags = soft_bags(&h, 2);
        for e1 in 0..h.num_edges() {
            for e2 in 0..h.num_edges() {
                let u = h.union_of_edges([e1, e2]);
                assert!(bags.contains(&u), "missing union of edges {e1},{e2}");
            }
        }
    }

    #[test]
    fn example1_bags_present() {
        // The four bags of the Figure 1b soft HD of H2 are in Soft_{H2,2}.
        let h = named::h2();
        let bags = soft_bags(&h, 2);
        for target in [
            h.vset(&["2", "6", "7", "a", "b"]),
            h.vset(&["2", "5", "6", "a", "b"]),
            h.vset(&["2", "3", "4", "5", "a", "b"]),
            h.vset(&["1", "2", "7", "8", "a", "b"]),
        ] {
            assert!(
                bags.contains(&target),
                "missing bag {}",
                h.render_vertex_set(&target)
            );
        }
    }

    #[test]
    fn example1_witness_found() {
        // The paper derives {2,6,7,a,b} via λ2 = {{3,4},{2,3,b}} and
        // λ1 = {{2,3,b},{6,7,a}}; our witness search must find *some*
        // witness.
        let h = named::h2();
        let bag = h.vset(&["2", "6", "7", "a", "b"]);
        let (lambda1, u) = soft_witness(&h, 2, &bag, &SoftLimits::default())
            .unwrap()
            .expect("witness");
        assert!(lambda1.len() <= 2);
        // witness reconstructs the bag
        let mut w = h.union_of_edges(lambda1);
        w.intersect_with(&u);
        assert_eq!(w, bag);
    }

    #[test]
    fn non_member_rejected() {
        let h = named::h2();
        // {1, 5} is not a bag of Soft_{H2,1}: no single edge contains both.
        let bag = h.vset(&["1", "5"]);
        assert_eq!(soft_witness(&h, 1, &bag, &SoftLimits::default()), Ok(None));
    }

    #[test]
    fn a_tripped_limit_is_an_error_not_a_non_member() {
        let h = named::h2();
        let bag = h.vset(&["2", "6", "7", "a", "b"]);
        let tight = SoftLimits {
            max_lambda_sets: 3,
            max_bags: 1_000,
        };
        assert!(soft_witness(&h, 2, &bag, &tight).is_err());
        assert!(matches!(
            soft_witness(&h, 2, &bag, &SoftLimits::default()),
            Ok(Some(_))
        ));
    }

    #[test]
    fn witness_agrees_with_generator_on_small_graphs() {
        let h = named::cycle(6);
        let bags = soft_bags(&h, 2);
        let limits = SoftLimits::default();
        for bag in &bags {
            assert!(
                matches!(soft_witness(&h, 2, bag, &limits), Ok(Some(_))),
                "generator produced a bag the witness search rejects: {bag:?}"
            );
        }
    }

    #[test]
    fn limits_are_enforced() {
        let h = named::h2();
        let limits = SoftLimits {
            max_lambda_sets: 3,
            max_bags: 1_000,
        };
        assert!(soft_bags_with(&h, 3, &limits).is_err());
    }

    #[test]
    fn soft_monotone_in_k() {
        let h = named::h2();
        let s1 = soft_bags(&h, 1);
        let s2 = soft_bags(&h, 2);
        for b in &s1 {
            assert!(s2.contains(b));
        }
        assert!(s2.len() > s1.len());
    }

    #[test]
    fn arena_generator_agrees_with_reference() {
        // The arena path and the seed's hash-set path must produce the
        // same sorted candidate sets on the paper's named instances.
        for (h, k) in [
            (named::h2(), 1),
            (named::h2(), 2),
            (named::cycle(6), 2),
            (named::grid(3, 3), 2),
            (named::triangle_star(3), 2),
        ] {
            let limits = SoftLimits::default();
            let fast = soft_bags_with(&h, k, &limits).unwrap();
            let slow = reference::soft_bags_with(&h, k, &limits).unwrap();
            assert_eq!(fast, slow, "k = {k}");
            let fast_u = component_unions(&h, k, &limits).unwrap();
            let slow_u = reference::component_unions(&h, k, &limits).unwrap();
            assert_eq!(fast_u, slow_u, "component unions, k = {k}");
            let fast_w = lambda_unions(h.num_vertices(), h.edges(), k, &limits).unwrap();
            let slow_w = reference::lambda_unions(h.num_vertices(), h.edges(), k, &limits).unwrap();
            assert_eq!(fast_w, slow_w, "lambda unions, k = {k}");
        }
    }

    #[test]
    fn canceled_budget_aborts_and_retry_succeeds() {
        let h = named::h2();
        let limits = SoftLimits::default();
        let mut index = BlockIndex::new(&h);
        let budget = Budget::cancellable();
        budget.cancel();
        let err = soft_bag_ids_budgeted(&mut index, 2, &limits, &budget).unwrap_err();
        assert!(err.is_budget());
        // Retrying on the *same* index with a fresh budget yields the
        // same candidate set (as vertex sets) as a cold run: the abort
        // left only valid interned bags behind.
        let retry = soft_bag_ids_budgeted(&mut index, 2, &limits, &Budget::unlimited()).unwrap();
        let mut retry: Vec<BitSet> = retry
            .into_iter()
            .map(|id| index.arena.to_bitset(id))
            .collect();
        retry.sort_unstable();
        let mut cold = soft_bags_with(&h, 2, &limits).unwrap();
        cold.sort_unstable();
        assert_eq!(retry, cold);
    }

    #[test]
    fn work_cap_trips_generation_deterministically() {
        let h = named::h2();
        let limits = SoftLimits::default();
        let mut index = BlockIndex::new(&h);
        let err =
            soft_bag_ids_budgeted(&mut index, 2, &limits, &Budget::with_work_cap(3)).unwrap_err();
        assert_eq!(err, DecompError::DeadlineExceeded);
    }

    /// The clock-free form of "`W × U` pays for the bags it adds": on
    /// the `side × side` grid at `k = 2` every `w` lies inside `V`, one
    /// of 33 `⋃C`, so the stage adds `bags − |W|` bags, and intersects
    /// under ten pairs for each where `|W| × |U|` is 4 to 13 times more
    /// and grows with `side⁴`.
    #[test]
    fn pairs_intersected_track_the_bags_added_not_w_times_u() {
        let limits = SoftLimits::default();
        let unlimited = Budget::unlimited();
        for (side, pinned) in [(6, 12_840), (8, 25_320), (10, 41_640)] {
            let mut index = BlockIndex::new(&named::grid(side, side));
            let walk = lambda_walk(&mut index, 2, &limits, &unlimited).unwrap();
            let (w, u) = (&walk.seps, &walk.unions);
            let (bags, pairs) =
                intersect_sides(&mut index.arena, w, u, &limits, &unlimited).unwrap();
            assert_eq!(pairs, pinned, "grid({side}, {side})");
            assert_eq!(u.len(), 33, "grid({side}, {side})");
            let added = (bags.len() - w.len()) as u64;
            assert!(pairs < 10 * added, "grid({side}, {side}): {added} added");
        }
    }

    /// A λ never repeats an edge, so a width past `|E|` walks as `|E|`
    /// does — without sizing anything by the width asked for.
    #[test]
    fn an_absurd_width_answers_as_the_edge_count() {
        let h = named::h2();
        let limits = SoftLimits::default();
        let all = h.num_edges();
        assert_eq!(
            component_unions(&h, usize::MAX, &limits),
            component_unions(&h, all, &limits)
        );
        assert_eq!(
            soft_bags_with(&h, usize::MAX, &limits),
            soft_bags_with(&h, all, &limits)
        );
        let universe = h.num_vertices();
        assert_eq!(
            lambda_unions(universe, h.edges(), usize::MAX, &limits),
            lambda_unions(universe, h.edges(), all, &limits)
        );
        for bag in [h.vset(&["2", "6", "7", "a", "b"]), h.all_vertices()] {
            let witness = soft_witness(&h, usize::MAX, &bag, &limits);
            assert!(matches!(witness, Ok(Some(_))));
            assert_eq!(witness, soft_witness(&h, all, &bag, &limits));
        }
    }

    #[test]
    fn shared_index_reuses_component_cache_across_k() {
        let h = named::h2();
        let mut index = BlockIndex::new(&h);
        let limits = SoftLimits::default();
        let _ = soft_bag_ids(&mut index, 1, &limits).unwrap();
        let misses_after_k1 = index.stats().misses;
        let _ = soft_bag_ids(&mut index, 2, &limits).unwrap();
        let stats = index.stats();
        // k = 2 re-enumerates every k = 1 separator; those must all hit.
        assert!(stats.hits > 0, "expected cache hits at k = 2");
        assert!(
            stats.misses > misses_after_k1,
            "k = 2 also explores new separators"
        );
    }
}
