//! The iterated soft hierarchy of Section 5 (Definition 6):
//!
//! ```text
//! E^(0)   = E(H)                Soft^0_{H,k} = Soft_{H,k}
//! E^(i+1) = E^(i) ⋂× Soft^i     Soft^i_{H,k} = { (⋃λ1) ∩ (⋃C) }
//! ```
//!
//! with `λ1` drawn from `E^(i)` and `λ2` (which induces the component `C`)
//! still drawn from `E(H)`. The associated width measures `shw_i`
//! interpolate between `shw = shw_0` and `ghw = shw_∞` (Theorem 7); by
//! Lemma 6 the hierarchy reaches its fixpoint after at most `3n` steps.
//!
//! Materialising `Soft^i` is exponential-ish in practice (the `λ1` side
//! ranges over subsets of `E^(i)`, which grows by intersections), so all
//! entry points take [`SoftLimits`]. For hypergraphs too large to
//! materialise — e.g. `H'3` of Example 2 — [`soft_i_witness`] offers a
//! *membership check with witness* that only materialises `E^(i)`.
//!
//! Every level is built from the parts of Definition 3's generator in
//! [`crate::soft`]: the `U` side does not depend on the level, so
//! Definition 3's λ walk over `E(H)` runs once and its `⋃C` serve every
//! level; level 0 takes that walk's separators as its `W` side, a level
//! `i > 0` the λ unions over `E^(i)`; and both `Soft^i` and
//! `E^(i+1) = E^(i) ⋂× Soft^i` are its `W × U` stage.

use crate::budget::Budget;
use crate::cover;
use crate::ctd::CtdInstance;
use crate::error::DecompError;
use crate::reduce_solve::first_width;
use crate::soft::{self, LambdaWalk, LimitExceeded, SoftLimits};
use crate::td::TreeDecomposition;
use softhw_hypergraph::{BagArena, BagId, BitSet, BlockIndex, Hypergraph, HypergraphBuilder};

/// Lazily computed levels of the `E^(i)` / `Soft^i_{H,k}` hierarchy.
///
/// All levels live as interned [`BagId`]s in one shared [`BlockIndex`],
/// and only as ids: [`SoftHierarchy::soft_level`] and
/// [`SoftHierarchy::subedge_level`] build [`BitSet`]s on request. The
/// level-independent `U` side (the `⋃C` of Definition 3) is walked once,
/// when the hierarchy is created, and kept for every level.
pub struct SoftHierarchy<'h> {
    h: &'h Hypergraph,
    k: usize,
    limits: SoftLimits,
    index: BlockIndex,
    /// Definition 3's λ walk over `E(H)`: its `⋃C` are every level's `U`
    /// side, its separators level 0's `W` side. A tripped limit is kept
    /// and raised by every level.
    walk: Result<LambdaWalk, LimitExceeded>,
    /// `subedge_ids[i]` = `E^(i)` (sorted by content).
    subedge_ids: Vec<Vec<BagId>>,
    /// `bag_ids[i]` = `Soft^i_{H,k}` (sorted by content).
    bag_ids: Vec<Vec<BagId>>,
}

impl<'h> SoftHierarchy<'h> {
    /// Creates the hierarchy for `H` and width bound `k`, with no level
    /// computed yet.
    pub fn new(h: &'h Hypergraph, k: usize, limits: SoftLimits) -> Self {
        let mut index = BlockIndex::new(h);
        let walk =
            soft::lambda_walk(&mut index, k, &limits, &Budget::unlimited()).map_err(soft::demote);
        SoftHierarchy {
            h,
            k,
            limits,
            index,
            walk,
            subedge_ids: Vec::new(),
            bag_ids: Vec::new(),
        }
    }

    /// The width parameter `k` of this hierarchy.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Ensures levels `0..=i` are computed; returns `Soft^i_{H,k}`.
    pub fn soft_level(&mut self, i: usize) -> Result<Vec<BitSet>, LimitExceeded> {
        self.ensure(i)?;
        Ok(self.materialise(&self.bag_ids[i]))
    }

    /// [`SoftHierarchy::soft_level`] as interned ids into
    /// [`SoftHierarchy::index_mut`].
    pub fn soft_level_ids(&mut self, i: usize) -> Result<&[BagId], LimitExceeded> {
        self.ensure(i)?;
        Ok(&self.bag_ids[i])
    }

    /// The shared block index holding every level's bags.
    pub fn index_mut(&mut self) -> &mut BlockIndex {
        &mut self.index
    }

    fn materialise(&self, ids: &[BagId]) -> Vec<BitSet> {
        ids.iter()
            .map(|&id| self.index.arena.to_bitset(id))
            .collect()
    }

    /// Ensures `E^(i)` is computed (this requires `Soft^(i-1)` for
    /// `i > 0`); returns it.
    pub fn subedge_level(&mut self, i: usize) -> Result<Vec<BitSet>, LimitExceeded> {
        self.ensure_subedges(i)?;
        Ok(self.materialise(&self.subedge_ids[i]))
    }

    /// The `U` side — every distinct `⋃C` — in content order.
    fn component_unions(&self) -> Result<Vec<BitSet>, LimitExceeded> {
        let walk = self.walk.as_ref().map_err(Clone::clone)?;
        Ok(self.materialise(&walk.unions))
    }

    fn ensure_subedges(&mut self, i: usize) -> Result<(), LimitExceeded> {
        if self.subedge_ids.is_empty() {
            // Equal edges intern to one id, adjacent in content order.
            let arena = &mut self.index.arena;
            let mut v: Vec<BagId> = (0..self.h.num_edges())
                .map(|e| arena.intern_words(self.h.edge(e).blocks()))
                .collect();
            v.sort_unstable_by(|&a, &b| arena.cmp_bags(a, b));
            v.dedup();
            self.subedge_ids.push(v);
        }
        while self.subedge_ids.len() <= i {
            let lvl = self.subedge_ids.len();
            self.ensure(lvl - 1)?;
            let v = intersect(
                &mut self.index.arena,
                &self.subedge_ids[lvl - 1],
                &self.bag_ids[lvl - 1],
                &self.limits,
            )?;
            self.subedge_ids.push(v);
        }
        Ok(())
    }

    fn ensure(&mut self, i: usize) -> Result<(), LimitExceeded> {
        while self.bag_ids.len() <= i {
            let lvl = self.bag_ids.len();
            self.ensure_subedges(lvl)?;
            let walk = self.walk.as_ref().map_err(Clone::clone)?;
            let arena = &mut self.index.arena;
            let subsets;
            let w_side = if lvl == 0 {
                &walk.seps
            } else {
                subsets =
                    soft::lambda_union_ids(arena, &self.subedge_ids[lvl], self.k, &self.limits)?;
                &subsets
            };
            let ids = intersect(arena, w_side, &walk.unions, &self.limits)?;
            self.bag_ids.push(ids);
        }
        Ok(())
    }

    /// Iterates until `Soft^{i+1} = Soft^i` (Lemma 6 guarantees
    /// convergence within `3·max(|V|,|E|)` steps) or `max_iters` levels.
    /// Returns the fixpoint level.
    pub fn fixpoint(&mut self, max_iters: usize) -> Result<usize, LimitExceeded> {
        let bound = max_iters.min(3 * self.h.num_vertices().max(self.h.num_edges()) + 1);
        let mut i = 0;
        loop {
            self.ensure(i + 1)?;
            // One arena, content order: equal ids are equal sets.
            if self.bag_ids[i] == self.bag_ids[i + 1] {
                return Ok(i);
            }
            i += 1;
            if i >= bound {
                return Ok(i); // conservative: caller sees the last level
            }
        }
    }
}

/// Definition 3's `W × U` stage without a budget: the distinct
/// non-empty `w ∩ u`, in content order.
fn intersect(
    arena: &mut BagArena,
    w_side: &[BagId],
    u_side: &[BagId],
    limits: &SoftLimits,
) -> Result<Vec<BagId>, LimitExceeded> {
    soft::intersect_sides(arena, w_side, u_side, limits, &Budget::unlimited())
        .map(|(bags, _)| bags)
        .map_err(soft::demote)
}

/// Decides `shw_i(H) ≤ k` (soft hypertree width of order `i`); returns a
/// witness CTD over `Soft^i_{H,k}` on success. The CTD instance is built
/// on the hierarchy's own block index, so the components cached while
/// generating the levels are reused for the block table. At `k ≥ |E(H)|`
/// no level is walked: see `components_decide`. Below that, a width
/// whose `λ` subsets outnumber `limits` still trips them (H2 at `k = 6`
/// and `7`).
pub fn shw_i_leq(
    h: &Hypergraph,
    k: usize,
    i: usize,
    limits: &SoftLimits,
) -> Result<Option<TreeDecomposition>, LimitExceeded> {
    if k >= h.num_edges() {
        return Ok(components_decide(h));
    }
    let mut hier = SoftHierarchy::new(h, k, limits.clone());
    let bags = hier.soft_level_ids(i)?.to_vec();
    Ok(CtdInstance::build(hier.index_mut(), &bags).decide())
}

/// Computes `shw_i(H)` exactly (least `k` with `shw_i(H) ≤ k`).
pub fn shw_i(h: &Hypergraph, i: usize, limits: &SoftLimits) -> Result<usize, LimitExceeded> {
    least_k(h, |k| shw_i_leq(h, k, i, limits))
}

/// The least `k ≤ |E(H)|` that `decide` accepts — [`first_width`], with
/// its errors mapped back to the only one the hierarchy raises. An
/// edgeless hypergraph answers `0` without deciding anything: its one
/// decomposition is a single empty bag, covered by no edge.
fn least_k(
    h: &Hypergraph,
    mut decide: impl FnMut(usize) -> Result<Option<TreeDecomposition>, LimitExceeded>,
) -> Result<usize, LimitExceeded> {
    if h.num_edges() == 0 {
        return Ok(0);
    }
    match first_width(1..=h.num_edges().max(1), |k| Ok(decide(k)?)) {
        Ok(Some((k, _))) => Ok(k),
        Err(DecompError::Limit(e)) => Err(e),
        other => unreachable!("ghw(H) <= shw_i(H) <= hw(H) <= |E(H)|: {other:?}"),
    }
}

/// Decides `ghw(H) ≤ k` via the fixpoint of the soft hierarchy
/// (Theorem 7: `shw_∞ = ghw`). Exponential-ish; intended for small
/// hypergraphs (tests, the `hierarchy` experiment binary). At
/// `k ≥ |E(H)|` no level is walked (`components_decide`); below that,
/// the limits can still trip, as on H2 at `k = 6` and `7`.
pub fn ghw_leq_via_fixpoint(
    h: &Hypergraph,
    k: usize,
    limits: &SoftLimits,
) -> Result<Option<TreeDecomposition>, LimitExceeded> {
    if k >= h.num_edges() {
        return Ok(components_decide(h));
    }
    let mut hier = SoftHierarchy::new(h, k, limits.clone());
    let lvl = hier.fixpoint(usize::MAX)?;
    let bags = hier.soft_level_ids(lvl)?.to_vec();
    Ok(CtdInstance::build(hier.index_mut(), &bags).decide())
}

/// The decision of [`shw_i_leq`] and [`ghw_leq_via_fixpoint`] at
/// `k ≥ |E(H)|`, on the vertex sets of `H`'s connected components alone.
/// Each is in every `Soft^i_{H,k}` (`λ1 = E(H)`, `λ2 = ∅`, and
/// `E(H) ⊆ E^(i)` by induction), and they alone make a CTD, one bag per
/// component, so the answer is yes without walking a level, whose `λ`
/// subsets of `E^(i)` would be every subset there is.
fn components_decide(h: &Hypergraph) -> Option<TreeDecomposition> {
    CtdInstance::new(h, &h.vertex_components(&h.empty_vertex_set())).decide()
}

/// Computes `ghw(H)` exactly via the fixpoint characterisation.
pub fn ghw(h: &Hypergraph, limits: &SoftLimits) -> Result<usize, LimitExceeded> {
    least_k(h, |k| ghw_leq_via_fixpoint(h, k, limits))
}

/// A witness for `bag ∈ Soft^i_{H,k}`: the chosen `λ1 ⊆ E^(i)` (by value,
/// since `E^(i)` elements are subedges without stable ids) and the
/// component union `⋃C` of the `[λ2]`-component side.
#[derive(Clone, Debug)]
pub struct SoftIWitness {
    /// The subedges forming `λ1`.
    pub lambda1: Vec<BitSet>,
    /// `⋃C` for the witnessing `[λ2]`-component `C`.
    pub component_union: BitSet,
}

/// Membership check `bag ∈ Soft^i_{H,k}` that materialises only `E^(i)`
/// and the component-union side — usable on hypergraphs where the full
/// `Soft^i` would be too large (e.g. `H'3` at `i = 1`).
pub fn soft_i_witness(
    h: &Hypergraph,
    k: usize,
    i: usize,
    bag: &BitSet,
    limits: &SoftLimits,
) -> Result<Option<SoftIWitness>, LimitExceeded> {
    let mut hier = SoftHierarchy::new(h, k, limits.clone());
    let u_side = hier.component_unions()?;
    let subedges = hier.subedge_level(i)?;
    for u in &u_side {
        if !bag.is_subset(u) {
            continue;
        }
        // Candidates: subedges whose inside-U part sits within the bag.
        // Only the inside-U projection matters for the intersection with
        // ⋃C, so deduplicate by projection and keep maximal ones.
        let mut projections: Vec<(BitSet, BitSet)> = Vec::new(); // (proj, witness subedge)
        for e in &subedges {
            let inside = e.intersection(u);
            if inside.is_empty() || !inside.is_subset(bag) {
                continue;
            }
            if projections.iter().any(|(p, _)| inside.is_subset(p)) {
                continue;
            }
            projections.retain(|(p, _)| !p.is_subset(&inside));
            projections.push((inside, e.clone()));
        }
        // Cover the bag by at most `k` projections: the plain cover
        // search over the hypergraph whose edges they are.
        let mut proj_h = HypergraphBuilder::with_capacity(h.num_vertices(), projections.len());
        for v in 0..h.num_vertices() {
            proj_h.vertex(&v.to_string());
        }
        for (i, (proj, _)) in projections.iter().enumerate() {
            proj_h.edge_ids(&i.to_string(), &proj.to_vec());
        }
        if let Some(choice) = cover::find_cover(&proj_h.build_allow_isolated(), bag, k) {
            return Ok(Some(SoftIWitness {
                lambda1: choice
                    .into_iter()
                    .map(|i| projections[i].1.clone())
                    .collect(),
                component_union: u.clone(),
            }));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use softhw_hypergraph::named;

    fn limits() -> SoftLimits {
        SoftLimits::default()
    }

    #[test]
    fn lemma3_monotonicity_on_h2() {
        // E^(i) ⊆ E^(i+1) ⊆ Soft^i and Soft^i ⊆ Soft^{i+1} (Lemma 3).
        let h = named::h2();
        let mut hier = SoftHierarchy::new(&h, 2, limits());
        let e0 = hier.subedge_level(0).unwrap();
        let e1 = hier.subedge_level(1).unwrap();
        let s0 = hier.soft_level(0).unwrap();
        let s1 = hier.soft_level(1).unwrap();
        for e in &e0 {
            assert!(e1.contains(e), "E0 ⊆ E1");
        }
        for e in &e1 {
            assert!(s1.contains(e), "E1 ⊆ Soft1");
        }
        for b in &s0 {
            assert!(s1.contains(b), "Soft0 ⊆ Soft1");
        }
    }

    #[test]
    fn an_edgeless_hypergraph_has_width_zero() {
        let h = softhw_hypergraph::parse_hypergraph("").unwrap();
        assert_eq!((h.num_vertices(), h.num_edges()), (0, 0));
        assert_eq!(ghw(&h, &limits()), Ok(0));
        for i in 0..3 {
            assert_eq!(shw_i(&h, i, &limits()), Ok(0), "shw_{i}");
        }
    }

    #[test]
    fn level_zero_matches_definition_3() {
        let h = named::h2();
        let mut hier = SoftHierarchy::new(&h, 2, limits());
        let s0 = hier.soft_level(0).unwrap();
        let direct = crate::soft::soft_bags(&h, 2);
        assert_eq!(s0, direct);
    }

    #[test]
    fn fixpoint_reaches_ghw_on_h2() {
        // ghw(H2) = 2 (Example 1); fixpoint of Soft^i at k=2 must accept,
        // and at k=1 must reject.
        let h = named::h2();
        assert!(ghw_leq_via_fixpoint(&h, 2, &limits()).unwrap().is_some());
        assert!(ghw_leq_via_fixpoint(&h, 1, &limits()).unwrap().is_none());
        assert_eq!(ghw(&h, &limits()).unwrap(), 2);
    }

    #[test]
    fn shw_i_between_ghw_and_shw() {
        let h = named::h2();
        let s0 = shw_i(&h, 0, &limits()).unwrap();
        let s1 = shw_i(&h, 1, &limits()).unwrap();
        let g = ghw(&h, &limits()).unwrap();
        assert!(g <= s1 && s1 <= s0, "ghw {g} <= shw1 {s1} <= shw0 {s0}");
        assert_eq!(s0, 2); // Example 1
    }

    #[test]
    fn witness_matches_materialised_membership() {
        let h = named::cycle(5);
        let mut hier = SoftHierarchy::new(&h, 2, limits());
        let s1 = hier.soft_level(1).unwrap();
        for bag in s1.iter().take(40) {
            let w = soft_i_witness(&h, 2, 1, bag, &limits()).unwrap();
            assert!(w.is_some(), "bag {bag:?} must have a level-1 witness");
            let w = w.unwrap();
            let mut union = h.empty_vertex_set();
            for e in &w.lambda1 {
                union.union_with(e);
            }
            union.intersect_with(&w.component_union);
            assert_eq!(&union, bag, "witness must reconstruct the bag");
            assert!(w.lambda1.len() <= 2);
        }
    }

    #[test]
    fn witness_rejects_non_members() {
        let h = named::h2();
        // {1,5} is in no Soft^0 or Soft^1 bag at k=1: 1 and 5 never share
        // an edge and subedge intersections only shrink edges.
        let bag = h.vset(&["1", "5"]);
        assert!(soft_i_witness(&h, 1, 1, &bag, &limits()).unwrap().is_none());
    }

    /// At `k = |E|` and past it the component sets decide, where walking
    /// `Soft^1` over every subset of `E^(1)` trips the default limits.
    #[test]
    fn a_width_of_the_edge_count_answers_yes_on_h2() {
        let h = named::h2();
        let walked = SoftHierarchy::new(&h, h.num_edges(), limits()).soft_level(1);
        assert!(walked.is_err(), "the walk must trip for this test to bite");
        for k in [h.num_edges(), usize::MAX] {
            let ghw = ghw_leq_via_fixpoint(&h, k, &limits())
                .unwrap()
                .expect("yes");
            assert_eq!(ghw.validate(&h), Ok(()));
            assert_eq!(ghw.bags(), [h.all_vertices()]);
            for i in 0..3 {
                let shw = shw_i_leq(&h, k, i, &limits()).unwrap().expect("yes");
                assert_eq!(shw.bags(), [h.all_vertices()], "shw_{i}, k = {k}");
            }
        }
    }

    #[test]
    fn fixpoint_terminates_quickly_on_small_graphs() {
        let h = named::cycle(4);
        let mut hier = SoftHierarchy::new(&h, 2, limits());
        let lvl = hier.fixpoint(usize::MAX).unwrap();
        assert!(lvl <= 3 * 4 + 1);
    }
}
