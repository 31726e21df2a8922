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

use crate::cover;
use crate::ctd::CtdInstance;
use crate::error::DecompError;
use crate::reduce_solve::first_width;
use crate::soft::{self, LimitExceeded, SoftLimits};
use crate::td::TreeDecomposition;
use softhw_hypergraph::arena::{words_empty, words_intersect_into, IdSet};
use softhw_hypergraph::{BagId, BitSet, BlockIndex, Hypergraph, HypergraphBuilder};

/// Lazily computed levels of the `E^(i)` / `Soft^i_{H,k}` hierarchy.
///
/// All levels live as interned [`BagId`]s in one shared [`BlockIndex`]:
/// the subedge products `E^(i+1) = E^(i) ⋂× Soft^i` dedup by arena
/// interning, and the per-level `Soft^i` generation reuses the index's
/// component/union caches — the `λ2` side of Definition 3 does not
/// depend on the level, so every level past the first enumerates it for
/// free. Materialised [`BitSet`] views are kept per level for the
/// public slice API.
pub struct SoftHierarchy<'h> {
    h: &'h Hypergraph,
    k: usize,
    limits: SoftLimits,
    index: BlockIndex,
    /// `subedges[i]` = `E^(i)` (ids, sorted by content).
    subedge_ids: Vec<Vec<BagId>>,
    /// `bags[i]` = `Soft^i_{H,k}` (ids, sorted by content).
    bag_ids: Vec<Vec<BagId>>,
    /// Materialised views, index-aligned with the id levels.
    subedges: Vec<Vec<BitSet>>,
    bags: Vec<Vec<BitSet>>,
}

impl<'h> SoftHierarchy<'h> {
    /// Creates an empty hierarchy for `H` and width bound `k`.
    pub fn new(h: &'h Hypergraph, k: usize, limits: SoftLimits) -> Self {
        SoftHierarchy {
            h,
            k,
            limits,
            index: BlockIndex::new(h),
            subedge_ids: Vec::new(),
            bag_ids: Vec::new(),
            subedges: Vec::new(),
            bags: Vec::new(),
        }
    }

    /// The width parameter `k` of this hierarchy.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Ensures levels `0..=i` are materialised; returns `Soft^i_{H,k}`.
    pub fn soft_level(&mut self, i: usize) -> Result<&[BitSet], LimitExceeded> {
        self.ensure(i)?;
        Ok(&self.bags[i])
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

    fn materialise(index: &BlockIndex, ids: &[BagId]) -> Vec<BitSet> {
        ids.iter().map(|&id| index.arena.to_bitset(id)).collect()
    }

    /// Ensures `E^(i)` is materialised (this requires `Soft^(i-1)` for
    /// `i > 0`); returns it.
    pub fn subedge_level(&mut self, i: usize) -> Result<&[BitSet], LimitExceeded> {
        self.ensure_subedges(i)?;
        Ok(&self.subedges[i])
    }

    fn ensure_subedges(&mut self, i: usize) -> Result<(), LimitExceeded> {
        if i == 0 {
            if self.subedge_ids.is_empty() {
                let mut seen = IdSet::new();
                let mut v: Vec<BagId> = Vec::new();
                for e in 0..self.h.num_edges() {
                    let id = self.index.arena.intern_words(self.h.edge(e).blocks());
                    if seen.insert(id) {
                        v.push(id);
                    }
                }
                v.sort_unstable_by(|&a, &b| self.index.arena.cmp_bags(a, b));
                self.subedges.push(Self::materialise(&self.index, &v));
                self.subedge_ids.push(v);
            }
            return Ok(());
        }
        self.ensure(i - 1)?;
        while self.subedge_ids.len() <= i {
            let lvl = self.subedge_ids.len();
            let words = self.index.arena.words_per_bag();
            let mut seen = IdSet::new();
            let mut v: Vec<BagId> = Vec::new();
            let mut buf = vec![0u64; words];
            for ei in 0..self.subedge_ids[lvl - 1].len() {
                for bi in 0..self.bag_ids[lvl - 1].len() {
                    let (e, b) = (self.subedge_ids[lvl - 1][ei], self.bag_ids[lvl - 1][bi]);
                    buf.copy_from_slice(self.index.arena.words(e));
                    words_intersect_into(self.index.arena.words(b), &mut buf);
                    if !words_empty(&buf) {
                        let id = self.index.arena.intern_words(&buf);
                        if seen.insert(id) {
                            v.push(id);
                            if v.len() > self.limits.max_bags {
                                return Err(LimitExceeded {
                                    what: "max_bags (subedge level)",
                                });
                            }
                        }
                    }
                }
            }
            v.sort_unstable_by(|&a, &b| self.index.arena.cmp_bags(a, b));
            self.subedges.push(Self::materialise(&self.index, &v));
            self.subedge_ids.push(v);
        }
        Ok(())
    }

    fn ensure(&mut self, i: usize) -> Result<(), LimitExceeded> {
        while self.bag_ids.len() <= i {
            let lvl = self.bag_ids.len();
            self.ensure_subedges(lvl)?;
            let elements = self.subedge_ids[lvl].clone();
            let ids =
                soft::soft_bag_ids_from_elements(&mut self.index, &elements, self.k, &self.limits)?;
            self.bags.push(Self::materialise(&self.index, &ids));
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
            if self.bags[i] == self.bags[i + 1] {
                return Ok(i);
            }
            i += 1;
            if i >= bound {
                return Ok(i); // conservative: caller sees the last level
            }
        }
    }
}

/// Decides `shw_i(H) ≤ k` (soft hypertree width of order `i`); returns a
/// witness CTD over `Soft^i_{H,k}` on success. The CTD instance is built
/// on the hierarchy's own block index, so the components cached while
/// generating the levels are reused for the block table.
pub fn shw_i_leq(
    h: &Hypergraph,
    k: usize,
    i: usize,
    limits: &SoftLimits,
) -> Result<Option<TreeDecomposition>, LimitExceeded> {
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
/// hypergraphs (tests, the `hierarchy` experiment binary).
pub fn ghw_leq_via_fixpoint(
    h: &Hypergraph,
    k: usize,
    limits: &SoftLimits,
) -> Result<Option<TreeDecomposition>, LimitExceeded> {
    let mut hier = SoftHierarchy::new(h, k, limits.clone());
    let lvl = hier.fixpoint(usize::MAX)?;
    let bags = hier.soft_level_ids(lvl)?.to_vec();
    Ok(CtdInstance::build(hier.index_mut(), &bags).decide())
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
    let subedges = hier.subedge_level(i)?.to_vec();
    let u_side = soft::component_unions(h, k, limits)?;
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
        let e0 = hier.subedge_level(0).unwrap().to_vec();
        let e1 = hier.subedge_level(1).unwrap().to_vec();
        let s0 = hier.soft_level(0).unwrap().to_vec();
        let s1 = hier.soft_level(1).unwrap().to_vec();
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
        let s0 = hier.soft_level(0).unwrap().to_vec();
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
        let s1 = hier.soft_level(1).unwrap().to_vec();
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

    #[test]
    fn fixpoint_terminates_quickly_on_small_graphs() {
        let h = named::cycle(4);
        let mut hier = SoftHierarchy::new(&h, 2, limits());
        let lvl = hier.fixpoint(usize::MAX).unwrap();
        assert!(lvl <= 3 * 4 + 1);
    }
}
