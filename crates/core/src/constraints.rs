//! The constraint and preference library of Section 6: connected covers
//! (`ConCov`), shallow cyclicity (`ShallowCyc_d`), partition clustering
//! (`PartClust`), cost-based preferences (the opt-k-decomp-style node +
//! edge cost model), and combinators.
//!
//! All of these implement [`TdEvaluator`], the paper's
//! "tractable constraint + preference-complete toptd" interface: each
//! says what it knows about a bag by itself (`local` — the cover
//! searches, the edge scans, the node costs) apart from how it combines
//! child summaries (`combine`), so Algorithm 2 pays for the former once
//! per candidate bag. The pure constraints (`Trivial`, `ConCov`) also
//! say they do not rank (`ranks() == false`), so Algorithm 2 pays for no
//! preference either: it stops at a block's first passing candidate.

use crate::budget::Budget;
use crate::cover;
use crate::ctd_opt::TdEvaluator;
use crate::error::DecompError;
use softhw_hypergraph::{BitSet, Hypergraph};

/// The trivial evaluator: no constraint, no preference. With it,
/// Algorithm 2 is Algorithm 1. The two share one fixpoint driver and one
/// extractor and differ only in their block rule, and `Trivial`'s rule —
/// the first viable candidate whose children hold a value — is Algorithm
/// 1's: `best_on(inst, &Trivial)` answers with `inst.decide()`'s witness.
pub struct Trivial;

impl TdEvaluator for Trivial {
    type Summary = ();
    type Local = ();

    fn local(&self, _: &Hypergraph, _: &BitSet, _: &Budget) -> Result<Option<()>, DecompError> {
        Ok(Some(()))
    }

    fn combine(&self, _bag: &BitSet, _local: &(), _children: &[()]) -> Option<()> {
        Some(())
    }

    fn better(&self, _a: &(), _b: &()) -> bool {
        false
    }

    fn ranks(&self) -> bool {
        false
    }
}

/// Summary for additive cost evaluators.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostSummary {
    /// Accumulated cost of the partial decomposition.
    pub cost: f64,
}

/// Additive per-bag cost: `cost(T_u) = f(B(u)) + Σ cost(T_c)`.
/// A strongly monotone toptd in the paper's sense.
pub struct BagCost<F> {
    f: F,
}

impl<F: Fn(&BitSet) -> f64> BagCost<F> {
    /// Creates the evaluator from a per-bag cost function.
    pub fn new(f: F) -> Self {
        BagCost { f }
    }
}

impl<F: Fn(&BitSet) -> f64> TdEvaluator for BagCost<F> {
    type Summary = CostSummary;
    /// `f(B(u))`.
    type Local = f64;

    fn local(&self, _: &Hypergraph, bag: &BitSet, _: &Budget) -> Result<Option<f64>, DecompError> {
        Ok(Some((self.f)(bag)))
    }

    fn combine(&self, _bag: &BitSet, node: &f64, children: &[CostSummary]) -> Option<CostSummary> {
        let cost = node + children.iter().map(|c| c.cost).sum::<f64>();
        Some(CostSummary { cost })
    }

    fn better(&self, a: &CostSummary, b: &CostSummary) -> bool {
        a.cost < b.cost - 1e-12
    }
}

/// Summary for [`JoinCost`]: cost plus the root bag of the partial
/// decomposition (needed to price the (semi-)join between a node and its
/// parent, as in opt-k-decomp / Scarcello et al. \[30\]).
#[derive(Clone, Debug)]
pub struct JoinCostSummary {
    /// Accumulated cost.
    pub cost: f64,
    /// Bag at the root of the summarised partial decomposition.
    pub root_bag: BitSet,
}

/// The weighted-HD cost model: each node pays `node(bag)` and each tree
/// edge pays `edge(parent_bag, child_bag)`; costs add up over the tree.
pub struct JoinCost<N, E> {
    node: N,
    edge: E,
}

impl<N, E> JoinCost<N, E>
where
    N: Fn(&BitSet) -> f64,
    E: Fn(&BitSet, &BitSet) -> f64,
{
    /// Creates the evaluator from a node cost and a parent/child edge cost.
    pub fn new(node: N, edge: E) -> Self {
        JoinCost { node, edge }
    }
}

impl<N, E> TdEvaluator for JoinCost<N, E>
where
    N: Fn(&BitSet) -> f64,
    E: Fn(&BitSet, &BitSet) -> f64,
{
    type Summary = JoinCostSummary;
    /// `node(B(u))`.
    type Local = f64;

    fn local(&self, _: &Hypergraph, bag: &BitSet, _: &Budget) -> Result<Option<f64>, DecompError> {
        Ok(Some((self.node)(bag)))
    }

    fn combine(
        &self,
        bag: &BitSet,
        node: &f64,
        children: &[JoinCostSummary],
    ) -> Option<JoinCostSummary> {
        let mut cost = *node;
        for c in children {
            cost += c.cost + (self.edge)(bag, &c.root_bag);
        }
        Some(JoinCostSummary {
            cost,
            root_bag: bag.clone(),
        })
    }

    fn better(&self, a: &JoinCostSummary, b: &JoinCostSummary) -> bool {
        a.cost < b.cost - 1e-12
    }
}

/// Filters a candidate bag set down to the bags admitting a *connected*
/// edge cover with at most `k` edges — the `ConCov` constraint of
/// Section 6 applied as a pre-filter (this is how the paper's prototype
/// counts `ConCov-Soft_{H,k}` in Table 1).
pub fn concov_filter(h: &Hypergraph, k: usize, bags: &[BitSet]) -> Vec<BitSet> {
    bags.iter()
        .filter(|b| cover::find_connected_cover(h, b, k).is_some())
        .cloned()
        .collect()
}

/// Filters candidate bags by the *prototype's* ConCov notion: a bag
/// counts iff one of its generating covers (union exactly the bag) is
/// connected. Reproduces the `ConCov-Soft_{H,k}` column of Table 1.
pub fn concov_exact_filter(h: &Hypergraph, k: usize, bags: &[BitSet]) -> Vec<BitSet> {
    bags.iter()
        .filter(|b| cover::find_exact_connected_cover(h, b, k).is_some())
        .cloned()
        .collect()
}

/// `ConCov` as an evaluator (per-bag constraint, no preference). Any
/// `k` is accepted: the cover search clamps it to `|E|`.
pub struct ConCov {
    /// Width bound for the connected cover.
    pub k: usize,
}

impl TdEvaluator for ConCov {
    type Summary = ();
    type Local = ();

    fn local(
        &self,
        h: &Hypergraph,
        bag: &BitSet,
        budget: &Budget,
    ) -> Result<Option<()>, DecompError> {
        let cover = cover::find_connected_cover_budgeted(h, bag, self.k, budget)?;
        Ok(cover.map(|_| ()))
    }

    fn combine(&self, _bag: &BitSet, _local: &(), _children: &[()]) -> Option<()> {
        Some(())
    }

    fn better(&self, _a: &(), _b: &()) -> bool {
        false
    }

    fn ranks(&self) -> bool {
        false
    }
}

/// `ShallowCyc_d` (Section 6): the bag of every node at depth greater
/// than `d` must be coverable by a single edge. The summary is the depth
/// of the deepest "cyclic" (not single-edge-coverable) node measured from
/// the subtree root, `-1` when the whole subtree is single-edge; the
/// preference orders partial decompositions by this depth, which is the
/// preference-complete toptd of Example 5.
pub struct ShallowCyc {
    /// The cyclicity-depth bound `d`.
    pub d: i64,
}

impl TdEvaluator for ShallowCyc {
    type Summary = i64;
    /// Is the bag "cyclic", i.e. inside no single edge?
    type Local = bool;

    fn local(&self, h: &Hypergraph, bag: &BitSet, _: &Budget) -> Result<Option<bool>, DecompError> {
        Ok(Some(!h.edges().iter().any(|e| bag.is_subset(e))))
    }

    fn combine(&self, _bag: &BitSet, self_cyclic: &bool, children: &[i64]) -> Option<i64> {
        let mut deepest: i64 = if *self_cyclic { 0 } else { -1 };
        for &c in children {
            if c >= 0 {
                deepest = deepest.max(c + 1);
            }
        }
        if deepest > self.d {
            None
        } else {
            Some(deepest)
        }
    }

    fn better(&self, a: &i64, b: &i64) -> bool {
        a < b
    }
}

/// Summary for [`PartClust`]: the feasible `(root partition, closed
/// partitions)` options of a partial decomposition. A partition is
/// *closed* once used strictly below a node of another partition — it may
/// never appear again higher up (the induced-subtree condition).
#[derive(Clone, Debug)]
pub struct PartClustSummary {
    /// Feasible options `(partition of the root node, closed partitions)`.
    pub options: Vec<(usize, BitSet)>,
}

/// `PartClust` (Section 6): every bag must be coverable by edges of a
/// single partition, and each partition's nodes must form one connected
/// subtree. `labels[e]` is the partition of edge `e`.
///
/// Child options are combined with the preference noted in the paper
/// ("prefer the root to share a child's partition over introducing a new
/// one"): for each candidate root partition the evaluator picks, per
/// child, a same-partition option when available and otherwise the option
/// with the fewest closed partitions. This is exact for two partitions
/// (the experimental setting) and a sound under-approximation beyond.
pub struct PartClust {
    /// Width bound for the per-partition covers.
    pub k: usize,
    /// Edge id → partition id.
    pub labels: Vec<usize>,
    /// Number of partitions.
    pub num_partitions: usize,
}

impl PartClust {
    /// Whether partition `p`'s edges cover `bag` with at most `k` edges.
    fn partition_cover(
        &self,
        h: &Hypergraph,
        bag: &BitSet,
        p: usize,
        budget: &Budget,
    ) -> Result<bool, DecompError> {
        let cover = cover::find_cover_among(h, bag, self.k, |e| self.labels[e] == p, budget)?;
        Ok(cover.is_some())
    }
}

impl TdEvaluator for PartClust {
    type Summary = PartClustSummary;
    /// The partitions whose edges cover the bag with at most `k` edges,
    /// ascending; a bag none covers is rejected.
    type Local = Vec<usize>;

    fn local(
        &self,
        h: &Hypergraph,
        bag: &BitSet,
        budget: &Budget,
    ) -> Result<Option<Vec<usize>>, DecompError> {
        let mut covering = Vec::new();
        for p in 0..self.num_partitions {
            if self.partition_cover(h, bag, p, budget)? {
                covering.push(p);
            }
        }
        Ok((!covering.is_empty()).then_some(covering))
    }

    fn combine(
        &self,
        _bag: &BitSet,
        covering: &Vec<usize>,
        children: &[PartClustSummary],
    ) -> Option<PartClustSummary> {
        let mut options = Vec::new();
        'parts: for &p in covering {
            let mut closed = BitSet::empty(self.num_partitions);
            for child in children {
                // Prefer a same-partition option; otherwise the smallest
                // closure. Either way the contribution must avoid p and be
                // disjoint from what is already closed.
                let mut picked: Option<BitSet> = None;
                let mut candidates: Vec<&(usize, BitSet)> = child.options.iter().collect();
                candidates.sort_by_key(|(q, cl)| (*q != p, cl.len()));
                for (q, cl) in candidates {
                    let mut contribution = cl.clone();
                    if *q != p {
                        contribution.insert(*q);
                    }
                    if contribution.contains(p) || contribution.intersects(&closed) {
                        continue;
                    }
                    picked = Some(contribution);
                    break;
                }
                match picked {
                    Some(c) => closed.union_with(&c),
                    None => continue 'parts,
                }
            }
            options.push((p, closed));
        }
        if options.is_empty() {
            None
        } else {
            Some(PartClustSummary { options })
        }
    }

    fn better(&self, a: &PartClustSummary, b: &PartClustSummary) -> bool {
        let score = |s: &PartClustSummary| {
            s.options
                .iter()
                .map(|(_, cl)| cl.len())
                .min()
                .unwrap_or(usize::MAX)
        };
        score(a) < score(b)
    }
}

/// Lexicographic combination: constraint/preference `A` first, `B` as a
/// tie-breaker. Used e.g. for "`ConCov` plus cost" — the paper's
/// `{ConCov, ≤_cost}` combination.
pub struct Lexi<A, B> {
    a: A,
    b: B,
}

impl<A, B> Lexi<A, B> {
    /// Combines two evaluators lexicographically.
    pub fn new(a: A, b: B) -> Self {
        Lexi { a, b }
    }
}

impl<A: TdEvaluator, B: TdEvaluator> TdEvaluator for Lexi<A, B> {
    type Summary = (A::Summary, B::Summary);
    type Local = (A::Local, B::Local);

    fn local(
        &self,
        h: &Hypergraph,
        bag: &BitSet,
        budget: &Budget,
    ) -> Result<Option<(A::Local, B::Local)>, DecompError> {
        let Some(a) = self.a.local(h, bag, budget)? else {
            return Ok(None);
        };
        Ok(self.b.local(h, bag, budget)?.map(|b| (a, b)))
    }

    fn combine(
        &self,
        bag: &BitSet,
        (la, lb): &(A::Local, B::Local),
        children: &[(A::Summary, B::Summary)],
    ) -> Option<(A::Summary, B::Summary)> {
        let ca: Vec<A::Summary> = children.iter().map(|(a, _)| a.clone()).collect();
        let cb: Vec<B::Summary> = children.iter().map(|(_, b)| b.clone()).collect();
        Some((self.a.combine(bag, la, &ca)?, self.b.combine(bag, lb, &cb)?))
    }

    fn better(&self, x: &(A::Summary, B::Summary), y: &(A::Summary, B::Summary)) -> bool {
        if self.a.better(&x.0, &y.0) {
            return true;
        }
        if self.a.better(&y.0, &x.0) {
            return false;
        }
        self.b.better(&x.1, &y.1)
    }

    fn ranks(&self) -> bool {
        self.a.ranks() || self.b.ranks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctd_opt::{best, enumerate_all, EnumerateOptions};
    use crate::soft::soft_bags;
    use softhw_hypergraph::named;

    #[test]
    fn c5_concov_forces_width_3() {
        // Section 6: ConCov-shw(C5) = 3 while shw(C5) = 2.
        let h = named::cycle(5);
        let bags2 = concov_filter(&h, 2, &soft_bags(&h, 2));
        assert!(
            best(&h, &bags2, &Trivial).is_none(),
            "no ConCov CTD at width 2"
        );
        let bags3 = concov_filter(&h, 3, &soft_bags(&h, 3));
        let (td, _) = best(&h, &bags3, &Trivial).expect("ConCov-shw(C5) = 3");
        assert_eq!(td.validate(&h), Ok(()));
        for bag in td.bags() {
            assert!(cover::find_connected_cover(&h, bag, 3).is_some());
        }
    }

    #[test]
    fn concov_evaluator_agrees_with_filter() {
        let h = named::cycle(5);
        let bags = soft_bags(&h, 2);
        let via_eval = enumerate_all(&h, &bags, &ConCov { k: 2 }, &EnumerateOptions::default());
        assert!(via_eval.is_empty());
        let bags3 = soft_bags(&h, 3);
        let via_eval3 = enumerate_all(&h, &bags3, &ConCov { k: 3 }, &EnumerateOptions::default());
        assert!(!via_eval3.is_empty());
    }

    #[test]
    fn shallow_cyc_zero_requires_cyclic_root_only() {
        // triangle_star: a single central cyclic core with pendant
        // triangles; at d >= 0 it should admit decompositions whose deep
        // nodes are single-edge.
        let h = named::four_cycle_query();
        let bags = soft_bags(&h, 2);
        let deep = enumerate_all(
            &h,
            &bags,
            &ShallowCyc { d: 1 },
            &EnumerateOptions::default(),
        );
        assert!(!deep.is_empty(), "the 4-cycle has cyclicity depth <= 1");
        for (_, depth) in &deep {
            assert!(*depth <= 1);
        }
    }

    #[test]
    fn part_clust_on_example_4() {
        // Example 4: R,U,V on partition 0, S,T,W on partition 1.
        // A PartClust decomposition of width 2 exists (Figure 4c).
        let (h, labels) = named::example4_query();
        let bags = soft_bags(&h, 2);
        let eval = PartClust {
            k: 2,
            labels,
            num_partitions: 2,
        };
        let (td, summary) = best(&h, &bags, &eval).expect("Figure 4c exists");
        assert_eq!(td.validate(&h), Ok(()));
        assert!(!summary.options.is_empty());
    }

    #[test]
    fn part_clust_rejects_impossible_labelling() {
        // Alternating partitions around a 4-cycle: bags of two adjacent
        // edges can never be covered within one partition.
        let h = named::four_cycle_query();
        let labels = vec![0, 1, 0, 1];
        let bags = soft_bags(&h, 2);
        let eval = PartClust {
            k: 2,
            labels,
            num_partitions: 2,
        };
        // Width-2 bags mixing partitions are rejected; since every CTD of
        // the 4-cycle needs a two-edge bag and opposite edges share no
        // vertex pairings across partitions, expect: either none, or all
        // results use single-partition covers only.
        if let Some((td, _)) = best(&h, &bags, &eval) {
            for bag in td.bags() {
                let unlimited = Budget::unlimited();
                let cov0 = eval.partition_cover(&h, bag, 0, &unlimited).unwrap();
                let cov1 = eval.partition_cover(&h, bag, 1, &unlimited).unwrap();
                assert!(cov0 || cov1);
            }
        }
    }

    #[test]
    fn a_width_beyond_the_edge_count_answers_as_the_edge_count() {
        use crate::ctd::CtdInstance;
        use crate::ctd_opt::best_on;
        let (h, labels) = named::example4_query();
        let all = h.num_edges();
        let unlimited = Budget::unlimited();
        let clust = |k| PartClust {
            k,
            labels: labels.clone(),
            num_partitions: 2,
        };
        for bag in soft_bags(&h, 2).iter().chain([&h.all_vertices()]) {
            for p in 0..2 {
                assert_eq!(
                    clust(usize::MAX).partition_cover(&h, bag, p, &unlimited),
                    clust(all).partition_cover(&h, bag, p, &unlimited)
                );
            }
        }
        for h in [named::cycle(5), named::h2(), h] {
            let inst = CtdInstance::new(&h, &soft_bags(&h, 2));
            let all = h.num_edges();
            assert_eq!(
                format!("{:?}", best_on(&inst, &ConCov { k: usize::MAX })),
                format!("{:?}", best_on(&inst, &ConCov { k: all }))
            );
            assert_eq!(
                concov_filter(&h, usize::MAX, &soft_bags(&h, 2)),
                concov_filter(&h, all, &soft_bags(&h, 2))
            );
        }
    }

    #[test]
    fn lexi_prefers_primary_then_secondary() {
        let h = named::cycle(6);
        let bags = soft_bags(&h, 2);
        let eval = Lexi::new(
            ShallowCyc { d: 10 },
            BagCost::new(|b: &BitSet| b.len() as f64),
        );
        let all = enumerate_all(&h, &bags, &eval, &EnumerateOptions::default());
        assert!(!all.is_empty());
        for w in all.windows(2) {
            let (d0, c0) = (&w[0].1 .0, w[0].1 .1.cost);
            let (d1, c1) = (&w[1].1 .0, w[1].1 .1.cost);
            assert!(
                d0 < d1 || (d0 == d1 && c0 <= c1 + 1e-9),
                "lexicographic order violated"
            );
        }
    }

    use crate::cover;
}
