//! The paper's two cost functions as [`TdEvaluator`]s over candidate tree
//! decompositions, so Algorithm 2 and the enumeration machinery can rank
//! decompositions by estimated (C.2.1) or actual-cardinality (C.2.2)
//! cost. Both cache per-bag quantities keyed on interned [`BagId`]s.

use crate::cq::ConjunctiveQuery;
use softhw_core::ctd_opt::TdEvaluator;
use softhw_core::{Budget, DecompError};
use softhw_engine::relation::Relation;
use softhw_engine::{estimate, truecost};
use softhw_hypergraph::{BagArena, BagId, BitSet, FxHashMap, Hypergraph};
use std::cell::RefCell;

/// Shared context for the cost adapters: the bound query, its atom
/// relations, the query hypergraph, and per-bag caches.
///
/// Evaluator summaries are keyed by [`BagId`]: every bag an evaluator
/// sees is interned once into the context's arena, and the cover/size
/// caches map dense u32 ids instead of cloning boxed bitsets as hash
/// keys. The same bag arriving from different decompositions (the
/// enumeration machinery revisits bags constantly) is a word-level
/// arena probe followed by two `Vec`-indexed u32 map hits.
pub struct CostContext<'q> {
    cq: &'q ConjunctiveQuery,
    h: &'q Hypergraph,
    atoms: &'q [Relation],
    /// Per-atom: variables bound at a non-primary-key column (drives
    /// `ReduceAttrs`).
    nonkey_vars_per_atom: Vec<BitSet>,
    arena: RefCell<BagArena>,
    cover_cache: RefCell<FxHashMap<BagId, Vec<usize>>>,
    size_cache: RefCell<FxHashMap<BagId, f64>>,
}

impl<'q> CostContext<'q> {
    /// Builds the context. `pk_cols` maps atom index → the primary-key
    /// column index of its base table (if any), as recorded in the
    /// catalog.
    pub fn new(
        cq: &'q ConjunctiveQuery,
        h: &'q Hypergraph,
        atoms: &'q [Relation],
        db: &softhw_engine::Database,
    ) -> Self {
        let nonkey_vars_per_atom = cq
            .atoms
            .iter()
            .map(|atom| {
                let pk = db.table(&atom.table).and_then(|t| t.pk);
                let mut s = BitSet::empty(cq.num_vars);
                for (i, &v) in atom.vars.iter().enumerate() {
                    if Some(atom.cols[i]) != pk {
                        s.insert(v as usize);
                    }
                }
                s
            })
            .collect();
        CostContext {
            cq,
            h,
            atoms,
            nonkey_vars_per_atom,
            arena: RefCell::new(BagArena::new(h.num_vertices())),
            cover_cache: RefCell::new(FxHashMap::default()),
            size_cache: RefCell::new(FxHashMap::default()),
        }
    }

    /// Interns `bag` into the context's arena, returning its dense id —
    /// the key every per-bag cache uses.
    pub fn bag_id(&self, bag: &BitSet) -> BagId {
        self.arena.borrow_mut().intern(bag)
    }

    /// The cover (atom indices) used to materialise `bag`: the execution
    /// plan's [`crate::plan::cover`].
    pub fn cover(&self, bag: &BitSet) -> Vec<usize> {
        let id = self.bag_id(bag);
        if let Some(c) = self.cover_cache.borrow().get(&id) {
            return c.clone();
        }
        let cover = crate::plan::cover(self.h, bag).unwrap_or_default();
        self.cover_cache.borrow_mut().insert(id, cover.clone());
        cover
    }

    /// The true bag size `|J_u| = |π_bag(⋈ cover)|`, computed once per
    /// distinct bag (the "omniscient" input of C.2.2).
    pub fn true_bag_size(&self, bag: &BitSet) -> f64 {
        let id = self.bag_id(bag);
        if let Some(&s) = self.size_cache.borrow().get(&id) {
            return s;
        }
        let s = crate::plan::bag_size(self.cq, self.atoms, self.h, bag).unwrap_or(0) as f64;
        self.size_cache.borrow_mut().insert(id, s);
        s
    }

    fn rels(&self, cover: &[usize]) -> Vec<&Relation> {
        cover.iter().map(|&i| &self.atoms[i]).collect()
    }
}

/// Summary of the actual-cardinality cost function (C.2.2).
#[derive(Clone, Debug)]
pub struct TrueCostSummary {
    /// `cost(T_u)` per Eq. (9).
    pub cost: f64,
    /// `ReducedSz(u)` per Eq. (8).
    pub reduced_sz: f64,
    /// Variables occurring at non-PK positions anywhere in the subtree
    /// (input to the parent's `ReduceAttrs`).
    pub nonkey_below: BitSet,
}

/// The actual-cardinality cost function (Appendix C.2.2) as an evaluator.
pub struct TrueCardCost<'q, 'c> {
    /// Shared per-query context.
    pub cx: &'c CostContext<'q>,
}

impl TdEvaluator for TrueCardCost<'_, '_> {
    type Summary = TrueCostSummary;
    /// The bag's cover (atom indices), its true size `|J_u|`, and the
    /// node cost of materialising it.
    type Local = (Vec<usize>, f64, f64);

    fn local(
        &self,
        _h: &Hypergraph,
        bag: &BitSet,
        _budget: &Budget,
    ) -> Result<Option<Self::Local>, DecompError> {
        let cover = self.cx.cover(bag);
        let sizes: Vec<f64> = cover
            .iter()
            .map(|&i| self.cx.atoms[i].len() as f64)
            .collect();
        let j_u = self.cx.true_bag_size(bag);
        let node = truecost::node_cost(j_u, &sizes);
        Ok(Some((cover, j_u, node)))
    }

    fn combine(
        &self,
        bag: &BitSet,
        (cover, j_u, node): &Self::Local,
        children: &[TrueCostSummary],
    ) -> Option<TrueCostSummary> {
        let (j_u, node) = (*j_u, *node);
        let child_reduced: Vec<f64> = children.iter().map(|c| c.reduced_sz).collect();
        // ReduceAttrs(u): bag vars occurring at non-PK positions in some
        // child subtree.
        let mut below = BitSet::empty(self.cx.cq.num_vars);
        for c in children {
            below.union_with(&c.nonkey_below);
        }
        let reduce_attrs = bag.intersection(&below).len();
        let reduced_sz = truecost::reduced_size(j_u, reduce_attrs, &child_reduced);
        let scan = truecost::scan_cost(j_u, &child_reduced);
        let pairs: Vec<(f64, f64)> = children.iter().map(|c| (c.cost, c.reduced_sz)).collect();
        let cost = truecost::subtree_cost(node, scan, &pairs);
        let mut nonkey_below = below;
        for &ai in cover {
            nonkey_below.union_with(&self.cx.nonkey_vars_per_atom[ai]);
        }
        Some(TrueCostSummary {
            cost,
            reduced_sz,
            nonkey_below,
        })
    }

    fn better(&self, a: &TrueCostSummary, b: &TrueCostSummary) -> bool {
        a.cost < b.cost - 1e-9
    }
}

/// Summary of the DBMS-estimate cost function (C.2.1).
#[derive(Clone, Debug)]
pub struct EstimateCostSummary {
    /// `cost(T_u)` per Eq. (6).
    pub cost: f64,
    /// `C(J_u)`: the planner's cost of the bag query itself.
    pub self_cost: f64,
    /// Root bag (to price the parent/child semijoin).
    pub root_bag: BitSet,
}

/// The DBMS-estimate cost function (Appendix C.2.1) as an evaluator:
/// node costs are the planner's estimated total cost of the bag join
/// (Eq. (5)), subtree costs add the estimated semijoin overheads with a
/// floor of 1 (Eq. (6); the paper clamps to avoid negative costs from
/// noisy estimates).
pub struct DbmsEstimateCost<'q, 'c> {
    /// Shared per-query context.
    pub cx: &'c CostContext<'q>,
}

impl TdEvaluator for DbmsEstimateCost<'_, '_> {
    type Summary = EstimateCostSummary;
    /// The bag's cover (atom indices) and the planner's cost of joining
    /// it.
    type Local = (Vec<usize>, f64);

    fn local(
        &self,
        _h: &Hypergraph,
        bag: &BitSet,
        _budget: &Budget,
    ) -> Result<Option<Self::Local>, DecompError> {
        let cover = self.cx.cover(bag);
        let plain = estimate::estimated_query_cost(&self.cx.rels(&cover));
        Ok(Some((cover, plain)))
    }

    fn combine(
        &self,
        bag: &BitSet,
        (cover, parent_plain): &Self::Local,
        children: &[EstimateCostSummary],
    ) -> Option<EstimateCostSummary> {
        let rels = self.cx.rels(cover);
        let self_cost = if rels.len() > 1 { *parent_plain } else { 0.0 };
        let mut cost = self_cost;
        for c in children {
            let child_rels = self.cx.rels(&self.cx.cover(&c.root_bag));
            let semi = estimate::estimated_semijoin_cost(&rels, &child_rels);
            let child_plain = estimate::estimated_query_cost(&child_rels);
            cost += c.cost + (semi - parent_plain - child_plain).max(1.0);
        }
        Some(EstimateCostSummary {
            cost,
            self_cost,
            root_bag: bag.clone(),
        })
    }

    fn better(&self, a: &EstimateCostSummary, b: &EstimateCostSummary) -> bool {
        a.cost < b.cost - 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::bind;
    use crate::parser::parse_sql;
    use crate::plan::atom_relations;
    use softhw_core::constraints::concov_filter;
    use softhw_core::ctd_opt::top_n;
    use softhw_core::soft::soft_bags;
    use softhw_engine::{Database, Table};

    fn cycle_db(rows: u64) -> Database {
        let mut db = Database::new();
        for t in ["ra", "rb", "rc", "rd"] {
            let mut tab = Table::new(t, &["x", "y"], None);
            for i in 0..rows {
                tab.push_row(&[i, (i + 1) % rows]);
            }
            db.add_table(tab);
        }
        db
    }

    fn cycle_query(db: &Database) -> ConjunctiveQuery {
        let q = parse_sql(
            "SELECT MIN(ra.x) FROM ra, rb, rc, rd \
             WHERE ra.y = rb.x AND rb.y = rc.x AND rc.y = rd.x AND rd.y = ra.x",
        )
        .unwrap();
        bind(&q, db).unwrap()
    }

    #[test]
    fn true_cost_ranks_decompositions() {
        let db = cycle_db(64);
        let cq = cycle_query(&db);
        let h = cq.hypergraph();
        let atoms = atom_relations(&cq, &db);
        let cx = CostContext::new(&cq, &h, &atoms, &db);
        let bags = concov_filter(&h, 2, &soft_bags(&h, 2));
        let eval = TrueCardCost { cx: &cx };
        let all = top_n(&h, &bags, &eval, 10_000);
        assert!(!all.is_empty());
        for w in all.windows(2) {
            assert!(w[0].1.cost <= w[1].1.cost + 1e-6);
        }
    }

    #[test]
    fn estimate_cost_is_finite_and_positive() {
        let db = cycle_db(32);
        let cq = cycle_query(&db);
        let h = cq.hypergraph();
        let atoms = atom_relations(&cq, &db);
        let cx = CostContext::new(&cq, &h, &atoms, &db);
        let bags = concov_filter(&h, 2, &soft_bags(&h, 2));
        let eval = DbmsEstimateCost { cx: &cx };
        let all = top_n(&h, &bags, &eval, 10_000);
        assert!(!all.is_empty());
        for (_, s) in &all {
            assert!(s.cost.is_finite());
            assert!(s.cost >= 0.0);
        }
    }

    #[test]
    fn caches_are_reused() {
        let db = cycle_db(16);
        let cq = cycle_query(&db);
        let h = cq.hypergraph();
        let atoms = atom_relations(&cq, &db);
        let cx = CostContext::new(&cq, &h, &atoms, &db);
        let bag = h.all_vertices();
        let a = cx.true_bag_size(&bag);
        let b = cx.true_bag_size(&bag);
        assert_eq!(a, b);
        assert_eq!(cx.cover(&bag), cx.cover(&bag));
    }
}
