//! From decomposition to execution: materialise atom relations, assign
//! atoms and covers to decomposition nodes, build the Yannakakis join
//! tree, and run it (Appendix C.1's rewriting pipeline, executed against
//! the in-memory engine instead of rendered SQL — see
//! [`crate::rewrite`] for the textual rendering).

use crate::cq::ConjunctiveQuery;
use softhw_core::td::TreeDecomposition;
use softhw_engine::relation::{Relation, VarId};
use softhw_engine::yannakakis::{EvalStats, JoinTree};
use softhw_engine::Database;
use softhw_hypergraph::{BitSet, Hypergraph};

/// Materialises each atom as a [`Relation`] over its variables, applying
/// constant filters and intra-atom equalities (two columns bound to the
/// same variable).
pub fn atom_relations(cq: &ConjunctiveQuery, db: &Database) -> Vec<Relation> {
    cq.atoms
        .iter()
        .map(|atom| {
            let table = db.table(&atom.table).expect("bound against this catalog");
            // Group columns by variable: first column represents; the rest
            // impose equality.
            let mut rep_cols: Vec<usize> = Vec::new();
            let mut rep_vars: Vec<VarId> = Vec::new();
            let mut extra_eq: Vec<(usize, usize)> = Vec::new(); // (col, rep col)
            for (i, &v) in atom.vars.iter().enumerate() {
                match rep_vars.iter().position(|&rv| rv == v) {
                    Some(j) => extra_eq.push((atom.cols[i], rep_cols[j])),
                    None => {
                        rep_cols.push(atom.cols[i]);
                        rep_vars.push(v);
                    }
                }
            }
            let mut rel = if extra_eq.is_empty() {
                table.as_relation(&rep_cols, &rep_vars)
            } else {
                // materialise with the equality filter applied
                let all_cols: Vec<usize> = (0..table.columns.len()).collect();
                let tmp_vars: Vec<VarId> = (0..table.columns.len() as u32).collect();
                let full = table.as_relation(&all_cols, &tmp_vars);
                let mut out = Relation::new(rep_vars.clone());
                let mut buf = Vec::with_capacity(rep_cols.len());
                for r in full.rows() {
                    if extra_eq.iter().all(|&(a, b)| r[a] == r[b]) {
                        buf.clear();
                        buf.extend(rep_cols.iter().map(|&c| r[c]));
                        out.push_row(&buf);
                    }
                }
                out
            };
            for &(v, value) in &cq.filters {
                if rel.position(v).is_some() {
                    rel = rel.select_eq(v, value);
                }
            }
            rel
        })
        .collect()
}

/// The per-node structure of a decomposition plan.
#[derive(Clone, Debug)]
pub struct PlanNode {
    /// Bag variables.
    pub bag_vars: Vec<VarId>,
    /// Atom indices joined at this node: a (preferably connected) cover of
    /// the bag plus every atom assigned here for predicate enforcement.
    pub atoms: Vec<usize>,
}

/// A decomposition-guided query plan: one [`PlanNode`] per decomposition
/// node, tree shape mirrored from the decomposition.
#[derive(Clone, Debug)]
pub struct DecompPlan {
    /// Plan nodes, indexed like the decomposition's nodes.
    pub nodes: Vec<PlanNode>,
    /// Children lists (same shape as the decomposition).
    pub children: Vec<Vec<usize>>,
    /// Root index.
    pub root: usize,
}

/// Errors raised during planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A bag has no edge cover among the query's atoms (cannot happen for
    /// candidate bags of `Soft_{H,k}`; indicates a foreign decomposition).
    NoCover {
        /// Offending decomposition node.
        node: usize,
    },
    /// An atom's variables fit in no bag — the decomposition is not a
    /// tree decomposition of this query's hypergraph.
    AtomNotCovered {
        /// Offending atom index.
        atom: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NoCover { node } => write!(f, "no atom cover for bag of node {node}"),
            PlanError::AtomNotCovered { atom } => {
                write!(f, "atom {atom} is contained in no bag")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// The atoms a plan joins to materialise `bag`: a smallest connected
/// cover, else any cover; `None` if the atoms do not cover the bag.
pub fn cover(h: &Hypergraph, bag: &BitSet) -> Option<Vec<usize>> {
    (1..=h.num_edges())
        .find_map(|k| softhw_core::cover::find_connected_cover(h, bag, k))
        .or_else(|| softhw_core::cover::find_cover(h, bag, h.num_edges()))
}

/// Builds the plan for a decomposition: per node, the bag's [`cover`]
/// plus the enforcement assignment of every atom to one node whose bag
/// contains it.
pub fn build_plan(
    cq: &ConjunctiveQuery,
    h: &Hypergraph,
    td: &TreeDecomposition,
) -> Result<DecompPlan, PlanError> {
    let n = td.num_nodes();
    let mut nodes = Vec::with_capacity(n);
    for u in 0..n {
        let bag = td.bag(u);
        let cover = cover(h, bag).ok_or(PlanError::NoCover { node: u })?;
        nodes.push(PlanNode {
            bag_vars: bag.iter().map(|v| v as VarId).collect(),
            atoms: cover,
        });
    }
    // Predicate enforcement: every atom joins at some node containing it.
    for (ai, _) in cq.atoms.iter().enumerate() {
        let vars = cq.atom_vars(ai);
        if nodes.iter().any(|n| n.atoms.contains(&ai)) {
            continue;
        }
        let host = (0..n)
            .find(|&u| vars.iter().all(|&v| td.bag(u).contains(v as usize)))
            .ok_or(PlanError::AtomNotCovered { atom: ai })?;
        nodes[host].atoms.push(ai);
    }
    Ok(DecompPlan {
        nodes,
        children: (0..n).map(|u| td.children(u).to_vec()).collect(),
        root: td.root(),
    })
}

/// Result of executing a decomposition plan.
#[derive(Clone, Debug)]
pub struct ExecResult {
    /// The aggregate value (`None` on an empty result).
    pub value: Option<u64>,
    /// Logical work counters (bag materialisation + Yannakakis phases).
    pub stats: EvalStats,
    /// The true bag sizes `|J_u|` (after projection to the bag).
    pub bag_sizes: Vec<u64>,
}

/// Materialises the bags and runs Yannakakis for the query's aggregate.
pub fn execute(cq: &ConjunctiveQuery, atoms: &[Relation], plan: &DecompPlan) -> ExecResult {
    execute_with_cap(cq, atoms, plan, u64::MAX).expect("uncapped execution cannot abort")
}

/// Like [`execute`] but aborts (returning `None`) once the total tuples
/// materialised exceed `cap` — the harness's analogue of a query timeout
/// for deliberately bad decompositions (Cartesian-product bags).
pub fn execute_with_cap(
    cq: &ConjunctiveQuery,
    atoms: &[Relation],
    plan: &DecompPlan,
    cap: u64,
) -> Option<ExecResult> {
    let mut stats = EvalStats::default();
    let mut bag_rels: Vec<Relation> = Vec::with_capacity(plan.nodes.len());
    for node in &plan.nodes {
        let mut acc: Option<Relation> = None;
        for &ai in &node.atoms {
            acc = Some(match acc {
                None => atoms[ai].clone(),
                Some(r) => {
                    let j = r.natural_join(&atoms[ai]);
                    stats.tuples_materialised += j.len() as u64;
                    if stats.tuples_materialised > cap {
                        return None;
                    }
                    j
                }
            });
        }
        let joined = acc.expect("covers are non-empty");
        // Project to the bag variables (π_{B_u} of Eq. (5)); keep only
        // vars actually present (bag vars not in any cover atom cannot
        // occur — covers span the bag by construction).
        let keep: Vec<VarId> = node
            .bag_vars
            .iter()
            .copied()
            .filter(|&v| joined.position(v).is_some())
            .collect();
        bag_rels.push(joined.project(&keep).distinct());
    }
    let bag_sizes: Vec<u64> = bag_rels.iter().map(|r| r.len() as u64).collect();
    // Assemble the join tree in decomposition shape.
    let mut order = vec![plan.root];
    let mut i = 0;
    while i < order.len() {
        let u = order[i];
        order.extend(plan.children[u].iter().copied());
        i += 1;
    }
    let mut jt = JoinTree::leaf(bag_rels[plan.root].clone());
    let mut jt_id = vec![usize::MAX; plan.nodes.len()];
    jt_id[plan.root] = 0;
    for &u in &order[1..] {
        let parent = (0..plan.nodes.len())
            .find(|&p| plan.children[p].contains(&u))
            .expect("tree shape");
        let id = jt.add_child(jt_id[parent], bag_rels[u].clone());
        jt_id[u] = id;
    }
    jt.full_reduce(&mut stats);
    let value = match cq.agg {
        crate::ast::Agg::Min => jt.min_after_reduce(cq.agg_var),
        crate::ast::Agg::Max => jt.max_after_reduce(cq.agg_var),
        crate::ast::Agg::Count => {
            let c = jt.count_join();
            Some(u64::try_from(c).unwrap_or(u64::MAX))
        }
    };
    Some(ExecResult {
        value,
        stats,
        bag_sizes,
    })
}

/// End-to-end convenience: bag sizes for a decomposition without running
/// the Yannakakis phases (used by the actual-cardinality cost function).
pub fn bag_size(
    cq: &ConjunctiveQuery,
    atoms: &[Relation],
    h: &Hypergraph,
    bag: &BitSet,
) -> Option<u64> {
    let cover = cover(h, bag)?;
    let mut assigned = cover.clone();
    for (ai, _) in cq.atoms.iter().enumerate() {
        if !assigned.contains(&ai) && cq.atom_vars(ai).iter().all(|&v| bag.contains(v as usize)) {
            assigned.push(ai);
        }
    }
    let mut acc: Option<Relation> = None;
    for &ai in &assigned {
        acc = Some(match acc {
            None => atoms[ai].clone(),
            Some(r) => r.natural_join(&atoms[ai]),
        });
    }
    let joined = acc?;
    let keep: Vec<VarId> = bag
        .iter()
        .map(|v| v as VarId)
        .filter(|&v| joined.position(v).is_some())
        .collect();
    Some(joined.project(&keep).distinct().len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::bind;
    use crate::parser::parse_sql;
    use softhw_core::soft::soft_bags;
    use softhw_engine::Table;

    fn path_db() -> Database {
        let mut db = Database::new();
        let mut r = Table::new("r", &["a", "b"], None);
        r.push_row(&[1, 10]);
        r.push_row(&[2, 20]);
        r.push_row(&[3, 30]);
        let mut s = Table::new("s", &["b", "c"], None);
        s.push_row(&[10, 100]);
        s.push_row(&[20, 200]);
        let mut t = Table::new("t", &["c", "d"], None);
        t.push_row(&[100, 7]);
        t.push_row(&[200, 8]);
        db.add_table(r);
        db.add_table(s);
        db.add_table(t);
        db
    }

    #[test]
    fn end_to_end_path_query() {
        let db = path_db();
        let q = parse_sql("SELECT MIN(r.a) FROM r, s, t WHERE r.b = s.b AND s.c = t.c").unwrap();
        let cq = bind(&q, &db).unwrap();
        let h = cq.hypergraph();
        let (w, td) = softhw_core::shw::shw(&h);
        assert_eq!(w, 1, "path query is acyclic");
        let plan = build_plan(&cq, &h, &td).unwrap();
        let atoms = atom_relations(&cq, &db);
        let res = execute(&cq, &atoms, &plan);
        assert_eq!(res.value, Some(1));
    }

    #[test]
    fn execution_matches_baseline() {
        let db = path_db();
        let q = parse_sql("SELECT MAX(t.d) FROM r, s, t WHERE r.b = s.b AND s.c = t.c").unwrap();
        let cq = bind(&q, &db).unwrap();
        let h = cq.hypergraph();
        let atoms = atom_relations(&cq, &db);
        // decomposition path
        let bags = soft_bags(&h, 2);
        let td = softhw_core::candidate_td(&h, &bags).unwrap();
        let plan = build_plan(&cq, &h, &td).unwrap();
        let res = execute(&cq, &atoms, &plan);
        // baseline path
        let (bm, _) = softhw_engine::baseline::baseline_min(&atoms, cq.agg_var, u64::MAX).unwrap();
        // MAX via baseline: reuse run_baseline
        let base = softhw_engine::baseline::run_baseline(&atoms, &[cq.agg_var], u64::MAX)
            .unwrap()
            .answer;
        assert_eq!(res.value, base.max_of(cq.agg_var));
        assert!(bm.is_some());
    }

    #[test]
    fn filters_applied() {
        let db = path_db();
        let q = parse_sql("SELECT MIN(r.a) FROM r, s, t WHERE r.b = s.b AND s.c = t.c AND t.d = 8")
            .unwrap();
        let cq = bind(&q, &db).unwrap();
        let h = cq.hypergraph();
        let (_, td) = softhw_core::shw::shw(&h);
        let plan = build_plan(&cq, &h, &td).unwrap();
        let atoms = atom_relations(&cq, &db);
        let res = execute(&cq, &atoms, &plan);
        assert_eq!(res.value, Some(2));
    }

    #[test]
    fn bag_size_counts_projected_join() {
        let db = path_db();
        let q = parse_sql("SELECT MIN(r.a) FROM r, s WHERE r.b = s.b").unwrap();
        let cq = bind(&q, &db).unwrap();
        let h = cq.hypergraph();
        let atoms = atom_relations(&cq, &db);
        let bag = h.all_vertices();
        let sz = bag_size(&cq, &atoms, &h, &bag).unwrap();
        assert_eq!(sz, 2); // two joining pairs
    }

    #[test]
    fn count_aggregate() {
        let db = path_db();
        let q = parse_sql("SELECT COUNT(r.a) FROM r, s WHERE r.b = s.b").unwrap();
        let cq = bind(&q, &db).unwrap();
        let h = cq.hypergraph();
        let (_, td) = softhw_core::shw::shw(&h);
        let plan = build_plan(&cq, &h, &td).unwrap();
        let atoms = atom_relations(&cq, &db);
        let res = execute(&cq, &atoms, &plan);
        assert_eq!(res.value, Some(2));
    }
}
